//! Workload inputs, all generated with `sympiler_sparse::gen` from the
//! run's seed. The seed moves values and (for the random families)
//! patterns, never the shape of a workload: pattern count, families,
//! sizes and options are fixed here.

use crate::stats::Rng;
use sympiler_core::{Ordering, PrePivot, SympilerOptions};
use sympiler_sparse::{gen, CscMatrix};

/// One distinct pattern of a workload with the options it is compiled
/// under.
pub struct Problem {
    pub name: String,
    pub a: CscMatrix,
    pub opts: SympilerOptions,
}

/// Fresh values for one step: the pattern's matrix with every value
/// scaled by an independent factor in `[0.975, 1.025)`, and a
/// right-hand side with entries in `[1, 2)`.
pub fn fresh_values(base: &CscMatrix, rng: &mut Rng) -> (CscMatrix, Vec<f64>) {
    let mut a = base.clone();
    for v in a.values_mut() {
        *v *= 0.975 + 0.05 * rng.unit();
    }
    let b = (0..a.n_rows()).map(|_| 1.0 + rng.unit()).collect();
    (a, b)
}

fn colamd() -> SympilerOptions {
    SympilerOptions {
        ordering: Ordering::Colamd,
        ..Default::default()
    }
}

fn kkt(n_threads: usize) -> SympilerOptions {
    SympilerOptions {
        ordering: Ordering::Colamd,
        pre_pivot: PrePivot::WeightedMatching,
        mc64_scale: true,
        n_threads,
        ..Default::default()
    }
}

/// A workload's patterns and the runs of steps each takes per loop
/// cycle.
pub type Mix = (Vec<Problem>, Vec<usize>);

/// Run weights shared by both closed loops, in the order small, small,
/// mid-size, large: of every 50 runs, 3 + 3 go to the two small
/// patterns (12% of steps), 43 to the mid-size one (86%) and 1 to the
/// large one, about 3× slower (2%). p50 then lies near the middle of
/// the mid-size pattern's steps and p99 at the median of the large
/// one's: each inside one class, never on a boundary between two.
const CLOSED_MIX: [usize; 4] = [3, 3, 43, 1];

/// `refactor_serial`: a random and a circuit pattern, then a 48² and a
/// 64² convection-diffusion grid, under default options plus COLAMD.
/// The grids' patterns do not depend on the seed.
pub fn refactor_serial(seed: u64) -> Mix {
    let mut rng = Rng::new(seed);
    let grid = |k: usize, rng: &mut Rng| Problem {
        name: format!("convdiff_{k}x{k}"),
        a: gen::convection_diffusion_2d(k, k, 1.0, rng.next_u64()),
        opts: colamd(),
    };
    let problems = vec![
        Problem {
            name: "random_300".into(),
            a: gen::random_unsym(300, 3, rng.next_u64()),
            opts: colamd(),
        },
        Problem {
            name: "circuit_500".into(),
            a: gen::circuit_unsym(500, 3, 1, rng.next_u64()),
            opts: colamd(),
        },
        grid(48, &mut rng),
        grid(64, &mut rng),
    ];
    (problems, CLOSED_MIX.to_vec())
}

/// `refactor_kkt_2t`: a small saddle-point system and a scrambled
/// circuit, then a mid-size and a large saddle-point system, all
/// zero-diagonal, under weighted matching, MC64 scaling, COLAMD and two
/// threads. The two saddle-point systems that p50 and p99 fall on keep
/// one pattern on every seed (their fill, and so their flops, would
/// otherwise move with it); the seed scales their values.
pub fn refactor_kkt(seed: u64) -> Mix {
    let mut rng = Rng::new(seed ^ 0x006b_6b74);
    let saddle = |m: usize, a: CscMatrix| Problem {
        name: format!("saddle_{m}_{}", m / 4),
        a,
        opts: kkt(2),
    };
    let fixed = |m: usize, rng: &mut Rng| {
        let base = gen::saddle_point_2x2(m, m / 4, 0x5add_1e00 + m as u64);
        saddle(m, fresh_values(&base, rng).0)
    };
    let problems = vec![
        saddle(240, gen::saddle_point_2x2(240, 60, rng.next_u64())),
        Problem {
            name: "circuit_zdiag_700".into(),
            a: gen::circuit_zero_diag(700, 3, 1, rng.next_u64()),
            opts: kkt(2),
        },
        fixed(600, &mut rng),
        fixed(960, &mut rng),
    ];
    (problems, CLOSED_MIX.to_vec())
}

/// The `serve_mixed` generator families; pool pattern `i` belongs to
/// family `i % 4`.
pub const FAMILIES: [&str; 4] = ["convdiff", "circuit", "random", "circuit_zdiag"];

/// Patterns in the `serve_mixed` pool, a multiple of the four families.
pub const SERVE_POOL: usize = 96;

/// `serve_mixed`: many small patterns (n in 200..600) from four
/// generator families, each under the options its family needs. Family
/// and size follow the pool index on a fixed schedule, so the seed
/// changes each pattern's values and random structure but never which
/// family and size sit at which popularity rank.
pub fn serve_pool(seed: u64) -> Vec<Problem> {
    let mut rng = Rng::new(seed ^ 0x5e7e);
    (0..SERVE_POOL)
        .map(|i| {
            let s = rng.next_u64();
            let n = 200 + (i * 167 + 399) % 400;
            match i % 4 {
                0 => {
                    // A distinct width per grid keeps every grid distinct.
                    let nx = 10 + i / 4;
                    let ny = n / nx;
                    Problem {
                        name: format!("convdiff_{nx}x{ny}"),
                        a: gen::convection_diffusion_2d(nx, ny, 1.0, s),
                        opts: colamd(),
                    }
                }
                1 => Problem {
                    name: format!("circuit_{n}"),
                    a: gen::circuit_unsym(n, 3, 1, s),
                    opts: colamd(),
                },
                2 => Problem {
                    name: format!("random_{n}"),
                    a: gen::random_unsym(n, 2, s),
                    opts: colamd(),
                },
                _ => Problem {
                    name: format!("circuit_zdiag_{n}"),
                    a: gen::circuit_zero_diag(n, 3, 1, s),
                    opts: kkt(1),
                },
            }
        })
        .collect()
}
