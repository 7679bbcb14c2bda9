//! Per-layer measurements for the traced run: the compile stages
//! replayed through each graph module's public function, plan
//! getters, the dense kernel at the workload's own panel shape, host
//! calibration, and the coupled Gilbert–Peierls reference.

use crate::check::Tally;
use crate::problems::Problem;
use crate::stats::median;
use crate::Metrics;
use std::hint::black_box;
use std::time::Instant;
use sympiler_core::{PrePivot, SympilerLu};
use sympiler_graph::ordering::Ordering;
use sympiler_obs::{Profile, TraceFile};
use sympiler_sparse::{ops, CscMatrix};

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn identity(n: usize) -> Vec<usize> {
    (0..n).collect()
}

/// Replay `SympilerLu::compile` and its four graph stages `reps` times
/// per pattern, interleaved, and report the sums over patterns of the
/// per-pattern medians. `compile.rest_ms` is the remainder of the
/// compile time the four stages leave; stages that overshoot the
/// compile time by more than 5% count as an accounting violation.
/// Returns the plans of the last pass.
pub fn compile_stages(
    problems: &[Problem],
    reps: usize,
    m: &mut Metrics,
    violations: &mut usize,
) -> Vec<SympilerLu> {
    let np = problems.len();
    let mut t = vec![[Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new()]; np];
    let mut plans = Vec::new();
    for rep in 0..reps {
        for (i, p) in problems.iter().enumerate() {
            let a = &p.a;
            let n = a.n_cols();
            let t0 = Instant::now();
            let lu = SympilerLu::compile(a, &p.opts).expect("workload patterns compile");
            t[i][4].push(ms_since(t0));

            let mut pivoted = None;
            if p.opts.pre_pivot != PrePivot::Off {
                let t0 = Instant::now();
                let sm = sympiler_graph::transversal::weighted_matching_scaled(black_box(a))
                    .expect("workload patterns have a perfect matching");
                t[i][0].push(ms_since(t0));
                pivoted = Some(ops::permute_rows(a, &sm.rowp).expect("matching is a permutation"));
            } else {
                t[i][0].push(0.0);
            }
            if p.opts.ordering == Ordering::Colamd {
                let src = pivoted.as_ref().unwrap_or(a);
                let t0 = Instant::now();
                black_box(sympiler_graph::colamd::colamd_ordering(black_box(src)));
                t[i][1].push(ms_since(t0));
            } else {
                t[i][1].push(0.0);
            }
            let rperm = lu.row_perm().map_or_else(|| identity(n), <[usize]>::to_vec);
            let cperm = lu.col_perm().map_or_else(|| identity(n), <[usize]>::to_vec);
            let b = ops::permute_general(a, &rperm, &cperm).expect("plan maps are permutations");
            let t0 = Instant::now();
            let sym = sympiler_graph::lu_symbolic::lu_symbolic(black_box(&b));
            t[i][2].push(ms_since(t0));
            let rows: Vec<u32> = sym.l_row_idx.iter().map(|&r| r as u32).collect();
            let t0 = Instant::now();
            black_box(
                sympiler_graph::lu_supernode::supernodes_lu_relaxed_from_parts(
                    n,
                    &sym.l_col_ptr,
                    &rows,
                    p.opts.max_panel,
                    p.opts.relax_fill,
                    p.opts.relax_cols,
                ),
            );
            t[i][3].push(ms_since(t0));
            if rep + 1 == reps {
                plans.push(lu);
            }
        }
    }
    let sum = |k: usize| -> f64 { t.iter().map(|v| median(&v[k])).sum() };
    let (pre, ord, sym, pan, total) = (sum(0), sum(1), sum(2), sum(3), sum(4));
    let rest = total - (pre + ord + sym + pan);
    // Sums of per-pattern medians need not add up exactly; a stage
    // replay that overshoots the whole compile by more than 5% does
    // not come from noise.
    if rest < -0.05 * total {
        *violations += 1;
    }
    m.push("graph.prepivot_ms", pre, "ms");
    m.push("graph.ordering_ms", ord, "ms");
    m.push("graph.symbolic_ms", sym, "ms");
    m.push("graph.panels_ms", pan, "ms");
    m.push("compile.total_ms", total, "ms");
    m.push("compile.rest_ms", rest, "ms");
    plans
}

/// Exact plan counts from public getters; the shape of the median
/// wide panel (union rows, width) when any plan blocks.
pub fn plan_stats(plans: &[SympilerLu], m: &mut Metrics) -> Option<(usize, usize)> {
    let np = plans.len() as f64;
    let mut rows = Vec::new();
    let mut widths = Vec::new();
    let (mut sup, mut width, mut dense) = (0.0, 0.0, 0.0);
    for lu in plans {
        match lu.supernodal() {
            Some(s) => {
                sup += 1.0;
                width += s.mean_panel_width();
                dense += s.dense_flop_share();
                let layout = s.panel_layout();
                for k in 0..layout.part.n_supernodes() {
                    let w = layout.part.width(k);
                    if w > 1 {
                        widths.push(w as f64);
                        rows.push(layout.panel_rows(k).len() as f64);
                    }
                }
            }
            None => width += 1.0,
        }
    }
    let table: usize = plans.iter().map(SympilerLu::table_bytes).sum();
    let flops: u64 = plans.iter().map(SympilerLu::flops).sum();
    m.push("plan.supernodal_share", sup / np, "fraction");
    m.push("plan.mean_panel_width", width / np, "cols");
    m.push("plan.dense_flop_share", dense / np, "fraction");
    m.push("plan.table_mb", table as f64 / 1e6, "MB");
    m.push("plan.mflops", flops as f64 / 1e6, "Mflop");
    (!widths.is_empty()).then(|| (median(&rows) as usize, median(&widths) as usize))
}

/// Bytes one factorization moves, computed (not measured): the
/// compiled tables read once, `A`'s values and row indices read, and
/// `L`/`U` values and row indices written.
pub fn factor_bytes(lu: &SympilerLu, a: &CscMatrix) -> f64 {
    let plan = lu.plan();
    (lu.table_bytes() + 12 * (a.nnz() + plan.l_nnz() + plan.u_nnz())) as f64
}

/// GFLOP/s of `gemm_nt_sub` on `C(m×n) -= A(m×k)·B(n×k)ᵀ`: the median
/// rate of batches run for at least `secs`.
pub fn gemm_gflops(m: usize, n: usize, k: usize, secs: f64) -> f64 {
    let a = vec![1e-3; m * k];
    let b = vec![1e-3; n * k];
    let mut c = vec![0.0; m * n];
    let flop = 2.0 * (m * n * k) as f64;
    let batch = ((2e6 / flop) as usize).max(1);
    let mut rates = Vec::new();
    let start = Instant::now();
    while rates.len() < 5 || start.elapsed().as_secs_f64() < secs {
        let t0 = Instant::now();
        for _ in 0..batch {
            sympiler_dense::gemm_nt_sub(m, n, k, black_box(&a), m, black_box(&b), n, &mut c, m);
        }
        rates.push(flop * batch as f64 / t0.elapsed().as_secs_f64() / 1e9);
        black_box(&mut c);
    }
    median(&rates)
}

/// Host peak of the same kernel: the best of a few cache-resident
/// shapes.
pub fn gemm_peak_gflops() -> f64 {
    [(64, 32, 32), (128, 64, 64), (256, 64, 64), (512, 32, 32)]
        .iter()
        .map(|&(m, n, k)| gemm_gflops(m, n, k, 0.1))
        .fold(0.0, f64::max)
}

/// Size the stream arrays are based on when the last-level cache
/// cannot be read.
pub const LLC_FALLBACK: usize = 64 << 20;

/// The last-level cache in bytes: the highest-level data or unified
/// cache of CPU 0 in sysfs, else `getconf LEVEL3_CACHE_SIZE` /
/// `LEVEL2_CACHE_SIZE`; `None` when neither reports it.
pub fn llc_bytes() -> Option<usize> {
    let read = |path: std::path::PathBuf| std::fs::read_to_string(path).ok();
    let mut best: Option<(u32, usize)> = None;
    for i in 0..8 {
        let dir = std::path::PathBuf::from(format!("/sys/devices/system/cpu/cpu0/cache/index{i}"));
        let (Some(level), Some(size), Some(kind)) = (
            read(dir.join("level")),
            read(dir.join("size")),
            read(dir.join("type")),
        ) else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<usize>().ok().map(|k| k << 10),
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<usize>().ok().map(|m| m << 20),
                None => size.parse().ok(),
            },
        };
        if let (Ok(level), Some(bytes)) = (level.trim().parse::<u32>(), bytes) {
            if best.is_none_or(|(l, _)| level > l) {
                best = Some((level, bytes));
            }
        }
    }
    if let Some((_, bytes)) = best {
        return Some(bytes);
    }
    ["LEVEL3_CACHE_SIZE", "LEVEL2_CACHE_SIZE"]
        .iter()
        .find_map(|name| {
            let out = std::process::Command::new("getconf")
                .arg(name)
                .output()
                .ok()?;
            let bytes: usize = String::from_utf8(out.stdout).ok()?.trim().parse().ok()?;
            (bytes > 0).then_some(bytes)
        })
}

/// Streaming triad `a = b + s·c` over three arrays whose total size is
/// at least four times `llc_bytes`. Counts the bytes of the two reads
/// and one write per element (write-allocate traffic not counted);
/// returns `(GB/s as the median of 5 passes, total array bytes)`.
pub fn stream_gbps(llc_bytes: usize) -> (f64, usize) {
    let len = (4 * llc_bytes).div_ceil(3 * 8).max(1 << 20);
    let mut a = vec![0.0f64; len];
    let b = vec![1.0f64; len];
    let c = vec![2.0f64; len];
    let mut rates = Vec::new();
    for pass in 0..6 {
        let s = 0.5 + pass as f64;
        let t0 = Instant::now();
        for ((x, &y), &z) in a.iter_mut().zip(&b).zip(&c) {
            *x = y + s * z;
        }
        black_box(&mut a);
        let dt = t0.elapsed().as_secs_f64();
        if pass > 0 {
            rates.push(24.0 * len as f64 / dt / 1e9);
        }
    }
    (median(&rates), 24 * len)
}

/// The paper's coupled baseline: `GpLu::factor(Pivoting::None)` on the
/// matrix the plan factors (same scaling, same permutations), median
/// of `reps` per pattern.
pub fn gplu_factor_ms(
    problems: &[Problem],
    plans: &[SympilerLu],
    reps: usize,
    tally: &mut Tally,
) -> Vec<f64> {
    let mut out = Vec::new();
    for (p, lu) in problems.iter().zip(plans) {
        let n = p.a.n_cols();
        let scaled = match lu.plan().mc64_scaling() {
            Some((dr, dc)) => ops::scale_rows_cols(&p.a, dr, dc).expect("scalings fit"),
            None => p.a.clone(),
        };
        let rperm = lu.row_perm().map_or_else(|| identity(n), <[usize]>::to_vec);
        let cperm = lu.col_perm().map_or_else(|| identity(n), <[usize]>::to_vec);
        let b = ops::permute_general(&scaled, &rperm, &cperm).expect("plan maps are permutations");
        let mut times = Vec::new();
        for _ in 0..reps {
            let t0 = Instant::now();
            let f = sympiler_solvers::GpLu::factor(black_box(&b), sympiler_solvers::Pivoting::None);
            times.push(ms_since(t0));
            tally.record(f.is_ok());
        }
        out.push(median(&times));
    }
    out
}

/// Trace accounting for every span named `root`: its child spans (one
/// level deeper on the same lane) plus one remainder must equal its
/// wall time. Returns `(remainder share of the roots' wall time in %,
/// violations)`, where a violation is a child outside its parent or
/// children whose sum exceeds the parent's wall time.
pub fn accounting(profile: &Profile, root: &str) -> (f64, usize) {
    let spans = &profile.spans;
    let mut child_sum = vec![0u64; spans.len()];
    let mut violations = 0;
    // Spans come lane by lane, each lane in the order they were opened,
    // so the parent of a span at depth `d` is the last one seen at
    // depth `d - 1` on its lane.
    let mut open: Vec<usize> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if i > 0 && spans[i - 1].lane != s.lane {
            open.clear();
        }
        open.truncate(s.depth);
        if let Some(&p) = open.get(s.depth.wrapping_sub(1)) {
            let parent = &spans[p];
            if s.start_ns < parent.start_ns
                || s.start_ns + s.dur_ns > parent.start_ns + parent.dur_ns
            {
                violations += 1;
            }
            child_sum[p] += s.dur_ns;
        }
        open.push(i);
    }
    let (mut wall, mut rest) = (0u64, 0u64);
    for (s, &children) in spans.iter().zip(&child_sum) {
        if s.name != root {
            continue;
        }
        wall += s.dur_ns;
        match s.dur_ns.checked_sub(children) {
            Some(r) => rest += r,
            None => violations += 1,
        }
    }
    let pct = if wall == 0 {
        0.0
    } else {
        100.0 * rest as f64 / wall as f64
    };
    (pct, violations)
}

/// Write `profile` as a chrome trace-event JSON file.
pub fn write_trace(path: &std::path::Path, profile: Profile) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = TraceFile::new("perfbench");
    file.push(profile);
    std::fs::write(path, file.to_chrome_json())
}

#[cfg(test)]
mod tests {
    use super::accounting;
    use sympiler_obs::{Profile, SpanRec};

    fn span(name: &str, depth: usize, start_ns: u64, dur_ns: u64) -> SpanRec {
        SpanRec {
            name: name.into(),
            lane: 0,
            depth,
            start_ns,
            dur_ns,
            args: Vec::new(),
        }
    }

    #[test]
    fn accounting_splits_roots_into_children_and_remainder() {
        let profile = Profile {
            spans: vec![
                span("step", 0, 0, 100),
                span("factor", 1, 0, 60),
                span("solve", 1, 60, 30),
                // A child that starts before its parent and outlasts
                // it: outside the parent, and longer than it.
                span("step", 0, 200, 50),
                span("factor", 1, 190, 70),
            ],
            ..Profile::default()
        };
        let (pct, violations) = accounting(&profile, "step");
        assert_eq!(violations, 2);
        assert!((pct - 100.0 * 10.0 / 150.0).abs() < 1e-9, "{pct}");
    }
}
