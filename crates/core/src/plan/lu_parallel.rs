//! Level-scheduled parallel LU numeric phase: the serial plan's
//! per-column kernel run over the column elimination DAG by the
//! leveled executor ([`super::leveled`]).
//!
//! The dependences of left-looking LU are exactly the column
//! elimination DAG the inspector already computed: column `j` consumes
//! `L(:, k)` for every `k` in its baked update schedule (equivalently,
//! every `k < j` with `U(k, j) != 0`). The DAG is leveled and
//! cost-balanced with the inspector's exact per-column costs at
//! compile time; every column runs the same kernel as the serial plan
//! (`LuPlan::column_numeric`) with a private dense accumulator per
//! worker, so results are **bitwise identical** to the serial plan at
//! every thread count.

use super::leveled::{Leveled, SharedMut};
use super::lu::{LuFactor, LuPlan, LuPlanError, PerturbReport};
use sympiler_sparse::CscMatrix;

/// A compiled LU factorization whose numeric phase executes the column
/// elimination DAG level by level across a fixed number of threads.
#[derive(Debug, Clone)]
pub struct ParallelLuPlan {
    plan: LuPlan,
    leveled: Leveled,
}

impl ParallelLuPlan {
    /// Level and chunk an already-compiled serial plan across
    /// `n_threads` workers. Pure schedule re-arrangement: no symbolic
    /// analysis re-runs — the elimination DAG is read straight off the
    /// baked update schedules. Orderings pay twice here: less fill
    /// means fewer flops, and a reordered elimination DAG is shallower
    /// and bushier, so the leveling finds real concurrency where the
    /// natural order yields near-chains.
    pub fn from_plan(plan: LuPlan, n_threads: usize) -> Self {
        let leveled = Leveled::new(|j| plan.schedule(j), &plan.per_column_costs(), n_threads);
        Self { plan, leveled }
    }

    /// The underlying serial plan (shared symbolic analysis, report,
    /// flop counts, C emission).
    pub fn serial(&self) -> &LuPlan {
        &self.plan
    }

    /// The compiled column schedule: levels, worker chunks, barriers.
    pub fn leveled(&self) -> &Leveled {
        &self.leveled
    }

    /// Parallel numeric factorization: identical results to
    /// [`LuPlan::factor`], bit for bit, at any thread count.
    pub fn factor(&self, a: &CscMatrix) -> Result<LuFactor, LuPlanError> {
        let plan = &self.plan;
        if self.leveled.n_threads() == 1 {
            // No point paying for the executor; the serial plan runs
            // the same columns in a level-compatible order.
            return plan.factor(a);
        }
        plan.check_pattern(a)?;
        let mut lx = vec![0.0f64; plan.l_nnz()];
        let mut ux = vec![0.0f64; plan.u_nnz()];
        let (l, u) = (SharedMut::new(&mut lx), SharedMut::new(&mut ux));
        let thresh = plan.perturb_threshold(a);
        let columns = self.leveled.run(
            plan.profiler(),
            "factor:parallel",
            || vec![0.0f64; plan.n()],
            |j, x, lane| {
                // SAFETY: `l`/`u` address the full factor arrays, and
                // the executor runs column j once, after every column
                // of its update schedule (its DAG predecessors) is
                // final and visible; no other task writes j's ranges.
                let status = unsafe { plan.column_numeric(j, a, x, l.get(), u.get(), thresh) };
                lane.pivot(j, status);
                lane.scalar_flops += plan.col_flops[j];
            },
        )?;
        Ok(plan.finish(
            a,
            lx,
            ux,
            PerturbReport {
                columns,
                threshold: thresh,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympiler_graph::ordering::Ordering as FillOrdering;
    use sympiler_sparse::gen;

    fn bitwise_eq(a: &LuFactor, b: &LuFactor) -> bool {
        a.l()
            .values()
            .iter()
            .zip(b.l().values())
            .all(|(x, y)| x.to_bits() == y.to_bits())
            && a.u()
                .values()
                .iter()
                .zip(b.u().values())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        for seed in 0..4u64 {
            for a in [
                gen::circuit_unsym(120, 4, 2, seed),
                gen::random_unsym(90, 4, seed + 40),
                gen::convection_diffusion_2d(9, 8, 1.5, seed + 80),
            ] {
                let serial = LuPlan::build(&a, true, 2).unwrap();
                let f_serial = serial.factor(&a).unwrap();
                for threads in [2, 3, 4] {
                    let par = ParallelLuPlan::from_plan(serial.clone(), threads);
                    let f_par = par.factor(&a).unwrap();
                    assert!(
                        bitwise_eq(&f_serial, &f_par),
                        "seed {seed}, {threads} threads: factors must be bitwise identical"
                    );
                }
            }
        }
    }

    #[test]
    fn ordered_parallel_plan_matches_ordered_serial_bitwise() {
        let a = gen::circuit_unsym(110, 4, 2, 6);
        for ordering in [FillOrdering::Rcm, FillOrdering::Colamd] {
            let serial = LuPlan::build_ordered(&a, true, 2, ordering).unwrap();
            let f_serial = serial.factor(&a).unwrap();
            let par =
                ParallelLuPlan::from_plan(LuPlan::build_ordered(&a, true, 2, ordering).unwrap(), 3);
            assert_eq!(par.serial().ordering(), ordering);
            let f_par = par.factor(&a).unwrap();
            assert!(
                bitwise_eq(&f_serial, &f_par),
                "{ordering:?}: ordered parallel factors must be bitwise serial"
            );
        }
    }

    #[test]
    fn repeated_runs_are_deterministic() {
        let a = gen::circuit_unsym(100, 4, 2, 11);
        let par = ParallelLuPlan::from_plan(LuPlan::build(&a, true, 2).unwrap(), 4);
        let f1 = par.factor(&a).unwrap();
        let f2 = par.factor(&a).unwrap();
        assert!(bitwise_eq(&f1, &f2), "same plan, same input, same bits");
    }

    #[test]
    fn single_thread_delegates_to_serial() {
        let a = gen::random_unsym(50, 3, 5);
        let par = ParallelLuPlan::from_plan(LuPlan::build(&a, true, 2).unwrap(), 1);
        let serial = LuPlan::build(&a, true, 2).unwrap();
        let f1 = par.factor(&a).unwrap();
        let f2 = serial.factor(&a).unwrap();
        assert!(bitwise_eq(&f1, &f2));
        assert_eq!(par.leveled().n_threads(), 1);
    }

    #[test]
    fn levels_partition_all_columns_and_respect_deps() {
        let a = gen::circuit_unsym(80, 4, 2, 3);
        let par = ParallelLuPlan::from_plan(LuPlan::build(&a, true, 2).unwrap(), 3);
        let n = a.n_cols();
        // Every column appears exactly once across levels, and exactly
        // once across the per-worker chunks of its level.
        let mut seen = vec![false; n];
        for lv in 0..par.leveled().n_levels() {
            let mut level_cols: Vec<usize> = Vec::new();
            for t in 0..par.leveled().n_threads() {
                level_cols.extend_from_slice(par.leveled().chunk(lv, t));
            }
            assert_eq!(
                level_cols,
                par.leveled().level(lv),
                "level {lv} chunk cover"
            );
            for &j in par.leveled().level(lv) {
                assert!(!seen[j], "column {j} scheduled twice");
                seen[j] = true;
                // Dependences point strictly to earlier levels.
                for k in par.serial().schedule(j) {
                    let kl = (0..par.leveled().n_levels())
                        .find(|&l| par.leveled().level(l).contains(&k))
                        .unwrap();
                    assert!(kl < lv, "update {k}->{j} must cross levels downward");
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "all columns scheduled");
        assert!(par.leveled().avg_parallelism() >= 1.0);
    }

    #[test]
    fn chain_dag_elides_every_barrier() {
        // Diag + superdiagonal: column j depends on j - 1, a pure
        // chain. Every level is a singleton owned by worker 0, so the
        // compiled schedule must contain no barriers at all — and the
        // factor must still be bitwise serial.
        let n = 40;
        let mut t = sympiler_sparse::TripletMatrix::new(n, n);
        for j in 0..n {
            t.push(j, j, 2.0);
            if j + 1 < n {
                t.push(j, j + 1, 1.0);
            }
        }
        let a = t.to_csc().unwrap();
        let par = ParallelLuPlan::from_plan(LuPlan::build(&a, true, 2).unwrap(), 4);
        assert_eq!(par.leveled().n_levels(), n);
        assert_eq!(
            par.leveled().n_barriers(),
            0,
            "chain must cost zero barriers"
        );
        let serial = LuPlan::build(&a, true, 2).unwrap();
        let f1 = par.factor(&a).unwrap();
        let f2 = serial.factor(&a).unwrap();
        assert!(bitwise_eq(&f1, &f2));
    }

    #[test]
    fn heterogeneous_chain_still_elides_every_barrier() {
        // A superdiagonal chain whose per-column costs alternate
        // (every third column carries a sub-diagonal entry, which is
        // absorbed as the next column's diagonal — no fill, but the
        // costs cycle 5, 5, 3). A singleton level's cost used to pick
        // its owner (the prefix-sum target lands a cost-3 column on
        // worker 1 at 4 threads, a cost-5 column on worker 0), so the
        // owners alternated and most barriers survived. Ownership is
        // now normalized to worker 0, so the chain must cost zero
        // barriers.
        let n = 40;
        let mut t = sympiler_sparse::TripletMatrix::new(n, n);
        for j in 0..n {
            t.push(j, j, 3.0);
            if j + 1 < n {
                t.push(j, j + 1, 1.0); // the chain edge j -> j + 1
                if j % 3 == 0 {
                    t.push(j + 1, j, 0.25); // heavier column, no fill
                }
            }
        }
        let a = t.to_csc().unwrap();
        let par = ParallelLuPlan::from_plan(LuPlan::build(&a, true, 2).unwrap(), 4);
        assert_eq!(par.leveled().n_levels(), n, "superdiagonal chain dominates");
        assert_eq!(
            par.leveled().n_barriers(),
            0,
            "cost-heterogeneous chain must still elide all barriers"
        );
        let serial = LuPlan::build(&a, true, 2).unwrap();
        assert!(bitwise_eq(
            &par.factor(&a).unwrap(),
            &serial.factor(&a).unwrap()
        ));
    }

    #[test]
    fn wide_dag_keeps_barriers() {
        // An arrow pointing up-left (dense last row and column): the
        // first n - 1 columns are mutually independent and all feed
        // the last one — two levels, multiple owners, so the single
        // level boundary must keep its barrier.
        let n = 32;
        let mut t = sympiler_sparse::TripletMatrix::new(n, n);
        for j in 0..n {
            t.push(j, j, 4.0);
            if j + 1 < n {
                t.push(n - 1, j, 1.0);
                t.push(j, n - 1, 1.0);
            }
        }
        let a = t.to_csc().unwrap();
        let par = ParallelLuPlan::from_plan(LuPlan::build(&a, true, 2).unwrap(), 4);
        assert_eq!(par.leveled().n_levels(), 2);
        assert_eq!(par.leveled().n_barriers(), 1);
        assert_eq!(par.leveled().level(1), &[n - 1]);
        let serial = LuPlan::build(&a, true, 2).unwrap();
        assert!(bitwise_eq(
            &par.factor(&a).unwrap(),
            &serial.factor(&a).unwrap()
        ));
    }

    #[test]
    fn zero_pivot_reported_like_serial() {
        // Diagonal matrix with one zeroed value: the parallel plan must
        // report the same column as the serial plan.
        let mut t = sympiler_sparse::TripletMatrix::new(6, 6);
        for j in 0..6 {
            t.push(j, j, 1.0);
        }
        let a0 = t.to_csc().unwrap();
        let mut a = a0.clone();
        a.values_mut()[3] = 0.0;
        let serial = LuPlan::build(&a0, true, 2).unwrap();
        let serial_err = serial.factor(&a).unwrap_err();
        let par = ParallelLuPlan::from_plan(serial, 3);
        let par_err = par.factor(&a).unwrap_err();
        assert_eq!(serial_err, par_err);
        assert!(matches!(par_err, LuPlanError::ZeroPivot { column: 3 }));
    }

    #[test]
    fn pattern_mismatch_rejected() {
        let a = gen::random_unsym(30, 3, 1);
        let par = ParallelLuPlan::from_plan(LuPlan::build(&a, true, 2).unwrap(), 2);
        let other = gen::random_unsym(30, 3, 2);
        assert!(matches!(
            par.factor(&other),
            Err(LuPlanError::PatternMismatch)
        ));
    }

    #[test]
    fn more_threads_than_columns() {
        let a = gen::random_unsym(5, 2, 9);
        let par = ParallelLuPlan::from_plan(LuPlan::build(&a, true, 2).unwrap(), 8);
        let serial = LuPlan::build(&a, true, 2).unwrap();
        let f1 = par.factor(&a).unwrap();
        let f2 = serial.factor(&a).unwrap();
        assert!(bitwise_eq(&f1, &f2));
    }

    #[test]
    fn empty_matrix() {
        let a = sympiler_sparse::CscMatrix::zeros(0, 0);
        let par = ParallelLuPlan::from_plan(LuPlan::build(&a, true, 2).unwrap(), 2);
        assert_eq!(par.leveled().n_levels(), 0);
        assert_eq!(par.leveled().avg_parallelism(), 0.0);
        let f = par.factor(&a).unwrap();
        assert_eq!(f.l().nnz(), 0);
    }

    #[test]
    fn solve_through_parallel_factor() {
        let a = gen::convection_diffusion_2d(8, 8, 2.0, 7);
        let par = ParallelLuPlan::from_plan(LuPlan::build(&a, true, 2).unwrap(), 4);
        let f = par.factor(&a).unwrap();
        let n = a.n_cols();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let x = f.solve(&b);
        assert!(sympiler_sparse::ops::rel_residual(&a, &x, &b) < 1e-12);
    }
}
