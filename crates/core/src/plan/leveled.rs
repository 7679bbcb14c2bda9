//! The leveled numeric phase shared by the column-parallel and the
//! supernodal LU tiers: one compile-time schedule and one executor.
//!
//! Once symbolic analysis is decoupled, the numeric factorization is a
//! pure schedule over a dependence DAG whose nodes are *tasks* — the
//! columns of the scalar plan or the panels of the supernodal plan.
//! Tasks in the same longest-path level of the DAG read only tasks of
//! earlier levels, so they can run concurrently (the H-Level idea the
//! paper applies to triangular solve, applied to factorization).
//!
//! * [`Leveled`] is built **once, at compile time**: the DAG is leveled
//!   ([`dag_levels_from_preds`]), each level's tasks are split into
//!   per-worker chunks **cost-balanced** with exact per-task costs
//!   ([`balanced_partition`]), and barriers are **elided** between
//!   consecutive levels owned wholesale by worker 0 — program order
//!   already sequences same-thread work, so chain-shaped stretches of
//!   the DAG run at serial speed instead of paying a barrier per task.
//! * `Leveled::run` executes a task kernel over that schedule. Each
//!   factorization spawns its workers once (`std::thread::scope`) and
//!   separates levels with a [`Barrier`]; with one worker it runs every
//!   task in index order on the caller's thread, with no spawn and no
//!   synchronization. The executor owns the zero-pivot reduction, the
//!   perturbed-column merge and the telemetry; the kernel owns the
//!   arithmetic, so a task performs one fixed operation sequence
//!   whichever worker runs it and results are bitwise identical at
//!   every thread count.

use super::lu::{LuPlanError, PivotStatus};
use std::sync::Barrier;
use sympiler_graph::levels::{balanced_partition, dag_levels_from_preds};
use sympiler_obs::{Profiler, SpanId};

/// A task DAG leveled, chunked across a fixed number of workers, and
/// given its barrier schedule — all at compile time.
#[derive(Debug, Clone)]
pub struct Leveled {
    n_threads: usize,
    /// Tasks flattened level by level (ascending within a level):
    /// level `lv` is `level_tasks[level_ptr[lv]..level_ptr[lv + 1]]`.
    level_tasks: Vec<usize>,
    level_ptr: Vec<usize>,
    /// Per-level worker chunks: `n_threads + 1` boundaries per level,
    /// relative to the level start. Worker `t` of level `lv` owns
    /// `chunk_bounds[lv * (T+1) + t]..chunk_bounds[lv * (T+1) + t + 1]`.
    chunk_bounds: Vec<usize>,
    /// `barrier_after[lv]`: whether workers synchronize after level
    /// `lv`. Compile-time constant, so every worker takes the same
    /// barriers.
    barrier_after: Vec<bool>,
}

impl Leveled {
    /// Level the DAG on tasks `0..costs.len()` whose predecessors are
    /// `preds(task)`, and chunk every level across `n_threads` workers
    /// by `costs`.
    ///
    /// # Panics
    /// If `n_threads` is 0 or an edge does not point from a lower task
    /// index to a higher one (index order must be a topological order:
    /// the one-worker executor runs tasks in it).
    pub(crate) fn new<F, I>(mut preds: F, costs: &[u64], n_threads: usize) -> Self
    where
        F: FnMut(usize) -> I,
        I: IntoIterator<Item = usize>,
    {
        assert!(n_threads >= 1, "need at least one thread");
        let n = costs.len();
        let levels = dag_levels_from_preds(n, |j| {
            preds(j).into_iter().inspect(move |&k| {
                assert!(k < j, "edge {k}->{j} runs against index order");
            })
        });
        let mut level_tasks = Vec::with_capacity(n);
        let mut level_ptr = Vec::with_capacity(levels.n_levels() + 1);
        let mut chunk_bounds = Vec::with_capacity(levels.n_levels() * (n_threads + 1));
        level_ptr.push(0);
        // Whether worker 0 owns the level wholesale (the common case
        // on chain-shaped stretches of the DAG, where levels are
        // singletons).
        let mut sole_owner: Vec<bool> = Vec::with_capacity(levels.n_levels());
        for tasks in &levels.levels {
            let task_costs: Vec<u64> = tasks.iter().map(|&j| costs[j]).collect();
            let mut bounds = balanced_partition(&task_costs, n_threads);
            // When the cost split hands one worker the whole level
            // (whichever worker the prefix-sum targets landed it on —
            // that varies with the cost magnitude for singletons),
            // normalize ownership to worker 0: same work, and giving
            // consecutive such levels one fixed owner is what lets
            // their barriers elide below.
            let whole = (0..n_threads).any(|t| bounds[t + 1] - bounds[t] == tasks.len());
            if whole {
                for b in bounds.iter_mut().skip(1) {
                    *b = tasks.len();
                }
            }
            sole_owner.push(whole);
            chunk_bounds.extend(bounds);
            level_tasks.extend_from_slice(tasks);
            level_ptr.push(level_tasks.len());
        }
        // Elide the barrier after level lv when lv and lv + 1 are both
        // owned wholesale by worker 0: program order already sequences
        // that worker's tasks, and no other worker wrote anything
        // since the last kept barrier. No barrier is needed after the
        // last level (the scope join synchronizes).
        let n_levels = sole_owner.len();
        let barrier_after = (0..n_levels)
            .map(|lv| lv + 1 < n_levels && !(sole_owner[lv] && sole_owner[lv + 1]))
            .collect();
        Self {
            n_threads,
            level_tasks,
            level_ptr,
            chunk_bounds,
            barrier_after,
        }
    }

    /// Worker count baked into the schedule.
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// Number of levels (critical-path length of the DAG).
    pub fn n_levels(&self) -> usize {
        self.level_ptr.len() - 1
    }

    /// Average available parallelism: tasks per level.
    pub fn avg_parallelism(&self) -> f64 {
        if self.n_levels() == 0 {
            0.0
        } else {
            self.level_tasks.len() as f64 / self.n_levels() as f64
        }
    }

    /// Barriers the numeric phase actually executes (after compile-time
    /// elision between same-owner levels). A chain-shaped DAG owned by
    /// one worker costs zero barriers.
    pub fn n_barriers(&self) -> usize {
        self.barrier_after.iter().filter(|&&b| b).count()
    }

    /// The tasks of level `lv`, ascending.
    pub fn level(&self, lv: usize) -> &[usize] {
        &self.level_tasks[self.level_ptr[lv]..self.level_ptr[lv + 1]]
    }

    /// The chunk of level `lv` owned by worker `t`.
    pub(crate) fn chunk(&self, lv: usize, t: usize) -> &[usize] {
        let base = self.level_ptr[lv];
        let o = lv * (self.n_threads + 1);
        let lo = base + self.chunk_bounds[o + t];
        let hi = base + self.chunk_bounds[o + t + 1];
        &self.level_tasks[lo..hi]
    }

    /// Resident size of the schedule tables, in bytes.
    pub(crate) fn bytes(&self) -> usize {
        (self.level_tasks.len() + self.level_ptr.len() + self.chunk_bounds.len())
            * std::mem::size_of::<usize>()
            + self.barrier_after.len()
    }

    /// Run `kernel(task, &mut workspace, &mut lane)` once per task over
    /// the schedule, each worker with its own `workspace()`. Returns
    /// the perturbed columns the kernels reported, ascending, or the
    /// smallest zero-pivot column as [`LuPlanError::ZeroPivot`].
    ///
    /// Ordering guarantee (what kernels writing shared factor arrays
    /// through [`SharedMut`] rely on): every task runs exactly once,
    /// on one worker, and only after every predecessor task has
    /// returned and its writes are visible — run earlier by the same
    /// worker (one worker runs in index order; elided barriers only
    /// span levels owned wholesale by one worker), or before a
    /// [`Barrier`] every worker passed.
    ///
    /// Kernels keep going past a zero pivot (the values stay
    /// IEEE-defined), so no consensus is needed mid-run: the smallest
    /// flagged column is exactly the one an in-order run reports
    /// first, since every column before it has clean ancestors.
    ///
    /// With an enabled profiler, the run records one `tier` span on
    /// lane 0; per worker `t`, `work` spans (one per barrier-separated
    /// segment) and `barrier` spans on lane `t` and the counters
    /// `par.t{t}.busy_ns` (summed work segments) and `par.t{t}.wait_ns`;
    /// the `par.imbalance` gauge (max/mean busy); and the kernels'
    /// flops as `flops.scalar` / `flops.dense`.
    pub(crate) fn run<W>(
        &self,
        prof: &Profiler,
        tier: &'static str,
        workspace: impl Fn() -> W + Sync,
        kernel: impl Fn(usize, &mut W, &mut Lane) + Sync,
    ) -> Result<Vec<usize>, LuPlanError> {
        let enabled = prof.is_enabled();
        let outer = if enabled { prof.begin(0, tier) } else { None };
        let lanes: Vec<Lane> = if self.n_threads == 1 {
            let mut lane = Lane::new(0);
            let mut ws = workspace();
            self.open_first_work(prof, &mut lane);
            for task in 0..self.level_tasks.len() {
                kernel(task, &mut ws, &mut lane);
            }
            lane.close_work(prof, self.n_levels());
            vec![lane]
        } else {
            let barrier = Barrier::new(self.n_threads);
            let (barrier, workspace, kernel) = (&barrier, &workspace, &kernel);
            std::thread::scope(|scope| {
                let workers: Vec<_> = (0..self.n_threads)
                    .map(|t| {
                        scope.spawn(move || self.worker(t, prof, barrier, workspace(), kernel))
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                    .collect()
            })
        };
        if enabled {
            self.record(prof, outer, &lanes);
        }
        let first_bad = lanes
            .iter()
            .map(|l| l.first_bad)
            .min()
            .unwrap_or(usize::MAX);
        if first_bad != usize::MAX {
            return Err(LuPlanError::ZeroPivot { column: first_bad });
        }
        // Merge order depends on worker timing; sort so the report is
        // deterministic (column order, like the serial kernel's).
        let mut perturbed: Vec<usize> = lanes.into_iter().flat_map(|l| l.perturbed).collect();
        perturbed.sort_unstable();
        Ok(perturbed)
    }

    /// Worker `t`'s share of the run: its chunk of every level, with
    /// the compile-time barriers in between.
    fn worker<W>(
        &self,
        t: usize,
        prof: &Profiler,
        barrier: &Barrier,
        mut ws: W,
        kernel: &impl Fn(usize, &mut W, &mut Lane),
    ) -> Lane {
        let enabled = prof.is_enabled();
        let mut lane = Lane::new(t);
        self.open_first_work(prof, &mut lane);
        for lv in 0..self.n_levels() {
            for &task in self.chunk(lv, t) {
                kernel(task, &mut ws, &mut lane);
            }
            if self.barrier_after[lv] {
                if enabled {
                    let now = lane.close_work(prof, lv + 1);
                    barrier.wait();
                    let after = prof.now_ns();
                    prof.add_span(t, "barrier", now, after - now, &[("level", lv as f64)]);
                    lane.wait_ns += after - now;
                    lane.open_work(prof, lv + 1);
                } else {
                    barrier.wait();
                }
            }
        }
        lane.close_work(prof, self.n_levels());
        lane
    }

    /// Open the first `work` segment, unless there is no level to run.
    fn open_first_work(&self, prof: &Profiler, lane: &mut Lane) {
        if self.n_levels() > 0 {
            lane.open_work(prof, 0);
        }
    }

    /// Publish the run's telemetry and close the outer span.
    fn record(&self, prof: &Profiler, outer: Option<SpanId>, lanes: &[Lane]) {
        for l in lanes {
            prof.counter(&format!("par.t{}.busy_ns", l.id))
                .add(l.busy_ns);
            prof.counter(&format!("par.t{}.wait_ns", l.id))
                .add(l.wait_ns);
        }
        let max = lanes.iter().map(|l| l.busy_ns).max().unwrap_or(0) as f64;
        let mean = lanes.iter().map(|l| l.busy_ns).sum::<u64>() as f64 / lanes.len() as f64;
        if mean > 0.0 {
            prof.gauge("par.imbalance", max / mean);
        }
        let scalar: u64 = lanes.iter().map(|l| l.scalar_flops).sum();
        let dense: u64 = lanes.iter().map(|l| l.dense_flops).sum();
        prof.counter("flops.scalar").add(scalar);
        prof.counter("flops.dense").add(dense);
        prof.end_with(
            outer,
            &[
                ("threads", self.n_threads as f64),
                ("levels", self.n_levels() as f64),
                ("flops", (scalar + dense) as f64),
            ],
        );
    }
}

/// One worker's record of a run: its span lane, the pivot outcomes
/// and flops its kernels reported, and its busy/wait time.
pub(crate) struct Lane {
    /// Span lane of the worker (its index).
    pub(crate) id: usize,
    /// Smallest zero-pivot column seen, `usize::MAX` when none.
    first_bad: usize,
    perturbed: Vec<usize>,
    /// Exact flops of the tasks run, by the kernel family that ran
    /// them.
    pub(crate) scalar_flops: u64,
    pub(crate) dense_flops: u64,
    busy_ns: u64,
    wait_ns: u64,
    /// The open `work` span and the segment's first level.
    work: Option<(SpanId, u64, usize)>,
}

impl Lane {
    fn new(id: usize) -> Self {
        Self {
            id,
            first_bad: usize::MAX,
            perturbed: Vec::new(),
            scalar_flops: 0,
            dense_flops: 0,
            busy_ns: 0,
            wait_ns: 0,
            work: None,
        }
    }

    /// Record column `j`'s pivot outcome.
    pub(crate) fn pivot(&mut self, j: usize, status: PivotStatus) {
        match status {
            PivotStatus::Clean => {}
            PivotStatus::Perturbed => self.perturbed.push(j),
            PivotStatus::Zero => self.first_bad = self.first_bad.min(j),
        }
    }

    /// Open a `work` span for the segment starting at level `first`
    /// (no-op when profiling is off).
    fn open_work(&mut self, prof: &Profiler, first: usize) {
        let start = prof.now_ns();
        self.work = prof
            .begin_at(self.id, "work", start)
            .map(|id| (id, start, first));
    }

    /// Close the open `work` span, which ends before level `end`, and
    /// return the close time.
    fn close_work(&mut self, prof: &Profiler, end: usize) -> u64 {
        let now = prof.now_ns();
        if let Some((id, start, first)) = self.work.take() {
            self.busy_ns += now - start;
            prof.end_with(
                Some(id),
                &[
                    ("level_first", first as f64),
                    ("level_last", end as f64 - 1.0),
                ],
            );
        }
        now
    }
}

/// The address of a factor value array that workers write through
/// disjointly. Kernels dereference it under [`Leveled::run`]'s ordering
/// guarantee: each task writes only its own value ranges, and reads
/// others' only once the schedule has made them final.
#[derive(Clone, Copy)]
pub(crate) struct SharedMut(*mut f64);

// SAFETY: the wrapper only carries an address across threads; every
// dereference is an `unsafe` operation in a kernel, justified there by
// the disjoint-ownership and ordering argument above.
unsafe impl Send for SharedMut {}
// SAFETY: as for `Send` — sharing the address itself races on nothing.
unsafe impl Sync for SharedMut {}

impl SharedMut {
    pub(crate) fn new(values: &mut [f64]) -> Self {
        Self(values.as_mut_ptr())
    }

    pub(crate) fn get(self) -> *mut f64 {
        self.0
    }
}
