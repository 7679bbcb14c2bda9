//! The user-facing Sympiler driver: take a numerical method + a
//! sparsity pattern, run the symbolic inspectors, apply the
//! transformations, and hand back a specialized executable (plan) plus
//! the generated C artifact.

use crate::emit::emit_trisolve_c;
use crate::plan::chol::{CholFactor, CholPlan, CholPlanError};
use crate::plan::lu::{BatchError, LuFactor, LuPlan, LuPlanError, LuWorkspace};
use crate::plan::lu_parallel::ParallelLuPlan;
use crate::plan::lu_supernodal::SupernodalLuPlan;
use crate::plan::tri::{TriScratch, TriSolvePlan, TriVariant};
use crate::report::{timed, SymbolicReport};
use sympiler_graph::lu_supernode::LuPanels;
use sympiler_graph::supernode::supernodes_trisolve;
use sympiler_sparse::{CscMatrix, SparseVec};

pub use sympiler_graph::ordering::Ordering;
pub use sympiler_graph::transversal::PrePivot;

/// Whether the LU pipeline compiles the supernodal (VS-Block) numeric
/// engine — the third execution tier beside the serial and
/// column-parallel plans. See [`SympilerOptions::block_lu`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockLu {
    /// Detect panels and engage the supernodal engine when blocking
    /// pays: mean panel width ≥ 2 (at least half the columns sit in
    /// wide panels). Otherwise compile the scalar serial/parallel
    /// plan — the default, mirroring the paper's supernode-size
    /// threshold for VS-Block.
    #[default]
    Auto,
    /// Always compile the supernodal engine (singleton panels still
    /// execute through the scalar column kernel, so this is safe on
    /// any pattern — just pointless when nothing blocks).
    On,
    /// Never block: serial or column-parallel execution only.
    Off,
}

/// Tunable thresholds and switches (paper §4.2).
///
/// The LU pipeline's compile-time knobs compose: a static pre-pivot
/// ([`Self::pre_pivot`]) makes the diagonal usable, a fill-reducing
/// ordering ([`Self::ordering`]) shrinks the factors, and the
/// execution tier ([`Self::n_threads`] / [`Self::block_lu`]) picks the
/// numeric engine — all resolved once per pattern.
///
/// ```
/// use sympiler_core::{Ordering, PrePivot, SympilerLu, SympilerOptions};
///
/// // A saddle-point (KKT) system: its trailing block has no diagonal,
/// // so the default options cannot factor it — but a weighted-matching
/// // pre-pivot composed with COLAMD can.
/// let a = sympiler_sparse::gen::saddle_point_2x2(40, 8, 1);
/// let opts = SympilerOptions {
///     pre_pivot: PrePivot::WeightedMatching,
///     ordering: Ordering::Colamd,
///     ..Default::default()
/// };
/// let lu = SympilerLu::compile(&a, &opts).unwrap();
/// let x = lu.factor(&a).unwrap().solve(&vec![1.0; 48]);
/// assert!(sympiler_sparse::ops::rel_residual(&a, &x, &vec![1.0; 48]) < 1e-10);
/// ```
///
/// The derived `PartialEq` is part of the serving contract: a
/// [`crate::serve::PlanCache`] entry matches a request only when the
/// request's options compare equal to the ones the entry was compiled
/// with (the structural hash alone is not trusted).
#[derive(Debug, Clone, PartialEq)]
pub struct SympilerOptions {
    /// Enable VS-Block (subject to the supernode-size threshold).
    pub vs_block: bool,
    /// Enable VI-Prune.
    pub vi_prune: bool,
    /// Enable the low-level transformations (peeling, unrolled
    /// specialized kernels).
    pub low_level: bool,
    /// Cap on supernode width (0 = unlimited).
    pub max_supernode_width: usize,
    /// VS-Block is skipped when the average participating supernode
    /// size (width × panel rows) is below this. "This parameter is
    /// currently hand-tuned and is set to 160" — the paper's value is
    /// kept as the default.
    pub vs_block_min_avg_size: f64,
    /// Peel reach-set iterations whose column has more than this many
    /// off-diagonal nonzeros (Figure 1e uses 2).
    pub peel_col_count: usize,
    /// Worker threads for the leveled LU numeric executors. `1` (the
    /// default) compiles the serial plan; higher values level the
    /// column (or, on the supernodal tier, panel) elimination DAG and
    /// bake cost-balanced per-thread chunks.
    pub n_threads: usize,
    /// Fill-reducing ordering for the LU pipeline, computed once at
    /// inspection time and baked into the plan (applied symmetrically,
    /// `Qᵀ A Q`, so static diagonal pivoting keeps its diagonal).
    /// Defaults to [`Ordering::Natural`] — reorder nothing — because
    /// the compiled pattern contract is per-matrix and callers may
    /// already order upstream; [`Ordering::Colamd`] is the recommended
    /// setting for unordered unsymmetric systems, cutting both fill
    /// (numeric flops) and elimination-DAG depth (what the parallel
    /// executor scales on).
    pub ordering: Ordering,
    /// Supernodal (VS-Block) LU: detect column panels in the predicted
    /// `L` and route the numeric phase through dense GETRF/TRSM/GEMM
    /// kernels panel by panel. [`BlockLu::Auto`] (the default) engages
    /// the engine only when the mean panel width reaches 2 — patterns
    /// that never block keep the cheaper scalar plans. With
    /// `n_threads > 1` the supernodal engine levels the **panel** DAG
    /// instead of the column DAG.
    pub block_lu: BlockLu,
    /// Cap on LU panel width (the supernodal relaxation knob: wider
    /// panels amortize more scalar work into dense kernels but grow
    /// the dense block accumulator, `n × max_panel` doubles per
    /// worker). 0 = unlimited.
    pub max_panel: usize,
    /// Relative fill budget for **relaxed supernode amalgamation**
    /// (CHOLMOD/SuperLU's `relax`, applied to LU panels): adjacent
    /// strictly-nesting panels merge into one wider panel when the
    /// explicit zeros the merged trapezoid must pad stay within
    /// `relax_fill` × the panel's structural nonzeros. Padding lives
    /// only in dense workspace (padded slots compute to exact ±0.0;
    /// the CSC factors are untouched), buying wider panels — more
    /// dense-kernel work per schedule entry — for a bounded amount of
    /// wasted arithmetic. `<= 0.0` disables merging: panels are
    /// bitwise today's strict ones. Default `0.3`.
    pub relax_fill: f64,
    /// Cap on the width an amalgamated panel may grow to (min'd with
    /// `max_panel` when that is nonzero). `< 2` disables merging.
    /// Default `16`.
    pub relax_cols: usize,
    /// Finish MC64: derive row/column equilibration scalings `Dr`/`Dc`
    /// from the weighted-matching dual potentials and fold them into
    /// the plan's baked gather maps — the numeric phase factors
    /// `Qᵀ·P·(Dr·A·Dc)·Q` (every matched diagonal exactly 1, every
    /// entry ≤ 1) at zero per-factorization cost, and solves unscale
    /// transparently in original coordinates. Collapses pivot growth
    /// from ~1e8 to O(1) on zero-diagonal problems, making the strict
    /// verification bar hold under the pattern-only transversal too.
    /// Scalings are computed from the compile-time matrix values (the
    /// static MC64 contract — recompile to re-equilibrate). Default
    /// `false`: factors then stay comparable with unscaled baselines.
    pub mc64_scale: bool,
    /// Static pre-pivoting for the LU pipeline: compute a row
    /// permutation `P` at inspection time (maximum transversal or
    /// MC64-like weighted matching) so `P·A` has a structurally
    /// zero-free — and, for the weighted variant, numerically large —
    /// diagonal, then factor `Qᵀ·P·A·Q`. This is what lets the
    /// static-diagonal-pivot contract cover saddle-point/KKT and
    /// circuit matrices whose diagonals are structurally zero (hard
    /// errors otherwise). Defaults to [`PrePivot::Off`]; structurally
    /// singular inputs fail compilation with a typed error instead of
    /// a numeric-phase zero pivot. Zero per-factorization cost: the
    /// permutation rides the same baked gather maps as the ordering.
    pub pre_pivot: PrePivot,
    /// Attach an enabled [`sympiler_obs::Profiler`] to the compiled LU
    /// plan: compile stages, numeric-phase spans (per-level work,
    /// barriers, dense panel kernels), kernel counters, and
    /// numerical-health gauges all land on one trace, retrievable via
    /// [`SympilerLu::profiler`]. `false` (the default) compiles a
    /// disabled profiler whose hooks are single-branch no-ops — the
    /// numeric phase stays bitwise identical either way (all
    /// instrumentation is observational).
    pub profile: bool,
    /// Static pivot perturbation tolerance (layer 1 of the recovery
    /// ladder, SuperLU_DIST's idea under the static-pivoting
    /// contract): during the numeric phase, a pivot whose magnitude
    /// falls below `pivot_perturb · max|A values|` is replaced by
    /// `±pivot_perturb · max|A values|` and recorded in the factor's
    /// [`crate::plan::lu::PerturbReport`]; factorization continues
    /// instead of failing with a zero pivot. The perturbed factors
    /// solve a *nearby* system — follow with
    /// [`crate::plan::lu::LuFactor::solve_refined`] (or drive through
    /// [`crate::robust::RobustLu`]) to repair the answer. `0.0` (the
    /// default) disables the guard entirely: the numeric phase is
    /// bitwise identical to a build without this feature. A typical
    /// enabled value is `1e-8` (≈√ε).
    pub pivot_perturb: f64,
    /// Escalation policy for [`crate::robust::RobustLu`] (layer 3 of
    /// the recovery ladder) and, when
    /// [`RecoveryPolicy::serve_escalate`] is set, for per-request
    /// retry in [`crate::serve::FactorService`]. Part of the plan-
    /// cache identity like every other option.
    ///
    /// [`RecoveryPolicy::serve_escalate`]: crate::robust::RecoveryPolicy::serve_escalate
    pub recovery: crate::robust::RecoveryPolicy,
}

impl Default for SympilerOptions {
    fn default() -> Self {
        Self {
            vs_block: true,
            vi_prune: true,
            low_level: true,
            max_supernode_width: 64,
            vs_block_min_avg_size: 160.0,
            peel_col_count: 2,
            n_threads: 1,
            ordering: Ordering::Natural,
            block_lu: BlockLu::Auto,
            max_panel: 32,
            relax_fill: 0.3,
            relax_cols: 16,
            mc64_scale: false,
            pre_pivot: PrePivot::Off,
            profile: false,
            pivot_perturb: 0.0,
            recovery: crate::robust::RecoveryPolicy::default(),
        }
    }
}

/// A compiled sparse triangular solve, specialized to one `L` pattern
/// (and values) and one RHS pattern.
#[derive(Debug, Clone)]
pub struct SympilerTriSolve {
    plan: TriSolvePlan,
    reach: Vec<usize>,
    l_col_ptr: Vec<usize>,
    n: usize,
    peel_col_count: usize,
    report: SymbolicReport,
    scratch: TriScratch,
}

impl SympilerTriSolve {
    /// Compile for lower-triangular `l` and RHS pattern `beta`.
    ///
    /// Applies the paper's transformation ordering: VS-Block first
    /// (when the supernode-size threshold admits it), then VI-Prune,
    /// then the enabled low-level transformations.
    pub fn compile(l: &CscMatrix, beta: &[usize], opts: &SympilerOptions) -> Self {
        let mut report = SymbolicReport::default();
        // Inspection: reach-set (VI-Prune set).
        let reach = timed(&mut report, "inspect: reach-set (DFS)", || {
            let mut r = sympiler_graph::reach(l, beta);
            r.sort_unstable();
            r
        });
        report.set_size("reach-set", reach.len());
        // Inspection: block-set + threshold decision.
        let vs_block = if opts.vs_block {
            let start = std::time::Instant::now();
            let part = supernodes_trisolve(l, opts.max_supernode_width);
            let col_counts: Vec<usize> = (0..l.n_cols()).map(|j| l.col_nnz(j)).collect();
            let avg = part.avg_participating_size(&col_counts);
            report.stage("inspect: supernodes (node equiv)", start.elapsed());
            report.set_size("supernodes", part.n_supernodes());
            avg >= opts.vs_block_min_avg_size
        } else {
            false
        };
        let variant = TriVariant {
            vs_block,
            vi_prune: opts.vi_prune,
            low_level: opts.low_level,
        };
        let plan = timed(&mut report, "transform + pack (plan build)", || {
            TriSolvePlan::build(
                l,
                beta,
                variant,
                opts.max_supernode_width,
                opts.peel_col_count,
            )
        });
        Self {
            plan,
            reach,
            l_col_ptr: l.col_ptr().to_vec(),
            n: l.n_cols(),
            peel_col_count: opts.peel_col_count,
            report,
            scratch: TriScratch::default(),
        }
    }

    /// Solve `L x = b` into a zeroed buffer `x` (numeric-only path).
    pub fn solve_into(&mut self, b: &SparseVec, x: &mut [f64]) {
        // Split borrows: plan and scratch are disjoint fields.
        let Self { plan, scratch, .. } = self;
        plan.solve(b, x, scratch);
    }

    /// Solve and return a fresh vector.
    pub fn solve(&mut self, b: &SparseVec) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        self.solve_into(b, &mut x);
        x
    }

    /// Zero the entries the previous solve touched (O(|reach|)).
    pub fn reset(&self, x: &mut [f64]) {
        self.plan.reset(x);
    }

    /// The compiled plan.
    pub fn plan(&self) -> &TriSolvePlan {
        &self.plan
    }

    /// The reach set (ascending).
    pub fn reach(&self) -> &[usize] {
        &self.reach
    }

    /// Useful flops of the pruned solve.
    pub fn flops(&self) -> u64 {
        self.plan.flops()
    }

    /// Symbolic (compile-time) report.
    pub fn report(&self) -> &SymbolicReport {
        &self.report
    }

    /// Emit the specialized C source (Figure 1e artifact).
    pub fn emit_c(&self) -> String {
        // The emitter needs column pointers for concrete constants;
        // rebuild a pattern-only matrix view from stored pointers is
        // unnecessary — emit from the recorded reach + col_ptr.
        let n = self.n;
        let col_ptr = &self.l_col_ptr;
        // Build a minimal pattern-only CSC for emission.
        let nnz = *col_ptr.last().unwrap();
        let mut row_idx = vec![0usize; nnz];
        // Row indices are not needed for the emitted structure except
        // to be syntactically valid; reconstruct a canonical shape:
        // diagonal-first rows are unknown here, so emit via the stored
        // pointers only. Use a fabricated strictly-increasing filler.
        for j in 0..n {
            for (k, slot) in row_idx[col_ptr[j]..col_ptr[j + 1]].iter_mut().enumerate() {
                *slot = (j + k).min(n - 1);
            }
        }
        let l = CscMatrix::from_parts_unchecked(n, n, col_ptr.clone(), row_idx, vec![1.0; nnz]);
        emit_trisolve_c(&l, &self.reach, self.peel_col_count)
    }
}

/// A compiled sparse Cholesky, specialized to one SPD pattern.
#[derive(Debug, Clone)]
pub struct SympilerCholesky {
    plan: CholPlan,
}

impl SympilerCholesky {
    /// Compile for the SPD matrix `a` in lower-triangular storage.
    pub fn compile(a_lower: &CscMatrix, opts: &SympilerOptions) -> Result<Self, CholPlanError> {
        let max_width = if opts.vs_block {
            opts.max_supernode_width
        } else {
            1 // width-1 supernodes == non-supernodal execution
        };
        let plan = CholPlan::build(a_lower, max_width, opts.low_level)?;
        Ok(Self { plan })
    }

    /// Numeric factorization (no symbolic work).
    pub fn factor(&self, a_lower: &CscMatrix) -> Result<CholFactor, CholPlanError> {
        self.plan.factor(a_lower)
    }

    /// The compiled plan.
    pub fn plan(&self) -> &CholPlan {
        &self.plan
    }

    /// Exact factorization flops.
    pub fn flops(&self) -> u64 {
        self.plan.flops()
    }

    /// Symbolic (compile-time) report.
    pub fn report(&self) -> &SymbolicReport {
        self.plan.report()
    }

    /// Emit the transformed Cholesky kernel as C (Figure 2 pipeline:
    /// lower, VS-Block, VI-Prune, low-level annotations, codegen) with
    /// this matrix's block-set embedded.
    pub fn emit_c(&self) -> String {
        let mut kernel = crate::lower::lower_cholesky();
        crate::transform::apply_vi_prune(&mut kernel, "pruneSet", "pruneSetSize");
        crate::transform::apply_vs_block(&mut kernel, "dense_potrf", "dense_trsm");
        crate::transform::low_level::annotate_unroll(&mut kernel.body, 4);
        let mut out = String::new();
        let part = self.plan.partition();
        let firsts: Vec<String> = part.first_col.iter().map(|c| c.to_string()).collect();
        out.push_str(&format!(
            "/* Sympiler-generated supernodal Cholesky: {} supernodes */\n",
            part.n_supernodes()
        ));
        out.push_str(&format!(
            "static const int blockSet[{}] = {{{}}};\n",
            firsts.len(),
            firsts.join(", ")
        ));
        out.push_str(&format!(
            "static const int blockSetSize = {};\n\n",
            part.n_supernodes()
        ));
        out.push_str(&crate::emit::emit_kernel_c(&kernel));
        out
    }
}

/// A compiled sparse LU, specialized to one (generally unsymmetric)
/// pattern under static diagonal pivoting — optionally pre-pivoted
/// (row matching) and fill-reduced (column ordering), both baked at
/// compile time.
///
/// One compile, many numeric factorizations:
///
/// ```
/// use sympiler_core::{SympilerLu, SympilerOptions};
///
/// let mut a = sympiler_sparse::gen::circuit_unsym(60, 4, 2, 7);
/// let lu = SympilerLu::compile(&a, &SympilerOptions::default()).unwrap();
///
/// // Values change, pattern fixed: refactor without symbolic work.
/// for round in 0..3 {
///     for v in a.values_mut() {
///         *v *= 1.0 + 0.01 * round as f64;
///     }
///     let f = lu.factor(&a).unwrap();
///     let b = vec![1.0; 60];
///     let x = f.solve(&b);
///     assert!(sympiler_sparse::ops::rel_residual(&a, &x, &b) < 1e-10);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct SympilerLu {
    exec: LuExec,
}

/// The numeric executor selected at compile time by
/// [`SympilerOptions::n_threads`] and [`SympilerOptions::block_lu`] —
/// the three execution tiers of the compiled LU pipeline.
#[derive(Debug, Clone)]
enum LuExec {
    /// Scalar columns, in order.
    Serial(LuPlan),
    /// Scalar columns leveled over the column elimination DAG.
    Parallel(ParallelLuPlan),
    /// Column panels routed through dense kernels, leveled over the
    /// panel DAG (serial when compiled with `n_threads == 1`).
    Supernodal(Box<SupernodalLuPlan>),
}

impl SympilerLu {
    /// Compile for the square matrix `a` (full storage). `low_level`
    /// and `peel_col_count` select the peeled update tier exactly like
    /// the triangular-solve pipeline; `block_lu` / `max_panel` control
    /// the supernodal (VS-Block) tier, which routes wide column panels
    /// of the predicted `L` through dense GETRF/TRSM/GEMM kernels.
    /// `pre_pivot` and `ordering` select the
    /// static row pre-pivot and fill-reducing ordering computed at
    /// inspection time and baked into the plan
    /// ([`LuPlan::build_pivoted`]); `factor` still takes
    /// the original matrix, and [`LuFactor::solve`] speaks original
    /// coordinates. With `n_threads > 1`, the numeric phase is
    /// additionally leveled over the column elimination DAG and
    /// executed by that many workers — results stay bitwise identical
    /// to the serial plan.
    pub fn compile(a: &CscMatrix, opts: &SympilerOptions) -> Result<Self, LuPlanError> {
        let profiler = std::sync::Arc::new(if opts.profile {
            sympiler_obs::Profiler::enabled()
        } else {
            sympiler_obs::Profiler::disabled()
        });
        let plan = LuPlan::build_profiled(
            a,
            opts.low_level,
            opts.peel_col_count,
            opts.ordering,
            opts.pre_pivot,
            profiler,
        )?
        .with_pivot_perturbation(opts.pivot_perturb);
        let plan = if opts.mc64_scale {
            plan.with_mc64_scaling(a)?
        } else {
            plan
        };
        // Supernodal tier: under `Auto`, engage only when blocking
        // pays (mean panel width ≥ 2 — the VS-Block threshold idea
        // applied to LU). The threshold needs only the O(nnz) panel
        // detection, under the same relaxation budget so amalgamated
        // widths count; the panels found are the ones compiled, and
        // the leveled panel schedule is built just for patterns that
        // actually block.
        let detect = || plan.panels(opts.max_panel, opts.relax_fill, opts.relax_cols);
        let blocks = |p: &LuPanels| {
            let ns = p.part.n_supernodes();
            ns > 0 && plan.n() as f64 / ns as f64 >= 2.0
        };
        let panels = match opts.block_lu {
            BlockLu::Off => None,
            BlockLu::On => Some(detect()),
            BlockLu::Auto => Some(detect()).filter(blocks),
        };
        let exec = match panels {
            Some(panels) => LuExec::Supernodal(Box::new(SupernodalLuPlan::from_panels(
                plan,
                panels,
                opts.n_threads.max(1),
            ))),
            None if opts.n_threads > 1 => {
                LuExec::Parallel(ParallelLuPlan::from_plan(plan, opts.n_threads))
            }
            None => LuExec::Serial(plan),
        };
        Ok(Self { exec })
    }

    /// Numeric factorization (no symbolic work): `A = L U`.
    ///
    /// For high-rate callers: [`Self::factor_with`] reuses a
    /// caller-held workspace, [`Self::factor_batch`] amortizes the
    /// compiled tables over a same-pattern batch, and
    /// [`crate::serve::PlanCache`] /
    /// [`crate::serve::FactorService`] layer caching and a thread-pool
    /// front end on top.
    pub fn factor(&self, a: &CscMatrix) -> Result<LuFactor, LuPlanError> {
        match &self.exec {
            LuExec::Serial(plan) => plan.factor(a),
            LuExec::Parallel(par) => par.factor(a),
            LuExec::Supernodal(sup) => sup.factor(a),
        }
    }

    /// [`Self::factor`] against a caller-held [`LuWorkspace`] —
    /// bitwise identical results, minus the per-call accumulator
    /// allocation on the serial tier. The parallel and supernodal
    /// executors keep their own per-worker scratch (their numeric
    /// state is already pooled internally), so they accept and ignore
    /// the workspace — one call shape serves all three tiers.
    pub fn factor_with(
        &self,
        a: &CscMatrix,
        ws: &mut LuWorkspace,
    ) -> Result<LuFactor, LuPlanError> {
        match &self.exec {
            LuExec::Serial(plan) => plan.factor_with(a, ws),
            LuExec::Parallel(par) => par.factor(a),
            LuExec::Supernodal(sup) => sup.factor(a),
        }
    }

    /// Factor a batch of same-pattern matrices. On the serial tier
    /// this is [`LuPlan::factor_batch`]'s column-interleaved pass —
    /// the compiled schedule streams once per batch column instead of
    /// once per matrix. The parallel and supernodal tiers already
    /// stream their schedules per level/panel across worker threads,
    /// so they factor the batch one matrix at a time through their own
    /// engines. Every tier returns factors bitwise identical to
    /// looping [`Self::factor`], and the batch is all-or-nothing: the
    /// first failure aborts with a [`BatchError`] naming the matrix.
    pub fn factor_batch(&self, mats: &[&CscMatrix]) -> Result<Vec<LuFactor>, BatchError> {
        match &self.exec {
            LuExec::Serial(plan) => plan.factor_batch(mats),
            LuExec::Parallel(par) => mats
                .iter()
                .enumerate()
                .map(|(index, a)| par.factor(a).map_err(|error| BatchError { index, error }))
                .collect(),
            LuExec::Supernodal(sup) => mats
                .iter()
                .enumerate()
                .map(|(index, a)| sup.factor(a).map_err(|error| BatchError { index, error }))
                .collect(),
        }
    }

    /// The compiled (serial) plan: symbolic analysis, schedules, flop
    /// counts — shared by every executor.
    pub fn plan(&self) -> &LuPlan {
        match &self.exec {
            LuExec::Serial(plan) => plan,
            LuExec::Parallel(par) => par.serial(),
            LuExec::Supernodal(sup) => sup.serial(),
        }
    }

    /// Worker threads the numeric phase was compiled for.
    pub fn n_threads(&self) -> usize {
        match &self.exec {
            LuExec::Serial(_) => 1,
            LuExec::Parallel(par) => par.leveled().n_threads(),
            LuExec::Supernodal(sup) => sup.leveled().n_threads(),
        }
    }

    /// True when the supernodal (VS-Block) engine was compiled in.
    pub fn is_supernodal(&self) -> bool {
        matches!(self.exec, LuExec::Supernodal(_))
    }

    /// The compiled supernodal plan, when the supernodal engine is the
    /// selected executor (panel statistics, panel-DAG schedule).
    pub fn supernodal(&self) -> Option<&SupernodalLuPlan> {
        match &self.exec {
            LuExec::Supernodal(sup) => Some(sup),
            _ => None,
        }
    }

    /// Exact factorization flops.
    pub fn flops(&self) -> u64 {
        self.plan().flops()
    }

    /// Resident bytes of the compiled tables for the tier actually
    /// executing — the supernodal tier adds its panel layouts
    /// (amalgamation padding included) and schedules on top of the
    /// scalar plan's tables.
    pub fn table_bytes(&self) -> usize {
        match &self.exec {
            LuExec::Supernodal(sup) => sup.table_bytes(),
            _ => self.plan().table_bytes(),
        }
    }

    /// The ordering strategy compiled into the plan.
    pub fn ordering(&self) -> Ordering {
        self.plan().ordering()
    }

    /// The compiled ordering `Q` (`perm[new] = old`), or `None` for
    /// natural order.
    pub fn col_perm(&self) -> Option<&[usize]> {
        self.plan().col_perm()
    }

    /// The pre-pivoting strategy compiled into the plan.
    pub fn pre_pivot(&self) -> PrePivot {
        self.plan().pre_pivot()
    }

    /// The composed row map (`rperm[new] = old`, pre-pivot and
    /// ordering combined), or `None` when neither knob moved anything.
    pub fn row_perm(&self) -> Option<&[usize]> {
        self.plan().row_perm()
    }

    /// Count of columns whose compiled pivot position is structurally
    /// present in `A` — `n` after any successful pre-pivot. See
    /// [`LuPlan::matched_diagonals`].
    pub fn matched_diagonals(&self) -> usize {
        self.plan().matched_diagonals()
    }

    /// Fill ratio `nnz(L + U) / nnz(A)` of the compiled factorization.
    pub fn fill_ratio(&self) -> f64 {
        self.plan().fill_ratio()
    }

    /// Symbolic (compile-time) report.
    pub fn report(&self) -> &SymbolicReport {
        self.plan().report()
    }

    /// The profiler attached at compile time (disabled unless
    /// [`SympilerOptions::profile`] was set). Snapshot it after one or
    /// more `factor` calls to get the combined compile + numeric trace.
    pub fn profiler(&self) -> &std::sync::Arc<sympiler_obs::Profiler> {
        self.plan().profiler()
    }

    /// Emit the matrix-specialized C factorization kernel: the scalar
    /// Gilbert–Peierls artifact for the serial/parallel tiers, the
    /// VS-Block panel artifact for the supernodal tier.
    pub fn emit_c(&self) -> String {
        match &self.exec {
            LuExec::Supernodal(sup) => sup.emit_c(),
            _ => self.plan().emit_c(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympiler_sparse::{gen, rhs};

    #[test]
    fn trisolve_compile_and_solve() {
        let l = gen::random_lower_triangular(60, 3, 1);
        let b = rhs::random_sparse_rhs(60, 0.05, 2);
        let mut ts = SympilerTriSolve::compile(&l, b.indices(), &SympilerOptions::default());
        let x = ts.solve(&b);
        let mut expect = b.to_dense();
        sympiler_solvers::trisolve::naive_forward(&l, &mut expect);
        for (p, q) in x.iter().zip(&expect) {
            assert!((p - q).abs() < 1e-11);
        }
        assert!(ts.report().total().as_nanos() > 0);
        assert!(ts.flops() > 0);
    }

    #[test]
    fn trisolve_threshold_disables_vs_block() {
        // A very sparse random L has tiny supernodes; with the paper's
        // 160 threshold VS-Block must be skipped.
        let l = gen::random_lower_triangular(100, 2, 3);
        let b = rhs::random_sparse_rhs(100, 0.04, 4);
        let ts = SympilerTriSolve::compile(&l, b.indices(), &SympilerOptions::default());
        assert!(
            !ts.plan().variant().vs_block,
            "threshold must reject VS-Block"
        );
        // Forcing the threshold to zero enables it.
        let opts = SympilerOptions {
            vs_block_min_avg_size: 0.0,
            ..Default::default()
        };
        let ts2 = SympilerTriSolve::compile(&l, b.indices(), &opts);
        assert!(ts2.plan().variant().vs_block);
    }

    #[test]
    fn trisolve_emits_specialized_c() {
        let l = gen::random_lower_triangular(30, 4, 5);
        let b = rhs::random_sparse_rhs(30, 0.1, 6);
        let ts = SympilerTriSolve::compile(&l, b.indices(), &SympilerOptions::default());
        let c = ts.emit_c();
        assert!(c.contains("reachSet"));
        assert!(c.contains("trisolve_specialized"));
    }

    #[test]
    fn cholesky_compile_factor_solve() {
        let a = gen::grid2d_laplacian(7, 7, false, 1);
        let chol = SympilerCholesky::compile(&a, &SympilerOptions::default()).unwrap();
        let f = chol.factor(&a).unwrap();
        let b = vec![1.0; 49];
        let x = f.solve(&b);
        let resid = sympiler_sparse::ops::rel_residual_sym_lower(&a, &x, &b);
        assert!(resid < 1e-12);
    }

    #[test]
    fn cholesky_no_vs_block_still_correct() {
        let a = gen::circuit_like(50, 4, 2, 2);
        let opts = SympilerOptions {
            vs_block: false,
            ..Default::default()
        };
        let chol = SympilerCholesky::compile(&a, &opts).unwrap();
        let f = chol.factor(&a).unwrap();
        let l_ref = sympiler_solvers::SimplicialCholesky::analyze(&a)
            .unwrap()
            .factor(&a)
            .unwrap();
        for (p, q) in f.to_csc().values().iter().zip(l_ref.values()) {
            assert!((p - q).abs() < 1e-9);
        }
    }

    #[test]
    fn cholesky_emits_c_with_blockset() {
        let a = gen::banded_spd(25, 3, 7);
        let chol = SympilerCholesky::compile(&a, &SympilerOptions::default()).unwrap();
        let c = chol.emit_c();
        assert!(c.contains("blockSet"));
        assert!(c.contains("dense_potrf"));
        assert!(c.contains("pruneSet"));
    }

    #[test]
    fn lu_compile_factor_solve() {
        let a = gen::convection_diffusion_2d(6, 6, 1.5, 2);
        let lu = SympilerLu::compile(&a, &SympilerOptions::default()).unwrap();
        let f = lu.factor(&a).unwrap();
        let n = a.n_cols();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let x = f.solve(&b);
        assert!(sympiler_sparse::ops::rel_residual(&a, &x, &b) < 1e-12);
        assert!(lu.flops() > 0);
        assert!(lu.report().total().as_nanos() > 0);
    }

    #[test]
    fn lu_matches_gplu_baseline() {
        let a = gen::circuit_unsym(40, 4, 2, 6);
        let lu = SympilerLu::compile(&a, &SympilerOptions::default()).unwrap();
        let f = lu.factor(&a).unwrap();
        let base =
            sympiler_solvers::lu::GpLu::factor(&a, sympiler_solvers::lu::Pivoting::None).unwrap();
        assert!(f.l().same_pattern(&base.l));
        for (p, q) in f.u().values().iter().zip(base.u.values()) {
            assert!((p - q).abs() < 1e-10);
        }
    }

    #[test]
    fn lu_emits_specialized_c() {
        // Pin the scalar tier: under the default relaxation budget the
        // tiny grid amalgamates well enough for Auto to block it.
        let a = gen::convection_diffusion_2d(4, 4, 1.0, 1);
        let opts = SympilerOptions {
            block_lu: BlockLu::Off,
            ..Default::default()
        };
        let lu = SympilerLu::compile(&a, &opts).unwrap();
        let c = lu.emit_c();
        assert!(c.contains("lu_factor_specialized"));
        assert!(c.contains("updateSet"));
    }

    #[test]
    fn default_options_match_paper() {
        let o = SympilerOptions::default();
        assert_eq!(o.vs_block_min_avg_size, 160.0);
        assert_eq!(o.peel_col_count, 2);
        assert!(o.vs_block && o.vi_prune && o.low_level);
        assert_eq!(o.n_threads, 1, "serial numeric phase by default");
        assert_eq!(o.ordering, Ordering::Natural, "no reordering by default");
        assert_eq!(o.block_lu, BlockLu::Auto, "supernodal LU auto-detects");
        assert_eq!(o.max_panel, 32, "panel cap keeps block buffers small");
        assert_eq!(o.relax_fill, 0.3, "CHOLMOD-style relaxation budget");
        assert_eq!(o.relax_cols, 16, "amalgamated panels stay cache-sized");
        assert!(!o.mc64_scale, "factors comparable with unscaled baselines");
        assert_eq!(o.pre_pivot, PrePivot::Off, "no pre-pivot by default");
        assert!(!o.profile, "observability off by default");
        assert_eq!(o.pivot_perturb, 0.0, "perturbation off = bitwise seed");
        let r = &o.recovery;
        assert_eq!(r.berr_tol, 1e-12, "recovery targets full precision");
        assert_eq!(r.max_refine_iters, 10, "bounded refinement");
        assert!(r.allow_refactor, "baseline fallback on by default");
        assert!(!r.serve_escalate, "serving keeps its bitwise contract");
    }

    #[test]
    fn profile_option_attaches_an_enabled_profiler() {
        let a = gen::circuit_unsym(40, 4, 2, 6);
        let lu = SympilerLu::compile(
            &a,
            &SympilerOptions {
                profile: true,
                block_lu: BlockLu::Off,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(lu.profiler().is_enabled());
        let f = lu.factor(&a).unwrap();
        assert!(f.health().is_some(), "profiled factor carries health");
        let snap = lu.profiler().snapshot("t");
        assert_eq!(snap.spans_named("factor:serial").count(), 1);
        assert!(snap.spans.iter().any(|s| s.name.starts_with("compile: ")));
        assert_eq!(snap.counter("flops.scalar"), Some(lu.flops()));
        // Default compile: everything off, factor unprofiled.
        let off = SympilerLu::compile(&a, &SympilerOptions::default()).unwrap();
        assert!(!off.profiler().is_enabled());
        assert!(off.factor(&a).unwrap().health().is_none());
    }

    /// A pattern whose factor blocks heavily: a dense trailing block
    /// appended to a bidiagonal chain — mean panel width well above
    /// the `Auto` threshold.
    fn heavily_blocking_matrix() -> CscMatrix {
        let n = 24;
        let mut t = sympiler_sparse::TripletMatrix::new(n, n);
        for j in 0..n {
            t.push(j, j, 10.0);
            if j + 1 < n {
                t.push(j + 1, j, -1.0);
            }
        }
        for j in n / 3..n {
            for i in n / 3..n {
                if i != j && i != j + 1 {
                    t.push(i, j, 0.5);
                }
            }
        }
        t.to_csc().unwrap()
    }

    #[test]
    fn block_lu_knob_selects_the_supernodal_tier() {
        // The dense trailing block pushes mean panel width past the
        // Auto threshold: Auto must engage the supernodal engine, Off
        // must not, and both tiers agree to 1e-12.
        let a = heavily_blocking_matrix();
        let auto = SympilerLu::compile(&a, &SympilerOptions::default()).unwrap();
        assert!(auto.is_supernodal(), "dense trailing block must auto-block");
        let sup = auto.supernodal().unwrap();
        assert!(sup.mean_panel_width() >= 2.0);
        assert!(sup.dense_flop_share() > 0.5, "dense kernels carry the work");
        let off = SympilerLu::compile(
            &a,
            &SympilerOptions {
                block_lu: BlockLu::Off,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!off.is_supernodal());
        assert!(off.supernodal().is_none());
        let f_sup = auto.factor(&a).unwrap();
        let f_off = off.factor(&a).unwrap();
        for (x, y) in f_sup.u().values().iter().zip(f_off.u().values()) {
            assert!((x - y).abs() <= 1e-12 * (1.0 + y.abs()));
        }
        // A grid pattern blocks too sparsely for Auto under strict
        // nesting (mean width ~1.1) — with relaxation disabled the
        // threshold keeps the scalar plan. The default amalgamation
        // budget merges the near-nesting grid columns past the
        // threshold, so Auto engages — relaxation is exactly what
        // makes such patterns blockable. On forces the engine
        // regardless and stays correct.
        let g = gen::convection_diffusion_2d(8, 8, 1.0, 6);
        let never = SympilerLu::compile(
            &g,
            &SympilerOptions {
                relax_fill: 0.0,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            !never.is_supernodal(),
            "strict sparse blocking must not engage Auto"
        );
        let relaxed = SympilerLu::compile(&g, &SympilerOptions::default()).unwrap();
        assert!(
            relaxed.is_supernodal(),
            "default amalgamation budget blocks the grid"
        );
        let forced = SympilerLu::compile(
            &g,
            &SympilerOptions {
                block_lu: BlockLu::On,
                relax_fill: 0.0,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(forced.is_supernodal());
        assert!(forced.supernodal().unwrap().n_wide_panels() > 0);
        let f_forced = forced.factor(&g).unwrap();
        let f_scalar = SympilerLu::compile(
            &g,
            &SympilerOptions {
                block_lu: BlockLu::Off,
                ..Default::default()
            },
        )
        .unwrap()
        .factor(&g)
        .unwrap();
        for (x, y) in f_forced.u().values().iter().zip(f_scalar.u().values()) {
            assert!((x - y).abs() <= 1e-12 * (1.0 + y.abs()));
        }
    }

    #[test]
    fn supernodal_emits_vs_block_c() {
        let a = heavily_blocking_matrix();
        let lu = SympilerLu::compile(&a, &SympilerOptions::default()).unwrap();
        assert!(lu.is_supernodal());
        let c = lu.emit_c();
        assert!(c.contains("lu_supernodal_specialized"));
        assert!(c.contains("panelSet"));
        assert!(c.contains("dense_getrf"));
        // The scalar tiers keep the Gilbert–Peierls artifact.
        let off = SympilerLu::compile(
            &a,
            &SympilerOptions {
                block_lu: BlockLu::Off,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(off.emit_c().contains("lu_factor_specialized"));
    }

    #[test]
    fn lu_ordering_knob_cuts_fill_and_keeps_solutions() {
        let a = gen::circuit_unsym(120, 4, 2, 13);
        let n = a.n_cols();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 4) as f64).collect();
        let natural = SympilerLu::compile(&a, &SympilerOptions::default()).unwrap();
        assert!(natural.col_perm().is_none());
        let x_nat = natural.factor(&a).unwrap().solve(&b);
        for ordering in [Ordering::Rcm, Ordering::Colamd] {
            let opts = SympilerOptions {
                ordering,
                ..Default::default()
            };
            let lu = SympilerLu::compile(&a, &opts).unwrap();
            assert_eq!(lu.ordering(), ordering);
            assert!(lu.col_perm().is_some());
            assert!(
                lu.fill_ratio() < natural.fill_ratio(),
                "{ordering:?} must reduce fill on the circuit pattern"
            );
            let x = lu.factor(&a).unwrap().solve(&b);
            assert!(sympiler_sparse::ops::rel_residual(&a, &x, &b) < 1e-12);
            for (p, q) in x.iter().zip(&x_nat) {
                assert!((p - q).abs() < 1e-9, "{ordering:?} solution drift");
            }
        }
    }

    #[test]
    fn lu_ordering_combines_with_parallel_executor_bitwise() {
        let a = gen::circuit_unsym(90, 4, 2, 17);
        for ordering in [Ordering::Rcm, Ordering::Colamd] {
            let serial = SympilerLu::compile(
                &a,
                &SympilerOptions {
                    ordering,
                    ..Default::default()
                },
            )
            .unwrap();
            let f_s = serial.factor(&a).unwrap();
            for threads in [2usize, 4] {
                let par = SympilerLu::compile(
                    &a,
                    &SympilerOptions {
                        ordering,
                        n_threads: threads,
                        ..Default::default()
                    },
                )
                .unwrap();
                let f_p = par.factor(&a).unwrap();
                for (x, y) in f_s
                    .l()
                    .values()
                    .iter()
                    .chain(f_s.u().values())
                    .zip(f_p.l().values().iter().chain(f_p.u().values()))
                {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{ordering:?} @ {threads}T must stay bitwise serial"
                    );
                }
            }
        }
    }

    #[test]
    fn lu_n_threads_knob_selects_parallel_executor() {
        let a = gen::circuit_unsym(60, 4, 2, 8);
        let serial = SympilerLu::compile(&a, &SympilerOptions::default()).unwrap();
        assert_eq!(serial.n_threads(), 1);
        let opts = SympilerOptions {
            n_threads: 4,
            ..Default::default()
        };
        let par = SympilerLu::compile(&a, &opts).unwrap();
        assert_eq!(par.n_threads(), 4);
        // Identical symbolic products and bitwise-identical factors.
        assert_eq!(par.flops(), serial.flops());
        let f_s = serial.factor(&a).unwrap();
        let f_p = par.factor(&a).unwrap();
        for (x, y) in f_s
            .l()
            .values()
            .iter()
            .chain(f_s.u().values())
            .zip(f_p.l().values().iter().chain(f_p.u().values()))
        {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "thread count must not change bits"
            );
        }
    }
}
