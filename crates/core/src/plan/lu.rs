//! The executable LU plan: left-looking Gilbert–Peierls factorization
//! with **all symbolic work hoisted to compile time**.
//!
//! Compared to the runtime baseline (`sympiler-solvers`' GPLU), the
//! plan's `factor`:
//!
//! * runs **no DFS** — every column's update schedule (its reach set in
//!   topological order) is baked in, VI-Prune applied to the column
//!   updates exactly as `plan/tri.rs` applies it to the solve loop;
//! * allocates **nothing per column** — the patterns of `L` and `U`
//!   are precomputed, so factor storage is laid out once and values
//!   stream into fixed slots (the gather maps are baked index lists);
//! * needs **no pivot search** — static diagonal pivoting is the
//!   compiled contract (the paper's fixed-pattern premise), with the
//!   numeric value checked and reported per column;
//! * applies the low-level tier to heavy updates: columns whose
//!   off-diagonal count exceeds the peel threshold execute through an
//!   unrolled-by-two update loop, mirroring `TriOp::PeeledCol`;
//! * optionally bakes a **fill-reducing ordering** (`build_ordered`):
//!   `Q` is computed once at inspection time, the symbolic analysis
//!   runs on `Qᵀ A Q`, and the numeric phase reads the caller's
//!   original matrix through compiled gather maps — so ordered plans
//!   carry less fill (fewer flops) at zero per-factorization
//!   permutation cost, and [`LuFactor::solve`] still speaks the
//!   original coordinates.

use crate::inspector::LuVIPruneInspector;
use crate::report::{timed_traced, SymbolicReport};
use std::sync::Arc;
use sympiler_graph::ordering::Ordering;
use sympiler_graph::transversal::PrePivot;
use sympiler_obs::{LuHealth, Profiler};
use sympiler_sparse::{CscMatrix, SparseVec};

/// LU plan error (kept separate from the solvers' [`LuError`] — the
/// plan's failure modes are pattern- and schedule-shaped, the
/// baseline's are not; [`crate::robust::RecoveryError`] wraps both
/// when the recovery ladder exhausts its rungs).
///
/// [`LuError`]: sympiler_solvers::lu::LuError
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LuPlanError {
    /// Bad input shape/storage.
    BadInput(String),
    /// The numeric input does not match the compiled pattern.
    PatternMismatch,
    /// Structurally or numerically zero diagonal pivot.
    ZeroPivot { column: usize },
    /// A pre-pivot was requested but the pattern admits no perfect
    /// row/column matching: **no** row permutation can give this
    /// matrix a zero-free diagonal, so statically pivoted LU is
    /// structurally impossible. Reported from *inspection* (compile
    /// time), never from the numeric phase.
    StructurallySingular {
        /// Matrix order.
        n: usize,
        /// Size of the maximum matching (`< n`).
        structural_rank: usize,
    },
}

impl std::fmt::Display for LuPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LuPlanError::BadInput(m) => write!(f, "bad input: {m}"),
            LuPlanError::PatternMismatch => write!(f, "pattern mismatch"),
            LuPlanError::ZeroPivot { column } => {
                write!(f, "zero pivot at column {column}")
            }
            LuPlanError::StructurallySingular { n, structural_rank } => write!(
                f,
                "structurally singular: maximum matching covers \
                 {structural_rank} of {n} columns"
            ),
        }
    }
}

impl std::error::Error for LuPlanError {}

/// A failure inside a batched factorization ([`LuPlan::factor_batch`]):
/// the error plus the index of the matrix (within the batch) that
/// produced it. The batch is all-or-nothing — on the first failure the
/// whole call returns this error and no factors are produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchError {
    /// Index into the batch slice of the failing matrix.
    pub index: usize,
    /// What went wrong for that matrix.
    pub error: LuPlanError,
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "batch matrix {}: {}", self.index, self.error)
    }
}

impl std::error::Error for BatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Record of the static pivot perturbations a factorization applied
/// (SuperLU_DIST's recovery idea under the static-pivoting contract):
/// every column whose pivot magnitude fell below `tol · max|A|` had the
/// pivot replaced by `±tol · max|A|` so factorization could continue.
/// Empty — and the factorization bitwise identical to an unperturbed
/// run — whenever no pivot crossed the threshold or perturbation is
/// off (`tol = 0`). A non-empty report means the factors solve a
/// *nearby* system; run [`LuFactor::solve_refined`] against the
/// original matrix to repair the answer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PerturbReport {
    /// Columns (factor coordinates) whose pivot was replaced, in
    /// ascending order.
    pub columns: Vec<usize>,
    /// The replacement magnitude used for this factorization:
    /// `tol · max|A values|` (0 when perturbation is off).
    pub threshold: f64,
}

impl PerturbReport {
    /// True when no pivot was touched.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Number of perturbed columns.
    pub fn count(&self) -> usize {
        self.columns.len()
    }
}

/// Outcome of [`LuFactor::solve_refined`]'s iterative-refinement loop.
#[derive(Debug, Clone, PartialEq)]
pub struct RefineReport {
    /// Correction iterations performed (0 when the direct solve was
    /// already below tolerance).
    pub iterations: usize,
    /// Componentwise backward error of the direct solve.
    pub initial_berr: f64,
    /// Componentwise backward error of the returned solution.
    pub final_berr: f64,
    /// True when `final_berr <= tol`.
    pub converged: bool,
}

/// Per-column pivot outcome of the shared column kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PivotStatus {
    /// Pivot used as computed.
    Clean,
    /// Pivot magnitude fell below the perturbation threshold and was
    /// replaced by `±threshold`.
    Perturbed,
    /// Pivot exactly zero with perturbation off — the column failed.
    Zero,
}

/// Run the residual/correction loop of iterative refinement around an
/// arbitrary solver: `x = solve(b)`, then repeatedly `x += solve(b -
/// A·x)` until the componentwise backward error
/// `max_i |r_i| / (|A||x| + |b|)_i` drops to `tol`, `max_iter`
/// corrections have run, or the error stagnates (not halved by an
/// iteration — the LAPACK `xGERFS` stopping rule). Returns the best
/// iterate seen. Shared by [`LuFactor::solve_refined`] and the
/// recovery driver's last-resort rung, which refines around the
/// partial-pivoting baseline.
pub fn refine_with<F: Fn(&[f64]) -> Vec<f64>>(
    a: &CscMatrix,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    solve: F,
) -> (Vec<f64>, RefineReport) {
    use sympiler_sparse::ops::componentwise_berr;
    let n = a.n_rows();
    assert_eq!(b.len(), n, "rhs length mismatch");
    let mut x = solve(b);
    let initial_berr = componentwise_berr(a, &x, b);
    let mut best = x.clone();
    let mut best_berr = initial_berr;
    let mut berr = initial_berr;
    let mut iterations = 0;
    let mut r = vec![0.0f64; n];
    while berr > tol && iterations < max_iter && berr.is_finite() {
        sympiler_sparse::ops::spmv(a, &x, &mut r);
        for (ri, bi) in r.iter_mut().zip(b) {
            *ri = bi - *ri;
        }
        let d = solve(&r);
        for (xi, di) in x.iter_mut().zip(&d) {
            *xi += di;
        }
        iterations += 1;
        let new_berr = componentwise_berr(a, &x, b);
        if new_berr < best_berr {
            best_berr = new_berr;
            best.copy_from_slice(&x);
        }
        let stagnated = new_berr > 0.5 * berr;
        berr = new_berr;
        if stagnated {
            break;
        }
    }
    let report = RefineReport {
        iterations,
        initial_berr,
        final_berr: best_berr,
        converged: best_berr <= tol,
    };
    (best, report)
}

/// Reusable per-factorization scratch state, split out of the
/// (immutable, shareable) [`LuPlan`] so N threads can factor against
/// one `Arc<LuPlan>` without cloning any compiled tables: the plan
/// holds everything decided at compile time, the workspace holds the
/// dense accumulator a numeric factorization scatters into.
///
/// A workspace is plan-agnostic — it grows to the largest `n` it has
/// served and can be reused across plans (a serving worker keeps one
/// for its whole lifetime, whatever patterns flow through). The
/// accumulator is maintained all-zeros between calls by the column
/// kernel itself, so reuse costs nothing per factorization.
#[derive(Debug, Clone, Default)]
pub struct LuWorkspace {
    /// Dense accumulator, all zeros between factorizations.
    x: Vec<f64>,
}

impl LuWorkspace {
    /// A fresh, empty workspace (grows on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Capacity in matrix order currently held.
    pub fn capacity(&self) -> usize {
        self.x.len()
    }

    /// Make the accumulator at least `n` long (new tail zeroed; the
    /// existing prefix is already all-zeros by the kernel invariant).
    fn ensure(&mut self, n: usize) -> &mut [f64] {
        if self.x.len() < n {
            self.x.resize(n, 0.0);
        }
        &mut self.x[..n]
    }
}

/// The compile-time permutations baked into a plan: a composed **row**
/// gather map and a **column** gather map (`perm[new] = old` on both
/// sides), from the static pre-pivot `P` and/or the fill-reducing
/// ordering `Q`. The plan factors `B = Qᵀ·P·A·Q`, i.e. `B[i, j] =
/// A[rperm[i], cperm[j]]` with `rperm[new] = P[Q[new]]` and `cperm =
/// Q` — under an ordering alone the two maps coincide (the historical
/// symmetric application), under a pre-pivot alone `cperm` is the
/// identity.
///
/// The numeric phase reads the caller's *original* matrix through
/// these gather maps, so applying either permutation costs nothing per
/// factorization — one extra index indirection during the scatter of
/// `A`'s columns, on memory the scatter touches anyway. The maps are
/// `Arc`-shared with every [`LuFactor`] the plan produces, so repeated
/// factorization never copies them.
#[derive(Debug, Clone)]
pub(crate) struct BakedPerm {
    /// `rperm[new] = old` row of `A` — the composed row map `P·Q`.
    pub(crate) rperm: std::sync::Arc<[usize]>,
    /// `irperm[old] = new` — the inverse row map, `Arc`-shared with
    /// the factors so sparse-RHS solves can map input patterns without
    /// re-inverting.
    pub(crate) irperm: std::sync::Arc<[usize]>,
    /// `cperm[new] = old` column of `A` — the ordering `Q` (identity
    /// when only a pre-pivot is baked).
    pub(crate) cperm: std::sync::Arc<[usize]>,
}

/// MC64 equilibration scalings derived from the weighted-matching dual
/// potentials, stored in **original** coordinates: the compiled system
/// becomes `Qᵀ·P·(Dr·A·Dc)·Q`, with every matched diagonal scaled to
/// exactly 1 and every entry to magnitude ≤ 1. The diagonal matrices
/// never materialize — the numeric scatter multiplies entries on the
/// fly (`B[i, j] = dr[r]·A[r, c]·dc[c]` for `r = rperm[i]`, `c =
/// cperm[j]`), so a scaled factorization costs zero extra passes, and
/// solves scale `b` by `Dr` on the way in and the solution by `Dc` on
/// the way out (`(Dr·A·Dc)(Dc⁻¹x) = Dr·b`). `Arc`-shared with every
/// factor, like the baked permutations.
#[derive(Debug, Clone)]
pub(crate) struct ScalePair {
    /// `dr[old_row]` — row scaling of `A`'s original rows.
    pub(crate) dr: std::sync::Arc<[f64]>,
    /// `dc[old_col]` — column scaling of `A`'s original columns.
    pub(crate) dc: std::sync::Arc<[f64]>,
}

/// A compiled LU factorization specialized to one sparsity pattern
/// (static diagonal pivoting), optionally under a fill-reducing
/// ordering applied symmetrically (`Qᵀ A Q`) so the diagonal-pivot
/// contract survives.
#[derive(Debug, Clone)]
pub struct LuPlan {
    pub(crate) n: usize,
    a_nnz: usize,
    /// Compiled input pattern, checked on every `factor` call (the
    /// static-sparsity contract made enforceable, like `CholPlan`).
    /// Always the **original** (unordered) pattern: callers hand
    /// `factor` the same matrix they compiled for, and the baked
    /// permutation is the plan's internal affair.
    a_col_ptr: Vec<usize>,
    a_row_idx: Vec<u32>,
    /// Which ordering strategy contributed to [`Self::baked`].
    ordering: Ordering,
    /// Which pre-pivoting strategy contributed to [`Self::baked`].
    pre_pivot: PrePivot,
    /// Count of columns whose compiled pivot position is structurally
    /// present in `A` (the matched diagonals, `n` after any successful
    /// pre-pivot) — the deterministic quantity the perf gate tracks.
    matched_diag: usize,
    /// Static pivot-perturbation tolerance: a pivot whose magnitude
    /// falls below `perturb_tol · max|A values|` is replaced by the
    /// signed threshold and recorded, instead of failing (or silently
    /// amplifying). `0.0` disables perturbation entirely — the guard
    /// `|pivot| < 0` never fires, so the numeric phase is bitwise the
    /// unperturbed code path.
    perturb_tol: f64,
    /// The compiled permutations, `None` when both knobs resolve to
    /// the identity. All factor layouts and schedules below live in
    /// pivoted + ordered coordinates.
    baked: Option<BakedPerm>,
    /// MC64 row/column scalings ([`Self::with_mc64_scaling`]), `None`
    /// unless scaling was compiled in. Purely numeric: the factor
    /// patterns, schedules, and permutations above are unaffected.
    scaling: Option<ScalePair>,
    /// Factor layouts (patterns fixed at compile time). Shared with
    /// `plan::lu_parallel`, which executes the same schedule leveled
    /// over the column elimination DAG.
    pub(crate) l_col_ptr: Vec<usize>,
    pub(crate) l_row_idx: Vec<u32>,
    pub(crate) u_col_ptr: Vec<usize>,
    pub(crate) u_row_idx: Vec<u32>,
    /// Update schedule: column `j` executes `upd_cols[upd_ptr[j]..
    /// upd_ptr[j+1]]` in topological order. The high bit of each entry
    /// marks the peeled (unrolled) low-level tier.
    pub(crate) upd_ptr: Vec<usize>,
    pub(crate) upd_cols: Vec<u32>,
    /// Exact factorization flops.
    flops: u64,
    /// Exact per-column flops (sums to `flops`) — the attribution
    /// table the observability layer charges scalar/dense work
    /// against, so profiled flop accounting closes exactly.
    pub(crate) col_flops: Vec<u64>,
    report: SymbolicReport,
    /// The observability sink every execution tier built from this
    /// plan records into. Disabled (a no-op) unless the plan was
    /// compiled with profiling on; `Arc`-shared so plan clones — and
    /// the parallel/supernodal plans wrapping them — feed one trace.
    profiler: Arc<Profiler>,
}

pub(crate) const PEEL_BIT: u32 = 1 << 31;

/// A numeric factorization produced by [`LuPlan::factor`]:
/// `Qᵀ·P·A·Q = L U` with unit-lower-triangular `L` (diagonal-first
/// columns) and upper-triangular `U` (diagonal-last columns), where
/// `P` is the plan's static pre-pivot and `Q` its compiled ordering
/// (both the identity by default, in which case this is plainly
/// `A = L U`). [`Self::solve`] handles the permutations transparently:
/// it takes and returns vectors in the **original** coordinates of
/// `A`.
#[derive(Debug, Clone)]
pub struct LuFactor {
    l: CscMatrix,
    u: CscMatrix,
    /// Composed row gather `rperm[new] = old` (`P·Q`); `None` when no
    /// permutation was compiled. Shared with the producing plan
    /// (`Arc`), not copied per factor.
    rperm: Option<std::sync::Arc<[usize]>>,
    /// `irperm[old] = new`, shared likewise; present iff `rperm` is.
    irperm: Option<std::sync::Arc<[usize]>>,
    /// Column gather `cperm[new] = old` (`Q` alone); `None` whenever
    /// no *ordering* was compiled — in particular under a pre-pivot
    /// alone, where the column map is the identity — matching
    /// [`LuPlan::col_perm`]'s contract exactly (and skipping the
    /// then-pointless scatter pass in [`Self::solve`]).
    cperm: Option<std::sync::Arc<[usize]>>,
    /// MC64 scalings the factors were computed under (`Some` iff the
    /// plan compiled with [`LuPlan::with_mc64_scaling`]); solves apply
    /// `Dr` to the RHS and `Dc` to the solution so callers stay in
    /// unscaled original coordinates throughout.
    scaling: Option<ScalePair>,
    /// Numerical-health monitors, recorded only when the producing
    /// plan was compiled with profiling enabled.
    health: Option<LuHealth>,
    /// Which columns (if any) had their pivot statically perturbed.
    perturb: PerturbReport,
}

impl LuFactor {
    /// The unit lower-triangular factor (pivoted/ordered coordinates).
    pub fn l(&self) -> &CscMatrix {
        &self.l
    }

    /// The upper-triangular factor (pivoted/ordered coordinates).
    pub fn u(&self) -> &CscMatrix {
        &self.u
    }

    /// The column map the factors live under (`cperm[new] = old` —
    /// the ordering `Q`), or `None` for natural column order — the
    /// same contract as [`LuPlan::col_perm`], so a pre-pivot alone
    /// reports `None` here while [`Self::row_perm`] reports the row
    /// moves.
    pub fn col_perm(&self) -> Option<&[usize]> {
        self.cperm.as_deref()
    }

    /// The composed row map the factors live under (`rperm[new] =
    /// old`, the row of `A` that became row `new` of the factored
    /// system — pre-pivot and ordering combined), or `None` when no
    /// permutation is baked. Equal to [`Self::col_perm`] when no
    /// pre-pivot moved rows.
    pub fn row_perm(&self) -> Option<&[usize]> {
        self.rperm.as_deref()
    }

    /// Numerical-health monitors (pivot growth, min/max pivot,
    /// matched-diagonal quality) recorded during `factor()` —
    /// `Some` only when the plan was compiled with
    /// `SympilerOptions::profile`. For an on-demand computation on an
    /// unprofiled factor, see [`LuPlan::health_of`].
    pub fn health(&self) -> Option<&LuHealth> {
        self.health.as_ref()
    }

    /// The static pivot perturbations this factorization applied —
    /// empty unless the producing plan had perturbation enabled *and*
    /// at least one pivot fell below the threshold. A non-empty report
    /// means the factors belong to a nearby matrix; pair with
    /// [`Self::solve_refined`] to recover solutions of the original.
    pub fn perturb_report(&self) -> &PerturbReport {
        &self.perturb
    }

    /// Consume into `(L, U)`.
    pub fn into_parts(self) -> (CscMatrix, CscMatrix) {
        (self.l, self.u)
    }

    /// Solve `A x = b` in original coordinates: gather `b` through the
    /// composed row map (`Qᵀ·P·b`, scaled by `Dr` first when the plan
    /// compiled MC64 scaling), run `L y = Qᵀ·P·Dr·b` then `U z = y`,
    /// and scatter back through the column map, unscaling by `Dc`
    /// (`x = Dc·Q·z`). The permutation and scaling applications are
    /// O(n) gathers — no per-solve symbolic work of any kind.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.l.n_cols();
        assert_eq!(b.len(), n, "rhs length mismatch");
        let mut x = vec![0.0f64; n];
        self.gather_rhs_into(b, &mut x);
        self.solve_in_factor_coords(&mut x);
        if self.cperm.is_none() && self.scaling.is_none() {
            return x;
        }
        let mut out = vec![0.0f64; n];
        self.scatter_solution_into(&x, &mut out);
        out
    }

    /// Map one RHS from original coordinates into factor coordinates:
    /// scale by `Dr` (when scaling is compiled) and gather through the
    /// composed row map. The scale factor multiplies the *original*
    /// row's entry — `x[new] = dr[old]·b[old]` for `old = rperm[new]`.
    fn gather_rhs_into(&self, b: &[f64], x: &mut [f64]) {
        match (&self.scaling, &self.rperm) {
            (None, None) => x.copy_from_slice(b),
            (None, Some(p)) => {
                for (d, &old) in x.iter_mut().zip(p.iter()) {
                    *d = b[old];
                }
            }
            (Some(s), None) => {
                for ((d, &v), &dr) in x.iter_mut().zip(b).zip(s.dr.iter()) {
                    *d = dr * v;
                }
            }
            (Some(s), Some(p)) => {
                for (d, &old) in x.iter_mut().zip(p.iter()) {
                    *d = s.dr[old] * b[old];
                }
            }
        }
    }

    /// Map one solved vector from factor coordinates back to original
    /// coordinates: scatter through the column map and unscale by `Dc`
    /// (the factored unknown is `Dc⁻¹x`, so `out[old] = dc[old]·z[new]`
    /// for `old = cperm[new]`).
    fn scatter_solution_into(&self, z: &[f64], out: &mut [f64]) {
        match (&self.scaling, &self.cperm) {
            (None, None) => out.copy_from_slice(z),
            (None, Some(q)) => {
                for (&v, &old) in z.iter().zip(q.iter()) {
                    out[old] = v;
                }
            }
            (Some(s), None) => {
                for ((o, &v), &dc) in out.iter_mut().zip(z).zip(s.dc.iter()) {
                    *o = dc * v;
                }
            }
            (Some(s), Some(q)) => {
                for (&v, &old) in z.iter().zip(q.iter()) {
                    out[old] = s.dc[old] * v;
                }
            }
        }
    }

    /// Solve `A X = B` for a block of right-hand sides stored
    /// column-major (`b[r*n..(r+1)*n]` is RHS `r`), returning the
    /// solutions in the same layout. The triangular sweeps are
    /// **blocked**: each factor column is loaded once per sweep and
    /// applied to every RHS while it is hot in cache, instead of
    /// re-streaming both factors per RHS the way an [`Self::solve`]
    /// loop would. Per RHS, the arithmetic order (including the skip
    /// of structurally-zero columns) is exactly [`Self::solve`]'s, so
    /// each returned column is bitwise identical to a one-at-a-time
    /// solve of that RHS.
    pub fn solve_multi(&self, b: &[f64], nrhs: usize) -> Vec<f64> {
        let n = self.l.n_cols();
        assert_eq!(b.len(), n * nrhs, "rhs block length mismatch");
        let mut x = vec![0.0f64; n * nrhs];
        for r in 0..nrhs {
            self.gather_rhs_into(&b[r * n..(r + 1) * n], &mut x[r * n..(r + 1) * n]);
        }
        // Forward: L has diagonal-first unit columns; the column's
        // rows/values are hoisted out of the RHS loop.
        let (col_ptr, row_idx, values) = (self.l.col_ptr(), self.l.row_idx(), self.l.values());
        for j in 0..n {
            let range = col_ptr[j] + 1..col_ptr[j + 1];
            let rows = &row_idx[range.clone()];
            let vals = &values[range];
            for r in 0..nrhs {
                let xr = &mut x[r * n..(r + 1) * n];
                let xj = xr[j]; // unit diagonal: no division
                if xj != 0.0 {
                    for (&i, &lij) in rows.iter().zip(vals) {
                        xr[i] -= lij * xj;
                    }
                }
            }
        }
        // Backward: U has diagonal-last columns.
        let (col_ptr, row_idx, values) = (self.u.col_ptr(), self.u.row_idx(), self.u.values());
        for j in (0..n).rev() {
            let range = col_ptr[j]..col_ptr[j + 1];
            let rows = &row_idx[range.start..range.end - 1];
            let vals = &values[range.start..range.end - 1];
            let pivot = values[range.end - 1];
            for r in 0..nrhs {
                let xr = &mut x[r * n..(r + 1) * n];
                let xj = xr[j] / pivot;
                xr[j] = xj;
                if xj != 0.0 {
                    for (&i, &uij) in rows.iter().zip(vals) {
                        xr[i] -= uij * xj;
                    }
                }
            }
        }
        if self.cperm.is_none() && self.scaling.is_none() {
            return x;
        }
        let mut out = vec![0.0f64; n * nrhs];
        for r in 0..nrhs {
            self.scatter_solution_into(&x[r * n..(r + 1) * n], &mut out[r * n..(r + 1) * n]);
        }
        out
    }

    /// [`Self::solve_multi`] over a slice of independent right-hand
    /// sides — packs them into one column-major block, runs the
    /// blocked sweeps, and unpacks. Each returned vector is bitwise
    /// identical to `self.solve(&rhs[r])`.
    ///
    /// ```
    /// use sympiler_core::{SympilerLu, SympilerOptions};
    /// use sympiler_sparse::gen;
    ///
    /// let a = gen::circuit_unsym(40, 4, 2, 7);
    /// let lu = SympilerLu::compile(&a, &SympilerOptions::default())?;
    /// let f = lu.factor(&a)?;
    ///
    /// let rhs = vec![vec![1.0; 40], vec![-2.0; 40]];
    /// let xs = f.solve_batch(&rhs);
    /// assert_eq!(xs[0], f.solve(&rhs[0]));
    /// assert_eq!(xs[1], f.solve(&rhs[1]));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn solve_batch<S: AsRef<[f64]>>(&self, rhs: &[S]) -> Vec<Vec<f64>> {
        let n = self.l.n_cols();
        if n == 0 {
            return rhs.iter().map(|_| Vec::new()).collect();
        }
        let mut block = Vec::with_capacity(n * rhs.len());
        for r in rhs {
            assert_eq!(r.as_ref().len(), n, "rhs length mismatch");
            block.extend_from_slice(r.as_ref());
        }
        let flat = self.solve_multi(&block, rhs.len());
        flat.chunks(n).map(<[f64]>::to_vec).collect()
    }

    /// The two triangular sweeps, entirely in the factors' (ordered)
    /// coordinate system.
    fn solve_in_factor_coords(&self, x: &mut [f64]) {
        let n = self.l.n_cols();
        // Forward: L has diagonal-first unit columns.
        let (col_ptr, row_idx, values) = (self.l.col_ptr(), self.l.row_idx(), self.l.values());
        for j in 0..n {
            let range = col_ptr[j]..col_ptr[j + 1];
            let xj = x[j]; // unit diagonal: no division
            if xj != 0.0 {
                for (&i, &lij) in row_idx[range.start + 1..range.end]
                    .iter()
                    .zip(&values[range.start + 1..range.end])
                {
                    x[i] -= lij * xj;
                }
            }
        }
        // Backward: U has diagonal-last columns.
        let (col_ptr, row_idx, values) = (self.u.col_ptr(), self.u.row_idx(), self.u.values());
        for j in (0..n).rev() {
            let range = col_ptr[j]..col_ptr[j + 1];
            let xj = x[j] / values[range.end - 1];
            x[j] = xj;
            if xj != 0.0 {
                for (&i, &uij) in row_idx[range.start..range.end - 1]
                    .iter()
                    .zip(&values[range.start..range.end - 1])
                {
                    x[i] -= uij * xj;
                }
            }
        }
    }

    /// Solve `A x = b` for a **sparse** right-hand side, touching only
    /// the reach sets of `b`'s pattern on the factors' dependence
    /// graphs — the Gilbert–Peierls theory (§1.1) applied at solve
    /// time, with the same DFS machinery the symbolic LU inspection
    /// uses ([`sympiler_graph::dfs`]).
    ///
    /// Two reach computations schedule the two sweeps: the forward
    /// solve visits `Reach_{DG_L}(SP(b))`, the backward solve
    /// `Reach_{DG_U}` of the intermediate's pattern (edges of `DG_U`
    /// point *up*: column `j` of `U` feeds rows `i < j`). Arithmetic
    /// and pattern traversal are `O(|b| + flops of the pruned solve)`;
    /// only the dense scratch initialization is `O(n)`.
    ///
    /// Takes and returns **original** coordinates, exactly like
    /// [`Self::solve`]: under baked permutations the input pattern
    /// maps through the inverse row map (`(P·Q)⁻¹`) and the result
    /// pattern back through the column map (`Q`). The returned
    /// vector's pattern is the structural reach — entries that cancel
    /// numerically are stored as explicit zeros.
    pub fn solve_sparse(&self, b: &SparseVec) -> SparseVec {
        let n = self.l.n_cols();
        assert_eq!(b.dim(), n, "rhs dimension mismatch");
        let mut x = vec![0.0f64; n];
        // Pattern and values of Qᵀ·P·(Dr·b) in factor coordinates —
        // the row scaling (identity without compiled MC64 scaling)
        // touches values only, never the pattern.
        let dr = |i: usize| self.scaling.as_ref().map_or(1.0, |s| s.dr[i]);
        let beta: Vec<usize> = match &self.irperm {
            None => {
                for (i, v) in b.iter() {
                    x[i] = dr(i) * v;
                }
                b.indices().to_vec()
            }
            Some(ip) => {
                let mut idx: Vec<usize> = b.indices().iter().map(|&i| ip[i]).collect();
                for (&i, &v) in b.indices().iter().zip(b.values()) {
                    x[ip[i]] = dr(i) * v;
                }
                idx.sort_unstable();
                idx
            }
        };
        let mut ws = sympiler_graph::dfs::ReachWorkspace::new(n);
        let mut order: Vec<usize> = Vec::with_capacity(beta.len() * 4);
        // Forward: L y = Qᵀ b over Reach_{DG_L}(SP(b)), topological.
        sympiler_graph::dfs::reach_adjacency_into(
            n,
            &beta,
            |v| &self.l.col_rows(v)[1..],
            &mut ws,
            &mut order,
        );
        let (col_ptr, row_idx, values) = (self.l.col_ptr(), self.l.row_idx(), self.l.values());
        for &j in &order {
            let xj = x[j]; // unit diagonal
            if xj != 0.0 {
                for (&i, &lij) in row_idx[col_ptr[j] + 1..col_ptr[j + 1]]
                    .iter()
                    .zip(&values[col_ptr[j] + 1..col_ptr[j + 1]])
                {
                    x[i] -= lij * xj;
                }
            }
        }
        // Backward: U z = y over Reach_{DG_U}(SP(y)); U's columns
        // store the diagonal last, so the edge set of node v is every
        // stored row but the last.
        let beta_u = std::mem::take(&mut order);
        let mut order_u: Vec<usize> = Vec::with_capacity(beta_u.len() * 2);
        sympiler_graph::dfs::reach_adjacency_into(
            n,
            &beta_u,
            |v| {
                let rows = self.u.col_rows(v);
                &rows[..rows.len() - 1]
            },
            &mut ws,
            &mut order_u,
        );
        let (col_ptr, row_idx, values) = (self.u.col_ptr(), self.u.row_idx(), self.u.values());
        for &j in &order_u {
            let range = col_ptr[j]..col_ptr[j + 1];
            let xj = x[j] / values[range.end - 1];
            x[j] = xj;
            if xj != 0.0 {
                for (&i, &uij) in row_idx[range.start..range.end - 1]
                    .iter()
                    .zip(&values[range.start..range.end - 1])
                {
                    x[i] -= uij * xj;
                }
            }
        }
        // Gather the solution pattern back to original coordinates,
        // unscaling by Dc (the solution lives on the column side:
        // x = Dc·Q·z).
        let dc = |i: usize| self.scaling.as_ref().map_or(1.0, |s| s.dc[i]);
        let mut pairs: Vec<(usize, f64)> = match &self.cperm {
            None => order_u.iter().map(|&j| (j, dc(j) * x[j])).collect(),
            Some(q) => order_u.iter().map(|&j| (q[j], dc(q[j]) * x[j])).collect(),
        };
        pairs.sort_unstable_by_key(|&(i, _)| i);
        let (indices, vals): (Vec<usize>, Vec<f64>) = pairs.into_iter().unzip();
        SparseVec::try_new(n, indices, vals).expect("reach emits unique in-range indices")
    }

    /// Solve `A x = b` with iterative refinement against the caller's
    /// **original** matrix: the direct [`Self::solve`], then
    /// residual/correction sweeps (`x += solve(b - A·x)`) until the
    /// componentwise backward error reaches `tol`, `max_iter`
    /// corrections have run, or the error stagnates. Returns the best
    /// iterate together with a [`RefineReport`].
    ///
    /// This is the recovery ladder's second rung: it repairs both
    /// static pivot perturbation ([`Self::perturb_report`]) and the
    /// element growth a pattern-only pre-pivot can admit — at the cost
    /// of a few O(nnz) sweeps, with **no** recompilation and no
    /// refactorization. `a` must be the matrix this factor was
    /// computed from (any same-pattern matrix is accepted; the report
    /// then describes backward error with respect to the matrix
    /// given).
    pub fn solve_refined(
        &self,
        a: &CscMatrix,
        b: &[f64],
        tol: f64,
        max_iter: usize,
    ) -> (Vec<f64>, RefineReport) {
        refine_with(a, b, tol, max_iter, |rhs| self.solve(rhs))
    }

    /// Magnitude of `det(A)`: the product of `U`'s diagonal.
    pub fn det_magnitude(&self) -> f64 {
        (0..self.u.n_cols())
            .map(|j| {
                let vals = self.u.col_values(j);
                vals[vals.len() - 1].abs()
            })
            .product()
    }
}

impl LuPlan {
    /// Compile a plan for the square (generally unsymmetric) matrix
    /// `a` in its natural order. `low_level` enables the peeled update
    /// tier; `peel_col_count` is the peeling threshold (update columns
    /// with more than this many off-diagonal entries unroll, Figure
    /// 1e's rule applied to factorization updates).
    pub fn build(
        a: &CscMatrix,
        low_level: bool,
        peel_col_count: usize,
    ) -> Result<Self, LuPlanError> {
        Self::build_ordered(a, low_level, peel_col_count, Ordering::Natural)
    }

    /// Compile a plan with a fill-reducing ordering (no pre-pivot);
    /// see [`Self::build_pivoted`].
    pub fn build_ordered(
        a: &CscMatrix,
        low_level: bool,
        peel_col_count: usize,
        ordering: Ordering,
    ) -> Result<Self, LuPlanError> {
        Self::build_pivoted(a, low_level, peel_col_count, ordering, PrePivot::Off)
    }

    /// Compile a plan with a static pre-pivot and a fill-reducing
    /// ordering. Both are pure symbolic-phase decisions: the row
    /// matching `P` (maximum transversal / weighted matching) and the
    /// ordering `Q` are computed once here, the symbolic factorization
    /// runs on `Qᵀ·P·A·Q`, and the composed gather maps are baked into
    /// the plan — [`Self::factor`] still takes the **original** matrix
    /// and pays no per-factorization permutation cost. A
    /// [`LuPlanError::ZeroPivot`] column index is reported in
    /// pivoted + ordered coordinates (the coordinates of the factors
    /// themselves); a structurally singular pattern fails here, at
    /// compile time, with [`LuPlanError::StructurallySingular`].
    pub fn build_pivoted(
        a: &CscMatrix,
        low_level: bool,
        peel_col_count: usize,
        ordering: Ordering,
        pre_pivot: PrePivot,
    ) -> Result<Self, LuPlanError> {
        Self::build_profiled(
            a,
            low_level,
            peel_col_count,
            ordering,
            pre_pivot,
            Arc::new(Profiler::disabled()),
        )
    }

    /// [`Self::build_pivoted`] with an observability sink attached:
    /// compile stages land on the profiler as `compile: ...` spans,
    /// inspection-set sizes as `sets.*` gauges, and every execution
    /// tier built from the plan records its numeric-phase spans,
    /// counters, and health monitors into the same trace. Passing
    /// `Profiler::disabled()` (what [`Self::build_pivoted`] does)
    /// makes all of that a no-op.
    pub fn build_profiled(
        a: &CscMatrix,
        low_level: bool,
        peel_col_count: usize,
        ordering: Ordering,
        pre_pivot: PrePivot,
        profiler: Arc<Profiler>,
    ) -> Result<Self, LuPlanError> {
        if !a.is_square() {
            return Err(LuPlanError::BadInput("matrix must be square".into()));
        }
        let n = a.n_cols();
        // Schedule entries pack a column index with the peel tag in bit
        // 31, and factor rows narrow to u32 — reject orders where that
        // packing would silently corrupt instead of erroring.
        if n >= (1 << 31) {
            return Err(LuPlanError::BadInput(format!(
                "matrix order {n} exceeds the plan's 2^31 - 1 index limit"
            )));
        }
        let mut report = SymbolicReport::default();

        // --- Inspection: static pre-pivot (row matching) and
        // fill-reducing ordering (both resolved once), then per-column
        // reach sets (Gilbert–Peierls symbolic factorization) of the
        // pivoted + ordered pattern.
        let sets = timed_traced(
            &mut report,
            &profiler,
            "inspect: pre-pivot + ordering + LU reach sets (DFS)",
            || LuVIPruneInspector.inspect_pivoted(a, ordering, pre_pivot),
        );
        let sets = sets.map_err(|e| match e {
            sympiler_sparse::SparseError::StructurallySingular { n, structural_rank } => {
                LuPlanError::StructurallySingular { n, structural_rank }
            }
            other => LuPlanError::BadInput(format!("inspection: {other}")),
        })?;
        let baked = match (&sets.row_perm, &sets.col_perm) {
            (None, None) => None,
            (rowp, q) => {
                // Compose: row new of the factored system is row
                // rowp[q[new]] of A; the column side is q alone.
                // Inverting through the sparse helper doubles as the
                // bijection check every permutation must pass.
                let identity: Vec<usize>;
                let q = match q {
                    Some(q) => &q[..],
                    None => {
                        identity = (0..n).collect();
                        &identity[..]
                    }
                };
                let rperm: Vec<usize> = match rowp {
                    Some(p) => q.iter().map(|&jq| p[jq]).collect(),
                    None => q.to_vec(),
                };
                let irperm = sympiler_sparse::ops::inverse_permutation(&rperm)
                    .expect("composed row map is a valid permutation");
                Some(BakedPerm {
                    rperm: rperm.into(),
                    irperm: irperm.into(),
                    cperm: q.to_vec().into(),
                })
            }
        };
        // The deterministic pre-pivot quality stat: how many compiled
        // pivot positions are structurally present in A. Any
        // successful matching makes this n; Off on a zero-diag
        // pattern leaves it short.
        let matched_diag = match &baked {
            None => n - sympiler_sparse::ops::structurally_zero_diagonals(a),
            Some(bp) => (0..n)
                .filter(|&j| a.find(bp.rperm[j], bp.cperm[j]).is_some())
                .count(),
        };
        let sym = sets.symbolic;
        report.set_size("nnz(A)", a.nnz());
        report.set_size("nnz(L)", sym.l_nnz());
        report.set_size("nnz(U)", sym.u_nnz());
        report.set_size("update ops", sym.reach_cols.len());

        // --- Transform + pack: bake the schedule with the low-level
        // tier decision resolved per update (VI-Prune made executable).
        let (upd_ptr, upd_cols) = timed_traced(
            &mut report,
            &profiler,
            "transform + pack (schedule)",
            || {
                let mut upd_ptr = Vec::with_capacity(n + 1);
                let mut upd_cols = Vec::with_capacity(sym.reach_cols.len());
                upd_ptr.push(0usize);
                for j in 0..n {
                    for &k in sym.reach(j) {
                        let heavy = sym.l_col_pattern(k).len() - 1 > peel_col_count;
                        let tag = if low_level && heavy { PEEL_BIT } else { 0 };
                        upd_cols.push(k as u32 | tag);
                    }
                    upd_ptr.push(upd_cols.len());
                }
                (upd_ptr, upd_cols)
            },
        );
        report.set_size(
            "peeled updates",
            upd_cols.iter().filter(|&&c| c & PEEL_BIT != 0).count(),
        );

        let flops = sym.factor_flops();
        let col_flops = sym.per_column_flops();
        report.export_gauges(&profiler);
        Ok(Self {
            n,
            a_nnz: a.nnz(),
            a_col_ptr: a.col_ptr().to_vec(),
            a_row_idx: a.row_idx().iter().map(|&r| r as u32).collect(),
            ordering,
            pre_pivot,
            matched_diag,
            perturb_tol: 0.0,
            baked,
            scaling: None,
            l_col_ptr: sym.l_col_ptr,
            l_row_idx: sym.l_row_idx.iter().map(|&r| r as u32).collect(),
            u_col_ptr: sym.u_col_ptr,
            u_row_idx: sym.u_row_idx.iter().map(|&r| r as u32).collect(),
            upd_ptr,
            upd_cols,
            flops,
            col_flops,
            report,
            profiler,
        })
    }

    /// Matrix order.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Predicted nonzeros of `L`.
    pub fn l_nnz(&self) -> usize {
        self.l_row_idx.len()
    }

    /// Predicted nonzeros of `U`.
    pub fn u_nnz(&self) -> usize {
        self.u_row_idx.len()
    }

    /// Exact factorization flops.
    pub fn flops(&self) -> u64 {
        self.flops
    }

    /// Number of scheduled column updates.
    pub fn n_updates(&self) -> usize {
        self.upd_cols.len()
    }

    /// Number of updates compiled to the peeled (unrolled) tier.
    pub fn n_peeled(&self) -> usize {
        self.upd_cols.iter().filter(|&&c| c & PEEL_BIT != 0).count()
    }

    /// The ordering strategy this plan was compiled with.
    pub fn ordering(&self) -> Ordering {
        self.ordering
    }

    /// The pre-pivoting strategy this plan was compiled with.
    pub fn pre_pivot(&self) -> PrePivot {
        self.pre_pivot
    }

    /// Enable SuperLU_DIST-style static pivot perturbation: during a
    /// factorization of `a`, any pivot with `|pivot| < tol · max|A
    /// values|` is replaced by `±tol · max|A values|` (keeping its
    /// sign; `+` for an exact zero), the column is recorded in the
    /// factor's [`PerturbReport`], and factorization continues. The
    /// perturbed factors solve a nearby system — follow with
    /// [`LuFactor::solve_refined`]. `tol = 0.0` (the default) turns
    /// the mechanism off, leaving every numeric path bitwise
    /// unchanged. Applies to all execution tiers built from this plan.
    pub fn with_pivot_perturbation(mut self, tol: f64) -> Self {
        assert!(
            tol >= 0.0 && tol.is_finite(),
            "perturbation tolerance must be finite and non-negative"
        );
        self.perturb_tol = tol;
        self
    }

    /// The configured perturbation tolerance (0 when off).
    pub fn pivot_perturbation(&self) -> f64 {
        self.perturb_tol
    }

    /// Finish MC64: compile row/column equilibration scalings derived
    /// from the weighted-matching dual potentials of `a` into the
    /// plan. The factored system becomes `Qᵀ·P·(Dr·A·Dc)·Q` — every
    /// matched diagonal is scaled to exactly 1 and every entry to
    /// magnitude ≤ 1, which is what collapses pivot growth from ~1e8
    /// to O(1) on zero-diagonal problems. Like the baked permutations,
    /// the scalings are a pure compile-time decision folded into the
    /// numeric scatter (`B[i, j] = dr[r]·A[r, c]·dc[c]`): a scaled
    /// factorization costs zero extra passes over the data, and
    /// [`LuFactor::solve`]/[`LuFactor::solve_sparse`]/
    /// [`LuFactor::solve_batch`] unscale transparently, staying in
    /// original coordinates ([`LuFactor::solve_refined`] composes
    /// through `solve` automatically).
    ///
    /// The scalings are computed from `a`'s *values* here, once;
    /// later `factor` calls on same-pattern matrices with different
    /// values reuse them (the usual static-MC64 contract — re-compile
    /// to re-equilibrate). Pairs naturally with `PrePivot::
    /// WeightedMatching` (the duals then belong to the baked
    /// matching), but is valid under any compiled permutation — the
    /// `≤ 1` entry bound holds regardless, which is what the growth
    /// monitors and perturbation thresholds rely on.
    pub fn with_mc64_scaling(mut self, a: &CscMatrix) -> Result<Self, LuPlanError> {
        self.check_pattern(a)?;
        let scaled =
            sympiler_graph::transversal::weighted_matching_scaled(a).map_err(|e| match e {
                sympiler_sparse::SparseError::StructurallySingular { n, structural_rank } => {
                    LuPlanError::StructurallySingular { n, structural_rank }
                }
                other => LuPlanError::BadInput(format!("mc64 scaling: {other}")),
            })?;
        self.scaling = Some(ScalePair {
            dr: scaled.row_scale.into(),
            dc: scaled.col_scale.into(),
        });
        Ok(self)
    }

    /// The compiled MC64 scalings `(Dr, Dc)` in original coordinates,
    /// or `None` when scaling is off.
    pub fn mc64_scaling(&self) -> Option<(&[f64], &[f64])> {
        self.scaling.as_ref().map(|s| (&s.dr[..], &s.dc[..]))
    }

    /// The magnitude of `A[i, j]` as the compiled numeric phase sees
    /// it — scaled by `dr[i]·dc[j]` when MC64 scaling is compiled,
    /// plain `|v|` otherwise. Indices are original coordinates.
    fn scaled_abs(&self, i: usize, j: usize, v: f64) -> f64 {
        match &self.scaling {
            None => v.abs(),
            Some(s) => (s.dr[i] * v * s.dc[j]).abs(),
        }
    }

    /// Max entry magnitude of `a` as the numeric phase sees it (the
    /// scaled matrix when scaling is compiled) — the reference value
    /// for pivot-perturbation thresholds and growth monitors.
    fn max_abs_compiled(&self, a: &CscMatrix) -> f64 {
        match &self.scaling {
            None => a.values().iter().fold(0.0f64, |m, v| m.max(v.abs())),
            Some(_) => {
                let mut m = 0.0f64;
                for j in 0..a.n_cols() {
                    for (i, v) in a.col_iter(j) {
                        m = m.max(self.scaled_abs(i, j, v));
                    }
                }
                m
            }
        }
    }

    /// The absolute replacement threshold for one factorization of
    /// `a`: `perturb_tol · max|A values|` (0 when perturbation is off
    /// — the column kernels' `|pivot| < 0` guard then never fires).
    pub(crate) fn perturb_threshold(&self, a: &CscMatrix) -> f64 {
        if self.perturb_tol == 0.0 {
            return 0.0;
        }
        self.perturb_tol * self.max_abs_compiled(a)
    }

    /// The compiled ordering `Q` (`perm[new] = old`), or `None` for
    /// natural order.
    pub fn col_perm(&self) -> Option<&[usize]> {
        self.baked
            .as_ref()
            .filter(|_| self.ordering != Ordering::Natural)
            .map(|b| &b.cperm[..])
    }

    /// The composed row map (`rperm[new] = old`, pre-pivot and
    /// ordering combined), or `None` when neither knob moved anything.
    /// Equal to [`Self::col_perm`] when no pre-pivot moved rows.
    pub fn row_perm(&self) -> Option<&[usize]> {
        self.baked.as_ref().map(|b| &b.rperm[..])
    }

    /// Count of columns whose compiled pivot position `(rperm[j],
    /// cperm[j])` is structurally present in `A` — `n` after any
    /// successful pre-pivot, short of `n` exactly when the numeric
    /// phase is guaranteed to hit [`LuPlanError::ZeroPivot`].
    /// Deterministic (pattern + knobs only), so it gates pre-pivot
    /// quality in CI the way fill gain gates ordering quality.
    pub fn matched_diagonals(&self) -> usize {
        self.matched_diag
    }

    /// Count of rows the static pre-pivot moved: positions where the
    /// composed row map differs from the column map. Zero without a
    /// pre-pivot (or on its identity fast path).
    pub fn moved_rows(&self) -> usize {
        match &self.baked {
            None => 0,
            Some(b) => (0..self.n).filter(|&j| b.rperm[j] != b.cperm[j]).count(),
        }
    }

    /// Fill ratio `nnz(L + U) / nnz(A)` of the compiled factorization
    /// (diagonal counted once) — the headline number a fill-reducing
    /// ordering exists to shrink.
    pub fn fill_ratio(&self) -> f64 {
        if self.a_nnz == 0 {
            return 0.0;
        }
        (self.l_nnz() + self.u_nnz() - self.n) as f64 / self.a_nnz as f64
    }

    /// Exact per-column factorization flops (sums to [`Self::flops`]).
    pub fn per_column_flops(&self) -> &[u64] {
        &self.col_flops
    }

    /// The observability sink attached at compile time — disabled (a
    /// no-op) unless the plan was built via [`Self::build_profiled`]
    /// with an enabled profiler.
    pub fn profiler(&self) -> &Arc<Profiler> {
        &self.profiler
    }

    /// Symbolic (compile-time) report.
    pub fn report(&self) -> &SymbolicReport {
        &self.report
    }

    /// The update schedule of column `j` (peel tags stripped).
    pub fn schedule(&self, j: usize) -> impl Iterator<Item = usize> + '_ {
        self.upd_cols[self.upd_ptr[j]..self.upd_ptr[j + 1]]
            .iter()
            .map(|&c| (c & !PEEL_BIT) as usize)
    }

    /// The update schedule of column `j` with the compiled low-level
    /// tier decision per update.
    fn schedule_with_tiers(&self, j: usize) -> impl Iterator<Item = (usize, bool)> + '_ {
        self.upd_cols[self.upd_ptr[j]..self.upd_ptr[j + 1]]
            .iter()
            .map(|&c| ((c & !PEEL_BIT) as usize, c & PEEL_BIT != 0))
    }

    /// Check that `a` carries exactly the compiled sparsity pattern
    /// (shared by the serial and parallel numeric phases).
    pub(crate) fn check_pattern(&self, a: &CscMatrix) -> Result<(), LuPlanError> {
        if a.n_cols() != self.n || a.nnz() != self.a_nnz {
            return Err(LuPlanError::PatternMismatch);
        }
        if a.col_ptr() != self.a_col_ptr.as_slice()
            || a.row_idx()
                .iter()
                .zip(&self.a_row_idx)
                .any(|(&r, &c)| r as u32 != c)
        {
            return Err(LuPlanError::PatternMismatch);
        }
        Ok(())
    }

    /// Assemble the factor object from filled value arrays laid out by
    /// the compiled patterns, carrying the baked permutations so the
    /// factor's `solve` speaks original coordinates.
    pub(crate) fn assemble(&self, lx: Vec<f64>, ux: Vec<f64>) -> LuFactor {
        let l = CscMatrix::from_parts_unchecked(
            self.n,
            self.n,
            self.l_col_ptr.clone(),
            self.l_row_idx.iter().map(|&r| r as usize).collect(),
            lx,
        );
        let u = CscMatrix::from_parts_unchecked(
            self.n,
            self.n,
            self.u_col_ptr.clone(),
            self.u_row_idx.iter().map(|&r| r as usize).collect(),
            ux,
        );
        LuFactor {
            l,
            u,
            rperm: self.baked.as_ref().map(|b| b.rperm.clone()),
            irperm: self.baked.as_ref().map(|b| b.irperm.clone()),
            // One contract with `LuPlan::col_perm`: the column map is
            // only reported (and only applied in solves) when an
            // ordering actually reordered columns.
            cperm: self
                .baked
                .as_ref()
                .filter(|_| self.ordering != Ordering::Natural)
                .map(|b| b.cperm.clone()),
            scaling: self.scaling.clone(),
            health: None,
            perturb: PerturbReport::default(),
        }
    }

    /// [`Self::assemble`] plus the profiling-only epilogue shared by
    /// all three execution tiers: when the profiler is enabled,
    /// compute the numerical-health monitors from the filled `U`
    /// values, record them as `health.*` gauges, and surface them on
    /// the factor. With profiling off this *is* `assemble` — no health
    /// pass runs, and the factor value arrays are untouched either
    /// way, so results stay bitwise identical.
    pub(crate) fn finish(
        &self,
        a: &CscMatrix,
        lx: Vec<f64>,
        ux: Vec<f64>,
        perturb: PerturbReport,
    ) -> LuFactor {
        let health = if self.profiler.is_enabled() {
            let h = self.compute_health(a, &ux);
            self.profiler.gauge("health.growth", h.growth);
            self.profiler.gauge("health.min_pivot", h.min_pivot);
            self.profiler.gauge("health.max_pivot", h.max_pivot);
            self.profiler
                .gauge("health.min_matched_diag", h.min_matched_diag);
            Some(h)
        } else {
            None
        };
        if !perturb.is_empty() {
            self.profiler
                .counter("lu.perturbed_cols")
                .add(perturb.count() as u64);
        }
        let mut f = self.assemble(lx, ux);
        f.health = health;
        f.perturb = perturb;
        f
    }

    /// Numerical-health monitors of a completed factorization of `a`
    /// by this plan: element growth `max|U| / max|A|`, min/max pivot
    /// magnitude on `U`'s diagonal, and the smallest magnitude the
    /// static matching placed on the diagonal (`min_j |A[rperm[j],
    /// cperm[j]]|`). Works on any factor the plan produced, profiled
    /// or not — `lu_compare` uses it to put recorded growth numbers in
    /// the comparison table.
    pub fn health_of(&self, a: &CscMatrix, f: &LuFactor) -> LuHealth {
        self.compute_health(a, f.u().values())
    }

    fn compute_health(&self, a: &CscMatrix, ux: &[f64]) -> LuHealth {
        // Growth is measured against the matrix the numeric phase
        // actually factored — the scaled one when scaling is compiled.
        let max_abs_a = self.max_abs_compiled(a);
        let max_abs_u = ux.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let mut min_pivot = f64::INFINITY;
        let mut max_pivot = 0.0f64;
        for j in 0..self.n {
            let p = ux[self.u_col_ptr[j + 1] - 1].abs();
            min_pivot = min_pivot.min(p);
            max_pivot = max_pivot.max(p);
        }
        let mut min_matched_diag = f64::INFINITY;
        for j in 0..self.n {
            let (r, c) = match &self.baked {
                None => (j, j),
                Some(bp) => (bp.rperm[j], bp.cperm[j]),
            };
            let v = a
                .find(r, c)
                .map_or(0.0, |p| self.scaled_abs(r, c, a.values()[p]));
            min_matched_diag = min_matched_diag.min(v);
        }
        if self.n == 0 {
            min_pivot = 0.0;
            min_matched_diag = 0.0;
        }
        LuHealth {
            max_abs_a,
            max_abs_u,
            growth: if max_abs_a > 0.0 {
                max_abs_u / max_abs_a
            } else {
                0.0
            },
            min_pivot,
            max_pivot,
            min_matched_diag,
        }
    }

    /// Scatter column `j` of the compiled system into a dense
    /// accumulator: `A(:, j)` directly when nothing is baked, or
    /// column `cperm[j]` of the caller's original matrix with rows
    /// mapped through the inverse row map under baked permutations
    /// (`B[i, j] = A[rperm[i], cperm[j]]`). Shared by the per-column
    /// kernel below and the supernodal plan's panel scatter.
    pub(crate) fn scatter_a_column(&self, j: usize, a: &CscMatrix, x: &mut [f64]) {
        // With compiled MC64 scaling, entries are multiplied by
        // dr[row]·dc[col] (original coordinates) as they scatter —
        // the diagonal scaling matrices never materialize. The
        // expression shape `dr·v·dc` (left-to-right) is fixed: the
        // batched kernel evaluates the identical sequence so scaled
        // batch factors stay bitwise equal to one-at-a-time ones.
        match (&self.baked, &self.scaling) {
            (None, None) => {
                for (i, v) in a.col_iter(j) {
                    x[i] = v;
                }
            }
            (None, Some(s)) => {
                let dcj = s.dc[j];
                for (i, v) in a.col_iter(j) {
                    x[i] = s.dr[i] * v * dcj;
                }
            }
            (Some(bp), None) => {
                for (i, v) in a.col_iter(bp.cperm[j]) {
                    x[bp.irperm[i]] = v;
                }
            }
            (Some(bp), Some(s)) => {
                let oc = bp.cperm[j];
                let dcj = s.dc[oc];
                for (i, v) in a.col_iter(oc) {
                    x[bp.irperm[i]] = s.dr[i] * v * dcj;
                }
            }
        }
    }

    /// The per-column numeric solve shared by the serial and parallel
    /// executors: scatter `A(:, j)`, apply the baked update schedule in
    /// topological order, gather `U(:, j)`/`L(:, j)` through the fixed
    /// layouts, and clear the accumulator back to zero. `thresh` is
    /// the absolute pivot-perturbation threshold for this
    /// factorization ([`Self::perturb_threshold`]); a pivot below it
    /// is replaced by the signed threshold and reported as
    /// [`PivotStatus::Perturbed`]. Returns [`PivotStatus::Zero`] on a
    /// zero pivot with perturbation off; the column's values are still
    /// written (division by zero is IEEE-defined), so a parallel
    /// caller may keep going and report the error after the fact.
    ///
    /// Keeping this in one place is what makes the parallel plan
    /// **bitwise deterministic**: every executor performs the exact
    /// same operation sequence per column, whatever the thread count.
    ///
    /// # Safety
    /// `lx` and `ux` must point to the plan's full factor value arrays
    /// (`l_nnz()` / `u_nnz()` elements). The caller must guarantee that
    /// (a) no other thread accesses column `j`'s value ranges during
    /// the call, and (b) every update column scheduled for `j` has been
    /// fully written and synchronized before the call. In-order serial
    /// execution satisfies both trivially; the level-scheduled parallel
    /// executor satisfies them with barrier-separated levels and
    /// per-thread column ownership. `x` must be an all-zeros dense
    /// accumulator of length `n` (restored to zeros before returning).
    pub(crate) unsafe fn column_numeric(
        &self,
        j: usize,
        a: &CscMatrix,
        x: &mut [f64],
        lx: *mut f64,
        ux: *mut f64,
        thresh: f64,
    ) -> PivotStatus {
        // Scatter A(:, j) (fixed pattern, numeric-only). Under a baked
        // ordering, column j of Qᵀ A Q is column perm[j] of the
        // caller's original matrix with rows mapped through Q⁻¹ — the
        // permutation is applied here, inside the scatter the column
        // solve performs anyway, so ordered plans pay zero extra
        // passes over the data.
        self.scatter_a_column(j, a, x);
        // Apply the baked update schedule in topological order.
        for &tagged in &self.upd_cols[self.upd_ptr[j]..self.upd_ptr[j + 1]] {
            let k = (tagged & !PEEL_BIT) as usize;
            let xk = x[k];
            let range = self.l_col_ptr[k] + 1..self.l_col_ptr[k + 1];
            let rows = &self.l_row_idx[range.clone()];
            // SAFETY: column k precedes j in the schedule, so by the
            // caller's contract its values are final and no thread
            // writes them concurrently.
            let vals = std::slice::from_raw_parts(lx.add(range.start), range.len());
            if tagged & PEEL_BIT != 0 {
                // Peeled tier: no zero guard (the reach set
                // guarantees structural work), unrolled by two.
                let mut t = 0;
                while t + 1 < rows.len() {
                    let (r0, r1) = (rows[t] as usize, rows[t + 1] as usize);
                    let (v0, v1) = (vals[t], vals[t + 1]);
                    x[r0] -= v0 * xk;
                    x[r1] -= v1 * xk;
                    t += 2;
                }
                if t < rows.len() {
                    x[rows[t] as usize] -= vals[t] * xk;
                }
            } else if xk != 0.0 {
                for (&r, &v) in rows.iter().zip(vals) {
                    x[r as usize] -= v * xk;
                }
            }
        }
        // Gather U(:, j) through the fixed layout; diagonal last.
        let u_range = self.u_col_ptr[j]..self.u_col_ptr[j + 1];
        for p in u_range.clone() {
            *ux.add(p) = x[self.u_row_idx[p] as usize];
        }
        let mut pivot = *ux.add(u_range.end - 1);
        let mut status = PivotStatus::Clean;
        // Static perturbation: with thresh == 0.0 (perturbation off)
        // the strict `<` can never hold, so this branch compiles to
        // the historical code path bit for bit.
        if pivot.abs() < thresh {
            pivot = if pivot.is_sign_negative() {
                -thresh
            } else {
                thresh
            };
            *ux.add(u_range.end - 1) = pivot;
            status = PivotStatus::Perturbed;
        } else if pivot == 0.0 {
            status = PivotStatus::Zero;
        }
        // Gather L(:, j): unit diagonal, scaled sub-diagonal.
        let l_range = self.l_col_ptr[j]..self.l_col_ptr[j + 1];
        *lx.add(l_range.start) = 1.0;
        for p in l_range.start + 1..l_range.end {
            *lx.add(p) = x[self.l_row_idx[p] as usize] / pivot;
        }
        // Clear the accumulator (touch only the column's pattern).
        for p in u_range {
            x[self.u_row_idx[p] as usize] = 0.0;
        }
        for p in l_range.start + 1..l_range.end {
            x[self.l_row_idx[p] as usize] = 0.0;
        }
        status
    }

    /// Numeric factorization — no DFS, no allocation besides the factor
    /// value arrays and one dense accumulator, no pivot search.
    ///
    /// Allocates a fresh dense accumulator per call; a caller
    /// factoring in a loop (or a serving worker) should hold a
    /// [`LuWorkspace`] and use [`Self::factor_with`] to skip that
    /// `O(n)` allocation. Same-pattern streams go faster still through
    /// [`Self::factor_batch`].
    pub fn factor(&self, a: &CscMatrix) -> Result<LuFactor, LuPlanError> {
        self.factor_with(a, &mut LuWorkspace::new())
    }

    /// [`Self::factor`] against a caller-held [`LuWorkspace`]: the
    /// plan stays immutable (`&self`, freely shared behind an `Arc`
    /// across threads), all mutable per-factorization state lives in
    /// `ws`. Results are bitwise identical to [`Self::factor`] — the
    /// workspace only replaces the accumulator allocation, never the
    /// operation order.
    pub fn factor_with(
        &self,
        a: &CscMatrix,
        ws: &mut LuWorkspace,
    ) -> Result<LuFactor, LuPlanError> {
        self.check_pattern(a)?;
        let n = self.n;
        let mut lx = vec![0.0f64; self.l_row_idx.len()];
        let mut ux = vec![0.0f64; self.u_row_idx.len()];
        let x = ws.ensure(n);
        let thresh = self.perturb_threshold(a);
        let mut perturbed: Vec<usize> = Vec::new();

        // Instrumentation is purely observational (counts baked
        // pattern sizes, touches no numeric state), so profiled and
        // unprofiled runs produce bitwise-identical factors.
        let prof = &*self.profiler;
        let enabled = prof.is_enabled();
        let span = if enabled {
            prof.begin(0, "factor:serial")
        } else {
            None
        };
        let mut flops_done = 0u64;
        let mut scatter_elems = 0u64;
        let mut gather_elems = 0u64;

        for j in 0..n {
            // SAFETY: single-threaded in-order execution — every
            // scheduled update column is already final, and column j's
            // value ranges are written exactly once, here.
            let status =
                unsafe { self.column_numeric(j, a, x, lx.as_mut_ptr(), ux.as_mut_ptr(), thresh) };
            match status {
                PivotStatus::Clean => {}
                PivotStatus::Perturbed => perturbed.push(j),
                PivotStatus::Zero => {
                    prof.end(span);
                    return Err(LuPlanError::ZeroPivot { column: j });
                }
            }
            if enabled {
                flops_done += self.col_flops[j];
                let oc = match &self.baked {
                    None => j,
                    Some(bp) => bp.cperm[j],
                };
                scatter_elems += (self.a_col_ptr[oc + 1] - self.a_col_ptr[oc]) as u64;
                gather_elems += (self.l_col_ptr[j + 1] - self.l_col_ptr[j] + self.u_col_ptr[j + 1]
                    - self.u_col_ptr[j]) as u64;
            }
        }

        if enabled {
            prof.counter("flops.scalar").add(flops_done);
            prof.counter("scalar.scatter_elems").add(scatter_elems);
            prof.counter("scalar.gather_elems").add(gather_elems);
            prof.end_with(span, &[("flops", flops_done as f64)]);
        }
        Ok(self.finish(
            a,
            lx,
            ux,
            PerturbReport {
                columns: perturbed,
                threshold: thresh,
            },
        ))
    }

    /// Factor a batch of **same-pattern** matrices in one fused pass
    /// over the compiled schedule — the structure-of-arrays layout the
    /// serving tier batches for. Factor values and the accumulator are
    /// stored entry-major (`value[p]` holds the batch's `B` copies of
    /// nonzero `p`, contiguously), and the numeric sweep walks columns
    /// once: every schedule entry, row index, and column bound is
    /// decoded **once per batch** instead of once per matrix, and the
    /// inner loop over the batch is unit-stride over adjacent values —
    /// exactly the per-entry bookkeeping the scalar kernel re-pays per
    /// matrix, amortized away.
    ///
    /// Per matrix, the arithmetic sequence is exactly [`Self::factor`]'s
    /// (same operations, same order — lanes are fully independent), so
    /// every returned factor is **bitwise identical** to factoring
    /// that matrix alone. The batch is all-or-nothing: the first zero
    /// pivot (in column order, then batch order) aborts with a
    /// [`BatchError`] naming the offending matrix and no factors are
    /// returned.
    ///
    /// ```
    /// use sympiler_core::plan::lu::LuPlan;
    /// use sympiler_sparse::gen;
    ///
    /// let a = gen::circuit_unsym(40, 4, 2, 7);
    /// let plan = LuPlan::build(&a, true, 2)?;
    ///
    /// // Three same-pattern matrices with different values.
    /// let mut mats = vec![a.clone(), a.clone(), a.clone()];
    /// for (k, m) in mats.iter_mut().enumerate() {
    ///     for v in m.values_mut() {
    ///         *v *= 1.0 + 0.25 * k as f64;
    ///     }
    /// }
    /// let refs: Vec<&_> = mats.iter().collect();
    /// let factors = plan.factor_batch(&refs)?;
    ///
    /// // Bitwise identical to the one-at-a-time loop.
    /// for (m, f) in mats.iter().zip(&factors) {
    ///     let single = plan.factor(m)?;
    ///     assert_eq!(single.l().values(), f.l().values());
    ///     assert_eq!(single.u().values(), f.u().values());
    /// }
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn factor_batch(&self, mats: &[&CscMatrix]) -> Result<Vec<LuFactor>, BatchError> {
        for (b, a) in mats.iter().enumerate() {
            self.check_pattern(a)
                .map_err(|error| BatchError { index: b, error })?;
        }
        let bsz = mats.len();
        if bsz == 0 {
            return Ok(Vec::new());
        }
        let n = self.n;
        let l_nnz = self.l_row_idx.len();
        let u_nnz = self.u_row_idx.len();
        // Entry-major SoA arenas: slot `p * bsz + b` is nonzero `p` of
        // matrix `b`. The accumulator interleaves the same way.
        let mut lxs = vec![0.0f64; l_nnz * bsz];
        let mut uxs = vec![0.0f64; u_nnz * bsz];
        let mut x = vec![0.0f64; n * bsz];
        // The multiplier row of the update being applied (x[k] may
        // itself still accumulate later updates of a *different*
        // column, but reads and writes within one update never alias —
        // copying it out keeps the borrow checker and the kernel both
        // simple).
        let mut xk = vec![0.0f64; bsz];
        let mut failed: Option<(usize, usize)> = None; // (column, batch)
                                                       // Per-lane perturbation thresholds (all 0.0 — and therefore
                                                       // bitwise inert — when perturbation is off).
        let threshs: Vec<f64> = mats.iter().map(|m| self.perturb_threshold(m)).collect();
        let mut perturbed: Vec<Vec<usize>> = vec![Vec::new(); bsz];

        let prof = &*self.profiler;
        let enabled = prof.is_enabled();
        let span = if enabled {
            prof.begin(0, "factor:batch")
        } else {
            None
        };

        // The sweep mirrors `column_numeric` with raw pointers (the
        // safe-slicing version re-pays a bounds check per entry per
        // lane group, which is exactly the bookkeeping batching exists
        // to amortize). SAFETY throughout: all offsets come from the
        // compiled layouts, which index `n` lanes of width `bsz` in
        // arenas allocated above with those exact extents; `check_
        // pattern` pinned every matrix to the compiled `a` layout, so
        // `a_col_ptr`/`a_row_idx` positions are in range for each
        // `m.values()`; update reads (`lxs` columns k < j) never alias
        // update writes (`x` lanes), and each factor slot is written
        // exactly once, in column order.
        let xp = x.as_mut_ptr();
        let lxp = lxs.as_mut_ptr();
        let uxp = uxs.as_mut_ptr();
        let xkp = xk.as_mut_ptr();
        let mvals: Vec<*const f64> = mats.iter().map(|m| m.values().as_ptr()).collect();
        'columns: for j in 0..n {
            unsafe {
                // Scatter A(:, j) of every matrix: indices (and any
                // baked permutation lookups) resolved once, values
                // fanned out to the batch lanes.
                let (oc, irperm) = match &self.baked {
                    None => (j, None),
                    Some(bp) => (bp.cperm[j], Some(&bp.irperm)),
                };
                match &self.scaling {
                    None => {
                        for p in self.a_col_ptr[oc]..self.a_col_ptr[oc + 1] {
                            let i = self.a_row_idx[p] as usize;
                            let i = irperm.map_or(i, |ip| ip[i]);
                            let lane = xp.add(i * bsz);
                            for (b, m) in mvals.iter().enumerate() {
                                *lane.add(b) = *m.add(p);
                            }
                        }
                    }
                    Some(s) => {
                        // Same `dr·v·dc` expression shape as
                        // `scatter_a_column` — scaled lanes stay
                        // bitwise equal to one-at-a-time factors.
                        let dcj = s.dc[oc];
                        for p in self.a_col_ptr[oc]..self.a_col_ptr[oc + 1] {
                            let oi = self.a_row_idx[p] as usize;
                            let dri = s.dr[oi];
                            let i = irperm.map_or(oi, |ip| ip[oi]);
                            let lane = xp.add(i * bsz);
                            for (b, m) in mvals.iter().enumerate() {
                                *lane.add(b) = dri * *m.add(p) * dcj;
                            }
                        }
                    }
                }
                // Apply the baked update schedule in topological order.
                for &tagged in &self.upd_cols[self.upd_ptr[j]..self.upd_ptr[j + 1]] {
                    let k = (tagged & !PEEL_BIT) as usize;
                    std::ptr::copy_nonoverlapping(xp.add(k * bsz) as *const f64, xkp, bsz);
                    let range = self.l_col_ptr[k] + 1..self.l_col_ptr[k + 1];
                    let rows = &self.l_row_idx[range.clone()];
                    // The peeled tier runs unguarded; the guarded tier
                    // skips zero multipliers per lane — either way each
                    // lane performs exactly the scalar kernel's
                    // operations in the scalar kernel's order (lanes
                    // are independent, so batch interleaving cannot
                    // change any lane's arithmetic). The all-lanes-live
                    // fast path drops the inner branch and vectorizes.
                    let peeled = tagged & PEEL_BIT != 0;
                    let all_live = peeled || xk.iter().all(|&v| v != 0.0);
                    let base = lxp.add(range.start * bsz) as *const f64;
                    for (t, &r) in rows.iter().enumerate() {
                        let src = base.add(t * bsz);
                        let dst = xp.add(r as usize * bsz);
                        if all_live {
                            for b in 0..bsz {
                                *dst.add(b) -= *src.add(b) * *xkp.add(b);
                            }
                        } else {
                            for b in 0..bsz {
                                let m = *xkp.add(b);
                                if m != 0.0 {
                                    *dst.add(b) -= *src.add(b) * m;
                                }
                            }
                        }
                    }
                }
                // Gather U(:, j); diagonal (pivot) last.
                let u_range = self.u_col_ptr[j]..self.u_col_ptr[j + 1];
                for p in u_range.clone() {
                    let lane = xp.add(self.u_row_idx[p] as usize * bsz) as *const f64;
                    std::ptr::copy_nonoverlapping(lane, uxp.add(p * bsz), bsz);
                }
                let piv = uxp.add((u_range.end - 1) * bsz);
                for (b, &t) in threshs.iter().enumerate() {
                    let p = *piv.add(b);
                    if p.abs() < t {
                        *piv.add(b) = if p.is_sign_negative() { -t } else { t };
                        perturbed[b].push(j);
                    } else if p == 0.0 {
                        failed = Some((j, b));
                        break 'columns;
                    }
                }
                // Gather L(:, j): unit diagonal, sub-diagonal scaled
                // by each lane's pivot.
                let l_range = self.l_col_ptr[j]..self.l_col_ptr[j + 1];
                for b in 0..bsz {
                    *lxp.add(l_range.start * bsz + b) = 1.0;
                }
                for p in l_range.start + 1..l_range.end {
                    let lane = xp.add(self.l_row_idx[p] as usize * bsz) as *const f64;
                    let dst = lxp.add(p * bsz);
                    for b in 0..bsz {
                        *dst.add(b) = *lane.add(b) / *piv.add(b);
                    }
                }
                // Clear the accumulator (touch only the column's
                // pattern).
                for p in u_range {
                    let lane = xp.add(self.u_row_idx[p] as usize * bsz);
                    std::slice::from_raw_parts_mut(lane, bsz).fill(0.0);
                }
                for p in l_range.start + 1..l_range.end {
                    let lane = xp.add(self.l_row_idx[p] as usize * bsz);
                    std::slice::from_raw_parts_mut(lane, bsz).fill(0.0);
                }
            }
        }

        if let Some((column, index)) = failed {
            prof.end(span);
            return Err(BatchError {
                index,
                error: LuPlanError::ZeroPivot { column },
            });
        }

        if enabled {
            let flops_done = self.flops * bsz as u64;
            prof.counter("flops.scalar").add(flops_done);
            prof.counter("batch.matrices").add(bsz as u64);
            prof.end_with(span, &[("flops", flops_done as f64), ("batch", bsz as f64)]);
        }

        // De-interleave the lanes into per-matrix factors. Tiled
        // transpose: a naive per-matrix `lxs[p*bsz + b]` gather streams
        // the whole arena once per lane (bsz× the traffic); walking
        // entry tiles that fit in cache reads each arena line once.
        let deinterleave = |arena: &[f64], nnz: usize| -> Vec<Vec<f64>> {
            const TILE: usize = 1024;
            let mut cols: Vec<Vec<f64>> = (0..bsz).map(|_| Vec::with_capacity(nnz)).collect();
            let mut p0 = 0;
            while p0 < nnz {
                let p1 = (p0 + TILE).min(nnz);
                for (b, col) in cols.iter_mut().enumerate() {
                    col.extend((p0..p1).map(|p| arena[p * bsz + b]));
                }
                p0 = p1;
            }
            cols
        };
        let lx_cols = deinterleave(&lxs, l_nnz);
        let ux_cols = deinterleave(&uxs, u_nnz);
        let out = mats
            .iter()
            .zip(lx_cols.into_iter().zip(ux_cols))
            .zip(perturbed.into_iter().zip(threshs))
            .map(|((a, (lx, ux)), (columns, threshold))| {
                self.finish(a, lx, ux, PerturbReport { columns, threshold })
            })
            .collect();
        Ok(out)
    }

    /// Resident size, in bytes, of the compiled tables this plan keeps
    /// alive: factor layouts, the baked update schedule, the pattern
    /// copy backing [`Self::factor`]'s cheap pattern check, permutation
    /// maps, and the per-column cost model. This is the footprint a
    /// plan cache charges an entry for — factor *values* are per-call
    /// and not counted.
    pub fn table_bytes(&self) -> usize {
        use std::mem::size_of;
        let usz = size_of::<usize>();
        let mut bytes = (self.l_col_ptr.len() + self.u_col_ptr.len() + self.upd_ptr.len()) * usz
            + self.a_col_ptr.len() * usz
            + (self.l_row_idx.len() + self.u_row_idx.len() + self.upd_cols.len()) * 4
            + self.a_row_idx.len() * 4
            + self.col_flops.len() * 8;
        if self.baked.is_some() {
            // rperm + irperm + cperm, each n usizes.
            bytes += 3 * self.n * usz;
        }
        if self.scaling.is_some() {
            // Dr + Dc, each n f64s.
            bytes += 2 * self.n * 8;
        }
        bytes
    }

    /// Per-column cost model for balancing the parallel numeric phase:
    /// the column's exact flops plus its pattern size (memory traffic
    /// of the scatter/gather), so structurally trivial columns still
    /// carry nonzero weight.
    pub(crate) fn per_column_costs(&self) -> Vec<u64> {
        (0..self.n)
            .map(|j| {
                let l_nnz = (self.l_col_ptr[j + 1] - self.l_col_ptr[j]) as u64;
                let u_nnz = (self.u_col_ptr[j + 1] - self.u_col_ptr[j]) as u64;
                let mut c = l_nnz + u_nnz + (l_nnz - 1);
                for k in self.schedule(j) {
                    c += 2 * (self.l_col_ptr[k + 1] - self.l_col_ptr[k] - 1) as u64;
                }
                c
            })
            .collect()
    }

    /// Column panels of the predicted `L` for the supernodal tier:
    /// adjacent columns whose patterns nest, `max_panel` capping the
    /// width (0 = unlimited), then CHOLMOD/SuperLU-style **relaxed
    /// amalgamation** of nearly nesting neighbours while the merged
    /// width stays within `relax_cols` and the explicit zeros the
    /// merged trapezoid carries stay within the `relax_fill` budget
    /// ([`sympiler_graph::lu_supernode::supernodes_lu_relaxed_from_parts`]).
    /// `relax_fill <= 0` or `relax_cols < 2` yields exactly the strict
    /// partition.
    pub fn panels(
        &self,
        max_panel: usize,
        relax_fill: f64,
        relax_cols: usize,
    ) -> sympiler_graph::lu_supernode::LuPanels {
        sympiler_graph::lu_supernode::supernodes_lu_relaxed_from_parts(
            self.n,
            &self.l_col_ptr,
            &self.l_row_idx,
            max_panel,
            relax_fill,
            relax_cols,
        )
    }

    /// Emit the matrix-specialized C factorization kernel (the LU
    /// analogue of Figure 1e, via the `emit/c.rs` path). Like
    /// [`Self::factor`], the emitted kernel takes the **original**
    /// matrix: under baked permutations it embeds the column-gather
    /// (`cperm`) and inverse-row (`irperm`) tables and permutes inside
    /// its scatter — one artifact for pre-pivot, ordering, or both.
    pub fn emit_c(&self) -> String {
        let l_pattern = CscMatrix::from_parts_unchecked(
            self.n,
            self.n,
            self.l_col_ptr.clone(),
            self.l_row_idx.iter().map(|&r| r as usize).collect(),
            vec![1.0; self.l_row_idx.len()],
        );
        let schedules: Vec<Vec<(usize, bool)>> = (0..self.n)
            .map(|j| self.schedule_with_tiers(j).collect())
            .collect();
        let perm = self.baked.as_ref().map(|b| (&b.cperm[..], &b.irperm[..]));
        let scaling = self.scaling.as_ref().map(|s| (&s.dr[..], &s.dc[..]));
        crate::emit::emit_lu_c(&l_pattern, &self.u_col_ptr, &schedules, perm, scaling)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympiler_solvers::lu::{GpLu, Pivoting};
    use sympiler_sparse::{gen, ops};

    fn check_against_baseline(a: &CscMatrix) {
        let plan = LuPlan::build(a, true, 2).unwrap();
        let f = plan.factor(a).unwrap();
        let base = GpLu::factor(a, Pivoting::None).unwrap();
        assert!(f.l().same_pattern(&base.l), "L pattern");
        assert!(f.u().same_pattern(&base.u), "U pattern");
        for (p, q) in f.l().values().iter().zip(base.l.values()) {
            assert!((p - q).abs() < 1e-10, "L value {p} vs {q}");
        }
        for (p, q) in f.u().values().iter().zip(base.u.values()) {
            assert!((p - q).abs() < 1e-10, "U value {p} vs {q}");
        }
    }

    #[test]
    fn plan_reproduces_baseline_factors() {
        for seed in 0..6u64 {
            check_against_baseline(&gen::circuit_unsym(40, 3, 2, seed));
            check_against_baseline(&gen::random_unsym(35, 4, seed + 100));
        }
        check_against_baseline(&gen::convection_diffusion_2d(7, 6, 1.5, 3));
    }

    #[test]
    fn factor_solve_has_small_residual() {
        let a = gen::convection_diffusion_2d(8, 8, 2.0, 5);
        let plan = LuPlan::build(&a, true, 2).unwrap();
        let f = plan.factor(&a).unwrap();
        let n = a.n_cols();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 4) as f64).collect();
        let x = f.solve(&b);
        assert!(ops::rel_residual(&a, &x, &b) < 1e-12);
        assert!(f.det_magnitude() > 0.0);
    }

    #[test]
    fn repeated_factorization_with_changing_values() {
        // The core premise: one compile, many numeric factorizations.
        let a0 = gen::circuit_unsym(50, 4, 2, 7);
        let plan = LuPlan::build(&a0, true, 2).unwrap();
        let mut a = a0.clone();
        for round in 1..=4 {
            for v in a.values_mut() {
                *v *= 1.0 + 0.05 / round as f64;
            }
            let f = plan.factor(&a).unwrap();
            let base = GpLu::factor(&a, Pivoting::None).unwrap();
            for (p, q) in f.u().values().iter().zip(base.u.values()) {
                assert!((p - q).abs() < 1e-9, "round {round}");
            }
        }
    }

    #[test]
    fn pattern_mismatch_rejected() {
        let a = gen::random_unsym(20, 3, 1);
        let plan = LuPlan::build(&a, true, 2).unwrap();
        let other = gen::random_unsym(20, 3, 2);
        assert!(matches!(
            plan.factor(&other),
            Err(LuPlanError::PatternMismatch)
        ));
        let smaller = gen::random_unsym(10, 3, 1);
        assert!(matches!(
            plan.factor(&smaller),
            Err(LuPlanError::PatternMismatch)
        ));
    }

    #[test]
    fn zero_pivot_reported() {
        let mut t = sympiler_sparse::TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 1, 1.0);
        let a0 = t.to_csc().unwrap();
        let plan = LuPlan::build(&a0, true, 2).unwrap();
        let mut a = a0.clone();
        a.values_mut()[1] = 0.0;
        assert!(matches!(
            plan.factor(&a),
            Err(LuPlanError::ZeroPivot { column: 1 })
        ));
    }

    #[test]
    fn low_level_tier_fires_and_stays_correct() {
        // Heavy columns appear once fill cascades.
        let a = gen::convection_diffusion_2d(9, 9, 1.0, 2);
        let full = LuPlan::build(&a, true, 2).unwrap();
        assert!(full.n_peeled() > 0, "expected peeled updates");
        let plain = LuPlan::build(&a, false, 2).unwrap();
        assert_eq!(plain.n_peeled(), 0);
        let f1 = full.factor(&a).unwrap();
        let f2 = plain.factor(&a).unwrap();
        for (p, q) in f1.u().values().iter().zip(f2.u().values()) {
            assert!((p - q).abs() < 1e-12);
        }
    }

    #[test]
    fn flops_match_symbolic() {
        let a = gen::circuit_unsym(30, 3, 1, 4);
        let plan = LuPlan::build(&a, true, 2).unwrap();
        let sym = sympiler_graph::lu_symbolic(&a);
        assert_eq!(plan.flops(), sym.factor_flops());
        assert_eq!(plan.n_updates(), sym.reach_cols.len());
        assert!(plan.report().total().as_nanos() > 0);
        assert_eq!(plan.report().size_of("nnz(L)"), Some(sym.l_nnz()));
    }

    #[test]
    fn ordered_plan_matches_baseline_on_permuted_matrix() {
        // An ordered plan factors Qᵀ A Q; GPLU handed that matrix
        // directly must produce the same factors to 1e-10.
        for ordering in [Ordering::Rcm, Ordering::Colamd] {
            for seed in 0..3u64 {
                let a = gen::circuit_unsym(50, 4, 2, seed);
                let plan = LuPlan::build_ordered(&a, true, 2, ordering).unwrap();
                let f = plan.factor(&a).unwrap();
                let perm = plan.col_perm().expect("non-natural ordering");
                let b = ops::permute_rows_cols(&a, perm).unwrap();
                let base = GpLu::factor(&b, Pivoting::None).unwrap();
                assert!(f.l().same_pattern(&base.l), "{ordering:?} L pattern");
                assert!(f.u().same_pattern(&base.u), "{ordering:?} U pattern");
                for (p, q) in f.u().values().iter().zip(base.u.values()) {
                    assert!((p - q).abs() < 1e-10, "{ordering:?} value drift");
                }
            }
        }
    }

    #[test]
    fn ordered_factor_solves_original_system() {
        // factor() takes the original matrix and solve() speaks
        // original coordinates — the permutation is invisible outside.
        let a = gen::circuit_unsym(60, 4, 2, 5);
        let n = a.n_cols();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let natural = LuPlan::build(&a, true, 2).unwrap();
        let x_nat = natural.factor(&a).unwrap().solve(&b);
        for ordering in [Ordering::Rcm, Ordering::Colamd] {
            let plan = LuPlan::build_ordered(&a, true, 2, ordering).unwrap();
            let f = plan.factor(&a).unwrap();
            let x = f.solve(&b);
            assert!(
                ops::rel_residual(&a, &x, &b) < 1e-12,
                "{ordering:?} residual"
            );
            for (p, q) in x.iter().zip(&x_nat) {
                assert!((p - q).abs() < 1e-9, "{ordering:?}: {p} vs {q}");
            }
        }
    }

    #[test]
    fn colamd_plan_reduces_fill_and_flops_on_circuits() {
        let a = gen::circuit_unsym(200, 4, 2, 9);
        let natural = LuPlan::build(&a, true, 2).unwrap();
        let ordered = LuPlan::build_ordered(&a, true, 2, Ordering::Colamd).unwrap();
        assert!(
            ordered.l_nnz() + ordered.u_nnz() < natural.l_nnz() + natural.u_nnz(),
            "colamd must cut fill: {} vs {}",
            ordered.l_nnz() + ordered.u_nnz(),
            natural.l_nnz() + natural.u_nnz()
        );
        assert!(ordered.flops() < natural.flops());
        assert!(ordered.fill_ratio() < natural.fill_ratio());
        assert_eq!(ordered.ordering(), Ordering::Colamd);
        assert_eq!(natural.col_perm(), None);
    }

    #[test]
    fn ordered_plan_checks_original_pattern() {
        // The compiled-pattern contract is stated on the matrix the
        // caller compiled, not its permuted image.
        let a = gen::random_unsym(40, 3, 3);
        let plan = LuPlan::build_ordered(&a, true, 2, Ordering::Colamd).unwrap();
        assert!(plan.factor(&a).is_ok());
        let perm = plan.col_perm().unwrap();
        assert!(
            perm.iter().enumerate().any(|(new, &old)| new != old),
            "this pattern must not order to the identity"
        );
        let permuted = ops::permute_rows_cols(&a, perm).unwrap();
        assert!(matches!(
            plan.factor(&permuted),
            Err(LuPlanError::PatternMismatch)
        ));
    }

    #[test]
    fn solve_sparse_matches_dense_solve() {
        for ordering in [Ordering::Natural, Ordering::Rcm, Ordering::Colamd] {
            for seed in 0..4u64 {
                let a = gen::circuit_unsym(80, 4, 2, seed);
                let n = a.n_cols();
                let plan = LuPlan::build_ordered(&a, true, 2, ordering).unwrap();
                let f = plan.factor(&a).unwrap();
                // A sparse RHS with a handful of scattered entries.
                let idx: Vec<usize> = (0..n)
                    .filter(|i| (i * 13 + seed as usize).is_multiple_of(29))
                    .collect();
                let vals: Vec<f64> = idx.iter().map(|&i| 1.0 + (i % 5) as f64).collect();
                let b = SparseVec::try_new(n, idx, vals).unwrap();
                let xs = f.solve_sparse(&b);
                let xd = f.solve(&b.to_dense());
                // Every dense-solve nonzero must appear in the sparse
                // pattern, and stored values must agree.
                let dense_of_sparse = xs.to_dense();
                for i in 0..n {
                    assert!(
                        (dense_of_sparse[i] - xd[i]).abs() < 1e-11,
                        "{ordering:?} seed {seed} row {i}: {} vs {}",
                        dense_of_sparse[i],
                        xd[i]
                    );
                }
                // The pattern is the structural reach: no index may be
                // *missing* where the dense solve is materially nonzero.
                for i in 0..n {
                    if xd[i].abs() > 1e-9 {
                        assert!(
                            xs.indices().binary_search(&i).is_ok(),
                            "{ordering:?} seed {seed}: nonzero row {i} missing from sparse pattern"
                        );
                    }
                }
                assert!(
                    xs.nnz() <= n,
                    "pattern is a subset of the dimension by construction"
                );
            }
        }
    }

    #[test]
    fn solve_sparse_touches_only_the_reach_on_chains() {
        // Bidiagonal L-shaped system: b = e_k solves to a suffix
        // pattern; earlier rows must not appear.
        let n = 12;
        let mut t = sympiler_sparse::TripletMatrix::new(n, n);
        for j in 0..n {
            t.push(j, j, 2.0);
            if j + 1 < n {
                t.push(j + 1, j, -1.0);
            }
        }
        let a = t.to_csc().unwrap();
        let plan = LuPlan::build(&a, true, 2).unwrap();
        let f = plan.factor(&a).unwrap();
        let b = SparseVec::try_new(n, vec![7], vec![3.0]).unwrap();
        let x = f.solve_sparse(&b);
        assert!(
            x.indices().iter().all(|&i| i >= 7),
            "lower-bidiagonal reach of e_7 is the suffix, got {:?}",
            x.indices()
        );
        let xd = f.solve(&b.to_dense());
        for (i, v) in x.iter() {
            assert!((v - xd[i]).abs() < 1e-13);
        }
    }

    #[test]
    fn prepivoted_plan_matches_baseline_on_composed_matrix() {
        // A pre-pivoted (and possibly ordered) plan factors Qᵀ·P·A·Q;
        // GPLU handed that matrix directly must produce the same
        // factors to 1e-10. Also checks the composed-map accessors.
        for ordering in [Ordering::Natural, Ordering::Rcm, Ordering::Colamd] {
            for pre_pivot in [PrePivot::Transversal, PrePivot::WeightedMatching] {
                for seed in 0..2u64 {
                    let a = gen::circuit_zero_diag(60, 4, 2, seed);
                    let plan = LuPlan::build_pivoted(&a, true, 2, ordering, pre_pivot).unwrap();
                    assert_eq!(plan.pre_pivot(), pre_pivot);
                    assert_eq!(plan.matched_diagonals(), 60, "matching must cover all");
                    assert!(plan.moved_rows() > 0, "zero diagonals force row moves");
                    let rperm = plan.row_perm().expect("row map baked");
                    let cperm: Vec<usize> = match plan.col_perm() {
                        Some(q) => q.to_vec(),
                        None => (0..60).collect(),
                    };
                    let f = plan.factor(&a).unwrap();
                    let b = ops::permute_general(&a, rperm, &cperm).unwrap();
                    let base = GpLu::factor(&b, Pivoting::None).unwrap();
                    assert!(f.l().same_pattern(&base.l), "{ordering:?}+{pre_pivot:?} L");
                    assert!(f.u().same_pattern(&base.u), "{ordering:?}+{pre_pivot:?} U");
                    // Relative tolerance: the pattern-only transversal
                    // may pivot on small entries, so factor values can
                    // grow — agreement is per-value relative, like the
                    // supernodal tier's contract.
                    for (p, q) in f.u().values().iter().zip(base.u.values()) {
                        assert!(
                            (p - q).abs() < 1e-10 * (1.0 + q.abs()),
                            "{ordering:?}+{pre_pivot:?} drift: {p} vs {q}"
                        );
                    }
                    // And the solve speaks original coordinates.
                    let rhs: Vec<f64> = (0..60).map(|i| 1.0 + (i % 5) as f64).collect();
                    let x = f.solve(&rhs);
                    assert!(ops::rel_residual(&a, &x, &rhs) < 1e-10);
                }
            }
        }
    }

    #[test]
    fn off_on_zero_diag_fails_numerically_prepivot_succeeds() {
        // The historical contract: without a pre-pivot the plan
        // compiles (the symbolic phase forces the diagonal slot) and
        // the numeric phase hits the structural zero. With one, it
        // factors.
        let a = gen::circuit_zero_diag(40, 4, 1, 3);
        let off = LuPlan::build(&a, true, 2).unwrap();
        assert!(off.matched_diagonals() < 40, "Off must report the gap");
        assert!(matches!(off.factor(&a), Err(LuPlanError::ZeroPivot { .. })));
        let on =
            LuPlan::build_pivoted(&a, true, 2, Ordering::Natural, PrePivot::Transversal).unwrap();
        assert!(on.factor(&a).is_ok());
    }

    #[test]
    fn identity_fast_path_bakes_nothing() {
        // Zero-free diagonal + Transversal: the matching is the
        // identity, so the plan must carry no permutation at all and
        // produce the exact plan Off would.
        let a = gen::circuit_unsym(50, 4, 2, 9);
        let plan =
            LuPlan::build_pivoted(&a, true, 2, Ordering::Natural, PrePivot::Transversal).unwrap();
        assert!(plan.row_perm().is_none(), "identity matching bakes no map");
        assert_eq!(plan.moved_rows(), 0);
        assert_eq!(plan.matched_diagonals(), 50);
        let off = LuPlan::build(&a, true, 2).unwrap();
        let (f1, f2) = (plan.factor(&a).unwrap(), off.factor(&a).unwrap());
        for (x, y) in f1.u().values().iter().zip(f2.u().values()) {
            assert_eq!(x.to_bits(), y.to_bits(), "fast path must be a no-op");
        }
    }

    #[test]
    fn structurally_singular_is_a_compile_error() {
        // Two columns sharing one row: no perfect matching exists, so
        // compilation must fail with the typed diagnosis — the numeric
        // phase is never reached.
        let mut t = sympiler_sparse::TripletMatrix::new(3, 3);
        t.push(0, 0, 1.0);
        t.push(0, 1, 2.0);
        t.push(1, 2, 3.0);
        t.push(2, 2, 4.0);
        let a = t.to_csc().unwrap();
        for pre_pivot in [PrePivot::Transversal, PrePivot::WeightedMatching] {
            let err = LuPlan::build_pivoted(&a, true, 2, Ordering::Natural, pre_pivot).unwrap_err();
            assert_eq!(
                err,
                LuPlanError::StructurallySingular {
                    n: 3,
                    structural_rank: 2
                },
                "{pre_pivot:?}"
            );
        }
        // Off still compiles — and fails only at the numeric phase.
        let off = LuPlan::build(&a, true, 2).unwrap();
        assert!(matches!(off.factor(&a), Err(LuPlanError::ZeroPivot { .. })));
    }

    #[test]
    fn prepivoted_solve_sparse_matches_dense_solve() {
        for pre_pivot in [PrePivot::Transversal, PrePivot::WeightedMatching] {
            let a = gen::circuit_zero_diag(70, 4, 2, 11);
            let plan = LuPlan::build_pivoted(&a, true, 2, Ordering::Colamd, pre_pivot).unwrap();
            let f = plan.factor(&a).unwrap();
            let idx: Vec<usize> = (0..70).filter(|i| i % 17 == 3).collect();
            let vals: Vec<f64> = idx.iter().map(|&i| 1.0 + (i % 3) as f64).collect();
            let b = SparseVec::try_new(70, idx, vals).unwrap();
            let xs = f.solve_sparse(&b).to_dense();
            let xd = f.solve(&b.to_dense());
            for i in 0..70 {
                assert!(
                    (xs[i] - xd[i]).abs() < 1e-11,
                    "{pre_pivot:?} row {i}: {} vs {}",
                    xs[i],
                    xd[i]
                );
            }
        }
    }

    #[test]
    fn trivial_systems() {
        // 1x1.
        let mut t = sympiler_sparse::TripletMatrix::new(1, 1);
        t.push(0, 0, 4.0);
        let a = t.to_csc().unwrap();
        let plan = LuPlan::build(&a, true, 2).unwrap();
        let f = plan.factor(&a).unwrap();
        assert_eq!(f.solve(&[8.0]), vec![2.0]);
        // Diagonal.
        let d = CscMatrix::identity(5);
        let plan = LuPlan::build(&d, true, 2).unwrap();
        let f = plan.factor(&d).unwrap();
        assert_eq!(plan.n_updates(), 0);
        assert_eq!(
            f.solve(&[1.0, 2.0, 3.0, 4.0, 5.0]),
            vec![1.0, 2.0, 3.0, 4.0, 5.0]
        );
    }
}
