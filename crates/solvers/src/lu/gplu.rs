//! Left-looking Gilbert–Peierls sparse LU (the algorithm of
//! "Sparse partial pivoting in time proportional to arithmetic
//! operations", Gilbert & Peierls 1988) — the runtime baseline whose
//! symbolic phase (per-column DFS) re-runs inside **every** numeric
//! factorization, the coupling Sympiler's compiled LU plan removes.
//!
//! Column `j` is produced by solving `L(:, 0:j-1) x = A(:, j)` with the
//! already-computed columns: the solution pattern is the reach of
//! `SP(A(:,j))` on the dependence graph of `L`, computed here by DFS at
//! run time. Row indices are kept in **original** coordinates during
//! factorization (pivoting permutes rows lazily via `pinv`); the final
//! factors are re-mapped and sorted into permuted coordinates, so `L`
//! is unit lower triangular with diagonal-first columns and `U` upper
//! triangular with diagonal-last columns, satisfying
//! `P A = L U` with `P` the returned row permutation.

use sympiler_sparse::ops::max_nan;
use sympiler_sparse::CscMatrix;

/// Pivoting strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pivoting {
    /// Static diagonal pivoting — the fixed-pattern regime Sympiler
    /// compiles for. Fails with [`LuError::ZeroPivot`] when a diagonal
    /// entry is structurally or numerically zero.
    None,
    /// Classic partial pivoting: choose the largest-magnitude candidate
    /// row. Used as the numerical verification mode for workloads where
    /// static pivoting is assumed safe.
    Partial,
}

/// LU factorization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LuError {
    /// Bad input shape.
    BadInput(String),
    /// No admissible pivot at this column (structural or numeric zero).
    ZeroPivot { column: usize },
    /// A pre-pivot was requested but the pattern has no perfect
    /// row/column matching — no row permutation can make any pivoting
    /// strategy work (see
    /// [`sympiler_sparse::SparseError::StructurallySingular`]).
    StructurallySingular {
        /// Matrix order.
        n: usize,
        /// Size of the maximum matching (`< n`).
        structural_rank: usize,
    },
}

impl std::fmt::Display for LuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LuError::BadInput(m) => write!(f, "bad input: {m}"),
            LuError::ZeroPivot { column } => {
                write!(f, "zero pivot at column {column}")
            }
            LuError::StructurallySingular { n, structural_rank } => write!(
                f,
                "structurally singular: maximum matching covers \
                 {structural_rank} of {n} columns"
            ),
        }
    }
}

impl std::error::Error for LuError {}

/// The factors of `P A = L U`.
#[derive(Debug, Clone)]
pub struct GpLuFactors {
    /// Unit lower triangular (diagonal-first columns, value 1.0), in
    /// permuted row coordinates.
    pub l: CscMatrix,
    /// Upper triangular (diagonal-last columns).
    pub u: CscMatrix,
    /// Row permutation: `row_perm[new] = old`, i.e. `(P A)[new, :] =
    /// A[row_perm[new], :]`.
    pub row_perm: Vec<usize>,
}

impl GpLuFactors {
    /// Matrix order.
    pub fn n(&self) -> usize {
        self.l.n_cols()
    }

    /// True when no rows were actually exchanged.
    pub fn is_identity_perm(&self) -> bool {
        self.row_perm.iter().enumerate().all(|(k, &p)| k == p)
    }

    /// Solve `A x = b` through `P b -> L y = P b -> U x = y`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n(), "rhs length mismatch");
        let mut x: Vec<f64> = self.row_perm.iter().map(|&old| b[old]).collect();
        crate::trisolve::naive_forward(&self.l, &mut x);
        crate::trisolve::naive_backward_upper(&self.u, &mut x);
        x
    }

    /// Determinant of `A` up to the permutation sign: the product of
    /// `U`'s diagonal (L's diagonal is unit).
    pub fn det_magnitude(&self) -> f64 {
        (0..self.n())
            .map(|j| {
                let vals = self.u.col_values(j);
                vals[vals.len() - 1].abs()
            })
            .product()
    }
}

/// Solve `A x = b` given precomputed factors (free-function form of
/// [`GpLuFactors::solve`] for call sites that read better with one).
pub fn lu_solve(f: &GpLuFactors, b: &[f64]) -> Vec<f64> {
    f.solve(b)
}

/// [`GpLuFactors`] under a fill-reducing ordering: the factors satisfy
/// `P (Qᵀ A Q) = L U`, and [`Self::solve`] maps between the original
/// coordinates of `A` and the ordered coordinates of the factors.
///
/// This is the runtime baseline's half of the ordering story: the
/// compiled plan (`sympiler-core`) bakes the same `Q` at compile time,
/// so with both engines ordered identically, the measured gap is the
/// decoupling win alone — apples to apples.
#[derive(Debug, Clone)]
pub struct OrderedGpLuFactors {
    /// Factors of the symmetrically permuted matrix `Qᵀ A Q`.
    pub factors: GpLuFactors,
    /// `col_perm[new] = old`; `None` under
    /// [`sympiler_graph::ordering::Ordering::Natural`], in which case
    /// the factors are plainly those of `A`.
    pub col_perm: Option<Vec<usize>>,
}

impl OrderedGpLuFactors {
    /// Matrix order.
    pub fn n(&self) -> usize {
        self.factors.n()
    }

    /// Solve `A x = b` in original coordinates: gather `b` into
    /// ordered coordinates, run the factors' permuted solve, scatter
    /// the result back.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        match &self.col_perm {
            None => self.factors.solve(b),
            Some(q) => {
                let bq = sympiler_sparse::ops::gather_perm(q, b);
                let y = self.factors.solve(&bq);
                sympiler_sparse::ops::scatter_perm(q, &y)
            }
        }
    }
}

impl GpLu {
    /// Factor `a` under a fill-reducing ordering from the same
    /// [`sympiler_graph::ordering::Ordering`] knob the compiled
    /// pipeline uses: compute `Q`, form `Qᵀ A Q` (symmetric
    /// application keeps the diagonal in place, so
    /// [`Pivoting::None`] stays meaningful), and run the coupled
    /// factorization on it.
    pub fn factor_ordered(
        a: &CscMatrix,
        pivoting: Pivoting,
        ordering: sympiler_graph::ordering::Ordering,
    ) -> Result<OrderedGpLuFactors, LuError> {
        if !a.is_square() {
            return Err(LuError::BadInput("matrix must be square".into()));
        }
        match sympiler_graph::ordering::compute_ordering(a, ordering) {
            None => Ok(OrderedGpLuFactors {
                factors: Self::factor(a, pivoting)?,
                col_perm: None,
            }),
            Some(q) => {
                let b = sympiler_sparse::ops::permute_rows_cols(a, &q)
                    .map_err(|e| LuError::BadInput(format!("ordering application: {e}")))?;
                Ok(OrderedGpLuFactors {
                    factors: Self::factor(&b, pivoting)?,
                    col_perm: Some(q),
                })
            }
        }
    }

    /// Factor `a` under a static pre-pivot **and** a fill-reducing
    /// ordering, the same two knobs (and the same graph algorithms)
    /// the compiled pipeline resolves at inspection time: compute the
    /// row matching `P` ([`sympiler_graph::transversal`]), the
    /// ordering `Q` of `P·A`, and run the coupled factorization on
    /// `Qᵀ·P·A·Q`. With both engines pivoted and ordered identically,
    /// the measured gap against the compiled plan is the decoupling
    /// win alone — apples to apples on matrices whose raw diagonal is
    /// structurally zero.
    pub fn factor_prepivoted(
        a: &CscMatrix,
        pivoting: Pivoting,
        pre_pivot: sympiler_graph::transversal::PrePivot,
        ordering: sympiler_graph::ordering::Ordering,
    ) -> Result<PrePivotedGpLuFactors, LuError> {
        if !a.is_square() {
            return Err(LuError::BadInput("matrix must be square".into()));
        }
        let rowp =
            sympiler_graph::transversal::compute_pre_pivot(a, pre_pivot).map_err(|e| match e {
                sympiler_sparse::SparseError::StructurallySingular { n, structural_rank } => {
                    LuError::StructurallySingular { n, structural_rank }
                }
                other => LuError::BadInput(format!("pre-pivot: {other}")),
            })?;
        let pivoted_storage;
        let pivoted = match &rowp {
            Some(p) => {
                pivoted_storage = sympiler_sparse::ops::permute_rows(a, p)
                    .map_err(|e| LuError::BadInput(format!("pre-pivot application: {e}")))?;
                &pivoted_storage
            }
            None => a,
        };
        let ordered = Self::factor_ordered(pivoted, pivoting, ordering)?;
        // Compose the row maps: row `new` of the factored system is
        // row `rowp[q[new]]` of the caller's matrix.
        let (row_perm, col_perm) = match (rowp, ordered.col_perm) {
            (None, None) => (None, None),
            (Some(p), None) => (Some(p), None),
            (None, Some(q)) => (Some(q.clone()), Some(q)),
            (Some(p), Some(q)) => {
                let composed: Vec<usize> = q.iter().map(|&jq| p[jq]).collect();
                (Some(composed), Some(q))
            }
        };
        Ok(PrePivotedGpLuFactors {
            factors: ordered.factors,
            row_perm,
            col_perm,
        })
    }

    /// [`Self::factor_prepivoted`] on the MC64-equilibrated matrix
    /// `Dr·A·Dc` ([`sympiler_graph::transversal::weighted_matching_scaled`]):
    /// the identically-scaled coupled baseline for a compiled plan
    /// running with `mc64_scale` on. The scaled entries are formed
    /// with the same `(dr[i] * v) * dc[j]` expression shape the
    /// plan's baked gather maps use, so both engines factor the
    /// bitwise-same numbers; [`ScaledPrePivotedGpLuFactors::solve`]
    /// unscales back to the original coordinates of `A`.
    pub fn factor_prepivoted_scaled(
        a: &CscMatrix,
        pivoting: Pivoting,
        pre_pivot: sympiler_graph::transversal::PrePivot,
        ordering: sympiler_graph::ordering::Ordering,
    ) -> Result<ScaledPrePivotedGpLuFactors, LuError> {
        let scaled =
            sympiler_graph::transversal::weighted_matching_scaled(a).map_err(|e| match e {
                sympiler_sparse::SparseError::StructurallySingular { n, structural_rank } => {
                    LuError::StructurallySingular { n, structural_rank }
                }
                other => LuError::BadInput(format!("mc64 scaling: {other}")),
            })?;
        let sa = sympiler_sparse::ops::scale_rows_cols(a, &scaled.row_scale, &scaled.col_scale)
            .map_err(|e| LuError::BadInput(format!("scaling application: {e}")))?;
        let inner = Self::factor_prepivoted(&sa, pivoting, pre_pivot, ordering)?;
        Ok(ScaledPrePivotedGpLuFactors {
            inner,
            row_scale: scaled.row_scale,
            col_scale: scaled.col_scale,
        })
    }
}

/// [`PrePivotedGpLuFactors`] of the MC64-equilibrated system
/// `(Dr·A·Dc)·(Dc⁻¹x) = Dr·b`: [`Self::solve`] scales the right-hand
/// side by `Dr` going in and the solution by `Dc` coming out, so the
/// caller still speaks the original coordinates of `A`.
#[derive(Debug, Clone)]
pub struct ScaledPrePivotedGpLuFactors {
    /// Factors of the scaled, pre-pivoted, ordered matrix.
    pub inner: PrePivotedGpLuFactors,
    /// Row equilibration `Dr` (`row_scale[i]` multiplies row `i`).
    pub row_scale: Vec<f64>,
    /// Column equilibration `Dc` (`col_scale[j]` multiplies column `j`).
    pub col_scale: Vec<f64>,
}

impl ScaledPrePivotedGpLuFactors {
    /// Matrix order.
    pub fn n(&self) -> usize {
        self.inner.n()
    }

    /// Solve `A x = b` in original coordinates through the scaled
    /// system.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let bs: Vec<f64> = b
            .iter()
            .zip(&self.row_scale)
            .map(|(&v, &dr)| dr * v)
            .collect();
        let y = self.inner.solve(&bs);
        y.iter()
            .zip(&self.col_scale)
            .map(|(&v, &dc)| dc * v)
            .collect()
    }
}

/// [`GpLuFactors`] under a static pre-pivot composed with a
/// fill-reducing ordering: the factors satisfy `P' (Qᵀ·P·A·Q) = L U`
/// (`P'` the identity under [`Pivoting::None`]), and [`Self::solve`]
/// maps between the original coordinates of `A` and the factored
/// system's — gather through the composed row map, scatter back
/// through the column map. The runtime counterpart of the compiled
/// plan's pre-pivoted gather maps.
#[derive(Debug, Clone)]
pub struct PrePivotedGpLuFactors {
    /// Factors of the pre-pivoted, ordered matrix `Qᵀ·P·A·Q`.
    pub factors: GpLuFactors,
    /// Composed row gather map (`row_perm[new] = old` row of `A`,
    /// pre-pivot and ordering combined); `None` when both knobs
    /// resolved to the identity.
    pub row_perm: Option<Vec<usize>>,
    /// Column gather map (`col_perm[new] = old`, the ordering alone);
    /// `None` under a natural ordering.
    pub col_perm: Option<Vec<usize>>,
}

impl PrePivotedGpLuFactors {
    /// Matrix order.
    pub fn n(&self) -> usize {
        self.factors.n()
    }

    /// Solve `A x = b` in original coordinates: gather `b` through the
    /// composed row map, run the factors' solve, scatter the result
    /// back through the column map.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let y = match &self.row_perm {
            None => self.factors.solve(b),
            Some(p) => self.factors.solve(&sympiler_sparse::ops::gather_perm(p, b)),
        };
        match &self.col_perm {
            None => y,
            Some(q) => sympiler_sparse::ops::scatter_perm(q, &y),
        }
    }
}

/// The factorizer. Stateless — both symbolic and numeric work happen
/// inside [`GpLu::factor`], which is exactly what makes this the
/// coupled baseline.
pub struct GpLu;

const UNASSIGNED: usize = usize::MAX;

impl GpLu {
    /// Factor the square matrix `a` (full, generally unsymmetric
    /// storage) as `P A = L U`.
    pub fn factor(a: &CscMatrix, pivoting: Pivoting) -> Result<GpLuFactors, LuError> {
        if !a.is_square() {
            return Err(LuError::BadInput("matrix must be square".into()));
        }
        let n = a.n_cols();

        // Growing L in original row coordinates; the first entry of each
        // column is the pivot row with value 1.0.
        let mut lp: Vec<usize> = Vec::with_capacity(n + 1);
        let mut li: Vec<usize> = Vec::with_capacity(2 * a.nnz());
        let mut lx: Vec<f64> = Vec::with_capacity(2 * a.nnz());
        lp.push(0);
        // U built as per-column (row, value) lists, already in final
        // coordinates (U row indices are pivot positions).
        let mut up: Vec<usize> = Vec::with_capacity(n + 1);
        let mut ui: Vec<usize> = Vec::with_capacity(2 * a.nnz());
        let mut ux: Vec<f64> = Vec::with_capacity(2 * a.nnz());
        up.push(0);

        // pinv[old_row] = pivot position, or UNASSIGNED.
        let mut pinv = vec![UNASSIGNED; n];
        // Dense accumulator + DFS state (original row coordinates).
        let mut x = vec![0.0f64; n];
        let mut ws = sympiler_graph::dfs::ReachWorkspace::new(n);
        let mut topo: Vec<usize> = Vec::with_capacity(64);
        let mut u_entries: Vec<(usize, f64)> = Vec::with_capacity(64);

        for j in 0..n {
            // --- Symbolic (coupled): reach of SP(A(:,j)) via the shared
            // reach driver. A node (original row) with an assigned pivot
            // position k has the off-diagonal pattern of L(:,k) as
            // successors; unpivoted rows are leaves.
            sympiler_graph::dfs::reach_adjacency_into(
                n,
                a.col_rows(j),
                |v| {
                    let k = pinv[v];
                    if k != UNASSIGNED {
                        &li[lp[k] + 1..lp[k + 1]]
                    } else {
                        &[]
                    }
                },
                &mut ws,
                &mut topo,
            );

            // --- Numeric: sparse triangular solve in topological order.
            for (i, v) in a.col_iter(j) {
                x[i] = v;
            }
            for &v in topo.iter() {
                let k = pinv[v];
                if k == UNASSIGNED {
                    continue;
                }
                let xk = x[v];
                if xk != 0.0 {
                    for (&r, &lrk) in li[lp[k] + 1..lp[k + 1]]
                        .iter()
                        .zip(&lx[lp[k] + 1..lp[k + 1]])
                    {
                        x[r] -= lrk * xk;
                    }
                }
            }

            // --- Pivot among the not-yet-pivotal candidates.
            let pivot_row = match pivoting {
                Pivoting::None => {
                    // The diagonal must be numerically usable; x[j] is
                    // only written when row j is in the reach pattern,
                    // so a structural absence also lands here.
                    debug_assert_eq!(pinv[j], UNASSIGNED);
                    if x[j] == 0.0 {
                        Self::clear(&mut x, &topo);
                        return Err(LuError::ZeroPivot { column: j });
                    }
                    j
                }
                Pivoting::Partial => {
                    let mut best = UNASSIGNED;
                    let mut best_mag = 0.0f64;
                    for &v in topo.iter() {
                        if pinv[v] == UNASSIGNED && x[v].abs() > best_mag {
                            best = v;
                            best_mag = x[v].abs();
                        }
                    }
                    if best == UNASSIGNED {
                        Self::clear(&mut x, &topo);
                        return Err(LuError::ZeroPivot { column: j });
                    }
                    best
                }
            };
            let pivot = x[pivot_row];
            pinv[pivot_row] = j;

            // --- Gather U(:, j): pivotal rows sorted by position, then
            // the diagonal.
            u_entries.clear();
            for &v in topo.iter() {
                let k = pinv[v];
                if k != UNASSIGNED && k < j {
                    u_entries.push((k, x[v]));
                }
            }
            u_entries.sort_unstable_by_key(|&(k, _)| k);
            for &(k, val) in &u_entries {
                ui.push(k);
                ux.push(val);
            }
            ui.push(j);
            ux.push(pivot);
            up.push(ui.len());

            // --- Gather L(:, j): unit pivot first, then the remaining
            // candidates scaled by the pivot (original coordinates).
            li.push(pivot_row);
            lx.push(1.0);
            let l_start = li.len();
            for &v in topo.iter() {
                if pinv[v] == UNASSIGNED {
                    li.push(v);
                    lx.push(x[v] / pivot);
                }
            }
            if matches!(pivoting, Pivoting::None) {
                // Static pivoting assigns every row its own index, so
                // sorting by original row is already final pivot order.
                // Keeping columns sorted as they are built makes later
                // columns' DFS walk the same (sorted) adjacency lists a
                // compiled plan's symbolic pass uses — update sums then
                // run in the identical order, and the factors of the
                // two engines agree **bitwise**, which is what lets the
                // comparison harness hold one strict tolerance even on
                // ill-conditioned pivot sequences. (Per-entry division
                // by the pivot commutes with the reorder; the final
                // global sort pass becomes a no-op for these columns.)
                let mut pairs: Vec<(usize, f64)> = li[l_start..]
                    .iter()
                    .copied()
                    .zip(lx[l_start..].iter().copied())
                    .collect();
                pairs.sort_unstable_by_key(|&(r, _)| r);
                for (off, &(r, v)) in pairs.iter().enumerate() {
                    li[l_start + off] = r;
                    lx[l_start + off] = v;
                }
            }
            lp.push(li.len());

            Self::clear(&mut x, &topo);
        }

        // --- Finalize: remap L rows to pivot coordinates and sort each
        // column (the pivot row maps to j, every other candidate was
        // assigned later, so sorting puts the unit diagonal first).
        for r in li.iter_mut() {
            debug_assert_ne!(pinv[*r], UNASSIGNED, "unpivoted row survived");
            *r = pinv[*r];
        }
        let mut cols: Vec<(usize, f64)> = Vec::new();
        for j in 0..n {
            let range = lp[j]..lp[j + 1];
            cols.clear();
            cols.extend(
                li[range.clone()]
                    .iter()
                    .copied()
                    .zip(lx[range.clone()].iter().copied()),
            );
            cols.sort_unstable_by_key(|&(r, _)| r);
            for (slot, &(r, v)) in range.clone().zip(cols.iter()) {
                li[slot] = r;
                lx[slot] = v;
            }
        }
        let mut row_perm = vec![0usize; n];
        for (old, &new) in pinv.iter().enumerate() {
            row_perm[new] = old;
        }
        let l = CscMatrix::try_new(n, n, lp, li, lx)
            .map_err(|e| LuError::BadInput(format!("internal L assembly: {e}")))?;
        let u = CscMatrix::try_new(n, n, up, ui, ux)
            .map_err(|e| LuError::BadInput(format!("internal U assembly: {e}")))?;
        Ok(GpLuFactors { l, u, row_perm })
    }

    /// Clear the dense accumulator, touching only the reach.
    fn clear(x: &mut [f64], reach: &[usize]) {
        for &v in reach {
            x[v] = 0.0;
        }
    }
}

/// Factorization backward error normalized the way rounding-error
/// analysis bounds it: per column `j`,
/// `max_i |(P A - L U)[i, j]|  /  (|L| |U|)(:, j) column sum`,
/// maximized over columns. A stable LU satisfies
/// `|P A - L U| ≤ c(n) · eps · |L| |U|` **regardless of element
/// growth** (Higham, ch. 9), so this quantity sits at O(n·eps) for
/// every correctly implemented engine — including ones that pivot on
/// tiny static entries, where any `‖A‖`-relative residual is
/// unavoidably inflated by `‖L‖‖U‖/‖A‖`. The growth-independent
/// verification metric for comparing factorization engines.
pub fn lu_backward_error(a: &CscMatrix, f: &GpLuFactors) -> f64 {
    let n = a.n_cols();
    assert_eq!(f.n(), n, "dimension mismatch");
    let mut pinv = vec![0usize; n];
    for (new, &old) in f.row_perm.iter().enumerate() {
        pinv[old] = new;
    }
    // Column sums of |L| — one pass, reused for every |L||U| column.
    let mut l_colsum = vec![0.0f64; n];
    for k in 0..n {
        l_colsum[k] = f.l.col_iter(k).map(|(_, v)| v.abs()).sum();
    }
    let mut acc = vec![0.0f64; n];
    let mut touched: Vec<usize> = Vec::new();
    let mut eta = 0.0f64;
    for j in 0..n {
        touched.clear();
        let mut denom = 0.0f64;
        for (k, ukj) in f.u.col_iter(j) {
            denom += ukj.abs() * l_colsum[k];
            for (i, lik) in f.l.col_iter(k) {
                if acc[i] == 0.0 {
                    touched.push(i);
                }
                acc[i] += lik * ukj;
            }
        }
        for (i, v) in a.col_iter(j) {
            let r = pinv[i];
            if acc[r] == 0.0 {
                touched.push(r);
            }
            acc[r] -= v;
        }
        let mut err = 0.0f64;
        for &i in &touched {
            err = max_nan(err, acc[i].abs());
            acc[i] = 0.0;
        }
        eta = max_nan(eta, err / max_nan(denom, f64::MIN_POSITIVE));
    }
    eta
}

/// Max-norm reconstruction error `max |(P A - L U)[i, j]|` scaled by
/// the 1-norm of `A` — the LU analogue of
/// [`crate::verify::reconstruction_error`]. O(flops(LU)).
pub fn lu_reconstruction_error(a: &CscMatrix, f: &GpLuFactors) -> f64 {
    let n = a.n_cols();
    assert_eq!(f.n(), n, "dimension mismatch");
    // pinv[old] = new.
    let mut pinv = vec![0usize; n];
    for (new, &old) in f.row_perm.iter().enumerate() {
        pinv[old] = new;
    }
    let a_norm = max_nan(sympiler_sparse::ops::norm_1(a), 1.0);
    let mut acc = vec![0.0f64; n];
    let mut touched: Vec<usize> = Vec::new();
    let mut max_err = 0.0f64;
    for j in 0..n {
        // acc = (L U)(:, j) = sum_k U[k, j] * L(:, k).
        touched.clear();
        for (k, ukj) in f.u.col_iter(j) {
            for (i, lik) in f.l.col_iter(k) {
                if acc[i] == 0.0 {
                    touched.push(i);
                }
                acc[i] += lik * ukj;
            }
        }
        // Subtract (P A)(:, j).
        for (i, v) in a.col_iter(j) {
            let r = pinv[i];
            if acc[r] == 0.0 {
                touched.push(r);
            }
            acc[r] -= v;
        }
        for &i in &touched {
            max_err = max_nan(max_err, acc[i].abs());
            acc[i] = 0.0;
        }
    }
    max_err / a_norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympiler_sparse::{gen, ops};

    fn dense_lu_no_pivot(a: &CscMatrix) -> (Vec<f64>, usize) {
        let n = a.n_cols();
        let mut m = a.to_dense();
        for k in 0..n {
            let piv = m[k * n + k];
            assert!(piv != 0.0, "dense reference hit zero pivot");
            for i in k + 1..n {
                m[k * n + i] /= piv;
            }
            for j in k + 1..n {
                let ukj = m[j * n + k];
                if ukj == 0.0 {
                    continue;
                }
                for i in k + 1..n {
                    m[j * n + i] -= m[k * n + i] * ukj;
                }
            }
        }
        (m, n)
    }

    #[test]
    fn static_pivot_matches_dense_reference() {
        for seed in 0..8u64 {
            let a = gen::circuit_unsym(35, 3, 1, seed);
            let f = GpLu::factor(&a, Pivoting::None).unwrap();
            assert!(f.is_identity_perm(), "static pivoting must not permute");
            let (dense, n) = dense_lu_no_pivot(&a);
            for j in 0..n {
                for (i, v) in f.l.col_iter(j) {
                    if i > j {
                        assert!(
                            (v - dense[j * n + i]).abs() < 1e-10,
                            "seed {seed}: L[{i},{j}] = {v} vs {}",
                            dense[j * n + i]
                        );
                    }
                }
                for (i, v) in f.u.col_iter(j) {
                    assert!(
                        (v - dense[j * n + i]).abs() < 1e-10,
                        "seed {seed}: U[{i},{j}] = {v} vs {}",
                        dense[j * n + i]
                    );
                }
            }
        }
    }

    #[test]
    fn reconstruction_and_solve_static() {
        for seed in 0..6u64 {
            let a = gen::convection_diffusion_2d(6, 6, 1.2, seed);
            let f = GpLu::factor(&a, Pivoting::None).unwrap();
            assert!(lu_reconstruction_error(&a, &f) < 1e-12, "seed {seed}");
            let n = a.n_cols();
            let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
            let x = f.solve(&b);
            assert!(ops::rel_residual(&a, &x, &b) < 1e-12, "seed {seed}");
        }
    }

    #[test]
    fn partial_pivoting_verification_mode() {
        // A matrix that *breaks* static pivoting: zero diagonal entry.
        let mut t = sympiler_sparse::TripletMatrix::new(3, 3);
        t.push(1, 0, 2.0);
        t.push(0, 0, 1e-30);
        t.push(0, 1, 3.0);
        t.push(2, 1, 1.0);
        t.push(1, 2, 1.0);
        t.push(2, 2, 4.0);
        let a = t.to_csc().unwrap();
        // Static pivoting survives structurally but produces huge
        // growth; partial pivoting permutes and stays accurate.
        let f = GpLu::factor(&a, Pivoting::Partial).unwrap();
        assert!(!f.is_identity_perm(), "partial pivoting must permute here");
        assert!(lu_reconstruction_error(&a, &f) < 1e-12);
        let b = vec![1.0, 2.0, 3.0];
        let x = f.solve(&b);
        assert!(ops::rel_residual(&a, &x, &b) < 1e-10);
    }

    /// A factor with one NaN entry (the first column's diagonal of `L`).
    fn factor_with_nan(a: &CscMatrix) -> GpLuFactors {
        let mut f = GpLu::factor(a, Pivoting::None).unwrap();
        f.l.values_mut()[0] = f64::NAN;
        f
    }

    #[test]
    fn lu_backward_error_propagates_nan() {
        let a = gen::random_unsym(20, 3, 5);
        assert!(lu_backward_error(&a, &factor_with_nan(&a)).is_nan());
    }

    #[test]
    fn lu_reconstruction_error_propagates_nan() {
        let a = gen::random_unsym(20, 3, 5);
        assert!(lu_reconstruction_error(&a, &factor_with_nan(&a)).is_nan());
    }

    #[test]
    fn partial_matches_static_on_dominant_matrices() {
        // On diagonally dominant systems both modes solve equally well
        // (the verification argument for compiling with static pivots).
        let a = gen::random_unsym(40, 4, 7);
        let fs = GpLu::factor(&a, Pivoting::None).unwrap();
        let fp = GpLu::factor(&a, Pivoting::Partial).unwrap();
        let b: Vec<f64> = (0..40).map(|i| (i as f64).cos()).collect();
        let xs = fs.solve(&b);
        let xp = fp.solve(&b);
        for (p, q) in xs.iter().zip(&xp) {
            assert!((p - q).abs() < 1e-10);
        }
    }

    #[test]
    fn pattern_matches_symbolic_prediction() {
        for seed in 0..6u64 {
            let a = gen::random_unsym(30, 3, seed);
            let sym = sympiler_graph::lu_symbolic(&a);
            let f = GpLu::factor(&a, Pivoting::None).unwrap();
            assert_eq!(f.l.col_ptr(), sym.l_col_ptr.as_slice(), "seed {seed}");
            assert_eq!(f.l.row_idx(), sym.l_row_idx.as_slice(), "seed {seed}");
            assert_eq!(f.u.col_ptr(), sym.u_col_ptr.as_slice(), "seed {seed}");
            assert_eq!(f.u.row_idx(), sym.u_row_idx.as_slice(), "seed {seed}");
        }
    }

    #[test]
    fn zero_pivot_detected() {
        // Structurally zero diagonal at column 1 and no path to fill it.
        let mut t = sympiler_sparse::TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 0, 1.0);
        t.push(0, 1, 1.0);
        let a = t.to_csc().unwrap();
        // Column 1 fills at row 1? A(:,1) = {0}; reach of {0} includes
        // row 1 via L(1,0) — so the diagonal fills and this factors.
        assert!(GpLu::factor(&a, Pivoting::None).is_ok());
        // But a truly empty pivot column fails.
        let mut t2 = sympiler_sparse::TripletMatrix::new(2, 2);
        t2.push(0, 0, 1.0);
        t2.push(0, 1, 1.0);
        let a2 = t2.to_csc().unwrap();
        assert!(matches!(
            GpLu::factor(&a2, Pivoting::None),
            Err(LuError::ZeroPivot { column: 1 })
        ));
        assert!(matches!(
            GpLu::factor(&a2, Pivoting::Partial),
            Err(LuError::ZeroPivot { column: 1 })
        ));
    }

    #[test]
    fn ordered_baseline_solves_original_system() {
        use sympiler_graph::ordering::Ordering;
        for seed in 0..4u64 {
            let a = gen::circuit_unsym(60, 4, 2, seed);
            let n = a.n_cols();
            let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 6) as f64).collect();
            let x_ref = GpLu::factor(&a, Pivoting::None).unwrap().solve(&b);
            for ord in [Ordering::Natural, Ordering::Rcm, Ordering::Colamd] {
                let f = GpLu::factor_ordered(&a, Pivoting::None, ord).unwrap();
                assert_eq!(f.col_perm.is_none(), ord == Ordering::Natural);
                let x = f.solve(&b);
                assert!(ops::rel_residual(&a, &x, &b) < 1e-10, "{ord:?} seed {seed}");
                for (p, q) in x.iter().zip(&x_ref) {
                    assert!((p - q).abs() < 1e-9, "{ord:?} seed {seed}");
                }
            }
        }
    }

    #[test]
    fn ordered_baseline_reduces_fill_with_colamd() {
        use sympiler_graph::ordering::Ordering;
        let a = gen::circuit_unsym(200, 4, 2, 3);
        let nat = GpLu::factor(&a, Pivoting::None).unwrap();
        let ord = GpLu::factor_ordered(&a, Pivoting::None, Ordering::Colamd).unwrap();
        assert!(
            ord.factors.l.nnz() + ord.factors.u.nnz() < nat.l.nnz() + nat.u.nnz(),
            "colamd must cut baseline fill too"
        );
        // Partial pivoting also runs on the ordered matrix.
        let pp = GpLu::factor_ordered(&a, Pivoting::Partial, Ordering::Colamd).unwrap();
        let b: Vec<f64> = (0..200).map(|i| (i as f64).sin() + 2.0).collect();
        assert!(ops::rel_residual(&a, &pp.solve(&b), &b) < 1e-10);
    }

    #[test]
    fn prepivoted_baseline_factors_zero_diag_systems() {
        use sympiler_graph::ordering::Ordering;
        use sympiler_graph::transversal::PrePivot;
        for (name, a) in [
            ("circuit", gen::circuit_zero_diag(80, 4, 2, 2)),
            ("saddle", gen::saddle_point_2x2(60, 12, 4)),
        ] {
            // Static pivoting without a pre-pivot is a hard error.
            assert!(
                matches!(
                    GpLu::factor(&a, Pivoting::None),
                    Err(LuError::ZeroPivot { .. })
                ),
                "{name}: raw static pivoting must fail"
            );
            let n = a.n_cols();
            let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 4) as f64).collect();
            for ord in [Ordering::Natural, Ordering::Colamd] {
                for pp in [PrePivot::Transversal, PrePivot::WeightedMatching] {
                    let f = GpLu::factor_prepivoted(&a, Pivoting::None, pp, ord).unwrap();
                    assert!(f.row_perm.is_some(), "{name}: rows must move");
                    let x = f.solve(&b);
                    assert!(
                        ops::rel_residual(&a, &x, &b) < 1e-9,
                        "{name} {ord:?} {pp:?}: residual"
                    );
                }
            }
        }
    }

    #[test]
    fn prepivoted_identity_fast_path_matches_ordered() {
        use sympiler_graph::ordering::Ordering;
        use sympiler_graph::transversal::PrePivot;
        // Zero-free diagonal: Transversal is a no-op and the result
        // must match factor_ordered exactly.
        let a = gen::circuit_unsym(50, 4, 2, 8);
        let f =
            GpLu::factor_prepivoted(&a, Pivoting::None, PrePivot::Transversal, Ordering::Colamd)
                .unwrap();
        let g = GpLu::factor_ordered(&a, Pivoting::None, Ordering::Colamd).unwrap();
        assert_eq!(f.col_perm, g.col_perm);
        assert_eq!(f.row_perm, f.col_perm, "no pre-pivot: row map is Q");
        for (x, y) in f.factors.u.values().iter().zip(g.factors.u.values()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn prepivoted_structurally_singular_is_typed() {
        use sympiler_graph::ordering::Ordering;
        use sympiler_graph::transversal::PrePivot;
        let mut t = sympiler_sparse::TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(0, 1, 1.0);
        let a = t.to_csc().unwrap();
        assert_eq!(
            GpLu::factor_prepivoted(&a, Pivoting::None, PrePivot::Transversal, Ordering::Natural)
                .unwrap_err(),
            LuError::StructurallySingular {
                n: 2,
                structural_rank: 1
            }
        );
    }

    #[test]
    fn one_by_one_and_diagonal() {
        let a = CscMatrix::identity(1);
        let f = GpLu::factor(&a, Pivoting::None).unwrap();
        assert_eq!(f.solve(&[5.0]), vec![5.0]);
        let d = CscMatrix::identity(6);
        let f = GpLu::factor(&d, Pivoting::Partial).unwrap();
        assert!(f.is_identity_perm());
        assert_eq!(f.l.nnz(), 6);
        assert_eq!(f.u.nnz(), 6);
    }

    #[test]
    fn upper_backward_solver_is_exact() {
        // U from a factorization, solved against the dense reference.
        let a = gen::circuit_unsym(25, 3, 1, 3);
        let f = GpLu::factor(&a, Pivoting::None).unwrap();
        let n = 25;
        let mut x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let b = x.clone();
        crate::trisolve::naive_backward_upper(&f.u, &mut x);
        // Check U x = b.
        let mut y = vec![0.0; n];
        ops::spmv(&f.u, &x, &mut y);
        for (p, q) in y.iter().zip(&b) {
            assert!((p - q).abs() < 1e-10);
        }
    }
}
