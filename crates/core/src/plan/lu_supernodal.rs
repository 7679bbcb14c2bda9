//! Supernodal (VS-Block) LU: the third execution tier of the compiled
//! LU pipeline, beside the serial column plan ([`super::lu::LuPlan`])
//! and the level-scheduled column-parallel plan
//! ([`super::lu_parallel::ParallelLuPlan`]).
//!
//! The paper's VS-Block transformation (§3.2) converts column-at-a-time
//! sparse kernels into blocked code over supernodes so the numeric
//! phase runs on dense kernels. Applied to left-looking LU:
//!
//! * **Inspection** — adjacent columns of the predicted `L` whose
//!   patterns nest ([`sympiler_graph::lu_supernode`]) form a column
//!   **panel**: a dense trapezoid whose diagonal block is a full square
//!   and whose sub-diagonal rows are shared by every column. Panel
//!   layouts (trapezoid extents, value offsets, the panel-level update
//!   DAG) are all baked here at compile time.
//! * **Numeric phase** — panel by panel: gather the panel's columns
//!   into a dense block accumulator, apply each *source* panel's
//!   accumulated updates with a dense TRSM
//!   ([`sympiler_dense::trsm_right_lower_trans_unit`], the source's
//!   internal solve) followed by a dense GEMM
//!   ([`sympiler_dense::gemm_nt_sub`], the outer-panel update) and a
//!   scatter-add back into the accumulator; then factor the panel's own
//!   diagonal block with an unpivoted dense GETRF
//!   ([`sympiler_dense::getrf_nopiv`]) and divide out its `U` with a
//!   dense TRSM ([`sympiler_dense::trsm_right_upper`]). Width-1 panels
//!   fall back to the scalar per-column kernel
//!   (`LuPlan::column_numeric`), so sparsity that never blocks costs
//!   nothing extra.
//! * **Parallelism** — the panel DAG (panel `s` depends on every panel
//!   that sources one of its updates) is leveled into the same
//!   [`Leveled`] schedule and run by the same executor as the
//!   column-parallel plan, with panels as its tasks: levels of
//!   independent panels execute across workers with one barrier per
//!   kept level boundary, barriers elided across same-owner runs.
//!
//! Results are **not** bit-identical to the scalar plans — dense
//! kernels reassociate the update sums — but agree to ~1e-12 relative
//! (verified across the suite by `lu_compare` and the property tests),
//! and the zero-pivot column reported is the same.

use super::leveled::{Lane, Leveled, SharedMut};
use super::lu::{LuFactor, LuPlan, LuPlanError, PerturbReport, PivotStatus};
use sympiler_dense::{
    gemm_nt_sub, getrf_nopiv_perturbed, trsm_right_lower_trans_unit, trsm_right_upper,
};
use sympiler_graph::lu_supernode::LuPanels;
use sympiler_graph::supernode::SupernodePartition;
use sympiler_sparse::CscMatrix;

/// A compiled LU factorization whose numeric phase executes panel by
/// panel over the supernodes of the predicted `L`, with dense
/// GETRF/TRSM/GEMM kernels on the wide panels.
#[derive(Debug, Clone)]
pub struct SupernodalLuPlan {
    plan: LuPlan,
    /// Column panels of the predicted factor (ordered coordinates):
    /// the partition plus each panel's baked **union** row list. Under
    /// strict nesting every member column's pattern equals the union;
    /// under relaxed amalgamation ([`LuPlan::panels`]) the union is
    /// wider and the extra trapezoid slots hold explicit zeros, counted
    /// in `panels.padded_zeros`.
    panels: LuPanels,
    /// Trapezoid value offsets: wide panel `s` owns the column-major
    /// `m × w` block `sx[sx_ptr[s]..sx_ptr[s+1]]` of the supernodal
    /// workspace, `m` its row count, `w` its width; singleton panels
    /// own nothing (their columns live only in the CSC factor arrays).
    sx_ptr: Vec<usize>,
    /// Panel-level update schedule: panel `s` consumes the panels
    /// `upd_panels[upd_ptr[s]..upd_ptr[s+1]]`, ascending — exactly the
    /// predecessors of `s` in the panel DAG.
    upd_ptr: Vec<usize>,
    upd_panels: Vec<u32>,
    /// The panel DAG leveled across the baked worker count.
    leveled: Leveled,
    /// Widest panel (workspace sizing).
    max_width: usize,
    /// Largest sub-diagonal row count over wide panels (workspace
    /// sizing for the GEMM gather block).
    max_sub_rows: usize,
    /// Fraction of factorization flops carried by wide panels — the
    /// share the dense kernels execute.
    dense_flop_share: f64,
    /// Exact compile-time flops per panel (the sum of its columns'
    /// flops) — what profiled panel spans report achieved GFLOP/s
    /// against, and what the flop-accounting gate charges dense vs.
    /// scalar work with.
    panel_flops: Vec<u64>,
}

/// Per-worker scratch: `x` is a dense `n × max_width` block accumulator
/// (column-major, all zeros between panels), `bt` a `max_width²`
/// gather block for source-panel solves and diagonal-block copies,
/// `cbuf` the GEMM gather/scatter block.
struct PanelWorkspace {
    x: Vec<f64>,
    bt: Vec<f64>,
    cbuf: Vec<f64>,
}

impl SupernodalLuPlan {
    /// Detect **strictly nesting** panels on an already-compiled plan
    /// (`max_panel` caps their width, 0 = unlimited) and compile over
    /// them: [`Self::from_panels`] with relaxation off.
    pub fn from_plan(plan: LuPlan, max_panel: usize, n_threads: usize) -> Self {
        let panels = plan.panels(max_panel, 0.0, 0);
        Self::from_panels(plan, panels, n_threads)
    }

    /// Compile the supernodal plan over `panels`, the plan's column
    /// panels as [`LuPlan::panels`] detects them (strict or relaxed):
    /// bake the trapezoid layouts, the panel-level update DAG and its
    /// leveled schedule across `n_threads` workers. Pure schedule
    /// construction — no symbolic analysis re-runs. Padding from
    /// relaxed amalgamation lives **only** in the dense trapezoid
    /// workspace: padded slots compute to exact ±0.0, and the CSC
    /// factor layouts and patterns are untouched.
    ///
    /// # Panics
    /// If `panels` does not partition the plan's columns, or a panel's
    /// rows do not start with its diagonal run.
    pub fn from_panels(plan: LuPlan, panels: LuPanels, n_threads: usize) -> Self {
        let n = plan.n();
        // Disjoint panel ownership is what makes the parallel writes
        // race-free, so the partition is checked, not trusted.
        let part = &panels.part;
        assert!(
            part.first_col.windows(2).all(|w| w[0] < w[1])
                && *part == SupernodePartition::from_first_cols(part.first_col.clone(), n),
            "panels must partition the plan's columns"
        );
        let n_panels = part.n_supernodes();

        // Trapezoid layout: wide panels own an m × w value block, `m`
        // the panel's union row count (≥ any member column's CSC
        // length; equal under strict nesting).
        let mut sx_ptr = Vec::with_capacity(n_panels + 1);
        sx_ptr.push(0usize);
        let mut max_width = 1usize;
        let mut max_sub_rows = 0usize;
        for s in 0..n_panels {
            let w = part.width(s);
            let rows = panels.panel_rows(s);
            assert!(
                rows.len() >= w
                    && rows[..w]
                        .iter()
                        .zip(part.cols(s))
                        .all(|(&r, j)| r as usize == j),
                "panel {s}: rows must start with the diagonal run"
            );
            let m = rows.len();
            let mut size = 0;
            if w > 1 {
                size = m * w;
                max_width = max_width.max(w);
                max_sub_rows = max_sub_rows.max(m - w);
            }
            sx_ptr.push(sx_ptr[s] + size);
        }

        // Panel-level update schedule = panel DAG predecessors: map
        // every column's baked schedule through col_to_super, dedup.
        let mut upd_ptr = Vec::with_capacity(n_panels + 1);
        let mut upd_panels: Vec<u32> = Vec::new();
        upd_ptr.push(0usize);
        let mut seen = vec![usize::MAX; n_panels];
        for s in 0..n_panels {
            let start = upd_panels.len();
            for j in part.cols(s) {
                for k in plan.schedule(j) {
                    let t = part.col_to_super[k];
                    if t != s && seen[t] != s {
                        seen[t] = s;
                        upd_panels.push(t as u32);
                    }
                }
            }
            upd_panels[start..].sort_unstable();
            upd_ptr.push(upd_panels.len());
        }

        // Dense flop share: the shared cost model from the graph
        // crate, read off the plan's compiled layouts. Charged against
        // **structural** column flops, never padded dense extents, so
        // profiled flop accounting still closes exactly.
        let dense_flop_share = sympiler_graph::lu_supernode::flop_share_in_wide_panels_from_parts(
            part,
            &plan.l_col_ptr,
            &plan.u_col_ptr,
            &plan.u_row_idx,
        );

        // Level the panel DAG and cost-balance each level's panels
        // across workers by the summed cost of their columns.
        let col_costs = plan.per_column_costs();
        let panel_costs: Vec<u64> = (0..n_panels)
            .map(|s| part.cols(s).map(|j| col_costs[j]).sum())
            .collect();
        let leveled = Leveled::new(
            |s| {
                upd_panels[upd_ptr[s]..upd_ptr[s + 1]]
                    .iter()
                    .map(|&t| t as usize)
            },
            &panel_costs,
            n_threads,
        );

        let col_flops = plan.per_column_flops();
        let panel_flops: Vec<u64> = (0..n_panels)
            .map(|s| part.cols(s).map(|j| col_flops[j]).sum())
            .collect();

        Self {
            plan,
            panels,
            sx_ptr,
            upd_ptr,
            upd_panels,
            leveled,
            max_width,
            max_sub_rows,
            dense_flop_share,
            panel_flops,
        }
    }

    /// The underlying serial plan (shared symbolic analysis, layouts,
    /// flop counts, scalar kernel).
    pub fn serial(&self) -> &LuPlan {
        &self.plan
    }

    /// Recover the serial plan (for compile drivers that decide after
    /// detection that blocking does not pay).
    pub fn into_plan(self) -> LuPlan {
        self.plan
    }

    /// The compiled panel partition.
    pub fn partition(&self) -> &SupernodePartition {
        &self.panels.part
    }

    /// The compiled panel layout: partition plus per-panel union row
    /// lists and the padded-zero census.
    pub fn panel_layout(&self) -> &LuPanels {
        &self.panels
    }

    /// Explicit zeros the relaxed amalgamation padded into trapezoid
    /// workspace across all panels (0 when relaxation is off or
    /// nothing merged). Padding never reaches the CSC factors.
    pub fn padded_zeros(&self) -> usize {
        self.panels.padded_zeros
    }

    /// Resident size, in bytes, of the supernodal tables this plan
    /// keeps alive beyond the serial plan's ([`LuPlan::table_bytes`]):
    /// panel row lists (padded layouts included), trapezoid offsets,
    /// the panel-level update schedule, and the leveled worker
    /// schedule. What a plan cache charges a supernodal entry for.
    pub fn table_bytes(&self) -> usize {
        use std::mem::size_of;
        let usz = size_of::<usize>();
        self.plan.table_bytes()
            + self.panels.rows.len() * 4
            + self.panels.row_ptr.len() * usz
            + (self.panels.part.first_col.len() + self.panels.part.col_to_super.len()) * usz
            + self.sx_ptr.len() * usz
            + self.upd_ptr.len() * usz
            + self.upd_panels.len() * 4
            + self.leveled.bytes()
            + self.panel_flops.len() * 8
    }

    /// Number of panels.
    pub fn n_panels(&self) -> usize {
        self.panels.part.n_supernodes()
    }

    /// Mean panel width (columns per panel).
    pub fn mean_panel_width(&self) -> f64 {
        if self.n_panels() == 0 {
            0.0
        } else {
            self.plan.n() as f64 / self.n_panels() as f64
        }
    }

    /// Widest compiled panel.
    pub fn max_panel_width(&self) -> usize {
        self.max_width
    }

    /// Number of wide (width ≥ 2) panels — the ones the dense kernels
    /// execute.
    pub fn n_wide_panels(&self) -> usize {
        (0..self.n_panels())
            .filter(|&s| self.panels.part.width(s) > 1)
            .count()
    }

    /// Fraction of factorization flops carried by wide panels (the
    /// dense-kernel share of the numeric phase).
    pub fn dense_flop_share(&self) -> f64 {
        self.dense_flop_share
    }

    /// The compiled panel schedule: levels, worker chunks, barriers.
    pub fn leveled(&self) -> &Leveled {
        &self.leveled
    }

    fn workspace(&self) -> PanelWorkspace {
        let n = self.plan.n();
        let w = self.max_width;
        PanelWorkspace {
            x: vec![0.0; n * w],
            bt: vec![0.0; w * w],
            cbuf: vec![0.0; self.max_sub_rows * w],
        }
    }

    /// Execute one panel: the scalar column kernel for singletons, the
    /// dense GETRF/TRSM/GEMM pipeline for wide panels. Pivot outcomes
    /// and the panel's flops go to `lane`; values are always fully
    /// written (IEEE semantics on zero pivots), so parallel callers
    /// record and keep going.
    ///
    /// # Safety
    /// `lx` / `ux` / `sx` must point to the full factor and trapezoid
    /// value arrays. The caller must guarantee that (a) no other thread
    /// accesses this panel's value ranges during the call and (b) every
    /// source panel in the baked schedule has been fully written and
    /// synchronized before the call — in-order serial execution and the
    /// barrier-leveled parallel executor both satisfy this, exactly as
    /// for `LuPlan::column_numeric`.
    unsafe fn panel_numeric(
        &self,
        s: usize,
        a: &CscMatrix,
        ws: &mut PanelWorkspace,
        lx: *mut f64,
        ux: *mut f64,
        sx: *mut f64,
        thresh: f64,
        lane: &mut Lane,
    ) {
        let plan = &self.plan;
        let n = plan.n();
        let f = self.panels.part.first_col[s];
        let w = self.panels.part.width(s);

        if w == 1 {
            // Scalar fallback: the shared per-column kernel, reading
            // and writing the CSC factor arrays directly.
            let x = &mut ws.x[..n];
            lane.pivot(f, plan.column_numeric(f, a, x, lx, ux, thresh));
            lane.scalar_flops += self.panel_flops[s];
            return;
        }

        // Wide-panel observability: one `panel` span with achieved
        // GFLOP/s vs. the compile-time flop count, and child spans
        // around each dense kernel call. Pure timing — no numeric
        // effect, and a single branch per call site when disabled.
        let prof = plan.profiler().as_ref();
        let enabled = prof.is_enabled();
        let panel_span = if enabled {
            prof.begin(lane.id, "panel")
        } else {
            None
        };
        let panel_t0 = prof.now_ns();

        let l_ptr = &plan.l_col_ptr;
        let l_rows = &plan.l_row_idx;
        // The panel's baked union row list: under strict nesting this
        // is exactly the leading column's CSC pattern; under relaxed
        // amalgamation it is the union over member columns, and the
        // first `w` entries are always the diagonal run `f..f+w`
        // (checked at construction).
        let rows = self.panels.panel_rows(s);
        let m = rows.len();

        // --- Scatter the panel's (ordered) input columns into the
        // dense block accumulator.
        for c in 0..w {
            plan.scatter_a_column(f + c, a, &mut ws.x[c * n..(c + 1) * n]);
        }

        // --- Source-panel updates, ascending (a valid topological
        // order: every dependence edge points to a higher column).
        for &t in &self.upd_panels[self.upd_ptr[s]..self.upd_ptr[s + 1]] {
            let t = t as usize;
            let g = self.panels.part.first_col[t];
            let v = self.panels.part.width(t);
            if v == 1 {
                // Scalar source column: guarded axpy per panel column,
                // values read from the finalized CSC factor.
                let range = l_ptr[g] + 1..l_ptr[g + 1];
                let krows = &l_rows[range.clone()];
                // SAFETY: column g is finalized by the caller's
                // contract and no thread writes it concurrently.
                let kvals = std::slice::from_raw_parts(lx.add(range.start), range.len());
                for c in 0..w {
                    let xc = &mut ws.x[c * n..(c + 1) * n];
                    let xk = xc[g];
                    if xk != 0.0 {
                        for (&r, &val) in krows.iter().zip(kvals) {
                            xc[r as usize] -= val * xk;
                        }
                    }
                }
                continue;
            }
            // Wide source panel: its trapezoid holds the unit-lower
            // diagonal block (strict lower part; U values sit on the
            // diagonal) and the sub-diagonal L rows over the panel's
            // union row list, all finalized. Amalgamation-padded slots
            // hold exact ±0.0, so they contribute nothing to the TRSM
            // or the GEMM.
            let rows_t = self.panels.panel_rows(t);
            let m_t = rows_t.len();
            // SAFETY: panel t precedes s in the schedule — finalized,
            // no concurrent writes.
            let sx_t = std::slice::from_raw_parts(sx.add(self.sx_ptr[t]), m_t * v);
            // Gather the accumulator rows of the source's diagonal
            // block, transposed (targets × source columns): panel diag
            // rows are consecutive (g..g+v) by the nesting rule.
            let bt = &mut ws.bt[..w * v];
            for kk in 0..v {
                for c in 0..w {
                    bt[kk * w + c] = ws.x[c * n + g + kk];
                }
            }
            // Internal solve of the source panel applied to all target
            // columns at once: Bt := Bt · L_dd^{-T}  ⇔  B := L_dd^{-1} B.
            let t0 = if enabled { prof.now_ns() } else { 0 };
            trsm_right_lower_trans_unit(w, v, sx_t, m_t, bt, w);
            if enabled {
                let t1 = prof.now_ns();
                prof.add_span(
                    lane.id,
                    "trsm",
                    t0,
                    t1 - t0,
                    &[("m", w as f64), ("n", v as f64)],
                );
            }
            // Outer-panel update through dense GEMM, gathered into a
            // contiguous block and scattered back (rows need not be
            // contiguous below the source's diagonal block).
            let m_sub = m_t - v;
            if m_sub > 0 {
                let cbuf = &mut ws.cbuf[..m_sub * w];
                for c in 0..w {
                    let xc = &ws.x[c * n..(c + 1) * n];
                    for (i, &r) in rows_t[v..].iter().enumerate() {
                        cbuf[c * m_sub + i] = xc[r as usize];
                    }
                }
                let t0 = if enabled { prof.now_ns() } else { 0 };
                gemm_nt_sub(m_sub, w, v, &sx_t[v..], m_t, bt, w, cbuf, m_sub);
                if enabled {
                    let t1 = prof.now_ns();
                    let flops = 2.0 * m_sub as f64 * w as f64 * v as f64;
                    prof.add_span(
                        lane.id,
                        "gemm",
                        t0,
                        t1 - t0,
                        &[
                            ("m", m_sub as f64),
                            ("n", w as f64),
                            ("k", v as f64),
                            ("flops", flops),
                            ("gflops", flops / (t1 - t0).max(1) as f64),
                        ],
                    );
                }
                for c in 0..w {
                    let xc = &mut ws.x[c * n..(c + 1) * n];
                    for (i, &r) in rows_t[v..].iter().enumerate() {
                        xc[r as usize] = cbuf[c * m_sub + i];
                    }
                }
            }
            // Write the solved block back: these are the final U values
            // of the target columns at the source panel's rows.
            for kk in 0..v {
                for c in 0..w {
                    ws.x[c * n + g + kk] = bt[kk * w + c];
                }
            }
        }

        // --- The panel's own dense factorization, in its trapezoid.
        // SAFETY: this worker is the unique owner of panel s.
        let trap = std::slice::from_raw_parts_mut(sx.add(self.sx_ptr[s]), m * w);
        for c in 0..w {
            let xc = &ws.x[c * n..(c + 1) * n];
            for (i, &r) in rows.iter().enumerate() {
                trap[c * m + i] = xc[r as usize];
            }
        }
        let t0 = if enabled { prof.now_ns() } else { 0 };
        // `Vec::new` never allocates until a perturbation actually
        // fires, so the clean path costs one stack slot.
        let mut block_perturbed = Vec::new();
        if let Err(c) = getrf_nopiv_perturbed(w, trap, m, thresh, &mut block_perturbed) {
            lane.pivot(f + c, PivotStatus::Zero);
        }
        for c in block_perturbed {
            lane.pivot(f + c, PivotStatus::Perturbed);
        }
        if enabled {
            let t1 = prof.now_ns();
            prof.add_span(
                lane.id,
                "getrf",
                t0,
                t1 - t0,
                &[("width", w as f64), ("rows", m as f64)],
            );
        }
        if m > w {
            // Divide the sub-diagonal rows by the panel's U: copy the
            // factored diagonal block aside (TRSM reads U while writing
            // the sub-block of the same buffer).
            let db = &mut ws.bt[..w * w];
            for c in 0..w {
                for r in 0..=c {
                    db[c * w + r] = trap[c * m + r];
                }
            }
            let t0 = if enabled { prof.now_ns() } else { 0 };
            trsm_right_upper(m - w, w, db, w, &mut trap[w..], m);
            if enabled {
                let t1 = prof.now_ns();
                prof.add_span(
                    lane.id,
                    "trsm",
                    t0,
                    t1 - t0,
                    &[("m", (m - w) as f64), ("n", w as f64)],
                );
            }
        }

        // --- Write back through the fixed CSC layouts and clear the
        // accumulator by pattern (the scalar epilogue, blockwise).
        let u_ptr = &plan.u_col_ptr;
        let u_rows = &plan.u_row_idx;
        for c in 0..w {
            let j = f + c;
            let u_range = u_ptr[j]..u_ptr[j + 1];
            for p in u_range.clone() {
                let r = u_rows[p] as usize;
                let val = if r < f {
                    ws.x[c * n + r]
                } else {
                    trap[c * m + (r - f)]
                };
                *ux.add(p) = val;
            }
            // L write-back walks the column's own CSC pattern and
            // two-pointer-merges it against the panel's union rows
            // (both ascending; the CSC pattern is a subset). Under
            // strict nesting the merge degenerates to the contiguous
            // suffix c+1..m; under relaxed amalgamation it skips the
            // padded slots, which never reach the CSC factor.
            let l_range = l_ptr[j]..l_ptr[j + 1];
            *lx.add(l_range.start) = 1.0;
            let mut ri = c + 1;
            for p in l_range.start + 1..l_range.end {
                let r = l_rows[p];
                while rows[ri] != r {
                    ri += 1;
                }
                *lx.add(p) = trap[c * m + ri];
                ri += 1;
            }
            // The structural pivot is the diagonal of the panel's U.
            if trap[c * m + c] == 0.0 {
                lane.pivot(j, PivotStatus::Zero);
            }
            // Clear: U-pattern rows cover everything above the
            // diagonal (diagonal last), L-pattern rows everything
            // below; positions outside the pattern only ever hold
            // exact zeros.
            let xc = &mut ws.x[c * n..(c + 1) * n];
            for p in u_range {
                xc[u_rows[p] as usize] = 0.0;
            }
            for p in l_range.start + 1..l_range.end {
                xc[l_rows[p] as usize] = 0.0;
            }
        }
        lane.dense_flops += self.panel_flops[s];
        if enabled {
            let dur = prof.now_ns().saturating_sub(panel_t0);
            let fl = self.panel_flops[s] as f64;
            // GFLOP/s == flops / ns numerically.
            let gf = if dur > 0 { fl / dur as f64 } else { 0.0 };
            prof.end_with(
                panel_span,
                &[
                    ("panel", s as f64),
                    ("width", w as f64),
                    ("flops", fl),
                    ("gflops", gf),
                ],
            );
        }
    }

    /// Supernodal numeric factorization. Matches the serial plan to
    /// ~1e-12 (dense kernels reassociate sums; patterns and the
    /// zero-pivot column are identical), and is deterministic at every
    /// thread count — each panel executes one fixed operation sequence
    /// whichever worker runs it.
    pub fn factor(&self, a: &CscMatrix) -> Result<LuFactor, LuPlanError> {
        let plan = &self.plan;
        plan.check_pattern(a)?;
        let mut lx = vec![0.0f64; plan.l_nnz()];
        let mut ux = vec![0.0f64; plan.u_nnz()];
        let mut sx = vec![0.0f64; *self.sx_ptr.last().unwrap_or(&0)];
        let (l, u, t) = (
            SharedMut::new(&mut lx),
            SharedMut::new(&mut ux),
            SharedMut::new(&mut sx),
        );
        let thresh = plan.perturb_threshold(a);
        let columns = self.leveled.run(
            plan.profiler(),
            "factor:supernodal",
            || self.workspace(),
            |s, ws, lane| {
                // SAFETY: `l`/`u`/`t` address the full factor and
                // trapezoid arrays, and the executor runs panel s once,
                // after every source panel (its DAG predecessors) is
                // final and visible; no other task writes s's ranges.
                unsafe { self.panel_numeric(s, a, ws, l.get(), u.get(), t.get(), thresh, lane) }
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

    /// Emit the matrix-specialized supernodal C factorization kernel
    /// (the VS-Block artifact for LU): the panel table is embedded and
    /// wide panels call the dense mini-BLAS.
    pub fn emit_c(&self) -> String {
        crate::emit::emit_lu_supernodal_c(&self.panels, self.n_wide_panels(), self.dense_flop_share)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympiler_graph::ordering::Ordering as FillOrdering;
    use sympiler_sparse::{gen, ops};

    fn assert_close(a: &LuFactor, b: &LuFactor, tol: f64, what: &str) {
        assert!(a.l().same_pattern(b.l()), "{what}: L pattern");
        assert!(a.u().same_pattern(b.u()), "{what}: U pattern");
        for (x, y) in a.l().values().iter().zip(b.l().values()) {
            assert!(
                (x - y).abs() <= tol * (1.0 + y.abs()),
                "{what}: L {x} vs {y}"
            );
        }
        for (x, y) in a.u().values().iter().zip(b.u().values()) {
            assert!(
                (x - y).abs() <= tol * (1.0 + y.abs()),
                "{what}: U {x} vs {y}"
            );
        }
    }

    #[test]
    fn supernodal_matches_serial_on_grids_and_circuits() {
        for (label, a) in [
            ("convdiff", gen::convection_diffusion_2d(9, 8, 1.5, 3)),
            ("circuit", gen::circuit_unsym(150, 4, 2, 7)),
            ("random", gen::random_unsym(120, 4, 11)),
        ] {
            let serial = LuPlan::build(&a, true, 2).unwrap();
            let f_serial = serial.factor(&a).unwrap();
            for max_panel in [0usize, 4] {
                let sup = SupernodalLuPlan::from_plan(serial.clone(), max_panel, 1);
                let f_sup = sup.factor(&a).unwrap();
                assert_close(
                    &f_sup,
                    &f_serial,
                    1e-12,
                    &format!("{label} cap {max_panel}"),
                );
            }
        }
    }

    #[test]
    fn grid_problems_produce_wide_panels() {
        let a = gen::convection_diffusion_2d(10, 10, 1.0, 5);
        let sup = SupernodalLuPlan::from_plan(
            LuPlan::build_ordered(&a, true, 2, FillOrdering::Natural).unwrap(),
            0,
            1,
        );
        assert!(sup.n_wide_panels() > 0, "grid fill must block");
        assert!(sup.mean_panel_width() > 1.0);
        assert!(sup.max_panel_width() > 1);
        assert!(sup.dense_flop_share() > 0.0 && sup.dense_flop_share() <= 1.0);
    }

    #[test]
    fn ordered_supernodal_matches_ordered_serial() {
        let a = gen::circuit_unsym(140, 4, 2, 9);
        for ordering in [FillOrdering::Rcm, FillOrdering::Colamd] {
            let serial = LuPlan::build_ordered(&a, true, 2, ordering).unwrap();
            let f_serial = serial.factor(&a).unwrap();
            let sup = SupernodalLuPlan::from_plan(serial, 16, 1);
            let f_sup = sup.factor(&a).unwrap();
            assert_close(&f_sup, &f_serial, 1e-12, &format!("{ordering:?}"));
            // And the solve still answers the original system.
            let n = a.n_cols();
            let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
            let x = f_sup.solve(&b);
            assert!(ops::rel_residual(&a, &x, &b) < 1e-10, "{ordering:?}");
        }
    }

    #[test]
    fn parallel_panels_match_single_thread_bitwise() {
        // Panel execution is a fixed operation sequence per panel, so
        // thread count must not change a single bit.
        let a = gen::convection_diffusion_2d(9, 9, 2.0, 13);
        let one = SupernodalLuPlan::from_plan(
            LuPlan::build_ordered(&a, true, 2, FillOrdering::Natural).unwrap(),
            8,
            1,
        );
        let f1 = one.factor(&a).unwrap();
        for threads in [2usize, 3, 4] {
            let par = SupernodalLuPlan::from_plan(one.serial().clone(), 8, threads);
            assert_eq!(par.leveled().n_threads(), threads);
            let fp = par.factor(&a).unwrap();
            for (x, y) in f1
                .l()
                .values()
                .iter()
                .chain(f1.u().values())
                .zip(fp.l().values().iter().chain(fp.u().values()))
            {
                assert_eq!(x.to_bits(), y.to_bits(), "{threads} threads");
            }
        }
    }

    #[test]
    fn panel_levels_cover_all_panels_and_respect_deps() {
        let a = gen::circuit_unsym(90, 4, 2, 3);
        let sup = SupernodalLuPlan::from_plan(
            LuPlan::build_ordered(&a, true, 2, FillOrdering::Colamd).unwrap(),
            8,
            3,
        );
        let mut seen = vec![false; sup.n_panels()];
        for lv in 0..sup.leveled().n_levels() {
            let mut level: Vec<usize> = Vec::new();
            for t in 0..sup.leveled().n_threads() {
                level.extend_from_slice(sup.leveled().chunk(lv, t));
            }
            for &s in &level {
                assert!(!seen[s], "panel {s} scheduled twice");
                seen[s] = true;
                for &t in &sup.upd_panels[sup.upd_ptr[s]..sup.upd_ptr[s + 1]] {
                    assert!(seen[t as usize], "source panel {t} must precede {s}");
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "all panels scheduled");
        assert!(sup.leveled().avg_parallelism() >= 1.0);
        assert!(sup.leveled().n_barriers() < sup.leveled().n_levels().max(1));
    }

    #[test]
    fn zero_pivot_reported_like_serial() {
        // Zero a diagonal value inside what becomes a wide panel: the
        // supernodal engine must report the same column as serial.
        let n = 6;
        let mut t = sympiler_sparse::TripletMatrix::new(n, n);
        for j in 0..n {
            for i in 0..n {
                t.push(i, j, if i == j { 10.0 } else { 1.0 });
            }
        }
        let a0 = t.to_csc().unwrap();
        let serial = LuPlan::build(&a0, true, 2).unwrap();
        let sup = SupernodalLuPlan::from_plan(serial.clone(), 0, 1);
        assert_eq!(sup.n_panels(), 1, "dense matrix is one panel");
        let f_ok = sup.factor(&a0).unwrap();
        assert_close(&f_ok, &serial.factor(&a0).unwrap(), 1e-12, "dense");
        // A singular leading 2x2 block: A[1,1] chosen so the second
        // pivot cancels exactly under the first elimination step.
        let mut a = a0.clone();
        let a_dense = a.to_dense();
        let (a00, a01, a10) = (a_dense[0], a_dense[n], a_dense[1]);
        let idx = a.find(1, 1).unwrap();
        a.values_mut()[idx] = a10 * a01 / a00;
        let serial_err = serial.factor(&a).unwrap_err();
        let sup_err = sup.factor(&a).unwrap_err();
        assert_eq!(serial_err, sup_err);
        assert!(matches!(sup_err, LuPlanError::ZeroPivot { column: 1 }));
    }

    #[test]
    fn singleton_only_patterns_degenerate_to_scalar() {
        // A diagonal matrix never blocks: every panel is a singleton
        // and the engine is exactly the scalar plan.
        let a = CscMatrix::identity(9);
        let sup = SupernodalLuPlan::from_plan(
            LuPlan::build_ordered(&a, true, 2, FillOrdering::Natural).unwrap(),
            0,
            2,
        );
        assert_eq!(sup.n_wide_panels(), 0);
        assert_eq!(sup.dense_flop_share(), 0.0);
        let f = sup.factor(&a).unwrap();
        assert_eq!(f.solve(&[3.0; 9]), vec![3.0; 9]);
    }

    #[test]
    fn repeated_factorization_reuses_the_panel_schedule() {
        let a0 = gen::convection_diffusion_2d(7, 7, 1.0, 2);
        let sup = SupernodalLuPlan::from_plan(
            LuPlan::build_ordered(&a0, true, 2, FillOrdering::Natural).unwrap(),
            8,
            1,
        );
        let mut a = a0.clone();
        for round in 1..=3 {
            for v in a.values_mut() {
                *v *= 1.0 + 0.03 / round as f64;
            }
            let serial = LuPlan::build(&a, true, 2).unwrap().factor(&a).unwrap();
            let f = sup.factor(&a).unwrap();
            assert_close(&f, &serial, 1e-12, &format!("round {round}"));
        }
    }

    #[test]
    #[should_panic(expected = "panels must partition the plan's columns")]
    fn from_panels_rejects_overlapping_panels() {
        // Panels [0, 2) and [1, 4) would both own column 1, and two
        // workers would write it concurrently.
        let a = gen::convection_diffusion_2d(2, 2, 1.0, 1);
        let plan = LuPlan::build(&a, true, 2).unwrap();
        let mut panels = plan.panels(0, 0.0, 0);
        panels.part.first_col = vec![0, 2, 1, 4];
        panels.part.col_to_super = vec![0, 2, 2, 2];
        SupernodalLuPlan::from_panels(plan, panels, 2);
    }

    #[test]
    fn empty_matrix() {
        let a = CscMatrix::zeros(0, 0);
        let sup = SupernodalLuPlan::from_plan(
            LuPlan::build_ordered(&a, true, 2, FillOrdering::Natural).unwrap(),
            0,
            2,
        );
        assert_eq!(sup.n_panels(), 0);
        assert_eq!(sup.mean_panel_width(), 0.0);
        let f = sup.factor(&a).unwrap();
        assert_eq!(f.l().nnz(), 0);
    }
}
