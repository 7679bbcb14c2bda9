//! Golden test: the paper's Figure 1 running example, end to end.
//!
//! The 10x10 lower-triangular system with b = {1, 6} (1-based) must
//! produce the reach-set {1,6,7,8,9,10}, peel exactly columns 1 and 8
//! (1-based; 0-based 0 and 7, the two columns with column count 3), and
//! the specialized C must contain the constants the paper's Figure 1e
//! shows (`Lx[20]` as the diagonal of column 8, the `p = 21..23` loop).

use sympiler::core::emit::emit_trisolve_c;
use sympiler::prelude::*;
use sympiler::solvers::trisolve;

fn fig1_l() -> CscMatrix {
    let edges_1based: &[(usize, usize)] = &[
        (6, 1),
        (10, 1),
        (3, 2),
        (5, 2),
        (6, 3),
        (9, 3),
        (6, 4),
        (8, 4),
        (9, 4),
        (6, 5),
        (9, 5),
        (7, 6),
        (8, 7),
        (9, 8),
        (10, 8),
        (10, 9),
    ];
    let mut t = TripletMatrix::new(10, 10);
    for j in 0..10 {
        t.push(j, j, 2.0);
    }
    for &(i, j) in edges_1based {
        t.push(i - 1, j - 1, -0.1);
    }
    t.to_csc().unwrap()
}

#[test]
fn reach_set_matches_paper() {
    let l = fig1_l();
    let r = sympiler::graph::reach(&l, &[0, 5]);
    let set: std::collections::BTreeSet<usize> = r.iter().copied().collect();
    assert_eq!(
        set,
        [0usize, 5, 6, 7, 8, 9].into_iter().collect(),
        "Reach_L({{1,6}}) = {{1,6,7,8,9,10}} (1-based)"
    );
}

#[test]
fn column_counts_match_figure_1e_constants() {
    let l = fig1_l();
    // Column 1 (0-based 0): 3 stored entries (code peels it and loops
    // p = 1..3).
    assert_eq!(l.col_nnz(0), 3);
    assert_eq!(l.col_ptr()[0], 0);
    // Column 8 (0-based 7): diagonal at Lx[20], loops p = 21..23.
    assert_eq!(l.col_ptr()[7], 20, "diagonal of column 8 must be Lx[20]");
    assert_eq!(l.col_nnz(7), 3);
    // The other reached columns have column count <= 2 (not peeled).
    for j in [5usize, 6, 8, 9] {
        assert!(l.col_nnz(j) <= 2, "column {j} must not be peeled");
    }
}

#[test]
fn plan_peels_exactly_the_two_heavy_columns() {
    let l = fig1_l();
    let ts = SympilerTriSolve::compile(&l, &[0, 5], &SympilerOptions::default());
    assert_eq!(
        ts.plan().n_peeled(),
        2,
        "peel threshold 2 selects columns 0 and 7 (0-based) only"
    );
}

#[test]
fn generated_c_reproduces_figure_1e_structure() {
    let l = fig1_l();
    let mut reach = sympiler::graph::reach(&l, &[0, 5]);
    reach.sort_unstable();
    let c = emit_trisolve_c(&l, &reach, 2);
    // Peeled column 0 with concrete constants.
    assert!(c.contains("x[0] /= Lx[0]; /* peel col 0 */"), "\n{c}");
    assert!(c.contains("for (int p = 1; p < 3; p++)"), "\n{c}");
    // Peeled column 7 (1-based 8) with the paper's exact constants.
    assert!(c.contains("x[7] /= Lx[20]; /* peel col 7 */"), "\n{c}");
    assert!(c.contains("for (int p = 21; p < 23; p++)"), "\n{c}");
    // The pruned loop over the embedded reach set.
    assert!(c.contains("reachSet"), "\n{c}");
    assert!(c.contains("x[j] /= Lx[Lp[j]];"), "\n{c}");
}

#[test]
fn all_five_implementations_agree_on_fig1() {
    let l = fig1_l();
    let b = SparseVec::try_new(10, vec![0, 5], vec![3.0, -1.0]).unwrap();
    // Figure 1b: naive.
    let mut x_naive = b.to_dense();
    trisolve::naive_forward(&l, &mut x_naive);
    // Figure 1c: library.
    let mut x_lib = b.to_dense();
    trisolve::library_forward(&l, &mut x_lib);
    // Figure 1d: decoupled.
    let reach = sympiler::graph::reach(&l, b.indices());
    let mut x_dec = vec![0.0; 10];
    trisolve::decoupled_forward(&l, &b, &reach, &mut x_dec);
    // Figure 1e: Sympiler plan.
    let mut ts = SympilerTriSolve::compile(&l, b.indices(), &SympilerOptions::default());
    let x_symp = ts.solve(&b);
    for i in 0..10 {
        assert!((x_naive[i] - x_lib[i]).abs() < 1e-14);
        assert!((x_naive[i] - x_dec[i]).abs() < 1e-14);
        assert!((x_naive[i] - x_symp[i]).abs() < 1e-12);
    }
    // The white vertices of Figure 1a ({2,3,4,5} 1-based) stay zero.
    for j in [1usize, 2, 3, 4] {
        assert_eq!(x_naive[j], 0.0, "column {} must be skipped", j + 1);
    }
}

#[test]
fn parallel_executor_agrees_on_fig1() {
    let l = fig1_l();
    let b = SparseVec::try_new(10, vec![0, 5], vec![3.0, -1.0]).unwrap();
    let mut x_ref = b.to_dense();
    trisolve::naive_forward(&l, &mut x_ref);
    let solver = sympiler::core::plan::tri_parallel::ParallelTriSolve::build(&l, b.indices(), 2);
    let mut x = vec![0.0; 10];
    solver.solve(&b, &mut x);
    for i in 0..10 {
        assert!((x[i] - x_ref[i]).abs() < 1e-12);
    }
}
