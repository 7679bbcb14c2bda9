//! Edge-case integration tests: degenerate sizes, empty inputs,
//! extreme options — the inputs a downstream user will eventually feed
//! the library.

use sympiler::prelude::*;
use sympiler::sparse::gen;

#[test]
fn one_by_one_system() {
    let mut t = TripletMatrix::new(1, 1);
    t.push(0, 0, 9.0);
    let a = t.to_csc().unwrap();
    let chol = SympilerCholesky::compile(&a, &SympilerOptions::default()).unwrap();
    let f = chol.factor(&a).unwrap();
    let l = f.to_csc();
    assert!((l.get(0, 0) - 3.0).abs() < 1e-15);
    let x = f.solve(&[18.0]);
    assert!((x[0] - 2.0).abs() < 1e-12);
}

#[test]
fn empty_rhs_trisolve_plan() {
    let l = gen::random_lower_triangular(20, 2, 1);
    let mut ts = SympilerTriSolve::compile(&l, &[], &SympilerOptions::default());
    assert_eq!(ts.reach().len(), 0);
    assert_eq!(ts.flops(), 0);
    let b = SparseVec::zeros(20);
    let x = ts.solve(&b);
    assert!(x.iter().all(|&v| v == 0.0));
}

#[test]
fn rhs_at_last_column_only() {
    let l = gen::random_lower_triangular(30, 3, 2);
    let b = SparseVec::try_new(30, vec![29], vec![7.0]).unwrap();
    let mut ts = SympilerTriSolve::compile(&l, b.indices(), &SympilerOptions::default());
    assert_eq!(ts.reach(), &[29], "last column reaches nothing else");
    let x = ts.solve(&b);
    assert!((x[29] - 7.0 / l.get(29, 29)).abs() < 1e-12);
    assert_eq!(x.iter().filter(|&&v| v != 0.0).count(), 1);
}

#[test]
fn dense_rhs_equals_unpruned_plan() {
    let l = gen::random_lower_triangular(25, 3, 3);
    let beta: Vec<usize> = (0..25).collect();
    let values = vec![1.0; 25];
    let b = SparseVec::try_new(25, beta.clone(), values).unwrap();
    let mut ts = SympilerTriSolve::compile(&l, &beta, &SympilerOptions::default());
    assert_eq!(ts.reach().len(), 25);
    let x = ts.solve(&b);
    let mut expect = b.to_dense();
    sympiler::solvers::trisolve::naive_forward(&l, &mut expect);
    for (p, q) in x.iter().zip(&expect) {
        assert!((p - q).abs() < 1e-11);
    }
}

#[test]
fn extreme_supernode_width_caps() {
    let a = gen::banded_spd(30, 5, 4);
    for width in [1usize, 2, 64, 1000] {
        let opts = SympilerOptions {
            max_supernode_width: width,
            ..Default::default()
        };
        let chol = SympilerCholesky::compile(&a, &opts).unwrap();
        let f = chol.factor(&a).unwrap();
        let b = vec![1.0; 30];
        let x = f.solve(&b);
        let resid = sympiler::sparse::ops::rel_residual_sym_lower(&a, &x, &b);
        assert!(resid < 1e-12, "width cap {width}: residual {resid}");
    }
}

#[test]
fn all_options_off_still_correct() {
    let a = gen::grid2d_laplacian(6, 6, false, 5);
    let opts = SympilerOptions {
        vs_block: false,
        vi_prune: false,
        low_level: false,
        ..Default::default()
    };
    let chol = SympilerCholesky::compile(&a, &opts).unwrap();
    let f = chol.factor(&a).unwrap();
    let l_ref = sympiler::solvers::SimplicialCholesky::analyze(&a)
        .unwrap()
        .factor(&a)
        .unwrap();
    for (p, q) in f.to_csc().values().iter().zip(l_ref.values()) {
        assert!((p - q).abs() < 1e-9);
    }
    // Trisolve with everything off.
    let l = f.to_csc();
    let b = SparseVec::try_new(36, vec![0], vec![1.0]).unwrap();
    let mut ts = SympilerTriSolve::compile(&l, b.indices(), &opts);
    let x = ts.solve(&b);
    let mut expect = b.to_dense();
    sympiler::solvers::trisolve::naive_forward(&l, &mut expect);
    for (p, q) in x.iter().zip(&expect) {
        assert!((p - q).abs() < 1e-11);
    }
}

#[test]
fn huge_peel_threshold_disables_peeling() {
    let l = gen::random_lower_triangular(40, 5, 6);
    let beta: Vec<usize> = vec![0, 3];
    let opts = SympilerOptions {
        peel_col_count: usize::MAX,
        ..Default::default()
    };
    let ts = SympilerTriSolve::compile(&l, &beta, &opts);
    assert_eq!(ts.plan().n_peeled(), 0);
    // Threshold 0 peels everything reached (every column has >= 1 nnz).
    let opts0 = SympilerOptions {
        peel_col_count: 0,
        vs_block: false,
        ..Default::default()
    };
    let ts0 = SympilerTriSolve::compile(&l, &beta, &opts0);
    assert_eq!(ts0.plan().n_peeled(), ts0.reach().len());
}

#[test]
fn zero_matrix_dimension() {
    let a = CscMatrix::zeros(0, 0);
    let chol = SympilerCholesky::compile(&a, &SympilerOptions::default()).unwrap();
    let f = chol.factor(&a).unwrap();
    assert_eq!(f.solve(&[]).len(), 0);
}

#[test]
fn values_scaled_by_tiny_and_huge_factors() {
    // Numeric robustness across magnitudes (pattern constant).
    let a0 = gen::grid2d_laplacian(5, 5, false, 7);
    let chol = SympilerCholesky::compile(&a0, &SympilerOptions::default()).unwrap();
    for scale in [1e-150, 1e-30, 1e30, 1e150] {
        let mut a = a0.clone();
        for v in a.values_mut() {
            *v *= scale;
        }
        let f = chol.factor(&a).unwrap();
        let b = vec![scale; 25];
        let x = f.solve(&b);
        let resid = sympiler::sparse::ops::rel_residual_sym_lower(&a, &x, &b);
        assert!(resid < 1e-10, "scale {scale:e}: residual {resid}");
    }
}

#[test]
fn lu_one_by_one_system() {
    let mut t = TripletMatrix::new(1, 1);
    t.push(0, 0, 4.0);
    let a = t.to_csc().unwrap();
    let lu = SympilerLu::compile(&a, &SympilerOptions::default()).unwrap();
    let f = lu.factor(&a).unwrap();
    assert_eq!(f.l().get(0, 0), 1.0);
    assert_eq!(f.u().get(0, 0), 4.0);
    let x = f.solve(&[12.0]);
    assert!((x[0] - 3.0).abs() < 1e-15);
}

#[test]
fn lu_diagonal_matrix_is_trivial() {
    let mut t = TripletMatrix::new(6, 6);
    for j in 0..6 {
        t.push(j, j, (j + 1) as f64);
    }
    let a = t.to_csc().unwrap();
    let lu = SympilerLu::compile(&a, &SympilerOptions::default()).unwrap();
    assert_eq!(lu.plan().n_updates(), 0, "diagonal needs no updates");
    let f = lu.factor(&a).unwrap();
    assert_eq!(f.l().nnz(), 6);
    assert_eq!(f.u().nnz(), 6);
    let b: Vec<f64> = (1..=6).map(|i| i as f64).collect();
    let x = f.solve(&b);
    for v in x {
        assert!((v - 1.0).abs() < 1e-15);
    }
}

#[test]
fn lu_fully_dense_column_fills_and_factors() {
    // A dense first row + column (arrow) plus a superdiagonal chain:
    // the worst-case single column stays exact.
    let n = 12;
    let mut t = TripletMatrix::new(n, n);
    for j in 0..n {
        t.push(j, j, 10.0 + j as f64);
    }
    for i in 1..n {
        t.push(i, 0, -0.5);
        t.push(0, i, -0.25);
        if i >= 2 {
            t.push(i - 1, i, -0.125);
        }
    }
    let a = t.to_csc().unwrap();
    let lu = SympilerLu::compile(&a, &SympilerOptions::default()).unwrap();
    let f = lu.factor(&a).unwrap();
    // Column 0 of L is fully dense.
    assert_eq!(f.l().col_nnz(0), n);
    let base = GpLu::factor(&a, Pivoting::None).unwrap();
    assert!(f.l().same_pattern(&base.l));
    for (p, q) in f.l().values().iter().zip(base.l.values()) {
        assert!((p - q).abs() < 1e-12);
    }
    let b = vec![1.0; n];
    let x = f.solve(&b);
    assert!(sympiler::sparse::ops::rel_residual(&a, &x, &b) < 1e-12);
}

#[test]
fn lu_pattern_mismatch_and_zero_pivot_are_reported() {
    let a = gen::random_unsym(15, 3, 1);
    let lu = SympilerLu::compile(&a, &SympilerOptions::default()).unwrap();
    let other = gen::random_unsym(15, 3, 2);
    assert!(lu.factor(&other).is_err(), "pattern mismatch must fail");
    let mut t = TripletMatrix::new(2, 2);
    t.push(0, 0, 1.0);
    t.push(1, 1, 1.0);
    let d = t.to_csc().unwrap();
    let lu = SympilerLu::compile(&d, &SympilerOptions::default()).unwrap();
    let mut bad = d.clone();
    bad.values_mut()[0] = 0.0;
    assert!(lu.factor(&bad).is_err(), "zero pivot must fail");
}

#[test]
fn parallel_solver_handles_degenerate_inputs() {
    use sympiler::core::plan::tri_parallel::ParallelTriSolve;
    let l = CscMatrix::identity(5);
    let solver = ParallelTriSolve::build(&l, &[2], 3);
    assert_eq!(solver.n_levels(), 1);
    let b = SparseVec::try_new(5, vec![2], vec![4.0]).unwrap();
    let mut x = vec![0.0; 5];
    solver.solve(&b, &mut x);
    assert_eq!(x[2], 4.0);
}
