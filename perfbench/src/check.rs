//! The benchmark's own answer check.
//!
//! `ops::componentwise_berr` and `ops::rel_residual` fold with
//! `f64::max`, which drops NaN, so an all-NaN solution scores 0 there.
//! This check propagates every non-finite value into a rejection.

use sympiler_sparse::CscMatrix;

/// Largest componentwise backward error an accepted solve may have.
pub const BERR_TOL: f64 = 1e-10;

/// `max_i |b - A x|_i / (|A| |x| + |b|)_i`, NaN when any input or
/// intermediate is non-finite.
pub fn backward_error(a: &CscMatrix, x: &[f64], b: &[f64]) -> f64 {
    let n = a.n_rows();
    if x.len() != a.n_cols() || b.len() != n {
        return f64::NAN;
    }
    if x.iter().chain(b).any(|v| !v.is_finite()) {
        return f64::NAN;
    }
    let mut ax = vec![0.0f64; n];
    let mut den = vec![0.0f64; n];
    for (j, &xj) in x.iter().enumerate() {
        for (i, v) in a.col_iter(j) {
            ax[i] += v * xj;
            den[i] += v.abs() * xj.abs();
        }
    }
    let mut berr = 0.0f64;
    for i in 0..n {
        let num = (b[i] - ax[i]).abs();
        let d = den[i] + b[i].abs();
        let e = if d > 0.0 {
            num / d
        } else if num > 0.0 {
            f64::INFINITY
        } else {
            0.0
        };
        // Unlike `f64::max`, this keeps a NaN once it appears.
        if e.is_nan() || e > berr {
            berr = e;
        }
    }
    berr
}

/// Attempted and failed operations of one run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation; `ok == false` is an error, a timeout or a
    /// wrong answer.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Count one solve, checked against `A x = b`.
    pub fn check(&mut self, a: &CscMatrix, x: &[f64], b: &[f64]) -> bool {
        let ok = backward_error(a, x, b) <= BERR_TOL;
        self.record(ok);
        ok
    }
}

/// Feed the check one true solution and two doctored ones (all NaN,
/// and a wrong finite one); both doctored solutions must land in the
/// failure count. Runs at the start of every benchmark run.
pub fn self_test() -> Result<(), String> {
    use sympiler_core::{SympilerLu, SympilerOptions};
    let a = sympiler_sparse::gen::circuit_unsym(80, 4, 2, 3);
    let b: Vec<f64> = (0..80).map(|i| 1.0 + (i % 7) as f64).collect();
    let lu = SympilerLu::compile(&a, &SympilerOptions::default()).map_err(|e| e.to_string())?;
    let x = lu.factor(&a).map_err(|e| e.to_string())?.solve(&b);
    let nan = vec![f64::NAN; 80];
    let mut wrong = x.clone();
    wrong[40] *= 1.0 + 1e-6;
    let mut t = Tally::default();
    t.check(&a, &x, &b);
    t.check(&a, &nan, &b);
    t.check(&a, &wrong, &b);
    if (t.attempted, t.failed) == (3, 2) {
        Ok(())
    } else {
        Err(format!(
            "answer check self-test: expected 2 of 3 failed, got {} of {}",
            t.failed, t.attempted
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doctored_solutions_count_as_failures() {
        self_test().unwrap();
    }
}
