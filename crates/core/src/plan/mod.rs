//! Executable plans: inspection sets compiled into flat instruction
//! streams.
//!
//! The paper's Sympiler emits C and compiles it with GCC; the numeric
//! binary then contains *no* symbolic work — every loop bound, every
//! index, every kernel choice is already resolved. The plans here are
//! the same object in library form: [`tri::TriSolvePlan`],
//! [`chol::CholPlan`], and [`lu::LuPlan`] hold precomputed schedules
//! (pruned column lists, packed panels, descendant-update scatter maps,
//! per-column LU update schedules, kernel selections), and their
//! `solve`/`factor` methods execute only numeric loads, stores, and
//! floating-point operations. See DESIGN.md §2 for the substitution
//! argument.
//!
//! The LU pipeline compiles to one of three execution tiers:
//! [`lu::LuPlan`] (serial columns), [`lu_parallel::ParallelLuPlan`]
//! (columns leveled over the elimination DAG across workers), and
//! [`lu_supernodal::SupernodalLuPlan`] (VS-Block column panels routed
//! through dense GETRF/TRSM/GEMM kernels, leveled over the panel DAG).
//! Both leveled tiers compile their DAG into one [`leveled::Leveled`]
//! schedule and run it on the same executor.

pub mod chol;
pub mod leveled;
pub mod lu;
pub mod lu_parallel;
pub mod lu_supernodal;
pub mod tri;
pub mod tri_parallel;

/// Kernel tier selected at compile (inspection) time for a dense
/// sub-block — the low-level-transformation decision of §2.4(3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelChoice {
    /// Fully unrolled specialized kernel (width 1..=4).
    Specialized,
    /// Generic mini-BLAS kernel.
    Generic,
}

impl KernelChoice {
    /// The width-based dispatch rule used by both plans.
    pub fn for_width(width: usize, low_level: bool) -> Self {
        if low_level && width <= 4 {
            KernelChoice::Specialized
        } else {
            KernelChoice::Generic
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_dispatch_rule() {
        assert_eq!(KernelChoice::for_width(1, true), KernelChoice::Specialized);
        assert_eq!(KernelChoice::for_width(4, true), KernelChoice::Specialized);
        assert_eq!(KernelChoice::for_width(5, true), KernelChoice::Generic);
        assert_eq!(KernelChoice::for_width(2, false), KernelChoice::Generic);
    }
}
