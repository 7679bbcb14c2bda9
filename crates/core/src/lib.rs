//! # sympiler-core
//!
//! The Sympiler itself (SC'17): a domain-specific code generator that
//! **decouples symbolic analysis from numeric computation** for sparse
//! matrix kernels with static sparsity patterns.
//!
//! Pipeline (paper Figure 2):
//!
//! 1. [`inspector`] — compile-time *symbolic inspectors*: one per
//!    (numerical method × transformation) pair, each combining an
//!    inspection graph, an inspection strategy, and an inspection set
//!    (Table 1).
//! 2. [`lower`] — lowering the kernel into a domain-specific AST
//!    annotated with transformation candidates (Figure 2a).
//! 3. [`transform`] — the inspector-guided transformations **VI-Prune**
//!    (variable iteration-space pruning, Figure 3 top) and **VS-Block**
//!    (2-D variable-sized blocking, Figure 3 bottom), plus the enabled
//!    low-level transformations (peeling, unrolling, distribution,
//!    scalar replacement).
//! 4. [`emit`] — C code generation from the transformed AST (the
//!    paper's output artifact; golden-tested against Figure 1e's
//!    structure).
//! 5. [`plan`] — *executable plans*: the same inspection sets compiled
//!    into flat, pattern-specialized instruction streams executed by
//!    static Rust loops. This is the benchmarked "Sympiler (numeric)"
//!    code path (see DESIGN.md §2 for why this substitutes for running
//!    GCC on the emitted C). Plans also execute level-scheduled across
//!    threads: `plan::tri_parallel` (wavefronts of `DG_L`), and the
//!    column and panel elimination DAGs of LU through the one executor
//!    of `plan::leveled`.
//! 6. [`compile`] — the user-facing driver: [`compile::SympilerTriSolve`]
//!    and [`compile::SympilerCholesky`].
//! 7. [`serve`] — the serving layer over the compiled pipeline: a
//!    structural-hash plan cache, batched factor/solve entry points,
//!    and a thread-pool front end for request streams.

pub mod ast;
pub mod compile;
pub mod emit;
pub mod inspector;
pub mod interp;
pub mod lower;
pub mod plan;
pub mod report;
pub mod robust;
pub mod serve;
pub mod transform;

pub use compile::{
    BlockLu, Ordering, PrePivot, SympilerCholesky, SympilerLu, SympilerOptions, SympilerTriSolve,
};
pub use plan::lu::{BatchError, LuWorkspace, PerturbReport, RefineReport};
pub use report::SymbolicReport;
pub use robust::{Recovered, RecoveryError, RecoveryPolicy, RobustLu, Rung};
pub use serve::{
    CacheConfig, CacheStats, CachedPlan, FactorService, PlanCache, ServeError, ServeRequest,
    ServeResponse, Ticket,
};
// Observability layer (spans, counters, health monitors) — re-exported
// so downstream users can drive profiling without naming the obs crate.
pub use sympiler_obs::{
    Event, EventJournal, Histogram, HistogramSummary, LuHealth, MetricsRegistry, MetricsSnapshot,
    Profile, Profiler, TraceFile,
};
