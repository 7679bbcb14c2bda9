//! The serving layer: compile once, serve many.
//!
//! Sympiler's economics come from reuse — symbolic analysis is paid
//! once per sparsity pattern, then amortized over every numeric
//! factorization with that pattern. This module packages that reuse
//! for request-stream workloads (circuit transients, Newton loops,
//! parameter sweeps) where the caller cannot or should not manage
//! plan lifetimes by hand:
//!
//! * [`PlanCache`] — a concurrent cache of compiled [`SympilerLu`]
//!   plans keyed by a structural hash of `(pattern, options)`, with
//!   LRU eviction bounded by entry count and resident table bytes.
//!   Lookups return `Arc<CachedPlan>`: the plan's gather tables are
//!   shared, never cloned, and N threads factor against one plan
//!   concurrently (per-factorization state lives in a
//!   [`LuWorkspace`], not the plan).
//! * [`FactorService`] — a thread-pool front end accepting
//!   factor(+solve) requests, routing every request through one
//!   shared cache and per-worker workspaces.
//!
//! Batched numeric entry points live on the plan types themselves:
//! [`LuPlan::factor_batch`](crate::plan::lu::LuPlan::factor_batch)
//! (column-interleaved same-pattern batches) and
//! [`LuFactor::solve_batch`] (blocked multi-RHS sweeps).
//!
//! Everything here is observational-layer honest: cached, batched,
//! and served results are **bitwise identical** to direct
//! [`SympilerLu::compile`] + [`SympilerLu::factor`] calls.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering as MemOrder};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::compile::{SympilerLu, SympilerOptions};
use crate::plan::lu::{LuFactor, LuPlanError, LuWorkspace};
use sympiler_obs::{Profiler, MAX_LANES};
use sympiler_sparse::CscMatrix;

/// Deterministic fault-injection hooks for the serving tier, used by
/// the robustness tests and `robust_bench` to prove that worker
/// failures neither hang a [`Ticket`] nor kill the [`FactorService`]
/// pool. Each `arm_*` call arms the *next* `n` jobs processed by any
/// worker; unarmed (the steady state) the hooks are two relaxed
/// atomic loads per job. Not part of the public API.
#[doc(hidden)]
pub mod fault {
    use std::sync::atomic::{AtomicUsize, Ordering};

    static PANICS: AtomicUsize = AtomicUsize::new(0);
    static DEATHS: AtomicUsize = AtomicUsize::new(0);

    /// Arm a *soft* fault: the next `n` jobs panic inside the
    /// worker's `catch_unwind` guard, so the ticket receives
    /// [`super::ServeError::WorkerPanic`] and the worker survives.
    pub fn arm_worker_panics(n: usize) {
        PANICS.store(n, Ordering::SeqCst);
    }

    /// Arm a *hard* fault: the next `n` jobs kill their worker thread
    /// outside the guard, so the ticket's reply sender is dropped
    /// (mapped to [`super::ServeError::Disconnected`]) and the pool
    /// respawns the worker on the next submit.
    pub fn arm_worker_deaths(n: usize) {
        DEATHS.store(n, Ordering::SeqCst);
    }

    /// Disarm both hooks (test hygiene between cases).
    pub fn disarm() {
        PANICS.store(0, Ordering::SeqCst);
        DEATHS.store(0, Ordering::SeqCst);
    }

    fn take(c: &AtomicUsize) -> bool {
        c.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .is_ok()
    }

    pub(super) fn maybe_panic() {
        if take(&PANICS) {
            panic!("injected worker panic (fault hook)");
        }
    }

    pub(super) fn maybe_die() {
        if take(&DEATHS) {
            panic!("injected worker death (fault hook)");
        }
    }
}

/// What a serving request can fail with — the typed surface a
/// [`Ticket`] resolves to. `Plan` wraps the numeric/compile errors of
/// the pipeline; the other variants are serving-infrastructure
/// failures, which is exactly why they are distinct: a caller retries
/// a `WorkerPanic` or `Timeout`, but not a `Plan(ZeroPivot)`.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Compilation or factorization failed (root cause via
    /// [`std::error::Error::source`]).
    Plan(LuPlanError),
    /// The worker processing this request panicked; the panic was
    /// isolated and the worker kept serving.
    WorkerPanic {
        /// The panic payload, when it was a string.
        detail: String,
    },
    /// The worker died (or the service was dropped) before replying —
    /// the reply channel disconnected. The request may or may not
    /// have executed.
    Disconnected,
    /// [`Ticket::wait_timeout`] gave up waiting.
    Timeout {
        /// How long the caller waited.
        waited: Duration,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Plan(e) => write!(f, "serve: {e}"),
            ServeError::WorkerPanic { detail } => {
                write!(f, "serving worker panicked: {detail}")
            }
            ServeError::Disconnected => f.write_str("serving worker disconnected before replying"),
            ServeError::Timeout { waited } => {
                write!(f, "serve reply timed out after {waited:?}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Plan(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LuPlanError> for ServeError {
    fn from(e: LuPlanError) -> Self {
        ServeError::Plan(e)
    }
}

/// FNV-1a, the same spirit as the vendored deterministic hashers:
/// stable across runs and platforms, so cache keys (and therefore
/// bench-reported hit rates) are reproducible.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv_u64(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// The cache key: a 64-bit FNV-1a digest of the sparsity pattern
/// (`n`, column pointers, row indices — **not** values) and every
/// compile-relevant field of [`SympilerOptions`]. Two requests whose
/// matrices share a pattern and whose options compare equal always
/// hash equal; the converse is only probabilistic, which is why
/// [`PlanCache`] verifies candidates with an exact pattern check and
/// an options comparison before reporting a hit.
pub fn structural_hash(a: &CscMatrix, opts: &SympilerOptions) -> u64 {
    let mut h = FNV_OFFSET;
    fnv_u64(&mut h, a.n_cols() as u64);
    for &p in a.col_ptr() {
        fnv_u64(&mut h, p as u64);
    }
    for &r in a.row_idx() {
        fnv_u64(&mut h, r as u64);
    }
    // Options: every field that can change the compiled plan (or the
    // executor wrapped around it).
    fnv_u64(
        &mut h,
        (opts.vs_block as u64) | (opts.vi_prune as u64) << 1 | (opts.low_level as u64) << 2,
    );
    fnv_u64(&mut h, opts.max_supernode_width as u64);
    fnv_u64(&mut h, opts.vs_block_min_avg_size.to_bits());
    fnv_u64(&mut h, opts.peel_col_count as u64);
    fnv_u64(&mut h, opts.n_threads as u64);
    fnv_u64(&mut h, opts.ordering as u64);
    fnv_u64(&mut h, opts.block_lu as u64);
    fnv_u64(&mut h, opts.max_panel as u64);
    fnv_u64(&mut h, opts.relax_fill.to_bits());
    fnv_u64(&mut h, opts.relax_cols as u64);
    fnv_u64(&mut h, opts.mc64_scale as u64);
    fnv_u64(&mut h, opts.pre_pivot as u64);
    fnv_u64(&mut h, opts.profile as u64);
    fnv_u64(&mut h, opts.pivot_perturb.to_bits());
    fnv_u64(&mut h, opts.recovery.berr_tol.to_bits());
    fnv_u64(&mut h, opts.recovery.max_refine_iters as u64);
    fnv_u64(
        &mut h,
        (opts.recovery.allow_refactor as u64) | (opts.recovery.serve_escalate as u64) << 1,
    );
    h
}

/// Capacity bounds for a [`PlanCache`]. Eviction triggers when
/// **either** bound is exceeded and always keeps at least one entry
/// (a cache that cannot hold the plan it just compiled would thrash
/// forever).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum resident plans (0 = unbounded by count).
    pub max_entries: usize,
    /// Maximum summed [`table_bytes`](crate::plan::lu::LuPlan::table_bytes)
    /// across resident plans (0 = unbounded by size).
    pub max_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            max_entries: 64,
            max_bytes: 256 << 20, // 256 MiB of compiled tables
        }
    }
}

/// A cache-resident compiled plan: the [`SympilerLu`] plus the key
/// and options it was admitted under and its charged byte footprint.
/// Derefs to [`SympilerLu`], so `plan.factor(&a)`,
/// `plan.factor_with(&a, &mut ws)`, and `plan.factor_batch(&refs)`
/// all work directly on the `Arc<CachedPlan>` handles the cache hands
/// out — shared, immutable, never cloned per request.
#[derive(Debug)]
pub struct CachedPlan {
    lu: SympilerLu,
    key: u64,
    opts: SympilerOptions,
    bytes: usize,
}

impl CachedPlan {
    /// The structural hash this plan is filed under.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The options the plan was compiled with.
    pub fn options(&self) -> &SympilerOptions {
        &self.opts
    }

    /// Bytes of compiled tables the cache charges this entry for.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The compiled pipeline itself (also reachable via `Deref`).
    pub fn lu(&self) -> &SympilerLu {
        &self.lu
    }
}

impl std::ops::Deref for CachedPlan {
    type Target = SympilerLu;
    fn deref(&self) -> &SympilerLu {
        &self.lu
    }
}

struct Entry {
    plan: Arc<CachedPlan>,
    last_use: u64,
}

#[derive(Default)]
struct CacheInner {
    /// Hash buckets: collisions coexist as a short in-bucket list and
    /// are disambiguated by exact pattern + options checks.
    buckets: HashMap<u64, Vec<Entry>>,
    entries: usize,
    bytes: usize,
}

/// Point-in-time counters of a [`PlanCache`] (monotonic except
/// `entries`/`bytes`, which track current residency).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered by a resident plan.
    pub hits: u64,
    /// Requests that had to compile.
    pub misses: u64,
    /// Plans evicted under capacity pressure.
    pub evictions: u64,
    /// Currently resident plans.
    pub entries: usize,
    /// Currently resident compiled-table bytes.
    pub bytes: usize,
}

impl CacheStats {
    /// `hits / (hits + misses)`, 0.0 before any traffic.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A concurrent, bounded cache of compiled LU pipelines, keyed by
/// [`structural_hash`] and verified exactly on every hit.
///
/// Compilation happens **outside** the cache lock — a slow compile on
/// one pattern never blocks hits on others — with a re-check on
/// insert so racing compilers of the same pattern converge on one
/// resident plan. Eviction is LRU over a global use tick, bounded by
/// [`CacheConfig`].
///
/// ```
/// use std::sync::Arc;
/// use sympiler_core::serve::{CacheConfig, PlanCache};
/// use sympiler_core::SympilerOptions;
/// use sympiler_sparse::gen;
///
/// let cache = PlanCache::new(CacheConfig::default());
/// let mut a = gen::circuit_unsym(40, 4, 2, 7);
/// let opts = SympilerOptions::default();
///
/// let p1 = cache.get_or_compile(&a, &opts)?; // miss: compiles
/// for v in a.values_mut() {
///     *v *= 2.0; // values change, pattern fixed
/// }
/// let p2 = cache.get_or_compile(&a, &opts)?; // hit: same plan
/// assert!(Arc::ptr_eq(&p1, &p2));
///
/// let f = p2.factor(&a)?; // CachedPlan derefs to SympilerLu
/// assert!(f.l().nnz() > 0);
/// let s = cache.stats();
/// assert_eq!((s.hits, s.misses), (1, 1));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct PlanCache {
    inner: Mutex<CacheInner>,
    config: CacheConfig,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Observability sink: `serve.cache.*` counters land here. A
    /// disabled profiler (the default) makes every hook a no-op.
    profiler: Arc<Profiler>,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("PlanCache")
            .field("config", &self.config)
            .field("stats", &s)
            .finish()
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new(CacheConfig::default())
    }
}

impl PlanCache {
    /// An empty cache with the given capacity bounds and no profiler.
    pub fn new(config: CacheConfig) -> Self {
        Self::with_profiler(config, Arc::new(Profiler::disabled()))
    }

    /// An empty cache whose hit/miss/eviction counters also land on
    /// `profiler` as `serve.cache.hit` / `serve.cache.miss` /
    /// `serve.cache.eviction` — the same [`Profiler`] machinery the
    /// numeric phase records kernel counters into, so one snapshot
    /// carries both.
    pub fn with_profiler(config: CacheConfig, profiler: Arc<Profiler>) -> Self {
        Self {
            inner: Mutex::new(CacheInner::default()),
            config,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            profiler,
        }
    }

    /// The capacity bounds this cache enforces.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Lock the cache state, recovering from poison: a thread that
    /// panicked mid-mutation (e.g. an injected worker fault during
    /// `admit`) may have left `entries`/`bytes` out of sync with the
    /// buckets, so on poison both are re-derived from the buckets —
    /// the buckets themselves are always structurally valid because
    /// every mutation either pushes a complete entry or removes one.
    fn lock_inner(&self) -> MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(|poisoned| {
            let mut inner = poisoned.into_inner();
            inner.entries = inner.buckets.values().map(Vec::len).sum();
            inner.bytes = inner.buckets.values().flatten().map(|e| e.plan.bytes).sum();
            self.inner.clear_poison();
            self.profiler.counter("serve.cache.poison_recovered").add(1);
            inner
        })
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let (entries, bytes) = {
            let inner = self.lock_inner();
            (inner.entries, inner.bytes)
        };
        CacheStats {
            hits: self.hits.load(MemOrder::Relaxed),
            misses: self.misses.load(MemOrder::Relaxed),
            evictions: self.evictions.load(MemOrder::Relaxed),
            entries,
            bytes,
        }
    }

    /// Number of resident plans.
    pub fn len(&self) -> usize {
        self.lock_inner().entries
    }

    /// True when no plan is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every resident plan (counters keep their totals).
    pub fn clear(&self) {
        let mut inner = self.lock_inner();
        inner.buckets.clear();
        inner.entries = 0;
        inner.bytes = 0;
        self.publish_residency(&inner);
    }

    /// Mirror current residency onto the profiler as *live* gauges, so
    /// eviction pressure is visible in traces and metrics snapshots
    /// without polling [`stats`](Self::stats).
    fn publish_residency(&self, inner: &CacheInner) {
        self.profiler
            .gauge("serve.cache.entries", inner.entries as f64);
        self.profiler.gauge("serve.cache.bytes", inner.bytes as f64);
    }

    /// The plan for `(a's pattern, opts)` — resident if cached,
    /// compiled (and admitted) otherwise. A hit requires the exact
    /// compiled pattern and equal options, not just a matching hash;
    /// values of `a` are irrelevant. Returns the same `Arc` to every
    /// concurrent caller of the same key, so gather tables exist once
    /// regardless of thread count.
    pub fn get_or_compile(
        &self,
        a: &CscMatrix,
        opts: &SympilerOptions,
    ) -> Result<Arc<CachedPlan>, LuPlanError> {
        self.get_or_compile_on_lane(a, opts, 0)
    }

    /// [`get_or_compile`](Self::get_or_compile), recording its
    /// `cache-lookup` / `compile` spans on the given profiler lane —
    /// the entry point [`FactorService`] workers use so each request's
    /// cache time lands on that worker's own trace lane.
    pub fn get_or_compile_on_lane(
        &self,
        a: &CscMatrix,
        opts: &SympilerOptions,
        lane: usize,
    ) -> Result<Arc<CachedPlan>, LuPlanError> {
        let key = structural_hash(a, opts);
        let now = self.tick.fetch_add(1, MemOrder::Relaxed);
        let span = self.profiler.begin(lane, "cache-lookup");
        let found = self.lookup(key, a, opts, now);
        self.profiler
            .end_with(span, &[("hit", found.is_some() as u64 as f64)]);
        if let Some(plan) = found {
            self.hits.fetch_add(1, MemOrder::Relaxed);
            self.profiler.counter("serve.cache.hit").add(1);
            return Ok(plan);
        }
        // Miss: compile outside the lock so a slow symbolic phase on
        // one pattern never serializes hits on others.
        self.misses.fetch_add(1, MemOrder::Relaxed);
        self.profiler.counter("serve.cache.miss").add(1);
        let span = self.profiler.begin(lane, "compile");
        let compiled = SympilerLu::compile(a, opts);
        self.profiler
            .end_with(span, &[("ok", compiled.is_ok() as u64 as f64)]);
        let lu = compiled?;
        let plan = Arc::new(CachedPlan {
            key,
            opts: opts.clone(),
            bytes: lu.table_bytes(),
            lu,
        });
        Ok(self.admit(key, a, opts, now, plan))
    }

    /// In-lock hit path: scan the key's bucket for an entry whose
    /// compiled pattern and options match exactly.
    fn lookup(
        &self,
        key: u64,
        a: &CscMatrix,
        opts: &SympilerOptions,
        now: u64,
    ) -> Option<Arc<CachedPlan>> {
        let mut inner = self.lock_inner();
        let bucket = inner.buckets.get_mut(&key)?;
        for e in bucket.iter_mut() {
            if e.plan.opts == *opts && e.plan.lu.plan().check_pattern(a).is_ok() {
                e.last_use = now;
                return Some(e.plan.clone());
            }
        }
        None
    }

    /// Insert a freshly compiled plan, unless a racing thread already
    /// admitted an equivalent one while we compiled — theirs wins (we
    /// drop ours), keeping exactly one resident plan per key.
    fn admit(
        &self,
        key: u64,
        a: &CscMatrix,
        opts: &SympilerOptions,
        now: u64,
        plan: Arc<CachedPlan>,
    ) -> Arc<CachedPlan> {
        let mut inner = self.lock_inner();
        if let Some(bucket) = inner.buckets.get_mut(&key) {
            for e in bucket.iter_mut() {
                if e.plan.opts == *opts && e.plan.lu.plan().check_pattern(a).is_ok() {
                    e.last_use = now;
                    return e.plan.clone();
                }
            }
        }
        inner.entries += 1;
        inner.bytes += plan.bytes;
        inner.buckets.entry(key).or_default().push(Entry {
            plan: plan.clone(),
            last_use: now,
        });
        self.evict_locked(&mut inner);
        self.publish_residency(&inner);
        plan
    }

    /// LRU eviction down to the configured bounds, never below one
    /// resident entry. Called with the lock held.
    fn evict_locked(&self, inner: &mut CacheInner) {
        let over = |inner: &CacheInner| {
            (self.config.max_entries > 0 && inner.entries > self.config.max_entries)
                || (self.config.max_bytes > 0 && inner.bytes > self.config.max_bytes)
        };
        while inner.entries > 1 && over(inner) {
            // O(entries) scan for the oldest use tick — entry counts
            // are small (bounded by config), the scan is cheaper than
            // maintaining an ordered side structure under churn.
            let mut oldest: Option<(u64, u64)> = None; // (last_use, key)
            for (&key, bucket) in &inner.buckets {
                for e in bucket {
                    if oldest.is_none_or(|(t, _)| e.last_use < t) {
                        oldest = Some((e.last_use, key));
                    }
                }
            }
            let Some((tick, key)) = oldest else { break };
            let bucket = inner.buckets.get_mut(&key).expect("key from scan");
            let idx = bucket
                .iter()
                .position(|e| e.last_use == tick)
                .expect("entry from scan");
            let victim = bucket.swap_remove(idx);
            if bucket.is_empty() {
                inner.buckets.remove(&key);
            }
            inner.entries -= 1;
            inner.bytes -= victim.plan.bytes;
            self.evictions.fetch_add(1, MemOrder::Relaxed);
            self.profiler.counter("serve.cache.eviction").add(1);
            self.profiler.journal().emit(
                "cache.eviction",
                &[
                    ("bytes", victim.plan.bytes as f64),
                    ("resident", inner.entries as f64),
                ],
                &[("key", format!("{key:#018x}").as_str())],
            );
        }
    }

    #[cfg(test)]
    /// Test hook: file `plan` under an arbitrary `key`, bypassing
    /// hashing — how the collision tests plant a same-key foreign
    /// entry that lookup must reject on the exact checks.
    fn insert_raw(&self, key: u64, plan: Arc<CachedPlan>) {
        let mut inner = self.lock_inner();
        let now = self.tick.fetch_add(1, MemOrder::Relaxed);
        inner.entries += 1;
        inner.bytes += plan.bytes;
        inner.buckets.entry(key).or_default().push(Entry {
            plan,
            last_use: now,
        });
    }
}

/// One unit of serving work: factor `a` under `opts` (through the
/// shared [`PlanCache`]), then solve for each supplied right-hand
/// side via the blocked multi-RHS sweep.
pub struct ServeRequest {
    /// The matrix to factor (values fresh per request, pattern
    /// typically shared across the stream).
    pub a: CscMatrix,
    /// Compile options — part of the cache key.
    pub opts: SympilerOptions,
    /// Right-hand sides to solve after factoring (may be empty).
    pub rhs: Vec<Vec<f64>>,
}

/// What a [`ServeRequest`] produces.
pub struct ServeResponse {
    /// The numeric factorization, bitwise identical to an uncached
    /// `compile()` + `factor()` of the same request.
    pub factor: LuFactor,
    /// One solution per requested right-hand side, in order.
    pub solutions: Vec<Vec<f64>>,
}

/// A pending [`FactorService`] reply.
pub struct Ticket {
    id: u64,
    rx: mpsc::Receiver<Result<ServeResponse, ServeError>>,
}

impl Ticket {
    /// The request id assigned at submit time. Request ids are unique
    /// per service and appear as the `req` argument on the request's
    /// span tree and in journal events, so a slow or failed ticket can
    /// be matched to its trace.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Block until the worker finishes this request. Never hangs on a
    /// dead worker and never panics: a dropped reply sender (worker
    /// died mid-request, or the service was dropped with the request
    /// still queued) resolves to [`ServeError::Disconnected`].
    pub fn wait(self) -> Result<ServeResponse, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Disconnected))
    }

    /// [`Self::wait`] with a deadline: gives up with
    /// [`ServeError::Timeout`] when no reply lands within `dur`. The
    /// ticket is consumed either way — a timed-out request's eventual
    /// result is discarded, exactly like a dropped ticket's.
    pub fn wait_timeout(self, dur: Duration) -> Result<ServeResponse, ServeError> {
        match self.rx.recv_timeout(dur) {
            Ok(result) => result,
            Err(mpsc::RecvTimeoutError::Timeout) => Err(ServeError::Timeout { waited: dur }),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(ServeError::Disconnected),
        }
    }
}

struct Job {
    /// Request id (service-wide, assigned at submit).
    id: u64,
    /// Submit timestamp on the cache profiler's clock, so the worker
    /// can backdate the request's root span and carve out queue-wait.
    submit_ns: u64,
    req: ServeRequest,
    reply: mpsc::Sender<Result<ServeResponse, ServeError>>,
}

/// Profiler lane for worker `slot`. Lane 0 stays the main/submit
/// lane; worker `s` records on lane `s + 1`. Slots beyond the lane
/// budget share the last lane (graceful degradation, never a panic).
fn worker_lane(slot: usize) -> usize {
    (slot + 1).min(MAX_LANES - 1)
}

/// A thread-pool front end over a shared [`PlanCache`]: submit
/// [`ServeRequest`]s, collect [`Ticket`]s, wait for
/// [`ServeResponse`]s. Every worker holds one long-lived
/// [`LuWorkspace`] and factors against cache-shared plans — steady
/// state does no symbolic work and no per-request table or
/// accumulator allocation. Dropping the service drains the queue and
/// joins the workers.
///
/// Fault tolerance: each request executes under `catch_unwind`, so a
/// panicking request resolves its own ticket to
/// [`ServeError::WorkerPanic`] and the worker keeps serving. Should a
/// worker thread die outright (a panic that escapes the request
/// guard), its in-flight ticket resolves to
/// [`ServeError::Disconnected`] (never a hang) and a sentinel guard
/// running during the very unwind spawns the replacement worker into
/// the same slot — queued and future requests are always drained, with
/// no reliance on a later `submit` noticing the death (the OS marks a
/// thread finished strictly *after* its ticket is woken, so
/// submit-side `is_finished` sweeps race and can strand a job). When
/// [`crate::robust::RecoveryPolicy::serve_escalate`] is set on a
/// request's options, a factorization failure is retried once through
/// the recovery ladder's cheap rungs (pivot perturbation + iterative
/// refinement) before the error is returned.
pub struct FactorService {
    tx: Option<mpsc::Sender<Job>>,
    /// One slot per worker; a sentinel overwrites its own slot with
    /// the replacement handle when its worker dies. The dead thread's
    /// handle is dropped (detached) — it is already past doing work.
    workers: Registry,
    /// Kept so respawned workers can join the same queue. Holding a
    /// receiver clone here also means the job channel only disconnects
    /// at drop, never because every worker died at once.
    #[allow(dead_code)]
    rx: Arc<Mutex<mpsc::Receiver<Job>>>,
    cache: Arc<PlanCache>,
    /// Monotonic request-id source (ids are handed out at submit).
    req_seq: AtomicU64,
}

type Registry = Arc<Mutex<Vec<Option<std::thread::JoinHandle<()>>>>>;

/// Declared first in every worker closure, so its `Drop` runs during
/// the unwind of any panic that escapes the request guard: it spawns
/// a replacement worker into the dying worker's slot. Normal worker
/// exit (queue disconnected at service drop) does not respawn —
/// `thread::panicking()` is false.
struct Sentinel {
    slot: usize,
    rx: Arc<Mutex<mpsc::Receiver<Job>>>,
    cache: Arc<PlanCache>,
    registry: Registry,
}

impl Drop for Sentinel {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.cache.profiler.counter("serve.worker.respawn").add(1);
            self.cache.profiler.journal().emit(
                "worker.respawn",
                &[("slot", self.slot as f64)],
                &[],
            );
            let fresh =
                FactorService::spawn_worker(self.slot, &self.rx, &self.cache, &self.registry);
            self.registry.lock().unwrap_or_else(PoisonError::into_inner)[self.slot] = Some(fresh);
        }
    }
}

impl FactorService {
    /// Spawn `n_workers` serving threads (at least one) over `cache`.
    pub fn new(n_workers: usize, cache: Arc<PlanCache>) -> Self {
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let n = n_workers.max(1);
        let workers: Registry = Arc::new(Mutex::new((0..n).map(|_| None).collect()));
        {
            // Register under the lock: a worker dying instantly blocks
            // in its sentinel until every slot holds its first handle,
            // so a replacement can never be clobbered by this loop.
            let mut reg = workers.lock().unwrap();
            for slot in 0..n {
                reg[slot] = Some(Self::spawn_worker(slot, &rx, &cache, &workers));
            }
        }
        Self {
            tx: Some(tx),
            workers,
            rx,
            cache,
            req_seq: AtomicU64::new(0),
        }
    }

    fn spawn_worker(
        slot: usize,
        rx: &Arc<Mutex<mpsc::Receiver<Job>>>,
        cache: &Arc<PlanCache>,
        registry: &Registry,
    ) -> std::thread::JoinHandle<()> {
        let rx = Arc::clone(rx);
        let cache = Arc::clone(cache);
        let registry = Arc::clone(registry);
        std::thread::spawn(move || {
            let sentinel = Sentinel {
                slot,
                rx: Arc::clone(&rx),
                cache: Arc::clone(&cache),
                registry,
            };
            // Name this worker's trace lane. Lane = slot + 1, so a
            // respawned worker re-claims the *same* tid and the trace
            // stays readable across sentinel restarts.
            let lane = worker_lane(slot);
            cache.profiler.name_lane(lane, &format!("worker-{slot}"));
            let mut ws = LuWorkspace::new();
            loop {
                // Hold the queue lock only for the dequeue; recover
                // the lock if a sibling died while holding it.
                let job = match rx.lock().unwrap_or_else(PoisonError::into_inner).recv() {
                    Ok(job) => job,
                    Err(_) => break, // service dropped, queue drained
                };
                // Hard-fault hook: dies here, after the queue lock is
                // released but before any reply — the ticket sees a
                // disconnect, exactly like a real worker death.
                fault::maybe_die();
                // Per-request span tree: the root spans submit → reply
                // (backdated to submit time), with queue-wait as its
                // first child and the run phases (cache-lookup /
                // compile / factor / solve / escalate) nesting under
                // it as they execute on this lane.
                let prof = &cache.profiler;
                let root = prof.begin_at(lane, "request", job.submit_ns);
                let queue = prof.begin_at(lane, "queue-wait", job.submit_ns);
                prof.end(queue);
                // Isolate the request: a panic anywhere in compile/
                // factor/solve resolves this ticket instead of
                // unwinding the worker. The workspace is plain
                // buffers the next request overwrites from scratch,
                // so reusing it across a caught panic is sound.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    fault::maybe_panic();
                    Self::run(&cache, &mut ws, &job.req, lane, job.id)
                }))
                .unwrap_or_else(|payload| {
                    cache.profiler.counter("serve.worker.panic").add(1);
                    let detail = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".into());
                    cache.profiler.journal().emit(
                        "worker.panic",
                        &[("slot", slot as f64), ("req", job.id as f64)],
                        &[("detail", detail.as_str())],
                    );
                    Err(ServeError::WorkerPanic { detail })
                });
                prof.end_with(
                    root,
                    &[("req", job.id as f64), ("ok", result.is_ok() as u64 as f64)],
                );
                // A dropped ticket just discards the response.
                let _ = job.reply.send(result);
            }
            drop(sentinel); // normal exit: explicitly not a respawn
        })
    }

    /// The shared plan cache (e.g. for [`PlanCache::stats`]).
    pub fn cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// Number of serving threads. The pool size is fixed: dead workers
    /// are replaced in-slot by their sentinels.
    pub fn n_workers(&self) -> usize {
        self.workers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Enqueue a request; the returned [`Ticket`] resolves when a
    /// worker has factored (and solved) it. Each submission is stamped
    /// with a service-wide request id ([`Ticket::id`]) and its submit
    /// time, from which the worker derives the queue-wait span.
    pub fn submit(&self, req: ServeRequest) -> Ticket {
        let id = self.req_seq.fetch_add(1, MemOrder::Relaxed);
        let submit_ns = self.cache.profiler.now_ns();
        let (reply, rx) = mpsc::channel();
        self.tx
            .as_ref()
            .expect("sender lives until drop")
            .send(Job {
                id,
                submit_ns,
                req,
                reply,
            })
            .expect("service holds a receiver until drop");
        Ticket { id, rx }
    }

    /// Submit and wait: one factor (+ solves) through the pool.
    pub fn call(&self, req: ServeRequest) -> Result<ServeResponse, ServeError> {
        self.submit(req).wait()
    }

    fn run(
        cache: &PlanCache,
        ws: &mut LuWorkspace,
        req: &ServeRequest,
        lane: usize,
        req_id: u64,
    ) -> Result<ServeResponse, ServeError> {
        let prof = &cache.profiler;
        let plan = cache.get_or_compile_on_lane(&req.a, &req.opts, lane)?;
        let span = prof.begin(lane, "factor");
        let factored = plan.factor_with(&req.a, ws);
        prof.end_with(span, &[("ok", factored.is_ok() as u64 as f64)]);
        let factor = match factored {
            Ok(f) => f,
            Err(e) if req.opts.recovery.serve_escalate => {
                return Self::escalate(cache, ws, req, e, lane, req_id);
            }
            Err(e) => return Err(e.into()),
        };
        let perturb = factor.perturb_report();
        if !perturb.is_empty() {
            prof.journal().emit(
                "pivot.perturbed",
                &[
                    ("req", req_id as f64),
                    ("columns", perturb.columns.len() as f64),
                    ("threshold", perturb.threshold),
                ],
                &[],
            );
        }
        let solutions = if req.rhs.is_empty() {
            Vec::new()
        } else {
            let span = prof.begin(lane, "solve");
            let s = factor.solve_batch(&req.rhs);
            prof.end_with(span, &[("n_rhs", req.rhs.len() as f64)]);
            s
        };
        Ok(ServeResponse { factor, solutions })
    }

    /// Per-request retry with escalation (opted in via
    /// [`crate::robust::RecoveryPolicy::serve_escalate`]): re-factor
    /// through the same cache with static pivot perturbation forced
    /// on, then repair every requested solve by iterative refinement
    /// against the request's matrix. Succeeds only when every solve
    /// reaches the policy's berr tolerance; otherwise the *original*
    /// factor error is returned, so escalation never masks the root
    /// cause with a worse answer.
    fn escalate(
        cache: &PlanCache,
        ws: &mut LuWorkspace,
        req: &ServeRequest,
        original: LuPlanError,
        lane: usize,
        req_id: u64,
    ) -> Result<ServeResponse, ServeError> {
        let prof = &cache.profiler;
        cache.profiler.counter("serve.escalate").add(1);
        prof.journal().emit(
            "serve.escalate",
            &[("req", req_id as f64)],
            &[("cause", format!("{original}").as_str())],
        );
        let span = prof.begin(lane, "escalate");
        let result = Self::escalate_inner(cache, ws, req, &original, lane);
        prof.end_with(
            span,
            &[
                ("req", req_id as f64),
                ("recovered", result.is_ok() as u64 as f64),
            ],
        );
        if result.is_ok() {
            cache.profiler.counter("serve.escalate.recovered").add(1);
            prof.journal()
                .emit("serve.escalate.recovered", &[("req", req_id as f64)], &[]);
        }
        result
    }

    fn escalate_inner(
        cache: &PlanCache,
        ws: &mut LuWorkspace,
        req: &ServeRequest,
        original: &LuPlanError,
        lane: usize,
    ) -> Result<ServeResponse, ServeError> {
        let mut opts = req.opts.clone();
        if opts.pivot_perturb == 0.0 {
            // √ε-scale: the conventional static-perturbation setting.
            opts.pivot_perturb = 1e-8;
        }
        let Ok(plan) = cache.get_or_compile_on_lane(&req.a, &opts, lane) else {
            return Err(original.clone().into());
        };
        let Ok(factor) = plan.factor_with(&req.a, ws) else {
            return Err(original.clone().into());
        };
        let policy = &req.opts.recovery;
        let mut solutions = Vec::with_capacity(req.rhs.len());
        for b in &req.rhs {
            let (x, report) =
                factor.solve_refined(&req.a, b, policy.berr_tol, policy.max_refine_iters);
            if !report.converged {
                return Err(original.clone().into());
            }
            solutions.push(x);
        }
        Ok(ServeResponse { factor, solutions })
    }
}

impl Drop for FactorService {
    fn drop(&mut self) {
        // Closing the channel lets workers drain the queue and exit.
        drop(self.tx.take());
        // `self.workers` is an Arc shared with the sentinels, so lock
        // rather than get_mut. Take the handles out before joining —
        // a sentinel firing mid-drop writes its replacement into the
        // emptied slot; that replacement sees the closed channel and
        // exits on its own (its handle is simply never joined).
        let handles: Vec<_> = self
            .workers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter_mut()
            .filter_map(Option::take)
            .collect();
        for w in handles {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympiler_sparse::gen;

    fn opts() -> SympilerOptions {
        SympilerOptions::default()
    }

    #[test]
    fn structural_hash_is_pattern_and_options_keyed() {
        let a = gen::circuit_unsym(50, 4, 2, 3);
        let mut a2 = a.clone();
        for v in a2.values_mut() {
            *v *= -3.5; // values must not matter
        }
        assert_eq!(structural_hash(&a, &opts()), structural_hash(&a2, &opts()));
        let b = gen::circuit_unsym(50, 4, 2, 4); // different pattern
        assert_ne!(structural_hash(&a, &opts()), structural_hash(&b, &opts()));
        let other = SympilerOptions {
            ordering: crate::Ordering::Colamd,
            ..opts()
        };
        assert_ne!(structural_hash(&a, &opts()), structural_hash(&a, &other));
    }

    #[test]
    fn same_pattern_different_options_are_distinct_entries() {
        let a = gen::circuit_unsym(40, 4, 2, 5);
        let cache = PlanCache::new(CacheConfig::default());
        let p1 = cache.get_or_compile(&a, &opts()).unwrap();
        let colamd = SympilerOptions {
            ordering: crate::Ordering::Colamd,
            ..opts()
        };
        let p2 = cache.get_or_compile(&a, &colamd).unwrap();
        assert!(!Arc::ptr_eq(&p1, &p2));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().misses, 2);
        // And each keeps answering its own options.
        assert!(Arc::ptr_eq(
            &p1,
            &cache.get_or_compile(&a, &opts()).unwrap()
        ));
        assert!(Arc::ptr_eq(
            &p2,
            &cache.get_or_compile(&a, &colamd).unwrap()
        ));
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn hash_collision_is_rejected_by_exact_checks() {
        // Plant a foreign plan under pattern `a`'s key: the lookup
        // must see through the colliding hash (exact pattern check
        // fails), compile the right plan, and keep both in one bucket.
        let a = gen::circuit_unsym(40, 4, 2, 5);
        let b = gen::circuit_unsym(30, 4, 2, 6);
        let key = structural_hash(&a, &opts());
        let cache = PlanCache::new(CacheConfig::default());
        let foreign_lu = SympilerLu::compile(&b, &opts()).unwrap();
        cache.insert_raw(
            key,
            Arc::new(CachedPlan {
                key,
                opts: opts(),
                bytes: foreign_lu.table_bytes(),
                lu: foreign_lu,
            }),
        );
        let p = cache.get_or_compile(&a, &opts()).unwrap();
        assert_eq!(p.plan().n(), 40, "must not serve the colliding plan");
        assert_eq!(cache.stats().misses, 1, "collision is a miss, not a hit");
        assert_eq!(cache.len(), 2, "collided entries coexist in the bucket");
        // Now both resolve correctly.
        assert!(Arc::ptr_eq(&p, &cache.get_or_compile(&a, &opts()).unwrap()));
        assert_eq!(cache.get_or_compile(&b, &opts()).unwrap().plan().n(), 30);
    }

    #[test]
    fn lru_eviction_under_entry_pressure() {
        let mats: Vec<_> = (0..3)
            .map(|s| gen::circuit_unsym(30 + s, 4, 2, s as u64))
            .collect();
        let cache = PlanCache::new(CacheConfig {
            max_entries: 2,
            max_bytes: 0,
        });
        cache.get_or_compile(&mats[0], &opts()).unwrap();
        cache.get_or_compile(&mats[1], &opts()).unwrap();
        // Touch 0 so 1 becomes the LRU victim.
        cache.get_or_compile(&mats[0], &opts()).unwrap();
        cache.get_or_compile(&mats[2], &opts()).unwrap();
        let s = cache.stats();
        assert_eq!((s.entries, s.evictions), (2, 1));
        // 0 and 2 are resident (hits); 1 was evicted (miss).
        let before = cache.stats().misses;
        cache.get_or_compile(&mats[0], &opts()).unwrap();
        cache.get_or_compile(&mats[2], &opts()).unwrap();
        assert_eq!(cache.stats().misses, before);
        cache.get_or_compile(&mats[1], &opts()).unwrap();
        assert_eq!(cache.stats().misses, before + 1, "LRU victim was 1");
    }

    #[test]
    fn byte_bound_evicts_and_stats_track_residency() {
        let a = gen::circuit_unsym(60, 4, 2, 1);
        let b = gen::circuit_unsym(70, 4, 2, 2);
        let probe = PlanCache::new(CacheConfig::default());
        let pa = probe.get_or_compile(&a, &opts()).unwrap();
        // Bound below the two plans' combined footprint: admitting the
        // second must evict the first.
        let cache = PlanCache::new(CacheConfig {
            max_entries: 0,
            max_bytes: pa.bytes() + pa.bytes() / 2,
        });
        cache.get_or_compile(&a, &opts()).unwrap();
        assert_eq!(cache.stats().bytes, pa.bytes());
        cache.get_or_compile(&b, &opts()).unwrap();
        let s = cache.stats();
        assert_eq!(s.entries, 1, "byte bound holds one plan");
        assert!(s.evictions >= 1);
        // Never evicts below one entry even when oversized.
        let tiny = PlanCache::new(CacheConfig {
            max_entries: 0,
            max_bytes: 1,
        });
        tiny.get_or_compile(&a, &opts()).unwrap();
        assert_eq!(tiny.len(), 1);
    }

    #[test]
    fn cache_counters_land_on_the_profiler() {
        let prof = Arc::new(Profiler::enabled());
        let cache = PlanCache::with_profiler(CacheConfig::default(), Arc::clone(&prof));
        let a = gen::circuit_unsym(40, 4, 2, 9);
        cache.get_or_compile(&a, &opts()).unwrap();
        cache.get_or_compile(&a, &opts()).unwrap();
        assert_eq!(prof.counter_value("serve.cache.miss"), 1);
        assert_eq!(prof.counter_value("serve.cache.hit"), 1);
    }

    #[test]
    fn residency_gauges_are_live_and_evictions_are_journalled() {
        let prof = Arc::new(Profiler::enabled());
        let cache = PlanCache::with_profiler(
            CacheConfig {
                max_entries: 1,
                max_bytes: 0,
            },
            Arc::clone(&prof),
        );
        let a = gen::circuit_unsym(30, 4, 2, 1);
        let b = gen::circuit_unsym(31, 4, 2, 2);
        let pa = cache.get_or_compile(&a, &opts()).unwrap();
        let snap = prof.snapshot("after-a");
        assert_eq!(snap.gauge("serve.cache.entries"), Some(1.0));
        assert_eq!(snap.gauge("serve.cache.bytes"), Some(pa.bytes() as f64));
        // Admitting b evicts a (max one entry): the live gauges track
        // the new residency and the eviction lands in the journal.
        let pb = cache.get_or_compile(&b, &opts()).unwrap();
        let snap = prof.snapshot("after-b");
        assert_eq!(snap.gauge("serve.cache.entries"), Some(1.0));
        assert_eq!(snap.gauge("serve.cache.bytes"), Some(pb.bytes() as f64));
        let events = prof.journal().events();
        let ev = events
            .iter()
            .find(|e| e.kind == "cache.eviction")
            .expect("eviction journalled");
        assert!(ev
            .fields
            .iter()
            .any(|(k, v)| k == "bytes" && *v == pa.bytes() as f64));
        assert!(ev
            .notes
            .iter()
            .any(|(k, v)| k == "key" && v.starts_with("0x")));
        // clear() zeroes the live gauges.
        cache.clear();
        let snap = prof.snapshot("cleared");
        assert_eq!(snap.gauge("serve.cache.entries"), Some(0.0));
        assert_eq!(snap.gauge("serve.cache.bytes"), Some(0.0));
    }

    #[test]
    fn request_ids_are_unique_and_traced_on_worker_lanes() {
        let prof = Arc::new(Profiler::enabled());
        let cache = Arc::new(PlanCache::with_profiler(
            CacheConfig::default(),
            Arc::clone(&prof),
        ));
        let service = FactorService::new(2, Arc::clone(&cache));
        let a = gen::circuit_unsym(40, 4, 2, 9);
        let tickets: Vec<Ticket> = (0..6)
            .map(|_| {
                service.submit(ServeRequest {
                    a: a.clone(),
                    opts: opts(),
                    rhs: vec![vec![1.0; 40]],
                })
            })
            .collect();
        let ids: Vec<u64> = tickets.iter().map(Ticket::id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5], "ids are assigned in order");
        for t in tickets {
            t.wait().unwrap();
        }
        let snap = prof.snapshot("serve");
        // Every request produced a root span on a *worker* lane with
        // its id attached, and the tree accounts for queue-wait,
        // cache, factor, and solve time.
        let roots: Vec<_> = snap.spans_named("request").collect();
        assert_eq!(roots.len(), 6);
        let mut seen: Vec<u64> = roots
            .iter()
            .map(|s| {
                assert!(s.lane >= 1, "request spans live on worker lanes");
                s.args
                    .iter()
                    .find(|(k, _)| k == "req")
                    .expect("req id arg")
                    .1 as u64
            })
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
        for name in ["queue-wait", "cache-lookup", "factor", "solve"] {
            assert_eq!(
                snap.spans_named(name).count(),
                6,
                "each request records a {name} child"
            );
        }
        assert_eq!(snap.spans_named("compile").count(), 1, "one miss compiles");
        // Worker lanes carry stable thread names.
        assert_eq!(snap.thread_name(1), Some("worker-0"));
        assert_eq!(snap.thread_name(2), Some("worker-1"));
        // Children nest inside their roots in time: each root span
        // contains at least queue-wait, cache-lookup, and factor.
        for root in &roots {
            let end = root.start_ns + root.dur_ns;
            let children = snap
                .spans
                .iter()
                .filter(|s| {
                    s.lane == root.lane
                        && s.name != "request"
                        && s.start_ns >= root.start_ns
                        && s.start_ns + s.dur_ns <= end
                })
                .count();
            assert!(children >= 3, "request tree has its phase children");
        }
    }
}
