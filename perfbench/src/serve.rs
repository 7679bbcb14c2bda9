//! `serve_mixed`: an open loop at a fixed offered rate into
//! `FactorService`, in segments, each followed by a saturation burst
//! that measures capacity.
//!
//! Completion stamps: `Ticket` offers only blocking waits, so tickets
//! go, in submit order, to a pool of `WAITERS` threads that each block
//! on one ticket and stamp the clock when it resolves. The service's
//! `WORKERS` workers dequeue in submit order, so at most `WORKERS`
//! requests run at once and they are always the oldest unfinished
//! ones; with more waiters than workers some waiter is already blocked
//! on every running request. A request that overtakes a slow miss is
//! therefore stamped when it finishes, not when the miss does. A waiter
//! checks the answer after it has stamped the clock, outside the
//! request's timed region.

use crate::check::Tally;
use crate::layers;
use crate::problems::{fresh_values, serve_pool, Problem, FAMILIES};
use crate::stats::{beyond_p99, median, quantile, Rng};
use crate::{Metrics, Run};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};
use sympiler_core::serve::{CacheConfig, FactorService, PlanCache, ServeRequest, Ticket};
use sympiler_core::{LuWorkspace, SympilerLu, SympilerOptions};
use sympiler_obs::Profiler;
use sympiler_sparse::CscMatrix;

/// Offered rate of the fixed-rate phase, about a seventh of capacity.
const RATE: f64 = 300.0;
/// Shares of `--seconds` spent in the fixed-rate warm-up, the measured
/// fixed-rate phase and the saturation bursts (their nominal share: a
/// burst has a fixed request count).
const WARM_FRAC: f64 = 0.05;
const FIXED_FRAC: f64 = 0.7;
const SAT_FRAC: f64 = 0.2;
const WORKERS: usize = 2;
const WAITERS: usize = WORKERS + 1;
/// Saturation bursts: one per `BURST_S` of the saturation share of
/// `--seconds`, each of `BURST` requests (about half a second) with
/// `WINDOW` kept in flight, then drained. A burst's requests are the
/// same on every run and seed (the key sequence is fixed), so a burst
/// that holds more misses is slower on every run alike.
const WINDOW: usize = 16;
const BURST: usize = 1000;
const BURST_S: f64 = 0.5;
/// Tenants send the same patterns with options that differ only in
/// `recovery.berr_tol`, a runtime field.
const TENANT_BERR_TOL: [f64; 2] = [1e-12, 1e-11];
/// Resident plans; the key pool is `SERVE_POOL × tenants` = 192. With
/// Zipf(`ZIPF_S`) popularity, about 4.3% of requests miss in the steady
/// state, so p99 lies well inside the misses' latencies (near their
/// 77th percentile). At 2% it lay at their median, and the host's
/// stalls, which delay about 1% of requests, moved it most.
const CACHE_ENTRIES: usize = 170;
const ZIPF_S: f64 = 0.8;
const SETUP_PASSES: usize = 6;
/// Requests replayed on all four arms of the traced replay.
const PAIRED: usize = 1536;
const TIMEOUT: Duration = Duration::from_secs(10);
/// The generator is behind, and the run invalid, when its p99
/// lateness or the backlog it leaves exceeds these.
const MAX_LATE_MS: f64 = 20.0;
const MAX_BACKLOG: usize = 60;
/// Measured requests per window of the windowed p99: at least 1 000,
/// so each window's p99 has ten requests beyond it.
const P99_WINDOW: usize = 1200;

fn tenant_opts(p: &Problem, tenant: usize) -> SympilerOptions {
    let mut o = p.opts.clone();
    o.recovery.berr_tol = TENANT_BERR_TOL[tenant];
    o
}

/// The request sequence: Zipf popularity over (pattern, tenant) keys,
/// fresh values per request. Key `r` has popularity rank `r`: tenant
/// `r % 2` of pool pattern `r / 2`. Which key arrives when is part of
/// the workload's shape and does not depend on the seed; the seed
/// moves the values.
struct Stream {
    keys: Rng,
    values: Rng,
    cdf: Vec<f64>,
}

struct Req {
    key: usize,
    a: CscMatrix,
    b: Vec<f64>,
}

impl Stream {
    fn new(seed: u64) -> Self {
        let keys = crate::problems::SERVE_POOL * TENANT_BERR_TOL.len();
        let mut cdf = Vec::with_capacity(keys);
        let mut acc = 0.0;
        for r in 0..keys {
            acc += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Self {
            keys: Rng::new(0x7374_7265),
            values: Rng::new(seed ^ 0x7374_7265),
            cdf,
        }
    }

    fn next_key(&mut self) -> usize {
        let u = self.keys.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    fn next(&mut self, pool: &[Problem]) -> Req {
        let key = self.next_key();
        let (a, b) = fresh_values(&pool[key / TENANT_BERR_TOL.len()].a, &mut self.values);
        Req { key, a, b }
    }
}

fn request(pool: &[Problem], r: &Req) -> ServeRequest {
    let t = TENANT_BERR_TOL.len();
    ServeRequest {
        a: r.a.clone(),
        opts: tenant_opts(&pool[r.key / t], r.key % t),
        rhs: vec![r.b.clone()],
    }
}

struct Pending {
    idx: usize,
    due: Instant,
    ticket: Ticket,
    a: CscMatrix,
    b: Vec<f64>,
}

struct Done {
    idx: usize,
    lat_ms: f64,
    ok: bool,
}

/// Block on tickets in submit order; stamp each completion, count it,
/// tell the generator, then check the answer.
fn waiter(
    rx: &Mutex<mpsc::Receiver<Pending>>,
    completed: &AtomicUsize,
    notify: mpsc::Sender<()>,
) -> Vec<Done> {
    let mut out = Vec::new();
    loop {
        let job = match rx.lock().expect("waiter queue lock").recv() {
            Ok(job) => job,
            Err(_) => return out,
        };
        let res = job.ticket.wait_timeout(TIMEOUT);
        let stamp = Instant::now();
        completed.fetch_add(1, SeqCst);
        // The generator may already have stopped listening.
        let _ = notify.send(());
        let ok = match res {
            Ok(resp) => {
                let mut t = Tally::default();
                resp.solutions.len() == 1 && t.check(&job.a, &resp.solutions[0], &job.b)
            }
            Err(_) => false,
        };
        out.push(Done {
            idx: job.idx,
            lat_ms: (stamp - job.due).as_secs_f64() * 1e3,
            ok,
        });
    }
}

/// p99 of `lat` as the median over consecutive windows of about
/// `P99_WINDOW` requests of each window's p99, so that one stall of the
/// host moves one window rather than the whole run. Returns the p99 and
/// the number of windows.
fn windowed_p99(lat: &[f64]) -> (f64, Vec<f64>) {
    let windows = (lat.len() / P99_WINDOW).max(1);
    let p99s: Vec<f64> = lat
        .chunks_exact(lat.len() / windows)
        .map(|w| quantile(w, 0.99))
        .collect();
    (median(&p99s), p99s)
}

/// What one pass of the service phases observed.
struct ServiceRun {
    /// Latency of every fixed-rate request, by request index.
    lat_ms: Vec<f64>,
    /// First measured (post warm-up) request index.
    measured_from: usize,
    late_ms: Vec<f64>,
    backlog: usize,
    /// Saturation bursts of `BURST` requests: seconds from first
    /// submit to drained.
    bursts: Vec<f64>,
    /// `CacheStats::bytes` averaged over the measured submits.
    cache_bytes: f64,
    /// Cache misses and evictions over the fixed-rate phase, and the
    /// misses within its measured part.
    compiles: u64,
    evictions: u64,
    measured_misses: u64,
}

pub struct Serve {
    pool: Vec<Problem>,
    seed: u64,
}

impl Serve {
    pub fn new(seed: u64) -> Self {
        Self {
            pool: serve_pool(seed),
            seed,
        }
    }

    fn cfg() -> CacheConfig {
        CacheConfig {
            max_entries: CACHE_ENTRIES,
            max_bytes: 0,
        }
    }

    /// The fixed-rate phase (warm-up, then measured) in segments, each
    /// followed by a drain and one saturation burst, so that the bursts
    /// sample the host across the whole run rather than at its end.
    fn service(&self, secs: f64, tally: &mut Tally) -> ServiceRun {
        let warm_n = (WARM_FRAC * secs * RATE) as usize;
        let fixed_n = warm_n + (FIXED_FRAC * secs * RATE) as usize;
        let segments = ((SAT_FRAC * secs / BURST_S) as usize).max(1);
        let per_segment = fixed_n.div_ceil(segments);
        let cache = PlanCache::with_profiler(Self::cfg(), Arc::new(Profiler::enabled()));
        self.prewarm(&cache);
        let svc = FactorService::new(WORKERS, Arc::new(cache));
        let mut stream = Stream::new(self.seed);
        let completed = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<Pending>();
        let rx = Mutex::new(rx);
        let (notify, completions) = mpsc::channel::<()>();
        let mut late_ms = Vec::with_capacity(fixed_n);
        let mut backlog = 0;
        let mut resident = 0.0;
        let (mut compiles, mut evictions, mut measured_misses) = (0, 0, 0);
        let mut bursts = Vec::new();
        let done: Vec<Done> = std::thread::scope(|s| {
            let (rx, completed) = (&rx, &completed);
            let handles: Vec<_> = (0..WAITERS)
                .map(|_| {
                    let notify = notify.clone();
                    s.spawn(move || waiter(rx, completed, notify))
                })
                .collect();
            drop(notify);
            // Requests sent and completions taken from `completions` so
            // far; the generator blocks on the channel rather than
            // polling. Saturation requests are numbered from `fixed_n`.
            let (mut sent, mut got) = (0, 0);
            let mut sat_idx = fixed_n;
            for seg in 0..segments {
                let (lo, hi) = (seg * per_segment, ((seg + 1) * per_segment).min(fixed_n));
                let before = svc.cache().stats();
                let mut measured_before = before.misses;
                let start = Instant::now() + Duration::from_millis(20);
                for i in lo..hi {
                    let r = stream.next(&self.pool);
                    let req = request(&self.pool, &r);
                    let due = start + Duration::from_secs_f64((i - lo) as f64 / RATE);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    if i >= warm_n {
                        let st = svc.cache().stats();
                        if i == warm_n {
                            measured_before = st.misses;
                        }
                        resident += st.bytes as f64;
                    }
                    let ticket = svc.submit(req);
                    late_ms.push((Instant::now() - due).as_secs_f64() * 1e3);
                    let (a, b) = (r.a, r.b);
                    tx.send(Pending {
                        idx: i,
                        due,
                        ticket,
                        a,
                        b,
                    })
                    .expect("waiters alive");
                    sent += 1;
                }
                backlog = backlog.max(sent - completed.load(SeqCst));
                while got < sent {
                    completions.recv().expect("waiters alive");
                    got += 1;
                }
                let after = svc.cache().stats();
                compiles += after.misses - before.misses;
                evictions += after.evictions - before.evictions;
                if hi > warm_n {
                    measured_misses += after.misses - measured_before;
                }
                let b0 = Instant::now();
                for _ in 0..BURST {
                    while sent - got >= WINDOW {
                        completions.recv().expect("waiters alive");
                        got += 1;
                    }
                    let r = stream.next(&self.pool);
                    let ticket = svc.submit(request(&self.pool, &r));
                    let (a, b) = (r.a, r.b);
                    tx.send(Pending {
                        idx: sat_idx,
                        due: Instant::now(),
                        ticket,
                        a,
                        b,
                    })
                    .expect("waiters alive");
                    sent += 1;
                    sat_idx += 1;
                }
                while got < sent {
                    completions.recv().expect("waiters alive");
                    got += 1;
                }
                bursts.push(b0.elapsed().as_secs_f64());
            }
            drop(tx);
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("waiter thread"))
                .collect()
        });
        let mut lat_ms = vec![0.0; fixed_n];
        for d in &done {
            tally.record(d.ok);
            if d.idx < fixed_n {
                lat_ms[d.idx] = d.lat_ms;
            }
        }
        ServiceRun {
            lat_ms,
            measured_from: warm_n,
            late_ms,
            backlog,
            bursts,
            cache_bytes: resident / (fixed_n - warm_n) as f64,
            compiles,
            evictions,
            measured_misses,
        }
    }

    /// Fill `cache` with every key, least popular first, so the run
    /// starts from the steady state: the measured misses are capacity
    /// misses, each with an eviction, not first sightings.
    fn prewarm(&self, cache: &PlanCache) {
        let t = TENANT_BERR_TOL.len();
        for key in (0..self.pool.len() * t).rev() {
            let p = &self.pool[key / t];
            cache
                .get_or_compile(&p.a, &tenant_opts(p, key % t))
                .expect("pool patterns compile");
        }
    }

    /// Cold compile, first factor and solve of every pool pattern.
    fn setup(&self, passes: usize, tally: &mut Tally) -> Vec<f64> {
        let mut times = Vec::new();
        for _ in 0..passes {
            let mut xs = Vec::new();
            let t0 = Instant::now();
            for p in &self.pool {
                let b = vec![1.0; p.a.n_rows()];
                let lu = SympilerLu::compile(&p.a, &tenant_opts(p, 0));
                xs.push(
                    lu.ok()
                        .and_then(|lu| lu.factor(&p.a).ok())
                        .map(|f| f.solve(&b)),
                );
            }
            times.push(t0.elapsed().as_secs_f64());
            for (p, x) in self.pool.iter().zip(xs) {
                match x {
                    Some(x) => tally.check(&p.a, &x, &vec![1.0; p.a.n_rows()]),
                    None => {
                        tally.record(false);
                        false
                    }
                };
            }
        }
        times
    }

    fn check_valid(&self, s: &ServiceRun) {
        let late = quantile(&s.late_ms, 0.99);
        if late > MAX_LATE_MS || s.backlog > MAX_BACKLOG {
            eprintln!(
                "invalid run: the generator fell behind (p99 lateness {late:.2} ms, backlog {} requests)",
                s.backlog
            );
            std::process::exit(3);
        }
    }

    pub fn run(&self, run: &Run, m: &mut Metrics, tally: &mut Tally) {
        // Half the cold passes run before the service phases and half
        // after them, so that `setup_s` samples the host at both ends
        // of the run. Times are reported as measured: the host-speed
        // correction of the closed loops (`hostspeed`) did not track
        // this workload (see the README).
        let mut passes = self.setup(SETUP_PASSES / 2, tally);
        let s = self.service(run.secs, tally);
        self.check_valid(&s);
        passes.extend(self.setup(SETUP_PASSES - SETUP_PASSES / 2, tally));
        let setup_s = median(&passes);
        let lat = &s.lat_ms[s.measured_from..];
        let (p99, p99s) = windowed_p99(lat);
        let windows = p99s.len();
        let per_window = lat.len() / windows;
        if beyond_p99(per_window) < 10 {
            eprintln!(
                "warning: only {per_window} requests per window, p99 has fewer than 10 beyond it",
            );
        }
        m.push("setup_s", setup_s, "s");
        m.push("latency_p50_ms", median(lat), "ms");
        m.push("latency_p99_ms", p99, "ms");
        // Capacity: each saturation burst's requests over its time from
        // first submit to drained, median over the bursts spread over
        // the run.
        let capacity: Vec<f64> = s.bursts.iter().map(|t| BURST as f64 / t).collect();
        m.push("throughput_per_s", median(&capacity), "1/s");
        m.note(format!(
            "capacity: {} bursts of {BURST} requests, p10/p50/p90 {:.0}/{:.0}/{:.0} req/s",
            capacity.len(),
            quantile(&capacity, 0.1),
            median(&capacity),
            quantile(&capacity, 0.9)
        ));
        m.push("plan_mb", s.cache_bytes / 1e6, "MB");
        m.note(format!(
            "samples: {} requests at {RATE} req/s; p99 is the median of {windows} windows' p99 ({per_window} requests, {} beyond p99, each: {}); miss share {:.2}%; generator p99 late {:.3} ms, max {:.3} ms; largest backlog at a segment end {}",
            lat.len(),
            beyond_p99(per_window),
            p99s.iter()
                .map(|v| format!("{v:.2}"))
                .collect::<Vec<_>>()
                .join("/"),
            100.0 * s.measured_misses as f64 / lat.len() as f64,
            quantile(&s.late_ms, 0.99),
            quantile(&s.late_ms, 1.0),
            s.backlog
        ));
        let q: Vec<String> = [0.1, 0.5, 0.9, 0.95, 0.97, 0.98, 0.99, 0.995]
            .iter()
            .map(|&q| format!("{:.2}", quantile(lat, q)))
            .collect();
        m.note(format!(
            "latency over the whole measured phase, p10/p50/p90/p95/p97/p98/p99/p99.5: {} ms",
            q.join("/")
        ));
        m.note(self.shares(s.lat_ms.len(), s.measured_from));
    }

    /// Share of the measured fixed-rate requests per pattern family,
    /// and of the most requested patterns, from the key sequence.
    fn shares(&self, fixed_n: usize, from: usize) -> String {
        let t = TENANT_BERR_TOL.len();
        let mut stream = Stream::new(self.seed);
        let mut per_pattern = vec![0usize; self.pool.len()];
        for i in 0..fixed_n {
            let key = stream.next_key();
            if i >= from {
                per_pattern[key / t] += 1;
            }
        }
        let n = (fixed_n - from) as f64;
        let mut family = [0usize; FAMILIES.len()];
        for (i, &c) in per_pattern.iter().enumerate() {
            family[i % FAMILIES.len()] += c;
        }
        per_pattern.sort_unstable_by(|a, b| b.cmp(a));
        let top = |k: usize| 100.0 * per_pattern[..k].iter().sum::<usize>() as f64 / n;
        let fam: Vec<String> = FAMILIES
            .iter()
            .zip(family)
            .map(|(f, c)| format!("{f} {:.1}%", 100.0 * c as f64 / n))
            .collect();
        format!(
            "request shares: {}; top pattern {:.1}%, top 4 {:.1}%, top 10 {:.1}%",
            fam.join(", "),
            top(1),
            top(4),
            top(10)
        )
    }

    pub fn run_traced(&self, run: &Run, m: &mut Metrics, tally: &mut Tally) {
        let s = self.service(run.secs, tally);
        self.check_valid(&s);
        let fixed_n = s.lat_ms.len();
        let measured = fixed_n - s.measured_from;
        m.push(
            "serve.hit_rate",
            1.0 - s.measured_misses as f64 / measured as f64,
            "fraction",
        );
        m.push("serve.compiles", s.compiles as f64, "count");
        m.push("serve.evictions", s.evictions as f64, "count");
        m.push("serve.gen_late_ms_p99", quantile(&s.late_ms, 0.99), "ms");
        m.push("serve.backlog_end", s.backlog as f64, "count");

        // Replays of the fixed-rate sequence, one thread, in chunks
        // that rotate over four arms: direct cache calls without and
        // with the benchmark's spans, and a one-worker service with the
        // cache profiler off and on.
        let arms = [PlanCache::new(Self::cfg()), PlanCache::new(Self::cfg())];
        let prof = Arc::new(Profiler::enabled());
        let svc_off = FactorService::new(1, Arc::new(PlanCache::new(Self::cfg())));
        let svc_on = FactorService::new(
            1,
            Arc::new(PlanCache::with_profiler(Self::cfg(), Arc::clone(&prof))),
        );
        for cache in [&arms[0], &arms[1], svc_off.cache(), svc_on.cache()] {
            self.prewarm(cache);
        }
        prof.reset();
        let replay_start = arms[0].stats();
        let rec_off = Profiler::disabled();
        let rec_on = Profiler::enabled();
        let mut ws = [LuWorkspace::new(), LuWorkspace::new()];
        let mut stream = Stream::new(self.seed);
        let mut service_ms = vec![0.0; fixed_n];
        let (mut lookup_us, mut miss_ms) = (Vec::new(), Vec::new());
        let (mut trace_ratio, mut obs_ratio) = (Vec::new(), Vec::new());
        let chunk = 64;
        let mut i = 0;
        let mut round = 0;
        while i < fixed_n {
            let reqs: Vec<Req> = (i..fixed_n.min(i + chunk))
                .map(|_| stream.next(&self.pool))
                .collect();
            // Arm 0 covers every request (its times feed the queue-wait
            // metric); the paired arms stop after `PAIRED` requests.
            let arms_now = if i < PAIRED { 4 } else { 1 };
            let mut t = [0.0f64; 4];
            for arm in (0..arms_now).map(|k| (k + round) % arms_now) {
                let mut xs = Vec::with_capacity(reqs.len());
                let t0 = Instant::now();
                for (j, r) in reqs.iter().enumerate() {
                    xs.push(match arm {
                        0 | 1 => {
                            let rec = if arm == 0 { &rec_off } else { &rec_on };
                            let (x, ms, lookup, miss) =
                                self.replay_one(&arms[arm], &mut ws[arm], r, rec);
                            if arm == 0 {
                                service_ms[i + j] = ms;
                                if miss {
                                    miss_ms.push(lookup * 1e-3);
                                } else {
                                    lookup_us.push(lookup);
                                }
                            }
                            x
                        }
                        _ => {
                            let svc = if arm == 2 { &svc_off } else { &svc_on };
                            svc.call(request(&self.pool, r))
                                .ok()
                                .and_then(|mut resp| resp.solutions.pop())
                        }
                    });
                }
                t[arm] = t0.elapsed().as_secs_f64();
                for (r, x) in reqs.iter().zip(xs) {
                    match x {
                        Some(x) => tally.check(&r.a, &x, &r.b),
                        None => {
                            tally.record(false);
                            false
                        }
                    };
                }
            }
            if arms_now == 4 {
                trace_ratio.push(t[1] / t[0]);
                obs_ratio.push(t[3] / t[2]);
            }
            i += reqs.len();
            round += 1;
        }
        let queue_wait: Vec<f64> = (s.measured_from..fixed_n)
            .map(|k| s.lat_ms[k] - service_ms[k])
            .collect();
        let replay = arms[0].stats();
        m.push(
            "serve.replay_compiles",
            (replay.misses - replay_start.misses) as f64,
            "count",
        );
        m.push(
            "serve.replay_evictions",
            (replay.evictions - replay_start.evictions) as f64,
            "count",
        );
        m.push("serve.lookup_us", median(&lookup_us), "us");
        m.push("serve.miss_ms", median(&miss_ms), "ms");
        m.note(format!(
            "serve.miss_ms: {} replayed misses, p10/p50/p90 {:.2}/{:.2}/{:.2} ms",
            miss_ms.len(),
            quantile(&miss_ms, 0.1),
            median(&miss_ms),
            quantile(&miss_ms, 0.9)
        ));
        m.push("serve.queue_wait_ms_p99", quantile(&queue_wait, 0.99), "ms");
        m.push(
            "trace.overhead_pct",
            100.0 * (median(&trace_ratio) - 1.0),
            "%",
        );
        m.push("obs.overhead_pct", 100.0 * (median(&obs_ratio) - 1.0), "%");
        let spans = prof.snapshot("serve_mixed").spans.len();
        m.push(
            "obs.spans_per_request",
            spans as f64 / fixed_n.min(PAIRED) as f64,
            "count",
        );
        let profile = rec_on.snapshot(&run.workload);
        let (rest_pct, mut violations) = layers::accounting(&profile, "request");
        m.push("trace.remainder_pct", rest_pct, "%");
        if let Err(e) = layers::write_trace(&run.trace_path(), profile) {
            eprintln!("warning: could not write spans: {e}");
        }

        let pool: Vec<Problem> = self
            .pool
            .iter()
            .map(|p| Problem {
                name: p.name.clone(),
                a: p.a.clone(),
                opts: tenant_opts(p, 0),
            })
            .collect();
        let plans = layers::compile_stages(&pool, 3, m, &mut violations);
        m.push("trace.violations", violations as f64, "count");
        layers::plan_stats(&plans, m);
        crate::calibrate(m, 0.0, 0.0);
    }

    /// One request straight through the cache: returns (solution,
    /// service time in ms, `get_or_compile` time in µs, whether it
    /// missed).
    fn replay_one(
        &self,
        cache: &PlanCache,
        ws: &mut LuWorkspace,
        r: &Req,
        rec: &Profiler,
    ) -> (Option<Vec<f64>>, f64, f64, bool) {
        let t = TENANT_BERR_TOL.len();
        let opts = tenant_opts(&self.pool[r.key / t], r.key % t);
        let misses = cache.stats().misses;
        let start = Instant::now();
        let root = rec.begin(0, "request");
        let t0 = rec.now_ns();
        let plan = cache.get_or_compile(&r.a, &opts);
        let lookup = start.elapsed().as_secs_f64() * 1e6;
        let t1 = rec.now_ns();
        let x = plan.ok().and_then(|plan| {
            let f = plan.factor_with(&r.a, ws).ok();
            let t2 = rec.now_ns();
            let x = f.map(|f| f.solve(&r.b));
            let t3 = rec.now_ns();
            if rec.is_enabled() {
                rec.add_span(0, "lookup", t0, t1 - t0, &[]);
                rec.add_span(0, "factor", t1, t2 - t1, &[]);
                rec.add_span(0, "solve", t2, t3 - t2, &[]);
            }
            x
        });
        rec.end(root);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let miss = cache.stats().misses > misses;
        (x, ms, lookup, miss)
    }
}
