//! The two closed-loop refactor workloads: one caller that, per step,
//! takes fresh values of one of the workload's patterns, refactors
//! through the compiled plan and solves.

use crate::check::Tally;
use crate::hostspeed::HostSpeed;
use crate::layers;
use crate::problems::{fresh_values, Problem};
use crate::stats::{beyond_p99, median, quantile, Rng};
use crate::{Metrics, Run};
use std::time::Instant;
use sympiler_core::{LuWorkspace, SympilerLu, SympilerOptions};
use sympiler_obs::Profiler;
use sympiler_sparse::CscMatrix;

/// Cold passes over every pattern behind `setup_s`.
const SETUP_PASSES: usize = 15;
/// Consecutive steps on one pattern, as in a transient or Newton loop
/// that refactors one system several times before moving on.
const RUN: usize = 5;
/// Value sets generated per pattern before the timed loop.
const VARIANTS: usize = 4;
/// Reference-kernel runs at each end of the loop; within it, one run
/// after every `SAMPLE_EVERY` steps (two runs of steps), about 4% of
/// the loop's time.
const SPEED_SAMPLES: usize = 9;
const SAMPLE_EVERY: usize = 2 * RUN;
/// `solve_refined` tolerance and iteration cap on the KKT workload.
const REFINE_TOL: f64 = 1e-12;
const REFINE_ITERS: usize = 10;

pub struct Closed {
    problems: Vec<Problem>,
    /// Solve through `solve_refined` (the KKT workload) instead of
    /// `solve`.
    refine: bool,
    /// Pattern of each step in one cycle of the loop.
    schedule: Vec<usize>,
}

struct Answer {
    x: Vec<f64>,
    refine_iters: usize,
}

impl Closed {
    /// A loop over `problems` in which pattern `p` takes `weights[p]`
    /// runs of `RUN` consecutive steps in every cycle, the runs spread
    /// evenly (smooth weighted round-robin).
    pub fn new(problems: Vec<Problem>, weights: &[usize], refine: bool) -> Self {
        assert_eq!(problems.len(), weights.len(), "one weight per pattern");
        let total: usize = weights.iter().sum();
        let mut credit = vec![0isize; weights.len()];
        let schedule = (0..total)
            .map(|_| {
                for (c, &w) in credit.iter_mut().zip(weights) {
                    *c += w as isize;
                }
                let p = (0..weights.len())
                    .max_by_key(|&p| credit[p])
                    .expect("patterns");
                credit[p] -= total as isize;
                p
            })
            .flat_map(|p| std::iter::repeat_n(p, RUN))
            .collect();
        Self {
            problems,
            refine,
            schedule,
        }
    }

    /// Pattern of step `k`.
    fn pattern(&self, k: usize) -> usize {
        self.schedule[k % self.schedule.len()]
    }

    /// Share of steps that go to each pattern.
    fn shares(&self) -> Vec<f64> {
        let mut share = vec![0.0; self.problems.len()];
        for &p in &self.schedule {
            share[p] += 1.0 / self.schedule.len() as f64;
        }
        share
    }

    fn solve(
        &self,
        lu: &SympilerLu,
        ws: &mut LuWorkspace,
        a: &CscMatrix,
        b: &[f64],
        prof: &Profiler,
        step: usize,
    ) -> Option<Answer> {
        let root = prof.begin(0, "step");
        let t0 = prof.now_ns();
        let Ok(f) = lu.factor_with(a, ws) else {
            prof.end(root);
            return None;
        };
        let t1 = prof.now_ns();
        let (x, refine_iters) = if self.refine {
            let (x, r) = f.solve_refined(a, b, REFINE_TOL, REFINE_ITERS);
            (x, r.iterations)
        } else {
            (f.solve(b), 0)
        };
        let t2 = prof.now_ns();
        if prof.is_enabled() {
            let step = [("step", step as f64)];
            prof.add_span(0, "factor", t0, t1 - t0, &step);
            prof.add_span(0, "solve", t1, t2 - t1, &step);
            prof.end(root);
        }
        Some(Answer { x, refine_iters })
    }

    /// One cold pass: compile, first factor and first solve of every
    /// pattern, answers checked after the clock stops. Returns the pass
    /// time in seconds and its plans.
    fn setup_pass(&self, tally: &mut Tally) -> (f64, Vec<SympilerLu>) {
        let off = Profiler::disabled();
        let mut plans = Vec::new();
        let mut answers = Vec::new();
        let t0 = Instant::now();
        for p in &self.problems {
            let lu = SympilerLu::compile(&p.a, &p.opts).expect("workload patterns compile");
            let b = vec![1.0; p.a.n_rows()];
            answers.push(self.solve(&lu, &mut LuWorkspace::new(), &p.a, &b, &off, 0));
            plans.push(lu);
        }
        let secs = t0.elapsed().as_secs_f64();
        for (p, ans) in self.problems.iter().zip(answers) {
            let b = vec![1.0; p.a.n_rows()];
            match ans {
                Some(ans) => tally.check(&p.a, &ans.x, &b),
                None => {
                    tally.record(false);
                    false
                }
            };
        }
        (secs, plans)
    }

    fn variants(&self, seed: u64) -> Vec<Vec<(CscMatrix, Vec<f64>)>> {
        let mut rng = Rng::new(seed ^ 0x7661_6c73);
        self.problems
            .iter()
            .map(|p| {
                (0..VARIANTS)
                    .map(|_| fresh_values(&p.a, &mut rng))
                    .collect()
            })
            .collect()
    }

    /// Step `k`; returns its pattern, the step time in ms (factor +
    /// solve) and refinement iterations.
    fn step(
        &self,
        plans: &[SympilerLu],
        vars: &[Vec<(CscMatrix, Vec<f64>)>],
        ws: &mut LuWorkspace,
        k: usize,
        tally: &mut Tally,
        prof: &Profiler,
    ) -> Option<(usize, f64, usize)> {
        let p = self.pattern(k);
        let (a, b) = &vars[p][k % VARIANTS];
        let t0 = Instant::now();
        let ans = self.solve(&plans[p], ws, a, b, prof, k);
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        match ans {
            Some(ans) => tally
                .check(a, &ans.x, b)
                .then_some((p, dt, ans.refine_iters)),
            None => {
                tally.record(false);
                None
            }
        }
    }

    /// End-to-end run: setup, a short warm-up, then steps for `secs`.
    /// Every reported time is scaled to the host's reference speed
    /// (`hostspeed`), from reference-kernel runs made between runs of
    /// steps on the loop's own thread.
    pub fn run(&self, run: &Run, m: &mut Metrics, tally: &mut Tally) {
        let mut hs = HostSpeed::new();
        hs.sample(SPEED_SAMPLES);
        // The first cold pass builds the loop's plans; the others run
        // at evenly spaced points of the timed loop, between runs of
        // steps and outside every step's time, so that `setup_s` (their
        // median) samples the host over the whole run, not only its
        // first seconds.
        let at = Instant::now();
        let (first, plans) = self.setup_pass(tally);
        let mut passes = vec![(at, first)];
        let vars = self.variants(run.seed);
        let mut ws = LuWorkspace::new();
        let off = Profiler::disabled();
        let warm = Instant::now();
        let mut k = 0;
        while warm.elapsed().as_secs_f64() < 0.05 * run.secs {
            if k % SAMPLE_EVERY == 0 {
                hs.sample(1);
            }
            self.step(&plans, &vars, &mut ws, k, tally, &off);
            k += 1;
        }
        // (start of the step, pattern, raw ms)
        let mut steps = Vec::new();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < run.secs {
            let due = run.secs * passes.len() as f64 / SETUP_PASSES as f64;
            if k % RUN == 0 && passes.len() < SETUP_PASSES && start.elapsed().as_secs_f64() >= due {
                let at = Instant::now();
                passes.push((at, self.setup_pass(tally).0));
            }
            if k % SAMPLE_EVERY == 0 {
                hs.sample(1);
            }
            let at = Instant::now();
            if let Some((p, dt, _)) = self.step(&plans, &vars, &mut ws, k, tally, &off) {
                steps.push((at, p, dt));
            }
            k += 1;
        }
        hs.sample(SPEED_SAMPLES);
        let lat: Vec<f64> = steps
            .iter()
            .map(|&(at, _, dt)| dt * hs.scale_at(at))
            .collect();
        let raw: Vec<f64> = steps.iter().map(|s| s.2).collect();
        let mut per_pattern = vec![Vec::new(); self.problems.len()];
        for (s, &dt) in steps.iter().zip(&lat) {
            per_pattern[s.1].push(dt);
        }
        for ((p, t), lu) in self.problems.iter().zip(&per_pattern).zip(&plans) {
            m.note(format!(
                "{}: n = {}, {:.3} Mflop, {:.1}% of steps, step p10/p50/p90 {:.3}/{:.3}/{:.3} ms, {}",
                p.name,
                p.a.n_cols(),
                lu.flops() as f64 / 1e6,
                100.0 * t.len() as f64 / lat.len() as f64,
                quantile(t, 0.1),
                median(t),
                quantile(t, 0.9),
                if lu.is_supernodal() {
                    "supernodal"
                } else {
                    "scalar"
                }
            ));
        }
        if beyond_p99(lat.len()) < 10 {
            eprintln!(
                "warning: only {} steps, p99 has fewer than 10 beyond it",
                lat.len()
            );
        }
        // Throughput: steps per second of time inside factor + solve
        // over each whole cycle of the schedule (every pattern at its
        // share), median over cycles, so a stall in one cycle does not
        // move it.
        let rates: Vec<f64> = lat
            .chunks_exact(self.schedule.len())
            .map(|c| c.len() as f64 / (c.iter().sum::<f64>() * 1e-3))
            .collect();
        let setup: Vec<f64> = passes.iter().map(|&(at, s)| s * hs.scale_at(at)).collect();
        let table: usize = plans.iter().map(SympilerLu::table_bytes).sum();
        m.push("setup_s", median(&setup), "s");
        m.push("latency_p50_ms", median(&lat), "ms");
        m.push("latency_p99_ms", quantile(&lat, 0.99), "ms");
        m.push("throughput_per_s", median(&rates), "1/s");
        m.push("plan_mb", table as f64 / 1e6, "MB");
        m.note(format!(
            "samples: {} steps over {} patterns ({} beyond p99); throughput is the median over {} whole cycles of time inside factor + solve; setup_s is the median of {} cold passes",
            lat.len(),
            self.problems.len(),
            beyond_p99(lat.len()),
            rates.len(),
            passes.len()
        ));
        m.note(format!(
            "host speed: reference kernel median {:.3} ms over the run (scale {:.3}); raw setup_s {:.4} s, raw step p50/p99 {:.3}/{:.3} ms",
            hs.kernel_ms(),
            hs.scale(),
            median(&passes.iter().map(|p| p.1).collect::<Vec<_>>()),
            median(&raw),
            quantile(&raw, 0.99)
        ));
    }

    /// Traced run: interleaved untraced/traced blocks of steps give the
    /// per-pattern factor and solve times from spans and the tracing
    /// overhead; then the compile stages, plan getters, kernels and the
    /// coupled reference.
    pub fn run_traced(&self, run: &Run, m: &mut Metrics, tally: &mut Tally) {
        let np = self.problems.len();
        let share = self.shares();
        let mut violations = 0;
        let plans = layers::compile_stages(&self.problems, 5, m, &mut violations);
        let vars = self.variants(run.seed);
        let mut ws = LuWorkspace::new();
        let block = self.schedule.len().max(24);
        let off = Profiler::disabled();
        let on = Profiler::enabled();
        let mut ratios = Vec::new();
        let mut iters = Vec::new();
        let mut k = 0;
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < 0.4 * run.secs || ratios.len() < 5 {
            let mut t = [0.0f64; 2];
            let order = if ratios.len() % 2 == 0 {
                [0, 1]
            } else {
                [1, 0]
            };
            for side in order {
                let prof = if side == 0 { &off } else { &on };
                for i in 0..block {
                    if let Some((_, dt, it)) = self.step(&plans, &vars, &mut ws, k + i, tally, prof)
                    {
                        t[side] += dt;
                        iters.push(it as f64);
                    }
                }
            }
            k += block;
            ratios.push(t[1] / t[0]);
        }
        m.push("trace.overhead_pct", 100.0 * (median(&ratios) - 1.0), "%");

        // Per-pattern medians from the traced steps' spans.
        let profile = on.snapshot(&run.workload);
        let (mut factor, mut solve) = (vec![Vec::new(); np], vec![Vec::new(); np]);
        for s in &profile.spans {
            let Some(&(_, step)) = s.args.first() else {
                continue;
            };
            let p = self.pattern(step as usize);
            match s.name.as_str() {
                "factor" => factor[p].push(s.dur_ns as f64 * 1e-6),
                "solve" => solve[p].push(s.dur_ns as f64 * 1e-6),
                _ => {}
            }
        }
        // Step-weighted means: what an average step of the loop spends.
        let per_step = |v: &[f64]| -> f64 { v.iter().zip(&share).map(|(x, w)| x * w).sum() };
        let factor_ms: Vec<f64> = factor.iter().map(|v| median(v)).collect();
        let solve_ms: Vec<f64> = solve.iter().map(|v| median(v)).collect();
        let flops: Vec<f64> = plans.iter().map(|lu| lu.flops() as f64).collect();
        let bytes: Vec<f64> = plans
            .iter()
            .zip(&self.problems)
            .map(|(lu, p)| layers::factor_bytes(lu, &p.a))
            .collect();
        let step_factor_ms = per_step(&factor_ms);
        let gflops = per_step(&flops) / (step_factor_ms * 1e-3) / 1e9;
        let gbps = per_step(&bytes) / (step_factor_ms * 1e-3) / 1e9;
        m.push("plan.factor_ms", step_factor_ms, "ms");
        m.push("plan.factor_gflops", gflops, "GFLOP/s");
        m.push("plan.factor_gbps", gbps, "GB/s");
        m.push("plan.solve_ms", per_step(&solve_ms), "ms");
        if self.refine {
            m.push(
                "plan.refine_iters",
                iters.iter().sum::<f64>() / iters.len() as f64,
                "iters",
            );
        }
        let compile_total = m.get("compile.total_ms").unwrap_or(0.0);
        m.push(
            "compile.per_factor_x",
            compile_total / factor_ms.iter().sum::<f64>(),
            "x",
        );
        let (rest_pct, v) = layers::accounting(&profile, "step");
        m.push("trace.remainder_pct", rest_pct, "%");
        violations += v;
        m.push("trace.violations", violations as f64, "count");
        if let Err(e) = layers::write_trace(&run.trace_path(), profile) {
            eprintln!("warning: could not write spans: {e}");
        }

        if let Some((rows, width)) = layers::plan_stats(&plans, m) {
            m.push(
                "dense.gemm_gflops",
                layers::gemm_gflops(rows, width, width, 0.3),
                "GFLOP/s",
            );
            m.note(format!(
                "dense.gemm_gflops shape: m = {rows}, n = k = {width}"
            ));
        }
        crate::calibrate(m, gflops, gbps);

        let gplu = per_step(&layers::gplu_factor_ms(&self.problems, &plans, 5, tally));
        m.push("ref.gplu_factor_ms", gplu, "ms");
        m.push("ref.decoupling_x", gplu / step_factor_ms, "x");

        if self.refine {
            m.push(
                "plan.t2_speedup",
                self.t2_speedup(&plans, &vars, tally),
                "x",
            );
        }
    }

    /// Factor time of the same patterns compiled at one thread over the
    /// time of the workload's own (two-thread) plans, interleaved.
    fn t2_speedup(
        &self,
        plans: &[SympilerLu],
        vars: &[Vec<(CscMatrix, Vec<f64>)>],
        tally: &mut Tally,
    ) -> f64 {
        let serial: Vec<SympilerLu> = self
            .problems
            .iter()
            .map(|p| {
                let opts = SympilerOptions {
                    n_threads: 1,
                    ..p.opts.clone()
                };
                SympilerLu::compile(&p.a, &opts).expect("workload patterns compile")
            })
            .collect();
        let mut ws = LuWorkspace::new();
        let (mut t1, mut t2) = (0.0, 0.0);
        for p in 0..self.problems.len() {
            let (mut s1, mut s2) = (Vec::new(), Vec::new());
            for r in 0..15 {
                let a = &vars[p][r % VARIANTS].0;
                for (lu, out) in [(&serial[p], &mut s1), (&plans[p], &mut s2)] {
                    let t0 = Instant::now();
                    let ok = lu.factor_with(a, &mut ws).is_ok();
                    out.push(t0.elapsed().as_secs_f64());
                    tally.record(ok);
                }
            }
            t1 += median(&s1);
            t2 += median(&s2);
        }
        t1 / t2
    }
}
