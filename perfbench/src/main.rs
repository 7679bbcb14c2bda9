//! The repository benchmark. One run drives one workload through the
//! public LU API, checks every answer, and prints a table followed by
//! one JSON line: the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics from a separate traced run (`--trace 1`).
//!
//! ```text
//! perfbench --workload <refactor_serial|refactor_kkt_2t|serve_mixed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `peak_rss_mb` is added by `run.py`, which measures the process.

mod check;
mod closed;
mod hostspeed;
mod layers;
mod problems;
mod serve;
mod stats;

use check::Tally;

/// Every per-layer metric, with its unit. A traced run prints all of
/// them; one that does not apply to the workload reads 0 and is marked
/// n/a in the table.
const PER_LAYER: &[(&str, &str)] = &[
    ("graph.prepivot_ms", "ms"),
    ("graph.ordering_ms", "ms"),
    ("graph.symbolic_ms", "ms"),
    ("graph.panels_ms", "ms"),
    ("compile.total_ms", "ms"),
    ("compile.rest_ms", "ms"),
    ("compile.per_factor_x", "x"),
    ("plan.factor_ms", "ms"),
    ("plan.factor_gflops", "GFLOP/s"),
    ("plan.factor_gbps", "GB/s"),
    ("plan.factor_peak_pct", "%"),
    ("plan.factor_stream_pct", "%"),
    ("plan.solve_ms", "ms"),
    ("plan.refine_iters", "iters"),
    ("plan.t2_speedup", "x"),
    ("plan.supernodal_share", "fraction"),
    ("plan.mean_panel_width", "cols"),
    ("plan.dense_flop_share", "fraction"),
    ("plan.table_mb", "MB"),
    ("plan.mflops", "Mflop"),
    ("dense.gemm_gflops", "GFLOP/s"),
    ("host.gemm_peak_gflops", "GFLOP/s"),
    ("host.stream_gbps", "GB/s"),
    ("host.ref_kernel_ms", "ms"),
    ("serve.hit_rate", "fraction"),
    ("serve.compiles", "count"),
    ("serve.evictions", "count"),
    ("serve.replay_compiles", "count"),
    ("serve.replay_evictions", "count"),
    ("serve.lookup_us", "us"),
    ("serve.miss_ms", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.gen_late_ms_p99", "ms"),
    ("serve.backlog_end", "count"),
    ("obs.overhead_pct", "%"),
    ("obs.spans_per_request", "count"),
    ("ref.gplu_factor_ms", "ms"),
    ("ref.decoupling_x", "x"),
    ("trace.overhead_pct", "%"),
    ("trace.remainder_pct", "%"),
    ("trace.violations", "count"),
];

/// End-to-end metrics the binary measures (`peak_rss_mb` comes from
/// `run.py`). Failures are the result's `failed` / `attempted`.
const END_TO_END: &[&str] = &[
    "setup_s",
    "latency_p50_ms",
    "latency_p99_ms",
    "throughput_per_s",
    "plan_mb",
];

const WORKLOADS: &[&str] = &["refactor_serial", "refactor_kkt_2t", "serve_mixed"];

pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub secs: f64,
    pub trace: bool,
}

impl Run {
    /// Where the traced run writes its spans, as a chrome trace
    /// (ignored by git).
    pub fn trace_path(&self) -> std::path::PathBuf {
        std::path::Path::new("perfbench/out")
            .join(format!("trace_{}_{}.json", self.workload, self.seed))
    }
}

/// Named metrics in insertion order, plus notes for the table.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    pub fn note(&mut self, s: String) {
        self.notes.push(s);
    }
}

/// Host calibration: the dense kernel's peak over cache-resident
/// shapes, a streaming triad over arrays four times the last-level
/// cache and the raw time of the host-speed reference kernel; the
/// factor's achieved rates as shares of the first two.
pub fn calibrate(m: &mut Metrics, factor_gflops: f64, factor_gbps: f64) {
    let peak = layers::gemm_peak_gflops();
    let llc = layers::llc_bytes();
    let (stream, bytes) = layers::stream_gbps(llc.unwrap_or(layers::LLC_FALLBACK));
    m.push("host.gemm_peak_gflops", peak, "GFLOP/s");
    m.push("host.stream_gbps", stream, "GB/s");
    let mut hs = hostspeed::HostSpeed::new();
    hs.sample(15);
    m.push("host.ref_kernel_ms", hs.kernel_ms(), "ms");
    let mib = |b: usize| b as f64 / (1 << 20) as f64;
    m.note(format!(
        "host.stream_gbps: triad over {:.0} MiB of arrays, last-level cache {}",
        mib(bytes),
        match llc {
            Some(b) => format!("{:.0} MiB", mib(b)),
            None => format!(
                "unknown (not in /sys or getconf; sized for {:.0} MiB)",
                mib(layers::LLC_FALLBACK)
            ),
        }
    ));
    if factor_gflops > 0.0 {
        m.push("plan.factor_peak_pct", 100.0 * factor_gflops / peak, "%");
        m.push("plan.factor_stream_pct", 100.0 * factor_gbps / stream, "%");
    }
}

fn parse_args() -> Result<Run, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut run = Run {
        workload: String::new(),
        seed: 0,
        secs: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => run.workload = val.clone(),
            "--seed" => run.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => run.secs = val.parse().map_err(|_| bad())?,
            "--trace" => run.trace = val.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&run.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(run.secs > 0.0 && run.secs <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(run)
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let run = match parse_args() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = check::self_test() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    match (run.workload.as_str(), run.trace) {
        ("serve_mixed", false) => serve::Serve::new(run.seed).run(&run, &mut m, &mut tally),
        ("serve_mixed", true) => serve::Serve::new(run.seed).run_traced(&run, &mut m, &mut tally),
        (w, traced) => {
            let c = if w == "refactor_kkt_2t" {
                let (problems, weights) = problems::refactor_kkt(run.seed);
                closed::Closed::new(problems, &weights, true)
            } else {
                let (problems, weights) = problems::refactor_serial(run.seed);
                closed::Closed::new(problems, &weights, false)
            };
            if traced {
                c.run_traced(&run, &mut m, &mut tally);
            } else {
                c.run(&run, &mut m, &mut tally);
            }
        }
    }

    let names: Vec<(&str, &str)> = if run.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END
            .iter()
            .map(|&n| {
                let unit = m.values.iter().find(|v| v.0 == n).map_or("", |v| v.2);
                (n, unit)
            })
            .collect()
    };
    println!(
        "workload {} seed {} seconds {} trace {} (threads available: {})",
        run.workload,
        run.seed,
        run.secs,
        u8::from(run.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut fields = Vec::new();
    for (name, unit) in names {
        let value = m.get(name);
        match value {
            Some(v) => println!("  {name:<26} {v:>14.6} {unit}"),
            None => println!("  {name:<26} {:>14} {unit}", "n/a"),
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(value.unwrap_or(0.0))
        ));
    }
    println!(
        "  {:<26} {:>14.6} fraction ({} of {} operations)",
        "fail_frac",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    for n in &m.notes {
        println!("  note: {n}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed,
        fields.join(", ")
    );
}
