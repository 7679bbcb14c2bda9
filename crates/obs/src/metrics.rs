//! Metrics: log-bucketed latency histograms with a lock-free record
//! path, a named registry alongside the profiler's counters/gauges,
//! Prometheus-style text exposition, and a JSON snapshot writer
//! (`results/METRICS_<experiment>.json`) built on [`crate::json`].
//!
//! ## Bucket scheme
//!
//! Buckets are log-linear (HdrHistogram-style): each power-of-two
//! octave is split into [`SUB_BUCKETS`] = 8 linear sub-buckets, so the
//! relative bucket width is at most `1/8` = 12.5% everywhere. Values
//! below 8 get exact unit buckets. With 64-bit values this needs
//! [`N_BUCKETS`] = 496 buckets, small enough to keep one `AtomicU64`
//! per bucket: `record` is an index computation plus three relaxed
//! `fetch_add`s — no locks, safe from any number of worker threads.
//!
//! Quantiles are read from bucket *upper* bounds, so a reported p99 is
//! an overestimate by at most one bucket (≤12.5% relative). Histograms
//! with identical contents report identical quantiles, which is what
//! lets `serve_bench` print p50/p99/p999 straight from the same
//! histogram it snapshots into `METRICS_*.json`.

use crate::json::{self, escape, number, Value};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Linear sub-buckets per power-of-two octave (must be a power of two).
pub const SUB_BUCKETS: u64 = 8;
const SUB_LOG2: u32 = 3;
/// Total bucket count covering the full `u64` range.
pub const N_BUCKETS: usize = ((64 - SUB_LOG2 as usize) + 1) * SUB_BUCKETS as usize;

/// Bucket index for a value (log-linear; see module docs).
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        v as usize
    } else {
        let e = 63 - v.leading_zeros();
        let sub = (v >> (e - SUB_LOG2)) - SUB_BUCKETS;
        ((e - SUB_LOG2 + 1) as u64 * SUB_BUCKETS + sub) as usize
    }
}

/// Inclusive `[lo, hi]` value range of a bucket.
fn bucket_bounds(idx: usize) -> (u64, u64) {
    let idx = idx as u64;
    if idx < SUB_BUCKETS {
        (idx, idx)
    } else {
        let g = idx / SUB_BUCKETS;
        let sub = idx % SUB_BUCKETS;
        let lo = (SUB_BUCKETS + sub) << (g - 1);
        let width = 1u64 << (g - 1);
        (lo, lo + (width - 1))
    }
}

/// A mergeable log-bucketed histogram of `u64` samples (nanoseconds by
/// convention). Recording is lock-free; all methods take `&self`, so a
/// histogram is shared across worker threads behind an `Arc`.
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self {
            buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one sample. Lock-free (three relaxed `fetch_add`s).
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Record a duration as nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_nanos() as u64);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Fold another histogram's samples into this one (used to merge
    /// per-worker histograms into a service-wide one).
    pub fn merge(&self, other: &Histogram) {
        for (b, o) in self.buckets.iter().zip(&other.buckets) {
            let v = o.load(Ordering::Relaxed);
            if v != 0 {
                b.fetch_add(v, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        self.sum.fetch_add(other.sum(), Ordering::Relaxed);
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the
    /// bucket holding the rank-`ceil(q·count)` sample; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= target {
                return bucket_bounds(i).1;
            }
        }
        bucket_bounds(N_BUCKETS - 1).1
    }

    /// Snapshot into a plain summary (non-empty buckets only).
    pub fn summarize(&self, name: &str) -> HistogramSummary {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                (c != 0).then(|| {
                    let (lo, hi) = bucket_bounds(i);
                    (lo, hi, c)
                })
            })
            .collect();
        HistogramSummary {
            name: name.to_string(),
            count: self.count(),
            sum: self.sum(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
            buckets,
        }
    }
}

/// A point-in-time summary of one histogram: totals, the four standard
/// quantiles, and the non-empty `(lo, hi, count)` buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    pub name: String,
    pub count: u64,
    pub sum: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub p999: u64,
    pub buckets: Vec<(u64, u64, u64)>,
}

/// Named histograms, counters, and gauges for a serving process.
///
/// Registration (`histogram`, `counter`) takes a short lock; the
/// returned handles record lock-free, so hot paths hoist the handle
/// once. Gauges use *set* semantics (last write per name wins), like
/// the profiler's.
#[derive(Default)]
pub struct MetricsRegistry {
    histograms: Mutex<Vec<(String, Arc<Histogram>)>>,
    counters: Mutex<Vec<(String, Arc<AtomicU64>)>>,
    gauges: Mutex<Vec<(String, f64)>>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Get (creating on first use) the named histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut h = self.histograms.lock().unwrap();
        if let Some((_, a)) = h.iter().find(|(n, _)| n == name) {
            return a.clone();
        }
        let a = Arc::new(Histogram::new());
        h.push((name.to_string(), a.clone()));
        a
    }

    /// Get (creating on first use) the named counter handle.
    pub fn counter(&self, name: &str) -> crate::Counter {
        let mut c = self.counters.lock().unwrap();
        if let Some((_, a)) = c.iter().find(|(n, _)| n == name) {
            return crate::Counter::from_shared(a.clone());
        }
        let a = Arc::new(AtomicU64::new(0));
        c.push((name.to_string(), a.clone()));
        crate::Counter::from_shared(a)
    }

    /// Set a gauge (replaces any previous value of the same name).
    pub fn set_gauge(&self, name: &str, value: f64) {
        let mut g = self.gauges.lock().unwrap();
        match g.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => g.push((name.to_string(), value)),
        }
    }

    /// Snapshot everything into a serializable [`MetricsSnapshot`].
    pub fn snapshot(&self, experiment: &str) -> MetricsSnapshot {
        let histograms = self
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(n, h)| h.summarize(n))
            .collect();
        let counters = self
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(n, a)| (n.clone(), a.load(Ordering::Relaxed)))
            .collect();
        let gauges = self.gauges.lock().unwrap().clone();
        MetricsSnapshot {
            experiment: experiment.to_string(),
            histograms,
            counters,
            gauges,
        }
    }
}

/// A serializable snapshot of a [`MetricsRegistry`]: the payload of
/// `results/METRICS_<experiment>.json` and of the Prometheus text
/// exposition.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    pub experiment: String,
    pub histograms: Vec<HistogramSummary>,
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
}

/// Prometheus metric names allow `[a-zA-Z0-9_:]`; dots become `_`.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

impl MetricsSnapshot {
    /// Look up a histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Absorb a profiler snapshot's counters and gauges, so one
    /// `METRICS_*.json` carries both the registry's histograms and the
    /// profiler's serving counters (cache hits, worker respawns, ...).
    pub fn absorb_profile(&mut self, p: &crate::Profile) {
        for (n, v) in &p.counters {
            self.counters.push((n.clone(), *v));
        }
        for (n, v) in &p.gauges {
            self.gauges.push((n.clone(), *v));
        }
    }

    /// Prometheus text exposition (histogram with cumulative `le`
    /// buckets, counters, gauges).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for h in &self.histograms {
            let name = prom_name(&h.name);
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cum = 0u64;
            for &(_, hi, c) in &h.buckets {
                cum += c;
                out.push_str(&format!("{name}_bucket{{le=\"{hi}\"}} {cum}\n"));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{name}_sum {}\n", h.sum));
            out.push_str(&format!("{name}_count {}\n", h.count));
        }
        for (n, v) in &self.counters {
            let name = prom_name(n);
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (n, v) in &self.gauges {
            let name = prom_name(n);
            out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", number(*v)));
        }
        out
    }

    /// Serialize to the METRICS json schema (see ARCHITECTURE.md).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"experiment\": \"{}\",\n",
            escape(&self.experiment)
        ));
        out.push_str("  \"histograms\": [\n");
        let hists: Vec<String> = self
            .histograms
            .iter()
            .map(|h| {
                let buckets: Vec<String> = h
                    .buckets
                    .iter()
                    .map(|&(lo, hi, c)| format!("{{\"lo\": {lo}, \"hi\": {hi}, \"count\": {c}}}"))
                    .collect();
                format!(
                    "    {{\"name\": \"{}\", \"count\": {}, \"sum\": {}, \
                     \"quantiles\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}, \"p999\": {}}}, \
                     \"buckets\": [{}]}}",
                    escape(&h.name),
                    h.count,
                    h.sum,
                    h.p50,
                    h.p90,
                    h.p99,
                    h.p999,
                    buckets.join(", ")
                )
            })
            .collect();
        out.push_str(&hists.join(",\n"));
        out.push_str("\n  ],\n");
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(n, v)| format!("    {{\"name\": \"{}\", \"value\": {v}}}", escape(n)))
            .collect();
        out.push_str("  \"counters\": [\n");
        out.push_str(&counters.join(",\n"));
        out.push_str("\n  ],\n");
        let gauges: Vec<String> = self
            .gauges
            .iter()
            .map(|(n, v)| {
                format!(
                    "    {{\"name\": \"{}\", \"value\": {}}}",
                    escape(n),
                    number(*v)
                )
            })
            .collect();
        out.push_str("  \"gauges\": [\n");
        out.push_str(&gauges.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parse a snapshot written by [`to_json`](Self::to_json).
    pub fn from_json(s: &str) -> Result<Self, String> {
        let v = json::parse(s)?;
        let experiment = v
            .get("experiment")
            .and_then(Value::as_str)
            .ok_or("missing \"experiment\" string")?
            .to_string();
        let mut histograms = Vec::new();
        for h in v
            .get("histograms")
            .and_then(Value::as_array)
            .ok_or("missing \"histograms\" array")?
        {
            let name = h
                .get("name")
                .and_then(Value::as_str)
                .ok_or("histogram missing name")?
                .to_string();
            let req = |k: &str| -> Result<u64, String> {
                h.get(k)
                    .and_then(Value::as_f64)
                    .map(|x| x as u64)
                    .ok_or_else(|| format!("histogram {name} missing {k}"))
            };
            let q = h.get("quantiles").ok_or("histogram missing quantiles")?;
            let quant = |k: &str| -> Result<u64, String> {
                q.get(k)
                    .and_then(Value::as_f64)
                    .map(|x| x as u64)
                    .ok_or_else(|| format!("histogram {name} missing quantile {k}"))
            };
            let mut buckets = Vec::new();
            for b in h
                .get("buckets")
                .and_then(Value::as_array)
                .ok_or("histogram missing buckets")?
            {
                let f = |k: &str| -> Result<u64, String> {
                    b.get(k)
                        .and_then(Value::as_f64)
                        .map(|x| x as u64)
                        .ok_or_else(|| format!("bucket missing {k}"))
                };
                buckets.push((f("lo")?, f("hi")?, f("count")?));
            }
            histograms.push(HistogramSummary {
                count: req("count")?,
                sum: req("sum")?,
                p50: quant("p50")?,
                p90: quant("p90")?,
                p99: quant("p99")?,
                p999: quant("p999")?,
                name,
                buckets,
            });
        }
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        for (kind, as_counter) in [("counters", true), ("gauges", false)] {
            let Some(items) = v.get(kind).and_then(Value::as_array) else {
                continue;
            };
            for item in items {
                let name = item
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("entry missing name")?
                    .to_string();
                let value = item
                    .get("value")
                    .and_then(Value::as_f64)
                    .ok_or("entry missing value")?;
                if as_counter {
                    counters.push((name, value as u64));
                } else {
                    gauges.push((name, value));
                }
            }
        }
        Ok(Self {
            experiment,
            histograms,
            counters,
            gauges,
        })
    }

    /// Write to `results/METRICS_<experiment>.json`, announce the
    /// path, and return it.
    pub fn write_results(&self) -> std::io::Result<PathBuf> {
        let dir = Path::new("results");
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("METRICS_{}.json", self.experiment));
        std::fs::write(&path, self.to_json())?;
        println!("[metrics saved to {}]", path.display());
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_bounds_are_consistent() {
        // Every representative value lands in a bucket whose bounds
        // contain it, and bucket bounds tile the line without gaps.
        for v in [0u64, 1, 7, 8, 9, 15, 16, 100, 1_000, 123_456_789, u64::MAX] {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "v={v} i={i} lo={lo} hi={hi}");
        }
        for i in 0..N_BUCKETS - 1 {
            assert_eq!(bucket_bounds(i).1 + 1, bucket_bounds(i + 1).0);
        }
        assert_eq!(bucket_bounds(N_BUCKETS - 1).1, u64::MAX);
    }

    #[test]
    fn bucket_relative_error_is_bounded() {
        for i in (SUB_BUCKETS as usize)..N_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            let width = (hi - lo) as f64;
            assert!(width / lo as f64 <= 1.0 / SUB_BUCKETS as f64 + 1e-9);
        }
    }

    #[test]
    fn quantiles_are_within_one_bucket_of_exact() {
        let h = Histogram::new();
        let mut exact: Vec<u64> = (0..1000).map(|i| (i * i) % 50_000 + 1).collect();
        for &v in &exact {
            h.record(v);
        }
        exact.sort_unstable();
        for (q, name) in [(0.5, "p50"), (0.9, "p90"), (0.99, "p99"), (0.999, "p999")] {
            let est = h.quantile(q);
            let rank = ((q * 1000.0).ceil() as usize).clamp(1, 1000) - 1;
            let truth = exact[rank];
            // Upper bucket bound: est >= truth, within 12.5% + 1.
            assert!(est >= truth, "{name}: est {est} < truth {truth}");
            assert!(
                est as f64 <= truth as f64 * (1.0 + 1.0 / SUB_BUCKETS as f64) + 1.0,
                "{name}: est {est} too far above {truth}"
            );
        }
    }

    #[test]
    fn quantiles_are_monotone_and_empty_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        for v in [10u64, 20, 30, 40, 1_000_000] {
            h.record(v);
        }
        let (p50, p90, p99, p999) = (
            h.quantile(0.5),
            h.quantile(0.9),
            h.quantile(0.99),
            h.quantile(0.999),
        );
        assert!(p50 <= p90 && p90 <= p99 && p99 <= p999);
    }

    #[test]
    fn merge_accumulates() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in 1..=100u64 {
            a.record(v);
            b.record(v * 1000);
        }
        a.merge(&b);
        assert_eq!(a.count(), 200);
        assert_eq!(a.sum(), 5050 + 5050 * 1000);
        let s = a.summarize("m");
        assert_eq!(s.buckets.iter().map(|b| b.2).sum::<u64>(), 200);
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let h = std::sync::Arc::new(Histogram::new());
        std::thread::scope(|s| {
            for t in 0..8 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 8000);
        let s = h.summarize("c");
        assert_eq!(s.buckets.iter().map(|b| b.2).sum::<u64>(), 8000);
    }

    #[test]
    fn registry_snapshot_json_round_trips() {
        let r = MetricsRegistry::new();
        let h = r.histogram("serve.request.latency_ns");
        for v in [5u64, 17, 910, 15_000] {
            h.record(v);
        }
        assert!(std::sync::Arc::ptr_eq(
            &h,
            &r.histogram("serve.request.latency_ns")
        ));
        r.counter("serve.cache.hit").add(3);
        r.set_gauge("serve.cache.entries", 2.0);
        r.set_gauge("serve.cache.entries", 1.0); // set semantics
        let snap = r.snapshot("unit");
        assert_eq!(snap.gauges, vec![("serve.cache.entries".to_string(), 1.0)]);
        let back = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
        let h = back.histogram("serve.request.latency_ns").unwrap();
        assert_eq!(h.count, 4);
        assert_eq!(h.buckets.iter().map(|b| b.2).sum::<u64>(), 4);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let r = MetricsRegistry::new();
        let h = r.histogram("serve.request.latency_ns");
        h.record(100);
        h.record(200);
        r.counter("serve.cache.hit").add(7);
        r.set_gauge("serve.cache.bytes", 1024.0);
        let text = r.snapshot("unit").to_prometheus();
        assert!(text.contains("# TYPE serve_request_latency_ns histogram"));
        assert!(text.contains("serve_request_latency_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("serve_request_latency_ns_count 2"));
        assert!(text.contains("serve_cache_hit 7"));
        assert!(text.contains("serve_cache_bytes 1024"));
        // Cumulative le counts end at the total.
        let last_le = text
            .lines()
            .rfind(|l| l.contains("_bucket{le=") && !l.contains("+Inf"))
            .unwrap();
        assert!(last_le.ends_with(" 2"));
    }
}
