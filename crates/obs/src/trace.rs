//! Profile snapshots and exporters: an aligned text table for humans
//! and a chrome-`trace_event`-compatible JSON file for machines, plus
//! the matching subset parser so tests and the perf gate can read
//! profiles back.
//!
//! ## Profile schema
//!
//! `results/PROFILE_<experiment>.json` is a chrome trace-event JSON
//! object (loadable in `chrome://tracing` / Perfetto) with two extra
//! top-level arrays that chrome ignores:
//!
//! ```json
//! {
//!   "experiment": "lu_compare",
//!   "displayTimeUnit": "ms",
//!   "traceEvents": [
//!     {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
//!      "args": {"name": "<profile label>"}},
//!     {"name": "thread_name", "ph": "M", "pid": 1, "tid": <lane>,
//!      "args": {"name": "worker-0"}},
//!     {"name": "<span>", "ph": "X", "pid": 1, "tid": <lane>,
//!      "ts": <µs>, "dur": <µs>, "args": {"depth": 0, "flops": 64}}
//!   ],
//!   "counters": [{"pid": 1, "name": "flops.scalar", "value": 123}],
//!   "gauges":   [{"pid": 1, "name": "health.growth", "value": 1.5}]
//! }
//! ```
//!
//! Each [`Profile`] becomes one chrome "process" (`pid` = index + 1,
//! named by a metadata event); lanes map to `tid`. Timestamps are
//! microseconds with nanosecond resolution (three decimals), so the
//! write → parse round trip reproduces span times exactly.

use crate::json::{self, escape, number, Value};
use crate::SpanRec;
use std::path::{Path, PathBuf};

/// One profiler snapshot: everything recorded for one labelled run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Profile {
    /// Label shown as the chrome process name (problem name, ...).
    pub label: String,
    /// Spans, lane-major, each lane chronological.
    pub spans: Vec<SpanRec>,
    /// Counter name → final value, in registration order.
    pub counters: Vec<(String, u64)>,
    /// Gauge name → value, in record order (names may repeat).
    pub gauges: Vec<(String, f64)>,
    /// Lane → display name, ascending by lane (chrome `thread_name`
    /// metadata: `worker-0`, `worker-1`, ... for service lanes).
    pub thread_names: Vec<(usize, String)>,
}

impl Profile {
    /// Final value of a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Value of a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// All spans with the given name.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRec> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Display name of a lane, if one was recorded.
    pub fn thread_name(&self, lane: usize) -> Option<&str> {
        self.thread_names
            .iter()
            .find(|&&(l, _)| l == lane)
            .map(|(_, n)| n.as_str())
    }

    /// Distinct lanes that carry at least one span, ascending.
    pub fn lanes_used(&self) -> Vec<usize> {
        let mut lanes: Vec<usize> = self.spans.iter().map(|s| s.lane).collect();
        lanes.sort_unstable();
        lanes.dedup();
        lanes
    }
}

/// A set of profiles from one experiment, ready for export.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceFile {
    /// Experiment name (`lu_compare`, ...); names the output file.
    pub experiment: String,
    pub profiles: Vec<Profile>,
}

impl TraceFile {
    pub fn new(experiment: &str) -> Self {
        Self {
            experiment: experiment.to_string(),
            profiles: Vec::new(),
        }
    }

    /// Append one profile (one chrome process).
    pub fn push(&mut self, profile: Profile) {
        self.profiles.push(profile);
    }

    /// Look up a profile by label.
    pub fn profile(&self, label: &str) -> Option<&Profile> {
        self.profiles.iter().find(|p| p.label == label)
    }

    /// Serialize to chrome trace-event JSON (see the module docs for
    /// the schema).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"experiment\": \"{}\",\n",
            escape(&self.experiment)
        ));
        out.push_str("  \"displayTimeUnit\": \"ms\",\n");
        out.push_str("  \"traceEvents\": [\n");
        let mut events: Vec<String> = Vec::new();
        for (i, p) in self.profiles.iter().enumerate() {
            let pid = i + 1;
            events.push(format!(
                "    {{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {pid}, \
                 \"tid\": 0, \"args\": {{\"name\": \"{}\"}}}}",
                escape(&p.label)
            ));
            for (lane, name) in &p.thread_names {
                events.push(format!(
                    "    {{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {pid}, \
                     \"tid\": {lane}, \"args\": {{\"name\": \"{}\"}}}}",
                    escape(name)
                ));
            }
            for s in &p.spans {
                let mut args = format!("\"depth\": {}", s.depth);
                for (k, v) in &s.args {
                    args.push_str(&format!(", \"{}\": {}", escape(k), number(*v)));
                }
                events.push(format!(
                    "    {{\"name\": \"{}\", \"ph\": \"X\", \"pid\": {pid}, \"tid\": {}, \
                     \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{{args}}}}}",
                    escape(&s.name),
                    s.lane,
                    s.start_ns as f64 / 1000.0,
                    s.dur_ns as f64 / 1000.0,
                ));
            }
        }
        out.push_str(&events.join(",\n"));
        out.push_str("\n  ],\n");
        let mut counters: Vec<String> = Vec::new();
        let mut gauges: Vec<String> = Vec::new();
        for (i, p) in self.profiles.iter().enumerate() {
            let pid = i + 1;
            for (name, v) in &p.counters {
                counters.push(format!(
                    "    {{\"pid\": {pid}, \"name\": \"{}\", \"value\": {v}}}",
                    escape(name)
                ));
            }
            for (name, v) in &p.gauges {
                gauges.push(format!(
                    "    {{\"pid\": {pid}, \"name\": \"{}\", \"value\": {}}}",
                    escape(name),
                    number(*v)
                ));
            }
        }
        out.push_str("  \"counters\": [\n");
        out.push_str(&counters.join(",\n"));
        out.push_str("\n  ],\n");
        out.push_str("  \"gauges\": [\n");
        out.push_str(&gauges.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parse a trace written by [`to_chrome_json`](Self::to_chrome_json)
    /// (tolerates any JSON with the same shape).
    pub fn from_chrome_json(s: &str) -> Result<Self, String> {
        let v = json::parse(s)?;
        let experiment = v
            .get("experiment")
            .and_then(Value::as_str)
            .ok_or("missing \"experiment\" string")?
            .to_string();
        let events = v
            .get("traceEvents")
            .and_then(Value::as_array)
            .ok_or("missing \"traceEvents\" array")?;
        // pid → profile, in order of first appearance.
        let mut pids: Vec<usize> = Vec::new();
        let mut profiles: Vec<Profile> = Vec::new();
        let profile_of = |pid: usize, pids: &mut Vec<usize>, profiles: &mut Vec<Profile>| match pids
            .iter()
            .position(|&p| p == pid)
        {
            Some(i) => i,
            None => {
                pids.push(pid);
                profiles.push(Profile::default());
                profiles.len() - 1
            }
        };
        for e in events {
            let name = e
                .get("name")
                .and_then(Value::as_str)
                .ok_or("event missing name")?;
            let ph = e
                .get("ph")
                .and_then(Value::as_str)
                .ok_or("event missing ph")?;
            let pid = e
                .get("pid")
                .and_then(Value::as_f64)
                .ok_or("event missing pid")? as usize;
            let i = profile_of(pid, &mut pids, &mut profiles);
            match ph {
                "M" if name == "thread_name" => {
                    let lane = e.get("tid").and_then(Value::as_f64).unwrap_or(0.0) as usize;
                    if let Some(n) = e
                        .get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Value::as_str)
                    {
                        profiles[i].thread_names.push((lane, n.to_string()));
                    }
                }
                "M" if name == "process_name" => {
                    if let Some(label) = e
                        .get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Value::as_str)
                    {
                        profiles[i].label = label.to_string();
                    }
                }
                "X" => {
                    let lane = e.get("tid").and_then(Value::as_f64).unwrap_or(0.0) as usize;
                    let ts = e
                        .get("ts")
                        .and_then(Value::as_f64)
                        .ok_or("event missing ts")?;
                    let dur = e
                        .get("dur")
                        .and_then(Value::as_f64)
                        .ok_or("event missing dur")?;
                    let mut depth = 0usize;
                    let mut args = Vec::new();
                    if let Some(a) = e.get("args") {
                        for (k, v) in a.fields() {
                            let Some(v) = v.as_f64() else { continue };
                            if k == "depth" {
                                depth = v as usize;
                            } else {
                                args.push((k.clone(), v));
                            }
                        }
                    }
                    profiles[i].spans.push(SpanRec {
                        name: name.to_string(),
                        lane,
                        depth,
                        start_ns: (ts * 1000.0).round() as u64,
                        dur_ns: (dur * 1000.0).round() as u64,
                        args,
                    });
                }
                _ => {} // other phases are legal chrome events; skip
            }
        }
        for (kind, target) in [("counters", true), ("gauges", false)] {
            let Some(items) = v.get(kind).and_then(Value::as_array) else {
                continue;
            };
            for item in items {
                let pid = item
                    .get("pid")
                    .and_then(Value::as_f64)
                    .ok_or("entry missing pid")? as usize;
                let name = item
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("entry missing name")?
                    .to_string();
                let value = item
                    .get("value")
                    .and_then(Value::as_f64)
                    .ok_or("entry missing value")?;
                let i = profile_of(pid, &mut pids, &mut profiles);
                if target {
                    profiles[i].counters.push((name, value as u64));
                } else {
                    profiles[i].gauges.push((name, value));
                }
            }
        }
        Ok(Self {
            experiment,
            profiles,
        })
    }

    /// Render an aligned text summary: per profile, spans aggregated
    /// by (name, lane) with count/total/mean, then counters and gauges.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("profile: {}\n", self.experiment));
        for p in &self.profiles {
            out.push_str(&format!("== {} ==\n", p.label));
            // Aggregate spans by (name, lane), preserving first-seen order.
            let mut agg: Vec<(String, usize, usize, u64)> = Vec::new();
            for s in &p.spans {
                match agg
                    .iter_mut()
                    .find(|(n, l, _, _)| *n == s.name && *l == s.lane)
                {
                    Some(row) => {
                        row.2 += 1;
                        row.3 += s.dur_ns;
                    }
                    None => agg.push((s.name.clone(), s.lane, 1, s.dur_ns)),
                }
            }
            if !agg.is_empty() {
                out.push_str(&format!(
                    "  {:<34} {:>4} {:>7} {:>12} {:>12}\n",
                    "span", "lane", "count", "total(ms)", "mean(us)"
                ));
                for (name, lane, count, total_ns) in &agg {
                    out.push_str(&format!(
                        "  {:<34} {:>4} {:>7} {:>12.3} {:>12.3}\n",
                        name,
                        lane,
                        count,
                        *total_ns as f64 / 1e6,
                        *total_ns as f64 / 1e3 / *count as f64
                    ));
                }
            }
            for (name, v) in &p.counters {
                out.push_str(&format!("  counter {name:<32} {v}\n"));
            }
            for (name, v) in &p.gauges {
                out.push_str(&format!("  gauge   {name:<32} {v:.6e}\n"));
            }
        }
        out
    }

    /// Write the trace to `results/PROFILE_<experiment>.json` (creating
    /// `results/` if needed), announce the path, and return it.
    pub fn write_results(&self) -> std::io::Result<PathBuf> {
        let dir = Path::new("results");
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("PROFILE_{}.json", self.experiment));
        std::fs::write(&path, self.to_chrome_json())?;
        println!("[profile saved to {}]", path.display());
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceFile {
        let mut t = TraceFile::new("lu_compare");
        t.push(Profile {
            label: "convdiff \"mild\"\n".to_string(),
            spans: vec![
                SpanRec {
                    name: "factor:serial".to_string(),
                    lane: 0,
                    depth: 0,
                    start_ns: 1_234_567,
                    dur_ns: 89_012,
                    args: vec![("flops".to_string(), 4096.0)],
                },
                SpanRec {
                    name: "work\\seg".to_string(),
                    lane: 3,
                    depth: 1,
                    start_ns: 5,
                    dur_ns: 7,
                    args: vec![],
                },
            ],
            counters: vec![("flops.scalar".to_string(), 4096)],
            gauges: vec![("health.growth".to_string(), 1.25)],
            thread_names: vec![(0, "main".to_string()), (3, "worker-2".to_string())],
        });
        t.push(Profile {
            label: "p2".to_string(),
            spans: vec![],
            counters: vec![],
            gauges: vec![("par.imbalance".to_string(), 1.5)],
            thread_names: vec![],
        });
        t
    }

    #[test]
    fn chrome_json_round_trips() {
        let t = sample();
        let s = t.to_chrome_json();
        let back = TraceFile::from_chrome_json(&s).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn chrome_json_is_parseable_by_the_shared_parser() {
        let s = sample().to_chrome_json();
        let v = json::parse(&s).unwrap();
        assert!(v.get("traceEvents").and_then(Value::as_array).is_some());
        assert_eq!(v.get("displayTimeUnit").and_then(Value::as_str), Some("ms"));
    }

    #[test]
    fn profile_lookups() {
        let t = sample();
        let p = t.profile("convdiff \"mild\"\n").unwrap();
        assert_eq!(p.counter("flops.scalar"), Some(4096));
        assert_eq!(p.gauge("health.growth"), Some(1.25));
        assert_eq!(p.spans_named("factor:serial").count(), 1);
        assert_eq!(p.lanes_used(), vec![0, 3]);
        assert_eq!(p.thread_name(3), Some("worker-2"));
        assert_eq!(p.thread_name(7), None);
    }

    #[test]
    fn table_renders() {
        let text = sample().to_table();
        assert!(text.contains("factor:serial"));
        assert!(text.contains("counter flops.scalar"));
        assert!(text.contains("gauge   health.growth"));
    }

    #[test]
    fn parser_skips_foreign_event_phases() {
        let s = "{\"experiment\":\"x\",\"traceEvents\":[\
                 {\"name\":\"i\",\"ph\":\"i\",\"pid\":1,\"ts\":0},\
                 {\"name\":\"s\",\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":1.5,\"dur\":0.5}]}";
        let t = TraceFile::from_chrome_json(s).unwrap();
        assert_eq!(t.profiles.len(), 1);
        assert_eq!(t.profiles[0].spans.len(), 1);
        assert_eq!(t.profiles[0].spans[0].start_ns, 1500);
        assert_eq!(t.profiles[0].spans[0].dur_ns, 500);
    }
}
