//! Result files, printed tables and the one-line JSON summary.
//!
//! A result file is `{"schema": .., "runs": [..]}` with one object per
//! workload run; `compare` reads any number of them.

use crate::run::{Metric, Report};
use crate::workloads::Workload;
use soc_prof::json::{escape, fmt_num, parse, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

const SCHEMA: &str = "soc-benchmark/1";

/// How a metric improves, and by how much its median may worsen before a
/// change counts as a regression (a share of the parent's median).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// The end-to-end metrics: name, unit, direction, bound. `BENCHMARK.json`
/// repeats this table; a unit test keeps the two in step.
pub const END_TO_END: [(&str, &str, Better, f64); 4] = [
    ("setup_s", "s", Better::Lower, 0.25),
    ("round_s", "s", Better::Lower, 0.25),
    ("rack_steps_per_s", "rack-steps/s", Better::Higher, 0.25),
    ("peak_rss_mb", "MiB", Better::Lower, 0.2),
];

fn metrics_json(metrics: &[Metric], with_exact: bool) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let exact = if with_exact && m.exact {
                ", \"exact\": true"
            } else {
                ""
            };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{exact}}}",
                escape(&m.name),
                fmt_num(m.value),
                escape(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn numbers(values: &[f64]) -> String {
    let v: Vec<String> = values.iter().map(|&x| fmt_num(x)).collect();
    format!("[{}]", v.join(", "))
}

/// One run as a JSON object.
pub fn run_json(r: &Report) -> String {
    let failures: Vec<String> = r.failures.iter().map(|f| escape(f)).collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"threads\": {}, \"nproc\": {}, \"seconds\": {}, \
         \"trace\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"failures\": [{}], \
         \"digest\": \"{:016x}\", \"setup_s_samples\": {}, \"round_s_samples\": {}, \
         \"end_to_end\": {}, \"per_layer\": {}}}",
        escape(r.workload.name()),
        r.options.seed,
        r.options.threads,
        simcore::par::available_parallelism(),
        fmt_num(r.options.seconds),
        r.options.trace,
        r.correct(),
        r.attempted,
        r.failed,
        failures.join(", "),
        r.digest,
        numbers(&r.setup_s),
        numbers(&r.round_s),
        metrics_json(&r.end_to_end, false),
        metrics_json(&r.per_layer, true),
    )
}

/// A result file holding `runs` (objects from [`run_json`]).
pub fn file_json(runs: &[String]) -> String {
    format!(
        "{{\"schema\": {}, \"runs\": [\n{}\n]}}\n",
        escape(SCHEMA),
        runs.join(",\n")
    )
}

/// The last line of standard output: the end-to-end metrics, or with
/// tracing the per-layer ones.
pub fn summary_line(r: &Report) -> String {
    let metrics = if r.options.trace {
        &r.per_layer
    } else {
        &r.end_to_end
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.correct(),
        r.attempted,
        r.failed,
        metrics_json(metrics, false)
    )
}

/// Human-readable lines for one run.
pub fn render(r: &Report) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {}: seed {}, {} threads (nproc {}), {} timed rounds, digest {:016x} ==",
        r.workload.name(),
        r.options.seed,
        r.options.threads,
        simcore::par::available_parallelism(),
        r.round_s.len(),
        r.digest
    );
    for m in r.end_to_end.iter().chain(&r.per_layer) {
        let note = match m.name.as_str() {
            "setup_s" => format!("median of {}", r.setup_s.len()),
            "round_s" => format!(
                "median of {}; fastest {}",
                r.round_s.len(),
                fmt_num(crate::stats::min(&r.round_s))
            ),
            _ if m.exact => "exact".to_string(),
            _ => String::new(),
        };
        let _ = writeln!(
            out,
            "  {:<40} {:>16} {:<13} {note}",
            m.name,
            fmt_num(m.value),
            m.unit
        );
    }
    let _ = writeln!(
        out,
        "  checks: {} rounds, {} failed (failed_frac {})",
        r.attempted,
        r.failed,
        fmt_num(r.failed as f64 / r.attempted.max(1) as f64)
    );
    for f in &r.failures {
        let _ = writeln!(out, "  FAILED {f}");
    }
    out
}

/// One workload run read back from a result file.
#[derive(Debug, Clone, Default)]
pub struct Record {
    pub workload: String,
    pub correct: bool,
    pub end_to_end: BTreeMap<String, f64>,
    /// Exact counters and the digest, as printed.
    pub exact: BTreeMap<String, String>,
}

/// Read every run in a result file.
pub fn read_file(text: &str) -> Result<Vec<Record>, String> {
    let root = parse(text)?;
    let obj = root.as_obj().ok_or("result file is not a JSON object")?;
    if obj.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        return Err(format!("not a {SCHEMA} result file"));
    }
    let Some(Value::Arr(runs)) = obj.get("runs") else {
        return Err("result file has no runs".into());
    };
    runs.iter()
        .map(|run| {
            let run = run.as_obj().ok_or("run is not an object")?;
            let workload = run
                .get("workload")
                .and_then(Value::as_str)
                .filter(|w| Workload::parse(w).is_some())
                .ok_or("run has no known workload")?
                .to_string();
            let values = |key: &str, only_exact: bool| -> BTreeMap<String, f64> {
                let Some(map) = run.get(key).and_then(Value::as_obj) else {
                    return BTreeMap::new();
                };
                map.iter()
                    .filter_map(|(name, m)| {
                        let m = m.as_obj()?;
                        let exact = matches!(m.get("exact"), Some(Value::Bool(true)));
                        (!only_exact || exact)
                            .then(|| Some((name.clone(), m.get("value")?.as_num()?)))?
                    })
                    .collect()
            };
            let mut exact: BTreeMap<String, String> = values("per_layer", true)
                .into_iter()
                .map(|(k, v)| (k, fmt_num(v)))
                .collect();
            if let Some(d) = run.get("digest").and_then(Value::as_str) {
                exact.insert("digest".into(), d.to_string());
            }
            Ok(Record {
                workload,
                correct: matches!(run.get("correct"), Some(Value::Bool(true))),
                end_to_end: values("end_to_end", false),
                exact,
            })
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn benchmark_json() -> Value {
        parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    /// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
    pub(crate) fn declared(list: &str) -> Vec<(String, String)> {
        let root = benchmark_json();
        let Some(Value::Arr(metrics)) = root.as_obj().and_then(|o| o.get(list)) else {
            panic!("BENCHMARK.json has no {list}");
        };
        metrics
            .iter()
            .map(|m| {
                let m = m.as_obj().expect("metric is an object");
                let s = |k: &str| m[k].as_str().expect("string field").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn end_to_end_table_matches_benchmark_json() {
        let root = benchmark_json();
        let Some(Value::Arr(metrics)) = root.as_obj().and_then(|o| o.get("end_to_end")) else {
            panic!("BENCHMARK.json has no end_to_end");
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        for (m, (name, unit, better, bound)) in metrics.iter().zip(END_TO_END) {
            let m = m.as_obj().expect("metric is an object");
            assert_eq!(m["name"].as_str(), Some(name));
            assert_eq!(m["unit"].as_str(), Some(unit));
            let direction = if better == Better::Lower {
                "lower"
            } else {
                "higher"
            };
            assert_eq!(m["better"].as_str(), Some(direction), "{name}");
            assert_eq!(m["bound"].as_num(), Some(bound), "{name}");
        }
    }
}
