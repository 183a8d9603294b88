//! `soc-analyze` — the one reader for every run artifact.
//!
//! ```text
//! soc-analyze summary   <trace.jsonl>
//! soc-analyze chains    <trace.jsonl> [--limit N]
//! soc-analyze attribute <trace.jsonl>
//! soc-analyze metrics   <trace.jsonl>
//! soc-analyze report    <trace.jsonl> [--out report.txt]
//! soc-analyze diff      <a.jsonl> <b.jsonl> [--filter-a k=v] [--filter-b k=v]
//!                       [--strip-label policy] [--out report.txt]
//! soc-analyze health    <trace.jsonl> [--out report.txt]
//! soc-analyze alerts    <trace.jsonl>
//! soc-analyze query     <trace.jsonl> <metric> [--entity N]
//! ```
//!
//! Traces come from any bench binary run with `--trace-out`. `health`,
//! `alerts` and `query` read fleet health from a trace's `rack_series`
//! events, one section per traced run. A `--prof-out` profile is JSONL
//! `metric` records in the trace's format: `metrics` renders it and `diff`
//! compares two.

use soc_analyze::chains::{self, DEFAULT_TERMINALS};
use soc_analyze::{render, report, rollup, AttributionCounts, HealthReport, Trace, TraceDiff};
use std::process::ExitCode;

const USAGE: &str = "usage: soc-analyze <command> [args]

commands:
  summary   <trace.jsonl>                 event counts, span, link health
  chains    <trace.jsonl> [--limit N]     causal chains ending at revoke/slo_miss/
                                          budget_violation/degraded_enter/
                                          degraded_exit
  attribute <trace.jsonl>                 SLO-miss attribution table
  metrics   <trace.jsonl>                 end-of-run metric rollups (also of
                                          a --prof-out profile)
  report    <trace.jsonl> [--out FILE]    full report (all of the above)
  diff      <a.jsonl> <b.jsonl> [--filter-a k=v] [--filter-b k=v]
            [--strip-label LABEL] [--out FILE]
                                          A/B comparison of two traces
  health    <trace.jsonl> [--out FILE]    per run: sparklines per series +
                                          incident table; then a summary line
  alerts    <trace.jsonl>                 per run: one row per alert
  query     <trace.jsonl> <metric> [--entity N]
                                          per run: bucket-level dump of one
                                          series

Traces and profiles are produced by the soc-bench binaries via --trace-out
and --prof-out; a profile is read like a trace. health, alerts and query
read the rack_series events of a trace, one section per traced run.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("soc-analyze: {message}");
            ExitCode::FAILURE
        }
    }
}

/// `--flag value` pairs pulled out of the argument list.
type Flags<'a> = Vec<(&'a str, &'a str)>;

/// Split off every `--flag value` pair; returns (positional, flags).
fn split_flags(args: &[String]) -> Result<(Vec<&str>, Flags<'_>), String> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if let Some(name) = arg.strip_prefix("--") {
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("--{name} needs a value"))?;
            flags.push((name, value.as_str()));
            i += 2;
        } else {
            positional.push(arg);
            i += 1;
        }
    }
    Ok((positional, flags))
}

fn flag<'a>(flags: &[(&str, &'a str)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .rev()
        .find(|(k, _)| *k == name)
        .map(|(_, v)| *v)
}

/// Reject any flag `command` does not take, so a misspelled flag is an
/// error instead of a silently ignored option.
fn takes_only(command: &str, flags: &[(&str, &str)], takes: &[&str]) -> Result<(), String> {
    match flags.iter().find(|(name, _)| !takes.contains(name)) {
        Some((name, _)) => Err(format!("{command} does not take --{name}\n\n{USAGE}")),
        None => Ok(()),
    }
}

fn load(path: &str) -> Result<Trace, String> {
    Trace::load(path).map_err(|e| format!("{path}: {e}"))
}

/// Read the health of every run in a trace; a trace with no
/// `rack_series` events has none to read.
fn load_health(path: &str) -> Result<Vec<HealthReport>, String> {
    let reports = HealthReport::per_run(&load(path)?);
    if reports.is_empty() {
        return Err(format!(
            "{path}: no rack_series events (health reads a --trace-out trace of a large-scale run)"
        ));
    }
    Ok(reports)
}

/// Print to stdout, or write to `--out FILE` when given.
fn deliver(text: &str, out: Option<&str>) -> Result<(), String> {
    match out {
        Some(path) => std::fs::write(path, text)
            .map_err(|e| format!("writing {path}: {e}"))
            .map(|()| eprintln!("soc-analyze: report written to {path}")),
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first().map(String::as_str) else {
        return Err(USAGE.to_string());
    };
    let (positional, flags) = split_flags(&args[1..])?;
    let need = |n: usize, takes: &[&str]| -> Result<(), String> {
        takes_only(command, &flags, takes)?;
        if positional.len() == n {
            Ok(())
        } else {
            Err(format!("{command} takes {n} argument(s)\n\n{USAGE}"))
        }
    };
    match command {
        "summary" => {
            need(1, &[])?;
            print!("{}", report::summary(&load(positional[0])?));
            Ok(())
        }
        "chains" => {
            need(1, &["limit"])?;
            let limit: usize = match flag(&flags, "limit") {
                Some(v) => v.parse().map_err(|_| format!("bad --limit {v}"))?,
                None => 0,
            };
            let trace = load(positional[0])?;
            let all = chains::chains(&trace, &DEFAULT_TERMINALS);
            if all.is_empty() {
                println!(
                    "no revoke, slo_miss, budget_violation, or degraded-window events in {}",
                    positional[0]
                );
            } else {
                print!("{}", chains::render_chains(&trace, &all, limit));
            }
            Ok(())
        }
        "attribute" => {
            need(1, &[])?;
            let counts = AttributionCounts::from_trace(&load(positional[0])?);
            if counts.total() == 0 {
                println!("no slo_miss events in {}", positional[0]);
            } else {
                print!("{}", counts.table().render());
            }
            Ok(())
        }
        "metrics" => {
            need(1, &[])?;
            let trace = load(positional[0])?;
            let scalars = rollup::scalar_metric_table(&trace);
            let hists = rollup::histogram_table(&trace);
            if scalars.is_empty() && hists.is_empty() {
                println!("no metric records in {}", positional[0]);
                return Ok(());
            }
            if !scalars.is_empty() {
                print!("{}", scalars.render());
            }
            if !hists.is_empty() {
                print!("{}", hists.render());
            }
            Ok(())
        }
        "report" => {
            need(1, &["out"])?;
            let trace = load(positional[0])?;
            deliver(
                &report::full_report(&trace, positional[0]),
                flag(&flags, "out"),
            )
        }
        "diff" => {
            need(2, &["filter-a", "filter-b", "strip-label", "out"])?;
            let mut a = load(positional[0])?;
            let mut b = load(positional[1])?;
            let apply = |trace: Trace, spec: Option<&str>| -> Result<Trace, String> {
                match spec {
                    Some(spec) => {
                        let (key, value) = spec
                            .split_once('=')
                            .ok_or_else(|| format!("filter '{spec}' is not k=v"))?;
                        Ok(trace.filter_field(key, value))
                    }
                    None => Ok(trace),
                }
            };
            a = apply(a, flag(&flags, "filter-a"))?;
            b = apply(b, flag(&flags, "filter-b"))?;
            let diff = TraceDiff::compute(&a, &b, flag(&flags, "strip-label"));
            deliver(
                &diff.render(positional[0], positional[1]),
                flag(&flags, "out"),
            )
        }
        "health" => {
            need(1, &["out"])?;
            let health = load_health(positional[0])?;
            deliver(&render::render_health(&health), flag(&flags, "out"))
        }
        "alerts" => {
            need(1, &[])?;
            for report in load_health(positional[0])? {
                print!("{}", render::render_alerts(&report));
            }
            Ok(())
        }
        "query" => {
            need(2, &["entity"])?;
            let entity = match flag(&flags, "entity") {
                Some(v) => Some(v.parse::<u64>().map_err(|_| format!("bad --entity {v}"))?),
                None => None,
            };
            for report in load_health(positional[0])? {
                println!("== {} ==", report.name);
                print!("{}", render::render_query(&report, positional[1], entity));
            }
            Ok(())
        }
        "help" | "--help" | "-h" => {
            takes_only(command, &flags, &[])?;
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    }
}

#[cfg(test)]
mod tests {
    use super::run;
    use simcore::time::SimTime;
    use soc_telemetry::ids::shard_id_base;
    use soc_telemetry::json::event_to_json;
    use soc_telemetry::{Component, Event, Severity, Telemetry};

    fn run_args(args: &[&str]) -> Result<(), String> {
        run(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn rejects_flags_a_subcommand_does_not_take() {
        for (args, bad) in [
            (&["chains", "t.jsonl", "--limt", "3"][..], "--limt"),
            (&["report", "t.jsonl", "--ot", "r.txt"][..], "--ot"),
            (&["summary", "t.jsonl", "--out", "r.txt"][..], "--out"),
            (
                &["diff", "a.jsonl", "b.jsonl", "--limit", "3"][..],
                "--limit",
            ),
        ] {
            let err = run_args(args).unwrap_err();
            assert!(
                err.contains(&format!("does not take {bad}")),
                "{args:?}: {err}"
            );
            assert!(err.contains("usage: soc-analyze"), "{args:?}: {err}");
        }
        // A flag the subcommand takes passes, and the missing trace fails.
        let err = run_args(&["chains", "no-such-trace.jsonl", "--limit", "3"]).unwrap_err();
        assert!(err.starts_with("no-such-trace.jsonl: "), "{err}");
    }

    #[test]
    fn rejects_flags_a_health_or_profile_subcommand_does_not_take() {
        for (args, bad) in [
            (
                &["query", "t.jsonl", "rack_draw_w", "--entiy", "3"][..],
                "--entiy",
            ),
            (&["health", "t.jsonl", "--ot", "r.txt"][..], "--ot"),
            (&["alerts", "t.jsonl", "--out", "r.txt"][..], "--out"),
            (&["metrics", "p.jsonl", "--out", "r.txt"][..], "--out"),
        ] {
            let err = run_args(args).unwrap_err();
            assert!(
                err.contains(&format!("does not take {bad}")),
                "{args:?}: {err}"
            );
            assert!(err.contains("usage: soc-analyze"), "{args:?}: {err}");
        }
        // A flag the subcommand takes passes, and the missing file fails.
        let err = run_args(&["query", "no-such-trace.jsonl", "m", "--entity", "3"]).unwrap_err();
        assert!(err.starts_with("no-such-trace.jsonl: "), "{err}");
    }

    #[test]
    fn rejects_the_wrong_artifact_naming_the_file() {
        let dir = std::env::temp_dir();
        let id = std::process::id();
        let profile = dir.join(format!("soc-analyze-{id}.prof.jsonl"));
        let trace = dir.join(format!("soc-analyze-{id}.trace.jsonl"));
        let result = dir.join(format!("soc-analyze-{id}.result.json"));
        // A profile as `--prof-out` writes it: the metric records of a
        // registry, one JSONL line each.
        let (tm, sink) = Telemetry::memory();
        tm.metrics(|m| {
            m.observe("phase_ms", &[("phase", "shard/sim".into())], 1.5);
            m.inc_counter_by("racks", &[], 4);
        });
        tm.emit_metrics_snapshot(SimTime::ZERO);
        let lines = |events: &[Event]| -> String {
            events.iter().map(|e| event_to_json(e) + "\n").collect()
        };
        std::fs::write(&profile, lines(&sink.events())).unwrap();
        // A trace of one rack run: its series event and a metric record.
        let series = Event::new(
            SimTime::ZERO,
            Component::Sim,
            Severity::Debug,
            "rack_series",
        )
        .field("rack", 0usize)
        .field("cause_id", shard_id_base(1, 0))
        .field("limit_w", 10.0)
        .field("step_us", 1u64)
        .field("draws_w", vec![1.0, 2.0]);
        let mut events = sink.events();
        events.push(series);
        std::fs::write(&trace, lines(&events)).unwrap();
        // A result file as `--out` writes it: one pretty-printed document.
        std::fs::write(&result, "{\n  \"rows\": []\n}\n").unwrap();
        let (profile, trace, result) = (
            profile.to_str().unwrap(),
            trace.to_str().unwrap(),
            result.to_str().unwrap(),
        );
        // Each artifact reads back with its own subcommands…
        run_args(&["metrics", profile]).unwrap();
        for command in ["health", "alerts", "metrics", "summary"] {
            run_args(&[command, trace]).unwrap();
        }
        run_args(&["query", trace, "rack_draw_w"]).unwrap();
        // …and is an error naming the file for every other.
        for args in [
            &["health", profile][..],
            &["alerts", profile],
            &["query", profile, "rack_draw_w"],
            &["health", result],
            &["metrics", result],
        ] {
            let err = run_args(args).unwrap_err();
            assert!(
                err.starts_with(&format!("{}: ", args[1])),
                "{args:?}: {err}"
            );
        }
        for path in [profile, trace, result] {
            std::fs::remove_file(path).unwrap();
        }
    }
}
