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
//! soc-analyze health    <health.json> [--out report.txt]
//! soc-analyze alerts    <health.json>
//! soc-analyze query     <health.json> <metric> [--entity N]
//! ```
//!
//! Traces and health reports come from any bench binary run with
//! `--trace-out` and `--health-out`. A `--prof-out` profile is JSONL
//! `metric` records in the trace's format: `metrics` renders it and `diff`
//! compares two.

use soc_analyze::chains::{self, DEFAULT_TERMINALS};
use soc_analyze::{
    json, render, report, rollup, AttributionCounts, HealthReport, Trace, TraceDiff,
};
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
  health    <health.json> [--out FILE]    sparklines per series + incident table
  alerts    <health.json>                 one row per alert (firing and resolved)
  query     <health.json> <metric> [--entity N]
                                          bucket-level dump of one series

Traces, health reports and profiles are produced by the soc-bench binaries
via --trace-out, --health-out and --prof-out; a profile is read like a
trace.";

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

/// Read a health report.
fn load_health(path: &str) -> Result<HealthReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::from_json(&text).map_err(|e| format!("{path}: {e}"))
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
            deliver(&render::render_report(&health), flag(&flags, "out"))
        }
        "alerts" => {
            need(1, &[])?;
            let health = load_health(positional[0])?;
            print!("{}", render::render_alerts(&health));
            Ok(())
        }
        "query" => {
            need(2, &["entity"])?;
            let entity = match flag(&flags, "entity") {
                Some(v) => Some(v.parse::<u64>().map_err(|_| format!("bad --entity {v}"))?),
                None => None,
            };
            let health = load_health(positional[0])?;
            print!("{}", render::render_query(&health, positional[1], entity));
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
    use soc_telemetry::json::event_to_json;
    use soc_telemetry::Telemetry;

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
                &["query", "h.json", "rack_draw_w", "--entiy", "3"][..],
                "--entiy",
            ),
            (&["health", "h.json", "--ot", "r.txt"][..], "--ot"),
            (&["alerts", "h.json", "--out", "r.txt"][..], "--out"),
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
        let err = run_args(&["query", "no-such-health.json", "m", "--entity", "3"]).unwrap_err();
        assert!(err.starts_with("no-such-health.json: "), "{err}");
    }

    #[test]
    fn rejects_the_wrong_artifact_naming_the_file() {
        let dir = std::env::temp_dir();
        let id = std::process::id();
        let profile = dir.join(format!("soc-analyze-{id}.prof.jsonl"));
        let health = dir.join(format!("soc-analyze-{id}.health.json"));
        // A profile as `--prof-out` writes it: the metric records of a
        // registry, one JSONL line each.
        let (tm, sink) = Telemetry::memory();
        tm.metrics(|m| {
            m.observe("phase_ms", &[("phase", "shard/sim".into())], 1.5);
            m.inc_counter_by("racks", &[], 4);
        });
        tm.emit_metrics_snapshot(SimTime::ZERO);
        let lines: String = sink
            .events()
            .iter()
            .map(|e| event_to_json(e) + "\n")
            .collect();
        let report = soc_analyze::Recorder::new("run").finalize(&[]).unwrap();
        std::fs::write(&profile, lines).unwrap();
        std::fs::write(&health, soc_analyze::json::to_json(&report)).unwrap();
        let (profile, health) = (profile.to_str().unwrap(), health.to_str().unwrap());
        // Each artifact reads back with its own subcommand…
        run_args(&["metrics", profile]).unwrap();
        run_args(&["alerts", health]).unwrap();
        // …and is an error naming the file for every other.
        for args in [
            &["health", profile][..],
            &["alerts", profile],
            &["query", profile, "rack_draw_w"],
            &["metrics", health],
        ] {
            let err = run_args(args).unwrap_err();
            assert!(
                err.starts_with(&format!("{}: ", args[1])),
                "{args:?}: {err}"
            );
        }
        std::fs::remove_file(profile).unwrap();
        std::fs::remove_file(health).unwrap();
    }
}
