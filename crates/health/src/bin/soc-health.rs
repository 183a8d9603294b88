//! `soc-health` — command-line fleet health reports.
//!
//! ```text
//! soc-health report <health.json> [--out report.txt]
//! soc-health alerts <health.json>
//! soc-health query  <health.json> <metric> [--entity N]
//! ```
//!
//! Health files come from any bench binary run with `--health-out` (e.g.
//! `exp_fault_tolerance --health-out ft.health.json`).

use soc_health::{json, render, HealthReport};
use std::process::ExitCode;

const USAGE: &str = "usage: soc-health <command> [args]

commands:
  report <health.json> [--out FILE]   sparklines per series + incident table
  alerts <health.json>                one row per alert (firing and resolved)
  query  <health.json> <metric> [--entity N]
                                      bucket-level dump of one series

Health files are produced by the soc-bench binaries via --health-out.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("soc-health: {message}");
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

fn load(path: &str) -> Result<HealthReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

/// Print to stdout, or write to `--out FILE` when given.
fn deliver(text: &str, out: Option<&str>) -> Result<(), String> {
    match out {
        Some(path) => std::fs::write(path, text)
            .map_err(|e| format!("writing {path}: {e}"))
            .map(|()| eprintln!("soc-health: report written to {path}")),
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
    match command {
        "report" => {
            takes_only(command, &flags, &["out"])?;
            let [path] = positional[..] else {
                return Err(format!("report takes one health file\n\n{USAGE}"));
            };
            deliver(&render::render_report(&load(path)?), flag(&flags, "out"))
        }
        "alerts" => {
            takes_only(command, &flags, &[])?;
            let [path] = positional[..] else {
                return Err(format!("alerts takes one health file\n\n{USAGE}"));
            };
            print!("{}", render::render_alerts(&load(path)?));
            Ok(())
        }
        "query" => {
            takes_only(command, &flags, &["entity"])?;
            let [path, metric] = positional[..] else {
                return Err(format!("query takes a health file and a metric\n\n{USAGE}"));
            };
            let entity = match flag(&flags, "entity") {
                Some(v) => Some(v.parse::<u64>().map_err(|_| format!("bad --entity {v}"))?),
                None => None,
            };
            print!("{}", render::render_query(&load(path)?, metric, entity));
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

    fn run_args(args: &[&str]) -> Result<(), String> {
        run(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn rejects_flags_a_subcommand_does_not_take() {
        for (args, bad) in [
            (
                &["query", "h.json", "rack_draw_w", "--entiy", "3"][..],
                "--entiy",
            ),
            (&["report", "h.json", "--ot", "r.txt"][..], "--ot"),
            (&["alerts", "h.json", "--out", "r.txt"][..], "--out"),
        ] {
            let err = run_args(args).unwrap_err();
            assert!(
                err.contains(&format!("does not take {bad}")),
                "{args:?}: {err}"
            );
            assert!(err.contains("usage: soc-health"), "{args:?}: {err}");
        }
        // A flag the subcommand takes passes, and the missing file fails.
        let err = run_args(&["query", "no-such-health.json", "m", "--entity", "3"]).unwrap_err();
        assert!(err.starts_with("no-such-health.json: "), "{err}");
    }
}
