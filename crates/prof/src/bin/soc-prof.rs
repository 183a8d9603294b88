//! `soc-prof` — profile snapshot tooling.
//!
//! ```text
//! soc-prof show <profile.json>
//!     Render a snapshot (a bench binary's `--prof-out` file)
//!     human-readably. Exit 0 on success, 2 on usage or I/O errors.
//! ```
//!
//! Perf regressions are gated elsewhere: CI runs `soc-benchmark` over its
//! four digest-checked workloads and checks the result file against
//! `benchmark/baseline.json` with `.github/scripts/perf_gate.sh`.

use soc_prof::Snapshot;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("show") => cmd_show(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            eprint!("{USAGE}");
            ExitCode::from(if args.is_empty() { 2 } else { 0 })
        }
        Some(other) => {
            eprintln!("error: unknown subcommand `{other}`\n");
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage:\n  soc-prof show <profile.json>\n";

fn load(path: &str) -> Result<Snapshot, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Snapshot::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_show(args: &[String]) -> ExitCode {
    let [path] = args else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    match load(path) {
        Ok(snap) => {
            print!("{}", snap.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
