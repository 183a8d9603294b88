//! `soc-benchmark`: end-to-end and per-layer numbers for the SmartOClock
//! simulator over four fixed workloads, every round checked against a
//! committed digest. See `benchmark/README.md`.
//!
//! ```text
//! soc-benchmark run [--workload NAME|all] [--seed N] [--threads N]
//!                   [--seconds S] [--trace 0|1] [--out PATH]
//! soc-benchmark compare PARENT.json... -- CHANGE.json...
//! ```
//!
//! `run` prints every metric with its unit, then as its last line one JSON
//! object: `correct`, `attempted`, `failed` and the end-to-end metrics
//! (`--trace 0`) or the per-layer ones (`--trace 1`). It exits 1 when a
//! check failed, after writing the results.

mod compare;
mod probe;
mod report;
mod run;
mod stats;
mod workloads;

use run::Options;
use std::process::{Command, ExitCode};
use workloads::{Scale, Workload, REFERENCE_SEED};

// Counts allocations for `mem.allocs_per_round`; installed in every mode so
// traced and untraced runs pay the same per-allocation cost.
#[global_allocator]
static ALLOC: soc_prof::CountingAlloc = soc_prof::CountingAlloc;

const USAGE: &str = "usage:\n  soc-benchmark run [--workload NAME|all] [--seed N] [--threads N] \
                     [--seconds S] [--trace 0|1] [--out PATH]\n  soc-benchmark compare \
                     PARENT.json... -- CHANGE.json...";

struct RunArgs {
    workloads: Vec<Workload>,
    options: Options,
    out: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workloads: Workload::ALL.to_vec(),
        options: Options {
            seed: REFERENCE_SEED,
            threads: simcore::par::available_parallelism().min(2),
            seconds: 5.0,
            trace: true,
            scale: Scale::Pinned,
        },
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        let o = &mut parsed.options;
        match flag.as_str() {
            "--workload" if value == "all" => parsed.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                parsed.workloads = vec![Workload::parse(value).ok_or_else(|| {
                    bad("expected fleet_stream, policy_sweep, chaos_binned, cluster or all")
                })?]
            }
            "--seed" => o.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--threads" => {
                o.threads = value
                    .parse()
                    .ok()
                    .filter(|&t| t > 0)
                    .ok_or_else(|| bad("expected a positive integer"))?
            }
            "--seconds" => {
                o.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0 && *s <= 3600.0)
                    .ok_or_else(|| bad("expected seconds in [0, 3600]"))?
            }
            "--trace" => {
                o.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--out" => parsed.out = Some(value.to_string()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(parsed)
}

fn write(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

/// Run each workload in a child process of its own, one at a time, so
/// `peak_rss_mb` belongs to one workload; gather their result files.
fn run_children(args: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    let o = &args.options;
    let mut runs = Vec::new();
    let mut ok = true;
    for w in &args.workloads {
        let mut child = Command::new(&exe);
        child
            .args(["run", "--workload", w.name()])
            .args(["--seed", &o.seed.to_string()])
            .args(["--threads", &o.threads.to_string()])
            .args(["--seconds", &o.seconds.to_string()])
            .args(["--trace", if o.trace { "1" } else { "0" }]);
        let part = args
            .out
            .as_ref()
            .map(|out| format!("{out}.{}.part", w.name()));
        if let Some(part) = &part {
            child.args(["--out", part]);
        }
        let status = child.status().map_err(|e| format!("{}: {e}", w.name()))?;
        ok &= status.success();
        if let Some(part) = &part {
            let text = std::fs::read_to_string(part).map_err(|e| format!("{part}: {e}"))?;
            let _ = std::fs::remove_file(part);
            let run = text
                .lines()
                .find(|l| l.starts_with("{\"workload\""))
                .ok_or_else(|| format!("{part}: no run"))?;
            runs.push(run.trim_end_matches(',').to_string());
        }
    }
    if let Some(out) = &args.out {
        write(out, &report::file_json(&runs))?;
    }
    Ok(ok)
}

fn main_run(args: &[String]) -> Result<bool, String> {
    let args = parse_run(args)?;
    let [workload] = args.workloads[..] else {
        return run_children(&args);
    };
    let r = run::run(workload, args.options);
    print!("{}", report::render(&r));
    if let Some(out) = &args.out {
        write(out, &report::file_json(&[report::run_json(&r)]))?;
    }
    println!("{}", report::summary_line(&r));
    Ok(r.correct())
}

fn main_compare(args: &[String]) -> Result<bool, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("compare needs PARENT.json... -- CHANGE.json...")?;
    let (parent, change) = (&args[..split], &args[split + 1..]);
    if parent.is_empty() || change.is_empty() {
        return Err("compare needs at least one file on each side of --".into());
    }
    let (table, clean) = compare::compare(parent, change)?;
    print!("{table}");
    Ok(clean)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => main_run(&args[1..]),
        Some("compare") => main_compare(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
