//! # soc-bench — experiment regenerators
//!
//! One binary per table/figure of the paper (see `src/bin/`). Every binary
//! accepts:
//!
//! * `--seed <u64>` — RNG seed (default 42; results in EXPERIMENTS.md use
//!   the default).
//! * `--fast` — reduced scale for smoke runs.
//! * `--threads <n>` — worker threads for the sharded simulation paths
//!   (`simcore::par`). Defaults to the machine's available parallelism;
//!   results are byte-identical for every value (`1` forces serial).
//! * `--csv <path>` — additionally write the table as CSV.
//! * `--trace-out <path>` — write a JSONL telemetry trace of the run.
//! * `--prof-out <path>` — collect a wall-clock profile (a `phase_ms`
//!   histogram per phase, work counters, the run's parameters, wall time and
//!   peak RSS) and write it as JSONL `metric` records.
//! * `--out <path>` — where binaries with a JSON result file write it
//!   (`exp_fault_tolerance`, `exp_binning`; each has its own default name).
//!
//! The binaries only write artifacts; `soc-analyze` reads them back
//! (`soc-analyze report <trace>`, `soc-analyze metrics <profile.jsonl>`).
//! Fleet health is a reading of the trace: each traced large-scale rack run
//! emits one `rack_series` event, and `soc-analyze health <trace.jsonl>`
//! evaluates the alert rules over it, one section per traced run.
//!
//! An unknown flag, a flag missing its value, a `--seed` / `--threads`
//! value that does not parse, a flag asking for an [`Output`] the binary
//! does not write, or a `--trace-out` file that cannot be created prints
//! the error and exits 2 before the experiment runs. Every other artifact
//! goes through one failure path: a `--csv`, `--out` or `--prof-out` file
//! that cannot be written, or a trace whose writes failed, prints the error, the run still attempts every other output, and
//! [`Cli::finish`] returns a failure exit status.
//!
//! A binary observes its run through one [`Observer`] ([`Cli::observer`])
//! and emits everything it observed with one [`Cli::finish`]. Profiling is
//! observation-only by design: simulation output — stdout tables, traces,
//! metrics — is byte-identical with and without `--prof-out` (pinned by
//! `tests/prof.rs` and `tests/health.rs`).
//!
//! This tiny library holds the shared CLI plumbing so the binaries stay
//! focused on the experiment itself.

#![forbid(unsafe_code)]

mod probe;

pub use probe::Observer;

use simcore::report::Table;
use simcore::time::SimTime;
use soc_telemetry::{NullSink, Telemetry};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

/// Parsed common CLI options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cli {
    /// RNG seed.
    pub seed: u64,
    /// Reduced-scale smoke run.
    pub fast: bool,
    /// Optional CSV output path.
    pub csv: Option<PathBuf>,
    /// Optional JSONL telemetry trace path (`--trace-out`).
    pub trace_out: Option<PathBuf>,
    /// Worker threads for sharded simulation paths (`--threads`); `0` means
    /// "use the machine's available parallelism". Use
    /// [`Cli::effective_threads`] to resolve. Thread count never changes
    /// results — only wall-clock time.
    pub threads: usize,
    /// Collect a wall-clock profile and write its metric records as JSONL
    /// here (`--prof-out`).
    pub prof_out: Option<PathBuf>,
    /// The binary's JSON result file (`--out`); `None` means the binary's
    /// default file name.
    pub out: Option<PathBuf>,
}

/// An optional output a bench binary can write. Each binary passes the
/// ones it writes to [`Cli::from_env`]; a flag asking for any other is a
/// parse error, so it is never silently dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Output {
    /// A JSONL telemetry trace (`--trace-out`).
    Trace,
    /// A wall-clock profile (`--prof-out`).
    Profile,
    /// A JSON result file (`--out`).
    ResultFile,
}

/// The flags every bench binary takes, printed after the binary's name
/// with a parse error.
pub const USAGE: &str = "[--seed N] [--fast] [--threads N] [--csv PATH] [--trace-out PATH] \
                         [--prof-out PATH] [--out PATH]";

impl Default for Cli {
    fn default() -> Self {
        Cli {
            seed: 42,
            fast: false,
            csv: None,
            trace_out: None,
            threads: 0,
            prof_out: None,
            out: None,
        }
    }
}

impl Cli {
    /// Parse from `std::env::args`. `outputs` lists what the binary writes
    /// (see [`Cli::parse`]). A parse error prints the error and [`USAGE`]
    /// and exits 2. The `--trace-out` file is created here, so a path that
    /// cannot be written also exits 2 before the run.
    pub fn from_env(outputs: &[Output]) -> Cli {
        let mut args = std::env::args();
        let binary = args.next().unwrap_or_default();
        let cli = Cli::parse(args, outputs).unwrap_or_else(|e| {
            eprintln!("error: {e}\nusage: {binary} {USAGE}");
            std::process::exit(2)
        });
        if let Some(path) = &cli.trace_out {
            if let Err(e) = std::fs::File::create(path) {
                eprintln!("error: cannot create trace file {}: {e}", path.display());
                std::process::exit(2)
            }
        }
        cli
    }

    /// Parse from an explicit iterator (testable). Every flag is known
    /// here, so an unknown flag, a flag missing its value (the next argument
    /// is absent or is itself a flag), an unparseable `--seed` /
    /// `--threads` value, or a flag asking for an output not in `outputs`
    /// is an error rather than a silent default.
    pub fn parse<I: IntoIterator<Item = String>>(
        args: I,
        outputs: &[Output],
    ) -> Result<Cli, String> {
        let mut cli = Cli::default();
        let mut iter = args.into_iter().peekable();
        while let Some(flag) = iter.next() {
            let mut value = || {
                iter.next_if(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag.as_str() {
                "--seed" => {
                    let v = value()?;
                    cli.seed = v
                        .parse()
                        .map_err(|_| format!("--seed: expected an integer, got {v:?}"))?;
                }
                "--threads" => {
                    let v = value()?;
                    cli.threads = v
                        .parse()
                        .map_err(|_| format!("--threads: expected an integer, got {v:?}"))?;
                }
                "--csv" => cli.csv = Some(value()?.into()),
                "--trace-out" => cli.trace_out = Some(value()?.into()),
                "--prof-out" => cli.prof_out = Some(value()?.into()),
                "--out" => cli.out = Some(value()?.into()),
                "--fast" => cli.fast = true,
                other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
                other => return Err(format!("unexpected argument {other}")),
            }
        }
        let asked = [
            (Output::Trace, &cli.trace_out, "--trace-out", "trace"),
            (Output::Profile, &cli.prof_out, "--prof-out", "profile"),
            (Output::ResultFile, &cli.out, "--out", "result file"),
        ];
        if let Some((_, _, flag, what)) = asked
            .into_iter()
            .find(|&(output, path, _, _)| path.is_some() && !outputs.contains(&output))
        {
            return Err(format!("{flag}: this binary writes no {what}"));
        }
        Ok(cli)
    }

    /// Resolved worker-thread count: the `--threads` value, or the
    /// machine's available parallelism when the flag was absent (`0`).
    pub fn effective_threads(&self) -> usize {
        simcore::par::resolve_threads(self.threads)
    }

    /// The run's observation handle, built from the flags: the JSONL trace
    /// of `--trace-out`, the profile of `--prof-out` (its own metrics
    /// registry, holding from the start a `run_info` gauge labelled with
    /// `name` and the common run parameters). Parts not asked for are the
    /// zero-overhead disabled handles. Call [`Cli::finish`] at the end of the run to emit
    /// everything.
    pub fn observer(&self, name: &'static str) -> Observer {
        let telemetry = match &self.trace_out {
            Some(path) => match Telemetry::jsonl(path) {
                Ok(tm) => {
                    eprintln!("tracing to {}", path.display());
                    tm
                }
                Err(e) => {
                    fail("trace", path, &e);
                    Telemetry::disabled()
                }
            },
            None => Telemetry::disabled(),
        };
        let profile = if self.prof_out.is_some() {
            let profile = Telemetry::with_sink(NullSink);
            let fast = if self.fast { "true" } else { "false" };
            let labels = [
                ("name", name.into()),
                ("seed", self.seed.into()),
                ("threads", self.effective_threads().into()),
                ("fast", fast.into()),
            ];
            profile.metrics(|m| m.set_gauge("run_info", &labels, 1.0));
            profile
        } else {
            Telemetry::disabled()
        };
        Observer {
            telemetry,
            profile,
            ..Observer::default()
        }
    }

    /// Print the table with a heading and honor `--csv`.
    pub fn emit(&self, heading: &str, table: &Table) {
        println!("== {heading} ==");
        println!("{}", table.render());
        if let Some(path) = &self.csv {
            write_artifact(path, &table.to_csv(), "table");
        }
    }

    /// Emit everything `obs` observed, in a fixed order, and return the
    /// run's exit status. First the trace: dump the end-of-run metric snapshot and flush the file, which
    /// reports any write of the trace that failed during the run. Last
    /// the profile: write its metric records to `--prof-out`. Each step is a
    /// no-op when its flag is absent. The status is a failure when any
    /// artifact of the run could not be written (see [`write_artifact`]).
    #[must_use]
    pub fn finish(&self, obs: &Observer) -> ExitCode {
        if obs.telemetry.is_enabled() {
            obs.telemetry.emit_metrics_snapshot(SimTime::ZERO);
            if let (Err(e), Some(path)) = (obs.telemetry.flush(), &self.trace_out) {
                fail("trace", path, &e);
            }
        }
        if let Some(path) = &self.prof_out {
            write_artifact(path, &obs.profile_jsonl(), "profile");
        }
        if WRITE_FAILED.load(Ordering::Relaxed) {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        }
    }
}

/// Set once an artifact of the run could not be written; [`Cli::finish`]
/// then returns a failure exit status.
static WRITE_FAILED: AtomicBool = AtomicBool::new(false);

/// Write `contents` to `path`, noting the outcome on stderr. Returns whether
/// the write succeeded; a failure also makes [`Cli::finish`] fail the run,
/// after every other output has been attempted.
pub fn write_artifact(path: &Path, contents: &str, what: &str) -> bool {
    match std::fs::write(path, contents) {
        Ok(()) => {
            eprintln!("{what} written to {}", path.display());
            true
        }
        Err(e) => {
            fail(what, path, &e);
            false
        }
    }
}

/// Report a failed artifact write and remember it for [`Cli::finish`].
fn fail(what: &str, path: &Path, e: &std::io::Error) {
    eprintln!("error: cannot write {what} {}: {e}", path.display());
    WRITE_FAILED.store(true, Ordering::Relaxed);
}

/// Format a percentage delta `new` vs `old` (negative = reduction).
pub fn pct_change(old: f64, new: f64) -> String {
    if old == 0.0 {
        return "-".to_string();
    }
    format!("{:+.1}%", (new - old) / old * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use soc_analyze::rollup::MetricValue;
    use soc_cluster::probe::ShardProbe;

    const ALL: [Output; 3] = [Output::Trace, Output::Profile, Output::ResultFile];

    fn try_parse(args: &[&str]) -> Result<Cli, String> {
        Cli::parse(args.iter().map(|s| s.to_string()), &ALL)
    }

    fn parse(args: &[&str]) -> Cli {
        try_parse(args).unwrap()
    }

    /// A per-process path in the temp directory.
    fn temp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("soc-bench-{}-{name}", std::process::id()))
    }

    #[test]
    fn defaults() {
        let cli = parse(&[]);
        assert_eq!(cli.seed, 42);
        assert!(!cli.fast);
        assert!(cli.csv.is_none());
        assert!(cli.trace_out.is_none());
        assert!(cli.prof_out.is_none());
    }

    #[test]
    fn parses_flags() {
        let cli = parse(&["--seed", "7", "--fast", "--csv", "/tmp/out.csv"]);
        assert_eq!(cli.seed, 7);
        assert!(cli.fast);
        assert_eq!(cli.csv.unwrap().to_str().unwrap(), "/tmp/out.csv");
    }

    #[test]
    fn parses_threads_and_resolves_auto() {
        let cli = parse(&["--threads", "4"]);
        assert_eq!(cli.threads, 4);
        assert_eq!(cli.effective_threads(), 4);
        let auto = parse(&[]);
        assert_eq!(auto.threads, 0);
        assert_eq!(
            auto.effective_threads(),
            simcore::par::available_parallelism()
        );
    }

    #[test]
    fn parses_trace_out() {
        let cli = parse(&["--trace-out", "/tmp/trace.jsonl"]);
        assert_eq!(cli.trace_out.unwrap().to_str().unwrap(), "/tmp/trace.jsonl");
        assert!(parse(&[]).trace_out.is_none());
    }

    #[test]
    fn telemetry_disabled_without_trace_out() {
        let obs = parse(&[]).observer("x");
        assert!(!obs.telemetry.is_enabled());
        assert!(!obs.profile.is_enabled());
    }

    #[test]
    fn disabled_profiler_is_inert() {
        // No `--prof-out`: the probe hands out no span tokens and records
        // nothing.
        let obs = parse(&[]).observer("x");
        assert!(obs.span("shard/sim").is_none());
        obs.add("racks", 5);
        assert_eq!(obs.profile.metrics_snapshot().render(), "");
    }

    #[test]
    fn record_takes_the_path_literally() {
        let prof = temp("literal.prof.jsonl");
        let obs = parse(&["--prof-out", prof.to_str().unwrap()]).observer("x");
        drop(obs.span("run/t1"));
        let worker = obs.clone();
        std::thread::spawn(move || drop(worker.span("run/t1")))
            .join()
            .unwrap();
        // One key, whichever thread measured the span.
        let snap = obs.profile.metrics_snapshot();
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].0.render(), "phase_ms{phase=run/t1}");
        assert_eq!(snap.histograms[0].1.count(), 2);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let prof = temp("roundtrip.prof.jsonl");
        let cli = parse(&["--prof-out", prof.to_str().unwrap(), "--seed", "7"]);
        let obs = cli.observer("roundtrip");
        drop(obs.span("rack/admission"));
        obs.add("sim_steps", 100);
        obs.add("sim_steps", 20);
        let _ = cli.finish(&obs);
        let text = std::fs::read_to_string(&prof).unwrap();
        std::fs::remove_file(prof).unwrap();
        // The profile is trace-format JSONL that the metrics reader takes.
        let metrics = soc_analyze::rollup::metrics(&soc_analyze::Trace::parse(&text).unwrap());
        let keys: Vec<&str> = metrics.keys().map(String::as_str).collect();
        let run_info = format!(
            "run_info{{name=roundtrip,seed=7,threads={},fast=false}}",
            cli.effective_threads()
        );
        assert_eq!(
            keys,
            [
                "peak_rss_bytes",
                "phase_ms{phase=rack/admission}",
                run_info.as_str(),
                "sim_steps",
                "wall_ms",
            ]
        );
        assert_eq!(metrics["sim_steps"], MetricValue::Counter(120));
        assert!(matches!(
            metrics["phase_ms{phase=rack/admission}"],
            MetricValue::Histogram { count: 1, .. }
        ));
        assert!(matches!(metrics["wall_ms"], MetricValue::Gauge(ms) if ms >= 0.0));
    }

    #[test]
    fn finish_without_analysis_is_quiet_noop() {
        // Must not panic or print anything when no observation flag is set.
        let cli = parse(&[]);
        let _ = cli.finish(&cli.observer("noop"));
    }

    #[test]
    fn parses_out() {
        let cli = parse(&["--fast", "--out", "/tmp/result.json"]);
        assert_eq!(cli.out, Some(PathBuf::from("/tmp/result.json")));
        assert!(parse(&[]).out.is_none());
    }

    #[test]
    fn write_artifact_fails_into_a_missing_directory_and_writes_the_bytes() {
        // The failure also sets the process-wide flag behind `Cli::finish`'s
        // exit status, which is why no test asserts that status.
        let missing = temp("no-such-dir").join("p.json");
        assert!(!write_artifact(&missing, "{}", "profile"));
        assert!(!missing.exists());
        let path = temp("written.json");
        assert!(write_artifact(&path, "{\"a\": 1}\n", "profile"));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"a\": 1}\n");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn usage_names_exactly_the_flags_parse_accepts() {
        let flags: Vec<&str> = USAGE
            .split(['[', ']'])
            .map(str::trim)
            .filter(|group| !group.is_empty())
            .collect();
        assert_eq!(flags.len(), 7, "{USAGE}");
        for group in flags {
            let args: Vec<&str> = group
                .split(' ')
                .map(|word| match word {
                    "N" => "1",
                    "PATH" => "artifact",
                    flag => flag,
                })
                .collect();
            assert!(args[0].starts_with("--"), "{group}");
            assert!(try_parse(&args).is_ok(), "{group}");
        }
    }

    #[test]
    fn rejects_unknown_flags_missing_values_and_bad_numbers() {
        let err = |args: &[&str]| try_parse(args).unwrap_err();
        // A typo is not silently a full-scale run.
        assert_eq!(err(&["--fsat"]), "unknown flag --fsat");
        assert_eq!(err(&["--fast", "stray"]), "unexpected argument stray");
        // The in-process readers are gone: `soc-analyze` reads artifacts.
        assert_eq!(err(&["--analyze"]), "unknown flag --analyze");
        assert_eq!(err(&["--report-out", "r.txt"]), "unknown flag --report-out");
        assert_eq!(err(&["--prof"]), "unknown flag --prof");
        assert_eq!(err(&["--health"]), "unknown flag --health");
        // Health is read from the trace (`soc-analyze health`).
        assert_eq!(
            err(&["--health-out", "h.json"]),
            "unknown flag --health-out"
        );
        // A value-taking flag at the end, or followed by another flag.
        assert_eq!(err(&["--seed"]), "--seed needs a value");
        assert_eq!(err(&["--out", "--fast"]), "--out needs a value");
        assert_eq!(err(&["--fast", "--trace-out"]), "--trace-out needs a value");
        // Not silently seed 42 or the machine's parallelism.
        assert_eq!(
            err(&["--seed", "notanumber"]),
            "--seed: expected an integer, got \"notanumber\""
        );
        assert_eq!(
            err(&["--threads", "-1"]),
            "--threads: expected an integer, got \"-1\""
        );
    }

    #[test]
    fn rejects_flags_for_outputs_the_binary_does_not_write() {
        let parse_for = |args: &[&str], outputs: &[Output]| {
            Cli::parse(args.iter().map(|s| s.to_string()), outputs)
        };
        for (flag, output) in [
            (&["--trace-out", "t.jsonl"][..], Output::Trace),
            (&["--prof-out", "p.json"][..], Output::Profile),
            (&["--out", "r.json"][..], Output::ResultFile),
        ] {
            let others: Vec<Output> = ALL.into_iter().filter(|&o| o != output).collect();
            let err = parse_for(flag, &others).unwrap_err();
            assert!(err.starts_with(&format!("{}: ", flag[0])), "{err}");
            assert!(parse_for(flag, &[output]).is_ok(), "{flag:?}");
        }
        assert_eq!(
            parse_for(&["--fast", "--prof-out", "p.json"], &[Output::Trace]).unwrap_err(),
            "--prof-out: this binary writes no profile"
        );
        assert!(parse_for(&["--fast", "--seed", "7"], &[]).is_ok());
    }

    #[test]
    fn pct_change_formats() {
        assert_eq!(pct_change(100.0, 70.0), "-30.0%");
        assert_eq!(pct_change(0.0, 1.0), "-");
    }
}
