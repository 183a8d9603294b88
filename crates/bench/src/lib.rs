//! # soc-bench — experiment regenerators
//!
//! One binary per table/figure of the paper (see `src/bin/`). Every binary
//! accepts:
//!
//! * `--seed <u64>` — RNG seed (default 42; results in EXPERIMENTS.md use
//!   the default).
//! * `--fast` — reduced scale for smoke runs.
//! * `--csv <path>` — additionally write the table as CSV.
//! * `--trace-out <path>` — write a JSONL telemetry trace of the run. The
//!   `SOC_TRACE` environment variable is the fallback; when both are set the
//!   CLI flag wins and a single warning line notes the override.
//! * `--analyze` — after the run, analyze the trace with `soc-analyze` and
//!   print the full report to stdout.
//! * `--report-out <path>` — write that report to a file instead.
//! * `--threads <n>` — worker threads for the sharded simulation paths
//!   (`simcore::par`). Defaults to the machine's available parallelism;
//!   results are byte-identical for every value (`1` forces serial).
//! * `--prof` — collect a `soc-prof` performance profile (phase wall-clock,
//!   throughput counters, peak RSS) and print the summary to stderr.
//! * `--prof-out <path>` — additionally write the profile snapshot as
//!   canonical JSON (implies `--prof`).
//! * `--health` — collect a `soc-health` fleet health report (sim-time
//!   series, deterministic alerts, incident timeline) and print it to
//!   stderr.
//! * `--health-out <path>` — additionally write the health report as
//!   canonical JSON (implies `--health`); read it back with `soc-health`.
//! * `--out <path>` — where binaries with a JSON result file write it
//!   (`exp_fault_tolerance`, `exp_binning`; each has its own default name).
//!
//! `--analyze` / `--report-out` without a trace path trace to a temporary
//! file so the analysis still has input. An unknown flag, a flag missing its
//! value, a `--seed` / `--threads` value that does not parse, or a flag
//! asking for an [`Output`] the binary does not write prints the error and
//! [`USAGE`] and exits 2 before the experiment runs.
//!
//! Profiling and health recording are observation-only by design:
//! simulation output — stdout tables, traces, metrics — is byte-identical
//! with and without `--prof` / `--health` (their output goes to stderr and
//! the `--prof-out` / `--health-out` files only; pinned by `tests/prof.rs`
//! and `tests/health.rs`).
//!
//! This tiny library holds the shared CLI plumbing so the binaries stay
//! focused on the experiment itself.

#![forbid(unsafe_code)]

pub mod probe;

use simcore::report::Table;
use simcore::time::SimTime;
use soc_health::Recorder;
use soc_prof::Profiler;
use soc_telemetry::Telemetry;
use std::path::PathBuf;

/// Parsed common CLI options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cli {
    /// RNG seed.
    pub seed: u64,
    /// Reduced-scale smoke run.
    pub fast: bool,
    /// Optional CSV output path.
    pub csv: Option<PathBuf>,
    /// Optional JSONL telemetry trace path (`--trace-out` / `SOC_TRACE`).
    pub trace_out: Option<PathBuf>,
    /// Print a `soc-analyze` report after the run (`--analyze`).
    pub analyze: bool,
    /// Write the `soc-analyze` report to this path (`--report-out`).
    pub report_out: Option<PathBuf>,
    /// Worker threads for sharded simulation paths (`--threads`); `0` means
    /// "use the machine's available parallelism". Use
    /// [`Cli::effective_threads`] to resolve. Thread count never changes
    /// results — only wall-clock time.
    pub threads: usize,
    /// Collect a `soc-prof` performance profile (`--prof`).
    pub prof: bool,
    /// Write the profile snapshot as canonical JSON (`--prof-out`; implies
    /// `--prof`).
    pub prof_out: Option<PathBuf>,
    /// Collect a `soc-health` fleet health report (`--health`).
    pub health: bool,
    /// Write the health report as canonical JSON (`--health-out`; implies
    /// `--health`).
    pub health_out: Option<PathBuf>,
    /// The binary's JSON result file (`--out`); `None` means the binary's
    /// default file name.
    pub out: Option<PathBuf>,
}

/// An optional output a bench binary can write. Each binary passes the
/// ones it writes to [`Cli::from_env`]; a flag asking for any other is a
/// parse error, so it is never silently dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Output {
    /// A JSONL telemetry trace (`--trace-out`) and its `soc-analyze` report
    /// (`--analyze`, `--report-out`).
    Trace,
    /// A `soc-prof` profile (`--prof`, `--prof-out`).
    Profile,
    /// A `soc-health` report (`--health`, `--health-out`).
    Health,
    /// A JSON result file (`--out`).
    ResultFile,
}

/// The flags every bench binary takes, printed after the binary's name
/// with a parse error.
pub const USAGE: &str = "[--seed N] [--fast] [--threads N] [--csv PATH] [--trace-out PATH] \
                         [--analyze] [--report-out PATH] [--prof] [--prof-out PATH] [--health] \
                         [--health-out PATH] [--out PATH]";

impl Default for Cli {
    fn default() -> Self {
        Cli {
            seed: 42,
            fast: false,
            csv: None,
            trace_out: None,
            analyze: false,
            report_out: None,
            threads: 0,
            prof: false,
            prof_out: None,
            health: false,
            health_out: None,
            out: None,
        }
    }
}

/// Apply the trace-path precedence rule: the `--trace-out` CLI flag wins
/// over the `SOC_TRACE` environment variable. Returns the chosen path and
/// whether the env var was overridden (callers print one warning line).
pub fn resolve_trace_out(flag: Option<PathBuf>, env: Option<PathBuf>) -> (Option<PathBuf>, bool) {
    match (flag, env) {
        (Some(flag), Some(env)) => {
            let overridden = env != flag;
            (Some(flag), overridden)
        }
        (Some(flag), None) => (Some(flag), false),
        (None, env) => (env, false),
    }
}

impl Cli {
    /// Parse from `std::env::args`. The `SOC_TRACE` environment variable
    /// supplies `trace_out` when the flag is absent; when both are present
    /// the flag wins and one warning line is printed. When analysis is
    /// requested without any trace path, the trace goes to a temporary file.
    /// `outputs` lists what the binary writes (see [`Cli::parse`]). A parse
    /// error prints the error and [`USAGE`] and exits 2.
    pub fn from_env(outputs: &[Output]) -> Cli {
        let mut args = std::env::args();
        let binary = args.next().unwrap_or_default();
        let mut cli = Cli::parse(args, outputs).unwrap_or_else(|e| {
            eprintln!("error: {e}\nusage: {binary} {USAGE}");
            std::process::exit(2)
        });
        let env = std::env::var_os("SOC_TRACE").map(PathBuf::from);
        let (trace_out, overridden) = resolve_trace_out(cli.trace_out.take(), env);
        if overridden {
            eprintln!("warning: --trace-out overrides SOC_TRACE");
        }
        cli.trace_out = trace_out;
        if cli.trace_out.is_none() && (cli.analyze || cli.report_out.is_some()) {
            cli.trace_out =
                Some(std::env::temp_dir().join(format!("soc-trace-{}.jsonl", std::process::id())));
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
                "--report-out" => cli.report_out = Some(value()?.into()),
                "--prof-out" => {
                    cli.prof_out = Some(value()?.into());
                    cli.prof = true;
                }
                "--health-out" => {
                    cli.health_out = Some(value()?.into());
                    cli.health = true;
                }
                "--out" => cli.out = Some(value()?.into()),
                "--fast" => cli.fast = true,
                "--analyze" => cli.analyze = true,
                "--prof" => cli.prof = true,
                "--health" => cli.health = true,
                other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
                other => return Err(format!("unexpected argument {other}")),
            }
        }
        let asked = [
            (Output::Trace, cli.trace_out.is_some(), "--trace-out"),
            (Output::Trace, cli.analyze, "--analyze"),
            (Output::Trace, cli.report_out.is_some(), "--report-out"),
            (Output::Profile, cli.prof_out.is_some(), "--prof-out"),
            (Output::Profile, cli.prof, "--prof"),
            (Output::Health, cli.health_out.is_some(), "--health-out"),
            (Output::Health, cli.health, "--health"),
            (Output::ResultFile, cli.out.is_some(), "--out"),
        ];
        match asked
            .into_iter()
            .find(|&(output, set, _)| set && !outputs.contains(&output))
        {
            Some((output, _, flag)) => {
                let what = match output {
                    Output::Trace => "trace",
                    Output::Profile => "profile",
                    Output::Health => "health report",
                    Output::ResultFile => "result file",
                };
                Err(format!("{flag}: this binary writes no {what}"))
            }
            None => Ok(cli),
        }
    }

    /// Resolved worker-thread count: the `--threads` value, or the
    /// machine's available parallelism when the flag was absent (`0`).
    pub fn effective_threads(&self) -> usize {
        simcore::par::resolve_threads(self.threads)
    }

    /// The binary's result file: `--out`, else `default` in the current
    /// directory.
    pub fn out_or(&self, default: &str) -> PathBuf {
        self.out.clone().unwrap_or_else(|| PathBuf::from(default))
    }

    /// The telemetry handle implied by `--trace-out` / `SOC_TRACE`: a JSONL
    /// file sink when a path was given, the zero-overhead disabled handle
    /// otherwise. Call [`Telemetry::flush`] (or drop every clone) before the
    /// process exits so the file buffer is written out.
    pub fn telemetry(&self) -> Telemetry {
        match &self.trace_out {
            Some(path) => match Telemetry::jsonl(path) {
                Ok(tm) => {
                    eprintln!("tracing to {}", path.display());
                    tm
                }
                Err(e) => {
                    eprintln!("warning: cannot open trace file {}: {e}", path.display());
                    Telemetry::disabled()
                }
            },
            None => Telemetry::disabled(),
        }
    }

    /// The profiler implied by `--prof` / `--prof-out`: an enabled handle
    /// named `name` with the common run parameters attached as metadata, or
    /// the zero-overhead disabled handle. Call [`Cli::finish_prof`] at the
    /// end of the run to emit the snapshot.
    pub fn profiler(&self, name: &str) -> Profiler {
        if !self.prof {
            return Profiler::disabled();
        }
        let prof = Profiler::new(name);
        prof.set_meta("seed", self.seed);
        prof.set_meta("threads", self.effective_threads());
        prof.set_meta("fast", self.fast);
        prof
    }

    /// Snapshot the profile, print the human summary to stderr, and honor
    /// `--prof-out`. No-op for a disabled profiler. Stderr (not stdout) so
    /// profiled runs keep byte-identical experiment output.
    pub fn finish_prof(&self, profiler: &Profiler) {
        if !profiler.is_enabled() {
            return;
        }
        let snap = profiler.snapshot();
        eprint!("{}", snap.render());
        if let Some(path) = &self.prof_out {
            if let Err(e) = std::fs::write(path, snap.to_json()) {
                eprintln!("warning: failed to write {}: {e}", path.display());
            } else {
                eprintln!("profile written to {}", path.display());
            }
        }
    }

    /// The health recorder implied by `--health` / `--health-out`: an
    /// enabled recorder named `name`, or the zero-overhead disabled handle.
    /// Call [`Cli::finish_health`] at the end of the run to evaluate rules
    /// and emit the report.
    pub fn recorder(&self, name: &str) -> Recorder {
        if self.health {
            Recorder::new(name)
        } else {
            Recorder::disabled()
        }
    }

    /// Evaluate `rules` over the recorded run, print the rendered health
    /// report to stderr, and honor `--health-out`. No-op for a disabled
    /// recorder. Stderr (not stdout) so health-recorded runs keep
    /// byte-identical experiment output.
    pub fn finish_health(&self, recorder: &Recorder, rules: &[soc_health::Rule]) {
        let Some(report) = recorder.finalize(rules) else {
            return;
        };
        eprint!("{}", soc_health::render::render_report(&report));
        if let Some(path) = &self.health_out {
            if let Err(e) = std::fs::write(path, soc_health::json::to_json(&report)) {
                eprintln!("warning: failed to write {}: {e}", path.display());
            } else {
                eprintln!("health report written to {}", path.display());
            }
        }
    }

    /// Print the table with a heading and honor `--csv`.
    pub fn emit(&self, heading: &str, table: &Table) {
        println!("== {heading} ==");
        println!("{}", table.render());
        if let Some(path) = &self.csv {
            if let Err(e) = std::fs::write(path, table.to_csv()) {
                eprintln!("warning: failed to write {}: {e}", path.display());
            } else {
                eprintln!("wrote {}", path.display());
            }
        }
    }

    /// Finalize the trace and honor `--analyze` / `--report-out`: dump the
    /// end-of-run metric snapshot, flush the trace file, then run the
    /// `soc-analyze` full report on it. The report is titled with the
    /// experiment `name` (not the path) so equal-seed runs stay
    /// byte-identical. No-op when neither analysis flag is set.
    pub fn finish(&self, name: &str, telemetry: &Telemetry) {
        if telemetry.is_enabled() {
            telemetry.emit_metrics_snapshot(SimTime::ZERO);
            telemetry.flush();
        }
        if !self.analyze && self.report_out.is_none() {
            return;
        }
        let Some(path) = &self.trace_out else {
            eprintln!("warning: --analyze/--report-out need a trace; none was written");
            return;
        };
        let trace = match soc_analyze::Trace::load(path) {
            Ok(trace) => trace,
            Err(e) => {
                eprintln!("warning: cannot analyze {}: {e}", path.display());
                return;
            }
        };
        let report = soc_analyze::full_report(&trace, name);
        if self.analyze {
            print!("{report}");
        }
        if let Some(out) = &self.report_out {
            if let Err(e) = std::fs::write(out, &report) {
                eprintln!("warning: failed to write {}: {e}", out.display());
            } else {
                eprintln!("report written to {}", out.display());
            }
        }
    }
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

    const ALL: [Output; 4] = [
        Output::Trace,
        Output::Profile,
        Output::Health,
        Output::ResultFile,
    ];

    fn try_parse(args: &[&str]) -> Result<Cli, String> {
        Cli::parse(args.iter().map(|s| s.to_string()), &ALL)
    }

    fn parse(args: &[&str]) -> Cli {
        try_parse(args).unwrap()
    }

    #[test]
    fn defaults() {
        let cli = parse(&[]);
        assert_eq!(cli.seed, 42);
        assert!(!cli.fast);
        assert!(cli.csv.is_none());
        assert!(!cli.analyze);
        assert!(cli.report_out.is_none());
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
    fn parses_analyze_flags() {
        let cli = parse(&["--analyze", "--report-out", "/tmp/report.txt"]);
        assert!(cli.analyze);
        assert_eq!(cli.report_out.unwrap().to_str().unwrap(), "/tmp/report.txt");
    }

    #[test]
    fn trace_out_flag_beats_env() {
        let flag = Some(PathBuf::from("/tmp/flag.jsonl"));
        let env = Some(PathBuf::from("/tmp/env.jsonl"));
        let (chosen, warned) = resolve_trace_out(flag.clone(), env.clone());
        assert_eq!(chosen, flag);
        assert!(warned, "overriding the env var should warn");
        // Same path on both sides: no warning.
        let (chosen, warned) = resolve_trace_out(flag.clone(), flag.clone());
        assert_eq!(chosen, flag);
        assert!(!warned);
        // Env alone is honored silently.
        let (chosen, warned) = resolve_trace_out(None, env.clone());
        assert_eq!(chosen, env);
        assert!(!warned);
        assert_eq!(resolve_trace_out(None, None), (None, false));
    }

    #[test]
    fn telemetry_disabled_without_trace_out() {
        assert!(!parse(&[]).telemetry().is_enabled());
    }

    #[test]
    fn finish_without_analysis_is_quiet_noop() {
        // Must not panic or print a report when neither flag is set.
        parse(&[]).finish("noop", &Telemetry::disabled());
    }

    #[test]
    fn parses_health_flags() {
        let cli = parse(&["--health"]);
        assert!(cli.health);
        assert!(cli.health_out.is_none());
        let cli = parse(&["--health-out", "/tmp/run.health.json"]);
        assert!(cli.health, "--health-out must imply --health");
        assert_eq!(
            cli.health_out.unwrap().to_str().unwrap(),
            "/tmp/run.health.json"
        );
        assert!(!parse(&[]).health);
    }

    #[test]
    fn recorder_disabled_without_health_flag() {
        assert!(!parse(&[]).recorder("x").is_enabled());
        assert!(parse(&["--health"]).recorder("x").is_enabled());
        // finish_health on a disabled recorder is a quiet no-op.
        parse(&[]).finish_health(&Recorder::disabled(), &soc_health::default_rules(1));
    }

    #[test]
    fn parses_out() {
        let cli = parse(&["--fast", "--out", "/tmp/result.json"]);
        assert_eq!(
            cli.out_or("default.json"),
            PathBuf::from("/tmp/result.json")
        );
        assert_eq!(
            parse(&[]).out_or("default.json"),
            PathBuf::from("default.json")
        );
    }

    #[test]
    fn rejects_unknown_flags_missing_values_and_bad_numbers() {
        let err = |args: &[&str]| try_parse(args).unwrap_err();
        // A typo is not silently a full-scale run.
        assert_eq!(err(&["--fsat"]), "unknown flag --fsat");
        assert_eq!(err(&["--fast", "stray"]), "unexpected argument stray");
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
            (&["--analyze"][..], Output::Trace),
            (&["--report-out", "r.txt"][..], Output::Trace),
            (&["--prof"][..], Output::Profile),
            (&["--prof-out", "p.json"][..], Output::Profile),
            (&["--health"][..], Output::Health),
            (&["--health-out", "h.json"][..], Output::Health),
            (&["--out", "r.json"][..], Output::ResultFile),
        ] {
            let others: Vec<Output> = ALL.into_iter().filter(|&o| o != output).collect();
            let err = parse_for(flag, &others).unwrap_err();
            assert!(err.starts_with(&format!("{}: ", flag[0])), "{err}");
            assert!(parse_for(flag, &[output]).is_ok(), "{flag:?}");
        }
        // `--prof-out` implies `--prof`; the error names the flag given.
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
