//! Profiling-is-observation-only harness.
//!
//! The perf-observability layer (the bench [`Observer`]'s profile registry
//! behind `soc_cluster::probe`) must never perturb the simulation:
//! attaching a profiling [`Observer`] to the sharded engine has to yield
//! byte-identical telemetry traces, metrics, and outcomes to the default
//! [`NoopProbe`] run, at any thread count — also with its trace switched
//! on at the same time, whose health still reads back. That invariant is what lets
//! `--prof-out` default to off-but-harmless and lets `soc-benchmark` take
//! its per-layer numbers from traced passes that must reproduce the
//! untraced digest. Pinned here end to end across the public crate APIs,
//! with tiny configs so it runs in the tier-1 suite, together with the
//! profile file itself: `Cli::finish` writes metric records that the trace
//! reader takes back, with exact work counters at every thread count.

use smartoclock::policy::PolicyKind;
use soc_analyze::rollup::{self, MetricValue};
use soc_analyze::{HealthReport, Trace};
use soc_bench::{Cli, Observer};
use soc_cluster::largescale::LargeScaleConfig;
use soc_cluster::probe::{NoopProbe, ShardProbe};
use soc_cluster::shard::{
    generate_fleet_probed, simulate_policy_prepared_probed, simulate_policy_sharded_probed,
    train_fleet_probed,
};
use soc_telemetry::json::event_to_json;
use soc_telemetry::{MemorySink, NullSink, Telemetry};
use std::sync::Mutex;

// The allocation-regression test below reads the process-global counters
// behind this allocator, so every test in this binary serializes on
// [`SERIAL`] — otherwise a concurrently-running test's allocations would
// land inside another test's measured window.
#[global_allocator]
static ALLOC: soc_prof::CountingAlloc = soc_prof::CountingAlloc;

static SERIAL: Mutex<()> = Mutex::new(());

fn serialized() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn small_config(seed: u64) -> LargeScaleConfig {
    let mut cfg = LargeScaleConfig::small_test();
    cfg.seed = seed;
    cfg
}

/// Trace lines, rendered metrics and outcomes of one run — everything a
/// consumer can observe.
type Observed = (
    Vec<String>,
    String,
    Vec<soc_cluster::largescale_metrics::RackOutcome>,
);

/// Run one policy simulation traced into `tm` (whose events land in
/// `sink`) under `probe`.
fn traced_run(
    cfg: &LargeScaleConfig,
    threads: usize,
    tm: &Telemetry,
    sink: &MemorySink,
    probe: &dyn ShardProbe,
) -> Observed {
    let outcomes = simulate_policy_sharded_probed(cfg, PolicyKind::SmartOClock, tm, threads, probe);
    let lines: Vec<String> = sink.events().iter().map(event_to_json).collect();
    let metrics = tm.metrics_snapshot().render();
    (lines, metrics, outcomes)
}

/// Run one policy simulation under `probe`, traced into a fresh memory sink.
fn probed_run(cfg: &LargeScaleConfig, threads: usize, probe: &dyn ShardProbe) -> Observed {
    let (tm, sink) = Telemetry::memory();
    traced_run(cfg, threads, &tm, &sink, probe)
}

/// An observer with only its profile on.
fn prof_observer() -> Observer {
    Observer {
        profile: Telemetry::with_sink(NullSink),
        ..Observer::default()
    }
}

/// Every metric key of a profile, rendered (`phase_ms{phase=merge}`).
fn profile_keys(obs: &Observer) -> Vec<String> {
    let snap = obs.profile.metrics_snapshot();
    let counters = snap.counters.iter().map(|(k, _)| k);
    let gauges = snap.gauges.iter().map(|(k, _)| k);
    let hists = snap.histograms.iter().map(|(k, _)| k);
    counters
        .chain(gauges)
        .chain(hists)
        .map(|k| k.render())
        .collect()
}

#[test]
fn profiled_run_is_byte_identical_to_unprofiled() {
    let _guard = serialized();
    let cfg = small_config(11);
    for threads in [1, 4] {
        let baseline = probed_run(&cfg, threads, &NoopProbe);
        let profiled = prof_observer();
        let probed = probed_run(&cfg, threads, &profiled);
        assert_eq!(
            baseline.0, probed.0,
            "telemetry trace changed under profiling at {threads} threads"
        );
        assert_eq!(
            baseline.1, probed.1,
            "metrics snapshot changed under profiling at {threads} threads"
        );
        assert_eq!(
            baseline.2, probed.2,
            "outcomes changed under profiling at {threads} threads"
        );
        // ... and the probe really was live, not silently disabled: the
        // engine's spans and counters landed in the profile.
        let keys = profile_keys(&profiled);
        assert!(
            keys.iter().any(|k| k == "phase_ms{phase=shard/sim}"),
            "expected a shard/sim phase, got {keys:?}"
        );
        assert_eq!(
            profiled.profile.metrics(|m| m.counter("racks", &[])),
            Some(cfg.racks as u64)
        );

        // Trace and profile on at once: still the same bytes, the profile
        // records the keys the profile-only run did, and the trace's health
        // reads back.
        let (telemetry, sink) = Telemetry::memory();
        let full = Observer {
            telemetry,
            profile: Telemetry::with_sink(NullSink),
            ..Observer::default()
        };
        let observed = traced_run(&cfg, threads, &full.telemetry, &sink, &full);
        assert_eq!(
            baseline, observed,
            "the fully enabled observer perturbed the run at {threads} threads"
        );
        assert_eq!(profile_keys(&full), keys);
        let trace = Trace::parse(&observed.0.join("\n")).expect("trace parses");
        let reports = HealthReport::per_run(&trace);
        assert!(
            reports.iter().any(|r| !r.store.is_empty()),
            "the trace's health stayed empty"
        );
    }
}

#[test]
fn disabled_profiler_probe_records_nothing() {
    let _guard = serialized();
    // No `--prof-out` hands bench binaries a disabled profile handle; the
    // probe must then return no tokens and the profile must stay empty.
    let cfg = small_config(11);
    let probe = Observer::default();
    assert!(probe.span("shard/sim").is_none());
    let _ = probed_run(&cfg, 2, &probe);
    assert!(
        profile_keys(&probe).is_empty(),
        "disabled profile recorded {:?}",
        profile_keys(&probe)
    );
}

#[test]
fn profiled_runs_are_reproducible_across_thread_counts() {
    let _guard = serialized();
    // The committed baseline is generated at --threads 2; nothing about the
    // probe may couple snapshot *simulation* content to the thread count.
    let cfg = small_config(23);
    let one = probed_run(&cfg, 1, &NoopProbe);
    let mut keys = None;
    for threads in [2, 4] {
        let profiled = prof_observer();
        let probed = probed_run(&cfg, threads, &profiled);
        assert_eq!(one.0, probed.0, "trace differs at {threads} threads");
        assert_eq!(one.1, probed.1, "metrics differ at {threads} threads");
        assert_eq!(one.2, probed.2, "outcomes differ at {threads} threads");
        // The profile's key set does not depend on the thread count.
        let now = profile_keys(&profiled);
        assert_eq!(keys.get_or_insert_with(|| now.clone()), &now);
    }
}

#[test]
fn profile_file_reads_back_with_thread_invariant_work_counters() {
    let _guard = serialized();
    // What `--prof-out` writes: `Cli::finish` dumps the profile's metric
    // records as JSONL, which the trace reader parses and rolls up. Wall
    // times differ run to run; the exact work counters may not, whatever
    // the thread count.
    let cfg = small_config(29);
    let path = std::env::temp_dir().join(format!("soc-prof-{}.jsonl", std::process::id()));
    let mut counters = None;
    for threads in [1, 3] {
        let cli = Cli {
            prof_out: Some(path.clone()),
            threads,
            ..Cli::default()
        };
        // With a trace attached, so that `merged_events` counts something.
        let (telemetry, _sink) = Telemetry::memory();
        let obs = Observer {
            telemetry,
            ..cli.observer("prof-test")
        };
        let _ = simulate_policy_sharded_probed(
            &cfg,
            PolicyKind::SmartOClock,
            &obs.telemetry,
            threads,
            &obs,
        );
        let _ = cli.finish(&obs);
        let text = std::fs::read_to_string(&path).expect("profile written");
        let metrics = rollup::metrics(&Trace::parse(&text).expect("profile parses"));
        assert!(
            metrics.contains_key(&format!(
                "run_info{{name=prof-test,seed=42,threads={threads},fast=false}}"
            )),
            "{:?}",
            metrics.keys()
        );
        for key in ["phase_ms{phase=shard/sim}", "wall_ms", "peak_rss_bytes"] {
            assert!(
                metrics.contains_key(key),
                "{key} missing: {:?}",
                metrics.keys()
            );
        }
        let exact: Vec<(&str, MetricValue)> = ["racks", "sim_steps", "merged_events"]
            .into_iter()
            .map(|key| (key, metrics[key].clone()))
            .collect();
        assert_eq!(exact[0].1, MetricValue::Counter(cfg.racks as u64));
        assert!(matches!(exact[2].1, MetricValue::Counter(n) if n > 0));
        assert_eq!(
            counters.get_or_insert_with(|| exact.clone()),
            &exact,
            "work counters differ at {threads} threads"
        );
    }
    std::fs::remove_file(path).unwrap();
}

/// Allocations of one steady-state simulation pass: traces pre-generated,
/// templates pre-trained, telemetry disabled, serial — the measured window
/// covers only the columnar engine itself (after one warm-up pass).
fn sim_alloc_delta(weeks: u64) -> u64 {
    let mut cfg = small_config(42);
    cfg.weeks = weeks;
    let fleet = generate_fleet_probed(&cfg, 1, &NoopProbe);
    let trained = train_fleet_probed(&cfg, &fleet, 1, &NoopProbe);
    let telemetry = Telemetry::disabled();
    let run = || {
        simulate_policy_prepared_probed(
            &cfg,
            PolicyKind::SmartOClock,
            &fleet,
            &trained,
            &telemetry,
            1,
            &NoopProbe,
        )
    };
    let warmup = run();
    let (before, _) = soc_prof::alloc_counts();
    let measured = run();
    let (after, _) = soc_prof::alloc_counts();
    assert_eq!(warmup, measured, "sim must be deterministic");
    after - before
}

#[test]
fn steady_state_allocations_are_bounded_and_step_independent() {
    let _guard = serialized();
    // Absolute ceiling: per-run allocations are per-rack setup (columns,
    // step buffers, budget rows, fault plan, outcome) — O(racks × servers),
    // measured at 87 for this config. The ceiling has ample headroom for
    // toolchain drift, while a per-step allocation sneaking back into the
    // hot loop (4 racks × ~672 evaluated steps) blows straight through it.
    let w2 = sim_alloc_delta(2);
    assert!(
        w2 < 1_000,
        "steady-state sim made {w2} allocations (ceiling 1000) — \
         something allocates per step again"
    );
    // Step-independence: weeks=3 evaluates twice the steps of weeks=2 but
    // must allocate the same, modulo a tiny constant.
    let w3 = sim_alloc_delta(3);
    assert!(
        w3 <= w2 + 64,
        "allocations scale with sim steps: weeks=2 -> {w2}, weeks=3 -> {w3}"
    );
}
