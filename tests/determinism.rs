//! Reproducibility harness for the sharded large-scale simulator.
//!
//! Two guarantees are pinned here, end to end across the public crate APIs:
//!
//! 1. **Same seed, same bytes** — running an experiment twice with one seed
//!    produces byte-identical telemetry traces and metrics.
//! 2. **Thread-count invariance** — `--threads N` produces the same bytes
//!    as `--threads 1`, for the trace, the metrics snapshot, and the
//!    simulation outcomes. The multi-thread count under test defaults to 4
//!    and can be overridden with the `SOC_SIM_THREADS` environment variable
//!    (CI runs the suite at 1 and 4).
//!
//! These tests are intentionally cheap (tiny configs) so they run in the
//! tier-1 suite on every push; they are the committed form of the
//! "deterministic sharded execution" acceptance check.

use smartoclock::policy::PolicyKind;
use soc_cluster::harness::{ClusterConfig, SystemKind};
use soc_cluster::largescale::LargeScaleConfig;
use soc_cluster::largescale_metrics::RackOutcome;
use soc_cluster::shard::{
    generate_fleet_probed, run_cluster_sims_probed, simulate_policy_on_traces_probed,
    simulate_policy_prepared_probed, simulate_policy_sharded_probed, train_fleet_probed,
};
use soc_cluster::NoopProbe;
use soc_telemetry::json::event_to_json;
use soc_telemetry::Telemetry;

/// The "many threads" side of the invariance checks. CI sets
/// `SOC_SIM_THREADS` to exercise both sides; locally it defaults to 4.
fn multi_threads() -> usize {
    std::env::var("SOC_SIM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(4)
}

fn small_config(seed: u64) -> LargeScaleConfig {
    let mut cfg = LargeScaleConfig::small_test();
    cfg.seed = seed;
    cfg
}

/// Run one traced policy simulation; return (trace lines, rendered metrics,
/// outcomes).
fn traced_run(
    cfg: &LargeScaleConfig,
    policy: PolicyKind,
    threads: usize,
) -> (Vec<String>, String, Vec<RackOutcome>) {
    let (tm, sink) = Telemetry::memory();
    let outcomes = simulate_policy_sharded_probed(cfg, policy, &tm, threads, &NoopProbe);
    let lines: Vec<String> = sink.events().iter().map(event_to_json).collect();
    let metrics = tm.metrics_snapshot().render();
    (lines, metrics, outcomes)
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let cfg = small_config(7);
    let a = traced_run(&cfg, PolicyKind::SmartOClock, 1);
    let b = traced_run(&cfg, PolicyKind::SmartOClock, 1);
    assert_eq!(a.0, b.0, "same-seed runs must emit identical trace lines");
    assert_eq!(a.1, b.1, "same-seed runs must produce identical metrics");
    assert_eq!(a.2, b.2, "same-seed runs must produce identical outcomes");
}

#[test]
fn different_seeds_actually_differ() {
    // Guards against the identity tests above passing vacuously (e.g. the
    // trace being empty or the seed being ignored).
    let a = traced_run(&small_config(7), PolicyKind::SmartOClock, 1);
    let b = traced_run(&small_config(8), PolicyKind::SmartOClock, 1);
    assert!(!a.0.is_empty(), "traced run must emit events");
    assert_ne!(a.2, b.2, "different seeds must change outcomes");
}

#[test]
fn thread_count_does_not_change_trace_metrics_or_outcomes() {
    let cfg = small_config(42);
    let n = multi_threads();
    for policy in [PolicyKind::SmartOClock, PolicyKind::NaiveOClock] {
        let serial = traced_run(&cfg, policy, 1);
        let sharded = traced_run(&cfg, policy, n);
        assert_eq!(
            serial.0, sharded.0,
            "{policy}: trace must be byte-identical at 1 vs {n} threads"
        );
        assert_eq!(
            serial.1, sharded.1,
            "{policy}: metrics must be identical at 1 vs {n} threads"
        );
        assert_eq!(
            serial.2, sharded.2,
            "{policy}: outcomes must be identical at 1 vs {n} threads"
        );
    }
}

#[test]
fn jsonl_trace_files_are_byte_identical_across_thread_counts() {
    // The end-to-end form of the guarantee: the actual JSONL file a bench
    // binary would write with `--trace-out` is byte-for-byte the same for
    // any `--threads` value.
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let write_trace = |threads: usize| -> Vec<u8> {
        let path = dir.join(format!("soc-determinism-{pid}-{threads}.jsonl"));
        let tm = Telemetry::jsonl(&path).expect("create trace file");
        simulate_policy_sharded_probed(
            &small_config(42),
            PolicyKind::SmartOClock,
            &tm,
            threads,
            &NoopProbe,
        );
        tm.flush().expect("flush trace file");
        drop(tm);
        let bytes = std::fs::read(&path).expect("read trace file");
        let _ = std::fs::remove_file(&path);
        bytes
    };
    let serial = write_trace(1);
    let sharded = write_trace(multi_threads());
    assert!(!serial.is_empty(), "trace file must not be empty");
    assert_eq!(
        serial, sharded,
        "JSONL trace bytes must not depend on --threads"
    );
}

#[test]
fn cluster_sims_are_thread_count_invariant() {
    let configs = || {
        vec![
            ClusterConfig::small_test(SystemKind::NaiveOClock),
            ClusterConfig::small_test(SystemKind::SmartOClock),
        ]
    };
    let run = |threads: usize| {
        let (tm, sink) = Telemetry::memory();
        let results = run_cluster_sims_probed(configs(), &tm, threads, &NoopProbe);
        let lines: Vec<String> = sink.events().iter().map(event_to_json).collect();
        (results, lines, tm.metrics_snapshot().render())
    };
    let serial = run(1);
    let sharded = run(multi_threads());
    assert_eq!(
        serial.0, sharded.0,
        "cluster results must not depend on threads"
    );
    assert_eq!(
        serial.1, sharded.1,
        "cluster traces must not depend on threads"
    );
    assert_eq!(
        serial.2, sharded.2,
        "cluster metrics must not depend on threads"
    );
}

/// Run `simulate` against a JSONL trace file; return (the file's bytes,
/// rendered metrics, outcomes).
fn jsonl_run(
    name: &str,
    simulate: impl FnOnce(&Telemetry) -> Vec<RackOutcome>,
) -> (Vec<u8>, String, Vec<RackOutcome>) {
    let path = std::env::temp_dir().join(format!(
        "soc-determinism-{}-{name}.jsonl",
        std::process::id()
    ));
    let tm = Telemetry::jsonl(&path).expect("create trace file");
    let outcomes = simulate(&tm);
    tm.flush().expect("flush trace file");
    let metrics = tm.metrics_snapshot().render();
    drop(tm);
    let bytes = std::fs::read(&path).expect("read trace file");
    let _ = std::fs::remove_file(&path);
    (bytes, metrics, outcomes)
}

#[test]
fn pre_generated_fleet_paths_are_byte_identical_across_thread_counts() {
    // Racks of 2 to 14 servers cost very different amounts, so the order in
    // which workers claim them changes with the thread count.
    let mut cfg = small_config(42);
    cfg.racks = 7;
    cfg.servers_per_rack = (2, 14);
    let run = |threads: usize| {
        let fleet = generate_fleet_probed(&cfg, threads, &NoopProbe);
        let sizes: Vec<usize> = fleet.iter().map(|(rack, _)| rack.servers.len()).collect();
        assert!(
            sizes.iter().min() < sizes.iter().max(),
            "racks must differ in size: {sizes:?}"
        );
        let trained = train_fleet_probed(&cfg, &fleet, threads, &NoopProbe);
        let policy = PolicyKind::SmartOClock;
        let prepared = jsonl_run(&format!("prepared-{threads}"), |tm| {
            simulate_policy_prepared_probed(&cfg, policy, &fleet, &trained, tm, threads, &NoopProbe)
        });
        let on_traces = jsonl_run(&format!("on-traces-{threads}"), |tm| {
            simulate_policy_on_traces_probed(&cfg, policy, &fleet, tm, threads, &NoopProbe)
        });
        [prepared, on_traces]
    };
    let serial = run(1);
    for (path, (trace, _, outcomes)) in ["prepared", "on_traces"].iter().zip(&serial) {
        assert!(!trace.is_empty(), "{path}: trace file must not be empty");
        assert_eq!(outcomes.len(), cfg.racks, "{path}: one outcome per rack");
    }
    for threads in [2, 3, 5] {
        let sharded = run(threads);
        for (path, (a, b)) in ["prepared", "on_traces"]
            .iter()
            .zip(serial.iter().zip(&sharded))
        {
            assert!(
                a.0 == b.0,
                "{path}: JSONL trace diverged at {threads} threads"
            );
            assert_eq!(a.1, b.1, "{path}: metrics diverged at {threads} threads");
            assert_eq!(a.2, b.2, "{path}: outcomes diverged at {threads} threads");
        }
    }
}
