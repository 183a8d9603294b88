//! Engine-equivalence harness: the columnar production engine must be a
//! pure performance change.
//!
//! `crates/cluster/src/columns.rs` rewrote the large-scale per-rack hot
//! path from the row-oriented loop (retained verbatim as
//! `simulate_rack_reference` / `simulate_policy_prepared_reference`) to a
//! struct-of-arrays layout with batched template lookups and reused
//! buffers. This suite pins that the rewrite changed **nothing
//! observable**: byte-identical telemetry traces, rendered metrics, and
//! rack outcomes across seeds × thread counts × fault plans × policies.
//!
//! The cluster harness has the same kind of pin: `run_cluster_sims_probed`
//! runs its configurations in tick lockstep over shared arrival streams,
//! and must report exactly what each configuration reports run alone.
//!
//! The `#[ignore]`d `smoke_100k_racks_*` test is the ROADMAP direction-1
//! scale check (100k racks through the streaming sharded path); CI's
//! perf-gate job runs it with `--include-ignored`.

use simcore::faults::FaultPlanConfig;
use simcore::time::SimDuration;
use smartoclock::policy::PolicyKind;
use soc_cluster::harness::{ClusterConfig, ClusterSim, SystemKind};
use soc_cluster::largescale::LargeScaleConfig;
use soc_cluster::largescale_metrics::RackOutcome;
use soc_cluster::probe::SpanToken;
use soc_cluster::shard::{
    generate_fleet_probed, run_cluster_sims_probed, shard_id_base,
    simulate_policy_on_traces_probed, simulate_policy_prepared_probed,
    simulate_policy_prepared_reference, simulate_policy_sharded_probed, train_fleet_probed,
};
use soc_cluster::{NoopProbe, ShardProbe};
use soc_reliability::binning::BinningConfig;
use soc_telemetry::json::event_to_json;
use soc_telemetry::{Event, Telemetry};
use std::sync::Mutex;

fn config(seed: u64, faults: FaultPlanConfig) -> LargeScaleConfig {
    let mut cfg = LargeScaleConfig::small_test();
    cfg.seed = seed;
    cfg.faults = faults;
    cfg
}

/// A heterogeneous silicon fleet: many bins, a tight-ish risk budget, and a
/// wide wear spread so denials, down-bins, and per-part wear all occur.
fn binned(mut cfg: LargeScaleConfig, seed: u64) -> LargeScaleConfig {
    cfg.binning = BinningConfig {
        bins: 8,
        risk_budget: 0.3,
        wear_spread: 0.4,
        seed,
    };
    cfg
}

/// A fault plan exercising every fault dimension at once.
fn chaos_faults(seed: u64) -> FaultPlanConfig {
    FaultPlanConfig {
        seed,
        goa_outages: 2,
        goa_outage_len: SimDuration::from_hours(2),
        budget_drop_prob: 0.05,
        budget_delay_prob: 0.05,
        budget_delay: SimDuration::from_minutes(30),
        telemetry_gap_prob: 0.03,
        prediction_bias: 1.05,
        prediction_noise: 0.02,
        soa_restart_prob: 0.01,
    }
}

/// Everything a consumer can observe from one run: telemetry trace lines,
/// the rendered metrics snapshot, and the rack outcomes.
type Observed = (Vec<String>, String, Vec<RackOutcome>);

/// Run the retained row-oriented reference engine (always serial) over
/// pre-generated traces and pre-trained templates.
fn reference_run(cfg: &LargeScaleConfig, policy: PolicyKind) -> Observed {
    let fleet = generate_fleet_probed(cfg, 1, &NoopProbe);
    let trained = train_fleet_probed(cfg, &fleet, 1, &NoopProbe);
    let (tm, sink) = Telemetry::memory();
    let outcomes = simulate_policy_prepared_reference(cfg, policy, &fleet, &trained, &tm);
    let lines = sink.events().iter().map(event_to_json).collect();
    (lines, tm.metrics_snapshot().render(), outcomes)
}

/// Run the columnar production engine at `threads` over pre-generated
/// traces and pre-trained templates.
fn columnar_run(cfg: &LargeScaleConfig, policy: PolicyKind, threads: usize) -> Observed {
    let fleet = generate_fleet_probed(cfg, threads, &NoopProbe);
    let trained = train_fleet_probed(cfg, &fleet, threads, &NoopProbe);
    let (tm, sink) = Telemetry::memory();
    let outcomes =
        simulate_policy_prepared_probed(cfg, policy, &fleet, &trained, &tm, threads, &NoopProbe);
    let lines = sink.events().iter().map(event_to_json).collect();
    (lines, tm.metrics_snapshot().render(), outcomes)
}

fn assert_equivalent(cfg: &LargeScaleConfig, policy: PolicyKind, label: &str) {
    let reference = reference_run(cfg, policy);
    for threads in [1, 2, 4] {
        let columnar = columnar_run(cfg, policy, threads);
        assert_eq!(
            reference.0, columnar.0,
            "telemetry trace diverged ({label}, {policy}, {threads} threads)"
        );
        assert_eq!(
            reference.1, columnar.1,
            "metrics snapshot diverged ({label}, {policy}, {threads} threads)"
        );
        assert_eq!(
            reference.2, columnar.2,
            "outcomes diverged ({label}, {policy}, {threads} threads)"
        );
    }
}

#[test]
fn columnar_engine_matches_reference_across_seeds_and_threads() {
    for seed in [7, 42, 1234] {
        let cfg = config(seed, FaultPlanConfig::none());
        assert_equivalent(&cfg, PolicyKind::SmartOClock, &format!("seed {seed}"));
    }
}

#[test]
fn columnar_engine_matches_reference_for_every_policy() {
    let cfg = config(42, FaultPlanConfig::none());
    for policy in PolicyKind::ALL {
        assert_equivalent(&cfg, policy, "all-policies");
    }
}

#[test]
fn columnar_engine_matches_reference_with_heterogeneous_silicon() {
    // Per-part silicon heterogeneity across seeds: the columnar engine's
    // per-bin factor tables must reproduce the reference engine's per-server
    // frequency resolution bit for bit.
    for seed in [7, 42] {
        let cfg = binned(config(seed, FaultPlanConfig::none()), seed);
        assert_equivalent(&cfg, PolicyKind::SmartOClock, &format!("binned {seed}"));
    }
    // Every policy over one binned fleet.
    let cfg = binned(config(42, FaultPlanConfig::none()), 42);
    for policy in PolicyKind::ALL {
        assert_equivalent(&cfg, policy, "binned all-policies");
    }
    // Binning and the full chaos fault plan composed.
    let cfg = binned(config(42, chaos_faults(3)), 13);
    assert_equivalent(&cfg, PolicyKind::SmartOClock, "binned chaos");
    assert_equivalent(&cfg, PolicyKind::Central, "binned chaos");
}

/// Run the same `(config, policy)` through the three large-scale input
/// shapes at `threads`: streamed (each worker generates and trains its
/// racks), on pre-generated traces (trained in the worker), and prepared
/// (pre-generated traces, pre-trained templates).
fn input_shape_runs(cfg: &LargeScaleConfig, policy: PolicyKind, threads: usize) -> [Observed; 3] {
    let observe = |run: &dyn Fn(&Telemetry) -> Vec<RackOutcome>| -> Observed {
        let (tm, sink) = Telemetry::memory();
        let outcomes = run(&tm);
        let lines = sink.events().iter().map(event_to_json).collect();
        (lines, tm.metrics_snapshot().render(), outcomes)
    };
    let fleet = generate_fleet_probed(cfg, threads, &NoopProbe);
    let trained = train_fleet_probed(cfg, &fleet, threads, &NoopProbe);
    [
        observe(&|tm| simulate_policy_sharded_probed(cfg, policy, tm, threads, &NoopProbe)),
        observe(&|tm| {
            simulate_policy_on_traces_probed(cfg, policy, &fleet, tm, threads, &NoopProbe)
        }),
        observe(&|tm| {
            simulate_policy_prepared_probed(cfg, policy, &fleet, &trained, tm, threads, &NoopProbe)
        }),
    ]
}

#[test]
fn large_scale_input_shapes_agree() {
    // The entry points differ only in which preparation steps the caller
    // has already done, so for the same `(config, policy)` they must emit
    // the same outcomes, trace and metrics, byte for byte.
    for (label, cfg) in [
        ("uniform", config(42, FaultPlanConfig::none())),
        ("binned chaos", binned(config(42, chaos_faults(3)), 42)),
    ] {
        for threads in [1, 2] {
            let [streamed, on_traces, prepared] =
                input_shape_runs(&cfg, PolicyKind::SmartOClock, threads);
            assert!(!streamed.0.is_empty(), "{label}: empty trace");
            assert_eq!(
                streamed, on_traces,
                "streamed vs on-traces diverged ({label}, {threads} threads)"
            );
            assert_eq!(
                streamed, prepared,
                "streamed vs prepared diverged ({label}, {threads} threads)"
            );
        }
    }
}

#[test]
fn columnar_engine_matches_reference_under_fault_plans() {
    // Chaos plan across two seeds, plus the two paper-relevant policies
    // (decentralized SmartOClock and the centralized baseline) and both
    // central failure modes during outages.
    for fault_seed in [3, 99] {
        let cfg = config(42, chaos_faults(fault_seed));
        assert_equivalent(
            &cfg,
            PolicyKind::SmartOClock,
            &format!("chaos {fault_seed}"),
        );
        assert_equivalent(&cfg, PolicyKind::Central, &format!("chaos {fault_seed}"));
    }
    let mut open = config(42, chaos_faults(5));
    open.central_fail_open = true;
    assert_equivalent(&open, PolicyKind::Central, "chaos fail-open");
}

#[test]
fn reference_runs_are_deterministic() {
    // The reference engine itself must be reproducible, or the comparisons
    // above prove nothing.
    let cfg = config(42, chaos_faults(11));
    assert_eq!(
        reference_run(&cfg, PolicyKind::SmartOClock),
        reference_run(&cfg, PolicyKind::SmartOClock),
    );
}

/// A probe that keeps the events the merge feeds it, in order.
#[derive(Default)]
struct EventLog(Mutex<Vec<String>>);

impl ShardProbe for EventLog {
    fn span(&self, _name: &'static str) -> Option<Box<dyn SpanToken>> {
        None
    }

    fn add(&self, _counter: &'static str, _n: u64) {}

    fn event(&self, event: &Event) {
        self.0.lock().expect("event log").push(event_to_json(event));
    }
}

/// Everything a consumer can observe from cluster runs: the results'
/// `Debug` bytes, telemetry trace lines, the rendered metrics snapshot, and
/// the events an observing probe saw, in order.
type ClusterObserved = (String, Vec<String>, String, Vec<String>);

/// One `run_cluster_sims_probed` call over all of `configs`.
fn cluster_group(configs: &[ClusterConfig], threads: usize) -> ClusterObserved {
    let (tm, sink) = Telemetry::memory();
    let probe = EventLog::default();
    let results = run_cluster_sims_probed(configs.to_vec(), &tm, threads, &probe);
    let lines = sink.events().iter().map(event_to_json).collect();
    let seen = probe.0.into_inner().expect("event log");
    (
        format!("{results:?}"),
        lines,
        tm.metrics_snapshot().render(),
        seen,
    )
}

/// Each configuration run alone through `ClusterSim::run`, into a buffer
/// with the id base the group call gives it, merged by hand in order.
fn cluster_alone(configs: &[ClusterConfig]) -> ClusterObserved {
    let (tm, sink) = Telemetry::memory();
    let run_id = tm.next_id();
    let mut results = Vec::new();
    let mut seen = Vec::new();
    for (r, cfg) in configs.iter().enumerate() {
        let (local, buffer) = Telemetry::buffered(shard_id_base(run_id, r));
        results.push(ClusterSim::with_telemetry(cfg.clone(), local.clone()).run());
        let events = buffer.events();
        seen.extend(events.iter().map(event_to_json));
        tm.absorb(&events, &local.metrics_snapshot());
    }
    let lines = sink.events().iter().map(event_to_json).collect();
    (
        format!("{results:?}"),
        lines,
        tm.metrics_snapshot().render(),
        seen,
    )
}

fn assert_cluster_group_matches_alone(configs: &[ClusterConfig], label: &str) {
    let alone = cluster_alone(configs);
    assert!(!alone.1.is_empty(), "{label}: empty trace");
    for threads in [1, 2, 3] {
        let group = cluster_group(configs, threads);
        assert_eq!(
            alone.0, group.0,
            "results diverged ({label}, {threads} threads)"
        );
        assert_eq!(
            alone.1, group.1,
            "telemetry trace diverged ({label}, {threads} threads)"
        );
        assert_eq!(
            alone.2, group.2,
            "metrics snapshot diverged ({label}, {threads} threads)"
        );
        assert_eq!(
            alone.3, group.3,
            "probe event order diverged ({label}, {threads} threads)"
        );
    }
}

#[test]
fn cluster_lockstep_matches_each_config_alone() {
    // The benchmark's shape: every system, plus SmartOClock under a
    // constrained rack, all on one seed, so every instance stream is shared
    // six ways.
    let mut systems: Vec<ClusterConfig> = SystemKind::ALL
        .into_iter()
        .map(ClusterConfig::small_test)
        .collect();
    let mut constrained = ClusterConfig::small_test(SystemKind::SmartOClock);
    constrained.rack_limit_scale = 0.82;
    systems.push(constrained);
    assert_cluster_group_matches_alone(&systems, "six systems");

    // Mixed: two configs share seed 42 but one stops a minute early (its
    // schedule is the same, so the streams are shared by readers that
    // finish at different ticks); the third has streams of its own.
    let smart = ClusterConfig::small_test(SystemKind::SmartOClock);
    let mut short = ClusterConfig::small_test(SystemKind::ScaleOut);
    short.duration = SimDuration::from_minutes(3);
    let mut other = ClusterConfig::small_test(SystemKind::NaiveOClock);
    other.seed = 7;
    assert_cluster_group_matches_alone(&[smart, short, other], "mixed");
}

#[test]
fn cluster_lockstep_matches_each_config_alone_under_faults() {
    // The fault plans of `tests/chaos.rs`'s cluster check, plus binned
    // silicon, on shared streams.
    let mut smart = ClusterConfig::small_test(SystemKind::SmartOClock);
    smart.faults.seed = 11;
    smart.faults.goa_outages = 1;
    smart.faults.goa_outage_len = SimDuration::from_minutes(2);
    smart.faults.budget_drop_prob = 0.25;
    smart.faults.soa_restart_prob = 0.05;
    let mut naive = ClusterConfig::small_test(SystemKind::NaiveOClock);
    naive.faults.soa_restart_prob = 0.05;
    let mut binned_smart = smart.clone();
    binned_smart.binning = BinningConfig {
        bins: 8,
        risk_budget: 0.25,
        wear_spread: 0.3,
        seed: 5,
    };
    assert_cluster_group_matches_alone(&[smart, naive, binned_smart], "faults");
}

/// ROADMAP direction-1 scale smoke: 100k racks, a simulated week of
/// evaluation, streamed through the sharded path (traces generated inside
/// each worker, so memory stays bounded by shard, not fleet). Byte-equal
/// outcomes at 1 and 4 threads. Too slow for tier-1 — CI's perf-gate job
/// runs it via `--include-ignored`.
#[test]
#[ignore = "multi-minute scale smoke; run in CI perf-gate with --include-ignored"]
fn smoke_100k_racks_streams_and_stays_deterministic() {
    let mut cfg = LargeScaleConfig::small_test();
    cfg.racks = 100_000;
    cfg.servers_per_rack = (1, 2);
    cfg.weeks = 2;
    // 6h divides a day evenly (template slots stay aligned) and keeps the
    // run to ~8 evaluated steps per rack.
    cfg.step = SimDuration::from_hours(6);
    // Heterogeneous silicon at scale: the per-bin tables must stay
    // deterministic across sharding too.
    let cfg = binned(cfg, 42);
    let telemetry = Telemetry::disabled();
    let one =
        simulate_policy_sharded_probed(&cfg, PolicyKind::SmartOClock, &telemetry, 1, &NoopProbe);
    assert_eq!(one.len(), 100_000);
    let four =
        simulate_policy_sharded_probed(&cfg, PolicyKind::SmartOClock, &telemetry, 4, &NoopProbe);
    assert_eq!(one, four, "100k-rack outcomes diverged at 4 threads");
    let granted: u64 = one.iter().map(|o| o.granted).sum();
    assert!(granted > 0, "no overclocking granted across 100k racks");
    // A 0.3 risk budget can deny no part here: a part's risk is below
    // 1 - 1/8, admission always reaches the lowest overclocked level, whose
    // fraction is step/span (100/700 AMD, 100/600 Intel), so risk x fraction
    // < 0.146 (pinned by `soc_reliability::binning`'s bound test). It must
    // still down-bin parts whose risk rules out the higher levels.
    let denied: u64 = one.iter().map(|o| o.bin_denied).sum();
    assert_eq!(denied, 0, "a 0.3 risk budget cannot deny an 8-bin part");
    let down: u64 = one.iter().map(|o| o.down_binned).sum();
    assert!(
        down > 0,
        "a 0.3 risk budget must down-bin some of 100k racks"
    );
}
