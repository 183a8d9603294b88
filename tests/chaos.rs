//! Chaos regression suite: graceful degradation under deterministic fault
//! injection.
//!
//! Three guarantees are pinned here across the public crate APIs:
//!
//! 1. **Safety under faults** — with local (decentralized) enforcement, the
//!    post-enforcement rack draw never exceeds the contracted limit under
//!    *any* generated fault plan: gOA outages, dropped/delayed budget
//!    updates, telemetry gaps, prediction bias/noise, and sOA restarts.
//! 2. **Deterministic chaos** — fault schedules are part of the seed: the
//!    same `FaultPlanConfig` reproduces byte-identical traces, metrics and
//!    outcomes, and `--threads N` matches `--threads 1` with faults active
//!    (CI runs this at `SOC_SIM_THREADS=1` and `=4`).
//! 3. **Zero-fault transparency** — a plan whose probabilities are all zero
//!    leaves every trace byte-identical to a run with the default (no-op)
//!    fault config, regardless of the fault seed.
//!
//! A fail-open centralized baseline under a long outage is the teeth of the
//! suite: it must violate the budget, proving the invariant in (1) is not
//! vacuous.
//!
//! The traced `chaos_binned` benchmark shape is also pinned by two digests,
//! one over its event JSON and rendered metrics and one over its per-rack
//! `rack_series` events, so a rework of the telemetry hot path must leave
//! every emitted byte as it was.
//!
//! A faulted cluster-harness run (budget drops, sOA restarts and a gOA
//! outage) is pinned the same way, over its trace lines, metrics and
//! results, so the harness's fault queries cannot drift either.
//!
//! The on-traces path trains templates only for policies that read them;
//! under the same hostile shape every policy's run there must equal its
//! run over a fleet trained for all five.

use simcore::faults::FaultPlanConfig;
use simcore::time::{SimDuration, SimTime};
use smartoclock::messages::OverclockRequest;
use smartoclock::policy::PolicyKind;
use smartoclock::soa::ServerOverclockAgent;
use soc_cluster::harness::{ClusterConfig, ClusterResult, SystemKind};
use soc_cluster::largescale::LargeScaleConfig;
use soc_cluster::largescale_metrics::RackOutcome;
use soc_cluster::shard::{
    generate_fleet_probed, run_cluster_sims_probed, simulate_policy_on_traces_probed,
    simulate_policy_prepared_probed, simulate_policy_sharded_probed, train_fleet_probed,
};
use soc_cluster::NoopProbe;
use soc_power::model::PowerModel;
use soc_power::rack::RackSignal;
use soc_power::units::Watts;
use soc_reliability::binning::BinningConfig;
use soc_telemetry::json::event_to_json;
use soc_telemetry::Telemetry;

/// The "many threads" side of the invariance checks (see
/// `tests/determinism.rs`); CI sets `SOC_SIM_THREADS` to 1 and 4.
fn multi_threads() -> usize {
    std::env::var("SOC_SIM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(4)
}

/// An aggressive every-fault-at-once plan, parameterized by seed.
fn hostile_faults(seed: u64) -> FaultPlanConfig {
    FaultPlanConfig {
        seed,
        goa_outages: 2,
        goa_outage_len: SimDuration::from_hours(12),
        budget_drop_prob: 0.3,
        budget_delay_prob: 0.3,
        budget_delay: SimDuration::from_minutes(30),
        telemetry_gap_prob: 0.2,
        prediction_bias: 0.9, // systematic under-prediction: worst case
        prediction_noise: 0.1,
        soa_restart_prob: 0.01,
    }
}

fn faulted_config(sim_seed: u64, fault_seed: u64) -> LargeScaleConfig {
    let mut cfg = LargeScaleConfig::small_test();
    cfg.seed = sim_seed;
    cfg.faults = hostile_faults(fault_seed);
    cfg
}

/// Run one traced policy simulation; return (trace lines, rendered metrics,
/// outcomes).
fn traced_run(
    cfg: &LargeScaleConfig,
    policy: PolicyKind,
    threads: usize,
) -> (
    Vec<String>,
    String,
    Vec<soc_cluster::largescale_metrics::RackOutcome>,
) {
    let (tm, sink) = Telemetry::memory();
    let outcomes = simulate_policy_sharded_probed(cfg, policy, &tm, threads, &NoopProbe);
    let lines: Vec<String> = sink.events().iter().map(event_to_json).collect();
    let metrics = tm.metrics_snapshot().render();
    (lines, metrics, outcomes)
}

#[test]
fn rack_power_never_exceeds_budget_under_any_fault_plan() {
    for fault_seed in [1, 2, 3] {
        let cfg = faulted_config(42, fault_seed);
        let outcomes = simulate_policy_sharded_probed(
            &cfg,
            PolicyKind::SmartOClock,
            &Telemetry::disabled(),
            1,
            &NoopProbe,
        );
        let stale: u64 = outcomes.iter().map(|o| o.stale_budget_steps).sum();
        assert!(
            stale > 0,
            "fault seed {fault_seed}: outages must actually land in the horizon"
        );
        for o in &outcomes {
            assert_eq!(
                o.violation_steps, 0,
                "fault seed {fault_seed}, rack {}: local enforcement must hold the budget",
                o.rack
            );
            assert!(
                o.max_draw <= o.limit,
                "fault seed {fault_seed}, rack {}: max draw {:?} exceeds limit {:?}",
                o.rack,
                o.max_draw,
                o.limit
            );
        }
    }
}

#[test]
fn fail_open_central_violates_under_long_outage_proving_teeth() {
    // The safety invariant above must not pass vacuously: the same fault
    // plans against a fail-open centralized controller (grants keep running
    // unenforced while the arbiter is down) do violate the budget. Whether
    // a given outage window overlaps enough overclock demand depends on
    // where it lands, so the check sums over the same fault seeds the
    // safety test sweeps.
    let mut violations = 0u64;
    for fault_seed in [1, 2, 3] {
        let mut cfg = faulted_config(42, fault_seed);
        cfg.central_fail_open = true;
        let outcomes = simulate_policy_sharded_probed(
            &cfg,
            PolicyKind::Central,
            &Telemetry::disabled(),
            1,
            &NoopProbe,
        );
        violations += outcomes.iter().map(|o| o.violation_steps).sum::<u64>();
    }
    assert!(
        violations > 0,
        "fail-open central under 12h outages must violate the budget \
         (otherwise the zero-violation invariant proves nothing)"
    );
}

#[test]
fn fault_schedules_are_byte_reproducible() {
    let cfg = faulted_config(7, 11);
    let a = traced_run(&cfg, PolicyKind::SmartOClock, 1);
    let b = traced_run(&cfg, PolicyKind::SmartOClock, 1);
    assert!(!a.0.is_empty(), "faulted runs must emit trace events");
    assert_eq!(a.0, b.0, "same fault seed must emit identical trace lines");
    assert_eq!(a.1, b.1, "same fault seed must render identical metrics");
    assert_eq!(a.2, b.2, "same fault seed must produce identical outcomes");
    // And the schedule is genuinely seed-dependent.
    let c = traced_run(&faulted_config(7, 12), PolicyKind::SmartOClock, 1);
    assert_ne!(a.2, c.2, "different fault seeds must change outcomes");
}

#[test]
fn faulted_runs_are_thread_count_invariant() {
    let cfg = faulted_config(42, 5);
    let n = multi_threads();
    let serial = traced_run(&cfg, PolicyKind::SmartOClock, 1);
    let sharded = traced_run(&cfg, PolicyKind::SmartOClock, n);
    assert_eq!(
        serial.0, sharded.0,
        "faulted trace must be byte-identical at 1 vs {n} threads"
    );
    assert_eq!(
        serial.1, sharded.1,
        "faulted metrics must be identical at 1 vs {n} threads"
    );
    assert_eq!(
        serial.2, sharded.2,
        "faulted outcomes must be identical at 1 vs {n} threads"
    );
}

#[test]
fn zero_fault_plan_is_byte_identical_to_unfaulted_run() {
    let mut clean = LargeScaleConfig::small_test();
    clean.seed = 42;
    let mut noop = clean.clone();
    // All probabilities zero and no outages: the fault seed must be inert.
    noop.faults = FaultPlanConfig {
        seed: 0xDEAD_BEEF,
        ..FaultPlanConfig::none()
    };
    let a = traced_run(&clean, PolicyKind::SmartOClock, 1);
    let b = traced_run(&noop, PolicyKind::SmartOClock, 1);
    assert_eq!(a.0, b.0, "no-op fault plan must not change a single byte");
    assert_eq!(a.1, b.1, "no-op fault plan must not change metrics");
    assert_eq!(a.2, b.2, "no-op fault plan must not change outcomes");
}

#[test]
fn binned_silicon_identity_survives_soa_restarts() {
    // Silicon is a physical property of the chip, not control-plane state:
    // a restarted sOA loses its grants but re-derives the same part
    // identity from the stateless `(seed, part_id)` draw. Under a hostile
    // plan with injected restarts, the per-rack bin census (denied /
    // down-binned parts) must match the same binned fleet with no faults
    // at all, the safety invariant must still hold, and the composition of
    // binning + restarts must stay thread-count invariant.
    let mut cfg = faulted_config(42, 3);
    cfg.binning = BinningConfig {
        bins: 8,
        risk_budget: 0.3,
        wear_spread: 0.4,
        seed: 9,
    };
    let faulted = traced_run(&cfg, PolicyKind::SmartOClock, 1);
    let restarts: u64 = faulted.2.iter().map(|o| o.restarts).sum();
    assert!(
        restarts > 0,
        "the hostile plan must actually inject restarts"
    );
    assert!(
        faulted.2.iter().map(|o| o.wear_days).sum::<f64>() > 0.0,
        "binned grants must accrue per-part wear even under restarts"
    );
    for o in &faulted.2 {
        assert_eq!(
            o.violation_steps, 0,
            "rack {}: enforcement must hold the budget for binned fleets too",
            o.rack
        );
    }
    let mut calm = cfg.clone();
    calm.faults = FaultPlanConfig::none();
    let clean = traced_run(&calm, PolicyKind::SmartOClock, 1);
    let census = |outcomes: &[RackOutcome]| -> Vec<(usize, u64, u64)> {
        outcomes
            .iter()
            .map(|o| (o.rack, o.bin_denied, o.down_binned))
            .collect()
    };
    assert_eq!(
        census(&faulted.2),
        census(&clean.2),
        "restarts must not change which parts are denied or down-binned"
    );
    let sharded = traced_run(&cfg, PolicyKind::SmartOClock, multi_threads());
    assert_eq!(
        faulted.0, sharded.0,
        "binned chaos trace must not depend on threads"
    );
    assert_eq!(
        faulted.1, sharded.1,
        "binned chaos metrics must not depend on threads"
    );
    assert_eq!(
        faulted.2, sharded.2,
        "binned chaos outcomes must not depend on threads"
    );
}

/// Two faulted cluster-harness configs: SmartOClock under budget drops, sOA
/// restarts and a gOA outage, and NaiveOClock under sOA restarts.
fn harness_chaos_configs() -> Vec<ClusterConfig> {
    let mut smart = ClusterConfig::small_test(SystemKind::SmartOClock);
    smart.faults.seed = 11;
    smart.faults.goa_outages = 1;
    smart.faults.goa_outage_len = SimDuration::from_minutes(2);
    smart.faults.budget_drop_prob = 0.25;
    smart.faults.soa_restart_prob = 0.05;
    let mut naive = ClusterConfig::small_test(SystemKind::NaiveOClock);
    naive.faults.soa_restart_prob = 0.05;
    vec![smart, naive]
}

/// One traced run of [`harness_chaos_configs`]: the results, each event's
/// JSON line and the rendered metrics.
fn harness_chaos_run(threads: usize) -> (Vec<ClusterResult>, Vec<String>, String) {
    let (tm, sink) = Telemetry::memory();
    let results = run_cluster_sims_probed(harness_chaos_configs(), &tm, threads, &NoopProbe);
    let lines: Vec<String> = sink.events().iter().map(event_to_json).collect();
    (results, lines, tm.metrics_snapshot().render())
}

#[test]
fn cluster_harness_chaos_is_thread_count_invariant() {
    let serial = harness_chaos_run(1);
    let sharded = harness_chaos_run(multi_threads());
    assert_eq!(
        serial.0, sharded.0,
        "faulted cluster results must not depend on threads"
    );
    assert_eq!(
        serial.1, sharded.1,
        "faulted cluster traces must not depend on threads"
    );
    assert_eq!(
        serial.2, sharded.2,
        "faulted cluster metrics must not depend on threads"
    );
}

#[test]
fn agents_keep_admitting_on_stale_budgets_when_goa_is_silent() {
    // Fault tolerance (§III-Q5): after one gOA assignment the gOA goes
    // silent for good. Each agent crosses its staleness limit, enters
    // degraded mode, and keeps deciding locally against the last budget.
    let model = PowerModel::reference_server();
    let (tm, sink) = Telemetry::memory();
    let mut agents: Vec<ServerOverclockAgent> = (0..2)
        .map(|s| {
            let mut soa = ServerOverclockAgent::new(model, PolicyKind::SmartOClock);
            soa.set_telemetry(tm.clone(), s);
            soa.set_power_budget_at(SimTime::ZERO, Watts::new(450.0));
            soa
        })
        .collect();
    for k in 0..10u64 {
        let t = SimTime::ZERO + SimDuration::from_minutes(10 * k);
        let soa = &mut agents[k as usize % 2];
        let req = OverclockRequest::metrics_based("vm", 4, model.plan().max_overclock());
        let grant = soa
            .request_overclock(t, req)
            .expect("stale budgets keep working");
        for soa in agents.iter_mut() {
            let _ = soa.control_tick(t, Watts::new(250.0), Some(RackSignal::Normal), 0);
        }
        assert!(agents[k as usize % 2].end_overclock(t + SimDuration::from_minutes(5), grant));
    }
    assert_eq!(
        sink.named("degraded_enter").len(),
        2,
        "both agents ran degraded"
    );
    assert!(
        sink.named("degraded_exit").is_empty(),
        "the gOA never came back"
    );
    for soa in &agents {
        assert_eq!(soa.assigned_budget(), Watts::new(450.0));
        assert_eq!(soa.stats().granted, 5);
    }
}

/// FNV-1a-64 over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn chaos_binned_telemetry_bytes_are_pinned() {
    // The benchmark's `chaos_binned` shape at small size: hostile faults,
    // 8-bin silicon and a fail-open central baseline, traced through the
    // sharded on-traces path into a memory sink per policy run. The first
    // digest covers every other event's JSON bytes and the rendered metrics
    // registry, so any change to what the traced path emits (not only to
    // its outcomes) shows up here; the second covers the `rack_series`
    // events (one per rack run, carrying its per-step draws) alone.
    let cfg = chaos_binned_config();
    let policies = [PolicyKind::SmartOClock, PolicyKind::Central];
    let digest = |threads: usize| {
        let fleet = generate_fleet_probed(&cfg, threads, &NoopProbe);
        let mut h = 0xcbf2_9ce4_8422_2325;
        let mut series = 0xcbf2_9ce4_8422_2325;
        let (mut events, mut series_events) = (0, 0);
        for policy in policies {
            let (tm, sink) = Telemetry::memory();
            simulate_policy_on_traces_probed(&cfg, policy, &fleet, &tm, threads, &NoopProbe);
            for event in sink.events() {
                let line = event_to_json(&event);
                if event.name == "rack_series" {
                    series = fnv1a(fnv1a(series, line.as_bytes()), b"\n");
                    series_events += 1;
                } else {
                    h = fnv1a(fnv1a(h, line.as_bytes()), b"\n");
                    events += 1;
                }
            }
            h = fnv1a(h, tm.metrics_snapshot().render().as_bytes());
        }
        (h, series, events, series_events)
    };
    let (serial, series, events, series_events) = digest(1);
    assert!(events > 0, "the traced chaos run must emit events");
    assert_eq!(
        series_events,
        cfg.racks * policies.len(),
        "one rack_series event per rack run"
    );
    assert_eq!(
        format!("{serial:016x}"),
        "6ffa8d33bd0ab58a",
        "chaos telemetry bytes changed"
    );
    assert_eq!(
        format!("{series:016x}"),
        "5d730c6be633527b",
        "chaos rack_series bytes changed"
    );
    assert_eq!(
        digest(multi_threads()),
        (serial, series, events, series_events),
        "digests depend on threads"
    );
}

/// The `chaos_binned` shape of [`chaos_binned_telemetry_bytes_are_pinned`]:
/// hostile faults, 8-bin silicon and a fail-open central baseline.
fn chaos_binned_config() -> LargeScaleConfig {
    let mut cfg = faulted_config(42, 43);
    cfg.binning = BinningConfig {
        bins: 8,
        risk_budget: 0.1,
        wear_spread: 0.3,
        seed: 44,
    };
    cfg.central_fail_open = true;
    cfg
}

#[test]
fn training_only_what_a_policy_reads_is_byte_transparent() {
    // `Central` and `NaiveOClock` read no predictions, so the on-traces
    // path trains no templates for them; every policy's outcomes, event
    // bytes and metrics must still equal its run over tables trained for
    // all five policies.
    let cfg = chaos_binned_config();
    let observe = |run: &dyn Fn(&Telemetry) -> Vec<RackOutcome>| {
        let (tm, sink) = Telemetry::memory();
        let outcomes = run(&tm);
        let lines: Vec<String> = sink.events().iter().map(event_to_json).collect();
        (outcomes, lines, tm.metrics_snapshot().render())
    };
    for threads in [1, multi_threads()] {
        let fleet = generate_fleet_probed(&cfg, threads, &NoopProbe);
        let trained = train_fleet_probed(&cfg, &fleet, threads, &NoopProbe);
        for policy in PolicyKind::ALL {
            let on_traces = observe(&|tm| {
                simulate_policy_on_traces_probed(&cfg, policy, &fleet, tm, threads, &NoopProbe)
            });
            let prepared = observe(&|tm| {
                simulate_policy_prepared_probed(
                    &cfg, policy, &fleet, &trained, tm, threads, &NoopProbe,
                )
            });
            assert!(
                !on_traces.1.is_empty(),
                "{policy} at {threads} threads: the traced run must emit events"
            );
            assert_eq!(
                on_traces.0, prepared.0,
                "{policy} at {threads} threads: outcomes"
            );
            assert_eq!(
                on_traces.1, prepared.1,
                "{policy} at {threads} threads: event bytes"
            );
            assert_eq!(
                on_traces.2, prepared.2,
                "{policy} at {threads} threads: metrics"
            );
        }
    }
}

#[test]
fn cluster_harness_chaos_bytes_are_pinned() {
    // The faulted configs of `cluster_harness_chaos_is_thread_count_invariant`
    // pinned byte for byte: every trace line, the rendered metrics and the
    // results' `Debug`, so a change to how the harness asks the fault plan
    // (drops, restarts, outages) shows up here.
    let (results, lines, metrics) = harness_chaos_run(1);
    assert!(!lines.is_empty(), "the faulted harness must emit events");
    let mut h = 0xcbf2_9ce4_8422_2325;
    for line in &lines {
        h = fnv1a(h, line.as_bytes());
        h = fnv1a(h, b"\n");
    }
    h = fnv1a(h, metrics.as_bytes());
    h = fnv1a(h, format!("{results:?}").as_bytes());
    assert_eq!(
        format!("{h:016x}"),
        "2550b9fd67d4f9a0",
        "faulted cluster harness bytes changed"
    );
}
