//! Cross-crate integration: the full cluster harness exercising the queueing
//! simulator, the power model, the rack monitor, and all three SmartOClock
//! agent layers together.

use simcore::time::SimDuration;
use soc_cluster::harness::{ClusterConfig, ClusterSim, SystemKind};
use soc_reliability::binning::BinningConfig;
use soc_telemetry::{FieldValue, Telemetry};
use soc_workloads::socialnet::LoadLevel;

fn run(system: SystemKind, seed: u64) -> soc_cluster::harness::ClusterResult {
    let mut cfg = ClusterConfig::small_test(system);
    cfg.seed = seed;
    ClusterSim::new(cfg).run()
}

#[test]
fn smartoclock_beats_baseline_tail_at_high_load() {
    let base = run(SystemKind::Baseline, 1);
    let smart = run(SystemKind::SmartOClock, 1);
    let b = base.p99_by_load(LoadLevel::High);
    let s = smart.p99_by_load(LoadLevel::High);
    assert!(
        s < b,
        "SmartOClock P99 {s:.1} must beat Baseline {b:.1} at high load"
    );
}

#[test]
fn smartoclock_cheaper_than_scaleout() {
    let scale = run(SystemKind::ScaleOut, 2);
    let smart = run(SystemKind::SmartOClock, 2);
    assert!(
        smart.avg_active_vms <= scale.avg_active_vms,
        "SmartOClock {} VMs must not exceed ScaleOut {} VMs",
        smart.avg_active_vms,
        scale.avg_active_vms
    );
}

#[test]
fn smartoclock_reduces_missed_slos_vs_baseline() {
    let base = run(SystemKind::Baseline, 3);
    let smart = run(SystemKind::SmartOClock, 3);
    let b: u64 = base.instances.iter().map(|i| i.missed).sum();
    let s: u64 = smart.instances.iter().map(|i| i.missed).sum();
    assert!(
        s <= b,
        "SmartOClock misses {s} must not exceed Baseline {b}"
    );
}

#[test]
fn overclocking_systems_issue_and_grant_requests() {
    for system in [SystemKind::NaiveOClock, SystemKind::SmartOClock] {
        let r = run(system, 4);
        let (granted, total) = r.oc_requests;
        assert!(total > 0, "{system} should issue overclock requests");
        assert!(granted > 0, "{system} should grant some requests");
        assert!(granted <= total);
    }
}

#[test]
fn energy_accounting_is_consistent() {
    let r = run(SystemKind::SmartOClock, 5);
    assert!(r.socialnet_energy_j > 0.0);
    assert!(r.socialnet_energy_j < r.total_energy_j);
    // Per-load-class energy entries exist for each class present.
    assert!(r.per_server_energy_by_load.iter().all(|&e| e >= 0.0));
}

#[test]
fn runs_are_deterministic() {
    let a = run(SystemKind::SmartOClock, 6);
    let b = run(SystemKind::SmartOClock, 6);
    assert_eq!(a, b, "identical seeds must give identical results");
}

#[test]
fn different_seeds_change_details_not_structure() {
    let a = run(SystemKind::SmartOClock, 7);
    let b = run(SystemKind::SmartOClock, 8);
    assert_eq!(a.instances.len(), b.instances.len());
    assert_ne!(
        a.instances.iter().map(|i| i.completed).sum::<u64>(),
        b.instances.iter().map(|i| i.completed).sum::<u64>()
    );
}

#[test]
fn constrained_rack_produces_capping_for_naive() {
    let mut cfg = ClusterConfig::small_test(SystemKind::NaiveOClock);
    cfg.rack_limit_scale = 0.82;
    cfg.seed = 9;
    let naive = ClusterSim::new(cfg).run();
    let mut cfg = ClusterConfig::small_test(SystemKind::SmartOClock);
    cfg.rack_limit_scale = 0.82;
    cfg.seed = 9;
    let smart = ClusterSim::new(cfg).run();
    assert!(
        smart.capping_events <= naive.capping_events,
        "SmartOClock capping {} must not exceed NaiveOClock {}",
        smart.capping_events,
        naive.capping_events
    );
    // MLTrain throughput suffers at least as much under naive overclocking.
    assert!(smart.mltrain_relative_throughput >= naive.mltrain_relative_throughput - 1e-9);
}

#[test]
fn power_capped_run_emits_revoke_telemetry() {
    // A tightly constrained rack under NaiveOClock reliably hits the limit,
    // so the harness must record the capping and the grants it revokes.
    let mut cfg = ClusterConfig::small_test(SystemKind::NaiveOClock);
    cfg.rack_limit_scale = 0.78;
    cfg.seed = 10;
    let (telemetry, sink) = Telemetry::memory();
    let result = ClusterSim::with_telemetry(cfg, telemetry.clone()).run();
    assert!(result.capping_events > 0, "the constrained rack must cap");

    let events = sink.events();
    assert!(
        !sink.named("rack_capping").is_empty(),
        "capping must be traced"
    );
    let revokes = sink.named("revoke");
    assert!(
        !revokes.is_empty(),
        "capping a granted server must emit a revoke"
    );
    assert!(
        revokes
            .iter()
            .all(|e| { matches!(e.get("reason"), Some(FieldValue::Str(s)) if s == "cap") }),
        "every revoke in this scenario is capping-induced"
    );
    // Sim-time stamps are monotone within the single-threaded harness run
    // (spans are stamped with their *start* time, so they are exempt).
    let stamped: Vec<_> = events
        .iter()
        .filter(|e| e.get("dur_us").is_none())
        .collect();
    assert!(stamped.windows(2).all(|w| w[0].time <= w[1].time));

    // The agent stack reported through the same handle: sOA admissions and
    // WI observations land next to the harness events.
    assert!(!sink.named("oc_grant").is_empty(), "sOAs must trace grants");
    assert!(
        !sink.named("wi_observe").is_empty(),
        "WI agents must trace observations"
    );
    assert!(!sink.named("run_start").is_empty() && !sink.named("run_end").is_empty());

    // Counters aggregate the same story.
    let snapshot = telemetry.metrics_snapshot();
    let revoke_count: u64 = snapshot
        .counters
        .iter()
        .filter(|(k, _)| k.name == "harness_revokes")
        .map(|(_, v)| *v)
        .sum();
    assert_eq!(revoke_count, revokes.len() as u64);
}

#[test]
fn every_revoke_cause_resolves_to_an_earlier_cap_set() {
    // Causal-id contract on the capping path: each revoke carries a
    // `cause_id` naming the `cap_set` decision that forced it, on the same
    // server, stamped no later than the revoke itself.
    let mut cfg = ClusterConfig::small_test(SystemKind::NaiveOClock);
    cfg.rack_limit_scale = 0.78;
    cfg.seed = 10;
    let (telemetry, sink) = Telemetry::memory();
    let result = ClusterSim::with_telemetry(cfg, telemetry).run();
    assert!(result.capping_events > 0, "the constrained rack must cap");

    let field_u64 = |e: &soc_telemetry::Event, key: &str| match e.get(key) {
        Some(FieldValue::U64(v)) => Some(*v),
        _ => None,
    };
    let cap_sets = sink.named("cap_set");
    let revokes = sink.named("revoke");
    assert!(!revokes.is_empty(), "scenario must revoke at least once");
    for revoke in &revokes {
        let cause = field_u64(revoke, "cause_id").expect("revoke has cause_id");
        assert_ne!(cause, 0, "revoke cause_id must name a cap decision");
        let cap = cap_sets
            .iter()
            .find(|c| field_u64(c, "decision_id") == Some(cause))
            .unwrap_or_else(|| panic!("revoke cause {cause} has no cap_set"));
        assert!(cap.time <= revoke.time, "cap_set precedes its revoke");
        assert_eq!(
            field_u64(cap, "server"),
            field_u64(revoke, "server"),
            "cap and revoke must target the same server"
        );
    }

    // Capping-attributed SLO misses point back at real cap decisions too.
    let cap_ids: Vec<u64> = cap_sets
        .iter()
        .filter_map(|c| field_u64(c, "decision_id"))
        .collect();
    for miss in sink.named("slo_miss") {
        if matches!(miss.get("attribution"), Some(FieldValue::Str(s)) if s == "cap") {
            let cause = field_u64(&miss, "cause_id").unwrap_or(0);
            assert!(
                cap_ids.contains(&cause),
                "cap-attributed slo_miss must cite a cap_set decision"
            );
        }
    }

    // Decision ids are unique across the whole trace.
    let mut ids: Vec<u64> = sink
        .events()
        .iter()
        .filter_map(|e| field_u64(e, "decision_id"))
        .filter(|&id| id != 0)
        .collect();
    let total = ids.len();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), total, "decision ids must never repeat");
}

#[test]
fn disabled_telemetry_changes_nothing() {
    let mut cfg = ClusterConfig::small_test(SystemKind::SmartOClock);
    cfg.seed = 11;
    let plain = ClusterSim::new(cfg.clone()).run();
    let (telemetry, _sink) = Telemetry::memory();
    let traced = ClusterSim::with_telemetry(cfg, telemetry).run();
    assert_eq!(plain, traced, "telemetry must be a pure observer");
}

/// FNV-1a, 64-bit, over the `Debug` rendering of a value.
fn fnv1a64_debug<T: std::fmt::Debug>(value: &T) -> u64 {
    format!("{value:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Every output byte of the small cluster runs is pinned: each system at
/// `small_test`, SmartOClock under a fault plan, and SmartOClock on binned
/// silicon. A rewrite of the queueing simulator or the power accounting
/// that changes any latency, count or joule moves one of these digests.
#[test]
fn small_cluster_outputs_are_byte_pinned() {
    let mut runs: Vec<(&str, ClusterConfig)> = SystemKind::ALL
        .into_iter()
        .map(|s| (s.name(), ClusterConfig::small_test(s)))
        .collect();
    let mut faulted = ClusterConfig::small_test(SystemKind::SmartOClock);
    faulted.faults.seed = 11;
    faulted.faults.goa_outages = 1;
    faulted.faults.goa_outage_len = SimDuration::from_minutes(2);
    faulted.faults.budget_drop_prob = 0.25;
    faulted.faults.soa_restart_prob = 0.05;
    runs.push(("faulted", faulted));
    let mut binned = ClusterConfig::small_test(SystemKind::SmartOClock);
    binned.binning = BinningConfig {
        bins: 8,
        risk_budget: 0.3,
        wear_spread: 0.4,
        seed: 9,
    };
    runs.push(("binned", binned));

    let got: Vec<(&str, u64)> = runs
        .into_iter()
        .map(|(name, cfg)| (name, fnv1a64_debug(&ClusterSim::new(cfg).run())))
        .collect();
    let want = [
        ("Baseline", 0x8a5c_faf6_0853_0da1),
        ("ScaleOut", 0x525f_209e_9392_6f1e),
        ("ScaleUp", 0x31cc_a6e0_6fbd_6c4c),
        ("NaiveOClock", 0x9aa6_f343_c1cd_4c3f),
        ("SmartOClock", 0x8a13_007b_7ffe_4df1),
        ("faulted", 0x73cd_0d4f_ba2d_4602),
        ("binned", 0xfe7a_fc54_fc2d_5081),
    ];
    assert_eq!(got, want, "cluster output digests moved");
}
