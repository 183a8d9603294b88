//! Cross-crate integration: Table I ordering invariants over the
//! trace-driven large-scale simulation.

use smartoclock::policy::PolicyKind;
use soc_cluster::largescale::LargeScaleConfig;
use soc_cluster::largescale_metrics::PolicyMetrics;
use soc_cluster::shard::simulate_policy_sharded_probed;
use soc_cluster::NoopProbe;
use soc_telemetry::Telemetry;

fn metrics(policy: PolicyKind, seed: u64) -> PolicyMetrics {
    let mut cfg = LargeScaleConfig::small_test();
    cfg.racks = 6;
    cfg.seed = seed;
    PolicyMetrics::aggregate(
        policy,
        &simulate_policy_sharded_probed(&cfg, policy, &Telemetry::disabled(), 1, &NoopProbe),
    )
}

#[test]
fn capping_ordering_central_smart_naive() {
    let central = metrics(PolicyKind::Central, 42);
    let smart = metrics(PolicyKind::SmartOClock, 42);
    let naive = metrics(PolicyKind::NaiveOClock, 42);
    assert!(central.capping_events <= smart.capping_events);
    assert!(
        smart.capping_events <= naive.capping_events,
        "SmartOClock ({}) must cap at most as often as NaiveOClock ({})",
        smart.capping_events,
        naive.capping_events
    );
}

#[test]
fn success_ordering_exploration_helps() {
    let smart = metrics(PolicyKind::SmartOClock, 42);
    let nofb = metrics(PolicyKind::NoFeedback, 42);
    assert!(
        smart.success_rate >= nofb.success_rate,
        "exploration must help: SmartOClock {} vs NoFeedback {}",
        smart.success_rate,
        nofb.success_rate
    );
}

#[test]
fn naive_has_perfect_success_but_worst_capping() {
    let naive = metrics(PolicyKind::NaiveOClock, 42);
    assert!((naive.success_rate - 1.0).abs() < 1e-12);
    for policy in [
        PolicyKind::Central,
        PolicyKind::NoFeedback,
        PolicyKind::SmartOClock,
    ] {
        let other = metrics(policy, 42);
        assert!(
            other.capping_events <= naive.capping_events,
            "{policy} vs NaiveOClock"
        );
    }
}

#[test]
fn performance_between_one_and_full_overclock() {
    for policy in PolicyKind::ALL {
        let m = metrics(policy, 42);
        assert!(
            (0.5..=1.215).contains(&m.normalized_performance),
            "{policy} normalized performance {} out of plausible range",
            m.normalized_performance
        );
    }
}

#[test]
fn capping_penalty_only_when_capping() {
    let central = metrics(PolicyKind::Central, 42);
    if central.capping_events == 0 {
        assert_eq!(central.capping_penalty, 0.0);
    }
}

#[test]
fn results_stable_across_identical_runs() {
    let a = metrics(PolicyKind::SmartOClock, 11);
    let b = metrics(PolicyKind::SmartOClock, 11);
    assert_eq!(a, b);
}
