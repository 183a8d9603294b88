//! Golden-file regression tests for the experiment pipelines.
//!
//! Pins the summary metrics behind Fig. 15 (walk-forward template accuracy)
//! and Fig. 16 (production-service utilization sweep) on tiny fixtures, so
//! an accidental behavior change in the trace generator, the predictors, or
//! the microservice simulator shows up as a readable diff instead of a
//! silently shifted table.
//!
//! Values are formatted to six decimal places: exact enough to catch any
//! real behavior change, coarse enough to absorb last-ulp libm differences
//! across toolchains. To regenerate after an *intentional* change:
//!
//! ```text
//! SOC_UPDATE_GOLDEN=1 cargo test -p soc-bench --test golden_experiments
//! ```
//!
//! and commit the diff together with a justification.

use simcore::faults::{FaultPlan, FaultPlanConfig};
use simcore::time::SimDuration;
use smartoclock::policy::PolicyKind;
use soc_cluster::envs::{run_at_rate, Environment};
use soc_cluster::largescale::LargeScaleConfig;
use soc_cluster::largescale_metrics::PolicyMetrics;
use soc_cluster::shard::{generate_fleet_probed, simulate_policy_sharded_probed, FleetTraces};
use soc_cluster::NoopProbe;
use soc_power::freq::FrequencyPlan;
use soc_predict::eval::walk_forward;
use soc_predict::template::TemplateKind;
use soc_reliability::binning::BinningConfig;
use soc_telemetry::Telemetry;
use soc_traces::gen::{FleetConfig, TraceGenerator};
use soc_workloads::microservice::ServiceSpec;
use std::fmt::Write as _;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/golden_experiments.txt"
);

/// Compute the pinned summary: deterministic, fixed formatting, one line
/// per metric so diffs are line-oriented.
fn compute_summary() -> String {
    let mut out = String::new();

    // --- Fig. 15 slice: walk-forward accuracy per template on a 2-rack,
    // 2-week fixture fleet (the full figure uses 100 racks x 3 weeks).
    let mut cfg = FleetConfig::small_test();
    cfg.span = SimDuration::WEEK * 2;
    let fleet = TraceGenerator::new(42).generate(&cfg);
    for (rack_idx, rack) in fleet.racks.iter().enumerate() {
        for &kind in TemplateKind::ALL.iter() {
            let report = walk_forward(&rack.power, kind);
            let _ = writeln!(
                out,
                "fig15 rack={rack_idx} template={kind} mean_error={:.6} rmse={:.6} samples={}",
                report.mean_error, report.rmse, report.samples
            );
        }
    }

    // --- Fig. 16 slice: Service B utilization at three deployment rates
    // under baseline and overclocked frequencies (60s measure window).
    let plan = FrequencyPlan::amd_reference();
    let spec = ServiceSpec::new("ServiceB", 22.0, 1.1, 4);
    let measure = SimDuration::from_secs(60);
    for rps_k in [0.6_f64, 1.2, 1.8] {
        for env in [Environment::Baseline, Environment::Overclock] {
            let r = run_at_rate(&spec, rps_k * 100.0, env, plan, measure, 42);
            let _ = writeln!(
                out,
                "fig16 rps_k={rps_k:.1} env={env:?} util={:.6} p99_ms={:.6} slo_miss={:.6}",
                r.cpu_utilization, r.p99_ms, r.slo_miss_frac
            );
        }
    }

    // --- exp_fault_tolerance slice: the tiny-fixture form of the bench's
    // gOA-outage comparison (the binary runs 8-24 racks; this pins 4).
    for (label, hours) in [("none", 0u64), ("2h", 2), ("12h", 12)] {
        let mut cfg = LargeScaleConfig::small_test();
        cfg.faults = FaultPlanConfig {
            seed: 42,
            goa_outages: if hours == 0 { 0 } else { 2 },
            goa_outage_len: SimDuration::from_hours(hours),
            ..FaultPlanConfig::none()
        };
        for (system, policy, fail_open) in [
            ("smart", PolicyKind::SmartOClock, false),
            ("central_stop", PolicyKind::Central, false),
            ("central_open", PolicyKind::Central, true),
        ] {
            cfg.central_fail_open = fail_open;
            let outcomes =
                simulate_policy_sharded_probed(&cfg, policy, &Telemetry::disabled(), 1, &NoopProbe);
            let m = PolicyMetrics::aggregate(policy, &outcomes);
            let _ = writeln!(
                out,
                "fault_tolerance outage={label} system={system} violations={} \
                 stale_steps={} success={:.6} granted={}",
                m.violation_steps, m.stale_budget_steps, m.success_rate, m.granted
            );
        }
    }
    // --- exp_binning slice: the tiny-fixture form of the bench's bins ×
    // risk-budget sweep (the binary runs 8-24 racks; this pins 4). The
    // certified column is the silicon-only frontier; granted/denied/wear
    // are the simulated consequences.
    for (bins, budget) in [(1u32, 1.0f64), (8, 1.0), (8, 0.1)] {
        let mut cfg = LargeScaleConfig::small_test();
        cfg.binning = binning_config(bins, budget);
        let fleet = generate_fleet_probed(&cfg, 1, &NoopProbe);
        let outcomes = simulate_policy_sharded_probed(
            &cfg,
            PolicyKind::SmartOClock,
            &Telemetry::disabled(),
            1,
            &NoopProbe,
        );
        let m = PolicyMetrics::aggregate(PolicyKind::SmartOClock, &outcomes);
        let _ = writeln!(
            out,
            "binning bins={bins} budget={budget:.2} certified={:.6} granted={} \
             denied={} down_binned={} wear_days={:.6}",
            certified_fraction(&fleet, &cfg.binning),
            m.granted,
            m.bin_denied,
            m.down_binned,
            m.wear_days
        );
    }
    out
}

/// The bench sweep's binning cell for the fixture fleet.
fn binning_config(bins: u32, risk_budget: f64) -> BinningConfig {
    BinningConfig {
        bins,
        risk_budget,
        wear_spread: if bins > 1 { 0.3 } else { 0.0 },
        seed: 42,
    }
}

/// Mean certified overclock fraction across every part in the fleet (the
/// `exp_binning` frontier column): the admitted frequency's position in the
/// turbo→max-overclock span, 0 for a bin-denied part.
fn certified_fraction(fleet: &FleetTraces, binning: &BinningConfig) -> f64 {
    let mut certified = 0.0;
    let mut parts = 0u64;
    for (rack, model) in fleet.iter() {
        let plan = model.plan();
        let span = plan.max_overclock().saturating_sub(plan.turbo());
        if span.get() == 0 {
            continue;
        }
        for s in 0..rack.servers.len() {
            let part = binning.part(&plan, FaultPlan::entity_id(rack.index, s));
            certified += part
                .admit(&plan, binning.risk_budget, plan.max_overclock())
                .map_or(0.0, |f| f.saturating_sub(plan.turbo()).ratio(span));
            parts += 1;
        }
    }
    certified / parts.max(1) as f64
}

#[test]
fn certified_frontier_is_monotone_in_risk_budget() {
    // The exp_binning headline depends on the certified fraction being
    // monotone non-increasing as the budget tightens; pin it over the
    // fixture fleet at every bin count the bench sweeps.
    let cfg = LargeScaleConfig::small_test();
    let fleet = generate_fleet_probed(&cfg, 1, &NoopProbe);
    for bins in [1u32, 4, 8] {
        let mut last = f64::INFINITY;
        for budget in [1.0, 0.5, 0.25, 0.1] {
            let c = certified_fraction(&fleet, &binning_config(bins, budget));
            assert!(
                c <= last + 1e-12,
                "certified fraction rose from {last} to {c} as the budget \
                 tightened to {budget} (bins={bins})"
            );
            last = c;
        }
    }
}

#[test]
fn experiment_summaries_match_golden_file() {
    let actual = compute_summary();
    if std::env::var_os("SOC_UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &actual).expect("write golden file");
        eprintln!("golden file updated: {GOLDEN_PATH}");
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing; run with SOC_UPDATE_GOLDEN=1 to create it");
    if expected != actual {
        // Line-by-line diff beats one giant assert_eq dump.
        for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
            assert_eq!(a, e, "golden mismatch at line {}", i + 1);
        }
        assert_eq!(
            actual.lines().count(),
            expected.lines().count(),
            "golden file line count changed"
        );
        panic!("golden file differs (whitespace-only change?)");
    }
}

#[test]
fn summary_is_stable_across_runs() {
    // The golden comparison is only sound if the summary itself is a pure
    // function of the seed.
    assert_eq!(compute_summary(), compute_summary());
}
