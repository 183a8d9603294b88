//! Cross-crate integration: wear model + budgets + sOA lifetime management
//! across epochs (§III-Q2 and §IV-B together).

use simcore::time::{SimDuration, SimTime};
use smartoclock::messages::{GrantEndReason, OverclockRequest, SoaEvent};
use smartoclock::policy::PolicyKind;
use smartoclock::soa::ServerOverclockAgent;
use soc_cluster::ageing::{cumulative_ageing, fig7_utilization, AgeingPolicy};
use soc_power::model::PowerModel;
use soc_power::units::Watts;
use soc_reliability::wear::WearModel;

fn soa_with_budget(scale: f64) -> ServerOverclockAgent {
    let mut soa =
        ServerOverclockAgent::new(PowerModel::reference_server(), PolicyKind::SmartOClock);
    soa.set_power_budget(Watts::new(450.0));
    if scale < 1.0 {
        soa.scale_lifetime_budget(scale);
    }
    soa
}

#[test]
fn budget_enforcement_bounds_actual_wear() {
    // Run an sOA for a simulated week with an always-on overclock request;
    // the lifetime budget must cap total overclocked time at the configured
    // fraction, which in turn bounds the wear-model ageing.
    let mut soa = soa_with_budget(1.0);
    let wear = WearModel::default();
    let plan = PowerModel::reference_server().plan();
    let mut grant = soa
        .request_overclock(
            SimTime::ZERO,
            OverclockRequest::metrics_based("vm", 8, plan.max_overclock()),
        )
        .ok();

    let tick = SimDuration::from_minutes(10);
    let mut overclocked = SimDuration::ZERO;
    let mut t = SimTime::ZERO;
    let horizon = SimTime::ZERO + SimDuration::WEEK;
    while t < horizon {
        t += tick;
        let events = soa.control_tick(t, Watts::new(300.0), None, 0);
        let ended = events.iter().any(|e| {
            matches!(
                e,
                SoaEvent::GrantEnded {
                    reason: GrantEndReason::LifetimeBudgetExhausted,
                    ..
                }
            )
        });
        if grant.is_some() {
            if soa.grants().next().is_some() {
                overclocked += tick;
            }
            if ended {
                grant = None;
            }
        }
    }
    let fraction = overclocked.ratio(SimDuration::WEEK);
    assert!(
        fraction <= 0.22,
        "overclocked {fraction:.3} of the week; budget (10% + carry-over headroom) exceeded"
    );
    // The extra ageing from that bounded overclocking stays bounded too.
    let oc_accel = wear.voltage_acceleration(plan.max_overclock());
    let worst_extra_rate = fraction * (oc_accel - 1.0) * 2.22; // β·u²≤β
    assert!(
        worst_extra_rate < 2.0,
        "bounded OC time implies bounded wear impact"
    );
}

#[test]
fn restricted_budgets_exhaust_proportionally_faster() {
    let plan = PowerModel::reference_server().plan();
    let mut ends = Vec::new();
    for scale in [0.04, 0.02] {
        let mut soa = soa_with_budget(scale);
        let _ = soa
            .request_overclock(
                SimTime::ZERO,
                OverclockRequest::metrics_based("vm", 4, plan.max_overclock()),
            )
            .unwrap();
        let mut t = SimTime::ZERO;
        let mut end_at = None;
        for _ in 0..2000 {
            t += SimDuration::from_minutes(5);
            let events = soa.control_tick(t, Watts::new(300.0), None, 0);
            if events
                .iter()
                .any(|e| matches!(e, SoaEvent::GrantEnded { .. }))
            {
                end_at = Some(t);
                break;
            }
        }
        ends.push(end_at.expect("budget must exhaust"));
    }
    assert!(
        ends[0] > ends[1],
        "the larger budget must last longer: {:?}",
        ends
    );
}

#[test]
fn fig7_policies_and_budget_agree_on_affordable_fraction() {
    // The offline wear model's affordable fraction and the online
    // overclock-aware policy must roughly agree.
    let wear = WearModel::default();
    let util = fig7_utilization(5);
    let plan = wear.curve().plan();
    let aware = cumulative_ageing(
        &wear,
        &util,
        AgeingPolicy::OverclockAware { threshold: 0.5 },
    );
    let expected = cumulative_ageing(&wear, &util, AgeingPolicy::Expected);
    assert!(*aware.last().unwrap() <= *expected.last().unwrap() + 1e-9);

    let baseline_rate = {
        let non_oc = cumulative_ageing(&wear, &util, AgeingPolicy::NonOverclocked);
        non_oc.last().unwrap() / 5.0
    };
    let frac = wear.affordable_overclock_fraction(
        baseline_rate,
        0.6,
        plan.max_overclock(),
        wear.reference_temp_c(),
    );
    assert!(frac > 0.0 && frac < 1.0, "affordable fraction {frac}");
}
