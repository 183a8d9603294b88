//! The overclocking policies of Fig. 7, evaluated with the wear model.
//!
//! Fig. 7 plots cumulative CPU ageing of a diurnal production workload under
//! four lines: *Expected ageing* (the vendor reference: one day per day),
//! *Non-overclocked*, *Always overclock*, and an *Overclock-aware* policy
//! that spends only the credits the baseline accrues.

use simcore::series::TimeSeries;
use soc_reliability::wear::WearModel;

/// The four Fig. 7 policies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AgeingPolicy {
    /// Vendor reference: ages one day per wall-clock day.
    Expected,
    /// Run at turbo always.
    NonOverclocked,
    /// Run at the max overclock always.
    AlwaysOverclock,
    /// Overclock only while utilization is above `threshold` *and* the
    /// accumulated credit is positive.
    OverclockAware {
        /// Utilization above which the workload benefits from overclocking.
        threshold: f64,
    },
}

impl AgeingPolicy {
    /// Display name matching Fig. 7's legend.
    pub fn name(self) -> &'static str {
        match self {
            AgeingPolicy::Expected => "Expected ageing",
            AgeingPolicy::NonOverclocked => "Non-overclocked",
            AgeingPolicy::AlwaysOverclock => "Always overclock",
            AgeingPolicy::OverclockAware { .. } => "Overclock-aware",
        }
    }
}

/// Cumulative ageing (in days) after each sample of `utilization`, under the
/// given policy. The overclock-aware policy tracks its credit online and
/// stops overclocking whenever spending would push ageing past expected.
///
/// # Panics
/// Panics if the utilization series is empty.
pub fn cumulative_ageing(
    model: &WearModel,
    utilization: &TimeSeries,
    policy: AgeingPolicy,
) -> Vec<f64> {
    assert!(!utilization.is_empty(), "need a utilization trace");
    let plan = model.curve().plan();
    let temp = model.reference_temp_c();
    let dt = utilization.step();
    let dt_days = dt.as_days_f64();
    let mut total = 0.0;
    let mut elapsed = 0.0;
    let mut out = Vec::with_capacity(utilization.len());
    for (_, u) in utilization.iter() {
        let u = u.clamp(0.0, 1.0);
        elapsed += dt_days;
        let rate = match policy {
            AgeingPolicy::Expected => 1.0,
            AgeingPolicy::NonOverclocked => model.ageing_rate(u, plan.turbo(), temp),
            AgeingPolicy::AlwaysOverclock => model.ageing_rate(u, plan.max_overclock(), temp),
            AgeingPolicy::OverclockAware { threshold } => {
                let credit = elapsed - total;
                let oc_rate = model.ageing_rate(u, plan.max_overclock(), temp);
                if u >= threshold && credit > oc_rate * dt_days {
                    oc_rate
                } else {
                    model.ageing_rate(u, plan.turbo(), temp)
                }
            }
        };
        total += rate * dt_days;
        out.push(total);
    }
    out
}

/// Fraction of samples the overclock-aware policy actually overclocked.
pub fn overclock_aware_duty_cycle(
    model: &WearModel,
    utilization: &TimeSeries,
    threshold: f64,
) -> f64 {
    let plan = model.curve().plan();
    let temp = model.reference_temp_c();
    let dt_days = utilization.step().as_days_f64();
    let mut total = 0.0;
    let mut elapsed = 0.0;
    let mut oc_samples = 0usize;
    for (_, u) in utilization.iter() {
        let u = u.clamp(0.0, 1.0);
        elapsed += dt_days;
        let credit = elapsed - total;
        let oc_rate = model.ageing_rate(u, plan.max_overclock(), temp);
        let rate = if u >= threshold && credit > oc_rate * dt_days {
            oc_samples += 1;
            oc_rate
        } else {
            model.ageing_rate(u, plan.turbo(), temp)
        };
        total += rate * dt_days;
    }
    oc_samples as f64 / utilization.len() as f64
}

/// The diurnal utilization trace Fig. 7 describes: "daily midday peaks above
/// 50% and valleys lower than 20% at night", sampled every 5 minutes for
/// `days` days.
pub fn fig7_utilization(days: u64) -> TimeSeries {
    use simcore::time::{SimDuration, SimTime};
    TimeSeries::generate(
        SimTime::ZERO,
        SimTime::ZERO + SimDuration::from_days(days),
        SimDuration::from_minutes(5),
        |t| {
            let h = t.time_of_day().as_hours_f64();
            // Smooth midday bump peaking at ~0.65 around 13:00, valley ~0.15.
            let bump = (-((h - 13.0) / 4.5).powi(2)).exp();
            0.15 + 0.50 * bump
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> WearModel {
        WearModel::default()
    }

    #[test]
    fn fig7_ordering_holds() {
        // Fig. 7: non-OC < expected < always-OC, and OC-aware ≤ expected.
        let m = model();
        let util = fig7_utilization(5);
        let last = |p| *cumulative_ageing(&m, &util, p).last().unwrap();
        let expected = last(AgeingPolicy::Expected);
        let non_oc = last(AgeingPolicy::NonOverclocked);
        let always = last(AgeingPolicy::AlwaysOverclock);
        let aware = last(AgeingPolicy::OverclockAware { threshold: 0.5 });
        assert!((expected - 5.0).abs() < 1e-9);
        assert!(
            non_oc < 0.6 * expected,
            "non-OC {non_oc} vs expected {expected}"
        );
        assert!(
            always > expected,
            "always-OC {always} must exceed expected {expected}"
        );
        assert!(
            aware <= expected + 1e-9,
            "OC-aware {aware} must not exceed expected"
        );
        assert!(
            aware > non_oc,
            "OC-aware spends credits, so it ages more than non-OC"
        );
    }

    #[test]
    fn overclock_aware_has_meaningful_duty_cycle() {
        let m = model();
        let util = fig7_utilization(5);
        let duty = overclock_aware_duty_cycle(&m, &util, 0.5);
        assert!(duty > 0.05 && duty < 0.5, "duty cycle {duty}");
    }

    #[test]
    fn cumulative_series_is_monotone() {
        let m = model();
        let util = fig7_utilization(2);
        for policy in [
            AgeingPolicy::Expected,
            AgeingPolicy::NonOverclocked,
            AgeingPolicy::AlwaysOverclock,
            AgeingPolicy::OverclockAware { threshold: 0.5 },
        ] {
            let series = cumulative_ageing(&m, &util, policy);
            assert_eq!(series.len(), util.len());
            for w in series.windows(2) {
                assert!(w[1] >= w[0], "{} must be monotone", policy.name());
            }
        }
    }

    #[test]
    fn names_match_legend() {
        assert_eq!(AgeingPolicy::Expected.name(), "Expected ageing");
        assert_eq!(
            AgeingPolicy::OverclockAware { threshold: 0.5 }.name(),
            "Overclock-aware"
        );
    }
}
