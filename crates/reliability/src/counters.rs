//! Online wear-out counters — the §VI upgrade path.
//!
//! "Overclocking lifetime budgets can be improved with *wear-out counters*
//! that indicate how a component's (e.g., CPU core) lifetime is impacted by
//! utilization (voltage) and operating temperatures. SmartOClock can use
//! wearout counters to upgrade from a conservative offline model to a
//! *per-part* online calculation for safety." (paper §VI)
//!
//! The offline time budget (`crate::budget`) assumes worst-case utilization
//! while overclocked; [`WearoutCounter`] instead integrates the wear model
//! over the *measured* operating state, so a lightly-utilized part can
//! overclock far longer than the conservative time budget would allow —
//! exactly the inefficiency §VI calls out in offline certification.

use crate::wear::{AgeingLedger, WearModel};
use simcore::time::SimDuration;
use soc_power::units::MegaHertz;

/// A per-part online wear counter.
///
/// ```
/// use soc_reliability::counters::WearoutCounter;
/// use soc_reliability::wear::WearModel;
/// use simcore::time::SimDuration;
///
/// let model = WearModel::default();
/// let plan = model.curve().plan();
/// let mut counter = WearoutCounter::new(model.clone());
/// // A day of light load at turbo accrues credit...
/// counter.record(0.2, plan.turbo(), 55.0, SimDuration::from_days(1));
/// assert!(counter.credit_days() > 0.0);
/// // ...which can then fund overclocking.
/// assert!(counter.can_overclock(0.5, plan.max_overclock(), 65.0, SimDuration::from_hours(1)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WearoutCounter {
    model: WearModel,
    ledger: AgeingLedger,
}

impl WearoutCounter {
    /// A fresh counter for a part described by `model`.
    pub fn new(model: WearModel) -> WearoutCounter {
        WearoutCounter {
            model,
            ledger: AgeingLedger::new(),
        }
    }

    /// The wear model used for integration.
    pub fn model(&self) -> &WearModel {
        &self.model
    }

    /// Record `dt` of operation at the measured state.
    ///
    /// # Panics
    /// Panics if `utilization` is outside `[0, 1]`.
    pub fn record(&mut self, utilization: f64, frequency: MegaHertz, temp_c: f64, dt: SimDuration) {
        let rate = self.model.ageing_rate(utilization, frequency, temp_c);
        self.ledger.record(rate, dt);
    }

    /// Accumulated lifetime credit in days (negative when the part has aged
    /// past the vendor reference).
    pub fn credit_days(&self) -> f64 {
        self.ledger.credit_days()
    }

    /// Actual accumulated ageing (days).
    pub fn actual_days(&self) -> f64 {
        self.ledger.actual_days()
    }

    /// Admission check: would `dt` of overclocking at the given measured
    /// state keep the part within its lifetime goal?
    ///
    /// Unlike the offline time budget — which charges worst-case wear per
    /// overclocked second regardless of load — this charges the *actual*
    /// predicted wear for the observed utilization and temperature.
    pub fn can_overclock(
        &self,
        utilization: f64,
        frequency: MegaHertz,
        temp_c: f64,
        dt: SimDuration,
    ) -> bool {
        let rate = self.model.ageing_rate(utilization, frequency, temp_c);
        let spend = rate * dt.as_days_f64();
        let earn = dt.as_days_f64(); // expected ageing accrues alongside
        self.credit_days() + earn - spend >= 0.0
    }

    /// Maximum continuous overclocking time at the given state before the
    /// credit runs out. Returns `None` when the state does not consume
    /// credit (rate ≤ 1).
    pub fn time_to_exhaustion(
        &self,
        utilization: f64,
        frequency: MegaHertz,
        temp_c: f64,
    ) -> Option<SimDuration> {
        let rate = self.model.ageing_rate(utilization, frequency, temp_c);
        if rate <= 1.0 {
            return None;
        }
        let days = (self.credit_days() / (rate - 1.0)).max(0.0);
        Some(SimDuration::from_secs_f64(days * 86_400.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soc_power::freq::FrequencyPlan;

    /// Compare the overclocking time granted over a utilization profile by the
    /// offline time budget vs. the online wear counter. Returns
    /// `(offline_hours, online_hours)` for the given per-epoch fraction.
    ///
    /// The paper's §VI argument: offline certification "does not leverage the
    /// impact of utilization variability … on ageing at cloud scale" — the
    /// online counter grants strictly more overclocking at low utilization.
    fn offline_vs_online_grant(
        model: &WearModel,
        utilization_profile: &[f64],
        step: SimDuration,
        offline_fraction: f64,
        temp_c: f64,
    ) -> (f64, f64) {
        let plan = model.curve().plan();
        let oc = plan.max_overclock();
        let total: SimDuration = step * utilization_profile.len() as u64;
        // Offline: a flat fraction of wall-clock time, independent of load.
        let offline_hours = total.as_hours_f64() * offline_fraction;
        // Online: overclock whenever the counter stays within budget.
        let mut counter = WearoutCounter::new(model.clone());
        let mut online_hours = 0.0;
        for &u in utilization_profile {
            let u = u.clamp(0.0, 1.0);
            if counter.can_overclock(u, oc, temp_c, step) {
                counter.record(u, oc, temp_c, step);
                online_hours += step.as_hours_f64();
            } else {
                counter.record(u, plan.turbo(), temp_c, step);
            }
        }
        (offline_hours, online_hours)
    }

    fn model() -> WearModel {
        WearModel::default()
    }

    fn plan() -> FrequencyPlan {
        FrequencyPlan::default()
    }

    #[test]
    fn light_load_accrues_credit_heavy_load_spends_it() {
        let m = model();
        let mut c = WearoutCounter::new(m.clone());
        c.record(0.2, plan().turbo(), 55.0, SimDuration::from_days(2));
        let credit = c.credit_days();
        assert!(credit > 1.0, "light load should bank credit, got {credit}");
        c.record(0.9, plan().max_overclock(), 75.0, SimDuration::from_days(1));
        assert!(c.credit_days() < credit, "overclocking must spend credit");
    }

    #[test]
    fn admission_respects_credit() {
        let m = model();
        let mut c = WearoutCounter::new(m.clone());
        // No history: no credit beyond what the window itself accrues.
        assert!(!c.can_overclock(1.0, plan().max_overclock(), 85.0, SimDuration::from_days(1)));
        // Bank a quiet week, then a moderate request fits.
        c.record(0.1, plan().turbo(), 50.0, SimDuration::from_days(7));
        assert!(c.can_overclock(0.7, plan().max_overclock(), 65.0, SimDuration::from_days(1)));
    }

    #[test]
    fn time_to_exhaustion_scales_with_credit() {
        let m = model();
        let mut c = WearoutCounter::new(m.clone());
        c.record(0.2, plan().turbo(), 55.0, SimDuration::from_days(1));
        let t1 = c
            .time_to_exhaustion(0.9, plan().max_overclock(), 75.0)
            .expect("consuming state");
        c.record(0.2, plan().turbo(), 55.0, SimDuration::from_days(1));
        let t2 = c
            .time_to_exhaustion(0.9, plan().max_overclock(), 75.0)
            .expect("consuming state");
        assert!(t2 > t1, "more credit must buy more time");
        // Non-consuming state has no exhaustion.
        assert!(c.time_to_exhaustion(0.1, plan().turbo(), 50.0).is_none());
    }

    #[test]
    fn online_grants_more_than_offline_at_low_utilization() {
        // §VI's argument: a part that idles most of the day can overclock far
        // beyond the flat 10% offline certificate.
        let m = model();
        let profile: Vec<f64> = (0..288)
            .map(|i| if i % 12 == 0 { 0.6 } else { 0.15 })
            .collect();
        let (offline, online) =
            offline_vs_online_grant(&m, &profile, SimDuration::from_minutes(5), 0.10, 60.0);
        assert!(
            online > 2.0 * offline,
            "online ({online:.1}h) should dwarf offline ({offline:.1}h) at low utilization"
        );
    }

    #[test]
    fn online_stays_within_lifetime_goal() {
        let m = model();
        let profile: Vec<f64> = (0..2016)
            .map(|i| 0.3 + 0.3 * ((i / 288) % 2) as f64)
            .collect();
        let mut c = WearoutCounter::new(m.clone());
        let oc = plan().max_overclock();
        for &u in &profile {
            if c.can_overclock(u, oc, 65.0, SimDuration::from_minutes(5)) {
                c.record(u, oc, 65.0, SimDuration::from_minutes(5));
            } else {
                c.record(u, plan().turbo(), 65.0, SimDuration::from_minutes(5));
            }
        }
        assert!(
            c.ledger.credit_days() >= 0.0,
            "the online policy must never exceed reference ageing"
        );
    }
}
