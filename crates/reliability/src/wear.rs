//! The CPU ageing model and the lifetime-credit ledger.
//!
//! ## Model
//!
//! The paper uses a proprietary TSMC 7 nm composite model relating voltage
//! scaling, CPU utilization, and gate-oxide wear (§III-Q2). We substitute the
//! standard exponential acceleration form from the reliability literature the
//! paper cites (exponential relationship between temperature, voltage, and
//! lifetime):
//!
//! ```text
//! rate(u, V, T) = α + β · u² · exp(k_v (V − V_turbo)) · exp(k_t (T − T_ref))
//! ```
//!
//! `rate` is dimensionless ageing speed: 1.0 means the part ages one day per
//! wall-clock day (the vendor reference). The quadratic utilization term
//! reflects that voltage-accelerated wear concentrates in actively switching
//! transistors — and it is the exponent that lets one parameterization hit
//! all three of the paper's anchors simultaneously (see crate docs and the
//! `calibration_*` tests below).
//!
//! ## Calibration anchors (paper §III-Q2, Fig. 7)
//!
//! 1. Conservative fleet usage (≈45 % utilization at turbo) ⇒ rate 0.5
//!    ("a CPU ages by 2.5 years over a 5-year period").
//! 2. Worst-case overclocking (100 % utilization at max OC voltage) for half
//!    the time ⇒ ≥ 5 years of ageing in about a year.
//! 3. A diurnal workload (Fig. 7) shows: non-overclocked rate well below 1,
//!    always-overclock rate well above 1, and an overclock-aware policy that
//!    spends only accumulated credits stays at or below expected ageing.

use simcore::time::SimDuration;
use soc_power::freq::VoltageCurve;
use soc_power::units::MegaHertz;

/// Voltage- and temperature-accelerated ageing-rate model.
///
/// ```
/// use soc_reliability::wear::WearModel;
/// use soc_power::freq::VoltageCurve;
///
/// let model = WearModel::reference(VoltageCurve::default());
/// let plan = model.curve().plan();
/// let base = model.ageing_rate(0.5, plan.turbo(), model.reference_temp_c());
/// let oc = model.ageing_rate(0.5, plan.max_overclock(), model.reference_temp_c());
/// assert!(oc > base); // overclocking accelerates wear
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WearModel {
    /// Idle (static) ageing rate.
    alpha: f64,
    /// Activity-dependent ageing coefficient.
    beta: f64,
    /// Voltage acceleration exponent (per volt above turbo voltage).
    k_voltage: f64,
    /// Temperature acceleration exponent (per °C above reference).
    k_temp: f64,
    /// Reference junction temperature in °C.
    t_ref_c: f64,
    curve: VoltageCurve,
}

impl WearModel {
    /// Build a model with explicit coefficients.
    ///
    /// # Panics
    /// Panics if any coefficient is negative or non-finite.
    pub fn new(
        alpha: f64,
        beta: f64,
        k_voltage: f64,
        k_temp: f64,
        t_ref_c: f64,
        curve: VoltageCurve,
    ) -> WearModel {
        for (name, v) in [
            ("alpha", alpha),
            ("beta", beta),
            ("k_voltage", k_voltage),
            ("k_temp", k_temp),
        ] {
            assert!(
                v.is_finite() && v >= 0.0,
                "{name} must be finite and non-negative"
            );
        }
        assert!(t_ref_c.is_finite(), "reference temperature must be finite");
        WearModel {
            alpha,
            beta,
            k_voltage,
            k_temp,
            t_ref_c,
            curve,
        }
    }

    /// The reference calibration satisfying the paper's anchors:
    /// `α = 0.05`, `β = 2.22`, voltage acceleration ≈ 4.5× at the maximum
    /// overclock voltage, wear doubling every ~17 °C.
    pub fn reference(curve: VoltageCurve) -> WearModel {
        let plan = curve.plan();
        let v_turbo = curve.voltage(plan.turbo()).get();
        let v_oc = curve.voltage(plan.max_overclock()).get();
        // Solve exp(k (v_oc - v_turbo)) = 4.5.
        let k_voltage = (4.5f64).ln() / (v_oc - v_turbo).max(1e-9);
        WearModel::new(0.05, 2.22, k_voltage, 0.04, 65.0, curve)
    }

    /// The voltage curve used to turn frequencies into voltages.
    pub fn curve(&self) -> &VoltageCurve {
        &self.curve
    }

    /// Reference junction temperature (°C) at which the temperature factor
    /// is 1.
    pub fn reference_temp_c(&self) -> f64 {
        self.t_ref_c
    }

    /// Idle (static) ageing rate.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Activity-dependent ageing coefficient.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Voltage acceleration exponent (per volt above turbo voltage).
    pub fn k_voltage(&self) -> f64 {
        self.k_voltage
    }

    /// Temperature acceleration exponent (per °C above reference).
    pub fn k_temp(&self) -> f64 {
        self.k_temp
    }

    /// Instantaneous ageing rate at a core state (dimensionless; 1.0 = ages
    /// at the vendor-reference speed).
    ///
    /// # Panics
    /// Panics if `utilization` is outside `[0, 1]`.
    pub fn ageing_rate(&self, utilization: f64, frequency: MegaHertz, temp_c: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&utilization),
            "utilization must be in [0, 1], got {utilization}"
        );
        let v = self.curve.voltage(frequency).get();
        let v_turbo = self.curve.voltage(self.curve.plan().turbo()).get();
        let av = (self.k_voltage * (v - v_turbo).max(0.0)).exp();
        let at = (self.k_temp * (temp_c - self.t_ref_c)).exp();
        self.alpha + self.beta * utilization * utilization * av * at
    }

    /// Ageing accumulated over `dt` at a fixed state, in days of lifetime.
    pub fn ageing_over(
        &self,
        utilization: f64,
        frequency: MegaHertz,
        temp_c: f64,
        dt: SimDuration,
    ) -> f64 {
        self.ageing_rate(utilization, frequency, temp_c) * dt.as_days_f64()
    }

    /// Voltage-acceleration factor at `frequency` relative to turbo.
    pub fn voltage_acceleration(&self, frequency: MegaHertz) -> f64 {
        let v = self.curve.voltage(frequency).get();
        let v_turbo = self.curve.voltage(self.curve.plan().turbo()).get();
        (self.k_voltage * (v - v_turbo).max(0.0)).exp()
    }

    /// Largest overclocking time fraction a workload can sustain without
    /// exceeding reference ageing, given its utilization while overclocked
    /// and its baseline ageing rate. Returns a value in `[0, 1]`.
    ///
    /// This is the planning rule the "Overclock-aware" policy of Fig. 7 uses:
    /// spend exactly the credits the baseline accrues.
    pub fn affordable_overclock_fraction(
        &self,
        baseline_rate: f64,
        utilization_while_oc: f64,
        frequency: MegaHertz,
        temp_c: f64,
    ) -> f64 {
        let oc_rate = self.ageing_rate(utilization_while_oc, frequency, temp_c);
        let turbo_rate = self.ageing_rate(utilization_while_oc, self.curve.plan().turbo(), temp_c);
        let extra = oc_rate - turbo_rate;
        if extra <= 0.0 {
            return 1.0;
        }
        let credit_rate = 1.0 - baseline_rate;
        (credit_rate / extra).clamp(0.0, 1.0)
    }
}

impl Default for WearModel {
    fn default() -> Self {
        WearModel::reference(VoltageCurve::default())
    }
}

/// Tracks a component's actual vs. expected ageing over time.
///
/// "Under-utilization accumulates lifetime credits that can be consumed via
/// overclocking" (§III-Q2). The ledger's [`credit_days`](Self::credit_days)
/// is exactly that accumulated headroom.
///
/// ```
/// use soc_reliability::wear::AgeingLedger;
/// use simcore::time::SimDuration;
///
/// let mut ledger = AgeingLedger::new();
/// // A day at ageing rate 0.4 accrues 0.6 days of credit.
/// ledger.record(0.4, SimDuration::from_days(1));
/// assert!((ledger.credit_days() - 0.6).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AgeingLedger {
    actual_days: f64,
    elapsed_days: f64,
}

impl AgeingLedger {
    /// A fresh component: no ageing, no elapsed time.
    pub fn new() -> AgeingLedger {
        AgeingLedger::default()
    }

    /// Record `dt` spent at the given ageing `rate`.
    ///
    /// # Panics
    /// Panics if `rate` is negative or non-finite.
    pub fn record(&mut self, rate: f64, dt: SimDuration) {
        assert!(
            rate.is_finite() && rate >= 0.0,
            "ageing rate must be finite and non-negative"
        );
        self.actual_days += rate * dt.as_days_f64();
        self.elapsed_days += dt.as_days_f64();
    }

    /// Actual accumulated ageing in days.
    pub fn actual_days(&self) -> f64 {
        self.actual_days
    }

    /// Expected (vendor-reference) ageing: one day per elapsed day.
    pub fn expected_days(&self) -> f64 {
        self.elapsed_days
    }

    /// Wall-clock days elapsed.
    pub fn elapsed_days(&self) -> f64 {
        self.elapsed_days
    }

    /// Accumulated credit: expected minus actual ageing (negative when the
    /// part has aged faster than reference).
    pub fn credit_days(&self) -> f64 {
        self.expected_days() - self.actual_days
    }

    /// Whether the component is within its lifetime goal.
    pub fn within_budget(&self) -> bool {
        self.credit_days() >= 0.0
    }

    /// Merge another ledger (e.g. per-core ledgers into a socket view).
    pub fn merge(&mut self, other: &AgeingLedger) {
        self.actual_days += other.actual_days;
        self.elapsed_days += other.elapsed_days;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use soc_power::freq::FrequencyPlan;

    fn model() -> WearModel {
        WearModel::default()
    }

    fn plan() -> FrequencyPlan {
        FrequencyPlan::default()
    }

    #[test]
    fn calibration_conservative_fleet_ages_half_speed() {
        // Anchor 1: ~45% utilization at turbo → rate ≈ 0.5
        // ("2.5 years over a 5-year period").
        let m = model();
        let rate = m.ageing_rate(0.45, plan().turbo(), m.reference_temp_c());
        assert!((rate - 0.5).abs() < 0.02, "rate = {rate}");
    }

    #[test]
    fn calibration_naive_half_time_overclock_burns_lifetime() {
        // Anchor 2: overclocking half the time at worst-case utilization must
        // consume ≥5 years of lifetime in ≈1 year.
        let m = model();
        let oc_rate = m.ageing_rate(1.0, plan().max_overclock(), m.reference_temp_c());
        let fleet_rate = m.ageing_rate(0.45, plan().turbo(), m.reference_temp_c());
        let blended = 0.5 * oc_rate + 0.5 * fleet_rate;
        assert!(blended >= 4.5, "blended rate = {blended}");
    }

    #[test]
    fn calibration_overclock_aware_stays_within_expected() {
        // Anchor 3 (Fig. 7): with a diurnal workload (peaks ~0.65, valleys
        // ~0.2), spending only accrued credits keeps total ageing at or below
        // expected.
        let m = model();
        let t = m.reference_temp_c();
        // Baseline day: 8h at 0.65 util, 16h at 0.2, all turbo.
        let baseline_rate = (8.0 * m.ageing_rate(0.65, plan().turbo(), t)
            + 16.0 * m.ageing_rate(0.2, plan().turbo(), t))
            / 24.0;
        assert!(
            baseline_rate < 1.0,
            "baseline must accrue credit, rate = {baseline_rate}"
        );
        let frac = m.affordable_overclock_fraction(baseline_rate, 0.65, plan().max_overclock(), t);
        assert!(frac > 0.0 && frac < 1.0, "fraction = {frac}");
        // Overclocking for that fraction of the time must not exceed 1.0.
        let oc_extra =
            m.ageing_rate(0.65, plan().max_overclock(), t) - m.ageing_rate(0.65, plan().turbo(), t);
        let total = baseline_rate + frac * oc_extra;
        assert!(total <= 1.0 + 1e-9, "total = {total}");
    }

    #[test]
    fn always_overclock_exceeds_expected_ageing() {
        // Fig. 7: "Always overclock" ages the CPU faster than the reference.
        let m = model();
        let t = m.reference_temp_c();
        let rate = (8.0 * m.ageing_rate(0.65, plan().max_overclock(), t)
            + 16.0 * m.ageing_rate(0.2, plan().max_overclock(), t))
            / 24.0;
        assert!(rate > 1.0, "always-overclock rate = {rate}");
    }

    #[test]
    fn temperature_accelerates_wear() {
        let m = model();
        let cool = m.ageing_rate(0.5, plan().turbo(), 50.0);
        let hot = m.ageing_rate(0.5, plan().turbo(), 85.0);
        assert!(hot > cool);
        // Doubling period ≈ 17 °C ⇒ 35 °C ≈ 4x.
        assert!((hot / cool - 4.0).abs() < 0.5, "ratio = {}", hot / cool);
    }

    #[test]
    fn voltage_acceleration_at_max_oc_matches_reference() {
        let m = model();
        let a = m.voltage_acceleration(plan().max_overclock());
        assert!((a - 4.5).abs() < 0.05, "a = {a}");
        assert_eq!(m.voltage_acceleration(plan().turbo()), 1.0);
        assert_eq!(m.voltage_acceleration(plan().base()), 1.0); // no sub-turbo bonus
    }

    #[test]
    fn ledger_accrues_and_spends_credit() {
        let mut l = AgeingLedger::new();
        l.record(0.4, SimDuration::from_days(5));
        assert!((l.actual_days() - 2.0).abs() < 1e-9);
        assert!((l.credit_days() - 3.0).abs() < 1e-9);
        assert!(l.within_budget());
        l.record(4.0, SimDuration::from_days(1));
        assert!((l.actual_days() - 6.0).abs() < 1e-9);
        assert!(l.within_budget()); // 6 actual vs 6 expected
        l.record(2.0, SimDuration::from_days(1));
        assert!(!l.within_budget());
    }

    #[test]
    fn ledger_merge_sums() {
        let mut a = AgeingLedger::new();
        a.record(1.0, SimDuration::from_days(2));
        let mut b = AgeingLedger::new();
        b.record(0.5, SimDuration::from_days(4));
        a.merge(&b);
        assert!((a.actual_days() - 4.0).abs() < 1e-9);
        assert!((a.elapsed_days() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn affordable_fraction_zero_when_no_credit() {
        let m = model();
        let f =
            m.affordable_overclock_fraction(1.2, 0.8, plan().max_overclock(), m.reference_temp_c());
        assert_eq!(f, 0.0);
    }

    #[test]
    fn affordable_fraction_one_when_not_overclocking() {
        let m = model();
        let f = m.affordable_overclock_fraction(0.3, 0.8, plan().turbo(), m.reference_temp_c());
        assert_eq!(f, 1.0);
    }

    #[test]
    #[should_panic(expected = "utilization must be in")]
    fn rate_rejects_bad_utilization() {
        let m = model();
        let _ = m.ageing_rate(1.5, plan().turbo(), 65.0);
    }

    proptest! {
        #[test]
        fn rate_monotone_in_utilization(u1 in 0.0..1.0f64, u2 in 0.0..1.0f64) {
            let m = model();
            let (lo, hi) = if u1 <= u2 { (u1, u2) } else { (u2, u1) };
            prop_assert!(
                m.ageing_rate(lo, plan().turbo(), 65.0)
                    <= m.ageing_rate(hi, plan().turbo(), 65.0) + 1e-12
            );
        }

        #[test]
        fn rate_monotone_in_frequency(f in 2450u32..3950) {
            let m = model();
            let lo = m.ageing_rate(0.7, MegaHertz::new(f), 65.0);
            let hi = m.ageing_rate(0.7, MegaHertz::new(f + 50), 65.0);
            prop_assert!(lo <= hi + 1e-12);
        }

        #[test]
        fn ledger_credit_identity(
            segments in prop::collection::vec((0.0..5.0f64, 1u64..100), 1..20)
        ) {
            let mut l = AgeingLedger::new();
            for &(rate, hours) in &segments {
                l.record(rate, SimDuration::from_hours(hours));
            }
            prop_assert!((l.credit_days() - (l.expected_days() - l.actual_days())).abs() < 1e-9);
            prop_assert!(l.elapsed_days() > 0.0);
        }
    }
}
