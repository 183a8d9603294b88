//! Frequency plans and the voltage curve.
//!
//! The paper's cluster uses AMD CPUs with a 3.3 GHz max turbo and a 4.0 GHz
//! overclocking frequency (§V-A). [`FrequencyPlan`] captures that shape:
//! a base frequency, the vendor-specified turbo ceiling, and an overclocking
//! range above it, quantized into discrete steps ("the sOA changes the
//! frequency of the overclocked VMs ... in discrete steps (e.g., 100 MHz)",
//! §IV-D).
//!
//! [`VoltageCurve`] is piecewise linear with a steeper slope beyond turbo:
//! running past the design point requires disproportionate voltage, which is
//! what makes overclocked cores disproportionately power-hungry and ages them
//! exponentially faster (§II, §III-Q2).

use crate::units::{MegaHertz, Volts};

/// The frequency envelope of a CPU: base, turbo, and overclocking range.
///
/// ```
/// use soc_power::freq::FrequencyPlan;
/// use soc_power::units::MegaHertz;
///
/// let plan = FrequencyPlan::amd_reference();
/// assert_eq!(plan.turbo(), MegaHertz::new(3300));
/// assert_eq!(plan.max_overclock(), MegaHertz::new(4000));
/// assert!(plan.is_overclocked(MegaHertz::new(3400)));
/// assert!(!plan.is_overclocked(MegaHertz::new(3300)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrequencyPlan {
    base: MegaHertz,
    turbo: MegaHertz,
    max_overclock: MegaHertz,
    step: MegaHertz,
}

impl FrequencyPlan {
    /// Build a plan.
    ///
    /// # Panics
    /// Panics unless `0 < base <= turbo <= max_overclock` and `step > 0`.
    pub fn new(
        base: MegaHertz,
        turbo: MegaHertz,
        max_overclock: MegaHertz,
        step: MegaHertz,
    ) -> FrequencyPlan {
        assert!(base.get() > 0, "base frequency must be positive");
        assert!(base <= turbo, "turbo must be at least base");
        assert!(
            turbo <= max_overclock,
            "max overclock must be at least turbo"
        );
        assert!(step.get() > 0, "step must be positive");
        FrequencyPlan {
            base,
            turbo,
            max_overclock,
            step,
        }
    }

    /// The reference plan matching the paper's cluster: 2.45 GHz base,
    /// 3.3 GHz max turbo, 4.0 GHz max overclock, 100 MHz steps.
    pub fn amd_reference() -> FrequencyPlan {
        FrequencyPlan::new(
            MegaHertz::new(2450),
            MegaHertz::new(3300),
            MegaHertz::new(4000),
            MegaHertz::new(100),
        )
    }

    /// A plan representing an Intel-generation server in the trace-driven
    /// simulations (datacenters "with either Intel or AMD CPUs", §V-B).
    pub fn intel_reference() -> FrequencyPlan {
        FrequencyPlan::new(
            MegaHertz::new(2600),
            MegaHertz::new(3500),
            MegaHertz::new(4100),
            MegaHertz::new(100),
        )
    }

    /// Guaranteed base frequency.
    pub fn base(self) -> MegaHertz {
        self.base
    }

    /// Vendor max-turbo frequency — the non-overclocked operating point in
    /// performance mode.
    pub fn turbo(self) -> MegaHertz {
        self.turbo
    }

    /// Highest permitted overclocking frequency.
    pub fn max_overclock(self) -> MegaHertz {
        self.max_overclock
    }

    /// Frequency-control step size.
    pub fn step(self) -> MegaHertz {
        self.step
    }

    /// Whether `f` is beyond the vendor turbo ceiling.
    pub fn is_overclocked(self, f: MegaHertz) -> bool {
        f > self.turbo
    }

    /// Clamp `f` into the operable range `[base, max_overclock]`.
    pub fn clamp(self, f: MegaHertz) -> MegaHertz {
        f.clamp(self.base, self.max_overclock)
    }

    /// One step up from `f`, clamped to the max overclock.
    pub fn step_up(self, f: MegaHertz) -> MegaHertz {
        (f + self.step).min(self.max_overclock)
    }

    /// One step down from `f`, clamped to the base frequency.
    pub fn step_down(self, f: MegaHertz) -> MegaHertz {
        f.saturating_sub(self.step).max(self.base)
    }

    /// All discrete operating points from base to max overclock, inclusive.
    pub fn levels(self) -> Vec<MegaHertz> {
        let mut out = Vec::new();
        let mut f = self.base;
        loop {
            out.push(f);
            if f >= self.max_overclock {
                break;
            }
            f = self.step_up(f);
        }
        out
    }
}

impl Default for FrequencyPlan {
    fn default() -> Self {
        FrequencyPlan::amd_reference()
    }
}

/// Piecewise-linear core voltage as a function of frequency.
///
/// Below turbo the slope is gentle (vendor DVFS curve); beyond turbo every
/// extra MHz costs disproportionately more voltage. Dynamic power scales as
/// `f · V(f)²`, so this curve is what makes a 3.3 → 4.0 GHz overclock roughly
/// double a core's dynamic power — consistent with the paper's example of
/// 10 W of extra power per overclocked core (§IV-C).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageCurve {
    /// Voltage at the base frequency.
    v_base: f64,
    /// Volts per MHz below/at turbo.
    slope_normal: f64,
    /// Volts per MHz beyond turbo.
    slope_overclock: f64,
    plan: FrequencyPlan,
}

impl VoltageCurve {
    /// Build a curve for a plan.
    ///
    /// # Panics
    /// Panics if `v_base <= 0` or either slope is negative.
    pub fn new(
        plan: FrequencyPlan,
        v_base: f64,
        slope_normal: f64,
        slope_overclock: f64,
    ) -> VoltageCurve {
        assert!(v_base > 0.0, "base voltage must be positive");
        assert!(
            slope_normal >= 0.0 && slope_overclock >= 0.0,
            "slopes must be non-negative"
        );
        VoltageCurve {
            v_base,
            slope_normal,
            slope_overclock,
            plan,
        }
    }

    /// Reference curve for [`FrequencyPlan::amd_reference`]: 0.95 V at base,
    /// ~1.15 V at turbo, ~1.68 V-equivalent at 4.0 GHz. The beyond-turbo
    /// slope is calibrated so a fully-utilized overclocked core draws
    /// roughly 7 W of extra power — matching the paper's §IV-C example of
    /// ~10 W per overclocked core (the "voltage" above turbo is an
    /// effective value folding in uncore and current-delivery overheads).
    pub fn reference(plan: FrequencyPlan) -> VoltageCurve {
        VoltageCurve::new(plan, 0.95, 0.000235, 0.000750)
    }

    /// The frequency plan this curve is defined over.
    pub fn plan(&self) -> FrequencyPlan {
        self.plan
    }

    /// Voltage at frequency `f` (clamped into the plan's range).
    pub fn voltage(&self, f: MegaHertz) -> Volts {
        let f = self.plan.clamp(f);
        let base = self.plan.base().get() as f64;
        let turbo = self.plan.turbo().get() as f64;
        let fv = f.get() as f64;
        let v = if fv <= turbo {
            self.v_base + self.slope_normal * (fv - base)
        } else {
            self.v_base + self.slope_normal * (turbo - base) + self.slope_overclock * (fv - turbo)
        };
        Volts::new(v)
    }

    /// Ratio of dynamic power at `f` to dynamic power at turbo:
    /// `(f · V(f)²) / (f_t · V(f_t)²)`.
    pub fn dynamic_power_factor(&self, f: MegaHertz) -> f64 {
        let f = self.plan.clamp(f);
        let turbo = self.plan.turbo();
        let num = f.get() as f64 * self.voltage(f).squared();
        let den = turbo.get() as f64 * self.voltage(turbo).squared();
        num / den
    }
}

impl Default for VoltageCurve {
    fn default() -> Self {
        VoltageCurve::reference(FrequencyPlan::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_plan_matches_paper() {
        let p = FrequencyPlan::amd_reference();
        assert_eq!(p.turbo().as_ghz(), 3.3);
        assert_eq!(p.max_overclock().as_ghz(), 4.0);
    }

    #[test]
    fn stepping_is_clamped() {
        let p = FrequencyPlan::amd_reference();
        assert_eq!(p.step_up(MegaHertz::new(3950)), MegaHertz::new(4000));
        assert_eq!(p.step_up(MegaHertz::new(4000)), MegaHertz::new(4000));
        assert_eq!(p.step_down(MegaHertz::new(2500)), MegaHertz::new(2450));
        assert_eq!(p.step_down(MegaHertz::new(2450)), MegaHertz::new(2450));
    }

    #[test]
    fn levels_cover_range() {
        let p = FrequencyPlan::new(
            MegaHertz::new(2000),
            MegaHertz::new(2200),
            MegaHertz::new(2400),
            MegaHertz::new(100),
        );
        let levels = p.levels();
        assert_eq!(levels.first(), Some(&MegaHertz::new(2000)));
        assert_eq!(levels.last(), Some(&MegaHertz::new(2400)));
        assert_eq!(levels.len(), 5);
    }

    #[test]
    fn overclock_detection() {
        let p = FrequencyPlan::amd_reference();
        assert!(!p.is_overclocked(p.base()));
        assert!(!p.is_overclocked(p.turbo()));
        assert!(p.is_overclocked(p.turbo() + p.step()));
    }

    #[test]
    #[should_panic(expected = "turbo must be at least base")]
    fn plan_validates_order() {
        let _ = FrequencyPlan::new(
            MegaHertz::new(3000),
            MegaHertz::new(2000),
            MegaHertz::new(4000),
            MegaHertz::new(100),
        );
    }

    #[test]
    fn voltage_is_monotone_and_kinked() {
        let c = VoltageCurve::default();
        let p = c.plan();
        let v_base = c.voltage(p.base()).get();
        let v_turbo = c.voltage(p.turbo()).get();
        let v_oc = c.voltage(p.max_overclock()).get();
        assert!(v_base < v_turbo && v_turbo < v_oc);
        // Slope beyond turbo is steeper than below.
        let below = (v_turbo - v_base) / (p.turbo().get() - p.base().get()) as f64;
        let above = (v_oc - v_turbo) / (p.max_overclock().get() - p.turbo().get()) as f64;
        assert!(above > below);
    }

    #[test]
    fn full_overclock_multiplies_dynamic_power() {
        let c = VoltageCurve::default();
        let factor = c.dynamic_power_factor(c.plan().max_overclock());
        // The reference calibration gives ~2.4-2.7x at 4.0 GHz vs 3.3 GHz
        // (≈7 W extra per fully-utilized core; paper's example is ~10 W).
        assert!((2.2..=2.9).contains(&factor), "factor = {factor}");
        assert_eq!(c.dynamic_power_factor(c.plan().turbo()), 1.0);
    }

    #[test]
    fn voltage_clamps_out_of_range_frequencies() {
        let c = VoltageCurve::default();
        assert_eq!(c.voltage(MegaHertz::new(100)), c.voltage(c.plan().base()));
        assert_eq!(
            c.voltage(MegaHertz::new(9000)),
            c.voltage(c.plan().max_overclock())
        );
    }
}
