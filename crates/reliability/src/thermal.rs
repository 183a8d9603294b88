//! Thermal model and cooling technologies.
//!
//! The paper's §III-Q2 ties overclocking headroom to cooling: "advanced
//! cooling (e.g., wax, immersion) is needed for enabling
//! sprinting/overclocking … However, there is opportunity to overclock even
//! in air-cooled server deployments", and "advanced cooling can be used to
//! enhance the capability (e.g., duration) as lower operating temperatures
//! reduce ageing".
//!
//! [`ThermalModel`] is a first-order RC model: junction temperature relaxes
//! toward `ambient + R_th · P` with time constant `tau`. [`Cooling`]
//! parameterizes the thermal resistance for air, liquid, and immersion
//! deployments, which feeds the wear model's temperature acceleration — the
//! mechanism by which immersion cooling buys extra overclocking duration.

use simcore::time::SimDuration;
use soc_power::units::Watts;

/// Cooling technology of a server deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cooling {
    /// Conventional air cooling (the paper's deployment).
    Air,
    /// Cold-plate liquid cooling.
    Liquid,
    /// Two-phase immersion (the paper's §II reference \[51\]).
    Immersion,
}

impl Cooling {
    /// All technologies, from weakest to strongest.
    pub const ALL: [Cooling; 3] = [Cooling::Air, Cooling::Liquid, Cooling::Immersion];

    /// Junction-to-ambient thermal resistance (°C per watt) for a whole
    /// server package at the granularity we model (socket-level).
    pub fn thermal_resistance(self) -> f64 {
        match self {
            Cooling::Air => 0.140,
            Cooling::Liquid => 0.095,
            Cooling::Immersion => 0.065,
        }
    }

    /// Typical ambient/coolant temperature (°C).
    pub fn ambient_c(self) -> f64 {
        match self {
            Cooling::Air => 30.0,
            Cooling::Liquid => 28.0,
            Cooling::Immersion => 35.0, // dielectric bath runs warmer but pulls heat harder
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Cooling::Air => "air",
            Cooling::Liquid => "liquid",
            Cooling::Immersion => "immersion",
        }
    }
}

impl std::fmt::Display for Cooling {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// First-order thermal model of a server socket.
///
/// ```
/// use soc_reliability::thermal::{Cooling, ThermalModel};
/// use soc_power::units::Watts;
/// use simcore::time::SimDuration;
///
/// let mut t = ThermalModel::new(Cooling::Air, SimDuration::from_secs(60));
/// for _ in 0..30 {
///     t.step(Watts::new(400.0), SimDuration::from_secs(60));
/// }
/// // Steady state: 30°C ambient + 0.14°C/W x 400W = 86°C.
/// assert!((t.junction_c() - 86.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalModel {
    cooling: Cooling,
    /// Thermal time constant.
    tau: SimDuration,
    junction_c: f64,
}

impl ThermalModel {
    /// Create a model starting at ambient temperature.
    ///
    /// # Panics
    /// Panics if `tau` is zero.
    pub fn new(cooling: Cooling, tau: SimDuration) -> ThermalModel {
        assert!(!tau.is_zero(), "thermal time constant must be non-zero");
        ThermalModel {
            cooling,
            tau,
            junction_c: cooling.ambient_c(),
        }
    }

    /// The cooling technology.
    pub fn cooling(&self) -> Cooling {
        self.cooling
    }

    /// Current junction temperature (°C).
    pub fn junction_c(&self) -> f64 {
        self.junction_c
    }

    /// Steady-state junction temperature at constant `power`.
    fn steady_state_c(&self, power: Watts) -> f64 {
        self.cooling.ambient_c() + self.cooling.thermal_resistance() * power.get()
    }

    /// Advance the model by `dt` with the given power draw.
    pub fn step(&mut self, power: Watts, dt: SimDuration) {
        let target = self.steady_state_c(power);
        let alpha = 1.0 - (-dt.ratio(self.tau)).exp();
        self.junction_c += (target - self.junction_c) * alpha;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wear::WearModel;
    use soc_power::freq::FrequencyPlan;
    use soc_power::units::MegaHertz;

    /// Sustainable overclocking duty cycle under each cooling technology: the
    /// fraction of time a server can spend overclocked without exceeding
    /// reference ageing, given its busy/idle power profile. This quantifies the
    /// paper's claim that advanced cooling "enhances the capability (e.g.,
    /// duration)".
    fn sustainable_duty_cycle(
        wear: &WearModel,
        cooling: Cooling,
        utilization: f64,
        oc_frequency: MegaHertz,
        turbo_power: Watts,
        oc_power: Watts,
    ) -> f64 {
        let tau = SimDuration::from_secs(60);
        let model = ThermalModel::new(cooling, tau);
        let t_turbo = model.steady_state_c(turbo_power);
        let t_oc = model.steady_state_c(oc_power);
        let plan = wear.curve().plan();
        let base_rate = wear.ageing_rate(utilization, plan.turbo(), t_turbo);
        if base_rate >= 1.0 {
            return 0.0;
        }
        let oc_rate = wear.ageing_rate(utilization, oc_frequency, t_oc);
        let turbo_rate_at_oc_temp = wear.ageing_rate(utilization, plan.turbo(), t_turbo);
        let extra = oc_rate - turbo_rate_at_oc_temp;
        if extra <= 0.0 {
            return 1.0;
        }
        ((1.0 - base_rate) / extra).clamp(0.0, 1.0)
    }

    #[test]
    fn steady_state_matches_rc_formula() {
        let m = ThermalModel::new(Cooling::Air, SimDuration::from_secs(60));
        assert_eq!(m.steady_state_c(Watts::new(100.0)), 30.0 + 14.0);
        assert_eq!(m.junction_c(), 30.0);
    }

    #[test]
    fn temperature_relaxes_exponentially() {
        let mut m = ThermalModel::new(Cooling::Air, SimDuration::from_secs(60));
        m.step(Watts::new(400.0), SimDuration::from_secs(60));
        // After one tau: ~63% of the way to 86°C.
        let expected = 30.0 + (86.0 - 30.0) * (1.0 - (-1.0f64).exp());
        assert!((m.junction_c() - expected).abs() < 1e-9);
        // Cooling back down when power drops.
        let hot = m.junction_c();
        m.step(Watts::ZERO, SimDuration::from_secs(60));
        assert!(m.junction_c() < hot);
    }

    #[test]
    fn stronger_cooling_runs_cooler() {
        let p = Watts::new(400.0);
        let air = ThermalModel::new(Cooling::Air, SimDuration::SECOND).steady_state_c(p);
        let liquid = ThermalModel::new(Cooling::Liquid, SimDuration::SECOND).steady_state_c(p);
        let immersion =
            ThermalModel::new(Cooling::Immersion, SimDuration::SECOND).steady_state_c(p);
        assert!(liquid < air);
        assert!(immersion < liquid);
    }

    #[test]
    fn advanced_cooling_extends_overclocking_duration() {
        // The paper's §III-Q2 claim, quantified: each step up in cooling
        // (air, liquid, immersion) affords a larger sustainable overclocking
        // duty cycle.
        let wear = WearModel::default();
        let plan = FrequencyPlan::default();
        let duty = |cooling| {
            sustainable_duty_cycle(
                &wear,
                cooling,
                0.55,
                plan.max_overclock(),
                Watts::new(250.0),
                Watts::new(330.0),
            )
        };
        let air = duty(Cooling::Air);
        let liquid = duty(Cooling::Liquid);
        let immersion = duty(Cooling::Immersion);
        assert!(air > 0.0, "air cooling must still allow some overclocking");
        assert!(
            air < liquid && liquid < immersion,
            "duty cycle must grow with cooling: air {air:.3}, liquid {liquid:.3}, \
             immersion {immersion:.3}"
        );
    }

    #[test]
    fn no_duty_cycle_when_baseline_already_over() {
        let wear = WearModel::default();
        let plan = FrequencyPlan::default();
        // Scorching utilization + air cooling: baseline ageing already > 1.
        let duty = sustainable_duty_cycle(
            &wear,
            Cooling::Air,
            1.0,
            plan.max_overclock(),
            Watts::new(500.0),
            Watts::new(650.0),
        );
        assert_eq!(duty, 0.0);
    }
}
