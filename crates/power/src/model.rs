//! The CPU power model.
//!
//! Both evaluation tracks in the paper rely on a model that maps *CPU
//! utilization and core frequency* to power ("Models are used to estimate the
//! power impact of overclocking; CPU utilization and core frequency are the
//! input. We validate the model for each server generation", §V-B).
//!
//! [`PowerModel`] implements the standard decomposition
//!
//! ```text
//! P_server = P_idle + Σ_cores  P_dyn_max · u_core · (f · V(f)²) / (f_t · V(f_t)²)
//! ```
//!
//! where `P_dyn_max` is the per-core dynamic power at max turbo and full
//! utilization, and the voltage curve supplies the beyond-turbo blow-up.

use crate::freq::{FrequencyPlan, VoltageCurve};
use crate::units::{MegaHertz, Watts};

/// Maps utilization + frequency to server power.
///
/// ```
/// use soc_power::model::PowerModel;
/// use soc_power::units::MegaHertz;
///
/// let model = PowerModel::reference_server();
/// let turbo = model.plan().turbo();
/// let idle = model.server_power_uniform(0.0, turbo);
/// let busy = model.server_power_uniform(1.0, turbo);
/// assert!(busy > idle);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    idle: Watts,
    per_core_dyn_turbo: Watts,
    cores: usize,
    curve: VoltageCurve,
}

impl PowerModel {
    /// Build a model.
    ///
    /// # Panics
    /// Panics if `cores == 0`, or either power figure is negative.
    pub fn new(
        idle: Watts,
        per_core_dyn_turbo: Watts,
        cores: usize,
        curve: VoltageCurve,
    ) -> PowerModel {
        assert!(cores > 0, "a server needs at least one core");
        assert!(
            idle.get() >= 0.0 && per_core_dyn_turbo.get() >= 0.0,
            "power must be non-negative"
        );
        PowerModel {
            idle,
            per_core_dyn_turbo,
            cores,
            curve,
        }
    }

    /// The reference server matching the paper's cluster: 64 cores,
    /// ~100 W idle, ~400 W at full load on turbo, ~2x dynamic power when
    /// overclocked to 4.0 GHz.
    pub fn reference_server() -> PowerModel {
        PowerModel::new(
            Watts::new(100.0),
            Watts::new(4.7),
            64,
            VoltageCurve::default(),
        )
    }

    /// An Intel-generation server for the mixed fleets of §V-B ("servers
    /// with either Intel or AMD CPUs"): 56 cores, slightly higher idle and
    /// per-core power, 3.5 GHz turbo / 4.1 GHz max overclock.
    pub fn intel_reference_server() -> PowerModel {
        let plan = crate::freq::FrequencyPlan::intel_reference();
        PowerModel::new(
            Watts::new(110.0),
            Watts::new(5.3),
            56,
            VoltageCurve::reference(plan),
        )
    }

    /// Idle (static) power.
    pub fn idle(&self) -> Watts {
        self.idle
    }

    /// Number of physical cores.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// The frequency plan the model's voltage curve is defined over.
    pub fn plan(&self) -> FrequencyPlan {
        self.curve.plan()
    }

    /// The voltage curve.
    pub fn curve(&self) -> &VoltageCurve {
        &self.curve
    }

    /// Dynamic power of one core at the given state.
    ///
    /// # Panics
    /// Panics if `utilization` is outside `[0, 1]`.
    #[inline]
    pub fn core_power(&self, utilization: f64, frequency: MegaHertz) -> Watts {
        assert!(
            (0.0..=1.0).contains(&utilization),
            "utilization must be in [0, 1], got {utilization}"
        );
        self.per_core_dyn_turbo * (utilization * self.curve.dynamic_power_factor(frequency))
    }

    /// Server power with every core at the same utilization and frequency.
    #[inline]
    pub fn server_power_uniform(&self, utilization: f64, frequency: MegaHertz) -> Watts {
        self.idle + self.core_power(utilization, frequency) * self.cores as f64
    }

    /// Extra power from overclocking `oc_cores` cores from turbo to
    /// `oc_freq` at the given utilization — the quantity the sOA reserves
    /// during admission control (§IV-B).
    pub fn overclock_delta(&self, utilization: f64, oc_cores: usize, oc_freq: MegaHertz) -> Watts {
        let turbo = self.plan().turbo();
        (self.core_power(utilization, oc_freq) - self.core_power(utilization, turbo))
            * oc_cores as f64
    }

    /// Precompute the frequency-dependent factors of [`overclock_delta`]
    /// for one fixed overclock frequency.
    ///
    /// Admission loops evaluate the delta once per requesting server per
    /// step, always at the same `oc_freq`; the two
    /// `dynamic_power_factor` evaluations inside (two divisions each) are
    /// pure functions of the constant plan and frequency, so they can be
    /// hoisted out of the loop. [`OverclockDeltaFn::at`] then performs the
    /// exact floating-point operation sequence of the per-call form on the
    /// hoisted factors, making its results bit-identical (pinned by a
    /// property test below).
    ///
    /// [`overclock_delta`]: PowerModel::overclock_delta
    pub fn overclock_delta_fn(&self, oc_freq: MegaHertz) -> OverclockDeltaFn {
        OverclockDeltaFn {
            per_core_dyn_turbo: self.per_core_dyn_turbo,
            dpf_oc: self.curve.dynamic_power_factor(oc_freq),
            dpf_turbo: self.curve.dynamic_power_factor(self.plan().turbo()),
        }
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel::reference_server()
    }
}

/// [`PowerModel::overclock_delta`] with its frequency factors hoisted; see
/// [`PowerModel::overclock_delta_fn`].
#[derive(Debug, Clone, Copy)]
pub struct OverclockDeltaFn {
    per_core_dyn_turbo: Watts,
    dpf_oc: f64,
    dpf_turbo: f64,
}

impl OverclockDeltaFn {
    /// Extra power from overclocking `oc_cores` cores at `utilization`,
    /// bit-identical to `overclock_delta(utilization, oc_cores, oc_freq)`
    /// on the model and frequency this was built from: same values, same
    /// operation order (`per_core · (u · dpf)` per frequency, subtract,
    /// scale by core count).
    ///
    /// # Panics
    /// Panics if `utilization` is outside `[0, 1]`, like the per-call form.
    #[inline]
    pub fn at(&self, utilization: f64, oc_cores: usize) -> Watts {
        assert!(
            (0.0..=1.0).contains(&utilization),
            "utilization must be in [0, 1], got {utilization}"
        );
        (self.per_core_dyn_turbo * (utilization * self.dpf_oc)
            - self.per_core_dyn_turbo * (utilization * self.dpf_turbo))
            * oc_cores as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn model() -> PowerModel {
        PowerModel::reference_server()
    }

    #[test]
    fn idle_power_at_zero_utilization() {
        let m = model();
        assert_eq!(m.server_power_uniform(0.0, m.plan().turbo()), m.idle());
    }

    #[test]
    fn full_load_turbo_near_tdp() {
        let m = model();
        let p = m.server_power_uniform(1.0, m.plan().turbo());
        // 100 + 64 * 4.7 ≈ 400 W.
        assert!((p.get() - 400.0).abs() < 5.0, "p = {p}");
    }

    #[test]
    fn overclocking_increases_power() {
        let m = model();
        let turbo = m.server_power_uniform(0.6, m.plan().turbo());
        let oc = m.server_power_uniform(0.6, m.plan().max_overclock());
        assert!(oc > turbo);
        // Delta should match overclock_delta of all cores.
        let delta = m.overclock_delta(0.6, m.cores(), m.plan().max_overclock());
        assert!((oc - turbo - delta).get().abs() < 1e-9);
    }

    #[test]
    fn mixed_power_between_pure_states() {
        let m = model();
        let all_turbo = m.server_power_uniform(0.8, m.plan().turbo());
        let all_oc = m.server_power_uniform(0.8, m.plan().max_overclock());
        // 32 overclocked cores: the turbo draw plus the overclock delta the
        // sOA reserves for them.
        let mixed = all_turbo + m.overclock_delta(0.8, 32, m.plan().max_overclock());
        assert!(mixed > all_turbo && mixed < all_oc);
    }

    #[test]
    fn per_oc_core_delta_is_several_watts() {
        // Sanity-check against the paper's §IV-C example (≈10 W per
        // overclocked core at high utilization): our calibration gives
        // ~4-6 W at full utilization, same order of magnitude.
        let m = model();
        let delta = m.overclock_delta(1.0, 1, m.plan().max_overclock());
        assert!((3.0..=12.0).contains(&delta.get()), "delta = {delta}");
    }

    #[test]
    #[should_panic(expected = "utilization must be in")]
    fn rejects_bad_utilization() {
        let m = model();
        let _ = m.core_power(1.5, m.plan().turbo());
    }

    proptest! {
        #[test]
        fn power_monotone_in_utilization(u1 in 0.0..1.0f64, u2 in 0.0..1.0f64) {
            let m = model();
            let (lo, hi) = if u1 <= u2 { (u1, u2) } else { (u2, u1) };
            prop_assert!(
                m.server_power_uniform(lo, m.plan().turbo())
                    <= m.server_power_uniform(hi, m.plan().turbo())
            );
        }

        #[test]
        fn power_monotone_in_frequency(f in 2450u32..=4000) {
            let m = model();
            let lower = m.server_power_uniform(0.5, MegaHertz::new(f));
            let higher = m.server_power_uniform(0.5, MegaHertz::new(f + 50));
            prop_assert!(lower <= higher + Watts::new(1e-9));
        }

        #[test]
        fn hoisted_overclock_delta_is_bit_identical(
            util in 0.0..=1.0f64,
            cores in 0usize..64,
            f in 2450u32..=4000,
        ) {
            // The columnar engine hoists the frequency factors out of the
            // admission loop; bit equality (not approximate equality) is
            // what keeps that engine byte-identical to the reference.
            let m = model();
            let freq = MegaHertz::new(f);
            let hoisted = m.overclock_delta_fn(freq);
            prop_assert_eq!(
                hoisted.at(util, cores).get().to_bits(),
                m.overclock_delta(util, cores, freq).get().to_bits()
            );
        }
    }
}
