//! The Global Overclocking Agent (gOA).
//!
//! "The sOAs periodically (e.g., weekly) exchange their templates with the
//! gOA. The gOA combines power and overclocking templates of all sOAs and
//! computes individual power budgets. … First, the gOA uses its power model
//! to separate the server's power into the regular and overclock power …
//! Second, the gOA assigns to each sOA the initial power budget that is
//! equal to the server's regular power consumption. Finally, the gOA splits
//! the remaining power headroom based on the overclocking requirements."
//! (paper §IV-C)

use crate::policy::PolicyKind;
use simcore::series::TimeSeries;
use simcore::time::SimTime;
use soc_power::hierarchy::{heterogeneous_split_into, DemandProfile};
use soc_power::model::PowerModel;
use soc_power::units::{MegaHertz, Watts};
use soc_predict::template::{PowerTemplate, TemplateKind};

/// One server's weekly profile as exchanged with the gOA.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerProfile {
    /// Template of the server's *regular* (non-overclocked) power draw.
    pub regular_power: PowerTemplate,
    /// Template of the *extra* power the server wants for overclocking.
    pub overclock_demand: PowerTemplate,
}

impl ServerProfile {
    /// Build a profile from raw telemetry: the server's baseline power
    /// history and the history of how many cores requested overclocking.
    /// The OC-cores series is converted to watts of extra demand through the
    /// power model (the gOA's "discrimination" step, §IV-C).
    ///
    /// # Panics
    /// Panics if the histories are shorter than one week.
    pub fn from_history(
        power_history: &TimeSeries,
        oc_cores_history: &TimeSeries,
        model: &PowerModel,
        oc_frequency: MegaHertz,
        expected_utilization: f64,
    ) -> ServerProfile {
        let per_core = model
            .overclock_delta(expected_utilization, 1, oc_frequency)
            .get();
        let demand_watts = oc_cores_history.map(|cores| cores * per_core);
        ServerProfile {
            regular_power: PowerTemplate::build(power_history, TemplateKind::DailyMed),
            overclock_demand: PowerTemplate::build(&demand_watts, TemplateKind::DailyMed),
        }
    }

    /// The demand pair at instant `t`.
    pub fn demand_at(&self, t: SimTime) -> DemandProfile {
        DemandProfile {
            regular: Watts::new(self.regular_power.predict(t).max(0.0)),
            overclock_demand: Watts::new(self.overclock_demand.predict(t).max(0.0)),
        }
    }
}

/// The per-rack Global Overclocking Agent.
///
/// Reproduces the paper's worked example (§IV-C):
///
/// ```
/// use smartoclock::goa::GlobalOverclockAgent;
/// use smartoclock::policy::PolicyKind;
/// use soc_power::hierarchy::DemandProfile;
/// use soc_power::units::Watts;
///
/// let goa = GlobalOverclockAgent::new(Watts::new(1300.0), PolicyKind::SmartOClock);
/// let mut budgets = Vec::new();
/// goa.budgets_for(
///     &[
///         DemandProfile { regular: Watts::new(400.0), overclock_demand: Watts::new(50.0) },
///         DemandProfile { regular: Watts::new(300.0), overclock_demand: Watts::new(100.0) },
///     ],
///     &mut budgets,
/// );
/// assert_eq!(budgets, vec![Watts::new(600.0), Watts::new(700.0)]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalOverclockAgent {
    rack_limit: Watts,
    policy: PolicyKind,
}

impl GlobalOverclockAgent {
    /// Create a gOA for a rack with the given power limit.
    ///
    /// # Panics
    /// Panics if `rack_limit` is not positive.
    pub fn new(rack_limit: Watts, policy: PolicyKind) -> GlobalOverclockAgent {
        assert!(rack_limit.get() > 0.0, "rack limit must be positive");
        GlobalOverclockAgent { rack_limit, policy }
    }

    /// Compute per-server budgets from demand profiles into `out`, which is
    /// cleared first and keeps its capacity. Callers holding
    /// [`ServerProfile`]s pass `profile.demand_at(t)` for each.
    ///
    /// Heterogeneous-budget policies use the §IV-C split; `NaiveOClock`
    /// splits evenly. Every budget refresh of the large-scale hot path goes
    /// through this, so the split must not allocate in steady state.
    ///
    /// # Panics
    /// Panics if `demands` is empty.
    pub fn budgets_for(&self, demands: &[DemandProfile], out: &mut Vec<Watts>) {
        assert!(!demands.is_empty(), "need at least one server");
        if self.policy.heterogeneous_budgets() {
            heterogeneous_split_into(self.rack_limit, demands, out);
        } else {
            out.clear();
            out.resize(demands.len(), self.rack_limit / demands.len() as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::SimDuration;

    fn flat_series(value: f64) -> TimeSeries {
        TimeSeries::generate(
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::WEEK,
            SimDuration::from_minutes(30),
            |_| value,
        )
    }

    #[test]
    fn paper_worked_example() {
        let goa = GlobalOverclockAgent::new(Watts::new(1300.0), PolicyKind::SmartOClock);
        let mut budgets = Vec::new();
        goa.budgets_for(
            &[
                DemandProfile {
                    regular: Watts::new(400.0),
                    overclock_demand: Watts::new(50.0),
                },
                DemandProfile {
                    regular: Watts::new(300.0),
                    overclock_demand: Watts::new(100.0),
                },
            ],
            &mut budgets,
        );
        assert_eq!(budgets, vec![Watts::new(600.0), Watts::new(700.0)]);
    }

    #[test]
    fn naive_policy_splits_evenly() {
        let goa = GlobalOverclockAgent::new(Watts::new(1300.0), PolicyKind::NaiveOClock);
        let mut budgets = Vec::new();
        goa.budgets_for(
            &[
                DemandProfile {
                    regular: Watts::new(400.0),
                    overclock_demand: Watts::new(50.0),
                },
                DemandProfile {
                    regular: Watts::new(300.0),
                    overclock_demand: Watts::new(100.0),
                },
            ],
            &mut budgets,
        );
        assert_eq!(budgets, vec![Watts::new(650.0), Watts::new(650.0)]);
    }

    #[test]
    fn profile_from_history_converts_cores_to_watts() {
        let model = PowerModel::reference_server();
        let oc_freq = model.plan().max_overclock();
        let profile = ServerProfile::from_history(
            &flat_series(300.0),
            &flat_series(10.0),
            &model,
            oc_freq,
            0.9,
        );
        let d = profile.demand_at(SimTime::ZERO + SimDuration::from_days(8));
        assert!((d.regular.get() - 300.0).abs() < 1e-6);
        let per_core = model.overclock_delta(0.9, 1, oc_freq).get();
        assert!((d.overclock_demand.get() - 10.0 * per_core).abs() < 1e-6);
    }

    #[test]
    fn budgets_for_consumes_profile_demands() {
        let model = PowerModel::reference_server();
        let oc_freq = model.plan().max_overclock();
        let p1 = ServerProfile::from_history(
            &flat_series(400.0),
            &flat_series(5.0),
            &model,
            oc_freq,
            0.9,
        );
        let p2 = ServerProfile::from_history(
            &flat_series(300.0),
            &flat_series(10.0),
            &model,
            oc_freq,
            0.9,
        );
        let goa = GlobalOverclockAgent::new(Watts::new(1300.0), PolicyKind::SmartOClock);
        let t = SimTime::ZERO + SimDuration::from_days(9);
        let mut budgets = Vec::new();
        goa.budgets_for(&[p1.demand_at(t), p2.demand_at(t)], &mut budgets);
        assert_eq!(budgets.len(), 2);
        // Server 2 wants twice the OC power, so it gets the larger share of
        // headroom (same structure as the paper's example).
        let extra1 = budgets[0] - Watts::new(400.0);
        let extra2 = budgets[1] - Watts::new(300.0);
        assert!(extra2 > extra1);
        // Budget conservation.
        assert!(((budgets[0] + budgets[1]) - Watts::new(1300.0)).get().abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "rack limit must be positive")]
    fn rejects_zero_limit() {
        let _ = GlobalOverclockAgent::new(Watts::ZERO, PolicyKind::SmartOClock);
    }
}
