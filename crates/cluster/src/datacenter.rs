//! Datacenter-level (multi-rack) budget coordination — an extension
//! experiment.
//!
//! "The power delivery system in a cloud datacenter is organized in a
//! hierarchy" (§II) and SmartOClock "is organized hierarchically where each
//! controller manages the components on its level" (§IV). The paper
//! evaluates the rack level; this module extends the same §IV-C split one
//! level up: a datacenter feed that oversubscribes its racks, with
//! rack-level gOAs receiving heterogeneous budgets from a datacenter-level
//! split before subdividing them across servers.
//!
//! The experiment compares *flat* enforcement (each rack admits against its
//! own provisioned limit, blind to the shared feed) with *nested*
//! enforcement (rack budgets are first cut to fit the feed). Flat racks can
//! each stay within their local limit while their sum tramples the feed —
//! exactly the failure mode hierarchical budgets exist to prevent.

use simcore::time::{SimDuration, SimTime};
use soc_power::hierarchy::{heterogeneous_split, DemandProfile};
use soc_power::units::Watts;
use soc_traces::fleet::RackTrace;
use soc_traces::gen::{FleetConfig, TraceGenerator};

/// Split a datacenter budget across racks, then each rack's share across its
/// servers — the §IV-C computation applied recursively.
///
/// Returns per-rack, per-server budgets. Budget conservation holds at every
/// level: each rack's server budgets sum to that rack's share, and the rack
/// shares sum to the datacenter budget (when regular demand fits).
///
/// # Panics
/// Panics if `racks` is empty or any rack has no servers.
fn nested_split(dc_budget: Watts, racks: &[Vec<DemandProfile>]) -> Vec<Vec<Watts>> {
    assert!(!racks.is_empty(), "need at least one rack");
    let rack_profiles: Vec<DemandProfile> = racks
        .iter()
        .map(|servers| {
            assert!(!servers.is_empty(), "rack with no servers");
            DemandProfile {
                regular: servers.iter().map(|s| s.regular).sum(),
                overclock_demand: servers.iter().map(|s| s.overclock_demand).sum(),
            }
        })
        .collect();
    let mut rack_budgets = Vec::with_capacity(racks.len());
    heterogeneous_split(dc_budget, &rack_profiles, &mut rack_budgets);
    racks
        .iter()
        .zip(&rack_budgets)
        .map(|(servers, &budget)| {
            let mut budgets = Vec::with_capacity(servers.len());
            heterogeneous_split(budget, servers, &mut budgets);
            budgets
        })
        .collect()
}

/// Configuration for the datacenter coordination experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct DatacenterConfig {
    /// Number of racks on the shared feed.
    pub racks: usize,
    /// Datacenter feed as a fraction of the sum of rack limits (< 1 means
    /// the feed oversubscribes the racks).
    pub feed_fraction: f64,
    /// Trace length in weeks (week 1 trains templates).
    pub weeks: u64,
    /// Evaluation step.
    pub step: SimDuration,
    /// RNG seed.
    pub seed: u64,
}

impl DatacenterConfig {
    /// A small test configuration.
    pub fn small_test() -> DatacenterConfig {
        DatacenterConfig {
            racks: 4,
            feed_fraction: 0.90,
            weeks: 2,
            step: SimDuration::from_minutes(15),
            seed: 42,
        }
    }
}

/// Outcome of the flat-vs-nested comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatacenterOutcome {
    /// Evaluated steps.
    pub steps: u64,
    /// Steps where the feed was exceeded under flat (rack-local) admission.
    pub feed_overloads_flat: u64,
    /// Steps where the feed was exceeded under nested admission.
    pub feed_overloads_nested: u64,
    /// Overclock grants under flat admission.
    pub grants_flat: u64,
    /// Overclock grants under nested admission.
    pub grants_nested: u64,
}

/// Run the comparison on a synthetic fleet.
///
/// # Panics
/// Panics if the configuration is degenerate (`racks == 0`, `weeks < 2`).
pub fn simulate_datacenter(config: &DatacenterConfig) -> DatacenterOutcome {
    assert!(config.racks > 0, "need at least one rack");
    assert!(
        config.weeks >= 2,
        "need a training week and an evaluation span"
    );
    let generator = TraceGenerator::new(config.seed);
    let mut fleet_cfg = FleetConfig::small_test();
    fleet_cfg.racks = config.racks;
    fleet_cfg.span = SimDuration::WEEK * config.weeks;
    fleet_cfg.step = config.step;
    fleet_cfg.keep_server_series = true;
    let racks: Vec<RackTrace> = (0..config.racks)
        .map(|r| generator.generate_rack(&fleet_cfg, r))
        .collect();
    let models: Vec<_> = racks
        .iter()
        .map(|r| generator.model_for(r.generation))
        .collect();

    let rack_limit_sum: Watts = racks.iter().map(|r| r.limit).sum();
    let feed = rack_limit_sum * config.feed_fraction;

    let mut outcome = DatacenterOutcome {
        steps: 0,
        feed_overloads_flat: 0,
        feed_overloads_nested: 0,
        grants_flat: 0,
        grants_nested: 0,
    };

    let start = SimTime::ZERO + SimDuration::WEEK;
    let end = SimTime::ZERO + SimDuration::WEEK * config.weeks;
    let mut t = start;
    while t < end {
        // Demand profiles at this instant (true baselines as the "template").
        let profiles: Vec<Vec<DemandProfile>> = racks
            .iter()
            .zip(&models)
            .map(|(rack, model)| {
                let oc_freq = model.plan().max_overclock();
                rack.servers
                    .iter()
                    .map(|s| {
                        let util = s.utilization.value_at(t).unwrap_or(0.5);
                        let cores = (s.oc_demand_cores.value_at(t).unwrap_or(0.0) as usize)
                            .min(model.cores());
                        DemandProfile {
                            regular: Watts::new(s.power.value_at(t).unwrap_or(0.0)),
                            overclock_demand: model.overclock_delta(
                                util.clamp(0.0, 1.0),
                                cores,
                                oc_freq,
                            ),
                        }
                    })
                    .collect()
            })
            .collect();

        // Flat: each rack splits its own provisioned limit.
        let flat_budgets: Vec<Vec<Watts>> = racks
            .iter()
            .zip(&profiles)
            .map(|(rack, servers)| {
                let mut budgets = Vec::with_capacity(servers.len());
                heterogeneous_split(rack.limit, servers, &mut budgets);
                budgets
            })
            .collect();
        // Nested: the feed is split first.
        let nested_budgets = nested_split(feed, &profiles);

        let admit = |budgets: &[Vec<Watts>], grants: &mut u64| -> Watts {
            let mut total = Watts::ZERO;
            for (r, servers) in profiles.iter().enumerate() {
                for (s, profile) in servers.iter().enumerate() {
                    total += profile.regular;
                    if profile.overclock_demand > Watts::ZERO
                        && profile.regular + profile.overclock_demand <= budgets[r][s]
                    {
                        total += profile.overclock_demand;
                        *grants += 1;
                    }
                }
            }
            total
        };
        let flat_draw = admit(&flat_budgets, &mut outcome.grants_flat);
        let nested_draw = admit(&nested_budgets, &mut outcome.grants_nested);
        if flat_draw >= feed {
            outcome.feed_overloads_flat += 1;
        }
        if nested_draw >= feed {
            outcome.feed_overloads_nested += 1;
        }
        outcome.steps += 1;
        t += config.step;
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(regular: f64, demand: f64) -> DemandProfile {
        DemandProfile {
            regular: Watts::new(regular),
            overclock_demand: Watts::new(demand),
        }
    }

    #[test]
    fn nested_split_conserves_at_both_levels() {
        let racks = vec![
            vec![profile(300.0, 40.0), profile(200.0, 0.0)],
            vec![
                profile(250.0, 20.0),
                profile(250.0, 20.0),
                profile(100.0, 0.0),
            ],
        ];
        let budgets = nested_split(Watts::new(1500.0), &racks);
        let total: f64 = budgets.iter().flatten().map(|b| b.get()).sum();
        assert!(
            (total - 1500.0).abs() < 1e-6,
            "datacenter budget must be conserved"
        );
        // Every server keeps at least its regular draw (feasible case).
        for (r, rack) in racks.iter().enumerate() {
            for (s, p) in rack.iter().enumerate() {
                assert!(budgets[r][s] + Watts::new(1e-9) >= p.regular);
            }
        }
    }

    #[test]
    fn demanding_rack_gets_more_headroom() {
        let racks = vec![vec![profile(300.0, 100.0)], vec![profile(300.0, 10.0)]];
        let budgets = nested_split(Watts::new(900.0), &racks);
        let extra0 = budgets[0][0].get() - 300.0;
        let extra1 = budgets[1][0].get() - 300.0;
        assert!(
            extra0 > extra1,
            "the demanding rack should receive more headroom"
        );
    }

    #[test]
    fn nested_enforcement_protects_the_feed() {
        let outcome = simulate_datacenter(&DatacenterConfig::small_test());
        assert!(outcome.steps > 0);
        assert!(
            outcome.feed_overloads_nested <= outcome.feed_overloads_flat,
            "nested budgets must not overload the feed more than flat ones \
             (nested {}, flat {})",
            outcome.feed_overloads_nested,
            outcome.feed_overloads_flat
        );
        // Nested admission is more conservative, so it grants no more.
        assert!(outcome.grants_nested <= outcome.grants_flat);
        // But it still grants something — it does not simply reject all.
        assert!(
            outcome.grants_nested > 0,
            "nested admission must keep granting"
        );
    }

    #[test]
    fn deterministic() {
        let a = simulate_datacenter(&DatacenterConfig::small_test());
        let b = simulate_datacenter(&DatacenterConfig::small_test());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "need at least one rack")]
    fn rejects_empty() {
        let mut cfg = DatacenterConfig::small_test();
        cfg.racks = 0;
        let _ = simulate_datacenter(&cfg);
    }
}
