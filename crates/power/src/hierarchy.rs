//! The datacenter power-delivery hierarchy.
//!
//! "The power delivery system in a cloud datacenter is organized in a
//! hierarchy; the power budget of each parent node is split equally among its
//! children" (§II). SmartOClock's gOA replaces that even split with a
//! heterogeneous one that first covers each child's regular draw and then
//! shares the headroom by overclocking demand (§IV-C).

use crate::units::Watts;

/// One child's demand profile for [`heterogeneous_split`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemandProfile {
    /// Predicted regular (non-overclock) power consumption.
    pub regular: Watts,
    /// Predicted *extra* power wanted for overclocking.
    pub overclock_demand: Watts,
}

/// SmartOClock's heterogeneous budget computation (§IV-C): clears `out` and
/// fills it with one budget per child, reusing its capacity.
///
/// Phase 1/2: every child is first granted its regular consumption. Phase 3:
/// the remaining headroom is split **proportionally to overclocking demand**.
/// Reproduces the paper's worked example:
///
/// ```
/// use soc_power::hierarchy::{heterogeneous_split, DemandProfile};
/// use soc_power::units::Watts;
///
/// // Rack limit 1.3kW; X: 400W regular + 50W OC demand; Y: 300W + 100W.
/// let mut budgets = Vec::new();
/// heterogeneous_split(
///     Watts::new(1300.0),
///     &[
///         DemandProfile { regular: Watts::new(400.0), overclock_demand: Watts::new(50.0) },
///         DemandProfile { regular: Watts::new(300.0), overclock_demand: Watts::new(100.0) },
///     ],
///     &mut budgets,
/// );
/// assert_eq!(budgets, vec![Watts::new(600.0), Watts::new(700.0)]);
/// ```
///
/// Children with zero overclocking demand receive an equal share of whatever
/// headroom remains after demand-proportional grants would be zero — i.e.
/// when *no* child wants to overclock, the headroom is split evenly (keeping
/// the assignment safe for non-participating workloads).
///
/// If the regular consumption alone exceeds the budget, each child's regular
/// share is scaled down proportionally and no overclock headroom is granted.
///
/// The per-step hot path of the large-scale simulation calls this every
/// budget refresh, so steady-state allocation counts must not scale with
/// simulated steps.
///
/// # Panics
/// Panics if `children` is empty or any demand is negative.
pub fn heterogeneous_split(budget: Watts, children: &[DemandProfile], out: &mut Vec<Watts>) {
    assert!(!children.is_empty(), "cannot split across zero children");
    for c in children {
        assert!(
            c.regular.get() >= 0.0 && c.overclock_demand.get() >= 0.0,
            "demands must be non-negative"
        );
    }
    out.clear();
    let regular_total: Watts = children.iter().map(|c| c.regular).sum();
    if regular_total > budget {
        // Infeasible even without overclocking: scale proportionally.
        let scale = budget.ratio(regular_total);
        out.extend(children.iter().map(|c| c.regular * scale));
        return;
    }
    let headroom = budget - regular_total;
    let demand_total: Watts = children.iter().map(|c| c.overclock_demand).sum();
    if demand_total.get() <= 0.0 {
        // No overclocking demand anywhere: split headroom evenly.
        let share = headroom / children.len() as f64;
        out.extend(children.iter().map(|c| c.regular + share));
        return;
    }
    out.extend(
        children
            .iter()
            .map(|c| c.regular + headroom * c.overclock_demand.ratio(demand_total)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// 32 servers with random regular draw and, for about half of them,
    /// overclock demand; the limit covers the regular draw plus half of the
    /// demand.
    fn oversubscribed_rack() -> (Watts, Vec<DemandProfile>) {
        let mut rng = simcore::rng::Pcg32::seed_from_u64(7);
        let profiles: Vec<DemandProfile> = (0..32)
            .map(|_| DemandProfile {
                regular: Watts::new(rng.gen_range_f64(150.0, 400.0)),
                overclock_demand: Watts::new(if rng.gen_bool(0.5) {
                    rng.gen_range_f64(0.0, 80.0)
                } else {
                    0.0
                }),
            })
            .collect();
        let regular: f64 = profiles.iter().map(|p| p.regular.get()).sum();
        let demand: f64 = profiles.iter().map(|p| p.overclock_demand.get()).sum();
        (Watts::new(regular + 0.5 * demand), profiles)
    }

    /// [`heterogeneous_split`] into a fresh vector.
    fn split(budget: Watts, children: &[DemandProfile]) -> Vec<Watts> {
        let mut out = Vec::new();
        heterogeneous_split(budget, children, &mut out);
        out
    }

    /// Servers whose budget does not cover their regular draw.
    fn starved(budgets: &[Watts], profiles: &[DemandProfile]) -> usize {
        budgets
            .iter()
            .zip(profiles)
            .filter(|(b, p)| **b < p.regular)
            .count()
    }

    /// §IV-C: an even split of the rack limit throttles power-hungry
    /// servers below their regular draw; the heterogeneous split never does
    /// while the limit covers the regular total.
    #[test]
    fn heterogeneous_split_starves_none_where_even_split_starves_some() {
        let (limit, profiles) = oversubscribed_rack();
        let hetero = split(limit, &profiles);
        let even = vec![limit / profiles.len() as f64; profiles.len()];
        assert_eq!(starved(&hetero, &profiles), 0);
        assert!(starved(&even, &profiles) > 0);
    }

    #[test]
    fn paper_example_budgets() {
        let budgets = split(
            Watts::new(1300.0),
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
        );
        assert_eq!(budgets, vec![Watts::new(600.0), Watts::new(700.0)]);
    }

    #[test]
    fn no_demand_splits_headroom_evenly() {
        let budgets = split(
            Watts::new(1000.0),
            &[
                DemandProfile {
                    regular: Watts::new(300.0),
                    overclock_demand: Watts::ZERO,
                },
                DemandProfile {
                    regular: Watts::new(500.0),
                    overclock_demand: Watts::ZERO,
                },
            ],
        );
        assert_eq!(budgets, vec![Watts::new(400.0), Watts::new(600.0)]);
    }

    #[test]
    fn infeasible_regular_scales_down() {
        let budgets = split(
            Watts::new(600.0),
            &[
                DemandProfile {
                    regular: Watts::new(400.0),
                    overclock_demand: Watts::new(50.0),
                },
                DemandProfile {
                    regular: Watts::new(800.0),
                    overclock_demand: Watts::ZERO,
                },
            ],
        );
        assert_eq!(budgets, vec![Watts::new(200.0), Watts::new(400.0)]);
    }

    proptest! {
        #[test]
        fn split_conserves_budget(
            budget in 100.0..10_000.0f64,
            profiles in prop::collection::vec((0.0..500.0f64, 0.0..100.0f64), 1..20),
        ) {
            let children: Vec<DemandProfile> = profiles
                .iter()
                .map(|&(r, o)| DemandProfile {
                    regular: Watts::new(r),
                    overclock_demand: Watts::new(o),
                })
                .collect();
            let budgets = split(Watts::new(budget), &children);
            let total: f64 = budgets.iter().map(|b| b.get()).sum();
            let regular_total: f64 = children.iter().map(|c| c.regular.get()).sum();
            if regular_total <= budget {
                // Entire budget distributed (exactly, modulo fp error).
                prop_assert!((total - budget).abs() < 1e-6);
                // Everyone keeps at least their regular power.
                for (b, c) in budgets.iter().zip(&children) {
                    prop_assert!(b.get() >= c.regular.get() - 1e-9);
                }
            } else {
                prop_assert!((total - budget).abs() < 1e-6);
            }
        }

        #[test]
        fn bigger_demand_never_gets_smaller_extra(
            budget in 1_000.0..5_000.0f64,
            r1 in 0.0..300.0f64, r2 in 0.0..300.0f64,
            d1 in 0.0..100.0f64, d2 in 0.0..100.0f64,
        ) {
            let children = [
                DemandProfile { regular: Watts::new(r1), overclock_demand: Watts::new(d1) },
                DemandProfile { regular: Watts::new(r2), overclock_demand: Watts::new(d2) },
            ];
            let budgets = split(Watts::new(budget), &children);
            let extra1 = budgets[0].get() - r1;
            let extra2 = budgets[1].get() - r2;
            if d1 > d2 {
                prop_assert!(extra1 >= extra2 - 1e-9);
            }
        }
    }
}
