//! Rack-level power monitoring: warning threshold, capping events, and
//! prioritized throttling.
//!
//! The paper's rack manager "sends a warning message to all sOAs when the
//! rack's power draw reaches a warning threshold (e.g., 95% of the rack's
//! power limit)" (§IV-D), and providers use prioritized capping to protect
//! critical workloads when the limit itself is hit (§II, §VII).

use crate::units::Watts;

/// Outcome of one rack power observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RackSignal {
    /// Draw below the warning threshold.
    Normal,
    /// Draw at or above the warning threshold but below the limit; sOAs in
    /// the exploration phase must back off.
    Warning,
    /// Draw at or above the rack limit; the capping mechanism engages.
    Capping,
}

/// Monitors a rack's aggregate draw against its provisioned limit.
///
/// ```
/// use soc_power::rack::{RackMonitor, RackSignal};
/// use soc_power::units::Watts;
///
/// let mut rack = RackMonitor::new(Watts::new(1000.0), 0.95);
/// assert_eq!(rack.observe(Watts::new(900.0)), RackSignal::Normal);
/// assert_eq!(rack.observe(Watts::new(960.0)), RackSignal::Warning);
/// assert_eq!(rack.observe(Watts::new(1010.0)), RackSignal::Capping);
/// assert_eq!(rack.capping_events(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RackMonitor {
    limit: Watts,
    warning_fraction: f64,
    capping_events: u64,
    in_capping: bool,
    peak: Watts,
}

impl RackMonitor {
    /// Create a monitor.
    ///
    /// # Panics
    /// Panics if `limit` is not positive or `warning_fraction` is outside
    /// `(0, 1]`.
    pub fn new(limit: Watts, warning_fraction: f64) -> RackMonitor {
        assert!(limit.get() > 0.0, "rack limit must be positive");
        assert!(
            warning_fraction > 0.0 && warning_fraction <= 1.0,
            "warning fraction must be in (0, 1]"
        );
        RackMonitor {
            limit,
            warning_fraction,
            capping_events: 0,
            in_capping: false,
            peak: Watts::ZERO,
        }
    }

    /// The rack power limit.
    pub fn limit(&self) -> Watts {
        self.limit
    }

    /// The absolute warning threshold.
    fn warning_threshold(&self) -> Watts {
        self.limit * self.warning_fraction
    }

    /// Record one aggregate draw observation and classify it.
    ///
    /// Consecutive over-limit observations count as a **single** capping
    /// event; the event ends once the draw falls back below the limit.
    pub fn observe(&mut self, draw: Watts) -> RackSignal {
        self.peak = self.peak.max(draw);
        if draw >= self.limit {
            if !self.in_capping {
                self.in_capping = true;
                self.capping_events += 1;
            }
            RackSignal::Capping
        } else {
            self.in_capping = false;
            if draw >= self.warning_threshold() {
                RackSignal::Warning
            } else {
                RackSignal::Normal
            }
        }
    }

    /// Number of distinct capping events so far.
    pub fn capping_events(&self) -> u64 {
        self.capping_events
    }

    /// Highest observed draw.
    pub fn peak(&self) -> Watts {
        self.peak
    }

    /// Whether the rack is currently inside a capping event.
    pub fn is_capping(&self) -> bool {
        self.in_capping
    }

    /// Headroom below the limit for the given draw (zero when over).
    pub fn headroom(&self, draw: Watts) -> Watts {
        (self.limit - draw).clamp_non_negative()
    }
}

/// One server's view for the prioritized capping computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapCandidate {
    /// Opaque server index (position in the caller's server list).
    pub index: usize,
    /// Higher value = more important = capped last.
    pub priority: u32,
    /// Current draw.
    pub draw: Watts,
    /// Floor the server can be throttled down to.
    pub min_draw: Watts,
}

/// Compute how much power each server must shed so total draw fits under
/// `limit`, capping low-priority servers first (prioritized capping, §II).
///
/// Returns `(index, shed)` pairs for servers that must reduce power. If even
/// throttling everything to its floor cannot satisfy the limit, all servers
/// are pushed to their floors (best effort).
///
/// # Panics
/// Panics if any candidate has `min_draw > draw`.
pub fn prioritized_shed(candidates: &[CapCandidate], limit: Watts) -> Vec<(usize, Watts)> {
    for c in candidates {
        assert!(
            c.min_draw <= c.draw,
            "candidate {} has min_draw above current draw",
            c.index
        );
    }
    let total: Watts = candidates.iter().map(|c| c.draw).sum();
    let mut excess = total - limit;
    if excess <= Watts::ZERO {
        return Vec::new();
    }
    // Lowest priority first; ties broken by index for determinism.
    let mut order: Vec<&CapCandidate> = candidates.iter().collect();
    order.sort_by_key(|c| (c.priority, c.index));
    let mut sheds = Vec::new();
    for c in order {
        if excess <= Watts::ZERO {
            break;
        }
        let available = c.draw - c.min_draw;
        let shed = available.min(excess);
        if shed > Watts::ZERO {
            sheds.push((c.index, shed));
            excess -= shed;
        }
    }
    sheds
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn classification_thresholds() {
        let mut r = RackMonitor::new(Watts::new(100.0), 0.9);
        assert_eq!(r.observe(Watts::new(50.0)), RackSignal::Normal);
        assert_eq!(r.observe(Watts::new(90.0)), RackSignal::Warning);
        assert_eq!(r.observe(Watts::new(100.0)), RackSignal::Capping);
    }

    #[test]
    fn consecutive_overload_is_one_event() {
        let mut r = RackMonitor::new(Watts::new(100.0), 0.95);
        r.observe(Watts::new(120.0));
        r.observe(Watts::new(130.0));
        r.observe(Watts::new(110.0));
        assert_eq!(r.capping_events(), 1);
        r.observe(Watts::new(80.0));
        r.observe(Watts::new(105.0));
        assert_eq!(r.capping_events(), 2);
    }

    #[test]
    fn peak_and_headroom() {
        let mut r = RackMonitor::new(Watts::new(100.0), 0.95);
        r.observe(Watts::new(70.0));
        r.observe(Watts::new(85.0));
        assert_eq!(r.peak(), Watts::new(85.0));
        assert_eq!(r.headroom(Watts::new(85.0)), Watts::new(15.0));
        assert_eq!(r.headroom(Watts::new(120.0)), Watts::ZERO);
    }

    #[test]
    fn shed_nothing_when_under_limit() {
        let cands = [CapCandidate {
            index: 0,
            priority: 1,
            draw: Watts::new(50.0),
            min_draw: Watts::new(20.0),
        }];
        assert!(prioritized_shed(&cands, Watts::new(100.0)).is_empty());
    }

    #[test]
    fn shed_low_priority_first() {
        let cands = [
            CapCandidate {
                index: 0,
                priority: 10,
                draw: Watts::new(60.0),
                min_draw: Watts::new(30.0),
            },
            CapCandidate {
                index: 1,
                priority: 1,
                draw: Watts::new(60.0),
                min_draw: Watts::new(30.0),
            },
        ];
        // Total 120, limit 100 → shed 20, all from server 1 (low priority).
        let sheds = prioritized_shed(&cands, Watts::new(100.0));
        assert_eq!(sheds, vec![(1, Watts::new(20.0))]);
    }

    #[test]
    fn shed_cascades_to_higher_priority() {
        let cands = [
            CapCandidate {
                index: 0,
                priority: 10,
                draw: Watts::new(60.0),
                min_draw: Watts::new(30.0),
            },
            CapCandidate {
                index: 1,
                priority: 1,
                draw: Watts::new(60.0),
                min_draw: Watts::new(50.0),
            },
        ];
        // Shed 20: server 1 can only give 10, server 0 gives the rest.
        let sheds = prioritized_shed(&cands, Watts::new(100.0));
        assert_eq!(sheds, vec![(1, Watts::new(10.0)), (0, Watts::new(10.0))]);
    }

    #[test]
    fn shed_best_effort_when_infeasible() {
        let cands = [CapCandidate {
            index: 0,
            priority: 1,
            draw: Watts::new(60.0),
            min_draw: Watts::new(55.0),
        }];
        let sheds = prioritized_shed(&cands, Watts::new(10.0));
        assert_eq!(sheds, vec![(0, Watts::new(5.0))]);
    }

    proptest! {
        #[test]
        fn shed_never_exceeds_available(
            draws in prop::collection::vec((20.0..100.0f64, 0.0..1.0f64, 0u32..4), 1..10),
            limit in 10.0..500.0f64,
        ) {
            let cands: Vec<CapCandidate> = draws
                .iter()
                .enumerate()
                .map(|(i, &(d, minfrac, pri))| CapCandidate {
                    index: i,
                    priority: pri,
                    draw: Watts::new(d),
                    min_draw: Watts::new(d * minfrac),
                })
                .collect();
            let sheds = prioritized_shed(&cands, Watts::new(limit));
            for (idx, shed) in &sheds {
                let c = cands[*idx];
                prop_assert!(shed.get() <= (c.draw - c.min_draw).get() + 1e-9);
                prop_assert!(shed.get() > 0.0);
            }
            // After shedding, either we are under the limit or every candidate
            // is at its floor.
            let total: f64 = cands.iter().map(|c| c.draw.get()).sum();
            let shed_total: f64 = sheds.iter().map(|(_, s)| s.get()).sum();
            let remaining = total - shed_total;
            let floor: f64 = cands.iter().map(|c| c.min_draw.get()).sum();
            prop_assert!(remaining <= limit + 1e-6 || (remaining - floor).abs() < 1e-6);
        }
    }
}
