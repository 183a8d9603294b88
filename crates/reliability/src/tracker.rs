//! Per-core time-in-state tracking.
//!
//! "Each sOA ensures that the overclocked time-in-state of a component
//! (e.g., per-core of a CPU) does not exceed limit. Tracking and enforcement
//! is per-server; an sOA uses mechanisms like Intel PMT for the time-in-state
//! tracking and denies overclocking requests if the budget is exhausted."
//! (paper §IV-B). [`TimeInState`] is the software stand-in for that vendor
//! telemetry, and [`TimeInState::find_core_with_budget`] implements the
//! core-migration exploration of §IV-D ("the sOA explores if any other cores
//! on a server have enough budget to support the VM's overclocking").

use simcore::time::SimDuration;

/// Per-core overclocked-time accounting against a per-core cap.
///
/// ```
/// use soc_reliability::tracker::TimeInState;
/// use simcore::time::SimDuration;
///
/// let mut t = TimeInState::new(4, SimDuration::from_hours(10));
/// t.record(0, SimDuration::from_hours(9));
/// assert!(t.has_budget(0, SimDuration::from_hours(1)));
/// assert!(!t.has_budget(0, SimDuration::from_hours(2)));
/// assert_eq!(t.find_core_with_budget(SimDuration::from_hours(2)), Some(1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeInState {
    per_core_cap: SimDuration,
    overclocked: Vec<SimDuration>,
}

impl TimeInState {
    /// Create a tracker for `cores` cores, each capped at `per_core_cap` of
    /// overclocked time in the current epoch.
    ///
    /// # Panics
    /// Panics if `cores == 0`.
    pub fn new(cores: usize, per_core_cap: SimDuration) -> TimeInState {
        assert!(cores > 0, "need at least one core");
        TimeInState {
            per_core_cap,
            overclocked: vec![SimDuration::ZERO; cores],
        }
    }

    /// Number of tracked cores.
    pub fn cores(&self) -> usize {
        self.overclocked.len()
    }

    /// The per-core cap.
    pub fn per_core_cap(&self) -> SimDuration {
        self.per_core_cap
    }

    /// Replace the per-core cap (epoch reconfiguration).
    pub fn set_per_core_cap(&mut self, cap: SimDuration) {
        self.per_core_cap = cap;
    }

    /// Overclocked time recorded against core `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn consumed(&self, i: usize) -> SimDuration {
        self.overclocked[i]
    }

    /// Remaining overclockable time on core `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn remaining(&self, i: usize) -> SimDuration {
        self.per_core_cap.saturating_sub(self.overclocked[i])
    }

    /// Whether core `i` can sustain `dt` more of overclocking.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn has_budget(&self, i: usize, dt: SimDuration) -> bool {
        self.remaining(i) >= dt
    }

    /// Record `dt` of overclocked time against core `i` (may exceed the cap;
    /// enforcement is the caller's admission decision, tracking is honest).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn record(&mut self, i: usize, dt: SimDuration) {
        self.overclocked[i] += dt;
    }

    /// First core with at least `dt` of budget remaining, if any — the
    /// migration target for a VM whose current cores are exhausted (§IV-D).
    pub fn find_core_with_budget(&self, dt: SimDuration) -> Option<usize> {
        (0..self.cores()).find(|&i| self.has_budget(i, dt))
    }

    /// Up to `n` distinct cores that can each sustain `dt`, preferring the
    /// least-worn cores (wear levelling). Returns fewer than `n` if not
    /// enough cores qualify.
    pub fn pick_cores(&self, n: usize, dt: SimDuration) -> Vec<usize> {
        let mut candidates: Vec<usize> = (0..self.cores())
            .filter(|&i| self.has_budget(i, dt))
            .collect();
        candidates.sort_by_key(|&i| (self.overclocked[i].as_micros(), i));
        candidates.truncate(n);
        candidates
    }

    /// Total overclocked time across cores.
    pub fn total_consumed(&self) -> SimDuration {
        self.overclocked
            .iter()
            .fold(SimDuration::ZERO, |a, &b| a + b)
    }

    /// Reset all counters (epoch rollover).
    pub fn reset(&mut self) {
        for v in &mut self.overclocked {
            *v = SimDuration::ZERO;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fresh_tracker_has_full_budget() {
        let t = TimeInState::new(8, SimDuration::from_hours(5));
        for i in 0..8 {
            assert_eq!(t.remaining(i), SimDuration::from_hours(5));
        }
        assert_eq!(t.total_consumed(), SimDuration::ZERO);
    }

    #[test]
    fn record_and_remaining() {
        let mut t = TimeInState::new(2, SimDuration::from_hours(5));
        t.record(0, SimDuration::from_hours(3));
        assert_eq!(t.remaining(0), SimDuration::from_hours(2));
        assert_eq!(t.remaining(1), SimDuration::from_hours(5));
        assert_eq!(t.total_consumed(), SimDuration::from_hours(3));
    }

    #[test]
    fn overconsumption_clamps_remaining_to_zero() {
        let mut t = TimeInState::new(1, SimDuration::from_hours(1));
        t.record(0, SimDuration::from_hours(3));
        assert_eq!(t.remaining(0), SimDuration::ZERO);
        assert!(!t.has_budget(0, SimDuration::from_micros(1)));
    }

    #[test]
    fn find_core_skips_exhausted() {
        let mut t = TimeInState::new(3, SimDuration::from_hours(2));
        t.record(0, SimDuration::from_hours(2));
        t.record(1, SimDuration::from_hours(1));
        assert_eq!(t.find_core_with_budget(SimDuration::from_hours(2)), Some(2));
        assert_eq!(t.find_core_with_budget(SimDuration::from_hours(1)), Some(1));
        assert_eq!(t.find_core_with_budget(SimDuration::from_hours(5)), None);
    }

    #[test]
    fn pick_cores_prefers_least_worn() {
        let mut t = TimeInState::new(4, SimDuration::from_hours(10));
        t.record(0, SimDuration::from_hours(5));
        t.record(1, SimDuration::from_hours(1));
        t.record(2, SimDuration::from_hours(3));
        let picked = t.pick_cores(2, SimDuration::from_hours(1));
        assert_eq!(picked, vec![3, 1]);
    }

    #[test]
    fn pick_cores_returns_fewer_when_exhausted() {
        let mut t = TimeInState::new(2, SimDuration::from_hours(1));
        t.record(0, SimDuration::from_hours(1));
        let picked = t.pick_cores(2, SimDuration::from_minutes(30));
        assert_eq!(picked, vec![1]);
    }

    #[test]
    fn reset_restores_budget() {
        let mut t = TimeInState::new(2, SimDuration::from_hours(1));
        t.record(0, SimDuration::from_hours(1));
        t.reset();
        assert_eq!(t.remaining(0), SimDuration::from_hours(1));
    }

    proptest! {
        #[test]
        fn total_equals_sum_of_cores(
            records in prop::collection::vec((0usize..8, 0u64..100), 0..50)
        ) {
            let mut t = TimeInState::new(8, SimDuration::from_hours(1000));
            let mut expected = 0u64;
            for &(core, mins) in &records {
                t.record(core, SimDuration::from_minutes(mins));
                expected += mins;
            }
            prop_assert_eq!(t.total_consumed(), SimDuration::from_minutes(expected));
        }

        #[test]
        fn picked_cores_always_have_budget(
            records in prop::collection::vec((0usize..4, 0u64..120), 0..20),
            want in 1usize..4,
        ) {
            let mut t = TimeInState::new(4, SimDuration::from_hours(1));
            for &(core, mins) in &records {
                t.record(core, SimDuration::from_minutes(mins));
            }
            let dt = SimDuration::from_minutes(30);
            for core in t.pick_cores(want, dt) {
                prop_assert!(t.has_budget(core, dt));
            }
        }
    }
}
