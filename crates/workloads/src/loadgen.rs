//! Arrival-rate schedules.
//!
//! An open-loop load generator needs a rate function λ(t). [`RateSchedule`]
//! is piecewise constant, which composes cleanly with the event-driven
//! simulator (exponential inter-arrivals within a segment) and is expressive
//! enough for the paper's load patterns: steady low/medium/high levels
//! (Figs. 2–3), diurnal ramps, and transient spikes (§I).

use simcore::time::{SimDuration, SimTime};

/// A piecewise-constant arrival-rate schedule (requests per second).
///
/// ```
/// use soc_workloads::loadgen::RateSchedule;
/// use simcore::time::{SimDuration, SimTime};
///
/// let sched = RateSchedule::constant(100.0)
///     .with_segment(SimTime::from_secs(60), 250.0);
/// assert_eq!(sched.rate_at(SimTime::from_secs(30)), 100.0);
/// assert_eq!(sched.rate_at(SimTime::from_secs(90)), 250.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RateSchedule {
    /// `(start, rate)` pairs, sorted by start; the first segment starts at 0.
    segments: Vec<(SimTime, f64)>,
}

impl RateSchedule {
    /// A constant rate from time zero.
    ///
    /// # Panics
    /// Panics if `rate` is negative or not finite.
    pub fn constant(rate: f64) -> RateSchedule {
        assert!(
            rate.is_finite() && rate >= 0.0,
            "rate must be finite and non-negative"
        );
        RateSchedule {
            segments: vec![(SimTime::ZERO, rate)],
        }
    }

    /// Append a segment starting at `start` with the given rate.
    ///
    /// # Panics
    /// Panics if `start` is not after the previous segment's start, or the
    /// rate is invalid.
    pub fn with_segment(mut self, start: SimTime, rate: f64) -> RateSchedule {
        assert!(
            rate.is_finite() && rate >= 0.0,
            "rate must be finite and non-negative"
        );
        let last = self
            .segments
            .last()
            .expect("schedule always has a segment")
            .0;
        assert!(
            start > last,
            "segments must be appended in increasing time order"
        );
        self.segments.push((start, rate));
        self
    }

    /// A repeating burst pattern: `base` rate with `peak`-rate bursts of
    /// `burst_len` starting every `period`, beginning at time zero.
    ///
    /// # Panics
    /// Panics if `burst_len >= period`, either is zero, or rates are invalid.
    pub fn bursty(
        base: f64,
        peak: f64,
        period: SimDuration,
        burst_len: SimDuration,
        total: SimDuration,
    ) -> RateSchedule {
        assert!(
            !period.is_zero() && !burst_len.is_zero(),
            "period and burst must be non-zero"
        );
        assert!(burst_len < period, "burst must be shorter than the period");
        let mut sched = RateSchedule::constant(peak);
        let mut t = SimTime::ZERO;
        let end = SimTime::ZERO + total;
        loop {
            let burst_end = t + burst_len;
            if burst_end >= end {
                break;
            }
            sched = sched.with_segment(burst_end, base);
            let next = t + period;
            if next >= end {
                break;
            }
            sched = sched.with_segment(next, peak);
            t = next;
        }
        sched
    }

    /// The rate at instant `t`.
    pub fn rate_at(&self, t: SimTime) -> f64 {
        let idx = self.segments.partition_point(|&(s, _)| s <= t);
        self.segments[idx.saturating_sub(1).min(self.segments.len() - 1)].1
    }

    /// Start of the next segment strictly after `t`, if any.
    pub fn next_change_after(&self, t: SimTime) -> Option<SimTime> {
        let idx = self.segments.partition_point(|&(s, _)| s <= t);
        self.segments.get(idx).map(|&(s, _)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_everywhere() {
        let s = RateSchedule::constant(5.0);
        assert_eq!(s.rate_at(SimTime::ZERO), 5.0);
        assert_eq!(s.rate_at(SimTime::from_secs(1_000_000)), 5.0);
        assert_eq!(s.next_change_after(SimTime::ZERO), None);
    }

    #[test]
    fn segments_switch_at_boundaries() {
        let s = RateSchedule::constant(1.0)
            .with_segment(SimTime::from_secs(10), 2.0)
            .with_segment(SimTime::from_secs(20), 0.5);
        assert_eq!(s.rate_at(SimTime::from_secs(9)), 1.0);
        assert_eq!(s.rate_at(SimTime::from_secs(10)), 2.0);
        assert_eq!(s.rate_at(SimTime::from_secs(25)), 0.5);
        assert_eq!(
            s.next_change_after(SimTime::from_secs(10)),
            Some(SimTime::from_secs(20))
        );
    }

    #[test]
    fn bursty_alternates() {
        let s = RateSchedule::bursty(
            10.0,
            100.0,
            SimDuration::from_secs(60),
            SimDuration::from_secs(5),
            SimDuration::from_secs(180),
        );
        assert_eq!(s.rate_at(SimTime::from_secs(2)), 100.0); // in burst
        assert_eq!(s.rate_at(SimTime::from_secs(30)), 10.0); // between bursts
        assert_eq!(s.rate_at(SimTime::from_secs(62)), 100.0); // next burst
    }

    #[test]
    #[should_panic(expected = "increasing time order")]
    fn rejects_out_of_order_segments() {
        let _ = RateSchedule::constant(1.0)
            .with_segment(SimTime::from_secs(10), 2.0)
            .with_segment(SimTime::from_secs(5), 3.0);
    }
}
