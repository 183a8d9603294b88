//! Regularly-sampled time series.
//!
//! Production traces in the paper are collected at a 5-minute granularity
//! (§V-B). [`TimeSeries`] models exactly that: a start time, a fixed step,
//! and one `f64` sample per step. [`TimeSeries::daily_profile`] implements
//! the per-slot aggregation the power templates are built from.

use crate::stats::{mean, percentile};
use crate::time::{SimDuration, SimTime, Weekday};

/// A regularly-sampled series of `f64` values.
///
/// ```
/// use simcore::series::TimeSeries;
/// use simcore::time::{SimDuration, SimTime};
///
/// let ts = TimeSeries::from_values(
///     SimTime::ZERO,
///     SimDuration::from_minutes(5),
///     vec![1.0, 2.0, 3.0],
/// );
/// assert_eq!(ts.len(), 3);
/// assert_eq!(ts.value_at(SimTime::ZERO + SimDuration::from_minutes(7)), Some(2.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    start: SimTime,
    step: SimDuration,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Create an empty series.
    ///
    /// # Panics
    /// Panics if `step` is zero.
    pub fn new(start: SimTime, step: SimDuration) -> TimeSeries {
        assert!(!step.is_zero(), "step must be non-zero");
        TimeSeries {
            start,
            step,
            values: Vec::new(),
        }
    }

    /// Create a series from existing values.
    ///
    /// # Panics
    /// Panics if `step` is zero.
    pub fn from_values(start: SimTime, step: SimDuration, values: Vec<f64>) -> TimeSeries {
        assert!(!step.is_zero(), "step must be non-zero");
        TimeSeries {
            start,
            step,
            values,
        }
    }

    /// Generate a series by sampling `f` at each tick in `[start, end)`.
    ///
    /// # Panics
    /// Panics if `step` is zero or `end < start`.
    pub fn generate<F: FnMut(SimTime) -> f64>(
        start: SimTime,
        end: SimTime,
        step: SimDuration,
        mut f: F,
    ) -> TimeSeries {
        let values = crate::time::ticks(start, end, step).map(&mut f).collect();
        TimeSeries {
            start,
            step,
            values,
        }
    }

    /// First sample's timestamp.
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// Sampling interval.
    pub fn step(&self) -> SimDuration {
        self.step
    }

    /// One-past-the-last timestamp covered by the series.
    pub fn end(&self) -> SimTime {
        self.start + self.step * self.values.len() as u64
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Append one sample at the next tick.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// The raw sample values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Timestamp of sample `i`.
    pub fn time_at_index(&self, i: usize) -> SimTime {
        self.start + self.step * i as u64
    }

    /// Slot index of the sample covering instant `t`, or `None` if `t` is
    /// before the series start. The index may be past the end of the data;
    /// `value_at(t) == self.values().get(self.index_at(t)?)`. Batched
    /// consumers (the columnar rack engine) compute the index once per step
    /// and probe many same-shaped series with it.
    pub fn index_at(&self, t: SimTime) -> Option<usize> {
        if t < self.start {
            return None;
        }
        Some((t.since(self.start).as_micros() / self.step.as_micros()) as usize)
    }

    /// Sample covering instant `t`, if within range.
    pub fn value_at(&self, t: SimTime) -> Option<f64> {
        self.values.get(self.index_at(t)?).copied()
    }

    /// Iterate over `(timestamp, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(|(i, &v)| (self.time_at_index(i), v))
    }

    /// Element-wise sum of multiple series with identical start/step/len.
    ///
    /// Used to aggregate per-server power into rack power.
    ///
    /// # Panics
    /// Panics if `series` is empty or shapes differ.
    pub fn sum_of(series: &[&TimeSeries]) -> TimeSeries {
        let first = *series.first().expect("need at least one series");
        for s in series {
            assert_eq!(s.start, first.start, "mismatched start");
            assert_eq!(s.step, first.step, "mismatched step");
            assert_eq!(s.len(), first.len(), "mismatched length");
        }
        let values = (0..first.len())
            .map(|i| series.iter().map(|s| s.values[i]).sum())
            .collect();
        TimeSeries {
            start: first.start,
            step: first.step,
            values,
        }
    }

    /// Apply a function to every value, producing a new series.
    pub fn map<F: FnMut(f64) -> f64>(&self, f: F) -> TimeSeries {
        TimeSeries {
            start: self.start,
            step: self.step,
            values: self.values.iter().copied().map(f).collect(),
        }
    }

    /// Sub-series covering `[from, to)` (clamped to the available range).
    pub fn slice(&self, from: SimTime, to: SimTime) -> TimeSeries {
        let range = self.index_range(from, to);
        TimeSeries {
            start: self.time_at_index(range.start),
            step: self.step,
            values: self.values[range].to_vec(),
        }
    }

    /// Sample indices of [`TimeSeries::slice`]`(from, to)`: the samples at
    /// or after `from` and before `to`, clamped to the available range.
    /// Series aligned with this one (same start and step) are sliced at the
    /// same indices.
    pub fn index_range(&self, from: SimTime, to: SimTime) -> std::ops::Range<usize> {
        let lo = if from <= self.start {
            0
        } else {
            from.since(self.start)
                .as_micros()
                .div_ceil(self.step.as_micros()) as usize
        };
        let hi = if to <= self.start {
            0
        } else {
            to.since(self.start)
                .as_micros()
                .div_ceil(self.step.as_micros()) as usize
        };
        let lo = lo.min(self.values.len());
        let hi = hi.min(self.values.len()).max(lo);
        lo..hi
    }

    /// Per-day-slot aggregate over selected weekdays, one value per
    /// slot-within-day; slots with no samples yield `f64::NAN`.
    ///
    /// Slot `i` aggregates every sample whose time of day falls in slot `i`,
    /// in time order. This is the aggregation behind the paper's
    /// *DailyMed*/*DailyMax* templates ("the template's value at 9AM is the
    /// median of rack's power consumption at 9AM across all five weekdays",
    /// §IV-B). `day_filter` selects which weekdays participate (e.g.
    /// weekdays only). `aggregate` may reorder the slice it is given, which
    /// is one scratch buffer reused across slots.
    ///
    /// # Panics
    /// Panics if the step does not divide a day evenly.
    pub fn daily_profile<F: Fn(Weekday) -> bool, A: FnMut(&mut [f64]) -> f64>(
        &self,
        day_filter: F,
        mut aggregate: A,
    ) -> Vec<f64> {
        let step = self.step.as_micros();
        assert!(
            SimDuration::DAY.as_micros().is_multiple_of(step),
            "step must divide a day evenly"
        );
        let slots_per_day = (SimDuration::DAY.as_micros() / step) as usize;
        // Sample `i` falls in slot `(first + i) % slots_per_day`, on day
        // `(first + i) / slots_per_day` of the series, whose day `k` holds
        // `start + k days` (a start off a step boundary never crosses a
        // midnight early, since the step divides the day). So the filter is
        // decided once per day.
        let first = (self.start.time_of_day().as_micros() / step) as usize;
        let days = (first + self.values.len()).div_ceil(slots_per_day);
        let keep: Vec<bool> = (0..days as u64)
            .map(|k| day_filter((self.start + SimDuration::DAY * k).weekday()))
            .collect();
        let mut bucket = Vec::with_capacity(self.values.len().div_ceil(slots_per_day));
        (0..slots_per_day)
            .map(|slot| {
                let offset = (slot + slots_per_day - first) % slots_per_day;
                // Successive samples of a slot are one day apart.
                let day = (first + offset) / slots_per_day;
                bucket.clear();
                bucket.extend(
                    self.values
                        .iter()
                        .skip(offset)
                        .step_by(slots_per_day)
                        .zip(keep.iter().skip(day))
                        .filter(|&(_, &k)| k)
                        .map(|(&v, _)| v),
                );
                if bucket.is_empty() {
                    f64::NAN
                } else {
                    aggregate(&mut bucket)
                }
            })
            .collect()
    }

    /// Mean of all samples.
    ///
    /// # Panics
    /// Panics if the series is empty.
    pub fn mean(&self) -> f64 {
        mean(&self.values)
    }

    /// Percentile of all samples.
    ///
    /// # Panics
    /// Panics if the series is empty or `p` outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        percentile(&self.values, p)
    }

    /// Maximum sample.
    ///
    /// # Panics
    /// Panics if the series is empty.
    pub fn max(&self) -> f64 {
        assert!(!self.values.is_empty(), "max of an empty series");
        self.values
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Minimum sample.
    ///
    /// # Panics
    /// Panics if the series is empty.
    pub fn min(&self) -> f64 {
        assert!(!self.values.is_empty(), "min of an empty series");
        self.values.iter().cloned().fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn five_min_series(days: u64, f: impl FnMut(SimTime) -> f64) -> TimeSeries {
        TimeSeries::generate(
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_days(days),
            SimDuration::from_minutes(5),
            f,
        )
    }

    #[test]
    fn generate_has_expected_length() {
        let ts = five_min_series(1, |_| 1.0);
        assert_eq!(ts.len(), 288); // 24h * 12 samples/h
        assert_eq!(ts.end(), SimTime::ZERO + SimDuration::from_days(1));
    }

    #[test]
    fn value_at_picks_covering_sample() {
        let ts = TimeSeries::from_values(
            SimTime::from_secs(100),
            SimDuration::from_secs(10),
            vec![1.0, 2.0, 3.0],
        );
        assert_eq!(ts.value_at(SimTime::from_secs(99)), None);
        assert_eq!(ts.value_at(SimTime::from_secs(100)), Some(1.0));
        assert_eq!(ts.value_at(SimTime::from_secs(119)), Some(2.0));
        assert_eq!(ts.value_at(SimTime::from_secs(130)), None);
    }

    #[test]
    fn sum_of_aggregates_elementwise() {
        let a = TimeSeries::from_values(SimTime::ZERO, SimDuration::SECOND, vec![1.0, 2.0]);
        let b = TimeSeries::from_values(SimTime::ZERO, SimDuration::SECOND, vec![10.0, 20.0]);
        let s = TimeSeries::sum_of(&[&a, &b]);
        assert_eq!(s.values(), &[11.0, 22.0]);
    }

    #[test]
    #[should_panic(expected = "mismatched length")]
    fn sum_of_rejects_shape_mismatch() {
        let a = TimeSeries::from_values(SimTime::ZERO, SimDuration::SECOND, vec![1.0]);
        let b = TimeSeries::from_values(SimTime::ZERO, SimDuration::SECOND, vec![1.0, 2.0]);
        let _ = TimeSeries::sum_of(&[&a, &b]);
    }

    #[test]
    fn daily_profile_aggregates_each_slot_in_time_order() {
        // Two days of hourly samples; value = hour-of-day + 100*day.
        let ts = TimeSeries::generate(
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_days(2),
            SimDuration::HOUR,
            |t| t.time_of_day().as_hours_f64() + 100.0 * t.day_index() as f64,
        );
        let mut buckets = Vec::new();
        let profile = ts.daily_profile(
            |_| true,
            |xs| {
                buckets.push(xs.to_vec());
                xs[0]
            },
        );
        assert_eq!(profile.len(), 24);
        assert_eq!(buckets.len(), 24);
        assert_eq!(buckets[3], vec![3.0, 103.0]); // 3AM Mon, 3AM Tue
        assert_eq!(profile[3], 3.0);
    }

    #[test]
    fn daily_profile_respects_day_filter() {
        // One full week of daily-constant values: value = day index.
        let ts = TimeSeries::generate(
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_days(7),
            SimDuration::HOUR,
            |t| t.day_index() as f64,
        );
        let weekday_profile = ts.daily_profile(|d| !d.is_weekend(), |xs| mean(xs));
        // Weekdays are day indices 0..5 → mean 2.0 in every slot.
        assert!(weekday_profile.iter().all(|&v| (v - 2.0).abs() < 1e-12));
        let weekend_profile = ts.daily_profile(|d| d.is_weekend(), |xs| mean(xs));
        assert!(weekend_profile.iter().all(|&v| (v - 5.5).abs() < 1e-12));
    }

    proptest! {
        #[test]
        fn daily_profile_matches_the_per_sample_day_filter(
            start_us in 0u64..864_000_000_000,
            align in 0u8..3,
            step_pick in 0usize..3,
            len in 0usize..1200,
            mask in 0usize..128,
            salt in 0.0..1.0f64,
        ) {
            let step = SimDuration::from_minutes([5, 15, 60][step_pick]);
            // Starts anywhere (off a step boundary), on a step boundary, or
            // at midday; lengths are rarely whole days.
            let raw = SimTime::from_micros(start_us);
            let start = match align {
                0 => raw,
                1 => raw.align_down(step),
                _ => raw.align_down(SimDuration::DAY) + SimDuration::from_hours(12),
            };
            let values: Vec<f64> = (0..len).map(|i| (i as f64 + salt) * 1.5).collect();
            let ts = TimeSeries::from_values(start, step, values);
            let keep = |d: Weekday| (mask >> d.index()) & 1 == 1;
            let mut got = Vec::new();
            let profile = ts.daily_profile(keep, |xs| {
                got.push(xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
                xs.iter().sum()
            });
            // The former filter: every sample asks for its own weekday.
            let spd = (SimDuration::DAY.as_micros() / step.as_micros()) as usize;
            let first = (start.time_of_day().as_micros() / step.as_micros()) as usize;
            let mut want = Vec::new();
            for (slot, value) in profile.iter().enumerate() {
                let offset = (slot + spd - first) % spd;
                let bucket: Vec<u64> = (offset..len)
                    .step_by(spd)
                    .filter(|&i| keep(ts.time_at_index(i).weekday()))
                    .map(|i| ts.values()[i].to_bits())
                    .collect();
                prop_assert_eq!(value.is_nan(), bucket.is_empty(), "slot {}", slot);
                if !bucket.is_empty() {
                    want.push(bucket);
                }
            }
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    #[should_panic(expected = "step must divide a day evenly")]
    fn daily_profile_rejects_step_not_dividing_a_day() {
        let ts = TimeSeries::from_values(SimTime::ZERO, SimDuration::from_minutes(7), vec![1.0]);
        let _ = ts.daily_profile(|_| true, |xs| xs[0]);
    }

    #[test]
    fn slice_clamps_and_aligns() {
        let ts = TimeSeries::from_values(
            SimTime::ZERO,
            SimDuration::from_secs(10),
            (0..10).map(|i| i as f64).collect(),
        );
        let s = ts.slice(SimTime::from_secs(25), SimTime::from_secs(55));
        assert_eq!(s.start(), SimTime::from_secs(30));
        assert_eq!(s.values(), &[3.0, 4.0, 5.0]);
        // Fully out-of-range slice is empty.
        assert!(ts
            .slice(SimTime::from_secs(500), SimTime::from_secs(600))
            .is_empty());
    }

    #[test]
    fn basic_stats() {
        let ts = TimeSeries::from_values(SimTime::ZERO, SimDuration::SECOND, vec![1.0, 3.0, 2.0]);
        assert_eq!(ts.mean(), 2.0);
        assert_eq!(ts.max(), 3.0);
        assert_eq!(ts.min(), 1.0);
        assert_eq!(ts.percentile(50.0), 2.0);
    }

    #[test]
    fn map_preserves_shape() {
        let ts = TimeSeries::from_values(SimTime::ZERO, SimDuration::SECOND, vec![1.0, 2.0]);
        let doubled = ts.map(|v| v * 2.0);
        assert_eq!(doubled.values(), &[2.0, 4.0]);
        assert_eq!(doubled.start(), ts.start());
        assert_eq!(doubled.step(), ts.step());
    }
}
