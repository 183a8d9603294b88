//! Sim-time time-series store: fixed-capacity per-`(metric, entity)` series
//! with hierarchical downsampling.
//!
//! Every series holds at most `capacity` buckets. Buckets start one sim-time
//! microsecond wide (i.e. one bucket per distinct sample timestamp); when a
//! series would exceed its capacity the bucket width doubles and existing
//! buckets re-align onto the coarser grid, merging neighbours. Width doubling
//! is a pure function of the sample sequence, so a series' final state
//! depends only on the samples it received — never on when other series
//! received theirs. That is what lets the recorder be fed concurrently from
//! sharded simulation workers (each series receives its samples from exactly
//! one worker, in time order) and still finalize byte-identically at every
//! thread count.
//!
//! Each bucket keeps min/max/sum/count/last, so downsampling preserves the
//! extremes alert rules care about (a one-step budget excursion survives any
//! amount of coarsening as the bucket max).

use std::collections::BTreeMap;

/// Default per-series bucket capacity.
pub(crate) const DEFAULT_CAPACITY: usize = 1024;

/// One downsampled bucket of a series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bucket {
    /// Bucket start (inclusive), aligned to the series' current width.
    pub t0_us: u64,
    /// Smallest sample in the bucket.
    pub min: f64,
    /// Largest sample in the bucket.
    pub max: f64,
    /// Sum of samples (for the mean).
    pub sum: f64,
    /// Number of samples merged into the bucket.
    pub count: u64,
    /// Most recent sample value.
    pub last: f64,
    /// Timestamp of the most recent sample.
    pub last_t_us: u64,
}

impl Bucket {
    fn seed(t0_us: u64, t_us: u64, value: f64) -> Bucket {
        Bucket {
            t0_us,
            min: value,
            max: value,
            sum: value,
            count: 1,
            last: value,
            last_t_us: t_us,
        }
    }

    /// Mean of the samples in the bucket.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    fn absorb_sample(&mut self, t_us: u64, value: f64) {
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.sum += value;
        self.count += 1;
        if t_us >= self.last_t_us {
            self.last = value;
            self.last_t_us = t_us;
        }
    }

    fn absorb_bucket(&mut self, other: &Bucket) {
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
        self.count += other.count;
        if other.last_t_us >= self.last_t_us {
            self.last = other.last;
            self.last_t_us = other.last_t_us;
        }
    }
}

/// One `(metric, entity)` series: a capacity-bounded, time-ordered bucket
/// vector plus the current bucket width.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    width_us: u64,
    capacity: usize,
    buckets: Vec<Bucket>,
}

impl Series {
    /// An empty series with the given bucket capacity (min 2).
    pub fn new(capacity: usize) -> Series {
        Series {
            width_us: 1,
            capacity: capacity.max(2),
            buckets: Vec::new(),
        }
    }

    /// Current bucket width in sim-time microseconds.
    pub(crate) fn width_us(&self) -> u64 {
        self.width_us
    }

    /// The buckets in time order.
    pub fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    /// Record one sample. Non-finite values are dropped (they carry no
    /// health signal and would poison min/max).
    pub fn record(&mut self, t_us: u64, value: f64) {
        if !value.is_finite() {
            return;
        }
        let t0 = t_us - t_us % self.width_us;
        // Samples arrive in time order per series (one simulation worker per
        // entity), so the common case is "extends or lands in the last
        // bucket"; a binary search keeps out-of-order input correct anyway.
        match self.buckets.binary_search_by(|b| b.t0_us.cmp(&t0)) {
            Ok(i) => self.buckets[i].absorb_sample(t_us, value),
            Err(i) => {
                self.buckets.insert(i, Bucket::seed(t0, t_us, value));
                if self.buckets.len() > self.capacity {
                    self.compact();
                }
            }
        }
    }

    /// Double the bucket width and merge buckets onto the coarser grid.
    fn compact(&mut self) {
        self.width_us *= 2;
        let mut merged: Vec<Bucket> = Vec::with_capacity(self.buckets.len() / 2 + 1);
        for b in &self.buckets {
            let t0 = b.t0_us - b.t0_us % self.width_us;
            match merged.last_mut() {
                Some(prev) if prev.t0_us == t0 => prev.absorb_bucket(b),
                _ => {
                    let mut nb = *b;
                    nb.t0_us = t0;
                    merged.push(nb);
                }
            }
        }
        self.buckets = merged;
    }

    /// The last recorded value at or before `t_us`, if any.
    pub fn value_at(&self, t_us: u64) -> Option<f64> {
        let i = self.buckets.partition_point(|b| b.t0_us <= t_us);
        i.checked_sub(1).map(|i| self.buckets[i].last)
    }

    /// Number of samples recorded into the series.
    pub fn samples(&self) -> u64 {
        self.buckets.iter().map(|b| b.count).sum()
    }

    /// Rebuild a series from stored parts (the JSON reader). The capacity is
    /// restored to at least the bucket count so further recording behaves.
    pub(crate) fn from_parts(width_us: u64, buckets: Vec<Bucket>) -> Series {
        Series {
            width_us: width_us.max(1),
            capacity: DEFAULT_CAPACITY.max(buckets.len()),
            buckets,
        }
    }
}

/// All series of one run, keyed by `(metric, entity)`.
///
/// The `BTreeMap` key order is the canonical iteration order everywhere —
/// reports, JSON, rendering — so cross-series arrival order (which is
/// scheduler-dependent under sharded execution) never shows in any output.
#[derive(Debug, Clone, Default)]
pub struct SeriesStore {
    series: BTreeMap<(String, u64), Series>,
    capacity: usize,
}

impl SeriesStore {
    /// An empty store; each series is capped at `capacity` buckets (0 means
    /// the default of 1024).
    pub fn new(capacity: usize) -> SeriesStore {
        SeriesStore {
            series: BTreeMap::new(),
            capacity: if capacity == 0 {
                DEFAULT_CAPACITY
            } else {
                capacity
            },
        }
    }

    /// Record one sample into the `(metric, entity)` series.
    pub fn record(&mut self, metric: &str, entity: u64, t_us: u64, value: f64) {
        self.series
            .entry((metric.to_string(), entity))
            .or_insert_with(|| Series::new(self.capacity))
            .record(t_us, value);
    }

    /// Look up one series.
    pub fn get(&self, metric: &str, entity: u64) -> Option<&Series> {
        self.series.get(&(metric.to_string(), entity))
    }

    /// Iterate `((metric, entity), series)` in canonical key order.
    pub fn iter(&self) -> impl Iterator<Item = (&(String, u64), &Series)> {
        self.series.iter()
    }

    /// All entities that have a series for `metric`, in ascending order.
    pub fn entities(&self, metric: &str) -> Vec<u64> {
        self.series
            .keys()
            .filter(|(m, _)| m == metric)
            .map(|(_, e)| *e)
            .collect()
    }

    /// Number of series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// `true` when no series exist.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Insert a fully built series (the JSON reader).
    pub(crate) fn insert(&mut self, metric: String, entity: u64, series: Series) {
        self.series.insert((metric, entity), series);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_buckets_by_timestamp_until_capacity() {
        let mut s = Series::new(4);
        for t in 0..4u64 {
            s.record(t, t as f64);
        }
        assert_eq!(s.width_us(), 1);
        assert_eq!(s.buckets().len(), 4);
        assert_eq!(s.buckets()[2].last, 2.0);
    }

    #[test]
    fn exceeding_capacity_doubles_width_and_merges() {
        let mut s = Series::new(4);
        for t in 0..8u64 {
            s.record(t, t as f64);
        }
        // 8 distinct timestamps in a 4-bucket series: width doubled to 2.
        assert_eq!(s.width_us(), 2);
        assert_eq!(s.buckets().len(), 4);
        let b0 = s.buckets()[0];
        assert_eq!(b0.t0_us, 0);
        assert_eq!((b0.min, b0.max, b0.count, b0.last), (0.0, 1.0, 2, 1.0));
    }

    #[test]
    fn downsampling_preserves_extremes_and_mean() {
        let mut s = Series::new(2);
        let values = [5.0, 100.0, -3.0, 7.0, 7.0, 7.0, 7.0, 2.0];
        for (t, v) in values.iter().enumerate() {
            s.record(t as u64, *v);
        }
        let min = s.buckets().iter().map(|b| b.min).fold(f64::MAX, f64::min);
        let max = s.buckets().iter().map(|b| b.max).fold(f64::MIN, f64::max);
        assert_eq!(min, -3.0);
        assert_eq!(max, 100.0);
        let total: f64 = s.buckets().iter().map(|b| b.sum).sum();
        let count: u64 = s.buckets().iter().map(|b| b.count).sum();
        assert_eq!(count, values.len() as u64);
        assert!((total - values.iter().sum::<f64>()).abs() < 1e-12);
        assert_eq!(s.samples(), 8);
    }

    #[test]
    fn final_state_is_a_function_of_the_sample_sequence() {
        // Two identical sample sequences produce identical series even when
        // recorded into stores holding other series in between — the
        // determinism claim the sharded recorder relies on.
        let feed = |s: &mut SeriesStore, extra: bool| {
            for t in 0..100u64 {
                if extra {
                    s.record("other", 9, t * 7, 1.0);
                }
                s.record("draw", 1, t * 1000, (t % 13) as f64);
            }
        };
        let mut a = SeriesStore::new(16);
        let mut b = SeriesStore::new(16);
        feed(&mut a, false);
        feed(&mut b, true);
        assert_eq!(a.get("draw", 1), b.get("draw", 1));
    }

    #[test]
    fn value_at_returns_last_at_or_before() {
        let mut s = Series::new(8);
        s.record(10, 1.0);
        s.record(20, 2.0);
        assert_eq!(s.value_at(5), None);
        assert_eq!(s.value_at(10), Some(1.0));
        assert_eq!(s.value_at(15), Some(1.0));
        assert_eq!(s.value_at(25), Some(2.0));
    }

    #[test]
    fn non_finite_samples_are_dropped() {
        let mut s = Series::new(8);
        s.record(1, f64::NAN);
        s.record(2, f64::INFINITY);
        assert!(s.buckets().is_empty());
    }

    #[test]
    fn store_keys_are_canonically_ordered() {
        let mut store = SeriesStore::new(0);
        store.record("z_metric", 0, 1, 1.0);
        store.record("a_metric", 2, 1, 1.0);
        store.record("a_metric", 1, 1, 1.0);
        let keys: Vec<_> = store.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(
            keys,
            vec![
                ("a_metric".to_string(), 1),
                ("a_metric".to_string(), 2),
                ("z_metric".to_string(), 0)
            ]
        );
        assert_eq!(store.entities("a_metric"), vec![1, 2]);
    }
}
