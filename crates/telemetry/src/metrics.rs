//! Metrics registry: counters, gauges, and histograms keyed by a static
//! metric name plus label pairs such as `("rack", 3)`.
//!
//! Storage is `BTreeMap`-backed so snapshots iterate in a deterministic
//! order — important because figure binaries print snapshots and runs must be
//! reproducible byte-for-byte. Histograms reuse [`simcore::hist::Histogram`]
//! (log-bucketed, mergeable) rather than introducing a second histogram type.

use simcore::hist::Histogram;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Mutex;

/// A label value: small integers for indices (rack 3, server 17), static
/// strings for enumerations (policy names).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LabelValue {
    U64(u64),
    Str(&'static str),
}

impl From<u64> for LabelValue {
    fn from(v: u64) -> Self {
        LabelValue::U64(v)
    }
}

impl From<usize> for LabelValue {
    fn from(v: usize) -> Self {
        LabelValue::U64(v as u64)
    }
}

impl From<u32> for LabelValue {
    fn from(v: u32) -> Self {
        LabelValue::U64(v as u64)
    }
}

impl From<&'static str> for LabelValue {
    fn from(v: &'static str) -> Self {
        LabelValue::Str(v)
    }
}

impl fmt::Display for LabelValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabelValue::U64(v) => write!(f, "{v}"),
            LabelValue::Str(s) => f.write_str(s),
        }
    }
}

/// Identity of one time series: metric name plus ordered label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricKey {
    pub name: &'static str,
    pub labels: Vec<(&'static str, LabelValue)>,
}

impl MetricKey {
    /// Render as `name` or `name{rack=3,server=17}`.
    pub fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.to_owned();
        }
        let mut out = String::from(self.name);
        out.push('{');
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push('=');
            out.push_str(&v.to_string());
        }
        out.push('}');
        out
    }
}

impl fmt::Display for MetricKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// A series identity as `(name, labels)`, owned ([`MetricKey`]) or borrowed
/// from the caller's label slice. The maps are keyed by `MetricKey` but
/// looked up through `&dyn SeriesId`, so updating an existing series never
/// builds (allocates) a key; only a series' first update does.
trait SeriesId {
    fn id(&self) -> (&'static str, &[(&'static str, LabelValue)]);
}

impl SeriesId for MetricKey {
    fn id(&self) -> (&'static str, &[(&'static str, LabelValue)]) {
        (self.name, &self.labels)
    }
}

impl SeriesId for (&'static str, &[(&'static str, LabelValue)]) {
    fn id(&self) -> (&'static str, &[(&'static str, LabelValue)]) {
        *self
    }
}

// The same (name, labels) order as `MetricKey`'s derived `Ord`, which the
// `Borrow` contract requires.
impl PartialEq for dyn SeriesId + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.id() == other.id()
    }
}

impl Eq for dyn SeriesId + '_ {}

impl PartialOrd for dyn SeriesId + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for dyn SeriesId + '_ {
    fn cmp(&self, other: &Self) -> Ordering {
        self.id().cmp(&other.id())
    }
}

impl<'a> Borrow<dyn SeriesId + 'a> for MetricKey {
    fn borrow(&self) -> &(dyn SeriesId + 'a) {
        self
    }
}

/// Apply `f` to `map[(name, labels)]`: one search for an existing series,
/// and an owned key holding `default()` only when the series is new.
fn update<V>(
    map: &mut BTreeMap<MetricKey, V>,
    name: &'static str,
    labels: &[(&'static str, LabelValue)],
    default: impl FnOnce() -> V,
    f: impl FnOnce(&mut V),
) {
    if let Some(v) = map.get_mut(&(name, labels) as &dyn SeriesId) {
        f(v);
        return;
    }
    let key = MetricKey {
        name,
        labels: labels.to_vec(),
    };
    f(map.entry(key).or_insert_with(default));
}

/// Relative precision for registry histograms (~1 % quantile error).
const HIST_PRECISION: f64 = 0.01;

/// Thread-safe registry of counters, gauges, and histograms.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<MetricKey, u64>>,
    gauges: Mutex<BTreeMap<MetricKey, f64>>,
    histograms: Mutex<BTreeMap<MetricKey, Histogram>>,
}

impl MetricsRegistry {
    /// Create an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add `delta` to a counter (creating it at zero).
    pub fn inc_counter_by(
        &self,
        name: &'static str,
        labels: &[(&'static str, LabelValue)],
        delta: u64,
    ) {
        let mut map = self.counters.lock().expect("counter map poisoned");
        update(&mut map, name, labels, || 0, |c| *c += delta);
    }

    /// Increment a counter by one.
    pub fn inc_counter(&self, name: &'static str, labels: &[(&'static str, LabelValue)]) {
        self.inc_counter_by(name, labels, 1);
    }

    /// Set a gauge to `value`.
    pub fn set_gauge(&self, name: &'static str, labels: &[(&'static str, LabelValue)], value: f64) {
        let mut map = self.gauges.lock().expect("gauge map poisoned");
        update(&mut map, name, labels, || value, |g| *g = value);
    }

    /// Record one non-negative observation into a histogram.
    pub fn observe(&self, name: &'static str, labels: &[(&'static str, LabelValue)], value: f64) {
        self.observe_all(name, labels, &[value]);
    }

    /// Record non-negative observations into one histogram, in order,
    /// under one lock and one series search: the same state as one
    /// [`observe`](Self::observe) per value. No values, no series.
    pub fn observe_all(
        &self,
        name: &'static str,
        labels: &[(&'static str, LabelValue)],
        values: &[f64],
    ) {
        if values.is_empty() {
            return;
        }
        let mut map = self.histograms.lock().expect("histogram map poisoned");
        update(
            &mut map,
            name,
            labels,
            || Histogram::new(HIST_PRECISION),
            |h| {
                for &v in values {
                    h.record(v);
                }
            },
        );
    }

    /// Current value of a counter (zero if never incremented).
    pub fn counter(&self, name: &'static str, labels: &[(&'static str, LabelValue)]) -> u64 {
        let map = self.counters.lock().expect("counter map poisoned");
        map.get(&(name, labels) as &dyn SeriesId)
            .copied()
            .unwrap_or(0)
    }

    /// Current value of a gauge, if set (tests read gauges back; runs dump
    /// them with the snapshot).
    #[cfg(test)]
    pub(crate) fn gauge(
        &self,
        name: &'static str,
        labels: &[(&'static str, LabelValue)],
    ) -> Option<f64> {
        let map = self.gauges.lock().expect("gauge map poisoned");
        map.get(&(name, labels) as &dyn SeriesId).copied()
    }

    /// Merge a snapshot taken from another registry (a shard's buffered
    /// registry) into this one: counters add, gauges overwrite (last write
    /// wins — merge shards in canonical order), histograms merge
    /// bucket-wise. All registry histograms share one precision, so the
    /// histogram merge cannot panic.
    pub(crate) fn merge_snapshot(&self, snap: &MetricsSnapshot) {
        {
            let mut map = self.counters.lock().expect("counter map poisoned");
            for (k, v) in &snap.counters {
                update(&mut map, k.name, &k.labels, || 0, |c| *c += v);
            }
        }
        {
            let mut map = self.gauges.lock().expect("gauge map poisoned");
            for (k, v) in &snap.gauges {
                update(&mut map, k.name, &k.labels, || *v, |g| *g = *v);
            }
        }
        {
            let mut map = self.histograms.lock().expect("histogram map poisoned");
            for (k, h) in &snap.histograms {
                match map.get_mut(k) {
                    Some(existing) => existing.merge(h),
                    None => {
                        map.insert(k.clone(), h.clone());
                    }
                }
            }
        }
    }

    /// Deterministic snapshot of everything recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .expect("counter map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("gauge map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("histogram map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// Point-in-time copy of a [`MetricsRegistry`], sorted by key.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    pub counters: Vec<(MetricKey, u64)>,
    pub gauges: Vec<(MetricKey, f64)>,
    pub histograms: Vec<(MetricKey, Histogram)>,
}

impl MetricsSnapshot {
    /// Render as stable plain text, one metric per line (`key value`).
    /// Histograms render count/mean/p50/p99.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!("counter {k} {v}\n"));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("gauge {k} {v}\n"));
        }
        for (k, h) in &self.histograms {
            if h.is_empty() {
                out.push_str(&format!("hist {k} count=0\n"));
            } else {
                out.push_str(&format!(
                    "hist {k} count={} mean={:.4} p50={:.4} p99={:.4}\n",
                    h.count(),
                    h.mean(),
                    h.quantile(0.50),
                    h.quantile(0.99),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label_set() {
        let m = MetricsRegistry::new();
        m.inc_counter("oc_grants", &[("rack", 3usize.into())]);
        m.inc_counter("oc_grants", &[("rack", 3usize.into())]);
        m.inc_counter("oc_grants", &[("rack", 4usize.into())]);
        assert_eq!(m.counter("oc_grants", &[("rack", 3usize.into())]), 2);
        assert_eq!(m.counter("oc_grants", &[("rack", 4usize.into())]), 1);
        assert_eq!(m.counter("oc_grants", &[]), 0);
    }

    #[test]
    fn gauges_overwrite() {
        let m = MetricsRegistry::new();
        m.set_gauge("rack_power_w", &[("rack", 0usize.into())], 100.0);
        m.set_gauge("rack_power_w", &[("rack", 0usize.into())], 120.5);
        assert_eq!(
            m.gauge("rack_power_w", &[("rack", 0usize.into())]),
            Some(120.5)
        );
        assert_eq!(m.gauge("rack_power_w", &[("rack", 9usize.into())]), None);
    }

    #[test]
    fn histograms_record_and_expose_quantiles() {
        let m = MetricsRegistry::new();
        for i in 1..=100 {
            m.observe("tick_us", &[], i as f64);
        }
        let snap = m.snapshot();
        let (key, h) = &snap.histograms[0];
        assert_eq!(key.name, "tick_us");
        assert_eq!(h.count(), 100);
        assert!((h.quantile(0.5) - 50.0).abs() < 3.0);
    }

    #[test]
    fn observe_all_matches_one_observe_per_value() {
        let values = [230.5, 0.0, 1e-3, 4100.25, 230.5, 7.0];
        let one = MetricsRegistry::new();
        let all = MetricsRegistry::new();
        for &v in &values {
            one.observe("draw_w", &[("rack", 1usize.into())], v);
        }
        all.observe_all("draw_w", &[("rack", 1usize.into())], &values);
        // No values, no series.
        all.observe_all("draw_w", &[("rack", 2usize.into())], &[]);
        assert_eq!(
            format!("{:?}", all.snapshot()),
            format!("{:?}", one.snapshot())
        );
    }

    #[test]
    fn key_rendering() {
        let k = MetricKey {
            name: "oc_grants",
            labels: vec![("rack", 3usize.into()), ("policy", "smartoclock".into())],
        };
        assert_eq!(k.render(), "oc_grants{rack=3,policy=smartoclock}");
        let bare = MetricKey {
            name: "ticks",
            labels: vec![],
        };
        assert_eq!(bare.render(), "ticks");
    }

    #[test]
    fn snapshot_is_sorted_and_renders() {
        let m = MetricsRegistry::new();
        m.inc_counter("b", &[]);
        m.inc_counter("a", &[]);
        m.set_gauge("g", &[], 1.5);
        m.observe("h", &[], 2.0);
        let snap = m.snapshot();
        assert_eq!(snap.counters[0].0.name, "a");
        assert_eq!(snap.counters[1].0.name, "b");
        let text = snap.render();
        assert!(text.contains("counter a 1"));
        assert!(text.contains("gauge g 1.5"));
        assert!(text.contains("hist h count=1"));
    }

    #[test]
    fn merge_snapshot_matches_direct_recording() {
        // Recording everything into one registry must equal recording into
        // two and merging the second's snapshot into the first.
        let direct = MetricsRegistry::new();
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        for (i, m) in [(0u64, &a), (1, &b)] {
            for target in [&direct, m] {
                target.inc_counter_by("c", &[], i + 1);
                target.set_gauge("g", &[], i as f64);
                target.observe("h", &[("rack", i.into())], (i + 1) as f64 * 10.0);
            }
        }
        a.merge_snapshot(&b.snapshot());
        assert_eq!(a.snapshot().render(), direct.snapshot().render());
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let m = std::sync::Arc::new(MetricsRegistry::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.inc_counter("spins", &[]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.counter("spins", &[]), 4000);
    }
}
