//! # soc-telemetry — sim-time-aware tracing and metrics for SmartOClock
//!
//! Observability layer for the agent stack. Three pieces:
//!
//! * **Events** ([`Event`]) — structured records stamped with [`SimTime`]
//!   (never wall-clock), a [`Component`] id, a [`Severity`], and typed
//!   key/value fields. Emitted through a cheap cloneable [`Telemetry`] handle.
//! * **Metrics** ([`MetricsRegistry`]) — counters, gauges, and histograms
//!   keyed by static names plus label pairs like `("rack", 3)`. Histograms
//!   reuse [`simcore::hist::Histogram`].
//! * **Sinks** ([`Sink`]) — pluggable event destinations: [`NullSink`]
//!   (discard), [`MemorySink`] (tests), [`JsonlSink`] (`--trace-out` files).
//!
//! A disabled handle ([`Telemetry::disabled`], also `Default`) is a `None`
//! internally: every emission site first checks [`Telemetry::is_enabled`], so
//! the disabled path costs one branch and never allocates. This is what lets
//! the agent crates carry instrumentation unconditionally.
//!
//! The enabled path allocates only what it keeps. An update to an existing
//! metric series allocates nothing (lookups borrow the caller's labels; a
//! series' first update owns its key). An event whose fields are static
//! strings and numbers allocates once, for its fields `Vec`
//! ([`FieldValue::Str`] borrows `&'static str`). Events move into a memory
//! sink without a copy, from [`Telemetry::emit`] and [`Telemetry::absorb`]
//! alike ([`Sink::record`] takes the event by value). `tests/allocations.rs`
//! pins all three.
//!
//! ```
//! use soc_telemetry::{Component, Event, Severity, Telemetry};
//! use simcore::time::SimTime;
//!
//! let (tm, sink) = Telemetry::memory();
//! tm.emit(
//!     Event::new(SimTime::from_secs(3), Component::Soa, Severity::Info, "oc_grant")
//!         .field("server", 4usize),
//! );
//! tm.metrics(|m| m.inc_counter("oc_grants", &[("rack", 0usize.into())]));
//! assert_eq!(sink.named("oc_grant").len(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod event;
pub mod json;
pub mod metrics;
pub mod sink;

pub use event::{Component, Event, FieldValue, Severity};
pub use metrics::{LabelValue, MetricKey, MetricsRegistry, MetricsSnapshot};
pub use sink::{JsonlSink, MemorySink, NullSink, Sink};

use simcore::time::SimTime;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct Inner {
    sink: Box<dyn Sink>,
    metrics: MetricsRegistry,
    /// Next causal decision id. Starts at 1 so that 0 can mean "no id"
    /// everywhere an id is threaded through the control plane.
    ids: AtomicU64,
}

/// Cheap cloneable handle to a telemetry pipeline.
///
/// Cloning shares the underlying sink and metrics registry. The default
/// handle is disabled: emissions are dropped after a single branch.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Telemetry {
    /// A disabled handle: every emission is a no-op.
    pub fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    /// Enabled handle writing events to `sink`.
    pub fn with_sink(sink: impl Sink + 'static) -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Inner {
                sink: Box::new(sink),
                metrics: MetricsRegistry::new(),
                ids: AtomicU64::new(1),
            })),
        }
    }

    /// Enabled handle backed by an in-memory sink; returns the sink too so
    /// tests can assert on captured events.
    pub fn memory() -> (Telemetry, Arc<MemorySink>) {
        let sink = Arc::new(MemorySink::new());
        let tm = Telemetry::with_sink(SharedSink(sink.clone()));
        (tm, sink)
    }

    /// Enabled handle writing JSONL to the file at `path` (truncated).
    pub fn jsonl(path: impl AsRef<Path>) -> io::Result<Telemetry> {
        Ok(Telemetry::with_sink(JsonlSink::create(path)?))
    }

    /// Enabled handle buffering into a private [`MemorySink`] and registry,
    /// with the id counter starting at `id_base` (clamped up to 1, since 0
    /// is the reserved no-id value).
    ///
    /// This is the shard-local handle of the parallel execution engine: each
    /// worker simulates into its own buffer, and the caller replays the
    /// buffers into the real handle with [`Telemetry::absorb`] in canonical
    /// shard order after the join. Giving every shard a disjoint,
    /// deterministic id range (`id_base` derived from the shard index, not
    /// from a shared counter) is what keeps `decision_id`/`cause_id` fields
    /// byte-identical across thread counts.
    pub fn buffered(id_base: u64) -> (Telemetry, Arc<MemorySink>) {
        let sink = Arc::new(MemorySink::new());
        let tm = Telemetry {
            inner: Some(Arc::new(Inner {
                sink: Box::new(SharedSink(sink.clone())),
                metrics: MetricsRegistry::new(),
                ids: AtomicU64::new(id_base.max(1)),
            })),
        };
        (tm, sink)
    }

    /// Replay a shard's buffered output into this handle: events are moved
    /// into the sink in their buffered order (a memory sink copies none), then `metrics` is merged into the registry
    /// (counters add, gauges overwrite, histograms merge).
    ///
    /// Callers must absorb shards in canonical (input) order — the event
    /// stream and any overlapping gauges take their order from the calls.
    /// No-op when disabled.
    pub fn absorb(&self, events: Vec<Event>, metrics: &MetricsSnapshot) {
        if let Some(inner) = &self.inner {
            for event in events {
                inner.sink.record(event);
            }
            inner.metrics.merge_snapshot(metrics);
        }
    }

    /// `true` when events actually go somewhere. Emission sites check this
    /// before building field vectors so the disabled path never allocates.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Send one event to the sink. No-op when disabled.
    #[inline]
    pub fn emit(&self, event: Event) {
        if let Some(inner) = &self.inner {
            inner.sink.record(event);
        }
    }

    /// Run `f` against the metrics registry. No-op (and `None`) when
    /// disabled, so hot paths can update metrics without a guard.
    #[inline]
    pub fn metrics<R>(&self, f: impl FnOnce(&MetricsRegistry) -> R) -> Option<R> {
        self.inner.as_ref().map(|inner| f(&inner.metrics))
    }

    /// Deterministic snapshot of the metrics registry (empty when disabled).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics(|m| m.snapshot()).unwrap_or_default()
    }

    /// Allocate the next causal decision id.
    ///
    /// Ids start at 1 and increase monotonically per handle; `0` is reserved
    /// to mean "no id" in `decision_id` / `cause_id` event fields, and is
    /// what a disabled handle returns. Single-threaded runs therefore get
    /// deterministic ids, which keeps traces byte-identical per seed.
    #[inline]
    pub fn next_id(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.ids.fetch_add(1, Ordering::Relaxed),
            None => 0,
        }
    }

    /// Flush the sink (e.g. the JSONL buffer). No-op when disabled.
    ///
    /// # Errors
    /// The sink's first write or flush error ([`JsonlSink`] latches it).
    pub fn flush(&self) -> io::Result<()> {
        match &self.inner {
            Some(inner) => inner.sink.flush(),
            None => Ok(()),
        }
    }

    /// Emit the current metrics registry contents into the event stream as
    /// `metric` records under [`Component::Metrics`], stamped with `now`.
    ///
    /// The dump is explicitly sorted by (metric name, label pairs), so the
    /// metric section of a JSONL trace is byte-stable across runs and safe
    /// to diff. Counters and gauges carry a `value` field; histograms carry
    /// `count`/`mean`/`p50`/`p99`. No-op when disabled.
    pub fn emit_metrics_snapshot(&self, now: SimTime) {
        if !self.is_enabled() {
            return;
        }
        let mut snap = self.metrics_snapshot();
        snap.counters.sort_by(|a, b| a.0.cmp(&b.0));
        snap.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        snap.histograms.sort_by(|a, b| a.0.cmp(&b.0));
        for (k, v) in &snap.counters {
            crate::tm_event!(self, now, Component::Metrics, Severity::Debug, "metric",
                "kind" => "counter", "key" => k.render(), "value" => *v);
        }
        for (k, v) in &snap.gauges {
            crate::tm_event!(self, now, Component::Metrics, Severity::Debug, "metric",
                "kind" => "gauge", "key" => k.render(), "value" => *v);
        }
        for (k, h) in &snap.histograms {
            if h.is_empty() {
                crate::tm_event!(self, now, Component::Metrics, Severity::Debug, "metric",
                    "kind" => "hist", "key" => k.render(), "count" => 0u64);
            } else {
                crate::tm_event!(self, now, Component::Metrics, Severity::Debug, "metric",
                    "kind" => "hist", "key" => k.render(), "count" => h.count(),
                    "mean" => h.mean(), "p50" => h.quantile(0.50),
                    "p99" => h.quantile(0.99));
            }
        }
    }

    /// Open a sim-time span. The span emits a single event carrying
    /// `dur_us` when [`Span::end`] is called with the closing sim time.
    pub fn span(&self, start: SimTime, component: Component, name: &'static str) -> Span<'_> {
        Span {
            tm: self,
            start,
            component,
            name,
            fields: Vec::new(),
        }
    }
}

/// Adapter so an `Arc<impl Sink>` can be installed as a sink.
struct SharedSink<S: Sink>(Arc<S>);

impl<S: Sink> Sink for SharedSink<S> {
    fn record(&self, event: Event) {
        self.0.record(event);
    }
    fn flush(&self) -> io::Result<()> {
        self.0.flush()
    }
}

/// An in-flight sim-time span.
///
/// Simulated time does not advance implicitly, so spans take explicit start
/// and end instants rather than sampling a clock. Ending emits one
/// `Severity::Debug` event with the accumulated fields plus `dur_us`.
#[must_use = "a span only emits when `end` is called"]
pub struct Span<'a> {
    tm: &'a Telemetry,
    start: SimTime,
    component: Component,
    name: &'static str,
    fields: Vec<(&'static str, FieldValue)>,
}

impl Span<'_> {
    /// Attach a field to the span's closing event.
    pub fn field(mut self, key: &'static str, value: impl Into<FieldValue>) -> Self {
        if self.tm.is_enabled() {
            self.fields.push((key, value.into()));
        }
        self
    }

    /// Close the span at sim time `end`, emitting the event.
    pub fn end(self, end: SimTime) {
        if !self.tm.is_enabled() {
            return;
        }
        let mut event = Event {
            time: self.start,
            component: self.component,
            severity: Severity::Debug,
            name: self.name,
            fields: self.fields,
        };
        event.fields.push((
            "dur_us",
            FieldValue::U64(end.saturating_since(self.start).as_micros()),
        ));
        self.tm.emit(event);
    }
}

/// Emit a structured event through a [`Telemetry`] handle.
///
/// Expands to a guarded emission: when the handle is disabled nothing is
/// evaluated beyond the `is_enabled` branch (field expressions included).
///
/// ```
/// use soc_telemetry::{tm_event, Component, Severity, Telemetry};
/// use simcore::time::SimTime;
///
/// let (tm, sink) = Telemetry::memory();
/// tm_event!(tm, SimTime::ZERO, Component::Goa, Severity::Info, "budget_split",
///     "racks" => 4usize, "total_w" => 1200.0);
/// assert_eq!(sink.named("budget_split").len(), 1);
/// ```
#[macro_export]
macro_rules! tm_event {
    ($tm:expr, $time:expr, $component:expr, $severity:expr, $name:expr
        $(, $key:literal => $value:expr)* $(,)?) => {
        if $tm.is_enabled() {
            $tm.emit($crate::Event {
                time: $time,
                component: $component,
                severity: $severity,
                name: $name,
                fields: vec![$(($key, $crate::FieldValue::from($value))),*],
            });
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::SimDuration;

    #[test]
    fn disabled_handle_is_inert() {
        let tm = Telemetry::disabled();
        assert!(!tm.is_enabled());
        tm.emit(Event::new(
            SimTime::ZERO,
            Component::Wi,
            Severity::Info,
            "noop",
        ));
        assert!(tm.metrics(|m| m.counter("x", &[])).is_none());
        assert!(tm.metrics_snapshot().counters.is_empty());
        tm.flush().unwrap();
    }

    #[test]
    fn clones_share_sink_and_metrics() {
        let (tm, sink) = Telemetry::memory();
        let tm2 = tm.clone();
        tm2.emit(Event::new(
            SimTime::ZERO,
            Component::Soa,
            Severity::Info,
            "a",
        ));
        tm.metrics(|m| m.inc_counter("c", &[]));
        tm2.metrics(|m| m.inc_counter("c", &[]));
        assert_eq!(sink.len(), 1);
        assert_eq!(tm.metrics(|m| m.counter("c", &[])), Some(2));
    }

    #[test]
    fn span_emits_duration() {
        let (tm, sink) = Telemetry::memory();
        let span = tm
            .span(SimTime::from_secs(10), Component::Harness, "tick")
            .field("step", 7u64);
        span.end(SimTime::from_secs(10) + SimDuration::from_millis(250));
        let events = sink.named("tick");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("dur_us"), Some(&FieldValue::U64(250_000)));
        assert_eq!(events[0].get("step"), Some(&FieldValue::U64(7)));
    }

    #[test]
    fn macro_skips_field_evaluation_when_disabled() {
        let tm = Telemetry::disabled();
        let mut evaluated = false;
        tm_event!(tm, SimTime::ZERO, Component::Sim, Severity::Info, "x",
            "v" => { evaluated = true; 1u64 });
        assert!(!evaluated);

        let (tm, sink) = Telemetry::memory();
        tm_event!(tm, SimTime::ZERO, Component::Sim, Severity::Info, "x",
            "v" => { evaluated = true; 1u64 });
        assert!(evaluated);
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn decision_ids_start_at_one_and_are_sequential() {
        let (tm, _sink) = Telemetry::memory();
        assert_eq!(tm.next_id(), 1);
        assert_eq!(tm.next_id(), 2);
        let clone = tm.clone();
        assert_eq!(clone.next_id(), 3, "clones share the id counter");
        assert_eq!(
            Telemetry::disabled().next_id(),
            0,
            "0 is the reserved no-id value"
        );
    }

    #[test]
    fn buffered_handle_uses_the_id_base() {
        let (tm, sink) = Telemetry::buffered(1 << 24);
        assert_eq!(tm.next_id(), 1 << 24);
        assert_eq!(tm.next_id(), (1 << 24) + 1);
        tm.emit(Event::new(
            SimTime::ZERO,
            Component::Sim,
            Severity::Info,
            "e",
        ));
        assert_eq!(sink.len(), 1);
        // Base 0 clamps to 1 so a buffered handle never emits the no-id value.
        let (tm, _sink) = Telemetry::buffered(0);
        assert_eq!(tm.next_id(), 1);
    }

    #[test]
    fn absorb_replays_events_and_merges_metrics_in_order() {
        let (outer, outer_sink) = Telemetry::memory();
        outer.metrics(|m| m.inc_counter("c", &[]));

        let shard = |base: u64, name: &'static str, gauge: f64| {
            let (tm, sink) = Telemetry::buffered(base);
            tm.emit(Event::new(
                SimTime::ZERO,
                Component::Sim,
                Severity::Info,
                name,
            ));
            tm.metrics(|m| {
                m.inc_counter("c", &[]);
                m.set_gauge("g", &[], gauge);
                m.observe("h", &[], gauge);
            });
            (sink.take(), tm.metrics_snapshot())
        };
        let (ev0, m0) = shard(100, "shard0", 1.0);
        let (ev1, m1) = shard(200, "shard1", 2.0);
        outer.absorb(ev0.clone(), &m0);
        outer.absorb(ev1, &m1);

        let names: Vec<&str> = outer_sink.events().iter().map(|e| e.name).collect();
        assert_eq!(names, ["shard0", "shard1"], "canonical shard order");
        assert_eq!(outer.metrics(|m| m.counter("c", &[])), Some(3));
        // Gauges: last absorbed shard wins, same as a serial run.
        assert_eq!(outer.metrics(|m| m.gauge("g", &[])).flatten(), Some(2.0));
        let snap = outer.metrics_snapshot();
        let (key, h) = &snap.histograms[0];
        assert_eq!((key.name, h.count()), ("h", 2));

        // Absorbing into a disabled handle is a no-op.
        Telemetry::disabled().absorb(ev0, &m0);
    }

    #[test]
    fn metrics_snapshot_dump_is_sorted_and_stable() {
        let (tm, sink) = Telemetry::memory();
        tm.metrics(|m| {
            m.inc_counter("zz", &[]);
            m.inc_counter("aa", &[("rack", 1usize.into())]);
            m.inc_counter("aa", &[("rack", 0usize.into())]);
            m.set_gauge("g", &[], 2.5);
            m.observe("h", &[], 10.0);
        });
        tm.emit_metrics_snapshot(SimTime::from_secs(9));
        let dump: Vec<String> = sink
            .named("metric")
            .iter()
            .map(|e| format!("{} {}", e.get("kind").unwrap(), e.get("key").unwrap()))
            .collect();
        assert_eq!(
            dump,
            vec![
                "counter aa{rack=0}",
                "counter aa{rack=1}",
                "counter zz",
                "gauge g",
                "hist h",
            ]
        );
        // A second dump appends the identical section again.
        tm.emit_metrics_snapshot(SimTime::from_secs(9));
        let again = sink.named("metric");
        assert_eq!(again.len(), 10);
        assert_eq!(&again[..5], &again[5..]);
    }

    #[test]
    fn jsonl_roundtrip_through_handle() {
        let path =
            std::env::temp_dir().join(format!("soc-telemetry-handle-{}.jsonl", std::process::id()));
        {
            let tm = Telemetry::jsonl(&path).unwrap();
            tm_event!(tm, SimTime::from_secs(1), Component::Goa, Severity::Info, "budget_split",
                "racks" => 2usize);
            tm.flush().unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"name\":\"budget_split\""));
        std::fs::remove_file(&path).ok();
    }
}
