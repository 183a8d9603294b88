//! `LayerProbe`: the benchmark's own `ShardProbe`.
//!
//! The simulator announces its layers through `soc_cluster::probe::ShardProbe`
//! span names. Each known name has a fixed slot holding its exact call
//! count, its summed worker time and, for spans that fire once per rack or
//! per run, every call's duration. Counters and merged telemetry events are
//! kept next to the slots.
//!
//! A **coarse** probe declines the per-step spans (`rack/admission`,
//! `rack/aggregation`), so it pays one clock read pair per rack; a **fine**
//! probe records every span, which the admission and aggregation shares
//! need but which slows the engine down measurably.

use soc_cluster::probe::{ShardProbe, SpanToken};
use soc_telemetry::Event;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Every span name the simulator emits, in slot order.
const SPANS: [&str; 6] = [
    "shard/trace_gen",
    "rack/setup",
    "shard/sim",
    "rack/admission",
    "rack/aggregation",
    "merge",
];

/// Spans that fire once per simulated step; only a fine probe records them.
const PER_STEP: [&str; 2] = ["rack/admission", "rack/aggregation"];

/// Which spans a probe records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Detail {
    /// Spans that fire once per rack or per run.
    Coarse,
    /// Every span, per-step ones included.
    Fine,
}

#[derive(Default)]
struct Slot {
    calls: AtomicU64,
    ns: AtomicU64,
    samples: Mutex<Vec<u64>>,
}

#[derive(Default)]
struct Inner {
    slots: [Slot; SPANS.len()],
    counters: Mutex<BTreeMap<&'static str, u64>>,
    events: Mutex<BTreeMap<&'static str, u64>>,
}

/// Records the simulator's spans, counters and merged events.
pub struct LayerProbe {
    detail: Detail,
    inner: Arc<Inner>,
}

struct Token {
    inner: Arc<Inner>,
    slot: usize,
    start: Instant,
}

impl SpanToken for Token {}

impl Drop for Token {
    fn drop(&mut self) {
        let ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let slot = &self.inner.slots[self.slot];
        slot.calls.fetch_add(1, Ordering::Relaxed);
        slot.ns.fetch_add(ns, Ordering::Relaxed);
        if !PER_STEP.contains(&SPANS[self.slot]) {
            // A poisoned lock only loses a sample; never panic in drop.
            if let Ok(mut samples) = slot.samples.lock() {
                samples.push(ns);
            }
        }
    }
}

impl LayerProbe {
    pub fn new(detail: Detail) -> LayerProbe {
        LayerProbe {
            detail,
            inner: Arc::default(),
        }
    }

    /// Everything recorded so far.
    pub fn snapshot(&self) -> ProbeSnapshot {
        let spans = SPANS
            .iter()
            .zip(&self.inner.slots)
            .map(|(&name, slot)| {
                let samples = slot.samples.lock().expect("probe lock poisoned").clone();
                let stats = SpanStats {
                    calls: slot.calls.load(Ordering::Relaxed),
                    ns: slot.ns.load(Ordering::Relaxed),
                    samples,
                };
                (name, stats)
            })
            .collect();
        ProbeSnapshot {
            spans,
            counters: self
                .inner
                .counters
                .lock()
                .expect("probe lock poisoned")
                .clone(),
            events: self
                .inner
                .events
                .lock()
                .expect("probe lock poisoned")
                .clone(),
        }
    }
}

impl ShardProbe for LayerProbe {
    fn span(&self, name: &'static str) -> Option<Box<dyn SpanToken>> {
        if self.detail == Detail::Coarse && PER_STEP.contains(&name) {
            return None;
        }
        let slot = SPANS.iter().position(|&s| s == name)?;
        Some(Box::new(Token {
            inner: Arc::clone(&self.inner),
            slot,
            start: Instant::now(),
        }))
    }

    fn add(&self, counter: &'static str, n: u64) {
        *self
            .inner
            .counters
            .lock()
            .expect("probe lock poisoned")
            .entry(counter)
            .or_insert(0) += n;
    }

    fn event(&self, event: &Event) {
        *self
            .inner
            .events
            .lock()
            .expect("probe lock poisoned")
            .entry(event.component.as_str())
            .or_insert(0) += 1;
    }
}

/// One span slot as recorded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanStats {
    /// Exact number of calls.
    pub calls: u64,
    /// Duration summed over calls (worker time, not wall time).
    pub ns: u64,
    /// Each call's duration, except for per-step spans.
    pub samples: Vec<u64>,
}

impl SpanStats {
    pub fn worker_ms(&self) -> f64 {
        self.ns as f64 / 1e6
    }

    pub fn sample_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|&ns| ns as f64 / 1e6).collect()
    }
}

/// A probe's contents after a pass.
#[derive(Debug, Clone, Default)]
pub struct ProbeSnapshot {
    pub spans: BTreeMap<&'static str, SpanStats>,
    pub counters: BTreeMap<&'static str, u64>,
    /// Merged telemetry events by emitting component.
    pub events: BTreeMap<&'static str, u64>,
}

impl ProbeSnapshot {
    pub fn span(&self, name: &str) -> SpanStats {
        self.spans.get(name).cloned().unwrap_or_default()
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn events(&self, component: &str) -> u64 {
        self.events.get(component).copied().unwrap_or(0)
    }

    /// Per-pass values of a probe that recorded `passes` identical passes:
    /// counts and sums divided by `passes`, per-call samples pooled.
    pub fn per_pass(mut self, passes: u64) -> ProbeSnapshot {
        for s in self.spans.values_mut() {
            s.calls /= passes;
            s.ns /= passes;
        }
        for n in self.counters.values_mut().chain(self.events.values_mut()) {
            *n /= passes;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{prepare, round, Scale, Tm, Workload};
    use soc_cluster::probe::NoopProbe;

    type Calls = BTreeMap<&'static str, u64>;

    fn counts(threads: usize, detail: Detail) -> (Calls, Calls) {
        let inputs = prepare(Workload::FleetStream, Scale::Tiny, 7, threads, &NoopProbe);
        let probe = LayerProbe::new(detail);
        round(&inputs, threads, &probe, Tm::Default);
        let snap = probe.snapshot();
        let calls = snap.spans.iter().map(|(&n, s)| (n, s.calls)).collect();
        (calls, snap.counters)
    }

    #[test]
    fn counts_are_identical_at_one_and_two_threads() {
        for detail in [Detail::Coarse, Detail::Fine] {
            assert_eq!(counts(1, detail), counts(2, detail), "{detail:?}");
        }
    }

    #[test]
    fn coarse_declines_per_step_spans_and_fine_records_them() {
        let (coarse, counters) = counts(2, Detail::Coarse);
        let (fine, _) = counts(2, Detail::Fine);
        assert_eq!(coarse["shard/trace_gen"], counters["racks"]);
        assert_eq!(coarse["rack/admission"], 0);
        assert_eq!(fine["rack/admission"], counters["sim_steps"]);
        assert_eq!(fine["rack/aggregation"], counters["sim_steps"]);
    }
}
