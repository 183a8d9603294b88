//! `soc-analyze`: offline analysis of SmartOClock run artifacts.
//!
//! The telemetry layer (`soc-telemetry`) emits JSONL traces whose
//! control-plane events carry causal correlation ids: a `decision_id` names
//! the decision an event records, a `cause_id` points at the parent decision
//! (`0` = no parent). This crate consumes those traces and answers the
//! questions the paper's evaluation revolves around:
//!
//! * **why** — [`chains`] reconstructs warning → cap → revoke → SLO-miss
//!   timelines by walking `cause_id` links;
//! * **who pays** — [`attribution`] splits SLO-missed windows into capping
//!   vs. admission-denial vs. queueing, per service tier;
//! * **how much** — [`rollup`] summarizes event classes and end-of-run
//!   counter/gauge/histogram dumps;
//! * **what changed** — [`diff`] compares two runs (e.g. `SmartOClock` vs
//!   `NaiveOClock`) with per-metric deltas and newly-appearing event classes.
//!
//! It also holds fleet health — "which racks are unhealthy right now, when
//! did the incident start, and what caused it?":
//!
//! * **Series store** ([`series`]) — fixed-capacity, hierarchically
//!   downsampled sim-time series per `(metric, entity)`.
//! * **Alert rules** ([`rules`]) — declarative threshold / absent-data /
//!   event / window rules with firing-resolved state machines, evaluated
//!   deterministically over the complete recorded run.
//! * **Incidents** ([`incident`]) — overlapping alerts grouped into
//!   operator-facing incidents, each joined to its root cause through
//!   [`chains`].
//!
//! Like `soc-prof`, this crate lives strictly *outside* the deterministic
//! simulation core. Sim-state crates never link it (the soc-lint layer
//! rules A001/A002 enforce the direction); instead the sharded engine exposes pure no-op observation
//! hooks (`soc_cluster::probe::ShardProbe::{gauge, event}`) and bench
//! binaries attach a [`Recorder`] behind them. A run with the recorder
//! attached is byte-identical — traces, metrics, outcomes — to a run
//! without it, at every thread count (`tests/health.rs` pins this).
//!
//! Every artifact is read with the workspace's one JSON codec,
//! [`soc_telemetry::json`], so the crate has no external dependencies. All
//! outputs are deterministic — analyzing the same set of trace lines yields
//! byte-identical reports regardless of line order ([`trace::Trace`] sorts
//! canonically on load), and the same run produces byte-identical health
//! reports, renders, and JSON ([`json`]), so incident timelines can be
//! golden-tested and CI-gated like any other simulation output.

#![forbid(unsafe_code)]

pub mod attribution;
pub mod chains;
pub mod diff;
pub mod incident;
pub mod json;
pub mod render;
pub mod report;
pub mod rollup;
pub mod rules;
pub mod series;
pub mod trace;

pub use attribution::AttributionCounts;
pub use diff::TraceDiff;
pub use incident::{build_incidents, Incident};
pub use report::full_report;
pub use rules::{default_rules, evaluate, Alert, Rule, RuleKind};
pub use series::{Bucket, Series, SeriesStore, DEFAULT_CAPACITY};
pub use trace::{Trace, TraceError, TraceEvent};

use soc_telemetry::json::event_to_json;
use soc_telemetry::Event;
use std::sync::{Arc, Mutex};

/// The complete health picture of one run: series, alerts, incidents.
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Run name (usually the bench binary), shown in reports.
    pub name: String,
    /// Every recorded `(metric, entity)` series.
    pub store: SeriesStore,
    /// All alerts, in `(rule, entity, start)` order.
    pub alerts: Vec<Alert>,
    /// Incident timeline in start order.
    pub incidents: Vec<Incident>,
}

impl HealthReport {
    /// Incidents whose last member alert resolved before run end.
    pub fn resolved_incidents(&self) -> usize {
        self.incidents.iter().filter(|i| i.end_us.is_some()).count()
    }

    /// Incidents still open at run end.
    pub fn open_incidents(&self) -> usize {
        self.incidents.len() - self.resolved_incidents()
    }
}

struct State {
    name: String,
    store: SeriesStore,
    /// Telemetry events, re-serialized to JSONL so [`Trace`] can
    /// canonicalize and causally index them at finalize time.
    event_lines: Vec<String>,
}

/// Cheap cloneable recorder fed through the `ShardProbe` observation seam.
///
/// A disabled recorder (the default) is `None` internally: every call is one
/// branch and never locks or allocates, mirroring `Telemetry::disabled`.
/// The mutex makes `sample` safe to call from concurrent simulation workers;
/// determinism does not depend on lock acquisition order because each series
/// receives its samples from exactly one worker in time order, and all
/// cross-series output ordering is canonical (see [`series::SeriesStore`]).
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Mutex<State>>>,
}

impl Recorder {
    /// An enabled recorder with the default per-series capacity.
    pub fn new(name: &str) -> Recorder {
        Recorder::with_capacity(name, 0)
    }

    /// An enabled recorder; `capacity` bounds buckets per series (0 means
    /// [`DEFAULT_CAPACITY`]).
    pub fn with_capacity(name: &str, capacity: usize) -> Recorder {
        Recorder {
            inner: Some(Arc::new(Mutex::new(State {
                name: name.to_string(),
                store: SeriesStore::new(capacity),
                event_lines: Vec::new(),
            }))),
        }
    }

    /// A disabled recorder: every call is a no-op.
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// `true` when the recorder is collecting.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record one gauge sample into the `(metric, entity)` series.
    pub fn sample(&self, t_us: u64, metric: &str, entity: u64, value: f64) {
        if let Some(inner) = &self.inner {
            if let Ok(mut state) = inner.lock() {
                state.store.record(metric, entity, t_us, value);
            }
        }
    }

    /// Record one telemetry event for alert rules and root-cause joins.
    ///
    /// Callers must feed events in a deterministic order (the sharded
    /// engine's serial merge loop does); the trace is canonically re-sorted
    /// at finalize time anyway, so only the *set* of events matters.
    pub fn observe(&self, event: &Event) {
        if let Some(inner) = &self.inner {
            let line = event_to_json(event);
            if let Ok(mut state) = inner.lock() {
                state.event_lines.push(line);
            }
        }
    }

    /// Number of samples recorded so far, across all series (0 when
    /// disabled). Used by tests to assert the recorder actually saw data.
    pub fn samples(&self) -> u64 {
        match &self.inner {
            Some(inner) => match inner.lock() {
                Ok(state) => state.store.iter().map(|(_, s)| s.samples()).sum(),
                Err(_) => 0,
            },
            None => 0,
        }
    }

    /// Evaluate `rules` over everything recorded and build the incident
    /// timeline. Returns `None` when the recorder is disabled.
    pub fn finalize(&self, rules: &[Rule]) -> Option<HealthReport> {
        let inner = self.inner.as_ref()?;
        let state = inner.lock().ok()?;
        // Lines come from `event_to_json`, which always emits one valid JSON
        // object per event; a parse failure is unreachable, but degrade to
        // an empty trace rather than panicking inside observability code.
        let trace =
            Trace::parse(&state.event_lines.join("\n")).unwrap_or_else(|_| Trace::default());
        let alerts = evaluate(rules, &state.store, &trace);
        let incidents = build_incidents(&alerts, &trace);
        Some(HealthReport {
            name: state.name.clone(),
            store: state.store.clone(),
            alerts,
            incidents,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::SimTime;
    use soc_telemetry::{Component, Severity};

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        r.sample(1, "draw", 0, 5.0);
        assert_eq!(r.samples(), 0);
        assert!(r.finalize(&default_rules(1)).is_none());
    }

    #[test]
    fn recorder_clones_share_state() {
        let r = Recorder::new("test");
        let r2 = r.clone();
        r.sample(1, "draw", 0, 5.0);
        r2.sample(2, "draw", 0, 6.0);
        assert_eq!(r.samples(), 2);
    }

    #[test]
    fn finalize_joins_events_and_series_into_incidents() {
        let r = Recorder::new("test");
        r.observe(
            &Event::new(
                SimTime::from_secs(10),
                Component::Sim,
                Severity::Warn,
                "degraded_enter",
            )
            .field("rack", 0usize)
            .field("decision_id", 42usize),
        );
        r.observe(
            &Event::new(
                SimTime::from_secs(20),
                Component::Sim,
                Severity::Info,
                "degraded_exit",
            )
            .field("rack", 0usize)
            .field("cause_id", 42usize),
        );
        let report = r.finalize(&default_rules(1_000_000)).expect("enabled");
        assert_eq!(report.alerts.len(), 1);
        assert_eq!(report.incidents.len(), 1);
        assert_eq!(report.resolved_incidents(), 1);
        assert_eq!(report.open_incidents(), 0);
        let incident = &report.incidents[0];
        assert_eq!(incident.start_us, 10_000_000);
        assert_eq!(incident.end_us, Some(20_000_000));
        assert_eq!(incident.root_decision, 42);
    }
}
