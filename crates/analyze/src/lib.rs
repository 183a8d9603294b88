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
//! It also reads fleet health — "which racks are unhealthy right now, when
//! did the incident start, and what caused it?" — from the same trace:
//!
//! * **Series store** ([`series`]) — fixed-capacity, hierarchically
//!   downsampled sim-time series per `(metric, entity)`, rebuilt from the
//!   one `rack_series` event each traced rack run emits (its per-step draws
//!   and its limit).
//! * **Alert rules** ([`rules`]) — declarative threshold / absent-data /
//!   event / window rules with firing-resolved state machines, evaluated
//!   deterministically over the complete run.
//! * **Incidents** ([`incident`]) — overlapping alerts grouped into
//!   operator-facing incidents, each joined to its root cause through
//!   [`chains`].
//!
//! Health is evaluated per run ([`HealthReport::per_run`]): a record's run
//! is the run bits of its decision id ([`soc_telemetry::ids::run_of`]), so
//! a trace holding many sharded runs reads as one section per run.
//!
//! Like `soc-prof`, this crate lives strictly *outside* the deterministic
//! simulation core. Sim-state crates never link it (the soc-lint layer
//! rules A001/A002 enforce the direction); it only reads the artifacts a
//! run wrote.
//!
//! Every artifact is read with the workspace's one JSON codec,
//! [`soc_telemetry::json`], so the crate has no external dependencies. All
//! outputs are deterministic — analyzing the same set of trace lines yields
//! byte-identical reports regardless of line order ([`trace::Trace`] sorts
//! canonically on load), so incident timelines can be golden-tested and
//! CI-gated like any other simulation output.

#![forbid(unsafe_code)]

pub mod attribution;
pub mod chains;
pub mod diff;
pub mod incident;
pub mod render;
pub mod report;
pub mod rollup;
pub mod rules;
pub mod series;
pub mod trace;

pub use attribution::AttributionCounts;
pub use diff::TraceDiff;
pub use incident::Incident;
pub use report::full_report;
pub use rules::{Alert, Rule, RuleKind};
pub use series::{Bucket, Series, SeriesStore};
pub use trace::{Trace, TraceError, TraceEvent};

use rules::default_rules;
use soc_telemetry::json::Value;
use std::collections::BTreeMap;

/// The name of the event a traced rack run emits once, at its first step,
/// carrying the rack's limit (`limit_w`), step (`step_us`) and per-step
/// post-enforcement draws (`draws_w`).
const SERIES_EVENT: &str = "rack_series";

/// The complete health picture of one run: series, alerts, incidents.
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Run label (`run <id> (<policy>)`), shown in reports.
    pub name: String,
    /// Every `(metric, entity)` series of the run.
    pub store: SeriesStore,
    /// All alerts, in `(rule, entity, start)` order.
    pub alerts: Vec<Alert>,
    /// Incident timeline in start order.
    pub incidents: Vec<Incident>,
}

impl HealthReport {
    /// One report per run that emitted `rack_series` events, in run order.
    ///
    /// Each run's store gets `rack_draw_w{rack}` (sample `k` at
    /// `t + k·step_us`) and `rack_limit_w{rack}` (one sample at `t`) from
    /// its series events; the default rules at the run's step are then
    /// evaluated over that store and the run's own events.
    pub fn per_run(trace: &Trace) -> Vec<HealthReport> {
        // Per run: its store, step and policy, from its series events.
        let mut runs: BTreeMap<u64, (SeriesStore, u64, &str)> = BTreeMap::new();
        for e in trace.control_events().filter(|e| e.name == SERIES_EVENT) {
            let (store, step_us, policy) = runs
                .entry(e.run())
                .or_insert_with(|| (SeriesStore::new(0), 0, ""));
            let rack = e.field_u64("rack").unwrap_or(0);
            *step_us = e.field_u64("step_us").unwrap_or(0);
            *policy = e.field_str("policy").unwrap_or_default();
            if let Some(limit) = e.field_f64("limit_w") {
                store.record("rack_limit_w", rack, e.t_us, limit);
            }
            let draws = match e.fields.get("draws_w") {
                Some(Value::Arr(draws)) => draws.as_slice(),
                _ => &[],
            };
            for (k, draw) in (0u64..).zip(draws) {
                if let Some(w) = draw.as_num() {
                    // Saturating: the trace is outside input.
                    let t_us = e.t_us.saturating_add(k.saturating_mul(*step_us));
                    store.record("rack_draw_w", rack, t_us, w);
                }
            }
        }
        runs.into_iter()
            .map(|(run, (store, step_us, policy))| {
                // The rules read the run's control events; its series
                // events are already in the store.
                let events = trace.retain(|e| e.run() == run && e.name != SERIES_EVENT);
                let alerts = rules::evaluate(&default_rules(step_us), &store, &events);
                let incidents = incident::build_incidents(&alerts, &events);
                HealthReport {
                    name: format!("run {run} ({policy})"),
                    store,
                    alerts,
                    incidents,
                }
            })
            .collect()
    }

    /// Incidents whose last member alert resolved before run end.
    pub fn resolved_incidents(&self) -> usize {
        self.incidents.iter().filter(|i| i.end_us.is_some()).count()
    }

    /// Incidents still open at run end.
    pub fn open_incidents(&self) -> usize {
        self.incidents.len() - self.resolved_incidents()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::{SimDuration, SimTime};
    use soc_telemetry::ids::shard_id_base;
    use soc_telemetry::json::event_to_json;
    use soc_telemetry::{Component, Event, Severity};

    /// A run's series event for `rack`, with ids from shard `rack` of run
    /// `run`.
    fn series(run: u64, rack: usize, draws: Vec<f64>) -> Event {
        Event::new(
            SimTime::from_secs(10),
            Component::Sim,
            Severity::Debug,
            "rack_series",
        )
        .field("rack", rack)
        .field("policy", "SmartOClock")
        .field("cause_id", shard_id_base(run, rack))
        .field("limit_w", 100.0)
        .field("step_us", SimDuration::from_secs(5))
        .field("draws_w", draws)
    }

    fn trace(events: &[Event]) -> Trace {
        let lines: Vec<String> = events.iter().map(event_to_json).collect();
        Trace::parse(&lines.join("\n")).expect("trace parses")
    }

    #[test]
    fn series_events_rebuild_the_draw_and_limit_series() {
        let reports = HealthReport::per_run(&trace(&[series(3, 1, vec![50.0, 99.5, 60.0])]));
        assert_eq!(reports.len(), 1);
        let report = &reports[0];
        assert_eq!(report.name, "run 3 (SmartOClock)");
        let draw = report.store.get("rack_draw_w", 1).expect("draw series");
        let samples: Vec<(u64, f64)> = draw.buckets().iter().map(|b| (b.t0_us, b.last)).collect();
        assert_eq!(
            samples,
            [(10_000_000, 50.0), (15_000_000, 99.5), (20_000_000, 60.0)]
        );
        let limit = report.store.get("rack_limit_w", 1).expect("limit series");
        assert_eq!(limit.samples(), 1);
        assert_eq!(limit.value_at(10_000_000), Some(100.0));
        // 99.5 % of the limit trips the headroom rule for one step.
        assert_eq!(report.alerts.len(), 1);
        assert_eq!(report.alerts[0].rule, "headroom");
        assert_eq!(report.alerts[0].start_us, 15_000_000);
        assert_eq!(report.alerts[0].end_us, Some(20_000_000));
    }

    #[test]
    fn runs_join_their_own_events_into_incidents() {
        let window = |run: u64| {
            let id = shard_id_base(run, 0) + 7;
            [
                Event::new(
                    SimTime::from_secs(10),
                    Component::Fault,
                    Severity::Warn,
                    "degraded_enter",
                )
                .field("rack", 0usize)
                .field("decision_id", id),
                Event::new(
                    SimTime::from_secs(20),
                    Component::Fault,
                    Severity::Info,
                    "degraded_exit",
                )
                .field("rack", 0usize)
                .field("cause_id", id),
            ]
        };
        let mut events = vec![series(1, 0, vec![1.0; 4]), series(2, 0, vec![1.0; 4])];
        events.extend(window(1));
        events.extend(window(2));
        // A run without a series event has no section.
        events.extend(window(5));
        let reports = HealthReport::per_run(&trace(&events));
        assert_eq!(reports.len(), 2);
        for (run, report) in [1, 2].into_iter().zip(&reports) {
            assert_eq!(report.alerts.len(), 1, "run {run}");
            assert_eq!(report.incidents.len(), 1, "run {run}");
            assert_eq!(report.resolved_incidents(), 1);
            assert_eq!(report.open_incidents(), 0);
            let incident = &report.incidents[0];
            assert_eq!(incident.start_us, 10_000_000);
            assert_eq!(incident.end_us, Some(20_000_000));
            assert_eq!(incident.root_decision, shard_id_base(run, 0) + 7);
        }
    }

    #[test]
    fn a_trace_without_series_events_has_no_runs() {
        let metric = Event::new(SimTime::ZERO, Component::Metrics, Severity::Debug, "metric")
            .field("kind", "counter")
            .field("key", "racks")
            .field("value", 4u64);
        assert!(HealthReport::per_run(&trace(&[metric])).is_empty());
    }
}
