//! Deterministic alert-rule engine.
//!
//! Rules are declarative descriptions of unhealthy conditions; the engine
//! evaluates them *after* the run, over the complete recorded series store
//! and event log, on sim-time boundaries only. Evaluation is a pure function
//! of `(rules, store, trace)` — no wall clock, no sampling jitter — so the
//! alert set for a given seed is byte-stable and can be golden-tested like
//! any other simulation output. A series rule opens an alert for an entity
//! at the first bucket where its condition holds and resolves it at the
//! first bucket where it no longer does.

use crate::series::{Series, SeriesStore};
use crate::{Trace, TraceEvent};

/// What a rule watches.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleKind {
    /// Fires while a series' bucket max exceeds `above`. With `ratio_of`
    /// set, the tested value is `metric / ratio_of` (same entity), e.g.
    /// rack draw as a fraction of the rack limit.
    Threshold {
        metric: String,
        ratio_of: Option<String>,
        above: f64,
    },
    /// Fires when a series that has started reporting goes silent for more
    /// than `max_gap_us` between consecutive samples.
    AbsentData { metric: String, max_gap_us: u64 },
    /// Fires on telemetry events with this name; events closer together
    /// than `merge_gap_us` merge into one alert.
    Event { name: String, merge_gap_us: u64 },
    /// Fires between an `enter` and an `exit` telemetry event (degraded
    /// windows); an unmatched `enter` leaves the alert firing at run end.
    Window { enter: String, exit: String },
}

/// One declarative alert rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Stable identifier, used in reports and incident grouping.
    pub id: String,
    pub kind: RuleKind,
}

impl Rule {
    /// A rule named `id` watching `kind`.
    pub fn new(id: &str, kind: RuleKind) -> Rule {
        Rule {
            id: id.to_string(),
            kind,
        }
    }
}

/// One firing or resolved alert instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Id of the rule that produced the alert.
    pub rule: String,
    /// Entity the alert is about (rack index; 0 for fleet-level signals).
    pub entity: u64,
    /// Sim time the alert opened.
    pub start_us: u64,
    /// Sim time the alert resolved; `None` = still firing at run end.
    pub end_us: Option<u64>,
    /// Worst observed value (threshold/rate), event count (event rules), or
    /// window length in microseconds (window rules).
    pub peak: f64,
    /// Decision id of the telemetry event that opened the alert (0 when the
    /// alert came from a series, which carries no causal ids).
    pub decision_id: u64,
}

/// The default rule set covering the signals the simulation already emits.
///
/// `step_us` is the simulation step: event merging and absence detection are
/// scaled to it so the rules work at any experiment cadence.
pub fn default_rules(step_us: u64) -> Vec<Rule> {
    let step = step_us.max(1);
    vec![
        // Post-enforcement draw above the contracted limit: always an
        // incident, merge per-step repeats within one outage.
        Rule::new(
            "budget_violation",
            RuleKind::Event {
                name: "budget_violation".to_string(),
                merge_gap_us: 2 * step,
            },
        ),
        // SLO misses from the harness experiments.
        Rule::new(
            "slo_miss",
            RuleKind::Event {
                name: "slo_miss".to_string(),
                merge_gap_us: 2 * step,
            },
        ),
        // Stale-budget degraded windows (gOA unreachable).
        Rule::new(
            "degraded",
            RuleKind::Window {
                enter: "degraded_enter".to_string(),
                exit: "degraded_exit".to_string(),
            },
        ),
        // Rack draw eating the last percent of headroom. Post-enforcement
        // draw is clamped to 98 % of the limit except on true violations,
        // so 99 % only trips when enforcement failed.
        Rule::new(
            "headroom",
            RuleKind::Threshold {
                metric: "rack_draw_w".to_string(),
                ratio_of: Some("rack_limit_w".to_string()),
                above: 0.99,
            },
        ),
        // A rack that stops reporting draw entirely.
        Rule::new(
            "absent_data",
            RuleKind::AbsentData {
                metric: "rack_draw_w".to_string(),
                max_gap_us: 8 * step,
            },
        ),
    ]
}

/// Evaluate every rule against the recorded series and events; alerts come
/// out ordered by `(rule id, entity, start)`.
pub(crate) fn evaluate(rules: &[Rule], store: &SeriesStore, trace: &Trace) -> Vec<Alert> {
    let mut alerts = Vec::new();
    for rule in rules {
        match &rule.kind {
            RuleKind::Threshold {
                metric, ratio_of, ..
            } => {
                for entity in store.entities(metric) {
                    if let Some(series) = store.get(metric, entity) {
                        let reference = ratio_of.as_ref().and_then(|r| store.get(r, entity));
                        alerts.extend(threshold_alerts(rule, entity, series, reference));
                    }
                }
            }
            RuleKind::AbsentData { metric, max_gap_us } => {
                for entity in store.entities(metric) {
                    if let Some(series) = store.get(metric, entity) {
                        alerts.extend(absent_alerts(rule, entity, series, *max_gap_us));
                    }
                }
            }
            RuleKind::Event { name, merge_gap_us } => {
                alerts.extend(event_alerts(rule, trace, name, *merge_gap_us));
            }
            RuleKind::Window { enter, exit } => {
                alerts.extend(window_alerts(rule, trace, enter, exit));
            }
        }
    }
    alerts.sort_by(|a, b| (&a.rule, a.entity, a.start_us).cmp(&(&b.rule, b.entity, b.start_us)));
    alerts
}

/// The entity a telemetry event is about: its `rack` field, or 0.
fn event_entity(e: &TraceEvent) -> u64 {
    e.field_u64("rack").unwrap_or(0)
}

/// The causal id an alert inherits from its trigger event.
fn event_decision(e: &TraceEvent) -> u64 {
    let d = e.decision_id();
    if d != 0 {
        d
    } else {
        e.cause_id()
    }
}

/// Firing/resolved state machine over a (time, value) condition walk.
struct FiringState<'r> {
    rule: &'r Rule,
    entity: u64,
    firing_since: Option<u64>,
    peak: f64,
    out: Vec<Alert>,
}

impl<'r> FiringState<'r> {
    fn new(rule: &'r Rule, entity: u64) -> FiringState<'r> {
        FiringState {
            rule,
            entity,
            firing_since: None,
            peak: f64::MIN,
            out: Vec::new(),
        }
    }

    fn observe(&mut self, t_us: u64, value: f64, condition: bool) {
        if condition {
            self.firing_since.get_or_insert(t_us);
            self.peak = self.peak.max(value);
        } else {
            if let Some(start) = self.firing_since.take() {
                self.out.push(Alert {
                    rule: self.rule.id.clone(),
                    entity: self.entity,
                    start_us: start,
                    end_us: Some(t_us),
                    peak: self.peak,
                    decision_id: 0,
                });
            }
            self.peak = f64::MIN;
        }
    }

    fn finish(mut self) -> Vec<Alert> {
        if let Some(start) = self.firing_since.take() {
            self.out.push(Alert {
                rule: self.rule.id.clone(),
                entity: self.entity,
                start_us: start,
                end_us: None,
                peak: self.peak,
                decision_id: 0,
            });
        }
        self.out
    }
}

fn threshold_alerts(
    rule: &Rule,
    entity: u64,
    series: &Series,
    reference: Option<&Series>,
) -> Vec<Alert> {
    let RuleKind::Threshold {
        above, ratio_of, ..
    } = &rule.kind
    else {
        return Vec::new();
    };
    let mut state = FiringState::new(rule, entity);
    for b in series.buckets() {
        let value = match (ratio_of, reference) {
            (Some(_), Some(r)) => match r.value_at(b.t0_us) {
                Some(denominator) if denominator != 0.0 => b.max / denominator,
                // No reference yet (or zero): the ratio is undefined, not
                // unhealthy.
                _ => continue,
            },
            (Some(_), None) => continue,
            (None, _) => b.max,
        };
        state.observe(b.t0_us, value, value > *above);
    }
    state.finish()
}

fn absent_alerts(rule: &Rule, entity: u64, series: &Series, max_gap_us: u64) -> Vec<Alert> {
    let mut out = Vec::new();
    for pair in series.buckets().windows(2) {
        // Bucket boundaries under-resolve intra-bucket gaps, so compare the
        // last sample of one bucket to the start of the next.
        let gap = pair[1].t0_us.saturating_sub(pair[0].last_t_us);
        if gap > max_gap_us {
            out.push(Alert {
                rule: rule.id.clone(),
                entity,
                start_us: pair[0].last_t_us,
                end_us: Some(pair[1].t0_us),
                peak: gap as f64,
                decision_id: 0,
            });
        }
    }
    out
}

fn event_alerts(rule: &Rule, trace: &Trace, name: &str, merge_gap_us: u64) -> Vec<Alert> {
    // Trace events are already in canonical (t, raw) order; walk them per
    // entity and merge bursts into one alert.
    let mut open: std::collections::BTreeMap<u64, Alert> = std::collections::BTreeMap::new();
    let mut out = Vec::new();
    for e in trace.control_events().filter(|e| e.name == name) {
        let entity = event_entity(e);
        let merged = match open.get_mut(&entity) {
            Some(alert)
                if e.t_us
                    .saturating_sub(alert.end_us.unwrap_or(alert.start_us))
                    <= merge_gap_us =>
            {
                alert.end_us = Some(e.t_us);
                alert.peak += 1.0;
                true
            }
            _ => false,
        };
        if !merged {
            if let Some(done) = open.remove(&entity) {
                out.push(done);
            }
            open.insert(
                entity,
                Alert {
                    rule: rule.id.clone(),
                    entity,
                    start_us: e.t_us,
                    end_us: Some(e.t_us),
                    peak: 1.0,
                    decision_id: event_decision(e),
                },
            );
        }
    }
    out.extend(open.into_values());
    out
}

fn window_alerts(rule: &Rule, trace: &Trace, enter: &str, exit: &str) -> Vec<Alert> {
    let mut open: std::collections::BTreeMap<u64, Alert> = std::collections::BTreeMap::new();
    let mut out = Vec::new();
    for e in trace.control_events() {
        let entity = event_entity(e);
        if e.name == enter {
            // Nested enters extend the open window rather than stacking.
            open.entry(entity).or_insert(Alert {
                rule: rule.id.clone(),
                entity,
                start_us: e.t_us,
                end_us: None,
                peak: 0.0,
                decision_id: event_decision(e),
            });
        } else if e.name == exit {
            if let Some(mut alert) = open.remove(&entity) {
                alert.end_us = Some(e.t_us);
                alert.peak = e.t_us.saturating_sub(alert.start_us) as f64;
                out.push(alert);
            }
        }
    }
    // Unmatched enters are still firing at run end.
    out.extend(open.into_values());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with(metric: &str, entity: u64, samples: &[(u64, f64)]) -> SeriesStore {
        let mut store = SeriesStore::new(0);
        for (t, v) in samples {
            store.record(metric, entity, *t, *v);
        }
        store
    }

    fn empty_trace() -> Trace {
        Trace::parse("").expect("empty trace parses")
    }

    #[test]
    fn threshold_fires_and_resolves() {
        let store = store_with(
            "draw",
            3,
            &[(0, 10.0), (10, 95.0), (20, 97.0), (30, 40.0), (40, 41.0)],
        );
        let rule = Rule::new(
            "hot",
            RuleKind::Threshold {
                metric: "draw".to_string(),
                ratio_of: None,
                above: 90.0,
            },
        );
        let alerts = evaluate(&[rule], &store, &empty_trace());
        assert_eq!(alerts.len(), 1);
        let a = &alerts[0];
        assert_eq!((a.entity, a.start_us, a.end_us), (3, 10, Some(30)));
        assert_eq!(a.peak, 97.0);
    }

    #[test]
    fn ratio_threshold_uses_reference_series() {
        let mut store = SeriesStore::new(0);
        store.record("limit", 1, 0, 100.0);
        for (t, v) in [(0u64, 50.0), (10, 99.5), (20, 50.0)] {
            store.record("draw", 1, t, v);
        }
        let rule = Rule::new(
            "headroom",
            RuleKind::Threshold {
                metric: "draw".to_string(),
                ratio_of: Some("limit".to_string()),
                above: 0.99,
            },
        );
        let alerts = evaluate(&[rule], &store, &empty_trace());
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].start_us, 10);
        assert!((alerts[0].peak - 0.995).abs() < 1e-12);
    }

    #[test]
    fn absent_data_flags_silent_gaps() {
        let store = store_with("draw", 2, &[(0, 1.0), (10, 1.0), (500, 1.0), (510, 1.0)]);
        let rule = Rule::new(
            "absent",
            RuleKind::AbsentData {
                metric: "draw".to_string(),
                max_gap_us: 100,
            },
        );
        let alerts = evaluate(&[rule], &store, &empty_trace());
        assert_eq!(alerts.len(), 1);
        let a = &alerts[0];
        assert_eq!((a.start_us, a.end_us, a.peak), (10, Some(500), 490.0));
    }

    #[test]
    fn event_rule_merges_bursts_per_entity() {
        let text = [
            r#"{"t_us":100,"component":"fault","severity":"error","name":"budget_violation","fields":{"rack":1,"decision_id":11}}"#,
            r#"{"t_us":150,"component":"fault","severity":"error","name":"budget_violation","fields":{"rack":1,"decision_id":12}}"#,
            r#"{"t_us":150,"component":"fault","severity":"error","name":"budget_violation","fields":{"rack":2,"decision_id":13}}"#,
            r#"{"t_us":900,"component":"fault","severity":"error","name":"budget_violation","fields":{"rack":1,"decision_id":14}}"#,
        ]
        .join("\n");
        let trace = Trace::parse(&text).expect("trace parses");
        let rule = Rule::new(
            "violation",
            RuleKind::Event {
                name: "budget_violation".to_string(),
                merge_gap_us: 100,
            },
        );
        let alerts = evaluate(&[rule], &SeriesStore::new(0), &trace);
        // rack 1: burst (100..150) + separate at 900; rack 2: one.
        assert_eq!(alerts.len(), 3);
        assert_eq!(alerts[0].entity, 1);
        assert_eq!(alerts[0].peak, 2.0);
        assert_eq!(alerts[0].decision_id, 11);
        assert_eq!(alerts[1].entity, 1);
        assert_eq!(alerts[1].start_us, 900);
        assert_eq!(alerts[2].entity, 2);
    }

    #[test]
    fn window_rule_pairs_enter_and_exit() {
        let text = [
            r#"{"t_us":100,"component":"fault","severity":"warn","name":"degraded_enter","fields":{"rack":0,"decision_id":7}}"#,
            r#"{"t_us":400,"component":"fault","severity":"info","name":"degraded_exit","fields":{"rack":0,"cause_id":7}}"#,
            r#"{"t_us":500,"component":"fault","severity":"warn","name":"degraded_enter","fields":{"rack":3,"decision_id":9}}"#,
        ]
        .join("\n");
        let trace = Trace::parse(&text).expect("trace parses");
        let rule = Rule::new(
            "degraded",
            RuleKind::Window {
                enter: "degraded_enter".to_string(),
                exit: "degraded_exit".to_string(),
            },
        );
        let alerts = evaluate(&[rule], &SeriesStore::new(0), &trace);
        assert_eq!(alerts.len(), 2);
        let closed = &alerts[0];
        assert_eq!(
            (closed.entity, closed.start_us, closed.end_us, closed.peak),
            (0, 100, Some(400), 300.0)
        );
        assert_eq!(closed.decision_id, 7);
        let open = &alerts[1];
        assert_eq!((open.entity, open.end_us), (3, None));
    }

    #[test]
    fn default_rules_cover_the_documented_signals() {
        let rules = default_rules(900_000_000);
        let ids: Vec<&str> = rules.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(
            ids,
            vec![
                "budget_violation",
                "slo_miss",
                "degraded",
                "headroom",
                "absent_data"
            ]
        );
    }
}
