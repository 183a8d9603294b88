//! Incident timelines: overlapping alerts grouped into operator-facing
//! incidents, each joined to its root cause through the causal chains of
//! [`crate::chains`].
//!
//! An *incident* is a maximal set of alerts whose firing windows overlap in
//! sim time — the operator view of "one thing went wrong here", even when it
//! tripped several rules across several racks (a gOA outage degrades every
//! rack at once and may surface budget violations while stale budgets are in
//! force). The root cause is recovered from the earliest alert that carries a
//! causal decision id: walking `cause_id` links backwards through the trace
//! yields the decision that started the story.

use crate::chains::{chain_ending_at, decision_index};
use crate::rules::Alert;
use crate::Trace;

/// One incident: a group of overlapping alerts with a causal explanation.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// 1-based incident number in start order.
    pub id: u64,
    /// Sim time the first member alert opened.
    pub start_us: u64,
    /// Sim time the last member alert resolved; `None` = still open at run
    /// end.
    pub end_us: Option<u64>,
    /// Member alerts, in `(start, rule, entity)` order.
    pub alerts: Vec<Alert>,
    /// Root decision id from the causal chain of the earliest attributable
    /// alert, falling back to the decision in force for the entity when the
    /// incident opened (0 = nothing in the trace explains it).
    pub root_decision: u64,
    /// The causal chain as `" -> "`-joined event names (empty when
    /// unattributed).
    pub cause: String,
}

impl Incident {
    /// Incident length in sim microseconds (`None` while still open).
    pub(crate) fn duration_us(&self) -> Option<u64> {
        self.end_us.map(|e| e.saturating_sub(self.start_us))
    }

    /// Distinct rule ids involved, in first-seen order.
    pub fn rules(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for a in &self.alerts {
            if !out.contains(&a.rule.as_str()) {
                out.push(&a.rule);
            }
        }
        out
    }
}

/// Group alerts into incidents by sim-time overlap and attribute each via the
/// trace's causal chains. Alerts with an open end (`end_us == None`) extend
/// their incident to run end, so everything starting after them merges in.
pub(crate) fn build_incidents(alerts: &[Alert], trace: &Trace) -> Vec<Incident> {
    let mut sorted: Vec<Alert> = alerts.to_vec();
    sorted.sort_by(|a, b| (a.start_us, &a.rule, a.entity).cmp(&(b.start_us, &b.rule, b.entity)));

    let mut groups: Vec<Vec<Alert>> = Vec::new();
    // Sweep in start order; `horizon` is the current group's furthest end
    // (None = open, reaches run end).
    let mut horizon: Option<u64> = Some(0);
    for alert in sorted {
        let overlaps = match (groups.last(), horizon) {
            (None, _) => false,
            (Some(_), None) => true,
            (Some(_), Some(h)) => alert.start_us <= h,
        };
        if overlaps {
            if let Some(group) = groups.last_mut() {
                horizon = match (horizon, alert.end_us) {
                    (None, _) | (_, None) => None,
                    (Some(h), Some(e)) => Some(h.max(e)),
                };
                group.push(alert);
                continue;
            }
        }
        horizon = alert.end_us;
        groups.push(vec![alert]);
    }

    let index = decision_index(trace);
    groups
        .into_iter()
        .enumerate()
        .map(|(n, group)| {
            let start_us = group.iter().map(|a| a.start_us).min().unwrap_or(0);
            let end_us = group
                .iter()
                .map(|a| a.end_us)
                .reduce(|acc, e| match (acc, e) {
                    (Some(a), Some(b)) => Some(a.max(b)),
                    _ => None,
                })
                .flatten();
            // Root cause: the earliest member alert that carries a decision
            // id (sweep order = start order, so the first hit wins). Alerts
            // from pure series rules (threshold/rate/absent) carry none —
            // for those, fall back to the latest control event for the same
            // entity at or before the incident start, the decision in force
            // when the window opened.
            let (mut root_decision, mut cause) = (0, String::new());
            let seed_decision = group
                .iter()
                .find(|a| a.decision_id != 0)
                .map(|a| a.decision_id)
                .or_else(|| {
                    let entity = group.first().map(|a| a.entity)?;
                    trace
                        .control_events()
                        .filter(|e| {
                            e.t_us <= start_us
                                && e.decision_id() != 0
                                && e.field_u64("rack") == Some(entity)
                        })
                        .last()
                        .map(|e| e.decision_id())
                });
            if let Some(seed) = seed_decision {
                if let Some(&terminal) = index.get(&seed) {
                    let chain = chain_ending_at(trace, &index, terminal);
                    let events = trace.events();
                    root_decision = chain
                        .path
                        .first()
                        .map(|&i| events[i].decision_id())
                        .unwrap_or(seed);
                    cause = chain
                        .path
                        .iter()
                        .map(|&i| events[i].name.as_str())
                        .collect::<Vec<_>>()
                        .join(" -> ");
                } else {
                    // Decision id known but its event is missing from the
                    // recorded lines (truncated feed): keep the id.
                    root_decision = seed;
                }
            }
            Incident {
                id: (n + 1) as u64,
                start_us,
                end_us,
                alerts: group,
                root_decision,
                cause,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alert(rule: &str, entity: u64, start: u64, end: Option<u64>, decision: u64) -> Alert {
        Alert {
            rule: rule.to_string(),
            entity,
            start_us: start,
            end_us: end,
            peak: 1.0,
            decision_id: decision,
        }
    }

    fn empty_trace() -> Trace {
        Trace::parse("").expect("empty trace parses")
    }

    #[test]
    fn overlapping_alerts_group_into_one_incident() {
        let alerts = vec![
            alert("degraded", 0, 100, Some(500), 0),
            alert("degraded", 1, 120, Some(480), 0),
            alert("headroom", 0, 400, Some(600), 0),
            alert("degraded", 2, 900, Some(950), 0),
        ];
        let incidents = build_incidents(&alerts, &empty_trace());
        assert_eq!(incidents.len(), 2);
        assert_eq!(incidents[0].alerts.len(), 3);
        assert_eq!(incidents[0].start_us, 100);
        assert_eq!(incidents[0].end_us, Some(600));
        assert_eq!(incidents[0].duration_us(), Some(500));
        assert_eq!(incidents[0].rules(), vec!["degraded", "headroom"]);
        assert_eq!(incidents[1].id, 2);
        assert_eq!(incidents[1].start_us, 900);
    }

    #[test]
    fn open_alert_extends_the_incident_to_run_end() {
        let alerts = vec![
            alert("degraded", 0, 100, None, 0),
            alert("headroom", 1, 5000, Some(6000), 0),
        ];
        let incidents = build_incidents(&alerts, &empty_trace());
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0].end_us, None);
        assert_eq!(incidents[0].duration_us(), None);
    }

    #[test]
    fn root_cause_joins_through_causal_chains() {
        let text = [
            r#"{"t_us":50,"component":"sim","severity":"info","name":"rack_sim_start","fields":{"rack":0,"decision_id":3}}"#,
            r#"{"t_us":100,"component":"fault","severity":"warn","name":"degraded_enter","fields":{"rack":0,"decision_id":7,"cause_id":3}}"#,
        ]
        .join("\n");
        let trace = Trace::parse(&text).expect("trace parses");
        let alerts = vec![
            alert("absent_data", 2, 90, Some(600), 0),
            alert("degraded", 0, 100, Some(500), 7),
        ];
        let incidents = build_incidents(&alerts, &trace);
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0].root_decision, 3);
        assert_eq!(incidents[0].cause, "rack_sim_start -> degraded_enter");
    }

    #[test]
    fn unattributed_incident_has_zero_root() {
        let incidents = build_incidents(&[alert("x", 0, 1, Some(2), 0)], &empty_trace());
        assert_eq!(incidents[0].root_decision, 0);
        assert!(incidents[0].cause.is_empty());
    }

    #[test]
    fn series_only_incident_joins_to_the_entitys_standing_decision() {
        // A headroom (threshold) alert carries no decision id; the incident
        // still attributes to the latest control event for rack 1 at or
        // before its start — not to rack 0's, and not to later events.
        let text = [
            r#"{"t_us":50,"component":"sim","severity":"info","name":"rack_sim_start","fields":{"rack":1,"decision_id":4}}"#,
            r#"{"t_us":60,"component":"sim","severity":"info","name":"rack_sim_start","fields":{"rack":0,"decision_id":5}}"#,
            r#"{"t_us":200,"component":"sim","severity":"warn","name":"rack_capping","fields":{"rack":1,"decision_id":9,"cause_id":4}}"#,
        ]
        .join("\n");
        let trace = Trace::parse(&text).expect("trace parses");
        let incidents = build_incidents(&[alert("headroom", 1, 100, Some(150), 0)], &trace);
        assert_eq!(incidents[0].root_decision, 4);
        assert_eq!(incidents[0].cause, "rack_sim_start");
    }

    #[test]
    fn empty_alerts_produce_no_incidents() {
        assert!(build_incidents(&[], &empty_trace()).is_empty());
    }
}
