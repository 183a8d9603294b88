//! Loading and canonicalizing JSONL telemetry traces.

use soc_telemetry::json::{self, Object, Value};
use std::fmt;
use std::path::Path;

/// One parsed telemetry record.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulated timestamp in microseconds.
    pub t_us: u64,
    /// Emitting component (`wi`, `soa`, `goa`, `rack`, `harness`, `sim`,
    /// `metrics`).
    pub component: String,
    /// Severity (`debug`, `info`, `warn`, `error`).
    pub severity: String,
    /// Event name, e.g. `cap_set`.
    pub name: String,
    /// The `fields` object of the record.
    pub fields: Object,
    /// The original JSONL line (used as a canonical-order tiebreaker).
    pub raw: String,
}

impl TraceEvent {
    /// A string field, if present.
    pub fn field_str(&self, key: &str) -> Option<&str> {
        self.fields.get(key).and_then(Value::as_str)
    }

    /// An unsigned integer field, if present.
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        self.fields.get(key).and_then(Value::as_u64)
    }

    /// A numeric field widened to `f64`, if present.
    pub(crate) fn field_f64(&self, key: &str) -> Option<f64> {
        self.fields.get(key).and_then(Value::as_num)
    }

    /// The event's own causal decision id (`0` when absent).
    pub fn decision_id(&self) -> u64 {
        self.field_u64("decision_id").unwrap_or(0)
    }

    /// The decision id of the event's parent decision (`0` when absent).
    pub(crate) fn cause_id(&self) -> u64 {
        self.field_u64("cause_id").unwrap_or(0)
    }

    /// Whether this is an end-of-run `metric` registry record.
    fn is_metric(&self) -> bool {
        self.name == "metric" && self.component == "metrics"
    }

    /// For `metric` records: the rendered metric key, e.g.
    /// `rack_power_w{rack=0}`.
    pub(crate) fn metric_key(&self) -> Option<&str> {
        self.field_str("key")
    }

    /// For `metric` records: the metric kind (`counter`, `gauge`, `hist`).
    pub(crate) fn metric_kind(&self) -> Option<&str> {
        self.field_str("kind")
    }

    /// A compact `time component name` label for timeline rendering.
    pub fn label(&self) -> String {
        format!(
            "[{:>12}us] {:<7} {:<5} {}",
            self.t_us, self.component, self.severity, self.name
        )
    }
}

/// A load/parse failure.
#[derive(Debug)]
pub enum TraceError {
    /// File I/O failed.
    Io(std::io::Error),
    /// A line was not valid JSON or missed a required key.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::Parse { line, message } => {
                write!(f, "trace parse error on line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// A canonically ordered telemetry trace.
///
/// Events are sorted by `(t_us, raw line)` on load, so two traces containing
/// the same *set* of lines analyze identically regardless of the order the
/// sink happened to write them in (multi-threaded runs flush spools in
/// nondeterministic interleavings).
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Parse a trace from JSONL text. Blank lines are skipped.
    ///
    /// # Errors
    /// Returns [`TraceError::Parse`] on the first malformed line.
    pub fn parse(text: &str) -> Result<Trace, TraceError> {
        let mut events = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let value = json::parse(line).map_err(|e| TraceError::Parse {
                line: i + 1,
                message: e.to_string(),
            })?;
            let missing = |key: &str| TraceError::Parse {
                line: i + 1,
                message: format!("record is missing \"{key}\""),
            };
            let t_us = value
                .get("t_us")
                .and_then(Value::as_u64)
                .ok_or_else(|| missing("t_us"))?;
            let component = value
                .get("component")
                .and_then(Value::as_str)
                .ok_or_else(|| missing("component"))?
                .to_string();
            let severity = value
                .get("severity")
                .and_then(Value::as_str)
                .ok_or_else(|| missing("severity"))?
                .to_string();
            let name = value
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| missing("name"))?
                .to_string();
            let fields = value
                .get("fields")
                .and_then(Value::as_obj)
                .cloned()
                .unwrap_or_default();
            events.push(TraceEvent {
                t_us,
                component,
                severity,
                name,
                fields,
                raw: line.to_string(),
            });
        }
        events.sort_by(|a, b| a.t_us.cmp(&b.t_us).then_with(|| a.raw.cmp(&b.raw)));
        Ok(Trace { events })
    }

    /// Load a trace from a JSONL file.
    ///
    /// # Errors
    /// Returns [`TraceError::Io`] when reading fails, or the first parse
    /// error.
    pub fn load(path: impl AsRef<Path>) -> Result<Trace, TraceError> {
        let text = std::fs::read_to_string(path)?;
        Trace::parse(&text)
    }

    /// The events in canonical order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterate the non-metric (control-plane) events.
    pub(crate) fn control_events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(|e| !e.is_metric())
    }

    /// Iterate the `metric` registry records.
    pub(crate) fn metric_events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(|e| e.is_metric())
    }

    /// Keep only events where field `key` renders (via `Display`-like
    /// formatting) to `value` — e.g. `policy=SmartOClock` to isolate one
    /// policy's events from a multi-policy trace. `metric` registry records
    /// match on the `key=value` label inside their metric key instead, so a
    /// policy filter keeps that policy's counters too.
    pub fn filter_field(&self, key: &str, value: &str) -> Trace {
        let label = format!("{key}={value}");
        let has_label = |metric_key: &str| {
            let Some(open) = metric_key.find('{') else {
                return false;
            };
            metric_key[open + 1..]
                .trim_end_matches('}')
                .split(',')
                .any(|pair| pair == label)
        };
        let events = self
            .events
            .iter()
            .filter(|e| {
                if e.is_metric() {
                    return e.metric_key().is_some_and(has_label);
                }
                e.fields.get(key).is_some_and(|v| match v {
                    Value::Str(s) => s == value,
                    Value::Int(n) => n.to_string() == value,
                    Value::Float(x) => x.to_string() == value,
                    Value::Bool(b) => b.to_string() == value,
                    _ => false,
                })
            })
            .cloned()
            .collect();
        Trace { events }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINES: &str = concat!(
        r#"{"t_us":2000,"component":"harness","severity":"error","name":"cap_set","fields":{"server":1,"decision_id":5,"cause_id":4}}"#,
        "\n",
        r#"{"t_us":1000,"component":"soa","severity":"info","name":"oc_grant","fields":{"server":1,"decision_id":2,"cause_id":1}}"#,
        "\n\n",
        r#"{"t_us":2000,"component":"harness","severity":"error","name":"revoke","fields":{"server":1,"decision_id":6,"cause_id":5}}"#,
        "\n",
    );

    #[test]
    fn parse_sorts_by_time_then_line() {
        let trace = Trace::parse(LINES).unwrap();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.events()[0].name, "oc_grant");
        // Same timestamp: "cap_set" line sorts before "revoke" line.
        assert_eq!(trace.events()[1].name, "cap_set");
        assert_eq!(trace.events()[2].name, "revoke");
        assert_eq!(trace.events()[1].decision_id(), 5);
        assert_eq!(trace.events()[2].cause_id(), 5);
    }

    #[test]
    fn shuffled_input_parses_to_identical_order() {
        let mut lines: Vec<&str> = LINES.lines().filter(|l| !l.is_empty()).collect();
        lines.reverse();
        let shuffled = lines.join("\n");
        let a = Trace::parse(LINES).unwrap();
        let b = Trace::parse(&shuffled).unwrap();
        assert_eq!(a.events(), b.events());
    }

    #[test]
    fn malformed_lines_report_position() {
        let err = Trace::parse("{\"t_us\":1}\nnot json\n").unwrap_err();
        match err {
            TraceError::Parse { line, .. } => assert_eq!(line, 1), // missing keys
            other => panic!("unexpected: {other}"),
        }
        let err = Trace::parse(
            r#"{"t_us":1,"component":"soa","severity":"info","name":"x","fields":{}}
broken"#,
        )
        .unwrap_err();
        match err {
            TraceError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn filter_field_matches_rendered_values() {
        let text = concat!(
            r#"{"t_us":1,"component":"sim","severity":"info","name":"a","fields":{"policy":"SmartOClock","rack":0}}"#,
            "\n",
            r#"{"t_us":2,"component":"sim","severity":"info","name":"b","fields":{"policy":"NaiveOClock","rack":1}}"#,
        );
        let trace = Trace::parse(text).unwrap();
        assert_eq!(trace.filter_field("policy", "SmartOClock").len(), 1);
        assert_eq!(trace.filter_field("rack", "1").len(), 1);
        assert_eq!(trace.filter_field("policy", "nope").len(), 0);
    }

    #[test]
    fn filter_field_matches_metric_key_labels() {
        let text = concat!(
            r#"{"t_us":9,"component":"metrics","severity":"debug","name":"metric","fields":{"kind":"counter","key":"sim_grants{policy=SmartOClock}","value":3}}"#,
            "\n",
            r#"{"t_us":9,"component":"metrics","severity":"debug","name":"metric","fields":{"kind":"counter","key":"sim_grants{policy=NaiveOClock}","value":5}}"#,
            "\n",
            r#"{"t_us":9,"component":"metrics","severity":"debug","name":"metric","fields":{"kind":"counter","key":"plain_counter","value":1}}"#,
        );
        let trace = Trace::parse(text).unwrap();
        let smart = trace.filter_field("policy", "SmartOClock");
        assert_eq!(smart.len(), 1);
        assert_eq!(
            smart.events()[0].metric_key(),
            Some("sim_grants{policy=SmartOClock}")
        );
    }
}
