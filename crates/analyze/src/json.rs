//! Canonical byte-stable JSON for health reports.
//!
//! The writer emits fields in a fixed order with series in canonical
//! `BTreeMap` key order and numbers in Rust's shortest round-trip `Display`
//! form, so the same run always serializes to the same bytes — the CI
//! fault-tolerance gate greps the output directly.
//! Both directions go through the workspace's one JSON codec,
//! `soc_telemetry::json`.

use crate::incident::Incident;
use crate::rules::Alert;
use crate::series::{Bucket, Series, SeriesStore};
use crate::HealthReport;
use soc_telemetry::json::{escape, fmt_num, parse, Value};
use std::fmt::Write as _;

/// Health report schema version.
pub const SCHEMA: u64 = 1;

/// The `kind` discriminator every health report carries.
const KIND: &str = "soc-health-report";

fn fmt_opt(v: Option<u64>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => "null".to_string(),
    }
}

fn alert_json(a: &Alert) -> String {
    format!(
        "{{\"rule\":{},\"entity\":{},\"start_us\":{},\"end_us\":{},\"peak\":{},\"decision_id\":{}}}",
        escape(&a.rule),
        a.entity,
        a.start_us,
        fmt_opt(a.end_us),
        fmt_num(a.peak),
        a.decision_id
    )
}

fn incident_json(i: &Incident) -> String {
    let alerts: Vec<String> = i.alerts.iter().map(alert_json).collect();
    format!(
        "{{\"id\":{},\"start_us\":{},\"end_us\":{},\"duration_us\":{},\"root_decision\":{},\"cause\":{},\"alerts\":[{}]}}",
        i.id,
        i.start_us,
        fmt_opt(i.end_us),
        fmt_opt(i.duration_us()),
        i.root_decision,
        escape(&i.cause),
        alerts.join(",")
    )
}

fn series_json(s: &Series) -> String {
    let buckets: Vec<String> = s
        .buckets()
        .iter()
        .map(|b| {
            format!(
                "[{},{},{},{},{},{},{}]",
                b.t0_us,
                fmt_num(b.min),
                fmt_num(b.max),
                fmt_num(b.sum),
                b.count,
                fmt_num(b.last),
                b.last_t_us
            )
        })
        .collect();
    format!(
        "{{\"width_us\":{},\"buckets\":[{}]}}",
        s.width_us(),
        buckets.join(",")
    )
}

/// Serialize a report to canonical JSON bytes.
pub fn to_json(report: &HealthReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": {SCHEMA},");
    let _ = writeln!(out, "  \"kind\": {},", escape(KIND));
    let _ = writeln!(out, "  \"name\": {},", escape(&report.name));
    // One line each so CI can grep the counts without a JSON parser.
    let _ = writeln!(
        out,
        "  \"resolved_incidents\": {},",
        report.resolved_incidents()
    );
    let _ = writeln!(out, "  \"open_incidents\": {},", report.open_incidents());
    out.push_str("  \"alerts\": [");
    for (n, a) in report.alerts.iter().enumerate() {
        let sep = if n == 0 { "\n    " } else { ",\n    " };
        out.push_str(sep);
        out.push_str(&alert_json(a));
    }
    out.push_str(if report.alerts.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });
    out.push_str("  \"incidents\": [");
    for (n, i) in report.incidents.iter().enumerate() {
        let sep = if n == 0 { "\n    " } else { ",\n    " };
        out.push_str(sep);
        out.push_str(&incident_json(i));
    }
    out.push_str(if report.incidents.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });
    out.push_str("  \"series\": {");
    for (n, ((metric, entity), series)) in report.store.iter().enumerate() {
        let sep = if n == 0 { "\n    " } else { ",\n    " };
        out.push_str(sep);
        let _ = write!(
            out,
            "{}: {}",
            escape(&format!("{metric}{{entity={entity}}}")),
            series_json(series)
        );
    }
    out.push_str(if report.store.is_empty() {
        "}\n"
    } else {
        "\n  }\n"
    });
    out.push_str("}\n");
    out
}

fn need<'a, T>(
    v: &'a Value,
    key: &str,
    as_t: impl FnOnce(&'a Value) -> Option<T>,
) -> Result<T, String> {
    v.get(key)
        .and_then(as_t)
        .ok_or_else(|| format!("missing or invalid \"{key}\""))
}

fn need_arr<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    need(v, key, |v| match v {
        Value::Arr(items) => Some(items.as_slice()),
        _ => None,
    })
}

fn opt_u64(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(other) => other
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("invalid \"{key}\"")),
    }
}

fn alert_from(v: &Value) -> Result<Alert, String> {
    Ok(Alert {
        rule: need(v, "rule", Value::as_str)?.to_string(),
        entity: need(v, "entity", Value::as_u64)?,
        start_us: need(v, "start_us", Value::as_u64)?,
        end_us: opt_u64(v, "end_us")?,
        peak: need(v, "peak", Value::as_num)?,
        decision_id: need(v, "decision_id", Value::as_u64)?,
    })
}

fn incident_from(v: &Value) -> Result<Incident, String> {
    let alerts = need_arr(v, "alerts")?
        .iter()
        .map(alert_from)
        .collect::<Result<Vec<Alert>, String>>()?;
    Ok(Incident {
        id: need(v, "id", Value::as_u64)?,
        start_us: need(v, "start_us", Value::as_u64)?,
        end_us: opt_u64(v, "end_us")?,
        alerts,
        root_decision: need(v, "root_decision", Value::as_u64)?,
        cause: need(v, "cause", Value::as_str)?.to_string(),
    })
}

/// Split a `metric{entity=N}` series key back into its parts.
fn split_series_key(key: &str) -> Result<(String, u64), String> {
    let open = key
        .rfind("{entity=")
        .ok_or_else(|| format!("malformed series key `{key}`"))?;
    let entity = key[open + "{entity=".len()..]
        .strip_suffix('}')
        .and_then(|n| n.parse::<u64>().ok())
        .ok_or_else(|| format!("malformed series key `{key}`"))?;
    Ok((key[..open].to_string(), entity))
}

fn series_from(v: &Value) -> Result<Series, String> {
    let width_us = need(v, "width_us", Value::as_u64)?;
    let rows = need_arr(v, "buckets")?;
    let mut buckets = Vec::with_capacity(rows.len());
    for row in rows {
        let Value::Arr(cells) = row else {
            return Err("bucket row is not an array".to_string());
        };
        if cells.len() != 7 {
            return Err(format!("bucket row has {} cells, expected 7", cells.len()));
        }
        let num = |i: usize| -> Result<f64, String> {
            cells[i]
                .as_num()
                .ok_or_else(|| format!("bucket cell {i} is not a number"))
        };
        let int = |i: usize| -> Result<u64, String> {
            cells[i]
                .as_u64()
                .ok_or_else(|| format!("bucket cell {i} is not an integer"))
        };
        buckets.push(Bucket {
            t0_us: int(0)?,
            min: num(1)?,
            max: num(2)?,
            sum: num(3)?,
            count: int(4)?,
            last: num(5)?,
            last_t_us: int(6)?,
        });
    }
    Ok(Series::from_parts(width_us, buckets))
}

/// Parse a report back from its canonical JSON.
///
/// # Errors
/// Returns a message on malformed JSON, a wrong `schema`/`kind`, or missing
/// fields.
pub fn from_json(text: &str) -> Result<HealthReport, String> {
    let root = parse(text)?;
    let schema = need(&root, "schema", Value::as_u64)?;
    if schema != SCHEMA {
        return Err(format!("unsupported schema {schema} (expected {SCHEMA})"));
    }
    let kind = need(&root, "kind", Value::as_str)?;
    if kind != KIND {
        return Err(format!("not a health report (kind `{kind}`)"));
    }
    let name = need(&root, "name", Value::as_str)?.to_string();

    let alerts = need_arr(&root, "alerts")?
        .iter()
        .map(alert_from)
        .collect::<Result<Vec<Alert>, String>>()?;

    let incidents = need_arr(&root, "incidents")?
        .iter()
        .map(incident_from)
        .collect::<Result<Vec<Incident>, String>>()?;

    let mut store = SeriesStore::new(0);
    for (key, value) in need(&root, "series", Value::as_obj)?.iter() {
        let (metric, entity) = split_series_key(key)?;
        store.insert(metric, entity, series_from(value)?);
    }

    Ok(HealthReport {
        name,
        store,
        alerts,
        incidents,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incident::build_incidents;
    use crate::rules::evaluate;
    use crate::rules::RuleKind;
    use crate::Rule;
    use crate::Trace;

    fn sample_report() -> HealthReport {
        let mut store = SeriesStore::new(8);
        for t in 0..20u64 {
            store.record("rack_draw_w", 0, t * 100, 10.0 + (t % 5) as f64);
            store.record("rack_draw_w", 1, t * 100, 95.0 + (t % 3) as f64);
        }
        store.record("rack_limit_w", 0, 0, 100.0);
        store.record("rack_limit_w", 1, 0, 96.0);
        let text = [
            r#"{"t_us":300,"component":"fault","severity":"warn","name":"degraded_enter","fields":{"rack":1,"decision_id":9}}"#,
            r#"{"t_us":900,"component":"fault","severity":"info","name":"degraded_exit","fields":{"rack":1,"cause_id":9}}"#,
        ]
        .join("\n");
        let trace = Trace::parse(&text).expect("trace parses");
        let rules = vec![
            Rule::new(
                "degraded",
                RuleKind::Window {
                    enter: "degraded_enter".to_string(),
                    exit: "degraded_exit".to_string(),
                },
            ),
            Rule::new(
                "headroom",
                RuleKind::Threshold {
                    metric: "rack_draw_w".to_string(),
                    ratio_of: Some("rack_limit_w".to_string()),
                    above: 0.99,
                },
            ),
        ];
        let alerts = evaluate(&rules, &store, &trace);
        let incidents = build_incidents(&alerts, &trace);
        HealthReport {
            name: "sample".to_string(),
            store,
            alerts,
            incidents,
        }
    }

    #[test]
    fn round_trips_through_json() {
        let report = sample_report();
        let text = to_json(&report);
        let back = from_json(&text).expect("parses back");
        assert_eq!(back.name, report.name);
        assert_eq!(back.alerts, report.alerts);
        assert_eq!(back.incidents, report.incidents);
        assert_eq!(back.store.len(), report.store.len());
        for ((key, series), (bkey, bseries)) in report.store.iter().zip(back.store.iter()) {
            assert_eq!(key, bkey);
            assert_eq!(series.buckets(), bseries.buckets());
            assert_eq!(series.width_us(), bseries.width_us());
        }
    }

    #[test]
    fn serialization_is_byte_stable() {
        let a = to_json(&sample_report());
        let b = to_json(&sample_report());
        assert_eq!(a, b);
        // Re-serializing a parsed report is also byte-identical.
        let c = to_json(&from_json(&a).expect("parses"));
        assert_eq!(a, c);
    }

    #[test]
    fn counts_are_grepable_lines() {
        let text = to_json(&sample_report());
        assert!(
            text.lines()
                .any(|l| l.trim_start().starts_with("\"resolved_incidents\": ")),
            "no grepable resolved_incidents line in:\n{text}"
        );
    }

    #[test]
    fn rejects_wrong_schema_and_kind() {
        assert!(from_json("{\"schema\": 99, \"kind\": \"soc-health-report\"}").is_err());
        assert!(from_json("{\"schema\": 1, \"kind\": \"soc-prof-snapshot\"}").is_err());
        assert!(from_json("not json").is_err());
    }

    #[test]
    fn series_keys_round_trip() {
        assert_eq!(
            split_series_key("rack_draw_w{entity=3}").expect("parses"),
            ("rack_draw_w".to_string(), 3)
        );
        assert!(split_series_key("no_entity").is_err());
        assert!(split_series_key("bad{entity=x}").is_err());
    }

    #[test]
    fn empty_report_serializes_cleanly() {
        let report = HealthReport {
            name: "empty".to_string(),
            store: SeriesStore::new(0),
            alerts: Vec::new(),
            incidents: Vec::new(),
        };
        let text = to_json(&report);
        let back = from_json(&text).expect("parses back");
        assert!(back.alerts.is_empty());
        assert!(back.incidents.is_empty());
        assert!(back.store.is_empty());
    }
}
