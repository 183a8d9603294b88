//! Event-class and metric rollups.

use crate::trace::Trace;
use simcore::report::{fmt_f64, Table};
use std::collections::BTreeMap;

/// Count control-plane events by `(component, name, severity)`, sorted.
pub(crate) fn event_class_counts(trace: &Trace) -> BTreeMap<(String, String, String), u64> {
    let mut counts = BTreeMap::new();
    for event in trace.control_events() {
        *counts
            .entry((
                event.component.clone(),
                event.name.clone(),
                event.severity.clone(),
            ))
            .or_insert(0) += 1;
    }
    counts
}

/// Render [`event_class_counts`] as a table.
pub(crate) fn event_class_table(trace: &Trace) -> Table {
    let mut table = Table::new(&["component", "event", "severity", "count"]);
    for ((component, name, severity), count) in event_class_counts(trace) {
        table.row(&[component, name, severity, count.to_string()]);
    }
    table
}

/// One end-of-run metric extracted from the trace's `metric` records.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic counter total.
    Counter(u64),
    /// Last observed gauge value.
    Gauge(f64),
    /// Histogram summary as exported by the registry dump.
    Histogram {
        count: u64,
        mean: f64,
        p50: f64,
        p99: f64,
    },
}

/// All metrics of a trace keyed by the rendered registry key
/// (`name{label=value,...}`), sorted.
pub fn metrics(trace: &Trace) -> BTreeMap<String, MetricValue> {
    let mut out = BTreeMap::new();
    for event in trace.metric_events() {
        let Some(key) = event.metric_key() else {
            continue;
        };
        let value = match event.metric_kind() {
            Some("counter") => MetricValue::Counter(event.field_u64("value").unwrap_or(0)),
            Some("gauge") => MetricValue::Gauge(event.field_f64("value").unwrap_or(f64::NAN)),
            Some("hist") => MetricValue::Histogram {
                count: event.field_u64("count").unwrap_or(0),
                mean: event.field_f64("mean").unwrap_or(f64::NAN),
                p50: event.field_f64("p50").unwrap_or(f64::NAN),
                p99: event.field_f64("p99").unwrap_or(f64::NAN),
            },
            _ => continue,
        };
        out.insert(key.to_string(), value);
    }
    out
}

/// Render counters and gauges as one `metric / value` table.
pub fn scalar_metric_table(trace: &Trace) -> Table {
    let mut table = Table::new(&["metric", "kind", "value"]);
    for (key, value) in metrics(trace) {
        match value {
            MetricValue::Counter(n) => {
                table.row(&[key, "counter".to_string(), n.to_string()]);
            }
            MetricValue::Gauge(x) => {
                table.row(&[key, "gauge".to_string(), fmt_value(x)]);
            }
            MetricValue::Histogram { .. } => {}
        }
    }
    table
}

/// Render histogram summaries with their percentile columns.
pub fn histogram_table(trace: &Trace) -> Table {
    let mut table = Table::new(&["histogram", "count", "mean", "p50", "p99"]);
    for (key, value) in metrics(trace) {
        if let MetricValue::Histogram {
            count,
            mean,
            p50,
            p99,
        } = value
        {
            table.row(&[
                key,
                count.to_string(),
                fmt_value(mean),
                fmt_value(p50),
                fmt_value(p99),
            ]);
        }
    }
    table
}

/// A gauge or histogram value with three decimals, or in exponent form
/// (`4.200e-5`) when it is non-zero but would read `0.000`: a profile's
/// sub-microsecond phases keep their magnitude.
pub(crate) fn fmt_value(x: f64) -> String {
    if x != 0.0 && x.abs() < 0.001 {
        format!("{x:.3e}")
    } else {
        fmt_f64(x, 3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> Trace {
        let text = concat!(
            r#"{"t_us":1,"component":"soa","severity":"info","name":"oc_grant","fields":{}}"#,
            "\n",
            r#"{"t_us":2,"component":"soa","severity":"info","name":"oc_grant","fields":{}}"#,
            "\n",
            r#"{"t_us":3,"component":"harness","severity":"error","name":"revoke","fields":{}}"#,
            "\n",
            r#"{"t_us":9,"component":"metrics","severity":"debug","name":"metric","fields":{"kind":"counter","key":"harness_revokes{reason=cap}","value":4}}"#,
            "\n",
            r#"{"t_us":9,"component":"metrics","severity":"debug","name":"metric","fields":{"kind":"gauge","key":"rack_power_w{rack=0}","value":512.25}}"#,
            "\n",
            r#"{"t_us":9,"component":"metrics","severity":"debug","name":"metric","fields":{"kind":"hist","key":"sim_rack_draw_w{rack=0}","count":10,"mean":100.5,"p50":99.0,"p99":140.0}}"#,
        );
        Trace::parse(text).unwrap()
    }

    #[test]
    fn event_classes_are_counted() {
        let counts = event_class_counts(&fixture());
        assert_eq!(counts[&("soa".into(), "oc_grant".into(), "info".into())], 2);
        assert_eq!(
            counts[&("harness".into(), "revoke".into(), "error".into())],
            1
        );
        // Metric records are excluded from event-class rollups.
        assert_eq!(counts.len(), 2);
    }

    #[test]
    fn metrics_parse_by_kind() {
        let m = metrics(&fixture());
        assert_eq!(m["harness_revokes{reason=cap}"], MetricValue::Counter(4));
        assert_eq!(m["rack_power_w{rack=0}"], MetricValue::Gauge(512.25));
        assert_eq!(
            m["sim_rack_draw_w{rack=0}"],
            MetricValue::Histogram {
                count: 10,
                mean: 100.5,
                p50: 99.0,
                p99: 140.0
            }
        );
    }

    #[test]
    fn tables_render_sorted_keys() {
        let trace = fixture();
        let scalars = scalar_metric_table(&trace).render();
        assert!(scalars.contains("harness_revokes{reason=cap}"));
        assert!(scalars.contains("512.250"));
        let hists = histogram_table(&trace).render();
        assert!(hists.contains("sim_rack_draw_w{rack=0}"));
        assert!(hists.contains("140.000"));
    }

    #[test]
    fn tiny_values_render_in_exponent_form() {
        let text = concat!(
            r#"{"t_us":9,"component":"metrics","severity":"debug","name":"metric","fields":{"kind":"hist","key":"phase_ms{phase=rack/admission}","count":40320,"mean":4.2e-5,"p50":0.0,"p99":-0.0005}}"#,
            "\n",
            r#"{"t_us":9,"component":"metrics","severity":"debug","name":"metric","fields":{"kind":"gauge","key":"tiny","value":0.001}}"#,
        );
        let trace = Trace::parse(text).unwrap();
        let hists = histogram_table(&trace).render();
        assert!(hists.contains("4.200e-5"), "{hists}");
        assert!(hists.contains("-5.000e-4"), "{hists}");
        assert!(
            hists.contains("0.000"),
            "zero keeps its fixed form: {hists}"
        );
        assert!(scalar_metric_table(&trace).render().contains("0.001"));
    }
}
