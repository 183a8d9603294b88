//! Run-to-run A/B comparison of two traces.
//!
//! Compares event-class counts and end-of-run metrics between a baseline
//! trace (A) and a candidate trace (B) — e.g. `SmartOClock` vs `NaiveOClock`
//! from `table1_policies`. A label key (typically `policy`) can be stripped
//! from rendered metric keys so per-policy metrics line up across runs.

use crate::rollup::{self, MetricValue};
use crate::trace::Trace;
use simcore::report::{fmt_f64, Table};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Remove the `label=...` pair named `label` from a rendered metric key
/// (`name{k=v,...}`), collapsing `name{}` to `name`.
fn strip_key_label(key: &str, label: &str) -> String {
    let Some(open) = key.find('{') else {
        return key.to_string();
    };
    let name = &key[..open];
    let inner = key[open + 1..].trim_end_matches('}');
    let kept: Vec<&str> = inner
        .split(',')
        .filter(|pair| pair.split('=').next() != Some(label))
        .collect();
    if kept.is_empty() {
        name.to_string()
    } else {
        format!("{name}{{{}}}", kept.join(","))
    }
}

fn scalar(value: &MetricValue) -> f64 {
    match value {
        MetricValue::Counter(n) => *n as f64,
        MetricValue::Gauge(x) => *x,
        MetricValue::Histogram { mean, .. } => *mean,
    }
}

fn kind(value: &MetricValue) -> &'static str {
    match value {
        MetricValue::Counter(_) => "counter",
        MetricValue::Gauge(_) => "gauge",
        MetricValue::Histogram { .. } => "hist(mean)",
    }
}

/// The outcome of diffing two traces.
#[derive(Debug, Clone)]
pub struct TraceDiff {
    /// Event classes (`component/name/severity`) with their A and B counts.
    pub event_classes: BTreeMap<(String, String, String), (u64, u64)>,
    /// Metrics by (possibly label-stripped) key with their A and B values
    /// (`None` when absent on that side).
    pub metrics: BTreeMap<String, (Option<MetricValue>, Option<MetricValue>)>,
}

impl TraceDiff {
    /// Diff `a` against `b`. When `strip_label` is set, that label is removed
    /// from every metric key before matching sides (use `Some("policy")` for
    /// per-policy traces).
    pub fn compute(a: &Trace, b: &Trace, strip_label: Option<&str>) -> TraceDiff {
        let mut event_classes: BTreeMap<(String, String, String), (u64, u64)> = BTreeMap::new();
        for (class, n) in rollup::event_class_counts(a) {
            event_classes.entry(class).or_insert((0, 0)).0 = n;
        }
        for (class, n) in rollup::event_class_counts(b) {
            event_classes.entry(class).or_insert((0, 0)).1 = n;
        }
        let mut metrics: BTreeMap<String, (Option<MetricValue>, Option<MetricValue>)> =
            BTreeMap::new();
        let norm = |key: &str| match strip_label {
            Some(label) => strip_key_label(key, label),
            None => key.to_string(),
        };
        for (key, value) in rollup::metrics(a) {
            metrics.entry(norm(&key)).or_insert((None, None)).0 = Some(value);
        }
        for (key, value) in rollup::metrics(b) {
            metrics.entry(norm(&key)).or_insert((None, None)).1 = Some(value);
        }
        TraceDiff {
            event_classes,
            metrics,
        }
    }

    /// Event classes present only in B (newly appearing).
    fn new_event_classes(&self) -> Vec<&(String, String, String)> {
        self.event_classes
            .iter()
            .filter(|(_, (a, b))| *a == 0 && *b > 0)
            .map(|(class, _)| class)
            .collect()
    }

    /// Event classes present only in A (disappeared in B).
    fn gone_event_classes(&self) -> Vec<&(String, String, String)> {
        self.event_classes
            .iter()
            .filter(|(_, (a, b))| *a > 0 && *b == 0)
            .map(|(class, _)| class)
            .collect()
    }

    /// Event-class counts side by side with the delta.
    pub(crate) fn event_class_table(&self) -> Table {
        let mut table = Table::new(&["component", "event", "severity", "a", "b", "delta"]);
        for ((component, name, severity), (a, b)) in &self.event_classes {
            table.row(&[
                component.clone(),
                name.clone(),
                severity.clone(),
                a.to_string(),
                b.to_string(),
                format!("{:+}", *b as i64 - *a as i64),
            ]);
        }
        table
    }

    /// Per-metric values side by side with the delta (`-` when a side lacks
    /// the metric; histograms compare their means).
    fn metric_table(&self) -> Table {
        let mut table = Table::new(&["metric", "kind", "a", "b", "delta"]);
        for (key, (a, b)) in &self.metrics {
            let k = a.as_ref().or(b.as_ref()).map_or("-", kind);
            let fmt_side = |side: &Option<MetricValue>| {
                side.as_ref()
                    .map_or("-".to_string(), |v| fmt_f64(scalar(v), 3))
            };
            let delta = match (a, b) {
                (Some(a), Some(b)) => fmt_f64(scalar(b) - scalar(a), 3),
                _ => "-".to_string(),
            };
            table.row(&[key.clone(), k.to_string(), fmt_side(a), fmt_side(b), delta]);
        }
        table
    }

    /// Full human-readable diff report.
    pub fn render(&self, a_name: &str, b_name: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== Trace diff: A = {a_name}, B = {b_name} ==\n");
        out.push_str("-- Event classes --\n");
        out.push_str(&self.event_class_table().render());
        let fresh = self.new_event_classes();
        if !fresh.is_empty() {
            out.push_str("\nNewly appearing in B:\n");
            for (component, name, severity) in fresh {
                let _ = writeln!(out, "  {component} {name} ({severity})");
            }
        }
        let gone = self.gone_event_classes();
        if !gone.is_empty() {
            out.push_str("\nDisappeared in B:\n");
            for (component, name, severity) in gone {
                let _ = writeln!(out, "  {component} {name} ({severity})");
            }
        }
        out.push_str("\n-- Metrics --\n");
        out.push_str(&self.metric_table().render());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(policy: &str, grants: u64, extra_event: bool) -> Trace {
        let mut lines = Vec::new();
        for t in 0..grants {
            lines.push(format!(
                r#"{{"t_us":{t},"component":"soa","severity":"info","name":"oc_grant","fields":{{"policy":"{policy}"}}}}"#
            ));
        }
        if extra_event {
            lines.push(format!(
                r#"{{"t_us":50,"component":"harness","severity":"error","name":"revoke","fields":{{"policy":"{policy}"}}}}"#
            ));
        }
        lines.push(format!(
            r#"{{"t_us":99,"component":"metrics","severity":"debug","name":"metric","fields":{{"kind":"counter","key":"sim_grants{{policy={policy}}}","value":{grants}}}}}"#
        ));
        Trace::parse(&lines.join("\n")).unwrap()
    }

    #[test]
    fn event_class_deltas_and_new_classes() {
        let a = trace("SmartOClock", 3, false);
        let b = trace("NaiveOClock", 5, true);
        let diff = TraceDiff::compute(&a, &b, Some("policy"));
        let grants = (
            "soa".to_string(),
            "oc_grant".to_string(),
            "info".to_string(),
        );
        assert_eq!(diff.event_classes[&grants], (3, 5));
        assert_eq!(diff.new_event_classes().len(), 1);
        assert!(diff.gone_event_classes().is_empty());
        let text = diff.render("SmartOClock", "NaiveOClock");
        assert!(text.contains("+2"));
        assert!(text.contains("Newly appearing in B:"));
        assert!(text.contains("harness revoke (error)"));
    }

    #[test]
    fn metric_keys_align_after_label_strip() {
        let a = trace("SmartOClock", 3, false);
        let b = trace("NaiveOClock", 5, false);
        let diff = TraceDiff::compute(&a, &b, Some("policy"));
        let (ma, mb) = &diff.metrics["sim_grants"];
        assert_eq!(ma, &Some(MetricValue::Counter(3)));
        assert_eq!(mb, &Some(MetricValue::Counter(5)));
        // Without stripping, keys do not align.
        let raw = TraceDiff::compute(&a, &b, None);
        assert_eq!(raw.metrics["sim_grants{policy=SmartOClock}"].1, None);
    }

    #[test]
    fn strip_label_edge_cases() {
        assert_eq!(strip_key_label("plain", "policy"), "plain");
        assert_eq!(strip_key_label("m{policy=X}", "policy"), "m");
        assert_eq!(strip_key_label("m{policy=X,rack=1}", "policy"), "m{rack=1}");
        assert_eq!(strip_key_label("m{rack=1,policy=X}", "policy"), "m{rack=1}");
        assert_eq!(strip_key_label("m{rack=1}", "policy"), "m{rack=1}");
    }
}
