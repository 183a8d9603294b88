//! Assembling the full analysis report for one trace.

use crate::attribution::AttributionCounts;
use crate::chains::{self, DEFAULT_TERMINALS};
use crate::rollup;
use crate::trace::Trace;
use std::fmt::Write as _;

/// Default number of causal chains shown in the full report.
const DEFAULT_CHAIN_LIMIT: usize = 10;

/// One-paragraph summary: event counts, simulated time span, per-component
/// counts, and causal-link health.
pub fn summary(trace: &Trace) -> String {
    let mut out = String::new();
    let control = trace.control_events().count();
    let metric = trace.metric_events().count();
    let _ = writeln!(
        out,
        "events: {} ({control} control-plane, {metric} metric records)",
        trace.len()
    );
    if let (Some(first), Some(last)) = (trace.events().first(), trace.events().last()) {
        let _ = writeln!(out, "span:   {}us .. {}us", first.t_us, last.t_us);
    }
    let mut by_component: std::collections::BTreeMap<&str, usize> =
        std::collections::BTreeMap::new();
    for event in trace.control_events() {
        *by_component.entry(event.component.as_str()).or_insert(0) += 1;
    }
    let parts: Vec<String> = by_component
        .iter()
        .map(|(c, n)| format!("{c}={n}"))
        .collect();
    if !parts.is_empty() {
        let _ = writeln!(out, "by component: {}", parts.join(" "));
    }
    let s = chains::stats(trace, &DEFAULT_TERMINALS);
    let _ = writeln!(
        out,
        "causal links: {} resolved, {} dangling; {} chains (longest {})",
        s.resolved_links, s.dangling_links, s.chains, s.longest
    );
    out
}

/// The complete deterministic analysis report: summary, causal chains,
/// SLO-miss attribution, event-class rollup, and metric tables. Two runs
/// with the same seed produce byte-identical reports.
pub fn full_report(trace: &Trace, title: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== soc-analyze report: {title} ==\n");
    out.push_str("-- Summary --\n");
    out.push_str(&summary(trace));

    out.push_str(
        "\n-- Causal chains (warning/cap -> revoke / SLO miss / budget violation / degraded window) --\n",
    );
    let all = chains::chains(trace, &DEFAULT_TERMINALS);
    if all.is_empty() {
        out.push_str(
            "no revoke, slo_miss, budget_violation, or degraded-window events in this trace\n",
        );
    } else {
        out.push_str(&chains::render_chains(trace, &all, DEFAULT_CHAIN_LIMIT));
    }

    out.push_str("\n-- SLO-miss attribution --\n");
    let counts = AttributionCounts::from_trace(trace);
    if counts.total() == 0 {
        out.push_str("no slo_miss events in this trace\n");
    } else {
        out.push_str(&counts.table().render());
    }

    out.push_str("\n-- Event classes --\n");
    out.push_str(&rollup::event_class_table(trace).render());

    let scalars = rollup::scalar_metric_table(trace);
    if !scalars.is_empty() {
        out.push_str("\n-- Metrics --\n");
        out.push_str(&scalars.render());
    }
    let hists = rollup::histogram_table(trace);
    if !hists.is_empty() {
        out.push_str("\n-- Histograms --\n");
        out.push_str(&hists.render());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_has_all_sections() {
        let text = concat!(
            r#"{"t_us":100,"component":"harness","severity":"error","name":"cap_set","fields":{"server":0,"decision_id":1}}"#,
            "\n",
            r#"{"t_us":100,"component":"harness","severity":"error","name":"revoke","fields":{"server":0,"decision_id":2,"cause_id":1}}"#,
            "\n",
            r#"{"t_us":200,"component":"harness","severity":"warn","name":"slo_miss","fields":{"service":0,"load":"High","attribution":"cap","decision_id":3,"cause_id":1}}"#,
            "\n",
            r#"{"t_us":300,"component":"metrics","severity":"debug","name":"metric","fields":{"kind":"counter","key":"harness_revokes{reason=cap}","value":1}}"#,
        );
        let trace = Trace::parse(text).unwrap();
        let report = full_report(&trace, "test");
        for section in [
            "-- Summary --",
            "-- Causal chains",
            "-- SLO-miss attribution --",
            "-- Event classes --",
            "-- Metrics --",
        ] {
            assert!(report.contains(section), "missing {section}:\n{report}");
        }
        assert!(report.contains("cap_set"));
        assert!(report.contains("100.0%"));
        // Determinism: rendering twice is byte-identical.
        assert_eq!(report, full_report(&trace, "test"));
    }

    #[test]
    fn empty_trace_report_degrades_gracefully() {
        let report = full_report(&Trace::parse("").unwrap(), "empty");
        assert!(report.contains("no revoke, slo_miss, budget_violation, or degraded-window events"));
        assert!(report.contains("no slo_miss events"));
    }
}
