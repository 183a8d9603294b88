//! SLO-violation attribution: which fraction of missed windows is explained
//! by power capping, admission denial, or plain queueing, per service tier.

use crate::trace::Trace;
use simcore::report::{fmt_pct, Table};
use std::collections::BTreeMap;

/// Known load tiers in presentation order; unknown tiers sort after these,
/// alphabetically.
const TIER_ORDER: [&str; 3] = ["Low", "Medium", "High"];

fn tier_rank(tier: &str) -> (usize, &str) {
    match TIER_ORDER.iter().position(|t| *t == tier) {
        Some(i) => (i, ""),
        None => (TIER_ORDER.len(), tier),
    }
}

/// Counts of SLO-missed windows, keyed by `(attribution, load tier)`.
///
/// Derived from `slo_miss` events; the harness emits one per instance per
/// observation window whose P99 violated the SLO, tagged with the attribution
/// its cap/denial bookkeeping supports.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AttributionCounts {
    counts: BTreeMap<(String, String), u64>,
}

impl AttributionCounts {
    /// Tally the `slo_miss` events of `trace`.
    pub fn from_trace(trace: &Trace) -> AttributionCounts {
        let mut counts = BTreeMap::new();
        for event in trace.control_events() {
            if event.name != "slo_miss" {
                continue;
            }
            let attribution = event
                .field_str("attribution")
                .unwrap_or("unattributed")
                .to_string();
            let tier = event.field_str("load").unwrap_or("unknown").to_string();
            *counts.entry((attribution, tier)).or_insert(0) += 1;
        }
        AttributionCounts { counts }
    }

    /// Total missed windows.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Missed windows for one attribution class across all tiers.
    pub fn by_attribution(&self, attribution: &str) -> u64 {
        self.counts
            .iter()
            .filter(|((a, _), _)| a == attribution)
            .map(|(_, n)| n)
            .sum()
    }

    /// The count for one `(attribution, tier)` cell.
    pub fn get(&self, attribution: &str, tier: &str) -> u64 {
        self.counts
            .get(&(attribution.to_string(), tier.to_string()))
            .copied()
            .unwrap_or(0)
    }

    /// Distinct attribution classes, alphabetical.
    fn attributions(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self.counts.keys().map(|(a, _)| a.as_str()).collect();
        out.dedup();
        out
    }

    /// Distinct load tiers, in presentation order (Low, Medium, High, then
    /// anything else alphabetically).
    fn tiers(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self.counts.keys().map(|(_, t)| t.as_str()).collect();
        out.sort_by_key(|t| tier_rank(t));
        out.dedup();
        out
    }

    /// Render the attribution report: one row per attribution class with
    /// per-tier counts, the total, and the fraction of all misses.
    pub fn table(&self) -> Table {
        let tiers = self.tiers();
        let mut headers: Vec<&str> = vec!["attribution"];
        headers.extend(tiers.iter().copied());
        headers.extend(["total", "fraction"]);
        let mut table = Table::new(&headers);
        let total = self.total();
        for attribution in self.attributions() {
            let mut row: Vec<String> = vec![attribution.to_string()];
            for tier in &tiers {
                row.push(self.get(attribution, tier).to_string());
            }
            let n = self.by_attribution(attribution);
            row.push(n.to_string());
            row.push(if total == 0 {
                "-".to_string()
            } else {
                fmt_pct(n as f64 / total as f64)
            });
            table.row(&row);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn miss(t: u64, attribution: &str, load: &str) -> String {
        format!(
            r#"{{"t_us":{t},"component":"harness","severity":"warn","name":"slo_miss","fields":{{"service":0,"load":"{load}","attribution":"{attribution}","decision_id":{t},"cause_id":0}}}}"#
        )
    }

    fn fixture() -> Trace {
        let lines = [
            miss(1, "cap", "High"),
            miss(2, "cap", "High"),
            miss(3, "cap", "Medium"),
            miss(4, "queueing", "High"),
            miss(5, "admission_denied", "Low"),
        ]
        .join("\n");
        Trace::parse(&lines).unwrap()
    }

    #[test]
    fn counts_group_by_attribution_and_tier() {
        let counts = AttributionCounts::from_trace(&fixture());
        assert_eq!(counts.total(), 5);
        assert_eq!(counts.by_attribution("cap"), 3);
        assert_eq!(counts.get("cap", "High"), 2);
        assert_eq!(counts.get("cap", "Medium"), 1);
        assert_eq!(counts.get("queueing", "Low"), 0);
        assert_eq!(counts.tiers(), vec!["Low", "Medium", "High"]);
    }

    #[test]
    fn table_reports_fractions() {
        let table = AttributionCounts::from_trace(&fixture()).table();
        let text = table.render();
        assert!(text.contains("cap"));
        assert!(text.contains("60.0%"));
        assert!(text.contains("20.0%"));
    }

    #[test]
    fn empty_trace_renders_empty_table() {
        let counts = AttributionCounts::from_trace(&Trace::parse("").unwrap());
        assert_eq!(counts.total(), 0);
        assert!(counts.table().is_empty());
    }
}
