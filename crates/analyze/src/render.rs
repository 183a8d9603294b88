//! Deterministic ASCII rendering: sparklines, alert and incident tables.
//!
//! Everything here is a pure function of a [`HealthReport`], so rendered
//! reports are byte-stable per seed and safe to golden-test.

use crate::series::Series;
use crate::HealthReport;
use std::fmt::Write as _;

/// Density ramp for sparklines, lowest to highest.
const RAMP: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];

/// Default sparkline width in columns.
const SPARK_WIDTH: usize = 60;

/// Render `values` as a fixed-width sparkline, normalizing into the density
/// ramp. More values than columns merge by mean; fewer stretch.
fn sparkline(values: &[f64], width: usize) -> String {
    let width = width.max(1);
    if values.is_empty() {
        return " ".repeat(width);
    }
    // Resample onto `width` columns: column i covers an equal slice of the
    // value index range.
    let mut columns = Vec::with_capacity(width);
    for i in 0..width {
        let lo = i * values.len() / width;
        let hi = (((i + 1) * values.len()).div_ceil(width)).min(values.len());
        let slice = &values[lo..hi.max(lo + 1).min(values.len())];
        let mean = if slice.is_empty() {
            0.0
        } else {
            slice.iter().sum::<f64>() / slice.len() as f64
        };
        columns.push(mean);
    }
    let min = columns.iter().copied().fold(f64::MAX, f64::min);
    let max = columns.iter().copied().fold(f64::MIN, f64::max);
    let span = max - min;
    columns
        .iter()
        .map(|v| {
            let norm = if span > 0.0 { (v - min) / span } else { 0.5 };
            let idx = (norm * (RAMP.len() - 1) as f64).round() as usize;
            RAMP[idx.min(RAMP.len() - 1)]
        })
        .collect()
}

/// Human-friendly sim duration: `90s` → `1m30s`, `7200000000us` → `2h`.
fn fmt_dur(us: u64) -> String {
    let secs = us / 1_000_000;
    if secs == 0 {
        return format!("{us}us");
    }
    let (d, h, m, s) = (
        secs / 86_400,
        (secs % 86_400) / 3_600,
        (secs % 3_600) / 60,
        secs % 60,
    );
    let mut out = String::new();
    if d > 0 {
        let _ = write!(out, "{d}d");
    }
    if h > 0 {
        let _ = write!(out, "{h}h");
    }
    if m > 0 {
        let _ = write!(out, "{m}m");
    }
    if s > 0 || out.is_empty() {
        let _ = write!(out, "{s}s");
    }
    out
}

/// A sim timestamp formatted as a duration since run start.
fn fmt_time(us: u64) -> String {
    format!("+{}", fmt_dur(us))
}

fn fmt_end(end_us: Option<u64>) -> String {
    match end_us {
        Some(t) => fmt_time(t),
        None => "open".to_string(),
    }
}

fn series_means(series: &Series) -> Vec<f64> {
    series.buckets().iter().map(|b| b.mean()).collect()
}

/// One `metric{entity=N}` sparkline row.
fn series_row(out: &mut String, label: &str, series: &Series) {
    let values = series_means(series);
    let min = series
        .buckets()
        .iter()
        .map(|b| b.min)
        .fold(f64::MAX, f64::min);
    let max = series
        .buckets()
        .iter()
        .map(|b| b.max)
        .fold(f64::MIN, f64::max);
    let last = series.buckets().last().map(|b| b.last).unwrap_or(0.0);
    let _ = writeln!(
        out,
        "  {label:<28} |{}| min={min:.1} max={max:.1} last={last:.1} n={}",
        sparkline(&values, SPARK_WIDTH),
        series.samples()
    );
}

/// The full `report` view: sparklines per series, fleet rollups, incident
/// table.
pub fn render_report(report: &HealthReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== fleet health: {} ==", report.name);

    if !report.store.is_empty() {
        out.push_str("\n-- Series --\n");
        for ((metric, entity), series) in report.store.iter() {
            series_row(&mut out, &format!("{metric}{{entity={entity}}}"), series);
        }
        // Fleet rollup per metric with more than one entity: the per-bucket
        // sum across entities, sampled on the union of bucket starts.
        let mut metrics: Vec<&str> = Vec::new();
        for ((metric, _), _) in report.store.iter() {
            if !metrics.contains(&metric.as_str()) {
                metrics.push(metric);
            }
        }
        for metric in metrics {
            let entities = report.store.entities(metric);
            if entities.len() < 2 {
                continue;
            }
            let mut t0s: Vec<u64> = Vec::new();
            for &e in &entities {
                if let Some(series) = report.store.get(metric, e) {
                    t0s.extend(series.buckets().iter().map(|b| b.t0_us));
                }
            }
            t0s.sort_unstable();
            t0s.dedup();
            let values: Vec<f64> = t0s
                .iter()
                .map(|&t| {
                    entities
                        .iter()
                        .filter_map(|&e| report.store.get(metric, e).and_then(|s| s.value_at(t)))
                        .sum()
                })
                .collect();
            if let (Some(&min), Some(&max)) = (
                values.iter().min_by(|a, b| a.total_cmp(b)),
                values.iter().max_by(|a, b| a.total_cmp(b)),
            ) {
                let _ = writeln!(
                    out,
                    "  {:<28} |{}| min={min:.1} max={max:.1} racks={}",
                    format!("{metric}{{fleet}}"),
                    sparkline(&values, SPARK_WIDTH),
                    entities.len()
                );
            }
        }
    }

    out.push_str("\n-- Incidents --\n");
    if report.incidents.is_empty() {
        out.push_str("  none\n");
    } else {
        let _ = writeln!(
            out,
            "  {:<4} {:<12} {:<12} {:<10} {:<9} {:<24} cause",
            "id", "start", "end", "duration", "decision", "rules"
        );
        for i in &report.incidents {
            let duration = match i.duration_us() {
                Some(d) => fmt_dur(d),
                None => "open".to_string(),
            };
            let cause = if i.cause.is_empty() {
                "unattributed".to_string()
            } else {
                i.cause.clone()
            };
            let _ = writeln!(
                out,
                "  {:<4} {:<12} {:<12} {:<10} {:<9} {:<24} {}",
                i.id,
                fmt_time(i.start_us),
                fmt_end(i.end_us),
                duration,
                i.root_decision,
                i.rules().join(","),
                cause
            );
        }
    }
    let _ = writeln!(
        out,
        "\n{} alerts, {} incidents ({} resolved, {} open)",
        report.alerts.len(),
        report.incidents.len(),
        report.resolved_incidents(),
        report.open_incidents()
    );
    out
}

/// The `alerts` view: one table row per alert.
pub fn render_alerts(report: &HealthReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== alerts: {} ==", report.name);
    if report.alerts.is_empty() {
        out.push_str("  none\n");
        return out;
    }
    let _ = writeln!(
        out,
        "  {:<18} {:<8} {:<12} {:<12} {:<12} decision",
        "rule", "entity", "start", "end", "peak"
    );
    for a in &report.alerts {
        let _ = writeln!(
            out,
            "  {:<18} {:<8} {:<12} {:<12} {:<12.3} {}",
            a.rule,
            a.entity,
            fmt_time(a.start_us),
            fmt_end(a.end_us),
            a.peak,
            a.decision_id
        );
    }
    out
}

/// The `query` view: bucket-level dump of one metric (optionally one
/// entity).
pub fn render_query(report: &HealthReport, metric: &str, entity: Option<u64>) -> String {
    let mut out = String::new();
    let mut found = false;
    for ((m, e), series) in report.store.iter() {
        if m != metric || entity.is_some_and(|want| want != *e) {
            continue;
        }
        found = true;
        let _ = writeln!(
            out,
            "{m}{{entity={e}}} width={}us buckets={} samples={}",
            series.width_us(),
            series.buckets().len(),
            series.samples()
        );
        for b in series.buckets() {
            let _ = writeln!(
                out,
                "  t0={:<14} min={:<12.3} max={:<12.3} mean={:<12.3} last={:.3}",
                b.t0_us,
                b.min,
                b.max,
                b.mean(),
                b.last
            );
        }
    }
    if !found {
        let _ = writeln!(out, "no series for metric `{metric}`");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::SeriesStore;

    fn report_with_series() -> HealthReport {
        let mut store = SeriesStore::new(16);
        for t in 0..32u64 {
            store.record("rack_draw_w", 0, t * 1_000_000, (t % 8) as f64);
            store.record("rack_draw_w", 1, t * 1_000_000, 1.0);
        }
        HealthReport {
            name: "render-test".to_string(),
            store,
            alerts: Vec::new(),
            incidents: Vec::new(),
        }
    }

    #[test]
    fn sparkline_is_fixed_width_and_normalized() {
        let flat = sparkline(&[5.0, 5.0, 5.0], 10);
        assert_eq!(flat.chars().count(), 10);
        let ramp = sparkline(&[0.0, 1.0, 2.0, 3.0], 4);
        assert_eq!(ramp.chars().count(), 4);
        assert_eq!(ramp.chars().next(), Some(' '));
        assert_eq!(ramp.chars().last(), Some('@'));
        assert_eq!(sparkline(&[], 5), "     ");
    }

    #[test]
    fn durations_format_humanely() {
        assert_eq!(fmt_dur(500), "500us");
        assert_eq!(fmt_dur(90_000_000), "1m30s");
        assert_eq!(fmt_dur(7_200_000_000), "2h");
        assert_eq!(fmt_dur(90_000_000_000), "1d1h");
        assert_eq!(fmt_time(60_000_000), "+1m");
    }

    #[test]
    fn report_renders_series_fleet_and_incident_sections() {
        let text = render_report(&report_with_series());
        assert!(text.contains("== fleet health: render-test =="));
        assert!(text.contains("rack_draw_w{entity=0}"));
        assert!(text.contains("rack_draw_w{fleet}"));
        assert!(text.contains("-- Incidents --"));
        assert!(text.contains("  none"));
        assert!(text.contains("0 alerts, 0 incidents (0 resolved, 0 open)"));
    }

    #[test]
    fn rendering_is_deterministic() {
        let a = render_report(&report_with_series());
        let b = render_report(&report_with_series());
        assert_eq!(a, b);
    }

    #[test]
    fn query_dumps_buckets_or_reports_absence() {
        let report = report_with_series();
        let text = render_query(&report, "rack_draw_w", Some(0));
        assert!(text.contains("rack_draw_w{entity=0}"));
        assert!(text.contains("t0="));
        let missing = render_query(&report, "nope", None);
        assert!(missing.contains("no series for metric `nope`"));
    }
}
