//! `compare`: parent result files against change result files.
//!
//! Files come from alternating runs of the two commits; the i-th parent run
//! of a workload is paired with the i-th change run. For every workload and
//! end-to-end metric one row gives both medians and quartiles, the share of
//! pairs the change won (ties count for neither) and a verdict:
//!
//! * `improved`: over at least ten pairs, the change won at least nine
//!   tenths and the medians differ, in its favour, by more than the
//!   parent's interquartile range;
//! * `unresolved`: either side's spread is wider than the metric's bound,
//!   unless every change run beat every parent run;
//! * `regressed`: the change's median is worse by more than the bound;
//! * `ok`: none of these.
//!
//! Every exact counter (and digest) that differs between any two runs of
//! a workload is listed after the table.

use crate::report::{read_file, Better, Record, END_TO_END};
use crate::stats::{median, quartiles, ratio};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Pairs a gain needs before `compare` calls it `improved`.
const MIN_PAIRS: usize = 10;

/// One workload × metric comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub parent: (f64, f64, f64),
    pub change: (f64, f64, f64),
    pub win_frac: f64,
    pub verdict: Verdict,
}

fn summary(values: &[f64]) -> (f64, f64, f64) {
    let (q1, q3) = quartiles(values);
    (median(values), q1, q3)
}

/// Compare paired samples of one metric (`parent[i]` ran next to
/// `change[i]`).
pub fn compare_metric(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Row {
    let beats = |c: f64, p: f64| match better {
        Better::Lower => c < p,
        Better::Higher => c > p,
    };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(&p, &c)| beats(c, p))
        .count();
    let win_frac = ratio(wins as f64, pairs as f64);
    let (p, c) = (summary(parent), summary(change));
    let spread = |(med, q1, q3): (f64, f64, f64)| ratio(q3 - q1, med.abs());
    let worse_by = match better {
        Better::Lower => c.0 - p.0,
        Better::Higher => p.0 - c.0,
    };
    let every_run_better = change
        .iter()
        .all(|&cv| parent.iter().all(|&pv| beats(cv, pv)));
    let verdict = if pairs >= MIN_PAIRS && win_frac >= 0.9 && -worse_by > p.2 - p.1 {
        Verdict::Improved
    } else if (spread(p) > bound || spread(c) > bound) && !every_run_better {
        Verdict::Unresolved
    } else if worse_by > bound * p.0.abs() {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    Row {
        parent: p,
        change: c,
        win_frac,
        verdict,
    }
}

/// `x` to five significant digits.
fn sig(x: f64) -> String {
    let digits = if x == 0.0 {
        0
    } else {
        (4 - x.abs().log10().floor() as i32).max(0) as usize
    };
    format!("{x:.digits$}")
}

fn load(paths: &[String]) -> Result<Vec<Record>, String> {
    let mut records = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        records.extend(read_file(&text).map_err(|e| format!("{path}: {e}"))?);
    }
    Ok(records)
}

/// The comparison table, and whether no metric regressed and every run
/// passed its checks.
pub fn compare(parent: &[String], change: &[String]) -> Result<(String, bool), String> {
    let (parent, change) = (load(parent)?, load(change)?);
    let workloads: BTreeSet<&str> = parent
        .iter()
        .chain(&change)
        .map(|r| r.workload.as_str())
        .collect();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<13} {:<17} {:>30} {:>30} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    let mut clean = true;
    for &w in &workloads {
        let runs = |records: &[Record], metric: &str| -> Vec<f64> {
            records
                .iter()
                .filter(|r| r.workload == w)
                .filter_map(|r| r.end_to_end.get(metric).copied())
                .collect()
        };
        for (metric, _, better, bound) in END_TO_END {
            let (p, c) = (runs(&parent, metric), runs(&change, metric));
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let row = compare_metric(&p, &c, better, bound);
            clean &= row.verdict != Verdict::Regressed;
            let fmt =
                |(m, q1, q3): (f64, f64, f64)| format!("{} [{}, {}]", sig(m), sig(q1), sig(q3));
            let _ = writeln!(
                out,
                "{w:<13} {metric:<17} {:>30} {:>30} {:>6.2}  {}",
                fmt(row.parent),
                fmt(row.change),
                row.win_frac,
                row.verdict.as_str()
            );
        }
    }
    let failed = parent.iter().chain(&change).filter(|r| !r.correct).count();
    if failed > 0 {
        clean = false;
        let _ = writeln!(out, "runs with failed checks: {failed}");
    }
    let mut differing = 0;
    for &w in &workloads {
        let mut values: BTreeMap<&str, (BTreeSet<&str>, BTreeSet<&str>)> = BTreeMap::new();
        for (side, records) in [(0, &parent), (1, &change)] {
            for r in records.iter().filter(|r| r.workload == w) {
                for (k, v) in &r.exact {
                    let entry = values.entry(k).or_default();
                    if side == 0 {
                        entry.0.insert(v);
                    } else {
                        entry.1.insert(v);
                    }
                }
            }
        }
        for (k, (p, c)) in values {
            if p.union(&c).count() > 1 {
                differing += 1;
                let _ = writeln!(
                    out,
                    "exact counter differs: {w} {k}: parent {p:?} change {c:?}"
                );
            }
        }
    }
    let _ = writeln!(out, "exact counters differing: {differing}");
    Ok((out, clean))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_rules() {
        let parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00];
        let faster: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
        let slower: Vec<f64> = parent.iter().map(|x| x * 1.2).collect();
        let same: Vec<f64> = parent.iter().rev().copied().collect();
        let lower = |c: &[f64]| compare_metric(&parent, c, Better::Lower, 0.1).verdict;
        assert_eq!(lower(&faster), Verdict::Improved);
        assert_eq!(lower(&slower), Verdict::Regressed);
        assert_eq!(lower(&same), Verdict::Ok);
        let noisy = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1];
        assert_eq!(lower(&noisy), Verdict::Unresolved);
        // A higher-is-better metric flips the direction.
        let higher = compare_metric(&parent, &faster, Better::Higher, 0.1);
        assert_eq!(higher.verdict, Verdict::Regressed);
        assert_eq!(higher.win_frac, 0.0);
    }
}
