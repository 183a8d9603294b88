//! The canonical profile snapshot: what a `--prof-out` file contains and
//! what `soc-prof show` renders.
//!
//! The format is a single JSON object with a pinned field set (see
//! [`Snapshot::to_json`]); maps are emitted in sorted key order so two
//! snapshots of the same run shape diff cleanly line by line. `schema`
//! is bumped on incompatible changes; [`Snapshot::from_json`] rejects
//! snapshots from a different major schema so a reader fails loudly
//! instead of misreading fields.

use crate::phase::PhaseStats;
use soc_telemetry::json::{self, Object, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Current snapshot schema version.
pub const SCHEMA: u64 = 1;

/// Per-phase timing in snapshot form (milliseconds, f64).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PhaseSnap {
    /// Completed span count.
    pub count: u64,
    /// Total wall time in ms.
    pub total_ms: f64,
    /// Shortest span in ms.
    pub min_ms: f64,
    /// Longest span in ms.
    pub max_ms: f64,
}

impl PhaseSnap {
    /// Mean span length in ms (0 for an empty phase).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ms / self.count as f64
        }
    }
}

impl From<&PhaseStats> for PhaseSnap {
    fn from(s: &PhaseStats) -> PhaseSnap {
        PhaseSnap {
            count: s.count,
            total_ms: to_ms(s.total),
            min_ms: to_ms(s.min),
            max_ms: to_ms(s.max),
        }
    }
}

fn to_ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One complete profile: phases, counters, derived rates, memory, and
/// free-form metadata describing the run configuration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Format version ([`SCHEMA`] when produced by this crate).
    pub schema: u64,
    /// Profile name (usually the experiment/binary name).
    pub name: String,
    /// Run configuration: racks, weeks, seed, threads, … (stringly typed
    /// on purpose — metadata is for humans and diff labels, not math).
    pub meta: BTreeMap<String, String>,
    /// Wall time from profiler creation to snapshot, in ms.
    pub total_ms: f64,
    /// Per-phase breakdown keyed by `/`-joined phase path.
    pub phases: BTreeMap<String, PhaseSnap>,
    /// Monotonic work counters (racks, sim_steps, events, …).
    pub counters: BTreeMap<String, u64>,
    /// Derived throughputs and ratios (racks_per_sec, speedup_t4, …).
    pub rates: BTreeMap<String, f64>,
    /// Process peak RSS in bytes (0 when unavailable).
    pub peak_rss_bytes: u64,
    /// Allocations counted by [`crate::CountingAlloc`] (0 when not installed).
    pub alloc_count: u64,
    /// Bytes allocated (same caveat).
    pub alloc_bytes: u64,
}

impl Snapshot {
    /// Serialize to the canonical pretty JSON form (stable key order,
    /// trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {},", self.schema);
        let _ = writeln!(out, "  \"name\": {},", json::escape(&self.name));
        write_str_map(&mut out, "meta", &self.meta);
        let _ = writeln!(out, "  \"total_ms\": {},", json::fmt_num(self.total_ms));
        out.push_str("  \"phases\": {");
        for (i, (path, p)) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {}: {{\"count\": {}, \"total_ms\": {}, \"min_ms\": {}, \"max_ms\": {}}}",
                json::escape(path),
                p.count,
                json::fmt_num(p.total_ms),
                json::fmt_num(p.min_ms),
                json::fmt_num(p.max_ms),
            );
        }
        if self.phases.is_empty() {
            out.push_str("},\n");
        } else {
            out.push_str("\n  },\n");
        }
        out.push_str("  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {}: {}", json::escape(name), v);
        }
        out.push_str(if self.counters.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"rates\": {");
        for (i, (name, v)) in self.rates.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {}: {}", json::escape(name), json::fmt_num(*v));
        }
        out.push_str(if self.rates.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        let _ = writeln!(out, "  \"peak_rss_bytes\": {},", self.peak_rss_bytes);
        let _ = writeln!(out, "  \"alloc_count\": {},", self.alloc_count);
        let _ = writeln!(out, "  \"alloc_bytes\": {}", self.alloc_bytes);
        out.push_str("}\n");
        out
    }

    /// Parse a snapshot produced by [`Snapshot::to_json`] (or any JSON
    /// document with the same field set).
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        let root = json::parse(text)?;
        let obj = root
            .as_obj()
            .ok_or_else(|| "snapshot root must be an object".to_string())?;
        let schema = get_count(obj, "schema")?;
        if schema != SCHEMA {
            return Err(format!(
                "snapshot schema {schema} is not the supported schema {SCHEMA}; \
                 regenerate the file with this build"
            ));
        }
        let name = obj
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| "snapshot is missing `name`".to_string())?
            .to_string();
        let mut snap = Snapshot {
            schema,
            name,
            total_ms: get_num(obj, "total_ms")?,
            peak_rss_bytes: get_count(obj, "peak_rss_bytes").unwrap_or(0),
            alloc_count: get_count(obj, "alloc_count").unwrap_or(0),
            alloc_bytes: get_count(obj, "alloc_bytes").unwrap_or(0),
            ..Snapshot::default()
        };
        if let Some(meta) = obj.get("meta").and_then(Value::as_obj) {
            for (k, v) in meta.iter() {
                if let Some(s) = v.as_str() {
                    snap.meta.insert(k.clone(), s.to_string());
                }
            }
        }
        if let Some(counters) = obj.get("counters").and_then(Value::as_obj) {
            for (k, v) in counters.iter() {
                let n = v
                    .as_u64()
                    .ok_or_else(|| format!("counter `{k}` is not a count"))?;
                snap.counters.insert(k.clone(), n);
            }
        }
        if let Some(rates) = obj.get("rates").and_then(Value::as_obj) {
            for (k, v) in rates.iter() {
                let n = v
                    .as_num()
                    .ok_or_else(|| format!("rate `{k}` is not a number"))?;
                snap.rates.insert(k.clone(), n);
            }
        }
        if let Some(phases) = obj.get("phases").and_then(Value::as_obj) {
            for (path, v) in phases.iter() {
                let p = v
                    .as_obj()
                    .ok_or_else(|| format!("phase `{path}` is not an object"))?;
                snap.phases.insert(
                    path.clone(),
                    PhaseSnap {
                        count: get_count(p, "count")?,
                        total_ms: get_num(p, "total_ms")?,
                        min_ms: get_num(p, "min_ms").unwrap_or(0.0),
                        max_ms: get_num(p, "max_ms").unwrap_or(0.0),
                    },
                );
            }
        }
        Ok(snap)
    }

    /// Render a human-readable summary (what `--prof` prints).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== profile: {} ==", self.name);
        let _ = writeln!(
            out,
            "total {:.1} ms | peak rss {} | allocs {} ({})",
            self.total_ms,
            fmt_bytes(self.peak_rss_bytes),
            self.alloc_count,
            fmt_bytes(self.alloc_bytes),
        );
        if !self.meta.is_empty() {
            let pairs: Vec<String> = self.meta.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let _ = writeln!(out, "config: {}", pairs.join(" "));
        }
        if !self.phases.is_empty() {
            let _ = writeln!(out, "phases:");
            let width = self.phases.keys().map(|p| p.len()).max().unwrap_or(0);
            for (path, p) in &self.phases {
                let _ = writeln!(
                    out,
                    "  {path:<width$}  {:>8.1} ms  x{:<8} mean {:.3} ms",
                    p.total_ms,
                    p.count,
                    p.mean_ms(),
                );
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            let width = self.counters.keys().map(|c| c.len()).max().unwrap_or(0);
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name:<width$}  {v}");
            }
        }
        if !self.rates.is_empty() {
            let _ = writeln!(out, "rates:");
            let width = self.rates.keys().map(|r| r.len()).max().unwrap_or(0);
            for (name, v) in &self.rates {
                let _ = writeln!(out, "  {name:<width$}  {v:.3}");
            }
        }
        out
    }
}

fn write_str_map(out: &mut String, key: &str, map: &BTreeMap<String, String>) {
    let _ = write!(out, "  {}: {{", json::escape(key));
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    {}: {}", json::escape(k), json::escape(v));
    }
    out.push_str(if map.is_empty() { "},\n" } else { "\n  },\n" });
}

fn get_num(obj: &Object, key: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(Value::as_num)
        .ok_or_else(|| format!("snapshot is missing numeric `{key}`"))
}

fn get_count(obj: &Object, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("snapshot is missing count `{key}`"))
}

/// Human-scale byte formatting (1 decimal, binary units).
fn fmt_bytes(bytes: u64) -> String {
    const UNITS: &[&str] = &["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = bytes as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit + 1 < UNITS.len() {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{v:.1} {}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut s = Snapshot {
            schema: SCHEMA,
            name: "unit".into(),
            total_ms: 123.456789,
            peak_rss_bytes: 5 << 20,
            alloc_count: 42,
            alloc_bytes: 1 << 16,
            ..Snapshot::default()
        };
        s.meta.insert("racks".into(), "8".into());
        s.meta.insert("seed".into(), "42".into());
        s.counters.insert("sim_steps".into(), 1344);
        s.rates.insert("racks_per_sec".into(), 12.5);
        s.phases.insert(
            "sim".into(),
            PhaseSnap {
                count: 8,
                total_ms: 100.25,
                min_ms: 10.0,
                max_ms: 20.5,
            },
        );
        s.phases.insert(
            "sim/admission".into(),
            PhaseSnap {
                count: 800,
                total_ms: 60.125,
                min_ms: 0.05,
                max_ms: 0.3,
            },
        );
        s
    }

    #[test]
    fn json_round_trips() {
        let s = sample();
        let parsed = Snapshot::from_json(&s.to_json()).unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let s = Snapshot {
            schema: SCHEMA,
            name: "empty".into(),
            ..Snapshot::default()
        };
        let parsed = Snapshot::from_json(&s.to_json()).unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn serialization_is_stable() {
        assert_eq!(sample().to_json(), sample().to_json());
        // Canonical form ends with a newline and starts as an object.
        let text = sample().to_json();
        assert!(text.starts_with("{\n"));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn rejects_wrong_schema() {
        let text = sample()
            .to_json()
            .replace("\"schema\": 1", "\"schema\": 99");
        let err = Snapshot::from_json(&text).unwrap_err();
        assert!(err.contains("schema 99"), "unexpected error: {err}");
    }

    #[test]
    fn rejects_missing_fields() {
        assert!(Snapshot::from_json("{}").is_err());
        assert!(Snapshot::from_json("[1,2]").is_err());
        assert!(Snapshot::from_json("{\"schema\": 1}").is_err());
    }

    #[test]
    fn render_mentions_phases_and_counters() {
        let text = sample().render();
        assert!(text.contains("sim/admission"));
        assert!(text.contains("sim_steps"));
        assert!(text.contains("racks_per_sec"));
    }

    #[test]
    fn bytes_format() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(5 << 20), "5.0 MiB");
    }
}
