//! # soc-prof — wall-clock performance observability for SmartOClock
//!
//! The workspace's sim-state crates are forbidden from reading the wall
//! clock (soc-lint D002): a seed must fully determine every byte they
//! compute. But measuring how fast the simulations run — and keeping them
//! fast as the fleet grows — needs exactly the numbers determinism forbids:
//! wall time per phase, racks per second, memory high-water marks. This
//! crate is the resolution: **all** wall-clock observation lives here and
//! in the bench binaries and the benchmark that link it, strictly outside
//! the deterministic core, and the sim crates expose pure observation *hooks*
//! (`soc_cluster::probe::ShardProbe`) that the bench binaries' observer
//! records into a [`Profiler`]. Profiling on or off never changes a trace
//! byte (pinned by `tests/prof.rs`).
//!
//! Four pieces:
//!
//! * **Phase timers** ([`Profiler::record`]) — externally measured spans
//!   folded in under a literal path (`shard/sim`, `policy/SmartOClock`);
//!   totals, counts, min/max per path.
//! * **Throughput counters** ([`Profiler::add`]) — monotonic work counts
//!   (racks, sim_steps, events); snapshots derive `*_per_sec` rates.
//! * **Memory sampling** ([`mem`]) — peak RSS from procfs and an opt-in
//!   counting global allocator ([`CountingAlloc`]).
//! * **Snapshots** ([`Snapshot`]) — a canonical JSON profile format, what
//!   a bench binary's `--prof-out` writes and `soc-analyze profile` renders.
//!
//! Regression gating is not here: CI gates on `soc-benchmark`'s
//! digest-checked workloads (`benchmark/`, `.github/scripts/perf_gate.sh`).
//!
//! A disabled handle ([`Profiler::disabled`], also `Default`) is a `None`
//! internally, mirroring `soc_telemetry::Telemetry`: every call site first
//! branches on enablement, so always-on instrumentation costs one branch
//! when profiling is off.
//!
//! ```
//! use soc_prof::Profiler;
//! use std::time::Instant;
//!
//! let prof = Profiler::new("example");
//! let start = Instant::now();
//! prof.record("setup/templates", start.elapsed());
//! prof.add("racks", 8);
//! let snap = prof.snapshot();
//! assert!(snap.phases.contains_key("setup/templates"));
//! assert_eq!(snap.counters["racks"], 8);
//! ```

// `deny` rather than the workspace's usual `forbid`: mem.rs carries the one
// sanctioned `unsafe impl` in the tree (GlobalAlloc is an unsafe trait), a
// verbatim delegation to `std::alloc::System` plus two atomic increments.
#![deny(unsafe_code)]

pub mod mem;
pub mod phase;
pub mod snapshot;

pub use mem::{alloc_counts, peak_rss_bytes, CountingAlloc};
pub use phase::PhaseStats;
pub use snapshot::{PhaseSnap, Snapshot, SCHEMA};
/// The workspace JSON codec, re-exported for `benchmark/`, which reads its
/// result files through this path.
pub use soc_telemetry::json;

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

#[derive(Default)]
struct State {
    phases: BTreeMap<String, PhaseStats>,
    counters: BTreeMap<String, u64>,
    meta: BTreeMap<String, String>,
}

struct Inner {
    name: String,
    start: Instant,
    state: Mutex<State>,
}

/// Cheap cloneable handle to a profile under construction.
///
/// Clones share the underlying accumulators, so worker threads can record
/// phases concurrently; snapshot maps are ordered (`BTreeMap`), which keeps
/// snapshot bytes independent of recording order. The default handle is
/// disabled.
#[derive(Clone, Default)]
pub struct Profiler {
    inner: Option<Arc<Inner>>,
}

impl fmt::Debug for Profiler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Profiler")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Profiler {
    /// An enabled profiler named `name` (the experiment/binary name); the
    /// total wall clock starts now.
    pub fn new(name: &str) -> Profiler {
        Profiler {
            inner: Some(Arc::new(Inner {
                name: name.to_string(),
                start: Instant::now(),
                state: Mutex::new(State::default()),
            })),
        }
    }

    /// A disabled handle: every operation is a no-op after one branch.
    pub fn disabled() -> Profiler {
        Profiler { inner: None }
    }

    /// Is this handle recording?
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Profile state under the lock. Poisoning is survivable here — the
    /// accumulators hold plain counters that are valid after any partial
    /// update — so a panicked worker thread does not also take down the
    /// profile of the work that succeeded.
    fn state(inner: &Inner) -> MutexGuard<'_, State> {
        inner.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Fold an externally measured duration into phase `path`. The path is
    /// taken literally, whichever thread measured the span, so the keys do
    /// not depend on how work was dealt across threads.
    pub fn record(&self, path: &str, elapsed: Duration) {
        if let Some(inner) = &self.inner {
            Self::state(inner)
                .phases
                .entry(path.to_string())
                .or_default()
                .record(elapsed);
        }
    }

    /// Add `n` to the monotonic counter `name`.
    pub fn add(&self, name: &str, n: u64) {
        if let Some(inner) = &self.inner {
            *Self::state(inner)
                .counters
                .entry(name.to_string())
                .or_insert(0) += n;
        }
    }

    /// Attach a configuration key to the snapshot (`racks=32`, `seed=42`).
    pub fn set_meta(&self, key: &str, value: impl fmt::Display) {
        if let Some(inner) = &self.inner {
            Self::state(inner)
                .meta
                .insert(key.to_string(), value.to_string());
        }
    }

    /// Elapsed wall time since this profiler was created (zero when
    /// disabled).
    pub fn elapsed(&self) -> Duration {
        match &self.inner {
            Some(inner) => inner.start.elapsed(),
            None => Duration::ZERO,
        }
    }

    /// Materialize the profile: phases and counters recorded so far, a
    /// `*_per_sec` rate per counter, peak RSS, and
    /// allocator counts. A disabled profiler snapshots to the empty
    /// default.
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else {
            return Snapshot::default();
        };
        let elapsed = inner.start.elapsed();
        let state = Self::state(inner);
        let mut snap = Snapshot {
            schema: SCHEMA,
            name: inner.name.clone(),
            meta: state.meta.clone(),
            total_ms: elapsed.as_secs_f64() * 1e3,
            counters: state.counters.clone(),
            peak_rss_bytes: mem::peak_rss_bytes(),
            ..Snapshot::default()
        };
        (snap.alloc_count, snap.alloc_bytes) = mem::alloc_counts();
        for (path, stats) in &state.phases {
            snap.phases.insert(path.clone(), PhaseSnap::from(stats));
        }
        let secs = elapsed.as_secs_f64();
        if secs > 0.0 {
            for (name, count) in &state.counters {
                snap.rates
                    .insert(format!("{name}_per_sec"), *count as f64 / secs);
            }
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_profiler_is_inert() {
        let prof = Profiler::disabled();
        assert!(!prof.is_enabled());
        prof.add("racks", 5);
        prof.set_meta("k", "v");
        prof.record("manual", Duration::from_millis(3));
        let snap = prof.snapshot();
        assert_eq!(snap, Snapshot::default());
    }

    #[test]
    fn counters_accumulate_and_derive_rates() {
        let prof = Profiler::new("counters");
        prof.add("racks", 3);
        prof.add("racks", 5);
        std::thread::sleep(Duration::from_millis(2));
        let snap = prof.snapshot();
        assert_eq!(snap.counters["racks"], 8);
        assert!(snap.rates["racks_per_sec"] > 0.0);
        assert!(snap.total_ms > 0.0);
    }

    #[test]
    fn record_takes_the_path_literally() {
        let prof = Profiler::new("record");
        prof.record("run/t1", Duration::from_millis(7));
        let worker = prof.clone();
        std::thread::spawn(move || worker.record("run/t1", Duration::from_millis(3)))
            .join()
            .unwrap();
        let snap = prof.snapshot();
        // One key, whichever thread measured the span.
        assert_eq!(snap.phases.len(), 1);
        assert_eq!(snap.phases["run/t1"].count, 2);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let prof = Profiler::new("roundtrip");
        prof.record("sim/admission", Duration::from_micros(1500));
        prof.add("sim_steps", 100);
        prof.set_meta("racks", 4);
        let snap = prof.snapshot();
        let parsed = Snapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(parsed, snap);
    }
}
