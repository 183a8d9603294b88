//! The run's one observation handle.
//!
//! An [`Observer`] holds everything a bench binary observes a run with —
//! the `--trace-out` telemetry, the `--prof-out` profiler and the
//! `--health-out` recorder — and is the bench crate's one
//! `soc_cluster::probe::ShardProbe`. The sharded engine announces phases
//! through pure hooks (it is a sim-state crate and may not read clocks,
//! soc-lint D002); the observer lives here, where wall-clock is allowed,
//! and fans the hooks out: spans and counters go to the profiler, gauges
//! and merged events to the recorder. A disabled part is a no-op, so
//! binaries pass the observer unconditionally.
//!
//! Span names are recorded with [`Profiler::record`] (literal paths, no
//! nesting): workers run inline at `--threads 1` and on pool threads
//! otherwise, and literal paths keep the snapshot keys identical across
//! every thread count.

use soc_analyze::Recorder;
use soc_cluster::probe::{ShardProbe, SpanToken};
use soc_prof::Profiler;
use soc_telemetry::{Event, NullSink, Telemetry};
use std::time::Instant;

/// One run's observation stack, built by [`crate::Cli::observer`] and
/// emitted by [`crate::Cli::finish`]. The default observes nothing.
#[derive(Clone, Default)]
pub struct Observer {
    /// The JSONL trace (`--trace-out`), disabled without a trace path.
    pub telemetry: Telemetry,
    /// The performance profile (`--prof-out`).
    pub profiler: Profiler,
    /// The fleet health report (`--health-out`).
    pub recorder: Recorder,
}

impl Observer {
    /// The telemetry handle for a run whose events feed the health report.
    /// The alert engine reads the run's event stream, so with `--health-out`
    /// and no trace path this is a fresh enabled handle that discards its
    /// events; otherwise it is the trace handle. Telemetry is pure
    /// observation, so the run's outcomes are the same either way.
    pub fn health_telemetry(&self) -> Telemetry {
        if self.recorder.is_enabled() && !self.telemetry.is_enabled() {
            Telemetry::with_sink(NullSink)
        } else {
            self.telemetry.clone()
        }
    }
}

struct RecordOnDrop {
    profiler: Profiler,
    name: &'static str,
    start: Instant,
}

impl SpanToken for RecordOnDrop {}

impl Drop for RecordOnDrop {
    fn drop(&mut self) {
        self.profiler.record(self.name, self.start.elapsed());
    }
}

impl ShardProbe for Observer {
    fn span(&self, name: &'static str) -> Option<Box<dyn SpanToken>> {
        if !self.profiler.is_enabled() {
            return None;
        }
        Some(Box::new(RecordOnDrop {
            profiler: self.profiler.clone(),
            name,
            start: Instant::now(),
        }))
    }

    fn add(&self, counter: &'static str, n: u64) {
        self.profiler.add(counter, n);
    }

    fn gauge(&self, t_us: u64, metric: &'static str, entity: u64, value: f64) {
        self.recorder.sample(t_us, metric, entity, value);
    }

    fn event(&self, event: &Event) {
        self.recorder.observe(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_yields_no_tokens() {
        let obs = Observer::default();
        assert!(obs.span("shard/sim").is_none());
        obs.add("racks", 3); // must not panic
        assert!(obs.profiler.snapshot().phases.is_empty());
    }

    #[test]
    fn spans_and_counters_land_in_the_snapshot() {
        let obs = Observer {
            profiler: Profiler::new("probe-test"),
            ..Observer::default()
        };
        {
            let _span = obs.span("shard/sim");
        }
        obs.add("racks", 4);
        let snap = obs.profiler.snapshot();
        assert_eq!(snap.phases["shard/sim"].count, 1);
        assert_eq!(snap.counters["racks"], 4);
    }

    #[test]
    fn health_probe_feeds_the_recorder() {
        let obs = Observer {
            recorder: Recorder::new("probe-test"),
            ..Observer::default()
        };
        assert!(obs.span("shard/sim").is_none());
        obs.add("racks", 4); // the profiler is off
        obs.gauge(1_000_000, "rack_draw_w", 2, 37.5);
        assert_eq!(obs.recorder.samples(), 1);
    }

    #[test]
    fn disabled_recorder_probe_is_inert() {
        let obs = Observer::default();
        obs.gauge(1, "rack_draw_w", 0, 1.0);
        assert_eq!(obs.recorder.samples(), 0);
        assert!(!obs.health_telemetry().is_enabled());
    }

    #[test]
    fn health_runs_get_an_enabled_handle_without_a_trace() {
        let health_only = Observer {
            recorder: Recorder::new("probe-test"),
            ..Observer::default()
        };
        assert!(health_only.health_telemetry().is_enabled());
        let (traced, _sink) = Telemetry::memory();
        let both = Observer {
            telemetry: traced,
            ..health_only
        };
        // With a trace, the health run writes into it: one shared id counter.
        let first = both.health_telemetry().next_id();
        assert_eq!(both.telemetry.next_id(), first + 1);
    }
}
