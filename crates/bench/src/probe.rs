//! The run's one observation handle.
//!
//! An [`Observer`] holds everything a bench binary observes a run with —
//! the `--trace-out` telemetry and the `--prof-out` profile — and is the
//! bench crate's one `soc_cluster::probe::ShardProbe`. The sharded engine
//! announces phases through pure hooks (it is a sim-state crate and may not
//! read clocks, soc-lint D002); the observer lives here, where wall-clock
//! is allowed, and sends spans and counters to the profile. A disabled
//! profile is a no-op, so binaries pass the observer unconditionally.
//!
//! The profile is an ordinary telemetry metrics registry: a span records
//! its wall-clock milliseconds into the `phase_ms{phase=<span name>}`
//! histogram and a counter keeps the name it is added under. Span names are
//! flat literals, whichever thread runs the span, so the profile's keys are
//! identical across every thread count. This module is the bench crate's
//! one reader of the wall clock.

use simcore::time::SimTime;
use soc_cluster::probe::{ShardProbe, SpanToken};
use soc_telemetry::json::event_to_json;
use soc_telemetry::Telemetry;
use std::time::Instant;

/// One run's observation stack, built by [`crate::Cli::observer`] and
/// emitted by [`crate::Cli::finish`]. The default observes nothing.
#[derive(Clone)]
pub struct Observer {
    /// The JSONL trace (`--trace-out`), disabled without a trace path.
    pub telemetry: Telemetry,
    /// The wall-clock profile (`--prof-out`): phase histograms and work
    /// counters. Its own handle, never the trace's, so profiling cannot
    /// move a trace's decision ids or bytes.
    pub profile: Telemetry,
    /// When the run began: the profile's `wall_ms` counts from here.
    pub started: Instant,
}

impl Default for Observer {
    fn default() -> Self {
        Observer {
            telemetry: Telemetry::disabled(),
            profile: Telemetry::disabled(),
            started: Instant::now(),
        }
    }
}

impl Observer {
    /// The `--prof-out` file: every metric of the profile plus the run's
    /// `wall_ms` and `peak_rss_bytes` gauges, as JSONL `metric` records in
    /// the trace's format (sorted by key), which `soc-analyze metrics`
    /// renders and `soc-analyze diff` compares.
    pub(crate) fn profile_jsonl(&self) -> String {
        let (out, sink) = Telemetry::memory();
        out.absorb(Vec::new(), &self.profile.metrics_snapshot());
        out.metrics(|m| {
            m.set_gauge("wall_ms", &[], self.started.elapsed().as_secs_f64() * 1e3);
            m.set_gauge("peak_rss_bytes", &[], soc_prof::peak_rss_bytes() as f64);
        });
        out.emit_metrics_snapshot(SimTime::ZERO);
        sink.events()
            .iter()
            .map(|e| event_to_json(e) + "\n")
            .collect()
    }
}

struct RecordOnDrop {
    profile: Telemetry,
    name: &'static str,
    start: Instant,
}

impl SpanToken for RecordOnDrop {}

impl Drop for RecordOnDrop {
    fn drop(&mut self) {
        let ms = self.start.elapsed().as_secs_f64() * 1e3;
        self.profile
            .metrics(|m| m.observe("phase_ms", &[("phase", self.name.into())], ms));
    }
}

impl ShardProbe for Observer {
    fn span(&self, name: &'static str) -> Option<Box<dyn SpanToken>> {
        if !self.profile.is_enabled() {
            return None;
        }
        Some(Box::new(RecordOnDrop {
            profile: self.profile.clone(),
            name,
            start: Instant::now(),
        }))
    }

    fn add(&self, counter: &'static str, n: u64) {
        self.profile.metrics(|m| m.inc_counter_by(counter, &[], n));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soc_telemetry::NullSink;

    #[test]
    fn disabled_profiler_yields_no_tokens() {
        let obs = Observer::default();
        assert!(obs.span("shard/sim").is_none());
        obs.add("racks", 3); // must not panic
        assert_eq!(obs.profile.metrics_snapshot().render(), "");
    }

    #[test]
    fn spans_and_counters_land_in_the_snapshot() {
        let obs = Observer {
            profile: Telemetry::with_sink(NullSink),
            ..Observer::default()
        };
        {
            let _span = obs.span("shard/sim");
        }
        obs.add("racks", 4);
        obs.add("racks", 2);
        let snap = obs.profile.metrics_snapshot();
        let (key, hist) = &snap.histograms[0];
        assert_eq!(key.render(), "phase_ms{phase=shard/sim}");
        assert_eq!(hist.count(), 1);
        assert_eq!(obs.profile.metrics(|m| m.counter("racks", &[])), Some(6));
        // The trace handle is a different registry: it saw nothing.
        assert_eq!(obs.telemetry.metrics_snapshot().render(), "");
    }
}
