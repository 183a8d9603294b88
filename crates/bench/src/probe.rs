//! The run's one observation handle.
//!
//! An [`Observer`] holds everything a bench binary observes a run with —
//! the `--trace-out` telemetry, the `--prof-out` profile and the
//! `--health-out` recorder — and is the bench crate's one
//! `soc_cluster::probe::ShardProbe`. The sharded engine announces phases
//! through pure hooks (it is a sim-state crate and may not read clocks,
//! soc-lint D002); the observer lives here, where wall-clock is allowed,
//! and fans the hooks out: spans and counters go to the profile, gauges
//! and merged events to the recorder. A disabled part is a no-op, so
//! binaries pass the observer unconditionally.
//!
//! The profile is an ordinary telemetry metrics registry: a span records
//! its wall-clock milliseconds into the `phase_ms{phase=<span name>}`
//! histogram and a counter keeps the name it is added under. Span names are
//! flat literals, whichever thread runs the span, so the profile's keys are
//! identical across every thread count. This module is the bench crate's
//! one reader of the wall clock.

use simcore::time::SimTime;
use soc_analyze::Recorder;
use soc_cluster::probe::{ShardProbe, SpanToken};
use soc_telemetry::json::event_to_json;
use soc_telemetry::{Event, NullSink, Telemetry};
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
    /// The fleet health report (`--health-out`).
    pub recorder: Recorder,
    /// When the run began: the profile's `wall_ms` counts from here.
    pub started: Instant,
}

impl Default for Observer {
    fn default() -> Self {
        Observer {
            telemetry: Telemetry::disabled(),
            profile: Telemetry::disabled(),
            recorder: Recorder::disabled(),
            started: Instant::now(),
        }
    }
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

    #[test]
    fn health_probe_feeds_the_recorder() {
        let obs = Observer {
            recorder: Recorder::new("probe-test"),
            ..Observer::default()
        };
        assert!(obs.span("shard/sim").is_none());
        obs.add("racks", 4); // the profile is off
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
