//! Health-recording-is-observation-only harness.
//!
//! The fleet-health layer (`soc_analyze::Recorder` + the `gauge`/`event` hooks on
//! `soc_cluster::probe::ShardProbe`) must never perturb the simulation:
//! attaching a health-recording [`Observer`] to the sharded engine has to
//! yield byte-identical telemetry traces, metrics, and outcomes to the
//! default [`NoopProbe`] run, at any thread count — also with its trace and
//! profile parts switched on at the same time. That is what lets
//! `--health-out` default to off-but-harmless in every bench binary.
//!
//! The chaos case then drives the recorder end to end: an injected gOA
//! outage must surface as exactly one resolved degraded-window incident
//! whose sim-time bounds match the generated fault plan and whose root
//! cause joins back to a real decision id in the trace.

use simcore::faults::FaultPlan;
use simcore::time::{SimDuration, SimTime};
use smartoclock::policy::PolicyKind;
use soc_analyze::{default_rules, Recorder};
use soc_bench::Observer;
use soc_cluster::largescale::LargeScaleConfig;
use soc_cluster::probe::{NoopProbe, ShardProbe};
use soc_cluster::shard::simulate_policy_sharded_probed;
use soc_telemetry::json::event_to_json;
use soc_telemetry::{MemorySink, NullSink, Telemetry};

fn small_config(seed: u64) -> LargeScaleConfig {
    let mut cfg = LargeScaleConfig::small_test();
    cfg.seed = seed;
    cfg
}

/// Trace lines, rendered metrics and outcomes of one run — everything a
/// consumer can observe.
type Observed = (
    Vec<String>,
    String,
    Vec<soc_cluster::largescale_metrics::RackOutcome>,
);

/// Run one policy simulation traced into `tm` (whose events land in
/// `sink`) under `probe`.
fn traced_run(
    cfg: &LargeScaleConfig,
    threads: usize,
    tm: &Telemetry,
    sink: &MemorySink,
    probe: &dyn ShardProbe,
) -> Observed {
    let outcomes = simulate_policy_sharded_probed(cfg, PolicyKind::SmartOClock, tm, threads, probe);
    let lines: Vec<String> = sink.events().iter().map(event_to_json).collect();
    let metrics = tm.metrics_snapshot().render();
    (lines, metrics, outcomes)
}

/// Run one policy simulation under `probe`, traced into a fresh memory sink.
fn probed_run(cfg: &LargeScaleConfig, threads: usize, probe: &dyn ShardProbe) -> Observed {
    let (tm, sink) = Telemetry::memory();
    traced_run(cfg, threads, &tm, &sink, probe)
}

/// An observer with only its recorder on, as `--health-out` builds it.
fn health_observer(recorder: Recorder) -> Observer {
    Observer {
        recorder,
        ..Observer::default()
    }
}

#[test]
fn health_recorded_run_is_byte_identical_to_unrecorded() {
    let cfg = small_config(11);
    for threads in [1, 4] {
        let baseline = probed_run(&cfg, threads, &NoopProbe);
        let recorder = Recorder::new("health-test");
        let probed = probed_run(&cfg, threads, &health_observer(recorder.clone()));
        assert_eq!(
            baseline.0, probed.0,
            "telemetry trace changed under health recording at {threads} threads"
        );
        assert_eq!(
            baseline.1, probed.1,
            "metrics snapshot changed under health recording at {threads} threads"
        );
        assert_eq!(
            baseline.2, probed.2,
            "outcomes changed under health recording at {threads} threads"
        );
        // ... and the recorder really was live, not silently disabled: the
        // engine's per-rack draw gauges landed in the store.
        assert!(
            recorder.samples() > 0,
            "expected gauge samples, recorder stayed empty"
        );
        let report = recorder
            .finalize(&default_rules(cfg.step.as_micros()))
            .expect("enabled recorder finalizes to a report");
        assert!(
            report.store.entities("rack_draw_w").len() == cfg.racks,
            "expected one rack_draw_w series per rack"
        );

        // Trace, profile and health on at once: still the same bytes, and
        // the recorder takes the samples the health-only run did.
        let (telemetry, sink) = Telemetry::memory();
        let full = Observer {
            telemetry,
            profile: Telemetry::with_sink(NullSink),
            recorder: Recorder::new("full"),
            ..Observer::default()
        };
        let observed = traced_run(&cfg, threads, &full.telemetry, &sink, &full);
        assert_eq!(
            baseline, observed,
            "the fully enabled observer perturbed the run at {threads} threads"
        );
        assert_eq!(full.recorder.samples(), recorder.samples());
        let phases = full.profile.metrics_snapshot().histograms;
        assert!(
            phases
                .iter()
                .any(|(k, _)| k.render() == "phase_ms{phase=shard/sim}"),
            "the profile part stayed empty"
        );
    }
}

#[test]
fn health_series_are_identical_across_thread_counts() {
    // Each series is fed by exactly one worker in time order, so the
    // canonical store (and with it the health JSON) must not depend on how
    // racks were dealt across threads.
    let cfg = small_config(23);
    let mut reports = Vec::new();
    for threads in [1, 4] {
        let recorder = Recorder::new("health-test");
        let _ = probed_run(&cfg, threads, &health_observer(recorder.clone()));
        let report = recorder
            .finalize(&default_rules(cfg.step.as_micros()))
            .expect("report");
        reports.push(soc_analyze::json::to_json(&report));
    }
    assert_eq!(
        reports[0], reports[1],
        "health JSON differs across thread counts"
    );
}

#[test]
fn injected_goa_outage_produces_one_resolved_incident() {
    let mut cfg = small_config(42);
    cfg.faults.seed = 7;
    cfg.faults.goa_outages = 1;
    cfg.faults.goa_outage_len = SimDuration::from_hours(12);

    // Expected degraded-window bounds, from the same pure fault plan the
    // engine realizes: the racks step a fixed grid, so the window is entered
    // at the first grid point inside the outage and left at the first grid
    // point after it.
    let train_end = SimTime::ZERO + SimDuration::WEEK;
    let trace_end = SimTime::ZERO + SimDuration::WEEK * cfg.weeks;
    let plan = FaultPlan::generate(&cfg.faults, train_end, trace_end);
    let (mut enter_us, mut exit_us) = (None, None);
    let mut t = train_end;
    while t < trace_end {
        let down = plan.goa_unreachable(t);
        if down && enter_us.is_none() {
            enter_us = Some(t.as_micros());
        }
        if !down && enter_us.is_some() && exit_us.is_none() {
            exit_us = Some(t.as_micros());
        }
        t += cfg.step;
    }
    let enter_us = enter_us.expect("outage starts inside the horizon");
    let exit_us = exit_us.expect("outage ends inside the horizon");

    let recorder = Recorder::new("chaos-health");
    let _ = probed_run(&cfg, 2, &health_observer(recorder.clone()));
    let report = recorder
        .finalize(&default_rules(cfg.step.as_micros()))
        .expect("report");

    // One outage, all racks degraded over the same window: the overlapping
    // per-rack alerts group into exactly one degraded incident, and every
    // incident (including any near-limit headroom windows elsewhere in the
    // run) is resolved by the end of the trace.
    let degraded: Vec<_> = report
        .incidents
        .iter()
        .filter(|i| i.rules().contains(&"degraded"))
        .collect();
    assert_eq!(
        degraded.len(),
        1,
        "expected exactly one degraded incident, got {:?}",
        report.incidents
    );
    let incident = degraded[0];
    assert_eq!(incident.start_us, enter_us, "incident start off the plan");
    assert_eq!(
        incident.end_us,
        Some(exit_us),
        "incident did not resolve at the planned exit"
    );
    assert_eq!(report.open_incidents(), 0);
    assert_eq!(report.resolved_incidents(), report.incidents.len());
    // Every rack contributed a degraded alert to the single incident.
    assert_eq!(incident.alerts.len(), cfg.racks);
    assert!(incident.rules().iter().all(|r| *r == "degraded"));
    // Root cause joins back to a real decision in the trace, and the causal
    // chain names the degraded entry.
    assert_ne!(incident.root_decision, 0, "incident is unattributed");
    assert!(
        incident.cause.contains("degraded_enter"),
        "cause chain {:?} does not mention degraded_enter",
        incident.cause
    );
}
