//! Health-is-a-reading-of-the-trace harness.
//!
//! Fleet health is read from a traced run: each rack run emits one
//! `rack_series` event (its per-step draws and its limit), and
//! [`HealthReport::per_run`] rebuilds every run's series from those events,
//! then evaluates the alert rules over them and the run's own events. The
//! bench [`Observer`] that traces and profiles a run must never perturb it:
//! its trace, metrics and outcomes stay byte-identical to the default
//! [`NoopProbe`] run at any thread count, and the health read from that
//! trace has one draw series per rack and renders the same at every
//! thread count.
//!
//! The chaos case then reads health end to end: an injected gOA outage
//! must surface as exactly one resolved degraded-window incident whose
//! sim-time bounds match the generated fault plan and whose root cause
//! joins back to a real decision id in the trace.

use simcore::faults::FaultPlan;
use simcore::time::{SimDuration, SimTime};
use smartoclock::policy::PolicyKind;
use soc_analyze::{render, HealthReport, Trace};
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

/// The health of every run in `lines`, as `soc-analyze health` reads it.
fn health(lines: &[String]) -> Vec<HealthReport> {
    HealthReport::per_run(&Trace::parse(&lines.join("\n")).expect("trace parses"))
}

/// Evaluation steps of one rack run: every step after the training week.
fn eval_steps(cfg: &LargeScaleConfig) -> u64 {
    (SimDuration::WEEK * (cfg.weeks - 1)).as_micros() / cfg.step.as_micros()
}

#[test]
fn health_recorded_run_is_byte_identical_to_unrecorded() {
    let cfg = small_config(11);
    for threads in [1, 4] {
        let baseline = probed_run(&cfg, threads, &NoopProbe);
        // Trace and profile on at once: still the same bytes.
        let (telemetry, sink) = Telemetry::memory();
        let full = Observer {
            telemetry,
            profile: Telemetry::with_sink(NullSink),
            ..Observer::default()
        };
        let observed = traced_run(&cfg, threads, &full.telemetry, &sink, &full);
        assert_eq!(
            baseline, observed,
            "the fully enabled observer perturbed the run at {threads} threads"
        );
        let phases = full.profile.metrics_snapshot().histograms;
        assert!(
            phases
                .iter()
                .any(|(k, _)| k.render() == "phase_ms{phase=shard/sim}"),
            "the profile part stayed empty"
        );
        // ... and the trace really carries the run's health, not an empty
        // reading: one run, one draw and one limit series per rack, each
        // draw series one sample per evaluated step.
        let reports = health(&observed.0);
        assert_eq!(reports.len(), 1, "expected one traced run");
        let store = &reports[0].store;
        assert_eq!(
            store.entities("rack_draw_w").len(),
            cfg.racks,
            "expected one rack_draw_w series per rack"
        );
        assert_eq!(store.entities("rack_limit_w").len(), cfg.racks);
        // The run is short enough for one bucket per step, so the draw
        // series starts at the end of training and steps on the run's grid.
        let train_end = (SimTime::ZERO + SimDuration::WEEK).as_micros();
        let last = train_end + (eval_steps(&cfg) - 1) * cfg.step.as_micros();
        for rack in 0..cfg.racks as u64 {
            let draws = store.get("rack_draw_w", rack).expect("draw series");
            assert_eq!(draws.samples(), eval_steps(&cfg), "rack {rack}");
            let buckets = draws.buckets();
            assert_eq!(buckets.len() as u64, eval_steps(&cfg), "rack {rack}");
            assert_eq!(buckets[0].t0_us, train_end, "rack {rack}");
            assert_eq!(buckets[buckets.len() - 1].t0_us, last, "rack {rack}");
            let limit = store.get("rack_limit_w", rack).expect("limit series");
            assert_eq!(limit.samples(), 1, "rack {rack}");
            assert_eq!(limit.buckets()[0].t0_us, train_end, "rack {rack}");
        }
    }
}

#[test]
fn health_series_are_identical_across_thread_counts() {
    // The series events merge in rack order, so the health read from the
    // trace (and its render) must not depend on how racks were dealt across
    // threads.
    let cfg = small_config(23);
    let renders: Vec<String> = [1, 4]
        .into_iter()
        .map(|threads| render::render_health(&health(&probed_run(&cfg, threads, &NoopProbe).0)))
        .collect();
    assert!(
        renders[0].contains("rack_draw_w{entity=0}"),
        "{}",
        renders[0]
    );
    assert_eq!(
        renders[0], renders[1],
        "health render differs across thread counts"
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

    let reports = health(&probed_run(&cfg, 2, &NoopProbe).0);
    assert_eq!(reports.len(), 1, "expected one traced run");
    let report = &reports[0];

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
