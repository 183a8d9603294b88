//! The per-workload protocol and the metrics it reports.
//!
//! 1. **Set-up**, [`SETUP_REPS`] times: build the inputs from scratch and
//!    run one untimed warm-up round. `setup_s` is the median time to that
//!    first checked result, so work moved out of the rounds into input
//!    preparation shows up there.
//! 2. **Timed rounds**, tracing off, one after another (closed loop) until
//!    `--seconds` have passed and at least [`MIN_ROUNDS`] ran. `round_s`
//!    is their median.
//! 3. **Traced rounds** (`--trace 1` only): [`TRACE_PASSES`] coarse passes,
//!    as many fine passes and the workload's own extras, each reproducing
//!    the untraced digest.
//!
//! Every round's output is checked.

use crate::probe::{Detail, LayerProbe, ProbeSnapshot};
use crate::stats::{median, min, percentile, ratio};
use crate::workloads::{
    cluster_configs, cluster_round, prepare, round, Inputs, Round, Scale, Tm, Workload,
    REFERENCE_SEED,
};
use smartoclock::policy::PolicyKind;
use soc_cluster::harness::{ClusterConfig, SystemKind};
use soc_cluster::probe::NoopProbe;
use soc_cluster::shard::{generate_fleet_probed, run_cluster_sims_probed, FleetTraces};
use soc_prof::{alloc_counts, peak_rss_bytes};
use soc_telemetry::{NullSink, Telemetry};
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Timed rounds a run makes however short `--seconds` is.
const MIN_ROUNDS: usize = 5;

#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    pub threads: usize,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Repeats exactly for a given seed on any machine.
    pub exact: bool,
}

fn timed(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
        exact: false,
    }
}

fn exact(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
        exact: true,
    }
}

/// Everything one workload run measured.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: Workload,
    pub options: Options,
    pub digest: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub setup_s: Vec<f64>,
    pub round_s: Vec<f64>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }
}

/// Counts rounds and compares every round's digest with the reference:
/// the committed digest for the reference seed at pinned size, otherwise
/// the first warm-up's.
struct Checker {
    reference: Option<u64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checker {
    fn check(&mut self, label: &str, round: &Round) {
        self.attempted += 1;
        let expected = *self.reference.get_or_insert(round.digest);
        let mut broken = round.failures.clone();
        if round.digest != expected {
            broken.push(format!(
                "digest {:016x}, expected {expected:016x}",
                round.digest
            ));
        }
        if !broken.is_empty() {
            self.failed += 1;
            self.fail(format!("{label}: {}", broken.join("; ")));
        }
    }

    /// Record a failed check that is not about one round's output.
    fn fail(&mut self, message: String) {
        if !self.failures.contains(&message) {
            self.failures.push(message);
        }
    }
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Run one workload through the whole protocol.
pub fn run(workload: Workload, options: Options) -> Report {
    let Options {
        seed,
        threads,
        scale,
        ..
    } = options;
    let mut checker = Checker {
        reference: (seed == REFERENCE_SEED && scale == Scale::Pinned)
            .then(|| workload.pinned_digest()),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut inputs = None;
    let mut warm = Round::default();
    for _ in 0..SETUP_REPS {
        // Free the previous inputs first, so peak memory holds one copy.
        drop(inputs.take());
        let start = Instant::now();
        let prepared = prepare(workload, scale, seed, threads, &NoopProbe);
        warm = round(&prepared, threads, &NoopProbe, Tm::Default);
        setup_s.push(secs(start));
        checker.check("warm-up", &warm);
        inputs = Some(prepared);
    }
    let inputs = inputs.expect("SETUP_REPS > 0");

    let mut round_s = Vec::new();
    let mut allocs = None;
    let start = Instant::now();
    while round_s.len() < MIN_ROUNDS || secs(start) < options.seconds {
        let (count0, bytes0) = alloc_counts();
        let t = Instant::now();
        let r = round(&inputs, threads, &NoopProbe, Tm::Default);
        round_s.push(secs(t));
        let (count1, bytes1) = alloc_counts();
        allocs.get_or_insert((count1 - count0, bytes1 - bytes0));
        checker.check("timed", &r);
    }
    let peak_rss_mb = peak_rss_bytes() as f64 / (1 << 20) as f64;

    let typical = median(&round_s);
    let end_to_end = vec![
        timed("setup_s", "s", median(&setup_s)),
        timed("round_s", "s", typical),
        timed(
            "rack_steps_per_s",
            "rack-steps/s",
            warm.rack_steps as f64 / typical,
        ),
        timed("peak_rss_mb", "MiB", peak_rss_mb),
    ];

    let per_layer = if options.trace {
        let (count, bytes) = allocs.unwrap_or_default();
        // Overheads compare fastest with fastest: the traced passes are
        // too few for a median.
        let fastest = min(&round_s);
        let mut layer = traced(workload, &inputs, options, fastest, &warm, &mut checker);
        layer.push(timed("mem.allocs_per_round", "count", count as f64));
        layer.push(timed(
            "mem.alloc_mb_per_round",
            "MiB",
            bytes as f64 / (1 << 20) as f64,
        ));
        layer
    } else {
        Vec::new()
    };

    Report {
        workload,
        options,
        digest: warm.digest,
        attempted: checker.attempted,
        failed: checker.failed,
        failures: checker.failures,
        setup_s,
        round_s,
        end_to_end,
        per_layer,
    }
}

/// Servers per rack and server samples of a generated fleet.
struct Shape {
    racks: usize,
    servers: u64,
    samples: u64,
}

impl Shape {
    fn of(fleet: &FleetTraces) -> Shape {
        let mut shape = Shape {
            racks: fleet.len(),
            servers: 0,
            samples: 0,
        };
        for (rack, _) in fleet.iter() {
            shape.servers += rack.servers.len() as u64;
            shape.samples += rack
                .servers
                .iter()
                .map(|s| s.power.len() as u64)
                .sum::<u64>();
        }
        shape
    }
}

/// Traced passes of each kind; a pass's time is the fastest pass, its
/// counts and worker times the mean over passes.
const TRACE_PASSES: u64 = 2;

/// Wall times of the traced passes of one kind.
struct Walls {
    fastest: f64,
    mean: f64,
}

/// Run [`TRACE_PASSES`] checked rounds into one probe.
fn probed(
    inputs: &Inputs,
    threads: usize,
    detail: Detail,
    label: &str,
    checker: &mut Checker,
) -> (Walls, ProbeSnapshot) {
    let probe = LayerProbe::new(detail);
    let mut walls = Vec::new();
    for _ in 0..TRACE_PASSES {
        let start = Instant::now();
        let r = round(inputs, threads, &probe, Tm::Default);
        walls.push(secs(start));
        checker.check(label, &r);
    }
    let walls = Walls {
        fastest: min(&walls),
        mean: walls.iter().sum::<f64>() / walls.len() as f64,
    };
    (walls, probe.snapshot().per_pass(TRACE_PASSES))
}

fn overhead_pct(slower: f64, base: f64) -> f64 {
    100.0 * (ratio(slower, base) - 1.0)
}

/// The cluster harness pass: each config alone at one thread with
/// telemetry on, which is the cluster workload's traced round.
struct Harness {
    run_s: BTreeMap<String, f64>,
    events: ProbeSnapshot,
    ns_per_request: f64,
}

fn harness_pass(
    runs: &[(String, ClusterConfig)],
    check_fig12: bool,
    checker: &mut Checker,
) -> Harness {
    let probe = LayerProbe::new(Detail::Coarse);
    let tm = Telemetry::with_sink(NullSink);
    let mut run_s = BTreeMap::new();
    let mut results = Vec::new();
    for (name, cfg) in runs {
        let start = Instant::now();
        results.extend(run_cluster_sims_probed(vec![cfg.clone()], &tm, 1, &probe));
        run_s.insert(name.clone(), secs(start));
    }
    checker.check("harness", &cluster_round(runs, &results, check_fig12));
    // Baseline has no control plane, so its cost prices the queueing sim.
    let baseline = SystemKind::Baseline.name();
    let completed: u64 = results
        .iter()
        .filter(|r| r.system == SystemKind::Baseline)
        .flat_map(|r| &r.instances)
        .map(|i| i.completed)
        .sum();
    let ns_per_request = ratio(
        run_s.get(baseline).copied().unwrap_or(0.0) * 1e9,
        completed as f64,
    );
    Harness {
        run_s,
        events: probe.snapshot(),
        ns_per_request,
    }
}

/// The traced passes and the per-layer metrics they give. A metric of a
/// layer the workload does not run reads 0.
fn traced(
    workload: Workload,
    inputs: &Inputs,
    options: Options,
    fastest: f64,
    warm: &Round,
    checker: &mut Checker,
) -> Vec<Metric> {
    let threads = options.threads;
    let (coarse_wall, coarse) = probed(inputs, threads, Detail::Coarse, "coarse", checker);
    let (fine_wall, fine) = probed(inputs, threads, Detail::Fine, "fine", checker);

    // Streamed, traces are generated and templates trained inside the
    // round; otherwise in set-up, which is probed here. Server counts are
    // known only from a generated fleet.
    let mut setup = ProbeSnapshot::default();
    let mut shape = None;
    match inputs {
        Inputs::Stream(config) => {
            shape = Some(Shape::of(&generate_fleet_probed(
                config, threads, &NoopProbe,
            )));
        }
        Inputs::Sweep { .. } | Inputs::Chaos { .. } => {
            let probe = LayerProbe::new(Detail::Coarse);
            for _ in 0..TRACE_PASSES {
                let prepared = prepare(workload, options.scale, options.seed, threads, &probe);
                if let Inputs::Sweep { fleet, .. } | Inputs::Chaos { fleet, .. } = &prepared {
                    shape = Some(Shape::of(fleet));
                }
            }
            setup = probe.snapshot().per_pass(TRACE_PASSES);
        }
        Inputs::Cluster { .. } => {}
    }
    let gen = if workload == Workload::FleetStream {
        &coarse
    } else {
        &setup
    };
    let train = if workload == Workload::PolicySweep {
        &setup
    } else {
        &coarse
    };
    let servers = shape.as_ref().map_or(0, |s| s.servers);
    let counted = |name: &str| warm.exact.get(name).copied().unwrap_or(0.0);

    let mut out = Vec::new();

    let gen_span = gen.span("shard/trace_gen");
    let gen_ms = gen_span.sample_ms();
    out.push(timed("traces.gen_worker_ms", "ms", gen_span.worker_ms()));
    out.push(timed(
        "traces.gen_ms_per_rack_p50",
        "ms",
        percentile(&gen_ms, 0.5),
    ));
    out.push(timed(
        "traces.gen_ms_per_rack_p75",
        "ms",
        percentile(&gen_ms, 0.75),
    ));
    let samples = shape.as_ref().map_or(0, |s| s.samples);
    out.push(timed(
        "traces.ns_per_server_sample",
        "ns",
        ratio(gen_span.ns as f64, samples as f64),
    ));
    out.push(exact("traces.racks", "count", gen_span.calls as f64));
    if let Some(shape) = &shape {
        if gen_span.calls != shape.racks as u64 {
            checker.fail(format!(
                "shard/trace_gen fired {} times for {} racks",
                gen_span.calls, shape.racks
            ));
        }
    }

    let train_span = train.span("rack/setup");
    let train_ms = train_span.sample_ms();
    out.push(timed(
        "predict.train_worker_ms",
        "ms",
        train_span.worker_ms(),
    ));
    out.push(timed(
        "predict.train_ms_per_rack_p50",
        "ms",
        percentile(&train_ms, 0.5),
    ));
    out.push(timed(
        "predict.train_ms_per_rack_p75",
        "ms",
        percentile(&train_ms, 0.75),
    ));
    out.push(exact("predict.templates", "count", 2.0 * servers as f64));

    // The engine is shard/sim, minus training where it nests inside.
    let is_engine = workload != Workload::Cluster;
    let engine_ns = |snap: &ProbeSnapshot| {
        let sim = snap.span("shard/sim").ns;
        let nested = if workload == Workload::FleetStream {
            snap.span("rack/setup").ns
        } else {
            0
        };
        if is_engine {
            sim.saturating_sub(nested) as f64
        } else {
            0.0
        }
    };
    let engine = engine_ns(&coarse);
    let rack_steps = if is_engine { warm.rack_steps } else { 0 };
    let server_steps = shape.as_ref().map_or(0.0, |s| {
        rack_steps as f64 * s.servers as f64 / s.racks.max(1) as f64
    });
    out.push(timed("engine.sim_worker_ms", "ms", engine / 1e6));
    out.push(timed(
        "engine.ns_per_server_step",
        "ns",
        ratio(engine, server_steps),
    ));
    out.push(timed(
        "engine.ns_per_rack_step",
        "ns",
        ratio(engine, rack_steps as f64),
    ));
    let admission = fine.span("rack/admission");
    let share = |ns: u64| ratio(ns as f64, engine_ns(&fine));
    out.push(timed(
        "engine.admission_share",
        "ratio",
        share(admission.ns),
    ));
    out.push(timed(
        "engine.aggregation_share",
        "ratio",
        share(fine.span("rack/aggregation").ns),
    ));
    out.push(exact("engine.rack_steps", "count", rack_steps as f64));
    if admission.calls != rack_steps {
        checker.fail(format!(
            "rack/admission fired {} times over {rack_steps} rack-steps",
            admission.calls
        ));
    }
    for p in PolicyKind::ALL {
        let name = format!("engine.grant_ratio.{}", p.name());
        out.push(exact(&name, "ratio", counted(&name)));
    }

    // A worker is busy inside its top-level spans (training nests inside
    // shard/sim when streamed, and runs beside it on chaos_binned).
    let mut busy = coarse.span("shard/trace_gen").ns + coarse.span("shard/sim").ns;
    if workload == Workload::ChaosBinned {
        busy += coarse.span("rack/setup").ns;
    }
    let capacity = threads as f64 * coarse_wall.mean * 1e9;
    out.push(timed(
        "shard.idle_pct",
        "%",
        100.0 * (1.0 - ratio(busy as f64, capacity)),
    ));
    out.push(timed(
        "shard.merge_ms",
        "ms",
        coarse.span("merge").worker_ms(),
    ));
    out.push(exact(
        "shard.merged_events",
        "count",
        coarse.counter("merged_events") as f64,
    ));

    let mut tm_overhead = 0.0;
    if workload == Workload::ChaosBinned {
        let mut off_s = f64::INFINITY;
        for _ in 0..TRACE_PASSES {
            let start = Instant::now();
            let off = round(inputs, threads, &NoopProbe, Tm::Off);
            off_s = off_s.min(secs(start));
            checker.check("telemetry-off", &off);
        }
        tm_overhead = overhead_pct(fastest, off_s);
    }
    let harness = match inputs {
        Inputs::Cluster { runs, check_fig12 } => Some(harness_pass(runs, *check_fig12, checker)),
        _ => None,
    };
    let events = harness
        .as_ref()
        .map_or(warm.events, |h| h.events.events.values().sum());
    out.push(exact("telemetry.events_per_round", "count", events as f64));
    out.push(timed("telemetry.overhead_pct", "%", tm_overhead));

    for name in [
        "reliability.bin_denied",
        "reliability.down_binned",
        "faults.restarts",
        "faults.stale_budget_steps",
    ] {
        out.push(exact(name, "count", counted(name)));
    }

    for (name, _) in cluster_configs(options.scale, options.seed) {
        let value = harness
            .as_ref()
            .and_then(|h| h.run_s.get(&name).copied())
            .unwrap_or(0.0);
        out.push(timed(format!("harness.run_s.{name}"), "s", value));
    }
    out.push(timed(
        "workloads.ns_per_request",
        "ns",
        harness.as_ref().map_or(0.0, |h| h.ns_per_request),
    ));
    for (name, component) in [
        ("core.wi_events", "wi"),
        ("core.soa_events", "soa"),
        ("core.goa_events", "goa"),
        ("harness.events", "harness"),
    ] {
        let n = harness.as_ref().map_or(0, |h| h.events.events(component));
        out.push(exact(name, "count", n as f64));
    }
    for (name, unit) in [
        ("core.oc_grant_ratio", "ratio"),
        ("workloads.completed_requests", "count"),
    ] {
        out.push(exact(name, unit, counted(name)));
    }

    out.push(timed(
        "probe.overhead_pct",
        "%",
        overhead_pct(coarse_wall.fastest, fastest),
    ));
    out.push(timed(
        "probe.fine_overhead_pct",
        "%",
        overhead_pct(fine_wall.fastest, fastest),
    ));
    out
}
