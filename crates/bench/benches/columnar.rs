//! Micro-benchmarks of the columnar rack hot path against its row-oriented
//! equivalents: batched power aggregation over `ServerSeriesView` columns
//! vs per-server `TimeSeries::value_at`, batched template lookup
//! (`TemplateSlot` + `predict_at`) vs per-server `predict`, and one full
//! rack simulation through the columnar engine vs the retained reference
//! engine (the admission scan dominates both).
//!
//! These are the kernels behind `soc-benchmark`'s `engine.*` per-layer
//! numbers; `tests/equivalence.rs` proves the fast variants byte-identical
//! to the naive ones, so the deltas measured here are pure speed.

use criterion::{criterion_group, criterion_main, Criterion};
use simcore::series::TimeSeries;
use simcore::time::{SimDuration, SimTime};
use smartoclock::policy::PolicyKind;
use soc_cluster::columns::fill_base_power;
use soc_cluster::largescale::{
    simulate_rack, simulate_rack_reference, train_rack, LargeScaleConfig,
};
use soc_cluster::shard::generate_fleet_probed;
use soc_cluster::NoopProbe;
use soc_predict::template::{PowerTemplate, TemplateKind, TemplateSlot};
use soc_telemetry::Telemetry;
use soc_traces::fleet::ServerSeriesView;
use std::hint::black_box;

const SERVERS: usize = 16;
const STEP: SimDuration = SimDuration::from_minutes(15);

fn server_series(seed: usize) -> TimeSeries {
    TimeSeries::generate(
        SimTime::ZERO,
        SimTime::ZERO + SimDuration::WEEK,
        STEP,
        |t| {
            250.0
                + 40.0 * (t.time_of_day().as_hours_f64() / 24.0 * std::f64::consts::TAU).sin()
                + seed as f64
        },
    )
}

fn bench_power_aggregation(c: &mut Criterion) {
    // One rack's worth of per-server power columns, plus the same data as
    // row-oriented TimeSeries for the naive variant.
    let series: Vec<TimeSeries> = (0..SERVERS).map(server_series).collect();
    let columns: Vec<Vec<f64>> = series
        .iter()
        .map(|s| s.iter().map(|(_, v)| v).collect())
        .collect();
    let views: Vec<ServerSeriesView<'_>> = columns
        .iter()
        .map(|p| ServerSeriesView {
            utilization: p,
            power: p,
            oc_demand_cores: p,
        })
        .collect();
    let t = SimTime::ZERO + SimDuration::from_days(3);
    let idx = series[0].index_at(t).expect("in range");

    c.bench_function("power_aggregation_columnar_16", |b| {
        let mut out = Vec::with_capacity(SERVERS);
        b.iter(|| black_box(fill_base_power(black_box(&views), black_box(idx), &mut out)))
    });
    c.bench_function("power_aggregation_naive_16", |b| {
        b.iter(|| {
            let mut total = 0.0;
            for s in &series {
                total += s.value_at(black_box(t)).unwrap_or(0.0);
            }
            black_box(total)
        })
    });
}

fn bench_template_lookup(c: &mut Criterion) {
    let templates: Vec<PowerTemplate> = (0..SERVERS)
        .map(|i| PowerTemplate::build(&server_series(i), TemplateKind::DailyMed))
        .collect();
    let t = SimTime::ZERO + SimDuration::from_days(9) + SimDuration::from_minutes(45);

    c.bench_function("template_lookup_batched_16", |b| {
        b.iter(|| {
            // The columnar engine computes the slot once per step and
            // reuses it across every server in the rack.
            let slot = TemplateSlot::at(black_box(t), STEP);
            let mut sum = 0.0;
            for tpl in &templates {
                sum += tpl.predict_at(slot);
            }
            black_box(sum)
        })
    });
    c.bench_function("template_lookup_naive_16", |b| {
        b.iter(|| {
            // The reference engine re-derives day/week slots per server.
            let mut sum = 0.0;
            for tpl in &templates {
                sum += tpl.predict(black_box(t));
            }
            black_box(sum)
        })
    });
}

fn bench_rack_simulation(c: &mut Criterion) {
    // One small rack end to end: the admission scan + aggregation dominate,
    // so this is the engine-level number behind the baseline's `speedup`.
    let mut cfg = LargeScaleConfig::small_test();
    cfg.racks = 1;
    let fleet = generate_fleet_probed(&cfg, 1, &NoopProbe);
    let (rack, model) = fleet.iter().next().expect("one rack");
    let trained = train_rack(&cfg, rack, model);
    let telemetry = Telemetry::disabled();

    c.bench_function("rack_sim_columnar", |b| {
        b.iter(|| {
            black_box(simulate_rack(
                &cfg,
                PolicyKind::SmartOClock,
                rack,
                model,
                &trained,
                &telemetry,
                &NoopProbe,
            ))
        })
    });
    c.bench_function("rack_sim_reference", |b| {
        b.iter(|| {
            black_box(simulate_rack_reference(
                &cfg,
                PolicyKind::SmartOClock,
                rack,
                model,
                &trained,
                &telemetry,
            ))
        })
    });
}

criterion_group!(
    benches,
    bench_power_aggregation,
    bench_template_lookup,
    bench_rack_simulation
);
criterion_main!(benches);
