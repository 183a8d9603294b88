//! Micro-benchmarks of the hot paths: the power model, the template
//! build/predict pipeline, and one sOA control tick.
//!
//! These are the operations the per-server agent performs continuously in
//! production; the paper stresses that an sOA "can start/stop overclocking
//! in order of a few milliseconds" (§IV-D) — the control tick below is
//! orders of magnitude under that bound.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use simcore::series::TimeSeries;
use simcore::time::{SimDuration, SimTime};
use smartoclock::config::SoaConfig;
use smartoclock::messages::OverclockRequest;
use smartoclock::policy::PolicyKind;
use smartoclock::soa::ServerOverclockAgent;
use soc_power::model::PowerModel;
use soc_power::units::{MegaHertz, Watts};
use soc_predict::template::{PowerTemplate, TemplateKind};
use std::hint::black_box;

fn bench_power_model(c: &mut Criterion) {
    let model = PowerModel::reference_server();
    let oc = model.plan().max_overclock();
    c.bench_function("power_model_server_power_mixed", |b| {
        b.iter(|| black_box(model.server_power_mixed(black_box(0.7), black_box(12), oc)))
    });
    c.bench_function("power_model_split_regular_overclock", |b| {
        let observed = model.server_power_mixed(0.7, 12, oc);
        b.iter(|| black_box(model.split_regular_overclock(observed, 12, oc)))
    });
}

fn week_history() -> TimeSeries {
    TimeSeries::generate(
        SimTime::ZERO,
        SimTime::ZERO + SimDuration::WEEK,
        SimDuration::from_minutes(5),
        |t| 200.0 + 50.0 * (t.time_of_day().as_hours_f64() / 24.0 * std::f64::consts::TAU).sin(),
    )
}

fn bench_templates(c: &mut Criterion) {
    let history = week_history();
    c.bench_function("template_build_dailymed_1week_5min", |b| {
        b.iter(|| black_box(PowerTemplate::build(&history, TemplateKind::DailyMed)))
    });
    let template = PowerTemplate::build(&history, TemplateKind::DailyMed);
    c.bench_function("template_predict", |b| {
        let t = SimTime::ZERO + SimDuration::from_days(9);
        b.iter(|| black_box(template.predict(black_box(t))))
    });
}

fn bench_soa_tick(c: &mut Criterion) {
    let model = PowerModel::reference_server();
    c.bench_function("soa_control_tick", |b| {
        b.iter_batched(
            || {
                let mut soa = ServerOverclockAgent::new(
                    model,
                    SoaConfig::reference(),
                    PolicyKind::SmartOClock,
                );
                soa.set_power_budget(Watts::new(450.0));
                soa.set_power_template(PowerTemplate::build(
                    &week_history(),
                    TemplateKind::DailyMed,
                ));
                let _ = soa
                    .request_overclock(
                        SimTime::ZERO,
                        OverclockRequest::metrics_based("vm", 8, MegaHertz::new(4000)),
                    )
                    .expect("grantable");
                soa
            },
            |mut soa| {
                for s in 1..20u64 {
                    black_box(soa.control_tick(SimTime::from_secs(s), Watts::new(300.0), None, 0));
                }
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, bench_power_model, bench_templates, bench_soa_tick);
criterion_main!(benches);
