//! Cross-crate integration: synthetic traces → power templates → sOA
//! admission control, the full prediction pipeline of §IV-B.

use simcore::stats::Ecdf;
use simcore::time::{SimDuration, SimTime};
use smartoclock::goa::{GlobalOverclockAgent, ServerProfile};
use smartoclock::messages::{OverclockRequest, SoaEvent};
use smartoclock::policy::PolicyKind;
use smartoclock::soa::ServerOverclockAgent;
use soc_power::rack::RackMonitor;
use soc_power::units::Watts;
use soc_predict::eval::{template_at, walk_forward};
use soc_predict::template::{PowerTemplate, TemplateKind};
use soc_traces::gen::{FleetConfig, TraceGenerator};

fn two_week_config() -> FleetConfig {
    let mut cfg = FleetConfig::small_test();
    cfg.span = SimDuration::WEEK * 2;
    cfg
}

#[test]
fn generated_racks_are_predictable_with_dailymed() {
    // The Q3 property end-to-end: templates built on generated traces have
    // low relative RMSE.
    let fleet = TraceGenerator::new(3).generate(&two_week_config());
    let mut rel_errors = Vec::new();
    for rack in &fleet.racks {
        let report = walk_forward(&rack.power, TemplateKind::DailyMed);
        rel_errors.push(report.rmse / rack.power.mean());
    }
    let cdf = Ecdf::from_samples(&rel_errors);
    assert!(
        cdf.quantile(0.5) < 0.10,
        "median relative RMSE {} should be below 10%",
        cdf.quantile(0.5)
    );
}

#[test]
fn dailymed_outperforms_flat_templates_on_generated_traces() {
    let fleet = TraceGenerator::new(4).generate(&two_week_config());
    let rack = &fleet.racks[0];
    let daily = walk_forward(&rack.power, TemplateKind::DailyMed).rmse;
    let flat_max = walk_forward(&rack.power, TemplateKind::FlatMax).rmse;
    assert!(
        daily < flat_max,
        "DailyMed {daily} must beat FlatMax {flat_max}"
    );
}

#[test]
fn soa_admission_uses_trace_built_template() {
    // Build a server template from a generated trace and verify admission
    // respects the predicted draw at different times of day.
    let generator = TraceGenerator::new(5);
    let fleet = generator.generate(&two_week_config());
    let rack = &fleet.racks[0];
    let server = &rack.servers[0];
    let model = generator.model_for(rack.generation);

    let now = SimTime::ZERO + SimDuration::WEEK;
    let template = template_at(&server.power, now, TemplateKind::DailyMed);

    let mut soa = ServerOverclockAgent::new(model, PolicyKind::SmartOClock);
    soa.set_power_template(template.clone());

    // Find the peak and trough of the template's weekday profile.
    let mut peak_t = now;
    let mut trough_t = now;
    let (mut peak, mut trough) = (f64::MIN, f64::MAX);
    for h in 0..24 {
        let t = now + SimDuration::from_hours(h);
        let p = template.predict(t);
        if p > peak {
            peak = p;
            peak_t = t;
        }
        if p < trough {
            trough = p;
            trough_t = t;
        }
    }
    assert!(peak > trough, "template must have diurnal structure");

    // Budget between trough+delta and peak+delta: the same request is
    // admitted at the trough but rejected at the peak.
    let cores = 16;
    let target = model.plan().max_overclock();
    let delta = model.overclock_delta(0.9, cores, target);
    soa.set_power_budget(Watts::new((peak + trough) / 2.0) + delta);

    let req = OverclockRequest::metrics_based("vm", cores, target);
    let at_trough = soa.request_overclock(trough_t, req.clone());
    assert!(at_trough.is_ok(), "trough-time request should be admitted");
    let id = at_trough.unwrap();
    soa.end_overclock(trough_t, id);
    let at_peak = soa.request_overclock(peak_t, req);
    assert!(at_peak.is_err(), "peak-time request should be rejected");
}

#[test]
fn fleet_statistics_are_region_independent_in_shape() {
    // Different regions get different streams but the same structural
    // properties (used by the Fig. 8 four-region comparison).
    for region in ["r1", "r2"] {
        let mut cfg = two_week_config();
        cfg.region = region.into();
        let fleet = TraceGenerator::new(6).generate(&cfg);
        for rack in &fleet.racks {
            let u = rack.mean_utilization();
            assert!(u > 0.1 && u < 1.0, "region {region} rack utilization {u}");
        }
    }
}

#[test]
fn goa_budgets_from_generated_traces_drive_admission_and_feedback() {
    // Generate a rack, build per-server profiles, compute heterogeneous gOA
    // budgets, and drive one simulated hour of per-server agents with the
    // rack monitor's signals — the whole weekly-exchange-then-local-control
    // path of §IV-C/§IV-D.
    let mut cfg = FleetConfig::small_test();
    cfg.servers_per_rack_min = 4;
    cfg.servers_per_rack_max = 4;
    let generator = TraceGenerator::new(17);
    let rack = generator.generate_rack(&cfg, 0);
    let model = generator.model_for(rack.generation);
    let oc_freq = model.plan().max_overclock();

    let profiles: Vec<ServerProfile> = rack
        .servers
        .iter()
        .map(|s| ServerProfile::from_history(&s.power, &s.oc_demand_cores, &model, oc_freq, 0.9))
        .collect();
    let goa = GlobalOverclockAgent::new(rack.limit, PolicyKind::SmartOClock);

    // Push budgets and templates, as the weekly exchange would.
    let now = SimTime::ZERO + SimDuration::WEEK;
    let budgets = goa.budgets_at(now, &profiles);
    let mut agents: Vec<ServerOverclockAgent> = budgets
        .iter()
        .zip(&rack.servers)
        .map(|(&budget, server)| {
            let mut soa = ServerOverclockAgent::new(model, PolicyKind::SmartOClock);
            soa.set_power_budget(budget);
            soa.set_power_template(PowerTemplate::build(&server.power, TemplateKind::DailyMed));
            soa
        })
        .collect();

    // Drive one hour of 30-second ticks with rack-level signals.
    let mut monitor = RackMonitor::new(rack.limit, 0.95);
    let (mut granted, mut rejected) = (0usize, 0usize);
    let mut events = Vec::new();
    for k in 0..120u64 {
        let t = now + SimDuration::from_secs(30 * k);
        // Each server with trace demand submits a request once.
        if k == 2 {
            for (i, (soa, server)) in agents.iter_mut().zip(&rack.servers).enumerate() {
                let cores = server.oc_demand_cores.max().max(2.0) as usize;
                let req =
                    OverclockRequest::metrics_based(format!("srv{i}-vm"), cores.min(8), oc_freq);
                match soa.request_overclock(t, req) {
                    Ok(_) => granted += 1,
                    Err(_) => rejected += 1,
                }
            }
        }
        let measured: Vec<Watts> = rack
            .servers
            .iter()
            .map(|s| Watts::new(s.power.value_at(t).unwrap_or(0.0)))
            .collect();
        let signal = monitor.observe(measured.iter().copied().sum());
        for (soa, &power) in agents.iter_mut().zip(&measured) {
            events.extend(soa.control_tick(t, power, Some(signal), 0));
        }
    }

    assert_eq!(granted + rejected, rack.servers.len());
    assert!(
        granted > 0,
        "budgets from real traces should admit some requests"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, SoaEvent::SetFrequency { .. })),
        "the feedback loop should have produced frequency commands"
    );
    let total_requests: u64 = agents.iter().map(|a| a.stats().requests).sum();
    assert_eq!(total_requests as usize, granted + rejected);
    // Baseline traces stay below the limit, so no capping resets occurred.
    let capping_resets: u64 = agents.iter().map(|a| a.stats().capping_resets).sum();
    assert!(monitor.capping_events() == 0 || capping_resets > 0);
}
