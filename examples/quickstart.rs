//! Quickstart: the SmartOClock control loop on one server, in ~60 lines.
//!
//! Builds a Server Overclocking Agent, installs a power template and a
//! budget, submits a metrics-based overclocking request, and drives the
//! prioritized feedback loop — watching the frequency ramp, a rack warning
//! force a retreat, and a capping event reset exploration.
//!
//! Run with: `cargo run --release --example quickstart`

use simcore::series::TimeSeries;
use simcore::time::{SimDuration, SimTime};
use smartoclock::messages::OverclockRequest;
use smartoclock::policy::PolicyKind;
use smartoclock::soa::ServerOverclockAgent;
use soc_power::model::PowerModel;
use soc_power::rack::RackSignal;
use soc_power::units::{MegaHertz, Watts};
use soc_predict::template::{PowerTemplate, TemplateKind};

fn main() {
    // A 64-core reference server (100 W idle, ~400 W at full turbo load).
    let model = PowerModel::reference_server();
    let mut soa = ServerOverclockAgent::new(model, PolicyKind::SmartOClock);

    // The gOA assigned this server a 320 W budget from the rack split.
    soa.set_power_budget(Watts::new(320.0));

    // Its regular draw is predictable: ~250 W around the clock this week.
    let history = TimeSeries::generate(
        SimTime::ZERO,
        SimTime::ZERO + SimDuration::WEEK,
        SimDuration::from_minutes(5),
        |_| 250.0,
    );
    soa.set_power_template(PowerTemplate::build(&history, TemplateKind::DailyMed));

    // A VM asks to overclock 8 cores to 4.0 GHz.
    let request = OverclockRequest::metrics_based("vm-0", 8, MegaHertz::new(4000));
    let grant = soa
        .request_overclock(SimTime::ZERO, request)
        .expect("admission control accepts: 250W predicted + OC delta < 320W budget");
    println!(
        "granted {grant}; weekly overclocking budget: {}",
        soa.lifetime_remaining()
    );

    // Drive the control loop. The measured draw tracks the commanded
    // frequency loosely; we script a few phases to show the behaviour.
    let phases: &[(u64, f64, Option<RackSignal>, &str)] = &[
        (1, 260.0, None, "headroom: frequency steps up"),
        (2, 270.0, None, "still ramping"),
        (3, 280.0, None, "still ramping"),
        (4, 300.0, None, "hold band reached"),
        (
            5,
            318.0,
            None,
            "constrained below target: exploration begins",
        ),
        (
            6,
            330.0,
            Some(RackSignal::Warning),
            "rack warning: retreat + backoff",
        ),
        (7, 300.0, None, "backed off"),
        (
            8,
            335.0,
            Some(RackSignal::Capping),
            "capping event: reset to assigned budget",
        ),
    ];
    for &(sec, watts, signal, note) in phases {
        let now = SimTime::from_secs(sec);
        let events = soa.control_tick(now, Watts::new(watts), signal, 0);
        let freq = soa
            .grant(grant)
            .map(|g| g.current.to_string())
            .unwrap_or_else(|| "-".into());
        println!(
            "t={sec}s draw={watts:.0}W budget={} freq={} | {note}{}",
            soa.effective_budget(),
            freq,
            if events.is_empty() {
                String::new()
            } else {
                format!(" | events: {events:?}")
            },
        );
    }

    let stats = soa.stats();
    println!(
        "\nrequests={} granted={} warning-retreats={} capping-resets={}",
        stats.requests, stats.granted, stats.warning_retreats, stats.capping_resets
    );
}
