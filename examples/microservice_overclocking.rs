//! A latency-critical microservice riding out a load spike with
//! metrics-based overclocking.
//!
//! Couples the open-loop queueing simulator (`soc-workloads`) to a Workload
//! Intelligence agent and a Server Overclocking Agent: when the P99 tail
//! crosses the trigger threshold during the spike, the WI agent requests
//! overclocking, the sOA grants it, and the feedback loop ramps the VM from
//! 3.3 GHz toward 4.0 GHz — pulling the tail back under the SLO without
//! scaling out.
//!
//! Run with: `cargo run --release --example microservice_overclocking`

use simcore::series::TimeSeries;
use simcore::time::{SimDuration, SimTime};
use smartoclock::config::SoaConfig;
use smartoclock::messages::{OverclockRequest, SoaEvent};
use smartoclock::policy::PolicyKind;
use smartoclock::soa::ServerOverclockAgent;
use smartoclock::wi::{GlobalWiAgent, OverclockPolicy, VmMetrics};
use soc_power::model::PowerModel;
use soc_power::units::Watts;
use soc_predict::template::{PowerTemplate, TemplateKind};
use soc_workloads::loadgen::RateSchedule;
use soc_workloads::microservice::{MicroserviceSim, Traffic};
use soc_workloads::socialnet::socialnet_service;

fn main() {
    let model = PowerModel::reference_server();
    let plan = model.plan();
    let spec = socialnet_service("ComposePost").expect("catalog service");
    let slo = spec.slo_ms();

    // Steady 45% load with a 3-minute spike to 95% in the middle.
    let base = 0.45 * spec.capacity_per_vm(1.0);
    let spike = 0.95 * spec.capacity_per_vm(1.0);
    let schedule = RateSchedule::constant(base)
        .with_segment(SimTime::from_secs(180), spike)
        .with_segment(SimTime::from_secs(360), base);
    let mut traffic = Traffic::new(&spec, schedule, 42);
    let mut sim = MicroserviceSim::new(spec.clone(), plan.turbo(), 1);
    let mut latencies = Vec::new();

    // Workload Intelligence: overclock when P99 > 0.9·SLO, stop below 0.45·SLO.
    let mut wi = GlobalWiAgent::new(OverclockPolicy::latency(0.9 * slo, 0.45 * slo));

    // The server agent with a generous budget and a flat template.
    let mut soa = ServerOverclockAgent::new(model, SoaConfig::reference(), PolicyKind::SmartOClock);
    soa.set_power_budget(Watts::new(400.0));
    let history = TimeSeries::generate(
        SimTime::ZERO,
        SimTime::ZERO + SimDuration::WEEK,
        SimDuration::from_minutes(5),
        |_| 220.0,
    );
    soa.set_power_template(PowerTemplate::build(&history, TemplateKind::DailyMed));

    println!("SLO = {slo:.0} ms; spike from t=180s to t=360s\n");
    println!(
        "{:>4}  {:>9} {:>8} {:>9} {:>11}",
        "t(s)", "P99(ms)", "util", "freq", "overclock?"
    );
    let mut grant = None;
    for window in 1..=36u64 {
        let now = SimTime::from_secs(window * 15);
        let stats = sim.advance_window(now, traffic.fill(now), &mut latencies);
        traffic.release(sim.total_arrivals());
        wi.report(vec![VmMetrics {
            tail_latency_ms: stats.p99_ms,
            cpu_utilization: stats.cpu_utilization,
            queue_length: sim.in_system() as f64,
        }]);
        let decision = wi.decide(now);
        match (decision.overclock, grant) {
            (true, None) => {
                let req = OverclockRequest::metrics_based(
                    "compose-post",
                    spec.cores_per_vm,
                    plan.max_overclock(),
                );
                match soa.request_overclock(now, req) {
                    Ok(id) => grant = Some(id),
                    Err(reason) => println!("      request rejected: {reason}"),
                }
            }
            (false, Some(id)) => {
                soa.end_overclock(now, id);
                sim.set_all_frequencies(plan.turbo());
                grant = None;
            }
            _ => {}
        }
        // Feedback loop: measured power tracks utilization and frequency.
        let freq = grant
            .and_then(|id| soa.grant(id))
            .map_or(plan.turbo(), |g| g.current);
        let measured = model.server_power_uniform(stats.cpu_utilization, freq);
        for event in soa.control_tick(now, measured, None, 0) {
            if let SoaEvent::SetFrequency { frequency, .. } = event {
                sim.set_all_frequencies(frequency);
            }
        }
        let freq = grant
            .and_then(|id| soa.grant(id))
            .map_or(plan.turbo(), |g| g.current);
        println!(
            "{:>4}  {:>9.1} {:>8.2} {:>9} {:>11}",
            now.as_secs_f64(),
            stats.p99_ms,
            stats.cpu_utilization,
            freq.to_string(),
            if grant.is_some() { "yes" } else { "" },
        );
    }
    println!(
        "\nThe spike drives P99 past {:.0} ms at turbo; overclocking to 4.0 GHz \
         absorbs it without adding a VM, and the grant is released when the \
         tail falls back below {:.0} ms.",
        0.9 * slo,
        0.45 * slo
    );
}
