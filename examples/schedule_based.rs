//! Schedule-based overclocking with budget reservations and threshold
//! inference.
//!
//! A workload with a predictable 9–10 AM peak (§IV-A "workloads that have
//! predictable times for high traffic … can use schedule-based thresholds")
//! reserves its overclocking budget in advance, guaranteeing a predictable
//! experience; the example also shows §IV-A's threshold inference deriving
//! a metrics-based trigger from a week of latency history.
//!
//! Run with: `cargo run --release --example schedule_based`

use simcore::rng::Pcg32;
use simcore::series::TimeSeries;
use simcore::time::{SimDuration, SimTime};
use smartoclock::infer::{expected_duty_cycle, infer_trigger, InferenceConfig};
use smartoclock::messages::OverclockRequest;
use smartoclock::policy::PolicyKind;
use smartoclock::soa::ServerOverclockAgent;
use smartoclock::wi::{GlobalWiAgent, MetricKind, OverclockPolicy, ScheduleWindow};
use soc_power::model::PowerModel;
use soc_power::units::Watts;
use soc_predict::template::{PowerTemplate, TemplateKind};

fn main() {
    let model = PowerModel::reference_server();
    let plan = model.plan();

    // --- Part 1: schedule-based reservation. ---
    println!("--- schedule-based overclocking (9-10 AM weekdays) ---");
    let policy = OverclockPolicy::scheduled(vec![ScheduleWindow::new(9.0, 10.0, false)]);
    let mut wi = GlobalWiAgent::new(policy);

    let mut soa = ServerOverclockAgent::new(model, PolicyKind::SmartOClock);
    soa.set_power_budget(Watts::new(400.0));
    let history = TimeSeries::generate(
        SimTime::ZERO,
        SimTime::ZERO + SimDuration::WEEK,
        SimDuration::from_minutes(5),
        |_| 220.0,
    );
    soa.set_power_template(PowerTemplate::build(&history, TemplateKind::DailyMed));

    // Monday 8:55 — the WI agent knows the peak is coming and reserves one
    // hour of budget for the scheduled window.
    let pre_peak = SimTime::ZERO + SimDuration::from_hours(8) + SimDuration::from_minutes(55);
    println!("budget before reservation: {}", soa.lifetime_remaining());
    let request =
        OverclockRequest::scheduled("frontend", 16, plan.max_overclock(), SimDuration::HOUR);
    let grant = soa
        .request_overclock(pre_peak, request)
        .expect("reservation fits the budget");
    println!(
        "reserved 1h at {} for grant {grant}; unreserved budget now {}",
        plan.max_overclock(),
        soa.lifetime_remaining()
    );

    // During the window the schedule keeps the WI decision on; after 10 AM
    // the sOA expires the grant on its own.
    for (h, m) in [(9u64, 0u64), (9, 30), (10, 1)] {
        let t = SimTime::ZERO + SimDuration::from_hours(h) + SimDuration::from_minutes(m);
        let decision = wi.decide(t);
        let events = soa.control_tick(t, Watts::new(300.0), None, 0);
        println!(
            "{:02}:{:02} schedule-wants-overclock={} active-grants={}{}",
            h,
            m,
            decision.overclock,
            soa.grants().count(),
            if events.is_empty() {
                String::new()
            } else {
                format!(" events={events:?}")
            },
        );
    }

    // --- Part 2: threshold inference (§IV-A). ---
    println!("\n--- inferred metrics-based thresholds ---");
    let mut rng = Pcg32::seed_from_u64(11);
    let mut latency_history = Vec::new();
    for _day in 0..7 {
        for slot in 0..288 {
            let hour = slot as f64 / 12.0;
            let base = if (9.0..11.4).contains(&hour) {
                105.0
            } else {
                55.0
            };
            latency_history.push(base + rng.sample_normal(0.0, 3.0));
        }
    }
    let cfg = InferenceConfig::reference();
    let trigger = match infer_trigger(MetricKind::TailLatencyMs, &latency_history, cfg) {
        Ok(trigger) => trigger,
        Err(e) => {
            eprintln!("cannot infer thresholds: {e}");
            return;
        }
    };
    let duty = expected_duty_cycle(&latency_history, trigger);
    println!(
        "history of {} samples -> scale-up {:.1} ms, scale-down {:.1} ms",
        latency_history.len(),
        trigger.scale_up,
        trigger.scale_down
    );
    println!(
        "that trigger would have overclocked {:.1}% of the time (budget: {:.0}%)",
        duty * 100.0,
        cfg.overclock_time_fraction * 100.0
    );
}
