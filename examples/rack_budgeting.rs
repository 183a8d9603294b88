//! Heterogeneous power budgeting across a rack, end to end.
//!
//! Generates a synthetic rack trace, builds per-server power and demand
//! templates from the first week (exactly what the sOAs exchange with the
//! gOA, §IV-C), and prints the heterogeneous budget split at three times of
//! day against the even split — showing how servers with more overclocking
//! demand receive larger budgets without exceeding the rack limit.
//!
//! Run with: `cargo run --release --example rack_budgeting`

use simcore::time::{SimDuration, SimTime};
use smartoclock::goa::{GlobalOverclockAgent, ServerProfile};
use smartoclock::policy::PolicyKind;
use soc_power::hierarchy::DemandProfile;
use soc_traces::gen::{FleetConfig, TraceGenerator};

fn main() {
    let mut cfg = FleetConfig::small_test();
    cfg.servers_per_rack_min = 6;
    cfg.servers_per_rack_max = 6;
    cfg.span = SimDuration::WEEK;
    let generator = TraceGenerator::new(7);
    let rack = generator.generate_rack(&cfg, 0);
    let model = &generator.model_for(rack.generation);
    let oc_freq = model.plan().max_overclock();

    // Build the profiles the sOAs would exchange with the gOA.
    let end = SimTime::ZERO + cfg.span;
    let profiles: Vec<ServerProfile> = rack
        .servers
        .iter()
        .map(|s| {
            ServerProfile::from_history(
                &s.power_series(SimTime::ZERO, end),
                &s.oc_demand_series(SimTime::ZERO, end),
                model,
                oc_freq,
                0.9,
            )
        })
        .collect();

    let goa = GlobalOverclockAgent::new(rack.limit, PolicyKind::SmartOClock);
    let even = rack.limit / profiles.len() as f64;

    println!(
        "rack limit: {} across {} servers (even share {even})\n",
        rack.limit,
        profiles.len()
    );
    for hour in [3u64, 11, 20] {
        // Predict for the Tuesday after the training week.
        let t = SimTime::ZERO + SimDuration::from_days(8) + SimDuration::from_hours(hour);
        let demands: Vec<DemandProfile> = profiles.iter().map(|p| p.demand_at(t)).collect();
        let mut budgets = Vec::new();
        goa.budgets_for(&demands, &mut budgets);
        println!("{:02}:00 —", hour);
        for (i, (b, p)) in budgets.iter().zip(&profiles).enumerate() {
            let d = p.demand_at(t);
            println!(
                "  server {i}: regular {:>7}, OC demand {:>6} -> budget {:>7} ({:+.0}W vs even)",
                d.regular,
                d.overclock_demand,
                b,
                b.get() - even.get(),
            );
        }
        let total: f64 = budgets.iter().map(|b| b.get()).sum();
        assert!(
            (total - rack.limit.get()).abs() < 1e-6,
            "split must conserve the limit"
        );
        println!("  (sum = {:.0}W = rack limit)\n", total);
    }
    println!(
        "Servers whose history shows more overclocking demand receive a larger \
         share of the headroom — the §IV-C split — while the total never \
         exceeds the rack limit."
    );
}
