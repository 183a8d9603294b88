//! Frequency-binning experiment: per-part silicon heterogeneity under a
//! sweep of bin counts × admission risk budgets (the silicon lottery the
//! paper's §VI reliability discussion motivates).
//!
//! Each cell realizes the fleet's silicon from the shared binning seed,
//! runs the SmartOClock policy over the same pre-generated traces, and
//! reports:
//!
//! * **certified fraction** — the mean per-part overclock fraction the risk
//!   budget certifies (a pure function of the silicon draw; monotone
//!   non-increasing as the budget tightens).
//! * **oc uptime** — grants retained relative to the same bin count at the
//!   loosest budget (the simulated frontier).
//! * **bin denials / down-bins** — parts shut out of overclocking entirely
//!   vs parts granted a lower-than-requested level.
//! * **wear (days)** — fleet wear-budget consumption at the part-scaled
//!   ageing rates; marginal silicon ages faster for the same uptime.
//!
//! The headline: tightening the risk budget trades overclock uptime for
//! wear-budget headroom along a monotone frontier, while the single-bin
//! (uniform) configuration is byte-identical to a build without binning.

use simcore::faults::FaultPlan;
use simcore::report::{fmt_f64, Table};
use simcore::time::SimDuration;
use smartoclock::policy::PolicyKind;
use soc_bench::{Cli, Output};
use soc_cluster::largescale::LargeScaleConfig;
use soc_cluster::largescale_metrics::PolicyMetrics;
use soc_cluster::shard::{generate_fleet_probed, simulate_policy_on_traces_probed, FleetTraces};
use soc_cluster::NoopProbe;
use soc_reliability::binning::BinningConfig;

const BIN_COUNTS: [u32; 3] = [1, 4, 8];
const RISK_BUDGETS: [f64; 4] = [1.0, 0.5, 0.25, 0.1];

fn main() {
    let cli = Cli::from_env(&[Output::Trace, Output::ResultFile]);
    let out = cli.out_or("exp_binning.json");
    let racks = if cli.fast { 8 } else { 24 };
    let mut base = LargeScaleConfig::bench_reference(racks);
    base.seed = cli.seed;
    if cli.fast {
        base.weeks = 2;
        base.step = SimDuration::from_minutes(15);
    }
    let telemetry = cli.telemetry();
    let threads = cli.effective_threads();

    // Traces depend only on the fleet shape and seed — never on the silicon
    // draw — so generate them once and share them across every cell.
    eprintln!("generating {racks} rack traces once ({threads} threads)...");
    let fleet = generate_fleet_probed(&base, threads, &NoopProbe);

    let mut t = Table::new(&[
        "bins",
        "risk budget",
        "certified",
        "granted",
        "oc uptime",
        "bin denied",
        "down-binned",
        "wear (days)",
        "violations",
    ]);
    let mut rows = String::new();
    for &bins in &BIN_COUNTS {
        // Grants at the loosest budget anchor this bin count's frontier.
        let mut granted_at_loosest = 0u64;
        for &risk_budget in &RISK_BUDGETS {
            let mut config = base.clone();
            config.binning = BinningConfig {
                bins,
                risk_budget,
                wear_spread: if bins > 1 { 0.3 } else { 0.0 },
                seed: cli.seed,
            };
            eprintln!(
                "simulating bins={bins} risk_budget={risk_budget} over {racks} racks \
                 ({threads} threads)..."
            );
            let outcomes = simulate_policy_on_traces_probed(
                &config,
                PolicyKind::SmartOClock,
                &fleet,
                &telemetry,
                threads,
                &NoopProbe,
            );
            let m = PolicyMetrics::aggregate(PolicyKind::SmartOClock, &outcomes);
            let certified = certified_fraction(&fleet, &config.binning);
            if (risk_budget - RISK_BUDGETS[0]).abs() < f64::EPSILON {
                granted_at_loosest = m.granted;
            }
            let uptime = m.granted as f64 / granted_at_loosest.max(1) as f64;
            t.row(&[
                bins.to_string(),
                fmt_f64(risk_budget, 2),
                fmt_f64(certified, 3),
                m.granted.to_string(),
                fmt_f64(uptime, 3),
                m.bin_denied.to_string(),
                m.down_binned.to_string(),
                fmt_f64(m.wear_days, 1),
                m.violation_steps.to_string(),
            ]);
            if !rows.is_empty() {
                rows.push_str(",\n");
            }
            rows.push_str(&format!(
                "    {{\"bins\": {bins}, \"risk_budget\": {risk_budget:.2}, \
                 \"certified_oc_fraction\": {certified:.6}, \"granted\": {}, \
                 \"oc_uptime_retained\": {uptime:.6}, \"bin_denied\": {}, \
                 \"down_binned\": {}, \"wear_days\": {:.6}, \
                 \"violation_steps\": {}}}",
                m.granted, m.bin_denied, m.down_binned, m.wear_days, m.violation_steps,
            ));
        }
    }
    cli.emit(
        &format!("Frequency binning: bins x risk budget over {racks} racks"),
        &t,
    );
    println!(
        "headline: tightening the per-part risk budget trades overclock uptime \
         for wear-budget headroom along a monotone frontier; the single-bin \
         fleet is byte-identical to a build without binning."
    );

    let json = format!(
        "{{\n  \"experiment\": \"exp_binning\",\n  \"racks\": {racks},\n  \
         \"weeks\": {},\n  \"seed\": {},\n  \"rows\": [\n{rows}\n  ]\n}}\n",
        base.weeks, cli.seed,
    );
    match std::fs::write(&out, &json) {
        Ok(()) => eprintln!("wrote {}", out.display()),
        Err(e) => eprintln!("warning: failed to write {}: {e}", out.display()),
    }
    cli.finish("exp_binning", &telemetry);
}

/// Mean certified overclock fraction across every part in the fleet: the
/// admitted frequency's position in the turbo→max-overclock span (0 for a
/// bin-denied part). A pure function of the silicon draw, monotone
/// non-increasing as the risk budget tightens.
fn certified_fraction(fleet: &FleetTraces, binning: &BinningConfig) -> f64 {
    let mut certified = 0.0;
    let mut parts = 0u64;
    for (rack, model) in fleet.iter() {
        let plan = model.plan();
        let span = plan.max_overclock().saturating_sub(plan.turbo());
        if span.get() == 0 {
            continue;
        }
        for s in 0..rack.servers.len() {
            let part = binning.part(&plan, FaultPlan::entity_id(rack.index, s));
            certified += part
                .admit(&plan, binning.risk_budget, plan.max_overclock())
                .map_or(0.0, |f| f.saturating_sub(plan.turbo()).ratio(span));
            parts += 1;
        }
    }
    certified / parts.max(1) as f64
}
