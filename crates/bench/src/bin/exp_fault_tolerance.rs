//! Fault-tolerance experiment: decentralized SmartOClock vs a centralized
//! controller under escalating gOA outages (§IV's decentralization
//! rationale, exercised with the deterministic fault layer).
//!
//! Each scenario injects two gOA outage windows of the given length into
//! the large-scale trace-driven simulation and compares three systems:
//!
//! * **SmartOClock** — sOAs keep enforcing their last-known budgets locally
//!   while the gOA is unreachable (stale budgets, full enforcement).
//! * **Central (fail-stop)** — the centralized controller denies every
//!   request it cannot arbitrate, forfeiting overclock uptime.
//! * **Central (fail-open)** — the centralized controller keeps prior
//!   grants running without enforcement, risking power-budget violations.
//!
//! Reported per scenario: power-budget violation steps, steps on stale
//! budgets, request success rate, and overclock uptime retained relative to
//! the same system's zero-outage run. The headline claim: SmartOClock
//! sustains overclocking through outages with **zero** violations, while
//! the centralized baseline either violates the budget (fail-open) or
//! forfeits materially more overclock uptime (fail-stop).

use simcore::report::{fmt_f64, fmt_pct, Table};
use simcore::time::SimDuration;
use smartoclock::policy::PolicyKind;
use soc_bench::{write_artifact, Cli, Output};
use soc_cluster::largescale::LargeScaleConfig;
use soc_cluster::largescale_metrics::PolicyMetrics;
use soc_cluster::shard::{generate_fleet_probed, simulate_policy_on_traces_probed};
use std::process::ExitCode;

struct Variant {
    name: &'static str,
    policy: PolicyKind,
    fail_open: bool,
}

const VARIANTS: [Variant; 3] = [
    Variant {
        name: "SmartOClock",
        policy: PolicyKind::SmartOClock,
        fail_open: false,
    },
    Variant {
        name: "Central (fail-stop)",
        policy: PolicyKind::Central,
        fail_open: false,
    },
    Variant {
        name: "Central (fail-open)",
        policy: PolicyKind::Central,
        fail_open: true,
    },
];

fn main() -> ExitCode {
    let cli = Cli::from_env(&[Output::Trace, Output::ResultFile]);
    let racks = if cli.fast { 8 } else { 24 };
    let mut base = LargeScaleConfig::bench_reference(racks);
    base.seed = cli.seed;
    if cli.fast {
        base.weeks = 2;
        base.step = SimDuration::from_minutes(15);
    }
    let outages: [(&str, SimDuration); 4] = [
        ("none", SimDuration::ZERO),
        ("30m", SimDuration::from_minutes(30)),
        ("2h", SimDuration::from_hours(2)),
        ("8h", SimDuration::from_hours(8)),
    ];
    let obs = cli.observer("exp_fault_tolerance");
    let threads = cli.effective_threads();

    // Traces depend only on the fleet shape and seed — not on the fault
    // plan or fail-open mode — so generate them once and share them across
    // every scenario × variant cell. Templates are trained per run inside
    // `simulate_policy_on_traces_probed` because the fault layer can bias
    // predictions (not varied here, but per-run training keeps the cells
    // independent of each other by construction).
    eprintln!("generating {racks} rack traces once ({threads} threads)...");
    let fleet = generate_fleet_probed(&base, threads, &obs);

    let mut t = Table::new(&[
        "outage",
        "system",
        "violations",
        "stale steps",
        "success",
        "granted",
        "oc uptime",
    ]);
    let mut rows = String::new();
    // Per-variant granted count at zero outage, anchoring uptime-retained.
    let mut granted_at_zero = [0u64; VARIANTS.len()];
    for (label, len) in &outages {
        for (v, variant) in VARIANTS.iter().enumerate() {
            let mut config = base.clone();
            config.central_fail_open = variant.fail_open;
            config.faults.seed = cli.seed;
            config.faults.goa_outages = if len.is_zero() { 0 } else { 2 };
            config.faults.goa_outage_len = *len;
            eprintln!(
                "simulating {} at outage={label} over {racks} racks ({threads} threads)...",
                variant.name
            );
            let outcomes = simulate_policy_on_traces_probed(
                &config,
                variant.policy,
                &fleet,
                &obs.telemetry,
                threads,
                &obs,
            );
            let m = PolicyMetrics::aggregate(variant.policy, &outcomes);
            if len.is_zero() {
                granted_at_zero[v] = m.granted;
            }
            let uptime = m.granted as f64 / granted_at_zero[v].max(1) as f64;
            t.row(&[
                label.to_string(),
                variant.name.to_string(),
                m.violation_steps.to_string(),
                m.stale_budget_steps.to_string(),
                fmt_pct(m.success_rate),
                m.granted.to_string(),
                fmt_f64(uptime, 3),
            ]);
            if !rows.is_empty() {
                rows.push_str(",\n");
            }
            rows.push_str(&format!(
                "    {{\"outage\": \"{label}\", \"system\": \"{}\", \
                 \"violation_steps\": {}, \"stale_budget_steps\": {}, \
                 \"success_rate\": {:.6}, \"granted\": {}, \
                 \"oc_uptime_retained\": {uptime:.6}}}",
                variant.name, m.violation_steps, m.stale_budget_steps, m.success_rate, m.granted,
            ));
        }
    }
    cli.emit(
        &format!("Fault tolerance: gOA outages over {racks} racks"),
        &t,
    );
    println!(
        "headline: SmartOClock holds zero budget violations through every outage; \
         the centralized baseline either violates the budget (fail-open) or \
         forfeits overclock uptime (fail-stop)."
    );

    let json = format!(
        "{{\n  \"experiment\": \"exp_fault_tolerance\",\n  \"racks\": {racks},\n  \
         \"weeks\": {},\n  \"seed\": {},\n  \"rows\": [\n{rows}\n  ]\n}}\n",
        base.weeks, cli.seed,
    );
    let out = cli
        .out
        .clone()
        .unwrap_or_else(|| "exp_fault_tolerance.json".into());
    write_artifact(&out, &json, "result file");
    cli.finish(&obs)
}
