//! Table I: comparison of SmartOClock to the baseline policies over the
//! trace-driven large-scale simulation (§V-B).
//!
//! Columns, per High/Medium/Low-power cluster group: number of power-capping
//! events normalized to Central, overclocking-request success rate, capping
//! penalty on non-overclocked VMs, and normalized performance over the
//! non-overclocked baseline.
//!
//! Paper headlines: NaiveOClock caps 118.6×/36.6×/14.0× more than Central;
//! SmartOClock is within 4 %/3 %/1 % of Central's success rate and reduces
//! events by ~19× vs NaiveOClock in high-power clusters.

use simcore::report::{fmt_f64, fmt_pct, Table};
use smartoclock::policy::PolicyKind;
use soc_bench::probe::ProfProbe;
use soc_bench::{Cli, Output};
use soc_cluster::largescale::LargeScaleConfig;
use soc_cluster::largescale_metrics::{power_groups, PolicyMetrics, RackOutcome};
use soc_cluster::shard::{
    generate_fleet_probed, simulate_policy_prepared_probed, train_fleet_probed,
};
use std::collections::HashMap;
use std::time::Instant;

fn main() {
    let cli = Cli::from_env(&[Output::Trace, Output::Profile]);
    let prof = cli.profiler("table1_policies");
    let racks = if cli.fast { 12 } else { 60 };
    let mut config = LargeScaleConfig::bench_reference(racks);
    config.seed = cli.seed;
    if cli.fast {
        config.weeks = 2;
        config.step = simcore::time::SimDuration::from_minutes(15);
    }

    // Run every policy over the same fleet, racks sharded across workers.
    // Traces are generated and templates trained exactly once, then shared
    // by all five policy runs — the per-policy loop times simulation only.
    let telemetry = cli.telemetry();
    let threads = cli.effective_threads();
    let probe = ProfProbe::new(prof.clone());
    prof.set_meta("racks", racks);
    eprintln!("generating {racks} rack traces once ({threads} threads)...");
    let fleet = generate_fleet_probed(&config, threads, &probe);
    let trained = train_fleet_probed(&config, &fleet, threads, &probe);
    let mut outcomes: HashMap<PolicyKind, Vec<RackOutcome>> = HashMap::new();
    for policy in PolicyKind::ALL {
        eprintln!("simulating {policy} over {racks} racks ({threads} threads)...");
        let policy_start = Instant::now();
        outcomes.insert(
            policy,
            simulate_policy_prepared_probed(
                &config, policy, &fleet, &trained, &telemetry, threads, &probe,
            ),
        );
        prof.record(&format!("policy/{}", policy.name()), policy_start.elapsed());
    }

    // Group racks by power (terciles of mean utilization), using the
    // baseline outcome set for grouping (identical across policies).
    let reference = &outcomes[&PolicyKind::Central];
    let (high, medium, low) = power_groups(reference);
    let groups = [
        ("High-Power Clusters", high),
        ("Medium-Power Clusters", medium),
        ("Low-Power Clusters", low),
    ];

    let mut t = Table::new(&[
        "group",
        "system",
        "norm. #caps",
        "success",
        "cap penalty",
        "norm. perf",
    ]);
    for (label, rack_ids) in &groups {
        // Central's event count anchors the normalization (≥1 to avoid /0,
        // as the paper normalizes to Central = 1.0).
        let select = |policy: PolicyKind| -> Vec<RackOutcome> {
            outcomes[&policy]
                .iter()
                .filter(|o| rack_ids.contains(&o.rack))
                .cloned()
                .collect()
        };
        let central_caps =
            PolicyMetrics::aggregate(PolicyKind::Central, &select(PolicyKind::Central))
                .capping_steps
                .max(1);
        for policy in PolicyKind::ALL {
            let m = PolicyMetrics::aggregate(policy, &select(policy));
            t.row(&[
                label.to_string(),
                policy.to_string(),
                fmt_f64(m.capping_steps as f64 / central_caps as f64, 1),
                fmt_pct(m.success_rate),
                fmt_pct(m.capping_penalty),
                fmt_f64(m.normalized_performance, 3),
            ]);
        }
    }
    cli.emit(
        &format!("Table I: policy comparison over {racks} racks"),
        &t,
    );

    // Headline deltas.
    let agg = |p: PolicyKind| PolicyMetrics::aggregate(p, &outcomes[&p]);
    let naive = agg(PolicyKind::NaiveOClock);
    let smart = agg(PolicyKind::SmartOClock);
    let central = agg(PolicyKind::Central);
    let nofb = agg(PolicyKind::NoFeedback);
    println!(
        "overall: SmartOClock reduces capping by {:.1}x vs NaiveOClock \
         (paper: up to 18.9x in high-power clusters)",
        naive.capping_steps.max(1) as f64 / smart.capping_steps.max(1) as f64
    );
    println!(
        "success rates: Central {} / SmartOClock {} / NoFeedback {} / NaiveOClock {} \
         (paper: SmartOClock within 1-4% of Central; up to 1.24x over NoFeedback)",
        fmt_pct(central.success_rate),
        fmt_pct(smart.success_rate),
        fmt_pct(nofb.success_rate),
        fmt_pct(naive.success_rate),
    );
    cli.finish("table1_policies", &telemetry);
    cli.finish_prof(&prof);
}
