//! Figures 12, 13, 14: the cluster experiments (§V-A).
//!
//! * Fig. 12 — P99 and average latency of SocialNet by load class under
//!   Baseline / ScaleOut / ScaleUp / SmartOClock, plus missed-SLO ratios.
//! * Fig. 13 — average number of concurrently active VM instances (cost).
//! * Fig. 14 — normalized per-server energy by load and total energy.
//!
//! Paper headlines at high load: SmartOClock cuts P99 by 19.0 % vs Baseline,
//! 10.5 % vs ScaleOut, 8.9 % vs ScaleUp; 30.4 % fewer instances than
//! ScaleOut; 10 % lower total energy than ScaleOut (23 % on SocialNet
//! servers alone).

use simcore::report::{fmt_f64, Table};
use simcore::time::SimDuration;
use soc_bench::{pct_change, Cli, Output};
use soc_cluster::harness::{ClusterConfig, ClusterResult, SystemKind};
use soc_cluster::shard::run_cluster_sims_probed;
use soc_workloads::socialnet::LoadLevel;

fn main() {
    let cli = Cli::from_env(&[Output::Trace]);
    let obs = cli.observer("fig12_14_cluster");
    let systems = [
        SystemKind::Baseline,
        SystemKind::ScaleOut,
        SystemKind::ScaleUp,
        SystemKind::SmartOClock,
    ];
    let configs = systems
        .iter()
        .map(|&system| {
            let mut cfg = ClusterConfig::paper_reference(system);
            cfg.seed = cli.seed;
            if cli.fast {
                cfg.duration = SimDuration::from_minutes(6);
                cfg.socialnet_servers = 6;
                cfg.mltrain_servers = 6;
                cfg.spare_servers = 3;
            }
            cfg
        })
        .collect();
    // The systems run side by side and share each instance's offered
    // traffic; results come back in system order regardless of --threads.
    let threads = cli.effective_threads();
    eprintln!("running Baseline, ScaleOut, ScaleUp and SmartOClock ({threads} threads)...");
    let results: Vec<ClusterResult> =
        run_cluster_sims_probed(configs, &obs.telemetry, threads, &obs);

    // Fig. 12: latency by load class.
    let mut fig12 = Table::new(&[
        "load",
        "metric",
        "Baseline",
        "ScaleOut",
        "ScaleUp",
        "SmartOClock",
    ]);
    for load in LoadLevel::ALL {
        fig12.row(&[
            load.to_string(),
            "P99 (ms)".into(),
            fmt_f64(results[0].p99_by_load(load), 1),
            fmt_f64(results[1].p99_by_load(load), 1),
            fmt_f64(results[2].p99_by_load(load), 1),
            fmt_f64(results[3].p99_by_load(load), 1),
        ]);
        fig12.row(&[
            load.to_string(),
            "mean (ms)".into(),
            fmt_f64(results[0].mean_by_load(load), 1),
            fmt_f64(results[1].mean_by_load(load), 1),
            fmt_f64(results[2].mean_by_load(load), 1),
            fmt_f64(results[3].mean_by_load(load), 1),
        ]);
        fig12.row(&[
            load.to_string(),
            "missed SLOs".into(),
            results[0].missed_by_load(load).to_string(),
            results[1].missed_by_load(load).to_string(),
            results[2].missed_by_load(load).to_string(),
            results[3].missed_by_load(load).to_string(),
        ]);
    }
    cli.emit("Fig. 12: SocialNet latency by system", &fig12);
    let smart_p99 = results[3].p99_by_load(LoadLevel::High);
    println!(
        "high-load P99 change of SmartOClock vs Baseline {}, vs ScaleOut {}, vs ScaleUp {} \
         (paper: -19.0%, -10.5%, -8.9%)",
        pct_change(results[0].p99_by_load(LoadLevel::High), smart_p99),
        pct_change(results[1].p99_by_load(LoadLevel::High), smart_p99),
        pct_change(results[2].p99_by_load(LoadLevel::High), smart_p99),
    );
    println!();

    // Fig. 13: cost (average concurrent instances).
    let mut fig13 = Table::new(&["system", "avg active VMs"]);
    for r in &results {
        fig13.row(&[r.system.to_string(), fmt_f64(r.avg_active_vms, 2)]);
    }
    println!("== Fig. 13: average concurrently active VM instances ==");
    println!("{}", fig13.render());
    println!(
        "SmartOClock vs ScaleOut instances: {} (paper: -30.4% at high load)",
        pct_change(results[1].avg_active_vms, results[3].avg_active_vms)
    );
    println!();

    // Fig. 14: energy.
    let mut fig14 = Table::new(&[
        "system",
        "E/server low (kJ)",
        "E/server med (kJ)",
        "E/server high (kJ)",
        "total (kJ)",
        "SocialNet only (kJ)",
    ]);
    for r in &results {
        fig14.row(&[
            r.system.to_string(),
            fmt_f64(r.per_server_energy_by_load[0] / 1e3, 1),
            fmt_f64(r.per_server_energy_by_load[1] / 1e3, 1),
            fmt_f64(r.per_server_energy_by_load[2] / 1e3, 1),
            fmt_f64(r.total_energy_j / 1e3, 1),
            fmt_f64(r.socialnet_energy_j / 1e3, 1),
        ]);
    }
    println!("== Fig. 14: energy ==");
    println!("{}", fig14.render());
    println!(
        "SmartOClock vs ScaleOut: total energy {}, SocialNet-server energy {} \
         (paper: -10% total, -23% on latency-critical servers)",
        pct_change(results[1].total_energy_j, results[3].total_energy_j),
        pct_change(results[1].socialnet_energy_j, results[3].socialnet_energy_j),
    );
    cli.finish(&obs, &[]);
}
