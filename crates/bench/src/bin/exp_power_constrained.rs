//! §V-A "Power-constrained environments": reduce the rack limit and compare
//! NaiveOClock against SmartOClock.
//!
//! Paper: SmartOClock reduces SocialNet tail latency by 6.7 % (medium load)
//! and 8.4 % (high load) over NaiveOClock, and improves MLTrain throughput
//! by 10.4 % (heterogeneous budgets + admission control mean fewer capping
//! events hitting the training servers).

use simcore::report::{fmt_f64, Table};
use simcore::time::SimDuration;
use soc_bench::{pct_change, Cli, Output};
use soc_cluster::harness::{ClusterConfig, SystemKind};
use soc_cluster::shard::run_cluster_sims_probed;
use soc_workloads::socialnet::LoadLevel;
use std::process::ExitCode;

fn main() -> ExitCode {
    let cli = Cli::from_env(&[Output::Trace]);
    let obs = cli.observer("exp_power_constrained");
    let config_for = |system: SystemKind| {
        let mut cfg = ClusterConfig::paper_reference(system);
        cfg.seed = cli.seed;
        cfg.rack_limit_scale = 0.82; // constrained rack: ~2.5% headroom over steady draw
        if cli.fast {
            cfg.duration = SimDuration::from_minutes(6);
            cfg.socialnet_servers = 6;
            cfg.mltrain_servers = 6;
            cfg.spare_servers = 3;
        }
        cfg
    };
    // The two systems are independent simulations: shard them across
    // workers; results come back in config order regardless of --threads.
    let threads = cli.effective_threads();
    eprintln!(
        "running NaiveOClock and SmartOClock under a constrained rack limit ({threads} threads)..."
    );
    let mut results = run_cluster_sims_probed(
        vec![
            config_for(SystemKind::NaiveOClock),
            config_for(SystemKind::SmartOClock),
        ],
        &obs.telemetry,
        threads,
        &obs,
    )
    .into_iter();
    let (Some(naive), Some(smart)) = (results.next(), results.next()) else {
        eprintln!("error: cluster simulations returned fewer results than configs");
        std::process::exit(1);
    };

    let mut t = Table::new(&["metric", "NaiveOClock", "SmartOClock", "delta"]);
    for load in [LoadLevel::Medium, LoadLevel::High] {
        let n = naive.p99_by_load(load);
        let s = smart.p99_by_load(load);
        t.row(&[
            format!("P99 {load} load (ms)"),
            fmt_f64(n, 1),
            fmt_f64(s, 1),
            pct_change(n, s),
        ]);
    }
    t.row(&[
        "MLTrain relative throughput".into(),
        fmt_f64(naive.mltrain_relative_throughput, 3),
        fmt_f64(smart.mltrain_relative_throughput, 3),
        pct_change(
            naive.mltrain_relative_throughput,
            smart.mltrain_relative_throughput,
        ),
    ]);
    t.row(&[
        "rack capping events".into(),
        naive.capping_events.to_string(),
        smart.capping_events.to_string(),
        "-".into(),
    ]);
    t.row(&[
        "OC requests granted/total".into(),
        format!("{}/{}", naive.oc_requests.0, naive.oc_requests.1),
        format!("{}/{}", smart.oc_requests.0, smart.oc_requests.1),
        "-".into(),
    ]);
    cli.emit(
        "Power-constrained environments (rack limit at 82% of normal)",
        &t,
    );
    println!(
        "paper: SmartOClock cuts tail latency 6.7%/8.4% (med/high) vs NaiveOClock \
         and lifts MLTrain throughput 10.4%"
    );
    cli.finish(&obs)
}
