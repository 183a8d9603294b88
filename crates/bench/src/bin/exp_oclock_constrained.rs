//! §V-A "Overclocking-constrained environments": restrict the overclocking
//! lifetime budget to 75 %, 50 %, and 25 % of its initial value, and compare
//! reactive scale-out against SmartOClock's proactive scale-out.
//!
//! Paper: reactive scale-out misses SLOs for 5.0 %, 6.1 %, and 7.2 % of the
//! time; SmartOClock's proactive approach (scaling out before the predicted
//! exhaustion, §IV-D) eliminates the violations.

use simcore::report::{fmt_pct, Table};
use simcore::time::SimDuration;
use soc_bench::{Cli, Output};
use soc_cluster::harness::{ClusterConfig, SystemKind};
use soc_cluster::shard::run_cluster_sims_probed;
use std::process::ExitCode;

fn main() -> ExitCode {
    let cli = Cli::from_env(&[Output::Trace]);
    let obs = cli.observer("exp_oclock_constrained");
    let config = |budget_scale: f64, proactive: bool| {
        let mut cfg = ClusterConfig::paper_reference(SystemKind::SmartOClock);
        cfg.seed = cli.seed;
        // Shrink the budget so it actually binds within the experiment
        // duration (the paper's weekly budget is restricted the same
        // relative way).
        cfg.oc_budget_scale = budget_scale * 0.02;
        cfg.proactive_scaleout = proactive;
        if cli.fast {
            cfg.duration = SimDuration::from_minutes(6);
            cfg.socialnet_servers = 6;
            cfg.mltrain_servers = 6;
            cfg.spare_servers = 3;
        } else {
            cfg.duration = SimDuration::from_minutes(40);
        }
        cfg
    };
    let scales = [0.75, 0.50, 0.25];
    // Baseline first: unconstrained budget with proactive scaling
    // (50 x 0.02 = the unscaled reference); then reactive and proactive
    // runs per restricted budget. All seven share the offered traffic.
    let mut configs = vec![config(50.0, true)];
    for scale in scales {
        configs.push(config(scale, false));
        configs.push(config(scale, true));
    }
    let threads = cli.effective_threads();
    eprintln!(
        "running {} budget/scale-out variants ({threads} threads)...",
        configs.len()
    );
    let frac: Vec<f64> = run_cluster_sims_probed(configs, &obs.telemetry, threads, &obs)
        .iter()
        .map(|r| r.violation_window_frac())
        .collect();

    // The metric is the *excess* missed-SLO time caused by budget
    // exhaustion over the unconstrained baseline (some services, like
    // UrlShort, miss their SLO regardless of overclocking; the paper's
    // cluster has no such service, so it reports absolute numbers).
    let baseline = frac[0];
    let mut t = Table::new(&[
        "OC budget",
        "reactive excess missed-SLO time",
        "proactive excess missed-SLO time",
    ]);
    for (scale, pair) in scales.into_iter().zip(frac[1..].chunks_exact(2)) {
        let reactive = (pair[0] - baseline).max(0.0);
        let proactive = (pair[1] - baseline).max(0.0);
        t.row(&[fmt_pct(scale), fmt_pct(reactive), fmt_pct(proactive)]);
    }
    cli.emit(
        "Overclocking-constrained environments (excess vs unconstrained)",
        &t,
    );
    println!(
        "paper: reactive misses SLOs 5.0%/6.1%/7.2% of the time at 75%/50%/25% budget; \
         proactive scale-out eliminates the violations"
    );
    cli.finish(&obs)
}
