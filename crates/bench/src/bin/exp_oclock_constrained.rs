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
use soc_cluster::harness::{ClusterConfig, ClusterSim, SystemKind};

fn main() {
    let cli = Cli::from_env(&[Output::Trace]);
    let obs = cli.observer("exp_oclock_constrained");
    let run = |budget_scale: f64, proactive: bool| {
        let mut cfg = ClusterConfig::paper_reference(SystemKind::SmartOClock);
        cfg.seed = cli.seed;
        cfg.oc_budget_scale = budget_scale * 0.02; // shrink so the budget
                                                   // actually binds within the experiment duration (the paper's weekly
                                                   // budget is restricted the same relative way).
        cfg.proactive_scaleout = proactive;
        if cli.fast {
            cfg.duration = SimDuration::from_minutes(6);
            cfg.socialnet_servers = 6;
            cfg.mltrain_servers = 6;
            cfg.spare_servers = 3;
        } else {
            cfg.duration = SimDuration::from_minutes(40);
        }
        eprintln!("running budget={budget_scale} proactive={proactive}...",);
        ClusterSim::with_telemetry(cfg, obs.telemetry.clone())
            .run()
            .violation_window_frac()
    };

    // Baseline: unconstrained budget with proactive scaling. The metric is
    // the *excess* missed-SLO time caused by budget exhaustion (some
    // services, like UrlShort, miss their SLO regardless of overclocking;
    // the paper's cluster has no such service, so it reports absolute
    // numbers).
    let baseline = run(50.0, true); // 50 x 0.02 = the unscaled reference
    let mut t = Table::new(&[
        "OC budget",
        "reactive excess missed-SLO time",
        "proactive excess missed-SLO time",
    ]);
    for scale in [0.75, 0.50, 0.25] {
        let reactive = (run(scale, false) - baseline).max(0.0);
        let proactive = (run(scale, true) - baseline).max(0.0);
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
    cli.finish(&obs, &[]);
}
