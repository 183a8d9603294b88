//! Figures 2 and 3: P99 tail latency (vs. SLO) and CPU utilization of the
//! eight SocialNet microservices under low/medium/high load in the
//! *Baseline*, *Overclock*, and *ScaleOut* environments (§III-Q1).

use simcore::report::{fmt_f64, Table};
use simcore::time::SimDuration;
use soc_bench::{Cli, Observer};
use soc_cluster::envs::{run_environment, Environment};
use soc_power::freq::FrequencyPlan;
use soc_workloads::socialnet::{socialnet_services, LoadLevel};
use std::process::ExitCode;

fn main() -> ExitCode {
    let cli = Cli::from_env(&[]);
    let plan = FrequencyPlan::amd_reference();
    let measure = if cli.fast {
        SimDuration::from_secs(60)
    } else {
        SimDuration::from_secs(600)
    };

    let mut fig2 = Table::new(&[
        "service", "load", "env", "P99 (ms)", "SLO (ms)", "P99/SLO", "meets",
    ]);
    let mut fig3 = Table::new(&["service", "load", "env", "CPU util"]);
    let mut summary_violations = 0usize;
    let mut summary_runs = 0usize;

    for spec in socialnet_services() {
        for load in LoadLevel::ALL {
            for env in Environment::ALL {
                let r = run_environment(&spec, load, env, plan, measure, cli.seed);
                fig2.row(&[
                    spec.name.clone(),
                    load.to_string(),
                    env.to_string(),
                    fmt_f64(r.p99_ms, 1),
                    fmt_f64(r.slo_ms, 1),
                    fmt_f64(r.p99_ms / r.slo_ms, 2),
                    if r.meets_slo() {
                        "yes".into()
                    } else {
                        "NO".into()
                    },
                ]);
                fig3.row(&[
                    spec.name.clone(),
                    load.to_string(),
                    env.to_string(),
                    fmt_f64(r.cpu_utilization, 3),
                ]);
                summary_runs += 1;
                if !r.meets_slo() {
                    summary_violations += 1;
                }
            }
        }
    }

    cli.emit(
        "Fig. 2: SocialNet P99 latency by load and environment",
        &fig2,
    );
    println!();
    println!("== Fig. 3: SocialNet CPU utilization ==");
    println!("{}", fig3.render());
    println!(
        "{summary_violations}/{summary_runs} runs violate their SLO \
         (paper: violations concentrate in Baseline at high load; \
         UrlShort violates even at low utilization, Usr tolerates high utilization)"
    );
    cli.finish(&Observer::default())
}
