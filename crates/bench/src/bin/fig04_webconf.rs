//! Figure 4: WebConf VM-level vs deployment-level CPU utilization with and
//! without overclocking (§III-Q1).
//!
//! VM1 runs at 10 % load, VM2 at 80 %. The deployment goal is a mean
//! utilization below 50 %; the baseline already meets it, so overclocking
//! the hot VM — which a VM-local policy would do — is unnecessary.

use simcore::report::{fmt_f64, Table};
use soc_bench::{Cli, Observer};
use soc_power::freq::FrequencyPlan;
use soc_workloads::webconf::WebConfDeployment;
use std::process::ExitCode;

fn main() -> ExitCode {
    let cli = Cli::from_env(&[]);
    let plan = FrequencyPlan::amd_reference();

    let build = || {
        let mut dep = WebConfDeployment::new(plan.turbo(), 0.5);
        dep.add_vm(0.10);
        dep.add_vm(0.80);
        dep
    };

    let baseline = build();
    let mut overclocked = build();
    overclocked.set_frequency(1, plan.max_overclock());

    let mut t = Table::new(&["metric", "baseline", "overclocked"]);
    t.row(&[
        "VM1 utilization".into(),
        fmt_f64(baseline.vm_utilization(0), 3),
        fmt_f64(overclocked.vm_utilization(0), 3),
    ]);
    t.row(&[
        "VM2 utilization".into(),
        fmt_f64(baseline.vm_utilization(1), 3),
        fmt_f64(overclocked.vm_utilization(1), 3),
    ]);
    t.row(&[
        "deployment utilization".into(),
        fmt_f64(baseline.deployment_utilization(), 3),
        fmt_f64(overclocked.deployment_utilization(), 3),
    ]);
    t.row(&[
        "meets 50% goal".into(),
        baseline.meets_goal().to_string(),
        overclocked.meets_goal().to_string(),
    ]);
    t.row(&[
        "VM-local policy (util>70%) would overclock".into(),
        format!("{:?}", baseline.vms_above(0.7)),
        format!("{:?}", overclocked.vms_above(0.7)),
    ]);
    cli.emit("Fig. 4: WebConf VM vs deployment utilization", &t);
    println!(
        "Baseline already meets the deployment-level goal ({}); overclocking VM2 \
         is wasted lifetime (paper: \"Overclocking provides benefit, but is \
         unnecessary since the baseline already meets the application-level goal\").",
        fmt_f64(baseline.deployment_utilization(), 2)
    );
    cli.finish(&Observer::default())
}
