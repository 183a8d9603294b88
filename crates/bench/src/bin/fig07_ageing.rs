//! Figure 7: cumulative CPU ageing of a diurnal workload over 5 days under
//! the four policies (§III-Q2): expected, non-overclocked, always-overclock,
//! and overclock-aware.

use simcore::report::{fmt_f64, fmt_pct, Table};
use soc_bench::{Cli, Observer};
use soc_cluster::ageing::{
    cumulative_ageing, fig7_utilization, overclock_aware_duty_cycle, AgeingPolicy,
};
use soc_reliability::wear::WearModel;
use std::process::ExitCode;

fn main() -> ExitCode {
    let cli = Cli::from_env(&[]);
    let model = WearModel::default();
    let util = fig7_utilization(5);
    let threshold = 0.5;

    let policies = [
        AgeingPolicy::Expected,
        AgeingPolicy::NonOverclocked,
        AgeingPolicy::AlwaysOverclock,
        AgeingPolicy::OverclockAware { threshold },
    ];
    let curves: Vec<Vec<f64>> = policies
        .iter()
        .map(|&p| cumulative_ageing(&model, &util, p))
        .collect();

    let samples_per_day = 288;
    let mut t = Table::new(&[
        "day",
        "Expected",
        "Non-overclocked",
        "Always overclock",
        "Overclock-aware",
    ]);
    for day in 1..=5usize {
        let idx = day * samples_per_day - 1;
        t.row(&[
            day.to_string(),
            fmt_f64(curves[0][idx], 2),
            fmt_f64(curves[1][idx], 2),
            fmt_f64(curves[2][idx], 2),
            fmt_f64(curves[3][idx], 2),
        ]);
    }
    cli.emit(
        "Fig. 7: cumulative CPU ageing (days) under overclocking policies",
        &t,
    );

    let duty = overclock_aware_duty_cycle(&model, &util, threshold);
    let finals: Vec<f64> = curves
        .iter()
        .map(|c| *c.last().expect("non-empty"))
        .collect();
    println!(
        "final ageing after 5 days — expected {:.1}, non-OC {:.1}, always-OC {:.1}, OC-aware {:.1}",
        finals[0], finals[1], finals[2], finals[3]
    );
    println!(
        "overclock-aware duty cycle: {} of the time (paper: ~25%); \
         it stays at or below expected ageing while always-overclock exceeds it \
         (paper: non-OC <2 days, always-OC >10 days, OC-aware ≤ expected)",
        fmt_pct(duty)
    );
    cli.finish(&Observer::default())
}
