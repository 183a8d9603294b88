//! Figure 5: CDF of average, median (P50), and peak (P99) rack power
//! utilization across the fleet (§III-Q2).
//!
//! The paper observes, over 7.1k production racks: "Half the racks have an
//! average utilization lower than 66%. Importantly, 50% and 90% of the
//! racks have P99 lower than 73% and 89%." We generate a synthetic fleet
//! (scaled down; `--fast` shrinks it further) and report the same CDF
//! quantiles.

use simcore::report::{fmt_f64, fmt_pct, Table};
use simcore::time::SimDuration;
use soc_bench::{Cli, Observer};
use soc_traces::gen::{FleetConfig, TraceGenerator};
use std::process::ExitCode;

fn main() -> ExitCode {
    let cli = Cli::from_env(&[]);
    let racks = if cli.fast { 40 } else { 300 };
    let mut cfg = FleetConfig::paper_reference(racks);
    cfg.span = SimDuration::WEEK * 2; // two weeks capture the weekly cycle
    cfg.step = SimDuration::from_minutes(15);
    let fleet = TraceGenerator::new(cli.seed).generate(&cfg);

    let avg = fleet.mean_utilization_cdf();
    let p50 = fleet.utilization_percentile_cdf(50.0);
    let p99 = fleet.utilization_percentile_cdf(99.0);

    let mut t = Table::new(&["CDF quantile", "Average", "P50", "P99"]);
    for q in [0.10, 0.25, 0.50, 0.75, 0.90, 0.99] {
        t.row(&[
            fmt_pct(q),
            fmt_f64(avg.quantile(q), 3),
            fmt_f64(p50.quantile(q), 3),
            fmt_f64(p99.quantile(q), 3),
        ]);
    }
    cli.emit(
        &format!("Fig. 5: rack power utilization CDFs across {racks} racks"),
        &t,
    );
    println!(
        "median rack: average utilization {} (paper ~0.66); \
         50%/90% of racks have P99 below {}/{} (paper: 0.73/0.89)",
        fmt_f64(avg.quantile(0.5), 2),
        fmt_f64(p99.quantile(0.5), 2),
        fmt_f64(p99.quantile(0.9), 2),
    );
    cli.finish(&Observer::default())
}
