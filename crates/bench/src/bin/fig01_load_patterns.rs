//! Figure 1: load pattern of three services on a typical weekday in one
//! region, utilization normalized to each service's peak.
//!
//! The paper's Service A peaks between 10 am and noon; Services B and C
//! spike for ~5 minutes at the top and bottom of each hour. This binary
//! samples the synthetic service profiles over one weekday and prints the
//! normalized series (hourly rows for readability; `--csv` emits the full
//! 5-minute resolution).

use simcore::report::{fmt_f64, Table};
use simcore::series::TimeSeries;
use simcore::stats::normalize_to_peak;
use simcore::time::{SimDuration, SimTime};
use soc_bench::Cli;
use soc_traces::services::{service_a, service_b, service_c};

fn main() {
    let cli = Cli::from_env(&[]);
    // Tuesday of week 1: a typical weekday.
    let day_start = SimTime::ZERO + SimDuration::from_days(1);
    let day_end = day_start + SimDuration::from_days(1);
    let step = SimDuration::from_minutes(5);

    let services = [service_a(), service_b(), service_c()];
    let series: Vec<TimeSeries> = services
        .iter()
        .map(|s| TimeSeries::generate(day_start, day_end, step, |t| s.shape.utilization(t)))
        .collect();
    let normalized: Vec<Vec<f64>> = series
        .iter()
        .map(|s| normalize_to_peak(s.values()))
        .collect();

    let mut full = Table::new(&["time", "ServiceA", "ServiceB", "ServiceC"]);
    for (i, &a) in normalized[0].iter().enumerate() {
        let t = series[0].time_at_index(i);
        full.row(&[
            format!("{:05.2}h", t.time_of_day().as_hours_f64()),
            fmt_f64(a, 3),
            fmt_f64(normalized[1][i], 3),
            fmt_f64(normalized[2][i], 3),
        ]);
    }
    // Console: hourly samples taken at :15 (between the top/bottom-of-hour
    // spikes, so the off-peak level is visible); CSV keeps full resolution.
    let mut hourly = Table::new(&["time", "ServiceA", "ServiceB", "ServiceC"]);
    for i in (3..series[0].len()).step_by(12) {
        let t = series[0].time_at_index(i);
        hourly.row(&[
            format!("{:05.2}h", t.time_of_day().as_hours_f64()),
            fmt_f64(normalized[0][i], 3),
            fmt_f64(normalized[1][i], 3),
            fmt_f64(normalized[2][i], 3),
        ]);
    }
    println!("== Fig. 1: weekday load, normalized to each service's peak ==");
    println!("{}", hourly.render());
    if let Some(path) = &cli.csv {
        std::fs::write(path, full.to_csv()).expect("write csv");
        eprintln!("wrote {}", path.display());
    }

    // Headline check: Service A's peak window is 10-12h.
    let peak_idx = normalized[0]
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .map(|(i, _)| i)
        .expect("non-empty");
    let peak_hour = series[0]
        .time_at_index(peak_idx)
        .time_of_day()
        .as_hours_f64();
    println!("ServiceA peak at {peak_hour:.1}h (paper: 10-12h window)");
}
