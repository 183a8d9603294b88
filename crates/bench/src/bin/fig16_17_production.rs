//! Figures 16 and 17: the production-service experiments (§V-C).
//!
//! * Fig. 16 — Service B's CPU utilization vs request rate with and without
//!   overclocking. Paper: −23 % utilization at the 1.8k RPS peak; at equal
//!   utilization the overclocked deployment serves 1.8k vs 1.4k RPS (+28 %).
//! * Fig. 17 — Service C's 5-minute peak utilization over a weekday, with
//!   overclocking reducing peaks by ~16 %.

use simcore::par;
use simcore::report::{fmt_f64, fmt_pct, Table};
use simcore::time::{SimDuration, SimTime};
use soc_bench::{pct_change, Cli, Output};
use soc_cluster::envs::{run_at_rate, Environment};
use soc_power::freq::FrequencyPlan;
use soc_traces::services::service_c;
use soc_workloads::microservice::ServiceSpec;
use std::time::Instant;

fn main() {
    let cli = Cli::from_env(&[Output::Profile, Output::Health]);
    let prof = cli.profiler("fig16_17_production");
    // Health series (`--health`): these sweeps run outside the sharded rack
    // engine, so the recorder is fed from the collected results in sweep
    // order — fig. 16 keyed by deployment RPS, fig. 17 by time of day.
    let recorder = cli.recorder("fig16_17_production");
    let plan = FrequencyPlan::amd_reference();
    let measure = if cli.fast {
        SimDuration::from_secs(60)
    } else {
        SimDuration::from_secs(300)
    };

    // --- Fig. 16: Service B deployment: tens of VMs, hundreds of vcores.
    // Model one representative VM slice: capacity scaled so the deployment
    // peak lands at 1.8k RPS across 10 VMs (180 RPS per VM).
    let spec = ServiceSpec::new("ServiceB", 22.0, 1.1, 4);
    let vms = 10.0;
    let mut fig16 = Table::new(&[
        "RPS (deployment)",
        "util @turbo",
        "util @overclock",
        "delta",
    ]);
    let mut peak_base = 0.0;
    let mut peak_oc = 0.0;
    // Rate points are independent runs; shard them across workers and
    // collect in sweep order (byte-identical output for any --threads).
    let threads = cli.effective_threads();
    let sweep_start = Instant::now();
    let sweep = par::par_map(
        threads,
        vec![0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8],
        |_, rps_k| {
            let per_vm = rps_k * 1000.0 / vms;
            let base = run_at_rate(
                &spec,
                per_vm,
                Environment::Baseline,
                plan,
                measure,
                cli.seed,
            );
            let oc = run_at_rate(
                &spec,
                per_vm,
                Environment::Overclock,
                plan,
                measure,
                cli.seed,
            );
            (rps_k, base, oc)
        },
    );
    prof.record("fig16/rps_sweep", sweep_start.elapsed());
    prof.add("service_runs", sweep.len() as u64 * 2);
    for (rps_k, base, oc) in sweep {
        let rps = (rps_k * 1000.0) as u64;
        recorder.sample(rps, "service_b_util_turbo", 0, base.cpu_utilization);
        recorder.sample(rps, "service_b_util_oc", 0, oc.cpu_utilization);
        if rps_k == 1.8 {
            peak_base = base.cpu_utilization;
            peak_oc = oc.cpu_utilization;
        }
        fig16.row(&[
            format!("{:.1}k", rps_k),
            fmt_f64(base.cpu_utilization, 3),
            fmt_f64(oc.cpu_utilization, 3),
            pct_change(base.cpu_utilization, oc.cpu_utilization),
        ]);
    }
    cli.emit("Fig. 16: Service B CPU utilization vs RPS", &fig16);
    println!(
        "utilization at the 1.8k RPS peak: {} (paper: -23%)",
        pct_change(peak_base, peak_oc)
    );
    // Iso-utilization throughput: what RPS does the baseline need to match
    // the overclocked deployment's utilization at 1.8k?
    let mut iso_rps = 0.0;
    let iso_start = Instant::now();
    let iso_sweep = par::par_map(
        threads,
        (600..=1800).step_by(50).collect(),
        |_, rps: i32| {
            let per_vm = f64::from(rps) / vms;
            let r = run_at_rate(
                &spec,
                per_vm,
                Environment::Baseline,
                plan,
                measure,
                cli.seed,
            );
            (f64::from(rps), r.cpu_utilization)
        },
    );
    prof.record("fig16/iso_sweep", iso_start.elapsed());
    prof.add("service_runs", iso_sweep.len() as u64);
    for (rps, util) in iso_sweep {
        if util <= peak_oc {
            iso_rps = rps;
        }
    }
    println!(
        "at equal utilization, baseline serves ~{:.1}k RPS vs 1.8k overclocked ({}) \
         (paper: 1.4k vs 1.8k, +28%)",
        iso_rps / 1000.0,
        pct_change(iso_rps, 1800.0)
    );
    println!();

    // --- Fig. 17: Service C 5-minute peaks over a weekday.
    let profile = service_c();
    let day = SimTime::ZERO + SimDuration::from_days(1);
    let ratio = plan.turbo().ratio(plan.max_overclock());
    let fig17_start = Instant::now();
    let mut fig17 = Table::new(&["hour", "peak util (baseline)", "peak util (overclocked)"]);
    let mut base_peaks = Vec::new();
    let mut oc_peaks = Vec::new();
    for hour in 0..24u64 {
        let mut base_peak: f64 = 0.0;
        for m in 0..12u64 {
            let t = day + SimDuration::from_hours(hour) + SimDuration::from_minutes(5 * m);
            base_peak = base_peak.max(profile.shape.utilization(t));
        }
        // The same offered work at the overclocked frequency occupies
        // proportionally fewer cycles.
        let oc_peak = (base_peak * ratio).min(1.0);
        let t_us = SimDuration::from_hours(hour).as_micros();
        recorder.sample(t_us, "service_c_peak_util", 0, base_peak);
        recorder.sample(t_us, "service_c_peak_util_oc", 0, oc_peak);
        base_peaks.push(base_peak);
        oc_peaks.push(oc_peak);
        fig17.row(&[
            format!("{hour:02}h"),
            fmt_f64(base_peak, 3),
            fmt_f64(oc_peak, 3),
        ]);
    }
    println!("== Fig. 17: Service C 5-minute peak utilization over a weekday ==");
    println!("{}", fig17.render());
    let mean_reduction = 1.0 - oc_peaks.iter().sum::<f64>() / base_peaks.iter().sum::<f64>();
    prof.record("fig17/peaks", fig17_start.elapsed());
    println!(
        "mean 5-minute-peak reduction with overclocking: {} (paper: 16%)",
        fmt_pct(mean_reduction)
    );
    cli.finish_health(
        &recorder,
        &soc_health::default_rules(SimDuration::from_minutes(5).as_micros()),
    );
    cli.finish_prof(&prof);
}
