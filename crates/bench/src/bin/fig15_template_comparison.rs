//! Figure 15: CDF of the mean power-prediction error per template technique
//! (§V-B).
//!
//! Paper shape: FlatMed underpredicts (negative bias, bad high percentiles),
//! FlatMax overpredicts (large positive bias), Weekly is hurt by outlier
//! days, DailyMed (SmartOClock's choice) is the most accurate, with DailyMax
//! a conservative variant.

use simcore::par;
use simcore::report::{fmt_f64, Table};
use simcore::stats::Ecdf;
use simcore::time::SimDuration;
use soc_bench::{Cli, Observer};
use soc_predict::eval::walk_forward;
use soc_predict::template::TemplateKind;
use soc_traces::gen::{FleetConfig, TraceGenerator};
use std::process::ExitCode;

fn main() -> ExitCode {
    let cli = Cli::from_env(&[]);
    let racks = if cli.fast { 20 } else { 100 };
    let mut cfg = FleetConfig::paper_reference(racks);
    cfg.span = SimDuration::WEEK * 3;
    cfg.step = SimDuration::from_minutes(15);
    cfg.outlier_day_prob = 0.06; // holidays stress the Weekly template
    let fleet = TraceGenerator::new(cli.seed).generate(&cfg);

    // Per technique: per-rack mean error and RMSE distributions. Racks are
    // independent, so the walk-forward evaluations shard across workers;
    // par_map returns them in rack order, keeping output byte-identical for
    // any --threads value.
    let per_rack: Vec<Vec<(f64, f64)>> = par::par_map(
        cli.effective_threads(),
        fleet.racks.iter().collect(),
        |_, rack| {
            TemplateKind::ALL
                .iter()
                .map(|&kind| {
                    let report = walk_forward(&rack.power, kind);
                    (report.mean_error, report.rmse)
                })
                .collect()
        },
    );
    let mut mean_err: Vec<Vec<f64>> = vec![Vec::new(); TemplateKind::ALL.len()];
    let mut rmse: Vec<Vec<f64>> = vec![Vec::new(); TemplateKind::ALL.len()];
    for rack_reports in &per_rack {
        for (k, &(me, rm)) in rack_reports.iter().enumerate() {
            mean_err[k].push(me);
            rmse[k].push(rm);
        }
    }

    let mut t = Table::new(&[
        "technique",
        "mean-err P10 (W)",
        "mean-err P50 (W)",
        "mean-err P99 (W)",
        "RMSE P50 (W)",
        "RMSE P99 (W)",
    ]);
    for (k, &kind) in TemplateKind::ALL.iter().enumerate() {
        let me = Ecdf::from_samples(&mean_err[k]);
        let rm = Ecdf::from_samples(&rmse[k]);
        t.row(&[
            kind.to_string(),
            fmt_f64(me.quantile(0.10), 1),
            fmt_f64(me.quantile(0.50), 1),
            fmt_f64(me.quantile(0.99), 1),
            fmt_f64(rm.quantile(0.50), 1),
            fmt_f64(rm.quantile(0.99), 1),
        ]);
    }
    cli.emit(
        &format!("Fig. 15: prediction accuracy per technique across {racks} racks"),
        &t,
    );

    // Shape checks against the paper's narrative.
    let med_of = |k: usize| {
        let mut v = rmse[k].clone();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        v[v.len() / 2]
    };
    let daily_med = med_of(3);
    println!(
        "median RMSE — FlatMed {:.1}W, FlatMax {:.1}W, Weekly {:.1}W, DailyMed {:.1}W, DailyMax {:.1}W",
        med_of(0),
        med_of(1),
        med_of(2),
        daily_med,
        med_of(4)
    );
    println!(
        "DailyMed is the most accurate technique: {} \
         (paper: \"DailyMed, used in SmartOClock, has the highest accuracy\")",
        (0..5).all(|k| k == 3 || med_of(k) >= daily_med)
    );
    cli.finish(&Observer::default())
}
