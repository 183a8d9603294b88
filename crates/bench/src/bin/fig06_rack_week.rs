//! Figure 6: one rack's power over five weekdays, with and without naive
//! overclocking, against the rack limit (§III-Q2).
//!
//! The paper's observations: the baseline stays below the limit; naively
//! overclocking the selected workloads exceeds it during peaks, causing
//! capping ~15 % of the time, while for ~85 % of the time the headroom
//! suffices.

use simcore::report::{fmt_f64, fmt_pct, Table};
use simcore::series::TimeSeries;
use simcore::time::{SimDuration, SimTime};
use soc_bench::{Cli, Output};
use soc_telemetry::{tm_event, Component, Severity, Telemetry};
use soc_traces::gen::{FleetConfig, TraceGenerator};
use std::process::ExitCode;

/// Replay the naive-overclock week against the rack limit, emitting the
/// causally-linked event chain a rack runtime would produce: approaching the
/// limit raises `rack_warning`; crossing it raises `rack_capping` (caused by
/// the warning), caps the highest-drawing servers (`cap_set`, caused by the
/// capping decision) and revokes their overclock (`revoke`, caused by the
/// cap); receding power clears the caps (`caps_cleared`).
fn trace_capping_week(
    telemetry: &Telemetry,
    overclocked: &TimeSeries,
    per_server_extra: &[TimeSeries],
    limit: f64,
) {
    let warn_level = 0.95 * limit;
    let mut warning_decision = 0u64;
    let mut cap_decisions: Vec<(usize, u64)> = Vec::new();
    let mut capping_decision = 0u64;
    for (i, &oc) in overclocked.values().iter().enumerate() {
        let now = overclocked.time_at_index(i);
        if oc >= limit {
            if cap_decisions.is_empty() {
                capping_decision = telemetry.next_id();
                tm_event!(telemetry, now, Component::Rack, Severity::Warn, "rack_capping",
                    "power_w" => oc, "limit_w" => limit,
                    "decision_id" => capping_decision, "cause_id" => warning_decision);
                // Cap the two servers drawing the most overclock power.
                let mut by_extra: Vec<(usize, f64)> = per_server_extra
                    .iter()
                    .enumerate()
                    .map(|(s, series)| (s, series.values()[i]))
                    .collect();
                by_extra.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                for &(server, extra_w) in by_extra.iter().take(2) {
                    let cap_decision = telemetry.next_id();
                    tm_event!(telemetry, now, Component::Rack, Severity::Error, "cap_set",
                        "server" => server, "shed_w" => extra_w,
                        "decision_id" => cap_decision, "cause_id" => capping_decision);
                    tm_event!(telemetry, now, Component::Rack, Severity::Error, "revoke",
                        "server" => server,
                        "decision_id" => telemetry.next_id(), "cause_id" => cap_decision);
                    telemetry.metrics(|m| {
                        m.inc_counter("fig06_revokes", &[("reason", "cap".into())]);
                    });
                    cap_decisions.push((server, cap_decision));
                }
                telemetry.metrics(|m| {
                    m.inc_counter("fig06_capping_episodes", &[]);
                });
            }
        } else {
            if !cap_decisions.is_empty() {
                tm_event!(telemetry, now, Component::Rack, Severity::Info, "caps_cleared",
                    "servers" => cap_decisions.len() as u64,
                    "decision_id" => telemetry.next_id(), "cause_id" => capping_decision);
                cap_decisions.clear();
            }
            if oc >= warn_level {
                if warning_decision == 0 {
                    warning_decision = telemetry.next_id();
                    tm_event!(telemetry, now, Component::Rack, Severity::Warn, "rack_warning",
                        "power_w" => oc, "limit_w" => limit,
                        "decision_id" => warning_decision);
                    telemetry.metrics(|m| {
                        m.inc_counter("fig06_warnings", &[]);
                    });
                }
            } else {
                warning_decision = 0;
            }
        }
    }
}

fn main() -> ExitCode {
    let cli = Cli::from_env(&[Output::Trace]);
    let mut cfg = FleetConfig::paper_reference(1);
    cfg.span = SimDuration::WEEK;
    cfg.step = SimDuration::from_minutes(5);
    cfg.keep_server_series = true;
    // Push this showcase rack toward the constrained end of the fleet.
    cfg.oversubscription = (2.00, 2.05);
    let generator = TraceGenerator::new(cli.seed);
    let rack = generator.generate_rack(&cfg, 0);
    let model = &generator.model_for(rack.generation);
    let oc_freq = model.plan().max_overclock();

    // Naive overclocking: every demanded core gets the max frequency.
    let per_server_extra: Vec<TimeSeries> = rack
        .servers
        .iter()
        .map(|s| {
            let mut extra = TimeSeries::new(s.utilization.start(), s.utilization.step());
            for (&util, &cores) in s.utilization.values().iter().zip(&s.oc_demand_cores) {
                let cores = usize::from(cores);
                extra.push(
                    model
                        .overclock_delta(util.clamp(0.0, 1.0), cores.min(model.cores()), oc_freq)
                        .get(),
                );
            }
            extra
        })
        .collect();
    let extra_refs: Vec<&TimeSeries> = per_server_extra.iter().collect();
    let total_extra = TimeSeries::sum_of(&extra_refs);
    let overclocked = TimeSeries::sum_of(&[&rack.power, &total_extra]);

    // Weekday-hourly summary table (Mon-Fri).
    let mut t = Table::new(&[
        "day",
        "hour",
        "baseline (W)",
        "overclocked (W)",
        "limit (W)",
        "over?",
    ]);
    let week_start = SimTime::ZERO;
    for day in 0..5u64 {
        for hour in (0..24u64).step_by(3) {
            let at = week_start + SimDuration::from_days(day) + SimDuration::from_hours(hour);
            let base = rack.power.value_at(at).unwrap_or(f64::NAN);
            let oc = overclocked.value_at(at).unwrap_or(f64::NAN);
            t.row(&[
                format!("{}", at.weekday()),
                format!("{hour:02}h"),
                fmt_f64(base, 0),
                fmt_f64(oc, 0),
                fmt_f64(rack.limit.get(), 0),
                if oc >= rack.limit.get() {
                    "CAP".into()
                } else {
                    "".into()
                },
            ]);
        }
    }
    cli.emit(
        "Fig. 6: rack power over 5 weekdays (baseline vs naive overclock)",
        &t,
    );

    let limit = rack.limit.get();
    let base_over = rack.power.values().iter().filter(|&&p| p >= limit).count() as f64
        / rack.power.len() as f64;
    let oc_over = overclocked.values().iter().filter(|&&p| p >= limit).count() as f64
        / overclocked.len() as f64;
    println!(
        "baseline over limit: {}; naive overclock over limit: {} \
         (paper: baseline never caps; naive overclocking caps ~15% of the time)",
        fmt_pct(base_over),
        fmt_pct(oc_over)
    );
    println!(
        "baseline peak {:.0}W, overclocked peak {:.0}W, limit {:.0}W",
        rack.power.max(),
        overclocked.max(),
        limit
    );

    let obs = cli.observer("fig06_rack_week");
    if obs.telemetry.is_enabled() {
        trace_capping_week(&obs.telemetry, &overclocked, &per_server_extra, limit);
    }
    cli.finish(&obs)
}
