//! Extension experiment: datacenter-level (multi-rack) budget coordination.
//!
//! The paper evaluates SmartOClock at rack scope; §II notes the power
//! hierarchy continues upward and §IV's architecture is explicitly
//! hierarchical. This experiment oversubscribes a shared datacenter feed
//! and compares *flat* admission (each rack enforces only its own limit)
//! against *nested* admission (the §IV-C split applied at the feed first):
//! flat racks can each look healthy while their sum overloads the feed.

use simcore::par;
use simcore::report::{fmt_pct, Table};
use simcore::time::SimDuration;
use soc_bench::{Cli, Output};
use soc_cluster::datacenter::{simulate_datacenter, DatacenterConfig};
use soc_cluster::probe::ShardProbe;
use std::process::ExitCode;

fn main() -> ExitCode {
    let cli = Cli::from_env(&[Output::Profile]);
    let obs = cli.observer("exp_datacenter");
    let mut t = Table::new(&[
        "feed / rack-limit sum",
        "feed overloads (flat)",
        "feed overloads (nested)",
        "grants (flat)",
        "grants (nested)",
    ]);
    // The feed fractions are independent simulations: shard across workers
    // and collect in sweep order so rows land byte-identically.
    let fractions = vec![0.72, 0.66, 0.60];
    eprintln!(
        "simulating feeds at {fractions:?} ({} threads)...",
        cli.effective_threads()
    );
    let span = obs.span("feed_sweep");
    let outcomes = par::par_map(cli.effective_threads(), fractions, |_, feed_fraction| {
        let cfg = DatacenterConfig {
            racks: if cli.fast { 4 } else { 12 },
            feed_fraction,
            weeks: if cli.fast { 2 } else { 3 },
            step: SimDuration::from_minutes(15),
            seed: cli.seed,
        };
        (feed_fraction, simulate_datacenter(&cfg))
    });
    drop(span);
    obs.add("feeds", outcomes.len() as u64);
    for (feed_fraction, o) in outcomes {
        t.row(&[
            fmt_pct(feed_fraction),
            format!("{}/{}", o.feed_overloads_flat, o.steps),
            format!("{}/{}", o.feed_overloads_nested, o.steps),
            o.grants_flat.to_string(),
            o.grants_nested.to_string(),
        ]);
    }
    cli.emit(
        "Extension: flat vs nested budget enforcement on a shared feed",
        &t,
    );
    println!(
        "Nested (hierarchical) budgets keep the oversubscribed feed safe at the \
         cost of some grants; flat rack-local enforcement overloads it whenever \
         rack peaks coincide."
    );
    cli.finish(&obs)
}
