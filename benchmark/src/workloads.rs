//! The four workloads: their inputs, one round each, and the checks every
//! round's output must pass.
//!
//! Every workload is driven through the simulator's public API only. The
//! benchmark derives all seeds from `--seed`; the simulator receives only
//! the generated inputs.

use crate::stats::{digest, ratio};
use simcore::faults::FaultPlanConfig;
use simcore::time::SimDuration;
use smartoclock::policy::PolicyKind;
use soc_cluster::harness::{ClusterConfig, ClusterResult, SystemKind};
use soc_cluster::largescale::LargeScaleConfig;
use soc_cluster::largescale_metrics::RackOutcome;
use soc_cluster::probe::ShardProbe;
use soc_cluster::shard::{
    generate_fleet_probed, run_cluster_sims_probed, simulate_policy_on_traces_probed,
    simulate_policy_prepared_probed, simulate_policy_sharded_probed, train_fleet_probed,
    FleetTraces, TrainedFleet,
};
use soc_reliability::binning::BinningConfig;
use soc_telemetry::Telemetry;
use soc_workloads::socialnet::LoadLevel;
use std::collections::BTreeMap;

/// The seed whose output digests are committed in [`Workload::pinned_digest`].
pub const REFERENCE_SEED: u64 = 42;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's production shape, streamed rack by rack.
    FleetStream,
    /// Table I: all five policies over one pre-generated, pre-trained fleet.
    PolicySweep,
    /// Binned silicon, hostile faults and buffered telemetry.
    ChaosBinned,
    /// The closed-loop cluster harness of Figs. 12–14.
    Cluster,
}

/// Pinned benchmark sizes, or tiny ones for the smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Pinned,
    Tiny,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FleetStream,
        Workload::PolicySweep,
        Workload::ChaosBinned,
        Workload::Cluster,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetStream => "fleet_stream",
            Workload::PolicySweep => "policy_sweep",
            Workload::ChaosBinned => "chaos_binned",
            Workload::Cluster => "cluster",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The committed FNV-1a-64 digest of the seed-42 output at pinned size.
    pub fn pinned_digest(self) -> u64 {
        match self {
            Workload::FleetStream => 0xbea9_e0d6_d1f8_408f,
            Workload::PolicySweep => 0x4dc2_b044_8a0e_9442,
            Workload::ChaosBinned => 0xc869_8ecc_9cbf_8c16,
            Workload::Cluster => 0x45ef_d930_f847_45b3,
        }
    }
}

/// The large-scale configuration of a workload.
fn large_scale_config(workload: Workload, scale: Scale, seed: u64) -> LargeScaleConfig {
    let (racks, weeks) = match (workload, scale) {
        (_, Scale::Tiny) => (4, 2),
        (Workload::FleetStream, Scale::Pinned) => (8, 6),
        (_, Scale::Pinned) => (16, 3),
    };
    let mut config = LargeScaleConfig::bench_reference(racks);
    config.weeks = weeks;
    config.seed = seed;
    if scale == Scale::Tiny {
        config.step = SimDuration::from_minutes(15);
        config.servers_per_rack = (6, 8);
    } else {
        // Every rack the same size, so each seed gives the two workers the
        // same amount of work and timings compare across seeds.
        config.servers_per_rack = (14, 14);
    }
    if workload == Workload::ChaosBinned {
        config.binning = BinningConfig {
            bins: 8,
            risk_budget: 0.1,
            wear_spread: 0.3,
            seed: seed.wrapping_add(2),
        };
        config.faults = hostile_faults(seed.wrapping_add(1));
        config.central_fail_open = true;
    }
    config
}

/// The chaos suite's every-fault plan.
fn hostile_faults(seed: u64) -> FaultPlanConfig {
    FaultPlanConfig {
        seed,
        goa_outages: 2,
        goa_outage_len: SimDuration::from_hours(12),
        budget_drop_prob: 0.3,
        budget_delay_prob: 0.3,
        budget_delay: SimDuration::from_minutes(30),
        telemetry_gap_prob: 0.2,
        prediction_bias: 0.9,
        prediction_noise: 0.1,
        soa_restart_prob: 0.01,
    }
}

/// Simulated length of each pinned cluster run: half of `paper_reference`'s
/// 30 minutes, so a benchmark run times more rounds. The Fig. 12 order holds
/// at the reference seed after 15 minutes, not yet after 10.
const CLUSTER_MINUTES: SimDuration = SimDuration::from_minutes(15);

/// The cluster harness runs: every system, then SmartOClock under the
/// power-constrained rack limit of `exp_power_constrained`.
pub fn cluster_configs(scale: Scale, seed: u64) -> Vec<(String, ClusterConfig)> {
    let config = |system| {
        let mut cfg = match scale {
            Scale::Pinned => ClusterConfig {
                duration: CLUSTER_MINUTES,
                ..ClusterConfig::paper_reference(system)
            },
            Scale::Tiny => ClusterConfig::small_test(system),
        };
        cfg.seed = seed;
        cfg
    };
    let mut runs: Vec<(String, ClusterConfig)> = SystemKind::ALL
        .into_iter()
        .map(|s| (s.name().to_string(), config(s)))
        .collect();
    let mut constrained = config(SystemKind::SmartOClock);
    constrained.rack_limit_scale = 0.82;
    runs.push(("SmartOClock_constrained".to_string(), constrained));
    runs
}

/// What a workload's rounds consume, built by [`prepare`].
pub enum Inputs {
    Stream(LargeScaleConfig),
    Sweep {
        config: LargeScaleConfig,
        fleet: FleetTraces,
        trained: TrainedFleet,
    },
    Chaos {
        config: LargeScaleConfig,
        fleet: FleetTraces,
    },
    Cluster {
        runs: Vec<(String, ClusterConfig)>,
        /// Fig. 12's ordering is a property of the reference seed at
        /// pinned size, not of every seed.
        check_fig12: bool,
    },
}

/// Build a workload's inputs: fleet generation and training where the
/// workload has them (spans go to `probe`).
pub fn prepare(
    workload: Workload,
    scale: Scale,
    seed: u64,
    threads: usize,
    probe: &dyn ShardProbe,
) -> Inputs {
    match workload {
        Workload::FleetStream => Inputs::Stream(large_scale_config(workload, scale, seed)),
        Workload::PolicySweep => {
            let config = large_scale_config(workload, scale, seed);
            let fleet = generate_fleet_probed(&config, threads, probe);
            let trained = train_fleet_probed(&config, &fleet, threads, probe);
            Inputs::Sweep {
                config,
                fleet,
                trained,
            }
        }
        Workload::ChaosBinned => {
            let config = large_scale_config(workload, scale, seed);
            let fleet = generate_fleet_probed(&config, threads, probe);
            Inputs::Chaos { config, fleet }
        }
        Workload::Cluster => Inputs::Cluster {
            runs: cluster_configs(scale, seed),
            check_fig12: scale == Scale::Pinned && seed == REFERENCE_SEED,
        },
    }
}

/// One round's checked output.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// FNV-1a-64 of the `Debug` rendering of every output of the round.
    pub digest: u64,
    /// Invariants the output broke (empty when the round passed).
    pub failures: Vec<String>,
    /// Σ `RackOutcome.steps` (large-scale), or configs × ticks (cluster).
    pub rack_steps: u64,
    /// Telemetry events the round emitted.
    pub events: u64,
    /// Work counters that repeat exactly for a given seed.
    pub exact: BTreeMap<String, f64>,
}

/// Whether a round writes telemetry: `chaos_binned` does by design; the
/// telemetry-off variant prices that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tm {
    Default,
    Off,
}

/// Run one round: a complete experiment pass over `inputs`.
pub fn round(inputs: &Inputs, threads: usize, probe: &dyn ShardProbe, tm: Tm) -> Round {
    match inputs {
        Inputs::Stream(config) => {
            let outcomes = simulate_policy_sharded_probed(
                config,
                PolicyKind::SmartOClock,
                &Telemetry::disabled(),
                threads,
                probe,
            );
            large_scale_round(config, vec![(PolicyKind::SmartOClock, outcomes)], 0)
        }
        Inputs::Sweep {
            config,
            fleet,
            trained,
        } => {
            let runs = PolicyKind::ALL
                .into_iter()
                .map(|p| {
                    let outcomes = simulate_policy_prepared_probed(
                        config,
                        p,
                        fleet,
                        trained,
                        &Telemetry::disabled(),
                        threads,
                        probe,
                    );
                    (p, outcomes)
                })
                .collect();
            let mut round = large_scale_round(config, runs, 0);
            sweep_checks(&mut round);
            round
        }
        Inputs::Chaos { config, fleet } => {
            let mut events = 0;
            let runs = [PolicyKind::SmartOClock, PolicyKind::Central]
                .into_iter()
                .map(|p| {
                    let outcomes = if tm == Tm::Off {
                        let off = Telemetry::disabled();
                        simulate_policy_on_traces_probed(config, p, fleet, &off, threads, probe)
                    } else {
                        // The sink lives for one policy run, as a caller
                        // writing a trace per experiment would use it.
                        let (on, sink) = Telemetry::memory();
                        let o =
                            simulate_policy_on_traces_probed(config, p, fleet, &on, threads, probe);
                        events += sink.len() as u64;
                        o
                    };
                    (p, outcomes)
                })
                .collect();
            let mut round = large_scale_round(config, runs, events);
            chaos_checks(&mut round);
            round
        }
        Inputs::Cluster { runs, check_fig12 } => {
            let configs = runs.iter().map(|(_, c)| c.clone()).collect();
            let results = run_cluster_sims_probed(configs, &Telemetry::disabled(), threads, probe);
            cluster_round(runs, &results, *check_fig12)
        }
    }
}

fn sum(outcomes: &[RackOutcome], f: impl Fn(&RackOutcome) -> u64) -> u64 {
    outcomes.iter().map(f).sum()
}

fn large_scale_round(
    config: &LargeScaleConfig,
    runs: Vec<(PolicyKind, Vec<RackOutcome>)>,
    events: u64,
) -> Round {
    let mut round = Round {
        digest: digest(&runs),
        events,
        ..Round::default()
    };
    for (policy, outcomes) in &runs {
        if outcomes.len() != config.racks {
            round.failures.push(format!(
                "{policy}: {} outcomes for {} racks",
                outcomes.len(),
                config.racks
            ));
        }
        let steps = sum(outcomes, |o| o.steps);
        let requests = sum(outcomes, |o| o.requests);
        let granted = sum(outcomes, |o| o.granted);
        round.rack_steps += steps;
        round.exact.insert(
            format!("engine.grant_ratio.{}", policy.name()),
            ratio(granted as f64, requests as f64),
        );
        round.exact.insert(
            format!("engine.capping_steps.{}", policy.name()),
            sum(outcomes, |o| o.capping_steps) as f64,
        );
        round.exact.insert(
            format!("engine.requests.{}", policy.name()),
            requests as f64,
        );
        if *policy == PolicyKind::SmartOClock {
            let violations = sum(outcomes, |o| o.violation_steps);
            if violations != 0 {
                round.failures.push(format!(
                    "SmartOClock violated the rack limit on {violations} steps"
                ));
            }
        }
        for (name, f) in [
            ("reliability.bin_denied", sum(outcomes, |o| o.bin_denied)),
            ("reliability.down_binned", sum(outcomes, |o| o.down_binned)),
            ("faults.restarts", sum(outcomes, |o| o.restarts)),
            (
                "faults.stale_budget_steps",
                sum(outcomes, |o| o.stale_budget_steps),
            ),
        ] {
            *round.exact.entry(name.to_string()).or_insert(0.0) += f as f64;
        }
    }
    round
}

fn exact(round: &Round, name: &str) -> f64 {
    round.exact.get(name).copied().unwrap_or(0.0)
}

/// Table I's shape: every policy sees the same demand, and NaiveOClock
/// caps the rack far more often than SmartOClock.
fn sweep_checks(round: &mut Round) {
    let requests = exact(round, "engine.requests.SmartOClock");
    for p in PolicyKind::ALL {
        let r = exact(round, &format!("engine.requests.{}", p.name()));
        if r != requests {
            round
                .failures
                .push(format!("{p} saw {r} requests, SmartOClock saw {requests}"));
        }
    }
    let naive = exact(round, "engine.capping_steps.NaiveOClock");
    let smart = exact(round, "engine.capping_steps.SmartOClock");
    if naive <= smart {
        round.failures.push(format!(
            "NaiveOClock capped {naive} steps, not more than SmartOClock's {smart}"
        ));
    }
}

/// The chaos workload keeps its teeth: binning denies and down-bins parts,
/// and faults restart agents and leave budgets stale.
fn chaos_checks(round: &mut Round) {
    for name in [
        "reliability.bin_denied",
        "reliability.down_binned",
        "faults.restarts",
        "faults.stale_budget_steps",
    ] {
        if exact(round, name) <= 0.0 {
            round.failures.push(format!("{name} is 0"));
        }
    }
}

/// Check and count a cluster pass; `results` are in `runs` order.
pub fn cluster_round(
    runs: &[(String, ClusterConfig)],
    results: &[ClusterResult],
    check_fig12: bool,
) -> Round {
    let mut round = Round {
        digest: digest(results),
        ..Round::default()
    };
    if results.len() != runs.len() {
        round.failures.push(format!(
            "{} cluster results for {} configs",
            results.len(),
            runs.len()
        ));
    }
    for (_, cfg) in runs {
        round.rack_steps += cfg.duration.as_micros() / cfg.tick.as_micros();
    }
    let completed: u64 = results
        .iter()
        .flat_map(|r| &r.instances)
        .map(|i| i.completed)
        .sum();
    let granted: u64 = results.iter().map(|r| r.oc_requests.0).sum();
    let asked: u64 = results.iter().map(|r| r.oc_requests.1).sum();
    round.exact.insert(
        "core.oc_grant_ratio".into(),
        ratio(granted as f64, asked as f64),
    );
    round
        .exact
        .insert("workloads.completed_requests".into(), completed as f64);
    if check_fig12 {
        let p99 = |system: SystemKind| {
            results
                .iter()
                .find(|r| r.system == system)
                .map_or(f64::NAN, |r| r.p99_by_load(LoadLevel::High))
        };
        let order = [
            SystemKind::Baseline,
            SystemKind::ScaleOut,
            SystemKind::ScaleUp,
            SystemKind::SmartOClock,
        ];
        // `find` picks the unconstrained SmartOClock run, which precedes
        // the constrained one.
        for pair in order.windows(2) {
            let (a, b) = (p99(pair[0]), p99(pair[1]));
            if a.is_nan() || b.is_nan() || a <= b {
                round.failures.push(format!(
                    "Fig. 12 order broken: high-load P99 {} {a:.1} ms is not above {} {b:.1} ms",
                    pair[0], pair[1]
                ));
            }
        }
    }
    round
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{Detail, LayerProbe};
    use crate::report::tests::declared;
    use crate::report::{file_json, read_file, run_json, summary_line};
    use crate::run::{run, Metric, Options};
    use soc_cluster::probe::NoopProbe;
    use soc_prof::json::parse;

    fn tiny(workload: Workload) -> Inputs {
        prepare(workload, Scale::Tiny, 7, 2, &NoopProbe)
    }

    #[test]
    fn digests_ignore_thread_count_and_probing() {
        for w in Workload::ALL {
            let inputs = tiny(w);
            let plain = round(&inputs, 1, &NoopProbe, Tm::Default);
            let fine = round(&inputs, 2, &LayerProbe::new(Detail::Fine), Tm::Default);
            let coarse = round(&inputs, 2, &LayerProbe::new(Detail::Coarse), Tm::Default);
            assert_eq!(
                plain.digest,
                fine.digest,
                "{}: fine probe at 2 threads",
                w.name()
            );
            assert_eq!(plain.digest, coarse.digest, "{}: coarse probe", w.name());
            assert_eq!(plain.exact, fine.exact, "{}", w.name());
        }
    }

    #[test]
    fn telemetry_changes_no_large_scale_output() {
        let inputs = tiny(Workload::ChaosBinned);
        let on = round(&inputs, 2, &NoopProbe, Tm::Default);
        let off = round(&inputs, 2, &NoopProbe, Tm::Off);
        assert_eq!(on.digest, off.digest);
        assert!(on.events > 0);
        assert_eq!(off.events, 0);
    }

    /// One whole protocol run per workload at tiny size: set-up, timed
    /// rounds and both traced passes, every check passing.
    fn smoke(workload: Workload) {
        let options = Options {
            seed: 7,
            threads: 2,
            seconds: 0.0,
            trace: true,
            scale: Scale::Tiny,
        };
        let report = run(workload, options);
        assert!(
            report.correct(),
            "{}: {:?}",
            workload.name(),
            report.failures
        );
        assert!(report.attempted >= 8, "{}", workload.name());
        for m in &report.end_to_end {
            assert!(
                m.value > 0.0,
                "{}: {} is {}",
                workload.name(),
                m.name,
                m.value
            );
        }
        let names = |ms: &[Metric]| -> Vec<(String, String)> {
            ms.iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect()
        };
        assert_eq!(names(&report.end_to_end), declared("end_to_end"));
        assert_eq!(names(&report.per_layer), declared("per_layer"));

        // The machine-readable last line, and the result file `compare` reads.
        let line = parse(&summary_line(&report)).expect("summary line parses");
        let line = line.as_obj().expect("summary line is an object");
        let keys: Vec<&str> = line.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = line["metrics"].as_obj().expect("metrics object");
        assert_eq!(metrics.len(), report.per_layer.len());
        let records = read_file(&file_json(&[run_json(&report)])).expect("result file");
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].workload, workload.name());
        assert_eq!(
            records[0].exact["digest"],
            format!("{:016x}", report.digest)
        );
    }

    #[test]
    fn smoke_fleet_stream() {
        smoke(Workload::FleetStream);
    }

    #[test]
    fn smoke_policy_sweep() {
        smoke(Workload::PolicySweep);
    }

    #[test]
    fn smoke_chaos_binned() {
        smoke(Workload::ChaosBinned);
    }

    #[test]
    fn smoke_cluster() {
        smoke(Workload::Cluster);
    }
}
