//! Trace-driven large-scale policy simulation (paper §V-B, Table I, Fig. 6).
//!
//! Replays synthetic production traces (rack/server baseline power + per-
//! server overclocking demand, 5-minute granularity) under the five policies
//! of Table I. The first trace week trains the per-server DailyMed power
//! templates and demand profiles; the remaining weeks are simulated:
//! admission per policy, per-step rack power aggregation, warnings at 95 %
//! of the limit, capping events with prioritized shedding (overclock extras
//! are revoked first, then non-overclocked servers are throttled), and the
//! exploration/backoff dynamics of SmartOClock and NoWarning.
//!
//! The paper's own evaluation also uses a purpose-built discrete-event
//! simulator here ("We develop a discrete event simulator to evaluate
//! SmartOClock", §V-B); the full agent implementation is exercised
//! end-to-end by the cluster harness instead.

use crate::columns::PredictionRows;
pub use crate::largescale_metrics::{PolicyMetrics, RackOutcome};
use crate::probe::ShardProbe;
use simcore::faults::FaultPlanConfig;
use simcore::time::{SimDuration, SimTime};
use smartoclock::goa::ServerProfile;
use smartoclock::policy::PolicyKind;
use soc_power::model::PowerModel;
use soc_reliability::binning::BinningConfig;
use soc_telemetry::Telemetry;
use soc_traces::fleet::RackTrace;
use soc_traces::gen::FleetConfig;

/// Configuration of the large-scale simulation.
///
/// The control constants are not settings: exploration moves in the sOA's
/// [`EXPLORE_STEP`](smartoclock::config::EXPLORE_STEP) up to
/// [`EXPLORE_CAP`](smartoclock::config::EXPLORE_CAP), and each server may
/// overclock the whole week. Table I stresses *power* management, so
/// lifetime never binds; the cluster harness's overclocking-constrained
/// experiment covers restricted lifetime budgets instead.
#[derive(Debug, Clone, PartialEq)]
pub struct LargeScaleConfig {
    /// Number of racks to simulate.
    pub racks: usize,
    /// Trace length in weeks (week 1 trains the templates; the rest are
    /// evaluated). Must be at least 2.
    pub weeks: u64,
    /// Sampling/evaluation step.
    pub step: SimDuration,
    /// Servers per rack (min, max).
    pub servers_per_rack: (usize, usize),
    /// RNG seed for trace generation.
    pub seed: u64,
    /// Control-plane fault schedule (default: no faults). Applies only to
    /// the evaluation weeks; realized per-rack from the shared seed so fault
    /// timelines compose with sharded execution.
    pub faults: FaultPlanConfig,
    /// How the `Central` baseline behaves while the fault plan marks the
    /// gOA/central controller unreachable: `true` = fail-open (stale
    /// permissions stand, no enforcement — risks budget violations),
    /// `false` = fail-stop (deny all overclocking — forfeits OC uptime).
    pub central_fail_open: bool,
    /// Per-part silicon heterogeneity (default: uniform fleet). Realized
    /// per-server from the shared seed (stateless draws), so bin identities
    /// compose with sharded execution exactly like the fault timelines.
    pub binning: BinningConfig,
}

impl LargeScaleConfig {
    /// A small configuration for unit tests.
    pub fn small_test() -> LargeScaleConfig {
        LargeScaleConfig {
            racks: 4,
            weeks: 2,
            step: SimDuration::from_minutes(15),
            servers_per_rack: (6, 8),
            seed: 42,
            faults: FaultPlanConfig::none(),
            central_fail_open: false,
            binning: BinningConfig::uniform(),
        }
    }

    /// The bench-scale configuration: more racks, 5-minute steps, 3 weeks.
    pub fn bench_reference(racks: usize) -> LargeScaleConfig {
        LargeScaleConfig {
            racks,
            weeks: 3,
            step: SimDuration::from_minutes(5),
            servers_per_rack: (12, 16),
            seed: 42,
            faults: FaultPlanConfig::none(),
            central_fail_open: false,
            binning: BinningConfig::uniform(),
        }
    }

    pub(crate) fn fleet_config(&self) -> FleetConfig {
        FleetConfig {
            region: "largescale".into(),
            racks: self.racks,
            servers_per_rack_min: self.servers_per_rack.0,
            servers_per_rack_max: self.servers_per_rack.1,
            span: SimDuration::WEEK * self.weeks,
            step: self.step,
            // Tighter than the fleet-wide default: Table I's clusters span
            // from comfortably provisioned (low-power) to power-constrained
            // (high-power), which a wider oversubscription range produces.
            oversubscription: (1.50, 2.15),
            outlier_day_prob: 0.03,
            keep_server_series: true,
        }
    }
}

/// Week-1 training output for one rack, reusable across policy variants:
/// the columnar engine's prediction rows.
///
/// They depend only on the trace, the power model, `config.step` and
/// `config.faults.prediction_bias`, not on the policy, so multi-policy
/// drivers (`table1_policies`, `soc-benchmark`) train once and simulate
/// many times, and every policy run reads the same rows. The rack's base
/// draw needs no training: it is the rack series, which the generator
/// folds from the server draws in server order.
/// Single-policy paths train predictions only for a policy that reads them
/// ([`PolicyKind::reads_predictions`]); the others get
/// [`PredictionRows::flat`] rows.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TrainedRack {
    /// Index of the rack the tables were built from.
    pub(crate) rack: usize,
    /// The templates' predictions over the evaluation week, keyed by day
    /// class when no template is `Weekly` (see [`PredictionRows`]).
    pub(crate) rows: PredictionRows,
    /// Evaluation steps the rack's trace was checked to cover: the engine
    /// reads the rack's base draw from its series at every one of them.
    pub(crate) steps: usize,
}

/// Number of evaluation steps: the weeks after the training week, at
/// `config.step` (which divides a day, so the count is exact).
fn evaluation_steps(config: &LargeScaleConfig) -> usize {
    let span = SimDuration::WEEK * config.weeks.saturating_sub(1);
    span.as_micros().div_ceil(config.step.as_micros()) as usize
}

/// Build the per-server predictors from the first trace week (paper §IV-B),
/// then the columnar engine's prediction rows from them. Without `with_predictions`
/// no predictor is built and the rows are [`PredictionRows::flat`]: enough
/// for the policies that never read them (`Central`, `NaiveOClock`).
///
/// Each server gets the gOA's [`ServerProfile`] of its week-1 history: a
/// regular-power template, with the fault plan's static prediction bias
/// applied once here (so per-step noise is never double-counted), and an
/// overclock-demand template in watts (cores × the per-core delta at the
/// server's mean week-1 utilization). The profiles live only until their
/// rows are built.
///
/// This is the `rack/setup` phase of every large-scale path, split out from
/// [`simulate_rack`] so callers can amortize training across policy variants
/// and keep it out of timed simulation legs.
///
/// # Panics
/// Panics if the rack's trace holds fewer samples than `config.weeks` weeks
/// at `config.step`: the missing steps would simulate at zero power and
/// demand and dilute every per-step rate.
pub(crate) fn train_rack(
    config: &LargeScaleConfig,
    rack: &RackTrace,
    model: &PowerModel,
    with_predictions: bool,
) -> TrainedRack {
    let span = SimDuration::WEEK * config.weeks;
    let needed = span.as_micros().div_ceil(config.step.as_micros()) as usize;
    assert!(
        rack.power.len() >= needed,
        "rack {}'s trace holds {} samples, fewer than the {} that {} weeks at a {} step need",
        rack.index,
        rack.power.len(),
        needed,
        config.weeks,
        config.step
    );
    let train_end = SimTime::ZERO + SimDuration::WEEK;
    let rows = if with_predictions {
        let oc_freq = model.plan().max_overclock();
        let bias = config.faults.prediction_bias;
        let profiles = rack
            .servers
            .iter()
            .map(|s| {
                let train_util = s.utilization.slice(SimTime::ZERO, train_end);
                let util = simcore::stats::mean(train_util.values());
                let mut profile = ServerProfile::from_history(
                    &s.power_series(SimTime::ZERO, train_end),
                    &s.oc_demand_series(SimTime::ZERO, train_end),
                    model,
                    oc_freq,
                    util.clamp(0.0, 1.0),
                );
                if bias != 1.0 {
                    profile.regular_power = profile.regular_power.map_values(|v| v * bias);
                }
                profile
            })
            .collect::<Vec<_>>();
        PredictionRows::build(&profiles, train_end, config.step)
    } else {
        PredictionRows::flat(rack.servers.len(), train_end, config.step)
    };
    TrainedRack {
        rack: rack.index,
        rows,
        steps: evaluation_steps(config),
    }
}

/// Simulate one rack under one policy on the columnar production engine,
/// over templates already trained by [`train_rack`] (callers that train
/// inside a timed region wrap that call in their own `"rack/setup"` span).
/// `config.step` must be the trace's step, which training requires to
/// divide a day; the `shard` entry points assert it up front.
///
/// The probe sees two flat spans per step — `"rack/admission"` (per-server
/// admission checks) and `"rack/aggregation"` (power aggregation, capping
/// enforcement, and exploration bookkeeping) — plus a `sim_steps` counter on
/// completion. Hooks are observation-only: simulation state never reads
/// anything back, so probed and unprobed runs are byte-identical (see
/// `tests/prof.rs`).
///
/// # Panics
/// Panics if `trained` was built from another rack (index or server count),
/// at another step than `config.step`, or over another number of evaluation
/// steps: its rows would answer for the wrong servers or instants, or the
/// trace would not be known to cover the run. Panics too if `policy` reads
/// predictions and `trained` was built without them.
pub(crate) fn simulate_rack(
    config: &LargeScaleConfig,
    policy: PolicyKind,
    rack: &RackTrace,
    model: &PowerModel,
    trained: &TrainedRack,
    telemetry: &Telemetry,
    probe: &dyn ShardProbe,
) -> RackOutcome {
    assert_eq!(
        trained.rows.built_for(),
        (config.step, SimTime::ZERO + SimDuration::WEEK),
        "trained tables' step and training start must match the config"
    );
    assert!(
        trained.rack == rack.index
            && trained.rows.servers() == rack.servers.len()
            && trained.steps == evaluation_steps(config),
        "trained tables must be built from this rack over every evaluation step"
    );
    assert!(
        trained.rows.predicts() || !policy.reads_predictions(),
        "policy {policy} reads predictions, but rack {}'s tables were trained without them",
        rack.index
    );
    crate::columns::simulate_rack_columnar(config, policy, rack, model, trained, telemetry, probe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::NoopProbe;
    use crate::shard::simulate_policy_sharded_probed;

    fn simulate(config: &LargeScaleConfig, policy: PolicyKind) -> Vec<RackOutcome> {
        simulate_policy_sharded_probed(config, policy, &Telemetry::disabled(), 1, &NoopProbe)
    }

    fn run(policy: PolicyKind) -> Vec<RackOutcome> {
        simulate(&LargeScaleConfig::small_test(), policy)
    }

    #[test]
    fn all_policies_produce_outcomes() {
        for policy in PolicyKind::ALL {
            let outcomes = run(policy);
            assert_eq!(outcomes.len(), 4);
            for o in &outcomes {
                assert!(o.steps > 0);
                assert!(o.granted <= o.requests);
            }
        }
    }

    #[test]
    fn naive_grants_everything() {
        let outcomes = run(PolicyKind::NaiveOClock);
        for o in &outcomes {
            assert_eq!(o.granted, o.requests, "NaiveOClock must grant all requests");
        }
    }

    #[test]
    fn naive_caps_at_least_as_much_as_smart() {
        let naive: u64 = run(PolicyKind::NaiveOClock)
            .iter()
            .map(|o| o.capping_events)
            .sum();
        let smart: u64 = run(PolicyKind::SmartOClock)
            .iter()
            .map(|o| o.capping_events)
            .sum();
        assert!(
            smart <= naive,
            "SmartOClock ({smart}) must not cap more than NaiveOClock ({naive})"
        );
    }

    #[test]
    fn central_never_caps() {
        // The oracle admits only what actually fits.
        let outcomes = run(PolicyKind::Central);
        let caps: u64 = outcomes.iter().map(|o| o.capping_events).sum();
        assert_eq!(caps, 0, "Central has a perfect view and should never cap");
    }

    #[test]
    fn smart_success_rate_at_least_nofeedback() {
        let agg = |p| PolicyMetrics::aggregate(p, &run(p));
        let smart = agg(PolicyKind::SmartOClock);
        let nofb = agg(PolicyKind::NoFeedback);
        assert!(
            smart.success_rate >= nofb.success_rate - 1e-9,
            "exploration should help: smart {} vs nofeedback {}",
            smart.success_rate,
            nofb.success_rate
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(PolicyKind::SmartOClock);
        let b = run(PolicyKind::SmartOClock);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.requests, y.requests);
            assert_eq!(x.granted, y.granted);
            assert_eq!(x.capping_events, y.capping_events);
        }
    }

    #[test]
    fn outage_marks_stale_steps_but_smart_never_violates() {
        let mut cfg = LargeScaleConfig::small_test();
        cfg.faults.goa_outages = 1;
        cfg.faults.goa_outage_len = SimDuration::from_hours(12);
        let outcomes = simulate(&cfg, PolicyKind::SmartOClock);
        assert!(
            outcomes.iter().any(|o| o.stale_budget_steps > 0),
            "a 12h outage must leave stale-budget steps"
        );
        for o in &outcomes {
            assert_eq!(o.violation_steps, 0, "rack {} violated", o.rack);
            assert!(o.max_draw <= o.limit);
        }
    }

    #[test]
    fn zero_fault_config_matches_default_run() {
        let base = simulate(&LargeScaleConfig::small_test(), PolicyKind::SmartOClock);
        // Same zero-probability plan under a different fault seed: the
        // timeline is empty either way, so outcomes are identical.
        let mut cfg = LargeScaleConfig::small_test();
        cfg.faults.seed = 999;
        let with_plan = simulate(&cfg, PolicyKind::SmartOClock);
        assert_eq!(base, with_plan);
    }

    #[test]
    fn uniform_binning_config_matches_default_run() {
        let base = simulate(&LargeScaleConfig::small_test(), PolicyKind::SmartOClock);
        // A uniform (single-bin, zero-spread) binning config is
        // byte-transparent no matter its seed or risk budget: the lottery
        // is degenerate, so outcomes are identical to the pre-binning run.
        let mut cfg = LargeScaleConfig::small_test();
        cfg.binning.seed = 999;
        cfg.binning.risk_budget = 0.25;
        let with_binning = simulate(&cfg, PolicyKind::SmartOClock);
        assert_eq!(base, with_binning);
    }

    #[test]
    fn binned_fleet_reports_denials_and_wear() {
        let mut cfg = LargeScaleConfig::small_test();
        cfg.binning.bins = 8;
        cfg.binning.risk_budget = 0.2;
        cfg.binning.wear_spread = 0.3;
        cfg.binning.seed = 5;
        let outcomes = simulate(&cfg, PolicyKind::SmartOClock);
        let denied: u64 = outcomes.iter().map(|o| o.bin_denied).sum();
        let down: u64 = outcomes.iter().map(|o| o.down_binned).sum();
        assert!(
            denied + down > 0,
            "aggressive binning must deny or down-bin some parts"
        );
        let wear: f64 = outcomes.iter().map(|o| o.wear_days).sum();
        assert!(wear > 0.0, "granted overclocking must accrue per-part wear");
        let m = PolicyMetrics::aggregate(PolicyKind::SmartOClock, &outcomes);
        assert_eq!(m.bin_denied, denied);
        assert_eq!(m.down_binned, down);
    }

    #[test]
    #[should_panic(expected = "trained tables' step and training start must match")]
    fn rejects_a_fleet_trained_at_another_step() {
        use crate::shard::{
            generate_fleet_probed, simulate_policy_prepared_probed, train_fleet_probed,
        };
        let cfg = LargeScaleConfig::small_test();
        let fleet = generate_fleet_probed(&cfg, 1, &NoopProbe);
        let trained = train_fleet_probed(&cfg, &fleet, 1, &NoopProbe);
        // 30 minutes divides a day, so only the trained tables can object.
        let coarser = LargeScaleConfig {
            step: SimDuration::from_minutes(30),
            ..cfg
        };
        let _ = simulate_policy_prepared_probed(
            &coarser,
            PolicyKind::SmartOClock,
            &fleet,
            &trained,
            &Telemetry::disabled(),
            1,
            &NoopProbe,
        );
    }

    #[test]
    #[should_panic(expected = "trained tables must be built from this rack")]
    fn rejects_a_fleet_trained_on_another_fleet() {
        use crate::shard::{
            generate_fleet_probed, simulate_policy_prepared_probed, train_fleet_probed,
        };
        let cfg = LargeScaleConfig::small_test();
        let fleet = generate_fleet_probed(&cfg, 1, &NoopProbe);
        // The same rack count, step and weeks, but racks of 2-3 servers
        // rather than 6-8: the zips would silently truncate to the shorter
        // side and read another rack's power.
        let other = LargeScaleConfig {
            servers_per_rack: (2, 3),
            ..cfg.clone()
        };
        let other_fleet = generate_fleet_probed(&other, 1, &NoopProbe);
        let trained = train_fleet_probed(&other, &other_fleet, 1, &NoopProbe);
        let _ = simulate_policy_prepared_probed(
            &cfg,
            PolicyKind::SmartOClock,
            &fleet,
            &trained,
            &Telemetry::disabled(),
            1,
            &NoopProbe,
        );
    }

    #[test]
    #[should_panic(expected = "trained tables must be built from this rack")]
    fn rejects_a_fleet_trained_over_other_weeks() {
        use crate::shard::{
            generate_fleet_probed, simulate_policy_prepared_probed, train_fleet_probed,
        };
        let cfg = LargeScaleConfig::small_test();
        let fleet = generate_fleet_probed(&cfg, 1, &NoopProbe);
        let trained = train_fleet_probed(&cfg, &fleet, 1, &NoopProbe);
        // Tables trained for one evaluation week, run over two: the rows
        // fit, but half of the steps would read no base power.
        let longer = LargeScaleConfig { weeks: 3, ..cfg };
        let _ = simulate_policy_prepared_probed(
            &longer,
            PolicyKind::SmartOClock,
            &fleet,
            &trained,
            &Telemetry::disabled(),
            1,
            &NoopProbe,
        );
    }

    #[test]
    #[should_panic(expected = "trace holds 1344 samples, fewer than the 2016")]
    fn rejects_a_fleet_shorter_than_the_config_when_prepared() {
        use crate::shard::{
            generate_fleet_probed, simulate_policy_prepared_probed, train_fleet_probed,
        };
        let cfg = LargeScaleConfig::small_test();
        let fleet = generate_fleet_probed(&cfg, 1, &NoopProbe);
        // A 2-week fleet under a 3-week config: the second evaluation week
        // would run past every series' end at zero power and zero demand.
        let longer = LargeScaleConfig { weeks: 3, ..cfg };
        let trained = train_fleet_probed(&longer, &fleet, 1, &NoopProbe);
        let _ = simulate_policy_prepared_probed(
            &longer,
            PolicyKind::SmartOClock,
            &fleet,
            &trained,
            &Telemetry::disabled(),
            1,
            &NoopProbe,
        );
    }

    #[test]
    #[should_panic(expected = "trace holds 1344 samples, fewer than the 2016")]
    fn rejects_a_fleet_shorter_than_the_config_on_traces() {
        use crate::shard::{generate_fleet_probed, simulate_policy_on_traces_probed};
        let cfg = LargeScaleConfig::small_test();
        let fleet = generate_fleet_probed(&cfg, 1, &NoopProbe);
        let longer = LargeScaleConfig { weeks: 3, ..cfg };
        let _ = simulate_policy_on_traces_probed(
            &longer,
            PolicyKind::SmartOClock,
            &fleet,
            &Telemetry::disabled(),
            1,
            &NoopProbe,
        );
    }

    #[test]
    #[should_panic(expected = "policy SmartOClock reads predictions, but rack 0's tables")]
    fn rejects_tables_trained_without_predictions_for_a_policy_that_reads_them() {
        let cfg = LargeScaleConfig::small_test();
        let generator = soc_traces::gen::TraceGenerator::new(cfg.seed);
        let rack = generator.generate_rack(&cfg.fleet_config(), 0);
        let model = generator.model_for(rack.generation);
        let flat = train_rack(&cfg, &rack, &model, false);
        // The policies that read none run on the flat tables.
        for policy in [PolicyKind::Central, PolicyKind::NaiveOClock] {
            let tm = Telemetry::disabled();
            let _ = simulate_rack(&cfg, policy, &rack, &model, &flat, &tm, &NoopProbe);
        }
        let tm = Telemetry::disabled();
        let _ = simulate_rack(
            &cfg,
            PolicyKind::SmartOClock,
            &rack,
            &model,
            &flat,
            &tm,
            &NoopProbe,
        );
    }

    #[test]
    #[should_panic(expected = "at least one training")]
    fn rejects_single_week() {
        let mut cfg = LargeScaleConfig::small_test();
        cfg.weeks = 1;
        let _ = simulate(&cfg, PolicyKind::SmartOClock);
    }
}
