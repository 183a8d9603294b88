//! Rack-sharded parallel execution of the large-scale simulation.
//!
//! Racks in [`crate::largescale`] interact only at gOA epoch boundaries, and
//! each rack's trace is generated from an independent `Pcg32` stream derived
//! from `(seed, rack_id)` ([`soc_traces::gen::TraceGenerator::generate_rack`]),
//! so whole racks can run on worker threads between epochs. This module
//! deals racks across a [`simcore::par`] worker pool and merges results in
//! canonical rack order, preserving the workspace's byte-identical-per-seed
//! guarantee: `--threads N` output is identical to `--threads 1`.
//!
//! Three things make the merge exact rather than best-effort:
//!
//! 1. **Per-shard RNG**: rack traces never share generator state; the
//!    generator derives a fresh stream per rack index.
//! 2. **Per-shard telemetry**: each rack simulates into a buffered
//!    [`Telemetry`] handle ([`Telemetry::buffered`]) whose decision-id
//!    counter starts at a deterministic base ([`shard_id_base`]) instead of
//!    a shared atomic — so `decision_id`/`cause_id` fields are a pure
//!    function of `(run, rack)`, not of scheduling.
//! 3. **Canonical merge**: after the join, shard buffers are replayed into
//!    the real handle in rack order ([`Telemetry::absorb`]): events append
//!    in the order a serial run would emit them, counters add, and
//!    histograms merge bucket-wise.

use crate::harness::{ClusterConfig, ClusterResult, ClusterSim};
use crate::largescale::{
    simulate_rack, simulate_rack_reference, train_rack, LargeScaleConfig, TrainedRack,
};
use crate::largescale_metrics::RackOutcome;
use crate::probe::{NoopProbe, ShardProbe};
use simcore::par;
use simcore::time::SimDuration;
use smartoclock::policy::PolicyKind;
use soc_power::model::PowerModel;
use soc_telemetry::{MetricsSnapshot, Telemetry};
use soc_traces::fleet::RackTrace;
use soc_traces::gen::TraceGenerator;

/// Decision-id bit layout for shard-local telemetry handles:
/// `run_id << 44 | (shard + 1) << 24 | local`, giving every shard of every
/// traced run a disjoint id range (16M local ids per shard, ~1M shards per
/// run) without any cross-thread coordination. `run_id` comes from the
/// outer handle's counter *before* the fan-out, so it is identical for
/// every thread count.
const RUN_SHIFT: u32 = 44;
const SHARD_SHIFT: u32 = 24;

/// Deterministic id base for shard `shard` of traced run `run_id`.
pub fn shard_id_base(run_id: u64, shard: usize) -> u64 {
    (run_id << RUN_SHIFT) | ((shard as u64 + 1) << SHARD_SHIFT)
}

/// Simulate one policy over a fleet streamed rack by rack across `threads`
/// workers; returns per-rack outcomes in rack order (aggregate into Table I
/// rows with [`crate::largescale::PolicyMetrics::aggregate`]).
///
/// Racks are dealt over the worker pool; every rack generates its own trace,
/// trains its templates, and simulates against buffered telemetry, and
/// outcomes, events, and metrics are merged back in rack order. Output —
/// return value, event stream, and metrics registry contents — is
/// byte-identical for every `threads` value (`0` means
/// [`par::available_parallelism`]), so a serial run is just `threads = 1`.
/// With telemetry enabled, each rack emits `rack_sim_start` /
/// `rack_sim_end` events plus per-step `rack_capping` warnings, and
/// per-policy request/grant/capping counters.
///
/// The probe sees spans — `"shard/trace_gen"` and `"shard/sim"` per rack on
/// the worker side (with `"rack/setup"` nested inside `"shard/sim"`), one
/// `"merge"` span around the canonical-order absorb — plus `racks` /
/// `merged_events` / `sim_steps` counters. Probing is strictly one-way:
/// nothing the probe returns reaches simulation state, so a probed run emits
/// byte-identical traces, metrics, and outcomes to a [`NoopProbe`] run at
/// every thread count (pinned by `tests/prof.rs`).
///
/// # Panics
/// Panics if `config.weeks < 2`, `config.racks == 0`, or `config.step`
/// does not divide a day.
pub fn simulate_policy_sharded_probed(
    config: &LargeScaleConfig,
    policy: PolicyKind,
    telemetry: &Telemetry,
    threads: usize,
    probe: &dyn ShardProbe,
) -> Vec<RackOutcome> {
    validate(config);
    let generator = TraceGenerator::new(config.seed);
    let fleet_cfg = config.fleet_config();
    // The streaming path: each worker generates, trains, and simulates its
    // rack and drops the trace immediately — memory stays bounded by the
    // worker count, not the fleet size (the 100k-rack smoke test rides on
    // this). Multi-policy drivers amortize generation with
    // [`generate_fleet_probed`] + [`simulate_policy_prepared_probed`]
    // instead.
    drive_sharded(
        threads,
        (0..config.racks).collect(),
        telemetry,
        probe,
        "racks",
        |r, _, local, probe| {
            let gen_span = probe.span("shard/trace_gen");
            let rack = generator.generate_rack(&fleet_cfg, r);
            let model = generator.model_for(rack.generation);
            drop(gen_span);
            let sim_span = probe.span("shard/sim");
            let setup_span = probe.span("rack/setup");
            let trained = train_rack(config, &rack, &model);
            drop(setup_span);
            let outcome = simulate_rack(config, policy, &rack, &model, &trained, local, probe);
            drop(sim_span);
            outcome
        },
    )
}

/// Weeks/racks/step/binning validation shared by every large-scale entry
/// point. The step check is template training's own precondition, asserted
/// up front so the columnar engine's weekly slot tables can rely on it
/// (every step that divides a day also divides the week).
fn validate(config: &LargeScaleConfig) {
    assert!(
        config.weeks >= 2,
        "need at least one training and one evaluation week"
    );
    assert!(config.racks > 0, "need at least one rack");
    assert!(
        SimDuration::DAY
            .as_micros()
            .is_multiple_of(config.step.as_micros()),
        "step must divide a day evenly"
    );
    config.binning.validate();
}

/// The deterministic fan-out/merge skeleton shared by every sharded path
/// (the large-scale streaming, pre-generated and reference paths, and the
/// cluster sims): allocates the run id serially before the fan-out, gives
/// each item a buffered telemetry handle with a deterministic id base, and
/// replays shard buffers in canonical item order — so the output
/// byte-stream is a pure function of the inputs, never of `threads`. The
/// probe's `counter` advances by the item count.
fn drive_sharded<I, R, F>(
    threads: usize,
    items: Vec<I>,
    telemetry: &Telemetry,
    probe: &dyn ShardProbe,
    counter: &'static str,
    sim: F,
) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(usize, I, &Telemetry, &dyn ShardProbe) -> R + Sync,
{
    let n = items.len();
    // Allocate the run id serially, before the fan-out: thread-count
    // independent by construction (0 when telemetry is disabled).
    let run_id = telemetry.next_id();
    let enabled = telemetry.is_enabled();
    let sharded = par::par_map(threads, items, |r, item| {
        if enabled {
            let (local, sink) = Telemetry::buffered(shard_id_base(run_id, r));
            let outcome = sim(r, item, &local, probe);
            (outcome, sink.events(), local.metrics_snapshot())
        } else {
            let disabled = Telemetry::disabled();
            let outcome = sim(r, item, &disabled, probe);
            (outcome, Vec::new(), MetricsSnapshot::default())
        }
    });
    probe.add(counter, n as u64);
    let merge_span = probe.span("merge");
    let outcomes = sharded
        .into_iter()
        .map(|(outcome, events, metrics)| {
            probe.add("merged_events", events.len() as u64);
            // Feed events to the probe here, in canonical rack order on the
            // merge thread, so event-observing probes (health recorders) see
            // a deterministic sequence at every thread count.
            for e in &events {
                probe.event(e);
            }
            telemetry.absorb(&events, &metrics);
            outcome
        })
        .collect();
    drop(merge_span);
    outcomes
}

/// A fleet's traces and power models, generated once and shared across
/// policy variants and benchmark rounds, so trace generation, which would
/// dominate it, stays out of every timed path.
#[derive(Debug, Clone)]
pub struct FleetTraces {
    racks: Vec<(RackTrace, PowerModel)>,
}

impl FleetTraces {
    /// Number of racks.
    pub fn len(&self) -> usize {
        self.racks.len()
    }

    /// `true` when the fleet holds no racks.
    pub fn is_empty(&self) -> bool {
        self.racks.is_empty()
    }

    /// Iterate over `(trace, model)` pairs in rack order.
    pub fn iter(&self) -> impl Iterator<Item = &(RackTrace, PowerModel)> {
        self.racks.iter()
    }
}

/// Week-1 training output for a whole fleet (see
/// [`crate::largescale::TrainedRack`]), reusable across policy variants.
#[derive(Debug, Clone)]
pub struct TrainedFleet {
    racks: Vec<TrainedRack>,
}

impl TrainedFleet {
    /// Trained racks in rack order.
    pub fn racks(&self) -> &[TrainedRack] {
        &self.racks
    }
}

/// Generate every rack's trace exactly once, dealt across `threads` workers
/// (each rack's trace derives from an independent seeded stream, so
/// generation order is irrelevant to the bytes produced). The probe sees a
/// `"shard/trace_gen"` span per rack.
///
/// # Panics
/// Panics if `config.weeks < 2`, `config.racks == 0`, or `config.step`
/// does not divide a day.
pub fn generate_fleet_probed(
    config: &LargeScaleConfig,
    threads: usize,
    probe: &dyn ShardProbe,
) -> FleetTraces {
    validate(config);
    let generator = TraceGenerator::new(config.seed);
    let fleet_cfg = config.fleet_config();
    let racks = par::par_map(threads, (0..config.racks).collect(), |_, r| {
        let gen_span = probe.span("shard/trace_gen");
        let rack = generator.generate_rack(&fleet_cfg, r);
        let model = generator.model_for(rack.generation);
        drop(gen_span);
        (rack, model)
    });
    FleetTraces { racks }
}

/// Train every rack's templates once (`"rack/setup"` per rack), for reuse
/// across policy variants: templates depend on the trace, the model, and
/// `config.faults.prediction_bias` — not on the policy.
pub fn train_fleet_probed(
    config: &LargeScaleConfig,
    fleet: &FleetTraces,
    threads: usize,
    probe: &dyn ShardProbe,
) -> TrainedFleet {
    let racks = par::par_map(threads, fleet.racks.iter().collect(), |_, (rack, model)| {
        let setup_span = probe.span("rack/setup");
        let trained = train_rack(config, rack, model);
        drop(setup_span);
        trained
    });
    TrainedFleet { racks }
}

/// [`simulate_policy_sharded_probed`] over a pre-generated fleet and
/// pre-trained templates: the pure-simulation path (columnar engine, no
/// generation or training inside), byte-identical to the streaming path for
/// the same `(config, policy)`.
///
/// # Panics
/// Panics if `fleet` and `trained` disagree on the rack count.
pub fn simulate_policy_prepared_probed(
    config: &LargeScaleConfig,
    policy: PolicyKind,
    fleet: &FleetTraces,
    trained: &TrainedFleet,
    telemetry: &Telemetry,
    threads: usize,
    probe: &dyn ShardProbe,
) -> Vec<RackOutcome> {
    validate(config);
    assert_eq!(
        fleet.racks.len(),
        trained.racks.len(),
        "fleet and trained rack counts must match"
    );
    let items: Vec<(&(RackTrace, PowerModel), &TrainedRack)> =
        fleet.racks.iter().zip(trained.racks.iter()).collect();
    drive_sharded(
        threads,
        items,
        telemetry,
        probe,
        "racks",
        |_, ((rack, model), tr), local, probe| {
            let sim_span = probe.span("shard/sim");
            let outcome = simulate_rack(config, policy, rack, model, tr, local, probe);
            drop(sim_span);
            outcome
        },
    )
}

/// [`simulate_policy_prepared_probed`] without pre-trained templates:
/// trains inside each worker (`"rack/setup"` spans), for drivers whose
/// fault plans (and therefore prediction bias) vary between runs but whose
/// traces do not (`exp_fault_tolerance`).
pub fn simulate_policy_on_traces_probed(
    config: &LargeScaleConfig,
    policy: PolicyKind,
    fleet: &FleetTraces,
    telemetry: &Telemetry,
    threads: usize,
    probe: &dyn ShardProbe,
) -> Vec<RackOutcome> {
    validate(config);
    drive_sharded(
        threads,
        fleet.racks.iter().collect(),
        telemetry,
        probe,
        "racks",
        |_, (rack, model), local, probe| {
            let setup_span = probe.span("rack/setup");
            let trained = train_rack(config, rack, model);
            drop(setup_span);
            let sim_span = probe.span("shard/sim");
            let outcome = simulate_rack(config, policy, rack, model, &trained, local, probe);
            drop(sim_span);
            outcome
        },
    )
}

/// The retained row-oriented reference engine over the same pre-generated
/// fleet and trained templates, serial by construction.
/// `tests/equivalence.rs` pins byte-identity between this and
/// [`simulate_policy_prepared_probed`]; both consume identical inputs, so
/// any divergence is an engine bug, never a data difference.
///
/// # Panics
/// Panics if `fleet` and `trained` disagree on the rack count.
pub fn simulate_policy_prepared_reference(
    config: &LargeScaleConfig,
    policy: PolicyKind,
    fleet: &FleetTraces,
    trained: &TrainedFleet,
    telemetry: &Telemetry,
) -> Vec<RackOutcome> {
    validate(config);
    assert_eq!(
        fleet.racks.len(),
        trained.racks.len(),
        "fleet and trained rack counts must match"
    );
    let items: Vec<(&(RackTrace, PowerModel), &TrainedRack)> =
        fleet.racks.iter().zip(trained.racks.iter()).collect();
    drive_sharded(
        1,
        items,
        telemetry,
        &NoopProbe,
        "racks",
        |_, ((rack, model), tr), local, _| {
            simulate_rack_reference(config, policy, rack, model, tr, local)
        },
    )
}

/// Run several independent closed-loop cluster simulations across `threads`
/// workers (the harness-level driver behind `--threads` in experiment
/// binaries that compare systems, e.g. `exp_power_constrained`).
///
/// Each simulation gets a buffered telemetry handle with a deterministic id
/// base; buffers merge into `telemetry` in input order, so traces read as if
/// the simulations had run back to back on one thread.
///
/// The probe sees a `"shard/sim"` span per simulation, one `"merge"` span
/// around the absorb, and a `cluster_sims` counter.
pub fn run_cluster_sims_probed(
    configs: Vec<ClusterConfig>,
    telemetry: &Telemetry,
    threads: usize,
    probe: &dyn ShardProbe,
) -> Vec<ClusterResult> {
    drive_sharded(
        threads,
        configs,
        telemetry,
        probe,
        "cluster_sims",
        |_, cfg, local, probe| {
            let sim_span = probe.span("shard/sim");
            let result = ClusterSim::with_telemetry(cfg, local.clone()).run();
            drop(sim_span);
            result
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use soc_telemetry::json::event_to_json;

    fn config() -> LargeScaleConfig {
        LargeScaleConfig::small_test()
    }

    /// Render a traced run as (JSONL trace, metrics dump) for byte compare.
    fn traced_run(threads: usize) -> (String, String, Vec<RackOutcome>) {
        let (tm, sink) = Telemetry::memory();
        let outcomes = simulate_policy_sharded_probed(
            &config(),
            PolicyKind::SmartOClock,
            &tm,
            threads,
            &NoopProbe,
        );
        let trace: String = sink
            .events()
            .iter()
            .map(|e| {
                let mut line = event_to_json(e);
                line.push('\n');
                line
            })
            .collect();
        (trace, tm.metrics_snapshot().render(), outcomes)
    }

    #[test]
    fn outcomes_match_serial_reference() {
        let run = |threads| {
            simulate_policy_sharded_probed(
                &config(),
                PolicyKind::SmartOClock,
                &Telemetry::disabled(),
                threads,
                &NoopProbe,
            )
        };
        let serial = run(1);
        let sharded = run(4);
        assert_eq!(serial.len(), sharded.len());
        for (a, b) in serial.iter().zip(&sharded) {
            assert_eq!(a.rack, b.rack);
            assert_eq!(a.steps, b.steps);
            assert_eq!(a.requests, b.requests);
            assert_eq!(a.granted, b.granted);
            assert_eq!(a.capping_steps, b.capping_steps);
            assert_eq!(a.capping_events, b.capping_events);
        }
    }

    #[test]
    fn trace_and_metrics_are_thread_count_invariant() {
        let (trace_1, metrics_1, outcomes_1) = traced_run(1);
        for threads in [2, 4] {
            let (trace_n, metrics_n, outcomes_n) = traced_run(threads);
            assert_eq!(trace_1, trace_n, "threads={threads} trace diverged");
            assert_eq!(metrics_1, metrics_n, "threads={threads} metrics diverged");
            assert_eq!(outcomes_1.len(), outcomes_n.len());
        }
        assert!(!trace_1.is_empty());
        assert!(trace_1.contains("rack_sim_start"));
    }

    #[test]
    fn shard_id_bases_are_disjoint_and_ordered() {
        let bases: Vec<u64> = (0..100).map(|s| shard_id_base(1, s)).collect();
        for pair in bases.windows(2) {
            assert!(
                pair[1] - pair[0] >= 1 << SHARD_SHIFT,
                "shards must have disjoint id ranges"
            );
        }
        assert!(shard_id_base(2, 0) > shard_id_base(1, 99));
    }

    #[test]
    fn parallel_cluster_sims_match_serial_traces() {
        use crate::harness::SystemKind;
        let configs = || {
            vec![
                ClusterConfig::small_test(SystemKind::NaiveOClock),
                ClusterConfig::small_test(SystemKind::SmartOClock),
            ]
        };
        let run = |threads: usize| {
            let (tm, sink) = Telemetry::memory();
            let results = run_cluster_sims_probed(configs(), &tm, threads, &NoopProbe);
            let trace: String = sink.events().iter().map(event_to_json).collect();
            (trace, tm.metrics_snapshot().render(), results.len())
        };
        let (trace_1, metrics_1, n_1) = run(1);
        let (trace_2, metrics_2, n_2) = run(2);
        assert_eq!(n_1, 2);
        assert_eq!(n_1, n_2);
        assert_eq!(trace_1, trace_2);
        assert_eq!(metrics_1, metrics_2);
        assert!(!trace_1.is_empty());
    }
}
