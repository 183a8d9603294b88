//! Rack-sharded parallel execution of the large-scale simulation.
//!
//! Racks in [`crate::largescale`] interact only at gOA epoch boundaries, and
//! each rack's trace is generated from an independent `Pcg32` stream derived
//! from `(seed, rack_id)` ([`soc_traces::gen::TraceGenerator::generate_rack`]),
//! so whole racks can run on worker threads between epochs. This module
//! hands racks to a [`simcore::par`] worker pool and merges results in
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
//!
//! Cluster simulations ([`run_cluster_sims_probed`]) use the same buffered
//! telemetry and merge, but run in **tick lockstep** rather than one whole
//! simulation per item: every simulation finishes control tick `k` before
//! any starts `k + 1`. The SocialNet load is open-loop, so an instance's
//! arrival stream depends only on `(spec, schedule, seed)`; simulations
//! that agree on that key read one shared [`Traffic`] buffer, filled past
//! the tick's end before the tick and released after it up to what every
//! still-running reader consumed. Memory is bounded by about one tick of
//! arrivals per distinct stream, one window-latency scratch per worker, and
//! the simulations' own state.
//!
//! The queues are shared too, for as long as they agree. Until a control
//! system acts, its instances queue exactly as the other systems' do, so
//! each tick groups the instances by (stream, tick end, queue state) and
//! advances one representative per group; the others copy its post-tick
//! state and window stats (copy-on-divergence: the copy is redone every
//! tick, and a group splits as soon as control changes one member's
//! queue). The state comparison ([`MicroserviceSim::same_state`]) is
//! bitwise, and the queueing model is a pure function of state, stream and
//! window end, so a copy is exactly what the follower would have computed.

use crate::harness::{ClusterConfig, ClusterResult, ClusterSim};
use crate::largescale::{simulate_rack, train_rack, LargeScaleConfig, TrainedRack};
use crate::largescale_metrics::RackOutcome;
use crate::probe::ShardProbe;
use simcore::par;
use simcore::time::{SimDuration, SimTime};
use smartoclock::policy::PolicyKind;
use soc_power::model::PowerModel;
use soc_telemetry::{Event, MemorySink, MetricsSnapshot, Telemetry};
use soc_traces::fleet::RackTrace;
use soc_traces::gen::TraceGenerator;
use soc_workloads::microservice::{MicroserviceSim, Traffic, WindowStats};
use std::sync::{Arc, Mutex};

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
/// Workers claim racks one at a time; every rack generates its own trace,
/// trains its templates (only for a policy that reads them, see
/// [`PolicyKind::reads_predictions`]), and simulates against buffered
/// telemetry, and
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
/// byte-identical traces, metrics, and outcomes to a
/// [`NoopProbe`](crate::probe::NoopProbe) run at every thread count (pinned
/// by `tests/prof.rs`).
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
            let trained = train_rack(config, &rack, &model, policy.reads_predictions());
            drop(setup_span);
            let outcome = simulate_rack(config, policy, &rack, &model, &trained, local, probe);
            drop(sim_span);
            outcome
        },
    )
}

/// Weeks/racks/step/binning validation shared by every large-scale entry
/// point. The step check is template training's own precondition, asserted
/// up front so the prediction rows built at training can rely on it (every
/// step that divides a day also divides the week).
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

/// The deterministic fan-out/merge skeleton shared by every large-scale
/// path (streaming, on traces and prepared): allocates the run id
/// serially before the fan-out, gives each item a buffered telemetry handle
/// with a deterministic id base ([`Shard`]), and replays shard buffers in
/// canonical item order ([`merge`]) — so the output byte-stream is a pure
/// function of the inputs, never of `threads`. The probe's `counter`
/// advances by the item count.
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
    // Allocate the run id serially, before the fan-out: thread-count
    // independent by construction (0 when telemetry is disabled).
    let run_id = telemetry.next_id();
    let enabled = telemetry.is_enabled();
    let sharded = par::par_map(threads, items, |r, item| {
        let shard = Shard::new(enabled, run_id, r);
        let outcome = sim(r, item, &shard.telemetry, probe);
        (outcome, shard.into_buffers())
    });
    merge(sharded, telemetry, probe, counter)
}

/// One item's telemetry: a private buffer whose decision ids start at
/// [`shard_id_base`], or a disabled handle when the run is not traced.
struct Shard {
    telemetry: Telemetry,
    sink: Option<Arc<MemorySink>>,
}

impl Shard {
    fn new(enabled: bool, run_id: u64, item: usize) -> Shard {
        if enabled {
            let (telemetry, sink) = Telemetry::buffered(shard_id_base(run_id, item));
            Shard {
                telemetry,
                sink: Some(sink),
            }
        } else {
            Shard {
                telemetry: Telemetry::disabled(),
                sink: None,
            }
        }
    }

    /// The buffered events (moved out of the sink, not copied) and metrics.
    fn into_buffers(self) -> (Vec<Event>, MetricsSnapshot) {
        let events = self.sink.map(|sink| sink.take()).unwrap_or_default();
        (events, self.telemetry.metrics_snapshot())
    }
}

/// Replay each item's buffer into `telemetry` in item order, feeding the
/// probe `merged_events` and every event on the way, and return the
/// outcomes in the same order.
fn merge<R>(
    sharded: Vec<(R, (Vec<Event>, MetricsSnapshot))>,
    telemetry: &Telemetry,
    probe: &dyn ShardProbe,
    counter: &'static str,
) -> Vec<R> {
    probe.add(counter, sharded.len() as u64);
    let merge_span = probe.span("merge");
    let outcomes = sharded
        .into_iter()
        .map(|(outcome, (events, metrics))| {
            probe.add("merged_events", events.len() as u64);
            // Feed events to the probe here, in canonical item order on the
            // merge thread, so event-observing probes (health recorders) see
            // a deterministic sequence at every thread count.
            for e in &events {
                probe.event(e);
            }
            telemetry.absorb(events, &metrics);
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

/// Week-1 training output for a whole fleet, reusable across policy
/// variants: each rack's prediction rows, in rack order.
#[derive(Debug, Clone)]
pub struct TrainedFleet {
    racks: Vec<TrainedRack>,
}

/// Generate every rack's trace exactly once, claimed by `threads` workers
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

/// Train every rack's templates and build their prediction rows once
/// (`"rack/setup"` per rack), for reuse across
/// policy variants and rounds: they depend on the trace, the model,
/// `config.step`, `config.weeks` and `config.faults.prediction_bias`, not
/// on the policy, and serve all five policies (templates are trained even
/// though `Central` and `NaiveOClock` never read them). Simulating with a config of another step or length, or
/// over another fleet's racks, panics rather than read tables for the
/// wrong instants or servers.
///
/// # Panics
/// Panics if a rack's trace holds fewer samples than `config.weeks` weeks
/// at `config.step` (a fleet generated for fewer weeks than the config).
pub fn train_fleet_probed(
    config: &LargeScaleConfig,
    fleet: &FleetTraces,
    threads: usize,
    probe: &dyn ShardProbe,
) -> TrainedFleet {
    let racks = par::par_map(threads, fleet.racks.iter().collect(), |_, (rack, model)| {
        let setup_span = probe.span("rack/setup");
        let trained = train_rack(config, rack, model, true);
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
/// Panics if `fleet` and `trained` disagree on the rack count, or if a
/// rack's tables were trained from another rack or at another step or
/// length (see [`train_fleet_probed`]).
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
/// traces do not (`exp_fault_tolerance`). Like the streaming path it trains
/// templates only for a policy that reads them; a policy that does not
/// gets flat rows. Output is byte-identical to
/// [`simulate_policy_prepared_probed`] over a [`train_fleet_probed`] fleet.
///
/// # Panics
/// Panics if `config.weeks < 2`, `config.racks == 0`, `config.step` does
/// not divide a day, or a rack's trace holds fewer samples than
/// `config.weeks` weeks at `config.step`.
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
            let trained = train_rack(config, rack, model, policy.reads_predictions());
            drop(setup_span);
            let sim_span = probe.span("shard/sim");
            let outcome = simulate_rack(config, policy, rack, model, &trained, local, probe);
            drop(sim_span);
            outcome
        },
    )
}

/// Run several independent closed-loop cluster simulations across `threads`
/// workers (the harness-level driver behind `--threads` in experiment
/// binaries that compare systems, e.g. `exp_power_constrained`).
///
/// The simulations run in tick lockstep (see the module docs), so each
/// distinct SocialNet arrival stream is sampled once for all of them, and
/// each distinct queue state is advanced once per tick. Each
/// simulation writes to a buffered telemetry handle with a deterministic id
/// base; buffers merge into `telemetry` in input order, so traces read as if
/// the simulations had run back to back on one thread.
///
/// The probe sees `"shard/sim"` spans around each stream's fill, each
/// distinct queue's advance, each simulation's tick close, and the serial
/// grouping and copying of each tick; one `"merge"` span around the absorb;
/// and the counters `cluster_sims`, `cluster/queue_advances` (queues
/// advanced) and `cluster/queue_shared` (queues copied from an equal one).
///
/// # Panics
/// Panics if a configuration has no SocialNet servers or a zero `tick`.
pub fn run_cluster_sims_probed(
    configs: Vec<ClusterConfig>,
    telemetry: &Telemetry,
    threads: usize,
    probe: &dyn ShardProbe,
) -> Vec<ClusterResult> {
    let run_id = telemetry.next_id();
    let enabled = telemetry.is_enabled();
    let (sims, shards): (Vec<ClusterSim>, Vec<Shard>) = configs
        .into_iter()
        .enumerate()
        .map(|(r, cfg)| {
            let shard = Shard::new(enabled, run_id, r);
            (
                ClusterSim::with_telemetry(cfg, shard.telemetry.clone()),
                shard,
            )
        })
        .unzip();
    let results = lockstep(sims, threads, probe);
    merge(
        results
            .into_iter()
            .zip(shards.into_iter().map(Shard::into_buffers))
            .collect(),
        telemetry,
        probe,
        "cluster_sims",
    )
}

/// Run cluster simulations tick by tick, all advancing tick `k` before any
/// starts tick `k + 1`.
///
/// The queueing model is open-loop, so an instance's arrivals are a function
/// of its service, rate schedule and seed alone; simulations that agree on
/// those read one shared [`Traffic`] generator (equal fresh generators are
/// one stream). Each tick then goes:
///
/// 1. open the tick on every running simulation
///    ([`ClusterSim::begin_tick`]: faults, finished boots);
/// 2. group the running instances by the key (stream, tick end, queue
///    state): an instance joins the first representative that reads the
///    same stream to the same tick end and whose queue is in the same state
///    ([`MicroserviceSim::same_state`]), or becomes a representative itself;
/// 3. on the worker pool, one task per stream: fill it past its readers'
///    tick ends, then advance its representatives' queues over it. Tasks
///    go to [`par::par_map`] heaviest first by the work each stream took
///    at the last tick, and idle workers claim the next one, so the pool
///    runs the longest tasks first;
/// 4. copy each representative's post-tick queue into its followers
///    (`clone_from`), and its window stats with them;
/// 5. close the tick on every running simulation, in order
///    ([`ClusterSim::end_tick`]: control, power, capping);
/// 6. release the arrivals every still-running reader has consumed.
///
/// Sharing is exact, not approximate: the state comparison is bitwise, and
/// equal state, equal stream and equal tick end give equal output. A copy
/// lasts one tick (copy-on-divergence): control that acts differently on
/// two copies splits their group at the next tick. A stream's buffer holds
/// about one tick of arrivals, and the window-latency scratch is one buffer
/// per running task.
///
/// The probe sees a `"shard/sim"` span around each tick's opening and
/// grouping, each stream fill, each representative's advance, each tick's
/// copying, and each simulation's tick close; its `cluster/queue_advances`
/// and `cluster/queue_shared` counters add each tick's representatives and
/// followers.
pub(crate) fn lockstep(
    mut sims: Vec<ClusterSim>,
    threads: usize,
    probe: &dyn ShardProbe,
) -> Vec<ClusterResult> {
    let mut streams: Vec<Traffic> = Vec::new();
    // `feeds[c][i]`: the stream simulation `c`'s instance `i` reads.
    let feeds: Vec<Vec<usize>> = sims
        .iter_mut()
        .map(|sim| {
            sim.start()
                .into_iter()
                .map(|traffic| {
                    streams
                        .iter()
                        .position(|s| *s == traffic)
                        .unwrap_or_else(|| {
                            streams.push(traffic);
                            streams.len() - 1
                        })
                })
                .collect()
        })
        .collect();
    let last = sims.iter().map(ClusterSim::ticks).max().unwrap_or(0);
    let scratch: Mutex<Vec<Vec<f64>>> = Mutex::new(Vec::new());
    // Each stream's queueing work at the last tick (arrivals plus
    // completions over its representatives): the next tick runs the
    // heaviest streams first.
    let mut work: Vec<u64> = vec![0; streams.len()];
    for k in 1..=last {
        let open_span = probe.span("shard/sim");
        let mut live: Vec<(&mut ClusterSim, &Vec<usize>)> = sims
            .iter_mut()
            .zip(&feeds)
            .filter(|(sim, _)| k <= sim.ticks())
            .collect();
        for (sim, _) in &mut live {
            sim.begin_tick(k);
        }

        // Group every running instance's queue: `reps` are advanced, each
        // of `followers` copies `reps[r]`, and `group[q]` is the
        // representative of the `q`-th queue in (simulation, instance) order.
        let mut reps: Vec<(usize, SimTime, &mut MicroserviceSim)> = Vec::new();
        let mut followers: Vec<(usize, &mut MicroserviceSim)> = Vec::new();
        let mut group: Vec<usize> = Vec::new();
        for (sim, feed) in &mut live {
            let until = sim.tick_end(k);
            for (queue, &j) in sim.queues_mut().zip(feed.iter()) {
                let found = reps
                    .iter()
                    .position(|(rj, ru, rep)| *rj == j && *ru == until && rep.same_state(queue));
                match found {
                    Some(r) => {
                        followers.push((r, queue));
                        group.push(r);
                    }
                    None => {
                        group.push(reps.len());
                        reps.push((j, until, queue));
                    }
                }
            }
        }
        probe.add("cluster/queue_advances", reps.len() as u64);
        probe.add("cluster/queue_shared", followers.len() as u64);

        // One task per stream with a running reader: the stream, to fill
        // past its readers' tick ends, and its representatives as
        // `(representative index, tick end, queue)`, to advance over it.
        let mut tasks: Vec<(usize, &mut Traffic, Vec<_>)> = streams
            .iter_mut()
            .enumerate()
            .map(|(j, stream)| (j, stream, Vec::new()))
            .collect();
        for (r, (j, until, queue)) in reps.into_iter().enumerate() {
            tasks[j].2.push((r, until, queue));
        }
        tasks.retain(|(_, _, readers)| !readers.is_empty());
        tasks.sort_by_key(|(j, _, _)| std::cmp::Reverse(work[*j]));
        drop(open_span);

        let mut advanced = par::par_map(threads, tasks, |_, (j, stream, readers)| {
            // One latency scratch per running task: the pool holds at most
            // one per worker, and what a buffer holds never matters.
            const HELD_BRIEFLY: &str = "the scratch pool lock is held only to pop or push";
            let mut latencies = scratch
                .lock()
                .expect(HELD_BRIEFLY)
                .pop()
                .unwrap_or_default();
            let fill_span = probe.span("shard/sim");
            if let Some(horizon) = readers.iter().map(|(_, until, _)| *until).max() {
                stream.fill(horizon);
            }
            drop(fill_span);
            let out: Vec<_> = readers
                .into_iter()
                .map(|(r, until, queue)| {
                    let sim_span = probe.span("shard/sim");
                    let stats = queue.advance_window(until, stream, &mut latencies);
                    drop(sim_span);
                    (r, j, queue, stats)
                })
                .collect();
            scratch.lock().expect(HELD_BRIEFLY).push(latencies);
            out
        })
        .into_iter()
        .flatten()
        .collect::<Vec<_>>();
        advanced.sort_unstable_by_key(|(r, ..)| *r);
        work.fill(0);
        for (_, j, _, stats) in &advanced {
            work[*j] += stats.arrivals + stats.completions;
        }

        let copy_span = probe.span("shard/sim");
        for (r, follower) in followers {
            follower.clone_from(advanced[r].2);
        }
        let windows: Vec<WindowStats> = group.into_iter().map(|r| advanced[r].3).collect();
        drop(copy_span);
        // The control half is about 1.5% of a tick's work, less than a
        // fan-out costs, so it runs here in simulation order.
        let mut windows = windows.as_slice();
        for (sim, feed) in live {
            let (stats, rest) = windows.split_at(feed.len());
            windows = rest;
            let sim_span = probe.span("shard/sim");
            sim.end_tick(k, stats);
            drop(sim_span);
        }

        let mut consumed = vec![u64::MAX; streams.len()];
        for (sim, feed) in sims.iter().zip(&feeds).filter(|(sim, _)| k < sim.ticks()) {
            for (i, &j) in feed.iter().enumerate() {
                consumed[j] = consumed[j].min(sim.consumed(i));
            }
        }
        for (stream, consumed) in streams.iter_mut().zip(consumed) {
            stream.release(consumed);
        }
    }
    sims.into_iter().map(ClusterSim::finish).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::NoopProbe;
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
