//! # soc-cluster — experiment harnesses
//!
//! Binds the substrates (`soc-power`, `soc-workloads`, `soc-traces`,
//! `soc-predict`, `soc-reliability`) and the `smartoclock` agents into the
//! two evaluation tracks of the paper:
//!
//! * [`envs`] — single-service environment runners: *Baseline*, *Overclock*,
//!   and *ScaleOut* (Figs. 2–3), plus the RPS-sweep used for the production
//!   service results (Figs. 16–17).
//! * [`harness`] — the closed-loop cluster simulation standing in for the
//!   36-server overclockable cluster (§V-A): SocialNet instances with
//!   latency-driven Workload Intelligence, MLTrain on the power-hungry
//!   servers, rack power monitoring with warnings and prioritized capping,
//!   autoscaling environments (*Baseline*, *ScaleOut*, *ScaleUp*,
//!   *SmartOClock*, *NaiveOClock*), energy and cost accounting
//!   (Figs. 12–14, power- and overclocking-constrained experiments).
//! * [`largescale`] — the trace-driven discrete-event simulation of §V-B:
//!   hundreds of racks replaying synthetic production traces under the five
//!   policies of Table I, counting power-capping events, overclocking
//!   success rates, capping penalties, and normalized performance.
//! * [`shard`] — the large-scale sim's entry points, one per input shape,
//!   all rack-sharded across a `simcore::par` worker pool with per-shard RNG
//!   streams and buffered telemetry, merged in canonical rack order so
//!   `--threads N` runs are byte-identical to `--threads 1`:
//!   - streamed (each worker generates, trains and simulates its racks):
//!     [`simulate_policy_sharded_probed`];
//!   - on pre-generated traces: [`simulate_policy_on_traces_probed`];
//!   - on pre-generated traces and pre-trained prediction rows:
//!     [`simulate_policy_prepared_probed`];
//!   - the two preparation steps, so multi-policy drivers generate and
//!     train each rack exactly once per run: [`generate_fleet_probed`],
//!     [`train_fleet_probed`];
//!   - the closed-loop cluster fan-out: [`run_cluster_sims_probed`].
//!
//!   Every entry point takes its probe, telemetry handle and thread count
//!   explicitly (pass [`NoopProbe`], `Telemetry::disabled()` or `1` for
//!   none). Every large-scale path runs one per-rack engine, the crate's
//!   columnar (struct-of-arrays) engine: per-server control state as
//!   parallel columns, prediction rows built once at training, reused
//!   per-step buffers. The row-oriented loop it replaced lives on as the
//!   tests' reference engine (`tests/support/reference_engine.rs`), and
//!   `tests/equivalence.rs` pins the two byte-identical.
//! * [`probe`] — pure observation hooks ([`probe::ShardProbe`]) that let
//!   bench binaries attach wall-clock phase timing to the sharded engine
//!   without this crate ever reading a clock (soc-lint D002).
//! * [`ageing`] — the overclocking policies of Fig. 7 (non-overclocked,
//!   always-overclock, overclock-aware) evaluated over a utilization trace
//!   with the `soc-reliability` wear model.
//! * [`datacenter`] — extension: the §IV-C budget split applied recursively
//!   at the datacenter level (flat vs. nested enforcement on a shared feed).

#![forbid(unsafe_code)]

pub mod ageing;
mod columns;
pub mod datacenter;
pub mod envs;
pub mod harness;
pub mod largescale;
pub mod largescale_metrics;
pub mod probe;
pub mod shard;

pub use envs::{run_environment, Environment, ServiceRunResult};
pub use harness::{ClusterConfig, ClusterResult, ClusterSim, SystemKind};
pub use largescale::{LargeScaleConfig, PolicyMetrics};
pub use probe::{NoopProbe, ShardProbe};
pub use shard::{
    generate_fleet_probed, run_cluster_sims_probed, simulate_policy_on_traces_probed,
    simulate_policy_prepared_probed, simulate_policy_sharded_probed, train_fleet_probed,
    FleetTraces, TrainedFleet,
};

// The tests' reference engine, for `columns`' unit tests; it names this
// crate `soc_cluster`, as `tests/equivalence.rs` and any outside user do.
#[cfg(test)]
extern crate self as soc_cluster;
#[cfg(test)]
#[path = "../../../tests/support/reference_engine.rs"]
mod reference_engine;
