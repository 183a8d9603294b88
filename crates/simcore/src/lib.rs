//! # simcore — simulation substrate for the SmartOClock reproduction
//!
//! This crate provides the deterministic building blocks every other crate in
//! the workspace rests on:
//!
//! * [`time`] — simulated time ([`SimTime`], [`SimDuration`]) with calendar
//!   helpers (time-of-day, weekday) used by power templates and epochs.
//! * [`faults`] — seeded, sim-time fault schedules ([`faults::FaultPlan`])
//!   for control-plane chaos testing; pure functions of the plan seed, so
//!   fault timelines are byte-reproducible and shard-order independent.
//! * [`rng`] — a seeded PCG32 generator ([`rng::Pcg32`]) plus the sampling
//!   distributions the workload and trace generators need.
//! * [`stats`] — percentiles, RMSE, CDFs, and summary statistics.
//! * [`hist`] — log-bucketed histograms for high-volume latency recording.
//! * [`par`] — deterministic sharded parallel execution ([`par::par_map`]):
//!   scoped worker threads with canonical-order result merge, so thread
//!   count never changes a single output byte.
//! * [`series`] — regular time series with time-of-day aggregation.
//! * [`report`] — plain-text table/CSV rendering for experiment binaries.
//!
//! Everything here is pure Rust with no I/O and no global state; two runs with
//! the same seed produce byte-identical results.
//!
//! ```
//! use simcore::rng::Pcg32;
//! use simcore::stats::percentile;
//!
//! let mut rng = Pcg32::seed_from_u64(7);
//! let xs: Vec<f64> = (0..1000).map(|_| rng.next_f64()).collect();
//! let p99 = percentile(&xs, 99.0);
//! assert!(p99 > 0.9 && p99 <= 1.0);
//! ```

#![forbid(unsafe_code)]

pub mod faults;
pub mod hist;
pub mod par;
pub mod report;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;

pub use rng::Pcg32;
pub use series::TimeSeries;
pub use time::{SimDuration, SimTime, Weekday};
