//! # soc-prof — process memory observation for SmartOClock
//!
//! A seed must fully determine every byte the workspace's sim-state crates
//! compute (soc-lint's determinism lints), so they read nothing of the
//! process they run in. Measuring how much memory the simulations take —
//! and keeping that in check as the fleet grows — needs exactly such
//! readings. This crate holds them, strictly outside the deterministic
//! core:
//!
//! * **Memory sampling** ([`mem`]) — peak RSS from procfs
//!   ([`peak_rss_bytes`]) and an opt-in counting global allocator
//!   ([`CountingAlloc`], read with [`alloc_counts`]).
//! * **The workspace JSON codec** ([`json`]), re-exported for `benchmark/`.
//!
//! Wall-clock phase timing is not here: a bench binary's
//! `soc_bench::Observer` times the engine's pure probe hooks
//! (`soc_cluster::probe::ShardProbe`) into an ordinary telemetry metrics
//! registry, and `--prof-out` writes that registry's `metric` records,
//! with [`peak_rss_bytes`] among them. Regression gating is not here
//! either: CI gates on `soc-benchmark`'s digest-checked workloads
//! (`benchmark/`, `.github/scripts/perf_gate.sh`).
//!
//! ```
//! // Bytes, once the process has touched memory (0 without procfs).
//! let rss = soc_prof::peak_rss_bytes();
//! let (allocs, bytes) = soc_prof::alloc_counts();
//! // The doctest does not install `CountingAlloc`, so nothing is counted.
//! assert_eq!((allocs, bytes), (0, 0));
//! assert!(rss == 0 || rss > 1 << 20);
//! ```

// `deny` rather than the workspace's usual `forbid`: mem.rs carries the one
// sanctioned `unsafe impl` in the tree (GlobalAlloc is an unsafe trait), a
// verbatim delegation to `std::alloc::System` plus two atomic increments.
#![deny(unsafe_code)]

pub mod mem;

pub use mem::{alloc_counts, peak_rss_bytes, CountingAlloc};
/// The workspace JSON codec, re-exported for `benchmark/`, which reads its
/// result files through this path.
pub use soc_telemetry::json;
