//! `soc-analyze`: offline analysis of SmartOClock JSONL telemetry traces.
//!
//! The telemetry layer (`soc-telemetry`) emits JSONL traces whose
//! control-plane events carry causal correlation ids: a `decision_id` names
//! the decision an event records, a `cause_id` points at the parent decision
//! (`0` = no parent). This crate consumes those traces and answers the
//! questions the paper's evaluation revolves around:
//!
//! * **why** — [`chains`] reconstructs warning → cap → revoke → SLO-miss
//!   timelines by walking `cause_id` links;
//! * **who pays** — [`attribution`] splits SLO-missed windows into capping
//!   vs. admission-denial vs. queueing, per service tier;
//! * **how much** — [`rollup`] summarizes event classes and end-of-run
//!   counter/gauge/histogram dumps;
//! * **what changed** — [`diff`] compares two runs (e.g. `SmartOClock` vs
//!   `NaiveOClock`) with per-metric deltas and newly-appearing event classes.
//!
//! Traces are read with the workspace's one JSON codec,
//! [`soc_telemetry::json`], so the crate has no external dependencies. All
//! outputs are deterministic — analyzing the same set of trace lines yields
//! byte-identical reports regardless of line order ([`trace::Trace`] sorts
//! canonically on load).

#![forbid(unsafe_code)]

pub mod attribution;
pub mod chains;
pub mod diff;
pub mod report;
pub mod rollup;
pub mod trace;

pub use attribution::AttributionCounts;
pub use diff::TraceDiff;
pub use report::full_report;
pub use trace::{Trace, TraceError, TraceEvent};
