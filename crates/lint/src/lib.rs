//! `soc-lint` — determinism- and unit-safety static analysis for the
//! SmartOClock workspace.
//!
//! Two invariants make this reproduction trustworthy and neither is checked
//! by the compiler:
//!
//! 1. **Bit-determinism per seed.** Causal-trace diffs (`soc-analyze diff`)
//!    only mean anything because two runs with the same seed are
//!    byte-identical. One `HashMap` iteration, `Instant::now()`, or
//!    `thread_rng()` in simulation state silently breaks that.
//! 2. **Unit safety.** Admission control and budget enforcement are
//!    watt/megahertz arithmetic end to end; a raw `f64` watt parameter is
//!    one call site away from a mis-scaled budget that quietly disables
//!    capping.
//!
//! `soc-lint` walks every `crates/*/src/**/*.rs`, tokenizes it with a small
//! hand-rolled lexer ([`lexer`]), parses an item-level model ([`parser`]),
//! and builds the workspace crate-dependency and call graphs ([`graph`]).
//! On top of those it enforces the catalog in [`catalog`]: A-lints
//! (architecture layering, per the `[layers]` tables in `lint.toml`),
//! D-lints (determinism), U-lints (units), R-lints (robustness) — per-file
//! token queries in [`checks`], graph passes in [`workspace`] and
//! [`taint`], and the public-surface pass (A003: every bare `pub` item has
//! a caller outside its library). The taint passes catch what no per-file
//! query can: a sim-state crate laundering a wall-clock read or a panic
//! through a helper crate that lints clean on its own. Pre-existing violations
//! ratchet down through `lint.toml` ([`allowlist`]): every waiver carries
//! a written justification, stale waivers fail the check, and the ratchet
//! pins the entry count to a committed baseline.
//!
//! ```text
//! cargo run -p soc-lint -- check          # human diagnostics, exit 1 on violations
//! cargo run -p soc-lint -- json           # same check, JSON report on stdout
//! cargo run -p soc-lint -- sarif          # same check, SARIF 2.1.0 log
//! cargo run -p soc-lint -- graph          # crate dependency graph (DOT/JSON)
//! cargo run -p soc-lint -- ratchet        # allowlist-growth gate
//! cargo run -p soc-lint -- list           # the lint catalog with rationales
//! ```

#![forbid(unsafe_code)]

pub mod allowlist;
pub mod catalog;
pub mod checks;
pub mod config;
pub mod graph;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod sarif;
pub mod source;
mod surface;
pub mod taint;
pub mod workspace;

pub use allowlist::{AllowEntry, Allowlist};
pub use catalog::{lint, Category, LintInfo, CATALOG};
pub use checks::{check_file, Diagnostic};
pub use config::{Layers, LintConfig};
pub use report::{render_catalog, CheckReport};
pub use source::SourceFile;
pub use workspace::{analyze_workspace, run_check, Analysis};
