//! Golden fixture tests for `soc-lint`, mirroring `crates/analyze/tests/golden.rs`.
//!
//! `fixtures/bad/*.rs` are known-bad sources (never compiled — they live
//! outside any src tree); each has a committed `.expected` file pinning the
//! exact diagnostics as `line lint-id` pairs. `fixtures/clean/clean.rs`
//! must produce nothing. `fixtures/ws_bad/` is a whole fixture *workspace*
//! exercising the graph passes (A002, D006, R004) that no single file can
//! trigger. An intentional lint change must regenerate the `.expected`
//! files (the assertion message shows the new output).
//!
//! The self-check test then lints the real workspace and asserts it is
//! clean modulo `lint.toml` — the same gate CI enforces — so a regression
//! anywhere in the tree fails here first.

use soc_lint::parser::parse_file;
use soc_lint::{check_file, run_check, AllowEntry, Allowlist, Diagnostic, Layers, SourceFile};
use std::path::{Path, PathBuf};

/// Lint `source` as if it were `crates/<crate_name>/src/fixture.rs` under
/// the builtin layer assignment and render one `line lint-id` pair per
/// diagnostic.
fn render(crate_name: &str, source: &str) -> String {
    let path = format!("crates/{crate_name}/src/fixture.rs");
    let sf = SourceFile::parse(&path, crate_name, source);
    let model = parse_file(&sf);
    let mut out = String::new();
    for d in check_file(&sf, &model, &Layers::builtin_default()) {
        out.push_str(&format!("{} {}\n", d.line, d.lint));
    }
    out
}

fn assert_golden(name: &str, crate_name: &str, source: &str, expected: &str) {
    let got = render(crate_name, source);
    assert_eq!(
        got, expected,
        "fixtures/bad/{name}.expected drifted; if the lint change is \
         intentional, update the expected file to:\n{got}"
    );
}

#[test]
fn determinism_fixture_matches_golden() {
    // Scanned as a sim-state crate so the D-lints apply.
    assert_golden(
        "determinism",
        "power",
        include_str!("fixtures/bad/determinism.rs"),
        include_str!("fixtures/bad/determinism.expected"),
    );
}

#[test]
fn units_fixture_matches_golden() {
    assert_golden(
        "units",
        "power",
        include_str!("fixtures/bad/units.rs"),
        include_str!("fixtures/bad/units.expected"),
    );
}

#[test]
fn robustness_fixture_matches_golden() {
    // Scanned as a non-sim crate: R-lints apply everywhere.
    assert_golden(
        "robustness",
        "analyze",
        include_str!("fixtures/bad/robustness.rs"),
        include_str!("fixtures/bad/robustness.expected"),
    );
}

#[test]
fn profiling_fixture_matches_golden() {
    // Scanned as a sim-state crate: referencing the observation layer
    // (soc_prof, soc_analyze) is an A001 layer violation. The same source in
    // an observation/tooling crate is clean (checked below).
    assert_golden(
        "profiling",
        "cluster",
        include_str!("fixtures/bad/profiling.rs"),
        include_str!("fixtures/bad/profiling.expected"),
    );
}

#[test]
fn profiling_fixture_is_clean_outside_sim_state() {
    // crates/prof and crates/analyze sit in the observation layer and
    // crates/bench in tooling; both layers may use observation, so the same
    // source produces no A001 there.
    for crate_name in ["prof", "analyze", "bench"] {
        let got = render(crate_name, include_str!("fixtures/bad/profiling.rs"));
        assert_eq!(
            got, "",
            "soc_prof/soc_analyze use must be allowed in crates/{crate_name}"
        );
    }
}

#[test]
fn clean_fixture_is_clean() {
    let got = render("power", include_str!("fixtures/clean/clean.rs"));
    assert_eq!(got, "", "the clean fixture must produce no diagnostics");
}

#[test]
fn bad_fixtures_cover_at_least_eight_lint_ids() {
    let mut ids: Vec<String> = Vec::new();
    for (crate_name, source) in [
        ("power", include_str!("fixtures/bad/determinism.rs")),
        ("power", include_str!("fixtures/bad/units.rs")),
        ("analyze", include_str!("fixtures/bad/robustness.rs")),
    ] {
        let path = format!("crates/{crate_name}/src/fixture.rs");
        let sf = SourceFile::parse(&path, crate_name, source);
        let model = parse_file(&sf);
        ids.extend(
            check_file(&sf, &model, &Layers::builtin_default())
                .into_iter()
                .map(|d| d.lint.to_string()),
        );
    }
    ids.sort_unstable();
    ids.dedup();
    assert!(
        ids.len() >= 8,
        "bad fixtures must exercise at least 8 distinct lints, got {ids:?}"
    );
}

// --------------------------------------------- workspace fixture (graphs) --

fn ws_bad_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws_bad")
}

/// The fixture workspace pins the graph passes: every file in it lints
/// clean per-file (modulo the helper's own R001/A001), but the workspace
/// analysis catches the sim crate laundering wall-clock time (D006),
/// panics (R004), and an observation-layer dependency (A002) through its
/// allowed helper.
#[test]
fn ws_bad_fixture_matches_golden() {
    let root = ws_bad_root();
    let report = run_check(&root, &root.join("lint.toml")).expect("fixture workspace scans");
    let got: String = report
        .blocking
        .iter()
        .map(|d| format!("{}:{} {}\n", d.path, d.line, d.lint))
        .collect();
    let expected = include_str!("fixtures/ws_bad/expected.txt");
    assert_eq!(
        got, expected,
        "fixtures/ws_bad/expected.txt drifted; if the lint change is \
         intentional, update it to:\n{got}"
    );
    // The headline catches: laundered non-determinism and the transitive
    // layer breach must both be present, flagged in the *sim* crate even
    // though the offending tokens live in the helper.
    for lint in ["A002", "D006", "R004"] {
        assert!(
            report
                .blocking
                .iter()
                .any(|d| d.lint == lint && d.path.contains("simx")),
            "expected a {lint} diagnostic in the simx crate"
        );
    }
    assert!(
        report
            .blocking
            .iter()
            .any(|d| d.lint == "A001" && d.path.contains("helper")),
        "expected the helper's direct observation-layer reference to flag A001"
    );
}

// ------------------------------------------------- allowlist ratchet gate --

/// A waiver that matches nothing is reported as stale, and the `check`
/// subcommand exits non-zero for it — dead entries cannot accumulate.
#[test]
fn stale_waiver_is_reported_and_fails_check() {
    let root = ws_bad_root();
    let report = run_check(&root, &root.join("stale.toml")).expect("fixture workspace scans");
    assert!(
        report.blocking.is_empty(),
        "stale.toml waives every real diagnostic; blocking: {:?}",
        report.blocking
    );
    assert_eq!(
        report.stale.len(),
        1,
        "exactly the line-999 entry must be stale, got {:?}",
        report.stale
    );
    assert_eq!(report.stale[0].line, Some(999));

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_soc-lint"))
        .args(["check", "--root"])
        .arg(&root)
        .arg("--allowlist")
        .arg(root.join("stale.toml"))
        .output()
        .expect("soc-lint binary runs");
    assert!(
        !out.status.success(),
        "`soc-lint check` must exit non-zero on a stale waiver:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_soc-lint"))
        .args(["ratchet", "--root"])
        .arg(&root)
        .arg("--allowlist")
        .arg(root.join("stale.toml"))
        .output()
        .expect("soc-lint binary runs");
    assert!(
        !out.status.success(),
        "`soc-lint ratchet` must fail on a stale waiver:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("stale"),
        "ratchet output names the stale waiver"
    );
}

/// File-wide waivers (no `line` key) match the file's diagnostics wherever
/// they land, so routine edits that shift line numbers don't invalidate the
/// waiver or flip CI red.
#[test]
fn file_wide_waiver_survives_line_drift() {
    let allow = Allowlist {
        entries: vec![AllowEntry {
            lint: "R001".to_string(),
            path: "crates/x/src/lib.rs".to_string(),
            line: None,
            justification: "whole-file invariant".to_string(),
        }],
    };
    let diag = |line| Diagnostic {
        lint: "R001",
        path: "crates/x/src/lib.rs".to_string(),
        line,
        message: "unwrap".to_string(),
    };
    // The same violation before and after a 40-line drift.
    let (blocking, waived, stale) = allow.apply(vec![diag(5), diag(45)]);
    assert!(blocking.is_empty(), "both drifted sites stay waived");
    assert_eq!(waived.len(), 2);
    assert!(stale.is_empty(), "a matching file-wide entry is not stale");
}

/// The real workspace is lint-clean modulo lint.toml, with no stale waivers.
#[test]
fn workspace_self_check() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate lives at <root>/crates/lint");
    let report = run_check(root, &root.join("lint.toml")).expect("workspace scan succeeds");
    assert!(
        report.files > 50,
        "expected to scan the whole workspace, saw only {} files",
        report.files
    );
    let rendered: Vec<String> = report
        .blocking
        .iter()
        .map(|d| format!("{}:{}: {} {}", d.path, d.line, d.lint, d.message))
        .collect();
    assert!(
        report.blocking.is_empty(),
        "workspace has non-allowlisted lint violations:\n{}",
        rendered.join("\n")
    );
    let stale: Vec<String> = report
        .stale
        .iter()
        .map(|e| format!("{} {}", e.lint, e.path))
        .collect();
    assert!(
        report.stale.is_empty(),
        "lint.toml has stale waivers (delete them): {stale:?}"
    );
}
