//! Per-file lint implementations. Each check is a token- or item-pattern
//! query over a [`SourceFile`] and its parsed [`FileModel`]; together they
//! emit only ids present in the catalog.
//!
//! Which crates count as simulation state is no longer a hard-coded list:
//! it comes from the `[layers]` section of `lint.toml` (or the built-in
//! default in [`crate::config::Layers::builtin_default`]). The same layer
//! model drives A001 here and A002/D006/R004 in the workspace passes.

use crate::config::Layers;
use crate::graph::ident_names_crate;
use crate::lexer::{Token, TokenKind};
use crate::parser::{fn_params, struct_fields, FileModel};
use crate::source::SourceFile;

/// One lint violation at a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Catalog id (`D001`).
    pub lint: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// What was found, concretely.
    pub message: String,
}

/// Run every applicable per-file lint over one file. Diagnostics are
/// deduplicated per `(lint, line)` and sorted by `(line, lint)`.
pub fn check_file(src: &SourceFile, model: &FileModel, layers: &Layers) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let sim_state = layers.sim_state_crates().contains(src.crate_name.as_str());
    if sim_state {
        determinism_lints(src, &mut diags);
        unit_lints(src, &mut diags);
        unit_flow_lints(src, model, &mut diags);
    }
    architecture_lints(src, model, layers, &mut diags);
    if !src.is_bin {
        robustness_lints(src, &mut diags);
    }
    diags.sort_by(|a, b| (a.line, a.lint).cmp(&(b.line, b.lint)));
    diags.dedup_by(|a, b| a.lint == b.lint && a.line == b.line);
    diags
}

fn push(diags: &mut Vec<Diagnostic>, src: &SourceFile, lint: &'static str, line: u32, msg: String) {
    diags.push(Diagnostic {
        lint,
        path: src.path.clone(),
        line,
        message: msg,
    });
}

// ---------------------------------------------------------------- A-lints --

/// A001: a reference to a workspace crate whose layer this crate's layer may
/// not use. Purely declarative — the tiers and their allowed edges live in
/// `lint.toml`, so moving a crate between layers is a config change, not a
/// lint release. Transitive violations (an allowed intermediary that itself
/// reaches a forbidden layer) are A002's job in the workspace pass.
fn architecture_lints(
    src: &SourceFile,
    model: &FileModel,
    layers: &Layers,
    diags: &mut Vec<Diagnostic>,
) {
    let Some(my_layer) = layers.layer_of(&src.crate_name) else {
        return; // unassigned crates carry no layering obligations
    };
    for root in &model.path_roots {
        let Some(target) = layers
            .all_crates()
            .into_iter()
            .find(|c| ident_names_crate(&root.name, c))
        else {
            continue;
        };
        if target == src.crate_name {
            continue;
        }
        let Some(target_layer) = layers.layer_of(target) else {
            continue;
        };
        if !layers.allows(my_layer, target_layer) {
            push(
                diags,
                src,
                "A001",
                root.line,
                format!(
                    "crate `{}` (layer `{my_layer}`) references `{}` (layer `{target_layer}`), \
                     which `[layers.{my_layer}]` in lint.toml does not allow",
                    src.crate_name, root.name
                ),
            );
        }
    }
}

// ---------------------------------------------------------------- D-lints --

/// D001–D005 apply to the whole file, test code included: a flaky test from
/// hash-order or wall-clock dependence costs the same debugging time as a
/// flaky simulation. There are no hard-coded path carve-outs: the sanctioned
/// threading home (`simcore::par`) holds a justified file-wide D005 waiver in
/// `lint.toml` like any other exception.
fn determinism_lints(src: &SourceFile, diags: &mut Vec<Diagnostic>) {
    let toks = &src.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let (lint, msg) = match classify_site(toks, i) {
            Some(Site::WallClock) => (
                "D002",
                format!("std::time::{} reads the wall clock; sim time must come from simcore::time::SimTime", t.text),
            ),
            Some(Site::Env) => (
                "D003",
                "std::env read in sim-state crate; pass configuration explicitly".to_string(),
            ),
            Some(Site::ThreadRng) => (
                "D004",
                "thread_rng seeds from the OS; draw from the run's simcore::rng::Pcg32 stream".to_string(),
            ),
            Some(Site::RandCrate) => (
                "D004",
                "the `rand` crate is non-deterministic across versions and platforms; use simcore::rng::Pcg32".to_string(),
            ),
            Some(Site::Unwrap | Site::Expect | Site::PanicMacro) => continue,
            None => match t.text.as_str() {
                "HashMap" | "HashSet" => (
                    "D001",
                    format!("{} in sim-state crate `{}`; hash iteration order is per-process random — use BTreeMap/BTreeSet", t.text, src.crate_name),
                ),
                "thread" if path_prefix(toks, i, "std") => (
                    "D005",
                    "std::thread in sim-state crate; scheduler interleaving varies per run — shard through simcore::par::par_map".to_string(),
                ),
                "mpsc" => (
                    "D005",
                    "channel use in sim-state crate; message arrival order is scheduler-dependent — shard through simcore::par::par_map".to_string(),
                ),
                "crossbeam" if is_crate_use(toks, i) => (
                    "D005",
                    "crossbeam channels in sim-state crate; message arrival order is scheduler-dependent — shard through simcore::par::par_map".to_string(),
                ),
                _ => continue,
            },
        };
        push(diags, src, lint, t.line, msg);
    }
}

/// A token that starts a panic site or reads a non-deterministic source.
/// The per-file lints (R001/R002, D002–D004) and the workspace taint passes
/// (R004, D006) classify tokens through [`classify_site`] alone, so the two
/// agree on what a site is; each keeps its own messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Site {
    /// `.unwrap()` with no argument.
    Unwrap,
    /// `.expect("…")` with a string message: a non-string argument means an
    /// ordinary method that happens to be named expect (the JSON parser has
    /// one).
    Expect,
    /// `panic!`, `todo!` or `unimplemented!`.
    PanicMacro,
    /// `Instant` or `SystemTime`: the wall clock.
    WallClock,
    /// `std::env`: the process environment.
    Env,
    /// `thread_rng`: OS-seeded randomness.
    ThreadRng,
    /// The `rand` crate used as a path root.
    RandCrate,
}

/// The [`Site`] that token `i` starts, if any.
pub(crate) fn classify_site(toks: &[Token], i: usize) -> Option<Site> {
    let t = &toks[i];
    if t.kind != TokenKind::Ident {
        return None;
    }
    let method_call =
        i >= 1 && toks[i - 1].is_punct(".") && toks.get(i + 1).is_some_and(|n| n.is_punct("("));
    match t.text.as_str() {
        "unwrap" if method_call && toks.get(i + 2).is_some_and(|n| n.is_punct(")")) => {
            Some(Site::Unwrap)
        }
        "expect" if method_call && toks.get(i + 2).is_some_and(|n| n.text == "\"…\"") => {
            Some(Site::Expect)
        }
        "panic" | "todo" | "unimplemented" if toks.get(i + 1).is_some_and(|n| n.is_punct("!")) => {
            Some(Site::PanicMacro)
        }
        "Instant" | "SystemTime" => Some(Site::WallClock),
        "env" if path_prefix(toks, i, "std") => Some(Site::Env),
        "thread_rng" => Some(Site::ThreadRng),
        "rand" if is_crate_use(toks, i) => Some(Site::RandCrate),
        _ => None,
    }
}

/// Is token `i` the segment right after `prefix ::`?
fn path_prefix(toks: &[Token], i: usize, prefix: &str) -> bool {
    i >= 2 && toks[i - 1].is_punct("::") && toks[i - 2].is_ident(prefix)
}

/// Is the identifier at `i` used as an external crate path root
/// (`rand::…` or `use rand…`)?
fn is_crate_use(toks: &[Token], i: usize) -> bool {
    let followed_by_path = toks.get(i + 1).is_some_and(|t| t.is_punct("::"));
    let after_use = i >= 1 && toks[i - 1].is_ident("use");
    // `foo::rand::…` is a module named rand, not the crate.
    (followed_by_path && !(i >= 1 && toks[i - 1].is_punct("::"))) || after_use
}

// ---------------------------------------------------------------- U-lints --

/// Name-pattern fragments that mark a value as a *derived* quantity (ratio,
/// scaling factor, exponent) where a bare float is the correct type.
const DIMENSIONLESS_MARKERS: &[&str] = &[
    "ratio", "frac", "scale", "factor", "coeff", "slope", "alpha", "exponent", "pct", "percent",
    "share", "weight", "norm", "prob", "util", "penalty", "risk",
];

fn is_dimensionless(name: &str) -> bool {
    DIMENSIONLESS_MARKERS.iter().any(|m| name.contains(m))
}

/// Does this identifier name a power quantity that should be `Watts`?
fn is_power_name(name: &str) -> bool {
    if is_dimensionless(name) {
        return false;
    }
    name.ends_with("_w")
        || name.contains("watt")
        || name == "power"
        || name.starts_with("power_")
        || name.ends_with("_power")
        || name == "budget"
        || name.starts_with("budget_")
        || name.ends_with("_budget")
}

/// Does this identifier name a frequency that should be `MegaHertz`?
fn is_freq_name(name: &str) -> bool {
    if is_dimensionless(name) {
        return false;
    }
    name.contains("mhz")
        || name == "freq"
        || name.starts_with("freq")
        || name.ends_with("_freq")
        || name.contains("frequency")
}

const FLOAT_TYPES: &[&str] = &["f64", "f32"];
const NUMERIC_TYPES: &[&str] = &[
    "f64", "f32", "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128",
    "isize",
];

/// U001/U002 on `fn` parameters and U003 on struct fields. Test code is
/// scanned too: a test helper taking `watts: f64` reintroduces the exact
/// call-site ambiguity the newtypes exist to remove.
fn unit_lints(src: &SourceFile, diags: &mut Vec<Diagnostic>) {
    let toks = &src.tokens;
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("fn") {
            if let Some((params, end)) = fn_params(toks, i) {
                for (name, line, ty) in params {
                    check_quantity(src, diags, "parameter", &name, line, &ty, true);
                }
                i = end;
                continue;
            }
        } else if toks[i].is_ident("struct") {
            if let Some((fields, _, _, end)) = struct_fields(toks, i) {
                for (name, line, ty) in fields {
                    check_quantity(src, diags, "field", &name, line, &ty, false);
                }
                i = end;
                continue;
            }
        }
        i += 1;
    }
}

/// Emit U001/U002/U003 for one named, typed slot if its name/type pair is a
/// raw physical quantity.
fn check_quantity(
    src: &SourceFile,
    diags: &mut Vec<Diagnostic>,
    slot: &str,
    name: &str,
    line: u32,
    ty: &[Token],
    is_param: bool,
) {
    // Only a bare primitive type is "raw": `Vec<f64>`, `Option<Watts>`, or
    // references are aggregate shapes the newtype rule does not dictate.
    let [only] = ty else { return };
    let raw_float = FLOAT_TYPES.contains(&only.text.as_str());
    let raw_number = NUMERIC_TYPES.contains(&only.text.as_str());
    if is_power_name(name) && raw_float {
        let lint = if is_param { "U001" } else { "U003" };
        push(
            diags,
            src,
            lint,
            line,
            format!(
                "power-named {slot} `{name}: {}`; use soc_power::units::Watts",
                only.text
            ),
        );
    } else if is_freq_name(name) && raw_number {
        let lint = if is_param { "U002" } else { "U003" };
        push(
            diags,
            src,
            lint,
            line,
            format!(
                "frequency-named {slot} `{name}: {}`; use soc_power::units::MegaHertz",
                only.text
            ),
        );
    }
}

/// U004: a unit-suffixed `pub fn` (`*_w`, `*watt*`, `*mhz*`) returning a
/// bare raw number leaks an unlabeled physical quantity out of the crate's
/// API — the return-side twin of U001/U002, which cover the parameters.
fn unit_flow_lints(src: &SourceFile, model: &FileModel, diags: &mut Vec<Diagnostic>) {
    for f in &model.fns {
        if !f.is_pub {
            continue;
        }
        let [only] = &f.ret[..] else { continue };
        let power = is_power_name(&f.name) && FLOAT_TYPES.contains(&only.text.as_str());
        let freq = is_freq_name(&f.name) && NUMERIC_TYPES.contains(&only.text.as_str());
        if power || freq {
            let newtype = if power { "Watts" } else { "MegaHertz" };
            push(
                diags,
                src,
                "U004",
                f.line,
                format!(
                    "unit-named pub fn `{}` returns raw `{}`; return soc_power::units::{newtype}",
                    f.name, only.text
                ),
            );
        }
    }
}

// ---------------------------------------------------------------- R-lints --

/// Identifier patterns for sim-time values (R003).
fn is_time_name(name: &str) -> bool {
    name.ends_with("_s")
        || name.ends_with("_secs")
        || name.ends_with("_us")
        || name.ends_with("_ms")
        || name.ends_with("_ns")
        || name.contains("time")
        || name.contains("secs")
}

/// R001–R003 on non-test tokens.
fn robustness_lints(src: &SourceFile, diags: &mut Vec<Diagnostic>) {
    let toks = &src.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident || src.in_test[i] {
            continue;
        }
        let (lint, msg) = match classify_site(toks, i) {
            Some(Site::Unwrap) => (
                "R001",
                ".unwrap() in library code; return a Result or justify the invariant in lint.toml".to_string(),
            ),
            Some(Site::Expect) => (
                "R001",
                ".expect(\"…\") in library code; return a Result or justify the invariant in lint.toml".to_string(),
            ),
            Some(Site::PanicMacro) => (
                "R002",
                format!("{}! in library code; encode the invariant or return an error", t.text),
            ),
            _ if (is_time_name(&t.text) || is_power_name(&t.text))
                && toks.get(i + 1).is_some_and(|n| n.is_ident("as"))
                && toks
                    .get(i + 2)
                    .is_some_and(|n| NUMERIC_TYPES[2..].contains(&n.text.as_str())) =>
            {
                (
                    "R003",
                    format!("`{} as {}` truncates a physical quantity; use an explicit rounding conversion", t.text, toks[i + 2].text),
                )
            }
            _ => continue,
        };
        push(diags, src, lint, t.line, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::parser::parse_file;

    fn lint_src(crate_name: &str, path: &str, src: &str) -> Vec<(String, u32)> {
        let sf = SourceFile::parse(path, crate_name, src);
        let model = parse_file(&sf);
        check_file(&sf, &model, &Layers::builtin_default())
            .into_iter()
            .map(|d| (d.lint.to_string(), d.line))
            .collect()
    }

    fn sim(src: &str) -> Vec<(String, u32)> {
        lint_src("power", "crates/power/src/x.rs", src)
    }

    #[test]
    fn d001_hash_collections() {
        assert_eq!(
            sim("use std::collections::HashMap;"),
            [("D001".to_string(), 1)]
        );
        assert_eq!(
            sim("let s: HashSet<u32> = HashSet::new();"),
            [("D001".to_string(), 1)]
        );
        assert!(sim("use std::collections::BTreeMap;").is_empty());
        // Non-sim crate: no D-lint.
        assert!(lint_src(
            "analyze",
            "crates/analyze/src/x.rs",
            "use std::collections::HashMap;"
        )
        .is_empty());
    }

    #[test]
    fn d002_wall_clock() {
        assert_eq!(sim("let t = Instant::now();"), [("D002".to_string(), 1)]);
        assert_eq!(
            sim("let t = std::time::SystemTime::now();"),
            [("D002".to_string(), 1)]
        );
    }

    #[test]
    fn a001_layer_violations() {
        // Sim-state may not reference observation-layer crates…
        assert_eq!(sim("use soc_prof::Profiler;"), [("A001".to_string(), 1)]);
        assert_eq!(sim("use soc_analyze::Recorder;"), [("A001".to_string(), 1)]);
        // …or tooling.
        assert_eq!(sim("use soc_bench::Runner;"), [("A001".to_string(), 1)]);
        // The emit layer is an allowed edge from sim-state.
        assert!(sim("use soc_telemetry::Sink;").is_empty());
        // A local identifier that merely shares the name is not a reference.
        assert!(sim("let soc_analyze = 1;").is_empty());
        // Observation may read sim-state and emit, and its own layer.
        assert!(lint_src(
            "analyze",
            "crates/analyze/src/x.rs",
            "use soc_telemetry::Row;\nuse soc_cluster::Cluster;\nuse soc_prof::Snapshot;"
        )
        .is_empty());
        // Tooling may use everything.
        assert!(lint_src(
            "bench",
            "crates/bench/src/x.rs",
            "use soc_analyze::Recorder;\nuse soc_cluster::Cluster;"
        )
        .is_empty());
        // Observation may not reach tooling.
        assert_eq!(
            lint_src(
                "analyze",
                "crates/analyze/src/x.rs",
                "use soc_bench::Runner;"
            ),
            [("A001".to_string(), 1)]
        );
    }

    #[test]
    fn d003_env_needs_std_prefix() {
        assert_eq!(
            sim("let v = std::env::var(\"X\");"),
            [("D003".to_string(), 1)]
        );
        // A local module named env is not std::env.
        assert!(sim("let v = config::env::var();").is_empty());
    }

    #[test]
    fn d004_rand() {
        assert_eq!(
            sim("let r = rand::thread_rng();"),
            [("D004".to_string(), 1)]
        );
        assert_eq!(sim("use rand::Rng;"), [("D004".to_string(), 1)]);
        // Our own rng module is fine.
        assert!(sim("use simcore::rng::Pcg32;").is_empty());
        // A field access named rand is fine.
        assert!(sim("let x = cfg.rand;").is_empty());
    }

    #[test]
    fn d005_raw_threading() {
        assert_eq!(sim("use std::thread;"), [("D005".to_string(), 1)]);
        assert_eq!(
            sim("std::thread::spawn(|| step());"),
            [("D005".to_string(), 1)]
        );
        assert_eq!(sim("use std::sync::mpsc;"), [("D005".to_string(), 1)]);
        assert_eq!(
            sim("use crossbeam::channel::bounded;"),
            [("D005".to_string(), 1)]
        );
        // No hard-coded carve-out anymore: the par abstraction flags like any
        // other sim-state file and holds a justified waiver in lint.toml.
        assert_eq!(
            lint_src(
                "simcore",
                "crates/simcore/src/par.rs",
                "use std::thread;\nstd::thread::scope(|s| s);"
            ),
            [("D005".to_string(), 1), ("D005".to_string(), 2)]
        );
        // A local module or field named thread is not std::thread.
        assert!(sim("let t = pool.thread;").is_empty());
        assert!(sim("runtime::thread::park();").is_empty());
        // Non-sim crates may thread freely.
        assert!(lint_src("analyze", "crates/analyze/src/x.rs", "use std::thread;").is_empty());
    }

    #[test]
    fn u001_u002_params() {
        assert_eq!(
            sim("fn set_budget(budget_w: f64) {}"),
            [("U001".to_string(), 1)]
        );
        assert_eq!(
            sim("fn flat_template(watts: f64) {}"),
            [("U001".to_string(), 1)]
        );
        assert_eq!(sim("fn cap(freq_mhz: u32) {}"), [("U002".to_string(), 1)]);
        // Newtyped versions are clean.
        assert!(sim("fn set_budget(budget: Watts) {}").is_empty());
        assert!(sim("fn cap(freq: MegaHertz) {}").is_empty());
        // Dimensionless names are clean even as f64: a risk budget is a
        // probability mass, not watts, despite the `_budget` suffix.
        assert!(sim("fn scale(power_scale_factor: f64, util: f64) {}").is_empty());
        assert!(sim("fn admit(risk_budget: f64) {}").is_empty());
        // Aggregates are out of scope.
        assert!(sim("fn series(power_samples: Vec<f64>) {}").is_empty());
    }

    #[test]
    fn u003_fields() {
        assert_eq!(
            sim("struct Server { budget_w: f64, name: String }"),
            [("U003".to_string(), 1)]
        );
        assert_eq!(
            sim("struct Plan {\n    pub base_freq: u32,\n}"),
            [("U003".to_string(), 2)]
        );
        assert!(sim("struct Server { budget: Watts }").is_empty());
    }

    #[test]
    fn u004_raw_unit_returns() {
        assert_eq!(
            sim("pub fn draw_w() -> f64 { 0.0 }"),
            [("U004".to_string(), 1)]
        );
        assert_eq!(
            sim("pub fn turbo_mhz() -> u32 { 0 }"),
            [("U004".to_string(), 1)]
        );
        // Newtyped, private, or aggregate returns are clean.
        assert!(sim("pub fn draw_w() -> Watts { Watts(0.0) }").is_empty());
        assert!(sim("fn draw_w() -> f64 { 0.0 }").is_empty());
        assert!(sim("pub fn draws_w() -> Vec<f64> { vec![] }").is_empty());
        // Dimensionless names are clean.
        assert!(sim("pub fn power_scale_factor() -> f64 { 1.0 }").is_empty());
        // U-lints are sim-state only.
        assert!(lint_src(
            "analyze",
            "crates/analyze/src/x.rs",
            "pub fn draw_w() -> f64 { 0.0 }"
        )
        .is_empty());
    }

    #[test]
    fn r001_unwrap_outside_tests_only() {
        let flagged = lint_src(
            "analyze",
            "crates/analyze/src/x.rs",
            "fn f() { x.unwrap(); }",
        );
        assert_eq!(flagged, [("R001".to_string(), 1)]);
        let in_test = lint_src(
            "analyze",
            "crates/analyze/src/x.rs",
            "#[cfg(test)]\nmod tests { fn f() { x.unwrap(); } }",
        );
        assert!(in_test.is_empty());
        // Bin targets are exempt.
        assert!(lint_src(
            "analyze",
            "crates/analyze/src/bin/t.rs",
            "fn f() { x.unwrap(); }"
        )
        .is_empty());
    }

    #[test]
    fn r001_expect_needs_a_string_message() {
        assert_eq!(
            sim("fn f() { x.expect(\"msg\"); }"),
            [("R001".to_string(), 1)]
        );
        // A method named expect taking a non-string is not Option::expect.
        assert!(sim("fn f() { self.expect(b'{'); }").is_empty());
        assert!(sim("fn f() { parser.expect(Token::Brace); }").is_empty());
    }

    #[test]
    fn r002_panic_family() {
        assert_eq!(
            sim("fn f() { panic!(\"boom\") }"),
            [("R002".to_string(), 1)]
        );
        assert_eq!(sim("fn f() { todo!() }"), [("R002".to_string(), 1)]);
        // std::panic::catch_unwind is not the macro.
        assert!(sim("fn f() { std::panic::catch_unwind(g); }").is_empty());
    }

    #[test]
    fn r003_lossy_casts() {
        assert_eq!(sim("let t = now_s as u64;"), [("R003".to_string(), 1)]);
        assert_eq!(sim("let w = power as u32;"), [("R003".to_string(), 1)]);
        // Float→float is a widening, not a truncation.
        assert!(sim("let w = power as f64;").is_empty());
        assert!(sim("let n = count as u64;").is_empty());
    }

    #[test]
    fn emitted_ids_are_cataloged() {
        let everything = "use std::collections::HashMap;\nlet t = Instant::now();\n\
                          let v = std::env::var(\"X\");\nlet r = thread_rng();\n\
                          fn f(budget_w: f64, freq_mhz: u32) {}\nstruct S { power: f64 }\n\
                          pub fn draw_w() -> f64 { 0.0 }\nuse soc_analyze::Recorder;\n\
                          fn g() { x.unwrap(); panic!(); let t = now_s as u64; }";
        for (id, _) in sim(everything) {
            assert!(catalog::lint(&id).is_some(), "{id} missing from catalog");
        }
    }

    #[test]
    fn one_diagnostic_per_lint_per_line() {
        assert_eq!(
            sim("let m: HashMap<u32, HashMap<u32, u32>> = HashMap::new();").len(),
            1
        );
    }
}
