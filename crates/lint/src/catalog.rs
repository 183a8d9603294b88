//! The lint catalog: every lint `soc-lint` knows, with the rationale and a
//! waiver recipe. `soc-lint list` renders this table; DESIGN.md documents it.

use std::fmt;

/// Lint category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// A-lints: architecture layering. The `[layers]` section of lint.toml
    /// assigns every crate to a tier and declares which tiers each may use;
    /// A-lints enforce those edges directly (A001) and transitively (A002).
    Architecture,
    /// D-lints: bit-determinism per seed. Violations make causal-trace
    /// diffs (PR 2) meaningless because runs stop being byte-identical.
    Determinism,
    /// U-lints: physical quantities behind `power::units` newtypes so
    /// watt/megahertz arithmetic cannot silently mix scales.
    Units,
    /// R-lints: no panicking paths in library code; casts on physical
    /// values must be explicit conversions.
    Robustness,
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Category::Architecture => "architecture",
            Category::Determinism => "determinism",
            Category::Units => "units",
            Category::Robustness => "robustness",
        };
        f.write_str(s)
    }
}

/// Static description of one lint.
pub struct LintInfo {
    /// Stable id (`D001`); allowlist entries reference this.
    pub id: &'static str,
    /// Short name for listings.
    pub name: &'static str,
    pub category: Category,
    /// One-line summary shown with each diagnostic.
    pub summary: &'static str,
    /// Why the invariant matters for SmartOClock specifically.
    pub rationale: &'static str,
    /// A minimal violating snippet.
    pub example: &'static str,
}

/// Every lint, in id order. Checks in `checks.rs` must emit only these ids
/// (enforced by a test).
pub const CATALOG: &[LintInfo] = &[
    LintInfo {
        id: "A001",
        name: "layer-violation",
        category: Category::Architecture,
        summary: "reference to a workspace crate in a layer this crate's layer may not use",
        rationale: "The workspace is tiered — sim-state, emit, observation, tooling — and \
                    the tiers are declared once in the `[layers]` section of lint.toml \
                    rather than hard-coded per lint. Sim-state linking observability \
                    (soc_prof, soc_analyze) would let bench-side timers and recorders \
                    leak host behaviour into seed-determined simulation state; the \
                    sanctioned pattern is pure probe hooks (soc_cluster::probe) that \
                    the bench side attaches to. Moving a crate between tiers is a \
                    one-line config change, not a lint release.",
        example: "use soc_analyze::Recorder; // in crates/power",
    },
    LintInfo {
        id: "A002",
        name: "transitive-layer-violation",
        category: Category::Architecture,
        summary: "a forbidden layer is reachable through an allowed intermediary crate",
        rationale: "A001 only sees direct references, so an intermediary crate in an \
                    allowed layer could re-export a forbidden one and launder the \
                    dependency. A002 walks the workspace crate graph: if any path from \
                    a crate reaches a layer its own layer may not use, the first hop of \
                    that path is flagged with the full chain, so the fix site is always \
                    a real reference in the offending crate.",
        example: "use helper::recorder; // helper itself uses soc_analyze",
    },
    LintInfo {
        id: "D001",
        name: "hash-collections-in-sim-state",
        category: Category::Determinism,
        summary: "HashMap/HashSet in a sim-state crate; use BTreeMap/BTreeSet",
        rationale: "Hash iteration order is randomized per process, so any loop over a \
                    hash collection in simulation state produces run-to-run differences \
                    that break byte-identical traces (and with them `soc-analyze diff`).",
        example: "use std::collections::HashMap;",
    },
    LintInfo {
        id: "D002",
        name: "wall-clock-in-sim-state",
        category: Category::Determinism,
        summary: "std::time::Instant/SystemTime in a sim-state crate; use simcore::time",
        rationale: "Wall-clock reads smuggle host timing into simulation state; all sim \
                    time must flow through SimTime so a seed fully determines a run. \
                    (Linking the observability crates from sim-state is A001's job; \
                    wall-clock reads laundered through helper crates are D006's.)",
        example: "let t0 = std::time::Instant::now();",
    },
    LintInfo {
        id: "D003",
        name: "env-in-sim-state",
        category: Category::Determinism,
        summary: "std::env in a sim-state crate; configuration must be explicit",
        rationale: "Environment lookups make behaviour depend on invisible host state; \
                    sim crates take configuration as values so runs are reproducible \
                    from their inputs alone (tooling crates such as the bench binaries \
                    are not sim-state and may read it).",
        example: "let mode = std::env::var(\"MODE\");",
    },
    LintInfo {
        id: "D004",
        name: "external-rng-in-sim-state",
        category: Category::Determinism,
        summary: "rand/thread_rng in a sim-state crate; randomness only via simcore::rng::Pcg32",
        rationale: "thread_rng and friends seed from the OS; every random draw in the sim \
                    path must come from the run's seeded Pcg32 stream or replays diverge.",
        example: "let x = rand::thread_rng().gen::<f64>();",
    },
    LintInfo {
        id: "D005",
        name: "raw-threading-in-sim-state",
        category: Category::Determinism,
        summary: "std::thread/channel use in a sim-state crate; shard work through simcore::par",
        rationale: "Ad-hoc threads and channels interleave sim-state updates and telemetry in \
                    scheduler order, which varies run to run and with core count; \
                    simcore::par::par_map shards work deterministically and merges results \
                    in canonical input order, so `--threads N` stays byte-identical to \
                    `--threads 1`.",
        example: "std::thread::spawn(move || sim.step());",
    },
    LintInfo {
        id: "D006",
        name: "laundered-nondeterminism",
        category: Category::Determinism,
        summary: "a sim-state call site reaches a wall-clock/env/rng source through a helper crate",
        rationale: "D002–D004 flag non-deterministic sources written directly in \
                    sim-state crates, but a helper crate in an allowed layer can wrap \
                    `SystemTime::now()` in `now_ms()` and every file still lints clean. \
                    D006 propagates taint from the sources backward along the workspace \
                    call graph and flags the sim-state call site, naming the full chain \
                    down to the source so the plumbing fix (pass SimTime/Pcg32 in) is \
                    obvious.",
        example: "let t = soc_telemetry::clock::now_ms(); // wraps SystemTime",
    },
    LintInfo {
        id: "U001",
        name: "raw-float-power-parameter",
        category: Category::Units,
        summary: "power-named fn parameter typed as a raw float; use power::units::Watts",
        rationale: "The admission-control and budget-enforcement paths are constant \
                    watt arithmetic; a raw f64 watt parameter is one call site away \
                    from a kilowatt/watt mixup that silently breaks capping (the \
                    CloudPowerCap failure mode).",
        example: "fn set_budget(&mut self, budget_w: f64)",
    },
    LintInfo {
        id: "U002",
        name: "raw-number-frequency-parameter",
        category: Category::Units,
        summary: "frequency-named fn parameter typed as a raw number; use power::units::MegaHertz",
        rationale: "Frequency plans mix base/turbo/overclock values in MHz; a raw u32 \
                    or f64 frequency accepts GHz-scaled values without complaint.",
        example: "fn cap(&mut self, freq_mhz: u32)",
    },
    LintInfo {
        id: "U003",
        name: "raw-number-quantity-field",
        category: Category::Units,
        summary: "power/frequency-named struct field typed as a raw number; use the units newtypes",
        rationale: "Struct fields outlive their constructor's discipline: a raw f64 \
                    `power` field re-opens unit confusion at every read site.",
        example: "struct Server { budget_w: f64 }",
    },
    LintInfo {
        id: "U004",
        name: "raw-unit-return",
        category: Category::Units,
        summary: "unit-named pub fn returns a bare raw number; return the units newtype",
        rationale: "U001–U003 keep raw watts and megahertz out of parameters and \
                    fields, but a `pub fn draw_w() -> f64` leaks the quantity back out \
                    of the API unlabeled, and every caller re-decides what scale it is. \
                    Returning Watts/MegaHertz closes the unit-flow loop: quantities \
                    enter and leave crate boundaries typed.",
        example: "pub fn draw_w(&self) -> f64",
    },
    LintInfo {
        id: "R001",
        name: "unwrap-in-library-code",
        category: Category::Robustness,
        summary:
            "unwrap()/expect() outside #[cfg(test)]; return a Result or document the invariant",
        rationale: "A panicking accessor in the sim path aborts a whole multi-day \
                    cluster sweep; library code propagates errors, tests may unwrap.",
        example: "let v = map.get(&k).unwrap();",
    },
    LintInfo {
        id: "R002",
        name: "panic-in-library-code",
        category: Category::Robustness,
        summary: "panic!/todo!/unimplemented! outside #[cfg(test)]",
        rationale: "Explicit panics in library code are unfinished work or unstated \
                    invariants; both belong in the type system or an allowlist entry \
                    that names the invariant.",
        example: "None => panic!(\"no grant\")",
    },
    LintInfo {
        id: "R003",
        name: "lossy-cast-on-quantity",
        category: Category::Robustness,
        summary:
            "`as` integer cast on a time/power-named value; use a checked or documented conversion",
        rationale: "`x as u64` on a sim-time or wattage silently truncates and \
                    saturates; conversions on physical values must be explicit about \
                    rounding so two code paths cannot round differently.",
        example: "let whole = watts as u64;",
    },
    LintInfo {
        id: "R004",
        name: "panic-reachable-from-sim-api",
        category: Category::Robustness,
        summary: "a sim-state pub fn's call chain reaches an unwrap/panic/indexing site",
        rationale: "R001/R002 flag panic sites where they are written, but a sim-state \
                    `pub fn` can reach one three helpers deep and abort a multi-hour \
                    sweep from inside a dependency. R004 walks the workspace call graph \
                    from every panic site (unwrap/expect, panic!-family, slice \
                    indexing) back to the sim-state public API. Two barriers encode \
                    accepted contracts: a `# Panics` doc section anywhere on the chain, \
                    and a lint.toml waiver covering the site itself.",
        example: "pub fn admit(&mut self) { self.pick_server() } // pick_server unwraps",
    },
];

/// Look up a lint by id.
pub fn lint(id: &str) -> Option<&'static LintInfo> {
    CATALOG.iter().find(|l| l.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_ordered_within_category() {
        let ids: Vec<&str> = CATALOG.iter().map(|l| l.id).collect();
        let mut deduped = ids.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(ids.len(), deduped.len(), "catalog ids must be unique");
        // Within each category prefix, ids ascend.
        for pair in ids.windows(2) {
            if pair[0].as_bytes()[0] == pair[1].as_bytes()[0] {
                assert!(pair[0] < pair[1], "{} must precede {}", pair[0], pair[1]);
            }
        }
    }

    #[test]
    fn lookup() {
        assert_eq!(
            lint("D001").map(|l| l.name),
            Some("hash-collections-in-sim-state")
        );
        assert!(lint("Z999").is_none());
    }
}
