//! `lint.toml` — the full lint configuration: the `[[allow]]` waiver ratchet
//! ([`crate::allowlist`]), the `[layers.*]` architecture declaration, and the
//! `[ratchet]` baseline.
//!
//! The layers section is the declarative replacement for the crate-name
//! special cases that used to live in `checks.rs`: instead of a hard-coded
//! `soc_prof | soc_analyze` match arm, the file declares which tier every
//! workspace crate belongs to and which tiers each tier may depend on, and
//! the A001/A002 passes enforce it by graph reachability:
//!
//! ```toml
//! [layers.sim-state]
//! crates = ["simcore", "power", "core"]
//! may-use = ["emit"]            # same-layer edges are always allowed
//!
//! [layers.emit]
//! crates = ["telemetry"]
//! may-use = []
//!
//! [ratchet]
//! allowlist-baseline = 12       # soc-lint ratchet fails if [[allow]] grows
//! ```
//!
//! The layer named `sim-state` is special by convention: the determinism and
//! unit lints (D-/U-series) apply to its crates, and D006/R004 treat its
//! public API as the protected surface. When `lint.toml` declares no layers
//! at all, [`Layers::builtin_default`] supplies the workspace's standard
//! tiering so a fresh checkout still checks.

use crate::allowlist::{AllowEntry, Allowlist};
use std::collections::BTreeSet;

/// One architecture tier: a named set of crates plus the other tiers its
/// crates may depend on (its own tier is always allowed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerDef {
    pub name: String,
    /// Crate directory names under `crates/` (`power`, not `soc-power`).
    pub crates: Vec<String>,
    /// Names of other layers this layer's crates may reference.
    pub may_use: Vec<String>,
}

/// The declared (or default) tier structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layers {
    pub layers: Vec<LayerDef>,
}

/// The layer whose crates carry the determinism/unit invariants.
pub const SIM_STATE_LAYER: &str = "sim-state";

impl Layers {
    /// The workspace's standard tiering, used when `lint.toml` declares no
    /// `[layers.*]` sections (e.g. a fresh checkout without the file).
    pub fn builtin_default() -> Layers {
        let layer = |name: &str, crates: &[&str], may_use: &[&str]| LayerDef {
            name: name.to_string(),
            crates: crates.iter().map(|s| s.to_string()).collect(),
            may_use: may_use.iter().map(|s| s.to_string()).collect(),
        };
        Layers {
            layers: vec![
                layer(
                    SIM_STATE_LAYER,
                    &[
                        "simcore",
                        "power",
                        "reliability",
                        "predict",
                        "traces",
                        "workloads",
                        "core",
                        "cluster",
                    ],
                    &["emit"],
                ),
                // telemetry timestamps rows with simcore::time::SimTime, so
                // the emit layer may read sim-state primitives (never the
                // other observability layers).
                layer("emit", &["telemetry"], &["sim-state"]),
                layer("observation", &["analyze", "prof"], &["emit", "sim-state"]),
                layer(
                    "tooling",
                    &["bench", "lint"],
                    &["observation", "emit", "sim-state"],
                ),
            ],
        }
    }

    /// The layer a crate belongs to, if assigned.
    pub fn layer_of(&self, crate_name: &str) -> Option<&str> {
        self.layers
            .iter()
            .find(|l| l.crates.iter().any(|c| c == crate_name))
            .map(|l| l.name.as_str())
    }

    /// May a crate in `from_layer` reference a crate in `to_layer`?
    pub fn allows(&self, from_layer: &str, to_layer: &str) -> bool {
        if from_layer == to_layer {
            return true;
        }
        self.layers
            .iter()
            .find(|l| l.name == from_layer)
            .is_some_and(|l| l.may_use.iter().any(|m| m == to_layer))
    }

    /// Crates carrying the determinism/unit invariants (the `sim-state`
    /// layer).
    pub fn sim_state_crates(&self) -> BTreeSet<&str> {
        self.layers
            .iter()
            .filter(|l| l.name == SIM_STATE_LAYER)
            .flat_map(|l| l.crates.iter().map(String::as_str))
            .collect()
    }

    /// Every crate assigned to any layer.
    pub fn all_crates(&self) -> BTreeSet<&str> {
        self.layers
            .iter()
            .flat_map(|l| l.crates.iter().map(String::as_str))
            .collect()
    }

    /// Structural checks: no crate in two layers, `may-use` names must refer
    /// to declared layers, layer names unique.
    pub fn validate(&self) -> Result<(), String> {
        let mut names = BTreeSet::new();
        for l in &self.layers {
            if !names.insert(l.name.as_str()) {
                return Err(format!("lint.toml: layer `{}` declared twice", l.name));
            }
        }
        let mut seen_crates = BTreeSet::new();
        for l in &self.layers {
            for c in &l.crates {
                if !seen_crates.insert(c.as_str()) {
                    return Err(format!(
                        "lint.toml: crate `{c}` assigned to more than one layer"
                    ));
                }
            }
            for m in &l.may_use {
                if !names.contains(m.as_str()) {
                    return Err(format!(
                        "lint.toml: layer `{}` may-use unknown layer `{m}`",
                        l.name
                    ));
                }
            }
        }
        Ok(())
    }
}

impl Default for Layers {
    fn default() -> Layers {
        Layers::builtin_default()
    }
}

/// Everything `lint.toml` configures.
#[derive(Debug, Default)]
pub struct LintConfig {
    pub allowlist: Allowlist,
    pub layers: Layers,
    /// True when the file declared `[layers.*]` sections itself (as opposed
    /// to inheriting the builtin default). Workspace-completeness validation
    /// — every discovered crate must be assigned — applies either way, but
    /// error messages point at the right place.
    pub layers_declared: bool,
    /// `[ratchet] allowlist-baseline`: the committed `[[allow]]` entry count
    /// that `soc-lint ratchet` enforces against.
    pub ratchet_baseline: Option<usize>,
}

/// Which table the line parser is currently inside.
enum Section {
    None,
    Allow(PartialEntry),
    Layer(LayerDef),
    Ratchet,
}

#[derive(Default)]
struct PartialEntry {
    lint: Option<String>,
    path: Option<String>,
    line: Option<u32>,
    justification: Option<String>,
}

impl PartialEntry {
    fn finish(self) -> Result<AllowEntry, String> {
        let lint = self
            .lint
            .ok_or("lint.toml: [[allow]] entry missing `lint`")?;
        let path = self
            .path
            .ok_or("lint.toml: [[allow]] entry missing `path`")?;
        let justification = self.justification.ok_or_else(|| {
            format!("lint.toml: waiver for {lint} at {path} has no justification")
        })?;
        if justification.trim().is_empty() {
            return Err(format!(
                "lint.toml: waiver for {lint} at {path} has an empty justification"
            ));
        }
        Ok(AllowEntry {
            lint,
            path,
            line: self.line,
            justification,
        })
    }
}

impl LintConfig {
    /// Parse the full `lint.toml` text. The grammar is the same deliberately
    /// tiny TOML subset the allowlist has always used — `[[allow]]` tables,
    /// `[layers.<name>]` / `[ratchet]` sections, `key = value` lines with
    /// quoted strings, integers, and `["a", "b"]` string arrays. Unknown
    /// keys and sections are hard errors: a config file that cannot be read
    /// exactly is a config file that silently configures wrong.
    pub fn parse(text: &str) -> Result<LintConfig, String> {
        let mut entries: Vec<AllowEntry> = Vec::new();
        let mut layers: Vec<LayerDef> = Vec::new();
        let mut ratchet_baseline: Option<usize> = None;
        let mut section = Section::None;

        let finish = |section: Section,
                      entries: &mut Vec<AllowEntry>,
                      layers: &mut Vec<LayerDef>|
         -> Result<(), String> {
            match section {
                Section::Allow(partial) => entries.push(partial.finish()?),
                Section::Layer(layer) => layers.push(layer),
                Section::None | Section::Ratchet => {}
            }
            Ok(())
        };

        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[allow]]" {
                finish(
                    std::mem::replace(&mut section, Section::Allow(PartialEntry::default())),
                    &mut entries,
                    &mut layers,
                )?;
                continue;
            }
            if let Some(name) = line
                .strip_prefix("[layers.")
                .and_then(|r| r.strip_suffix(']'))
            {
                if name.is_empty() {
                    return Err(format!("lint.toml:{lineno}: layer section needs a name"));
                }
                finish(
                    std::mem::replace(
                        &mut section,
                        Section::Layer(LayerDef {
                            name: name.to_string(),
                            crates: Vec::new(),
                            may_use: Vec::new(),
                        }),
                    ),
                    &mut entries,
                    &mut layers,
                )?;
                continue;
            }
            if line == "[ratchet]" {
                finish(
                    std::mem::replace(&mut section, Section::Ratchet),
                    &mut entries,
                    &mut layers,
                )?;
                continue;
            }
            if line.starts_with('[') {
                return Err(format!("lint.toml:{lineno}: unknown section `{line}`"));
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!(
                    "lint.toml:{lineno}: expected `key = value` or a section header"
                ));
            };
            let key = key.trim();
            let value = value.trim();
            match &mut section {
                Section::None => {
                    return Err(format!("lint.toml:{lineno}: key outside any section"));
                }
                Section::Allow(entry) => match key {
                    "lint" => entry.lint = Some(parse_string(value, lineno)?),
                    "path" => entry.path = Some(parse_string(value, lineno)?),
                    "justification" => entry.justification = Some(parse_string(value, lineno)?),
                    "line" => {
                        let n: u32 = value
                            .parse()
                            .map_err(|_| format!("lint.toml:{lineno}: line must be an integer"))?;
                        entry.line = Some(n);
                    }
                    other => {
                        return Err(format!("lint.toml:{lineno}: unknown key `{other}`"));
                    }
                },
                Section::Layer(layer) => match key {
                    "crates" => layer.crates = parse_string_array(value, lineno)?,
                    "may-use" => layer.may_use = parse_string_array(value, lineno)?,
                    other => {
                        return Err(format!(
                            "lint.toml:{lineno}: unknown key `{other}` in [layers.{}]",
                            layer.name
                        ));
                    }
                },
                Section::Ratchet => match key {
                    "allowlist-baseline" => {
                        let n: usize = value.parse().map_err(|_| {
                            format!("lint.toml:{lineno}: allowlist-baseline must be an integer")
                        })?;
                        ratchet_baseline = Some(n);
                    }
                    other => {
                        return Err(format!(
                            "lint.toml:{lineno}: unknown key `{other}` in [ratchet]"
                        ));
                    }
                },
            }
        }
        finish(section, &mut entries, &mut layers)?;

        let layers_declared = !layers.is_empty();
        let layers = if layers_declared {
            let l = Layers { layers };
            l.validate()?;
            l
        } else {
            Layers::builtin_default()
        };
        Ok(LintConfig {
            allowlist: Allowlist { entries },
            layers,
            layers_declared,
            ratchet_baseline,
        })
    }
}

/// Parse a double-quoted TOML string (no escape support needed for paths,
/// lint ids, and prose; a backslash is taken literally).
pub(crate) fn parse_string(value: &str, lineno: usize) -> Result<String, String> {
    let inner = value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or(format!(
            "lint.toml:{lineno}: expected a double-quoted string"
        ))?;
    Ok(inner.to_string())
}

/// Parse a `["a", "b"]` array of double-quoted strings (empty `[]` allowed).
fn parse_string_array(value: &str, lineno: usize) -> Result<Vec<String>, String> {
    let inner = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or(format!("lint.toml:{lineno}: expected a [\"…\"] array"))?;
    let inner = inner.trim();
    if inner.is_empty() {
        return Ok(Vec::new());
    }
    inner
        .split(',')
        .map(|item| parse_string(item.trim(), lineno))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
[[allow]]
lint = "R001"
path = "crates/simcore/src/engine.rs"
justification = "heap pop follows a non-empty check"

[layers.sim-state]
crates = ["simcore", "power"]
may-use = ["emit"]

[layers.emit]
crates = ["telemetry"]
may-use = []

[ratchet]
allowlist-baseline = 7
"#;

    #[test]
    fn parses_all_sections() {
        let cfg = LintConfig::parse(SAMPLE).unwrap();
        assert_eq!(cfg.allowlist.entries.len(), 1);
        assert!(cfg.layers_declared);
        assert_eq!(cfg.layers.layers.len(), 2);
        assert_eq!(cfg.ratchet_baseline, Some(7));
        assert_eq!(cfg.layers.layer_of("power"), Some("sim-state"));
        assert_eq!(cfg.layers.layer_of("unknown"), None);
        assert!(cfg.layers.allows("sim-state", "emit"));
        assert!(cfg.layers.allows("sim-state", "sim-state"));
        assert!(!cfg.layers.allows("emit", "sim-state"));
        assert_eq!(
            cfg.layers
                .sim_state_crates()
                .into_iter()
                .collect::<Vec<_>>(),
            ["power", "simcore"]
        );
    }

    #[test]
    fn no_layers_falls_back_to_builtin() {
        let cfg = LintConfig::parse("# empty\n").unwrap();
        assert!(!cfg.layers_declared);
        assert!(cfg.layers.sim_state_crates().contains("simcore"));
        assert_eq!(cfg.layers.layer_of("analyze"), Some("observation"));
        assert!(cfg.layers.allows("tooling", "observation"));
        assert!(!cfg.layers.allows("sim-state", "observation"));
        // The builtin default must itself be structurally valid.
        Layers::builtin_default().validate().unwrap();
    }

    #[test]
    fn duplicate_crate_assignment_is_an_error() {
        let bad = "[layers.a]\ncrates = [\"x\"]\nmay-use = []\n\
                   [layers.b]\ncrates = [\"x\"]\nmay-use = []\n";
        assert!(LintConfig::parse(bad)
            .unwrap_err()
            .contains("more than one"));
    }

    #[test]
    fn may_use_must_name_a_declared_layer() {
        let bad = "[layers.a]\ncrates = [\"x\"]\nmay-use = [\"ghost\"]\n";
        assert!(LintConfig::parse(bad).unwrap_err().contains("ghost"));
    }

    #[test]
    fn unknown_section_and_key_are_errors() {
        assert!(LintConfig::parse("[mystery]\nx = 1\n").is_err());
        assert!(LintConfig::parse("[ratchet]\nbudget = 3\n").is_err());
        assert!(LintConfig::parse("[layers.a]\nnames = []\n").is_err());
    }

    #[test]
    fn empty_array_and_spacing_variants() {
        let cfg =
            LintConfig::parse("[layers.a]\ncrates = [ \"x\" , \"y\" ]\nmay-use = []\n").unwrap();
        assert_eq!(cfg.layers.layers[0].crates, ["x", "y"]);
        assert!(cfg.layers.layers[0].may_use.is_empty());
    }
}
