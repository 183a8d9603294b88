//! Workspace walking, the whole-workspace analysis, and the top-level check
//! runner.
//!
//! [`analyze_workspace`] is the semantic core: it parses every file into a
//! token stream and an item model, builds the crate dependency graph and the
//! intra-workspace call graph, and runs every pass — the per-file lints
//! (A001, D/U/R series), the A002 transitive-layering pass over the crate
//! graph, the D006/R004 taint passes over the call graph, and the A003
//! public-surface pass over the linted files plus the read-only caller files
//! (`caller_files`). [`run_check`] wraps it with `lint.toml` loading and the
//! allowlist ratchet.

use crate::checks::{self, Diagnostic};
use crate::config::LintConfig;
use crate::graph::{CallGraph, CrateGraph, FileRef};
use crate::lexer::{lex, TokenKind};
use crate::parser::{parse_file, FileModel};
use crate::report::CheckReport;
use crate::source::SourceFile;
use crate::{surface, taint};
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// A source file scheduled for linting.
pub struct WorkspaceFile {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// Directory name under `crates/`.
    pub crate_name: String,
    /// Absolute path for reading.
    pub abs_path: PathBuf,
}

/// Enumerate every `crates/*/src/**/*.rs` under `root`, sorted by relative
/// path so diagnostics and reports are byte-stable across filesystems.
pub(crate) fn workspace_files(root: &Path) -> Result<Vec<WorkspaceFile>, String> {
    let crates_dir = root.join("crates");
    let mut files = Vec::new();
    let crate_dirs =
        fs::read_dir(&crates_dir).map_err(|e| format!("{}: {e}", crates_dir.display()))?;
    for entry in crate_dirs {
        let entry = entry.map_err(|e| format!("{}: {e}", crates_dir.display()))?;
        let crate_path = entry.path();
        if !crate_path.is_dir() {
            continue;
        }
        let crate_name = entry.file_name().to_string_lossy().into_owned();
        let src = crate_path.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files, &crate_name, root)?;
        }
    }
    files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(files)
}

fn collect_rs(
    dir: &Path,
    out: &mut Vec<WorkspaceFile>,
    crate_name: &str,
    root: &Path,
) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out, crate_name, root)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|_| format!("{} escapes the workspace root", path.display()))?;
            let rel_path = rel
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(WorkspaceFile {
                rel_path,
                crate_name: crate_name.to_string(),
                abs_path: path,
            });
        }
    }
    Ok(())
}

/// The read-only caller files of A003 ([`crate::surface`]): every
/// `crates/*/tests/**`, the workspace `tests/**`, `examples/**` and
/// `benchmark/src/**` `.rs` file, sorted. They are read for the names they
/// use and never linted. `fixtures/` directories hold never-compiled lint
/// and analyzer inputs, so they are skipped. A missing directory lists
/// nothing.
pub(crate) fn caller_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut dirs = vec![
        root.join("tests"),
        root.join("examples"),
        root.join("benchmark/src"),
    ];
    let crates_dir = root.join("crates");
    let crate_dirs =
        fs::read_dir(&crates_dir).map_err(|e| format!("{}: {e}", crates_dir.display()))?;
    for entry in crate_dirs {
        let entry = entry.map_err(|e| format!("{}: {e}", crates_dir.display()))?;
        dirs.push(entry.path().join("tests"));
    }
    let mut files = Vec::new();
    for dir in dirs.iter().filter(|d| d.is_dir()) {
        collect_callers(dir, &mut files)?;
    }
    files.sort();
    Ok(files)
}

fn collect_callers(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
        if path.is_dir() {
            if !path.ends_with("fixtures") {
                collect_callers(&path, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The full semantic analysis of one workspace: every file's token and item
/// views, both graphs, and the raw (pre-allowlist) diagnostics from every
/// pass.
pub struct Analysis {
    /// `(tokens+metadata, items)` per file, in sorted rel-path order.
    pub files: Vec<(SourceFile, FileModel)>,
    pub crate_graph: CrateGraph,
    pub call_graph: CallGraph,
    /// All diagnostics, sorted by `(path, line, lint)` and deduplicated.
    pub diags: Vec<Diagnostic>,
    /// Number of read-only caller files A003 read (every crate's `tests/`,
    /// the workspace `tests/`, `examples/` and `benchmark/src/`).
    pub callers: usize,
    /// Indices of `[[allow]]` entries consumed as R004 taint barriers. Such
    /// an entry never matches a rendered diagnostic (the waived site is
    /// simply not flagged), so the stale-entry check must exempt it.
    pub used_barrier_waivers: BTreeSet<usize>,
}

/// Parse, build graphs, and run every pass over the workspace at `root`.
pub fn analyze_workspace(root: &Path, config: &LintConfig) -> Result<Analysis, String> {
    let listed = workspace_files(root)?;
    let mut files = Vec::with_capacity(listed.len());
    for file in &listed {
        let text = fs::read_to_string(&file.abs_path)
            .map_err(|e| format!("{}: {e}", file.abs_path.display()))?;
        let src = SourceFile::parse(&file.rel_path, &file.crate_name, &text);
        let model = parse_file(&src);
        files.push((src, model));
    }
    let refs: Vec<FileRef<'_>> = files
        .iter()
        .map(|(src, model)| FileRef {
            crate_name: &src.crate_name,
            path: &src.path,
            model,
        })
        .collect();
    let crate_graph = CrateGraph::build(&refs);
    let call_graph = CallGraph::build(&refs, &crate_graph);

    let mut diags: Vec<Diagnostic> = Vec::new();
    for (src, model) in &files {
        diags.extend(checks::check_file(src, model, &config.layers));
    }
    diags.extend(transitive_layer_lints(&crate_graph, config));
    diags.extend(taint::determinism_taint(
        &files,
        &call_graph,
        &config.layers,
    ));
    let (r004, used_barrier_waivers) =
        taint::panic_reachability(&files, &call_graph, &config.layers, &config.allowlist);
    diags.extend(r004);
    let callers = caller_files(root)?;
    let mut caller_names = BTreeSet::new();
    for path in &callers {
        let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        caller_names.extend(
            lex(&text)
                .tokens
                .into_iter()
                .filter(|t| t.kind == TokenKind::Ident)
                .map(|t| t.text),
        );
    }
    diags.extend(surface::unused_public_items(&files, &caller_names));
    diags.sort_by(|a, b| (&a.path, a.line, a.lint).cmp(&(&b.path, b.line, b.lint)));
    diags.dedup_by(|a, b| a.lint == b.lint && a.path == b.path && a.line == b.line);

    Ok(Analysis {
        files,
        crate_graph,
        call_graph,
        diags,
        callers: callers.len(),
        used_barrier_waivers,
    })
}

/// A002: for every crate, BFS the crate graph; if a crate in a layer its own
/// layer may not use is reachable, flag the *first hop* of the offending
/// path — always a real reference site in the offending crate — with the
/// full chain. Direct (one-hop) violations are A001's per-file job and are
/// skipped here so one bad edge yields one diagnostic.
fn transitive_layer_lints(graph: &CrateGraph, config: &LintConfig) -> Vec<Diagnostic> {
    let layers = &config.layers;
    let mut diags = Vec::new();
    for krate in &graph.crates {
        let Some(my_layer) = layers.layer_of(krate) else {
            continue;
        };
        let pred = graph.reachable_from(krate);
        for target in pred.keys() {
            let Some(target_layer) = layers.layer_of(target) else {
                continue;
            };
            if layers.allows(my_layer, target_layer) {
                continue;
            }
            let chain = graph.path_to(krate, target, &pred);
            if chain.len() <= 2 {
                continue; // direct edge: A001 already flags the reference
            }
            let first_hop = &chain[1];
            let site = &graph.edges[&(krate.clone(), first_hop.clone())][0];
            diags.push(Diagnostic {
                lint: "A002",
                path: site.path.clone(),
                line: site.line,
                message: format!(
                    "crate `{krate}` (layer `{my_layer}`) reaches `{target}` (layer \
                     `{target_layer}`) through {}; `[layers.{my_layer}]` in lint.toml \
                     does not allow that layer",
                    chain.join(" -> "),
                ),
            });
        }
    }
    diags
}

/// Lint every workspace file under `root`, filtered through the allowlist in
/// the `lint.toml` at `config_path` when it exists (a missing file means
/// nothing is waived and the builtin layer default applies — a fresh
/// checkout still checks).
pub fn run_check(root: &Path, config_path: &Path) -> Result<CheckReport, String> {
    let config = load_config(config_path)?;
    let analysis = analyze_workspace(root, &config)?;
    let files = analysis.files.len();
    let callers = analysis.callers;
    let (blocking, waived, stale) = config.allowlist.apply(analysis.diags);
    // Waivers consumed as R004 taint barriers never match a diagnostic —
    // they are doing their job, not stale.
    let stale = stale
        .into_iter()
        .filter(|e| {
            config
                .allowlist
                .entries
                .iter()
                .position(|x| std::ptr::eq(x, *e))
                .is_none_or(|i| !analysis.used_barrier_waivers.contains(&i))
        })
        .cloned()
        .collect();
    Ok(CheckReport {
        blocking,
        waived,
        stale,
        files,
        callers,
    })
}

/// Load `lint.toml`, or the empty default when the file does not exist.
pub fn load_config(config_path: &Path) -> Result<LintConfig, String> {
    if config_path.exists() {
        let text = fs::read_to_string(config_path)
            .map_err(|e| format!("{}: {e}", config_path.display()))?;
        LintConfig::parse(&text)
    } else {
        Ok(LintConfig::default())
    }
}
