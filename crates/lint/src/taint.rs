//! Call-graph taint passes: D006 (determinism) and R004 (panic
//! reachability).
//!
//! The per-file D-lints catch a wall-clock read *written in* a sim-state
//! crate, but not one *laundered through* a helper: a crate in an allowed
//! layer wraps `SystemTime::now()` in `now_ms()` and the sim calls the
//! wrapper — every file lints clean, the run is still non-deterministic.
//! D006 closes that hole by propagating taint from non-deterministic
//! sources backward along the workspace call graph and flagging sim-state
//! call sites whose callee (defined outside the sim-state layer) is
//! tainted.
//!
//! R004 does the same for panics: a sim-state `pub fn` whose call chain
//! reaches an `.unwrap()`, `panic!`, or slice-indexing site can abort a
//! multi-hour simulation from deep inside a helper. Two barriers encode
//! accepted contracts: a `# Panics` doc section on any function on the
//! chain (callers opted in knowingly), and `lint.toml` waivers covering
//! the panic site itself (the invariant is written down). Direct panic
//! sites in the pub fn's own body are R001/R002's job and are not
//! re-flagged here.

use crate::allowlist::Allowlist;
use crate::checks::{classify_site, Diagnostic, Site};
use crate::config::Layers;
use crate::graph::CallGraph;
use crate::lexer::TokenKind;
use crate::parser::FileModel;
use crate::source::SourceFile;
use std::collections::{BTreeSet, VecDeque};

/// One analyzed file: the token-level view and the item-level view. The
/// slice passed to the passes must be in the same order the call graph was
/// built from.
pub type TaintFile = (SourceFile, FileModel);

/// Why a call-graph node is tainted.
#[derive(Debug, Clone)]
enum Cause {
    /// The fn's own body contains the source/site described here.
    Direct {
        what: String,
        path: String,
        line: u32,
    },
    /// Taint arrived through a call to this node.
    Via(usize),
}

/// Reverse call edges: for each node, who calls it.
fn reverse_edges(cg: &CallGraph) -> Vec<Vec<usize>> {
    let mut rev = vec![Vec::new(); cg.fns.len()];
    for (caller, edges) in cg.calls.iter().enumerate() {
        for &(callee, _) in edges {
            if callee != caller {
                rev[callee].push(caller);
            }
        }
    }
    rev
}

/// BFS from the seeds along reverse call edges. `barrier(n)` stops
/// propagation *out of* node `n`: the node itself stays tainted but its
/// callers are not tainted through it.
fn propagate(
    cg: &CallGraph,
    seeds: Vec<(usize, Cause)>,
    barrier: impl Fn(usize) -> bool,
) -> Vec<Option<Cause>> {
    let rev = reverse_edges(cg);
    let mut cause: Vec<Option<Cause>> = vec![None; cg.fns.len()];
    let mut queue = VecDeque::new();
    for (n, c) in seeds {
        if cause[n].is_none() {
            cause[n] = Some(c);
            queue.push_back(n);
        }
    }
    while let Some(n) = queue.pop_front() {
        if barrier(n) {
            continue;
        }
        for &caller in &rev[n] {
            if cause[caller].is_none() {
                cause[caller] = Some(Cause::Via(n));
                queue.push_back(caller);
            }
        }
    }
    cause
}

/// Render the taint chain from `start` down to its source:
/// `now_ms → clock → std::time::SystemTime (crates/helper/src/lib.rs:4)`.
fn render_chain(
    files: &[TaintFile],
    cg: &CallGraph,
    cause: &[Option<Cause>],
    start: usize,
) -> String {
    let name_of = |n: usize| {
        let (fi, gi) = cg.fns[n];
        files[fi].1.fns[gi].name.clone()
    };
    let mut parts = vec![name_of(start)];
    let mut cur = start;
    loop {
        match &cause[cur] {
            Some(Cause::Via(next)) => {
                parts.push(name_of(*next));
                cur = *next;
            }
            Some(Cause::Direct { what, path, line }) => {
                parts.push(format!("{what} ({path}:{line})"));
                break;
            }
            None => break,
        }
    }
    parts.join(" -> ")
}

// ------------------------------------------------------------------- D006 --

/// Find the first non-deterministic source in a fn body: wall clock,
/// process environment, or OS-seeded randomness — the same sources
/// D002/D003/D004 flag directly inside sim-state crates.
fn direct_nondet_source(src: &SourceFile, body: (usize, usize)) -> Option<(String, u32)> {
    let toks = &src.tokens;
    (body.0 + 1..body.1).find_map(|i| {
        let t = &toks[i];
        let what = match classify_site(toks, i)? {
            Site::WallClock => format!("std::time::{}", t.text),
            Site::Env => "std::env".to_string(),
            Site::ThreadRng => "thread_rng (OS-seeded)".to_string(),
            Site::RandCrate => "the `rand` crate".to_string(),
            Site::Unwrap | Site::Expect | Site::PanicMacro => return None,
        };
        Some((what, t.line))
    })
}

/// D006: sim-state call sites whose callee, defined outside the sim-state
/// layer, transitively reaches a non-deterministic source. Sources *inside*
/// sim-state crates are D002/D003/D004's job and are not re-routed here.
pub(crate) fn determinism_taint(
    files: &[TaintFile],
    cg: &CallGraph,
    layers: &Layers,
) -> Vec<Diagnostic> {
    let sim = layers.sim_state_crates();
    let mut seeds = Vec::new();
    for (n, &(fi, gi)) in cg.fns.iter().enumerate() {
        let (src, model) = &files[fi];
        if let Some(body) = model.fns[gi].body {
            if let Some((what, line)) = direct_nondet_source(src, body) {
                seeds.push((
                    n,
                    Cause::Direct {
                        what,
                        path: src.path.clone(),
                        line,
                    },
                ));
            }
        }
    }
    let cause = propagate(cg, seeds, |_| false);

    let mut diags = Vec::new();
    for (n, &(fi, _)) in cg.fns.iter().enumerate() {
        let (src, _) = &files[fi];
        if !sim.contains(src.crate_name.as_str()) {
            continue;
        }
        for &(callee, line) in &cg.calls[n] {
            let (callee_src, callee_model) = &files[cg.fns[callee].0];
            if sim.contains(callee_src.crate_name.as_str()) || cause[callee].is_none() {
                continue;
            }
            let callee_name = &callee_model.fns[cg.fns[callee].1].name;
            diags.push(Diagnostic {
                lint: "D006",
                path: src.path.clone(),
                line,
                message: format!(
                    "call into `{}::{}` reaches a non-deterministic source: {}; \
                     sim-state results must be seed-determined — take SimTime/Pcg32 as inputs instead",
                    callee_src.crate_name,
                    callee_name,
                    render_chain(files, cg, &cause, callee),
                ),
            });
        }
    }
    diags
}

// ------------------------------------------------------------------- R004 --

/// One potential panic site inside a fn body.
struct PanicSite {
    desc: &'static str,
    line: u32,
    /// The lint id a `lint.toml` waiver must carry to stand for this site.
    waiver: &'static str,
}

/// Keywords that may directly precede `[` without it being an indexing
/// expression (`let [a, b] = xs`, `return [x]`, `for v in [..]`).
const NONINDEX_KEYWORDS: &[&str] = &[
    "let", "in", "return", "if", "while", "match", "else", "move", "mut", "ref", "box", "yield",
];

/// Collect the panic sites in one fn body: the R001/R002 patterns plus
/// slice/array indexing (`xs[i]` panics on out-of-bounds).
fn direct_panic_sites(src: &SourceFile, body: (usize, usize)) -> Vec<PanicSite> {
    let toks = &src.tokens;
    let mut sites = Vec::new();
    for i in body.0 + 1..body.1 {
        let t = &toks[i];
        let (desc, waiver) = match classify_site(toks, i) {
            Some(Site::Unwrap) => (".unwrap()", "R001"),
            Some(Site::Expect) => (".expect(\"…\")", "R001"),
            Some(Site::PanicMacro) => ("a panic!-family macro", "R002"),
            _ if t.is_punct("[") && i >= 1 => {
                let prev = &toks[i - 1];
                let indexes_a_value = (prev.kind == TokenKind::Ident
                    && !NONINDEX_KEYWORDS.contains(&prev.text.as_str()))
                    || prev.is_punct(")")
                    || prev.is_punct("]");
                if !indexes_a_value {
                    continue;
                }
                ("slice indexing", "R004")
            }
            _ => continue,
        };
        sites.push(PanicSite {
            desc,
            line: t.line,
            waiver,
        });
    }
    sites
}

/// The index of the `lint.toml` waiver (of the right lint id) covering this
/// site, if any.
fn site_waiver(allow: &Allowlist, path: &str, site: &PanicSite) -> Option<usize> {
    allow.entries.iter().position(|e| {
        e.lint == site.waiver && e.path == path && e.line.is_none_or(|l| l == site.line)
    })
}

/// R004: sim-state `pub fn`s whose call chains reach a panic site. Flagged
/// at the pub fn (one diagnostic per fn, first offending call), because the
/// fix belongs to its contract: document `# Panics`, handle the error, or
/// waive the underlying site with a justification.
///
/// Also returns the indices of allowlist entries consumed as site barriers,
/// so the stale-waiver report does not flag entries whose only job is to
/// suppress seeds here (they never match a rendered diagnostic).
pub(crate) fn panic_reachability(
    files: &[TaintFile],
    cg: &CallGraph,
    layers: &Layers,
    allow: &Allowlist,
) -> (Vec<Diagnostic>, BTreeSet<usize>) {
    let sim = layers.sim_state_crates();
    let mut seeds = Vec::new();
    let mut used_waivers = BTreeSet::new();
    for (n, &(fi, gi)) in cg.fns.iter().enumerate() {
        let (src, model) = &files[fi];
        let f = &model.fns[gi];
        if src.is_bin || f.in_test {
            continue;
        }
        let Some(body) = f.body else { continue };
        let unwaived = direct_panic_sites(src, body).into_iter().find(|s| {
            match site_waiver(allow, &src.path, s) {
                Some(idx) => {
                    used_waivers.insert(idx);
                    false
                }
                None => true,
            }
        });
        if let Some(site) = unwaived {
            seeds.push((
                n,
                Cause::Direct {
                    what: site.desc.to_string(),
                    path: src.path.clone(),
                    line: site.line,
                },
            ));
        }
    }
    // `# Panics` docs are an accepted contract: the documented fn is still a
    // panic carrier itself, but callers reached it knowingly.
    let documented = |n: usize| {
        let (fi, gi) = cg.fns[n];
        files[fi].1.fns[gi].panics_documented
    };
    let cause = propagate(cg, seeds, documented);

    let mut diags = Vec::new();
    for (n, &(fi, gi)) in cg.fns.iter().enumerate() {
        let (src, model) = &files[fi];
        let f = &model.fns[gi];
        if !sim.contains(src.crate_name.as_str())
            || src.is_bin
            || !f.is_pub
            || f.in_test
            || f.panics_documented
        {
            continue;
        }
        for &(callee, call_line) in &cg.calls[n] {
            if callee == n || documented(callee) || cause[callee].is_none() {
                continue;
            }
            diags.push(Diagnostic {
                lint: "R004",
                path: src.path.clone(),
                line: f.line,
                message: format!(
                    "pub fn `{}` can panic via the call on line {}: {}; \
                     document a `# Panics` contract, handle the error, or waive the site in lint.toml",
                    f.name,
                    call_line,
                    render_chain(files, cg, &cause, callee),
                ),
            });
            break; // one diagnostic per pub fn
        }
    }
    (diags, used_waivers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{CrateGraph, FileRef};
    use crate::parser::parse_file;

    const LAYERS: &str = "[layers.sim-state]\ncrates = [\"simx\"]\nmay-use = [\"util\"]\n\
                          [layers.util]\ncrates = [\"helper\"]\nmay-use = []\n";

    fn setup(
        list: &[(&'static str, &'static str, &'static str)],
    ) -> (Vec<TaintFile>, CallGraph, Layers) {
        let files: Vec<TaintFile> = list
            .iter()
            .map(|(krate, path, src)| {
                let sf = SourceFile::parse(path, krate, src);
                let model = parse_file(&sf);
                (sf, model)
            })
            .collect();
        let refs: Vec<FileRef<'_>> = files
            .iter()
            .map(|(sf, m)| FileRef {
                crate_name: &sf.crate_name,
                path: &sf.path,
                model: m,
            })
            .collect();
        let crate_graph = CrateGraph::build(&refs);
        let cg = CallGraph::build(&refs, &crate_graph);
        let layers = crate::config::LintConfig::parse(LAYERS).unwrap().layers;
        (files, cg, layers)
    }

    #[test]
    fn d006_catches_laundered_wall_clock() {
        let (files, cg, layers) = setup(&[
            (
                "simx",
                "crates/simx/src/lib.rs",
                "pub fn step() { let t = helper::now_ms(); }",
            ),
            (
                "helper",
                "crates/helper/src/lib.rs",
                "pub fn now_ms() -> u64 { clock() }\nfn clock() -> u64 { SystemTime::now(); 0 }",
            ),
        ]);
        let diags = determinism_taint(&files, &cg, &layers);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].lint, "D006");
        assert_eq!(diags[0].path, "crates/simx/src/lib.rs");
        assert_eq!(diags[0].line, 1);
        assert!(diags[0]
            .message
            .contains("now_ms -> clock -> std::time::SystemTime"));
    }

    #[test]
    fn d006_quiet_for_clean_helpers_and_internal_sources() {
        // Clean helper: no taint anywhere.
        let (files, cg, layers) = setup(&[
            (
                "simx",
                "crates/simx/src/lib.rs",
                "pub fn step() { helper::pure(); }",
            ),
            (
                "helper",
                "crates/helper/src/lib.rs",
                "pub fn pure() -> u64 { 7 }",
            ),
        ]);
        assert!(determinism_taint(&files, &cg, &layers).is_empty());

        // Source directly inside sim-state: D002's job, not D006's.
        let (files, cg, layers) = setup(&[(
            "simx",
            "crates/simx/src/lib.rs",
            "fn local_clock() { SystemTime::now(); }\npub fn step() { local_clock(); }",
        )]);
        assert!(determinism_taint(&files, &cg, &layers).is_empty());
    }

    #[test]
    fn r004_flags_undocumented_panicky_chain() {
        let (files, cg, layers) = setup(&[
            (
                "simx",
                "crates/simx/src/lib.rs",
                "pub fn admit() { helper::pick(); }",
            ),
            (
                "helper",
                "crates/helper/src/lib.rs",
                "pub fn pick() -> u32 { inner() }\nfn inner() -> u32 { opts.first().unwrap() }",
            ),
        ]);
        let (diags, _) = panic_reachability(&files, &cg, &layers, &Allowlist::default());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].lint, "R004");
        assert!(diags[0].message.contains("pick -> inner -> .unwrap()"));
    }

    #[test]
    fn r004_honors_panics_doc_contract() {
        let (files, cg, layers) = setup(&[
            (
                "simx",
                "crates/simx/src/lib.rs",
                "/// # Panics\n/// Panics when empty.\npub fn documented() { helper::pick(); }\n\
                 pub fn contract_accepted() { helper::safe_entry(); }",
            ),
            (
                "helper",
                "crates/helper/src/lib.rs",
                "pub fn pick() -> u32 { x.unwrap() }\n\
                 /// # Panics\n/// Panics when empty.\npub fn safe_entry() -> u32 { x.unwrap() }",
            ),
        ]);
        let (diags, _) = panic_reachability(&files, &cg, &layers, &Allowlist::default());
        // `documented` declares its own contract; `contract_accepted` calls a
        // fn whose `# Panics` doc makes the panic an accepted contract.
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn r004_honors_site_waivers() {
        let (files, cg, layers) = setup(&[
            (
                "simx",
                "crates/simx/src/lib.rs",
                "pub fn admit() { helper::pick(); }",
            ),
            (
                "helper",
                "crates/helper/src/lib.rs",
                "pub fn pick() -> u32 { x.unwrap() }",
            ),
        ]);
        let allow = Allowlist::parse(
            "[[allow]]\nlint = \"R001\"\npath = \"crates/helper/src/lib.rs\"\nline = 1\n\
             justification = \"non-empty by construction\"\n",
        )
        .unwrap();
        let (diags, used) = panic_reachability(&files, &cg, &layers, &allow);
        assert!(diags.is_empty());
        assert_eq!(
            used.into_iter().collect::<Vec<_>>(),
            [0],
            "the waiver counts as used"
        );
    }

    #[test]
    fn r004_indexing_counts_as_a_panic_site() {
        let (files, cg, layers) = setup(&[
            (
                "simx",
                "crates/simx/src/lib.rs",
                "pub fn admit() { helper::nth(3); }",
            ),
            (
                "helper",
                "crates/helper/src/lib.rs",
                "pub fn nth(i: usize) -> u32 { TABLE[i] }",
            ),
        ]);
        let (diags, _) = panic_reachability(&files, &cg, &layers, &Allowlist::default());
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("slice indexing"));
        // Slice patterns and array literals are not indexing.
        let (files, cg, layers) = setup(&[
            (
                "simx",
                "crates/simx/src/lib.rs",
                "pub fn admit() { helper::first(); }",
            ),
            (
                "helper",
                "crates/helper/src/lib.rs",
                "pub fn first() -> [u32; 2] { let [a, b] = pair(); [a, b] }",
            ),
        ]);
        assert!(
            panic_reachability(&files, &cg, &layers, &Allowlist::default())
                .0
                .is_empty()
        );
    }

    #[test]
    fn r004_own_body_sites_are_not_reflagged() {
        // The pub fn's own unwrap is R001's job.
        let (files, cg, layers) = setup(&[(
            "simx",
            "crates/simx/src/lib.rs",
            "pub fn admit() -> u32 { x.unwrap() }",
        )]);
        assert!(
            panic_reachability(&files, &cg, &layers, &Allowlist::default())
                .0
                .is_empty()
        );
    }
}
