//! The workspace dependency graph and intra-workspace call graph.
//!
//! Both graphs are built from the per-file [`crate::parser::FileModel`]s and
//! carry source provenance (file + line) so every architecture diagnostic
//! points at an actual reference site, not just a crate pair. The crate
//! graph feeds the A001/A002 layering passes and the `soc-lint graph`
//! subcommand (DOT/JSON dump); the call graph feeds the D006 determinism
//! taint and R004 panic-reachability passes.

use crate::config::Layers;
use crate::parser::FileModel;
use soc_telemetry::json::escape;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One analyzed file, borrowed from the workspace analysis.
#[derive(Clone, Copy)]
pub struct FileRef<'a> {
    /// Crate directory name under `crates/`.
    pub crate_name: &'a str,
    /// Workspace-relative path.
    pub path: &'a str,
    pub model: &'a FileModel,
}

/// Does `ident` name the workspace crate in directory `dir`? Package names
/// follow the `soc-<dir>` convention, so the source ident is `soc_<dir>`;
/// bare `<dir>` is accepted too so fixture workspaces (and any future
/// unprefixed crate) resolve.
pub fn ident_names_crate(ident: &str, dir: &str) -> bool {
    ident == dir || (ident.strip_prefix("soc_") == Some(dir))
}

/// One reference from a file to a crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefSite {
    pub path: String,
    pub line: u32,
    pub in_test: bool,
}

/// Crate-level dependency graph with reference-site provenance.
#[derive(Debug, Default)]
pub struct CrateGraph {
    /// All workspace crate directory names, sorted.
    pub crates: Vec<String>,
    /// `(from, to)` → first reference site per file, sorted by path. Self
    /// edges are never recorded.
    pub edges: BTreeMap<(String, String), Vec<RefSite>>,
}

impl CrateGraph {
    /// Build the graph from every file's path roots, resolved against the
    /// set of crates that actually exist in the workspace.
    pub fn build(files: &[FileRef<'_>]) -> CrateGraph {
        let crates: BTreeSet<String> = files.iter().map(|f| f.crate_name.to_string()).collect();
        let mut edges: BTreeMap<(String, String), Vec<RefSite>> = BTreeMap::new();
        for f in files {
            let mut seen_here: BTreeSet<&str> = BTreeSet::new();
            for root in &f.model.path_roots {
                let Some(target) = crates.iter().find(|dir| ident_names_crate(&root.name, dir))
                else {
                    continue;
                };
                if target == f.crate_name || !seen_here.insert(target) {
                    continue; // self-reference, or already recorded for file
                }
                edges
                    .entry((f.crate_name.to_string(), target.clone()))
                    .or_default()
                    .push(RefSite {
                        path: f.path.to_string(),
                        line: root.line,
                        in_test: root.in_test,
                    });
            }
        }
        for sites in edges.values_mut() {
            sites.sort_by(|a, b| (a.path.as_str(), a.line).cmp(&(b.path.as_str(), b.line)));
        }
        CrateGraph {
            crates: crates.into_iter().collect(),
            edges,
        }
    }

    /// Direct dependencies of `from`, sorted.
    fn deps_of(&self, from: &str) -> Vec<&str> {
        self.edges
            .keys()
            .filter(|(f, _)| f == from)
            .map(|(_, t)| t.as_str())
            .collect()
    }

    /// BFS over the dependency edges from `start`: every reachable crate
    /// mapped to its predecessor on a shortest path (for chain rendering).
    /// `start` itself is not included.
    pub fn reachable_from(&self, start: &str) -> BTreeMap<String, String> {
        let mut pred: BTreeMap<String, String> = BTreeMap::new();
        let mut queue = VecDeque::from([start.to_string()]);
        while let Some(cur) = queue.pop_front() {
            for dep in self.deps_of(&cur) {
                if dep != start && !pred.contains_key(dep) {
                    pred.insert(dep.to_string(), cur.clone());
                    queue.push_back(dep.to_string());
                }
            }
        }
        pred
    }

    /// The shortest dependency path `start → … → target`, as crate names,
    /// using a predecessor map from [`Self::reachable_from`].
    pub fn path_to(
        &self,
        start: &str,
        target: &str,
        pred: &BTreeMap<String, String>,
    ) -> Vec<String> {
        let mut chain = vec![target.to_string()];
        let mut cur = target;
        while cur != start {
            let Some(p) = pred.get(cur) else {
                return Vec::new(); // unreachable: no chain to render
            };
            chain.push(p.clone());
            cur = p;
        }
        chain.reverse();
        chain
    }

    /// DOT rendering of the crate graph, layer-annotated when layers are
    /// configured. Deterministic output: nodes and edges in sorted order.
    pub fn render_dot(&self, layers: &Layers) -> String {
        let mut out = String::from("digraph workspace {\n  rankdir=LR;\n  node [shape=box];\n");
        for c in &self.crates {
            let label = match layers.layer_of(c) {
                Some(layer) => format!("{c}\\n[{layer}]"),
                None => c.clone(),
            };
            out.push_str(&format!("  \"{c}\" [label=\"{label}\"];\n"));
        }
        for ((from, to), sites) in &self.edges {
            out.push_str(&format!(
                "  \"{from}\" -> \"{to}\" [label=\"{}\"];\n",
                sites.len()
            ));
        }
        out.push_str("}\n");
        out
    }

    /// JSON rendering: `{"crates":[{"name","layer"}],"edges":[{"from","to",
    /// "refs","first_site"}]}`.
    pub fn render_json(&self, layers: &Layers) -> String {
        let mut out = String::from("{\"crates\":[");
        for (i, c) in self.crates.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"name\":{}", escape(c)));
            if let Some(layer) = layers.layer_of(c) {
                out.push_str(&format!(",\"layer\":{}", escape(layer)));
            }
            out.push('}');
        }
        out.push_str("],\"edges\":[");
        for (i, ((from, to), sites)) in self.edges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let first = &sites[0];
            out.push_str(&format!(
                "{{\"from\":{},\"to\":{},\"refs\":{},\"first_site\":{}}}",
                escape(from),
                escape(to),
                sites.len(),
                escape(&format!("{}:{}", first.path, first.line))
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// One function in the workspace call graph, addressed as
/// `(file index, fn index within that file's model)`.
pub type FnId = (usize, usize);

/// The intra-workspace call graph. Calls are resolved by name with crate
/// narrowing: a qualified call resolves inside the named crate, an
/// unqualified or method call resolves first inside the calling crate, then
/// across its direct dependencies. Unresolvable names (std, vendored crates)
/// simply produce no edge — the passes over this graph are about workspace
/// helpers, and a missing edge degrades to the per-file lints that already
/// cover direct uses.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Node `n` is function `self.fns[n]`.
    pub fns: Vec<FnId>,
    /// Outgoing call edges per node: `(callee node, call-site line)`.
    pub calls: Vec<Vec<(usize, u32)>>,
}

impl CallGraph {
    pub fn build(files: &[FileRef<'_>], crate_graph: &CrateGraph) -> CallGraph {
        // Index every fn by name, remembering its crate.
        let mut fns: Vec<FnId> = Vec::new();
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (fi, f) in files.iter().enumerate() {
            for (gi, item) in f.model.fns.iter().enumerate() {
                by_name.entry(&item.name).or_default().push(fns.len());
                fns.push((fi, gi));
            }
        }
        let crate_of = |node: usize| files[fns[node].0].crate_name;

        let mut calls: Vec<Vec<(usize, u32)>> = vec![Vec::new(); fns.len()];
        for (node, &(fi, gi)) in fns.iter().enumerate() {
            let caller_crate = files[fi].crate_name;
            let deps: BTreeSet<&str> = crate_graph.deps_of(caller_crate).into_iter().collect();
            for call in &files[fi].model.fns[gi].calls {
                let Some(candidates) = by_name.get(call.name.as_str()) else {
                    continue;
                };
                // Qualified by a crate name: resolve only inside that crate.
                let crate_qualified = call.qualifier.as_deref().and_then(|q| {
                    crate_graph
                        .crates
                        .iter()
                        .find(|dir| ident_names_crate(q, dir))
                });
                let resolved: Vec<usize> = if let Some(target_crate) = crate_qualified {
                    candidates
                        .iter()
                        .copied()
                        .filter(|&n| crate_of(n) == target_crate)
                        .collect()
                } else {
                    // Same crate first; otherwise any direct dependency.
                    let same: Vec<usize> = candidates
                        .iter()
                        .copied()
                        .filter(|&n| crate_of(n) == caller_crate)
                        .collect();
                    if same.is_empty() {
                        candidates
                            .iter()
                            .copied()
                            .filter(|&n| deps.contains(crate_of(n)))
                            .collect()
                    } else {
                        same
                    }
                };
                for callee in resolved {
                    calls[node].push((callee, call.line));
                }
            }
        }
        CallGraph { fns, calls }
    }

    /// Node indices of every fn, for iteration.
    pub fn nodes(&self) -> std::ops::Range<usize> {
        0..self.fns.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;
    use crate::source::SourceFile;

    fn files(
        list: &[(&'static str, &'static str, &'static str)],
    ) -> Vec<(String, String, FileModel)> {
        list.iter()
            .map(|(krate, path, src)| {
                let sf = SourceFile::parse(path, krate, src);
                (krate.to_string(), path.to_string(), parse_file(&sf))
            })
            .collect()
    }

    fn refs(owned: &[(String, String, FileModel)]) -> Vec<FileRef<'_>> {
        owned
            .iter()
            .map(|(c, p, m)| FileRef {
                crate_name: c,
                path: p,
                model: m,
            })
            .collect()
    }

    #[test]
    fn crate_edges_with_provenance() {
        let owned = files(&[
            (
                "cluster",
                "crates/cluster/src/lib.rs",
                "use soc_power::units::Watts;\nfn f() { soc_power::units::clamp(); }",
            ),
            ("power", "crates/power/src/lib.rs", "pub fn clamp() {}"),
        ]);
        let g = CrateGraph::build(&refs(&owned));
        assert_eq!(g.crates, ["cluster", "power"]);
        let sites = &g.edges[&("cluster".to_string(), "power".to_string())];
        // One site per file, the first reference.
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].line, 1);
    }

    #[test]
    fn reachability_and_paths() {
        let owned = files(&[
            ("a", "crates/a/src/lib.rs", "use soc_b::x;"),
            ("b", "crates/b/src/lib.rs", "use soc_c::y;"),
            ("c", "crates/c/src/lib.rs", ""),
        ]);
        let g = CrateGraph::build(&refs(&owned));
        let pred = g.reachable_from("a");
        assert!(pred.contains_key("b") && pred.contains_key("c"));
        assert_eq!(g.path_to("a", "c", &pred), ["a", "b", "c"]);
        assert!(g.reachable_from("c").is_empty());
    }

    #[test]
    fn call_resolution_prefers_same_crate_then_deps() {
        let owned = files(&[
            (
                "a",
                "crates/a/src/lib.rs",
                "use soc_b::shared;\nfn local() {}\nfn f() { local(); shared(); soc_b::only_b(); }",
            ),
            (
                "b",
                "crates/b/src/lib.rs",
                "pub fn shared() {}\npub fn only_b() {}\nfn local() {}",
            ),
        ]);
        let g = CrateGraph::build(&refs(&owned));
        let cg = CallGraph::build(&refs(&owned), &g);
        // Find node for a::f (file 0, fn index 1).
        let f_node = cg.fns.iter().position(|&id| id == (0, 1)).unwrap();
        let callees: Vec<FnId> = cg.calls[f_node].iter().map(|&(n, _)| cg.fns[n]).collect();
        // local() resolves to a::local only; shared() to b::shared (not a
        // local one — none in a); only_b qualified to b.
        assert_eq!(callees, [(0, 0), (1, 0), (1, 1)]);
    }

    #[test]
    fn dot_and_json_are_deterministic_and_layered() {
        let owned = files(&[
            ("a", "crates/a/src/lib.rs", "use soc_b::x;"),
            ("b", "crates/b/src/lib.rs", ""),
        ]);
        let g = CrateGraph::build(&refs(&owned));
        let layers = crate::config::LintConfig::parse(
            "[layers.top]\ncrates = [\"a\"]\nmay-use = [\"bot\"]\n[layers.bot]\ncrates = [\"b\"]\nmay-use = []\n",
        )
        .unwrap()
        .layers;
        let dot = g.render_dot(&layers);
        assert!(dot.contains("\"a\" -> \"b\""));
        assert!(dot.contains("[top]"));
        let json = g.render_json(&layers);
        assert!(json.contains("{\"from\":\"a\",\"to\":\"b\",\"refs\":1,"));
        assert!(json.contains("\"layer\":\"top\""));
    }
}
