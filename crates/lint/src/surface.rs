//! A003: the public surface must have outside callers.
//!
//! A bare `pub fn`, `pub const` or `pub static` in a crate's library
//! (`crates/<c>/src/**` outside `src/bin/`) is flagged when its name appears
//! as a code token in no file outside that library. Outside means: other
//! crates' `src/`, every bin (`src/bin/`), the read-only caller files
//! (every crate's `tests/`, the workspace `tests/`, `examples/` and
//! `benchmark/src/`, listed by `workspace::caller_files`), the
//! doctest code blocks of every library, and the bodies of the crate's own
//! `#[macro_export]` macros, whose expansions run in the calling crate.
//!
//! The match is by name, not by resolved path: a `new` anywhere outside
//! keeps every `pub fn new` alive. That errs towards silence, never towards
//! a false finding, and a name no outside file mentions cannot be used
//! there. `pub(crate)`/`pub(super)` items, trait items and types are out of
//! scope.

use crate::checks::Diagnostic;
use crate::lexer::{lex, DocLine, TokenKind};
use crate::parser::{matching_back, matching_punct, FileModel};
use crate::source::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// Code-block info strings rustdoc compiles as Rust (an empty string is
/// Rust too); any other word (`text`, `toml`, `sh`) makes a block prose.
const RUST_FENCE_WORDS: &[&str] = &[
    "rust",
    "ignore",
    "no_run",
    "should_panic",
    "compile_fail",
    "test_harness",
];

/// A003 over the linted files and the identifier names of the read-only
/// caller files.
pub(crate) fn unused_public_items(
    files: &[(SourceFile, FileModel)],
    caller_names: &BTreeSet<String>,
) -> Vec<Diagnostic> {
    // Names used outside every library: bins, read-only callers, doctests.
    let mut anywhere: BTreeSet<&str> = caller_names.iter().map(String::as_str).collect();
    // Name -> the library crates whose code mentions it.
    let mut in_libs: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    // Crate -> names in the bodies of its exported macros.
    let mut in_macros: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut doctest_names: BTreeSet<String> = BTreeSet::new();
    for (src, _) in files {
        let idents = src
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str());
        if src.is_bin {
            anywhere.extend(idents);
            continue;
        }
        for name in idents {
            in_libs.entry(name).or_default().insert(&src.crate_name);
        }
        in_macros
            .entry(&src.crate_name)
            .or_default()
            .extend(exported_macro_names(src));
        doctest_names.extend(doctest_idents(&src.docs));
    }
    anywhere.extend(doctest_names.iter().map(String::as_str));

    let used_outside = |name: &str, krate: &str| {
        anywhere.contains(name)
            || in_libs
                .get(name)
                .is_some_and(|crates| crates.iter().any(|c| *c != krate))
            || in_macros.get(krate).is_some_and(|m| m.contains(name))
    };
    let mut diags = Vec::new();
    for (src, model) in files {
        if src.is_bin {
            continue;
        }
        let fns = model
            .fns
            .iter()
            .filter(|f| f.is_pub && !f.in_test)
            .map(|f| ("fn", f.name.as_str(), f.line));
        let values = model
            .values
            .iter()
            .filter(|v| v.is_pub && !v.in_test)
            .map(|v| (v.keyword, v.name.as_str(), v.line));
        for (keyword, name, line) in fns.chain(values) {
            if !used_outside(name, &src.crate_name) {
                diags.push(Diagnostic {
                    lint: "A003",
                    path: src.path.clone(),
                    line,
                    message: format!(
                        "`pub {keyword} {name}` in crate `{}` is named by no code outside \
                         its library; make it `pub(crate)` or private",
                        src.crate_name
                    ),
                });
            }
        }
    }
    diags
}

/// Identifiers in the bodies of the file's `#[macro_export] macro_rules!`
/// definitions.
fn exported_macro_names(src: &SourceFile) -> impl Iterator<Item = &str> {
    let toks = &src.tokens;
    let mut names = Vec::new();
    for i in 0..toks.len() {
        if !(toks[i].is_ident("macro_rules") && toks.get(i + 1).is_some_and(|t| t.is_punct("!"))) {
            continue;
        }
        // Walk back over the attributes stacked on the macro.
        let mut j = i;
        let mut exported = false;
        while j >= 1 && toks[j - 1].is_punct("]") {
            match matching_back(toks, j - 1, "[", "]") {
                Some(open) if open >= 1 && toks[open - 1].is_punct("#") => {
                    exported |= toks[open + 1].is_ident("macro_export");
                    j = open - 1;
                }
                _ => break,
            }
        }
        if !exported {
            continue;
        }
        let Some(open) = (i + 2..toks.len()).find(|&k| toks[k].is_punct("{")) else {
            continue;
        };
        let Some(close) = matching_punct(toks, open, "{", "}") else {
            continue;
        };
        names.extend(
            toks[open..close]
                .iter()
                .filter(|t| t.kind == TokenKind::Ident)
                .map(|t| t.text.as_str()),
        );
    }
    names.into_iter()
}

/// Identifiers in the Rust code blocks of a file's doc comments — the
/// doctests, which compile as a separate crate.
fn doctest_idents(docs: &[DocLine]) -> BTreeSet<String> {
    let mut code = String::new();
    let mut in_block: Option<bool> = None; // Some(is_rust) inside a fence
    for d in docs {
        if let Some(info) = d.text.strip_prefix("```") {
            in_block = match in_block {
                Some(_) => None,
                None => Some(
                    info.split(',')
                        .map(str::trim)
                        .filter(|w| !w.is_empty() && !w.starts_with("edition"))
                        .all(|w| RUST_FENCE_WORDS.contains(&w)),
                ),
            };
        } else if in_block == Some(true) {
            code.push_str(&d.text);
            code.push('\n');
        }
    }
    lex(&code)
        .tokens
        .into_iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;

    fn lint(files: &[(&str, &str, &str)], callers: &[&str]) -> Vec<(String, u32)> {
        let parsed: Vec<(SourceFile, FileModel)> = files
            .iter()
            .map(|(path, krate, text)| {
                let src = SourceFile::parse(path, krate, text);
                let model = parse_file(&src);
                (src, model)
            })
            .collect();
        let names = callers.iter().map(|s| s.to_string()).collect();
        unused_public_items(&parsed, &names)
            .into_iter()
            .map(|d| (d.path, d.line))
            .collect()
    }

    #[test]
    fn unused_fn_const_and_static_are_flagged() {
        let src = "pub fn lonely() {}\npub const LIMIT: u32 = 3;\npub static mut N: u8 = 0;\n\
                   pub const fn twice() -> u32 { 2 }";
        let got = lint(&[("crates/a/src/lib.rs", "a", src)], &[]);
        let mut lines: Vec<u32> = got.iter().map(|(_, l)| *l).collect();
        lines.sort_unstable();
        assert_eq!(lines, [1, 2, 3, 4]);
    }

    #[test]
    fn restricted_test_and_same_library_uses_are_not_callers() {
        let a = "pub fn used_at_home() {}\nfn private() { used_at_home() }\n\
                 pub(crate) fn narrow() {}\n#[cfg(test)]\nmod t { pub fn helper() {} }";
        let got = lint(&[("crates/a/src/lib.rs", "a", a)], &[]);
        assert_eq!(got, [("crates/a/src/lib.rs".to_string(), 1)]);
    }

    #[test]
    fn every_outside_file_kind_is_a_caller() {
        let a = "pub fn by_crate() {}\npub fn by_bin() {}\npub fn by_test() {}\n\
                 pub fn by_macro() {}\npub fn by_doc() {}\n\
                 #[macro_export]\nmacro_rules! m { () => { $crate::by_macro() }; }\n\
                 /// ```\n/// a::by_doc();\n/// ```\n/// ```text\n/// by_text\n/// ```\n\
                 pub fn by_text() {}";
        let files = [
            ("crates/a/src/lib.rs", "a", a),
            ("crates/b/src/lib.rs", "b", "fn f() { a::by_crate() }"),
            ("crates/a/src/bin/tool.rs", "a", "fn main() { a::by_bin() }"),
        ];
        let got = lint(&files, &["by_test"]);
        // Only the name in a `text` block has no caller.
        assert_eq!(got, [("crates/a/src/lib.rs".to_string(), 14)]);
    }

    #[test]
    fn an_unexported_macro_is_not_a_caller() {
        let a = "pub fn inner() {}\nmacro_rules! m { () => { inner() }; }";
        assert_eq!(lint(&[("crates/a/src/lib.rs", "a", a)], &[]).len(), 1);
    }
}
