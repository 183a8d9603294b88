//! Per-file source model: token stream plus the structural facts the checks
//! need — which tokens sit inside `#[cfg(test)]` / `#[test]` items, which
//! crate the file belongs to, and whether it is a binary entry point.

use crate::lexer::{lex, DocLine, Token};
use crate::parser::matching_punct;

/// A tokenized source file with lint-relevant structure attached.
pub struct SourceFile {
    /// Workspace-relative path (`crates/power/src/units.rs`).
    pub path: String,
    /// Directory name under `crates/` (`power`, not the package name).
    pub crate_name: String,
    /// Token stream (comments and literal contents already stripped).
    pub tokens: Vec<Token>,
    /// Doc-comment lines stripped out of the token stream, in line order;
    /// the item parser reads these for documented `# Panics` contracts.
    pub docs: Vec<DocLine>,
    /// Parallel to `tokens`: true when the token is inside a `#[cfg(test)]`
    /// or `#[test]` item (the attribute itself, the item header, and the
    /// whole body).
    pub in_test: Vec<bool>,
    /// True for `src/bin/*` and `src/main.rs` — CLI entry points, where the
    /// robustness lints do not apply (a `main` reporting errors via
    /// `ExitCode` has no caller to propagate to).
    pub is_bin: bool,
}

impl SourceFile {
    /// Tokenize `source` and compute structure.
    pub fn parse(path: &str, crate_name: &str, source: &str) -> SourceFile {
        let lexed = lex(source);
        let in_test = mark_test_regions(&lexed.tokens);
        let is_bin = path.contains("/src/bin/") || path.ends_with("src/main.rs");
        SourceFile {
            path: path.to_string(),
            crate_name: crate_name.to_string(),
            tokens: lexed.tokens,
            docs: lexed.docs,
            in_test,
            is_bin,
        }
    }
}

/// Mark every token belonging to a `#[cfg(test)]` or `#[test]` item.
///
/// An attribute covers the item that follows it: any further attributes and
/// then either a braced body (covered to the matching `}`) or a `;`-item
/// (covered to the `;`). `cfg` attributes count when they mention `test`
/// anywhere in their argument (`cfg(test)`, `cfg(any(test, fuzzing))`);
/// bare `#[test]`-style attributes count when their final path segment is
/// `test` (covers `#[test]`, `#[tokio::test]`).
fn mark_test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_punct("#") && tokens.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            let attr_start = i;
            let close = match matching_punct(tokens, i + 1, "[", "]") {
                Some(c) => c,
                None => break, // unterminated attribute: nothing more to mark
            };
            if attr_is_test(&tokens[i + 2..close]) {
                let end = item_end(tokens, close + 1).unwrap_or(tokens.len() - 1);
                for flag in in_test.iter_mut().take(end + 1).skip(attr_start) {
                    *flag = true;
                }
            }
            i = close + 1;
        } else {
            i += 1;
        }
    }
    in_test
}

/// Does this attribute body (tokens between `#[` and `]`) gate on test?
fn attr_is_test(body: &[Token]) -> bool {
    let Some(first) = body.first() else {
        return false;
    };
    if first.is_ident("cfg") {
        // `test` counts only outside a `not(...)` group: `#[cfg(not(test))]`
        // gates code that runs everywhere EXCEPT tests, so exempting it from
        // the R-lints would be exactly backwards.
        return cfg_mentions_test(body);
    }
    // Bare test-like attribute: last path segment is `test`.
    body.last().is_some_and(|t| t.is_ident("test"))
}

/// Scan a `cfg(...)` attribute body for `test` outside any `not(...)`.
fn cfg_mentions_test(body: &[Token]) -> bool {
    // Depth of nesting inside `not(...)` groups: when >0, `test` is negated.
    let mut not_depth = 0usize;
    // Parenthesis depths at which a `not(` group opened.
    let mut not_opens: Vec<usize> = Vec::new();
    let mut depth = 0usize;
    let mut prev_ident_not = false;
    for t in body {
        if t.is_punct("(") {
            if prev_ident_not {
                not_depth += 1;
                not_opens.push(depth);
            }
            depth += 1;
        } else if t.is_punct(")") {
            depth = depth.saturating_sub(1);
            if not_opens.last() == Some(&depth) {
                not_opens.pop();
                not_depth -= 1;
            }
        } else if t.is_ident("test") && not_depth == 0 {
            return true;
        }
        prev_ident_not = t.is_ident("not");
    }
    false
}

/// Index of the token that ends the item starting at `start`: the `}`
/// matching its first body brace, or a top-level `;` for brace-less items.
/// Skips over any further attributes before the item keyword.
fn item_end(tokens: &[Token], start: usize) -> Option<usize> {
    let mut i = start;
    // Skip stacked attributes (`#[test] #[ignore] fn …`).
    while i < tokens.len()
        && tokens[i].is_punct("#")
        && tokens.get(i + 1).is_some_and(|t| t.is_punct("["))
    {
        i = matching_punct(tokens, i + 1, "[", "]")? + 1;
    }
    // Walk to the item body `{` or terminating `;`, stepping over any
    // parenthesized/bracketed groups in the header (fn args, generics are
    // `<`/`>` which never nest ambiguously at item level for our purposes).
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct("{") {
            return matching_punct(tokens, i, "{", "}");
        }
        if t.is_punct(";") {
            return Some(i);
        }
        if t.is_punct("(") {
            i = matching_punct(tokens, i, "(", ")")? + 1;
        } else if t.is_punct("[") {
            i = matching_punct(tokens, i, "[", "]")? + 1;
        } else {
            i += 1;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_flags(src: &str) -> Vec<(String, bool)> {
        let sf = SourceFile::parse("crates/x/src/lib.rs", "x", src);
        sf.tokens
            .iter()
            .zip(&sf.in_test)
            .map(|(t, &f)| (t.text.clone(), f))
            .collect()
    }

    #[test]
    fn cfg_test_mod_is_covered() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }\nfn tail() {}";
        let flags = test_flags(src);
        let covered: Vec<&str> = flags
            .iter()
            .filter(|(_, f)| *f)
            .map(|(t, _)| t.as_str())
            .collect();
        assert!(covered.contains(&"unwrap"));
        assert!(covered.contains(&"mod"));
        let uncovered: Vec<&str> = flags
            .iter()
            .filter(|(_, f)| !*f)
            .map(|(t, _)| t.as_str())
            .collect();
        assert!(uncovered.contains(&"lib"));
        assert!(uncovered.contains(&"tail"));
    }

    #[test]
    fn bare_test_fn_is_covered() {
        let src = "#[test]\nfn check() { y.unwrap(); }\nfn real() { work(); }";
        let flags = test_flags(src);
        assert!(flags.iter().any(|(t, f)| t == "unwrap" && *f));
        assert!(flags.iter().any(|(t, f)| t == "work" && !*f));
    }

    #[test]
    fn stacked_attributes_and_cfg_any() {
        let src = "#[cfg(any(test, fuzzing))]\n#[allow(dead_code)]\nfn helper() { z.unwrap(); }";
        let flags = test_flags(src);
        assert!(flags.iter().any(|(t, f)| t == "unwrap" && *f));
    }

    #[test]
    fn cfg_not_test_is_not_covered() {
        let src = "#[cfg(feature = \"extra\")]\nfn gated() { q.unwrap(); }";
        let flags = test_flags(src);
        assert!(flags.iter().any(|(t, f)| t == "unwrap" && !*f));
        // `#[cfg(not(test))]` code runs everywhere EXCEPT under test — it is
        // ordinary library code and must not be exempt from the R-lints.
        let src = "#[cfg(not(test))]\nfn prod() { q.unwrap(); }";
        let flags = test_flags(src);
        assert!(flags.iter().any(|(t, f)| t == "unwrap" && !*f));
        // But `test` outside the `not(...)` group still gates the item.
        let src = "#[cfg(any(test, not(fuzzing)))]\nfn t() { q.unwrap(); }";
        let flags = test_flags(src);
        assert!(flags.iter().any(|(t, f)| t == "unwrap" && *f));
    }

    #[test]
    fn semicolon_items_end_at_semicolon() {
        let src = "#[cfg(test)]\nuse helpers::x;\nfn real() { work(); }";
        let flags = test_flags(src);
        assert!(flags.iter().any(|(t, f)| t == "helpers" && *f));
        assert!(flags.iter().any(|(t, f)| t == "work" && !*f));
    }

    #[test]
    fn bin_detection() {
        assert!(SourceFile::parse("crates/x/src/bin/tool.rs", "x", "").is_bin);
        assert!(SourceFile::parse("crates/x/src/main.rs", "x", "").is_bin);
        assert!(!SourceFile::parse("crates/x/src/lib.rs", "x", "").is_bin);
    }
}
