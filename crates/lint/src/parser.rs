//! Item-level parsing on top of the token stream: function signatures and
//! bodies, struct fields, call sites, and path roots (`use` declarations and
//! qualified paths).
//!
//! This is the substrate the semantic passes run on. The per-file token
//! lints (D001–D005, R001–R003) need only the flat stream; the workspace
//! passes need to know *which function* a token belongs to (R004 panic
//! reachability), *who calls whom* (D006 determinism taint), and *which
//! crates a file references* (A001/A002 architecture layering). Like the
//! lexer, this is deliberately not a full parser: item headers and brace
//! matching are all the passes require, and a construct we fail to parse
//! degrades to "no item recorded", never to a wrong item.

use crate::lexer::{Token, TokenKind};
use crate::source::SourceFile;

/// One `name: type` binding — a fn parameter or struct field — as
/// `(name, line, type tokens)`.
pub type Binding = (String, u32, Vec<Token>);

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// The called name (`par_map`, `now_ms`); for method calls the method
    /// name, for qualified paths the final segment.
    pub name: String,
    /// For qualified calls (`helper::now_ms(…)`), the first path segment;
    /// the call-graph resolver uses it to narrow candidates to one crate.
    pub qualifier: Option<String>,
    pub line: u32,
    /// `receiver.name(…)` rather than `name(…)`.
    pub is_method: bool,
}

/// One parsed function item.
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    pub line: u32,
    /// Bare `pub` (crate-external API). `pub(crate)`/`pub(super)` are
    /// crate-internal and count as private here.
    pub is_pub: bool,
    /// Inside a `#[cfg(test)]` / `#[test]` region.
    pub in_test: bool,
    pub params: Vec<Binding>,
    /// Return type tokens (empty for `()` / no arrow).
    pub ret: Vec<Token>,
    /// Token index range `[open, close]` of the body braces; `None` for
    /// trait-signature items ending in `;`.
    pub body: Option<(usize, usize)>,
    /// The doc comment immediately above the item contains a `# Panics`
    /// section — the documented-panic contract convention (R004).
    pub panics_documented: bool,
    /// Calls made inside the body, in source order.
    pub calls: Vec<CallSite>,
}

/// One parsed struct with named fields.
#[derive(Debug, Clone)]
pub struct StructItem {
    pub name: String,
    pub line: u32,
    pub in_test: bool,
    pub fields: Vec<Binding>,
}

/// One `const` or `static` item with a plain name (`const N: u32 = 1;`).
#[derive(Debug, Clone)]
pub struct ValueItem {
    /// `"const"` or `"static"`.
    pub keyword: &'static str,
    pub name: String,
    pub line: u32,
    /// Bare `pub`, as for [`FnItem::is_pub`].
    pub is_pub: bool,
    pub in_test: bool,
}

/// A path-root reference: `use NAME::…` or `NAME::…` in expression or type
/// position. The dependency graph filters these against the set of actual
/// workspace crates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathRoot {
    pub name: String,
    pub line: u32,
    pub in_test: bool,
}

/// Everything the semantic passes need from one file.
#[derive(Debug, Default)]
pub struct FileModel {
    pub fns: Vec<FnItem>,
    pub structs: Vec<StructItem>,
    pub values: Vec<ValueItem>,
    pub path_roots: Vec<PathRoot>,
}

/// Keywords that look like calls when followed by `(`.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "move", "in", "as", "let", "else",
    "break", "continue", "await", "where", "impl", "dyn",
];

/// Parse one file's items.
pub fn parse_file(src: &SourceFile) -> FileModel {
    let toks = &src.tokens;
    let mut model = FileModel::default();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("fn") {
            if let Some((item, next)) = parse_fn(src, i) {
                model.fns.push(item);
                i = next;
                continue;
            }
        } else if toks[i].is_ident("struct") {
            if let Some((fields, name, line, end)) = struct_fields(toks, i) {
                model.structs.push(StructItem {
                    name,
                    line,
                    in_test: src.in_test[i],
                    fields,
                });
                i = end;
                continue;
            }
        } else if let Some(item) = parse_value(src, i) {
            model.values.push(item);
        }
        i += 1;
    }
    model.path_roots = collect_path_roots(src);
    model
}

/// Parse the `fn` at `fn_idx`; returns the item and the index to resume at
/// (past the signature, NOT past the body, so nested fns are found too).
fn parse_fn(src: &SourceFile, fn_idx: usize) -> Option<(FnItem, usize)> {
    let toks = &src.tokens;
    let (params, after_params) = fn_params(toks, fn_idx)?;
    let name = toks[fn_idx + 1].text.clone();
    let line = toks[fn_idx + 1].line;

    // Return type: `-> …` up to the body `{`, a `;`, or a `where` clause.
    let mut i = after_params;
    let mut ret = Vec::new();
    if toks.get(i).is_some_and(|t| t.is_punct("->")) {
        i += 1;
        while let Some(t) = toks.get(i) {
            if t.is_punct("{") || t.is_punct(";") || t.is_ident("where") {
                break;
            }
            ret.push(t.clone());
            i += 1;
        }
    }
    // Skip a where clause to the body/semicolon.
    while let Some(t) = toks.get(i) {
        if t.is_punct("{") || t.is_punct(";") {
            break;
        }
        i += 1;
    }
    let body = if toks.get(i).is_some_and(|t| t.is_punct("{")) {
        matching_punct(toks, i, "{", "}").map(|close| (i, close))
    } else {
        None
    };

    let first = item_first_token(toks, fn_idx);
    let is_pub = item_is_pub(toks, fn_idx);
    let panics_documented = docs_mention_panics(src, toks[first].line);
    let calls = body.map_or_else(Vec::new, |(open, close)| {
        collect_calls(&toks[open + 1..close])
    });
    Some((
        FnItem {
            name,
            line,
            is_pub,
            in_test: src.in_test[fn_idx],
            params,
            ret,
            body,
            panics_documented,
            calls,
        },
        after_params,
    ))
}

/// Parse `const NAME:` / `static [mut] NAME:` at `kw_idx`. `const fn`,
/// `*const T` and `const _` yield nothing.
fn parse_value(src: &SourceFile, kw_idx: usize) -> Option<ValueItem> {
    let toks = &src.tokens;
    let keyword = if toks[kw_idx].is_ident("const") {
        "const"
    } else if toks[kw_idx].is_ident("static") {
        "static"
    } else {
        return None;
    };
    let mut i = kw_idx + 1;
    if keyword == "static" && toks.get(i).is_some_and(|t| t.is_ident("mut")) {
        i += 1;
    }
    let name = toks
        .get(i)
        .filter(|t| t.kind == TokenKind::Ident && t.text != "_")?;
    if !toks.get(i + 1).is_some_and(|t| t.is_punct(":")) {
        return None;
    }
    Some(ValueItem {
        keyword,
        name: name.text.clone(),
        line: name.line,
        is_pub: item_is_pub(toks, kw_idx),
        in_test: src.in_test[kw_idx],
    })
}

/// Walk back from the `fn`/`struct` keyword over modifiers and attributes to
/// the first token of the item (where its doc comment must end).
fn item_first_token(toks: &[Token], kw_idx: usize) -> usize {
    let mut j = kw_idx;
    while j > 0 {
        let prev = &toks[j - 1];
        let is_modifier = prev.is_ident("pub")
            || prev.is_ident("const")
            || prev.is_ident("unsafe")
            || prev.is_ident("async")
            || prev.is_ident("extern")
            || prev.is_ident("crate")
            || prev.is_ident("super")
            || prev.is_ident("default")
            || (prev.kind == TokenKind::Literal && prev.text == "\"…\"");
        if is_modifier || prev.is_punct("(") || prev.is_punct(")") {
            j -= 1;
            continue;
        }
        // Attribute `#[…]` ending right before the current first token.
        if prev.is_punct("]") {
            if let Some(open) = matching_back(toks, j - 1, "[", "]") {
                if open > 0 && toks[open - 1].is_punct("#") {
                    j = open - 1;
                    continue;
                }
            }
        }
        break;
    }
    j
}

/// Is the item at `kw_idx` bare-`pub` (crate-external)?
fn item_is_pub(toks: &[Token], kw_idx: usize) -> bool {
    let mut j = kw_idx;
    while j > 0 {
        let prev = &toks[j - 1];
        if prev.is_ident("pub") {
            // `pub(crate)` restricts visibility: the token after `pub` is `(`.
            return !toks.get(j).is_some_and(|t| t.is_punct("("));
        }
        let skippable = prev.is_ident("const")
            || prev.is_ident("unsafe")
            || prev.is_ident("async")
            || prev.is_ident("extern")
            || prev.is_ident("crate")
            || prev.is_ident("super")
            || prev.is_ident("default")
            || (prev.kind == TokenKind::Literal && prev.text == "\"…\"")
            || prev.is_punct("(")
            || prev.is_punct(")");
        if !skippable {
            return false;
        }
        j -= 1;
    }
    false
}

/// Does the contiguous doc block ending on the line right above `item_line`
/// contain a `# Panics` section?
fn docs_mention_panics(src: &SourceFile, item_line: u32) -> bool {
    if item_line == 1 {
        return false;
    }
    let mut expect = item_line - 1;
    let mut found = false;
    for d in src.docs.iter().rev() {
        if d.line > expect {
            continue;
        }
        if d.line != expect {
            break; // gap: the block above the item has ended
        }
        if d.text.contains("# Panics") {
            found = true;
        }
        if expect == 1 {
            break;
        }
        expect -= 1;
    }
    found
}

/// Extract call sites from a body token slice.
fn collect_calls(body: &[Token]) -> Vec<CallSite> {
    let mut calls = Vec::new();
    for (i, t) in body.iter().enumerate() {
        if t.kind != TokenKind::Ident || !body.get(i + 1).is_some_and(|n| n.is_punct("(")) {
            continue;
        }
        let name = t.text.as_str();
        if CALL_KEYWORDS.contains(&name) {
            continue;
        }
        // `fn nested(…)` — a declaration, not a call.
        if i >= 1 && body[i - 1].is_ident("fn") {
            continue;
        }
        let is_method = i >= 1 && body[i - 1].is_punct(".");
        let mut qualifier = None;
        if !is_method && i >= 2 && body[i - 1].is_punct("::") {
            // Walk to the head of the `a::b::name(` path.
            let mut j = i;
            while j >= 2 && body[j - 1].is_punct("::") && body[j - 2].kind == TokenKind::Ident {
                j -= 2;
            }
            if j != i {
                qualifier = Some(body[j].text.clone());
            }
        }
        calls.push(CallSite {
            name: name.to_string(),
            qualifier,
            line: t.line,
            is_method,
        });
    }
    calls
}

/// Collect path roots: `use NAME…` and `NAME::…` where NAME is not itself a
/// path segment. `std`/`crate`/`self`/`super` are kept out (never workspace
/// crates); everything else is filtered later against the real crate set.
fn collect_path_roots(src: &SourceFile) -> Vec<PathRoot> {
    let toks = &src.tokens;
    let mut roots = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        if matches!(
            t.text.as_str(),
            "std" | "core" | "alloc" | "crate" | "self" | "super"
        ) {
            continue;
        }
        let followed_by_path = toks.get(i + 1).is_some_and(|n| n.is_punct("::"));
        let after_path = i >= 1 && toks[i - 1].is_punct("::");
        let after_use = i >= 1 && toks[i - 1].is_ident("use");
        if (followed_by_path && !after_path) || after_use {
            roots.push(PathRoot {
                name: t.text.clone(),
                line: t.line,
                in_test: src.in_test[i],
            });
        }
    }
    roots
}

// ------------------------------------------------------- shared token ops --

/// Parse the parameter list of the `fn` at `fn_idx`. Returns
/// `(params, index past the closing paren)`; each param is
/// `(name, line, type tokens)`. Self receivers and non-identifier patterns
/// are skipped.
pub(crate) fn fn_params(toks: &[Token], fn_idx: usize) -> Option<(Vec<Binding>, usize)> {
    let mut i = fn_idx + 1;
    // fn name, possibly with generics before the paren.
    if !toks.get(i).is_some_and(|t| t.kind == TokenKind::Ident) {
        return None;
    }
    i += 1;
    if toks.get(i).is_some_and(|t| t.is_punct("<")) {
        i = skip_angles(toks, i)?;
    }
    if !toks.get(i).is_some_and(|t| t.is_punct("(")) {
        return None;
    }
    let close = matching_punct(toks, i, "(", ")")?;
    let mut params = Vec::new();
    for group in split_commas(&toks[i + 1..close]) {
        let mut g = group;
        while g.first().is_some_and(|t| t.is_ident("mut")) {
            g = &g[1..];
        }
        // Skip receivers and non-trivial patterns: we need `ident : type`.
        let [name, colon, ty @ ..] = g else { continue };
        if name.kind != TokenKind::Ident || !colon.is_punct(":") || name.text == "self" {
            continue;
        }
        params.push((name.text.clone(), name.line, ty.to_vec()));
    }
    Some((params, close + 1))
}

/// Parse the fields of the braced `struct` at `struct_idx`. Tuple and unit
/// structs yield no item. Returns `(fields, name, line, index past the
/// closing brace)`.
pub(crate) fn struct_fields(
    toks: &[Token],
    struct_idx: usize,
) -> Option<(Vec<Binding>, String, u32, usize)> {
    let mut i = struct_idx + 1;
    if !toks.get(i).is_some_and(|t| t.kind == TokenKind::Ident) {
        return None;
    }
    let name = toks[i].text.clone();
    let line = toks[i].line;
    i += 1;
    if toks.get(i).is_some_and(|t| t.is_punct("<")) {
        i = skip_angles(toks, i)?;
    }
    if !toks.get(i).is_some_and(|t| t.is_punct("{")) {
        return None; // tuple struct, unit struct, or `struct X where …`
    }
    let close = matching_punct(toks, i, "{", "}")?;
    let mut fields = Vec::new();
    for group in split_commas(&toks[i + 1..close]) {
        let mut g = group;
        // Strip field attributes and visibility.
        loop {
            if g.first().is_some_and(|t| t.is_punct("#"))
                && g.get(1).is_some_and(|t| t.is_punct("["))
            {
                let Some(end) = g.iter().position(|t| t.is_punct("]")) else {
                    break;
                };
                g = &g[end + 1..];
            } else if g.first().is_some_and(|t| t.is_ident("pub")) {
                g = &g[1..];
                if g.first().is_some_and(|t| t.is_punct("(")) {
                    let Some(end) = g.iter().position(|t| t.is_punct(")")) else {
                        break;
                    };
                    g = &g[end + 1..];
                }
            } else {
                break;
            }
        }
        let [fname, colon, ty @ ..] = g else { continue };
        if fname.kind != TokenKind::Ident || !colon.is_punct(":") {
            continue;
        }
        fields.push((fname.text.clone(), fname.line, ty.to_vec()));
    }
    Some((fields, name, line, close + 1))
}

/// Split a token slice at top-level commas (tracking `()`, `[]`, `{}`, `<>`).
fn split_commas(toks: &[Token]) -> Vec<&[Token]> {
    let mut groups = Vec::new();
    let mut depth = 0i32;
    let mut start = 0;
    for (j, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" | "{" | "<" => depth += 1,
            ")" | "]" | "}" | ">" => depth -= 1,
            "," if depth == 0 => {
                groups.push(&toks[start..j]);
                start = j + 1;
            }
            _ => {}
        }
    }
    if start < toks.len() {
        groups.push(&toks[start..]);
    }
    groups
}

/// Skip a `<…>` generics group starting at `open`; returns index past `>`.
fn skip_angles(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct("<") {
            depth += 1;
        } else if t.is_punct(">") {
            depth -= 1;
            if depth == 0 {
                return Some(j + 1);
            }
        }
    }
    None
}

/// Index of the closer matching the opener at `open`.
pub(crate) fn matching_punct(toks: &[Token], open: usize, o: &str, c: &str) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Index of the opener matching the closer at `close`, scanning backward.
pub(crate) fn matching_back(toks: &[Token], close: usize, o: &str, c: &str) -> Option<usize> {
    let mut depth = 0i32;
    for j in (0..=close).rev() {
        if toks[j].is_punct(c) {
            depth += 1;
        } else if toks[j].is_punct(o) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> FileModel {
        parse_file(&SourceFile::parse("crates/x/src/lib.rs", "x", src))
    }

    #[test]
    fn fn_signature_and_body() {
        let m = model("pub fn admit(budget: Watts, n: u32) -> f64 { helper(n); x.update(n) }");
        assert_eq!(m.fns.len(), 1);
        let f = &m.fns[0];
        assert_eq!(f.name, "admit");
        assert!(f.is_pub);
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].0, "budget");
        assert_eq!(f.ret.len(), 1);
        assert_eq!(f.ret[0].text, "f64");
        assert!(f.body.is_some());
        let names: Vec<(&str, bool)> = f
            .calls
            .iter()
            .map(|c| (c.name.as_str(), c.is_method))
            .collect();
        assert_eq!(names, [("helper", false), ("update", true)]);
    }

    #[test]
    fn visibility_variants() {
        let m = model(
            "pub fn api() {}\nfn private() {}\npub(crate) fn internal() {}\n\
             pub const fn cpub() {}\npub unsafe extern \"C\" fn ffi() {}",
        );
        let vis: Vec<(&str, bool)> = m.fns.iter().map(|f| (f.name.as_str(), f.is_pub)).collect();
        assert_eq!(
            vis,
            [
                ("api", true),
                ("private", false),
                ("internal", false),
                ("cpub", true),
                ("ffi", true)
            ]
        );
    }

    #[test]
    fn panics_doc_attaches_to_the_item_below() {
        let m = model(
            "/// Sums the series.\n///\n/// # Panics\n/// Panics if empty.\n\
             #[inline]\npub fn sum() {}\n\npub fn undocumented() {}",
        );
        assert!(m.fns[0].panics_documented, "doc block above attrs attaches");
        assert!(!m.fns[1].panics_documented, "blank line breaks attachment");
    }

    #[test]
    fn qualified_calls_carry_their_path_root() {
        let m = model("fn f() { helper::now_ms(); soc_power::units::watts(1.0); g(); }");
        let calls = &m.fns[0].calls;
        assert_eq!(calls[0].qualifier.as_deref(), Some("helper"));
        assert_eq!(calls[1].qualifier.as_deref(), Some("soc_power"));
        assert_eq!(calls[1].name, "watts");
        assert_eq!(calls[2].qualifier, None);
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let m = model("fn f() { if cond() { vec![1] } else { format!(\"x\") ; other() } }");
        let names: Vec<&str> = m.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["cond", "other"]);
    }

    #[test]
    fn path_roots_exclude_std_and_segments() {
        let m =
            model("use std::fmt;\nuse soc_health::Recorder;\nfn f() { helper::g(); a::b::c(); }");
        let names: Vec<&str> = m.path_roots.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["soc_health", "helper", "a"]);
    }

    #[test]
    fn structs_with_fields() {
        let m = model("pub struct Server { pub budget: Watts, name: String }\nstruct Unit;");
        assert_eq!(m.structs.len(), 1);
        assert_eq!(m.structs[0].name, "Server");
        assert_eq!(m.structs[0].fields.len(), 2);
    }

    #[test]
    fn trait_signatures_have_no_body() {
        let m = model("trait T { fn hook(&self, n: u32); }");
        assert_eq!(m.fns.len(), 1);
        assert!(m.fns[0].body.is_none());
        assert!(m.fns[0].calls.is_empty());
    }

    #[test]
    fn test_regions_are_flagged() {
        let m = model("fn lib() {}\n#[cfg(test)]\nmod t { fn helper() {} }");
        assert!(!m.fns[0].in_test);
        assert!(m.fns[1].in_test);
    }
}
