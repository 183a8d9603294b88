//! A minimal Rust lexer.
//!
//! Produces a flat token stream with line numbers — identifiers, punctuation,
//! and literals — with comments and whitespace stripped and string/char
//! literals reduced to opaque `Literal` tokens so their *contents* can never
//! trigger a lint. This is deliberately not a full parser: every lint in the
//! catalog is a token-pattern query (`std :: collections :: HashMap`, `.
//! unwrap (`, `fn name ( params )`), so a correct tokenization with literal
//! and comment opacity is exactly the substrate needed.
//!
//! Handled: line comments, nested block comments, doc comments, `"…"` and
//! `r#"…"#` strings (any hash depth, `b`/`br` prefixes), char literals vs
//! lifetimes, numeric literals with type suffixes, and the multi-char
//! operators the checks care about (`::`, `->`, `=>`).
//!
//! Doc comments are stripped from the token stream like ordinary comments —
//! their contents must never trigger a token-pattern lint — but `lex`
//! additionally returns them as [`DocLine`]s so the item parser can honor
//! documented `# Panics` contracts (lint R004).

/// What kind of token this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `HashMap`, `unwrap`).
    Ident,
    /// Punctuation: single characters plus the merged `::`, `->`, `=>`.
    Punct,
    /// String, char, byte, or numeric literal (contents opaque).
    Literal,
    /// A lifetime such as `'a` (kept distinct so char-literal detection
    /// cannot eat generic parameters).
    Lifetime,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub text: String,
    pub line: u32,
    pub kind: TokenKind,
}

impl Token {
    fn new(text: impl Into<String>, line: u32, kind: TokenKind) -> Token {
        Token {
            text: text.into(),
            line,
            kind,
        }
    }

    /// True for an identifier token with exactly this text.
    pub(crate) fn is_ident(&self, text: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == text
    }

    /// True for a punctuation token with exactly this text.
    pub(crate) fn is_punct(&self, text: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == text
    }
}

/// One line of doc-comment text (`///`, `//!`, `/** */`, `/*! */`) with its
/// 1-based source line. The token stream never contains these; the item
/// parser reads them to honor documented `# Panics` contracts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocLine {
    pub line: u32,
    pub text: String,
}

/// The full lexer output: the comment/literal-opaque token stream plus the
/// doc-comment lines stripped out of it.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub docs: Vec<DocLine>,
}

/// Tokenize Rust source. Never fails: unterminated constructs simply consume
/// to end-of-file, which is the right degradation for a linter (a file the
/// compiler rejects will be reported by the build, not by us).
pub(crate) fn lex(source: &str) -> Lexed {
    let chars: Vec<char> = source.chars().collect();
    let mut tokens = Vec::new();
    let mut docs: Vec<DocLine> = Vec::new();
    let mut i = 0;
    let mut line: u32 = 1;
    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if chars.get(i + 1) == Some(&'/') => {
                // Line comment. `///` (but not `////`) and `//!` are doc
                // comments: captured as text, still absent from the tokens.
                let is_doc = match chars.get(i + 2) {
                    Some('/') => chars.get(i + 3) != Some(&'/'),
                    Some('!') => true,
                    _ => false,
                };
                let text_start = i + 3;
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
                if is_doc {
                    let text: String = chars[text_start.min(i)..i].iter().collect();
                    docs.push(DocLine {
                        line,
                        text: text.trim().to_string(),
                    });
                }
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                // Block comment; Rust block comments nest. `/**` (with
                // content) and `/*!` are doc comments, captured line by line;
                // the isolated `/**/` and `/***/` are ordinary comments.
                let is_doc = match chars.get(i + 2) {
                    Some('*') => {
                        chars.get(i + 3) != Some(&'/')
                            && !(chars.get(i + 3) == Some(&'*') && chars.get(i + 4) == Some(&'/'))
                    }
                    Some('!') => true,
                    _ => false,
                };
                let mut depth = 1;
                i += 2;
                if is_doc {
                    i += 1; // the `*`/`!` marker, not comment content
                }
                let mut buf = String::new();
                let flush = |line: u32, buf: &mut String, docs: &mut Vec<DocLine>| {
                    if is_doc {
                        let text = buf.trim().trim_start_matches('*').trim().to_string();
                        docs.push(DocLine { line, text });
                    }
                    buf.clear();
                };
                while i < chars.len() && depth > 0 {
                    if chars[i] == '\n' {
                        flush(line, &mut buf, &mut docs);
                        line += 1;
                        i += 1;
                    } else if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        buf.push(chars[i]);
                        i += 1;
                    }
                }
                // Final (or only) line of the block, `*/` excluded.
                flush(line, &mut buf, &mut docs);
            }
            '"' => {
                let start_line = line;
                i = skip_string(&chars, i, &mut line);
                tokens.push(Token::new("\"…\"", start_line, TokenKind::Literal));
            }
            'r' | 'b' if raw_string_start(&chars, i).is_some() => {
                let start_line = line;
                // Position of the opening quote and the number of `#`s.
                if let Some((quote, hashes)) = raw_string_start(&chars, i) {
                    i = if hashes == usize::MAX {
                        // Plain `b"…"`: delegate to the ordinary string scanner.
                        skip_string(&chars, quote, &mut line)
                    } else {
                        skip_raw_string(&chars, quote, hashes, &mut line)
                    };
                }
                tokens.push(Token::new("\"…\"", start_line, TokenKind::Literal));
            }
            '\'' => {
                // Lifetime (`'a`) or char literal (`'a'`, `'\n'`). A quote
                // followed by ident-start is a lifetime unless the char after
                // the identifier char is a closing quote.
                let next = chars.get(i + 1).copied();
                let after = chars.get(i + 2).copied();
                let is_lifetime =
                    matches!(next, Some(n) if n.is_alphabetic() || n == '_') && after != Some('\'');
                if is_lifetime {
                    let start = i + 1;
                    let mut j = start;
                    while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                        j += 1;
                    }
                    let name: String = chars[start..j].iter().collect();
                    tokens.push(Token::new(format!("'{name}"), line, TokenKind::Lifetime));
                    i = j;
                } else {
                    // Char literal: skip escape-aware to the closing quote.
                    let mut j = i + 1;
                    while j < chars.len() && chars[j] != '\'' {
                        if chars[j] == '\n' || (chars[j] == '\\' && chars.get(j + 1) == Some(&'\n'))
                        {
                            line += 1;
                        }
                        j += if chars[j] == '\\' { 2 } else { 1 };
                    }
                    tokens.push(Token::new("'…'", line, TokenKind::Literal));
                    i = j + 1;
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                tokens.push(Token::new(text, line, TokenKind::Ident));
            }
            c if c.is_ascii_digit() => {
                // Numeric literal, including underscores, `.` (but not `..`),
                // exponents, and type suffixes like `0u64` / `1.5f32`.
                let start = i;
                while i < chars.len() {
                    let d = chars[i];
                    let mid_float = d == '.'
                        && chars.get(i + 1).is_some_and(|n| n.is_ascii_digit())
                        && chars.get(i.wrapping_sub(1)) != Some(&'.');
                    if d.is_alphanumeric() || d == '_' || mid_float {
                        i += 1;
                    } else {
                        break;
                    }
                }
                let text: String = chars[start..i].iter().collect();
                tokens.push(Token::new(text, line, TokenKind::Literal));
            }
            ':' if chars.get(i + 1) == Some(&':') => {
                tokens.push(Token::new("::", line, TokenKind::Punct));
                i += 2;
            }
            '-' if chars.get(i + 1) == Some(&'>') => {
                tokens.push(Token::new("->", line, TokenKind::Punct));
                i += 2;
            }
            '=' if chars.get(i + 1) == Some(&'>') => {
                tokens.push(Token::new("=>", line, TokenKind::Punct));
                i += 2;
            }
            _ => {
                tokens.push(Token::new(c.to_string(), line, TokenKind::Punct));
                i += 1;
            }
        }
    }
    Lexed { tokens, docs }
}

/// Skip a `"…"` string starting at the opening quote index; returns the index
/// just past the closing quote and advances the line counter over embedded
/// newlines.
fn skip_string(chars: &[char], open: usize, line: &mut u32) -> usize {
    let mut j = open + 1;
    while j < chars.len() {
        match chars[j] {
            '\\' => {
                // A line-continuation escape (`\` at end of line) still
                // advances the line counter or every later diagnostic drifts.
                if chars.get(j + 1) == Some(&'\n') {
                    *line += 1;
                }
                j += 2;
            }
            '"' => return j + 1,
            '\n' => {
                *line += 1;
                j += 1;
            }
            _ => j += 1,
        }
    }
    j
}

/// If `chars[i..]` begins a raw (or byte) string, return the index of the
/// opening quote and the hash count. Plain `b"…"` (no `r`) is signalled with
/// `usize::MAX` hashes so the caller uses the escape-aware scanner.
fn raw_string_start(chars: &[char], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) == Some(&'r') {
        j += 1;
        let mut hashes = 0;
        while chars.get(j) == Some(&'#') {
            hashes += 1;
            j += 1;
        }
        if chars.get(j) == Some(&'"') {
            return Some((j, hashes));
        }
        return None;
    }
    // `b"…"` byte string with ordinary escapes.
    if j > i && chars.get(j) == Some(&'"') {
        return Some((j, usize::MAX));
    }
    None
}

/// Skip a raw string `r#…#"…"#…#` whose opening quote is at `open` with
/// `hashes` hash marks; returns the index just past the closing delimiter.
fn skip_raw_string(chars: &[char], open: usize, hashes: usize, line: &mut u32) -> usize {
    let mut j = open + 1;
    while j < chars.len() {
        if chars[j] == '\n' {
            *line += 1;
            j += 1;
        } else if chars[j] == '"' {
            let mut k = 0;
            while k < hashes && chars.get(j + 1 + k) == Some(&'#') {
                k += 1;
            }
            if k == hashes {
                return j + 1 + hashes;
            }
            j += 1;
        } else {
            j += 1;
        }
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokenize(source: &str) -> Vec<Token> {
        lex(source).tokens
    }

    fn texts(src: &str) -> Vec<String> {
        tokenize(src).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn idents_and_paths() {
        assert_eq!(
            texts("use std::collections::HashMap;"),
            ["use", "std", "::", "collections", "::", "HashMap", ";"]
        );
    }

    #[test]
    fn comments_are_opaque() {
        assert_eq!(
            texts("// HashMap\nx /* Instant /* nested */ */ y"),
            ["x", "y"]
        );
        assert_eq!(
            texts("/// doc HashMap\nfn f() {}"),
            ["fn", "f", "(", ")", "{", "}"]
        );
    }

    #[test]
    fn strings_are_opaque() {
        assert_eq!(
            texts(r#"let s = "HashMap::new()";"#),
            ["let", "s", "=", "\"…\"", ";"]
        );
        assert_eq!(
            texts(r##"let s = r#"Instant"#;"##),
            ["let", "s", "=", "\"…\"", ";"]
        );
        assert_eq!(
            texts(r#"let b = b"rand";"#),
            ["let", "b", "=", "\"…\"", ";"]
        );
    }

    #[test]
    fn lifetimes_vs_chars() {
        assert_eq!(
            texts("fn f<'a>(x: &'a str)"),
            ["fn", "f", "<", "'a", ">", "(", "x", ":", "&", "'a", "str", ")"]
        );
        assert_eq!(
            texts(r"let c = 'x'; let n = '\n';"),
            ["let", "c", "=", "'…'", ";", "let", "n", "=", "'…'", ";"]
        );
    }

    #[test]
    fn numbers_with_suffixes() {
        assert_eq!(texts("1_000u64 + 2.5f32"), ["1_000u64", "+", "2.5f32"]);
        // A range must not be eaten as a float.
        assert_eq!(texts("0..10"), ["0", ".", ".", "10"]);
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let toks = tokenize("a\n/* two\nlines */\nb\n\"x\ny\"\nc");
        let lines: Vec<(String, u32)> = toks.into_iter().map(|t| (t.text, t.line)).collect();
        assert_eq!(
            lines,
            [
                ("a".to_string(), 1),
                ("b".to_string(), 4),
                ("\"…\"".to_string(), 5),
                ("c".to_string(), 7)
            ]
        );
    }

    #[test]
    fn merged_operators() {
        assert_eq!(
            texts("a::b -> c => d"),
            ["a", "::", "b", "->", "c", "=>", "d"]
        );
    }

    // --- edge-case regressions (nested comments, raw strings, doc lines) ---

    #[test]
    fn deeply_nested_block_comments_close_exactly() {
        // The inner `*/` must not close the outer comment, and the token
        // after the whole construct must land on the right line.
        let toks = tokenize("a /* 1 /* 2 /* 3 */ 2 */ 1 */ b");
        let got: Vec<(String, u32)> = toks.into_iter().map(|t| (t.text, t.line)).collect();
        assert_eq!(got, [("a".to_string(), 1), ("b".to_string(), 1)]);
        // Unbalanced nesting consumes to EOF, like rustc.
        assert_eq!(texts("x /* /* */ y"), ["x"]);
    }

    #[test]
    fn raw_strings_with_hashes_are_opaque_and_line_exact() {
        // `"#` inside an `r##"…"##` body must not close the literal.
        let toks = tokenize("r##\"a \"# Instant\nHashMap\"## after");
        let got: Vec<(String, u32)> = toks.into_iter().map(|t| (t.text, t.line)).collect();
        assert_eq!(got, [("\"…\"".to_string(), 1), ("after".to_string(), 2)]);
        // A raw string has no escapes: `\` right before the closing quote.
        assert_eq!(texts(r#"r"a\" b"#), ["\"…\"", "b"]);
    }

    #[test]
    fn string_line_continuations_keep_line_numbers() {
        // `\` at end of line inside a string literal swallows the newline;
        // the counter must still advance or every later line drifts.
        let toks = tokenize("let s = \"a\\\nb\";\nnext");
        let next = toks.into_iter().find(|t| t.text == "next").unwrap();
        assert_eq!(next.line, 3);
    }

    #[test]
    fn doc_comments_are_stripped_but_captured() {
        let lexed = lex("/// outer HashMap\n//! inner Instant\n//// not-a-doc rand\nfn f() {}");
        let texts: Vec<&str> = lexed.tokens.iter().map(|t| t.text.as_str()).collect();
        // None of the comment contents leak into the token stream.
        assert_eq!(texts, ["fn", "f", "(", ")", "{", "}"]);
        let docs: Vec<(u32, &str)> = lexed
            .docs
            .iter()
            .map(|d| (d.line, d.text.as_str()))
            .collect();
        assert_eq!(docs, [(1, "outer HashMap"), (2, "inner Instant")]);
    }

    #[test]
    fn block_doc_comments_yield_per_line_text() {
        let lexed = lex("/** first\n * # Panics\n */\nfn f() {}");
        let docs: Vec<(u32, &str)> = lexed
            .docs
            .iter()
            .map(|d| (d.line, d.text.as_str()))
            .collect();
        assert_eq!(docs, [(1, "first"), (2, "# Panics"), (3, "")]);
        assert_eq!(lexed.tokens[0].line, 4);
        // `/**/` and `/***/` are ordinary comments, not docs.
        assert!(lex("/**/ /***/ x").docs.is_empty());
    }
}
