//! The workspace's one JSON codec.
//!
//! The workspace deliberately has no JSON crate. Every JSON artifact — JSONL
//! telemetry traces, soc-prof snapshots, soc-health reports and soc-lint
//! reports — is written with [`push_str`]/[`escape`] and [`fmt_num`] and read
//! back with [`parse`], so the whole surface is one escaper, one number
//! formatter, one [`Value`] type and one parser.
//!
//! Writers are byte-stable: strings use a fixed escape table and floats use
//! Rust's shortest round-trip `Display`, so the same run always serializes to
//! the same bytes. The parser follows the JSON grammar (numbers, escapes,
//! surrogate pairs), keeps object members in document order, and rejects
//! malformed or over-deep input with a typed [`JsonError`] instead of
//! aborting.

use crate::event::{Event, FieldValue};
use std::fmt::{self, Write as _};
use std::ops::Index;

/// Deepest array/object nesting [`parse`] accepts. Canonical documents
/// nest fewer than ten levels; the cap keeps hostile input from exhausting
/// the stack of the recursive-descent parser.
const MAX_DEPTH: usize = 128;

/// Append `s` to `out` as a JSON string literal (including the quotes).
pub fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `s` as a JSON string literal (including the quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_str(&mut out, s);
    out
}

/// Format a float canonically: Rust's `Display` is the shortest decimal that
/// round-trips to the same bits, in positional notation. JSON has no
/// Inf/NaN, so non-finite values are written as `0`.
pub fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Append a JSON representation of an event field. A non-finite float
/// becomes `null`: the event carried no usable number.
pub fn push_json_value(out: &mut String, v: &FieldValue) {
    match v {
        FieldValue::U64(n) => {
            let _ = write!(out, "{n}");
        }
        FieldValue::I64(n) => {
            let _ = write!(out, "{n}");
        }
        FieldValue::F64(x) => {
            if x.is_finite() {
                let _ = write!(out, "{x}");
            } else {
                out.push_str("null");
            }
        }
        FieldValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        FieldValue::Str(s) => push_str(out, s),
    }
}

/// Render one event as a single JSON object (one JSONL line, without the
/// trailing newline).
pub fn event_to_json(event: &Event) -> String {
    let mut out = String::with_capacity(96);
    let _ = write!(
        out,
        "{{\"t_us\":{},\"component\":\"{}\",\"severity\":\"{}\",\"name\":",
        event.time.as_micros(),
        event.component.as_str(),
        event.severity.as_str(),
    );
    push_str(&mut out, event.name);
    out.push_str(",\"fields\":{");
    for (i, (k, v)) in event.fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str(&mut out, k);
        out.push(':');
        push_json_value(&mut out, v);
    }
    out.push_str("}}");
    out
}

/// A parsed JSON value.
///
/// Numbers without a fraction or exponent that fit in `i64` parse as
/// [`Value::Int`] (decision ids exceed `f64`'s exact range); every other
/// number parses as [`Value::Float`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Object),
}

static NULL: Value = Value::Null;

impl Value {
    /// Member lookup on an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj()?.get(key)
    }

    /// The object, if this value is an object.
    pub fn as_obj(&self) -> Option<&Object> {
        match self {
            Value::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// The string slice, if this value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `u64` (non-negative integers only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as `f64` (integers widen).
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }
}

/// A JSON object. Members keep their document order ([`Object::members`];
/// chain rendering pins field order). The map view — `get`, `iter`, `keys`,
/// `len` and `object["key"]` — reads like a `BTreeMap`: keys in sorted
/// order. Lookup returns the first member with the key.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Object(Vec<(String, Value)>);

impl Object {
    /// The member named `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` when the object has no members.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Members in document order.
    pub fn members(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.0.iter().map(|(k, v)| (k, v))
    }

    /// Members in key order (duplicate keys keep document order).
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        let mut sorted: Vec<_> = self.members().collect();
        sorted.sort_by(|a, b| a.0.cmp(b.0));
        sorted.into_iter()
    }

    /// Member names in key order.
    pub fn keys(&self) -> impl Iterator<Item = &String> {
        self.iter().map(|(k, _)| k)
    }
}

/// `object["key"]`: the member, or [`Value::Null`] when it is missing.
impl Index<&str> for Object {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

/// A parse failure: byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl From<JsonError> for String {
    fn from(e: JsonError) -> String {
        e.to_string()
    }
}

/// Parse a complete JSON document (surrounding whitespace allowed).
///
/// # Errors
/// Returns a [`JsonError`] with the byte offset of the first invalid input,
/// including nesting deeper than `MAX_DEPTH` (128) levels.
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Consume `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn rest(&self) -> &'a [u8] {
        self.bytes.get(self.pos..).unwrap_or_default()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.rest().starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Value::Obj(Object(members)));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Value::Obj(Object(members)));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or '}' in object"));
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Value::Arr(items));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or ']' in array"));
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    out.push(self.escaped_char()?);
                }
                0x00..=0x1F => return Err(self.err("unescaped control character in string")),
                _ => {
                    // Copy the run up to the next quote, backslash or control
                    // byte. Those are ASCII, so the run ends on a character
                    // boundary of the (valid UTF-8) input.
                    let rest = self.rest();
                    let run = rest
                        .iter()
                        .position(|b| matches!(b, b'"' | b'\\' | 0x00..=0x1F))
                        .unwrap_or(rest.len());
                    let text = rest
                        .get(..run)
                        .and_then(|r| std::str::from_utf8(r).ok())
                        .ok_or_else(|| self.err("invalid UTF-8"))?;
                    out.push_str(text);
                    self.pos += run;
                }
            }
        }
    }

    /// Decode the escape after a backslash.
    fn escaped_char(&mut self) -> Result<char, JsonError> {
        let Some(esc) = self.peek() else {
            return Err(self.err("unterminated escape"));
        };
        self.pos += 1;
        let c = match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{08}',
            b'f' => '\u{0c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let cp = self.hex4()?;
                // A high surrogate must be followed by an escaped low one.
                let cp = if (0xD800..0xDC00).contains(&cp) {
                    if !self.rest().starts_with(b"\\u") {
                        return Err(self.err("lone high surrogate"));
                    }
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00)
                } else {
                    cp
                };
                return char::from_u32(cp).ok_or_else(|| self.err("invalid unicode escape"));
            }
            _ => return Err(self.err("invalid escape character")),
        };
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let cp = self
            .rest()
            .get(..4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    /// Consume a run of digits; `true` if there was at least one.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        // No leading zeros: `0` stands alone, anything else starts 1-9.
        if !self.eat(b'0') && !self.digits() {
            return Err(self.err("expected a digit"));
        }
        let mut is_float = false;
        if self.eat(b'.') {
            is_float = true;
            if !self.digits() {
                return Err(self.err("expected a digit after '.'"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            if !self.digits() {
                return Err(self.err("expected a digit in exponent"));
            }
        }
        let text = self
            .bytes
            .get(start..self.pos)
            .and_then(|t| std::str::from_utf8(t).ok())
            .unwrap_or_default();
        // `-0` stays a float so its sign survives a round trip.
        if !is_float && text != "-0" {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Component, Severity};
    use simcore::time::SimTime;

    #[test]
    fn escapes_control_and_quote_characters() {
        let mut out = String::new();
        push_str(
            &mut out,
            "a\"b\\c\nd\re\tf\u{08}g\u{0c}h\u{01}i\u{1f}j\u{7f}é😀",
        );
        assert_eq!(
            out,
            "\"a\\\"b\\\\c\\nd\\re\\tf\\bg\\fh\\u0001i\\u001fj\u{7f}é😀\""
        );
        assert_eq!(escape("x"), "\"x\"");
    }

    #[test]
    fn escape_round_trips() {
        let mut s: String = (0u32..0x80).filter_map(char::from_u32).collect();
        s.push_str("é€\u{fffd}😀\u{10ffff}");
        assert_eq!(parse(&escape(&s)).unwrap().as_str(), Some(s.as_str()));
    }

    #[test]
    fn fmt_num_is_compact_and_round_trips() {
        assert_eq!(fmt_num(3.0), "3");
        assert_eq!(fmt_num(0.25), "0.25");
        assert_eq!(fmt_num(-0.0), "-0");
        assert_eq!(fmt_num(f64::NAN), "0");
        assert_eq!(fmt_num(f64::INFINITY), "0");
        for x in [1234.5678, 1e-7, 1e20, 0.1 + 0.2, -0.0] {
            let back = parse(&fmt_num(x)).unwrap().as_num().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut out = String::new();
        push_json_value(&mut out, &FieldValue::F64(f64::NAN));
        assert_eq!(out, "null");
        out.clear();
        push_json_value(&mut out, &FieldValue::F64(2.5));
        assert_eq!(out, "2.5");
    }

    #[test]
    fn event_renders_as_one_json_object() {
        let e = Event::new(
            SimTime::from_micros(42),
            Component::Soa,
            Severity::Warn,
            "oc_deny",
        )
        .field("server", 7usize)
        .field("reason", "power_budget")
        .field("ok", false);
        assert_eq!(
            event_to_json(&e),
            r#"{"t_us":42,"component":"soa","severity":"warn","name":"oc_deny","fields":{"server":7,"reason":"power_budget","ok":false}}"#
        );
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("\"a\\nb\"").unwrap(), Value::Str("a\nb".into()));
    }

    #[test]
    fn parses_a_telemetry_line() {
        let line = r#"{"t_us":42,"component":"soa","fields":{"z":7,"reason":"power_budget","ok":false,"x":2.5,"n":null}}"#;
        let v = parse(line).unwrap();
        assert_eq!(v.get("t_us"), Some(&Value::Int(42)));
        assert_eq!(v.get("component").and_then(Value::as_str), Some("soa"));
        let fields = v.get("fields").and_then(Value::as_obj).unwrap();
        // Document order behind a sorted map view.
        let in_document: Vec<&str> = fields.members().map(|(k, _)| k.as_str()).collect();
        assert_eq!(in_document, ["z", "reason", "ok", "x", "n"]);
        let sorted: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(sorted, ["n", "ok", "reason", "x", "z"]);
        assert!(fields.keys().eq(sorted));
        assert_eq!(fields.len(), 5);
        assert_eq!(fields["z"].as_u64(), Some(7));
        assert_eq!(fields["z"].as_num(), Some(7.0));
        assert_eq!(fields["x"].as_num(), Some(2.5));
        assert_eq!(fields["x"].as_u64(), None);
        assert_eq!(fields["ok"], Value::Bool(false));
        assert_eq!(fields["n"], Value::Null);
        assert_eq!(fields["missing"], Value::Null);
        assert_eq!(fields.get("missing"), None);
        assert_eq!(Value::Int(1).get("a"), None);
        let dup = parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(dup.get("a"), Some(&Value::Int(1)));
    }

    #[test]
    fn integers_and_floats_are_distinguished() {
        assert_eq!(parse("7").unwrap(), Value::Int(7));
        assert_eq!(parse("-3").unwrap(), Value::Int(-3));
        assert_eq!(parse("-3").unwrap().as_u64(), None);
        assert_eq!(parse("7.0").unwrap(), Value::Float(7.0));
        assert_eq!(parse("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(parse("-1.5E+2").unwrap(), Value::Float(-150.0));
        let id = (5i64 << 44) | 12345;
        assert_eq!(parse(&id.to_string()).unwrap().as_u64(), Some(id as u64));
        assert_eq!(
            parse("9223372036854775808").unwrap(),
            Value::Float(9.223372036854776e18)
        );
        let neg_zero = parse("-0").unwrap().as_num().unwrap();
        assert!(neg_zero == 0.0 && neg_zero.is_sign_negative());
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = parse(r#""a\"b\\c\/d\b\f\n\r\t\u0001e\u00e9""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c/d\u{08}\u{0c}\n\r\t\u{01}e\u{e9}"));
        for bad in [r#""\u12""#, r#""\q""#, "\"a\u{01}\""] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = parse(r#""\ud83d\uDE00""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
        for bad in [
            r#""\uD83D""#,
            r#""\uD83Dx""#,
            r#""\uD83D\u0041""#,
            r#""\uDE00""#,
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn non_ascii_outside_escapes_survives() {
        let v = parse("\"caf\u{e9} \u{1F600}\"").unwrap();
        assert_eq!(v.as_str(), Some("caf\u{e9} \u{1F600}"));
    }

    #[test]
    fn arrays_and_nesting() {
        let v = parse(r#" [1, {"a": [true, null]}, "x", []] "#).unwrap();
        let Value::Arr(items) = &v else {
            panic!("expected array")
        };
        assert_eq!(items.len(), 4);
        assert_eq!(
            items[1].get("a"),
            Some(&Value::Arr(vec![Value::Bool(true), Value::Null]))
        );
        assert_eq!(items[3], Value::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), Value::Obj(Object::default()));
    }

    #[test]
    fn errors_carry_offsets() {
        let err = parse("{\"a\": }").unwrap_err();
        assert_eq!(err.offset, 6);
        assert_eq!(String::from(err.clone()), err.to_string());
        assert!(err.to_string().starts_with("JSON error at byte 6: "));
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "{1:2}",
            "12 34",
            "{} trailing",
            "tru",
            "nul",
            "01",
            "-",
            "1.",
            ".5",
            "+1",
            "1e",
            "1e+",
            "-a",
            "\"open",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
    }
}
