//! Minimal JSON serialisation shared by the machine-readable exports
//! (`repro plan --format json`, `repro faults --format json`).
//!
//! The repo vendors no serde; studies that expose JSON build a [`Json`]
//! value tree and render it with [`Json::render`]. Rendering is
//! deterministic — object keys keep insertion order, integers and hex
//! digests print exactly, and the studies deliberately exclude wall-clock
//! fields — so the emitted document is byte-identical run to run and can be
//! diffed or digested like the CSVs.
//!
//! # Example
//!
//! ```
//! use giantsan_harness::json::Json;
//! let doc = Json::obj()
//!     .field("study", "demo")
//!     .field("ok", true)
//!     .field("cells", Json::Array(vec![Json::from(1u64), Json::from(2u64)]));
//! assert_eq!(
//!     doc.render(),
//!     "{\n  \"study\": \"demo\",\n  \"ok\": true,\n  \"cells\": [\n    1,\n    2\n  ]\n}\n"
//! );
//! ```

use std::fmt::Write as _;

use giantsan_telemetry::export::json_escape;

/// A JSON value tree with a deterministic pretty renderer.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (rendered exactly).
    U64(u64),
    /// A finite float (rendered via Rust's shortest round-trip formatting;
    /// non-finite values render as `null`).
    F64(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; keys keep insertion order.
    Object(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::U64(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::U64(v as u64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::U64(v as u64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::F64(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Self {
        Json::Array(v)
    }
}

impl Json {
    /// An empty object, ready for [`Json::field`] chaining.
    pub fn obj() -> Self {
        Json::Object(Vec::new())
    }

    /// Appends a key/value pair (builder style). Panics if `self` is not an
    /// object — the misuse is a programming error, not a data error.
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Self {
        match &mut self {
            Json::Object(fields) => fields.push((key.to_string(), value.into())),
            _ => panic!("Json::field on a non-object"),
        }
        self
    }

    /// A 64-bit digest as the repo prints them: `0x`-prefixed, zero-padded
    /// hex inside a string (JSON numbers cannot carry u64 exactly).
    pub fn hex(v: u64) -> Json {
        Json::Str(format!("{v:#018x}"))
    }

    /// Renders the tree as pretty-printed JSON (2-space indent, trailing
    /// newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders the tree as single-line compact JSON (no whitespace, no
    /// trailing newline) — the record format of campaign shard blobs, where
    /// one line is one cell. `Json::parse(&v.render_compact())` round-trips
    /// every value this module can produce (non-finite floats degrade to
    /// `null` on render, as with [`Json::render`]).
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Json::F64(_) => out.push_str("null"),
            Json::Str(s) => {
                let _ = write!(out, "\"{}\"", json_escape(s));
            }
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{}\":", json_escape(k));
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document produced by [`Json::render`] or
    /// [`Json::render_compact`] back into a value tree.
    ///
    /// This is a small, strict parser for the dialect this module emits:
    /// objects (insertion order preserved), arrays, strings with the escapes
    /// [`Json::render`] writes (plus `\uXXXX`, `\/`, `\b`, `\f`),
    /// non-negative integers as [`Json::U64`], fractional/exponent numbers as
    /// [`Json::F64`], `true`/`false`/`null`. Returns an error describing the
    /// byte offset on malformed input or trailing garbage.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an `f64` ([`Json::U64`] widens losslessly up to 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(v) => Some(*v),
            Json::U64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Decodes a digest string written by [`Json::hex`] (`0x`-prefixed hex).
    pub fn as_hex(&self) -> Option<u64> {
        let s = self.as_str()?;
        let hex = s.strip_prefix("0x")?;
        u64::from_str_radix(hex, 16).ok()
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent + 1);
        let close = "  ".repeat(indent);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Json::F64(_) => out.push_str("null"),
            Json::Str(s) => {
                let _ = write!(out, "\"{}\"", json_escape(s));
            }
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&pad);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&close);
                out.push(']');
            }
            Json::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&pad);
                    let _ = write!(out, "\"{}\": ", json_escape(k));
                    v.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&close);
                out.push('}');
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'n') if self.eat_literal("null") => Ok(Json::Null),
            Some(b't') if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Json::Bool(false)),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            // Campaign blobs never emit surrogate pairs
                            // (json_escape() only \u-encodes control bytes), so
                            // lone surrogates are rejected rather than paired.
                            out.push(
                                char::from_u32(code)
                                    .ok_or(format!("invalid \\u codepoint at byte {}", self.pos))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy a full UTF-8 scalar (input is a &str, so this is
                    // always at a char boundary).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf-8")?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !float && !text.starts_with('-') {
            text.parse::<u64>()
                .map(Json::U64)
                .map_err(|e| format!("bad integer `{text}`: {e}"))
        } else {
            text.parse::<f64>()
                .map(Json::F64)
                .map_err(|e| format!("bad number `{text}`: {e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render_exactly() {
        assert_eq!(Json::Null.render(), "null\n");
        assert_eq!(Json::from(true).render(), "true\n");
        assert_eq!(Json::from(42u64).render(), "42\n");
        assert_eq!(Json::from(2.5).render(), "2.5\n");
        assert_eq!(Json::F64(f64::NAN).render(), "null\n");
        assert_eq!(Json::hex(0xabc).render(), "\"0x0000000000000abc\"\n");
    }

    #[test]
    fn strings_are_escaped() {
        let s = Json::from("a\"b\\c\nd\u{1}").render();
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"\n");
    }

    #[test]
    fn nesting_keeps_key_order_and_balances() {
        let doc = Json::obj()
            .field("b", 1u64)
            .field("a", Json::Array(vec![]))
            .field("c", Json::obj().field("inner", "x"));
        let s = doc.render();
        assert!(s.find("\"b\"").unwrap() < s.find("\"a\"").unwrap());
        assert!(s.contains("\"a\": []"));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }

    #[test]
    #[should_panic(expected = "non-object")]
    fn field_on_non_object_panics() {
        let _ = Json::Null.field("k", 1u64);
    }

    #[test]
    fn compact_round_trips() {
        let doc = Json::obj()
            .field("u", 18446744073709551615u64)
            .field("f", 123.456789)
            .field("neg", Json::F64(-2.5))
            .field("s", "a\"b\\c\nd\u{1}é")
            .field("digest", Json::hex(0xdeadbeef))
            .field("arr", Json::Array(vec![Json::Null, Json::from(true)]))
            .field("empty_obj", Json::obj())
            .field("empty_arr", Json::Array(vec![]));
        let compact = doc.render_compact();
        assert!(!compact.contains('\n'));
        assert_eq!(Json::parse(&compact).unwrap(), doc);
        // The pretty form parses back to the same tree too.
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn parse_numbers() {
        assert_eq!(Json::parse("42").unwrap(), Json::U64(42));
        assert_eq!(Json::parse("0").unwrap(), Json::U64(0));
        assert_eq!(Json::parse("2.5").unwrap(), Json::F64(2.5));
        assert_eq!(Json::parse("-3").unwrap(), Json::F64(-3.0));
        assert_eq!(Json::parse("1e3").unwrap(), Json::F64(1000.0));
    }

    #[test]
    fn accessors() {
        let doc = Json::obj()
            .field("n", 7u64)
            .field("s", "x")
            .field("b", true)
            .field("h", Json::hex(0xff))
            .field("a", Json::Array(vec![Json::U64(1)]));
        assert_eq!(doc.get("n").and_then(Json::as_u64), Some(7));
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(doc.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("h").and_then(Json::as_hex), Some(0xff));
        assert_eq!(
            doc.get("a").and_then(Json::as_array).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(doc.get("missing"), None);
        assert_eq!(doc.get("n").and_then(Json::as_f64), Some(7.0));
    }

    #[test]
    fn float_display_round_trips_through_parse() {
        for &v in &[0.1, 1.0 / 3.0, 9_007_199_254_740_993.0, 1e-12, 123456.789] {
            let rendered = Json::F64(v).render_compact();
            assert_eq!(Json::parse(&rendered).unwrap().as_f64(), Some(v));
        }
    }
}
