//! Minimal JSON for the offline workspace.
//!
//! The build container has no crates.io access, so instead of `serde` +
//! `serde_json` this crate provides the small JSON surface the harness
//! needs to make benchmark results machine-checkable:
//!
//! * [`Json`] — an ordered value tree (object keys keep insertion
//!   order, so emitted documents are byte-stable and diff cleanly in
//!   version control);
//! * [`Json::render`] — a pretty printer that *refuses* non-finite
//!   numbers (`NaN`/`±inf` have no JSON encoding; silently emitting
//!   them would corrupt committed baselines);
//! * [`Json::parse`] — a strict recursive-descent parser for the full
//!   JSON grammar (escapes, `\uXXXX` with surrogate pairs, exponents),
//!   with a depth limit instead of unbounded recursion.
//!
//! Numbers are IEEE-754 doubles, exactly as in JavaScript: integers
//! round-trip losslessly up to 2^53. The experiment counters serialized
//! through this crate stay far below that.

use std::fmt;

/// Maximum nesting depth [`Json::parse`] accepts.
const MAX_DEPTH: usize = 128;

/// A parsed or constructed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// All numbers are f64 (2^53 integer round-trip limit).
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Object as an association list: insertion order is preserved on
    /// render, and duplicate keys are rejected by the parser.
    Obj(Vec<(String, Json)>),
}

/// Error raised by [`Json::parse`] or [`Json::render`].
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset in the input (0 for render errors).
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(msg: impl Into<String>, offset: usize) -> Result<T, JsonError> {
    Err(JsonError {
        msg: msg.into(),
        offset,
    })
}

// ---------------------------------------------------------------------
// construction & access
// ---------------------------------------------------------------------

impl Json {
    /// An empty object builder.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append a field to an object (panics if `self` is not an object —
    /// a construction bug, not a data error).
    pub fn push(&mut self, key: &str, value: impl Into<Json>) -> &mut Json {
        match self {
            Json::Obj(pairs) => pairs.push((key.to_string(), value.into())),
            other => panic!("Json::push on non-object {other:?}"),
        }
        self
    }

    /// Builder-style [`Json::push`].
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        self.push(key, value);
        self
    }

    /// Look up an object field.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// Integer view of a number (exact only; rejects fractional values
    /// and anything outside the 2^53-safe range).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if v.fract() == 0.0 && (0.0..=9007199254740992.0).contains(v) => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Num(v as f64)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Num(v as f64)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

// ---------------------------------------------------------------------
// rendering
// ---------------------------------------------------------------------

impl Json {
    /// Pretty-print with 2-space indentation and a trailing newline.
    ///
    /// Fails on non-finite numbers: `NaN` and `±inf` cannot be encoded
    /// as JSON, and a baseline file containing them would be unreadable
    /// by any checker — the error carries the first offending value's
    /// path.
    pub fn render(&self) -> Result<String, JsonError> {
        let mut out = String::new();
        self.render_into(&mut out, 0, "$")?;
        out.push('\n');
        Ok(out)
    }

    /// Render on a single line with no insignificant whitespace and no
    /// trailing newline — for line-oriented protocols where one value
    /// must occupy one line. Same non-finite-number rule as
    /// [`Json::render`].
    pub fn render_compact(&self) -> Result<String, JsonError> {
        let mut out = String::new();
        self.render_compact_into(&mut out, "$")?;
        Ok(out)
    }

    fn render_compact_into(&self, out: &mut String, path: &str) -> Result<(), JsonError> {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                if !v.is_finite() {
                    return err(format!("non-finite number {v} at {path}"), 0);
                }
                out.push_str(&format!("{v}"));
            }
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_compact_into(out, &format!("{path}[{i}]"))?;
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.render_compact_into(out, &format!("{path}.{k}"))?;
                }
                out.push('}');
            }
        }
        Ok(())
    }

    fn render_into(&self, out: &mut String, indent: usize, path: &str) -> Result<(), JsonError> {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                if !v.is_finite() {
                    return err(format!("non-finite number {v} at {path}"), 0);
                }
                // Rust's shortest-round-trip Display is valid JSON for
                // every finite double except negative zero's sign, which
                // JSON also allows.
                out.push_str(&format!("{v}"));
            }
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                } else {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push('\n');
                        out.push_str(&"  ".repeat(indent + 1));
                        item.render_into(out, indent + 1, &format!("{path}[{i}]"))?;
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent));
                    out.push(']');
                }
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                } else {
                    out.push('{');
                    for (i, (k, v)) in pairs.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push('\n');
                        out.push_str(&"  ".repeat(indent + 1));
                        escape_into(k, out);
                        out.push_str(": ");
                        v.render_into(out, indent + 1, &format!("{path}.{k}"))?;
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent));
                    out.push('}');
                }
            }
        }
        Ok(())
    }
}

fn escape_into(s: &str, out: &mut String) {
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------
// parsing
// ---------------------------------------------------------------------

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return err("trailing characters after document", p.pos);
        }
        Ok(v)
    }
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!("expected '{}'", b as char), self.pos)
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            err(format!("invalid literal, expected '{word}'"), self.pos)
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return err("nesting too deep", self.pos);
        }
        match self.peek() {
            None => err("unexpected end of input", self.pos),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(c) => err(format!("unexpected character '{}'", c as char), self.pos),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return err("expected ',' or ']' in array", self.pos),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key_at = self.pos;
            let key = self.string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return err(format!("duplicate key \"{key}\""), key_at);
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return err("expected ',' or '}' in object", self.pos),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: one leading zero, or a non-zero digit run.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits()?,
            _ => return err("invalid number", start),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            // Overflowing literals (e.g. 1e999) parse to inf — reject.
            _ => err(format!("number '{text}' out of range"), start),
        }
    }

    fn digits(&mut self) -> Result<(), JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            err("expected digits", start)
        } else {
            Ok(())
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let at = self.pos;
            match self.peek() {
                None => return err("unterminated string", at),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{08}'),
                        Some(b'f') => s.push('\u{0c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require \uXXXX low half.
                                if self.peek() != Some(b'\\') {
                                    return err("unpaired high surrogate", at);
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return err("unpaired high surrogate", at);
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return err("invalid low surrogate", at);
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp).ok_or(JsonError {
                                    msg: "invalid surrogate pair".into(),
                                    offset: at,
                                })?
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return err("unexpected low surrogate", at);
                            } else {
                                char::from_u32(hi).ok_or(JsonError {
                                    msg: "invalid \\u escape".into(),
                                    offset: at,
                                })?
                            };
                            s.push(c);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return err("invalid escape", at),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return err("raw control character in string", at),
                Some(b) if b < 0x80 => {
                    s.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: `pos` is on a char boundary of
                    // the input &str, so decode just the one scalar
                    // there (not the whole rest of the input).
                    let c = self.input[self.pos..].chars().next().expect("non-empty");
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Consume exactly four hex digits and return their value.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let start = self.pos;
        if self.bytes.len() < start + 4 {
            return err("truncated \\u escape", start);
        }
        let mut v = 0u32;
        for i in 0..4 {
            let d = match self.bytes[start + i] {
                b @ b'0'..=b'9' => (b - b'0') as u32,
                b @ b'a'..=b'f' => (b - b'a' + 10) as u32,
                b @ b'A'..=b'F' => (b - b'A' + 10) as u32,
                _ => return err("invalid hex digit in \\u escape", start + i),
            };
            v = v * 16 + d;
        }
        self.pos += 4;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_renders_objects_in_order() {
        let j = Json::obj()
            .with("b", 2u32)
            .with("a", 1u32)
            .with("s", "hi")
            .with("flag", true)
            .with("none", Json::Null);
        let text = j.render().unwrap();
        let b = text.find("\"b\"").unwrap();
        let a = text.find("\"a\"").unwrap();
        assert!(b < a, "insertion order must be preserved:\n{text}");
        assert_eq!(Json::parse(&text).unwrap(), j);
    }

    #[test]
    fn compact_render_is_one_line_and_round_trips() {
        let j = Json::obj().with("a", 1u32).with("s", "x\ny").with(
            "arr",
            vec![Json::Num(1.5), Json::Null, Json::Arr(vec![]), Json::obj()],
        );
        let text = j.render_compact().unwrap();
        assert!(!text.contains('\n'), "compact must be one line: {text:?}");
        assert!(
            !text.contains(": "),
            "no insignificant whitespace: {text:?}"
        );
        assert_eq!(Json::parse(&text).unwrap(), j);
        assert_eq!(text, r#"{"a":1,"s":"x\ny","arr":[1.5,null,[],{}]}"#);
        let e = Json::obj()
            .with("x", f64::NAN)
            .render_compact()
            .unwrap_err();
        assert!(e.msg.contains("$.x"), "{e}");
    }

    #[test]
    fn rejects_non_finite_numbers() {
        let e = Json::obj().with("x", f64::NAN).render().unwrap_err();
        assert!(e.msg.contains("$.x"), "{e}");
        assert!(Json::Num(f64::INFINITY).render().is_err());
    }

    #[test]
    fn numbers_round_trip() {
        for v in [
            0.0,
            -0.0,
            1.5,
            -2.25,
            1e-12,
            123456789.0,
            9007199254740991.0, // 2^53 - 1
            6.02e23,
            f64::MIN_POSITIVE,
        ] {
            let text = Json::Num(v).render().unwrap();
            let back = Json::parse(text.trim()).unwrap();
            assert_eq!(back.as_f64().unwrap().to_bits(), v.to_bits(), "{v}");
        }
    }

    #[test]
    fn u64_accessor_is_exact_only() {
        assert_eq!(Json::Num(42.0).as_u64(), Some(42));
        assert_eq!(Json::Num(42.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1e300).as_u64(), None);
    }

    #[test]
    fn strings_escape_and_round_trip() {
        let s = "line\nquote\"back\\slash\ttab\u{08}\u{0c}\u{1b}中🚀";
        let text = Json::Str(s.to_string()).render().unwrap();
        assert_eq!(Json::parse(text.trim()).unwrap().as_str().unwrap(), s);
    }

    #[test]
    fn parses_escapes_and_surrogates() {
        assert_eq!(Json::parse(r#""😀""#).unwrap().as_str().unwrap(), "😀");
        assert!(Json::parse(r#""\ud83d""#).is_err(), "unpaired surrogate");
        assert!(Json::parse(r#""\x""#).is_err(), "bad escape");
        assert!(Json::parse("\"raw\u{01}\"").is_err(), "control char");
    }

    #[test]
    fn long_non_ascii_strings_parse_in_linear_time() {
        // Each multi-byte scalar used to re-validate the rest of the
        // input: 200k two-byte characters took about half a minute.
        let s = "é".repeat(200_000);
        let text = format!("{{\"pad\":\"{s}\"}}");
        let t = std::time::Instant::now();
        let j = Json::parse(&text).unwrap();
        let secs = t.elapsed().as_secs_f64();
        assert_eq!(j.get("pad").and_then(Json::as_str), Some(s.as_str()));
        assert!(secs < 5.0, "took {secs:.1} s");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "nul",
            "01",
            "1.",
            "1e",
            "--1",
            "[1]x",
            "{\"a\":1,\"a\":2}",
            "\u{221e}",
            "1e999",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn accepts_whitespace_and_nesting() {
        let j = Json::parse(" { \"a\" : [ 1 , { \"b\" : [ ] } , null ] } ").unwrap();
        assert_eq!(j.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert!(j.get("missing").is_none());
    }

    #[test]
    fn depth_limit_defends_the_stack() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        let e = Json::parse(&deep).unwrap_err();
        assert!(e.msg.contains("deep"), "{e}");
    }

    #[test]
    fn empty_containers_render_compactly() {
        assert_eq!(Json::obj().render().unwrap(), "{}\n");
        assert_eq!(Json::Arr(vec![]).render().unwrap(), "[]\n");
    }
}
