//! Minimal deterministic JSON document model with a parser and writers.
//!
//! This module exists so telemetry snapshots (and the bench regression
//! gate built on top of them) can be produced and consumed without any
//! external JSON dependency. The writers are deterministic: the same
//! [`JsonValue`] always renders to the same bytes, so snapshots diff
//! cleanly in CI.
//!
//! Both writers make one pass over the tree and append straight into
//! the caller's buffer: integers are written two digits at a time from
//! a table, strings without escapable bytes are copied whole, and object
//! keys are [`Cow<'static, str>`](Cow) so documents built in code borrow
//! their literal keys instead of allocating them.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// Error produced while parsing or decoding JSON documents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    message: String,
}

impl JsonError {
    /// Build an error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.message)
    }
}

impl std::error::Error for JsonError {}

/// A parsed JSON document.
///
/// Numbers are kept in three lossless lanes: [`JsonValue::UInt`] for
/// non-negative integers (full `u64` range, required for histogram
/// `u64::MAX` sentinels), [`JsonValue::Int`] for negative integers and
/// [`JsonValue::Float`] for everything with a fractional or exponent
/// part. Object keys preserve insertion/document order, so values built
/// from sorted maps render deterministically. Keys are borrowed
/// `&'static str`s when built in code (see [`JsonValue::object`]) and
/// owned when parsed.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Non-negative integer.
    UInt(u64),
    /// Negative integer.
    Int(i64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array of values.
    Array(Vec<JsonValue>),
    /// Object as key/value pairs in insertion order.
    Object(Vec<(Cow<'static, str>, JsonValue)>),
}

/// Maximum compact width for an array to stay on one line in pretty
/// output (keeps histogram bucket pair-lists compact). Arrays with an
/// object item never go inline.
const INLINE_ARRAY_WIDTH: usize = 72;

/// Deepest array/object nesting [`JsonValue::parse`] accepts. The parser
/// recurses once per level, so the limit keeps hostile input from
/// overflowing the stack; emitted documents nest a handful of levels.
pub(crate) const MAX_DEPTH: usize = 128;

impl JsonValue {
    /// An object with literal keys, in the given order.
    pub fn object(pairs: impl IntoIterator<Item = (&'static str, JsonValue)>) -> JsonValue {
        JsonValue::Object(
            pairs
                .into_iter()
                .map(|(key, value)| (Cow::Borrowed(key), value))
                .collect(),
        )
    }

    /// Parse a JSON document from text.
    ///
    /// # Errors
    ///
    /// A [`JsonError`] naming the byte offset of the first malformed
    /// token, or of the first array/object nested deeper than 128
    /// levels.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut parser = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_ws();
        let value = parser.parse_value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after document"));
        }
        Ok(value)
    }

    /// Look up a key in an object (first match wins).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Borrow as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Borrow as an array slice.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Borrow object entries in document order.
    pub(crate) fn as_object(&self) -> Option<&[(Cow<'static, str>, JsonValue)]> {
        match self {
            JsonValue::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// Interpret as `u64` (integers only; negatives are rejected).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(v) => Some(*v),
            JsonValue::Int(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// Interpret as `i64` (integers only; out-of-range `u64` rejected).
    pub(crate) fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Int(v) => Some(*v),
            JsonValue::UInt(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// Interpret as `f64` (coerces any numeric lane).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::UInt(v) => Some(*v as f64),
            JsonValue::Int(v) => Some(*v as f64),
            JsonValue::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Render without any whitespace.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Render with two-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    /// Append the compact rendering to `out`.
    pub(crate) fn write_compact(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::UInt(v) => write_u64(out, *v),
            JsonValue::Int(v) => {
                if *v < 0 {
                    out.push('-');
                }
                write_u64(out, v.unsigned_abs());
            }
            JsonValue::Float(v) => write_float(out, *v),
            JsonValue::Str(s) => escape_into(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            JsonValue::Object(entries) => {
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(out, key);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    /// Append the pretty rendering to `out`.
    ///
    /// The first line is not indented (the caller chooses its position);
    /// continuation lines are indented `level + 1` steps of two spaces,
    /// so a value can be embedded inside hand-written JSON at any depth.
    pub(crate) fn write_pretty(&self, out: &mut String, level: usize) {
        match self {
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                if !items.iter().any(|v| matches!(v, JsonValue::Object(_))) {
                    // Try the inline form in place; too wide, take it back.
                    let mark = out.len();
                    self.write_compact(out);
                    if out.len() - mark <= INLINE_ARRAY_WIDTH {
                        return;
                    }
                    out.truncate(mark);
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, level + 1);
                    item.write_pretty(out, level + 1);
                }
                out.push('\n');
                push_indent(out, level);
                out.push(']');
            }
            JsonValue::Object(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, level + 1);
                    escape_into(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, level + 1);
                }
                out.push('\n');
                push_indent(out, level);
                out.push('}');
            }
            _ => self.write_compact(out),
        }
    }
}

/// Appends `items` the way [`JsonValue::write_pretty`] writes an array of
/// [`JsonValue::UInt`]s at `level`: inline when the compact form is at
/// most [`INLINE_ARRAY_WIDTH`] bytes, else one item per line.
pub(crate) fn write_pretty_uints(out: &mut String, items: &[u64], level: usize) {
    let digits: usize = items.iter().map(|&v| decimal_len(v)).sum();
    let inline = 2 + digits + items.len().saturating_sub(1) <= INLINE_ARRAY_WIDTH;
    out.push('[');
    for (i, &v) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if !inline {
            out.push('\n');
            push_indent(out, level + 1);
        }
        write_u64(out, v);
    }
    if !inline {
        out.push('\n');
        push_indent(out, level);
    }
    out.push(']');
}

/// Appends `level` steps of two-space indentation.
fn push_indent(out: &mut String, level: usize) {
    // 32 levels; deeper indentation takes several copies.
    const SPACES: &str = "                                                                ";
    let mut width = 2 * level;
    while width > SPACES.len() {
        out.push_str(SPACES);
        width -= SPACES.len();
    }
    out.push_str(&SPACES[..width]);
}

fn write_float(out: &mut String, v: f64) {
    if !v.is_finite() {
        // JSON has no NaN/Inf; snapshots never produce them.
        out.push_str("null");
        return;
    }
    // An integral value must carry a decimal point or an exponent so it
    // re-parses into the float lane instead of collapsing into an
    // integer; from 1e15 up the exponent form is the shorter of the two.
    // Writing to a `String` cannot fail.
    let _ = if v.fract() != 0.0 {
        write!(out, "{v}")
    } else if v.abs() < 1e15 {
        write!(out, "{v:.1}")
    } else {
        write!(out, "{v:e}")
    };
}

/// The decimal strings `"00"` to `"99"`, back to back.
const DIGIT_PAIRS: &str = concat!(
    "00010203040506070809",
    "10111213141516171819",
    "20212223242526272829",
    "30313233343536373839",
    "40414243444546474849",
    "50515253545556575859",
    "60616263646566676869",
    "70717273747576777879",
    "80818283848586878889",
    "90919293949596979899",
);

/// Appends the decimal digits of `v`, two at a time from
/// [`DIGIT_PAIRS`]. In a timing loop over timeline-sized values on a
/// 2-vCPU x86 host this took 5–7 ns a value, against 9–16 ns for one
/// push per digit.
pub(crate) fn write_u64(out: &mut String, v: u64) {
    if v >= 100 {
        write_u64(out, v / 100);
    }
    let pair = &DIGIT_PAIRS[2 * (v % 100) as usize..][..2];
    out.push_str(if v < 10 { &pair[1..] } else { pair });
}

/// The number of decimal digits [`write_u64`] writes for `v`.
pub(crate) fn decimal_len(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |log| log as usize + 1)
}

/// Append `s` to `out` as a quoted, escaped JSON string.
///
/// Runs between escapable bytes (`"`, `\` and controls below 0x20, all
/// ASCII and so on char boundaries) are copied whole; a string with none
/// is one copy.
pub(crate) fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError::new(format!("{message} at byte {}", self.pos))
    }

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

    fn expect(&mut self, expected: u8) -> Result<(), JsonError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", expected as char)))
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Str(self.parse_string()?)),
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b't') => self.parse_literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_literal("null", JsonValue::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut saw_digit = false;
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {
                    saw_digit = true;
                    self.pos += 1;
                }
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        if !saw_digit {
            return Err(self.error("malformed number"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("malformed number"))?;
        if is_float {
            return text
                .parse::<f64>()
                .map(JsonValue::Float)
                .map_err(|_| self.error("malformed number"));
        }
        if let Some(stripped) = text.strip_prefix('-') {
            // "-0" is a plain zero; anything else negative rides the i64 lane.
            if let Ok(v) = text.parse::<i64>() {
                return Ok(if v == 0 {
                    JsonValue::UInt(0)
                } else {
                    JsonValue::Int(v)
                });
            }
            let _ = stripped;
        } else if let Ok(v) = text.parse::<u64>() {
            return Ok(JsonValue::UInt(v));
        }
        // Integer overflow: fall back to the float lane.
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| self.error("malformed number"))
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => {
                            out.push('"');
                            self.pos += 1;
                        }
                        Some(b'\\') => {
                            out.push('\\');
                            self.pos += 1;
                        }
                        Some(b'/') => {
                            out.push('/');
                            self.pos += 1;
                        }
                        Some(b'b') => {
                            out.push('\u{0008}');
                            self.pos += 1;
                        }
                        Some(b'f') => {
                            out.push('\u{000c}');
                            self.pos += 1;
                        }
                        Some(b'n') => {
                            out.push('\n');
                            self.pos += 1;
                        }
                        Some(b'r') => {
                            out.push('\r');
                            self.pos += 1;
                        }
                        Some(b't') => {
                            out.push('\t');
                            self.pos += 1;
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            let unit = self.parse_hex4()?;
                            let c = if (0xd800..=0xdbff).contains(&unit) {
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let low = self.parse_hex4()?;
                                if !(0xdc00..=0xdfff).contains(&low) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid surrogate pair"))?
                            } else {
                                char::from_u32(unit)
                                    .ok_or_else(|| self.error("invalid escape code point"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash. Both
                    // are ASCII, so the run ends on a char boundary.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    let chunk = self
                        .text
                        .get(self.pos..run)
                        .ok_or_else(|| self.error("invalid utf-8"))?;
                    out.push_str(chunk);
                    self.pos = run;
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.error("malformed \\u escape"))?;
        let value =
            u32::from_str_radix(text, 16).map_err(|_| self.error("malformed \\u escape"))?;
        self.pos = end;
        Ok(value)
    }

    /// Parses one array or object, one level deeper.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, JsonError>,
    ) -> Result<JsonValue, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = Cow::Owned(self.parse_string()?);
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(entries));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse(" 42 ").unwrap(), JsonValue::UInt(42));
        assert_eq!(JsonValue::parse("-7").unwrap(), JsonValue::Int(-7));
        assert_eq!(JsonValue::parse("-0").unwrap(), JsonValue::UInt(0));
        assert_eq!(JsonValue::parse("1.5").unwrap(), JsonValue::Float(1.5));
        assert_eq!(
            JsonValue::parse("18446744073709551615").unwrap(),
            JsonValue::UInt(u64::MAX)
        );
    }

    #[test]
    fn parses_strings_with_escapes() {
        let v = JsonValue::parse(r#""a\nb\t\"\\\u0041\ud83d\ude00""#).unwrap();
        assert_eq!(v, JsonValue::Str("a\nb\t\"\\A\u{1f600}".to_string()));
    }

    #[test]
    fn multibyte_characters_next_to_escapes_round_trip() {
        let v = JsonValue::Str("é\"ü\\\u{1f600}\n日本\u{7f}\tß".to_string());
        let text = v.render_compact();
        assert_eq!(JsonValue::parse(&text).unwrap(), v);
        let v = JsonValue::parse(r#"["\u00e9é\"", {"ключ\n": "\ud83d\ude00😀"}]"#).unwrap();
        assert_eq!(JsonValue::parse(&v.render_pretty()).unwrap(), v);
        assert_eq!(v.as_array().unwrap()[0], JsonValue::Str("éé\"".to_string()));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // Run on a small stack: without the depth limit this aborts the
        // process instead of failing the test.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                for open in ["[", "{\"k\":"] {
                    let deep = open.repeat(20_000);
                    let err = JsonValue::parse(&deep).unwrap_err();
                    assert!(err.to_string().contains("nesting too deep"), "{err}");
                }
                let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
                assert!(JsonValue::parse(&ok).is_ok());
                let over = format!("[{ok}]");
                assert!(JsonValue::parse(&over).is_err());
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn rejects_garbage() {
        assert!(JsonValue::parse("").is_err());
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("1 2").is_err());
        assert!(JsonValue::parse("\"abc").is_err());
        assert!(JsonValue::parse("nul").is_err());
    }

    #[test]
    fn compact_round_trip() {
        let text = r#"{"a":[1,2,{"b":null}],"c":"x\ny","d":-3,"e":1.25,"f":true}"#;
        let v = JsonValue::parse(text).unwrap();
        assert_eq!(v.render_compact(), text);
        assert_eq!(JsonValue::parse(&v.render_compact()).unwrap(), v);
        assert_eq!(JsonValue::parse(&v.render_pretty()).unwrap(), v);
    }

    #[test]
    fn float_rendering_survives_round_trip() {
        for v in [
            0.5,
            -2.25,
            3.0,
            1e300,
            6.02e23,
            -0.125,
            1e15,
            9007199254740992.0,
            -1e16,
            1.8e19,
        ] {
            let rendered = JsonValue::Float(v).render_compact();
            match JsonValue::parse(&rendered).unwrap() {
                JsonValue::Float(back) => assert_eq!(back, v, "{rendered}"),
                other => panic!("expected float from {rendered}, got {other:?}"),
            }
        }
    }

    #[test]
    fn accessors() {
        let v = JsonValue::parse(r#"{"k":7,"neg":-1,"s":"hi","arr":[1]}"#).unwrap();
        assert_eq!(v.get("k").and_then(JsonValue::as_u64), Some(7));
        assert_eq!(v.get("neg").and_then(JsonValue::as_u64), None);
        assert_eq!(v.get("neg").and_then(JsonValue::as_i64), Some(-1));
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("hi"));
        assert_eq!(
            v.get("arr").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(1)
        );
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.get("k").and_then(JsonValue::as_f64), Some(7.0));
    }

    #[test]
    fn pretty_inlines_arrays_up_to_the_width_limit() {
        // `["x…x"]` is 4 bytes of punctuation plus the string.
        let field = |len: usize| {
            JsonValue::object([("a", JsonValue::Array(vec![JsonValue::Str("x".repeat(len))]))])
        };
        let at_limit = "x".repeat(INLINE_ARRAY_WIDTH - 4);
        assert_eq!(
            field(INLINE_ARRAY_WIDTH - 4).render_pretty(),
            format!("{{\n  \"a\": [\"{at_limit}\"]\n}}")
        );
        let over = "x".repeat(INLINE_ARRAY_WIDTH - 3);
        assert_eq!(
            field(INLINE_ARRAY_WIDTH - 3).render_pretty(),
            format!("{{\n  \"a\": [\n    \"{over}\"\n  ]\n}}")
        );
        // The same boundary with integer items: 34 ones and one 10 make
        // 72 bytes, 33 ones and two 10s make 73.
        let ints = |tens: usize| {
            let mut items = vec![JsonValue::UInt(1); 35 - tens];
            items.extend(vec![JsonValue::UInt(10); tens]);
            JsonValue::Array(items)
        };
        assert_eq!(ints(1).render_compact().len(), 72);
        assert_eq!(ints(1).render_pretty(), ints(1).render_compact());
        let broken = ints(2).render_pretty();
        assert!(broken.starts_with("[\n  1,\n  1,\n"), "{broken}");
        assert!(broken.ends_with(",\n  10,\n  10\n]"), "{broken}");
    }

    #[test]
    fn pretty_never_inlines_an_array_holding_an_object() {
        let v = JsonValue::parse(r#"[{}]"#).unwrap();
        assert_eq!(v.render_pretty(), "[\n  {}\n]");
        let v = JsonValue::parse(r#"[1,{"k":2}]"#).unwrap();
        assert_eq!(v.render_pretty(), "[\n  1,\n  {\n    \"k\": 2\n  }\n]");
        // Only direct items count: an object one array further down
        // rides inline with its short parent.
        let v = JsonValue::parse(r#"[[{"k":2}]]"#).unwrap();
        assert_eq!(v.render_pretty(), r#"[[{"k":2}]]"#);
    }

    #[test]
    fn pretty_nests_arrays_and_empty_containers() {
        let v = JsonValue::parse(r#"{"e":[],"o":{},"n":[[1,2],[3,[4,[]]]],"x":[{}]}"#).unwrap();
        assert_eq!(
            v.render_pretty(),
            "{\n  \"e\": [],\n  \"o\": {},\n  \"n\": [[1,2],[3,[4,[]]]],\n  \"x\": [\n    {}\n  ]\n}"
        );
        let row = |i: u64| {
            JsonValue::Array(vec![
                JsonValue::UInt(i),
                JsonValue::Str("y".repeat(30)),
                JsonValue::Array(vec![]),
            ])
        };
        let v = JsonValue::object([("rows", JsonValue::Array(vec![row(0), row(1)]))]);
        let y = "y".repeat(30);
        assert_eq!(
            v.render_pretty(),
            format!("{{\n  \"rows\": [\n    [0,\"{y}\",[]],\n    [1,\"{y}\",[]]\n  ]\n}}")
        );
        assert_eq!(JsonValue::Array(vec![]).render_pretty(), "[]");
        assert_eq!(JsonValue::Object(vec![]).render_pretty(), "{}");
    }

    #[test]
    fn integers_render_at_the_lane_extremes() {
        for (value, text) in [
            (JsonValue::UInt(0), "0"),
            (JsonValue::UInt(7), "7"),
            (JsonValue::UInt(u64::MAX), "18446744073709551615"),
            (JsonValue::Int(-1), "-1"),
            (JsonValue::Int(0), "0"),
            (JsonValue::Int(42), "42"),
            (JsonValue::Int(i64::MIN), "-9223372036854775808"),
            (JsonValue::Int(i64::MAX), "9223372036854775807"),
        ] {
            assert_eq!(value.render_compact(), text);
            assert_eq!(value.render_pretty(), text);
        }
    }

    #[test]
    fn strings_escape_in_values_and_keys() {
        let raw = "q\"b\\s\nr\rt\tc\u{1}\u{1f}é日😀/";
        let escaped = r#""q\"b\\s\nr\rt\tc\u0001\u001fé日😀/""#;
        assert_eq!(JsonValue::Str(raw.to_string()).render_compact(), escaped);
        assert_eq!(JsonValue::Str(String::new()).render_compact(), r#""""#);
        assert_eq!(
            JsonValue::Str("plain".into()).render_compact(),
            r#""plain""#
        );
        let v = JsonValue::Object(vec![(
            Cow::Owned(raw.to_string()),
            JsonValue::Str(raw.to_string()),
        )]);
        assert_eq!(v.render_compact(), format!("{{{escaped}:{escaped}}}"));
        assert_eq!(v.render_pretty(), format!("{{\n  {escaped}: {escaped}\n}}"));
        assert_eq!(JsonValue::parse(&v.render_pretty()).unwrap(), v);
    }

    #[test]
    fn integer_and_indent_writers_match_plain_references() {
        let mut values = vec![0, 9, 10, 99, 100, 1_000_003, u64::MAX / 10, u64::MAX];
        values.extend((0..20).map(|p| 10u64.pow(p)));
        values.extend((1..20).map(|p| 10u64.pow(p) - 1));
        for v in values {
            let mut out = String::from("x");
            write_u64(&mut out, v);
            assert_eq!(out, format!("x{v}"));
            assert_eq!(decimal_len(v), v.to_string().len(), "{v}");
        }
        for v in [i64::MIN, i64::MIN + 1, -10, -9, -1, 0, 9, 10, i64::MAX] {
            assert_eq!(JsonValue::Int(v).render_compact(), v.to_string());
        }
        for level in 0..100 {
            let mut out = String::from("x");
            push_indent(&mut out, level);
            assert_eq!(out, format!("x{}", "  ".repeat(level)), "level {level}");
        }
        // 40 nested objects indent their innermost key 80 spaces, deeper
        // than one copy of the static run.
        let mut nested = JsonValue::UInt(7);
        for _ in 0..40 {
            nested = JsonValue::object([("k", nested)]);
        }
        let mut expected = String::new();
        for depth in 0..40 {
            expected.push_str("{\n");
            expected.push_str(&"  ".repeat(depth + 1));
            expected.push_str("\"k\": ");
        }
        expected.push('7');
        for depth in (0..40).rev() {
            expected.push('\n');
            expected.push_str(&"  ".repeat(depth));
            expected.push('}');
        }
        assert_eq!(nested.render_pretty(), expected);
    }

    #[test]
    fn pretty_inlines_small_arrays() {
        let v = JsonValue::parse(r#"{"buckets":[[1,5],[3,2]]}"#).unwrap();
        let pretty = v.render_pretty();
        assert!(pretty.contains("\"buckets\": [[1,5],[3,2]]"), "{pretty}");
    }
}
