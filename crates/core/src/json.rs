//! Minimal JSON emission *and parsing* for experiment reports, benchmark
//! artefacts and the diagnosis wire protocol.
//!
//! The reproduction runs in offline environments without serde, so the
//! report types implement the tiny [`ToJson`] trait for emission, and the
//! consumers that must *read* JSON back (the `stfsm-trace` record parser,
//! the `stfsm-serve` wire protocol and campaign coordinator) use the
//! self-contained recursive-descent parser behind [`JsonValue::parse`].
//! Numbers keep their source text ([`JsonValue::Number`]), so `u64`
//! round-trips losslessly where `f64` would not.

use std::fmt::Write as _;

/// Types that can render themselves as a JSON value.
pub trait ToJson {
    /// Appends the JSON representation of `self` to `out`.
    fn write_json(&self, out: &mut String);

    /// The JSON representation as a fresh string.
    fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

macro_rules! int_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

int_to_json!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            // JSON has no NaN/Infinity.
            out.push_str("null");
        }
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write_json(out);
        }
        out.push(']');
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

/// Incremental writer for a JSON object.
///
/// ```
/// use stfsm::json::{JsonObject, ToJson};
///
/// let mut obj = JsonObject::new();
/// obj.field("name", "pst").field("terms", 17usize);
/// assert_eq!(obj.finish(), r#"{"name":"pst","terms":17}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonObject {
    out: String,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        Self {
            out: String::from("{"),
        }
    }

    /// Appends one `"key": value` member.
    pub fn field(&mut self, key: &str, value: impl ToJson) -> &mut Self {
        if self.out.len() > 1 {
            self.out.push(',');
        }
        key.write_json(&mut self.out);
        self.out.push(':');
        value.write_json(&mut self.out);
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(&mut self) -> String {
        let mut out = std::mem::take(&mut self.out);
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(true.to_json(), "true");
        assert_eq!(42usize.to_json(), "42");
        assert_eq!((-3i32).to_json(), "-3");
        assert_eq!(1.5f64.to_json(), "1.5");
        assert_eq!(f64::NAN.to_json(), "null");
        assert_eq!("a\"b\\c\n".to_json(), r#""a\"b\\c\n""#);
        assert_eq!('\u{1}'.to_string().to_json(), "\"\\u0001\"");
    }

    #[test]
    fn containers() {
        assert_eq!(Some(1u32).to_json(), "1");
        assert_eq!(Option::<u32>::None.to_json(), "null");
        assert_eq!(vec![1u8, 2, 3].to_json(), "[1,2,3]");
        assert_eq!([1usize, 2, 3].to_json(), "[1,2,3]");
    }

    #[test]
    fn objects_nest() {
        let mut inner = JsonObject::new();
        let inner = inner.field("x", 1u8).finish();
        let mut obj = JsonObject::new();
        obj.field("name", "n").field("inner", RawJson(inner));
        assert_eq!(obj.finish(), r#"{"name":"n","inner":{"x":1}}"#);
    }
}

/// Pre-rendered JSON spliced verbatim (for nesting objects/arrays).
#[derive(Debug, Clone)]
pub struct RawJson(pub String);

impl ToJson for RawJson {
    fn write_json(&self, out: &mut String) {
        out.push_str(&self.0);
    }
}

/// Maximum nesting depth [`JsonValue::parse`] accepts.  The documents this
/// workspace exchanges (trace records, diagnosis queries) nest a handful of
/// levels; the cap keeps adversarial input from exhausting the stack of a
/// server thread.
pub const MAX_JSON_DEPTH: usize = 64;

/// A parsed JSON document.
///
/// Object members keep their source order (the emitters of this workspace
/// are deterministic, so order-preserving parsing keeps round-trips
/// comparable); numbers keep their source text so 64-bit integers survive
/// without a detour through `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as written in the document.
    Number(String),
    /// A string (escapes already decoded).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, members in source order.
    Object(Vec<(String, JsonValue)>),
}

/// A [`JsonValue::parse`] failure: byte offset plus what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset into the input at which the error was detected.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonParseError {}

impl JsonValue {
    /// Parses one JSON document (trailing whitespace allowed, trailing
    /// garbage rejected).
    pub fn parse(text: &str) -> Result<JsonValue, JsonParseError> {
        let mut parser = JsonParser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        parser.skip_whitespace();
        let value = parser.value(0)?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(parser.err("trailing characters after document"));
        }
        Ok(value)
    }

    /// Member `key` of an object (`None` for missing keys and non-objects).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find_map(|(k, v)| (k == key).then_some(v)),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as `u64`, if this is a number written as a non-negative
    /// integer (no exponent/fraction detour, so the full 64-bit range
    /// round-trips).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as `usize`, if this is a non-negative integer.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(values) => Some(values),
            _ => None,
        }
    }

    /// The members in source order, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(members) => Some(members),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }
}

struct JsonParser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{text}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        if depth > MAX_JSON_DEPTH {
            return Err(self.err("nesting deeper than MAX_JSON_DEPTH"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected character '{}'", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        self.expect(b'[')?;
        let mut values = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(values));
        }
        loop {
            self.skip_whitespace();
            values.push(self.value(depth + 1)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(values));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control byte
            // in one piece.  Those bytes are ASCII, so both ends of the run
            // are char boundaries of the (already valid UTF-8) input.
            let start = self.pos;
            let run = self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(self.bytes.len() - start);
            self.pos += run;
            out.push_str(
                self.text
                    .get(start..self.pos)
                    .ok_or_else(|| self.err("invalid UTF-8"))?,
            );
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let unit = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                // High surrogate: a \uXXXX low surrogate
                                // must follow.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let combined =
                                        0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(combined)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&unit) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(unit)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        // Four hex digits exactly: `from_str_radix` alone would also take
        // a leading `+`.
        let hex = self
            .text
            .get(self.pos..end)
            .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        let unit = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(unit)
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if raw.parse::<f64>().is_err() {
            return Err(self.err(format!("invalid number '{raw}'")));
        }
        Ok(JsonValue::Number(raw.to_string()))
    }
}

#[cfg(test)]
mod parse_tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn documents_round_trip() {
        let text = r#"{"type":"segment","segment":3,"coverage":0.75,"workers":[],"block_words":null,"sections":[{"label":"stuck_at","faults":120}],"ok":true}"#;
        let value = JsonValue::parse(text).unwrap();
        assert_eq!(value.get("type").unwrap().as_str(), Some("segment"));
        assert_eq!(value.get("segment").unwrap().as_usize(), Some(3));
        assert_eq!(value.get("coverage").unwrap().as_f64(), Some(0.75));
        assert!(value.get("block_words").unwrap().is_null());
        assert_eq!(value.get("workers").unwrap().as_array(), Some(&[][..]));
        assert_eq!(value.get("ok").unwrap().as_bool(), Some(true));
        let sections = value.get("sections").unwrap().as_array().unwrap();
        assert_eq!(sections[0].get("label").unwrap().as_str(), Some("stuck_at"));
        assert_eq!(value.get("missing"), None);
    }

    #[test]
    fn u64_precision_is_preserved() {
        let value = JsonValue::parse("18446744073709551615").unwrap();
        assert_eq!(value.as_u64(), Some(u64::MAX));
        // f64 would round this; the raw text does not.
        assert_eq!(
            JsonValue::parse("9007199254740993").unwrap().as_u64(),
            Some(9007199254740993)
        );
    }

    #[test]
    fn strings_decode_escapes() {
        let value = JsonValue::parse(r#""a\"b\\c\nAé😀""#).unwrap();
        assert_eq!(value.as_str(), Some("a\"b\\c\nAé😀"));
        // What ToJson emits parses back to the original.
        let original = "quote\" backslash\\ newline\n tab\t control\u{1}";
        let parsed = JsonValue::parse(&original.to_json()).unwrap();
        assert_eq!(parsed.as_str(), Some(original));
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            r#"{"a":}"#,
            "tru",
            "1 2",
            r#""unterminated"#,
            "[1,2,]",
            r#"{"a":1,}"#,
            "nul",
            "\u{7}",
            "01e",
            r#""\ud800x""#,
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(MAX_JSON_DEPTH + 2) + &"]".repeat(MAX_JSON_DEPTH + 2);
        let error = JsonValue::parse(&deep).unwrap_err();
        assert!(error.message.contains("MAX_JSON_DEPTH"), "{error}");
        let fine = "[".repeat(8) + &"]".repeat(8);
        assert!(JsonValue::parse(&fine).is_ok());
    }

    #[test]
    fn multi_byte_runs_beside_escapes() {
        for (text, expected) in [
            (r#""é\n中\t😀""#, "é\n中\t😀"),
            (r#""\"é\\中\/😀\b""#, "\"é\\中/😀\u{8}"),
            (r#""é😀中""#, "é😀中"),
            (r#""😀😀éé中中""#, "😀😀éé中中"),
            (r#""😀Aé\u0001中""#, "😀Aé\u{1}中"),
            (r#""éé中中😀😀""#, "éé中中😀😀"),
        ] {
            let value = JsonValue::parse(text).unwrap();
            assert_eq!(value.as_str(), Some(expected), "{text}");
        }
    }

    #[test]
    fn a_mebibyte_string_round_trips() {
        let piece = "ascii run é中😀 \"quoted\" back\\slash\n\t\u{1}";
        let original = piece.repeat((1 << 20) / piece.len() + 1);
        assert!(original.len() >= 1 << 20);
        let parsed = JsonValue::parse(&original.to_json()).unwrap();
        assert_eq!(parsed.as_str(), Some(original.as_str()));
    }

    #[test]
    fn control_characters_and_lone_surrogates_are_typed_errors() {
        for (text, offset, message) in [
            ("\"ab\u{1}cd\"", 3, "raw control character in string"),
            ("\"é\u{1f}\"", 3, "raw control character in string"),
            ("\"a\nb\"", 2, "raw control character in string"),
            (r#""\ud800""#, 7, "lone high surrogate"),
            (r#""é\ud83dé""#, 9, "lone high surrogate"),
            (r#""\udc00""#, 7, "lone low surrogate"),
            (r#""\ud800A""#, 7, "lone high surrogate"),
            (r#""\ud800\u0041""#, 13, "invalid low surrogate"),
            (r#""\u+041""#, 3, "invalid \\u escape"),
            (r#""\u00é""#, 3, "invalid \\u escape"),
            (r#""\u12"#, 3, "truncated \\u escape"),
        ] {
            let error = JsonValue::parse(text).unwrap_err();
            assert_eq!(
                error,
                JsonParseError {
                    offset,
                    message: message.to_string()
                },
                "{text:?}"
            );
        }
    }

    /// Strings spread over 1-, 2-, 3- and 4-byte UTF-8 scalars; the 1-byte
    /// class holds the control characters, quote and backslash.
    fn arbitrary_string() -> impl Strategy<Value = String> {
        prop::collection::vec((0usize..4, 0u32..0x11_0000), 0..48).prop_map(|draws| {
            draws
                .into_iter()
                .map(|(class, draw)| {
                    let (lo, hi) = [
                        (0, 0x80),
                        (0x80, 0x800),
                        (0x800, 0x1_0000),
                        (0x1_0000, 0x11_0000),
                    ][class];
                    char::from_u32(lo + draw % (hi - lo)).unwrap_or('\u{FFFD}')
                })
                .collect()
        })
    }

    proptest! {
        #[test]
        fn to_json_then_parse_is_the_identity(text in arbitrary_string()) {
            let parsed = JsonValue::parse(&text.to_json()).unwrap();
            prop_assert_eq!(parsed.as_str(), Some(text.as_str()));
            let mut obj = JsonObject::new();
            obj.field(&text, &text);
            let parsed = JsonValue::parse(&obj.finish()).unwrap();
            prop_assert_eq!(parsed, JsonValue::Object(vec![(text.clone(), JsonValue::String(text))]));
        }
    }
}
