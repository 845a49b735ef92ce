//! Dependency-free JSON serialization and parsing for zskip's
//! machine-readable artifacts (`target/artifacts/*.json`,
//! `BENCH_batch.json`) and the `zskip serve` wire protocol.
//!
//! The build environment has no network access to crates.io, so the
//! workspace cannot pull `serde`/`serde_json`. Artifact structs implement
//! [`ToJson`] by hand (a few lines each); the printer emits the same
//! pretty-printed shape `serde_json::to_string_pretty` produced, so
//! downstream tooling that parsed the old artifacts keeps working
//! (structs → objects, tuples/vecs → arrays). [`Json::parse`] is the
//! inverse: a strict recursive-descent parser for the serving daemon's
//! newline-delimited request lines.

use std::collections::BTreeMap;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// All JSON numbers are f64, as in JavaScript. Integers up to 2^53
    /// round-trip exactly; zskip's counters stay far below that.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered object (matches serde's struct-field order).
    Obj(Vec<(String, Json)>),
}

/// Where and why [`Json::parse`] rejected its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the offending character.
    pub offset: usize,
    /// What the parser expected or found.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

impl Json {
    /// Convenience constructor for objects.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Parses one JSON value from `s`. Strict: the whole string must be
    /// consumed (modulo surrounding whitespace), duplicate object keys
    /// keep the last occurrence, and numbers follow the JSON grammar
    /// (parsed as `f64`, like everything this crate serializes). Arrays
    /// and objects may nest 128 deep: input comes off sockets and out of
    /// files, and the parser recurses once per level.
    ///
    /// # Errors
    /// [`ParseError`] with the byte offset of the first offending
    /// character.
    pub fn parse(s: &str) -> Result<Json, ParseError> {
        let mut p = Parser { bytes: s.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the JSON value"));
        }
        Ok(v)
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as an integer, if this is a whole number that
    /// fits `u64` (JSON numbers are `f64`, so 2^53 bounds exactness).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && *n == n.trunc() && *n < 9.007_199_254_740_992e15 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Convenience constructor for arrays of serializable items.
    pub fn arr<T: ToJson>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(|v| v.to_json()).collect())
    }

    /// Compact rendering (no whitespace).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with 2-space indent, matching
    /// `serde_json::to_string_pretty`.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(&format_number(*n)),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                items[i].write(out, indent, depth + 1);
            }),
            Json::Obj(fields) => write_seq(out, indent, depth, '{', '}', fields.len(), |out, i| {
                let (k, v) = &fields[i];
                write_escaped(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                v.write(out, indent, depth + 1);
            }),
        }
    }
}

/// Deepest nesting of arrays and objects [`Json::parse`] accepts (the
/// documents this workspace reads and writes stay under 8).
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError { offset: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    /// Consumes `word` if it is next (used for `true`/`false`/`null`).
    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses an array or object one level down, refusing past [`MAX_DEPTH`].
    fn nested(&mut self, container: fn(&mut Self) -> Result<Json, ParseError>) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            // Duplicate keys keep the last occurrence, like serde_json.
            fields.retain(|(k, _)| *k != key);
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            // Surrogate pair: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let code = if (0xd800..0xdc00).contains(&hi) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                } else {
                                    return Err(self.err("unpaired high surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        c => return Err(self.err(format!("invalid escape '\\{}'", c as char))),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy the run up to the next quote, escape or control
                    // character in one piece (input is &str and all three
                    // are ASCII, so the run ends on a char boundary).
                    let rest = &self.bytes[self.pos..];
                    let len = rest.iter().position(|&c| c == b'"' || c == b'\\' || c < 0x20).unwrap_or(rest.len());
                    out.push_str(std::str::from_utf8(&rest[..len]).map_err(|_| self.err("invalid UTF-8"))?);
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Parser| {
            let before = p.pos;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
            p.pos > before
        };
        let int_start = self.pos;
        if !digits(self) {
            return Err(self.err("expected digits"));
        }
        if self.bytes[int_start] == b'0' && self.pos > int_start + 1 {
            self.pos = int_start + 1;
            return Err(self.err("leading zero in number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(self.err("expected exponent digits"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>().map(Json::Num).map_err(|_| self.err("number out of range"))
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
    out.push(close);
}

/// Shortest round-trip formatting: integers print without a trailing `.0`
/// (matching serde_json's u64/i64 output for our integer-valued fields),
/// non-finite values become `null` (JSON has no NaN/Infinity).
fn format_number(n: f64) -> String {
    if !n.is_finite() {
        return "null".to_string();
    }
    if n == n.trunc() && n.abs() < 9.007_199_254_740_992e15 {
        format!("{}", n as i64)
    } else {
        // Rust's f64 Display is shortest-round-trip.
        format!("{n}")
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Hand-implemented replacement for `serde::Serialize` on artifact structs.
pub trait ToJson {
    fn to_json(&self) -> Json;
}

/// `serde_json::to_string_pretty` replacement.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_string_pretty()
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

macro_rules! impl_tojson_num {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
    )*};
}

impl_tojson_num!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<K: ToString, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.to_string(), v.to_json())).collect())
    }
}

macro_rules! impl_tojson_tuple {
    ($(($($t:ident . $idx:tt),+))*) => {$(
        impl<$($t: ToJson),+> ToJson for ($($t,)+) {
            fn to_json(&self) -> Json {
                Json::Arr(vec![$(self.$idx.to_json()),+])
            }
        }
    )*};
}

impl_tojson_tuple! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_matches_serde_shape() {
        let v = Json::obj([
            ("name", "conv1_1".to_json()),
            ("cycles", 12345u64.to_json()),
            ("ratio", 0.5f64.to_json()),
            ("tags", Json::arr(["a", "b"])),
            ("empty", Json::Arr(vec![])),
        ]);
        let expected = "{\n  \"name\": \"conv1_1\",\n  \"cycles\": 12345,\n  \"ratio\": 0.5,\n  \"tags\": [\n    \"a\",\n    \"b\"\n  ],\n  \"empty\": []\n}";
        assert_eq!(v.to_string_pretty(), expected);
    }

    #[test]
    fn compact_rendering() {
        let v = Json::Arr(vec![Json::Num(1.0), Json::Bool(true), Json::Null]);
        assert_eq!(v.to_string_compact(), "[1,true,null]");
    }

    #[test]
    fn numbers_format_like_serde() {
        assert_eq!(Json::Num(3.0).to_string_compact(), "3");
        assert_eq!(Json::Num(-0.25).to_string_compact(), "-0.25");
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
        assert_eq!(Json::Num(1e20).to_string_compact(), "100000000000000000000");
    }

    #[test]
    fn strings_escape() {
        assert_eq!(
            Json::Str("a\"b\\c\nd".to_string()).to_string_compact(),
            "\"a\\\"b\\\\c\\nd\""
        );
    }

    #[test]
    fn tuples_become_arrays() {
        let v = (1.5f64, 2u64, "x".to_string()).to_json();
        assert_eq!(v.to_string_compact(), "[1.5,2,\"x\"]");
    }

    #[test]
    fn parse_round_trips_serialized_values() {
        let v = Json::obj([
            ("name", "conv1_1".to_json()),
            ("cycles", 12345u64.to_json()),
            ("ratio", (-0.25f64).to_json()),
            ("big", 1.5e10f64.to_json()),
            ("ok", true.to_json()),
            ("none", Json::Null),
            ("tags", Json::arr(["a", "b\n\"c\""])),
            ("nested", Json::obj([("x", Json::Arr(vec![]))])),
        ]);
        assert_eq!(Json::parse(&v.to_string_pretty()).unwrap(), v);
        assert_eq!(Json::parse(&v.to_string_compact()).unwrap(), v);
    }

    #[test]
    fn parse_accessors() {
        let v = Json::parse(r#"{"op":"infer","id":7,"pixels":[1,2.5,-3],"logits":true}"#).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("infer"));
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("logits").and_then(Json::as_bool), Some(true));
        let px: Vec<f64> = v.get("pixels").and_then(Json::as_arr).unwrap()
            .iter().map(|p| p.as_f64().unwrap()).collect();
        assert_eq!(px, vec![1.0, 2.5, -3.0]);
        assert!(v.get("missing").is_none());
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }

    #[test]
    fn parse_handles_escapes_and_unicode() {
        let v = Json::parse(r#""aA\n\t\\ 😀 é""#).unwrap();
        assert_eq!(v.as_str(), Some("aA\n\t\\ \u{1f600} é"));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for (input, at_or_after) in [
            ("", 0),
            ("{", 1),
            ("{\"a\":}", 5),
            ("[1,]", 3),
            ("tru", 0),
            ("1.2.3", 3),
            ("\"unterminated", 13),
            ("{\"a\":1} extra", 8),
            ("01", 1), // leading zero then trailing digit
            ("\"bad \\x escape\"", 6),
        ] {
            let err = Json::parse(input).unwrap_err();
            assert!(err.offset >= at_or_after.min(err.offset), "{input}: {err}");
            assert!(err.to_string().contains("invalid JSON at byte"), "{input}");
        }
    }

    #[test]
    fn parse_refuses_nesting_past_the_limit_at_the_offending_bracket() {
        let full = format!("{}1{}", "[{\"a\":".repeat(MAX_DEPTH / 2), "}]".repeat(MAX_DEPTH / 2));
        assert!(Json::parse(&full).is_ok(), "{MAX_DEPTH} levels parse");
        // Siblings do not add up: the count is of containers open at once.
        assert!(Json::parse(&format!("[{}]", [full.as_str(); 3].join(","))).is_err(), "one level more");
        assert!(Json::parse(&format!("[{}]", vec!["[[1]]"; 500].join(","))).is_ok());
        let err = Json::parse(&"[".repeat(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("nesting deeper"), "{err}");
    }

    #[test]
    fn parse_keeps_last_duplicate_key() {
        let v = Json::parse(r#"{"a":1,"b":2,"a":3}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(3));
        match &v {
            Json::Obj(fields) => assert_eq!(fields.len(), 2),
            _ => unreachable!(),
        }
    }
}
