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
//! newline-delimited request lines. Its pieces are public as [`Cursor`],
//! so a reader that needs a few fields of a large document (the daemon's
//! request reader, which decodes `image` straight into `f32`) can walk
//! it with the same grammar and errors without building a tree.
//!
//! Numbers are read by one routine, [`Cursor::number`], to the `f64`
//! nearest their decimal value: the bits `str::parse::<f64>` returns.
//! Most spellings take Clinger's fast path. Write the number as `m·10^e`,
//! `m` the decimal significand with the point removed and `e` the
//! exponent minus the fraction digits. When `m ≤ 2⁵³` and `|e| ≤ 22`,
//! both `m` and `10^|e|` are exact `f64`s (`5²² < 2⁵³`), so one IEEE
//! multiply (`e ≥ 0`) or divide (`e < 0`) rounds the exact value once, to
//! nearest — the correctly rounded result, which is also what
//! `str::parse` computes. Every other spelling (longer significands,
//! larger exponents) goes to `str::parse` itself. A fraction's digits are
//! gathered four and then up to eight at a time (SWAR, within one
//! machine word). That changes how fast `m` is read, not its value.

use std::borrow::Cow;
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
        let mut cursor = Cursor::new(s);
        cursor.skip_ws();
        let v = cursor.value()?;
        cursor.end()?;
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

/// Exact powers of ten: `10^k` for `k ≤ 22` needs at most 52 significant
/// bits (`5^22 < 2^53`), so every entry is the power itself, not a
/// rounding of it.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// `10^k` for `k ≤ 8`: the scale of a run of `k` digits.
const POW10_U64: [u64; 9] = [1, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000];

/// Steps `pos` over a run of digits of `bytes`, folding them into `acc`
/// modulo 2⁶⁴ (so `acc` is exact for up to 19 digits). Returns how many
/// there were.
#[inline(always)]
fn digits(bytes: &[u8], pos: &mut usize, acc: &mut u64) -> usize {
    let start = *pos;
    while let Some(d @ b'0'..=b'9') = bytes.get(*pos).copied() {
        *acc = acc.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
        *pos += 1;
    }
    *pos - start
}

/// [`digits`] shaped for a fraction, which usually has 5 to 10 digits.
/// The first four go in one step: nearly every fraction has four, so the
/// branch predicts. The next up to eight go in one step with no branch
/// on their count, where a digit-at-a-time loop mispredicts its exit on
/// most numbers. Any further ones go one at a time.
#[inline(always)]
fn fraction_digits(bytes: &[u8], pos: &mut usize, acc: &mut u64) -> usize {
    let start = *pos;
    let four = bytes.get(start..start + 4).map(|w| u32::from_le_bytes(w.try_into().expect("four bytes")));
    if let Some(value) = four.and_then(four_digits) {
        *acc = acc.wrapping_mul(10_000).wrapping_add(u64::from(value));
        *pos += 4;
        if let Some(word) = bytes.get(*pos..*pos + 8) {
            let (len, value) = leading_digits(u64::from_le_bytes(word.try_into().expect("eight bytes")));
            *acc = acc.wrapping_mul(POW10_U64[len]).wrapping_add(value);
            *pos += len;
            if len < 8 {
                return *pos - start;
            }
        }
    }
    digits(bytes, pos, acc);
    *pos - start
}

/// Each byte's top bit set where a little-endian word's byte is not an
/// ASCII digit — exactly for the lowest such byte; the bytes above it
/// may be wrong. Below '0' a byte borrows into its top bit, above '9'
/// adding 0x46 carries into it, and at 0x80 or above one of the two does;
/// digits below it neither borrow nor carry.
#[inline(always)]
fn non_digits(word: u64) -> u64 {
    const ONES: u64 = 0x0101_0101_0101_0101;
    (word.wrapping_sub(0x30 * ONES) | word.wrapping_add(0x46 * ONES)) & (0x80 * ONES)
}

/// The value of eight digit values (0–9, one a byte, the first digit
/// lowest) in three multiplies: bytes pair up into 2-, then 4-, then the
/// 8-digit value.
#[inline(always)]
fn eight_digit_value(digits: u64) -> u64 {
    let pairs = digits.wrapping_mul(10).wrapping_add(digits >> 8);
    let mask = 0x0000_00ff_0000_00ff;
    let quads = (pairs & mask).wrapping_mul(100 + (1_000_000 << 32));
    quads.wrapping_add(((pairs >> 16) & mask).wrapping_mul(1 + (10_000 << 32))) >> 32
}

/// The value of four ASCII digits read as a little-endian word (the first
/// digit lowest), or `None` if any of them is not a digit.
#[inline(always)]
fn four_digits(word: u32) -> Option<u32> {
    if non_digits(u64::from(word)) & 0x8080_8080 != 0 {
        return None;
    }
    // Shifted to the top: the four zero bytes below read as leading zeros.
    Some(eight_digit_value((u64::from(word) << 32).wrapping_sub(0x3030_3030 << 32)) as u32)
}

/// The leading run of ASCII digits of a little-endian word (the first
/// byte lowest): its length (0–8) and its value.
#[inline(always)]
fn leading_digits(word: u64) -> (usize, u64) {
    let len = (non_digits(word).trailing_zeros() / 8) as usize;
    // The run's digit values moved to the top bytes (the bytes after it
    // shift out); the zero bytes shifted in below read as leading zeros.
    let digits = word.wrapping_sub(0x3030_3030_3030_3030);
    let run = (u128::from(digits) << (64 - 8 * len)) as u64;
    (len, eight_digit_value(run))
}

/// [`Cursor::number`] on `bytes` from `start`: the value and the offset
/// just past it. Most spellings take Clinger's fast path (module docs);
/// the rest go to `str::parse`.
#[inline(always)]
fn number_at(bytes: &[u8], start: usize) -> Result<(f64, usize), ParseError> {
    let fail = |at: usize, message: &str| Err(ParseError { offset: at, message: message.into() });
    let negative = bytes.get(start) == Some(&b'-');
    let int_start = start + usize::from(negative);
    let mut pos = int_start;
    let mut significand = 0u64;
    let int_digits = digits(bytes, &mut pos, &mut significand);
    if int_digits == 0 {
        return fail(pos, "expected digits");
    }
    if int_digits > 1 && bytes[int_start] == b'0' {
        return fail(int_start + 1, "leading zero in number");
    }
    let mut fraction_digits = 0;
    if bytes.get(pos) == Some(&b'.') {
        pos += 1;
        fraction_digits = self::fraction_digits(bytes, &mut pos, &mut significand);
        if fraction_digits == 0 {
            return fail(pos, "expected fraction digits");
        }
    }
    let (mut exponent, mut exponent_digits) = (0i64, 0);
    if matches!(bytes.get(pos), Some(b'e' | b'E')) {
        pos += 1;
        let negative = bytes.get(pos) == Some(&b'-');
        pos += usize::from(matches!(bytes.get(pos), Some(b'+' | b'-')));
        let mut magnitude = 0u64;
        exponent_digits = digits(bytes, &mut pos, &mut magnitude);
        if exponent_digits == 0 {
            return fail(pos, "expected exponent digits");
        }
        exponent = if negative { (magnitude as i64).wrapping_neg() } else { magnitude as i64 };
    }
    // Below 20 digits both runs are exact, and the net power of ten
    // cannot overflow.
    if int_digits + fraction_digits < 20 && exponent_digits < 19 && significand <= 1 << 53 {
        let scale = exponent - fraction_digits as i64;
        if (-22..=22).contains(&scale) {
            let m = significand as f64;
            let v = if scale >= 0 { m * POW10[scale as usize] } else { m / POW10[scale.unsigned_abs() as usize] };
            // `v` is not negative: the sign is one bit.
            return Ok((f64::from_bits(v.to_bits() | u64::from(negative) << 63), pos));
        }
    }
    let text = std::str::from_utf8(&bytes[start..pos]).expect("ascii number");
    match text.parse::<f64>() {
        Ok(v) => Ok((v, pos)),
        Err(_) => fail(pos, "number out of range"),
    }
}

/// A read position in JSON text, and the pieces [`Json::parse`] is built
/// from: whitespace, strings, numbers, the object and array walkers and
/// the whole-value parser. A reader that wants a few fields of a document
/// without a [`Json`] tree (the serving daemon decodes a request's
/// `image` straight into `f32`) walks it with these and gets
/// [`Json::parse`]'s grammar, nesting limit and error offsets.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Cursor { bytes: text.as_bytes(), pos: 0, depth: 0 }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError { offset: self.pos, message: message.into() }
    }

    /// The next byte, if any.
    #[inline]
    pub fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// The text not read yet.
    pub fn rest(&self) -> &'a [u8] {
        &self.bytes[self.pos..]
    }

    /// Steps over JSON whitespace.
    #[inline]
    pub fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Steps over trailing whitespace and refuses anything after it.
    ///
    /// # Errors
    /// [`ParseError`] at the first character past the value.
    pub fn end(mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after the JSON value"));
        }
        Ok(())
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

    /// Parses one value of any kind into a [`Json`] tree.
    ///
    /// # Errors
    /// [`ParseError`] at the first offending character.
    pub fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => {
                let mut fields: Vec<(String, Json)> = Vec::new();
                self.object(|c, key| {
                    let value = c.value()?;
                    // Duplicate keys keep the last occurrence, like serde_json.
                    fields.retain(|(k, _)| *k != key);
                    fields.push((key.into_owned(), value));
                    Ok(())
                })?;
                Ok(Json::Obj(fields))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|c| c.value().map(|v| items.push(v)))?;
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number().map(Json::Num),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Enters an array or object one level down, refusing past [`MAX_DEPTH`].
    fn nested(&mut self, body: impl FnOnce(&mut Self) -> Result<(), ParseError>) -> Result<(), ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = body(self);
        self.depth -= 1;
        v
    }

    /// Walks an object: `field` is called once per member, in text order,
    /// with its key and the cursor at its value, and must consume the
    /// value. A key that occurs twice is passed twice; keeping the last
    /// occurrence is the caller's rule, as it is [`Json::parse`]'s.
    ///
    /// # Errors
    /// [`ParseError`] from the envelope or from `field`.
    pub fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.nested(|c| {
            c.expect(b'{')?;
            c.skip_ws();
            if c.peek() == Some(b'}') {
                c.pos += 1;
                return Ok(());
            }
            loop {
                c.skip_ws();
                let key = c.string()?;
                c.skip_ws();
                c.expect(b':')?;
                c.skip_ws();
                field(c, key)?;
                c.skip_ws();
                match c.peek() {
                    Some(b',') => c.pos += 1,
                    Some(b'}') => {
                        c.pos += 1;
                        return Ok(());
                    }
                    _ => return Err(c.err("expected ',' or '}' in object")),
                }
            }
        })
    }

    /// Walks an array: `item` is called once per element with the cursor
    /// at it, and must consume it.
    ///
    /// # Errors
    /// [`ParseError`] from the envelope or from `item`.
    pub fn array(&mut self, mut item: impl FnMut(&mut Self) -> Result<(), ParseError>) -> Result<(), ParseError> {
        self.nested(|c| {
            c.expect(b'[')?;
            c.skip_ws();
            if c.peek() == Some(b']') {
                c.pos += 1;
                return Ok(());
            }
            loop {
                c.skip_ws();
                item(c)?;
                c.skip_ws();
                match c.peek() {
                    Some(b',') => c.pos += 1,
                    Some(b']') => {
                        c.pos += 1;
                        return Ok(());
                    }
                    _ => return Err(c.err("expected ',' or ']' in array")),
                }
            }
        })
    }

    /// Parses a string. It borrows from the text unless it holds an
    /// escape.
    ///
    /// # Errors
    /// [`ParseError`] at a bad escape, a raw control character or the end
    /// of the text.
    pub fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
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
                    // Take the run up to the next quote, escape or control
                    // character in one piece (input is &str and all three
                    // are ASCII, so the run ends on a char boundary).
                    let rest = &self.bytes[self.pos..];
                    let len = rest.iter().position(|&c| c == b'"' || c == b'\\' || c < 0x20).unwrap_or(rest.len());
                    let run = std::str::from_utf8(&rest[..len]).map_err(|_| self.err("invalid UTF-8"))?;
                    self.pos += len;
                    if out.is_empty() && self.peek() == Some(b'"') {
                        // The whole string, escape-free: borrow it.
                        self.pos += 1;
                        return Ok(Cow::Borrowed(run));
                    }
                    out.push_str(run);
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

    /// Parses a number (JSON grammar) to the `f64` nearest its decimal
    /// value — the bits `str::parse::<f64>` gives (see the module docs).
    ///
    /// # Errors
    /// [`ParseError`] where the text stops being a JSON number.
    #[inline]
    pub fn number(&mut self) -> Result<f64, ParseError> {
        let (v, end) = number_at(self.bytes, self.pos)?;
        self.pos = end;
        Ok(v)
    }

    /// Walks an array, handing each element that is a number to `each`:
    /// the decoder of a numeric payload. Any other element is walked as a
    /// value. Returns whether every element was a number. Elements spelt
    /// `n,n,…` without whitespace are read in one pass.
    ///
    /// # Errors
    /// [`ParseError`] at the first offending character.
    pub fn numbers(&mut self, mut each: impl FnMut(f64)) -> Result<bool, ParseError> {
        let mut all = true;
        self.array(|c| {
            if !matches!(c.peek(), Some(b'-' | b'0'..=b'9')) {
                all = false;
                return c.value().map(drop);
            }
            // A run of elements with the position in a register: the
            // array walker sees one element end where the run ends.
            let mut pos = c.pos;
            loop {
                let (v, end) = number_at(c.bytes, pos)?;
                each(v);
                pos = end;
                match c.bytes.get(pos..pos + 2) {
                    Some([b',', b'-' | b'0'..=b'9']) => pos += 1,
                    _ => break,
                }
            }
            c.pos = pos;
            Ok(())
        })?;
        Ok(all)
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

    /// `Cursor::number`'s bits on `text`, with everything consumed.
    fn number_bits(text: &str) -> u64 {
        let mut c = Cursor::new(text);
        let v = c.number().unwrap_or_else(|e| panic!("{text}: {e}"));
        c.end().unwrap_or_else(|e| panic!("{text}: {e}"));
        v.to_bits()
    }

    fn std_bits(text: &str) -> u64 {
        text.parse::<f64>().expect("a valid float").to_bits()
    }

    #[test]
    fn numbers_read_to_the_bits_str_parse_gives() {
        for text in [
            "0", "-0", "0.5", "5e-1", "5E-1", "0.50000000000000000001", "-0.0e5", "1e+2", "1e-0",
            "9007199254740992", "9007199254740993", "9007199254740992e-22", "1e22", "1e23", "1e-22",
            "1e-23", "0.1", "0.3", "123456789012345678901234", "1e999", "-1e999", "1e-999",
            "4.9e-324", "2.2250738585072014e-308", "1.7976931348623157e308", "0.000001", "1e18446744073709551616",
        ] {
            assert_eq!(number_bits(text), std_bits(text), "{text}");
        }
        assert_eq!(number_bits("-0"), (-0.0f64).to_bits(), "the sign of zero survives");
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(4096))]

        /// Finite `f64`s (any bits, and values within ±1000), spelt the
        /// ways Rust prints floats (both `Display` forms, also of the
        /// value rounded to `f32`), and arbitrary decimal
        /// significands of 1–26 digits under exponents of ±40: the fast
        /// path and the fallback both land on `str::parse`'s bits.
        #[test]
        fn number_matches_str_parse(
            bits in 0u64..=u64::MAX,
            moderate in -1.0e3f64..1.0e3,
            digits in proptest::collection::vec(0u8..10, 1..27),
            point in 0usize..26,
            exponent in -40i32..40,
        ) {
            for x in [f64::from_bits(bits), moderate].into_iter().filter(|x| x.is_finite()) {
                let narrow = x as f32;
                let mut spellings = vec![format!("{x}"), format!("{x:e}")];
                if narrow.is_finite() {
                    spellings.extend([format!("{narrow}"), format!("{narrow:e}")]);
                }
                for text in spellings {
                    proptest::prop_assert_eq!(number_bits(&text), std_bits(&text), "{}", text);
                }
            }
            let digits: String = digits.iter().map(|d| char::from(b'0' + d)).collect();
            let digits = digits.trim_start_matches('0');
            let digits = if digits.is_empty() { "0" } else { digits };
            let point = point.min(digits.len() - 1);
            let text = format!("-{}.{}0e{exponent}", &digits[..=point], &digits[point + 1..]);
            proptest::prop_assert_eq!(number_bits(&text), std_bits(&text), "{}", text);
        }
    }
}
