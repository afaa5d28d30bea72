//! A minimal, dependency-free JSON value with parser and serializer.
//!
//! The compute service speaks line-delimited JSON over TCP, and the build
//! image has no crates.io access, so `serde_json` is not an option. This
//! module implements exactly the subset the wire protocol needs:
//!
//! * Unsigned integers are kept **exact** as `u64` (`Json::UInt`) rather
//!   than routed through `f64` — P32 products occupy the full 64-bit range
//!   and must survive a round trip bit-for-bit. Numbers with a sign, a
//!   fraction or an exponent parse as `Json::Float`.
//! * Strings support the standard escapes including `\uXXXX` with UTF-16
//!   surrogate pairs for astral characters (unpaired surrogates decode to
//!   U+FFFD).
//! * Parsing depth is limited (64 levels) so a malicious client cannot
//!   overflow the server's stack with `[[[[…]]]]`.
//!
//! One reader, the crate-private `Parser`, does all the parsing:
//! [`Json::parse`] builds a tree with it, and the wire codec reads typed
//! fields with it straight from a line (escape-free strings as slices of
//! the line, integer arrays straight into `Vec<u64>`), skipping what it
//! does not read without allocating.
//!
//! # Examples
//!
//! ```
//! use bpimc_core::json::Json;
//!
//! let v = Json::parse(r#"{"op":"dot","x":[1,2,3]}"#).unwrap();
//! assert_eq!(v.get("op").and_then(Json::as_str), Some("dot"));
//! assert_eq!(v.get("x").unwrap().as_array().unwrap().len(), 3);
//! assert_eq!(v.to_string(), r#"{"op":"dot","x":[1,2,3]}"#);
//! ```

use std::borrow::Cow;
use std::fmt;
use std::fmt::Write as _;

/// Maximum nesting depth accepted by the parser.
const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64`, kept exact.
    UInt(u64),
    /// Any other number (negative, fractional or exponential).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset plus a static description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub(crate) offset: usize,
    /// What went wrong.
    pub(crate) message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one JSON document (trailing whitespace allowed, nothing else).
    ///
    /// # Errors
    ///
    /// Returns the offset and reason of the first syntax error.
    pub fn parse(s: &str) -> Result<Json, JsonError> {
        let mut p = Parser::new(s);
        p.skip_ws();
        let v = p.value(0)?;
        p.end()?;
        Ok(v)
    }

    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64` (exact integers only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `f64` (integers widen losslessly up to 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(n) => Some(*n as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Convenience: an array of exact `u64`s (`None` if any element isn't).
    pub fn as_u64_array(&self) -> Option<Vec<u64>> {
        self.as_array()?.iter().map(Json::as_u64).collect()
    }
}

impl Json {
    /// Appends the value's JSON text to `out`: the one serializer behind
    /// both [`Display`](fmt::Display) and the wire codec.
    pub(crate) fn write_to(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => write_u64(out, *n),
            Json::Float(x) => write_f64(out, *x),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_array(out, items, |out, v| v.write_to(out)),
            Json::Obj(fields) => {
                let mut obj = ObjWriter::open(out);
                for (k, v) in fields {
                    v.write_to(obj.key(k));
                }
                obj.close();
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_to(&mut out);
        f.write_str(&out)
    }
}

/// Appends `n` in decimal.
pub(crate) fn write_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Appends `x` as `{x}` formats it; JSON has no NaN/inf, and null is the
/// least-surprising encoding for them.
pub(crate) fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

/// Appends `s` as a JSON string. Runs that need no escaping are copied
/// with one `push_str` each; only `"`, `\` and control characters are
/// escaped, and every one of them is ASCII, so runs split on char
/// boundaries.
pub(crate) fn write_str(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
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
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Appends `items` as a JSON array, each element written by `each`.
pub(crate) fn write_array<T>(out: &mut String, items: &[T], mut each: impl FnMut(&mut String, &T)) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        each(out, item);
    }
    out.push(']');
}

/// Appends an array of exact integers.
pub(crate) fn write_u64s(out: &mut String, words: &[u64]) {
    write_array(out, words, |out, &w| write_u64(out, w));
}

/// Writes one JSON object field by field straight into a line, so an
/// encoder need not build a [`Json`] tree first.
pub(crate) struct ObjWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> ObjWriter<'a> {
    /// Opens an object at the end of `out`.
    pub(crate) fn open(out: &'a mut String) -> Self {
        out.push('{');
        Self { out, empty: true }
    }

    /// Starts the next field and returns the line to write its value to.
    pub(crate) fn key(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        write_str(self.out, key);
        self.out.push(':');
        self.out
    }

    /// A field holding an exact integer.
    pub(crate) fn uint(&mut self, key: &str, n: u64) {
        write_u64(self.key(key), n);
    }

    /// A field holding a string.
    pub(crate) fn str(&mut self, key: &str, s: &str) {
        write_str(self.key(key), s);
    }

    /// A field holding an array of exact integers.
    pub(crate) fn words(&mut self, key: &str, words: &[u64]) {
        write_u64s(self.key(key), words);
    }

    /// Closes the object.
    pub(crate) fn close(self) {
        self.out.push('}');
    }
}

/// A leaf value as [`Parser::scalar`] reads it.
#[derive(Debug)]
pub(crate) enum Scalar<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64`, kept exact.
    UInt(u64),
    /// Any other number.
    Float(f64),
    /// A string: a slice of the input unless it holds an escape.
    Str(Cow<'a, str>),
    /// An array or an object, skipped.
    Nested,
}

impl Scalar<'_> {
    /// The value as `u64` (exact integers only).
    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            Scalar::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `f64` (integers widen losslessly up to 2^53).
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Scalar::UInt(n) => Some(*n as f64),
            Scalar::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Scalar::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Where decoded string text goes: a `String`, or nowhere when a value is
/// only skipped.
trait Text {
    fn push(&mut self, c: char);
    fn push_str(&mut self, s: &str);
}

impl Text for String {
    fn push(&mut self, c: char) {
        String::push(self, c);
    }

    fn push_str(&mut self, s: &str) {
        String::push_str(self, s);
    }
}

/// Decoded text that nothing keeps.
struct Discard;

impl Text for Discard {
    fn push(&mut self, _: char) {}

    fn push_str(&mut self, _: &str) {}
}

/// The crate's one JSON reader. [`Json::parse`] builds a tree with it, and
/// the wire codec reads typed fields with it straight from a line,
/// allocating only the values it keeps. Every read checks syntax and the
/// depth limit alike, so a document fails with the same error at the same
/// offset whichever read meets the fault.
///
/// A value's `depth` is its nesting level: a document's top-level value is
/// at 0, and the elements and field values of a value at `d` are at
/// `d + 1`. A value deeper than 64 levels is refused.
pub(crate) struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    /// A reader at the start of `src`.
    pub(crate) fn new(src: &'a str) -> Self {
        Self {
            src,
            bytes: src.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            message,
        }
    }

    /// Skips JSON whitespace.
    pub(crate) fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    /// Checks that nothing but whitespace is left.
    pub(crate) fn end(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters after the document"))
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn literal(&mut self, lit: &'static str, message: &'static str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    /// The first byte of the value at the cursor, after the depth check.
    pub(crate) fn start(&self, depth: usize) -> Result<u8, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.peek()
            .ok_or_else(|| self.err("unexpected end of input"))
    }

    /// Reads the value at the cursor as a tree.
    pub(crate) fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        Ok(match self.start(depth)? {
            b'[' => {
                let mut items = Vec::new();
                self.elements(depth, |p, d| {
                    items.push(p.value(d)?);
                    Ok(())
                })?;
                Json::Arr(items)
            }
            b'{' => {
                let mut fields = Vec::new();
                self.members(depth, Self::string, |p, key, d| {
                    fields.push((key.into_owned(), p.value(d)?));
                    Ok(())
                })?;
                Json::Obj(fields)
            }
            b'"' => Json::Str(self.string()?.into_owned()),
            first => match self.leaf(first)? {
                Scalar::Null => Json::Null,
                Scalar::Bool(b) => Json::Bool(b),
                Scalar::UInt(n) => Json::UInt(n),
                Scalar::Float(x) => Json::Float(x),
                Scalar::Str(_) | Scalar::Nested => unreachable!("read above"),
            },
        })
    }

    /// Reads the value at the cursor as a [`Scalar`]; an array or object
    /// is skipped.
    pub(crate) fn scalar(&mut self, depth: usize) -> Result<Scalar<'a>, JsonError> {
        match self.start(depth)? {
            b'[' | b'{' => self.skip_value(depth).map(|()| Scalar::Nested),
            first => self.leaf(first),
        }
    }

    /// Skips the value at the cursor, allocating nothing.
    pub(crate) fn skip_value(&mut self, depth: usize) -> Result<(), JsonError> {
        match self.start(depth)? {
            b'[' => self.elements(depth, Self::skip_value),
            b'{' => self.members(depth, Self::skip_string, |p, (), d| p.skip_value(d)),
            b'"' => self.skip_string(),
            first => self.leaf(first).map(drop),
        }
    }

    /// Skips the value at the cursor and returns its text.
    pub(crate) fn skip_span(&mut self, depth: usize) -> Result<&'a str, JsonError> {
        let start = self.pos;
        self.skip_value(depth)?;
        Ok(&self.src[start..self.pos])
    }

    /// Reads an array, calling `each` with the depth of its elements once
    /// per element; `each` must read the element at the cursor. A value
    /// that is not an array is skipped and reads as `false`.
    pub(crate) fn array(
        &mut self,
        depth: usize,
        each: impl FnMut(&mut Self, usize) -> Result<(), JsonError>,
    ) -> Result<bool, JsonError> {
        if self.start(depth)? != b'[' {
            self.skip_value(depth)?;
            return Ok(false);
        }
        self.elements(depth, each).map(|()| true)
    }

    /// The elements of the array whose `[` is at the cursor, for
    /// [`Parser::array`].
    fn elements(
        &mut self,
        depth: usize,
        mut each: impl FnMut(&mut Self, usize) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            each(self, depth + 1)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    /// Reads an object, calling `each` with every key in order and the
    /// depth of the field values; `each` must read the value at the
    /// cursor. A value that is not an object is skipped and reads as
    /// `false`.
    pub(crate) fn object(
        &mut self,
        depth: usize,
        each: impl FnMut(&mut Self, Cow<'a, str>, usize) -> Result<(), JsonError>,
    ) -> Result<bool, JsonError> {
        if self.start(depth)? != b'{' {
            self.skip_value(depth)?;
            return Ok(false);
        }
        self.members(depth, Self::string, each).map(|()| true)
    }

    /// The members of the object whose `{` is at the cursor, for
    /// [`Parser::object`]; the key reader is a parameter, so skipping an
    /// object decodes no key.
    fn members<K>(
        &mut self,
        depth: usize,
        mut key: impl FnMut(&mut Self) -> Result<K, JsonError>,
        mut each: impl FnMut(&mut Self, K, usize) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let k = key(self)?;
            self.skip_ws();
            self.expect(b':', "expected ':' after object key")?;
            self.skip_ws();
            each(self, k, depth + 1)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    /// Reads an array of exact integers straight into `out`. Reads as
    /// `false` when the value is not an array or holds anything else; the
    /// rest is skipped and `out` keeps what was pushed before.
    pub(crate) fn u64s(&mut self, depth: usize, out: &mut Vec<u64>) -> Result<bool, JsonError> {
        let mut exact = true;
        let array = self.array(depth, |p, d| {
            match p.start(d)? {
                b'0'..=b'9' => match p.number()?.as_u64() {
                    Some(n) if exact => out.push(n),
                    _ => exact = false,
                },
                _ => {
                    exact = false;
                    p.skip_value(d)?;
                }
            }
            Ok(())
        })?;
        Ok(array && exact)
    }

    /// Reads an array of numbers, each as `f64`, straight into `out`; as
    /// [`Parser::u64s`] otherwise.
    pub(crate) fn f64s(&mut self, depth: usize, out: &mut Vec<f64>) -> Result<bool, JsonError> {
        let mut numbers = true;
        let array = self.array(depth, |p, d| {
            match p.start(d)? {
                b'-' | b'0'..=b'9' => match p.number()?.as_f64() {
                    Some(x) if numbers => out.push(x),
                    _ => numbers = false,
                },
                _ => {
                    numbers = false;
                    p.skip_value(d)?;
                }
            }
            Ok(())
        })?;
        Ok(array && numbers)
    }

    /// Reads a value that is neither an array nor an object; `first` is
    /// its first byte.
    fn leaf(&mut self, first: u8) -> Result<Scalar<'a>, JsonError> {
        match first {
            b'n' => self.literal("null", "expected null").map(|()| Scalar::Null),
            b't' => self
                .literal("true", "expected true")
                .map(|()| Scalar::Bool(true)),
            b'f' => self
                .literal("false", "expected false")
                .map(|()| Scalar::Bool(false)),
            b'"' => self.string().map(Scalar::Str),
            b'-' | b'0'..=b'9' => self.number(),
            _ => Err(self.err("unexpected character")),
        }
    }

    /// Reads a string: one slice of the input when it holds no escape and
    /// no control character, an owned copy otherwise.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        let (start, closed) = self.open_string()?;
        if closed {
            return Ok(Cow::Borrowed(&self.src[start..self.pos - 1]));
        }
        let mut out = String::from(&self.src[start..self.pos]);
        self.escaped_rest(&mut out)?;
        Ok(Cow::Owned(out))
    }

    /// Skips a string, allocating nothing.
    fn skip_string(&mut self) -> Result<(), JsonError> {
        if self.open_string()?.1 {
            return Ok(());
        }
        self.escaped_rest(&mut Discard)
    }

    /// Opens a string and scans its plain prefix: up to and past the
    /// closing quote (`true`), or up to the escape, control character or
    /// end of input that stops the scan (`false`). Also returns where the
    /// content starts.
    fn open_string(&mut self) -> Result<(usize, bool), JsonError> {
        self.expect(b'"', "expected '\"'")?;
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b'"' {
                self.pos += 1;
                return Ok((start, true));
            }
            if b == b'\\' || b < 0x20 {
                break;
            }
            self.pos += 1;
        }
        Ok((start, false))
    }

    /// Decodes the rest of a string whose plain prefix stopped at the
    /// cursor, through the closing quote.
    fn escaped_rest(&mut self, out: &mut impl Text) -> Result<(), JsonError> {
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(()),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
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
                            let code = self.hex4()?;
                            if (0xD800..0xDC00).contains(&code) {
                                // High surrogate: pair it with a following
                                // \uXXXX low surrogate (the standard JSON
                                // encoding of astral characters).
                                let resume = self.pos;
                                if self.peek() == Some(b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if (0xDC00..0xE000).contains(&low) {
                                        let c = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                        out.push(char::from_u32(c).unwrap_or('\u{FFFD}'));
                                    } else {
                                        // Unpaired high surrogate; the next
                                        // escape stands on its own.
                                        out.push('\u{FFFD}');
                                        self.pos = resume;
                                    }
                                } else {
                                    out.push('\u{FFFD}');
                                }
                            } else {
                                // Lone low surrogates land in the None arm.
                                out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            }
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                // Multi-byte UTF-8: copy the sequence through verbatim. The
                // input is a &str, so sequences are always valid.
                b if b < 0x80 => {
                    if b < 0x20 {
                        return Err(self.err("unescaped control character"));
                    }
                    out.push(b as char);
                }
                _ => {
                    let start = self.pos - 1;
                    while self.peek().is_some_and(|c| c & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.err("truncated \\u escape"));
            };
            let digit = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a') as u32 + 10,
                b'A'..=b'F' => (b - b'A') as u32 + 10,
                _ => return Err(self.err("non-hex digit in \\u escape")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    /// Reads a number: `UInt` when it is a plain integer that fits `u64`,
    /// `Float` otherwise.
    fn number(&mut self) -> Result<Scalar<'a>, JsonError> {
        let start = self.pos;
        let mut exact = true; // still a plain non-negative integer?
        if self.peek() == Some(b'-') {
            exact = false;
            self.pos += 1;
        }
        let digits_start = self.pos;
        // The integer part's value, accumulated while scanning; `None` once
        // it overflows `u64`.
        let mut value = Some(0u64);
        while let Some(d) = self.peek().filter(u8::is_ascii_digit) {
            value = value
                .and_then(|v| v.checked_mul(10))
                .and_then(|v| v.checked_add(u64::from(d - b'0')));
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            exact = false;
            self.pos += 1;
            let frac_start = self.pos;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("expected digits after '.'"));
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            exact = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("expected digits in exponent"));
            }
        }
        if exact {
            if let Some(n) = value {
                return Ok(Scalar::UInt(n));
            }
            // Over 2^64-1: fall through to the (lossy) float representation.
        }
        self.src[start..self.pos]
            .parse::<f64>()
            .map(Scalar::Float)
            .map_err(|_| self.err("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for (text, v) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("0", Json::UInt(0)),
            ("18446744073709551615", Json::UInt(u64::MAX)),
            ("-3.5", Json::Float(-3.5)),
            ("\"hi\"", Json::Str("hi".into())),
        ] {
            assert_eq!(Json::parse(text).unwrap(), v, "{text}");
            assert_eq!(Json::parse(&v.to_string()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn u64_values_survive_exactly() {
        // The whole point of Json::UInt: P32 products occupy all 64 bits
        // and must not be squeezed through f64.
        let big = u64::MAX - 1;
        let v = Json::Arr(vec![Json::UInt(big)]);
        let back = Json::parse(&v.to_string()).unwrap();
        assert_eq!(back.as_array().unwrap()[0].as_u64(), Some(big));
    }

    #[test]
    fn objects_and_arrays_parse() {
        let v = Json::parse(r#" {"a": [1, 2.5, "x"], "b": {"c": null}} "#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "line\nquote\"back\\slash\ttab\u{1f600}";
        let v = Json::Str(s.into());
        assert_eq!(Json::parse(&v.to_string()).unwrap().as_str(), Some(s));
        assert_eq!(Json::parse(r#""Aé""#).unwrap().as_str(), Some("Aé"));
    }

    #[test]
    fn surrogate_pairs_decode_to_astral_chars() {
        // Standard encoders (Python json.dumps, JSON.stringify with
        // escaping) emit astral characters as UTF-16 surrogate pairs.
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap().as_str(),
            Some("\u{1f600}")
        );
        assert_eq!(
            Json::parse(r#""x\ud83d\ude00y""#).unwrap().as_str(),
            Some("x\u{1f600}y")
        );
        // Unpaired halves degrade to U+FFFD without eating what follows.
        assert_eq!(
            Json::parse(r#""\ud83dX""#).unwrap().as_str(),
            Some("\u{FFFD}X")
        );
        assert_eq!(
            Json::parse(r#""\ud83dA""#).unwrap().as_str(),
            Some("\u{FFFD}A")
        );
        assert_eq!(
            Json::parse(r#""\ude00""#).unwrap().as_str(),
            Some("\u{FFFD}")
        );
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "01x",
            "\"unterminated",
            "nul",
            "1 2",
            "{\"a\":}",
            "[1],",
            "\"bad \\q escape\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn depth_limit_blocks_deep_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        let err = Json::parse(&deep).unwrap_err();
        assert_eq!(err.message, "nesting too deep");
        // Well within the limit is fine.
        let ok = "[".repeat(20) + "1" + &"]".repeat(20);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn u64_array_helper() {
        let v = Json::parse("[1,2,3]").unwrap();
        assert_eq!(v.as_u64_array(), Some(vec![1, 2, 3]));
        let mixed = Json::parse("[1,2.5]").unwrap();
        assert_eq!(mixed.as_u64_array(), None);
    }

    /// What the parser returns at the edges of plain strings and plain
    /// integers, error offsets included, so any shortcut through them must
    /// answer byte for byte as the general path does.
    #[test]
    fn parse_results_and_error_offsets_are_pinned() {
        let ok = |s: &str| Json::parse(s).unwrap();
        let err = |s: &str| {
            let e = Json::parse(s).unwrap_err();
            (e.offset, e.message)
        };
        assert_eq!(ok("007"), Json::UInt(7));
        assert_eq!(
            ok("[0,007,42]"),
            Json::Arr(vec![Json::UInt(0), Json::UInt(7), Json::UInt(42)])
        );
        assert_eq!(ok("18446744073709551615"), Json::UInt(u64::MAX));
        assert_eq!(
            ok("18446744073709551616"),
            Json::Float(18446744073709551616.0)
        );
        assert_eq!(
            ok("99999999999999999999"),
            Json::Float(99999999999999999999.0)
        );
        let Json::Float(neg_zero) = ok("-0") else {
            panic!("-0 must parse as a float");
        };
        assert!(neg_zero == 0.0 && neg_zero.is_sign_negative());
        assert_eq!(ok("1e3"), Json::Float(1000.0));
        assert_eq!(ok("12.5"), Json::Float(12.5));
        assert_eq!(ok(r#""plain é""#), Json::Str("plain é".into()));
        assert_eq!(
            ok(r#""a\"b\\c\/d\né😀""#),
            Json::Str("a\"b\\c/d\né\u{1f600}".into())
        );
        assert_eq!(
            ok(r#"{"k":"v","n":7}"#),
            Json::Obj(vec![
                ("k".into(), Json::Str("v".into())),
                ("n".into(), Json::UInt(7)),
            ])
        );
        assert_eq!(err("\"a\u{1}b\""), (3, "unescaped control character"));
        assert_eq!(err("\"abc"), (4, "unterminated string"));
        assert_eq!(err("\"ab\\"), (4, "unterminated escape"));
        assert_eq!(err("\"a\\qb\""), (4, "unknown escape"));
        assert_eq!(err("12."), (3, "expected digits after '.'"));
        assert_eq!(err("-"), (1, "expected digits"));
        assert_eq!(err("1e"), (2, "expected digits in exponent"));
        assert_eq!(err("[1x]"), (2, "expected ',' or ']'"));
        assert_eq!(err("12 3"), (3, "trailing characters after the document"));
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
        assert_eq!(Json::Float(f64::INFINITY).to_string(), "null");
    }
}
