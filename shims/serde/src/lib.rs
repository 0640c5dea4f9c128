//! Offline stand-in for `serde`.
//!
//! The build environment cannot reach crates.io, so this crate supplies
//! the serde surface the workspace actually uses: `Serialize` /
//! `Deserialize` traits (re-exported together with same-named derive
//! macros under the `derive` feature) plus impls for primitives,
//! tuples, std collections and [`Value`].
//!
//! The design is streaming and JSON-only: `Serialize` writes JSON text
//! into a [`Writer`] and `Deserialize` reads it from a [`Reader`], with
//! no tree in between. The derive emits writers that go field by field
//! and readers that match keys as they arrive; `serde_json` is a thin
//! front end over the one writer and the one reader. Three properties
//! matter for the repro and are guaranteed here:
//!
//! * **Determinism.** Unordered collections (`HashMap`, `HashSet`)
//!   serialize with sorted keys/elements, so the same in-memory state
//!   always produces byte-identical JSON — the fleet engine's
//!   thread-count-independence test and the telemetry fingerprints rely
//!   on this.
//! * **serde-compatible shapes.** Structs become objects in field
//!   declaration order, newtype structs are transparent, enums are
//!   externally tagged, `None` is `null`, and integer map keys become
//!   JSON string keys.
//! * **Bounded reading.** The reader refuses arrays and objects nested
//!   deeper than [`MAX_DEPTH`] levels with an error, so hostile input
//!   cannot overflow a thread's stack.
//!
//! [`Value`] is one more type that implements both traits, for callers
//! that want an untyped document.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt::{self, Write as _};
use std::hash::{BuildHasher, Hash};

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// Serialization error (also used by `serde_json`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Creates an error with an arbitrary message.
    pub fn custom(msg: impl fmt::Display) -> Self {
        Error {
            msg: msg.to_string(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

/// Types that can write themselves as JSON.
pub trait Serialize {
    /// Writes `self` as one JSON value.
    fn serialize(&self, w: &mut Writer);

    /// The text of `self` as a JSON object key: a string as itself, an
    /// integer or a bool in decimal or as `true`/`false`, the way
    /// serde_json renders map keys. Anything else panics.
    #[doc(hidden)]
    fn __map_key(&self) -> Cow<'_, str> {
        let mut w = Writer::new(false);
        self.serialize(&mut w);
        let text = w.into_string();
        if text.starts_with('"') {
            let mut r = Reader::new(&text);
            return Cow::Owned(r.string().expect("a written string reads").into_owned());
        }
        let digits = text.strip_prefix('-').unwrap_or(&text);
        let integer = !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit());
        assert!(
            integer || text == "true" || text == "false",
            "unsupported map key type: map key must be a string or integer, got `{text}`"
        );
        Cow::Owned(text)
    }
}

/// Types that can read themselves from JSON.
pub trait Deserialize: Sized {
    /// Reads one JSON value as `Self`.
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error>;

    /// Rebuilds `Self` from a JSON object key: first as the string
    /// itself, then as the integer or bool it spells, the way
    /// integer-keyed maps serialize.
    #[doc(hidden)]
    fn __from_key(key: &str) -> Result<Self, Error> {
        let mut quoted = Writer::new(false);
        quoted.str(key);
        if let Ok(k) = from_text(&quoted.into_string()) {
            return Ok(k);
        }
        if let Ok(n) = key.parse::<u64>() {
            if let Ok(k) = from_text(&n.to_string()) {
                return Ok(k);
            }
        }
        if let Ok(n) = key.parse::<i64>() {
            if let Ok(k) = from_text(&n.to_string()) {
                return Ok(k);
            }
        }
        if key == "true" || key == "false" {
            if let Ok(k) = from_text(key) {
                return Ok(k);
            }
        }
        Err(bad_key(key))
    }
}

/// Reads a whole text as one `T`.
fn from_text<T: Deserialize>(text: &str) -> Result<T, Error> {
    let mut r = Reader::new(text);
    let value = T::deserialize(&mut r)?;
    r.end()?;
    Ok(value)
}

fn bad_key(key: &str) -> Error {
    Error::custom(format!("cannot interpret map key `{key}`"))
}

// ---------------------------------------------------------------------------
// The writer
// ---------------------------------------------------------------------------

/// Writes JSON text: compact (no whitespace) or pretty (two-space
/// indent, `": "` after keys), byte for byte what serde_json writes.
/// Integral floats keep their `.0`, non-finite floats write `null`, and
/// strings escape `"`, `\` and control characters.
#[derive(Debug)]
pub struct Writer {
    out: String,
    pretty: bool,
    /// Open arrays and objects.
    level: usize,
    /// Whether the innermost open array or object has no entry yet.
    first: bool,
}

impl Writer {
    /// An empty writer, compact or pretty.
    pub fn new(pretty: bool) -> Writer {
        Writer {
            out: String::new(),
            pretty,
            level: 0,
            first: true,
        }
    }

    /// The text written.
    pub fn into_string(self) -> String {
        self.out
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    /// Writes `true` or `false`.
    fn bool(&mut self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// Writes an integer.
    fn int(&mut self, n: impl fmt::Display) {
        write!(self.out, "{n}").expect("writing to a String");
    }

    /// Writes a float in Rust's shortest round-trip form (which keeps
    /// the `.0` of an integral value), or `null` if it is not finite.
    fn f64(&mut self, f: f64) {
        if f.is_finite() {
            write!(self.out, "{f:?}").expect("writing to a String");
        } else {
            self.null();
        }
    }

    /// Writes a string, escaped.
    pub fn str(&mut self, s: &str) {
        self.out.push('"');
        let bytes = s.as_bytes();
        let mut start = 0;
        for (i, &b) in bytes.iter().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0x08 => "\\b",
                0x0c => "\\f",
                0..=0x1f => "",
                _ => continue,
            };
            self.out.push_str(&s[start..i]);
            if escape.is_empty() {
                write!(self.out, "\\u{b:04x}").expect("writing to a String");
            } else {
                self.out.push_str(escape);
            }
            start = i + 1;
        }
        self.out.push_str(&s[start..]);
        self.out.push('"');
    }

    fn newline_indent(&mut self) {
        self.out.push('\n');
        for _ in 0..self.level {
            self.out.push_str("  ");
        }
    }

    /// Separates the next entry of the open array or object from the
    /// one before it.
    fn next_entry(&mut self) {
        if !std::mem::take(&mut self.first) {
            self.out.push(',');
        }
        if self.pretty {
            self.newline_indent();
        }
    }

    fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.level += 1;
        self.first = true;
    }

    fn close(&mut self, bracket: char) {
        self.level -= 1;
        if self.pretty && !self.first {
            self.newline_indent();
        }
        self.out.push(bracket);
        self.first = false;
    }

    /// Opens an array; write each element after [`Writer::element`].
    pub fn begin_array(&mut self) {
        self.open('[');
    }

    /// Starts the next element of the open array.
    pub fn element(&mut self) {
        self.next_entry();
    }

    /// Closes the open array.
    pub fn end_array(&mut self) {
        self.close(']');
    }

    /// Opens an object; write each value after [`Writer::key`].
    pub fn begin_object(&mut self) {
        self.open('{');
    }

    /// Starts the next entry of the open object: writes its key.
    pub fn key(&mut self, key: &str) {
        self.next_entry();
        self.str(key);
        self.out.push_str(if self.pretty { ": " } else { ":" });
    }

    /// Closes the open object.
    pub fn end_object(&mut self) {
        self.close('}');
    }

    /// A writer for a value that will be placed, as written, at this
    /// writer's current position.
    fn nested(&self) -> Writer {
        Writer {
            out: String::new(),
            pretty: self.pretty,
            level: self.level,
            first: true,
        }
    }
}

// ---------------------------------------------------------------------------
// The reader
// ---------------------------------------------------------------------------

/// Most arrays and objects the reader lets nest inside each other.
pub const MAX_DEPTH: usize = 128;

/// Reads JSON text one value at a time.
///
/// Numbers classify as an unsigned integer when their text is one that
/// fits `u64`, else as a signed integer when it fits `i64`, else as a
/// float; a text with `.`, `e`, `E` or a sign after the first character
/// is always a float. So `-0` is the integer zero, and a float never
/// reads into an integer type. A literal that overflows the float type
/// it reads into is an invalid number, not ±inf, since the writer would
/// render that as `null`; underflow to zero is accepted.
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Open arrays and objects.
    depth: usize,
    /// Whether the innermost open array or object has yielded no entry.
    first: bool,
}

/// A number as the reader classified it.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Number {
    /// Fits `u64`.
    UInt(u64),
    /// Negative, or `-0`, and fits `i64`.
    Int(i64),
    /// Anything else.
    Float(f64),
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            first: true,
        }
    }

    /// Byte offset of the next character to read.
    pub fn offset(&self) -> usize {
        self.pos
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    /// The next non-whitespace byte, not consumed.
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    /// Succeeds when nothing but whitespace is left.
    pub fn end(&mut self) -> Result<(), Error> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(Error::custom(format!(
                "trailing characters at offset {}",
                self.pos
            ))),
        }
    }

    /// An "expected ..." error at the next character.
    fn expected(&mut self, what: &str) -> Error {
        self.skip_ws();
        Error::custom(format!("expected {what} at offset {}", self.pos))
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    /// Reads `null` if it is next; reads nothing otherwise.
    pub fn null(&mut self) -> bool {
        self.peek() == Some(b'n') && self.eat_literal("null")
    }

    /// Reads `true` or `false`.
    fn bool(&mut self) -> Result<bool, Error> {
        match self.peek() {
            Some(b't') if self.eat_literal("true") => Ok(true),
            Some(b'f') if self.eat_literal("false") => Ok(false),
            _ => Err(self.expected("bool")),
        }
    }

    /// Reads a number.
    fn number(&mut self) -> Result<Number, Error> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.expected("number"));
        }
        let start = self.pos;
        self.pos += 1;
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Number::UInt(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Number::Int(n));
            }
        }
        // A literal past f64's range parses as ±inf: refused (see
        // `Reader`).
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Number::Float(f)),
            _ => Err(self.invalid_number(start)),
        }
    }

    /// The "invalid number" error for the literal read from `start`.
    fn invalid_number(&self, start: usize) -> Error {
        let text = &self.text[start..self.pos];
        Error::custom(format!("invalid number `{text}` at offset {start}"))
    }

    /// Reads a string, borrowed from the input when it holds no escape.
    pub fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        if self.peek() != Some(b'"') {
            return Err(self.expected("string"));
        }
        self.pos += 1;
        let start = self.pos;
        let mut owned: Option<String> = None;
        loop {
            let run = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    let tail = &self.text[run..self.pos];
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(&self.text[start..self.pos - 1]),
                        Some(mut s) => {
                            s.push_str(tail);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    s.push(self.escape()?);
                }
                _ => return Err(Error::custom("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, Error> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| Error::custom("unterminated escape"))?;
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{08}',
            b'f' => '\u{0c}',
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // A high surrogate must pair with a low one.
                    if !self.eat_literal("\\u") {
                        return Err(Error::custom("unpaired surrogate"));
                    }
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(Error::custom("unpaired surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                char::from_u32(code)
                    .ok_or_else(|| Error::custom(format!("invalid codepoint {code:#x}")))?
            }
            other => {
                return Err(Error::custom(format!(
                    "invalid escape `\\{}`",
                    other as char
                )))
            }
        })
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        let s = self
            .text
            .get(self.pos..end)
            .ok_or_else(|| Error::custom("truncated \\u escape"))?;
        let v = u32::from_str_radix(s, 16)
            .map_err(|_| Error::custom(format!("invalid \\u escape `{s}`")))?;
        self.pos = end;
        Ok(v)
    }

    fn open(&mut self, bracket: u8, what: &str) -> Result<(), Error> {
        if self.peek() != Some(bracket) {
            return Err(self.expected(what));
        }
        if self.depth == MAX_DEPTH {
            return Err(Error::custom(format!(
                "nesting deeper than {MAX_DEPTH} levels at offset {}",
                self.pos
            )));
        }
        self.pos += 1;
        self.depth += 1;
        self.first = true;
        Ok(())
    }

    /// Moves past the separator before the next entry of the open array
    /// or object, or past its closing `close`; false at the close.
    fn next_entry(&mut self, close: u8) -> Result<bool, Error> {
        match self.peek() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                self.first = false;
                Ok(false)
            }
            Some(b',') if !self.first => {
                self.pos += 1;
                Ok(true)
            }
            _ if self.first => {
                self.first = false;
                Ok(true)
            }
            _ => Err(Error::custom(format!(
                "expected `,` or `{}` at offset {}",
                close as char, self.pos
            ))),
        }
    }

    /// Reads the `[` of an array.
    pub fn begin_array(&mut self) -> Result<(), Error> {
        self.open(b'[', "array")
    }

    /// Whether the open array has another element, which is then next;
    /// reads its closing `]` when not.
    pub fn next_element(&mut self) -> Result<bool, Error> {
        self.next_entry(b']')
    }

    /// Reads the `{` of an object.
    pub fn begin_object(&mut self) -> Result<(), Error> {
        self.open(b'{', "object")
    }

    /// Reads the next key of the open object and its `:`, so its value
    /// is next; reads the closing `}` and yields `None` when there is
    /// none.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, Error> {
        if !self.next_entry(b'}')? {
            return Ok(None);
        }
        let key = self.string()?;
        if self.peek() != Some(b':') {
            return Err(Error::custom(format!(
                "expected `:` at offset {}",
                self.pos
            )));
        }
        self.pos += 1;
        Ok(Some(key))
    }

    /// Reads one value of any shape, checking its syntax, and drops it.
    pub fn skip_value(&mut self) -> Result<(), Error> {
        match self.peek() {
            Some(b'"') => self.string().map(drop),
            Some(b'[') => {
                self.begin_array()?;
                while self.next_element()? {
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b'{') => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            Some(b't' | b'f') => self.bool().map(drop),
            _ if self.null() => Ok(()),
            _ => Err(self.expected("a value")),
        }
    }
}

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

/// An untyped JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Non-negative integer.
    UInt(u64),
    /// Negative integer (`-0` reads as `Int(0)`).
    Int(i64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Ordered sequence.
    Array(Vec<Value>),
    /// Key/value object, in document order (duplicates kept).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Total order used to sort set elements deterministically:
    /// null < bool < number < string < array < object; numbers by value,
    /// strings by bytes, arrays and objects entry by entry.
    fn canonical_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::UInt(_) | Value::Int(_) | Value::Float(_) => 2,
                Value::Str(_) => 3,
                Value::Array(_) => 4,
                Value::Object(_) => 5,
            }
        }
        fn as_f64(v: &Value) -> f64 {
            match v {
                Value::UInt(n) => *n as f64,
                Value::Int(n) => *n as f64,
                Value::Float(f) => *f,
                _ => 0.0,
            }
        }
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::UInt(a), Value::UInt(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Array(a), Value::Array(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    let ord = x.canonical_cmp(y);
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                a.len().cmp(&b.len())
            }
            (Value::Object(a), Value::Object(b)) => {
                for ((ka, va), (kb, vb)) in a.iter().zip(b.iter()) {
                    let ord = ka.cmp(kb).then_with(|| va.canonical_cmp(vb));
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                a.len().cmp(&b.len())
            }
            (a, b) if rank(a) == 2 && rank(b) == 2 => as_f64(a).total_cmp(&as_f64(b)),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl Serialize for Value {
    fn serialize(&self, w: &mut Writer) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.bool(*b),
            Value::UInt(n) => w.int(n),
            Value::Int(n) => w.int(n),
            Value::Float(f) => w.f64(*f),
            Value::Str(s) => w.str(s),
            Value::Array(items) => {
                w.begin_array();
                for item in items {
                    w.element();
                    item.serialize(w);
                }
                w.end_array();
            }
            Value::Object(pairs) => {
                w.begin_object();
                for (key, item) in pairs {
                    w.key(key);
                    item.serialize(w);
                }
                w.end_object();
            }
        }
    }
}

impl Deserialize for Value {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(match r.peek() {
            Some(b'"') => Value::Str(r.string()?.into_owned()),
            Some(b'[') => {
                r.begin_array()?;
                let mut items = Vec::new();
                while r.next_element()? {
                    items.push(Value::deserialize(r)?);
                }
                Value::Array(items)
            }
            Some(b'{') => {
                r.begin_object()?;
                let mut pairs = Vec::new();
                while let Some(key) = r.next_key()? {
                    pairs.push((key.into_owned(), Value::deserialize(r)?));
                }
                Value::Object(pairs)
            }
            Some(b't' | b'f') => Value::Bool(r.bool()?),
            Some(b'-' | b'0'..=b'9') => match r.number()? {
                Number::UInt(n) => Value::UInt(n),
                Number::Int(n) => Value::Int(n),
                Number::Float(f) => Value::Float(f),
            },
            _ if r.null() => Value::Null,
            _ => return Err(r.expected("a value")),
        })
    }
}

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

impl Serialize for bool {
    fn serialize(&self, w: &mut Writer) {
        w.bool(*self);
    }
}

impl Deserialize for bool {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.bool()
    }
}

fn out_of_range(n: impl fmt::Display, ty: &str) -> Error {
    Error::custom(format!("integer {n} out of range for {ty}"))
}

macro_rules! impl_serde_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer) {
                w.int(self);
            }

            fn __map_key(&self) -> Cow<'_, str> {
                Cow::Owned(self.to_string())
            }
        }
        impl Deserialize for $t {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                let n = match r.number()? {
                    Number::UInt(n) => n,
                    Number::Int(n) if n >= 0 => n as u64,
                    Number::Int(n) => return Err(out_of_range(n, stringify!($t))),
                    Number::Float(_) => {
                        return Err(Error::custom("expected unsigned integer, got float"))
                    }
                };
                <$t>::try_from(n).map_err(|_| out_of_range(n, stringify!($t)))
            }

            fn __from_key(key: &str) -> Result<Self, Error> {
                key.parse::<u64>()
                    .ok()
                    .and_then(|n| <$t>::try_from(n).ok())
                    .ok_or_else(|| bad_key(key))
            }
        }
    )*};
}
impl_serde_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer) {
                w.int(self);
            }

            fn __map_key(&self) -> Cow<'_, str> {
                Cow::Owned(self.to_string())
            }
        }
        impl Deserialize for $t {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                let n: i64 = match r.number()? {
                    Number::Int(n) => n,
                    Number::UInt(n) => {
                        i64::try_from(n).map_err(|_| out_of_range(n, stringify!($t)))?
                    }
                    Number::Float(_) => return Err(Error::custom("expected integer, got float")),
                };
                <$t>::try_from(n).map_err(|_| out_of_range(n, stringify!($t)))
            }

            fn __from_key(key: &str) -> Result<Self, Error> {
                key.parse::<i64>()
                    .ok()
                    .and_then(|n| <$t>::try_from(n).ok())
                    .ok_or_else(|| bad_key(key))
            }
        }
    )*};
}
impl_serde_int!(i8, i16, i32, i64, isize);

macro_rules! impl_serde_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer) {
                w.f64(*self as f64);
            }
        }
        impl Deserialize for $t {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                r.peek(); // skips whitespace: `start` is where the literal begins
                let start = r.offset();
                let f = match r.number()? {
                    Number::Float(f) => f as $t,
                    Number::UInt(n) => n as $t,
                    Number::Int(n) => n as $t,
                };
                // A finite f64 can still overflow a narrower type.
                if f.is_finite() {
                    Ok(f)
                } else {
                    Err(r.invalid_number(start))
                }
            }
        }
    )*};
}
impl_serde_float!(f32, f64);

impl Serialize for str {
    fn serialize(&self, w: &mut Writer) {
        w.str(self);
    }

    fn __map_key(&self) -> Cow<'_, str> {
        Cow::Borrowed(self)
    }
}

impl Serialize for String {
    fn serialize(&self, w: &mut Writer) {
        w.str(self);
    }

    fn __map_key(&self) -> Cow<'_, str> {
        Cow::Borrowed(self)
    }
}

impl Deserialize for String {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.string().map(Cow::into_owned)
    }

    fn __from_key(key: &str) -> Result<Self, Error> {
        Ok(key.to_string())
    }
}

impl Deserialize for &'static str {
    /// Leaks the string to obtain `'static`. Only small audit labels
    /// deserialize through this in the workspace; real serde borrows
    /// from the input instead.
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let s = r.string()?.into_owned();
        Ok(Box::leak(s.into_boxed_str()))
    }
}

impl Serialize for char {
    fn serialize(&self, w: &mut Writer) {
        w.str(self.encode_utf8(&mut [0; 4]));
    }
}

impl Deserialize for char {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let s = r.string()?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::custom("expected single-char string")),
        }
    }
}

impl Serialize for () {
    fn serialize(&self, w: &mut Writer) {
        w.null();
    }
}

impl Deserialize for () {
    /// Any value reads as `()`.
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.skip_value()
    }
}

// ---------------------------------------------------------------------------
// Pointers and wrappers
// ---------------------------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w);
    }

    fn __map_key(&self) -> Cow<'_, str> {
        (**self).__map_key()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w);
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        T::deserialize(r).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, w: &mut Writer) {
        match self {
            Some(v) => v.serialize(w),
            None => w.null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        if r.null() {
            Ok(None)
        } else {
            T::deserialize(r).map(Some)
        }
    }
}

// ---------------------------------------------------------------------------
// Sequences and tuples
// ---------------------------------------------------------------------------

fn write_seq<'a, T: Serialize + 'a>(w: &mut Writer, items: impl Iterator<Item = &'a T>) {
    w.begin_array();
    for item in items {
        w.element();
        item.serialize(w);
    }
    w.end_array();
}

fn read_seq<T: Deserialize>(r: &mut Reader<'_>, mut push: impl FnMut(T)) -> Result<(), Error> {
    r.begin_array()?;
    while r.next_element()? {
        push(T::deserialize(r)?);
    }
    Ok(())
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, w: &mut Writer) {
        write_seq(w, self.iter());
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, w: &mut Writer) {
        write_seq(w, self.iter());
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let mut items = Vec::with_capacity(N);
        read_seq(r, |item| items.push(item))?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| Error::custom(format!("expected array of length {N}, got {len}")))
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, w: &mut Writer) {
        write_seq(w, self.iter());
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let mut items = Vec::new();
        read_seq(r, |item| items.push(item))?;
        Ok(items)
    }
}

macro_rules! impl_serde_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize(&self, w: &mut Writer) {
                w.begin_array();
                $(
                    w.element();
                    self.$idx.serialize(w);
                )+
                w.end_array();
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                const LEN: usize = 0 $(+ { let _ = $idx; 1 })+;
                r.begin_array()?;
                let tuple = ($(__element::<$name>(r, LEN, "tuple")?,)+);
                __end_array(r, LEN, "tuple")?;
                Ok(tuple)
            }
        }
    )*};
}
impl_serde_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7)
}

// ---------------------------------------------------------------------------
// Maps and sets
// ---------------------------------------------------------------------------

/// Writes a map as an object with its keys sorted as strings.
fn write_map<'a, K, V, I>(w: &mut Writer, entries: I)
where
    K: Serialize + 'a,
    V: Serialize + 'a,
    I: Iterator<Item = (&'a K, &'a V)>,
{
    let mut sorted: Vec<(Cow<'a, str>, &'a V)> = entries.map(|(k, v)| (k.__map_key(), v)).collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    w.begin_object();
    for (key, value) in sorted {
        w.key(&key);
        value.serialize(w);
    }
    w.end_object();
}

/// Reads an object's entries into a map, later duplicates replacing
/// earlier ones.
fn read_map<K: Deserialize, V: Deserialize>(
    r: &mut Reader<'_>,
    mut insert: impl FnMut(K, V),
) -> Result<(), Error> {
    r.begin_object()?;
    while let Some(key) = r.next_key()? {
        let key = K::__from_key(&key)?;
        insert(key, V::deserialize(r)?);
    }
    Ok(())
}

impl<K: Serialize, V: Serialize, S: BuildHasher> Serialize for HashMap<K, V, S> {
    fn serialize(&self, w: &mut Writer) {
        write_map(w, self.iter());
    }
}

impl<K, V, S> Deserialize for HashMap<K, V, S>
where
    K: Deserialize + Eq + Hash,
    V: Deserialize,
    S: BuildHasher + Default,
{
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let mut map = HashMap::default();
        read_map(r, |k, v| {
            map.insert(k, v);
        })?;
        Ok(map)
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self, w: &mut Writer) {
        write_map(w, self.iter());
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let mut map = BTreeMap::new();
        read_map(r, |k, v| {
            map.insert(k, v);
        })?;
        Ok(map)
    }
}

/// Writes a set as an array in the canonical order of its elements'
/// JSON ([`Value::canonical_cmp`]), whatever their Rust order.
fn write_set<'a, T: Serialize + 'a>(w: &mut Writer, items: impl Iterator<Item = &'a T>) {
    w.begin_array();
    let mut rendered: Vec<(Value, String)> = items
        .map(|item| {
            let mut element = w.nested();
            item.serialize(&mut element);
            let text = element.into_string();
            let value = from_text(&text).expect("written JSON reads back");
            (value, text)
        })
        .collect();
    rendered.sort_by(|a, b| a.0.canonical_cmp(&b.0));
    for (_, text) in rendered {
        w.element();
        w.out.push_str(&text);
    }
    w.end_array();
}

impl<T: Serialize, S: BuildHasher> Serialize for HashSet<T, S> {
    fn serialize(&self, w: &mut Writer) {
        write_set(w, self.iter());
    }
}

impl<T, S> Deserialize for HashSet<T, S>
where
    T: Deserialize + Eq + Hash,
    S: BuildHasher + Default,
{
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let mut set = HashSet::default();
        read_seq(r, |item| {
            set.insert(item);
        })?;
        Ok(set)
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn serialize(&self, w: &mut Writer) {
        write_set(w, self.iter());
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let mut set = BTreeSet::new();
        read_seq(r, |item| {
            set.insert(item);
        })?;
        Ok(set)
    }
}

// ---------------------------------------------------------------------------
// Derive support
// ---------------------------------------------------------------------------

/// Reads the value of struct field `name`, naming the field in any
/// error.
#[doc(hidden)]
pub fn __field<T: Deserialize>(r: &mut Reader<'_>, name: &str) -> Result<T, Error> {
    T::deserialize(r).map_err(|e| Error::custom(format!("field `{name}`: {e}")))
}

/// The value of an absent struct field: what `null` reads as, which is
/// `None` for an `Option` field (serde's implicit `None`), and a
/// `missing field` error for most other types.
#[doc(hidden)]
pub fn __missing<T: Deserialize>(name: &str) -> Result<T, Error> {
    from_text("null").map_err(|_| Error::custom(format!("missing field `{name}`")))
}

/// Reads the next element of a fixed-length array of `len` elements.
#[doc(hidden)]
pub fn __element<T: Deserialize>(r: &mut Reader<'_>, len: usize, what: &str) -> Result<T, Error> {
    if r.next_element()? {
        T::deserialize(r)
    } else {
        Err(Error::custom(format!(
            "expected {len}-element array for {what}"
        )))
    }
}

/// Reads the closing `]` of a fixed-length array of `len` elements.
#[doc(hidden)]
pub fn __end_array(r: &mut Reader<'_>, len: usize, what: &str) -> Result<(), Error> {
    if r.next_element()? {
        Err(Error::custom(format!(
            "expected {len}-element array for {what}"
        )))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write<T: Serialize + ?Sized>(value: &T) -> String {
        let mut w = Writer::new(false);
        value.serialize(&mut w);
        w.into_string()
    }

    #[test]
    fn maps_serialize_sorted() {
        let mut m = HashMap::new();
        m.insert(10u64, "b".to_string());
        m.insert(2u64, "a".to_string());
        assert_eq!(write(&m), r#"{"10":"b","2":"a"}"#);
    }

    #[test]
    fn integer_map_keys_roundtrip() {
        let mut m = HashMap::new();
        m.insert(7u32, vec![1u64, 2]);
        let json = write(&m);
        let back: HashMap<u32, Vec<u64>> = from_text(&json).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn option_handles_missing_fields() {
        let mut r = Reader::new("3");
        let present: Option<u64> = __field(&mut r, "present").unwrap();
        let absent: Option<u64> = __missing("absent").unwrap();
        assert_eq!(present, Some(3));
        assert_eq!(absent, None);
        let err = __missing::<u64>("absent").unwrap_err();
        assert!(err.to_string().contains("missing field"));
    }

    #[test]
    fn sets_serialize_sorted() {
        let mut s = HashSet::new();
        s.insert(30u64);
        s.insert(4u64);
        s.insert(100u64);
        assert_eq!(write(&s), "[4,30,100]");
    }

    #[test]
    fn nesting_past_the_cap_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(from_text::<Value>(&deep).is_ok());
        let deeper = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        let err = from_text::<Value>(&deeper).unwrap_err();
        assert!(err.to_string().contains("nesting deeper"), "{err}");
        // Skipped values are capped too, and a frame of nothing but `[`
        // fails fast.
        let mut r = Reader::new(&deeper);
        assert!(r.skip_value().is_err());
        assert!(from_text::<Value>(&"[".repeat(20_000)).is_err());
    }

    #[test]
    fn a_high_surrogate_with_a_non_surrogate_after_it_is_an_error() {
        // Both halves of a pair must be surrogates.
        assert!(from_text::<String>(r#""\ud800\u0041""#).is_err());
        assert!(from_text::<String>(r#""\ud800A""#).is_err());
        assert_eq!(from_text::<String>(r#""😀""#).unwrap(), "😀");
    }
}
