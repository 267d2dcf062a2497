//! Minimal JSON emission and flat-object reading (no external dependencies).
//!
//! The report types only need objects, arrays, strings, and numbers; this module
//! provides exactly that, with correct string escaping and `null` for non-finite
//! floats. Reading is limited to the flat objects the JSONL streams write: one
//! pass over the bytes.

use std::borrow::Cow;
use std::fmt::Write as _;

/// Escapes `s` into a JSON string literal (including the surrounding quotes).
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
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
    out
}

/// Formats a float as a JSON number (`null` for NaN/infinity, which JSON cannot
/// represent).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Formats an unsigned integer as an exact JSON number. Use this for 64-bit counters
/// and seeds — routing them through [`number`] (an `f64`) silently rounds values at
/// or above 2^53.
pub fn uint(v: u64) -> String {
    v.to_string()
}

/// Joins already-serialized values into a JSON array.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item);
    }
    out.push(']');
    out
}

/// Joins `(key, serialized value)` pairs into a JSON object.
pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let mut out = String::from("{");
    for (i, (key, value)) in fields.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&string(key));
        out.push(':');
        out.push_str(&value);
    }
    out.push('}');
    out
}

/// A scalar value parsed back out of a flat JSON object.
#[derive(Clone, Debug, PartialEq)]
pub enum Scalar {
    /// A JSON string (unescaped).
    Str(String),
    /// A JSON number, kept as its raw token so integer consumers can parse it
    /// losslessly (`f64` would round above 2^53).
    Num(String),
    /// `true` or `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl Scalar {
    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Scalar::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value parsed as an unsigned integer, if it is a number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Scalar::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value parsed as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Scalar::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }
}

/// A scalar value of a flat JSON object, borrowed from the input where it can
/// be: what [`visit_flat_object`] hands its caller for each field.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Value<'a> {
    /// A JSON string: borrowed when it holds no escape, decoded when it does.
    Str(Cow<'a, str>),
    /// A JSON number: its raw token, and its value when the token is an
    /// integer that fits a `u64` (read while the token is scanned).
    Num {
        /// The token as it appears in the input.
        raw: &'a str,
        /// The token's value when it is all digits and at most `u64::MAX`.
        uint: Option<u64>,
    },
    /// `true` or `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl Value<'_> {
    /// The value as a string, if it is one.
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is an integer token that fits.
    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num { uint, .. } => *uint,
            _ => None,
        }
    }
}

impl From<Value<'_>> for Scalar {
    fn from(value: Value<'_>) -> Scalar {
        match value {
            Value::Str(s) => Scalar::Str(s.into_owned()),
            Value::Num { raw, .. } => Scalar::Num(raw.to_string()),
            Value::Bool(b) => Scalar::Bool(b),
            Value::Null => Scalar::Null,
        }
    }
}

/// Parses a *flat* JSON object — string/number/bool/null values only, no nesting —
/// into `(key, value)` pairs, preserving order and every duplicate. This is exactly
/// the shape the JSONL results stream emits, so the resume path can read its own
/// output back without an external JSON dependency. Returns `None` on any malformed
/// input (including nested containers). An owning wrapper over the one-pass
/// byte visitor the cell-line reader uses.
pub fn parse_flat_object(s: &str) -> Option<Vec<(String, Scalar)>> {
    let mut out = Vec::new();
    visit_flat_object(s, |key, value| out.push((key.into_owned(), value.into())))?;
    Some(out)
}

/// Reads a flat JSON object in one pass over its bytes, handing each field to
/// `field` in input order, duplicates included. Keys and strings without
/// escapes are borrowed from `s`. Returns `None` when the object is malformed
/// anywhere, also after some fields were handed out, so a caller must discard
/// what it gathered on `None`.
///
/// The grammar is [`parse_flat_object`]'s: surrounding whitespace is trimmed,
/// ASCII whitespace separates tokens, strings may hold raw control characters,
/// and a number is a run of `[0-9+\-.eE]` that starts with `-` or a digit and
/// parses as an `f64`.
pub(crate) fn visit_flat_object<'a>(
    s: &'a str,
    field: impl FnMut(Cow<'a, str>, Value<'a>),
) -> Option<()> {
    let mut cursor = Cursor {
        s: s.trim(),
        pos: 0,
    };
    cursor.object(field)
}

/// A position in the (trimmed) text of a flat object. `pos` is always on a
/// character boundary: it only ever stops next to an ASCII byte or at the end.
struct Cursor<'a> {
    s: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.pos).copied()
    }

    /// Consumes `byte` if it is next.
    fn eat(&mut self, byte: u8) -> bool {
        let next = self.peek() == Some(byte);
        self.pos += usize::from(next);
        next
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    /// Consumes the longest run of bytes satisfying `keep`.
    fn take_while(&mut self, mut keep: impl FnMut(u8) -> bool) -> &'a str {
        let start = self.pos;
        while self.peek().is_some_and(&mut keep) {
            self.pos += 1;
        }
        &self.s[start..self.pos]
    }

    fn object(&mut self, mut field: impl FnMut(Cow<'a, str>, Value<'a>)) -> Option<()> {
        if !self.eat(b'{') {
            return None;
        }
        self.skip_ws();
        if !self.eat(b'}') {
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                if !self.eat(b':') {
                    return None;
                }
                self.skip_ws();
                field(key, self.value()?);
                self.skip_ws();
                if self.eat(b'}') {
                    break;
                }
                if !self.eat(b',') {
                    return None;
                }
            }
        }
        self.skip_ws();
        (self.pos == self.s.len()).then_some(())
    }

    fn value(&mut self) -> Option<Value<'a>> {
        match self.peek()? {
            b'"' => Some(Value::Str(self.string()?)),
            b't' | b'f' | b'n' => match self.take_while(|b| b.is_ascii_alphabetic()) {
                "true" => Some(Value::Bool(true)),
                "false" => Some(Value::Bool(false)),
                "null" => Some(Value::Null),
                _ => None,
            },
            b'-' | b'0'..=b'9' => {
                let mut uint = Some(0u64);
                let raw = self.take_while(|b| match b {
                    b'0'..=b'9' => {
                        uint = uint
                            .and_then(|v| v.checked_mul(10))
                            .and_then(|v| v.checked_add(u64::from(b - b'0')));
                        true
                    }
                    b'-' | b'+' | b'.' | b'e' | b'E' => {
                        uint = None;
                        true
                    }
                    _ => false,
                });
                // A run of digits is always a valid number; anything else must
                // parse as an `f64`, as the reference grammar requires.
                if uint.is_none() {
                    raw.parse::<f64>().ok()?;
                }
                Some(Value::Num { raw, uint })
            }
            _ => None, // nested containers and anything else are rejected
        }
    }

    /// A string literal: borrowed up to its closing quote when no backslash
    /// comes first, else decoded from its opening quote by [`decode_string`].
    fn string(&mut self) -> Option<Cow<'a, str>> {
        let open = self.pos;
        if !self.eat(b'"') {
            return None;
        }
        let body = &self.s.as_bytes()[self.pos..];
        let stop = body.iter().position(|&b| b == b'"' || b == b'\\')?;
        if body[stop] == b'"' {
            let text = &self.s[self.pos..self.pos + stop];
            self.pos += stop + 1;
            return Some(Cow::Borrowed(text));
        }
        let mut chars = self.s[open..].chars();
        let decoded = decode_string(&mut chars)?;
        self.pos = self.s.len() - chars.as_str().len();
        Some(Cow::Owned(decoded))
    }
}

/// Decodes a string literal, opening quote first, consuming it through its
/// closing quote.
fn decode_string(chars: &mut impl Iterator<Item = char>) -> Option<String> {
    if chars.next()? != '"' {
        return None;
    }
    let mut out = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                '/' => out.push('/'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = (0..4).map_while(|_| chars.next()).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
}

/// The character-wise flat-object parser the byte visitor replaced, kept as
/// the reference the tests compare [`parse_flat_object`] against.
#[cfg(test)]
pub(crate) mod reference {
    use super::{decode_string, Scalar};
    use std::iter::Peekable;
    use std::str::Chars;

    pub(crate) fn parse_flat_object(s: &str) -> Option<Vec<(String, Scalar)>> {
        let mut chars = s.trim().chars().peekable();
        if chars.next()? != '{' {
            return None;
        }
        let mut out = Vec::new();
        skip_ws(&mut chars);
        if chars.peek() == Some(&'}') {
            chars.next();
            return trailing_ok(&mut chars).then_some(out);
        }
        loop {
            skip_ws(&mut chars);
            let key = decode_string(&mut chars)?;
            skip_ws(&mut chars);
            if chars.next()? != ':' {
                return None;
            }
            skip_ws(&mut chars);
            let value = match chars.peek()? {
                '"' => Scalar::Str(decode_string(&mut chars)?),
                't' | 'f' | 'n' => {
                    let word: String =
                        std::iter::from_fn(|| chars.next_if(|c| c.is_ascii_alphabetic())).collect();
                    match word.as_str() {
                        "true" => Scalar::Bool(true),
                        "false" => Scalar::Bool(false),
                        "null" => Scalar::Null,
                        _ => return None,
                    }
                }
                '-' | '0'..='9' => {
                    let raw: String = std::iter::from_fn(|| {
                        chars.next_if(|c| {
                            c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')
                        })
                    })
                    .collect();
                    raw.parse::<f64>().ok()?;
                    Scalar::Num(raw)
                }
                _ => return None,
            };
            out.push((key, value));
            skip_ws(&mut chars);
            match chars.next()? {
                ',' => continue,
                '}' => break,
                _ => return None,
            }
        }
        trailing_ok(&mut chars).then_some(out)
    }

    fn skip_ws(chars: &mut Peekable<Chars<'_>>) {
        while chars.next_if(|c| c.is_ascii_whitespace()).is_some() {}
    }

    fn trailing_ok(chars: &mut Peekable<Chars<'_>>) -> bool {
        skip_ws(chars);
        chars.next().is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("plain"), "\"plain\"");
        assert_eq!(string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn numbers_handle_non_finite() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn uints_are_exact_beyond_f64_precision() {
        let v = (1u64 << 53) + 1;
        assert_eq!(uint(v), "9007199254740993");
        assert_ne!(uint(v), number(v as f64));
        assert_eq!(uint(u64::MAX), "18446744073709551615");
    }

    #[test]
    fn containers_compose() {
        let obj = object([
            ("name", string("x")),
            ("values", array([number(1.0), number(2.0)])),
        ]);
        assert_eq!(obj, "{\"name\":\"x\",\"values\":[1,2]}");
    }

    #[test]
    fn flat_parser_round_trips_emitted_objects() {
        let line = object([
            ("workload", string("perl.d \"x\"\n")),
            ("seed", uint((1u64 << 53) + 1)),
            ("ipc", number(1.75)),
            ("ok", "true".to_string()),
            ("err", "null".to_string()),
        ]);
        let fields = parse_flat_object(&line).expect("parses");
        assert_eq!(fields[0].0, "workload");
        assert_eq!(fields[0].1.as_str(), Some("perl.d \"x\"\n"));
        assert_eq!(fields[1].1.as_u64(), Some((1u64 << 53) + 1));
        assert_eq!(fields[2].1.as_f64(), Some(1.75));
        assert_eq!(fields[3].1, Scalar::Bool(true));
        assert_eq!(fields[4].1, Scalar::Null);
    }

    #[test]
    fn flat_parser_rejects_malformed_and_nested_input() {
        assert_eq!(parse_flat_object("{}"), Some(vec![]));
        assert!(parse_flat_object("").is_none());
        assert!(parse_flat_object("{\"a\":1").is_none(), "unterminated");
        assert!(parse_flat_object("{\"a\":[1]}").is_none(), "nested array");
        assert!(
            parse_flat_object("{\"a\":{\"b\":1}}").is_none(),
            "nested object"
        );
        assert!(parse_flat_object("{\"a\":1}{").is_none(), "trailing junk");
        assert!(parse_flat_object("{\"a\":bogus}").is_none());
        assert_eq!(
            parse_flat_object("  {\"a\" : -1.5e3 , \"b\" : \"\" }  ")
                .unwrap()
                .len(),
            2
        );
    }

    /// Grammar edges a cell line does not reach: the byte visitor accepts and
    /// rejects each as the reference does, with the same pairs and the same
    /// integers.
    #[test]
    fn the_byte_visitor_reads_grammar_edges_as_the_reference_does() {
        let cases = [
            "{}",
            " {} ",
            "{ }",
            "\u{a0}{}\u{2003}",
            "{}\u{b}",
            "\u{b}{}",
            "{,}",
            "{\"a\":1,}",
            "{,\"a\":1}",
            "{\"a\":1,,\"b\":2}",
            "{\"a\" 1}",
            "{\"a\":}",
            "{\"a\"}",
            "{:1}",
            "{\"\":1}",
            "{\"a\":1 \"b\":2}",
            "{\"a\":\"x\"\"y\"}",
            "{\"a\":1}}",
            "{\"a\":1}x",
            "{{}}",
            "[]",
            "",
            "{",
            "{\"a",
            "{\"a\":\"",
            "{\"a\":\"\\",
            "{\"a\":\"\\u",
            "{\"a\":\"\\u12\"}",
            "{\"a\":\"\\u0041\"}",
            "{\"a\":\"\\u+041\"}",
            "{\"a\":\"\\ud800\"}",
            "{\"a\":\"\\q\"}",
            "{\"a\\n\":1}",
            "{\"a\\u0022\":\"b\\\"c\"}",
            "{\"a\":\"\\/\"}",
            "{\"a\":1.}",
            "{\"a\":.5}",
            "{\"a\":-}",
            "{\"a\":--1}",
            "{\"a\":-.5}",
            "{\"a\":1e}",
            "{\"a\":1e+}",
            "{\"a\":1e+5}",
            "{\"a\":1E-5}",
            "{\"a\":01}",
            "{\"a\":-0}",
            "{\"a\":1-2}",
            "{\"a\":1.2.3}",
            "{\"a\":1e309}",
            "{\"a\":18446744073709551615}",
            "{\"a\":18446744073709551616}",
            "{\"a\":99999999999999999999}",
            "{\"a\":184467440737095516150}",
            "{\"a\":+1}",
            "{\"a\":NaN}",
            "{\"a\":Infinity}",
            "{\"a\":-Infinity}",
            "{\"a\":-inf}",
            "{\"a\":true}",
            "{\"a\":truex}",
            "{\"a\":true1}",
            "{\"a\":tru}",
            "{\"a\":nulll}",
            "{\"a\":falsé}",
            "{\"a\":null,\"a\":2}",
            "{\"a\":[1]}",
            "{\"a\":{\"b\":1}}",
            "{\"a\":\"tab\there\"}",
            "{\"a\":\"\u{0}\"}",
            "{\"é\":\"😀\"}",
            "{\"a\"\u{b}:1}",
            "{\"a\":\u{c}1}",
            "{\r\n\"a\"\t:\n1\r}",
        ];
        for case in cases {
            let expected = reference::parse_flat_object(case);
            assert_eq!(parse_flat_object(case), expected, "{case:?}");
            let mut uints = Vec::new();
            let _ = visit_flat_object(case, |_, value| uints.push(value.as_u64()));
            if let Some(pairs) = expected {
                let expected: Vec<_> = pairs.iter().map(|(_, v)| v.as_u64()).collect();
                assert_eq!(uints, expected, "{case:?}");
            }
        }
    }
}
