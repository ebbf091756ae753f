//! Minimal dependency-free JSON: a value tree, a recursive-descent
//! parser, and the canonical-encoding helpers — the workspace's one
//! JSON codec. The serializable job API (`openserdes_core::job`, which
//! re-exports this module as `openserdes_core::json`), the
//! `openserdes-serve` wire protocol, fault schedules, lint reports and
//! the telemetry exporters all read and write JSON through it.
//!
//! The encoding contract is *canonical*: object fields are written in a
//! fixed, code-defined order with no whitespace, `f64` uses `{:?}`
//! (Rust's shortest exact round-trip formatting) and `u64` is written
//! in full — so encoding the same value twice yields byte-identical
//! text, and `encode(decode(encode(x))) == encode(x)` byte-for-byte.
//! That property is what makes content-addressed caching exact:
//! everything downstream of a request is deterministic, so identical
//! canonical bytes imply identical results.
//!
//! Numbers keep their raw text when parsed (a detour through `f64`
//! would truncate `u64` seeds above 2^53). Non-finite floats have no
//! JSON spelling; [`push_f64`] writes them as the quoted strings
//! `"inf"`, `"-inf"` and `"nan"`, and [`Json::as_f64`] accepts those
//! spellings back.
//!
//! The parser refuses documents nested deeper than [`MAX_DEPTH`]
//! arrays/objects, so a hostile frame of a million `[` gets a typed
//! error instead of overflowing the parsing thread's stack.

use std::fmt::Write as _;

/// Deepest array/object nesting [`parse`] accepts. Every document the
/// workspace writes nests fewer than ten levels; the cap exists so the
/// recursive descent stays far inside any thread's stack.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw text (exactness above 2^53).
    Num(String),
    /// A string literal, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The object's fields, or an error naming `what`.
    ///
    /// # Errors
    ///
    /// When the value is not an object.
    pub fn as_obj(&self, what: &str) -> Result<&[(String, Json)], String> {
        match self {
            Json::Obj(fields) => Ok(fields),
            _ => Err(format!("{what}: expected object")),
        }
    }

    /// The array's items, or an error naming `what`.
    ///
    /// # Errors
    ///
    /// When the value is not an array.
    pub fn as_arr(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Arr(items) => Ok(items),
            _ => Err(format!("{what}: expected array")),
        }
    }

    /// The string payload, or an error naming `what`.
    ///
    /// # Errors
    ///
    /// When the value is not a string.
    pub fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err(format!("{what}: expected string")),
        }
    }

    /// The boolean payload, or an error naming `what`.
    ///
    /// # Errors
    ///
    /// When the value is not a boolean.
    pub fn as_bool(&self, what: &str) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            _ => Err(format!("{what}: expected bool")),
        }
    }

    /// The number as a `u64`, or an error naming `what`.
    ///
    /// # Errors
    ///
    /// When the value is not a number or does not fit a `u64`.
    pub fn as_u64(&self, what: &str) -> Result<u64, String> {
        match self {
            Json::Num(raw) => raw
                .parse()
                .map_err(|_| format!("{what}: `{raw}` is not a u64")),
            _ => Err(format!("{what}: expected number")),
        }
    }

    /// The number as a `usize`, or an error naming `what`.
    ///
    /// # Errors
    ///
    /// When the value is not a number or does not fit a `usize`.
    pub fn as_usize(&self, what: &str) -> Result<usize, String> {
        match self {
            Json::Num(raw) => raw
                .parse()
                .map_err(|_| format!("{what}: `{raw}` is not a usize")),
            _ => Err(format!("{what}: expected number")),
        }
    }

    /// The number as a `u32`, or an error naming `what`.
    ///
    /// # Errors
    ///
    /// When the value is not a number or does not fit a `u32`.
    pub fn as_u32(&self, what: &str) -> Result<u32, String> {
        match self {
            Json::Num(raw) => raw
                .parse()
                .map_err(|_| format!("{what}: `{raw}` is not a u32")),
            _ => Err(format!("{what}: expected number")),
        }
    }

    /// The number as an `i32`, or an error naming `what`.
    ///
    /// # Errors
    ///
    /// When the value is not a number or does not fit an `i32`.
    pub fn as_i32(&self, what: &str) -> Result<i32, String> {
        match self {
            Json::Num(raw) => raw
                .parse()
                .map_err(|_| format!("{what}: `{raw}` is not an i32")),
            _ => Err(format!("{what}: expected number")),
        }
    }

    /// The number as an `f64`. Also accepts the canonical non-finite
    /// spellings `"inf"`, `"-inf"` and `"nan"` (see [`push_f64`]).
    ///
    /// # Errors
    ///
    /// When the value is neither a number nor a non-finite spelling.
    pub fn as_f64(&self, what: &str) -> Result<f64, String> {
        match self {
            Json::Num(raw) => raw
                .parse()
                .map_err(|_| format!("{what}: `{raw}` is not a number")),
            Json::Str(s) => match s.as_str() {
                "inf" => Ok(f64::INFINITY),
                "-inf" => Ok(f64::NEG_INFINITY),
                "nan" => Ok(f64::NAN),
                _ => Err(format!("{what}: expected number")),
            },
            _ => Err(format!("{what}: expected number")),
        }
    }
}

/// Looks up `key` in an object's field list.
///
/// # Errors
///
/// When the field is absent.
pub fn get<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a Json, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field `{key}`"))
}

/// Parses one JSON document (with nothing but whitespace after it).
///
/// # Errors
///
/// A human-readable message with the byte offset of the first problem.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

/// Appends a JSON string literal (quotes + escapes) for `s`.
pub fn push_quoted(out: &mut String, s: &str) {
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
}

/// Appends the canonical encoding of an `f64`: `{:?}` (shortest exact
/// round-trip) for finite values, the quoted strings `"inf"` / `"-inf"`
/// / `"nan"` otherwise. [`Json::as_f64`] reverses both forms; finite
/// values survive bit-exactly.
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else if v.is_nan() {
        out.push_str("\"nan\"");
    } else if v > 0.0 {
        out.push_str("\"inf\"");
    } else {
        out.push_str("\"-inf\"");
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
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

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::parse_obj),
            Some(b'[') => self.nested(Self::parse_arr),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') if self.eat_keyword("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat_keyword("null") => Ok(Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Runs one array/object parser one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_obj(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn parse_arr(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("bad \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte sequences are
                    // copied verbatim — input came from a &str).
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|&b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8"))?,
                    );
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if raw.parse::<f64>().is_err() {
            return Err(self.err(&format!("`{raw}` is not a number")));
        }
        Ok(Json::Num(raw.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a": [1, 2.5, "x\n", true, null], "b": {"c": -3}}"#).expect("parses");
        let obj = v.as_obj("doc").expect("object");
        let arr = get(obj, "a").expect("a").as_arr("a").expect("array");
        assert_eq!(arr.len(), 5);
        assert_eq!(arr[0].as_u64("n").expect("u64"), 1);
        assert!((arr[1].as_f64("f").expect("f64") - 2.5).abs() < 1e-12);
        assert_eq!(arr[2].as_str("s").expect("str"), "x\n");
        assert!(arr[3].as_bool("b").expect("bool"));
        assert_eq!(arr[4], Json::Null);
        let b = get(obj, "b").expect("b").as_obj("b").expect("object");
        assert_eq!(get(b, "c").expect("c").as_i32("c").expect("i32"), -3);
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "12 tail", "\"unterminated"] {
            assert!(parse(bad).is_err(), "must reject {bad:?}");
        }
    }

    #[test]
    fn f64_canonical_round_trip_is_bit_exact() {
        for v in [
            0.0,
            -0.0,
            1.5,
            0.1 + 0.2,
            f64::MIN_POSITIVE,
            f64::MAX,
            -271.828_182_845,
        ] {
            let mut s = String::new();
            push_f64(&mut s, v);
            let back = parse(&s).expect("parses").as_f64("v").expect("f64");
            assert_eq!(back.to_bits(), v.to_bits(), "value {v}");
        }
    }

    #[test]
    fn non_finite_floats_round_trip_via_strings() {
        for (v, text) in [(f64::INFINITY, "\"inf\""), (f64::NEG_INFINITY, "\"-inf\"")] {
            let mut s = String::new();
            push_f64(&mut s, v);
            assert_eq!(s, text);
            let back = parse(&s).expect("parses").as_f64("v").expect("f64");
            assert_eq!(back.to_bits(), v.to_bits());
        }
        let mut s = String::new();
        push_f64(&mut s, f64::NAN);
        assert_eq!(s, "\"nan\"");
        assert!(parse(&s)
            .expect("parses")
            .as_f64("v")
            .expect("f64")
            .is_nan());
    }

    #[test]
    fn u64_seeds_survive_exactly() {
        let text = format!("{}", u64::MAX);
        assert_eq!(
            parse(&text).expect("parses").as_u64("seed").expect("u64"),
            u64::MAX
        );
    }

    #[test]
    fn quoting_escapes_and_parses_back() {
        let nasty = "weird \"s\"\\π\n\t\u{0001}";
        let mut s = String::new();
        push_quoted(&mut s, nasty);
        assert_eq!(parse(&s).expect("parses").as_str("s").expect("str"), nasty);
        for (raw, quoted) in [
            ("a\"b\\c\n", r#""a\"b\\c\n""#),
            ("a\"b\\c\nd", r#""a\"b\\c\nd""#),
            ("\u{1}", r#""\u0001""#),
            ("\r\t\u{1f}π", r#""\r\t\u001fπ""#),
        ] {
            let mut s = String::new();
            push_quoted(&mut s, raw);
            assert_eq!(s, quoted, "exact bytes for {raw:?}");
            assert_eq!(parse(&s).expect("parses").as_str("s").expect("str"), raw);
        }
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_cap).is_ok(), "{MAX_DEPTH} levels still parse");
        let objects = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(
            parse(&objects).is_ok(),
            "{MAX_DEPTH} object levels still parse"
        );

        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = parse(&over).expect_err("one level too deep");
        assert!(err.contains("nesting deeper than 128"), "{err}");
        assert!(err.ends_with(&format!("at byte {MAX_DEPTH}")), "{err}");

        // A megabyte of `[` (well under the serve frame cap) returns an
        // error on a 2 MiB thread stack instead of overflowing it.
        let deep = "[".repeat(1 << 20);
        let err = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || parse(&deep))
            .expect("spawn")
            .join()
            .expect("no stack overflow")
            .expect_err("refused");
        assert!(err.contains("at byte 128"), "{err}");
    }
}
