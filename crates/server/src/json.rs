//! A minimal JSON reader for the wire protocol.
//!
//! The repo is zero-external-dependency by policy (see the vendored shims in
//! `crates/rand` etc.), so the server parses its newline-delimited requests
//! with this small recursive-descent reader. It accepts the full JSON value
//! grammar (objects, arrays, strings with escapes, numbers, literals); the
//! protocol layer then pattern-matches the [`JsonValue`] tree. Rendering of
//! *responses* is handled by the protocol module with plain `write!` calls —
//! the same approach `rsky-core::obs` uses for its JSONL sink.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers are exact up to 2^53).
    Num(f64),
    /// String (escapes resolved).
    Str(String),
    /// Array.
    Arr(Vec<JsonValue>),
    /// Object; key order is not preserved (keys are sorted).
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Member `key` of an object (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as `u64`, if this is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// An array of non-negative integers as `Vec<u32>`.
    pub fn as_u32_list(&self) -> Option<Vec<u32>> {
        self.as_arr()?
            .iter()
            .map(|v| v.as_u64().and_then(|n| u32::try_from(n).ok()))
            .collect()
    }
}

/// Parses one JSON value from `input`, requiring that nothing but whitespace
/// follows it.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

/// Escapes `s` for inclusion in a JSON string literal (shared by the
/// response renderers): the escaper of `rsky_core::obs`'s JSON writers.
pub use rsky_core::obs::json_escape as escape;

/// Recursion guard: a hostile request can nest arbitrarily deep; the
/// protocol never needs more than a handful of levels.
const MAX_DEPTH: usize = 16;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
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
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn lit(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.lit("true", JsonValue::Bool(true)),
            Some(b'f') => self.lit("false", JsonValue::Bool(false)),
            Some(b'n') => self.lit("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            // Surrogate pairs are not needed by the protocol;
                            // map unpaired surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so slicing
                    // at char boundaries is safe via the chars iterator).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf-8")?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "bad number")?;
        text.parse::<f64>().map(JsonValue::Num).map_err(|_| format!("bad number {text:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_protocol_shapes() {
        let v = parse(r#"{"op":"query","engine":"trs","values":[3,17,25],"deadline_ms":250}"#)
            .unwrap();
        assert_eq!(v.get("op").and_then(JsonValue::as_str), Some("query"));
        assert_eq!(v.get("values").and_then(JsonValue::as_u32_list), Some(vec![3, 17, 25]));
        assert_eq!(v.get("deadline_ms").and_then(JsonValue::as_u64), Some(250));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parses_strings_with_escapes_and_unicode() {
        let v = parse(r#"{"s":"a\"b\\c\nd\u0041é"}"#).unwrap();
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("a\"b\\c\ndAé"));
    }

    #[test]
    fn parses_numbers_bools_null_nested() {
        let v = parse(r#"[1, -2.5, 1e3, true, false, null, {"k":[[]]}]"#).unwrap();
        let a = v.as_arr().unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1], JsonValue::Num(-2.5));
        assert_eq!(a[2].as_u64(), Some(1000));
        assert_eq!(a[3], JsonValue::Bool(true));
        assert_eq!(a[5], JsonValue::Null);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", r#"{"a"}"#, "{} extra", "tru", "[01x]", "\"\\q\""] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
        // Nesting bomb stops at the depth guard instead of overflowing.
        let bomb = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&bomb).is_err());
    }

    #[test]
    fn u32_list_rejects_non_integers() {
        assert_eq!(parse("[1,2.5]").unwrap().as_u32_list(), None);
        assert_eq!(parse("[1,-2]").unwrap().as_u32_list(), None);
        assert_eq!(parse("[1,4294967296]").unwrap().as_u32_list(), None);
    }

    #[test]
    fn every_truncation_of_a_request_fails_cleanly() {
        // Fuzz-style: a partially received wire line (connection dropped
        // mid-request) must produce an error — never a panic and never a
        // silently misparsed value.
        let req = r#"{"op":"query","engine":"trs","values":[3,17,25],"deadline_ms":250,"subset":[0,2],"label":"a\"bé"}"#;
        for cut in (1..req.len()).filter(|&c| req.is_char_boundary(c)) {
            let prefix = &req[..cut];
            assert!(parse(prefix).is_err(), "prefix {prefix:?} parsed");
        }
        assert!(parse(req).is_ok());
    }

    #[test]
    fn depth_cap_boundary_is_exact() {
        // The guard rejects at depth > MAX_DEPTH: with N nested arrays the
        // deepest `value` call runs at depth N-1, so N = MAX_DEPTH + 1
        // still parses and N = MAX_DEPTH + 2 is the first rejection.
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&nest(MAX_DEPTH + 1)).is_ok(), "depth {MAX_DEPTH} must be allowed");
        assert!(parse(&nest(MAX_DEPTH + 2)).is_err(), "depth {} must be rejected", MAX_DEPTH + 1);
        // Objects hit the same cap; the innermost scalar sits one level
        // deeper than an empty array does, shifting the boundary by one.
        let objs = |n: usize| "{\"k\":".repeat(n) + "0" + &"}".repeat(n);
        assert!(parse(&objs(MAX_DEPTH)).is_ok());
        assert!(parse(&objs(MAX_DEPTH + 1)).is_err());
        let mixed = "[{\"k\":".repeat(9) + "0" + &"}]".repeat(9);
        assert!(parse(&mixed).is_err(), "18 mixed levels exceed the cap");
    }

    #[test]
    fn invalid_unicode_escapes_fail_cleanly() {
        for bad in [
            r#""\u""#,      // escape with no digits
            r#""\u00""#,    // truncated digits
            r#""\u00G0""#,  // non-hex digit
            r#""\uD8""#,    // truncated then EOF
            r#""abc\u"#,    // string ends inside the escape
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
        // Unpaired surrogates are mapped to U+FFFD rather than rejected (the
        // protocol never emits them, but a hostile client may).
        let v = parse(r#""\ud800""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{fffd}"));
        // Boundary scalars arrive via escapes and round-trip.
        let v = parse("\"\\u0000\\uffff\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{0}\u{ffff}"));
    }

    #[test]
    fn pathological_megabyte_inputs_are_rejected_not_crashed() {
        const MIB: usize = 1 << 20;
        // 1 MiB of unclosed opens: the depth guard must cut recursion off
        // long before the stack does.
        assert!(parse(&"[".repeat(MIB)).is_err());
        assert!(parse(&"{\"k\":".repeat(MIB / 5)).is_err());
        // 1 MiB of balanced nesting, still deeper than the cap.
        let n = MIB / 2;
        let bomb = "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&bomb).is_err());
        // A 1 MiB *flat* value is legitimate and must parse.
        let mut wide = String::with_capacity(MIB + 16);
        wide.push('[');
        while wide.len() < MIB {
            wide.push_str("1234567,");
        }
        wide.push('0');
        wide.push(']');
        let v = parse(&wide).unwrap();
        assert!(v.as_arr().unwrap().len() > 100_000);
        // 1 MiB of garbage bytes after a valid value is trailing data.
        let garbage = format!("null {}", "x".repeat(MIB));
        assert!(parse(&garbage).is_err());
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let mut s = String::from("{\"k\":\"");
        escape("a\"b\\c\nd\u{1}", &mut s);
        s.push_str("\"}");
        let v = parse(&s).unwrap();
        assert_eq!(v.get("k").and_then(JsonValue::as_str), Some("a\"b\\c\nd\u{1}"));
    }
}
