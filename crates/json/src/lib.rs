//! # sagdfn-json
//!
//! A minimal JSON document model, recursive-descent parser and writer.
//! This workspace compiles with **no external crates** (it must build on
//! machines with no registry access), so the few places that need JSON —
//! parameter checkpoints, CLI model metadata — use this instead of
//! `serde`/`serde_json`.
//!
//! Design points:
//!
//! * Objects preserve insertion order (a `Vec` of pairs, not a map), so
//!   written documents are deterministic and diffable.
//! * Numbers are stored as `f64`. Every `u32`/`usize` the workspace
//!   serializes fits in 53 bits, and `f32` payloads round-trip exactly
//!   through Rust's shortest-representation float formatting.
//! * Non-finite floats are rejected at write time (JSON has no NaN/Inf);
//!   checkpoints of diverged models should fail loudly, not silently
//!   serialize `null`.

use std::fmt::Write as _;

/// A JSON document node.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

/// Parse or access error with a short human-readable description.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError(pub String);

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

impl Json {
    /// Builds an object from key/value pairs (helper for literal-style
    /// construction sites).
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Member lookup that errors with the key name when absent.
    pub fn req(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError(format!("missing field '{key}'")))
    }

    /// The number value, if this is a number.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Num(v) => Ok(*v),
            other => err(format!("expected number, got {}", other.kind())),
        }
    }

    /// The number as `f32`.
    pub fn as_f32(&self) -> Result<f32, JsonError> {
        Ok(self.as_f64()? as f32)
    }

    /// The number as a non-negative integer.
    pub fn as_usize(&self) -> Result<usize, JsonError> {
        let v = self.as_f64()?;
        if v < 0.0 || v.fract() != 0.0 || v >= u64::MAX as f64 {
            return err(format!("expected non-negative integer, got {v}"));
        }
        Ok(v as usize)
    }

    /// The number as `u64`.
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        Ok(self.as_usize()? as u64)
    }

    /// The number as `u32`.
    pub fn as_u32(&self) -> Result<u32, JsonError> {
        let v = self.as_usize()?;
        u32::try_from(v).map_err(|_| JsonError(format!("{v} out of u32 range")))
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => err(format!("expected string, got {}", other.kind())),
        }
    }

    /// The bool value, if this is a bool.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => err(format!("expected bool, got {}", other.kind())),
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => err(format!("expected array, got {}", other.kind())),
        }
    }

    /// Parses a JSON document. The whole input must be one value plus
    /// optional trailing whitespace.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Compact single-line serialization.
    pub fn to_compact(&self) -> Result<String, JsonError> {
        let mut out = String::new();
        self.write(&mut out, None, 0)?;
        Ok(out)
    }

    /// Pretty serialization with two-space indentation.
    pub fn to_string_pretty(&self) -> Result<String, JsonError> {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0)?;
        out.push('\n');
        Ok(out)
    }

    fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) -> Result<(), JsonError> {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(v) => {
                if !v.is_finite() {
                    return err(format!("cannot serialize non-finite number {v}"));
                }
                if *v == v.trunc() && v.abs() < 1e15 {
                    // Integral values print without a fraction, like serde_json.
                    // Keep the sign of -0.0 so float payloads round-trip bit
                    // exactly.
                    if v.is_sign_negative() && *v == 0.0 {
                        out.push_str("-0");
                    } else {
                        let _ = write!(out, "{}", *v as i64);
                    }
                } else {
                    let _ = write!(out, "{v}");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1)?;
                }
                if !items.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1)?;
                }
                if !pairs.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push('}');
            }
        }
        Ok(())
    }
}

impl From<f32> for Json {
    fn from(v: f32) -> Json {
        Json::Num(v as f64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Num(v as f64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
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

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
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
            err(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            ))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            None => err("unexpected end of input"),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => err(format!("unexpected byte '{}' at {}", b as char, self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
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
                _ => return err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy the run of plain bytes in one go.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| JsonError("invalid utf-8 in string".into()))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| JsonError("unterminated escape".into()))?;
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
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| JsonError("bad \\u escape".into()))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError("bad \\u escape".into()))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return err(format!("unknown escape '\\{}'", other as char));
                        }
                    }
                }
                _ => return err("unterminated string"),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError("invalid number".into()))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError(format!("invalid number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_document() {
        let doc = Json::obj([
            ("version", Json::from(1u32)),
            (
                "items",
                Json::Arr(vec![
                    Json::obj([("name", Json::from("a\"b\\c")), ("v", Json::from(0.5f32))]),
                    Json::Null,
                    Json::Bool(true),
                ]),
            ),
        ]);
        let text = doc.to_string_pretty().unwrap();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        let compact = doc.to_compact().unwrap();
        assert_eq!(Json::parse(&compact).unwrap(), doc);
    }

    #[test]
    fn f32_values_roundtrip_exactly() {
        for v in [
            0.1f32,
            -1.5e-30,
            3.4e38,
            1.0 / 3.0,
            f32::MIN_POSITIVE,
            -0.0,
            123456791.0,
        ] {
            let text = Json::from(v).to_compact().unwrap();
            let back = Json::parse(&text).unwrap().as_f32().unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "{v} -> {text} -> {back}");
        }
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::from(42usize).to_compact().unwrap(), "42");
        assert_eq!(Json::from(0u32).to_compact().unwrap(), "0");
    }

    #[test]
    fn rejects_non_finite() {
        assert!(Json::Num(f64::NAN).to_compact().is_err());
        assert!(Json::Num(f64::INFINITY).to_compact().is_err());
    }

    #[test]
    fn rejects_malformed() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1.2.3", "\"open", "{}x"] {
            assert!(Json::parse(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = Json::parse(r#""a\n\tA\"""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "a\n\tA\"");
    }

    #[test]
    fn typed_accessors_check_kinds() {
        let v = Json::parse(r#"{"n": 3, "s": "x", "b": false, "a": [1]}"#).unwrap();
        assert_eq!(v.req("n").unwrap().as_usize().unwrap(), 3);
        assert_eq!(v.req("s").unwrap().as_str().unwrap(), "x");
        assert!(!v.req("b").unwrap().as_bool().unwrap());
        assert_eq!(v.req("a").unwrap().as_arr().unwrap().len(), 1);
        assert!(v.req("missing").is_err());
        assert!(v.req("s").unwrap().as_usize().is_err());
        assert!(Json::parse("-2").unwrap().as_usize().is_err());
        assert!(Json::parse("1.5").unwrap().as_usize().is_err());
    }

    #[test]
    fn integers_at_or_past_two_to_the_64_are_rejected() {
        // `u64::MAX as f64` rounds up to 2^64, so the bound is exclusive.
        let largest = Json::parse("18446744073709549568").unwrap(); // 2^64 - 2048
        assert_eq!(largest.as_u64().unwrap(), 18_446_744_073_709_549_568);
        assert!(Json::parse("18446744073709551616").unwrap().as_u64().is_err()); // 2^64
        assert!(Json::parse("1e20").unwrap().as_usize().is_err());
    }
}
