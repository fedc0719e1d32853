//! A minimal JSON value model, parser, and emitter: the workspace's one
//! JSON codec.
//!
//! Both durable journals ([`crate::journal`]) and the online service's
//! wire protocol read and write through [`Json`]. The subset is exactly
//! what they need: objects, arrays, strings with `\"`/`\\`/`\n`/`\t`/`\u`
//! escapes, integers up to `u64`, floats, booleans, and null. Emission of
//! integers is exact (no float round-trip), which matters for `Time`
//! values past 2^53; floats render with Rust's shortest round-trip
//! `Display` (non-finite ones as `null`), so a parsed float is
//! bit-identical to the one written.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number that fits a `u64` exactly (the wire protocol's ids,
    /// counts, and times).
    UInt(u64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are sorted for deterministic emission.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// The value at `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// This value as a `u64`, accepting only exact integers.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// This value as an `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(n) => Some(*n as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// This value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// This value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders to compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => {
                out.push_str(&n.to_string());
            }
            Json::Float(f) => {
                if f.is_finite() {
                    out.push_str(&format!("{f}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
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

/// A parse failure, with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What was wrong.
    pub detail: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid json at byte {}: {}", self.at, self.detail)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON value; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(JsonError {
            at: pos,
            detail: "trailing characters".into(),
        });
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn err(at: usize, detail: impl Into<String>) -> JsonError {
    JsonError {
        at,
        detail: detail.into(),
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(err(*pos, format!("expected `{lit}`")))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(err(*pos, "expected `,` or `]`")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(err(*pos, "expected `:`"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos)?;
                map.insert(key, value);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(err(*pos, "expected `,` or `}`")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(err(*pos, "expected string"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "bad \\u escape"))?;
                        // Surrogate pairs are not needed by the protocol;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(&b) => {
                // Copy a whole UTF-8 sequence through.
                let s =
                    std::str::from_utf8(&bytes[*pos..]).map_err(|_| err(*pos, "invalid utf-8"))?;
                let c = s.chars().next().expect("nonempty");
                if b < 0x20 {
                    return Err(err(*pos, "unescaped control character"));
                }
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while bytes
        .get(*pos)
        .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii");
    if let Ok(n) = text.parse::<u64>() {
        return Ok(Json::UInt(n));
    }
    text.parse::<f64>()
        .map(Json::Float)
        .map_err(|_| err(start, "invalid number"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_protocol_subset() {
        let v = Json::obj([
            ("id", Json::UInt(42)),
            ("name", Json::Str("user \"a\"\n".into())),
            ("ok", Json::Bool(true)),
            ("ratio", Json::Float(0.5)),
            ("items", Json::Arr(vec![Json::UInt(1), Json::Null])),
        ]);
        let text = v.render();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn large_times_survive_exactly() {
        let t = u64::MAX - 1;
        let v = Json::obj([("t", Json::UInt(t))]);
        let back = parse(&v.render()).unwrap();
        assert_eq!(back.get("t").and_then(Json::as_u64), Some(t));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,", "\"abc", "{\"a\":}", "01x", "{\"a\":1} trailing"] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn parses_nested_documents() {
        let doc = r#"{"jobs":[{"id":1,"nodes":4},{"id":2,"nodes":8}],"policy":"easy.nomax"}"#;
        let v = parse(doc).unwrap();
        assert_eq!(
            v.get("jobs").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(v.get("policy").and_then(Json::as_str), Some("easy.nomax"));
    }
}
