//! Minimal dependency-free JSON encoding and decoding for result
//! streaming and the server protocol.
//!
//! The engine emits one JSON object per line (JSONL): a `job` record per
//! finished job and a trailing `batch` summary record. The server
//! ([`crate::server`]) additionally *parses* JSON request frames through
//! [`JsonValue::parse`], a small recursive-descent parser — the on-disk
//! artifact tier uses its own framed text format and is unaffected.

use weaver_obs::json_escape;

/// Renders an `f64` as a JSON number (`null` for non-finite values).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// An ordered JSON object builder.
#[derive(Default)]
pub struct JsonObject {
    fields: Vec<String>,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        JsonObject::default()
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.fields.push(format!(
            "\"{}\":\"{}\"",
            json_escape(key),
            json_escape(value)
        ));
        self
    }

    /// Adds a float field.
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        self.fields
            .push(format!("\"{}\":{}", json_escape(key), number(value)));
        self
    }

    /// Adds an integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        self.fields
            .push(format!("\"{}\":{value}", json_escape(key)));
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.fields
            .push(format!("\"{}\":{value}", json_escape(key)));
        self
    }

    /// Adds a pre-rendered JSON value (object, array, `null`, …).
    pub fn raw(mut self, key: &str, json: &str) -> Self {
        self.fields.push(format!("\"{}\":{json}", json_escape(key)));
        self
    }

    /// Adds an array of strings.
    pub fn str_array(self, key: &str, values: &[String]) -> Self {
        let items: Vec<String> = values
            .iter()
            .map(|v| format!("\"{}\"", json_escape(v)))
            .collect();
        let array = format!("[{}]", items.join(","));
        self.raw(key, &array)
    }

    /// Renders the object.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.fields.join(","))
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A parsed JSON value.
///
/// Objects preserve field order (and keep duplicate keys; [`JsonValue::get`]
/// returns the first). Numbers are `f64`, like JavaScript — the protocol
/// never carries integers that lose precision at 2^53.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses one complete JSON value; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Looks up a field of an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        (n >= 0.0 && n <= u64::MAX as f64 && n.fract() == 0.0).then_some(n as u64)
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Convenience: string field of an object.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.get(key)?.as_str()
    }
}

/// Nesting depth bound: protocol frames are flat, so anything deeper is
/// hostile input rather than a real request.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        match self.bytes.get(self.pos) {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected `{}` at byte {}",
                *other as char, self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value(depth + 1)?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            out.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(&b) if b < 0x20 => {
                    return Err(format!("raw control byte in string at {}", self.pos))
                }
                Some(_) => {
                    // Copy a whole UTF-8 scalar (input is &str, so valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|b| b & 0b1100_0000 == 0b1000_0000)
                    {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| "invalid utf-8".to_string())?,
                    );
                }
            }
        }
    }

    /// Parses the 4 hex digits after `\u` (cursor already past the `u`),
    /// combining surrogate pairs. Leaves the cursor after the last digit
    /// consumed.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let first = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&first) {
            // High surrogate: require `\uXXXX` low surrogate.
            if self.bytes.get(self.pos) == Some(&b'\\')
                && self.bytes.get(self.pos + 1) == Some(&b'u')
            {
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xDC00..0xE000).contains(&low) {
                    return Err("unpaired surrogate".to_string());
                }
                0x10000 + ((first - 0xD800) << 10) + (low - 0xDC00)
            } else {
                return Err("unpaired surrogate".to_string());
            }
        } else {
            first
        };
        char::from_u32(code).ok_or_else(|| "invalid unicode escape".to_string())
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self
            .pos
            .checked_add(4)
            .filter(|&e| e <= self.bytes.len())
            .ok_or("truncated unicode escape")?;
        let digits = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| "bad unicode escape".to_string())?;
        let v = u32::from_str_radix(digits, 16).map_err(|_| "bad unicode escape".to_string())?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "bad number".to_string())?;
        let n: f64 = text
            .parse()
            .map_err(|_| format!("bad number `{text}` at byte {start}"))?;
        if n.is_finite() {
            Ok(JsonValue::Number(n))
        } else {
            Err(format!("non-finite number `{text}`"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_ordered_objects() {
        let json = JsonObject::new()
            .str("kind", "job")
            .u64("index", 3)
            .f64("seconds", 0.25)
            .bool("ok", true)
            .str_array("errors", &["a".to_string(), "b\"c".to_string()])
            .finish();
        assert_eq!(
            json,
            "{\"kind\":\"job\",\"index\":3,\"seconds\":0.25,\"ok\":true,\
             \"errors\":[\"a\",\"b\\\"c\"]}"
        );
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(number(1.5), "1.5");
    }

    #[test]
    fn parser_roundtrips_builder_output() {
        let json = JsonObject::new()
            .str("kind", "job")
            .u64("index", 3)
            .f64("seconds", 0.25)
            .bool("ok", true)
            .str_array("errors", &["a".to_string(), "b\"c\nd".to_string()])
            .raw("nested", "{\"x\":null}")
            .finish();
        let v = JsonValue::parse(&json).unwrap();
        assert_eq!(v.str_field("kind"), Some("job"));
        assert_eq!(v.get("index").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("seconds").unwrap().as_f64(), Some(0.25));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        let errors = v.get("errors").unwrap().as_array().unwrap();
        assert_eq!(errors[1].as_str(), Some("b\"c\nd"));
        assert_eq!(v.get("nested").unwrap().get("x"), Some(&JsonValue::Null));
    }

    #[test]
    fn parser_handles_escapes_and_unicode() {
        let v = JsonValue::parse(r#""aA\n\t\\ 😀 é""#).unwrap();
        assert_eq!(v.as_str(), Some("aA\n\t\\ 😀 é"));
        assert!(JsonValue::parse(r#""\ud83d""#).is_err(), "lone surrogate");
        assert!(JsonValue::parse(r#""\q""#).is_err(), "bad escape");
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "{\"a\" 1}",
            "nul",
            "1 2",
            "{\"a\":1}x",
            "\u{1}",
            "--1",
            "1e999",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn parser_accepts_numbers_and_nesting() {
        let v = JsonValue::parse(" { \"a\" : [ -1.5e2 , 0, 18446744073709551615 ] } ").unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_f64(), Some(-150.0));
        assert_eq!(a[0].as_u64(), None, "negative is not a u64");
        assert_eq!(a[1].as_u64(), Some(0));
        let mut deep = String::new();
        for _ in 0..100 {
            deep.push('[');
        }
        assert!(JsonValue::parse(&deep).is_err(), "depth bound holds");
    }
}
