//! A minimal JSON value model, writers, and recursive-descent parser.
//!
//! The workspace is dependency-free by policy, and its two JSON producers
//! — run reports and the `BENCH_*.json` bench artifacts — only need a small,
//! fully-deterministic subset of JSON: objects keep their insertion order
//! (so output is byte-stable), integers and floats are separate variants
//! (a float is written in Rust's shortest round-trip form, a non-finite one
//! as `null`), and strings escape the mandatory control/quote/backslash
//! set. [`Json::write`] is compact; [`Json::pretty`] puts one object member
//! per line for human-read artifacts. The parser accepts what the writers
//! emit plus ordinary whitespace — not a general-purpose JSON library.

use std::fmt;

/// A parsed JSON value. Object member order is preserved.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    /// A number written with a fraction or exponent.
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` members, in order.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Object member by key (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

macro_rules! from {
    ($($t:ty: $v:ident => $json:expr;)*) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $json
            }
        }
    )*};
}

// Unsigned integers beyond `i64::MAX` saturate.
from! {
    i32: v => Json::Int(v.into());
    i64: v => Json::Int(v);
    u64: v => Json::Int(i64::try_from(v).unwrap_or(i64::MAX));
    usize: v => Json::Int(i64::try_from(v).unwrap_or(i64::MAX));
    u128: v => Json::Int(i64::try_from(v).unwrap_or(i64::MAX));
    f64: v => Json::Float(v);
    bool: v => Json::Bool(v);
    &str: v => Json::Str(v.to_string());
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// Escape and append `s` as a JSON string literal.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut buf = String::new();
        self.write(&mut buf);
        f.write_str(&buf)
    }
}

impl Json {
    /// Serialize compactly (no extra whitespace); byte-stable for a given
    /// value because object order is preserved.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => out.push_str(&v.to_string()),
            // `{:?}` is the shortest form that parses back to the same
            // bits, and always carries a `.` or an exponent.
            Json::Float(v) if v.is_finite() => out.push_str(&format!("{v:?}")),
            Json::Float(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
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
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Serialize with one object member per line, indented two spaces per
    /// level. An array is expanded one item per line when it holds an
    /// object, and written compactly otherwise.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let (open, close, items): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Obj(members) if !members.is_empty() => (
                '{',
                '}',
                members.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            ),
            Json::Arr(items) if items.iter().any(|v| matches!(v, Json::Obj(_))) => {
                ('[', ']', items.iter().map(|v| (None, v)).collect())
            }
            _ => return self.write(out),
        };
        let indent = |out: &mut String, depth: usize| out.push_str(&"  ".repeat(depth));
        out.push(open);
        for (i, (key, value)) in items.into_iter().enumerate() {
            out.push_str(if i > 0 { ",\n" } else { "\n" });
            indent(out, depth + 1);
            if let Some(key) = key {
                write_str(out, key);
                out.push_str(": ");
            }
            value.write_pretty(out, depth + 1);
        }
        out.push('\n');
        indent(out, depth);
        out.push(close);
    }
}

/// Parse a complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn eat_keyword(&mut self, kw: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.eat_keyword("null", Json::Null),
            Some(b't') => self.eat_keyword("true", Json::Bool(true)),
            Some(b'f') => self.eat_keyword("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let float = matches!(self.peek(), Some(b'.' | b'e' | b'E'));
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid utf8 in number".to_string())?;
        let value = if float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|e| e.to_string())
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|e| e.to_string())
        };
        value.map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                            if self.pos + 5 > self.bytes.len() {
                                return Err("truncated \\u escape".to_string());
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| "invalid \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("invalid \\u escape {hex:?}"))?;
                            // Surrogates are never produced by our writer.
                            let ch = char::from_u32(code)
                                .ok_or_else(|| format!("invalid codepoint \\u{hex}"))?;
                            out.push(ch);
                            self.pos += 4;
                        }
                        other => {
                            return Err(format!(
                                "bad escape {:?} at byte {}",
                                other.map(|c| c as char),
                                self.pos
                            ))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one full UTF-8 scalar.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| "invalid utf8 in string".to_string())?;
                    let ch = match s.chars().next() {
                        Some(c) => c,
                        None => return Err("unterminated string".to_string()),
                    };
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
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
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let v = Json::Obj(vec![
            (
                "name".to_string(),
                Json::Str("a \"quoted\"\nline".to_string()),
            ),
            ("n".to_string(), Json::Int(-42)),
            (
                "items".to_string(),
                Json::Arr(vec![Json::Bool(true), Json::Null, Json::Int(0)]),
            ),
            ("empty".to_string(), Json::Obj(vec![])),
        ]);
        let text = v.to_string();
        let back = parse(&text).unwrap();
        assert_eq!(back, v);
        // Byte-stable: rewriting the parse reproduces the exact text.
        assert_eq!(back.to_string(), text);
    }

    #[test]
    fn preserves_object_order() {
        let text = r#"{"z":1,"a":2}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.to_string(), text);
        assert_eq!(v.get("z"), Some(&Json::Int(1)));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1.5.5").is_err());
    }

    #[test]
    fn floats_round_trip_in_shortest_form() {
        for v in [
            1.5,
            -0.25,
            2.0,
            1e-7,
            1e21,
            0.1 + 0.2,
            f64::MAX,
            f64::MIN_POSITIVE,
        ] {
            let text = Json::Float(v).to_string();
            assert_eq!(parse(&text).unwrap(), Json::Float(v), "{text}");
        }
        assert_eq!(Json::Float(2.0).to_string(), "2.0");
        assert_eq!(Json::Float(0.1).to_string(), "0.1");
    }

    #[test]
    fn non_finite_floats_are_written_as_null() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::Float(v).to_string(), "null");
        }
    }

    #[test]
    fn pretty_parses_back_to_the_same_value() {
        let v = Json::obj([
            ("bench", Json::from("x")),
            ("ratio", 0.75.into()),
            ("rounds", vec![vec![1, 2], vec![3, 4]].into()),
            (
                "runs",
                Json::Arr(vec![Json::obj([("n", Json::from(1))]), Json::Null]),
            ),
            ("empty", Json::obj::<&str>([])),
        ]);
        let text = v.pretty();
        assert_eq!(parse(&text).unwrap(), v);
        assert!(text.starts_with("{\n  \"bench\": \"x\",\n  \"ratio\": 0.75,\n"));
        assert!(text.contains("\"rounds\": [[1,2],[3,4]],\n"));
        assert!(text.contains("\"runs\": [\n    {\n      \"n\": 1\n    },\n    null\n  ],"));
        assert!(text.ends_with("\"empty\": {}\n}"));
    }

    #[test]
    fn control_chars_escape_and_parse() {
        let v = Json::Str("a\u{1}b".to_string());
        let text = v.to_string();
        assert!(text.contains("\\u0001"));
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn whitespace_tolerated() {
        let v = parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
    }
}
