//! The workspace's one JSON reader and its value printer.
//!
//! The workspace builds with no registry access, so there is no serde;
//! this is the subset of JSON the artifacts need (objects, arrays,
//! strings, finite numbers, booleans, null), hand-rolled. Every reader
//! goes through [`parse`]: fault plans, model-checker schedules,
//! `BENCH_*.json` trajectories and [`crate::perfetto::validate`]. Every
//! writer escapes strings through [`Quote`] and prints numbers by
//! [`Json::Num`]'s rule (integers without a fraction).

use std::fmt::{self, Write as _};

/// A parsed JSON value. Object fields keep their source order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
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
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Field `key` of an object; `None` for a missing field or a value
    /// that is not an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        let fields = self.as_obj()?;
        fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Field `key` of an object, or an error naming it.
    pub fn field(&self, key: &str) -> Result<&Json, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    /// A string field, or an error naming it.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        let v = self.field(key)?;
        v.as_str()
            .ok_or_else(|| format!("field {key:?}: expected string"))
    }

    /// A number field, or an error naming it.
    pub fn num_field(&self, key: &str) -> Result<f64, String> {
        let v = self.field(key)?;
        v.as_num()
            .ok_or_else(|| format!("field {key:?}: expected number"))
    }

    /// An array field, or an error naming it.
    pub fn arr_field(&self, key: &str) -> Result<&[Json], String> {
        let v = self.field(key)?;
        v.as_arr()
            .ok_or_else(|| format!("field {key:?}: expected array"))
    }
}

/// `s` as a JSON string literal, quotes included: `"` and `\` are
/// backslash-escaped, `\n`, `\t` and `\r` by name, every other control
/// character as `\u00XX`. A string with none of these prints as itself
/// between quotes.
pub struct Quote<'a>(pub &'a str);

impl fmt::Display for Quote<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\t' => f.write_str("\\t")?,
                '\r' => f.write_str("\\r")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                // Integers print without a trailing `.0` (and round-trip
                // exactly); everything else is Rust's shortest
                // round-trip formatting.
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => write!(f, "{}", Quote(s)),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, it) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{it}")?;
                }
                write!(f, "]")
            }
            Json::Obj(fields) => {
                write!(f, "{{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}:{}", Quote(k), v)?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Parse a JSON document. Errors carry a byte offset and message.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    let Some(&c) = bytes.get(*pos) else {
        return Err("unexpected end of input".into());
    };
    match c {
        b'{' => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = match parse_value(bytes, pos)? {
                    Json::Str(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                expect(bytes, pos, b':')?;
                let val = parse_value(bytes, pos)?;
                fields.push((key, val));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        b'[' => {
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
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        b'"' => {
            *pos += 1;
            let mut s = String::new();
            loop {
                let Some(&c) = bytes.get(*pos) else {
                    return Err("unterminated string".into());
                };
                *pos += 1;
                match c {
                    b'"' => return Ok(Json::Str(s)),
                    b'\\' => {
                        let Some(&e) = bytes.get(*pos) else {
                            return Err("unterminated escape".into());
                        };
                        *pos += 1;
                        match e {
                            b'"' => s.push('"'),
                            b'\\' => s.push('\\'),
                            b'/' => s.push('/'),
                            b'n' => s.push('\n'),
                            b't' => s.push('\t'),
                            b'r' => s.push('\r'),
                            b'b' => s.push('\u{8}'),
                            b'f' => s.push('\u{c}'),
                            b'u' => {
                                let hex = bytes
                                    .get(*pos..*pos + 4)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .ok_or("bad \\u escape")?;
                                let code =
                                    u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                                *pos += 4;
                                // No writer here emits surrogate pairs; an
                                // unpaired surrogate becomes the
                                // replacement character rather than an error.
                                s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            }
                            _ => return Err(format!("bad escape '\\{}'", e as char)),
                        }
                    }
                    _ => {
                        // Re-decode UTF-8 from the byte stream.
                        let start = *pos - 1;
                        let mut end = *pos;
                        while end < bytes.len() && (bytes[end] & 0xc0) == 0x80 {
                            end += 1;
                        }
                        let chunk =
                            std::str::from_utf8(&bytes[start..end]).map_err(|e| e.to_string())?;
                        s.push_str(chunk);
                        *pos = end;
                    }
                }
            }
        }
        b't' => keyword(bytes, pos, "true", Json::Bool(true)),
        b'f' => keyword(bytes, pos, "false", Json::Bool(false)),
        b'n' => keyword(bytes, pos, "null", Json::Null),
        b'-' | b'0'..=b'9' => {
            let start = *pos;
            *pos += 1;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number '{text}' at byte {start}"))
        }
        _ => Err(format!(
            "unexpected character '{}' at byte {}",
            c as char, *pos
        )),
    }
}

fn keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_prints_basic_documents() {
        let v = parse(r#" {"a": [1, 2.5, -3], "b": "x\ny", "c": true, "d": null} "#).unwrap();
        let obj = v.as_obj().unwrap();
        assert_eq!(obj[0].0, "a");
        assert_eq!(
            obj[0].1,
            Json::Arr(vec![Json::Num(1.0), Json::Num(2.5), Json::Num(-3.0)])
        );
        assert_eq!(obj[1].1.as_str(), Some("x\ny"));
        assert_eq!(obj[2].1, Json::Bool(true));
        assert_eq!(obj[3].1, Json::Null);
        // Display → parse is an identity on the value.
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "\"abc",
            "1 2",
            "{1: 2}",
            "{\"a\": [1, 2,]}",
            "{\"a\": 1} extra",
            "[{\"a\":1}{\"b\":2}]",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::Num(42.0).to_string(), "42");
        assert_eq!(Json::Num(2.5).to_string(), "2.5");
        assert_eq!(Json::Num(-2.0).to_string(), "-2");
        assert_eq!(Json::Num(0.6478).to_string(), "0.6478");
    }

    #[test]
    fn quote_escapes_and_round_trips() {
        assert_eq!(Quote("plain").to_string(), "\"plain\"");
        let nasty = "a\"b\\c\nd\u{1}é";
        let quoted = Quote(nasty).to_string();
        assert_eq!(quoted, "\"a\\\"b\\\\c\\nd\\u0001é\"");
        assert_eq!(parse(&quoted).unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn field_accessors_name_what_is_missing() {
        let v = parse("{\"v\": 4.92e8, \"s\": \"x\", \"a\": [], \"n\": null}").unwrap();
        assert_eq!(v.num_field("v"), Ok(4.92e8));
        assert_eq!(v.str_field("s"), Ok("x"));
        assert_eq!(v.arr_field("a"), Ok(&[][..]));
        assert_eq!(v.field("n"), Ok(&Json::Null));
        assert!(v.field("missing").unwrap_err().contains("\"missing\""));
        assert!(v.str_field("v").unwrap_err().contains("expected string"));
        assert_eq!(Json::Null.get("v"), None);
    }
}
