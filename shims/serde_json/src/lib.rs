//! Offline shim for the `serde_json` crate (see `shims/README.md`).
//!
//! Maps the serde shim's [`Value`] tree to and from JSON text. Output
//! formats mirror the real crate where tests depend on them: compact
//! rendering has no whitespace (`"k":1`), pretty rendering indents by two
//! spaces with `"k": 1` separators, and whole floats render with a
//! trailing `.0`.

use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// JSON serialization/deserialization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Alias used by callers that spell out `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

// --------------------------------------------------------------- writing

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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() && x.fract() == 0.0 && x.abs() < 1e15 {
        out.push_str(&format!("{x:.1}"));
    } else if x.is_finite() {
        out.push_str(&format!("{x}"));
    } else {
        // serde_json rejects non-finite floats; rendering null is the
        // closest total behaviour for a shim.
        out.push_str("null");
    }
}

fn write_compact(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::F64(x) => write_f64(out, *x),
        Value::Str(s) => write_escaped(out, s),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(out, item);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, k);
                out.push(':');
                write_compact(out, val);
            }
            out.push('}');
        }
    }
}

fn write_pretty(out: &mut String, v: &Value, indent: usize) {
    let pad = "  ".repeat(indent);
    let inner_pad = "  ".repeat(indent + 1);
    match v {
        Value::Seq(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&inner_pad);
                write_pretty(out, item, indent + 1);
            }
            out.push('\n');
            out.push_str(&pad);
            out.push(']');
        }
        Value::Map(entries) if !entries.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&inner_pad);
                write_escaped(out, k);
                out.push_str(": ");
                write_pretty(out, val, indent + 1);
            }
            out.push('\n');
            out.push_str(&pad);
            out.push('}');
        }
        other => write_compact(out, other),
    }
}

/// Serializes to compact JSON (no whitespace).
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_compact(&mut out, &value.to_value());
    Ok(out)
}

/// Serializes to pretty JSON (two-space indent, `": "` separators).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_pretty(&mut out, &value.to_value(), 0);
    Ok(out)
}

// --------------------------------------------------------------- parsing

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{kw}`")))
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => {
                self.expect_keyword("null")?;
                Ok(Value::Null)
            }
            Some(b't') => {
                self.expect_keyword("true")?;
                Ok(Value::Bool(true))
            }
            Some(b'f') => {
                self.expect_keyword("false")?;
                Ok(Value::Bool(false))
            }
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Seq(items));
                        }
                        _ => return Err(self.err("expected `,` or `]`")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let val = self.parse_value()?;
                    entries.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Map(entries));
                        }
                        _ => return Err(self.err("expected `,` or `}`")),
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(self.err("unexpected character")),
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
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
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?,
                                16,
                            )
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
                    // Copy the run up to the next quote or backslash. Both
                    // are ASCII, so the run holds whole UTF-8 scalars, and
                    // each byte is validated once.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(run);
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::I64(n));
            }
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Parses JSON text into a `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let mut p = JsonParser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    T::from_value(&value).map_err(|e| Error(e.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn compact_has_no_spaces() {
        let m = vec![
            ("policy-type".to_string(), Value::Str("sts".to_string())),
            ("n".to_string(), Value::I64(3)),
        ];
        let mut out = String::new();
        write_compact(&mut out, &Value::Map(m));
        assert_eq!(out, r#"{"policy-type":"sts","n":3}"#);
    }

    #[test]
    fn pretty_spaces_after_colon() {
        let v = Value::Map(vec![("v".to_string(), Value::I64(7))]);
        let mut out = String::new();
        write_pretty(&mut out, &v, 0);
        assert_eq!(out, "{\n  \"v\": 7\n}");
    }

    #[test]
    fn floats_keep_decimal_point() {
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        assert_eq!(to_string(&2.5f64).unwrap(), "2.5");
    }

    #[test]
    fn parse_roundtrip() {
        let text = r#"{"a":[1,-2,3.5],"b":"x\ny","c":null,"d":true}"#;
        let v: Value = {
            let mut p = JsonParser {
                bytes: text.as_bytes(),
                pos: 0,
            };
            p.parse_value().unwrap()
        };
        let mut out = String::new();
        write_compact(&mut out, &v);
        assert_eq!(out, r#"{"a":[1,-2,3.5],"b":"x\ny","c":null,"d":true}"#);
    }

    #[test]
    fn typed_roundtrip_via_traits() {
        let mut m = BTreeMap::new();
        m.insert("k1".to_string(), vec![1u32, 2]);
        m.insert("k2".to_string(), vec![]);
        let json = to_string(&m).unwrap();
        let back: BTreeMap<String, Vec<u32>> = from_str(&json).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn unicode_escape_parses() {
        let s: String = from_str(r#""éA""#).unwrap();
        assert_eq!(s, "éA");
    }

    #[test]
    fn multibyte_scalars_roundtrip_beside_escapes_and_quotes() {
        // 2-, 3- and 4-byte scalars, each right against a quote, a
        // backslash or an escape, and at both ends of the string.
        let text = "\u{e9}\"\u{4e2d}\\\u{1d11e}\n\u{e9}\u{1f600}\t\"\u{4e2d}\\";
        let json = to_string(text).unwrap();
        assert_eq!(from_str::<String>(&json).unwrap(), text);
        // Raw scalars between `\u` escapes of the same scalars.
        let escaped: String = from_str(r#""é\u00e9中\u4e2d𝄞\"\u00e9😀""#).unwrap();
        assert_eq!(
            escaped,
            "\u{e9}\u{e9}\u{4e2d}\u{4e2d}\u{1d11e}\"\u{e9}\u{1f600}"
        );
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(from_str::<bool>("true x").is_err());
        assert!(from_str::<u32>("12,").is_err());
    }
}
