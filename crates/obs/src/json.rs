//! Hand-rolled JSON value, serializer, and minimal parser.
//!
//! The workspace deliberately has no serde. This module is what every
//! document it writes goes through — metrics snapshots, health and trace
//! exports, the `BENCH_*.json` reports: a small [`Json`] tree, a pretty
//! writer in two-space style, and a strict recursive-descent parser so
//! round-trip tests and the `validate` command need no external tooling.
//!
//! Integers are kept exact: values that parse without a fraction or
//! exponent come back as [`Json::U64`]/[`Json::I64`], so a 3 469 496-trial
//! count survives a round trip bit-for-bit.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (the common case for counters).
    U64(u64),
    /// A negative integer (gauges like scrub margins can go below zero).
    I64(i64),
    /// Any other number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved by the writer.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one (accepts `I64`/`F64`
    /// holding an exact non-negative integer).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::I64(v) => u64::try_from(v).ok(),
            Json::F64(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => Some(v as u64),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation and a trailing newline
    /// (the `BENCH_<name>.json` house style).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Compact single-line rendering (the JSON-lines event format).
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    push_indent(out, indent + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                push_indent(out, indent);
                out.push('}');
            }
            other => other.write_compact(out),
        }
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => write_f64(out, *v),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_string(out, k);
                    out.push_str(": ");
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_string(out: &mut String, s: &str) {
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

fn write_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        // JSON has no NaN/Inf; null is the least-surprising degradation.
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 1e15 {
        // Keep integral floats readable but distinguishable from integers.
        let _ = write!(out, "{v:.1}");
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Parses a complete JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let value = parse_value(b, pos)?;
                fields.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_literal(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_literal(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                            16,
                        )
                        .map_err(|e| format!("bad \\u escape: {e}"))?;
                        // Surrogate pairs are not needed for metric names;
                        // reject rather than silently corrupt.
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("\\u{code:04x} is not a scalar value"))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // The plain run up to the next quote or backslash, in one
                // copy. Both are ASCII, so the run starts and ends on char
                // boundaries of the `&str` the bytes came from, and checking
                // it reads each byte once.
                let rest = &b[*pos..];
                let len = rest
                    .iter()
                    .position(|&c| c == b'"' || c == b'\\')
                    .unwrap_or(rest.len());
                out.push_str(std::str::from_utf8(&rest[..len]).map_err(|_| "invalid UTF-8")?);
                *pos += len;
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut integral = true;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                integral = false;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "invalid number")?;
    if text.is_empty() || text == "-" {
        return Err(format!("invalid number at byte {start}"));
    }
    if integral {
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::U64(v));
        }
        if let Ok(v) = text.parse::<i64>() {
            return Ok(Json::I64(v));
        }
    }
    text.parse::<f64>()
        .map(Json::F64)
        .map_err(|e| format!("invalid number '{text}': {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_round_trip_exactly() {
        let v = Json::Obj(vec![
            ("trials".into(), Json::U64(3_469_496)),
            ("huge".into(), Json::U64(u64::MAX)),
            ("margin".into(), Json::I64(-3)),
        ]);
        let text = v.to_pretty();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Json::Obj(vec![
            ("schema".into(), Json::Str("tornado-metrics-v1".into())),
            (
                "levels".into(),
                Json::Arr(vec![
                    Json::Obj(vec![
                        ("k".into(), Json::U64(1)),
                        ("ok".into(), Json::Bool(true)),
                    ]),
                    Json::Obj(vec![]),
                ]),
            ),
            ("empty".into(), Json::Arr(vec![])),
            ("nothing".into(), Json::Null),
        ]);
        assert_eq!(parse(&v.to_pretty()).unwrap(), v);
        assert_eq!(parse(&v.to_line()).unwrap(), v);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let v = Json::Str("a \"quoted\"\npath\\seg\tdone \u{1}".into());
        assert_eq!(parse(&v.to_line()).unwrap(), v);
    }

    #[test]
    fn parses_the_existing_bench_artifact_style() {
        let text = r#"{
  "bench": "decode_trial",
  "cases": [
    {"case": "single_k1", "dense": 74.6, "speedup": 2.75}
  ],
  "target_met": true
}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.get("bench").unwrap().as_str(), Some("decode_trial"));
        let cases = v.get("cases").unwrap().as_arr().unwrap();
        assert_eq!(cases[0].get("dense").unwrap().as_f64(), Some(74.6));
        assert_eq!(v.get("target_met"), Some(&Json::Bool(true)));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "{\"a\":1} x",
            "\"unterminated",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn float_gets_fraction_marker() {
        assert_eq!(Json::F64(3.0).to_line(), "3.0");
        assert_eq!(parse("3.0").unwrap(), Json::F64(3.0));
        assert_eq!(parse("3").unwrap(), Json::U64(3));
    }
}
