//! Structured campaign reporters: deterministic JSON and CSV.
//!
//! The acceptance bar for the engine is *byte-identical reports for
//! identical campaigns*, despite work-stealing execution. Everything
//! here is therefore hand-ordered: objects keep insertion order, floats
//! render through Rust's shortest-roundtrip formatter (deterministic for
//! equal values), and wall-clock timings — the one legitimately
//! non-deterministic output — are opt-in via
//! [`ReportOptions::include_timings`] and excluded from canonical
//! reports.
//!
//! The `serde` crate this workspace ships is an offline marker-trait
//! shim (crates.io is unreachable), so emission is implemented directly
//! on a small ordered [`Json`] value type instead of through serde
//! serializers.

/// An ordered JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// Integer (emitted without decimal point).
    Int(i64),
    /// Unsigned integer.
    UInt(u64),
    /// Floating-point number; non-finite values render as `null`.
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with **insertion-ordered** keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object builder from key/value pairs.
    pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// String value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Renders with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders on a single line with no indentation — the journal
    /// event-stream shape (`smctl events --format json` emits one
    /// compact object per line). Parses back via [`Json::parse`].
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
            // Scalars render identically in both modes (depth unused).
            scalar => scalar.write(out, 0),
        }
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::UInt(u) => out.push_str(&u.to_string()),
            Json::Num(f) => {
                if f.is_finite() {
                    if f.fract() == 0.0 && f.abs() < 1e15 {
                        // Stable integral rendering: `1.0` not `1`.
                        out.push_str(&format!("{f:.1}"));
                    } else {
                        out.push_str(&format!("{f}"));
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                newline_indent(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                newline_indent(out, depth);
                out.push('}');
            }
        }
    }
}

impl Json {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as u64 (exact for `UInt`/non-negative `Int`, truncating
    /// for integral `Num`).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            Json::Num(f) if f.fract() == 0.0 && *f >= 0.0 && *f < u64::MAX as f64 => {
                Some(*f as u64)
            }
            _ => None,
        }
    }

    /// The value as i64 (exact for `Int`/in-range `UInt`, truncating for
    /// integral `Num`).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            Json::UInt(u) if *u <= i64::MAX as u64 => Some(*u as i64),
            Json::Num(f) if f.fract() == 0.0 && f.abs() < i64::MAX as f64 => Some(*f as i64),
            _ => None,
        }
    }

    /// The value as f64.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(f) => Some(*f),
            Json::Int(i) => Some(*i as f64),
            Json::UInt(u) => Some(*u as f64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Parses JSON text (strict subset: no comments, no trailing commas).
    ///
    /// Integral numbers without exponent/fraction parse as
    /// [`Json::UInt`]/[`Json::Int`] so 64-bit seeds survive a round-trip
    /// exactly.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected `{}` at byte {} (found `{}`)",
            c as char,
            *pos,
            b.get(*pos).map(|&c| c as char).unwrap_or('∅')
        ))
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. Reports nest
/// three levels deep; the cap keeps hostile input (say, 100 000 `[`)
/// from overflowing the stack of the recursive parser.
const MAX_DEPTH: usize = 128;

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}",
            pos = *pos
        ));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let value = parse_value(b, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected `{}` at byte {}", *c as char, *pos)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
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
    let s = std::str::from_utf8(&b[start..*pos]).expect("ascii");
    if integral {
        if let Ok(u) = s.parse::<u64>() {
            return Ok(Json::UInt(u));
        }
        if let Ok(i) = s.parse::<i64>() {
            return Ok(Json::Int(i));
        }
    }
    s.parse::<f64>()
        .map(Json::Num)
        .map_err(|e| format!("bad number `{s}` at byte {start}: {e}"))
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
                        let code = parse_u_escape(b, pos)?;
                        // UTF-16 surrogate pair: a high surrogate must be
                        // followed by `\uDC00..=\uDFFF`; combine the two
                        // halves into one scalar.
                        let scalar = if (0xd800..=0xdbff).contains(&code) {
                            if b.get(*pos + 1..*pos + 3) != Some(br"\u") {
                                return Err("unpaired high surrogate in \\u escape".into());
                            }
                            *pos += 2;
                            let low = parse_u_escape(b, pos)?;
                            if !(0xdc00..=0xdfff).contains(&low) {
                                return Err("invalid low surrogate in \\u escape".into());
                            }
                            0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00)
                        } else {
                            code
                        };
                        out.push(char::from_u32(scalar).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar.
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

/// Reads the four hex digits of a `\uXXXX` escape; on entry `*pos` is at
/// the `u`, on exit at its last hex digit.
fn parse_u_escape(b: &[u8], pos: &mut usize) -> Result<u32, String> {
    let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
    let code = u32::from_str_radix(std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?, 16)
        .map_err(|e| format!("bad \\u escape: {e}"))?;
    *pos += 4;
    Ok(code)
}

fn newline_indent(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Reporter switches.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReportOptions {
    /// Include per-job and total wall-clock timings. Off by default so
    /// canonical reports are byte-identical across runs.
    pub include_timings: bool,
}

/// Renders CSV with minimal quoting (fields containing `,`, `"` or
/// newlines are quoted; quotes double).
pub fn csv(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let write_row = |out: &mut String, fields: &mut dyn Iterator<Item = &str>| {
        let mut first = true;
        for field in fields {
            if !first {
                out.push(',');
            }
            first = false;
            if field.contains([',', '"', '\n', '\r']) {
                out.push('"');
                out.push_str(&field.replace('"', "\"\""));
                out.push('"');
            } else {
                out.push_str(field);
            }
        }
        out.push('\n');
    };
    write_row(&mut out, &mut header.iter().copied());
    for row in rows {
        write_row(&mut out, &mut row.iter().map(String::as_str));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_structures_deterministically() {
        let v = Json::obj([
            ("name", Json::str("sweep")),
            ("seeds", Json::Arr(vec![Json::UInt(1), Json::UInt(2)])),
            ("ccr", Json::Num(0.0)),
            ("ratio", Json::Num(2.5)),
            ("empty", Json::Arr(vec![])),
        ]);
        let a = v.render();
        let b = v.render();
        assert_eq!(a, b);
        assert!(a.contains("\"ccr\": 0.0"));
        assert!(a.contains("\"ratio\": 2.5"));
        assert!(a.contains("\"empty\": []"));
        assert!(a.ends_with('\n'));
    }

    #[test]
    fn compact_rendering_is_one_line_and_parses_back() {
        let v = Json::obj([
            ("event", Json::str("job-finished")),
            ("seeds", Json::Arr(vec![Json::UInt(1), Json::UInt(2)])),
            ("wall_ms", Json::Num(2.5)),
            ("nested", Json::obj([("k", Json::Arr(vec![]))])),
            ("ok", Json::Bool(true)),
        ]);
        let line = v.render_compact();
        assert!(!line.contains('\n'));
        assert_eq!(
            line,
            "{\"event\":\"job-finished\",\"seeds\":[1,2],\"wall_ms\":2.5,\"nested\":{\"k\":[]},\"ok\":true}"
        );
        assert_eq!(Json::parse(&line).unwrap(), v);
    }

    #[test]
    fn escapes_strings() {
        let v = Json::str("a\"b\\c\nd\u{1}");
        assert_eq!(v.render(), "\"a\\\"b\\\\c\\nd\\u0001\"\n");
    }

    #[test]
    fn non_finite_numbers_render_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null\n");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null\n");
    }

    #[test]
    fn csv_quotes_only_when_needed() {
        let out = csv(
            &["a", "b"],
            &[
                vec!["plain".into(), "with,comma".into()],
                vec!["with\"quote".into(), "x".into()],
            ],
        );
        assert_eq!(out, "a,b\nplain,\"with,comma\"\n\"with\"\"quote\",x\n");
    }

    #[test]
    fn parse_roundtrips_rendered_output() {
        let v = Json::obj([
            ("name", Json::str("sweep \"q\" \\ done")),
            ("seed", Json::UInt(u64::MAX)),
            ("delta", Json::Int(-42)),
            ("ccr", Json::Num(12.5)),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("nested", Json::obj([("k", Json::Arr(vec![]))])),
        ]);
        let text = v.render();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, v);
        // Large u64 survives exactly (would be lossy through f64).
        assert_eq!(parsed.get("seed").unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\": 1} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn parse_caps_nesting_depth() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        // Far past the cap: an error, not a stack overflow.
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
        assert!(Json::parse(&"{\"k\":".repeat(100_000)).is_err());
    }

    #[test]
    fn parse_decodes_surrogate_pairs() {
        // Escaped non-BMP code point arrives as one scalar, not two
        // replacement characters.
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap(),
            Json::str("\u{1f600}")
        );
        // BMP escape and raw UTF-8 passthrough.
        assert_eq!(Json::parse(r#""\u00e9""#).unwrap(), Json::str("\u{e9}"));
        assert_eq!(
            Json::parse("\"\u{1f600}\"").unwrap(),
            Json::str("\u{1f600}")
        );
        assert!(Json::parse(r#""\ud83d""#).is_err()); // unpaired high
        assert!(Json::parse(r#""\ud83dA""#).is_err()); // bad low
    }

    #[test]
    fn json_is_parseable_by_a_strict_reader() {
        // Cheap structural sanity: balanced brackets and quotes.
        let v = Json::obj([
            ("arr", Json::Arr(vec![Json::obj([("k", Json::Int(-3))])])),
            ("s", Json::str("v")),
        ]);
        let text = v.render();
        let opens = text.matches(['{', '[']).count();
        let closes = text.matches(['}', ']']).count();
        assert_eq!(opens, closes);
        assert_eq!(text.matches('"').count() % 2, 0);
    }
}
