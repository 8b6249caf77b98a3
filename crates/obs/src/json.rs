//! The workspace's one JSON codec (no serde offline).
//!
//! - [`quote`] writes a string literal; every JSON writer in the
//!   workspace escapes its strings with it. [`fmt_f64`] writes a float
//!   that round-trips.
//! - [`parse`] reads a whole document into a [`Json`] tree. It decodes
//!   `wp-serve`'s wire frames, `.wps` scenarios and the `BENCH_*.json`
//!   reports that `trace_tool bench-check` compares.
//!
//! `parse(&quote(s))` is `Json::Str(s)` for every string `s`.

/// Formats an `f64` as a JSON value. Rust's `{}` for floats is the
/// shortest representation that round-trips, so string equality of two
/// emissions implies bit-identical values. Non-finite values have no
/// JSON spelling and become `null`.
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Escapes and quotes a string for JSON: quotes, backslashes and
/// control characters are escaped (`\n`, `\t` and `\r` by name, the
/// rest as `\u00XX`); everything else passes through as UTF-8.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A parsed JSON value. Object keys keep file order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number, as `f64`.
    Num(f64),
    /// A string (escape sequences decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The decoded string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
///
/// # Errors
///
/// A one-line message naming the first defect and its byte offset.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if b.get(*pos) == Some(&ch) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {pos}",
            char::from(ch),
            pos = *pos
        ))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected '{}' at byte {pos}", char::from(*c))),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

/// The four hex digits of a `\u` escape at `pos`.
fn hex4(b: &[u8], pos: &mut usize) -> Result<u32, String> {
    let hex = b.get(*pos..*pos + 4).ok_or("truncated \\u escape")?;
    if !hex.iter().all(u8::is_ascii_hexdigit) {
        return Err(format!("bad \\u escape '{}'", String::from_utf8_lossy(hex)));
    }
    *pos += 4;
    Ok(hex.iter().fold(0, |acc, &h| {
        acc * 16 + char::from(h).to_digit(16).unwrap_or(0)
    }))
}

/// Decodes the `\u` escape whose hex digits start at `pos`: a BMP
/// scalar, or a high surrogate followed by a `\u` low surrogate (how
/// encoders that write ASCII-only JSON spell non-BMP characters).
fn unicode_escape(b: &[u8], pos: &mut usize) -> Result<char, String> {
    let start = *pos - 2;
    let lone = || format!("lone surrogate in \\u escape at byte {start}");
    let code = match hex4(b, pos)? {
        hi @ 0xD800..=0xDBFF => {
            if b.get(*pos..*pos + 2) != Some(b"\\u") {
                return Err(lone());
            }
            *pos += 2;
            match hex4(b, pos)? {
                lo @ 0xDC00..=0xDFFF => 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00),
                _ => return Err(lone()),
            }
        }
        0xDC00..=0xDFFF => return Err(lone()),
        code => code,
    };
    char::from_u32(code).ok_or_else(lone)
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'u' => out.push(unicode_escape(b, pos)?),
                    other => return Err(format!("unknown escape '\\{}'", char::from(other))),
                }
            }
            Some(_) => {
                // Copy a run of plain bytes (UTF-8 passes through intact).
                let start = *pos;
                while *pos < b.len() && b[*pos] != b'"' && b[*pos] != b'\\' {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?);
            }
            None => return Err("unterminated string".into()),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
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
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
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
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn floats_round_trip() {
        assert_eq!(fmt_f64(1.5), "1.5");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
    }

    #[test]
    fn strings_escape() {
        assert_eq!(quote("plain"), "\"plain\"");
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(quote("\u{1}\u{1f}"), "\"\\u0001\\u001f\"");
    }

    #[test]
    fn rejects_bad_escapes() {
        assert!(parse("\"\\u+041\"").unwrap_err().contains("bad \\u escape"));
        assert!(parse("\"\\x\"").unwrap_err().contains("unknown escape"));
    }

    #[test]
    fn decodes_every_escape_form() {
        let cases = [
            (r#""\b\f\/""#, "\u{8}\u{c}/"),
            (r#""\u00e9\u00E9""#, "éé"),
            (r#""\ud83d\ude00""#, "\u{1F600}"),
            (r#""a\uD834\uDD1Eb""#, "a\u{1D11E}b"),
            (r#""\uffff""#, "\u{FFFF}"),
        ];
        for (text, want) in cases {
            assert_eq!(parse(text).unwrap(), Json::Str(want.into()), "{text}");
        }
    }

    #[test]
    fn lone_surrogates_are_errors() {
        for text in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83d\u0041""#,
            r#""\ud83d\ud83d""#,
            r#""\ude00""#,
            r#""\ude00\ud83d""#,
        ] {
            let err = parse(text).unwrap_err();
            assert!(err.contains("lone surrogate"), "{text}: {err}");
        }
    }

    #[test]
    fn every_control_char_round_trips() {
        let s: String = (0u32..0x20).filter_map(char::from_u32).collect();
        assert_eq!(parse(&quote(&s)).unwrap(), Json::Str(s));
    }

    /// One char from a class: control, ASCII (quotes and backslashes
    /// among them), BMP, or any scalar value.
    fn any_char() -> impl Strategy<Value = char> {
        (0u32..4, 0u32..0x11_0000).prop_map(|(class, x)| {
            let code = match class {
                0 => x % 0x20,
                1 => x % 0x80,
                2 => x % 0x1_0000,
                _ => x,
            };
            char::from_u32(code).unwrap_or('\u{FFFD}')
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn quote_then_parse_is_identity(chars in proptest::collection::vec(any_char(), 0..48)) {
            let s: String = chars.into_iter().collect();
            prop_assert_eq!(parse(&quote(&s)).unwrap(), Json::Str(s));
        }
    }
}
