//! A minimal JSON reader for validating `levi-bench run --json` report files
//! (`levi-bench check-report`) without pulling a crates.io dependency
//! into the workspace.
//!
//! Supports exactly what the harness emits — objects, arrays, strings
//! with `\\` / `\"` escapes (plus the standard control escapes and
//! `\uXXXX`, surrogate pairs included), numbers, booleans, and null.
//! Not a general-purpose parser: numbers are read as `f64`.
//!
//! The writing side lives here too: [`JsonWriter`] is the incremental
//! emitter every JSON producer in the harness ([`crate::figure_json`],
//! [`crate::table_report`], [`crate::runner::manifest_json`]) rides on —
//! escaping-correct by construction (strings go through
//! [`levi_sim::telemetry::write_escaped`], the same escaper as the
//! telemetry exporters), deterministic key order (keys are
//! emitted in call order), and explicit fixed-precision number formatting.
//!
//! The parser is strict where laxity would hide a bad report: duplicate
//! object keys are an error (lookup is first-match, so a duplicate would
//! silently shadow), and nesting depth is capped so a pathological input
//! fails with an error instead of overflowing the parser's recursion.

use levi_sim::telemetry::write_escaped;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, as `f64`.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object; `None` for other values.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// An incremental JSON emitter: push structure (`begin_obj`/`begin_arr`),
/// keys, and values in document order; [`JsonWriter::finish`] returns the
/// rendered text. Escaping is applied to every string, keys are emitted
/// exactly in call order, and numbers are written with the explicit
/// format the caller chooses ([`JsonWriter::u64`] for integers,
/// [`JsonWriter::fixed`] for fixed-precision floats), so an emitter
/// migrated from hand-written `write!` calls produces identical bytes.
///
/// # Panics
/// Structural misuse — a value where a key is required, `end_obj` on an
/// array, finishing with frames still open — panics: these are harness
/// bugs, not data errors.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Open frames; `true` = object (expecting keys), `false` = array.
    stack: Vec<bool>,
    /// How many members/items the innermost frames hold (parallel to
    /// `stack`), for comma placement.
    counts: Vec<usize>,
    /// A key was just written; the next value is its member value.
    key_armed: bool,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    fn before_value(&mut self) {
        if let Some(&is_obj) = self.stack.last() {
            if is_obj {
                assert!(self.key_armed, "object value without a key");
                self.key_armed = false;
            } else {
                let n = self.counts.last_mut().expect("frame has a count");
                if *n > 0 {
                    self.out.push(',');
                }
                *n += 1;
            }
        }
    }

    /// Writes a member key inside an open object.
    pub fn key(&mut self, k: &str) -> &mut Self {
        assert_eq!(self.stack.last(), Some(&true), "key outside an object");
        assert!(!self.key_armed, "two keys in a row");
        let n = self.counts.last_mut().expect("frame has a count");
        if *n > 0 {
            self.out.push(',');
        }
        *n += 1;
        self.out.push('"');
        write_escaped(&mut self.out, k);
        self.out.push_str("\":");
        self.key_armed = true;
        self
    }

    /// Opens an object value.
    pub fn begin_obj(&mut self) -> &mut Self {
        self.before_value();
        self.out.push('{');
        self.stack.push(true);
        self.counts.push(0);
        self
    }

    /// Closes the innermost object.
    pub fn end_obj(&mut self) -> &mut Self {
        assert_eq!(self.stack.pop(), Some(true), "end_obj without an object");
        assert!(!self.key_armed, "object closed with a dangling key");
        self.counts.pop();
        self.out.push('}');
        self
    }

    /// Opens an array value.
    pub fn begin_arr(&mut self) -> &mut Self {
        self.before_value();
        self.out.push('[');
        self.stack.push(false);
        self.counts.push(0);
        self
    }

    /// Closes the innermost array.
    pub fn end_arr(&mut self) -> &mut Self {
        assert_eq!(self.stack.pop(), Some(false), "end_arr without an array");
        self.counts.pop();
        self.out.push(']');
        self
    }

    /// Writes a string value.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.before_value();
        self.out.push('"');
        write_escaped(&mut self.out, v);
        self.out.push('"');
        self
    }

    /// Writes an unsigned integer value.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        use std::fmt::Write as _;
        self.before_value();
        let _ = write!(self.out, "{v}");
        self
    }

    /// Writes a float with exactly `digits` fractional digits
    /// (`{:.digits$}` formatting — what the hand-written emitters used).
    pub fn fixed(&mut self, v: f64, digits: usize) -> &mut Self {
        use std::fmt::Write as _;
        self.before_value();
        let _ = write!(self.out, "{v:.digits$}");
        self
    }

    /// Writes a boolean value.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.before_value();
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// Returns the rendered document.
    pub fn finish(self) -> String {
        assert!(self.stack.is_empty(), "finish with open frames");
        self.out
    }
}

/// Maximum nesting depth (objects + arrays) before the parser bails out.
const MAX_DEPTH: u32 = 128;

/// Parses one complete JSON document, rejecting trailing garbage.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected {:?} at byte {pos}, found {:?}",
            b as char,
            bytes.get(*pos).map(|&c| c as char)
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: u32) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_obj(bytes, pos, depth),
        Some(b'[') => parse_arr(bytes, pos, depth),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(bytes, pos),
        other => Err(format!(
            "unexpected {:?} at byte {pos}",
            other.map(|&c| c as char)
        )),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = Vec::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return String::from_utf8(out).map_err(|e| e.to_string());
            }
            Some(b'\\') => {
                *pos += 1;
                let escaped = match bytes.get(*pos) {
                    Some(b'"') => b'"',
                    Some(b'\\') => b'\\',
                    Some(b'/') => b'/',
                    Some(b'n') => b'\n',
                    Some(b't') => b'\t',
                    Some(b'r') => b'\r',
                    Some(b'u') => {
                        *pos += 1;
                        let c = parse_unicode_escape(bytes, pos)?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        continue;
                    }
                    other => {
                        return Err(format!(
                            "unsupported escape {:?} at byte {pos}",
                            other.map(|&c| c as char)
                        ))
                    }
                };
                out.push(escaped);
                *pos += 1;
            }
            Some(&c) => {
                out.push(c);
                *pos += 1;
            }
        }
    }
}

/// Parses the `XXXX` of a `\uXXXX` escape (cursor just past the `u`),
/// consuming a trailing low surrogate when the code unit is a high one.
/// Leaves the cursor on the byte after the consumed escape(s).
fn parse_unicode_escape(bytes: &[u8], pos: &mut usize) -> Result<char, String> {
    let unit = |pos: &mut usize| -> Result<u32, String> {
        let hex = bytes
            .get(*pos..*pos + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or_else(|| format!("truncated \\u escape at byte {pos}"))?;
        let v =
            u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape at byte {pos}"))?;
        *pos += 4;
        Ok(v)
    };
    let hi = unit(pos)?;
    let code = match hi {
        0xD800..=0xDBFF => {
            if bytes.get(*pos) != Some(&b'\\') || bytes.get(*pos + 1) != Some(&b'u') {
                return Err(format!("unpaired high surrogate before byte {pos}"));
            }
            *pos += 2;
            let lo = unit(pos)?;
            if !(0xDC00..=0xDFFF).contains(&lo) {
                return Err(format!("invalid low surrogate before byte {pos}"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        }
        0xDC00..=0xDFFF => return Err(format!("unpaired low surrogate before byte {pos}")),
        c => c,
    };
    char::from_u32(code).ok_or_else(|| format!("invalid \\u code point before byte {pos}"))
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: u32) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut members: Vec<(String, Json)> = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        if members.iter().any(|(k, _)| *k == key) {
            return Err(format!("duplicate key {key:?} at byte {pos}"));
        }
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth + 1)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            other => {
                return Err(format!(
                    "expected ',' or '}}' at byte {pos}, found {:?}",
                    other.map(|&c| c as char)
                ))
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: u32) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            other => {
                return Err(format!(
                    "expected ',' or ']' at byte {pos}, found {:?}",
                    other.map(|&c| c as char)
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_figure_schema() {
        let doc = parse(
            "{\"figure\":\"fig05_phi\",\"rows\":[{\"label\":\"Baseline\",\
             \"cycles\":1091156,\"speedup\":1.0,\"invoke_rtt\":{\"count\":0}}]}",
        )
        .unwrap();
        assert_eq!(doc.get("figure").and_then(Json::as_str), Some("fig05_phi"));
        let rows = doc.get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(rows[0].get("cycles"), Some(&Json::Num(1091156.0)));
    }

    #[test]
    fn round_trips_escapes_and_rejects_garbage() {
        assert_eq!(
            parse("\"a\\\"b\\\\c\"").unwrap(),
            Json::Str("a\"b\\c".into())
        );
        assert_eq!(
            parse("[true,false,null,-1.5e3]").unwrap(),
            Json::Arr(vec![
                Json::Bool(true),
                Json::Bool(false),
                Json::Null,
                Json::Num(-1500.0),
            ])
        );
        assert!(parse("{\"a\":1} x").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn own_emitters_parse() {
        let table = crate::table_json("t", &["a"], &[vec!["x\"y".into()]]);
        assert!(parse(&table).is_ok(), "{table}");
        let manifest = crate::runner::manifest_json(false);
        assert!(parse(&manifest).is_ok(), "{manifest}");
    }

    #[test]
    fn as_num_extracts_numbers_only() {
        assert_eq!(Json::Num(2.5).as_num(), Some(2.5));
        assert_eq!(Json::Str("2.5".into()).as_num(), None);
        assert_eq!(Json::Null.as_num(), None);
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let err = parse("{\"a\":1,\"b\":2,\"a\":3}").unwrap_err();
        assert!(err.contains("duplicate key \"a\""), "{err}");
        // Same key in sibling objects is fine.
        assert!(parse("{\"x\":{\"a\":1},\"y\":{\"a\":2}}").is_ok());
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        // Within the cap parses...
        let depth = 100usize;
        let ok = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&ok).is_ok());
        // ...past the cap is an error, not a stack overflow or panic.
        let deep = format!("{}1{}", "[".repeat(400), "]".repeat(400));
        let err = parse(&deep).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
        // Unclosed-but-deep input hits the cap before the EOF error.
        assert!(parse(&"[".repeat(400)).is_err());
        assert!(parse(&"{\"k\":[".repeat(400)).is_err());
    }

    #[test]
    fn every_truncation_of_a_valid_document_errors() {
        let doc = "{\"figure\":\"fig05\",\"rows\":[{\"label\":\"B \\\"q\\\"\",\
                   \"cycles\":1091156,\"speedup\":1.5e0,\"flags\":[true,false,null],\
                   \"hist\":{\"p50\":32}}]}";
        assert!(parse(doc).is_ok());
        for cut in 0..doc.len() {
            if !doc.is_char_boundary(cut) {
                continue;
            }
            let prefix = &doc[..cut];
            assert!(
                parse(prefix).is_err(),
                "strict prefix of len {cut} parsed: {prefix:?}"
            );
        }
    }

    #[test]
    fn unicode_escapes_parse_including_surrogate_pairs() {
        assert_eq!(parse("\"\\u0041\"").unwrap(), Json::Str("A".into()));
        assert_eq!(parse("\"\\u00e9\"").unwrap(), Json::Str("é".into()));
        // Astral plane via a surrogate pair (U+1F600).
        assert_eq!(parse("\"\\ud83d\\ude00\"").unwrap(), Json::Str("😀".into()));
        assert!(parse("\"\\ud83d\"").is_err(), "unpaired high surrogate");
        assert!(parse("\"\\ude00\"").is_err(), "unpaired low surrogate");
        assert!(parse("\"\\u00g1\"").is_err(), "bad hex digit");
        assert!(parse("\"\\u00\"").is_err(), "truncated escape");
    }

    #[test]
    fn writer_produces_parseable_output_with_correct_escaping() {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("name").str("a\"b\\c\nd\u{1}");
        w.key("flags").begin_arr().bool(true).bool(false).end_arr();
        w.key("n").u64(42);
        w.key("f").fixed(2.5, 6);
        w.end_obj();
        let text = w.finish();
        assert_eq!(
            text,
            "{\"name\":\"a\\\"b\\\\c\\nd\\u0001\",\"flags\":[true,false],\
             \"n\":42,\"f\":2.500000}"
        );
        let doc = parse(&text).expect("writer output parses");
        assert_eq!(
            doc.get("name").and_then(Json::as_str),
            Some("a\"b\\c\nd\u{1}")
        );
        assert_eq!(
            doc.get("flags"),
            Some(&Json::Arr(vec![Json::Bool(true), Json::Bool(false)]))
        );
    }

    #[test]
    fn writer_places_commas_between_nested_values() {
        let mut w = JsonWriter::new();
        w.begin_arr();
        w.begin_obj().key("a").u64(1).end_obj();
        w.begin_obj().key("b").u64(2).key("c").u64(3).end_obj();
        w.u64(9);
        w.end_arr();
        assert_eq!(w.finish(), "[{\"a\":1},{\"b\":2,\"c\":3},9]");
    }

    #[test]
    fn seeded_mutations_never_panic() {
        use levi_sim::rng::SmallRng;
        let doc = "{\"perf_report\":{\"version\":1,\"quick\":true,\"profiled\":false,\
                   \"benches\":[{\"id\":\"micro/x\",\"median\":31.25,\
                   \"rounds\":[31.2,-1.0e2]}]}}";
        let mut rng = SmallRng::seed_from_u64(482_850_217);
        for _ in 0..2000 {
            let mut bytes = doc.as_bytes().to_vec();
            // Flip 1-4 bytes to arbitrary values; parse must return
            // Ok or Err, never panic or hang.
            for _ in 0..(1 + rng.bounded(4)) {
                let i = rng.bounded(bytes.len() as u64) as usize;
                bytes[i] = (rng.next_u64() & 0xff) as u8;
            }
            if let Ok(text) = std::str::from_utf8(&bytes) {
                let _ = parse(text);
            }
        }
    }
}
