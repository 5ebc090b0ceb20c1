//! Minimal JSON emission and parsing.
//!
//! The workspace is offline (`serde` is a marker-trait shim and there is
//! no `serde_json`), so the observability layer carries its own writer
//! and a small recursive-descent parser. The writer renders
//! [`super::ObsSnapshot`]s and the serve wire bodies. The parser reads
//! untrusted input: `actfort-serve` parses every request body with it on
//! its reactor thread, as well as trace files and `/metrics` snapshots.
//! It therefore runs in time linear in the input (each run of plain
//! string bytes is copied in one slice) and refuses nesting deeper than
//! [`MAX_DEPTH`] with [`ParseError::TooDeep`] instead of growing the
//! stack without bound.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`; snapshot values fit exactly below
    /// 2^53, far above any counter this layer records in practice).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, with keys in source order collapsed to sorted order.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The object's keys, when this is an object.
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(m) => m.keys().map(String::as_str).collect(),
            _ => Vec::new(),
        }
    }

    /// Numeric value, when this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String value, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Appends `s` to `out` as a JSON string literal with escaping.
pub fn write_str(out: &mut String, s: &str) {
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

/// Deepest nesting of arrays and objects [`parse`] accepts. Request
/// bodies nest 4 deep, obs snapshots and trace files fewer than 10; the
/// bound keeps the recursive descent a few kilobytes deep on any stack.
pub const MAX_DEPTH: usize = 64;

/// Why [`parse`] rejected a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// An array or object opening at byte `at` would nest deeper than
    /// [`MAX_DEPTH`].
    TooDeep {
        /// Byte offset of the opening bracket.
        at: usize,
    },
    /// Any other malformation, described with its byte offset.
    Syntax(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::TooDeep { at } => {
                write!(f, "nesting deeper than {MAX_DEPTH} levels at byte {at}")
            }
            ParseError::Syntax(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for ParseError {}

fn syntax(msg: impl Into<String>) -> ParseError {
    ParseError::Syntax(msg.into())
}

/// Parses a complete JSON document in time linear in its length.
///
/// # Errors
///
/// [`ParseError::TooDeep`] past [`MAX_DEPTH`]; otherwise
/// [`ParseError::Syntax`] with a human-readable description (with byte
/// offset) on malformed input or trailing garbage.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser { text: input, bytes: input.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(syntax(format!("trailing garbage at byte {}", p.pos)));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(syntax(format!("expected '{}' at byte {}", b as char, self.pos)))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(ParseError::TooDeep { at: self.pos });
                }
                self.depth += 1;
                let v = if open == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(syntax(format!("unexpected input at byte {}", self.pos))),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(syntax(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| syntax(format!("invalid number at byte {start}")))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain bytes up to the next quote or
            // backslash as one slice. `pos` only ever advances past
            // ASCII bytes or whole runs, and both stoppers are ASCII, so
            // the run starts and ends on char boundaries of `text`.
            let rest = &self.bytes[self.pos..];
            let run = rest.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(rest.len());
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(syntax("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| syntax("truncated \\u escape"))?;
                            // Four bytes that are valid UTF-8 *and* a radix-16
                            // number are ASCII, so `pos` stays on a boundary.
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| syntax("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(syntax(format!("bad escape at byte {}", self.pos))),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(syntax(format!("expected ',' or '}}' at byte {}", self.pos))),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
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
                _ => return Err(syntax(format!("expected ',' or ']' at byte {}", self.pos))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_snapshot_shaped_documents() {
        let doc = r#"{
            "counters": {"engine.rounds": 4, "gsm.sniffer.sms_recovered": 2},
            "spans": {"forward.incremental": {"count": 1, "total_ns": 1234}},
            "events": [{"seq": 0, "name": "attack.step", "fields": {"service": "gmail"}}],
            "events_dropped": 0
        }"#;
        let v = parse(doc).expect("parses");
        assert_eq!(
            v.get("counters").and_then(|c| c.get("engine.rounds")).and_then(Json::as_num),
            Some(4.0)
        );
        assert_eq!(v.get("events_dropped").and_then(Json::as_num), Some(0.0));
        let spans = v.get("spans").expect("spans");
        assert_eq!(spans.keys(), vec!["forward.incremental"]);
    }

    #[test]
    fn roundtrips_escaped_strings() {
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\nd\te\u{1}");
        let parsed = parse(&out).expect("parses");
        assert_eq!(parsed.as_str(), Some("a\"b\\c\nd\te\u{1}"));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn escapes_and_raw_bytes_keep_their_meaning() {
        // Lone surrogates (and halves of a pair) decode to U+FFFD, raw
        // control characters and multi-byte scalars pass through, and
        // `\/` is a slash.
        assert_eq!(
            parse(r#""\ud800|\ud83d\ude00|\u00e9""#).unwrap().as_str(),
            Some("\u{fffd}|\u{fffd}\u{fffd}|é")
        );
        assert_eq!(parse("\"a\u{1}\tb\"").unwrap().as_str(), Some("a\u{1}\tb"));
        assert_eq!(parse(r#""€\"😀\\\/ü""#).unwrap().as_str(), Some("€\"😀\\/ü"));
        // Error texts keep their byte offsets.
        let err = |doc: &str| parse(doc).unwrap_err().to_string();
        assert_eq!(err(r#""ab\x""#), "bad escape at byte 4");
        assert_eq!(err(r#""é\u12"#), "truncated \\u escape");
        assert_eq!(err(r#""\uzzzz""#), "bad \\u escape");
        assert_eq!(err(r#"["€€", 1,]"#), "unexpected input at byte 13");
        assert_eq!(err(r#""€€"#), "unterminated string");
        assert_eq!(err(r#"{"a" 1}"#), "expected ':' at byte 5");
    }

    /// `depth` levels of `open`…`close` around `inner`.
    fn nested(depth: usize, open: &str, inner: &str, close: &str) -> String {
        format!("{}{inner}{}", open.repeat(depth), close.repeat(depth))
    }

    #[test]
    fn nesting_is_bounded_by_max_depth() {
        // On an explicit 2 MiB stack, so the test also shows that the
        // bound keeps the recursion shallow.
        let worker = std::thread::Builder::new().stack_size(2 << 20).spawn(|| {
            for (open, inner, close) in [("[", "", "]"), (r#"{"a":"#, "1", "}")] {
                let ok = nested(MAX_DEPTH, open, inner, close);
                assert!(parse(&ok).is_ok(), "{MAX_DEPTH} levels of {open} parse");
                let deep = nested(MAX_DEPTH + 1, open, inner, close);
                let at = MAX_DEPTH * open.len();
                assert_eq!(parse(&deep), Err(ParseError::TooDeep { at }));
                // Far past the bound, and unterminated: still a typed
                // refusal, not a stack overflow.
                let hostile = open.repeat(10_000);
                assert_eq!(parse(&hostile), Err(ParseError::TooDeep { at }));
            }
        });
        worker.expect("spawn").join().expect("depth checks pass");
    }

    #[test]
    fn one_mebibyte_string_parses_in_linear_time() {
        let text: String = "ab€\"😀\\".chars().cycle().take(1 << 20).collect();
        let mut doc = String::new();
        write_str(&mut doc, &text);
        let started = std::time::Instant::now();
        let parsed = parse(&doc).expect("parses");
        let took = started.elapsed();
        assert_eq!(parsed.as_str(), Some(text.as_str()));
        assert!(took < std::time::Duration::from_secs(1), "1 MiB string took {took:?}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn write_str_then_parse_roundtrips(
            chars in proptest::collection::vec(
                proptest::prop_oneof![
                    proptest::arbitrary::any::<char>(),
                    proptest::char::range('\u{0}', '\u{7f}'),
                    proptest::sample::select(
                        vec!['"', '\\', '/', 'é', '€', '😀', '\u{7f}', '\u{80}'],
                    ),
                ],
                0..48,
            )
        ) {
            let s: String = chars.into_iter().collect();
            let mut doc = String::new();
            write_str(&mut doc, &s);
            proptest::prop_assert_eq!(parse(&doc), Ok(Json::Str(s.clone())));
            // The same string as an object key and inside an array.
            let wrapped = format!("{{{doc}:[{doc}]}}");
            let expected = Json::Obj(BTreeMap::from([(s.clone(), Json::Arr(vec![Json::Str(s)]))]));
            proptest::prop_assert_eq!(parse(&wrapped), Ok(expected));
        }
    }

    #[test]
    fn parses_scalars_and_nesting() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(
            parse("[[], {}, [0]]").unwrap(),
            Json::Arr(vec![Json::Arr(vec![]), Json::Obj(BTreeMap::new()), Json::Arr(vec![Json::Num(0.0)])])
        );
    }
}
