//! Untrusted-input harness for every parser bytes from the network or a
//! reload request reach: `http::parse_request`, each `wire::parse_*`
//! decoder, `json::parse` and `Dataset::parse`.
//!
//! Inputs are drawn on the vendored proptest shim, whose cases are
//! seeded from the test name, plus one corpus drawn from the fixed
//! [`CORPUS_SEED`]. The oracle is the same everywhere:
//!
//! 1. **No panic.** Every call runs under `catch_unwind`. (A stack
//!    overflow aborts rather than panics; the deep-nesting cases show
//!    that none happens.)
//! 2. **Stable rejections.** Every `Err` renders through
//!    `wire::render_error` to a `400` whose body parses and carries a
//!    code from [`STABLE_CODES`], as the server would send it.
//! 3. **Same typed request.** Respelling a valid body (whitespace
//!    between tokens, `\u` escapes for string characters, long string
//!    values written with `json::write_str`) decodes to the request the
//!    plain body decodes to. For mutated bodies (truncated, byte-flipped,
//!    shallow nesting spliced in, stray `\u` escapes) the outcome of
//!    every corpus case is folded into a digest pinned in
//!    [`EXPECTED_CORPUS`], so a parser change that alters any outcome —
//!    a request, an error code or an error message — fails here.
//!
//! Bodies nested past `json::MAX_DEPTH` must be refused with
//! `CODE_SERVE_BODY_TOO_DEEP` wherever the nesting is spliced in.

use actfort_core::error::CODE_QUERY;
use actfort_core::obs::json::{self, Json, MAX_DEPTH};
use actfort_core::Error;
use actfort_serve::http::{self, Parse, MAX_BODY_BYTES};
use actfort_serve::{wire, Dataset, CODE_SERVE_BODY_TOO_DEEP};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Every discriminant a rejected request body, request head or dataset
/// spelling may carry on the wire.
const STABLE_CODES: [u16; 2] = [CODE_QUERY, CODE_SERVE_BODY_TOO_DEEP];

/// Seed of the pinned mutation corpus.
const CORPUS_SEED: u64 = 0x5EED_AC7F;

/// Cases in the pinned mutation corpus.
const CORPUS_CASES: usize = 3000;

/// The corpus outcome: case counts by result, and an FNV-1a digest of
/// every case's outcome line. Recorded with the parser as it was before
/// its string scan became linear and its nesting bounded; the corpus
/// never nests past `MAX_DEPTH`, so both parsers must agree on it.
const EXPECTED_CORPUS: &str = "ok=549 query=2451 too_deep=0 digest=0fb28715bf7aa0ea";

/// One typed decoder: the route it serves, a valid body for it, and
/// the decoder with its request spelled through `Debug`.
struct Decoder {
    route: &'static str,
    body: &'static str,
    decode: fn(&[u8]) -> Result<String, Error>,
}

fn spelled<T: Debug>(result: Result<T, Error>) -> Result<String, Error> {
    result.map(|request| format!("{request:?}"))
}

fn decoders() -> [Decoder; 5] {
    [
        Decoder {
            route: "forward",
            body: r#"{"seeds":["gmail","taobao"],"engine":"naive","memo":false}"#,
            decode: |b| spelled(wire::parse_forward(b)),
        },
        Decoder {
            route: "backward",
            body: r#"{"target":"alipay","max_chains":2,"budget":2000,"edge_class":"login_only"}"#,
            decode: |b| spelled(wire::parse_backward(b)),
        },
        Decoder {
            route: "score",
            body: r#"{"profiles":[{"services":["gmail","taobao"],"factors":["sms_code","email_code"]},{"services":["alipay"]}],"engine":"auto","deadline_ms":50}"#,
            decode: |b| spelled(wire::parse_score(b)),
        },
        Decoder {
            route: "whatif",
            body: r#"{"countermeasures":["built_in_push","unified_masking"],"severed_chains":3}"#,
            decode: |b| spelled(wire::parse_whatif(b)),
        },
        Decoder {
            route: "reload",
            body: r#"{"dataset":"paper:2022"}"#,
            decode: |b| spelled(wire::parse_reload(b)),
        },
    ]
}

/// Runs `f` under `catch_unwind`, failing the case on a panic.
fn no_panic<T>(what: &str, input: &[u8], f: impl FnOnce() -> T) -> Result<T, TestCaseError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|_| {
        TestCaseError::fail(format!("{what} panicked on {:?}", String::from_utf8_lossy(input)))
    })
}

/// Renders `err` as the server would and returns its wire code, failing
/// the case unless the body is a `400` carrying a stable code.
fn stable_code(err: &Error) -> Result<u16, TestCaseError> {
    let (status, body) = wire::render_error(err);
    let text = std::str::from_utf8(&body)
        .map_err(|_| TestCaseError::fail(format!("error body is not UTF-8: {err}")))?;
    let doc = json::parse(text)
        .map_err(|e| TestCaseError::fail(format!("error body {text:?} does not parse: {e}")))?;
    let code = doc.get("error").and_then(|e| e.get("code")).and_then(Json::as_num);
    prop_assert_eq!(status, 400, "{}", text);
    prop_assert_eq!(code, Some(f64::from(err.code())), "{}", text);
    prop_assert!(STABLE_CODES.contains(&err.code()), "unstable code in {}", text);
    Ok(err.code())
}

/// Decodes `body` and spells the outcome as one line.
fn outcome(decoder: &Decoder, body: &[u8]) -> Result<String, TestCaseError> {
    match no_panic(decoder.route, body, || (decoder.decode)(body))? {
        Ok(request) => Ok(format!("ok {request}")),
        Err(e) => Ok(format!("err {} {e}", stable_code(&e)?)),
    }
}

/// Byte offsets inside `body` where a JSON value may start, outside
/// string literals: just after a `:` or a `[`, or a `,` inside an array.
fn value_starts(body: &str) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut open: Vec<u8> = Vec::new();
    let mut in_string = false;
    let mut escaped = false;
    for (i, b) in body.bytes().enumerate() {
        if in_string {
            match (escaped, b) {
                (true, _) => escaped = false,
                (false, b'\\') => escaped = true,
                (false, b'"') => in_string = false,
                _ => {}
            }
        } else {
            match b {
                b'"' => in_string = true,
                b'{' => open.push(b),
                b'}' | b']' => {
                    open.pop();
                }
                b'[' => {
                    open.push(b);
                    starts.push(i + 1);
                }
                b':' => starts.push(i + 1),
                b',' if open.last() == Some(&b'[') => starts.push(i + 1),
                _ => {}
            }
        }
    }
    starts
}

/// Respells `body` without changing its meaning: `ws` chooses how much
/// whitespace goes around each structural byte, and `escape` which
/// string characters become `\uXXXX` escapes (upper- or lower-case hex,
/// chosen per character by the same bits).
fn respell(body: &str, ws: &[u8], escape: &[u8]) -> String {
    const WS: [&str; 4] = ["", " ", "\n\t", "\r\n  "];
    let mut out = String::with_capacity(body.len() * 3);
    let mut in_string = false;
    for (i, c) in body.chars().enumerate() {
        let pick = |bits: &[u8]| bits.get(i % bits.len().max(1)).copied().unwrap_or(0);
        if in_string {
            if c == '"' {
                in_string = false;
                out.push(c);
            } else if pick(escape) % 3 == 0 {
                let hex = if pick(escape) % 2 == 0 {
                    format!("\\u{:04x}", c as u32)
                } else {
                    format!("\\u{:04X}", c as u32)
                };
                out.push_str(&hex);
            } else {
                out.push(c);
            }
        } else {
            if c == '"' {
                in_string = true;
            }
            let pad = WS[usize::from(pick(ws)) % WS.len()];
            if matches!(c, '{' | '}' | '[' | ']' | ':' | ',') {
                out.push_str(pad);
                out.push(c);
                out.push_str(pad);
            } else {
                out.push(c);
            }
        }
    }
    out
}

const PIECES: [&str; 24] = [
    "{", "}", "[", "]", "\"", "\\", ":", ",", " ", "\n", "é", "😀", "\\u", "\\ud800", "\\u00e9",
    "\\u+041", "\\x", "0", "-1.5e3", "true", "nul", "\u{1}", "\"seeds\":", "1e999",
];

/// The mutations of the pinned corpus. None nests more than 60 levels
/// past a body's own (at most 4), so none reaches `MAX_DEPTH`.
fn mutate(body: &str, rng: &mut TestRng) -> (&'static str, Vec<u8>) {
    let mut bytes = body.as_bytes().to_vec();
    let at = (0..=bytes.len()).generate(rng);
    match (0u8..6).generate(rng) {
        0 => {
            bytes.truncate(at);
            ("truncate", bytes)
        }
        1 => {
            let at = at.min(bytes.len() - 1);
            bytes[at] = any::<u8>().generate(rng);
            ("flip", bytes)
        }
        2 => {
            let k = (1usize..=60).generate(rng);
            let open = if any::<bool>().generate(rng) { "[" } else { r#"{"k":"# };
            bytes.splice(at..at, open.repeat(k).into_bytes());
            ("nest", bytes)
        }
        3 => {
            let digit = prop::sample::select("0a9F+-zé".chars().collect::<Vec<_>>());
            let hex: String = (0..4).map(|_| digit.generate(rng)).collect();
            bytes.splice(at..at, format!("\\u{hex}").into_bytes());
            ("escape", bytes)
        }
        4 => {
            let piece = PIECES[(0..PIECES.len()).generate(rng)];
            bytes.splice(at..at, piece.bytes());
            ("splice", bytes)
        }
        _ => {
            let end = (at..=bytes.len()).generate(rng);
            bytes.drain(at..end);
            ("cut", bytes)
        }
    }
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Every corpus case's outcome, as counts plus a digest of the lines.
fn corpus_summary() -> Result<String, TestCaseError> {
    let decoders = decoders();
    let mut rng = TestRng::deterministic(CORPUS_SEED);
    let (mut ok, mut query, mut deep) = (0, 0, 0);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for case in 0..CORPUS_CASES {
        let decoder = &decoders[case % decoders.len()];
        let (mutation, body) = mutate(decoder.body, &mut rng);
        let line = outcome(decoder, &body)?;
        if line.starts_with("ok ") {
            ok += 1;
        } else if line.starts_with(&format!("err {CODE_QUERY} ")) {
            query += 1;
        } else {
            deep += 1;
        }
        fnv1a(&mut digest, format!("{} {mutation} {line}\n", decoder.route).as_bytes());
    }
    Ok(format!("ok={ok} query={query} too_deep={deep} digest={digest:016x}"))
}

#[test]
fn mutated_bodies_decode_as_pinned() {
    let summary = corpus_summary().unwrap_or_else(|e| panic!("{e:?}"));
    assert_eq!(summary, EXPECTED_CORPUS);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn respelled_bodies_decode_to_the_same_request(
        route in 0usize..5,
        ws in prop::collection::vec(any::<u8>(), 1..16),
        escape in prop::collection::vec(any::<u8>(), 1..16),
    ) {
        let decoder = &decoders()[route];
        let known = outcome(decoder, decoder.body.as_bytes())?;
        prop_assert!(known.starts_with("ok "), "{}", known);
        let body = respell(decoder.body, &ws, &escape);
        prop_assert_eq!(outcome(decoder, body.as_bytes())?, known, "{}", body);
    }

    #[test]
    fn nesting_past_max_depth_is_refused_everywhere(
        route in 0usize..5,
        pick in any::<usize>(),
        extra in 1usize..10_000,
        objects in any::<bool>(),
    ) {
        let decoder = &decoders()[route];
        let starts = value_starts(decoder.body);
        let at = starts[pick % starts.len()];
        let open = if objects { r#"{"k":"# } else { "[" };
        let mut body = decoder.body.to_owned();
        body.insert_str(at, &open.repeat(MAX_DEPTH + extra));
        let line = outcome(decoder, body.as_bytes())?;
        prop_assert!(
            line.starts_with(&format!("err {CODE_SERVE_BODY_TOO_DEEP} ")),
            "{}: {}", decoder.route, line
        );
    }

    #[test]
    fn json_parse_never_panics(pieces in prop::collection::vec(0usize..PIECES.len(), 0..40)) {
        let doc: String = pieces.iter().map(|&i| PIECES[i]).collect();
        let parsed = no_panic("json::parse", doc.as_bytes(), || json::parse(&doc))?;
        if let Err(e) = parsed {
            prop_assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn dataset_spellings_parse_or_reject_stably(
        prefix in prop::sample::select(vec!["", "paper", "paper:", "curated", "PAPER:", "paper:-"]),
        digits in prop::collection::vec(
            prop::sample::select("0123456789+ xé".chars().collect::<Vec<_>>()),
            0..24,
        ),
    ) {
        let text = format!("{prefix}{}", digits.into_iter().collect::<String>());
        match no_panic("Dataset::parse", text.as_bytes(), || Dataset::parse(&text))? {
            Ok(dataset) => prop_assert_eq!(Dataset::parse(&dataset.name()), Ok(dataset)),
            Err(e) => prop_assert_eq!(stable_code(&e)?, CODE_QUERY),
        }
    }

    #[test]
    fn raw_request_heads_frame_or_reject_stably(
        parts in prop::collection::vec(prop::sample::select(vec![
            "GET", "POST", " ", "/v1/score", "/healthz", "HTTP/1.1", "HTTP/2", "\r\n",
            "content-length: ", "Content-Length:", "5", "-1", "99999999999999999999",
            "1048577", "connection: close", ":", "\u{0}", "é", "x", "\r\n\r\n",
        ]), 0..24),
        tail in prop::collection::vec(any::<u8>(), 0..16),
    ) {
        let mut buf = parts.concat().into_bytes();
        buf.extend_from_slice(&tail);
        match no_panic("http::parse_request", &buf, || http::parse_request(&buf))? {
            Parse::Partial => {}
            Parse::Complete { request, consumed } => {
                prop_assert!(consumed <= buf.len());
                prop_assert!(request.body.len() <= MAX_BODY_BYTES);
                prop_assert_eq!(&buf[consumed - request.body.len()..consumed], &request.body[..]);
            }
            Parse::Malformed(message) => {
                prop_assert_eq!(stable_code(&Error::Query(message))?, CODE_QUERY);
            }
        }
    }

    #[test]
    fn split_requests_frame_identically_at_every_split(
        route in 0usize..5,
        pipelined in any::<bool>(),
    ) {
        let body = decoders()[route].body;
        let first = format!(
            "POST /v1/{} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            decoders()[route].route,
            body.len()
        );
        let mut buf = first.clone().into_bytes();
        if pipelined {
            buf.extend_from_slice(b"GET /healthz HTTP/1.1\r\n\r\n");
        }
        for split in 0..first.len() {
            let parsed = no_panic("http::parse_request", &buf[..split], || {
                http::parse_request(&buf[..split])
            })?;
            prop_assert!(matches!(parsed, Parse::Partial), "split at {}: {:?}", split, parsed);
        }
        let Parse::Complete { request, consumed } = http::parse_request(&buf) else {
            return Err(TestCaseError::fail("whole request did not frame"));
        };
        prop_assert_eq!(consumed, first.len());
        prop_assert_eq!(request.body, body.as_bytes());
        if pipelined {
            let Parse::Complete { request, consumed } = http::parse_request(&buf[consumed..])
            else {
                return Err(TestCaseError::fail("pipelined successor did not frame"));
            };
            prop_assert_eq!(request.path, "/healthz");
            prop_assert_eq!(consumed, buf.len() - first.len());
        }
    }
}

proptest! {
    // Each case writes and parses up to 256 Ki characters, so fewer cases.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn long_string_values_decode_verbatim(
        len in 1usize..(256 << 10),
        alphabet in prop::sample::select(vec!["a", "é€", "😀\"\\", "\u{1}\n\t/", "gmail"]),
    ) {
        let seed: String = alphabet.chars().cycle().take(len).collect();
        let mut body = String::from(r#"{"seeds":["#);
        json::write_str(&mut body, &seed);
        body.push_str("]}");
        let request =
            no_panic("forward", body.as_bytes(), || wire::parse_forward(body.as_bytes()))?;
        let request = request.map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(request.seeds.len(), 1);
        prop_assert!(request.seeds[0].as_str() == seed, "seed of {} chars changed", len);
    }
}
