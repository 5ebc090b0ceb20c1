//! Integration tests for the versioned route table:
//!
//! 1. every analysis endpoint answers at both spellings (`/x` and
//!    `/v1/x`) with identical bodies — the two are one route, not two;
//! 2. infrastructure routes exist only bare (`/v1/healthz` is a 404);
//! 3. a version-shaped prefix this server does not speak is a `400`
//!    with the stable `CODE_SERVE_UNKNOWN_VERSION` discriminant and
//!    `"unknown_version"` kind — distinct from a typo'd path's 404;
//! 4. the shared `edge_class` envelope field parses on every endpoint,
//!    rejects unknown spellings with the query discriminant, and a
//!    `recovery_only` forward differs from the unfiltered one on the
//!    curated dataset (the recovery surface is real, not a no-op
//!    filter);
//! 5. the retired `"incremental"` engine spelling is an unknown engine
//!    at both spellings of the route;
//! 6. a body nested past `json::MAX_DEPTH` — 10,000 `[`, or 10,000
//!    levels of `{"a":` — is a `400` with `CODE_SERVE_BODY_TOO_DEEP` on
//!    every analysis route at both spellings and on `/admin/reload`,
//!    and the server keeps answering on other connections;
//! 7. `/backward` refuses the naive reference engine and a `budget`
//!    above `MAX_BACKWARD_PARTIALS` with the query discriminant, at both
//!    spellings;
//! 8. `"prepared"` is the older spelling of `"auto"`: it hits `"auto"`'s
//!    cache entry and gets its exact bytes;
//! 9. every analysis route goes through one pipeline: a miss records
//!    `serve.<route>/compute`, `serve.<route>/render` and
//!    `serve.<route>.latency_ns`, and a hit adds latency but no compute.
//!
//! The obs recorder is process-global, so tests serialize behind one
//! mutex.

use actfort_core::obs::json::{self, Json};
use actfort_serve::{
    start, Client, ServerConfig, CODE_SERVE_BODY_TOO_DEEP, CODE_SERVE_UNKNOWN_VERSION,
};
use std::sync::{Mutex, MutexGuard};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn obs_reset_enabled() {
    actfort_core::obs::reset();
    actfort_core::obs::set_enabled(true);
}

fn error_field(resp: &actfort_serve::ClientResponse, field: &str) -> Json {
    json::parse(resp.text())
        .expect("error body parses")
        .get("error")
        .and_then(|e| e.get(field))
        .cloned()
        .expect("error field present")
}

#[test]
fn every_analysis_endpoint_answers_at_both_spellings() {
    let _g = lock();
    obs_reset_enabled();
    let handle = start(ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");

    for (tail, body) in [
        ("forward", &br#"{"seeds":["gmail"]}"#[..]),
        ("backward", br#"{"target":"alipay","max_chains":2}"#),
        ("score", br#"{"profiles":[{"services":["gmail","taobao"]}]}"#),
        ("whatif", br#"{"countermeasures":["built_in_push"]}"#),
    ] {
        let bare = client.post(&format!("/{tail}"), body).expect("bare spelling");
        assert_eq!(bare.status, 200, "/{tail}: {}", bare.text());
        let versioned = client.post(&format!("/v1/{tail}"), body).expect("v1 spelling");
        assert_eq!(versioned.status, 200, "/v1/{tail}: {}", versioned.text());
        // One route, one cache entry, identical bytes.
        assert_eq!(bare.body, versioned.body, "/{tail} vs /v1/{tail}");
        assert_eq!(versioned.header("x-actfort-cache"), Some("hit"), "/v1/{tail}");
    }

    // Infrastructure routes are deliberately unversioned.
    assert_eq!(client.get("/healthz").expect("healthz").status, 200);
    assert_eq!(client.get("/v1/healthz").expect("v1 healthz").status, 404);
    assert_eq!(client.get("/v1/metrics").expect("v1 metrics").status, 404);

    // Wrong method on either spelling is 405, not 404.
    assert_eq!(client.get("/forward").expect("GET bare").status, 405);
    assert_eq!(client.get("/v1/forward").expect("GET v1").status, 405);

    handle.shutdown();
    actfort_core::obs::set_enabled(false);
}

#[test]
fn unknown_versions_reject_with_a_stable_discriminant() {
    let _g = lock();
    obs_reset_enabled();
    let handle = start(ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");

    for path in ["/v2/forward", "/v0/healthz", "/v99/whatif"] {
        let resp = client.post(path, b"{}").expect("request");
        assert_eq!(resp.status, 400, "{path}: {}", resp.text());
        assert_eq!(
            error_field(&resp, "code").as_num(),
            Some(f64::from(CODE_SERVE_UNKNOWN_VERSION)),
            "{path}"
        );
        assert_eq!(error_field(&resp, "kind").as_str(), Some("unknown_version"), "{path}");
    }
    // Not version-shaped: ordinary 404s, untouched by the version split.
    assert_eq!(client.post("/version", b"{}").expect("request").status, 404);
    assert_eq!(client.post("/v1", b"{}").expect("request").status, 404);

    handle.shutdown();
    actfort_core::obs::set_enabled(false);
}

#[test]
fn edge_class_filters_over_the_wire_and_rejects_unknown_spellings() {
    let _g = lock();
    obs_reset_enabled();
    let handle = start(ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let compromised = |resp: &actfort_serve::ClientResponse| {
        json::parse(resp.text())
            .expect("forward JSON")
            .get("compromised")
            .and_then(Json::as_num)
            .expect("compromised count")
    };

    // An explicit "all" is the default spelled out: identical bytes.
    let default = client.post("/forward", b"{}").expect("default");
    assert_eq!(default.status, 200, "{}", default.text());
    let all = client.post("/forward", br#"{"edge_class":"all"}"#).expect("all");
    assert_eq!(default.body, all.body, "explicit all must be the identity");
    assert_eq!(all.header("x-actfort-cache"), Some("hit"), "and share the cache entry");

    // The login-only view drops recovery-reachable accounts, and the
    // recovery-only view is non-empty on the curated dataset: some
    // accounts fall *only* through recovery flows.
    let login =
        client.post("/forward", br#"{"edge_class":"login_only"}"#).expect("login_only");
    assert_eq!(login.status, 200, "{}", login.text());
    let recovery =
        client.post("/forward", br#"{"edge_class":"recovery_only"}"#).expect("recovery_only");
    assert_eq!(recovery.status, 200, "{}", recovery.text());
    assert!(
        compromised(&login) < compromised(&default),
        "curated dataset must have recovery-reachable accounts"
    );
    assert!(
        compromised(&recovery) > 0.0,
        "curated dataset must have recovery-only falls"
    );
    assert_ne!(default.body, recovery.body);

    // Every endpoint rejects an unknown class with the stable message.
    for (path, body) in [
        ("/forward", &br#"{"edge_class":"sideways"}"#[..]),
        ("/backward", br#"{"target":"alipay","edge_class":"sideways"}"#),
        ("/score", br#"{"profiles":[],"edge_class":"sideways"}"#),
        ("/whatif", br#"{"edge_class":"sideways"}"#),
    ] {
        let resp = client.post(path, body).expect("request");
        assert_eq!(resp.status, 400, "{path}: {}", resp.text());
        assert_eq!(
            error_field(&resp, "code").as_num(),
            Some(f64::from(actfort_core::error::CODE_QUERY)),
            "{path}"
        );
    }

    // The filter reaches backward too: the recovery-only view excludes
    // taobao's direct login chain, so its chain set differs from the
    // full one.
    let full = client
        .post("/backward", br#"{"target":"taobao","max_chains":4}"#)
        .expect("backward");
    assert_eq!(full.status, 200, "{}", full.text());
    let filtered = client
        .post("/backward", br#"{"target":"taobao","max_chains":4,"edge_class":"recovery_only"}"#)
        .expect("backward filtered");
    assert_eq!(filtered.status, 200, "{}", filtered.text());
    assert_ne!(full.body, filtered.body, "filter must reach the chain search");

    handle.shutdown();
    actfort_core::obs::set_enabled(false);
}

#[test]
fn retired_incremental_engine_rejects_at_both_spellings() {
    let _g = lock();
    obs_reset_enabled();
    let handle = start(ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");

    for path in ["/forward", "/v1/forward"] {
        let resp = client.post(path, br#"{"engine":"incremental"}"#).expect("request");
        assert_eq!(resp.status, 400, "{path}: {}", resp.text());
        assert_eq!(
            error_field(&resp, "code").as_num(),
            Some(f64::from(actfort_core::error::CODE_QUERY)),
            "{path}"
        );
        let message = error_field(&resp, "message");
        let message = message.as_str().expect("error message is a string");
        assert!(
            message.contains(r#""auto", "prepared" or "naive""#),
            "{path}: the rejection lists the live engines: {message}"
        );
    }

    handle.shutdown();
    actfort_core::obs::set_enabled(false);
}

/// Posts `body` to `/backward` and `/v1/backward`; each must refuse it
/// with `400` and `CODE_QUERY`, with `needle` in the message.
fn assert_backward_rejects(body: &[u8], needle: &str) {
    let handle = start(ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");
    for path in ["/backward", "/v1/backward"] {
        let resp = client.post(path, body).expect("request");
        assert_eq!(resp.status, 400, "{path}: {}", resp.text());
        assert_eq!(
            error_field(&resp, "code").as_num(),
            Some(f64::from(actfort_core::error::CODE_QUERY)),
            "{path}"
        );
        let message = error_field(&resp, "message");
        let message = message.as_str().expect("error message is a string");
        assert!(message.contains(needle), "{path}: {message}");
    }
    handle.shutdown();
}

#[test]
fn naive_backward_engine_rejects_at_both_spellings() {
    let _g = lock();
    assert_backward_rejects(
        br#"{"target":"paypal","engine":"naive"}"#,
        r#"engine "naive" is not served for backward queries"#,
    );
}

#[test]
fn backward_budget_above_the_cap_rejects_at_both_spellings() {
    let _g = lock();
    let cap = actfort_core::analysis::MAX_BACKWARD_PARTIALS;
    let body = format!(r#"{{"target":"paypal","budget":{}}}"#, cap + 1);
    assert_backward_rejects(body.as_bytes(), &format!("exceeds the limit of {cap}"));
}

/// Posts `body` to every analysis route at both spellings and to
/// `/admin/reload`; each must refuse it with `400` and
/// `CODE_SERVE_BODY_TOO_DEEP`, and `/healthz` must still answer on a
/// second connection afterwards.
fn assert_too_deep_everywhere(body: &[u8]) {
    let handle = start(ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let mut paths: Vec<String> = ["forward", "backward", "score", "whatif"]
        .iter()
        .flat_map(|tail| [format!("/{tail}"), format!("/v1/{tail}")])
        .collect();
    paths.push("/admin/reload".to_owned());
    for path in &paths {
        let resp = client.post(path, body).expect("request");
        assert_eq!(resp.status, 400, "{path}: {}", resp.text());
        assert_eq!(
            error_field(&resp, "code").as_num(),
            Some(f64::from(CODE_SERVE_BODY_TOO_DEEP)),
            "{path}"
        );
    }

    let mut other = Client::connect(handle.addr()).expect("second connection");
    assert_eq!(other.get("/healthz").expect("healthz").status, 200);

    handle.shutdown();
}

#[test]
fn ten_thousand_open_brackets_reject_as_too_deep() {
    let _g = lock();
    assert_too_deep_everywhere("[".repeat(10_000).as_bytes());
}

#[test]
fn ten_thousand_nested_objects_reject_as_too_deep() {
    let _g = lock();
    let body = format!("{}1{}", r#"{"a":"#.repeat(10_000), "}".repeat(10_000));
    assert_too_deep_everywhere(body.as_bytes());
}

#[test]
fn prepared_spelling_hits_the_auto_cache_entry() {
    let _g = lock();
    let handle = start(ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");
    for (path, fields) in [
        ("/v1/forward", r#""seeds":["gmail"]"#),
        ("/v1/score", r#""profiles":[{"services":["gmail","taobao"]}]"#),
    ] {
        let mut post = |engine: &str| {
            let body = format!(r#"{{{fields},"engine":"{engine}"}}"#);
            let resp = client.post(path, body.as_bytes()).expect("request");
            assert_eq!(resp.status, 200, "{path}: {}", resp.text());
            resp
        };
        let (auto, prepared) = (post("auto"), post("prepared"));
        assert_eq!(auto.header("x-actfort-cache"), Some("miss"), "{path}");
        assert_eq!(prepared.header("x-actfort-cache"), Some("hit"), "{path}");
        assert_eq!(auto.body, prepared.body, "{path}: one entry, identical bytes");
        assert!(prepared.text().contains(r#""engine":"auto""#), "{path}");
    }
    handle.shutdown();
}

#[test]
fn every_analysis_route_records_compute_render_and_latency() {
    let _g = lock();
    obs_reset_enabled();
    let handle = start(ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");
    for (route, body) in [
        ("forward", &br#"{"seeds":["gmail"]}"#[..]),
        ("backward", br#"{"target":"alipay","max_chains":2}"#),
        ("score", br#"{"profiles":[{"services":["gmail","taobao"]}]}"#),
        ("whatif", br#"{"countermeasures":["built_in_push"]}"#),
    ] {
        // (compute spans, render spans, latency samples) for the route.
        let counts = || {
            let snap = actfort_core::obs::snapshot();
            let span = |child| snap.spans.get(&format!("serve.{route}/{child}")).map(|s| s.count);
            let latency = snap.histograms.get(&format!("serve.{route}.latency_ns"));
            (span("compute"), span("render"), latency.map(|h| h.count()))
        };
        let (miss, hit) = ((Some(1), Some(1), Some(1)), (Some(1), Some(1), Some(2)));
        for (cache, expected) in [("miss", miss), ("hit", hit)] {
            let resp = client.post(&format!("/v1/{route}"), body).expect("request");
            assert_eq!(resp.header("x-actfort-cache"), Some(cache), "{route}: {}", resp.text());
            assert_eq!(counts(), expected, "{route} after a {cache}");
        }
    }
    handle.shutdown();
    actfort_core::obs::set_enabled(false);
}
