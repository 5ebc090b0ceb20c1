//! Integration tests for the `POST /score` contract:
//!
//! 1. malformed profiles are rejected with the unified stable error
//!    discriminants (mistyped batches, unknown factor names, unknown
//!    services, oversized batches);
//! 2. a second identical batch is served from the rendered-body cache
//!    (hit pinned via the `x-actfort-cache` header *and* the metrics
//!    counters, like the backward-cache regression test);
//! 3. 8 threads issuing the same batch concurrently all receive
//!    byte-identical bodies under the reactor;
//! 4. the response itself is in input order and consistent with the
//!    plain forward result for a full-profile user.
//!
//! The obs recorder is process-global, so tests serialize behind one
//! mutex.

use actfort_core::obs::json::{self, Json};
use actfort_serve::{start, Client, ServerConfig};
use std::sync::{Mutex, MutexGuard};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn obs_reset_enabled() {
    actfort_core::obs::reset();
    actfort_core::obs::set_enabled(true);
}

fn error_code(resp: &actfort_serve::ClientResponse) -> f64 {
    json::parse(resp.text())
        .expect("error body parses")
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_num)
        .expect("error code present")
}

#[test]
fn malformed_profiles_reject_with_stable_discriminants() {
    let _g = lock();
    obs_reset_enabled();
    let handle = start(ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let query = f64::from(actfort_core::error::CODE_QUERY);

    // Shape errors → CODE_QUERY (11).
    for body in [
        &b"{}"[..],
        br#"{"profiles":"gmail"}"#,
        br#"{"profiles":[42]}"#,
        br#"{"profiles":[{"services":"gmail"}]}"#,
        br#"{"profiles":[{"services":[1]}]}"#,
        br#"{"profiles":[{"services":[],"factors":"sms_code"}]}"#,
        br#"{"profiles":[{"services":[],"factors":["warp_drive"]}]}"#,
        br#"{"profiles":[],"engine":"warp"}"#,
        br#"{"profiles":[],"engine":"incremental"}"#,
        b"not json at all",
    ] {
        let resp = client.post("/score", body).expect("request");
        assert_eq!(resp.status, 400, "{}", resp.text());
        assert_eq!(error_code(&resp), query, "{}", resp.text());
    }

    // A profile naming a service outside the population →
    // CODE_UNKNOWN_SERVICE (12), the same discriminant forward seeds
    // get.
    let resp = client
        .post("/score", br#"{"profiles":[{"services":["ghost-service"]}]}"#)
        .expect("request");
    assert_eq!(resp.status, 400, "{}", resp.text());
    assert_eq!(
        error_code(&resp),
        f64::from(actfort_core::error::CODE_UNKNOWN_SERVICE),
        "{}",
        resp.text()
    );

    // An oversized batch is refused up front.
    let oversized = format!(
        r#"{{"profiles":[{}]}}"#,
        vec![r#"{"services":[]}"#; actfort_serve::wire::MAX_SCORE_PROFILES + 1].join(",")
    );
    let resp = client.post("/score", oversized.as_bytes()).expect("request");
    assert_eq!(resp.status, 400, "{}", resp.text());
    assert_eq!(error_code(&resp), query);

    // Wrong method on a known path → 405, and the /v1 alias serves the
    // same contract.
    assert_eq!(client.get("/score").expect("request").status, 405);
    assert_eq!(client.get("/v1/score").expect("request").status, 405);
    handle.shutdown();
    actfort_core::obs::set_enabled(false);
}

#[test]
fn second_identical_batch_hits_the_rendered_body_cache() {
    let _g = lock();
    obs_reset_enabled();
    let handle = start(ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let body = br#"{"profiles":[
        {"services":["gmail","taobao"],"factors":["sms_code","email_code"]},
        {"services":["gmail"]},
        {"services":[]}]}"#;
    let first = client.post("/score", body).expect("request");
    assert_eq!(first.status, 200, "{}", first.text());
    assert_eq!(first.header("x-actfort-cache"), Some("miss"));

    let second = client.post("/score", body).expect("request");
    assert_eq!(second.status, 200);
    assert_eq!(second.header("x-actfort-cache"), Some("hit"), "identical batch must hit");
    assert_eq!(first.body, second.body, "hit must serve the miss's exact bytes");

    // Same batch, service spelling canonicalized within a profile:
    // still a hit. Reordered *across* profiles: a different response
    // (scores are positional), so a miss.
    let respelled = br#"{"profiles":[
        {"services":["taobao","gmail","gmail"],"factors":["sms_code","email_code"]},
        {"services":["gmail"]},
        {"services":[]}]}"#;
    let third = client.post("/score", respelled).expect("request");
    assert_eq!(third.header("x-actfort-cache"), Some("hit"), "within-profile canonicalization");
    assert_eq!(first.body, third.body);
    let reordered = br#"{"profiles":[
        {"services":[]},
        {"services":["gmail"]},
        {"services":["gmail","taobao"],"factors":["sms_code","email_code"]}]}"#;
    let fourth = client.post("/score", reordered).expect("request");
    assert_eq!(fourth.header("x-actfort-cache"), Some("miss"), "batch order is significant");

    // The hits are visible on /metrics too.
    let metrics = client.get("/metrics").expect("metrics");
    let doc = json::parse(metrics.text()).expect("metrics JSON");
    let hits = doc
        .get("counters")
        .and_then(|c| c.get("serve.cache.hits"))
        .and_then(Json::as_num)
        .unwrap_or(0.0);
    assert!(hits >= 2.0, "cache hits must be counted, saw {hits}");
    handle.shutdown();
    actfort_core::obs::set_enabled(false);
}

#[test]
fn eight_way_concurrent_batches_get_identical_bytes() {
    let _g = lock();
    obs_reset_enabled();
    let config =
        ServerConfig { threads: Some(4), queue_capacity: Some(64), ..ServerConfig::default() };
    let handle = start(config).expect("server starts");
    let addr = handle.addr();

    const THREADS: usize = 8;
    const PER_THREAD: usize = 4;
    let body: &[u8] = br#"{"profiles":[
        {"services":["gmail","taobao","alipay"]},
        {"services":["gmail"],"factors":["email_code","email_link"]},
        {"services":[],"factors":[]}],"engine":"prepared"}"#;
    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                (0..PER_THREAD)
                    .map(|_| {
                        let resp = client.post("/v1/score", body).expect("request");
                        assert_eq!(resp.status, 200, "{}", resp.text());
                        let cache =
                            resp.header("x-actfort-cache").expect("cache header").to_owned();
                        (cache, resp.body)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    let mut hits = 0usize;
    let mut misses = 0usize;
    let mut bodies: Vec<Vec<u8>> = Vec::new();
    for worker in workers {
        for (cache, body) in worker.join().expect("worker") {
            match cache.as_str() {
                "hit" => hits += 1,
                "miss" => misses += 1,
                other => panic!("unexpected cache header {other:?}"),
            }
            bodies.push(body);
        }
    }
    assert_eq!(hits + misses, THREADS * PER_THREAD);
    assert!(misses >= 1, "first responder must miss");
    assert!(hits >= 1, "32 identical batches must hit the cache");
    let first = &bodies[0];
    assert!(
        bodies.iter().all(|b| b == first),
        "hit and miss paths must serve byte-identical score bodies"
    );
    handle.shutdown();
    actfort_core::obs::set_enabled(false);
}

#[test]
fn scores_come_back_in_input_order_and_match_forward() {
    let _g = lock();
    obs_reset_enabled();
    let handle = start(ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // The server boots on the curated dataset over Platform::Web; a
    // user holding every eligible service with all factors reproduces
    // the plain forward result. Pull the eligible set from forward
    // itself so the batch never names an ineligible service.
    let forward = client.post("/v1/forward", b"{}").expect("forward");
    assert_eq!(forward.status, 200);
    let doc = json::parse(forward.text()).expect("forward JSON");
    let compromised =
        doc.get("compromised").and_then(Json::as_num).expect("compromised count") as u64;
    let mut eligible: Vec<String> = match doc.get("records") {
        Some(Json::Obj(m)) => m.keys().cloned().collect(),
        other => panic!("records must be an object, got {other:?}"),
    };
    if let Some(Json::Arr(items)) = doc.get("uncompromised") {
        eligible.extend(items.iter().filter_map(|i| i.as_str().map(str::to_owned)));
    }
    let services =
        eligible.iter().map(|s| format!("{s:?}")).collect::<Vec<_>>().join(",");
    let body = format!(
        r#"{{"profiles":[{{"services":[{services}]}},{{"services":[]}}]}}"#
    );
    let resp = client.post("/score", body.as_bytes()).expect("score");
    assert_eq!(resp.status, 200, "{}", resp.text());
    let doc = json::parse(resp.text()).expect("score JSON");
    assert_eq!(doc.get("users").and_then(Json::as_num), Some(2.0));
    let Some(Json::Arr(scores)) = doc.get("scores") else { panic!("scores array") };
    // User 0 (everything held) matches forward's compromised count;
    // user 1 (nothing held) scores zero — input order, not sorted.
    assert_eq!(
        scores[0].get("blast_radius").and_then(Json::as_num),
        Some(compromised as f64),
        "full user's blast radius must equal the forward compromised count"
    );
    assert_eq!(scores[1].get("blast_radius").and_then(Json::as_num), Some(0.0));
    assert_eq!(scores[1].get("weakest_chain").and_then(Json::as_num), Some(0.0));
    handle.shutdown();
    actfort_core::obs::set_enabled(false);
}
