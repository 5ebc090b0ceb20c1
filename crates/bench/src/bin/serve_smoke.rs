//! CI smoke test for `actfort-serve`: starts the server in-process on
//! an ephemeral port over the curated dataset, drives concurrent
//! forward, backward, score and whatif traffic through the shared
//! `load` driver — a sequential keep-alive phase, then a pipelined
//! phase whose responses must match the sequential golden bodies —
//! checks the serving
//! contract (all 200s, byte-identical bodies, measured cache hits),
//! gates the forward p50 latency below [`MAX_FORWARD_P50_MS`], posts
//! three hostile bodies (10,000 `[`, one 1 MiB seed string, and a
//! backward query asking for the naive engine at the largest budget)
//! that must each get a fast `400` while `/healthz` keeps answering
//! within [`MAX_HEALTHZ_AFTER_HOSTILE`], and writes the `/metrics`
//! snapshot to `--metrics-out` for `trace_check` to validate.
//!
//! ```sh
//! cargo run --release -p actfort-bench --bin serve_smoke -- --metrics-out /tmp/m.json
//! ```

use actfort_bench::load::{run, LoadPlan, Shot};
use actfort_core::analysis::MAX_BACKWARD_PARTIALS;
use actfort_core::error::{CODE_QUERY, CODE_UNKNOWN_SERVICE};
use actfort_serve::http::MAX_BODY_BYTES;
use actfort_serve::{start, Client, ServerConfig, CODE_SERVE_BODY_TOO_DEEP};
use std::time::{Duration, Instant};

/// Transport-floor gate: the forward p50 on `/v1/forward` must stay
/// below this many milliseconds. A thread-per-connection server with
/// split head/body writes once floored every request at ~44 ms
/// (Nagle against delayed ACK); this bound keeps that floor from
/// returning.
const MAX_FORWARD_P50_MS: f64 = 10.0;

/// Responsiveness gate: a hostile body (nested 10,000 deep, one 1 MiB
/// string, or a naive backward search) must get its `400`, and then
/// `/healthz` on another connection must answer, each within this
/// long. A parse that holds the reactor thread, a stack overflow that
/// kills the process, or a naive search that runs, fails it.
const MAX_HEALTHZ_AFTER_HOSTILE: Duration = Duration::from_secs(1);

fn main() {
    let mut metrics_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--metrics-out" => {
                metrics_out = Some(args.next().expect("--metrics-out requires a path"));
            }
            other => panic!("unknown flag {other:?}"),
        }
    }

    actfort_core::obs::set_enabled(true);

    let config = ServerConfig {
        threads: Some(2),
        queue_capacity: Some(64),
        ..ServerConfig::default()
    };
    let handle = start(config).expect("server starts");
    println!("serve_smoke: listening on {}", handle.addr());

    let shot = |path: &str, body: &str| Shot { path: path.to_owned(), body: body.to_owned() };
    let shots = vec![
        Shot::forward(&[]),
        Shot::forward(&["gmail"]),
        Shot::forward(&["gmail", "taobao"]),
        Shot::backward("paypal", 4),
        Shot::backward("taobao", 4),
        shot("/v1/score", r#"{"profiles":[{"services":["gmail","taobao"]}]}"#),
        shot("/v1/whatif", r#"{"countermeasures":["built_in_push"]}"#),
    ];

    // Phase 1: sequential keep-alive round trips (each connection
    // serves 12 requests, so connection reuse is itself exercised).
    let report = run(&LoadPlan {
        addr: handle.addr(),
        connections: 8,
        requests_per_connection: 12,
        pipeline: 1,
        shots: shots.clone(),
    });
    println!(
        "serve_smoke: {} req, {} ok, {} shed, {} failed; {} hits / {} misses; byte-identical: {}",
        report.requests,
        report.ok,
        report.shed,
        report.failed,
        report.cache_hits,
        report.cache_misses,
        report.byte_identical,
    );
    assert_eq!(report.ok, report.requests, "every smoke request must succeed");
    assert!(report.byte_identical, "identical queries must serve identical bytes");
    assert!(report.cache_hits > 0, "the response cache must be hit under repetition");
    assert!(
        report.cache_hits + report.cache_misses == report.requests,
        "every analysis response must carry the cache header"
    );

    // Golden bodies for the mix, fetched sequentially on one connection.
    let mut golden_client = Client::connect(handle.addr()).expect("connect for golden");
    let golden: Vec<Vec<u8>> = shots
        .iter()
        .map(|shot| {
            let resp = golden_client.post(&shot.path, shot.body.as_bytes()).expect("golden");
            assert_eq!(resp.status, 200, "{}", resp.text());
            resp.body
        })
        .collect();

    // Phase 2: the same mix pipelined 5-deep; every response must be
    // byte-identical to its sequential golden, in order.
    let pipelined = run(&LoadPlan {
        addr: handle.addr(),
        connections: 8,
        requests_per_connection: 20,
        pipeline: 5,
        shots: shots.clone(),
    });
    println!(
        "serve_smoke[pipelined]: {} req, {} ok, byte-identical: {}",
        pipelined.requests, pipelined.ok, pipelined.byte_identical,
    );
    assert_eq!(pipelined.ok, pipelined.requests, "every pipelined request must succeed");
    assert!(pipelined.byte_identical, "pipelined responses must be byte-identical");
    let wire: Vec<(&str, &[u8])> =
        shots.iter().map(|s| (s.path.as_str(), s.body.as_bytes())).collect();
    let responses = golden_client.pipeline_post(&wire).expect("pipelined mix");
    for (resp, want) in responses.iter().zip(&golden) {
        assert_eq!(resp.status, 200, "{}", resp.text());
        assert_eq!(
            &resp.body, want,
            "a pipelined response must match its sequential golden body"
        );
    }

    // Phase 3: the latency gate, forward traffic only.
    let forward = run(&LoadPlan {
        addr: handle.addr(),
        connections: 4,
        requests_per_connection: 40,
        pipeline: 1,
        shots: shots.iter().filter(|s| s.path == "/v1/forward").cloned().collect(),
    });
    assert_eq!(forward.ok, forward.requests, "every gated forward request must succeed");
    let p50_ms = forward.p50_ns as f64 / 1e6;
    assert!(
        p50_ms < MAX_FORWARD_P50_MS,
        "latency gate: forward p50 {p50_ms:.3} ms exceeds {MAX_FORWARD_P50_MS} ms"
    );
    println!("serve_smoke: latency gate OK (forward p50 {p50_ms:.3} ms < {MAX_FORWARD_P50_MS} ms)");

    // Phase 4: hostile bodies. Each must get a fast 400, and the reactor
    // must stay responsive to other connections afterwards.
    let deep = "[".repeat(10_000);
    let seed_len = MAX_BODY_BYTES - r#"{"seeds":[""]}"#.len();
    let long = format!(r#"{{"seeds":["{}"]}}"#, "x".repeat(seed_len));
    let naive = format!(
        r#"{{"target":"paypal","engine":"naive","budget":{MAX_BACKWARD_PARTIALS}}}"#
    );
    for (name, path, body, code) in [
        ("10,000-deep body", "/v1/forward", deep.as_bytes(), CODE_SERVE_BODY_TOO_DEEP),
        ("1 MiB seed string", "/v1/forward", long.as_bytes(), CODE_UNKNOWN_SERVICE),
        ("naive backward", "/v1/backward", naive.as_bytes(), CODE_QUERY),
    ] {
        let mut hostile = Client::connect(handle.addr()).expect("connect for hostile body");
        let started = Instant::now();
        let resp = hostile.post(path, body).expect("hostile request");
        let refused_in = started.elapsed();
        let answered = actfort_core::obs::json::parse(resp.text())
            .ok()
            .and_then(|doc| doc.get("error")?.get("code")?.as_num());
        assert_eq!(resp.status, 400, "{name}: status");
        assert_eq!(answered, Some(f64::from(code)), "{name}: error code");
        assert!(refused_in < MAX_HEALTHZ_AFTER_HOSTILE, "{name}: the 400 took {refused_in:?}");
        let started = Instant::now();
        let mut probe = Client::connect(handle.addr()).expect("connect for healthz probe");
        assert_eq!(probe.get("/healthz").expect("healthz after hostile body").status, 200);
        let waited = started.elapsed();
        assert!(
            waited < MAX_HEALTHZ_AFTER_HOSTILE,
            "{name}: /healthz on another connection took {waited:?}"
        );
        println!(
            "serve_smoke: hostile {name} -> 400/{code} in {refused_in:?}; \
             /healthz answered in {waited:?}"
        );
    }

    let mut client = Client::connect(handle.addr()).expect("connect for metrics");
    let metrics = client.get("/metrics").expect("fetch /metrics");
    assert_eq!(metrics.status, 200, "/metrics must answer 200");
    actfort_core::obs::json::parse(metrics.text())
        .unwrap_or_else(|e| panic!("/metrics body is not valid JSON: {e}"));
    if let Some(path) = metrics_out {
        std::fs::write(&path, &metrics.body)
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("serve_smoke: /metrics written to {path}");
    }
    drop(client);

    handle.shutdown();
    println!("serve_smoke: OK");
}
