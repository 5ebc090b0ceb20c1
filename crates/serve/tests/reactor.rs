//! Adversarial-client tests for the epoll reactor: slow-loris framing,
//! pipelined bursts, mid-response disconnects, token-reuse hammering,
//! drain-under-load, and the backward-cache regression.
//!
//! Everything here talks to the server over real sockets; raw
//! `TcpStream`s are used where the shaped traffic (byte-at-a-time
//! writes, abrupt disconnects) is the point, and [`Client`] where the
//! protocol is.

use actfort_serve::{start, Client, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn server(config: ServerConfig) -> actfort_serve::ServerHandle {
    start(config).expect("server starts")
}

/// A slow-loris client that dribbles a valid request one byte at a time
/// still gets served: partial reads buffer until the request completes.
#[test]
fn slow_loris_byte_at_a_time_header_is_served() {
    let handle = server(ServerConfig::default());
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let raw = b"GET /healthz HTTP/1.1\r\nhost: actfort\r\ncontent-length: 0\r\n\r\n";
    for &byte in raw {
        stream.write_all(&[byte]).expect("write one byte");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut response = Vec::new();
    let mut buf = [0u8; 1024];
    while !response.windows(4).any(|w| w == b"\r\n\r\n") {
        let n = stream.read(&mut buf).expect("read");
        assert!(n > 0, "server closed before responding to a complete request");
        response.extend_from_slice(&buf[..n]);
    }
    let text = String::from_utf8_lossy(&response);
    assert!(text.starts_with("HTTP/1.1 200"), "expected 200, got {text}");
    handle.shutdown();
}

/// A slow-loris client that *stalls* mid-request is disconnected by the
/// stall timer instead of holding its socket forever.
#[test]
fn stalled_mid_request_connection_is_timed_out() {
    let handle = server(ServerConfig {
        stall_timeout: Duration::from_millis(150),
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    // Half a request head, then silence.
    stream.write_all(b"GET /healthz HTTP/1.1\r\nhost: act").expect("write");
    stream.flush().expect("flush");
    let started = Instant::now();
    let mut buf = [0u8; 64];
    let n = stream.read(&mut buf).expect("read should see EOF, not error");
    assert_eq!(n, 0, "server must close a stalled connection");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "close must come from the stall timer, not the idle timeout"
    );
    handle.shutdown();
}

/// One connection's deadline grows and then shrinks again: answered and
/// left idle past the stall budget, a keep-alive connection still lives
/// on its idle timeout and serves a second request; a request head that
/// then stalls is closed on the stall budget, not the idle timeout.
#[test]
fn keep_alive_outlives_the_stall_budget_then_a_stalled_request_is_closed() {
    let handle = server(ServerConfig {
        stall_timeout: Duration::from_millis(150),
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let request = b"GET /healthz HTTP/1.1\r\nhost: actfort\r\ncontent-length: 0\r\n\r\n";
    let read_status = |stream: &mut TcpStream| {
        let mut response = Vec::new();
        let mut buf = [0u8; 1024];
        while !response.windows(4).any(|w| w == b"\r\n\r\n") {
            let n = stream.read(&mut buf).expect("read");
            assert!(n > 0, "server closed a keep-alive connection before answering");
            response.extend_from_slice(&buf[..n]);
        }
        String::from_utf8_lossy(&response).into_owned()
    };

    stream.write_all(request).expect("first request");
    let first = read_status(&mut stream);
    assert!(first.starts_with("HTTP/1.1 200"), "expected 200, got {first}");

    // Idle well past the stall budget, but far inside the idle timeout.
    std::thread::sleep(Duration::from_millis(400));
    stream.write_all(request).expect("second request");
    let second = read_status(&mut stream);
    assert!(second.starts_with("HTTP/1.1 200"), "expected 200 after idling, got {second}");

    // Half a request head, then silence: the stall budget applies again.
    stream.write_all(b"GET /healthz HTTP/1.1\r\nhost: act").expect("write");
    stream.flush().expect("flush");
    let started = Instant::now();
    let mut buf = [0u8; 64];
    let n = stream.read(&mut buf).expect("read should see EOF, not error");
    assert_eq!(n, 0, "server must close a stalled connection");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "close must come from the stall timer, not the idle timeout"
    );
    handle.shutdown();
}

/// Eight connections pipelining the same request sequence all receive
/// responses byte-identical to the sequential golden bodies, in order.
#[test]
fn pipelined_bursts_match_sequential_golden_bytes_8_way() {
    let handle =
        server(ServerConfig { threads: Some(2), queue_capacity: Some(64), ..ServerConfig::default() });
    let addr = handle.addr();
    let queries: Vec<(&str, &[u8])> = vec![
        ("/v1/forward", br#"{"seeds":["gmail"]}"#),
        ("/v1/forward", br#"{"seeds":["taobao","gmail"]}"#),
        ("/v1/backward", br#"{"target":"paypal"}"#),
        ("/v1/forward", br#"{"seeds":[]}"#),
        ("/v1/backward", br#"{"target":"amazon","max_chains":3}"#),
        ("/v1/forward", br#"{"seeds":["gmail"]}"#),
    ];

    // Golden: the same sequence, sequential request/response.
    let golden: Vec<Vec<u8>> = {
        let mut client = Client::connect(addr).expect("connect");
        queries
            .iter()
            .map(|(path, body)| {
                let resp = client.post(path, body).expect("golden request");
                assert_eq!(resp.status, 200, "{}", resp.text());
                resp.body
            })
            .collect()
    };

    let workers: Vec<_> = (0..8)
        .map(|_| {
            let queries = queries.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let responses = client.pipeline_post(&queries).expect("pipelined burst");
                responses.into_iter().map(|r| {
                    assert_eq!(r.status, 200, "{}", r.text());
                    r.body
                }).collect::<Vec<_>>()
            })
        })
        .collect();
    for worker in workers {
        let bodies = worker.join().expect("pipeline worker");
        assert_eq!(bodies.len(), golden.len());
        for (got, want) in bodies.iter().zip(&golden) {
            assert_eq!(got, want, "pipelined response must be byte-identical to sequential");
        }
    }
    handle.shutdown();
}

/// Clients that vanish mid-exchange (request written, connection
/// dropped before the response) never wedge the server, including under
/// rapid token reuse; stale worker completions are discarded by the
/// connection-generation check.
#[test]
fn mid_response_disconnects_and_token_reuse_do_not_wedge_the_server() {
    let handle = server(ServerConfig::default());
    let addr = handle.addr();
    for i in 0..30 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        // A compute-bound request whose worker will complete after the
        // socket is gone (distinct bodies dodge the response cache).
        let body = format!("{{\"seeds\":[],\"engine\":\"naive\",\"memo\":{}}}", i % 2 == 0);
        let raw = format!(
            "POST /v1/forward HTTP/1.1\r\nhost: actfort\r\ncontent-length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        stream.write_all(raw.as_bytes()).expect("write");
        drop(stream); // Vanish before the response.
    }
    // The server still answers promptly on a fresh connection.
    let mut client = Client::connect(addr).expect("connect");
    let resp = client.get("/healthz").expect("healthz after disconnect storm");
    assert_eq!(resp.status, 200);
    let resp = client.post("/v1/forward", br#"{"seeds":["gmail"]}"#).expect("forward");
    assert_eq!(resp.status, 200, "{}", resp.text());
    handle.shutdown();
}

/// Graceful drain completes every request the server had accepted —
/// a pipelined burst in flight when shutdown lands loses nothing.
#[test]
fn drain_during_pipelined_burst_loses_zero_accepted_requests() {
    let handle =
        server(ServerConfig { threads: Some(2), queue_capacity: Some(64), ..ServerConfig::default() });
    let addr = handle.addr();

    const BURST: usize = 16;
    let mut bursting = Client::connect(addr).expect("connect");

    let reader = std::thread::spawn(move || {
        // Alternating memo + naive engine keeps every request a cache
        // miss at dispatch time, so each one is real in-flight work
        // when shutdown lands.
        let queries: Vec<String> = (0..BURST)
            .map(|i| format!("{{\"seeds\":[\"gmail\"],\"engine\":\"naive\",\"memo\":{}}}", i % 2 == 0))
            .collect();
        let borrowed: Vec<(&str, &[u8])> =
            queries.iter().map(|b| ("/v1/forward", b.as_bytes())).collect();
        let responses = bursting.pipeline_post(&borrowed).expect("burst answered in full");
        responses
            .iter()
            .for_each(|r| assert_eq!(r.status, 200, "burst request failed: {}", r.text()));
        responses.len()
    });

    // Let the reactor accept and start the burst, then drain.
    std::thread::sleep(Duration::from_millis(20));
    let mut admin = Client::connect(addr).expect("connect admin");
    let resp = admin.post("/admin/shutdown", b"").expect("shutdown");
    assert_eq!(resp.status, 200);
    assert!(resp.text().contains("draining"));

    assert_eq!(reader.join().expect("burst reader"), BURST, "drain dropped accepted requests");
    handle.join();

    // And the listener is really gone: new connections are refused (or
    // reset before a response).
    let denied = TcpStream::connect(addr)
        .and_then(|mut s| {
            s.set_read_timeout(Some(Duration::from_secs(2)))?;
            s.write_all(b"GET /healthz HTTP/1.1\r\ncontent-length: 0\r\n\r\n")?;
            let mut buf = [0u8; 16];
            s.read(&mut buf)
        })
        .map(|n| n == 0)
        .unwrap_or(true);
    assert!(denied, "a drained server must not serve new connections");
}

/// Regression (the backward 0% hit-rate bug): the second identical
/// backward query is a cache hit with a byte-identical body. Guards the
/// handler actually consulting the cache and the key canonicalization.
#[test]
fn second_identical_backward_query_hits_the_cache() {
    let handle = server(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).expect("connect");

    let body = br#"{"target":"paypal","max_chains":4}"#;
    let first = client.post("/v1/backward", body).expect("first backward");
    assert_eq!(first.status, 200, "{}", first.text());
    assert_eq!(first.header("x-actfort-cache"), Some("miss"), "first query must miss");

    let second = client.post("/v1/backward", body).expect("second backward");
    assert_eq!(second.status, 200, "{}", second.text());
    assert_eq!(
        second.header("x-actfort-cache"),
        Some("hit"),
        "the second identical backward query must hit the rendered-body cache"
    );
    assert_eq!(first.body, second.body, "hit must serve the exact bytes the miss rendered");

    // An explicit budget and the equivalent deadline spelling share one
    // entry (the key stores the *effective* budget).
    let explicit = client
        .post("/v1/backward", br#"{"target":"amazon","budget":2000}"#)
        .expect("explicit budget");
    assert_eq!(explicit.header("x-actfort-cache"), Some("miss"));
    let via_deadline = client
        .post("/v1/backward", br#"{"target":"amazon","deadline_ms":1}"#)
        .expect("deadline-derived budget");
    assert_eq!(
        via_deadline.header("x-actfort-cache"),
        Some("hit"),
        "deadline-derived budget must share the explicit-budget cache entry"
    );
    assert_eq!(explicit.body, via_deadline.body);

    // A different bound is a different entry.
    let other = client
        .post("/v1/backward", br#"{"target":"paypal","max_chains":2}"#)
        .expect("different bound");
    assert_eq!(other.header("x-actfort-cache"), Some("miss"));
    handle.shutdown();
}
