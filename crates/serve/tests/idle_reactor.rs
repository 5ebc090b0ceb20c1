//! An idle server parks in `epoll_wait` instead of polling on a fixed
//! tick. One keep-alive connection that has been answered and then left
//! open has a deadline a minute away, so the reactor should wake only
//! at its park cap, a couple of times a second.
//!
//! This is its own test binary, so the process-wide `obs` recorder
//! counts the polls of this one server and nothing else.

use actfort_core::obs;
use actfort_serve::{obs_names, start, Client, ServerConfig};
use std::time::Duration;

fn polls() -> u64 {
    obs::snapshot().counters.get(obs_names::REACTOR_POLLS).copied().unwrap_or(0)
}

#[test]
fn an_idle_keep_alive_connection_lets_the_reactor_park() {
    obs::reset();
    obs::set_enabled(true);
    let handle = start(ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let resp = client.get("/healthz").expect("healthz");
    assert_eq!(resp.status, 200, "{}", resp.text());

    // Let the exchange's own wakeups settle, then count one quiet second.
    std::thread::sleep(Duration::from_millis(50));
    let before = polls();
    std::thread::sleep(Duration::from_secs(1));
    let woke = polls() - before;
    assert!(woke <= 10, "an idle reactor polled {woke} times in 1 s; expected at most 10");

    drop(client);
    handle.shutdown();
    obs::set_enabled(false);
}
