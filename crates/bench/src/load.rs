//! Concurrent load driver for `actfort-serve`, used by the
//! `serve_smoke` CI bin.
//!
//! A [`LoadPlan`] names an address, a connection count and a request
//! mix; [`run`] opens one keep-alive connection per thread, cycles each
//! thread through the mix and folds every thread's observations into
//! one [`LoadReport`]: median latency, cache hit/miss split, shed (503)
//! count and — the concurrency contract — whether every successful
//! response to an identical request was byte-identical.

use actfort_serve::Client;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::Instant;

/// One request in the mix: endpoint path + JSON body.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shot {
    /// Endpoint path (`/v1/forward`, `/v1/backward`, `/v1/score`,
    /// `/v1/whatif`).
    pub path: String,
    /// JSON body to POST.
    pub body: String,
}

impl Shot {
    /// A forward query over the given seed ids.
    pub fn forward(seeds: &[&str]) -> Self {
        let ids = seeds.iter().map(|s| format!("\"{s}\"")).collect::<Vec<_>>().join(",");
        Self { path: "/v1/forward".to_owned(), body: format!("{{\"seeds\":[{ids}]}}") }
    }

    /// A backward query for the given target.
    pub fn backward(target: &str, max_chains: usize) -> Self {
        Self {
            path: "/v1/backward".to_owned(),
            body: format!("{{\"target\":\"{target}\",\"max_chains\":{max_chains}}}"),
        }
    }
}

/// What to fire at the server.
#[derive(Debug, Clone)]
pub struct LoadPlan {
    /// Server address.
    pub addr: SocketAddr,
    /// Concurrent keep-alive connections (one thread each).
    pub connections: usize,
    /// Requests each connection issues.
    pub requests_per_connection: usize,
    /// Pipeline depth: 1 issues strict request→response round trips;
    /// `n > 1` writes `n` requests back-to-back before reading the `n`
    /// responses (HTTP/1.1 pipelining). Under pipelining each request's
    /// recorded latency is its batch's wall time — an upper bound.
    pub pipeline: usize,
    /// The request mix; thread `t` starts at shot `t` and cycles, so
    /// every shot is exercised by several threads concurrently.
    pub shots: Vec<Shot>,
}

/// Aggregated observations from one [`run`].
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests issued.
    pub requests: usize,
    /// `200` responses.
    pub ok: usize,
    /// `503` backpressure refusals.
    pub shed: usize,
    /// Any other status.
    pub failed: usize,
    /// `x-actfort-cache: hit` responses.
    pub cache_hits: usize,
    /// `x-actfort-cache: miss` responses.
    pub cache_misses: usize,
    /// Median per-request latency, nanoseconds.
    pub p50_ns: u64,
    /// Whether all `200` bodies for each identical shot were equal.
    pub byte_identical: bool,
}

struct ThreadObservations {
    latencies_ns: Vec<u64>,
    ok: usize,
    shed: usize,
    failed: usize,
    cache_hits: usize,
    cache_misses: usize,
    bodies: HashMap<Shot, Vec<Vec<u8>>>,
}

/// Executes `plan` and aggregates the observations.
///
/// # Panics
///
/// Panics when a connection cannot be established or a request fails at
/// the transport level — load runs are driven against servers the
/// caller just started, so transport failures are harness bugs.
pub fn run(plan: &LoadPlan) -> LoadReport {
    let threads: Vec<_> = (0..plan.connections)
        .map(|t| {
            let addr = plan.addr;
            let shots = plan.shots.clone();
            let requests = plan.requests_per_connection;
            let pipeline = plan.pipeline.max(1);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect to load target");
                let mut obs = ThreadObservations {
                    latencies_ns: Vec::with_capacity(requests),
                    ok: 0,
                    shed: 0,
                    failed: 0,
                    cache_hits: 0,
                    cache_misses: 0,
                    bodies: HashMap::new(),
                };
                let mut issued = 0usize;
                while issued < requests {
                    let batch: Vec<&Shot> = (0..pipeline.min(requests - issued))
                        .map(|j| &shots[(t + issued + j) % shots.len()])
                        .collect();
                    let req_started = Instant::now();
                    let responses = if batch.len() == 1 {
                        vec![client
                            .post(&batch[0].path, batch[0].body.as_bytes())
                            .expect("load request")]
                    } else {
                        let wire: Vec<(&str, &[u8])> = batch
                            .iter()
                            .map(|shot| (shot.path.as_str(), shot.body.as_bytes()))
                            .collect();
                        client.pipeline_post(&wire).expect("pipelined load batch")
                    };
                    let ns = u64::try_from(req_started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    for (shot, resp) in batch.iter().zip(&responses) {
                        obs.latencies_ns.push(ns);
                        match resp.status {
                            200 => {
                                obs.ok += 1;
                                obs.bodies
                                    .entry((*shot).clone())
                                    .or_default()
                                    .push(resp.body.clone());
                            }
                            503 => obs.shed += 1,
                            _ => obs.failed += 1,
                        }
                        match resp.header("x-actfort-cache") {
                            Some("hit") => obs.cache_hits += 1,
                            Some("miss") => obs.cache_misses += 1,
                            _ => {}
                        }
                    }
                    issued += batch.len();
                }
                obs
            })
        })
        .collect();

    let mut latencies: Vec<u64> = Vec::new();
    let mut report = LoadReport {
        requests: plan.connections * plan.requests_per_connection,
        ok: 0,
        shed: 0,
        failed: 0,
        cache_hits: 0,
        cache_misses: 0,
        p50_ns: 0,
        byte_identical: true,
    };
    let mut reference: HashMap<Shot, Vec<u8>> = HashMap::new();
    for thread in threads {
        let obs = thread.join().expect("load thread");
        report.ok += obs.ok;
        report.shed += obs.shed;
        report.failed += obs.failed;
        report.cache_hits += obs.cache_hits;
        report.cache_misses += obs.cache_misses;
        latencies.extend(obs.latencies_ns);
        for (shot, bodies) in obs.bodies {
            for body in bodies {
                let canon = reference.entry(shot.clone()).or_insert_with(|| body.clone());
                if *canon != body {
                    report.byte_identical = false;
                }
            }
        }
    }
    latencies.sort_unstable();
    report.p50_ns = quantile(&latencies, 0.50);
    report
}

fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shots_render_valid_json() {
        let f = Shot::forward(&["gmail", "taobao"]);
        assert_eq!(f.body, r#"{"seeds":["gmail","taobao"]}"#);
        let b = Shot::backward("alipay", 4);
        assert_eq!(b.body, r#"{"target":"alipay","max_chains":4}"#);
    }

    #[test]
    fn quantiles_clamp() {
        assert_eq!(quantile(&[], 0.5), 0);
        assert_eq!(quantile(&[7], 0.99), 7);
        assert_eq!(quantile(&[1, 2, 3, 4], 0.5), 3);
    }
}
