//! Routing and lifecycle (start → serve → drain → join) on top of the
//! [`reactor`](crate::reactor).
//!
//! Threading model: one reactor thread owns the listener and every
//! client socket ([`crate::reactor::Reactor`]); it parses requests and
//! hands each one to `Svc`, which answers cheap endpoints (health,
//! metrics, admin, cache hits) inline on the reactor thread and pushes
//! analysis work onto the bounded [`WorkQueue`]. Workers complete
//! responses back through the reactor's wakeup fd, so no thread ever
//! blocks on another request's compute. Responses are built from
//! exactly one [`Snapshot`](crate::snapshot::Snapshot) loaded at request start, so a concurrent
//! hot-swap can never tear a response.
//!
//! The four analysis routes differ only in how they parse, key and
//! compute: each hands its cache key and a compute closure to one
//! private pipeline (`answer`), which owns the cache lookup, shedding,
//! the endpoint/`compute`/`render` spans and timings, the cache insert
//! and the response.

use crate::cache::{CacheKey, ResponseCache};
use crate::http::{self, Request, Response};
use crate::obs_names;
use crate::queue::WorkQueue;
use crate::reactor::{CompletionSender, Handler, Reactor, ResponseSlot};
use crate::snapshot::{Dataset, SnapshotStore};
use crate::wire;
use actfort_core::batch::BatchAnalyzer;
use actfort_core::profile::AttackerProfile;
use actfort_core::query::Analysis;
use actfort_core::{obs, Countermeasure, Error};
use actfort_ecosystem::policy::Platform;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Wire discriminant for server-layer faults (bind failures, …); the
/// 24xx block follows the per-crate ranges documented in
/// `actfort_core::error`.
pub const CODE_SERVE_IO: u16 = 2400;
/// Wire discriminant for queue-full backpressure refusals.
pub const CODE_SERVE_OVERLOADED: u16 = 2401;
/// Wire discriminant for requests under an API version this server
/// does not speak (`/v2/forward`, …). Distinct from a plain 404: the
/// path would exist under `/v1`, so clients can detect a version skew
/// rather than a typo.
pub const CODE_SERVE_UNKNOWN_VERSION: u16 = 2402;
/// Wire discriminant for request bodies nested deeper than
/// [`json::MAX_DEPTH`](actfort_core::obs::json::MAX_DEPTH): a `400`, like
/// [`CODE_SERVE_UNKNOWN_VERSION`], rather than a generic malformed-JSON
/// [`Error::Query`], so clients can tell a depth refusal from a typo.
pub const CODE_SERVE_BODY_TOO_DEEP: u16 = 2403;

/// Server configuration. `Default` serves the curated dataset on an
/// ephemeral localhost port with environment-probed worker sizing.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Initial dataset.
    pub dataset: Dataset,
    /// Platform the dependency graph is classified under.
    pub platform: Platform,
    /// Attacker profile the graph is classified against.
    pub profile: AttackerProfile,
    /// Analysis worker count; `None` follows
    /// [`BatchAnalyzer::from_env`] (the `ACTFORT_THREADS` contract).
    pub threads: Option<usize>,
    /// Bounded queue capacity; `None` means four jobs per worker.
    pub queue_capacity: Option<usize>,
    /// Response cache capacity (rendered bodies, every analysis route).
    pub cache_capacity: usize,
    /// How long a peer may stall mid-request (or with responses in
    /// flight) before the connection is closed.
    pub stall_timeout: Duration,
    /// Deadline → partial-budget calibration
    /// ([`wire::DEADLINE_PARTIALS_PER_MS`] by default).
    pub deadline_partials_per_ms: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            dataset: Dataset::Curated,
            platform: Platform::Web,
            profile: AttackerProfile::paper_default(),
            threads: None,
            queue_capacity: None,
            cache_capacity: 1024,
            stall_timeout: http::MID_REQUEST_STALL,
            deadline_partials_per_ms: wire::DEADLINE_PARTIALS_PER_MS,
        }
    }
}

struct Shared {
    store: SnapshotStore,
    cache: ResponseCache,
    queue: WorkQueue,
    shutdown: Arc<AtomicBool>,
    deadline_partials_per_ms: usize,
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    waker: CompletionSender,
    reactor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown and blocks until the reactor has drained every
    /// in-flight connection and the work queue is empty.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Blocks until the server stops on its own (a `POST
    /// /admin/shutdown` request).
    pub fn join(mut self) {
        if let Some(reactor) = self.reactor.take() {
            reactor.join().expect("reactor thread panicked");
        }
        self.shared.queue.drain();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(reactor) = self.reactor.take() {
            reactor.join().expect("reactor thread panicked");
        }
        self.shared.queue.drain();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Builds the initial snapshot, binds the listener and starts serving.
///
/// # Errors
///
/// [`Error::Config`] for a malformed `ACTFORT_THREADS`, or an
/// [`Error::Upstream`] with [`CODE_SERVE_IO`] when the bind or reactor
/// setup fails.
pub fn start(config: ServerConfig) -> Result<ServerHandle, Error> {
    let workers = match config.threads {
        Some(n) => n.max(1),
        None => BatchAnalyzer::from_env()?.threads(),
    };
    let queue_capacity = config.queue_capacity.unwrap_or(workers * 4);
    let listener = TcpListener::bind(&config.addr).map_err(|e| Error::Upstream {
        layer: "serve",
        code: CODE_SERVE_IO,
        message: format!("binding {}: {e}", config.addr),
    })?;
    let addr = listener.local_addr().map_err(|e| Error::Upstream {
        layer: "serve",
        code: CODE_SERVE_IO,
        message: format!("resolving bound address: {e}"),
    })?;

    let shutdown = Arc::new(AtomicBool::new(false));
    let reactor = Reactor::new(listener, config.stall_timeout, Arc::clone(&shutdown));
    let reactor = reactor.map_err(|e| Error::Upstream {
        layer: "serve",
        code: CODE_SERVE_IO,
        message: format!("initializing reactor: {e}"),
    })?;
    let waker = reactor.waker();

    let shared = Arc::new(Shared {
        store: SnapshotStore::new(config.dataset, config.platform, config.profile),
        cache: ResponseCache::new(config.cache_capacity),
        queue: WorkQueue::new(workers, queue_capacity),
        shutdown,
        deadline_partials_per_ms: config.deadline_partials_per_ms.max(1),
    });

    let svc = Svc { shared: Arc::clone(&shared) };
    let reactor_thread = std::thread::Builder::new()
        .name("actfort-serve-reactor".to_owned())
        .spawn(move || reactor.run(svc))
        .expect("spawn reactor thread");

    Ok(ServerHandle { shared, addr, waker, reactor: Some(reactor_thread) })
}

/// One row of the route table: a method + path tail and the handler
/// that serves it. `versioned` routes answer at both spellings —
/// `/<tail>` and `/v1/<tail>` — so wire evolution has a place to land;
/// infrastructure routes (`versioned: false`) exist only at their bare
/// spelling (`/v1/healthz` is a 404, not an alias).
struct Route {
    method: &'static str,
    tail: &'static str,
    versioned: bool,
    handler: fn(&Arc<Shared>, &Request, Instant, ResponseSlot),
}

/// The complete route table — adding an endpoint is one row here, and
/// the 404/405/version split below follows from the table rather than
/// from hand-maintained path lists.
const ROUTES: [Route; 8] = [
    Route { method: "GET", tail: "healthz", versioned: false, handler: healthz },
    Route { method: "GET", tail: "metrics", versioned: false, handler: metrics },
    Route { method: "POST", tail: "forward", versioned: true, handler: forward },
    Route { method: "POST", tail: "backward", versioned: true, handler: backward },
    Route { method: "POST", tail: "score", versioned: true, handler: score },
    Route { method: "POST", tail: "whatif", versioned: true, handler: whatif },
    Route { method: "POST", tail: "admin/reload", versioned: false, handler: reload },
    Route { method: "POST", tail: "admin/shutdown", versioned: false, handler: admin_shutdown },
];

/// A request path, split at its version prefix.
enum PathVersion<'a> {
    /// No version prefix: `/forward`, `/healthz`.
    Bare(&'a str),
    /// The version this server speaks: `/v1/forward`.
    V1(&'a str),
    /// A version-shaped prefix this server does not speak (`/v2/...`).
    Unknown,
}

fn split_version(path: &str) -> PathVersion<'_> {
    if let Some(tail) = path.strip_prefix("/v1/") {
        return PathVersion::V1(tail);
    }
    // Version-shaped but not v1: "/v<digits>/...". Anything else under
    // "/v" ("/version", "/v1" with no slash) is an ordinary bare path.
    if let Some(rest) = path.strip_prefix("/v") {
        if let Some((digits, _)) = rest.split_once('/') {
            if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
                return PathVersion::Unknown;
            }
        }
    }
    PathVersion::Bare(path.strip_prefix('/').unwrap_or(path))
}

/// The application half of the server: protocol-independent routing.
/// Runs on the reactor thread; anything CPU-bound moves to the pool.
struct Svc {
    shared: Arc<Shared>,
}

impl Handler for Svc {
    fn handle(&self, request: Request, slot: ResponseSlot) {
        obs::add(obs_names::REQUESTS, 1);
        let shared = &self.shared;
        let start = Instant::now();
        let (tail, v1) = match split_version(&request.path) {
            PathVersion::Unknown => {
                return finish(
                    obs_names::OTHER_LATENCY,
                    start,
                    slot,
                    unknown_version(&request.path),
                );
            }
            PathVersion::Bare(tail) => (tail, false),
            PathVersion::V1(tail) => (tail, true),
        };
        let candidates = ROUTES.iter().filter(|r| r.tail == tail && (!v1 || r.versioned));
        let mut tail_known = false;
        for route in candidates {
            if route.method == request.method {
                return (route.handler)(shared, &request, start, slot);
            }
            tail_known = true;
        }
        let response = if tail_known {
            Response::json(
                405,
                br#"{"error":{"code":11,"kind":"query","message":"method not allowed"}}"#.to_vec(),
            )
        } else {
            not_found(&request.path)
        };
        finish(obs_names::OTHER_LATENCY, start, slot, response);
    }

    fn malformed(&self, message: &str) -> Response {
        error_response(&Error::Query(message.to_owned()))
    }
}

/// Records the endpoint's wall latency and completes the response.
fn finish(histogram: &'static str, start: Instant, slot: ResponseSlot, response: Response) {
    obs::record_ns(histogram, elapsed_ns(start));
    slot.fill(response);
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn error_response(err: &Error) -> Response {
    let (status, body) = wire::render_error(err);
    Response::json(status, body)
}

fn overloaded(depth: usize) -> Response {
    let body = format!(
        "{{\"error\":{{\"code\":{CODE_SERVE_OVERLOADED},\"kind\":\"overloaded\",\
         \"message\":\"analysis queue full ({depth} pending); retry shortly\"}}}}"
    );
    Response::json(503, body.into_bytes()).with_header("retry-after", "1")
}

fn not_found(path: &str) -> Response {
    let mut body = String::from("{\"error\":{\"code\":11,\"kind\":\"query\",\"message\":");
    actfort_core::obs::json::write_str(&mut body, &format!("no such endpoint {path}"));
    body.push_str("}}");
    Response::json(404, body.into_bytes())
}

fn unknown_version(path: &str) -> Response {
    let mut body = format!(
        "{{\"error\":{{\"code\":{CODE_SERVE_UNKNOWN_VERSION},\"kind\":\"unknown_version\",\
         \"message\":"
    );
    actfort_core::obs::json::write_str(
        &mut body,
        &format!("unsupported API version in {path}; this server speaks /v1"),
    );
    body.push_str("}}");
    Response::json(400, body.into_bytes())
}

fn healthz(shared: &Arc<Shared>, _request: &Request, start: Instant, slot: ResponseSlot) {
    let snapshot = shared.store.load();
    let body = format!(
        "{{\"status\":\"ok\",\"generation\":{},\"dataset\":\"{}\",\"services\":{}}}",
        snapshot.generation,
        snapshot.dataset.name(),
        snapshot.specs.len()
    );
    finish(obs_names::HEALTHZ_LATENCY, start, slot, Response::json(200, body.into_bytes()));
}

fn metrics(_shared: &Arc<Shared>, _request: &Request, start: Instant, slot: ResponseSlot) {
    let response = Response::json(200, obs::snapshot().to_json().into_bytes());
    finish(obs_names::METRICS_LATENCY, start, slot, response);
}

/// Moves `job` (which owns the response slot) onto the worker pool,
/// shedding with `503` + `Retry-After` when the bounded queue is full:
/// [`WorkQueue::submit`] hands a refused slot back, and it answers.
fn submit_or_shed(
    shared: &Arc<Shared>,
    histogram: &'static str,
    start: Instant,
    slot: ResponseSlot,
    job: impl FnOnce(ResponseSlot) + Send + 'static,
) {
    let enqueued = Instant::now();
    let submitted = shared.queue.submit(slot, move |slot| {
        obs::record_ns(obs_names::QUEUE_WAIT_NS, elapsed_ns(enqueued));
        job(slot);
    });
    if let Err((full, slot)) = submitted {
        finish(histogram, start, slot, overloaded(full.depth));
    }
}

/// The one path every analysis route takes once it has parsed and keyed
/// its request. A cache hit answers inline on the reactor thread. A miss
/// moves `compute` onto the worker pool (or sheds), runs it under the
/// route's `span` with its `compute` child, renders the body with the
/// closure it returns under `render`, caches the rendered bytes and
/// answers with the cache's canonical copy. Every outcome is recorded in
/// the route's `latency` histogram.
fn answer<R: FnOnce() -> Vec<u8>>(
    shared: &Arc<Shared>,
    (latency, span): (&'static str, &'static str),
    start: Instant,
    slot: ResponseSlot,
    key: CacheKey,
    compute: impl FnOnce() -> Result<R, Error> + Send + 'static,
) {
    if let Some(cached) = shared.cache.get(&key) {
        let response =
            Response::json(200, cached.as_ref().clone()).with_header("x-actfort-cache", "hit");
        return finish(latency, start, slot, response);
    }
    let job_shared = Arc::clone(shared);
    submit_or_shed(shared, latency, start, slot, move |slot| {
        let rendered = (|| {
            let _span = obs::span(span);
            let compute_started = Instant::now();
            let render = {
                let _compute = obs::span(obs_names::COMPUTE_SPAN);
                compute()?
            };
            obs::record_ns(obs_names::COMPUTE_NS, elapsed_ns(compute_started));
            let render_started = Instant::now();
            let _render = obs::span(obs_names::RENDER_SPAN);
            let body = render();
            obs::record_ns(obs_names::RENDER_NS, elapsed_ns(render_started));
            Ok::<_, Error>(body)
        })();
        let response = match rendered {
            Err(e) => error_response(&e),
            Ok(body) => {
                // Serve the cache's canonical bytes so a racing miss of
                // the same query returns the identical body.
                let canonical = job_shared.cache.insert(key, Arc::new(body));
                Response::json(200, canonical.as_ref().clone())
                    .with_header("x-actfort-cache", "miss")
            }
        };
        finish(latency, start, slot, response);
    });
}

fn forward(shared: &Arc<Shared>, request: &Request, start: Instant, slot: ResponseSlot) {
    let route = (obs_names::FORWARD_LATENCY, obs_names::FORWARD_SPAN);
    let request = match wire::parse_forward(&request.body) {
        Ok(r) => r,
        Err(e) => return finish(route.0, start, slot, error_response(&e)),
    };
    let snapshot = shared.store.load();
    let key = CacheKey::forward(
        snapshot.generation,
        wire::engine_name(request.common.engine),
        request.common.edge_class,
        request.memo,
        &request.seeds,
    );
    answer(shared, route, start, slot, key, move || {
        let result = Analysis::of(&snapshot.tdg)
            .forward(&request.seeds)
            .engine(request.common.engine)
            .edge_class(request.common.edge_class)
            .memo(request.memo)
            .run()?;
        Ok(move || wire::render_forward(snapshot.generation, request.common.engine, &result))
    });
}

fn backward(shared: &Arc<Shared>, request: &Request, start: Instant, slot: ResponseSlot) {
    let route = (obs_names::BACKWARD_LATENCY, obs_names::BACKWARD_SPAN);
    let request = match wire::parse_backward(&request.body) {
        Ok(r) => r,
        Err(e) => return finish(route.0, start, slot, error_response(&e)),
    };
    let snapshot = shared.store.load();
    // The cache key carries the *effective* budget, so an explicit
    // budget and the equivalent deadline-derived one share an entry.
    let budget = request.common.effective_budget(shared.deadline_partials_per_ms);
    let key = CacheKey::backward(
        snapshot.generation,
        wire::engine_name(request.common.engine),
        request.common.edge_class,
        &request.target,
        request.max_chains,
        budget,
    );
    answer(shared, route, start, slot, key, move || {
        let mut query = Analysis::of(&snapshot.tdg)
            .backward(&request.target)
            .max_chains(request.max_chains)
            .engine(request.common.engine)
            .edge_class(request.common.edge_class);
        if let Some(budget) = budget {
            query = query.budget(budget);
        }
        let (chains, exhaustive) = query.run_bounded()?;
        // Attribute the cut to the deadline only when the deadline
        // supplied the budget (an explicit budget takes precedence).
        if !exhaustive && request.common.budget.is_none() && request.common.deadline_ms.is_some() {
            obs::add(obs_names::DEADLINE_EXPIRED, 1);
        }
        Ok(move || {
            wire::render_backward(
                snapshot.generation,
                request.common.engine,
                &request.target,
                &chains,
                exhaustive,
            )
        })
    });
}

fn score(shared: &Arc<Shared>, request: &Request, start: Instant, slot: ResponseSlot) {
    let route = (obs_names::SCORE_LATENCY, obs_names::SCORE_SPAN);
    let request = match wire::parse_score(&request.body) {
        Ok(r) => r,
        Err(e) => return finish(route.0, start, slot, error_response(&e)),
    };
    let snapshot = shared.store.load();
    let key = CacheKey::score(
        snapshot.generation,
        wire::engine_name(request.common.engine),
        request.common.edge_class,
        &request.profiles,
    );
    answer(shared, route, start, slot, key, move || {
        // The graph source borrows the snapshot's prepared substrate —
        // one compilation per generation, shared by every batch and
        // every user in it.
        let scores = Analysis::of(&snapshot.tdg)
            .score_users(&request.profiles)
            .engine(request.common.engine)
            .edge_class(request.common.edge_class)
            .run()?;
        Ok(move || wire::render_score(snapshot.generation, request.common.engine, &scores))
    });
}

fn whatif(shared: &Arc<Shared>, request: &Request, start: Instant, slot: ResponseSlot) {
    let route = (obs_names::WHATIF_LATENCY, obs_names::WHATIF_SPAN);
    let request = match wire::parse_whatif(&request.body) {
        Ok(r) => r,
        Err(e) => return finish(route.0, start, slot, error_response(&e)),
    };
    let snapshot = shared.store.load();
    let key = CacheKey::whatif(
        snapshot.generation,
        request.common.edge_class,
        &request.countermeasures,
        request.sweep,
        request.severed_chains,
    );
    answer(shared, route, start, slot, key, move || {
        // Both modes route through the snapshot's shared patcher
        // (compiled-patch cache) and the graph's prewarmed backward
        // engine: nothing here ever recompiles the prepared substrate.
        let evaluate = |set: &[Countermeasure]| {
            Analysis::of(&snapshot.tdg)
                .whatif(set)
                .patcher(&snapshot.patcher)
                .edge_class(request.common.edge_class)
                .max_severed(request.severed_chains)
                .run()
        };
        let reports = if request.sweep {
            Countermeasure::subsets().iter().map(|set| evaluate(set)).collect::<Result<_, _>>()?
        } else {
            vec![evaluate(&request.countermeasures)?]
        };
        Ok(move || wire::render_whatif(snapshot.generation, &reports))
    });
}

fn reload(shared: &Arc<Shared>, request: &Request, start: Instant, slot: ResponseSlot) {
    let response = (|| {
        let request = match wire::parse_reload(&request.body) {
            Ok(r) => r,
            Err(e) => return error_response(&e),
        };
        let dataset = match Dataset::parse(&request.dataset) {
            Ok(d) => d,
            Err(e) => return error_response(&e),
        };
        let snapshot = shared.store.reload(dataset);
        obs::add(obs_names::RELOADS, 1);
        let response_body = format!(
            "{{\"generation\":{},\"dataset\":\"{}\",\"services\":{}}}",
            snapshot.generation,
            snapshot.dataset.name(),
            snapshot.specs.len()
        );
        Response::json(200, response_body.into_bytes())
    })();
    finish(obs_names::ADMIN_LATENCY, start, slot, response);
}

fn admin_shutdown(shared: &Arc<Shared>, _request: &Request, start: Instant, slot: ResponseSlot) {
    // The reactor re-checks the flag after completions apply, so the
    // drain starts in the same loop iteration that writes this reply.
    shared.shutdown.store(true, Ordering::SeqCst);
    let response = Response::json(200, br#"{"status":"draining"}"#.to_vec());
    finish(obs_names::ADMIN_LATENCY, start, slot, response);
}
