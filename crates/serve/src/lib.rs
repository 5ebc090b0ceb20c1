//! `actfort-serve` — a concurrent HTTP/JSON query service over the
//! unified [`Analysis`](actfort_core::query::Analysis) facade.
//!
//! The paper's workload is a defender continuously asking forward
//! ("given these breached accounts, who falls?") and backward ("how
//! would an attacker reach this account?") questions as the ecosystem
//! changes (§III-E). This crate turns the in-process analysis engines
//! into a long-lived service that amortizes graph construction across
//! queries, with nothing beyond `std` — matching the workspace's
//! vendored-shim policy:
//!
//! - [`http`] — minimal HTTP/1.1 framing as pure buffer transforms
//!   (request line + headers + `Content-Length` bodies, keep-alive,
//!   pipelining).
//! - [`reactor`] — the single-threaded epoll event loop that owns the
//!   listener and every client socket: edge-triggered readiness,
//!   per-connection state machines, one ordered set holding each open
//!   connection's deadline, classified accept errors with exponential
//!   backoff, and a wakeup-fd completion channel from the worker pool.
//! - [`wire`] — the JSON protocol on `obs::json`, whose parser reads
//!   every untrusted request body in linear time and refuses nesting
//!   past [`MAX_DEPTH`](actfort_core::obs::json::MAX_DEPTH) (`400`,
//!   [`CODE_SERVE_BODY_TOO_DEEP`]): deterministic rendering, stable
//!   error codes from [`Error::code`](actfort_core::Error::code).
//! - [`snapshot`] — `Arc`-shared immutable ecosystem generations with
//!   atomic hot-swap (`POST /admin/reload`); a request serves entirely
//!   from the generation it loaded first, so responses never tear.
//! - [`cache`] — every analysis route's responses (forward, backward,
//!   score, whatif) cached as rendered bytes, keyed on the canonicalized
//!   query + engine + snapshot generation.
//! - [`queue`] — a bounded work queue over a fixed worker pool (sized
//!   like [`BatchAnalyzer`](actfort_core::batch::BatchAnalyzer));
//!   when full the server sheds load with `503` + `Retry-After`.
//! - [`server`] — routing on the reactor thread, one request pipeline
//!   shared by the four analysis routes (cache lookup, shedding, compute
//!   and render timing, cache insert), deadlines (translated into the
//!   backward engine's partial budget) and graceful drain-on-shutdown
//!   that completes every accepted request.
//! - [`client`] — the matching blocking client used by tests and CI
//!   smoke.
//!
//! # Endpoints
//!
//! | Method + path          | Purpose                                    |
//! |------------------------|--------------------------------------------|
//! | `GET /healthz`         | liveness + current generation              |
//! | `GET /metrics`         | the global `obs` snapshot as JSON          |
//! | `POST /v1/forward`     | forward analysis (cached)                  |
//! | `POST /v1/backward`    | backward chains (deadline-aware)           |
//! | `POST /score`          | per-user overlay scoring, batched (cached; |
//! |   (alias `/v1/score`)  | 64-lane bit-parallel sweep)                |
//! | `POST /whatif`         | countermeasure what-if: one set, or the    |
//! |   (alias `/v1/whatif`) | full 2⁵-subset sweep, on the delta-patched |
//! |                        | substrate — no recompiles (cached)         |
//! | `POST /admin/reload`   | hot-swap the dataset snapshot              |
//! | `POST /admin/shutdown` | graceful drain                             |

pub mod cache;
pub mod client;
pub mod http;
pub mod queue;
pub mod reactor;
pub mod server;
pub mod snapshot;
pub mod wire;

pub use client::{Client, ClientResponse};
pub use server::{
    start, ServerConfig, ServerHandle, CODE_SERVE_BODY_TOO_DEEP, CODE_SERVE_IO,
    CODE_SERVE_OVERLOADED, CODE_SERVE_UNKNOWN_VERSION,
};
pub use snapshot::Dataset;

/// Canonical `obs` metric names the server records, in one place so the
/// bench driver, the tests and `/metrics` consumers never drift on
/// spelling.
pub mod obs_names {
    /// Counter: requests fully parsed (any endpoint, any status).
    pub const REQUESTS: &str = "serve.requests";
    /// Counter: response-cache hits, on every analysis route.
    pub const CACHE_HITS: &str = "serve.cache.hits";
    /// Counter: response-cache misses, on every analysis route.
    pub const CACHE_MISSES: &str = "serve.cache.misses";
    /// Gauge (histogram of observed sizes): cache entry count.
    pub const CACHE_SIZE: &str = "serve.cache.size";
    /// Counter: jobs refused because the bounded queue was full.
    pub const QUEUE_REJECTED: &str = "serve.queue.rejected";
    /// Gauge (histogram of observed depths): pending jobs.
    pub const QUEUE_DEPTH: &str = "serve.queue.depth";
    /// Counter: backward searches cut short by a request deadline.
    pub const DEADLINE_EXPIRED: &str = "serve.deadline.expired";
    /// Counter: successful snapshot hot-swaps.
    pub const RELOADS: &str = "serve.reloads";
    /// Span: one forward analysis on a worker thread.
    pub const FORWARD_SPAN: &str = "serve.forward";
    /// Span: one backward analysis on a worker thread.
    pub const BACKWARD_SPAN: &str = "serve.backward";
    /// Span: one per-user score batch on a worker thread.
    pub const SCORE_SPAN: &str = "serve.score";
    /// Span: one countermeasure what-if evaluation (single set or the
    /// full every-subset sweep) on a worker thread.
    pub const WHATIF_SPAN: &str = "serve.whatif";
    /// Span (child of an endpoint span): the analysis run itself.
    pub const COMPUTE_SPAN: &str = "compute";
    /// Span (child of an endpoint span): rendering the response body.
    pub const RENDER_SPAN: &str = "render";
    /// Histogram: time an analysis job spent in the bounded queue
    /// before a worker picked it up (enqueue → job start).
    pub const QUEUE_WAIT_NS: &str = "serve.request.queue_wait_ns";
    /// Histogram: analysis compute time on the worker (the engine run,
    /// excluding rendering).
    pub const COMPUTE_NS: &str = "serve.request.compute_ns";
    /// Histogram: response-body render time on the worker.
    pub const RENDER_NS: &str = "serve.request.render_ns";
    /// Histogram: `/v1/forward` wall latency (protocol + queue + run).
    pub const FORWARD_LATENCY: &str = "serve.forward.latency_ns";
    /// Histogram: `/v1/backward` wall latency.
    pub const BACKWARD_LATENCY: &str = "serve.backward.latency_ns";
    /// Histogram: `/score` wall latency.
    pub const SCORE_LATENCY: &str = "serve.score.latency_ns";
    /// Histogram: `/whatif` wall latency.
    pub const WHATIF_LATENCY: &str = "serve.whatif.latency_ns";
    /// Histogram: `/healthz` wall latency.
    pub const HEALTHZ_LATENCY: &str = "serve.healthz.latency_ns";
    /// Histogram: `/metrics` wall latency.
    pub const METRICS_LATENCY: &str = "serve.metrics.latency_ns";
    /// Histogram: admin endpoint wall latency.
    pub const ADMIN_LATENCY: &str = "serve.admin.latency_ns";
    /// Histogram: 404/405 wall latency.
    pub const OTHER_LATENCY: &str = "serve.other.latency_ns";
    /// Counter: reactor `epoll_wait` returns.
    pub const REACTOR_POLLS: &str = "serve.reactor.polls";
    /// Counter: wakeup-fd pokes observed (worker completions, shutdown).
    pub const REACTOR_WAKEUPS: &str = "serve.reactor.wakeups";
    /// Counter: completions that arrived for an already-closed
    /// connection (or a reused token of a later generation) and were
    /// discarded by the generation check.
    pub const STALE_COMPLETIONS: &str = "serve.reactor.stale_completions";
    /// Counter: connections accepted.
    pub const CONN_ACCEPTED: &str = "serve.conn.accepted";
    /// Counter: connections closed (any reason).
    pub const CONN_CLOSED: &str = "serve.conn.closed";
    /// Counter: connections closed by an idle/stall timeout.
    pub const CONN_TIMEOUTS: &str = "serve.conn.timeouts";
    /// Histogram: connection lifetime, accept → close.
    pub const CONN_LIFETIME_NS: &str = "serve.conn.lifetime_ns";
    /// Gauge (histogram of observed depths): pipelined requests in
    /// flight on a connection at dispatch time.
    pub const PIPELINE_DEPTH: &str = "serve.conn.pipeline_depth";
    /// Histogram: request wall time, parse → response queued for write.
    pub const REQUEST_WALL_NS: &str = "serve.request.wall_ns";
    /// Counter: transient accept errors (retried immediately).
    pub const ACCEPT_TRANSIENT: &str = "serve.accept.transient";
    /// Counter: resource-exhaustion accept errors (EMFILE …, backed
    /// off exponentially).
    pub const ACCEPT_RESOURCE: &str = "serve.accept.resource";
    /// Counter: unexpected accept errors (also backed off).
    pub const ACCEPT_FATAL: &str = "serve.accept.fatal";
}
