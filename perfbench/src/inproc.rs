//! The serve request path rebuilt from the layers' public functions, on
//! the benchmark's side of the API.
//!
//! Two users share it. The oracle answers a request against a snapshot
//! it built itself and compares bytes with what the server sent. The
//! traced run replays every generated request through it, in request
//! order, with a span around each layer call; self times come from
//! those spans. Nothing here adds tracing inside the program.

use actfort_core::backward::BackwardEngine;
use actfort_core::query::{Analysis, Engine};
use actfort_core::tdg::Tdg;
use actfort_core::{Countermeasure, Error, Patcher};
use actfort_serve::cache::{CacheKey, ResponseCache};
use actfort_serve::http::{self, Parse, Response};
use actfort_serve::snapshot::{Dataset, Snapshot};
use actfort_serve::wire;
use std::sync::Arc;
use std::time::Instant;

use crate::workload::Route;

/// The layers a span can be charged to. `Request` is the per-request
/// root: its self time is the glue between layer calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Request,
    HttpParse,
    HttpRender,
    WireParse,
    WireRender,
    CacheGet,
    CacheInsert,
    PreparedForward,
    BackwardRun,
    ScoreBatch,
    CounterWhatif,
    SnapshotBuild,
    SynthPopulation,
    TdgBuild,
    BackwardNew,
    PatcherNew,
    CampaignRun,
    CampaignAssess,
}

const LAYERS: usize = 18;

impl Layer {
    /// Every layer, in discriminant order.
    pub const ALL: [Layer; LAYERS] = [
        Layer::Request,
        Layer::HttpParse,
        Layer::HttpRender,
        Layer::WireParse,
        Layer::WireRender,
        Layer::CacheGet,
        Layer::CacheInsert,
        Layer::PreparedForward,
        Layer::BackwardRun,
        Layer::ScoreBatch,
        Layer::CounterWhatif,
        Layer::SnapshotBuild,
        Layer::SynthPopulation,
        Layer::TdgBuild,
        Layer::BackwardNew,
        Layer::PatcherNew,
        Layer::CampaignRun,
        Layer::CampaignAssess,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Request => "replay.glue",
            Layer::HttpParse => "serve.http.parse",
            Layer::HttpRender => "serve.http.render",
            Layer::WireParse => "serve.wire.parse",
            Layer::WireRender => "serve.wire.render",
            Layer::CacheGet => "serve.cache.get",
            Layer::CacheInsert => "serve.cache.insert",
            Layer::PreparedForward => "core.prepared.forward",
            Layer::BackwardRun => "core.backward.run",
            Layer::ScoreBatch => "core.score.batch",
            Layer::CounterWhatif => "core.counter.whatif",
            Layer::SnapshotBuild => "serve.snapshot.build",
            Layer::SynthPopulation => "ecosystem.synth.population",
            Layer::TdgBuild => "core.tdg.build",
            Layer::BackwardNew => "core.backward.new",
            Layer::PatcherNew => "core.counter.patcher_new",
            Layer::CampaignRun => "gsm.campaign.run",
            Layer::CampaignAssess => "core.campaign.assess",
        }
    }
}

/// One closed span: the request it belongs to, its layer, its parent
/// span (index into the span list) and its interval in nanoseconds
/// since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub request: u32,
    pub layer: Layer,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span recorder. Disabled, it only runs the closures.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    request: u32,
    /// Open spans: (index in `spans`, time covered by closed children).
    stack: Vec<(usize, u64)>,
    pub spans: Vec<Span>,
    pub self_ns: [u64; LAYERS],
    pub calls: [u64; LAYERS],
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            request: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            self_ns: [0; LAYERS],
            calls: [0; LAYERS],
        }
    }

    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn enter(&mut self, layer: Layer) {
        if !self.on {
            return;
        }
        let parent = self.stack.last().map(|&(i, _)| i as u32);
        self.spans.push(Span {
            request: self.request,
            layer,
            parent,
            start_ns: 0,
            end_ns: 0,
        });
        self.stack.push((self.spans.len() - 1, 0));
        let now = self.now_ns();
        if let Some(s) = self.spans.last_mut() {
            s.start_ns = now;
        }
    }

    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        let (index, children) = self.stack.pop().expect("exit without a matching enter");
        let span = &mut self.spans[index];
        span.end_ns = now;
        let length = now - span.start_ns;
        let layer = span.layer as usize;
        self.self_ns[layer] += length.saturating_sub(children);
        self.calls[layer] += 1;
        if let Some((_, parent_children)) = self.stack.last_mut() {
            *parent_children += length;
        }
    }

    pub fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        self.enter(layer);
        let out = f();
        self.exit();
        out
    }

    /// Frees `value` in a span of `layer` that adds to the layer's self
    /// time but not to its calls: the teardown of what the layer built
    /// (a parsed request is freed only after the handler is done).
    pub fn teardown<T>(&mut self, layer: Layer, value: T) {
        self.span(layer, || drop(value));
        if self.on {
            self.calls[layer as usize] -= 1;
        }
    }

    /// Opens the root span of request `id`.
    pub fn begin_request(&mut self, id: u32) {
        self.request = id;
        self.enter(Layer::Request);
    }
}

/// What answering one analysis request produced.
pub struct Answer {
    /// The response body, shared with the cache as the server's is.
    pub body: Arc<Vec<u8>>,
    pub hit: bool,
    /// Backward only: whether the search ran to completion.
    pub exhaustive: Option<bool>,
}

/// Answers one analysis request exactly as the server's handler does,
/// against `snapshot` under `generation`. With a cache, a hit returns
/// the cached bytes and a miss fills it.
pub fn answer(
    snapshot: &Snapshot,
    generation: u64,
    route: Route,
    body: &[u8],
    cache: Option<&ResponseCache>,
    t: &mut Tracer,
) -> Result<Answer, Error> {
    // Key canonicalization is cache-layer code, so it is charged to
    // the lookup span.
    let lookup = |t: &mut Tracer, make_key: &dyn Fn() -> CacheKey| {
        t.span(Layer::CacheGet, || {
            let key = make_key();
            let hit = cache.and_then(|c| c.get(&key));
            (key, hit)
        })
    };
    let mut exhaustive = None;
    let (key, rendered) = match route {
        Route::Forward => {
            let req = t.span(Layer::WireParse, || wire::parse_forward(body))?;
            let (key, hit) = lookup(t, &|| {
                CacheKey::forward(
                    generation,
                    wire::engine_name(req.common.engine),
                    req.common.edge_class,
                    req.memo,
                    &req.seeds,
                )
            });
            if let Some(hit) = hit {
                t.teardown(Layer::WireParse, req);
                return Ok(Answer {
                    body: hit,
                    hit: true,
                    exhaustive,
                });
            }
            let result = t.span(Layer::PreparedForward, || {
                Analysis::of(&snapshot.tdg)
                    .forward(&req.seeds)
                    .engine(req.common.engine)
                    .edge_class(req.common.edge_class)
                    .memo(req.memo)
                    .run()
            })?;
            let rendered = t.span(Layer::WireRender, || {
                wire::render_forward(generation, req.common.engine, &result)
            });
            t.teardown(Layer::WireParse, req);
            (key, rendered)
        }
        Route::Backward => {
            let req = t.span(Layer::WireParse, || wire::parse_backward(body))?;
            let budget = req.common.effective_budget(wire::DEADLINE_PARTIALS_PER_MS);
            let (key, hit) = lookup(t, &|| {
                CacheKey::backward(
                    generation,
                    wire::engine_name(req.common.engine),
                    req.common.edge_class,
                    &req.target,
                    req.max_chains,
                    budget,
                )
            });
            if let Some(hit) = hit {
                t.teardown(Layer::WireParse, req);
                return Ok(Answer {
                    body: hit,
                    hit: true,
                    exhaustive,
                });
            }
            let (chains, done) = t.span(Layer::BackwardRun, || {
                let mut query = Analysis::of(&snapshot.tdg)
                    .backward(&req.target)
                    .max_chains(req.max_chains)
                    .engine(req.common.engine)
                    .edge_class(req.common.edge_class);
                if req.common.engine != Engine::Naive {
                    query = query.via(&snapshot.backward);
                }
                if let Some(budget) = budget {
                    query = query.budget(budget);
                }
                query.run_bounded()
            })?;
            exhaustive = Some(done);
            let rendered = t.span(Layer::WireRender, || {
                wire::render_backward(generation, req.common.engine, &req.target, &chains, done)
            });
            t.teardown(Layer::WireParse, req);
            (key, rendered)
        }
        Route::Score => {
            let req = t.span(Layer::WireParse, || wire::parse_score(body))?;
            let (key, hit) = lookup(t, &|| {
                CacheKey::score(
                    generation,
                    wire::engine_name(req.common.engine),
                    req.common.edge_class,
                    &req.profiles,
                )
            });
            if let Some(hit) = hit {
                t.teardown(Layer::WireParse, req);
                return Ok(Answer {
                    body: hit,
                    hit: true,
                    exhaustive,
                });
            }
            let scores = t.span(Layer::ScoreBatch, || {
                Analysis::of(&snapshot.tdg)
                    .score_users(&req.profiles)
                    .engine(req.common.engine)
                    .edge_class(req.common.edge_class)
                    .run()
            })?;
            let rendered = t.span(Layer::WireRender, || {
                wire::render_score(generation, req.common.engine, &scores)
            });
            t.teardown(Layer::WireParse, req);
            (key, rendered)
        }
        Route::Whatif => {
            let req = t.span(Layer::WireParse, || wire::parse_whatif(body))?;
            let (key, hit) = lookup(t, &|| {
                CacheKey::whatif(
                    generation,
                    req.common.edge_class,
                    &req.countermeasures,
                    req.sweep,
                    req.severed_chains,
                )
            });
            if let Some(hit) = hit {
                t.teardown(Layer::WireParse, req);
                return Ok(Answer {
                    body: hit,
                    hit: true,
                    exhaustive,
                });
            }
            let reports = t.span(Layer::CounterWhatif, || {
                let evaluate = |set: &[Countermeasure]| {
                    Analysis::of(&snapshot.tdg)
                        .whatif(set)
                        .patcher(&snapshot.patcher)
                        .via(&snapshot.backward)
                        .edge_class(req.common.edge_class)
                        .max_severed(req.severed_chains)
                        .run()
                };
                if req.sweep {
                    let all = Countermeasure::all();
                    (0u32..1 << all.len())
                        .map(|mask| {
                            let set: Vec<Countermeasure> = all
                                .iter()
                                .enumerate()
                                .filter(|(i, _)| mask & (1 << i) != 0)
                                .map(|(_, cm)| *cm)
                                .collect();
                            evaluate(&set)
                        })
                        .collect::<Result<Vec<_>, _>>()
                } else {
                    evaluate(&req.countermeasures).map(|r| vec![r])
                }
            })?;
            let rendered = t.span(Layer::WireRender, || {
                wire::render_whatif(generation, &reports)
            });
            t.teardown(Layer::WireParse, req);
            (key, rendered)
        }
        Route::Reload => unreachable!("reloads are not analysis requests"),
    };
    let body = match cache {
        Some(cache) => t.span(Layer::CacheInsert, || cache.insert(key, Arc::new(rendered))),
        None => Arc::new(rendered),
    };
    Ok(Answer {
        body,
        hit: false,
        exhaustive,
    })
}

/// Builds a snapshot through the same public calls `Snapshot::build`
/// makes, one span each, so set-up cost splits into population
/// synthesis, graph build, backward engine and patcher.
pub fn decomposed_build(dataset: Dataset, generation: u64, t: &mut Tracer) -> Snapshot {
    let platform = actfort_ecosystem::policy::Platform::Web;
    let profile = actfort_core::profile::AttackerProfile::paper_default();
    let specs = t.span(Layer::SynthPopulation, || dataset.specs());
    let tdg = t.span(Layer::TdgBuild, || Tdg::build(&specs, platform, profile));
    let backward = t.span(Layer::BackwardNew, || BackwardEngine::new(&tdg));
    let patcher = t.span(Layer::PatcherNew, || {
        Patcher::new(Arc::clone(tdg.prepared()))
    });
    Snapshot {
        generation,
        dataset,
        platform,
        profile,
        specs,
        tdg,
        backward,
        patcher,
    }
}

/// The snapshot the server builds for `dataset`: same platform and
/// attacker profile as `ServerConfig::default()`.
pub fn build(dataset: Dataset, generation: u64) -> Snapshot {
    Snapshot::build(
        dataset,
        actfort_ecosystem::policy::Platform::Web,
        actfort_core::profile::AttackerProfile::paper_default(),
        generation,
    )
}

/// Replays one raw HTTP request through the http layer and the handler
/// path: parse, answer (or reload), render. Returns the response bytes'
/// length and, for analysis routes, the answer.
pub struct Replayer {
    pub snapshot: Arc<Snapshot>,
    pub generation: u64,
    pub cache: ResponseCache,
    pub bytes_out: u64,
    pub responses: u64,
    out: Vec<u8>,
}

impl Replayer {
    pub fn new(snapshot: Snapshot, cache_capacity: usize) -> Self {
        Replayer {
            generation: snapshot.generation,
            snapshot: Arc::new(snapshot),
            cache: ResponseCache::new(cache_capacity),
            bytes_out: 0,
            responses: 0,
            out: Vec::with_capacity(64 * 1024),
        }
    }

    pub fn replay(
        &mut self,
        id: u32,
        route: Route,
        raw: &[u8],
        t: &mut Tracer,
    ) -> Result<Option<Answer>, Error> {
        t.begin_request(id);
        let result = self.replay_inner(route, raw, t);
        t.exit();
        result
    }

    fn replay_inner(
        &mut self,
        route: Route,
        raw: &[u8],
        t: &mut Tracer,
    ) -> Result<Option<Answer>, Error> {
        let request = match t.span(Layer::HttpParse, || http::parse_request(raw)) {
            Parse::Complete { request, .. } => request,
            _ => return Err(Error::Query("replayed request did not parse".into())),
        };
        let (body, cache, answer) = if route == Route::Reload {
            let dataset = t.span(Layer::WireParse, || {
                wire::parse_reload(&request.body).and_then(|req| Dataset::parse(&req.dataset))
            })?;
            self.generation += 1;
            let generation = self.generation;
            // The swap frees the previous snapshot; that is charged to
            // the build too.
            let current = &mut self.snapshot;
            t.span(Layer::SnapshotBuild, || {
                *current = Arc::new(build(dataset, generation));
            });
            let snapshot = &self.snapshot;
            let body = t.span(Layer::WireRender, || {
                format!(
                    "{{\"generation\":{},\"dataset\":\"{}\",\"services\":{}}}",
                    snapshot.generation,
                    snapshot.dataset.name(),
                    snapshot.specs.len()
                )
                .into_bytes()
            });
            (Arc::new(body), None, None)
        } else {
            let answer = answer(
                &self.snapshot,
                self.generation,
                route,
                &request.body,
                Some(&self.cache),
                t,
            )?;
            let header = if answer.hit { "hit" } else { "miss" };
            (Arc::clone(&answer.body), Some(header), Some(answer))
        };
        // Building the response, the body copy included as the server
        // makes it, is http-layer work.
        let out = &mut self.out;
        t.span(Layer::HttpRender, || {
            let response = Response::json(200, body.as_ref().clone());
            let response = match cache {
                Some(header) => response.with_header("x-actfort-cache", header),
                None => response,
            };
            out.clear();
            http::render_response(&response, false, out);
        });
        self.bytes_out += self.out.len() as u64;
        self.responses += 1;
        Ok(answer)
    }
}
