//! Request bodies and schedules, all drawn from the workload seed.
//!
//! The server only ever sees these generated bodies; the same seed gives
//! the same bodies in the same order, so the traced replay and the
//! oracle can re-derive every request from its position alone.

use actfort_core::profile::AttackerProfile;
use actfort_core::tdg::Tdg;
use actfort_core::Countermeasure;
use actfort_ecosystem::policy::Platform;
use actfort_ecosystem::synth::paper_population;
use std::collections::HashSet;
use std::time::Duration;

use crate::load::Send;

/// The served population and the one the reloads alternate with.
pub const POPULATION: u64 = 2021;
pub const RELOAD_POPULATION: u64 = 2022;

/// Partial-state budget on every backward body. Unbounded searches are
/// sub-microsecond on most targets and tens of milliseconds on a few,
/// which would make the tail a property of which targets a seed drew.
pub const BACKWARD_BUDGET: usize = 2_000;

/// Profiles per `/score` batch: 64 users, one lane word of
/// `core::score`. A cache hit still parses the whole body on the
/// reactor thread, so wire parsing is a large share of the hot mix.
const SCORE_BATCH: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Route {
    Forward,
    Backward,
    Score,
    Whatif,
    Reload,
}

impl Route {
    pub fn path(self) -> &'static str {
        match self {
            Route::Forward => "/v1/forward",
            Route::Backward => "/v1/backward",
            Route::Score => "/v1/score",
            Route::Whatif => "/v1/whatif",
            Route::Reload => "/admin/reload",
        }
    }
}

/// One request body and the route it goes to.
#[derive(Debug, Clone)]
pub struct Body {
    pub route: Route,
    pub json: String,
}

impl Body {
    /// The request as it goes on the wire.
    pub fn wire(&self) -> Vec<u8> {
        format!(
            "POST {} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n{}",
            self.route.path(),
            self.json.len(),
            self.json
        )
        .into_bytes()
    }

    pub fn reload(population: u64) -> Self {
        Body {
            route: Route::Reload,
            json: format!("{{\"dataset\":\"paper:{population}\"}}"),
        }
    }
}

/// splitmix64: small, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Service ids in the served graph of both populations the reloads
/// alternate between, so every body is valid on either generation.
/// (The graph keeps only services present on the server's platform.)
pub fn service_ids() -> Vec<String> {
    let graph_ids = |population: u64| -> HashSet<String> {
        let tdg = Tdg::build(
            &paper_population(population),
            Platform::Web,
            AttackerProfile::paper_default(),
        );
        tdg.specs()
            .iter()
            .map(|s| s.id.as_str().to_owned())
            .collect()
    };
    let reload = graph_ids(RELOAD_POPULATION);
    let mut ids: Vec<String> = graph_ids(POPULATION)
        .into_iter()
        .filter(|id| reload.contains(id))
        .collect();
    ids.sort();
    ids
}

fn id_array(ids: &[&str]) -> String {
    let quoted: Vec<String> = ids.iter().map(|id| format!("\"{id}\"")).collect();
    format!("[{}]", quoted.join(","))
}

fn pick_sorted<'a>(rng: &mut Rng, ids: &'a [String], count: usize) -> Vec<&'a str> {
    let mut picked: Vec<&str> = (0..count)
        .map(|_| ids[rng.below(ids.len())].as_str())
        .collect();
    picked.sort_unstable();
    picked.dedup();
    picked
}

/// A profile list in the wire shape `/score` takes.
fn score_json(profiles: &[Vec<&str>]) -> String {
    let items: Vec<String> = profiles
        .iter()
        .map(|p| format!("{{\"services\":{}}}", id_array(p)))
        .collect();
    format!("{{\"profiles\":[{}]}}", items.join(","))
}

fn forward(rng: &mut Rng, ids: &[String]) -> Body {
    let count = 1 + rng.below(3);
    let seeds = pick_sorted(rng, ids, count);
    Body {
        route: Route::Forward,
        json: format!("{{\"seeds\":{}}}", id_array(&seeds)),
    }
}

fn backward(rng: &mut Rng, ids: &[String]) -> Body {
    let target = &ids[rng.below(ids.len())];
    Body {
        route: Route::Backward,
        json: format!("{{\"target\":\"{target}\",\"budget\":{BACKWARD_BUDGET}}}"),
    }
}

fn score(rng: &mut Rng, ids: &[String], batch: usize) -> Body {
    let profiles: Vec<Vec<&str>> = (0..batch)
        .map(|_| {
            let count = 4 + rng.below(8);
            pick_sorted(rng, ids, count)
        })
        .collect();
    Body {
        route: Route::Score,
        json: score_json(&profiles),
    }
}

/// Whether a countermeasure subset (bit `i` = `Countermeasure::all()[i]`)
/// is in the what-if mix. Unified masking without built-in push or
/// passkey enrollment is left out: its severed-chain search takes
/// 20–180 ms where every other set takes about 1 ms, so the tail would
/// measure which sets a seed drew rather than the server.
fn whatif_in_mix(mask: usize) -> bool {
    let has = |cm: Countermeasure| {
        Countermeasure::all()
            .iter()
            .position(|&c| c == cm)
            .is_some_and(|i| mask & (1 << i) != 0)
    };
    !has(Countermeasure::UnifiedMasking)
        || has(Countermeasure::BuiltInPush)
        || has(Countermeasure::PasskeyEnrollment)
}

fn whatif(mask: usize) -> Body {
    let names: Vec<&str> = Countermeasure::all()
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, cm)| cm.wire_name())
        .collect();
    Body {
        route: Route::Whatif,
        json: format!("{{\"countermeasures\":{}}}", id_array(&names)),
    }
}

/// The hot set: 32 fixed bodies, eight per analysis route, so after one
/// pass nearly every response is a cache hit. The even split across
/// routes is assumed, not taken from measured traffic.
pub fn hot_set(seed: u64, ids: &[String]) -> Vec<Body> {
    let mut rng = Rng::new(seed, 1);
    let masks: Vec<usize> = (1..1usize << Countermeasure::all().len())
        .filter(|&m| whatif_in_mix(m))
        .collect();
    let mut bodies = Vec::with_capacity(32);
    for i in 0..8 {
        bodies.push(forward(&mut rng, ids));
        bodies.push(backward(&mut rng, ids));
        bodies.push(score(&mut rng, ids, SCORE_BATCH));
        bodies.push(whatif(masks[(i * 3 + rng.below(3)) % masks.len()]));
    }
    bodies
}

/// `count` requests at `rate` per second, evenly spaced; request `i`
/// sends wire `wire_of(i)`.
pub fn even_schedule(
    rate: f64,
    count: usize,
    mut wire_of: impl FnMut(usize) -> usize,
) -> Vec<Send> {
    (0..count)
        .map(|i| Send {
            due: Duration::from_secs_f64(i as f64 / rate),
            wire: wire_of(i),
            conn: None,
        })
        .collect()
}

/// Inserts a reload every `every` on connection `conn`, alternating the
/// two populations: `reload_wires` holds the wire index of the reload to
/// `RELOAD_POPULATION` and of the one back to `POPULATION`.
pub fn with_reloads(
    mut plan: Vec<Send>,
    every: Duration,
    reload_wires: [usize; 2],
    conn: usize,
) -> Vec<Send> {
    let end = plan.last().map_or(Duration::ZERO, |s| s.due);
    let mut at = every;
    let mut k = 0;
    while at < end {
        plan.push(Send {
            due: at,
            wire: reload_wires[k % 2],
            conn: Some(conn),
        });
        at += every;
        k += 1;
    }
    plan.sort_by_key(|s| s.due);
    plan
}

/// Draws from a fixed set in shuffled rounds: every round of `len`
/// draws holds each item once, so any stretch of the schedule has the
/// same composition.
pub struct Deck {
    rng: Rng,
    order: Vec<usize>,
    next: usize,
}

impl Deck {
    pub fn new(rng: Rng, len: usize) -> Self {
        Deck {
            rng,
            order: (0..len).collect(),
            next: len,
        }
    }

    pub fn draw(&mut self) -> usize {
        if self.next == self.order.len() {
            for i in (1..self.order.len()).rev() {
                self.order.swap(i, self.rng.below(i + 1));
            }
            self.next = 0;
        }
        self.next += 1;
        self.order[self.next - 1]
    }
}
