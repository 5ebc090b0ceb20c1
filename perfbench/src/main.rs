//! The repository's benchmark: open-loop serve traffic (hot reads, and
//! reads beside reloads) and a city-scale campaign, measured end to end
//! with the obs recorder off, plus a separate traced run that splits the
//! same work into layers.
//!
//! ```sh
//! cargo run --release -q --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_hot --seed 1 --seconds 25 --trace 0
//! ```
//!
//! The last line of standard output is the result object; everything
//! before it is a human-readable account of the run. `perfbench/README.md`
//! says why each workload exists and which layer metric should move
//! which end-to-end metric.

mod campaign;
mod inproc;
mod load;
mod workload;

use actfort_core::obs;
use actfort_core::obs::json::{self as json, Json};
use actfort_ecosystem::synth::paper_population;
use actfort_serve::snapshot::{Dataset, Snapshot};
use actfort_serve::{Client, ServerConfig, ServerHandle};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use std::io::Write as _;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use inproc::{Layer, Replayer, Tracer};
use load::{Cache, Generator, Reply, Send};
use workload::{Body, Deck, Rng, Route, POPULATION, RELOAD_POPULATION};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hot,
    Campaign,
}

const WORKLOADS: [(&str, Kind); 2] = [("serve_hot", Kind::Hot), ("campaign_city", Kind::Campaign)];

/// Open-loop rate of the hot mix, requests per second. It is assumed,
/// not taken from measured traffic. A cache hit is answered on the
/// reactor thread, where parsing a 64-profile `/score` body takes most
/// of a millisecond; at this rate that keeps the reactor busy about an
/// eighth of the time. Three quarters of the requests are not scores, so
/// the pooled median is one of them that did not wait behind a parse,
/// and the tail is the score parse itself. Near a third busy, the
/// median would instead sit on the edge between the two and swing with
/// the host's speed.
const HOT_RATE: f64 = 750.0;
/// Reload cost is probed with a short hot-mix open loop carrying a
/// reload every 100 ms.
const PROBE_RATE: f64 = HOT_RATE;
const PROBE_SECS: f64 = 2.0;
const PROBE_SLICE_SECS: f64 = 0.5;
const PROBE_RELOAD_EVERY: Duration = Duration::from_millis(100);
const WARMUP_SECS: f64 = 0.5;
/// One round of an end-to-end run: the open-loop slice, the closed-loop
/// slice (completions counted per `PEAK_BUCKET`, best bucket reported as
/// `peak_rps`), the probe slice, and the campaign (two runs in a serve
/// workload's round; `CAMPAIGN_SLICE_SECS` of runs in `campaign_city`'s).
/// Memory-bound campaign and assessment timings swing most with other
/// tenants' load, so they get the most repetitions.
const MAIN_SLICE_SECS: f64 = 2.0;
const PEAK_SLICE_SECS: f64 = 0.5;
const PEAK_BUCKET: f64 = 0.25;
const CAMPAIGN_SLICE_SECS: f64 = 2.5;
const SERVE_CAMPAIGN_RUNS: usize = 2;
/// Main-phase length of a traced run (longer `--seconds` are capped:
/// the traced run sends its main phase twice and then replays it).
const TRACED_MAIN_SECS: f64 = 10.0;
/// Pipelined requests each closed-loop connection keeps outstanding, so
/// the phase measures what the server completes rather than round
/// trips.
const PEAK_DEPTH: usize = 8;
/// Bounded work-queue capacity of the benchmarked server.
const QUEUE_CAPACITY: usize = 64;
/// Set-ups before the first round, and more in every round; `setup_s`
/// is the fastest of them all.
const SETUP_REPS: usize = 15;
const SETUPS_PER_ROUND: usize = 3;
/// Campaign runs in a traced run.
const CAMPAIGN_REPS: usize = 3;
/// Assessments of the first report timed alongside each later run.
const EXTRA_ASSESS: usize = 4;
/// Latency quantiles are taken per window of this many consecutive
/// requests (so a window's p99 has ten samples beyond it), and the
/// quieter windows are reported (see [`latency_summary`]). On a shared
/// host, stalls and speed drift from other tenants lift the quantiles
/// of whole stretches of a run; a tail the server causes itself
/// (queueing, reload stalls) is in every window, so it still shows.
/// Every other repeated timing in a run is its best repetition.
const WINDOW: usize = 1_000;
/// The named layers' self times must account for the traced replay's
/// wall time to within this share. What is left is the benchmark's own
/// bookkeeping between calls and the tracer's own cost.
const RECONCILE_TOLERANCE: f64 = 0.02;
/// Request replays made with spans off and with spans on; the best of
/// each gives the tracer's own cost.
const REPLAY_PASSES: usize = 2;

/// The p99 latency limit a run is held to; generator lag above a tenth
/// of it is flagged.
const P99_LIMIT_MS: f64 = 5.0;

const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("peak_rps", "1/s"),
    ("reload_ms", "ms"),
    ("frames_per_s", "1/s"),
    ("assess_ms", "ms"),
    ("rss_peak_mb", "MB"),
];

const PER_LAYER: [(&str, &str); 33] = [
    ("serve.http.parse_ns", "ns"),
    ("serve.http.render_ns", "ns"),
    ("serve.http.bytes_out", "B"),
    ("serve.wire.parse_ns", "ns"),
    ("serve.wire.render_ns", "ns"),
    ("serve.cache.get_ns", "ns"),
    ("serve.cache.insert_ns", "ns"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.reactor.polls_per_req", "count"),
    ("serve.reactor.wakeups_per_req", "count"),
    ("serve.queue.wait_ns", "ns"),
    ("serve.queue.shed", "count"),
    ("core.prepared.forward_ns", "ns"),
    ("core.prepared.minprov_memo_ratio", "ratio"),
    ("core.backward.run_ns", "ns"),
    ("core.backward.cut_ratio", "ratio"),
    ("core.score.batch_ns", "ns"),
    ("core.counter.whatif_ns", "ns"),
    ("core.counter.patcher_new_ns", "ns"),
    ("serve.snapshot.build_ns", "ns"),
    ("core.tdg.build_ns", "ns"),
    ("ecosystem.synth.population_ns", "ns"),
    ("serve.reload.stall_ns", "ns"),
    ("gsm.campaign.run_ns", "ns"),
    ("gsm.campaign.events", "count"),
    ("gsm.campaign.frames", "count"),
    ("gsm.campaign.interceptions", "count"),
    ("core.campaign.assess_ns", "ns"),
    ("core.campaign.victims", "count"),
    ("gen.lag_p99_ms", "ms"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_pct", "%"),
    ("obs.overhead_pct", "%"),
];

struct Args {
    name: &'static str,
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|(name, _)| *name == value)
                        .copied()
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| "--seconds takes a whole number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let (name, kind) = workload.ok_or("--workload is required")?;
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        name,
        kind,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Every request body of the run, as wire bytes, with its route.
#[derive(Default)]
struct Table {
    wires: Vec<Vec<u8>>,
    routes: Vec<Route>,
}

impl Table {
    fn push(&mut self, body: &Body) -> usize {
        self.wires.push(body.wire());
        self.routes.push(body.route);
        self.wires.len() - 1
    }

    fn json(&self, wire: usize) -> &[u8] {
        let bytes = &self.wires[wire];
        let start = bytes
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .map_or(0, |p| p + 4);
        &bytes[start..]
    }
}

/// A body the oracle will check: which request, under which generation,
/// and the bytes the server sent.
struct Sample {
    wire: usize,
    generation: u64,
    body: Vec<u8>,
}

/// One phase's requests in send order and what came back.
#[derive(Default)]
struct Phase {
    plan: Vec<Send>,
    replies: Vec<Reply>,
}

impl Phase {
    /// Appends a later slice of the same phase, keeping `seq` a position
    /// in the combined plan.
    fn absorb(&mut self, mut slice: Phase) {
        let offset = self.plan.len();
        for reply in &mut slice.replies {
            reply.seq += offset;
        }
        self.plan.append(&mut slice.plan);
        self.replies.append(&mut slice.replies);
    }
}

struct Run {
    args: Args,
    conns: usize,
    table: Table,
    hot: Vec<usize>,
    reload_wires: [usize; 2],
    mix: Deck,
    seen: HashSet<(usize, u64, u64)>,
    samples: Vec<Sample>,
    /// Population behind each generation of the phase server.
    populations: HashMap<u64, u64>,
    attempted: u64,
    failed: u64,
    shed: u64,
    failures: Vec<String>,
    notes: Vec<String>,
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds N --trace 0|1",
                WORKLOADS.map(|(n, _)| n).join("|")
            );
            std::process::exit(2);
        }
    };
    let mut run = Run::new(args);
    let metrics = if run.args.trace {
        run.traced()
    } else {
        run.end_to_end()
    };
    for note in &run.notes {
        println!("perfbench: {note}");
    }
    for failure in run.failures.iter().take(20) {
        println!("perfbench: FAILED {failure}");
    }
    let expected: &[(&str, &str)] = if run.args.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        run.failed == 0 && run.failures.is_empty(),
        run.attempted.max(1),
        run.failed
    );
    for (i, (name, unit)) in expected.iter().enumerate() {
        let value = metrics.get(*name).copied().unwrap_or(f64::NAN);
        let value = if value.is_finite() { value } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    out.push_str("}}");
    println!("{out}");
    let _ = std::io::stdout().flush();
}

impl Run {
    fn new(args: Args) -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let ids = workload::service_ids();
        let mut table = Table::default();
        let hot: Vec<usize> = workload::hot_set(args.seed, &ids)
            .iter()
            .map(|b| table.push(b))
            .collect();
        let reload_wires = [
            table.push(&Body::reload(RELOAD_POPULATION)),
            table.push(&Body::reload(POPULATION)),
        ];
        Run {
            mix: Deck::new(Rng::new(args.seed, 3), hot.len()),
            args,
            conns: nproc.min(2),
            table,
            hot,
            reload_wires,
            seen: HashSet::new(),
            samples: Vec::new(),
            populations: HashMap::new(),
            attempted: 0,
            failed: 0,
            shed: 0,
            failures: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn server_config(&self) -> ServerConfig {
        ServerConfig {
            dataset: Dataset::Paper(POPULATION),
            // A reload makes every cached body stale at once, and the
            // misses that follow arrive faster than two workers drain
            // them; the default four-per-worker queue would shed them.
            queue_capacity: Some(QUEUE_CAPACITY),
            threads: Some(std::thread::available_parallelism().map_or(1, |n| n.get())),
            ..ServerConfig::default()
        }
    }

    /// Starts the server and waits for its first `200` on `/healthz`.
    fn start_server(&mut self) -> ServerHandle {
        let handle = launch(self.server_config());
        self.populations.clear();
        self.populations.insert(1, POPULATION);
        handle
    }

    /// One set-up: server start to its first healthy answer, plus
    /// population synthesis and campaign configuration. Returns the
    /// seconds taken, the running server and the population.
    fn set_up_once(&self) -> (f64, ServerHandle, Vec<actfort_ecosystem::spec::ServiceSpec>) {
        let started = Instant::now();
        let handle = launch(self.server_config());
        let specs = paper_population(POPULATION);
        std::hint::black_box(campaign::city());
        (started.elapsed().as_secs_f64(), handle, specs)
    }

    /// [`SETUP_REPS`] set-ups in a row; the last server started is kept
    /// for the measured phases.
    fn setup(
        &mut self,
    ) -> (
        Vec<f64>,
        ServerHandle,
        Vec<actfort_ecosystem::spec::ServiceSpec>,
    ) {
        let mut times = Vec::with_capacity(SETUP_REPS);
        let mut last = None;
        for _ in 0..SETUP_REPS {
            if let Some((previous, _)) = last.take() {
                ServerHandle::shutdown(previous);
            }
            let (seconds, handle, specs) = self.set_up_once();
            times.push(seconds);
            last = Some((handle, specs));
        }
        let (server, specs) = last.expect("at least one set-up");
        self.populations.clear();
        self.populations.insert(1, POPULATION);
        (times, server, specs)
    }

    fn connect(&self, addr: SocketAddr) -> Generator {
        Generator::connect(addr, self.conns).unwrap_or_else(|e| {
            eprintln!("perfbench: cannot connect to the server: {e}");
            std::process::exit(1);
        })
    }

    fn mix_plan(&mut self, rate: f64, secs: f64) -> Vec<Send> {
        let count = (rate * secs).round() as usize;
        let (hot, mix) = (&self.hot, &mut self.mix);
        workload::even_schedule(rate, count, |_| hot[mix.draw()])
    }

    fn open(&mut self, generator: &mut Generator, plan: Vec<Send>) -> Phase {
        let mut keep = first_sight(&mut self.seen);
        let replies = generator
            .open_loop(&self.table.wires, &plan, &mut keep)
            .unwrap_or_else(|e| {
                eprintln!("perfbench: open loop failed: {e}");
                std::process::exit(1);
            });
        drop(keep);
        self.account(&replies);
        Phase { plan, replies }
    }

    /// One closed-loop slice of `secs` over the hot mix; returns its
    /// completions per second in each [`PEAK_BUCKET`].
    fn peak(&mut self, generator: &mut Generator, secs: f64) -> Vec<f64> {
        let (table, hot, mix) = (&self.table, &self.hot, &mut self.mix);
        let mut next = || {
            let wire = hot[mix.draw()];
            (wire, table.wires[wire].clone())
        };
        let mut keep = first_sight(&mut self.seen);
        let length = Duration::from_secs_f64(secs);
        let (replies, start) = generator
            .closed_loop(&mut next, length, PEAK_DEPTH, &mut keep)
            .unwrap_or_else(|e| {
                eprintln!("perfbench: closed loop failed: {e}");
                std::process::exit(1);
            });
        drop(keep);
        self.account(&replies);
        let buckets = (secs / PEAK_BUCKET).round() as usize;
        let mut counts = vec![0u32; buckets];
        for reply in &replies {
            let bucket = (reply.done_ns.saturating_sub(start) as f64 / 1e9 / PEAK_BUCKET) as usize;
            if let Some(count) = counts.get_mut(bucket) {
                *count += 1;
            }
        }
        counts.iter().map(|&c| f64::from(c) / PEAK_BUCKET).collect()
    }

    /// Counts every reply, checks its status, learns which population a
    /// reload built, and keeps the bodies the oracle will check.
    fn account(&mut self, replies: &[Reply]) {
        for reply in replies {
            self.attempted += 1;
            if reply.status != 200 {
                self.failed += 1;
                if reply.status == 503 {
                    self.shed += 1;
                }
                self.failures.push(format!(
                    "{} answered {}: {}",
                    self.table.routes[reply.wire].path(),
                    reply.status,
                    String::from_utf8_lossy(reply.body.as_deref().unwrap_or_default())
                ));
                continue;
            }
            let Some(generation) = reply.generation else {
                // Every analysis and reload body starts by naming its
                // generation; one that does not cannot be checked.
                self.failed += 1;
                self.failures.push(format!(
                    "{} answered 200 with a body that names no generation",
                    self.table.routes[reply.wire].path()
                ));
                continue;
            };
            let Some(body) = &reply.body else {
                // The same bytes were already kept for the oracle.
                continue;
            };
            if self.table.routes[reply.wire] == Route::Reload {
                let population = reload_population(body);
                match population {
                    Some(p) => {
                        self.populations.insert(generation, p);
                    }
                    None => {
                        self.failed += 1;
                        self.failures
                            .push("reload answer names no paper population".into());
                    }
                }
            } else {
                self.samples.push(Sample {
                    wire: reply.wire,
                    generation,
                    body: body.clone(),
                });
            }
        }
    }

    /// The serve oracle: every sampled body must equal, byte for byte,
    /// what an in-process `Analysis` → `wire::render_*` produces on a
    /// snapshot of the same population under the same generation.
    fn verify(&mut self) {
        let mut snapshots: HashMap<u64, Snapshot> = HashMap::new();
        let mut quiet = Tracer::new(false);
        for sample in std::mem::take(&mut self.samples) {
            let Some(&population) = self.populations.get(&sample.generation) else {
                self.failed += 1;
                self.failures.push(format!(
                    "body names unknown generation {}",
                    sample.generation
                ));
                continue;
            };
            let snapshot = snapshots
                .entry(population)
                .or_insert_with(|| inproc::build(Dataset::Paper(population), 1));
            let route = self.table.routes[sample.wire];
            let expected = inproc::answer(
                snapshot,
                sample.generation,
                route,
                self.table.json(sample.wire),
                None,
                &mut quiet,
            );
            match expected {
                Ok(answer) if *answer.body == sample.body => {}
                Ok(_) => {
                    self.failed += 1;
                    self.failures.push(format!(
                        "{} body differs from the oracle at generation {}",
                        route.path(),
                        sample.generation
                    ));
                }
                Err(e) => {
                    self.failed += 1;
                    self.failures
                        .push(format!("oracle could not answer {}: {e}", route.path()));
                }
            }
        }
    }

    /// Warm-up: hot workloads send each hot body once, then every
    /// workload runs half a second of its own traffic.
    fn warm_up(&mut self, generator: &mut Generator) -> Vec<Phase> {
        let hot = self.hot.clone();
        let once = self.open(
            generator,
            workload::even_schedule(200.0, hot.len(), |i| hot[i]),
        );
        let plan = self.mix_plan(HOT_RATE, WARMUP_SECS);
        vec![once, self.open(generator, plan)]
    }

    /// Length of the traced run's main phase.
    fn traced_main_secs(&self) -> f64 {
        (self.args.seconds as f64).min(TRACED_MAIN_SECS)
    }

    /// The reload probe: the hot mix with a reload every 100 ms.
    fn probe(&mut self, generator: &mut Generator, secs: f64) -> Phase {
        let plan = self.mix_plan(PROBE_RATE, secs);
        let plan =
            workload::with_reloads(plan, PROBE_RELOAD_EVERY, self.reload_wires, self.conns - 1);
        self.open(generator, plan)
    }

    /// The first campaign run of the recorded city.
    fn campaign_start(&mut self, specs: &[actfort_ecosystem::spec::ServiceSpec]) -> Campaign {
        let first = campaign::rep(specs);
        self.attempted += 1;
        Campaign {
            runs: vec![first.run_ns],
            assess_ns: vec![first.assess_ns],
            first,
        }
    }

    /// One more campaign run, which must reproduce the first exactly,
    /// and [`EXTRA_ASSESS`] more assessments of the first report. Runs
    /// are spread over the rounds, so the best one is not hostage to one
    /// stretch of host load.
    fn campaign_more(&mut self, c: &mut Campaign, specs: &[actfort_ecosystem::spec::ServiceSpec]) {
        let rep = campaign::rep(specs);
        if rep.report != c.first.report || rep.impact != c.first.impact {
            self.failed += 1;
            self.failures.push("campaign reruns disagree".into());
        }
        c.runs.push(rep.run_ns);
        c.assess_ns.push(rep.assess_ns);
        for _ in 0..EXTRA_ASSESS {
            let started = Instant::now();
            std::hint::black_box(campaign::assess_with(&c.first.report, specs));
            c.assess_ns.push(campaign::elapsed_ns(started));
        }
        self.attempted += 1 + EXTRA_ASSESS as u64;
    }

    /// The campaign oracle (two-shard identity, recorded totals), run after
    /// everything measured so its own allocations stay out of the peak.
    fn check_campaign(&mut self, runs: &Campaign) {
        let failures = campaign::check(&runs.first.report);
        self.failed += failures.len() as u64;
        self.failures.extend(failures);
    }

    /// The end-to-end run: set-up and warm-up, then rounds until
    /// `--seconds` have passed, each round a slice of every phase — the
    /// workload's open loop, the closed loop, the reload probe and the
    /// campaign — so every metric is sampled across the whole run
    /// rather than in one stretch of host load.
    fn end_to_end(&mut self) -> BTreeMap<&'static str, f64> {
        let kind = self.args.kind;
        let (mut setups, server, specs) = self.setup();
        let mut generator = self.connect(server.addr());
        let mut runs = self.campaign_start(&specs);
        self.warm_up(&mut generator);
        let deadline = Instant::now() + Duration::from_secs(self.args.seconds);
        let mut main = Phase::default();
        let mut probe = Phase::default();
        let mut peak_rates = Vec::new();
        let mut rounds = 0;
        while rounds == 0 || Instant::now() < deadline {
            rounds += 1;
            if kind == Kind::Campaign {
                let until = Instant::now() + Duration::from_secs_f64(CAMPAIGN_SLICE_SECS);
                while Instant::now() < until {
                    self.campaign_more(&mut runs, &specs);
                }
            } else {
                for _ in 0..SERVE_CAMPAIGN_RUNS {
                    self.campaign_more(&mut runs, &specs);
                }
            }
            let plan = self.mix_plan(HOT_RATE, MAIN_SLICE_SECS);
            let slice = self.open(&mut generator, plan);
            main.absorb(slice);
            peak_rates.extend(self.peak(&mut generator, PEAK_SLICE_SECS));
            let slice = self.probe(&mut generator, PROBE_SLICE_SECS);
            probe.absorb(slice);
            for _ in 0..SETUPS_PER_ROUND {
                let (seconds, extra, _) = self.set_up_once();
                setups.push(seconds);
                extra.shutdown();
            }
        }
        self.describe("main", &main);
        self.describe("reload probe", &probe);
        drop(generator);
        server.shutdown();
        let rss = rss_peak_mb();
        self.check_campaign(&runs);
        self.verify();

        let reads = self.read_latencies(&main);
        let (p50, p99, windows) = latency_summary(&reads);
        let lag = lag_p99_ms(&main.replies);
        let reload_ms: Vec<f64> = self
            .reloads(&probe)
            .iter()
            .map(|r| r.latency_ns() as f64 / 1e6)
            .collect();
        let frames = runs.first.report.totals.frames as f64;
        let run_ns: Vec<f64> = runs.runs.iter().map(|&ns| ns as f64).collect();
        let assess_ms: Vec<f64> = runs.assess_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
        self.notes.push(format!(
            "{} seed {}: {rounds} rounds; {} timed requests in {windows} windows of {WINDOW} \
             (best window's p50, lower-decile window's p99): p50 {p50:.4} ms, p99 {p99:.4} ms (limit {} ms), \
             error_rate {} ({} of {} attempted), generator lag p99 {lag:.4} ms, {} peak \
             buckets, {} reloads, {} campaign runs, {} assessments",
            self.args.name,
            self.args.seed,
            reads.len(),
            P99_LIMIT_MS,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted,
            peak_rates.len(),
            reload_ms.len(),
            runs.runs.len(),
            runs.assess_ns.len(),
        ));
        self.flag_lag(lag);
        BTreeMap::from([
            ("setup_s", least(&setups)),
            ("p50_ms", p50),
            ("p99_ms", p99),
            (
                "peak_rps",
                peak_rates.iter().copied().fold(f64::NAN, f64::max),
            ),
            ("reload_ms", least(&reload_ms)),
            ("frames_per_s", frames / (least(&run_ns) / 1e9)),
            ("assess_ms", least(&assess_ms)),
            ("rss_peak_mb", rss),
        ])
    }

    fn flag_lag(&mut self, lag_ms: f64) {
        let limit = P99_LIMIT_MS;
        if lag_ms > 0.1 * limit {
            self.notes.push(format!(
                "FLAG generator lag p99 {lag_ms:.3} ms is more than a tenth of the {limit} ms \
                 latency limit; the offered rate was not met"
            ));
        }
    }

    /// Latencies of the phase's analysis requests, in schedule order.
    fn read_latencies(&self, phase: &Phase) -> Vec<u64> {
        let mut reads: Vec<&Reply> = phase
            .replies
            .iter()
            .filter(|r| self.table.routes[r.wire] != Route::Reload)
            .collect();
        reads.sort_by_key(|r| r.seq);
        reads.iter().map(|r| r.latency_ns()).collect()
    }

    /// One line per phase: requests, failures, and p50/p99 per route.
    fn describe(&mut self, name: &str, phase: &Phase) {
        let mut line = format!("phase {name}: {} requests", phase.replies.len());
        let failed = phase.replies.iter().filter(|r| r.status != 200).count();
        let _ = write!(line, ", {failed} failed");
        for route in [
            Route::Forward,
            Route::Backward,
            Route::Score,
            Route::Whatif,
            Route::Reload,
        ] {
            let mut lat: Vec<u64> = phase
                .replies
                .iter()
                .filter(|r| self.table.routes[r.wire] == route)
                .map(Reply::latency_ns)
                .collect();
            if lat.is_empty() {
                continue;
            }
            lat.sort_unstable();
            let _ = write!(
                line,
                "; {} n={} p50={:.3}ms p99={:.3}ms",
                route.path(),
                lat.len(),
                quantile(&lat, 0.5) as f64 / 1e6,
                quantile(&lat, 0.99) as f64 / 1e6
            );
        }
        self.notes.push(line);
    }

    fn reloads<'a>(&self, phase: &'a Phase) -> Vec<&'a Reply> {
        phase
            .replies
            .iter()
            .filter(|r| self.table.routes[r.wire] == Route::Reload)
            .collect()
    }

    /// For each reload, the longest stretch during it in which no read
    /// completed; the median over reloads, in nanoseconds.
    fn reload_stall_ns(&self, phase: &Phase) -> f64 {
        let mut done: Vec<u64> = phase
            .replies
            .iter()
            .filter(|r| self.table.routes[r.wire] != Route::Reload)
            .map(|r| r.done_ns)
            .collect();
        done.sort_unstable();
        let mut stalls: Vec<f64> = self
            .reloads(phase)
            .iter()
            .map(|reload| {
                done.windows(2)
                    .filter(|w| w[1] > reload.sent_ns && w[0] < reload.done_ns)
                    .map(|w| (w[1] - w[0]) as f64)
                    .fold(0.0, f64::max)
            })
            .collect();
        median(&mut stalls)
    }

    /// The traced run: the same phases untraced (for queue wait, hit
    /// ratio, lag and stall), the open loop again with the obs recorder
    /// on (for the program's own counters), then in-process replays of
    /// the untraced requests with spans off and on.
    fn traced(&mut self) -> BTreeMap<&'static str, f64> {
        let specs = paper_population(POPULATION);
        let server = self.start_server();
        let mut runs = self.campaign_start(&specs);
        let mut generator = self.connect(server.addr());
        let mut phases = self.warm_up(&mut generator);
        let plan = self.mix_plan(HOT_RATE, self.traced_main_secs());
        let main = self.open(&mut generator, plan);
        let probe = self.probe(&mut generator, PROBE_SECS);

        // The program counts only with its recorder on.
        obs::reset();
        obs::set_enabled(true);
        let plan = self.mix_plan(HOT_RATE, self.traced_main_secs());
        let recorded_main = self.open(&mut generator, plan);
        let counters = read_counters(server.addr());
        obs::set_enabled(false);
        drop(generator);
        server.shutdown();
        while runs.runs.len() < CAMPAIGN_REPS {
            self.campaign_more(&mut runs, &specs);
        }
        self.check_campaign(&runs);
        self.verify();

        let untraced_p50 = latency_summary(&self.read_latencies(&main)).0;
        let recorded_p50 = latency_summary(&self.read_latencies(&recorded_main)).0;
        let lag = lag_p99_ms(&main.replies);
        self.flag_lag(lag);
        let stall = self.reload_stall_ns(&probe);
        let (hits, misses) = main
            .replies
            .iter()
            .fold((0u64, 0u64), |(h, m), r| match r.cache {
                Cache::Hit => (h + 1, m),
                Cache::Miss => (h, m + 1),
                Cache::Absent => (h, m),
            });

        phases.push(main);
        phases.push(probe);
        let replay = self.replay(&phases, runs.runs.len(), &specs);
        let pass = &replay.pass;

        // Queue wait: a miss's latency less the replayed service time
        // of the same body.
        let mut waits: Vec<f64> = Vec::new();
        for (p, phase) in phases.iter().enumerate() {
            for reply in &phase.replies {
                if reply.cache != Cache::Miss {
                    continue;
                }
                if let Some(&(service_ns, false)) = pass.service.get(&(p, reply.seq)) {
                    waits.push(reply.latency_ns() as f64 - service_ns as f64);
                }
            }
        }

        let counter = |name: &str| counters.get(name).copied().unwrap_or(0.0);
        let requests = counter("serve.requests").max(1.0);
        let memo = counter("engine.minprov_memo_hits") + counter("engine.minprov_memo_misses");
        let t = &pass.tracer;
        let per_call = |layer: Layer| {
            let i = layer as usize;
            if t.calls[i] == 0 {
                0.0
            } else {
                t.self_ns[i] as f64 / t.calls[i] as f64
            }
        };
        let last = &runs.first;
        let unattributed = replay.unattributed();
        self.notes.push(format!(
            "{} seed {} traced: replay of {} requests and {} campaign runs took {:.1} ms; \
             named layers' self times sum to {:.1} ms, leaving {:.3}% of wall unattributed \
             (tolerance {:.0}%); request replay, best of {REPLAY_PASSES}: {:.1} ms untraced, \
             {:.1} ms traced; open-loop p50 {untraced_p50:.4} ms with the obs recorder off, \
             {recorded_p50:.4} ms on; spans in {}",
            self.args.name,
            self.args.seed,
            pass.requests,
            runs.runs.len(),
            replay.wall_ns as f64 / 1e6,
            replay.named_ns() as f64 / 1e6,
            100.0 * unattributed,
            RECONCILE_TOLERANCE * 100.0,
            replay.untraced_ns as f64 / 1e6,
            replay.traced_ns as f64 / 1e6,
            replay.spans_file,
        ));
        let mut layer_rows = String::new();
        for layer in Layer::ALL {
            let i = layer as usize;
            if t.calls[i] > 0 {
                let _ = write!(
                    layer_rows,
                    " {}={:.0}ns×{}",
                    layer.name(),
                    t.self_ns[i] as f64 / t.calls[i] as f64,
                    t.calls[i]
                );
            }
        }
        self.notes.push(format!("self time per call:{layer_rows}"));
        if unattributed > RECONCILE_TOLERANCE {
            self.failures.push(format!(
                "traced replay does not reconcile: {:.2}% of its wall time is in no named \
                 layer, over the {:.0}% tolerance",
                100.0 * unattributed,
                RECONCILE_TOLERANCE * 100.0
            ));
        }

        BTreeMap::from([
            ("serve.http.parse_ns", per_call(Layer::HttpParse)),
            ("serve.http.render_ns", per_call(Layer::HttpRender)),
            (
                "serve.http.bytes_out",
                pass.bytes_out as f64 / pass.responses.max(1) as f64,
            ),
            ("serve.wire.parse_ns", per_call(Layer::WireParse)),
            ("serve.wire.render_ns", per_call(Layer::WireRender)),
            ("serve.cache.get_ns", per_call(Layer::CacheGet)),
            ("serve.cache.insert_ns", per_call(Layer::CacheInsert)),
            (
                "serve.cache.hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
            ),
            (
                "serve.reactor.polls_per_req",
                counter("serve.reactor.polls") / requests,
            ),
            (
                "serve.reactor.wakeups_per_req",
                counter("serve.reactor.wakeups") / requests,
            ),
            ("serve.queue.wait_ns", median(&mut waits)),
            ("serve.queue.shed", self.shed as f64),
            ("core.prepared.forward_ns", per_call(Layer::PreparedForward)),
            (
                "core.prepared.minprov_memo_ratio",
                counter("engine.minprov_memo_hits") / memo.max(1.0),
            ),
            ("core.backward.run_ns", per_call(Layer::BackwardRun)),
            (
                "core.backward.cut_ratio",
                pass.cut as f64 / pass.backward.max(1) as f64,
            ),
            ("core.score.batch_ns", per_call(Layer::ScoreBatch)),
            ("core.counter.whatif_ns", per_call(Layer::CounterWhatif)),
            ("core.counter.patcher_new_ns", per_call(Layer::PatcherNew)),
            ("serve.snapshot.build_ns", per_call(Layer::SnapshotBuild)),
            ("core.tdg.build_ns", per_call(Layer::TdgBuild)),
            (
                "ecosystem.synth.population_ns",
                per_call(Layer::SynthPopulation),
            ),
            ("serve.reload.stall_ns", stall),
            ("gsm.campaign.run_ns", per_call(Layer::CampaignRun)),
            ("gsm.campaign.events", last.report.totals.events as f64),
            ("gsm.campaign.frames", last.report.totals.frames as f64),
            (
                "gsm.campaign.interceptions",
                last.report.interceptions.len() as f64,
            ),
            ("core.campaign.assess_ns", per_call(Layer::CampaignAssess)),
            ("core.campaign.victims", last.impact.victims.len() as f64),
            ("gen.lag_p99_ms", lag),
            ("trace.unattributed_share", unattributed),
            ("trace.overhead_pct", replay.overhead_pct()),
            (
                "obs.overhead_pct",
                100.0 * (recorded_p50 - untraced_p50) / untraced_p50,
            ),
        ])
    }

    /// Replays `phases` in process, [`REPLAY_PASSES`] times with spans
    /// off and on in turn, then the campaign under the last traced
    /// pass's tracer.
    fn replay(
        &mut self,
        phases: &[Phase],
        campaign_runs: usize,
        specs: &[actfort_ecosystem::spec::ServiceSpec],
    ) -> Replay {
        let mut untraced_ns = u64::MAX;
        let mut traced_ns = u64::MAX;
        let mut last = None;
        for _ in 0..REPLAY_PASSES {
            let quiet = self.replay_requests(phases, Tracer::new(false));
            untraced_ns = untraced_ns.min(quiet.wall_ns);
            let traced = self.replay_requests(phases, Tracer::new(true));
            traced_ns = traced_ns.min(traced.wall_ns);
            last = Some(traced);
        }
        let mut pass = last.expect("at least one replay pass");
        for error in std::mem::take(&mut pass.errors) {
            self.failed += 1;
            self.failures.push(error);
        }
        let cfg = campaign::city();
        // Freed after the wall time is taken, like the retired snapshots.
        let mut reports = Vec::with_capacity(campaign_runs);
        let t = &mut pass.tracer;
        let started = t.now_ns();
        for _ in 0..campaign_runs {
            pass.requests += 1;
            t.begin_request(pass.requests);
            let report = t.span(Layer::CampaignRun, || {
                actfort_gsm::campaign::run_sharded(&cfg, 1)
            });
            t.span(Layer::CampaignAssess, || {
                std::hint::black_box(campaign::assess_with(&report, specs));
            });
            t.exit();
            reports.push(report);
        }
        let wall_ns = pass.wall_ns + (t.now_ns() - started);
        drop(reports);
        let spans_file = write_spans(&pass.tracer, self.args.name, self.args.seed);
        Replay {
            pass,
            wall_ns,
            untraced_ns,
            traced_ns,
            spans_file,
        }
    }

    /// One replay of `phases`, each in send order, from a fresh snapshot
    /// and an empty cache, with a span around every layer call when `t`
    /// is on.
    fn replay_requests(&self, phases: &[Phase], mut t: Tracer) -> Pass {
        let mut id = 0u32;
        let mut service = HashMap::new();
        let mut errors = Vec::new();
        let (mut backward, mut cut) = (0u64, 0u64);
        // Snapshots built only to time their parts, freed after the wall
        // time is taken so that no layer is charged for their teardown.
        let mut retired = Vec::new();
        let started = t.now_ns();
        t.begin_request(id);
        let first = inproc::decomposed_build(Dataset::Paper(POPULATION), 1, &mut t);
        t.exit();
        let mut replayer = Replayer::new(first, ServerConfig::default().cache_capacity);
        for (p, phase) in phases.iter().enumerate() {
            for (seq, send) in phase.plan.iter().enumerate() {
                id += 1;
                let route = self.table.routes[send.wire];
                let begun = t.spans.len();
                match replayer.replay(id, route, &self.table.wires[send.wire], &mut t) {
                    Ok(Some(answer)) => {
                        if let Some(root) = t.spans.get(begun) {
                            service.insert((p, seq), (root.end_ns - root.start_ns, answer.hit));
                        }
                        if let Some(done) = answer.exhaustive {
                            backward += 1;
                            cut += u64::from(!done);
                        }
                    }
                    Ok(None) => {
                        // A reload: split the build it just did into its
                        // public calls, as a request of its own.
                        id += 1;
                        t.begin_request(id);
                        let dataset = replayer.snapshot.dataset;
                        retired.push(inproc::decomposed_build(dataset, 0, &mut t));
                        t.exit();
                    }
                    Err(e) => errors.push(format!("replay of {} failed: {e}", route.path())),
                }
            }
        }
        let wall_ns = t.now_ns() - started;
        drop(retired);
        Pass {
            tracer: t,
            wall_ns,
            requests: id,
            bytes_out: replayer.bytes_out,
            responses: replayer.responses,
            backward,
            cut,
            service,
            errors,
        }
    }
}

/// A workload's campaign runs: the first in full, every run's time and
/// every assessment's time.
struct Campaign {
    first: campaign::Rep,
    runs: Vec<u64>,
    assess_ns: Vec<u64>,
}

/// One in-process replay of a run's requests.
struct Pass {
    tracer: Tracer,
    wall_ns: u64,
    /// Requests replayed, the split builds after reloads included.
    requests: u32,
    bytes_out: u64,
    responses: u64,
    backward: u64,
    cut: u64,
    /// (phase, position) → (replayed service time, cache hit); empty
    /// when spans were off.
    service: HashMap<(usize, usize), (u64, bool)>,
    errors: Vec<String>,
}

/// The traced replay and what tracing it cost.
struct Replay {
    /// The last traced pass, with the campaign runs' spans added.
    pass: Pass,
    /// That pass's wall time plus the campaign runs'.
    wall_ns: u64,
    /// Best request-pass wall time with spans off, and with them on.
    untraced_ns: u64,
    traced_ns: u64,
    spans_file: String,
}

impl Replay {
    /// Self time of the named layers, the per-request glue left out.
    fn named_ns(&self) -> u64 {
        let t = &self.pass.tracer;
        t.self_ns.iter().sum::<u64>() - t.self_ns[Layer::Request as usize]
    }

    /// Share of the wall time in no named layer: the benchmark's own
    /// bookkeeping between calls and the tracer's own cost.
    fn unattributed(&self) -> f64 {
        (self.wall_ns as f64 - self.named_ns() as f64) / self.wall_ns as f64
    }

    /// How much longer the request replay took with spans on, in percent.
    fn overhead_pct(&self) -> f64 {
        100.0 * (self.traced_ns as f64 - self.untraced_ns as f64) / self.untraced_ns as f64
    }
}

/// Keeps a body the first time its `(wire, generation, bytes)` is seen,
/// so the oracle checks every distinct response once.
fn first_sight(
    seen: &mut HashSet<(usize, u64, u64)>,
) -> impl FnMut(usize, Option<u64>, u64) -> bool + '_ {
    move |wire, generation, hash| seen.insert((wire, generation.unwrap_or(0), hash))
}

/// Writes every span as one CSV row under `perfbench/out/`:
/// request id, layer, parent span (row index, empty for a request's
/// root), start and end in nanoseconds since the replay began.
fn write_spans(t: &Tracer, workload: &str, seed: u64) -> String {
    let dir = std::path::Path::new("perfbench").join("out");
    let path = dir.join(format!("{workload}-seed{seed}.spans.csv"));
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(out, "request,layer,parent,start_ns,end_ns")?;
        for s in &t.spans {
            let parent = s.parent.map_or_else(String::new, |p| p.to_string());
            writeln!(
                out,
                "{},{},{parent},{},{}",
                s.request,
                s.layer.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    });
    match written {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("(not written: {e})"),
    }
}

/// Starts a server and waits for its first `200` on `/healthz`.
fn launch(config: ServerConfig) -> ServerHandle {
    let handle = actfort_serve::start(config).unwrap_or_else(|e| {
        eprintln!("perfbench: server failed to start: {e}");
        std::process::exit(1);
    });
    wait_healthy(handle.addr());
    handle
}

fn wait_healthy(addr: SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(response) = Client::connect(addr).and_then(|mut c| c.get("/healthz")) {
            if response.status == 200 {
                return;
            }
        }
        if Instant::now() > deadline {
            eprintln!("perfbench: server never became healthy");
            std::process::exit(1);
        }
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// The server's own `obs` counters, from `GET /metrics`.
fn read_counters(addr: SocketAddr) -> HashMap<String, f64> {
    let response = Client::connect(addr).and_then(|mut c| c.get("/metrics"));
    let Ok(response) = response else {
        return HashMap::new();
    };
    let Ok(doc) = json::parse(response.text()) else {
        return HashMap::new();
    };
    let Some(Json::Obj(counters)) = doc.get("counters") else {
        return HashMap::new();
    };
    counters
        .iter()
        .filter_map(|(k, v)| v.as_num().map(|n| (k.clone(), n)))
        .collect()
}

/// The paper population a reload answer says it built.
fn reload_population(body: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = &text[text.find("\"dataset\":\"paper:")? + 17..];
    rest[..rest.find('"')?].parse().ok()
}

/// `(p50, p99, windows)` in milliseconds from latencies in schedule
/// order: each quantile is taken per [`WINDOW`] consecutive requests,
/// windows starting every quarter window; the best window's p50 and the
/// lower decile of the windows' p99 are reported. (The single best
/// window's p99 is an extreme of extremes and swings with one lucky
/// window; the lower quartile still moved with runs in which other
/// tenants stalled the host for milliseconds at a time in most windows.)
/// Fewer than one full window gives one window of everything.
fn latency_summary(latencies: &[u64]) -> (f64, f64, usize) {
    let (p50s, p99s) = window_quantiles(latencies);
    let count = p50s.len();
    (least(&p50s), lower_decile(p99s), count)
}

fn window_quantiles(latencies: &[u64]) -> (Vec<f64>, Vec<f64>) {
    if latencies.is_empty() {
        return (Vec::new(), Vec::new());
    }
    let windows: Vec<Vec<u64>> = if latencies.len() < WINDOW {
        vec![latencies.to_vec()]
    } else {
        (0..=latencies.len() - WINDOW)
            .step_by(WINDOW / 4)
            .map(|start| latencies[start..start + WINDOW].to_vec())
            .collect()
    };
    let (p50s, p99s): (Vec<f64>, Vec<f64>) = windows
        .into_iter()
        .map(|mut w| {
            w.sort_unstable();
            (
                quantile(&w, 0.5) as f64 / 1e6,
                quantile(&w, 0.99) as f64 / 1e6,
            )
        })
        .unzip();
    (p50s, p99s)
}

fn lag_p99_ms(replies: &[Reply]) -> f64 {
    let mut lags: Vec<u64> = replies.iter().map(Reply::lag_ns).collect();
    lags.sort_unstable();
    if lags.is_empty() {
        return 0.0;
    }
    quantile(&lags, 0.99) as f64 / 1e6
}

/// Nearest-rank quantile of sorted values.
fn quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The 10th percentile, linearly interpolated (NaN when empty).
fn lower_decile(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let position = 0.1 * (values.len() - 1) as f64;
    let below = position.floor() as usize;
    let above = (below + 1).min(values.len() - 1);
    values[below] + (position - below as f64) * (values[above] - values[below])
}

/// The smallest value (NaN when there is none).
fn least(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::min)
}

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// VmHWM of this process, in MiB.
fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
