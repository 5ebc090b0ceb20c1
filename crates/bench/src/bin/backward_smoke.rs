//! Backward-engine smoke run: sweeps every target of the curated and
//! paper:2021 populations, on web and mobile, through the query
//! facade's production path (`Engine::Auto`, the graph's best-first
//! engine) and through the naive reference (`Engine::Naive`).
//!
//! The engine must finish every search within the default budget.
//! Where the naive search finishes too, both chain lists must be equal.
//! Where the naive search hits its budget, its list is a truncation that
//! proves nothing, so the bin lists the target instead. Exits non-zero
//! on any divergence or any cut engine search — wired into `ci.sh`.
//!
//! Before the sweep it times the graph build of each of the four
//! graphs: `Prepared::new` and `Tdg::build` (which compiles the
//! substrate and classifies the edges on it), best of 20 each, with the
//! recorder off. It writes them as a `"graph_build"` section of
//! `BENCH_forward.json` (or `--out`) and exits non-zero when the slowest
//! `Tdg::build` exceeds `--max-graph-build-ms`.
//!
//! ```sh
//! cargo run --release -p actfort-bench --bin backward_smoke
//! cargo run --release -p actfort-bench --bin backward_smoke -- \
//!     --max-graph-build-ms 2 --out BENCH_forward.json
//! ```

use actfort_bench::{splice_section, EXPERIMENT_SEED};
use actfort_core::profile::AttackerProfile;
use actfort_core::query::{Analysis, Engine};
use actfort_core::{obs, Prepared, Tdg};
use actfort_ecosystem::dataset::curated_services;
use actfort_ecosystem::policy::Platform;
use actfort_ecosystem::spec::ServiceSpec;
use actfort_ecosystem::synth::paper_population;
use std::time::{Duration, Instant};

const MAX_CHAINS: usize = 8;

/// Timed repetitions per graph build; the best one is kept.
const BUILD_REPS: usize = 20;

/// Best-of-[`BUILD_REPS`] wall time of `build`, in nanoseconds.
fn best_ns<T>(mut build: impl FnMut() -> T) -> u128 {
    (0..BUILD_REPS)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(build());
            started.elapsed().as_nanos()
        })
        .min()
        .expect("at least one repetition")
}

/// Times one graph build and returns its `"graph_build"` entry and the
/// best `Tdg::build` time.
fn time_build(population: &str, specs: &[ServiceSpec], platform: Platform) -> (String, u128) {
    let ap = AttackerProfile::paper_default();
    let prepare_ns = best_ns(|| Prepared::new(specs, platform, ap));
    let build_ns = best_ns(|| Tdg::build(specs, platform, ap));
    let tdg = Tdg::build(specs, platform, ap);
    println!(
        "{population}/{platform:?}: graph build {:.3} ms (prepare {:.3} ms), {} nodes, \
         {} strong edges, {} couples",
        build_ns as f64 / 1e6,
        prepare_ns as f64 / 1e6,
        tdg.node_count(),
        tdg.strong_edge_count(),
        tdg.couples().len(),
    );
    let entry = format!(
        "{{\"population\": \"{population}\", \"platform\": \"{platform}\", \"services\": {}, \
         \"nodes\": {}, \"prepare_ns\": {prepare_ns}, \"build_ns\": {build_ns}, \
         \"edges_ns\": {}, \"strong_edges\": {}, \"couples\": {}}}",
        specs.len(),
        tdg.node_count(),
        build_ns.saturating_sub(prepare_ns),
        tdg.strong_edge_count(),
        tdg.couples().len(),
    );
    (entry, build_ns)
}

/// Sweeps one population; returns how many targets the naive search
/// could not finish.
fn sweep(label: &str, specs: &[ServiceSpec], platform: Platform) -> usize {
    let tdg = Tdg::build(specs, platform, AttackerProfile::paper_default());
    let (mut engine_time, mut naive_time) = (Duration::ZERO, Duration::ZERO);
    let (mut chains, mut reachable) = (0usize, 0usize);
    let mut naive_cut = Vec::new();
    for spec in tdg.specs() {
        let target = &spec.id;
        let query = || Analysis::of(&tdg).backward(target).max_chains(MAX_CHAINS);
        let started = Instant::now();
        let (fast, exhaustive) = query().run_bounded().expect("valid query");
        engine_time += started.elapsed();
        assert!(exhaustive, "{label}: the engine hit its budget on {target}");
        let started = Instant::now();
        let (naive, naive_exhaustive) =
            query().engine(Engine::Naive).run_bounded().expect("valid query");
        naive_time += started.elapsed();
        if naive_exhaustive {
            assert_eq!(fast, naive, "{label}: engine and naive diverge on {target}");
        } else {
            naive_cut.push(target.to_string());
        }
        chains += fast.len();
        reachable += usize::from(!fast.is_empty());
    }
    let snap = obs::snapshot();
    let counter_of = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    println!(
        "{label}: {} targets, {reachable} reachable, {chains} chains; \
         engine {engine_time:.2?} ({} partials, memo prunes {}), \
         naive {naive_time:.2?} ({} partials)",
        tdg.node_count(),
        counter_of("backward.partials_explored"),
        counter_of("backward.memo_hits"),
        counter_of("backward.naive.partials_explored"),
    );
    if !naive_cut.is_empty() {
        println!(
            "{label}: naive hit its budget on {} targets, engine exhaustive on each: {}",
            naive_cut.len(),
            naive_cut.join(" ")
        );
    }
    obs::reset();
    naive_cut.len()
}

fn main() {
    let mut out = String::from("BENCH_forward.json");
    let mut max_build_ms: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().expect("flag requires a value");
        match flag.as_str() {
            "--out" => out = value(),
            "--max-graph-build-ms" => {
                max_build_ms = Some(value().parse().expect("--max-graph-build-ms takes a number"));
            }
            other => panic!("unknown flag {other:?}"),
        }
    }

    let started = Instant::now();
    let populations =
        [("curated", curated_services()), ("paper:2021", paper_population(EXPERIMENT_SEED))];
    let (mut entries, mut worst_ns) = (Vec::new(), 0u128);
    for (name, specs) in &populations {
        for platform in [Platform::Web, Platform::MobileApp] {
            let (entry, build_ns) = time_build(name, specs, platform);
            entries.push(entry);
            worst_ns = worst_ns.max(build_ns);
        }
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let bound = max_build_ms.map_or_else(|| "null".to_string(), |ms| ms.to_string());
    let section = format!(
        "{{\"threads_available\": {threads}, \"reps\": {BUILD_REPS}, \
         \"max_graph_build_ms\": {bound}, \"worst_build_ns\": {worst_ns}, \"graphs\": [{}]}}",
        entries.join(", ")
    );
    splice_section(&out, "forward", "graph_build", &section);
    println!("backward smoke: \"graph_build\" section written to {out}");
    if let Some(ms) = max_build_ms {
        let worst_ms = worst_ns as f64 / 1e6;
        assert!(
            worst_ms <= ms,
            "graph-build gate: the slowest Tdg::build took {worst_ms:.3} ms, the bound is {ms} ms"
        );
        println!("backward smoke: graph-build gate OK ({worst_ms:.3} ms <= {ms} ms)");
    }

    obs::set_enabled(true);
    let mut naive_cut = 0;
    for (name, specs) in &populations {
        for platform in [Platform::Web, Platform::MobileApp] {
            naive_cut += sweep(&format!("{name}/{platform:?}"), specs, platform);
        }
    }
    obs::set_enabled(false);
    println!(
        "backward smoke: engine exhaustive on every target and equal to naive wherever naive \
         finished ({naive_cut} naive-cut targets listed above); {:.1?} wall",
        started.elapsed()
    );
}
