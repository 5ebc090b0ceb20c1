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
//! ```sh
//! cargo run --release -p actfort-bench --bin backward_smoke
//! ```

use actfort_bench::EXPERIMENT_SEED;
use actfort_core::profile::AttackerProfile;
use actfort_core::query::{Analysis, Engine};
use actfort_core::{obs, Tdg};
use actfort_ecosystem::dataset::curated_services;
use actfort_ecosystem::policy::Platform;
use actfort_ecosystem::spec::ServiceSpec;
use actfort_ecosystem::synth::paper_population;
use std::time::{Duration, Instant};

const MAX_CHAINS: usize = 8;

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
    let started = Instant::now();
    obs::set_enabled(true);
    let mut naive_cut = 0;
    for (name, specs) in
        [("curated", curated_services()), ("paper:2021", paper_population(EXPERIMENT_SEED))]
    {
        for platform in [Platform::Web, Platform::MobileApp] {
            naive_cut += sweep(&format!("{name}/{platform:?}"), &specs, platform);
        }
    }
    obs::set_enabled(false);
    println!(
        "backward smoke: engine exhaustive on every target and equal to naive wherever naive \
         finished ({naive_cut} naive-cut targets listed above); {:.1?} wall",
        started.elapsed()
    );
}
