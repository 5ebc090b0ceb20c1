//! CI sanity check for the shared-substrate batch sweep: on a machine
//! with at least four available threads, the parallel `run_each` path
//! (one compiled [`Prepared`](actfort_core::Prepared) shared read-only
//! across workers, one scratch buffer per worker) must beat the serial
//! sweep by at least 1.5×. On narrower machines the check prints a
//! `SKIP` line and exits 0 — a 1-core container cannot witness
//! parallel speedup, and pretending otherwise would only flake.
//!
//! ```sh
//! cargo run --release -p actfort-bench --bin batch_check
//! ```

use actfort_core::profile::AttackerProfile;
use actfort_core::query::{Analysis, Engine};
use actfort_core::{ForwardResult, Tdg};
use actfort_ecosystem::factor::ServiceId;
use actfort_ecosystem::synth::{generate, SynthConfig};
use actfort_ecosystem::policy::Platform;
use std::time::Instant;

const BATCH_SEEDS: usize = 32;
const REQUIRED_SPEEDUP: f64 = 1.5;
const MIN_THREADS: usize = 4;
const ROUNDS: usize = 5;

fn main() {
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    if available < MIN_THREADS {
        println!(
            "batch_check: SKIP ({available} thread(s) available, need >= {MIN_THREADS} \
             to witness parallel speedup)"
        );
        return;
    }

    let mut specs = actfort_ecosystem::dataset::curated_services();
    specs.extend(generate(201 - specs.len(), 5, &SynthConfig::default()));
    let tdg = Tdg::build(&specs, Platform::Web, AttackerProfile::none());
    // Seeds must name graph nodes: the graph is platform-filtered.
    let sets: Vec<Vec<ServiceId>> =
        (0..tdg.node_count()).take(BATCH_SEEDS).map(|i| vec![tdg.spec(i).id.clone()]).collect();
    let threads = available.min(8);

    let sweep = |n: usize| {
        Analysis::of(&tdg)
            .forward(&[])
            .engine(Engine::Auto)
            .threads(n)
            .run_each(&sets)
            .expect("valid batch query")
            .iter()
            .map(ForwardResult::compromised_count)
            .sum::<usize>()
    };
    // Warm both paths, then take each side's best of several rounds so
    // one descheduled worker cannot fail the gate.
    let serial_total = sweep(1);
    let parallel_total = sweep(threads);
    assert_eq!(serial_total, parallel_total, "serial and parallel sweeps must agree");
    let best = |n: usize| {
        (0..ROUNDS)
            .map(|_| {
                let started = Instant::now();
                std::hint::black_box(sweep(n));
                started.elapsed().as_nanos()
            })
            .min()
            .expect("at least one round")
    };
    let serial_ns = best(1);
    let parallel_ns = best(threads).max(1);
    let speedup = serial_ns as f64 / parallel_ns as f64;
    println!(
        "batch_check: serial {serial_ns} ns, parallel({threads}) {parallel_ns} ns, \
         speedup {speedup:.2}x on {available} available thread(s)"
    );
    assert!(
        speedup >= REQUIRED_SPEEDUP,
        "parallel batch sweep speedup {speedup:.2}x below the {REQUIRED_SPEEDUP}x floor \
         on {available} threads"
    );
    println!("batch_check: OK");
}
