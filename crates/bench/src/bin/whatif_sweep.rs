//! Countermeasure what-if sweep benchmark: evaluates every
//! countermeasure subset (`2^|all()|`) over the 201-service paper
//! population through one `Patcher`, proves each hardened substrate's
//! result identical to a cold `Prepared::new(apply_all(...))` compile,
//! checks that a cold sweep compiles each non-empty subset once and a
//! warm sweep compiles nothing, times both sweeps, then records a
//! `"whatif"` section in `BENCH_forward.json`.
//!
//! ```sh
//! cargo run --release -p actfort-bench --bin whatif_sweep
//! cargo run --release -p actfort-bench --bin whatif_sweep -- \
//!     --max-sweep-ms 50 --out BENCH_forward.json
//! ```

use actfort_bench::{splice_section, EXPERIMENT_SEED};
use actfort_core::counter::{apply_all, Countermeasure, Patcher};
use actfort_core::profile::AttackerProfile;
use actfort_core::{obs, ForwardResult, ForwardScratch, Prepared};
use actfort_ecosystem::policy::{EdgeClass, Platform};
use actfort_ecosystem::synth::paper_population;
use std::sync::Arc;
use std::time::Instant;

/// One forward run on every subset's hardened substrate, in mask order,
/// all through one scratch.
fn sweep(patcher: &Patcher, sets: &[Vec<Countermeasure>]) -> Vec<ForwardResult> {
    let mut scratch = ForwardScratch::new();
    sets.iter()
        .map(|set| patcher.patch(set).forward(&mut scratch, EdgeClass::All, &[], true))
        .collect()
}

fn main() {
    let mut out = String::from("BENCH_forward.json");
    let mut max_sweep_ms: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().expect("flag requires a value");
        match flag.as_str() {
            "--out" => out = value(),
            "--max-sweep-ms" => {
                // The CI latency gate: fail outright when the warm
                // full-subset sweep regresses past the budget.
                max_sweep_ms = Some(value().parse().expect("--max-sweep-ms takes a number"));
            }
            other => panic!("unknown flag {other:?}"),
        }
    }

    let specs = paper_population(EXPERIMENT_SEED);
    let ap = AttackerProfile::paper_default();
    let build_started = Instant::now();
    let base = Arc::new(Prepared::new(&specs, Platform::Web, ap));
    let build_ns = build_started.elapsed().as_nanos();
    println!(
        "whatif_sweep: prepared {} services ({} web-eligible nodes) in {} µs",
        specs.len(),
        base.node_count(),
        build_ns / 1_000
    );
    let sets = Countermeasure::subsets();

    // Correctness + observability pass (obs on): a fresh patcher's cold
    // sweep compiles every non-empty subset once (the empty set is the
    // base), a warm sweep compiles nothing, and every subset's result
    // equals the cold spec-rewrite recompile byte for byte.
    obs::reset();
    obs::set_enabled(true);
    let prepares = || obs::snapshot().counters.get("engine.prepares").copied().unwrap_or(0);
    let patcher = Patcher::new(Arc::clone(&base));
    let before = prepares();
    let cold = sweep(&patcher, &sets);
    let compiles_cold = prepares() - before;
    let warm = sweep(&patcher, &sets);
    let compiles_warm = prepares() - before - compiles_cold;
    obs::set_enabled(false);
    assert_eq!(
        compiles_cold,
        sets.len() as u64 - 1,
        "a cold sweep must compile each non-empty subset exactly once"
    );
    assert_eq!(compiles_warm, 0, "a warm sweep must compile nothing");
    assert_eq!(cold, warm, "a cached substrate diverged from its first run");
    for (set, got) in sets.iter().zip(&cold) {
        let reference = Prepared::new(&apply_all(&specs, set), Platform::Web, ap);
        let want = reference.forward(&mut reference.scratch(), EdgeClass::All, &[], true);
        assert_eq!(*got, want, "hardened substrate diverged from cold recompile for {set:?}");
    }
    println!(
        "whatif_sweep: {0}/{0} subsets byte-identical to cold recompiles \
         (cold sweep compiled {compiles_cold}, warm sweep {compiles_warm})",
        sets.len()
    );

    // Timing: a fresh patcher's cold sweep (compiles included) and the
    // same patcher's warm sweep (every substrate cached — the serve
    // steady state).
    let fresh = Patcher::new(Arc::clone(&base));
    let cold_started = Instant::now();
    std::hint::black_box(sweep(&fresh, &sets));
    let cold_ns = cold_started.elapsed().as_nanos().max(1);
    let warm_started = Instant::now();
    std::hint::black_box(sweep(&fresh, &sets));
    let warm_ns = warm_started.elapsed().as_nanos().max(1);
    println!(
        "whatif_sweep: {}-subset sweep — cold {:.2} ms (compiles included), warm {:.2} ms",
        sets.len(),
        cold_ns as f64 / 1e6,
        warm_ns as f64 / 1e6,
    );

    if let Some(budget) = max_sweep_ms {
        let warm_ms = warm_ns as f64 / 1e6;
        assert!(
            warm_ms <= budget,
            "latency gate: warm {}-subset sweep took {warm_ms:.2} ms, budget is {budget} ms",
            sets.len()
        );
        println!("whatif_sweep: latency gate OK ({warm_ms:.2} ms <= {budget} ms)");
    }

    let section = format!(
        "{{\"services\": {}, \"nodes\": {}, \"subsets\": {}, \"build_ns\": {build_ns}, \
         \"compiles_cold\": {compiles_cold}, \"compiles_warm\": {compiles_warm}, \
         \"cold_sweep_ns\": {cold_ns}, \"warm_sweep_ns\": {warm_ns}}}",
        specs.len(),
        base.node_count(),
        sets.len(),
    );
    splice_section(&out, "forward", "whatif", &section);
    println!("whatif_sweep: \"whatif\" section written to {out}");
}
