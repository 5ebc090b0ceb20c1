//! Countermeasure what-if sweep benchmark: evaluates every
//! countermeasure subset (`2^|all()|`) over the 201-service paper
//! population two
//! ways — the delta-patch path (`Patcher::patch` +
//! `forward_patched`, one substrate compiled once) versus the cold
//! baseline (`Prepared::new(apply_all(...))` + `forward` per subset) —
//! proves the results identical and the patch path recompile-free, then
//! records a `"whatif"` section in `BENCH_forward.json`.
//!
//! ```sh
//! cargo run --release -p actfort-bench --bin whatif_sweep
//! cargo run --release -p actfort-bench --bin whatif_sweep -- \
//!     --max-sweep-ms 50 --out BENCH_forward.json
//! ```

use actfort_bench::{splice_section, EXPERIMENT_SEED};
use actfort_core::counter::{apply_all, Countermeasure, Patcher};
use actfort_core::profile::AttackerProfile;
use actfort_core::{obs, ForwardResult, Prepared};
use actfort_ecosystem::policy::{EdgeClass, Platform};
use actfort_ecosystem::spec::ServiceSpec;
use actfort_ecosystem::synth::paper_population;
use std::sync::Arc;
use std::time::Instant;

/// A cold recompile of `specs` plus one forward run: the baseline the
/// patched sweep is checked and timed against.
fn forward_cold(specs: &[ServiceSpec], ap: AttackerProfile) -> ForwardResult {
    let p = Prepared::new(specs, Platform::Web, ap);
    p.forward(&mut p.scratch(), EdgeClass::All, &[], true)
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
    let plan_started = Instant::now();
    let patcher = Patcher::new(Arc::clone(&base));
    let plan_ns = plan_started.elapsed().as_nanos();
    let sets = Countermeasure::subsets();

    // Correctness + observability pass (obs on): every subset's patched
    // result must equal the cold spec-rewrite recompile byte for byte,
    // and the patch path must never compile a fresh substrate.
    obs::reset();
    obs::set_enabled(true);
    let count = |name: &str| obs::snapshot().counters.get(name).copied().unwrap_or(0);
    let prepares_before = count("engine.prepares");
    let patched: Vec<_> = sets
        .iter()
        .map(|set| {
            base.forward_patched(
                &mut base.scratch(),
                &patcher.patch(set),
                EdgeClass::All,
                &[],
                true,
            )
        })
        .collect();
    let prepares_during_sweep = count("engine.prepares") - prepares_before;
    let patches = count("engine.patches");
    obs::set_enabled(false);
    assert_eq!(
        prepares_during_sweep, 0,
        "the patched sweep must not recompile the substrate (engine.prepares moved)"
    );
    for (set, fast) in sets.iter().zip(&patched) {
        let cold = forward_cold(&apply_all(&specs, set), ap);
        assert_eq!(*fast, cold, "patched result diverged from cold recompile for {set:?}");
    }
    println!(
        "whatif_sweep: {0}/{0} subsets byte-identical to cold recompiles \
         ({patches} patches compiled, 0 substrate recompiles)",
        sets.len()
    );

    // Timing: cold baseline (one recompile + forward per subset) vs the patch
    // path, cold (patch compiles included — a fresh Patcher) and warm
    // (every patch cached — the serve steady state).
    let cold_started = Instant::now();
    for set in &sets {
        let result = forward_cold(&apply_all(&specs, set), ap);
        std::hint::black_box(&result);
    }
    let cold_ns = cold_started.elapsed().as_nanos().max(1);

    let fresh = Patcher::new(Arc::clone(&base));
    let patched_cold_started = Instant::now();
    for set in &sets {
        let result =
            base.forward_patched(&mut base.scratch(), &fresh.patch(set), EdgeClass::All, &[], true);
        std::hint::black_box(&result);
    }
    let patched_cold_ns = patched_cold_started.elapsed().as_nanos().max(1);

    let mut scratch = base.scratch();
    let warm_started = Instant::now();
    for set in &sets {
        let result =
            base.forward_patched(&mut scratch, &fresh.patch(set), EdgeClass::All, &[], true);
        std::hint::black_box(&result);
    }
    let warm_ns = warm_started.elapsed().as_nanos().max(1);

    let speedup_cold = cold_ns as f64 / patched_cold_ns as f64;
    let speedup_warm = cold_ns as f64 / warm_ns as f64;
    println!(
        "whatif_sweep: {}-subset sweep — cold recompiles {:.1} ms, patched cold {:.2} ms \
         ({speedup_cold:.1}x), patched warm {:.2} ms ({speedup_warm:.1}x)",
        sets.len(),
        cold_ns as f64 / 1e6,
        patched_cold_ns as f64 / 1e6,
        warm_ns as f64 / 1e6,
    );
    assert!(
        patched_cold_ns < cold_ns,
        "patch path ({patched_cold_ns} ns) must beat per-subset cold recompiles ({cold_ns} ns)"
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
         \"plan_ns\": {plan_ns}, \"patches\": {patches}, \"prepares_during_sweep\": 0, \
         \"cold_sweep_ns\": {cold_ns}, \"patched_cold_sweep_ns\": {patched_cold_ns}, \
         \"patched_warm_sweep_ns\": {warm_ns}, \"speedup_cold\": {speedup_cold:.2}, \
         \"speedup_warm\": {speedup_warm:.2}}}",
        specs.len(),
        base.node_count(),
        sets.len(),
    );
    splice_section(&out, "forward", "whatif", &section);
    println!("whatif_sweep: \"whatif\" section written to {out}");
}
