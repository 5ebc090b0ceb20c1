//! Recovery edge-class sweep benchmark: runs class-filtered forward
//! analyses (`EdgeClass::LoginOnly` / `EdgeClass::RecoveryOnly`) against
//! the unfiltered baseline over the 201-service paper population, on one
//! shared prepared substrate.
//!
//! Two gates, both CI-enforced (`--max-ratio`):
//!
//! 1. filtering is cheap — the warm filtered sweep must stay within
//!    `max-ratio ×` the warm unfiltered sweep (the class lowering is a
//!    compile-time annotation, not a per-query graph rewrite);
//! 2. filtering is free of recompiles — `engine.prepares` must not move
//!    across the sweep (all three classes run on the one substrate).
//!
//! Also sanity-checks the semantics (each filtered compromised set is a
//! subset of the unfiltered one; the recovery surface is non-empty) and
//! records a `"recovery_sweep"` section in `BENCH_forward.json`.
//!
//! ```sh
//! cargo run --release -p actfort-bench --bin recovery_sweep
//! cargo run --release -p actfort-bench --bin recovery_sweep -- \
//!     --max-ratio 1.5 --out BENCH_forward.json
//! ```

use actfort_bench::{splice_section, EXPERIMENT_SEED};
use actfort_core::profile::AttackerProfile;
use actfort_core::{obs, EdgeClass, Prepared};
use actfort_ecosystem::policy::Platform;
use actfort_ecosystem::synth::paper_population;
use std::time::Instant;

const ITERS: usize = 200;

fn main() {
    let mut out = String::from("BENCH_forward.json");
    let mut max_ratio: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().expect("flag requires a value");
        match flag.as_str() {
            "--out" => out = value(),
            "--max-ratio" => {
                max_ratio = Some(value().parse().expect("--max-ratio takes a number"));
            }
            other => panic!("unknown flag {other:?}"),
        }
    }

    let specs = paper_population(EXPERIMENT_SEED);
    let ap = AttackerProfile::paper_default();
    let build_started = Instant::now();
    let base = Prepared::new(&specs, Platform::Web, ap);
    let build_ns = build_started.elapsed().as_nanos();
    println!(
        "recovery_sweep: prepared {} services ({} web-eligible nodes) in {} µs",
        specs.len(),
        base.node_count(),
        build_ns / 1_000
    );

    // Semantics + recompile-freedom pass (obs on): each filtered run is
    // a restriction of the unfiltered one, the recovery surface is
    // non-empty, and no class ever compiles a fresh substrate.
    obs::reset();
    obs::set_enabled(true);
    let count = |name: &str| obs::snapshot().counters.get(name).copied().unwrap_or(0);
    let prepares_before = count("engine.prepares");
    let all = base.forward(&mut base.scratch(), EdgeClass::All, &[], true);
    let login = base.forward(&mut base.scratch(), EdgeClass::LoginOnly, &[], true);
    let recovery = base.forward(&mut base.scratch(), EdgeClass::RecoveryOnly, &[], true);
    let prepares_during_sweep = count("engine.prepares") - prepares_before;
    obs::set_enabled(false);
    assert_eq!(
        prepares_during_sweep, 0,
        "class-filtered forwards must not recompile the substrate (engine.prepares moved)"
    );
    for (name, filtered) in [("login_only", &login), ("recovery_only", &recovery)] {
        assert!(
            filtered.records.keys().all(|id| all.records.contains_key(id)),
            "{name} reached accounts the unfiltered run did not"
        );
    }
    let recovery_only_falls =
        all.records.keys().filter(|id| !login.records.contains_key(*id)).count();
    assert!(recovery_only_falls > 0, "paper population must have recovery-only falls");
    println!(
        "recovery_sweep: {} compromised unfiltered, {} login-only, {} recovery-only \
         ({recovery_only_falls} accounts fall only through recovery)",
        all.records.len(),
        login.records.len(),
        recovery.records.len(),
    );

    // Timing: warm per-class sweeps on one shared scratch, mirroring
    // the serve steady state.
    let mut scratch = base.scratch();
    let mut time_class = |class: EdgeClass| {
        let started = Instant::now();
        for _ in 0..ITERS {
            let result = base.forward(&mut scratch, class, &[], true);
            std::hint::black_box(&result);
        }
        started.elapsed().as_nanos().max(1)
    };
    let all_ns = time_class(EdgeClass::All);
    let login_ns = time_class(EdgeClass::LoginOnly);
    let recovery_ns = time_class(EdgeClass::RecoveryOnly);
    let ratio_login = login_ns as f64 / all_ns as f64;
    let ratio_recovery = recovery_ns as f64 / all_ns as f64;
    println!(
        "recovery_sweep: {ITERS} iters — unfiltered {:.2} ms, login-only {:.2} ms \
         ({ratio_login:.2}x), recovery-only {:.2} ms ({ratio_recovery:.2}x)",
        all_ns as f64 / 1e6,
        login_ns as f64 / 1e6,
        recovery_ns as f64 / 1e6,
    );

    if let Some(budget) = max_ratio {
        let worst = ratio_login.max(ratio_recovery);
        assert!(
            worst <= budget,
            "ratio gate: filtered forward runs at {worst:.2}x the unfiltered runtime, \
             budget is {budget}x"
        );
        println!("recovery_sweep: ratio gate OK ({worst:.2}x <= {budget}x)");
    }

    let section = format!(
        "{{\"services\": {}, \"nodes\": {}, \"iters\": {ITERS}, \"build_ns\": {build_ns}, \
         \"compromised_all\": {}, \"compromised_login_only\": {}, \
         \"compromised_recovery_only\": {}, \"recovery_only_falls\": {recovery_only_falls}, \
         \"all_ns\": {all_ns}, \"login_only_ns\": {login_ns}, \"recovery_only_ns\": {recovery_ns}, \
         \"ratio_login\": {ratio_login:.2}, \"ratio_recovery\": {ratio_recovery:.2}, \
         \"prepares_during_sweep\": 0}}",
        specs.len(),
        base.node_count(),
        all.records.len(),
        login.records.len(),
        recovery.records.len(),
    );
    splice_section(&out, "forward", "recovery_sweep", &section);
    println!("recovery_sweep: \"recovery_sweep\" section written to {out}");
}
