//! Equivalence suite for the countermeasure [`Patcher`]: its cached
//! hardened substrates must be exactly what a cold compile of the
//! rewritten population gives.
//!
//! Two pins, across curated + synthetic populations, both platforms and
//! **every countermeasure subset** (`2^|all()|` of them):
//!
//! 1. `patcher.patch(set).forward(..)` returns the exact
//!    `ForwardResult` of a cold `Prepared::new(apply_all(...))` compile
//!    of the rewritten population — rounds, records and survivors
//!    byte-identical — under every edge class, memo on and off.
//! 2. The `Analysis::whatif` facade's before/after breakdowns equal the
//!    `counter::evaluate` spec-rewrite reference bit for bit (`f64`
//!    equality, not tolerance — both classify through the shared
//!    `metrics::breakdown_of`).
//!
//! A third pin covers amortization: one `Patcher` compiles each
//! non-empty subset exactly once (the empty set is the base), so a
//! second sweep compiles nothing. A fourth races two threads on one
//! `Patcher`, subset by subset, and checks that both get the substrate
//! the cache kept.
//!
//! The third pin flips the process-global obs recorder while the other
//! tests run instrumented code, so every test in this binary serializes
//! through [`obs_lock`].

use actfort_core::counter::{self, apply_all, Countermeasure, Patcher};
use actfort_core::profile::AttackerProfile;
use actfort_core::query::Analysis;
use actfort_core::{obs, Prepared, Tdg};
use actfort_ecosystem::policy::{EdgeClass, Platform};
use actfort_ecosystem::spec::ServiceSpec;
use actfort_ecosystem::synth::{generate, SynthConfig};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};

fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn populations() -> Vec<(&'static str, Vec<ServiceSpec>)> {
    let mut curated_plus = actfort_ecosystem::dataset::curated_services();
    curated_plus.extend(generate(40, 7, &SynthConfig::default()));
    vec![
        ("curated", actfort_ecosystem::dataset::curated_services()),
        ("synthetic", generate(60, 2021, &SynthConfig::default())),
        ("curated+synthetic", curated_plus),
    ]
}

#[test]
fn patched_forward_equals_cold_recompile_for_every_subset() {
    let _g = obs_lock();
    let ap = AttackerProfile::paper_default();
    for (name, specs) in populations() {
        for platform in [Platform::Web, Platform::MobileApp] {
            let patcher = Patcher::new(Arc::new(Prepared::new(&specs, platform, ap)));
            for subset in Countermeasure::subsets() {
                let hardened = patcher.patch(&subset);
                let cold = Prepared::new(&apply_all(&specs, &subset), platform, ap);
                // Every edge class reads its own pathset slot; the
                // memo-off run checks the answers without the slots.
                for class in EdgeClass::all() {
                    for memo in [true, false] {
                        let patched = hardened.forward(&mut hardened.scratch(), class, &[], memo);
                        let recompiled = cold.forward(&mut cold.scratch(), class, &[], memo);
                        assert_eq!(
                            patched, recompiled,
                            "{name} {platform} {subset:?} {class:?} memo={memo}: \
                             hardened substrate diverged from recompile"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn whatif_breakdowns_equal_the_spec_rewrite_reference_for_every_subset() {
    let _g = obs_lock();
    let ap = AttackerProfile::paper_default();
    for (name, specs) in populations() {
        for platform in [Platform::Web, Platform::MobileApp] {
            let tdg = Tdg::build(&specs, platform, ap);
            let patcher = Patcher::new(Arc::clone(tdg.prepared()));
            for subset in Countermeasure::subsets() {
                let report = Analysis::of(&tdg)
                    .whatif(&subset)
                    .patcher(&patcher)
                    .chains_per_target(0)
                    .run()
                    .expect("valid query");
                let reference = counter::evaluate(&specs, &subset, platform, &ap);
                // Bit-identical, not approximately equal: both sides
                // classify identical ForwardResults through the same
                // breakdown_of, so the floats must match exactly.
                assert_eq!(
                    report.before, reference.before,
                    "{name} {platform} {subset:?} before"
                );
                assert_eq!(report.after, reference.after, "{name} {platform} {subset:?} after");
            }
        }
    }
}

#[test]
fn one_patcher_serves_the_sweep_without_substrate_recompiles() {
    let _g = obs_lock();
    obs::reset();
    obs::set_enabled(true);
    let specs = actfort_ecosystem::dataset::curated_services();
    let ap = AttackerProfile::paper_default();
    let tdg = Tdg::build(&specs, Platform::Web, ap);
    let patcher = Patcher::new(Arc::clone(tdg.prepared()));

    let count = |snap: &obs::ObsSnapshot, name: &str| {
        snap.counters.get(name).copied().unwrap_or(0)
    };
    let subsets = Countermeasure::subsets();
    let sweep = || {
        let prepares_before = count(&obs::snapshot(), "engine.prepares");
        for subset in &subsets {
            let report = Analysis::of(&tdg)
                .whatif(subset)
                .patcher(&patcher)
                .chains_per_target(0)
                .run()
                .expect("valid query");
            assert_eq!(report.countermeasures, counter::canonical_set(subset));
        }
        count(&obs::snapshot(), "engine.prepares") - prepares_before
    };
    // The first sweep compiles every non-empty subset once; the empty
    // set is the base itself.
    assert_eq!(sweep(), subsets.len() as u64 - 1, "one compile per non-empty subset");
    // The second is served entirely from the cache.
    assert_eq!(sweep(), 0, "a repeated sweep must compile nothing");
    obs::set_enabled(false);
}

#[test]
fn racing_sweeps_share_one_substrate_per_subset() {
    let _g = obs_lock();
    let ap = AttackerProfile::paper_default();
    let specs = generate(60, 2021, &SynthConfig::default());
    let patcher = Patcher::new(Arc::new(Prepared::new(&specs, Platform::Web, ap)));
    let subsets = Countermeasure::subsets();
    // Both threads meet at a barrier before every subset, so each
    // request races the other thread's request for the same subset.
    let barrier = Barrier::new(2);
    let sweep = || {
        subsets
            .iter()
            .map(|set| {
                barrier.wait();
                patcher.patch(set)
            })
            .collect::<Vec<_>>()
    };
    let (first, second) = std::thread::scope(|scope| {
        let (a, b) = (scope.spawn(sweep), scope.spawn(sweep));
        (a.join().expect("first sweep"), b.join().expect("second sweep"))
    });
    for ((set, a), b) in subsets.iter().zip(&first).zip(&second) {
        assert!(Arc::ptr_eq(a, b), "{set:?}: the two sweeps got different substrates");
        assert!(Arc::ptr_eq(a, &patcher.patch(set)), "{set:?}: the cache kept another substrate");
        let cold = Prepared::new(&apply_all(&specs, set), Platform::Web, ap);
        assert_eq!(
            a.forward(&mut a.scratch(), EdgeClass::All, &[], true),
            cold.forward(&mut cold.scratch(), EdgeClass::All, &[], true),
            "{set:?}: cached substrate diverged from a cold compile"
        );
    }
}
