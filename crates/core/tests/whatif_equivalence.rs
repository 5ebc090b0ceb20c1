//! Equivalence suite for the countermeasure patch layer: the delta
//! patch must be a pure optimization, never a semantic fork.
//!
//! Two pins, across curated + synthetic populations, both platforms and
//! **every countermeasure subset** (`2^|all()|` of them):
//!
//! 1. `forward_patched` over a compiled [`SubstratePatch`] returns the
//!    exact [`ForwardResult`] of a cold `Prepared::new(apply_all(...))`
//!    compile of the rewritten population — rounds, records and
//!    survivors byte-identical — under every edge class, memo on and
//!    off.
//! 2. The `Analysis::whatif` facade's before/after breakdowns equal the
//!    `counter::evaluate` spec-rewrite reference bit for bit (`f64`
//!    equality, not tolerance — both classify through the shared
//!    `metrics::breakdown_of`).
//!
//! A third pin covers amortization semantics: one `Patcher` answers
//! every subset with at most one patch compilation each (the subset
//! cache) and zero substrate recompiles.
//!
//! That pin flips the process-global obs recorder while the other tests
//! run instrumented code, so every test in this binary serializes
//! through [`obs_lock`].

use actfort_core::counter::{self, apply_all, Countermeasure, Patcher};
use actfort_core::profile::AttackerProfile;
use actfort_core::query::Analysis;
use actfort_core::{obs, Prepared, Tdg};
use actfort_ecosystem::policy::{EdgeClass, Platform};
use actfort_ecosystem::spec::ServiceSpec;
use actfort_ecosystem::synth::{generate, SynthConfig};
use std::sync::{Arc, Mutex, MutexGuard};

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

fn subsets() -> Vec<Vec<Countermeasure>> {
    let all = Countermeasure::all();
    (0u32..(1 << all.len()))
        .map(|mask| {
            all.iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, cm)| *cm)
                .collect()
        })
        .collect()
}

#[test]
fn patched_forward_equals_cold_recompile_for_every_subset() {
    let _g = obs_lock();
    let ap = AttackerProfile::paper_default();
    for (name, specs) in populations() {
        for platform in [Platform::Web, Platform::MobileApp] {
            let patcher = Patcher::new(Arc::new(Prepared::new(&specs, platform, ap)));
            let base = patcher.base();
            for subset in subsets() {
                let patch = patcher.patch(&subset);
                let cold = Prepared::new(&apply_all(&specs, &subset), platform, ap);
                // Every edge class reads its own pathset slot, and a
                // patch can mint ids for those slots; the memo-off run
                // checks the answers without the slots.
                for class in EdgeClass::all() {
                    for memo in [true, false] {
                        let patched =
                            base.forward_patched(&mut base.scratch(), &patch, class, &[], memo);
                        let recompiled = cold.forward(&mut cold.scratch(), class, &[], memo);
                        assert_eq!(
                            patched, recompiled,
                            "{name} {platform} {subset:?} {class:?} memo={memo}: \
                             patched substrate diverged from recompile"
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
            for subset in subsets() {
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
    let prepares_before = count(&obs::snapshot(), "engine.prepares");
    for subset in subsets() {
        let report = Analysis::of(&tdg)
            .whatif(&subset)
            .patcher(&patcher)
            .chains_per_target(0)
            .run()
            .expect("valid query");
        assert_eq!(report.countermeasures, counter::canonical_set(&subset));
    }
    // Run the sweep again: every patch is now cached.
    for subset in subsets() {
        Analysis::of(&tdg).whatif(&subset).patcher(&patcher).chains_per_target(0).run().unwrap();
    }
    let after = obs::snapshot();
    assert_eq!(
        count(&after, "engine.prepares"),
        prepares_before,
        "the sweep must never compile a fresh substrate"
    );
    let subset_count = subsets().len() as u64;
    let patches = count(&after, "engine.patches");
    assert!(
        (1u64..=subset_count).contains(&patches),
        "expected at most one patch compile per subset, saw {patches}"
    );
    assert!(
        count(&after, "engine.patch_cache_hits") >= subset_count,
        "the second sweep must be served from the patch cache"
    );
    obs::set_enabled(false);
}
