//! Engine-vs-engine equivalence through the [`Analysis`] facade: every
//! explicit `Engine::...` selection must return exactly what the
//! default (`Auto`) dispatch returns for the same query, and the
//! [`EdgeClass`] filter must behave identically across engines — the
//! filter is defined on the shared adjacency, not per-engine.

use actfort_core::profile::AttackerProfile;
use actfort_core::query::{Analysis, Engine};
use actfort_core::{EdgeClass, Tdg};
use actfort_ecosystem::dataset::curated_services;
use actfort_ecosystem::factor::ServiceId;
use actfort_ecosystem::policy::Platform;
use actfort_ecosystem::spec::ServiceSpec;
use actfort_ecosystem::synth::{generate, SynthConfig};

/// Curated cores plus a synthetic tail.
fn population() -> Vec<ServiceSpec> {
    let mut specs = curated_services();
    specs.extend(generate(30, 11, &SynthConfig::default()));
    specs
}

fn ap() -> AttackerProfile {
    AttackerProfile::paper_default()
}

#[test]
fn every_forward_engine_agrees_with_auto() {
    let specs = population();
    for seeds in [vec![], vec![ServiceId::new("gmail")]] {
        let auto = Analysis::over(&specs, Platform::Web, ap()).forward(&seeds).run().unwrap();
        for engine in [Engine::Naive, Engine::Auto] {
            let picked = Analysis::over(&specs, Platform::Web, ap())
                .forward(&seeds)
                .engine(engine)
                .run()
                .unwrap();
            assert_eq!(auto, picked, "{engine:?} diverged from Auto");
        }
    }
}

#[test]
fn unmemoized_prepared_agrees_with_memoized() {
    let specs = population();
    let memo = Analysis::over(&specs, Platform::Web, ap())
        .forward(&[])
        .engine(Engine::Auto)
        .run()
        .unwrap();
    let unmemo = Analysis::over(&specs, Platform::Web, ap())
        .forward(&[])
        .engine(Engine::Auto)
        .memo(false)
        .run()
        .unwrap();
    assert_eq!(memo, unmemo);
}

#[test]
fn explicit_all_filter_is_the_identity() {
    let specs = population();
    for platform in [Platform::Web, Platform::MobileApp] {
        let default = Analysis::over(&specs, platform, ap()).forward(&[]).run().unwrap();
        let explicit = Analysis::over(&specs, platform, ap())
            .forward(&[])
            .edge_class(EdgeClass::All)
            .run()
            .unwrap();
        assert_eq!(default, explicit);
    }
}

#[test]
fn edge_class_filter_agrees_across_forward_engines() {
    let specs = population();
    for class in EdgeClass::all() {
        let naive = Analysis::over(&specs, Platform::Web, ap())
            .forward(&[])
            .engine(Engine::Naive)
            .edge_class(class)
            .run()
            .unwrap();
        let prepared = Analysis::over(&specs, Platform::Web, ap())
            .forward(&[])
            .engine(Engine::Auto)
            .edge_class(class)
            .run()
            .unwrap();
        assert_eq!(naive, prepared, "Prepared diverged from naive under {class}");
    }
}

#[test]
fn backward_engine_agrees_with_naive_through_facade() {
    let specs = population();
    let tdg = Tdg::build(&specs, Platform::Web, ap());
    for target in ["paypal", "alipay", "dropbox"] {
        let target = ServiceId::new(target);
        let auto = Analysis::of(&tdg).backward(&target).max_chains(6).run().unwrap();
        let naive = Analysis::of(&tdg)
            .backward(&target)
            .max_chains(6)
            .engine(Engine::Naive)
            .run()
            .unwrap();
        assert_eq!(auto, naive, "{target}");
    }
}

#[test]
fn backward_edge_class_filter_agrees_across_engines() {
    let specs = curated_services();
    let tdg = Tdg::build(&specs, Platform::MobileApp, ap());
    for target in ["alipay", "taobao"] {
        let target = ServiceId::new(target);
        for class in EdgeClass::all() {
            let engine = Analysis::of(&tdg)
                .backward(&target)
                .max_chains(5)
                .edge_class(class)
                .run()
                .unwrap();
            let naive = Analysis::of(&tdg)
                .backward(&target)
                .max_chains(5)
                .edge_class(class)
                .engine(Engine::Naive)
                .run()
                .unwrap();
            assert_eq!(engine, naive, "{target} under {class}");
        }
    }
}

#[test]
fn bounded_backward_reports_exhaustive_on_curated() {
    let specs = curated_services();
    let tdg = Tdg::build(&specs, Platform::Web, ap());
    let target = ServiceId::new("paypal");
    let (engine_chains, engine_exhaustive) =
        Analysis::of(&tdg).backward(&target).max_chains(8).run_bounded().unwrap();
    let (naive_chains, naive_exhaustive) = Analysis::of(&tdg)
        .backward(&target)
        .max_chains(8)
        .engine(Engine::Naive)
        .run_bounded()
        .unwrap();
    assert_eq!(engine_chains, naive_chains);
    assert_eq!(engine_exhaustive, naive_exhaustive);
    assert!(engine_exhaustive, "curated population finishes within the default budget");
}
