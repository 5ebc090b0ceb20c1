//! Concurrency invariants of [`actfort_core::batch::BatchAnalyzer`]:
//! results are positionally identical regardless of worker count, and
//! the lock-free obs counters aggregate to the same totals however the
//! work is sharded.
//!
//! One test flips the process-global obs recorder while the others run
//! instrumented code, so they live in their own integration-test binary
//! (own process) and every test serializes through [`obs_lock`].

use actfort_core::breach::blast_radii;
use actfort_core::metrics::depth_breakdowns;
use actfort_core::obs;
use actfort_core::profile::AttackerProfile;
use actfort_ecosystem::dataset::curated_services;
use actfort_ecosystem::policy::Platform;
use std::sync::{Mutex, MutexGuard};

fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn blast_radii_identical_across_thread_counts() {
    let _g = obs_lock();
    let specs = curated_services();
    let ap = AttackerProfile::none();
    for platform in [Platform::Web, Platform::MobileApp] {
        let one = blast_radii(&specs, platform, &ap, 1);
        for threads in [2, 8] {
            let many = blast_radii(&specs, platform, &ap, threads);
            assert_eq!(one, many, "{platform} blast radii diverge at {threads} threads");
        }
    }
}

#[test]
fn depth_breakdowns_identical_across_thread_counts() {
    let _g = obs_lock();
    let specs = curated_services();
    let scenarios: Vec<(Platform, AttackerProfile)> = vec![
        (Platform::Web, AttackerProfile::paper_default()),
        (Platform::MobileApp, AttackerProfile::paper_default()),
        (Platform::Web, AttackerProfile::none()),
        (Platform::MobileApp, AttackerProfile::none()),
    ];
    let one = depth_breakdowns(&specs, &scenarios, 1);
    for threads in [2, 8] {
        let many = depth_breakdowns(&specs, &scenarios, threads);
        assert_eq!(one, many, "depth breakdowns diverge at {threads} threads");
    }
}

#[test]
fn obs_counters_sum_consistently_under_sharding() {
    let _g = obs_lock();
    let specs = curated_services();
    let ap = AttackerProfile::none();

    let run = |threads: usize| {
        obs::reset();
        obs::set_enabled(true);
        let _ = blast_radii(&specs, Platform::Web, &ap, threads);
        let snap = obs::snapshot();
        obs::set_enabled(false);
        snap
    };

    let serial = run(1);
    assert!(serial.counters.contains_key("analysis.dispatch_prepared"), "sweep was recorded");
    for threads in [2, 8] {
        let sharded = run(threads);
        // The same work is done, just split over more workers: every
        // engine/analysis counter must total identically.
        for key in ["engine.batch.runs", "engine.batch.items", "engine.rounds", "engine.nodes_evaluated", "analysis.dispatch_prepared"] {
            assert_eq!(
                serial.counters.get(key),
                sharded.counters.get(key),
                "counter {key} diverges at {threads} threads"
            );
        }
        // Span close counts are sharding-invariant too (one per forward
        // run), even though their wall-times are not.
        let count_of = |snap: &obs::ObsSnapshot, name: &str| {
            snap.spans
                .iter()
                .filter(|(path, _)| path.split('/').next_back() == Some(name))
                .map(|(_, stat)| stat.count)
                .sum::<u64>()
        };
        for name in ["forward.prepared", "batch.run"] {
            assert_eq!(
                count_of(&serial, name),
                count_of(&sharded, name),
                "span {name} close count diverges at {threads} threads"
            );
        }
    }
}
