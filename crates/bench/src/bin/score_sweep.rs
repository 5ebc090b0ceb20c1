//! Single-core throughput sweep for the 64-lane per-user overlay
//! scorer: compiles the 201-service paper population once, synthesizes
//! a large deterministic batch of user profiles (held-service bitsets +
//! factor masks), cross-checks a sample against the scalar reference,
//! then times `Prepared::score_users` on one thread and records a
//! `"score"` section in `BENCH_forward.json`.
//!
//! ```sh
//! cargo run --release -p actfort-bench --bin score_sweep             # 65536 users
//! cargo run --release -p actfort-bench --bin score_sweep -- \
//!     --users 65536 --min-scores-per-min 1000000 --out BENCH_forward.json
//! ```

use actfort_bench::{splice_section, EXPERIMENT_SEED};
use actfort_core::profile::AttackerProfile;
use actfort_core::{OverlayFactor, Prepared, UserOverlay, UserScore};
use actfort_ecosystem::policy::{EdgeClass, Platform};
use actfort_ecosystem::synth::paper_population;
use std::time::Instant;

/// Deterministic 64-bit PRNG (splitmix64) — the sweep's profile
/// distribution must be reproducible run to run, so throughput numbers
/// in `BENCH_forward.json` compare across commits.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A synthetic batch: each user holds ~1/3 of the nodes (every node an
/// independent coin flip) with an independently random factor mask,
/// plus a sprinkle of degenerate users (nothing held / everything held)
/// so both extremes stay in the measured mix.
fn synthesize(prepared: &Prepared, users: usize, rng: &mut SplitMix64) -> Vec<UserOverlay> {
    let nodes = prepared.node_count() as u32;
    (0..users)
        .map(|i| match i % 97 {
            0 => prepared.overlay(&[], OverlayFactor::ALL),
            1 => prepared.overlay_all((rng.next() as u16) & OverlayFactor::ALL),
            _ => {
                let factors = if i % 5 == 0 {
                    (rng.next() as u16) & OverlayFactor::ALL
                } else {
                    OverlayFactor::ALL
                };
                let mut overlay = prepared.overlay(&[], factors);
                for node in 0..nodes {
                    if rng.next() % 3 == 0 {
                        overlay.hold(node);
                    }
                }
                overlay
            }
        })
        .collect()
}

fn main() {
    let mut users = 65_536usize;
    let mut out = String::from("BENCH_forward.json");
    let mut min_scores_per_min: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().expect("flag requires a value");
        match flag.as_str() {
            "--users" => {
                users = value().parse().expect("--users takes a positive integer");
                assert!(users >= 1, "--users takes a positive integer");
            }
            "--out" => out = value(),
            "--min-scores-per-min" => {
                // The CI throughput gate: fail the run outright when
                // single-core scoring regresses below the floor.
                min_scores_per_min =
                    Some(value().parse().expect("--min-scores-per-min takes a number"));
            }
            other => panic!("unknown flag {other:?}"),
        }
    }

    let specs = paper_population(EXPERIMENT_SEED);
    let build_started = Instant::now();
    let prepared = Prepared::new(&specs, Platform::Web, AttackerProfile::paper_default());
    let build_ns = build_started.elapsed().as_nanos();
    println!(
        "score_sweep: prepared {} services ({} web-eligible nodes) in {} µs",
        specs.len(),
        prepared.node_count(),
        build_ns / 1_000
    );

    let mut rng = SplitMix64(EXPERIMENT_SEED);
    let overlays = synthesize(&prepared, users, &mut rng);

    // Equivalence spot-check: a deterministic sample of the batch must
    // match the one-user-at-a-time scalar reference exactly (the full
    // property lives in core's proptest suite; this pins the release
    // build actually being measured).
    let mut lane_scratch = prepared.overlay_scratch();
    let mut scalar_scratch = prepared.scratch();
    let sample = 192.min(users);
    let lane_sample = prepared.score_users(&overlays[..sample], &mut lane_scratch, EdgeClass::All);
    for (i, (overlay, got)) in overlays[..sample].iter().zip(&lane_sample).enumerate() {
        let want = prepared.score_one(overlay, &mut scalar_scratch, EdgeClass::All);
        assert_eq!(*got, want, "lane/scalar divergence at user {i}");
    }
    println!("score_sweep: lane sweep matches the scalar reference on {sample} sampled users");

    // Warmup sizes the scratch planes; the measured run allocates
    // nothing (per-score Vec<UserScore> output aside).
    prepared.score_users(&overlays, &mut lane_scratch, EdgeClass::All);
    let score_started = Instant::now();
    let scores: Vec<UserScore> = prepared.score_users(&overlays, &mut lane_scratch, EdgeClass::All);
    let score_ns = score_started.elapsed().as_nanos().max(1);
    assert_eq!(scores.len(), users);

    let scores_per_sec = users as f64 / (score_ns as f64 / 1e9);
    let scores_per_min = scores_per_sec * 60.0;
    let mean_blast =
        scores.iter().map(|s| s.blast_radius as f64).sum::<f64>() / users.max(1) as f64;
    let max_chain = scores.iter().map(|s| s.weakest_chain).max().unwrap_or(0);
    println!(
        "score_sweep: {users} users in {:.1} ms single-core — {:.0} scores/s \
         ({:.2}M scores/min); mean blast radius {mean_blast:.1}, deepest chain {max_chain}",
        score_ns as f64 / 1e6,
        scores_per_sec,
        scores_per_min / 1e6,
    );

    if let Some(floor) = min_scores_per_min {
        assert!(
            scores_per_min >= floor,
            "throughput gate: {scores_per_min:.0} scores/min is below the {floor:.0} floor"
        );
        println!("score_sweep: throughput gate OK ({scores_per_min:.0} >= {floor:.0})");
    }

    let section = format!(
        "{{\"users\": {users}, \"services\": {}, \"nodes\": {}, \"lanes\": 64, \
         \"build_ns\": {build_ns}, \"score_ns\": {score_ns}, \
         \"scores_per_sec\": {scores_per_sec:.0}, \"scores_per_min\": {scores_per_min:.0}, \
         \"mean_blast_radius\": {mean_blast:.2}, \"max_weakest_chain\": {max_chain}}}",
        specs.len(),
        prepared.node_count(),
    );
    splice_section(&out, "forward", "score", &section);
    println!("score_sweep: \"score\" section written to {out}");
}
