//! Lane-equivalence harness for the 64-lane per-user overlay scorer:
//! across random populations and random user overlays, the bit-parallel
//! transposed sweep must be *identical* to scoring each user
//! one-at-a-time — including ragged batches (1, 63, 64, 65, 127 users)
//! whose partial last lane words exercise the unused-lane handling —
//! plus scalar-degenerate regressions pinning the overlay layer to the
//! existing single-ecosystem `forward` result.

use actfort_core::profile::AttackerProfile;
use actfort_core::query::{Analysis, Engine};
use actfort_core::{OverlayFactor, Prepared, UserProfile, UserScore};
use actfort_ecosystem::factor::ServiceId;
use actfort_ecosystem::policy::{EdgeClass, Platform};
use actfort_ecosystem::spec::ServiceSpec;
use actfort_ecosystem::synth::{generate, paper_population, SynthConfig};
use proptest::prelude::*;

/// Batch sizes whose last lane word is full (64), nearly empty (1, 65),
/// nearly full (63, 127) — the ragged shapes the transpose must not
/// smear across.
const RAGGED_BATCHES: [usize; 5] = [1, 63, 64, 65, 127];

fn population(seed: u64, n: usize) -> Vec<ServiceSpec> {
    let mut specs = actfort_ecosystem::dataset::curated_services();
    specs.truncate(12);
    specs.extend(generate(n, seed, &SynthConfig::default()));
    specs
}

/// Deterministic splitmix64 so profile batches derive reproducibly from
/// the proptest case seed.
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

/// Random profiles: each service an independent coin flip, factor masks
/// cycling through all-enabled / none / random so factor gating and the
/// degenerate extremes stay in every batch.
fn random_profiles(
    specs: &[ServiceSpec],
    count: usize,
    rng: &mut SplitMix64,
) -> Vec<UserProfile> {
    (0..count)
        .map(|i| {
            let services: Vec<ServiceId> = specs
                .iter()
                .filter(|_| rng.next() % 3 == 0)
                .map(|s| s.id.clone())
                .collect();
            let factors = match i % 4 {
                0 => OverlayFactor::ALL,
                1 => 0,
                _ => (rng.next() as u16) & OverlayFactor::ALL,
            };
            UserProfile::new(services, factors)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The 64-lane sweep equals scoring each user one-at-a-time —
    /// through the facade's scalar schedule *and* as singleton lane
    /// batches — across random populations, platforms, attacker
    /// profiles and ragged batch sizes.
    #[test]
    fn lane_sweep_matches_one_at_a_time_reference(
        seed in any::<u64>(),
        platform_pick in 0usize..2,
        profile_pick in 0usize..3,
    ) {
        let specs = population(seed, 30);
        let ap = match profile_pick {
            0 => AttackerProfile::paper_default(),
            1 => AttackerProfile::email_surface(),
            _ => AttackerProfile::targeted(),
        };
        let platform = if platform_pick == 0 { Platform::Web } else { Platform::MobileApp };
        let mut rng = SplitMix64(seed ^ 0xd6e8_feb8_6659_fd93);
        for batch in RAGGED_BATCHES {
            let profiles = random_profiles(&specs, batch, &mut rng);
            let lanes = Analysis::over(&specs, platform, ap)
                .score_users(&profiles)
                .engine(Engine::Auto)
                .run()
                .expect("valid batch");
            let scalar = Analysis::over(&specs, platform, ap)
                .score_users(&profiles)
                .engine(Engine::Naive)
                .run()
                .expect("valid batch");
            prop_assert_eq!(&lanes, &scalar, "lane/scalar diverged (batch {})", batch);
            // One-at-a-time through the lane engine itself: every user
            // as its own 1-lane ragged batch.
            for (i, profile) in profiles.iter().enumerate() {
                let solo = Analysis::over(&specs, platform, ap)
                    .score_users(std::slice::from_ref(profile))
                    .engine(Engine::Auto)
                    .run()
                    .expect("valid singleton")[0];
                prop_assert_eq!(
                    lanes[i], solo,
                    "batched lane {} != its singleton run (batch {})",
                    i, batch
                );
            }
        }
    }

    /// The substrate-level API agrees with itself under scratch reuse:
    /// one `OverlayScratch` and one `ForwardScratch` serve every batch
    /// in sequence with no state leaking between batches.
    #[test]
    fn reused_scratch_never_leaks_between_batches(seed in any::<u64>()) {
        let specs = population(seed, 25);
        let prepared = Prepared::new(&specs, Platform::Web, AttackerProfile::paper_default());
        let mut lane_scratch = prepared.overlay_scratch();
        let mut scalar_scratch = prepared.scratch();
        let mut rng = SplitMix64(seed.rotate_left(17) | 1);
        for batch in RAGGED_BATCHES {
            let overlays: Vec<_> = random_profiles(&specs, batch, &mut rng)
                .iter()
                .map(|p| prepared.overlay(&p.services, p.factors))
                .collect();
            let lanes = prepared.score_users(&overlays, &mut lane_scratch, EdgeClass::All);
            for (i, overlay) in overlays.iter().enumerate() {
                let want = prepared.score_one(overlay, &mut scalar_scratch, EdgeClass::All);
                prop_assert_eq!(lanes[i], want, "lane {} diverged (batch {})", i, batch);
            }
        }
    }
}

/// A user holding zero services scores zero, whatever their factor mask
/// and wherever they sit in a lane word.
#[test]
fn zero_services_scores_zero_everywhere_in_the_word() {
    let specs = actfort_ecosystem::dataset::curated_services();
    let all: Vec<ServiceId> = specs.iter().map(|s| s.id.clone()).collect();
    // 64 full users with one empty user at every position in turn would
    // be 64 batches; sampling the word edges and middle suffices.
    for position in [0usize, 1, 31, 62, 63] {
        let mut profiles = vec![UserProfile::full(all.clone()); 64];
        profiles[position] = UserProfile::new(Vec::new(), OverlayFactor::ALL);
        let scores = Analysis::over(&specs, Platform::Web, AttackerProfile::paper_default())
            .score_users(&profiles)
            .engine(Engine::Auto)
            .run()
            .expect("valid batch");
        assert_eq!(
            scores[position],
            UserScore { blast_radius: 0, weakest_chain: 0 },
            "empty user at lane {position}"
        );
        // And the empty lane never perturbs its neighbours.
        let full = scores[(position + 1) % 64];
        assert!(full.blast_radius > 0, "neighbour lanes still score");
    }
}

/// A user holding every service with every factor enabled reproduces
/// the single-ecosystem `forward` result exactly — blast radius is the
/// compromised count, weakest chain the last productive round.
#[test]
fn full_profile_reproduces_the_forward_result_exactly() {
    for specs in [actfort_ecosystem::dataset::curated_services(), paper_population(2021)] {
        for platform in [Platform::Web, Platform::MobileApp] {
            let ap = AttackerProfile::paper_default();
            let forward =
                Analysis::over(&specs, platform, ap).forward(&[]).run().expect("forward");
            let all: Vec<ServiceId> = specs.iter().map(|s| s.id.clone()).collect();
            let profiles = [UserProfile::full(all)];
            for engine in [Engine::Auto, Engine::Naive] {
                let scores = Analysis::over(&specs, platform, ap)
                    .score_users(&profiles)
                    .engine(engine)
                    .run()
                    .expect("score");
                assert_eq!(
                    scores[0],
                    UserScore::of(&forward),
                    "{} services, {platform}, {engine:?}",
                    specs.len()
                );
            }
        }
    }
}

/// A batch of 64 identical full profiles fills one lane word; all 64
/// lanes must agree with each other and with the forward result.
#[test]
fn sixty_four_identical_profiles_reproduce_the_forward_result() {
    let specs = paper_population(2021);
    let ap = AttackerProfile::paper_default();
    let forward = Analysis::over(&specs, Platform::Web, ap).forward(&[]).run().expect("forward");
    let all: Vec<ServiceId> = specs.iter().map(|s| s.id.clone()).collect();
    let profiles = vec![UserProfile::full(all); 64];
    let scores = Analysis::over(&specs, Platform::Web, ap)
        .score_users(&profiles)
        .engine(Engine::Auto)
        .run()
        .expect("score");
    assert_eq!(scores.len(), 64);
    let want = UserScore::of(&forward);
    for (lane, score) in scores.iter().enumerate() {
        assert_eq!(*score, want, "lane {lane}");
    }
}
