//! Property-based tests for the ActFort analyses: graph classification,
//! fixed-point behaviour and chain soundness over randomly generated
//! ecosystems.

use actfort_core::analysis::{AttackChain, ForwardResult};
use actfort_core::counter::{apply, apply_all, intersect_masking, Countermeasure};
use actfort_core::pool::{attack_paths, path_satisfied, InfoPool};
use actfort_core::profile::AttackerProfile;
use actfort_core::query::{Analysis, Engine};
use actfort_core::{Prepared, Tdg};
use actfort_ecosystem::factor::ServiceId;
use actfort_ecosystem::policy::{EdgeClass, Platform};
use actfort_ecosystem::spec::ServiceSpec;
use actfort_ecosystem::synth::{generate, SynthConfig};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn population(seed: u64, n: usize) -> Vec<ServiceSpec> {
    let mut specs = actfort_ecosystem::dataset::curated_services();
    specs.truncate(12);
    specs.extend(generate(n, seed, &SynthConfig::default()));
    specs
}

/// All orderings of `items` (n ≤ 4 here, so at most 24).
fn permutations(items: &[Countermeasure]) -> Vec<Vec<Countermeasure>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for (i, &head) in items.iter().enumerate() {
        let mut rest = items.to_vec();
        rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, head);
            out.push(tail);
        }
    }
    out
}

fn forward(
    specs: &[ServiceSpec],
    platform: Platform,
    ap: &AttackerProfile,
    seeds: &[ServiceId],
) -> ForwardResult {
    Analysis::over(specs, platform, *ap).forward(seeds).run().expect("valid query")
}

fn forward_naive(
    specs: &[ServiceSpec],
    platform: Platform,
    ap: &AttackerProfile,
    seeds: &[ServiceId],
) -> ForwardResult {
    Analysis::over(specs, platform, *ap)
        .forward(seeds)
        .engine(Engine::Naive)
        .run()
        .expect("valid query")
}

fn backward_chains(tdg: &Tdg, target: &ServiceId, max_chains: usize) -> Vec<AttackChain> {
    Analysis::of(tdg).backward(target).max_chains(max_chains).run().expect("valid query")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fringe nodes are exactly the accounts falling in round one of the
    /// forward analysis from an empty seed set.
    #[test]
    fn fringe_equals_forward_round_one(seed in any::<u64>()) {
        let specs = population(seed, 30);
        let ap = AttackerProfile::paper_default();
        let tdg = Tdg::build(&specs, Platform::Web, ap);
        let fwd = forward(&specs, Platform::Web, &ap, &[]);
        let round1: BTreeSet<&str> =
            fwd.rounds.get(1).map(|r| r.iter().map(|s| s.as_str()).collect()).unwrap_or_default();
        for i in 0..tdg.node_count() {
            let id = tdg.spec(i).id.as_str();
            prop_assert_eq!(tdg.is_fringe(i), round1.contains(id), "{}", id);
        }
    }

    /// Definition 1 soundness: every strong-directivity edge's parent,
    /// alone with the attacker profile, satisfies a complete attack path
    /// of the child.
    #[test]
    fn strong_edges_satisfy_definition_one(seed in any::<u64>()) {
        let specs = population(seed, 25);
        let ap = AttackerProfile::paper_default();
        let tdg = Tdg::build(&specs, Platform::MobileApp, ap);
        for child in 0..tdg.node_count() {
            for &parent in tdg.strong_parents(child) {
                let mut pool = InfoPool::new();
                pool.absorb_compromise(tdg.spec(parent), Platform::MobileApp);
                let ok = attack_paths(tdg.spec(child), Platform::MobileApp)
                    .iter()
                    .any(|p| path_satisfied(p, &ap, &pool));
                prop_assert!(
                    ok,
                    "edge {} -> {} violates Definition 1",
                    tdg.spec(parent).id,
                    tdg.spec(child).id
                );
            }
        }
    }

    /// Couple soundness (Definition 3): every couple jointly satisfies a
    /// path, and no single member does alone.
    #[test]
    fn couples_satisfy_definition_three(seed in any::<u64>()) {
        let specs = population(seed, 25);
        let ap = AttackerProfile::paper_default();
        let tdg = Tdg::build(&specs, Platform::Web, ap);
        for couple in tdg.couples() {
            let target = tdg.spec(couple.target);
            let mut joint = InfoPool::new();
            for &p in &couple.providers {
                joint.absorb_compromise(tdg.spec(p), Platform::Web);
            }
            prop_assert!(
                attack_paths(target, Platform::Web).iter().any(|p| path_satisfied(p, &ap, &joint)),
                "couple {:?} -> {} not jointly sufficient",
                couple.providers,
                target.id
            );
            for &member in &couple.providers {
                let mut solo = InfoPool::new();
                solo.absorb_compromise(tdg.spec(member), Platform::Web);
                // A solo-sufficient member would make this a strong edge,
                // not a couple.
                let solo_paths_beyond_ap = attack_paths(target, Platform::Web)
                    .iter()
                    .filter(|p| !path_satisfied(p, &ap, &InfoPool::new()))
                    .any(|p| path_satisfied(p, &ap, &solo));
                prop_assert!(!solo_paths_beyond_ap, "couple member is secretly a full parent");
            }
        }
    }

    /// Forward monotonicity: strictly richer capabilities never shrink
    /// the compromised set.
    #[test]
    fn forward_is_monotone_in_capabilities(seed in any::<u64>()) {
        let specs = population(seed, 30);
        let weak = AttackerProfile::email_surface();
        let strong = AttackerProfile { sms_interception: true, ..weak };
        let fw = forward(&specs, Platform::Web, &weak, &[]);
        let fs = forward(&specs, Platform::Web, &strong, &[]);
        let weak_set: BTreeSet<_> = fw.records.keys().cloned().collect();
        let strong_set: BTreeSet<_> = fs.records.keys().cloned().collect();
        prop_assert!(weak_set.is_subset(&strong_set));
    }

    /// Seeding monotonicity: extra seeds never shrink the final set.
    #[test]
    fn forward_is_monotone_in_seeds(seed in any::<u64>(), pick in 0usize..12) {
        let specs = population(seed, 20);
        let ap = AttackerProfile::paper_default();
        let base = forward(&specs, Platform::Web, &ap, &[]);
        let seed_id = specs[pick % specs.len()].id.clone();
        let seeded = forward(&specs, Platform::Web, &ap, std::slice::from_ref(&seed_id));
        let base_set: BTreeSet<_> = base.records.keys().cloned().collect();
        let seeded_set: BTreeSet<_> = seeded.records.keys().cloned().collect();
        prop_assert!(base_set.is_subset(&seeded_set), "seeding {} lost victims", seed_id);
    }

    /// Chain soundness: every backward chain is executable — walking it
    /// step by step, each account is compromisable with the pool gathered
    /// so far, and the walk ends at the requested target.
    #[test]
    fn backward_chains_are_executable(seed in any::<u64>()) {
        let specs = population(seed, 25);
        let ap = AttackerProfile::paper_default();
        let tdg = Tdg::build(&specs, Platform::MobileApp, ap);
        let fwd = forward(&specs, Platform::MobileApp, &ap, &[]);
        // Try a handful of reachable non-fringe targets.
        let targets: Vec<_> = fwd
            .records
            .iter()
            .filter(|(_, rec)| rec.round >= 2)
            .map(|(id, _)| id.clone())
            .take(4)
            .collect();
        for target in targets {
            for chain in backward_chains(&tdg, &target, 3) {
                let mut pool = InfoPool::new();
                for step in &chain.steps {
                    for sid in &step.services {
                        let idx = tdg.index_of(sid).expect("chain names real nodes");
                        let spec = tdg.spec(idx);
                        prop_assert!(
                            attack_paths(spec, Platform::MobileApp)
                                .iter()
                                .any(|p| path_satisfied(p, &ap, &pool)),
                            "chain step {} not satisfiable when reached (target {})",
                            sid,
                            target
                        );
                        pool.absorb_compromise(spec, Platform::MobileApp);
                    }
                }
                prop_assert_eq!(
                    &chain.steps.last().expect("non-empty").services,
                    &vec![target.clone()]
                );
            }
        }
    }

    /// Dispatch equivalence: whatever engine [`Engine::Auto`] picks
    /// behind [`forward`], it and the naive full-rescan reference
    /// produce identical round layering, per-service compromise records
    /// (round *and* minimum provider count) and survivor sets, across
    /// random ecosystems, platforms, profiles and seed accounts.
    #[test]
    fn auto_dispatch_matches_naive_reference(
        seed in any::<u64>(),
        pick in 0usize..16,
        profile_pick in 0usize..3,
        platform_pick in 0usize..2,
    ) {
        let specs = population(seed, 30);
        let ap = match profile_pick {
            0 => AttackerProfile::paper_default(),
            1 => AttackerProfile::email_surface(),
            _ => AttackerProfile::targeted(),
        };
        let platform = if platform_pick == 0 { Platform::Web } else { Platform::MobileApp };
        let seeds = if pick % 2 == 0 {
            Vec::new()
        } else {
            vec![specs[pick % specs.len()].id.clone()]
        };
        let naive = forward_naive(&specs, platform, &ap, &seeds);
        let incremental = forward(&specs, platform, &ap, &seeds);
        prop_assert_eq!(&naive.rounds, &incremental.rounds, "round layering diverged");
        prop_assert_eq!(&naive.records, &incremental.records, "records diverged");
        prop_assert_eq!(
            &naive.uncompromised,
            &incremental.uncompromised,
            "survivors diverged"
        );
    }

    /// Substrate equivalence: one [`Prepared`] compilation serves many
    /// forward analyses through a single reused scratch, and every run —
    /// memoized or not — is byte-identical to the naive full-rescan
    /// reference on the same population, platform, profile and seeds.
    /// Reusing one scratch across seed sets is the point: leftover state
    /// from a previous run must never leak into the next.
    #[test]
    fn prepared_substrate_matches_naive_reference(
        seed in any::<u64>(),
        pick in 0usize..16,
        profile_pick in 0usize..3,
        platform_pick in 0usize..2,
    ) {
        let specs = population(seed, 30);
        let ap = match profile_pick {
            0 => AttackerProfile::paper_default(),
            1 => AttackerProfile::email_surface(),
            _ => AttackerProfile::targeted(),
        };
        let platform = if platform_pick == 0 { Platform::Web } else { Platform::MobileApp };
        let prepared = Prepared::new(&specs, platform, ap);
        let mut scratch = prepared.scratch();
        let seed_sets: Vec<Vec<ServiceId>> = vec![
            Vec::new(),
            vec![specs[pick % specs.len()].id.clone()],
            specs.iter().take(3).map(|s| s.id.clone()).collect(),
        ];
        for seeds in &seed_sets {
            let naive = forward_naive(&specs, platform, &ap, seeds);
            for memo in [true, false] {
                let fast = prepared.forward(&mut scratch, EdgeClass::All, seeds, memo);
                prop_assert_eq!(
                    &fast, &naive,
                    "substrate diverged from naive (seeds {:?}, memo {})",
                    seeds, memo
                );
            }
        }
    }

    /// Backward equivalence through the substrate-backed graph: a `Tdg`
    /// owns its compiled substrate, and dispatching `Engine::Auto`
    /// over it returns the exact chain list of the exhaustive naive
    /// enumeration. Cases where naive hits its global partial budget are
    /// skipped, as in `backward_props`.
    #[test]
    fn prepared_backward_matches_naive_reference(
        seed in any::<u64>(),
        max_chains in 1usize..6,
    ) {
        let specs = population(seed, 20);
        let ap = AttackerProfile::paper_default();
        let tdg = Tdg::build(&specs, Platform::Web, ap);
        let nodes = tdg.node_count();
        prop_assume!(nodes > 0);
        for t in (0..nodes).step_by((nodes / 4).max(1)) {
            let target = tdg.spec(t).id.clone();
            let (naive, exhaustive) = Analysis::of(&tdg)
                .backward(&target)
                .max_chains(max_chains)
                .engine(Engine::Naive)
                .run_bounded()
                .expect("valid query");
            prop_assume!(exhaustive);
            let fast = Analysis::of(&tdg)
                .backward(&target)
                .max_chains(max_chains)
                .engine(Engine::Auto)
                .run()
                .expect("valid query");
            prop_assert_eq!(
                fast, naive,
                "prepared backward diverged for {} (max_chains {})",
                target, max_chains
            );
        }
    }

    /// UnifiedMasking never *reveals*: on any synthetic ecosystem, every
    /// exposed field after the countermeasure shows at most the
    /// characters it showed before (the lattice condition
    /// `intersect_masking(after, before) == after`). This pins the
    /// historical reveal bug where the unified scheme *overwrote* a
    /// service's stricter mask — e.g. a fully `Hidden` citizen ID was
    /// widened to `Partial{3,2}`, handing mask-merging attackers digits
    /// the service had never shown.
    #[test]
    fn unified_masking_never_reveals(seed in any::<u64>()) {
        let specs = population(seed, 30);
        let hardened = apply(&specs, Countermeasure::UnifiedMasking);
        for (before, after) in specs.iter().zip(&hardened) {
            // UnifiedMasking only rewrites maskings in place, so the
            // field lists zip positionally.
            let sides = [
                (&before.web_exposure, &after.web_exposure),
                (&before.mobile_exposure, &after.mobile_exposure),
            ];
            for (b_fields, a_fields) in sides {
                prop_assert_eq!(b_fields.len(), a_fields.len());
                for (b, a) in b_fields.iter().zip(a_fields) {
                    prop_assert_eq!(b.kind, a.kind);
                    prop_assert_eq!(
                        intersect_masking(a.masking, b.masking), a.masking,
                        "{} {:?}: {:?} -> {:?} reveals hidden characters",
                        before.id, b.kind, b.masking, a.masking
                    );
                }
            }
        }
    }

    /// `apply_all` is order-invariant: every permutation of every
    /// countermeasure subset produces the identical population. (The
    /// set is canonicalized internally; this pins the historical
    /// order-sensitivity where e.g. FixAsymmetry-then-HardenEmail and
    /// the reverse disagreed on adversarial path structures.)
    #[test]
    fn apply_all_is_order_invariant(seed in any::<u64>()) {
        let specs = population(seed, 25);
        let all = Countermeasure::all();
        for mask in 1u32..(1 << all.len()) {
            let subset: Vec<Countermeasure> = all
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, cm)| *cm)
                .collect();
            let reference = apply_all(&specs, &subset);
            for perm in permutations(&subset) {
                prop_assert_eq!(
                    &apply_all(&specs, &perm), &reference,
                    "permutation {:?} diverged from {:?}",
                    perm, subset
                );
            }
        }
    }

    /// Countermeasures never enlarge the compromised set, on any seed.
    #[test]
    fn countermeasures_never_hurt(seed in any::<u64>()) {
        let specs = population(seed, 25);
        let ap = AttackerProfile::paper_default();
        let before: BTreeSet<_> =
            forward(&specs, Platform::MobileApp, &ap, &[]).records.keys().cloned().collect();
        for &cm in Countermeasure::all() {
            let hardened = apply(&specs, cm);
            let after: BTreeSet<_> =
                forward(&hardened, Platform::MobileApp, &ap, &[]).records.keys().cloned().collect();
            prop_assert!(
                after.is_subset(&before),
                "{cm} newly compromised: {:?}",
                after.difference(&before).collect::<Vec<_>>()
            );
        }
    }
}
