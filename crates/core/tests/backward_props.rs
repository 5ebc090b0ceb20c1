//! Property-based invariants of the backward chain search (§III-E) over
//! random synthetic ecosystems.
//!
//! For any population, platform and target:
//!
//! 1. every chain's first step consists only of fringe nodes (cellphone +
//!    SMS-only, compromisable from the bare profile);
//! 2. every later-step service is justified by edges that exist in the
//!    TDG — a strong (full-capacity) parent compromised at an earlier
//!    step, or a couple entry whose providers were all compromised
//!    earlier — unless it is itself fringe;
//! 3. no more than `max_chains` chains are returned;
//! 4. no chain visits the same service twice;
//! 5. every chain ends at the requested target.

use actfort_core::analysis::{AttackChain, MAX_BACKWARD_PARTIALS};
use actfort_core::backward::BackwardEngine;
use actfort_core::profile::AttackerProfile;
use actfort_core::query::{Analysis, Engine};
use actfort_core::tdg::Tdg;
use actfort_ecosystem::factor::ServiceId;
use actfort_ecosystem::policy::{EdgeClass, Platform};
use actfort_ecosystem::synth::{generate, SynthConfig};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn backward_chains(tdg: &Tdg, target: &ServiceId, max_chains: usize) -> Vec<AttackChain> {
    Analysis::of(tdg).backward(target).max_chains(max_chains).run().expect("valid query")
}

proptest! {
    #[test]
    fn backward_chain_invariants(
        n in 10usize..70,
        seed in 0u64..1_000,
        platform_web in proptest::sample::select(vec![false, true]),
        max_chains in 1usize..12,
    ) {
        let specs = generate(n, seed, &SynthConfig::default());
        let platform = if platform_web { Platform::Web } else { Platform::MobileApp };
        let ap = AttackerProfile::paper_default();
        let tdg = Tdg::build(&specs, platform, ap);

        // Probe up to five deterministic targets spread over the population.
        let nodes = tdg.specs().len();
        prop_assume!(nodes > 0);
        let step = (nodes / 5).max(1);
        for t in (0..nodes).step_by(step) {
            let target_id = tdg.spec(t).id.clone();
            let chains = backward_chains(&tdg, &target_id, max_chains);

            prop_assert!(chains.len() <= max_chains, "returned {} > max_chains {max_chains}", chains.len());

            for chain in &chains {
                prop_assert!(!chain.steps.is_empty());

                // (5) the chain ends at the target.
                let last = chain.steps.last().expect("non-empty");
                prop_assert!(last.services.contains(&target_id), "chain must end at {target_id}");

                // (4) no service is visited twice.
                let all: Vec<_> = chain.steps.iter().flat_map(|s| &s.services).collect();
                let uniq: BTreeSet<_> = all.iter().collect();
                prop_assert_eq!(uniq.len(), all.len(), "chain revisits a node: {:?}", all);

                // (1) the first step is pure fringe.
                for id in &chain.steps[0].services {
                    let idx = tdg.index_of(id).expect("chain nodes are TDG nodes");
                    prop_assert!(tdg.is_fringe(idx), "first-step {id} is not fringe");
                }

                // (2) every later step rides on real TDG edges.
                let mut done: BTreeSet<usize> = BTreeSet::new();
                for (k, step) in chain.steps.iter().enumerate() {
                    for id in &step.services {
                        let idx = tdg.index_of(id).expect("chain nodes are TDG nodes");
                        if k > 0 && !tdg.is_fringe(idx) {
                            let via_strong =
                                tdg.strong_parents(idx).iter().any(|p| done.contains(p));
                            let via_couple = tdg
                                .couples_for(idx)
                                .iter()
                                .any(|c| c.providers.iter().all(|p| done.contains(p)));
                            prop_assert!(
                                via_strong || via_couple,
                                "{id} at step {k} has no compromised parent or complete couple"
                            );
                        }
                    }
                    done.extend(step.services.iter().filter_map(|id| tdg.index_of(id)));
                }
            }
        }
    }

    /// The tentpole equivalence proof: on random synthetic ecosystems the
    /// best-first [`BackwardEngine`] returns the exact chain list of the
    /// exhaustive naive reference — same chains, same canonical order —
    /// for every probed target and several `max_chains` budgets. Cases
    /// where the naive enumeration hits its global partial budget are
    /// skipped (where the safety valve fires is an implementation
    /// detail; the engine explores a subset of the naive tree, so it
    /// never caps earlier than the reference).
    #[test]
    fn engine_matches_naive_reference(
        n in 5usize..30,
        seed in 0u64..500,
        platform_web in proptest::sample::select(vec![false, true]),
        max_chains in 1usize..10,
    ) {
        let specs = generate(n, seed, &SynthConfig::default());
        let platform = if platform_web { Platform::Web } else { Platform::MobileApp };
        let tdg = Tdg::build(&specs, platform, AttackerProfile::paper_default());
        let engine = BackwardEngine::new(&tdg);

        let nodes = tdg.specs().len();
        prop_assume!(nodes > 0);
        let step = (nodes / 5).max(1);
        for t in (0..nodes).step_by(step) {
            let target_id = tdg.spec(t).id.clone();
            let (naive, exhaustive) = Analysis::of(&tdg)
                .backward(&target_id)
                .max_chains(max_chains)
                .engine(Engine::Naive)
                .run_bounded()
                .expect("valid query");
            prop_assume!(exhaustive);
            let (fast, _) =
                engine.chains(&target_id, max_chains, MAX_BACKWARD_PARTIALS, EdgeClass::All);
            prop_assert_eq!(
                fast, naive,
                "engine and naive disagree for {} (n={}, seed={}, {:?}, max_chains={})",
                target_id, n, seed, platform, max_chains
            );
        }
    }
}
