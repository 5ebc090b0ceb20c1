//! Forward and backward reachability over the ecosystem — §III-E.
//!
//! **Forward** answers the strategy engine's first question: given an
//! initially attacked set (OAAS), pool its information into the Initial
//! Attack Database and iterate compromise to a fixed point, yielding the
//! Potential Account Victims (PAV). **Backward** answers the second:
//! given a target, walk full-capacity parents and merged couple groups
//! until reaching phone+SMS-only nodes, returning the account chain.

use crate::obs;
use crate::pool::{attack_paths_in, path_satisfied, InfoPool};
use crate::profile::AttackerProfile;
use crate::tdg::Tdg;
use actfort_ecosystem::factor::ServiceId;
use actfort_ecosystem::policy::{EdgeClass, Platform};
use actfort_ecosystem::spec::ServiceSpec;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// How a node was first compromised in a forward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompromiseRecord {
    /// BFS round (1 = direct with the attacker profile / seeds).
    pub round: usize,
    /// Minimum number of previously compromised accounts whose pooled
    /// information was needed (0 = profile alone, 1 = one full-capacity
    /// parent, ≥2 = couple).
    pub min_providers: usize,
}

/// Result of a forward (OAAS → PAV) analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct ForwardResult {
    /// Newly compromised ids per round; `rounds[0]` is the seed set.
    pub rounds: Vec<Vec<ServiceId>>,
    /// Per-service compromise record.
    pub records: BTreeMap<ServiceId, CompromiseRecord>,
    /// Services that never fell.
    pub uncompromised: Vec<ServiceId>,
    /// The attacker's final information pool.
    pub final_pool: InfoPool,
}

impl ForwardResult {
    /// All potential account victims (every compromised service except
    /// the seeds).
    pub fn potential_victims(&self) -> Vec<ServiceId> {
        self.rounds.iter().skip(1).flatten().cloned().collect()
    }

    /// Total compromised count (seeds included).
    pub fn compromised_count(&self) -> usize {
        self.rounds.iter().map(Vec::len).sum()
    }
}

/// The naive full-rescan fixed point behind
/// [`crate::query::Engine::Naive`]: rescans every standing node against
/// every class-admitted attack path each round and rebuilds provider
/// pools per `min_providers` query. Kept for the equivalence proof and
/// as the baseline in the forward benchmarks.
pub(crate) fn forward_naive_impl(
    specs: &[ServiceSpec],
    platform: Platform,
    ap: &AttackerProfile,
    seeds: &[ServiceId],
    class: EdgeClass,
) -> ForwardResult {
    let _span = obs::span("forward.naive");
    let rounds_counter = obs::counter("naive.rounds");
    let evaluated_counter = obs::counter("naive.nodes_evaluated");
    let nodes: Vec<&ServiceSpec> = specs
        .iter()
        .filter(|s| match platform {
            Platform::Web => s.has_web,
            Platform::MobileApp => s.has_mobile,
        })
        .collect();

    let mut pool = InfoPool::new();
    let mut compromised: BTreeSet<usize> = BTreeSet::new();
    let mut records: BTreeMap<ServiceId, CompromiseRecord> = BTreeMap::new();
    let mut rounds: Vec<Vec<ServiceId>> = Vec::new();

    // Round 0: seeds.
    let mut seed_round = Vec::new();
    for (i, s) in nodes.iter().enumerate() {
        if seeds.contains(&s.id) {
            compromised.insert(i);
            pool.absorb_compromise(s, platform);
            records.insert(s.id.clone(), CompromiseRecord { round: 0, min_providers: 0 });
            seed_round.push(s.id.clone());
        }
    }
    rounds.push(seed_round);

    loop {
        let round = rounds.len();
        rounds_counter.inc();
        evaluated_counter.add((nodes.len() - compromised.len()) as u64);
        // Evaluate all targets against the *same* pool (synchronous BFS),
        // so `round` is a true layer number.
        let mut newly: Vec<usize> = Vec::new();
        for (i, s) in nodes.iter().enumerate() {
            if compromised.contains(&i) {
                continue;
            }
            if attack_paths_in(s, platform, class).iter().any(|p| path_satisfied(p, ap, &pool)) {
                newly.push(i);
            }
        }
        if newly.is_empty() {
            break;
        }
        let mut ids = Vec::with_capacity(newly.len());
        for &i in &newly {
            let min_providers =
                min_providers_for(nodes[i], platform, ap, &compromised, &nodes, class);
            records.insert(nodes[i].id.clone(), CompromiseRecord { round, min_providers });
            ids.push(nodes[i].id.clone());
        }
        for &i in &newly {
            compromised.insert(i);
            pool.absorb_compromise(nodes[i], platform);
        }
        rounds.push(ids);
    }

    let uncompromised = nodes
        .iter()
        .enumerate()
        .filter(|(i, _)| !compromised.contains(i))
        .map(|(_, s)| s.id.clone())
        .collect();
    ForwardResult { rounds, records, uncompromised, final_pool: pool }
}

/// Fewest previously-compromised providers whose exposures (plus AP)
/// satisfy one of the target's attack paths: 0, 1, 2 or 3 (capped).
fn min_providers_for(
    target: &ServiceSpec,
    platform: Platform,
    ap: &AttackerProfile,
    compromised: &BTreeSet<usize>,
    nodes: &[&ServiceSpec],
    class: EdgeClass,
) -> usize {
    let empty = InfoPool::new();
    let paths = attack_paths_in(target, platform, class);
    if paths.iter().any(|p| path_satisfied(p, ap, &empty)) {
        return 0;
    }
    let owned: Vec<usize> = compromised.iter().copied().collect();
    for &j in &owned {
        let mut pool = InfoPool::new();
        pool.absorb_compromise(nodes[j], platform);
        if paths.iter().any(|p| path_satisfied(p, ap, &pool)) {
            return 1;
        }
    }
    for (ai, &a) in owned.iter().enumerate() {
        for &b in &owned[ai + 1..] {
            let mut pool = InfoPool::new();
            pool.absorb_compromise(nodes[a], platform);
            pool.absorb_compromise(nodes[b], platform);
            if paths.iter().any(|p| path_satisfied(p, ap, &pool)) {
                return 2;
            }
        }
    }
    3
}

/// One step of an attack chain: every listed service must be compromised
/// (singletons are strong-edge steps; groups are merged couples).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ChainStep {
    /// Services compromised at this step.
    pub services: Vec<ServiceId>,
}

/// A complete attack chain ending at the target.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttackChain {
    /// Steps in execution order; the last step is the target itself.
    pub steps: Vec<ChainStep>,
}

impl AttackChain {
    /// Total accounts compromised along the chain.
    pub fn accounts_touched(&self) -> usize {
        self.steps.iter().map(|s| s.services.len()).sum()
    }

    /// Chain length in steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// Maximum number of steps any backward chain may have. Partials past
/// this budget are pruned (individually — see the regression test for
/// the old queue-aborting behaviour).
pub const MAX_CHAIN_STEPS: usize = 8;

/// Hard ceiling on partial states either backward implementation
/// *creates* before giving up on the remaining search space — bounding
/// creations bounds queue/arena memory, not just iteration count. A
/// safety valve for pathologically dense graphs, far past anything a
/// real ecosystem produces; both implementations count a
/// `pruned_budget` / `pruned_bound` tick when it fires.
pub const MAX_BACKWARD_PARTIALS: usize = 1 << 20;

/// Total deterministic order on chains: fewest steps, then fewest
/// accounts touched, then step content (service-id lexicographic). This
/// is the order backward queries return chains in, and the tie-break
/// that makes `truncate(max_chains)` implementation-independent.
pub(crate) fn chain_order(a: &AttackChain, b: &AttackChain) -> std::cmp::Ordering {
    a.len()
        .cmp(&b.len())
        .then_with(|| a.accounts_touched().cmp(&b.accounts_touched()))
        .then_with(|| a.steps.cmp(&b.steps))
}

/// Sorts chains into [`chain_order`], drops structurally identical
/// duplicates, and truncates to `max_chains`. Shared by the naive
/// reference and the best-first engine so both return byte-identical
/// chain lists.
pub(crate) fn canonicalize_chains(
    mut chains: Vec<AttackChain>,
    max_chains: usize,
) -> Vec<AttackChain> {
    chains.sort_by(chain_order);
    let before = chains.len();
    chains.dedup();
    obs::add("backward.dedup_dropped", (before - chains.len()) as u64);
    chains.truncate(max_chains);
    chains
}

/// The naive backward BFS behind [`crate::query::Engine::Naive`]:
/// breadth-first over cloned partial chains, parametrized on the
/// partial-creation budget (the facade's `.budget(..)` knob;
/// [`MAX_BACKWARD_PARTIALS`] restores the historical safety valve) and
/// on the edge-class filter (`All` or `LoginOnly`; `RecoveryOnly` is
/// answered by set difference at the facade). Returns the canonical
/// chain list and whether the enumeration was exhaustive (`false` when
/// the budget cut the search short). Kept for the equivalence proof
/// (see `backward_props`) and as the baseline in the backward
/// benchmarks; the production path is the best-first
/// [`crate::backward::BackwardEngine`].
pub(crate) fn backward_chains_naive_budget(
    tdg: &Tdg,
    target: &ServiceId,
    max_chains: usize,
    partial_budget: usize,
    class: EdgeClass,
) -> (Vec<AttackChain>, bool) {
    let _span = obs::span("backward.naive");
    let explored = obs::counter("backward.naive.partials_explored");
    let pruned_visited = obs::counter("backward.naive.pruned_visited");
    let pruned_budget = obs::counter("backward.naive.pruned_budget");
    let Some(t) = tdg.index_of(target) else { return (Vec::new(), true) };
    if max_chains == 0 {
        return (Vec::new(), true);
    }
    let mut out: Vec<AttackChain> = Vec::new();
    let mut exhaustive = true;

    // BFS over "option trees": each frontier entry is a partial chain
    // (list of steps toward the target, reversed at the end).
    #[derive(Clone)]
    struct Partial {
        /// Steps accumulated so far, target-end first.
        steps_rev: Vec<Vec<usize>>,
        /// Nodes whose support is still unresolved.
        unresolved: Vec<usize>,
        visited: BTreeSet<usize>,
    }

    let mut queue: VecDeque<Partial> = VecDeque::new();
    queue.push_back(Partial {
        steps_rev: vec![vec![t]],
        unresolved: vec![t],
        visited: BTreeSet::from([t]),
    });

    // Total partials ever created (queued), not merely popped: capping
    // creations keeps the FIFO queue's memory bounded on dense graphs.
    let mut created = 1usize;
    while let Some(partial) = queue.pop_front() {
        if partial.steps_rev.len() > MAX_CHAIN_STEPS {
            // Over the step budget: prune this partial only. (An earlier
            // version broke out of the whole loop here, silently dropping
            // every shallower chain still enqueued behind it — see
            // `depth_budget_prunes_partials_not_the_queue`.)
            pruned_budget.inc();
            continue;
        }
        explored.inc();
        // Resolve the next unresolved node.
        let Some((&node, rest)) = partial.unresolved.split_first() else {
            // Everything resolved: chain complete.
            let steps = partial
                .steps_rev
                .iter()
                .rev()
                .map(|group| ChainStep {
                    services: group.iter().map(|&i| tdg.spec(i).id.clone()).collect(),
                })
                .collect();
            out.push(AttackChain { steps });
            continue;
        };
        let rest: Vec<usize> = rest.to_vec();

        if tdg.is_fringe_in(node, class) {
            // This node needs no support; continue with the remainder.
            if created >= partial_budget {
                pruned_budget.inc();
                exhaustive = false;
                continue;
            }
            created += 1;
            let mut next = partial.clone();
            next.unresolved = rest;
            queue.push_back(next);
            continue;
        }

        // Expand via full-capacity parents (shorter first) …
        for parent in tdg.strong_parents_in(node, class) {
            if partial.visited.contains(&parent) {
                pruned_visited.inc();
                continue;
            }
            if created >= partial_budget {
                pruned_budget.inc();
                exhaustive = false;
                continue;
            }
            created += 1;
            let mut next = partial.clone();
            next.visited.insert(parent);
            next.steps_rev.push(vec![parent]);
            next.unresolved = rest.clone();
            next.unresolved.push(parent);
            queue.push_back(next);
        }
        // … then via merged couple groups.
        for couple in tdg.couples_for_in(node, class) {
            if couple.providers.iter().any(|p| partial.visited.contains(p)) {
                pruned_visited.inc();
                continue;
            }
            if created >= partial_budget {
                pruned_budget.inc();
                exhaustive = false;
                continue;
            }
            created += 1;
            let mut next = partial.clone();
            for &p in &couple.providers {
                next.visited.insert(p);
            }
            next.steps_rev.push(couple.providers.clone());
            next.unresolved = rest.clone();
            next.unresolved.extend(&couple.providers);
            queue.push_back(next);
        }
    }

    let out = canonicalize_chains(out, max_chains);
    obs::add("backward.naive.chains_found", out.len() as u64);
    (out, exhaustive)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Analysis, Engine};
    use actfort_ecosystem::dataset::curated_services;

    fn specs() -> Vec<ServiceSpec> {
        curated_services()
    }

    fn ap() -> AttackerProfile {
        AttackerProfile::paper_default()
    }

    // Facade-backed shims under the historical names, so the behaviour
    // tests below read unchanged while exercising the new entry point.
    fn forward(
        specs: &[ServiceSpec],
        platform: Platform,
        ap: &AttackerProfile,
        seeds: &[ServiceId],
    ) -> ForwardResult {
        Analysis::over(specs, platform, *ap).forward(seeds).run().unwrap()
    }

    fn forward_naive(
        specs: &[ServiceSpec],
        platform: Platform,
        ap: &AttackerProfile,
        seeds: &[ServiceId],
    ) -> ForwardResult {
        Analysis::over(specs, platform, *ap).forward(seeds).engine(Engine::Naive).run().unwrap()
    }

    fn backward_chains(tdg: &Tdg, target: &ServiceId, max_chains: usize) -> Vec<AttackChain> {
        Analysis::of(tdg).backward(target).max_chains(max_chains).run().unwrap()
    }

    fn backward_chains_naive(
        tdg: &Tdg,
        target: &ServiceId,
        max_chains: usize,
    ) -> Vec<AttackChain> {
        Analysis::of(tdg)
            .backward(target)
            .max_chains(max_chains)
            .engine(Engine::Naive)
            .run()
            .unwrap()
    }

    #[test]
    fn forward_from_profile_compromises_majority() {
        let r = forward(&specs(), Platform::Web, &ap(), &[]);
        let total: usize = r.compromised_count() + r.uncompromised.len();
        assert!(r.compromised_count() * 100 / total >= 70, "compromised {}/{total}", r.compromised_count());
        // Robust nodes survive.
        assert!(r.uncompromised.contains(&"union-bank".into()));
        assert!(r.uncompromised.contains(&"github".into()));
    }

    #[test]
    fn forward_rounds_are_monotone_layers() {
        let r = forward(&specs(), Platform::MobileApp, &ap(), &[]);
        for (id, rec) in &r.records {
            assert!(rec.round >= 1, "{id} at round {}", rec.round);
            assert!(r.rounds[rec.round].contains(id));
        }
        // PayPal needs Gmail first: round 2, one provider.
        let paypal = r.records.get(&"paypal".into()).expect("paypal falls");
        assert_eq!(paypal.round, 2);
        assert_eq!(paypal.min_providers, 1);
    }

    #[test]
    fn forward_without_capabilities_compromises_nothing() {
        let r = forward(&specs(), Platform::Web, &AttackerProfile::none(), &[]);
        assert_eq!(r.compromised_count(), 0);
        assert_eq!(r.uncompromised.len(), r.rounds[0].len() + r.uncompromised.len());
    }

    #[test]
    fn forward_is_idempotent_at_fixed_point() {
        let r1 = forward(&specs(), Platform::Web, &ap(), &[]);
        // Seeding with everything already compromised adds nothing new.
        let all: Vec<ServiceId> = r1
            .records
            .keys()
            .cloned()
            .collect();
        let r2 = forward(&specs(), Platform::Web, &ap(), &all);
        assert_eq!(r2.compromised_count(), r1.compromised_count());
        assert_eq!(r2.uncompromised, r1.uncompromised);
    }

    #[test]
    fn seeding_email_unlocks_email_reset_services() {
        // With no SMS interception but a compromised Gmail, email-reset
        // services fall.
        let ap = AttackerProfile::none();
        let r = forward(&specs(), Platform::Web, &ap, &["gmail".into()]);
        let victims = r.potential_victims();
        assert!(victims.contains(&"dropbox".into()), "dropbox resets via email code");
        assert!(victims.contains(&"expedia".into()), "expedia resets via email link");
    }

    #[test]
    fn min_providers_counts_only_pre_round_compromises() {
        use actfort_ecosystem::factor::CredentialFactor as F;
        use actfort_ecosystem::info::{ExposedField, PersonalInfoKind};
        use actfort_ecosystem::policy::Purpose;
        use actfort_ecosystem::spec::ServiceDomain;

        // Hand-built chain. Two SMS-fringe leaks each expose half of the
        // citizen ID, "registry" needs the full ID (both leaks pooled),
        // "vault" hangs off registry via account linking, and "fortress"
        // is password-only. "registry-mirror" falls in the same round as
        // registry and exposes the ID in the clear — correct seed
        // accounting must not count it as a provider for its same-round
        // peer, so registry stays at two providers rather than one.
        let b = |id: &str| ServiceSpec::builder(id, id, ServiceDomain::Other);
        let specs = vec![
            b("leak-head")
                .path(Purpose::SignIn, Platform::Web, &[F::SmsCode])
                .expose_web(ExposedField::partial(PersonalInfoKind::CitizenId, 10, 0))
                .build(),
            b("leak-tail")
                .path(Purpose::SignIn, Platform::Web, &[F::SmsCode])
                .expose_web(ExposedField::partial(PersonalInfoKind::CitizenId, 0, 8))
                .build(),
            b("registry")
                .path(Purpose::PasswordReset, Platform::Web, &[F::CitizenId])
                .build(),
            b("registry-mirror")
                .path(Purpose::PasswordReset, Platform::Web, &[F::CitizenId])
                .expose_web(ExposedField::clear(PersonalInfoKind::CitizenId))
                .build(),
            b("vault")
                .path(Purpose::PasswordReset, Platform::Web, &[F::LinkedAccount("registry".into())])
                .build(),
            b("fortress").path(Purpose::SignIn, Platform::Web, &[F::Password]).build(),
        ];

        let ap = ap();
        let r = forward(&specs, Platform::Web, &ap, &[]);
        let rec = |id: &str| *r.records.get(&id.into()).unwrap_or_else(|| panic!("{id} falls"));
        assert_eq!(rec("leak-head"), CompromiseRecord { round: 1, min_providers: 0 });
        assert_eq!(rec("leak-tail"), CompromiseRecord { round: 1, min_providers: 0 });
        assert_eq!(rec("registry"), CompromiseRecord { round: 2, min_providers: 2 });
        assert_eq!(rec("registry-mirror"), CompromiseRecord { round: 2, min_providers: 2 });
        assert_eq!(rec("vault"), CompromiseRecord { round: 3, min_providers: 1 });
        assert_eq!(r.uncompromised, vec![ServiceId::new("fortress")]);

        // The reference loop agrees record for record.
        let naive = forward_naive(&specs, Platform::Web, &ap, &[]);
        assert_eq!(naive.records, r.records);
        assert_eq!(naive.rounds, r.rounds);
    }

    #[test]
    fn forward_engines_agree_on_mixed_populations() {
        use actfort_ecosystem::synth::{generate, SynthConfig};
        // Truncated and synthetically extended curated populations: the
        // prepared substrate and the naive loop agree field for field
        // (rounds, records, uncompromised, final pool).
        let ap = ap();
        for n in [49, 50, 57] {
            let mut specs = specs();
            if n > specs.len() {
                specs.extend(generate(n - specs.len(), 5, &SynthConfig::default()));
            } else {
                specs.truncate(n);
            }
            for platform in [Platform::Web, Platform::MobileApp] {
                let naive = forward_naive(&specs, platform, &ap, &[]);
                let prepared = Analysis::over(&specs, platform, ap)
                    .forward(&[])
                    .engine(Engine::Auto)
                    .run()
                    .unwrap();
                assert_eq!(prepared, naive, "n={n} {platform}");
            }
        }
    }

    #[test]
    fn backward_chain_for_paypal_goes_through_email() {
        let g = Tdg::build(&specs(), Platform::Web, ap());
        let chains = backward_chains(&g, &"paypal".into(), 8);
        assert!(!chains.is_empty());
        let best = &chains[0];
        // Last step is the target.
        assert_eq!(best.steps.last().unwrap().services, vec![ServiceId::new("paypal")]);
        // Some earlier step compromises an email provider.
        let email_ids = ["gmail", "netease-163", "outlook", "aliyun-mail"];
        assert!(
            best.steps
                .iter()
                .flat_map(|s| &s.services)
                .any(|id| email_ids.contains(&id.as_str())),
            "chain must pass through an email provider: {best:?}"
        );
    }

    #[test]
    fn backward_chain_for_alipay_uses_citizen_id_source() {
        let g = Tdg::build(&specs(), Platform::MobileApp, ap());
        let chains = backward_chains(&g, &"alipay".into(), 8);
        assert!(!chains.is_empty());
        let id_sources = ["ctrip", "gome", "xiaozhu", "china-railway-12306", "baidu-pan", "dropbox"];
        assert!(chains.iter().any(|c| c
            .steps
            .iter()
            .flat_map(|s| &s.services)
            .any(|id| id_sources.contains(&id.as_str()))));
    }

    #[test]
    fn backward_chain_for_fringe_node_is_single_step() {
        let g = Tdg::build(&specs(), Platform::Web, ap());
        let chains = backward_chains(&g, &"ctrip".into(), 4);
        assert_eq!(chains[0].steps.len(), 1);
        assert_eq!(chains[0].accounts_touched(), 1);
    }

    #[test]
    fn backward_chain_for_robust_target_is_empty() {
        let g = Tdg::build(&specs(), Platform::Web, ap());
        assert!(backward_chains(&g, &"union-bank".into(), 4).is_empty());
        // The facade rejects unknown targets instead of silently
        // returning an empty list like the old free function.
        let err = Analysis::of(&g).backward(&"nonexistent".into()).run().expect_err("unknown");
        assert!(err.is_client_error());
    }

    #[test]
    fn chains_start_at_fringe_nodes() {
        let g = Tdg::build(&specs(), Platform::Web, ap());
        for target in ["paypal", "alipay", "dropbox"] {
            for chain in backward_chains(&g, &target.into(), 4) {
                let first = &chain.steps[0];
                for sid in &first.services {
                    let idx = g.index_of(sid).unwrap();
                    assert!(
                        g.is_fringe(idx),
                        "chain for {target} starts at non-fringe {sid}"
                    );
                }
            }
        }
    }

    /// Regression: the depth-budget guard used to `break` out of the
    /// whole BFS queue when the *front* partial exceeded
    /// [`MAX_CHAIN_STEPS`], silently dropping every shallower chain
    /// still enqueued behind it. This ecosystem is built so that two
    /// 9-step dead-end branches reach the front of the FIFO queue while
    /// the only real chain — exactly [`MAX_CHAIN_STEPS`] steps, with
    /// fringe strips still pending — sits behind them.
    #[test]
    fn depth_budget_prunes_partials_not_the_queue() {
        use actfort_ecosystem::factor::CredentialFactor as F;
        use actfort_ecosystem::info::{ExposedField, PersonalInfoKind};
        use actfort_ecosystem::policy::Purpose;
        use actfort_ecosystem::spec::ServiceDomain;

        let b = |id: &str| ServiceSpec::builder(id, id, ServiceDomain::Other);
        let link = |id: &str, next: &str| {
            b(id).path(Purpose::PasswordReset, Platform::Web, &[F::LinkedAccount(next.into())]).build()
        };
        let mut specs = Vec::new();
        // Two deep dead-end branches: citadel ← deepN-0 ← … ← deepN-7,
        // where deepN-7 is password-only (unreachable). The partial
        // [citadel, deepN-0..7] has 9 steps and triggers the budget
        // guard. Declared first so they sit at the lowest node indices
        // and are expanded (and enqueued) ahead of the real chain.
        for branch in ["deep1", "deep2"] {
            for i in 0..7 {
                specs.push(link(&format!("{branch}-{i}"), &format!("{branch}-{}", i + 1)));
            }
            specs.push(b(&format!("{branch}-7")).path(Purpose::SignIn, Platform::Web, &[F::Password]).build());
        }
        // The real chain: citadel ← relay0 ← … ← relay4 ← harvester,
        // harvester needs the citizen ID jointly leaked by the two
        // SMS-fringe nodes — exactly MAX_CHAIN_STEPS steps, and the two
        // pending fringe strips keep it in the queue (at the same step
        // count) while the 9-step dead ends reach the front.
        for i in 0..4 {
            specs.push(link(&format!("relay{i}"), &format!("relay{}", i + 1)));
        }
        specs.push(link("relay4", "harvester"));
        specs.push(b("harvester").path(Purpose::PasswordReset, Platform::Web, &[F::CitizenId]).build());
        specs.push(
            b("leak-head")
                .path(Purpose::SignIn, Platform::Web, &[F::SmsCode])
                .expose_web(ExposedField::partial(PersonalInfoKind::CitizenId, 10, 0))
                .build(),
        );
        specs.push(
            b("leak-tail")
                .path(Purpose::SignIn, Platform::Web, &[F::SmsCode])
                .expose_web(ExposedField::partial(PersonalInfoKind::CitizenId, 0, 8))
                .build(),
        );
        specs.push(
            b("citadel")
                .path(Purpose::PasswordReset, Platform::Web, &[F::LinkedAccount("deep1-0".into())])
                .path(Purpose::PasswordReset, Platform::Web, &[F::LinkedAccount("deep2-0".into())])
                .path(Purpose::PasswordReset, Platform::Web, &[F::LinkedAccount("relay0".into())])
                .build(),
        );

        let g = Tdg::build(&specs, Platform::Web, ap());
        let expected: Vec<Vec<ServiceId>> = vec![
            vec!["leak-head".into(), "leak-tail".into()],
            vec!["harvester".into()],
            vec!["relay4".into()],
            vec!["relay3".into()],
            vec!["relay2".into()],
            vec!["relay1".into()],
            vec!["relay0".into()],
            vec!["citadel".into()],
        ];
        for (label, chains) in [
            ("naive", backward_chains_naive(&g, &"citadel".into(), 8)),
            ("engine", backward_chains(&g, &"citadel".into(), 8)),
        ] {
            assert_eq!(chains.len(), 1, "{label}: the shallow chain must survive the deep dead ends");
            let got: Vec<Vec<ServiceId>> =
                chains[0].steps.iter().map(|s| s.services.clone()).collect();
            assert_eq!(got, expected, "{label}");
            assert_eq!(chains[0].len(), MAX_CHAIN_STEPS, "{label}: exactly at the budget");
        }
    }

    #[test]
    fn canonicalize_dedups_sorts_and_truncates() {
        let chain = |groups: &[&[&str]]| AttackChain {
            steps: groups
                .iter()
                .map(|g| ChainStep { services: g.iter().map(|&s| ServiceId::new(s)).collect() })
                .collect(),
        };
        let two_step = chain(&[&["gmail"], &["paypal"]]);
        let couple = chain(&[&["xiaozhu", "china-railway-12306"], &["alipay"]]);
        let long = chain(&[&["gmail"], &["paypal"], &["ebay"]]);
        // Duplicates of both shapes, inserted out of order.
        let raw = vec![long.clone(), couple.clone(), two_step.clone(), couple.clone(), two_step.clone()];

        let out = canonicalize_chains(raw.clone(), 8);
        // Sorted by (len, accounts_touched, lexicographic), duplicates gone.
        assert_eq!(out, vec![two_step.clone(), couple.clone(), long]);
        // Truncation happens after dedup, so duplicates cannot crowd out
        // distinct chains.
        assert_eq!(canonicalize_chains(raw, 2), vec![two_step, couple]);
    }
}
