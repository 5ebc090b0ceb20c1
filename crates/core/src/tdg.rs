//! The Transformation Dependency Graph (TDG) — §III-D.
//!
//! Nodes are online accounts (service specs); a **strong-directivity
//! edge** `u → v` means `u` is a *full-capacity parent*: together with
//! the attacker profile, `u`'s exposed information satisfies at least one
//! complete authentication path of `v` (Definition 1). **Couple nodes**
//! jointly satisfying a path produce *weak-directivity edges* recorded in
//! the Couple File (Definitions 2–3).

use crate::backward::BackwardEngine;
use crate::pool::{attack_paths, attack_paths_in, path_satisfied, InfoPool};
use crate::prepared::Prepared;
use crate::profile::AttackerProfile;
use actfort_ecosystem::factor::ServiceId;
use actfort_ecosystem::policy::{EdgeClass, Platform};
use actfort_ecosystem::spec::ServiceSpec;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// Maximum couple group size searched (the combinatorial cut-off).
pub const MAX_COUPLE_SIZE: usize = 3;
/// Maximum couple entries recorded per target node.
pub const MAX_COUPLES_PER_TARGET: usize = 64;

/// One entry of the Couple File: `providers` jointly unlock `target`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoupleEntry {
    /// Node indices that must all be compromised.
    pub providers: Vec<usize>,
    /// The node they jointly unlock.
    pub target: usize,
    /// Whether the couple jointly satisfies at least one *login-class*
    /// path of the target (edges carrying only recovery-class paths are
    /// invisible under [`EdgeClass::LoginOnly`]).
    #[serde(default)]
    pub login: bool,
}

/// The dependency graph over one platform.
///
/// Owns the [`Prepared`] analysis substrate for its
/// `(population, platform, profile)` triple — built once here, shared by
/// every forward query routed through the graph (and by batch sweeps,
/// via the `Arc`). The platform-filtered spec list lives inside the
/// substrate; the graph no longer keeps its own copy. It also owns the
/// [`BackwardEngine`] every backward query runs, built on first use
/// ([`Tdg::backward`]), so graphs that only answer forward queries
/// never pay for it.
#[derive(Debug, Clone)]
pub struct Tdg {
    platform: Platform,
    prepared: Arc<Prepared>,
    backward: OnceLock<BackwardEngine>,
    ap: AttackerProfile,
    fringe: Vec<bool>,
    /// Fringe membership when only login-class paths count.
    fringe_login: Vec<bool>,
    /// `strong[child]` = parents with a strong-directivity edge to child.
    strong: Vec<Vec<usize>>,
    /// Parallel to `strong`: whether each edge satisfies a login-class
    /// path (recovery-only edges carry `false`).
    strong_login: Vec<Vec<bool>>,
    couples: Vec<CoupleEntry>,
}

/// Whether `provider` exposes information that partially covers `factor`
/// (masked views that could combine with others').
fn contributes_partially(
    factor: &actfort_ecosystem::factor::CredentialFactor,
    provider: &ServiceSpec,
    platform: Platform,
) -> bool {
    use actfort_ecosystem::factor::CredentialFactor as F;
    use actfort_ecosystem::info::{Masking, PersonalInfoKind as K};
    let exposes_some = |kind: K| {
        provider
            .exposure_on(platform)
            .iter()
            .any(|e| e.kind == kind && e.masking != Masking::Hidden)
    };
    match factor {
        F::CitizenId => exposes_some(K::CitizenId) || exposes_some(K::Photos),
        F::BankcardNumber => exposes_some(K::BankcardNumber),
        F::CellphoneNumber => exposes_some(K::CellphoneNumber),
        F::CustomerService => [K::RealName, K::CitizenId, K::Address, K::BankcardNumber, K::CellphoneNumber]
            .into_iter()
            .any(exposes_some),
        _ => false,
    }
}

impl Tdg {
    /// Builds the TDG for every spec present on `platform`.
    pub fn build(specs: &[ServiceSpec], platform: Platform, ap: AttackerProfile) -> Self {
        Self::from_prepared(Arc::new(Prepared::new(specs, platform, ap)))
    }

    /// Builds the TDG over an already compiled substrate, taking its
    /// population, platform and attacker profile.
    pub(crate) fn from_prepared(prepared: Arc<Prepared>) -> Self {
        let (platform, ap) = (prepared.platform(), prepared.attacker_profile());
        let specs = prepared.specs();
        let n = specs.len();
        let empty_pool = InfoPool::new();

        // Fringe nodes: compromisable with the attacker profile alone.
        let fringe: Vec<bool> = specs
            .iter()
            .map(|s| attack_paths(s, platform).iter().any(|p| path_satisfied(p, &ap, &empty_pool)))
            .collect();
        let fringe_login: Vec<bool> = specs
            .iter()
            .map(|s| {
                attack_paths_in(s, platform, EdgeClass::LoginOnly)
                    .iter()
                    .any(|p| path_satisfied(p, &ap, &empty_pool))
            })
            .collect();

        // Single-provider pools, reused across all targets.
        let single_pools: Vec<InfoPool> = specs
            .iter()
            .map(|s| {
                let mut pool = InfoPool::new();
                pool.absorb_compromise(s, platform);
                pool
            })
            .collect();

        let mut strong: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut strong_login: Vec<Vec<bool>> = vec![Vec::new(); n];
        let mut couples: Vec<CoupleEntry> = Vec::new();

        for target in 0..n {
            let paths: Vec<_> = attack_paths(&specs[target], platform)
                .into_iter()
                .filter(|p| !path_satisfied(p, &ap, &empty_pool))
                .cloned()
                .collect();
            if paths.is_empty() {
                continue;
            }
            // Does a pool satisfy at least one *login-class* outstanding
            // path? Edges failing this carry only recovery-class paths.
            let login_sat = |pool: &InfoPool| {
                paths
                    .iter()
                    .any(|p| !p.purpose.is_recovery() && path_satisfied(p, &ap, pool))
            };

            // Full-capacity parents, each tagged with its login bit.
            let mut parents: BTreeMap<usize, bool> = BTreeMap::new();
            for (provider, pool) in single_pools.iter().enumerate() {
                if provider == target {
                    continue;
                }
                if paths.iter().any(|p| path_satisfied(p, &ap, pool)) {
                    parents.insert(provider, login_sat(pool));
                }
            }

            // Couple candidates: nodes that are not full parents but whose
            // exposure moves at least one unsatisfied factor — either by
            // satisfying it outright or by contributing partial (masked)
            // coverage of the needed information kind.
            let candidates: Vec<usize> = (0..n)
                .filter(|&j| j != target && !parents.contains_key(&j))
                .filter(|&j| {
                    paths.iter().any(|p| {
                        p.factors.iter().any(|f| {
                            if crate::pool::factor_satisfied(f, &ap, &empty_pool) {
                                return false;
                            }
                            if crate::pool::factor_satisfied(f, &ap, &single_pools[j]) {
                                return true;
                            }
                            contributes_partially(f, &specs[j], platform)
                        })
                    })
                })
                .collect();

            let mut target_couples = 0usize;
            'pairs: for (a_idx, &a) in candidates.iter().enumerate() {
                for &b in &candidates[a_idx + 1..] {
                    let mut pool = single_pools[a].clone();
                    pool.absorb_compromise(&specs[b], platform);
                    if paths.iter().any(|p| path_satisfied(p, &ap, &pool)) {
                        let login = login_sat(&pool);
                        couples.push(CoupleEntry { providers: vec![a, b], target, login });
                        target_couples += 1;
                        if target_couples >= MAX_COUPLES_PER_TARGET {
                            break 'pairs;
                        }
                    }
                }
            }
            // Triples only when pairs found nothing and the candidate set
            // is small (keeps the search tractable on 200+ services).
            if target_couples == 0 && candidates.len() <= 40 && MAX_COUPLE_SIZE >= 3 {
                'triples: for (a_idx, &a) in candidates.iter().enumerate() {
                    for (b_off, &b) in candidates[a_idx + 1..].iter().enumerate() {
                        for &c in &candidates[a_idx + 1 + b_off + 1..] {
                            let mut pool = single_pools[a].clone();
                            pool.absorb_compromise(&specs[b], platform);
                            pool.absorb_compromise(&specs[c], platform);
                            if paths.iter().any(|p| path_satisfied(p, &ap, &pool)) {
                                let login = login_sat(&pool);
                                couples.push(CoupleEntry { providers: vec![a, b, c], target, login });
                                target_couples += 1;
                                if target_couples >= MAX_COUPLES_PER_TARGET {
                                    break 'triples;
                                }
                            }
                        }
                    }
                }
            }

            strong[target] = parents.keys().copied().collect();
            strong_login[target] = parents.values().copied().collect();
        }

        Self {
            platform,
            prepared,
            backward: OnceLock::new(),
            ap,
            fringe,
            fringe_login,
            strong,
            strong_login,
            couples,
        }
    }

    /// The platform this graph describes.
    pub fn platform(&self) -> Platform {
        self.platform
    }

    /// The attacker profile the graph was built against.
    pub fn attacker_profile(&self) -> AttackerProfile {
        self.ap
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.prepared.node_count()
    }

    /// The spec at a node index.
    pub fn spec(&self, index: usize) -> &ServiceSpec {
        &self.prepared.specs()[index]
    }

    /// All node specs.
    pub fn specs(&self) -> &[ServiceSpec] {
        self.prepared.specs()
    }

    /// The prepared analysis substrate for this graph's population —
    /// the forward fast path, shareable across threads.
    pub fn prepared(&self) -> &Arc<Prepared> {
        &self.prepared
    }

    /// The backward query engine over this graph, built on the first
    /// call and shared by every later one (and by clones of the graph).
    pub fn backward(&self) -> &BackwardEngine {
        self.backward.get_or_init(|| BackwardEngine::new(self))
    }

    /// Index of a service id (a lookup in the substrate's id map).
    pub fn index_of(&self, id: &ServiceId) -> Option<usize> {
        self.prepared.ids.get(id).map(|&i| i as usize)
    }

    /// Whether the node falls to the attacker profile alone (red node in
    /// Fig. 4).
    pub fn is_fringe(&self, index: usize) -> bool {
        self.fringe[index]
    }

    /// Fringe membership under an edge-class filter.
    ///
    /// `RecoveryOnly` is not a graph the TDG materialises — recovery-only
    /// reachability is answered at the query facade as the set difference
    /// `All ∖ LoginOnly` — so only `All` and `LoginOnly` are accepted.
    pub fn is_fringe_in(&self, index: usize, class: EdgeClass) -> bool {
        match class {
            EdgeClass::All => self.fringe[index],
            EdgeClass::LoginOnly => self.fringe_login[index],
            EdgeClass::RecoveryOnly => {
                panic!("RecoveryOnly is resolved as All ∖ LoginOnly at the query facade")
            }
        }
    }

    /// Indices of all fringe nodes.
    pub fn fringe_nodes(&self) -> Vec<usize> {
        (0..self.node_count()).filter(|&i| self.fringe[i]).collect()
    }

    /// Full-capacity parents of a node (strong-directivity edges in).
    pub fn strong_parents(&self, index: usize) -> &[usize] {
        &self.strong[index]
    }

    /// Full-capacity parents visible under an edge-class filter (see
    /// [`Tdg::is_fringe_in`] for why `RecoveryOnly` is rejected).
    pub fn strong_parents_in(
        &self,
        index: usize,
        class: EdgeClass,
    ) -> impl Iterator<Item = usize> + '_ {
        assert!(
            class != EdgeClass::RecoveryOnly,
            "RecoveryOnly is resolved as All ∖ LoginOnly at the query facade"
        );
        self.strong[index]
            .iter()
            .zip(&self.strong_login[index])
            .filter(move |&(_, &login)| class == EdgeClass::All || login)
            .map(|(&p, _)| p)
    }

    /// Children a node is full-capacity parent of.
    pub fn strong_children(&self, index: usize) -> Vec<usize> {
        (0..self.node_count())
            .filter(|&c| self.strong[c].contains(&index))
            .collect()
    }

    /// Total strong-directivity edge count.
    pub fn strong_edge_count(&self) -> usize {
        self.strong.iter().map(Vec::len).sum()
    }

    /// The Couple File.
    pub fn couples(&self) -> &[CoupleEntry] {
        &self.couples
    }

    /// Couple entries unlocking a given target.
    pub fn couples_for(&self, target: usize) -> Vec<&CoupleEntry> {
        self.couples.iter().filter(|c| c.target == target).collect()
    }

    /// Couple entries unlocking a target under an edge-class filter (see
    /// [`Tdg::is_fringe_in`] for why `RecoveryOnly` is rejected).
    pub fn couples_for_in(&self, target: usize, class: EdgeClass) -> Vec<&CoupleEntry> {
        assert!(
            class != EdgeClass::RecoveryOnly,
            "RecoveryOnly is resolved as All ∖ LoginOnly at the query facade"
        );
        self.couples
            .iter()
            .filter(|c| c.target == target && (class == EdgeClass::All || c.login))
            .collect()
    }

    /// Whether `index` appears as a provider in any couple (making it a
    /// half-capacity parent).
    pub fn is_half_capacity_parent(&self, index: usize) -> bool {
        self.couples.iter().any(|c| c.providers.contains(&index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actfort_ecosystem::dataset::curated_services;

    fn tdg(platform: Platform) -> Tdg {
        Tdg::build(&curated_services(), platform, AttackerProfile::paper_default())
    }

    #[test]
    fn fringe_matches_sms_only_condition() {
        let g = tdg(Platform::Web);
        for i in 0..g.node_count() {
            let spec = g.spec(i);
            let sms_only = spec
                .paths_on(Platform::Web)
                .iter()
                .any(|p| p.is_sms_only());
            assert_eq!(
                g.is_fringe(i),
                sms_only,
                "{}: fringe classification mismatch",
                spec.id
            );
        }
    }

    #[test]
    fn index_of_agrees_with_a_position_scan() {
        let paper = actfort_ecosystem::synth::paper_population(2021);
        for specs in [curated_services(), paper] {
            for platform in [Platform::Web, Platform::MobileApp] {
                let g = Tdg::build(&specs, platform, AttackerProfile::paper_default());
                let ids = specs.iter().map(|s| s.id.clone()).chain(["ghost".into()]);
                for id in ids {
                    let scan = g.specs().iter().position(|s| s.id == id);
                    assert_eq!(g.index_of(&id), scan, "{id} on {platform}");
                }
            }
        }
    }

    #[test]
    fn gmail_is_fringe_and_paypal_is_internal() {
        let g = tdg(Platform::Web);
        let gmail = g.index_of(&"gmail".into()).unwrap();
        let paypal = g.index_of(&"paypal".into()).unwrap();
        assert!(g.is_fringe(gmail));
        assert!(!g.is_fringe(paypal));
    }

    #[test]
    fn gmail_is_full_capacity_parent_of_paypal() {
        // Case II: PayPal reset = SMS + email code; owning Gmail plus the
        // AP covers it.
        let g = tdg(Platform::Web);
        let gmail = g.index_of(&"gmail".into()).unwrap();
        let paypal = g.index_of(&"paypal".into()).unwrap();
        assert!(
            g.strong_parents(paypal).contains(&gmail),
            "gmail must be a full-capacity parent of paypal; parents: {:?}",
            g.strong_parents(paypal).iter().map(|&i| g.spec(i).id.as_str()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn ctrip_is_full_capacity_parent_of_alipay_mobile() {
        // Case III: Alipay app reset = SMS + citizen ID; Ctrip exposes the
        // citizen ID in full.
        let g = tdg(Platform::MobileApp);
        let ctrip = g.index_of(&"ctrip".into()).unwrap();
        let alipay = g.index_of(&"alipay".into()).unwrap();
        assert!(g.strong_parents(alipay).contains(&ctrip));
    }

    #[test]
    fn travel_sites_form_couple_for_alipay_web_targets() {
        // Xiaozhu (ID head) + 12306 (ID tail) jointly provide the citizen
        // ID on mobile Alipay — they are couple nodes when neither is a
        // full parent. On mobile, Ctrip already provides it fully, so the
        // couple condition applies to the pair specifically.
        let g = tdg(Platform::MobileApp);
        let alipay = g.index_of(&"alipay".into()).unwrap();
        let xiaozhu = g.index_of(&"xiaozhu".into()).unwrap();
        let railway = g.index_of(&"china-railway-12306".into()).unwrap();
        let couple_found = g
            .couples_for(alipay)
            .iter()
            .any(|c| c.providers.contains(&xiaozhu) && c.providers.contains(&railway));
        assert!(couple_found, "xiaozhu + 12306 must form a couple for alipay");
        assert!(g.is_half_capacity_parent(xiaozhu));
    }

    #[test]
    fn robust_bank_has_no_parents() {
        let g = tdg(Platform::Web);
        let bank = g.index_of(&"union-bank".into()).unwrap();
        assert!(g.strong_parents(bank).is_empty());
        assert!(g.couples_for(bank).is_empty());
        assert!(!g.is_fringe(bank));
    }

    #[test]
    fn strong_children_inverts_parents() {
        let g = tdg(Platform::Web);
        let gmail = g.index_of(&"gmail".into()).unwrap();
        for child in g.strong_children(gmail) {
            assert!(g.strong_parents(child).contains(&gmail));
        }
    }

    #[test]
    fn mobile_only_services_absent_from_web_graph() {
        let g = tdg(Platform::Web);
        assert!(g.index_of(&"wechat".into()).is_none());
        let m = tdg(Platform::MobileApp);
        assert!(m.index_of(&"wechat".into()).is_some());
        assert!(m.index_of(&"government-portal".into()).is_none());
    }

    #[test]
    fn graph_has_substantial_connectivity() {
        let g = tdg(Platform::Web);
        assert!(g.strong_edge_count() > 50, "edges: {}", g.strong_edge_count());
        assert!(!g.fringe_nodes().is_empty());
    }

    #[test]
    fn class_all_accessors_match_unclassed_views() {
        for platform in [Platform::Web, Platform::MobileApp] {
            let g = tdg(platform);
            for i in 0..g.node_count() {
                assert_eq!(g.is_fringe(i), g.is_fringe_in(i, EdgeClass::All));
                assert_eq!(
                    g.strong_parents(i),
                    g.strong_parents_in(i, EdgeClass::All).collect::<Vec<_>>()
                );
                assert_eq!(g.couples_for(i), g.couples_for_in(i, EdgeClass::All));
            }
        }
    }

    #[test]
    fn login_only_views_are_subsets_of_all() {
        let g = tdg(Platform::Web);
        for i in 0..g.node_count() {
            if g.is_fringe_in(i, EdgeClass::LoginOnly) {
                assert!(g.is_fringe(i));
            }
            for p in g.strong_parents_in(i, EdgeClass::LoginOnly) {
                assert!(g.strong_parents(i).contains(&p));
            }
        }
    }

    #[test]
    fn paypal_gmail_edge_is_recovery_only() {
        // Gmail unlocks PayPal via its password-reset flow; PayPal's
        // sign-in needs the password itself, which Gmail does not expose.
        // The edge therefore vanishes under LoginOnly.
        let g = tdg(Platform::Web);
        let gmail = g.index_of(&"gmail".into()).unwrap();
        let paypal = g.index_of(&"paypal".into()).unwrap();
        assert!(g.strong_parents(paypal).contains(&gmail));
        assert!(!g
            .strong_parents_in(paypal, EdgeClass::LoginOnly)
            .any(|p| p == gmail));
    }
}
