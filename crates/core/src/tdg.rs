//! The Transformation Dependency Graph (TDG) — §III-D.
//!
//! Nodes are online accounts (service specs); a **strong-directivity
//! edge** `u → v` means `u` is a *full-capacity parent*: together with
//! the attacker profile, `u`'s exposed information satisfies at least one
//! complete authentication path of `v` (Definition 1). **Couple nodes**
//! jointly satisfying a path produce *weak-directivity edges* recorded in
//! the Couple File (Definitions 2–3).
//!
//! Every edge is decided on the graph's own compiled [`Prepared`]
//! substrate: a candidate group's compiled `Provider`s are absorbed into
//! a `RunState` and the target's outstanding compiled paths are tested
//! with `CPath::fires`, the same firing rule the forward fixed point
//! and `min_providers` run. No `InfoPool` is built.

use crate::backward::BackwardEngine;
use crate::pool::attack_paths;
use crate::prepared::{
    class_index, CPath, Prepared, Provider, RunState, BIT_ADDRESS, BIT_BANKCARD, BIT_CELLPHONE,
    BIT_CITIZEN_ID, BIT_REAL_NAME, BIT_SECURITY,
};
use crate::profile::AttackerProfile;
use actfort_ecosystem::factor::{CredentialFactor, ServiceId};
use actfort_ecosystem::info::{Masking, PersonalInfoKind};
use actfort_ecosystem::policy::{EdgeClass, Platform};
use actfort_ecosystem::spec::ServiceSpec;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// Maximum couple group size searched (the combinatorial cut-off).
pub const MAX_COUPLE_SIZE: usize = 3;
/// Maximum couple entries recorded per target node.
pub const MAX_COUPLES_PER_TARGET: usize = 64;

/// Shown-mask bit for `Photos`, past the six tracked-kind bits: a
/// non-hidden photo archive counts toward a `CitizenId` factor.
const SHOWN_PHOTOS: u8 = 1 << 6;

/// The kinds whose non-hidden exposure counts toward a
/// `CustomerService` factor (`SecurityAnswers` does not).
const SHOWN_DOSSIER: u8 = BIT_REAL_NAME | BIT_CITIZEN_ID | BIT_ADDRESS | BIT_BANKCARD | BIT_CELLPHONE;

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
/// via the `Arc`). The edges are classified on that substrate's compiled
/// paths and providers, and the platform-filtered spec list lives inside
/// it too. The graph also owns the [`BackwardEngine`] every backward
/// query runs, built on first use ([`Tdg::backward`]), so graphs that
/// only answer forward queries never pay for it.
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

/// Kinds a spec shows at all on `platform` (any non-hidden exposure,
/// masked or not), as tracked-kind bits plus [`SHOWN_PHOTOS`].
fn shown_kinds(spec: &ServiceSpec, platform: Platform) -> u8 {
    use PersonalInfoKind as K;
    spec.exposure_on(platform)
        .iter()
        .filter(|e| e.masking != Masking::Hidden)
        .fold(0, |bits, e| {
            bits | match e.kind {
                K::RealName => BIT_REAL_NAME,
                K::CitizenId => BIT_CITIZEN_ID,
                K::CellphoneNumber => BIT_CELLPHONE,
                K::Address => BIT_ADDRESS,
                K::BankcardNumber => BIT_BANKCARD,
                K::SecurityAnswers => BIT_SECURITY,
                K::Photos => SHOWN_PHOTOS,
                _ => 0,
            }
        })
}

/// What a target still needs from a couple candidate: the union, over
/// every attack path (dead ones included), of the factors the profile
/// alone leaves unsatisfied. A provider is a candidate when it satisfies
/// one of those factors alone or shows information that partially
/// covers one.
#[derive(Default)]
struct Needs {
    /// Tracked kinds only a fully known value helps (`RealName`,
    /// `SecurityQuestion`), tested against [`Provider::eff`].
    full: u8,
    /// Kinds any non-hidden exposure helps, tested against the shown
    /// mask (`CitizenId` also reads `Photos`).
    shown: u8,
    /// An unintercepted `EmailCode`/`EmailLink`.
    email: bool,
    /// A `CustomerService` dossier the profile alone cannot fill.
    cs: bool,
    /// `LinkedAccount` providers present in the population.
    links: Vec<u32>,
}

impl Needs {
    fn of(spec: &ServiceSpec, prepared: &Prepared) -> Self {
        use CredentialFactor as F;
        let ap = prepared.attacker_profile();
        let mut needs = Self::default();
        for f in attack_paths(spec, prepared.platform()).into_iter().flat_map(|p| &p.factors) {
            match f {
                F::CellphoneNumber if !ap.knows_phone_number => needs.shown |= BIT_CELLPHONE,
                F::EmailCode | F::EmailLink if !ap.email_interception => needs.email = true,
                F::RealName if !ap.social_engineering_db => needs.full |= BIT_REAL_NAME,
                F::CitizenId => needs.shown |= BIT_CITIZEN_ID | SHOWN_PHOTOS,
                F::BankcardNumber => needs.shown |= BIT_BANKCARD,
                F::SecurityQuestion => needs.full |= BIT_SECURITY,
                F::CustomerService if prepared.ap_kinds.count_ones() < 3 => {
                    needs.shown |= SHOWN_DOSSIER;
                    needs.cs = true;
                }
                F::LinkedAccount(id) => needs.links.extend(prepared.ids.get(id)),
                // Satisfied by the profile, or satisfiable by no single
                // provider (an unintercepted SMS code).
                _ => {}
            }
        }
        needs
    }

    /// Whether provider `j` (compiled as `p`, showing `shown`) moves at
    /// least one needed factor.
    fn attracts(&self, j: u32, p: &Provider, shown: u8, ap_kinds: u8) -> bool {
        self.full & p.eff != 0
            || self.shown & shown != 0
            || (self.email && p.email)
            || (self.cs && (ap_kinds | p.eff).count_ones() >= 3)
            || self.links.contains(&j)
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
        let (platform, ap, ap_kinds) =
            (prepared.platform(), prepared.attacker_profile(), prepared.ap_kinds);
        let (specs, providers, nodes) = (prepared.specs(), &prepared.providers, &prepared.nodes);
        let n = specs.len();

        // Fringe nodes: compromisable with the attacker profile alone.
        let fringe = nodes.iter().map(|nd| nd.open[class_index(EdgeClass::All)]).collect();
        let fringe_login =
            nodes.iter().map(|nd| nd.open[class_index(EdgeClass::LoginOnly)]).collect();
        let shown: Vec<u8> = specs.iter().map(|s| shown_kinds(s, platform)).collect();

        let mut strong: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut strong_login: Vec<Vec<bool>> = vec![Vec::new(); n];
        let mut couples: Vec<CoupleEntry> = Vec::new();
        let mut candidates: Vec<u32> = Vec::new();

        for target in 0..n {
            // Outstanding paths: live ones the profile alone does not
            // fire (dead paths fire for no group, so they add no edge).
            let paths: Vec<&CPath> = nodes[target]
                .live
                .iter()
                .filter(|cp| !cp.fires(EdgeClass::All, u16::MAX, ap_kinds, 0, false, |_| false))
                .collect();
            if paths.is_empty() {
                continue;
            }
            // Whether `st`, owning exactly the nodes in `group`, fires
            // an outstanding path under `class`.
            let fires = |class, st: &RunState, group: &[u32]| {
                paths.iter().any(|cp| {
                    cp.fires(class, u16::MAX, ap_kinds, st.eff, st.email, |l| group.contains(&l))
                })
            };
            let needs = Needs::of(&specs[target], &prepared);

            // Full-capacity parents (each tagged with its login bit) and
            // couple candidates: providers that move at least one needed
            // factor without satisfying a path alone. A parent satisfies
            // every factor of some outstanding path, so it always passes
            // the needs test.
            candidates.clear();
            for j in (0..n as u32).filter(|&j| j as usize != target) {
                let p = &providers[j as usize];
                if !needs.attracts(j, p, shown[j as usize], ap_kinds) {
                    continue;
                }
                let mut st = RunState::default();
                st.absorb(p);
                if fires(EdgeClass::All, &st, &[j]) {
                    strong[target].push(j as usize);
                    strong_login[target].push(fires(EdgeClass::LoginOnly, &st, &[j]));
                } else {
                    candidates.push(j);
                }
            }

            let couple = |group: &[u32], st: &RunState| {
                fires(EdgeClass::All, st, group).then(|| CoupleEntry {
                    providers: group.iter().map(|&g| g as usize).collect(),
                    target,
                    login: fires(EdgeClass::LoginOnly, st, group),
                })
            };
            let mut target_couples = 0usize;
            'pairs: for (ai, &a) in candidates.iter().enumerate() {
                let mut sa = RunState::default();
                sa.absorb(&providers[a as usize]);
                for &b in &candidates[ai + 1..] {
                    let mut st = sa;
                    st.absorb(&providers[b as usize]);
                    if let Some(entry) = couple(&[a, b], &st) {
                        couples.push(entry);
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
                'triples: for (ai, &a) in candidates.iter().enumerate() {
                    let mut sa = RunState::default();
                    sa.absorb(&providers[a as usize]);
                    for (bi, &b) in candidates.iter().enumerate().skip(ai + 1) {
                        let mut sab = sa;
                        sab.absorb(&providers[b as usize]);
                        for &c in &candidates[bi + 1..] {
                            let mut st = sab;
                            st.absorb(&providers[c as usize]);
                            if let Some(entry) = couple(&[a, b, c], &st) {
                                couples.push(entry);
                                target_couples += 1;
                                if target_couples >= MAX_COUPLES_PER_TARGET {
                                    break 'triples;
                                }
                            }
                        }
                    }
                }
            }
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

    /// A web-only account with one sign-in path and the given exposures.
    fn account(
        id: &str,
        factors: &[CredentialFactor],
        exposed: &[actfort_ecosystem::info::ExposedField],
    ) -> ServiceSpec {
        use actfort_ecosystem::policy::Purpose;
        use actfort_ecosystem::spec::ServiceDomain;
        let b = ServiceSpec::builder(id, id, ServiceDomain::Other).path(Purpose::SignIn, Platform::Web, factors);
        exposed.iter().fold(b, |b, &field| b.expose_web(field)).build()
    }

    #[test]
    fn three_partial_providers_form_one_triple_couple() {
        // The union of prefix/suffix masks of one kind is always reached
        // by the pair holding the longest prefix and the longest suffix,
        // so a triple needs two kinds: the head provider shows the heads
        // of both numbers, and each tail provider completes only one.
        use actfort_ecosystem::info::ExposedField;
        use CredentialFactor as F;
        use PersonalInfoKind::{BankcardNumber as Card, CitizenId as Id};
        let specs = vec![
            account("vault", &[F::SmsCode, F::CitizenId, F::BankcardNumber], &[]),
            account("heads", &[F::SmsCode], &[ExposedField::partial(Id, 10, 0), ExposedField::partial(Card, 8, 0)]),
            account("id-tail", &[F::SmsCode], &[ExposedField::partial(Id, 0, 8)]),
            account("card-tail", &[F::SmsCode], &[ExposedField::partial(Card, 0, 8)]),
        ];
        let g = Tdg::build(&specs, Platform::Web, AttackerProfile::paper_default());
        assert!(g.strong_parents(0).is_empty(), "no provider covers both numbers alone");
        assert_eq!(g.couples(), [CoupleEntry { providers: vec![1, 2, 3], target: 0, login: true }]);
    }

    #[test]
    fn security_answers_do_not_attract_a_customer_service_couple() {
        // The candidate pre-filter counts shown RealName, CitizenId,
        // Address, BankcardNumber and CellphoneNumber toward a
        // `CustomerService` dossier, but not SecurityAnswers: the pair
        // below reaches three facts with the profile's phone number, yet
        // the answers provider is never a candidate, so no couple forms.
        use actfort_ecosystem::info::ExposedField;
        use CredentialFactor as F;
        let specs = vec![
            account("support-desk", &[F::CustomerService], &[]),
            account("answers", &[F::SmsCode], &[ExposedField::clear(PersonalInfoKind::SecurityAnswers)]),
            account("names", &[F::SmsCode], &[ExposedField::clear(PersonalInfoKind::RealName)]),
        ];
        let g = Tdg::build(&specs, Platform::Web, AttackerProfile::paper_default());
        assert!(g.strong_parents(0).is_empty());
        assert!(g.couples_for(0).is_empty());
    }

    #[test]
    fn couple_cut_keeps_the_first_pairs_in_candidate_order() {
        // 24 providers alternate between the head and the tail of the
        // citizen ID: 144 complementary pairs, of which the first 64 in
        // candidate order are kept and the triple search is skipped.
        use actfort_ecosystem::info::ExposedField;
        use CredentialFactor as F;
        let half = |j: usize| {
            let (prefix, suffix) = if j % 2 == 1 { (10, 0) } else { (0, 8) };
            ExposedField::partial(PersonalInfoKind::CitizenId, prefix, suffix)
        };
        let mut specs = vec![account("vault", &[F::SmsCode, F::CitizenId], &[])];
        specs.extend((1..=24).map(|j| account(&format!("half-{j}"), &[F::SmsCode], &[half(j)])));
        let g = Tdg::build(&specs, Platform::Web, AttackerProfile::paper_default());
        let complementary = (1..=24usize)
            .flat_map(|a| (a + 1..=24).map(move |b| vec![a, b]))
            .filter(|pair| pair[0] % 2 != pair[1] % 2);
        assert_eq!(complementary.clone().count(), 144);
        let kept: Vec<Vec<usize>> = g.couples_for(0).iter().map(|c| c.providers.clone()).collect();
        assert_eq!(kept, complementary.take(MAX_COUPLES_PER_TARGET).collect::<Vec<_>>());
        assert!(g.strong_parents(0).is_empty());
    }
}
