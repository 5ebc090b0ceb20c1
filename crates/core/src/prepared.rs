//! The prepared analysis substrate: one compilation per
//! `(population, platform, attacker-profile)`, many cheap analyses.
//!
//! The naive reference loop pays a per-*run* tax that dominates batch
//! sweeps: every `forward` call re-filters the spec list, rescans every
//! standing node each round, re-walks exposure lists into `InfoPool`s,
//! and rebuilds provider pools inside every `min_providers` query. This
//! module hoists all of that into [`Prepared`], built once and shared
//! (immutably, hence freely across threads) by any number of analyses:
//!
//! - **Interned ids.** Platform-eligible services become dense `u32`
//!   node ids; `compromised` / frontier / class-seen state are `u64`
//!   word bitsets instead of `BTreeSet<usize>`.
//! - **Compiled paths.** Every attack path is folded against the static
//!   attacker profile into a `CPath`: a 6-bit required-kind mask over
//!   the six identity-fact kinds (`BIT_REAL_NAME` …), a mailbox bit, a
//!   customer-service bit and resolved link ids. Factors the profile
//!   satisfies outright vanish; factors it can never satisfy (SMS
//!   without interception, unresolvable links, robust factors) kill the
//!   path at compile time. Path satisfaction at run time is three mask
//!   tests and a popcount.
//! - **Frontier re-evaluation.** A reverse index maps each atom that can
//!   still flip (a tracked kind, mailbox control, a linked provider) to
//!   the nodes whose live paths read it; after round one, a round
//!   re-evaluates only subscribers of atoms the previous round flipped.
//! - **Compiled providers.** Each node's singleton pool is flattened to
//!   a `Provider`: direct-full bits, the three positional coverage
//!   masks, mailbox control and an interned pool-signature class (the
//!   provider-collapse equivalence class, precomputed instead of
//!   re-hashed per run).
//! - **Interned memo keys.** The cross-round `min_providers` memo is
//!   keyed by a per-node *pathset id* — the interned, sorted list of
//!   compiled path signatures — plus the representative-set generation.
//!   A lookup is one array index and one integer compare, with no
//!   factor lists cloned or ordered per query.
//! - **Scratch reuse.** All mutable run state lives in
//!   [`ForwardScratch`]; [`Prepared::forward`] clears and reuses
//!   it, so a sweep of N seed sets allocates once, not N times.
//! - **One compiler.** [`Prepared::new`] platform-filters the specs and
//!   hands them to one crate-private constructor. A countermeasure
//!   set's hardened substrate ([`crate::counter::Patcher`]) comes from
//!   the same constructor, compiled cold from the rewritten specs.
//!
//! Results are byte-identical to the naive reference
//! ([`crate::query::Engine::Naive`]) — pinned by the unit tests below
//! and the property tests in `tests/proptests.rs`. The memo key is
//! coarser than the factor lists (distinct lists that compile to the
//! same `CPath`s share an entry), which is sound because the
//! `min_providers` answer is a function of the compiled form. See
//! DESIGN.md §12.

use crate::analysis::{CompromiseRecord, ForwardResult};
use crate::obs;
use crate::pool::{attack_paths, canonical_len, InfoPool, PoolSignature};
use crate::profile::AttackerProfile;
use crate::score::{OverlayFactor, UserOverlay};
use actfort_ecosystem::factor::{CredentialFactor, ServiceId};
use actfort_ecosystem::info::PersonalInfoKind;
use actfort_ecosystem::policy::{AuthPath, EdgeClass, Platform};
use actfort_ecosystem::spec::ServiceSpec;
use std::collections::BTreeMap;

/// Tracked-kind bit positions — the six identity facts the
/// customer-service fact count consults, in order: RealName, CitizenId,
/// CellphoneNumber, Address, BankcardNumber, SecurityAnswers.
pub(crate) const BIT_REAL_NAME: u8 = 1 << 0;
pub(crate) const BIT_CITIZEN_ID: u8 = 1 << 1;
pub(crate) const BIT_CELLPHONE: u8 = 1 << 2;
pub(crate) const BIT_ADDRESS: u8 = 1 << 3;
pub(crate) const BIT_BANKCARD: u8 = 1 << 4;
pub(crate) const BIT_SECURITY: u8 = 1 << 5;

/// Positions of the six tracked kinds inside the
/// [`PersonalInfoKind::all`] ordering, used to project a pool
/// signature's 13-kind full mask down to the 6 tracked bits.
const TRACKED_IN_ALL: [usize; 6] = [0, 1, 2, 4, 9, 12];

/// The kinds with positional coverage, in [`PoolSignature`] order, and
/// the tracked bit each completes.
const COV_KINDS: [PersonalInfoKind; 3] = [
    PersonalInfoKind::CitizenId,
    PersonalInfoKind::BankcardNumber,
    PersonalInfoKind::CellphoneNumber,
];
pub(crate) const COV_BITS: [u8; 3] = [BIT_CITIZEN_ID, BIT_BANKCARD, BIT_CELLPHONE];

/// Class id of an uninformative provider (never a representative).
const CLASS_NONE: u32 = u32::MAX;

/// Memo generation sentinel: slot never written.
const GEN_NONE: u32 = u32::MAX;

/// Canonical lengths of the three positionally-covered kinds, in
/// [`PoolSignature`] slot order — the word layout of the lane engine's
/// transposed coverage state (`crate::score`).
pub(crate) const COV_LENS: [u32; 3] = [18, 16, 11];

#[inline]
pub(crate) fn bit(words: &[u64], i: u32) -> bool {
    words[(i >> 6) as usize] & (1u64 << (i & 63)) != 0
}

#[inline]
pub(crate) fn set_bit(words: &mut [u64], i: u32) {
    words[(i >> 6) as usize] |= 1u64 << (i & 63);
}

/// Tracked bits completed by positional coverage: a coverage mask equal
/// to the full canonical-length mask makes its kind fully known.
#[inline]
pub(crate) fn cov_complete_bits(cov: [u32; 3]) -> u8 {
    let mut bits = 0u8;
    for slot in 0..3 {
        let len = canonical_len(COV_KINDS[slot]).expect("coverage kinds have canonical lengths");
        if cov[slot] == (1u32 << len) - 1 {
            bits |= COV_BITS[slot];
        }
    }
    bits
}

/// Projects a pool signature's 13-kind full mask to the 6 tracked bits.
#[inline]
fn tracked_bits(full_mask: u16) -> u8 {
    let mut bits = 0u8;
    for (slot, &all_bit) in TRACKED_IN_ALL.iter().enumerate() {
        if full_mask & (1 << all_bit) != 0 {
            bits |= 1 << slot;
        }
    }
    bits
}

/// One attack path compiled against the static attacker profile.
/// Factors the profile satisfies are gone; what remains is exactly the
/// run-time-variable residue of `factor_satisfied`.
#[derive(Clone)]
pub(crate) struct CPath {
    /// Tracked kinds that must be fully known.
    pub(crate) req: u8,
    /// Needs mailbox control (an `EmailCode`/`EmailLink` the profile
    /// cannot intercept).
    pub(crate) needs_email: bool,
    /// Needs the customer-service dossier (≥ 3 identity facts) and the
    /// profile alone holds fewer than 3.
    pub(crate) needs_cs: bool,
    /// `LinkedAccount` providers, as node ids, all of which must be
    /// owned.
    pub(crate) links: Vec<u32>,
    /// [`crate::score::OverlayFactor`] mask over the path's *original*
    /// factor kinds — including ones the attacker profile folded away —
    /// so a per-user overlay can disable a path whose SMS/email step
    /// the profile would otherwise intercept for free.
    pub(crate) fmask: u16,
    /// Index of `fmask` in [`Prepared::fmasks`]: lane batches compute
    /// one activation word per *distinct* mask, not per path.
    pub(crate) fmask_id: u32,
    /// Edge-class tag: whether the source path's purpose is a recovery
    /// flow ([`actfort_ecosystem::policy::Purpose::is_recovery`]).
    /// Class-filtered queries test it with
    /// [`EdgeClass::admits_recovery`]; under [`EdgeClass::All`] the test
    /// is vacuous.
    pub(crate) recovery: bool,
}

impl CPath {
    /// The one path-firing test: `class` admits the path, `factors`
    /// enables every one of its original factor kinds, the knowledge
    /// `eff`/`email` (with the profile's `ap_kinds` toward the
    /// customer-service fact count) covers its residue, and `owns`
    /// accepts every linked provider.
    #[inline]
    pub(crate) fn fires(
        &self,
        class: EdgeClass,
        factors: u16,
        ap_kinds: u8,
        eff: u8,
        email: bool,
        owns: impl Fn(u32) -> bool,
    ) -> bool {
        class.admits_recovery(self.recovery)
            && self.fmask & factors == self.fmask
            && self.req & !eff == 0
            && (!self.needs_email || email)
            && (!self.needs_cs || (ap_kinds | eff).count_ones() >= 3)
            && self.links.iter().all(|&l| owns(l))
    }
}

/// Index of a class in the per-node `[_; 3]` class-state arrays.
#[inline]
pub(crate) fn class_index(class: EdgeClass) -> usize {
    match class {
        EdgeClass::All => 0,
        EdgeClass::LoginOnly => 1,
        EdgeClass::RecoveryOnly => 2,
    }
}

/// A node's singleton pool, flattened to the bits factor satisfaction
/// actually reads.
#[derive(Clone, Copy)]
pub(crate) struct Provider {
    /// Tracked kinds exposed fully (Photos-in-the-clear already folded
    /// into CitizenId by `absorb_compromise`).
    pub(crate) raw: u8,
    /// Positional coverage masks, [`PoolSignature`] order.
    pub(crate) cov: [u32; 3],
    /// `raw` plus coverage-completed bits — the kinds this provider
    /// alone makes fully known.
    pub(crate) eff: u8,
    /// Compromising this node grants mailbox control.
    pub(crate) email: bool,
    /// Interned pool-signature class, or [`CLASS_NONE`] when the pool
    /// is uninformative (such providers only matter via `LinkedAccount`
    /// factors naming them).
    class: u32,
}

/// Per-node compiled form.
pub(crate) struct Node {
    /// Live compiled paths (paths the profile can never satisfy are
    /// dropped — they can't satisfy, so they can't compromise).
    pub(crate) live: Vec<CPath>,
    /// Every resolvable `LinkedAccount` target across *all* attack
    /// paths (dead ones included), in path-then-factor order — the
    /// extra `min_providers` candidates beyond the class
    /// representatives.
    all_links: Vec<u32>,
    /// Satisfiable by the profile alone (the `min_providers == 0`
    /// case, a compile-time constant), per edge class
    /// ([`class_index`] order).
    pub(crate) open: [bool; 3],
    /// Interned pathset id for the `min_providers` memo, per edge
    /// class; `None` when any class-admitted path names a
    /// `LinkedAccount` (candidate set is then target-specific,
    /// bypassing the memo). The memo stays sound per class because
    /// the key is the sorted `(req, email, cs)` list of exactly the
    /// class-admitted live paths: equal keys mean equal
    /// `min_providers` answers regardless of which class produced
    /// them, so all three classes share one interning map.
    pathset: [Option<u32>; 3],
}

/// Counter handles for one prepared forward run (the `engine.*`
/// counters dashboards and the golden trace tests read).
struct Stats {
    rounds: obs::Counter,
    evaluated: obs::Counter,
    skipped: obs::Counter,
    fell: obs::Counter,
    class_reps: obs::Counter,
    class_collapsed: obs::Counter,
    minprov_queries: obs::Counter,
    minprov_memo_hits: obs::Counter,
    minprov_memo_misses: obs::Counter,
}

impl Stats {
    fn fetch() -> Self {
        Self {
            rounds: obs::counter("engine.rounds"),
            evaluated: obs::counter("engine.nodes_evaluated"),
            skipped: obs::counter("engine.nodes_skipped"),
            fell: obs::counter("engine.nodes_fell"),
            class_reps: obs::counter("engine.provider_class_reps"),
            class_collapsed: obs::counter("engine.provider_class_collapsed"),
            minprov_queries: obs::counter("engine.min_provider_queries"),
            minprov_memo_hits: obs::counter("engine.minprov_memo_hits"),
            minprov_memo_misses: obs::counter("engine.minprov_memo_misses"),
        }
    }
}

/// The attacker's variable knowledge during one run, as the compiled
/// paths read it. Ownership lives in the `compromised` bitset (the
/// absorbed node set *is* the owned set).
#[derive(Default, Clone, Copy)]
pub(crate) struct RunState {
    pub(crate) raw: u8,
    pub(crate) cov: [u32; 3],
    pub(crate) eff: u8,
    pub(crate) email: bool,
}

impl RunState {
    #[inline]
    pub(crate) fn absorb(&mut self, p: &Provider) {
        self.raw |= p.raw;
        for slot in 0..3 {
            self.cov[slot] |= p.cov[slot];
        }
        self.email |= p.email;
        self.eff = self.raw | cov_complete_bits(self.cov);
    }
}

/// Reusable per-analysis mutable state. Create with
/// [`Prepared::scratch`]; every [`Prepared::forward`] call clears
/// and resizes it, so one scratch serves any number of runs (and any
/// substrate).
#[derive(Default)]
pub struct ForwardScratch {
    compromised: Vec<u64>,
    frontier: Vec<u64>,
    class_seen: Vec<u64>,
    reps: Vec<u32>,
    /// `min_providers` memo: one slot per pathset,
    /// `(representative generation, answer)`.
    memo: Vec<(u32, u8)>,
    newly: Vec<u32>,
    candidates: Vec<u32>,
}

impl ForwardScratch {
    /// An empty scratch; [`Prepared::forward`] sizes it on use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// An ecosystem compiled for analysis: build once per
/// `(population, platform, attacker-profile)` with [`Prepared::new`],
/// then run any number of forward analyses against it — concurrently,
/// via `Arc`, with one [`ForwardScratch`] per thread.
pub struct Prepared {
    platform: Platform,
    ap: AttackerProfile,
    /// Identity facts the profile knows without any compromise
    /// (tracked bits).
    pub(crate) ap_kinds: u8,
    /// Platform-eligible specs, node-id order.
    specs: Vec<ServiceSpec>,
    /// Owned name → node-id index (overlay construction resolves user
    /// service lists against it without re-scanning the spec list).
    pub(crate) ids: BTreeMap<ServiceId, u32>,
    pub(crate) providers: Vec<Provider>,
    pub(crate) nodes: Vec<Node>,
    /// Distinct [`CPath::fmask`] values, indexed by [`CPath::fmask_id`]
    /// — the lane engine precomputes one per-batch activation word per
    /// entry (`crate::score`).
    pub(crate) fmasks: Vec<u16>,
    /// Sizes of the interned informative pool-signature class and
    /// pathset (`min_providers` memo key) id spaces, for scratch sizing.
    classes: usize,
    pathsets: usize,
    /// Reverse index over the nodes' live paths.
    subs: Subscriptions,
}

impl std::fmt::Debug for Prepared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prepared")
            .field("platform", &self.platform)
            .field("nodes", &self.nodes.len())
            .field("classes", &self.classes)
            .field("pathsets", &self.pathsets)
            .finish_non_exhaustive()
    }
}

impl Prepared {
    /// Compiles `specs` (platform-filtered) against `ap`.
    pub fn new(specs: &[ServiceSpec], platform: Platform, ap: AttackerProfile) -> Self {
        let eligible = specs
            .iter()
            .filter(|s| match platform {
                Platform::Web => s.has_web,
                Platform::MobileApp => s.has_mobile,
            })
            .cloned()
            .collect();
        Self::compile(eligible, platform, ap)
    }

    /// Compiles `specs`, which must already be `platform`-eligible, taking
    /// them by value: [`crate::counter::Patcher`] hands over the hardened
    /// copies of a base substrate's own specs without another clone.
    pub(crate) fn compile(specs: Vec<ServiceSpec>, platform: Platform, ap: AttackerProfile) -> Self {
        let _span = obs::span("prepare");
        obs::add("engine.prepares", 1);
        let ids: BTreeMap<ServiceId, u32> =
            specs.iter().enumerate().map(|(i, s)| (s.id.clone(), i as u32)).collect();
        debug_assert_eq!(ids.len(), specs.len(), "service ids must be unique within a population");

        // Providers, then nodes: a single pass interleaving the two
        // measured about 7% slower on paper:2021 (mobile).
        let mut c = NodeCompiler::new(platform, ap, &ids);
        let providers: Vec<Provider> = specs.iter().map(|s| c.provider(s)).collect();
        let nodes: Vec<Node> = (0..).zip(&specs).map(|(i, s)| c.node(i, s)).collect();
        c.subs.finish();
        let NodeCompiler { ap_kinds, classes, pathsets, fmask_of, subs, .. } = c;
        let mut fmasks = vec![0u16; fmask_of.len()];
        for (mask, id) in fmask_of {
            fmasks[id as usize] = mask;
        }

        Self {
            platform,
            ap,
            ap_kinds,
            specs,
            ids,
            providers,
            nodes,
            fmasks,
            classes: classes.len(),
            pathsets: pathsets.len(),
            subs,
        }
    }

    /// The platform this substrate was compiled for.
    pub fn platform(&self) -> Platform {
        self.platform
    }

    /// The attacker profile this substrate was compiled against.
    pub fn attacker_profile(&self) -> AttackerProfile {
        self.ap
    }

    /// The platform-eligible specs, in node-id order.
    pub fn specs(&self) -> &[ServiceSpec] {
        &self.specs
    }

    /// Number of compiled nodes.
    pub fn node_count(&self) -> usize {
        self.specs.len()
    }

    /// A scratch sized for this substrate (any scratch works; this one
    /// just avoids the first-run growth).
    pub fn scratch(&self) -> ForwardScratch {
        let mut s = ForwardScratch::new();
        self.reset_scratch(&mut s);
        s
    }

    /// The forward fixed point on this substrate, byte-identical to the
    /// naive reference. Only `class`-admitted compiled paths can satisfy
    /// a node ([`EdgeClass::All`] is the unfiltered query). `scratch` is
    /// caller-owned so a batch sweep can share one substrate via `Arc`
    /// and keep one scratch per worker thread.
    pub fn forward(
        &self,
        scratch: &mut ForwardScratch,
        class: EdgeClass,
        seeds: &[ServiceId],
        memo_enabled: bool,
    ) -> ForwardResult {
        self.forward_inner(scratch, seeds, memo_enabled, None, class)
    }

    fn reset_scratch(&self, s: &mut ForwardScratch) {
        let words = self.nodes.len().div_ceil(64);
        s.compromised.clear();
        s.compromised.resize(words, 0);
        s.frontier.clear();
        s.frontier.resize(words, 0);
        s.class_seen.clear();
        s.class_seen.resize(self.classes.div_ceil(64), 0);
        s.reps.clear();
        s.memo.clear();
        s.memo.resize(self.pathsets, (GEN_NONE, 0));
        s.newly.clear();
        s.candidates.clear();
    }

    /// The forward fixed point restricted to one user's
    /// [`UserOverlay`]: only *held* services can fall, and a path is
    /// active only when every one of its original factor kinds is
    /// *enabled* by the user. A full overlay (every service held, every
    /// factor enabled) reproduces [`Self::forward`] exactly — pinned by
    /// the scalar-degenerate regression tests. `class` filters paths as
    /// in [`Self::forward`].
    ///
    /// This is the one-user-at-a-time *reference* the 64-lane sweep in
    /// [`crate::score`] is property-tested against. The cross-round
    /// `min_providers` memo is bypassed: its pathset key does not see
    /// which paths the overlay deactivated, so two nodes sharing a
    /// pathset id may have different active subsets under the same
    /// overlay.
    pub fn forward_overlay(
        &self,
        scratch: &mut ForwardScratch,
        overlay: &UserOverlay,
        class: EdgeClass,
    ) -> ForwardResult {
        self.forward_inner(scratch, &[], false, Some(overlay), class)
    }

    fn forward_inner(
        &self,
        scratch: &mut ForwardScratch,
        seeds: &[ServiceId],
        memo_enabled: bool,
        overlay: Option<&UserOverlay>,
        class: EdgeClass,
    ) -> ForwardResult {
        let _span = obs::span("forward.prepared");
        // All-ones when no overlay: `fmask & factors == fmask` is then
        // vacuous and the plain forward path is bit-identical to before.
        let factors = overlay.map_or(u16::MAX, |ov| ov.factors);
        let memo_enabled = memo_enabled && overlay.is_none();
        let stats = Stats::fetch();
        obs::add("engine.runs", 1);
        self.reset_scratch(scratch);
        let n = self.nodes.len();
        let mut st = RunState::default();
        let mut records: BTreeMap<ServiceId, CompromiseRecord> = BTreeMap::new();
        let mut rounds: Vec<Vec<ServiceId>> = Vec::new();
        let mut compromised_count = 0usize;

        // Round 0: seeds.
        let mut seed_round = Vec::new();
        for (i, s) in self.specs.iter().enumerate() {
            if seeds.contains(&s.id) {
                set_bit(&mut scratch.compromised, i as u32);
                compromised_count += 1;
                let provider = &self.providers[i];
                st.absorb(provider);
                register(provider, i as u32, &mut scratch.class_seen, &mut scratch.reps, &stats);
                records.insert(s.id.clone(), CompromiseRecord { round: 0, min_providers: 0 });
                seed_round.push(s.id.clone());
            }
        }
        rounds.push(seed_round);

        // Round 1 evaluates every standing node (under an overlay, every
        // standing *held* node); afterwards only subscribers of flipped
        // flags can change.
        for i in 0..n as u32 {
            if !bit(&scratch.compromised, i) && overlay.map_or(true, |ov| bit(&ov.held, i)) {
                set_bit(&mut scratch.frontier, i);
            }
        }
        let mut frontier_len =
            scratch.frontier.iter().map(|w| w.count_ones() as usize).sum::<usize>();

        while frontier_len > 0 {
            let round = rounds.len();
            stats.rounds.inc();
            stats.evaluated.add(frontier_len as u64);
            stats.skipped.add(((n - compromised_count) - frontier_len) as u64);
            obs::observe("engine.frontier_size", frontier_len as u64);
            // Synchronous BFS: the whole frontier is judged against the
            // same pre-round state, so `round` stays a true layer number.
            scratch.newly.clear();
            {
                let _eval = obs::span("evaluate");
                for (w, &word) in scratch.frontier.iter().enumerate() {
                    let mut m = word;
                    while m != 0 {
                        let i = (w as u32) << 6 | m.trailing_zeros();
                        m &= m - 1;
                        let sat = self.nodes[i as usize].live.iter().any(|cp| {
                            cp.fires(class, factors, self.ap_kinds, st.eff, st.email, |l| {
                                bit(&scratch.compromised, l)
                            })
                        });
                        if sat {
                            scratch.newly.push(i);
                        }
                    }
                }
            }
            if scratch.newly.is_empty() {
                break;
            }
            stats.fell.add(scratch.newly.len() as u64);
            // Records are computed against the *pre-round* compromised
            // set: providers are accounts already fallen when this layer
            // was judged, never same-round peers.
            let mut ids = Vec::with_capacity(scratch.newly.len());
            {
                let _rec = obs::span("min_providers");
                for k in 0..scratch.newly.len() {
                    let i = scratch.newly[k];
                    stats.minprov_queries.inc();
                    let min_providers = self.min_providers(
                        i,
                        memo_enabled,
                        factors,
                        class,
                        &scratch.compromised,
                        &scratch.reps,
                        &mut scratch.memo,
                        &mut scratch.candidates,
                        &stats,
                    );
                    records
                        .insert(self.specs[i as usize].id.clone(), CompromiseRecord { round, min_providers });
                    ids.push(self.specs[i as usize].id.clone());
                }
            }

            let (before_eff, before_email) = (st.eff, st.email);
            {
                let _abs = obs::span("absorb");
                for k in 0..scratch.newly.len() {
                    let i = scratch.newly[k];
                    set_bit(&mut scratch.compromised, i);
                    let provider = &self.providers[i as usize];
                    st.absorb(provider);
                    register(provider, i, &mut scratch.class_seen, &mut scratch.reps, &stats);
                }
            }
            compromised_count += scratch.newly.len();
            rounds.push(ids);

            // Next frontier: subscribers of every flag that flipped.
            scratch.frontier.fill(0);
            let (gained, mail_fell) = (st.eff & !before_eff, st.email && !before_email);
            self.subs.wake(gained, mail_fell, &scratch.newly, &mut scratch.frontier);
            frontier_len = 0;
            for w in 0..scratch.frontier.len() {
                scratch.frontier[w] &= !scratch.compromised[w];
                if let Some(ov) = overlay {
                    scratch.frontier[w] &= ov.held[w];
                }
                frontier_len += scratch.frontier[w].count_ones() as usize;
            }
        }

        let uncompromised = self
            .specs
            .iter()
            .enumerate()
            .filter(|(i, _)| !bit(&scratch.compromised, *i as u32))
            .map(|(_, s)| s.id.clone())
            .collect();
        // The pool is rebuilt only at materialization: absorption is
        // commutative and idempotent, so absorbing the compromised set
        // in node order reproduces the round-order pool exactly.
        let mut final_pool = InfoPool::new();
        for (i, spec) in self.specs.iter().enumerate() {
            if bit(&scratch.compromised, i as u32) {
                final_pool.absorb_compromise(spec, self.platform);
            }
        }
        ForwardResult { rounds, records, uncompromised, final_pool }
    }

    /// Fewest previously-compromised providers whose pooled exposures
    /// (plus the profile) satisfy one of the node's live paths — 0, 1,
    /// 2 or 3 (capped). Candidates are one provider per informative
    /// pool-signature class, plus any compromised provider the node
    /// links explicitly.
    #[allow(clippy::too_many_arguments)]
    fn min_providers(
        &self,
        node: u32,
        memo_enabled: bool,
        factors: u16,
        class: EdgeClass,
        compromised: &[u64],
        reps: &[u32],
        memo: &mut [(u32, u8)],
        candidates: &mut Vec<u32>,
        stats: &Stats,
    ) -> usize {
        let nd = &self.nodes[node as usize];
        let gen = reps.len() as u32;
        // `forward_inner` already forces `memo_enabled` off for overlay
        // runs, keeping the pathset key sound (it cannot distinguish
        // overlay-deactivated path subsets). Class-filtered runs stay
        // memoized through their own per-class pathset slot.
        let slot = if memo_enabled { nd.pathset[class_index(class)] } else { None };
        if let Some(ps) = slot {
            let (g, ans) = memo[ps as usize];
            if g == gen {
                stats.minprov_memo_hits.inc();
                return ans as usize;
            }
            stats.minprov_memo_misses.inc();
        }
        let answer = self.min_providers_uncached(nd, factors, class, compromised, reps, candidates);
        if let Some(ps) = slot {
            memo[ps as usize] = (gen, answer as u8);
        }
        answer
    }

    fn min_providers_uncached(
        &self,
        nd: &Node,
        factors: u16,
        class: EdgeClass,
        compromised: &[u64],
        reps: &[u32],
        candidates: &mut Vec<u32>,
    ) -> usize {
        let ap_kinds = self.ap_kinds;
        let open = if factors == u16::MAX {
            nd.open[class_index(class)]
        } else {
            nd.live.iter().any(|cp| cp.fires(class, factors, ap_kinds, 0, false, |_| false))
        };
        if open {
            return 0;
        }
        candidates.clear();
        candidates.extend_from_slice(reps);
        for &l in &nd.all_links {
            if bit(compromised, l) && !candidates.contains(&l) {
                candidates.push(l);
            }
        }
        for &j in candidates.iter() {
            let p = &self.providers[j as usize];
            let sat = nd.live.iter().any(|cp| {
                cp.fires(class, factors, ap_kinds, p.eff, p.email, |l| l == j)
            });
            if sat {
                return 1;
            }
        }
        for (ai, &a) in candidates.iter().enumerate() {
            let pa = &self.providers[a as usize];
            for &b in &candidates[ai + 1..] {
                let pb = &self.providers[b as usize];
                let cov =
                    [pa.cov[0] | pb.cov[0], pa.cov[1] | pb.cov[1], pa.cov[2] | pb.cov[2]];
                let eff = (pa.raw | pb.raw) | cov_complete_bits(cov);
                let email = pa.email || pb.email;
                let sat = nd.live.iter().any(|cp| {
                    cp.fires(class, factors, ap_kinds, eff, email, |l| l == a || l == b)
                });
                if sat {
                    return 2;
                }
            }
        }
        3
    }
}

/// Files a newly compromised provider into its signature class,
/// electing it representative if the class is new.
#[inline]
fn register(p: &Provider, i: u32, class_seen: &mut [u64], reps: &mut Vec<u32>, stats: &Stats) {
    if p.class == CLASS_NONE {
        return;
    }
    if bit(class_seen, p.class) {
        stats.class_collapsed.inc();
    } else {
        set_bit(class_seen, p.class);
        reps.push(i);
        stats.class_reps.inc();
    }
}

/// Interns `key` into `ids`: the next dense id for a new key, the
/// existing id for a seen one.
fn intern<K: Ord>(ids: &mut BTreeMap<K, u32>, key: K) -> u32 {
    let next = ids.len() as u32;
    *ids.entry(key).or_insert(next)
}

/// Reverse index over the *unresolved* atoms of live paths: the nodes
/// to re-evaluate when a tracked kind becomes fully known (`kind`),
/// when the mailbox falls (`email`), or when a specific provider is
/// compromised (`link[p]`). Atoms the profile resolved at compile time
/// never subscribe, which keeps frontiers small.
struct Subscriptions {
    kind: [Vec<u32>; 6],
    email: Vec<u32>,
    link: Vec<Vec<u32>>,
}

impl Subscriptions {
    fn new(nodes: usize) -> Self {
        Self { kind: Default::default(), email: Vec::new(), link: vec![Vec::new(); nodes] }
    }

    /// Subscribes node `i` to every atom its live paths still read.
    fn add(&mut self, i: u32, live: &[CPath]) {
        for cp in live {
            for (slot, subs) in self.kind.iter_mut().enumerate() {
                if cp.req & (1 << slot) != 0 {
                    subs.push(i);
                }
            }
            if cp.needs_email {
                self.email.push(i);
            }
            if cp.needs_cs {
                // The fact count reads all six tracked kinds.
                for subs in &mut self.kind {
                    subs.push(i);
                }
            }
            for &l in &cp.links {
                self.link[l as usize].push(i);
            }
        }
    }

    /// Sorts and dedups every subscriber list once all nodes are added.
    fn finish(&mut self) {
        for subs in self.kind.iter_mut().chain([&mut self.email]).chain(&mut self.link) {
            subs.sort_unstable();
            subs.dedup();
        }
    }

    /// Marks in `frontier` the subscribers of every atom that just
    /// flipped: the tracked kinds in `gained`, the mailbox if
    /// `mail_fell`, and each provider in `fell`.
    fn wake(&self, gained: u8, mail_fell: bool, fell: &[u32], frontier: &mut [u64]) {
        for (slot, subs) in self.kind.iter().enumerate() {
            if gained & (1 << slot) != 0 {
                subs.iter().for_each(|&sub| set_bit(frontier, sub));
            }
        }
        if mail_fell {
            self.email.iter().for_each(|&sub| set_bit(frontier, sub));
        }
        for &i in fell {
            self.link[i as usize].iter().for_each(|&sub| set_bit(frontier, sub));
        }
    }
}

/// The per-node compiler behind [`Prepared::compile`]: it flattens a
/// node's singleton pool to a [`Provider`], folds its attack paths
/// against the static profile, interns its class, per-class pathsets
/// and overlay-factor masks, and subscribes it to the atoms its live
/// paths still read.
struct NodeCompiler<'b> {
    platform: Platform,
    ap: AttackerProfile,
    ap_kinds: u8,
    ids: &'b BTreeMap<ServiceId, u32>,
    classes: BTreeMap<PoolSignature, u32>,
    pathsets: BTreeMap<Vec<(u8, bool, bool)>, u32>,
    fmask_of: BTreeMap<u16, u32>,
    subs: Subscriptions,
}

impl<'b> NodeCompiler<'b> {
    fn new(platform: Platform, ap: AttackerProfile, ids: &'b BTreeMap<ServiceId, u32>) -> Self {
        let mut ap_kinds = 0u8;
        if ap.social_engineering_db {
            ap_kinds |= BIT_REAL_NAME | BIT_ADDRESS;
        }
        if ap.knows_phone_number {
            ap_kinds |= BIT_CELLPHONE;
        }
        Self {
            platform,
            ap,
            ap_kinds,
            ids,
            classes: BTreeMap::new(),
            pathsets: BTreeMap::new(),
            fmask_of: BTreeMap::new(),
            subs: Subscriptions::new(ids.len()),
        }
    }

    /// Flattens `spec`'s singleton pool and interns its class.
    fn provider(&mut self, spec: &ServiceSpec) -> Provider {
        let mut pool = InfoPool::new();
        pool.absorb_compromise(spec, self.platform);
        let (full_mask, cov, email) = pool.signature();
        let raw = tracked_bits(full_mask);
        let class = if pool.is_informative() {
            intern(&mut self.classes, (full_mask, cov, email))
        } else {
            CLASS_NONE
        };
        Provider { raw, cov, eff: raw | cov_complete_bits(cov), email, class }
    }

    /// Compiles node `i`'s paths from `spec` and subscribes it.
    fn node(&mut self, i: u32, spec: &ServiceSpec) -> Node {
        let paths = attack_paths(spec, self.platform);
        let all_links = paths
            .iter()
            .flat_map(|p| &p.factors)
            .filter_map(|f| match f {
                CredentialFactor::LinkedAccount(id) => self.ids.get(id).copied(),
                _ => None,
            })
            .collect();
        let cs_static = self.ap_kinds.count_ones() >= 3;
        let mut live: Vec<CPath> =
            paths.iter().filter_map(|p| compile_path(p, &self.ap, cs_static, self.ids)).collect();
        for cp in &mut live {
            cp.fmask_id = intern(&mut self.fmask_of, cp.fmask);
        }

        // Per edge class: the open flag (a path fires on the profile
        // alone) and the memo pathset key, which stays `None` when a
        // class-admitted path names a `LinkedAccount`.
        let mut open = [false; 3];
        let mut pathset = [None; 3];
        for class in EdgeClass::all() {
            let ci = class_index(class);
            open[ci] =
                live.iter().any(|cp| cp.fires(class, u16::MAX, self.ap_kinds, 0, false, |_| false));
            let any_link = paths.iter().any(|p| {
                class.admits(p.purpose)
                    && p.factors.iter().any(|f| matches!(f, CredentialFactor::LinkedAccount(_)))
            });
            if !any_link {
                let mut key: Vec<(u8, bool, bool)> = live
                    .iter()
                    .filter(|cp| class.admits_recovery(cp.recovery))
                    .map(|cp| (cp.req, cp.needs_email, cp.needs_cs))
                    .collect();
                key.sort_unstable();
                pathset[ci] = Some(intern(&mut self.pathsets, key));
            }
        }
        self.subs.add(i, &live);
        Node { live, all_links, open, pathset }
    }
}

/// Folds one attack path against the static profile. `None` means the
/// path can never be satisfied under this profile (equivalently: it is
/// unsatisfied by every pool), so it is dropped from the live set.
fn compile_path(
    path: &AuthPath,
    ap: &AttackerProfile,
    cs_static: bool,
    id_of: &BTreeMap<ServiceId, u32>,
) -> Option<CPath> {
    use CredentialFactor as F;
    let mut cp = CPath {
        req: 0,
        needs_email: false,
        needs_cs: false,
        links: Vec::new(),
        fmask: 0,
        // Interned by `NodeCompiler::node` once the mask is complete.
        fmask_id: 0,
        recovery: path.purpose.is_recovery(),
    };
    for f in &path.factors {
        // The overlay mask records the *original* factor kind before any
        // profile folding: a path whose SMS step the profile intercepts
        // for free must still die for a user who never enabled SMS.
        cp.fmask |= OverlayFactor::of(f);
        match f {
            F::SmsCode => {
                if !ap.sms_interception {
                    return None;
                }
            }
            F::CellphoneNumber => {
                if !ap.knows_phone_number {
                    cp.req |= BIT_CELLPHONE;
                }
            }
            F::EmailCode | F::EmailLink => {
                if !ap.email_interception {
                    cp.needs_email = true;
                }
            }
            F::RealName => {
                if !ap.social_engineering_db {
                    cp.req |= BIT_REAL_NAME;
                }
            }
            F::CitizenId => cp.req |= BIT_CITIZEN_ID,
            F::BankcardNumber => cp.req |= BIT_BANKCARD,
            F::SecurityQuestion => cp.req |= BIT_SECURITY,
            F::CustomerService => {
                if !cs_static {
                    cp.needs_cs = true;
                }
            }
            F::LinkedAccount(id) => match id_of.get(id) {
                // A link to a node outside the platform-eligible
                // population can never be owned: dead path.
                Some(&j) => cp.links.push(j),
                None => return None,
            },
            // Secrets and robust factors are never satisfiable by
            // harvesting (and `attack_paths` already filters them);
            // unknown future variants conservatively match
            // `factor_satisfied`'s `_ => false`.
            _ => return None,
        }
    }
    Some(cp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::forward_naive_impl;
    use actfort_ecosystem::dataset::curated_services;

    fn assert_equivalent(
        specs: &[ServiceSpec],
        platform: Platform,
        ap: &AttackerProfile,
        seeds: &[ServiceId],
    ) {
        let naive = forward_naive_impl(specs, platform, ap, seeds, EdgeClass::All);
        let prepared = Prepared::new(specs, platform, *ap);
        for memo in [true, false] {
            let got = prepared.forward(&mut prepared.scratch(), EdgeClass::All, seeds, memo);
            assert_eq!(naive, got, "{platform} memo={memo}");
        }
    }

    #[test]
    fn equivalent_on_curated_population() {
        let specs = curated_services();
        for platform in [Platform::Web, Platform::MobileApp] {
            assert_equivalent(&specs, platform, &AttackerProfile::paper_default(), &[]);
            assert_equivalent(&specs, platform, &AttackerProfile::none(), &["gmail".into()]);
            assert_equivalent(&specs, platform, &AttackerProfile::targeted(), &[]);
            assert_equivalent(&specs, platform, &AttackerProfile::email_surface(), &[]);
        }
    }

    #[test]
    fn equivalent_on_synthetic_population() {
        let specs = actfort_ecosystem::synth::paper_population(2021);
        for platform in [Platform::Web, Platform::MobileApp] {
            assert_equivalent(&specs, platform, &AttackerProfile::paper_default(), &[]);
        }
    }

    #[test]
    fn scratch_reuse_is_state_free() {
        // One substrate, one scratch, many seed sets: each run must
        // match a fresh-scratch run exactly (no state bleeds through).
        let specs = curated_services();
        let prepared = Prepared::new(&specs, Platform::Web, AttackerProfile::paper_default());
        let mut scratch = prepared.scratch();
        let seed_sets: Vec<Vec<ServiceId>> = vec![
            vec![],
            vec!["gmail".into()],
            vec!["taobao".into(), "gmail".into()],
            vec![],
        ];
        for seeds in &seed_sets {
            let reused = prepared.forward(&mut scratch, EdgeClass::All, seeds, true);
            let fresh = prepared.forward(&mut prepared.scratch(), EdgeClass::All, seeds, true);
            assert_eq!(reused, fresh, "seeds={seeds:?}");
        }
    }

    #[test]
    fn min_providers_accounting_matches_reference() {
        // The hand-built ecosystem from the engine's pre-round
        // accounting regression: partial-coverage pooling (2 providers),
        // same-round peers not counted, link candidates beyond the
        // class representatives.
        use actfort_ecosystem::factor::CredentialFactor as F;
        use actfort_ecosystem::info::{ExposedField, PersonalInfoKind};
        use actfort_ecosystem::policy::Purpose;
        use actfort_ecosystem::spec::ServiceDomain;

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
            b("registry").path(Purpose::PasswordReset, Platform::Web, &[F::CitizenId]).build(),
            b("registry-mirror")
                .path(Purpose::PasswordReset, Platform::Web, &[F::CitizenId])
                .expose_web(ExposedField::clear(PersonalInfoKind::CitizenId))
                .build(),
            b("vault")
                .path(Purpose::PasswordReset, Platform::Web, &[F::LinkedAccount("registry".into())])
                .build(),
            b("fortress").path(Purpose::SignIn, Platform::Web, &[F::Password]).build(),
        ];
        let ap = AttackerProfile::paper_default();
        assert_equivalent(&specs, Platform::Web, &ap, &[]);
        let p = Prepared::new(&specs, Platform::Web, ap);
        let r = p.forward(&mut p.scratch(), EdgeClass::All, &[], true);
        let rec = |id: &str| *r.records.get(&id.into()).unwrap_or_else(|| panic!("{id} falls"));
        assert_eq!(rec("registry"), CompromiseRecord { round: 2, min_providers: 2 });
        assert_eq!(rec("vault"), CompromiseRecord { round: 3, min_providers: 1 });
        assert_eq!(r.uncompromised, vec![ServiceId::new("fortress")]);
    }

    #[test]
    fn minprov_memo_fires_on_synthetic_population() {
        // The only lib test toggling the global recorder; integration
        // test binaries that do so run in their own processes.
        let specs = actfort_ecosystem::synth::paper_population(7);
        let prepared = Prepared::new(&specs, Platform::Web, AttackerProfile::paper_default());
        let hits = obs::counter("engine.minprov_memo_hits");
        let misses = obs::counter("engine.minprov_memo_misses");
        let (h0, m0) = (hits.get(), misses.get());
        obs::set_enabled(true);
        prepared.forward(&mut prepared.scratch(), EdgeClass::All, &[], true);
        obs::set_enabled(false);
        assert!(hits.get() > h0, "archetype cohorts should share memo entries");
        assert!(misses.get() > m0, "first member of each cohort misses");
    }

    #[test]
    fn substrate_is_platform_filtered() {
        let specs = curated_services();
        let web = Prepared::new(&specs, Platform::Web, AttackerProfile::paper_default());
        assert!(web.specs().iter().all(|s| s.has_web));
        assert!(web.node_count() < specs.len(), "mobile-only services are excluded");
    }
}
