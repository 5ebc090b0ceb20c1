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
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-unique substrate identity source (see [`Prepared::stamp`]).
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

/// Tracked-kind bit positions — the six identity facts the
/// customer-service fact count consults, in order: RealName, CitizenId,
/// CellphoneNumber, Address, BankcardNumber, SecurityAnswers.
const BIT_REAL_NAME: u8 = 1 << 0;
const BIT_CITIZEN_ID: u8 = 1 << 1;
const BIT_CELLPHONE: u8 = 1 << 2;
const BIT_ADDRESS: u8 = 1 << 3;
const BIT_BANKCARD: u8 = 1 << 4;
const BIT_SECURITY: u8 = 1 << 5;

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
    /// one activation word per *distinct* mask, not per path. Only base
    /// nodes carry one; patch-compiled paths keep `u32::MAX`, since
    /// patched runs test `fmask` directly and the lane engine reads
    /// base nodes only.
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
    fn fires(
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
    open: [bool; 3],
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

/// A compiled overlay patch against one specific [`Prepared`]: the
/// recompiled state of the nodes a countermeasure set *touches* (its
/// blast radius), with everything untouched read from the base at run
/// time. This is the countermeasure analogue of the per-user
/// [`UserOverlay`]: the base substrate stays
/// shared and immutable; the delta rides on top.
///
/// Built by [`crate::counter::Patcher`], which computes the blast
/// radius, and run with [`Prepared::forward_patched`]. Compilation
/// cost is proportional to the touched-node count, not the population:
/// the same node compiler as [`Prepared::new`] interns class and
/// pathset ids over the base's retained maps, so a patched provider
/// whose pool signature the base already interned collapses into the
/// same class as its untouched twins, and genuinely new signatures mint
/// fresh ids appended past the base tables.
pub struct SubstratePatch {
    /// [`Prepared::stamp`] of the base this patch was compiled against.
    base_stamp: u64,
    /// Touched node ids, ascending.
    touched: Vec<u32>,
    /// Dense node-id → patch-slot lookup; `u32::MAX` means untouched
    /// (read the base).
    slot_of: Vec<u32>,
    /// Recompiled per-touched-node state, slot order.
    providers: Vec<Provider>,
    nodes: Vec<Node>,
    specs: Vec<ServiceSpec>,
    /// Class / pathset id-space sizes including patch-minted ids
    /// (scratch sizing; base ids stay valid, patch ids append).
    classes: usize,
    pathsets: usize,
    /// Reverse-index subscriptions of the touched nodes' recompiled
    /// paths, read on top of the base's. The base keeps its (possibly
    /// stale) entries for those nodes; over-subscription only ever costs
    /// a redundant re-evaluation, never a missed one.
    subs: Subscriptions,
}

impl SubstratePatch {
    /// Node ids this patch recompiles (the blast radius), ascending.
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// [`Prepared::stamp`] of the base substrate this patch targets.
    pub fn base_stamp(&self) -> u64 {
        self.base_stamp
    }
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
    /// The interned informative pool-signature classes and pathsets
    /// (the `min_providers` memo keys), retained after compilation so a
    /// [`SubstratePatch`] interns its recompiled nodes over the *same*
    /// id space (see [`Interner`]).
    class_of: BTreeMap<PoolSignature, u32>,
    pathset_of: BTreeMap<Vec<(u8, bool, bool)>, u32>,
    /// Process-unique identity: patches record the stamp of the base
    /// they were compiled against, and [`Prepared::forward_patched`]
    /// refuses a patch stamped for a different substrate.
    stamp: u64,
    /// Reverse index over the base nodes' live paths.
    subs: Subscriptions,
}

impl std::fmt::Debug for Prepared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prepared")
            .field("platform", &self.platform)
            .field("nodes", &self.nodes.len())
            .field("classes", &self.class_of.len())
            .field("pathsets", &self.pathset_of.len())
            .finish_non_exhaustive()
    }
}

impl Prepared {
    /// Compiles `specs` (platform-filtered) against `ap`.
    pub fn new(specs: &[ServiceSpec], platform: Platform, ap: AttackerProfile) -> Self {
        let _span = obs::span("prepare");
        obs::add("engine.prepares", 1);
        let specs: Vec<ServiceSpec> = specs
            .iter()
            .filter(|s| match platform {
                Platform::Web => s.has_web,
                Platform::MobileApp => s.has_mobile,
            })
            .cloned()
            .collect();
        let ids: BTreeMap<ServiceId, u32> =
            specs.iter().enumerate().map(|(i, s)| (s.id.clone(), i as u32)).collect();
        debug_assert_eq!(ids.len(), specs.len(), "service ids must be unique within a population");

        // Providers, then nodes: a single pass interleaving the two
        // measured about 7% slower on paper:2021 (mobile).
        let mut c = NodeCompiler::new(platform, ap, &ids, None);
        let providers: Vec<Provider> = specs.iter().map(|s| c.provider(s)).collect();
        let mut nodes: Vec<Node> = (0..).zip(&specs).map(|(i, s)| c.node(i, s)).collect();
        c.subs.finish();
        let NodeCompiler { ap_kinds, classes, pathsets, subs, .. } = c;
        let (class_of, pathset_of) = (classes.minted, pathsets.minted);

        // Overlay-factor masks are interned for the lane engine, which
        // reads base nodes only (so patches never mint them).
        let mut fmask_of: BTreeMap<u16, u32> = BTreeMap::new();
        for cp in nodes.iter_mut().flat_map(|nd| &mut nd.live) {
            let next = fmask_of.len() as u32;
            cp.fmask_id = *fmask_of.entry(cp.fmask).or_insert(next);
        }
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
            class_of,
            pathset_of,
            stamp: NEXT_STAMP.fetch_add(1, Ordering::Relaxed),
            subs,
        }
    }

    /// Process-unique identity of this compilation (monotonic, never
    /// reused within a process). [`SubstratePatch`]es are pinned to it.
    pub fn stamp(&self) -> u64 {
        self.stamp
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
        self.reset_scratch(&mut s, None);
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
        self.forward_inner(scratch, seeds, memo_enabled, None, None, class)
    }

    fn reset_scratch(&self, s: &mut ForwardScratch, patch: Option<&SubstratePatch>) {
        let (classes, pathsets) = match patch {
            Some(p) => (p.classes, p.pathsets),
            None => (self.class_of.len(), self.pathset_of.len()),
        };
        let words = self.nodes.len().div_ceil(64);
        s.compromised.clear();
        s.compromised.resize(words, 0);
        s.frontier.clear();
        s.frontier.resize(words, 0);
        s.class_seen.clear();
        s.class_seen.resize(classes.div_ceil(64), 0);
        s.reps.clear();
        s.memo.clear();
        s.memo.resize(pathsets, (GEN_NONE, 0));
        s.newly.clear();
        s.candidates.clear();
    }

    /// Compiles a [`SubstratePatch`] from `rewrites`: `(node id,
    /// replacement spec)` pairs covering exactly the nodes a
    /// countermeasure set touches, in ascending id order. Each rewrite
    /// goes through the node compiler behind [`Prepared::new`], interning
    /// over the base's retained maps, so the patched run is
    /// byte-identical to a cold compile of the rewritten population while
    /// costing only the blast radius.
    ///
    /// Replacement specs must keep their service id and platform flags
    /// (countermeasures transform policies, never the population
    /// membership); node ids and the link topology therefore stay valid.
    pub(crate) fn compile_patch(&self, rewrites: &[(u32, ServiceSpec)]) -> SubstratePatch {
        let _span = obs::span("patch.compile");
        obs::add("engine.patches", 1);
        obs::add("engine.patch_nodes", rewrites.len() as u64);
        let mut slot_of = vec![u32::MAX; self.nodes.len()];
        for (slot, (i, s)) in rewrites.iter().enumerate() {
            debug_assert!(slot == 0 || rewrites[slot - 1].0 < *i, "rewrites must ascend");
            debug_assert_eq!(
                s.id, self.specs[*i as usize].id,
                "a rewrite must replace the node's own spec"
            );
            slot_of[*i as usize] = slot as u32;
        }
        let mut c = NodeCompiler::new(self.platform, self.ap, &self.ids, Some(self));
        let providers = rewrites.iter().map(|(_, s)| c.provider(s)).collect();
        let nodes = rewrites.iter().map(|(i, s)| c.node(*i, s)).collect();
        c.subs.finish();
        SubstratePatch {
            base_stamp: self.stamp,
            touched: rewrites.iter().map(|(i, _)| *i).collect(),
            slot_of,
            providers,
            nodes,
            specs: rewrites.iter().map(|(_, s)| s.clone()).collect(),
            classes: c.classes.len(),
            pathsets: c.pathsets.len(),
            subs: c.subs,
        }
    }

    /// The forward fixed point with `patch` overlaid on this substrate:
    /// touched nodes read their recompiled state, everything else reads
    /// the base. Byte-identical to compiling the patched population from
    /// scratch and running [`Self::forward`] — pinned by the whatif
    /// equivalence suite — at a cost proportional to the blast radius.
    /// `class` filters paths as in [`Self::forward`].
    ///
    /// # Panics
    ///
    /// If `patch` was compiled against a different substrate.
    pub fn forward_patched(
        &self,
        scratch: &mut ForwardScratch,
        patch: &SubstratePatch,
        class: EdgeClass,
        seeds: &[ServiceId],
        memo_enabled: bool,
    ) -> ForwardResult {
        assert_eq!(
            patch.base_stamp, self.stamp,
            "substrate patch applied to a substrate it was not compiled against"
        );
        self.forward_inner(scratch, seeds, memo_enabled, None, Some(patch), class)
    }

    /// The node to read for id `i` under an optional patch.
    #[inline]
    fn node_at<'s>(&'s self, patch: Option<&'s SubstratePatch>, i: u32) -> &'s Node {
        match patch_slot(patch, i) {
            Some((p, slot)) => &p.nodes[slot],
            None => &self.nodes[i as usize],
        }
    }

    /// The provider to read for id `i` under an optional patch.
    #[inline]
    fn provider_at<'s>(&'s self, patch: Option<&'s SubstratePatch>, i: u32) -> &'s Provider {
        match patch_slot(patch, i) {
            Some((p, slot)) => &p.providers[slot],
            None => &self.providers[i as usize],
        }
    }

    /// The spec to materialize for id `i` under an optional patch.
    #[inline]
    fn spec_at<'s>(&'s self, patch: Option<&'s SubstratePatch>, i: u32) -> &'s ServiceSpec {
        match patch_slot(patch, i) {
            Some((p, slot)) => &p.specs[slot],
            None => &self.specs[i as usize],
        }
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
        self.forward_inner(scratch, &[], false, Some(overlay), None, class)
    }

    fn forward_inner(
        &self,
        scratch: &mut ForwardScratch,
        seeds: &[ServiceId],
        memo_enabled: bool,
        overlay: Option<&UserOverlay>,
        patch: Option<&SubstratePatch>,
        class: EdgeClass,
    ) -> ForwardResult {
        let _span =
            if patch.is_some() { obs::span("forward.patched") } else { obs::span("forward.prepared") };
        // All-ones when no overlay: `fmask & factors == fmask` is then
        // vacuous and the plain forward path is bit-identical to before.
        let factors = overlay.map_or(u16::MAX, |ov| ov.factors);
        let memo_enabled = memo_enabled && overlay.is_none();
        let stats = Stats::fetch();
        obs::add("engine.runs", 1);
        self.reset_scratch(scratch, patch);
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
                let provider = self.provider_at(patch, i as u32);
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
                        let sat = self.node_at(patch, i).live.iter().any(|cp| {
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
                        patch,
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
                    let provider = self.provider_at(patch, i);
                    st.absorb(provider);
                    register(provider, i, &mut scratch.class_seen, &mut scratch.reps, &stats);
                }
            }
            compromised_count += scratch.newly.len();
            rounds.push(ids);

            // Next frontier: subscribers of every flag that flipped.
            // Under a patch both subscription sets are read: the base's
            // (stale entries for touched nodes are harmless — they only
            // re-evaluate) and the patch's, for paths the rewrite
            // introduced.
            scratch.frontier.fill(0);
            let (gained, mail_fell) = (st.eff & !before_eff, st.email && !before_email);
            for subs in std::iter::once(&self.subs).chain(patch.map(|p| &p.subs)) {
                subs.wake(gained, mail_fell, &scratch.newly, &mut scratch.frontier);
            }
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
        for i in 0..self.specs.len() {
            if bit(&scratch.compromised, i as u32) {
                final_pool.absorb_compromise(self.spec_at(patch, i as u32), self.platform);
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
        patch: Option<&SubstratePatch>,
        compromised: &[u64],
        reps: &[u32],
        memo: &mut [(u32, u8)],
        candidates: &mut Vec<u32>,
        stats: &Stats,
    ) -> usize {
        let nd = self.node_at(patch, node);
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
        let answer =
            self.min_providers_uncached(nd, factors, class, patch, compromised, reps, candidates);
        if let Some(ps) = slot {
            memo[ps as usize] = (gen, answer as u8);
        }
        answer
    }

    #[allow(clippy::too_many_arguments)]
    fn min_providers_uncached(
        &self,
        nd: &Node,
        factors: u16,
        class: EdgeClass,
        patch: Option<&SubstratePatch>,
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
            let p = self.provider_at(patch, j);
            let sat = nd.live.iter().any(|cp| {
                cp.fires(class, factors, ap_kinds, p.eff, p.email, |l| l == j)
            });
            if sat {
                return 1;
            }
        }
        for (ai, &a) in candidates.iter().enumerate() {
            let pa = self.provider_at(patch, a);
            for &b in &candidates[ai + 1..] {
                let pb = self.provider_at(patch, b);
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

/// The patch slot holding node `i`'s recompiled state, or `None` when
/// there is no patch or it leaves `i` untouched (read the base).
#[inline]
fn patch_slot(patch: Option<&SubstratePatch>, i: u32) -> Option<(&SubstratePatch, usize)> {
    let p = patch?;
    let slot = p.slot_of[i as usize];
    (slot != u32::MAX).then_some((p, slot as usize))
}

/// Layered interning: a key the base map already holds keeps its base
/// id, and a new key mints the next id past the base count. A cold
/// compile interns over no base.
struct Interner<'b, K> {
    base: Option<&'b BTreeMap<K, u32>>,
    minted: BTreeMap<K, u32>,
}

impl<'b, K: Ord> Interner<'b, K> {
    fn over(base: Option<&'b BTreeMap<K, u32>>) -> Self {
        Self { base, minted: BTreeMap::new() }
    }

    fn id(&mut self, key: K) -> u32 {
        if let Some(&id) = self.base.and_then(|b| b.get(&key)) {
            return id;
        }
        let next = self.len() as u32;
        *self.minted.entry(key).or_insert(next)
    }

    /// Size of the id space: base ids plus minted ones.
    fn len(&self) -> usize {
        self.base.map_or(0, BTreeMap::len) + self.minted.len()
    }
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

/// The one per-node compiler, behind both [`Prepared::new`] (interning
/// over no base) and [`Prepared::compile_patch`] (interning over the
/// base's retained maps): it flattens a node's singleton pool to a
/// [`Provider`], folds its attack paths against the static profile,
/// interns its class and per-class pathsets, and subscribes it to the
/// atoms its live paths still read.
struct NodeCompiler<'b> {
    platform: Platform,
    ap: AttackerProfile,
    ap_kinds: u8,
    ids: &'b BTreeMap<ServiceId, u32>,
    classes: Interner<'b, PoolSignature>,
    pathsets: Interner<'b, Vec<(u8, bool, bool)>>,
    subs: Subscriptions,
}

impl<'b> NodeCompiler<'b> {
    fn new(
        platform: Platform,
        ap: AttackerProfile,
        ids: &'b BTreeMap<ServiceId, u32>,
        base: Option<&'b Prepared>,
    ) -> Self {
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
            classes: Interner::over(base.map(|b| &b.class_of)),
            pathsets: Interner::over(base.map(|b| &b.pathset_of)),
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
            self.classes.id((full_mask, cov, email))
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
        let live: Vec<CPath> =
            paths.iter().filter_map(|p| compile_path(p, &self.ap, cs_static, self.ids)).collect();

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
                pathset[ci] = Some(self.pathsets.id(key));
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
        fmask_id: u32::MAX,
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
    fn identity_patch_reuses_every_base_id() {
        // Rewriting every node to its own spec must intern every class
        // and pathset key to its base id: a minted duplicate would leave
        // answers intact but split classes the base collapses.
        let populations = [curated_services(), actfort_ecosystem::synth::paper_population(2021)];
        for specs in &populations {
            for platform in [Platform::Web, Platform::MobileApp] {
                let base = Prepared::new(specs, platform, AttackerProfile::paper_default());
                let rewrites: Vec<(u32, ServiceSpec)> =
                    (0..).zip(base.specs().iter().cloned()).collect();
                let patch = base.compile_patch(&rewrites);
                assert_eq!(patch.classes, base.class_of.len(), "{platform}: class ids minted");
                assert_eq!(patch.pathsets, base.pathset_of.len(), "{platform}: pathset ids minted");
                for class in EdgeClass::all() {
                    let patched =
                        base.forward_patched(&mut base.scratch(), &patch, class, &[], true);
                    let plain = base.forward(&mut base.scratch(), class, &[], true);
                    assert_eq!(patched, plain, "{platform} {class:?}");
                }
            }
        }
    }

    #[test]
    fn substrate_is_platform_filtered() {
        let specs = curated_services();
        let web = Prepared::new(&specs, Platform::Web, AttackerProfile::paper_default());
        assert!(web.specs().iter().all(|s| s.has_web));
        assert!(web.node_count() < specs.len(), "mobile-only services are excluded");
    }
}
