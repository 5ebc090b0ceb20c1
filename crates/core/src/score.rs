//! Per-user overlay scoring on the prepared substrate: 64 users per
//! `u64` word.
//!
//! The paper scores *one* ecosystem; production means scoring each
//! user's concrete profile — which of the services they actually hold,
//! which credential factors they actually enabled (phone bound or not,
//! email recovery on or off) — against the shared dependency graph. The
//! base compilation ([`Prepared`]) is per `(population, platform,
//! attacker-profile)` and amortizes across every user; a user is only a
//! *delta*: a bitset of held services over the interned node ids plus a
//! small mask of enabled factor kinds ([`UserOverlay`]).
//!
//! # Seed-major → bit-major transpose
//!
//! The scalar fixed point ([`Prepared::forward_overlay`]) keeps state
//! *seed-major*: one run owns `compromised: Vec<u64>` indexed by node,
//! and a batch of users means a batch of runs. The lane engine
//! transposes that state to *bit-major*: bit `L` of every state word
//! belongs to user lane `L`, so
//!
//! - `comp[node]` — which of the 64 lanes own `node`,
//! - `raw[kind]` / `cov[slot][pos]` / `email` — which lanes know a
//!   tracked kind fully / a coverage position / control a mailbox,
//! - `act[fmask_id]` — which lanes enable every factor kind of a
//!   compiled path's original mask (one word per *distinct* mask,
//!   precomputed per batch),
//!
//! and one pass over the compiled paths evaluates all 64 users at once:
//! a path's satisfaction *word* is the AND of its required planes, and
//! the ≥3-identity-facts customer-service threshold is a carry-save
//! adder over the six tracked planes (`ge3 = fours | (twos & ones)`).
//! Rounds stay synchronous — every node is judged against the pre-round
//! planes, then all falls absorb — so each lane reproduces the scalar
//! BFS layer-for-layer: a lane's state only changes in rounds where
//! that lane has falls, hence per-lane fall rounds are a prefix
//! `1..=depth` and `depth` equals the scalar run's `rounds.len() - 1`.
//!
//! Ragged batches need no masking: an unused lane holds no services
//! (`held` planes are zero there), so nothing ever falls in it.
//!
//! All mutable state lives in [`OverlayScratch`]; after the first batch
//! warms its buffers, scoring allocates nothing. Equivalence with the
//! one-user-at-a-time scalar reference — including batches of 1, 63,
//! 64, 65 and 127 users — is property-tested in
//! `tests/score_equivalence.rs`. See DESIGN.md §14.

use crate::analysis::ForwardResult;
use crate::obs;
use crate::prepared::{bit, set_bit, ForwardScratch, Prepared, COV_BITS, COV_LENS};
use actfort_ecosystem::factor::{CredentialFactor, ServiceId};
use actfort_ecosystem::policy::EdgeClass;
use actfort_ecosystem::spec::ServiceSpec;
use std::collections::HashMap;

/// Bit-per-factor-kind constants for [`UserOverlay::factors`] /
/// [`UserProfile::factors`]: the set of credential factor kinds a user
/// has *enabled* across their accounts. A compiled path is active for a
/// user only when every factor kind it originally named is enabled —
/// disabling `SMS_CODE` removes every SMS-step path from that user's
/// attack surface even when the attacker profile would intercept the
/// code for free.
///
/// Only kinds that can appear on a *live* compiled path get a bit;
/// robust factors (TOTP, U2F, biometrics, …) kill paths at compile time
/// and cannot be re-enabled by an overlay.
pub struct OverlayFactor;

impl OverlayFactor {
    /// SMS one-time code.
    pub const SMS_CODE: u16 = 1 << 0;
    /// Email one-time code.
    pub const EMAIL_CODE: u16 = 1 << 1;
    /// Email magic link.
    pub const EMAIL_LINK: u16 = 1 << 2;
    /// Cellphone number as a knowledge factor.
    pub const CELLPHONE_NUMBER: u16 = 1 << 3;
    /// Real name as a knowledge factor.
    pub const REAL_NAME: u16 = 1 << 4;
    /// Citizen-id number.
    pub const CITIZEN_ID: u16 = 1 << 5;
    /// Bankcard number.
    pub const BANKCARD_NUMBER: u16 = 1 << 6;
    /// Security question.
    pub const SECURITY_QUESTION: u16 = 1 << 7;
    /// Customer-service identity-dossier recovery.
    pub const CUSTOMER_SERVICE: u16 = 1 << 8;
    /// Cross-service account linking (any target).
    pub const LINKED_ACCOUNT: u16 = 1 << 9;
    /// Every overlay-controllable factor kind enabled.
    pub const ALL: u16 = (1 << 10) - 1;

    /// Wire spellings, bit order — shared by the serve protocol and the
    /// bench drivers so names never drift.
    pub const NAMES: [(&'static str, u16); 10] = [
        ("sms_code", Self::SMS_CODE),
        ("email_code", Self::EMAIL_CODE),
        ("email_link", Self::EMAIL_LINK),
        ("cellphone_number", Self::CELLPHONE_NUMBER),
        ("real_name", Self::REAL_NAME),
        ("citizen_id", Self::CITIZEN_ID),
        ("bankcard_number", Self::BANKCARD_NUMBER),
        ("security_question", Self::SECURITY_QUESTION),
        ("customer_service", Self::CUSTOMER_SERVICE),
        ("linked_account", Self::LINKED_ACCOUNT),
    ];

    /// The overlay bit of a credential factor, or 0 for kinds an
    /// overlay cannot control (secrets and robust factors — their paths
    /// are never live).
    pub fn of(factor: &CredentialFactor) -> u16 {
        use CredentialFactor as F;
        match factor {
            F::SmsCode => Self::SMS_CODE,
            F::EmailCode => Self::EMAIL_CODE,
            F::EmailLink => Self::EMAIL_LINK,
            F::CellphoneNumber => Self::CELLPHONE_NUMBER,
            F::RealName => Self::REAL_NAME,
            F::CitizenId => Self::CITIZEN_ID,
            F::BankcardNumber => Self::BANKCARD_NUMBER,
            F::SecurityQuestion => Self::SECURITY_QUESTION,
            F::CustomerService => Self::CUSTOMER_SERVICE,
            F::LinkedAccount(_) => Self::LINKED_ACCOUNT,
            _ => 0,
        }
    }

    /// Parses a wire spelling into its bit.
    pub fn parse(name: &str) -> Option<u16> {
        Self::NAMES.iter().find(|(n, _)| *n == name).map(|&(_, bit)| bit)
    }
}

/// One user's delta against a [`Prepared`] base: which interned nodes
/// they hold and which factor kinds they enabled. Build with
/// [`Prepared::overlay`] / [`Prepared::overlay_all`] (the bitset is laid
/// out for that substrate's node ids and is not portable across
/// substrates).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserOverlay {
    /// Held services, a bitset over node ids (seed-major layout).
    pub(crate) held: Vec<u64>,
    /// Enabled factor kinds ([`OverlayFactor`] bits, masked to
    /// [`OverlayFactor::ALL`]).
    pub(crate) factors: u16,
}

impl UserOverlay {
    /// A user holding nothing yet on a substrate of `node_count` nodes.
    fn empty(node_count: usize, factors: u16) -> Self {
        Self { held: vec![0u64; node_count.div_ceil(64)], factors: factors & OverlayFactor::ALL }
    }

    /// Whether the user holds the service with this node id.
    pub fn holds(&self, node: u32) -> bool {
        bit(&self.held, node)
    }

    /// Marks a node id as held (bench drivers build synthetic profiles
    /// directly over node ids, skipping name resolution).
    ///
    /// # Panics
    ///
    /// Panics when `node` is outside the substrate this overlay was
    /// built for.
    pub fn hold(&mut self, node: u32) {
        assert!((node as usize) < self.held.len() * 64, "node id out of range");
        set_bit(&mut self.held, node);
    }

    /// The enabled-factor mask.
    pub fn factors(&self) -> u16 {
        self.factors
    }
}

/// A name-based user profile, the wire-level input [`Prepared::overlay`]
/// resolves and `Analysis::score` validates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserProfile {
    /// Services the user holds an account on.
    pub services: Vec<ServiceId>,
    /// Enabled factor kinds ([`OverlayFactor`] bits).
    pub factors: u16,
}

impl UserProfile {
    /// A profile holding `services` with the given factor mask.
    pub fn new(services: Vec<ServiceId>, factors: u16) -> Self {
        Self { services, factors }
    }

    /// A profile holding `services` with every factor kind enabled.
    pub fn full(services: Vec<ServiceId>) -> Self {
        Self::new(services, OverlayFactor::ALL)
    }
}

/// One user's score: how much of their ecosystem falls to the compiled
/// attacker profile, and how deep the cascade runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UserScore {
    /// Services compromised by the fixed point (the user's blast
    /// radius under the substrate's attacker profile, no seeds).
    pub blast_radius: u32,
    /// Length of the deepest dependency chain: the last round in which
    /// anything fell (`0` when nothing does). Equals
    /// `rounds.len() - 1` of the scalar overlay run.
    pub weakest_chain: u32,
}

impl UserScore {
    /// The score an empty-seed [`ForwardResult`] encodes.
    pub fn of(result: &ForwardResult) -> Self {
        Self {
            blast_radius: result.records.len() as u32,
            weakest_chain: (result.rounds.len() - 1) as u32,
        }
    }
}

/// Reusable bit-major state for [`Prepared::score_users`]: per-node
/// lane words plus the transposed knowledge planes. One scratch serves
/// any number of batches (and any substrate); after the first batch no
/// allocation happens.
pub struct OverlayScratch {
    /// Per-node: lanes holding the node.
    held: Vec<u64>,
    /// Per-node: lanes owning the node.
    comp: Vec<u64>,
    /// Per-node: lanes in which the node falls this round.
    fall: Vec<u64>,
    /// Per-`fmask_id`: lanes enabling every factor kind of the mask.
    act: Vec<u64>,
    /// Per tracked kind: lanes knowing it fully from raw exposure.
    raw: [u64; 6],
    /// Per coverage slot and position: lanes covering the position
    /// (rows padded to the longest canonical length; positions past
    /// [`COV_LENS`]`[slot]` stay zero and are never read).
    cov: [[u64; 18]; 3],
    /// Lanes controlling a mailbox.
    email: u64,
    /// Per tracked kind: `raw` plus coverage-completed lanes.
    eff: [u64; 6],
    /// Per lane: last round with a fall.
    depth: [u32; 64],
}

impl OverlayScratch {
    /// An empty scratch; [`Prepared::score_users`] sizes it on use.
    pub fn new() -> Self {
        Self {
            held: Vec::new(),
            comp: Vec::new(),
            fall: Vec::new(),
            act: Vec::new(),
            raw: [0; 6],
            cov: [[0; 18]; 3],
            email: 0,
            eff: [0; 6],
            depth: [0; 64],
        }
    }
}

impl Default for OverlayScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl Prepared {
    /// Resolves a name-based profile into this substrate's overlay.
    /// Names absent from the platform-eligible population contribute
    /// nothing (same semantics as forward seeds naming a service the
    /// platform filtered out); population membership is validated at
    /// the `Analysis::score` facade.
    pub fn overlay(&self, services: &[ServiceId], factors: u16) -> UserOverlay {
        let mut overlay = UserOverlay::empty(self.node_count(), factors);
        for id in services {
            if let Some(&i) = self.ids.get(id) {
                set_bit(&mut overlay.held, i);
            }
        }
        overlay
    }

    /// Resolves a batch of profiles in one pass: one hashed lookup per
    /// name, in an index built here from `population` (the specs this
    /// substrate was compiled from, or its own). Names the platform
    /// filtered out contribute nothing, as in [`Prepared::overlay`].
    /// Fails with the first name, in profile order then service order,
    /// that `population` does not hold.
    pub(crate) fn overlays<'p>(
        &self,
        population: &[ServiceSpec],
        profiles: &'p [UserProfile],
    ) -> Result<Vec<UserOverlay>, &'p ServiceId> {
        let index: HashMap<&str, Option<u32>> =
            population.iter().map(|s| (s.id.as_str(), self.ids.get(&s.id).copied())).collect();
        let mut overlays = Vec::with_capacity(profiles.len());
        for profile in profiles {
            let mut overlay = UserOverlay::empty(self.node_count(), profile.factors);
            for id in &profile.services {
                match index.get(id.as_str()) {
                    Some(&Some(node)) => set_bit(&mut overlay.held, node),
                    Some(None) => {}
                    None => return Err(id),
                }
            }
            overlays.push(overlay);
        }
        Ok(overlays)
    }

    /// An overlay holding *every* service of the population — with
    /// [`OverlayFactor::ALL`] this reproduces the plain single-ecosystem
    /// [`Prepared::forward`] exactly.
    pub fn overlay_all(&self, factors: u16) -> UserOverlay {
        let mut overlay = UserOverlay::empty(self.node_count(), factors);
        for i in 0..self.node_count() as u32 {
            set_bit(&mut overlay.held, i);
        }
        overlay
    }

    /// A scratch pre-sized for this substrate.
    pub fn overlay_scratch(&self) -> OverlayScratch {
        let mut s = OverlayScratch::new();
        s.held.resize(self.node_count(), 0);
        s.comp.resize(self.node_count(), 0);
        s.fall.resize(self.node_count(), 0);
        s.act.resize(self.fmasks.len(), 0);
        s
    }

    /// Scores one user through the scalar overlay fixed point
    /// restricted to `class` — the reference the lane sweep is tested
    /// against.
    pub fn score_one(
        &self,
        overlay: &UserOverlay,
        scratch: &mut ForwardScratch,
        class: EdgeClass,
    ) -> UserScore {
        UserScore::of(&self.forward_overlay(scratch, overlay, class))
    }

    /// Scores a batch of users, 64 lanes per sweep, results in input
    /// order. Paths outside `class` never activate in any lane.
    /// Byte-identical to [`Prepared::score_one`] per user
    /// (property-tested, ragged batches included).
    pub fn score_users(
        &self,
        overlays: &[UserOverlay],
        scratch: &mut OverlayScratch,
        class: EdgeClass,
    ) -> Vec<UserScore> {
        let mut out = Vec::with_capacity(overlays.len());
        for chunk in overlays.chunks(64) {
            let _span = obs::span("score.lanes");
            obs::add("score.batches", 1);
            obs::add("score.users", chunk.len() as u64);
            self.score_chunk(chunk, scratch, &mut out, class);
        }
        out
    }

    fn score_chunk(
        &self,
        chunk: &[UserOverlay],
        s: &mut OverlayScratch,
        out: &mut Vec<UserScore>,
        class: EdgeClass,
    ) {
        let n = self.node_count();
        let node_words = n.div_ceil(64);
        s.held.clear();
        s.held.resize(n, 0);
        s.comp.clear();
        s.comp.resize(n, 0);
        s.fall.clear();
        s.fall.resize(n, 0);
        s.act.clear();
        s.act.resize(self.fmasks.len(), 0);
        s.raw = [0; 6];
        s.cov = [[0; 18]; 3];
        s.email = 0;
        s.eff = [0; 6];
        s.depth = [0; 64];

        // Transpose seed-major overlays into bit-major planes, and
        // precompute one activation word per distinct path mask.
        for (lane, ov) in chunk.iter().enumerate() {
            debug_assert_eq!(ov.held.len(), node_words, "overlay built for another substrate");
            let lane_bit = 1u64 << lane;
            for (w, &word) in ov.held.iter().enumerate() {
                let mut m = word;
                while m != 0 {
                    let node = (w << 6) + m.trailing_zeros() as usize;
                    m &= m - 1;
                    s.held[node] |= lane_bit;
                }
            }
            for (id, &mask) in self.fmasks.iter().enumerate() {
                if ov.factors & mask == mask {
                    s.act[id] |= lane_bit;
                }
            }
        }

        // Profile-known identity kinds count toward the ≥3-facts
        // customer-service threshold in every lane.
        let mut forced = [0u64; 6];
        for (k, f) in forced.iter_mut().enumerate() {
            if self.ap_kinds & (1 << k) != 0 {
                *f = !0;
            }
        }

        let mut round = 0u32;
        loop {
            round += 1;
            // Pre-round knowledge planes: effective kinds are raw
            // exposure plus coverage-completed positions (the AND over
            // a slot's position planes).
            s.eff = s.raw;
            for slot in 0..3 {
                let mut complete = !0u64;
                for pos in 0..COV_LENS[slot] as usize {
                    complete &= s.cov[slot][pos];
                }
                s.eff[COV_BITS[slot].trailing_zeros() as usize] |= complete;
            }
            // ≥3 identity facts per lane, via a carry-save adder over
            // the six tracked planes.
            let (mut ones, mut twos, mut fours) = (0u64, 0u64, 0u64);
            for (&eff, &f) in s.eff.iter().zip(&forced) {
                let x = eff | f;
                let carry1 = ones & x;
                ones ^= x;
                let carry2 = twos & carry1;
                twos ^= carry1;
                fours |= carry2;
            }
            let ge3 = fours | (twos & ones);

            // Judge every standing held node against the pre-round
            // planes (synchronous BFS: falls are collected, not applied).
            let mut changed = 0u64;
            for (i, node) in self.nodes.iter().enumerate() {
                let standing = s.held[i] & !s.comp[i];
                if standing == 0 {
                    s.fall[i] = 0;
                    continue;
                }
                let mut sat = 0u64;
                for cp in &node.live {
                    if !class.admits_recovery(cp.recovery) {
                        continue;
                    }
                    let mut w = s.act[cp.fmask_id as usize] & standing & !sat;
                    if w == 0 {
                        continue;
                    }
                    let mut req = cp.req;
                    while w != 0 && req != 0 {
                        let k = req.trailing_zeros() as usize;
                        req &= req - 1;
                        w &= s.eff[k];
                    }
                    if cp.needs_email {
                        w &= s.email;
                    }
                    if cp.needs_cs {
                        w &= ge3;
                    }
                    for &l in &cp.links {
                        if w == 0 {
                            break;
                        }
                        w &= s.comp[l as usize];
                    }
                    sat |= w;
                    if sat == standing {
                        break;
                    }
                }
                s.fall[i] = sat;
                changed |= sat;
            }
            if changed == 0 {
                break;
            }

            // Absorb the round's falls into the planes.
            for i in 0..n {
                let w = s.fall[i];
                if w == 0 {
                    continue;
                }
                s.comp[i] |= w;
                let p = &self.providers[i];
                let mut r = p.raw;
                while r != 0 {
                    let k = r.trailing_zeros() as usize;
                    r &= r - 1;
                    s.raw[k] |= w;
                }
                for slot in 0..3 {
                    let mut c = p.cov[slot];
                    while c != 0 {
                        let pos = c.trailing_zeros() as usize;
                        c &= c - 1;
                        s.cov[slot][pos] |= w;
                    }
                }
                if p.email {
                    s.email |= w;
                }
            }
            let mut m = changed;
            while m != 0 {
                s.depth[m.trailing_zeros() as usize] = round;
                m &= m - 1;
            }
        }
        obs::add("score.rounds", (round - 1) as u64);

        // Blast radii: per-lane popcount across the per-node lane words.
        let mut radius = [0u32; 64];
        for i in 0..n {
            let mut m = s.comp[i];
            while m != 0 {
                radius[m.trailing_zeros() as usize] += 1;
                m &= m - 1;
            }
        }
        for (&blast_radius, &weakest_chain) in radius.iter().zip(&s.depth).take(chunk.len()) {
            out.push(UserScore { blast_radius, weakest_chain });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::AttackerProfile;
    use actfort_ecosystem::dataset::curated_services;
    use actfort_ecosystem::policy::Platform;

    fn substrate() -> Prepared {
        Prepared::new(&curated_services(), Platform::Web, AttackerProfile::paper_default())
    }

    #[test]
    fn overlay_factor_names_round_trip() {
        for (name, bit) in OverlayFactor::NAMES {
            assert_eq!(OverlayFactor::parse(name), Some(bit), "{name}");
        }
        assert_eq!(OverlayFactor::parse("warp"), None);
        let all: u16 = OverlayFactor::NAMES.iter().map(|&(_, b)| b).fold(0, |a, b| a | b);
        assert_eq!(all, OverlayFactor::ALL);
        assert_eq!(OverlayFactor::of(&CredentialFactor::SmsCode), OverlayFactor::SMS_CODE);
        assert_eq!(OverlayFactor::of(&CredentialFactor::U2fKey), 0, "robust kinds have no bit");
    }

    #[test]
    fn overlay_resolves_names_and_skips_unknown() {
        let p = substrate();
        let ov = p.overlay(&["gmail".into(), "no-such-service".into()], OverlayFactor::ALL);
        let gmail = p.specs().iter().position(|s| s.id.as_str() == "gmail").expect("gmail") as u32;
        assert!(ov.holds(gmail));
        assert_eq!(ov.held.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        let all = p.overlay_all(OverlayFactor::ALL);
        assert_eq!(
            all.held.iter().map(|w| w.count_ones()).sum::<u32>() as usize,
            p.node_count()
        );
    }

    #[test]
    fn empty_overlay_scores_zero_and_full_overlay_matches_forward() {
        let p = substrate();
        let mut scratch = p.overlay_scratch();
        let empty = p.overlay(&[], OverlayFactor::ALL);
        let full = p.overlay_all(OverlayFactor::ALL);
        let scores = p.score_users(&[empty, full.clone()], &mut scratch, EdgeClass::All);
        assert_eq!(scores[0], UserScore { blast_radius: 0, weakest_chain: 0 });
        let reference = UserScore::of(&p.forward(&mut p.scratch(), EdgeClass::All, &[], true));
        assert_eq!(scores[1], reference);
        // The scalar overlay path agrees with both.
        let mut fs = p.scratch();
        assert_eq!(p.score_one(&full, &mut fs, EdgeClass::All), reference);
    }

    #[test]
    fn disabling_factors_shrinks_the_blast_radius() {
        let p = substrate();
        let mut scratch = p.overlay_scratch();
        let full = p.overlay_all(OverlayFactor::ALL);
        let no_sms = p.overlay_all(OverlayFactor::ALL & !OverlayFactor::SMS_CODE);
        let none = p.overlay_all(0);
        let scores = p.score_users(&[full, no_sms, none], &mut scratch, EdgeClass::All);
        assert!(scores[1].blast_radius <= scores[0].blast_radius);
        assert_eq!(
            scores[2],
            UserScore { blast_radius: 0, weakest_chain: 0 },
            "no factor enabled means no live path anywhere"
        );
        let mut fs = p.scratch();
        for (i, factors) in
            [OverlayFactor::ALL, OverlayFactor::ALL & !OverlayFactor::SMS_CODE, 0]
                .into_iter()
                .enumerate()
        {
            let scalar = p.score_one(&p.overlay_all(factors), &mut fs, EdgeClass::All);
            assert_eq!(scores[i], scalar, "lane {i}");
        }
    }
}
