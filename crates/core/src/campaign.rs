//! Campaign → analysis bridge: what a city-scale interception harvest
//! means for the account ecosystem.
//!
//! [`actfort_gsm::campaign`] produces radio-level facts: which
//! subscribers had SMS sniffed or diverted, when and where. This module
//! converts that harvest into the paper's account-ecosystem questions:
//!
//! - **Per-victim blast radius** — each compromised subscriber holds a
//!   deterministic set of the population's services, set directly as
//!   node bits of a [`UserOverlay`](crate::score::UserOverlay) and
//!   scored 64 victims per sweep by [`Prepared::score_users`].
//! - **Ecosystem cascade** — the distinct services held by fully
//!   diverted victims (MitM captures, where the attacker owns the SMS
//!   channel outright) seed one [`Prepared::forward`] fixed point on
//!   the same population, measuring how far the harvest propagates
//!   beyond the victims themselves.
//!
//! Both run on **one** [`Prepared`] substrate compiled per call. Victim
//! holdings are a pure function of `(campaign seed, subscriber id)`, so
//! the whole assessment is as deterministic as the campaign report
//! feeding it.

use crate::error::Error;
use crate::prepared::{set_bit, Prepared};
use crate::profile::AttackerProfile;
use crate::score::{OverlayFactor, UserScore};
use actfort_ecosystem::factor::ServiceId;
use actfort_ecosystem::policy::{EdgeClass, Platform};
use actfort_ecosystem::spec::ServiceSpec;
use actfort_gsm::campaign::{CampaignReport, InterceptKind};
use actfort_obs as obs;

/// Cap on forward seeds: beyond this many distinct foothold services
/// the cascade is saturated anyway, and seed count stops being
/// informative.
const MAX_CASCADE_SEEDS: usize = 16;

/// Most accounts one victim holds (see [`victim_ranks`]).
const MAX_HELD: usize = 11;

/// The population's service ids in ascending order, and each spec's
/// rank in that order. Ids are unique within a population, so sorting
/// and deduplicating ranks sorts and deduplicates the ids themselves.
struct IdRanks {
    /// `sorted[r]` is the id of rank `r`, cloned once per call.
    sorted: Vec<ServiceId>,
    /// `rank[i]` is the rank of `specs[i]`.
    rank: Vec<u32>,
}

impl IdRanks {
    fn of(specs: &[ServiceSpec]) -> Self {
        let mut order: Vec<usize> = (0..specs.len()).collect();
        order.sort_unstable_by_key(|&i| &specs[i].id);
        let mut rank = vec![0u32; specs.len()];
        for (r, &i) in order.iter().enumerate() {
            rank[i] = r as u32;
        }
        Self { sorted: order.iter().map(|&i| specs[i].id.clone()).collect(), rank }
    }

    /// The ids of ascending ranks.
    fn ids(&self, ranks: &[u32]) -> Vec<ServiceId> {
        ranks.iter().map(|&r| self.sorted[r as usize].clone()).collect()
    }
}

/// Services a victim holds, as a deterministic function of the campaign
/// seed and the subscriber id — between 4 and [`MAX_HELD`] accounts
/// drawn from the population (the paper's user study median is 8).
/// Returned as id ranks, ascending and distinct, in `ranks[..len]`;
/// the rest of `ranks` is zero.
///
/// `seen` is a bitset over ranks, all clear on entry and on return: the
/// draws are sorted and deduplicated by setting their bits and reading
/// them back in order, which costs no mispredicted compare per draw.
fn victim_ranks(
    seed: u64,
    subscriber: u32,
    ids: &IdRanks,
    seen: &mut [u64],
) -> ([u32; MAX_HELD], usize) {
    let mut state = seed ^ (u64::from(subscriber) << 32) ^ 0x76c7_1211;
    let mut draw = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let count = 4 + (draw() % 8) as usize;
    for _ in 0..count {
        set_bit(seen, ids.rank[(draw() % ids.rank.len() as u64) as usize]);
    }
    let mut ranks = [0u32; MAX_HELD];
    let mut len = 0;
    for (w, word) in seen.iter_mut().enumerate() {
        let mut m = std::mem::take(word);
        while m != 0 {
            ranks[len] = ((w as u32) << 6) | m.trailing_zeros();
            m &= m - 1;
            len += 1;
        }
    }
    (ranks, len)
}

/// One victim's assessment: radio-level exposure joined with
/// account-level consequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VictimImpact {
    /// Campaign-global subscriber id.
    pub subscriber: u32,
    /// SMS captured passively (sniffer + crack).
    pub sniffed: u32,
    /// SMS diverted actively (fake base station).
    pub diverted: u32,
    /// The services this victim holds (the profile that was scored), as
    /// ascending ranks into the impact's id list in `held[..held_len]`;
    /// read them through [`CampaignImpact::services`].
    held: [u32; MAX_HELD],
    held_len: u8,
    /// The victim's score on the shared substrate.
    pub score: UserScore,
}

impl VictimImpact {
    fn ranks(&self) -> &[u32] {
        &self.held[..usize::from(self.held_len)]
    }
}

/// The ecosystem-level outcome of a campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignImpact {
    /// Per-victim assessments, ascending by subscriber id.
    pub victims: Vec<VictimImpact>,
    /// Sum of victim blast radii.
    pub total_blast_radius: u64,
    /// Largest single-victim blast radius.
    pub max_blast_radius: u32,
    /// Deepest dependency chain seen across victims.
    pub max_chain_depth: u32,
    /// Foothold services that seeded the cascade (sorted, deduplicated,
    /// capped at 16).
    pub cascade_seeds: Vec<ServiceId>,
    /// Services compromised by the seeded forward fixed point.
    pub cascade_compromised: u32,
    /// Rounds the cascade ran (`0` when no seeds).
    pub cascade_rounds: u32,
    /// The population's service ids in ascending order; each victim's
    /// holdings index it.
    ids: Vec<ServiceId>,
}

impl CampaignImpact {
    /// The services `victim` (one of [`CampaignImpact::victims`]) holds,
    /// ascending by id.
    pub fn services<'a>(
        &'a self,
        victim: &'a VictimImpact,
    ) -> impl ExactSizeIterator<Item = &'a ServiceId> + 'a {
        victim.ranks().iter().map(|&r| &self.ids[r as usize])
    }
}

/// Scores a campaign harvest against a service population.
///
/// The substrate is compiled once per call and shared by the victim
/// batch (however many victims) and the cascade. Victim holdings never
/// pass through names: each draw is a set of id ranks, and each rank
/// maps to its node (or to none, when the platform filters the service
/// out) once per call.
///
/// # Errors
///
/// None today: every victim holds services drawn from `specs` itself.
/// The `Result` keeps the signature of the facade queries.
pub fn assess(
    report: &CampaignReport,
    specs: &[ServiceSpec],
    platform: Platform,
    ap: AttackerProfile,
) -> Result<CampaignImpact, Error> {
    let _span = obs::span("campaign.assess");
    assert!(!specs.is_empty(), "campaign assessment needs a population");

    // Radio-level exposure per victim, in subscriber order (the
    // report's `compromised` list is already ascending and distinct),
    // tallied through a dense subscriber → slot table.
    let mut exposure: Vec<(u32, u32, u32)> =
        report.compromised.iter().map(|&s| (s, 0u32, 0u32)).collect();
    let mut slot_of = vec![u32::MAX; report.compromised.last().map_or(0, |&s| s as usize + 1)];
    for (slot, &s) in report.compromised.iter().enumerate() {
        slot_of[s as usize] = slot as u32;
    }
    for i in &report.interceptions {
        let slot = slot_of
            .get(i.subscriber as usize)
            .copied()
            .filter(|&slot| slot != u32::MAX)
            .expect("interception subscriber missing from compromised list")
            as usize;
        match i.kind {
            InterceptKind::Sniffed { .. } => exposure[slot].1 += 1,
            InterceptKind::Mitm { .. } => exposure[slot].2 += 1,
        }
    }

    let prepared = Prepared::new(specs, platform, ap);
    let ids = IdRanks::of(specs);
    // Each id rank's node, or `None` where the platform filters the
    // service out (it then contributes nothing, as in `Prepared::overlay`).
    let node_of: Vec<Option<u32>> =
        ids.sorted.iter().map(|id| prepared.ids.get(id).copied()).collect();

    // Fully diverted victims hand the attacker their whole SMS channel:
    // their services are footholds the cascade starts from (marked by
    // id rank, so the seeds come out sorted and distinct).
    let mut foothold = vec![false; specs.len()];
    let mut seen = vec![0u64; specs.len().div_ceil(64)];
    let mut victims = Vec::with_capacity(exposure.len());
    let mut overlays = Vec::with_capacity(exposure.len());
    for &(subscriber, sniffed, diverted) in &exposure {
        let (held, len) = victim_ranks(report.seed, subscriber, &ids, &mut seen);
        let mut overlay = prepared.overlay(&[], OverlayFactor::ALL);
        for &r in &held[..len] {
            if let Some(node) = node_of[r as usize] {
                overlay.hold(node);
            }
            if diverted > 0 {
                foothold[r as usize] = true;
            }
        }
        overlays.push(overlay);
        victims.push(VictimImpact {
            subscriber,
            sniffed,
            diverted,
            held,
            held_len: len as u8,
            score: UserScore::default(),
        });
    }
    obs::add("campaign.victims_scored", victims.len() as u64);

    let scores = {
        let _span = obs::span("campaign.score");
        prepared.score_users(&overlays, &mut prepared.overlay_scratch(), EdgeClass::All)
    };
    for (victim, score) in victims.iter_mut().zip(scores) {
        victim.score = score;
    }

    let seed_ranks: Vec<u32> =
        (0..specs.len() as u32).filter(|&r| foothold[r as usize]).take(MAX_CASCADE_SEEDS).collect();
    let cascade_seeds = ids.ids(&seed_ranks);

    let (cascade_compromised, cascade_rounds) = if cascade_seeds.is_empty() {
        (0, 0)
    } else {
        let _span = obs::span("campaign.cascade");
        let result =
            prepared.forward(&mut prepared.scratch(), EdgeClass::All, &cascade_seeds, true);
        (result.compromised_count() as u32, (result.rounds.len() - 1) as u32)
    };
    obs::add("campaign.cascade_compromised", u64::from(cascade_compromised));

    Ok(CampaignImpact {
        total_blast_radius: victims.iter().map(|v| u64::from(v.score.blast_radius)).sum(),
        max_blast_radius: victims.iter().map(|v| v.score.blast_radius).max().unwrap_or(0),
        max_chain_depth: victims.iter().map(|v| v.score.weakest_chain).max().unwrap_or(0),
        victims,
        cascade_seeds,
        cascade_compromised,
        cascade_rounds,
        ids: ids.sorted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::UserProfile;
    use actfort_ecosystem::dataset::curated_services;
    use actfort_ecosystem::synth::paper_population;
    use actfort_gsm::campaign::{run, CampaignConfig};

    fn small_campaign() -> CampaignReport {
        run(&CampaignConfig {
            subscribers: 150,
            duration_s: 15,
            grid_cols: 5,
            grid_rows: 4,
            sniffers: 3,
            mitm_stations: 2,
            ..CampaignConfig::default()
        })
    }

    /// The victim draw as first written: clone the drawn ids, then
    /// string-sort and deduplicate them.
    fn victim_profile_reference(seed: u64, subscriber: u32, specs: &[ServiceSpec]) -> UserProfile {
        let mut state = seed ^ (u64::from(subscriber) << 32) ^ 0x76c7_1211;
        let mut draw = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let count = 4 + (draw() % 8) as usize;
        let mut services: Vec<ServiceId> = (0..count)
            .map(|_| specs[(draw() % specs.len() as u64) as usize].id.clone())
            .collect();
        services.sort();
        services.dedup();
        UserProfile::new(services, OverlayFactor::ALL)
    }

    /// A victim as the reference assessment reports it: exposure,
    /// held names, score.
    type ReferenceVictim = (u32, u32, u32, Vec<ServiceId>, UserScore);

    /// The reference assessment's output: victims, then
    /// `(total, max blast radius, max chain depth)`, then the cascade
    /// `(seeds, compromised, rounds)`.
    type Reference = (Vec<ReferenceVictim>, (u64, u32, u32), (Vec<ServiceId>, u32, u32));

    /// The assessment as first written: binary-searched exposure,
    /// string-sorted name profiles, each resolved by
    /// [`Prepared::overlay`] and scored one at a time by the scalar
    /// fixed point.
    fn assess_reference(
        report: &CampaignReport,
        specs: &[ServiceSpec],
        platform: Platform,
        ap: AttackerProfile,
    ) -> Reference {
        let mut exposure: Vec<(u32, u32, u32)> =
            report.compromised.iter().map(|&s| (s, 0u32, 0u32)).collect();
        for i in &report.interceptions {
            let slot = exposure.binary_search_by_key(&i.subscriber, |e| e.0).unwrap();
            match i.kind {
                InterceptKind::Sniffed { .. } => exposure[slot].1 += 1,
                InterceptKind::Mitm { .. } => exposure[slot].2 += 1,
            }
        }
        let profiles: Vec<UserProfile> = exposure
            .iter()
            .map(|&(sub, _, _)| victim_profile_reference(report.seed, sub, specs))
            .collect();
        let prepared = Prepared::new(specs, platform, ap);
        let mut scratch = prepared.scratch();
        let scores: Vec<UserScore> = profiles
            .iter()
            .map(|p| {
                let overlay = prepared.overlay(&p.services, p.factors);
                prepared.score_one(&overlay, &mut scratch, EdgeClass::All)
            })
            .collect();
        let mut cascade_seeds: Vec<ServiceId> = exposure
            .iter()
            .zip(&profiles)
            .filter(|((_, _, diverted), _)| *diverted > 0)
            .flat_map(|(_, p)| p.services.iter().cloned())
            .collect();
        cascade_seeds.sort();
        cascade_seeds.dedup();
        cascade_seeds.truncate(MAX_CASCADE_SEEDS);
        let (cascade_compromised, cascade_rounds) = if cascade_seeds.is_empty() {
            (0, 0)
        } else {
            let result = prepared.forward(&mut scratch, EdgeClass::All, &cascade_seeds, true);
            (result.compromised_count() as u32, (result.rounds.len() - 1) as u32)
        };
        let victims: Vec<ReferenceVictim> = exposure
            .iter()
            .zip(profiles)
            .zip(scores)
            .map(|((&(subscriber, sniffed, diverted), profile), score)| {
                (subscriber, sniffed, diverted, profile.services, score)
            })
            .collect();
        let totals = (
            victims.iter().map(|v| u64::from(v.4.blast_radius)).sum(),
            victims.iter().map(|v| v.4.blast_radius).max().unwrap_or(0),
            victims.iter().map(|v| v.4.weakest_chain).max().unwrap_or(0),
        );
        (victims, totals, (cascade_seeds, cascade_compromised, cascade_rounds))
    }

    /// An impact in the reference's shape, each victim's services read
    /// through [`CampaignImpact::services`].
    fn as_reference(impact: &CampaignImpact) -> Reference {
        let victims = impact
            .victims
            .iter()
            .map(|v| {
                let services = impact.services(v).cloned().collect();
                (v.subscriber, v.sniffed, v.diverted, services, v.score)
            })
            .collect();
        (
            victims,
            (impact.total_blast_radius, impact.max_blast_radius, impact.max_chain_depth),
            (impact.cascade_seeds.clone(), impact.cascade_compromised, impact.cascade_rounds),
        )
    }

    #[test]
    fn victim_ranks_draw_the_reference_services() {
        let seed = CampaignConfig::default().seed;
        for specs in [curated_services(), paper_population(2021)] {
            let ids = IdRanks::of(&specs);
            let mut seen = vec![0u64; specs.len().div_ceil(64)];
            for subscriber in 0..20_000 {
                let (ranks, len) = victim_ranks(seed, subscriber, &ids, &mut seen);
                assert_eq!(
                    ids.ids(&ranks[..len]),
                    victim_profile_reference(seed, subscriber, &specs).services,
                    "subscriber {subscriber} over {} services",
                    specs.len()
                );
            }
        }
    }

    #[test]
    fn assessment_matches_the_reference_on_both_platforms() {
        let report = small_campaign();
        let ap = AttackerProfile::paper_default();
        for specs in [curated_services(), paper_population(2021)] {
            for platform in [Platform::Web, Platform::MobileApp] {
                let impact = assess(&report, &specs, platform, ap).unwrap();
                assert_eq!(
                    as_reference(&impact),
                    assess_reference(&report, &specs, platform, ap),
                    "{platform:?} over {} services",
                    specs.len()
                );
            }
        }
    }

    #[test]
    fn assessment_covers_every_compromised_subscriber() {
        let report = small_campaign();
        let specs = curated_services();
        let impact =
            assess(&report, &specs, Platform::MobileApp, AttackerProfile::paper_default())
                .unwrap();
        assert_eq!(impact.victims.len(), report.compromised.len());
        let subs: Vec<u32> = impact.victims.iter().map(|v| v.subscriber).collect();
        assert_eq!(subs, report.compromised, "victims in subscriber order");
        for v in &impact.victims {
            assert!(v.sniffed + v.diverted > 0, "victim with no interceptions");
            assert_ne!(impact.services(v).len(), 0, "victim holds nothing");
        }
        assert!(impact.total_blast_radius > 0, "someone must lose something");
    }

    #[test]
    fn assessment_is_deterministic() {
        let report = small_campaign();
        let specs = curated_services();
        let a = assess(&report, &specs, Platform::MobileApp, AttackerProfile::paper_default())
            .unwrap();
        let b = assess(&report, &specs, Platform::MobileApp, AttackerProfile::paper_default())
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn diverted_victims_drive_the_cascade() {
        let report = small_campaign();
        let specs = curated_services();
        let impact =
            assess(&report, &specs, Platform::MobileApp, AttackerProfile::paper_default())
                .unwrap();
        let any_diverted = impact.victims.iter().any(|v| v.diverted > 0);
        assert_eq!(
            any_diverted,
            !impact.cascade_seeds.is_empty(),
            "cascade seeds iff some victim was diverted"
        );
        if impact.cascade_compromised > 0 {
            assert!(impact.cascade_rounds > 0);
        }
    }
}
