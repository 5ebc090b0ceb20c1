//! Campaign → analysis bridge: what a city-scale interception harvest
//! means for the account ecosystem.
//!
//! [`actfort_gsm::campaign`] produces radio-level facts: which
//! subscribers had SMS sniffed or diverted, when and where. This module
//! converts that harvest into the paper's account-ecosystem questions:
//!
//! - **Per-victim blast radius** — each compromised subscriber becomes
//!   a deterministic [`UserProfile`] over the service population and is
//!   scored through [`Analysis::score_users`], which compiles the
//!   shared [`crate::Prepared`] substrate **once** for the whole victim
//!   batch.
//! - **Ecosystem cascade** — the distinct services held by fully
//!   diverted victims (MitM captures, where the attacker owns the SMS
//!   channel outright) seed one [`Analysis::forward`] fixed point on
//!   the same population, measuring how far the harvest propagates
//!   beyond the victims themselves.
//!
//! Victim profiles are a pure function of `(campaign seed, subscriber
//! id)`, so the whole assessment is as deterministic as the campaign
//! report feeding it.

use crate::error::Error;
use crate::profile::AttackerProfile;
use crate::query::Analysis;
use crate::score::{OverlayFactor, UserProfile, UserScore};
use actfort_ecosystem::policy::Platform;
use actfort_ecosystem::factor::ServiceId;
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
struct IdRanks<'a> {
    /// `sorted[r]` is the id of rank `r`.
    sorted: Vec<&'a ServiceId>,
    /// `rank[i]` is the rank of `specs[i]`.
    rank: Vec<u32>,
}

impl<'a> IdRanks<'a> {
    fn of(specs: &'a [ServiceSpec]) -> Self {
        let mut order: Vec<usize> = (0..specs.len()).collect();
        order.sort_unstable_by_key(|&i| &specs[i].id);
        let mut rank = vec![0u32; specs.len()];
        for (r, &i) in order.iter().enumerate() {
            rank[i] = r as u32;
        }
        Self { sorted: order.iter().map(|&i| &specs[i].id).collect(), rank }
    }

    /// The ids of ascending ranks, cloned once each.
    fn ids(&self, ranks: &[u32]) -> Vec<ServiceId> {
        ranks.iter().map(|&r| self.sorted[r as usize].clone()).collect()
    }
}

/// Services a victim holds, as a deterministic function of the campaign
/// seed and the subscriber id — between 4 and [`MAX_HELD`] accounts
/// drawn from the population (the paper's user study median is 8).
/// Returned as id ranks, ascending and distinct, in `ranks[..len]`.
fn victim_ranks(seed: u64, subscriber: u32, ids: &IdRanks) -> ([u32; MAX_HELD], usize) {
    let mut state = seed ^ (u64::from(subscriber) << 32) ^ 0x76c7_1211;
    let mut draw = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let count = 4 + (draw() % 8) as usize;
    let mut ranks = [0u32; MAX_HELD];
    for r in &mut ranks[..count] {
        *r = ids.rank[(draw() % ids.rank.len() as u64) as usize];
    }
    ranks[..count].sort_unstable();
    let mut len = 0;
    for k in 0..count {
        if len == 0 || ranks[len - 1] != ranks[k] {
            ranks[len] = ranks[k];
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
    /// Services this victim holds (the profile that was scored).
    pub services: Vec<ServiceId>,
    /// The victim's score on the shared substrate.
    pub score: UserScore,
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
    /// capped at [`MAX_CASCADE_SEEDS`]).
    pub cascade_seeds: Vec<ServiceId>,
    /// Services compromised by the seeded forward fixed point.
    pub cascade_compromised: u32,
    /// Rounds the cascade ran (`0` when no seeds).
    pub cascade_rounds: u32,
}

/// Scores a campaign harvest against a service population.
///
/// The substrate is compiled twice in total — once for the victim
/// batch (however many victims), once for the cascade — matching the
/// one-`Prepared`-per-batch contract of the [`Analysis`] facade.
///
/// # Errors
///
/// Propagates [`Error::UnknownService`] from the facade; impossible
/// when profiles are generated from `specs` itself (they always are
/// here), but kept in the signature for wire parity.
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

    // Fully diverted victims hand the attacker their whole SMS channel:
    // their services are footholds the cascade starts from (marked by
    // id rank, so the seeds come out sorted and distinct).
    let ids = IdRanks::of(specs);
    let mut foothold = vec![false; specs.len()];
    let profiles: Vec<UserProfile> = exposure
        .iter()
        .map(|&(sub, _, diverted)| {
            let (ranks, len) = victim_ranks(report.seed, sub, &ids);
            if diverted > 0 {
                for &r in &ranks[..len] {
                    foothold[r as usize] = true;
                }
            }
            UserProfile::new(ids.ids(&ranks[..len]), OverlayFactor::ALL)
        })
        .collect();
    obs::add("campaign.victims_scored", profiles.len() as u64);

    let scores = Analysis::over(specs, platform, ap)
        .score_users(&profiles)
        .trace("campaign.score")
        .run()?;

    let seed_ranks: Vec<u32> =
        (0..specs.len() as u32).filter(|&r| foothold[r as usize]).take(MAX_CASCADE_SEEDS).collect();
    let cascade_seeds = ids.ids(&seed_ranks);

    let (cascade_compromised, cascade_rounds) = if cascade_seeds.is_empty() {
        (0, 0)
    } else {
        let result = Analysis::over(specs, platform, ap)
            .forward(&cascade_seeds)
            .trace("campaign.cascade")
            .run()?;
        (result.compromised_count() as u32, (result.rounds.len() - 1) as u32)
    };
    obs::add("campaign.cascade_compromised", u64::from(cascade_compromised));

    let victims: Vec<VictimImpact> = exposure
        .iter()
        .zip(profiles)
        .zip(scores)
        .map(|((&(subscriber, sniffed, diverted), profile), score)| VictimImpact {
            subscriber,
            sniffed,
            diverted,
            services: profile.services,
            score,
        })
        .collect();

    Ok(CampaignImpact {
        total_blast_radius: victims.iter().map(|v| u64::from(v.score.blast_radius)).sum(),
        max_blast_radius: victims.iter().map(|v| v.score.blast_radius).max().unwrap_or(0),
        max_chain_depth: victims.iter().map(|v| v.score.weakest_chain).max().unwrap_or(0),
        victims,
        cascade_seeds,
        cascade_compromised,
        cascade_rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use actfort_ecosystem::dataset::curated_services;
    use actfort_ecosystem::policy::EdgeClass;
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

    /// The assessment as first written: binary-searched exposure,
    /// string-sorted profiles, each resolved by [`Prepared::overlay`] and
    /// scored one at a time by the scalar fixed point.
    fn assess_reference(
        report: &CampaignReport,
        specs: &[ServiceSpec],
        platform: Platform,
        ap: AttackerProfile,
    ) -> CampaignImpact {
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
        let prepared = crate::Prepared::new(specs, platform, ap);
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
        let victims: Vec<VictimImpact> = exposure
            .iter()
            .zip(profiles)
            .zip(scores)
            .map(|((&(subscriber, sniffed, diverted), profile), score)| VictimImpact {
                subscriber,
                sniffed,
                diverted,
                services: profile.services,
                score,
            })
            .collect();
        CampaignImpact {
            total_blast_radius: victims.iter().map(|v| u64::from(v.score.blast_radius)).sum(),
            max_blast_radius: victims.iter().map(|v| v.score.blast_radius).max().unwrap_or(0),
            max_chain_depth: victims.iter().map(|v| v.score.weakest_chain).max().unwrap_or(0),
            victims,
            cascade_seeds,
            cascade_compromised,
            cascade_rounds,
        }
    }

    #[test]
    fn victim_ranks_draw_the_reference_services() {
        let seed = CampaignConfig::default().seed;
        for specs in [curated_services(), paper_population(2021)] {
            let ids = IdRanks::of(&specs);
            for subscriber in 0..20_000 {
                let (ranks, len) = victim_ranks(seed, subscriber, &ids);
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
        let specs = curated_services();
        let ap = AttackerProfile::paper_default();
        for platform in [Platform::Web, Platform::MobileApp] {
            let impact = assess(&report, &specs, platform, ap).unwrap();
            assert_eq!(impact, assess_reference(&report, &specs, platform, ap), "{platform:?}");
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
            assert!(!v.services.is_empty());
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
