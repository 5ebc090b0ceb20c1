//! The city-scale interception campaign and its ecosystem assessment,
//! run in process: `gsm::campaign::run_sharded` on one shard over the
//! recorded 200-cell × 20k-subscriber × 120 s city, then
//! `core::campaign::assess` on the paper population.
//!
//! The city is the recorded one (`BENCH_gsm.json`, seed 2021) in every
//! workload, whatever the workload seed: how much work an assessment is
//! depends on the harvest (victim count, cascade seeds), so a per-seed
//! city would make `assess_ms` a property of the seed. The workload seed
//! still draws every request body sent to the server.

use actfort_core::campaign::{assess, CampaignImpact};
use actfort_core::profile::AttackerProfile;
use actfort_ecosystem::dataset::curated_services;
use actfort_ecosystem::policy::Platform;
use actfort_ecosystem::spec::ServiceSpec;
use actfort_gsm::campaign::{run_sharded, CampaignConfig, CampaignReport};
use std::time::Instant;

/// The recorded city.
pub fn city() -> CampaignConfig {
    CampaignConfig {
        seed: 2021,
        subscribers: 20_000,
        duration_s: 120,
        sms_interval_ms: 500,
        ..CampaignConfig::default()
    }
}

/// The recorded city's totals: a change that moves them changed what
/// the campaign computes, not how fast. The blast radius is over the
/// curated population, as recorded.
const RECORDED_INTERCEPTIONS: usize = 193_730;
const RECORDED_VICTIMS: usize = 6_569;
const RECORDED_BLAST_RADIUS: u64 = 35_456;

/// One timed campaign plus its assessment.
pub struct Rep {
    pub run_ns: u64,
    pub assess_ns: u64,
    pub report: CampaignReport,
    pub impact: CampaignImpact,
}

/// Assesses a harvest against a service population.
pub fn assess_with(report: &CampaignReport, specs: &[ServiceSpec]) -> CampaignImpact {
    assess(
        report,
        specs,
        Platform::MobileApp,
        AttackerProfile::paper_default(),
    )
    .expect("victim profiles are drawn from the population itself")
}

pub fn rep(specs: &[ServiceSpec]) -> Rep {
    let started = Instant::now();
    let report = run_sharded(&city(), 1);
    let run_ns = elapsed_ns(started);
    let started = Instant::now();
    let impact = assess_with(&report, specs);
    let assess_ns = elapsed_ns(started);
    Rep {
        run_ns,
        assess_ns,
        report,
        impact,
    }
}

pub fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The campaign oracle: the two-shard report is byte-identical to the
/// one-shard `reference`, and `reference` still has the recorded totals.
/// Returns the failed checks.
pub fn check(reference: &CampaignReport) -> Vec<String> {
    let mut failures = Vec::new();
    if run_sharded(&city(), 2).to_json() != reference.to_json() {
        failures.push("campaign: the 2-shard report differs from the 1-shard one".to_owned());
    }
    let got = (
        reference.interceptions.len(),
        reference.compromised.len(),
        assess_with(reference, &curated_services()).total_blast_radius,
    );
    let want = (
        RECORDED_INTERCEPTIONS,
        RECORDED_VICTIMS,
        RECORDED_BLAST_RADIUS,
    );
    if got != want {
        failures.push(format!(
            "campaign: (interceptions, victims, blast radius) = {got:?}, recorded {want:?}"
        ));
    }
    failures
}
