//! Data-breach blast radius — the strategy engine's first scenario at
//! ecosystem scale.
//!
//! §III-E: "This may occur … when the data breach happens in the
//! Internet initially." For every service, seed the forward analysis
//! with just that service breached (and *no* interception capability)
//! and measure the cascade: how many further accounts fall from the
//! leaked information alone. This ranks services by how dangerous their
//! breach is to the rest of the ecosystem.

use crate::profile::AttackerProfile;
use crate::query::Analysis;
use actfort_ecosystem::factor::ServiceId;
use actfort_ecosystem::policy::Platform;
use actfort_ecosystem::spec::ServiceSpec;
use serde::{Deserialize, Serialize};

/// Cascade resulting from one service's breach.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlastRadius {
    /// The breached service.
    pub seed: ServiceId,
    /// Accounts that fall as a consequence (the seed excluded).
    pub victims: Vec<ServiceId>,
    /// Rounds the cascade ran for.
    pub rounds: usize,
}

impl BlastRadius {
    /// Number of downstream victims.
    pub fn cascade_size(&self) -> usize {
        self.victims.len()
    }
}

/// Computes the blast radius of every service on `platform`, sorted by
/// descending cascade size. `ap` is typically
/// [`AttackerProfile::none`] (pure data-breach scenario) or a full
/// profile (breach *plus* interception).
///
/// The per-seed analyses are independent and run on `threads` worker
/// threads, sharing one compiled substrate when the population is large
/// enough for the prepared engine to serve them.
pub fn blast_radii(
    specs: &[ServiceSpec],
    platform: Platform,
    ap: &AttackerProfile,
    threads: usize,
) -> Vec<BlastRadius> {
    let _span = crate::obs::span("breach.blast_radii");
    let seeds: Vec<ServiceId> = specs
        .iter()
        .filter(|s| match platform {
            Platform::Web => s.has_web,
            Platform::MobileApp => s.has_mobile,
        })
        .map(|s| s.id.clone())
        .collect();
    let seed_sets: Vec<Vec<ServiceId>> = seeds.iter().map(|s| vec![s.clone()]).collect();
    let results = Analysis::over(specs, platform, *ap)
        .forward(&[])
        .threads(threads)
        .run_each(&seed_sets)
        .expect("every seed is drawn from the population, so none is unknown");
    let mut out: Vec<BlastRadius> = seeds
        .into_iter()
        .zip(results)
        .map(|(seed, r)| BlastRadius {
            seed,
            victims: r.potential_victims(),
            rounds: r.rounds.len().saturating_sub(1),
        })
        .collect();
    out.sort_by(|a, b| b.cascade_size().cmp(&a.cascade_size()).then(a.seed.cmp(&b.seed)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use actfort_ecosystem::dataset::curated_services;

    #[test]
    fn email_breaches_have_the_largest_radius() {
        // Pure breach, no interception: email providers are the paper's
        // "gateway to most of the vulnerabilities".
        let radii = blast_radii(&curated_services(), Platform::Web, &AttackerProfile::none(), 4);
        let email_ids = ["gmail", "netease-163", "outlook", "aliyun-mail"];
        let top: Vec<&str> = radii.iter().take(4).map(|r| r.seed.as_str()).collect();
        for id in email_ids {
            assert!(top.contains(&id), "{id} should be a top blast radius, top was {top:?}");
        }
        assert!(radii[0].cascade_size() > 0);
    }

    #[test]
    fn robust_services_leak_little() {
        let radii = blast_radii(&curated_services(), Platform::Web, &AttackerProfile::none(), 4);
        let github = radii.iter().find(|r| r.seed.as_str() == "github").unwrap();
        let gmail = radii.iter().find(|r| r.seed.as_str() == "gmail").unwrap();
        assert!(github.cascade_size() < gmail.cascade_size());
    }

    #[test]
    fn parallel_and_serial_agree() {
        let specs = curated_services();
        let ap = AttackerProfile::none();
        let serial = blast_radii(&specs, Platform::Web, &ap, 1);
        let parallel = blast_radii(&specs, Platform::Web, &ap, 8);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn breach_plus_interception_dominates_pure_breach() {
        let specs = curated_services();
        let pure = blast_radii(&specs, Platform::Web, &AttackerProfile::none(), 4);
        let armed = blast_radii(&specs, Platform::Web, &AttackerProfile::paper_default(), 4);
        for (p, a) in pure.iter().zip(&armed) {
            // Same ordering key may differ; compare by seed lookup.
            let armed_same = armed.iter().find(|r| r.seed == p.seed).unwrap();
            assert!(
                armed_same.cascade_size() >= p.cascade_size(),
                "interception can only widen {}'s radius",
                p.seed
            );
            let _ = a;
        }
    }
}
