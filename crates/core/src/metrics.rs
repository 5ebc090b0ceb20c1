//! Ecosystem measurement statistics — the numbers behind Fig. 3,
//! Table I and the in-text dependency-depth table.

use crate::analysis::ForwardResult;
use crate::batch::BatchAnalyzer;
use crate::obs;
use crate::profile::AttackerProfile;
use crate::query::Analysis;
use actfort_ecosystem::factor::CredentialFactor;
use actfort_ecosystem::info::PersonalInfoKind;
use actfort_ecosystem::policy::{PathClass, Platform, Purpose};
use actfort_ecosystem::spec::ServiceSpec;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

fn on_platform(specs: &[ServiceSpec], platform: Platform) -> Vec<&ServiceSpec> {
    specs
        .iter()
        .filter(|s| match platform {
            Platform::Web => s.has_web,
            Platform::MobileApp => s.has_mobile,
        })
        .collect()
}

fn pct(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

/// Fig. 3 top panel: % of services whose (`purpose`) can be passed with
/// phone + SMS code only, on `platform`.
pub fn sms_only_percentage(specs: &[ServiceSpec], platform: Platform, purpose: Purpose) -> f64 {
    let _span = obs::span("metrics.sms_only");
    let nodes = on_platform(specs, platform);
    let hits = nodes
        .iter()
        .filter(|s| s.paths_for(platform, purpose).iter().any(|p| p.is_sms_only()))
        .count();
    pct(hits, nodes.len())
}

/// Fig. 3 middle panel: % of services using each credential factor in at
/// least one path on `platform`.
pub fn factor_usage(specs: &[ServiceSpec], platform: Platform) -> BTreeMap<String, f64> {
    let _span = obs::span("metrics.factor_usage");
    let nodes = on_platform(specs, platform);
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for s in &nodes {
        let mut seen: Vec<String> = Vec::new();
        for p in s.paths_on(platform) {
            for f in &p.factors {
                let label = factor_label(f);
                if !seen.contains(&label) {
                    seen.push(label);
                }
            }
        }
        for label in seen {
            *counts.entry(label).or_default() += 1;
        }
    }
    counts.into_iter().map(|(k, v)| (k, pct(v, nodes.len()))).collect()
}

fn factor_label(f: &CredentialFactor) -> String {
    match f {
        CredentialFactor::LinkedAccount(_) => "linked account".to_owned(),
        other => other.to_string(),
    }
}

/// Fig. 3 bottom panel: % of services with at least one multi-factor
/// path on `platform`.
pub fn multi_factor_percentage(specs: &[ServiceSpec], platform: Platform) -> f64 {
    let _span = obs::span("metrics.multi_factor");
    let nodes = on_platform(specs, platform);
    let hits = nodes
        .iter()
        .filter(|s| s.paths_on(platform).iter().any(|p| p.is_multi_factor()))
        .count();
    pct(hits, nodes.len())
}

/// Total number of authentication paths across the population (the paper
/// counts 405).
pub fn total_paths(specs: &[ServiceSpec]) -> usize {
    specs.iter().map(|s| s.paths.len()).sum()
}

/// Path-class distribution (% of paths on `platform` in each class).
pub fn path_class_distribution(specs: &[ServiceSpec], platform: Platform) -> BTreeMap<PathClass, f64> {
    let paths: Vec<_> = on_platform(specs, platform)
        .iter()
        .flat_map(|s| s.paths_on(platform))
        .collect();
    let mut counts: BTreeMap<PathClass, usize> = BTreeMap::new();
    for p in &paths {
        *counts.entry(p.class()).or_default() += 1;
    }
    counts.into_iter().map(|(k, v)| (k, pct(v, paths.len()))).collect()
}

/// Table I: % of services exposing each information kind post-login.
pub fn exposure_percentages(
    specs: &[ServiceSpec],
    platform: Platform,
) -> BTreeMap<PersonalInfoKind, f64> {
    let _span = obs::span("metrics.exposure");
    let nodes = on_platform(specs, platform);
    PersonalInfoKind::table1()
        .iter()
        .map(|&kind| {
            let hits = nodes.iter().filter(|s| s.exposes(platform, kind)).count();
            (kind, pct(hits, nodes.len()))
        })
        .collect()
}

/// The paper's four dependency-depth categories plus the survivors.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DepthBreakdown {
    /// (1) Directly compromised with phone + SMS (fringe): 74.13% web /
    /// 75.56% mobile in the paper.
    pub direct_pct: f64,
    /// (2) One middle layer: 9.83% / 26.47%.
    pub one_layer_pct: f64,
    /// (3) Two middle layers, all full-capacity parents: 5.20% / 20.59%.
    pub two_layer_full_pct: f64,
    /// (4) Two middle layers involving half-capacity parents: 2.89% /
    /// 8.82%.
    pub two_layer_mixed_pct: f64,
    /// Never compromised: 4.44% / 2.22%.
    pub uncompromisable_pct: f64,
    /// Node population measured.
    pub total: usize,
}

/// The forward fixed point from the bare attacker profile (no seeds).
pub(crate) fn profile_forward(
    specs: &[ServiceSpec],
    platform: Platform,
    ap: &AttackerProfile,
) -> ForwardResult {
    Analysis::over(specs, platform, *ap)
        .forward(&[])
        .run()
        .expect("a seedless forward query names no service, so it cannot fail")
}

/// Computes the dependency-depth breakdown by running the forward fixed
/// point from the bare attacker profile.
pub fn depth_breakdown(
    specs: &[ServiceSpec],
    platform: Platform,
    ap: &AttackerProfile,
) -> DepthBreakdown {
    let _span = obs::span("metrics.depth");
    let result = profile_forward(specs, platform, ap);
    let total = on_platform(specs, platform).len();
    breakdown_of(&result, total)
}

/// Classifies an already-computed forward result into the paper's depth
/// categories over a population of `total` eligible services. This is
/// the shared classifier behind [`depth_breakdown`] and the whatif
/// patch path: both run it over their respective [`ForwardResult`]s, so
/// identical results produce bit-identical breakdowns.
pub fn breakdown_of(result: &ForwardResult, total: usize) -> DepthBreakdown {
    let mut direct = 0;
    let mut one_layer = 0;
    let mut two_full = 0;
    let mut two_mixed = 0;
    for rec in result.records.values() {
        match (rec.round, rec.min_providers) {
            (1, _) => direct += 1,
            (2, _) => one_layer += 1,
            (_, 0 | 1) => two_full += 1,
            (_, _) => two_mixed += 1,
        }
    }
    DepthBreakdown {
        direct_pct: pct(direct, total),
        one_layer_pct: pct(one_layer, total),
        two_layer_full_pct: pct(two_full, total),
        two_layer_mixed_pct: pct(two_mixed, total),
        uncompromisable_pct: pct(result.uncompromised.len(), total),
        total,
    }
}

/// Computes the dependency-depth breakdown for many scenarios at once,
/// sharding the independent forward analyses across `threads` workers.
/// Results are positionally aligned with `scenarios`.
pub fn depth_breakdowns(
    specs: &[ServiceSpec],
    scenarios: &[(Platform, AttackerProfile)],
    threads: usize,
) -> Vec<DepthBreakdown> {
    BatchAnalyzer::new(threads).run(scenarios, |(platform, ap)| depth_breakdown(specs, *platform, ap))
}

/// The paper's own counting for the dependency table is *overlapping*:
/// a service appears in every category one of its reset combinations
/// falls in, so the columns sum past 100% ("one service can have
/// multiple reset combinations"). This variant classifies each
/// authentication path by the minimal middle-layer structure it needs
/// and counts the service under the union of its paths' categories.
/// (The [`depth_breakdown`] variant classifies each service once, by
/// the earliest round it falls in.)
pub fn depth_breakdown_overlapping(
    specs: &[ServiceSpec],
    platform: Platform,
    ap: &AttackerProfile,
) -> DepthBreakdown {
    use crate::pool::{attack_paths, path_satisfied, InfoPool};
    let _span = obs::span("metrics.depth_overlapping");
    let result = profile_forward(specs, platform, ap);
    let nodes: Vec<&ServiceSpec> = specs
        .iter()
        .filter(|s| match platform {
            Platform::Web => s.has_web,
            Platform::MobileApp => s.has_mobile,
        })
        .collect();

    // Pools after zero, one and two layers of compromise, plus
    // per-service singleton pools for the full/half capacity split: a
    // path counts "all full capacity" when one depth-2 account alone
    // (plus the first layer) covers it, "half capacity" when only the
    // pooled combination of several does.
    let empty = InfoPool::new();
    let mut pool1 = InfoPool::new();
    let mut pool2_any = InfoPool::new();
    let mut round2_single_pools: Vec<InfoPool> = Vec::new();
    for s in &nodes {
        let Some(rec) = result.records.get(&s.id) else { continue };
        if rec.round == 1 {
            pool1.absorb_compromise(s, platform);
        }
        if rec.round <= 2 {
            pool2_any.absorb_compromise(s, platform);
        }
        if rec.round == 2 {
            let mut p = InfoPool::new();
            p.absorb_compromise(s, platform);
            round2_single_pools.push(p);
        }
    }
    // "Full capacity" pools: first layer plus exactly one second-layer
    // account.
    let pool2_full_variants: Vec<InfoPool> = round2_single_pools
        .iter()
        .map(|single| {
            let mut p = pool1.clone();
            for s in &nodes {
                if let Some(rec) = result.records.get(&s.id) {
                    if rec.round == 2 {
                        let mut probe = InfoPool::new();
                        probe.absorb_compromise(s, platform);
                        // Identify by owned-set equality.
                        if probe.owned() == single.owned() {
                            p.absorb_compromise(s, platform);
                        }
                    }
                }
            }
            p
        })
        .collect();

    let mut direct = 0usize;
    let mut one_layer = 0usize;
    let mut two_full = 0usize;
    let mut two_mixed = 0usize;
    let mut never = 0usize;
    for s in &nodes {
        let mut cats = [false; 4];
        for p in attack_paths(s, platform) {
            if path_satisfied(p, ap, &empty) {
                cats[0] = true;
            } else if path_satisfied(p, ap, &pool1) {
                cats[1] = true;
            } else if pool2_full_variants.iter().any(|v| path_satisfied(p, ap, v)) {
                cats[2] = true;
            } else if path_satisfied(p, ap, &pool2_any) {
                cats[3] = true;
            }
        }
        direct += usize::from(cats[0]);
        one_layer += usize::from(cats[1]);
        two_full += usize::from(cats[2]);
        two_mixed += usize::from(cats[3]);
        never += usize::from(!cats.iter().any(|&c| c));
    }
    DepthBreakdown {
        direct_pct: pct(direct, nodes.len()),
        one_layer_pct: pct(one_layer, nodes.len()),
        two_layer_full_pct: pct(two_full, nodes.len()),
        two_layer_mixed_pct: pct(two_mixed, nodes.len()),
        uncompromisable_pct: pct(never, nodes.len()),
        total: nodes.len(),
    }
}

/// Security posture of one business domain — §IV-B2: "Different domains
/// have different levels of authentication. Generally, Fintech services
/// are deployed with the most strict authentications."
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DomainPosture {
    /// The domain.
    pub domain: actfort_ecosystem::ServiceDomain,
    /// Services measured.
    pub services: usize,
    /// % of the domain's services that fall to phone + SMS alone.
    pub direct_pct: f64,
    /// % whose paths include at least one robust (unique-class) factor.
    pub robust_path_pct: f64,
    /// Mean factors per authentication path.
    pub mean_factors_per_path: f64,
}

/// Ranks domains from most to least strict (ascending direct-compromise
/// rate, descending robust-path presence).
pub fn domain_postures(specs: &[ServiceSpec], platform: Platform) -> Vec<DomainPosture> {
    use std::collections::BTreeMap;
    let mut groups: BTreeMap<actfort_ecosystem::ServiceDomain, Vec<&ServiceSpec>> = BTreeMap::new();
    for s in on_platform(specs, platform) {
        groups.entry(s.domain).or_default().push(s);
    }
    let mut out: Vec<DomainPosture> = groups
        .into_iter()
        .map(|(domain, members)| {
            let services = members.len();
            let direct = members
                .iter()
                .filter(|s| s.paths_on(platform).iter().any(|p| p.is_sms_only()))
                .count();
            let robust = members
                .iter()
                .filter(|s| {
                    s.paths_on(platform)
                        .iter()
                        .any(|p| p.class() == PathClass::Unique)
                })
                .count();
            let (factor_sum, path_count) = members.iter().fold((0usize, 0usize), |(f, n), s| {
                let paths = s.paths_on(platform);
                (f + paths.iter().map(|p| p.factors.len()).sum::<usize>(), n + paths.len())
            });
            DomainPosture {
                domain,
                services,
                direct_pct: pct(direct, services),
                robust_path_pct: pct(robust, services),
                mean_factors_per_path: if path_count == 0 {
                    0.0
                } else {
                    factor_sum as f64 / path_count as f64
                },
            }
        })
        .collect();
    out.sort_by(|a, b| {
        a.direct_pct
            .partial_cmp(&b.direct_pct)
            .expect("finite")
            .then(b.robust_path_pct.partial_cmp(&a.robust_path_pct).expect("finite"))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use actfort_ecosystem::synth::paper_population;

    fn pop() -> Vec<ServiceSpec> {
        paper_population(42)
    }

    #[test]
    fn reset_is_weaker_than_signin() {
        // The paper's headline Fig. 3 observation.
        let specs = pop();
        for platform in [Platform::Web, Platform::MobileApp] {
            let signin = sms_only_percentage(&specs, platform, Purpose::SignIn);
            let reset = sms_only_percentage(&specs, platform, Purpose::PasswordReset);
            assert!(
                reset > signin,
                "{platform}: reset {reset:.1}% should exceed sign-in {signin:.1}%"
            );
        }
    }

    #[test]
    fn sms_factor_usage_dominates() {
        let specs = pop();
        let usage = factor_usage(&specs, Platform::Web);
        let sms = usage.get("SMS code").copied().unwrap_or(0.0);
        assert!(sms > 80.0, "SMS usage {sms:.1}%");
        for (label, p) in &usage {
            if label != "SMS code" && label != "password" && label != "cellphone number" {
                assert!(p < &sms, "{label} at {p:.1}% exceeds SMS");
            }
        }
    }

    #[test]
    fn exposure_percentages_track_table1_shape() {
        // Monotonicity (mobile exposes more) holds on the calibrated
        // synthetic population; the small curated set adds noise for the
        // rarer kinds, so it is checked on pure synthetic data.
        let synth = actfort_ecosystem::synth::generate(
            400,
            13,
            &actfort_ecosystem::synth::SynthConfig::default(),
        );
        let web = exposure_percentages(&synth, Platform::Web);
        let mobile = exposure_percentages(&synth, Platform::MobileApp);
        for kind in PersonalInfoKind::table1() {
            let w = web[kind];
            let m = mobile[kind];
            assert!(m > w, "{kind}: mobile {m:.1}% should exceed web {w:.1}%");
        }
        // Full population: top web exposures and rare citizen ID, per
        // Table I (54.0 / 59.4 / 11.8).
        let specs = pop();
        let web = exposure_percentages(&specs, Platform::Web);
        assert!(web[&PersonalInfoKind::CellphoneNumber] > 40.0);
        assert!(web[&PersonalInfoKind::EmailAddress] > 40.0);
        assert!(web[&PersonalInfoKind::CitizenId] < 30.0, "citizen ID rare on web");
    }

    #[test]
    fn depth_breakdown_matches_paper_shape() {
        let specs = pop();
        let ap = AttackerProfile::paper_default();
        for platform in [Platform::Web, Platform::MobileApp] {
            let d = depth_breakdown(&specs, platform, &ap);
            assert!(
                (60.0..=85.0).contains(&d.direct_pct),
                "{platform} direct {:.1}%",
                d.direct_pct
            );
            assert!(d.direct_pct > d.one_layer_pct, "{platform}: direct dominates");
            assert!(d.one_layer_pct > 0.0);
            assert!(d.uncompromisable_pct < 15.0);
        }
    }

    #[test]
    fn overlapping_depth_matches_paper_counting_shape() {
        let specs = pop();
        let ap = AttackerProfile::paper_default();
        for platform in [Platform::Web, Platform::MobileApp] {
            let d = depth_breakdown_overlapping(&specs, platform, &ap);
            // Overlapping categories can exceed 100% in total, like the
            // paper's table (74.13 + 9.83 + 5.20 + 2.89 + 4.44 ≠ 100).
            assert!((60.0..=85.0).contains(&d.direct_pct), "{platform} direct {:.1}", d.direct_pct);
            assert!(d.one_layer_pct > 0.0);
            assert!(d.two_layer_full_pct > 0.0, "{platform} lacks two-layer-full");
            assert!(d.uncompromisable_pct < 15.0);
        }
        // The overlapping one-layer count is at least the exclusive one.
        let excl = depth_breakdown(&specs, Platform::Web, &ap);
        let over = depth_breakdown_overlapping(&specs, Platform::Web, &ap);
        assert!(over.one_layer_pct >= excl.one_layer_pct - 1e-9);
        assert_eq!(over.direct_pct, excl.direct_pct, "fringe definition agrees");
    }

    #[test]
    fn multi_factor_percentage_is_sane() {
        let specs = pop();
        let m = multi_factor_percentage(&specs, Platform::Web);
        assert!((0.0..=100.0).contains(&m));
        assert!(m > 20.0, "multi-factor presence {m:.1}%");
    }

    #[test]
    fn total_paths_roughly_matches_405() {
        // The paper counts 405 paths over 201 services. Our population
        // should land in the same order of magnitude band.
        // Our accounting is per-platform (a path offered on both clients
        // counts twice), so the band sits above the paper's 405.
        let n = total_paths(&pop());
        assert!((400..=1400).contains(&n), "total paths {n}");
    }

    #[test]
    fn fintech_is_the_strictest_domain() {
        // §IV-B2 insight, measured on the curated dataset where domains
        // are meaningfully differentiated.
        let specs = actfort_ecosystem::dataset::curated_services();
        let postures = domain_postures(&specs, Platform::MobileApp);
        let find = |d: actfort_ecosystem::ServiceDomain| {
            postures.iter().find(|p| p.domain == d).expect("domain present")
        };
        use actfort_ecosystem::ServiceDomain as D;
        let fintech = find(D::Fintech);
        for other in [D::Travel, D::News, D::Video, D::LocalServices] {
            let o = find(other);
            assert!(
                fintech.direct_pct <= o.direct_pct,
                "fintech ({:.0}%) should be stricter than {} ({:.0}%)",
                fintech.direct_pct,
                other,
                o.direct_pct
            );
        }
        assert!(fintech.robust_path_pct > 0.0);
        assert!(fintech.mean_factors_per_path > find(D::News).mean_factors_per_path);
        // Ranking is sorted strictest-first.
        for w in postures.windows(2) {
            assert!(w[0].direct_pct <= w[1].direct_pct + 1e-9);
        }
    }

    #[test]
    fn path_classes_cover_general_info_unique() {
        let specs = pop();
        let dist = path_class_distribution(&specs, Platform::Web);
        let general = dist.get(&PathClass::General).copied().unwrap_or(0.0);
        let info = dist.get(&PathClass::Info).copied().unwrap_or(0.0);
        let unique = dist.get(&PathClass::Unique).copied().unwrap_or(0.0);
        assert!(general > info && general > unique, "general class dominates: {dist:?}");
        assert!(info > 0.0 && unique > 0.0);
    }
}
