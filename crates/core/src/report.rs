//! Developer-facing risk reports — the output ActFort hands a service
//! operator: how their account can fall, through whom, and which of the
//! paper's countermeasures would help.

use crate::analysis::MAX_BACKWARD_PARTIALS;
use crate::pool::attack_paths;
use crate::profile::AttackerProfile;
use crate::strategy::StrategyEngine;
use crate::tdg::Tdg;
use actfort_ecosystem::factor::ServiceId;
use actfort_ecosystem::info::Masking;
use actfort_ecosystem::policy::{EdgeClass, Platform};
use actfort_ecosystem::spec::ServiceSpec;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Risk rating of one service within its ecosystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RiskLevel {
    /// Falls to phone + SMS alone.
    Critical,
    /// Reachable through middle accounts.
    High,
    /// Only reachable through deep chains (3+ layers) — still exposed.
    Elevated,
    /// No chain reaches it under the profile.
    Robust,
}

impl std::fmt::Display for RiskLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RiskLevel::Critical => "CRITICAL",
            RiskLevel::High => "HIGH",
            RiskLevel::Elevated => "ELEVATED",
            RiskLevel::Robust => "robust",
        };
        f.pad(s)
    }
}

/// Assessment of one service.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RiskAssessment {
    /// The service.
    pub service: ServiceId,
    /// Overall rating.
    pub level: RiskLevel,
    /// Round at which the forward analysis compromised it (None = never).
    pub compromised_round: Option<usize>,
    /// Example attack chain, rendered (None when robust).
    pub example_chain: Option<String>,
    /// Number of full-capacity parents feeding it.
    pub strong_parents: usize,
    /// Information kinds this service leaks in the clear, arming attacks
    /// on *other* services.
    pub clear_leaks: Vec<String>,
    /// Targeted recommendations drawn from §VII.
    pub recommendations: Vec<String>,
}

/// Assesses every service on `platform`.
pub fn assess(specs: &[ServiceSpec], platform: Platform, ap: &AttackerProfile) -> Vec<RiskAssessment> {
    let tdg = Tdg::build(specs, platform, *ap);
    let fwd = crate::metrics::profile_forward(specs, platform, ap);
    let mut out = Vec::with_capacity(tdg.node_count());
    for i in 0..tdg.node_count() {
        let spec = tdg.spec(i);
        let round = fwd.records.get(&spec.id).map(|r| r.round);
        let level = match round {
            Some(1) => RiskLevel::Critical,
            Some(2) | Some(3) => RiskLevel::High,
            Some(_) => RiskLevel::Elevated,
            None => RiskLevel::Robust,
        };
        let example_chain = tdg
            .backward()
            .chains(&spec.id, 1, MAX_BACKWARD_PARTIALS, EdgeClass::All)
            .0
            .into_iter()
            .next()
            .map(|c| StrategyEngine::render_chain(&c));
        let clear_leaks: Vec<String> = spec
            .exposure_on(platform)
            .iter()
            .filter(|f| f.masking == Masking::Clear)
            .map(|f| f.kind.to_string())
            .collect();
        let recommendations = recommend(spec, platform, level);
        out.push(RiskAssessment {
            service: spec.id.clone(),
            level,
            compromised_round: round,
            example_chain,
            strong_parents: tdg.strong_parents(i).len(),
            clear_leaks,
            recommendations,
        });
    }
    out.sort_by(|a, b| a.level.cmp(&b.level).then(a.service.cmp(&b.service)));
    out
}

fn recommend(spec: &ServiceSpec, platform: Platform, level: RiskLevel) -> Vec<String> {
    let mut out = Vec::new();
    if spec.paths_on(platform).iter().any(|p| p.is_sms_only()) {
        out.push(
            "replace SMS-only authentication with built-in push approval or add a second factor"
                .to_owned(),
        );
    }
    if spec
        .exposure_on(platform)
        .iter()
        .any(|f| f.masking == Masking::Clear && is_sensitive(f.kind))
    {
        out.push("mask sensitive identifiers on the account page under the unified standard".to_owned());
    }
    if spec.has_web && spec.has_mobile {
        let web: std::collections::BTreeSet<_> =
            spec.paths_on(Platform::Web).iter().map(|p| (p.purpose, p.factors.clone())).collect();
        let mobile: std::collections::BTreeSet<_> = spec
            .paths_on(Platform::MobileApp)
            .iter()
            .map(|p| (p.purpose, p.factors.clone()))
            .collect();
        if web != mobile {
            out.push("align web and mobile authentication flows (asymmetry invites the weaker end)".to_owned());
        }
    }
    if level == RiskLevel::Robust && out.is_empty() {
        out.push("current posture resists the profiled attacker; maintain it".to_owned());
    }
    out
}

fn is_sensitive(kind: actfort_ecosystem::info::PersonalInfoKind) -> bool {
    use actfort_ecosystem::info::PersonalInfoKind as K;
    matches!(kind, K::CitizenId | K::BankcardNumber | K::CellphoneNumber | K::Photos)
}

/// Renders the full ecosystem report as markdown.
pub fn render_markdown(specs: &[ServiceSpec], platform: Platform, ap: &AttackerProfile) -> String {
    let assessments = assess(specs, platform, ap);
    let mut out = String::new();
    let _ = writeln!(out, "# ActFort ecosystem risk report ({platform})\n");
    let critical = assessments.iter().filter(|a| a.level == RiskLevel::Critical).count();
    let robust = assessments.iter().filter(|a| a.level == RiskLevel::Robust).count();
    let _ = writeln!(
        out,
        "{} services assessed — {} critical, {} robust.\n",
        assessments.len(),
        critical,
        robust
    );
    let _ = writeln!(out, "| service | risk | round | parents | example chain |");
    let _ = writeln!(out, "|---|---|---|---|---|");
    for a in &assessments {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} |",
            a.service,
            a.level,
            a.compromised_round.map(|r| r.to_string()).unwrap_or_else(|| "—".into()),
            a.strong_parents,
            a.example_chain.as_deref().unwrap_or("—"),
        );
    }
    let _ = writeln!(out, "\n## Recommendations\n");
    for a in assessments.iter().filter(|a| a.level != RiskLevel::Robust) {
        let _ = writeln!(out, "### {}", a.service);
        for r in &a.recommendations {
            let _ = writeln!(out, "- {r}");
        }
        if !a.clear_leaks.is_empty() {
            let _ = writeln!(out, "- leaks in the clear: {}", a.clear_leaks.join(", "));
        }
        let _ = writeln!(out);
    }
    out
}

/// Quick sanity summary of attackable path counts per class, useful in
/// report headers.
pub fn attackable_path_count(spec: &ServiceSpec, platform: Platform) -> usize {
    attack_paths(spec, platform).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use actfort_ecosystem::dataset::curated_services;

    fn assessments() -> Vec<RiskAssessment> {
        assess(&curated_services(), Platform::Web, &AttackerProfile::paper_default())
    }

    #[test]
    fn ratings_match_known_services() {
        let a = assessments();
        let find = |id: &str| a.iter().find(|x| x.service.as_str() == id).unwrap();
        assert_eq!(find("ctrip").level, RiskLevel::Critical);
        assert_eq!(find("paypal").level, RiskLevel::High);
        assert_eq!(find("union-bank").level, RiskLevel::Robust);
        assert!(find("paypal").example_chain.is_some());
        assert!(find("union-bank").example_chain.is_none());
    }

    #[test]
    fn sorted_most_critical_first() {
        let a = assessments();
        for w in a.windows(2) {
            assert!(w[0].level <= w[1].level);
        }
    }

    #[test]
    fn recommendations_address_the_findings() {
        let a = assessments();
        let ctrip = a.iter().find(|x| x.service.as_str() == "ctrip").unwrap();
        assert!(ctrip.recommendations.iter().any(|r| r.contains("SMS-only")));
        assert!(ctrip.recommendations.iter().any(|r| r.contains("mask")));
        assert!(ctrip.clear_leaks.iter().any(|l| l.contains("citizen")));
        let bank = a.iter().find(|x| x.service.as_str() == "union-bank").unwrap();
        assert!(!bank.recommendations.is_empty());
    }

    #[test]
    fn markdown_report_is_complete() {
        let md = render_markdown(
            &curated_services(),
            Platform::Web,
            &AttackerProfile::paper_default(),
        );
        assert!(md.starts_with("# ActFort ecosystem risk report"));
        assert!(md.contains("| ctrip |"));
        assert!(md.contains("### ctrip"));
        assert!(md.contains("critical"));
        // Every non-robust service gets a recommendations section.
        assert!(md.matches("### ").count() > 10);
    }
}
