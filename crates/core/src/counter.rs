//! Countermeasures — §VII-A, implemented as spec transformations plus a
//! differential re-analysis.
//!
//! Each countermeasure rewrites the service population; re-running the
//! dependency-depth analysis before and after quantifies how much of the
//! attack graph it removes. [`Patcher`] caches the hardened substrate of
//! each countermeasure set, compiled cold from the rewritten specs, for
//! the `/whatif` queries against one base substrate.

use crate::metrics::{depth_breakdown, DepthBreakdown};
use crate::prepared::Prepared;
use crate::profile::AttackerProfile;
use actfort_ecosystem::factor::CredentialFactor;
use actfort_ecosystem::info::{Masking, PersonalInfoKind};
use actfort_ecosystem::policy::Platform;
use actfort_ecosystem::spec::{ServiceDomain, ServiceSpec};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::{Arc, Mutex};

/// The paper's proposed countermeasures.
///
/// The derived `Ord` is the canonical application order: countermeasure
/// *sets* are order-insensitive because [`apply_all`] (and so
/// [`Patcher::patch`]) sorts into this order before applying.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Countermeasure {
    /// "Cover unified digits on SSN and bankcard numbers": every service
    /// masks the same positions, so mask merging recovers nothing new.
    UnifiedMasking,
    /// "Make email service accounts more secure": email providers add a
    /// device check to every reset path.
    HardenEmail,
    /// "Tackle the asymmetry existing between web end and mobile end":
    /// mobile adopts the web end's (stricter) exposure rules and reset
    /// paths.
    FixAsymmetry,
    /// §VII-A2 built-in authentication: SMS codes are replaced by
    /// OS-level push approvals that never cross GSM.
    BuiltInPush,
    /// Passkey enrollment: every recovery-class flow that lacks a robust
    /// factor additionally requires a passkey. This severs exactly the
    /// recovery edges of the dependency graph — login-path flows are
    /// untouched, so the `LoginOnly` view of the population is a fixed
    /// point of this countermeasure.
    PasskeyEnrollment,
}

impl Countermeasure {
    /// All countermeasures, in presentation (= canonical) order.
    pub fn all() -> &'static [Countermeasure] {
        &[
            Countermeasure::UnifiedMasking,
            Countermeasure::HardenEmail,
            Countermeasure::FixAsymmetry,
            Countermeasure::BuiltInPush,
            Countermeasure::PasskeyEnrollment,
        ]
    }

    /// Every subset of [`Self::all`], 2^|`all()`| sets in mask order: set
    /// `m` holds `all()[i]` exactly when bit `i` of `m` is set, so the
    /// first set is empty, the last is `all()`, and each is in canonical
    /// order.
    pub fn subsets() -> Vec<Vec<Countermeasure>> {
        let all = Self::all();
        (0u32..1 << all.len())
            .map(|mask| {
                all.iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, cm)| *cm)
                    .collect()
            })
            .collect()
    }

    /// Stable wire spelling, used by the serve layer and cache keys.
    pub fn wire_name(self) -> &'static str {
        match self {
            Countermeasure::UnifiedMasking => "unified_masking",
            Countermeasure::HardenEmail => "harden_email",
            Countermeasure::FixAsymmetry => "fix_asymmetry",
            Countermeasure::BuiltInPush => "built_in_push",
            Countermeasure::PasskeyEnrollment => "passkey_enrollment",
        }
    }

    /// Parses a wire spelling; inverse of [`Self::wire_name`].
    pub fn parse(text: &str) -> Option<Self> {
        Countermeasure::all().iter().copied().find(|cm| cm.wire_name() == text)
    }
}

/// The canonical form of a countermeasure *set*: sorted into
/// [`Countermeasure`]'s `Ord` order, duplicates removed. Everything that
/// consumes a set — [`apply_all`], the [`Patcher`] cache, the serve
/// cache keys — canonicalizes through here, so results and cache hits
/// are functions of the set alone, never of spelling order.
pub fn canonical_set(cms: &[Countermeasure]) -> Vec<Countermeasure> {
    let mut set = cms.to_vec();
    set.sort_unstable();
    set.dedup();
    set
}

impl fmt::Display for Countermeasure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Countermeasure::UnifiedMasking => "unified masking",
            Countermeasure::HardenEmail => "hardened email authentication",
            Countermeasure::FixAsymmetry => "web/mobile symmetry",
            Countermeasure::BuiltInPush => "built-in push authentication",
            Countermeasure::PasskeyEnrollment => "passkey-gated recovery",
        };
        f.pad(s)
    }
}

/// Applies one countermeasure, returning the transformed population.
pub fn apply(specs: &[ServiceSpec], cm: Countermeasure) -> Vec<ServiceSpec> {
    apply_all(specs, &[cm])
}

/// Applies a countermeasure set. The set is canonicalized (sorted,
/// deduplicated) first, so the result depends only on *which*
/// countermeasures are in the set, not the order the caller listed them
/// in — `[FixAsymmetry, UnifiedMasking]` and its reverse produce the
/// same population (pinned by the permutation proptest).
///
/// Each spec is cloned once and hardened in place by every
/// countermeasure in turn: a countermeasure reads only the spec it
/// rewrites, so folding spec by spec equals applying set by set.
pub fn apply_all(specs: &[ServiceSpec], cms: &[Countermeasure]) -> Vec<ServiceSpec> {
    let set = canonical_set(cms);
    let mut out = specs.to_vec();
    for s in &mut out {
        for &cm in &set {
            apply_one(s, cm);
        }
    }
    out
}

fn apply_one(s: &mut ServiceSpec, cm: Countermeasure) {
    match cm {
        Countermeasure::UnifiedMasking => {
            let unify = |fields: &mut Vec<actfort_ecosystem::info::ExposedField>| {
                for f in fields {
                    let unified = match f.kind {
                        PersonalInfoKind::CitizenId => Masking::Partial { prefix: 3, suffix: 2 },
                        PersonalInfoKind::BankcardNumber => {
                            Masking::Partial { prefix: 0, suffix: 4 }
                        }
                        PersonalInfoKind::CellphoneNumber => {
                            Masking::Partial { prefix: 3, suffix: 2 }
                        }
                        _ => continue,
                    };
                    // Intersect with the existing mask: a field already
                    // narrower than the unified scheme (or Hidden) stays
                    // that way. A countermeasure may only *hide* digits,
                    // never reveal ones a service had covered.
                    f.masking = intersect_masking(f.masking, unified);
                }
            };
            unify(&mut s.web_exposure);
            unify(&mut s.mobile_exposure);
        }
        Countermeasure::HardenEmail => {
            if s.domain == ServiceDomain::Email {
                for p in &mut s.paths {
                    if p.purpose == actfort_ecosystem::policy::Purpose::PasswordReset
                        && !p.factors.iter().any(|f| f.is_robust())
                    {
                        p.factors.push(CredentialFactor::DeviceCheck);
                    }
                }
            }
        }
        Countermeasure::FixAsymmetry => {
            if s.has_web && s.has_mobile {
                // Symmetry by *intersection* — the only direction that can
                // never widen the attack surface. Copying either side
                // wholesale can backfire: a lax web reset overwriting a
                // gated mobile one (or vice versa) hands the attacker a
                // new path. Instead, for every purpose with flows common
                // to both clients, both keep exactly the common flows;
                // purposes with no common flow stay as they are (flagged
                // for manual redesign in a real deployment).
                use actfort_ecosystem::policy::Purpose;
                use std::collections::BTreeSet;
                for purpose in Purpose::all() {
                    let set_of = |platform: Platform| -> BTreeSet<Vec<CredentialFactor>> {
                        s.paths
                            .iter()
                            .filter(|p| p.platform == platform && p.purpose == purpose)
                            .map(|p| p.factors.clone())
                            .collect()
                    };
                    let common: BTreeSet<_> = set_of(Platform::Web)
                        .intersection(&set_of(Platform::MobileApp))
                        .cloned()
                        .collect();
                    if !common.is_empty() {
                        s.paths.retain(|p| p.purpose != purpose || common.contains(&p.factors));
                    }
                }
                // Exposure: for kinds shown on both pages, both adopt the
                // positional intersection of what was visible (never
                // revealing a character either page hid).
                let masks: Vec<(PersonalInfoKind, Masking, Masking)> = s
                    .web_exposure
                    .iter()
                    .filter_map(|w| {
                        s.mobile_exposure
                            .iter()
                            .find(|m| m.kind == w.kind)
                            .map(|m| (w.kind, w.masking, m.masking))
                    })
                    .collect();
                for (kind, web_mask, mobile_mask) in masks {
                    let joint = intersect_masking(web_mask, mobile_mask);
                    for f in s.web_exposure.iter_mut().chain(s.mobile_exposure.iter_mut()) {
                        if f.kind == kind {
                            f.masking = joint;
                        }
                    }
                }
            }
        }
        Countermeasure::PasskeyEnrollment => {
            for p in &mut s.paths {
                if p.purpose.is_recovery() && !p.factors.iter().any(|f| f.is_robust()) {
                    p.factors.push(CredentialFactor::Passkey);
                }
            }
        }
        Countermeasure::BuiltInPush => {
            for p in &mut s.paths {
                let mut substituted = false;
                for f in &mut p.factors {
                    if *f == CredentialFactor::SmsCode {
                        *f = CredentialFactor::PushApproval;
                        substituted = true;
                    }
                }
                if substituted {
                    // The substitution can collide with a PushApproval
                    // the path already listed; keep the first occurrence
                    // so factor-count thresholds see the factor once.
                    let mut seen = false;
                    p.factors.retain(|f| {
                        if *f == CredentialFactor::PushApproval {
                            if seen {
                                return false;
                            }
                            seen = true;
                        }
                        true
                    });
                }
            }
        }
    }
}

/// The hardened substrates of every countermeasure set over one shared
/// base [`Prepared`], compiled on first use and cached for the life of
/// the base.
///
/// [`Patcher::patch`] folds the set over the base's specs
/// ([`apply_all`]) and compiles the result cold, once per canonical
/// subset (`2^|all()|` of them, thirty-two with five countermeasures).
/// The empty set is the base itself, so a full `/whatif` sweep compiles
/// `2^|all()| - 1` substrates the first time and none after that.
/// Construction plans nothing: a snapshot reload pays only for the slot
/// table.
pub struct Patcher {
    base: Arc<Prepared>,
    /// Hardened substrates by canonical subset mask (bit *i* =
    /// `all()[i]`); slot 0, the empty set, is the base.
    cache: Mutex<Vec<Option<Arc<Prepared>>>>,
}

impl Patcher {
    /// A patcher over `base`, with nothing compiled yet.
    pub fn new(base: Arc<Prepared>) -> Self {
        let mut cache = vec![None; 1 << Countermeasure::all().len()];
        cache[0] = Some(Arc::clone(&base));
        Self { base, cache: Mutex::new(cache) }
    }

    /// The shared base substrate the countermeasures harden.
    pub fn base(&self) -> &Arc<Prepared> {
        &self.base
    }

    /// The hardened substrate for a countermeasure set (canonicalized,
    /// so order and duplicates don't matter). The first request per
    /// subset compiles it; repeats return the cached one. Two threads
    /// racing on the same subset both compile, and both get the one
    /// cached first.
    pub fn patch(&self, cms: &[Countermeasure]) -> Arc<Prepared> {
        let mask = (0..)
            .zip(Countermeasure::all())
            .filter(|(_, cm)| cms.contains(cm))
            .fold(0usize, |m, (i, _)| m | 1 << i);
        if let Some(hit) = &self.cache.lock().expect("patch cache poisoned")[mask] {
            return Arc::clone(hit);
        }
        let base = &self.base;
        let hardened = Arc::new(Prepared::compile(
            apply_all(base.specs(), cms),
            base.platform(),
            base.attacker_profile(),
        ));
        let mut cache = self.cache.lock().expect("patch cache poisoned");
        Arc::clone(cache[mask].get_or_insert(hardened))
    }
}

/// Positional intersection of two maskings: the result shows only the
/// characters *both* maskings showed. This is a lattice meet (`Clear`
/// is the identity, `Hidden` absorbs, `Partial` meets pointwise), which
/// is what makes masking countermeasures monotone: `m` never reveals
/// anything `a` hid iff `intersect_masking(m, a) == m`.
pub fn intersect_masking(a: Masking, b: Masking) -> Masking {
    match (a, b) {
        (Masking::Clear, other) | (other, Masking::Clear) => other,
        (Masking::Hidden, _) | (_, Masking::Hidden) => Masking::Hidden,
        (Masking::Partial { prefix: p1, suffix: s1 }, Masking::Partial { prefix: p2, suffix: s2 }) => {
            Masking::Partial { prefix: p1.min(p2), suffix: s1.min(s2) }
        }
    }
}

/// Before/after depth breakdowns for one countermeasure set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CountermeasureReport {
    /// Label of the applied set.
    pub label: String,
    /// Breakdown before.
    pub before: DepthBreakdown,
    /// Breakdown after.
    pub after: DepthBreakdown,
}

impl CountermeasureReport {
    /// Percentage-point drop in directly-compromisable services.
    pub fn direct_reduction_pts(&self) -> f64 {
        self.before.direct_pct - self.after.direct_pct
    }

    /// Percentage-point rise in uncompromisable services.
    pub fn survivability_gain_pts(&self) -> f64 {
        self.after.uncompromisable_pct - self.before.uncompromisable_pct
    }
}

/// Evaluates a countermeasure set by differential re-analysis.
pub fn evaluate(
    specs: &[ServiceSpec],
    cms: &[Countermeasure],
    platform: Platform,
    ap: &AttackerProfile,
) -> CountermeasureReport {
    let label = cms.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(" + ");
    let before = depth_breakdown(specs, platform, ap);
    let hardened = apply_all(specs, cms);
    let after = depth_breakdown(&hardened, platform, ap);
    CountermeasureReport { label, before, after }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actfort_ecosystem::dataset::curated_services;
    use actfort_ecosystem::info::merge_masked;

    fn specs() -> Vec<ServiceSpec> {
        curated_services()
    }

    fn ap() -> AttackerProfile {
        AttackerProfile::paper_default()
    }

    #[test]
    fn subsets_enumerate_every_set_in_mask_order() {
        let subsets = Countermeasure::subsets();
        assert_eq!(subsets.len(), 32, "five countermeasures, 2^5 sets");
        assert!(subsets[0].is_empty());
        assert_eq!(subsets[2], [Countermeasure::HardenEmail], "bit 1 is all()[1]");
        assert_eq!(subsets[31], Countermeasure::all());
    }

    #[test]
    fn unified_masking_blocks_merge_attack() {
        let hardened = apply(&specs(), Countermeasure::UnifiedMasking);
        let cid = "110101199003078515";
        let views: Vec<String> = hardened
            .iter()
            .flat_map(|s| s.web_exposure.iter().chain(&s.mobile_exposure))
            .filter(|f| f.kind == PersonalInfoKind::CitizenId)
            .map(|f| f.masking.apply(cid))
            .collect();
        assert!(!views.is_empty());
        let merged = merge_masked(&views).expect("uniform masks always merge");
        assert!(merged.contains('*'), "unified masking must leave digits hidden: {merged}");
    }

    #[test]
    fn harden_email_removes_email_gateway() {
        let hardened = apply(&specs(), Countermeasure::HardenEmail);
        let gmail = hardened.iter().find(|s| s.id.as_str() == "gmail").unwrap();
        for p in gmail.paths_for(Platform::Web, actfort_ecosystem::policy::Purpose::PasswordReset) {
            assert!(p.factors.iter().any(|f| f.is_robust()), "gmail reset still weak: {p}");
        }
        // Non-email services untouched.
        let ctrip = hardened.iter().find(|s| s.id.as_str() == "ctrip").unwrap();
        assert!(ctrip.has_sms_only_path());
    }

    #[test]
    fn fix_asymmetry_aligns_platforms() {
        let hardened = apply(&specs(), Countermeasure::FixAsymmetry);
        let gome = hardened.iter().find(|s| s.id.as_str() == "gome").unwrap();
        assert_eq!(gome.web_exposure, gome.mobile_exposure);
        let alipay = hardened.iter().find(|s| s.id.as_str() == "alipay").unwrap();
        // The weak mobile path (SMS + citizen ID) is gone.
        assert!(alipay
            .paths_for(Platform::MobileApp, actfort_ecosystem::policy::Purpose::PasswordReset)
            .iter()
            .all(|p| !p.factors.contains(&CredentialFactor::CitizenId)));
    }

    #[test]
    fn built_in_push_eliminates_sms() {
        let hardened = apply(&specs(), Countermeasure::BuiltInPush);
        for s in &hardened {
            for p in &s.paths {
                assert!(!p.factors.contains(&CredentialFactor::SmsCode), "{}: {p}", s.id);
            }
        }
    }

    #[test]
    fn built_in_push_never_duplicates_factors() {
        use actfort_ecosystem::policy::{Platform, Purpose};
        // A path that already lists PushApproval next to SmsCode: the
        // substitution must collapse to a single PushApproval, not two
        // (duplicates inflate factor-count thresholds).
        let spec = ServiceSpec::builder("dup", "dup", ServiceDomain::Other)
            .path(
                Purpose::SignIn,
                Platform::Web,
                &[
                    CredentialFactor::PushApproval,
                    CredentialFactor::Password,
                    CredentialFactor::SmsCode,
                ],
            )
            .build();
        let hardened = apply(&[spec], Countermeasure::BuiltInPush);
        let factors = &hardened[0].paths[0].factors;
        assert_eq!(
            factors.iter().filter(|f| **f == CredentialFactor::PushApproval).count(),
            1,
            "duplicate PushApproval after substitution: {factors:?}"
        );
        assert!(factors.contains(&CredentialFactor::Password));
        // A path with a genuine (pre-existing) repeated factor and no
        // SmsCode is left alone: the dedup only cleans up collisions the
        // substitution itself created.
        let odd = ServiceSpec::builder("odd", "odd", ServiceDomain::Other)
            .path(
                Purpose::SignIn,
                Platform::Web,
                &[CredentialFactor::PushApproval, CredentialFactor::PushApproval],
            )
            .build();
        let untouched = apply(&[odd], Countermeasure::BuiltInPush);
        assert_eq!(untouched[0].paths[0].factors.len(), 2);
    }

    #[test]
    fn unified_masking_never_reveals_hidden_digits() {
        // A service that fully hides the citizen id: the "unified"
        // Partial{3,2} scheme must not re-reveal its digits.
        use actfort_ecosystem::info::ExposedField;
        use actfort_ecosystem::policy::{Platform, Purpose};
        let spec = ServiceSpec::builder("vaulted", "vaulted", ServiceDomain::Other)
            .path(Purpose::SignIn, Platform::Web, &[CredentialFactor::Password])
            .expose_web(ExposedField { kind: PersonalInfoKind::CitizenId, masking: Masking::Hidden })
            .expose_web(ExposedField::partial(PersonalInfoKind::BankcardNumber, 0, 2))
            .build();
        let hardened = apply(&[spec], Countermeasure::UnifiedMasking);
        let field = |kind| {
            hardened[0].web_exposure.iter().find(|f| f.kind == kind).unwrap().masking
        };
        assert_eq!(field(PersonalInfoKind::CitizenId), Masking::Hidden);
        // Already narrower than the unified suffix of 4: stays at 2.
        assert_eq!(
            field(PersonalInfoKind::BankcardNumber),
            Masking::Partial { prefix: 0, suffix: 2 }
        );
    }

    #[test]
    fn passkey_enrollment_gates_every_weak_recovery_path() {
        let hardened = apply(&specs(), Countermeasure::PasskeyEnrollment);
        for s in &hardened {
            for p in &s.paths {
                if p.purpose.is_recovery() {
                    assert!(
                        p.factors.iter().any(|f| f.is_robust()),
                        "{}: recovery path still weak after passkey enrollment: {p}",
                        s.id
                    );
                }
            }
        }
    }

    #[test]
    fn passkey_enrollment_leaves_login_paths_untouched() {
        let base = specs();
        let hardened = apply(&base, Countermeasure::PasskeyEnrollment);
        for (b, h) in base.iter().zip(&hardened) {
            let login = |s: &ServiceSpec| -> Vec<_> {
                s.paths.iter().filter(|p| !p.purpose.is_recovery()).cloned().collect()
            };
            assert_eq!(login(b), login(h), "{}: login paths changed", b.id);
            assert_eq!(b.web_exposure, h.web_exposure);
            assert_eq!(b.mobile_exposure, h.mobile_exposure);
        }
    }

    #[test]
    fn apply_all_is_order_invariant_on_curated() {
        let base = specs();
        let canonical = apply_all(&base, Countermeasure::all());
        let reversed: Vec<Countermeasure> =
            Countermeasure::all().iter().rev().copied().collect();
        assert_eq!(apply_all(&base, &reversed), canonical);
        // Duplicates collapse.
        let doubled =
            [Countermeasure::BuiltInPush, Countermeasure::BuiltInPush, Countermeasure::UnifiedMasking];
        assert_eq!(
            apply_all(&base, &doubled),
            apply_all(&base, &[Countermeasure::UnifiedMasking, Countermeasure::BuiltInPush])
        );
    }

    #[test]
    fn every_countermeasure_monotonically_helps() {
        let base = specs();
        let before = depth_breakdown(&base, Platform::MobileApp, &ap());
        for &cm in Countermeasure::all() {
            let report = evaluate(&base, &[cm], Platform::MobileApp, &ap());
            assert!(
                report.after.direct_pct <= before.direct_pct + 1e-9,
                "{cm} increased direct compromise"
            );
            assert!(
                report.after.uncompromisable_pct >= before.uncompromisable_pct - 1e-9,
                "{cm} reduced survivability"
            );
        }
    }

    #[test]
    fn push_countermeasure_collapses_the_attack() {
        let report = evaluate(&specs(), &[Countermeasure::BuiltInPush], Platform::Web, &ap());
        assert_eq!(report.after.direct_pct, 0.0, "no SMS left to intercept");
        assert!(report.survivability_gain_pts() > 50.0, "gain {:.1}", report.survivability_gain_pts());
    }

    #[test]
    fn combined_countermeasures_stack() {
        let all = evaluate(&specs(), Countermeasure::all(), Platform::MobileApp, &ap());
        assert!(all.after.uncompromisable_pct > 90.0, "combined: {:?}", all.after);
        assert!(all.label.contains("push"));
    }
}
