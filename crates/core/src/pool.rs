//! The attacker's accumulated information pool and factor satisfaction.
//!
//! §III-E: "we collect all of the personal information of OAAS as an
//! Initial Attack Database (IAD)". The pool tracks fully known
//! information kinds, *positional coverage* of partially masked values
//! (so complementary masks from different services merge, §IV-B2), and
//! which services the attacker already controls.

use crate::profile::AttackerProfile;
use actfort_ecosystem::factor::{CredentialFactor, ServiceId};
use actfort_ecosystem::info::{Masking, PersonalInfoKind};
use actfort_ecosystem::policy::{AuthPath, EdgeClass, Platform};
use actfort_ecosystem::spec::{ServiceDomain, ServiceSpec};
use std::collections::{BTreeMap, BTreeSet};

/// Canonical length of a maskable field, for positional merging.
pub(crate) fn canonical_len(kind: PersonalInfoKind) -> Option<u32> {
    match kind {
        PersonalInfoKind::CitizenId => Some(18),
        PersonalInfoKind::BankcardNumber => Some(16),
        PersonalInfoKind::CellphoneNumber => Some(11),
        _ => None,
    }
}

/// Positional coverage of one maskable field as a bitmask over its
/// canonical length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Coverage(u32);

impl Coverage {
    fn add_mask(&mut self, masking: Masking, len: u32) {
        match masking {
            Masking::Clear => self.0 |= (1u32 << len) - 1,
            Masking::Hidden => {}
            Masking::Partial { prefix, suffix } => {
                let p = u32::from(prefix).min(len);
                let s = u32::from(suffix).min(len - p);
                self.0 |= (1u32 << p) - 1;
                self.0 |= (((1u32 << s) - 1) << (len - s)) & ((1u32 << len) - 1);
            }
        }
    }

    fn is_full(&self, len: u32) -> bool {
        self.0 == (1u32 << len) - 1
    }
}

/// The attacker's gathered knowledge at one point of an analysis.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InfoPool {
    full: BTreeSet<PersonalInfoKind>,
    coverage: BTreeMap<PersonalInfoKind, Coverage>,
    owned: BTreeSet<ServiceId>,
    owns_email_provider: bool,
}

impl InfoPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a kind is fully known.
    pub fn has_full(&self, kind: PersonalInfoKind) -> bool {
        if self.full.contains(&kind) {
            return true;
        }
        match (canonical_len(kind), self.coverage.get(&kind)) {
            (Some(len), Some(cov)) => cov.is_full(len),
            _ => false,
        }
    }

    /// Marks a kind fully known (e.g. from a leak database).
    pub fn add_full(&mut self, kind: PersonalInfoKind) {
        self.full.insert(kind);
    }

    /// Services the attacker controls.
    pub fn owned(&self) -> &BTreeSet<ServiceId> {
        &self.owned
    }

    /// Whether the attacker controls `service`.
    pub fn owns(&self, service: &ServiceId) -> bool {
        self.owned.contains(service)
    }

    /// Whether the attacker controls the victim's mailbox (any
    /// compromised email-domain service).
    pub fn owns_email_provider(&self) -> bool {
        self.owns_email_provider
    }

    /// Absorbs everything a compromised account at `spec` (viewed on
    /// `platform`) exposes.
    pub fn absorb_compromise(&mut self, spec: &ServiceSpec, platform: Platform) {
        self.owned.insert(spec.id.clone());
        if spec.domain == ServiceDomain::Email {
            self.owns_email_provider = true;
        }
        for field in spec.exposure_on(platform) {
            match field.masking {
                Masking::Clear => {
                    self.full.insert(field.kind);
                    // §IV-B: cloud photo archives commonly contain the
                    // ID-card photo — Photos in the clear yields the ID.
                    if field.kind == PersonalInfoKind::Photos {
                        self.full.insert(PersonalInfoKind::CitizenId);
                    }
                }
                Masking::Hidden => {}
                Masking::Partial { .. } => {
                    if let Some(len) = canonical_len(field.kind) {
                        self.coverage
                            .entry(field.kind)
                            .or_default()
                            .add_mask(field.masking, len);
                    }
                }
            }
        }
    }

    /// Merges everything `other` knows into `self`: union of fully
    /// known kinds, positional coverage masks, owned services and
    /// mailbox control. Equivalent to absorbing the same compromises
    /// `other` absorbed, without re-walking their exposure lists.
    pub fn merge_from(&mut self, other: &InfoPool) {
        self.full.extend(other.full.iter().copied());
        for (&kind, cov) in &other.coverage {
            self.coverage.entry(kind).or_default().0 |= cov.0;
        }
        self.owned.extend(other.owned.iter().cloned());
        self.owns_email_provider |= other.owns_email_provider;
    }

    /// Whether the pool contributes anything beyond bare account
    /// ownership: full kinds, partial coverage, or mailbox control.
    /// Providers whose pools are uninformative can only matter to a
    /// target through a `LinkedAccount` factor naming them.
    pub(crate) fn is_informative(&self) -> bool {
        !self.full.is_empty() || !self.coverage.is_empty() || self.owns_email_provider
    }

    /// Canonical fingerprint of the pool's *transferable* knowledge:
    /// full kinds, positional coverage masks and mailbox control.
    /// Ownership is deliberately excluded — only `LinkedAccount`
    /// factors read it, and they name their provider explicitly — so
    /// two pools with equal signatures are interchangeable for every
    /// other factor.
    pub(crate) fn signature(&self) -> PoolSignature {
        let mut full_mask: u16 = 0;
        for (bit, k) in PersonalInfoKind::all().iter().enumerate() {
            if self.full.contains(k) {
                full_mask |= 1 << bit;
            }
        }
        // Only kinds with a canonical length ever enter `coverage`.
        let mut cov = [0u32; 3];
        for (&k, c) in &self.coverage {
            match k {
                PersonalInfoKind::CitizenId => cov[0] = c.0,
                PersonalInfoKind::BankcardNumber => cov[1] = c.0,
                PersonalInfoKind::CellphoneNumber => cov[2] = c.0,
                _ => {}
            }
        }
        (full_mask, cov, self.owns_email_provider)
    }

    /// Count of distinct identity facts known, the currency of the
    /// customer-service social-engineering path.
    pub fn identity_fact_count(&self, ap: &AttackerProfile) -> usize {
        let mut n = 0;
        for kind in [
            PersonalInfoKind::RealName,
            PersonalInfoKind::CitizenId,
            PersonalInfoKind::CellphoneNumber,
            PersonalInfoKind::Address,
            PersonalInfoKind::BankcardNumber,
            PersonalInfoKind::SecurityAnswers,
        ] {
            let from_ap = match kind {
                PersonalInfoKind::RealName | PersonalInfoKind::Address => ap.social_engineering_db,
                PersonalInfoKind::CellphoneNumber => ap.knows_phone_number,
                _ => false,
            };
            if from_ap || self.has_full(kind) {
                n += 1;
            }
        }
        n
    }
}

/// Canonical fingerprint of a pool's transferable knowledge — a bitmask
/// of fully known kinds (in [`PersonalInfoKind::all`] order), the three
/// positional coverage masks, and mailbox control. See
/// [`InfoPool::signature`].
pub(crate) type PoolSignature = (u16, [u32; 3], bool);

/// Whether a single factor is satisfiable from the profile plus pool.
pub fn factor_satisfied(factor: &CredentialFactor, ap: &AttackerProfile, pool: &InfoPool) -> bool {
    match factor {
        CredentialFactor::SmsCode => ap.sms_interception,
        CredentialFactor::CellphoneNumber => {
            ap.knows_phone_number || pool.has_full(PersonalInfoKind::CellphoneNumber)
        }
        CredentialFactor::EmailCode | CredentialFactor::EmailLink => {
            ap.email_interception || pool.owns_email_provider()
        }
        CredentialFactor::RealName => {
            ap.social_engineering_db || pool.has_full(PersonalInfoKind::RealName)
        }
        CredentialFactor::CitizenId => pool.has_full(PersonalInfoKind::CitizenId),
        CredentialFactor::BankcardNumber => pool.has_full(PersonalInfoKind::BankcardNumber),
        CredentialFactor::SecurityQuestion => pool.has_full(PersonalInfoKind::SecurityAnswers),
        CredentialFactor::CustomerService => pool.identity_fact_count(ap) >= 3,
        CredentialFactor::LinkedAccount(s) => pool.owns(s),
        // Secrets and robust factors are never satisfiable by harvesting.
        CredentialFactor::Password
        | CredentialFactor::TotpCode
        | CredentialFactor::Biometric
        | CredentialFactor::U2fKey
        | CredentialFactor::DeviceCheck
        | CredentialFactor::PushApproval
        | CredentialFactor::Passkey => false,
        _ => false,
    }
}

/// Whether every factor of `path` is satisfiable.
pub fn path_satisfied(path: &AuthPath, ap: &AttackerProfile, pool: &InfoPool) -> bool {
    path.factors.iter().all(|f| factor_satisfied(f, ap, pool))
}

/// Whether a path could *ever* be satisfied by any pool (i.e. contains no
/// intrinsically robust or secret factor). Used to prune the search.
pub fn path_potentially_attackable(path: &AuthPath) -> bool {
    path.factors.iter().all(|f| {
        !matches!(
            f,
            CredentialFactor::Password
                | CredentialFactor::TotpCode
                | CredentialFactor::Biometric
                | CredentialFactor::U2fKey
                | CredentialFactor::DeviceCheck
                | CredentialFactor::PushApproval
                | CredentialFactor::Passkey
        )
    })
}

/// The attack-relevant paths of a service on a platform: any sign-in,
/// reset or payment path free of robust/secret factors. Compromise via a
/// sign-in path yields the page; via a reset path yields full takeover.
pub fn attack_paths(spec: &ServiceSpec, platform: Platform) -> Vec<&AuthPath> {
    attack_paths_in(spec, platform, EdgeClass::All)
}

/// [`attack_paths`] restricted to one edge class: only paths whose
/// purpose the class admits. `EdgeClass::All` is exactly
/// [`attack_paths`].
pub fn attack_paths_in(
    spec: &ServiceSpec,
    platform: Platform,
    class: EdgeClass,
) -> Vec<&AuthPath> {
    spec.paths_on(platform)
        .into_iter()
        .filter(|p| class.admits(p.purpose) && path_potentially_attackable(p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use actfort_ecosystem::factor::CredentialFactor as F;
    use actfort_ecosystem::info::ExposedField;
    use actfort_ecosystem::policy::Purpose;

    fn ap() -> AttackerProfile {
        AttackerProfile::paper_default()
    }

    #[test]
    fn ap_satisfies_sms_and_phone() {
        let pool = InfoPool::new();
        assert!(factor_satisfied(&F::SmsCode, &ap(), &pool));
        assert!(factor_satisfied(&F::CellphoneNumber, &ap(), &pool));
        assert!(!factor_satisfied(&F::CitizenId, &ap(), &pool));
        assert!(!factor_satisfied(&F::Password, &ap(), &pool));
        assert!(!factor_satisfied(&F::U2fKey, &ap(), &pool));
    }

    #[test]
    fn compromising_ctrip_yields_citizen_id() {
        let ctrip = actfort_ecosystem::dataset::curated("ctrip").unwrap();
        let mut pool = InfoPool::new();
        assert!(!pool.has_full(PersonalInfoKind::CitizenId));
        pool.absorb_compromise(&ctrip, Platform::Web);
        assert!(pool.has_full(PersonalInfoKind::CitizenId));
        assert!(pool.owns(&ctrip.id));
        assert!(!pool.owns_email_provider());
    }

    #[test]
    fn email_provider_compromise_unlocks_email_codes() {
        let gmail = actfort_ecosystem::dataset::curated("gmail").unwrap();
        let mut pool = InfoPool::new();
        assert!(!factor_satisfied(&F::EmailCode, &ap(), &pool));
        pool.absorb_compromise(&gmail, Platform::Web);
        assert!(pool.owns_email_provider());
        assert!(factor_satisfied(&F::EmailCode, &ap(), &pool));
        assert!(factor_satisfied(&F::EmailLink, &ap(), &pool));
    }

    #[test]
    fn complementary_masks_merge_positionally() {
        // Xiaozhu: head (10,0); 12306: tail (0,8): union covers all 18.
        let xiaozhu = actfort_ecosystem::dataset::curated("xiaozhu").unwrap();
        let railway = actfort_ecosystem::dataset::curated("china-railway-12306").unwrap();
        let mut pool = InfoPool::new();
        pool.absorb_compromise(&xiaozhu, Platform::Web);
        assert!(!pool.has_full(PersonalInfoKind::CitizenId), "head alone is not enough");
        pool.absorb_compromise(&railway, Platform::Web);
        assert!(pool.has_full(PersonalInfoKind::CitizenId), "merged masks recover the ID");
    }

    #[test]
    fn overlapping_masks_do_not_fake_coverage() {
        let mut cov = Coverage::default();
        cov.add_mask(Masking::Partial { prefix: 4, suffix: 4 }, 18);
        cov.add_mask(Masking::Partial { prefix: 4, suffix: 4 }, 18);
        assert!(!cov.is_full(18));
        cov.add_mask(Masking::Partial { prefix: 14, suffix: 0 }, 18);
        assert!(cov.is_full(18));
    }

    #[test]
    fn photos_grant_citizen_id() {
        let pan = actfort_ecosystem::dataset::curated("baidu-pan").unwrap();
        let mut pool = InfoPool::new();
        pool.absorb_compromise(&pan, Platform::Web);
        assert!(pool.has_full(PersonalInfoKind::CitizenId));
    }

    #[test]
    fn customer_service_needs_three_facts() {
        let mut pool = InfoPool::new();
        let targeted = AttackerProfile::targeted(); // name + address + phone
        assert!(factor_satisfied(&F::CustomerService, &targeted, &pool));
        let basic = ap(); // only phone
        assert!(!factor_satisfied(&F::CustomerService, &basic, &pool));
        pool.add_full(PersonalInfoKind::RealName);
        pool.add_full(PersonalInfoKind::CitizenId);
        assert!(factor_satisfied(&F::CustomerService, &basic, &pool));
    }

    #[test]
    fn linked_account_requires_ownership() {
        let mut pool = InfoPool::new();
        let gmail_link = F::LinkedAccount("gmail".into());
        assert!(!factor_satisfied(&gmail_link, &ap(), &pool));
        pool.absorb_compromise(&actfort_ecosystem::dataset::curated("gmail").unwrap(), Platform::Web);
        assert!(factor_satisfied(&gmail_link, &ap(), &pool));
    }

    #[test]
    fn attack_path_pruning() {
        let bank = actfort_ecosystem::dataset::curated("union-bank").unwrap();
        assert!(attack_paths(&bank, Platform::Web).is_empty(), "U2F bank has no attackable path");
        let ctrip = actfort_ecosystem::dataset::curated("ctrip").unwrap();
        assert!(!attack_paths(&ctrip, Platform::Web).is_empty());
        let p = AuthPath::new(Purpose::SignIn, Platform::Web, vec![F::Password]);
        assert!(!path_potentially_attackable(&p));
    }

    #[test]
    fn masked_exposure_alone_is_not_full_knowledge() {
        let spec = ServiceSpec::builder("m", "M", ServiceDomain::Other)
            .path(Purpose::SignIn, Platform::Web, &[F::SmsCode])
            .expose_web(ExposedField::partial(PersonalInfoKind::RealName, 1, 0))
            .build();
        let mut pool = InfoPool::new();
        pool.absorb_compromise(&spec, Platform::Web);
        // RealName has no canonical length: partial exposure yields nothing.
        assert!(!pool.has_full(PersonalInfoKind::RealName));
    }
}
