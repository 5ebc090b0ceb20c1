//! The TDG edge classifier against its `InfoPool` reference.
//!
//! `Tdg::build` decides fringe membership, full-capacity parents and
//! couples on the compiled substrate (`CPath::fires` over absorbed
//! providers). The reference below is the original classifier: one
//! `InfoPool` per provider, a pool clone per candidate group, and
//! `path_satisfied` on the attack paths themselves. The two must agree
//! field for field, in order, through the graph's public accessors —
//! including the candidate pre-filter's quirks (dead paths' factors
//! attract candidates, `Photos` counts toward `CitizenId`, and
//! `SecurityAnswers` does not count toward `CustomerService`), which
//! decide the triple-search gate and the per-target couple cut.

use actfort_core::pool::{attack_paths, attack_paths_in, factor_satisfied, path_satisfied, InfoPool};
use actfort_core::profile::AttackerProfile;
use actfort_core::tdg::{CoupleEntry, MAX_COUPLES_PER_TARGET, MAX_COUPLE_SIZE};
use actfort_core::{EdgeClass, Tdg};
use actfort_ecosystem::dataset::curated_services;
use actfort_ecosystem::policy::Platform;
use actfort_ecosystem::spec::ServiceSpec;
use actfort_ecosystem::synth::paper_population;
use std::collections::BTreeMap;

/// The reference classifier's output, indexed like the graph's nodes.
struct Reference {
    fringe: Vec<bool>,
    fringe_login: Vec<bool>,
    strong: Vec<Vec<usize>>,
    strong_login: Vec<Vec<bool>>,
    couples: Vec<CoupleEntry>,
}

/// Whether `provider` exposes information that partially covers `factor`
/// (masked views that could combine with others').
fn contributes_partially(
    factor: &actfort_ecosystem::factor::CredentialFactor,
    provider: &ServiceSpec,
    platform: Platform,
) -> bool {
    use actfort_ecosystem::factor::CredentialFactor as F;
    use actfort_ecosystem::info::{Masking, PersonalInfoKind as K};
    let exposes_some = |kind: K| {
        provider
            .exposure_on(platform)
            .iter()
            .any(|e| e.kind == kind && e.masking != Masking::Hidden)
    };
    match factor {
        F::CitizenId => exposes_some(K::CitizenId) || exposes_some(K::Photos),
        F::BankcardNumber => exposes_some(K::BankcardNumber),
        F::CellphoneNumber => exposes_some(K::CellphoneNumber),
        F::CustomerService => [K::RealName, K::CitizenId, K::Address, K::BankcardNumber, K::CellphoneNumber]
            .into_iter()
            .any(exposes_some),
        _ => false,
    }
}

/// The `InfoPool` classifier over `specs` (already platform-filtered,
/// in node order).
fn reference(specs: &[ServiceSpec], platform: Platform, ap: AttackerProfile) -> Reference {
    let n = specs.len();
    let empty_pool = InfoPool::new();

    // Fringe nodes: compromisable with the attacker profile alone.
    let fringe: Vec<bool> = specs
        .iter()
        .map(|s| attack_paths(s, platform).iter().any(|p| path_satisfied(p, &ap, &empty_pool)))
        .collect();
    let fringe_login: Vec<bool> = specs
        .iter()
        .map(|s| {
            attack_paths_in(s, platform, EdgeClass::LoginOnly)
                .iter()
                .any(|p| path_satisfied(p, &ap, &empty_pool))
        })
        .collect();

    // Single-provider pools, reused across all targets.
    let single_pools: Vec<InfoPool> = specs
        .iter()
        .map(|s| {
            let mut pool = InfoPool::new();
            pool.absorb_compromise(s, platform);
            pool
        })
        .collect();

    let mut strong: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut strong_login: Vec<Vec<bool>> = vec![Vec::new(); n];
    let mut couples: Vec<CoupleEntry> = Vec::new();

    for target in 0..n {
        let paths: Vec<_> = attack_paths(&specs[target], platform)
            .into_iter()
            .filter(|p| !path_satisfied(p, &ap, &empty_pool))
            .cloned()
            .collect();
        if paths.is_empty() {
            continue;
        }
        // Does a pool satisfy at least one *login-class* outstanding
        // path? Edges failing this carry only recovery-class paths.
        let login_sat = |pool: &InfoPool| {
            paths
                .iter()
                .any(|p| !p.purpose.is_recovery() && path_satisfied(p, &ap, pool))
        };

        // Full-capacity parents, each tagged with its login bit.
        let mut parents: BTreeMap<usize, bool> = BTreeMap::new();
        for (provider, pool) in single_pools.iter().enumerate() {
            if provider == target {
                continue;
            }
            if paths.iter().any(|p| path_satisfied(p, &ap, pool)) {
                parents.insert(provider, login_sat(pool));
            }
        }

        // Couple candidates: nodes that are not full parents but whose
        // exposure moves at least one unsatisfied factor — either by
        // satisfying it outright or by contributing partial (masked)
        // coverage of the needed information kind.
        let candidates: Vec<usize> = (0..n)
            .filter(|&j| j != target && !parents.contains_key(&j))
            .filter(|&j| {
                paths.iter().any(|p| {
                    p.factors.iter().any(|f| {
                        if factor_satisfied(f, &ap, &empty_pool) {
                            return false;
                        }
                        if factor_satisfied(f, &ap, &single_pools[j]) {
                            return true;
                        }
                        contributes_partially(f, &specs[j], platform)
                    })
                })
            })
            .collect();

        let mut target_couples = 0usize;
        'pairs: for (a_idx, &a) in candidates.iter().enumerate() {
            for &b in &candidates[a_idx + 1..] {
                let mut pool = single_pools[a].clone();
                pool.absorb_compromise(&specs[b], platform);
                if paths.iter().any(|p| path_satisfied(p, &ap, &pool)) {
                    let login = login_sat(&pool);
                    couples.push(CoupleEntry { providers: vec![a, b], target, login });
                    target_couples += 1;
                    if target_couples >= MAX_COUPLES_PER_TARGET {
                        break 'pairs;
                    }
                }
            }
        }
        // Triples only when pairs found nothing and the candidate set
        // is small (keeps the search tractable on 200+ services).
        if target_couples == 0 && candidates.len() <= 40 && MAX_COUPLE_SIZE >= 3 {
            'triples: for (a_idx, &a) in candidates.iter().enumerate() {
                for (b_off, &b) in candidates[a_idx + 1..].iter().enumerate() {
                    for &c in &candidates[a_idx + 1 + b_off + 1..] {
                        let mut pool = single_pools[a].clone();
                        pool.absorb_compromise(&specs[b], platform);
                        pool.absorb_compromise(&specs[c], platform);
                        if paths.iter().any(|p| path_satisfied(p, &ap, &pool)) {
                            let login = login_sat(&pool);
                            couples.push(CoupleEntry { providers: vec![a, b, c], target, login });
                            target_couples += 1;
                            if target_couples >= MAX_COUPLES_PER_TARGET {
                                break 'triples;
                            }
                        }
                    }
                }
            }
        }

        strong[target] = parents.keys().copied().collect();
        strong_login[target] = parents.values().copied().collect();
    }

    Reference { fringe, fringe_login, strong, strong_login, couples }
}

/// Asserts the production graph equals the reference on every profile
/// and platform; returns the couple count seen, so callers can tell the
/// couple search was exercised.
fn assert_equivalent(label: &str, specs: &[ServiceSpec]) -> usize {
    let profiles = [
        ("paper_default", AttackerProfile::paper_default()),
        ("targeted", AttackerProfile::targeted()),
        ("none", AttackerProfile::none()),
    ];
    let mut couples = 0;
    for (name, ap) in profiles {
        for platform in [Platform::Web, Platform::MobileApp] {
            let at = format!("{label} {platform:?} {name}");
            let tdg = Tdg::build(specs, platform, ap);
            let want = reference(tdg.specs(), platform, ap);
            for i in 0..tdg.node_count() {
                assert_eq!(tdg.is_fringe_in(i, EdgeClass::All), want.fringe[i], "{at}: fringe {i}");
                assert_eq!(
                    tdg.is_fringe_in(i, EdgeClass::LoginOnly),
                    want.fringe_login[i],
                    "{at}: login fringe {i}"
                );
                let all: Vec<usize> = tdg.strong_parents_in(i, EdgeClass::All).collect();
                assert_eq!(all, want.strong[i], "{at}: parents of {i}");
                let edges = || want.strong[i].iter().zip(&want.strong_login[i]);
                let login: Vec<usize> = tdg.strong_parents_in(i, EdgeClass::LoginOnly).collect();
                let want_login: Vec<usize> = edges().filter(|e| *e.1).map(|e| *e.0).collect();
                assert_eq!(login, want_login, "{at}: login parents of {i}");
                // Recovery-only edges are All ∖ LoginOnly (the graph does
                // not materialise that class itself).
                let recovery: Vec<usize> = all.iter().copied().filter(|p| !login.contains(p)).collect();
                let want_recovery: Vec<usize> = edges().filter(|e| !*e.1).map(|e| *e.0).collect();
                assert_eq!(recovery, want_recovery, "{at}: recovery-only parents of {i}");
            }
            assert_eq!(tdg.couples(), want.couples.as_slice(), "{at}: couple file");
            couples += want.couples.len();
        }
    }
    couples
}

#[test]
fn curated_population_matches_reference() {
    let couples = assert_equivalent("curated", &curated_services());
    assert!(couples > 0, "the curated graphs carry couples");
}

#[test]
fn paper_seed_0_matches_reference() {
    assert_equivalent("paper:0", &paper_population(0));
}

#[test]
fn paper_seed_1_matches_reference() {
    assert_equivalent("paper:1", &paper_population(1));
}

#[test]
fn paper_seed_2_matches_reference() {
    assert_equivalent("paper:2", &paper_population(2));
}

#[test]
fn paper_seed_7_matches_reference() {
    assert_equivalent("paper:7", &paper_population(7));
}

#[test]
fn paper_seed_42_matches_reference() {
    assert_equivalent("paper:42", &paper_population(42));
}

#[test]
fn paper_seed_2021_matches_reference() {
    let couples = assert_equivalent("paper:2021", &paper_population(2021));
    assert!(couples > 0, "the paper graphs carry couples");
}

#[test]
fn paper_seed_2022_matches_reference() {
    assert_equivalent("paper:2022", &paper_population(2022));
}
