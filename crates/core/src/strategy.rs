//! The strategy engine — §III-E's two queries behind one API.

use crate::analysis::{AttackChain, ForwardResult, MAX_BACKWARD_PARTIALS};
use crate::profile::AttackerProfile;
use crate::query::Analysis;
use crate::tdg::Tdg;
use actfort_ecosystem::factor::ServiceId;
use actfort_ecosystem::policy::{EdgeClass, Platform};
use actfort_ecosystem::spec::ServiceSpec;
use std::fmt::Write as _;

/// The query engine over one ecosystem snapshot.
#[derive(Debug)]
pub struct StrategyEngine {
    tdg: Tdg,
}

impl StrategyEngine {
    /// Builds the engine (constructing the TDG once; its backward query
    /// engine is built on the first backward query).
    pub fn new(specs: Vec<ServiceSpec>, platform: Platform, ap: AttackerProfile) -> Self {
        Self { tdg: Tdg::build(&specs, platform, ap) }
    }

    /// The underlying dependency graph.
    pub fn tdg(&self) -> &Tdg {
        &self.tdg
    }

    /// The analysed platform.
    pub fn platform(&self) -> Platform {
        self.tdg.platform()
    }

    /// Query 1 — forward: given already-compromised accounts (OAAS),
    /// return everything that falls (PAV). Seeds naming no service in
    /// the snapshot, or one not on its platform, are ignored. Served by
    /// the graph's own substrate, so no query compiles a new one.
    pub fn potential_victims(&self, seeds: &[ServiceId]) -> ForwardResult {
        let known: Vec<ServiceId> =
            seeds.iter().filter(|id| self.tdg.index_of(id).is_some()).cloned().collect();
        Analysis::of(&self.tdg)
            .forward(&known)
            .run()
            .expect("unknown seeds were filtered out")
    }

    /// Query 2 — backward: attack chains reaching `target` from
    /// phone+SMS-only fringe nodes, best (shortest) first. Served by the
    /// graph's own [`crate::BackwardEngine`], so repeated queries over
    /// the same snapshot reuse the graph index and fringe-support memo.
    /// Unknown targets yield no chains.
    pub fn backward_query(&self, target: &ServiceId, max_chains: usize) -> Vec<AttackChain> {
        self.tdg.backward().chains(target, max_chains, MAX_BACKWARD_PARTIALS, EdgeClass::All).0
    }

    /// Alias of [`Self::backward_query`] kept for the original API.
    pub fn attack_chains(&self, target: &ServiceId, max_chains: usize) -> Vec<AttackChain> {
        self.backward_query(target, max_chains)
    }

    /// The single best (shortest) chain for a target, if any.
    pub fn best_chain(&self, target: &ServiceId) -> Option<AttackChain> {
        self.attack_chains(target, 8).into_iter().next()
    }

    /// Human-readable rendering of a chain, e.g.
    /// `ctrip ⇒ alipay` or `[xiaozhu + china-railway-12306] ⇒ alipay`.
    pub fn render_chain(chain: &AttackChain) -> String {
        let mut out = String::new();
        for (i, step) in chain.steps.iter().enumerate() {
            if i > 0 {
                out.push_str(" ⇒ ");
            }
            if step.services.len() == 1 {
                let _ = write!(out, "{}", step.services[0]);
            } else {
                out.push('[');
                for (j, s) in step.services.iter().enumerate() {
                    if j > 0 {
                        out.push_str(" + ");
                    }
                    let _ = write!(out, "{s}");
                }
                out.push(']');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actfort_ecosystem::dataset::curated_services;

    fn engine(platform: Platform) -> StrategyEngine {
        StrategyEngine::new(curated_services(), platform, AttackerProfile::paper_default())
    }

    #[test]
    fn forward_query_exposes_pav() {
        let e = engine(Platform::Web);
        let r = e.potential_victims(&[]);
        assert!(r.compromised_count() > 20);
        assert!(r.potential_victims().contains(&"paypal".into()));
    }

    #[test]
    fn backward_query_produces_executable_plan() {
        let e = engine(Platform::MobileApp);
        let chain = e.best_chain(&"alipay".into()).expect("alipay reachable");
        let rendered = StrategyEngine::render_chain(&chain);
        assert!(rendered.ends_with("alipay"), "{rendered}");
        assert!(chain.len() >= 2, "alipay needs at least one middle account");
    }

    #[test]
    fn render_chain_formats_couples() {
        use crate::analysis::{AttackChain, ChainStep};
        let chain = AttackChain {
            steps: vec![
                ChainStep { services: vec!["a".into(), "b".into()] },
                ChainStep { services: vec!["t".into()] },
            ],
        };
        assert_eq!(StrategyEngine::render_chain(&chain), "[a + b] ⇒ t");
    }

    #[test]
    fn robust_target_has_no_chain() {
        let e = engine(Platform::Web);
        assert!(e.best_chain(&"union-bank".into()).is_none());
    }
}
