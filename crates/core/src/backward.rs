//! Best-first backward-query engine — the production implementation
//! behind the query facade's backward path. Each [`Tdg`] owns one,
//! built on first use ([`Tdg::backward`]); every `Engine::Auto`
//! backward query runs it, at every population size.
//!
//! The reference BFS (`Engine::Naive` in the facade) clones
//! a full `Partial` — step lists, unresolved stack, visited set — on
//! every expansion, which is exponential in both time and allocation on
//! dense graphs. This engine explores the same option tree but:
//!
//! - orders the frontier **best-first** by `(steps, accounts_touched)`
//!   with slab-index FIFO tie-breaking, so completions arrive in
//!   non-decreasing cost order and the search can stop at a provable
//!   cost cutoff once `max_chains` distinct chains exist;
//! - interns step lists in an **arena** of `(group, prev)` nodes shared
//!   between siblings, so a child allocates one arena slot instead of
//!   re-cloning the whole reversed chain;
//! - keeps visited sets as per-node **bitsets** (`Vec<u64>` words);
//! - memoizes per-node **fringe support** (can this subtree bottom out
//!   at phone+SMS fringe nodes at all?) as a least fixed point computed
//!   once per graph, and prunes expansions into unsupported subtrees;
//! - prunes over-budget partials **individually** instead of aborting
//!   the queue (the bug the regression test in `analysis` pins).
//!
//! Equivalence with the naive reference is property-tested in
//! `tests/backward_props.rs`; the argument is spelled out in
//! DESIGN.md §10.

use crate::analysis::{canonicalize_chains, AttackChain, ChainStep, MAX_CHAIN_STEPS};
use crate::obs;
use crate::prepared::{bit, set_bit};
use crate::tdg::Tdg;
use actfort_ecosystem::factor::ServiceId;
use actfort_ecosystem::policy::EdgeClass;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use std::sync::Arc;

/// Arena sentinel: no predecessor step.
const NIL: u32 = u32::MAX;

/// One step group along a reversed chain.
#[derive(Clone, Copy)]
enum Group {
    /// A single node (the target seed or a full-capacity parent).
    Single(u32),
    /// The `k`-th couple entry unlocking `node`.
    Couple { node: u32, k: u32 },
}

/// Arena-interned reversed step list: `group` is the newest step,
/// `prev` links the rest ([`NIL`] terminates at the target).
#[derive(Clone, Copy)]
struct StepNode {
    group: Group,
    prev: u32,
}

/// A partial chain awaiting resolution. Step lists live in the arena;
/// only the small unresolved stack and the visited bitset are owned.
struct Partial {
    /// Newest arena step (the deepest group found so far). The cost
    /// components (steps, accounts) travel in the heap key.
    tail: u32,
    /// Nodes whose support is still unresolved, front first.
    unresolved: Vec<u32>,
    /// Visited bitset, one bit per graph node.
    visited: Vec<u64>,
}

/// The flattened adjacency and fringe-support memo for one edge-class
/// view of the TDG. The engine keeps one per materialised class so a
/// single prewarmed engine serves both `All` and `LoginOnly` queries.
#[derive(Debug)]
struct ClassGraph {
    fringe: Vec<bool>,
    /// `strong[child]` = full-capacity parents, ascending.
    strong: Vec<Vec<u32>>,
    /// `couples[target]` = provider groups, Couple-File order.
    couples: Vec<Vec<Vec<u32>>>,
    /// Fringe-support memo: `support[v]` ⇔ some expansion subtree of
    /// `v` bottoms out entirely at fringe nodes (ignoring visited-set
    /// constraints — a sound over-approximation, since visited sets
    /// only remove options). Least fixed point of
    /// `support[v] = fringe[v] ∨ ∃ supported strong parent ∨
    ///  ∃ couple with all providers supported`.
    support: Vec<bool>,
}

impl ClassGraph {
    fn build(tdg: &Tdg, class: EdgeClass) -> Self {
        let n = tdg.node_count();
        let fringe: Vec<bool> = (0..n).map(|i| tdg.is_fringe_in(i, class)).collect();
        let strong: Vec<Vec<u32>> = (0..n)
            .map(|i| tdg.strong_parents_in(i, class).map(|p| p as u32).collect())
            .collect();
        let mut couples: Vec<Vec<Vec<u32>>> = vec![Vec::new(); n];
        for entry in tdg.couples() {
            if class == EdgeClass::All || entry.login {
                couples[entry.target].push(entry.providers.iter().map(|&p| p as u32).collect());
            }
        }

        let mut support = fringe.clone();
        loop {
            let mut changed = false;
            for v in 0..n {
                if support[v] {
                    continue;
                }
                let ok = strong[v].iter().any(|&p| support[p as usize])
                    || couples[v].iter().any(|c| c.iter().all(|&p| support[p as usize]));
                if ok {
                    support[v] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        Self { fringe, strong, couples, support }
    }
}

/// The two classes the engine materialises: `RecoveryOnly` chains are
/// answered at the query facade as the canonical difference
/// `All ∖ LoginOnly`, so no third graph exists.
fn graph_index(class: EdgeClass) -> usize {
    match class {
        EdgeClass::All => 0,
        EdgeClass::LoginOnly => 1,
        EdgeClass::RecoveryOnly => {
            panic!("RecoveryOnly is resolved as All ∖ LoginOnly at the query facade")
        }
    }
}

/// The backward query engine over one TDG snapshot. The graph owns one
/// ([`Tdg::backward`] builds it on first use) and every production
/// backward query runs it: the fringe-support memos and the flattened
/// adjacencies (one per materialised edge class) are per-graph, not
/// per-query. Cloning is cheap — the built state sits behind one `Arc`.
#[derive(Debug, Clone)]
pub struct BackwardEngine {
    inner: Arc<EngineGraphs>,
}

#[derive(Debug)]
struct EngineGraphs {
    ids: Vec<ServiceId>,
    /// `[All, LoginOnly]` views of the same TDG.
    graphs: [ClassGraph; 2],
}

impl BackwardEngine {
    /// Builds the engine: flattens the TDG adjacency and resolves the
    /// per-node fringe-support memo to its least fixed point, once for
    /// the full graph and once for the login-only view. Prefer
    /// [`Tdg::backward`], which builds it once per graph.
    pub fn new(tdg: &Tdg) -> Self {
        let _span = obs::span("backward.build");
        let n = tdg.node_count();
        let ids: Vec<ServiceId> = (0..n).map(|i| tdg.spec(i).id.clone()).collect();
        let graphs = [
            ClassGraph::build(tdg, EdgeClass::All),
            ClassGraph::build(tdg, EdgeClass::LoginOnly),
        ];
        Self { inner: Arc::new(EngineGraphs { ids, graphs }) }
    }

    /// Number of graph nodes.
    pub fn node_count(&self) -> usize {
        self.inner.ids.len()
    }

    /// Whether any chain to `target` can exist at all (the fringe-support
    /// memo for its node). `false` short-circuits [`Self::chains`].
    pub fn is_reachable(&self, target: &ServiceId) -> bool {
        self.inner
            .ids
            .iter()
            .position(|id| id == target)
            .map(|t| self.inner.graphs[0].support[t])
            .unwrap_or(false)
    }

    /// The backward query: up to `max_chains` attack chains ending at
    /// `target` under an edge-class filter (`All` or `LoginOnly`; the
    /// query facade answers `RecoveryOnly` as the difference
    /// `All ∖ LoginOnly`), in the canonical order (fewest steps, fewest
    /// accounts, then lexicographic). Also reports whether the search
    /// was exhaustive (`true`) or cut short by `partial_budget`
    /// (`false`). The budget caps both slab creations (memory) and heap
    /// pops (time); step-depth prunes do not affect exhaustiveness,
    /// matching the naive reference's semantics.
    pub fn chains(
        &self,
        target: &ServiceId,
        max_chains: usize,
        partial_budget: usize,
        class: EdgeClass,
    ) -> (Vec<AttackChain>, bool) {
        let EngineGraphs { ids, graphs } = &*self.inner;
        let graph = &graphs[graph_index(class)];
        let _span = obs::span("backward.chains");
        let explored = obs::counter("backward.partials_explored");
        let memo_hits = obs::counter("backward.memo_hits");
        let pruned_bound = obs::counter("backward.pruned_bound");
        let pruned_visited = obs::counter("backward.pruned_visited");

        let Some(t) = ids.iter().position(|id| id == target) else {
            return (Vec::new(), true);
        };
        if max_chains == 0 {
            return (Vec::new(), true);
        }
        if !graph.support[t] {
            // The memo already proves no chain exists.
            memo_hits.inc();
            return (Vec::new(), true);
        }

        let words = ids.len().div_ceil(64);
        let mut arena: Vec<StepNode> = Vec::new();
        let mut slab: Vec<Option<Partial>> = Vec::new();
        // Min-heap on (steps, accounts, slab index): the slab index is
        // allocation order, giving the FIFO tie-break that makes the
        // search deterministic.
        let mut heap: BinaryHeap<Reverse<(u16, u16, u32)>> = BinaryHeap::new();
        let mut seen: BTreeSet<Vec<ChainStep>> = BTreeSet::new();

        arena.push(StepNode { group: Group::Single(t as u32), prev: NIL });
        let mut visited = vec![0u64; words];
        set_bit(&mut visited, t as u32);
        slab.push(Some(Partial { tail: 0, unresolved: vec![t as u32], visited }));
        heap.push(Reverse((1, 1, 0)));

        let mut out: Vec<AttackChain> = Vec::new();
        let mut duplicates = 0u64;
        // Once `max_chains` distinct chains exist, every chain the
        // canonical top-k can still contain costs at most this much:
        // pops are non-decreasing in (steps, accounts), so the k-th
        // distinct completion's cost bounds the k smallest costs over
        // all chains. Collect everything at the cutoff cost too — the
        // lexicographic tie-break is settled by canonicalize_chains.
        let mut cutoff: Option<(u16, u16)> = None;
        let mut popped = 0usize;
        let mut exhaustive = true;

        while let Some(Reverse((steps, accounts, idx))) = heap.pop() {
            if let Some(c) = cutoff {
                if (steps, accounts) > c {
                    break;
                }
            }
            if popped >= partial_budget {
                pruned_bound.inc();
                exhaustive = false;
                break;
            }
            popped += 1;
            explored.inc();
            let mut partial = slab[idx as usize].take().expect("slab entry popped once");

            // Strip leading fringe nodes: they need no support and add
            // no step (the naive loop spends one queue cycle per strip;
            // collapsing them is cost-neutral).
            while let Some(&node) = partial.unresolved.first() {
                if !graph.fringe[node as usize] {
                    break;
                }
                partial.unresolved.remove(0);
            }

            let Some(&node) = partial.unresolved.first() else {
                // Everything resolved: materialize by walking the arena
                // tail-first, which is already execution order (deepest
                // group first, target last).
                let mut chain_steps: Vec<ChainStep> = Vec::with_capacity(steps as usize);
                let mut cursor = partial.tail;
                while cursor != NIL {
                    let StepNode { group, prev } = arena[cursor as usize];
                    let services = match group {
                        Group::Single(p) => vec![ids[p as usize].clone()],
                        Group::Couple { node, k } => graph.couples[node as usize][k as usize]
                            .iter()
                            .map(|&p| ids[p as usize].clone())
                            .collect(),
                    };
                    chain_steps.push(ChainStep { services });
                    cursor = prev;
                }
                if seen.insert(chain_steps.clone()) {
                    out.push(AttackChain { steps: chain_steps });
                    if out.len() == max_chains {
                        cutoff = Some((steps, accounts));
                    }
                } else {
                    duplicates += 1;
                }
                continue;
            };
            let rest = &partial.unresolved[1..];

            let push_child = |arena: &mut Vec<StepNode>,
                                  slab: &mut Vec<Option<Partial>>,
                                  heap: &mut BinaryHeap<Reverse<(u16, u16, u32)>>,
                                  exhaustive: &mut bool,
                                  group: Group,
                                  providers: &[u32]| {
                let child_steps = steps + 1;
                if child_steps as usize > MAX_CHAIN_STEPS {
                    pruned_bound.inc();
                    return;
                }
                // Same creation valve as the naive reference: capping
                // the slab bounds memory, not just iteration count.
                if slab.len() >= partial_budget {
                    pruned_bound.inc();
                    *exhaustive = false;
                    return;
                }
                let child_accounts = accounts + providers.len() as u16;
                arena.push(StepNode { group, prev: partial.tail });
                let tail = (arena.len() - 1) as u32;
                let mut unresolved = Vec::with_capacity(rest.len() + providers.len());
                unresolved.extend_from_slice(rest);
                unresolved.extend_from_slice(providers);
                let mut visited = partial.visited.clone();
                for &p in providers {
                    set_bit(&mut visited, p);
                }
                let idx = slab.len() as u32;
                slab.push(Some(Partial { tail, unresolved, visited }));
                heap.push(Reverse((child_steps, child_accounts, idx)));
            };

            // Expand via full-capacity parents …
            for &parent in &graph.strong[node as usize] {
                if bit(&partial.visited, parent) {
                    pruned_visited.inc();
                    continue;
                }
                if !graph.support[parent as usize] {
                    // Memo: this subtree can never bottom out at fringe.
                    memo_hits.inc();
                    continue;
                }
                push_child(
                    &mut arena,
                    &mut slab,
                    &mut heap,
                    &mut exhaustive,
                    Group::Single(parent),
                    &[parent],
                );
            }
            // … then via merged couple groups.
            for (k, providers) in graph.couples[node as usize].iter().enumerate() {
                if providers.iter().any(|&p| bit(&partial.visited, p)) {
                    pruned_visited.inc();
                    continue;
                }
                if !providers.iter().all(|&p| graph.support[p as usize]) {
                    memo_hits.inc();
                    continue;
                }
                let group = Group::Couple { node, k: k as u32 };
                push_child(&mut arena, &mut slab, &mut heap, &mut exhaustive, group, providers);
            }
        }

        obs::add("backward.dedup_dropped", duplicates);
        let out = canonicalize_chains(out, max_chains);
        obs::add("backward.chains_found", out.len() as u64);
        (out, exhaustive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{backward_chains_naive_budget, MAX_BACKWARD_PARTIALS};
    use crate::profile::AttackerProfile;
    use actfort_ecosystem::dataset::curated_services;
    use actfort_ecosystem::policy::Platform;

    fn graph(platform: Platform) -> Tdg {
        Tdg::build(&curated_services(), platform, AttackerProfile::paper_default())
    }

    fn top(engine: &BackwardEngine, target: &ServiceId, max_chains: usize) -> Vec<AttackChain> {
        engine.chains(target, max_chains, MAX_BACKWARD_PARTIALS, EdgeClass::All).0
    }

    #[test]
    fn engine_matches_naive_on_curated_services() {
        for platform in [Platform::Web, Platform::MobileApp] {
            let tdg = graph(platform);
            let engine = BackwardEngine::new(&tdg);
            for i in 0..tdg.node_count() {
                let id = tdg.spec(i).id.clone();
                for max_chains in [1, 3, 8] {
                    assert_eq!(
                        top(&engine, &id, max_chains),
                        backward_chains_naive_budget(&tdg, &id, max_chains, MAX_BACKWARD_PARTIALS, EdgeClass::All)
                            .0,
                        "{platform:?}/{id}/max_chains={max_chains}"
                    );
                }
            }
        }
    }

    #[test]
    fn support_memo_is_a_fixed_point() {
        let tdg = graph(Platform::Web);
        let engine = BackwardEngine::new(&tdg);
        for (gi, class) in [(0, EdgeClass::All), (1, EdgeClass::LoginOnly)] {
            let support = &engine.inner.graphs[gi].support;
            for v in 0..tdg.node_count() {
                let expect = tdg.is_fringe_in(v, class)
                    || tdg.strong_parents_in(v, class).any(|p| support[p])
                    || tdg
                        .couples_for_in(v, class)
                        .iter()
                        .any(|c| c.providers.iter().all(|&p| support[p]));
                assert_eq!(
                    support[v],
                    expect,
                    "{class:?} support[{}] not a fixed point",
                    tdg.spec(v).id
                );
            }
        }
    }

    #[test]
    fn unsupported_target_short_circuits() {
        let tdg = graph(Platform::Web);
        let engine = BackwardEngine::new(&tdg);
        assert!(!engine.is_reachable(&"union-bank".into()));
        assert!(top(&engine, &"union-bank".into(), 8).is_empty());
        assert!(!engine.is_reachable(&"nonexistent".into()));
        assert!(engine.is_reachable(&"alipay".into()));
    }

    #[test]
    fn chains_arrive_in_canonical_order() {
        let tdg = graph(Platform::MobileApp);
        let engine = BackwardEngine::new(&tdg);
        let chains = top(&engine, &"alipay".into(), 8);
        assert!(!chains.is_empty());
        for pair in chains.windows(2) {
            assert!(
                crate::analysis::chain_order(&pair[0], &pair[1]).is_le(),
                "chains out of canonical order"
            );
        }
    }

    #[test]
    fn max_chains_zero_returns_nothing() {
        let tdg = graph(Platform::Web);
        let engine = BackwardEngine::new(&tdg);
        assert!(top(&engine, &"paypal".into(), 0).is_empty());
    }
}
