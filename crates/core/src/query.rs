//! The unified query facade — one front door for every analysis.
//!
//! [`Analysis`] is the single builder every analysis goes through:
//! pick a *source* (a built [`Tdg`] or raw specs), a *direction*
//! (forward seeds or a backward target), then tune knobs and `run()`.
//! Engine selection is explicit ([`Engine`]) and follows one rule in
//! every direction: [`Engine::Naive`] runs the reference oracle, and
//! anything else runs the production engine — the prepared substrate
//! for forward and score queries, the graph-owned best-first
//! [`BackwardEngine`] ([`Tdg::backward`]) for backward queries.
//!
//! Every query accepts an [`EdgeClass`] filter (default
//! [`EdgeClass::All`], which is byte-identical to the unfiltered
//! behaviour). [`EdgeClass::LoginOnly`] hides recovery-class attack
//! paths; [`EdgeClass::RecoveryOnly`] admits only them. Forward and
//! score queries evaluate `RecoveryOnly` directly (the engines filter
//! path satisfaction); backward queries answer it as the canonical set
//! difference `chains(All) ∖ chains(LoginOnly)` — exactly the chains
//! with no pure-login derivation, i.e. those needing at least one
//! recovery edge.
//!
//! ```
//! use actfort_core::profile::AttackerProfile;
//! use actfort_core::query::{Analysis, Engine};
//! use actfort_core::tdg::Tdg;
//! use actfort_ecosystem::dataset::curated_services;
//! use actfort_ecosystem::policy::Platform;
//!
//! let specs = curated_services();
//! let ap = AttackerProfile::paper_default();
//!
//! // Forward: who falls, starting from the attacker profile alone?
//! let result = Analysis::over(&specs, Platform::Web, ap).forward(&[]).run().unwrap();
//! assert!(result.compromised_count() > 0);
//!
//! // Backward: how do we reach Alipay? (Graph built once, reusable.)
//! let tdg = Tdg::build(&specs, Platform::MobileApp, ap);
//! let chains = Analysis::of(&tdg).backward(&"alipay".into()).max_chains(4).run().unwrap();
//! assert!(!chains.is_empty());
//!
//! // The naive reference oracle is one knob away.
//! let naive = Analysis::over(&specs, Platform::Web, ap)
//!     .forward(&[])
//!     .engine(Engine::Naive)
//!     .run()
//!     .unwrap();
//! assert_eq!(naive, result);
//! ```
//!
//! Every `run()` returns `Result<_, `[`Error`]`>`: unknown service ids
//! and malformed knobs surface as typed client errors instead of being
//! silently ignored (the old free functions dropped unknown seeds and
//! returned empty chain lists for unknown targets).

use crate::analysis::{
    backward_chains_naive_budget, forward_naive_impl, AttackChain, ForwardResult,
    MAX_BACKWARD_PARTIALS,
};
use crate::backward::BackwardEngine;
use crate::batch::BatchAnalyzer;
use crate::counter::{canonical_set, Countermeasure, Patcher};
use crate::error::Error;
use crate::metrics::{breakdown_of, DepthBreakdown};
use crate::obs;
use crate::prepared::Prepared;
use crate::profile::AttackerProfile;
use crate::score::{UserProfile, UserScore};
use crate::tdg::Tdg;
use actfort_ecosystem::factor::ServiceId;
use actfort_ecosystem::policy::{EdgeClass, Platform};
use actfort_ecosystem::spec::ServiceSpec;
use std::borrow::Cow;
use std::sync::Arc;

/// Which implementation serves a query. Results are engine-independent
/// (property tested); only the work schedule differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The production engine, at every population size. Forward and
    /// score queries run on the interned analysis substrate
    /// ([`crate::Prepared`]): compile the population once into
    /// bitset/integer-coded form, then run the fixed point on scratch
    /// buffers (score queries take the 64-lane schedule). Backward
    /// queries run the graph's best-first arena [`BackwardEngine`]
    /// ([`Tdg::backward`]).
    #[default]
    Auto,
    /// The reference implementation: full-rescan fixed point for
    /// forward, the scalar one-user-at-a-time loop for score,
    /// clone-heavy BFS for backward. Kept for equivalence proofs and
    /// baselines.
    Naive,
}

/// Where a query reads its population from.
enum Source<'a> {
    /// A built dependency graph (snapshot); backward queries run its
    /// own engine.
    Graph(&'a Tdg),
    /// Raw service specs; backward queries build a graph on demand.
    Raw { specs: &'a [ServiceSpec], platform: Platform, ap: AttackerProfile },
}

impl Source<'_> {
    fn specs(&self) -> &[ServiceSpec] {
        match self {
            Source::Graph(tdg) => tdg.specs(),
            Source::Raw { specs, .. } => specs,
        }
    }

    fn platform(&self) -> Platform {
        match self {
            Source::Graph(tdg) => tdg.platform(),
            Source::Raw { platform, .. } => *platform,
        }
    }

    fn profile(&self) -> AttackerProfile {
        match self {
            Source::Graph(tdg) => tdg.attacker_profile(),
            Source::Raw { ap, .. } => *ap,
        }
    }

    /// Whether `id` names any service in the population (on any
    /// platform — platform eligibility is the engines' concern). A
    /// graph source holds only its platform's services and answers from
    /// the substrate's id map.
    fn knows(&self, id: &ServiceId) -> bool {
        match self {
            Source::Graph(tdg) => tdg.index_of(id).is_some(),
            Source::Raw { specs, .. } => specs.iter().any(|s| &s.id == id),
        }
    }

    /// Runs `f` against the prepared substrate: a graph source already
    /// owns one (built at [`Tdg::build`]); a raw source compiles it
    /// here — once per query, however many seeds sets or user profiles
    /// the query covers.
    fn with_substrate<R>(&self, f: impl FnOnce(&Prepared) -> R) -> R {
        match self {
            Source::Graph(tdg) => f(tdg.prepared()),
            Source::Raw { specs, platform, ap } => f(&Prepared::new(specs, *platform, *ap)),
        }
    }

    /// The substrate as a shareable handle: a graph source clones its
    /// existing `Arc`, a raw source compiles one here.
    fn substrate_arc(&self) -> Arc<Prepared> {
        match self {
            Source::Graph(tdg) => Arc::clone(tdg.prepared()),
            Source::Raw { specs, platform, ap } => {
                Arc::new(Prepared::new(specs, *platform, *ap))
            }
        }
    }

    /// The dependency graph: a graph source borrows itself, a raw
    /// source builds one here.
    fn graph(&self) -> Cow<'_, Tdg> {
        match self {
            Source::Graph(tdg) => Cow::Borrowed(*tdg),
            Source::Raw { specs, platform, ap } => Cow::Owned(Tdg::build(specs, *platform, *ap)),
        }
    }
}

/// The facade entry point: pick a source, then a direction.
///
/// See the [module docs](self) for the full tour.
pub struct Analysis<'a> {
    source: Source<'a>,
}

impl<'a> Analysis<'a> {
    /// Analyse a built dependency graph. Backward queries run its own
    /// engine; forward queries run over its spec set, platform and
    /// attacker profile.
    pub fn of(tdg: &'a Tdg) -> Self {
        Self { source: Source::Graph(tdg) }
    }

    /// Analyse raw service specs under `platform` and `ap` without
    /// building a graph up front (backward queries build one on
    /// demand).
    pub fn over(specs: &'a [ServiceSpec], platform: Platform, ap: AttackerProfile) -> Self {
        Self { source: Source::Raw { specs, platform, ap } }
    }

    /// A forward (OAAS → PAV) query seeded with `seeds` (empty means
    /// the attacker profile alone drives round one — the paper's
    /// standard setting).
    pub fn forward(self, seeds: &'a [ServiceId]) -> ForwardQuery<'a> {
        ForwardQuery {
            source: self.source,
            seeds,
            engine: Engine::Auto,
            memo: true,
            threads: None,
            class: EdgeClass::All,
            trace: None,
        }
    }

    /// A backward query for attack chains ending at `target`.
    pub fn backward(self, target: &'a ServiceId) -> BackwardQuery<'a> {
        BackwardQuery {
            source: self.source,
            target,
            max_chains: 8,
            budget: None,
            engine: Engine::Auto,
            class: EdgeClass::All,
            trace: None,
        }
    }

    /// A countermeasure what-if query: the base population versus the
    /// same population with `cms` applied, answered through the compiled
    /// patch overlay ([`crate::counter::Patcher`]) instead of a full
    /// recompile. Returns before/after depth breakdowns, the services
    /// the set protects, and the backward chains it severs.
    pub fn whatif(self, cms: &'a [Countermeasure]) -> WhatifQuery<'a> {
        WhatifQuery {
            source: self.source,
            cms,
            patcher: None,
            chains_per_target: 2,
            max_severed: 16,
            class: EdgeClass::All,
            trace: None,
        }
    }

    /// A per-user scoring query over a batch of [`UserProfile`]s: each
    /// user's concrete delta (services held, factors enabled) is scored
    /// against the shared compiled base, which is prepared **once** for
    /// the whole batch regardless of its size.
    pub fn score_users(self, profiles: &'a [UserProfile]) -> ScoreQuery<'a> {
        ScoreQuery {
            source: self.source,
            profiles,
            engine: Engine::Auto,
            class: EdgeClass::All,
            trace: None,
        }
    }
}

/// A configured forward query. Build with [`Analysis::forward`].
pub struct ForwardQuery<'a> {
    source: Source<'a>,
    seeds: &'a [ServiceId],
    engine: Engine,
    memo: bool,
    threads: Option<usize>,
    class: EdgeClass,
    trace: Option<&'static str>,
}

impl<'a> ForwardQuery<'a> {
    /// Selects the implementation (default [`Engine::Auto`]).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Restricts which attack-path classes may fire (default
    /// [`EdgeClass::All`], byte-identical to the unfiltered query).
    /// `LoginOnly` hides recovery flows; `RecoveryOnly` admits only
    /// them. The set difference `compromised(All) ∖
    /// compromised(LoginOnly)` is "accounts that fall *only* through
    /// recovery".
    pub fn edge_class(mut self, class: EdgeClass) -> Self {
        self.class = class;
        self
    }

    /// Toggles the prepared engine's cross-round `min_providers` memo
    /// (default on; ignored by the naive engine, which has none).
    pub fn memo(mut self, enabled: bool) -> Self {
        self.memo = enabled;
        self
    }

    /// Worker count for [`Self::run_each`] (default: the
    /// `ACTFORT_THREADS` override or the parallelism probe, via
    /// [`BatchAnalyzer::from_env`]).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Wraps the run in an `obs` span named `label`, so it appears as
    /// its own subtree in trace snapshots. (Span names are `'static`,
    /// matching the `obs` recorder's interning contract.)
    pub fn trace(mut self, label: &'static str) -> Self {
        self.trace = Some(label);
        self
    }

    fn validate(&self) -> Result<(), Error> {
        if let Some(seed) = self.seeds.iter().find(|s| !self.source.knows(s)) {
            return Err(Error::UnknownService(seed.to_string()));
        }
        Ok(())
    }

    fn dispatch(&self, seeds: &[ServiceId]) -> ForwardResult {
        if self.engine != Engine::Naive {
            obs::add("analysis.dispatch_prepared", 1);
            self.source
                .with_substrate(|p| p.forward(&mut p.scratch(), self.class, seeds, self.memo))
        } else {
            obs::add("analysis.dispatch_naive", 1);
            let ap = self.source.profile();
            forward_naive_impl(self.source.specs(), self.source.platform(), &ap, seeds, self.class)
        }
    }

    /// Runs the query. Fails with [`Error::UnknownService`] if a seed
    /// names a service absent from the population (the old free
    /// functions silently ignored such seeds).
    pub fn run(&self) -> Result<ForwardResult, Error> {
        self.validate()?;
        let _span = self.trace.map(obs::span);
        Ok(self.dispatch(self.seeds))
    }

    /// Runs one analysis per seed set, sharded across the
    /// [`BatchAnalyzer`] thread pool, results in input order. The seeds
    /// given at [`Analysis::forward`] are prepended to every set.
    ///
    /// When the prepared substrate serves the query, it is compiled
    /// **once** (or borrowed from the graph source) and shared read-only
    /// across all workers, each reusing one scratch buffer — the whole
    /// point of preparation: the sweep parallelizes the fixed points,
    /// not redundant index builds.
    pub fn run_each(&self, seed_sets: &[Vec<ServiceId>]) -> Result<Vec<ForwardResult>, Error> {
        self.validate()?;
        for set in seed_sets {
            if let Some(seed) = set.iter().find(|s| !self.source.knows(s)) {
                return Err(Error::UnknownService(seed.to_string()));
            }
        }
        let analyzer = match self.threads {
            Some(n) => BatchAnalyzer::new(n),
            None => BatchAnalyzer::from_env()?,
        };
        let _span = self.trace.map(obs::span);
        if self.engine != Engine::Naive {
            return Ok(self.source.with_substrate(|prepared| {
                analyzer.run_with(
                    seed_sets,
                    || prepared.scratch(),
                    |scratch, set| {
                        obs::add("analysis.dispatch_prepared", 1);
                        let seeds = self.with_query_seeds(set);
                        prepared.forward(scratch, self.class, &seeds, self.memo)
                    },
                )
            }));
        }
        Ok(analyzer.run(seed_sets, |set| self.dispatch(&self.with_query_seeds(set))))
    }

    /// `set` with the seeds given at [`Analysis::forward`] prepended.
    fn with_query_seeds<'s>(&self, set: &'s [ServiceId]) -> Cow<'s, [ServiceId]> {
        if self.seeds.is_empty() {
            Cow::Borrowed(set)
        } else {
            Cow::Owned(self.seeds.iter().chain(set).cloned().collect())
        }
    }
}

/// A configured per-user scoring query. Build with
/// [`Analysis::score_users`].
///
/// Both engines run on the prepared substrate (overlays only exist
/// there); the knob selects the *schedule*: the 64-lane bit-parallel
/// sweep ([`Engine::Auto`]) versus the scalar
/// one-user-at-a-time reference loop ([`Engine::Naive`]). Results are
/// schedule-independent (property tested).
pub struct ScoreQuery<'a> {
    source: Source<'a>,
    profiles: &'a [UserProfile],
    engine: Engine,
    class: EdgeClass,
    trace: Option<&'static str>,
}

impl<'a> ScoreQuery<'a> {
    /// Selects the schedule (default [`Engine::Auto`]).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Restricts which attack-path classes may fire during scoring
    /// (default [`EdgeClass::All`]). Both schedules honour the filter.
    pub fn edge_class(mut self, class: EdgeClass) -> Self {
        self.class = class;
        self
    }

    /// Wraps the run in an `obs` span named `label`.
    pub fn trace(mut self, label: &'static str) -> Self {
        self.trace = Some(label);
        self
    }

    /// Runs the query, returning one [`UserScore`] per profile in input
    /// order. Fails with [`Error::UnknownService`] naming the first held
    /// service (profile order, then service order) absent from the
    /// population; services the platform filters out contribute
    /// nothing. A graph source's population is its platform's services
    /// only, so there a filtered-out name is unknown.
    ///
    /// Every name is validated and resolved to its node id in one pass,
    /// by one hashed lookup in an index built once per query from the
    /// source's specs (`Prepared::overlays`): the cost per name does
    /// not grow with the population.
    pub fn run(&self) -> Result<Vec<UserScore>, Error> {
        let _span = self.trace.map(obs::span);
        self.source.with_substrate(|prepared| {
            let overlays = prepared
                .overlays(self.source.specs(), self.profiles)
                .map_err(|id| Error::UnknownService(id.to_string()))?;
            Ok(if self.engine != Engine::Naive {
                obs::add("analysis.dispatch_score", 1);
                let mut scratch = prepared.overlay_scratch();
                prepared.score_users(&overlays, &mut scratch, self.class)
            } else {
                obs::add("analysis.dispatch_score_scalar", 1);
                let mut scratch = prepared.scratch();
                overlays
                    .iter()
                    .map(|ov| prepared.score_one(ov, &mut scratch, self.class))
                    .collect()
            })
        })
    }
}

/// A configured backward query. Build with [`Analysis::backward`].
pub struct BackwardQuery<'a> {
    source: Source<'a>,
    target: &'a ServiceId,
    max_chains: usize,
    budget: Option<usize>,
    engine: Engine,
    class: EdgeClass,
    trace: Option<&'static str>,
}

impl<'a> BackwardQuery<'a> {
    /// Maximum number of chains to return (default 8; 0 is allowed and
    /// returns none).
    pub fn max_chains(mut self, max_chains: usize) -> Self {
        self.max_chains = max_chains;
        self
    }

    /// Partial-state budget bounding the search's time and memory
    /// (default [`MAX_BACKWARD_PARTIALS`]). When it fires,
    /// [`Self::run_bounded`] reports the result as non-exhaustive —
    /// this is the knob deadlines map onto.
    pub fn budget(mut self, budget: usize) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Selects the implementation (default [`Engine::Auto`], which for
    /// backward queries is the best-first engine).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// No-op kept for source compatibility: every production backward
    /// query already runs the graph's own engine. Removed once its last
    /// caller, `perfbench`, stops calling it.
    #[doc(hidden)]
    pub fn via(self, _engine: &BackwardEngine) -> Self {
        self
    }

    /// Restricts which edge classes chains may traverse (default
    /// [`EdgeClass::All`]). `LoginOnly` searches the login-only TDG
    /// view; `RecoveryOnly` is answered as the canonical difference
    /// `chains(All) ∖ chains(LoginOnly)` — the chains among the
    /// unfiltered top-`max_chains` that have no pure-login derivation
    /// and therefore need at least one recovery edge.
    pub fn edge_class(mut self, class: EdgeClass) -> Self {
        self.class = class;
        self
    }

    /// Wraps the run in an `obs` span named `label`.
    pub fn trace(mut self, label: &'static str) -> Self {
        self.trace = Some(label);
        self
    }

    /// Runs the query, returning up to `max_chains` chains in canonical
    /// order. Fails with [`Error::UnknownService`] for a target absent
    /// from the population, and with [`Error::Query`] for a zero budget
    /// or when the budget cut the search short (use
    /// [`Self::run_bounded`] to accept a partial answer).
    pub fn run(&self) -> Result<Vec<AttackChain>, Error> {
        match self.run_bounded()? {
            (chains, true) => Ok(chains),
            (_, false) => Err(Error::Query(format!(
                "backward search for {} was cut short by its budget of {} partial states",
                self.target,
                self.partial_budget()
            ))),
        }
    }

    /// [`Self::run`], also reporting whether the search was exhaustive
    /// (`false` means the partial budget cut it short and more chains
    /// may exist).
    ///
    /// For [`EdgeClass::RecoveryOnly`] the difference is
    /// truncation-consistent: login chains are a subset of all chains
    /// under one global canonical order, so any login chain appearing
    /// in the unfiltered top-`max_chains` ranks within the login-only
    /// top-`max_chains` too — membership can be decided from the two
    /// truncated lists alone. Both class searches share one graph (and
    /// so one engine).
    pub fn run_bounded(&self) -> Result<(Vec<AttackChain>, bool), Error> {
        if !self.source.knows(self.target) {
            return Err(Error::UnknownService(self.target.to_string()));
        }
        if self.budget == Some(0) {
            return Err(Error::Query("backward budget must be positive".into()));
        }
        let budget = self.partial_budget();
        let tdg = self.source.graph();
        Ok(recovery_difference(self.class, |class| {
            let _span = self.trace.map(obs::span);
            match self.engine {
                Engine::Naive => {
                    backward_chains_naive_budget(&tdg, self.target, self.max_chains, budget, class)
                }
                Engine::Auto => {
                    tdg.backward().chains(self.target, self.max_chains, budget, class)
                }
            }
        }))
    }

    fn partial_budget(&self) -> usize {
        self.budget.unwrap_or(MAX_BACKWARD_PARTIALS)
    }
}

/// Answers `class` through `search`, a single-class chain search that
/// reports whether it was exhaustive. [`EdgeClass::RecoveryOnly`] is
/// the canonical difference `chains(All) ∖ chains(LoginOnly)`; every
/// other class is searched directly.
fn recovery_difference(
    class: EdgeClass,
    mut search: impl FnMut(EdgeClass) -> (Vec<AttackChain>, bool),
) -> (Vec<AttackChain>, bool) {
    if class != EdgeClass::RecoveryOnly {
        return search(class);
    }
    let (all, ex_all) = search(EdgeClass::All);
    let (login, ex_login) = search(EdgeClass::LoginOnly);
    (all.into_iter().filter(|c| !login.contains(c)).collect(), ex_all && ex_login)
}

/// The answer of a what-if query: the population's depth breakdown
/// before and after a countermeasure set, the services the set saves,
/// and the base-graph attack chains it severs.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct WhatifReport {
    /// The evaluated set in canonical (sorted, deduplicated) order —
    /// the same set the patch cache keys on, whatever order the caller
    /// passed.
    pub countermeasures: Vec<Countermeasure>,
    /// Human-readable name of the set (`"baseline"` when empty,
    /// otherwise the countermeasures joined with `" + "`).
    pub label: String,
    /// Depth breakdown of the unmodified population.
    pub before: DepthBreakdown,
    /// Depth breakdown with the countermeasures applied (computed on
    /// the patched substrate, not a recompile).
    pub after: DepthBreakdown,
    /// Services compromised before but not after, in id order.
    pub protected: Vec<ServiceId>,
    /// Base-graph attack chains into the protected services — the
    /// concrete attacks this set severs. Bounded by
    /// [`WhatifQuery::chains_per_target`] per service and
    /// [`WhatifQuery::max_severed`] overall.
    pub severed: Vec<AttackChain>,
}

/// A configured what-if query. Build with [`Analysis::whatif`].
///
/// The before side runs the plain prepared forward fixed point; the
/// after side runs the same fixed point over a
/// [`crate::SubstratePatch`] compiled by a [`Patcher`] — only the
/// countermeasures' blast radius is recompiled, everything untouched
/// (interning, memo keys, subscriptions) is reused from the base.
pub struct WhatifQuery<'a> {
    source: Source<'a>,
    cms: &'a [Countermeasure],
    patcher: Option<&'a Patcher>,
    chains_per_target: usize,
    max_severed: usize,
    class: EdgeClass,
    trace: Option<&'static str>,
}

impl<'a> WhatifQuery<'a> {
    /// Serves the query through a prebuilt [`Patcher`] instead of
    /// constructing one, amortizing blast-radius planning and the
    /// compiled-patch cache across queries (the sweep setting). The
    /// patcher's base substrate answers the query; for a graph source
    /// it must be the graph's own substrate (checked by stamp).
    pub fn patcher(mut self, patcher: &'a Patcher) -> Self {
        self.patcher = Some(patcher);
        self
    }

    /// No-op kept for source compatibility: the severed-chain lookups
    /// already run the graph's own engine. Removed once its last
    /// caller, `perfbench`, stops calling it.
    #[doc(hidden)]
    pub fn via(self, _engine: &BackwardEngine) -> Self {
        self
    }

    /// Maximum severed chains reported per protected service
    /// (default 2; 0 disables chain collection).
    pub fn chains_per_target(mut self, n: usize) -> Self {
        self.chains_per_target = n;
        self
    }

    /// Maximum severed chains reported overall (default 16; 0 disables
    /// chain collection).
    pub fn max_severed(mut self, n: usize) -> Self {
        self.max_severed = n;
        self
    }

    /// Restricts both forward sides and the severed-chain lookups to an
    /// edge class (default [`EdgeClass::All`]). Under
    /// [`EdgeClass::RecoveryOnly`] the report answers "how much does
    /// this set cut recovery-only compromise": the depth breakdowns
    /// count only recovery-path falls, and every severed chain needs at
    /// least one recovery edge.
    pub fn edge_class(mut self, class: EdgeClass) -> Self {
        self.class = class;
        self
    }

    /// Wraps the run in an `obs` span named `label`.
    pub fn trace(mut self, label: &'static str) -> Self {
        self.trace = Some(label);
        self
    }

    /// Runs the query. Fails with [`Error::Query`] if a provided
    /// patcher was compiled against a different substrate than the
    /// graph source's.
    pub fn run(&self) -> Result<WhatifReport, Error> {
        let _span = self.trace.map(obs::span);
        let set = canonical_set(self.cms);
        let owned_patcher;
        let patcher = match self.patcher {
            Some(p) => {
                if let Source::Graph(tdg) = &self.source {
                    if p.base().stamp() != tdg.prepared().stamp() {
                        return Err(Error::Query(
                            "patcher was compiled against a different substrate".into(),
                        ));
                    }
                }
                p
            }
            None => {
                owned_patcher = Patcher::new(self.source.substrate_arc());
                &owned_patcher
            }
        };
        obs::add("analysis.dispatch_whatif", 1);
        let base = patcher.base();
        let total = base.node_count();
        let mut scratch = base.scratch();
        let before_result = base.forward(&mut scratch, self.class, &[], true);
        let patch = patcher.patch(&set);
        let after_result = base.forward_patched(&mut scratch, &patch, self.class, &[], true);
        let before = breakdown_of(&before_result, total);
        let after = breakdown_of(&after_result, total);
        // BTreeMap keys iterate in id order, so `protected` is sorted.
        let protected: Vec<ServiceId> = before_result
            .records
            .keys()
            .filter(|id| !after_result.records.contains_key(*id))
            .cloned()
            .collect();
        let mut severed = Vec::new();
        if self.max_severed > 0 && self.chains_per_target > 0 && !protected.is_empty() {
            let tdg = match (&self.source, self.patcher) {
                // The raw source's substrate was compiled for the
                // patcher above: build the graph over it, not a second.
                (Source::Raw { .. }, None) => Cow::Owned(Tdg::from_prepared(Arc::clone(base))),
                _ => self.source.graph(),
            };
            let engine = tdg.backward();
            let chains_for = |target: &ServiceId| -> Vec<AttackChain> {
                recovery_difference(self.class, |class| {
                    engine.chains(
                        target,
                        self.chains_per_target,
                        MAX_BACKWARD_PARTIALS,
                        class,
                    )
                })
                .0
            };
            'targets: for target in &protected {
                for chain in chains_for(target) {
                    severed.push(chain);
                    if severed.len() >= self.max_severed {
                        break 'targets;
                    }
                }
            }
        }
        let label = if set.is_empty() {
            "baseline".to_owned()
        } else {
            set.iter().map(|cm| cm.to_string()).collect::<Vec<_>>().join(" + ")
        };
        Ok(WhatifReport { countermeasures: set, label, before, after, protected, severed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actfort_ecosystem::dataset::curated_services;

    fn ap() -> AttackerProfile {
        AttackerProfile::paper_default()
    }

    #[test]
    fn forward_rejects_unknown_seed() {
        let specs = curated_services();
        let err = Analysis::over(&specs, Platform::Web, ap())
            .forward(&["not-a-service".into()])
            .run()
            .expect_err("unknown seed");
        assert_eq!(err, Error::UnknownService("not-a-service".into()));
        assert!(err.is_client_error());
    }

    #[test]
    fn backward_rejects_unknown_target_and_zero_budget() {
        let specs = curated_services();
        let tdg = Tdg::build(&specs, Platform::Web, ap());
        let err = Analysis::of(&tdg).backward(&"ghost".into()).run().expect_err("unknown target");
        assert_eq!(err, Error::UnknownService("ghost".into()));
        let err = Analysis::of(&tdg)
            .backward(&"paypal".into())
            .budget(0)
            .run()
            .expect_err("zero budget");
        assert_eq!(err.code(), crate::error::CODE_QUERY);
    }

    #[test]
    fn engines_agree_through_the_facade() {
        let specs = curated_services();
        for platform in [Platform::Web, Platform::MobileApp] {
            let base = Analysis::over(&specs, platform, ap()).forward(&[]).run().unwrap();
            for engine in [Engine::Auto, Engine::Naive] {
                let got = Analysis::over(&specs, platform, ap())
                    .forward(&[])
                    .engine(engine)
                    .run()
                    .unwrap();
                assert_eq!(got, base, "{platform} {engine:?}");
            }
            let unmemoized = Analysis::over(&specs, platform, ap())
                .forward(&[])
                .engine(Engine::Auto)
                .memo(false)
                .run()
                .unwrap();
            assert_eq!(unmemoized, base, "{platform} memo off");
        }
    }

    #[test]
    fn backward_engines_agree_and_via_reuses() {
        let specs = curated_services();
        let tdg = Tdg::build(&specs, Platform::MobileApp, ap());
        let engine = BackwardEngine::new(&tdg);
        let target: ServiceId = "alipay".into();
        let best = Analysis::of(&tdg).backward(&target).max_chains(6).run().unwrap();
        assert!(!best.is_empty());
        let naive = Analysis::of(&tdg)
            .backward(&target)
            .max_chains(6)
            .engine(Engine::Naive)
            .run()
            .unwrap();
        assert_eq!(best, naive);
        let via = Analysis::of(&tdg).backward(&target).max_chains(6).via(&engine).run().unwrap();
        assert_eq!(best, via);
        // Raw source builds the graph on demand and still agrees.
        let raw = Analysis::over(&specs, Platform::MobileApp, ap())
            .backward(&target)
            .max_chains(6)
            .run()
            .unwrap();
        assert_eq!(best, raw);
    }

    #[test]
    fn backward_auto_matches_naive_on_synthetic_populations() {
        use actfort_ecosystem::synth::{generate, SynthConfig};
        // Fixed-seed populations of 185, 210 and 220 Web-eligible
        // services (`generate` is deterministic). `Auto` must finish
        // every probed target. Where the naive BFS finishes too, the
        // chains are equal; where it hits its budget (synth-152 at 210),
        // its list is a truncation and proves nothing.
        for (raw, eligible) in [(200usize, 185usize), (225, 210), (235, 220)] {
            let specs = generate(raw, 5, &SynthConfig::default());
            let tdg = Tdg::build(&specs, Platform::Web, ap());
            assert_eq!(tdg.node_count(), eligible, "population drifted, re-pick test sizes");
            for i in (0..eligible).step_by(eligible / 3) {
                let target = &tdg.spec(i).id;
                let query = || Analysis::of(&tdg).backward(target).max_chains(4);
                let auto = query().run().unwrap();
                let (naive, exhaustive) = query().engine(Engine::Naive).run_bounded().unwrap();
                if exhaustive {
                    assert_eq!(auto, naive, "n={eligible} {target}");
                }
            }
        }
    }

    #[test]
    fn paper_mobile_target_is_answered_exhaustively_by_the_engine() {
        // On this target the naive BFS runs out of its default budget, so
        // a graph source must answer through the graph's engine.
        let specs = actfort_ecosystem::synth::paper_population(2021);
        let tdg = Tdg::build(&specs, Platform::MobileApp, ap());
        let target: ServiceId = "synth-051".into();
        let (chains, exhaustive) = Analysis::of(&tdg).backward(&target).run_bounded().unwrap();
        assert!(exhaustive, "the engine finishes {target} within the default budget");
        assert!(!chains.is_empty());
        let expected = tdg.backward().chains(&target, 8, MAX_BACKWARD_PARTIALS, EdgeClass::All);
        assert_eq!((chains, exhaustive), expected);
    }

    #[test]
    fn tiny_budget_reports_non_exhaustive() {
        let specs = curated_services();
        let tdg = Tdg::build(&specs, Platform::Web, ap());
        let (chains, exhaustive) =
            Analysis::of(&tdg).backward(&"paypal".into()).budget(2).run_bounded().unwrap();
        assert!(!exhaustive, "budget 2 cannot finish paypal's search");
        // The default budget finishes and finds strictly more.
        let (full, exhaustive) =
            Analysis::of(&tdg).backward(&"paypal".into()).run_bounded().unwrap();
        assert!(exhaustive);
        assert!(full.len() >= chains.len());
    }

    #[test]
    fn run_refuses_a_cut_search_and_names_the_budget() {
        let specs = curated_services();
        let tdg = Tdg::build(&specs, Platform::Web, ap());
        let target: ServiceId = "paypal".into();
        for engine in [Engine::Auto, Engine::Naive] {
            let query = || Analysis::of(&tdg).backward(&target).engine(engine).budget(2);
            let err = query().run().expect_err("a cut search is not an answer");
            assert_eq!(err.code(), crate::error::CODE_QUERY, "{engine:?}");
            assert!(err.to_string().contains("budget of 2 partial states"), "{err}");
            let (_, exhaustive) = query().run_bounded().unwrap();
            assert!(!exhaustive, "{engine:?}: run_bounded keeps the partial answer");
        }
    }

    #[test]
    fn score_rejects_unknown_service_and_schedules_agree() {
        use crate::score::OverlayFactor;
        let specs = curated_services();
        let bad = vec![UserProfile::new(vec!["ghost".into()], OverlayFactor::ALL)];
        let err = Analysis::over(&specs, Platform::Web, ap())
            .score_users(&bad)
            .run()
            .expect_err("unknown service");
        assert_eq!(err, Error::UnknownService("ghost".into()));
        assert!(err.is_client_error());

        // A mixed batch: empty, partial (no SMS), full.
        let all: Vec<ServiceId> = specs.iter().map(|s| s.id.clone()).collect();
        let profiles = vec![
            UserProfile::new(vec![], OverlayFactor::ALL),
            UserProfile::new(all.clone(), OverlayFactor::ALL & !OverlayFactor::SMS_CODE),
            UserProfile::new(all, OverlayFactor::ALL),
        ];
        for platform in [Platform::Web, Platform::MobileApp] {
            let lanes = Analysis::over(&specs, platform, ap())
                .score_users(&profiles)
                .engine(Engine::Auto)
                .run()
                .unwrap();
            let scalar = Analysis::over(&specs, platform, ap())
                .score_users(&profiles)
                .engine(Engine::Naive)
                .run()
                .unwrap();
            assert_eq!(lanes, scalar, "{platform}");
            assert_eq!(lanes[0], UserScore { blast_radius: 0, weakest_chain: 0 });
            // The full-overlay user reproduces the plain forward result.
            let forward =
                Analysis::over(&specs, platform, ap()).forward(&[]).run().unwrap();
            assert_eq!(lanes[2], UserScore::of(&forward), "{platform}");
            // Graph source agrees with raw source (on the graph's own
            // population — a built graph is already platform-filtered,
            // so it rejects ids eligible only on the other platform).
            let tdg = Tdg::build(&specs, platform, ap());
            let graph_all: Vec<ServiceId> = tdg.specs().iter().map(|s| s.id.clone()).collect();
            let graph_profiles = vec![
                UserProfile::new(graph_all.clone(), OverlayFactor::ALL),
                UserProfile::new(graph_all, OverlayFactor::ALL & !OverlayFactor::SMS_CODE),
            ];
            let via_graph = Analysis::of(&tdg).score_users(&graph_profiles).run().unwrap();
            let via_raw = Analysis::over(&specs, platform, ap())
                .score_users(&graph_profiles)
                .run()
                .unwrap();
            assert_eq!(via_graph, via_raw, "{platform} graph source");
            // Holding every eligible service is the full overlay.
            assert_eq!(via_graph[0], lanes[2], "{platform} graph full overlay");
        }
    }

    #[test]
    fn score_resolves_names_on_both_sources() {
        let specs = curated_services();
        let tdg = Tdg::build(&specs, Platform::Web, ap());
        let held = |ids: &[&str]| UserProfile::full(ids.iter().map(|&id| id.into()).collect());

        // The first unknown id is named, even in a later profile.
        let bad = [held(&["gmail"]), held(&["gmail", "ghost-2", "ghost-3"])];
        for analysis in [Analysis::over(&specs, Platform::Web, ap()), Analysis::of(&tdg)] {
            let err = analysis.score_users(&bad).run().expect_err("unknown service");
            assert_eq!(err, Error::UnknownService("ghost-2".into()));
        }

        // `wechat` is in the population but not on the web: the raw
        // source ignores it, the web graph does not know it.
        let with_wechat = [held(&["gmail", "wechat"])];
        let gmail_only = [held(&["gmail"])];
        let raw = |profiles| {
            Analysis::over(&specs, Platform::Web, ap()).score_users(profiles).run()
        };
        assert_eq!(raw(&with_wechat).unwrap(), raw(&gmail_only).unwrap());
        assert_eq!(
            Analysis::of(&tdg).score_users(&with_wechat).run(),
            Err(Error::UnknownService("wechat".into()))
        );
        assert_eq!(
            Analysis::of(&tdg).score_users(&gmail_only).run().unwrap(),
            raw(&gmail_only).unwrap()
        );
    }

    #[test]
    fn whatif_matches_counter_evaluate() {
        use crate::counter::{self, Patcher};
        let specs = curated_services();
        // Deliberately non-canonical order: BuiltInPush sorts last.
        let cms = [Countermeasure::BuiltInPush, Countermeasure::UnifiedMasking];
        for platform in [Platform::Web, Platform::MobileApp] {
            let report = Analysis::over(&specs, platform, ap()).whatif(&cms).run().unwrap();
            let reference = counter::evaluate(&specs, &cms, platform, &ap());
            assert_eq!(report.before, reference.before, "{platform} before");
            assert_eq!(report.after, reference.after, "{platform} after");
            assert_eq!(
                report.countermeasures,
                vec![Countermeasure::UnifiedMasking, Countermeasure::BuiltInPush],
                "canonical order"
            );
            // Every severed chain ends at a protected service (the
            // chain's last step is the target itself).
            for chain in &report.severed {
                let last = chain.steps.last().expect("chains are non-empty");
                assert!(
                    last.services.iter().any(|id| report.protected.contains(id)),
                    "{platform} {chain:?}"
                );
            }
            // Graph source with a shared patcher + backward engine (the
            // sweep configuration) answers identically.
            let tdg = Tdg::build(&specs, platform, ap());
            let patcher = Patcher::new(Arc::clone(tdg.prepared()));
            let engine = BackwardEngine::new(&tdg);
            let shared = Analysis::of(&tdg)
                .whatif(&cms)
                .patcher(&patcher)
                .via(&engine)
                .run()
                .unwrap();
            assert_eq!(shared.before, report.before, "{platform}");
            assert_eq!(shared.after, report.after, "{platform}");
            assert_eq!(shared.protected, report.protected, "{platform}");
        }
    }

    #[test]
    fn whatif_rejects_patcher_from_another_substrate() {
        use crate::counter::Patcher;
        let specs = curated_services();
        let tdg = Tdg::build(&specs, Platform::Web, ap());
        let other = Tdg::build(&specs, Platform::MobileApp, ap());
        let patcher = Patcher::new(Arc::clone(other.prepared()));
        let err = Analysis::of(&tdg)
            .whatif(&[])
            .patcher(&patcher)
            .run()
            .expect_err("stamp mismatch");
        assert_eq!(err.code(), crate::error::CODE_QUERY);
    }

    #[test]
    fn run_each_matches_individual_runs() {
        let specs = curated_services();
        let sets: Vec<Vec<ServiceId>> =
            vec![vec![], vec!["gmail".into()], vec!["taobao".into(), "gmail".into()]];
        let query = Analysis::over(&specs, Platform::Web, ap()).forward(&[]);
        let batch = query.threads(2).run_each(&sets).unwrap();
        assert_eq!(batch.len(), sets.len());
        for (set, got) in sets.iter().zip(&batch) {
            let solo = Analysis::over(&specs, Platform::Web, ap()).forward(set).run().unwrap();
            assert_eq!(*got, solo);
        }
        // Unknown ids inside a set are rejected up front.
        let err = Analysis::over(&specs, Platform::Web, ap())
            .forward(&[])
            .run_each(&[vec!["ghost".into()]])
            .expect_err("unknown seed in set");
        assert!(err.is_client_error());
    }
}
