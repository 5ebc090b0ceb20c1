//! Golden trace-snapshot tests: a fixed-seed 201-service forward sweep
//! must produce a *stable* ObsSnapshot — same-seed runs render
//! byte-identical deterministic JSON, the span tree has a pinned shape,
//! and the counters agree with the analysis result itself.
//!
//! These tests flip the process-global recorder, so they live in their
//! own test binary and serialize through [`obs_lock`].

use actfort_core::profile::AttackerProfile;
use actfort_core::query::Analysis;
use actfort_core::{obs, Countermeasure, EdgeClass, ForwardResult, Tdg};
use actfort_ecosystem::dataset::curated_services;
use actfort_ecosystem::factor::ServiceId;
use actfort_ecosystem::policy::Platform;
use actfort_ecosystem::synth::paper_population;
use std::sync::{Mutex, MutexGuard};

const SEED: u64 = 2021;

fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One instrumented single-threaded sweep over the paper-scale
/// population (201 services at this seed).
fn traced_sweep() -> (ForwardResult, obs::ObsSnapshot) {
    let specs = paper_population(SEED);
    obs::reset();
    obs::set_enabled(true);
    let result = Analysis::over(&specs, Platform::Web, AttackerProfile::paper_default())
        .forward(&[])
        .run()
        .expect("valid query");
    obs::set_enabled(false);
    let snap = obs::snapshot();
    obs::reset();
    (result, snap)
}

#[test]
fn same_seed_sweeps_render_byte_identical_json() {
    let _g = obs_lock();
    let (r1, s1) = traced_sweep();
    let (r2, s2) = traced_sweep();
    assert_eq!(r1, r2, "analysis result must be seed-deterministic");
    let j1 = s1.to_json_deterministic();
    let j2 = s2.to_json_deterministic();
    assert_eq!(j1, j2, "deterministic snapshot JSON must be byte-identical");
    assert!(!j1.contains("total_ns"), "wall-times are excluded");
    obs::json::parse(&j1).expect("snapshot JSON parses");
}

#[test]
fn sweep_span_tree_shape_is_pinned() {
    let _g = obs_lock();
    let (_, snap) = traced_sweep();
    let paths: Vec<&str> = snap.spans.keys().map(String::as_str).collect();
    assert_eq!(
        paths,
        vec![
            "forward.prepared",
            "forward.prepared/absorb",
            "forward.prepared/evaluate",
            "forward.prepared/min_providers",
            "prepare",
        ],
        "span tree changed shape"
    );
}

#[test]
fn sweep_counters_agree_with_the_result() {
    let _g = obs_lock();
    let (result, snap) = traced_sweep();
    let c = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let span_count =
        |path: &str| snap.spans.get(path).map(|s| s.count).expect("span path present");

    // Auto serves the prepared substrate: one compilation, one
    // prepared run.
    assert_eq!(c("analysis.dispatch_prepared"), 1);
    assert_eq!(c("analysis.dispatch_naive"), 0);
    assert_eq!(c("engine.prepares"), 1);
    assert_eq!(c("engine.runs"), 1);
    assert_eq!(span_count("prepare"), 1);
    assert_eq!(span_count("forward.prepared"), 1);

    // Every loop iteration opens one evaluate span and bumps the round
    // counter; min_providers and absorb only run on productive rounds.
    assert_eq!(span_count("forward.prepared/evaluate"), c("engine.rounds"));
    assert_eq!(
        span_count("forward.prepared/min_providers"),
        span_count("forward.prepared/absorb")
    );

    // No seeds: every compromise record came from a productive round.
    assert_eq!(c("engine.nodes_fell") as usize, result.records.len());
    assert_eq!(c("engine.min_provider_queries"), c("engine.nodes_fell"));
    assert!(c("engine.nodes_evaluated") >= c("engine.nodes_fell"));

    // Frontier sizes were histogrammed once per round.
    let frontier = snap.histograms.get("engine.frontier_size").expect("frontier histogram");
    assert_eq!(frontier.count(), c("engine.rounds"));
}

#[test]
fn score_batch_dispatches_once_and_never_reprepares_per_user() {
    let _g = obs_lock();
    let specs = paper_population(SEED);
    let all: Vec<actfort_ecosystem::factor::ServiceId> =
        specs.iter().map(|s| s.id.clone()).collect();
    let profiles: Vec<actfort_core::UserProfile> = (0..150)
        .map(|i| {
            let mut held = all.clone();
            held.truncate(all.len() - i % 7);
            actfort_core::UserProfile::full(held)
        })
        .collect();

    obs::reset();
    obs::set_enabled(true);
    let scores = Analysis::over(&specs, Platform::Web, AttackerProfile::paper_default())
        .score_users(&profiles)
        .run()
        .expect("valid batch");
    obs::set_enabled(false);
    let snap = obs::snapshot();
    obs::reset();
    assert_eq!(scores.len(), 150);

    let c = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    // Auto serves the lane engine, exactly once for the whole batch,
    // and the substrate is compiled
    // once — NOT once per user. (The prepare-per-user regression this
    // pins would read 150 here.)
    assert_eq!(c("analysis.dispatch_score"), 1);
    assert_eq!(c("analysis.dispatch_score_scalar"), 0);
    assert_eq!(c("analysis.dispatch_prepared"), 0, "score is not the forward path");
    assert_eq!(c("engine.prepares"), 1, "one compilation per batch, not per user");
    assert_eq!(snap.spans.get("prepare").map(|s| s.count), Some(1));

    // 150 users = 3 lane sweeps (64 + 64 + 22); per-batch counters and
    // the lane span agree.
    assert_eq!(c("score.batches"), 3);
    assert_eq!(c("score.users"), 150);
    assert_eq!(snap.spans.get("score.lanes").map(|s| s.count), Some(3));
    assert!(c("score.rounds") >= c("score.batches"), "every sweep runs at least one round");

    // The scalar schedule flips the dispatch counter, still one prepare.
    obs::reset();
    obs::set_enabled(true);
    Analysis::over(&specs, Platform::Web, AttackerProfile::paper_default())
        .score_users(&profiles[..3])
        .engine(actfort_core::Engine::Naive)
        .run()
        .expect("valid batch");
    obs::set_enabled(false);
    let snap = obs::snapshot();
    obs::reset();
    let c = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    assert_eq!(c("analysis.dispatch_score"), 0);
    assert_eq!(c("analysis.dispatch_score_scalar"), 1);
    assert_eq!(c("engine.prepares"), 1, "scalar schedule also compiles once per batch");

    // Auto picks the lane schedule on the small curated population too.
    let curated = curated_services();
    obs::reset();
    obs::set_enabled(true);
    Analysis::over(&curated, Platform::Web, AttackerProfile::paper_default())
        .score_users(&[actfort_core::UserProfile::full(vec!["gmail".into()])])
        .run()
        .expect("valid batch");
    obs::set_enabled(false);
    let snap = obs::snapshot();
    obs::reset();
    let c = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    assert_eq!(c("analysis.dispatch_score"), 1);
    assert_eq!(c("analysis.dispatch_score_scalar"), 0);
}

#[test]
fn strategy_forward_queries_reuse_the_graph_substrate() {
    let _g = obs_lock();
    let specs = paper_population(SEED);
    let engine = actfort_core::StrategyEngine::new(
        specs.clone(),
        Platform::Web,
        AttackerProfile::paper_default(),
    );
    obs::reset();
    obs::set_enabled(true);
    engine.potential_victims(&[]);
    engine.potential_victims(&[specs[0].id.clone()]);
    engine.potential_victims(&["not-a-service".into()]);
    obs::set_enabled(false);
    let snap = obs::snapshot();
    obs::reset();
    let prepares = snap.counters.get("engine.prepares").copied().unwrap_or(0);
    assert_eq!(prepares, 0, "forward queries must run on the engine's own graph");
}

#[test]
fn blast_radii_sweep_compiles_one_substrate() {
    let _g = obs_lock();
    let specs = paper_population(SEED);
    obs::reset();
    obs::set_enabled(true);
    let radii =
        actfort_core::breach::blast_radii(&specs, Platform::Web, &AttackerProfile::none(), 2);
    obs::set_enabled(false);
    let snap = obs::snapshot();
    obs::reset();
    let c = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    // Every seed is its own prepared run, but the substrate is compiled
    // once for the whole sweep and shared by the workers — not once per
    // seed.
    assert_eq!(c("analysis.dispatch_prepared"), radii.len() as u64);
    assert_eq!(c("engine.runs"), radii.len() as u64);
    assert_eq!(c("engine.prepares"), 1, "one compilation per sweep, not per seed");
}

/// One instrumented fixed-seed campaign (single shard, so every span
/// lands on this thread) plus its ecosystem assessment.
fn traced_campaign() -> (actfort_gsm::campaign::CampaignReport, obs::ObsSnapshot) {
    let cfg = actfort_gsm::campaign::CampaignConfig {
        subscribers: 120,
        duration_s: 10,
        grid_cols: 5,
        grid_rows: 4,
        sniffers: 3,
        mitm_stations: 2,
        ..Default::default()
    };
    let specs = curated_services();
    obs::reset();
    obs::set_enabled(true);
    let report = actfort_gsm::campaign::run(&cfg);
    actfort_core::campaign::assess(
        &report,
        &specs,
        Platform::MobileApp,
        AttackerProfile::paper_default(),
    )
    .expect("assessment over the generating population cannot name unknown services");
    obs::set_enabled(false);
    let snap = obs::snapshot();
    obs::reset();
    (report, snap)
}

#[test]
fn campaign_span_tree_shape_is_pinned() {
    let _g = obs_lock();
    let (report, snap) = traced_campaign();
    let paths: Vec<&str> = snap.spans.keys().map(String::as_str).collect();
    assert_eq!(
        paths,
        vec![
            "campaign.assess",
            "campaign.assess/campaign.cascade",
            "campaign.assess/campaign.cascade/forward.prepared",
            "campaign.assess/campaign.cascade/forward.prepared/absorb",
            "campaign.assess/campaign.cascade/forward.prepared/evaluate",
            "campaign.assess/campaign.cascade/forward.prepared/min_providers",
            "campaign.assess/campaign.score",
            "campaign.assess/campaign.score/score.lanes",
            "campaign.assess/prepare",
            "gsm.campaign.run",
        ],
        "campaign span tree changed shape"
    );

    let c = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    // The campaign's own counters agree with its report.
    assert_eq!(c("gsm.campaign.frames"), report.totals.frames);
    assert_eq!(c("gsm.campaign.interceptions"), report.interceptions.len() as u64);
    assert_eq!(c("gsm.campaign.captures"), report.totals.captures);
    // One prepare for the whole assessment (never per victim), shared
    // by every victim on the lane engine, 64 per sweep, and by the one
    // cascade run.
    let victims = report.compromised.len() as u64;
    assert_eq!(c("campaign.victims_scored"), victims);
    assert_eq!(c("score.users"), victims);
    assert_eq!(c("score.batches"), victims.div_ceil(64));
    assert_eq!(c("engine.prepares"), 1, "one compile for the victim batch and the cascade");
    assert_eq!(c("engine.runs"), 1);

    // Same seed, same trace: the deterministic JSON is byte-identical.
    let (_, again) = traced_campaign();
    assert_eq!(snap.to_json_deterministic(), again.to_json_deterministic());
}

#[test]
fn one_graph_builds_its_backward_engine_once() {
    let _g = obs_lock();
    let builds = |f: &dyn Fn()| {
        obs::reset();
        obs::set_enabled(true);
        f();
        obs::set_enabled(false);
        let snap = obs::snapshot();
        obs::reset();
        snap.spans
            .iter()
            .filter(|(path, _)| path.ends_with("backward.build"))
            .map(|(_, stat)| stat.count)
            .sum::<u64>()
    };
    let ap = AttackerProfile::paper_default();
    let specs = curated_services();
    let target: ServiceId = "paypal".into();

    // Auto, both class searches of a RecoveryOnly query and a
    // what-if's severed-chain lookups all run the graph's one engine.
    let tdg = Tdg::build(&specs, Platform::Web, ap);
    let n = builds(&|| {
        Analysis::of(&tdg).backward(&target).run().unwrap();
        Analysis::of(&tdg)
            .backward(&target)
            .edge_class(EdgeClass::RecoveryOnly)
            .run()
            .unwrap();
        let report = Analysis::of(&tdg).whatif(Countermeasure::all()).run().unwrap();
        assert!(!report.severed.is_empty(), "the what-if collected severed chains");
    });
    assert_eq!(n, 1, "one graph, one backward engine");

    // A raw-source RecoveryOnly query builds one graph for both searches.
    let n = builds(&|| {
        Analysis::over(&specs, Platform::Web, ap)
            .backward(&target)
            .edge_class(EdgeClass::RecoveryOnly)
            .run()
            .unwrap();
    });
    assert_eq!(n, 1, "a raw-source query builds one engine");
}

#[test]
fn raw_source_whatif_compiles_one_substrate() {
    let _g = obs_lock();
    let specs = curated_services();
    obs::reset();
    obs::set_enabled(true);
    let report = Analysis::over(&specs, Platform::Web, AttackerProfile::paper_default())
        .whatif(Countermeasure::all())
        .run()
        .unwrap();
    obs::set_enabled(false);
    let snap = obs::snapshot();
    obs::reset();
    assert!(!report.severed.is_empty(), "the what-if collected severed chains");
    // The patcher and the severed-chain graph share one compilation.
    assert_eq!(snap.counters.get("engine.prepares").copied().unwrap_or(0), 1);
}
