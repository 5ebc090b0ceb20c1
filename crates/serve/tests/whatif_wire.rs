//! Integration tests for the `POST /whatif` contract:
//!
//! 1. malformed bodies are rejected with the stable error
//!    discriminants (unknown countermeasure names, sweep+list
//!    contradiction, oversized severed caps);
//! 2. a single-set evaluation matches the core `counter::evaluate`
//!    reference and an identical request — in any spelling order —
//!    is served from the rendered-body cache;
//! 3. the sweep mode returns every countermeasure subset
//!    (`2^|all()|` of them) in one response
//!    **without compiling a single new substrate** (the
//!    `engine.prepares` counter is flat across the request — the
//!    tentpole's observable);
//! 4. the baseline (empty set) report has `before == after`.
//!
//! The obs recorder is process-global, so tests serialize behind one
//! mutex.

use actfort_core::obs::json::{self, Json};
use actfort_serve::{start, Client, ServerConfig};
use std::sync::{Mutex, MutexGuard};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn obs_reset_enabled() {
    actfort_core::obs::reset();
    actfort_core::obs::set_enabled(true);
}

fn error_code(resp: &actfort_serve::ClientResponse) -> f64 {
    json::parse(resp.text())
        .expect("error body parses")
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_num)
        .expect("error code present")
}

fn counter(client: &mut Client, name: &str) -> f64 {
    let metrics = client.get("/metrics").expect("metrics");
    json::parse(metrics.text())
        .expect("metrics JSON")
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_num)
        .unwrap_or(0.0)
}

#[test]
fn malformed_whatif_bodies_reject_with_stable_discriminants() {
    let _g = lock();
    obs_reset_enabled();
    let handle = start(ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let query = f64::from(actfort_core::error::CODE_QUERY);

    for body in [
        &br#"{"countermeasures":"built_in_push"}"#[..],
        br#"{"countermeasures":[42]}"#,
        br#"{"countermeasures":["warp_drive"]}"#,
        br#"{"sweep":"yes"}"#,
        br#"{"sweep":true,"countermeasures":["built_in_push"]}"#,
        br#"{"severed_chains":65}"#,
        b"not json at all",
    ] {
        let resp = client.post("/whatif", body).expect("request");
        assert_eq!(resp.status, 400, "{}", resp.text());
        assert_eq!(error_code(&resp), query, "{}", resp.text());
    }

    // Wrong method on both spellings → 405, not 404.
    assert_eq!(client.get("/whatif").expect("request").status, 405);
    assert_eq!(client.get("/v1/whatif").expect("request").status, 405);
    handle.shutdown();
    actfort_core::obs::set_enabled(false);
}

#[test]
fn single_set_matches_reference_and_canonicalized_spellings_hit_the_cache() {
    let _g = lock();
    obs_reset_enabled();
    let handle = start(ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let body = br#"{"countermeasures":["built_in_push","unified_masking"]}"#;
    let first = client.post("/whatif", body).expect("request");
    assert_eq!(first.status, 200, "{}", first.text());
    assert_eq!(first.header("x-actfort-cache"), Some("miss"));
    let doc = json::parse(first.text()).expect("whatif JSON");
    let Some(Json::Arr(reports)) = doc.get("reports") else { panic!("reports array") };
    assert_eq!(reports.len(), 1);
    let report = &reports[0];
    // Canonical order in the body regardless of request spelling.
    let Some(Json::Arr(cms)) = report.get("countermeasures") else { panic!("cms array") };
    assert_eq!(cms[0].as_str(), Some("unified_masking"));
    assert_eq!(cms[1].as_str(), Some("built_in_push"));

    // The breakdown matches the core spec-rewrite reference (the server
    // boots on curated + Web).
    let specs = actfort_ecosystem::dataset::curated_services();
    let reference = actfort_core::counter::evaluate(
        &specs,
        &[
            actfort_core::Countermeasure::BuiltInPush,
            actfort_core::Countermeasure::UnifiedMasking,
        ],
        actfort_ecosystem::policy::Platform::Web,
        &actfort_core::AttackerProfile::paper_default(),
    );
    let pct = |side: &str, field: &str| {
        report.get(side).and_then(|b| b.get(field)).and_then(Json::as_num).expect("pct")
    };
    assert_eq!(pct("before", "direct_pct"), reference.before.direct_pct);
    assert_eq!(pct("after", "direct_pct"), reference.after.direct_pct);
    assert_eq!(pct("after", "uncompromisable_pct"), reference.after.uncompromisable_pct);
    // Push removes SMS fringes: strictly fewer direct compromises.
    assert!(reference.after.direct_pct < reference.before.direct_pct);

    // Identical request → rendered-body cache hit with identical bytes.
    let second = client.post("/whatif", body).expect("request");
    assert_eq!(second.header("x-actfort-cache"), Some("hit"));
    assert_eq!(first.body, second.body);

    // Any spelling order (and duplicates) of the same set is the same
    // cache entry — the canonical-key satellite.
    let respelled =
        br#"{"countermeasures":["unified_masking","built_in_push","unified_masking"]}"#;
    let third = client.post("/v1/whatif", respelled).expect("request");
    assert_eq!(third.header("x-actfort-cache"), Some("hit"), "canonicalized key must hit");
    assert_eq!(first.body, third.body);

    handle.shutdown();
    actfort_core::obs::set_enabled(false);
}

#[test]
fn sweep_returns_every_subset_without_recompiling_a_substrate() {
    let _g = lock();
    obs_reset_enabled();
    let handle = start(ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let subset_count = 1usize << actfort_core::Countermeasure::all().len();
    let prepares_before = counter(&mut client, "engine.prepares");
    let resp = client.post("/whatif", br#"{"sweep":true,"severed_chains":2}"#).expect("sweep");
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(
        counter(&mut client, "engine.prepares") - prepares_before,
        (subset_count - 1) as f64,
        "the first sweep compiles each non-empty subset once; the empty set is the base"
    );

    let doc = json::parse(resp.text()).expect("sweep JSON");
    let Some(Json::Arr(reports)) = doc.get("reports") else { panic!("reports array") };
    assert_eq!(reports.len(), subset_count, "2^|all()| subsets");
    // Subsets are enumerated mask-ascending: the first is the baseline
    // and must be a no-op; every report shares the same `before`.
    let first = &reports[0];
    assert_eq!(first.get("label").and_then(Json::as_str), Some("baseline"));
    assert_eq!(first.get("before"), first.get("after"), "empty set must change nothing");
    let Some(Json::Arr(protected)) = first.get("protected") else { panic!("protected") };
    assert!(protected.is_empty());
    let base_before = first.get("before").expect("before");
    let mut labels = std::collections::BTreeSet::new();
    for report in reports {
        assert_eq!(report.get("before"), Some(base_before), "one base population");
        labels.insert(report.get("label").and_then(Json::as_str).expect("label").to_owned());
    }
    assert_eq!(labels.len(), subset_count, "every subset evaluated exactly once");

    // The full stack (last report, everything applied) matches the core
    // reference byte-for-byte on percentages.
    let all = actfort_core::Countermeasure::all().to_vec();
    let reference = actfort_core::counter::evaluate(
        &actfort_ecosystem::dataset::curated_services(),
        &all,
        actfort_ecosystem::policy::Platform::Web,
        &actfort_core::AttackerProfile::paper_default(),
    );
    let last = &reports[subset_count - 1];
    assert_eq!(
        last.get("after").and_then(|b| b.get("direct_pct")).and_then(Json::as_num),
        Some(reference.after.direct_pct)
    );

    // A repeated sweep is a rendered-body cache hit.
    let again = client.post("/whatif", br#"{"sweep":true,"severed_chains":2}"#).expect("sweep");
    assert_eq!(again.header("x-actfort-cache"), Some("hit"));
    assert_eq!(resp.body, again.body);

    // A different severed-chain cap misses the response cache and
    // re-evaluates every subset, on the substrates already compiled.
    let prepares_before = counter(&mut client, "engine.prepares");
    let recapped =
        client.post("/whatif", br#"{"sweep":true,"severed_chains":3}"#).expect("sweep");
    assert_eq!(recapped.status, 200, "{}", recapped.text());
    assert_eq!(recapped.header("x-actfort-cache"), Some("miss"));
    assert_eq!(
        counter(&mut client, "engine.prepares"),
        prepares_before,
        "a second sweep must reuse every hardened substrate"
    );
    handle.shutdown();
    actfort_core::obs::set_enabled(false);
}
