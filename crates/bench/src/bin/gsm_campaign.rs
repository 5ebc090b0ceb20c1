//! City-scale GSM campaign benchmark: drives the sharded discrete-event
//! engine (`actfort_gsm::campaign`) over a grid city, checks that the
//! sharded run is byte-identical to the single-shard run, bridges the
//! harvest into the ecosystem analysis, and records a `"campaign"`
//! section in `BENCH_gsm.json`. Throughput is counted in *air frame
//! equivalents* — the frames the byte-faithful simulator would emit for
//! the same transactions.
//!
//! ```sh
//! cargo run --release -p actfort-bench --bin gsm_campaign
//! cargo run --release -p actfort-bench --bin gsm_campaign -- \
//!     --min-frames-per-sec 10000000 --out BENCH_gsm.json --trace /tmp/gsm.json
//! ```
//!
//! With `--min-frames-per-sec` the run asserts the single-core floor —
//! except on constrained hosts (fewer than [`MIN_THREADS`] available
//! threads), where the gate prints a `SKIP` line instead of flaking on
//! a loaded shared core; measurement and artifact writing still happen,
//! and the section says why its frames/s figure is ungated
//! (`"skipped": "<reason>"`).
//!
//! The recorded city (the default flags) is also assessed against the
//! paper's 201-service population on mobile; its totals must match the
//! recorded ones, and the section carries them with the fastest of
//! [`PAPER_ASSESS_RUNS`] assessments (`paper_assess_ns`).

use actfort_bench::{finish_trace, init_trace, splice_section, EXPERIMENT_SEED};
use actfort_core::profile::AttackerProfile;
use actfort_ecosystem::dataset::curated_services;
use actfort_ecosystem::policy::Platform;
use actfort_ecosystem::synth::paper_population;
use actfort_gsm::campaign::{run_sharded, CampaignConfig};
use std::time::Instant;

/// Below this many available threads the throughput gate is skipped
/// (mirrors `batch_check`): a saturated 1–2 core container measures
/// scheduler contention, not engine speed.
const MIN_THREADS: usize = 4;

/// Timed paper-population assessments; the fastest is recorded.
const PAPER_ASSESS_RUNS: usize = 5;

/// The recorded city's harvest assessed over paper:2021 on mobile:
/// victims, total blast radius, cascade compromises. A change that
/// moves them changed what the assessment computes, not how fast.
const RECORDED_PAPER_IMPACT: (usize, u64, u32) = (6_569, 34_049, 182);

fn main() {
    let trace = init_trace();
    let mut cfg = CampaignConfig {
        seed: EXPERIMENT_SEED,
        subscribers: 20_000,
        duration_s: 120,
        sms_interval_ms: 500,
        ..CampaignConfig::default()
    };
    let mut out = String::from("BENCH_gsm.json");
    let mut min_frames_per_sec: Option<f64> = None;
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut shards = available.min(8) as u32;
    let mut recorded_city = true;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().expect("flag requires a value");
        match flag.as_str() {
            "--subscribers" => {
                cfg.subscribers = value().parse().expect("--subscribers takes a count");
                recorded_city = false;
            }
            "--duration-s" => {
                cfg.duration_s = value().parse().expect("--duration-s takes seconds");
                recorded_city = false;
            }
            "--shards" => shards = value().parse().expect("--shards takes a count"),
            "--out" => out = value(),
            "--min-frames-per-sec" => {
                min_frames_per_sec =
                    Some(value().parse().expect("--min-frames-per-sec takes a number"));
            }
            "--trace" => {
                value();
            }
            other => panic!("unknown flag {other:?}"),
        }
    }
    let shards = shards.max(1);

    println!(
        "gsm_campaign: {} cells, {} subscribers, {} s simulated, seed {}",
        cfg.cells(),
        cfg.subscribers,
        cfg.duration_s,
        cfg.seed
    );

    // Determinism cross-check on a scaled-down city: the sharded run
    // must be byte-identical to the single-shard run before any
    // throughput number is trusted.
    let small = CampaignConfig {
        subscribers: 500,
        duration_s: 20,
        grid_cols: 8,
        grid_rows: 5,
        ..cfg.clone()
    };
    let single = run_sharded(&small, 1).to_json();
    for n in [2u32, shards.max(2)] {
        let multi = run_sharded(&small, n).to_json();
        assert_eq!(single, multi, "sharded campaign diverged at {n} shards");
    }
    println!("gsm_campaign: {}‑shard runs byte-identical to single-shard", shards.max(2));

    // Single-core measurement: the >10M frames/sec claim.
    let started = Instant::now();
    let report = run_sharded(&cfg, 1);
    let single_ns = started.elapsed().as_nanos().max(1);
    let frames_per_sec = report.totals.frames as f64 / (single_ns as f64 / 1e9);
    let events_per_sec = report.totals.events as f64 / (single_ns as f64 / 1e9);
    println!(
        "gsm_campaign: single-core {:.1} ms — {:.2}M frames/s ({:.2}M events/s, {} frames)",
        single_ns as f64 / 1e6,
        frames_per_sec / 1e6,
        events_per_sec / 1e6,
        report.totals.frames,
    );

    // Sharded measurement on the same workload.
    let started = Instant::now();
    let sharded_report = run_sharded(&cfg, shards);
    let sharded_ns = started.elapsed().as_nanos().max(1);
    let sharded_frames_per_sec = sharded_report.totals.frames as f64 / (sharded_ns as f64 / 1e9);
    assert_eq!(
        report.to_json(),
        sharded_report.to_json(),
        "full-size sharded run diverged from single-shard"
    );
    println!(
        "gsm_campaign: {shards} shards {:.1} ms — {:.2}M frames/s ({:.2}x)",
        sharded_ns as f64 / 1e6,
        sharded_frames_per_sec / 1e6,
        sharded_frames_per_sec / frames_per_sec,
    );

    let skipped = (available < MIN_THREADS).then(|| {
        format!(
            "{available} thread(s) available, need >= {MIN_THREADS} for a stable \
             single-core measurement"
        )
    });
    if let Some(floor) = min_frames_per_sec {
        if let Some(reason) = &skipped {
            println!("gsm_campaign: SKIP throughput gate ({reason})");
        } else {
            assert!(
                frames_per_sec >= floor,
                "throughput gate: {frames_per_sec:.0} frames/s is below the {floor:.0} floor"
            );
            println!("gsm_campaign: throughput gate OK ({frames_per_sec:.0} >= {floor:.0})");
        }
    }

    // Bridge the harvest into the account ecosystem: the curated
    // population first, the paper-scale one below.
    let specs = curated_services();
    let impact = actfort_core::campaign::assess(
        &report,
        &specs,
        Platform::MobileApp,
        AttackerProfile::paper_default(),
    )
    .expect("profiles generated from the population are always valid");
    println!(
        "gsm_campaign: {} victims ({} interceptions: {} sniffed, {} diverted) — \
         total blast radius {}, cascade compromises {} services in {} rounds",
        impact.victims.len(),
        report.interceptions.len(),
        report.totals.sms_sniffed,
        report.totals.sms_diverted,
        impact.total_blast_radius,
        impact.cascade_compromised,
        impact.cascade_rounds,
    );

    // The same harvest over the paper's 201-service population, where
    // the platform filters out part of the population.
    let paper = paper_population(EXPERIMENT_SEED);
    let assess_paper = || {
        actfort_core::campaign::assess(
            &report,
            &paper,
            Platform::MobileApp,
            AttackerProfile::paper_default(),
        )
        .expect("profiles generated from the population are always valid")
    };
    let paper_impact = assess_paper();
    let paper_assess_ns = (0..PAPER_ASSESS_RUNS)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(assess_paper());
            started.elapsed().as_nanos()
        })
        .min()
        .expect("at least one timed assessment");
    let paper_totals = (
        paper_impact.victims.len(),
        paper_impact.total_blast_radius,
        paper_impact.cascade_compromised,
    );
    println!(
        "gsm_campaign: paper:2021 (mobile) — total blast radius {}, cascade compromises {} \
         services, assessed in {:.2} ms (fastest of {PAPER_ASSESS_RUNS})",
        paper_totals.1,
        paper_totals.2,
        paper_assess_ns as f64 / 1e6,
    );
    if recorded_city {
        assert_eq!(
            paper_totals, RECORDED_PAPER_IMPACT,
            "paper:2021 (victims, blast radius, cascade) moved from the recorded city's"
        );
    }
    println!(
        "gsm_campaign: detection exposure — {} attach-rate outlier cell(s), \
         {} paging-response outlier cell(s)",
        report.anomalies.attach_outliers.len(),
        report.anomalies.paging_response_outliers.len(),
    );

    let section = format!(
        "{{\"subscribers\": {}, \"cells\": {}, \"duration_s\": {}, \"shards\": {shards}, \
         \"events\": {}, \"frames\": {}, \"single_ns\": {single_ns}, \
         \"frames_per_sec\": {frames_per_sec:.0}, \"sharded_ns\": {sharded_ns}, \
         \"frames_per_sec_sharded\": {sharded_frames_per_sec:.0}, \
         \"interceptions\": {}, \"sniffed\": {}, \"diverted\": {}, \"victims\": {}, \
         \"total_blast_radius\": {}, \"cascade_compromised\": {}, \
         \"paper_total_blast_radius\": {}, \"paper_cascade_compromised\": {}, \
         \"paper_assess_ns\": {paper_assess_ns}, \
         \"attach_outlier_cells\": {}, \"paging_outlier_cells\": {}{skipped}}}",
        cfg.subscribers,
        cfg.cells(),
        cfg.duration_s,
        report.totals.events,
        report.totals.frames,
        report.interceptions.len(),
        report.totals.sms_sniffed,
        report.totals.sms_diverted,
        impact.victims.len(),
        impact.total_blast_radius,
        impact.cascade_compromised,
        paper_totals.1,
        paper_totals.2,
        report.anomalies.attach_outliers.len(),
        report.anomalies.paging_response_outliers.len(),
        skipped = skipped.map_or(String::new(), |reason| format!(", \"skipped\": \"{reason}\"")),
    );
    splice_section(&out, "gsm", "campaign", &section);
    println!("gsm_campaign: \"campaign\" section written to {out}");
    finish_trace(trace.as_deref());
}
