//! Schema check for `BENCH_gsm.json` (the `gsm_campaign` artifact), in
//! the style of `trace_check`: the file must parse as JSON, be labelled
//! `"bench": "gsm"`, and hold a `"campaign"` section exposing every
//! required numeric field with a sane value; an optional `"skipped"`
//! field (the throughput gate could not run) must give a non-empty
//! reason. Exits non-zero (panics) on any mismatch, so CI can chain it
//! after the campaign run.
//!
//! ```sh
//! cargo run -p actfort-bench --bin gsm_campaign -- --out BENCH_gsm.json
//! cargo run -p actfort-bench --bin gsm_check -- BENCH_gsm.json
//! ```

use actfort_core::obs::json;

/// Fields the `"campaign"` section must expose, all numeric.
const REQUIRED: &[&str] = &[
    "subscribers",
    "cells",
    "duration_s",
    "shards",
    "events",
    "frames",
    "single_ns",
    "frames_per_sec",
    "sharded_ns",
    "frames_per_sec_sharded",
    "interceptions",
    "sniffed",
    "diverted",
    "victims",
    "total_blast_radius",
    "cascade_compromised",
    "paper_total_blast_radius",
    "paper_cascade_compromised",
    "paper_assess_ns",
    "attach_outlier_cells",
    "paging_outlier_cells",
];

fn main() {
    let mut args = std::env::args().skip(1);
    let path = args.next().expect("usage: gsm_check <BENCH_gsm.json>");
    assert!(args.next().is_none(), "usage: gsm_check <BENCH_gsm.json>");

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("{path} is not valid JSON: {e}"));
    assert_eq!(
        doc.get("bench").and_then(json::Json::as_str),
        Some("gsm"),
        "{path} is not labelled \"bench\": \"gsm\""
    );
    let campaign = doc
        .get("campaign")
        .unwrap_or_else(|| panic!("{path} lacks the \"campaign\" section"));

    let num = |field: &str| -> f64 {
        campaign
            .get(field)
            .unwrap_or_else(|| panic!("{path}: campaign section lacks \"{field}\""))
            .as_num()
            .unwrap_or_else(|| panic!("{path}: campaign.{field} is not numeric"))
    };
    for field in REQUIRED {
        let v = num(field);
        assert!(v >= 0.0 && v.is_finite(), "{path}: campaign.{field} = {v} is not sane");
    }
    // Cross-field sanity: throughput must reconcile with its inputs,
    // and the interception split must add up.
    let implied = num("frames") / (num("single_ns") / 1e9);
    let recorded = num("frames_per_sec");
    assert!(
        (implied - recorded).abs() / implied < 0.01,
        "{path}: frames_per_sec {recorded:.0} does not match frames/single_ns {implied:.0}"
    );
    assert_eq!(
        num("interceptions"),
        num("sniffed") + num("diverted"),
        "{path}: interception split does not add up"
    );
    assert!(num("victims") <= num("subscribers"), "{path}: more victims than subscribers");
    // The paper-scale assessment scored the same victims; a harvest
    // with victims compromises something there too.
    assert!(
        num("victims") == 0.0 || num("paper_total_blast_radius") > 0.0,
        "{path}: victims but no paper-scale blast radius"
    );
    assert!(num("paper_assess_ns") > 0.0, "{path}: paper assessment took no time");
    // A skipped throughput gate names its reason.
    let skipped = campaign.get("skipped").map(|v| {
        v.as_str()
            .filter(|reason| !reason.trim().is_empty())
            .unwrap_or_else(|| panic!("{path}: campaign.skipped must be a non-empty reason"))
    });
    println!(
        "{path}: ok ({} fields, {:.1}M frames/s single-core, {:.1}M frames/s on {} shards{})",
        REQUIRED.len(),
        recorded / 1e6,
        num("frames_per_sec_sharded") / 1e6,
        num("shards"),
        skipped.map_or(String::new(), |reason| format!("; gate skipped: {reason}")),
    );
}
