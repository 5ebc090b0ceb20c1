//! Regenerates the in-text dependency-depth table (§IV-B1): how each
//! account can be compromised, by middle-layer structure.
//!
//! ```sh
//! cargo run -p actfort-bench --bin dependency_depth [-- --trace trace.json]
//! ```

use actfort_bench::{finish_trace, init_trace, print_table, Row, EXPERIMENT_SEED};
use actfort_core::batch::BatchAnalyzer;
use actfort_core::metrics::{depth_breakdown, depth_breakdown_overlapping};
use actfort_core::profile::AttackerProfile;
use actfort_ecosystem::policy::Platform;
use actfort_ecosystem::synth::paper_population;

fn main() {
    let trace = init_trace();
    let specs = paper_population(EXPERIMENT_SEED);
    let ap = AttackerProfile::paper_default();
    println!("Dependency-depth reproduction over {} services", specs.len());
    println!("(paper values from §IV-B1; its categories overlap, so columns need not sum to 100)\n");

    let scenarios = [
        // (platform, paper values: direct, one layer, two full, two mixed, uncompromisable)
        (Platform::Web, (74.13, 9.83, 5.20, 2.89, 4.44)),
        (Platform::MobileApp, (75.56, 26.47, 20.59, 8.82, 2.22)),
    ];
    // Both countings per platform are independent analyses: shard them.
    let breakdowns = BatchAnalyzer::available().run(&scenarios, |(platform, _)| {
        (
            depth_breakdown_overlapping(&specs, *platform, &ap),
            depth_breakdown(&specs, *platform, &ap),
        )
    });

    for ((platform, paper), (d, e)) in scenarios.iter().zip(breakdowns) {
        print_table(
            &format!("overlapping counting (paper's methodology) — {platform}"),
            &[
                Row::new("direct with phone + SMS code", paper.0, d.direct_pct),
                Row::new("one middle layer", paper.1, d.one_layer_pct),
                Row::new("two layers, all full capacity", paper.2, d.two_layer_full_pct),
                Row::new("two layers, with half capacity", paper.3, d.two_layer_mixed_pct),
                Row::new("not compromisable", paper.4, d.uncompromisable_pct),
            ],
        );
        print_table(
            &format!("exclusive counting (earliest round) — {platform}"),
            &[
                Row::measured_only("direct with phone + SMS code", e.direct_pct),
                Row::measured_only("one middle layer", e.one_layer_pct),
                Row::measured_only("two layers, all full capacity", e.two_layer_full_pct),
                Row::measured_only("two layers, with half capacity", e.two_layer_mixed_pct),
                Row::measured_only("not compromisable", e.uncompromisable_pct),
            ],
        );
    }
    finish_trace(trace.as_deref());
}
