//! Forward (OAAS → PAV) fixed-point analysis performance, plus the
//! backward-query sweep.
//!
//! Compares the naive full-rescan reference against the prepared
//! substrate (compilation included), the naive backward BFS against the
//! best-first [`BackwardEngine`], and a [`BatchAnalyzer`] breach sweep,
//! then writes the medians and derived analyses/sec to
//! `BENCH_forward.json` at the repository root.

use actfort_core::batch::BatchAnalyzer;
use actfort_core::profile::AttackerProfile;
use actfort_core::query::{Analysis, Engine};
use actfort_core::analysis::MAX_BACKWARD_PARTIALS;
use actfort_core::{metrics, BackwardEngine, EdgeClass, ForwardResult, Tdg};
use actfort_ecosystem::factor::ServiceId;
use actfort_ecosystem::spec::ServiceSpec;
use actfort_ecosystem::policy::Platform;
use actfort_ecosystem::synth::{generate, SynthConfig};
use criterion::{black_box, BenchmarkId, Criterion, Measurement, Throughput};

const POPULATIONS: [usize; 3] = [44, 201, 400];
const BATCH_SEEDS: usize = 32;
/// Deterministic backward-query targets per population (spread by
/// stride), and the chain budget each query asks for.
const BACKWARD_TARGETS: usize = 8;
const BACKWARD_MAX_CHAINS: usize = 8;

fn forward_with_engine(
    specs: &[ServiceSpec],
    platform: Platform,
    ap: &AttackerProfile,
    seeds: &[ServiceId],
    engine: Engine,
) -> ForwardResult {
    Analysis::over(specs, platform, *ap)
        .forward(seeds)
        .engine(engine)
        .run()
        .expect("valid query")
}

fn forward_naive(
    specs: &[ServiceSpec],
    platform: Platform,
    ap: &AttackerProfile,
    seeds: &[ServiceId],
) -> ForwardResult {
    forward_with_engine(specs, platform, ap, seeds, Engine::Naive)
}

fn backward_chains_naive(tdg: &Tdg, target: &ServiceId, max_chains: usize) -> Vec<actfort_core::AttackChain> {
    Analysis::of(tdg)
        .backward(target)
        .max_chains(max_chains)
        .engine(Engine::Naive)
        .run_bounded()
        .expect("valid query")
        .0
}

fn population(n: usize) -> Vec<actfort_ecosystem::ServiceSpec> {
    let mut specs = actfort_ecosystem::dataset::curated_services();
    if n > specs.len() {
        specs.extend(generate(n - specs.len(), 5, &SynthConfig::default()));
    } else {
        specs.truncate(n);
    }
    specs
}

fn bench_engines(c: &mut Criterion) {
    let ap = AttackerProfile::paper_default();
    let mut g = c.benchmark_group("forward");
    g.sample_size(10);
    // One full fixed-point analysis per iteration.
    g.throughput(Throughput::Elements(1));
    for n in POPULATIONS {
        let specs = population(n);
        g.bench_with_input(BenchmarkId::new("naive", n), &specs, |b, specs| {
            b.iter(|| black_box(forward_naive(specs, Platform::Web, &ap, &[])))
        });
        // The prepared substrate pays compilation *and* the run each
        // iteration — the cold single-query cost, the worst case for it.
        g.bench_with_input(BenchmarkId::new("prepared", n), &specs, |b, specs| {
            b.iter(|| {
                black_box(forward_with_engine(specs, Platform::Web, &ap, &[], Engine::Auto))
            })
        });
    }
    g.finish();
}

/// The per-population backward targets: `BACKWARD_TARGETS` service ids
/// spread by stride, mirroring the equivalence proptest's probing.
fn backward_targets(tdg: &Tdg) -> Vec<ServiceId> {
    let nodes = tdg.specs().len();
    let step = (nodes / BACKWARD_TARGETS).max(1);
    (0..nodes).step_by(step).take(BACKWARD_TARGETS).map(|i| tdg.spec(i).id.clone()).collect()
}

fn bench_backward(c: &mut Criterion) {
    let ap = AttackerProfile::paper_default;
    let mut g = c.benchmark_group("backward");
    g.sample_size(10);
    g.throughput(Throughput::Elements(BACKWARD_TARGETS as u64));
    for n in POPULATIONS {
        let specs = population(n);
        let tdg = Tdg::build(&specs, Platform::Web, ap());
        let targets = backward_targets(&tdg);
        g.bench_with_input(BenchmarkId::new("naive", n), &(), |b, ()| {
            b.iter(|| {
                for t in &targets {
                    black_box(backward_chains_naive(&tdg, t, BACKWARD_MAX_CHAINS));
                }
            })
        });
        // The engine build (graph index + fringe-support fixed point) is
        // charged inside the iteration: this is the full cost of serving
        // a sweep of queries over one snapshot.
        g.bench_with_input(BenchmarkId::new("engine", n), &(), |b, ()| {
            b.iter(|| {
                let engine = BackwardEngine::new(&tdg);
                for t in &targets {
                    black_box(engine.chains(t, BACKWARD_MAX_CHAINS, MAX_BACKWARD_PARTIALS, EdgeClass::All));
                }
            })
        });
    }
    g.finish();
}

fn bench_batch(c: &mut Criterion) {
    // A breach sweep — one independent forward analysis per seed
    // service — through the facade's shared-substrate batch path: the
    // ecosystem is compiled once into the graph, every worker borrows
    // it read-only and reuses one scratch buffer across its shard.
    let specs = population(201);
    let ap = AttackerProfile::none();
    let tdg = Tdg::build(&specs, Platform::Web, ap);
    // Seeds must name graph nodes: the graph is platform-filtered.
    let sets: Vec<Vec<ServiceId>> =
        (0..tdg.node_count()).take(BATCH_SEEDS).map(|i| vec![tdg.spec(i).id.clone()]).collect();
    // Honors the ACTFORT_THREADS override, like production callers.
    let threads = BatchAnalyzer::default().threads();
    let sweep = |n: usize| {
        Analysis::of(&tdg)
            .forward(&[])
            .engine(Engine::Auto)
            .threads(n)
            .run_each(&sets)
            .expect("valid batch query")
            .iter()
            .map(ForwardResult::compromised_count)
            .sum::<usize>()
    };
    let mut g = c.benchmark_group("forward_batch");
    g.sample_size(10).throughput(Throughput::Elements(sets.len() as u64));
    g.bench_function("serial", |b| b.iter(|| black_box(sweep(1))));
    g.bench_function(format!("threads_{threads}"), |b| b.iter(|| black_box(sweep(threads))));
    g.finish();
}

fn bench_depth_breakdowns(c: &mut Criterion) {
    let specs = population(201);
    let ap = AttackerProfile::paper_default();
    let mut g = c.benchmark_group("depth_breakdown");
    g.sample_size(10);
    g.bench_function("exclusive_201", |b| {
        b.iter(|| black_box(metrics::depth_breakdown(&specs, Platform::Web, &ap)))
    });
    g.bench_function("overlapping_201", |b| {
        b.iter(|| black_box(metrics::depth_breakdown_overlapping(&specs, Platform::Web, &ap)))
    });
    g.finish();
}

fn median_ns(measurements: &[Measurement], label: &str) -> u128 {
    measurements
        .iter()
        .find(|m| m.label == label)
        .unwrap_or_else(|| panic!("missing measurement {label}"))
        .median
        .as_nanos()
}

fn per_sec(ns: u128, items: u128) -> f64 {
    if ns == 0 {
        f64::INFINITY
    } else {
        items as f64 * 1e9 / ns as f64
    }
}

/// One instrumented 201-service analysis on the prepared substrate:
/// where the wall time goes, split into the one-off compilation
/// (`prepare_ns`) versus the run itself (`run_total_ns`, broken into
/// the evaluate / min_providers / absorb span totals summed across
/// rounds). With `memoized` off the pathset memo is disabled, so the
/// JSON records the memo's before/after on the same engine.
fn measure_phases(memoized: bool) -> String {
    use actfort_core::obs;
    let specs = population(201);
    let ap = AttackerProfile::paper_default();
    let run = |specs: &[actfort_ecosystem::ServiceSpec]| {
        let _ = black_box(
            Analysis::over(specs, Platform::Web, ap)
                .forward(&[])
                .engine(Engine::Auto)
                .memo(memoized)
                .run()
                .expect("valid query"),
        );
    };
    // Uninstrumented warm-up: this is a single-shot sample, so pay the
    // cold-cache costs outside the measured run.
    run(&specs);
    obs::reset();
    obs::set_enabled(true);
    run(&specs);
    obs::set_enabled(false);
    let snap = obs::snapshot();
    let total_of = |name: &str| {
        snap.spans
            .iter()
            .filter(|(p, _)| p.split('/').next_back() == Some(name))
            .map(|(_, s)| s.total_ns)
            .sum::<u64>()
    };
    let counter_of = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let result = format!(
        "{{\"services\": 201, \"engine\": \"prepared\", \"memoized\": {memoized}, \
         \"prepare_ns\": {}, \"evaluate_ns\": {}, \
         \"min_providers_ns\": {}, \"absorb_ns\": {}, \"run_total_ns\": {}, \
         \"minprov_memo_hits\": {}, \"minprov_memo_misses\": {}}}",
        total_of("prepare"),
        total_of("evaluate"),
        total_of("min_providers"),
        total_of("absorb"),
        total_of("forward.prepared"),
        counter_of("engine.minprov_memo_hits"),
        counter_of("engine.minprov_memo_misses"),
    );
    obs::reset();
    result
}

/// One instrumented backward sweep per population: naive vs engine span
/// totals plus the engine's exploration counters, for the JSON section.
fn measure_backward() -> String {
    use actfort_core::obs;
    let ap = AttackerProfile::paper_default;
    let mut out = String::from("[\n");
    for (i, n) in POPULATIONS.iter().enumerate() {
        let specs = population(*n);
        let tdg = Tdg::build(&specs, Platform::Web, ap());
        let targets = backward_targets(&tdg);
        obs::reset();
        obs::set_enabled(true);
        for t in &targets {
            let _ = black_box(backward_chains_naive(&tdg, t, BACKWARD_MAX_CHAINS));
        }
        let engine = BackwardEngine::new(&tdg);
        for t in &targets {
            let _ = black_box(engine.chains(t, BACKWARD_MAX_CHAINS, MAX_BACKWARD_PARTIALS, EdgeClass::All));
        }
        obs::set_enabled(false);
        let snap = obs::snapshot();
        let span_ns = |name: &str| snap.spans.get(name).map_or(0, |s| s.total_ns);
        let counter_of = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "    {{\"services\": {n}, \"targets\": {BACKWARD_TARGETS}, \
             \"max_chains\": {BACKWARD_MAX_CHAINS}, \"naive_ns\": {}, \
             \"engine_build_ns\": {}, \"engine_query_ns\": {}, \
             \"naive_partials\": {}, \"engine_partials\": {}, \
             \"engine_memo_hits\": {}, \"engine_pruned_bound\": {}}}",
            span_ns("backward.naive"),
            span_ns("backward.build"),
            span_ns("backward.chains"),
            counter_of("backward.naive.partials_explored"),
            counter_of("backward.partials_explored"),
            counter_of("backward.memo_hits"),
            counter_of("backward.pruned_bound"),
        ));
        obs::reset();
    }
    out.push_str("\n  ]");
    out
}

fn emit_json(measurements: &[Measurement]) {
    let threads_available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = BatchAnalyzer::default().threads();
    let mut populations = String::new();
    for (i, n) in POPULATIONS.iter().enumerate() {
        let naive = median_ns(measurements, &format!("forward/naive/{n}"));
        let prepared = median_ns(measurements, &format!("forward/prepared/{n}"));
        if i > 0 {
            populations.push_str(",\n");
        }
        populations.push_str(&format!(
            "    {{\"services\": {n}, \"naive_ns\": {naive}, \"prepared_ns\": {prepared}, \
             \"naive_analyses_per_sec\": {:.2}, \"prepared_analyses_per_sec\": {:.2}, \
             \"prepared_speedup\": {:.2}}}",
            per_sec(naive, 1),
            per_sec(prepared, 1),
            naive as f64 / prepared.max(1) as f64,
        ));
    }
    let mut backward = String::new();
    for (i, n) in POPULATIONS.iter().enumerate() {
        let naive = median_ns(measurements, &format!("backward/naive/{n}"));
        let engine = median_ns(measurements, &format!("backward/engine/{n}"));
        if i > 0 {
            backward.push_str(",\n");
        }
        backward.push_str(&format!(
            "    {{\"services\": {n}, \"targets\": {BACKWARD_TARGETS}, \
             \"naive_ns\": {naive}, \"engine_ns\": {engine}, \
             \"naive_sweeps_per_sec\": {:.2}, \"engine_sweeps_per_sec\": {:.2}, \
             \"speedup\": {:.2}}}",
            per_sec(naive, 1),
            per_sec(engine, 1),
            naive as f64 / engine.max(1) as f64,
        ));
    }
    let batch_serial = median_ns(measurements, "forward_batch/serial");
    let batch_parallel = median_ns(measurements, &format!("forward_batch/threads_{threads}"));
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"forward\",\n  \"platform\": \"web\",\n");
    json.push_str(&format!("  \"threads_available\": {threads_available},\n"));
    json.push_str(&format!("  \"threads_used\": {threads},\n"));
    json.push_str(&format!("  \"populations\": [\n{populations}\n  ],\n"));
    json.push_str(&format!("  \"backward\": [\n{backward}\n  ],\n"));
    json.push_str(&format!("  \"backward_instrumented\": {},\n", measure_backward()));
    json.push_str(&format!("  \"phases\": {},\n", measure_phases(true)));
    json.push_str(&format!("  \"phases_unmemoized\": {},\n", measure_phases(false)));
    json.push_str(&format!(
        "  \"batch_sweep\": {{\"seeds\": {BATCH_SEEDS}, \"services\": 201, \
         \"engine\": \"prepared\", \
         \"serial_ns\": {batch_serial}, \"parallel_ns\": {batch_parallel}, \
         \"serial_analyses_per_sec\": {:.2}, \"parallel_analyses_per_sec\": {:.2}, \
         \"speedup\": {:.2}}}\n}}\n",
        per_sec(batch_serial, BATCH_SEEDS as u128),
        per_sec(batch_parallel, BATCH_SEEDS as u128),
        batch_serial as f64 / batch_parallel.max(1) as f64,
    ));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_forward.json");
    std::fs::write(path, &json).expect("write BENCH_forward.json");
    println!("\nwrote {path}");
    print!("{json}");
}

fn main() {
    let mut criterion = Criterion::default().configure_from_args();
    bench_engines(&mut criterion);
    bench_backward(&mut criterion);
    bench_batch(&mut criterion);
    bench_depth_breakdowns(&mut criterion);
    emit_json(criterion.measurements());
}
