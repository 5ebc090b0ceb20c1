#!/usr/bin/env bash
# Full local CI: release build, tests, lints, rustdoc, examples.
# Everything must pass with zero warnings before a change lands.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc: cargo doc --no-deps over the in-tree packages (default members, not vendor/), warnings denied"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

echo "==> cargo build --examples"
cargo build --examples

echo "==> trace smoke: fig3 --trace + trace_check"
trace_tmp="$(mktemp -d)"
trap 'rm -rf "$trace_tmp"' EXIT
cargo run --release -q -p actfort-bench --bin fig3 -- --trace "$trace_tmp/fig3.json" > /dev/null
cargo run --release -q -p actfort-bench --bin trace_check -- "$trace_tmp/fig3.json" \
    metrics.sms_only metrics.factor_usage metrics.multi_factor

echo "==> backward smoke: curated + paper:2021, web + mobile: graph build <= 2 ms each, engine exhaustive everywhere, ≡ naive wherever naive finishes"
cargo run --release -q -p actfort-bench --bin backward_smoke -- --max-graph-build-ms 2 \
    --out "$trace_tmp/bench_graph.json"

echo "==> batch smoke: shared-substrate sweep speedup (skips on <4 threads)"
cargo run --release -q -p actfort-bench --bin batch_check

echo "==> serve smoke: concurrent forward/backward/score/whatif load + keep-alive/pipelining + forward p50 < 10 ms + hostile bodies (10k-deep -> 400/2403, 1 MiB string -> 400, naive backward -> 400/11; each 400 and /healthz < 1 s) + /metrics trace_check"
cargo run --release -q -p actfort-bench --bin serve_smoke -- --metrics-out "$trace_tmp/serve_metrics.json"
cargo run --release -q -p actfort-bench --bin trace_check -- "$trace_tmp/serve_metrics.json" \
    serve.forward serve.backward serve.score serve.whatif

echo "==> score throughput gate: 64-lane sweep >= 1M user-scores/min single-core"
cargo run --release -q -p actfort-bench --bin score_sweep -- --users 65536 \
    --min-scores-per-min 1000000 --out "$trace_tmp/bench_score.json"

echo "==> whatif gate: every subset's cached substrate ≡ cold recompile, cold sweep compiles 31 and warm sweep 0, warm < 50 ms"
cargo run --release -q -p actfort-bench --bin whatif_sweep -- --max-sweep-ms 50 \
    --out "$trace_tmp/bench_whatif.json"

echo "==> recovery gate: class-filtered forward <= 1.5x unfiltered, 0 substrate recompiles"
cargo run --release -q -p actfort-bench --bin recovery_sweep -- --max-ratio 1.5 \
    --out "$trace_tmp/bench_recovery.json"

echo "==> campaign gate: city-scale engine >= 10M frames/s single-core (skips on <4 threads)"
cargo run --release -q -p actfort-bench --bin gsm_campaign -- --min-frames-per-sec 10000000 \
    --out "$trace_tmp/BENCH_gsm.json" --trace "$trace_tmp/gsm_trace.json"
cargo run --release -q -p actfort-bench --bin gsm_check -- "$trace_tmp/BENCH_gsm.json"
cargo run --release -q -p actfort-bench --bin trace_check -- "$trace_tmp/gsm_trace.json" \
    gsm.campaign.run campaign.assess

echo "CI OK"
