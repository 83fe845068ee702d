#!/usr/bin/env bash
# Tier-1 verification gate: build, full workspace test suite, and lint.
# Run from the repository root:  ./scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release"
cargo build --release

# One workspace run covers every unit, integration, parity, property and e2e
# suite (fault injection, gradcheck, kernel/arena/quant differentials,
# zero-alloc gate, two-stage retrieval, gateway e2e/chaos/retry, SLO plane).
echo "== cargo test --workspace"
cargo test -q --workspace --release

echo "== serve_bench smoke"
cargo run --release -p stisan-bench --bin serve_bench -- --smoke

echo "== kernel_bench smoke (blocked vs naive, writes results/BENCH_kernels.json)"
cargo run --release -p stisan-bench --bin kernel_bench -- --smoke

echo "== gateway_bench smoke (micro-batching >= 1.5x, shedding, tracing overhead < 3%,"
echo "   slo_check: sampler overhead < 3% rps, availability >= 99%, zero burn alerts clean)"
cargo run --release -p stisan-bench --bin gateway_bench -- --smoke

echo "== gateway_bench chaos smoke (availability >= 99%, zero torn reads, process survives)"
cargo run --release -p stisan-bench --bin gateway_bench -- --chaos-smoke

echo "== retrieval_bench smoke (two-stage vs exact, i8 table <= 30% of f32 bytes)"
cargo run --release -p stisan-bench --bin retrieval_bench -- --smoke

echo "== exposition check (admin-endpoint scrape must be parseable Prometheus text)"
cargo run --release -p stisan-bench --bin expo_check -- results/metrics_scrape.prom \
    --require alloc_ --require prof_ --require slo_ --require alert_ \
    --require-suffix _p99_1m

echo "== metric-cardinality audit (registry must fit the fixed-memory windowed store)"
./scripts/cardinality_audit.sh

# bench_compare.sh is strict by default (serve/kernels/retrieval fail on a
# >15% rps drop; gateway warns). This smoke-mode run on a shared host is the
# documented noisy-CI case, so verify.sh takes the --warn-only escape hatch
# unless overridden: run `BENCH_COMPARE_FLAGS= ./scripts/verify.sh` (or bare
# ./scripts/bench_compare.sh on a quiet machine) for the strict gate — strict
# is required before re-baselining.
echo "== bench regression compare (flags: ${BENCH_COMPARE_FLAGS---warn-only})"
./scripts/bench_compare.sh ${BENCH_COMPARE_FLAGS---warn-only}

echo "== panic audit (crates/nn, core, data, serve, gateway, obs, tensor, retrieval)"
./scripts/panic_audit.sh

# crates/e2e_bench is frozen by BENCHMARK.json. Its two
# `..ServeConfig::default()` literals name all three fields ServeConfig has
# left, so it alone is linted with needless_update allowed.
echo "== cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --exclude stisan-e2e-bench -- -D warnings
cargo clippy -p stisan-e2e-bench -- -D warnings -A clippy::needless_update

echo "verify: OK"
