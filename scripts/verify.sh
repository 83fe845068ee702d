#!/usr/bin/env bash
# Tier-1 verification gate: build, full workspace test suite, and lint. A
# pure correctness gate: performance is gated by BENCHMARK.json / e2e_bench.
# Run from the repository root:  ./scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Prints the wall time of the step that just finished, so an overrun can be
# attributed to a step.
step_done() { echo "   [${1}: $((SECONDS - step_t0)) s]"; step_t0=$SECONDS; }
step_t0=$SECONDS

echo "== cargo build --release"
cargo build --release
step_done build

# One workspace run covers every unit, integration, parity, property and e2e
# suite (fault injection, gradcheck, kernel/arena/quant differentials,
# zero-alloc gate, two-stage retrieval, gateway e2e/chaos/retry, SLO plane,
# live admin-surface scrape, doc-named binaries exist).
echo "== cargo test --workspace"
cargo test -q --workspace --release
step_done test

echo "== panic audit (crates/nn, core, data, serve, gateway, obs, tensor, retrieval)"
./scripts/panic_audit.sh
step_done "panic audit"

# crates/e2e_bench is frozen by BENCHMARK.json. Its two
# `..ServeConfig::default()` literals name all three fields ServeConfig has
# left, so it alone is linted with needless_update allowed.
echo "== cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --exclude stisan-e2e-bench -- -D warnings
cargo clippy -p stisan-e2e-bench -- -D warnings -A clippy::needless_update
step_done clippy

echo "verify: OK (${SECONDS} s)"
