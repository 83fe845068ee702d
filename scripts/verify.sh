#!/usr/bin/env bash
# Tier-1 verification gate: build, full workspace test suite, and lint. A
# pure correctness gate: performance is gated by BENCHMARK.json / e2e_bench.
# Run from the repository root:  ./scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release"
cargo build --release

# One workspace run covers every unit, integration, parity, property and e2e
# suite (fault injection, gradcheck, kernel/arena/quant differentials,
# zero-alloc gate, two-stage retrieval, gateway e2e/chaos/retry, SLO plane,
# live admin-surface scrape, doc-named binaries exist).
echo "== cargo test --workspace"
cargo test -q --workspace --release

echo "== panic audit (crates/nn, core, data, serve, gateway, obs, tensor, retrieval)"
./scripts/panic_audit.sh

# crates/e2e_bench is frozen by BENCHMARK.json. Its two
# `..ServeConfig::default()` literals name all three fields ServeConfig has
# left, so it alone is linted with needless_update allowed.
echo "== cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --exclude stisan-e2e-bench -- -D warnings
cargo clippy -p stisan-e2e-bench -- -D warnings -A clippy::needless_update

echo "verify: OK"
