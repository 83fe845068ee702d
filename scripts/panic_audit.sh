#!/usr/bin/env bash
# Panic-audit gate for the robustness-critical crates (nn, core, data,
# serve, gateway, obs, tensor, retrieval).
#
# Counts `.unwrap()` / `.expect(` calls in *library* code — everything above
# the first `#[cfg(test)]` marker — of each source file and compares against
# the checked-in baseline in scripts/panic_allowlist.txt. Any count above
# the baseline fails: new panic sites in checkpointing, serialization, or
# data-loading paths must be a deliberate, reviewed decision (append to the
# allowlist in the same commit and justify it in the PR).
#
# Regenerate the baseline after removing panic sites:
#   ./scripts/panic_audit.sh --regen
set -euo pipefail
cd "$(dirname "$0")/.."

ALLOWLIST=scripts/panic_allowlist.txt
AUDITED_DIRS=(crates/nn/src crates/core/src crates/data/src crates/serve/src crates/gateway/src crates/obs/src crates/tensor/src crates/retrieval/src)

count_panics() {
    # Library-code unwrap/expect count for one file (0 if none).
    awk '/#\[cfg\(test\)\]/{exit} {print}' "$1" \
        | grep -cE '\.unwrap\(\)|\.expect\(' || true
}

if [ "${1:-}" = "--regen" ]; then
    : > "$ALLOWLIST"
    while read -r file; do
        count=$(count_panics "$file")
        if [ "${count:-0}" -gt 0 ]; then
            echo "$count $file" >> "$ALLOWLIST"
        fi
    done < <(find "${AUDITED_DIRS[@]}" -name '*.rs' | sort)
    echo "panic_audit: baseline regenerated in $ALLOWLIST"
    exit 0
fi

if [ ! -f "$ALLOWLIST" ]; then
    echo "panic_audit: missing $ALLOWLIST (run with --regen to create it)" >&2
    exit 1
fi

# Allocator-hook code gets zero tolerance, allowlist or not: a panic inside
# a GlobalAlloc hook aborts the process, and the flame recorder runs on the
# serving hot path. The fault-tolerance layer (reload watcher, replica
# supervisor, circuit breaker, fallback scorer) joins the set: its entire
# purpose is absorbing panics, so the only sanctioned panic surface is the
# catch_unwind boundary in replica.rs — poison-tolerant locking
# (`unwrap_or_else(PoisonError::into_inner)`) everywhere else.
ZERO_TOLERANCE=(
    crates/obs/src/alloc.rs
    crates/obs/src/flame.rs
    crates/serve/src/reload.rs
    crates/serve/src/replica.rs
    crates/serve/src/breaker.rs
    crates/serve/src/fallback.rs
    # The arena hands out scratch storage on every request of every serving
    # worker; a panic here (e.g. on a poisoned pool) would take down the
    # replica, so it gets the same zero-panic bar as the allocator hooks.
    crates/tensor/src/arena.rs
    # Two-stage retrieval runs inside every request under
    # PruningPolicy::TwoStage (candidate lookup + gather-dequantize), and
    # the quant codecs feed the reload watcher's requantize path — a panic
    # in either turns a malformed table into a replica crash instead of a
    # rejected epoch.
    crates/retrieval/src/lib.rs
    crates/retrieval/src/index.rs
    crates/retrieval/src/table.rs
    crates/tensor/src/quant.rs
)

fail=0
for file in "${ZERO_TOLERANCE[@]}"; do
    count=$(count_panics "$file")
    if [ "${count:-0}" -gt 0 ]; then
        echo "panic_audit: $file has $count unwrap/expect calls — zero tolerated in allocator/profiler hooks (allowlist does not apply)" >&2
        fail=1
    fi
done

while read -r file; do
    count=$(count_panics "$file")
    count=${count:-0}
    allowed=$(awk -v f="$file" '$2 == f {print $1}' "$ALLOWLIST")
    allowed=${allowed:-0}
    if [ "$count" -gt "$allowed" ]; then
        echo "panic_audit: $file has $count library unwrap/expect calls (baseline: $allowed)" >&2
        fail=1
    fi
done < <(find "${AUDITED_DIRS[@]}" -name '*.rs' | sort)

if [ "$fail" -ne 0 ]; then
    echo "panic_audit: FAILED — new unwrap/expect in library code; handle the error or extend $ALLOWLIST deliberately" >&2
    exit 1
fi

# The tensor crate's only sanctioned `unsafe` is the instruction-set
# dispatch: a single call into a `#[target_feature]` function, made after the
# CPU was checked, on the line right after a `// SAFETY:` comment saying so.
# Any other `unsafe` (blocks, fns, impls, raw-pointer code) fails.
unsafe_sites=$(awk '
    FNR == 1 { prev = "" }
    /^[[:space:]]*\/\// { prev = $0; next }
    /(^|[^[:alnum:]_])unsafe([^[:alnum:]_]|$)/ {
        ok = ($0 ~ /^[[:space:]]*unsafe \{ [[:alnum:]_]+\(.*\) \};?[[:space:]]*$/) \
            && (prev ~ /^[[:space:]]*\/\/ SAFETY: /)
        if (!ok) print FILENAME ":" FNR ": " $0
    }
    { prev = $0 }
' crates/tensor/src/*.rs)
if [ -n "$unsafe_sites" ]; then
    echo "panic_audit: unsafe in crates/tensor/src outside an ISA-dispatch call preceded by // SAFETY:" >&2
    echo "$unsafe_sites" >&2
    exit 1
fi
echo "panic_audit: OK"
