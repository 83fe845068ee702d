#!/usr/bin/env bash
# Metric-cardinality audit: the windowed time-series store
# (stisan_obs::timeseries) holds a fixed number of series
# (TsConfig::max_series = 256) and evicts nothing — if the registry's
# cardinality creeps past that, windowed history silently stops covering
# new series (`timeseries.dropped_events` counts the loss). This gate fails
# verify.sh before that happens.
#
# Audits the live-scrape artifact `gateway_bench --smoke` leaves behind
# (results/metrics_scrape.prom — the real admin-endpoint exposition, so it
# counts what production would register):
#
#   * declared families (`# TYPE` lines) vs FAMILY_BUDGET;
#   * sample lines (series, incl. per-quantile/window gauges) vs
#     SERIES_BUDGET, kept under the store's 256 with headroom for the
#     per-deployment series a real fleet adds.
set -euo pipefail
cd "$(dirname "$0")/.."

SCRAPE=${1:-results/metrics_scrape.prom}
FAMILY_BUDGET=160
SERIES_BUDGET=224

if [ ! -f "$SCRAPE" ]; then
    echo "cardinality_audit: $SCRAPE not found (run gateway_bench --smoke first)" >&2
    exit 2
fi

families=$(grep -c '^# TYPE ' "$SCRAPE" || true)
# Series = non-comment, non-blank sample lines.
series=$(grep -cv -e '^#' -e '^[[:space:]]*$' "$SCRAPE" || true)

fail=0
if [ "$families" -gt "$FAMILY_BUDGET" ]; then
    echo "cardinality_audit: $families declared families exceed budget $FAMILY_BUDGET" >&2
    fail=1
fi
if [ "$series" -gt "$SERIES_BUDGET" ]; then
    echo "cardinality_audit: $series series exceed budget $SERIES_BUDGET (store holds 256)" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "cardinality_audit: FAILED — trim series or raise the budget deliberately (and
    TsConfig::max_series with it) in the same commit" >&2
    exit 1
fi
echo "cardinality_audit: OK — $families families, $series series (budgets $FAMILY_BUDGET/$SERIES_BUDGET)"
