//! The autodiff-tape profiler.
//!
//! `stisan-tensor`'s `Graph` calls [`TapeProfiler::record_forward`] once
//! per op it computes (with the op's wall time and estimated FLOPs) and
//! [`TapeProfiler::record_backward`] once per op visited during the
//! backward sweep. The profiler aggregates per op *kind* — `linear`,
//! `bmm`, `softmax_last`, ... — so a snapshot is a compact cost table for
//! the whole run. Keys are `&'static str` supplied by the tensor crate, so
//! recording never allocates.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::plock;

/// Aggregate cost of one op kind.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpKindStats {
    /// Forward executions (tape pushes).
    pub count: u64,
    /// Total forward wall time in nanoseconds.
    pub forward_ns: u64,
    /// Backward visits (only ops reached by the backward sweep).
    pub backward_count: u64,
    /// Total backward wall time in nanoseconds.
    pub backward_ns: u64,
    /// Total estimated forward FLOPs.
    pub flops: u64,
}

/// One row of a profiler snapshot (see [`TapeProfiler::snapshot`]).
#[derive(Clone, Debug)]
pub struct OpKindRow {
    pub kind: &'static str,
    pub stats: OpKindStats,
}

impl OpKindRow {
    /// Forward time in milliseconds.
    pub fn forward_ms(&self) -> f64 {
        self.stats.forward_ns as f64 / 1e6
    }
    /// Backward time in milliseconds.
    pub fn backward_ms(&self) -> f64 {
        self.stats.backward_ns as f64 / 1e6
    }
}

/// Per-op-kind cost accumulator; shared by every `Graph` of a run.
#[derive(Default)]
pub struct TapeProfiler {
    kinds: Mutex<BTreeMap<&'static str, OpKindStats>>,
}

impl TapeProfiler {
    pub fn new() -> Self {
        TapeProfiler::default()
    }

    /// Records one forward execution of `kind`.
    pub fn record_forward(&self, kind: &'static str, ns: u64, flops: u64) {
        let mut kinds = plock(&self.kinds);
        let s = kinds.entry(kind).or_default();
        s.count += 1;
        s.forward_ns += ns;
        s.flops += flops;
    }

    /// Records one backward visit of `kind`.
    pub fn record_backward(&self, kind: &'static str, ns: u64) {
        let mut kinds = plock(&self.kinds);
        let s = kinds.entry(kind).or_default();
        s.backward_count += 1;
        s.backward_ns += ns;
    }

    /// Cost table sorted by total (forward + backward) time, descending.
    pub fn snapshot(&self) -> Vec<OpKindRow> {
        let kinds = plock(&self.kinds);
        let mut rows: Vec<OpKindRow> =
            kinds.iter().map(|(&kind, &stats)| OpKindRow { kind, stats }).collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.stats.forward_ns + r.stats.backward_ns));
        rows
    }

    /// Total estimated FLOPs across all op kinds.
    pub fn total_flops(&self) -> u64 {
        plock(&self.kinds).values().map(|s| s.flops).sum()
    }

    /// Clears all accumulated stats.
    pub fn reset(&self) {
        plock(&self.kinds).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_per_kind() {
        let p = TapeProfiler::new();
        p.record_forward("linear", 100, 640);
        p.record_forward("linear", 50, 640);
        p.record_forward("add", 10, 8);
        p.record_backward("linear", 30);
        let rows = p.snapshot();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].kind, "linear"); // most expensive first
        assert_eq!(rows[0].stats.count, 2);
        assert_eq!(rows[0].stats.forward_ns, 150);
        assert_eq!(rows[0].stats.backward_count, 1);
        assert_eq!(rows[0].stats.flops, 1280);
        assert_eq!(p.total_flops(), 1288);
        p.reset();
        assert!(p.snapshot().is_empty());
    }
}
