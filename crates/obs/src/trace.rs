//! Request-scoped tracing: trace ids, per-stage monotonic stamps, per-stage
//! latency histograms, and tail-sampled exemplars.
//!
//! A [`TraceCtx`] is created at admission (stage [`Stage::Admitted`] is
//! stamped at 0 µs) and carried with the request through the serving
//! pipeline; each stage calls [`TraceCtx::stamp`], which records microseconds
//! elapsed since admission on a monotonic clock — stamps are therefore
//! non-decreasing by construction and independent of any wall clock.
//!
//! [`record_trace`] folds a finished trace into the global registry as
//! per-stage histograms (`trace.queue_us`, `trace.score_us`, ...) and
//! considers it for the **exemplar table**: the slowest
//! [`EXEMPLAR_CAP`] traces seen so far, kept with their full stage
//! breakdown so a tail-latency incident always has concrete requests to
//! look at.

use std::sync::Mutex;
use std::time::Instant;

use crate::plock;

/// Stages of a request's life inside the serving stack, in pipeline order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Stage {
    /// Frame decoded and validated; a trace id exists.
    Admitted = 0,
    /// Accepted by the micro-batcher's bounded queue.
    Enqueued = 1,
    /// Its batch was sealed and handed to the dispatcher.
    BatchSealed = 2,
    /// Scoring (candidate pruning + frozen forward + top-K) finished.
    Scored = 3,
    /// The response frame was handed to the transport.
    Written = 4,
}

/// Number of [`Stage`] values (stamp-array length).
pub const STAGE_COUNT: usize = 5;

impl Stage {
    /// Stable lowercase name, used in exposition and dump output.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Admitted => "admitted",
            Stage::Enqueued => "enqueued",
            Stage::BatchSealed => "batch_sealed",
            Stage::Scored => "scored",
            Stage::Written => "written",
        }
    }

    /// Inverse of `as u8`.
    pub fn from_u8(v: u8) -> Option<Stage> {
        match v {
            0 => Some(Stage::Admitted),
            1 => Some(Stage::Enqueued),
            2 => Some(Stage::BatchSealed),
            3 => Some(Stage::Scored),
            4 => Some(Stage::Written),
            _ => None,
        }
    }

    /// All stages, pipeline order.
    pub fn all() -> [Stage; STAGE_COUNT] {
        [Stage::Admitted, Stage::Enqueued, Stage::BatchSealed, Stage::Scored, Stage::Written]
    }
}

/// Sentinel for a stage that was never reached.
const UNSET: u64 = u64::MAX;

/// One request's trace: an id plus microsecond stage stamps relative to
/// admission, measured on a monotonic clock owned by the context.
#[derive(Clone, Debug)]
pub struct TraceCtx {
    /// The request's trace id (client-supplied or server-assigned).
    pub trace_id: u64,
    t0: Instant,
    stamps: [u64; STAGE_COUNT],
}

impl TraceCtx {
    /// Opens a trace; [`Stage::Admitted`] is stamped at 0 µs.
    pub fn new(trace_id: u64) -> TraceCtx {
        let mut stamps = [UNSET; STAGE_COUNT];
        stamps[Stage::Admitted as usize] = 0;
        TraceCtx { trace_id, t0: Instant::now(), stamps }
    }

    /// Stamps `stage` at the current monotonic offset and returns the
    /// microseconds since admission. Re-stamping overwrites.
    pub fn stamp(&mut self, stage: Stage) -> u64 {
        let us = self.t0.elapsed().as_micros() as u64;
        self.stamps[stage as usize] = us;
        us
    }

    /// Microseconds since admission at which `stage` was stamped, if ever.
    pub fn get(&self, stage: Stage) -> Option<u64> {
        let v = self.stamps[stage as usize];
        (v != UNSET).then_some(v)
    }

    /// Total latency so far: the largest stamped offset.
    pub fn total_us(&self) -> u64 {
        self.stamps.iter().copied().filter(|&v| v != UNSET).max().unwrap_or(0)
    }

    /// Whether stamps are non-decreasing in pipeline order (skipping unset
    /// stages). True by construction when stamped in order on one context.
    pub fn is_monotonic(&self) -> bool {
        let mut last = 0u64;
        for &v in &self.stamps {
            if v == UNSET {
                continue;
            }
            if v < last {
                return false;
            }
            last = v;
        }
        true
    }

    /// Durations between consecutive *stamped* stages, labeled
    /// `<from>_to_<to>_us`-style by the caller; here as (from, to, µs).
    pub fn stage_durations(&self) -> Vec<(Stage, Stage, u64)> {
        let mut out = Vec::new();
        let mut prev: Option<(Stage, u64)> = None;
        for s in Stage::all() {
            if let Some(v) = self.get(s) {
                if let Some((ps, pv)) = prev {
                    out.push((ps, s, v.saturating_sub(pv)));
                }
                prev = Some((s, v));
            }
        }
        out
    }
}

/// Histogram name for the interval ending at `to`. Fixed short names so the
/// exposition stays stable: queue wait, batch seal wait, scoring, write-back.
pub fn interval_metric(to: Stage) -> &'static str {
    match to {
        Stage::Admitted => "trace.admit_us",
        Stage::Enqueued => "trace.admit_to_enqueue_us",
        Stage::BatchSealed => "trace.queue_us",
        Stage::Scored => "trace.score_us",
        Stage::Written => "trace.write_us",
    }
}

/// One retained slow trace: id plus its full stage breakdown.
#[derive(Clone, Debug)]
pub struct TraceExemplar {
    /// The trace id.
    pub trace_id: u64,
    /// Stage stamps in µs since admission; `None` = stage not reached.
    pub stamps_us: [Option<u64>; STAGE_COUNT],
    /// Total latency (largest stamp).
    pub total_us: u64,
}

/// How many slowest traces the exemplar table retains.
pub const EXEMPLAR_CAP: usize = 8;

/// Tail-sampling state: the slowest-N table.
#[derive(Default)]
pub struct TraceHub {
    exemplars: Mutex<Vec<TraceExemplar>>,
}

impl TraceHub {
    /// Feeds one finished trace: per-stage histograms into `registry`,
    /// then the slowest-N exemplar table.
    pub fn record(&self, registry: &crate::Registry, ctx: &TraceCtx) {
        for (_, to, us) in ctx.stage_durations() {
            registry.observe(interval_metric(to), us as f64);
        }
        let total = ctx.total_us();
        registry.observe("trace.total_us", total as f64);

        let mut table = plock(&self.exemplars);
        if table.len() >= EXEMPLAR_CAP && table.last().is_some_and(|w| total <= w.total_us) {
            return; // faster than everything retained
        }
        let mut stamps_us = [None; STAGE_COUNT];
        for s in Stage::all() {
            stamps_us[s as usize] = ctx.get(s);
        }
        table.push(TraceExemplar { trace_id: ctx.trace_id, stamps_us, total_us: total });
        table.sort_by_key(|e| std::cmp::Reverse(e.total_us));
        table.truncate(EXEMPLAR_CAP);
    }

    /// The current slowest-N table, slowest first.
    pub fn exemplars(&self) -> Vec<TraceExemplar> {
        plock(&self.exemplars).clone()
    }
}

/// Renders exemplars as a JSON array (hand-emitted; std-only crate).
pub fn exemplars_to_json(exemplars: &[TraceExemplar]) -> String {
    let mut s = String::from("[");
    for (i, e) in exemplars.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("{{\"trace_id\":{},\"total_us\":{},\"stages\":{{", e.trace_id, e.total_us));
        let mut first = true;
        for st in Stage::all() {
            if let Some(v) = e.stamps_us[st as usize] {
                if !first {
                    s.push(',');
                }
                first = false;
                s.push_str(&format!("\"{}\":{v}", st.name()));
            }
        }
        s.push_str("}}");
    }
    s.push(']');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_are_monotonic_and_relative_to_admission() {
        let mut t = TraceCtx::new(7);
        assert_eq!(t.get(Stage::Admitted), Some(0));
        let a = t.stamp(Stage::Enqueued);
        let b = t.stamp(Stage::BatchSealed);
        let c = t.stamp(Stage::Scored);
        let d = t.stamp(Stage::Written);
        assert!(a <= b && b <= c && c <= d);
        assert!(t.is_monotonic());
        assert_eq!(t.total_us(), d);
        assert_eq!(t.stage_durations().len(), 4);
    }

    #[test]
    fn skipped_stages_are_skipped_in_durations() {
        let mut t = TraceCtx::new(1);
        t.stamp(Stage::Enqueued);
        t.stamp(Stage::Written);
        let d = t.stage_durations();
        let pairs: Vec<(Stage, Stage)> = d.iter().map(|&(a, b, _)| (a, b)).collect();
        assert_eq!(
            pairs,
            vec![(Stage::Admitted, Stage::Enqueued), (Stage::Enqueued, Stage::Written)]
        );
        assert_eq!(t.get(Stage::Scored), None);
    }

    #[test]
    fn hub_keeps_slowest_n() {
        let hub = TraceHub::default();
        let reg = crate::Registry::new();
        // 50 traces with strictly increasing totals; only the slowest
        // EXEMPLAR_CAP survive, slowest first.
        for i in 0..50u64 {
            let mut ctx = TraceCtx::new(i);
            // Forge totals without sleeping: stamp then overwrite directly.
            ctx.stamps[Stage::Written as usize] = i * 100;
            hub.record(&reg, &ctx);
        }
        let ex = hub.exemplars();
        assert_eq!(ex.len(), EXEMPLAR_CAP);
        assert_eq!(ex[0].trace_id, 49);
        assert!(ex.windows(2).all(|w| w[0].total_us >= w[1].total_us));
        // Histograms were fed for every trace.
        let snap = reg.snapshot();
        let total = snap.histograms.iter().find(|h| h.name == "trace.total_us");
        assert_eq!(total.map(|h| h.count()), Some(50));
    }

    #[test]
    fn exemplar_json_shape() {
        let e = TraceExemplar {
            trace_id: 3,
            stamps_us: [Some(0), Some(10), None, Some(40), Some(41)],
            total_us: 41,
        };
        let j = exemplars_to_json(&[e]);
        assert!(j.contains("\"trace_id\":3"));
        assert!(j.contains("\"admitted\":0"));
        assert!(j.contains("\"scored\":40"));
        assert!(!j.contains("batch_sealed"));
    }

    #[test]
    fn stage_u8_roundtrip() {
        for s in Stage::all() {
            assert_eq!(Stage::from_u8(s as u8), Some(s));
        }
        assert_eq!(Stage::from_u8(99), None);
    }
}
