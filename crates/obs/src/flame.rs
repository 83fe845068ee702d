//! Serve-path profile tree with folded-stacks flamegraph export.
//!
//! The [`ServeProfiler`] aggregates wall time and allocation churn per
//! *span stack* — the `;`-joined path of frames open on a thread, e.g.
//! `serve_one;linear`. Frames come from two sources: RAII [`frame`] guards
//! (and every [`crate::span`] while serve profiling is on), and
//! [`kernel`] guards emitted by the serving executor's ops in
//! `stisan-tensor`, which additionally feed a per-kernel [`TapeProfiler`]
//! cost table — the same `OpKindRow` machinery the training tape uses.
//!
//! ## Attribution model
//!
//! Attribution is *interval-based*: each thread keeps the timestamp and
//! allocation counters of its last push/pop event, and on every event the
//! elapsed microseconds and alloc deltas since then are charged to the
//! stack that was active during that interval. Self time and self
//! allocations therefore fall out by construction — a parent frame is
//! never charged for an interval during which a child was open, so nested
//! frames cannot double-count. Peak scratch bytes per frame use
//! [`crate::alloc::begin_peak_window`]/[`crate::alloc::end_peak_window`].
//!
//! ## Disabled path
//!
//! While [`enabled`] is false, [`frame`] and [`kernel`] return inert
//! guards after one relaxed atomic load: no thread-local access, no
//! allocation, no clock read.
//!
//! ## Folded export
//!
//! [`ServeProfiler::to_folded`] emits the standard folded-stacks format —
//! one `frame;frame;frame count` line per stack, where the count is the
//! stack's self time in microseconds — consumable directly by
//! `flamegraph.pl` or `inferno-flamegraph`. Frame names are sanitized so
//! `;` and whitespace can never corrupt a line.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::alloc;
use crate::plock;
use crate::profile::TapeProfiler;
use crate::report::{json_num, json_str};

static SERVE_PROF: AtomicBool = AtomicBool::new(false);

/// Turns serve-path profiling on (frames, kernel timing, flame tree).
pub fn enable() {
    SERVE_PROF.store(true, Ordering::SeqCst);
}

/// Turns serve-path profiling off; accumulated stats are kept.
pub fn disable() {
    SERVE_PROF.store(false, Ordering::SeqCst);
}

/// Whether serve-path profiling is on (one relaxed atomic load).
#[inline]
pub fn enabled() -> bool {
    SERVE_PROF.load(Ordering::Relaxed)
}

/// Aggregate cost of one span stack.
#[derive(Clone, Copy, Debug, Default)]
pub struct FrameStats {
    /// Times this exact stack was entered.
    pub count: u64,
    /// Self wall time in microseconds (intervals with this stack active).
    pub self_us: u64,
    /// Allocations made while this stack was the innermost active one.
    pub allocs: u64,
    /// Bytes allocated while this stack was the innermost active one.
    pub alloc_bytes: u64,
    /// Max bytes any single entry of this stack peaked above its live
    /// level at entry (includes children's scratch, by design).
    pub peak_bytes: u64,
}

/// One row of a profile snapshot: a `;`-joined stack and its stats.
#[derive(Clone, Debug)]
pub struct FrameRow {
    pub stack: String,
    pub stats: FrameStats,
}

struct Mark {
    /// `path` length to restore on pop.
    path_len: usize,
    saved_peak: u64,
    live_at_open: u64,
}

struct TState {
    /// `;`-joined stack of open frames on this thread.
    path: String,
    marks: Vec<Mark>,
    last: Option<Instant>,
    last_allocs: u64,
    last_bytes: u64,
}

thread_local! {
    static TS: RefCell<TState> = const {
        RefCell::new(TState {
            path: String::new(),
            marks: Vec::new(),
            last: None,
            last_allocs: 0,
            last_bytes: 0,
        })
    };
}

/// Appends `name` to `path`, replacing `;` and whitespace (which would
/// corrupt the folded format) with `_`.
fn push_sanitized(path: &mut String, name: &str) {
    if name.is_empty() {
        path.push('_');
        return;
    }
    for ch in name.chars() {
        path.push(if ch == ';' || ch.is_whitespace() { '_' } else { ch });
    }
}

/// Charges the interval since the last event to the currently-active
/// stack, then re-arms the interval clock and alloc baseline.
fn flush(ts: &mut TState, prof: &ServeProfiler) {
    let now = Instant::now();
    let a = alloc::thread_stats();
    if let Some(last) = ts.last {
        if !ts.marks.is_empty() {
            let us = now.duration_since(last).as_micros() as u64;
            let d_allocs = a.allocs.wrapping_sub(ts.last_allocs);
            let d_bytes = a.bytes.wrapping_sub(ts.last_bytes);
            prof.accumulate(&ts.path, us, d_allocs, d_bytes);
        }
    }
    ts.last = Some(now);
    ts.last_allocs = a.allocs;
    ts.last_bytes = a.bytes;
}

/// Opens a frame named `name` on this thread's stack (internal; use the
/// [`frame`]/[`kernel`] guards).
pub(crate) fn push(name: &'static str) {
    let Some(prof) = crate::serve_profiler() else { return };
    TS.with(|ts| {
        let ts = &mut *ts.borrow_mut();
        flush(ts, prof);
        let mark_len = ts.path.len();
        if !ts.path.is_empty() {
            ts.path.push(';');
        }
        push_sanitized(&mut ts.path, name);
        let (saved_peak, live_at_open) = alloc::begin_peak_window();
        ts.marks.push(Mark { path_len: mark_len, saved_peak, live_at_open });
        prof.enter(&ts.path);
    });
}

/// Closes the innermost frame on this thread's stack.
pub(crate) fn pop() {
    let Some(prof) = crate::serve_profiler() else { return };
    TS.with(|ts| {
        let ts = &mut *ts.borrow_mut();
        flush(ts, prof);
        if let Some(mark) = ts.marks.pop() {
            let peak = alloc::end_peak_window(mark.saved_peak, mark.live_at_open);
            prof.record_peak(&ts.path, peak);
            ts.path.truncate(mark.path_len);
        }
    });
}

/// Guard returned by [`frame`]; closes the frame on drop.
#[must_use = "a frame closes on drop; bind it (`let _f = ...`) so it covers the scope"]
pub struct FrameGuard {
    active: bool,
}

/// Opens a named profile frame. Inert (one relaxed load) unless serve
/// profiling is enabled and observability is initialised.
pub fn frame(name: &'static str) -> FrameGuard {
    if !enabled() || crate::serve_profiler().is_none() {
        return FrameGuard { active: false };
    }
    push(name);
    FrameGuard { active: true }
}

impl Drop for FrameGuard {
    fn drop(&mut self) {
        if self.active {
            pop();
        }
    }
}

/// Guard returned by [`kernel`]; on drop, closes the flame frame *and*
/// records the kernel's wall time and FLOPs into the serve-side
/// per-kernel cost table.
#[must_use = "a kernel guard records on drop; bind it so it covers the kernel"]
pub struct KernelGuard {
    kind: &'static str,
    flops: u64,
    start: Option<Instant>,
}

/// Times one inference kernel execution of `kind`. Inert (one relaxed
/// load) unless serve profiling is enabled.
pub fn kernel(kind: &'static str, flops: u64) -> KernelGuard {
    if !enabled() || crate::serve_profiler().is_none() {
        return KernelGuard { kind, flops, start: None };
    }
    push(kind);
    KernelGuard { kind, flops, start: Some(Instant::now()) }
}

impl Drop for KernelGuard {
    fn drop(&mut self) {
        if let Some(t0) = self.start {
            pop();
            if let Some(prof) = crate::serve_profiler() {
                prof.kernels.record_forward(self.kind, t0.elapsed().as_nanos() as u64, self.flops);
            }
        }
    }
}

/// The serve-path profile accumulator: a flame tree keyed by span stack
/// plus a per-kernel cost table. One per process, on [`crate::Obs`].
#[derive(Default)]
pub struct ServeProfiler {
    frames: Mutex<BTreeMap<String, FrameStats>>,
    /// Per-kernel self-time table (same `OpKindRow` rows as the tape
    /// profiler), fed by [`KernelGuard`]s.
    pub kernels: TapeProfiler,
}

impl ServeProfiler {
    fn enter(&self, path: &str) {
        let mut frames = plock(&self.frames);
        if let Some(s) = frames.get_mut(path) {
            s.count += 1;
        } else {
            frames.insert(path.to_string(), FrameStats { count: 1, ..FrameStats::default() });
        }
    }

    fn accumulate(&self, path: &str, us: u64, allocs: u64, bytes: u64) {
        let mut frames = plock(&self.frames);
        let s = match frames.get_mut(path) {
            Some(s) => s,
            None => {
                frames.insert(path.to_string(), FrameStats::default());
                match frames.get_mut(path) {
                    Some(s) => s,
                    None => return,
                }
            }
        };
        s.self_us += us;
        s.allocs += allocs;
        s.alloc_bytes += bytes;
    }

    fn record_peak(&self, path: &str, peak: u64) {
        let mut frames = plock(&self.frames);
        if let Some(s) = frames.get_mut(path) {
            if peak > s.peak_bytes {
                s.peak_bytes = peak;
            }
        }
    }

    /// The profile tree, sorted by self time descending.
    pub fn snapshot(&self) -> Vec<FrameRow> {
        let frames = plock(&self.frames);
        let mut rows: Vec<FrameRow> =
            frames.iter().map(|(stack, &stats)| FrameRow { stack: stack.clone(), stats }).collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.stats.self_us));
        rows
    }

    /// Clears the flame tree and the kernel table.
    pub fn reset(&self) {
        plock(&self.frames).clear();
        self.kernels.reset();
    }

    /// Folded-stacks export: one `a;b;c self_us` line per stack with
    /// nonzero self time, in stack order (flamegraph.pl compatible).
    pub fn to_folded(&self) -> String {
        let frames = plock(&self.frames);
        let mut out = String::new();
        for (stack, stats) in frames.iter() {
            if stats.self_us > 0 {
                out.push_str(stack);
                out.push(' ');
                out.push_str(&stats.self_us.to_string());
                out.push('\n');
            }
        }
        out
    }

    /// The full profile (alloc stats + flame tree + kernel table) as a
    /// JSON object, served by the gateway's `GET /profile`.
    pub fn to_json(&self) -> String {
        let a = alloc::global_stats();
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"profiling_enabled\":{},\"alloc\":{{\"active\":{},\"allocs\":{},\"bytes\":{},\"live\":{},\"peak\":{}}}",
            enabled(),
            alloc::active(),
            a.allocs,
            a.bytes,
            a.live,
            a.peak
        ));
        out.push_str(",\"frames\":[");
        for (i, row) in self.snapshot().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"stack\":{},\"count\":{},\"self_us\":{},\"allocs\":{},\"alloc_bytes\":{},\"peak_bytes\":{}}}",
                json_str(&row.stack),
                row.stats.count,
                row.stats.self_us,
                row.stats.allocs,
                row.stats.alloc_bytes,
                row.stats.peak_bytes
            ));
        }
        out.push_str("],\"kernels\":[");
        for (i, row) in self.kernels.snapshot().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"kind\":{},\"count\":{},\"self_ms\":{},\"flops\":{}}}",
                json_str(row.kind),
                row.stats.count,
                json_num(row.forward_ms()),
                row.stats.flops
            ));
        }
        out.push_str("]}");
        out
    }

    /// Publishes aggregate `alloc.*` / `prof.*` gauges into `reg` so they
    /// appear in the Prometheus exposition next to the serving metrics.
    pub fn publish_gauges(&self, reg: &crate::Registry) {
        let a = alloc::global_stats();
        reg.set_gauge("alloc.active", if alloc::active() { 1.0 } else { 0.0 });
        reg.set_gauge("alloc.allocs_total", a.allocs as f64);
        reg.set_gauge("alloc.bytes_total", a.bytes as f64);
        reg.set_gauge("alloc.live_bytes", a.live as f64);
        reg.set_gauge("alloc.peak_live_bytes", a.peak as f64);
        let rows = self.kernels.snapshot();
        let kernel_us: u64 = rows.iter().map(|r| r.stats.forward_ns / 1_000).sum();
        reg.set_gauge("prof.enabled", if enabled() { 1.0 } else { 0.0 });
        reg.set_gauge("prof.frames", plock(&self.frames).len() as f64);
        reg.set_gauge("prof.kernel_kinds", rows.len() as f64);
        reg.set_gauge("prof.kernel_self_us_total", kernel_us as f64);
    }
}

/// Parses folded-stacks text back into `(frames, count)` pairs,
/// validating the invariants the exporter guarantees: every line is
/// `stack <u64>`, every frame is non-empty and free of `;`/whitespace.
pub fn parse_folded(text: &str) -> Result<Vec<(Vec<String>, u64)>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let (stack, count) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no count separator: {line:?}", lineno + 1))?;
        let count: u64 = count
            .parse()
            .map_err(|e| format!("line {}: bad count {count:?}: {e}", lineno + 1))?;
        if stack.is_empty() {
            return Err(format!("line {}: empty stack", lineno + 1));
        }
        let mut frames = Vec::new();
        for f in stack.split(';') {
            if f.is_empty() {
                return Err(format!("line {}: empty frame in {stack:?}", lineno + 1));
            }
            if f.chars().any(|c| c.is_whitespace()) {
                return Err(format!("line {}: whitespace in frame {f:?}", lineno + 1));
            }
            frames.push(f.to_string());
        }
        out.push((frames, count));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folded_roundtrip_and_validation() {
        let p = ServeProfiler::default();
        p.enter("serve_one");
        p.accumulate("serve_one", 120, 3, 4096);
        p.enter("serve_one;linear");
        p.accumulate("serve_one;linear", 80, 1, 512);
        let folded = p.to_folded();
        let parsed = parse_folded(&folded).expect("exporter output must parse");
        assert_eq!(parsed.len(), 2);
        let total: u64 = parsed.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 200);
        assert!(parsed.iter().any(|(s, c)| s == &["serve_one"] && *c == 120));
        assert!(parsed.iter().any(|(s, c)| s == &["serve_one", "linear"] && *c == 80));

        assert!(parse_folded("a;;b 10").is_err(), "empty frame must be rejected");
        assert!(parse_folded("a;b ten").is_err(), "non-numeric count must be rejected");
        assert!(parse_folded("nospace").is_err(), "missing count must be rejected");
    }

    #[test]
    fn sanitizer_keeps_folded_lines_wellformed() {
        let mut path = String::new();
        push_sanitized(&mut path, "bad;name with spaces");
        assert_eq!(path, "bad_name_with_spaces");
        let mut empty = String::new();
        push_sanitized(&mut empty, "");
        assert_eq!(empty, "_");
    }

    #[test]
    fn snapshot_sorts_by_self_time_and_json_is_wellformed() {
        let p = ServeProfiler::default();
        p.accumulate("cold", 5, 0, 0);
        p.accumulate("hot", 500, 2, 64);
        p.record_peak("hot", 4096);
        p.kernels.record_forward("linear", 1_000_000, 2048);
        let rows = p.snapshot();
        assert_eq!(rows[0].stack, "hot");
        assert_eq!(rows[0].stats.peak_bytes, 4096);
        let json = p.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"frames\":["));
        assert!(json.contains("\"kernels\":["));
        assert!(json.contains("\"kind\":\"linear\""));
    }
}
