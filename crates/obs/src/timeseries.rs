//! Fixed-memory windowed time-series over [`Registry`] snapshots.
//!
//! The registry answers "what has happened since the process started";
//! this module answers "what happened in the last minute". A sampler
//! thread calls [`Registry::snapshot`] on a fixed cadence and feeds the
//! result to [`TimeSeriesStore::ingest`], which turns cumulative values
//! into **per-bucket deltas** held in rings of time-aligned buckets:
//!
//! * **Counters** — the delta since the previous sample lands in the
//!   bucket containing `now`. A cumulative value that *decreases* is read
//!   as a process restart and the new value is taken as the delta, so
//!   windowed sums never go negative (see the wraparound property test).
//! * **Gauges** — last write wins per bucket; the store also tracks when
//!   the value last *changed*, which is what the staleness SLO reads.
//! * **Histograms** — the registry keeps a cumulative [`Sketch`] per
//!   histogram; the store diffs successive sketches element-wise
//!   ([`Sketch::delta_since`]) into per-bucket delta sketches. Delta
//!   sketches merge exactly (vector addition), so a windowed p50/p95/p99
//!   over any span equals the sketch quantile of the whole window — exact
//!   up to the documented [`SKETCH_REL_ERR`] bucket bound.
//! * **Windowed-quantile gauges** (`<hist>_p99_1m` etc.) are this store's
//!   own output, published back into the registry for `/metrics`; `ingest`
//!   skips them rather than keep a window of a window.
//!
//! Buckets are **aligned**: bucket epoch = `now_ms / bucket_ms`, so a
//! jittery sampler still lands samples in the right bucket (alignment
//! property test). Each ring slot is tagged with its absolute epoch, filled
//! on its first write and reset on reuse, so an idle series costs nothing
//! per tick and an unwritten bucket costs no sketch.
//!
//! The default layout is three levels — 120×1 s, 90×10 s, 60×60 s — giving
//! two minutes of fine-grained history and an hour of coarse history in at
//! most ~350 KB per histogram series (1.3 KB per written bucket). A hard
//! [`TsConfig::max_series`] budget bounds total memory: new series beyond
//! the budget are refused and counted, never silently absorbed
//! (`crates/gateway/tests/admin_surface.rs` gates the registry side of the
//! same risk on a live scrape).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::expo::WINDOWED_QUANTILE_SUFFIXES;
use crate::metrics::{Registry, Sketch, Snapshot, SKETCH_REL_ERR};
use crate::report::{json_num, json_str};

/// One resolution level: `len` aligned buckets of `bucket_ms` each.
#[derive(Clone, Copy, Debug)]
pub struct LevelSpec {
    pub bucket_ms: u64,
    pub len: usize,
}

impl LevelSpec {
    /// The wall-clock span this level can cover.
    pub fn span_ms(&self) -> u64 {
        self.bucket_ms * self.len as u64
    }
}

/// Store layout: resolution levels (finest first) and the series budget.
#[derive(Clone, Debug)]
pub struct TsConfig {
    /// Finest-first; every level must have `bucket_ms >= 1` and `len >= 1`.
    pub levels: Vec<LevelSpec>,
    /// Hard cap on distinct series; excess names are refused and counted.
    pub max_series: usize,
}

impl Default for TsConfig {
    /// 120×1 s base with 10 s and 60 s rollups, budget 256 series.
    fn default() -> Self {
        TsConfig {
            levels: vec![
                LevelSpec { bucket_ms: 1_000, len: 120 },
                LevelSpec { bucket_ms: 10_000, len: 90 },
                LevelSpec { bucket_ms: 60_000, len: 60 },
            ],
            max_series: 256,
        }
    }
}

impl TsConfig {
    /// A uniformly scaled layout for tests: base bucket `base_ms` with the
    /// default 1×/10×/60× cascade.
    pub fn scaled(base_ms: u64) -> Self {
        TsConfig {
            levels: vec![
                LevelSpec { bucket_ms: base_ms.max(1), len: 120 },
                LevelSpec { bucket_ms: (base_ms * 10).max(1), len: 90 },
                LevelSpec { bucket_ms: (base_ms * 60).max(1), len: 60 },
            ],
            max_series: 256,
        }
    }
}

/// A ring of aligned buckets. A written slot holds the absolute bucket
/// epoch it stands for and that bucket's `T`; a slot is filled on its first
/// write, so a series pays only for buckets it has data in.
struct Ring<T> {
    bucket_ms: u64,
    slots: Vec<Option<(u64, T)>>,
}

impl<T: Default> Ring<T> {
    fn new(spec: LevelSpec) -> Self {
        Ring {
            bucket_ms: spec.bucket_ms.max(1),
            slots: (0..spec.len.max(1)).map(|_| None).collect(),
        }
    }

    fn epoch(&self, now_ms: u64) -> u64 {
        now_ms / self.bucket_ms
    }

    /// The slot for `now_ms`, reset to `T::default()` if it still holds an
    /// older epoch.
    fn touch(&mut self, now_ms: u64) -> &mut T {
        let e = self.epoch(now_ms);
        let i = (e % self.slots.len() as u64) as usize;
        let slot = &mut self.slots[i];
        if slot.as_ref().is_some_and(|&(tag, _)| tag != e) {
            *slot = None;
        }
        &mut slot.get_or_insert_with(|| (e, T::default())).1
    }

    /// Every written slot whose epoch is in `e_lo ..= e_now`, with its epoch.
    fn live(&self, e_lo: u64, e_now: u64) -> impl Iterator<Item = (u64, &T)> {
        self.slots
            .iter()
            .flatten()
            .filter(move |(tag, _)| (e_lo..=e_now).contains(tag))
            .map(|(tag, v)| (*tag, v))
    }

    /// Visits every live slot whose epoch falls in the last
    /// `ceil(span_ms / bucket_ms)` buckets ending at `now_ms` (the current
    /// partial bucket included), passing the slot's absolute epoch.
    fn scan(&self, span_ms: u64, now_ms: u64, mut f: impl FnMut(u64, &T)) {
        let e_now = self.epoch(now_ms);
        let n = (span_ms.div_ceil(self.bucket_ms)).max(1).min(self.slots.len() as u64);
        for (tag, v) in self.live(e_now.saturating_sub(n - 1), e_now) {
            f(tag, v);
        }
    }
}

/// A histogram's `sum` and bucket counts: one ring bucket's worth of
/// deltas, or (as `Series::Hist::last`) the cumulative state last ingested.
#[derive(Clone, Default)]
struct HistSlot {
    sum: f64,
    sketch: Sketch,
}

enum Series {
    Counter { last: u64, rings: Vec<Ring<u64>> },
    Gauge { last: f64, last_change_ms: u64, rings: Vec<Ring<f64>> },
    Hist { last: HistSlot, rings: Vec<Ring<HistSlot>> },
}

/// What a windowed query returns for one series.
#[derive(Clone, Debug)]
pub enum WindowValue {
    /// Delta sum over the window and the implied per-second rate.
    Counter { sum: u64, rate_per_s: f64 },
    /// Most recent bucket value in the window and when the underlying
    /// gauge last changed (sampler clock).
    Gauge { value: f64, last_change_ms: u64 },
    /// Merged observation deltas over the window (`count` is the sketch's
    /// total).
    Hist { count: u64, sum: f64, sketch: Sketch },
}

/// Fixed-memory store of windowed series (see the module docs).
pub struct TimeSeriesStore {
    cfg: TsConfig,
    series: BTreeMap<String, Series>,
    dropped_events: u64,
    ingests: u64,
    last_ingest_ms: u64,
}

impl TimeSeriesStore {
    pub fn new(cfg: TsConfig) -> Self {
        let cfg = if cfg.levels.is_empty() { TsConfig::default() } else { cfg };
        TimeSeriesStore {
            cfg,
            series: BTreeMap::new(),
            dropped_events: 0,
            ingests: 0,
            last_ingest_ms: 0,
        }
    }

    /// Whether a new series named `name` may be admitted.
    fn admit(&mut self, name: &str) -> bool {
        if self.series.contains_key(name) {
            return true;
        }
        if self.series.len() >= self.cfg.max_series {
            self.dropped_events += 1;
            return false;
        }
        true
    }

    /// Folds one cumulative snapshot into the rings at sampler time
    /// `now_ms`.
    pub fn ingest(&mut self, snap: &Snapshot, now_ms: u64) {
        self.ingests += 1;
        self.last_ingest_ms = now_ms;
        for &(ref name, cur) in &snap.counters {
            if !self.admit(name) {
                continue;
            }
            let levels = &self.cfg.levels;
            let s = self.series.entry(name.clone()).or_insert_with(|| Series::Counter {
                last: cur,
                rings: levels.iter().map(|&l| Ring::new(l)).collect(),
            });
            if let Series::Counter { last, rings } = s {
                // A shrinking cumulative counter means the process (or the
                // registry) restarted; the new total is the delta.
                let delta = if cur >= *last { cur - *last } else { cur };
                *last = cur;
                if delta > 0 {
                    for ring in rings {
                        *ring.touch(now_ms) += delta;
                    }
                }
            }
        }
        for &(ref name, cur) in &snap.gauges {
            let own_output = WINDOWED_QUANTILE_SUFFIXES.iter().any(|suf| name.ends_with(suf));
            if own_output || !self.admit(name) {
                continue;
            }
            let levels = &self.cfg.levels;
            let s = self.series.entry(name.clone()).or_insert_with(|| Series::Gauge {
                last: cur,
                last_change_ms: now_ms,
                rings: levels.iter().map(|&l| Ring::new(l)).collect(),
            });
            if let Series::Gauge { last, last_change_ms, rings } = s {
                if cur != *last {
                    *last = cur;
                    *last_change_ms = now_ms;
                }
                for ring in rings {
                    *ring.touch(now_ms) = cur;
                }
            }
        }
        for h in &snap.histograms {
            if !self.admit(&h.name) {
                continue;
            }
            let levels = &self.cfg.levels;
            let cur = HistSlot { sum: h.sum, sketch: h.sketch.clone() };
            let s = self.series.entry(h.name.clone()).or_insert_with(|| Series::Hist {
                last: cur.clone(),
                rings: levels.iter().map(|&l| Ring::new(l)).collect(),
            });
            if let Series::Hist { last, rings } = s {
                // Any shrinking bucket means a restart, and the new
                // cumulative state is taken whole.
                let delta = match cur.sketch.delta_since(&last.sketch) {
                    Some(sketch) => HistSlot { sum: cur.sum - last.sum, sketch },
                    None => cur.clone(),
                };
                if delta.sketch.count() > 0 {
                    for ring in rings {
                        let slot = ring.touch(now_ms);
                        slot.sum += delta.sum;
                        slot.sketch.merge(&delta.sketch);
                    }
                }
                *last = cur;
            }
        }
    }

    /// The finest level that can cover `span_ms` (falls back to the
    /// coarsest).
    fn level_for(&self, span_ms: u64) -> usize {
        self.cfg
            .levels
            .iter()
            .position(|l| l.span_ms() >= span_ms)
            .unwrap_or(self.cfg.levels.len() - 1)
    }

    /// Queries one series over the trailing `span_ms` window ending at
    /// `now_ms`. `None` if the series was never ingested.
    pub fn window(&self, name: &str, span_ms: u64, now_ms: u64) -> Option<WindowValue> {
        let li = self.level_for(span_ms);
        match self.series.get(name)? {
            Series::Counter { rings, .. } => {
                let mut sum = 0u64;
                rings[li].scan(span_ms, now_ms, |_, v| sum += *v);
                let rate = sum as f64 * 1e3 / span_ms.max(1) as f64;
                Some(WindowValue::Counter { sum, rate_per_s: rate })
            }
            Series::Gauge { last, last_change_ms, rings } => {
                // Newest write in the window, falling back to the last
                // value ever seen (a quiet gauge is still meaningful).
                let mut value = *last;
                let mut newest = 0u64;
                rings[li].scan(span_ms, now_ms, |tag, v| {
                    if tag >= newest {
                        newest = tag;
                        value = *v;
                    }
                });
                Some(WindowValue::Gauge { value, last_change_ms: *last_change_ms })
            }
            Series::Hist { rings, .. } => {
                let mut sum = 0.0f64;
                let mut sketch = Sketch::default();
                rings[li].scan(span_ms, now_ms, |_, slot| {
                    sum += slot.sum;
                    sketch.merge(&slot.sketch);
                });
                Some(WindowValue::Hist { count: sketch.count(), sum, sketch })
            }
        }
    }

    /// Live series count.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// How many times a new series was refused by the budget.
    pub fn dropped_events(&self) -> u64 {
        self.dropped_events
    }

    /// Sampler ticks ingested so far.
    pub fn ingests(&self) -> u64 {
        self.ingests
    }

    /// The configured levels (finest first).
    pub fn levels(&self) -> &[LevelSpec] {
        &self.cfg.levels
    }

    /// Publishes windowed-quantile gauges (`<hist>_p50_1m` / `_p95_1m` /
    /// `_p99_1m` over the trailing minute) plus the store's own
    /// `timeseries.*` health gauges into `reg`, so `/metrics` exposes
    /// windowed percentiles alongside the lifetime summaries.
    pub fn publish_windowed_gauges(&self, reg: &Registry, now_ms: u64) {
        for (name, s) in &self.series {
            if !matches!(s, Series::Hist { .. }) {
                continue;
            }
            if let Some(WindowValue::Hist { count, sketch, .. }) =
                self.window(name, 60_000, now_ms)
            {
                if count == 0 {
                    continue;
                }
                for (suffix, v) in WINDOWED_QUANTILE_SUFFIXES.iter().zip(sketch.p50_p95_p99()) {
                    reg.set_gauge(&format!("{name}{suffix}"), v);
                }
            }
        }
        reg.set_gauge("timeseries.series", self.series.len() as f64);
        reg.set_gauge("timeseries.dropped_events", self.dropped_events as f64);
    }

    /// The base-level history as JSON for `GET /timeseries`: per series,
    /// the last `len` aligned buckets (oldest first; unwritten buckets are
    /// 0). Counters render as per-second rates, gauges as values,
    /// histograms as per-bucket p99 plus observation counts.
    pub fn render_json(&self, now_ms: u64) -> String {
        let base = self.cfg.levels[0];
        let e_now = now_ms / base.bucket_ms;
        let n = base.len as u64;
        let mut out = String::with_capacity(4096);
        let _ = write!(
            out,
            "{{\"now_ms\":{now_ms},\"bucket_ms\":{},\"len\":{},\"series\":{{",
            base.bucket_ms, base.len
        );
        let mut first = true;
        for (name, s) in &self.series {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "{}:", json_str(name));
            // Oldest-first epochs e_now-n+1 ..= e_now, read through a
            // scratch indexed by epoch offset.
            match s {
                Series::Counter { rings, .. } => {
                    let pts = collect::<u64>(&rings[0], e_now, n, |v| *v as f64);
                    out.push_str("{\"kind\":\"counter\",\"points\":[");
                    let per_s = 1e3 / base.bucket_ms as f64;
                    push_nums(&mut out, pts.iter().map(|&v| v * per_s));
                    out.push_str("]}");
                }
                Series::Gauge { rings, .. } => {
                    let pts = collect::<f64>(&rings[0], e_now, n, |v| *v);
                    out.push_str("{\"kind\":\"gauge\",\"points\":[");
                    push_nums(&mut out, pts.iter().copied());
                    out.push_str("]}");
                }
                Series::Hist { rings, .. } => {
                    let p99 = collect::<HistSlot>(&rings[0], e_now, n, |s| s.sketch.quantile(0.99));
                    let counts =
                        collect::<HistSlot>(&rings[0], e_now, n, |s| s.sketch.count() as f64);
                    out.push_str("{\"kind\":\"hist\",\"points\":[");
                    push_nums(&mut out, p99.iter().copied());
                    out.push_str("],\"counts\":[");
                    push_nums(&mut out, counts.iter().copied());
                    out.push_str("]}");
                }
            }
        }
        let _ = write!(
            out,
            "}},\"series_count\":{},\"dropped_events\":{},\"sketch_rel_err\":{}}}",
            self.series.len(),
            self.dropped_events,
            json_num(SKETCH_REL_ERR)
        );
        out
    }
}

/// Oldest-first per-epoch values for one ring: `map` applied to live slots,
/// `0.0`/default elsewhere.
fn collect<T: Default>(ring: &Ring<T>, e_now: u64, n: u64, map: impl Fn(&T) -> f64) -> Vec<f64> {
    let mut pts = vec![0.0; n as usize];
    for (tag, v) in ring.live(e_now.saturating_sub(n - 1), e_now) {
        // Right-aligned: the newest bucket is always the last point, even
        // while uptime is shorter than the window (early epochs then render
        // as leading zeros, never trailing "future" slots).
        pts[(n - 1 - (e_now - tag)) as usize] = map(v);
    }
    pts
}

fn push_nums(out: &mut String, vals: impl Iterator<Item = f64>) {
    let mut first = true;
    for v in vals {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&json_num(v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn snap(reg: &Registry) -> Snapshot {
        reg.snapshot()
    }

    #[test]
    fn counter_deltas_land_in_aligned_buckets() {
        let reg = Registry::new();
        let mut ts = TimeSeriesStore::new(TsConfig::scaled(1_000));
        reg.inc("req", 100);
        ts.ingest(&snap(&reg), 1_000); // first sight: delta 0
        reg.inc("req", 50);
        ts.ingest(&snap(&reg), 2_100);
        reg.inc("req", 25);
        ts.ingest(&snap(&reg), 3_050);
        let Some(WindowValue::Counter { sum, rate_per_s }) = ts.window("req", 10_000, 3_500)
        else {
            panic!("counter window missing");
        };
        assert_eq!(sum, 75, "first sample must not count the pre-existing total");
        assert!((rate_per_s - 7.5).abs() < 1e-9);
        // A 1-bucket window sees only the newest delta.
        let Some(WindowValue::Counter { sum, .. }) = ts.window("req", 1_000, 3_500) else {
            panic!();
        };
        assert_eq!(sum, 25);
    }

    #[test]
    fn gauge_tracks_last_change_for_staleness() {
        let reg = Registry::new();
        let mut ts = TimeSeriesStore::new(TsConfig::scaled(1_000));
        reg.set_gauge("epoch", 3.0);
        ts.ingest(&snap(&reg), 1_000);
        ts.ingest(&snap(&reg), 5_000);
        let Some(WindowValue::Gauge { value, last_change_ms }) =
            ts.window("epoch", 10_000, 5_000)
        else {
            panic!();
        };
        assert_eq!((value, last_change_ms), (3.0, 1_000));
        reg.set_gauge("epoch", 4.0);
        ts.ingest(&snap(&reg), 9_000);
        let Some(WindowValue::Gauge { value, last_change_ms }) =
            ts.window("epoch", 10_000, 9_000)
        else {
            panic!();
        };
        assert_eq!((value, last_change_ms), (4.0, 9_000));
    }

    #[test]
    fn hist_window_quantile_tracks_recent_shift() {
        let reg = Registry::new();
        let mut ts = TimeSeriesStore::new(TsConfig::scaled(1_000));
        for _ in 0..100 {
            reg.observe("lat", 10.0);
        }
        ts.ingest(&snap(&reg), 0); // first sight seeds the baseline
        for _ in 0..100 {
            reg.observe("lat", 10.0);
        }
        ts.ingest(&snap(&reg), 1_000);
        // Latency regresses 10x in the next second.
        for _ in 0..100 {
            reg.observe("lat", 100.0);
        }
        ts.ingest(&snap(&reg), 2_000);
        let Some(WindowValue::Hist { count, sketch, .. }) = ts.window("lat", 1_000, 2_000)
        else {
            panic!();
        };
        assert_eq!(count, 100);
        let p50 = sketch.quantile(0.50);
        assert!((p50 - 100.0).abs() / 100.0 <= SKETCH_REL_ERR, "p50={p50}");
        // The lifetime registry sketch still says p50 ≈ 10; the window is
        // what sees the regression.
        let full = reg.snapshot();
        let h = full.histograms.iter().find(|h| h.name == "lat").expect("lat hist");
        let p50 = h.sketch.quantile(0.50);
        assert!((p50 - 10.0).abs() / 10.0 <= SKETCH_REL_ERR, "lifetime p50={p50}");
    }

    #[test]
    fn rollup_levels_cover_long_windows() {
        let reg = Registry::new();
        let mut ts = TimeSeriesStore::new(TsConfig::scaled(1_000));
        reg.inc("req", 0);
        ts.ingest(&snap(&reg), 0);
        // 10 minutes of 1/s traffic: far beyond the 120-bucket base ring.
        for t in 1..=600u64 {
            reg.inc("req", 1);
            ts.ingest(&snap(&reg), t * 1_000);
        }
        // 610 s window: one bucket beyond the span so the aligned partial
        // bucket at t=0 is included too.
        let Some(WindowValue::Counter { sum, .. }) = ts.window("req", 610_000, 600_000) else {
            panic!();
        };
        assert_eq!(sum, 600, "10 s rollup must retain what the base ring evicted");
        let Some(WindowValue::Counter { sum, .. }) = ts.window("req", 60_000, 600_000) else {
            panic!();
        };
        assert!((59..=61).contains(&sum), "trailing minute ≈ 60, got {sum}");
    }

    #[test]
    fn series_budget_refuses_and_counts() {
        let reg = Registry::new();
        let mut ts = TimeSeriesStore::new(TsConfig {
            max_series: 2,
            ..TsConfig::scaled(1_000)
        });
        reg.inc("a", 1);
        reg.inc("b", 1);
        reg.inc("c", 1);
        ts.ingest(&snap(&reg), 1_000);
        assert_eq!(ts.series_count(), 2);
        assert_eq!(ts.dropped_events(), 1);
        ts.ingest(&snap(&reg), 2_000);
        assert_eq!(ts.dropped_events(), 2, "refusals keep counting per tick");
    }

    #[test]
    fn windowed_gauges_published_for_hists() {
        let reg = Registry::new();
        let mut ts = TimeSeriesStore::new(TsConfig::scaled(1_000));
        reg.observe("lat", 1.0);
        ts.ingest(&snap(&reg), 0);
        for _ in 0..50 {
            reg.observe("lat", 20.0);
        }
        ts.ingest(&snap(&reg), 1_000);
        ts.publish_windowed_gauges(&reg, 1_000);
        let gauges = reg.snapshot().gauges;
        let g = |n: &str| gauges.iter().find(|(k, _)| k == n).map(|&(_, v)| v);
        let p99 = g("lat_p99_1m").expect("windowed p99 gauge");
        assert!((p99 - 20.0).abs() / 20.0 <= SKETCH_REL_ERR, "p99={p99}");
        assert!(g("lat_p50_1m").is_some() && g("lat_p95_1m").is_some());
        assert_eq!(g("timeseries.series"), Some(1.0));
        assert_eq!(g("timeseries.dropped_events"), Some(0.0));
    }

    #[test]
    fn published_window_gauges_are_not_ingested_back() {
        let reg = Registry::new();
        let mut ts = TimeSeriesStore::new(TsConfig::scaled(1_000));
        reg.inc("req", 1);
        reg.set_gauge("depth", 2.0);
        for t in 0..5u64 {
            reg.observe("lat", 20.0);
            ts.ingest(&snap(&reg), t * 1_000);
            ts.publish_windowed_gauges(&reg, t * 1_000);
        }
        // req, depth, lat and the store's two health gauges — not three
        // more series per histogram.
        assert_eq!(ts.series_count(), 5);
        assert!(ts.window("lat_p99_1m", 60_000, 4_000).is_none());
        assert!(reg.snapshot().gauges.iter().any(|(k, _)| k == "lat_p99_1m"));
    }

    #[test]
    fn render_json_is_parseable_shape() {
        let reg = Registry::new();
        let mut ts = TimeSeriesStore::new(TsConfig::scaled(1_000));
        reg.inc("req", 5);
        reg.set_gauge("g", 1.5);
        reg.observe("lat", 3.0);
        ts.ingest(&snap(&reg), 1_000);
        reg.inc("req", 5);
        ts.ingest(&snap(&reg), 2_000);
        let j = ts.render_json(2_000);
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"req\":{\"kind\":\"counter\",\"points\":["));
        assert!(j.contains("\"g\":{\"kind\":\"gauge\""));
        assert!(j.contains("\"lat\":{\"kind\":\"hist\""));
        assert!(j.contains("\"series_count\":3"));
        assert_eq!(j.matches("\"kind\"").count(), 3);
    }
}
