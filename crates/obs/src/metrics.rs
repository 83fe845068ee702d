//! A lightweight metrics registry: named counters, gauges and histograms
//! behind one name → cell map of atomics.
//!
//! A [`Registry`] is a cheap `Clone` handle. [`Registry::noop`] carries no
//! storage at all, so instrumentation through a disabled registry is a
//! single `Option` check — this is what the global default uses until
//! [`crate::init`] is called.
//!
//! Every metric is one cell in one map: a counter is an `AtomicU64`, a
//! gauge the bits of an `f64`, a histogram an exact `sum` and `max` plus
//! [`SKETCH_BUCKETS`] log-spaced bucket counts. A call on a name the
//! registry has already seen is a read-locked lookup by `&str` followed by
//! atomic operations — no `String`, no exclusive lock; only the first sight
//! of a name takes the write lock and allocates. A name keeps the kind of
//! its first call, and a later call of another kind is dropped.
//!
//! Histograms keep no samples. Their quantiles come from the bucket counts
//! through [`Sketch::quantile`] — the one quantile algorithm in the
//! workspace, shared by [`Registry::snapshot`], the windowed time-series
//! rings and the SLO engine — so they cover every observation, within
//! [`SKETCH_REL_ERR`] of the exact sample quantile. `count`, `sum` and
//! `max` are exact.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// Buckets in the fixed log-spaced histogram sketch. 160 buckets at
/// [`SKETCH_GAMMA`] starting at [`SKETCH_MIN`] cover `0.01 ..= ~4e7` —
/// microsecond latencies up to ~40 s and millisecond latencies up to ~11 h
/// in one geometry.
pub const SKETCH_BUCKETS: usize = 160;

/// Ratio between consecutive sketch bucket bounds.
pub const SKETCH_GAMMA: f64 = 1.15;

/// Lower edge of bucket 1; values at or below this (including negatives)
/// land in bucket 0 and report as `SKETCH_MIN` with absolute error
/// `SKETCH_MIN`.
pub const SKETCH_MIN: f64 = 0.01;

/// Documented relative error bound of a sketch quantile vs. the exact
/// sample quantile: a bucket spans a `GAMMA` ratio and reports its
/// geometric midpoint, so the estimate is within `sqrt(GAMMA) - 1`
/// (≈ 7.24%) of some sample in the bucket — rounded up to 7.5% for the
/// property-test gate. Values above the top bucket saturate there, so
/// quantiles clamp at ~4e7.
pub const SKETCH_REL_ERR: f64 = 0.075;

/// The sketch bucket a value falls into.
pub fn sketch_bucket(value: f64) -> usize {
    if value.is_nan() || value <= SKETCH_MIN {
        return 0;
    }
    // Bucket i (i >= 1) spans (MIN * g^(i-1), MIN * g^i].
    let idx = ((value / SKETCH_MIN).ln() / SKETCH_GAMMA.ln()).ceil() as usize;
    idx.clamp(1, SKETCH_BUCKETS - 1)
}

/// Representative value for a bucket: the geometric midpoint of its span
/// (`SKETCH_MIN` for the underflow bucket 0).
pub fn sketch_value(bucket: usize) -> f64 {
    if bucket == 0 {
        return SKETCH_MIN;
    }
    // Bucket i spans (MIN * g^(i-1), MIN * g^i]; midpoint is MIN * g^(i-1/2).
    SKETCH_MIN * SKETCH_GAMMA.powf(bucket as f64 - 0.5)
}

/// Observation counts per [`sketch_bucket`]: what a histogram is, once the
/// samples are gone. Sketches of the same histogram add ([`Sketch::merge`])
/// and subtract ([`Sketch::delta_since`]) exactly, which is how cumulative
/// registry state becomes per-window state in [`crate::timeseries`].
#[derive(Clone, Debug, PartialEq)]
pub struct Sketch {
    /// Boxed so that values holding a sketch (unwritten ring slots, the
    /// non-histogram variants of `WindowValue`) stay a few words wide.
    counts: Box<[u64; SKETCH_BUCKETS]>,
}

impl Default for Sketch {
    /// An empty sketch.
    fn default() -> Self {
        Sketch { counts: Box::new([0; SKETCH_BUCKETS]) }
    }
}

impl Sketch {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Adds another sketch's observations (vector addition — exact).
    pub fn merge(&mut self, other: &Sketch) {
        for (a, &b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// The observations made after `earlier`, an older cumulative sketch of
    /// the same histogram (element-wise difference). `None` if any bucket
    /// shrank: the histogram restarted, and `self` is all there is.
    pub fn delta_since(&self, earlier: &Sketch) -> Option<Sketch> {
        let mut delta = Sketch::default();
        for (d, (&now, &was)) in
            delta.counts.iter_mut().zip(self.counts.iter().zip(earlier.counts.iter()))
        {
            *d = now.checked_sub(was)?;
        }
        Some(delta)
    }

    /// Nearest-rank quantile over the bucketed counts, reported as the
    /// bucket's representative value (0 for an empty sketch). Within
    /// [`SKETCH_REL_ERR`] of the exact sample quantile, plus an absolute
    /// [`SKETCH_MIN`] floor for tiny values.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return sketch_value(i);
            }
        }
        sketch_value(SKETCH_BUCKETS - 1)
    }

    /// [`Sketch::quantile`] at 0.50, 0.95 and 0.99, the three every report
    /// and exposition prints.
    pub fn p50_p95_p99(&self) -> [f64; 3] {
        [0.50, 0.95, 0.99].map(|q| self.quantile(q))
    }

    /// Fraction of observations at or under `threshold`, judged by each
    /// bucket's representative value (1.0 for an empty sketch — no data is
    /// treated as meeting a latency objective, not violating it).
    pub fn fraction_le(&self, threshold: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 1.0;
        }
        let le: u64 = self
            .counts
            .iter()
            .enumerate()
            .filter(|&(i, &c)| c > 0 && sketch_value(i) <= threshold)
            .map(|(_, &c)| c)
            .sum();
        le as f64 / total as f64
    }
}

/// A histogram's live state. `count` is not stored: it is the sum of the
/// buckets.
struct HistCell {
    /// `f64` bits.
    sum: AtomicU64,
    /// `f64` bits; `-inf` until the first observation.
    max: AtomicU64,
    buckets: [AtomicU64; SKETCH_BUCKETS],
}

impl HistCell {
    fn new() -> Self {
        HistCell {
            sum: AtomicU64::new(0f64.to_bits()),
            max: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn observe(&self, value: f64) {
        let _ = self.max.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |m| {
            (value > f64::from_bits(m)).then_some(value.to_bits())
        });
        let _ = self.sum.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
            Some((f64::from_bits(s) + value).to_bits())
        });
        // Release, paired with the Acquire loads in `snapshot`: a snapshot
        // that counts this observation also sees its `sum` and `max`.
        self.buckets[sketch_bucket(value)].fetch_add(1, Ordering::Release);
    }

    fn snapshot(&self, name: &str) -> Histogram {
        let mut sketch = Sketch::default();
        for (c, b) in sketch.counts.iter_mut().zip(&self.buckets) {
            *c = b.load(Ordering::Acquire);
        }
        let max = f64::from_bits(self.max.load(Ordering::Relaxed));
        Histogram {
            name: name.to_string(),
            sum: f64::from_bits(self.sum.load(Ordering::Relaxed)),
            max: if sketch.count() == 0 { 0.0 } else { max },
            sketch,
        }
    }
}

enum Cell {
    Counter(AtomicU64),
    /// `f64` bits.
    Gauge(AtomicU64),
    Hist(Box<HistCell>),
}

/// Shareable handle to a metrics store (or to nothing, when disabled).
#[derive(Clone, Default)]
pub struct Registry {
    cells: Option<Arc<RwLock<BTreeMap<String, Cell>>>>,
}

impl Registry {
    /// A registry that records.
    pub fn new() -> Self {
        Registry { cells: Some(Arc::default()) }
    }

    /// A registry that drops everything (the zero-cost default).
    pub fn noop() -> Self {
        Registry { cells: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.cells.is_some()
    }

    /// Runs `update` on the cell called `name`, creating it with `new` on
    /// first sight. A panic cannot leave the map half-updated (cells are
    /// only ever inserted), so a poisoned lock is used as it stands.
    fn with_cell(&self, name: &str, new: fn() -> Cell, update: impl FnOnce(&Cell)) {
        let Some(cells) = &self.cells else { return };
        if let Some(cell) = cells.read().unwrap_or_else(PoisonError::into_inner).get(name) {
            return update(cell);
        }
        let mut cells = cells.write().unwrap_or_else(PoisonError::into_inner);
        update(cells.entry(name.to_string()).or_insert_with(new));
    }

    /// Adds `by` to the named counter.
    pub fn inc(&self, name: &str, by: u64) {
        self.with_cell(name, || Cell::Counter(AtomicU64::new(0)), |cell| {
            if let Cell::Counter(n) = cell {
                n.fetch_add(by, Ordering::Relaxed);
            }
        });
    }

    /// Sets the named gauge to `value` (last write wins).
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.with_cell(name, || Cell::Gauge(AtomicU64::new(0)), |cell| {
            if let Cell::Gauge(bits) = cell {
                bits.store(value.to_bits(), Ordering::Relaxed);
            }
        });
    }

    /// Records one observation into the named histogram.
    pub fn observe(&self, name: &str, value: f64) {
        self.with_cell(name, || Cell::Hist(Box::new(HistCell::new())), |cell| {
            if let Cell::Hist(h) = cell {
                h.observe(value);
            }
        });
    }

    /// A point-in-time copy of every metric, names ascending. Copies
    /// atomics under the shared lock, so it never blocks a concurrent
    /// `inc` / `set_gauge` / `observe` on a seen name; values written while
    /// it runs may or may not be included.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        let Some(cells) = &self.cells else { return snap };
        for (name, cell) in cells.read().unwrap_or_else(PoisonError::into_inner).iter() {
            match cell {
                Cell::Counter(n) => snap.counters.push((name.clone(), n.load(Ordering::Relaxed))),
                Cell::Gauge(bits) => {
                    snap.gauges.push((name.clone(), f64::from_bits(bits.load(Ordering::Relaxed))))
                }
                Cell::Hist(h) => snap.histograms.push(h.snapshot(name)),
            }
        }
        snap
    }
}

/// One histogram at snapshot time: exact `sum` and `max`, and the bucket
/// counts its quantiles are read from.
#[derive(Clone, Debug)]
pub struct Histogram {
    pub name: String,
    pub sum: f64,
    /// Largest observation (0 while empty).
    pub max: f64,
    pub sketch: Sketch,
}

impl Histogram {
    /// Observations recorded (exact).
    pub fn count(&self) -> u64 {
        self.sketch.count()
    }

    /// `sum / count` (0 while empty).
    pub fn mean(&self) -> f64 {
        match self.count() {
            0 => 0.0,
            n => self.sum / n as f64,
        }
    }
}

/// Point-in-time copy of a [`Registry`]. Counter and histogram state is
/// cumulative since the registry was created.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub histograms: Vec<Histogram>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    /// `got` is within the documented sketch bound of `want`.
    fn within_bound(got: f64, want: f64) -> bool {
        (got - want).abs() <= want * SKETCH_REL_ERR + SKETCH_MIN
    }

    #[test]
    fn counters_accumulate() {
        let r = Registry::new();
        r.inc("a", 1);
        r.inc("a", 2);
        r.inc("b", 5);
        let s = r.snapshot();
        assert_eq!(s.counters, vec![("a".to_string(), 3), ("b".to_string(), 5)]);
    }

    #[test]
    fn gauges_take_last_value() {
        let r = Registry::new();
        r.set_gauge("g", 1.5);
        r.set_gauge("g", -2.0);
        assert_eq!(r.snapshot().gauges, vec![("g".to_string(), -2.0)]);
    }

    #[test]
    fn a_name_keeps_the_kind_of_its_first_call() {
        let r = Registry::new();
        r.inc("x", 2);
        r.set_gauge("x", 9.0);
        r.observe("x", 9.0);
        let s = r.snapshot();
        assert_eq!(s.counters, vec![("x".to_string(), 2)]);
        assert!(s.gauges.is_empty() && s.histograms.is_empty());
    }

    #[test]
    fn histogram_quantiles_within_sketch_bound() {
        let r = Registry::new();
        for v in 1..=100 {
            r.observe("h", v as f64);
        }
        let s = r.snapshot();
        let h = &s.histograms[0];
        assert_eq!(h.count(), 100);
        for (got, want) in h.sketch.p50_p95_p99().into_iter().zip([50.0, 95.0, 99.0]) {
            assert!(within_bound(got, want), "got {got}, want {want}");
        }
        assert_eq!(h.max, 100.0);
        assert_eq!(h.sum, 5050.0);
        assert!((h.mean() - 50.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_of_single_sample() {
        let r = Registry::new();
        r.observe("h", 7.0);
        let h = &r.snapshot().histograms[0];
        assert!(h.sketch.p50_p95_p99().into_iter().all(|got| within_bound(got, 7.0)));
        assert_eq!((h.sum, h.max), (7.0, 7.0));
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        let r = Registry::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let r = r.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        r.inc("shared", 1);
                        r.observe("lat", 1.0);
                    }
                });
            }
        });
        let snap = r.snapshot();
        assert_eq!(snap.counters, vec![("shared".to_string(), 8000)]);
        assert_eq!(snap.histograms[0].count(), 8000);
        assert_eq!(snap.histograms[0].sum, 8000.0);
    }

    #[test]
    fn hot_counter_and_first_sight_markers_merge_exactly() {
        // A burst of threads hammering one counter loses nothing, and names
        // first seen mid-burst (the write-lock path) each land exactly once.
        let r = Registry::new();
        const THREADS: usize = 16;
        const PER_THREAD: u64 = 50_000;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let r = r.clone();
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        r.inc("hot", 1);
                        if i == 0 {
                            r.inc(&format!("thread.{t}"), 1);
                        }
                    }
                });
            }
        });
        let snap = r.snapshot();
        let hot = snap.counters.iter().find(|(k, _)| k == "hot").map(|&(_, v)| v);
        assert_eq!(hot, Some(THREADS as u64 * PER_THREAD));
        for t in 0..THREADS {
            let name = format!("thread.{t}");
            let v = snap.counters.iter().find(|(k, _)| *k == name).map(|&(_, v)| v);
            assert_eq!(v, Some(1), "marker {name}");
        }
    }

    #[test]
    fn snapshots_under_concurrent_writers_are_monotone_then_exact() {
        const WRITERS: usize = 8;
        const PER_WRITER: u64 = 20_000;
        let r = Registry::new();
        // Everyone starts together, so snapshots run while writers write.
        let start = Barrier::new(WRITERS + 1);
        let done = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let (r, start, done) = (r.clone(), &start, &done);
                s.spawn(move || {
                    start.wait();
                    for i in 0..PER_WRITER {
                        r.observe(if w % 2 == 0 { "even" } else { "odd" }, (i % 500) as f64);
                    }
                    done.fetch_add(1, Ordering::Release);
                });
            }
            s.spawn(|| {
                start.wait();
                let mut last: BTreeMap<String, (u64, f64)> = BTreeMap::new();
                while done.load(Ordering::Acquire) < WRITERS {
                    for h in r.snapshot().histograms {
                        let (count, sum) = (h.count(), h.sum);
                        let (c0, s0) = last.insert(h.name.clone(), (count, sum)).unwrap_or_default();
                        assert!(count >= c0, "{}: count went {c0} -> {count}", h.name);
                        assert!(sum >= s0, "{}: sum went {s0} -> {sum}", h.name);
                        assert!(h.max <= 499.0);
                    }
                }
            });
        });
        let snap = r.snapshot();
        assert_eq!(snap.histograms.len(), 2);
        let per_writer_sum: f64 = (0..PER_WRITER).map(|i| (i % 500) as f64).sum();
        for h in &snap.histograms {
            assert_eq!(h.count(), (WRITERS as u64 / 2) * PER_WRITER, "{}", h.name);
            assert_eq!(h.sum, (WRITERS / 2) as f64 * per_writer_sum, "{}", h.name);
            assert_eq!(h.max, 499.0);
        }
    }

    #[test]
    fn sketch_bucket_value_round_trip_within_bound() {
        // Every representable value must map to a bucket whose
        // representative value is within the documented relative error.
        let mut v = SKETCH_MIN * 1.001;
        while v < SKETCH_MIN * SKETCH_GAMMA.powi(SKETCH_BUCKETS as i32 - 2) {
            let b = sketch_bucket(v);
            let rep = sketch_value(b);
            let rel = (rep - v).abs() / v;
            assert!(rel <= SKETCH_REL_ERR, "v={v} b={b} rep={rep} rel={rel}");
            v *= 1.07;
        }
    }

    #[test]
    fn sketch_bucket_edges_and_underflow() {
        assert_eq!(sketch_bucket(0.0), 0);
        assert_eq!(sketch_bucket(-3.0), 0);
        assert_eq!(sketch_bucket(f64::NAN), 0);
        assert_eq!(sketch_bucket(SKETCH_MIN), 0);
        assert_eq!(sketch_bucket(SKETCH_MIN * 1.01), 1);
        assert_eq!(sketch_bucket(f64::INFINITY), SKETCH_BUCKETS - 1);
        assert_eq!(sketch_bucket(1e30), SKETCH_BUCKETS - 1);
    }

    #[test]
    fn snapshot_carries_every_kind_and_the_cumulative_sketch() {
        let r = Registry::new();
        r.inc("c", 7);
        r.set_gauge("g", 2.5);
        for v in [1.0, 10.0, 10.0, 100.0] {
            r.observe("h", v);
        }
        let s = r.snapshot();
        assert_eq!(s.counters, vec![("c".to_string(), 7)]);
        assert_eq!(s.gauges, vec![("g".to_string(), 2.5)]);
        let h = &s.histograms[0];
        assert_eq!(h.count(), 4);
        assert_eq!((h.sum, h.max), (121.0, 100.0));
        assert_eq!(h.sketch.counts[sketch_bucket(10.0)], 2);
    }

    #[test]
    fn sketches_merge_and_diff_exactly() {
        let r = Registry::new();
        for v in [1.0, 10.0] {
            r.observe("h", v);
        }
        let early = r.snapshot().histograms[0].sketch.clone();
        for v in [10.0, 100.0, 100.0] {
            r.observe("h", v);
        }
        let late = r.snapshot().histograms[0].sketch.clone();
        let delta = late.delta_since(&early).expect("cumulative sketches only grow");
        assert_eq!(delta.count(), 3);
        assert_eq!(delta.counts[sketch_bucket(100.0)], 2);
        assert!((delta.fraction_le(50.0) - 1.0 / 3.0).abs() < 1e-12);
        let mut rebuilt = early.clone();
        rebuilt.merge(&delta);
        assert_eq!(rebuilt, late);
        // A shrinking bucket is a restart, not a negative delta.
        assert_eq!(early.delta_since(&late), None);
        assert_eq!((Sketch::default().quantile(0.5), Sketch::default().fraction_le(1.0)), (0.0, 1.0));
    }

    #[test]
    fn noop_registry_records_nothing() {
        let r = Registry::noop();
        r.inc("a", 1);
        r.set_gauge("g", 1.0);
        r.observe("h", 1.0);
        let s = r.snapshot();
        assert!(s.counters.is_empty() && s.gauges.is_empty() && s.histograms.is_empty());
        assert!(!r.is_enabled());
    }
}
