//! Property tests for the windowed time-series layer (satellite of the
//! timeseries/SLO PR): randomized sweeps over seeds, std-only like the
//! rest of `stisan-obs`.
//!
//! Properties pinned here:
//!
//! 1. **Windowed quantiles are exact-to-bound**: merging per-bucket delta
//!    sketches over a window agrees with a histogram of the whole window's
//!    raw samples within the documented `SKETCH_REL_ERR` relative bound
//!    (plus the `SKETCH_MIN` absolute floor for tiny values).
//! 2. **Counter-delta monotonicity under wraparound**: windowed counter
//!    sums are always the true sum of increments, and a cumulative value
//!    that shrinks (process restart) contributes its new total — never a
//!    two's-complement garbage delta.
//! 3. **Sampler-jitter bucket alignment**: samples landing anywhere inside
//!    one aligned bucket are attributed identically — a jittery sampler
//!    changes nothing as long as it stays inside the bucket.

use stisan_obs::metrics::{SKETCH_MIN, SKETCH_REL_ERR};
use stisan_obs::{Registry, Snapshot, TimeSeriesStore, TsConfig, WindowValue};

/// Deterministic splitmix64 (same idiom as `quantile_accuracy.rs`).
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Nearest-rank quantile over raw samples (the reference the sketch is
/// judged against).
fn exact_quantile(values: &mut Vec<f64>, q: f64) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

#[test]
fn merged_window_sketch_matches_whole_window_histogram_within_bound() {
    for seed in 0..20u64 {
        let mut rng = Rng(seed);
        let reg = Registry::new();
        let mut ts = TimeSeriesStore::new(TsConfig::scaled(1_000));
        // Seed the series, then take the baseline snapshot: the first
        // sight of a series establishes its cumulative baseline, so
        // observations before it are (by design) not windowed.
        reg.observe("lat", 1.0);
        ts.ingest(&reg.snapshot(), 0);
        // 30 sampler ticks at 1 s; observations spread over a latency range
        // wide enough to cross many sketch buckets (0.05 .. ~5e4).
        let mut window_values: Vec<f64> = Vec::new();
        let mut now = 0u64;
        for _ in 0..30 {
            let burst = 20 + rng.below(200);
            for _ in 0..burst {
                let v = 0.05 * (1.0 + 9.0 * rng.next_f64()).powf(1.0 + 5.0 * rng.next_f64());
                reg.observe("lat", v);
                window_values.push(v);
            }
            now += 1_000;
            ts.ingest(&reg.snapshot(), now);
        }
        let Some(WindowValue::Hist { count, sketch, .. }) = ts.window("lat", 40_000, now)
        else {
            panic!("hist window missing (seed {seed})");
        };
        assert_eq!(count as usize, window_values.len(), "seed {seed}: window lost samples");
        for q in [0.5, 0.9, 0.95, 0.99] {
            let est = sketch.quantile(q);
            let exact = exact_quantile(&mut window_values, q);
            let err = (est - exact).abs();
            assert!(
                err <= exact * SKETCH_REL_ERR + SKETCH_MIN,
                "seed {seed} q={q}: sketch {est} vs exact {exact} (err {err})"
            );
        }
    }
}

#[test]
fn partial_window_merge_equals_sum_of_its_buckets() {
    // Merging k per-bucket sketches must see exactly the observations of
    // those k buckets — no bleed from evicted or future buckets.
    for seed in 0..10u64 {
        let mut rng = Rng(seed ^ 0xABCD);
        let reg = Registry::new();
        let mut ts = TimeSeriesStore::new(TsConfig::scaled(1_000));
        reg.observe("lat", 1.0); // establish the series before the baseline
        ts.ingest(&reg.snapshot(), 0);
        let mut per_tick: Vec<u64> = Vec::new();
        let mut now = 0u64;
        for _ in 0..20 {
            let n = 1 + rng.below(50);
            for _ in 0..n {
                reg.observe("lat", 1.0 + rng.next_f64() * 100.0);
            }
            per_tick.push(n);
            now += 1_000;
            ts.ingest(&reg.snapshot(), now);
        }
        // A trailing window of k whole buckets holds exactly the last k
        // ticks' observations (ingests happen at bucket starts, so tick i
        // lands in the bucket of `i * 1000`).
        for k in [1usize, 3, 7, 20] {
            let span = k as u64 * 1_000;
            let Some(WindowValue::Hist { count, sketch, .. }) =
                ts.window("lat", span, now)
            else {
                panic!();
            };
            let expect: u64 = per_tick.iter().rev().take(k).sum();
            assert_eq!(count, expect, "seed {seed} k={k}");
            assert_eq!(sketch.count(), expect, "seed {seed} k={k}: sketch disagrees");
        }
    }
}

#[test]
fn counter_windows_are_monotone_sums_of_increments() {
    for seed in 0..20u64 {
        let mut rng = Rng(seed ^ 0x5EED);
        let mut ts = TimeSeriesStore::new(TsConfig::scaled(1_000));
        // Drive the store with hand-built snapshots so we control the
        // cumulative value exactly, including restarts.
        let mut cum = 0u64;
        let mut true_total = 0u64;
        let mut now = 0u64;
        let snap = |c: u64| Snapshot {
            counters: vec![("req".to_string(), c)],
            gauges: vec![],
            histograms: vec![],
        };
        ts.ingest(&snap(cum), now);
        for _ in 0..50 {
            now += 1_000;
            if rng.below(10) == 0 && cum > 0 {
                // Process restart: the counter starts over from a strictly
                // smaller value (an equal-or-larger value would be
                // indistinguishable from normal increments). The
                // post-restart total counts as new traffic; increments lost
                // between the last sample and the crash are unknowable.
                cum = rng.below(cum);
                true_total += cum;
            } else {
                let inc = rng.below(100);
                cum += inc;
                true_total += inc;
            }
            ts.ingest(&snap(cum), now);
            let Some(WindowValue::Counter { sum, rate_per_s }) =
                ts.window("req", 120_000, now)
            else {
                panic!();
            };
            assert_eq!(sum, true_total, "seed {seed} t={now}: window sum drifted");
            assert!(rate_per_s >= 0.0 && rate_per_s.is_finite());
        }
    }
}

#[test]
fn shrinking_counter_never_produces_a_garbage_delta() {
    // The pathological wraparound: cumulative drops from huge to tiny.
    // A two's-complement diff would inject ~2^64; the reset rule must
    // contribute exactly the new value.
    let mut ts = TimeSeriesStore::new(TsConfig::scaled(1_000));
    let snap = |c: u64| Snapshot {
        counters: vec![("req".to_string(), c)],
        gauges: vec![],
        histograms: vec![],
    };
    ts.ingest(&snap(u64::MAX - 10), 0);
    ts.ingest(&snap(u64::MAX), 1_000); // +10
    ts.ingest(&snap(3), 2_000); // restart: +3
    let Some(WindowValue::Counter { sum, .. }) = ts.window("req", 10_000, 2_000) else {
        panic!();
    };
    assert_eq!(sum, 13);
}

#[test]
fn sampler_jitter_within_a_bucket_does_not_move_attribution() {
    // Two stores see the same cumulative snapshots; one at exact bucket
    // starts, one late by a random intra-bucket jitter. Their per-bucket
    // attribution must be identical.
    for seed in 0..20u64 {
        let mut rng = Rng(seed ^ 0x717E);
        let mut aligned = TimeSeriesStore::new(TsConfig::scaled(1_000));
        let mut jittered = TimeSeriesStore::new(TsConfig::scaled(1_000));
        let snap = |c: u64| Snapshot {
            counters: vec![("req".to_string(), c)],
            gauges: vec![],
            histograms: vec![],
        };
        let mut cum = 0u64;
        aligned.ingest(&snap(cum), 0);
        jittered.ingest(&snap(cum), rng.below(1_000));
        let mut per_bucket: Vec<u64> = vec![0];
        for tick in 1..=40u64 {
            let inc = rng.below(50);
            cum += inc;
            per_bucket.push(inc);
            let t0 = tick * 1_000;
            aligned.ingest(&snap(cum), t0);
            jittered.ingest(&snap(cum), t0 + rng.below(1_000));
        }
        let now = 40_000 + 999; // anywhere in the last bucket
        for k in [1u64, 5, 17, 40] {
            let span = k * 1_000;
            let expect: u64 = per_bucket.iter().rev().take(k as usize).sum();
            for (label, store) in [("aligned", &aligned), ("jittered", &jittered)] {
                let Some(WindowValue::Counter { sum, .. }) = store.window("req", span, now)
                else {
                    panic!();
                };
                assert_eq!(sum, expect, "seed {seed} k={k} {label}: bucket misattribution");
            }
        }
    }
}

#[test]
fn jittered_rollups_agree_across_levels() {
    // The same window answered by the base ring and by a rollup level must
    // agree when the window is a whole number of coarse buckets.
    let mut rng = Rng(42);
    let mut ts = TimeSeriesStore::new(TsConfig::scaled(1_000));
    let snap = |c: u64| Snapshot {
        counters: vec![("req".to_string(), c)],
        gauges: vec![],
        histograms: vec![],
    };
    let mut cum = 0u64;
    let mut increments = vec![0u64];
    ts.ingest(&snap(cum), 500);
    for tick in 1..=100u64 {
        let inc = rng.below(20);
        cum += inc;
        increments.push(inc);
        ts.ingest(&snap(cum), tick * 1_000 + rng.below(1_000));
    }
    let now = 100_500;
    // 60 s window: base level (120 buckets of 1 s) answers it; the same
    // span from the 10 s rollup must match because 60 s is six whole
    // coarse buckets and every sample lands in the same coarse bucket.
    let Some(WindowValue::Counter { sum: fine, .. }) = ts.window("req", 60_000, now) else {
        panic!();
    };
    let expect: u64 = increments.iter().rev().take(60).sum();
    assert_eq!(fine, expect);
}
