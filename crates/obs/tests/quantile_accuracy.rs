//! Histogram quantile accuracy against known distributions.
//!
//! The registry keeps no samples: quantiles are nearest-rank over the
//! log-spaced bucket counts, reported as the bucket's midpoint. The bound
//! asserted here, on the same distributions and seeds the exact-quantile
//! suite used: every reported quantile is within `SKETCH_REL_ERR` (plus the
//! `SKETCH_MIN` floor) of the exact nearest-rank quantile of the samples
//! fed in — for any number of samples, in any order — while `count`,
//! `sum` and `max` stay exact.

use stisan_obs::metrics::{SKETCH_MIN, SKETCH_REL_ERR};
use stisan_obs::{Histogram, Registry};

/// Deterministic splitmix64, so distributions are reproducible.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Exact nearest-rank quantile of the samples (the reference).
fn exact_quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Feeds `values` into a fresh registry and checks p50/p95/p99 against the
/// exact sample quantiles, and `count`/`sum`/`max` for exactness.
fn observed(values: &[f64]) -> Histogram {
    let r = Registry::new();
    for &v in values {
        r.observe("h", v);
    }
    let h = r.snapshot().histograms.remove(0);
    for q in [0.50, 0.95, 0.99] {
        let (got, want) = (h.sketch.quantile(q), exact_quantile(values, q));
        assert!(
            (got - want).abs() <= want * SKETCH_REL_ERR + SKETCH_MIN,
            "q{q}: sketch {got} vs exact {want}"
        );
    }
    assert_eq!(h.count(), values.len() as u64);
    assert_eq!(h.max, values.iter().copied().fold(f64::NEG_INFINITY, f64::max));
    let sum: f64 = values.iter().sum();
    assert!((h.sum - sum).abs() <= sum.abs() * 1e-12, "sum {} vs {sum}", h.sum);
    h
}

#[test]
fn uniform_grid_quantiles_within_bound() {
    // 1..=10_000: the exact q-quantile is ceil(q * 10_000).
    let grid: Vec<f64> = (1..=10_000).map(|v| v as f64).collect();
    let h = observed(&grid);
    assert_eq!(h.max, 10_000.0);
    assert!((h.mean() - 5_000.5).abs() < 1e-9);
}

#[test]
fn shuffled_order_does_not_change_quantiles() {
    // Same grid fed in a scrambled order: the sketch is order-invariant.
    let mut vals: Vec<f64> = (1..=10_000).map(|v| v as f64).collect();
    let sorted = observed(&vals);
    let mut rng = Rng(7);
    for i in (1..vals.len()).rev() {
        vals.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    assert_eq!(observed(&vals).sketch, sorted.sketch);
}

#[test]
fn uniform_continuous_within_bound() {
    let mut rng = Rng(42);
    let vals: Vec<f64> = (0..10_000).map(|_| rng.next_f64()).collect();
    let h = observed(&vals);
    assert!((h.mean() - 0.5).abs() < 0.01, "mean = {}", h.mean());
}

#[test]
fn exponential_tail_within_bound() {
    // Exp(1) via inverse CDF: a heavy-ish tail across many buckets.
    let mut rng = Rng(1234);
    let vals: Vec<f64> = (0..10_000).map(|_| -(1.0 - rng.next_f64()).ln()).collect();
    observed(&vals);
}

#[test]
fn bimodal_p50_picks_a_mode_edge() {
    // Half the mass at 1, half at 100: nearest-rank p50 must sit on the
    // low mode (rank 5_000 of 10_000 is the last 1.0), p95/p99 on the high.
    let vals: Vec<f64> = (0..10_000).map(|i| if i % 2 == 0 { 1.0 } else { 100.0 }).collect();
    let h = observed(&vals);
    assert!(h.sketch.quantile(0.50) < 1.1);
    assert!(h.sketch.quantile(0.95) > 90.0);
}

#[test]
fn late_observations_move_lifetime_quantiles() {
    // Quantiles cover every observation, not a retained prefix: 50_000
    // high values arriving after 262_144 low ones (16% of the total) must
    // put p99 on the high mode.
    const EARLY: u64 = 262_144;
    const LATE: u64 = 50_000;
    let mut vals: Vec<f64> = (0..EARLY).map(|v| 1.0 + (v % 100) as f64).collect();
    vals.extend((0..LATE).map(|_| 1_000_000.0));
    let h = observed(&vals);
    assert_eq!(h.count(), EARLY + LATE);
    assert_eq!(h.max, 1_000_000.0);
    let p99 = h.sketch.quantile(0.99);
    assert!(p99 > 900_000.0, "p99 must sit on the late high mode, got {p99}");
}
