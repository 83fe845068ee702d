//! Property-based tests (proptest) on the workspace's core invariants:
//! tensor broadcasting vs a naive reference, geometry axioms, TAPE position
//! monotonicity, relation-matrix bounds, metric ranges, and the serving
//! engine's top-K guarantees.

use proptest::prelude::*;
use stisan::data::{relation_matrix, RelationConfig};
use stisan::geo::{haversine_km, GeoPoint};
use stisan::nn::{sinusoidal_encoding, tape_positions};
use stisan::serve::top_k;
use stisan::tensor::{broadcast_shapes, Array};

/// Reference top-K: full sort by `(score desc, index asc)`, truncated.
fn top_k_by_full_sort(scores: &[f32], k: usize) -> Vec<(usize, f32)> {
    let mut all: Vec<(usize, f32)> = scores.iter().copied().enumerate().collect();
    all.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    all.truncate(k);
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Broadcast add agrees with an elementwise reference on equal shapes.
    #[test]
    fn add_matches_reference(data_a in prop::collection::vec(-100.0f32..100.0, 12)) {
        let a = Array::from_vec(vec![3, 4], data_a.clone());
        let b = Array::from_vec(vec![3, 4], data_a.iter().map(|x| x * 2.0).collect());
        let sum = a.add(&b);
        for (i, &v) in sum.data().iter().enumerate() {
            prop_assert!((v - data_a[i] * 3.0).abs() < 1e-4);
        }
    }

    /// Bias broadcasting `[r, c] + [c]` matches manual row-wise addition.
    #[test]
    fn suffix_broadcast_matches_manual(
        rows in 1usize..5, cols in 1usize..5,
        seed in 0u64..1000
    ) {
        use rand::{SeedableRng, rngs::StdRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Array::uniform(vec![rows, cols], -1.0, 1.0, &mut rng);
        let b = Array::uniform(vec![cols], -1.0, 1.0, &mut rng);
        let s = a.add(&b);
        for r in 0..rows {
            for c in 0..cols {
                let want = a.at(&[r, c]) + b.at(&[c]);
                prop_assert!((s.at(&[r, c]) - want).abs() < 1e-6);
            }
        }
    }

    /// Broadcast shape computation is commutative.
    #[test]
    fn broadcast_shapes_commute(a in prop::collection::vec(1usize..4, 1..3),
                                b in prop::collection::vec(1usize..4, 1..3)) {
        // Make the shapes compatible: replace mismatches with 1.
        let mut a = a;
        let ndim = a.len().min(b.len());
        for i in 0..ndim {
            let (ia, ib) = (a.len() - 1 - i, b.len() - 1 - i);
            if a[ia] != b[ib] && a[ia] != 1 && b[ib] != 1 {
                a[ia] = 1;
            }
        }
        prop_assert_eq!(broadcast_shapes(&a, &b), broadcast_shapes(&b, &a));
    }

    /// Softmax rows are a probability distribution for any finite input.
    #[test]
    fn softmax_rows_are_distributions(vals in prop::collection::vec(-30.0f32..30.0, 8)) {
        let a = Array::from_vec(vec![2, 4], vals);
        let s = a.softmax_last();
        for r in 0..2 {
            let row = &s.data()[r * 4..(r + 1) * 4];
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    /// Haversine is symmetric, non-negative, zero on identity, bounded by
    /// half the Earth's circumference.
    #[test]
    fn haversine_axioms(lat1 in -80.0f64..80.0, lon1 in -179.0f64..179.0,
                        lat2 in -80.0f64..80.0, lon2 in -179.0f64..179.0) {
        let d = haversine_km(lat1, lon1, lat2, lon2);
        prop_assert!(d >= 0.0 && d <= 20_100.0);
        let back = haversine_km(lat2, lon2, lat1, lon1);
        prop_assert!((d - back).abs() < 1e-6);
        prop_assert!(haversine_km(lat1, lon1, lat1, lon1) == 0.0);
    }

    /// TAPE positions are strictly increasing over the valid suffix and
    /// start at 1.
    #[test]
    fn tape_positions_monotone(gaps in prop::collection::vec(0.0f64..1e6, 1..30)) {
        let mut t = 0.0;
        let mut times = vec![0.0f64];
        for g in &gaps {
            t += g;
            times.push(t);
        }
        let pos = tape_positions(&times, 0);
        prop_assert!((pos[0] - 1.0).abs() < 1e-6);
        for w in pos.windows(2) {
            prop_assert!(w[1] > w[0], "positions must strictly increase: {:?}", pos);
        }
    }

    /// Sinusoidal encodings stay within [-1, 1] for any positions.
    #[test]
    fn sinusoidal_bounded(pos in prop::collection::vec(0.0f32..1e4, 1..20)) {
        let enc = sinusoidal_encoding(&pos, 16);
        prop_assert!(enc.data().iter().all(|&v| v.abs() <= 1.0 + 1e-6));
    }

    /// Relation-matrix entries are within [0, r̂_max] ⊆ [0, k_t + k_d], the
    /// matrix is lower-triangular, and the diagonal holds the row maximum.
    #[test]
    fn relation_matrix_bounds(seed in 0u64..500, n in 2usize..8) {
        use rand::{SeedableRng, rngs::StdRng, Rng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = 0.0f64;
        let times: Vec<f64> = (0..n).map(|_| { t += rng.gen_range(0.0..5e5); t }).collect();
        let locs: Vec<GeoPoint> = (0..n)
            .map(|_| GeoPoint::new(43.0 + rng.gen_range(0.0..0.5), 125.0 + rng.gen_range(0.0..0.5)))
            .collect();
        let cfg = RelationConfig { k_t_days: 10.0, k_d_km: 15.0 };
        let r = relation_matrix(&times, &locs, 0, &cfg);
        let bound = (cfg.k_t_days + cfg.k_d_km) as f32 + 1e-4;
        for i in 0..n {
            for j in 0..n {
                let v = r.at(&[i, j]);
                prop_assert!(v >= 0.0 && v <= bound);
                if j > i {
                    prop_assert_eq!(v, 0.0);
                }
            }
            // Self-relation (interval 0) is the largest in its row.
            for j in 0..=i {
                prop_assert!(r.at(&[i, i]) >= r.at(&[i, j]) - 1e-5);
            }
        }
    }

    /// Bounded-heap top-K equals full-sort top-K for every k, including on
    /// heavy score ties (values drawn from a tiny set) — and never emits NaN.
    #[test]
    fn bounded_heap_top_k_matches_full_sort(
        picks in prop::collection::vec(0usize..5, 1..40),
        k in 0usize..45,
    ) {
        // A 5-value palette guarantees many exact ties.
        let palette = [-2.5f32, 0.0, 0.25, 1.0, 1.0];
        let scores: Vec<f32> = picks.iter().map(|&i| palette[i]).collect();
        let got = top_k(&scores, k);
        prop_assert_eq!(&got, &top_k_by_full_sort(&scores, k));
        prop_assert_eq!(got.len(), k.min(scores.len()));
        prop_assert!(got.iter().all(|(_, s)| !s.is_nan()));
        // Best-first, with the full-sort tie order (lower index on ties).
        for w in got.windows(2) {
            prop_assert!(w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0));
        }
    }
}
