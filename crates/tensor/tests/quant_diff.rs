//! Differential property suite for the quantized table codec
//! (`stisan_tensor::quant`): the fused gather-dequantize kernel must agree
//! bit-for-bit with the scalar codec, and every round trip must stay inside
//! the error bound the module documents (`i8_bound`) — on ordinary values,
//! signed zeros, subnormals, and rows with extreme outliers.

use proptest::prelude::*;
use stisan_tensor::quant::{
    gather_dequant_i8_into, i8_bound, i8_decode, i8_encode_row, RowQuant, QD_JB,
};

/// Plants `spike` into `row` when requested: a mostly-small row with one
/// huge element is the worst case for the per-row affine i8 grid.
fn with_outlier(mut row: Vec<f32>, use_spike: bool, pos: usize, spike: f32) -> Vec<f32> {
    if use_spike && !row.is_empty() {
        let i = pos % row.len();
        row[i] = spike;
    }
    row
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// i8 round trip stays within the documented per-row bound, including
    /// rows with a single large outlier (coarse grids).
    #[test]
    fn i8_roundtrip_within_bound(
        base in prop::collection::vec(-1.0f32..1.0, 1..40),
        use_spike in prop::bool::ANY,
        pos in 0usize..40,
        spike in -1e4f32..1e4,
    ) {
        let row = with_outlier(base, use_spike, pos, spike);
        let mut q = vec![0i8; row.len()];
        let p = i8_encode_row(&row, &mut q);
        let bound = i8_bound(p);
        for (&v, &qi) in row.iter().zip(&q) {
            let err = (i8_decode(qi, p) - v).abs();
            prop_assert!(err <= bound, "v={v:e}: err {err:e} > bound {bound:e} (scale {:e})", p.scale);
        }
    }

    /// The row extremes always map to the ends of the i8 grid and the grid
    /// is anchored at the row minimum.
    #[test]
    fn i8_grid_is_anchored_at_extremes(
        base in prop::collection::vec(-1.0f32..1.0, 2..40),
        use_spike in prop::bool::ANY,
        pos in 0usize..40,
        spike in -1e4f32..1e4,
    ) {
        let row = with_outlier(base, use_spike, pos, spike);
        let mut q = vec![0i8; row.len()];
        let p = i8_encode_row(&row, &mut q);
        prop_assume!(p.scale > 0.0);
        let (mut imin, mut imax) = (0usize, 0usize);
        for (i, &v) in row.iter().enumerate() {
            if v < row[imin] { imin = i; }
            if v > row[imax] { imax = i; }
        }
        prop_assert_eq!(q[imin], -128, "row min must hit the grid floor");
        prop_assert_eq!(q[imax], 127, "row max must hit the grid ceiling");
        prop_assert_eq!(p.zero, row[imin], "grid origin is the row minimum");
    }

    /// The fused i8 gather-dequantize kernel is bit-identical to the scalar
    /// `i8_decode`, across panel-width boundaries and arbitrary (repeating)
    /// gather orders, over recycled (NaN-poisoned) output storage.
    #[test]
    fn gather_i8_matches_scalar_decode(
        rows in 1usize..6,
        d in prop_oneof![1usize..8, (QD_JB - 2)..(QD_JB + 3), Just(2 * QD_JB + 1)],
        seed in 0u64..1000,
    ) {
        let src: Vec<f32> = (0..rows * d)
            .map(|i| (((i as u64 * 40503 + seed) % 2001) as f32 - 1000.0) * 0.0041)
            .collect();
        let mut table = vec![0i8; rows * d];
        let params: Vec<RowQuant> = (0..rows)
            .map(|r| i8_encode_row(&src[r * d..(r + 1) * d], &mut table[r * d..(r + 1) * d]))
            .collect();
        let indices: Vec<usize> = (0..rows + 2).map(|k| (k * 5 + seed as usize) % rows).collect();
        let mut out = vec![f32::NAN; indices.len() * d];
        gather_dequant_i8_into(&table, &params, rows, d, &indices, &mut out);
        for (k, &i) in indices.iter().enumerate() {
            for j in 0..d {
                let want = i8_decode(table[i * d + j], params[i]);
                prop_assert_eq!(out[k * d + j].to_bits(), want.to_bits());
            }
        }
    }
}

/// A subnormal-heavy fixed row through the i8 codec: all values collapse to
/// a near-zero grid whose decode error still honors the bound.
#[test]
fn i8_subnormal_row_within_bound() {
    let row = [1e-41f32, -1e-41, 0.0, -0.0, f32::MIN_POSITIVE, -f32::MIN_POSITIVE];
    let mut q = [0i8; 6];
    let p = i8_encode_row(&row, &mut q);
    let bound = i8_bound(p);
    for (&v, &qi) in row.iter().zip(&q) {
        assert!((i8_decode(qi, p) - v).abs() <= bound);
    }
}
