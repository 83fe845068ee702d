//! Quantized storage codecs for candidate-embedding tables.
//!
//! Serving a million-POI catalogue cannot afford 4 bytes per embedding
//! element: the candidate table dominates replica memory. This module
//! provides the compressed encoding the retrieval subsystem offers —
//! per-row affine `i8` (1 byte/element + 8 bytes/row of scale/zero-point) —
//! as a pure slice codec plus a fused *gather-dequantize* kernel that
//! expands only the rows a request actually scores, directly into an arena
//! buffer.
//!
//! # Error bound (asserted by `crates/tensor/tests/quant_diff.rs`)
//!
//! Each row is encoded against its own affine grid: with
//! `scale = (max - min) / 255` and `zero = min`,
//!
//! ```text
//! q = round((v - min) / scale) - 128          (in -128 ..= 127)
//! dec(q) = (q + 128) * scale + zero
//! ```
//!
//! Rounding to the grid contributes at most `scale / 2`; evaluating the
//! decode expression in f32 adds at most a few ulps of the row magnitude, so
//! the documented round-trip bound is
//!
//! ```text
//! |dec(enc(v)) - v| <= scale / 2 + 2^-20 * (|zero| + 255 * scale)
//! ```
//!
//! (the second term is a generous cover for the two f32 roundings in the
//! decode; it is zero when the row is constant, where `scale == 0` and the
//! decode returns `zero` exactly).
//!
//! # Kernel structure
//!
//! The gather-dequantize kernel mirrors the blocked-loop shape of
//! [`crate::kernels`]: each output row is produced one [`QD_JB`]-wide column
//! panel at a time through a fixed-size stack buffer, so the convert loop
//! autovectorizes and every output element is written exactly once (set
//! semantics — safe over recycled arena storage without clearing).

/// Column-panel width of the blocked gather-dequantize kernel, matching
/// [`crate::kernels::MM_JB`]'s register-block sizing (256 bytes of f32).
pub const QD_JB: usize = 64;

// ----------------------------------------------------------------------
// i8 per-row affine codec
// ----------------------------------------------------------------------

/// Per-row affine quantization parameters: `v ≈ (q + 128) * scale + zero`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RowQuant {
    /// Grid step `(max - min) / 255`; zero for constant rows.
    pub scale: f32,
    /// Grid origin (the row minimum).
    pub zero: f32,
}

/// Quantizes one row to `i8` against its own min/max grid, returning the
/// row's parameters. Non-finite inputs are clamped into the finite min/max
/// of the row (a table fed to this codec is expected to be finite; the
/// serving reload canary checks that upstream).
pub fn i8_encode_row(src: &[f32], out: &mut [i8]) -> RowQuant {
    debug_assert_eq!(src.len(), out.len());
    let mut min = f32::INFINITY;
    let mut max = f32::NEG_INFINITY;
    for &v in src {
        if v < min {
            min = v;
        }
        if v > max {
            max = v;
        }
    }
    if !(min.is_finite() && max.is_finite()) {
        // Degenerate (empty or non-finite) row: encode as constant zero.
        (min, max) = (0.0, 0.0);
    }
    let scale = (max - min) / 255.0;
    let q = RowQuant { scale, zero: min };
    if scale == 0.0 {
        out.fill(-128);
        return q;
    }
    // Divide rather than multiply by a precomputed `1.0 / scale`: a row
    // whose spread is subnormal has a subnormal scale, whose reciprocal
    // overflows to infinity and would pin the whole row to the grid
    // ceiling. Encoding is build-time, so the division cost is irrelevant.
    for (o, &v) in out.iter_mut().zip(src) {
        let r = ((v - min) / scale).round().clamp(0.0, 255.0);
        *o = (r as i32 - 128) as i8;
    }
    q
}

/// Decodes one quantized value against its row parameters.
#[inline]
pub fn i8_decode(q: i8, p: RowQuant) -> f32 {
    (q as i32 + 128) as f32 * p.scale + p.zero
}

/// Round-trip error bound of the i8 codec for one row (module docs).
#[inline]
pub fn i8_bound(p: RowQuant) -> f32 {
    p.scale * 0.5 + (p.zero.abs() + 255.0 * p.scale) * (1.0 / 1_048_576.0)
}

// ----------------------------------------------------------------------
// Gather-dequantize kernels
// ----------------------------------------------------------------------

/// Expands rows `indices` of an i8 table `[rows, d]` (with per-row
/// parameters) into `out` (`indices.len() * d` f32s, set semantics).
///
/// # Panics
/// Panics when an index is out of range.
pub fn gather_dequant_i8_into(
    table: &[i8],
    params: &[RowQuant],
    rows: usize,
    d: usize,
    indices: &[usize],
    out: &mut [f32],
) {
    debug_assert_eq!(table.len(), rows * d);
    debug_assert_eq!(params.len(), rows);
    debug_assert_eq!(out.len(), indices.len() * d);
    for (&i, orow) in indices.iter().zip(out.chunks_exact_mut(d)) {
        assert!(i < rows, "gather_dequant_i8: index {i} out of {rows} rows");
        let srow = &table[i * d..(i + 1) * d];
        let p = params[i];
        let mut jb = 0usize;
        while jb < d {
            let w = QD_JB.min(d - jb);
            let mut panel = [0.0f32; QD_JB];
            for (o, &q) in panel[..w].iter_mut().zip(&srow[jb..jb + w]) {
                *o = (q as i32 + 128) as f32 * p.scale + p.zero;
            }
            orow[jb..jb + w].copy_from_slice(&panel[..w]);
            jb += QD_JB;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn i8_roundtrip_within_bound() {
        let row = [-3.5f32, -1.0, 0.0, 0.25, 7.75, 100.0];
        let mut q = [0i8; 6];
        let p = i8_encode_row(&row, &mut q);
        for (&v, &qi) in row.iter().zip(&q) {
            let err = (i8_decode(qi, p) - v).abs();
            assert!(err <= i8_bound(p), "{v}: err {err} > {}", i8_bound(p));
        }
        // Extremes land exactly on the grid ends.
        assert_eq!(q[0], -128);
        assert_eq!(q[5], 127);
    }

    #[test]
    fn i8_constant_row_is_exact() {
        let row = [2.5f32; 8];
        let mut q = [0i8; 8];
        let p = i8_encode_row(&row, &mut q);
        assert_eq!(p.scale, 0.0);
        for &qi in &q {
            assert_eq!(i8_decode(qi, p), 2.5);
        }
    }

    #[test]
    fn gather_kernel_matches_scalar_codec_across_panel_widths() {
        // Widths straddling QD_JB exercise full panels, ragged tails, both.
        for d in [1usize, 7, QD_JB - 1, QD_JB, QD_JB + 5, 2 * QD_JB + 3] {
            let rows = 4;
            let src: Vec<f32> =
                (0..rows * d).map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.37).collect();
            let mut qi = vec![0i8; rows * d];
            let params: Vec<RowQuant> = (0..rows)
                .map(|r| i8_encode_row(&src[r * d..(r + 1) * d], &mut qi[r * d..(r + 1) * d]))
                .collect();
            let idx = [3usize, 0, 2];
            let mut out_q = vec![f32::NAN; idx.len() * d];
            gather_dequant_i8_into(&qi, &params, rows, d, &idx, &mut out_q);
            for (k, &i) in idx.iter().enumerate() {
                for j in 0..d {
                    let want_q = i8_decode(qi[i * d + j], params[i]);
                    assert_eq!(out_q[k * d + j].to_bits(), want_q.to_bits());
                }
            }
        }
    }
}
