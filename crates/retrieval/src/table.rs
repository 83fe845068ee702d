//! Stage two's memory side: quantized candidate-embedding tables.
//!
//! The exact scorer gathers candidate rows from the model's frozen
//! `[num_pois + 1, d]` f32 embedding table. At million-POI scale that table
//! dominates replica memory, so serving can hold it in per-row affine int8
//! (~a quarter of the bytes), dequantizing only the gathered candidate rows
//! per request. The codec carries a documented max-abs-error bound (see
//! [`stisan_tensor::quant`]) that the differential test-suite asserts.

use stisan_tensor::quant::{gather_dequant_i8_into, i8_bound, i8_encode_row, RowQuant};
use stisan_tensor::Array;

/// Precision of the serving-side candidate-embedding table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QuantLevel {
    /// Exact f32 rows (4 bytes/weight) — bit-identical to the model table.
    #[default]
    F32,
    /// Per-row affine int8 (1 byte/weight + 8 bytes/row), max abs error
    /// `scale/2` plus a dequant rounding term (see
    /// [`stisan_tensor::quant::i8_bound`]).
    I8,
}

impl QuantLevel {
    /// Short label for metrics and bench output.
    pub fn label(self) -> &'static str {
        match self {
            QuantLevel::F32 => "f32",
            QuantLevel::I8 => "i8",
        }
    }
}

/// A candidate-embedding table held at a chosen precision, with
/// gather-dequantize row access.
pub enum QuantizedTable {
    /// The exact table (shares the model's Arc, no copy).
    F32(Array),
    /// Per-row affine int8 codes.
    I8 {
        /// `rows * d` int8 codes.
        codes: Vec<i8>,
        /// One `(scale, zero)` pair per row.
        params: Vec<RowQuant>,
        /// Row count.
        rows: usize,
        /// Embedding width.
        d: usize,
        /// Max abs dequant error over the encoded table.
        bound: f32,
    },
}

impl QuantizedTable {
    /// Encodes `table` (`[rows, d]`, the model's frozen candidate table) at
    /// `level`. `F32` keeps an Arc reference; `I8` copies.
    pub fn build(table: &Array, level: QuantLevel) -> QuantizedTable {
        let _span = stisan_obs::span("quantize_table");
        let shape = table.shape();
        assert_eq!(shape.len(), 2, "QuantizedTable::build: table must be [rows, d]");
        let (rows, d) = (shape[0], shape[1]);
        match level {
            QuantLevel::F32 => QuantizedTable::F32(table.clone()),
            QuantLevel::I8 => {
                let mut codes = vec![0i8; rows * d];
                let mut params = Vec::with_capacity(rows);
                let mut bound = 0.0f32;
                for r in 0..rows {
                    let p = i8_encode_row(&table.data()[r * d..(r + 1) * d], &mut codes[r * d..(r + 1) * d]);
                    bound = bound.max(i8_bound(p));
                    params.push(p);
                }
                QuantizedTable::I8 { codes, params, rows, d, bound }
            }
        }
    }

    /// The table's precision level.
    pub fn level(&self) -> QuantLevel {
        match self {
            QuantizedTable::F32(_) => QuantLevel::F32,
            QuantizedTable::I8 { .. } => QuantLevel::I8,
        }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        match self {
            QuantizedTable::F32(t) => t.shape()[0],
            QuantizedTable::I8 { rows, .. } => *rows,
        }
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        match self {
            QuantizedTable::F32(t) => t.shape()[1],
            QuantizedTable::I8 { d, .. } => *d,
        }
    }

    /// Resident bytes of the table payload (codes + per-row params).
    pub fn bytes(&self) -> usize {
        match self {
            QuantizedTable::F32(t) => std::mem::size_of_val(t.data()),
            QuantizedTable::I8 { codes, params, .. } => {
                codes.len() + std::mem::size_of_val(params.as_slice())
            }
        }
    }

    /// Documented max abs error of `dequant(encode(v))` vs the exact table
    /// (0 for `F32`). The differential suite asserts real errors stay below.
    pub fn max_abs_error_bound(&self) -> f32 {
        match self {
            QuantizedTable::F32(_) => 0.0,
            QuantizedTable::I8 { bound, .. } => *bound,
        }
    }

    /// Gathers + dequantizes `indices` into `out` (`indices.len() * d`, set
    /// semantics — recycled scratch is safe). `F32` copies the exact rows.
    pub fn dequant_rows_into(&self, indices: &[usize], out: &mut [f32]) {
        match self {
            QuantizedTable::F32(t) => {
                let (rows, d) = (t.shape()[0], t.shape()[1]);
                assert_eq!(out.len(), indices.len() * d, "dequant_rows_into: buffer mismatch");
                for (&i, orow) in indices.iter().zip(out.chunks_exact_mut(d)) {
                    assert!(i < rows, "dequant_rows_into: row {i} out of {rows}");
                    orow.copy_from_slice(&t.data()[i * d..(i + 1) * d]);
                }
            }
            QuantizedTable::I8 { codes, params, rows, d, .. } => {
                gather_dequant_i8_into(codes, params, *rows, *d, indices, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use stisan_tensor::Array;

    fn toy_table(rows: usize, d: usize) -> Array {
        let mut rng = StdRng::seed_from_u64(11);
        let mut t = Array::randn(vec![rows, d], 0.5, &mut rng);
        // Plant a padding row and an outlier row.
        t.data_mut()[..d].fill(0.0);
        t.data_mut()[d] = 40.0;
        t
    }

    #[test]
    fn bytes_shrink_with_precision() {
        let t = toy_table(101, 64);
        let f32b = QuantizedTable::build(&t, QuantLevel::F32).bytes();
        let i8b = QuantizedTable::build(&t, QuantLevel::I8).bytes();
        assert_eq!(f32b, 101 * 64 * 4);
        assert!(
            (i8b as f64) <= 0.30 * f32b as f64,
            "i8 {} vs f32 {} exceeds 30%",
            i8b,
            f32b
        );
    }

    #[test]
    fn dequant_errors_respect_documented_bound() {
        let t = toy_table(40, 32);
        let indices: Vec<usize> = (0..40).collect();
        let mut out = vec![f32::NAN; 40 * 32];
        for level in [QuantLevel::F32, QuantLevel::I8] {
            let q = QuantizedTable::build(&t, level);
            q.dequant_rows_into(&indices, &mut out);
            let bound = q.max_abs_error_bound();
            for (a, b) in t.data().iter().zip(&out) {
                let err = (a - b).abs();
                assert!(err <= bound, "{level:?}: err {err} > bound {bound}");
            }
            if level == QuantLevel::F32 {
                assert_eq!(t.data(), &out[..], "f32 must be exact");
            }
        }
    }

    #[test]
    fn padding_row_stays_exactly_zero() {
        // Row 0 of the candidate table is the padding embedding; the i8
        // codec must reproduce literal zeros (a constant row).
        let t = toy_table(10, 16);
        let mut out = vec![1.0f32; 16];
        QuantizedTable::build(&t, QuantLevel::I8).dequant_rows_into(&[0], &mut out);
        assert!(out.iter().all(|&v| v == 0.0), "i8 broke the zero row");
    }
}
