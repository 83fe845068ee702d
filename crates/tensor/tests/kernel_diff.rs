//! Differential tests: the cache-blocked production kernels against their
//! naive references (`stisan_tensor::kernels::naive`).
//!
//! The contract under test is *bit-identity*, not approximate closeness: the
//! blocked rewrites keep the naive kernels' accumulation order (ascending-p
//! sums from 0.0, per-row softmax normalization, shared `ln_row_stats`), so
//! every output lane must match to the bit — including signed zeros,
//! subnormals and large-magnitude inputs (DESIGN.md §14). Shapes deliberately
//! cover the degenerate row/column vectors (1×N, N×1) and sizes that are not
//! a multiple of the 64-wide column panel, so both the full-width and
//! ragged-tail code paths are exercised.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use stisan_tensor::kernels::{self, naive};
use stisan_tensor::Array;

/// f32 values weighted toward the parity traps: exact ±0.0, subnormals, and
/// magnitudes large enough that reassociation would visibly change rounding.
fn val() -> impl Strategy<Value = f32> {
    prop_oneof![
        10 => -2.0f32..2.0f32,
        1 => Just(0.0f32),
        1 => Just(-0.0f32),
        1 => Just(1.0e-40f32),  // subnormal
        1 => Just(-1.0e-40f32), // negative subnormal
        1 => Just(3.0e7f32),
        1 => Just(-3.0e7f32),
    ]
}

/// Bitwise equality over slices (distinguishes -0.0 from +0.0 and every NaN
/// payload, unlike `==`).
fn assert_bits_eq(blocked: &[f32], reference: &[f32], what: &str) {
    assert_eq!(blocked.len(), reference.len(), "{what}: length mismatch");
    for (i, (a, b)) in blocked.iter().zip(reference).enumerate() {
        assert!(
            a.to_bits() == b.to_bits(),
            "{what}: lane {i} diverged: blocked {a:?} ({:#010x}) vs naive {b:?} ({:#010x})",
            a.to_bits(),
            b.to_bits()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Blocked matmul == naive ikj matmul, bit for bit, across degenerate and
    /// ragged shapes (n runs past the 64-wide panel boundary).
    #[test]
    fn matmul_blocked_matches_naive(
        m in 1usize..4,
        k in 1usize..6,
        n in 1usize..100,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Array::uniform(vec![m, k], -2.0, 2.0, &mut rng);
        let b = Array::uniform(vec![k, n], -2.0, 2.0, &mut rng);
        let mut blocked = vec![f32::NAN; m * n];
        let mut reference = vec![f32::NAN; m * n];
        kernels::matmul_into(a.data(), b.data(), &mut blocked, m, k, n);
        naive::matmul_into(a.data(), b.data(), &mut reference, m, k, n);
        assert_bits_eq(&blocked, &reference, "matmul");
    }

    /// Same check with adversarial values (signed zeros, subnormals, huge
    /// magnitudes) on row/column-vector shapes: 1×N and N×1.
    #[test]
    fn matmul_special_values_and_vector_shapes(
        n in 1usize..70,
        row in prop::bool::ANY,
        data_a in pvec(val(), 70),
        data_b in pvec(val(), 70),
    ) {
        let (m, k, nn) = if row { (1, n, 1) } else { (n, 1, n.min(3)) };
        let a: Vec<f32> = data_a[..m * k].to_vec();
        let b: Vec<f32> = data_b[..k * nn].to_vec();
        let mut blocked = vec![f32::NAN; m * nn];
        let mut reference = vec![f32::NAN; m * nn];
        kernels::matmul_into(&a, &b, &mut blocked, m, k, nn);
        naive::matmul_into(&a, &b, &mut reference, m, k, nn);
        assert_bits_eq(&blocked, &reference, "matmul/special");
    }

    /// Batched matmul (sequential path) == naive.
    #[test]
    fn bmm_blocked_matches_naive(
        bsz in 1usize..4,
        m in 1usize..5,
        k in 1usize..5,
        n in 1usize..70,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Array::uniform(vec![bsz, m, k], -2.0, 2.0, &mut rng);
        let b = Array::uniform(vec![bsz, k, n], -2.0, 2.0, &mut rng);
        let mut blocked = vec![f32::NAN; bsz * m * n];
        let mut reference = vec![f32::NAN; bsz * m * n];
        kernels::bmm_into(a.data(), b.data(), &mut blocked, bsz, m, k, n);
        naive::bmm_into(a.data(), b.data(), &mut reference, bsz, m, k, n);
        assert_bits_eq(&blocked, &reference, "bmm");
    }

    /// Fused linear (with and without bias) == naive.
    #[test]
    fn linear_blocked_matches_naive(
        rows in 1usize..5,
        k in 1usize..6,
        f in 1usize..70,
        with_bias in prop::bool::ANY,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Array::uniform(vec![rows, k], -2.0, 2.0, &mut rng);
        let w = Array::uniform(vec![k, f], -2.0, 2.0, &mut rng);
        let bias = Array::uniform(vec![f], -2.0, 2.0, &mut rng);
        let bias = with_bias.then_some(bias);
        let bs = bias.as_ref().map(|b| b.data());
        let mut blocked = vec![f32::NAN; rows * f];
        let mut reference = vec![f32::NAN; rows * f];
        kernels::linear_forward_into(x.data(), w.data(), bs, &mut blocked, rows, k, f);
        naive::linear_forward_into(x.data(), w.data(), bs, &mut reference, rows, k, f);
        assert_bits_eq(&blocked, &reference, "linear");
    }

    /// Softmax over the last axis == naive (shift by the row max, the same
    /// `/= sum` division) even with ±0.0 / subnormal / huge logits.
    #[test]
    fn softmax_matches_naive(w in 1usize..40, data in pvec(val(), 120)) {
        let rows = data.len() / w;
        let src = &data[..rows * w];
        let mut blocked = vec![f32::NAN; src.len()];
        let mut reference = vec![f32::NAN; src.len()];
        kernels::softmax_last_into(src, &mut blocked, w);
        naive::softmax_last_into(src, &mut reference, w);
        assert_bits_eq(&blocked, &reference, "softmax");
    }

    /// The fused affine layer-norm == the naive normalize-then-affine
    /// composition (they share `ln_row_stats`, so this must be exact).
    #[test]
    fn layer_norm_matches_naive(
        rows in 1usize..5,
        w in 1usize..40,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Array::uniform(vec![rows, w], -3.0, 3.0, &mut rng);
        let alpha = Array::uniform(vec![w], 0.5, 1.5, &mut rng);
        let beta = Array::uniform(vec![w], -0.5, 0.5, &mut rng);
        let blocked = kernels::layer_norm_affine(&x, &alpha, &beta, 1e-5);
        let reference = naive::layer_norm_affine(&x, &alpha, &beta, 1e-5);
        assert_bits_eq(blocked.data(), reference.data(), "layer_norm");
    }

    /// Max over axis 1 == naive, including all-(-0.0) rows where the
    /// NEG_INFINITY-fill-then-accumulate scheme must still return -0.0.
    #[test]
    fn max_axis1_matches_naive(
        b in 1usize..4,
        n in 1usize..6,
        d in 1usize..8,
        data in pvec(val(), 192),
    ) {
        let need = b * n * d;
        prop_assume!(need <= data.len());
        let src = &data[..need];
        let mut blocked = vec![f32::NAN; b * d];
        let mut reference = vec![f32::NAN; b * d];
        kernels::max_axis1_into(src, &mut blocked, b, n, d);
        naive::max_axis1_into(src, &mut reference, b, n, d);
        assert_bits_eq(&blocked, &reference, "max_axis1");
    }
}

/// A deterministic large case that crosses both the 64-wide column-panel
/// boundary (ragged tail) and `BMM_PARALLEL_FLOPS` (the scoped-thread fan-out
/// path), proving the threaded split is bitwise-invisible.
#[test]
fn large_bmm_parallel_path_matches_naive() {
    let (bsz, m, k, n) = (4usize, 96usize, 64usize, 130usize);
    assert!(
        2 * bsz * m * k * n >= kernels::BMM_PARALLEL_FLOPS as usize,
        "case too small to trigger the parallel path"
    );
    let mut rng = StdRng::seed_from_u64(42);
    let a = Array::uniform(vec![bsz, m, k], -2.0, 2.0, &mut rng);
    let b = Array::uniform(vec![bsz, k, n], -2.0, 2.0, &mut rng);
    let mut blocked = vec![f32::NAN; bsz * m * n];
    let mut reference = vec![f32::NAN; bsz * m * n];
    kernels::bmm_into(a.data(), b.data(), &mut blocked, bsz, m, k, n);
    naive::bmm_into(a.data(), b.data(), &mut reference, bsz, m, k, n);
    assert_bits_eq(&blocked, &reference, "bmm/parallel");
}

/// k = 0 contractions: both paths must produce exactly +0.0 everywhere
/// (fill-then-accumulate, never copy-init).
#[test]
fn zero_width_contraction_is_positive_zero() {
    let (m, n) = (3usize, 67usize);
    let mut blocked = vec![f32::NAN; m * n];
    let mut reference = vec![f32::NAN; m * n];
    kernels::matmul_into(&[], &[], &mut blocked, m, 0, n);
    naive::matmul_into(&[], &[], &mut reference, m, 0, n);
    assert_bits_eq(&blocked, &reference, "matmul/k=0");
    for v in &blocked {
        assert_eq!(v.to_bits(), 0.0f32.to_bits(), "expected exactly +0.0");
    }
}

/// The affine layer-norm validates its parameter shapes *before* computing
/// (the regression this PR fixes: asserts used to run after the work).
#[test]
#[should_panic(expected = "layer_norm: alpha must be [width]")]
fn layer_norm_rejects_misshapen_alpha_before_computing() {
    let x = Array::ones(vec![2, 8]);
    let alpha = Array::ones(vec![7]); // wrong width
    let beta = Array::ones(vec![8]);
    kernels::layer_norm_affine(&x, &alpha, &beta, 1e-5);
}

/// Beta is validated too.
#[test]
#[should_panic(expected = "layer_norm: beta must be [width]")]
fn layer_norm_rejects_misshapen_beta() {
    let x = Array::ones(vec![2, 8]);
    let alpha = Array::ones(vec![8]);
    let beta = Array::ones(vec![2, 8]); // wrong rank
    kernels::layer_norm_affine(&x, &alpha, &beta, 1e-5);
}
