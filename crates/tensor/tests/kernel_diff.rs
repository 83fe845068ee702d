//! Differential tests: the production kernels against their naive references
//! (`stisan_tensor::kernels::naive`), and the fused decoder against the
//! composition it replaces.
//!
//! The contract under test is *bit-identity*, not approximate closeness: the
//! production kernels keep the naive kernels' accumulation order
//! (ascending-p sums from 0.0, per-row softmax normalization, shared
//! `ln_row_stats`), so every output lane must match to the bit — including
//! signed zeros, subnormals and large-magnitude inputs (DESIGN.md §14). The
//! matmul is checked on both of its instruction-set arms, at every output
//! width from 1 to 130: each 8-lane step of the register kernel, the 64-wide
//! panel edge and the narrow tail panel after it.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stisan_tensor::kernels::{self, naive};
use stisan_tensor::{Array, Exec, Graph, NoGrad};

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

/// Values that must survive a junk lane untouched: if a lane past a panel's
/// width ever reached `out`, these would show up in the wrong column.
const SPECIALS: [f32; 8] =
    [0.0, -0.0, 1.0e-40, -1.0e-40, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 7.5];

/// `[m,k] × [k,n]` operands for the width sweep: `a` has a zero (or `-0.0`)
/// in every third slot to drive the skip-on-zero path; `b` carries
/// [`SPECIALS`] in the first 8 columns of row 1, just past row 0's last
/// panel edge (the lanes a narrow panel reads beyond its width), and in the
/// 8 columns just past the 64-wide panel edge.
fn sweep_operands(m: usize, k: usize, n: usize, rng: &mut StdRng) -> (Vec<f32>, Vec<f32>) {
    let mut a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
    for (i, x) in a.iter_mut().enumerate() {
        match i % 6 {
            0 => *x = 0.0,
            3 => *x = -0.0,
            _ => {}
        }
    }
    let mut b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
    let row = 1.min(k.saturating_sub(1));
    if k > 0 {
        for (j, &s) in SPECIALS.iter().enumerate() {
            for col in [j, 64 + j] {
                if col < n {
                    b[row * n + col] = s;
                }
            }
        }
    }
    (a, b)
}

/// Every output width 1..=130, `m` on and off each row-block multiple, and
/// `k` ∈ {0, 1, 2, large}: both matmul arms match the naive loop bit for
/// bit. (On a CPU without AVX2 only the portable arm can run.)
#[test]
fn matmul_arms_match_naive_at_every_width() {
    let mut rng = StdRng::seed_from_u64(26);
    let mut avx2_cases = 0usize;
    for n in 1..=130 {
        for m in [1usize, 2, 5, 7, 9, 13] {
            for k in [0usize, 1, 2, 67] {
                let (a, b) = sweep_operands(m, k, n, &mut rng);
                let mut reference = vec![f32::NAN; m * n];
                naive::matmul_into(&a, &b, &mut reference, m, k, n);
                let what = format!("m={m} k={k} n={n}");
                let mut out = vec![f32::NAN; m * n];
                kernels::matmul_portable_into(&a, &b, &mut out, m, k, n);
                assert_bits_eq(&out, &reference, &format!("portable {what}"));
                let mut out = vec![f32::NAN; m * n];
                if kernels::matmul_avx2_into(&a, &b, &mut out, m, k, n) {
                    assert_bits_eq(&out, &reference, &format!("avx2 {what}"));
                    avx2_cases += 1;
                }
            }
        }
    }
    let expect_avx2 = kernels::matmul_arm() == "avx2";
    assert_eq!(avx2_cases > 0, expect_avx2, "the AVX2 arm ran iff the CPU has AVX2");
}

/// `[b, m, n]` decoder mask: per candidate row, either fully open, a
/// `-1e9` prefix (the eval mask's padding), all `-1e9` (a fully masked
/// row), or all `-inf` (softmax's zero-weight row).
fn decoder_mask(b: usize, m: usize, n: usize, rng: &mut StdRng) -> Vec<f32> {
    let mut mask = vec![0.0f32; b * m * n];
    for row in mask.chunks_exact_mut(n) {
        match rng.gen_range(0..4) {
            0 => {}
            1 => {
                let prefix = rng.gen_range(0..=n);
                row[..prefix].fill(-1e9);
            }
            2 => row.fill(-1e9),
            _ => row.fill(f32::NEG_INFINITY),
        }
    }
    mask
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fused decoder (`NoGrad::taad_scores`) == the composition the
    /// tape records (`Exec::taad_scores` on `Graph`), bit for bit, with `m`
    /// crossing the 32-row panel.
    #[test]
    fn fused_decoder_matches_composition(
        b in 1usize..3,
        m in 1usize..72,
        n in 1usize..40,
        d in 1usize..80,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let f = Array::uniform(vec![b, n, d], -2.0, 2.0, &mut rng);
        let mut c = Array::uniform(vec![b, m, d], -2.0, 2.0, &mut rng);
        // Zero candidate lanes: 0 · s terms in the final row sums.
        for x in c.data_mut().iter_mut().step_by(5) {
            *x = 0.0;
        }
        let mask = Array::from_vec(vec![b, m, n], decoder_mask(b, m, n, &mut rng));
        let run = |e: &mut dyn Exec| -> Vec<f32> {
            let fv = e.constant(f.clone());
            let cv = e.constant(c.clone());
            let y = e.taad_scores(fv, cv, mask.clone());
            assert_eq!(e.value(y).shape(), &[b, m]);
            e.value(y).data().to_vec()
        };
        let composed = run(&mut Graph::new());
        let fused = run(&mut NoGrad::new());
        assert_bits_eq(&fused, &composed, "taad");
    }
}

/// The fused decoder reports exactly the FLOPs of the ops it replaces.
#[test]
fn decoder_flops_equal_the_composition() {
    let (b, m, n, d) = (2usize, 37usize, 20usize, 64usize);
    let f = Array::zeros(vec![b, n, d]);
    let c = Array::zeros(vec![b, m, d]);
    let ft = Array::zeros(vec![b, d, n]);
    let w = Array::zeros(vec![b, m, n]);
    let composed = kernels::bmm_flops(&c, &ft)
        + (b * m * n) as u64 // scale
        + (b * m * n) as u64 // + mask
        + 5 * (b * m * n) as u64 // softmax
        + kernels::bmm_flops(&w, &f)
        + (b * m * d) as u64 // s ⊙ c
        + (b * m * d) as u64; // row sums
    assert_eq!(kernels::taad_flops(b, m, n, d), composed);
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
