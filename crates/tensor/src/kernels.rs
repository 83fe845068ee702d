//! The forward kernels of the executor, and the FLOP counts of its
//! contractions.
//!
//! Every op of [`Exec`](crate::Exec) whose forward is more than a few lines
//! calls a plain function here. The kernels come in `_into` form: they write
//! into a caller-provided output slice (an arena buffer) instead of
//! allocating, and the allocating [`Array`] methods the backward pass uses
//! are thin wrappers over the same functions. Unless noted otherwise,
//! `_into` kernels have **set** semantics: every output element is written,
//! previous contents are ignored (which is what makes arena reuse safe
//! without clearing).
//!
//! # Blocking and the bit-parity policy
//!
//! [`matmul_into`] is one body for every output width. Each column panel of
//! at most [`MM_JB`] outputs runs a const-generic kernel that keeps a few
//! rows' accumulators in 8-lane register vectors for the whole reduction.
//! That body is compiled twice, for the baseline target and with AVX2, and
//! the CPU picks the arm at run time ([`matmul_arm`]). Neither arm
//! reassociates or fuses floating-point operations: for every output
//! element the reduction over `k` runs in the naive triple loop's ascending
//! order, from `0.0`, with the same skip-on-zero and one rounding per
//! multiply and per add (AVX2 enables no FMA, and Rust never contracts). So
//! both arms are **bit-identical** to the naive loop, not merely close.
//!
//! [`taad_scores_into`] fuses the target-aware decoder the same way: it runs
//! the unfused composition's kernels panel by panel, so its scores are the
//! composition's bits. The naive references live in [`naive`];
//! `crates/tensor/tests/kernel_diff.rs` checks every production kernel (both
//! matmul arms) against them, and the fused decoder against the composition
//! (DESIGN.md §14).

use crate::array::{suggested_workers, Array};
use crate::broadcast::BroadcastIter;

/// Multiply-add count above which [`bmm_into`] parallelizes across the batch
/// dimension.
pub const BMM_PARALLEL_FLOPS: usize = 4_000_000;

/// Column-panel width of [`matmul_into`]: a row's accumulators for one panel
/// are at most `MM_JB` floats (eight AVX2 registers), written back to the
/// output exactly once per panel.
pub const MM_JB: usize = 64;

/// Numerically stable logistic sigmoid.
#[inline]
pub fn stable_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Numerically stable softplus `ln(1 + e^x)` (clamped tails).
#[inline]
pub fn softplus_scalar(x: f32) -> f32 {
    if x > 20.0 {
        x
    } else if x < -20.0 {
        x.exp()
    } else {
        (1.0 + x.exp()).ln()
    }
}

// ----------------------------------------------------------------------
// Elementwise
// ----------------------------------------------------------------------

/// `out[i] = f(a[i])` (set semantics).
#[inline]
pub fn map_into(a: &[f32], out: &mut [f32], f: impl Fn(f32) -> f32) {
    debug_assert_eq!(a.len(), out.len());
    for (o, &x) in out.iter_mut().zip(a) {
        *o = f(x);
    }
}

fn is_suffix(suffix: &[usize], of: &[usize]) -> bool {
    suffix.len() <= of.len() && of[of.len() - suffix.len()..] == *suffix
}

/// Broadcasting elementwise binary op into `out` (set semantics).
///
/// `out_shape` must be `broadcast_shape(a_shape, b_shape)`. The three code
/// paths (identical shapes, suffix broadcast, general odometer) match
/// `Array::zip_broadcast` exactly — element order and arithmetic are the
/// same, so the allocating and `_into` forms are bit-identical.
pub fn zip_into(
    a: &[f32],
    a_shape: &[usize],
    b: &[f32],
    b_shape: &[usize],
    out_shape: &[usize],
    out: &mut [f32],
    f: impl Fn(f32, f32) -> f32,
) {
    if a_shape == b_shape {
        // Fast path: identical shapes.
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = f(x, y);
        }
        return;
    }
    // Fast path: `b` is an exact suffix of `a` (the common bias case).
    if out_shape == a_shape && is_suffix(b_shape, a_shape) {
        let m = b.len().max(1);
        for (i, (o, &x)) in out.iter_mut().zip(a).enumerate() {
            *o = f(x, b[i % m]);
        }
        return;
    }
    for (o, (oa, ob)) in out.iter_mut().zip(BroadcastIter::new(out_shape, a_shape, b_shape)) {
        *o = f(a[oa], b[ob]);
    }
}

// ----------------------------------------------------------------------
// Matrix multiplication
// ----------------------------------------------------------------------

/// `out = a × b` for row-major `[m,k] × [k,n]` (set semantics).
///
/// Runs [`matmul_avx2_into`] when the CPU has AVX2 and
/// [`matmul_portable_into`] otherwise: the same source, compiled twice. Per
/// output element the reduction over `p` runs in ascending order from
/// `0.0`, skipping `a[i,p] == 0.0` terms — the exact accumulation of
/// [`naive::matmul_into`], so every arm is bit-identical to it.
pub fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    if !matmul_avx2_into(a, b, out, m, k, n) {
        matmul_portable_into(a, b, out, m, k, n);
    }
}

/// The instruction set [`matmul_into`] runs on this CPU: `"avx2"` or
/// `"portable"`.
pub fn matmul_arm() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "portable"
}

/// [`matmul_into`]'s body compiled for the build's baseline target.
pub fn matmul_portable_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    matmul_body(a, b, out, m, k, n);
}

/// [`matmul_into`]'s body compiled with AVX2 enabled. Returns `false`, and
/// leaves `out` untouched, when the CPU lacks AVX2.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub fn matmul_avx2_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) -> bool {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the line above confirmed this CPU supports AVX2.
        unsafe { matmul_avx2_body(a, b, out, m, k, n) };
        return true;
    }
    false
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn matmul_avx2_body(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    matmul_body(a, b, out, m, k, n);
}

/// Lanes of one accumulator vector: one AVX2 register of `f32`.
const LANES: usize = 8;

/// The one matmul body. Each [`MM_JB`]-wide column panel of width `w` runs
/// [`panel`] at `V = ⌈w / LANES⌉` vectors, so every width has fixed-size
/// accumulators the compiler keeps in registers.
#[inline(always)]
fn matmul_body(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    // A panel narrower than its `V * LANES` lanes reads up to LANES - 1
    // floats past its row edge. Mid-matrix that is the next row of `b`; at
    // the end of `b` the read goes to this zero-padded copy of its last
    // floats instead. The junk lanes are never written to `out`.
    let mut tail = [0.0f32; 2 * MM_JB];
    let tail_at = b.len() - b.len().min(MM_JB);
    if !n.is_multiple_of(LANES) {
        tail[..b.len() - tail_at].copy_from_slice(&b[tail_at..]);
    }
    let t = Tail { buf: &tail, at: tail_at };
    let mut jb = 0;
    while jb < n {
        // Rows per block (the second parameter), measured per width on
        // AVX2: MR × V accumulators must leave registers for the operands.
        match (n - jb).min(MM_JB).div_ceil(LANES) {
            1 => panel::<1, 4>(a, b, &t, out, m, k, n, jb),
            2 => panel::<2, 4>(a, b, &t, out, m, k, n, jb),
            3 => panel::<3, 4>(a, b, &t, out, m, k, n, jb),
            4 => panel::<4, 3>(a, b, &t, out, m, k, n, jb),
            5 => panel::<5, 2>(a, b, &t, out, m, k, n, jb),
            6 => panel::<6, 2>(a, b, &t, out, m, k, n, jb),
            7 => panel::<7, 1>(a, b, &t, out, m, k, n, jb),
            _ => panel::<8, 1>(a, b, &t, out, m, k, n, jb),
        }
        jb += MM_JB;
    }
}

/// The zero-padded copy of `b`'s last floats; `buf[0]` is `b[at]`.
struct Tail<'t> {
    buf: &'t [f32],
    at: usize,
}

/// Output columns `jb .. jb + min(n - jb, MM_JB)` of every row, `MR` rows
/// at a time and the `m % MR` leftover rows one at a time.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn panel<const V: usize, const MR: usize>(
    a: &[f32],
    b: &[f32],
    tail: &Tail<'_>,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    jb: usize,
) {
    // Rows `p` of `b` whose `V * LANES`-lane read from column `jb` ends
    // inside `b`; the rest read from the tail copy.
    let end = jb + V * LANES;
    let in_b = if k * n >= end { ((k * n - end) / n + 1).min(k) } else { 0 };
    let mut i = 0;
    while i + MR <= m {
        row_block::<V, MR>(a, b, tail, out, i, k, n, jb, in_b);
        i += MR;
    }
    while i < m {
        row_block::<V, 1>(a, b, tail, out, i, k, n, jb, in_b);
        i += 1;
    }
}

/// Rows `i .. i + MR` of one column panel, accumulated in `MR × V` register
/// vectors over ascending `p`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn row_block<const V: usize, const MR: usize>(
    a: &[f32],
    b: &[f32],
    tail: &Tail<'_>,
    out: &mut [f32],
    i: usize,
    k: usize,
    n: usize,
    jb: usize,
    in_b: usize,
) {
    let arows: [&[f32]; MR] = std::array::from_fn(|r| &a[(i + r) * k..][..k]);
    let mut acc = [[[0.0f32; LANES]; V]; MR];
    for p in 0..in_b {
        accumulate(&mut acc, &arows, p, &b[p * n + jb..][..V * LANES]);
    }
    for p in in_b..k {
        accumulate(&mut acc, &arows, p, &tail.buf[p * n + jb - tail.at..][..V * LANES]);
    }
    // Each vector is copied out of `acc` whole before its first `w` lanes
    // are written: a variable-length copy straight out of `acc` would pin
    // the accumulators in memory instead of registers.
    let w = (n - jb).min(MM_JB);
    for (r, acc) in acc.iter().enumerate() {
        for (v, chunk) in out[(i + r) * n + jb..][..w].chunks_mut(LANES).enumerate() {
            let lanes: [f32; LANES] = acc[v];
            match chunk.len() {
                LANES => chunk.copy_from_slice(&lanes),
                len => chunk.copy_from_slice(&lanes[..len]),
            }
        }
    }
}

/// `acc[r] += a[r][p] * brow` for each row whose `a[r][p]` is not zero.
#[inline(always)]
fn accumulate<const V: usize, const MR: usize>(
    acc: &mut [[[f32; LANES]; V]; MR],
    arows: &[&[f32]; MR],
    p: usize,
    brow: &[f32],
) {
    for (acc, arow) in acc.iter_mut().zip(arows) {
        let av = arow[p];
        if av == 0.0 {
            continue;
        }
        for (v, acc) in acc.iter_mut().enumerate() {
            for (l, c) in acc.iter_mut().enumerate() {
                *c += av * brow[v * LANES + l];
            }
        }
    }
}

/// Threads to use for a batched matmul of this size (1 = stay sequential).
fn bmm_threads(b: usize, m: usize, k: usize, n: usize) -> usize {
    let work = b * m * k * n;
    if work < BMM_PARALLEL_FLOPS {
        return 1;
    }
    suggested_workers(b)
}

/// Batched `out = a × b` for `[b,m,k] × [b,k,n]` (set semantics).
///
/// Large batches (beyond [`BMM_PARALLEL_FLOPS`] multiply-adds) fan out
/// across scoped threads; per-slice results are identical to the
/// sequential path because each thread owns a disjoint output slice.
pub fn bmm_into(a: &[f32], b: &[f32], out: &mut [f32], bsz: usize, m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), bsz * m * k);
    debug_assert_eq!(b.len(), bsz * k * n);
    debug_assert_eq!(out.len(), bsz * m * n);
    let threads = bmm_threads(bsz, m, k, n);
    if threads <= 1 {
        for i in 0..bsz {
            matmul_into(
                &a[i * m * k..(i + 1) * m * k],
                &b[i * k * n..(i + 1) * k * n],
                &mut out[i * m * n..(i + 1) * m * n],
                m,
                k,
                n,
            );
        }
    } else {
        let chunk = bsz.div_ceil(threads);
        // A panicking worker propagates out of the scope on join.
        std::thread::scope(|scope| {
            for (ci, out_chunk) in out.chunks_mut(chunk * m * n).enumerate() {
                let start = ci * chunk;
                scope.spawn(move || {
                    for (j, o) in out_chunk.chunks_mut(m * n).enumerate() {
                        let i = start + j;
                        matmul_into(
                            &a[i * m * k..(i + 1) * m * k],
                            &b[i * k * n..(i + 1) * k * n],
                            o,
                            m,
                            k,
                            n,
                        );
                    }
                });
            }
        });
    }
}

/// Forward of the affine map `x W (+ b)` over the last dimension, into a
/// caller-provided buffer (set semantics). `rows = x.len() / k`.
pub fn linear_forward_into(
    x: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
    rows: usize,
    k: usize,
    f: usize,
) {
    matmul_into(x, w, out, rows, k, f);
    if let Some(bias) = bias {
        debug_assert_eq!(bias.len(), f);
        for row in out.chunks_exact_mut(f) {
            for (o, &bv) in row.iter_mut().zip(bias) {
                *o += bv;
            }
        }
    }
}

// ----------------------------------------------------------------------
// Fused target-aware attention decoder
// ----------------------------------------------------------------------

/// Candidate rows the fused decoder takes per panel.
pub const TAAD_PANEL: usize = 32;

/// Scratch floats [`taad_scores_into`] needs: `fᵀ` for one sequence plus
/// one panel each of `u = c·fᵀ`, logits and weights.
pub fn taad_scratch_len(n: usize, d: usize) -> usize {
    d * n + TAAD_PANEL * 3 * n
}

/// Target-aware attention decoder scores into `out: [b*m]` (set semantics).
///
/// `f: [b, n, d]` is the encoder output, `c: [b, m, d]` the candidates and
/// `mask` the additive attention mask, `[b, m, n]` or one row per sequence,
/// `[b, 1, n]`. Because `f` is both keys and values, a candidate's score
/// `(Σ_j p_j f_j)·c` is `Σ_j p_j u_j` with `u = c·fᵀ`: [`TAAD_PANEL`]
/// candidates at a time go through `u = c·fᵀ` → `×1/√d` → `+mask` →
/// softmax → `Σ_j w_j·u_j`. Each step is the kernel the unfused composition
/// (`Exec::taad_scores` on the tape) runs, applied to the same rows in the
/// same order, so the scores are bit-identical to it; only the `[m, n]`
/// intermediates shrink to one panel of `scratch`.
#[allow(clippy::too_many_arguments)]
pub fn taad_scores_into(
    f: &[f32],
    c: &[f32],
    mask: &[f32],
    out: &mut [f32],
    scratch: &mut [f32],
    b: usize,
    m: usize,
    n: usize,
    d: usize,
) {
    debug_assert_eq!(f.len(), b * n * d);
    debug_assert_eq!(c.len(), b * m * d);
    debug_assert!(mask.len() == b * m * n || mask.len() == b * n);
    debug_assert_eq!(out.len(), b * m);
    let per_seq = mask.len() / b.max(1);
    let (ft, panel) = scratch.split_at_mut(d * n);
    for bi in 0..b {
        transpose_last2_into(&f[bi * n * d..][..n * d], ft, 1, n, d);
        let (cb, mb) = (&c[bi * m * d..][..m * d], &mask[bi * per_seq..][..per_seq]);
        taad_rows_into(ft, cb, mb, &mut out[bi * m..][..m], panel, n, d);
    }
}

/// The panel loop of [`taad_scores_into`] over `out.len()` candidate rows of
/// one sequence: `ft: [d, n]` (the transposed encoder output),
/// `c: [rows, d]`, and `mask: [rows, n]`, or one row `[n]` every candidate
/// reads. A row's score depends only on its own rows of `c` and `mask`, so
/// any split of the rows into runs that start on a multiple of
/// [`TAAD_PANEL`] yields the same bits (`crate::lanes` relies on this).
pub(crate) fn taad_rows_into(
    ft: &[f32],
    c: &[f32],
    mask: &[f32],
    out: &mut [f32],
    panel: &mut [f32],
    n: usize,
    d: usize,
) {
    let inv_sqrt_d = 1.0 / (d as f32).sqrt();
    let mask_stride = if mask.len() == n { 0 } else { n };
    let (u, rest) = panel.split_at_mut(TAAD_PANEL * n);
    let (logits, wts) = rest.split_at_mut(TAAD_PANEL * n);
    for i0 in (0..out.len()).step_by(TAAD_PANEL) {
        let rows = TAAD_PANEL.min(out.len() - i0);
        let up = &mut u[..rows * n];
        matmul_into(&c[i0 * d..][..rows * d], ft, up, rows, d, n);
        for (r, (lrow, urow)) in logits.chunks_exact_mut(n).zip(up.chunks_exact(n)).enumerate() {
            let mrow = &mask[(i0 + r) * mask_stride..][..n];
            // Scale, then add the mask: two roundings, as the two ops.
            for ((l, &x), &mk) in lrow.iter_mut().zip(urow).zip(mrow) {
                *l = x * inv_sqrt_d + mk;
            }
        }
        softmax_last_into(&logits[..rows * n], &mut wts[..rows * n], n);
        // `Σ_j w_j·u_j` per row: the products, then `Iterator::sum` in
        // ascending `j` — the arithmetic of `mul` + `sum_last_into`.
        let rows_wu = wts.chunks_exact(n).zip(up.chunks_exact(n));
        for (o, (wrow, urow)) in out[i0..][..rows].iter_mut().zip(rows_wu) {
            *o = wrow.iter().zip(urow).map(|(&w, &x)| w * x).sum();
        }
    }
}

// ----------------------------------------------------------------------
// Reductions and normalizations
// ----------------------------------------------------------------------

/// Softmax over rows of width `w` (set semantics). Rows that are fully
/// masked (`-inf` everywhere) become uniform 0 rather than NaN.
pub fn softmax_last_into(src: &[f32], out: &mut [f32], w: usize) {
    debug_assert_eq!(src.len(), out.len());
    let rows = src.len() / w;
    for r in 0..rows {
        let row = &src[r * w..(r + 1) * w];
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let dst = &mut out[r * w..(r + 1) * w];
        let mut sum = 0.0f32;
        for (d, &x) in dst.iter_mut().zip(row) {
            let e = if max == f32::NEG_INFINITY { 0.0 } else { (x - max).exp() };
            *d = e;
            sum += e;
        }
        if sum > 0.0 {
            for d in dst.iter_mut() {
                *d /= sum;
            }
        }
    }
}

/// Per-row mean and inverse standard deviation of layer norm. The single
/// source of this arithmetic: [`layer_norm_forward`] (tape backward) and
/// [`layer_norm_affine_into`] (the forward) share it, keeping every layer
/// norm path bit-identical.
#[inline]
fn ln_row_stats(row: &[f32], eps: f32) -> (f32, f32) {
    let w = row.len();
    let mu: f32 = row.iter().sum::<f32>() / w as f32;
    let var: f32 = row.iter().map(|&v| (v - mu) * (v - mu)).sum::<f32>() / w as f32;
    (mu, 1.0 / (var + eps).sqrt())
}

/// Shared layer-norm forward: returns `(xhat, mu, inv_std)` per last-dim row.
pub fn layer_norm_forward(x: &Array, eps: f32) -> (Array, Vec<f32>, Vec<f32>) {
    let w = *x.shape().last().expect("layer_norm: scalar input");
    let rows = x.len() / w;
    let mut xhat = vec![0.0f32; x.len()];
    let mut mus = Vec::with_capacity(rows);
    let mut inv_stds = Vec::with_capacity(rows);
    for r in 0..rows {
        let row = &x.data()[r * w..(r + 1) * w];
        let (mu, inv_std) = ln_row_stats(row, eps);
        for j in 0..w {
            xhat[r * w + j] = (row[j] - mu) * inv_std;
        }
        mus.push(mu);
        inv_stds.push(inv_std);
    }
    (Array::from_parts(crate::shape::Shape::of(x.shape()), xhat), mus, inv_stds)
}

/// Fused affine layer norm `(x - mu) * inv_std * alpha + beta` into a
/// caller-provided buffer (set semantics). One pass over each row instead of
/// the three materialized arrays of the naive compose; per element the
/// arithmetic steps (normalize, scale, shift) are the same three roundings,
/// so the fusion is bit-identical to [`naive::layer_norm_affine_into`].
pub fn layer_norm_affine_into(
    x: &[f32],
    alpha: &[f32],
    beta: &[f32],
    eps: f32,
    out: &mut [f32],
    w: usize,
) {
    debug_assert_eq!(x.len(), out.len());
    debug_assert_eq!(alpha.len(), w);
    debug_assert_eq!(beta.len(), w);
    let rows = x.len() / w;
    for r in 0..rows {
        let row = &x[r * w..(r + 1) * w];
        let (mu, inv_std) = ln_row_stats(row, eps);
        let dst = &mut out[r * w..(r + 1) * w];
        for ((o, &v), (&a, &b)) in dst.iter_mut().zip(row).zip(alpha.iter().zip(beta)) {
            let xh = (v - mu) * inv_std;
            let scaled = xh * a;
            *o = scaled + b;
        }
    }
}

/// Max of a 3-D array over axis 1 into `[b*d]` (set semantics: output is
/// seeded with `-inf`, then maxed over the `n` axis in ascending order).
pub fn max_axis1_into(src: &[f32], out: &mut [f32], b: usize, n: usize, d: usize) {
    debug_assert_eq!(src.len(), b * n * d);
    debug_assert_eq!(out.len(), b * d);
    assert!(n >= 1, "max_axis1: empty axis");
    out.fill(f32::NEG_INFINITY);
    for i in 0..b {
        let orow = &mut out[i * d..(i + 1) * d];
        for j in 0..n {
            let row = &src[(i * n + j) * d..(i * n + j + 1) * d];
            for (o, &x) in orow.iter_mut().zip(row) {
                if x > *o {
                    *o = x;
                }
            }
        }
    }
}

/// Sum over rows of width `w`, dropping the last dimension (set semantics).
pub fn sum_last_into(src: &[f32], out: &mut [f32], w: usize) {
    debug_assert_eq!(out.len(), src.len() / w.max(1));
    for (o, row) in out.iter_mut().zip(src.chunks_exact(w.max(1))) {
        *o = row.iter().sum();
    }
}

/// Sum of a 3-D array over axis 1 into `[b*d]`. Seeds the output with zeros
/// and accumulates rows in ascending `j` order — the exact arithmetic of the
/// fresh-alloc path, which starts from a zeroed buffer.
pub fn sum_axis1_into(src: &[f32], out: &mut [f32], b: usize, n: usize, d: usize) {
    debug_assert_eq!(src.len(), b * n * d);
    debug_assert_eq!(out.len(), b * d);
    out.fill(0.0);
    for i in 0..b {
        for j in 0..n {
            let row = &src[(i * n + j) * d..(i * n + j + 1) * d];
            for (o, &x) in out[i * d..(i + 1) * d].iter_mut().zip(row) {
                *o += x;
            }
        }
    }
}

// ----------------------------------------------------------------------
// Data movement
// ----------------------------------------------------------------------

/// Transpose of the last two dims: `[batch, r, c] -> [batch, c, r]` (copies).
pub fn transpose_last2_into(src: &[f32], out: &mut [f32], batch: usize, r: usize, c: usize) {
    debug_assert_eq!(src.len(), batch * r * c);
    debug_assert_eq!(out.len(), src.len());
    for b in 0..batch {
        let base = b * r * c;
        for i in 0..r {
            for j in 0..c {
                out[base + j * r + i] = src[base + i * c + j];
            }
        }
    }
}

/// Embedding lookup into a caller-provided buffer: `out` row `i` is row
/// `indices[i]` of the `[t_rows, d]` table.
pub fn gather_rows_into(table: &[f32], t_rows: usize, d: usize, indices: &[usize], out: &mut [f32]) {
    debug_assert_eq!(out.len(), indices.len() * d);
    for (&i, orow) in indices.iter().zip(out.chunks_exact_mut(d)) {
        assert!(i < t_rows, "gather: index {i} out of {t_rows} rows");
        orow.copy_from_slice(&table[i * d..(i + 1) * d]);
    }
}

/// Per-row lookup along the last dimension into a caller-provided buffer:
/// `src: [rows, K]` flat, `idx: flat [rows * m_out]` → `out: [rows * m_out]`.
pub fn gather_last_into(src: &[f32], k: usize, idx: &[usize], m_out: usize, out: &mut [f32]) {
    let rows = src.len() / k;
    debug_assert_eq!(idx.len(), rows * m_out);
    debug_assert_eq!(out.len(), rows * m_out);
    for r in 0..rows {
        for m in 0..m_out {
            let j = idx[r * m_out + m];
            assert!(j < k, "gather_last: index {j} out of last dim {k}");
            out[r * m_out + m] = src[r * k + j];
        }
    }
}

/// Per-row scatter-add along the last dimension into a caller-provided
/// buffer (zeroed first, then accumulated — matching the fresh-alloc path).
pub fn scatter_add_last_into(src: &[f32], m: usize, idx: &[usize], k_out: usize, out: &mut [f32]) {
    let rows = src.len() / m;
    debug_assert_eq!(idx.len(), rows * m);
    debug_assert_eq!(out.len(), rows * k_out);
    out.fill(0.0);
    for r in 0..rows {
        for j in 0..m {
            let k = idx[r * m + j];
            assert!(k < k_out, "scatter_add_last: index {k} out of {k_out}");
            out[r * k_out + k] += src[r * m + j];
        }
    }
}

/// Copies one `[b,d]` part into lane `j` of a `[b,k,d]` stack buffer.
pub fn stack_part_into(part: &[f32], out: &mut [f32], j: usize, b: usize, k: usize, d: usize) {
    debug_assert_eq!(part.len(), b * d);
    debug_assert_eq!(out.len(), b * k * d);
    for i in 0..b {
        out[(i * k + j) * d..(i * k + j + 1) * d].copy_from_slice(&part[i * d..(i + 1) * d]);
    }
}

/// Extracts time step `idx` of a `[b,n,d]` buffer into `[b*d]`.
pub fn slice_axis1_into(src: &[f32], out: &mut [f32], idx: usize, b: usize, n: usize, d: usize) {
    debug_assert_eq!(src.len(), b * n * d);
    debug_assert_eq!(out.len(), b * d);
    for i in 0..b {
        out[i * d..(i + 1) * d].copy_from_slice(&src[(i * n + idx) * d..(i * n + idx + 1) * d]);
    }
}

/// Sliding-window unfold of a `[b,n,d]` buffer into `[b, n-w+1, w*d]`.
pub fn unfold1_into(src: &[f32], out: &mut [f32], b: usize, n: usize, d: usize, width: usize) {
    let windows = n - width + 1;
    debug_assert_eq!(src.len(), b * n * d);
    debug_assert_eq!(out.len(), b * windows * width * d);
    for i in 0..b {
        for s in 0..windows {
            out[(i * windows + s) * width * d..(i * windows + s + 1) * width * d]
                .copy_from_slice(&src[(i * n + s) * d..(i * n + s + width) * d]);
        }
    }
}

/// Extracts the half-open column range `[start, start+len)` of rows of width
/// `w` into a `[rows, len]` buffer.
pub fn slice_last_into(src: &[f32], out: &mut [f32], w: usize, start: usize, len: usize) {
    let rows = src.len() / w;
    debug_assert_eq!(out.len(), rows * len);
    for r in 0..rows {
        out[r * len..(r + 1) * len].copy_from_slice(&src[r * w + start..r * w + start + len]);
    }
}

// ----------------------------------------------------------------------
// FLOP estimates
// ----------------------------------------------------------------------

/// Estimated FLOPs of [`linear_forward_into`]: `2*rows*k*f`, plus `rows*f`
/// for the bias add.
pub fn linear_flops(x: &Array, w: &Array, bias: bool) -> u64 {
    let k = x.shape().last().copied().unwrap_or(1).max(1);
    let f = w.shape().get(1).copied().unwrap_or(1);
    let rows = (x.len() / k) as u64;
    2 * rows * (k as u64) * (f as u64) + if bias { rows * f as u64 } else { 0 }
}

/// Estimated FLOPs of a batched matmul `[b,m,k] × [b,k,n]`: `b * 2mkn`.
pub fn bmm_flops(a: &Array, b: &Array) -> u64 {
    let ash = a.shape();
    let n = b.shape().last().copied().unwrap_or(1);
    if ash.len() != 3 {
        return 0;
    }
    (ash[0] as u64) * 2 * (ash[1] as u64) * (ash[2] as u64) * (n as u64)
}

/// Estimated FLOPs of the target-aware decoder over `f: [b,n,d]` and
/// `c: [b,m,d]`: the sum of what its unfused ops report — the batched
/// matmul `u = c·fᵀ` (`2bmnd`), scale + mask + softmax (`7bmn`), and the
/// product `w⊙u` and its row sum (`2bmn`) — so fusing it does not move the
/// FLOP count.
pub fn taad_flops(b: usize, m: usize, n: usize, d: usize) -> u64 {
    let (b, m, n, d) = (b as u64, m as u64, n as u64, d as u64);
    2 * b * m * n * d + 7 * b * m * n + 2 * b * m * n
}

// ----------------------------------------------------------------------
// Naive references
// ----------------------------------------------------------------------

/// Naive reference implementations of every blocked/fused kernel above.
///
/// These are the pre-blocking triple loops and materializing composes, kept
/// as the ground truth for the differential property suite
/// (`crates/tensor/tests/kernel_diff.rs`) and the `kernel_bench` binary.
/// They are never called on the serving path.
pub mod naive {
    use super::Array;

    /// `out = a × b`, plain ikj triple loop (set semantics).
    pub fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), k * n);
        debug_assert_eq!(out.len(), m * n);
        out.fill(0.0);
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for (p, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let brow = &b[p * n..(p + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
    }

    /// Batched naive matmul, always sequential.
    pub fn bmm_into(a: &[f32], b: &[f32], out: &mut [f32], bsz: usize, m: usize, k: usize, n: usize) {
        for i in 0..bsz {
            matmul_into(
                &a[i * m * k..(i + 1) * m * k],
                &b[i * k * n..(i + 1) * k * n],
                &mut out[i * m * n..(i + 1) * m * n],
                m,
                k,
                n,
            );
        }
    }

    /// Naive linear: matmul then a separate bias pass.
    pub fn linear_forward_into(
        x: &[f32],
        w: &[f32],
        bias: Option<&[f32]>,
        out: &mut [f32],
        rows: usize,
        k: usize,
        f: usize,
    ) {
        matmul_into(x, w, out, rows, k, f);
        if let Some(bias) = bias {
            for (i, o) in out.iter_mut().enumerate() {
                *o += bias[i % f];
            }
        }
    }

    /// Softmax over rows of width `w`, one temporary-free pass per row.
    pub fn softmax_last_into(src: &[f32], out: &mut [f32], w: usize) {
        let rows = src.len() / w;
        for r in 0..rows {
            let row = &src[r * w..(r + 1) * w];
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let dst = &mut out[r * w..(r + 1) * w];
            let mut sum = 0.0f32;
            for (d, &x) in dst.iter_mut().zip(row) {
                let e = if max == f32::NEG_INFINITY { 0.0 } else { (x - max).exp() };
                *d = e;
                sum += e;
            }
            if sum > 0.0 {
                for d in dst.iter_mut() {
                    *d /= sum;
                }
            }
        }
    }

    /// Affine layer norm as the original three materialized steps:
    /// normalize into `xhat`, broadcast-multiply by `alpha`, broadcast-add
    /// `beta`. The ground truth the fused kernel must match bit-for-bit.
    pub fn layer_norm_affine(x: &Array, alpha: &Array, beta: &Array, eps: f32) -> Array {
        let (xhat, _, _) = super::layer_norm_forward(x, eps);
        xhat.mul(alpha).add(beta)
    }

    /// Max over axis 1 with the original `j`-middle loop nest and indexed
    /// compare-and-store.
    pub fn max_axis1_into(src: &[f32], out: &mut [f32], b: usize, n: usize, d: usize) {
        assert!(n >= 1, "max_axis1: empty axis");
        out.fill(f32::NEG_INFINITY);
        for i in 0..b {
            for j in 0..n {
                for k in 0..d {
                    let x = src[(i * n + j) * d + k];
                    if x > out[i * d + k] {
                        out[i * d + k] = x;
                    }
                }
            }
        }
    }
}
