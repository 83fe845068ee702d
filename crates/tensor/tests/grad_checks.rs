//! Finite-difference validation of every differentiable op.
//!
//! Each test builds a small scalar function through one (or a composition of)
//! ops and asserts the analytic gradient matches central differences. f32 +
//! h=1e-2 gives ~1e-3 accuracy; we assert < 2e-2 relative error.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use stisan_tensor::check::assert_grads_close;
use stisan_tensor::Array;

const TOL: f32 = 2e-2;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[test]
fn gc_add_broadcast() {
    let mut r = rng(1);
    let a = Array::randn(vec![2, 3], 1.0, &mut r);
    let b = Array::randn(vec![3], 1.0, &mut r);
    assert_grads_close(
        &[a, b],
        |g, v| {
            let y = g.add(v[0], v[1]);
            let y2 = g.mul(y, y); // make the function non-linear in inputs
            g.sum_all(y2)
        },
        TOL,
    );
}

#[test]
fn gc_sub_mul_trailing_one_broadcast() {
    let mut r = rng(2);
    let a = Array::randn(vec![2, 3], 1.0, &mut r);
    let b = Array::randn(vec![2, 1], 1.0, &mut r);
    assert_grads_close(
        &[a, b],
        |g, v| {
            let d = g.sub(v[0], v[1]);
            let m = g.mul(d, v[1]);
            g.sum_all(m)
        },
        TOL,
    );
}

#[test]
fn gc_scale_add_scalar_neg() {
    let mut r = rng(3);
    let a = Array::randn(vec![4], 1.0, &mut r);
    assert_grads_close(
        &[a],
        |g, v| {
            let y = g.scale(v[0], 2.5);
            let y = g.add_scalar(y, -1.0);
            let y = g.neg(y);
            let y = g.mul(y, y);
            g.sum_all(y)
        },
        TOL,
    );
}

#[test]
fn gc_linear_with_bias() {
    let mut r = rng(4);
    let x = Array::randn(vec![2, 3, 4], 1.0, &mut r);
    let w = Array::randn(vec![4, 5], 0.5, &mut r);
    let b = Array::randn(vec![5], 0.5, &mut r);
    assert_grads_close(
        &[x, w, b],
        |g, v| {
            let y = g.linear(v[0], v[1], Some(v[2]));
            let y = g.tanh(y);
            g.sum_all(y)
        },
        TOL,
    );
}

#[test]
fn gc_bmm_transpose() {
    let mut r = rng(5);
    let a = Array::randn(vec![2, 3, 4], 0.7, &mut r);
    let b = Array::randn(vec![2, 3, 4], 0.7, &mut r);
    assert_grads_close(
        &[a, b],
        |g, v| {
            let bt = g.transpose_last2(v[1]);
            let p = g.bmm(v[0], bt); // [2,3,3]
            let s = g.sigmoid(p);
            g.sum_all(s)
        },
        TOL,
    );
}

#[test]
fn gc_activations() {
    let mut r = rng(6);
    let a = Array::randn(vec![6], 1.0, &mut r);
    for act in 0..5 {
        assert_grads_close(
            &[a.clone()],
            |g, v| {
                let y = match act {
                    0 => g.relu(v[0]),
                    1 => g.sigmoid(v[0]),
                    2 => g.tanh(v[0]),
                    3 => g.exp(v[0]),
                    _ => g.softplus(v[0]),
                };
                let y = g.mul(y, y);
                g.sum_all(y)
            },
            TOL,
        );
    }
}

#[test]
fn gc_log() {
    let mut r = rng(7);
    let a = Array::uniform(vec![5], 0.5, 2.0, &mut r);
    assert_grads_close(
        &[a],
        |g, v| {
            let y = g.log(v[0]);
            g.sum_all(y)
        },
        TOL,
    );
}

#[test]
fn gc_softmax_weighted() {
    let mut r = rng(8);
    let x = Array::randn(vec![2, 4], 1.0, &mut r);
    let w = Array::randn(vec![2, 4], 1.0, &mut r);
    assert_grads_close(
        &[x, w],
        |g, v| {
            let s = g.softmax_last(v[0]);
            let m = g.mul(s, v[1]);
            g.sum_all(m)
        },
        TOL,
    );
}

#[test]
fn gc_reductions() {
    let mut r = rng(9);
    let x = Array::randn(vec![2, 3, 2], 1.0, &mut r);
    assert_grads_close(
        &[x.clone()],
        |g, v| {
            let y = g.mul(v[0], v[0]);
            let s = g.sum_last(y);
            let s = g.sum_all(s);
            g.scale(s, 0.5)
        },
        TOL,
    );
    assert_grads_close(
        &[x.clone()],
        |g, v| {
            let y = g.mul(v[0], v[0]);
            let s = g.sum_axis1(y);
            g.mean_all(s)
        },
        TOL,
    );
    assert_grads_close(
        &[x],
        |g, v| {
            let y = g.exp(v[0]);
            g.mean_all(y)
        },
        TOL,
    );
}

#[test]
fn gc_gather() {
    let mut r = rng(10);
    let table = Array::randn(vec![5, 3], 1.0, &mut r);
    assert_grads_close(
        &[table],
        |g, v| {
            let e = g.gather(v[0], &[4, 0, 4, 2], &[2, 2]);
            let y = g.mul(e, e);
            g.sum_all(y)
        },
        TOL,
    );
}

#[test]
fn gc_gather_last_scatter_add_last() {
    let mut r = rng(11);
    let v0 = Array::randn(vec![2, 4], 1.0, &mut r);
    let idx = Arc::new(vec![0usize, 3, 1, 1, 2, 0]); // 2 rows x 3 picks
    assert_grads_close(
        &[v0.clone()],
        |g, v| {
            let y = g.gather_last(v[0], Arc::clone(&idx), 3);
            let y = g.mul(y, y);
            g.sum_all(y)
        },
        TOL,
    );
    let idx2 = Arc::new(vec![0usize, 2, 2, 1, 1, 0, 0, 2]); // [2,4] -> k_out=3
    assert_grads_close(
        &[v0],
        |g, v| {
            let y = g.scatter_add_last(v[0], Arc::clone(&idx2), 3);
            let y = g.mul(y, y);
            g.sum_all(y)
        },
        TOL,
    );
}

#[test]
fn gc_concat_slice_reshape() {
    let mut r = rng(12);
    let a = Array::randn(vec![2, 2], 1.0, &mut r);
    let b = Array::randn(vec![2, 3], 1.0, &mut r);
    assert_grads_close(
        &[a, b],
        |g, v| {
            let c = g.concat_last(&[v[0], v[1]]);
            let s = g.slice_last(c, 1, 3);
            let s = g.reshape(s, &[6]);
            let y = g.mul(s, s);
            g.sum_all(y)
        },
        TOL,
    );
}

#[test]
fn gc_layer_norm() {
    let mut r = rng(13);
    let x = Array::randn(vec![3, 4], 1.0, &mut r);
    let alpha = Array::uniform(vec![4], 0.5, 1.5, &mut r);
    let beta = Array::randn(vec![4], 0.5, &mut r);
    assert_grads_close(
        &[x, alpha, beta],
        |g, v| {
            let y = g.layer_norm(v[0], v[1], v[2], 1e-5);
            let w = g.sigmoid(y);
            g.sum_all(w)
        },
        5e-2, // layer-norm mixes row statistics; slightly looser tolerance in f32
    );
}

#[test]
fn gc_mul_add_const() {
    let mut r = rng(14);
    let x = Array::randn(vec![2, 3], 1.0, &mut r);
    let m = Array::uniform(vec![2, 3], 0.0, 2.0, &mut r);
    let c = Array::randn(vec![3], 1.0, &mut r);
    assert_grads_close(
        &[x],
        |g, v| {
            let y = g.mul_const(v[0], m.clone());
            let y = g.add_const(y, c.clone());
            let y = g.mul(y, y);
            g.sum_all(y)
        },
        TOL,
    );
}

#[test]
fn gc_stack_slice_axis1() {
    let mut r = rng(15);
    let a = Array::randn(vec![2, 3], 1.0, &mut r);
    let b = Array::randn(vec![2, 3], 1.0, &mut r);
    assert_grads_close(
        &[a, b],
        |g, v| {
            let s = g.stack_axis1(&[v[0], v[1], v[0]]);
            let x0 = g.slice_axis1(s, 0);
            let x1 = g.slice_axis1(s, 1);
            let m = g.mul(x0, x1);
            g.sum_all(m)
        },
        TOL,
    );
}

#[test]
fn gc_unfold() {
    let mut r = rng(16);
    let x = Array::randn(vec![2, 4, 3], 1.0, &mut r);
    assert_grads_close(
        &[x],
        |g, v| {
            let u = g.unfold1(v[0], 2);
            let y = g.mul(u, u);
            g.sum_all(y)
        },
        TOL,
    );
}

#[test]
fn gc_attention_composite() {
    // A miniature single-head causal attention: the composition exercised by
    // every transformer model in the workspace.
    let mut r = rng(17);
    let x = Array::randn(vec![1, 4, 6], 0.5, &mut r);
    let wq = Array::randn(vec![6, 6], 0.4, &mut r);
    let wk = Array::randn(vec![6, 6], 0.4, &mut r);
    let wv = Array::randn(vec![6, 6], 0.4, &mut r);
    let mut mask = Array::zeros(vec![1, 4, 4]);
    for i in 0..4 {
        for j in (i + 1)..4 {
            mask.set(&[0, i, j], -1e9);
        }
    }
    assert_grads_close(
        &[x, wq, wk, wv],
        |g, v| {
            let q = g.linear(v[0], v[1], None);
            let k = g.linear(v[0], v[2], None);
            let val = g.linear(v[0], v[3], None);
            let kt = g.transpose_last2(k);
            let logits = g.bmm(q, kt);
            let logits = g.scale(logits, 1.0 / (6.0f32).sqrt());
            let logits = g.add_const(logits, mask.clone());
            let a = g.softmax_last(logits);
            let out = g.bmm(a, val);
            let out = g.tanh(out);
            g.sum_all(out)
        },
        5e-2,
    );
}

/// The target-aware decoder's recorded composition, where `u = c·fᵀ` feeds
/// both the logits and the weighted sum: gradients w.r.t. `f` and `c`, with
/// a full `[b, m, n]` mask that closes some positions of some rows, and
/// with one mask row shared by every candidate of a sequence.
#[test]
fn gc_taad_scores() {
    let mut r = rng(20);
    let f = Array::randn(vec![2, 4, 5], 0.7, &mut r);
    let c = Array::randn(vec![2, 3, 5], 0.7, &mut r);
    let mut full = Array::zeros(vec![2, 3, 4]);
    for j in 0..2 {
        full.set(&[0, 1, j], -1e9);
    }
    full.set(&[1, 2, 3], -1e9);
    let mut row = Array::zeros(vec![2, 1, 4]);
    row.set(&[1, 0, 0], -1e9);
    for mask in [full, row] {
        assert_grads_close(
            &[f.clone(), c.clone()],
            |g, v| {
                let y = g.taad_scores(v[0], v[1], mask.clone());
                let y = g.tanh(y);
                g.sum_all(y)
            },
            TOL,
        );
    }
}

#[test]
fn gc_weighted_bce_composite() {
    // log sigma(pos) + log(1 - sigma(neg)) via softplus, the Eq-12 building block.
    let mut r = rng(18);
    let pos = Array::randn(vec![3], 1.0, &mut r);
    let neg = Array::randn(vec![3, 4], 1.0, &mut r);
    assert_grads_close(
        &[pos, neg],
        |g, v| {
            let npos = g.neg(v[0]);
            let lpos = g.softplus(npos); // -log sigma(pos)
            let lneg = g.softplus(v[1]); // -log(1 - sigma(neg))
            let s1 = g.sum_all(lpos);
            let s2 = g.sum_all(lneg);
            g.add(s1, s2)
        },
        TOL,
    );
}

#[test]
fn proptest_style_random_composites() {
    // Randomized smoke: chains of broadcast ops keep gradients consistent.
    for seed in 0..5u64 {
        let mut r = rng(100 + seed);
        let a = Array::randn(vec![2, 3], 0.8, &mut r);
        let b = Array::randn(vec![3], 0.8, &mut r);
        assert_grads_close(
            &[a, b],
            |g, v| {
                let x = g.add(v[0], v[1]);
                let y = g.sigmoid(x);
                let z = g.mul(y, v[0]);
                let s = g.softmax_last(z);
                let s = g.mul(s, s);
                g.sum_all(s)
            },
            5e-2,
        );
    }
}

#[test]
fn gc_max_axis1() {
    let mut r = rng(19);
    let x = Array::randn(vec![2, 3, 4], 1.0, &mut r);
    assert_grads_close(
        &[x],
        |g, v| {
            let m = g.max_axis1(v[0]);
            let y = g.mul(m, m);
            g.sum_all(y)
        },
        TOL,
    );
}
