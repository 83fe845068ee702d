//! Scaled dot-product attention with an optional additive logit bias.
//!
//! One primitive serves every attention flavour in the workspace:
//!
//! * vanilla causal self-attention (SASRec): bias = causal mask;
//! * bidirectional attention (BERT4Rec): bias = padding mask only;
//! * **IAAB** (STiSAN): bias = causal mask + `Softmax(R)` relation matrix;
//! * TiSASRec / STAN: bias = learned interval logits (a graph [`Var`]);
//! * TAAD / STAN matching layers: cross-attention with step masks.

use stisan_tensor::{Tape, Var};

use crate::param::Session;

/// Result of an attention call: the attended values and the post-softmax
/// weight matrix (exposed for the paper's heat-map interpretability figures).
pub struct AttentionOutput {
    /// `[b, n_q, d]` attended representation.
    pub out: Var,
    /// `[b, n_q, n_k]` attention weights (rows sum to 1 over unmasked keys).
    pub weights: Var,
}

/// Computes `Softmax(Q K^T / sqrt(d) + bias) V`.
///
/// * `q`: `[b, n_q, d]`, `k`: `[b, n_k, d]`, `v`: `[b, n_k, d_v]`.
/// * `bias`: optional additive `[b, n_q, n_k]` (or broadcastable) logits —
///   masks and/or relation matrices. Pass constants via
///   [`Session::constant`]; trainable biases (TiSASRec) as regular nodes.
pub fn attention<T: Tape>(sess: &mut Session<'_, T>, q: Var, k: Var, v: Var, bias: Option<Var>) -> AttentionOutput {
    let d = *sess.g.value(q).shape().last().expect("attention: scalar q");
    let kt = sess.g.transpose_last2(k);
    let mut logits = sess.g.bmm(q, kt);
    logits = sess.g.scale(logits, 1.0 / (d as f32).sqrt());
    if let Some(b) = bias {
        logits = sess.g.add(logits, b);
    }
    let weights = sess.g.softmax_last(logits);
    let out = sess.g.bmm(weights, v);
    AttentionOutput { out, weights }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::masks::causal_mask;
    use crate::param::ParamStore;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use stisan_tensor::Array;

    #[test]
    fn causal_attention_respects_mask() {
        let mut rng = StdRng::seed_from_u64(0);
        let store = ParamStore::new();
        let mut sess = Session::new(&store, false, 0);
        let x = sess.constant(Array::randn(vec![1, 3, 4], 1.0, &mut rng));
        let bias = sess.constant(causal_mask(1, 3));
        let att = attention(&mut sess, x, x, x, Some(bias));
        let w = sess.g.value(att.weights);
        // Upper triangle must be ~0 after softmax.
        assert!(w.at(&[0, 0, 1]) < 1e-6);
        assert!(w.at(&[0, 0, 2]) < 1e-6);
        assert!(w.at(&[0, 1, 2]) < 1e-6);
        // First row attends only to itself.
        assert!((w.at(&[0, 0, 0]) - 1.0).abs() < 1e-6);
        // Rows sum to one.
        for i in 0..3 {
            let s: f32 = (0..3).map(|j| w.at(&[0, i, j])).sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn additive_bias_shifts_weights() {
        let store = ParamStore::new();
        let mut sess = Session::new(&store, false, 0);
        // Identical keys: uniform weights without bias.
        let x = sess.constant(Array::ones(vec![1, 2, 2]));
        let unbiased = attention(&mut sess, x, x, x, None);
        let wu = sess.g.value(unbiased.weights).clone();
        assert!((wu.at(&[0, 0, 0]) - 0.5).abs() < 1e-6);
        // Strong bias toward key 0 flips that.
        let bias = sess.constant(Array::from_vec(vec![1, 2, 2], vec![3.0, 0.0, 3.0, 0.0]));
        let biased = attention(&mut sess, x, x, x, Some(bias));
        let wb = sess.g.value(biased.weights);
        assert!(wb.at(&[0, 0, 0]) > 0.9);
    }

    #[test]
    fn cross_attention_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let store = ParamStore::new();
        let mut sess = Session::new(&store, false, 0);
        let q = sess.constant(Array::randn(vec![2, 5, 4], 1.0, &mut rng));
        let kv = sess.constant(Array::randn(vec![2, 7, 4], 1.0, &mut rng));
        let att = attention(&mut sess, q, kv, kv, None);
        assert_eq!(sess.g.value(att.out).shape(), &[2, 5, 4]);
        assert_eq!(sess.g.value(att.weights).shape(), &[2, 5, 7]);
    }
}
