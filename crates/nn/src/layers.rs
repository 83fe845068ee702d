//! Core layers: linear, embedding, layer normalization, feed-forward.

use rand::Rng;
use stisan_tensor::{xavier_uniform, Array, Tape, Var, MAX_DIMS};

use crate::param::{ParamId, ParamStore, Session};

/// Affine layer `y = x W (+ b)` applied over the last dimension.
pub struct Linear {
    w: ParamId,
    b: Option<ParamId>,
    /// Input feature width.
    pub in_dim: usize,
    /// Output feature width.
    pub out_dim: usize,
}

impl Linear {
    /// Registers a Xavier-initialized weight (and zero bias when `bias`).
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        bias: bool,
        rng: &mut R,
    ) -> Self {
        let w = store.register(format!("{name}.w"), xavier_uniform(in_dim, out_dim, rng));
        let b = bias.then(|| store.register(format!("{name}.b"), Array::zeros(vec![out_dim])));
        Linear { w, b, in_dim, out_dim }
    }

    /// Applies the layer to `x: [..., in_dim]` (any execution backend).
    pub fn forward<T: Tape>(&self, sess: &mut Session<'_, T>, x: Var) -> Var {
        let w = sess.param(self.w);
        let b = self.b.map(|b| sess.param(b));
        sess.g.linear(x, w, b)
    }
}

/// Embedding table with an optional padding index whose vector is pinned to
/// zero (the paper encodes padding check-ins as zero vectors so they do not
/// influence gradient updates).
pub struct Embedding {
    table: ParamId,
    /// Vocabulary size (number of rows).
    pub vocab: usize,
    /// Embedding dimension.
    pub dim: usize,
    /// Index treated as padding (pinned to the zero vector).
    pub padding_idx: Option<usize>,
}

impl Embedding {
    /// Registers a `N(0, 0.02)`-initialized table.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        vocab: usize,
        dim: usize,
        padding_idx: Option<usize>,
        rng: &mut R,
    ) -> Self {
        let mut init = Array::randn(vec![vocab, dim], 0.02, rng);
        if let Some(p) = padding_idx {
            for v in init.data_mut()[p * dim..(p + 1) * dim].iter_mut() {
                *v = 0.0;
            }
        }
        let table = store.register(format!("{name}.table"), init);
        Embedding { table, vocab, dim, padding_idx }
    }

    /// Looks up `indices` (shaped `batch_shape`), returning
    /// `[*batch_shape, dim]`. Padding rows come out as (and stay) zero: the
    /// lookup is multiplied by a 0/1 mask so no gradient reaches the padding
    /// row and the output is exactly the zero vector.
    pub fn forward<T: Tape>(&self, sess: &mut Session<'_, T>, indices: &[usize], batch_shape: &[usize]) -> Var {
        let table = sess.param(self.table);
        let e = sess.g.gather(table, indices, batch_shape);
        match self.padding_idx {
            None => e,
            Some(p) => {
                // The mask shape `[*batch_shape, 1]` fits on the stack (rank
                // is bounded by `MAX_DIMS`), keeping warm serving heap-free.
                let mut mask_shape = [1usize; MAX_DIMS];
                mask_shape[..batch_shape.len()].copy_from_slice(batch_shape);
                let mask_shape = &mask_shape[..batch_shape.len() + 1];
                // Arena-backed scratch on the serving backend; every element is
                // written below, and `mul_const` recycles the consumed constant.
                let mut mask = sess.g.scratch_array(mask_shape);
                for (m, &i) in mask.data_mut().iter_mut().zip(indices) {
                    *m = if i == p { 0.0 } else { 1.0 };
                }
                sess.g.mul_const(e, mask)
            }
        }
    }
}

/// Learned layer normalization over the last dimension (paper Eq 9).
pub struct LayerNorm {
    alpha: ParamId,
    beta: ParamId,
    eps: f32,
}

impl LayerNorm {
    /// Registers unit scale / zero shift parameters of width `dim`.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize) -> Self {
        let alpha = store.register(format!("{name}.alpha"), Array::ones(vec![dim]));
        let beta = store.register(format!("{name}.beta"), Array::zeros(vec![dim]));
        LayerNorm { alpha, beta, eps: 1e-5 }
    }

    /// Normalizes `x: [..., dim]`.
    pub fn forward<T: Tape>(&self, sess: &mut Session<'_, T>, x: Var) -> Var {
        let alpha = sess.param(self.alpha);
        let beta = sess.param(self.beta);
        sess.g.layer_norm(x, alpha, beta, self.eps)
    }
}

/// The paper's two-layer point-wise feed-forward network (Eq 7):
/// `F = max(0, A W1 + b1) W2 + b2` with hidden width `d_h > d`.
pub struct FeedForward {
    l1: Linear,
    l2: Linear,
    /// Dropout applied after the activation.
    pub dropout: f32,
}

impl FeedForward {
    /// Builds `d -> d_h -> d` with ReLU.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        d: usize,
        d_h: usize,
        dropout: f32,
        rng: &mut R,
    ) -> Self {
        FeedForward {
            l1: Linear::new(store, &format!("{name}.ff1"), d, d_h, true, rng),
            l2: Linear::new(store, &format!("{name}.ff2"), d_h, d, true, rng),
            dropout,
        }
    }

    /// Applies the network to `x: [..., d]`.
    pub fn forward<T: Tape>(&self, sess: &mut Session<'_, T>, x: Var) -> Var {
        let h = self.l1.forward(sess, x);
        let h = sess.g.relu(h);
        let h = sess.dropout(h, self.dropout);
        self.l2.forward(sess, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "l", 4, 3, true, &mut rng);
        let mut sess = Session::new(&store, false, 0);
        let x = sess.constant(Array::ones(vec![2, 5, 4]));
        let y = lin.forward(&mut sess, x);
        assert_eq!(sess.g.value(y).shape(), &[2, 5, 3]);
    }

    #[test]
    fn embedding_padding_is_zero_and_gradless() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, "e", 5, 3, Some(0), &mut rng);
        let mut sess = Session::new(&store, true, 0);
        let e = emb.forward(&mut sess, &[0, 2, 0], &[3]);
        let v = sess.g.value(e);
        assert_eq!(&v.data()[0..3], &[0.0, 0.0, 0.0]);
        assert_eq!(&v.data()[6..9], &[0.0, 0.0, 0.0]);
        let loss = sess.g.sum_all(e);
        let grads = sess.backward_and_grads(loss);
        let (_, g) = &grads[0];
        // Row 0 (padding) must receive zero gradient; row 2 gets ones.
        assert_eq!(&g.data()[0..3], &[0.0, 0.0, 0.0]);
        assert_eq!(&g.data()[6..9], &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn layer_norm_output_is_normalized() {
        let mut store = ParamStore::new();
        let ln = LayerNorm::new(&mut store, "ln", 4);
        let mut sess = Session::new(&store, false, 0);
        let x = sess.constant(Array::from_vec(vec![1, 4], vec![1., 2., 3., 4.]));
        let y = ln.forward(&mut sess, x);
        let out = sess.g.value(y);
        let mean: f32 = out.data().iter().sum::<f32>() / 4.0;
        let var: f32 = out.data().iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn feed_forward_shapes() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let ff = FeedForward::new(&mut store, "ff", 4, 8, 0.0, &mut rng);
        let mut sess = Session::new(&store, false, 0);
        let x = sess.constant(Array::ones(vec![2, 3, 4]));
        let y = ff.forward(&mut sess, x);
        assert_eq!(sess.g.value(y).shape(), &[2, 3, 4]);
    }
}
