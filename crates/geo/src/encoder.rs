//! The GeoSAN-style geography encoder.
//!
//! Following Lian et al. (KDD 2020), a GPS coordinate is mapped to its
//! quadkey n-gram tokens; each token is embedded, a single self-attention
//! layer lets the n-grams exchange hierarchy information, and mean pooling
//! plus a linear projection produce the final location encoding. STiSAN's
//! embedding module concatenates this encoding with the POI embedding.

use rand::Rng;
use stisan_nn::{attention, Embedding, Linear, ParamStore, Session};
use stisan_tensor::{Tape, Var};

use crate::quadkey::{tokens_per_point, vocab_size};

/// Self-attention n-gram quadkey encoder producing a `dim`-wide vector per
/// location.
pub struct GeoEncoder {
    emb: Embedding,
    wq: Linear,
    wk: Linear,
    wv: Linear,
    out: Linear,
    /// Quadkey zoom level.
    pub level: u8,
    /// n-gram width.
    pub n: usize,
    /// Output encoding width.
    pub dim: usize,
}

impl GeoEncoder {
    /// Builds the encoder. `level`/`n` control the quadkey tokenization
    /// (GeoSAN uses level 17, n = 6); `dim` is the output width.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        level: u8,
        n: usize,
        dim: usize,
        rng: &mut R,
    ) -> Self {
        let vocab = vocab_size(n);
        GeoEncoder {
            emb: Embedding::new(store, &format!("{name}.ngram"), vocab, dim, None, rng),
            wq: Linear::new(store, &format!("{name}.wq"), dim, dim, false, rng),
            wk: Linear::new(store, &format!("{name}.wk"), dim, dim, false, rng),
            wv: Linear::new(store, &format!("{name}.wv"), dim, dim, false, rng),
            out: Linear::new(store, &format!("{name}.out"), dim, dim, true, rng),
            level,
            n,
            dim,
        }
    }

    /// Tokens produced per location at this encoder's `(level, n)`.
    pub fn tokens_per_location(&self) -> usize {
        tokens_per_point(self.level, self.n)
    }

    /// Encodes a batch of locations.
    ///
    /// `tokens` holds the flattened n-gram ids of `count` locations
    /// (`count * tokens_per_location()` entries, precomputed once per POI by
    /// the data pipeline). Returns `[count, dim]`.
    pub fn forward<T: Tape>(&self, sess: &mut Session<'_, T>, tokens: &[usize], count: usize) -> Var {
        let t = self.tokens_per_location();
        assert_eq!(
            tokens.len(),
            count * t,
            "GeoEncoder::forward: expected {count}x{t} tokens, got {}",
            tokens.len()
        );
        let e = self.emb.forward(sess, tokens, &[count, t]); // [count, t, dim]
        let q = self.wq.forward(sess, e);
        let k = self.wk.forward(sess, e);
        let v = self.wv.forward(sess, e);
        let att = attention(sess, q, k, v, None);
        let pooled = sess.g.sum_axis1(att.out); // [count, dim]
        let pooled = sess.g.scale(pooled, 1.0 / t as f32);
        self.out.forward(sess, pooled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quadkey::tokens_for;
    use crate::GeoPoint;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn encode_points(points: &[GeoPoint]) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let enc = GeoEncoder::new(&mut store, "geo", 12, 4, 8, &mut rng);
        let mut tokens = Vec::new();
        for p in points {
            tokens.extend(tokens_for(*p, 12, 4));
        }
        let mut sess = Session::new(&store, false, 0);
        let out = enc.forward(&mut sess, &tokens, points.len());
        let v = sess.g.value(out);
        (0..points.len()).map(|i| v.data()[i * 8..(i + 1) * 8].to_vec()).collect()
    }

    #[test]
    fn output_shape_and_determinism() {
        let pts = [GeoPoint::new(43.88, 125.35), GeoPoint::new(43.89, 125.36)];
        let a = encode_points(&pts);
        let b = encode_points(&pts);
        assert_eq!(a, b);
        assert_eq!(a[0].len(), 8);
    }

    #[test]
    fn nearby_locations_encode_more_similarly_than_distant() {
        let base = GeoPoint::new(43.88, 125.35);
        let near = GeoPoint::new(43.8805, 125.3505);
        let far = GeoPoint::new(30.0, 100.0);
        let enc = encode_points(&[base, near, far]);
        let dist = |a: &[f32], b: &[f32]| -> f32 {
            a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum::<f32>().sqrt()
        };
        assert!(dist(&enc[0], &enc[1]) < dist(&enc[0], &enc[2]));
    }

    #[test]
    fn gradients_flow_to_ngram_table() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let enc = GeoEncoder::new(&mut store, "geo", 10, 3, 4, &mut rng);
        let tokens = tokens_for(GeoPoint::new(10.0, 20.0), 10, 3);
        let mut sess = Session::new(&store, true, 0);
        let out = enc.forward(&mut sess, &tokens, 1);
        let loss = sess.g.sum_all(out);
        let grads = sess.backward_and_grads(loss);
        assert!(!grads.is_empty());
        // Embedding + wq/wk/wv + out weights/bias all receive gradients.
        assert!(grads.len() >= 5, "only {} grads", grads.len());
    }
}
