//! TiSASRec: Time Interval Aware Self-Attention (Li, Wang & McAuley, WSDM
//! 2020).
//!
//! Self-attention where each query-key pair additionally sees an embedding of
//! their (personalized, clipped) time interval: interval buckets contribute a
//! learned key-side logit `q_i · r^K_{b(i,j)}` and a value-side term
//! `Σ_j a_ij r^V_{b(i,j)}`, both implemented with bucket gather/scatter ops so
//! no `n × n × d` tensor is materialized.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use stisan_data::{Batcher, EvalInstance, Processed};
use stisan_eval::{FrozenScorer, Recommender};
use stisan_nn::{
    bce_loss, causal_mask, padding_row_mask, sinusoidal_encoding, vanilla_positions, Adam,
    Embedding, FeedForward, LayerNorm, Linear, ParamStore, Session,
};
use stisan_tensor::{Array, Tape, Var};

use crate::common::{dot_scores, interleave_candidates, uniform_negatives, SeqBatch, TrainConfig};

/// Number of interval buckets (TiSASRec's `k`; intervals clip here).
const K_BUCKETS: usize = 32;

struct TiBlock {
    ln1: LayerNorm,
    wq: Linear,
    wk: Linear,
    wv: Linear,
    rk: Linear, // d -> K: rows are key-side interval embeddings (transposed)
    rv: Linear, // K -> d: value-side interval embeddings
    ln2: LayerNorm,
    ff: FeedForward,
}

/// The TiSASRec model.
pub struct TiSasRec {
    store: ParamStore,
    emb: Embedding,
    blocks: Vec<TiBlock>,
    final_ln: LayerNorm,
    cfg: TrainConfig,
}

impl TiSasRec {
    /// Builds an untrained model for `data`.
    pub fn new(data: &Processed, cfg: TrainConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, "poi", data.num_pois + 1, cfg.dim, Some(0), &mut rng);
        let blocks = (0..cfg.blocks)
            .map(|i| TiBlock {
                ln1: LayerNorm::new(&mut store, &format!("b{i}.ln1"), cfg.dim),
                wq: Linear::new(&mut store, &format!("b{i}.wq"), cfg.dim, cfg.dim, false, &mut rng),
                wk: Linear::new(&mut store, &format!("b{i}.wk"), cfg.dim, cfg.dim, false, &mut rng),
                wv: Linear::new(&mut store, &format!("b{i}.wv"), cfg.dim, cfg.dim, false, &mut rng),
                rk: Linear::new(&mut store, &format!("b{i}.rk"), cfg.dim, K_BUCKETS, false, &mut rng),
                rv: Linear::new(&mut store, &format!("b{i}.rv"), K_BUCKETS, cfg.dim, false, &mut rng),
                ln2: LayerNorm::new(&mut store, &format!("b{i}.ln2"), cfg.dim),
                ff: FeedForward::new(&mut store, &format!("b{i}.ff"), cfg.dim, 2 * cfg.dim, cfg.dropout, &mut rng),
            })
            .collect();
        let final_ln = LayerNorm::new(&mut store, "final_ln", cfg.dim);
        TiSasRec { store, emb, blocks, final_ln, cfg }
    }

    /// Personalized interval bucket matrix, flattened `[b*n*n]`.
    ///
    /// TiSASRec scales each user's intervals by their minimum positive gap so
    /// buckets are comparable across users, then clips to `K_BUCKETS - 1`.
    fn interval_buckets(batch: &SeqBatch) -> Vec<usize> {
        let (b, n) = (batch.b, batch.n);
        let mut out = vec![0usize; b * n * n];
        for row in 0..b {
            let t = &batch.time[row * n..(row + 1) * n];
            let vf = batch.valid_from[row];
            // Personal unit: smallest positive consecutive gap.
            let mut unit = f64::INFINITY;
            for k in (vf + 1)..n {
                let g = t[k] - t[k - 1];
                if g > 0.0 && g < unit {
                    unit = g;
                }
            }
            if !unit.is_finite() {
                unit = 1.0;
            }
            for i in vf..n {
                for j in vf..=i {
                    let bkt = (((t[i] - t[j]).abs() / unit).round() as usize).min(K_BUCKETS - 1);
                    out[(row * n + i) * n + j] = bkt;
                }
            }
        }
        out
    }

    /// Encodes a batch into per-step representations `[b, n, d]`.
    pub fn encode<T: Tape>(&self, sess: &mut Session<'_, T>, batch: &SeqBatch) -> Var {
        let (b, n, d) = (batch.b, batch.n, self.cfg.dim);
        let e = self.emb.forward(sess, &batch.src, &[b, n]);
        let mut pos_data = Vec::with_capacity(b * n * d);
        for row in 0..b {
            let vf = batch.valid_from[row];
            let mut pos = vec![0.0f32; n];
            pos[vf..].copy_from_slice(&vanilla_positions(n - vf));
            pos_data.extend_from_slice(sinusoidal_encoding(&pos, d).data());
        }
        let e = sess.g.add_const(e, Array::from_vec(vec![b, n, d], pos_data));
        let mut x = sess.dropout(e, self.cfg.dropout);
        let mask = causal_mask(b, n).add(&padding_row_mask(&batch.src_valid(), b, n));
        let buckets = Arc::new(Self::interval_buckets(batch));
        let scale = 1.0 / (d as f32).sqrt();
        for blk in &self.blocks {
            let h = blk.ln1.forward(sess, x);
            let q = blk.wq.forward(sess, h);
            let k = blk.wk.forward(sess, h);
            let v = blk.wv.forward(sess, h);
            // Content logits.
            let kt = sess.g.transpose_last2(k);
            let qk = sess.g.bmm(q, kt); // [b, n, n]
            // Interval key logits: q · r^K_bucket for every bucket, gathered.
            let qe = blk.rk.forward(sess, q); // [b, n, K]
            let rel = sess.g.gather_last(qe, Arc::clone(&buckets), n); // [b, n, n]
            let logits = sess.g.add(qk, rel);
            let logits = sess.g.scale(logits, scale);
            let logits = sess.g.add_const(logits, mask.clone());
            let a = sess.g.softmax_last(logits);
            // Value side: A·V plus bucket-aggregated interval values.
            let av = sess.g.bmm(a, v);
            let ab = sess.g.scatter_add_last(a, Arc::clone(&buckets), K_BUCKETS); // [b, n, K]
            let rv = blk.rv.forward(sess, ab); // [b, n, d]
            let att = sess.g.add(av, rv);
            let att = sess.dropout(att, self.cfg.dropout);
            x = sess.g.add(x, att);
            let h2 = blk.ln2.forward(sess, x);
            let f = blk.ff.forward(sess, h2);
            let f = sess.dropout(f, self.cfg.dropout);
            x = sess.g.add(x, f);
        }
        self.final_ln.forward(sess, x)
    }

    /// Backend-generic last-step candidate scoring shared by the tape and
    /// frozen paths (parity-by-construction, see DESIGN.md §9).
    fn score_in<T: Tape>(
        &self,
        sess: &mut Session<'_, T>,
        data: &Processed,
        inst: &EvalInstance,
        candidates: &[u32],
    ) -> Vec<f32> {
        let batch = SeqBatch::from_eval(data, inst);
        let f = self.encode(sess, &batch);
        let h_last = sess.g.slice_axis1(f, batch.n - 1);
        let ids: Vec<usize> = candidates.iter().map(|&c| c as usize).collect();
        let c = self.emb.forward(sess, &ids, &[1, ids.len()]);
        let h3 = sess.g.reshape(h_last, &[1, 1, self.cfg.dim]);
        let ct = sess.g.transpose_last2(c);
        let y = sess.g.bmm(h3, ct);
        sess.g.value(y).data().to_vec()
    }

    /// Trains with per-step BCE and uniform negatives.
    pub fn fit(&mut self, data: &Processed) {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0xabab);
        let mut opt = Adam::new(self.cfg.lr);
        let mut batcher = Batcher::new(data.train.len(), self.cfg.batch);
        let l = self.cfg.negatives.max(1);
        for epoch in 0..self.cfg.epochs {
            batcher.shuffle(&mut rng);
            let idx_lists: Vec<Vec<usize>> = batcher.batches().map(|c| c.to_vec()).collect();
            let mut total = 0.0f64;
            let mut steps = 0usize;
            for idxs in idx_lists {
                let batch = SeqBatch::from_train(data, &idxs);
                let negs = batch.sample_negatives(l, |t, l| uniform_negatives(data.num_pois, t, l, &mut rng));
                let mut sess = Session::new(&self.store, true, self.cfg.seed ^ (epoch as u64) << 15);
                let f = self.encode(&mut sess, &batch);
                let cand_ids = interleave_candidates(&batch.tgt, &negs, l);
                let c = self.emb.forward(&mut sess, &cand_ids, &[batch.b * batch.n, l + 1]);
                let y = dot_scores(&mut sess, f, c, batch.b, batch.n, l + 1);
                let pos = sess.g.slice_last(y, 0, 1);
                let pos = sess.g.reshape(pos, &[batch.b, batch.n]);
                let neg = sess.g.slice_last(y, 1, l);
                let loss = bce_loss(&mut sess, pos, neg, &batch.step_mask);
                total += sess.g.value(loss).item() as f64;
                steps += 1;
                let grads = sess.backward_and_grads(loss);
                opt.step(&mut self.store, &grads, Some(self.cfg.grad_clip));
            }
            stisan_obs::vlog!(
                self.cfg.verbose,
                "  [TiSASRec] epoch {epoch}: loss {:.4}",
                total / steps.max(1) as f64
            );
        }
    }
}

impl Recommender for TiSasRec {
    fn name(&self) -> String {
        "TiSASRec".into()
    }

    fn score(&self, data: &Processed, inst: &EvalInstance, candidates: &[u32]) -> Vec<f32> {
        let mut sess = Session::new(&self.store, false, 0);
        self.score_in(&mut sess, data, inst, candidates)
    }
}

impl FrozenScorer for TiSasRec {
    fn score_frozen(&self, data: &Processed, inst: &EvalInstance, candidates: &[u32]) -> Vec<f32> {
        let mut sess = Session::frozen(&self.store);
        self.score_in(&mut sess, data, inst, candidates)
    }

    fn score_frozen_into(
        &self,
        data: &Processed,
        inst: &EvalInstance,
        candidates: &[u32],
        arena: &mut stisan_tensor::Arena,
        out: &mut Vec<f32>,
    ) {
        let mut sess = Session::frozen_in(&self.store, std::mem::take(arena));
        let scores = self.score_in(&mut sess, data, inst, candidates);
        *arena = sess.recycle();
        out.clear();
        out.extend_from_slice(&scores);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stisan_data::{generate, preprocess, DatasetPreset, GenConfig, PrepConfig};
    use stisan_eval::{build_candidates, evaluate};

    fn processed() -> Processed {
        let cfg =
            GenConfig { users: 30, pois: 180, mean_seq_len: 30.0, ..DatasetPreset::Gowalla.config(0.01) };
        let d = generate(&cfg, 147);
        preprocess(&d, &PrepConfig { max_len: 10, min_user_checkins: 15, min_poi_interactions: 2 })
    }

    #[test]
    fn buckets_are_causal_and_clipped() {
        let p = processed();
        let batch = SeqBatch::from_train(&p, &[0]);
        let buckets = TiSasRec::interval_buckets(&batch);
        let n = batch.n;
        for i in 0..n {
            for j in 0..n {
                let b = buckets[i * n + j];
                assert!(b < K_BUCKETS);
                if j > i {
                    assert_eq!(b, 0, "upper triangle must stay bucket 0");
                }
            }
        }
        // Larger separations never get smaller buckets along a row.
        let vf = batch.valid_from[0];
        let i = n - 1;
        for j in (vf + 1)..i {
            assert!(buckets[i * n + j - 1] >= buckets[i * n + j]);
        }
    }

    #[test]
    fn trains_and_evaluates() {
        let p = processed();
        let mut m = TiSasRec::new(
            &p,
            TrainConfig { dim: 16, blocks: 1, epochs: 2, batch: 16, dropout: 0.0, ..Default::default() },
        );
        m.fit(&p);
        let cands = build_candidates(&p, 20);
        let metrics = evaluate(&m, &p, &cands);
        assert!(metrics.hr10 >= 0.0 && metrics.hr10 <= 1.0);
    }

    #[test]
    fn time_intervals_affect_encoding() {
        let p = processed();
        let m = TiSasRec::new(
            &p,
            TrainConfig { dim: 16, blocks: 1, epochs: 0, dropout: 0.0, ..Default::default() },
        );
        let mut batch = SeqBatch::from_eval(&p, &p.eval[0]);
        let rep = |m: &TiSasRec, batch: &SeqBatch| {
            let mut sess = Session::new(&m.store, false, 0);
            let f = m.encode(&mut sess, batch);
            let h = sess.g.slice_axis1(f, batch.n - 1);
            sess.g.value(h).data().to_vec()
        };
        let a = rep(&m, &batch);
        for (i, t) in batch.time.iter_mut().enumerate() {
            *t += (i * i) as f64 * 7_200.0; // warp the intervals nonlinearly
        }
        let b = rep(&m, &batch);
        let diff: f32 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1e-6, "interval embeddings had no effect");
    }
}
