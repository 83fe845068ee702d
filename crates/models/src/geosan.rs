//! GeoSAN: Geography-Aware Sequential Location Recommendation (Lian et al.,
//! KDD 2020).
//!
//! Three ingredients, all re-implemented here:
//!
//! 1. a **geography encoder** — quadkey n-gram self-attention over each GPS
//!    coordinate ([`stisan_geo::GeoEncoder`]), concatenated with the POI
//!    embedding;
//! 2. a causal self-attention encoder over the sequence;
//! 3. **importance-weighted negative sampling** — the weighted BCE of the
//!    paper's Eq 12 over KNN negatives — plus the target-aware attention
//!    decoder.

use rand::rngs::StdRng;
use rand::SeedableRng;
use stisan_data::{Batcher, EvalInstance, KnnNegativeSampler, Processed};
use stisan_eval::Recommender;
use stisan_geo::quadkey::tokens_for;
use stisan_geo::GeoEncoder;
use stisan_nn::{
    causal_mask, padding_row_mask, sinusoidal_encoding, vanilla_positions, weighted_bce_loss,
    Adam, Embedding, LayerNorm, ParamStore, Session,
};
use stisan_tensor::{Array, Var};

use crate::common::{
    interleave_candidates, taad_eval_mask, taad_train_mask, EncoderBlock, SeqBatch, TrainConfig,
};

/// Quadkey zoom level for the geography encoder.
const QK_LEVEL: u8 = 16;
/// Quadkey n-gram width.
const QK_N: usize = 5;

/// The GeoSAN model.
pub struct GeoSan {
    store: ParamStore,
    poi_emb: Embedding, // d/2
    geo_enc: GeoEncoder, // d/2
    blocks: Vec<EncoderBlock>,
    final_ln: LayerNorm,
    cfg: TrainConfig,
    /// Flattened quadkey tokens per POI id (`id * tokens_per_loc ..`).
    poi_tokens: Vec<usize>,
    tokens_per_loc: usize,
}

impl GeoSan {
    /// Builds an untrained model for `data`; `cfg.dim` must be even (half
    /// POI embedding, half geography encoding, as the paper concatenates).
    pub fn new(data: &Processed, cfg: TrainConfig) -> Self {
        assert!(cfg.dim.is_multiple_of(2), "GeoSAN needs an even dim (poi ⊕ geo halves)");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let half = cfg.dim / 2;
        let poi_emb = Embedding::new(&mut store, "poi", data.num_pois + 1, half, Some(0), &mut rng);
        let geo_enc = GeoEncoder::new(&mut store, "geo", QK_LEVEL, QK_N, half, &mut rng);
        let blocks = (0..cfg.blocks)
            .map(|i| EncoderBlock::new(&mut store, &format!("block{i}"), cfg.dim, cfg.dropout, &mut rng))
            .collect();
        let final_ln = LayerNorm::new(&mut store, "final_ln", cfg.dim);
        let tokens_per_loc = geo_enc.tokens_per_location();
        let mut poi_tokens = Vec::with_capacity((data.num_pois + 1) * tokens_per_loc);
        // Padding id 0 reuses POI 1's tokens; its output is masked anyway.
        poi_tokens.extend(tokens_for(data.loc(1), QK_LEVEL, QK_N));
        for poi in 1..=data.num_pois {
            poi_tokens.extend(tokens_for(data.loc(poi as u32), QK_LEVEL, QK_N));
        }
        GeoSan { store, poi_emb, geo_enc, blocks, final_ln, cfg, poi_tokens, tokens_per_loc }
    }

    /// Embeds POI ids as `poi_embedding ⊕ geography_encoding`, `[rows, d]`.
    /// Padding ids come out zero (both halves masked).
    ///
    /// Ids are de-duplicated before the geography encoder runs, then the
    /// unique encodings are gathered back into position — identical outputs
    /// and gradients, far fewer encoder invocations.
    pub fn embed(&self, sess: &mut Session<'_>, ids: &[usize]) -> Var {
        let mut unique: Vec<usize> = ids.to_vec();
        unique.sort_unstable();
        unique.dedup();
        let mut slot = vec![usize::MAX; unique.last().map(|&m| m + 1).unwrap_or(0)];
        for (i, &u) in unique.iter().enumerate() {
            slot[u] = i;
        }
        let p = self.poi_emb.forward(sess, &unique, &[unique.len()]);
        let mut tokens = Vec::with_capacity(unique.len() * self.tokens_per_loc);
        for &id in &unique {
            let base = id * self.tokens_per_loc;
            tokens.extend_from_slice(&self.poi_tokens[base..base + self.tokens_per_loc]);
        }
        let g = self.geo_enc.forward(sess, &tokens, unique.len());
        // Zero the geo half at padding ids so padded check-ins stay zero.
        let mask: Vec<f32> = unique.iter().map(|&i| if i == 0 { 0.0 } else { 1.0 }).collect();
        let g = sess.g.mul_const(g, Array::from_vec(vec![unique.len(), 1], mask));
        let table = sess.g.concat_last(&[p, g]); // [U, d]
        let positions: Vec<usize> = ids.iter().map(|&id| slot[id]).collect();
        sess.g.gather(table, &positions, &[ids.len()])
    }

    /// Encodes a batch into `[b, n, d]` per-step representations.
    pub fn encode(&self, sess: &mut Session<'_>, batch: &SeqBatch) -> Var {
        let (b, n, d) = (batch.b, batch.n, self.cfg.dim);
        let e = self.embed(sess, &batch.src);
        let e = sess.g.reshape(e, &[b, n, d]);
        let mut pos_data = Vec::with_capacity(b * n * d);
        for row in 0..b {
            let vf = batch.valid_from[row];
            let mut pos = vec![0.0f32; n];
            pos[vf..].copy_from_slice(&vanilla_positions(n - vf));
            pos_data.extend_from_slice(sinusoidal_encoding(&pos, d).data());
        }
        let e = sess.g.add_const(e, Array::from_vec(vec![b, n, d], pos_data));
        let mut x = sess.dropout(e, self.cfg.dropout);
        let bias = causal_mask(b, n).add(&padding_row_mask(&batch.src_valid(), b, n));
        let bias = sess.constant(bias);
        for blk in &self.blocks {
            let (nx, _) = blk.forward(sess, x, Some(bias));
            x = nx;
        }
        self.final_ln.forward(sess, x)
    }

    /// Trains with the weighted BCE (Eq 12) over KNN negatives and the
    /// target-aware attention decoder.
    pub fn fit(&mut self, data: &Processed) {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0xcdcd);
        let sampler = KnnNegativeSampler::build(data, self.cfg.neg_pool);
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
                let (b, n) = (batch.b, batch.n);
                let negs = batch.sample_negatives(l, |t, l| sampler.sample(t, l, &mut rng));
                let cand_ids = interleave_candidates(&batch.tgt, &negs, l);
                let mut sess = Session::new(&self.store, true, self.cfg.seed ^ (epoch as u64) << 19);
                let f = self.encode(&mut sess, &batch);
                let c = self.embed(&mut sess, &cand_ids);
                let c = sess.g.reshape(c, &[b, n * (l + 1), self.cfg.dim]);
                let mask = taad_train_mask(b, n, l + 1, &batch.valid_from);
                let y = sess.g.taad_scores(f, c, mask); // [b, n*(1+l)]
                let y = sess.g.reshape(y, &[b, n, l + 1]);
                let pos = sess.g.slice_last(y, 0, 1);
                let pos = sess.g.reshape(pos, &[b, n]);
                let neg = sess.g.slice_last(y, 1, l);
                let loss =
                    weighted_bce_loss(&mut sess, pos, neg, self.cfg.temperature, &batch.step_mask);
                total += sess.g.value(loss).item() as f64;
                steps += 1;
                let grads = sess.backward_and_grads(loss);
                opt.step(&mut self.store, &grads, Some(self.cfg.grad_clip));
            }
            stisan_obs::vlog!(
                self.cfg.verbose,
                "  [GeoSAN] epoch {epoch}: loss {:.4}",
                total / steps.max(1) as f64
            );
        }
    }
}

impl Recommender for GeoSan {
    fn name(&self) -> String {
        "GeoSAN".into()
    }

    fn score(&self, data: &Processed, inst: &EvalInstance, candidates: &[u32]) -> Vec<f32> {
        let batch = SeqBatch::from_eval(data, inst);
        let mut sess = Session::new(&self.store, false, 0);
        let f = self.encode(&mut sess, &batch);
        let ids: Vec<usize> = candidates.iter().map(|&c| c as usize).collect();
        let c = self.embed(&mut sess, &ids);
        let c = sess.g.reshape(c, &[1, ids.len(), self.cfg.dim]);
        let mask = taad_eval_mask(batch.n, batch.valid_from[0]);
        let y = sess.g.taad_scores(f, c, mask);
        sess.g.value(y).data().to_vec()
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
        let d = generate(&cfg, 159);
        preprocess(&d, &PrepConfig { max_len: 10, min_user_checkins: 15, min_poi_interactions: 2 })
    }

    #[test]
    fn embedding_concats_poi_and_geo_halves() {
        let p = processed();
        let m = GeoSan::new(&p, TrainConfig { dim: 16, blocks: 1, epochs: 0, ..Default::default() });
        let mut sess = Session::new(&m.store, false, 0);
        let e = m.embed(&mut sess, &[0, 1, 2]);
        let v = sess.g.value(e);
        assert_eq!(v.shape(), &[3, 16]);
        // Padding row must be fully zero.
        assert!(v.data()[..16].iter().all(|&x| x == 0.0));
        // Real rows are not.
        assert!(v.data()[16..32].iter().any(|&x| x != 0.0));
    }

    #[test]
    fn nearby_pois_share_geo_half() {
        let p = processed();
        let m = GeoSan::new(&p, TrainConfig { dim: 16, blocks: 1, epochs: 0, ..Default::default() });
        // Find the closest pair and a far pair; compare geo halves.
        let (mut best, mut bestd) = ((1u32, 2u32), f64::INFINITY);
        let (mut worst, mut worstd) = ((1u32, 2u32), 0.0f64);
        for a in 1..=(p.num_pois.min(40)) as u32 {
            for b in (a + 1)..=(p.num_pois.min(40)) as u32 {
                let d = p.loc(a).distance_km(&p.loc(b));
                if d < bestd {
                    bestd = d;
                    best = (a, b);
                }
                if d > worstd {
                    worstd = d;
                    worst = (a, b);
                }
            }
        }
        let mut sess = Session::new(&m.store, false, 0);
        let e = m.embed(&mut sess, &[best.0 as usize, best.1 as usize, worst.0 as usize, worst.1 as usize]);
        let v = sess.g.value(e);
        let geo = |row: usize| &v.data()[row * 16 + 8..row * 16 + 16];
        let dist = |a: &[f32], b: &[f32]| a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum::<f32>();
        assert!(dist(geo(0), geo(1)) <= dist(geo(2), geo(3)) + 1e-6);
    }

    #[test]
    fn trains_and_evaluates() {
        let p = processed();
        let mut m = GeoSan::new(
            &p,
            TrainConfig {
                dim: 16,
                blocks: 1,
                epochs: 2,
                batch: 16,
                dropout: 0.0,
                negatives: 5,
                neg_pool: 50,
                temperature: 1.0,
                ..Default::default()
            },
        );
        m.fit(&p);
        let cands = build_candidates(&p, 20);
        let metrics = evaluate(&m, &p, &cands);
        assert!(metrics.hr10 >= 0.0 && metrics.hr10 <= 1.0);
    }
}
