//! SASRec: Self-Attentive Sequential Recommendation (Kang & McAuley, ICDM
//! 2018) — the self-attention backbone every later model builds on.
//!
//! This implementation also hosts the paper's extensibility experiments:
//!
//! * **Fig 4** swaps the vanilla positional encoding for TAPE
//!   ([`PositionMode::Tape`]);
//! * **Fig 6** swaps the vanilla self-attention for IAAB
//!   ([`AttentionMode::Iaab`]).

use rand::rngs::StdRng;
use rand::SeedableRng;
use stisan_data::{iaab_bias, relation_matrix, Batcher, EvalInstance, Processed, RelationConfig};
use stisan_eval::{FrozenScorer, Recommender};
use stisan_nn::{
    bce_loss, causal_mask, padding_row_mask, sinusoidal_encoding, tape_positions,
    vanilla_positions, Adam, Embedding, LayerNorm, ParamStore, Session,
};
use stisan_tensor::{Array, Tape, Var};

use crate::common::{
    check_finite_step, dot_scores, interleave_candidates, uniform_negatives, EncoderBlock,
    SeqBatch, StepOutcome, TrainConfig,
};

/// How sequence positions are encoded (Fig 4's comparison).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PositionMode {
    /// Vanilla integer positions with sinusoidal encoding.
    Vanilla,
    /// The paper's Time Aware Position Encoder positions (Eq 2).
    Tape,
}

/// Which attention flavour the blocks use (Fig 6's comparison).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttentionMode {
    /// Plain causal self-attention.
    Plain,
    /// Interval-aware attention: causal mask + `Softmax(R)` relation bias.
    Iaab,
}

/// The SASRec model (and its TAPE/IAAB-augmented variants).
pub struct SasRec {
    store: ParamStore,
    emb: Embedding,
    blocks: Vec<EncoderBlock>,
    final_ln: LayerNorm,
    cfg: TrainConfig,
    /// Positional encoding flavour.
    pub pos_mode: PositionMode,
    /// Attention flavour.
    pub att_mode: AttentionMode,
    /// Relation-matrix thresholds (used in [`AttentionMode::Iaab`]).
    pub relation: RelationConfig,
}

impl SasRec {
    /// Builds an untrained model for `data` with the given modes.
    pub fn new(data: &Processed, cfg: TrainConfig, pos_mode: PositionMode, att_mode: AttentionMode) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, "poi", data.num_pois + 1, cfg.dim, Some(0), &mut rng);
        let blocks = (0..cfg.blocks)
            .map(|i| EncoderBlock::new(&mut store, &format!("block{i}"), cfg.dim, cfg.dropout, &mut rng))
            .collect();
        let final_ln = LayerNorm::new(&mut store, "final_ln", cfg.dim);
        SasRec {
            store,
            emb,
            blocks,
            final_ln,
            cfg,
            pos_mode,
            att_mode,
            relation: RelationConfig::default(),
        }
    }

    /// Positional-encoding matrix `[b, n, d]` for a batch (constant; padding
    /// rows are zero).
    fn position_matrix(&self, batch: &SeqBatch) -> Array {
        let (b, n, d) = (batch.b, batch.n, self.cfg.dim);
        let mut data = Vec::with_capacity(b * n * d);
        for row in 0..b {
            let vf = batch.valid_from[row];
            let pos: Vec<f32> = match self.pos_mode {
                PositionMode::Vanilla => {
                    let mut p = vec![0.0f32; n];
                    let base = vanilla_positions(n - vf);
                    p[vf..].copy_from_slice(&base);
                    p
                }
                PositionMode::Tape => tape_positions(&batch.time[row * n..(row + 1) * n], vf),
            };
            data.extend_from_slice(sinusoidal_encoding(&pos, d).data());
        }
        Array::from_vec(vec![b, n, d], data)
    }

    /// The additive attention bias `[b, n, n]` for a batch: causal+padding
    /// mask, plus the IAAB relation bias in [`AttentionMode::Iaab`].
    fn attention_bias(&self, data: &Processed, batch: &SeqBatch) -> Array {
        let (b, n) = (batch.b, batch.n);
        match self.att_mode {
            AttentionMode::Plain => {
                let causal = causal_mask(b, n);
                let pad = padding_row_mask(&batch.src_valid(), b, n);
                causal.add(&pad)
            }
            AttentionMode::Iaab => {
                // iaab_bias already encodes causal + padding masking.
                let mut out = Vec::with_capacity(b * n * n);
                for row in 0..b {
                    let times = &batch.time[row * n..(row + 1) * n];
                    let locs: Vec<_> = batch.src[row * n..(row + 1) * n]
                        .iter()
                        .map(|&p| if p == 0 { data.loc(1) } else { data.loc(p as u32) })
                        .collect();
                    let r = relation_matrix(times, &locs, batch.valid_from[row], &self.relation);
                    out.extend_from_slice(iaab_bias(&r, batch.valid_from[row]).data());
                }
                Array::from_vec(vec![b, n, n], out)
            }
        }
    }

    /// Encodes a batch into per-step representations `[b, n, d]`.
    /// Also returns the last block's attention weights for inspection.
    pub fn encode<T: Tape>(
        &self,
        sess: &mut Session<'_, T>,
        data: &Processed,
        batch: &SeqBatch,
    ) -> (Var, Var) {
        let (b, n) = (batch.b, batch.n);
        let e = self.emb.forward(sess, &batch.src, &[b, n]);
        let e = sess.g.add_const(e, self.position_matrix(batch));
        let mut x = sess.dropout(e, self.cfg.dropout);
        let bias = sess.constant(self.attention_bias(data, batch));
        let mut weights = bias; // placeholder, overwritten below
        for blk in &self.blocks {
            let (nx, w) = blk.forward(sess, x, Some(bias));
            x = nx;
            weights = w;
        }
        let f = self.final_ln.forward(sess, x);
        (f, weights)
    }

    /// Trains with the SASRec objective: per-step BCE with one uniform
    /// negative per target.
    pub fn fit(&mut self, data: &Processed) {
        let _train_span = stisan_obs::span("train");
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0x5a5a);
        let mut opt = Adam::new(self.cfg.lr);
        let mut batcher = Batcher::new(data.train.len(), self.cfg.batch);
        let l = self.cfg.negatives.max(1);
        for epoch in 0..self.cfg.epochs {
            let _epoch_span = stisan_obs::span("epoch");
            batcher.shuffle(&mut rng);
            let mut total = 0.0f64;
            let mut steps = 0usize;
            let mut nonfinite = 0u64;
            let idx_lists: Vec<Vec<usize>> = batcher.batches().map(|c| c.to_vec()).collect();
            for idxs in idx_lists {
                let batch = SeqBatch::from_train(data, &idxs);
                let negs = batch.sample_negatives(l, |t, l| uniform_negatives(data.num_pois, t, l, &mut rng));
                let step = self.train_step(data, &batch, &negs, l, &mut opt, epoch, nonfinite == 0);
                if step.skipped {
                    nonfinite += 1;
                } else {
                    total += step.loss as f64;
                    steps += 1;
                }
                stisan_obs::counter("train.steps", 1);
            }
            stisan_obs::vlog!(
                self.cfg.verbose,
                "  [{}] epoch {epoch}: loss {:.4}",
                self.name(),
                total / steps.max(1) as f64
            );
        }
    }

    #[allow(clippy::too_many_arguments)] // internal step plumbing
    fn train_step(
        &mut self,
        data: &Processed,
        batch: &SeqBatch,
        negs: &[usize],
        l: usize,
        opt: &mut Adam,
        epoch: usize,
        warn: bool,
    ) -> StepOutcome {
        let _step_span = stisan_obs::span("step");
        let mut sess = Session::new(&self.store, true, self.cfg.seed ^ (epoch as u64) << 17);
        let (f, _) = self.encode(&mut sess, data, batch);
        let cand_ids = interleave_candidates(&batch.tgt, negs, l);
        let c = self.emb.forward(&mut sess, &cand_ids, &[batch.b * batch.n, l + 1]);
        let y = dot_scores(&mut sess, f, c, batch.b, batch.n, l + 1);
        let pos = sess.g.slice_last(y, 0, 1);
        let pos = sess.g.reshape(pos, &[batch.b, batch.n]);
        let neg = sess.g.slice_last(y, 1, l);
        let loss = bce_loss(&mut sess, pos, neg, &batch.step_mask);
        let loss_val = sess.g.value(loss).item();
        let grads = sess.backward_and_grads(loss);
        let out = check_finite_step(&self.name(), epoch, loss_val, &grads, warn);
        if !out.skipped {
            opt.step(&mut self.store, &grads, Some(self.cfg.grad_clip));
        }
        out
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
        let (f, _) = self.encode(sess, data, &batch);
        let h_last = sess.g.slice_axis1(f, batch.n - 1); // [1, d]
        let ids: Vec<usize> = candidates.iter().map(|&c| c as usize).collect();
        let c = self.emb.forward(sess, &ids, &[1, ids.len()]); // [1, C, d]
        let h3 = sess.g.reshape(h_last, &[1, 1, self.cfg.dim]);
        let ct = sess.g.transpose_last2(c);
        let y = sess.g.bmm(h3, ct); // [1, 1, C]
        sess.g.value(y).data().to_vec()
    }

    /// The attention weights of the last block for one evaluation instance
    /// (`[n, n]`) — drives the Fig 5/7 heat-maps.
    pub fn attention_map(&self, data: &Processed, inst: &EvalInstance) -> Array {
        let batch = SeqBatch::from_eval(data, inst);
        let mut sess = Session::new(&self.store, false, 0);
        let (_, w) = self.encode(&mut sess, data, &batch);
        let n = batch.n;
        sess.g.value(w).reshape(vec![n, n])
    }
}

impl Recommender for SasRec {
    fn name(&self) -> String {
        match (self.pos_mode, self.att_mode) {
            (PositionMode::Vanilla, AttentionMode::Plain) => "SASRec".into(),
            (PositionMode::Tape, AttentionMode::Plain) => "SASRec+TAPE".into(),
            (PositionMode::Vanilla, AttentionMode::Iaab) => "SASRec+IAAB".into(),
            (PositionMode::Tape, AttentionMode::Iaab) => "SASRec+TAPE+IAAB".into(),
        }
    }

    fn score(&self, data: &Processed, inst: &EvalInstance, candidates: &[u32]) -> Vec<f32> {
        let mut sess = Session::new(&self.store, false, 0);
        self.score_in(&mut sess, data, inst, candidates)
    }
}

impl FrozenScorer for SasRec {
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
            GenConfig { users: 35, pois: 200, mean_seq_len: 35.0, ..DatasetPreset::Gowalla.config(0.01) };
        let d = generate(&cfg, 88);
        preprocess(&d, &PrepConfig { max_len: 12, min_user_checkins: 15, min_poi_interactions: 2 })
    }

    fn tiny_cfg() -> TrainConfig {
        TrainConfig { dim: 16, blocks: 1, epochs: 2, batch: 16, dropout: 0.1, ..Default::default() }
    }

    #[test]
    fn training_reduces_loss() {
        let p = processed();
        let mut m = SasRec::new(&p, tiny_cfg(), PositionMode::Vanilla, AttentionMode::Plain);
        // Measure loss on a fixed batch before and after training.
        let idxs: Vec<usize> = (0..p.train.len().min(8)).collect();
        let batch = SeqBatch::from_train(&p, &idxs);
        let mut rng = StdRng::seed_from_u64(1);
        let negs = batch.sample_negatives(1, |t, l| uniform_negatives(p.num_pois, t, l, &mut rng));
        let loss_of = |m: &SasRec| {
            let mut sess = Session::new(&m.store, false, 0);
            let (f, _) = m.encode(&mut sess, &p, &batch);
            let cand_ids = interleave_candidates(&batch.tgt, &negs, 1);
            let c = m.emb.forward(&mut sess, &cand_ids, &[batch.b * batch.n, 2]);
            let y = dot_scores(&mut sess, f, c, batch.b, batch.n, 2);
            let pos = sess.g.slice_last(y, 0, 1);
            let pos = sess.g.reshape(pos, &[batch.b, batch.n]);
            let neg = sess.g.slice_last(y, 1, 1);
            let l = bce_loss(&mut sess, pos, neg, &batch.step_mask);
            sess.g.value(l).item()
        };
        let before = loss_of(&m);
        m.fit(&p);
        let after = loss_of(&m);
        assert!(after < before, "loss did not improve: {before} -> {after}");
    }

    #[test]
    fn evaluation_produces_sane_metrics() {
        let p = processed();
        let mut m = SasRec::new(&p, tiny_cfg(), PositionMode::Vanilla, AttentionMode::Plain);
        m.fit(&p);
        let cands = build_candidates(&p, 30);
        let metrics = evaluate(&m, &p, &cands);
        assert!(metrics.hr10 >= 0.0 && metrics.hr10 <= 1.0);
        assert!(metrics.ndcg5 <= metrics.hr5 + 1e-9);
    }

    #[test]
    fn tape_and_iaab_modes_run() {
        let p = processed();
        for (pm, am) in [
            (PositionMode::Tape, AttentionMode::Plain),
            (PositionMode::Vanilla, AttentionMode::Iaab),
            (PositionMode::Tape, AttentionMode::Iaab),
        ] {
            let mut m = SasRec::new(&p, TrainConfig { epochs: 1, ..tiny_cfg() }, pm, am);
            m.fit(&p);
            let cands = build_candidates(&p, 10);
            let metrics = evaluate(&m, &p, &cands);
            assert!(metrics.hr10 <= 1.0);
        }
    }

    #[test]
    fn attention_map_is_causal() {
        let p = processed();
        let m = SasRec::new(&p, tiny_cfg(), PositionMode::Vanilla, AttentionMode::Plain);
        let map = m.attention_map(&p, &p.eval[0]);
        let n = p.max_len;
        assert_eq!(map.shape(), &[n, n]);
        for i in 0..n {
            for j in (i + 1)..n {
                assert!(map.at(&[i, j]) < 1e-5, "future position attended at ({i},{j})");
            }
        }
    }
}
