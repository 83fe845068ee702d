//! Shared training machinery for the neural sequence models.
//!
//! Every transformer/RNN model in this workspace trains on the same protocol
//! (paper Section III-A): a padded window of `n + 1` check-ins provides `n`
//! source steps, each predicting the next check-in, with padding steps masked
//! out of the loss. This module turns [`stisan_data::Seq`] batches into the
//! flat index/mask/interval buffers the models consume.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stisan_data::{EvalInstance, Processed, Seq};
use stisan_nn::ParamId;
use stisan_tensor::Array;

/// Derives the RNG for one training epoch from `(seed, epoch)` via a
/// splitmix64 finalizer, so every epoch's shuffle/negative-sampling stream is
/// a pure function of the seed and the epoch index.
///
/// This is what makes checkpoint resume bit-exact: a run resumed at epoch
/// `e` regenerates exactly the stream an uninterrupted run would have used,
/// with no RNG state to carry across the crash (the checkpoint only stores
/// the seed and the epoch counter).
pub fn epoch_rng(seed: u64, epoch: usize) -> StdRng {
    let mut z = seed ^ (epoch as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// Outcome of one optimizer step under the non-finite guard.
#[derive(Clone, Copy, Debug)]
pub struct StepOutcome {
    /// The step's loss (possibly non-finite).
    pub loss: f32,
    /// Global L2 norm of the gradients (possibly non-finite).
    pub grad_norm: f32,
    /// True when the guard dropped the optimizer step.
    pub skipped: bool,
}

/// The shared non-finite guard: a NaN/inf loss or gradient would corrupt
/// every parameter through Adam's moments, so such steps must be dropped
/// instead of applied. Counts dropped steps in `train.nonfinite_steps` and
/// warns when `warn` is set (callers pass "first occurrence this epoch" to
/// avoid log spam).
pub fn check_finite_step(
    model: &str,
    epoch: usize,
    loss: f32,
    grads: &[(ParamId, Array)],
    warn: bool,
) -> StepOutcome {
    let grad_norm = grads.iter().map(|(_, g)| g.sq_norm()).sum::<f32>().sqrt();
    let skipped = !loss.is_finite() || !grad_norm.is_finite();
    if skipped {
        stisan_obs::counter("train.nonfinite_steps", 1);
        if warn {
            stisan_obs::warn!(
                "[{model}] epoch {epoch}: non-finite loss or gradient (loss {loss}, grad norm {grad_norm}), skipping optimizer step"
            );
        }
    }
    StepOutcome { loss, grad_norm, skipped }
}

/// Hyper-parameters shared by the neural models.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Latent dimension `d` (the paper uses 256 = 128 POI + 128 GPS).
    pub dim: usize,
    /// Number of stacked attention blocks `N` (the paper uses 4).
    pub blocks: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size (sequences per step).
    pub batch: usize,
    /// Adam learning rate (paper: 1e-3).
    pub lr: f32,
    /// Dropout rate (paper: 0.7 at d=256; scale down with `dim`).
    pub dropout: f32,
    /// Negatives per step `L` (paper: 15 for the weighted loss, 1 for BCE).
    pub negatives: usize,
    /// KNN negative pool size (paper: 2000).
    pub neg_pool: usize,
    /// Weighted-BCE temperature `T` (paper: 1–500 depending on dataset).
    pub temperature: f32,
    /// Gradient clipping threshold (global L2 norm).
    pub grad_clip: f32,
    /// RNG seed for init, shuffling, sampling and dropout.
    pub seed: u64,
    /// Print per-epoch progress.
    pub verbose: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            dim: 32,
            blocks: 2,
            epochs: 5,
            batch: 32,
            lr: 1e-3,
            dropout: 0.2,
            negatives: 1,
            neg_pool: 2000,
            temperature: 1.0,
            grad_clip: 5.0,
            seed: 42,
            verbose: false,
        }
    }
}

/// A flattened mini-batch of padded training windows.
pub struct SeqBatch {
    /// Sequences in the batch.
    pub b: usize,
    /// Window length `n` (source steps).
    pub n: usize,
    /// `b*n` source POI ids (0 = padding), row-major.
    pub src: Vec<usize>,
    /// `b*n` target POI ids (0 = padding).
    pub tgt: Vec<usize>,
    /// `b*n` source timestamps (seconds; padding repeats the first valid).
    pub time: Vec<f64>,
    /// Per-sequence first valid source position.
    pub valid_from: Vec<usize>,
    /// Per-sequence user ids.
    pub users: Vec<u32>,
    /// `[b, n]` loss mask: 1 where the target is a real check-in.
    pub step_mask: Array,
}

impl Default for SeqBatch {
    /// An empty batch whose buffers grow on first [`SeqBatch::fill_eval`] and
    /// are reused thereafter (the serving path keeps one in arena scratch).
    fn default() -> Self {
        SeqBatch {
            b: 0,
            n: 0,
            src: Vec::new(),
            tgt: Vec::new(),
            time: Vec::new(),
            valid_from: Vec::new(),
            users: Vec::new(),
            step_mask: Array::zeros(vec![1, 1]),
        }
    }
}

impl SeqBatch {
    /// Builds a batch from training windows (`seq.poi` has length `n+1`).
    pub fn from_train(data: &Processed, idxs: &[usize]) -> SeqBatch {
        let _span = stisan_obs::span("batch_build");
        let n = data.max_len;
        let b = idxs.len();
        let mut src = Vec::with_capacity(b * n);
        let mut tgt = Vec::with_capacity(b * n);
        let mut time = Vec::with_capacity(b * n);
        let mut valid_from = Vec::with_capacity(b);
        let mut users = Vec::with_capacity(b);
        let mut mask = vec![0.0f32; b * n];
        for (row, &i) in idxs.iter().enumerate() {
            let s: &Seq = &data.train[i];
            debug_assert_eq!(s.poi.len(), n + 1);
            for k in 0..n {
                src.push(s.poi[k] as usize);
                tgt.push(s.poi[k + 1] as usize);
                time.push(s.time[k]);
                if s.poi[k + 1] != 0 {
                    mask[row * n + k] = 1.0;
                }
            }
            valid_from.push(s.valid_from.min(n));
            users.push(s.user);
        }
        SeqBatch {
            b,
            n,
            src,
            tgt,
            time,
            valid_from,
            users,
            step_mask: Array::from_vec(vec![b, n], mask),
        }
    }

    /// Builds a single-sequence "batch" from an evaluation instance
    /// (`inst.poi` has length `n`; there are no targets).
    pub fn from_eval(data: &Processed, inst: &EvalInstance) -> SeqBatch {
        let mut batch = SeqBatch::default();
        batch.fill_eval(data, inst);
        batch
    }

    /// Refills `self` as a single-sequence eval "batch", reusing the existing
    /// buffers (the hot serving path keeps one `SeqBatch` in scratch so
    /// request prep allocates nothing at steady state). Field-for-field
    /// identical to [`SeqBatch::from_eval`].
    pub fn fill_eval(&mut self, data: &Processed, inst: &EvalInstance) {
        let n = data.max_len;
        self.b = 1;
        self.n = n;
        self.src.clear();
        self.src.extend(inst.poi.iter().map(|&p| p as usize));
        self.tgt.clear();
        self.tgt.resize(n, 0);
        self.time.clear();
        self.time.extend_from_slice(&inst.time);
        self.valid_from.clear();
        self.valid_from.push(inst.valid_from.min(n));
        self.users.clear();
        self.users.push(inst.user);
        // Eval batches never read `step_mask` (no loss); it stays an all-zero
        // `[1, n]` mask, reallocated only when the window length changes.
        if self.step_mask.shape() != [1, n] {
            self.step_mask = Array::zeros(vec![1, n]);
        }
    }

    /// Per-position validity flags (`b*n`), true where `src != 0` — feeds
    /// [`stisan_nn::padding_row_mask`].
    pub fn src_valid(&self) -> Vec<bool> {
        self.src.iter().map(|&p| p != 0).collect()
    }

    /// Samples `l` negatives per step with `sample(target, l)`; padding steps
    /// get the dummy id 1 (masked out of the loss anyway). Returns a flat
    /// `b*n*l` buffer.
    pub fn sample_negatives(
        &self,
        l: usize,
        mut sample: impl FnMut(u32, usize) -> Vec<u32>,
    ) -> Vec<usize> {
        let _span = stisan_obs::span("negative_sampling");
        let mut out = Vec::with_capacity(self.b * self.n * l);
        for &t in &self.tgt {
            if t == 0 {
                out.extend(std::iter::repeat_n(1usize, l));
            } else {
                let negs = sample(t as u32, l);
                debug_assert_eq!(negs.len(), l);
                out.extend(negs.into_iter().map(|x| x as usize));
            }
        }
        out
    }

    /// Consecutive time intervals per step, in `unit` seconds
    /// (`dt[i] = t[i] - t[i-1]`, 0 at each sequence start) — STGN input.
    pub fn consecutive_dt(&self, unit: f64) -> Vec<f32> {
        let mut out = vec![0.0f32; self.b * self.n];
        for row in 0..self.b {
            for k in 1..self.n {
                let i = row * self.n + k;
                out[i] = ((self.time[i] - self.time[i - 1]) / unit) as f32;
            }
        }
        out
    }

    /// Consecutive geographic intervals per step in km (0 at starts and on
    /// padding) — STGN input.
    pub fn consecutive_dd(&self, data: &Processed) -> Vec<f32> {
        let mut out = vec![0.0f32; self.b * self.n];
        for row in 0..self.b {
            for k in 1..self.n {
                let i = row * self.n + k;
                let (a, b) = (self.src[i - 1], self.src[i]);
                if a != 0 && b != 0 {
                    out[i] = data.loc(a as u32).distance_km(&data.loc(b as u32)) as f32;
                }
            }
        }
        out
    }
}

/// One pre-LN self-attention encoder block (paper Eq 8): an attention layer
/// and a two-layer feed-forward network, each wrapped in
/// `x + Layer(LayerNorm(x))` residuals.
///
/// The additive `bias` input is what differentiates the variants: a causal
/// mask gives vanilla SASRec, the row-softmaxed relation matrix gives IAAB,
/// learned interval logits give TiSASRec/STAN.
pub struct EncoderBlock {
    ln1: stisan_nn::LayerNorm,
    wq: stisan_nn::Linear,
    wk: stisan_nn::Linear,
    wv: stisan_nn::Linear,
    ln2: stisan_nn::LayerNorm,
    ff: stisan_nn::FeedForward,
    dropout: f32,
}

impl EncoderBlock {
    /// Builds a block of width `dim` with hidden FFN width `2*dim`
    /// (satisfying the paper's `d_h > d`).
    pub fn new<R: Rng>(
        store: &mut stisan_nn::ParamStore,
        name: &str,
        dim: usize,
        dropout: f32,
        rng: &mut R,
    ) -> Self {
        EncoderBlock {
            ln1: stisan_nn::LayerNorm::new(store, &format!("{name}.ln1"), dim),
            wq: stisan_nn::Linear::new(store, &format!("{name}.wq"), dim, dim, false, rng),
            wk: stisan_nn::Linear::new(store, &format!("{name}.wk"), dim, dim, false, rng),
            wv: stisan_nn::Linear::new(store, &format!("{name}.wv"), dim, dim, false, rng),
            ln2: stisan_nn::LayerNorm::new(store, &format!("{name}.ln2"), dim),
            ff: stisan_nn::FeedForward::new(store, &format!("{name}.ff"), dim, 2 * dim, dropout, rng),
            dropout,
        }
    }

    /// Applies the block to `x: [b, n, d]` with additive attention-logit
    /// `bias`. Returns the new representation and the attention weights
    /// (for the paper's heat-map figures).
    pub fn forward<T: stisan_tensor::Tape>(
        &self,
        sess: &mut stisan_nn::Session<'_, T>,
        x: stisan_tensor::Var,
        bias: Option<stisan_tensor::Var>,
    ) -> (stisan_tensor::Var, stisan_tensor::Var) {
        let h = self.ln1.forward(sess, x);
        let q = self.wq.forward(sess, h);
        let k = self.wk.forward(sess, h);
        let v = self.wv.forward(sess, h);
        let att = stisan_nn::attention(sess, q, k, v, bias);
        let att_out = sess.dropout(att.out, self.dropout);
        let x = sess.g.add(x, att_out);
        let h2 = self.ln2.forward(sess, x);
        let f = self.ff.forward(sess, h2);
        let f = sess.dropout(f, self.dropout);
        (sess.g.add(x, f), att.weights)
    }
}

/// Scores per-step candidates by inner product: `reps: [b, n, d]` against the
/// gathered candidate embeddings `cands: [b*n, 1+l, d]`, returning
/// `[b, n, 1+l]` logits.
pub fn dot_scores<T: stisan_tensor::Tape>(
    sess: &mut stisan_nn::Session<'_, T>,
    reps: stisan_tensor::Var,
    cands: stisan_tensor::Var,
    b: usize,
    n: usize,
    l1: usize,
) -> stisan_tensor::Var {
    let d = *sess.g.value(reps).shape().last().expect("dot_scores: scalar reps");
    let f = sess.g.reshape(reps, &[b * n, 1, d]);
    let ct = sess.g.transpose_last2(cands);
    let y = sess.g.bmm(f, ct); // [b*n, 1, 1+l]
    sess.g.reshape(y, &[b, n, l1])
}

/// TAAD mask for training: candidate row `(step i, slot l)` may attend
/// positions `valid_from ..= i`. Shape `[b, n*(1+l), n]`.
pub fn taad_train_mask(b: usize, n: usize, l1: usize, valid_from: &[usize]) -> Array {
    let mut m = vec![-1e9f32; b * n * l1 * n];
    #[allow(clippy::needless_range_loop)] // numeric batch-row indexing
    for row in 0..b {
        let vf = valid_from[row];
        for i in 0..n {
            for slot in 0..l1 {
                let base = ((row * n + i) * l1 + slot) * n;
                for j in vf..=i.max(vf) {
                    if j <= i {
                        m[base + j] = 0.0;
                    }
                }
            }
        }
    }
    Array::from_vec(vec![b, n * l1, n], m)
}

/// TAAD mask for evaluation: every candidate may attend all real positions,
/// so one row serves them all. Shape `[1, 1, n]`, which `taad_scores`
/// applies to every candidate row.
pub fn taad_eval_mask(n: usize, valid_from: usize) -> Array {
    let mut out = vec![0.0f32; n];
    taad_eval_mask_into(valid_from, &mut out);
    Array::from_vec(vec![1, 1, n], out)
}

/// [`taad_eval_mask`] into a caller-provided `n`-float row (set semantics:
/// every element is written, so recycled scratch memory is safe).
pub fn taad_eval_mask_into(valid_from: usize, out: &mut [f32]) {
    let open = valid_from.min(out.len());
    out[..open].fill(-1e9);
    out[open..].fill(0.0);
}

/// Draws `l` uniform negatives over `1..=num_pois`, excluding `target`.
pub fn uniform_negatives(num_pois: usize, target: u32, l: usize, rng: &mut StdRng) -> Vec<u32> {
    (0..l)
        .map(|_| loop {
            let c = rng.gen_range(1..=num_pois) as u32;
            if c != target {
                break c;
            }
        })
        .collect()
}

/// Builds the per-step candidate id list `[tgt, neg_1..neg_l]` (padding steps
/// get the dummy id 1; they are masked out of the loss).
pub fn interleave_candidates(tgt: &[usize], negs: &[usize], l: usize) -> Vec<usize> {
    let steps = tgt.len();
    debug_assert_eq!(negs.len(), steps * l);
    let mut out = Vec::with_capacity(steps * (l + 1));
    for (i, &t) in tgt.iter().enumerate() {
        out.push(if t == 0 { 1 } else { t });
        out.extend_from_slice(&negs[i * l..(i + 1) * l]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use stisan_data::{generate, preprocess, DatasetPreset, GenConfig, PrepConfig};

    pub(crate) fn processed() -> Processed {
        let cfg =
            GenConfig { users: 30, pois: 200, mean_seq_len: 40.0, ..DatasetPreset::Gowalla.config(0.01) };
        let d = generate(&cfg, 33);
        preprocess(&d, &PrepConfig { max_len: 16, min_user_checkins: 15, min_poi_interactions: 2 })
    }

    #[test]
    fn train_batch_shapes_and_mask() {
        let p = processed();
        let batch = SeqBatch::from_train(&p, &[0, 1.min(p.train.len() - 1)]);
        assert_eq!(batch.src.len(), batch.b * batch.n);
        assert_eq!(batch.tgt.len(), batch.b * batch.n);
        for (i, &t) in batch.tgt.iter().enumerate() {
            let m = batch.step_mask.data()[i];
            assert_eq!(m, if t == 0 { 0.0 } else { 1.0 });
        }
    }

    #[test]
    fn source_and_target_are_shifted_views() {
        let p = processed();
        let batch = SeqBatch::from_train(&p, &[0]);
        let s = &p.train[0];
        for k in 0..batch.n {
            assert_eq!(batch.src[k], s.poi[k] as usize);
            assert_eq!(batch.tgt[k], s.poi[k + 1] as usize);
        }
    }

    #[test]
    fn eval_batch_has_no_targets() {
        let p = processed();
        let batch = SeqBatch::from_eval(&p, &p.eval[0]);
        assert_eq!(batch.b, 1);
        assert!(batch.tgt.iter().all(|&t| t == 0));
        assert_eq!(batch.step_mask.sum_all(), 0.0);
    }

    #[test]
    fn negatives_fill_every_step() {
        let p = processed();
        let batch = SeqBatch::from_train(&p, &[0]);
        let mut rng = StdRng::seed_from_u64(0);
        let negs = batch.sample_negatives(3, |t, l| uniform_negatives(p.num_pois, t, l, &mut rng));
        assert_eq!(negs.len(), batch.n * 3);
        for (i, chunk) in negs.chunks(3).enumerate() {
            if batch.tgt[i] != 0 {
                assert!(chunk.iter().all(|&x| x != batch.tgt[i] && x >= 1));
            }
        }
    }

    #[test]
    fn consecutive_intervals_zero_at_start_and_padding() {
        let p = processed();
        let batch = SeqBatch::from_train(&p, &[0]);
        let dt = batch.consecutive_dt(3600.0);
        let dd = batch.consecutive_dd(&p);
        assert_eq!(dt[0], 0.0);
        assert_eq!(dd[0], 0.0);
        assert!(dt.iter().all(|&x| x >= 0.0));
        assert!(dd.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn interleave_puts_target_first() {
        let tgt = vec![5usize, 0, 7];
        let negs = vec![1usize, 2, 3, 4, 8, 9];
        let cands = interleave_candidates(&tgt, &negs, 2);
        assert_eq!(cands, vec![5, 1, 2, 1, 3, 4, 7, 8, 9]);
    }

    #[test]
    fn taad_train_mask_is_step_causal() {
        // 1 sequence, n=3, 2 candidate slots per step, valid_from=1.
        let m = taad_train_mask(1, 3, 2, &[1]);
        assert_eq!(m.shape(), &[1, 6, 3]);
        // Step 0 rows (before valid_from) are fully masked.
        for slot in 0..2 {
            for j in 0..3 {
                assert!(m.at(&[0, slot, j]) < -1e8);
            }
        }
        // Step 1 rows may attend only position 1.
        for slot in 0..2 {
            assert_eq!(m.at(&[0, 2 + slot, 1]), 0.0);
            assert!(m.at(&[0, 2 + slot, 0]) < -1e8);
            assert!(m.at(&[0, 2 + slot, 2]) < -1e8);
        }
        // Step 2 rows may attend positions 1 and 2.
        for slot in 0..2 {
            assert_eq!(m.at(&[0, 4 + slot, 1]), 0.0);
            assert_eq!(m.at(&[0, 4 + slot, 2]), 0.0);
            assert!(m.at(&[0, 4 + slot, 0]) < -1e8);
        }
    }

    #[test]
    fn taad_eval_mask_opens_real_positions() {
        let m = taad_eval_mask(4, 1);
        assert_eq!(m.shape(), &[1, 1, 4]);
        assert!(m.at(&[0, 0, 0]) < -1e8);
        for j in 1..4 {
            assert_eq!(m.at(&[0, 0, j]), 0.0);
        }
    }

    #[test]
    fn epoch_rng_is_deterministic_and_epoch_dependent() {
        use rand::RngCore;
        let (mut ra, mut rb) = (epoch_rng(42, 3), epoch_rng(42, 3));
        let a: Vec<u32> = (0..8).map(|_| ra.next_u32()).collect();
        let b: Vec<u32> = (0..8).map(|_| rb.next_u32()).collect();
        assert_eq!(a, b, "same (seed, epoch) must give the same stream");
        let mut r0 = epoch_rng(42, 0);
        let mut r1 = epoch_rng(42, 1);
        let s0: Vec<u32> = (0..8).map(|_| r0.next_u32()).collect();
        let s1: Vec<u32> = (0..8).map(|_| r1.next_u32()).collect();
        assert_ne!(s0, s1, "different epochs must decorrelate");
    }

    #[test]
    fn nonfinite_guard_skips_bad_steps() {
        use stisan_nn::ParamStore;
        let mut store = ParamStore::new();
        let id = store.register("w", Array::scalar(0.0));
        let ok = check_finite_step("T", 0, 0.5, &[(id, Array::scalar(1.0))], false);
        assert!(!ok.skipped);
        assert!((ok.grad_norm - 1.0).abs() < 1e-6);
        let bad_loss = check_finite_step("T", 0, f32::NAN, &[(id, Array::scalar(1.0))], false);
        assert!(bad_loss.skipped);
        let bad_grad =
            check_finite_step("T", 0, 0.5, &[(id, Array::scalar(f32::INFINITY))], false);
        assert!(bad_grad.skipped);
    }

    #[test]
    fn taad_scores_match_hand_computation() {
        use stisan_nn::{ParamStore, Session};
        // One position, one candidate: attention collapses to that position,
        // so the score is exactly c · f.
        let store = ParamStore::new();
        let mut sess = Session::new(&store, false, 0);
        let f = sess.constant(Array::from_vec(vec![1, 1, 2], vec![2.0, 3.0]));
        let c = sess.constant(Array::from_vec(vec![1, 1, 2], vec![0.5, 1.0]));
        let mask = Array::zeros(vec![1, 1, 1]);
        let y = sess.g.taad_scores(f, c, mask);
        assert!((sess.g.value(y).item() - (2.0 * 0.5 + 3.0 * 1.0)).abs() < 1e-5);
    }
}
