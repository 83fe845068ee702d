//! The STiSAN model and its Table IV ablation variants.

use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use stisan_data::{
    iaab_bias_into, relation_matrix_into, Batcher, EvalInstance, KnnNegativeSampler, Processed,
    RelationConfig,
};
use stisan_eval::{FrozenScorer, Recommender};
use stisan_geo::quadkey::tokens_for;
use stisan_geo::{GeoEncoder, GeoPoint};
use stisan_models::common::{
    check_finite_step, epoch_rng, interleave_candidates, taad_eval_mask_into, taad_train_mask,
    SeqBatch, StepOutcome, TrainConfig,
};
use stisan_nn::{
    sinusoidal_encoding_into, tape_positions_into, weighted_bce_loss, Adam, CheckpointError,
    CheckpointManager, Embedding, FeedForward, LayerNorm, Linear, ParamStore, Session, TrainState,
};
use stisan_tensor::{Arena, Array, Exec, Var};

/// Quadkey zoom level of the geography encoder (GeoSAN uses 17; we default
/// lower so the n-gram vocabulary stays proportionate at reduced scale).
const QK_LEVEL: u8 = 16;
/// Quadkey n-gram width.
const QK_N: usize = 5;

/// Which terms the interval-aware attention layer keeps (Table IV variants
/// III and IV).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoreAttention {
    /// `A = Softmax(QKᵀ/√d + Softmax(R)) V` — the full IAAB (Eq 6).
    Full,
    /// `A = Softmax(QKᵀ/√d) V` — variant III, *Remove IAAB* (Eq 15).
    NoRelation,
    /// `A = Softmax(R) V` — variant IV, *Remove SA* (Eq 16).
    RelationOnly,
}

/// STiSAN configuration: shared training hyper-parameters, relation-matrix
/// thresholds, and the ablation switches.
#[derive(Clone, Debug)]
pub struct StisanConfig {
    /// Shared neural training hyper-parameters.
    pub train: TrainConfig,
    /// `k_t` / `k_d` clipping thresholds for the relation matrix (Fig 9).
    pub relation: RelationConfig,
    /// Use the GPS geography encoder (off = variant I, *Remove GE*).
    pub use_geo_encoder: bool,
    /// Use TAPE positions (off = vanilla positions; variant II, *Remove TAPE*).
    pub use_tape: bool,
    /// Attention composition (variants III / IV).
    pub attention: CoreAttention,
    /// Use the target-aware attention decoder (off = variant V, Eq 17).
    pub use_taad: bool,
}

impl Default for StisanConfig {
    /// The paper's full model ("Original") with N=4-style stacking scaled to
    /// the workspace defaults and L=15 weighted-BCE negatives.
    fn default() -> Self {
        StisanConfig {
            train: TrainConfig { negatives: 15, ..TrainConfig::default() },
            relation: RelationConfig::default(),
            use_geo_encoder: true,
            use_tape: true,
            attention: CoreAttention::Full,
            use_taad: true,
        }
    }
}

impl StisanConfig {
    /// Variant I: *Remove GE* — POI embedding + TAPE only.
    pub fn remove_ge(mut self) -> Self {
        self.use_geo_encoder = false;
        self
    }

    /// Variant II: *Remove TAPE* — vanilla positional encoding.
    pub fn remove_tape(mut self) -> Self {
        self.use_tape = false;
        self
    }

    /// Variant III: *Remove IAAB* — drop the relation matrix (Eq 15).
    pub fn remove_iaab(mut self) -> Self {
        self.attention = CoreAttention::NoRelation;
        self
    }

    /// Variant IV: *Remove SA* — relation matrix only (Eq 16).
    pub fn remove_sa(mut self) -> Self {
        self.attention = CoreAttention::RelationOnly;
        self
    }

    /// Variant V: *Remove TAAD* — match encoder output directly (Eq 17).
    pub fn remove_taad(mut self) -> Self {
        self.use_taad = false;
        self
    }
}

/// Periodic checkpointing and resume policy for [`StiSan::fit_with_checkpoints`].
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Directory the [`CheckpointManager`] owns (created if missing).
    pub dir: PathBuf,
    /// Save every `every` completed epochs (0 = only at the end; the final
    /// epoch is always saved).
    pub every: usize,
    /// Retention bound: how many checkpoints survive on disk.
    pub keep: usize,
    /// Resume from the newest valid checkpoint in `dir` before training.
    pub resume: bool,
}

impl CheckpointConfig {
    /// Checkpoint into `dir` every epoch, keep the newest 3, resume if
    /// possible.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointConfig { dir: dir.into(), every: 1, keep: 3, resume: true }
    }
}

/// What [`StiSan::fit_with_checkpoints`] actually did.
#[derive(Debug)]
pub struct FitSummary {
    /// First epoch trained this run (> 0 after a resume).
    pub start_epoch: usize,
    /// Epochs trained this run (`cfg.train.epochs - start_epoch`).
    pub epochs_run: usize,
    /// The checkpoint file training resumed from, if any.
    pub resumed_from: Option<PathBuf>,
}

/// Reusable request-prep buffers: everything the embed/position/bias builders
/// used to allocate fresh per call. All fills have set semantics (cleared or
/// fully overwritten), so reuse is bit-transparent.
#[derive(Default)]
struct PrepBufs {
    /// Per-row TAPE (or vanilla) positions.
    pos: Vec<f32>,
    /// Deduplicated POI ids for the geography encoder.
    unique: Vec<usize>,
    /// `id -> index in unique` scatter table.
    slot: Vec<usize>,
    /// Quadkey n-gram tokens for the unique ids.
    tokens: Vec<usize>,
    /// Gather-back positions (`ids -> unique` index per input slot).
    gather_pos: Vec<usize>,
    /// Per-row locations feeding the relation matrix.
    locs: Vec<GeoPoint>,
    /// One `n * n` relation matrix, rebuilt per row.
    rel: Vec<f32>,
}

/// Everything the frozen scoring path needs per request besides the arena
/// pools: the eval [`SeqBatch`] and the [`PrepBufs`]. The serving engine
/// parks one of these in the arena's scratch slot so a warmed-up
/// `score_frozen_into` call performs zero request-prep allocations.
#[derive(Default)]
struct PrepScratch {
    batch: SeqBatch,
    ids: Vec<usize>,
    bufs: PrepBufs,
}

/// Where candidate representations come from in [`StiSan::score_var_in`].
enum CandSource<'a> {
    /// Embed candidates in-graph (tape path — gradients reach the tables).
    Embed,
    /// Gather rows from the frozen `[num_pois + 1, d]` candidate table.
    Table(&'a Array),
    /// Pre-gathered candidate rows `[m, d]` (dequantized retrieval tables).
    Rows(&'a Array),
}

/// One Interval Aware Attention Block (paper Algorithm 2): the interval-aware
/// attention layer and a two-layer feed-forward network, each under
/// `x + Layer(LayerNorm(x))` (Eq 8).
pub struct Iaab {
    ln1: LayerNorm,
    wq: Linear,
    wk: Linear,
    wv: Linear,
    ln2: LayerNorm,
    ff: FeedForward,
    dropout: f32,
}

impl Iaab {
    /// Builds one block of width `dim`.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize, dropout: f32, rng: &mut StdRng) -> Self {
        Iaab {
            ln1: LayerNorm::new(store, &format!("{name}.ln1"), dim),
            wq: Linear::new(store, &format!("{name}.wq"), dim, dim, false, rng),
            wk: Linear::new(store, &format!("{name}.wk"), dim, dim, false, rng),
            wv: Linear::new(store, &format!("{name}.wv"), dim, dim, false, rng),
            ln2: LayerNorm::new(store, &format!("{name}.ln2"), dim),
            ff: FeedForward::new(store, &format!("{name}.ff"), dim, 2 * dim, dropout, rng),
            dropout,
        }
    }

    /// Applies the block.
    ///
    /// * `soft_bias`: `Softmax(R)` + mask (used by [`CoreAttention::Full`]);
    /// * `mask_bias`: plain causal/padding mask ([`CoreAttention::NoRelation`]);
    /// * `raw_bias`: masked raw `R` ([`CoreAttention::RelationOnly`] —
    ///   attention weights are `Softmax(R)` alone, Eq 16).
    ///
    /// Returns the block output and the attention weights.
    pub fn forward<E: Exec>(
        &self,
        sess: &mut Session<'_, E>,
        x: Var,
        mode: CoreAttention,
        soft_bias: &Array,
        mask_bias: &Array,
        raw_bias: &Array,
    ) -> (Var, Var) {
        let h = self.ln1.forward(sess, x);
        let v = self.wv.forward(sess, h);
        let (att_out, weights) = match mode {
            CoreAttention::RelationOnly => {
                // Eq 16: weights depend only on R — a constant per batch.
                let logits = sess.constant(raw_bias.clone());
                let w = sess.g.softmax_last(logits);
                (sess.g.bmm(w, v), w)
            }
            _ => {
                let d = *sess.g.value(x).shape().last().expect("Iaab: scalar input");
                let q = self.wq.forward(sess, h);
                let k = self.wk.forward(sess, h);
                let kt = sess.g.transpose_last2(k);
                let logits = sess.g.bmm(q, kt);
                let logits = sess.g.scale(logits, 1.0 / (d as f32).sqrt());
                let bias = match mode {
                    CoreAttention::Full => soft_bias,
                    _ => mask_bias,
                };
                let logits = sess.g.add_const(logits, bias.clone());
                let w = sess.g.softmax_last(logits);
                (sess.g.bmm(w, v), w)
            }
        };
        let att_out = sess.dropout(att_out, self.dropout);
        let x = sess.g.add(x, att_out);
        let h2 = self.ln2.forward(sess, x);
        let f = self.ff.forward(sess, h2);
        let f = sess.dropout(f, self.dropout);
        (sess.g.add(x, f), weights)
    }
}

/// The STiSAN recommender (see crate docs).
pub struct StiSan {
    store: ParamStore,
    poi_emb: Embedding,
    geo_enc: Option<GeoEncoder>,
    blocks: Vec<Iaab>,
    final_ln: LayerNorm,
    /// Model configuration (public so harnesses can report it).
    pub cfg: StisanConfig,
    poi_tokens: Vec<usize>,
    tokens_per_loc: usize,
    num_pois: usize,
    /// Lazily built `[num_pois + 1, d]` candidate-embedding table for frozen
    /// scoring (see [`StiSan::candidate_table`]). Invalidated whenever the
    /// weights change ([`StiSan::load`], [`StiSan::fit_with_checkpoints`]).
    cand_cache: OnceLock<Array>,
}

impl StiSan {
    /// Builds an untrained model for `data`.
    pub fn new(data: &Processed, cfg: StisanConfig) -> Self {
        let t = &cfg.train;
        assert!(t.dim.is_multiple_of(2), "STiSAN needs an even dim (poi ⊕ geo halves)");
        let mut rng = StdRng::seed_from_u64(t.seed);
        let mut store = ParamStore::new();
        let (poi_dim, geo_enc) = if cfg.use_geo_encoder {
            let half = t.dim / 2;
            let enc = GeoEncoder::new(&mut store, "geo", QK_LEVEL, QK_N, half, &mut rng);
            (half, Some(enc))
        } else {
            (t.dim, None)
        };
        let poi_emb = Embedding::new(&mut store, "poi", data.num_pois + 1, poi_dim, Some(0), &mut rng);
        let blocks = (0..t.blocks)
            .map(|i| Iaab::new(&mut store, &format!("iaab{i}"), t.dim, t.dropout, &mut rng))
            .collect();
        let final_ln = LayerNorm::new(&mut store, "final_ln", t.dim);
        let tokens_per_loc =
            geo_enc.as_ref().map(GeoEncoder::tokens_per_location).unwrap_or(0);
        let mut poi_tokens = Vec::new();
        if geo_enc.is_some() {
            poi_tokens.reserve((data.num_pois + 1) * tokens_per_loc);
            poi_tokens.extend(tokens_for(data.loc(1), QK_LEVEL, QK_N)); // padding slot
            for poi in 1..=data.num_pois {
                poi_tokens.extend(tokens_for(data.loc(poi as u32), QK_LEVEL, QK_N));
            }
        }
        StiSan {
            store,
            poi_emb,
            geo_enc,
            blocks,
            final_ln,
            cfg,
            poi_tokens,
            tokens_per_loc,
            num_pois: data.num_pois,
            cand_cache: OnceLock::new(),
        }
    }

    /// Number of scalar parameters (for the "lightweight" claims).
    pub fn num_parameters(&self) -> usize {
        self.store.num_scalars()
    }

    /// The parameter store (read access for inspection sessions).
    pub fn param_store(&self) -> &ParamStore {
        &self.store
    }

    /// Saves the trained weights to a checkpoint file (see
    /// [`ParamStore::save_file`]).
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        self.store.save_file(path)
    }

    /// Loads weights saved by [`StiSan::save`] into this model (any trainer
    /// state in the file is ignored — use [`StiSan::fit_with_checkpoints`]
    /// to resume training). The model must have been built with the same
    /// configuration and dataset shape.
    pub fn load(&mut self, path: impl AsRef<std::path::Path>) -> Result<(), stisan_nn::LoadError> {
        self.cand_cache = OnceLock::new(); // weights change: drop the stale table
        self.store.load_file(path).map(|_| ())
    }

    /// The frozen candidate-embedding table `[num_pois + 1, d]`: row `p` is
    /// `embed(p)` under the current weights, built lazily on first use.
    ///
    /// Every op in the embedding path (embedding gather, the geography
    /// encoder's per-location attention, the padding mask, concat) is
    /// row-independent, so gathering candidate rows from this table is
    /// *bit-identical* to embedding the candidates per request — the parity
    /// suite asserts this. Serving amortizes the whole geography encoder to
    /// one table gather per request.
    fn candidate_table(&self) -> &Array {
        self.cand_cache.get_or_init(|| {
            let _span = stisan_obs::span("candidate_table");
            let ids: Vec<usize> = (0..=self.num_pois).collect();
            let mut sess = Session::frozen(&self.store);
            let v = self.embed(&mut sess, &ids);
            sess.g.value(v).clone()
        })
    }

    /// Embeds POI ids (Section III-B): `poi_embedding (⊕ geo encoding)`,
    /// returning `[rows, d]`. Padding ids are exactly zero.
    ///
    /// Ids are de-duplicated before the geography encoder runs (a training
    /// batch references each POI many times across steps and negative slots),
    /// then the unique encodings are gathered back into position — a pure
    /// optimization with identical outputs and gradients.
    pub fn embed<E: Exec>(&self, sess: &mut Session<'_, E>, ids: &[usize]) -> Var {
        self.embed_in(sess, ids, &mut PrepBufs::default())
    }

    /// [`StiSan::embed`] with caller-owned scratch buffers — the single
    /// implementation both forms share, so they are bit-identical. The
    /// serving path reuses one [`PrepBufs`] across requests.
    fn embed_in<E: Exec>(&self, sess: &mut Session<'_, E>, ids: &[usize], bufs: &mut PrepBufs) -> Var {
        match &self.geo_enc {
            None => self.poi_emb.forward(sess, ids, &[ids.len()]),
            Some(enc) => {
                let unique = &mut bufs.unique;
                unique.clear();
                unique.extend_from_slice(ids);
                unique.sort_unstable();
                unique.dedup();
                let slot = &mut bufs.slot;
                slot.clear();
                slot.resize(unique.last().map(|&m| m + 1).unwrap_or(0), usize::MAX);
                for (i, &u) in unique.iter().enumerate() {
                    slot[u] = i;
                }
                let p = self.poi_emb.forward(sess, unique, &[unique.len()]);
                let tokens = &mut bufs.tokens;
                tokens.clear();
                tokens.reserve(unique.len() * self.tokens_per_loc);
                for &id in unique.iter() {
                    let base = id * self.tokens_per_loc;
                    tokens.extend_from_slice(&self.poi_tokens[base..base + self.tokens_per_loc]);
                }
                let g = enc.forward(sess, tokens, unique.len());
                // Arena-backed on the serving backend; fully overwritten, and
                // `mul_const` recycles the consumed constant.
                let mut mask = sess.g.scratch_array(&[unique.len(), 1]);
                for (m, &u) in mask.data_mut().iter_mut().zip(unique.iter()) {
                    *m = if u == 0 { 0.0 } else { 1.0 };
                }
                let g = sess.g.mul_const(g, mask);
                let table = sess.g.concat_last(&[p, g]); // [U, d]
                let gather_pos = &mut bufs.gather_pos;
                gather_pos.clear();
                gather_pos.extend(ids.iter().map(|&id| slot[id]));
                sess.g.gather(table, gather_pos, &[ids.len()])
            }
        }
    }

    /// The TAPE (or vanilla, under variant II) positional matrix `[b, n, d]`,
    /// written into arena scratch on the serving backend (every element is
    /// set; `add_const` recycles the consumed matrix).
    fn position_matrix_in<E: Exec>(
        &self,
        sess: &mut Session<'_, E>,
        batch: &SeqBatch,
        bufs: &mut PrepBufs,
    ) -> Array {
        let (b, n, d) = (batch.b, batch.n, self.cfg.train.dim);
        let mut out = sess.g.scratch_array(&[b, n, d]);
        let data = out.data_mut();
        for row in 0..b {
            let vf = batch.valid_from[row];
            let pos = &mut bufs.pos;
            if self.cfg.use_tape {
                tape_positions_into(&batch.time[row * n..(row + 1) * n], vf, pos);
            } else {
                pos.clear();
                pos.resize(n, 0.0);
                for (k, p) in pos[vf..].iter_mut().enumerate() {
                    *p = (k + 1) as f32; // vanilla positions 1..=n-vf
                }
            }
            sinusoidal_encoding_into(pos, d, &mut data[row * n * d..(row + 1) * n * d]);
        }
        out
    }

    /// Builds the three per-batch attention biases: `Softmax(R)`+mask, plain
    /// mask, and masked raw `R` — all in arena scratch on the serving backend
    /// (every element is written; the caller recycles them after the blocks).
    fn biases_in<E: Exec>(
        &self,
        sess: &mut Session<'_, E>,
        data: &Processed,
        batch: &SeqBatch,
        bufs: &mut PrepBufs,
    ) -> (Array, Array, Array) {
        let (b, n) = (batch.b, batch.n);
        // Combined causal + key-padding mask, summed entry-wise exactly as
        // `causal_mask(b, n).add(&padding_row_mask(...))` did (0, -1e9, -2e9).
        let mut mask = sess.g.scratch_array(&[b, n, n]);
        {
            let md = mask.data_mut();
            for row in 0..b {
                for i in 0..n {
                    for j in 0..n {
                        let causal = if j > i { -1e9f32 } else { 0.0 };
                        let pad = if batch.src[row * n + j] != 0 { 0.0 } else { -1e9f32 };
                        md[(row * n + i) * n + j] = causal + pad;
                    }
                }
            }
        }
        let mut soft = sess.g.scratch_array(&[b, n, n]);
        let mut raw = sess.g.scratch_array(&[b, n, n]);
        {
            let sd = soft.data_mut();
            let rd = raw.data_mut();
            bufs.rel.resize(n * n, 0.0);
            for row in 0..b {
                let vf = batch.valid_from[row];
                let times = &batch.time[row * n..(row + 1) * n];
                let locs = &mut bufs.locs;
                locs.clear();
                locs.extend(batch.src[row * n..(row + 1) * n].iter().map(|&p| {
                    if p == 0 {
                        data.loc(1)
                    } else {
                        data.loc(p as u32)
                    }
                }));
                relation_matrix_into(times, locs, vf, &self.cfg.relation, &mut bufs.rel);
                iaab_bias_into(&bufs.rel, n, vf, &mut sd[row * n * n..(row + 1) * n * n]);
                // Raw R with the leak mask for the RelationOnly variant.
                let rrow = &mut rd[row * n * n..(row + 1) * n * n];
                rrow.fill(-1e9);
                for i in vf..n {
                    for j in vf..=i {
                        rrow[i * n + j] = bufs.rel[i * n + j];
                    }
                }
            }
        }
        (soft, mask, raw)
    }

    /// Encodes a batch into per-step representations `[b, n, d]`; also
    /// returns every block's attention weights (Fig 5/7 inspection).
    pub fn encode_full<E: Exec>(
        &self,
        sess: &mut Session<'_, E>,
        data: &Processed,
        batch: &SeqBatch,
    ) -> (Var, Vec<Var>) {
        self.encode_full_in(sess, data, batch, &mut PrepBufs::default())
    }

    /// [`StiSan::encode_full`] with caller-owned prep scratch — the single
    /// implementation (the wrapper passes fresh buffers), so both forms are
    /// bit-identical.
    fn encode_full_in<E: Exec>(
        &self,
        sess: &mut Session<'_, E>,
        data: &Processed,
        batch: &SeqBatch,
        bufs: &mut PrepBufs,
    ) -> (Var, Vec<Var>) {
        let mut all_weights = Vec::with_capacity(self.blocks.len());
        let out = self.encode_core_in(sess, data, batch, bufs, Some(&mut all_weights));
        (out, all_weights)
    }

    /// The shared encode body. `weights` optionally collects every block's
    /// attention weights (the inspection path); the serving path passes
    /// `None`, which skips the per-request `Vec` allocation — the op sequence
    /// is identical either way, so both forms stay bit-identical.
    fn encode_core_in<E: Exec>(
        &self,
        sess: &mut Session<'_, E>,
        data: &Processed,
        batch: &SeqBatch,
        bufs: &mut PrepBufs,
        mut weights: Option<&mut Vec<Var>>,
    ) -> Var {
        let (b, n, d) = (batch.b, batch.n, self.cfg.train.dim);
        let e = self.embed_in(sess, &batch.src, bufs);
        let e = sess.g.reshape(e, &[b, n, d]);
        let pmat = self.position_matrix_in(sess, batch, bufs);
        let e = sess.g.add_const(e, pmat); // E = E + P
        let mut x = sess.dropout(e, self.cfg.train.dropout);
        let (soft, mask, raw) = self.biases_in(sess, data, batch, bufs);
        for blk in &self.blocks {
            let (nx, w) = blk.forward(sess, x, self.cfg.attention, &soft, &mask, &raw);
            x = nx;
            if let Some(ws) = weights.as_deref_mut() {
                ws.push(w);
            }
        }
        let out = self.final_ln.forward(sess, x);
        // The per-block clones were consumed above; by now the originals are
        // unique again (unless a block pinned one, in which case recycling is
        // refused harmlessly), so hand the buffers back to the serving arena.
        sess.g.recycle_const(soft);
        sess.g.recycle_const(mask);
        sess.g.recycle_const(raw);
        out
    }

    /// [`StiSan::encode_full`] without the inspection weights.
    pub fn encode<E: Exec>(
        &self,
        sess: &mut Session<'_, E>,
        data: &Processed,
        batch: &SeqBatch,
    ) -> Var {
        self.encode_full(sess, data, batch).0
    }

    /// [`StiSan::encode`] with caller-owned prep scratch.
    fn encode_in<E: Exec>(
        &self,
        sess: &mut Session<'_, E>,
        data: &Processed,
        batch: &SeqBatch,
        bufs: &mut PrepBufs,
    ) -> Var {
        self.encode_core_in(sess, data, batch, bufs, None)
    }

    /// Backend-generic candidate scoring: one code path serves the tape-based
    /// [`Recommender::score`], the tape-free [`FrozenScorer::score_frozen`],
    /// the arena-backed [`FrozenScorer::score_frozen_into`], and the
    /// quantized-retrieval [`FrozenScorer::score_frozen_with_embeds`], so the
    /// serving engine is parity-by-construction with evaluation.
    ///
    /// `cand` selects where candidate representations come from (see
    /// [`CandSource`]); [`CandSource::Embed`] and [`CandSource::Table`]
    /// produce bit-identical scores, [`CandSource::Rows`] scores whatever
    /// rows the caller gathered (exact rows → bit-identical, dequantized
    /// rows → within the codec's documented error bound).
    fn score_var_in<E: Exec>(
        &self,
        sess: &mut Session<'_, E>,
        data: &Processed,
        inst: &EvalInstance,
        candidates: &[u32],
        cand: CandSource<'_>,
        scratch: &mut PrepScratch,
    ) -> Var {
        let PrepScratch { batch, ids, bufs } = scratch;
        batch.fill_eval(data, inst);
        let (n, d) = (batch.n, self.cfg.train.dim);
        let f = self.encode_in(sess, data, batch, bufs);
        ids.clear();
        ids.extend(candidates.iter().map(|&c| c as usize));
        let m = ids.len();
        let c = match cand {
            CandSource::Table(t) => {
                let tv = sess.g.constant(t.clone()); // Arc bump, no copy
                sess.g.gather(tv, ids, &[m])
            }
            CandSource::Embed => self.embed_in(sess, ids, bufs),
            CandSource::Rows(r) => {
                assert_eq!(r.shape(), &[m, d], "score_var_in: candidate rows shape mismatch");
                sess.g.constant(r.clone()) // Arc bump, no copy
            }
        };
        if self.cfg.use_taad {
            let c = sess.g.reshape(c, &[1, m, d]);
            // Arena-backed; fully written, consumed (and recycled) by the
            // decoder (`Exec::taad_scores`).
            let mut mask = sess.g.scratch_array(&[1, m, n]);
            taad_eval_mask_into(m, n, batch.valid_from[0], mask.data_mut());
            sess.g.taad_scores(f, c, mask)
        } else {
            let h_last = sess.g.slice_axis1(f, n - 1);
            let c = sess.g.reshape(c, &[1, m, d]);
            let h3 = sess.g.reshape(h_last, &[1, 1, d]);
            let ct = sess.g.transpose_last2(c);
            sess.g.bmm(h3, ct)
        }
    }

    /// Trains with the weighted BCE (Eq 12) over `L` KNN negatives.
    ///
    /// Instrumented end-to-end (see DESIGN.md §Observability): spans
    /// `train/epoch/step/{forward,backward,optim}`, per-epoch loss /
    /// check-ins-per-second / gradient global-norm via
    /// `stisan_obs::record_epoch`, and a `train.nonfinite_steps` counter for
    /// steps skipped by the non-finite guard.
    pub fn fit(&mut self, data: &Processed) {
        // Infallible without a checkpoint directory.
        let _ = self.fit_with_checkpoints(data, None);
    }

    /// [`StiSan::fit`] with crash-safe checkpointing (see DESIGN.md §8).
    ///
    /// With a [`CheckpointConfig`], training saves the weights *and* trainer
    /// state (Adam moments, epoch count, RNG seed) every `every` epochs and
    /// at the end, and — when `resume` is set — restores the newest valid
    /// checkpoint before the first epoch. Every per-epoch RNG stream is
    /// derived from `(seed, epoch)` alone, so a resumed run replays the
    /// remaining epochs bit-identically to an uninterrupted one.
    pub fn fit_with_checkpoints(
        &mut self,
        data: &Processed,
        ckpt: Option<&CheckpointConfig>,
    ) -> Result<FitSummary, CheckpointError> {
        self.cand_cache = OnceLock::new(); // training mutates the weights
        let t = self.cfg.train.clone();
        let _train_span = stisan_obs::span("train");
        let sampler = KnnNegativeSampler::build(data, t.neg_pool);
        let mut opt = Adam::new(t.lr);
        let l = t.negatives.max(1);

        let manager = match ckpt {
            Some(c) => Some(CheckpointManager::new(&c.dir, c.keep)?),
            None => None,
        };
        let mut start_epoch = 0usize;
        let mut resumed_from = None;
        if let (Some(mgr), Some(c)) = (&manager, ckpt) {
            if c.resume {
                if let Some(res) = mgr.load_latest_valid(&mut self.store)? {
                    // A v1 / weights-only file restores the parameters but
                    // carries no trainer state: keep the loaded weights and
                    // train the full schedule from epoch 0.
                    if let Some(trainer) = res.trainer {
                        opt.restore(trainer.adam);
                        start_epoch = (trainer.epochs_done as usize).min(t.epochs);
                    }
                    stisan_obs::counter("checkpoint.resumes", 1);
                    stisan_obs::vlog!(
                        t.verbose,
                        "  [STiSAN] resuming from {} at epoch {start_epoch}",
                        res.path.display()
                    );
                    resumed_from = Some(res.path);
                }
            }
        }

        for epoch in start_epoch..t.epochs {
            let _epoch_span = stisan_obs::span("epoch");
            let epoch_t0 = Instant::now();
            // All of this epoch's randomness (shuffle + negative sampling)
            // comes from a stream derived from (seed, epoch) alone, and the
            // batcher starts from identity order — resume replays epoch k
            // exactly, regardless of which epochs ran in this process.
            let mut rng = epoch_rng(t.seed ^ 0x57AB, epoch);
            let mut batcher = Batcher::new(data.train.len(), t.batch);
            batcher.shuffle(&mut rng);
            let idx_lists: Vec<Vec<usize>> = batcher.batches().map(|c| c.to_vec()).collect();
            let mut total = 0.0f64;
            let mut grad_norm_total = 0.0f64;
            let mut finite_steps = 0usize;
            let mut nonfinite = 0u64;
            let mut checkins = 0.0f64;
            for idxs in idx_lists {
                let batch = SeqBatch::from_train(data, &idxs);
                let negs = batch.sample_negatives(l, |tgt, l| sampler.sample(tgt, l, &mut rng));
                let step =
                    self.train_step(data, &batch, &negs, l, &mut opt, epoch, nonfinite == 0);
                if step.skipped {
                    nonfinite += 1;
                } else {
                    total += step.loss as f64;
                    grad_norm_total += step.grad_norm as f64;
                    finite_steps += 1;
                }
                checkins += batch.step_mask.sum_all() as f64;
                stisan_obs::counter("train.steps", 1);
            }
            let wall_s = epoch_t0.elapsed().as_secs_f64();
            let loss = total / finite_steps.max(1) as f64;
            let grad_norm = grad_norm_total / finite_steps.max(1) as f64;
            let checkins_per_sec = if wall_s > 0.0 { checkins / wall_s } else { 0.0 };
            stisan_obs::record_epoch(stisan_obs::EpochStats {
                epoch,
                loss,
                checkins_per_sec,
                grad_norm,
                nonfinite_steps: nonfinite,
                wall_s,
            });
            stisan_obs::vlog!(
                t.verbose,
                "  [STiSAN] epoch {epoch}: loss {loss:.4}"
            );
            let done = epoch + 1;
            if let (Some(mgr), Some(c)) = (&manager, ckpt) {
                if done == t.epochs || (c.every > 0 && done.is_multiple_of(c.every)) {
                    let trainer = TrainState {
                        adam: opt.state(),
                        epochs_done: done as u64,
                        rng_seed: t.seed,
                    };
                    mgr.save(&self.store, Some(&trainer), done as u64)?;
                }
            }
        }
        Ok(FitSummary { start_epoch, epochs_run: t.epochs - start_epoch, resumed_from })
    }

    #[allow(clippy::too_many_arguments)]
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
        let t = &self.cfg.train;
        let _step_span = stisan_obs::span("step");
        let (b, n, d) = (batch.b, batch.n, t.dim);
        let mut sess = Session::new(&self.store, true, t.seed ^ (epoch as u64) << 27);
        let loss = {
            let _span = stisan_obs::span("forward");
            let f = self.encode(&mut sess, data, batch);
            let cand_ids = interleave_candidates(&batch.tgt, negs, l);
            let c = self.embed(&mut sess, &cand_ids);
            let y = if self.cfg.use_taad {
                let c = sess.g.reshape(c, &[b, n * (l + 1), d]);
                let mask = taad_train_mask(b, n, l + 1, &batch.valid_from);
                let y = sess.g.taad_scores(f, c, mask);
                sess.g.reshape(y, &[b, n, l + 1])
            } else {
                // Variant V (Eq 17): match F_i with candidates directly.
                let c = sess.g.reshape(c, &[b * n, l + 1, d]);
                let f2 = sess.g.reshape(f, &[b * n, 1, d]);
                let ct = sess.g.transpose_last2(c);
                let y = sess.g.bmm(f2, ct);
                sess.g.reshape(y, &[b, n, l + 1])
            };
            let pos = sess.g.slice_last(y, 0, 1);
            let pos = sess.g.reshape(pos, &[b, n]);
            let neg = sess.g.slice_last(y, 1, l);
            weighted_bce_loss(&mut sess, pos, neg, t.temperature, &batch.step_mask)
        };
        let loss_val = sess.g.value(loss).item();
        let grads = sess.backward_and_grads(loss);
        // Non-finite guard: a NaN/inf loss or gradient would corrupt every
        // parameter through Adam's moments; drop the step instead.
        let out = check_finite_step(&self.name(), epoch, loss_val, &grads, warn);
        if !out.skipped {
            let _span = stisan_obs::span("optim");
            opt.step(&mut self.store, &grads, Some(t.grad_clip));
        }
        out
    }
}

impl Recommender for StiSan {
    fn name(&self) -> String {
        match (
            self.cfg.use_geo_encoder,
            self.cfg.use_tape,
            self.cfg.attention,
            self.cfg.use_taad,
        ) {
            (true, true, CoreAttention::Full, true) => "STiSAN".into(),
            (false, _, _, _) => "STiSAN-GE".into(),
            (_, false, _, _) => "STiSAN-TAPE".into(),
            (_, _, CoreAttention::NoRelation, _) => "STiSAN-IAAB".into(),
            (_, _, CoreAttention::RelationOnly, _) => "STiSAN-SA".into(),
            (_, _, _, false) => "STiSAN-TAAD".into(),
        }
    }

    fn score(&self, data: &Processed, inst: &EvalInstance, candidates: &[u32]) -> Vec<f32> {
        let mut sess = Session::new(&self.store, false, 0);
        let mut scratch = PrepScratch::default();
        let y = self.score_var_in(&mut sess, data, inst, candidates, CandSource::Embed, &mut scratch);
        sess.g.value(y).data().to_vec()
    }
}

impl FrozenScorer for StiSan {
    fn score_frozen(&self, data: &Processed, inst: &EvalInstance, candidates: &[u32]) -> Vec<f32> {
        let table = self.candidate_table();
        let mut sess = Session::frozen(&self.store);
        let mut scratch = PrepScratch::default();
        let y =
            self.score_var_in(&mut sess, data, inst, candidates, CandSource::Table(table), &mut scratch);
        sess.g.value(y).data().to_vec()
    }

    fn score_frozen_into(
        &self,
        data: &Processed,
        inst: &EvalInstance,
        candidates: &[u32],
        arena: &mut Arena,
        out: &mut Vec<f32>,
    ) {
        let table = self.candidate_table();
        // The request-prep scratch (SeqBatch + prep buffers) lives in the
        // arena's type-erased slot, so warmed-up serving allocates nothing
        // during prep either.
        let mut scratch: Box<PrepScratch> = arena.take_slot();
        let mut sess = Session::frozen_in(&self.store, std::mem::take(arena));
        let y =
            self.score_var_in(&mut sess, data, inst, candidates, CandSource::Table(table), &mut scratch);
        out.clear();
        out.extend_from_slice(sess.g.value(y).data());
        *arena = sess.recycle();
        arena.put_slot(scratch);
    }

    fn export_candidate_table(&self) -> Option<&Array> {
        Some(self.candidate_table())
    }

    fn score_frozen_with_embeds(
        &self,
        data: &Processed,
        inst: &EvalInstance,
        candidates: &[u32],
        embeds: &Array,
        arena: &mut Arena,
        out: &mut Vec<f32>,
    ) {
        let mut scratch: Box<PrepScratch> = arena.take_slot();
        let mut sess = Session::frozen_in(&self.store, std::mem::take(arena));
        let y =
            self.score_var_in(&mut sess, data, inst, candidates, CandSource::Rows(embeds), &mut scratch);
        out.clear();
        out.extend_from_slice(sess.g.value(y).data());
        *arena = sess.recycle();
        arena.put_slot(scratch);
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
        let d = generate(&cfg, 201);
        preprocess(&d, &PrepConfig { max_len: 10, min_user_checkins: 15, min_poi_interactions: 2 })
    }

    fn tiny() -> StisanConfig {
        StisanConfig {
            train: TrainConfig {
                dim: 16,
                blocks: 2,
                epochs: 2,
                batch: 8,
                dropout: 0.0,
                negatives: 5,
                neg_pool: 50,
                temperature: 1.0,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn full_model_trains_and_evaluates() {
        let p = processed();
        let mut m = StiSan::new(&p, tiny());
        m.fit(&p);
        let cands = build_candidates(&p, 20);
        let metrics = evaluate(&m, &p, &cands);
        assert!(metrics.hr10 >= 0.0 && metrics.hr10 <= 1.0);
    }

    #[test]
    fn all_ablation_variants_run() {
        let p = processed();
        let short = StisanConfig {
            train: TrainConfig { epochs: 1, ..tiny().train },
            ..StisanConfig::default()
        };
        let variants: Vec<StisanConfig> = vec![
            short.clone().remove_ge(),
            short.clone().remove_tape(),
            short.clone().remove_iaab(),
            short.clone().remove_sa(),
            short.clone().remove_taad(),
        ];
        let cands = build_candidates(&p, 10);
        for cfg in variants {
            let mut m = StiSan::new(&p, cfg);
            m.fit(&p);
            let metrics = evaluate(&m, &p, &cands);
            assert!(metrics.hr10 <= 1.0, "{} produced invalid metrics", m.name());
        }
    }

    #[test]
    fn names_distinguish_variants() {
        let p = processed();
        assert_eq!(StiSan::new(&p, tiny()).name(), "STiSAN");
        assert_eq!(StiSan::new(&p, tiny().remove_ge()).name(), "STiSAN-GE");
        assert_eq!(StiSan::new(&p, tiny().remove_tape()).name(), "STiSAN-TAPE");
        assert_eq!(StiSan::new(&p, tiny().remove_iaab()).name(), "STiSAN-IAAB");
        assert_eq!(StiSan::new(&p, tiny().remove_sa()).name(), "STiSAN-SA");
        assert_eq!(StiSan::new(&p, tiny().remove_taad()).name(), "STiSAN-TAAD");
    }

    #[test]
    fn tape_changes_encoding_when_intervals_change() {
        let p = processed();
        let m = StiSan::new(&p, StisanConfig { train: TrainConfig { epochs: 0, ..tiny().train }, ..tiny() });
        let mut batch = SeqBatch::from_eval(&p, &p.eval[0]);
        let rep = |m: &StiSan, batch: &SeqBatch| {
            let mut sess = Session::new(&m.store, false, 0);
            let f = m.encode(&mut sess, &p, batch);
            let h = sess.g.slice_axis1(f, batch.n - 1);
            sess.g.value(h).data().to_vec()
        };
        let a = rep(&m, &batch);
        for (i, t) in batch.time.iter_mut().enumerate() {
            *t += (i * i) as f64 * 10_000.0;
        }
        let b = rep(&m, &batch);
        let diff: f32 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1e-6, "TAPE ignored the time intervals");
    }

    #[test]
    fn vanilla_variant_ignores_interval_warp_without_relation() {
        // Variant II + III together (no TAPE, no R): time intervals must have
        // NO effect on the encoding — the control for the test above.
        let p = processed();
        let cfg = StisanConfig { train: TrainConfig { epochs: 0, ..tiny().train }, ..tiny() }
            .remove_tape()
            .remove_iaab();
        let m = StiSan::new(&p, cfg);
        let mut batch = SeqBatch::from_eval(&p, &p.eval[0]);
        let rep = |m: &StiSan, batch: &SeqBatch| {
            let mut sess = Session::new(&m.store, false, 0);
            let f = m.encode(&mut sess, &p, batch);
            let h = sess.g.slice_axis1(f, batch.n - 1);
            sess.g.value(h).data().to_vec()
        };
        let a = rep(&m, &batch);
        for (i, t) in batch.time.iter_mut().enumerate() {
            *t += (i * i) as f64 * 10_000.0;
        }
        let b = rep(&m, &batch);
        let diff: f32 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff < 1e-9, "time leaked into the TAPE-less, R-less variant");
    }

    #[test]
    fn parameter_count_unchanged_by_tape_and_relation() {
        // The paper's "no extra parameters" claim: TAPE and the relation
        // matrix add zero learnable scalars.
        let p = processed();
        let full = StiSan::new(&p, tiny());
        let no_tape = StiSan::new(&p, tiny().remove_tape());
        let no_rel = StiSan::new(&p, tiny().remove_iaab());
        assert_eq!(full.num_parameters(), no_tape.num_parameters());
        assert_eq!(full.num_parameters(), no_rel.num_parameters());
    }
}
