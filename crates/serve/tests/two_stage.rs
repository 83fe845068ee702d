//! Serve-level guarantees of the two-stage retrieval path (DESIGN.md §15):
//!
//! * `PruningPolicy::TwoStage` with an f32 table scores its candidates
//!   bit-identically to the exact full-scan path;
//! * an i8 table whose grid happens to be lossless reproduces the f32
//!   two-stage answers exactly — *including tie-break order* among equal
//!   scores, so quantization can never reshuffle a top-K under ties;
//! * a model that exports no candidate table degrades to the full
//!   catalogue instead of erroring;
//! * the hot-reload watcher requantizes on publish and refuses to attach a
//!   retrieval state whose dequantization error exceeds the codec bound.

use std::path::Path;

use stisan_data::{generate, preprocess, DatasetPreset, EvalInstance, GenConfig, PrepConfig,
                  Processed};
use stisan_eval::{FrozenScorer, Recommender};
use stisan_nn::{CheckpointManager, LoadError, ParamStore};
use stisan_serve::{
    CanaryConfig, InferenceSession, PruningPolicy, QuantLevel, ReloadWatcher, ServeConfig,
    SharedModel,
};
use stisan_tensor::Array;

fn processed() -> Processed {
    let cfg = GenConfig {
        users: 30,
        pois: 200,
        mean_seq_len: 28.0,
        ..DatasetPreset::Gowalla.config(0.01)
    };
    let d = generate(&cfg, 17);
    let p = preprocess(
        &d,
        &PrepConfig { max_len: 10, min_user_checkins: 15, min_poi_interactions: 2 },
    );
    assert!(!p.eval.is_empty());
    p
}

/// Name of the single parameter a [`TableModel`] checkpoint stores.
const TABLE_PARAM: &str = "candidate.table";

/// A minimal table-exporting scorer: `score(p) = sum(table[p])`. Exactly the
/// serving shape two-stage retrieval needs — an exported `[num_pois + 1, d]`
/// candidate table plus an embeds-driven scoring override — with arithmetic
/// simple enough that "bit-identical" is checkable by eye.
struct TableModel {
    table: Array,
}

impl TableModel {
    /// Deterministic integer-valued table: every row anchors its grid at
    /// `0..=255` (`row[0] = 0`, `row[1] = 255`), so the i8 affine codec has
    /// `scale = 1.0`, `zero = 0.0` and dequantizes *exactly*. The remaining
    /// entries repeat in groups, planting large blocks of tied scores.
    fn lossless_grid(num_pois: usize, d: usize) -> Self {
        assert!(d >= 3);
        let rows = num_pois + 1;
        let mut data = vec![0.0f32; rows * d];
        for r in 1..rows {
            let row = &mut data[r * d..(r + 1) * d];
            row[0] = 0.0;
            row[1] = 255.0;
            // Groups of 5 consecutive POIs share a row (and thus a score):
            // plenty of exact ties for the tie-break identity check.
            let group = ((r - 1) / 5 * 7 % 200) as f32;
            for v in row[2..].iter_mut() {
                *v = group;
            }
        }
        TableModel { table: Array::from_vec(vec![rows, d], data) }
    }

    /// A table of uniformly huge values: finite scores (the canary passes)
    /// but far past f16's saturation point, so requantization error blows
    /// through the documented bound and the watcher must refuse to attach it.
    fn saturating(num_pois: usize, d: usize) -> Self {
        let rows = num_pois + 1;
        let data = vec![1.0e6f32; rows * d];
        TableModel { table: Array::from_vec(vec![rows, d], data) }
    }

    fn save(&self, mgr: &CheckpointManager, epoch: u64) -> std::io::Result<std::path::PathBuf> {
        let mut store = ParamStore::new();
        store.register(TABLE_PARAM, self.table.clone());
        mgr.save(&store, None, epoch)
    }

    fn load(path: &Path, rows: usize, d: usize) -> Result<Self, LoadError> {
        let mut store = ParamStore::new();
        let id = store.register(TABLE_PARAM, Array::zeros(vec![rows, d]));
        store.load_file(path)?;
        Ok(TableModel { table: store.value(id).clone() })
    }
}

impl Recommender for TableModel {
    fn name(&self) -> String {
        "table-model".into()
    }

    fn score(&self, data: &Processed, inst: &EvalInstance, candidates: &[u32]) -> Vec<f32> {
        self.score_frozen(data, inst, candidates)
    }
}

impl FrozenScorer for TableModel {
    fn score_frozen(&self, _data: &Processed, _inst: &EvalInstance, candidates: &[u32]) -> Vec<f32> {
        let d = self.table.shape()[1];
        candidates
            .iter()
            .map(|&p| self.table.data()[p as usize * d..(p as usize + 1) * d].iter().sum())
            .collect()
    }

    fn export_candidate_table(&self) -> Option<&Array> {
        Some(&self.table)
    }

    fn score_frozen_with_embeds(
        &self,
        _data: &Processed,
        _inst: &EvalInstance,
        candidates: &[u32],
        embeds: &Array,
        _arena: &mut stisan_tensor::Arena,
        out: &mut Vec<f32>,
    ) {
        let d = embeds.shape()[1];
        assert_eq!(embeds.shape()[0], candidates.len());
        out.clear();
        out.extend(embeds.data().chunks_exact(d).map(|row| row.iter().sum::<f32>()));
    }
}

/// A scorer with no exportable table: two-stage must fall back to the full
/// catalogue for it.
struct Tableless;

impl Recommender for Tableless {
    fn name(&self) -> String {
        "tableless".into()
    }

    fn score(&self, data: &Processed, inst: &EvalInstance, candidates: &[u32]) -> Vec<f32> {
        self.score_frozen(data, inst, candidates)
    }
}

impl FrozenScorer for Tableless {
    fn score_frozen(&self, _data: &Processed, _inst: &EvalInstance, candidates: &[u32]) -> Vec<f32> {
        candidates.iter().map(|&p| -(p as f32)).collect()
    }
}

fn two_stage_cfg(quant: QuantLevel, budget: usize) -> ServeConfig {
    ServeConfig {
        top_k: 10,
        pruning: PruningPolicy::TwoStage { budget, max_ring: 6 },
        quant,
    }
}

/// f32 two-stage answers are a strict restriction of the full scan: every
/// score it reports is bit-identical to the full path's score for that POI,
/// and the candidate pool is genuinely pruned (not the whole catalogue).
#[test]
fn two_stage_f32_scores_bit_match_full_scan() {
    let p = processed();
    let m = TableModel::lossless_grid(p.num_pois, 8);
    let budget = (p.num_pois / 3).max(8);
    assert!(budget < p.num_pois, "budget must prune for this test to bite");

    let full = InferenceSession::new(&m, &p, ServeConfig { top_k: 10, ..Default::default() });
    let two = InferenceSession::new(&m, &p, two_stage_cfg(QuantLevel::F32, budget));

    let mut pruned_somewhere = false;
    for inst in &p.eval {
        let exact = full.serve_one(inst);
        let staged = two.serve_one(inst);
        assert_eq!(staged.pool, p.num_pois);
        assert!(staged.scored <= p.num_pois);
        pruned_somewhere |= staged.scored < p.num_pois;
        // Every recommended id's score matches the full path bit-for-bit.
        for &(id, s) in &staged.items {
            let d = 8;
            let want: f32 =
                m.table.data()[id as usize * d..(id as usize + 1) * d].iter().sum();
            assert_eq!(s.to_bits(), want.to_bits(), "two-stage rescored POI {id}");
        }
        // The full path's scores for the same ids agree too (sanity that the
        // reference itself scores through the same arithmetic).
        for &(id, s) in &exact.items {
            let d = 8;
            let want: f32 =
                m.table.data()[id as usize * d..(id as usize + 1) * d].iter().sum();
            assert_eq!(s.to_bits(), want.to_bits());
        }
    }
    assert!(pruned_somewhere, "no request was pruned — candidate budget never bit");
}

/// With a lossless i8 grid (integer rows anchored at 0/255 → `scale = 1`),
/// the dequantized scores are bit-identical to f32, so the i8 top-K must
/// equal the f32 top-K *exactly* — same ids, same order, same bits — even
/// though the table is full of deliberately tied scores. This pins the
/// tie-break behavior of the quantized path to the exact path's.
#[test]
fn i8_top_k_tie_break_is_identical_to_exact() {
    let p = processed();
    let m = TableModel::lossless_grid(p.num_pois, 8);
    let budget = (p.num_pois / 3).max(8);

    let f32_sess = InferenceSession::new(&m, &p, two_stage_cfg(QuantLevel::F32, budget));
    let i8_sess = InferenceSession::new(&m, &p, two_stage_cfg(QuantLevel::I8, budget));

    // The grid really is lossless: zero reported error would be too strong a
    // claim (the bound is conservative), but the scores must match bitwise.
    let mut saw_tie = false;
    for inst in &p.eval {
        let a = f32_sess.serve_one(inst);
        let b = i8_sess.serve_one(inst);
        assert_eq!(a.scored, b.scored, "both paths must score the same candidate set");
        let bits_a: Vec<(u32, u32)> = a.items.iter().map(|&(id, s)| (id, s.to_bits())).collect();
        let bits_b: Vec<(u32, u32)> = b.items.iter().map(|&(id, s)| (id, s.to_bits())).collect();
        assert_eq!(bits_a, bits_b, "i8 tie-break diverged from the exact path");
        saw_tie |= a.items.windows(2).any(|w| w[0].1 == w[1].1);
    }
    assert!(saw_tie, "test table produced no ties — tie-break was never exercised");
}

/// f16 on the same lossless-integer table (values ≤ 255 are exact in
/// binary16) is held to the same identity.
#[test]
fn f16_top_k_matches_exact_on_representable_table() {
    let p = processed();
    let m = TableModel::lossless_grid(p.num_pois, 8);
    let f32_sess = InferenceSession::new(&m, &p, two_stage_cfg(QuantLevel::F32, (p.num_pois / 3).max(8)));
    let f16_sess = InferenceSession::new(&m, &p, two_stage_cfg(QuantLevel::F16, (p.num_pois / 3).max(8)));
    for inst in &p.eval {
        let a = f32_sess.serve_one(inst);
        let b = f16_sess.serve_one(inst);
        assert_eq!(
            a.items.iter().map(|&(id, s)| (id, s.to_bits())).collect::<Vec<_>>(),
            b.items.iter().map(|&(id, s)| (id, s.to_bits())).collect::<Vec<_>>(),
        );
    }
}

/// A model with no exportable candidate table under `TwoStage` serves the
/// full catalogue (graceful degradation, not an error or an empty answer).
#[test]
fn two_stage_without_table_falls_back_to_full_catalogue() {
    let p = processed();
    let session = InferenceSession::new(&Tableless, &p, two_stage_cfg(QuantLevel::I8, (p.num_pois / 3).max(8)));
    assert!(session.retrieval().is_none(), "tableless model must not build retrieval state");
    for inst in &p.eval {
        let rec = session.serve_one(inst);
        assert_eq!(rec.scored, p.num_pois, "fallback must score the whole catalogue");
        assert!(!rec.items.is_empty());
    }
}

/// Hot reload requantizes on publish: a checkpoint with a well-behaved table
/// publishes *with* an attached retrieval state; a follow-up checkpoint
/// whose table saturates f16 (dequant error far beyond the bound) still
/// publishes — weights are valid, the canary passes — but with the
/// retrieval state refused, so replicas degrade to exact full-scan scoring
/// rather than serving garbage embeddings.
#[test]
fn reload_requantizes_on_publish_and_rejects_bad_tables() {
    let p = processed();
    let (rows, d) = (p.num_pois + 1, 8);
    let dir = std::env::temp_dir()
        .join(format!("stisan_two_stage_reload_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mgr = CheckpointManager::new(&dir, 8).expect("checkpoint dir");

    let shared = SharedModel::new(TableModel::lossless_grid(p.num_pois, d), 0);
    let w = ReloadWatcher::new(
        mgr,
        shared.clone(),
        &p,
        move |path| TableModel::load(path, rows, d),
        CanaryConfig::default(),
    )
    .with_retrieval(QuantLevel::F16);

    // Epoch 1: a clean table → published with retrieval attached at f16.
    TableModel::lossless_grid(p.num_pois, d).save(w.manager(), 1).unwrap();
    let report = w.poll();
    assert_eq!(report.published, Some(1));
    let epoch = shared.current();
    let state = epoch.retrieval.as_ref().expect("clean table must attach retrieval");
    assert_eq!(state.table.level(), QuantLevel::F16);
    assert_eq!(state.table.rows(), rows);

    // Epoch 2: saturating table → published, but retrieval refused.
    TableModel::saturating(p.num_pois, d).save(w.manager(), 2).unwrap();
    let report = w.poll();
    assert_eq!(report.published, Some(2), "weights themselves are valid and must publish");
    let epoch = shared.current();
    assert!(
        epoch.retrieval.is_none(),
        "saturating table must not attach a retrieval state"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
