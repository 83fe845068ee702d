//! Arena-serving parity: `FrozenScorer::score_frozen_into` drawing every
//! scratch buffer from a recycled (even poisoned) arena must be
//! **bit-for-bit** identical to fresh-allocation frozen scoring — and both
//! to the tape. This is the guarantee that lets the engine score every
//! request from recycled arena storage without any numerical risk
//! (DESIGN.md §14).

use stisan_core::{StiSan, StisanConfig};
use stisan_data::{generate, preprocess, DatasetPreset, GenConfig, PrepConfig, Processed};
use stisan_eval::{build_candidates, FrozenScorer};
use stisan_models::common::TrainConfig;
use stisan_models::{AttentionMode, PositionMode, SasRec};
use stisan_obs::TraceCtx;
use stisan_serve::{
    EngineBackend, InferenceSession, ReplicatedEngine, ServeConfig, SharedModel, SupervisorConfig,
};
use stisan_tensor::Arena;

fn processed() -> Processed {
    let cfg = GenConfig {
        users: 25,
        pois: 160,
        mean_seq_len: 28.0,
        ..DatasetPreset::Gowalla.config(0.01)
    };
    let d = generate(&cfg, 777);
    preprocess(&d, &PrepConfig { max_len: 10, min_user_checkins: 15, min_poi_interactions: 2 })
}

fn tiny_train() -> TrainConfig {
    TrainConfig {
        dim: 16,
        blocks: 2,
        epochs: 1,
        batch: 8,
        dropout: 0.2,
        negatives: 3,
        neg_pool: 40,
        ..Default::default()
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// One warm arena reused across every eval instance must reproduce
/// fresh-alloc frozen scores exactly, for every model that overrides
/// `score_frozen_into`.
fn assert_arena_parity<M: FrozenScorer>(model: &M, data: &Processed) {
    let cands = build_candidates(data, 20);
    assert!(!data.eval.is_empty(), "need eval instances for a meaningful test");
    let mut arena = Arena::new();
    let mut out = Vec::new();
    for (inst, c) in data.eval.iter().zip(&cands.candidates) {
        let fresh = model.score_frozen(data, inst, c);
        model.score_frozen_into(data, inst, c, &mut arena, &mut out);
        assert_eq!(
            bits(&fresh),
            bits(&out),
            "{}: arena scoring diverged from fresh frozen scoring",
            model.name()
        );
    }
}

#[test]
fn stisan_arena_scores_match_fresh_bitwise() {
    let p = processed();
    let mut m = StiSan::new(&p, StisanConfig { train: tiny_train(), ..Default::default() });
    m.fit(&p);
    assert_arena_parity(&m, &p);
}

#[test]
fn stisan_no_geo_variant_arena_matches_fresh() {
    // The geo-free variant exercises the table-less embedding path.
    let p = processed();
    let mut m =
        StiSan::new(&p, StisanConfig { train: tiny_train(), ..Default::default() }.remove_ge());
    m.fit(&p);
    assert_arena_parity(&m, &p);
}

#[test]
fn sasrec_arena_scores_match_fresh_bitwise() {
    let p = processed();
    let mut m = SasRec::new(&p, tiny_train(), PositionMode::Tape, AttentionMode::Iaab);
    m.fit(&p);
    assert_arena_parity(&m, &p);
}

/// Poisoning the arena between requests must be invisible: recycled buffer
/// contents can never leak into a score (set-semantics kernels).
#[test]
fn poisoned_arena_reserve_is_bitwise_stable() {
    let p = processed();
    let mut m = StiSan::new(&p, StisanConfig { train: tiny_train(), ..Default::default() });
    m.fit(&p);
    let cands = build_candidates(&p, 20);
    let inst = &p.eval[0];
    let c = &cands.candidates[0];

    let baseline = m.score_frozen(&p, inst, c);
    let mut arena = Arena::new();
    let mut out = Vec::new();
    // Warm the arena once, then attack it with sentinels between re-serves.
    m.score_frozen_into(&p, inst, c, &mut arena, &mut out);
    assert_eq!(bits(&baseline), bits(&out), "cold arena serve diverged");
    for sentinel in [f32::NAN, f32::INFINITY, -1.0e30, -0.0] {
        arena.poison(sentinel);
        m.score_frozen_into(&p, inst, c, &mut arena, &mut out);
        assert_eq!(
            bits(&baseline),
            bits(&out),
            "poison {sentinel:?} leaked into served scores"
        );
    }
    // The warm arena is actually being used (not silently re-allocating).
    assert!(arena.stats().hits > 0, "arena never hit: {:?}", arena.stats());
}

/// `serve_one` (pooled scratch) equals an explicit `serve_one_into` +
/// caller-held scratch reuse loop.
#[test]
fn serve_one_matches_serve_one_into_with_reused_scratch() {
    let p = processed();
    let mut m = StiSan::new(&p, StisanConfig { train: tiny_train(), ..Default::default() });
    m.fit(&p);

    let session = InferenceSession::new(&m, &p, ServeConfig::default());
    let mut scratch = session.checkout_scratch();
    let mut rec = stisan_serve::Recommendation::default();
    for inst in &p.eval {
        let a = session.serve_one(inst);
        session.serve_one_into(inst, &mut scratch, &mut rec);
        assert_eq!(a.items, rec.items, "serve_one_into diverged from serve_one");
        assert_eq!(a.scored, rec.scored);
    }
    session.checkin_scratch(scratch);
}

/// A replicated batch over the trained model matches the sequential
/// `serve_one` loop for every replica count (which replica's pooled scratch
/// a request lands on must not matter).
#[test]
fn replicated_batch_matches_sequential() {
    let p = processed();
    let mut m = StiSan::new(&p, StisanConfig { train: tiny_train(), ..Default::default() });
    m.fit(&p);
    let seq: Vec<_> = {
        let s = InferenceSession::new(&m, &p, ServeConfig::default());
        p.eval.iter().map(|i| s.serve_one(i)).collect()
    };
    let shared = SharedModel::new(m, 0);
    for replicas in [1usize, 2, 5] {
        let eng = ReplicatedEngine::new(
            shared.clone(),
            &p,
            ServeConfig::default(),
            SupervisorConfig { replicas, ..SupervisorConfig::default() },
        );
        let mut traces: Vec<TraceCtx> = (0..p.eval.len() as u64).map(TraceCtx::new).collect();
        let par = eng.serve_outcomes(&p.eval, 0, &mut traces);
        assert_eq!(par.len(), seq.len());
        for (a, b) in par.iter().zip(&seq) {
            let a = a.as_ref().expect("healthy pool must answer");
            assert_eq!(a.rec.items, b.items, "replicas={replicas}");
        }
    }
}
