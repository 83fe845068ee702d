//! Tape/frozen parity: for every model in the zoo, `FrozenScorer::score_frozen`
//! must return **bit-for-bit** the same scores as the tape-based
//! `Recommender::score` — the guarantee that makes the serving engine safe to
//! trust with evaluation-grade rankings (DESIGN.md §9).
//!
//! Both paths run the same backend-generic forward code; these tests pin the
//! guarantee against regressions (e.g. a kernel reimplemented differently on
//! one backend), including across a checkpoint save/load round-trip.

use stisan_core::{StiSan, StisanConfig};
use stisan_data::{generate, preprocess, DatasetPreset, GenConfig, PrepConfig, Processed};
use stisan_eval::{build_candidates, FrozenScorer};
use stisan_models::common::TrainConfig;
use stisan_models::{AttentionMode, PositionMode, SasRec, TiSasRec};

fn processed() -> Processed {
    let cfg = GenConfig {
        users: 25,
        pois: 160,
        mean_seq_len: 28.0,
        ..DatasetPreset::Gowalla.config(0.01)
    };
    let d = generate(&cfg, 4242);
    preprocess(&d, &PrepConfig { max_len: 10, min_user_checkins: 15, min_poi_interactions: 2 })
}

fn tiny_train() -> TrainConfig {
    TrainConfig {
        dim: 16,
        blocks: 2,
        epochs: 1,
        batch: 8,
        dropout: 0.2, // non-zero on purpose: eval must ignore it identically
        negatives: 3,
        neg_pool: 40,
        ..Default::default()
    }
}

/// Asserts bitwise equality of tape and frozen scores on every eval
/// instance's candidate list.
fn assert_parity<M: FrozenScorer>(model: &M, data: &Processed) {
    let cands = build_candidates(data, 20);
    assert!(!data.eval.is_empty(), "need eval instances for a meaningful test");
    for (inst, c) in data.eval.iter().zip(&cands.candidates) {
        let tape = model.score(data, inst, c);
        let frozen = model.score_frozen(data, inst, c);
        assert_eq!(tape.len(), frozen.len(), "{}: length mismatch", model.name());
        for (i, (t, f)) in tape.iter().zip(&frozen).enumerate() {
            assert_eq!(
                t.to_bits(),
                f.to_bits(),
                "{}: score {i} diverged: tape {t} vs frozen {f}",
                model.name()
            );
        }
    }
}

#[test]
fn stisan_frozen_matches_tape_bitwise() {
    let p = processed();
    let mut m = StiSan::new(&p, StisanConfig { train: tiny_train(), ..Default::default() });
    m.fit(&p);
    assert_parity(&m, &p);
}

#[test]
fn stisan_ablations_frozen_match_tape_bitwise() {
    // The geo-encoder-free and TAAD-free variants exercise different scoring
    // code paths (plain concat-free embedding, last-step dot product).
    let p = processed();
    for cfg in [
        StisanConfig { train: tiny_train(), ..Default::default() }.remove_ge(),
        StisanConfig { train: tiny_train(), ..Default::default() }.remove_taad(),
    ] {
        let mut m = StiSan::new(&p, cfg);
        m.fit(&p);
        assert_parity(&m, &p);
    }
}

#[test]
fn sasrec_frozen_matches_tape_bitwise() {
    let p = processed();
    let mut m = SasRec::new(&p, tiny_train(), PositionMode::Tape, AttentionMode::Iaab);
    m.fit(&p);
    assert_parity(&m, &p);
}

#[test]
fn tisasrec_frozen_matches_tape_bitwise() {
    let p = processed();
    let mut m = TiSasRec::new(&p, tiny_train());
    m.fit(&p);
    assert_parity(&m, &p);
}

#[test]
fn checkpoint_roundtrip_preserves_frozen_scores_bitwise() {
    let p = processed();
    let mut trained = StiSan::new(&p, StisanConfig { train: tiny_train(), ..Default::default() });
    trained.fit(&p);

    let dir = std::env::temp_dir().join(format!("stisan-serve-parity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("model.ckpt");
    trained.save(&path).expect("save checkpoint");

    let mut restored = StiSan::new(&p, StisanConfig { train: tiny_train(), ..Default::default() });
    restored.load(&path).expect("load checkpoint");
    let _ = std::fs::remove_dir_all(&dir);

    let cands = build_candidates(&p, 20);
    for (inst, c) in p.eval.iter().zip(&cands.candidates) {
        let a = trained.score_frozen(&p, inst, c);
        let b = restored.score_frozen(&p, inst, c);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        assert_eq!(bits(&a), bits(&b), "checkpoint round-trip changed frozen scores");
    }
    // And the restored model still matches its own tape path.
    assert_parity(&restored, &p);
}
