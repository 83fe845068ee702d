//! The two-stage acceptance gate (property test): on the Gowalla synthetic
//! preset, serving STiSAN through quadkey candidate generation plus a
//! quantized (i8) candidate table loses at most 0.05 of Recall@20
//! against exact full-catalogue scoring — across dataset/model seeds, with a
//! candidate budget strictly smaller than the catalogue (the pruning is
//! never vacuous).
//!
//! The end-to-end ledger (`crates/e2e_bench/baseline/BENCH_e2e.json`:
//! `two_stage_batch_100k`, `retrieval.table.bytes`) reports the throughput
//! and memory side of the same trade; this test is the ground truth on
//! ranking quality.

use proptest::prelude::*;
use stisan::core::{StiSan, StisanConfig};
use stisan::data::{generate, preprocess, DatasetPreset, GenConfig, PrepConfig, Processed};
use stisan::eval::FrozenScorer;
use stisan::models::TrainConfig;
use stisan::serve::{InferenceSession, PruningPolicy, QuantLevel, ServeConfig};

const TOP_K: usize = 20;

fn processed(seed: u64) -> Processed {
    let cfg = GenConfig {
        users: 80,
        pois: 220,
        mean_seq_len: 28.0,
        ..DatasetPreset::Gowalla.config(0.01)
    };
    let d = generate(&cfg, seed);
    preprocess(&d, &PrepConfig { max_len: 10, min_user_checkins: 15, min_poi_interactions: 2 })
}

/// Recall@20 of one serving configuration: the fraction of held-out targets
/// recovered in the top 20.
fn recall_at_20(session: &InferenceSession<StiSan>, p: &Processed) -> f64 {
    let mut scratch = session.checkout_scratch();
    let mut rec = stisan::serve::Recommendation::default();
    let mut hits = 0usize;
    for inst in &p.eval {
        session.serve_one_into(inst, &mut scratch, &mut rec);
        hits += usize::from(rec.items.iter().any(|&(id, _)| id == inst.target));
    }
    session.checkin_scratch(scratch);
    hits as f64 / p.eval.len() as f64
}

proptest! {
    // Each case trains a model, so keep the count small; three seeds still
    // cover distinct geography layouts, check-in mixes, and init draws.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Acceptance: two-stage Recall@20 over the i8 table within 0.05 of the exact
    /// full scan, with a non-vacuous candidate budget.
    #[test]
    fn two_stage_recall_within_5_points_of_exact(seed in 0u64..1000) {
        let p = processed(seed);
        prop_assume!(p.eval.len() >= 40); // enough instances for 0.05 granularity

        let train = TrainConfig {
            dim: 16,
            blocks: 1,
            epochs: 1,
            batch: 16,
            seed,
            ..Default::default()
        };
        let mut model = StiSan::new(&p, StisanConfig { train, ..Default::default() });
        model.fit(&p);
        prop_assert!(model.export_candidate_table().is_some());

        // Budget strictly below the catalogue so stage one actually prunes.
        let budget = (p.num_pois / 2).max(16);
        prop_assert!(budget < p.num_pois, "catalogue too small for a pruning budget");

        let cfg = |quant: QuantLevel, pruning: PruningPolicy| ServeConfig {
            top_k: TOP_K,
            pruning,
            quant,
        };
        let two_stage = PruningPolicy::TwoStage { budget, max_ring: 6 };

        let exact = InferenceSession::new(&model, &p, cfg(QuantLevel::F32, PruningPolicy::Full));
        let r_exact = recall_at_20(&exact, &p);

        let sess = InferenceSession::new(&model, &p, cfg(QuantLevel::I8, two_stage));
        prop_assert!(sess.retrieval().is_some(), "retrieval state must build");
        let r = recall_at_20(&sess, &p);
        prop_assert!(
            r >= r_exact - 0.05,
            "seed {seed}: i8 two-stage Recall@20 {r:.3} fell more than 0.05 \
             below exact {r_exact:.3}"
        );
    }
}
