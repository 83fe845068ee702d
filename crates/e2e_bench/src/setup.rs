//! Set-up: seed → synthetic catalogue → trained STiSAN → retrieval state →
//! supervised engine, each stage timed. `setup_s` is the wall time of all of
//! it, so work a later change moves out of the request path and into any of
//! these stages still shows.

use std::sync::Arc;
use std::time::Instant;

use stisan_core::{StiSan, StisanConfig};
use stisan_data::{generate, preprocess, DatasetPreset, GenConfig, PrepConfig, Processed};
use stisan_eval::FrozenScorer;
use stisan_models::TrainConfig;
use stisan_retrieval::{CandidateIndex, QuantizedTable, RetrievalState, DEFAULT_INDEX_LEVEL};
use stisan_serve::{
    PruningPolicy, QuantLevel, ReplicatedEngine, ServeConfig, SharedModel, SupervisorConfig,
};

/// Synthetic users per catalogue; each contributes one eval instance, and
/// those instances are the request pool.
const USERS: usize = 2000;
/// Training windows the model sees: 64 optimiser steps, so the weights are
/// not at their initial values. Convergence is not needed to measure serving.
const TRAIN_WINDOWS: usize = 1024;
/// Nearest-neighbour pool the negative sampler draws from. The workspace
/// default of 2000 takes 29 s to build at 100k POIs and only affects which
/// negatives training sees.
const NEG_POOL: usize = 100;

/// Recommendations per request, everywhere.
pub const TOP_K: usize = 10;

/// Seconds spent in each set-up stage, and in all of set-up.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub preprocess_s: f64,
    pub fit_s: f64,
    pub table_build_s: f64,
    pub index_build_s: f64,
    pub quantize_s: f64,
    pub total_s: f64,
}

/// What a workload serves with: how candidates are chosen, at what table
/// precision, on how many replicas.
#[derive(Clone, Copy, Debug)]
pub struct Backend {
    pub pruning: PruningPolicy,
    pub quant: QuantLevel,
    pub replicas: usize,
}

impl Backend {
    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            top_k: TOP_K,
            pruning: self.pruning,
            quant: self.quant,
            ..ServeConfig::default()
        }
    }
}

fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *slot = t0.elapsed().as_secs_f64();
    out
}

/// Generates the catalogue and trains the model on it.
pub fn train(pois: usize, seed: u64, times: &mut SetupTimes) -> (Processed, StiSan) {
    let t0 = Instant::now();
    let gen_cfg = GenConfig {
        users: USERS,
        pois,
        ..DatasetPreset::Gowalla.config(0.1)
    };
    let raw = timed(&mut times.generate_s, || generate(&gen_cfg, seed));
    // No cold-POI filter: the catalogue keeps all `pois` entries.
    let prep = PrepConfig {
        max_len: 20,
        min_user_checkins: 20,
        min_poi_interactions: 0,
    };
    let mut data = timed(&mut times.preprocess_s, || preprocess(&raw, &prep));
    drop(raw);
    data.train.truncate(TRAIN_WINDOWS);
    let train = TrainConfig {
        dim: 64,
        blocks: 2,
        epochs: 1,
        batch: 16,
        neg_pool: NEG_POOL,
        seed,
        ..TrainConfig::default()
    };
    let model = timed(&mut times.fit_s, || {
        let mut model = StiSan::new(
            &data,
            StisanConfig {
                train,
                ..StisanConfig::default()
            },
        );
        model.fit(&data);
        model
    });
    times.total_s += t0.elapsed().as_secs_f64();
    (data, model)
}

/// Builds the serving side over a trained model: candidate table, quadkey
/// index, quantised table, replica pool.
pub fn engine<'d>(
    data: &'d Processed,
    model: StiSan,
    backend: Backend,
    times: &mut SetupTimes,
) -> ReplicatedEngine<'d, StiSan> {
    let t0 = Instant::now();
    let retrieval = match backend.pruning {
        PruningPolicy::TwoStage { .. } => {
            let table = timed(&mut times.table_build_s, || {
                model
                    .export_candidate_table()
                    .expect("STiSAN exports a candidate table")
            });
            let index = timed(&mut times.index_build_s, || {
                CandidateIndex::build(data, DEFAULT_INDEX_LEVEL)
            });
            let table = timed(&mut times.quantize_s, || {
                QuantizedTable::build(table, backend.quant)
            });
            Some(Arc::new(RetrievalState { index, table }))
        }
        _ => {
            // Full scan scores through the same table; build it now so the
            // first request does not pay for it.
            timed(&mut times.table_build_s, || {
                model.export_candidate_table();
            });
            None
        }
    };
    let engine = ReplicatedEngine::new(
        SharedModel::new_with(model, 0, retrieval),
        data,
        backend.serve_config(),
        SupervisorConfig {
            replicas: backend.replicas,
            ..SupervisorConfig::default()
        },
    );
    times.total_s += t0.elapsed().as_secs_f64();
    engine
}
