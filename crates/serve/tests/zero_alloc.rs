//! The allocation gate: a warmed-up [`InferenceSession::serve_one_into`]
//! call performs **zero heap allocations** (DESIGN.md §14).
//!
//! The binary installs [`stisan_obs::alloc::CountingAlloc`] as the global
//! allocator and measures the thread-local allocation counters around
//! steady-state serves. Two models are gated: a dedicated pure-`Exec`
//! scorer (isolates the engine + backend behavior) and the full STiSAN
//! model — request prep (sequence batching, positional encodings, interval
//! matrices, masks) now runs through pooled `_into` buffers held in the
//! arena's scratch slot, so the *entire* `serve_one_into` call is
//! allocation-free at steady state, prep included.
//!
//! Both gates call `stisan_obs::init()` before warm-up, because that is how
//! the gateway ships: every counter and histogram on the serve path records
//! for real, and a registry call on a name it has already seen allocates
//! nothing.
//!
//! A third gate holds the supervised path to a constant: one warm batch of
//! one through [`ReplicatedEngine::serve_outcomes`] — what the gateway
//! dispatcher calls per request at low load — allocates only its routing
//! and result bookkeeping, independent of the candidate count.

use std::sync::Mutex;

use stisan_data::{generate, preprocess, DatasetPreset, EvalInstance, GenConfig, PrepConfig,
                  Processed};
use stisan_eval::{FrozenScorer, Recommender};
use stisan_obs::TraceCtx;
use stisan_serve::{
    EngineBackend, InferenceSession, Recommendation, ReplicatedEngine, ServeConfig, SharedModel,
    SupervisorConfig,
};
use stisan_tensor::{Arena, Array, Exec, NoGrad};

use rand::rngs::StdRng;
use rand::SeedableRng;

#[global_allocator]
static ALLOC: stisan_obs::alloc::CountingAlloc = stisan_obs::alloc::CountingAlloc::system();

fn processed() -> Processed {
    processed_with(160)
}

fn processed_with(pois: usize) -> Processed {
    let cfg = GenConfig {
        users: 25,
        pois,
        mean_seq_len: 28.0,
        ..DatasetPreset::Gowalla.config(0.01)
    };
    let d = generate(&cfg, 99);
    preprocess(&d, &PrepConfig { max_len: 10, min_user_checkins: 15, min_poi_interactions: 2 })
}

/// A minimal frozen scorer with the same serving shape as the real models
/// (embedding gather → matmul against a query), but with no per-request
/// prep: every scratch byte comes from the arena, so it isolates the
/// engine + backend allocation behavior that this gate enforces.
struct GateScorer {
    /// `[num_pois + 1, d]` candidate embedding table (row 0 = padding).
    table: Array,
    /// `[d, 1]` fixed query vector.
    query: Array,
    /// Reusable id buffer (`gather` wants `usize` ids; the warm capacity
    /// makes the u32 → usize conversion allocation-free).
    ids: Mutex<Vec<usize>>,
}

impl GateScorer {
    fn new(num_pois: usize, dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        GateScorer {
            table: Array::uniform(vec![num_pois + 1, dim], -1.0, 1.0, &mut rng),
            query: Array::uniform(vec![dim, 1], -1.0, 1.0, &mut rng),
            ids: Mutex::new(Vec::new()),
        }
    }
}

impl Recommender for GateScorer {
    fn name(&self) -> String {
        "gate".into()
    }

    fn score(&self, data: &Processed, inst: &EvalInstance, candidates: &[u32]) -> Vec<f32> {
        self.score_frozen(data, inst, candidates)
    }
}

impl FrozenScorer for GateScorer {
    fn score_frozen(&self, data: &Processed, inst: &EvalInstance, candidates: &[u32]) -> Vec<f32> {
        let mut arena = Arena::new();
        let mut out = Vec::new();
        self.score_frozen_into(data, inst, candidates, &mut arena, &mut out);
        out
    }

    fn score_frozen_into(
        &self,
        _data: &Processed,
        _inst: &EvalInstance,
        candidates: &[u32],
        arena: &mut Arena,
        out: &mut Vec<f32>,
    ) {
        let mut ids = self.ids.lock().unwrap_or_else(|e| e.into_inner());
        ids.clear();
        ids.extend(candidates.iter().map(|&c| c as usize));
        let mut g = NoGrad::with_arena(std::mem::take(arena));
        let t = g.constant(self.table.clone());
        let q = g.constant(self.query.clone());
        let e = g.gather(t, &ids, &[ids.len()]);
        let s = g.matmul(e, q);
        out.clear();
        out.extend_from_slice(g.value(s).data());
        *arena = g.into_arena();
    }
}

/// Measures the thread-local allocation delta across `n` serves of the same
/// request mix with caller-held scratch.
fn measure<M: FrozenScorer + Sync>(
    session: &InferenceSession<M>,
    insts: &[EvalInstance],
    scratch: &mut stisan_serve::ServeScratch,
    rec: &mut Recommendation,
    rounds: usize,
) -> (u64, u64) {
    assert!(stisan_obs::alloc::active(), "counting allocator is not active");
    let a0 = stisan_obs::alloc::thread_stats();
    for _ in 0..rounds {
        for inst in insts {
            session.serve_one_into(inst, scratch, rec);
        }
    }
    let a1 = stisan_obs::alloc::thread_stats();
    (a1.allocs.saturating_sub(a0.allocs), a1.bytes.saturating_sub(a0.bytes))
}

/// The gate itself: after warm-up, serving is allocation-free — zero
/// allocations, zero bytes — across many requests. The same requests on a
/// cold scratch allocate, proving the counter actually bites (the gate
/// cannot pass vacuously).
#[test]
fn warm_arena_serving_is_allocation_free() {
    let p = processed();
    assert!(p.eval.len() >= 2, "need several eval instances");
    let m = GateScorer::new(p.num_pois, 16, 7);

    let session = InferenceSession::new(&m, &p, ServeConfig::default());
    stisan_obs::init();

    let mut scratch = session.checkout_scratch();
    let mut rec = Recommendation::default();

    // Warm-up: first passes size every pool (arena size classes, candidate
    // and score vectors, top-K heap, the gate's id buffer) and create the
    // serve path's registry cells.
    for _ in 0..3 {
        for inst in &p.eval {
            session.serve_one_into(inst, &mut scratch, &mut rec);
        }
    }
    let baseline_items = rec.items.clone();

    stisan_obs::alloc::enable();
    let (allocs, bytes) = measure(&session, &p.eval, &mut scratch, &mut rec, 8);
    assert_eq!(
        (allocs, bytes),
        (0, 0),
        "steady-state serving allocated: {allocs} allocations, {bytes} bytes"
    );

    // Sanity: the counter sees a cold scratch size its pools on the very
    // same requests, so the zero above is a real measurement, not a dead
    // counter.
    let mut cold = stisan_serve::ServeScratch::new();
    let (allocs_cold, _) = measure(&session, &p.eval, &mut cold, &mut rec, 1);
    assert!(
        allocs_cold > 0,
        "cold-scratch serving shows zero allocations — the gate is not measuring"
    );

    // And the served results did not change while we were measuring.
    session.serve_one_into(p.eval.last().expect("non-empty"), &mut scratch, &mut rec);
    assert_eq!(rec.items, baseline_items, "steady-state results drifted");
    session.checkin_scratch(scratch);
}

/// The same gate against the full STiSAN model: after warm-up, serving — request prep (batching, positions, interval matrices, masks)
/// *and* the frozen forward — performs zero heap allocations. This is the
/// production claim for the real model, not a proxy scorer.
#[test]
fn warm_stisan_serving_is_allocation_free() {
    use stisan_core::{StiSan, StisanConfig};
    use stisan_models::TrainConfig;

    let p = processed();
    assert!(p.eval.len() >= 2, "need several eval instances");
    let train = TrainConfig { dim: 16, blocks: 1, epochs: 0, batch: 8, seed: 5, ..Default::default() };
    let m = StiSan::new(&p, StisanConfig { train, ..Default::default() });

    let session = InferenceSession::new(&m, &p, ServeConfig::default());
    stisan_obs::init();
    let mut scratch = session.checkout_scratch();
    let mut rec = Recommendation::default();

    // Warm-up: sizes the arena classes, the prep scratch slot (SeqBatch,
    // positional/interval buffers), candidate + score vectors, top-K heap,
    // the model's cached candidate table, and the registry cells.
    for _ in 0..3 {
        for inst in &p.eval {
            session.serve_one_into(inst, &mut scratch, &mut rec);
        }
    }
    let baseline_items = rec.items.clone();

    stisan_obs::alloc::enable();
    let (allocs, bytes) = measure(&session, &p.eval, &mut scratch, &mut rec, 8);
    assert_eq!(
        (allocs, bytes),
        (0, 0),
        "steady-state full-model serving allocated: {allocs} allocations, {bytes} bytes"
    );

    // Results did not drift while measuring.
    session.serve_one_into(p.eval.last().expect("non-empty"), &mut scratch, &mut rec);
    assert_eq!(rec.items, baseline_items, "steady-state results drifted");
    session.checkin_scratch(scratch);
}

/// Allocations one warm batch-of-1 `serve_outcomes` call may make: the
/// routing vectors, one group's queues, the outcome vector and the returned
/// item list. No thread is spawned for a one-group batch and the replica's
/// scratch is warm, so nothing here scales with the catalogue.
const REPLICATED_BATCH1_ALLOCS: u64 = 12;

/// The supervised path's gate: a warm batch of 1 runs entirely on the
/// caller's thread (so the thread-local counters see all of it) and costs
/// the same small number of allocations whether it scores 160 candidates or
/// 640.
#[test]
fn warm_replicated_batch_of_one_allocates_a_small_constant() {
    stisan_obs::init();
    let per_call = |pois: usize| -> u64 {
        let p = processed_with(pois);
        let m = GateScorer::new(p.num_pois, 16, 7);
        let engine = ReplicatedEngine::new(
            SharedModel::new(m, 1),
            &p,
            ServeConfig::default(),
            SupervisorConfig::default(),
        );
        let mut traces = [TraceCtx::new(1)];
        let mut serve_all = || {
            for inst in &p.eval {
                let out = engine.serve_outcomes(std::slice::from_ref(inst), 0, &mut traces);
                assert_eq!(out[0].as_ref().expect("healthy pool").rec.scored, p.num_pois);
            }
        };
        for _ in 0..3 {
            serve_all();
        }
        stisan_obs::alloc::enable();
        assert!(stisan_obs::alloc::active(), "counting allocator is not active");
        let a0 = stisan_obs::alloc::thread_stats().allocs;
        serve_all();
        let calls = p.eval.len() as u64;
        let allocs = stisan_obs::alloc::thread_stats().allocs - a0;
        assert_eq!(allocs % calls, 0, "{allocs} allocations over {calls} identical calls");
        allocs / calls
    };
    let (small, large) = (per_call(160), per_call(640));
    assert_eq!(small, large, "allocations grew with the candidate count");
    assert!(
        (1..=REPLICATED_BATCH1_ALLOCS).contains(&small),
        "a warm batch of 1 made {small} allocations (gate {REPLICATED_BATCH1_ALLOCS})"
    );
    println!("warm batch-of-1 serve_outcomes: {small} allocations per call");
}

/// The gate model itself honors the `score_frozen_into` contract: warm and
/// poisoned arenas reproduce fresh scores bit-for-bit (same invariant the
/// real models are held to in `tests/arena_parity.rs`).
#[test]
fn gate_scorer_is_arena_parity_clean() {
    let p = processed();
    let m = GateScorer::new(p.num_pois, 16, 7);
    let inst = &p.eval[0];
    let candidates: Vec<u32> = (1..=p.num_pois as u32).collect();
    let fresh = m.score_frozen(&p, inst, &candidates);
    let mut arena = Arena::new();
    let mut out = Vec::new();
    m.score_frozen_into(&p, inst, &candidates, &mut arena, &mut out);
    arena.poison(f32::NAN);
    m.score_frozen_into(&p, inst, &candidates, &mut arena, &mut out);
    let fresh_bits: Vec<u32> = fresh.iter().map(|v| v.to_bits()).collect();
    let out_bits: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
    assert_eq!(fresh_bits, out_bits, "gate scorer diverged under arena reuse");
}
