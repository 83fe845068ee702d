//! The inference engine: frozen-forward scoring, two-stage retrieval,
//! bounded top-K — one request at a time. Batches, parallelism and
//! supervision live in [`crate::ReplicatedEngine`].

use std::sync::{Arc, Mutex};
use std::time::Instant;

use stisan_data::{EvalInstance, Processed};
use stisan_eval::FrozenScorer;
use stisan_retrieval::{QuantLevel, RetrievalState, RetrievalStats, SeenSet};
use stisan_tensor::{Arena, Array, Lanes};

use crate::topk::{top_k_into, TopKScratch};

/// How the candidate pool is narrowed before scoring.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PruningPolicy {
    /// Score every POI in the catalogue.
    Full,
    /// Two-stage retrieval for million-POI catalogues (DESIGN.md §15):
    /// stage one generates ~`budget` candidates from a quadkey inverted
    /// index (the request's own revisits, concentric tile rings around the
    /// last check-in capped at `max_ring`, and a popularity prior for
    /// sparse neighbourhoods); stage two scores only those on the frozen
    /// model, with candidate-embedding rows gathered from the table held at
    /// [`ServeConfig::quant`] precision.
    ///
    /// Falls back to the full catalogue when the model exports no candidate
    /// table ([`FrozenScorer::export_candidate_table`] is `None`) or the
    /// session was built without a [`RetrievalState`].
    TwoStage {
        /// Target candidate count (ring expansion stops after the first
        /// completed ring meeting it; popularity tops up to exactly this).
        budget: usize,
        /// Hard cap on the Chebyshev tile-ring radius.
        max_ring: u32,
    },
}

/// Serving configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Recommendations returned per request.
    pub top_k: usize,
    /// Candidate pruning policy.
    pub pruning: PruningPolicy,
    /// Precision of the candidate-embedding table under
    /// [`PruningPolicy::TwoStage`] (ignored under [`PruningPolicy::Full`]):
    /// `F32` scores exactly through the model's own table; `I8`
    /// gather-dequantizes rows from a quantized copy into
    /// [`FrozenScorer::score_frozen_with_embeds`], trading a documented
    /// max-abs embedding error for ~3.6× less table memory.
    pub quant: QuantLevel,
}

impl Default for ServeConfig {
    /// Top-10, no pruning, exact (f32) tables.
    fn default() -> Self {
        ServeConfig { top_k: 10, pruning: PruningPolicy::Full, quant: QuantLevel::F32 }
    }
}

/// Per-request reusable state: the tensor arena plus every engine-side
/// buffer (candidate ids, scores, top-K heap, ranked indices).
///
/// [`InferenceSession`] keeps a pool of these — one per concurrently active
/// request — so a warmed-up [`InferenceSession::serve_one_into`] call
/// performs zero heap allocations (`tests/zero_alloc.rs` enforces this with
/// a counting global allocator).
#[derive(Default)]
pub struct ServeScratch {
    arena: Arena,
    cands: Vec<u32>,
    scores: Vec<f32>,
    topk: TopKScratch,
    ranked: Vec<(usize, f32)>,
    /// Stage-one dedup set for [`PruningPolicy::TwoStage`].
    seen: SeenSet,
    /// Candidate ids widened to table-row indices for the dequant gather.
    rows: Vec<usize>,
}

impl ServeScratch {
    /// A cold scratch (first use warms it up).
    pub fn new() -> Self {
        Self::default()
    }

    /// A cold scratch whose forward passes split the fused decoder across
    /// `lanes` (a replica's helper threads; see `stisan_tensor::lanes`).
    pub fn with_lanes(lanes: Arc<Lanes>) -> Self {
        ServeScratch { arena: Arena::with_lanes(lanes), ..Self::default() }
    }

    /// Lanes this scratch's forward passes use (1 = the caller alone).
    pub fn lanes(&self) -> usize {
        self.arena.lanes().map_or(1, |l| l.count())
    }

    /// Arena statistics for the embedded tensor arena (observability).
    pub fn arena_stats(&self) -> stisan_tensor::ArenaStats {
        self.arena.stats()
    }
}

/// Publishes the `retrieval.table_bytes` / `retrieval.bytes_per_poi` gauges.
/// Called where retrieval state is built or installed (session build,
/// replica-pool build, hot-reload publish) — never per batch.
pub(crate) fn publish_retrieval_gauges(state: &RetrievalState) {
    let bytes = state.table_bytes() as f64;
    stisan_obs::gauge("retrieval.table_bytes", bytes);
    stisan_obs::gauge("retrieval.bytes_per_poi", bytes / state.index.num_pois().max(1) as f64);
}

/// Upper bound on pooled [`ServeScratch`] instances; beyond this,
/// checked-in scratches are dropped instead of pooled (bounds memory under a
/// transient worker spike).
const MAX_POOLED_SCRATCH: usize = 64;

/// One served recommendation list.
#[derive(Clone, Debug, Default)]
pub struct Recommendation {
    /// `(poi_id, score)` pairs, best first, at most `top_k` of them.
    pub items: Vec<(u32, f32)>,
    /// Size of the unpruned candidate pool (the full catalogue).
    pub pool: usize,
    /// Candidates actually scored after pruning (`== pool` under
    /// [`PruningPolicy::Full`] or after a fallback).
    pub scored: usize,
}

/// A loaded model ready to serve requests: frozen weights, no autodiff tape,
/// optional two-stage retrieval, arena-backed scoring.
///
/// The model must implement [`FrozenScorer`], whose contract guarantees
/// bit-identical scores to the tape-based evaluation path (see DESIGN.md §9
/// and `tests/parity.rs`). Weights come from wherever the model got them —
/// training in-process or a checkpoint restored with e.g. `StiSan::load`
/// (the `stisan_nn::serialize` format); the engine only reads them.
pub struct InferenceSession<'a, M: FrozenScorer + Sync> {
    model: &'a M,
    data: &'a Processed,
    cfg: ServeConfig,
    /// Two-stage retrieval state (index + quantized table), shared across
    /// sessions serving the same model epoch. `None` outside
    /// [`PruningPolicy::TwoStage`] or when the model exports no table.
    retrieval: Option<Arc<RetrievalState>>,
    /// Pool of per-request scratch state (arena + engine buffers). Callers
    /// check one out per request and return it warmed, so steady-state
    /// serving reuses buffers instead of allocating.
    scratch: Mutex<Vec<ServeScratch>>,
}

impl<'a, M: FrozenScorer + Sync> InferenceSession<'a, M> {
    /// Wraps a model and its dataset context for serving. Under
    /// [`PruningPolicy::TwoStage`] this builds the retrieval state (quadkey
    /// index + [`ServeConfig::quant`] table) from the model's exported
    /// candidate table — an O(catalogue) one-off; callers standing up many
    /// sessions over one model epoch should build the state once and share
    /// it via [`InferenceSession::with_retrieval`] instead.
    pub fn new(model: &'a M, data: &'a Processed, cfg: ServeConfig) -> Self {
        let retrieval = match cfg.pruning {
            PruningPolicy::TwoStage { .. } => model
                .export_candidate_table()
                .map(|t| Arc::new(RetrievalState::build(data, t, cfg.quant))),
            _ => None,
        };
        if let Some(state) = &retrieval {
            publish_retrieval_gauges(state);
        }
        Self::with_retrieval(model, data, cfg, retrieval)
    }

    /// [`InferenceSession::new`] with pre-built (epoch-shared) retrieval
    /// state — the constructor the replicated engine and hot-reload path
    /// use, so N replicas hold one index and one quantized table.
    pub fn with_retrieval(
        model: &'a M,
        data: &'a Processed,
        cfg: ServeConfig,
        retrieval: Option<Arc<RetrievalState>>,
    ) -> Self {
        InferenceSession { model, data, cfg, retrieval, scratch: Mutex::new(Vec::new()) }
    }

    /// The two-stage retrieval state, when active (clone the `Arc` to share
    /// it with further sessions over the same model epoch).
    pub fn retrieval(&self) -> Option<&Arc<RetrievalState>> {
        self.retrieval.as_ref()
    }

    /// Checks a scratch out of the pool (cold if the pool is empty).
    pub fn checkout_scratch(&self) -> ServeScratch {
        let mut pool = self.scratch.lock().unwrap_or_else(|e| e.into_inner());
        pool.pop().unwrap_or_default()
    }

    /// Returns a scratch to the pool, keeping its warmed-up buffers for the
    /// next request (dropped if the pool is already at capacity).
    pub fn checkin_scratch(&self, scratch: ServeScratch) {
        let mut pool = self.scratch.lock().unwrap_or_else(|e| e.into_inner());
        if pool.len() < MAX_POOLED_SCRATCH {
            pool.push(scratch);
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The dataset context requests are served against (catalogue size,
    /// locations, window length). The gateway validates wire requests
    /// against it before admission.
    pub fn data(&self) -> &Processed {
        self.data
    }

    /// The model being served.
    pub fn model(&self) -> &M {
        self.model
    }

    /// Builds the candidate id list for one request into `out` (cleared
    /// first): the full catalogue, or the two-stage candidates around the
    /// request's most recent check-in. Ids are sorted ascending so
    /// tie-breaking in [`top_k_into`] is independent of spatial-index
    /// iteration order. The [`PruningPolicy::Full`] path is allocation-free
    /// once `out` has warmed up to catalogue size.
    pub fn candidates_into(&self, inst: &EvalInstance, out: &mut Vec<u32>) {
        let mut seen = SeenSet::default();
        self.candidates_with(inst, &mut seen, out);
    }

    /// [`InferenceSession::candidates_into`] reusing the caller's stage-one
    /// dedup set (the zero-alloc serving path). Returns the stage-one
    /// provenance stats when [`PruningPolicy::TwoStage`] actually ran.
    fn candidates_with(
        &self,
        inst: &EvalInstance,
        seen: &mut SeenSet,
        out: &mut Vec<u32>,
    ) -> Option<RetrievalStats> {
        out.clear();
        match self.cfg.pruning {
            PruningPolicy::Full => out.extend(1..=self.data.num_pois as u32),
            PruningPolicy::TwoStage { budget, max_ring } => {
                let last = inst
                    .poi
                    .iter()
                    .rev()
                    .copied()
                    .find(|&p| p >= 1 && (p as usize) <= self.data.num_pois)
                    .unwrap_or(0);
                let state = match (&self.retrieval, last) {
                    // No table to retrieve against, or no anchor: degrade to
                    // the full catalogue rather than guessing.
                    (None, _) | (_, 0) => {
                        out.extend(1..=self.data.num_pois as u32);
                        return None;
                    }
                    (Some(state), _) => state,
                };
                let recent = &inst.poi[inst.valid_from.min(inst.poi.len())..];
                let stats = state.index.candidates_into(
                    self.data.loc(last),
                    recent,
                    budget,
                    max_ring,
                    seen,
                    out,
                );
                return Some(stats);
            }
        }
        None
    }

    /// Serves one request into caller-provided storage: prune, score on the
    /// frozen backend, select top-K. A warmed-up `scratch` makes the whole
    /// call allocation-free under [`PruningPolicy::Full`]
    /// (`tests/zero_alloc.rs`); results are always bit-identical to
    /// [`InferenceSession::serve_one`].
    ///
    /// Instrumented with `serve.latency_ms` (histogram) and
    /// `serve.pruned_candidates` (counter of candidates skipped by pruning).
    pub fn serve_one_into(
        &self,
        inst: &EvalInstance,
        scratch: &mut ServeScratch,
        rec: &mut Recommendation,
    ) {
        let t0 = Instant::now();
        let prof = stisan_obs::serve_profiling();
        let _frame = if prof { Some(stisan_obs::flame::frame("serve_one")) } else { None };
        let alloc0 = if prof && stisan_obs::alloc::active() {
            Some(stisan_obs::alloc::thread_stats())
        } else {
            None
        };
        let pool = self.data.num_pois;
        let stats = self.candidates_with(inst, &mut scratch.seen, &mut scratch.cands);
        if let Some(st) = stats {
            stisan_obs::observe("retrieval.candidates", st.candidates as f64);
            stisan_obs::observe(
                "retrieval.candidate_fraction",
                st.candidates as f64 / pool.max(1) as f64,
            );
            stisan_obs::observe(
                "retrieval.revisit_fraction",
                st.from_revisit as f64 / st.candidates.max(1) as f64,
            );
            stisan_obs::counter("retrieval.ring_expansions_total", st.ring_expansions as u64);
            stisan_obs::counter("retrieval.from_revisit_total", st.from_revisit as u64);
            stisan_obs::counter("retrieval.from_cells_total", st.from_cells as u64);
            stisan_obs::counter("retrieval.from_popularity_total", st.from_popularity as u64);
        }
        // Quantized two-stage scoring gathers candidate rows from the i8
        // table and hands them to the model pre-dequantized; every other
        // combination scores exactly through the model's own table.
        let quantized = match &self.retrieval {
            Some(state) if stats.is_some() && state.table.level() != QuantLevel::F32 => {
                Some(Arc::clone(state))
            }
            _ => None,
        };
        if let Some(state) = quantized {
            let (m, d) = (scratch.cands.len(), state.table.dim());
            scratch.rows.clear();
            scratch.rows.extend(scratch.cands.iter().map(|&c| c as usize));
            let mut buf = scratch.arena.take(m * d);
            match Arc::get_mut(&mut buf) {
                Some(s) => state.table.dequant_rows_into(&scratch.rows, s),
                // Unreachable: `Arena::take` hands out unique storage.
                // Degrade to a fresh buffer rather than scoring stale rows.
                None => {
                    let mut v = vec![0.0f32; m * d];
                    state.table.dequant_rows_into(&scratch.rows, &mut v);
                    buf = Arc::new(v);
                }
            }
            let embeds = Array::from_shared(vec![m, d], buf);
            self.model.score_frozen_with_embeds(
                self.data,
                inst,
                &scratch.cands,
                &embeds,
                &mut scratch.arena,
                &mut scratch.scores,
            );
            scratch.arena.recycle_array(embeds);
        } else {
            self.model.score_frozen_into(
                self.data,
                inst,
                &scratch.cands,
                &mut scratch.arena,
                &mut scratch.scores,
            );
        }
        top_k_into(&scratch.scores, self.cfg.top_k, &mut scratch.topk, &mut scratch.ranked);
        rec.items.clear();
        rec.items.extend(scratch.ranked.iter().map(|&(i, s)| (scratch.cands[i], s)));
        rec.pool = pool;
        rec.scored = scratch.cands.len();
        stisan_obs::counter("serve.pruned_candidates", (pool - scratch.cands.len()) as u64);
        stisan_obs::observe("serve.latency_ms", t0.elapsed().as_secs_f64() * 1e3);
        if let Some(a0) = alloc0 {
            let a1 = stisan_obs::alloc::thread_stats();
            stisan_obs::observe(
                "alloc.request_bytes",
                a1.bytes.saturating_sub(a0.bytes) as f64,
            );
            stisan_obs::observe(
                "alloc.request_allocs",
                a1.allocs.saturating_sub(a0.allocs) as f64,
            );
        }
    }

    /// Serves one request, checking scratch state out of (and back into) the
    /// session's pool. The returned [`Recommendation`] is freshly allocated;
    /// allocation-sensitive callers hold their own scratch and reuse a
    /// `Recommendation` via [`InferenceSession::serve_one_into`].
    pub fn serve_one(&self, inst: &EvalInstance) -> Recommendation {
        let mut scratch = self.checkout_scratch();
        let mut rec = Recommendation::default();
        self.serve_one_into(inst, &mut scratch, &mut rec);
        self.checkin_scratch(scratch);
        rec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stisan_data::{generate, preprocess, DatasetPreset, GenConfig, PrepConfig};
    use stisan_eval::Recommender;

    fn processed() -> Processed {
        let cfg = GenConfig {
            users: 30,
            pois: 200,
            mean_seq_len: 30.0,
            ..DatasetPreset::Gowalla.config(0.01)
        };
        let d = generate(&cfg, 7);
        preprocess(&d, &PrepConfig { max_len: 10, min_user_checkins: 15, min_poi_interactions: 2 })
    }

    /// Deterministic model-free scorer: preference decays with distance from
    /// the request's most recent check-in.
    struct NearLast;
    impl Recommender for NearLast {
        fn name(&self) -> String {
            "near-last".into()
        }
        fn score(&self, data: &Processed, inst: &EvalInstance, c: &[u32]) -> Vec<f32> {
            let last = inst.poi.last().copied().unwrap_or(1).max(1);
            let anchor = data.loc(last);
            c.iter().map(|&p| -(data.loc(p).distance_km(&anchor) as f32)).collect()
        }
    }
    impl FrozenScorer for NearLast {
        fn score_frozen(&self, data: &Processed, inst: &EvalInstance, c: &[u32]) -> Vec<f32> {
            self.score(data, inst, c)
        }
    }

    #[test]
    fn full_policy_scores_whole_catalogue() {
        let p = processed();
        let s = InferenceSession::new(&NearLast, &p, ServeConfig::default());
        let rec = s.serve_one(&p.eval[0]);
        assert_eq!(rec.scored, p.num_pois);
        assert_eq!(rec.items.len(), 10);
        // Best first.
        for w in rec.items.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }
}
