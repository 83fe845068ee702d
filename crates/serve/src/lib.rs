//! # stisan-serve — tape-free replicated inference engine
//!
//! Production-flavoured serving for the model zoo (see DESIGN.md §9):
//!
//! * **Frozen forward** — models score through
//!   [`stisan_eval::FrozenScorer`], which runs the exact same forward code
//!   as training/evaluation on the tape-free `NoGrad` backend
//!   (`stisan_tensor::Exec`). No autodiff nodes are allocated and scores
//!   are *bit-identical* to the tape path (`tests/parity.rs` proves it for
//!   STiSAN, SASRec, and TiSASRec, including a checkpoint round-trip).
//! * **Geo pruning** — [`PruningPolicy::Radius`] restricts candidates to
//!   POIs near the user's last check-in via the `stisan_geo` grid index,
//!   falling back to the full catalogue when the radius is too sparse.
//! * **Two-stage retrieval** — [`PruningPolicy::TwoStage`] generates
//!   candidates from a `stisan_retrieval` quadkey inverted index (revisits +
//!   tile rings + popularity prior) and scores them against a candidate-
//!   embedding table held at [`ServeConfig::quant`] precision
//!   (f32/f16/int8), the million-POI serving path of DESIGN.md §15.
//! * **One request, one way** — [`InferenceSession::serve_one`] (or
//!   [`InferenceSession::serve_one_into`] with caller-held [`ServeScratch`])
//!   is the only scoring path: candidates → arena-backed frozen forward →
//!   top-K.
//! * **One batch entry point** — [`EngineBackend::serve_outcomes`] on a
//!   [`ReplicatedEngine`] (the sole backend; 1 replica = serial) routes a
//!   batch by user across [`SupervisorConfig::replicas`] scoring threads.
//!   It is what the `stisan-gateway` micro-batcher feeds and what
//!   `BENCHMARK.json`'s four workloads measure.
//! * **Bounded top-K** — [`top_k`] selects recommendations in `O(n log k)`
//!   with full-sort-identical tie-breaking.
//!
//! Fault tolerance (DESIGN.md §13) is layered on top:
//!
//! * **Hot reload** — [`SharedModel`] publishes immutable epoch-stamped
//!   weight snapshots (Arc-swap); [`ReloadWatcher`] validates candidate
//!   checkpoints (CRC + canary scoring) before publishing, quarantining
//!   failures, so a bad checkpoint can never reach a request.
//! * **Replica supervision** — [`ReplicatedEngine`] routes users across N
//!   replicas behind a `catch_unwind` panic boundary, restarts crashed
//!   replicas with exponential backoff + jitter, and feeds a per-replica
//!   [`CircuitBreaker`].
//! * **Graceful degradation** — when no replica is routable, the
//!   popularity/geo [`FallbackScorer`] answers in degraded mode instead of
//!   erroring.
//! * **Chaos harness** — the [`chaos`] module injects panics, delays, and
//!   (via `stisan_nn::fault`) corrupt checkpoints to prove all of the
//!   above under load.
//!
//! Instrumented with `serve.latency_ms` (histogram) and
//! `serve.pruned_candidates` (counter) via `stisan-obs`, plus the
//! `gateway.replica_*` / `reload.*` fleet series. Throughput and tail
//! latency are measured by the end-to-end benchmark (`BENCHMARK.json`,
//! `crates/e2e_bench`); fleet behaviour under fault injection by
//! `crates/gateway/tests/chaos.rs`.

mod breaker;
pub mod chaos;
mod engine;
mod fallback;
mod reload;
mod replica;
mod topk;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use engine::{InferenceSession, PruningPolicy, Recommendation, ServeConfig, ServeScratch};
pub use stisan_retrieval::{QuantLevel, RetrievalState};
pub use fallback::FallbackScorer;
pub use reload::{CanaryConfig, EpochModel, ReloadReport, ReloadWatcher, Reloader, SharedModel};
pub use replica::{
    EngineBackend, ReplicatedEngine, ServeFailure, ServeOutcome, ServedRec, SupervisorConfig,
    FALLBACK_REPLICA,
};
pub use topk::{top_k, top_k_into, TopKScratch};
