//! Zero-downtime hot reload: epoch-stamped Arc-swap weight publication.
//!
//! ## The torn-read problem
//!
//! A serving process that overwrites weights in place while workers score
//! against them hands some requests a *mix* of old and new parameters —
//! answers that correspond to no model that ever existed. The scheme here
//! makes that impossible by construction:
//!
//! * Weights are immutable once published. A [`SharedModel`] holds an
//!   `Arc<EpochModel>` — the model plus the epoch it came from — behind an
//!   `RwLock` used only as a pointer cell (lock hold times are a pointer
//!   clone, never a forward pass).
//! * Readers call [`SharedModel::current`] **once per batch** and score the
//!   whole batch against that snapshot. The swap changes which `Arc` the
//!   *next* batch picks up; in-flight batches keep their epoch alive until
//!   they drop it. No request ever observes two epochs.
//!
//! ## Validate-then-publish (automatic rollback)
//!
//! The [`ReloadWatcher`] polls a `CheckpointManager` directory for
//! checkpoints newer than the live epoch, newest first. A candidate is
//! published only after it (1) loads — the format's CRC-32 catches torn or
//! bit-flipped files — and (2) passes a canary scoring pass (finite scores,
//! correct cardinality, on real eval instances). A candidate that fails
//! either gate is quarantined via `CheckpointManager::quarantine` and the
//! scan falls through to the next-newest candidate; the live epoch keeps
//! serving untouched. "Rollback" therefore requires no action at all: a bad
//! publish can never happen, only a rejected candidate.
//!
//! Metrics: `reload.published_total`, `reload.rejected_corrupt_total`,
//! `reload.rejected_canary_total` (counters), `reload.epoch` (gauge),
//! `reload.load_ms` (histogram).

use std::path::Path;
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Instant;

use stisan_data::Processed;
use stisan_eval::FrozenScorer;
use stisan_nn::{CheckpointManager, LoadError};
use stisan_retrieval::{QuantLevel, RetrievalState};

/// A model frozen together with the checkpoint epoch it was loaded from.
pub struct EpochModel<M> {
    /// Checkpoint epoch (0 for the initial, pre-reload model).
    pub epoch: u64,
    /// The immutable weights.
    pub model: M,
    /// Two-stage retrieval state (quadkey index + quantized table) built
    /// from this epoch's weights; `None` when retrieval is off, the model
    /// exports no candidate table, or requantization failed validation
    /// (serving then degrades to exact full-catalogue scoring).
    pub retrieval: Option<Arc<RetrievalState>>,
}

/// The swap cell replicas read from: clone-on-read, atomic publish (see
/// the module docs for the no-torn-reads argument).
pub struct SharedModel<M> {
    cell: Arc<RwLock<Arc<EpochModel<M>>>>,
}

impl<M> Clone for SharedModel<M> {
    fn clone(&self) -> Self {
        SharedModel { cell: Arc::clone(&self.cell) }
    }
}

impl<M> SharedModel<M> {
    /// Wraps the initial model as epoch `epoch` (no retrieval state; use
    /// [`SharedModel::new_with`] to attach one).
    pub fn new(model: M, epoch: u64) -> Self {
        Self::new_with(model, epoch, None)
    }

    /// Wraps the initial model together with its two-stage retrieval state.
    pub fn new_with(model: M, epoch: u64, retrieval: Option<Arc<RetrievalState>>) -> Self {
        SharedModel {
            cell: Arc::new(RwLock::new(Arc::new(EpochModel { epoch, model, retrieval }))),
        }
    }

    /// The current epoch snapshot. Callers score an entire batch against
    /// one snapshot; the `Arc` keeps the weights alive across a concurrent
    /// publish. Poisoning is shrugged off: the cell only ever holds a
    /// fully-constructed `Arc`, so a panicked writer cannot leave it torn.
    pub fn current(&self) -> Arc<EpochModel<M>> {
        Arc::clone(&self.cell.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// The live epoch number.
    pub fn epoch(&self) -> u64 {
        self.current().epoch
    }

    /// Atomically replaces the served model. In-flight snapshots are
    /// unaffected; the next [`current`] call sees the new epoch.
    ///
    /// [`current`]: SharedModel::current
    pub fn publish(&self, model: M, epoch: u64) {
        self.publish_with(model, epoch, None);
    }

    /// [`publish`] carrying the epoch's rebuilt retrieval state (the
    /// hot-reload watcher's requantize-on-publish path).
    ///
    /// [`publish`]: SharedModel::publish
    pub fn publish_with(&self, model: M, epoch: u64, retrieval: Option<Arc<RetrievalState>>) {
        let fresh = Arc::new(EpochModel { epoch, model, retrieval });
        *self.cell.write().unwrap_or_else(PoisonError::into_inner) = fresh;
    }
}

/// The canary gate's size per candidate checkpoint: eval instances
/// (clamped to the dataset) × candidate POIs (clamped to the catalogue) —
/// enough to catch NaN weights and wrong-cardinality scorers without a
/// measurable publish delay.
const CANARY_INSTANCES: usize = 2;
const CANARY_CANDIDATES: usize = 32;

/// What one [`ReloadWatcher::poll`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReloadReport {
    /// Epoch published this poll, if any.
    pub published: Option<u64>,
    /// Candidates quarantined for CRC/parse failures.
    pub rejected_corrupt: usize,
    /// Candidates quarantined for canary-score failures.
    pub rejected_canary: usize,
    /// Candidates were present but publication was vetoed by a firing
    /// availability alert (see [`ReloadWatcher::with_health`]).
    pub vetoed: bool,
}

/// Object-safe polling facade, so the gateway can drive a reload loop
/// without knowing the model type.
pub trait Reloader: Send + Sync {
    /// Scans for new checkpoints and publishes the newest valid one.
    fn poll_now(&self) -> ReloadReport;
}

/// A checkpoint-file-to-model loading function (boxed for storage in the
/// watcher).
type LoaderFn<'d, M> = Box<dyn Fn(&Path) -> Result<M, LoadError> + Send + Sync + 'd>;

/// Loads candidate checkpoints from a [`CheckpointManager`] directory and
/// publishes the newest one that passes validation into a [`SharedModel`]
/// (see the module docs for the protocol).
pub struct ReloadWatcher<'d, M: FrozenScorer> {
    mgr: CheckpointManager,
    shared: SharedModel<M>,
    data: &'d Processed,
    loader: LoaderFn<'d, M>,
    /// When set, every publish rebuilds + requantizes the two-stage
    /// retrieval state at this precision (validated before it is attached).
    requant: Option<QuantLevel>,
    /// When set, publishes are vetoed while an availability alert fires.
    health: Option<stisan_obs::HealthSignal>,
}

impl<'d, M: FrozenScorer + Send + Sync> ReloadWatcher<'d, M> {
    /// Watches `mgr`'s directory, publishing into `shared`. `loader` turns
    /// a checkpoint file into a model; it must return
    /// [`LoadError::Format`] for integrity failures (the `ParamStore`
    /// loaders already do) so the watcher can quarantine them.
    pub fn new(
        mgr: CheckpointManager,
        shared: SharedModel<M>,
        data: &'d Processed,
        loader: impl Fn(&Path) -> Result<M, LoadError> + Send + Sync + 'd,
    ) -> Self {
        ReloadWatcher {
            mgr,
            shared,
            data,
            loader: Box::new(loader),
            requant: None,
            health: None,
        }
    }

    /// Couples the watcher to the SLO engine's [`stisan_obs::HealthSignal`]:
    /// while an availability alert is **firing**, canary publishes are
    /// vetoed — candidates stay on disk untouched and publish on a later
    /// poll once the fleet recovers. Swapping weights into a fleet that is
    /// actively failing both risks masking the incident's cause and makes
    /// the canary gate meaningless (a canary passing against a broken
    /// fleet proves nothing). Vetoes are counted in
    /// `reload.vetoed_alert_total`.
    pub fn with_health(mut self, health: stisan_obs::HealthSignal) -> Self {
        self.health = Some(health);
        self
    }

    /// Rebuilds the two-stage retrieval state (quadkey index + table
    /// quantized at `quant`) for every epoch this watcher publishes. The
    /// requantized table is validated against the exact one (finite error
    /// bound + dequant spot-check) before it is attached; a failing rebuild
    /// publishes the weights *without* retrieval state, so serving degrades
    /// to exact scoring instead of quantized garbage.
    pub fn with_retrieval(mut self, quant: QuantLevel) -> Self {
        self.requant = Some(quant);
        self
    }

    /// The managed checkpoint directory (for tests and tooling).
    pub fn manager(&self) -> &CheckpointManager {
        &self.mgr
    }

    /// One scan: consider checkpoints newer than the live epoch, newest
    /// first; publish the first that loads and passes the canary;
    /// quarantine the ones that fail. Returns what happened.
    pub fn poll(&self) -> ReloadReport {
        let mut report = ReloadReport::default();
        let live = self.shared.epoch();
        let candidates = match self.mgr.newer_than(live) {
            Ok(c) => c,
            Err(e) => {
                stisan_obs::warn!("reload: cannot scan checkpoint dir: {e}");
                return report;
            }
        };
        if !candidates.is_empty()
            && self.health.as_ref().is_some_and(|h| h.availability_firing())
        {
            stisan_obs::counter("reload.vetoed_alert_total", 1);
            stisan_obs::warn!(
                "reload: availability alert firing; vetoing publish of {} candidate(s)",
                candidates.len()
            );
            report.vetoed = true;
            return report;
        }
        for (epoch, path) in candidates.into_iter().rev() {
            let t0 = Instant::now();
            match (self.loader)(&path) {
                Ok(model) => {
                    if self.canary_passes(&model) {
                        stisan_obs::observe(
                            "reload.load_ms",
                            t0.elapsed().as_secs_f64() * 1e3,
                        );
                        let retrieval = self.build_retrieval(&model);
                        self.shared.publish_with(model, epoch, retrieval);
                        stisan_obs::counter("reload.published_total", 1);
                        stisan_obs::gauge("reload.epoch", epoch as f64);
                        report.published = Some(epoch);
                        // Older unseen checkpoints are superseded, not
                        // errors: two rapid publishes skip the middle epoch.
                        break;
                    }
                    stisan_obs::counter("reload.rejected_canary_total", 1);
                    stisan_obs::warn!(
                        "reload: checkpoint {} failed the canary gate; quarantining",
                        path.display()
                    );
                    self.mgr.quarantine(&path);
                    report.rejected_canary += 1;
                }
                Err(LoadError::Format(msg)) => {
                    stisan_obs::counter("reload.rejected_corrupt_total", 1);
                    stisan_obs::warn!(
                        "reload: corrupt checkpoint {} ({msg}); quarantining",
                        path.display()
                    );
                    self.mgr.quarantine(&path);
                    report.rejected_corrupt += 1;
                }
                Err(e) => {
                    // IO races (retention deleting under us) and structural
                    // mismatches: skip without quarantining — the file may
                    // be gone, or belong to a different deployment.
                    stisan_obs::warn!(
                        "reload: skipping checkpoint {}: {e}",
                        path.display()
                    );
                }
            }
        }
        report
    }

    /// Scores a few real eval instances over a few candidates and demands
    /// finite scores of the right cardinality. Catches NaN/inf weights that
    /// a CRC cannot (the bytes are intact; the *values* are poison). A
    /// model that *panics* while scoring fails the canary too — the gate
    /// runs on the reload loop's thread, and a publish candidate must
    /// never be able to kill it.
    fn canary_passes(&self, model: &M) -> bool {
        let n = CANARY_INSTANCES.min(self.data.eval.len());
        let c = CANARY_CANDIDATES.min(self.data.num_pois).max(1);
        let candidates: Vec<u32> = (1..=c as u32).collect();
        let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for inst in &self.data.eval[..n] {
                let scores = model.score_frozen(self.data, inst, &candidates);
                if scores.len() != candidates.len() || scores.iter().any(|s| !s.is_finite()) {
                    return false;
                }
            }
            true
        }));
        ok.unwrap_or(false)
    }

    /// Rebuilds + requantizes the retrieval state for a model about to be
    /// published, validating the quantized table against the exact one: the
    /// documented error bound must be finite and a dequantized row
    /// spot-check must respect it. A failing table is rejected (counted in
    /// `reload.requantize_rejected_total`) and the epoch publishes without
    /// retrieval state — exact scoring, never quantized garbage.
    fn build_retrieval(&self, model: &M) -> Option<Arc<RetrievalState>> {
        let quant = self.requant?;
        let table = model.export_candidate_table()?;
        let _span = stisan_obs::span("reload_requantize");
        let state = RetrievalState::build(self.data, table, quant);
        let bound = state.table.max_abs_error_bound();
        let (rows, d) = (state.table.rows(), state.table.dim());
        let mut row = vec![0.0f32; d];
        let valid = bound.is_finite()
            && (0..rows).step_by((rows / 16).max(1)).all(|r| {
                state.table.dequant_rows_into(&[r], &mut row);
                let exact = &table.data()[r * d..(r + 1) * d];
                exact.iter().zip(&row).all(|(a, b)| (a - b).abs() <= bound)
            });
        if valid {
            crate::engine::publish_retrieval_gauges(&state);
            Some(Arc::new(state))
        } else {
            stisan_obs::counter("reload.requantize_rejected_total", 1);
            stisan_obs::warn!(
                "reload: requantized ({}) table failed validation; publishing without retrieval",
                quant.label()
            );
            None
        }
    }
}

impl<M: FrozenScorer + Send + Sync> Reloader for ReloadWatcher<'_, M> {
    fn poll_now(&self) -> ReloadReport {
        self.poll()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Tag(u64);

    #[test]
    fn snapshots_outlive_a_publish() {
        let shared = SharedModel::new(Tag(1), 1);
        let before = shared.current();
        shared.publish(Tag(2), 2);
        assert_eq!(before.epoch, 1, "in-flight snapshot must keep its epoch");
        assert_eq!(before.model.0, 1);
        let after = shared.current();
        assert_eq!(after.epoch, 2);
        assert_eq!(after.model.0, 2);
        assert_eq!(shared.epoch(), 2);
    }

    #[test]
    fn clones_share_the_cell() {
        let a = SharedModel::new(Tag(1), 1);
        let b = a.clone();
        b.publish(Tag(9), 9);
        assert_eq!(a.epoch(), 9, "publish through a clone must be visible to all handles");
    }
}
