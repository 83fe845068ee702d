//! Replicated serving with supervision: user-routed replicas, a panic
//! boundary, probation, and degraded-mode fallback.
//!
//! ## Supervision tree
//!
//! A [`ReplicatedEngine`] runs N logical replicas over one [`SharedModel`]
//! (see `crate::reload`). Each batch is routed replica-by-replica on the
//! *user id* (splitmix64 hash) into one group per replica, and every group
//! is scored inside `catch_unwind` — the **only sanctioned panic boundary
//! in the serving stack**. A panicking scorer kills its replica, not the
//! process:
//!
//! * instances the group finished before the panic keep their results;
//! * the rest — the one in flight first — are retried once on surviving
//!   replicas;
//! * with no survivors they fall back to the [`FallbackScorer`]
//!   (degraded mode) or surface as typed [`ServeFailure`]s the gateway
//!   maps to `INTERNAL` wire errors.
//!
//! Each replica has one health state: up, on probation, or down. The
//! panicked replica goes down and is restarted after an exponential backoff
//! with deterministic splitmix jitter. A restarted replica — or any live one
//! after an availability incident — is on probation: it admits one probe
//! and takes full traffic again only once that probe answers, so a replica
//! that keeps failing is probed, not trusted.
//!
//! ## Threads and scratch
//!
//! The thread that calls `serve_outcomes` scores the first non-empty group
//! itself; each further group gets a scoped thread for the duration of the
//! call. A batch that routes to one replica — every batch of 1 — therefore
//! spawns nothing, and a batch spanning G replicas spawns G − 1 threads.
//! A group is an owned list of its requests, trace slots included; its
//! thread hands back what it answered and what it left, so the threads
//! share nothing but the replicas' own locks. The rescue loop — retries,
//! then fallback — also runs on the caller.
//!
//! Each replica also owns `lanes = max(1, cap / replicas)` cores, `cap`
//! being [`stisan_tensor::worker_cap`]: whoever scores on the replica, plus
//! `lanes − 1` helper threads ([`stisan_tensor::Lanes`]) spawned once in
//! [`ReplicatedEngine::new`] — never per batch — and parked between
//! requests. They take candidate chunks of the fused decoder, the bulk of
//! a full-catalogue scan, bit for bit; a helper's panic resurfaces on the
//! scoring thread, inside this module's panic boundary. Dropping the
//! engine joins them. With one lane no helper exists.
//!
//! Each replica owns one warm [`ServeScratch`] (tensor arena, candidate,
//! score and top-K buffers) behind its own mutex — not the supervisor-state
//! lock that `admit`/`tick`/`healthy_count` take. Whoever scores on a
//! replica, group or retry, holds that lock for the duration, so the
//! buffers survive across batches and reload epochs (they hold no model
//! state) and concurrent callers take turns on a replica. A scorer that
//! panics may leave the buffers half-written: the scratch is replaced by a
//! fresh one, attached to the same lanes, before the lock is released.
//!
//! ## No torn reads
//!
//! Every batch snapshots the `Arc<EpochModel>` **once** and all groups
//! score against that snapshot, so a concurrent hot reload can never mix
//! epochs within a batch, let alone within a request.
//!
//! Metrics: `gateway.replica_panics_total`, `gateway.replica_restarts_total`,
//! `gateway.fallback_served_total`, `gateway.replica_retries_total`
//! (counters), `gateway.replicas_total` / `gateway.replicas_healthy`
//! (gauges).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use stisan_data::{EvalInstance, Processed};
use stisan_eval::FrozenScorer;
use stisan_obs::{Stage, TraceCtx};
use stisan_tensor::Lanes;

use crate::chaos::splitmix64;
use crate::engine::{
    publish_retrieval_gauges, InferenceSession, Recommendation, ServeConfig, ServeScratch,
};
use crate::fallback::FallbackScorer;
use crate::reload::{EpochModel, SharedModel};

/// Sentinel replica id reported by degraded-mode (fallback) answers.
pub const FALLBACK_REPLICA: u16 = u16::MAX;

/// Seed of the deterministic restart-backoff jitter.
const JITTER_SEED: u64 = 0x5715_A000_0000_0001;

/// One successfully served request, attributed to the replica and weight
/// epoch that produced it.
#[derive(Clone, Debug)]
pub struct ServedRec {
    /// The recommendation list.
    pub rec: Recommendation,
    /// Replica that scored it ([`FALLBACK_REPLICA`] in degraded mode).
    pub replica: u16,
    /// Reload epoch of the weights used.
    pub epoch: u64,
    /// True when the popularity/geo fallback answered instead of a model.
    pub degraded: bool,
}

/// Why a request could not be served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeFailure {
    /// The scoring replica panicked and no recovery path was available.
    ReplicaPanic {
        /// The replica that died.
        replica: u16,
    },
    /// No replica was routable and fallback is disabled.
    Unavailable,
}

impl std::fmt::Display for ServeFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeFailure::ReplicaPanic { replica } => {
                write!(f, "replica {replica} panicked while scoring")
            }
            ServeFailure::Unavailable => write!(f, "no replica available"),
        }
    }
}

/// Per-request outcome of a supervised batch.
pub type ServeOutcome = Result<ServedRec, ServeFailure>;

/// The scoring surface the gateway dispatcher drives; [`ReplicatedEngine`]
/// is its one implementor. `traces` must be position-parallel to `insts`.
pub trait EngineBackend: Sync {
    /// Dataset context requests are validated and served against.
    fn data(&self) -> &Processed;

    /// Scores a batch, never panicking: per-request failures come back as
    /// typed [`ServeFailure`]s. Each instance's [`TraceCtx`] gets its
    /// [`Stage::Scored`] stamp the moment *that* instance finishes scoring,
    /// so per-request scoring time is attributed exactly even when
    /// batch-mates are slower. `workers` is ignored and kept only for
    /// existing callers: parallelism is [`SupervisorConfig::replicas`] and
    /// each replica's decoder lanes.
    fn serve_outcomes(
        &self,
        insts: &[EvalInstance],
        workers: usize,
        traces: &mut [TraceCtx],
    ) -> Vec<ServeOutcome>;
}

/// Supervisor tuning for [`ReplicatedEngine`].
#[derive(Clone, Copy, Debug)]
pub struct SupervisorConfig {
    /// Number of replicas (clamped to at least 1).
    pub replicas: usize,
    /// First restart backoff, µs (doubles per consecutive restart).
    pub restart_base_us: u64,
    /// Backoff ceiling, µs.
    pub restart_max_us: u64,
    /// Answer from the [`FallbackScorer`] when no replica is routable;
    /// with `false`, such requests fail as typed errors instead.
    pub fallback: bool,
}

impl Default for SupervisorConfig {
    /// Two replicas, 50 ms → 2 s backoff, fallback on.
    fn default() -> Self {
        SupervisorConfig {
            replicas: 2,
            restart_base_us: 50_000,
            restart_max_us: 2_000_000,
            fallback: true,
        }
    }
}

/// Locks shrugging off poisoning: supervisor state must stay reachable
/// after a replica panic — that is the entire point.
fn plock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Whether a replica takes traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Health {
    /// Trusted with every request routed to it.
    Up,
    /// Restarted, or suspect after an availability incident: admits one
    /// probe (`probing` from then on) and refuses further traffic until
    /// the probe answers (→ `Up`) or panics (→ `Down`).
    Probation { probing: bool },
    /// Crashed; [`ReplicatedEngine::tick`] puts it on probation once the
    /// clock reaches `restart_at_us`.
    Down { restart_at_us: u64 },
}

impl Health {
    fn is_down(self) -> bool {
        matches!(self, Health::Down { .. })
    }
}

/// Mutable supervisor state for one replica.
struct ReplicaState {
    health: Health,
    /// Restarts since the replica last answered: the backoff step.
    restart_attempts: u32,
}

/// One replica group's requests: batch index, instance, trace slot.
type Group<'i, 't> = Vec<(usize, &'i EvalInstance, &'t mut TraceCtx)>;

/// What scoring one group produced.
struct Scored<'i, 't> {
    replica: usize,
    /// Answers by batch index, each stamped [`Stage::Scored`] as it finished.
    answered: Vec<(usize, Recommendation)>,
    /// Empty unless the scorer panicked: the requests it left, the one in
    /// flight first, with their trace slots.
    left: Group<'i, 't>,
}

/// N supervised replicas over one hot-reloadable model (see module docs).
pub struct ReplicatedEngine<'d, M: FrozenScorer + Send + Sync> {
    data: &'d Processed,
    cfg: ServeConfig,
    model: SharedModel<M>,
    sup: SupervisorConfig,
    replicas: Vec<Mutex<ReplicaState>>,
    /// One warm scratch per replica (see the module docs).
    scratch: Vec<Mutex<ServeScratch>>,
    /// Each replica's decoder lanes, attached to its scratch (see the
    /// module docs).
    lanes: Vec<Arc<Lanes>>,
    fallback: FallbackScorer,
    t0: Instant,
    health: Option<stisan_obs::HealthSignal>,
    seen_incidents: AtomicU64,
}

impl<'d, M: FrozenScorer + Send + Sync> ReplicatedEngine<'d, M> {
    /// Builds the replica pool around an existing [`SharedModel`] handle
    /// (keep a clone to hot-reload through, or hand one to a
    /// `ReloadWatcher`). Each replica gets `max(1, cap / replicas)` decoder
    /// lanes, where `cap` is [`stisan_tensor::worker_cap`].
    pub fn new(
        model: SharedModel<M>,
        data: &'d Processed,
        cfg: ServeConfig,
        sup: SupervisorConfig,
    ) -> Self {
        let lanes = stisan_tensor::worker_cap() / sup.replicas.max(1);
        Self::with_lanes(model, data, cfg, sup, lanes)
    }

    /// [`ReplicatedEngine::new`] with an explicit lane count per replica
    /// (at least 1), for tests and benches that must not depend on the
    /// host's core count. The `lanes − 1` helper threads of each replica
    /// are spawned here.
    pub fn with_lanes(
        model: SharedModel<M>,
        data: &'d Processed,
        cfg: ServeConfig,
        sup: SupervisorConfig,
        lanes: usize,
    ) -> Self {
        let sup = SupervisorConfig { replicas: sup.replicas.max(1), ..sup };
        let replicas = (0..sup.replicas)
            .map(|_| Mutex::new(ReplicaState { health: Health::Up, restart_attempts: 0 }))
            .collect();
        let fallback = FallbackScorer::build(data);
        if let Some(state) = &model.current().retrieval {
            publish_retrieval_gauges(state);
        }
        stisan_obs::gauge("gateway.replicas_total", sup.replicas as f64);
        stisan_obs::gauge("gateway.replicas_healthy", sup.replicas as f64);
        let lanes: Vec<Arc<Lanes>> =
            (0..sup.replicas).map(|_| Arc::new(Lanes::new(lanes))).collect();
        ReplicatedEngine {
            data,
            cfg,
            model,
            sup,
            replicas,
            scratch: lanes
                .iter()
                .map(|l| Mutex::new(ServeScratch::with_lanes(Arc::clone(l))))
                .collect(),
            lanes,
            fallback,
            t0: Instant::now(),
            health: None,
            seen_incidents: AtomicU64::new(0),
        }
    }

    /// Couples the pool to the SLO engine's [`stisan_obs::HealthSignal`]:
    /// each availability *incident* (rising edge of the availability burn
    /// alert) marks every replica suspect — a live replica goes on
    /// probation, so it takes one probe and full traffic again only once
    /// that probe answers.
    pub fn with_health(mut self, health: stisan_obs::HealthSignal) -> Self {
        self.seen_incidents = AtomicU64::new(health.incidents());
        self.health = Some(health);
        self
    }

    /// The shared model handle (clone to publish new epochs).
    pub fn shared(&self) -> SharedModel<M> {
        self.model.clone()
    }

    /// Allocations made on every replica's helper threads, each counted by
    /// its own thread (see [`Lanes::helper_allocs`]).
    pub fn helper_allocs(&self) -> u64 {
        self.lanes.iter().map(|l| l.helper_allocs()).sum()
    }

    /// Replicas currently not down (restarted replicas count while on
    /// probation).
    pub fn healthy_count(&self) -> usize {
        self.replicas.iter().filter(|r| !plock(r).health.is_down()).count()
    }

    fn now_us(&self) -> u64 {
        self.t0.elapsed().as_micros() as u64
    }

    /// The replica a user's requests route to first.
    fn primary_for(&self, user: u32) -> usize {
        (splitmix64(0xC0FF_EE00_0000_0000, user as u64) % self.replicas.len() as u64) as usize
    }

    /// Exponential backoff with deterministic jitter for the given restart
    /// attempt of `replica`.
    fn backoff_us(&self, replica: usize, attempt: u32) -> u64 {
        let base = self.sup.restart_base_us.max(1);
        let exp = base.saturating_mul(1u64 << attempt.min(20));
        let capped = exp.min(self.sup.restart_max_us.max(base));
        let jitter = splitmix64(JITTER_SEED, (replica as u64) << 32 | attempt as u64) % base;
        capped + jitter
    }

    /// Puts replicas whose restart backoff has elapsed on probation — and,
    /// after an availability incident (alert rising edge) since the last
    /// tick, every live replica too. Called at the head of every batch;
    /// callable directly from tests.
    pub fn tick(&self) {
        let now = self.now_us();
        let incident = self.health.as_ref().is_some_and(|h| {
            let inc = h.incidents();
            inc > self.seen_incidents.swap(inc, Ordering::SeqCst)
        });
        if incident {
            stisan_obs::counter("gateway.replica_suspect_total", self.replicas.len() as u64);
        }
        let mut healthy = 0usize;
        for state in &self.replicas {
            let mut s = plock(state);
            match s.health {
                Health::Down { restart_at_us } if now >= restart_at_us => {
                    s.health = Health::Probation { probing: false };
                    stisan_obs::counter("gateway.replica_restarts_total", 1);
                }
                Health::Up | Health::Probation { .. } if incident => {
                    s.health = Health::Probation { probing: false };
                }
                _ => {}
            }
            if !s.health.is_down() {
                healthy += 1;
            }
        }
        stisan_obs::gauge("gateway.replicas_healthy", healthy as f64);
    }

    /// Takes a replica down after a panic and schedules its restart at the
    /// next backoff step.
    fn mark_down(&self, replica: usize) {
        let now = self.now_us();
        let mut s = plock(&self.replicas[replica]);
        if !s.health.is_down() {
            let restart_at_us = now + self.backoff_us(replica, s.restart_attempts);
            s.health = Health::Down { restart_at_us };
            s.restart_attempts = s.restart_attempts.saturating_add(1);
        }
        drop(s);
        stisan_obs::counter("gateway.replica_panics_total", 1);
        stisan_obs::gauge("gateway.replicas_healthy", self.healthy_count() as f64);
    }

    /// Whether `replica` may take traffic now; admitting a replica on
    /// probation spends its one probe.
    fn admit(&self, replica: usize) -> bool {
        let mut s = plock(&self.replicas[replica]);
        match s.health {
            Health::Up => true,
            Health::Probation { probing: false } => {
                s.health = Health::Probation { probing: true };
                true
            }
            Health::Probation { probing: true } | Health::Down { .. } => false,
        }
    }

    /// A group or retry on `replica` answered: a live replica is `Up` (its
    /// probation, if any, passed) and its backoff streak starts over.
    fn on_success(&self, replica: usize) {
        let mut s = plock(&self.replicas[replica]);
        if !s.health.is_down() {
            s.health = Health::Up;
            s.restart_attempts = 0;
        }
    }

    /// A session over `epoch`'s weights and its shared retrieval state:
    /// replicas never rebuild the quadkey index or requantize the table.
    fn session<'e>(&'e self, epoch: &'e EpochModel<M>) -> InferenceSession<'e, M> {
        InferenceSession::with_retrieval(
            &epoch.model,
            self.data,
            self.cfg,
            epoch.retrieval.clone(),
        )
    }

    /// Runs `f` on replica `r`'s warm scratch behind the panic boundary.
    /// The panic is caught before the guard drops, so the lock is never
    /// poisoned; the scratch a dead scorer was writing to is discarded and
    /// its replacement keeps the replica's lanes.
    fn with_scratch<R>(
        &self,
        r: usize,
        f: impl FnOnce(&mut ServeScratch) -> R,
    ) -> std::thread::Result<R> {
        let mut scratch = plock(&self.scratch[r]);
        let res = catch_unwind(AssertUnwindSafe(|| f(&mut scratch)));
        if res.is_err() {
            *scratch = ServeScratch::with_lanes(Arc::clone(&self.lanes[r]));
        }
        res
    }

    /// Scores replica `r`'s group in order on the current thread, to the end
    /// or to its scorer's panic.
    fn score_group<'i, 't>(
        &self,
        r: usize,
        mut group: Group<'i, 't>,
        epoch: &EpochModel<M>,
    ) -> Scored<'i, 't> {
        let session = self.session(epoch);
        let mut answered = Vec::with_capacity(group.len());
        let res = self.with_scratch(r, |scratch| {
            for (i, inst, tr) in group.iter_mut() {
                let mut rec = Recommendation::default();
                session.serve_one_into(inst, scratch, &mut rec);
                tr.stamp(Stage::Scored);
                answered.push((*i, rec));
            }
        });
        let left = if res.is_err() { group.split_off(answered.len()) } else { Vec::new() };
        Scored { replica: r, answered, left }
    }

    /// The one retry of a request whose replica `from` panicked: the first
    /// other admitted replica that answers it. Each one that panics instead
    /// goes down.
    fn retry(&self, inst: &EvalInstance, from: usize, epoch: &EpochModel<M>) -> Option<ServedRec> {
        stisan_obs::counter("gateway.replica_retries_total", 1);
        let session = self.session(epoch);
        (0..self.replicas.len()).filter(|&r| r != from).find_map(|r| {
            if !self.admit(r) {
                return None;
            }
            let mut rec = Recommendation::default();
            match self.with_scratch(r, |scratch| session.serve_one_into(inst, scratch, &mut rec)) {
                Ok(()) => {
                    self.on_success(r);
                    Some(ServedRec { rec, replica: r as u16, epoch: epoch.epoch, degraded: false })
                }
                Err(_) => {
                    self.mark_down(r);
                    None
                }
            }
        })
    }

    /// Serves one request on the fallback scorer (cannot panic).
    fn serve_fallback(&self, inst: &EvalInstance, epoch: u64) -> ServedRec {
        let session = InferenceSession::new(&self.fallback, self.data, self.cfg);
        let rec = session.serve_one(inst);
        stisan_obs::counter("gateway.fallback_served_total", 1);
        ServedRec { rec, replica: FALLBACK_REPLICA, epoch, degraded: true }
    }
}

impl<M: FrozenScorer + Send + Sync> EngineBackend for ReplicatedEngine<'_, M> {
    fn data(&self) -> &Processed {
        self.data
    }

    /// Routes, scores, supervises (see the module docs): the caller scores
    /// one replica group, scoped threads the rest.
    fn serve_outcomes(
        &self,
        insts: &[EvalInstance],
        _workers: usize,
        traces: &mut [TraceCtx],
    ) -> Vec<ServeOutcome> {
        self.tick();
        let n = self.replicas.len();
        // One epoch snapshot for the entire batch: the no-torn-reads
        // invariant lives on this line.
        let snapshot = self.model.current();
        let epoch: &EpochModel<M> = &snapshot;
        debug_assert_eq!(traces.len(), insts.len(), "traces misaligned");

        // Route each instance: primary by user hash, then the next admitted
        // replica (each asked once per batch); what none admits is rescued.
        let mut admitted: Vec<Option<bool>> = vec![None; n];
        let mut groups: Vec<Group> = (0..n).map(|_| Vec::new()).collect();
        let mut unrouted: Group = Vec::new();
        for (i, (inst, tr)) in insts.iter().zip(traces.iter_mut()).enumerate() {
            let primary = self.primary_for(inst.user);
            let chosen = (0..n)
                .map(|k| (primary + k) % n)
                .find(|&r| *admitted[r].get_or_insert_with(|| self.admit(r)));
            match chosen {
                Some(r) => groups[r].push((i, inst, tr)),
                None => unrouted.push((i, inst, tr)),
            }
        }

        // Score every non-empty group behind the panic boundary: the others
        // on scoped threads (spawned first, so they overlap), the first on
        // this thread. Each thread returns its group scored; `score_group`
        // catches its scorer's panic itself, so a failed join is a panic
        // outside the boundary and is re-raised.
        let mut active = groups.into_iter().enumerate().filter(|(_, g)| !g.is_empty());
        let scored: Vec<Scored> = std::thread::scope(|scope| {
            let inline = active.next();
            let spawned: Vec<_> = active
                .map(|(r, g)| scope.spawn(move || self.score_group(r, g, epoch)))
                .collect();
            let inline = inline.map(|(r, g)| self.score_group(r, g, epoch));
            let joined = spawned.into_iter().map(|h| h.join().unwrap_or_else(|p| resume_unwind(p)));
            inline.into_iter().chain(joined).collect()
        });

        // Harvest answers and supervise; keep what panicked groups left.
        let mut out: Vec<ServeOutcome> = vec![Err(ServeFailure::Unavailable); insts.len()];
        let mut rescue = Vec::new();
        for s in scored {
            for (i, rec) in s.answered {
                let replica = s.replica as u16;
                out[i] = Ok(ServedRec { rec, replica, epoch: epoch.epoch, degraded: false });
            }
            if s.left.is_empty() {
                self.on_success(s.replica);
            } else {
                self.mark_down(s.replica);
                let from = Some(s.replica);
                rescue.extend(s.left.into_iter().map(|(i, inst, tr)| (i, inst, tr, from)));
            }
        }

        // Rescue: a panicked group's leftovers get one retry on a surviving
        // replica, then — like requests no replica admitted — the fallback.
        let unrouted = unrouted.into_iter().map(|(i, inst, tr)| (i, inst, tr, None));
        for (i, inst, tr, from) in rescue.into_iter().chain(unrouted) {
            let outcome = match from.and_then(|from| self.retry(inst, from, epoch)) {
                Some(served) => Ok(served),
                None if self.sup.fallback => Ok(self.serve_fallback(inst, epoch.epoch)),
                None => Err(from.map_or(ServeFailure::Unavailable, |r| {
                    ServeFailure::ReplicaPanic { replica: r as u16 }
                })),
            };
            if outcome.is_ok() {
                tr.stamp(Stage::Scored);
            }
            out[i] = outcome;
        }

        stisan_obs::gauge("gateway.replicas_healthy", self.healthy_count() as f64);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosPlan, ChaosScorer, WeightedPrior};
    use stisan_data::{generate, preprocess, DatasetPreset, GenConfig, PrepConfig};

    fn processed() -> Processed {
        let cfg = GenConfig {
            users: 40,
            pois: 150,
            mean_seq_len: 30.0,
            ..DatasetPreset::Gowalla.config(0.01)
        };
        let d = generate(&cfg, 5);
        preprocess(&d, &PrepConfig { max_len: 10, min_user_checkins: 15, min_poi_interactions: 2 })
    }

    fn sup(replicas: usize) -> SupervisorConfig {
        SupervisorConfig {
            replicas,
            restart_base_us: 10_000_000, // effectively "never" within a test
            ..SupervisorConfig::default()
        }
    }

    #[test]
    fn healthy_replicas_match_single_session_bitwise() {
        let p = processed();
        let prior = WeightedPrior::seeded(p.num_pois, 3);
        let direct = InferenceSession::new(&prior, &p, ServeConfig::default());
        for replicas in [1usize, 2, 3, 5] {
            let shared = SharedModel::new(WeightedPrior::seeded(p.num_pois, 3), 1);
            let eng = ReplicatedEngine::new(shared, &p, ServeConfig::default(), sup(replicas));
            let mut traces: Vec<TraceCtx> =
                (0..p.eval.len()).map(|i| TraceCtx::new(i as u64)).collect();
            let outs = eng.serve_outcomes(&p.eval, 0, &mut traces);
            assert_eq!(outs.len(), p.eval.len());
            for (inst, out) in p.eval.iter().zip(outs) {
                let served = out.expect("healthy pool must answer");
                assert!(!served.degraded);
                assert_eq!(served.epoch, 1);
                assert!((served.replica as usize) < replicas);
                assert_eq!(
                    served.rec.items,
                    direct.serve_one(inst).items,
                    "replicas={replicas}: a batch must be bit-identical to a sequential \
                     serve_one loop on a direct session"
                );
            }
            // Every instance is stamped when *it* finishes scoring.
            for t in &traces {
                assert!(t.get(Stage::Scored).is_some(), "replicas={replicas}");
                assert!(t.is_monotonic(), "replicas={replicas}");
            }
        }
    }

    /// A `WeightedPrior` that records which thread scored each user and
    /// draws one buffer from the arena per call, so a warm replica scratch
    /// is distinguishable from a fresh one by its arena statistics.
    struct Probe {
        inner: WeightedPrior,
        seen: Mutex<Vec<(u32, std::thread::ThreadId)>>,
    }

    impl Probe {
        fn new(num_pois: usize) -> Self {
            Probe { inner: WeightedPrior::seeded(num_pois, 3), seen: Mutex::new(Vec::new()) }
        }
    }

    impl stisan_eval::Recommender for Probe {
        fn name(&self) -> String {
            "probe".into()
        }
        fn score(&self, data: &Processed, inst: &EvalInstance, c: &[u32]) -> Vec<f32> {
            self.inner.score(data, inst, c)
        }
    }

    impl FrozenScorer for Probe {
        fn score_frozen(&self, data: &Processed, inst: &EvalInstance, c: &[u32]) -> Vec<f32> {
            self.inner.score_frozen(data, inst, c)
        }
        fn score_frozen_into(
            &self,
            data: &Processed,
            inst: &EvalInstance,
            c: &[u32],
            arena: &mut stisan_tensor::Arena,
            out: &mut Vec<f32>,
        ) {
            plock(&self.seen).push((inst.user, std::thread::current().id()));
            let buf = arena.take(c.len());
            arena.recycle(buf);
            self.inner.score_frozen_into(data, inst, c, arena, out);
        }
    }

    /// Thread spawns, as counts: a batch routed to one replica is scored on
    /// the caller's thread (0 spawns); of a batch spanning two replicas
    /// exactly one group is (G − 1 = 1 spawn). Answers stay bit-equal to the
    /// single-session reference either way.
    #[test]
    fn caller_scores_one_group_and_spawns_only_for_the_rest() {
        let p = processed();
        let prior = WeightedPrior::seeded(p.num_pois, 3);
        let direct = InferenceSession::new(&prior, &p, ServeConfig::default());
        // Two lanes per replica: helper threads exist, and are not spawns.
        let eng = ReplicatedEngine::with_lanes(
            SharedModel::new(Probe::new(p.num_pois), 1),
            &p,
            ServeConfig::default(),
            sup(2),
            2,
        );
        let me = std::thread::current().id();
        let serve = |insts: &[EvalInstance]| {
            plock(&eng.model.current().model.seen).clear();
            let mut traces: Vec<TraceCtx> =
                (0..insts.len()).map(|i| TraceCtx::new(i as u64)).collect();
            let outs = eng.serve_outcomes(insts, 0, &mut traces);
            for (inst, out) in insts.iter().zip(outs) {
                let served = out.expect("healthy pool must answer");
                assert_eq!(served.replica as usize, eng.primary_for(inst.user));
                assert_eq!(served.rec.items, direct.serve_one(inst).items);
            }
            plock(&eng.model.current().model.seen).clone()
        };

        let on_zero: Vec<EvalInstance> =
            p.eval.iter().filter(|i| eng.primary_for(i.user) == 0).cloned().collect();
        assert!(!on_zero.is_empty() && on_zero.len() < p.eval.len(), "users span both replicas");
        let seen = serve(&on_zero);
        assert_eq!(seen.len(), on_zero.len());
        assert!(seen.iter().all(|&(_, t)| t == me), "a one-replica batch must not leave the caller");

        let seen = serve(&p.eval);
        assert_eq!(seen.len(), p.eval.len());
        // Each replica's group ran on one thread; exactly one of the two
        // groups ran on the caller's.
        let threads_of = |r: usize| -> std::collections::HashSet<std::thread::ThreadId> {
            seen.iter().filter(|&&(u, _)| eng.primary_for(u) == r).map(|&(_, t)| t).collect()
        };
        let (t0, t1) = (threads_of(0), threads_of(1));
        assert_eq!((t0.len(), t1.len()), (1, 1), "one thread per group");
        assert_ne!(t0, t1, "two groups must not share a thread");
        assert_eq!(
            [&t0, &t1].iter().filter(|t| t.contains(&me)).count(),
            1,
            "exactly one group on the caller's thread"
        );
    }

    /// A scorer panic on the inline (caller-runs) path is contained like one
    /// on a spawned thread, and the dead replica's scratch is replaced.
    #[test]
    fn inline_panic_is_contained_and_resets_the_scratch() {
        let p = processed();
        crate::chaos::silence_chaos_panics();
        let prior = WeightedPrior::seeded(p.num_pois, 3);
        let direct = InferenceSession::new(&prior, &p, ServeConfig::default());
        let plan = ChaosPlan::new();
        let scorer = ChaosScorer::new(Probe::new(p.num_pois), plan.clone());
        let cfg = SupervisorConfig { restart_base_us: 1, restart_max_us: 2, ..sup(2) };
        let model = SharedModel::new(scorer, 1);
        let eng = ReplicatedEngine::with_lanes(model, &p, ServeConfig::default(), cfg, 3);
        let inst = &p.eval[0];
        let home = eng.primary_for(inst.user);
        let mut tr = vec![TraceCtx::new(0)];
        let warm_stats = |r: usize| plock(&eng.scratch[r]).arena_stats();

        // Warm the home replica's scratch, then kill its scorer mid-request:
        // a batch of 1 is one group, so the panic fires on this very thread.
        let served = eng.serve_outcomes(std::slice::from_ref(inst), 0, &mut tr).remove(0);
        assert_eq!(served.expect("healthy").replica as usize, home);
        assert_ne!(warm_stats(home), stisan_tensor::ArenaStats::default(), "scratch is warm");
        plan.arm_panic(1);
        let served = eng
            .serve_outcomes(std::slice::from_ref(inst), 0, &mut tr)
            .remove(0)
            .expect("the survivor answers the retried request");
        assert!(!served.degraded);
        assert_eq!(served.replica as usize, 1 - home, "retried on the other replica");
        assert_eq!(served.rec.items, direct.serve_one(inst).items);
        assert_eq!(eng.healthy_count(), 1, "the panicking replica is down");
        assert_eq!(
            warm_stats(home),
            stisan_tensor::ArenaStats::default(),
            "the buffers the dead scorer was writing to are gone"
        );
        assert_eq!(plock(&eng.scratch[home]).lanes(), 3, "the fresh scratch keeps its lanes");

        // Revived, the replica serves from its fresh scratch, bit-equal to
        // a fresh session.
        while eng.healthy_count() < 2 {
            eng.tick();
        }
        let served = eng
            .serve_outcomes(std::slice::from_ref(inst), 0, &mut tr)
            .remove(0)
            .expect("revived replica answers");
        assert_eq!(served.replica as usize, home);
        assert_eq!(served.rec.items, direct.serve_one(inst).items);
    }

    /// Each replica's `lanes − 1` helpers exist from construction, whatever
    /// the batches; dropping the engine joins them all.
    #[test]
    fn helpers_live_from_construction_to_drop() {
        let p = processed();
        let shared = SharedModel::new(WeightedPrior::seeded(p.num_pois, 3), 1);
        let eng = ReplicatedEngine::with_lanes(shared, &p, ServeConfig::default(), sup(2), 3);
        let counts = |eng: &ReplicatedEngine<WeightedPrior>| -> Vec<usize> {
            eng.lanes.iter().map(|l| l.count()).collect()
        };
        assert_eq!(counts(&eng), [3, 3]);
        let mut traces: Vec<TraceCtx> =
            (0..p.eval.len()).map(|i| TraceCtx::new(i as u64)).collect();
        assert!(eng.serve_outcomes(&p.eval, 0, &mut traces).iter().all(|o| o.is_ok()));
        assert_eq!(counts(&eng), [3, 3]);
        let lanes: Vec<_> = eng.lanes.iter().map(Arc::downgrade).collect();
        drop(eng);
        assert!(lanes.iter().all(|l| l.upgrade().is_none()), "helper lanes outlived the engine");
        let one = ReplicatedEngine::with_lanes(
            SharedModel::new(WeightedPrior::seeded(p.num_pois, 3), 1),
            &p,
            ServeConfig::default(),
            sup(1),
            0,
        );
        assert_eq!(counts(&one), [1], "lanes are clamped to at least the caller");
    }

    #[test]
    fn routing_is_sticky_per_user() {
        let p = processed();
        let shared = SharedModel::new(WeightedPrior::seeded(p.num_pois, 3), 1);
        let eng = ReplicatedEngine::new(shared, &p, ServeConfig::default(), sup(4));
        for inst in &p.eval {
            assert_eq!(eng.primary_for(inst.user), eng.primary_for(inst.user));
        }
        // With enough users, more than one replica gets traffic.
        let distinct: std::collections::HashSet<usize> =
            p.eval.iter().map(|i| eng.primary_for(i.user)).collect();
        assert!(distinct.len() > 1, "all users routed to one replica");
    }

    /// Every `Ok` outcome's trace was stamped [`Stage::Scored`] in order —
    /// including the request a replica was scoring when it panicked.
    fn assert_answered_traces(outs: &[ServeOutcome], traces: &[TraceCtx]) {
        for (i, (out, t)) in outs.iter().zip(traces).enumerate() {
            if out.is_ok() {
                assert!(t.get(Stage::Scored).is_some(), "request {i}: answered but never stamped");
                assert!(t.is_monotonic(), "request {i}");
            }
        }
    }

    #[test]
    fn panic_kills_one_replica_and_survivors_absorb() {
        let p = processed();
        let plan = ChaosPlan::new();
        let scorer = ChaosScorer::new(WeightedPrior::seeded(p.num_pois, 3), plan.clone());
        let shared = SharedModel::new(scorer, 1);
        let eng = ReplicatedEngine::new(shared, &p, ServeConfig::default(), sup(3));
        crate::chaos::silence_chaos_panics();

        plan.arm_panic(2); // second scoring call dies
        let mut traces: Vec<TraceCtx> =
            (0..p.eval.len()).map(|i| TraceCtx::new(i as u64)).collect();
        let outs = eng.serve_outcomes(&p.eval, 2, &mut traces);
        let answered = outs.iter().filter(|o| o.is_ok()).count();
        assert_eq!(answered, p.eval.len(), "survivors + retry must answer everything");
        assert_eq!(eng.healthy_count(), 2, "exactly one replica down");
        assert_answered_traces(&outs, &traces);

        // Answers are still bit-identical to a direct session (the retried
        // instances rescored on a survivor with the same epoch snapshot).
        let prior = WeightedPrior::seeded(p.num_pois, 3);
        let direct = InferenceSession::new(&prior, &p, ServeConfig::default());
        for (inst, out) in p.eval.iter().zip(&outs) {
            let served = out.as_ref().expect("answered");
            if !served.degraded {
                assert_eq!(served.rec.items, direct.serve_one(inst).items);
            }
        }

        // A batch of 1 whose only request is in flight when its replica
        // panics: the survivor answers it, and its trace is stamped.
        let plan = ChaosPlan::new();
        let scorer = ChaosScorer::new(WeightedPrior::seeded(p.num_pois, 3), plan.clone());
        let shared = SharedModel::new(scorer, 1);
        let eng = ReplicatedEngine::new(shared, &p, ServeConfig::default(), sup(2));
        plan.arm_panic(1);
        let inst = &p.eval[0];
        let mut traces = vec![TraceCtx::new(0)];
        let outs = eng.serve_outcomes(std::slice::from_ref(inst), 0, &mut traces);
        let served = outs[0].as_ref().expect("the survivor answers");
        assert_eq!(served.replica as usize, 1 - eng.primary_for(inst.user));
        assert_eq!(served.rec.items, direct.serve_one(inst).items);
        assert_answered_traces(&outs, &traces);
    }

    fn health(eng: &ReplicatedEngine<WeightedPrior>, r: usize) -> (Health, u32) {
        let s = plock(&eng.replicas[r]);
        (s.health, s.restart_attempts)
    }

    /// Backoff from 1 ms, so a test can wait a restart out.
    fn fast_restarts(replicas: usize) -> SupervisorConfig {
        SupervisorConfig { restart_base_us: 1_000, restart_max_us: 1_000_000, ..sup(replicas) }
    }

    fn revive(eng: &ReplicatedEngine<WeightedPrior>) {
        while eng.healthy_count() < eng.replicas.len() {
            eng.tick();
        }
    }

    #[test]
    fn a_restarted_replica_admits_one_probe_until_it_answers() {
        let p = processed();
        let shared = SharedModel::new(WeightedPrior::seeded(p.num_pois, 3), 1);
        let eng = ReplicatedEngine::new(shared, &p, ServeConfig::default(), fast_restarts(2));
        eng.mark_down(0);
        assert!(!eng.admit(0), "a down replica takes no traffic");
        revive(&eng);
        assert_eq!(health(&eng, 0), (Health::Probation { probing: false }, 1));
        assert!(eng.admit(0), "probation admits a probe");
        assert!(!eng.admit(0), "and refuses more until the probe answers");
        assert!(eng.admit(1), "the other replica is untouched");
        eng.on_success(0);
        assert_eq!(health(&eng, 0), (Health::Up, 0), "an answered probe ends the streak");
        assert!(eng.admit(0) && eng.admit(0));
    }

    #[test]
    fn a_panicking_probe_goes_down_with_the_next_backoff_step() {
        let p = processed();
        let shared = SharedModel::new(WeightedPrior::seeded(p.num_pois, 3), 1);
        let eng = ReplicatedEngine::new(shared, &p, ServeConfig::default(), fast_restarts(2));
        eng.mark_down(0);
        revive(&eng);
        assert!(eng.admit(0));
        let before = eng.now_us();
        eng.mark_down(0);
        let after = eng.now_us();
        let (Health::Down { restart_at_us }, 2) = health(&eng, 0) else {
            panic!("the probe's panic must take the replica down: {:?}", health(&eng, 0))
        };
        let step = eng.backoff_us(0, 1);
        assert!(step > eng.backoff_us(0, 0), "the backoff doubles");
        assert!((before + step..=after + step).contains(&restart_at_us));
    }

    #[test]
    fn an_incident_probes_live_replicas_and_leaves_down_ones_down() {
        let p = processed();
        let shared = SharedModel::new(WeightedPrior::seeded(p.num_pois, 3), 1);
        let signal = stisan_obs::HealthSignal::default();
        let eng = ReplicatedEngine::new(shared, &p, ServeConfig::default(), sup(3))
            .with_health(signal.clone());
        plock(&eng.replicas[1]).health = Health::Probation { probing: true };
        eng.mark_down(2);
        let down = health(&eng, 2);
        signal.set(true, true);
        eng.tick();
        assert_eq!(health(&eng, 0), (Health::Probation { probing: false }, 0));
        assert_eq!(health(&eng, 1), (Health::Probation { probing: false }, 0));
        assert_eq!(health(&eng, 2), down, "a down replica waits out its backoff");
        assert_eq!(eng.healthy_count(), 2);
    }

    #[test]
    fn all_dead_degrades_to_fallback_and_restarts_revive() {
        let p = processed();
        crate::chaos::silence_chaos_panics();
        let fb = FallbackScorer::build(&p);
        let direct = InferenceSession::new(&fb, &p, ServeConfig::default());
        let plan = ChaosPlan::new();
        let scorer = ChaosScorer::new(WeightedPrior::seeded(p.num_pois, 3), plan.clone());
        let eng = ReplicatedEngine::new(SharedModel::new(scorer, 7), &p, ServeConfig::default(), sup(1));
        plan.arm_panic(1);
        let mut tr: Vec<TraceCtx> = (0..2).map(|i| TraceCtx::new(i as u64)).collect();
        let outs = eng.serve_outcomes(&p.eval[..2], 0, &mut tr);
        assert_eq!(eng.healthy_count(), 0);
        // The dead pool answers in degraded mode, bit-identical to the
        // fallback scorer.
        for (inst, out) in p.eval[..2].iter().zip(&outs) {
            let s = out.as_ref().expect("fallback on: a dead pool still answers");
            assert!(s.degraded);
            assert_eq!(s.replica, FALLBACK_REPLICA);
            assert_eq!(s.rec.items, direct.serve_one(inst).items);
        }

        // Fallback off: the one replica's panic surfaces as typed failures,
        // never as a panic of the caller.
        let plan = ChaosPlan::new();
        let scorer = ChaosScorer::new(WeightedPrior::seeded(p.num_pois, 3), plan.clone());
        let cfg = SupervisorConfig {
            fallback: false,
            restart_base_us: 1,
            restart_max_us: 2,
            ..sup(1)
        };
        let eng = ReplicatedEngine::new(SharedModel::new(scorer, 7), &p, ServeConfig::default(), cfg);
        plan.arm_panic(1);
        let outs = eng.serve_outcomes(&p.eval[..2], 0, &mut tr);
        for o in &outs {
            let f = o.as_ref().expect_err("fallback off: typed failures expected");
            assert_eq!(*f, ServeFailure::ReplicaPanic { replica: 0 });
            assert!(!f.to_string().is_empty());
        }
        // Once the supervisor has restarted the replica, it serves again.
        while eng.healthy_count() == 0 {
            eng.tick();
        }
        assert!(eng.serve_outcomes(&p.eval[..2], 0, &mut tr).iter().all(|o| o.is_ok()));
    }
}
