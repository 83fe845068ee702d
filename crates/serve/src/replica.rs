//! Replicated serving with supervision: user-routed replicas, a panic
//! boundary, circuit breaking, and degraded-mode fallback.
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
//! * unfinished instances are retried once on surviving replicas;
//! * with no survivors they fall back to the [`FallbackScorer`]
//!   (degraded mode) or surface as typed [`ServeFailure`]s the gateway
//!   maps to `INTERNAL` wire errors.
//!
//! The panicked replica is marked down and restarted after an exponential
//! backoff with deterministic splitmix jitter; each replica also carries a
//! [`CircuitBreaker`] fed by panics and slow batches, so a replica that
//! keeps failing is probed, not trusted.
//!
//! ## Threads and scratch
//!
//! The thread that calls `serve_outcomes` scores the first non-empty group
//! itself; each further group gets a scoped thread for the duration of the
//! call. A batch that routes to one replica — every batch of 1 — therefore
//! spawns nothing, and a batch spanning G replicas spawns G − 1 threads.
//! The retry pass and the fallback also run on the caller.
//!
//! Each replica owns one warm [`ServeScratch`] (tensor arena, candidate,
//! score and top-K buffers) behind its own mutex — not the supervisor-state
//! lock that `admit`/`tick`/`healthy_count` take. Whoever scores on a
//! replica, group or retry, holds that lock for the duration, so the
//! buffers survive across batches and reload epochs (they hold no model
//! state) and concurrent callers take turns on a replica. A scorer that
//! panics may leave the buffers half-written: the scratch is replaced by a
//! fresh one before the lock is released.
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

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use stisan_data::{EvalInstance, Processed};
use stisan_eval::FrozenScorer;
use stisan_obs::{Stage, TraceCtx};

use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::chaos::splitmix64;
use crate::engine::{
    publish_retrieval_gauges, InferenceSession, Recommendation, ServeConfig, ServeScratch,
};
use crate::fallback::FallbackScorer;
use crate::reload::{EpochModel, SharedModel};

/// Sentinel replica id reported by degraded-mode (fallback) answers.
pub const FALLBACK_REPLICA: u16 = u16::MAX;

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
    /// existing callers: parallelism is [`SupervisorConfig::replicas`].
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
    /// Seed for the deterministic backoff jitter.
    pub jitter_seed: u64,
    /// Per-replica circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Batches slower than this count as breaker failures (0 disables).
    pub slow_batch_us: u64,
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
            jitter_seed: 0x5715_A000_0000_0001,
            breaker: BreakerConfig::default(),
            slow_batch_us: 0,
            fallback: true,
        }
    }
}

/// Locks shrugging off poisoning: supervisor state must stay reachable
/// after a replica panic — that is the entire point.
fn plock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Mutable supervisor state for one replica.
struct ReplicaState {
    up: bool,
    breaker: CircuitBreaker,
    restart_at_us: u64,
    restart_attempts: u32,
}

/// State shared with whichever thread scores one replica group. The pending /
/// done split is what makes panic recovery lossless: items still in
/// `pending` after a panic are retried with their trace slots intact.
struct GroupCtx<'i, 't> {
    replica: u16,
    pending: Mutex<VecDeque<(usize, &'i EvalInstance, Option<&'t mut TraceCtx>)>>,
    done: Mutex<Vec<(usize, Recommendation)>>,
    panicked: AtomicBool,
    elapsed_us: AtomicU64,
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
    fallback: FallbackScorer,
    t0: Instant,
    health: Option<stisan_obs::HealthSignal>,
    seen_incidents: AtomicU64,
}

impl<'d, M: FrozenScorer + Send + Sync> ReplicatedEngine<'d, M> {
    /// Builds the replica pool around an existing [`SharedModel`] handle
    /// (keep a clone to hot-reload through, or hand one to a
    /// `ReloadWatcher`).
    pub fn new(
        model: SharedModel<M>,
        data: &'d Processed,
        cfg: ServeConfig,
        sup: SupervisorConfig,
    ) -> Self {
        let sup = SupervisorConfig { replicas: sup.replicas.max(1), ..sup };
        let replicas = (0..sup.replicas)
            .map(|_| {
                Mutex::new(ReplicaState {
                    up: true,
                    breaker: CircuitBreaker::new(sup.breaker),
                    restart_at_us: 0,
                    restart_attempts: 0,
                })
            })
            .collect();
        let fallback = FallbackScorer::build(data);
        if let Some(state) = &model.current().retrieval {
            publish_retrieval_gauges(state);
        }
        stisan_obs::gauge("gateway.replicas_total", sup.replicas as f64);
        stisan_obs::gauge("gateway.replicas_healthy", sup.replicas as f64);
        ReplicatedEngine {
            data,
            cfg,
            model,
            sup,
            replicas,
            scratch: (0..sup.replicas).map(|_| Mutex::new(ServeScratch::new())).collect(),
            fallback,
            t0: Instant::now(),
            health: None,
            seen_incidents: AtomicU64::new(0),
        }
    }

    /// Couples the pool to the SLO engine's [`stisan_obs::HealthSignal`]:
    /// each availability *incident* (rising edge of the availability burn
    /// alert) marks every replica suspect — its breaker drops to half-open
    /// probation, so admitted traffic is probed and further failures trip
    /// the breaker instead of being trusted.
    pub fn with_health(mut self, health: stisan_obs::HealthSignal) -> Self {
        self.seen_incidents = AtomicU64::new(health.incidents());
        self.health = Some(health);
        self
    }

    /// The shared model handle (clone to publish new epochs).
    pub fn shared(&self) -> SharedModel<M> {
        self.model.clone()
    }

    /// Configured replica count.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Replicas currently up (restarted replicas count as up while their
    /// breaker probes them).
    pub fn healthy_count(&self) -> usize {
        self.replicas.iter().filter(|r| plock(r).up).count()
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
        let jitter =
            splitmix64(self.sup.jitter_seed, (replica as u64) << 32 | attempt as u64) % base;
        capped + jitter
    }

    /// Revives replicas whose restart backoff has elapsed. Called at the
    /// head of every batch; callable directly from tests.
    pub fn tick(&self) {
        let now = self.now_us();
        // An availability incident (alert rising edge) since the last tick
        // puts every replica on probation: the breaker re-proves each one
        // with probes before trusting it with full traffic again.
        if let Some(h) = &self.health {
            let inc = h.incidents();
            if inc > self.seen_incidents.swap(inc, Ordering::SeqCst) {
                for state in &self.replicas {
                    plock(state).breaker.begin_probation();
                }
                stisan_obs::counter("gateway.replica_suspect_total", self.replicas.len() as u64);
            }
        }
        let mut healthy = 0usize;
        for state in &self.replicas {
            let mut s = plock(state);
            if !s.up && now >= s.restart_at_us {
                s.up = true;
                s.breaker.begin_probation();
                stisan_obs::counter("gateway.replica_restarts_total", 1);
            }
            if s.up {
                healthy += 1;
            }
        }
        stisan_obs::gauge("gateway.replicas_healthy", healthy as f64);
    }

    /// Marks a replica down after a panic and schedules its restart.
    fn mark_down(&self, replica: usize) {
        let now = self.now_us();
        let mut s = plock(&self.replicas[replica]);
        s.breaker.on_failure(now);
        if s.up {
            s.up = false;
            s.restart_attempts = s.restart_attempts.saturating_add(1);
            s.restart_at_us = now + self.backoff_us(replica, s.restart_attempts - 1);
        }
        stisan_obs::counter("gateway.replica_panics_total", 1);
        drop(s);
        stisan_obs::gauge("gateway.replicas_healthy", self.healthy_count() as f64);
    }

    /// Whether `replica` may take traffic now; consumes a breaker probe
    /// slot when half-open.
    fn admit(&self, replica: usize) -> bool {
        let now = self.now_us();
        let mut s = plock(&self.replicas[replica]);
        s.up && s.breaker.allow(now)
    }

    fn on_group_success(&self, replica: usize, elapsed_us: u64) {
        let mut s = plock(&self.replicas[replica]);
        if self.sup.slow_batch_us > 0 && elapsed_us > self.sup.slow_batch_us {
            let now = self.now_us();
            s.breaker.on_failure(now);
        } else {
            s.breaker.on_success();
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
    /// poisoned; the scratch a dead scorer was writing to is discarded.
    fn with_scratch<R>(
        &self,
        r: usize,
        f: impl FnOnce(&mut ServeScratch) -> R,
    ) -> std::thread::Result<R> {
        let mut scratch = plock(&self.scratch[r]);
        let res = catch_unwind(AssertUnwindSafe(|| f(&mut scratch)));
        if res.is_err() {
            *scratch = ServeScratch::new();
        }
        res
    }

    /// Scores one replica group to exhaustion (or to its scorer's panic) on
    /// the current thread.
    fn score_group(&self, g: &GroupCtx, epoch: &EpochModel<M>) {
        let t0 = Instant::now();
        let session = self.session(epoch);
        let res = self.with_scratch(g.replica as usize, |scratch| loop {
            let item = plock(&g.pending).pop_front();
            let Some((i, inst, mut tr)) = item else { break };
            let mut rec = Recommendation::default();
            session.serve_one_into(inst, scratch, &mut rec);
            if let Some(t) = tr.as_mut() {
                t.stamp(Stage::Scored);
            }
            plock(&g.done).push((i, rec));
        });
        if res.is_err() {
            g.panicked.store(true, Ordering::SeqCst);
        }
        g.elapsed_us.store(t0.elapsed().as_micros() as u64, Ordering::SeqCst);
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
        let epoch = self.model.current();

        // Route each instance: primary by user hash, then the next admitted
        // replica, else degraded/failed.
        let mut admitted: Vec<Option<bool>> = vec![None; n];
        let mut admit_cached = |engine: &Self, r: usize| -> bool {
            *admitted[r].get_or_insert_with(|| engine.admit(r))
        };
        let mut slots: Vec<Option<&mut TraceCtx>> = traces.iter_mut().map(Some).collect();
        debug_assert_eq!(slots.len(), insts.len(), "traces misaligned");
        let groups: Vec<GroupCtx> = (0..n)
            .map(|r| GroupCtx {
                replica: r as u16,
                pending: Mutex::new(VecDeque::new()),
                done: Mutex::new(Vec::new()),
                panicked: AtomicBool::new(false),
                elapsed_us: AtomicU64::new(0),
            })
            .collect();
        let mut unrouted: Vec<(usize, Option<&mut TraceCtx>)> = Vec::new();
        let mut assignment: Vec<u16> = vec![FALLBACK_REPLICA; insts.len()];
        for (i, (inst, slot)) in insts.iter().zip(slots.iter_mut()).enumerate() {
            let primary = self.primary_for(inst.user);
            let chosen = (0..n).map(|k| (primary + k) % n).find(|&r| admit_cached(self, r));
            match chosen {
                Some(r) => {
                    assignment[i] = r as u16;
                    plock(&groups[r].pending).push_back((i, inst, slot.take()));
                }
                None => unrouted.push((i, slot.take())),
            }
        }

        // Score every non-empty group behind the panic boundary: the other
        // groups on scoped threads (spawned first, so they overlap), one on
        // this thread. `score_group` catches its scorer's panic itself, so
        // the scope has nothing to re-raise on join.
        let active: Vec<&GroupCtx> =
            groups.iter().filter(|g| !plock(&g.pending).is_empty()).collect();
        if let Some((inline, spawned)) = active.split_first() {
            std::thread::scope(|scope| {
                for &g in spawned {
                    let epoch = &*epoch;
                    scope.spawn(move || self.score_group(g, epoch));
                }
                self.score_group(inline, &epoch);
            });
        }
        drop(active);

        // Harvest: successes, then supervision for panicked groups.
        let mut out: Vec<Option<ServeOutcome>> = (0..insts.len()).map(|_| None).collect();
        let mut retry: Vec<(usize, Option<&mut TraceCtx>, u16)> = Vec::new();
        for g in groups {
            let replica = g.replica;
            let panicked = g.panicked.load(Ordering::SeqCst);
            let elapsed = g.elapsed_us.load(Ordering::SeqCst);
            let done = g.done.into_inner().unwrap_or_else(PoisonError::into_inner);
            let had_work = !done.is_empty() || panicked;
            for (i, rec) in done {
                out[i] = Some(Ok(ServedRec { rec, replica, epoch: epoch.epoch, degraded: false }));
            }
            if panicked {
                self.mark_down(replica as usize);
                // Items still pending keep their trace slots; the one
                // in-flight at the panic lost its slot but is recovered by
                // index below.
                let pending = g.pending.into_inner().unwrap_or_else(PoisonError::into_inner);
                for (i, _inst, tr) in pending {
                    retry.push((i, tr, replica));
                }
            } else if had_work {
                self.on_group_success(replica as usize, elapsed);
            }
        }
        // Indices assigned but not yet answered or queued for retry: the
        // instance a panicking worker was holding (its trace slot died with
        // the worker; the instance itself is recovered by index).
        for i in 0..insts.len() {
            let lost = out[i].is_none()
                && assignment[i] != FALLBACK_REPLICA
                && !retry.iter().any(|(j, _, _)| *j == i);
            if lost {
                retry.push((i, None, assignment[i]));
            }
        }

        // One retry pass on surviving replicas, then fallback.
        for (i, mut tr, from) in retry {
            stisan_obs::counter("gateway.replica_retries_total", 1);
            let inst = &insts[i];
            let mut served: Option<ServeOutcome> = None;
            for r in 0..n {
                if r as u16 == from || !self.admit(r) {
                    continue;
                }
                let session = self.session(&epoch);
                let mut rec = Recommendation::default();
                match self.with_scratch(r, |scratch| session.serve_one_into(inst, scratch, &mut rec))
                {
                    Ok(()) => {
                        if let Some(t) = tr.as_mut() {
                            t.stamp(Stage::Scored);
                        }
                        plock(&self.replicas[r]).breaker.on_success();
                        served = Some(Ok(ServedRec {
                            rec,
                            replica: r as u16,
                            epoch: epoch.epoch,
                            degraded: false,
                        }));
                        break;
                    }
                    Err(_) => self.mark_down(r),
                }
            }
            let outcome = served.unwrap_or_else(|| {
                if self.sup.fallback {
                    let rec = self.serve_fallback(inst, epoch.epoch);
                    if let Some(t) = tr.as_mut() {
                        t.stamp(Stage::Scored);
                    }
                    Ok(rec)
                } else if from == FALLBACK_REPLICA {
                    Err(ServeFailure::Unavailable)
                } else {
                    Err(ServeFailure::ReplicaPanic { replica: from })
                }
            });
            out[i] = Some(outcome);
        }

        // Requests that never found a routable replica: degraded mode.
        for (i, mut tr) in unrouted {
            let outcome = if self.sup.fallback {
                let rec = self.serve_fallback(&insts[i], epoch.epoch);
                if let Some(t) = tr.as_mut() {
                    t.stamp(Stage::Scored);
                }
                Ok(rec)
            } else {
                Err(ServeFailure::Unavailable)
            };
            out[i] = Some(outcome);
        }

        stisan_obs::gauge("gateway.replicas_healthy", self.healthy_count() as f64);
        out.into_iter().map(|o| o.unwrap_or(Err(ServeFailure::Unavailable))).collect()
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
        let eng = ReplicatedEngine::new(
            SharedModel::new(Probe::new(p.num_pois), 1),
            &p,
            ServeConfig::default(),
            sup(2),
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
        let eng = ReplicatedEngine::new(SharedModel::new(scorer, 1), &p, ServeConfig::default(), cfg);
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
