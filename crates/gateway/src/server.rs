//! The TCP serving front-end: admission control, the dispatcher thread that
//! drives the micro-batcher, per-connection frame loops, and graceful
//! drain-then-stop shutdown.
//!
//! ## Thread structure
//!
//! [`Gateway::serve`] blocks inside one `std::thread::scope`:
//!
//! * the **accept loop** (calling thread) admits connections and spawns one
//!   handler thread per connection;
//! * each **connection handler** reads frames (bounded poll reads, so it
//!   notices shutdown and enforces the idle timeout), validates requests
//!   against the serving catalogue, offers them to the shared
//!   [`MicroBatcher`] (shedding with `OVERLOADED` when the bounded queue is
//!   full), then blocks on its per-request reply channel and writes the
//!   response frame;
//! * the **dispatcher** sleeps while the pending queue is empty and takes
//!   whatever is pending (up to `max_batch_size`) the moment it is not,
//!   drops requests whose deadline expired while queued
//!   (`DEADLINE_EXCEEDED`, enforced at dequeue time), and hands the rest to
//!   the [`EngineBackend`] — one batch at a time, like a device. It is in
//!   its wait loop exactly when the engine is idle, so an idle engine never
//!   leaves a request waiting; requests accumulate only while batch k is
//!   being scored and leave together as batch k+1, which is what makes
//!   micro-batching the throughput lever under load
//!   (`tests/batcher_props.rs` checks both claims on a simulated clock).
//!   The backend is a supervised `stisan_serve::ReplicatedEngine`, whose
//!   replica count is the scoring parallelism; scoring **cannot panic
//!   the gateway** — failures come back as typed [`ServeFailure`]s that
//!   the dispatcher converts to `INTERNAL` error frames (with the failure
//!   detail in the message) and the handler writes like any other reply;
//! * with [`Gateway::serve_reloading`], a **reload thread** polls a
//!   `stisan_serve::Reloader` on a fixed interval, hot-swapping validated
//!   checkpoints into the backend with zero downtime;
//! * when [`GatewayConfig::admin`] is set, the **admin listener** serves
//!   `GET /metrics`, `/healthz`, `/flightrec`, and `/traces` on its own
//!   port (see [`crate::admin`]).
//!
//! [`ServeFailure`]: stisan_serve::ServeFailure
//!
//! ## Request tracing
//!
//! Every request gets a trace id at admission — the client's, if the frame
//! carried one (protocol v2), otherwise server-assigned — and a
//! [`TraceCtx`] that stamps each pipeline stage on a monotonic clock:
//! admitted → enqueued → batch-sealed → scored → written. Finished traces
//! feed the global per-stage histograms and the slowest-trace exemplar
//! table; clients that sent a trace id get the stage offsets echoed in the
//! response. Lifecycle events (admission, sheds, deadline drops,
//! completions) also land in the always-on flight recorder, which is dumped
//! to [`GatewayConfig::flight_dir`] on shutdown and on the first
//! `OVERLOADED` shed.
//!
//! ## Shutdown sequence
//!
//! [`GatewayHandle::shutdown`] flips an atomic flag, closes the
//! [`MicroBatcher`] under the queue lock and wakes the dispatcher. The
//! accept loop stops accepting; a *new* request is answered
//! `SHUTTING_DOWN` — by the handler's early flag check, or, if it raced
//! past that, by its offer to the closed batcher, so admission and drain
//! are decided under one lock; the dispatcher keeps emitting batches until
//! the queue is closed **and** empty — a state no offer can leave — so
//! every admitted request is answered; then the scope joins and
//! [`Gateway::serve`] returns the run's [`GatewayStats`].

use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use std::{fmt, io};

use stisan_data::{EvalInstance, Processed};
use stisan_obs::{Outcome, Stage, TraceCtx, NO_REPLICA};
use stisan_serve::{EngineBackend, Reloader};

use crate::batcher::{BatchPolicy, MicroBatcher, Rejected};
use crate::protocol::{
    decode, decode_header, ErrorCode, ErrorFrame, Frame, Header, Request, Response, TraceEcho,
    Visit, HEADER_LEN, MAX_K,
};

/// Interval at which blocked reads re-check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);
/// How long a connection mid-frame may stall the drain once shutdown began.
const SHUTDOWN_GRACE: Duration = Duration::from_millis(250);
/// Accept-loop sleep while no connection is pending.
const ACCEPT_IDLE: Duration = Duration::from_millis(5);

/// Gateway configuration.
#[derive(Clone, Debug)]
pub struct GatewayConfig {
    /// Micro-batching policy (batch bound, queue bound).
    pub batch: BatchPolicy,
    /// Longest a connection may sit without sending a byte (between frames
    /// or mid-frame) before it is closed.
    pub read_timeout: Duration,
    /// Bind address for the admin/observability HTTP listener
    /// (`/metrics`, `/healthz`, `/flightrec`, `/traces`). `None` disables
    /// it. Use port 0 for an ephemeral port and read it back via
    /// [`Gateway::admin_addr`].
    pub admin: Option<SocketAddr>,
    /// Directory for flight-recorder dumps (written on shutdown, on the
    /// first `OVERLOADED` shed, and on the first newly-firing alert).
    /// `None` disables dump files; the in-memory recorder and the
    /// `/flightrec` endpoint stay live either way.
    pub flight_dir: Option<PathBuf>,
    /// Sampler + SLO engine configuration (windowed time-series store,
    /// burn-rate alerting, `GET /timeseries` / `/slo` / `/alerts`). `None`
    /// disables the sampler thread and those admin routes.
    pub slo: Option<crate::slo::SloConfig>,
}

impl Default for GatewayConfig {
    /// Default batching policy, 30 s idle timeout, no admin listener, dumps
    /// under `results/`, SLO sampler on.
    fn default() -> Self {
        GatewayConfig {
            batch: BatchPolicy::default(),
            read_timeout: Duration::from_secs(30),
            admin: None,
            flight_dir: Some(PathBuf::from("results")),
            slo: Some(crate::slo::SloConfig::default()),
        }
    }
}

/// Counters for one serve run, snapshotted by [`Gateway::serve`] on return
/// and readable live through [`GatewayHandle::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// Connections accepted.
    pub connections: u64,
    /// Requests admitted to the pending queue.
    pub admitted: u64,
    /// Requests answered with a recommendation list.
    pub served: u64,
    /// Requests shed at admission (`OVERLOADED`).
    pub shed: u64,
    /// Admitted requests dropped at dequeue for blowing their deadline.
    pub deadline_exceeded: u64,
    /// Well-framed requests rejected by validation (`BAD_REQUEST`).
    pub bad_requests: u64,
    /// Framing/decode failures (connection closed after each).
    pub protocol_errors: u64,
    /// Requests refused because shutdown had begun (`SHUTTING_DOWN`).
    pub rejected_shutdown: u64,
    /// Batches handed to the scoring pool.
    pub batches: u64,
    /// Admitted requests that failed inside the scoring backend
    /// (replica panic with no recovery path; answered `INTERNAL`).
    pub internal_errors: u64,
}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    admitted: AtomicU64,
    served: AtomicU64,
    shed: AtomicU64,
    deadline_exceeded: AtomicU64,
    bad_requests: AtomicU64,
    protocol_errors: AtomicU64,
    rejected_shutdown: AtomicU64,
    batches: AtomicU64,
    internal_errors: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> GatewayStats {
        GatewayStats {
            connections: self.connections.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            bad_requests: self.bad_requests.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            rejected_shutdown: self.rejected_shutdown.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            internal_errors: self.internal_errors.load(Ordering::Relaxed),
        }
    }
}

/// What the dispatcher sends back to a waiting connection handler. The
/// trace context rides along so the handler can stamp [`Stage::Written`]
/// and build the response's trace echo.
enum Reply {
    /// Scored successfully; items already truncated to the request's `k`.
    /// Carries the replica id and reload epoch that produced the answer
    /// for flight-recorder attribution ([`NO_REPLICA`] from fallback).
    Ok(Response, TraceCtx, u16, u64),
    /// Dropped with a typed error; the detail string goes out in the error
    /// frame so clients see *why* (e.g. which replica panicked).
    Err(ErrorCode, String, TraceCtx),
}

/// One admitted request, queued in the micro-batcher.
struct PendingReq {
    inst: EvalInstance,
    k: usize,
    /// Absolute deadline on the gateway clock, `None` for no budget.
    deadline_us: Option<u64>,
    reply: mpsc::Sender<Reply>,
    trace: TraceCtx,
}

pub(crate) struct Shared {
    queue: Mutex<MicroBatcher<PendingReq>>,
    cv: Condvar,
    shutdown: AtomicBool,
    t0: Instant,
    stats: Counters,
    /// Source of server-assigned trace ids (requests without a client id).
    next_trace: AtomicU64,
    /// Whether the first-shed flight dump was already written.
    first_shed_dump: AtomicBool,
    /// Whether the first replica-panic flight dump was already written.
    replica_panic_dump: AtomicBool,
    flight_dir: Option<PathBuf>,
    /// The sampler + SLO engine, when enabled ([`GatewayConfig::slo`]).
    slo: Option<Arc<crate::slo::SloRuntime>>,
}

impl Shared {
    fn now_us(&self) -> u64 {
        self.t0.elapsed().as_micros() as u64
    }

    /// Milliseconds on the gateway clock (the sampler/SLO time base).
    pub(crate) fn now_ms(&self) -> u64 {
        self.t0.elapsed().as_millis() as u64
    }

    pub(crate) fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Starts drain-then-stop. The batcher is closed under the queue lock,
    /// so every offer is ordered against it (admitted and drained, or
    /// rejected `Closed`), and the dispatcher — which checks and waits
    /// under the same lock — cannot miss the wake-up.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        lock(&self.queue).close();
        self.cv.notify_all();
    }

    pub(crate) fn slo(&self) -> Option<&crate::slo::SloRuntime> {
        self.slo.as_deref()
    }
}

/// Poison-tolerant lock: a panicked holder must not wedge the whole
/// gateway, so we take the data as-is (every critical section leaves the
/// batcher structurally valid).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Remote-control handle for a running gateway: initiate shutdown and read
/// live stats from other threads.
#[derive(Clone)]
pub struct GatewayHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    admin_addr: Option<SocketAddr>,
}

impl GatewayHandle {
    /// The address the gateway is bound to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The admin listener's bound address, if one was configured.
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin_addr
    }

    /// Signals drain-then-stop shutdown: no new connections or requests,
    /// every already-admitted request still gets its answer.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Live counter snapshot.
    pub fn stats(&self) -> GatewayStats {
        self.shared.stats.snapshot()
    }

    /// The SLO engine's health signal, when the sampler is enabled.
    pub fn health_signal(&self) -> Option<stisan_obs::HealthSignal> {
        self.shared.slo.as_ref().map(|rt| rt.health())
    }
}

impl fmt::Debug for GatewayHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GatewayHandle").field("addr", &self.addr).finish()
    }
}

/// A bound-but-not-yet-serving gateway. [`Gateway::serve`] blocks until a
/// [`GatewayHandle::shutdown`]; grab the handle first.
pub struct Gateway {
    listener: TcpListener,
    admin: Option<TcpListener>,
    admin_addr: Option<SocketAddr>,
    cfg: GatewayConfig,
    shared: Arc<Shared>,
    addr: SocketAddr,
}

impl Gateway {
    /// Binds the listening socket (and the admin socket, when configured).
    /// Use port 0 for an ephemeral port (tests, the in-process load
    /// generator) and read it back via [`Gateway::local_addr`] /
    /// [`Gateway::admin_addr`]. Also enables the global observability
    /// context: the gateway's histograms, traces, and flight recorder are
    /// always on.
    pub fn bind(addr: impl ToSocketAddrs, cfg: GatewayConfig) -> io::Result<Gateway> {
        stisan_obs::init();
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let admin = match cfg.admin {
            Some(a) => Some(TcpListener::bind(a)?),
            None => None,
        };
        let admin_addr = match &admin {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };
        let slo = cfg.slo.as_ref().map(|c| Arc::new(crate::slo::SloRuntime::new(c)));
        let shared = Arc::new(Shared {
            queue: Mutex::new(MicroBatcher::new(cfg.batch)),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            t0: Instant::now(),
            stats: Counters::default(),
            next_trace: AtomicU64::new(1),
            first_shed_dump: AtomicBool::new(false),
            replica_panic_dump: AtomicBool::new(false),
            flight_dir: cfg.flight_dir.clone(),
            slo,
        });
        Ok(Gateway { listener, admin, admin_addr, cfg, shared, addr })
    }

    /// The SLO engine's health signal, when the sampler is enabled — hand
    /// it to `ReplicatedEngine::with_health` / `ReloadWatcher::with_health`
    /// before calling [`Gateway::serve`] so firing availability alerts mark
    /// replicas suspect and veto canary publishes.
    pub fn health_signal(&self) -> Option<stisan_obs::HealthSignal> {
        self.shared.slo.as_ref().map(|rt| rt.health())
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The admin listener's bound address, if one was configured.
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin_addr
    }

    /// A shutdown/stats handle, cloneable and usable from any thread.
    pub fn handle(&self) -> GatewayHandle {
        GatewayHandle {
            shared: Arc::clone(&self.shared),
            addr: self.addr,
            admin_addr: self.admin_addr,
        }
    }

    /// Runs the gateway until shutdown, then drains, writes the shutdown
    /// flight dump, and returns the run's stats. The backend is an
    /// [`EngineBackend`] — a supervised `ReplicatedEngine`.
    pub fn serve<B: EngineBackend>(self, backend: &B) -> io::Result<GatewayStats> {
        self.serve_inner(backend, None)
    }

    /// [`serve`] plus a hot-reload loop: polls `reloader` every `interval`
    /// until shutdown, so checkpoints published while the gateway runs are
    /// validated and swapped in with requests in flight.
    ///
    /// [`serve`]: Gateway::serve
    pub fn serve_reloading<B: EngineBackend>(
        self,
        backend: &B,
        reloader: &dyn Reloader,
        interval: Duration,
    ) -> io::Result<GatewayStats> {
        self.serve_inner(backend, Some((reloader, interval)))
    }

    fn serve_inner<B: EngineBackend>(
        self,
        backend: &B,
        reload: Option<(&dyn Reloader, Duration)>,
    ) -> io::Result<GatewayStats> {
        self.listener.set_nonblocking(true)?;
        let shared = &*self.shared;
        let read_timeout = self.cfg.read_timeout;
        let admin = self.admin;
        let data = backend.data();
        std::thread::scope(|s| {
            s.spawn(|| dispatcher(shared, backend));
            if let Some(listener) = admin {
                s.spawn(move || crate::admin::serve_admin(listener, shared));
            }
            if let Some((reloader, interval)) = reload {
                s.spawn(move || reload_loop(shared, reloader, interval));
            }
            if shared.slo.is_some() {
                s.spawn(move || slo_loop(shared));
            }
            loop {
                if shared.is_shutdown() {
                    break;
                }
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        shared.stats.connections.fetch_add(1, Ordering::Relaxed);
                        s.spawn(move || handle_conn(stream, shared, data, read_timeout));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(ACCEPT_IDLE);
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        // Fatal accept error: begin drain rather than spin.
                        shared.begin_shutdown();
                        break;
                    }
                }
            }
        });
        if let (Some(dir), Some(rec)) = (shared.flight_dir.as_ref(), stisan_obs::flight_recorder())
        {
            let _ = rec.write_dump(dir, stisan_obs::DumpReason::Shutdown);
        }
        Ok(shared.stats.snapshot())
    }
}

/// Writes the first-shed flight dump, once per gateway run. Called *after*
/// the shed's own event is recorded, so the dump contains it.
fn maybe_dump_first_shed(shared: &Shared) {
    if shared.first_shed_dump.swap(true, Ordering::Relaxed) {
        return;
    }
    if let (Some(dir), Some(rec)) = (shared.flight_dir.as_ref(), stisan_obs::flight_recorder()) {
        let _ = rec.write_dump(dir, stisan_obs::DumpReason::FirstShed);
    }
}

/// Writes the first replica-panic flight dump, once per gateway run —
/// post-mortems want the ring exactly as it stood when the first replica
/// died, replica/epoch attribution included. Called *after* the failure's
/// own event is recorded, so the dump contains it.
fn maybe_dump_replica_panic(shared: &Shared) {
    if shared.replica_panic_dump.swap(true, Ordering::Relaxed) {
        return;
    }
    if let (Some(dir), Some(rec)) = (shared.flight_dir.as_ref(), stisan_obs::flight_recorder()) {
        let _ = rec.write_dump(dir, stisan_obs::DumpReason::ReplicaPanic);
    }
}

/// The sampler loop: folds registry snapshots into the windowed store and
/// evaluates the SLO engine on a fixed cadence until shutdown (short sleep
/// slices so drain is never delayed). A final tick runs at shutdown so
/// short runs still leave a consistent last evaluation behind.
fn slo_loop(shared: &Shared) {
    let Some(rt) = shared.slo() else { return };
    let interval = rt.interval();
    while !shared.is_shutdown() {
        rt.tick(shared.now_ms(), shared.flight_dir.as_deref());
        let mut left = interval;
        while !shared.is_shutdown() && !left.is_zero() {
            let nap = left.min(POLL_INTERVAL);
            std::thread::sleep(nap);
            left = left.saturating_sub(nap);
        }
    }
    rt.tick(shared.now_ms(), shared.flight_dir.as_deref());
}

/// The hot-reload loop: polls for newly published checkpoints until
/// shutdown, sleeping in short slices so drain is never delayed.
fn reload_loop(shared: &Shared, reloader: &dyn Reloader, interval: Duration) {
    while !shared.is_shutdown() {
        let _ = reloader.poll_now();
        let mut left = interval;
        while !shared.is_shutdown() && !left.is_zero() {
            let nap = left.min(POLL_INTERVAL);
            std::thread::sleep(nap);
            left = left.saturating_sub(nap);
        }
    }
}

/// The dispatcher: sleeps while the queue is empty, takes what is pending,
/// enforces deadlines at dequeue, scores the batch through the backend's
/// panic boundary, replies. Exits once the batcher is closed and empty.
fn dispatcher<B: EngineBackend>(shared: &Shared, backend: &B) {
    loop {
        let (batch, depth) = {
            let mut q = lock(&shared.queue);
            while q.is_empty() {
                if q.is_closed() {
                    return;
                }
                q = shared.cv.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
            (q.take(), q.len())
        };
        stisan_obs::gauge("gateway.queue_depth", depth as f64);

        let now = shared.now_us();
        let mut insts = Vec::with_capacity(batch.len());
        let mut waiting = Vec::with_capacity(batch.len());
        let mut traces: Vec<TraceCtx> = Vec::with_capacity(batch.len());
        for p in batch {
            stisan_obs::observe("gateway.wait_us", now.saturating_sub(p.arrived_us) as f64);
            let mut req = p.item;
            req.trace.stamp(Stage::BatchSealed);
            if req.deadline_us.is_some_and(|d| now > d) {
                shared.stats.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                stisan_obs::counter("gateway.deadline_exceeded_total", 1);
                stisan_obs::flight_event(
                    req.trace.trace_id,
                    Stage::BatchSealed,
                    Outcome::DeadlineExceeded,
                );
                let _ = req.reply.send(Reply::Err(
                    ErrorCode::DeadlineExceeded,
                    ErrorCode::DeadlineExceeded.to_string(),
                    req.trace,
                ));
            } else {
                insts.push(req.inst);
                waiting.push((req.reply, req.k));
                traces.push(req.trace);
            }
        }
        if insts.is_empty() {
            continue;
        }
        stisan_obs::observe("gateway.batch_fill", insts.len() as f64);
        stisan_obs::counter("gateway.batches_total", 1);
        shared.stats.batches.fetch_add(1, Ordering::Relaxed);

        let outcomes = backend.serve_outcomes(&insts, 0, &mut traces);
        for (((reply, k), outcome), trace) in waiting.into_iter().zip(outcomes).zip(traces) {
            match outcome {
                Ok(served) => {
                    let mut items = served.rec.items;
                    items.truncate(k);
                    let resp = Response {
                        pool: served.rec.pool as u32,
                        scored: served.rec.scored as u32,
                        items,
                        trace: None,
                    };
                    shared.stats.served.fetch_add(1, Ordering::Relaxed);
                    stisan_obs::counter("gateway.served_total", 1);
                    let replica = if served.degraded { NO_REPLICA } else { served.replica };
                    let _ = reply.send(Reply::Ok(resp, trace, replica, served.epoch));
                }
                Err(failure) => {
                    shared.stats.internal_errors.fetch_add(1, Ordering::Relaxed);
                    stisan_obs::counter("gateway.internal_errors_total", 1);
                    stisan_obs::flight_event(trace.trace_id, Stage::Scored, Outcome::Internal);
                    maybe_dump_replica_panic(shared);
                    let _ = reply.send(Reply::Err(
                        ErrorCode::Internal,
                        failure.to_string(),
                        trace,
                    ));
                }
            }
        }
    }
}

/// Outcome of one polled frame read.
enum Polled {
    Frame(Frame),
    Decode(crate::protocol::DecodeError),
    /// Clean close, idle timeout, transport error, or shutdown observed
    /// while no frame was in flight — in every case: stop reading.
    Closed,
}

/// Reads exactly `out.len()` bytes with short poll timeouts so the loop can
/// observe shutdown and enforce the idle budget. `first` marks the start of
/// a frame: a clean EOF or a shutdown there is a normal close.
fn read_exact_polled(
    stream: &mut TcpStream,
    out: &mut [u8],
    shared: &Shared,
    idle_budget: Duration,
) -> Result<bool, ()> {
    let mut got = 0usize;
    let mut idle_since = Instant::now();
    let mut shutdown_seen: Option<Instant> = None;
    while got < out.len() {
        match stream.read(&mut out[got..]) {
            Ok(0) => return Err(()), // peer closed
            Ok(n) => {
                got += n;
                idle_since = Instant::now();
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.is_shutdown() {
                    if got == 0 {
                        return Ok(false); // idle at shutdown: close quietly
                    }
                    let seen = *shutdown_seen.get_or_insert_with(Instant::now);
                    if seen.elapsed() > SHUTDOWN_GRACE {
                        return Err(()); // mid-frame straggler: cut it
                    }
                } else if idle_since.elapsed() > idle_budget {
                    return Err(()); // idle/slow-loris timeout
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Err(()),
        }
    }
    Ok(true)
}

/// Reads one frame with polling; see [`Polled`].
fn read_frame_polled(
    stream: &mut TcpStream,
    shared: &Shared,
    idle_budget: Duration,
) -> Polled {
    let mut hb = [0u8; HEADER_LEN];
    match read_exact_polled(stream, &mut hb, shared, idle_budget) {
        Ok(true) => {}
        Ok(false) | Err(()) => return Polled::Closed,
    }
    let Header { payload_len, .. } = match decode_header(&hb) {
        Ok(h) => h,
        Err(e) => return Polled::Decode(e),
    };
    let total = HEADER_LEN + payload_len as usize + 4;
    let mut buf = vec![0u8; total];
    buf[..HEADER_LEN].copy_from_slice(&hb);
    match read_exact_polled(stream, &mut buf[HEADER_LEN..], shared, idle_budget) {
        Ok(true) => {}
        Ok(false) | Err(()) => return Polled::Closed,
    }
    match decode(&buf) {
        Ok(f) => Polled::Frame(f),
        Err(e) => Polled::Decode(e),
    }
}

fn send_error(stream: &mut TcpStream, code: ErrorCode, msg: impl Into<String>) {
    let frame = Frame::Error(ErrorFrame::new(code, msg));
    let _ = crate::protocol::write_frame(stream, &frame);
}

/// Refuses a request that arrived after drain began (`SHUTTING_DOWN`).
fn reject_shutting_down(stream: &mut TcpStream, shared: &Shared, trace_id: u64) {
    shared.stats.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
    stisan_obs::flight_event(trace_id, Stage::Admitted, Outcome::ShuttingDown);
    send_error(stream, ErrorCode::ShuttingDown, "gateway is draining");
}

/// A stage stamp saturated into the response echo's `u32` µs field.
fn stamp_u32(trace: &TraceCtx, stage: Stage) -> u32 {
    trace.get(stage).unwrap_or(0).min(u64::from(u32::MAX)) as u32
}

/// One connection's request/response loop (one outstanding request at a
/// time; concurrency comes from concurrent connections).
fn handle_conn(
    mut stream: TcpStream,
    shared: &Shared,
    data: &Processed,
    idle_budget: Duration,
) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    loop {
        let frame = match read_frame_polled(&mut stream, shared, idle_budget) {
            Polled::Frame(f) => f,
            Polled::Decode(e) => {
                // Framing can't be trusted after a corrupt frame: answer
                // with the typed error, then close.
                shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let code = match e {
                    crate::protocol::DecodeError::BadVersion(_) => ErrorCode::UnsupportedVersion,
                    _ => ErrorCode::Malformed,
                };
                send_error(&mut stream, code, e.to_string());
                break;
            }
            Polled::Closed => break,
        };
        let req = match frame {
            Frame::Request(r) => r,
            Frame::Response(_) | Frame::Error(_) => {
                shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                send_error(&mut stream, ErrorCode::Malformed, "expected a request frame");
                break;
            }
        };
        // Trace id: the client's (v2 frames), else server-assigned. Only
        // client-supplied ids are echoed back in the response.
        let wants_echo = req.trace_id.is_some();
        let trace_id = req
            .trace_id
            .unwrap_or_else(|| shared.next_trace.fetch_add(1, Ordering::Relaxed));
        let mut trace = TraceCtx::new(trace_id);
        if shared.is_shutdown() {
            reject_shutting_down(&mut stream, shared, trace_id);
            break;
        }
        let inst = match request_to_instance(data, &req) {
            Ok(i) => i,
            Err(why) => {
                shared.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                send_error(&mut stream, ErrorCode::BadRequest, why);
                continue;
            }
        };
        stisan_obs::flight_event(trace_id, Stage::Admitted, Outcome::Ok);
        let (tx, rx) = mpsc::channel();
        let now = shared.now_us();
        trace.stamp(Stage::Enqueued);
        let pending = PendingReq {
            inst,
            k: req.k as usize,
            deadline_us: (req.deadline_ms > 0)
                .then(|| now.saturating_add(u64::from(req.deadline_ms) * 1_000)),
            reply: tx,
            trace,
        };
        let (admitted, depth) = {
            let mut q = lock(&shared.queue);
            (q.offer(pending, now), q.len())
        };
        stisan_obs::gauge("gateway.queue_depth", depth as f64);
        match admitted {
            Ok(()) => {}
            Err(Rejected::Full(_)) => {
                shared.stats.shed.fetch_add(1, Ordering::Relaxed);
                stisan_obs::counter("gateway.shed_total", 1);
                stisan_obs::flight_event(trace_id, Stage::Enqueued, Outcome::Shed);
                maybe_dump_first_shed(shared);
                send_error(&mut stream, ErrorCode::Overloaded, "pending queue full");
                continue;
            }
            // Shutdown began between the flag check above and the offer.
            Err(Rejected::Closed(_)) => {
                reject_shutting_down(&mut stream, shared, trace_id);
                break;
            }
        }
        shared.stats.admitted.fetch_add(1, Ordering::Relaxed);
        stisan_obs::counter("gateway.requests_total", 1);
        // The dispatcher is the condvar's only waiter.
        shared.cv.notify_one();
        match rx.recv() {
            Ok(Reply::Ok(mut resp, mut trace, replica, epoch)) => {
                trace.stamp(Stage::Written);
                if wants_echo {
                    resp.trace = Some(TraceEcho {
                        trace_id,
                        stage_us: [
                            stamp_u32(&trace, Stage::Enqueued),
                            stamp_u32(&trace, Stage::BatchSealed),
                            stamp_u32(&trace, Stage::Scored),
                            stamp_u32(&trace, Stage::Written),
                        ],
                    });
                }
                let wrote =
                    crate::protocol::write_frame(&mut stream, &Frame::Response(resp)).is_ok();
                stisan_obs::flight_event_ext(trace_id, Stage::Written, Outcome::Ok, replica, epoch);
                stisan_obs::record_trace(&trace);
                if !wrote {
                    break;
                }
            }
            Ok(Reply::Err(code, detail, _trace)) => {
                // Dropped traces (deadline blown, backend failure) stay out
                // of the latency histograms; their flight event was already
                // recorded by the dispatcher.
                send_error(&mut stream, code, detail);
            }
            Err(_) => {
                // Dispatcher gone mid-request (server tearing down hard).
                stisan_obs::flight_event(trace_id, Stage::Written, Outcome::Internal);
                send_error(&mut stream, ErrorCode::Internal, "serving pipeline dropped request");
                break;
            }
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Validates a wire request against the serving catalogue and rebuilds the
/// model-facing [`EvalInstance`] with exactly the preprocessing pipeline's
/// padding rules (left-pad POI 0, padding timestamps repeat the first valid
/// one), so a request carrying an eval instance's visits reproduces that
/// instance bit-for-bit — the wire parity tests depend on it.
pub fn request_to_instance(data: &Processed, req: &Request) -> Result<EvalInstance, String> {
    if req.k == 0 {
        return Err("k must be >= 1".into());
    }
    if req.k as usize > MAX_K {
        return Err(format!("k {} exceeds the maximum {MAX_K}", req.k));
    }
    if req.seq.is_empty() {
        return Err("empty check-in sequence".into());
    }
    if req.user as usize >= data.num_users {
        return Err(format!("unknown user id {}", req.user));
    }
    for v in &req.seq {
        if v.poi == 0 || v.poi as usize > data.num_pois {
            return Err(format!("unknown poi id {}", v.poi));
        }
        if !v.time.is_finite() {
            return Err(format!("non-finite timestamp {}", v.time));
        }
    }
    let n = data.max_len;
    let take = req.seq.len().min(n);
    let tail = &req.seq[req.seq.len() - take..];
    let valid_from = n - take;
    let t0 = tail[0].time;
    let mut poi = vec![0u32; n];
    let mut time = vec![t0; n];
    for (i, v) in tail.iter().enumerate() {
        poi[valid_from + i] = v.poi;
        time[valid_from + i] = v.time;
    }
    let target_time = tail[tail.len() - 1].time;
    Ok(EvalInstance { user: req.user, poi, time, valid_from, target: 0, target_time })
}

/// The inverse of [`request_to_instance`] for tests and load generators:
/// turns an [`EvalInstance`]'s non-padded visits back into a wire request,
/// filling lat/lon from the catalogue. The request is untraced
/// (`trace_id: None`); callers wanting a trace echo set `trace_id`.
pub fn request_from_instance(
    data: &Processed,
    inst: &EvalInstance,
    k: u16,
    deadline_ms: u32,
) -> Request {
    let seq = inst
        .poi
        .iter()
        .zip(&inst.time)
        .skip(inst.valid_from)
        .filter(|&(&p, _)| p != 0)
        .map(|(&p, &t)| {
            let loc = data.loc(p);
            Visit { poi: p, time: t, lat: loc.lat, lon: loc.lon }
        })
        .collect();
    Request { user: inst.user, k, deadline_ms, seq, trace_id: None }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stisan_data::{generate, preprocess, DatasetPreset, GenConfig, PrepConfig};

    fn processed() -> Processed {
        let cfg = GenConfig {
            users: 20,
            pois: 120,
            mean_seq_len: 25.0,
            ..DatasetPreset::Gowalla.config(0.01)
        };
        let d = generate(&cfg, 3);
        preprocess(&d, &PrepConfig { max_len: 12, min_user_checkins: 12, min_poi_interactions: 2 })
    }

    #[test]
    fn instance_roundtrip_is_exact() {
        let p = processed();
        for inst in &p.eval {
            let req = request_from_instance(&p, inst, 10, 0);
            let back = request_to_instance(&p, &req).unwrap();
            assert_eq!(back.user, inst.user);
            assert_eq!(back.poi, inst.poi);
            assert_eq!(back.time, inst.time);
            assert_eq!(back.valid_from, inst.valid_from);
        }
    }

    #[test]
    fn validation_rejects_garbage() {
        let p = processed();
        let ok = request_from_instance(&p, &p.eval[0], 5, 0);
        assert!(request_to_instance(&p, &ok).is_ok());

        let mut zero_k = ok.clone();
        zero_k.k = 0;
        assert!(request_to_instance(&p, &zero_k).is_err());

        let mut huge_k = ok.clone();
        huge_k.k = (MAX_K + 1) as u16;
        assert!(request_to_instance(&p, &huge_k).is_err());

        let mut empty = ok.clone();
        empty.seq.clear();
        assert!(request_to_instance(&p, &empty).is_err());

        let mut bad_user = ok.clone();
        bad_user.user = p.num_users as u32 + 7;
        assert!(request_to_instance(&p, &bad_user).is_err());

        let mut bad_poi = ok.clone();
        bad_poi.seq[0].poi = p.num_pois as u32 + 1;
        assert!(request_to_instance(&p, &bad_poi).is_err());
        bad_poi.seq[0].poi = 0;
        assert!(request_to_instance(&p, &bad_poi).is_err());

        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut bad_time = ok.clone();
            let last = bad_time.seq.len() - 1;
            bad_time.seq[last].time = bad;
            assert!(request_to_instance(&p, &bad_time).is_err(), "time {bad} must be rejected");
        }
    }

    #[test]
    fn long_histories_keep_the_most_recent_window() {
        let p = processed();
        let n = p.max_len;
        let mut req = request_from_instance(&p, &p.eval[0], 5, 0);
        // Prepend old visits beyond the window; they must be dropped.
        let filler = Visit { poi: 1, time: 0.5, lat: 0.0, lon: 0.0 };
        for _ in 0..(2 * n) {
            req.seq.insert(0, filler);
        }
        let inst = request_to_instance(&p, &req).unwrap();
        assert_eq!(inst.valid_from, 0);
        let tail: Vec<u32> = req.seq[req.seq.len() - n..].iter().map(|v| v.poi).collect();
        assert_eq!(inst.poi, tail);
    }
}
