//! # stisan-obs
//!
//! Std-only observability for the STiSAN reproduction: a metrics registry
//! (one map of atomic cells: counters, gauges, and sketch histograms whose
//! quantiles are within `SKETCH_REL_ERR` = ±7.5%), RAII scoped spans with
//! hierarchical names, a leveled logging facade, an autodiff-tape profiler
//! fed by `stisan-tensor`, request-scoped tracing with tail-sampled
//! exemplars, a lock-free flight recorder, Prometheus text exposition,
//! and JSON run reports written under `results/`.
//!
//! ## Global context
//!
//! Instrumentation goes through free functions ([`counter`], [`span`],
//! [`record_epoch`], ...) that consult a process-wide context. Until
//! [`init`] is called, [`enabled`] is `false` and every call is a cheap
//! no-op — one relaxed atomic load — so instrumented hot paths cost
//! nothing in normal runs:
//!
//! ```
//! let obs = stisan_obs::init(); // turn observability on
//! {
//!     let _span = stisan_obs::span("train");
//!     stisan_obs::counter("train.steps", 1);
//! }
//! assert!(!obs.registry.snapshot().histograms.is_empty());
//! ```

pub mod alloc;
pub mod expo;
pub mod flame;
pub mod log;
pub mod metrics;
pub mod profile;
pub mod report;
pub mod ring;
pub mod slo;
pub mod span;
pub mod timeseries;
pub mod trace;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

pub use alloc::{AllocStats, CountingAlloc};
pub use flame::{FrameRow, FrameStats, ServeProfiler};
pub use log::{level, parse_level, set_level, Level};
pub use metrics::{Histogram, Registry, Sketch, Snapshot};
pub use profile::{OpKindRow, OpKindStats, TapeProfiler};
pub use report::{EpochStats, RunReport};
pub use ring::{DumpReason, FlightEvent, FlightRecorder, Outcome, NO_REPLICA};
pub use slo::{
    AlertPolicy, AlertState, BurnRule, EvalOutcome, HealthSignal, Objective, Sli, SloEngine,
};
pub use span::{span, Span};
pub use timeseries::{LevelSpec, TimeSeriesStore, TsConfig, WindowValue};
pub use trace::{Stage, TraceCtx, TraceExemplar, TraceHub};

/// Locks a mutex, shrugging off poisoning: a panic in another thread must
/// not take the telemetry plane down with it.
pub(crate) fn plock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The process-wide observability context.
pub struct Obs {
    pub registry: Registry,
    pub profiler: Arc<TapeProfiler>,
    /// Serve-path profile tree + kernel cost table (see [`flame`]).
    pub serve_prof: ServeProfiler,
    /// Tail-sampled slow-trace exemplars (see [`trace`]).
    pub traces: TraceHub,
    /// The always-on flight recorder (see [`ring`]).
    pub flight: FlightRecorder,
    epochs: Mutex<Vec<EpochStats>>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<Obs> = OnceLock::new();
static ENV_PROF: OnceLock<()> = OnceLock::new();

/// Enables observability and returns the global context. Idempotent; the
/// first call wins. Honors `STISAN_PROF_ALLOC=1` (allocation accounting,
/// see [`alloc`]) and `STISAN_PROF=1` (serve-path profiling, see
/// [`flame`]) the first time it runs.
pub fn init() -> &'static Obs {
    let obs = GLOBAL.get_or_init(|| Obs {
        registry: Registry::new(),
        profiler: Arc::new(TapeProfiler::new()),
        serve_prof: ServeProfiler::default(),
        traces: TraceHub::default(),
        flight: FlightRecorder::default(),
        epochs: Mutex::new(Vec::new()),
    });
    ENABLED.store(true, Ordering::SeqCst);
    ENV_PROF.get_or_init(|| {
        if std::env::var("STISAN_PROF_ALLOC").is_ok_and(|v| v == "1") {
            alloc::enable();
        }
        if std::env::var("STISAN_PROF").is_ok_and(|v| v == "1") {
            flame::enable();
        }
    });
    obs
}

/// Whether observability is on (one relaxed atomic load).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The global context, or `None` while disabled.
#[inline]
pub fn global() -> Option<&'static Obs> {
    if enabled() {
        GLOBAL.get()
    } else {
        None
    }
}

/// Adds `by` to a global counter (no-op while disabled).
pub fn counter(name: &str, by: u64) {
    if let Some(obs) = global() {
        obs.registry.inc(name, by);
    }
}

/// Sets a global gauge (no-op while disabled).
pub fn gauge(name: &str, value: f64) {
    if let Some(obs) = global() {
        obs.registry.set_gauge(name, value);
    }
}

/// Records into a global histogram (no-op while disabled).
pub fn observe(name: &str, value: f64) {
    if let Some(obs) = global() {
        obs.registry.observe(name, value);
    }
}

/// The global tape profiler handle, for attaching to autodiff graphs.
/// `None` while disabled, so graphs built in normal runs carry no profiler.
pub fn tape_profiler() -> Option<Arc<TapeProfiler>> {
    global().map(|obs| Arc::clone(&obs.profiler))
}

/// The global serve-path profiler, or `None` while disabled.
#[inline]
pub fn serve_profiler() -> Option<&'static ServeProfiler> {
    global().map(|obs| &obs.serve_prof)
}

/// Whether the serve path should emit profile frames and kernel timings
/// (one relaxed atomic load; also false before [`init`]).
#[inline]
pub fn serve_profiling() -> bool {
    flame::enabled() && enabled()
}

/// The current profile (alloc stats + flame tree + kernel table) as JSON.
/// Always a valid JSON object, even while disabled.
pub fn profile_json() -> String {
    match serve_profiler() {
        Some(p) => p.to_json(),
        None => "{\"profiling_enabled\":false,\"alloc\":{\"active\":false},\"frames\":[],\"kernels\":[]}"
            .to_string(),
    }
}

/// Publishes the aggregate `alloc.*` / `prof.*` gauges into the global
/// registry (no-op while disabled). Called before rendering `/metrics`.
pub fn publish_profile_gauges() {
    if let Some(obs) = global() {
        obs.serve_prof.publish_gauges(&obs.registry);
    }
}

/// Folds a finished request trace into the global per-stage histograms
/// and the slowest-N exemplar table (no-op while disabled).
pub fn record_trace(ctx: &TraceCtx) {
    if let Some(obs) = global() {
        obs.traces.record(&obs.registry, ctx);
    }
}

/// The current slowest-N trace exemplars (empty while disabled).
pub fn trace_exemplars() -> Vec<TraceExemplar> {
    global().map(|obs| obs.traces.exemplars()).unwrap_or_default()
}

/// Records one event into the global flight recorder (no-op while
/// disabled).
pub fn flight_event(trace_id: u64, stage: Stage, outcome: Outcome) {
    if let Some(obs) = global() {
        obs.flight.record(trace_id, stage, outcome);
    }
}

/// [`flight_event`] with replica and reload-epoch attribution, so dumps can
/// pin a failure on the replica and weights that produced it (no-op while
/// disabled). Pass [`NO_REPLICA`] for events outside any replica.
pub fn flight_event_ext(trace_id: u64, stage: Stage, outcome: Outcome, replica: u16, epoch: u64) {
    if let Some(obs) = global() {
        obs.flight.record_ext(trace_id, stage, outcome, replica, epoch);
    }
}

/// The global flight recorder, or `None` while disabled.
pub fn flight_recorder() -> Option<&'static FlightRecorder> {
    global().map(|obs| &obs.flight)
}

/// Appends one epoch's training stats to the global run record.
pub fn record_epoch(stats: EpochStats) {
    if let Some(obs) = global() {
        plock(&obs.epochs).push(stats);
    }
}

/// All epochs recorded so far (empty while disabled).
pub fn epochs() -> Vec<EpochStats> {
    global().map(|obs| plock(&obs.epochs).clone()).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests exercise the process-global context, so they live in one
    // #[test] to avoid cross-test interference.
    #[test]
    fn global_context_lifecycle() {
        assert!(!enabled());
        // Disabled: everything is dropped.
        counter("pre.counter", 5);
        observe("pre.hist", 1.0);
        record_epoch(EpochStats::default());
        record_trace(&TraceCtx::new(1));
        flight_event(1, Stage::Admitted, Outcome::Ok);
        assert!(tape_profiler().is_none());
        assert!(flight_recorder().is_none());
        assert!(epochs().is_empty());
        assert!(trace_exemplars().is_empty());

        let obs = init();
        assert!(enabled());
        assert!(obs.registry.snapshot().counters.is_empty(), "pre-init writes must not leak");
        assert_eq!(obs.flight.recorded(), 0, "pre-init flight events must not leak");

        counter("train.steps", 2);
        gauge("lr", 0.01);
        {
            let _outer = span("train");
            let _inner = span("epoch");
            assert_eq!(span::current_path(), "train/epoch");
        }
        record_epoch(EpochStats { epoch: 1, loss: 0.5, ..Default::default() });
        tape_profiler().unwrap().record_forward("linear", 10, 64);
        let mut ctx = TraceCtx::new(42);
        ctx.stamp(Stage::Written);
        record_trace(&ctx);
        flight_event(42, Stage::Written, Outcome::Ok);

        let snap = obs.registry.snapshot();
        assert_eq!(snap.counters, vec![("train.steps".to_string(), 2)]);
        assert_eq!(snap.gauges, vec![("lr".to_string(), 0.01)]);
        // The inner span records the hierarchical path, the outer its own.
        let names: Vec<&str> = snap.histograms.iter().map(|h| h.name.as_str()).collect();
        assert!(names.contains(&"span.train/epoch"), "histograms: {names:?}");
        assert!(names.contains(&"span.train"), "histograms: {names:?}");
        assert!(names.contains(&"trace.total_us"), "histograms: {names:?}");
        assert_eq!(epochs().len(), 1);
        assert_eq!(obs.profiler.total_flops(), 64);
        assert_eq!(trace_exemplars().first().map(|e| e.trace_id), Some(42));
        let events = flight_recorder().unwrap().dump();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].trace_id, 42);

        // init is idempotent: same context comes back.
        let again = init();
        assert_eq!(again.registry.snapshot().counters.len(), 1);
    }
}
