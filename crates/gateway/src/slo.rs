//! The gateway's SLO plane: a sampler that folds the global registry into
//! the windowed [`TimeSeriesStore`] on a fixed cadence, the
//! [`stisan_obs::SloEngine`] evaluated on every tick, and the JSON admin
//! surfaces behind `GET /timeseries`, `/slo`, and `/alerts`.
//!
//! The sampler runs as one thread inside [`crate::Gateway::serve`]'s scope
//! (enabled whenever [`crate::GatewayConfig::slo`] is set, which it is by
//! default). Each tick, on the gateway's monotonic clock:
//!
//! 1. [`stisan_obs::Registry::snapshot`] → [`TimeSeriesStore::ingest`]
//!    (cumulative totals become per-bucket deltas);
//! 2. [`stisan_obs::SloEngine::eval`] computes the multi-window burn rates,
//!    runs the alert state machines, publishes `slo.*` / `alert.*` metrics,
//!    and updates the shared [`HealthSignal`] the serving layer reads
//!    (replica suspicion, reload vetoes — DESIGN.md §16);
//! 3. windowed-quantile gauges (`<hist>_p99_1m` etc.) are published back
//!    into the registry so `/metrics` scrapes them;
//! 4. the **first** tick on which any alert newly fires writes an
//!    alert-reason flight-recorder dump, freezing the request ring as it
//!    stood when the incident began.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use stisan_obs::{
    AlertPolicy, DumpReason, HealthSignal, Objective, SloEngine, TimeSeriesStore, TsConfig,
};

/// Default latency-SLI threshold on `gateway.wait_us`: a request should not
/// sit in the pending queue longer than 50 ms.
pub const DEFAULT_WAIT_BUDGET_US: f64 = 50_000.0;

/// Sampler + SLO configuration ([`crate::GatewayConfig::slo`]).
#[derive(Clone, Debug)]
pub struct SloConfig {
    /// Registry-snapshot cadence. Keep at or below the store's base bucket
    /// width so every bucket sees at least one sample.
    pub sample_interval: Duration,
    /// Windowed-store layout (resolution levels, series budget).
    pub ts: TsConfig,
    /// Objectives to evaluate; see [`default_objectives`].
    pub objectives: Vec<Objective>,
    /// Burn-rate window pairs and state-machine hysteresis.
    pub policy: AlertPolicy,
}

impl Default for SloConfig {
    /// 1 s sampling over the default 1 s/10 s/60 s cascade, the default
    /// fast/slow burn policy, and [`default_objectives`].
    fn default() -> Self {
        SloConfig {
            sample_interval: Duration::from_secs(1),
            ts: TsConfig::default(),
            objectives: default_objectives(),
            policy: AlertPolicy::default(),
        }
    }
}

/// The stock gateway objectives:
///
/// * **availability** — served vs shed + deadline-exceeded + internal, 99%;
/// * **latency** — queue wait (`gateway.wait_us`) under
///   [`DEFAULT_WAIT_BUDGET_US`], 99%.
///
/// Reload freshness ([`Objective::reload_freshness`]) is deliberately not a
/// default: a gateway that simply has no new checkpoints to publish is
/// healthy, not stale. Deployments with a continuous retraining loop add it
/// explicitly with the expected publish cadence.
pub fn default_objectives() -> Vec<Objective> {
    vec![
        Objective::gateway_availability(
            &["gateway.served_total"],
            &[
                "gateway.shed_total",
                "gateway.deadline_exceeded_total",
                "gateway.internal_errors_total",
            ],
        ),
        Objective::latency_under("gateway.wait_us", DEFAULT_WAIT_BUDGET_US),
    ]
}

/// Poison-tolerant lock (same stance as the rest of the gateway: a panicked
/// holder must not wedge telemetry).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The running sampler + engine, shared between the sampler thread and the
/// admin listener.
pub(crate) struct SloRuntime {
    state: Mutex<(TimeSeriesStore, SloEngine)>,
    health: HealthSignal,
    interval: Duration,
    /// Whether the alert-reason flight dump was already written this run.
    alert_dump: AtomicBool,
}

impl SloRuntime {
    pub(crate) fn new(cfg: &SloConfig) -> SloRuntime {
        let health = HealthSignal::default();
        let engine = SloEngine::new(cfg.objectives.clone(), cfg.policy, health.clone());
        SloRuntime {
            state: Mutex::new((TimeSeriesStore::new(cfg.ts.clone()), engine)),
            health,
            interval: cfg.sample_interval,
            alert_dump: AtomicBool::new(false),
        }
    }

    /// The health handle serving-layer components couple to
    /// (`ReplicatedEngine::with_health`, `ReloadWatcher::with_health`).
    pub(crate) fn health(&self) -> HealthSignal {
        self.health.clone()
    }

    pub(crate) fn interval(&self) -> Duration {
        self.interval
    }

    /// One sampler tick at `now_ms`: ingest, evaluate, publish windowed
    /// gauges, and write the alert flight dump on the first newly-firing
    /// alert of the run.
    pub(crate) fn tick(&self, now_ms: u64, flight_dir: Option<&Path>) {
        let Some(obs) = stisan_obs::global() else { return };
        let snap = obs.registry.snapshot();
        let newly_firing = {
            let mut st = lock(&self.state);
            let (ts, eng) = &mut *st;
            ts.ingest(&snap, now_ms);
            let outcome = eng.eval(ts, &obs.registry, now_ms);
            ts.publish_windowed_gauges(&obs.registry, now_ms);
            !outcome.newly_firing.is_empty()
        };
        if newly_firing && !self.alert_dump.swap(true, Ordering::Relaxed) {
            if let (Some(dir), Some(rec)) = (flight_dir, stisan_obs::flight_recorder()) {
                let _ = rec.write_dump(dir, DumpReason::Alert);
            }
        }
    }

    /// `GET /timeseries` body.
    pub(crate) fn render_timeseries(&self, now_ms: u64) -> String {
        lock(&self.state).0.render_json(now_ms)
    }

    /// `GET /slo` body.
    pub(crate) fn render_slo(&self, now_ms: u64) -> String {
        lock(&self.state).1.render_slo_json(now_ms)
    }

    /// `GET /alerts` body.
    pub(crate) fn render_alerts(&self, now_ms: u64) -> String {
        lock(&self.state).1.render_alerts_json(now_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_objectives_cover_availability_and_latency() {
        let objs = default_objectives();
        let names: Vec<&str> = objs.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(names, ["availability", "latency"]);
        for o in &objs {
            assert!(o.target > 0.0 && o.target < 1.0);
        }
    }

    #[test]
    fn runtime_ticks_and_renders_json() {
        stisan_obs::init();
        let rt = SloRuntime::new(&SloConfig::default());
        // Clean run: ticks never fire and every admin surface renders.
        for t in 0..5u64 {
            rt.tick(t * 1_000, None);
        }
        assert!(!rt.health().any_firing(), "idle gateway must not alert");
        let ts = rt.render_timeseries(5_000);
        assert!(ts.starts_with('{') && ts.contains("\"series\""), "{ts}");
        let slo = rt.render_slo(5_000);
        assert!(slo.contains("\"name\":\"availability\""), "{slo}");
        let alerts = rt.render_alerts(5_000);
        assert!(alerts.contains("\"firing\":0"), "{alerts}");
    }
}
