//! Declarative SLOs evaluated over the windowed store, with multi-window
//! burn-rate alerting.
//!
//! An [`Objective`] names an SLI and a target (e.g. "availability ≥ 99%").
//! The **burn rate** of a window is how fast that window is consuming the
//! error budget:
//!
//! ```text
//! burn(w) = (1 - sli(w)) / (1 - target)
//! ```
//!
//! `burn == 1` means "exactly on budget"; `burn == 14.4` means the budget
//! is being spent 14.4× too fast. An [`AlertPolicy`] holds two
//! **window pairs** (the classic fast 1 m/5 m and slow 5 m/30 m shape):
//! a pair trips only when *both* its windows exceed the factor — the long
//! window proves the problem is sustained, the short window proves it is
//! still happening (so alerts resolve promptly after recovery).
//!
//! Each objective drives a pending → firing → resolved state machine with
//! hysteresis ([`AlertPolicy::pending_ms`] / [`AlertPolicy::resolve_ms`]),
//! an append-only transition ring (the alert log), `slo.*` / `alert.*`
//! metrics published back into the registry, and a shared [`HealthSignal`]
//! that the serving layer reads: a firing availability alert marks
//! replicas suspect (`stisan_serve::ReplicatedEngine`) and vetoes canary
//! publishes (`stisan_serve::ReloadWatcher`).
//!
//! Like the rest of the plane, everything is driven by an explicit
//! `now_ms` clock — tests scale windows down to milliseconds and the
//! gateway's sampler thread supplies wall time.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::metrics::Registry;
use crate::report::{json_num, json_str};
use crate::timeseries::{TimeSeriesStore, WindowValue};

/// How an objective's service level is measured over a window.
#[derive(Clone, Debug)]
pub enum Sli {
    /// `good / (good + bad)` from counter deltas; 1.0 when there is no
    /// traffic (an idle service is meeting its availability target).
    Availability { good: Vec<String>, bad: Vec<String> },
    /// Fraction of histogram observations at or under `threshold`
    /// (sketch-bucket resolution); 1.0 for an empty window.
    LatencyUnder { hist: String, threshold: f64 },
    /// 1.0 while the gauge changed within `max_age_ms` of now (or was
    /// never seen), else 0.0 — staleness as a boolean SLI.
    FreshWithin { gauge: String, max_age_ms: u64 },
}

/// One declarative objective: an SLI and its target fraction.
#[derive(Clone, Debug)]
pub struct Objective {
    pub name: String,
    pub sli: Sli,
    /// Target fraction in `(0, 1)`, e.g. `0.99`. The error budget is
    /// `1 - target`.
    pub target: f64,
}

impl Objective {
    /// Gateway availability: served vs shed/deadline/internal, 99%.
    pub fn gateway_availability(good: &[&str], bad: &[&str]) -> Objective {
        Objective {
            name: "availability".to_string(),
            sli: Sli::Availability {
                good: good.iter().map(|s| s.to_string()).collect(),
                bad: bad.iter().map(|s| s.to_string()).collect(),
            },
            target: 0.99,
        }
    }

    /// Request latency: `hist` observations under `threshold`, 99%.
    pub fn latency_under(hist: &str, threshold: f64) -> Objective {
        Objective {
            name: "latency".to_string(),
            sli: Sli::LatencyUnder { hist: hist.to_string(), threshold },
            target: 0.99,
        }
    }

    /// Reload freshness: `reload.epoch` must move within `max_age_ms`.
    pub fn reload_freshness(max_age_ms: u64) -> Objective {
        Objective {
            name: "reload_freshness".to_string(),
            sli: Sli::FreshWithin { gauge: "reload.epoch".to_string(), max_age_ms },
            target: 0.99,
        }
    }
}

/// One burn-rate window pair: trips when **both** windows burn at or above
/// `factor`.
#[derive(Clone, Copy, Debug)]
pub struct BurnRule {
    pub long_ms: u64,
    pub short_ms: u64,
    pub factor: f64,
}

/// The two-pair alert policy plus state-machine hysteresis.
#[derive(Clone, Copy, Debug)]
pub struct AlertPolicy {
    /// Page-fast pair: catches hard outages in about a minute.
    pub fast: BurnRule,
    /// Slow-leak pair: catches sustained low-grade budget burn.
    pub slow: BurnRule,
    /// How long the trip condition must hold before Pending escalates to
    /// Firing (0 = same tick).
    pub pending_ms: u64,
    /// How long the condition must stay clear before Firing resolves.
    pub resolve_ms: u64,
}

impl Default for AlertPolicy {
    /// Fast 1 m/5 m at 14.4×, slow 5 m/30 m at 3×, resolve after a clean
    /// minute. (14.4× of a 99% budget ≈ 14.4% errors sustained 5 m.)
    fn default() -> Self {
        AlertPolicy {
            fast: BurnRule { long_ms: 300_000, short_ms: 60_000, factor: 14.4 },
            slow: BurnRule { long_ms: 1_800_000, short_ms: 300_000, factor: 3.0 },
            pending_ms: 0,
            resolve_ms: 60_000,
        }
    }
}

impl AlertPolicy {
    /// The default policy with every window and hysteresis scaled by
    /// `num/den` — tests shrink minutes to milliseconds without touching
    /// the factors.
    pub fn scaled(num: u64, den: u64) -> Self {
        let d = AlertPolicy::default();
        let s = |ms: u64| (ms * num / den.max(1)).max(1);
        AlertPolicy {
            fast: BurnRule { long_ms: s(d.fast.long_ms), short_ms: s(d.fast.short_ms), ..d.fast },
            slow: BurnRule { long_ms: s(d.slow.long_ms), short_ms: s(d.slow.short_ms), ..d.slow },
            pending_ms: d.pending_ms,
            resolve_ms: s(d.resolve_ms),
        }
    }
}

/// Alert lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlertState {
    /// Never tripped (or tripped and fully cycled back through Resolved).
    Inactive,
    /// Condition true, waiting out `pending_ms`.
    Pending,
    /// Both windows of a pair over the factor for `pending_ms`.
    Firing,
    /// Recovered: condition clear for `resolve_ms` after firing.
    Resolved,
}

impl AlertState {
    pub fn name(self) -> &'static str {
        match self {
            AlertState::Inactive => "inactive",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
            AlertState::Resolved => "resolved",
        }
    }

    /// Stable numeric encoding for the `alert.<name>.state` gauge.
    pub fn code(self) -> u8 {
        match self {
            AlertState::Inactive => 0,
            AlertState::Pending => 1,
            AlertState::Firing => 2,
            AlertState::Resolved => 3,
        }
    }
}

/// One recorded state transition (the alert log entry).
#[derive(Clone, Debug)]
pub struct Transition {
    pub at_ms: u64,
    pub objective: String,
    pub from: AlertState,
    pub to: AlertState,
    /// Burn of the fast-long window at transition time, for triage.
    pub burn: f64,
}

/// Entries retained in the alert log ring.
const LOG_CAP: usize = 128;

/// Shared alert-driven health state, readable lock-free from the serving
/// layer. Cheap to clone; all clones observe the same state.
#[derive(Clone, Debug, Default)]
pub struct HealthSignal {
    inner: Arc<HealthInner>,
}

#[derive(Debug, Default)]
struct HealthInner {
    availability_firing: AtomicBool,
    any_firing: AtomicBool,
    /// Bumped on every *rising edge* of `availability_firing`, so pollers
    /// can act once per incident rather than once per tick.
    incidents: AtomicU64,
}

impl HealthSignal {
    /// Whether an availability-kind alert is currently firing.
    pub fn availability_firing(&self) -> bool {
        self.inner.availability_firing.load(Ordering::Acquire)
    }

    /// Whether any alert is currently firing.
    pub fn any_firing(&self) -> bool {
        self.inner.any_firing.load(Ordering::Acquire)
    }

    /// Count of availability-firing rising edges so far.
    pub fn incidents(&self) -> u64 {
        self.inner.incidents.load(Ordering::Acquire)
    }

    /// Engine-side update; bumps [`incidents`](Self::incidents) on an
    /// availability rising edge.
    pub fn set(&self, availability: bool, any: bool) {
        let was = self.inner.availability_firing.swap(availability, Ordering::AcqRel);
        if availability && !was {
            self.inner.incidents.fetch_add(1, Ordering::AcqRel);
        }
        self.inner.any_firing.store(any, Ordering::Release);
    }
}

/// Per-objective runtime state.
struct AlertRt {
    state: AlertState,
    since_ms: u64,
    cond_since: Option<u64>,
    clear_since: Option<u64>,
    fired_total: u64,
    /// Last evaluated [fast_long, fast_short, slow_long, slow_short].
    burns: [f64; 4],
    sli_long: f64,
}

/// What one evaluation tick reported back to the caller.
#[derive(Clone, Debug, Default)]
pub struct EvalOutcome {
    /// Objectives that transitioned *into* Firing this tick.
    pub newly_firing: Vec<String>,
    /// Whether anything is firing after this tick.
    pub any_firing: bool,
}

/// Evaluates objectives against a [`TimeSeriesStore`] and runs the alert
/// state machines (see the module docs).
pub struct SloEngine {
    objectives: Vec<Objective>,
    policy: AlertPolicy,
    alerts: Vec<AlertRt>,
    log: VecDeque<Transition>,
    health: HealthSignal,
    evals: u64,
}

impl SloEngine {
    pub fn new(objectives: Vec<Objective>, policy: AlertPolicy, health: HealthSignal) -> Self {
        let alerts = objectives
            .iter()
            .map(|_| AlertRt {
                state: AlertState::Inactive,
                since_ms: 0,
                cond_since: None,
                clear_since: None,
                fired_total: 0,
                burns: [0.0; 4],
                sli_long: 1.0,
            })
            .collect();
        SloEngine { objectives, policy, alerts, log: VecDeque::new(), health, evals: 0 }
    }

    /// The shared health handle this engine drives.
    pub fn health(&self) -> HealthSignal {
        self.health.clone()
    }

    /// The configured policy.
    pub fn policy(&self) -> &AlertPolicy {
        &self.policy
    }

    /// SLI of one objective over `span_ms` ending at `now_ms`.
    fn sli(&self, obj: &Objective, store: &TimeSeriesStore, span_ms: u64, now_ms: u64) -> f64 {
        match &obj.sli {
            Sli::Availability { good, bad } => {
                let sum_of = |names: &[String]| -> u64 {
                    names
                        .iter()
                        .filter_map(|n| match store.window(n, span_ms, now_ms) {
                            Some(WindowValue::Counter { sum, .. }) => Some(sum),
                            _ => None,
                        })
                        .sum()
                };
                let g = sum_of(good);
                let b = sum_of(bad);
                if g + b == 0 {
                    1.0
                } else {
                    g as f64 / (g + b) as f64
                }
            }
            Sli::LatencyUnder { hist, threshold } => match store.window(hist, span_ms, now_ms) {
                Some(WindowValue::Hist { sketch, .. }) => sketch.fraction_le(*threshold),
                _ => 1.0,
            },
            Sli::FreshWithin { gauge, max_age_ms } => match store.window(gauge, span_ms, now_ms)
            {
                Some(WindowValue::Gauge { last_change_ms, .. }) => {
                    if now_ms.saturating_sub(last_change_ms) <= *max_age_ms {
                        1.0
                    } else {
                        0.0
                    }
                }
                _ => 1.0,
            },
        }
    }

    fn transition(&mut self, i: usize, to: AlertState, now_ms: u64) {
        let from = self.alerts[i].state;
        if from == to {
            return;
        }
        self.alerts[i].state = to;
        self.alerts[i].since_ms = now_ms;
        if self.log.len() == LOG_CAP {
            self.log.pop_front();
        }
        self.log.push_back(Transition {
            at_ms: now_ms,
            objective: self.objectives[i].name.clone(),
            from,
            to,
            burn: self.alerts[i].burns[0],
        });
    }

    /// One evaluation tick: compute burns, run the state machines, publish
    /// `slo.*` / `alert.*` metrics into `reg`, update the health signal.
    pub fn eval(&mut self, store: &TimeSeriesStore, reg: &Registry, now_ms: u64) -> EvalOutcome {
        self.evals += 1;
        let mut out = EvalOutcome::default();
        let policy = self.policy;
        for i in 0..self.objectives.len() {
            let obj = self.objectives[i].clone();
            let budget = (1.0 - obj.target).max(1e-9);
            let windows = [
                policy.fast.long_ms,
                policy.fast.short_ms,
                policy.slow.long_ms,
                policy.slow.short_ms,
            ];
            let mut burns = [0.0f64; 4];
            let mut sli_long = 1.0;
            for (bi, &w) in windows.iter().enumerate() {
                let sli = self.sli(&obj, store, w, now_ms);
                if bi == 0 {
                    sli_long = sli;
                }
                burns[bi] = (1.0 - sli) / budget;
            }
            let cond = (burns[0] >= policy.fast.factor && burns[1] >= policy.fast.factor)
                || (burns[2] >= policy.slow.factor && burns[3] >= policy.slow.factor);
            {
                let a = &mut self.alerts[i];
                a.burns = burns;
                a.sli_long = sli_long;
                if cond {
                    a.clear_since = None;
                    if a.cond_since.is_none() {
                        a.cond_since = Some(now_ms);
                    }
                } else {
                    a.cond_since = None;
                    if a.clear_since.is_none() {
                        a.clear_since = Some(now_ms);
                    }
                }
            }
            let state = self.alerts[i].state;
            match state {
                AlertState::Inactive | AlertState::Resolved => {
                    if cond {
                        self.transition(i, AlertState::Pending, now_ms);
                        if now_ms.saturating_sub(
                            self.alerts[i].cond_since.unwrap_or(now_ms),
                        ) >= policy.pending_ms
                        {
                            self.transition(i, AlertState::Firing, now_ms);
                        }
                    }
                }
                AlertState::Pending => {
                    if !cond {
                        self.transition(i, AlertState::Inactive, now_ms);
                    } else if now_ms
                        .saturating_sub(self.alerts[i].cond_since.unwrap_or(now_ms))
                        >= policy.pending_ms
                    {
                        self.transition(i, AlertState::Firing, now_ms);
                    }
                }
                AlertState::Firing => {
                    if !cond
                        && now_ms.saturating_sub(
                            self.alerts[i].clear_since.unwrap_or(now_ms),
                        ) >= policy.resolve_ms
                    {
                        self.transition(i, AlertState::Resolved, now_ms);
                    }
                }
            }
            if self.alerts[i].state == AlertState::Firing && state != AlertState::Firing {
                self.alerts[i].fired_total += 1;
                reg.inc("alert.fired_total", 1);
                out.newly_firing.push(obj.name.clone());
            }
            if self.alerts[i].state != state {
                reg.inc("alert.transitions_total", 1);
            }
            let name = &obj.name;
            reg.set_gauge(&format!("slo.{name}.sli"), sli_long);
            reg.set_gauge(&format!("slo.{name}.burn_fast"), burns[0]);
            reg.set_gauge(&format!("slo.{name}.burn_slow"), burns[2]);
            reg.set_gauge(&format!("alert.{name}.state"), self.alerts[i].state.code() as f64);
        }
        let firing = self
            .alerts
            .iter()
            .filter(|a| a.state == AlertState::Firing)
            .count();
        let avail_firing = self
            .objectives
            .iter()
            .zip(&self.alerts)
            .any(|(o, a)| {
                matches!(o.sli, Sli::Availability { .. }) && a.state == AlertState::Firing
            });
        out.any_firing = firing > 0;
        reg.set_gauge("alert.firing", firing as f64);
        self.health.set(avail_firing, out.any_firing);
        out
    }

    /// Current state of one objective's alert (test/diagnostic hook).
    pub fn state_of(&self, objective: &str) -> Option<AlertState> {
        self.objectives
            .iter()
            .position(|o| o.name == objective)
            .map(|i| self.alerts[i].state)
    }

    /// The transition log, oldest first.
    pub fn log(&self) -> impl Iterator<Item = &Transition> {
        self.log.iter()
    }

    /// `GET /slo`: objectives with targets, current SLI/burns and state.
    pub fn render_slo_json(&self, now_ms: u64) -> String {
        let mut out = String::with_capacity(1024);
        let _ = write!(out, "{{\"now_ms\":{now_ms},\"objectives\":[");
        for (i, (o, a)) in self.objectives.iter().zip(&self.alerts).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let kind = match o.sli {
                Sli::Availability { .. } => "availability",
                Sli::LatencyUnder { .. } => "latency_under",
                Sli::FreshWithin { .. } => "fresh_within",
            };
            let _ = write!(
                out,
                "{{\"name\":{},\"kind\":{},\"target\":{},\"sli\":{},\
                 \"burn_fast_long\":{},\"burn_fast_short\":{},\"burn_slow_long\":{},\
                 \"burn_slow_short\":{},\"state\":{},\"fired_total\":{}}}",
                json_str(&o.name),
                json_str(kind),
                json_num(o.target),
                json_num(a.sli_long),
                json_num(a.burns[0]),
                json_num(a.burns[1]),
                json_num(a.burns[2]),
                json_num(a.burns[3]),
                json_str(a.state.name()),
                a.fired_total,
            );
        }
        let p = &self.policy;
        let _ = write!(
            out,
            "],\"policy\":{{\"fast\":{{\"long_ms\":{},\"short_ms\":{},\"factor\":{}}},\
             \"slow\":{{\"long_ms\":{},\"short_ms\":{},\"factor\":{}}},\
             \"pending_ms\":{},\"resolve_ms\":{}}},\"evals\":{}}}",
            p.fast.long_ms,
            p.fast.short_ms,
            json_num(p.fast.factor),
            p.slow.long_ms,
            p.slow.short_ms,
            json_num(p.slow.factor),
            p.pending_ms,
            p.resolve_ms,
            self.evals,
        );
        out
    }

    /// `GET /alerts`: current alert states plus the transition log.
    pub fn render_alerts_json(&self, now_ms: u64) -> String {
        let mut out = String::with_capacity(1024);
        let firing = self
            .alerts
            .iter()
            .filter(|a| a.state == AlertState::Firing)
            .count();
        let _ = write!(out, "{{\"now_ms\":{now_ms},\"firing\":{firing},\"alerts\":[");
        for (i, (o, a)) in self.objectives.iter().zip(&self.alerts).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"state\":{},\"since_ms\":{},\"fired_total\":{},\"burn\":{}}}",
                json_str(&o.name),
                json_str(a.state.name()),
                a.since_ms,
                a.fired_total,
                json_num(a.burns[0]),
            );
        }
        out.push_str("],\"log\":[");
        for (i, t) in self.log.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"at_ms\":{},\"objective\":{},\"from\":{},\"to\":{},\"burn\":{}}}",
                t.at_ms,
                json_str(&t.objective),
                json_str(t.from.name()),
                json_str(t.to.name()),
                json_num(t.burn),
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use crate::timeseries::TsConfig;

    /// Millisecond-scale policy: fast 10/50 ms, slow 50/300 ms (default
    /// scaled by 1/6000), resolve after 10 ms.
    fn tiny_policy() -> AlertPolicy {
        AlertPolicy::scaled(1, 6_000)
    }

    fn tiny_store() -> TimeSeriesStore {
        TimeSeriesStore::new(TsConfig::scaled(5))
    }

    #[test]
    fn availability_alert_fires_and_resolves() {
        let reg = Registry::new();
        let mut ts = tiny_store();
        let health = HealthSignal::default();
        let mut eng = SloEngine::new(
            vec![Objective::gateway_availability(&["good"], &["bad"])],
            tiny_policy(),
            health.clone(),
        );
        // Healthy traffic for a while.
        let mut now = 0u64;
        for _ in 0..20 {
            reg.inc("good", 50);
            ts.ingest(&reg.snapshot(), now);
            let o = eng.eval(&ts, &reg, now);
            assert!(!o.any_firing, "clean traffic must not alert");
            now += 5;
        }
        assert_eq!(eng.state_of("availability"), Some(AlertState::Inactive));
        assert!(!health.availability_firing());
        // Hard outage: everything fails.
        let mut fired_at = None;
        for _ in 0..40 {
            reg.inc("bad", 50);
            ts.ingest(&reg.snapshot(), now);
            let o = eng.eval(&ts, &reg, now);
            if !o.newly_firing.is_empty() {
                fired_at = Some(now);
            }
            now += 5;
        }
        assert!(fired_at.is_some(), "full outage must fire the availability alert");
        assert_eq!(eng.state_of("availability"), Some(AlertState::Firing));
        assert!(health.availability_firing() && health.any_firing());
        assert_eq!(health.incidents(), 1);
        // Recovery: clean traffic long enough to drain both short windows
        // and the resolve hysteresis.
        for _ in 0..200 {
            reg.inc("good", 50);
            ts.ingest(&reg.snapshot(), now);
            eng.eval(&ts, &reg, now);
            now += 5;
        }
        assert_eq!(eng.state_of("availability"), Some(AlertState::Resolved));
        assert!(!health.availability_firing());
        // The log recorded the full lifecycle.
        let path: Vec<(AlertState, AlertState)> =
            eng.log().map(|t| (t.from, t.to)).collect();
        assert!(path.contains(&(AlertState::Pending, AlertState::Firing)), "{path:?}");
        assert!(path.contains(&(AlertState::Firing, AlertState::Resolved)), "{path:?}");
        // Metrics published.
        let snap = reg.snapshot();
        let g = |n: &str| snap.gauges.iter().find(|(k, _)| k == n).map(|&(_, v)| v);
        assert_eq!(g("alert.availability.state"), Some(AlertState::Resolved.code() as f64));
        assert_eq!(g("alert.firing"), Some(0.0));
        assert!(g("slo.availability.sli").is_some() && g("slo.availability.burn_fast").is_some());
        let fired = snap.counters.iter().find(|(k, _)| k == "alert.fired_total");
        assert_eq!(fired.map(|&(_, v)| v), Some(1));
    }

    #[test]
    fn latency_objective_trips_on_slow_tail() {
        let reg = Registry::new();
        let mut ts = tiny_store();
        let mut eng = SloEngine::new(
            vec![Objective::latency_under("lat", 10.0)],
            tiny_policy(),
            HealthSignal::default(),
        );
        let mut now = 0u64;
        for _ in 0..20 {
            for _ in 0..20 {
                reg.observe("lat", 1.0);
            }
            ts.ingest(&reg.snapshot(), now);
            eng.eval(&ts, &reg, now);
            now += 5;
        }
        assert_eq!(eng.state_of("latency"), Some(AlertState::Inactive));
        for _ in 0..40 {
            for _ in 0..20 {
                reg.observe("lat", 500.0);
            }
            ts.ingest(&reg.snapshot(), now);
            eng.eval(&ts, &reg, now);
            now += 5;
        }
        assert_eq!(eng.state_of("latency"), Some(AlertState::Firing));
        // Latency alone must not claim an availability incident.
        assert!(!eng.health().availability_firing());
        assert!(eng.health().any_firing());
    }

    #[test]
    fn freshness_objective_goes_stale_then_recovers() {
        let reg = Registry::new();
        let mut ts = tiny_store();
        let mut eng = SloEngine::new(
            vec![Objective {
                name: "reload_freshness".to_string(),
                sli: Sli::FreshWithin { gauge: "reload.epoch".to_string(), max_age_ms: 50 },
                target: 0.99,
            }],
            tiny_policy(),
            HealthSignal::default(),
        );
        reg.set_gauge("reload.epoch", 1.0);
        let mut now = 0u64;
        for _ in 0..8 {
            ts.ingest(&reg.snapshot(), now);
            eng.eval(&ts, &reg, now);
            now += 5;
        }
        assert_eq!(eng.state_of("reload_freshness"), Some(AlertState::Inactive));
        // The gauge stops moving for far longer than max_age.
        for _ in 0..60 {
            ts.ingest(&reg.snapshot(), now);
            eng.eval(&ts, &reg, now);
            now += 5;
        }
        assert_eq!(eng.state_of("reload_freshness"), Some(AlertState::Firing));
        // The reloader comes back and keeps publishing; freshness recovers
        // and the alert resolves.
        for e in 2..62 {
            reg.set_gauge("reload.epoch", e as f64);
            ts.ingest(&reg.snapshot(), now);
            eng.eval(&ts, &reg, now);
            now += 5;
        }
        assert_eq!(eng.state_of("reload_freshness"), Some(AlertState::Resolved));
    }

    #[test]
    fn no_traffic_is_not_an_outage() {
        let reg = Registry::new();
        let mut ts = tiny_store();
        let mut eng = SloEngine::new(
            vec![
                Objective::gateway_availability(&["good"], &["bad"]),
                Objective::latency_under("lat", 10.0),
            ],
            tiny_policy(),
            HealthSignal::default(),
        );
        let mut now = 0u64;
        for _ in 0..100 {
            ts.ingest(&reg.snapshot(), now);
            let o = eng.eval(&ts, &reg, now);
            assert!(!o.any_firing);
            now += 5;
        }
        assert_eq!(eng.state_of("availability"), Some(AlertState::Inactive));
    }

    #[test]
    fn slo_and_alert_json_shapes() {
        let reg = Registry::new();
        let mut ts = tiny_store();
        let mut eng = SloEngine::new(
            vec![Objective::gateway_availability(&["good"], &["bad"])],
            tiny_policy(),
            HealthSignal::default(),
        );
        reg.inc("bad", 100);
        ts.ingest(&reg.snapshot(), 0);
        reg.inc("bad", 100);
        ts.ingest(&reg.snapshot(), 5);
        eng.eval(&ts, &reg, 5);
        let slo = eng.render_slo_json(5);
        assert!(slo.contains("\"name\":\"availability\""), "{slo}");
        assert!(slo.contains("\"kind\":\"availability\""));
        assert!(slo.contains("\"policy\":{\"fast\":{"));
        let alerts = eng.render_alerts_json(5);
        assert!(alerts.starts_with("{\"now_ms\":5,\"firing\":"));
        assert!(alerts.contains("\"log\":["));
        assert!(alerts.contains("\"to\":\"firing\"") || alerts.contains("\"to\":\"pending\""));
    }

    #[test]
    fn alert_log_ring_is_bounded() {
        let reg = Registry::new();
        let mut ts = tiny_store();
        let mut eng = SloEngine::new(
            vec![Objective::gateway_availability(&["good"], &["bad"])],
            // No hysteresis: flapping input flaps the state machine.
            AlertPolicy { resolve_ms: 0, ..tiny_policy() },
            HealthSignal::default(),
        );
        let mut now = 0u64;
        for round in 0..400 {
            let name = if round % 2 == 0 { "bad" } else { "good" };
            reg.inc(name, 1_000);
            ts.ingest(&reg.snapshot(), now);
            eng.eval(&ts, &reg, now);
            now += 60; // hop whole fast windows so each round flips cond
        }
        assert!(eng.log().count() <= LOG_CAP);
    }
}
