//! The whole admin surface, scraped live: a gateway with the admin listener,
//! the SLO sampler on a 50 ms cadence, and allocation + flame profiling on
//! serves a few hundred clean closed-loop requests over a fixed-latency
//! scorer (no training), then every route a scraper or dashboard reads is
//! checked against what it must carry:
//!
//! * `/metrics` is a well-formed, `# EOF`-terminated exposition in which the
//!   profiling (`alloc_*`, `prof_*`), SLO (`slo_*`, `alert_*`) and
//!   windowed-quantile (`*_p99_1m`) families all show up, within the
//!   cardinality budget the fixed-memory time-series store can hold;
//! * `/profile` reports profiling enabled and the `serve_one` frame;
//! * `/slo`, `/alerts` and `/timeseries` are JSON objects, the availability
//!   objective is declared, and no burn alert fires on healthy traffic.
//!
//! Its own test binary because it installs a counting `#[global_allocator]`
//! and flips the process-wide profiling switches.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use stisan_data::{
    generate, preprocess, DatasetPreset, EvalInstance, GenConfig, PrepConfig, Processed,
};
use stisan_eval::{FrozenScorer, Recommender};
use stisan_gateway::client::{ClientError, GatewayClient};
use stisan_gateway::protocol::ErrorCode;
use stisan_gateway::server::{request_from_instance, Gateway, GatewayConfig};
use stisan_gateway::SloConfig;
use stisan_obs::expo::Exposition;
use stisan_obs::{CountingAlloc, TsConfig};
use stisan_serve::{ReplicatedEngine, ServeConfig, SharedModel, SupervisorConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::system();

/// Registry cardinality budgets, kept under the windowed store's
/// `TsConfig::max_series` (256) with headroom for the per-deployment series
/// a real fleet adds: past that, windowed history silently stops covering
/// new series. Raise them only together with `max_series`.
const FAMILY_BUDGET: usize = 160;
const SERIES_BUDGET: usize = 224;

const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 75;

/// Spatial-prior scorer with a fixed 200 µs service time per instance.
struct FixedLatency;

impl Recommender for FixedLatency {
    fn name(&self) -> String {
        "fixed-latency".into()
    }
    fn score(&self, data: &Processed, inst: &EvalInstance, c: &[u32]) -> Vec<f32> {
        thread::sleep(Duration::from_micros(200));
        let last = inst.poi.last().copied().unwrap_or(1).max(1);
        let anchor = data.loc(last);
        c.iter().map(|&p| -(data.loc(p).distance_km(&anchor) as f32)).collect()
    }
}

impl FrozenScorer for FixedLatency {
    fn score_frozen(&self, data: &Processed, inst: &EvalInstance, c: &[u32]) -> Vec<f32> {
        self.score(data, inst, c)
    }
}

fn processed() -> Processed {
    let cfg = GenConfig {
        users: 25,
        pois: 160,
        mean_seq_len: 28.0,
        ..DatasetPreset::Gowalla.config(0.01)
    };
    let p = preprocess(
        &generate(&cfg, 4242),
        &PrepConfig { max_len: 10, min_user_checkins: 15, min_poi_interactions: 2 },
    );
    assert!(!p.eval.is_empty(), "need eval instances to serve");
    p
}

/// One blocking HTTP GET against the admin endpoint; returns the 200 body.
fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect admin");
    s.write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .expect("write admin request");
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read admin response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("admin response must have a body");
    assert!(head.starts_with("HTTP/1.1 200"), "{path}: {head}");
    body.to_string()
}

/// Structural JSON check: one object, braces/brackets balanced outside
/// strings — enough to catch truncated or unescaped admin output.
fn assert_json_object(body: &str, what: &str) {
    let t = body.trim();
    assert!(t.starts_with('{') && t.ends_with('}'), "{what}: body is not a JSON object");
    let (mut depth, mut in_str, mut esc) = (0i64, false, false);
    for c in t.chars() {
        match c {
            _ if esc => esc = false,
            '\\' if in_str => esc = true,
            '"' => in_str = !in_str,
            '{' | '[' if !in_str => depth += 1,
            '}' | ']' if !in_str => depth -= 1,
            _ => {}
        }
        assert!(depth >= 0, "{what}: unbalanced JSON");
    }
    assert!(depth == 0 && !in_str, "{what}: unbalanced JSON");
}

fn has_family(doc: &Exposition, pred: impl Fn(&str) -> bool) -> bool {
    doc.families.keys().any(|f| pred(f))
}

/// `CLIENTS` closed-loop connections of clean traffic; returns `(ok, shed)`.
/// Every request is traced: under concurrent load each echo must carry its
/// id back with monotonic stage stamps.
fn clean_load(addr: SocketAddr, p: &Processed) -> (u64, u64) {
    let (ok, shed) = (AtomicU64::new(0), AtomicU64::new(0));
    thread::scope(|load| {
        for c in 0..CLIENTS {
            let (ok, shed) = (&ok, &shed);
            load.spawn(move || {
                let mut client = GatewayClient::connect(addr).expect("connect");
                for i in 0..REQUESTS_PER_CLIENT {
                    let inst = &p.eval[(c * REQUESTS_PER_CLIENT + i) % p.eval.len()];
                    let mut req = request_from_instance(p, inst, 10, 0);
                    req.trace_id = Some(((c as u64 + 1) << 32) | i as u64);
                    match client.recommend(&req) {
                        Ok(resp) => {
                            assert!(!resp.items.is_empty(), "served an empty ranking");
                            let echo = resp.trace.expect("traced request must be echoed");
                            assert_eq!(Some(echo.trace_id), req.trace_id);
                            assert!(echo.is_monotonic(), "stage stamps: {:?}", echo.stage_us);
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ClientError::Server(e)) if e.code == ErrorCode::Overloaded => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(other) => panic!("client {c} request {i} failed: {other}"),
                    }
                }
            });
        }
    });
    (ok.into_inner(), shed.into_inner())
}

/// Scrapes every admin route and asserts what each must carry after
/// [`clean_load`].
fn check_admin_routes(admin: SocketAddr) {
    // The sampler folds the registry into the windowed store and publishes
    // the `*_1m` gauges on its own 50 ms tick: scrape until a whole tick has
    // passed without the exposition growing.
    let t0 = Instant::now();
    let mut prev_series = 0;
    let doc = loop {
        let body = http_get(admin, "/metrics");
        let doc = stisan_obs::expo::parse(&body).expect("exposition must parse");
        let settled =
            has_family(&doc, |f| f.ends_with("_p99_1m")) && doc.samples.len() == prev_series;
        if settled || t0.elapsed() > Duration::from_secs(5) {
            break doc;
        }
        prev_series = doc.samples.len();
        thread::sleep(Duration::from_millis(60));
    };
    assert!(doc.terminated, "exposition must end with # EOF");
    assert!(!doc.family_samples("gateway_requests_total").is_empty(), "no gateway series");
    for prefix in ["alloc_", "prof_", "slo_", "alert_"] {
        assert!(has_family(&doc, |f| f.starts_with(prefix)), "no {prefix}* family in /metrics");
    }
    assert!(has_family(&doc, |f| f.ends_with("_p99_1m")), "no windowed *_p99_1m gauge");
    assert!(
        doc.families.len() <= FAMILY_BUDGET && doc.samples.len() <= SERIES_BUDGET,
        "{} families / {} series exceed the {FAMILY_BUDGET}/{SERIES_BUDGET} budget",
        doc.families.len(),
        doc.samples.len()
    );
    assert_eq!(doc.value("timeseries_dropped_events"), Some(0.0), "the store refused series");
    let held = doc.value("timeseries_series").expect("timeseries_series gauge");
    assert!(held <= TsConfig::default().max_series as f64, "{held} series held");

    let profile = http_get(admin, "/profile");
    assert_json_object(&profile, "GET /profile");
    assert!(profile.contains("\"profiling_enabled\":true"), "{profile}");
    assert!(profile.contains("serve_one"), "no serve_one frame: {profile}");

    let slo = http_get(admin, "/slo");
    assert_json_object(&slo, "GET /slo");
    assert!(slo.contains("\"name\":\"availability\""), "{slo}");
    let alerts = http_get(admin, "/alerts");
    assert_json_object(&alerts, "GET /alerts");
    assert!(
        alerts.contains("\"firing\":0") && !alerts.contains("\"state\":\"firing\""),
        "burn alert fired on a clean run: {alerts}"
    );
    let ts = http_get(admin, "/timeseries");
    assert_json_object(&ts, "GET /timeseries");
    assert!(ts.contains("\"series\""), "/timeseries must list series");
}

#[test]
fn admin_surface_is_scrapeable_bounded_and_quiet_on_clean_traffic() {
    let p = processed();
    let engine = ReplicatedEngine::new(
        SharedModel::new(FixedLatency, 0),
        &p,
        ServeConfig { top_k: 10, ..Default::default() },
        SupervisorConfig { replicas: 4, ..SupervisorConfig::default() },
    );
    stisan_obs::alloc::enable();
    stisan_obs::flame::enable();
    let cfg = GatewayConfig {
        admin: Some("127.0.0.1:0".parse().expect("admin addr")),
        flight_dir: None,
        slo: Some(SloConfig { sample_interval: Duration::from_millis(50), ..Default::default() }),
        ..GatewayConfig::default()
    };
    let gw = Gateway::bind("127.0.0.1:0", cfg).expect("bind ephemeral ports");
    let handle = gw.handle();
    let admin = handle.admin_addr().expect("admin listener must be bound");

    let (ok, shed) = thread::scope(|s| {
        let server = s.spawn(|| gw.serve(&engine).expect("gateway serve"));
        // A failed assertion must still shut the gateway down, or the scope's
        // join of the server thread never returns and the failure is lost.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let counts = clean_load(handle.addr(), &p);
            check_admin_routes(admin);
            counts
        }));
        handle.shutdown();
        server.join().expect("server thread");
        outcome.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    });

    assert_eq!(ok + shed, (CLIENTS * REQUESTS_PER_CLIENT) as u64, "every request is answered");
    assert!(ok as f64 >= 0.99 * (ok + shed) as f64, "availability {ok}/{}", ok + shed);
}
