//! SLO-plane e2e: a real gateway with the burn-rate sampler on a
//! milliseconds-scaled policy, driven through a full incident lifecycle
//! (DESIGN.md §16):
//!
//! 1. an overload flood sheds enough requests to blow the availability
//!    budget → the **availability alert fires** (visible on the shared
//!    [`stisan_obs::HealthSignal`] and `GET /alerts`);
//! 2. the first firing writes an **alert-reason flight-recorder dump**
//!    (`flightrec_*_alert.json`) freezing the request ring at incident
//!    start;
//! 3. traffic recovers (the flood stops, healthy requests flow) → the shed
//!    samples age out of the burn windows and the alert **resolves**, with
//!    the full firing→resolved path in the alert transition log.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use stisan_data::{
    generate, preprocess, DatasetPreset, EvalInstance, GenConfig, PrepConfig, Processed,
};
use stisan_eval::{FrozenScorer, Recommender};
use stisan_gateway::batcher::BatchPolicy;
use stisan_gateway::server::{request_from_instance, Gateway, GatewayConfig};
use stisan_gateway::SloConfig;
use stisan_gateway::client::GatewayClient;
use stisan_obs::{AlertPolicy, Objective, TsConfig};
use stisan_serve::{ReplicatedEngine, ServeConfig, SharedModel, SupervisorConfig};

fn processed() -> Processed {
    let cfg = GenConfig {
        users: 25,
        pois: 120,
        mean_seq_len: 28.0,
        ..DatasetPreset::Gowalla.config(0.01)
    };
    let d = generate(&cfg, 9090);
    let p = preprocess(
        &d,
        &PrepConfig { max_len: 10, min_user_checkins: 15, min_poi_interactions: 2 },
    );
    assert!(!p.eval.is_empty(), "need eval instances to flood with");
    p
}

/// A deterministically slow scoring "device": with a 1-worker gateway and a
/// 2-deep queue, a multi-client flood must shed most of its requests.
struct Slow;

impl Recommender for Slow {
    fn name(&self) -> String {
        "slow".into()
    }
    fn score(&self, data: &Processed, inst: &EvalInstance, c: &[u32]) -> Vec<f32> {
        thread::sleep(Duration::from_millis(3));
        let last = inst.poi.last().copied().unwrap_or(1).max(1);
        let anchor = data.loc(last);
        c.iter().map(|&p| -(data.loc(p).distance_km(&anchor) as f32)).collect()
    }
}

impl FrozenScorer for Slow {
    fn score_frozen(&self, data: &Processed, inst: &EvalInstance, c: &[u32]) -> Vec<f32> {
        self.score(data, inst, c)
    }
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect admin");
    s.write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .expect("write admin request");
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read admin response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("admin response must have a body");
    assert!(head.starts_with("HTTP/1.1 200"), "{path}: {head}");
    body.to_string()
}

/// Milliseconds-scaled SLO plane: 1000× faster than production (fast pair
/// 300 ms/60 ms, resolve after a clean 60 ms), 10 ms store buckets, 5 ms
/// sampling, availability objective only — so the one alert the test
/// expects is unambiguous.
fn fast_slo() -> SloConfig {
    SloConfig {
        sample_interval: Duration::from_millis(5),
        ts: TsConfig::scaled(10),
        objectives: vec![Objective::gateway_availability(
            &["gateway.served_total"],
            &[
                "gateway.shed_total",
                "gateway.deadline_exceeded_total",
                "gateway.internal_errors_total",
            ],
        )],
        policy: AlertPolicy::scaled(1, 1000),
    }
}

#[test]
fn overload_fires_availability_alert_dumps_flight_ring_and_resolves() {
    let p = processed();
    // One replica: the "one 3 ms worker" the flood below overloads.
    let engine = ReplicatedEngine::new(
        SharedModel::new(Slow, 0),
        &p,
        ServeConfig { top_k: 10, ..Default::default() },
        SupervisorConfig { replicas: 1, ..SupervisorConfig::default() },
    );
    let n_inst = p.eval.len();

    let dump_dir =
        std::env::temp_dir().join(format!("stisan_slo_e2e_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dump_dir);

    let cfg = GatewayConfig {
        batch: BatchPolicy { max_batch_size: 1, queue_capacity: 2 },
        admin: Some("127.0.0.1:0".parse().expect("admin addr")),
        flight_dir: Some(dump_dir.clone()),
        slo: Some(fast_slo()),
        ..GatewayConfig::default()
    };
    let gw = Gateway::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = gw.local_addr();
    let admin = gw.admin_addr().expect("admin listener configured");
    let health = gw.health_signal().expect("slo sampler configured");
    let handle = gw.handle();

    let stop_flood = AtomicBool::new(false);
    thread::scope(|s| {
        let server = s.spawn(|| gw.serve(&engine).expect("gateway serve"));

        // --- Phase 1: incident. Eight closed-loop clients against one
        // 3 ms worker behind a 2-deep queue: the gateway sheds most of the
        // flood, the availability SLI collapses, and both burn windows of
        // the scaled fast pair blow through 14.4x within ~300 ms.
        thread::scope(|f| {
            for c in 0..8usize {
                let stop_flood = &stop_flood;
                let p = &p;
                f.spawn(move || {
                    let mut client = GatewayClient::connect(addr).expect("client connect");
                    client.set_timeout(Some(Duration::from_secs(2))).expect("timeout");
                    let mut r = 0usize;
                    while !stop_flood.load(Ordering::SeqCst) {
                        let req = request_from_instance(p, &p.eval[(c + r) % n_inst], 10, 0);
                        let _ = client.recommend(&req); // shed errors are the point
                        r += 1;
                    }
                });
            }
            // The flood runs until the alert fires (or a generous timeout
            // fails the test with the live /slo body for diagnosis).
            let t0 = Instant::now();
            while !health.availability_firing() && t0.elapsed() < Duration::from_secs(10) {
                thread::sleep(Duration::from_millis(5));
            }
            stop_flood.store(true, Ordering::SeqCst);
        });
        assert!(
            health.availability_firing(),
            "availability alert never fired under overload: {}",
            http_get(admin, "/slo")
        );
        assert!(health.any_firing() && health.incidents() >= 1);

        let alerts = http_get(admin, "/alerts");
        assert!(alerts.contains("\"name\":\"availability\""), "{alerts}");
        assert!(alerts.contains("\"state\":\"firing\""), "{alerts}");

        // --- Phase 2: the alert-reason flight dump was written at first
        // firing, freezing the shed-heavy request ring.
        let dumps: Vec<String> = std::fs::read_dir(&dump_dir)
            .expect("flight dir exists")
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("flightrec_") && n.ends_with("_alert.json"))
            .collect();
        assert_eq!(dumps.len(), 1, "exactly one alert-reason dump per run: {dumps:?}");
        let body = std::fs::read_to_string(dump_dir.join(&dumps[0])).expect("read dump");
        assert!(body.contains("\"reason\":\"alert\""), "{}", &body[..body.len().min(200)]);

        // --- Phase 3: recovery. Healthy traffic at a sustainable pace; the
        // shed samples age out of the scaled burn windows (fast long 300 ms,
        // slow long 1.8 s) and after a clean resolve window the alert lands
        // in Resolved.
        let mut client = GatewayClient::connect(addr).expect("recovery client");
        client.set_timeout(Some(Duration::from_secs(2))).expect("timeout");
        let t0 = Instant::now();
        let mut r = 0usize;
        while health.any_firing() && t0.elapsed() < Duration::from_secs(20) {
            let req = request_from_instance(&p, &p.eval[r % n_inst], 10, 0);
            client.recommend(&req).expect("healthy request during recovery");
            r += 1;
            thread::sleep(Duration::from_millis(10));
        }
        assert!(
            !health.any_firing(),
            "alert never resolved after recovery: {}",
            http_get(admin, "/alerts")
        );

        let alerts = http_get(admin, "/alerts");
        assert!(alerts.contains("\"state\":\"resolved\""), "{alerts}");
        assert!(alerts.contains("\"firing\":0"), "{alerts}");
        // The transition log holds the full lifecycle.
        assert!(alerts.contains("\"to\":\"firing\""), "{alerts}");
        assert!(alerts.contains("\"to\":\"resolved\""), "{alerts}");
        // Exactly one incident on the health signal: the serving layer saw
        // one rising edge, not a flap per tick.
        assert_eq!(health.incidents(), 1, "{alerts}");

        handle.shutdown();
        server.join().expect("server thread");
    });

    std::fs::remove_dir_all(&dump_dir).ok();
}
