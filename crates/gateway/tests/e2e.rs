//! End-to-end gateway tests: a real `Gateway` on an ephemeral port, served
//! in-process, exercised by real TCP clients.
//!
//! * concurrent clients receive recommendations **bit-identical** to direct
//!   [`InferenceSession`] calls (the wire adds transport, not arithmetic) —
//!   proven against a trained STiSAN;
//! * a flood against a bounded queue sheds with typed `OVERLOADED` frames
//!   and conserves every request (served + shed = sent);
//! * a request whose deadline expires while queued gets
//!   `DEADLINE_EXCEEDED` at dequeue;
//! * shutdown drains: every admitted request is answered even though the
//!   signal arrives while they sit in the queue;
//! * malformed bytes and misdirected frames get typed errors, never hangs;
//! * a client-supplied trace id round-trips (protocol v2) with monotonic
//!   stage timings that account for the measured wall latency;
//! * the admin endpoint serves parseable Prometheus text with `gateway_*`
//!   and `serve_*` series, plus health/trace/flight-recorder JSON;
//! * an `OVERLOADED` flood leaves a first-shed flight-recorder dump on
//!   disk containing the shed requests' events.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use stisan_core::{StiSan, StisanConfig};
use stisan_data::{
    generate, preprocess, DatasetPreset, EvalInstance, GenConfig, PrepConfig, Processed,
};
use stisan_eval::{FrozenScorer, Recommender};
use stisan_gateway::batcher::BatchPolicy;
use stisan_gateway::client::{ClientError, GatewayClient};
use stisan_gateway::protocol::{encode, read_frame, ErrorCode, Frame, Response};
use stisan_gateway::server::{
    request_from_instance, Gateway, GatewayConfig, GatewayHandle, GatewayStats,
};
use stisan_models::common::TrainConfig;
use stisan_serve::{
    InferenceSession, ReplicatedEngine, ServeConfig, SharedModel, SupervisorConfig,
};

/// Default config with dump files disabled — e2e tests that *want* dumps
/// point `flight_dir` at a private temp directory instead.
fn quiet_cfg() -> GatewayConfig {
    GatewayConfig { flight_dir: None, ..GatewayConfig::default() }
}

/// One blocking HTTP GET against the admin endpoint; returns (status line,
/// body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut s = TcpStream::connect(addr).expect("connect admin");
    s.write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .expect("write admin request");
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read admin response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("admin response must have a body");
    let status = head.lines().next().unwrap_or_default().to_string();
    (status, body.to_string())
}

fn processed() -> Processed {
    let cfg = GenConfig {
        users: 25,
        pois: 160,
        mean_seq_len: 28.0,
        ..DatasetPreset::Gowalla.config(0.01)
    };
    let d = generate(&cfg, 4242);
    let p = preprocess(
        &d,
        &PrepConfig { max_len: 10, min_user_checkins: 15, min_poi_interactions: 2 },
    );
    assert!(!p.eval.is_empty(), "need eval instances for a meaningful test");
    p
}

/// Deterministic, training-free scorer (same spatial prior as the synthetic
/// presets): preference decays with distance from the last check-in.
struct NearLast;

impl Recommender for NearLast {
    fn name(&self) -> String {
        "near-last".into()
    }
    fn score(&self, data: &Processed, inst: &EvalInstance, c: &[u32]) -> Vec<f32> {
        let last = inst.poi.last().copied().unwrap_or(1).max(1);
        let anchor = data.loc(last);
        c.iter().map(|&p| -(data.loc(p).distance_km(&anchor) as f32)).collect()
    }
}

impl FrozenScorer for NearLast {
    fn score_frozen(&self, data: &Processed, inst: &EvalInstance, c: &[u32]) -> Vec<f32> {
        self.score(data, inst, c)
    }
}

/// `NearLast` plus a fixed per-instance delay: makes the scoring "device"
/// slow enough that queueing effects (shedding, deadlines, drain) are
/// deterministic to observe.
struct Slow(Duration);

impl Recommender for Slow {
    fn name(&self) -> String {
        "slow-near-last".into()
    }
    fn score(&self, data: &Processed, inst: &EvalInstance, c: &[u32]) -> Vec<f32> {
        thread::sleep(self.0);
        NearLast.score(data, inst, c)
    }
}

impl FrozenScorer for Slow {
    fn score_frozen(&self, data: &Processed, inst: &EvalInstance, c: &[u32]) -> Vec<f32> {
        thread::sleep(self.0);
        NearLast.score_frozen(data, inst, c)
    }
}

/// A 1-replica engine over `model`: batches score serially, which is what
/// the queueing tests (shedding, deadlines, drain) time against.
fn serial_engine<M: FrozenScorer + Send + Sync>(
    model: M,
    p: &Processed,
    top_k: usize,
) -> ReplicatedEngine<'_, M> {
    ReplicatedEngine::new(
        SharedModel::new(model, 0),
        p,
        ServeConfig { top_k, ..Default::default() },
        SupervisorConfig { replicas: 1, ..SupervisorConfig::default() },
    )
}

/// Binds an ephemeral-port gateway, serves `engine` on a scoped thread,
/// runs `f` with the handle, then shuts down and returns the run's stats.
fn with_gateway<M: FrozenScorer + Send + Sync>(
    engine: &ReplicatedEngine<'_, M>,
    cfg: GatewayConfig,
    f: impl FnOnce(GatewayHandle),
) -> GatewayStats {
    let gw = Gateway::bind("127.0.0.1:0", cfg).expect("bind ephemeral port");
    let handle = gw.handle();
    let mut stats = GatewayStats::default();
    thread::scope(|s| {
        let server = s.spawn(move || gw.serve(engine).expect("gateway serve"));
        // A panic in `f` (a failed assertion) must still shut the gateway
        // down: `thread::scope` joins the server thread on exit, and without
        // the shutdown signal that join never returns — the suite would hang
        // with the failure message trapped in the harness's capture buffer.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(handle.clone())));
        handle.shutdown();
        stats = server.join().expect("server thread");
        if let Err(panic) = outcome {
            std::panic::resume_unwind(panic);
        }
    });
    stats
}

fn assert_bitwise_equal(resp: &Response, want: &stisan_serve::Recommendation) {
    assert_eq!(resp.pool as usize, want.pool);
    assert_eq!(resp.scored as usize, want.scored);
    assert_eq!(resp.items.len(), want.items.len());
    for (i, ((gp, gs), (wp, ws))) in resp.items.iter().zip(&want.items).enumerate() {
        assert_eq!(gp, wp, "rank {i}: poi diverged over the wire");
        assert_eq!(gs.to_bits(), ws.to_bits(), "rank {i}: score bits diverged over the wire");
    }
}

/// Three concurrent clients, a trained STiSAN: every wire response is
/// bit-identical to calling the session directly.
#[test]
fn concurrent_clients_match_direct_serving_bitwise() {
    let p = processed();
    let train = TrainConfig {
        dim: 16,
        blocks: 2,
        epochs: 1,
        batch: 8,
        negatives: 3,
        neg_pool: 40,
        ..Default::default()
    };
    let mut model = StiSan::new(&p, StisanConfig { train, ..Default::default() });
    model.fit(&p);
    let direct: Vec<_> = {
        let session =
            InferenceSession::new(&model, &p, ServeConfig { top_k: 10, ..Default::default() });
        p.eval.iter().map(|i| session.serve_one(i)).collect()
    };
    let engine = serial_engine(model, &p, 10);

    let stats = with_gateway(&engine, quiet_cfg(), |handle| {
        thread::scope(|cs| {
            for c in 0..3usize {
                let handle = handle.clone();
                let (p, direct) = (&p, &direct);
                cs.spawn(move || {
                    let mut client = GatewayClient::connect(handle.addr()).expect("connect");
                    for (i, inst) in p.eval.iter().enumerate() {
                        if i % 3 != c {
                            continue;
                        }
                        let req = request_from_instance(p, inst, 10, 0);
                        let resp = client.recommend(&req).expect("recommend");
                        assert_bitwise_equal(&resp, &direct[i]);
                    }
                });
            }
        });
    });
    assert_eq!(stats.served, p.eval.len() as u64);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.bad_requests, 0);
    assert_eq!(stats.protocol_errors, 0);
}

/// A flood against a 1-deep queue: some requests shed with `OVERLOADED`,
/// and served + shed conserves every request sent.
#[test]
fn overload_sheds_with_typed_overloaded_frames() {
    let p = processed();
    let engine = serial_engine(Slow(Duration::from_millis(40)), &p, 5);
    let cfg = GatewayConfig {
        batch: BatchPolicy { max_batch_size: 1, queue_capacity: 1 },
        ..quiet_cfg()
    };
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 4;
    let ok = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let stats = with_gateway(&engine, cfg, |handle| {
        thread::scope(|cs| {
            for c in 0..CLIENTS {
                let handle = handle.clone();
                let (p, ok, shed) = (&p, &ok, &shed);
                cs.spawn(move || {
                    let mut client = GatewayClient::connect(handle.addr()).expect("connect");
                    let req = request_from_instance(p, &p.eval[c % p.eval.len()], 5, 0);
                    for _ in 0..ROUNDS {
                        match client.recommend(&req) {
                            Ok(resp) => {
                                assert!(!resp.items.is_empty());
                                ok.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(ClientError::Server(e)) => {
                                assert_eq!(e.code, ErrorCode::Overloaded);
                                shed.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(other) => panic!("unexpected client failure: {other}"),
                        }
                    }
                });
            }
        });
    });
    assert!(stats.shed > 0, "a {CLIENTS}-client flood against a 1-deep queue must shed");
    assert_eq!(stats.served, ok.load(Ordering::Relaxed));
    assert_eq!(stats.shed, shed.load(Ordering::Relaxed));
    assert_eq!(stats.served + stats.shed, (CLIENTS * ROUNDS) as u64);
}

/// A request that blows its deadline while queued behind a slow batch is
/// answered `DEADLINE_EXCEEDED` at dequeue, not scored.
#[test]
fn queued_past_deadline_gets_deadline_exceeded() {
    let p = processed();
    let engine = serial_engine(Slow(Duration::from_millis(150)), &p, 5);
    let cfg = GatewayConfig {
        batch: BatchPolicy { max_batch_size: 1, queue_capacity: 8 },
        ..quiet_cfg()
    };
    let stats = with_gateway(&engine, cfg, |handle| {
        thread::scope(|cs| {
            let h = handle.clone();
            let pr = &p;
            // Occupy the scoring device with a no-deadline request.
            let front = cs.spawn(move || {
                let mut client = GatewayClient::connect(h.addr()).expect("connect");
                let req = request_from_instance(pr, &pr.eval[0], 5, 0);
                client.recommend(&req).expect("undeadlined request must be served")
            });
            // Wait until it is admitted, then queue one with a 1 ms budget:
            // it cannot be dequeued before the 150 ms batch finishes.
            let t0 = Instant::now();
            while handle.stats().admitted < 1 {
                assert!(t0.elapsed() < Duration::from_secs(5), "front request never admitted");
                thread::sleep(Duration::from_millis(2));
            }
            let h = handle.clone();
            let late = cs.spawn(move || {
                let mut client = GatewayClient::connect(h.addr()).expect("connect");
                let req = request_from_instance(pr, &pr.eval[1 % pr.eval.len()], 5, 1);
                client.recommend(&req)
            });
            front.join().expect("front client");
            match late.join().expect("late client") {
                Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::DeadlineExceeded),
                other => panic!("expected DEADLINE_EXCEEDED, got {other:?}"),
            }
        });
    });
    assert_eq!(stats.deadline_exceeded, 1);
    assert_eq!(stats.served, 1);
}

/// Shutdown mid-queue: every admitted request is still answered with a real
/// recommendation — the drain guarantee.
#[test]
fn shutdown_drains_every_admitted_request() {
    let p = processed();
    let engine = serial_engine(Slow(Duration::from_millis(60)), &p, 5);
    let cfg = GatewayConfig {
        batch: BatchPolicy { max_batch_size: 1, queue_capacity: 16 },
        ..quiet_cfg()
    };
    const CLIENTS: usize = 4;
    let stats = with_gateway(&engine, cfg, |handle| {
        thread::scope(|cs| {
            let mut joins = Vec::new();
            for c in 0..CLIENTS {
                let handle = handle.clone();
                let pr = &p;
                joins.push(cs.spawn(move || {
                    let mut client = GatewayClient::connect(handle.addr()).expect("connect");
                    let req = request_from_instance(pr, &pr.eval[c % pr.eval.len()], 5, 0);
                    client.recommend(&req)
                }));
            }
            // All four admitted (first is being scored, rest queued) —
            // *then* pull the plug.
            let t0 = Instant::now();
            while handle.stats().admitted < CLIENTS as u64 {
                assert!(t0.elapsed() < Duration::from_secs(5), "requests never admitted");
                thread::sleep(Duration::from_millis(2));
            }
            handle.shutdown();
            for j in joins {
                let resp = j
                    .join()
                    .expect("client thread")
                    .expect("admitted request must be answered despite shutdown");
                assert!(!resp.items.is_empty());
            }
        });
    });
    assert_eq!(stats.admitted, CLIENTS as u64);
    assert_eq!(stats.served, CLIENTS as u64, "drain must answer everything admitted");
}

/// Corrupt and misdirected frames get typed error replies and a close —
/// the gateway never hangs or echoes garbage.
#[test]
fn malformed_bytes_get_typed_errors() {
    let p = processed();
    let engine = serial_engine(NearLast, &p, 5);
    let stats = with_gateway(&engine, quiet_cfg(), |handle| {
        // CRC flip: MALFORMED, then close.
        let mut raw = TcpStream::connect(handle.addr()).expect("connect");
        let mut bytes = encode(&Frame::Request(request_from_instance(&p, &p.eval[0], 5, 0)));
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        raw.write_all(&bytes).expect("write corrupt frame");
        match read_frame(&mut raw) {
            Ok(Frame::Error(e)) => assert_eq!(e.code, ErrorCode::Malformed),
            other => panic!("expected MALFORMED, got {other:?}"),
        }
        let mut rest = Vec::new();
        raw.read_to_end(&mut rest).expect("server must close after a corrupt frame");
        assert!(rest.is_empty());

        // Future version byte: UNSUPPORTED_VERSION.
        let mut raw = TcpStream::connect(handle.addr()).expect("connect");
        let mut bytes = encode(&Frame::Request(request_from_instance(&p, &p.eval[0], 5, 0)));
        bytes[4] = 9;
        raw.write_all(&bytes).expect("write future-version frame");
        match read_frame(&mut raw) {
            Ok(Frame::Error(e)) => assert_eq!(e.code, ErrorCode::UnsupportedVersion),
            other => panic!("expected UNSUPPORTED_VERSION, got {other:?}"),
        }

        // A response frame sent *to* the server: MALFORMED.
        let mut raw = TcpStream::connect(handle.addr()).expect("connect");
        let bytes =
            encode(&Frame::Response(Response { pool: 1, scored: 1, items: vec![], trace: None }));
        raw.write_all(&bytes).expect("write misdirected frame");
        match read_frame(&mut raw) {
            Ok(Frame::Error(e)) => assert_eq!(e.code, ErrorCode::Malformed),
            other => panic!("expected MALFORMED, got {other:?}"),
        }
    });
    assert_eq!(stats.protocol_errors, 3);
    assert_eq!(stats.served, 0);
}

/// A `BAD_REQUEST` is retryable: the connection survives and serves the
/// corrected request; per-request `k` is honoured and capped at the
/// session's `top_k`.
#[test]
fn bad_request_keeps_connection_usable_and_k_is_capped() {
    let p = processed();
    let engine = serial_engine(NearLast, &p, 10);
    let stats = with_gateway(&engine, quiet_cfg(), |handle| {
        let mut client = GatewayClient::connect(handle.addr()).expect("connect");
        let mut bad = request_from_instance(&p, &p.eval[0], 5, 0);
        bad.user = p.num_users as u32 + 3;
        match client.recommend(&bad) {
            Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::BadRequest),
            other => panic!("expected BAD_REQUEST, got {other:?}"),
        }
        // A non-finite timestamp would poison the relation matrix: rejected
        // at admission, never scored.
        for time in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut bad = request_from_instance(&p, &p.eval[0], 5, 0);
            bad.seq[0].time = time;
            match client.recommend(&bad) {
                Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::BadRequest),
                other => panic!("time {time}: expected BAD_REQUEST, got {other:?}"),
            }
        }
        // Same connection, small k: exactly 3 items.
        let resp = client
            .recommend(&request_from_instance(&p, &p.eval[0], 3, 0))
            .expect("connection must survive a BAD_REQUEST");
        assert_eq!(resp.items.len(), 3);
        // k beyond the session's top_k is capped, not an error.
        let resp = client
            .recommend(&request_from_instance(&p, &p.eval[0], 100, 0))
            .expect("oversized k is capped");
        assert_eq!(resp.items.len(), 10);
    });
    assert_eq!(stats.bad_requests, 4);
    assert_eq!(stats.served, 2);
}

/// A client-supplied trace id round-trips over the wire (protocol v2): the
/// response echoes the id with monotonic stage offsets whose server-side
/// total accounts for the measured wall latency to within 5%. An untraced
/// request on the same connection stays v1 (no echo).
#[test]
fn trace_echo_roundtrips_with_monotonic_accounting_timings() {
    let p = processed();
    // 80 ms of scoring dominates; loopback transport overhead sits far
    // inside the 5% accounting slack (4 ms).
    let engine = serial_engine(Slow(Duration::from_millis(80)), &p, 5);
    let cfg = GatewayConfig {
        batch: BatchPolicy { max_batch_size: 1, queue_capacity: 8 },
        ..quiet_cfg()
    };
    let stats = with_gateway(&engine, cfg, |handle| {
        let mut client = GatewayClient::connect(handle.addr()).expect("connect");
        let mut req = request_from_instance(&p, &p.eval[0], 5, 0);
        req.trace_id = Some(0xDEAD_BEEF_0001);
        let t0 = Instant::now();
        let resp = client.recommend(&req).expect("traced request");
        let wall_us = t0.elapsed().as_micros() as u64;
        let echo = resp.trace.expect("traced request must get a trace echo");
        assert_eq!(echo.trace_id, 0xDEAD_BEEF_0001, "trace id must round-trip unchanged");
        assert!(
            echo.is_monotonic(),
            "stage offsets must be non-decreasing: {:?}",
            echo.stage_us
        );
        let total = u64::from(echo.written_us());
        assert!(total > 0, "a scored request must have a non-zero server-side total");
        assert!(total <= wall_us, "server total {total}µs exceeds client wall {wall_us}µs");
        // 5% proportional slack plus a 5 ms absolute floor: on a loaded
        // host (CI running builds in parallel) the client thread can lose
        // the CPU for several milliseconds between the server's last write
        // and the wall-clock read, which is accounting noise, not a gap in
        // the server-side stage timings.
        assert!(
            wall_us - total <= wall_us / 20 + 5_000,
            "stage timings must account for wall latency within 5% + 5ms: \
             server {total}µs vs wall {wall_us}µs"
        );
        // Scoring dominates: the scored→written gap is transport-free.
        assert!(u64::from(echo.scored_us()) >= 80_000, "scoring stage lost: {:?}", echo.stage_us);

        let resp = client
            .recommend(&request_from_instance(&p, &p.eval[0], 5, 0))
            .expect("untraced request");
        assert!(resp.trace.is_none(), "untraced requests must not get an echo");
    });
    assert_eq!(stats.served, 2);
}

/// The admin endpoint serves a parseable Prometheus exposition containing
/// the gateway's and the serving engine's series, plus health, exemplar,
/// and flight-recorder JSON; unknown paths are 404.
#[test]
fn admin_endpoint_serves_parseable_metrics_health_and_dumps() {
    let p = processed();
    let engine = serial_engine(NearLast, &p, 5);
    let cfg = GatewayConfig {
        admin: Some("127.0.0.1:0".parse().expect("admin addr")),
        ..quiet_cfg()
    };
    let gw = Gateway::bind("127.0.0.1:0", cfg).expect("bind ephemeral ports");
    let handle = gw.handle();
    let admin = handle.admin_addr().expect("admin listener must be bound");
    thread::scope(|s| {
        let server = s.spawn(|| gw.serve(&engine).expect("gateway serve"));
        let mut client = GatewayClient::connect(handle.addr()).expect("connect");
        for (i, inst) in p.eval.iter().take(4).enumerate() {
            let mut req = request_from_instance(&p, inst, 5, 0);
            req.trace_id = Some(9_000 + i as u64);
            client.recommend(&req).expect("recommend");
        }

        let (status, body) = http_get(admin, "/metrics");
        assert!(status.contains("200"), "metrics status: {status}");
        let doc = stisan_obs::expo::parse(&body).expect("exposition must parse");
        assert!(doc.terminated, "exposition must end with # EOF");
        for family in
            ["gateway_requests_total", "gateway_batches_total", "serve_latency_ms", "trace_total_us"]
        {
            assert!(
                !doc.family_samples(family).is_empty(),
                "scrape is missing the {family} series"
            );
        }

        let (status, health) = http_get(admin, "/healthz");
        assert!(status.contains("200"), "healthz status: {status}");
        assert!(health.contains("\"status\":\"ok\"") && health.contains("\"queue_depth\""));

        let (status, traces) = http_get(admin, "/traces");
        assert!(status.contains("200") && traces.starts_with('['), "traces: {status}");
        assert!(traces.contains("\"trace_id\""), "exemplar table must hold traced requests");

        let (status, flight) = http_get(admin, "/flightrec");
        assert!(status.contains("200"), "flightrec status: {status}");
        assert!(flight.contains("\"reason\":\"demand\"") && flight.contains("\"events\""));

        let (status, _) = http_get(admin, "/nope");
        assert!(status.contains("404"), "unknown admin path must 404: {status}");

        handle.shutdown();
        server.join().expect("server thread");
    });
}

/// An `OVERLOADED` flood writes the first-shed flight dump (and shutdown
/// writes another); the first-shed dump contains the shed requests' events.
#[test]
fn overload_flood_writes_flight_dumps_with_shed_events() {
    let p = processed();
    let engine = serial_engine(Slow(Duration::from_millis(40)), &p, 5);
    let dir = std::env::temp_dir().join(format!("stisan-gw-flightrec-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = GatewayConfig {
        batch: BatchPolicy { max_batch_size: 1, queue_capacity: 1 },
        flight_dir: Some(dir.clone()),
        ..quiet_cfg()
    };
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 4;
    let stats = with_gateway(&engine, cfg, |handle| {
        thread::scope(|cs| {
            for c in 0..CLIENTS {
                let handle = handle.clone();
                let pr = &p;
                cs.spawn(move || {
                    let mut client = GatewayClient::connect(handle.addr()).expect("connect");
                    let req = request_from_instance(pr, &pr.eval[c % pr.eval.len()], 5, 0);
                    for _ in 0..ROUNDS {
                        match client.recommend(&req) {
                            Ok(_) => {}
                            Err(ClientError::Server(e)) => {
                                assert_eq!(e.code, ErrorCode::Overloaded)
                            }
                            Err(other) => panic!("unexpected client failure: {other}"),
                        }
                    }
                });
            }
        });
    });
    assert!(stats.shed > 0, "the flood must shed against a 1-deep queue");

    let names: Vec<String> = std::fs::read_dir(&dir)
        .expect("flight dir must exist after a shed")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    let first_shed = names
        .iter()
        .find(|n| n.starts_with("flightrec_") && n.ends_with("_first_shed.json"))
        .unwrap_or_else(|| panic!("no first-shed dump among {names:?}"));
    assert!(
        names.iter().any(|n| n.ends_with("_shutdown.json")),
        "no shutdown dump among {names:?}"
    );
    let body = std::fs::read_to_string(dir.join(first_shed)).expect("read first-shed dump");
    assert!(body.contains("\"reason\":\"first_shed\""));
    assert!(
        body.contains("\"outcome\":\"shed\""),
        "first-shed dump must contain the shed requests' events"
    );
    std::fs::remove_dir_all(&dir).ok();
}
