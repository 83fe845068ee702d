//! `gateway_server` — a standalone networked recommender: trains STiSAN on
//! a Gowalla-preset synthetic dataset, then serves it over TCP through
//! `stisan-gateway` until stdin closes (or a line is entered), at which
//! point it drains gracefully and prints the run's stats.
//!
//! ```text
//! cargo run --release -p stisan-bench --bin gateway_server -- \
//!     [--addr 127.0.0.1:7878] [--admin 127.0.0.1:9878] [--scale f]
//!     [--epochs n] [--batch n] [--queue n]
//!     [--top-k k] [--seed s] [--self-load qps]
//! ```
//!
//! The backend is a supervised `ReplicatedEngine` at
//! `SupervisorConfig::default()` — the configuration `BENCHMARK.json`'s
//! `gateway_closed_100k` workload measures. Talk to it with any
//! `stisan_gateway::GatewayClient`, or let `--self-load` do so.
//!
//! `--admin` additionally binds the observability endpoint (`GET /metrics`
//! in Prometheus text format, `/healthz`, `/flightrec`, `/traces`, and the
//! SLO plane's `/timeseries` `/slo` `/alerts`); flight recorder dumps land
//! under `results/` on shutdown and on the first overload shed.
//!
//! `--self-load <qps>` drives loopback demo traffic (eval instances, paced)
//! so the admin surfaces and `stisan_dash` have live data without an
//! external load generator.

use std::io::BufRead;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use stisan_bench::prep_config;
use stisan_core::{StiSan, StisanConfig};
use stisan_data::{generate, preprocess, DatasetPreset, GenConfig};
use stisan_eval::Recommender;
use stisan_gateway::{
    request_from_instance, BatchPolicy, Gateway, GatewayClient, GatewayConfig,
};
use stisan_models::TrainConfig;
use stisan_serve::{ReplicatedEngine, ServeConfig, SharedModel, SupervisorConfig};

struct Opts {
    addr: String,
    admin: Option<SocketAddr>,
    scale: f64,
    epochs: usize,
    batch: usize,
    queue: usize,
    top_k: usize,
    seed: u64,
    self_load: f64,
}

fn parse() -> Opts {
    let mut o = Opts {
        addr: "127.0.0.1:7878".into(),
        admin: None,
        scale: 0.02,
        epochs: 1,
        batch: 32,
        queue: 256,
        top_k: 10,
        seed: 42,
        self_load: 0.0,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let key = args[i].clone();
        let take = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).unwrap_or_else(|| panic!("flag {key} needs a value")).clone()
        };
        match key.as_str() {
            "--addr" => o.addr = take(&mut i),
            "--admin" => o.admin = Some(take(&mut i).parse().expect("bad --admin")),
            "--scale" => o.scale = take(&mut i).parse().expect("bad --scale"),
            "--epochs" => o.epochs = take(&mut i).parse().expect("bad --epochs"),
            "--batch" => o.batch = take(&mut i).parse().expect("bad --batch"),
            "--queue" => o.queue = take(&mut i).parse().expect("bad --queue"),
            "--top-k" => o.top_k = take(&mut i).parse().expect("bad --top-k"),
            "--seed" => o.seed = take(&mut i).parse().expect("bad --seed"),
            "--self-load" => o.self_load = take(&mut i).parse().expect("bad --self-load"),
            other => panic!(
                "unknown flag {other}; supported: --addr --admin --scale --epochs --batch \
                 --queue --top-k --seed --self-load"
            ),
        }
        i += 1;
    }
    o
}

fn main() {
    let o = parse();
    stisan_obs::init();
    let gen_cfg = GenConfig { ..DatasetPreset::Gowalla.config(o.scale) };
    let data = generate(&gen_cfg, o.seed);
    let p = preprocess(&data, &prep_config(20, o.scale));
    println!(
        "Gowalla synth @ scale {}: {} users, {} POIs",
        o.scale, p.num_users, p.num_pois
    );

    let train = TrainConfig {
        dim: 16,
        blocks: 1,
        epochs: o.epochs,
        batch: 16,
        seed: o.seed,
        ..Default::default()
    };
    let mut model = StiSan::new(&p, StisanConfig { train, ..Default::default() });
    model.fit(&p);
    println!("trained {} for {} epoch(s)", model.name(), o.epochs);

    let engine = ReplicatedEngine::new(
        SharedModel::new(model, 0),
        &p,
        ServeConfig { top_k: o.top_k, ..Default::default() },
        SupervisorConfig::default(),
    );
    let cfg = GatewayConfig {
        batch: BatchPolicy { max_batch_size: o.batch, queue_capacity: o.queue },
        read_timeout: Duration::from_secs(30),
        admin: o.admin,
        flight_dir: Some(PathBuf::from("results")),
        slo: Some(Default::default()),
    };
    let gw = Gateway::bind(o.addr.as_str(), cfg).expect("bind gateway address");
    let handle = gw.handle();
    println!(
        "serving on {} (batch <= {}, queue <= {}); press Enter or close stdin to drain and \
         stop",
        gw.local_addr(),
        o.batch,
        o.queue
    );
    if let Some(admin) = gw.admin_addr() {
        println!(
            "admin endpoint on http://{admin} (/metrics /healthz /flightrec /traces \
             /timeseries /slo /alerts)"
        );
    }

    let serve_addr = gw.local_addr();
    let load_stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let server = s.spawn(|| gw.serve(&engine).expect("gateway serve"));
        if o.self_load > 0.0 && !p.eval.is_empty() {
            let (p, load_stop) = (&p, &load_stop);
            let (top_k, qps) = (o.top_k as u16, o.self_load);
            s.spawn(move || {
                let pause = Duration::from_secs_f64(1.0 / qps.max(0.1));
                let Ok(mut client) = GatewayClient::connect(serve_addr) else { return };
                let _ = client.set_timeout(Some(Duration::from_secs(5)));
                let mut r = 0usize;
                while !load_stop.load(Ordering::SeqCst) {
                    let req =
                        request_from_instance(p, &p.eval[r % p.eval.len()], top_k, 0);
                    let _ = client.recommend(&req);
                    r += 1;
                    std::thread::sleep(pause);
                }
            });
            println!("self-load: {} req/s of loopback demo traffic", o.self_load);
        }
        // Block on stdin: EOF or any line triggers graceful drain.
        let mut line = String::new();
        let _ = std::io::stdin().lock().read_line(&mut line);
        println!("draining...");
        load_stop.store(true, Ordering::SeqCst);
        handle.shutdown();
        let stats = server.join().expect("server thread");
        println!(
            "served {} of {} admitted ({} connections, {} batches); shed {}, deadline \
             exceeded {}, bad requests {}, protocol errors {}",
            stats.served,
            stats.admitted,
            stats.connections,
            stats.batches,
            stats.shed,
            stats.deadline_exceeded,
            stats.bad_requests,
            stats.protocol_errors
        );
    });
}
