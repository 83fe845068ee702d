//! Chaos e2e: a replicated, hot-reloading gateway floods while the chaos
//! driver kills replicas and publishes good, corrupt, and canary-poison
//! checkpoints. The suite asserts the three fleet invariants (DESIGN.md
//! §13):
//!
//! * **availability** — ≥ 99% of requests get a typed answer (response or
//!   typed error frame), even while replicas die and restart;
//! * **zero torn reads** — every successful answer is bit-identical to a
//!   direct single-session score under SOME published epoch (or the
//!   fallback prior); a mixed-epoch read would match none of them;
//! * **the process never dies** — injected panics stay behind the
//!   `catch_unwind` boundary, corrupt checkpoints are quarantined, and the
//!   gateway drains and joins cleanly at the end.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use stisan_data::{generate, preprocess, DatasetPreset, GenConfig, PrepConfig, Processed};
use stisan_gateway::batcher::BatchPolicy;
use stisan_gateway::client::{ClientError, GatewayClient, RetryPolicy};
use stisan_gateway::server::{request_from_instance, Gateway, GatewayConfig};
use stisan_nn::CheckpointManager;
use stisan_serve::chaos::{silence_chaos_panics, ChaosPlan, ChaosScorer, WeightedPrior};
use stisan_serve::{
    FallbackScorer, InferenceSession, ReloadWatcher, ReplicatedEngine, ServeConfig,
    SharedModel, SupervisorConfig,
};

/// Seed for the model at reload epoch `e` (epoch 0 = the boot model).
fn epoch_seed(e: u64) -> u64 {
    100 + e
}

fn processed() -> Processed {
    let cfg = GenConfig {
        users: 30,
        pois: 120,
        mean_seq_len: 28.0,
        ..DatasetPreset::Gowalla.config(0.01)
    };
    let d = generate(&cfg, 77);
    let p = preprocess(
        &d,
        &PrepConfig { max_len: 10, min_user_checkins: 15, min_poi_interactions: 2 },
    );
    assert!(p.eval.len() >= 4, "need eval instances to flood with");
    p
}

#[test]
fn flood_survives_replica_kills_and_checkpoint_chaos() {
    silence_chaos_panics();
    let p = processed();
    let n_inst = p.eval.len().min(16);
    let insts = &p.eval[..n_inst];
    let k: u16 = 10;

    // Reference answer tables: one per epoch that could ever serve, plus
    // the degraded-mode fallback. An answered request must bit-match one.
    let last_good_epoch = 4u64;
    let mut tables: Vec<(String, Vec<Vec<(u32, f32)>>)> = (0..=last_good_epoch)
        .map(|e| {
            let m = WeightedPrior::seeded(p.num_pois, epoch_seed(e));
            let s = InferenceSession::new(&m, &p, ServeConfig { top_k: k as usize, ..Default::default() });
            (format!("epoch {e}"), insts.iter().map(|i| s.serve_one(i).items).collect())
        })
        .collect();
    let fb = FallbackScorer::build(&p);
    let fbs = InferenceSession::new(&fb, &p, ServeConfig { top_k: k as usize, ..Default::default() });
    tables.push(("fallback".into(), insts.iter().map(|i| fbs.serve_one(i).items).collect()));

    // The serving stack: 3 supervised replicas over a chaos-wrapped prior,
    // fast restarts so kills and revivals both happen inside the flood.
    let plan = ChaosPlan::new();
    let shared = SharedModel::new(
        ChaosScorer::new(WeightedPrior::seeded(p.num_pois, epoch_seed(0)), plan.clone()),
        0,
    );
    let sup = SupervisorConfig {
        replicas: 3,
        restart_base_us: 3_000,
        restart_max_us: 20_000,
        ..SupervisorConfig::default()
    };
    let eng = ReplicatedEngine::new(
        shared.clone(),
        &p,
        ServeConfig { top_k: k as usize, ..Default::default() },
        sup,
    );

    let ckpt_dir =
        std::env::temp_dir().join(format!("stisan_chaos_e2e_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let mgr = CheckpointManager::new(&ckpt_dir, 16).expect("checkpoint dir");
    let num_pois = p.num_pois;
    let loader_plan = plan.clone();
    let watcher = ReloadWatcher::new(
        CheckpointManager::new(&ckpt_dir, 16).expect("watcher manager"),
        shared.clone(),
        &p,
        move |path| {
            WeightedPrior::load(path, num_pois)
                .map(|m| ChaosScorer::new(m, loader_plan.clone()))
        },
    );

    let cfg = GatewayConfig {
        batch: BatchPolicy { queue_capacity: 256, ..BatchPolicy::default() },
        flight_dir: None,
        ..GatewayConfig::default()
    };
    let gw = Gateway::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = gw.local_addr();
    let handle = gw.handle();

    const CLIENTS: usize = 3;
    const ROUNDS: usize = 30;
    let answered: Mutex<Vec<(usize, Vec<(u32, f32)>)>> = Mutex::new(Vec::new());
    let typed_errors = Mutex::new(Vec::<String>::new());
    let unanswered = Mutex::new(0usize);
    let sent = AtomicUsize::new(0);
    let script_done = AtomicBool::new(false);

    let stats = thread::scope(|s| {
        let server = s.spawn(|| {
            gw.serve_reloading(&eng, &watcher, Duration::from_millis(2)).expect("serve")
        });

        // Chaos script: kill replicas and churn checkpoints, wave by wave.
        // The flood below outlasts the script, so every reload happens
        // under load.
        let chaos = s.spawn(|| {
            plan.set_delay_us(150); // widen the race windows
            for wave in 1..=9u64 {
                plan.arm_panic(1 + wave % 3); // kill a replica mid-batch
                match wave {
                    2 => {
                        // good epoch 1
                        WeightedPrior::seeded(num_pois, epoch_seed(1)).save(&mgr, 1).unwrap();
                    }
                    4 => {
                        // epoch 2: pure garbage at a checkpoint path — the
                        // CRC gate must quarantine it, never serve it.
                        std::fs::write(ckpt_dir.join("ckpt-00000002.stsn"), b"not a checkpoint")
                            .unwrap();
                    }
                    6 => {
                        // epoch 3: intact bytes, NaN weights — the canary
                        // gate's kill.
                        WeightedPrior::poisoned(num_pois).save(&mgr, 3).unwrap();
                    }
                    8 => {
                        // good epoch 4: the fleet must land here.
                        WeightedPrior::seeded(num_pois, epoch_seed(4)).save(&mgr, 4).unwrap();
                    }
                    _ => {}
                }
                thread::sleep(Duration::from_millis(8));
            }
            plan.set_delay_us(0);
            script_done.store(true, Ordering::SeqCst);
        });

        // The flood: CLIENTS threads, each cycling the instance set with
        // retries on transient failures, for at least ROUNDS rounds and
        // until the chaos script has finished.
        thread::scope(|f| {
            for c in 0..CLIENTS {
                let answered = &answered;
                let typed_errors = &typed_errors;
                let unanswered = &unanswered;
                let sent = &sent;
                let script_done = &script_done;
                let p = &p;
                f.spawn(move || {
                    let policy = RetryPolicy {
                        max_attempts: 4,
                        base_backoff_us: 500,
                        max_backoff_us: 10_000,
                        jitter_seed: c as u64,
                        idempotent: true,
                    };
                    let mut client = GatewayClient::connect(addr).expect("client connect");
                    client.set_timeout(Some(Duration::from_secs(5))).expect("timeout");
                    let mut r = 0;
                    while r < ROUNDS || !script_done.load(Ordering::SeqCst) {
                        let idx = (c + r * CLIENTS) % n_inst;
                        let req = request_from_instance(&p, &insts[idx], k, 0);
                        sent.fetch_add(1, Ordering::SeqCst);
                        match client.recommend_retrying(&req, &policy) {
                            Ok((resp, _attempts)) => {
                                answered.lock().unwrap().push((idx, resp.items));
                            }
                            Err(ClientError::Server(e)) => {
                                typed_errors.lock().unwrap().push(e.code.to_string());
                            }
                            Err(e) => {
                                *unanswered.lock().unwrap() += 1;
                                eprintln!("chaos client {c} round {r}: unanswered: {e}");
                            }
                        }
                        r += 1;
                    }
                });
            }
        });
        // The flood only stops once the script is done; joining its thread
        // keeps the landing loop below from ever running beside it.
        chaos.join().expect("the chaos script must not panic");

        // Let the watcher land the final epoch before shutdown, so the
        // reload pipeline is proven end-to-end. A leftover armed panic can
        // fire inside the canary and quarantine the *good* epoch (the gate
        // correctly refuses a candidate that panics while scoring) — so
        // disarm the chaos and re-publish, exactly as an operator would.
        plan.disarm();
        let t0 = Instant::now();
        while shared.epoch() != last_good_epoch && t0.elapsed() < Duration::from_secs(3) {
            plan.disarm();
            if !ckpt_dir.join("ckpt-00000004.stsn").exists() {
                WeightedPrior::seeded(num_pois, epoch_seed(4)).save(&mgr, 4).unwrap();
            }
            thread::sleep(Duration::from_millis(5));
        }
        handle.shutdown();
        server.join().expect("gateway server thread must never die")
    });

    // --- Invariant 1: availability ---
    let answered = answered.into_inner().unwrap();
    let typed_errors = typed_errors.into_inner().unwrap();
    let unanswered = unanswered.into_inner().unwrap();
    let total = answered.len() + typed_errors.len() + unanswered;
    let sent = sent.into_inner();
    assert!(sent >= CLIENTS * ROUNDS, "the flood stopped early: {sent} requests");
    assert_eq!(total, sent, "every request must be accounted for");
    let typed = answered.len() + typed_errors.len();
    assert!(
        typed as f64 >= 0.99 * total as f64,
        "availability: {typed}/{total} typed answers (errors: {typed_errors:?}, \
         unanswered: {unanswered})"
    );
    assert!(
        answered.len() as f64 >= 0.90 * total as f64,
        "successful answers collapsed: {}/{total} ok ({typed_errors:?})",
        answered.len()
    );

    // --- Invariant 2: zero torn reads (bit-parity with some epoch) ---
    for (idx, items) in &answered {
        let matched = tables.iter().find(|(_, t)| {
            t[*idx].len() == items.len()
                && t[*idx]
                    .iter()
                    .zip(items)
                    .all(|((tp, ts), (ip, is))| tp == ip && ts.to_bits() == is.to_bits())
        });
        assert!(
            matched.is_some(),
            "instance {idx}: answer matches no published epoch and not the fallback — \
             torn read: {items:?}"
        );
    }

    // --- Invariant 3: the fleet landed on the last good epoch, and the
    // bad checkpoints were quarantined, not served ---
    assert_eq!(shared.epoch(), last_good_epoch, "final epoch after chaos");
    let mut quarantined: Vec<String> = std::fs::read_dir(&ckpt_dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".corrupt"))
        .collect();
    quarantined.sort();
    assert!(
        quarantined.contains(&"ckpt-00000002.stsn.corrupt".to_string()),
        "the garbage checkpoint must be quarantined, found {quarantined:?}"
    );
    // The poison checkpoint is quarantined if a poll scanned it while it
    // was newest; if epoch 4 landed first it is merely superseded. Either
    // way it must not be live — which `shared.epoch() == 4` plus the
    // parity check above already prove.
    assert!(
        quarantined.contains(&"ckpt-00000003.stsn.corrupt".to_string())
            || ckpt_dir.join("ckpt-00000003.stsn").exists(),
        "the poison checkpoint vanished without being quarantined"
    );

    // A sanity floor on the chaos itself: panics must actually have fired.
    assert!(plan.calls() > 0, "chaos plan never consulted");
    let _ = stats;

    std::fs::remove_dir_all(&ckpt_dir).ok();
}
