//! Hot-reload edge cases (DESIGN.md §13): the validate-then-publish
//! protocol under the conditions that break naive weight swapping.
//!
//! * a publish landing while a batch is mid-drain never mixes epochs —
//!   every answer is bit-identical to a direct single-epoch session;
//! * two checkpoints published back-to-back skip the middle epoch (the
//!   watcher takes the newest valid candidate, never replays history);
//! * a corrupt-then-good sequence recovers on the same watcher instance —
//!   no restart, no manual rollback;
//! * quarantine renames keep rejected candidates out of every later scan,
//!   and a canary-failing (NaN) checkpoint is rejected the same way.

use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;

use stisan_data::{generate, preprocess, DatasetPreset, GenConfig, PrepConfig, Processed};
use stisan_nn::{fault, CheckpointManager};
use stisan_obs::TraceCtx;
use stisan_serve::chaos::WeightedPrior;
use stisan_serve::{
    EngineBackend, InferenceSession, ReloadWatcher, ReplicatedEngine, ServeConfig,
    SharedModel, SupervisorConfig,
};

fn processed() -> Processed {
    let cfg = GenConfig {
        users: 30,
        pois: 120,
        mean_seq_len: 28.0,
        ..DatasetPreset::Gowalla.config(0.01)
    };
    let d = generate(&cfg, 11);
    let p = preprocess(
        &d,
        &PrepConfig { max_len: 10, min_user_checkins: 15, min_poi_interactions: 2 },
    );
    assert!(!p.eval.is_empty());
    p
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("stisan_reload_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn watcher<'d>(
    dir: &std::path::Path,
    shared: SharedModel<WeightedPrior>,
    p: &'d Processed,
) -> ReloadWatcher<'d, WeightedPrior> {
    let mgr = CheckpointManager::new(dir, 8).expect("checkpoint dir");
    let num_pois = p.num_pois;
    ReloadWatcher::new(
        mgr,
        shared,
        p,
        move |path| WeightedPrior::load(path, num_pois),
    )
}

/// Scoring runs concurrently with a stream of publishes; every answer must
/// bit-match a direct session on exactly the epoch it claims — a torn read
/// (mixed epochs) would match neither.
#[test]
fn publish_mid_drain_never_tears_a_batch() {
    let p = processed();
    let shared = SharedModel::new(WeightedPrior::seeded(p.num_pois, 100), 0);
    let eng = ReplicatedEngine::new(
        shared.clone(),
        &p,
        ServeConfig::default(),
        SupervisorConfig { replicas: 3, ..SupervisorConfig::default() },
    );
    // Direct per-epoch references, computed up front (epoch e <- seed 100+e).
    let direct: Vec<Vec<Vec<(u32, f32)>>> = (0..=4u64)
        .map(|e| {
            let m = WeightedPrior::seeded(p.num_pois, 100 + e);
            let s = InferenceSession::new(&m, &p, ServeConfig::default());
            p.eval.iter().map(|inst| s.serve_one(inst).items).collect()
        })
        .collect();

    let stop = AtomicBool::new(false);
    thread::scope(|s| {
        // Publisher: epochs 1..=4, racing the scorer below.
        s.spawn(|| {
            for e in 1..=4u64 {
                shared.publish(WeightedPrior::seeded(p.num_pois, 100 + e), e);
                thread::sleep(std::time::Duration::from_millis(2));
            }
            stop.store(true, Ordering::SeqCst);
        });
        // Scorer: batches drain while publishes land.
        let mut batches = 0usize;
        while !stop.load(Ordering::SeqCst) || batches == 0 {
            let mut traces: Vec<TraceCtx> =
                (0..p.eval.len()).map(|i| TraceCtx::new(i as u64)).collect();
            let outs = eng.serve_outcomes(&p.eval, 2, &mut traces);
            for (j, out) in outs.iter().enumerate() {
                let served = out.as_ref().expect("healthy pool must answer");
                assert!(!served.degraded);
                let e = served.epoch as usize;
                assert!(e <= 4, "unknown epoch {e}");
                assert_eq!(
                    served.rec.items, direct[e][j],
                    "batch {batches} item {j}: answer does not match its claimed epoch {e} \
                     — torn read"
                );
            }
            batches += 1;
        }
        assert!(batches > 0);
    });
    assert_eq!(shared.epoch(), 4);
}

/// Two checkpoints saved between polls: the watcher publishes the newest
/// and *skips* the middle epoch entirely; a follow-up poll is a no-op.
#[test]
fn rapid_successive_publishes_skip_epochs() {
    let p = processed();
    let dir = temp_dir("skip");
    let shared = SharedModel::new(WeightedPrior::seeded(p.num_pois, 1), 0);
    let w = watcher(&dir, shared.clone(), &p);

    WeightedPrior::seeded(p.num_pois, 2).save(w.manager(), 2).unwrap();
    WeightedPrior::seeded(p.num_pois, 3).save(w.manager(), 3).unwrap();
    let report = w.poll();
    assert_eq!(report.published, Some(3), "newest valid candidate wins");
    assert_eq!(report.rejected_corrupt, 0);
    assert_eq!(shared.epoch(), 3, "epoch 2 must be skipped, not queued");

    // The superseded epoch is not an error and never publishes later.
    let again = w.poll();
    assert_eq!(again.published, None);
    assert_eq!(shared.epoch(), 3);
    // The skipped checkpoint file is untouched (not quarantined).
    let files = w.manager().list().unwrap();
    assert!(files.iter().any(|&(e, _)| e == 2), "skipped epoch must stay on disk");
    std::fs::remove_dir_all(&dir).ok();
}

/// Newest candidate corrupt, older one good: the corrupt file is
/// quarantined and the good one publishes in the SAME poll; a later good
/// checkpoint then publishes normally — all on one watcher, no restart.
#[test]
fn corrupt_then_good_recovers_without_restart() {
    let p = processed();
    let dir = temp_dir("corrupt");
    let shared = SharedModel::new(WeightedPrior::seeded(p.num_pois, 1), 0);
    let w = watcher(&dir, shared.clone(), &p);

    WeightedPrior::seeded(p.num_pois, 2).save(w.manager(), 2).unwrap();
    let bad = WeightedPrior::seeded(p.num_pois, 3).save(w.manager(), 3).unwrap();
    fault::corrupt_checkpoint(&bad).unwrap();

    let report = w.poll();
    assert_eq!(report.rejected_corrupt, 1, "corrupt newest must be rejected");
    assert_eq!(report.published, Some(2), "older good candidate must publish in the same poll");
    assert_eq!(shared.epoch(), 2);
    assert!(!bad.exists(), "corrupt file must be quarantined (renamed)");
    assert!(
        bad.with_extension("stsn.corrupt").exists(),
        "quarantined file must survive for forensics"
    );

    // Recovery: the next good checkpoint publishes through the same watcher.
    WeightedPrior::seeded(p.num_pois, 4).save(w.manager(), 4).unwrap();
    let report = w.poll();
    assert_eq!(report.published, Some(4));
    assert_eq!(report.rejected_corrupt, 0, "quarantined file must not be rescanned");
    assert_eq!(shared.epoch(), 4);
    std::fs::remove_dir_all(&dir).ok();
}

/// Canary gate: a checkpoint whose bytes are intact (CRC passes) but whose
/// weights are NaN is rejected, quarantined, and never shadows the live
/// model; `newer_than` stops listing it.
#[test]
fn canary_failure_quarantines_and_watcher_moves_on() {
    let p = processed();
    let dir = temp_dir("canary");
    let shared = SharedModel::new(WeightedPrior::seeded(p.num_pois, 1), 1);
    let w = watcher(&dir, shared.clone(), &p);

    let poison = WeightedPrior::poisoned(p.num_pois).save(w.manager(), 5).unwrap();
    // Sanity: the file itself loads fine — only the canary can catch it.
    assert!(WeightedPrior::load(&poison, p.num_pois).is_ok());

    let report = w.poll();
    assert_eq!(report.rejected_canary, 1);
    assert_eq!(report.published, None);
    assert_eq!(shared.epoch(), 1, "live epoch must keep serving");
    assert!(!poison.exists());

    // The quarantine interacts with the scan exactly once: nothing newer
    // remains, so the next poll sees an empty candidate list.
    assert!(w.manager().newer_than(1).unwrap().is_empty());
    assert_eq!(w.poll(), stisan_serve::ReloadReport::default());

    // And a good candidate after the poison publishes cleanly.
    WeightedPrior::seeded(p.num_pois, 6).save(w.manager(), 6).unwrap();
    assert_eq!(w.poll().published, Some(6));
    assert_eq!(shared.epoch(), 6);
    std::fs::remove_dir_all(&dir).ok();
}

/// Alert→reload coupling: while an availability alert fires, a perfectly
/// good candidate is NOT published (vetoed, left on disk); once the alert
/// resolves, the very next poll publishes it unchanged.
#[test]
fn firing_availability_alert_vetoes_publish_until_recovery() {
    let p = processed();
    let dir = temp_dir("veto");
    let shared = SharedModel::new(WeightedPrior::seeded(p.num_pois, 1), 1);
    let health = stisan_obs::HealthSignal::default();
    let w = watcher(&dir, shared.clone(), &p).with_health(health.clone());

    WeightedPrior::seeded(p.num_pois, 2).save(w.manager(), 2).unwrap();
    health.set(true, true); // availability alert firing
    let report = w.poll();
    assert!(report.vetoed, "publish must be vetoed while the alert fires");
    assert_eq!(report.published, None);
    assert_eq!(shared.epoch(), 1, "live epoch must keep serving");
    let files = w.manager().list().unwrap();
    assert!(
        files.iter().any(|&(e, _)| e == 2),
        "vetoed candidate must stay on disk, not be quarantined"
    );

    // Recovery: the alert resolves and the same candidate publishes.
    health.set(false, false);
    let report = w.poll();
    assert!(!report.vetoed);
    assert_eq!(report.published, Some(2));
    assert_eq!(shared.epoch(), 2);
    std::fs::remove_dir_all(&dir).ok();
}

/// Alert→supervisor coupling: an availability *incident* (rising edge) puts
/// every live replica on probation on the next tick — the pool still
/// answers (probes are admitted), and repeated incidents do not
/// re-trip without a new rising edge.
#[test]
fn availability_incident_marks_replicas_suspect() {
    let p = processed();
    let shared = SharedModel::new(WeightedPrior::seeded(p.num_pois, 1), 1);
    let health = stisan_obs::HealthSignal::default();
    let eng = ReplicatedEngine::new(
        shared,
        &p,
        ServeConfig::default(),
        SupervisorConfig { replicas: 3, ..SupervisorConfig::default() },
    )
    .with_health(health.clone());

    let obs = stisan_obs::init();
    let suspects = || {
        obs.registry
            .snapshot()
            .counters
            .iter()
            .find(|(n, _)| n == "gateway.replica_suspect_total")
            .map_or(0, |&(_, v)| v)
    };
    let before = suspects();

    // No incident yet: ticks change nothing.
    eng.tick();
    assert_eq!(suspects(), before);

    // Rising edge → every replica goes on probation (counted once).
    health.set(true, true);
    eng.tick();
    assert_eq!(suspects(), before + 3, "one suspect count per replica");

    // Still firing (no new edge): no re-trip.
    eng.tick();
    assert_eq!(suspects(), before + 3);

    // Probation does not take the pool down: probes are admitted, succeed,
    // and bring the replicas back up.
    let mut traces: Vec<TraceCtx> =
        (0..p.eval.len()).map(|i| TraceCtx::new(i as u64)).collect();
    let outs = eng.serve_outcomes(&p.eval, 2, &mut traces);
    assert!(outs.iter().all(|o| o.is_ok()), "suspect pool must still answer via probes");
    assert_eq!(eng.healthy_count(), 3);

    // Resolve, then a second incident: a fresh rising edge re-trips.
    health.set(false, false);
    health.set(true, true);
    eng.tick();
    assert_eq!(suspects(), before + 6);
}
