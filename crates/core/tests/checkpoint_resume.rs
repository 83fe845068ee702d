//! The tentpole guarantee: training interrupted at a checkpoint and resumed
//! in a fresh process is bit-identical to uninterrupted training; a
//! weights-only checkpoint resumes from epoch 0, and recovery skips files in
//! the retired CRC-less v1 layout.

use std::path::PathBuf;

use stisan_core::{CheckpointConfig, StiSan, StisanConfig};
use stisan_data::{generate, preprocess, DatasetPreset, GenConfig, PrepConfig, Processed};
use stisan_models::TrainConfig;

fn processed() -> Processed {
    let cfg = GenConfig {
        users: 20,
        pois: 100,
        mean_seq_len: 25.0,
        ..DatasetPreset::Gowalla.config(0.01)
    };
    let d = generate(&cfg, 77);
    preprocess(&d, &PrepConfig { max_len: 8, min_user_checkins: 12, min_poi_interactions: 1 })
}

fn cfg(epochs: usize) -> StisanConfig {
    StisanConfig {
        train: TrainConfig {
            dim: 8,
            blocks: 1,
            epochs,
            batch: 16,
            dropout: 0.1,
            negatives: 3,
            neg_pool: 30,
            temperature: 1.0,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stisan_resume_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_same_weights(a: &StiSan, b: &StiSan) {
    let (sa, sb) = (a.param_store(), b.param_store());
    for id in sa.ids() {
        assert_eq!(
            sa.value(id).data(),
            sb.value(id).data(),
            "parameter {id:?} diverged between straight and resumed training"
        );
    }
}

#[test]
fn resume_is_bit_identical_to_uninterrupted_training() {
    let obs = stisan_obs::init();
    let p = processed();
    assert!(!p.train.is_empty(), "test dataset came out empty");
    let dir = tmpdir("bitexact");

    // Reference: 6 uninterrupted epochs, no checkpointing.
    let mut straight = StiSan::new(&p, cfg(6));
    straight.fit(&p);

    // "Crashed" run: 3 epochs, checkpointing every epoch, then the process
    // dies (we just drop the model).
    let cc = CheckpointConfig::new(&dir);
    let mut first = StiSan::new(&p, cfg(3));
    let s1 = first.fit_with_checkpoints(&p, Some(&cc)).unwrap();
    assert_eq!(s1.start_epoch, 0);
    assert!(s1.resumed_from.is_none());
    drop(first);

    // Fresh process: same full schedule, resumes at epoch 3.
    let mut resumed = StiSan::new(&p, cfg(6));
    let s2 = resumed.fit_with_checkpoints(&p, Some(&cc)).unwrap();
    assert_eq!(s2.start_epoch, 3, "must resume from the epoch-3 checkpoint");
    assert_eq!(s2.epochs_run, 3);
    assert!(s2.resumed_from.is_some());

    assert_same_weights(&straight, &resumed);

    let resumes = obs
        .registry
        .snapshot()
        .counters
        .iter()
        .find(|(n, _)| n == "checkpoint.resumes")
        .map(|(_, v)| *v)
        .unwrap_or(0);
    assert!(resumes >= 1, "checkpoint.resumes counter never incremented");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resuming_a_finished_run_is_a_noop() {
    let p = processed();
    let dir = tmpdir("noop");
    let cc = CheckpointConfig::new(&dir);

    let mut a = StiSan::new(&p, cfg(2));
    a.fit_with_checkpoints(&p, Some(&cc)).unwrap();

    let mut b = StiSan::new(&p, cfg(2));
    let s = b.fit_with_checkpoints(&p, Some(&cc)).unwrap();
    assert_eq!(s.start_epoch, 2);
    assert_eq!(s.epochs_run, 0);
    assert_same_weights(&a, &b);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn weights_only_checkpoint_resumes_from_epoch_zero_past_a_v1_file() {
    let p = processed();
    let dir = tmpdir("weights_only");
    std::fs::create_dir_all(&dir).unwrap();

    let mut trained = StiSan::new(&p, cfg(1));
    trained.fit(&p);
    // A weights-only checkpoint: no trainer state, so no epoch count.
    let path = dir.join("ckpt-00000001.stsn");
    trained.param_store().save_file(&path).unwrap();
    // A newer file in the retired v1 layout: the same weights with no
    // trainer flag and no CRC footer, version word 1.
    let v2 = trained.param_store().to_bytes();
    let mut v1 = v2[..v2.len() - 5].to_vec();
    v1[4..8].copy_from_slice(&1u32.to_le_bytes());
    let v1_path = dir.join("ckpt-00000002.stsn");
    std::fs::write(&v1_path, &v1).unwrap();

    // Direct load accepts the weights-only file and refuses the v1 one.
    let mut loaded = StiSan::new(&p, cfg(1));
    loaded.load(&path).unwrap();
    assert_same_weights(&trained, &loaded);
    assert!(matches!(loaded.load(&v1_path), Err(stisan_nn::LoadError::Format(_))));

    // Resume skips (and quarantines) the v1 file, then restores the
    // weights-only one: parameters restored, but with no trainer state the
    // schedule starts over at epoch 0.
    let cc = CheckpointConfig { dir: dir.clone(), every: 0, keep: 2, resume: true };
    let mut resumed = StiSan::new(&p, cfg(0));
    let s = resumed.fit_with_checkpoints(&p, Some(&cc)).unwrap();
    assert_eq!(s.start_epoch, 0, "weights-only files carry no epoch count");
    assert_eq!(s.resumed_from.as_deref(), Some(path.as_path()), "must resume from the v2 file");
    assert!(!v1_path.exists(), "the v1 file must be quarantined");
    assert_same_weights(&trained, &resumed);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoints_respect_cadence_and_retention() {
    let p = processed();
    let dir = tmpdir("cadence");
    // Save every 2 epochs, keep 2: epochs 2, 4, and the final 5.
    let cc = CheckpointConfig { dir: dir.clone(), every: 2, keep: 2, resume: false };
    let mut m = StiSan::new(&p, cfg(5));
    m.fit_with_checkpoints(&p, Some(&cc)).unwrap();

    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(
        names,
        vec!["ckpt-00000004.stsn".to_string(), "ckpt-00000005.stsn".to_string()],
        "expected the newest two of epochs 2/4/5"
    );
    std::fs::remove_dir_all(&dir).ok();
}
