//! Crash-safe checkpoint management.
//!
//! A [`CheckpointManager`] owns a directory of `ckpt-<epoch>.stsn` files and
//! provides the durability protocol the training loops rely on:
//!
//! * **Atomic saves** — bytes go to a sibling `.tmp` file, which is fsynced
//!   and renamed over the final name, then the directory is fsynced. A crash
//!   at any point leaves either the previous checkpoint or the new one at
//!   the final name, never a torn file. Leftover `.tmp` files from an
//!   earlier crash are swept on the next save and ignored by discovery.
//! * **Retention** — only the newest `keep` checkpoints survive a save; the
//!   oldest are deleted.
//! * **Recovery** — [`CheckpointManager::load_latest_valid`] scans newest →
//!   oldest. A corrupt or truncated file (CRC/format failure) is quarantined
//!   (renamed to `*.corrupt`) with a warning and the scan falls back to its
//!   predecessor; only structural mismatches and IO failures abort.
//!
//! Metrics (via `stisan-obs`): `checkpoint.save_ms` histogram,
//! `checkpoint.saves` / `checkpoint.corrupt_skipped` counters. Training
//! loops additionally count `checkpoint.resumes`.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use crate::param::ParamStore;
use crate::serialize::{LoadError, TrainState};

/// Extension of live checkpoint files.
const CKPT_EXT: &str = "stsn";
/// Suffix appended to quarantined (corrupt) checkpoint files.
const QUARANTINE_SUFFIX: &str = "corrupt";
/// Suffix of in-flight atomic-write staging files.
const TMP_SUFFIX: &str = "tmp";

/// Serialises [`CheckpointManager::save`] across the process. The staging
/// sweep deletes every `*.tmp` in the directory, so it must never run inside
/// another save's window between creating its staging file and renaming it
/// (that save would fail with `NotFound`). Saves are rare and short; one lock
/// for all managers also covers two managers opened on the same directory.
static SAVE_LOCK: Mutex<()> = Mutex::new(());

/// Failures while saving, discovering, or restoring checkpoints.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure (directory creation, rename, read, ...).
    Io(io::Error),
    /// The newest *valid-looking* checkpoint doesn't match the model
    /// (corrupt files are quarantined and skipped, not reported here).
    Load(LoadError),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Load(e) => write!(f, "checkpoint load error: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<LoadError> for CheckpointError {
    fn from(e: LoadError) -> Self {
        CheckpointError::Load(e)
    }
}

/// Writes `bytes` to `path` atomically: stage into `<path>.tmp`, flush +
/// fsync, rename over `path`, fsync the parent directory. After a crash the
/// final name holds either the old content or the new content in full.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = staging_path(path);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            // Durability of the rename itself; non-fatal where directories
            // cannot be fsynced (some filesystems/platforms).
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
    }
    Ok(())
}

fn staging_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".");
    name.push(TMP_SUFFIX);
    PathBuf::from(name)
}

/// The outcome of a successful [`CheckpointManager::load_latest_valid`].
#[derive(Debug)]
pub struct Resumed {
    /// Epoch count encoded in the checkpoint's file name.
    pub epoch: u64,
    /// The file the weights came from.
    pub path: PathBuf,
    /// Trainer state, when the checkpoint carries it (training checkpoints
    /// do; weights-only files yield `None`).
    pub trainer: Option<TrainState>,
}

/// Manages a directory of numbered checkpoints with atomic writes, bounded
/// retention, and corrupt-skipping recovery (see the module docs).
pub struct CheckpointManager {
    dir: PathBuf,
    keep: usize,
}

impl CheckpointManager {
    /// Opens (creating if needed) the checkpoint directory. `keep` bounds
    /// how many checkpoints retention preserves (clamped to at least 1).
    pub fn new(dir: impl Into<PathBuf>, keep: usize) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CheckpointManager { dir, keep: keep.max(1) })
    }

    /// The managed directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file path a checkpoint for `epoch` saves to.
    pub fn path_for(&self, epoch: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{epoch:08}.{CKPT_EXT}"))
    }

    /// The epoch a checkpoint file encodes in its name, or `None` for
    /// non-checkpoint files (staging, quarantine, strangers).
    pub fn epoch_of(path: &Path) -> Option<u64> {
        if path.extension().and_then(|e| e.to_str()) != Some(CKPT_EXT) {
            return None;
        }
        let stem = path.file_stem()?.to_str()?;
        stem.strip_prefix("ckpt-")?.parse().ok()
    }

    /// All live checkpoints, sorted oldest → newest by epoch. Staging
    /// (`*.tmp`) and quarantined (`*.corrupt`) files are ignored.
    pub fn list(&self) -> io::Result<Vec<(u64, PathBuf)>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if let Some(epoch) = Self::epoch_of(&path) {
                out.push((epoch, path));
            }
        }
        out.sort();
        Ok(out)
    }

    /// The newest checkpoint on disk, if any (by epoch number).
    pub fn latest(&self) -> io::Result<Option<(u64, PathBuf)>> {
        Ok(self.list()?.pop())
    }

    /// Checkpoints strictly newer than `epoch`, sorted oldest → newest.
    /// Reload watchers poll this to find unseen publications without
    /// re-reading files they already validated or quarantined.
    pub fn newer_than(&self, epoch: u64) -> io::Result<Vec<(u64, PathBuf)>> {
        let mut list = self.list()?;
        list.retain(|&(e, _)| e > epoch);
        Ok(list)
    }

    /// Atomically saves `store` (plus optional trainer state) as the
    /// checkpoint for `epoch`, sweeps leftover staging files, and enforces
    /// retention. Returns the final path. Concurrent saves (any thread, any
    /// manager in this process) run one at a time.
    pub fn save(
        &self,
        store: &ParamStore,
        trainer: Option<&TrainState>,
        epoch: u64,
    ) -> io::Result<PathBuf> {
        let t0 = Instant::now();
        // The lock guards no data, so a poisoned one is still a valid lock.
        let _saving = SAVE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        self.sweep_staging()?;
        let path = self.path_for(epoch);
        write_atomic(&path, &store.to_bytes_with(trainer))?;
        self.enforce_retention()?;
        stisan_obs::observe("checkpoint.save_ms", t0.elapsed().as_secs_f64() * 1e3);
        stisan_obs::counter("checkpoint.saves", 1);
        Ok(path)
    }

    /// Deletes `*.tmp` leftovers from interrupted saves.
    fn sweep_staging(&self) -> io::Result<()> {
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) == Some(TMP_SUFFIX) {
                let _ = fs::remove_file(&path);
            }
        }
        Ok(())
    }

    /// Deletes the oldest checkpoints beyond the retention bound.
    fn enforce_retention(&self) -> io::Result<()> {
        let list = self.list()?;
        if list.len() > self.keep {
            for (_, path) in &list[..list.len() - self.keep] {
                let _ = fs::remove_file(path);
            }
        }
        Ok(())
    }

    /// Restores the newest checkpoint that passes integrity and structural
    /// validation into `store`, scanning newest → oldest.
    ///
    /// * Corrupt/truncated files ([`LoadError::Format`]) are quarantined —
    ///   renamed to `*.corrupt` so they never shadow a good checkpoint
    ///   again — counted in `checkpoint.corrupt_skipped`, and skipped.
    /// * [`LoadError::Mismatch`] (checkpoint for a different model) and IO
    ///   failures abort with an error; they are not recoverable by falling
    ///   back.
    /// * Returns `Ok(None)` when no valid checkpoint exists.
    pub fn load_latest_valid(
        &self,
        store: &mut ParamStore,
    ) -> Result<Option<Resumed>, CheckpointError> {
        for (epoch, path) in self.list()?.into_iter().rev() {
            match store.load_file(&path) {
                Ok(trainer) => return Ok(Some(Resumed { epoch, path, trainer })),
                Err(LoadError::Format(msg)) => {
                    stisan_obs::counter("checkpoint.corrupt_skipped", 1);
                    stisan_obs::warn!(
                        "quarantining corrupt checkpoint {} ({msg}); falling back",
                        path.display()
                    );
                    self.quarantine(&path);
                }
                Err(LoadError::Io(e)) if e.kind() == io::ErrorKind::NotFound => {
                    // Raced with retention or another process; keep scanning.
                }
                Err(e) => return Err(e.into()),
            }
        }
        Ok(None)
    }

    /// Renames `path` to `*.corrupt` so it never shadows a good checkpoint
    /// again (deleting it as a last resort if the rename fails). Public so
    /// external validators — e.g. the serve-side reload watcher, which
    /// rejects checkpoints on canary-score grounds the CRC can't see — can
    /// apply the same quarantine discipline.
    pub fn quarantine(&self, path: &Path) {
        let mut name = path.as_os_str().to_os_string();
        name.push(".");
        name.push(QUARANTINE_SUFFIX);
        if fs::rename(path, PathBuf::from(name)).is_err() {
            // Last resort: make sure the corrupt file can't shadow a good
            // one on the next scan.
            let _ = fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use stisan_tensor::Array;

    fn sample_store(seed: u64) -> ParamStore {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        store.register("w", Array::randn(vec![4, 3], 1.0, &mut rng));
        store.register("b", Array::randn(vec![3], 1.0, &mut rng));
        store
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("stisan_mgr_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_list_latest_roundtrip() {
        let dir = tmpdir("roundtrip");
        let mgr = CheckpointManager::new(&dir, 5).unwrap();
        let src = sample_store(1);
        for e in [1u64, 3, 2] {
            mgr.save(&src, None, e).unwrap();
        }
        let list = mgr.list().unwrap();
        assert_eq!(list.iter().map(|(e, _)| *e).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(mgr.latest().unwrap().unwrap().0, 3);

        let mut dst = sample_store(9);
        let res = mgr.load_latest_valid(&mut dst).unwrap().unwrap();
        assert_eq!(res.epoch, 3);
        for id in src.ids() {
            assert_eq!(src.value(id).data(), dst.value(id).data());
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retention_deletes_oldest_beyond_keep() {
        let dir = tmpdir("retention");
        let mgr = CheckpointManager::new(&dir, 2).unwrap();
        let src = sample_store(1);
        for e in 1..=5u64 {
            mgr.save(&src, None, e).unwrap();
        }
        let epochs: Vec<u64> = mgr.list().unwrap().into_iter().map(|(e, _)| e).collect();
        assert_eq!(epochs, vec![4, 5], "retention must keep only the newest K");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn leftover_tmp_files_are_ignored_and_swept() {
        let dir = tmpdir("tmpsweep");
        let mgr = CheckpointManager::new(&dir, 3).unwrap();
        let src = sample_store(1);
        mgr.save(&src, None, 1).unwrap();
        // Simulate a crash mid-save: a stale staging file next to the data.
        let stale = dir.join("ckpt-00000009.stsn.tmp");
        fs::write(&stale, b"partial garbage").unwrap();
        // Discovery ignores it...
        assert_eq!(mgr.latest().unwrap().unwrap().0, 1);
        let mut dst = sample_store(3);
        assert!(mgr.load_latest_valid(&mut dst).unwrap().is_some());
        // ...and the next save sweeps it.
        mgr.save(&src, None, 2).unwrap();
        assert!(!stale.exists(), "stale .tmp survived the next save");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_saves_of_different_epochs_all_succeed() {
        // The chaos suite's shape: two threads publishing through one
        // manager. Unserialised, one thread's staging sweep deletes the
        // other's in-flight `.tmp` and that save fails with `NotFound`.
        let dir = tmpdir("concurrent");
        let mgr = CheckpointManager::new(&dir, 4).unwrap();
        let src = sample_store(1);
        let start = std::sync::Barrier::new(2);
        let failures: Vec<String> = std::thread::scope(|s| {
            let savers: Vec<_> = (0..2u64)
                .map(|t| {
                    let (mgr, src, start) = (&mgr, &src, &start);
                    s.spawn(move || {
                        start.wait();
                        (0..100u64)
                            .filter_map(|i| mgr.save(src, None, 2 * i + t).err())
                            .map(|e| e.to_string())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            savers.into_iter().flat_map(|h| h.join().expect("saver thread")).collect()
        });
        assert!(
            failures.is_empty(),
            "{} of 200 saves failed: {:?}",
            failures.len(),
            failures.first()
        );
        let epochs: Vec<u64> = mgr.list().unwrap().into_iter().map(|(e, _)| e).collect();
        assert_eq!(epochs, vec![196, 197, 198, 199], "retention keeps the newest 4");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_latest_falls_back_and_quarantines() {
        let dir = tmpdir("fallback");
        let mgr = CheckpointManager::new(&dir, 5).unwrap();
        let src = sample_store(1);
        mgr.save(&src, None, 1).unwrap();
        let p2 = mgr.save(&src, None, 2).unwrap();
        // Truncate the newest file.
        let bytes = fs::read(&p2).unwrap();
        fs::write(&p2, &bytes[..bytes.len() / 2]).unwrap();

        let mut dst = sample_store(7);
        let res = mgr.load_latest_valid(&mut dst).unwrap().unwrap();
        assert_eq!(res.epoch, 1, "must fall back to the predecessor");
        assert!(!p2.exists(), "corrupt file left in place");
        let quarantined = dir.join("ckpt-00000002.stsn.corrupt");
        assert!(quarantined.exists(), "corrupt file not quarantined");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn newer_than_filters_and_sorts() {
        let dir = tmpdir("newer");
        let mgr = CheckpointManager::new(&dir, 10).unwrap();
        let src = sample_store(1);
        for e in [5u64, 2, 9, 7] {
            mgr.save(&src, None, e).unwrap();
        }
        let newer: Vec<u64> = mgr.newer_than(5).unwrap().into_iter().map(|(e, _)| e).collect();
        assert_eq!(newer, vec![7, 9]);
        assert!(mgr.newer_than(9).unwrap().is_empty());
        assert_eq!(mgr.newer_than(0).unwrap().len(), 4);
        assert_eq!(CheckpointManager::epoch_of(&mgr.path_for(7)), Some(7));
        assert_eq!(CheckpointManager::epoch_of(Path::new("ckpt-00000001.stsn.tmp")), None);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_dir_resumes_nothing() {
        let dir = tmpdir("empty");
        let mgr = CheckpointManager::new(&dir, 3).unwrap();
        let mut dst = sample_store(1);
        assert!(mgr.load_latest_valid(&mut dst).unwrap().is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_checkpoint_is_an_error_not_a_skip() {
        let dir = tmpdir("mismatch");
        let mgr = CheckpointManager::new(&dir, 3).unwrap();
        let src = sample_store(1);
        mgr.save(&src, None, 1).unwrap();
        let mut other = ParamStore::new();
        other.register("different", Array::ones(vec![2]));
        match mgr.load_latest_valid(&mut other) {
            Err(CheckpointError::Load(LoadError::Mismatch(_))) => {}
            other => panic!("expected a structural mismatch error, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }
}
