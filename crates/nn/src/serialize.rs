//! Parameter-store serialization: save trained models to disk and load them
//! back, so experiments can checkpoint and downstream users can ship weights.
//!
//! Format (little-endian, versioned):
//!
//! ```text
//! v2 (weights + optional trainer state + integrity footer):
//!   magic "STSN" | u32 version=2 | u32 param count |
//!     per param: u32 name len | name bytes | u32 ndim | u64 dims... | f32 data...
//!   u8 trainer flag |
//!     if 1: u64 adam timestep | u32 slot count |
//!             per slot (aligned with param order):
//!               u8 present | if 1: u64 len | f32 m[len]... | f32 v[len]...
//!           u64 epochs done | u64 rng seed
//!   u32 crc32 (IEEE, over every preceding byte)
//! ```
//!
//! Loads validate the CRC and fully parse the payload **before** touching
//! the receiving store, so a corrupt or truncated file can never leave a
//! model half-loaded. Any other version — including the CRC-less v1
//! layout — is rejected as a format error.

use std::io::{self, Read};
use std::path::Path;

use stisan_tensor::Array;

use crate::checkpoint::write_atomic;
use crate::optim::AdamState;
use crate::param::ParamStore;

const MAGIC: &[u8; 4] = b"STSN";
/// Current checkpoint format version (see the module docs for the layout).
pub const VERSION: u32 = 2;

/// Everything beyond the weights needed to resume training bit-exactly:
/// optimizer moments, the epoch counter, and the seed that reconstructs the
/// per-epoch batcher/sampler RNG streams (see
/// `stisan_models::common::epoch_rng`).
#[derive(Clone, Debug, Default)]
pub struct TrainState {
    /// Adam first/second moments and timestep.
    pub adam: AdamState,
    /// Number of fully completed epochs (resume starts at this epoch).
    pub epochs_done: u64,
    /// The training seed; per-epoch RNG streams derive from `(seed, epoch)`,
    /// so together with `epochs_done` this pins shuffling, negative sampling
    /// and dropout exactly.
    pub rng_seed: u64,
}

/// Serialization/IO failures when loading a parameter store.
#[derive(Debug)]
pub enum LoadError {
    /// Underlying IO failure.
    Io(io::Error),
    /// Not an STSN file, or a corrupted/truncated one.
    Format(String),
    /// The checkpoint's parameters don't match the receiving store.
    Mismatch(String),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "io error: {e}"),
            LoadError::Format(m) => write!(f, "bad checkpoint format: {m}"),
            LoadError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<io::Error> for LoadError {
    fn from(e: io::Error) -> Self {
        LoadError::Io(e)
    }
}

/// CRC32 (IEEE 802.3, reflected) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC32 (IEEE) of `bytes` — the integrity footer.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Appends `xs` little-endian.
fn put_f32s(buf: &mut Vec<u8>, xs: &[f32]) {
    for x in xs {
        buf.extend_from_slice(&x.to_le_bytes());
    }
}

/// Little-endian reads over a checkpoint; every read checks the length
/// first, so a truncated file is a [`LoadError::Format`], never a panic.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], LoadError> {
        if self.0.len() < n {
            return Err(LoadError::Format(format!("truncated reading {what}")));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }
    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], LoadError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N, what)?);
        Ok(out)
    }
    fn u8(&mut self, what: &str) -> Result<u8, LoadError> {
        Ok(self.take(1, what)?[0])
    }
    fn u32(&mut self, what: &str) -> Result<u32, LoadError> {
        self.array(what).map(u32::from_le_bytes)
    }
    fn u64(&mut self, what: &str) -> Result<u64, LoadError> {
        self.array(what).map(u64::from_le_bytes)
    }
    fn f32s(&mut self, n: usize, what: &str) -> Result<Vec<f32>, LoadError> {
        let raw = self.take(n * 4, what)?;
        Ok(raw.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect())
    }
}

impl ParamStore {
    fn put_params(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(self.len() as u32).to_le_bytes());
        for id in self.ids() {
            let name = self.name(id).as_bytes();
            buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
            buf.extend_from_slice(name);
            let value = self.value(id);
            buf.extend_from_slice(&(value.ndim() as u32).to_le_bytes());
            for &d in value.shape() {
                buf.extend_from_slice(&(d as u64).to_le_bytes());
            }
            put_f32s(buf, value.data());
        }
    }

    /// Serializes every parameter (names, shapes, values) to a v2 byte
    /// buffer with no trainer state. See [`ParamStore::to_bytes_with`].
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_bytes_with(None)
    }

    /// Serializes the store, and optionally full trainer state, as format v2
    /// with a CRC32 footer.
    pub fn to_bytes_with(&self, trainer: Option<&TrainState>) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&VERSION.to_le_bytes());
        self.put_params(&mut buf);
        match trainer {
            None => buf.push(0),
            Some(ts) => {
                buf.push(1);
                buf.extend_from_slice(&ts.adam.t.to_le_bytes());
                buf.extend_from_slice(&(self.len() as u32).to_le_bytes());
                for i in 0..self.len() {
                    let m = ts.adam.m.get(i).and_then(|o| o.as_ref());
                    let v = ts.adam.v.get(i).and_then(|o| o.as_ref());
                    match (m, v) {
                        (Some(m), Some(v)) => {
                            buf.push(1);
                            buf.extend_from_slice(&(m.len() as u64).to_le_bytes());
                            put_f32s(&mut buf, m.data());
                            put_f32s(&mut buf, v.data());
                        }
                        _ => buf.push(0),
                    }
                }
                buf.extend_from_slice(&ts.epochs_done.to_le_bytes());
                buf.extend_from_slice(&ts.rng_seed.to_le_bytes());
            }
        }
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Restores parameter *values* (and, for checkpoints that carry it,
    /// trainer state) from [`ParamStore::to_bytes_with`] output into this
    /// store. The store must already contain the same parameters (same
    /// names, same shapes, same order) — i.e. build the model first, then
    /// load its weights.
    ///
    /// The payload is validated and fully parsed before the store is
    /// mutated: on any error the store is untouched. Returns the embedded
    /// [`TrainState`] when present (`None` for weights-only files).
    pub fn load_bytes(&mut self, buf: &[u8]) -> Result<Option<TrainState>, LoadError> {
        let mut head = Reader(buf);
        if head.array::<4>("header")? != *MAGIC {
            return Err(LoadError::Format("missing STSN magic".into()));
        }
        let version = head.u32("header")?;
        if version != VERSION {
            return Err(LoadError::Format(format!("unsupported version {version}")));
        }
        // Integrity first: the CRC covers everything before the footer, so
        // any torn write, truncation or bit flip is caught before we
        // interpret a single field.
        if buf.len() < 12 {
            return Err(LoadError::Format("truncated before crc footer".into()));
        }
        let (body, footer) = buf.split_at(buf.len() - 4);
        let stored = u32::from_le_bytes([footer[0], footer[1], footer[2], footer[3]]);
        let computed = crc32(body);
        if stored != computed {
            return Err(LoadError::Format(format!(
                "crc mismatch: stored {stored:#010x}, computed {computed:#010x}"
            )));
        }
        let mut cur = Reader(&body[8..]); // past magic+version, excluding the footer

        // Parse phase: build everything in scratch space, validating against
        // the store, without mutating it.
        let count = cur.u32("param count")? as usize;
        if count != self.len() {
            return Err(LoadError::Mismatch(format!(
                "checkpoint has {count} params, store has {}",
                self.len()
            )));
        }
        let mut values = Vec::with_capacity(count);
        for id in self.ids() {
            let name_len = cur.u32("name length")? as usize;
            let name = String::from_utf8(cur.take(name_len, "name")?.to_vec())
                .map_err(|_| LoadError::Format("non-utf8 parameter name".into()))?;
            if name != self.name(id) {
                return Err(LoadError::Mismatch(format!(
                    "parameter name mismatch: checkpoint '{name}' vs store '{}'",
                    self.name(id)
                )));
            }
            let ndim = cur.u32("ndim")? as usize;
            let shape = (0..ndim)
                .map(|_| cur.u64("shape").map(|d| d as usize))
                .collect::<Result<Vec<usize>, _>>()?;
            if shape != self.value(id).shape() {
                return Err(LoadError::Mismatch(format!(
                    "shape mismatch for '{name}': checkpoint {shape:?} vs store {:?}",
                    self.value(id).shape()
                )));
            }
            let data = cur.f32s(shape.iter().product(), "data")?;
            values.push(Array::from_vec(shape, data));
        }

        let trainer = match cur.u8("trainer flag")? {
            0 => None,
            1 => Some(self.parse_trainer(&mut cur)?),
            other => return Err(LoadError::Format(format!("bad trainer flag {other}"))),
        };

        if !cur.0.is_empty() {
            return Err(LoadError::Format(format!("{} trailing bytes", cur.0.len())));
        }

        // Commit phase: nothing below can fail.
        for (id, value) in self.ids().zip(values) {
            *self.value_mut(id) = value;
        }
        Ok(trainer)
    }

    fn parse_trainer(&self, cur: &mut Reader<'_>) -> Result<TrainState, LoadError> {
        let t = cur.u64("adam header")?;
        let slots = cur.u32("adam header")? as usize;
        if slots != self.len() {
            return Err(LoadError::Mismatch(format!(
                "trainer state has {slots} slots, store has {} params",
                self.len()
            )));
        }
        let mut m = Vec::with_capacity(slots);
        let mut v = Vec::with_capacity(slots);
        for id in self.ids() {
            if cur.u8("adam slot flag")? == 0 {
                m.push(None);
                v.push(None);
                continue;
            }
            let len = cur.u64("adam slot length")? as usize;
            let expect = self.value(id).len();
            if len != expect {
                return Err(LoadError::Mismatch(format!(
                    "adam moment length {len} for '{}' (param has {expect} scalars)",
                    self.name(id)
                )));
            }
            let shape = self.value(id).shape().to_vec();
            m.push(Some(Array::from_vec(shape.clone(), cur.f32s(len, "adam moments")?)));
            v.push(Some(Array::from_vec(shape, cur.f32s(len, "adam moments")?)));
        }
        let epochs_done = cur.u64("epoch counter and rng seed")?;
        let rng_seed = cur.u64("epoch counter and rng seed")?;
        Ok(TrainState { adam: AdamState { t, m, v }, epochs_done, rng_seed })
    }

    /// Writes the checkpoint to a file **atomically**: the bytes land in a
    /// sibling `.tmp` file which is fsynced and renamed over `path`, so a
    /// crash mid-save can never leave a torn file at the final name.
    pub fn save_file(&self, path: impl AsRef<Path>) -> io::Result<()> {
        write_atomic(path.as_ref(), &self.to_bytes())
    }

    /// Loads a checkpoint written by [`ParamStore::save_file`] or
    /// `CheckpointManager::save`. Returns the trainer state when the file
    /// carries one.
    pub fn load_file(&mut self, path: impl AsRef<Path>) -> Result<Option<TrainState>, LoadError> {
        let mut f = std::fs::File::open(path)?;
        let mut buf = Vec::new();
        f.read_to_end(&mut buf)?;
        self.load_bytes(&buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_store(seed: u64) -> ParamStore {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        store.register("a.w", Array::randn(vec![3, 4], 1.0, &mut rng));
        store.register("b.bias", Array::randn(vec![7], 1.0, &mut rng));
        store.register("scalar", Array::scalar(1.5));
        store
    }

    fn sample_trainer(store: &ParamStore) -> TrainState {
        let mut m = Vec::new();
        let mut v = Vec::new();
        for (i, id) in store.ids().enumerate() {
            if i == 1 {
                // A never-updated slot: lazily initialized optimizers have these.
                m.push(None);
                v.push(None);
            } else {
                let shape = store.value(id).shape().to_vec();
                m.push(Some(Array::ones(shape.clone())));
                v.push(Some(Array::ones(shape)));
            }
        }
        TrainState { adam: AdamState { t: 17, m, v }, epochs_done: 5, rng_seed: 42 }
    }

    #[test]
    fn roundtrip_preserves_values() {
        let src = sample_store(1);
        let bytes = src.to_bytes();
        let mut dst = sample_store(2); // same structure, different values
        let trainer = dst.load_bytes(&bytes).unwrap();
        assert!(trainer.is_none(), "weights-only checkpoint returned trainer state");
        for id in src.ids() {
            assert_eq!(src.value(id).data(), dst.value(id).data());
        }
    }

    #[test]
    fn roundtrip_preserves_trainer_state() {
        let src = sample_store(1);
        let ts = sample_trainer(&src);
        let bytes = src.to_bytes_with(Some(&ts));
        let mut dst = sample_store(2);
        let got = dst.load_bytes(&bytes).unwrap().expect("trainer state lost");
        assert_eq!(got.adam.t, 17);
        assert_eq!(got.epochs_done, 5);
        assert_eq!(got.rng_seed, 42);
        assert!(got.adam.m[1].is_none() && got.adam.v[1].is_none());
        for i in [0usize, 2] {
            assert_eq!(got.adam.m[i].as_ref().unwrap().data(), ts.adam.m[i].as_ref().unwrap().data());
            assert_eq!(got.adam.v[i].as_ref().unwrap().data(), ts.adam.v[i].as_ref().unwrap().data());
        }
        for id in src.ids() {
            assert_eq!(src.value(id).data(), dst.value(id).data());
        }
    }

    /// The retired v1 layout (weights only, no trainer flag, no CRC footer)
    /// is refused outright: every accepted file is CRC-checked.
    #[test]
    fn crc_less_v1_layout_is_rejected() {
        let src = sample_store(1);
        let v2 = src.to_bytes();
        let mut v1 = v2[..v2.len() - 5].to_vec(); // drop the trainer flag and crc
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        let mut dst = sample_store(2);
        let before: Vec<Vec<f32>> = dst.ids().map(|id| dst.value(id).data().to_vec()).collect();
        match dst.load_bytes(&v1) {
            Err(LoadError::Format(msg)) => assert_eq!(msg, "unsupported version 1"),
            other => panic!("v1 layout must be a format error, got {other:?}"),
        }
        let after: Vec<Vec<f32>> = dst.ids().map(|id| dst.value(id).data().to_vec()).collect();
        assert_eq!(before, after, "store mutated by a rejected v1 load");
    }

    #[test]
    fn crc_rejects_any_single_flipped_bit() {
        let src = sample_store(1);
        let bytes = src.to_bytes_with(Some(&sample_trainer(&src))).to_vec();
        // Flip one bit in a spread of positions across the file (including
        // the footer itself) — every corruption must be rejected, and the
        // destination store must stay exactly as it was.
        let mut dst = sample_store(2);
        let before: Vec<Vec<f32>> = dst.ids().map(|id| dst.value(id).data().to_vec()).collect();
        for pos in (0..bytes.len()).step_by(7) {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 1 << (pos % 8);
            let err = dst.load_bytes(&corrupt);
            assert!(err.is_err(), "accepted a bit flip at byte {pos}");
            let after: Vec<Vec<f32>> = dst.ids().map(|id| dst.value(id).data().to_vec()).collect();
            assert_eq!(before, after, "store mutated by rejected load (flip at {pos})");
        }
    }

    #[test]
    fn rejects_garbage() {
        let mut store = sample_store(1);
        assert!(matches!(store.load_bytes(b"nonsense"), Err(LoadError::Format(_))));
        assert!(matches!(store.load_bytes(b""), Err(LoadError::Format(_))));
    }

    #[test]
    fn rejects_mismatched_structure() {
        let src = sample_store(1);
        let bytes = src.to_bytes();
        let mut rng = StdRng::seed_from_u64(3);
        // Wrong shape.
        let mut other = ParamStore::new();
        other.register("a.w", Array::randn(vec![4, 3], 1.0, &mut rng));
        other.register("b.bias", Array::randn(vec![7], 1.0, &mut rng));
        other.register("scalar", Array::scalar(0.0));
        assert!(matches!(other.load_bytes(&bytes), Err(LoadError::Mismatch(_))));
        // Wrong name.
        let mut other2 = ParamStore::new();
        other2.register("zzz", Array::randn(vec![3, 4], 1.0, &mut rng));
        other2.register("b.bias", Array::randn(vec![7], 1.0, &mut rng));
        other2.register("scalar", Array::scalar(0.0));
        assert!(matches!(other2.load_bytes(&bytes), Err(LoadError::Mismatch(_))));
        // Wrong count.
        let mut other3 = ParamStore::new();
        other3.register("a.w", Array::randn(vec![3, 4], 1.0, &mut rng));
        assert!(matches!(other3.load_bytes(&bytes), Err(LoadError::Mismatch(_))));
    }

    #[test]
    fn rejects_truncation() {
        let src = sample_store(1);
        let bytes = src.to_bytes();
        let mut dst = sample_store(2);
        for cut in [5usize, 12, bytes.len() - 3] {
            assert!(
                dst.load_bytes(&bytes[..cut]).is_err(),
                "accepted a checkpoint truncated at {cut}"
            );
        }
    }

    #[test]
    fn failed_load_leaves_store_untouched() {
        let src = sample_store(1);
        let bytes = src.to_bytes();
        let mut dst = sample_store(2);
        let before: Vec<Vec<f32>> = dst.ids().map(|id| dst.value(id).data().to_vec()).collect();
        assert!(dst.load_bytes(&bytes[..bytes.len() - 6]).is_err());
        // A CRC-valid file whose *last* parameter has the wrong shape fails
        // only after the earlier ones parsed; the parse-then-commit load
        // must still leave the store untouched.
        let mut rng = StdRng::seed_from_u64(4);
        let mut reshaped = ParamStore::new();
        reshaped.register("a.w", Array::randn(vec![3, 4], 1.0, &mut rng));
        reshaped.register("b.bias", Array::randn(vec![7], 1.0, &mut rng));
        reshaped.register("scalar", Array::from_vec(vec![1], vec![2.5]));
        assert!(matches!(dst.load_bytes(&reshaped.to_bytes()), Err(LoadError::Mismatch(_))));
        let after: Vec<Vec<f32>> = dst.ids().map(|id| dst.value(id).data().to_vec()).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("stisan_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.stsn");
        let src = sample_store(1);
        src.save_file(&path).unwrap();
        let mut dst = sample_store(9);
        dst.load_file(&path).unwrap();
        for id in src.ids() {
            assert_eq!(src.value(id).data(), dst.value(id).data());
        }
        std::fs::remove_file(&path).ok();
    }

    /// A two-parameter store with Adam state (one slot present, one never
    /// updated), encoded byte for byte: the checkpoint format is pinned, not
    /// just self-consistent.
    #[test]
    fn encoding_matches_golden_bytes() {
        let mut store = ParamStore::new();
        store.register("w", Array::from_vec(vec![2], vec![1.0, -2.5]));
        store.register("b", Array::scalar(0.5));
        let m = vec![Some(Array::from_vec(vec![2], vec![0.25, -0.125])), None];
        let v = vec![Some(Array::from_vec(vec![2], vec![4.0, 0.0])), None];
        let ts = TrainState { adam: AdamState { t: 3, m, v }, epochs_done: 2, rng_seed: 7 };
        let hex: String = store.to_bytes_with(Some(&ts)).iter().map(|b| format!("{b:02x}")).collect();
        let golden = concat!(
            "5354534e", "02000000", "02000000", // "STSN", version 2, 2 params
            "01000000", "77", "01000000", "0200000000000000", "0000803f", "000020c0", // w: [1, -2.5]
            "01000000", "62", "00000000", "0000003f", // b: scalar 0.5
            "01", "0300000000000000", "02000000", // trainer: t = 3, 2 slots
            "01", "0200000000000000", "0000803e", "000000be", "00008040", "00000000", // m, v of w
            "00", // b never updated
            "0200000000000000", "0700000000000000", // epochs done 2, rng seed 7
            "6fdc4909", // crc32
        );
        assert_eq!(hex, golden);
    }

    #[test]
    fn crc32_known_vector() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }
}
