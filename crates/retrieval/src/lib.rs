//! # stisan-retrieval
//!
//! Two-stage retrieval for million-POI serving (DESIGN.md §15): a cheap
//! **candidate generation** stage narrows the catalogue to a few hundred
//! plausible POIs, then the exact frozen STiSAN scorer ranks only those.
//!
//! * [`CandidateIndex`] — stage one: a quadkey-cell inverted index over POI
//!   coordinates. Candidates come from concentric tile rings around the
//!   user's last check-in, fused with the request's own revisit set and a
//!   global popularity prior, deduplicated with per-source provenance
//!   counts ([`RetrievalStats`]).
//! * [`QuantizedTable`] — stage two's memory side: the frozen candidate-
//!   embedding table held at [`QuantLevel::F32`] or [`QuantLevel::I8`],
//!   with gather-dequantize row access and a documented max-abs-error
//!   bound.
//! * [`RetrievalState`] — the immutable pair of both, built once per model
//!   epoch and shared (`Arc`) across serving replicas; rebuilt by the hot-
//!   reload watcher when a new checkpoint publishes.
//!
//! Lookups and gathers allocate nothing at steady state: callers own the
//! output buffers ([`SeenSet`], candidate `Vec`, dequant scratch).

mod index;
mod table;

pub use index::{CandidateIndex, RetrievalStats, SeenSet};
pub use table::{QuantLevel, QuantizedTable};

use stisan_data::Processed;
use stisan_tensor::Array;

/// Immutable per-epoch retrieval state: the candidate index plus the
/// (possibly quantized) candidate-embedding table. Build once per published
/// model, share via `Arc`.
pub struct RetrievalState {
    /// Stage one: quadkey candidate generation.
    pub index: CandidateIndex,
    /// Stage two: the serving-precision embedding table.
    pub table: QuantizedTable,
}

/// Default quadkey level for the candidate index: ~tile≈1–2 km at LBSN
/// latitudes — a few city blocks, matching typical consecutive check-in
/// radii.
pub const DEFAULT_INDEX_LEVEL: u8 = 12;

impl RetrievalState {
    /// Builds the index at [`DEFAULT_INDEX_LEVEL`] and encodes `table`
    /// (the model's frozen `[num_pois + 1, d]` candidate table) at `quant`.
    pub fn build(data: &Processed, table: &Array, quant: QuantLevel) -> Self {
        let index = CandidateIndex::build(data, DEFAULT_INDEX_LEVEL);
        let table = QuantizedTable::build(table, quant);
        RetrievalState { index, table }
    }

    /// Resident bytes of the quantized table (the dominant retrieval cost).
    pub fn table_bytes(&self) -> usize {
        self.table.bytes()
    }
}
