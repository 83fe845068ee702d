//! A size-classed scratch-buffer arena: where every executor op takes its
//! output buffer.
//!
//! Every op on the fresh-alloc path allocates an output `Vec<f32>` plus the
//! `Arc` header that wraps it; at serve time that is hundreds of heap
//! round-trips per request (the seed's `BENCH_serve.json` measured ~374
//! allocations and ~1.4 MB per scored request). The arena recycles both: it
//! pools whole `Arc<Vec<f32>>` storages in power-of-two size classes, so a
//! warmed-up [`NoGrad`](crate::NoGrad) pass performs **zero** steady-state
//! heap allocations (enforced by `crates/serve/tests/zero_alloc.rs`).
//!
//! # Lifecycle
//!
//! ```text
//! Arena::new() ──▶ NoGrad::with_arena(arena) ──▶ forward pass
//!      ▲              (ops call take(), wrap buffers in Arrays)
//!      │                               │
//!      └──── NoGrad::into_arena() ◀────┘   (drains values, recycles storage)
//! ```
//!
//! The serving engine keeps one arena per worker scratch slot and threads it
//! through consecutive requests. Between requests nothing needs clearing:
//! every `_into` kernel has *set* semantics (each output element is written
//! before it is read), so stale contents of a recycled buffer are
//! unobservable — asserted by the sentinel-poison test in
//! `crates/tensor/tests/arena.rs` and guaranteed bit-identical to the
//! fresh-alloc path because both run the exact same kernels.
//!
//! # Safety / aliasing
//!
//! A pooled buffer is handed out only while its `Arc` is unique, and a
//! returned buffer is accepted only if its `Arc` is unique again. Two live
//! views can therefore never share a pooled storage: handing out pops the
//! `Arc` from the pool (moving ownership out), and a recycle of a
//! still-shared `Arc` is refused and dropped instead. `reshape` views that
//! clone the `Arc` are safe for the same reason — whichever copy is recycled
//! first while the other is live fails the uniqueness test and falls back to
//! the allocator.

use std::sync::Arc;

use crate::graph::Var;
use crate::lanes::Lanes;

/// Maximum pooled buffers per size class. Bounds worst-case retention
/// (classes are power-of-two, so a class holds at most `128 · 2^c` floats)
/// and stops per-request constant churn — e.g. mask arrays recycled by
/// `mul_const` every request — from growing a class without bound.
const MAX_PER_CLASS: usize = 128;

/// Counters describing arena behaviour since construction (or the last
/// [`Arena::clear`]). Exposed so the serving engine can export gauges and the
/// tests can assert reuse actually happens.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// `take()` calls served from the pool.
    pub hits: u64,
    /// `take()` calls that fell back to a fresh allocation.
    pub misses: u64,
    /// Buffers accepted back into the pool.
    pub recycled: u64,
    /// Buffers refused because their `Arc` was still shared (a live view
    /// exists), their capacity was not an exact power of two (foreign
    /// storage), or the size class was full.
    pub dropped: u64,
}

/// A size-classed pool of `Arc<Vec<f32>>` scratch storages.
///
/// Class `c` holds buffers whose `Vec` capacity is exactly `1 << c`;
/// [`Arena::take`] rounds requests up to the next power of two, so a buffer
/// recycled from one op can serve any later op of the same class even when
/// the element counts differ. Capacities are normalized on allocation and
/// checked on recycle, which keeps `Vec::resize` inside `take` from ever
/// reallocating.
pub struct Arena {
    pools: Vec<Vec<Arc<Vec<f32>>>>,
    stats: ArenaStats,
    /// Spare value vector for [`Exec`](crate::Exec): cleared but with
    /// capacity retained, so rebuilding the executor each request does not
    /// reallocate its value table.
    spare_vals: Vec<crate::array::Array>,
    /// Spare parameter-bind table for `Session` (same capacity-retention
    /// trick, owned here so the pool survives the session).
    spare_bound: Vec<Option<Var>>,
    /// Type-erased per-model request-prep scratch (sequence batch, interval
    /// matrices, id buffers). The arena does not know the concrete type —
    /// models park whatever prep state they need between requests via
    /// [`Arena::take_slot`] / [`Arena::put_slot`], which keeps the pooling
    /// contract (“everything a warmed request needs rides in the arena”)
    /// without a tensor → model dependency.
    slot: Option<Box<dyn std::any::Any + Send>>,
    /// Helper lanes the executor may split the fused decoder across (see
    /// [`Arena::with_lanes`]). Not pooled state: [`Arena::clear`] keeps it.
    lanes: Option<Arc<Lanes>>,
}

impl Default for Arena {
    fn default() -> Self {
        Arena::new()
    }
}

/// Size class of an `n`-element request: the exponent of the next power of
/// two (class 0 holds capacity-1 buffers; `n = 0` also maps to class 0).
#[inline]
fn class_of(n: usize) -> usize {
    n.max(1).next_power_of_two().trailing_zeros() as usize
}

impl Arena {
    /// An empty arena: every `take` misses until buffers come back.
    pub fn new() -> Self {
        Arena {
            pools: Vec::new(),
            stats: ArenaStats::default(),
            spare_vals: Vec::new(),
            spare_bound: Vec::new(),
            slot: None,
            lanes: None,
        }
    }

    /// An empty arena whose executor splits the fused decoder across
    /// `lanes` ([`crate::lanes`]); the serving engine builds each replica's
    /// arena this way.
    pub fn with_lanes(lanes: Arc<Lanes>) -> Self {
        Arena { lanes: Some(lanes), ..Arena::new() }
    }

    /// The helper lanes this arena carries, if any.
    pub fn lanes(&self) -> Option<&Arc<Lanes>> {
        self.lanes.as_ref()
    }

    /// Hands out a unique storage of length `n` (contents unspecified —
    /// callers must treat it as uninitialized and fully overwrite it, which
    /// is exactly what the set-semantics `_into` kernels do).
    ///
    /// Pool hit: pops a pooled `Arc` and resizes its `Vec` within capacity
    /// (no reallocation). Miss: allocates a fresh buffer with the class's
    /// normalized power-of-two capacity so it is eligible for recycling.
    pub fn take(&mut self, n: usize) -> Arc<Vec<f32>> {
        let c = class_of(n);
        let pooled = self.pools.get_mut(c).and_then(Vec::pop);
        let mut arc = match pooled {
            Some(a) => {
                self.stats.hits += 1;
                a
            }
            None => {
                self.stats.misses += 1;
                let mut v = Vec::with_capacity(1usize << c);
                v.resize(n, 0.0);
                return Arc::new(v);
            }
        };
        if let Some(v) = Arc::get_mut(&mut arc) {
            v.resize(n, 0.0);
            arc
        } else {
            // Unreachable by the pool invariant (only unique Arcs are
            // pooled), but degrade to a fresh allocation rather than panic.
            self.stats.misses += 1;
            let mut v = Vec::with_capacity(1usize << c);
            v.resize(n, 0.0);
            Arc::new(v)
        }
    }

    /// Offers a storage back to the pool.
    ///
    /// Accepted only when the `Arc` is unique (no live views — this is what
    /// makes handed-out views alias-free) and the `Vec` capacity is an exact
    /// power of two (so the class invariant holds); otherwise the buffer is
    /// dropped to the allocator and counted in [`ArenaStats::dropped`].
    pub fn recycle(&mut self, mut arc: Arc<Vec<f32>>) {
        if Arc::get_mut(&mut arc).is_none() {
            self.stats.dropped += 1;
            return;
        }
        let cap = arc.capacity();
        if cap == 0 || !cap.is_power_of_two() {
            self.stats.dropped += 1;
            return;
        }
        let c = cap.trailing_zeros() as usize;
        if self.pools.len() <= c {
            self.pools.resize_with(c + 1, Vec::new);
        }
        let pool = &mut self.pools[c];
        if pool.len() >= MAX_PER_CLASS {
            self.stats.dropped += 1;
            return;
        }
        pool.push(arc);
        self.stats.recycled += 1;
    }

    /// Recycles an [`Array`](crate::Array)'s backing storage (the common
    /// call: drain a finished backend's values back into the pool).
    pub fn recycle_array(&mut self, a: crate::array::Array) {
        self.recycle(a.into_data());
    }

    /// Counters since construction or the last [`Arena::clear`].
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }

    /// Number of buffers currently pooled.
    pub fn pooled_buffers(&self) -> usize {
        self.pools.iter().map(Vec::len).sum()
    }

    /// Total bytes currently retained by pooled buffers.
    pub fn pooled_bytes(&self) -> usize {
        self.pools
            .iter()
            .enumerate()
            .map(|(c, pool)| pool.len() * (1usize << c) * std::mem::size_of::<f32>())
            .sum()
    }

    /// Drops every pooled buffer and resets the counters (the lanes stay).
    pub fn clear(&mut self) {
        self.pools.clear();
        self.stats = ArenaStats::default();
        self.spare_vals = Vec::new();
        self.spare_bound = Vec::new();
        self.slot = None;
    }

    /// Takes the type-erased prep-scratch slot as a `T`, building a fresh
    /// default when the slot is empty or currently holds a different type
    /// (e.g. the arena migrated between models). Warmed steady state — the
    /// same model taking back the slot it parked — is allocation-free.
    pub fn take_slot<T: Default + Send + 'static>(&mut self) -> Box<T> {
        match self.slot.take() {
            Some(any) => any.downcast::<T>().unwrap_or_else(|_| Box::new(T::default())),
            None => Box::new(T::default()),
        }
    }

    /// Parks a prep-scratch value in the type-erased slot for the next
    /// request (replacing whatever was there).
    pub fn put_slot<T: Send + 'static>(&mut self, slot: Box<T>) {
        self.slot = Some(slot);
    }

    /// Overwrites every pooled buffer (to full capacity) with `sentinel`.
    ///
    /// Test hook for the leak check: poison the pool, re-serve, and assert
    /// the sentinel never reaches an output — which holds because every
    /// `_into` kernel writes each output element before it can be read.
    pub fn poison(&mut self, sentinel: f32) {
        for pool in &mut self.pools {
            for arc in pool.iter_mut() {
                if let Some(v) = Arc::get_mut(arc) {
                    let cap = v.capacity();
                    v.clear();
                    v.resize(cap, sentinel);
                }
            }
        }
    }

    /// Takes the spare node-value vector (empty, capacity retained).
    pub(crate) fn take_vals(&mut self) -> Vec<crate::array::Array> {
        std::mem::take(&mut self.spare_vals)
    }

    /// Returns a drained node-value vector, keeping its capacity for the
    /// next pass. Any leftover values are recycled.
    pub(crate) fn put_vals(&mut self, mut vals: Vec<crate::array::Array>) {
        for a in vals.drain(..) {
            self.recycle(a.into_data());
        }
        self.spare_vals = vals;
    }

    /// Takes the spare parameter-bind table (empty, capacity retained).
    /// Used by `Session::frozen_in` to rebuild its bind table without
    /// allocating.
    pub fn take_bound_slots(&mut self) -> Vec<Option<Var>> {
        std::mem::take(&mut self.spare_bound)
    }

    /// Returns a parameter-bind table to the pool, clearing it but keeping
    /// its capacity.
    pub fn put_bound_slots(&mut self, mut bound: Vec<Option<Var>>) {
        bound.clear();
        self.spare_bound = bound;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_rounding() {
        assert_eq!(class_of(0), 0);
        assert_eq!(class_of(1), 0);
        assert_eq!(class_of(2), 1);
        assert_eq!(class_of(3), 2);
        assert_eq!(class_of(64), 6);
        assert_eq!(class_of(65), 7);
    }

    #[test]
    fn take_recycle_take_reuses_storage() {
        let mut ar = Arena::new();
        let a = ar.take(100);
        assert_eq!(a.len(), 100);
        assert_eq!(a.capacity(), 128);
        let ptr = a.as_ptr();
        ar.recycle(a);
        assert_eq!(ar.pooled_buffers(), 1);
        // Different length, same class: the same storage comes back.
        let b = ar.take(90);
        assert_eq!(b.len(), 90);
        assert_eq!(b.as_ptr(), ptr);
        let s = ar.stats();
        assert_eq!((s.hits, s.misses, s.recycled), (1, 1, 1));
    }

    #[test]
    fn shared_storage_is_refused() {
        let mut ar = Arena::new();
        let a = ar.take(8);
        let view = Arc::clone(&a);
        ar.recycle(a);
        assert_eq!(ar.pooled_buffers(), 0, "shared Arc must not be pooled");
        assert_eq!(ar.stats().dropped, 1);
        drop(view);
    }

    #[test]
    fn foreign_capacity_is_refused() {
        let mut ar = Arena::new();
        let mut v = Vec::with_capacity(100); // not a power of two
        v.resize(100, 0.0f32);
        ar.recycle(Arc::new(v));
        assert_eq!(ar.pooled_buffers(), 0);
        assert_eq!(ar.stats().dropped, 1);
    }

    #[test]
    fn class_capacity_is_bounded() {
        let mut ar = Arena::new();
        for _ in 0..(MAX_PER_CLASS + 10) {
            let mut v = Vec::with_capacity(16);
            v.resize(16, 0.0f32);
            ar.recycle(Arc::new(v));
        }
        assert_eq!(ar.pooled_buffers(), MAX_PER_CLASS);
        assert_eq!(ar.stats().dropped, 10);
    }

    #[test]
    fn two_takes_never_alias() {
        let mut ar = Arena::new();
        let a = ar.take(32);
        ar.recycle(a);
        let x = ar.take(32);
        let y = ar.take(32);
        assert_ne!(x.as_ptr(), y.as_ptr(), "two live buffers must not alias");
    }

    #[test]
    fn poison_then_take_is_fully_writable() {
        let mut ar = Arena::new();
        let a = ar.take(10);
        ar.recycle(a);
        ar.poison(f32::NAN);
        let b = ar.take(10);
        // Contents are unspecified (poisoned here); length is exact.
        assert_eq!(b.len(), 10);
        assert!(b.iter().all(|v| v.is_nan()));
    }

    #[test]
    fn slot_round_trips_and_tolerates_type_changes() {
        let mut ar = Arena::new();
        let mut v: Box<Vec<u32>> = ar.take_slot();
        assert!(v.is_empty());
        v.push(7);
        let ptr = v.as_ptr();
        ar.put_slot(v);
        let v2: Box<Vec<u32>> = ar.take_slot();
        assert_eq!((v2.as_ptr(), v2.as_slice()), (ptr, &[7u32][..]));
        ar.put_slot(v2);
        // A different type evicts the old slot and starts from default.
        let s: Box<String> = ar.take_slot();
        assert!(s.is_empty());
    }

    #[test]
    fn clear_drops_everything() {
        let mut ar = Arena::new();
        let a = ar.take(8);
        ar.recycle(a);
        ar.clear();
        assert_eq!(ar.pooled_buffers(), 0);
        assert_eq!(ar.pooled_bytes(), 0);
        assert_eq!(ar.stats(), ArenaStats::default());
    }
}
