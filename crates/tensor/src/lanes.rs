//! Helper lanes: parked threads that share one fused-decoder call's
//! candidate chunks with the thread that makes it.
//!
//! The target-aware decoder scores every candidate independently against
//! one encoder output, and on a full catalogue scan it is most of a
//! request. A [`Lanes`] of `k` lanes is the calling thread plus `k − 1`
//! helper threads, spawned once in [`Lanes::new`] and parked on a condvar
//! between calls. The serving engine gives each replica one, attached to
//! the replica's warm [`Arena`] ([`Arena::with_lanes`]), so the executor
//! reaches it without any model code knowing.
//!
//! # One call
//!
//! [`Lanes::taad_scores`] cuts the `b·m` candidate rows into [`TAAD_CHUNK`]-row
//! chunks (never crossing a sequence) and publishes the call. The caller
//! and every helper that wakes in time claim chunks from one atomic
//! counter; each claimed chunk runs the serial kernel's panel loop on its
//! rows in a buffer the caller lent from its arena, and is copied into the
//! output under the state lock. When the counter runs out the caller closes
//! the call: helpers that have not joined yet no longer can, and the caller
//! parks until those inside finish the chunk they hold. It never waits for
//! a helper that has not claimed anything.
//!
//! # Why the bits do not move
//!
//! A candidate's score depends only on its own rows of `c` and `mask` and
//! on `f`; chunk boundaries are multiples of [`kernels::TAAD_PANEL`], so
//! every chunk runs exactly the panels the serial
//! [`kernels::taad_scores_into`] runs, with the same kernels in the same
//! order. Who claims a chunk changes where it is computed, not what.
//!
//! # Panics and shutdown
//!
//! A helper runs its chunks inside `catch_unwind`. The first payload is
//! kept, and once every joined helper has left, the caller re-raises it
//! with `resume_unwind`, so the serving engine's one panic boundary sees it
//! on the caller's thread. The helper survives and serves the next call.
//! A call the caller itself unwinds out of is still closed and waited for.
//! Dropping a [`Lanes`] wakes and joins every helper.
//!
//! Steady state allocates nothing on any thread: inputs travel as `Arc`
//! clones, chunk buffers come from the caller's arena and go back to it.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use crate::arena::Arena;
use crate::array::Array;
use crate::kernels;

/// Candidate rows per claimed chunk. A multiple of [`kernels::TAAD_PANEL`],
/// so a chunk's panels are the serial kernel's panels.
pub const TAAD_CHUNK: usize = 256;
const _: () = assert!(TAAD_CHUNK.is_multiple_of(kernels::TAAD_PANEL));

/// One decoder call: `f: [b, n, d]`, `c: [b, m, d]`, `mask: [b, m, n]` or
/// `[b, 1, n]` as `Arc` handles (cloning copies no floats).
#[derive(Clone)]
struct Job {
    f: Array,
    c: Array,
    mask: Array,
    m: usize,
    n: usize,
    d: usize,
    chunks: usize,
}

struct State {
    /// Bumped per published call; helpers wake on a change.
    gen: u64,
    /// The current call while helpers may still join it.
    job: Option<Job>,
    /// The current call's output; chunks are deposited here.
    out: Arc<Vec<f32>>,
    /// Helpers working on the current call.
    inside: usize,
    /// One chunk buffer per helper, lent from the caller's arena.
    bufs: Vec<Option<Arc<Vec<f32>>>>,
    /// The first panic a helper caught during the current call.
    panic: Option<Box<dyn Any + Send>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Helpers park here between calls.
    wake: Condvar,
    /// The caller parks here until the helpers inside a closed call leave.
    idle: Condvar,
    /// Next unclaimed chunk. It only hands out indices; the inputs and the
    /// output are published through `state`, so relaxed ordering suffices.
    next: AtomicUsize,
    helper_chunks: AtomicU64,
    /// Per helper: allocations its thread made since it started.
    helper_allocs: Vec<AtomicU64>,
    /// Unit-test hook: every chunk claimed on a helper thread panics. Read
    /// only under `cfg!(test)`, so other builds compile the check away.
    fail_on_helpers: AtomicBool,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Stops helpers from joining the current call and waits until the
    /// ones inside have left. Idempotent.
    fn close(&self) -> MutexGuard<'_, State> {
        let mut st = self.lock();
        st.job = None;
        while st.inside > 0 {
            st = self.idle.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st
    }

    /// Copies one finished chunk into the call's output.
    fn deposit(&self, row0: usize, rows: &[f32]) {
        let mut st = self.lock();
        let out = Arc::make_mut(&mut st.out);
        out[row0..row0 + rows.len()].copy_from_slice(rows);
    }
}

/// Closes the current call when dropped, so a caller that unwinds out of
/// its own chunk still waits for the helpers before the call's buffers go.
struct Closer<'a>(&'a Shared);

impl Drop for Closer<'_> {
    fn drop(&mut self) {
        drop(self.0.close());
    }
}

impl Job {
    /// Claims chunks until none are left; each is scored into the tail of
    /// `buf` and deposited. Returns how many this thread scored.
    fn drain(&self, shared: &Shared, buf: &mut [f32], helper: bool) -> u64 {
        let (m, n, d) = (self.m, self.n, self.d);
        let per_seq = m.div_ceil(TAAD_CHUNK);
        let (ft, rest) = buf.split_at_mut(d * n);
        let (panel, rows_out) = rest.split_at_mut(rest.len() - TAAD_CHUNK);
        let mut transposed = None;
        let mut scored = 0;
        loop {
            let k = shared.next.fetch_add(1, Ordering::Relaxed);
            if k >= self.chunks {
                return scored;
            }
            if cfg!(test) && helper && shared.fail_on_helpers.load(Ordering::Relaxed) {
                panic!("injected helper panic in chunk {k}");
            }
            let (bi, i0) = (k / per_seq, (k % per_seq) * TAAD_CHUNK);
            let rows = TAAD_CHUNK.min(m - i0);
            let fb = &self.f.data()[bi * n * d..][..n * d];
            if transposed != Some(bi) {
                kernels::transpose_last2_into(fb, ft, 1, n, d);
                transposed = Some(bi);
            }
            let row0 = bi * m + i0;
            let c = &self.c.data()[row0 * d..][..rows * d];
            let mask = match self.mask.shape()[1] {
                1 => &self.mask.data()[bi * n..][..n],
                _ => &self.mask.data()[row0 * n..][..rows * n],
            };
            let out = &mut rows_out[..rows];
            kernels::taad_rows_into(ft, c, mask, out, panel, n, d);
            shared.deposit(row0, out);
            scored += 1;
        }
    }
}

/// A helper's life: park, join a call if it is still open, drain it, leave.
fn helper(shared: Arc<Shared>, me: usize) {
    let allocs0 = stisan_obs::alloc::thread_stats().allocs;
    let mut seen = 0;
    let mut st = shared.lock();
    loop {
        let allocs = stisan_obs::alloc::thread_stats().allocs - allocs0;
        shared.helper_allocs[me].store(allocs, Ordering::Relaxed);
        while st.gen == seen && !st.shutdown {
            st = shared.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        if st.shutdown {
            return;
        }
        seen = st.gen;
        let Some(job) = st.job.clone() else { continue };
        let Some(mut buf) = st.bufs[me].take() else { continue };
        st.inside += 1;
        drop(st);
        let res = catch_unwind(AssertUnwindSafe(|| {
            job.drain(&shared, Arc::make_mut(&mut buf).as_mut_slice(), true)
        }));
        drop(job);
        st = shared.lock();
        st.bufs[me] = Some(buf);
        match res {
            Ok(scored) => {
                shared.helper_chunks.fetch_add(scored, Ordering::Relaxed);
            }
            Err(payload) => {
                st.panic.get_or_insert(payload);
            }
        }
        st.inside -= 1;
        if st.inside == 0 {
            shared.idle.notify_all();
        }
    }
}

/// The calling thread plus parked helper threads (see the module docs).
pub struct Lanes {
    shared: Arc<Shared>,
    helpers: Vec<JoinHandle<()>>,
}

impl Lanes {
    /// `lanes` lanes: the caller plus `lanes − 1` helper threads, spawned
    /// here and nowhere else. `lanes = 1` (or 0) spawns nothing and every
    /// call runs serially. A helper the OS refuses to start is left out.
    pub fn new(lanes: usize) -> Lanes {
        let helpers = lanes.max(1) - 1;
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                gen: 0,
                job: None,
                out: Arc::new(Vec::new()),
                inside: 0,
                bufs: vec![None; helpers],
                panic: None,
                shutdown: false,
            }),
            wake: Condvar::new(),
            idle: Condvar::new(),
            next: AtomicUsize::new(0),
            helper_chunks: AtomicU64::new(0),
            helper_allocs: (0..helpers).map(|_| AtomicU64::new(0)).collect(),
            fail_on_helpers: AtomicBool::new(false),
        });
        let helpers = (0..helpers)
            .filter_map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("stisan-lane-{me}"))
                    .spawn(move || helper(shared, me))
                    .ok()
            })
            .collect();
        Lanes { shared, helpers }
    }

    /// Lanes in use: the caller plus the running helpers.
    pub fn count(&self) -> usize {
        self.helpers.len() + 1
    }

    /// Chunks scored on helper threads since construction.
    pub fn helper_chunks(&self) -> u64 {
        self.shared.helper_chunks.load(Ordering::Relaxed)
    }

    /// Allocations the helper threads made since they started, each
    /// counted by its own thread (nonzero only while
    /// `stisan_obs::alloc` accounting is on). Current as of the end of
    /// the last call.
    pub fn helper_allocs(&self) -> u64 {
        self.shared.helper_allocs.iter().map(|a| a.load(Ordering::Relaxed)).sum()
    }

    /// The fused decoder's scores, `[b·m]`, into `out` (set semantics),
    /// bit-identical to [`kernels::taad_scores_into`] for any lane count.
    /// `f: [b, n, d]`, `c: [b, m, d]`, `mask: [b, m, n]` or `[b, 1, n]`;
    /// scratch comes from `arena`. With no helpers, or a single chunk, the
    /// serial kernel runs on the caller. A helper's panic is re-raised here.
    pub fn taad_scores(
        &self,
        arena: &mut Arena,
        f: &Array,
        c: &Array,
        mask: &Array,
        mut out: Arc<Vec<f32>>,
    ) -> Arc<Vec<f32>> {
        let (b, n, d) = (f.shape()[0], f.shape()[1], f.shape()[2]);
        let m = c.shape()[1];
        let chunks = b * m.div_ceil(TAAD_CHUNK);
        if self.helpers.is_empty() || chunks < 2 {
            taad_serial(arena, f, c, mask, Arc::make_mut(&mut out).as_mut_slice());
            return out;
        }
        let job = Job { f: f.clone(), c: c.clone(), mask: mask.clone(), m, n, d, chunks };
        let len = kernels::taad_scratch_len(n, d) + TAAD_CHUNK;
        let mut own = arena.take(len);
        {
            let mut st = self.shared.lock();
            for slot in st.bufs.iter_mut() {
                *slot = Some(arena.take(len));
            }
            std::mem::swap(&mut st.out, &mut out);
            st.job = Some(job.clone());
            self.shared.next.store(0, Ordering::Relaxed);
            st.panic = None;
            st.gen += 1;
        }
        self.shared.wake.notify_all();
        let closer = Closer(&self.shared);
        job.drain(&self.shared, Arc::make_mut(&mut own).as_mut_slice(), false);
        drop(job);
        let mut st = self.shared.close();
        std::mem::swap(&mut st.out, &mut out);
        for buf in st.bufs.iter_mut().filter_map(Option::take) {
            arena.recycle(buf);
        }
        let panic = st.panic.take();
        drop(st);
        drop(closer);
        arena.recycle(own);
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        out
    }
}

impl Drop for Lanes {
    /// Wakes every helper to exit and joins it.
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.wake.notify_all();
        for h in self.helpers.drain(..) {
            let _ = h.join();
        }
    }
}

/// The serial fused decoder over a scratch buffer lent from `arena`.
pub(crate) fn taad_serial(arena: &mut Arena, f: &Array, c: &Array, mask: &Array, out: &mut [f32]) {
    let (b, n, d) = (f.shape()[0], f.shape()[1], f.shape()[2]);
    let m = c.shape()[1];
    let mut scratch = arena.take(kernels::taad_scratch_len(n, d));
    let buf = Arc::make_mut(&mut scratch);
    kernels::taad_scores_into(f.data(), c.data(), mask.data(), out, buf, b, m, n, d);
    arena.recycle(scratch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `f`, `c` and an all-open mask at the full-scan shape of one sequence.
    fn inputs(m: usize) -> (Array, Array, Array) {
        let (n, d) = (20, 64);
        let mut rng = StdRng::seed_from_u64(7);
        let f = Array::uniform(vec![1, n, d], -1.0, 1.0, &mut rng);
        let c = Array::uniform(vec![1, m, d], -1.0, 1.0, &mut rng);
        (f, c, Array::zeros(vec![1, m, n]))
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn split(lanes: &Lanes, arena: &mut Arena, (f, c, mask): &(Array, Array, Array)) -> Vec<u32> {
        let out = Arc::new(vec![f32::NAN; c.shape()[1]]);
        bits(&lanes.taad_scores(arena, f, c, mask, out))
    }

    /// A panic in a helper's chunk comes back on the caller, after which the
    /// same helpers serve the next call bit for bit, and every input is
    /// unique again (no helper kept a clone).
    #[test]
    fn helper_panic_resurfaces_on_the_caller_and_the_helpers_serve_on() {
        let lanes = Lanes::new(2);
        let job = inputs(40 * TAAD_CHUNK);
        let want = split(&Lanes::new(1), &mut Arena::new(), &job);
        let mut arena = Arena::new();
        lanes.shared.fail_on_helpers.store(true, Ordering::Relaxed);
        // A helper claims a chunk only if it wakes before the caller has
        // claimed them all, so call until one does.
        let raised = (0..200).any(|_| {
            catch_unwind(AssertUnwindSafe(|| split(&lanes, &mut arena, &job))).is_err()
        });
        assert!(raised, "no helper panic reached the caller in 200 calls");
        lanes.shared.fail_on_helpers.store(false, Ordering::Relaxed);
        assert_eq!(split(&lanes, &mut arena, &job), want);
        let (f, c, mask) = job;
        for a in [f, c, mask] {
            assert_eq!(Arc::strong_count(&a.into_data()), 1, "a helper kept an input");
        }
    }

    /// Helpers are spawned by `new` only; dropping the lanes joins them all.
    #[test]
    fn lanes_spawn_once_and_drop_joins_every_helper() {
        assert_eq!(Lanes::new(0).count(), 1);
        assert_eq!(Lanes::new(1).count(), 1);
        let lanes = Lanes::new(3);
        assert_eq!(lanes.count(), 3);
        let job = inputs(8 * TAAD_CHUNK + 5);
        let want = split(&Lanes::new(1), &mut Arena::new(), &job);
        let mut arena = Arena::new();
        for _ in 0..20 {
            assert_eq!(split(&lanes, &mut arena, &job), want);
        }
        assert_eq!(lanes.helpers.len(), 2, "calls spawn nothing");
        let shared = Arc::downgrade(&lanes.shared);
        drop(lanes);
        assert!(shared.upgrade().is_none(), "a helper outlived its lanes");
    }
}
