//! Dynamic micro-batching: a pure, clock-parameterised state machine.
//!
//! The batcher is the queueing policy only — no threads, no sockets, no
//! `Instant`. Time is a `u64` microsecond counter supplied by the caller,
//! so the property suite drives it with a simulated clock and asserts the
//! policy invariants without a single real sleep:
//!
//! * **admission** — at most [`BatchPolicy::queue_capacity`] requests are
//!   pending; an offer beyond that is *shed* (the server answers it with an
//!   `OVERLOADED` frame instead of buffering without bound);
//! * **batch bound** — an emitted batch never exceeds
//!   [`BatchPolicy::max_batch_size`];
//! * **wait bound** — a batch becomes ready the moment it is full *or* its
//!   oldest member has waited [`BatchPolicy::max_wait_us`]. With
//!   `queue_capacity <= max_batch_size` (the overload tests'
//!   configuration) every admitted request is therefore answered within
//!   `max_wait_us` plus one batch service time — the property tests prove
//!   it over random arrival patterns.
//!
//! The server (`server.rs`) drives this machine with the real clock: one
//! dispatcher thread offers admitted requests, sleeps until
//! [`MicroBatcher::next_deadline_us`], and hands each
//! [`MicroBatcher::take`] result to the scoring pool
//! (`EngineBackend::serve_outcomes`) as a single engine batch.

use std::collections::VecDeque;

/// Micro-batching policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct BatchPolicy {
    /// Largest batch handed to the scoring pool in one call.
    pub max_batch_size: usize,
    /// Longest a request may sit waiting for co-batching before the batch
    /// is emitted anyway, in microseconds. `0` disables coalescing waits:
    /// whatever is pending is emitted as soon as the pool is free.
    pub max_wait_us: u64,
    /// Bound on pending (admitted but not yet batched) requests. Offers
    /// beyond it are shed.
    pub queue_capacity: usize,
}

impl Default for BatchPolicy {
    /// Batches of up to 32, 2 ms coalescing window, 256 pending requests.
    fn default() -> Self {
        BatchPolicy { max_batch_size: 32, max_wait_us: 2_000, queue_capacity: 256 }
    }
}

impl BatchPolicy {
    /// Clamps degenerate values to their minimum legal settings
    /// (`max_batch_size >= 1`, `queue_capacity >= 1`).
    pub fn sanitized(self) -> BatchPolicy {
        BatchPolicy {
            max_batch_size: self.max_batch_size.max(1),
            max_wait_us: self.max_wait_us,
            queue_capacity: self.queue_capacity.max(1),
        }
    }
}

/// One pending entry: the item plus its admission time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pending<T> {
    /// The admitted item (the server stores whole requests here).
    pub item: T,
    /// Microsecond timestamp of admission, on the caller's clock.
    pub arrived_us: u64,
}

/// The dynamic micro-batcher state machine. Generic over the queued item so
/// tests can drive it with plain ids.
#[derive(Debug)]
pub struct MicroBatcher<T> {
    policy: BatchPolicy,
    pending: VecDeque<Pending<T>>,
}

impl<T> MicroBatcher<T> {
    /// A new, empty batcher under `policy` (sanitized).
    pub fn new(policy: BatchPolicy) -> MicroBatcher<T> {
        MicroBatcher { policy: policy.sanitized(), pending: VecDeque::new() }
    }

    /// The (sanitized) policy in force.
    pub fn policy(&self) -> &BatchPolicy {
        &self.policy
    }

    /// Pending request count.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Admission control: queues the item, or gives it back when the queue
    /// is at capacity (`Err` = shed; the caller answers `OVERLOADED`).
    pub fn offer(&mut self, item: T, now_us: u64) -> Result<(), T> {
        if self.pending.len() >= self.policy.queue_capacity {
            return Err(item);
        }
        self.pending.push_back(Pending { item, arrived_us: now_us });
        Ok(())
    }

    /// Whether a batch should be emitted now: something is pending and
    /// either a full batch is available or the oldest entry has waited out
    /// the coalescing window.
    pub fn ready(&self, now_us: u64) -> bool {
        match self.pending.front() {
            None => false,
            Some(oldest) => {
                self.pending.len() >= self.policy.max_batch_size
                    || now_us >= oldest.arrived_us.saturating_add(self.policy.max_wait_us)
            }
        }
    }

    /// The clock value at which [`ready`] will next turn true without
    /// further offers, `None` when the queue is empty. A full batch is
    /// ready immediately.
    ///
    /// [`ready`]: MicroBatcher::ready
    pub fn next_deadline_us(&self) -> Option<u64> {
        let oldest = self.pending.front()?;
        if self.pending.len() >= self.policy.max_batch_size {
            return Some(oldest.arrived_us);
        }
        Some(oldest.arrived_us.saturating_add(self.policy.max_wait_us))
    }

    /// Removes and returns the oldest `<= max_batch_size` entries, FIFO.
    /// The caller decides *when* (normally when [`ready`] says so and the
    /// scoring pool is free); `take` itself just slices the queue.
    ///
    /// [`ready`]: MicroBatcher::ready
    pub fn take(&mut self) -> Vec<Pending<T>> {
        let n = self.pending.len().min(self.policy.max_batch_size);
        self.pending.drain(..n).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batcher(max_batch: usize, wait: u64, cap: usize) -> MicroBatcher<u32> {
        MicroBatcher::new(BatchPolicy {
            max_batch_size: max_batch,
            max_wait_us: wait,
            queue_capacity: cap,
        })
    }

    #[test]
    fn fills_then_emits_full_batches_fifo() {
        let mut b = batcher(3, 1_000, 10);
        for i in 0..5u32 {
            assert!(b.offer(i, 10 + i as u64).is_ok());
        }
        assert!(b.ready(14), "full batch must be ready regardless of waits");
        let batch: Vec<u32> = b.take().into_iter().map(|p| p.item).collect();
        assert_eq!(batch, vec![0, 1, 2]);
        assert_eq!(b.len(), 2);
        // Two left: not full, oldest (arrived at 13) not yet past the window.
        assert!(!b.ready(500));
        assert_eq!(b.next_deadline_us(), Some(13 + 1_000));
        assert!(b.ready(1_013));
        let rest: Vec<u32> = b.take().into_iter().map(|p| p.item).collect();
        assert_eq!(rest, vec![3, 4]);
        assert!(b.is_empty());
        assert_eq!(b.next_deadline_us(), None);
    }

    #[test]
    fn sheds_above_capacity_and_recovers() {
        let mut b = batcher(8, 100, 2);
        assert!(b.offer(1, 0).is_ok());
        assert!(b.offer(2, 0).is_ok());
        assert_eq!(b.offer(3, 0), Err(3), "third offer must be shed, not buffered");
        let _ = b.take();
        assert!(b.offer(3, 5).is_ok(), "capacity frees up after a take");
    }

    #[test]
    fn zero_wait_emits_immediately() {
        let mut b = batcher(32, 0, 32);
        assert!(b.offer(9, 123).is_ok());
        assert!(b.ready(123), "max_wait_us = 0 means no coalescing delay");
        assert_eq!(b.next_deadline_us(), Some(123));
    }

    #[test]
    fn degenerate_policy_is_sanitized() {
        let b: MicroBatcher<u32> =
            MicroBatcher::new(BatchPolicy { max_batch_size: 0, max_wait_us: 1, queue_capacity: 0 });
        assert_eq!(b.policy().max_batch_size, 1);
        assert_eq!(b.policy().queue_capacity, 1);
    }
}
