//! Micro-batching: a pure bounded-FIFO state machine.
//!
//! The batcher is the queueing policy only — no threads, no sockets, no
//! clock of its own. Arrival times are `u64` microseconds supplied by the
//! caller and only carried along (for the `gateway.wait_us` histogram), so
//! the property suite drives it on a simulated clock and asserts the policy
//! invariants without a single real sleep:
//!
//! * **work-conserving** — there is no coalescing timer. The dispatcher
//!   scores one batch at a time, so it asks for a batch exactly when the
//!   engine is idle, and [`MicroBatcher::take`] hands over whatever is
//!   pending at that moment. Requests accumulate only while a batch is in
//!   flight: batch fill tracks load, and an idle engine never leaves a
//!   non-empty queue waiting;
//! * **batch bound** — an emitted batch never exceeds
//!   [`BatchPolicy::max_batch_size`];
//! * **admission** — at most [`BatchPolicy::queue_capacity`] requests are
//!   pending; an offer beyond that is *shed* ([`Rejected::Full`]; the server
//!   answers it with an `OVERLOADED` frame instead of buffering without
//!   bound). With `queue_capacity <= max_batch_size` every admitted request
//!   is therefore batched within one batch service time — the property
//!   tests prove it over random arrival patterns;
//! * **close on drain** — after [`MicroBatcher::close`] every offer is
//!   handed back as [`Rejected::Closed`] (`SHUTTING_DOWN` on the wire)
//!   while everything admitted before it can still be taken, so "closed and
//!   empty" is a state nothing can leave and the dispatcher may exit on it
//!   without stranding a request.
//!
//! The server (`server.rs`) wraps this machine in a mutex + condvar: one
//! dispatcher thread sleeps while the queue is empty and hands each
//! [`MicroBatcher::take`] result to the scoring pool
//! (`EngineBackend::serve_outcomes`) as a single engine batch.

use std::collections::VecDeque;

/// Micro-batching policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct BatchPolicy {
    /// Largest batch handed to the scoring pool in one call.
    pub max_batch_size: usize,
    /// Bound on pending (admitted but not yet batched) requests. Offers
    /// beyond it are shed.
    pub queue_capacity: usize,
}

impl Default for BatchPolicy {
    /// Batches of up to 32, 256 pending requests.
    fn default() -> Self {
        BatchPolicy { max_batch_size: 32, queue_capacity: 256 }
    }
}

impl BatchPolicy {
    /// Clamps degenerate values to their minimum legal settings
    /// (`max_batch_size >= 1`, `queue_capacity >= 1`).
    pub fn sanitized(self) -> BatchPolicy {
        BatchPolicy {
            max_batch_size: self.max_batch_size.max(1),
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

/// Why [`MicroBatcher::offer`] handed an item back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rejected<T> {
    /// The queue is at capacity: shed (the server answers `OVERLOADED`).
    Full(T),
    /// The batcher was closed for drain (the server answers
    /// `SHUTTING_DOWN`).
    Closed(T),
}

/// The micro-batcher state machine. Generic over the queued item so tests
/// can drive it with plain ids.
#[derive(Debug)]
pub struct MicroBatcher<T> {
    policy: BatchPolicy,
    pending: VecDeque<Pending<T>>,
    closed: bool,
}

impl<T> MicroBatcher<T> {
    /// A new, empty, open batcher under `policy` (sanitized).
    pub fn new(policy: BatchPolicy) -> MicroBatcher<T> {
        MicroBatcher { policy: policy.sanitized(), pending: VecDeque::new(), closed: false }
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

    /// Stops admission for good: later offers are [`Rejected::Closed`].
    /// What is already pending stays takeable.
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// Whether [`close`](MicroBatcher::close) was called.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Admission control: queues the item, or gives it back when the
    /// batcher is closed or the queue is at capacity.
    pub fn offer(&mut self, item: T, now_us: u64) -> Result<(), Rejected<T>> {
        if self.closed {
            return Err(Rejected::Closed(item));
        }
        if self.pending.len() >= self.policy.queue_capacity {
            return Err(Rejected::Full(item));
        }
        self.pending.push_back(Pending { item, arrived_us: now_us });
        Ok(())
    }

    /// Removes and returns the oldest `<= max_batch_size` entries, FIFO
    /// (empty when nothing is pending). The caller decides *when*: the
    /// dispatcher calls it whenever the scoring pool is free and the queue
    /// is non-empty.
    pub fn take(&mut self) -> Vec<Pending<T>> {
        let n = self.pending.len().min(self.policy.max_batch_size);
        self.pending.drain(..n).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batcher(max_batch: usize, cap: usize) -> MicroBatcher<u32> {
        MicroBatcher::new(BatchPolicy { max_batch_size: max_batch, queue_capacity: cap })
    }

    fn items(batch: Vec<Pending<u32>>) -> Vec<u32> {
        batch.into_iter().map(|p| p.item).collect()
    }

    #[test]
    fn fills_then_emits_full_batches_fifo() {
        let mut b = batcher(3, 10);
        for i in 0..5u32 {
            assert!(b.offer(i, 10 + i as u64).is_ok());
        }
        assert_eq!(items(b.take()), vec![0, 1, 2]);
        assert_eq!(b.len(), 2);
        // A partial batch goes out as it is: nothing waits for co-batching.
        let rest = b.take();
        assert_eq!(rest.iter().map(|p| p.arrived_us).collect::<Vec<_>>(), vec![13, 14]);
        assert_eq!(items(rest), vec![3, 4]);
        assert!(b.is_empty());
        assert!(b.take().is_empty());
    }

    #[test]
    fn sheds_above_capacity_and_recovers() {
        let mut b = batcher(8, 2);
        assert!(b.offer(1, 0).is_ok());
        assert!(b.offer(2, 0).is_ok());
        assert_eq!(b.offer(3, 0), Err(Rejected::Full(3)), "third offer must be shed, not buffered");
        let _ = b.take();
        assert!(b.offer(3, 5).is_ok(), "capacity frees up after a take");
    }

    #[test]
    fn zero_wait_emits_immediately() {
        let mut b = batcher(32, 32);
        assert!(b.offer(9, 123).is_ok());
        assert_eq!(b.take(), vec![Pending { item: 9, arrived_us: 123 }], "a lone request is a batch");
    }

    /// The drain contract: admitted-before-close is still taken, nothing is
    /// admitted after, and closed wins over full.
    #[test]
    fn offer_after_close_is_rejected_and_earlier_items_still_drain() {
        let mut b = batcher(2, 3);
        for i in 0..3u32 {
            assert!(b.offer(i, i as u64).is_ok());
        }
        assert!(!b.is_closed());
        b.close();
        assert!(b.is_closed());
        assert_eq!(b.offer(9, 5), Err(Rejected::Closed(9)), "closed outranks full");
        assert_eq!(items(b.take()), vec![0, 1]);
        assert_eq!(b.offer(9, 6), Err(Rejected::Closed(9)), "room in the queue does not reopen it");
        assert_eq!(items(b.take()), vec![2]);
        assert!(b.is_empty() && b.is_closed());
    }

    #[test]
    fn degenerate_policy_is_sanitized() {
        let b: MicroBatcher<u32> =
            MicroBatcher::new(BatchPolicy { max_batch_size: 0, queue_capacity: 0 });
        assert_eq!(b.policy().max_batch_size, 1);
        assert_eq!(b.policy().queue_capacity, 1);
    }
}
