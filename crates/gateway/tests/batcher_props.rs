//! Micro-batcher property suite, on a fully simulated clock — the
//! assertion path contains no sleeps and no `Instant`.
//!
//! A discrete-event simulation replays a random arrival pattern against
//! the pure [`MicroBatcher`] state machine plus a single simulated scoring
//! "device" whose service time is a function of the batch length. A batch
//! is emitted the instant the queue is non-empty *and* the device is free —
//! the dispatcher's work-conserving, one-batch-in-flight behaviour.
//! Invariants:
//!
//! * every **admitted** request lands in **exactly one** batch, exactly
//!   once, in FIFO order; shed requests and requests offered after
//!   `close()` land in none;
//! * no batch exceeds `max_batch_size`;
//! * an idle device never leaves a non-empty queue waiting: every batch is
//!   emitted at `max(oldest member's arrival, device free)`;
//! * with `queue_capacity <= max_batch_size` (the configuration whose
//!   bound is provable), no admitted request waits longer than one batch
//!   service time;
//! * over a replicated engine, batches of 32 drain a backlog at least 1.5x
//!   faster than batches of 1 (micro-batching's throughput claim).

use proptest::prelude::*;
use stisan_gateway::batcher::{BatchPolicy, MicroBatcher, Rejected};

/// One emitted batch: emission time, when the device became free for it,
/// plus `(id, arrived_us)` members.
struct EmittedBatch {
    emit_us: u64,
    device_free_us: u64,
    members: Vec<(u32, u64)>,
}

#[derive(Default)]
struct SimOutcome {
    admitted: Vec<u32>,
    shed: Vec<u32>,
    /// Offered after `close()`.
    refused: Vec<u32>,
    batches: Vec<EmittedBatch>,
}

/// Replays `arrivals` (sorted admission timestamps, one request each)
/// against the batcher and a single device that takes `service_us(len)` to
/// score a batch of `len`. `close_at` closes the batcher just before that
/// arrival index is offered. Ties between an arrival and an emission
/// resolve to the emission (the dispatcher holds the lock first).
fn simulate(
    policy: BatchPolicy,
    arrivals: &[u64],
    close_at: Option<usize>,
    service_us: impl Fn(usize) -> u64,
) -> SimOutcome {
    let mut b: MicroBatcher<(u32, u64)> = MicroBatcher::new(policy);
    let mut out = SimOutcome::default();
    let mut device_free_us = 0u64;
    let mut now = 0u64;
    let mut next = 0usize; // index of the next arrival to offer

    loop {
        // A non-empty queue goes out as soon as the device is free.
        let emit_at = (!b.is_empty()).then(|| device_free_us.max(now));
        let arrive_at = arrivals.get(next).copied();

        match (arrive_at, emit_at) {
            (Some(a), Some(e)) if e <= a => {
                now = e;
                emit(&mut b, now, &service_us, &mut device_free_us, &mut out);
            }
            (Some(a), _) => {
                now = now.max(a);
                if close_at == Some(next) {
                    b.close();
                }
                let id = next as u32;
                match b.offer((id, now), now) {
                    Ok(()) => out.admitted.push(id),
                    Err(Rejected::Full(_)) => out.shed.push(id),
                    Err(Rejected::Closed(_)) => out.refused.push(id),
                }
                next += 1;
            }
            (None, Some(e)) => {
                now = now.max(e);
                emit(&mut b, now, &service_us, &mut device_free_us, &mut out);
            }
            (None, None) => break,
        }
    }
    out
}

fn emit(
    b: &mut MicroBatcher<(u32, u64)>,
    now: u64,
    service_us: &impl Fn(usize) -> u64,
    device_free_us: &mut u64,
    out: &mut SimOutcome,
) {
    let members: Vec<(u32, u64)> = b.take().into_iter().map(|p| p.item).collect();
    assert!(!members.is_empty(), "emitted an empty batch");
    let busy_us = service_us(members.len());
    out.batches.push(EmittedBatch { emit_us: now, device_free_us: *device_free_us, members });
    *device_free_us = now + busy_us;
}

fn arrivals_from_gaps(gaps: &[u64]) -> Vec<u64> {
    let mut t = 0u64;
    gaps.iter()
        .map(|&g| {
            t += g;
            t
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Exactly-once delivery and the batch-size bound, under any policy and
    /// with `close()` landing anywhere in the arrival stream (`close_frac`
    /// above 100 = never closed).
    #[test]
    fn admitted_answered_exactly_once_and_batches_bounded(
        max_batch in 1usize..9,
        extra_capacity in 0usize..17,
        service_us in 0u64..4_001,
        close_frac in 0usize..151,
        gaps in prop::collection::vec(0u64..2_501, 1..201),
    ) {
        let policy = BatchPolicy {
            max_batch_size: max_batch,
            queue_capacity: max_batch + extra_capacity,
        };
        let arrivals = arrivals_from_gaps(&gaps);
        let close_at = (close_frac <= 100).then(|| arrivals.len() * close_frac / 100);
        let sim = simulate(policy, &arrivals, close_at, |_| service_us);

        prop_assert_eq!(sim.admitted.len() + sim.shed.len() + sim.refused.len(), arrivals.len());

        // Nothing is admitted (or shed) after close; everything offered
        // after it is refused as closed.
        let first_refused = close_at.unwrap_or(arrivals.len()) as u32;
        prop_assert!(sim.admitted.iter().chain(&sim.shed).all(|&id| id < first_refused));
        let expect_refused: Vec<u32> = (first_refused..arrivals.len() as u32).collect();
        prop_assert_eq!(&sim.refused, &expect_refused);

        // Exactly once, FIFO: concatenating all batches reproduces the
        // admission order with no duplicates and no losses — including what
        // was pending when the batcher closed.
        let batched: Vec<u32> = sim
            .batches
            .iter()
            .flat_map(|eb| eb.members.iter().map(|&(id, _)| id))
            .collect();
        prop_assert_eq!(&batched, &sim.admitted);

        for eb in &sim.batches {
            prop_assert!(eb.members.len() <= max_batch,
                "batch of {} exceeds max_batch_size {}", eb.members.len(), max_batch);
            // Emission never predates a member's admission.
            for &(_, arrived) in &eb.members {
                prop_assert!(eb.emit_us >= arrived);
            }
        }
    }

    /// Work conservation: an idle device never leaves a non-empty queue
    /// waiting — every batch leaves at `max(oldest arrival, device free)`.
    #[test]
    fn idle_device_never_leaves_a_non_empty_queue_waiting(
        max_batch in 1usize..9,
        extra_capacity in 0usize..17,
        service_us in 0u64..4_001,
        gaps in prop::collection::vec(0u64..2_501, 1..201),
    ) {
        let policy = BatchPolicy {
            max_batch_size: max_batch,
            queue_capacity: max_batch + extra_capacity,
        };
        let sim = simulate(policy, &arrivals_from_gaps(&gaps), None, |_| service_us);
        for eb in &sim.batches {
            let (leader, oldest) = eb.members[0];
            prop_assert_eq!(eb.emit_us, oldest.max(eb.device_free_us),
                "batch led by request {} left at {} with the device free at {}",
                leader, eb.emit_us, eb.device_free_us);
        }
    }

    /// The wait bound: with `queue_capacity <= max_batch_size`, an admitted
    /// request is batched within one batch service time.
    #[test]
    fn wait_is_bounded_when_capacity_fits_one_batch(
        max_batch in 1usize..9,
        service_us in 0u64..4_001,
        gaps in prop::collection::vec(0u64..2_501, 1..201),
    ) {
        let policy = BatchPolicy {
            max_batch_size: max_batch,
            queue_capacity: max_batch, // every pending request fits the next batch
        };
        let sim = simulate(policy, &arrivals_from_gaps(&gaps), None, |_| service_us);
        for eb in &sim.batches {
            for &(id, arrived) in &eb.members {
                let waited = eb.emit_us - arrived;
                prop_assert!(
                    waited <= service_us,
                    "request {id} waited {waited}us > one batch service time {service_us}us"
                );
            }
        }
    }

    /// Determinism: the same arrival pattern replays to the same batches.
    #[test]
    fn simulation_is_deterministic(
        max_batch in 1usize..7,
        service_us in 0u64..3_001,
        gaps in prop::collection::vec(0u64..2_001, 1..81),
    ) {
        let policy = BatchPolicy { max_batch_size: max_batch, queue_capacity: max_batch * 2 };
        let arrivals = arrivals_from_gaps(&gaps);
        let a = simulate(policy, &arrivals, None, |_| service_us);
        let b = simulate(policy, &arrivals, None, |_| service_us);
        prop_assert_eq!(a.admitted, b.admitted);
        prop_assert_eq!(a.shed, b.shed);
        prop_assert_eq!(a.batches.len(), b.batches.len());
        for (x, y) in a.batches.iter().zip(&b.batches) {
            prop_assert_eq!(x.emit_us, y.emit_us);
            prop_assert_eq!(&x.members, &y.members);
        }
    }
}

/// A back-to-back burst at one instant sheds precisely what exceeds
/// capacity — the load-shedding contract in μs.
#[test]
fn burst_sheds_exactly_the_overflow() {
    // 10 requests in the same microsecond, device idle, service 500 µs. The
    // first arrival is sealed at once as a batch of 1 (t = 0), which frees
    // its queue slot; the other 9 meet a busy device and a capacity of 6, so
    // 6 are admitted and exactly 3 are shed: 7 admitted in all. The 6 leave
    // as one batch the moment the device frees up (t = 500).
    let policy = BatchPolicy { max_batch_size: 8, queue_capacity: 6 };
    let arrivals = vec![0u64; 10];
    let sim = simulate(policy, &arrivals, None, |_| 500);
    assert_eq!(sim.admitted, vec![0, 1, 2, 3, 4, 5, 6], "1 sealed at once + capacity 6");
    assert_eq!(sim.shed, vec![7, 8, 9], "the other 3 are shed");
    let sizes: Vec<usize> = sim.batches.iter().map(|b| b.members.len()).collect();
    assert_eq!(sizes, vec![1, 6]);
    let emitted: Vec<u64> = sim.batches.iter().map(|b| b.emit_us).collect();
    assert_eq!(emitted, vec![0, 500]);
}

/// Micro-batching's throughput claim, on the virtual clock: over an engine
/// of `R` replicas a batch costs its largest replica group,
/// `ceil(len / R) * per_instance_us`, so draining the same backlog in
/// batches of 32 must finish in at most 1/1.5 of the time batches of 1 take.
#[test]
fn batches_of_32_drain_a_backlog_1_5x_faster_than_batches_of_1() {
    const REPLICAS: usize = 4;
    const PER_INSTANCE_US: u64 = 500;
    const BACKLOG: usize = 800;
    let engine_us = |len: usize| len.div_ceil(REPLICAS) as u64 * PER_INSTANCE_US;
    let arrivals = vec![0u64; BACKLOG];
    let drained_at = |max_batch_size: usize| {
        let policy = BatchPolicy { max_batch_size, queue_capacity: BACKLOG };
        let sim = simulate(policy, &arrivals, None, engine_us);
        assert_eq!(sim.admitted.len(), BACKLOG, "the queue must hold the whole backlog");
        let last = sim.batches.last().expect("a non-empty backlog emits batches");
        last.emit_us + engine_us(last.members.len())
    };
    let (t1, t32) = (drained_at(1), drained_at(32));
    assert!(
        3 * t32 <= 2 * t1,
        "batch 32 drained the backlog in {t32} us, batch 1 in {t1} us: less than 1.5x"
    );
}
