//! Micro-batcher property suite, on a fully simulated clock — the
//! assertion path contains no sleeps and no `Instant`.
//!
//! A discrete-event simulation replays a random arrival pattern against
//! the pure [`MicroBatcher`] state machine plus a single simulated scoring
//! "device" whose service time is a function of the batch length (batches
//! are emitted only when the device is free — the dispatcher's
//! one-batch-in-flight behaviour). Invariants:
//!
//! * every **admitted** request lands in **exactly one** batch, exactly
//!   once, in FIFO order; shed requests land in none;
//! * no batch exceeds `max_batch_size`;
//! * with `queue_capacity <= max_batch_size` (the configuration whose
//!   bound is provable), no admitted request waits longer than
//!   `max_wait_us` plus one batch service time;
//! * over a replicated engine, batches of 32 drain a backlog at least 1.5x
//!   faster than batches of 1 (micro-batching's throughput claim).

use proptest::prelude::*;
use stisan_gateway::batcher::{BatchPolicy, MicroBatcher};

/// One emitted batch: emission time plus `(id, arrived_us)` members.
struct EmittedBatch {
    emit_us: u64,
    members: Vec<(u32, u64)>,
}

struct SimOutcome {
    admitted: Vec<u32>,
    shed: Vec<u32>,
    batches: Vec<EmittedBatch>,
}

/// Replays `arrivals` (sorted admission timestamps, one request each)
/// against the batcher and a single device that takes `service_us(len)` to
/// score a batch of `len`. Emission happens at the earliest instant the
/// policy says ready *and* the device is free; ties between an arrival and
/// an emission resolve to the emission (the dispatcher holds the lock
/// first).
fn simulate(
    policy: BatchPolicy,
    arrivals: &[u64],
    service_us: impl Fn(usize) -> u64,
) -> SimOutcome {
    let mut b: MicroBatcher<(u32, u64)> = MicroBatcher::new(policy);
    let policy = *b.policy();
    let mut out = SimOutcome { admitted: Vec::new(), shed: Vec::new(), batches: Vec::new() };
    let mut device_free_us = 0u64;
    let mut now = 0u64;
    let mut next = 0usize; // index of the next arrival to offer

    loop {
        // Earliest possible emission given the current queue.
        let emit_at = if b.is_empty() {
            None
        } else {
            let ready = if b.len() >= policy.max_batch_size {
                now // became full at (or before) the current instant
            } else {
                // next_deadline_us is oldest arrival + max_wait here.
                b.next_deadline_us().unwrap_or(now)
            };
            Some(ready.max(device_free_us).max(now))
        };
        let arrive_at = arrivals.get(next).copied();

        match (arrive_at, emit_at) {
            (Some(a), Some(e)) if e <= a => {
                now = e;
                emit(&mut b, now, &service_us, &mut device_free_us, &mut out);
            }
            (Some(a), _) => {
                now = now.max(a);
                let id = next as u32;
                match b.offer((id, now), now) {
                    Ok(()) => out.admitted.push(id),
                    Err(_) => out.shed.push(id),
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
    *device_free_us = now + service_us(members.len());
    out.batches.push(EmittedBatch { emit_us: now, members });
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

    /// Exactly-once delivery and the batch-size bound, under any policy.
    #[test]
    fn admitted_answered_exactly_once_and_batches_bounded(
        max_batch in 1usize..9,
        max_wait_us in 0u64..8_001,
        extra_capacity in 0usize..17,
        service_us in 0u64..4_001,
        gaps in prop::collection::vec(0u64..2_501, 1..201),
    ) {
        let policy = BatchPolicy {
            max_batch_size: max_batch,
            max_wait_us,
            queue_capacity: max_batch + extra_capacity,
        };
        let arrivals = arrivals_from_gaps(&gaps);
        let sim = simulate(policy, &arrivals, |_| service_us);

        prop_assert_eq!(sim.admitted.len() + sim.shed.len(), arrivals.len());

        // Exactly once, FIFO: concatenating all batches reproduces the
        // admission order with no duplicates and no losses.
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

    /// The wait bound: with `queue_capacity <= max_batch_size`, an admitted
    /// request is batched within `max_wait_us` + one batch service time.
    #[test]
    fn wait_is_bounded_when_capacity_fits_one_batch(
        max_batch in 1usize..9,
        max_wait_us in 0u64..8_001,
        service_us in 0u64..4_001,
        gaps in prop::collection::vec(0u64..2_501, 1..201),
    ) {
        let policy = BatchPolicy {
            max_batch_size: max_batch,
            max_wait_us,
            queue_capacity: max_batch, // every pending request fits the next batch
        };
        let arrivals = arrivals_from_gaps(&gaps);
        let sim = simulate(policy, &arrivals, |_| service_us);
        let bound = max_wait_us + service_us;
        for eb in &sim.batches {
            for &(id, arrived) in &eb.members {
                let waited = eb.emit_us - arrived;
                prop_assert!(
                    waited <= bound,
                    "request {id} waited {waited}us > max_wait {max_wait_us} + service {service_us}"
                );
            }
        }
    }

    /// Determinism: the same arrival pattern replays to the same batches.
    #[test]
    fn simulation_is_deterministic(
        max_batch in 1usize..7,
        max_wait_us in 0u64..5_001,
        service_us in 0u64..3_001,
        gaps in prop::collection::vec(0u64..2_001, 1..81),
    ) {
        let policy = BatchPolicy {
            max_batch_size: max_batch,
            max_wait_us,
            queue_capacity: max_batch * 2,
        };
        let arrivals = arrivals_from_gaps(&gaps);
        let a = simulate(policy, &arrivals, |_| service_us);
        let b = simulate(policy, &arrivals, |_| service_us);
        prop_assert_eq!(a.admitted, b.admitted);
        prop_assert_eq!(a.shed, b.shed);
        prop_assert_eq!(a.batches.len(), b.batches.len());
        for (x, y) in a.batches.iter().zip(&b.batches) {
            prop_assert_eq!(x.emit_us, y.emit_us);
            prop_assert_eq!(&x.members, &y.members);
        }
    }
}

/// A back-to-back burst at one instant fills batches to the brim and sheds
/// precisely what exceeds capacity — the load-shedding contract in μs.
#[test]
fn burst_sheds_exactly_the_overflow() {
    // Capacity below max_batch_size: the queue cannot drain mid-burst (it
    // never fills a batch, and the coalescing window is still open), so a
    // same-instant burst of 10 must shed exactly the 4 beyond capacity.
    let policy = BatchPolicy { max_batch_size: 8, max_wait_us: 1_000, queue_capacity: 6 };
    let arrivals = vec![0u64; 10]; // 10 requests in the same microsecond
    let sim = simulate(policy, &arrivals, |_| 500);
    assert_eq!(sim.admitted.len(), 6, "capacity 6 admits 6");
    assert_eq!(sim.shed.len(), 4, "the other 4 are shed");
    // The survivors drain as one batch when the coalescing window closes.
    let sizes: Vec<usize> = sim.batches.iter().map(|b| b.members.len()).collect();
    assert_eq!(sizes, vec![6]);
    assert_eq!(sim.batches[0].emit_us, 1_000);
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
        let policy = BatchPolicy { max_batch_size, max_wait_us: 500, queue_capacity: BACKLOG };
        let sim = simulate(policy, &arrivals, engine_us);
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
