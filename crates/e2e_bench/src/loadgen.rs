//! Load generation: the seeded request pool and the three ways a workload
//! drives it — in-process batches, closed-loop gateway connections, and an
//! open-loop arrival schedule.
//!
//! A phase sends a fixed number of requests, so the sample populations are
//! the same on every run, and keeps one [`Call`] per round trip; every
//! end-to-end latency and count is derived from those afterwards, outside the
//! timed region.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use stisan_data::{EvalInstance, Processed};
use stisan_gateway::{request_from_instance, GatewayClient, Request};
use stisan_obs::TraceCtx;
use stisan_serve::EngineBackend;

use crate::setup::TOP_K;
use crate::stats::{process_cpu_ms, rss_mb};

/// Responses at pool positions below this are kept and checked bit for bit
/// against direct in-process calls.
pub const VERIFY_SLOTS: usize = 200;

/// A recommendation list as served: `(poi, score)` pairs, best first.
pub type Items = Vec<(u32, f32)>;

/// The request pool: every eval instance of the catalogue, once, in an
/// order drawn from the seed. Request `i` of a phase is pool position
/// `i % len` (its *slot*).
pub struct Pool {
    pub insts: Vec<EvalInstance>,
    pub wire: Vec<Request>,
}

impl Pool {
    pub fn new(data: &Processed, seed: u64) -> Pool {
        let mut insts = data.eval.clone();
        insts.shuffle(&mut StdRng::seed_from_u64(seed));
        let wire = insts
            .iter()
            .map(|inst| request_from_instance(data, inst, TOP_K as u16, 0))
            .collect();
        Pool { insts, wire }
    }

    pub fn len(&self) -> usize {
        self.insts.len()
    }
}

/// One round trip: a batch call or one gateway request.
#[derive(Clone, Copy, Debug)]
pub struct Call {
    /// Index of the first request it carried, and that request's pool slot.
    pub first: usize,
    pub slot: usize,
    /// When its caller was free to make it (open loop: when it was due), µs
    /// from phase start.
    pub start_us: f64,
    /// Start to last response byte, µs.
    pub dur_us: f64,
    /// Requests it carried, and how many came back with a list.
    pub sent: usize,
    pub ok: usize,
    /// How long after its start the request was handed to the system: the
    /// load generator's own delay, which is queueing in an open loop.
    pub lag_us: f64,
    /// Most requests any one replica scored back to back in this call.
    pub serial: usize,
    /// Server stage stamps `[enqueued, sealed, scored, written]`, traced
    /// gateway requests only.
    pub echo: Option<[u32; 4]>,
}

/// Everything one timed phase produced.
pub struct Phase {
    /// Requests the phase was to send; those never sent count as failed.
    pub planned: usize,
    pub calls: Vec<Call>,
    /// `(slot, items)` for every response at a slot below [`VERIFY_SLOTS`].
    pub answers: Vec<(usize, Items)>,
    pub wall_s: f64,
    pub cpu_ms: f64,
    pub rss_mb: f64,
}

impl Phase {
    pub fn ok(&self) -> usize {
        self.calls.iter().map(|c| c.ok).sum()
    }

    /// One latency per call that was fully answered, ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.calls
            .iter()
            .filter(|c| c.ok == c.sent)
            .map(|c| c.dur_us / 1e3)
            .collect()
    }

    /// Requests answered in full within `limit_ms`.
    pub fn within(&self, limit_ms: f64) -> usize {
        self.calls
            .iter()
            .filter(|c| c.ok == c.sent && c.dur_us <= limit_ms * 1e3)
            .map(|c| c.ok)
            .sum()
    }
}

/// Runs `body` as the timed region and reads CPU and RSS around it.
fn timed_phase(
    planned: usize,
    body: impl FnOnce(Instant) -> (Vec<Call>, Vec<(usize, Items)>),
) -> Phase {
    let cpu0 = process_cpu_ms();
    let t0 = Instant::now();
    let (mut calls, answers) = body(t0);
    calls.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
    // The phase ends at its last response, not when the threads were joined.
    let wall_s = calls
        .iter()
        .map(|c| c.start_us + c.dur_us)
        .fold(0.0, f64::max)
        / 1e6;
    Phase {
        planned,
        calls,
        answers,
        wall_s,
        cpu_ms: process_cpu_ms() - cpu0,
        rss_mb: rss_mb(),
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One closed-loop caller sending `requests` requests in `batch`-sized
/// `serve_outcomes` calls straight into the engine.
pub fn in_process<B: EngineBackend>(
    engine: &B,
    pool: &Pool,
    batch: usize,
    requests: usize,
) -> Phase {
    let per_pass = pool.len() / batch;
    assert!(per_pass > 0, "request pool smaller than one batch");
    let batches = requests / batch;
    timed_phase(batches * batch, |t0| {
        let mut calls = Vec::with_capacity(batches);
        let mut answers = Vec::new();
        for n in 0..batches {
            let free = t0.elapsed();
            let slot = (n % per_pass) * batch;
            let insts = &pool.insts[slot..slot + batch];
            let mut traces: Vec<TraceCtx> = (0..batch)
                .map(|j| TraceCtx::new((n * batch + j) as u64))
                .collect();
            let called = t0.elapsed();
            let outcomes = engine.serve_outcomes(insts, 1, &mut traces);
            let dur_us = us(t0.elapsed() - free);
            let mut per_replica = [0usize; 8];
            let mut ok = 0;
            for (j, outcome) in outcomes.into_iter().enumerate() {
                if let Ok(served) = outcome {
                    ok += usize::from(!served.degraded);
                    per_replica[served.replica as usize % 8] += 1;
                    if slot + j < VERIFY_SLOTS {
                        answers.push((slot + j, served.rec.items));
                    }
                }
            }
            calls.push(Call {
                first: n * batch,
                slot,
                start_us: us(free),
                dur_us,
                sent: batch,
                ok,
                lag_us: us(called - free),
                serial: per_replica.into_iter().max().unwrap_or(0),
                echo: None,
            });
        }
        (calls, answers)
    })
}

/// How gateway requests are released.
#[derive(Clone, Copy)]
pub enum Arrivals<'a> {
    /// Each connection sends its next request when the last one returned,
    /// until `requests` have been taken.
    Closed { requests: usize },
    /// Requests fall due at these offsets (µs) whether or not the system
    /// keeps up; each is timed from its due time.
    Open { due_us: &'a [f64] },
}

/// A Poisson arrival schedule of `requests` arrivals at `rps`, drawn from
/// `seed`: due times in µs from phase start.
pub fn poisson_schedule(rps: f64, requests: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6f70_656e_6c6f_6f70);
    let mut t = 0.0;
    (0..requests)
        .map(|_| {
            t += -rng.gen_range(f64::MIN_POSITIVE..1.0).ln() / rps * 1e6;
            t
        })
        .collect()
}

/// `conns` gateway connections, one thread each, sharing one request
/// counter. With `trace` set every request carries a trace id and the
/// server's stage stamps come back in its [`Call`].
pub fn gateway(
    addr: SocketAddr,
    pool: &Pool,
    conns: usize,
    arrivals: Arrivals<'_>,
    trace: bool,
) -> Phase {
    let next = AtomicUsize::new(0);
    let planned = match arrivals {
        Arrivals::Closed { requests } => requests,
        Arrivals::Open { due_us } => due_us.len(),
    };
    timed_phase(planned, |t0| {
        let per_conn = std::thread::scope(|s| {
            let workers: Vec<_> = (0..conns)
                .map(|_| s.spawn(|| connection(addr, pool, &next, arrivals, trace, t0)))
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("load-generator thread panicked"))
                .collect::<Vec<_>>()
        });
        let mut calls = Vec::new();
        let mut answers = Vec::new();
        for (c, a) in per_conn {
            calls.extend(c);
            answers.extend(a);
        }
        (calls, answers)
    })
}

fn connection(
    addr: SocketAddr,
    pool: &Pool,
    next: &AtomicUsize,
    arrivals: Arrivals<'_>,
    trace: bool,
    t0: Instant,
) -> (Vec<Call>, Vec<(usize, Items)>) {
    let mut calls = Vec::with_capacity(1 << 14);
    let mut answers = Vec::new();
    let connect = || {
        let mut c = GatewayClient::connect(addr).ok()?;
        c.set_timeout(Some(Duration::from_secs(5))).ok()?;
        Some(c)
    };
    let Some(mut client) = connect() else {
        return (calls, answers);
    };
    loop {
        let free = us(t0.elapsed());
        let i = next.fetch_add(1, Ordering::Relaxed);
        let due = match arrivals {
            Arrivals::Closed { requests } if i >= requests => break,
            Arrivals::Closed { .. } => None,
            Arrivals::Open { due_us } => match due_us.get(i) {
                None => break,
                Some(&d) => {
                    let wait = Duration::from_secs_f64(d / 1e6).saturating_sub(t0.elapsed());
                    if !wait.is_zero() {
                        std::thread::sleep(wait);
                    }
                    Some(d)
                }
            },
        };
        let slot = i % pool.len();
        let traced;
        let req = if trace {
            traced = Request {
                trace_id: Some(i as u64 + 1),
                ..pool.wire[slot].clone()
            };
            &traced
        } else {
            &pool.wire[slot]
        };
        let written = us(t0.elapsed());
        let start_us = due.unwrap_or(free);
        let result = client.recommend(req);
        let mut call = Call {
            first: i,
            slot,
            start_us,
            dur_us: us(t0.elapsed()) - start_us,
            sent: 1,
            ok: 0,
            lag_us: written - start_us,
            serial: 1,
            echo: None,
        };
        match result {
            Ok(resp) => {
                call.ok = 1;
                call.echo = resp.trace.map(|t| t.stage_us);
                if slot < VERIFY_SLOTS {
                    answers.push((slot, resp.items));
                }
                calls.push(call);
            }
            Err(err) => {
                eprintln!("request {i} failed: {err}");
                calls.push(call);
                // The framing of a failed connection cannot be trusted.
                match connect() {
                    Some(c) => client = c,
                    None => break,
                }
            }
        }
    }
    (calls, answers)
}
