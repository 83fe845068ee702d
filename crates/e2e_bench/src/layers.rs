//! Per-layer probes: timed calls into each layer's public functions, made
//! from here so that no layer has to carry instrumentation of its own.
//!
//! The replay pass walks one request through candidate generation →
//! gather-dequantise → frozen forward → top-K exactly as
//! `InferenceSession::serve_one_into` does, timing each step, then times the
//! real `serve_one_into` on the same request and checks that both produced
//! the same list — so the split cannot drift from the engine unnoticed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use stisan_core::StiSan;
use stisan_data::{EvalInstance, Processed};
use stisan_eval::FrozenScorer;
use stisan_gateway::protocol::{decode, encode, Frame};
use stisan_gateway::{request_to_instance, Request, Response};
use stisan_obs::TraceCtx;
use stisan_retrieval::{QuantLevel, RetrievalStats, SeenSet};
use stisan_serve::{
    top_k_into, EngineBackend, EpochModel, InferenceSession, PruningPolicy, Recommendation,
    ServeConfig, ServeScratch, TopKScratch,
};
use stisan_tensor::{Arena, Array};

use crate::loadgen::Pool;
use crate::stats::median;

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// What the probes are pointed at: one epoch's model and retrieval state,
/// served under `cfg`, and the request pool.
#[derive(Clone, Copy)]
pub struct Target<'a> {
    pub epoch: &'a EpochModel<StiSan>,
    pub data: &'a Processed,
    pub cfg: ServeConfig,
    pub pool: &'a Pool,
}

/// One replayed request's time in each engine layer, µs.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerSample {
    /// Pool position of the replayed request.
    pub slot: usize,
    pub candidates_us: f64,
    pub dequant_us: f64,
    pub forward_us: f64,
    pub topk_us: f64,
    pub serve_one_us: f64,
}

/// The replay pass's samples plus the counts taken at the same boundaries.
#[derive(Default)]
pub struct Replay {
    pub samples: Vec<LayerSample>,
    pub stats: RetrievalStats,
    pub dequant_bytes: usize,
    /// Replayed lists that differed from `serve_one_into`'s.
    pub mismatches: usize,
}

impl Replay {
    pub fn median_of(&self, f: impl Fn(&LayerSample) -> f64) -> f64 {
        median(&self.samples.iter().map(f).collect::<Vec<_>>())
    }

    pub fn mean_of(&self, f: impl Fn(&LayerSample) -> f64) -> f64 {
        self.samples.iter().map(f).sum::<f64>() / self.samples.len().max(1) as f64
    }

    pub fn per_req(&self, total: usize) -> f64 {
        total as f64 / self.samples.len().max(1) as f64
    }

    pub fn absorb(&mut self, part: &Replay) {
        self.samples.extend_from_slice(&part.samples);
        add_stats(&mut self.stats, &part.stats);
        self.dequant_bytes += part.dequant_bytes;
        self.mismatches += part.mismatches;
    }
}

/// The engine's request path, taken apart. Holds the same scratch state a
/// `ServeScratch` does so steady-state calls allocate nothing.
struct Stepper<'a> {
    epoch: &'a EpochModel<StiSan>,
    data: &'a Processed,
    cfg: ServeConfig,
    seen: SeenSet,
    cands: Vec<u32>,
    rows: Vec<usize>,
    arena: Arena,
    scores: Vec<f32>,
    topk: TopKScratch,
    ranked: Vec<(usize, f32)>,
}

impl<'a> Stepper<'a> {
    fn new(epoch: &'a EpochModel<StiSan>, data: &'a Processed, cfg: ServeConfig) -> Self {
        Stepper {
            epoch,
            data,
            cfg,
            seen: SeenSet::default(),
            cands: Vec::new(),
            rows: Vec::new(),
            arena: Arena::new(),
            scores: Vec::new(),
            topk: TopKScratch::default(),
            ranked: Vec::new(),
        }
    }

    /// Stage one. Returns the index's provenance counts when it ran.
    fn candidates(&mut self, inst: &EvalInstance) -> Option<RetrievalStats> {
        let num_pois = self.data.num_pois;
        self.cands.clear();
        if let (PruningPolicy::TwoStage { budget, max_ring }, Some(state)) =
            (self.cfg.pruning, &self.epoch.retrieval)
        {
            let last = inst
                .poi
                .iter()
                .rev()
                .copied()
                .find(|&p| p >= 1 && p as usize <= num_pois);
            if let Some(last) = last {
                let recent = &inst.poi[inst.valid_from.min(inst.poi.len())..];
                return Some(state.index.candidates_into(
                    self.data.loc(last),
                    recent,
                    budget,
                    max_ring,
                    &mut self.seen,
                    &mut self.cands,
                ));
            }
        }
        self.cands.extend(1..=num_pois as u32);
        None
    }

    /// Gathers and dequantises the candidates' rows when the table is
    /// quantised; `None` means the model's own f32 table is scored directly.
    fn dequant(&mut self, staged: bool) -> Option<Array> {
        let state = self.epoch.retrieval.as_ref()?;
        if !staged || state.table.level() == QuantLevel::F32 {
            return None;
        }
        let (m, d) = (self.cands.len(), state.table.dim());
        self.rows.clear();
        self.rows.extend(self.cands.iter().map(|&c| c as usize));
        let mut buf = self.arena.take(m * d);
        let rows = Arc::get_mut(&mut buf).expect("arena hands out unique buffers");
        state.table.dequant_rows_into(&self.rows, rows);
        Some(Array::from_shared(vec![m, d], buf))
    }

    fn forward(&mut self, inst: &EvalInstance, embeds: Option<Array>) {
        let model = &self.epoch.model;
        match embeds {
            Some(embeds) => {
                model.score_frozen_with_embeds(
                    self.data,
                    inst,
                    &self.cands,
                    &embeds,
                    &mut self.arena,
                    &mut self.scores,
                );
                self.arena.recycle_array(embeds);
            }
            None => model.score_frozen_into(
                self.data,
                inst,
                &self.cands,
                &mut self.arena,
                &mut self.scores,
            ),
        }
    }

    fn top_k(&mut self) {
        top_k_into(
            &self.scores,
            self.cfg.top_k,
            &mut self.topk,
            &mut self.ranked,
        );
    }
}

/// One replay worker: the engine's own path and the taken-apart one, side
/// by side, with the buffers each keeps between requests.
struct Replayer<'a> {
    session: InferenceSession<'a, StiSan>,
    scratch: ServeScratch,
    rec: Recommendation,
    stepper: Stepper<'a>,
    done: usize,
    out: Replay,
}

impl<'a> Replayer<'a> {
    fn new(epoch: &'a EpochModel<StiSan>, data: &'a Processed, cfg: ServeConfig) -> Self {
        let session =
            InferenceSession::with_retrieval(&epoch.model, data, cfg, epoch.retrieval.clone());
        Replayer {
            scratch: session.checkout_scratch(),
            session,
            rec: Recommendation::default(),
            stepper: Stepper::new(epoch, data, cfg),
            done: 0,
            out: Replay::default(),
        }
    }

    fn one(&mut self, slot: usize, inst: &EvalInstance) {
        let i = self.done;
        self.done += 1;
        let mut sample = LayerSample {
            slot,
            ..LayerSample::default()
        };
        let (session, scratch, rec) = (&self.session, &mut self.scratch, &mut self.rec);
        let mut time_serve_one = |sample: &mut LayerSample| {
            let t = Instant::now();
            session.serve_one_into(inst, scratch, rec);
            sample.serve_one_us = us_since(t);
        };
        // Whichever path runs second finds the request's rows in cache, so
        // the two take turns going first.
        if i.is_multiple_of(2) {
            time_serve_one(&mut sample);
        }
        let stepper = &mut self.stepper;
        let t = Instant::now();
        let stats = stepper.candidates(inst);
        sample.candidates_us = us_since(t);
        let t = Instant::now();
        let embeds = stepper.dequant(stats.is_some());
        sample.dequant_us = us_since(t);
        let gathered = embeds
            .as_ref()
            .map_or(0, |e| std::mem::size_of_val(e.data()));
        let t = Instant::now();
        stepper.forward(inst, embeds);
        sample.forward_us = us_since(t);
        let t = Instant::now();
        stepper.top_k();
        sample.topk_us = us_since(t);
        if i % 2 == 1 {
            time_serve_one(&mut sample);
        }
        if i == 0 {
            // The first request only warms the buffers on both paths.
            return;
        }
        let same = self.rec.items.len() == stepper.ranked.len()
            && self
                .rec
                .items
                .iter()
                .zip(&stepper.ranked)
                .all(|(&(poi, score), &(j, s))| {
                    poi == stepper.cands[j] && score.to_bits() == s.to_bits()
                });
        let out = &mut self.out;
        out.mismatches += usize::from(!same);
        if let Some(st) = stats {
            add_stats(&mut out.stats, &st);
        }
        out.dequant_bytes += gathered;
        out.samples.push(sample);
    }
}

/// Replays pool requests layer by layer, from pool position `from` on,
/// until `budget` is spent, on `threads` threads at once: a workload whose
/// replicas score side by side is replayed side by side, so the layer times
/// include what the replicas cost each other in cache, memory bandwidth and
/// the metrics lock.
///
/// Each lot of `per_thread` requests runs on a thread spawned for it, as a
/// replica's share of one `serve_outcomes` call does. This host's cores run
/// at speeds that differ by a quarter from one second to the next, and the
/// kernel places a thread spawned this way as it places the engine's, so
/// the replay sees the cores the engine sees.
pub fn replay(
    target: Target<'_>,
    from: usize,
    budget: Duration,
    threads: usize,
    per_thread: usize,
) -> Replay {
    let Target {
        epoch,
        data,
        cfg,
        pool,
    } = target;
    let mut workers: Vec<Replayer<'_>> = (0..threads)
        .map(|_| Replayer::new(epoch, data, cfg))
        .collect();
    let mut next = from;
    let t0 = Instant::now();
    while t0.elapsed() < budget {
        std::thread::scope(|s| {
            for (t, worker) in workers.iter_mut().enumerate() {
                let first = next + t * per_thread;
                s.spawn(move || {
                    for slot in (first..first + per_thread).map(|i| i % pool.len()) {
                        worker.one(slot, &pool.insts[slot]);
                    }
                });
            }
        });
        next += threads * per_thread;
    }
    let mut out = Replay::default();
    for worker in &workers {
        out.absorb(&worker.out);
    }
    out
}

fn add_stats(into: &mut RetrievalStats, st: &RetrievalStats) {
    into.candidates += st.candidates;
    into.ring_expansions += st.ring_expansions;
    into.from_revisit += st.from_revisit;
    into.from_cells += st.from_cells;
    into.from_popularity += st.from_popularity;
}

/// Per-kernel self time and FLOPs of the frozen forward pass, from the
/// serve profiler's kernel table.
pub struct KernelTable {
    /// Wall time of the profiled forward calls, µs per request.
    pub forward_us: f64,
    pub flops_per_req: f64,
    /// `(kind, µs per request)` for every kernel kind that ran.
    pub kinds: Vec<(&'static str, f64)>,
}

impl KernelTable {
    pub fn us_per_req(&self, kind: &str) -> f64 {
        self.kinds
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0.0, |&(_, us)| us)
    }

    /// Share of forward time the counted kernels account for.
    pub fn coverage_frac(&self) -> f64 {
        self.kinds.iter().map(|(_, us)| us).sum::<f64>() / self.forward_us.max(1e-9)
    }
}

/// Runs `requests` forward passes with serve profiling on and reads the
/// kernel table. Profiling is switched off again before returning.
pub fn kernel_table(target: Target<'_>, requests: usize) -> KernelTable {
    let Target {
        epoch,
        data,
        cfg,
        pool,
    } = target;
    let mut stepper = Stepper::new(epoch, data, cfg);
    let profiler = &stisan_obs::init().serve_prof;
    let mut forward_us = 0.0;
    for (i, inst) in pool.insts.iter().cycle().take(requests + 1).enumerate() {
        if i == 1 {
            // Request 0 warmed the arena; profile from here.
            stisan_obs::flame::enable();
            profiler.reset();
        }
        let stats = stepper.candidates(inst);
        let embeds = stepper.dequant(stats.is_some());
        let t = Instant::now();
        stepper.forward(inst, embeds);
        if i > 0 {
            forward_us += us_since(t);
        }
    }
    stisan_obs::flame::disable();
    let n = requests.max(1) as f64;
    let rows = profiler.kernels.snapshot();
    KernelTable {
        forward_us: forward_us / n,
        flops_per_req: rows.iter().map(|r| r.stats.flops).sum::<u64>() as f64 / n,
        kinds: rows
            .iter()
            .map(|r| (r.kind, r.stats.forward_ns as f64 / 1e3 / n))
            .collect(),
    }
}

/// Timed `serve_outcomes` calls through the replica pool, µs per call.
#[derive(Default)]
pub struct ReplicaProbe {
    pub batch1_us: Vec<f64>,
    /// What a batch-1 call costs beyond `serve_one_into` on the same
    /// request: per-batch thread spawn and the cold per-batch session.
    pub overhead_us: Vec<f64>,
    pub batch32_us: Vec<f64>,
}

/// Each pass times one batch of 32, then a few of its requests one at a
/// time through the replica pool, then the same requests directly on a
/// session: all within ~0.1 s, so that a drift in host speed hits everything
/// being compared alike. Calls of one kind run back to back and the first of
/// each run is dropped, because alternating between the two paths call by
/// call slows both. Passes start at the pool's `from`-th batch and go on
/// until `budget` is spent.
pub fn replica_probe<B: EngineBackend>(
    engine: &B,
    target: Target<'_>,
    from: usize,
    budget: Duration,
) -> ReplicaProbe {
    let Target {
        epoch,
        data,
        cfg,
        pool,
    } = target;
    const SINGLES: usize = 6;
    let session =
        InferenceSession::with_retrieval(&epoch.model, data, cfg, epoch.retrieval.clone());
    let mut scratch = session.checkout_scratch();
    let mut rec = Recommendation::default();
    let through_pool = |insts: &[EvalInstance]| {
        let mut traces: Vec<TraceCtx> = (0..insts.len()).map(|j| TraceCtx::new(j as u64)).collect();
        let t = Instant::now();
        std::hint::black_box(engine.serve_outcomes(insts, 1, &mut traces));
        us_since(t)
    };
    let mut out = ReplicaProbe::default();
    let batches = pool.len() / 32;
    let t0 = Instant::now();
    for (pass, insts) in pool
        .insts
        .chunks_exact(32)
        .cycle()
        .skip(from % batches.max(1))
        .enumerate()
    {
        if pass > 0 && t0.elapsed() >= budget {
            break;
        }
        out.batch32_us.push(through_pool(insts));
        let singles: Vec<f64> = insts[..SINGLES]
            .iter()
            .map(|inst| through_pool(std::slice::from_ref(inst)))
            .collect();
        // On a spawned thread, like the engine's scoring (see `replay`).
        let direct: Vec<f64> = std::thread::scope(|s| {
            let direct = s.spawn(|| {
                insts[..SINGLES]
                    .iter()
                    .map(|inst| {
                        let t = Instant::now();
                        session.serve_one_into(inst, &mut scratch, &mut rec);
                        us_since(t)
                    })
                    .collect()
            });
            direct.join().expect("probe thread panicked")
        });
        out.batch1_us.extend(&singles[1..]);
        out.overhead_us
            .push(median(&singles[1..]) - median(&direct[1..]));
    }
    out
}

/// Wire-side costs of one request, µs: frame codec both ways, and the
/// server's validation and re-padding of the request.
pub struct WireProbe {
    pub codec_us: f64,
    pub request_to_instance_us: f64,
}

pub fn wire_probe(data: &Processed, req: &Request, items: &[(u32, f32)]) -> WireProbe {
    const ROUNDS: usize = 2000;
    let request = Frame::Request(req.clone());
    let response = Frame::Response(Response {
        pool: data.num_pois as u32,
        scored: data.num_pois as u32,
        items: items.to_vec(),
        trace: None,
    });
    let t = Instant::now();
    for _ in 0..ROUNDS {
        for frame in [&request, &response] {
            let bytes = encode(std::hint::black_box(frame));
            std::hint::black_box(decode(&bytes).expect("own frame decodes"));
        }
    }
    let codec_us = us_since(t) / ROUNDS as f64;
    let t = Instant::now();
    for _ in 0..ROUNDS {
        std::hint::black_box(request_to_instance(data, std::hint::black_box(req)))
            .expect("own request validates");
    }
    WireProbe {
        codec_us,
        request_to_instance_us: us_since(t) / ROUNDS as f64,
    }
}

/// Cost of one metrics-registry call with observability on, ns.
pub struct ObsProbe {
    pub observe_ns: f64,
    pub counter_ns: f64,
    /// `observe` while a second thread does the same.
    pub observe_contended_ns: f64,
}

pub fn obs_probe() -> ObsProbe {
    const CALLS: usize = 100_000;
    let ns_per_call = |f: &dyn Fn(usize)| {
        let t = Instant::now();
        for i in 0..CALLS {
            f(i);
        }
        t.elapsed().as_secs_f64() * 1e9 / CALLS as f64
    };
    let observe = |i: usize| stisan_obs::observe("e2e_bench.probe_hist", i as f64);
    let observe_ns = ns_per_call(&observe);
    let counter_ns = ns_per_call(&|_| stisan_obs::counter("e2e_bench.probe_counter", 1));
    let observe_contended_ns = std::thread::scope(|s| {
        let other = s.spawn(|| ns_per_call(&observe));
        let mine = ns_per_call(&observe);
        (mine + other.join().expect("probe thread panicked")) / 2.0
    });
    ObsProbe {
        observe_ns,
        counter_ns,
        observe_contended_ns,
    }
}
