//! The four workloads, and the two kinds of run each gets: an untraced run
//! that yields the end-to-end metrics and a traced run that yields the
//! per-layer ledger and the waterfall.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use stisan_core::StiSan;
use stisan_data::Processed;
use stisan_eval::FrozenScorer;
use stisan_gateway::{Gateway, GatewayConfig, GatewayHandle, GatewayStats};
use stisan_serve::{
    EpochModel, InferenceSession, PruningPolicy, QuantLevel, ReplicatedEngine, RetrievalState,
    ServeConfig,
};

use crate::json::Value;
use crate::layers::{self, LayerSample, Replay, ReplicaProbe, Target};
use crate::loadgen::{self, Arrivals, Call, Items, Phase, Pool, VERIFY_SLOTS};
use crate::setup::{self, Backend, SetupTimes, TOP_K};
use crate::stats::{median, percentile};
use crate::trace::{Spans, Waterfall};

/// How a workload offers load.
#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// One closed-loop caller of `EngineBackend::serve_outcomes`.
    InProcess { batch: usize },
    /// Closed-loop `GatewayClient` connections over loopback TCP.
    Closed { conns: usize },
    /// A seeded Poisson schedule at `rps`, drained by `conns` connections.
    Open { conns: usize, rps: f64 },
}

pub struct Spec {
    pub name: &'static str,
    /// Served from the large catalogue (else the small one).
    pub large: bool,
    pub backend: Backend,
    pub load: Load,
    /// Requests per second of `--seconds`: the request count is fixed by the
    /// run length, not by how fast the system happens to be.
    pub requests_per_s: f64,
    /// The latency limit behind `slo_miss_frac`; gateway workloads only.
    pub slo_ms: Option<f64>,
}

impl Spec {
    /// Requests in the timed phase of an untraced run of `seconds`.
    pub fn requests(&self, seconds: f64) -> usize {
        let batch = match self.load {
            Load::InProcess { batch } => batch,
            _ => 1,
        };
        ((self.requests_per_s * seconds).round() as usize / batch).max(1) * batch
    }
}

const TWO_STAGE: PruningPolicy = PruningPolicy::TwoStage {
    budget: 256,
    max_ring: 6,
};

/// Why each was chosen is recorded in BENCHMARK.json and the README. The
/// batch and gateway workloads are given about the rate they sustain, so
/// their timed phase lasts about `--seconds`. `full_scan_10k` is given twice
/// what it sustains: it is the one workload that is a single CPU-bound
/// thread, and it needs the longer phase to see both of the speeds this
/// host's cores move between (see the README).
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "full_scan_10k",
        large: false,
        backend: Backend {
            pruning: PruningPolicy::Full,
            quant: QuantLevel::F32,
            replicas: 1,
        },
        load: Load::InProcess { batch: 1 },
        requests_per_s: 4000.0 / 12.0,
        slo_ms: None,
    },
    Spec {
        name: "two_stage_batch_100k",
        large: true,
        backend: Backend {
            pruning: TWO_STAGE,
            quant: QuantLevel::I8,
            replicas: 2,
        },
        load: Load::InProcess { batch: 32 },
        requests_per_s: 2000.0,
        slo_ms: None,
    },
    Spec {
        name: "gateway_closed_100k",
        large: true,
        backend: Backend {
            pruning: TWO_STAGE,
            quant: QuantLevel::I8,
            replicas: 2,
        },
        load: Load::Closed { conns: 2 },
        requests_per_s: 500.0,
        slo_ms: Some(10.0),
    },
    Spec {
        name: "gateway_open_10k",
        large: false,
        backend: Backend {
            pruning: TWO_STAGE,
            quant: QuantLevel::F32,
            replicas: 2,
        },
        load: Load::Open {
            conns: 2,
            rps: 300.0,
        },
        requests_per_s: 300.0,
        slo_ms: Some(10.0),
    },
];

/// `(name, unit)` of every end-to-end metric, as in BENCHMARK.json.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("slo_ok_frac", "frac"),
    ("recall_at_10_vs_f32", "frac"),
    ("candidate_recall", "frac"),
    ("serving_rss_mb", "MB"),
    ("cpu_ms_per_req", "ms"),
];

/// `(name, lower is better, bound)` of the three end-to-end metrics that the
/// traced run reports, among the per-layer metrics, because BENCHMARK.json's
/// end-to-end list cannot hold them: it takes no metric that is 0 (the two
/// fractions are, on a clean run), none that moves by more than a quarter
/// from seed to seed (the recall does: 0.02 to 0.06 at 100k POIs), and no
/// absolute bound. `--compare` judges them against the absolute change
/// given here. The untraced run carries the same facts in a form the driver
/// can gate: its `failed` count, `slo_ok_frac`, and the two recalls above.
pub const ABSOLUTE_BOUNDS: [(&str, bool, f64); 3] = [
    ("failed_frac", true, 0.001),
    ("slo_miss_frac", true, 0.01),
    ("recall_at_10_vs_exact", false, 0.005),
];

/// `(name, unit)` of every per-layer metric, as in BENCHMARK.json.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("failed_frac", "frac"),
    ("slo_miss_frac", "frac"),
    ("recall_at_10_vs_exact", "frac"),
    ("loadgen.latency_p99_ms", "ms"),
    ("loadgen.requests_sent", "count"),
    ("loadgen.requests_ok", "count"),
    ("loadgen.requests_failed", "count"),
    ("loadgen.schedule_lag_p99_ms", "ms"),
    ("tracing_overhead_frac", "frac"),
    ("waterfall.unexplained_frac", "frac"),
    ("data.synth.generate_s", "s"),
    ("data.prep.preprocess_s", "s"),
    ("core.model.fit_s", "s"),
    ("core.model.table_build_s", "s"),
    ("retrieval.index.build_s", "s"),
    ("retrieval.table.quantize_s", "s"),
    ("retrieval.table.bytes", "bytes"),
    ("gateway.protocol.codec_us", "us"),
    ("gateway.server.request_to_instance_us", "us"),
    ("gateway.server.admit_us", "us"),
    ("gateway.batcher.queue_wait_p50_us", "us"),
    ("gateway.batcher.queue_wait_p95_us", "us"),
    ("gateway.batcher.batch_fill_mean", "req/batch"),
    ("gateway.server.score_p50_us", "us"),
    ("gateway.server.write_p50_us", "us"),
    ("gateway.server.transport_remainder_us", "us"),
    ("gateway.server.shed", "count"),
    ("gateway.server.deadline_exceeded", "count"),
    ("gateway.server.internal_errors", "count"),
    ("serve.replica.batch1_us", "us"),
    ("serve.replica.overhead_us", "us"),
    ("serve.replica.batch32_scaling", "x"),
    ("serve.engine.serve_one_us", "us"),
    ("serve.engine.remainder_us", "us"),
    ("serve.topk.select_us", "us"),
    ("retrieval.index.candidates_us", "us"),
    ("retrieval.index.candidates_per_req", "count"),
    ("retrieval.index.from_revisit_frac", "frac"),
    ("retrieval.index.from_cells_frac", "frac"),
    ("retrieval.index.from_popularity_frac", "frac"),
    ("retrieval.index.ring_expansions_per_req", "count"),
    ("retrieval.table.dequant_us", "us"),
    ("retrieval.table.dequant_bytes_per_req", "bytes"),
    ("core.model.forward_us", "us"),
    ("core.model.forward_flops_per_req", "flop"),
    ("tensor.kernels.bmm_us_per_req", "us"),
    ("tensor.kernels.softmax_us_per_req", "us"),
    ("tensor.kernels.linear_us_per_req", "us"),
    ("tensor.kernels.layer_norm_us_per_req", "us"),
    ("tensor.kernels.gather_us_per_req", "us"),
    ("tensor.kernels.coverage_frac", "frac"),
    ("obs.metrics.observe_ns", "ns"),
    ("obs.metrics.counter_ns", "ns"),
    ("obs.metrics.observe_contended_ns", "ns"),
];

/// Catalogue sizes and run shape, shared by every workload of an invocation.
#[derive(Clone, Debug)]
pub struct RunOpts {
    pub seed: u64,
    /// Sets every request count: see [`Spec::requests`].
    pub seconds: f64,
    pub pois_small: usize,
    pub pois_large: usize,
    pub work_dir: PathBuf,
}

/// One run's result: the driver's four keys plus what identifies the run.
pub struct Record {
    pub workload: &'static str,
    pub trace: bool,
    pub seed: u64,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    pub waterfall: Option<Value>,
}

impl Record {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Exactly the object the driver reads from the last line of stdout.
    pub fn driver_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, unit, value)| {
                let m = Value::obj([("value", Value::Num(value)), ("unit", Value::str(unit))]);
                (name.to_string(), m)
            })
            .collect();
        Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ])
    }

    pub fn ledger_json(&self) -> Value {
        let mut fields = vec![
            ("workload".to_string(), Value::str(self.workload)),
            ("trace".to_string(), Value::Bool(self.trace)),
            ("seed".to_string(), Value::Num(self.seed as f64)),
        ];
        fields.extend_from_slice(self.driver_json().fields());
        if let Some(w) = &self.waterfall {
            fields.push(("waterfall".to_string(), w.clone()));
        }
        Value::Obj(fields)
    }

    pub fn print(&self) {
        let mode = if self.trace { "traced" } else { "untraced" };
        println!(
            "{} ({mode}, seed {}): attempted {} failed {}",
            self.workload, self.seed, self.attempted, self.failed
        );
        for &(name, unit, value) in &self.metrics {
            println!("  {name:<42} {value:>16.4} {unit}");
        }
    }
}

/// Collects a record's metrics, taking each unit from the tables above so a
/// name that BENCHMARK.json does not know cannot be emitted.
struct Metrics {
    table: &'static [(&'static str, &'static str)],
    out: Vec<(&'static str, &'static str, f64)>,
}

impl Metrics {
    fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        Metrics {
            table,
            out: Vec::with_capacity(table.len()),
        }
    }

    fn put(&mut self, name: &str, value: f64) {
        let &(name, unit) = self
            .table
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        assert!(
            !self.out.iter().any(|(n, _, _)| *n == name),
            "metric {name} reported twice"
        );
        self.out.push((name, unit, value));
    }

    fn finish(self) -> Vec<(&'static str, &'static str, f64)> {
        assert_eq!(
            self.out.len(),
            self.table.len(),
            "every declared metric must be reported"
        );
        self.out
    }
}

/// `serve_one` under `cfg` and `retrieval` at pool slots `0..VERIFY_SLOTS`.
/// With the workload's own config and retrieval state, this is what every
/// served list at those slots must equal.
fn direct_lists(
    model: &StiSan,
    retrieval: Option<Arc<RetrievalState>>,
    data: &Processed,
    cfg: ServeConfig,
    pool: &Pool,
) -> Vec<Items> {
    let session = InferenceSession::with_retrieval(model, data, cfg, retrieval);
    pool.insts[..VERIFY_SLOTS.min(pool.len())]
        .iter()
        .map(|inst| session.serve_one(inst).items)
        .collect()
}

/// The exact full-scan top-K at the same slots. The scans are spread over
/// the host's cores: at 100k POIs one takes ~60 ms.
fn exact_lists(epoch: &EpochModel<StiSan>, data: &Processed, pool: &Pool) -> Vec<Items> {
    let exact_cfg = ServeConfig {
        top_k: TOP_K,
        pruning: PruningPolicy::Full,
        quant: QuantLevel::F32,
        ..ServeConfig::default()
    };
    let insts = &pool.insts[..VERIFY_SLOTS.min(pool.len())];
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|s| {
        let workers: Vec<_> = insts
            .chunks(insts.len().div_ceil(threads).max(1))
            .map(|insts| {
                s.spawn(move || {
                    let session =
                        InferenceSession::with_retrieval(&epoch.model, data, exact_cfg, None);
                    insts
                        .iter()
                        .map(|inst| session.serve_one(inst).items)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("full-scan thread panicked"))
            .collect()
    })
}

/// What the workload's own candidates give when scored at f32 precision, at
/// the same slots; `None` when that is what the workload serves anyway.
fn f32_lists(
    epoch: &EpochModel<StiSan>,
    data: &Processed,
    cfg: ServeConfig,
    pool: &Pool,
) -> Option<Vec<Items>> {
    let state = epoch.retrieval.as_ref()?;
    if state.table.level() == QuantLevel::F32 {
        return None;
    }
    let table = epoch.model.export_candidate_table()?;
    let at_f32 = Arc::new(RetrievalState::build(data, table, QuantLevel::F32));
    let cfg = ServeConfig {
        quant: QuantLevel::F32,
        ..cfg
    };
    Some(direct_lists(&epoch.model, Some(at_f32), data, cfg, pool))
}

/// Share of the POIs in `reference` that the list at the same slot of
/// `served` also holds.
fn recall(reference: &[Items], served: &[Items]) -> f64 {
    let (mut hit, mut total) = (0usize, 0usize);
    for (want, got) in reference.iter().zip(served) {
        total += want.len();
        hit += want
            .iter()
            .filter(|(poi, _)| got.iter().any(|(q, _)| q == poi))
            .count();
    }
    hit as f64 / total.max(1) as f64
}

/// Share of pool requests whose held-out next POI is among the candidates
/// the workload scores.
fn candidate_recall(
    epoch: &EpochModel<StiSan>,
    data: &Processed,
    cfg: ServeConfig,
    pool: &Pool,
) -> f64 {
    let session =
        InferenceSession::with_retrieval(&epoch.model, data, cfg, epoch.retrieval.clone());
    let mut cands = Vec::new();
    let covered = pool
        .insts
        .iter()
        .filter(|inst| {
            session.candidates_into(inst, &mut cands);
            cands.binary_search(&inst.target).is_ok()
        })
        .count();
    covered as f64 / pool.len().max(1) as f64
}

/// Responses in `phase` that differ from the direct call on the same
/// instance.
fn wrong(direct: &[Items], phase: &Phase) -> usize {
    let same = |a: &Items, b: &Items| {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
    };
    phase
        .answers
        .iter()
        .filter(|(slot, items)| !same(items, &direct[*slot]))
        .count()
}

/// A phase together with the gateway counters it moved.
struct Driven {
    phase: Phase,
    gateway: GatewayStats,
}

fn stats_delta(after: GatewayStats, before: GatewayStats) -> GatewayStats {
    GatewayStats {
        served: after.served - before.served,
        batches: after.batches - before.batches,
        shed: after.shed - before.shed,
        deadline_exceeded: after.deadline_exceeded - before.deadline_exceeded,
        internal_errors: after.internal_errors - before.internal_errors,
        ..GatewayStats::default()
    }
}

struct ShutdownOnDrop<'a>(&'a GatewayHandle);

impl Drop for ShutdownOnDrop<'_> {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Hands `body` a function that runs one phase of `(requests, traced)` under
/// the workload's load shape. Gateway loads run behind one
/// default-configured `Gateway` that stays up until `body` returns.
fn with_load<T>(
    spec: &Spec,
    engine: &ReplicatedEngine<'_, StiSan>,
    pool: &Pool,
    opts: &RunOpts,
    body: impl FnOnce(&mut dyn FnMut(usize, bool) -> Driven) -> T,
) -> T {
    if let Load::InProcess { batch } = spec.load {
        return body(&mut |requests, _traced| Driven {
            phase: loadgen::in_process(engine, pool, batch, requests),
            gateway: GatewayStats::default(),
        });
    }
    let cfg = GatewayConfig {
        flight_dir: Some(opts.work_dir.clone()),
        ..GatewayConfig::default()
    };
    let gw = Gateway::bind("127.0.0.1:0", cfg).expect("bind a loopback port");
    let handle = gw.handle();
    std::thread::scope(|s| {
        let server = s.spawn(move || gw.serve(engine));
        // Shut the server down even if `body` panics: the scope would
        // otherwise wait for it for ever.
        let stop = ShutdownOnDrop(&handle);
        let out = body(&mut |requests, traced| {
            let before = handle.stats();
            let phase = match spec.load {
                Load::Closed { conns } => loadgen::gateway(
                    handle.addr(),
                    pool,
                    conns,
                    Arrivals::Closed { requests },
                    traced,
                ),
                Load::Open { conns, rps } => {
                    let due_us = loadgen::poisson_schedule(rps, requests, opts.seed);
                    loadgen::gateway(
                        handle.addr(),
                        pool,
                        conns,
                        Arrivals::Open { due_us: &due_us },
                        traced,
                    )
                }
                Load::InProcess { .. } => unreachable!("handled above"),
            };
            Driven {
                phase,
                gateway: stats_delta(handle.stats(), before),
            }
        });
        drop(stop);
        server
            .join()
            .expect("gateway thread panicked")
            .expect("gateway serve failed");
        out
    })
}

fn pois(spec: &Spec, opts: &RunOpts) -> usize {
    if spec.large {
        opts.pois_large
    } else {
        opts.pois_small
    }
}

/// Requests of `phase` answered within the workload's latency limit; all
/// that were answered when it has none.
fn within_slo(spec: &Spec, phase: &Phase) -> usize {
    match spec.slo_ms {
        Some(limit) => phase.within(limit),
        None => phase.ok(),
    }
}

/// The untraced run: set-up, a warm-up of a tenth of the request count, the
/// timed phase, then the correctness and recall checks (after the phase, so
/// that what they allocate does not count towards `serving_rss_mb`).
pub fn run_untraced(spec: &Spec, opts: &RunOpts) -> Record {
    let mut times = SetupTimes::default();
    let (data, model) = setup::train(pois(spec, opts), opts.seed, &mut times);
    let engine = setup::engine(&data, model, spec.backend, &mut times);
    let pool = Pool::new(&data, opts.seed);

    let requests = spec.requests(opts.seconds);
    let phase = with_load(spec, &engine, &pool, opts, |run| {
        run(requests / 10, false);
        run(requests, false).phase
    });

    let cfg = spec.backend.serve_config();
    let epoch = engine.shared().current();
    let direct = direct_lists(&epoch.model, epoch.retrieval.clone(), &data, cfg, &pool);
    let at_f32 = f32_lists(&epoch, &data, cfg, &pool);

    let planned = phase.planned.max(1);
    let ok = phase.ok().saturating_sub(wrong(&direct, &phase));
    let lat = phase.latencies_ms();
    let mut m = Metrics::new(&END_TO_END);
    m.put("setup_s", times.total_s);
    m.put("throughput_rps", ok as f64 / phase.wall_s.max(1e-9));
    m.put("latency_p50_ms", percentile(&lat, 0.50));
    m.put("latency_p95_ms", percentile(&lat, 0.95));
    m.put(
        "slo_ok_frac",
        within_slo(spec, &phase).min(ok) as f64 / planned as f64,
    );
    m.put(
        "recall_at_10_vs_f32",
        at_f32.map_or(1.0, |reference| recall(&reference, &direct)),
    );
    m.put(
        "candidate_recall",
        candidate_recall(&epoch, &data, cfg, &pool),
    );
    m.put("serving_rss_mb", phase.rss_mb);
    m.put("cpu_ms_per_req", phase.cpu_ms / ok.max(1) as f64);
    Record {
        workload: spec.name,
        trace: false,
        seed: opts.seed,
        attempted: planned,
        failed: planned - ok,
        metrics: m.finish(),
        waterfall: None,
    }
}

/// One traced gateway call's time in each stage, µs, in path order; the six
/// add up to the call's latency.
type Stages = [f64; 6];
const LAG: usize = 0;
const TRANSPORT: usize = 1;
const ADMIT: usize = 2;
const QUEUE: usize = 3;
const SCORE: usize = 4;
const WRITE: usize = 5;

/// The stage split of every call in `calls` that echoed the server's stamps.
fn stage_times(calls: &[Call]) -> Vec<Stages> {
    calls
        .iter()
        .filter_map(|c| {
            let e = c.echo?.map(f64::from);
            Some([
                c.lag_us,
                c.dur_us - c.lag_us - e[3],
                e[0],
                e[1] - e[0],
                e[2] - e[1],
                e[3] - e[2],
            ])
        })
        .collect()
}

fn mean_stages(times: &[Stages]) -> Stages {
    let mut mean = [0.0; 6];
    for t in times {
        for (m, v) in mean.iter_mut().zip(t) {
            *m += v / times.len() as f64;
        }
    }
    mean
}

/// Each stage's own median over a traced phase.
fn stage_medians(times: &[Stages]) -> Stages {
    let mut out: Stages =
        std::array::from_fn(|i| median(&times.iter().map(|t| t[i]).collect::<Vec<_>>()));
    // Whole microseconds: the median would read 1 on every run.
    out[ADMIT] = mean_stages(times)[ADMIT];
    out
}

/// The stage split of the median request: each stage averaged over the
/// fifth of the calls whose latency is nearest the median. These sum to the
/// p50; the stages' own medians do not, because the stages are skewed (a
/// batch-mate on the same replica doubles `score`) and not independent.
fn median_request(mut times: Vec<Stages>) -> Stages {
    times.sort_by(|a, b| a.iter().sum::<f64>().total_cmp(&b.iter().sum::<f64>()));
    let n = times.len();
    mean_stages(&times[n * 2 / 5..(n * 3).div_ceil(5)])
}

/// Rounds a traced run is cut into.
const ROUNDS: usize = 5;

/// One round of a traced run: a slice of the untraced load, the same slice
/// with tracing on (gateway loads), and a slice of each engine probe.
///
/// The host this runs on moves between speed levels ~25% apart every few
/// seconds. A round is short enough to sit in one level, so everything it
/// measures saw the same host; quantities that are set against each other —
/// waterfall rows against the p50, traced against untraced — are therefore
/// taken per round and averaged over the rounds, leaving out the lowest and
/// the highest so that one round the host stalled in does not decide them.
struct Round {
    untraced: Driven,
    traced: Option<Driven>,
    replay: Replay,
    replica: ReplicaProbe,
}

/// Mean of the values between the lowest and the highest.
fn typical(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    let inner = if v.len() > 2 {
        &v[1..v.len() - 1]
    } else {
        &v[..]
    };
    inner.iter().sum::<f64>() / inner.len().max(1) as f64
}

fn over_rounds(rounds: &[Round], stat: impl Fn(&Round) -> f64) -> f64 {
    typical(rounds.iter().map(stat))
}

fn p50_us(phase: &Phase) -> f64 {
    1e3 * percentile(&phase.latencies_ms(), 0.50)
}

/// The traced run: set-up once (its stage split is the point), a warm-up,
/// then [`ROUNDS`] rounds that together send a quarter of the workload's
/// request count untraced and, through the gateway, once more traced.
pub fn run_traced(spec: &Spec, opts: &RunOpts) -> Record {
    let mut times = SetupTimes::default();
    let (data, model) = setup::train(pois(spec, opts), opts.seed, &mut times);
    let engine = setup::engine(&data, model, spec.backend, &mut times);
    let pool = Pool::new(&data, opts.seed);
    let cfg = spec.backend.serve_config();
    let epoch = engine.shared().current();
    let direct = direct_lists(&epoch.model, epoch.retrieval.clone(), &data, cfg, &pool);

    let target = Target {
        epoch: &epoch,
        data: &data,
        cfg,
        pool: &pool,
    };
    let in_process = matches!(spec.load, Load::InProcess { .. });
    // Replicas score side by side only when a call brings them work at once.
    let side_by_side = match spec.load {
        Load::InProcess { batch } => batch.min(spec.backend.replicas),
        _ => 1,
    };
    // Requests one replica scores back to back in one call.
    let per_thread = match spec.load {
        Load::InProcess { batch } => (batch / spec.backend.replicas).max(1),
        _ => 1,
    };
    let requests = spec.requests(opts.seconds);
    let per_round = spec.requests(opts.seconds / 4.0 / ROUNDS as f64);
    let replay_budget = Duration::from_secs_f64(opts.seconds * 0.2 / ROUNDS as f64);
    let probe_budget = Duration::from_secs_f64(opts.seconds * 0.1 / ROUNDS as f64);
    let rounds: Vec<Round> = with_load(spec, &engine, &pool, opts, |run| {
        run(requests / 10, false);
        let mut replayed = 0;
        (0..ROUNDS)
            .map(|r| {
                let untraced = run(per_round, false);
                let traced = (!in_process).then(|| run(per_round, true));
                let replay =
                    layers::replay(target, replayed, replay_budget, side_by_side, per_thread);
                // Each replay thread also spent one request warming up.
                replayed += replay.samples.len() + side_by_side;
                let replica = layers::replica_probe(&engine, target, 8 * r, probe_budget);
                Round {
                    untraced,
                    traced,
                    replay,
                    replica,
                }
            })
            .collect()
    });
    let kernels = layers::kernel_table(target, 32);
    let obs = layers::obs_probe();
    // What crossing the wire costs is measured where requests cross it.
    let wire =
        (!in_process).then(|| layers::wire_probe(&data, &pool.wire[pool.len() / 2], &direct[0]));

    let phases = || {
        rounds
            .iter()
            .flat_map(|r| [Some(&r.untraced), r.traced.as_ref()])
            .flatten()
    };
    let untraced_calls: Vec<Call> = rounds
        .iter()
        .flat_map(|r| r.untraced.phase.calls.iter().copied())
        .collect();
    let traced_calls: Vec<Call> = rounds
        .iter()
        .filter_map(|r| r.traced.as_ref())
        .flat_map(|d| d.phase.calls.iter().copied())
        .collect();
    let mut replay = Replay::default();
    for r in &rounds {
        replay.absorb(&r.replay);
    }

    let p50 = over_rounds(&rounds, |r| p50_us(&r.untraced.phase));
    let traced_p50 = over_rounds(&rounds, |r| {
        p50_us(&r.traced.as_ref().unwrap_or(&r.untraced).phase)
    });
    let staged: Vec<Vec<Stages>> = rounds
        .iter()
        .map(|r| {
            r.traced
                .as_ref()
                .map_or_else(Vec::new, |d| stage_times(&d.phase.calls))
        })
        .collect();
    let stage_p50 = |i: usize| typical(staged.iter().map(|t| stage_medians(t)[i]));
    let in_median_request = |i: usize| typical(staged.iter().map(|t| median_request(t.clone())[i]));
    let layer = |f: fn(&LayerSample) -> f64| over_rounds(&rounds, |r| r.replay.median_of(f));
    let (cand, dequant, forward, topk, serve_one) = (
        layer(|l| l.candidates_us),
        layer(|l| l.dequant_us),
        layer(|l| l.forward_us),
        layer(|l| l.topk_us),
        layer(|l| l.serve_one_us),
    );
    let probe = |f: fn(&ReplicaProbe) -> &Vec<f64>| over_rounds(&rounds, |r| median(f(&r.replica)));
    let (batch1, overhead, batch32) = (
        probe(|p| &p.batch1_us),
        probe(|p| &p.overhead_us),
        probe(|p| &p.batch32_us),
    );

    // A batch call lasts as long as its busiest replica's share of it:
    // requests a replica scores back to back add up, and a sum of skewed
    // times follows their mean, not their median.
    let serial = median(
        &untraced_calls
            .iter()
            .map(|c| c.serial as f64)
            .collect::<Vec<_>>(),
    )
    .max(1.0);
    let in_a_row = |f: fn(&LayerSample) -> f64| {
        if serial > 1.0 {
            over_rounds(&rounds, |r| r.replay.mean_of(f)) * serial
        } else {
            layer(f)
        }
    };
    let row_parts = [
        in_a_row(|l| l.candidates_us),
        in_a_row(|l| l.dequant_us),
        in_a_row(|l| l.forward_us),
        in_a_row(|l| l.topk_us),
    ];
    let row_rest = in_a_row(|l| l.serve_one_us) - row_parts.iter().sum::<f64>();
    let mut rows = Vec::new();
    if !in_process {
        rows.extend([
            ("loadgen.schedule_lag", in_median_request(LAG)),
            ("gateway.transport", in_median_request(TRANSPORT)),
            ("gateway.admit", in_median_request(ADMIT)),
            ("gateway.queue_wait", in_median_request(QUEUE)),
        ]);
    }
    rows.extend([
        ("retrieval.candidates", row_parts[0]),
        ("retrieval.dequant", row_parts[1]),
        ("model.forward", row_parts[2]),
        ("topk.select", row_parts[3]),
        ("engine.remainder", row_rest),
        ("replica.overhead", overhead),
    ]);
    if !in_process {
        // A remainder, not a measurement: what the server's scoring stage
        // took beyond one request on an idle replica (a batch-mate routed to
        // the same replica, the reply hop).
        rows.push(("gateway.score_remainder", in_median_request(SCORE) - batch1));
        rows.push(("gateway.write", in_median_request(WRITE)));
    }
    let waterfall = Waterfall { rows, p50_us: p50 };
    waterfall.print(spec.name);

    let span_calls = if in_process {
        &untraced_calls
    } else {
        &traced_calls
    };
    let spans = spans(span_calls, &replay);
    let spans_path = opts.work_dir.join(format!("spans_{}.jsonl", spec.name));
    if let Err(e) = spans.write(&spans_path) {
        eprintln!("could not write {}: {e}", spans_path.display());
    }

    let cands = replay.stats.candidates.max(1) as f64;
    let table_bytes = match &epoch.retrieval {
        Some(state) => state.table_bytes(),
        None => epoch
            .model
            .export_candidate_table()
            .map_or(0, |t| std::mem::size_of_val(t.data())),
    };
    let gw = phases().fold(GatewayStats::default(), |mut sum, d| {
        sum.served += d.gateway.served;
        sum.batches += d.gateway.batches;
        sum.shed += d.gateway.shed;
        sum.deadline_exceeded += d.gateway.deadline_exceeded;
        sum.internal_errors += d.gateway.internal_errors;
        sum
    });
    let planned: usize = phases().map(|d| d.phase.planned).sum();
    let ok: usize = phases()
        .map(|d| d.phase.ok().saturating_sub(wrong(&direct, &d.phase)))
        .sum();
    let lat: Vec<f64> = untraced_calls
        .iter()
        .filter(|c| c.ok == c.sent)
        .map(|c| c.dur_us / 1e3)
        .collect();
    let lag_us: Vec<f64> = untraced_calls.iter().map(|c| c.lag_us).collect();
    let queue_us: Vec<f64> = traced_calls
        .iter()
        .filter_map(|c| c.echo.map(|e| f64::from(e[1]) - f64::from(e[0])))
        .collect();

    // Taken per round like every other latency figure of a traced run: a
    // stall of the host makes every request of an open loop late for a
    // while, and one such round must not decide the run. Failures are never
    // left out.
    let slo_miss = over_rounds(&rounds, |r| {
        let (mut planned, mut met) = (0, 0);
        for d in [Some(&r.untraced), r.traced.as_ref()].into_iter().flatten() {
            let right = d.phase.ok().saturating_sub(wrong(&direct, &d.phase));
            planned += d.phase.planned;
            met += within_slo(spec, &d.phase).min(right);
        }
        (planned - met) as f64 / planned.max(1) as f64
    });
    let exact_recall = match spec.backend.pruning {
        PruningPolicy::TwoStage { .. } => recall(&exact_lists(&epoch, &data, &pool), &direct),
        _ => 1.0,
    };

    let mut m = Metrics::new(&PER_LAYER);
    let planned_f = planned.max(1) as f64;
    m.put("failed_frac", (planned - ok) as f64 / planned_f);
    m.put("slo_miss_frac", slo_miss);
    m.put("recall_at_10_vs_exact", exact_recall);
    m.put("loadgen.latency_p99_ms", percentile(&lat, 0.99));
    m.put(
        "loadgen.requests_sent",
        phases()
            .flat_map(|d| &d.phase.calls)
            .map(|c| c.sent)
            .sum::<usize>() as f64,
    );
    m.put("loadgen.requests_ok", ok as f64);
    m.put("loadgen.requests_failed", (planned - ok) as f64);
    m.put(
        "loadgen.schedule_lag_p99_ms",
        percentile(&lag_us, 0.99) / 1e3,
    );
    // In process there is nothing to switch on: the spans are built from the
    // same call records either way.
    m.put("tracing_overhead_frac", traced_p50 / p50.max(1e-9) - 1.0);
    m.put("waterfall.unexplained_frac", waterfall.unexplained_frac());
    m.put("data.synth.generate_s", times.generate_s);
    m.put("data.prep.preprocess_s", times.preprocess_s);
    m.put("core.model.fit_s", times.fit_s);
    m.put("core.model.table_build_s", times.table_build_s);
    m.put("retrieval.index.build_s", times.index_build_s);
    m.put("retrieval.table.quantize_s", times.quantize_s);
    m.put("retrieval.table.bytes", table_bytes as f64);
    m.put(
        "gateway.protocol.codec_us",
        wire.as_ref().map_or(0.0, |w| w.codec_us),
    );
    m.put(
        "gateway.server.request_to_instance_us",
        wire.as_ref().map_or(0.0, |w| w.request_to_instance_us),
    );
    m.put("gateway.server.admit_us", stage_p50(ADMIT));
    m.put("gateway.batcher.queue_wait_p50_us", stage_p50(QUEUE));
    m.put(
        "gateway.batcher.queue_wait_p95_us",
        percentile(&queue_us, 0.95),
    );
    m.put(
        "gateway.batcher.batch_fill_mean",
        gw.served as f64 / gw.batches.max(1) as f64,
    );
    m.put("gateway.server.score_p50_us", stage_p50(SCORE));
    m.put("gateway.server.write_p50_us", stage_p50(WRITE));
    m.put(
        "gateway.server.transport_remainder_us",
        stage_p50(TRANSPORT),
    );
    m.put("gateway.server.shed", gw.shed as f64);
    m.put(
        "gateway.server.deadline_exceeded",
        gw.deadline_exceeded as f64,
    );
    m.put("gateway.server.internal_errors", gw.internal_errors as f64);
    m.put("serve.replica.batch1_us", batch1);
    m.put("serve.replica.overhead_us", overhead);
    m.put(
        "serve.replica.batch32_scaling",
        (32.0 / batch32.max(1e-9)) / (1.0 / batch1.max(1e-9)),
    );
    m.put("serve.engine.serve_one_us", serve_one);
    m.put(
        "serve.engine.remainder_us",
        serve_one - (cand + dequant + forward + topk),
    );
    m.put("serve.topk.select_us", topk);
    m.put("retrieval.index.candidates_us", cand);
    m.put(
        "retrieval.index.candidates_per_req",
        replay.per_req(replay.stats.candidates),
    );
    m.put(
        "retrieval.index.from_revisit_frac",
        replay.stats.from_revisit as f64 / cands,
    );
    m.put(
        "retrieval.index.from_cells_frac",
        replay.stats.from_cells as f64 / cands,
    );
    m.put(
        "retrieval.index.from_popularity_frac",
        replay.stats.from_popularity as f64 / cands,
    );
    m.put(
        "retrieval.index.ring_expansions_per_req",
        replay.per_req(replay.stats.ring_expansions as usize),
    );
    m.put("retrieval.table.dequant_us", dequant);
    m.put(
        "retrieval.table.dequant_bytes_per_req",
        replay.per_req(replay.dequant_bytes),
    );
    m.put("core.model.forward_us", forward);
    m.put("core.model.forward_flops_per_req", kernels.flops_per_req);
    for kind in ["bmm", "softmax", "linear", "layer_norm", "gather"] {
        m.put(
            &format!("tensor.kernels.{kind}_us_per_req"),
            kernels.us_per_req(kind),
        );
    }
    m.put("tensor.kernels.coverage_frac", kernels.coverage_frac());
    m.put("obs.metrics.observe_ns", obs.observe_ns);
    m.put("obs.metrics.counter_ns", obs.counter_ns);
    m.put("obs.metrics.observe_contended_ns", obs.observe_contended_ns);

    Record {
        workload: spec.name,
        trace: true,
        seed: opts.seed,
        attempted: planned.max(1),
        // A replayed list that differs from the engine's is a wrong output.
        failed: planned - ok + replay.mismatches,
        metrics: m.finish(),
        waterfall: Some(waterfall.to_json()),
    }
}

/// One root span per call, the server's stages under it when the response
/// echoed them, and the replayed engine layers of the call's first request
/// under the scoring stage. Stage starts inside a gateway request are
/// placed assuming the transport time splits evenly between the two
/// directions; durations are as measured.
fn spans(calls: &[Call], replay: &Replay) -> Spans {
    let mut spans = Spans::default();
    for call in calls {
        let req = call.first as u64;
        let root = spans.push("request", call.start_us, call.dur_us, None, req);
        let mut score = root;
        if let Some(e) = call.echo.map(|e| e.map(f64::from)) {
            let transport = (call.dur_us - call.lag_us - e[3]).max(0.0);
            let stages = [
                ("loadgen.schedule_lag", call.lag_us),
                ("gateway.transport_in", transport / 2.0),
                ("gateway.admit", e[0]),
                ("gateway.queue_wait", e[1] - e[0]),
                ("gateway.score", e[2] - e[1]),
                ("gateway.write", e[3] - e[2]),
                ("gateway.transport_out", transport / 2.0),
            ];
            spans.push_children(root, &stages);
            score = root + 5;
        }
        if let Some(l) = replay.samples.iter().find(|l| l.slot == call.slot) {
            let parts = l.candidates_us + l.dequant_us + l.forward_us + l.topk_us;
            spans.push_children(
                score,
                &[
                    ("retrieval.candidates", l.candidates_us),
                    ("retrieval.dequant", l.dequant_us),
                    ("model.forward", l.forward_us),
                    ("topk.select", l.topk_us),
                    ("engine.remainder", (l.serve_one_us - parts).max(0.0)),
                ],
            );
        }
    }
    spans
}
