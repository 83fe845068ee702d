//! `serve_bench` — throughput and tail latency of the tape-free serving
//! engine (frozen forward + geo pruning + replicated scoring + bounded top-K)
//! against the tape-based full-scoring path, on the Gowalla synthetic preset.
//!
//! ```text
//! cargo run --release -p stisan-bench --bin serve_bench -- [--smoke]
//!     [--scale f] [--epochs n] [--rounds k] [--seed s]
//!     [--top-k k] [--radius-km r] [--min-candidates m]
//! ```
//!
//! `--smoke` shrinks everything for CI: tiny dataset, one training epoch,
//! one round. The report prints requests/second and p50/p95/p99 latency for
//! both paths plus the throughput speedup, and cross-checks that frozen and
//! tape scores agree bit-for-bit on one request before timing anything.
//! The same numbers land machine-readably in `results/BENCH_serve.json`.

use std::fmt::Write as _;
use std::time::Instant;

use stisan_bench::{prep_config, timed};
use stisan_obs::report::{json_num, json_str};
use stisan_obs::CountingAlloc;
use stisan_core::{StiSan, StisanConfig};
use stisan_data::{generate, preprocess, DatasetPreset, EvalInstance, GenConfig};
use stisan_eval::{FrozenScorer, Recommender};
use stisan_models::TrainConfig;
use stisan_obs::TraceCtx;
use stisan_serve::{
    top_k, EngineBackend, PruningPolicy, ReplicatedEngine, ServeConfig, SharedModel,
    SupervisorConfig,
};

/// Counting wrapper around the system allocator, so the profiled pass can
/// attribute per-request allocation churn. Costs one relaxed atomic load
/// per allocation while accounting is off — the disabled-overhead gate at
/// the end of `main` bounds the total impact.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::system();

struct Opts {
    smoke: bool,
    scale: f64,
    epochs: usize,
    rounds: usize,
    seed: u64,
    top_k: usize,
    radius_km: f64,
    min_candidates: usize,
}

fn parse() -> Opts {
    let mut o = Opts {
        smoke: false,
        scale: 0.05,
        epochs: 1,
        rounds: 4,
        seed: 42,
        top_k: 10,
        // The Gowalla preset scatters POIs in 8 km-sigma city clusters with a
        // 6 km movement decay, so 40 km comfortably covers a user's plausible
        // next hop while pruning most of the catalogue; a smaller floor keeps
        // thin-coverage anchors from constantly falling back to a full scan.
        radius_km: 40.0,
        min_candidates: 20,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let key = args[i].clone();
        let take = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).unwrap_or_else(|| panic!("flag {key} needs a value")).clone()
        };
        match key.as_str() {
            "--smoke" => o.smoke = true,
            "--scale" => o.scale = take(&mut i).parse().expect("bad --scale"),
            "--epochs" => o.epochs = take(&mut i).parse().expect("bad --epochs"),
            "--rounds" => o.rounds = take(&mut i).parse().expect("bad --rounds"),
            "--seed" => o.seed = take(&mut i).parse().expect("bad --seed"),
            "--top-k" => o.top_k = take(&mut i).parse().expect("bad --top-k"),
            "--radius-km" => o.radius_km = take(&mut i).parse().expect("bad --radius-km"),
            "--min-candidates" => {
                o.min_candidates = take(&mut i).parse().expect("bad --min-candidates")
            }
            other => panic!(
                "unknown flag {other}; supported: --smoke --scale --epochs --rounds --seed \
                 --top-k --radius-km --min-candidates"
            ),
        }
        i += 1;
    }
    if o.smoke {
        o.scale = 0.01;
        o.epochs = 1;
        o.rounds = 1;
    }
    o
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64 * q).ceil() as usize).clamp(1, sorted_ms.len()) - 1;
    sorted_ms[idx]
}

/// One timed serving path, as printed and as serialized into
/// `results/BENCH_serve.json`.
struct PathStats {
    label: &'static str,
    rps: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

impl PathStats {
    fn to_json(&self) -> String {
        format!(
            "{{\"label\":{},\"rps\":{},\"p50_ms\":{},\"p95_ms\":{},\"p99_ms\":{}}}",
            json_str(self.label),
            json_num(self.rps),
            json_num(self.p50_ms),
            json_num(self.p95_ms),
            json_num(self.p99_ms),
        )
    }
}

fn report(label: &'static str, wall_s: f64, mut lat_ms: Vec<f64>) -> PathStats {
    lat_ms.sort_by(|a, b| a.total_cmp(b));
    let n = lat_ms.len() as f64;
    let rps = if wall_s > 0.0 { n / wall_s } else { 0.0 };
    let stats = PathStats {
        label,
        rps,
        p50_ms: percentile(&lat_ms, 0.50),
        p95_ms: percentile(&lat_ms, 0.95),
        p99_ms: percentile(&lat_ms, 0.99),
    };
    print_path(&stats);
    stats
}

fn print_path(s: &PathStats) {
    println!(
        "{:<28} {:>9.1} req/s   p50 {:>7.2} ms   p95 {:>7.2} ms   p99 {:>7.2} ms",
        s.label, s.rps, s.p50_ms, s.p95_ms, s.p99_ms,
    );
}

fn main() {
    let o = parse();
    stisan_obs::init();
    let preset = DatasetPreset::Gowalla;
    let gen_cfg = GenConfig { ..preset.config(o.scale) };
    let data = generate(&gen_cfg, o.seed);
    let p = preprocess(&data, &prep_config(if o.smoke { 10 } else { 20 }, o.scale));
    println!(
        "Gowalla synth @ scale {}: {} users, {} POIs, {} eval instances",
        o.scale, p.num_users, p.num_pois, p.eval.len()
    );

    let train = TrainConfig {
        dim: if o.smoke { 16 } else { 32 },
        blocks: if o.smoke { 1 } else { 2 },
        epochs: o.epochs,
        batch: 16,
        seed: o.seed,
        ..Default::default()
    };
    let mut model = StiSan::new(&p, StisanConfig { train, ..Default::default() });
    let (_, fit_s) = timed("fit", || model.fit(&p));
    println!("trained {} for {} epoch(s) in {fit_s:.1}s", model.name(), o.epochs);

    // Request stream: every eval instance, repeated `rounds` times.
    let requests: Vec<EvalInstance> =
        (0..o.rounds).flat_map(|_| p.eval.iter().cloned()).collect();
    assert!(!requests.is_empty(), "no eval instances at this scale — raise --scale");
    let all_pois: Vec<u32> = (1..=p.num_pois as u32).collect();

    // Parity spot-check before timing: frozen scores must equal tape scores
    // bit-for-bit on the full catalogue (the parity suite proves this per
    // model; the bench refuses to compare paths that disagree).
    {
        let tape = model.score(&p, &requests[0], &all_pois);
        let frozen = model.score_frozen(&p, &requests[0], &all_pois);
        let same = tape.iter().zip(&frozen).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "tape/frozen scores diverged — parity broken, bench aborted");
        println!("parity spot-check: {} scores bit-identical across backends", tape.len());
    }

    // Baseline: tape-based scoring of the full catalogue, full-sort top-K,
    // sequential (the evaluation path as a serving strategy).
    let t0 = Instant::now();
    let mut base_lat = Vec::with_capacity(requests.len());
    for inst in &requests {
        let t = Instant::now();
        let scores = model.score(&p, inst, &all_pois);
        let mut ranked: Vec<(usize, f32)> = scores.iter().copied().enumerate().collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        ranked.truncate(o.top_k);
        std::hint::black_box(ranked);
        base_lat.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let base_wall = t0.elapsed().as_secs_f64();
    let base = report("tape + full scan", base_wall, base_lat);

    // Frozen forward, same full catalogue, sequential — isolates the no-tape
    // win from pruning and parallelism.
    let t0 = Instant::now();
    let mut frozen_lat = Vec::with_capacity(requests.len());
    for inst in &requests {
        let t = Instant::now();
        let scores = model.score_frozen(&p, inst, &all_pois);
        std::hint::black_box(top_k(&scores, o.top_k));
        frozen_lat.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let frozen_wall = t0.elapsed().as_secs_f64();
    let frozen = report("frozen + full scan", frozen_wall, frozen_lat);

    // The full engine: frozen forward + geo pruning, the whole request stream
    // as one batch across the default replica pool.
    let fleet = ReplicatedEngine::new(
        SharedModel::new(model, 0),
        &p,
        ServeConfig {
            top_k: o.top_k,
            pruning: PruningPolicy::Radius { km: o.radius_km, min_candidates: o.min_candidates },
            ..Default::default()
        },
        SupervisorConfig::default(),
    );
    let serve_all = |reqs: &[EvalInstance]| {
        let mut traces: Vec<TraceCtx> = (0..reqs.len() as u64).map(TraceCtx::new).collect();
        fleet.serve_outcomes(reqs, 0, &mut traces)
    };
    let t0 = Instant::now();
    let outs = serve_all(&requests);
    let serve_wall = t0.elapsed().as_secs_f64();
    let recs: Vec<_> =
        outs.iter().map(|o| &o.as_ref().expect("healthy pool must answer").rec).collect();
    let scored: usize = recs.iter().map(|r| r.scored).sum();
    let pool: usize = recs.iter().map(|r| r.pool).sum();
    // Tail latency of the replicated path comes from the serve.latency_ms
    // histogram the engine records.
    let snap = stisan_obs::global().map(|o| o.registry.snapshot()).unwrap_or_default();
    let [p50_ms, p95_ms, p99_ms] = snap
        .histograms
        .iter()
        .find(|h| h.name == "serve.latency_ms")
        .map(|h| h.sketch.p50_p95_p99())
        .unwrap_or_default();
    let serve_rps = requests.len() as f64 / serve_wall.max(1e-12);
    let engine = PathStats {
        label: "frozen + geo prune + par",
        rps: serve_rps,
        p50_ms,
        p95_ms,
        p99_ms,
    };
    print_path(&engine);
    let pruned_frac = 1.0 - scored as f64 / pool.max(1) as f64;
    println!("geo pruning: scored {scored} of {pool} candidate slots ({:.1}% pruned)", 100.0 * pruned_frac);
    let speedup = serve_rps / base.rps.max(1e-12);
    println!("throughput speedup vs tape + full scan: {speedup:.2}x");

    // --- Continuous-profiling passes -------------------------------------
    //
    // Three more engine passes over the same request stream:
    //   1. disabled baseline (min of two walls, profiling off — as above);
    //   2. a profiled pass: allocation accounting + flame/kernel timing on,
    //      feeding bytes-per-request, the kernel cost table and the folded
    //      flamegraph export;
    //   3. re-disabled (min of two walls) — gated against the baseline to
    //      prove the disabled instrumentation path stays under 3%.
    let run_wall = || {
        let t = Instant::now();
        std::hint::black_box(serve_all(&requests));
        t.elapsed().as_secs_f64()
    };
    let base_wall = run_wall().min(run_wall()).max(1e-9);

    stisan_obs::alloc::enable();
    stisan_obs::flame::enable();
    let prof_wall = run_wall();
    stisan_obs::flame::disable();
    stisan_obs::alloc::disable();

    let snap = stisan_obs::global().map(|o| o.registry.snapshot()).unwrap_or_default();
    let alloc_hist = |name: &str| {
        snap.histograms.iter().find(|h| h.name == name).map(|h| h.mean()).unwrap_or(0.0)
    };
    let bytes_per_req = alloc_hist("alloc.request_bytes");
    let allocs_per_req = alloc_hist("alloc.request_allocs");
    let prof = stisan_obs::serve_profiler();
    let top = prof.map(|p| p.top_kernels(5)).unwrap_or_default();
    let folded = prof.map(|p| p.to_folded()).unwrap_or_default();
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/flame_serve_bench.folded", &folded)
        .expect("write flame_serve_bench.folded");
    let folded_lines = folded.lines().count();
    println!(
        "profiled pass: {:.0} B / {:.1} allocs per request; {} flame stacks -> \
         results/flame_serve_bench.folded",
        bytes_per_req, allocs_per_req, folded_lines
    );
    println!("top kernels by self time:");
    for row in &top {
        println!(
            "  {:<18} {:>8} calls {:>9.2} ms {:>14} flops",
            row.kind,
            row.stats.count,
            row.forward_ms(),
            row.stats.flops
        );
    }

    let dis_wall = run_wall().min(run_wall());
    let overhead = dis_wall / base_wall - 1.0;
    println!(
        "profiling overhead: enabled {:+.1}%, disabled {:+.1}% vs baseline wall {base_wall:.3}s",
        100.0 * (prof_wall / base_wall - 1.0),
        100.0 * overhead,
    );
    // Smoke gate, mirroring the gateway tracing gate: the disabled path must
    // cost < 3% (plus an absolute floor for timer noise on tiny workloads).
    assert!(
        dis_wall <= base_wall * 1.03 + 0.05,
        "profiling-disabled overhead too high: {dis_wall:.4}s vs baseline {base_wall:.4}s"
    );
    if !folded.is_empty() {
        stisan_obs::flame::parse_folded(&folded).expect("folded export must parse");
    }

    let mut json = String::from("{");
    let _ = write!(
        json,
        "\"bench\":\"serve\",\"smoke\":{},\"scale\":{},\"rounds\":{},\"requests\":{},\"top_k\":{}",
        o.smoke,
        json_num(o.scale),
        o.rounds,
        requests.len(),
        o.top_k
    );
    json.push_str(",\"paths\":[");
    for (i, path) in [&base, &frozen, &engine].into_iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&path.to_json());
    }
    let _ = write!(
        json,
        "],\"speedup_vs_tape\":{},\"pruning\":{{\"scored\":{scored},\"pool\":{pool},\
         \"pruned_frac\":{}}}",
        json_num(speedup),
        json_num(pruned_frac),
    );
    let _ = write!(
        json,
        ",\"profiling\":{{\"bytes_per_request\":{},\"allocs_per_request\":{},\
         \"disabled_overhead_frac\":{},\"flame_stacks\":{folded_lines},\"top_kernels\":[",
        json_num(bytes_per_req),
        json_num(allocs_per_req),
        json_num(overhead),
    );
    for (i, row) in top.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "{{\"kind\":{},\"calls\":{},\"self_ms\":{},\"flops\":{}}}",
            json_str(row.kind),
            row.stats.count,
            json_num(row.forward_ms()),
            row.stats.flops
        );
    }
    json.push_str("]}}");
    std::fs::write("results/BENCH_serve.json", json).expect("write BENCH_serve.json");
    println!("wrote results/BENCH_serve.json");
    stisan_bench::record_bench_summary("serve", engine.rps, engine.p95_ms);

    if o.smoke {
        println!("smoke OK: {} requests served", recs.len());
    } else {
        assert!(speedup >= 2.0, "acceptance: expected >= 2x speedup, got {speedup:.2}x");
    }
}
