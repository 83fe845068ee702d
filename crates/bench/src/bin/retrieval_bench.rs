//! `retrieval_bench` — throughput, candidate volume, and table memory of the
//! two-stage retrieval path (quadkey candidate generation + f32/f16/int8
//! candidate tables) against exact full-catalogue scoring, on the Gowalla
//! synthetic preset.
//!
//! ```text
//! cargo run --release -p stisan-bench --bin retrieval_bench -- [--smoke]
//!     [--scale f] [--epochs n] [--rounds k] [--seed s]
//!     [--top-k k] [--budget b] [--max-ring r]
//! ```
//!
//! Four serving paths share one trained STiSAN: exact full scan, then
//! two-stage retrieval with the candidate table held at f32 (exact rows),
//! f16, and int8. For each path the report prints requests/second, mean
//! candidates scored per request, resident table bytes, and the fraction of
//! the exact path's top-K recovered (a serving-side recall proxy; the
//! Recall@20 property test in `tests/retrieval_recall.rs` is the
//! ground-truth gate). The same numbers land machine-readably in
//! `results/BENCH_retrieval.json`.

use std::fmt::Write as _;
use std::time::Instant;

use stisan_bench::{prep_config, timed};
use stisan_core::{StiSan, StisanConfig};
use stisan_data::{generate, preprocess, DatasetPreset, EvalInstance, GenConfig};
use stisan_eval::{FrozenScorer, Recommender};
use stisan_models::TrainConfig;
use stisan_obs::report::{json_num, json_str};
use stisan_serve::{
    InferenceSession, PruningPolicy, QuantLevel, Recommendation, ServeConfig,
};

struct Opts {
    smoke: bool,
    scale: f64,
    epochs: usize,
    rounds: usize,
    seed: u64,
    top_k: usize,
    budget: usize,
    max_ring: u32,
}

fn parse() -> Opts {
    let mut o = Opts {
        smoke: false,
        scale: 0.05,
        epochs: 1,
        rounds: 4,
        seed: 42,
        top_k: 10,
        budget: 128,
        max_ring: 6,
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
            "--budget" => o.budget = take(&mut i).parse().expect("bad --budget"),
            "--max-ring" => o.max_ring = take(&mut i).parse().expect("bad --max-ring"),
            other => panic!(
                "unknown flag {other}; supported: --smoke --scale --epochs --rounds --seed \
                 --top-k --budget --max-ring"
            ),
        }
        i += 1;
    }
    if o.smoke {
        o.scale = 0.01;
        o.epochs = 1;
        o.rounds = 1;
        o.budget = 48;
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

/// One timed retrieval path, as printed and serialized into
/// `results/BENCH_retrieval.json`.
struct PathStats {
    label: &'static str,
    rps: f64,
    p50_ms: f64,
    p95_ms: f64,
    candidates_per_req: f64,
    table_bytes: usize,
    recall_vs_exact: f64,
}

impl PathStats {
    fn to_json(&self) -> String {
        format!(
            "{{\"label\":{},\"rps\":{},\"p50_ms\":{},\"p95_ms\":{},\
             \"candidates_per_req\":{},\"table_bytes\":{},\"recall_vs_exact\":{}}}",
            json_str(self.label),
            json_num(self.rps),
            json_num(self.p50_ms),
            json_num(self.p95_ms),
            json_num(self.candidates_per_req),
            self.table_bytes,
            json_num(self.recall_vs_exact),
        )
    }
}

fn print_path(s: &PathStats) {
    println!(
        "{:<22} {:>9.1} req/s   p50 {:>7.2} ms   p95 {:>7.2} ms   {:>8.1} cand/req   \
         {:>10} B   recall {:.3}",
        s.label, s.rps, s.p50_ms, s.p95_ms, s.candidates_per_req, s.table_bytes, s.recall_vs_exact,
    );
}

/// Serves every request sequentially, returning per-request recommendations
/// and latencies plus the wall time.
fn run_path(
    session: &InferenceSession<'_, StiSan>,
    requests: &[EvalInstance],
) -> (Vec<Recommendation>, Vec<f64>, f64) {
    let mut scratch = session.checkout_scratch();
    let mut recs = Vec::with_capacity(requests.len());
    let mut lat = Vec::with_capacity(requests.len());
    let t0 = Instant::now();
    for inst in requests {
        let t = Instant::now();
        let mut rec = Recommendation::default();
        session.serve_one_into(inst, &mut scratch, &mut rec);
        lat.push(t.elapsed().as_secs_f64() * 1e3);
        recs.push(rec);
    }
    let wall = t0.elapsed().as_secs_f64();
    session.checkin_scratch(scratch);
    (recs, lat, wall)
}

/// Fraction of the exact path's top-K ids recovered by `path`, averaged over
/// requests (1.0 = the two-stage list contains everything exact found).
fn topk_recall(exact: &[Recommendation], path: &[Recommendation]) -> f64 {
    let mut hit = 0usize;
    let mut total = 0usize;
    for (e, p) in exact.iter().zip(path) {
        total += e.items.len();
        hit += e.items.iter().filter(|(id, _)| p.items.iter().any(|(q, _)| q == id)).count();
    }
    hit as f64 / total.max(1) as f64
}

fn stats_for(
    label: &'static str,
    recs: &[Recommendation],
    mut lat_ms: Vec<f64>,
    wall_s: f64,
    table_bytes: usize,
    exact: &[Recommendation],
) -> PathStats {
    lat_ms.sort_by(|a, b| a.total_cmp(b));
    let cand: usize = recs.iter().map(|r| r.scored).sum();
    let s = PathStats {
        label,
        rps: recs.len() as f64 / wall_s.max(1e-12),
        p50_ms: percentile(&lat_ms, 0.50),
        p95_ms: percentile(&lat_ms, 0.95),
        candidates_per_req: cand as f64 / recs.len().max(1) as f64,
        table_bytes,
        recall_vs_exact: topk_recall(exact, recs),
    };
    print_path(&s);
    s
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

    // d = 64 keeps the int8 table (1 B/weight + 8 B/row params) at ~28% of
    // the f32 bytes — the memory headline this bench gates on.
    let train = TrainConfig {
        dim: 64,
        blocks: if o.smoke { 1 } else { 2 },
        epochs: o.epochs,
        batch: 16,
        seed: o.seed,
        ..Default::default()
    };
    let mut model = StiSan::new(&p, StisanConfig { train, ..Default::default() });
    let (_, fit_s) = timed("fit", || model.fit(&p));
    println!("trained {} for {} epoch(s) in {fit_s:.1}s", model.name(), o.epochs);

    let requests: Vec<EvalInstance> =
        (0..o.rounds).flat_map(|_| p.eval.iter().cloned()).collect();
    assert!(!requests.is_empty(), "no eval instances at this scale — raise --scale");

    let cfg = |quant: QuantLevel, pruning: PruningPolicy| ServeConfig {
        top_k: o.top_k,
        pruning,
        quant,
    };
    let two_stage = PruningPolicy::TwoStage { budget: o.budget, max_ring: o.max_ring };

    // Exact full scan: the reference answers every other path is scored
    // against.
    let exact_sess =
        InferenceSession::new(&model, &p, cfg(QuantLevel::F32, PruningPolicy::Full));
    let (exact_recs, exact_lat, exact_wall) = run_path(&exact_sess, &requests);
    let f32_table_bytes = exact_sess
        .model()
        .export_candidate_table()
        .map(|t| std::mem::size_of_val(t.data()))
        .unwrap_or(0);
    let exact = stats_for(
        "exact full scan",
        &exact_recs,
        exact_lat,
        exact_wall,
        f32_table_bytes,
        &exact_recs,
    );

    let mut paths = vec![exact];
    let mut quant_bytes = [0usize; 3];
    for (i, (label, quant)) in [
        ("two-stage f32", QuantLevel::F32),
        ("two-stage f16", QuantLevel::F16),
        ("two-stage i8", QuantLevel::I8),
    ]
    .into_iter()
    .enumerate()
    {
        let sess = InferenceSession::new(&model, &p, cfg(quant, two_stage));
        let bytes = sess.retrieval().map(|r| r.table_bytes()).unwrap_or(0);
        quant_bytes[i] = bytes;
        let (recs, lat, wall) = run_path(&sess, &requests);
        paths.push(stats_for(label, &recs, lat, wall, bytes, &exact_recs));
    }

    // Memory headline: the int8 table must stay at or under ~30% of f32.
    let (f32b, i8b) = (quant_bytes[0], quant_bytes[2]);
    let i8_frac = i8b as f64 / f32b.max(1) as f64;
    println!(
        "table bytes: f32 {} / f16 {} / i8 {} ({:.1}% of f32)",
        quant_bytes[0],
        quant_bytes[1],
        quant_bytes[2],
        100.0 * i8_frac
    );
    assert!(
        i8_frac <= 0.30,
        "acceptance: int8 table must be <= 30% of f32 bytes, got {:.1}%",
        100.0 * i8_frac
    );

    let mut json = String::from("{");
    let _ = write!(
        json,
        "\"bench\":\"retrieval\",\"smoke\":{},\"scale\":{},\"rounds\":{},\"requests\":{},\
         \"top_k\":{},\"budget\":{},\"max_ring\":{},\"num_pois\":{},\"i8_bytes_frac\":{}",
        o.smoke,
        json_num(o.scale),
        o.rounds,
        requests.len(),
        o.top_k,
        o.budget,
        o.max_ring,
        p.num_pois,
        json_num(i8_frac),
    );
    json.push_str(",\"paths\":[");
    for (i, path) in paths.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&path.to_json());
    }
    json.push_str("]}");
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_retrieval.json", json).expect("write BENCH_retrieval.json");
    println!("wrote results/BENCH_retrieval.json");
    // Headline row: the production path (two-stage int8), the last entry.
    if let Some(p) = paths.last() {
        stisan_bench::record_bench_summary("retrieval", p.rps, p.p95_ms);
    }

    if o.smoke {
        println!("smoke OK: {} requests x {} paths", requests.len(), paths.len());
    }
}
