//! `repro` — regenerates the paper's tables and figures, one exhibit each.
//!
//! ```text
//! cargo run --release -p stisan-bench --bin repro -- <exhibit>... [flags]
//! cargo run --release -p stisan-bench --bin repro -- table3 \
//!     --datasets Gowalla --models SASRec,GeoSAN,STAN,STiSAN --rounds 3
//! cargo run --release -p stisan-bench --bin repro -- all
//! ```
//!
//! Exhibit names are positional and come before the shared
//! [`stisan_bench::Flags`]; [`EXHIBITS`] lists them with the training epochs
//! each one defaults to (`--epochs` overrides). `all` runs every exhibit as
//! a child process and tees its stdout into `results/<exhibit>.txt`, the
//! files EXPERIMENTS.md cites. Unknown exhibit, dataset or model names exit
//! with code 2 and the valid list on stderr.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, ExitCode, Stdio};

use rand::rngs::StdRng;
use rand::SeedableRng;
use stisan_bench::{
    default_scale, load, prep_config, print_metric_header, print_metric_row, stisan_config,
    temperature_for, timed, timed_reps, train_model, Flags, MODEL_NAMES,
};
use stisan_core::flops::{iaab_flops, iaab_overhead, sa_flops};
use stisan_core::{StiSan, StisanConfig};
use stisan_data::{generate, preprocess, DatasetPreset, PrepConfig, RelationConfig};
use stisan_eval::spatial_stats::spatial_correlation;
use stisan_eval::{build_candidates, evaluate, MeanVar, Metrics};
use stisan_models::{AttentionMode, GeoSan, PositionMode, SasRec, Stan, TrainConfig};
use stisan_nn::{
    attention, causal_mask, sinusoidal_encoding, tape_positions, vanilla_positions, ParamStore,
    Session,
};
use stisan_tensor::Array;

/// The check-in datasets Table IV and Fig 6 cover (the paper leaves the
/// Changchun transit data out of both).
const CHECKIN_PRESETS: [DatasetPreset; 3] =
    [DatasetPreset::Gowalla, DatasetPreset::Brightkite, DatasetPreset::Weeplaces];

/// One paper exhibit: its name on the command line, the function that
/// prints it, and the training epochs it runs when `--epochs` is not given.
#[derive(Debug)]
struct Exhibit {
    name: &'static str,
    run: fn(&Flags),
    epochs: usize,
}

/// Every exhibit, in the order `all` regenerates them. The sweeps that
/// train many model variants default to fewer epochs than
/// `Flags::default()`'s 20 so the whole suite finishes on a CPU box.
const EXHIBITS: [Exhibit; 11] = [
    Exhibit { name: "table2", run: table2, epochs: 20 },
    Exhibit { name: "fig2", run: fig2, epochs: 20 },
    Exhibit { name: "table6", run: table6, epochs: 20 },
    Exhibit { name: "table3", run: table3, epochs: 20 },
    Exhibit { name: "table4", run: table4, epochs: 12 },
    Exhibit { name: "fig4", run: fig4, epochs: 12 },
    Exhibit { name: "fig5", run: fig5, epochs: 8 },
    Exhibit { name: "fig6", run: fig6, epochs: 8 },
    Exhibit { name: "fig7", run: fig7, epochs: 8 },
    Exhibit { name: "fig9", run: fig9, epochs: 8 },
    Exhibit { name: "table5_fig8", run: table5_fig8, epochs: 10 },
];

/// Resolves the positional exhibit `names` (`all` = every exhibit) and
/// parses `flag_args` on top of each exhibit's default epochs, so that a
/// misspelt exhibit, dataset or model is rejected before anything runs.
fn plan(names: &[String], flag_args: &[String]) -> Result<Vec<(&'static Exhibit, Flags)>, String> {
    let valid = || EXHIBITS.iter().map(|e| e.name).collect::<Vec<_>>().join(" ");
    let picked: Vec<&Exhibit> = if names == ["all"] {
        EXHIBITS.iter().collect()
    } else if names.is_empty() {
        return Err(format!("usage: repro <exhibit>... [flags]; exhibits: {} (or `all`)", valid()));
    } else {
        names
            .iter()
            .map(|n| {
                EXHIBITS.iter().find(|e| e.name == n).ok_or_else(|| {
                    format!("unknown exhibit {n:?}; valid: {} (or `all`)", valid())
                })
            })
            .collect::<Result<_, _>>()?
    };
    picked
        .into_iter()
        .map(|ex| {
            let base = Flags { epochs: ex.epochs, ..Flags::default() };
            Ok((ex, Flags::parse_from(base, flag_args)?))
        })
        .collect()
}

/// `repro all`: each exhibit runs as a child process (one failing exhibit
/// does not take the rest down) with its stdout echoed and written to
/// `results/<exhibit>.txt`. Returns whether every exhibit succeeded.
fn tee_all(flag_args: &[String]) -> std::io::Result<bool> {
    let exe = std::env::current_exe()?;
    std::fs::create_dir_all("results")?;
    let mut all_ok = true;
    for ex in &EXHIBITS {
        println!("=== {} ===", ex.name);
        let mut child =
            Command::new(&exe).arg(ex.name).args(flag_args).stdout(Stdio::piped()).spawn()?;
        let mut file = std::fs::File::create(format!("results/{}.txt", ex.name))?;
        let stdout = child.stdout.take().expect("child stdout was piped");
        for line in BufReader::new(stdout).lines() {
            let line = line?;
            println!("{line}");
            writeln!(file, "{line}")?;
        }
        if !child.wait()?.success() {
            eprintln!("repro all: {} failed", ex.name);
            all_ok = false;
        }
    }
    println!("all experiments complete");
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let split = args.iter().position(|a| a.starts_with("--")).unwrap_or(args.len());
    let (names, flag_args) = args.split_at(split);
    let runs = match plan(names, flag_args) {
        Ok(runs) => runs,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let ok = if names == ["all"] {
        tee_all(flag_args).unwrap_or_else(|e| {
            eprintln!("repro all: {e}");
            false
        })
    } else {
        runs.iter().for_each(|(ex, flags)| (ex.run)(flags));
        true
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// **Table II** — dataset statistics after preprocessing.
fn table2(flags: &Flags) {
    println!("Table II — dataset statistics (synthetic, after preprocessing)\n");
    println!(
        "| {:<12} | {:>8} | {:>8} | {:>10} | {:>8} | {:>14} | {:>6} |",
        "Dataset", "#user", "#POI", "#check-in", "sparsity", "avg.seq.length", "scale"
    );
    println!("|{}|", "-".repeat(85));
    for preset in flags.wanted(DatasetPreset::all()) {
        let scale = flags.scale.unwrap_or_else(|| default_scale(preset));
        let data = load(preset, flags);
        let s = data.stats();
        println!(
            "| {:<12} | {:>8} | {:>8} | {:>10} | {:>7.2}% | {:>14.1} | {:>6} |",
            preset.name(),
            s.users,
            s.pois,
            s.checkins,
            s.sparsity * 100.0,
            s.avg_seq_len,
            scale
        );
    }
    println!("\npaper (scale 1.0): Gowalla 31708u/131329p/2.96M, Brightkite 5247u/48181p/1.70M,");
    println!("                   Weeplaces 1362u/18364p/0.65M, Changchun 344258u/2135p/21.5M");
}

/// **Fig 2** — distribution of strongly spatially-correlated POIs (within
/// 10 km of the target) across sequence positions, per dataset.
fn fig2(flags: &Flags) {
    const BUCKETS: usize = 8;
    const RADIUS_KM: f64 = 10.0;
    println!("Fig 2 — POIs within {RADIUS_KM} km of the target, by position bucket");
    println!("(bucket 1 = oldest check-ins ... bucket {BUCKETS} = most recent)\n");
    for preset in flags.wanted(DatasetPreset::all()) {
        let scale = flags.scale.unwrap_or_else(|| default_scale(preset));
        let raw = generate(&preset.config(scale), flags.seed);
        let sc = spatial_correlation(&raw, RADIUS_KM, BUCKETS, 20);
        let total: u64 = sc.counts.iter().sum();
        print!("{:<12} ({} sequences, {total} correlated POIs): ", preset.name(), sc.sequences);
        let max = *sc.counts.iter().max().unwrap_or(&1) as f64;
        for &c in &sc.counts {
            print!("{c:>7}");
        }
        println!();
        print!("{:<12}  profile: ", "");
        for &c in &sc.counts {
            let bars = ((c as f64 / max.max(1.0)) * 6.0).round() as usize;
            print!("{:>7}", "▁▂▃▄▅▆▇".chars().nth(bars.min(6)).unwrap());
        }
        println!(
            "\n{:<12}  outside the most recent quarter: {:.1}%\n",
            "",
            sc.fraction_outside_recent(BUCKETS / 4) * 100.0
        );
    }
    println!("paper's observation: correlated POIs appear across the WHOLE sequence, not just");
    println!("the tail — the motivation for IAAB's global relation matrix.");
}

/// **Table VI** — computational complexity: FLOPs of the 4-layer vanilla
/// self-attention mechanism (SA) vs IAAB, per dataset, plus measured
/// wall-clock latency of the two attention flavours and of vanilla PE vs TAPE
/// position encoding on this machine.
fn table6(flags: &Flags) {
    let layers = 4; // the paper's N
    let n = flags.max_len;
    let d = flags.dim;
    println!("Table VI — computational complexity (N = {layers} layers, n = {n}, d = {d})\n");
    println!("| {:<12} | {:>12} | {:>12} | {:>10} |", "Dataset", "SA FLOPs", "IAAB FLOPs", "overhead");
    println!("|{}|", "-".repeat(58));
    for preset in flags.wanted(DatasetPreset::all()) {
        let sa = sa_flops(n, d, layers);
        let ia = iaab_flops(n, d, layers);
        println!(
            "| {:<12} | {:>10.2}M | {:>10.2}M | {:>9.4}% |",
            preset.name(),
            sa as f64 / 1e6,
            ia as f64 / 1e6,
            iaab_overhead(n, d, layers) * 100.0
        );
    }

    // Measured latency of one attention application with/without the bias add.
    let mut rng = StdRng::seed_from_u64(flags.seed);
    let store = ParamStore::new();
    let x = Array::randn(vec![1, n, d], 1.0, &mut rng);
    let mask = causal_mask(1, n);
    let relation = Array::uniform(vec![1, n, n], 0.0, 1.0, &mut rng);
    let reps = 50;

    let time_attention = |name: &'static str, with_relation: bool| -> f64 {
        timed_reps(name, reps, || {
            let mut sess = Session::new(&store, false, 0);
            let xv = sess.constant(x.clone());
            let bias = if with_relation { mask.add(&relation) } else { mask.clone() };
            let b = sess.constant(bias);
            for _ in 0..layers {
                let _ = attention(&mut sess, xv, xv, xv, Some(b));
            }
        }) * 1e3
    };

    let t_sa = time_attention("attention_sa", false);
    let t_iaab = time_attention("attention_iaab", true);
    println!("\nmeasured on this machine ({reps} reps, {layers} layers):");
    println!("  SA   attention: {t_sa:.3} ms/sequence");
    println!("  IAAB attention: {t_iaab:.3} ms/sequence  ({:+.2}%)", (t_iaab - t_sa) / t_sa * 100.0);
    println!("\npaper's claim: the point-wise relation addition is negligible (<= 0.01M FLOPs).");

    // TAPE's O(n) claim: encoding interval-aware positions costs the same
    // order as the vanilla 1..n positions, at window and whole-history length.
    println!("\nposition encoding, vanilla PE vs TAPE (d = {d}, {reps} reps):");
    for n in [100usize, 1000] {
        let times: Vec<f64> = (0..n).map(|i| i as f64 * 3600.0 * (1.0 + (i % 7) as f64)).collect();
        let t_pe = timed_reps("position_pe", reps, || {
            std::hint::black_box(sinusoidal_encoding(&vanilla_positions(n), d));
        });
        let t_tape = timed_reps("position_tape", reps, || {
            std::hint::black_box(sinusoidal_encoding(&tape_positions(&times, 0), d));
        });
        println!("  n = {n:>4}: PE {:.3} ms   TAPE {:.3} ms", t_pe * 1e3, t_tape * 1e3);
    }
}

/// **Table III** — overall recommendation performance: the twelve baselines
/// and STiSAN on all four datasets (HR@{5,10}, NDCG@{5,10}).
fn table3(flags: &Flags) {
    println!("Table III — overall performance comparison (synthetic data, scaled)\n");
    for preset in flags.wanted(DatasetPreset::all()) {
        let ((data, cands), prep_s) = timed("prep", || {
            let data = load(preset, flags);
            let cands = build_candidates(&data, 100);
            (data, cands)
        });
        let s = data.stats();
        println!(
            "== {} — {} users, {} POIs, {} check-ins, {} eval instances (prep {prep_s:.1}s)",
            preset.name(),
            s.users,
            s.pois,
            s.checkins,
            data.eval.len(),
        );
        print_metric_header("Model");
        let mut best: Option<(String, Metrics)> = None;
        let mut stisan: Option<Metrics> = None;
        for name in MODEL_NAMES {
            if !flags.wants_model(name) {
                continue;
            }
            let (m, rounds_s) = timed("train_eval", || {
                let mut mv = [MeanVar::new(), MeanVar::new(), MeanVar::new(), MeanVar::new()];
                for round in 0..flags.rounds.max(1) {
                    let model = train_model(name, &data, preset, flags, flags.seed + round as u64);
                    let m = evaluate(model.as_ref(), &data, &cands);
                    mv[0].push(m.hr5);
                    mv[1].push(m.ndcg5);
                    mv[2].push(m.hr10);
                    mv[3].push(m.ndcg10);
                }
                Metrics {
                    hr5: mv[0].mean(),
                    ndcg5: mv[1].mean(),
                    hr10: mv[2].mean(),
                    ndcg10: mv[3].mean(),
                }
            });
            print_metric_row(name, &m);
            if flags.verbose {
                println!("    ({rounds_s:.1}s / {} rounds)", flags.rounds);
            }
            if name == "STiSAN" {
                stisan = Some(m);
            } else if best.as_ref().map(|(_, b)| m.hr10 > b.hr10).unwrap_or(true) {
                best = Some((name.to_string(), m));
            }
        }
        if let (Some((bname, b)), Some(s)) = (best, stisan) {
            println!(
                "Improv. over strongest baseline ({bname}): HR@5 {:+.2}%  NDCG@5 {:+.2}%  HR@10 {:+.2}%  NDCG@10 {:+.2}%",
                pct(s.hr5, b.hr5),
                pct(s.ndcg5, b.ndcg5),
                pct(s.hr10, b.hr10),
                pct(s.ndcg10, b.ndcg10)
            );
        }
        println!();
    }
}

fn pct(ours: f64, theirs: f64) -> f64 {
    if theirs > 0.0 {
        (ours - theirs) / theirs * 100.0
    } else {
        0.0
    }
}

/// **Table IV** — ablation study: Original vs variants I–V on
/// Gowalla / Brightkite / Weeplaces.
fn table4(flags: &Flags) {
    println!("Table IV — ablation study (synthetic data, scaled)\n");
    for preset in flags.wanted(CHECKIN_PRESETS) {
        let data = load(preset, flags);
        let cands = build_candidates(&data, 100);
        println!("== {} ({} eval instances)", preset.name(), data.eval.len());
        print_metric_header("Variant");
        let base = stisan_config(preset, flags);
        let variants: Vec<(&str, StisanConfig)> = vec![
            ("Original", base.clone()),
            ("I.  -GE", base.clone().remove_ge()),
            ("II. -TAPE", base.clone().remove_tape()),
            ("III.-IAAB", base.clone().remove_iaab()),
            ("IV. -SA", base.clone().remove_sa()),
            ("V.  -TAAD", base.clone().remove_taad()),
        ];
        for (label, cfg) in variants {
            let mut model = StiSan::new(&data, cfg);
            model.fit(&data);
            let m = evaluate(&model, &data, &cands);
            print_metric_row(label, &m);
        }
        println!();
    }
}

/// **Fig 4** — extensibility of TAPE: a vanilla self-attention network with
/// positional encoding (PE) vs the same network with TAPE, on all datasets.
fn fig4(flags: &Flags) {
    println!("Fig 4 — extensibility of TAPE (SAN + PE vs SAN + TAPE)\n");
    println!(
        "| {:<12} | {:<10} | HR@10  | NDCG@10 |",
        "Dataset", "Positions"
    );
    println!("|{}|", "-".repeat(48));
    let mut improvements = Vec::new();
    for preset in flags.wanted(DatasetPreset::all()) {
        let data = load(preset, flags);
        let cands = build_candidates(&data, 100);
        let mut results = Vec::new();
        for (label, mode) in [("PE", PositionMode::Vanilla), ("TAPE", PositionMode::Tape)] {
            let mut m = SasRec::new(&data, flags.train_config(), mode, AttentionMode::Plain);
            m.fit(&data);
            let metrics = evaluate(&m, &data, &cands);
            println!(
                "| {:<12} | {:<10} | {:.4} | {:.4}  |",
                preset.name(),
                label,
                metrics.hr10,
                metrics.ndcg10
            );
            results.push(metrics);
        }
        if results[0].hr10 > 0.0 {
            improvements.push((results[1].hr10 - results[0].hr10) / results[0].hr10 * 100.0);
        }
    }
    if !improvements.is_empty() {
        let avg = improvements.iter().sum::<f64>() / improvements.len() as f64;
        println!("\naverage HR@10 improvement from TAPE: {avg:+.2}%  (paper: +5.36%)");
    }
}

/// **Fig 5** — interpretability of TAPE: one user's inter-check-in time
/// intervals, and how PE vs TAPE shift the average attention profile.
///
/// Prints (a) the time-interval series, (b)/(c) the diagonal of the average
/// attention map under PE and TAPE — the paper's heat-map evidence that TAPE
/// strengthens attention between temporally-close check-ins.
fn fig5(flags: &Flags) {
    let preset = inspected_preset(flags);
    let data = load(preset, flags);
    // Pick the eval instance with the longest real history.
    let inst = data
        .eval
        .iter()
        .min_by_key(|e| e.valid_from)
        .expect("no eval instances");
    let n = data.max_len;
    let vf = inst.valid_from;
    println!("Fig 5 — interpretability of TAPE ({} user, {} real check-ins)\n", preset.name(), n - vf);

    println!("(a) time intervals between successive POIs (hours):");
    for k in (vf + 1)..n {
        let dt = (inst.time[k] - inst.time[k - 1]) / 3600.0;
        println!("    pos {:>3}: {:>8.1} h {}", k - vf, dt, bar(dt, 120.0));
    }

    for (label, mode) in [("PE", PositionMode::Vanilla), ("TAPE", PositionMode::Tape)] {
        let mut m = SasRec::new(&data, flags.train_config(), mode, AttentionMode::Plain);
        m.fit(&data);
        let map = m.attention_map(&data, inst);
        println!("\n({}) average attention on current/previous position under {label}:", label);
        println!("    pos | self-attn  prev-attn");
        for i in (vf + 1)..n {
            println!(
                "    {:>3} | {:>9.4}  {:>9.4}",
                i - vf,
                map.at(&[i, i]),
                map.at(&[i, i - 1])
            );
        }
    }
    println!("\npaper's reading: under TAPE, smaller time gaps between successive POIs lead to");
    println!("more similar attention weights on them (and vice versa) — the relative temporal");
    println!("proximity becomes visible to the self-attention mechanism.");
}

/// The one dataset Figs 5 and 7 inspect: the first `--datasets` pick, or
/// Weeplaces when the flag is unset (the paper inspects a Weeplaces user
/// with a length-64 history).
fn inspected_preset(flags: &Flags) -> DatasetPreset {
    match flags.datasets {
        None => DatasetPreset::Weeplaces,
        Some(_) => flags
            .wanted(DatasetPreset::all())
            .next()
            .expect("--datasets names are validated presets"),
    }
}

/// A `#` bar of `v` on a 30-column scale topping out at `max`.
fn bar(v: f64, max: f64) -> String {
    let w = ((v / max) * 30.0).round() as usize;
    "#".repeat(w.min(30))
}

/// **Fig 6** — extensibility of IAAB: a vanilla self-attention network (SA)
/// vs the same network with IAAB, across sequence lengths {16, 32, 64, 128}.
fn fig6(flags: &Flags) {
    const LENGTHS: [usize; 4] = [16, 32, 64, 128];
    println!("Fig 6 — extensibility of IAAB (vanilla SA vs SA+IAAB) across sequence lengths\n");
    println!("| {:<12} | {:>4} | {:<8} | HR@10  | NDCG@10 |", "Dataset", "n", "Attention");
    println!("|{}|", "-".repeat(54));
    for preset in flags.wanted(CHECKIN_PRESETS) {
        let scale = flags.scale.unwrap_or_else(|| default_scale(preset));
        let raw = generate(&preset.config(scale), flags.seed);
        for n in LENGTHS {
            let data = preprocess(&raw, &prep_config(n, scale));
            let cands = build_candidates(&data, 100);
            for (label, mode) in [("SA", AttentionMode::Plain), ("IAAB", AttentionMode::Iaab)] {
                let mut m =
                    SasRec::new(&data, flags.train_config(), PositionMode::Vanilla, mode);
                m.fit(&data);
                let metrics = evaluate(&m, &data, &cands);
                println!(
                    "| {:<12} | {:>4} | {:<8} | {:.4} | {:.4}  |",
                    preset.name(),
                    n,
                    label,
                    metrics.hr10,
                    metrics.ndcg10
                );
            }
        }
        println!("|{}|", "-".repeat(54));
    }
    println!("\npaper's reading: plain SA degrades as n grows (insufficient local attention);");
    println!("IAAB's relation bias recovers the loss, most visibly at n >= 64.");
}

/// **Fig 7** — interpretability of IAAB: one user's geography intervals to
/// the target, and the average attention each history position receives
/// under plain SA vs IAAB.
fn fig7(flags: &Flags) {
    let preset = inspected_preset(flags);
    let data = load(preset, flags);
    let inst = data.eval.iter().min_by_key(|e| e.valid_from).expect("no eval instances");
    let n = data.max_len;
    let vf = inst.valid_from;
    println!("Fig 7 — interpretability of IAAB ({} user, {} real check-ins)\n", preset.name(), n - vf);

    let base = stisan_config(preset, flags);

    // (a) geography interval from each position to the target.
    println!("(a) geography interval to the target POI (km):");
    let tloc = data.loc(inst.target);
    for (i, &p) in inst.poi.iter().enumerate().skip(vf) {
        let km = data.loc(p).distance_km(&tloc);
        println!("    pos {:>3}: {:>7.2} km {}", i - vf, km, bar(km, 30.0));
    }

    // (b)/(c) average attention per key under SA vs IAAB.
    for (label, cfg) in [("SA", base.clone().remove_iaab()), ("IAAB", base.clone())] {
        let mut m = StiSan::new(&data, cfg);
        m.fit(&data);
        let ins = m.inspect(&data, inst);
        let profile = ins.mean_attention_per_key();
        println!("\n({label}) mean attention per history position:");
        let max = profile.iter().cloned().fold(0.0f64, f64::max);
        for (j, &a) in profile.iter().enumerate().skip(vf) {
            println!("    pos {:>3}: {:>7.4} {}", j - vf, a, bar(a, max.max(1e-9)));
        }
    }
    println!("\npaper's reading: IAAB redirects attention toward the spatially-correlated POIs,");
    println!("including those early in the sequence that plain SA under-weights.");
}

/// **Fig 9** — hyper-parameter sensitivity: NDCG@5 under the
/// `(k_t, k_d)` relation-matrix threshold grid {(0,0), (5d,5km), (10d,10km),
/// (20d,15km)} on all four datasets.
fn fig9(flags: &Flags) {
    const GRID: [(f64, f64); 4] = [(0.0, 0.0), (5.0, 5.0), (10.0, 10.0), (20.0, 15.0)];
    println!("Fig 9 — sensitivity to (k_t days, k_d km) — NDCG@5\n");
    println!(
        "| {:<12} | {:>9} | {:>9} | {:>9} | {:>9} |",
        "Dataset", "(0,0)", "(5,5)", "(10,10)", "(20,15)"
    );
    println!("|{}|", "-".repeat(64));
    for preset in flags.wanted(DatasetPreset::all()) {
        let data = load(preset, flags);
        let cands = build_candidates(&data, 100);
        print!("| {:<12} |", preset.name());
        for (kt, kd) in GRID {
            let cfg = StisanConfig {
                relation: RelationConfig { k_t_days: kt, k_d_km: kd },
                ..stisan_config(preset, flags)
            };
            let mut m = StiSan::new(&data, cfg);
            m.fit(&data);
            let metrics = evaluate(&m, &data, &cands);
            print!(" {:>9.4} |", metrics.ndcg5);
        }
        println!();
    }
    println!("\npaper's reading: (0,0) zeroes the relation matrix (uniform softmax bias —");
    println!("IAAB disabled) and is worst everywhere; accuracy recovers once the thresholds");
    println!("admit real intervals and then plateaus.");
}

/// **Table V + Fig 8** — sensitivity to sparsity: Weeplaces filtered at four
/// increasingly aggressive cold-user/POI thresholds; STiSAN vs the two
/// strongest baselines (GeoSAN, STAN).
fn table5_fig8(flags: &Flags) {
    let preset = DatasetPreset::Weeplaces;
    let scale = flags.scale.unwrap_or_else(|| default_scale(preset));
    let raw = generate(&preset.config(scale), flags.seed);

    // The paper's threshold ladder, scaled by the same factor as the data so
    // each level filters a comparable fraction of the population.
    let ratio = (scale / 0.08).max(0.05);
    let levels: Vec<(usize, usize)> = [(30usize, 60usize), (60, 120), (80, 140), (90, 150)]
        .iter()
        .map(|&(p, u)| (((p as f64 * ratio).round() as usize).max(2), ((u as f64 * ratio).round() as usize).max(20)))
        .collect();

    println!("Table V / Fig 8 — Weeplaces under different sparsity levels (scale {scale})\n");
    for (poi_thr, user_thr) in levels {
        let data = preprocess(
            &raw,
            &PrepConfig { max_len: flags.max_len, min_user_checkins: user_thr, min_poi_interactions: poi_thr },
        );
        let s = data.stats();
        println!(
            "== cold POI >= {poi_thr}, cold user >= {user_thr}: {} users, {} POIs, {} check-ins, sparsity {:.2}%",
            s.users,
            s.pois,
            s.checkins,
            s.sparsity * 100.0
        );
        let cands = build_candidates(&data, 100);
        let t = flags.train_config();

        let mut geosan = GeoSan::new(
            &data,
            TrainConfig { negatives: 15, temperature: temperature_for(preset), ..t.clone() },
        );
        geosan.fit(&data);
        let mg = evaluate(&geosan, &data, &cands);

        let mut stan = Stan::new(&data, TrainConfig { negatives: 5, ..t });
        stan.fit(&data);
        let ms = evaluate(&stan, &data, &cands);

        let mut stisan = StiSan::new(&data, stisan_config(preset, flags));
        stisan.fit(&data);
        let mst = evaluate(&stisan, &data, &cands);

        println!("   {:<8} HR@5 {:.4}  NDCG@5 {:.4}  HR@10 {:.4}  NDCG@10 {:.4}", "GeoSAN", mg.hr5, mg.ndcg5, mg.hr10, mg.ndcg10);
        println!("   {:<8} HR@5 {:.4}  NDCG@5 {:.4}  HR@10 {:.4}  NDCG@10 {:.4}", "STAN", ms.hr5, ms.ndcg5, ms.hr10, ms.ndcg10);
        println!("   {:<8} HR@5 {:.4}  NDCG@5 {:.4}  HR@10 {:.4}  NDCG@10 {:.4}\n", "STiSAN", mst.hr5, mst.ndcg5, mst.hr10, mst.ndcg10);
    }
    println!("paper's reading: STiSAN leads at every sparsity level; all models first improve");
    println!("with densification, then degrade when so few users/POIs remain that training");
    println!("under-fits.");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn exhibit_table_is_the_paper_order_with_its_default_epochs() {
        let table: Vec<(&str, usize)> = EXHIBITS.iter().map(|e| (e.name, e.epochs)).collect();
        let default = Flags::default().epochs;
        assert_eq!(
            table,
            [
                ("table2", default),
                ("fig2", default),
                ("table6", default),
                ("table3", default),
                ("table4", 12),
                ("fig4", 12),
                ("fig5", 8),
                ("fig6", 8),
                ("fig7", 8),
                ("fig9", 8),
                ("table5_fig8", 10),
            ]
        );
    }

    #[test]
    fn plan_applies_per_exhibit_epochs_under_the_shared_flags() {
        let runs = plan(&strings(&["table3", "fig5"]), &strings(&["--dim", "8"])).unwrap();
        let got: Vec<_> = runs.iter().map(|(e, f)| (e.name, f.epochs, f.dim)).collect();
        assert_eq!(got, [("table3", 20, 8), ("fig5", 8, 8)]);
        let runs = plan(&strings(&["fig5"]), &strings(&["--epochs", "3"])).unwrap();
        assert_eq!(runs[0].1.epochs, 3, "--epochs overrides the exhibit default");
        assert_eq!(plan(&strings(&["all"]), &[]).unwrap().len(), EXHIBITS.len());
    }

    #[test]
    fn unknown_exhibits_and_names_are_rejected_before_anything_runs() {
        let err = plan(&strings(&["table2", "tabel3"]), &[]).unwrap_err();
        assert!(err.contains("\"tabel3\"") && err.contains("table5_fig8"), "{err}");
        assert!(plan(&[], &[]).unwrap_err().contains("usage"));
        let err = plan(&strings(&["table2"]), &strings(&["--datasets", "Gowala"])).unwrap_err();
        assert!(err.contains("Gowalla"), "{err}");
    }
}
