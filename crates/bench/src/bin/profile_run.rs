//! Profiled STiSAN training run — the observability showcase.
//!
//! Turns the obs stack on, trains STiSAN on a small synthetic preset,
//! evaluates it, prints the human-readable cost summary (per-epoch loss and
//! throughput, autodiff-tape op-kind table, span quantiles) and writes the
//! machine-readable JSON run report under `results/`.
//!
//! ```text
//! cargo run -p stisan-bench --bin profile_run --release
//! cargo run -p stisan-bench --bin profile_run --release -- --epochs 2 --datasets Brightkite
//! ```

use std::time::{SystemTime, UNIX_EPOCH};

use stisan_bench::{default_scale, load, stisan_config, Flags};
use stisan_core::StiSan;
use stisan_data::DatasetPreset;
use stisan_eval::{build_candidates, evaluate};

fn main() {
    // Smaller defaults than the `repro` exhibits: this run exists to produce a
    // readable cost profile, not paper-grade metrics.
    let flags =
        Flags::parse_with(Flags { epochs: 2, scale: Some(0.01), max_len: 32, ..Flags::default() });
    let obs = stisan_obs::init();

    let preset = flags
        .wanted(DatasetPreset::all())
        .next()
        .expect("--datasets names are validated presets");
    let data = load(preset, &flags);
    let s = data.stats();
    stisan_obs::info!(
        "profiling STiSAN on {} — {} users, {} POIs, {} check-ins, {} epochs",
        preset.name(),
        s.users,
        s.pois,
        s.checkins,
        flags.epochs
    );

    let mut model = StiSan::new(&data, stisan_config(preset, &flags));
    match flags.checkpoint_config(preset, flags.seed) {
        Some(cc) => {
            let summary = model
                .fit_with_checkpoints(&data, Some(&cc))
                .unwrap_or_else(|e| panic!("checkpointed training failed: {e}"));
            if let Some(from) = &summary.resumed_from {
                stisan_obs::info!(
                    "resumed from {} (epochs {}..{})",
                    from.display(),
                    summary.start_epoch,
                    summary.start_epoch + summary.epochs_run
                );
            }
        }
        None => model.fit(&data),
    }

    let cands = build_candidates(&data, 100);
    let metrics = evaluate(&model, &data, &cands);
    stisan_obs::gauge("eval.hr5", metrics.hr5);
    stisan_obs::gauge("eval.ndcg5", metrics.ndcg5);
    stisan_obs::gauge("eval.hr10", metrics.hr10);
    stisan_obs::gauge("eval.ndcg10", metrics.ndcg10);

    let scale = flags.scale.unwrap_or_else(|| default_scale(preset));
    let stamp =
        SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or_default();
    let report = stisan_obs::RunReport {
        run_id: format!("stisan-{}-seed{}-{stamp}", preset.name().to_lowercase(), flags.seed),
        model: "STiSAN".into(),
        config: vec![
            ("dataset".into(), preset.name().into()),
            ("scale".into(), format!("{scale}")),
            ("dim".into(), format!("{}", flags.dim)),
            ("blocks".into(), format!("{}", flags.blocks)),
            ("epochs".into(), format!("{}", flags.epochs)),
            ("batch".into(), format!("{}", flags.batch)),
            ("max_len".into(), format!("{}", flags.max_len)),
            ("seed".into(), format!("{}", flags.seed)),
        ],
        epochs: stisan_obs::epochs(),
        ops: obs.profiler.snapshot(),
        metrics: obs.registry.snapshot(),
    };
    println!("\n{}", report.human_summary());
    let path = report.write_json("results").expect("failed to write results/<run_id>.json");
    println!("report written to {}", path.display());
}
