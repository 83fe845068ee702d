//! # stisan-bench
//!
//! Shared harness for the `repro` exhibits (one per paper table/figure) and
//! `profile_run`: flag parsing, dataset construction at laptop-friendly
//! scales, and the model zoo.
//!
//! Both binaries accept:
//!
//! * `--scale <f>` — dataset scale relative to the paper's Table II sizes
//!   (default: per-preset values chosen so the whole suite runs on a CPU);
//! * `--dim`, `--blocks`, `--epochs`, `--batch`, `--max-len` — model size;
//! * `--rounds <k>` — evaluation rounds (the paper averages 10);
//! * `--seed <s>` — master seed; `--verbose` — per-epoch loss logging;
//! * `--datasets A,B` / `--models X,Y` — restrict the sweep;
//! * `--ckpt-dir <dir>` — crash-safe STiSAN checkpointing: periodic saves
//!   plus automatic resume from the newest valid checkpoint.

pub mod paper;

use stisan_core::{CheckpointConfig, StiSan, StisanConfig};
use stisan_data::{generate, preprocess, DatasetPreset, PrepConfig, Processed, RelationConfig};
use stisan_eval::Recommender;
use stisan_models::{
    bpr::BprConfig, caser::CaserShape, fpmc::FpmcConfig, prme::PrmeConfig, AttentionMode,
    Bert4Rec, BprMf, Caser, FpmcLr, GeoSan, Gru4Rec, Pop, PositionMode, PrmeG, SasRec, Stan,
    Stgn, TiSasRec, TrainConfig,
};

/// Parsed command-line flags with experiment defaults.
#[derive(Clone, Debug)]
pub struct Flags {
    /// Dataset scale override (None = per-preset default).
    pub scale: Option<f64>,
    /// Latent dimension.
    pub dim: usize,
    /// Stacked blocks `N`.
    pub blocks: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Batch size.
    pub batch: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Window length `n`.
    pub max_len: usize,
    /// Evaluation rounds.
    pub rounds: usize,
    /// Master seed.
    pub seed: u64,
    /// Per-epoch logging.
    pub verbose: bool,
    /// Dataset filter (names, lowercase).
    pub datasets: Option<Vec<String>>,
    /// Model filter (names, lowercase).
    pub models: Option<Vec<String>>,
    /// Checkpoint directory for crash-safe STiSAN training (None = off).
    pub ckpt_dir: Option<std::path::PathBuf>,
}

impl Default for Flags {
    fn default() -> Self {
        Flags {
            scale: None,
            dim: 32,
            blocks: 2,
            epochs: 20,
            batch: 16,
            lr: 2e-3,
            max_len: 50,
            rounds: 1,
            seed: 42,
            verbose: false,
            datasets: None,
            models: None,
            ckpt_dir: None,
        }
    }
}

impl Flags {
    /// Parses `std::env::args()` on top of `base` defaults, so a binary can
    /// ship its own defaults (e.g. `profile_run` trains fewer epochs). A
    /// rejected command line is reported on stderr and exits with code 2.
    pub fn parse_with(base: Flags) -> Flags {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse_from(base, &args).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        })
    }

    /// Parses `args` on top of `base`. Unknown flags, missing or malformed
    /// values, and `--datasets` / `--models` names outside
    /// `DatasetPreset::all()` / [`MODEL_NAMES`] (compared case-insensitively)
    /// are errors: a typo must not select nothing and print an empty table.
    pub fn parse_from(base: Flags, args: &[String]) -> Result<Flags, String> {
        fn num<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("bad value {v:?} for {key}"))
        }
        fn names(key: &str, v: &str, valid: &[&str]) -> Result<Vec<String>, String> {
            let picked: Vec<String> = v.split(',').map(str::to_lowercase).collect();
            match picked.iter().find(|n| !valid.iter().any(|ok| ok.to_lowercase() == **n)) {
                Some(bad) => {
                    Err(format!("unknown name {bad:?} in {key}; valid: {}", valid.join(", ")))
                }
                None => Ok(picked),
            }
        }
        let mut f = base;
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let mut val = || it.next().ok_or_else(|| format!("flag {key} needs a value"));
            match key.as_str() {
                "--scale" => f.scale = Some(num(key, val()?)?),
                "--dim" => f.dim = num(key, val()?)?,
                "--blocks" => f.blocks = num(key, val()?)?,
                "--epochs" => f.epochs = num(key, val()?)?,
                "--batch" => f.batch = num(key, val()?)?,
                "--lr" => f.lr = num(key, val()?)?,
                "--max-len" => f.max_len = num(key, val()?)?,
                "--rounds" => f.rounds = num(key, val()?)?,
                "--seed" => f.seed = num(key, val()?)?,
                "--verbose" => f.verbose = true,
                "--datasets" => {
                    let valid = DatasetPreset::all().map(|p| p.name());
                    f.datasets = Some(names(key, val()?, &valid)?)
                }
                "--models" => f.models = Some(names(key, val()?, &MODEL_NAMES)?),
                "--ckpt-dir" => f.ckpt_dir = Some(val()?.into()),
                other => {
                    return Err(format!(
                        "unknown flag {other}; supported: --scale --dim --blocks --epochs --batch \
                         --lr --max-len --rounds --seed --verbose --datasets --models --ckpt-dir"
                    ))
                }
            }
        }
        Ok(f)
    }

    /// Whether `name` passes the `--datasets` filter.
    pub fn wants_dataset(&self, name: &str) -> bool {
        self.datasets.as_ref().map(|d| d.iter().any(|x| x == &name.to_lowercase())).unwrap_or(true)
    }

    /// The presets of `among` that pass the `--datasets` filter, in order.
    pub fn wanted<const N: usize>(
        &self,
        among: [DatasetPreset; N],
    ) -> impl Iterator<Item = DatasetPreset> + '_ {
        among.into_iter().filter(|p| self.wants_dataset(p.name()))
    }

    /// Whether `name` passes the `--models` filter.
    pub fn wants_model(&self, name: &str) -> bool {
        self.models.as_ref().map(|m| m.iter().any(|x| x == &name.to_lowercase())).unwrap_or(true)
    }

    /// Checkpoint policy for an STiSAN run under `--ckpt-dir`, namespaced by
    /// dataset and seed so concurrent or repeated runs never resume each
    /// other's (structurally incompatible) checkpoints. None when the flag
    /// is unset.
    pub fn checkpoint_config(&self, preset: DatasetPreset, seed: u64) -> Option<CheckpointConfig> {
        let dir = self.ckpt_dir.as_ref()?;
        Some(CheckpointConfig::new(dir.join(format!("{}-seed{seed}", preset.name().to_lowercase()))))
    }

    /// The shared neural training configuration.
    pub fn train_config(&self) -> TrainConfig {
        TrainConfig {
            dim: self.dim,
            blocks: self.blocks,
            epochs: self.epochs,
            batch: self.batch,
            lr: self.lr,
            dropout: 0.2,
            seed: self.seed,
            verbose: self.verbose,
            ..TrainConfig::default()
        }
    }
}

/// Runs `f` under an obs span named `name` and returns its result together
/// with the elapsed wall time in seconds.
///
/// This is the one timing primitive for the experiment binaries: the span
/// lands in the metrics registry (as the `span.<name>` histogram) whenever
/// observability is on, and the returned wall time serves ad-hoc progress
/// printing either way.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = stisan_obs::span(name);
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Mean wall time in seconds of one repetition of `f` over `reps` runs,
/// recorded under a single span named `name`.
pub fn timed_reps(name: &'static str, reps: usize, mut f: impl FnMut()) -> f64 {
    let (_, secs) = timed(name, || {
        for _ in 0..reps {
            f();
        }
    });
    secs / reps.max(1) as f64
}

/// Per-preset default scale: chosen so each dataset lands at roughly 30k
/// check-ins (the full 13-model sweep then finishes on a CPU box).
pub fn default_scale(preset: DatasetPreset) -> f64 {
    match preset {
        DatasetPreset::Gowalla => 0.02,
        DatasetPreset::Brightkite => 0.04,
        DatasetPreset::Weeplaces => 0.08,
        DatasetPreset::Changchun => 0.002,
    }
}

/// Cold-filtering thresholds at reduced scale: the paper's 20/10 thresholds
/// assume full-size data. At reduced scale the check-in mass shrinks with the
/// user count, so a fixed POI threshold would wipe out the POI tail and leave
/// "100-nearest" evaluation candidates spanning whole towns (which lets
/// user-factor models shortcut the task). The POI threshold therefore scales
/// down with the data, keeping the surviving POI density — and thereby the
/// geographic tightness of the evaluation candidates — comparable to the
/// paper's setting.
pub fn prep_config(max_len: usize, scale: f64) -> PrepConfig {
    let min_poi = ((scale * 250.0).round() as usize).clamp(3, 10);
    PrepConfig { max_len, min_user_checkins: 20, min_poi_interactions: min_poi }
}

/// Generates + preprocesses one dataset.
pub fn load(preset: DatasetPreset, flags: &Flags) -> Processed {
    let scale = flags.scale.unwrap_or_else(|| default_scale(preset));
    let cfg = preset.config(scale);
    let raw = generate(&cfg, flags.seed);
    preprocess(&raw, &prep_config(flags.max_len, scale))
}

/// The paper's per-dataset weighted-BCE temperature `T`.
pub fn temperature_for(preset: DatasetPreset) -> f32 {
    match preset {
        DatasetPreset::Gowalla => 1.0,
        DatasetPreset::Brightkite | DatasetPreset::Weeplaces => 100.0,
        DatasetPreset::Changchun => 500.0,
    }
}

/// The paper's per-dataset best `(k_t days, k_d km)` thresholds (Fig 9).
pub fn relation_for(preset: DatasetPreset) -> RelationConfig {
    match preset {
        DatasetPreset::Gowalla | DatasetPreset::Brightkite => {
            RelationConfig { k_t_days: 10.0, k_d_km: 15.0 }
        }
        DatasetPreset::Weeplaces | DatasetPreset::Changchun => {
            RelationConfig { k_t_days: 5.0, k_d_km: 5.0 }
        }
    }
}

/// STiSAN as the paper trains it on `preset`: 15 negatives, the per-dataset
/// temperature and relation thresholds, model size from `flags`.
pub fn stisan_config(preset: DatasetPreset, flags: &Flags) -> StisanConfig {
    StisanConfig {
        train: TrainConfig {
            negatives: 15,
            temperature: temperature_for(preset),
            ..flags.train_config()
        },
        relation: relation_for(preset),
        ..Default::default()
    }
}

/// The Table III model roster, in paper order.
pub const MODEL_NAMES: [&str; 13] = [
    "POP", "BPR", "FPMC-LR", "PRME-G", "GRU4Rec", "Caser", "STGN", "SASRec", "Bert4Rec",
    "TiSASRec", "GeoSAN", "STAN", "STiSAN",
];

/// Builds and trains one model by its Table III name.
///
/// # Panics
/// Panics on an unknown model name.
pub fn train_model(
    name: &str,
    data: &Processed,
    preset: DatasetPreset,
    flags: &Flags,
    seed: u64,
) -> Box<dyn Recommender> {
    let t = TrainConfig { seed, ..flags.train_config() };
    match name {
        "POP" => Box::new(Pop::fit(data)),
        "BPR" => Box::new(BprMf::fit(data, &BprConfig { dim: t.dim, seed, ..Default::default() })),
        "FPMC-LR" => {
            Box::new(FpmcLr::fit(data, &FpmcConfig { dim: t.dim, seed, ..Default::default() }))
        }
        "PRME-G" => {
            Box::new(PrmeG::fit(data, &PrmeConfig { dim: t.dim, seed, ..Default::default() }))
        }
        "GRU4Rec" => {
            let mut m = Gru4Rec::new(data, t);
            m.fit(data);
            Box::new(m)
        }
        "Caser" => {
            let mut m = Caser::new(data, t, CaserShape::default());
            m.fit(data);
            Box::new(m)
        }
        "STGN" => {
            let mut m = Stgn::new(data, t);
            m.fit(data);
            Box::new(m)
        }
        "SASRec" => {
            let mut m = SasRec::new(data, t, PositionMode::Vanilla, AttentionMode::Plain);
            m.fit(data);
            Box::new(m)
        }
        "Bert4Rec" => {
            let mut m = Bert4Rec::new(data, t);
            m.fit(data);
            Box::new(m)
        }
        "TiSASRec" => {
            let mut m = TiSasRec::new(data, t);
            m.fit(data);
            Box::new(m)
        }
        "GeoSAN" => {
            let mut m = GeoSan::new(
                data,
                TrainConfig { negatives: 15, temperature: temperature_for(preset), ..t },
            );
            m.fit(data);
            Box::new(m)
        }
        "STAN" => {
            let mut m = Stan::new(data, TrainConfig { negatives: 5, ..t });
            m.fit(data);
            Box::new(m)
        }
        "STiSAN" => {
            let mut cfg = stisan_config(preset, flags);
            cfg.train.seed = seed;
            let mut m = StiSan::new(data, cfg);
            match flags.checkpoint_config(preset, seed) {
                Some(cc) => {
                    if let Err(e) = m.fit_with_checkpoints(data, Some(&cc)) {
                        panic!("checkpointed training failed: {e}");
                    }
                }
                None => m.fit(data),
            }
            Box::new(m)
        }
        other => panic!("unknown model {other}; valid: {MODEL_NAMES:?}"),
    }
}

/// Prints a Markdown table header for metric rows.
pub fn print_metric_header(first_col: &str) {
    println!("| {first_col:<16} | HR@5   | NDCG@5 | HR@10  | NDCG@10 |");
    println!("|{}|--------|--------|--------|---------|", "-".repeat(18));
}

/// Prints one metric row.
pub fn print_metric_row(label: &str, m: &stisan_eval::Metrics) {
    println!(
        "| {label:<16} | {:.4} | {:.4} | {:.4} | {:.4}  |",
        m.hr5, m.ndcg5, m.hr10, m.ndcg10
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scales_are_small() {
        for p in DatasetPreset::all() {
            assert!(default_scale(p) <= 0.1);
        }
    }

    #[test]
    fn temperature_matches_paper_settings() {
        assert_eq!(temperature_for(DatasetPreset::Gowalla), 1.0);
        assert_eq!(temperature_for(DatasetPreset::Brightkite), 100.0);
        assert_eq!(temperature_for(DatasetPreset::Changchun), 500.0);
    }

    #[test]
    fn model_roster_covers_table3() {
        assert_eq!(MODEL_NAMES.len(), 13);
        assert_eq!(MODEL_NAMES[12], "STiSAN");
    }

    fn parse(args: &[&str]) -> Result<Flags, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Flags::parse_from(Flags::default(), &args)
    }

    #[test]
    fn misspelt_dataset_or_model_is_rejected_with_the_valid_list() {
        // A typo must not filter every row away and exit 0 with an empty table.
        for typo in ["Gowala", "nope", "Gowalla,nope"] {
            let err = parse(&["--datasets", typo]).unwrap_err();
            assert!(err.contains("Gowalla, Brightkite, Weeplaces, Changchun"), "{err}");
        }
        let err = parse(&["--models", "STiSAN,SASRek"]).unwrap_err();
        assert!(err.contains("\"sasrek\"") && err.contains("SASRec"), "{err}");
    }

    #[test]
    fn names_match_case_insensitively_and_flags_layer_over_the_base() {
        let f = parse(&["--datasets", "gowalla,CHANGCHUN", "--models", "stisan", "--epochs", "3"])
            .unwrap();
        assert!(f.wants_dataset("Gowalla") && f.wants_dataset("Changchun"));
        assert!(!f.wants_dataset("Weeplaces"));
        assert!(f.wants_model("STiSAN") && !f.wants_model("POP"));
        assert_eq!((f.epochs, f.dim), (3, Flags::default().dim));
        assert!(parse(&["--bogus"]).unwrap_err().contains("unknown flag --bogus"));
        assert!(parse(&["--epochs"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--epochs", "many"]).unwrap_err().contains("bad value"));
    }

    #[test]
    fn tiny_end_to_end_smoke() {
        // One cheap model through the whole load/train/evaluate path.
        let flags = Flags { scale: Some(0.004), max_len: 16, epochs: 1, ..Flags::default() };
        let data = load(DatasetPreset::Changchun, &flags);
        let model = train_model("POP", &data, DatasetPreset::Changchun, &flags, 1);
        let cands = stisan_eval::build_candidates(&data, 20);
        let m = stisan_eval::evaluate(model.as_ref(), &data, &cands);
        assert!(m.hr10 <= 1.0);
    }
}
