//! Run reports: a human-readable summary and a machine-readable JSON file
//! under `results/`.
//!
//! JSON is emitted by hand (std-only crate); the schema is documented in
//! DESIGN.md §Observability and covered by `tests` below. Non-finite
//! numbers serialize as `null`.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

use crate::metrics::Snapshot;
use crate::profile::OpKindRow;

/// Per-epoch training stats, recorded via [`crate::record_epoch`].
#[derive(Clone, Debug, Default)]
pub struct EpochStats {
    pub epoch: usize,
    /// Mean training loss over the epoch's steps.
    pub loss: f64,
    /// Target check-ins consumed per second of epoch wall time.
    pub checkins_per_sec: f64,
    /// Mean gradient global-norm over the epoch's (finite) steps.
    pub grad_norm: f64,
    /// Steps skipped by the non-finite guard this epoch.
    pub nonfinite_steps: u64,
    /// Epoch wall time in seconds.
    pub wall_s: f64,
}

/// Everything one profiled run produces.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    pub run_id: String,
    pub model: String,
    /// Flat key/value run configuration (dataset, dims, epochs, ...).
    pub config: Vec<(String, String)>,
    pub epochs: Vec<EpochStats>,
    /// Autodiff-tape cost table (per op kind).
    pub ops: Vec<OpKindRow>,
    pub metrics: Snapshot,
}

impl RunReport {
    /// Renders the human-readable summary table.
    pub fn human_summary(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "run {} — model {}", self.run_id, self.model);
        if !self.config.is_empty() {
            let cfg: Vec<String> = self.config.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let _ = writeln!(s, "config: {}", cfg.join(" "));
        }
        if !self.epochs.is_empty() {
            let _ = writeln!(
                s,
                "\n| {:>5} | {:>10} | {:>12} | {:>10} | {:>9} | {:>8} |",
                "epoch", "loss", "checkins/s", "grad norm", "nonfinite", "wall s"
            );
            let _ = writeln!(s, "|{}|", "-".repeat(72));
            for e in &self.epochs {
                let _ = writeln!(
                    s,
                    "| {:>5} | {:>10.4} | {:>12.1} | {:>10.4} | {:>9} | {:>8.2} |",
                    e.epoch, e.loss, e.checkins_per_sec, e.grad_norm, e.nonfinite_steps, e.wall_s
                );
            }
        }
        if !self.ops.is_empty() {
            let _ = writeln!(
                s,
                "\n| {:<16} | {:>8} | {:>11} | {:>11} | {:>12} |",
                "op kind", "count", "forward ms", "backward ms", "MFLOPs"
            );
            let _ = writeln!(s, "|{}|", "-".repeat(72));
            for r in &self.ops {
                let _ = writeln!(
                    s,
                    "| {:<16} | {:>8} | {:>11.2} | {:>11.2} | {:>12.2} |",
                    r.kind,
                    r.stats.count,
                    r.forward_ms(),
                    r.backward_ms(),
                    r.stats.flops as f64 / 1e6
                );
            }
        }
        for h in &self.metrics.histograms {
            let [p50, p95, p99] = h.sketch.p50_p95_p99();
            let _ = writeln!(
                s,
                "{}: n={} mean={:.3} p50={p50:.3} p95={p95:.3} p99={p99:.3} max={:.3}",
                h.name, h.count(), h.mean(), h.max
            );
        }
        s
    }

    /// Serializes the full report as JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        push_kv_str(&mut s, "run_id", &self.run_id);
        s.push(',');
        push_kv_str(&mut s, "model", &self.model);
        s.push_str(",\"config\":{");
        for (i, (k, v)) in self.config.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_kv_str(&mut s, k, v);
        }
        s.push_str("},\"epochs\":[");
        for (i, e) in self.epochs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"epoch\":{},\"loss\":{},\"checkins_per_sec\":{},\"grad_norm\":{},\"nonfinite_steps\":{},\"wall_s\":{}}}",
                e.epoch,
                json_num(e.loss),
                json_num(e.checkins_per_sec),
                json_num(e.grad_norm),
                e.nonfinite_steps,
                json_num(e.wall_s)
            );
        }
        s.push_str("],\"ops\":[");
        for (i, r) in self.ops.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"kind\":{},\"count\":{},\"forward_ms\":{},\"backward_ms\":{},\"flops\":{}}}",
                json_str(r.kind),
                r.stats.count,
                json_num(r.forward_ms()),
                json_num(r.backward_ms()),
                r.stats.flops
            );
        }
        s.push_str("],\"counters\":{");
        for (i, (k, v)) in self.metrics.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{}:{}", json_str(k), v);
        }
        s.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.metrics.gauges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{}:{}", json_str(k), json_num(*v));
        }
        s.push_str("},\"histograms\":[");
        for (i, h) in self.metrics.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let [p50, p95, p99] = h.sketch.p50_p95_p99().map(json_num);
            let _ = write!(
                s,
                "{{\"name\":{},\"count\":{},\"mean\":{},\"p50\":{p50},\"p95\":{p95},\"p99\":{p99},\"max\":{}}}",
                json_str(&h.name),
                h.count(),
                json_num(h.mean()),
                json_num(h.max)
            );
        }
        s.push_str("]}");
        s
    }

    /// Writes `<dir>/<run_id>.json`, creating `dir` if needed, and returns
    /// the path.
    pub fn write_json(&self, dir: impl AsRef<Path>) -> io::Result<PathBuf> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.run_id));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

fn push_kv_str(s: &mut String, k: &str, v: &str) {
    let _ = write!(s, "{}:{}", json_str(k), json_str(v));
}

/// JSON string literal with escaping. Shared by every hand-emitted JSON
/// document in this crate (reports, flight-recorder dumps, exemplars).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number: non-finite values become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use crate::profile::TapeProfiler;

    fn sample_report() -> RunReport {
        let reg = Registry::new();
        reg.inc("train.steps", 3);
        reg.set_gauge("eval.hr10", 0.5);
        reg.observe("span.train/epoch", 12.5);
        let prof = TapeProfiler::new();
        prof.record_forward("linear", 1_000_000, 2048);
        prof.record_backward("linear", 500_000);
        RunReport {
            run_id: "test-run".into(),
            model: "stisan".into(),
            config: vec![("epochs".into(), "2".into())],
            epochs: vec![EpochStats {
                epoch: 1,
                loss: 0.69,
                checkins_per_sec: 100.0,
                grad_norm: 1.5,
                nonfinite_steps: 0,
                wall_s: 2.0,
            }],
            ops: prof.snapshot(),
            metrics: reg.snapshot(),
        }
    }

    #[test]
    fn json_contains_all_sections() {
        let j = sample_report().to_json();
        for key in [
            "\"run_id\":\"test-run\"",
            "\"model\":\"stisan\"",
            "\"epochs\":[{\"epoch\":1",
            "\"kind\":\"linear\"",
            "\"flops\":2048",
            "\"train.steps\":3",
            "\"eval.hr10\":0.5",
            "\"name\":\"span.train/epoch\"",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }

    #[test]
    fn non_finite_numbers_become_null() {
        let mut r = sample_report();
        r.epochs[0].loss = f64::NAN;
        assert!(r.to_json().contains("\"loss\":null"));
    }

    #[test]
    fn string_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn writes_file_under_dir() {
        let dir = std::env::temp_dir().join("stisan-obs-report-test");
        let path = sample_report().write_json(&dir).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with('{') && body.ends_with('}'));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn human_summary_mentions_ops_and_epochs() {
        let h = sample_report().human_summary();
        assert!(h.contains("linear") && h.contains("epoch") && h.contains("test-run"));
    }
}
