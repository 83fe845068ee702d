//! The result ledger (host fingerprint + one record per run), and the
//! judgement of repeated runs against the bounds in `BENCHMARK.json`.

use std::path::Path;
use std::process::Command;

use crate::json::{self, Value};
use crate::stats::quartiles;
use crate::workloads::{RunOpts, ABSOLUTE_BOUNDS, SPECS};

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git (a benchmark checkout need not be a repository).
fn git_commit() -> Option<String> {
    let head = read_trimmed(".git/HEAD")?;
    match head.strip_prefix("ref: ") {
        None => Some(head),
        Some(reference) => read_trimmed(&format!(".git/{reference}")).or_else(|| {
            let packed = read_trimmed(".git/packed-refs")?;
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        }),
    }
}

/// Host fingerprint and run settings stored with every ledger.
pub fn meta(opts: &RunOpts, smoke: bool) -> Value {
    let unknown = || "unknown".to_string();
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(unknown);
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(unknown);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::obj([
        ("nproc", Value::Num(nproc as f64)),
        ("cpu_model", Value::Str(cpu_model)),
        (
            "kernel",
            Value::Str(read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(unknown)),
        ),
        ("rustc", Value::Str(rustc)),
        (
            "git_commit",
            Value::Str(git_commit().unwrap_or_else(unknown)),
        ),
        ("seed", Value::Num(opts.seed as f64)),
        ("seconds", Value::Num(opts.seconds)),
        ("pois_small", Value::Num(opts.pois_small as f64)),
        ("pois_large", Value::Num(opts.pois_large as f64)),
        (
            "requests",
            Value::Obj(
                SPECS
                    .iter()
                    .map(|s| {
                        (
                            s.name.to_string(),
                            Value::Num(s.requests(opts.seconds) as f64),
                        )
                    })
                    .collect(),
            ),
        ),
        ("smoke", Value::Bool(smoke)),
        ("obs", Value::Bool(stisan_obs::enabled())),
    ])
}

pub fn write_ledger(path: &Path, meta: Value, runs: Vec<Value>) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let ledger = Value::obj([("meta", meta), ("runs", Value::Arr(runs))]);
    std::fs::write(path, ledger.encode() + "\n")
}

pub fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One end-to-end metric and the bound by which it may get worse.
struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
    /// The bound is a difference, not a share of the parent's median.
    absolute: bool,
}

/// The relative bounds `BENCHMARK.json` declares, then the absolute ones of
/// the end-to-end metrics it cannot hold.
fn bounds(benchmark: &Value) -> Vec<Bound> {
    let field = |m: &Value, key: &str| m.get(key).and_then(Value::as_str).unwrap_or("").to_string();
    let declared = benchmark
        .get("end_to_end")
        .map_or(&[][..], Value::as_arr)
        .iter()
        .map(|m| Bound {
            name: field(m, "name"),
            lower_is_better: field(m, "better") == "lower",
            bound: m.get("bound").and_then(Value::as_f64).unwrap_or(0.0),
            absolute: false,
        });
    let absolute = ABSOLUTE_BOUNDS
        .iter()
        .map(|&(name, lower_is_better, bound)| Bound {
            name: name.to_string(),
            lower_is_better,
            bound,
            absolute: true,
        });
    declared.chain(absolute).collect()
}

/// Every value of `metric` on `workload` in a ledger: from its untraced
/// runs, or its traced ones for the metrics those report.
fn values(ledger: &Value, workload: &str, metric: &str) -> Vec<f64> {
    ledger
        .get("runs")
        .map_or(&[][..], Value::as_arr)
        .iter()
        .filter(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn workload_names(benchmark: &Value) -> Vec<String> {
    benchmark
        .get("workloads")
        .map_or(&[][..], Value::as_arr)
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
        .collect()
}

impl Bound {
    /// Quartile distance, as a share of the median unless absolute.
    fn spread(&self, q: [f64; 3]) -> f64 {
        (q[2] - q[0]) / self.scale(q[1])
    }

    fn scale(&self, median: f64) -> f64 {
        if self.absolute {
            1.0
        } else {
            median.abs().max(1e-12)
        }
    }
}

/// Prints median and quartiles of every end-to-end metric over a ledger's
/// repeated runs, and — against a `parent` ledger — whether each is `ok`,
/// `regressed` (worse than the parent's median by more than its bound) or
/// `unresolved` (either side's spread is wider than the bound). `setup_s`
/// is judged on its medians alone, as the benchmark driver judges it: one
/// set-up per run is a single sample, and only the median over runs is
/// steady. Returns whether every metric judged was `ok`.
pub fn judge(
    benchmark_path: &Path,
    ledger_path: &Path,
    parent_path: Option<&Path>,
) -> Result<bool, String> {
    let benchmark = load(benchmark_path)?;
    let ledger = load(ledger_path)?;
    let parent = parent_path.map(load).transpose()?;
    let mut all_ok = true;
    for workload in workload_names(&benchmark) {
        println!("{workload}");
        for b in bounds(&benchmark) {
            let mine = values(&ledger, &workload, &b.name);
            if mine.is_empty() {
                continue;
            }
            let q = quartiles(&mine);
            let mut widest = b.spread(q);
            let mut line = format!(
                "  {:<24} n={:<2} median {:>12.4} q1 {:>12.4} q3 {:>12.4} spread {:>8.4}",
                b.name,
                mine.len(),
                q[1],
                q[0],
                q[2],
                widest
            );
            let mut worse_by = 0.0;
            if let Some(parent) = &parent {
                let theirs = values(parent, &workload, &b.name);
                if theirs.is_empty() {
                    continue;
                }
                let pq = quartiles(&theirs);
                widest = widest.max(b.spread(pq));
                let change = (q[1] - pq[1]) / b.scale(pq[1]);
                worse_by = if b.lower_is_better { change } else { -change };
                line += &format!(" parent median {:>12.4} worse by {:>8.4}", pq[1], worse_by);
            }
            let status = if mine.len() > 1 && widest > b.bound && b.name != "setup_s" {
                "unresolved"
            } else if worse_by > b.bound {
                "regressed"
            } else {
                "ok"
            };
            all_ok &= status == "ok";
            let kind = if b.absolute { "absolute" } else { "of median" };
            println!("{line} bound {:>6.3} {kind} {status}", b.bound);
        }
    }
    Ok(all_ok)
}
