//! `stisan-e2e-bench` — the end-to-end benchmark and layer-budget ledger
//! for the STiSAN serving stack (see this crate's README.md).
//!
//! ```text
//! stisan-e2e-bench [--workload <name|all>] [--seed n] [--seconds s] [--trace 0|1]
//!                  [--repeat n] [--smoke] [--pois small,large]
//!                  [--out ledger.json] [--work-dir dir]
//! stisan-e2e-bench --compare parent.json change.json
//! ```
//!
//! With one workload, one `--trace` mode and no `--repeat`, the last line of
//! stdout is the run's `{"correct","attempted","failed","metrics"}` object.

mod json;
mod layers;
mod loadgen;
mod report;
mod setup;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use json::Value;
use workloads::{RunOpts, Spec, SPECS};

const BENCHMARK_JSON: &str = "BENCHMARK.json";

struct Cli {
    workload: String,
    /// `None` runs both modes, untraced first.
    trace: Option<bool>,
    repeat: usize,
    smoke: bool,
    out: Option<PathBuf>,
    compare: Option<(String, String)>,
    opts: RunOpts,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: "all".into(),
        trace: None,
        repeat: 1,
        smoke: false,
        out: None,
        compare: None,
        opts: RunOpts {
            seed: 42,
            seconds: 12.0,
            pois_small: 10_000,
            pois_large: 100_000,
            work_dir: PathBuf::from("crates/e2e_bench/work"),
        },
    };
    let mut pois = None;
    let mut seconds = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => cli.workload = value()?.clone(),
            "--seed" => cli.opts.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => seconds = Some(value().and_then(|v| v.parse().map_err(|_| bad(v)))?),
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                })
            }
            "--repeat" => cli.repeat = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--smoke" => cli.smoke = true,
            "--pois" => {
                let v = value()?;
                let parsed = v
                    .split_once(',')
                    .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)));
                pois = Some(parsed.ok_or_else(|| bad(v))?);
            }
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            "--work-dir" => cli.opts.work_dir = PathBuf::from(value()?),
            "--compare" => cli.compare = Some((value()?.clone(), value()?.clone())),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if cli.smoke {
        // Small catalogues and a twentieth of the requests: the whole
        // matrix in under 30 s.
        (cli.opts.pois_small, cli.opts.pois_large) = (2_000, 10_000);
        cli.opts.seconds /= 20.0;
    }
    if let Some((small, large)) = pois {
        (cli.opts.pois_small, cli.opts.pois_large) = (small, large);
    }
    if let Some(s) = seconds {
        cli.opts.seconds = s;
    }
    if cli.opts.seconds.is_nan() || cli.opts.seconds <= 0.0 || cli.repeat == 0 {
        return Err("--seconds and --repeat must be positive".into());
    }
    if cli.workload != "all" && !SPECS.iter().any(|s| s.name == cli.workload) {
        let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        return Err(format!(
            "unknown workload {}; one of all, {}",
            cli.workload,
            names.join(", ")
        ));
    }
    Ok(cli)
}

/// Runs one `(workload, mode, seed)` in a child process of this binary and
/// returns its ledger record. Runs of one invocation must not share a
/// process: the metrics registry, the allocator's retained memory and the
/// thread pools of an earlier run would all show up in a later one's RSS
/// and tail latency, and the benchmark driver never measures them that way.
fn run_in_child(cli: &Cli, spec: &Spec, trace: bool, seed: u64, n: usize) -> Result<Value, String> {
    let out = cli.opts.work_dir.join(format!("run_{n}.json"));
    // A ledger left by an earlier invocation must not pass for this run's.
    let _ = std::fs::remove_file(&out);
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut child = Command::new(exe);
    child
        .args([
            "--workload",
            spec.name,
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &cli.opts.seconds.to_string(),
        ])
        .args([
            "--pois",
            &format!("{},{}", cli.opts.pois_small, cli.opts.pois_large),
        ])
        .arg("--work-dir")
        .arg(&cli.opts.work_dir)
        .arg("--out")
        .arg(&out);
    if cli.smoke {
        child.arg("--smoke");
    }
    let status = child
        .status()
        .map_err(|e| format!("spawn {}: {e}", spec.name))?;
    let ledger = report::load(&out)?;
    let record = ledger
        .get("runs")
        .map_or(&[][..], Value::as_arr)
        .first()
        .cloned();
    let record = record.ok_or(format!("{}: no run recorded", out.display()))?;
    if !status.success() && record.get("correct") == Some(&Value::Bool(true)) {
        return Err(format!("{} exited with {status}", spec.name));
    }
    Ok(record)
}

fn run(cli: &Cli) -> Result<bool, String> {
    // The gateway ships with observability on, so everything is measured
    // with it on.
    stisan_obs::init();
    if let Some((parent, change)) = &cli.compare {
        return report::judge(
            BENCHMARK_JSON.as_ref(),
            change.as_ref(),
            Some(parent.as_ref()),
        );
    }
    std::fs::create_dir_all(&cli.opts.work_dir)
        .map_err(|e| format!("{}: {e}", cli.opts.work_dir.display()))?;
    let modes: &[bool] = match cli.trace {
        None => &[false, true],
        Some(false) => &[false],
        Some(true) => &[true],
    };
    let mut plan = Vec::new();
    for spec in SPECS
        .iter()
        .filter(|s| cli.workload == "all" || s.name == cli.workload)
    {
        for &trace in modes {
            plan.extend((0..cli.repeat).map(|_| (spec, trace, cli.opts.seed)));
        }
    }
    let out = cli
        .out
        .clone()
        .unwrap_or_else(|| cli.opts.work_dir.join("BENCH_e2e.json"));
    let write = |runs: Vec<Value>| {
        report::write_ledger(&out, report::meta(&cli.opts, cli.smoke), runs)
            .map_err(|e| format!("{}: {e}", out.display()))
    };
    if let [(spec, trace, seed)] = plan[..] {
        let opts = RunOpts {
            seed,
            ..cli.opts.clone()
        };
        let record = if trace {
            workloads::run_traced(spec, &opts)
        } else {
            workloads::run_untraced(spec, &opts)
        };
        record.print();
        write(vec![record.ledger_json()])?;
        println!("{}", record.driver_json().encode());
        return Ok(record.correct());
    }
    let mut runs = Vec::new();
    for (n, &(spec, trace, seed)) in plan.iter().enumerate() {
        runs.push(run_in_child(cli, spec, trace, seed, n)?);
    }
    let all_correct = runs
        .iter()
        .all(|r| r.get("correct") == Some(&Value::Bool(true)));
    write(runs)?;
    if cli.repeat > 1 {
        // Spread is reported, not enforced: only `--compare` and a wrong
        // answer fail the process.
        report::judge(BENCHMARK_JSON.as_ref(), &out, None)?;
    }
    println!("wrote {}", out.display());
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args).and_then(|cli| run(&cli)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("stisan-e2e-bench: {e}");
            ExitCode::from(2)
        }
    }
}
