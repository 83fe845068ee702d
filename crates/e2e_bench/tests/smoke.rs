//! Runs the whole workload matrix in `--smoke` mode and checks the ledger
//! against `BENCHMARK.json`: every declared workload ran once untraced and
//! once traced, and each run reported every declared metric exactly once.

use std::path::Path;
use std::process::Command;

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use json::Value;

fn read_json(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn names(list: Option<&Value>) -> Vec<String> {
    list.map_or(&[][..], Value::as_arr)
        .iter()
        .map(|item| {
            item.get("name")
                .and_then(Value::as_str)
                .expect("entry has a name")
                .to_string()
        })
        .collect()
}

#[test]
fn smoke_run_reports_every_declared_name_exactly_once() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let benchmark = read_json(&root.join("BENCHMARK.json"));
    let workloads = names(benchmark.get("workloads"));
    let end_to_end = names(benchmark.get("end_to_end"));
    let per_layer = names(benchmark.get("per_layer"));
    assert_eq!(workloads.len(), 4);
    assert!(end_to_end.iter().any(|n| n == "setup_s"));
    for name in workloads.iter().chain(&end_to_end).chain(&per_layer) {
        let legal = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        assert!(
            !name.is_empty() && name.chars().all(legal),
            "illegal name {name:?}"
        );
    }

    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("e2e_smoke");
    let ledger_path = tmp.join("ledger.json");
    let status = Command::new(env!("CARGO_BIN_EXE_stisan-e2e-bench"))
        .current_dir(&root)
        .args(["--smoke", "--workload", "all", "--out"])
        .arg(&ledger_path)
        .arg("--work-dir")
        .arg(tmp.join("work"))
        .status()
        .expect("benchmark binary runs");
    assert!(status.success(), "smoke run failed: {status}");

    let ledger = read_json(&ledger_path);
    assert_eq!(
        ledger.get("meta").and_then(|m| m.get("smoke")),
        Some(&Value::Bool(true))
    );
    let runs = ledger.get("runs").map_or(&[][..], Value::as_arr);
    assert_eq!(
        runs.len(),
        2 * workloads.len(),
        "one untraced and one traced run per workload"
    );
    for workload in &workloads {
        for (traced, declared) in [(false, &end_to_end), (true, &per_layer)] {
            let matching: Vec<&Value> = runs
                .iter()
                .filter(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
                .filter(|r| r.get("trace") == Some(&Value::Bool(traced)))
                .collect();
            assert_eq!(
                matching.len(),
                1,
                "{workload} traced={traced} must appear exactly once"
            );
            let run = matching[0];
            assert_eq!(run.get("correct"), Some(&Value::Bool(true)), "{workload}");
            assert_eq!(
                run.get("failed").and_then(Value::as_f64),
                Some(0.0),
                "{workload}"
            );
            let metrics = run.get("metrics").expect("run has metrics").fields();
            assert_eq!(metrics.len(), declared.len(), "{workload} traced={traced}");
            for name in declared {
                let reported: Vec<&Value> = metrics
                    .iter()
                    .filter(|(k, _)| k == name)
                    .map(|(_, v)| v)
                    .collect();
                assert_eq!(
                    reported.len(),
                    1,
                    "{workload}: {name} must be reported exactly once"
                );
                let value = reported[0].get("value").and_then(Value::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload}: {name} = {value:?}"
                );
                assert!(reported[0].get("unit").and_then(Value::as_str).is_some());
            }
        }
    }
}

#[test]
fn unknown_workloads_and_flags_are_refused() {
    for args in [
        &["--workload", "nope"][..],
        &["--bogus"],
        &["--trace", "2"],
        &["--seconds", "0"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_stisan-e2e-bench"))
            .args(args)
            .output()
            .expect("benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} must not print a result");
    }
}
