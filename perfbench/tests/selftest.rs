//! Self-test of the benchmark at tiny sizes: every metric `BENCHMARK.json`
//! names prints finite with its unit on every workload, and a forced
//! checksum mismatch is counted as a failed operation.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use brace_serve::Json;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

const WORKLOADS: [&str; 4] = ["fish-uniform", "fish-hotspot", "predator-cluster", "serve-mix"];

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/"))
        .expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let Some(Json::Arr(items)) = benchmark_json().get(section).cloned() else { panic!("no `{section}` list") };
    items
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Json::as_str).unwrap().to_string(),
                m.get("unit").and_then(Json::as_str).unwrap().to_string(),
            )
        })
        .collect()
}

/// Run one tiny workload and parse its last stdout line.
fn run(workload: &str, trace: bool, extra: &[&str]) -> (Json, String) {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let n = RUNS.fetch_add(1, Ordering::Relaxed);
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-selftest-{}-{n}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", if trace { "1" } else { "0" }])
        .args(["--scale", "tiny", "--out", out_dir.to_str().unwrap()])
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    let _ = std::fs::remove_dir_all(&out_dir);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    (Json::parse(last).unwrap_or_else(|e| panic!("{workload}: last line is not JSON ({e}): {last}")), stdout)
}

fn num(j: &Json, key: &str) -> f64 {
    match j.get(key) {
        Some(Json::Num(v)) => *v,
        other => panic!("`{key}` is not a number: {other:?}"),
    }
}

#[test]
fn every_declared_metric_prints_finite_with_its_unit() {
    for workload in WORKLOADS {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let (result, stdout) = run(workload, trace, &[]);
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true), "{workload}:\n{stdout}");
            assert_eq!(num(&result, "failed"), 0.0);
            assert!(num(&result, "attempted") >= 1.0);
            let metrics = result.get("metrics").expect("metrics object");
            let Json::Obj(printed) = metrics else { panic!("metrics is not an object") };
            let want = declared(section);
            assert_eq!(printed.len(), want.len(), "{workload} {section}: printed {printed:?}");
            for (name, unit) in want {
                let m = metrics.get(&name).unwrap_or_else(|| panic!("{workload} {section}: `{name}` missing"));
                let value = num(m, "value");
                assert!(value.is_finite(), "{workload}: `{name}` = {value}");
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()), "{workload}: unit of `{name}`");
            }
        }
    }
}

#[test]
fn a_forced_checksum_mismatch_raises_the_error_rate() {
    for workload in WORKLOADS {
        let (result, stdout) = run(workload, false, &["--inject-mismatch"]);
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(false), "{workload}:\n{stdout}");
        let (attempted, failed) = (num(&result, "attempted"), num(&result, "failed"));
        assert!(failed > 0.0 && failed <= attempted, "{workload}: {failed} of {attempted}");
        let error_rate: f64 = stdout
            .lines()
            .find_map(|l| l.split_whitespace().skip_while(|w| *w != "error_rate").nth(1))
            .and_then(|v| v.parse().ok())
            .expect("an error_rate detail line");
        assert!(error_rate > 0.0, "{workload}: error_rate {error_rate}");
    }
}
