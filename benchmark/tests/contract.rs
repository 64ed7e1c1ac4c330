//! The benchmark against its own contract, at `--quick` scale: every
//! workload, untraced and traced, must print exactly the names
//! `BENCHMARK.json` lists, once each, with their units.

use std::path::Path;
use std::process::Command;
use std::sync::Mutex;

use relgraph_obs::json::{self, Json};

const BIN: &str = env!("CARGO_BIN_EXE_relgraph-benchmark");

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of one of the two metric lists.
fn listed(bench: &Json, list: &str) -> Vec<(String, String)> {
    bench
        .get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Timings of one run are only worth checking when nothing else of this
/// test binary is running beside it.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Run one workload at quick scale; returns its last output line.
fn run(workload: &str, trace: bool) -> String {
    let _alone = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let out = Command::new(BIN)
        .args(["--workload", workload, "--seed", "5", "--quick"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) exited with {}:\n{stdout}",
        out.status
    );
    stdout.lines().last().expect("a result line").to_string()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The result line must carry exactly `expected`, each once, unit intact.
fn check_line(line: &str, expected: &[(String, String)], nonzero: bool) -> Json {
    let result = json::parse(line).unwrap_or_else(|e| panic!("result line: {e}\n{line}"));
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{line}");
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_f64)
            .expect("attempted")
            >= 1.0
    );
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("no metrics object in {line}");
    };
    for (name, unit) in expected {
        assert!(valid_name(name), "`{name}` is not a valid metric name");
        let printed = line.matches(&format!("\"{name}\": {{")).count();
        assert_eq!(printed, 1, "`{name}` printed {printed} times");
        let m = metrics.get(name).expect("listed metric is printed");
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
        let value = m
            .get("value")
            .and_then(Json::as_f64)
            .expect("numeric value");
        assert!(value.is_finite(), "`{name}` is not finite");
        assert!(!nonzero || value > 0.0, "end-to-end `{name}` is {value}");
    }
    for name in metrics.keys() {
        assert!(
            expected.iter().any(|(n, _)| n == name),
            "`{name}` is printed but not listed in BENCHMARK.json"
        );
    }
    result
}

fn check_workload(workload: &str) -> Json {
    let bench = benchmark_json();
    check_line(&run(workload, false), &listed(&bench, "end_to_end"), true);
    check_line(&run(workload, true), &listed(&bench, "per_layer"), false)
}

fn layer(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .expect("per-layer metric")
}

#[test]
fn workloads_are_the_named_ones() {
    let bench = benchmark_json();
    let names: Vec<&str> = bench
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(
        names,
        [
            "query_fit",
            "serve_hot",
            "serve_cold",
            "serve_mixed",
            "ingest_restart"
        ]
    );
    let end_to_end = listed(&bench, "end_to_end");
    assert!(end_to_end.contains(&("setup_s".to_string(), "s".to_string())));
}

#[test]
fn query_fit_steps_sum_to_the_whole() {
    let traced = check_workload("query_fit");
    let (whole, steps) = (
        layer(&traced, "pq.execute_s"),
        layer(&traced, "pq.steps_sum_s"),
    );
    // 5 % at full scale; the quick fit is a quarter of a second, so allow
    // scheduling noise its share.
    assert!(
        (steps - whole).abs() <= 0.15 * whole,
        "steps sum to {steps} s, execute takes {whole} s"
    );
}

#[test]
fn serve_hot_hits_and_serve_cold_misses() {
    let hot = check_workload("serve_hot");
    assert!(layer(&hot, "serve.cache.pred_hit_rate") >= 0.99);
    let cold = check_workload("serve_cold");
    assert!(layer(&cold, "serve.cache.pred_hit_rate") < 0.9);
}

#[test]
fn write_workloads_publish_and_recover() {
    for workload in ["serve_mixed", "ingest_restart"] {
        let traced = check_workload(workload);
        assert!(layer(&traced, "serve.ingest.publish_ms") > 0.0);
        assert!(layer(&traced, "store.wal.group_commit_ms") > 0.0);
        assert_eq!(layer(&traced, "store.replayed_batches"), 80.0);
        assert_eq!(layer(&traced, "serve.ingest.flushes"), 0.0);
    }
}

#[test]
fn quick_and_seconds_exclude_each_other() {
    let out = Command::new(BIN)
        .args(["--workload", "query_fit", "--quick", "--seconds", "5"])
        .output()
        .expect("run the benchmark binary");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
