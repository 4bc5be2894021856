//! The benchmark, end to end, at 1/20 size: every workload through
//! both binaries exactly as the contract invokes them. Holds the names
//! in `BENCHMARK.json` to the names a run actually emits.

use std::collections::BTreeSet;
use std::process::Command;

use panic_benchmark::json::{self, Value};

fn declared() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn names(doc: &Value, key: &str) -> BTreeSet<String> {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// Runs one workload as the driver would (plus `--smoke`); returns
/// the parsed result line.
fn run(binary: &str, workload: &str, trace: &str) -> Value {
    let out = Command::new(binary)
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--trace", trace, "--smoke"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    trace::json::validate(last).expect("result line is valid JSON");
    json::parse(last).expect("result line parses")
}

fn check(result: &Value, workload: &str, expected: &BTreeSet<String>, units: &Value, key: &str) {
    let keys: Vec<&str> = result
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{workload}"
    );
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}"
    );
    assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    assert_eq!(
        result.get("failed").and_then(Value::as_f64),
        Some(0.0),
        "{workload}"
    );
    let metrics = result
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics");
    let emitted: BTreeSet<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
    assert_eq!(
        &emitted, expected,
        "{workload}: emitted names differ from BENCHMARK.json"
    );
    for (name, m) in metrics {
        let value = m
            .get("value")
            .and_then(Value::as_f64)
            .expect("numeric value");
        assert!(value.is_finite(), "{workload} {name} = {value}");
        let declared_unit = units
            .get(key)
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .find(|d| d.get("name").and_then(Value::as_str) == Some(name))
            .and_then(|d| d.get("unit"))
            .and_then(Value::as_str);
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            declared_unit,
            "{workload} {name}"
        );
    }
}

#[test]
fn smoke_run_emits_exactly_the_declared_metrics() {
    let doc = declared();
    let workloads = names(&doc, "workloads");
    let end_to_end = names(&doc, "end_to_end");
    let per_layer = names(&doc, "per_layer");
    assert_eq!(workloads.len(), 7);
    for w in &workloads {
        let untraced = run(env!("CARGO_BIN_EXE_panic-benchmark"), w, "0");
        check(&untraced, w, &end_to_end, &doc, "end_to_end");
        let metrics = untraced.get("metrics").unwrap();
        for never_zero in &end_to_end {
            let v = metrics
                .get(never_zero)
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64()
                .unwrap();
            assert!(
                v > 0.0,
                "{w} {never_zero} = {v}: end-to-end metrics are never 0"
            );
        }
        let traced = run(env!("CARGO_BIN_EXE_panic-benchmark-traced"), w, "1");
        check(&traced, w, &per_layer, &doc, "per_layer");
        let value = |name: &str| {
            traced
                .get("metrics")
                .unwrap()
                .get(name)
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64()
                .unwrap()
        };
        // The counting allocator is live in the traced binary, and the
        // sanity rows of the interaction table hold.
        assert!(value("core.allocs_per_frame") > 0.0, "{w}");
        match w.as_str() {
            "chain_saturated" | "chain_gap" => assert_eq!(value("rmt.passes_per_frame"), 1.0),
            "kvs_mixed" => assert!(value("rmt.passes_per_frame") > 1.0),
            "rack_ring4_chaos" => assert!(value("faults.reroutes") > 0.0),
            "ctl_churn" => {
                assert!(value("ctrl.commits") >= 3.0);
                assert!(value("ctrl.rejections") >= 1.0);
                assert!(value("ctrl.telemetry_frames") > 0.0);
            }
            _ => {}
        }
    }
}

#[test]
fn usage_errors_exit_2_without_a_result() {
    for args in [
        &["--workload", "nope", "--trace", "0"][..],
        &["--trace", "7"],
        &["--bogus"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_panic-benchmark"))
            .args(args)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
