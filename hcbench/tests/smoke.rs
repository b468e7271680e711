//! Runs every workload of `BENCHMARK.json` at its `--smoke` size, on a
//! seed other than the default, in both modes, and checks that the
//! result line names every declared metric with its declared unit.

use std::process::Command;

use dhc::obs::json::Json;

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(spec: &Json, list: &str) -> Vec<(String, String)> {
    let items = spec.get(list).and_then(Json::as_array).expect("metric list");
    items
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let spec = spec();
    let workloads = spec.get("workloads").and_then(Json::as_array).expect("workloads");
    assert!(workloads.len() >= 2);
    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).expect("workload name");
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_hcbench"))
                .args(["--workload", name, "--seed", "7", "--seconds", "1", "--trace", trace])
                .arg("--smoke")
                .output()
                .expect("hcbench runs");
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            assert!(out.status.success(), "{name} --trace {trace} failed:\n{stdout}");
            let last = stdout.lines().last().expect("a result line");
            let result = Json::parse(last).expect("the result line is JSON");
            let keys: Vec<&str> =
                result.as_object().expect("an object").iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"], "{name}");
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{name}");
            assert!(result.get("attempted").and_then(Json::as_u64).expect("attempted") >= 1);
            let metrics = result.get("metrics").and_then(Json::as_object).expect("metrics");
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(k, v)| {
                    assert!(matches!(v.get("value"), Some(Json::Num(_))), "{name}: {k} value");
                    let unit = v.get("unit").and_then(Json::as_str).expect("unit");
                    (k.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(printed, declared(&spec, list), "{name} --trace {trace}");
        }
    }
}
