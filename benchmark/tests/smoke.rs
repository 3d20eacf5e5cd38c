//! Every metric `BENCHMARK.json` names is printed, by name, by a `--smoke`
//! run: the end-to-end ones with `--trace 0`, the per-layer ones with
//! `--trace 1`, for each workload, on the contract's result line.

use std::path::Path;
use std::process::Command;

use onepass_core::json::Json;

fn names(json: &Json, key: &str) -> Vec<String> {
    json.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{key} array"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn smoke_run_prints_every_metric_in_benchmark_json() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(manifest.join("../BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = Json::parse(&text).expect("valid JSON");
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    for workload in names(&spec, "workloads") {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let output = Command::new(env!("CARGO_BIN_EXE_onepass-benchmark"))
                .args([
                    "--workload",
                    &workload,
                    "--seed",
                    "3",
                    "--trace",
                    trace,
                    "--smoke",
                ])
                .arg("--out-dir")
                .arg(&out_dir)
                .output()
                .expect("run the benchmark binary");
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(
                output.status.success(),
                "{workload} --trace {trace} exited with {}:\n{stdout}\n{}",
                output.status,
                String::from_utf8_lossy(&output.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result = Json::parse(last).expect("result line is JSON");
            assert_eq!(
                result.get("correct").and_then(Json::as_bool),
                Some(true),
                "{workload}"
            );
            assert_eq!(
                result.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{workload}"
            );
            assert!(
                result
                    .get("attempted")
                    .and_then(Json::as_f64)
                    .expect("attempted")
                    >= 1.0
            );
            let metrics = result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics object");
            let printed: Vec<&str> = metrics.iter().map(|(name, _)| name.as_str()).collect();
            let want = names(&spec, key);
            assert_eq!(
                printed, want,
                "{workload} --trace {trace}: exactly the {key} metrics"
            );
            for (name, m) in metrics {
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .expect("numeric value");
                assert!(value.is_finite(), "{workload} {name} = {value}");
                assert!(
                    m.get("unit").and_then(Json::as_str).is_some(),
                    "{workload} {name} unit"
                );
                assert!(
                    stdout
                        .lines()
                        .any(|l| l.starts_with("metric ")
                            && l.split_whitespace().nth(1) == Some(name)),
                    "{workload}: no `metric {name}` line"
                );
                if key == "end_to_end" {
                    assert!(value > 0.0, "{workload} {name} must never be 0");
                }
            }
            if trace == "1" {
                for file in [
                    format!("trace_{workload}.json"),
                    format!("layers_{workload}.jsonl"),
                ] {
                    let body = std::fs::read_to_string(out_dir.join(&file)).expect(&file);
                    for line in body.lines().filter(|_| file.ends_with(".jsonl")) {
                        Json::parse(line).unwrap_or_else(|e| panic!("{file}: {e:?}"));
                    }
                    if file.ends_with(".json") {
                        Json::parse(&body).unwrap_or_else(|e| panic!("{file}: {e:?}"));
                    }
                }
            }
        }
    }
}
