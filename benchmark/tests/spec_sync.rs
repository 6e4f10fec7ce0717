//! `BENCHMARK.json` and the code must agree: every workload, run at smoke
//! scale with every check active, emits exactly the declared end-to-end
//! metrics untraced and exactly the declared per-layer metrics traced, by
//! name and unit, none missing and none undeclared.

use std::path::Path;
use std::process::Command;

use dbpc_benchmark::json::{self, Json};
use dbpc_benchmark::workloads::Workload;

fn spec() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(spec: &'a Json, key: &str) -> &'a [Json] {
    spec.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
}

fn str_of<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{j} has no string {key}"))
}

/// `(name, unit)` of every metric in `key`, in file order.
fn declared(spec: &Json, key: &str) -> Vec<(String, String)> {
    list(spec, key)
        .iter()
        .map(|m| (str_of(m, "name").to_string(), str_of(m, "unit").to_string()))
        .collect()
}

/// Run one workload at smoke scale; returns (info line, result line).
fn run(workload: &str, trace: &str, dir: &Path) -> (Json, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_dbpc-benchmark"))
        .args(["--workload", workload, "--seed", "1979", "--seconds", "0.3"])
        .args(["--trace", trace, "--smoke"])
        .current_dir(dir)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    let [.., info, result] = lines[..] else {
        panic!("{workload}: expected an info and a result line, got {stdout}");
    };
    (
        json::parse(info).expect("info line parses"),
        json::parse(result).expect("result line parses"),
    )
}

#[test]
fn spec_is_well_formed() {
    let spec = spec();
    let keys: Vec<&str> = spec
        .as_obj()
        .expect("spec is an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    let mut sorted_keys = keys.clone();
    sorted_keys.sort_unstable();
    assert_eq!(
        sorted_keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let names: Vec<&str> = list(&spec, "workloads")
        .iter()
        .map(|w| str_of(w, "name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours, "workloads differ from the code's");
    assert_eq!(
        spec.get("run_seconds").and_then(Json::as_f64),
        Some(dbpc_benchmark::RUN_SECONDS),
        "run_seconds differs from the default window"
    );
    let setup = list(&spec, "end_to_end")
        .iter()
        .find(|m| str_of(m, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(
        (str_of(setup, "unit"), str_of(setup, "better")),
        ("s", "lower")
    );
    let bound = |m: &Json| m.get("bound").and_then(Json::as_f64).expect("bound");
    let largest = list(&spec, "end_to_end")
        .iter()
        .map(bound)
        .fold(0.0, f64::max);
    assert_eq!(bound(setup), largest, "setup_s carries the largest bound");
    for m in list(&spec, "end_to_end") {
        assert!(
            bound(m) > 0.0 && bound(m) <= 0.25,
            "{m}: bound out of range"
        );
    }
    for m in list(&spec, "end_to_end")
        .iter()
        .chain(list(&spec, "per_layer"))
    {
        assert!(
            matches!(str_of(m, "better"), "higher" | "lower"),
            "{m}: better must be higher or lower"
        );
    }
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    let spec = spec();
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("spec_sync");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let mut translate_digests = Vec::new();
    for w in Workload::ALL {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (info, result) = run(w.name(), trace, &dir);
            let keys: Vec<&str> = result
                .as_obj()
                .expect("result is an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{w:?}");
            let emitted: Vec<(String, String)> = result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics object")
                .iter()
                .map(|(name, m)| (name.clone(), str_of(m, "unit").to_string()))
                .collect();
            assert_eq!(emitted, declared(&spec, key), "{w:?} trace {trace}");
            if matches!(w, Workload::TranslatePaged | Workload::TranslateMem) {
                translate_digests.push(str_of(&info, "output_digest").to_string());
            }
        }
    }
    translate_digests.dedup();
    assert_eq!(
        translate_digests.len(),
        1,
        "paged and in-memory translation of one seed must agree"
    );
    assert!(
        std::fs::read_dir(&dir)
            .expect("scratch directory")
            .next()
            .is_none(),
        "runs left files behind"
    );
}
