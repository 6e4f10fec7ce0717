//! Every committed `BENCH_*.json` at the repo root is a full (non-smoke)
//! run written by the one artifact writer: it parses with the workspace's
//! JSON parser and names the bench it came from. Artifacts and bench
//! targets match both ways, so deleting or adding a target cannot leave a
//! stale or a missing artifact behind. Every bench reads the clock through
//! `dbpc_bench::paired`, so none can judge its timings by an estimator of
//! its own.

use std::collections::BTreeSet;
use std::path::Path;

use dbpc_obs::json::{self, Json};

/// The `<stem>` of every entry of `dir` named `<prefix><stem><suffix>`.
fn stems(dir: &Path, prefix: &str, suffix: &str) -> BTreeSet<String> {
    let entries = std::fs::read_dir(dir).unwrap();
    (entries.map(|e| e.unwrap().file_name().into_string().unwrap()))
        .filter_map(|name| Some(name.strip_prefix(prefix)?.strip_suffix(suffix)?.to_string()))
        .collect()
}

#[test]
fn committed_artifacts_parse_and_name_their_bench() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let artifacts = stems(&root, "BENCH_", ".json");
    assert!(!artifacts.is_empty(), "no BENCH_*.json at the repo root");
    for stem in artifacts {
        let text = std::fs::read_to_string(root.join(format!("BENCH_{stem}.json"))).unwrap();
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("{stem}: {e}"));
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some(stem.as_str()));
        assert_eq!(doc.get("smoke"), Some(&Json::Bool(false)), "{stem}");
    }
}

#[test]
fn artifacts_and_bench_targets_match() {
    let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifest = std::fs::read_to_string(crate_dir.join("Cargo.toml")).unwrap();
    let declared: BTreeSet<&str> = (manifest.split("[[bench]]").skip(1))
        .filter_map(|table| table.trim().strip_prefix("name = \"")?.split('"').next())
        .collect();
    let artifacts = stems(&crate_dir.join("../.."), "BENCH_", ".json");
    for stem in &artifacts {
        assert!(
            declared.contains(stem.as_str()),
            "BENCH_{stem}.json names no [[bench]] target of crates/bench/Cargo.toml"
        );
    }
    let benches = crate_dir.join("benches");
    for name in stems(&benches, "", ".rs") {
        let source = std::fs::read_to_string(benches.join(format!("{name}.rs"))).unwrap();
        assert!(
            !source.contains("artifact::emit") || artifacts.contains(&name),
            "benches/{name}.rs writes an artifact but BENCH_{name}.json is not committed"
        );
    }
}

#[test]
fn benches_read_the_clock_only_through_paired() {
    let benches = Path::new(env!("CARGO_MANIFEST_DIR")).join("benches");
    for name in stems(&benches, "", ".rs") {
        let source = std::fs::read_to_string(benches.join(format!("{name}.rs"))).unwrap();
        assert!(
            !source.contains("Instant::now"),
            "benches/{name}.rs reads the clock itself; time it with dbpc_bench::paired"
        );
    }
}
