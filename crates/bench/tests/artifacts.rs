//! Every committed `BENCH_*.json` at the repo root is a full (non-smoke)
//! run written by the one artifact writer: it parses with the workspace's
//! JSON parser and names the bench it came from.

use std::path::Path;

use dbpc_obs::json::{self, Json};

#[test]
fn committed_artifacts_parse_and_name_their_bench() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut seen = 0;
    for entry in std::fs::read_dir(&root).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_str().unwrap();
        let Some(stem) = name
            .strip_prefix("BENCH_")
            .and_then(|n| n.strip_suffix(".json"))
        else {
            continue;
        };
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            doc.get("bench").and_then(Json::as_str),
            Some(stem),
            "{name}"
        );
        assert_eq!(doc.get("smoke"), Some(&Json::Bool(false)), "{name}");
        seen += 1;
    }
    assert!(seen > 0, "no BENCH_*.json at the repo root");
}
