//! Experiment E12: access-path layer — indexed SELECT vs. full scan, and
//! amortized hierarchic positioning for DL/I GN traversals.
//!
//! The machine-readable artifact (`BENCH_access_paths.json` at the repo
//! root) carries the per-run access counters alongside the timings,
//! because the acceptance
//! claims are about *work done* (rows scanned, preorder rebuilds), not just
//! wall-clock: the paper's §1.1 equivalence criterion leaves the access
//! path free, and the counters prove the cheaper path actually engaged
//! while the traces stayed byte-identical.
//!
//! Smoke mode (`DBPC_BENCH_SMOKE=1`): every assertion active, no artifact
//! written — the CI guard.

use std::time::Instant;

use dbpc_bench::artifact;

use dbpc_datamodel::hierarchical::{HierSchema, SegmentDef};
use dbpc_datamodel::network::FieldDef;
use dbpc_datamodel::relational::{ColumnDef, RelationalSchema, TableDef};
use dbpc_datamodel::types::FieldType;
use dbpc_datamodel::value::Value;
use dbpc_dml::dli::parse_dli;
use dbpc_dml::sequel::parse_sequel_program;
use dbpc_engine::dli_exec::run_dli;
use dbpc_engine::sequel_exec::run_sequel;
use dbpc_engine::Inputs;
use dbpc_obs::json::Json;
use dbpc_storage::{AccessProfile, HierDb, RelationalDb};

const ROWS: i64 = 2000;
const CLASSES: i64 = 10;
const ITERS: u32 = 30;

fn parts_db(with_index: bool) -> RelationalDb {
    let schema = RelationalSchema::new("INVENTORY").with_table(
        TableDef::new(
            "PART",
            vec![
                ColumnDef::new("P#", FieldType::Int(6)),
                ColumnDef::new("CLASS", FieldType::Char(4)),
                ColumnDef::new("QTY", FieldType::Int(6)),
            ],
        )
        .with_key(vec!["P#"]),
    );
    let mut db = RelationalDb::new(schema).unwrap();
    if with_index {
        db.create_index("PART", &["CLASS"]).unwrap();
    }
    for i in 0..ROWS {
        db.insert(
            "PART",
            &[
                ("P#", Value::Int(i)),
                ("CLASS", Value::str(format!("C{}", i % CLASSES))),
                ("QTY", Value::Int((i * 7) % 100)),
            ],
        )
        .unwrap();
    }
    db
}

/// Median wall-clock of `ITERS` runs of `f`, in nanoseconds.
fn median_ns<F: FnMut()>(mut f: F) -> u128 {
    let mut samples: Vec<u128> = (0..ITERS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn forest(divs: usize, emps_per_div: usize) -> HierDb {
    let schema = HierSchema::new("COMPANY").with_root(
        SegmentDef::new("DIV", vec![FieldDef::new("DIV-NAME", FieldType::Char(20))])
            .with_seq_field("DIV-NAME")
            .with_child(
                SegmentDef::new("EMP", vec![FieldDef::new("EMP-NAME", FieldType::Char(25))])
                    .with_seq_field("EMP-NAME"),
            ),
    );
    let mut db = HierDb::new(schema).unwrap();
    for d in 0..divs {
        let div = db
            .insert(
                "DIV",
                &[("DIV-NAME", Value::str(format!("DIV{d:03}")))],
                None,
            )
            .unwrap();
        for e in 0..emps_per_div {
            db.insert(
                "EMP",
                &[("EMP-NAME", Value::str(format!("E{d:03}{e:04}")))],
                Some(div),
            )
            .unwrap();
        }
    }
    db
}

fn main() {
    // ---- Relational: indexed SELECT vs. full scan -------------------------
    let query = parse_sequel_program(
        "SEQUEL PROGRAM Q;
SELECT P#, QTY
FROM PART
WHERE CLASS = 'C3';
END PROGRAM;",
    )
    .unwrap();

    let mut scan_db = parts_db(false);
    let mut ix_db = parts_db(true);

    let scan_trace = run_sequel(&mut scan_db, &query, Inputs::new()).unwrap();
    let ix_trace = run_sequel(&mut ix_db, &query, Inputs::new()).unwrap();
    assert_eq!(
        scan_trace.events, ix_trace.events,
        "indexed and scanning SELECT must be observably identical"
    );
    let matches = (ROWS / CLASSES) as u64;
    assert_eq!(scan_trace.access.rows_scanned, ROWS as u64);
    assert_eq!(
        ix_trace.access.rows_scanned, matches,
        "indexed SELECT must scan O(matches) rows"
    );
    assert!(ix_trace.access.index_hits > 0);

    let scan_ns = median_ns(|| {
        run_sequel(&mut scan_db, &query, Inputs::new()).unwrap();
    });
    let ix_ns = median_ns(|| {
        run_sequel(&mut ix_db, &query, Inputs::new()).unwrap();
    });

    // ---- Hierarchic: full GN traversal, then one with mutations -----------
    let walk = parse_dli(
        "DLI PROGRAM WALK.
LOOP.
  GN EMP.
  IF STATUS GB GO TO DONE.
  GO TO LOOP.
DONE.
  STOP.
END PROGRAM.",
    )
    .unwrap();
    let (divs, emps) = (20usize, 100usize);
    let mut walk_db = forest(divs, emps);
    let walk_trace = run_dli(&mut walk_db, &walk, Inputs::new()).unwrap();
    assert!(
        walk_trace.access.preorder_rebuilds <= 1,
        "pure navigation must reuse the cached preorder"
    );
    let walk_ns = median_ns(|| {
        run_dli(&mut walk_db, &walk, Inputs::new()).unwrap();
    });

    let mix = parse_dli(
        "DLI PROGRAM MIX.
  GU DIV(DIV-NAME = 'DIV001').
  ISRT EMP (EMP-NAME = 'NEW-A').
  GN EMP.
  ISRT EMP (EMP-NAME = 'NEW-B').
  GN EMP.
  DLET.
LOOP.
  GN EMP.
  IF STATUS GB GO TO DONE.
  GO TO LOOP.
DONE.
  STOP.
END PROGRAM.",
    )
    .unwrap();
    let mutations = 3u64; // 2 ISRT + 1 DLET
    let mut mix_db = forest(divs, emps);
    let mix_trace = run_dli(&mut mix_db, &mix, Inputs::new()).unwrap();
    assert!(
        mix_trace.access.preorder_rebuilds <= mutations + 1,
        "rebuilds must be bounded by mutations + 1"
    );

    // ---- Emit artifact ----------------------------------------------------
    let counters = |a: &AccessProfile, ns: u128| {
        Json::obj([
            ("rows_scanned", a.rows_scanned.into()),
            ("index_probes", a.index_probes.into()),
            ("index_hits", a.index_hits.into()),
            ("median_ns", ns.into()),
        ])
    };
    artifact::emit(
        "access_paths",
        Json::obj([
            (
                "select",
                Json::obj([
                    ("table_rows", ROWS.into()),
                    ("matching_rows", matches.into()),
                    ("scan", counters(&scan_trace.access, scan_ns)),
                    ("indexed", counters(&ix_trace.access, ix_ns)),
                    ("identical_traces", true.into()),
                ]),
            ),
            (
                "dli_gn",
                Json::obj([
                    ("segments", (divs * (emps + 1)).into()),
                    (
                        "full_traversal",
                        Json::obj([
                            ("gn_calls", (divs * emps + 1).into()),
                            (
                                "preorder_rebuilds",
                                walk_trace.access.preorder_rebuilds.into(),
                            ),
                            ("median_ns", walk_ns.into()),
                        ]),
                    ),
                    (
                        "mutating_traversal",
                        Json::obj([
                            ("mutations", mutations.into()),
                            (
                                "preorder_rebuilds",
                                mix_trace.access.preorder_rebuilds.into(),
                            ),
                            ("bound", (mutations + 1).into()),
                        ]),
                    ),
                ]),
            ),
        ]),
    );
}
