//! Experiment E12: access-path layer — indexed SELECT vs. full scan, and
//! amortized hierarchic positioning for DL/I GN traversals.
//!
//! The machine-readable artifact (`BENCH_access_paths.json` at the repo
//! root) carries the per-run access counters alongside the timings,
//! because the acceptance
//! claims are about *work done* (rows scanned, preorder rebuilds), not just
//! wall-clock: the paper's §1.1 equivalence criterion leaves the access
//! path free, and the counters prove the cheaper path actually engaged
//! while the traces stayed byte-identical. Each timing pairs two arms in
//! alternating rounds ([`paired::ratio`]): scan against indexed SELECT,
//! and the mutating GN traversal against the pure one, each traversal on
//! a fresh copy of the same forest. Every timed run repeats its arm's
//! trace and counter checks.
//!
//! Smoke mode (`DBPC_BENCH_SMOKE=1`): every assertion active, no artifact
//! written — the CI guard.

use std::time::Duration;

use dbpc_bench::artifact;
use dbpc_bench::paired::{self, timed};

use dbpc_datamodel::hierarchical::{HierSchema, SegmentDef};
use dbpc_datamodel::network::FieldDef;
use dbpc_datamodel::relational::{ColumnDef, RelationalSchema, TableDef};
use dbpc_datamodel::types::FieldType;
use dbpc_datamodel::value::Value;
use dbpc_dml::dli::parse_dli;
use dbpc_dml::sequel::parse_sequel_program;
use dbpc_engine::dli_exec::run_dli;
use dbpc_engine::sequel_exec::run_sequel;
use dbpc_engine::{Inputs, Trace};
use dbpc_obs::json::Json;
use dbpc_storage::{AccessProfile, HierDb, RelationalDb};

const ROWS: i64 = 2000;
const CLASSES: i64 = 10;
const ROUNDS: usize = 30;

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

/// An arm of a paired timing: `run` times one run, whose trace must
/// repeat `want`'s events and pass `check` on its access counters.
fn checked<'a>(
    want: &'a Trace,
    mut run: impl FnMut() -> (Duration, Trace) + 'a,
    check: impl Fn(&AccessProfile) + 'a,
) -> impl FnMut() -> Duration + 'a {
    move || {
        let (d, trace) = run();
        assert_eq!(trace.events, want.events, "a timed run changed its trace");
        check(&trace.access);
        d
    }
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
    let scan_check = |a: &AccessProfile| assert_eq!(a.rows_scanned, ROWS as u64);
    let ix_check = |a: &AccessProfile| {
        assert_eq!(
            a.rows_scanned, matches,
            "indexed SELECT must scan O(matches) rows"
        );
        assert!(a.index_hits > 0);
    };
    scan_check(&scan_trace.access);
    ix_check(&ix_trace.access);

    let scan_vs_indexed = paired::ratio(
        ROUNDS,
        checked(
            &scan_trace,
            || timed(|| run_sequel(&mut scan_db, &query, Inputs::new()).unwrap()),
            scan_check,
        ),
        checked(
            &ix_trace,
            || timed(|| run_sequel(&mut ix_db, &query, Inputs::new()).unwrap()),
            ix_check,
        ),
    );

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
    let base = forest(divs, emps);
    let walk_trace = run_dli(&mut base.clone(), &walk, Inputs::new()).unwrap();
    let walk_check = |a: &AccessProfile| {
        assert!(
            a.preorder_rebuilds <= 1,
            "pure navigation must reuse the cached preorder"
        );
    };
    walk_check(&walk_trace.access);

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
    let mix_trace = run_dli(&mut base.clone(), &mix, Inputs::new()).unwrap();
    let mix_check = |a: &AccessProfile| {
        assert!(
            a.preorder_rebuilds <= mutations + 1,
            "rebuilds must be bounded by mutations + 1"
        );
    };
    mix_check(&mix_trace.access);

    // Each traversal runs on its own copy of the forest; copying is set-up.
    let on_copy = |program| {
        let base = &base;
        move || {
            let mut db = base.clone();
            timed(|| run_dli(&mut db, program, Inputs::new()).unwrap())
        }
    };
    let mutating_vs_full = paired::ratio(
        ROUNDS,
        checked(&mix_trace, on_copy(&mix), mix_check),
        checked(&walk_trace, on_copy(&walk), walk_check),
    );

    // ---- Emit artifact ----------------------------------------------------
    let counters = |a: &AccessProfile| {
        Json::obj([
            ("rows_scanned", a.rows_scanned.into()),
            ("index_probes", a.index_probes.into()),
            ("index_hits", a.index_hits.into()),
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
                    ("scan", counters(&scan_trace.access)),
                    ("indexed", counters(&ix_trace.access)),
                    ("scan_vs_indexed", scan_vs_indexed.json("scan", "indexed")),
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
                    (
                        "mutating_vs_full",
                        mutating_vs_full.json("mutating", "full"),
                    ),
                ]),
            ),
        ]),
    );
}
