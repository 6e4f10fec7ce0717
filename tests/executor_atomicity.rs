//! Every executor's run is atomic. `run_host`, `run_dbtg`, `run_dli` and
//! `run_sequel` share one boundary: a program that mutates its database
//! and then malfunctions with a typed `RunError` leaves the database
//! bitwise-unchanged (fingerprint and derived access structures alike),
//! its access counters still reach the ambient obs sheet (`HierDb` counts
//! its `GN` steps as preorder-cache probes and no scanned rows, so the
//! DL/I case reads `storage.index_probes`), and the same
//! program without the failing statement commits its mutation.

use dbpc::corpus::named;
use dbpc::datamodel::hierarchical::{HierSchema, SegmentDef};
use dbpc::datamodel::network::FieldDef;
use dbpc::datamodel::types::FieldType;
use dbpc::datamodel::value::Value;
use dbpc::dml::dbtg::parse_dbtg;
use dbpc::dml::dli::parse_dli;
use dbpc::dml::host::parse_program;
use dbpc::dml::sequel::parse_sequel_program;
use dbpc::engine::dbtg_exec::run_dbtg;
use dbpc::engine::dli_exec::run_dli;
use dbpc::engine::host_exec::run_host;
use dbpc::engine::sequel_exec::run_sequel;
use dbpc::engine::{Inputs, RunError, RunResult, Trace};
use dbpc::obs::{local_mark, Delta};
use dbpc::storage::stats::{INDEX_PROBES, ROWS_SCANNED};
use dbpc::storage::HierDb;

/// What one run did to its database.
#[derive(Debug)]
struct Outcome {
    error: Option<RunError>,
    changed: bool,
    structures: Result<(), String>,
    /// The run's metrics, bracketed on this thread.
    metrics: Delta,
}

fn observe<D>(
    mut db: D,
    fingerprint: fn(&D) -> u64,
    check: fn(&D) -> Result<(), String>,
    run: impl FnOnce(&mut D) -> RunResult<Trace>,
) -> Outcome {
    let before = fingerprint(&db);
    let mark = local_mark();
    let error = run(&mut db).err();
    Outcome {
        error,
        changed: fingerprint(&db) != before,
        structures: check(&db),
        metrics: mark.delta(),
    }
}

fn host(src: &str) -> Outcome {
    let program = parse_program(src).unwrap();
    let db = named::company_db(4, 3, 8);
    observe(
        db,
        |db| db.fingerprint(),
        |db| db.check_access_structures(),
        |db| run_host(db, &program, Inputs::new()),
    )
}

fn dbtg(src: &str) -> Outcome {
    let program = parse_dbtg(src).unwrap();
    let db = named::personnel_network_db(6, 10).unwrap();
    observe(
        db,
        |db| db.fingerprint(),
        |db| db.check_access_structures(),
        |db| run_dbtg(db, &program, Inputs::new()),
    )
}

fn dli(src: &str) -> Outcome {
    let program = parse_dli(src).unwrap();
    observe(
        forest(),
        |db| db.fingerprint(),
        |db| db.check_access_structures(),
        |db| run_dli(db, &program, Inputs::new()),
    )
}

fn sequel(src: &str) -> Outcome {
    let program = parse_sequel_program(src).unwrap();
    let db = named::personnel_relational_db(4, 8).unwrap();
    observe(
        db,
        |db| db.fingerprint(),
        |db| db.check_access_structures(),
        |db| run_sequel(db, &program, Inputs::new()),
    )
}

fn forest() -> HierDb {
    let schema = HierSchema::new("COMPANY").with_root(
        SegmentDef::new("DIV", vec![FieldDef::new("DIV-NAME", FieldType::Char(20))])
            .with_seq_field("DIV-NAME")
            .with_child(
                SegmentDef::new("EMP", vec![FieldDef::new("EMP-NAME", FieldType::Char(25))])
                    .with_seq_field("EMP-NAME"),
            ),
    );
    let mut db = HierDb::new(schema).unwrap();
    for d in 0..3 {
        let div = db
            .insert("DIV", &[("DIV-NAME", Value::str(format!("DIV{d}")))], None)
            .unwrap();
        for e in 0..4 {
            db.insert(
                "EMP",
                &[("EMP-NAME", Value::str(format!("E{d:02}{e:02}")))],
                Some(div),
            )
            .unwrap();
        }
    }
    db
}

/// One executor's case: a program that mutates and scans
/// (`head`), a statement that fails with a typed error (`failing`), and
/// the program's end (`tail`); `counter` is the access counter its scan
/// moves.
struct Case {
    executor: &'static str,
    run: fn(&str) -> Outcome,
    counter: &'static str,
    head: &'static str,
    failing: &'static str,
    tail: &'static str,
}

const CASES: [Case; 4] = [
    Case {
        executor: "run_host",
        run: host,
        counter: ROWS_SCANNED,
        head: "PROGRAM ATOMIC;
  STORE DIV (DIV-NAME := 'DOOMED', DIV-LOC := 'X');
  FIND ALL := FIND(DIV: SYSTEM, ALL-DIV, DIV);
  FOR EACH D IN ALL DO
    PRINT D.DIV-NAME;
  END FOR;
",
        failing: "  PRINT NOWHERE;\n",
        tail: "END PROGRAM;",
    },
    Case {
        executor: "run_dbtg",
        run: dbtg,
        counter: ROWS_SCANNED,
        head: "DBTG PROGRAM ATOMIC.
  MOVE 'D99' TO D# IN DEPT.
  MOVE 'DOOMED' TO DNAME IN DEPT.
  STORE DEPT.
  FIND FIRST DEPT WITHIN ALL-DEPT.
",
        failing: "  GO TO NOWHERE.\n",
        tail: "  STOP.
END PROGRAM.",
    },
    Case {
        executor: "run_dli",
        run: dli,
        counter: INDEX_PROBES,
        head: "DLI PROGRAM ATOMIC.
  GU DIV(DIV-NAME = 'DIV1').
  ISRT EMP (EMP-NAME = 'DOOMED').
LOOP.
  GN EMP.
  IF STATUS GB GO TO DONE.
  GO TO LOOP.
DONE.
",
        failing: "  GO TO NOWHERE.\n",
        tail: "  STOP.
END PROGRAM.",
    },
    Case {
        executor: "run_sequel",
        run: sequel,
        counter: ROWS_SCANNED,
        head: "SEQUEL PROGRAM ATOMIC;
INSERT INTO EMP (E# = 'E9999', ENAME = 'DOOMED', AGE = 21);
SELECT ENAME FROM EMP WHERE AGE > 30;
",
        failing: "SELECT NOWHERE FROM EMP;\n",
        tail: "END PROGRAM;",
    },
];

#[test]
fn every_executor_run_is_atomic() {
    for case in &CASES {
        let name = case.executor;
        let failed = (case.run)(&format!("{}{}{}", case.head, case.failing, case.tail));
        assert!(
            failed.error.is_some(),
            "{name}: the failing statement did not fail"
        );
        assert!(
            !failed.changed,
            "{name}: a failed run left its mutation behind ({:?})",
            failed.error
        );
        failed
            .structures
            .unwrap_or_else(|e| panic!("{name}: access structures after rollback: {e}"));
        assert!(
            failed.metrics.counter(case.counter) > 0,
            "{name}: a failed run's access counters never reached the obs sheet"
        );

        let committed = (case.run)(&format!("{}{}", case.head, case.tail));
        assert_eq!(committed.error, None, "{name}: the clean program failed");
        assert!(
            committed.changed,
            "{name}: the clean program did not commit"
        );
        committed
            .structures
            .unwrap_or_else(|e| panic!("{name}: access structures after commit: {e}"));
        assert!(
            committed.metrics.counter(case.counter) > 0,
            "{name}: no {} counted",
            case.counter
        );
    }
}
