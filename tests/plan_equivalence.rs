//! Plan equivalence: the cost-based planner may pick any access path it
//! likes, but it must never change what a program *does*. Random programs
//! on all engines produce traces byte-identical under `CostBased`,
//! `ForceScan` (the seed executors' only strategy), and `AlwaysProbe` —
//! and the full E2 study matrix is invariant to both the plan mode and
//! the worker thread count (1 / 2 / 8).
//!
//! `PlanMode` is process-global, so every test that switches it holds one
//! mutex and restores the previous mode before releasing it.

use dbpc::corpus::gen::{generate_program, ProgramClass};
use dbpc::corpus::harness::{success_rate_study_config, StudyConfig};
use dbpc::corpus::named;
use dbpc::datamodel::hierarchical::{HierSchema, SegmentDef};
use dbpc::datamodel::network::FieldDef;
use dbpc::datamodel::types::FieldType;
use dbpc::datamodel::value::Value;
use dbpc::dml::dbtg::parse_dbtg;
use dbpc::dml::dli::parse_dli;
use dbpc::dml::sequel::parse_sequel_program;
use dbpc::engine::dbtg_exec::run_dbtg;
use dbpc::engine::dli_exec::run_dli;
use dbpc::engine::host_exec::run_host;
use dbpc::engine::scan::{set_plan_mode, PlanMode};
use dbpc::engine::sequel_exec::run_sequel;
use dbpc::engine::{Inputs, Trace};
use dbpc::storage::HierDb;
use proptest::prelude::*;
use std::sync::Mutex;

/// Guards the process-global plan mode; tests in this binary run in
/// parallel and must not observe each other's overrides.
static PLAN_MODE: Mutex<()> = Mutex::new(());

const MODES: [PlanMode; 3] = [
    PlanMode::CostBased,
    PlanMode::ForceScan,
    PlanMode::AlwaysProbe,
];

/// Run `f` once per plan mode (fresh inputs each time — programs may
/// mutate their database) and return the three traces.
fn traces_per_mode(mut f: impl FnMut() -> Trace) -> Vec<(PlanMode, Trace)> {
    let _guard = PLAN_MODE.lock().unwrap_or_else(|e| e.into_inner());
    MODES
        .iter()
        .map(|&mode| {
            let prev = set_plan_mode(mode);
            let trace = f();
            set_plan_mode(prev);
            (mode, trace)
        })
        .collect()
}

fn assert_all_identical(traces: &[(PlanMode, Trace)], what: &str) {
    let (m0, t0) = &traces[0];
    for (m, t) in &traces[1..] {
        assert_eq!(
            t0, t,
            "{what}: trace under {m0:?} differs from trace under {m:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Host-language programs (every corpus class) on the company
    /// database: identical traces whatever the planner picks.
    #[test]
    fn host_programs_are_plan_invariant(class_ix in 0usize..ProgramClass::ALL.len(), seed in 0u64..1000) {
        let class = ProgramClass::ALL[class_ix];
        let program = generate_program(class, seed);
        let traces = traces_per_mode(|| {
            let mut db = named::company_db(4, 3, 8);
            // The runtime-verb class reads its DML verb from the terminal.
            run_host(&mut db, &program, Inputs::new().with_terminal(&["RETRIEVE"])).unwrap()
        });
        assert_all_identical(&traces, &format!("host {class} seed {seed}"));
    }

    /// SEQUEL queries over keyed + secondary-indexed tables: the probe /
    /// scan decision is invisible in the trace.
    #[test]
    fn sequel_queries_are_plan_invariant(form in 0usize..4, age in 21i64..65, emp in 0usize..40) {
        let src = match form {
            0 => format!("SEQUEL PROGRAM Q;\nSELECT ENAME FROM EMP WHERE E# = 'E{emp:04}';\nEND PROGRAM;"),
            1 => format!("SEQUEL PROGRAM Q;\nSELECT ENAME, AGE FROM EMP WHERE AGE = {age};\nEND PROGRAM;"),
            2 => format!("SEQUEL PROGRAM Q;\nSELECT E# FROM EMP WHERE AGE = {age} ORDER BY E#;\nEND PROGRAM;"),
            _ => format!("SEQUEL PROGRAM Q;\nSELECT ENAME FROM EMP WHERE AGE = {age} AND E# = 'E{emp:04}';\nEND PROGRAM;"),
        };
        let program = parse_sequel_program(&src).unwrap();
        let traces = traces_per_mode(|| {
            let mut db = named::personnel_relational_db(4, 8).unwrap();
            db.create_index("EMP", &["AGE"]).unwrap();
            run_sequel(&mut db, &program, Inputs::new()).unwrap()
        });
        assert_all_identical(&traces, &format!("sequel form {form} age {age} emp {emp}"));
    }

    /// DBTG navigation with keyed FIND ANY ... USING plus set scans:
    /// probe-or-scan, the currency the program observes is the same.
    #[test]
    fn dbtg_programs_are_plan_invariant(d in 0usize..8, yos in 0i64..6) {
        let src = format!(
            "DBTG PROGRAM P.
  MOVE 'D{d}' TO D# IN DEPT.
  FIND ANY DEPT USING D#.
  IF STATUS NOTFOUND GO TO FINISH.
  GET DEPT.
  PRINT DEPT.DNAME.
  MOVE {yos} TO YEAR-OF-SERVICE IN EMP.
NEXT.
  FIND NEXT EMP WITHIN ED USING YEAR-OF-SERVICE.
  IF STATUS ENDSET GO TO FINISH.
  GET EMP.
  PRINT EMP.ENAME.
  GO TO NEXT.
FINISH.
  STOP.
END PROGRAM."
        );
        let program = parse_dbtg(&src).unwrap();
        let traces = traces_per_mode(|| {
            let mut db = named::personnel_network_db(6, 10).unwrap();
            run_dbtg(&mut db, &program, Inputs::new()).unwrap()
        });
        assert_all_identical(&traces, &format!("dbtg dept {d} yos {yos}"));
    }

    /// DL/I path searches (GU with qualified SSAs, then a GN sweep): the
    /// hierarchic engine reports the same segments under every mode.
    #[test]
    fn dli_programs_are_plan_invariant(d in 0usize..7, sweep in 0usize..2) {
        let sweep = sweep == 1;
        let src = if sweep {
            format!(
                "DLI PROGRAM P.
  GU DIV(DIV-NAME = 'DIV{d}') EMP.
  IF STATUS GE GO TO DONE.
  PRINT EMP-NAME.
LOOP.
  GN EMP.
  IF STATUS GB GO TO DONE.
  PRINT EMP-NAME.
  GO TO LOOP.
DONE.
  STOP.
END PROGRAM."
            )
        } else {
            format!(
                "DLI PROGRAM P.
  GU DIV(DIV-NAME = 'DIV{d}').
  IF STATUS GE GO TO DONE.
  PRINT DIV-NAME.
DONE.
  STOP.
END PROGRAM."
            )
        };
        let program = parse_dli(&src).unwrap();
        let traces = traces_per_mode(|| {
            let mut db = forest();
            run_dli(&mut db, &program, Inputs::new()).unwrap()
        });
        assert_all_identical(&traces, &format!("dli div {d} sweep {sweep}"));
    }
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
    for d in 0..5 {
        let div = db
            .insert("DIV", &[("DIV-NAME", Value::str(format!("DIV{d}")))], None)
            .unwrap();
        for e in 0..6 {
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

/// The E2 study matrix — every transform × program class cell — is
/// byte-identical under the cost-based planner and forced full scans, at
/// 1, 2, and 8 worker threads. The planner cannot leak into outcomes.
/// Each study memoizes its own ground-truth traces, so no cost-based run
/// reads a trace the forced-scan reference executed.
#[test]
fn study_matrix_is_plan_and_thread_invariant() {
    let _guard = PLAN_MODE.lock().unwrap_or_else(|e| e.into_inner());
    let study = |threads: usize| {
        success_rate_study_config(&StudyConfig {
            threads,
            ..StudyConfig::new(2, 1979)
        })
    };

    let prev = set_plan_mode(PlanMode::ForceScan);
    let reference = study(1);
    set_plan_mode(PlanMode::CostBased);
    for threads in [1usize, 2, 8] {
        let got = study(threads);
        assert_eq!(
            reference, got,
            "study matrix diverged (cost-based, {threads} threads)"
        );
    }
    set_plan_mode(prev);
}
