//! Experiment E18: the cost-based planner is never slower than the PR 1
//! heuristics, and wins where they lose.
//!
//! The PR 1 executors probed an index whenever one matched the predicate
//! (`PlanMode::AlwaysProbe` reproduces them exactly). The cost-based
//! planner (`PlanMode::CostBased`) prices probe vs scan from `StatCatalog`
//! numbers. Three workloads, each timed as one run per mode in
//! alternating rounds ([`paired::ratio`]) and judged on the median of the
//! per-round ratios, so shared-runner drift lands on both modes:
//!
//! * **e9_select** — the E9/E12-shaped selective SELECT (10% selectivity,
//!   secondary index): both modes probe, so cost-based / always-probe
//!   must stay ≤ 1.05 — the price of planning itself.
//! * **e13_gn** — the E13 DL/I GN sweep: a single candidate path, so the
//!   planner adds pure overhead; cost-based / always-probe ≤ 1.05.
//! * **skewed** — a 4 000-row table whose indexed column holds two values
//!   split 3 999 : 1, queried on the majority value plus a residual
//!   predicate. Probing fetches ~all rows point-wise and discards almost
//!   all of them; the planner must choose the scan, always-probe /
//!   cost-based ≥ 1.3.
//!
//! Every timed run's trace is checked against the other mode's — the plan
//! is free only because it is observably invisible.
//!
//! Emits `BENCH_planner.json`. Smoke mode (`DBPC_BENCH_SMOKE=1`): a few
//! rounds, every trace assertion active, timing gates and artifact
//! skipped (a few rounds' wall clocks are noise).

use std::cell::RefCell;
use std::time::Duration;

use dbpc_bench::artifact;
use dbpc_bench::paired::{self, timed, Paired};
use dbpc_datamodel::hierarchical::{HierSchema, SegmentDef};
use dbpc_datamodel::network::FieldDef;
use dbpc_datamodel::relational::{ColumnDef, RelationalSchema, TableDef};
use dbpc_datamodel::types::FieldType;
use dbpc_datamodel::value::Value;
use dbpc_dml::dli::parse_dli;
use dbpc_dml::sequel::{parse_sequel_program, SequelProgram};
use dbpc_engine::dli_exec::run_dli;
use dbpc_engine::scan::{set_plan_mode, PlanMode};
use dbpc_engine::sequel_exec::run_sequel;
use dbpc_engine::{Inputs, Trace};
use dbpc_obs::json::Json;
use dbpc_storage::RelationalDb;

fn parts_db(rows: i64, classes: i64) -> RelationalDb {
    let schema = RelationalSchema::new("INVENTORY").with_table(
        TableDef::new(
            "PART",
            vec![
                ColumnDef::new("P#", FieldType::Int(6)),
                ColumnDef::new("CLASS", FieldType::Char(8)),
                ColumnDef::new("QTY", FieldType::Int(6)),
            ],
        )
        .with_key(vec!["P#"]),
    );
    let mut db = RelationalDb::new(schema).unwrap();
    db.create_index("PART", &["CLASS"]).unwrap();
    for i in 0..rows {
        db.insert(
            "PART",
            &[
                ("P#", Value::Int(i)),
                ("CLASS", Value::str(format!("C{}", i % classes))),
                ("QTY", Value::Int((i * 7) % 100)),
            ],
        )
        .unwrap();
    }
    db
}

/// Two CLASS values, `rows - 1` of them `BULK`: probing the majority key
/// degenerates to a point-fetch per row.
fn skewed_db(rows: i64) -> RelationalDb {
    let schema = RelationalSchema::new("SKEW").with_table(
        TableDef::new(
            "PART",
            vec![
                ColumnDef::new("P#", FieldType::Int(6)),
                ColumnDef::new("CLASS", FieldType::Char(8)),
                ColumnDef::new("QTY", FieldType::Int(6)),
            ],
        )
        .with_key(vec!["P#"]),
    );
    let mut db = RelationalDb::new(schema).unwrap();
    db.create_index("PART", &["CLASS"]).unwrap();
    for i in 0..rows {
        let class = if i == 0 { "RARE" } else { "BULK" };
        db.insert(
            "PART",
            &[
                ("P#", Value::Int(i)),
                ("CLASS", Value::str(class)),
                ("QTY", Value::Int((i * 7) % 100)),
            ],
        )
        .unwrap();
    }
    db
}

fn sequel(src: &str) -> SequelProgram {
    parse_sequel_program(src).unwrap()
}

/// Run `f` under `mode`, restoring the previous mode afterwards.
fn under<T>(mode: PlanMode, f: impl FnOnce() -> T) -> T {
    let prev = set_plan_mode(mode);
    let out = f();
    set_plan_mode(prev);
    out
}

/// Pair a run of `run` under `modes[0]` (arm `a`) against one under
/// `modes[1]` (arm `b`), checking every timed run's trace against `want`.
fn paired_modes(
    rounds: usize,
    modes: [PlanMode; 2],
    want: &Trace,
    run: impl FnMut() -> Trace,
) -> Paired {
    let run = RefCell::new(run);
    let arm = |mode| {
        let run = &run;
        move || -> Duration {
            let (d, trace) = timed(|| under(mode, &mut *run.borrow_mut()));
            assert_eq!(&trace, want, "plan choice leaked into trace");
            d
        }
    };
    paired::ratio(rounds, arm(modes[0]), arm(modes[1]))
}

fn main() {
    let smoke = artifact::smoke();
    let rounds = if smoke { 3 } else { 96 };
    let cost_probe = [PlanMode::CostBased, PlanMode::AlwaysProbe];

    // ---- e9_select: selective indexed SELECT (both modes probe) -----------
    let select_rows = 2000i64;
    let query = sequel(
        "SEQUEL PROGRAM Q;
SELECT P#, QTY
FROM PART
WHERE CLASS = 'C3';
END PROGRAM;",
    );
    let mut db = parts_db(select_rows, 10);
    let t_cost = under(PlanMode::CostBased, || {
        run_sequel(&mut db, &query, Inputs::new()).unwrap()
    });
    let t_probe = under(PlanMode::AlwaysProbe, || {
        run_sequel(&mut db, &query, Inputs::new()).unwrap()
    });
    assert_eq!(t_cost, t_probe, "e9_select: plan choice leaked into trace");
    assert!(
        t_cost.access.index_hits > 0,
        "e9_select: cost-based planner must pick the probe here"
    );
    let e9 = paired_modes(rounds, cost_probe, &t_cost, || {
        run_sequel(&mut db, &query, Inputs::new()).unwrap()
    });

    // ---- e13_gn: DL/I full GN sweep (single-path; planner overhead) -------
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
    let schema = HierSchema::new("COMPANY").with_root(
        SegmentDef::new("DIV", vec![FieldDef::new("DIV-NAME", FieldType::Char(20))])
            .with_seq_field("DIV-NAME")
            .with_child(
                SegmentDef::new("EMP", vec![FieldDef::new("EMP-NAME", FieldType::Char(25))])
                    .with_seq_field("EMP-NAME"),
            ),
    );
    let mut hier = dbpc_storage::HierDb::new(schema).unwrap();
    for d in 0..20 {
        let div = hier
            .insert(
                "DIV",
                &[("DIV-NAME", Value::str(format!("DIV{d:03}")))],
                None,
            )
            .unwrap();
        for e in 0..100 {
            hier.insert(
                "EMP",
                &[("EMP-NAME", Value::str(format!("E{d:03}{e:04}")))],
                Some(div),
            )
            .unwrap();
        }
    }
    let t_cost = under(PlanMode::CostBased, || {
        run_dli(&mut hier, &walk, Inputs::new()).unwrap()
    });
    let t_probe = under(PlanMode::AlwaysProbe, || {
        run_dli(&mut hier, &walk, Inputs::new()).unwrap()
    });
    assert_eq!(t_cost, t_probe, "e13_gn: plan choice leaked into trace");
    let e13 = paired_modes(rounds, cost_probe, &t_cost, || {
        run_dli(&mut hier, &walk, Inputs::new()).unwrap()
    });

    // ---- skewed: majority-value probe vs planner-chosen scan --------------
    let skew_rows = 4000i64;
    // The CLASS index is fully bound by a subset of the equality terms, so
    // the probing baseline fetches ~every row point-wise only to throw
    // almost all of them away on the residual QTY predicate; the output
    // (and its shared projection/trace cost) stays small.
    let skew_query = sequel(
        "SEQUEL PROGRAM Q;
SELECT P#, QTY
FROM PART
WHERE CLASS = 'BULK' AND QTY = 3;
END PROGRAM;",
    );
    let mut skew_db = skewed_db(skew_rows);
    let t_cost = under(PlanMode::CostBased, || {
        run_sequel(&mut skew_db, &skew_query, Inputs::new()).unwrap()
    });
    let t_probe = under(PlanMode::AlwaysProbe, || {
        run_sequel(&mut skew_db, &skew_query, Inputs::new()).unwrap()
    });
    assert_eq!(t_cost, t_probe, "skewed: plan choice leaked into trace");
    assert_eq!(
        t_cost.access.index_probes, 0,
        "skewed: cost-based planner must refuse the majority-value probe"
    );
    assert!(
        t_probe.access.index_probes > 0,
        "skewed: the heuristic baseline must actually probe"
    );
    let probe_cost = [PlanMode::AlwaysProbe, PlanMode::CostBased];
    let skew = paired_modes(rounds, probe_cost, &t_cost, || {
        run_sequel(&mut skew_db, &skew_query, Inputs::new()).unwrap()
    });

    // ---- Gates ------------------------------------------------------------
    if !smoke {
        assert!(
            e9.ratio <= 1.05,
            "e9_select: cost-based / probing baseline {:.3} (gate 1.05)",
            e9.ratio
        );
        assert!(
            e13.ratio <= 1.05,
            "e13_gn: cost-based / probing baseline {:.3} (gate 1.05)",
            e13.ratio
        );
        assert!(
            skew.ratio >= 1.3,
            "skewed: cost-based only {:.2}x faster (gate 1.3x)",
            skew.ratio
        );
    }

    // ---- Emit artifact ----------------------------------------------------
    artifact::emit(
        "planner",
        Json::obj([
            ("rounds", Json::from(rounds)),
            (
                "e9_select",
                Json::obj([
                    ("table_rows", Json::from(select_rows)),
                    ("cost_vs_probe", e9.json("cost_based", "always_probe")),
                    ("gate_ratio", 1.05.into()),
                    ("identical_traces", true.into()),
                ]),
            ),
            (
                "e13_gn",
                Json::obj([
                    ("segments", Json::from(20 * (100 + 1))),
                    ("cost_vs_probe", e13.json("cost_based", "always_probe")),
                    ("gate_ratio", 1.05.into()),
                    ("identical_traces", true.into()),
                ]),
            ),
            (
                "skewed",
                Json::obj([
                    ("table_rows", Json::from(skew_rows)),
                    ("distinct_keys", 2.into()),
                    ("probe_candidates", (skew_rows - 1).into()),
                    ("matching_rows", (skew_rows / 100).into()),
                    ("probe_vs_cost", skew.json("always_probe", "cost_based")),
                    ("gate_speedup", 1.3.into()),
                    ("identical_traces", true.into()),
                    ("cost_based_probes", 0.into()),
                ]),
            ),
        ]),
    );
}
