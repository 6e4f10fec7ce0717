//! The paper's efficiency claims as gated orderings of two timed arms
//! (EXPERIMENTS.md E1, E3–E8): rewrite < emulate < bridge (E1, §2.1.2),
//! optimized < unoptimized conversions (E3, §5.4), declarative <
//! procedural integrity checks (E4, §3.1), differential write-back ≤ full
//! retranslation (E5, ref 9), and analysis cost linear in program size
//! (E7, §5.3). E8's qualified `GNP` < unqualified `GN` (ref 11) is
//! recorded but not asserted (see [`UNASSERTED`]); E6 records each
//! restructuring operator's translation time, without a gate.
//!
//! Each ordering runs its arms in alternating rounds ([`paired::ratio`])
//! and holds when the median of the per-round ratios is at most its
//! bound. An arm's time covers the run alone: cloning its database is
//! set-up. Every ordering is printed before any is asserted, so a failing
//! run still shows each ratio. Smoke mode (`DBPC_BENCH_SMOKE=1`) keeps
//! the smallest scale of each experiment and fewer rounds, every
//! assertion active, and writes no artifact.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use dbpc_analyzer::dataflow::analyze_host;
use dbpc_analyzer::extract::{sequences_of_dbtg, sequences_of_host};
use dbpc_bench::paired::{self, timed};
use dbpc_bench::{
    artifact, convert_for_fig44, retrieval_workload, target_db, update_workload, SCALES,
};
use dbpc_convert::report::AutoAnalyst;
use dbpc_convert::Supervisor;
use dbpc_corpus::named;
use dbpc_datamodel::constraint::Constraint;
use dbpc_datamodel::types::FieldType;
use dbpc_datamodel::value::Value;
use dbpc_dml::dbtg::parse_dbtg;
use dbpc_dml::dli::parse_dli;
use dbpc_dml::expr::CmpOp;
use dbpc_dml::host::{parse_program, Program};
use dbpc_emulate::{run_bridged, Emulator, WriteBack};
use dbpc_engine::dli_exec::run_dli;
use dbpc_engine::host_exec::run_host;
use dbpc_engine::Inputs;
use dbpc_obs::json::Json;
use dbpc_restructure::{Restructuring, Transform};
use dbpc_storage::NetworkDb;

/// E7's bound on cost(50 blocks) / cost(10 blocks): twice the ratio of 5
/// that cost linear in program size gives. Fixed before any run.
const E7_BOUND: f64 = 10.0;

/// Experiments whose orderings are recorded but not asserted. E8's two
/// arms list the same employees, and its ratio read 0.98–1.07 at 200
/// employees and 1.00–1.03 at 2,000 over 6 full runs on a 2-vCPU host:
/// `GN` steps through a cached hierarchic sequence, so a step costs what
/// a `GNP` step does.
const UNASSERTED: &[&str] = &["E8"];

/// The orderings measured so far.
struct Gates {
    rounds: usize,
    json: Vec<Json>,
    failed: Vec<String>,
}

impl Gates {
    /// Time `a` against `b` and record the claim that `a / b` is at most
    /// `bound`, asserted unless the experiment is [`UNASSERTED`].
    fn check(
        &mut self,
        (experiment, scale, claim): (&str, &str, &str),
        bound: f64,
        a: impl FnMut() -> Duration,
        b: impl FnMut() -> Duration,
    ) {
        let p = paired::ratio(self.rounds, a, b);
        let holds = p.ratio <= bound;
        let asserted = !UNASSERTED.contains(&experiment);
        let verdict = if holds { "ok" } else { "FAILED" };
        let note = if asserted { "" } else { ", not asserted" };
        let line = format!(
            "{experiment} {scale:<13} {claim:<34} ratio {:>7.3} (bound {bound}) {verdict}{note}",
            p.ratio
        );
        println!("{line}");
        if asserted && !holds {
            self.failed.push(line);
        }
        let us = |d: Duration| Json::from(d.as_secs_f64() * 1e6);
        self.json.push(Json::obj([
            ("experiment", Json::from(experiment)),
            ("scale", scale.into()),
            ("claim", claim.into()),
            ("ratio", p.ratio.into()),
            ("bound", bound.into()),
            ("holds", holds.into()),
            ("asserted", asserted.into()),
            ("a_us", us(p.a)),
            ("b_us", us(p.b)),
        ]));
    }
}

/// Run `program` on a fresh clone of `db`, timing the run alone.
fn run_on(db: &NetworkDb, program: &Program) -> Duration {
    let mut db = db.clone();
    timed(|| run_host(&mut db, program, Inputs::new()).unwrap()).0
}

fn e1_strategies(gates: &mut Gates, scales: &[(usize, usize, usize, &str)]) {
    let schema = named::company_schema();
    let program = retrieval_workload();
    let converted = convert_for_fig44(&program, true);
    for &(divs, depts, emps, label) in scales {
        let (target, restructuring) = target_db(divs, depts, emps);
        let rewrite = || run_on(&target, &converted);
        let emulate = || {
            let db = target.clone();
            timed(|| {
                let mut emu = Emulator::over(db, &schema, &restructuring).unwrap();
                run_host(&mut emu, &program, Inputs::new()).unwrap();
                emu
            })
            .0
        };
        let bridge = || {
            let (db, wb) = (target.clone(), WriteBack::Differential);
            timed(|| run_bridged(db, &schema, &restructuring, &program, Inputs::new(), wb).unwrap())
                .0
        };
        gates.check(("E1", label, "rewrite < emulate"), 1.0, rewrite, emulate);
        gates.check(("E1", label, "emulate < bridge"), 1.0, emulate, bridge);
    }
}

/// E3: the Figure 4.2→4.4 promotion plus a newly declared cardinality
/// limit, so both optimizer passes have work: the unoptimized conversion
/// keeps a conservative SORT and a redundant procedural check with its
/// feeder retrieval.
fn e3_optimizer(gates: &mut Gates, scales: &[(usize, usize, usize, &str)]) {
    let mut restructuring = named::fig_4_4_restructuring();
    let transforms = &mut restructuring.transforms;
    transforms.push(Transform::AddConstraint(Constraint::Cardinality {
        set: "DEPT-EMP".into(),
        min: 0,
        max: Some(100_000),
    }));
    let program = parse_program(
        "PROGRAM RPT;
  FIND D := FIND(DIV: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'MACHINERY'));
  FIND E := FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 30));
  FOR EACH R IN E DO
    WRITE FILE 'OUT' R.EMP-NAME;
  END FOR;
END PROGRAM;",
    )
    .unwrap();
    let schema = named::company_schema();
    let convert = |supervisor: Supervisor| {
        let report = supervisor.convert(&schema, &restructuring, &program, &mut AutoAnalyst);
        report.unwrap().program.unwrap()
    };
    let unopt = convert(Supervisor::without_optimizer());
    let opt = convert(Supervisor::new());
    for &(divs, depts, emps, label) in scales {
        let target = (restructuring.translate(&named::company_db(divs, depts, emps))).unwrap();
        let (optimized, unoptimized) = (|| run_on(&target, &opt), || run_on(&target, &unopt));
        gates.check(
            ("E3", label, "optimized < unoptimized"),
            1.0,
            optimized,
            unoptimized,
        );
    }
}

/// `n` hires into MACHINERY, each guarded (with `with_check`) by a
/// program-level CHECK that re-retrieves the division's members.
fn insert_program(n: usize, with_check: bool) -> Program {
    let mut body = String::from(
        "PROGRAM INS;\n  FIND D := FIND(DIV: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'MACHINERY'));\n",
    );
    for i in 0..n {
        if with_check {
            let _ = writeln!(
                body,
                "  FIND S{i} := FIND(EMP: D, DIV-EMP, EMP);\n  CHECK COUNT(S{i}) < 1000000 ELSE ABORT 'FULL';"
            );
        }
        let _ = writeln!(
            body,
            "  STORE EMP (EMP-NAME := 'ZZ-{i:05}', DEPT-NAME := 'SALES', AGE := 30) CONNECT TO DIV-EMP OF D;"
        );
    }
    parse_program(&(body + "END PROGRAM;\n")).unwrap()
}

/// `plain`'s divisions and employees, copied into a schema that declares
/// the limit the procedural guard checks.
fn constrained_copy(plain: &NetworkDb) -> NetworkDb {
    let schema = named::company_schema().with_constraint(Constraint::Cardinality {
        set: "DIV-EMP".into(),
        min: 0,
        max: Some(1_000_000),
    });
    let mut db = NetworkDb::new(schema).unwrap();
    let field = |r, f| (f, plain.field_value(r, f).unwrap());
    for div in plain.records_of_type("DIV") {
        let values = [field(div, "DIV-NAME"), field(div, "DIV-LOC")];
        let d = db.store("DIV", &values, &[]).unwrap();
        for emp in plain.members_of("DIV-EMP", div).unwrap() {
            let values = ["EMP-NAME", "DEPT-NAME", "AGE"].map(|f| field(emp, f));
            db.store("EMP", &values, &[("DIV-EMP", d)]).unwrap();
        }
    }
    db
}

fn e4_constraints(gates: &mut Gates, occupancies: &[(usize, &str)]) {
    let (guarded, bare) = (insert_program(50, true), insert_program(50, false));
    for &(members, label) in occupancies {
        let plain = named::company_db(2, 3, members);
        let constrained = constrained_copy(&plain);
        let declarative = || run_on(&constrained, &bare);
        let procedural = || run_on(&plain, &guarded);
        gates.check(
            ("E4", label, "declarative < procedural"),
            1.0,
            declarative,
            procedural,
        );
    }
}

fn e5_write_back(gates: &mut Gates, scales: &[(usize, usize, usize, &str)]) {
    let schema = named::company_schema();
    let updates = update_workload();
    for &(divs, depts, emps, label) in scales {
        let (target, restructuring) = target_db(divs, depts, emps);
        let bridged = |wb| {
            let db = target.clone();
            timed(|| run_bridged(db, &schema, &restructuring, &updates, Inputs::new(), wb).unwrap())
                .0
        };
        let claim = ("E5", label, "differential <= full retranslation");
        let (diff, full) = (WriteBack::Differential, WriteBack::FullRetranslate);
        gates.check(claim, 1.0, || bridged(diff), || bridged(full));
    }
}

/// E6: the median time of each operator's whole-database translation,
/// in microseconds.
fn e6_translation(rounds: usize, (divs, depts, emps, _): (usize, usize, usize, &str)) -> Json {
    let src = named::company_db(divs, depts, emps);
    let transforms = [
        (
            "rename-record",
            Transform::RenameRecord {
                old: "EMP".into(),
                new: "WORKER".into(),
            },
        ),
        (
            "add-field",
            Transform::AddField {
                record: "EMP".into(),
                field: "SALARY".into(),
                ty: FieldType::Int(6),
                default: Value::Int(0),
            },
        ),
        (
            "promote-dept",
            named::fig_4_4_restructuring().transforms.remove(0),
        ),
        (
            "change-keys",
            Transform::ChangeSetKeys {
                set: "DIV-EMP".into(),
                keys: vec!["AGE".into(), "EMP-NAME".into()],
            },
        ),
        (
            "delete-where",
            Transform::DeleteWhere {
                record: "EMP".into(),
                field: "AGE".into(),
                op: CmpOp::Gt,
                value: Value::Int(55),
            },
        ),
    ];
    let mut us = Vec::new();
    for (name, t) in transforms {
        let r = Restructuring::single(t);
        let mut times: Vec<f64> = (0..rounds)
            .map(|_| timed(|| r.translate(&src).unwrap()).0.as_secs_f64() * 1e6)
            .collect();
        let median = paired::median(&mut times);
        println!("E6 {name:<14} {median:>10.0} us");
        us.push((name, Json::from(median)));
    }
    Json::obj([
        ("records", Json::from(src.record_count())),
        ("translate_us", Json::obj(us)),
    ])
}

/// E7: each analysis stage on programs of 50 and of 10 blocks (host
/// report blocks, DBTG scan loops). No database is involved.
fn e7_analysis(gates: &mut Gates) {
    let host = [50, 10].map(|n| {
        let mut src = String::from("PROGRAM BIG;\n");
        for i in 0..n {
            let _ = write!(
                src,
                "  FIND E{i} := FIND(EMP: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'MACHINERY'), DIV-EMP, EMP(AGE > {}));
  FOR EACH R{i} IN E{i} DO
    WRITE FILE 'OUT' R{i}.EMP-NAME;
  END FOR;
",
                20 + (i % 40)
            );
        }
        parse_program(&(src + "END PROGRAM;\n")).unwrap()
    });
    let dbtg = [50, 10].map(|n| {
        let mut src = String::from("DBTG PROGRAM BIG.\n");
        for i in 0..n {
            let _ = write!(
                src,
                "  MOVE 'D2' TO D# IN DEPT.
  FIND ANY DEPT USING D#.
  IF STATUS NOTFOUND GO TO END{i}.
L{i}.
  FIND NEXT EMP WITHIN ED.
  IF STATUS ENDSET GO TO END{i}.
  GET EMP.
  PRINT EMP.ENAME.
  GO TO L{i}.
END{i}.
"
            );
        }
        parse_dbtg(&(src + "  STOP.\nEND PROGRAM.\n")).unwrap()
    });
    let schema = named::company_schema();
    let personnel = named::personnel_network_schema();
    let fig44 = named::fig_4_4_restructuring();
    let convert = |p| Supervisor::new().convert(&schema, &fig44, p, &mut AutoAnalyst);
    let stages: [(&str, &dyn Fn(usize) -> Duration); 4] = [
        ("dataflow", &|i| timed(|| analyze_host(&host[i], &schema)).0),
        ("extract", &|i| timed(|| sequences_of_host(&host[i])).0),
        ("dbtg-template", &|i| {
            timed(|| sequences_of_dbtg(&dbtg[i], &personnel, &BTreeMap::new())).0
        }),
        ("conversion", &|i| timed(|| convert(&host[i]).unwrap()).0),
    ];
    for (stage, cost) in stages {
        let claim = ("E7", stage, "cost(50 blocks) / cost(10 blocks)");
        gates.check(claim, E7_BOUND, || cost(0), || cost(1));
    }
}

/// E8: two ways to list one division's employees. The qualified sweep
/// stays under the division with `GNP`; the unqualified walk steps with
/// `GN` through the hierarchic sequence from the division on, which ends
/// with its employees because MACHINERY is the last root in key order.
/// Both print the same lines, checked before either is timed.
fn e8_hierarchy(gates: &mut Gates, scales: &[(usize, &str)]) {
    let program = |name, next| {
        parse_dli(&format!(
            "DLI PROGRAM {name}.
  GU DIV(DIV-NAME = 'MACHINERY').
L.
  {next} EMP.
  IF STATUS GE GO TO DONE.
  IF STATUS GB GO TO DONE.
  PRINT EMP-NAME.
  GO TO L.
DONE.
  STOP.
END PROGRAM."
        ))
        .unwrap()
    };
    let (qualified, walk) = (program("Q", "GNP"), program("WALK", "GN"));
    for &(emps, label) in scales {
        let db = named::company_hier_db(4, 4, emps).unwrap();
        let dli = |program| {
            let mut d = db.clone();
            timed(|| run_dli(&mut d, program, Inputs::new()).unwrap())
        };
        let (q, w) = (dli(&qualified).1, dli(&walk).1);
        assert!(
            q == w && q.events.len() == emps,
            "E8 {label}: the walk and the sweep print different lines"
        );
        let claim = ("E8", label, "qualified GNP < unqualified GN");
        gates.check(claim, 1.0, || dli(&qualified).0, || dli(&walk).0);
    }
}

fn main() {
    let smoke = artifact::smoke();
    // Smoke keeps the first (smallest) scale of each experiment.
    let keep = |n: usize| if smoke { 1 } else { n };
    let scales = &SCALES[..keep(SCALES.len())];
    let mut gates = Gates {
        rounds: if smoke { 5 } else { 15 },
        json: Vec::new(),
        failed: Vec::new(),
    };
    e1_strategies(&mut gates, scales);
    e3_optimizer(&mut gates, scales);
    e4_constraints(&mut gates, &[(100, "100"), (1000, "1000")][..keep(2)]);
    e5_write_back(&mut gates, scales);
    let e6 = e6_translation(gates.rounds, scales[scales.len() - 1]);
    e7_analysis(&mut gates);
    e8_hierarchy(&mut gates, &[(50, "2e2"), (500, "2e3")][..keep(2)]);
    assert!(gates.failed.is_empty(), "failed: {:#?}", gates.failed);

    artifact::emit(
        "paper_shapes",
        Json::obj([
            ("rounds", Json::from(gates.rounds)),
            ("orderings", Json::Arr(gates.json)),
            ("e6", e6),
        ]),
    );
}
