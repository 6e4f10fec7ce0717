//! # dbpc-bench
//!
//! Shared workloads for the benchmark harness. One Criterion bench target
//! exists per latency-shaped experiment in EXPERIMENTS.md (E1, E3–E8), and
//! one report binary per table-shaped experiment (E2 `success_rate`,
//! E9 `cost_model`, plus the consolidated `experiments` table printer whose
//! output EXPERIMENTS.md records). Benches that leave a `BENCH_*.json`
//! artifact write it through [`artifact`].

use dbpc_convert::report::AutoAnalyst;
use dbpc_convert::Supervisor;
use dbpc_corpus::named;
use dbpc_dml::host::{parse_program, Program};
use dbpc_restructure::Restructuring;
use dbpc_storage::NetworkDb;

/// The standard retrieval workload of experiment E1: a filtered,
/// division-scoped report plus a whole-database aggregate.
pub fn retrieval_workload() -> Program {
    parse_program(
        "PROGRAM WORKLOAD;
  FIND E := FIND(EMP: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'MACHINERY'), DIV-EMP, EMP(DEPT-NAME = 'SALES'));
  FOR EACH R IN E DO
    WRITE FILE 'OUT' R.EMP-NAME, R.AGE;
  END FOR;
  FIND ALL-E := FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 40));
  PRINT COUNT(ALL-E);
END PROGRAM;",
    )
    .expect("workload parses")
}

/// The update workload of experiments E1/E5: hires and a modification.
pub fn update_workload() -> Program {
    parse_program(
        "PROGRAM UPDATES;
  FIND D := FIND(DIV: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'MACHINERY'));
  STORE EMP (EMP-NAME := 'ZZ-HIRE-1', DEPT-NAME := 'SALES', AGE := 25) CONNECT TO DIV-EMP OF D;
  STORE EMP (EMP-NAME := 'ZZ-HIRE-2', DEPT-NAME := 'ENG', AGE := 31) CONNECT TO DIV-EMP OF D;
  FIND E := FIND(EMP: D, DIV-EMP, EMP(EMP-NAME = 'ZZ-HIRE-1'));
  MODIFY E SET (AGE := 26);
  PRINT 'DONE';
END PROGRAM;",
    )
    .expect("workload parses")
}

/// Standard scales for the strategy comparison (divisions, depts, emps/div).
pub const SCALES: &[(usize, usize, usize, &str)] =
    &[(4, 4, 25, "1e2"), (4, 4, 250, "1e3"), (4, 4, 2500, "1e4")];

/// Build the target database (Figure 4.4 form) for a scale.
pub fn target_db(divs: usize, depts: usize, emps: usize) -> (NetworkDb, Restructuring) {
    let r = named::fig_4_4_restructuring();
    let src = named::company_db(divs, depts, emps);
    let tgt = r.translate(&src).expect("translation");
    (tgt, r)
}

/// Convert a program for the Figure 4.2→4.4 restructuring.
pub fn convert_for_fig44(program: &Program, optimize: bool) -> Program {
    let schema = named::company_schema();
    let supervisor = if optimize {
        Supervisor::new()
    } else {
        Supervisor::without_optimizer()
    };
    supervisor
        .convert(
            &schema,
            &named::fig_4_4_restructuring(),
            program,
            &mut AutoAnalyst,
        )
        .expect("analyzer accepts")
        .program
        .expect("workload converts")
}

/// The one writer of the `BENCH_<bench>.json` artifacts at the repo root.
pub mod artifact {
    use dbpc_obs::json::Json;

    /// Smoke mode (`DBPC_BENCH_SMOKE=1`): a bench runs a small workload with
    /// every assertion active and writes no artifact.
    pub fn smoke() -> bool {
        std::env::var("DBPC_BENCH_SMOKE").is_ok_and(|v| v == "1")
    }

    /// The members every artifact opens with.
    pub fn header(bench: &str) -> Vec<(String, Json)> {
        let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        vec![
            ("bench".to_string(), bench.into()),
            ("smoke".to_string(), smoke().into()),
            ("host_threads".to_string(), host_threads.into()),
        ]
    }

    /// Print the artifact — [`header`] followed by the members of `body` —
    /// and, outside smoke mode, write it to `BENCH_<bench>.json`.
    pub fn emit(bench: &str, body: Json) {
        let Json::Obj(members) = body else {
            panic!("{bench}: an artifact body is a JSON object");
        };
        let mut doc = header(bench);
        doc.extend(members);
        let text = Json::Obj(doc).pretty() + "\n";
        print!("{text}");
        if smoke() {
            println!("smoke mode: artifact not written");
        } else {
            let out = format!("{}/../../BENCH_{bench}.json", env!("CARGO_MANIFEST_DIR"));
            std::fs::write(&out, text).unwrap();
            println!("wrote {out}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpc_engine::host_exec::run_host;
    use dbpc_engine::Inputs;

    #[test]
    fn workloads_run_on_source_and_target() {
        let mut src = named::company_db(4, 4, 25);
        let t = run_host(&mut src, &retrieval_workload(), Inputs::new()).unwrap();
        assert!(!t.is_empty());

        let (mut tgt, _) = target_db(4, 4, 25);
        let conv = convert_for_fig44(&retrieval_workload(), true);
        let t2 = run_host(&mut tgt, &conv, Inputs::new()).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn update_workload_converts_and_runs() {
        let (mut tgt, _) = target_db(4, 4, 25);
        let conv = convert_for_fig44(&update_workload(), true);
        let t = run_host(&mut tgt, &conv, Inputs::new()).unwrap();
        assert_eq!(t.terminal_lines(), vec!["DONE"]);
    }
}
