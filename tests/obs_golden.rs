//! Golden snapshots of the human-readable `RunReport` tree.
//!
//! Two pinned renderings: a clean single-program conversion (the paper's
//! Figure 4.4 rewrite) and a fallback-ladder descent under an injected
//! optimizer fault. The snapshots are of the *deterministic projection*
//! (wall clocks stripped, racy/time/host metrics dropped), so they are
//! stable across machines, thread counts, and process-warm caches.
//!
//! On mismatch the test prints a line diff. To regenerate after an
//! intentional format or instrumentation change:
//!
//! ```text
//! DBPC_UPDATE_GOLDEN=1 cargo test --test obs_golden
//! ```

use dbpc::convert::report::AutoAnalyst;
use dbpc::convert::{run_ladder, FaultKind, FaultPlan, Supervisor};
use dbpc::corpus::named;
use dbpc::datamodel::error::Stage;
use dbpc::dml::host::parse_program;
use dbpc::engine::Inputs;
use dbpc::obs::{MetricsRegistry, RunReport};
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compare `actual` against the named golden file, printing a line diff on
/// mismatch; regenerate with `DBPC_UPDATE_GOLDEN=1`.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("DBPC_UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}); run with DBPC_UPDATE_GOLDEN=1"));
    if expected == actual {
        return;
    }
    let mut diff = String::new();
    for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        if e != a {
            diff.push_str(&format!("line {:>3}: - {e}\n         + {a}\n", i + 1));
        }
    }
    let (el, al) = (expected.lines().count(), actual.lines().count());
    if el != al {
        diff.push_str(&format!("line count: expected {el}, actual {al}\n"));
    }
    panic!(
        "golden mismatch for {name}:\n{diff}\n\
         (regenerate with DBPC_UPDATE_GOLDEN=1 if the change is intentional)"
    );
}

/// A program unique to this test binary, so the process-wide analysis memo
/// sees it exactly once and the deterministic counter slice is stable.
fn fig_4_4_program() -> dbpc::dml::host::Program {
    parse_program(
        "PROGRAM GOLDEN;
  FIND E := FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 31));
  PRINT COUNT(E);
END PROGRAM;",
    )
    .unwrap()
}

#[test]
fn clean_conversion_report_renders_stably() {
    let report = Supervisor::new()
        .convert_traced(
            &named::company_schema(),
            &named::fig_4_4_restructuring(),
            &fig_4_4_program(),
            &mut AutoAnalyst,
        )
        .unwrap();
    let run = report
        .run_report
        .expect("traced conversion attaches a report");
    assert_golden("run_report_clean.txt", &run.deterministic().to_string());
}

/// A run against the **out-of-core** engine: the paged twin of the
/// company database under a 4-frame pool (far smaller than its heap),
/// so the program's scans cross evictions. The deterministic projection
/// pins the `heap.*` physical gauges (pages, records, fill factor —
/// pure functions of the fixed corpus and page size); the racy buffer
/// traffic (`buffer.evictions` et al.) must ride in the full report but
/// stay out of the projection, since its exact counts depend on pool
/// warmth.
#[test]
fn paged_engine_report_renders_stably() {
    let before = dbpc::obs::local_snapshot();
    let (trace, capture) = dbpc::obs::capture("paged-run", || {
        let mut db = named::company_db(4, 3, 8).to_paged(256, 4).unwrap();
        let t =
            dbpc::engine::host_exec::run_host(&mut db, &fig_4_4_program(), Inputs::new()).unwrap();
        db.publish_heap_gauges();
        t
    });
    assert!(!trace.is_empty(), "the probe program prints a count");
    let mut registry = MetricsRegistry::new();
    registry.absorb(&dbpc::obs::local_snapshot().since(&before));
    let run = RunReport::assemble("paged-run", vec![capture], registry);
    let full = run.to_string();
    assert!(
        full.contains("buffer.evictions"),
        "4-frame pool over a multi-page heap must evict; full report:\n{full}"
    );
    assert_golden("run_report_paged.txt", &run.deterministic().to_string());
}

#[test]
fn optimizer_fault_ladder_report_renders_stably() {
    const KEY: u64 = 31;
    let supervisor = Supervisor {
        fault: FaultPlan::none().with_fault(Stage::Optimizer, KEY, FaultKind::Error),
        ..Supervisor::default()
    };
    let before = dbpc::obs::local_snapshot();
    let (outcome, capture) = dbpc::obs::capture("ladder", || {
        let mut db = named::company_db(4, 3, 8);
        run_ladder(
            &supervisor,
            &named::company_schema(),
            &named::fig_4_4_restructuring(),
            &fig_4_4_program(),
            KEY,
            &mut db,
            &Inputs::new(),
            &mut AutoAnalyst,
        )
    });
    // The descent fell past the optimizer: the fallback log is non-empty,
    // and the golden tree below shows the failed rung and the serving one.
    assert!(!outcome.report.fallbacks.is_empty());
    let mut registry = MetricsRegistry::new();
    registry.absorb(&dbpc::obs::local_snapshot().since(&before));
    let run = RunReport::assemble("ladder", vec![capture], registry);
    assert_golden("run_report_ladder.txt", &run.deterministic().to_string());
}
