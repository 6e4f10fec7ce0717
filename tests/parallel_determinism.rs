//! Determinism of the parallel conversion pipeline.
//!
//! The study harness runs its 96 (transform × program-class) cells on a
//! scoped thread-pool whose workers claim cells from a shared cursor, and
//! reassembles the results by cell index, so the E2 matrix and everything derived from it (the E9 cost
//! model, the paper-figure conversions) must be **byte-identical** at any
//! thread count — parallelism and the other pipeline-efficiency knobs
//! (database reuse, analysis memoization, batch conversion) are speed
//! optimizations, never behavior changes.

use dbpc::convert::report::AutoAnalyst;
use dbpc::convert::service::{CtxId, JobOutcome, ServiceBuilder, ServiceConfig, Ticket};
use dbpc::convert::{FaultPlan, Supervisor};
use dbpc::corpus::gen::{generate_program, ProgramClass};
use dbpc::corpus::harness::{
    cost_model, success_rate_study_config, CostParams, StudyConfig, StudyMatrix,
};
use dbpc::corpus::named;
use dbpc::dml::host::parse_program;
use dbpc::engine::Inputs;
use dbpc::storage::pool;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

#[test]
fn e2_matrix_is_byte_identical_across_thread_counts() {
    let runs: Vec<StudyMatrix> = THREAD_COUNTS
        .iter()
        .map(|&threads| {
            success_rate_study_config(&StudyConfig {
                threads,
                ..StudyConfig::new(2, 1979)
            })
        })
        .collect();
    for (threads, run) in THREAD_COUNTS.iter().zip(&runs) {
        // The requested width was honored (profile is diagnostic-only and
        // excluded from the equality below).
        assert_eq!(run.profile.threads, *threads);
    }
    let reference = &runs[0];
    for run in &runs[1..] {
        assert_eq!(reference, run, "matrix differs across thread counts");
        assert_eq!(
            reference.to_string(),
            run.to_string(),
            "rendered matrix differs across thread counts"
        );
    }
}

#[test]
fn e9_cost_report_is_byte_identical_across_thread_counts() {
    let reports: Vec<String> = THREAD_COUNTS
        .iter()
        .map(|&threads| {
            let study = success_rate_study_config(&StudyConfig {
                threads,
                permissive: true,
                ..StudyConfig::new(2, 1979)
            });
            cost_model(&study, CostParams::default()).to_string()
        })
        .collect();
    assert_eq!(reports[0], reports[1]);
    assert_eq!(reports[0], reports[2]);
}

#[test]
fn speed_knobs_do_not_change_the_matrix() {
    // The seed-faithful pipeline (sequential, rebuild-per-program, no
    // memoization) and the fully tuned one agree cell for cell.
    let baseline = success_rate_study_config(&StudyConfig::baseline(2, 42));
    let tuned = success_rate_study_config(&StudyConfig {
        threads: 8,
        ..StudyConfig::new(2, 42)
    });
    assert_eq!(baseline, tuned);
    assert_eq!(baseline.to_string(), tuned.to_string());
}

#[test]
fn figure_4_4_conversion_is_unchanged_by_batching() {
    // The paper's Figure 4.4 conversion — the repo's golden figure test —
    // comes out of `convert_batch` exactly as out of solo `convert`,
    // whatever the batch shape.
    let schema = named::company_schema();
    let restructuring = named::fig_4_4_restructuring();
    let supervisor = Supervisor::without_optimizer();
    let program = parse_program(
        "PROGRAM P;
  FIND E := FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 30));
END PROGRAM;",
    )
    .unwrap();
    let solo = supervisor
        .convert(&schema, &restructuring, &program, &mut AutoAnalyst)
        .unwrap();
    let batch = supervisor
        .convert_batch(
            &schema,
            &restructuring,
            &[program.clone(), program.clone(), program],
            &mut AutoAnalyst,
        )
        .unwrap();
    for report in &batch {
        assert_eq!(report.verdict, solo.verdict);
        assert_eq!(report.text, solo.text);
    }
    assert!(solo
        .text
        .unwrap()
        .contains("DIV-DEPT, DEPT, DEPT-EMP, EMP(AGE > 30)"));
}

/// The conversion service resolves `workers: 0` exactly like the study
/// harness resolves `threads: 0`: `DBPC_THREADS` if set to a positive
/// integer, otherwise machine parallelism — one knob for every parallel
/// surface in the repo.
#[test]
fn service_worker_resolution_follows_dbpc_threads() {
    assert_eq!(
        ServiceConfig::default().resolved_workers(),
        pool::default_threads()
    );
    assert_eq!(
        ServiceConfig {
            workers: 3,
            ..ServiceConfig::default()
        }
        .resolved_workers(),
        3
    );
    // The env hook's contract (parse only; the variable itself belongs to
    // the environment, not this test): unset, empty, junk, and zero all
    // mean "no override".
    assert_eq!(pool::parse_threads(Some("5")), Some(5));
    assert_eq!(pool::parse_threads(Some(" 8 ")), Some(8));
    assert_eq!(pool::parse_threads(Some("0")), None);
    assert_eq!(pool::parse_threads(Some("")), None);
    assert_eq!(pool::parse_threads(Some("many")), None);
    assert_eq!(pool::parse_threads(None), None);
}

/// A seeded fault plan hits the same jobs with the same faults whatever
/// the service's worker count: outcomes at 1, 2, and 8 workers are
/// byte-identical (faults are a function of `(stage, key, attempt)`, and
/// keys travel with jobs, not with workers).
#[test]
fn seeded_fault_service_runs_are_identical_across_worker_counts() {
    let jobs: Vec<(CtxId, dbpc::dml::host::Program, u64)> = (0..12u64)
        .map(|k| {
            let class = ProgramClass::ALL[(k as usize) % ProgramClass::ALL.len()];
            (0usize, generate_program(class, 1900 + k), k)
        })
        .collect();
    let config = |workers| ServiceConfig {
        workers,
        supervisor: Supervisor {
            fault: FaultPlan::seeded(0x1979, 0.35),
            ..Supervisor::default()
        },
        ..ServiceConfig::default()
    };
    let runs: Vec<Vec<JobOutcome>> = THREAD_COUNTS
        .iter()
        .map(|&workers| {
            let mut b = ServiceBuilder::new(config(workers));
            b.register_context(
                &named::company_schema(),
                &named::fig_4_4_restructuring(),
                named::company_db(2, 2, 5),
                Inputs::new().with_terminal(&["RETRIEVE"]),
            )
            .unwrap();
            let svc = b.start();
            let session = svc.session();
            let tickets: Vec<Ticket> = jobs
                .iter()
                .map(|(c, p, k)| session.submit(*c, p.clone(), *k).unwrap())
                .collect();
            tickets.into_iter().map(Ticket::wait).collect()
        })
        .collect();
    let reference = &runs[0];
    for run in &runs[1..] {
        for (a, b) in reference.iter().zip(run) {
            assert_eq!(a.report, b.report, "report differs across worker counts");
            assert_eq!(a.level, b.level, "level differs across worker counts");
        }
    }
}
