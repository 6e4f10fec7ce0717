//! Determinism of the observability layer itself.
//!
//! The obs contract extends the repo's parallelism contract one level up:
//! not only must the E2 matrix be byte-identical at any thread count, the
//! *deterministic projection* of the run's `RunReport` — span forest with
//! wall clocks stripped, metrics with `Racy`/`Time`/`host.*` entries
//! dropped — must be byte-identical too. Per-cell captures are renumbered
//! in cell-index order and metric shards merge in the same order, so the
//! report is a pure function of the work list, not of scheduling — which
//! varies from run to run, since pool workers claim cells from a shared
//! cursor.
//!
//! Also pinned here: the regression where per-thread tallies were silently
//! dropped for every pool worker but the assembling thread. Counters live
//! in the ambient obs sheet (bracketed per cell, shipped back with the
//! result, merged in index order), so every worker's work is accounted for
//! at any thread count.

use dbpc::corpus::harness::{success_rate_study_config, StudyConfig, StudyResult};
use dbpc::obs::RunReport;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn study_at(threads: usize, permissive: bool) -> StudyResult {
    success_rate_study_config(&StudyConfig {
        threads,
        permissive,
        ..StudyConfig::new(2, 1979)
    })
}

#[test]
fn e2_run_report_is_deterministic_across_thread_counts() {
    let runs: Vec<StudyResult> = THREAD_COUNTS
        .iter()
        .map(|&threads| study_at(threads, false))
        .collect();
    let reference = runs[0].report.deterministic();
    assert!(
        reference.node_count() > 0,
        "study produced an empty span forest"
    );
    for (threads, run) in THREAD_COUNTS.iter().zip(&runs).skip(1) {
        let projected = run.report.deterministic();
        assert_eq!(
            reference, projected,
            "deterministic report differs at {threads} threads"
        );
        assert_eq!(
            reference.to_json(),
            projected.to_json(),
            "deterministic report JSON differs at {threads} threads"
        );
    }
}

/// Workers claim cells from a shared cursor, so which worker runs which
/// cell changes from run to run. Repeated 8-thread runs of one study must
/// still agree byte for byte, in the matrix and in the deterministic
/// report.
#[test]
fn repeated_wide_runs_agree_whatever_the_cell_placement() {
    let runs: Vec<StudyResult> = (0..3).map(|_| study_at(8, false)).collect();
    let reference = &runs[0];
    let reference_json = reference.report.deterministic().to_json();
    for (k, run) in runs.iter().enumerate().skip(1) {
        assert_eq!(reference, run, "matrix of 8-thread run {k} differs");
        assert_eq!(
            reference.to_string(),
            run.to_string(),
            "rendered matrix of 8-thread run {k} differs"
        );
        assert_eq!(
            reference_json,
            run.report.deterministic().to_json(),
            "deterministic report JSON of 8-thread run {k} differs"
        );
    }
}

#[test]
fn permissive_run_report_is_deterministic_across_thread_counts() {
    let runs: Vec<StudyResult> = THREAD_COUNTS
        .iter()
        .map(|&threads| study_at(threads, true))
        .collect();
    let reference = runs[0].report.deterministic();
    for run in &runs[1..] {
        assert_eq!(reference, run.report.deterministic());
        assert_eq!(reference.to_json(), run.report.deterministic().to_json());
    }
}

#[test]
fn run_report_json_round_trips() {
    let run = study_at(2, false);
    let text = run.report.to_json();
    let back = RunReport::from_json(&text).expect("exported report must parse");
    assert_eq!(back, run.report);
    assert_eq!(back.to_json(), text, "re-serialization must be byte-stable");
    dbpc::obs::report::validate_json(&text).expect("exported report must validate");
}

#[test]
fn every_span_is_well_formed_and_stage_spans_present() {
    let run = study_at(2, false);
    for root in &run.report.spans {
        assert!(
            root.well_formed(),
            "malformed span tree under {}",
            root.name
        );
    }
    // The Figure 4.1 stage boundaries all appear in a real study run.
    let mut names = std::collections::BTreeSet::new();
    run.report.walk(&mut |node| {
        names.insert(node.name.clone());
    });
    for expected in [
        "convert.program",
        "stage.analyzer",
        "stage.converter",
        "stage.optimizer",
        "stage.generator",
        "engine.host",
    ] {
        assert!(names.contains(expected), "missing span {expected:?}");
    }
}

/// The cross-worker merge regression: every pool worker's analyzer
/// counts are merged into the study frame, so the number of programs
/// analyzed is the same at 1, 2 and 8 threads.
#[test]
fn programs_analyzed_are_counted_on_every_worker() {
    let analyzed: Vec<u64> = THREAD_COUNTS
        .iter()
        .map(|&threads| {
            let n = study_at(threads, false)
                .report
                .metrics
                .counter("convert.programs_analyzed");
            assert!(n > 0, "study at {threads} threads analyzed no programs");
            n
        })
        .collect();
    assert!(
        analyzed.iter().all(|&n| n == analyzed[0]),
        "programs analyzed differ across thread counts {THREAD_COUNTS:?}: {analyzed:?}"
    );
}
