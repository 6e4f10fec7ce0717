//! The fault-injection × strategy-ladder matrix.
//!
//! Three contracts of the robustness layer, end to end:
//!
//! 1. **No fault, no change.** With an idle fault plan the ladder serves
//!    every clean program from the top rung (full rewriting) with an empty
//!    fallback log, and its report is byte-identical to the plain
//!    supervisor's — the ladder is pure insurance.
//! 2. **Documented descent.** Each injected fault — typed error or panic,
//!    at each pipeline stage — lands the program on exactly the rung the
//!    ladder module documents: analyzer/converter/generator faults fail
//!    both rewriting rungs and are served by DML emulation, an optimizer
//!    fault is served by rewriting-without-the-optimizer, and a
//!    translation or verification fault (which poisons every automatic
//!    strategy's verification) lands on manual.
//! 3. **Determinism under parallelism.** Fault decisions are a pure
//!    function of `(seed, stage, program key)`, so a seeded probabilistic
//!    plan produces identical ladder outcomes at 1, 2, and 8 threads, and
//!    a targeted fault hits exactly one program of a batch while every
//!    sibling report stays byte-identical to the fault-free run.

use dbpc::convert::equivalence::EquivalenceLevel;
use dbpc::convert::report::AutoAnalyst;
use dbpc::convert::{run_ladder, FaultKind, FaultPlan, Rung, Supervisor, Verdict};
use dbpc::corpus::gen::{ProgramClass, TransformClass};
use dbpc::corpus::harness::{
    ladder_reports, program_fault_key, success_rate_study_config, StudyConfig,
};
use dbpc::corpus::named;
use dbpc::datamodel::error::{PipelineError, Stage};
use dbpc::dml::host::{parse_program, Program};
use dbpc::engine::Inputs;

/// The §4.2 retrieval program over the company schema, with an observable
/// output so trace verification is non-vacuous.
fn clean_program() -> Program {
    parse_program(
        "PROGRAM P;
  FIND E := FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 30));
  PRINT COUNT(E);
END PROGRAM;",
    )
    .unwrap()
}

const KEY: u64 = 7;

fn descend(plan: FaultPlan) -> dbpc::convert::LadderOutcome {
    let supervisor = Supervisor {
        fault: plan,
        ..Supervisor::default()
    };
    let mut db = named::company_db(4, 3, 8);
    run_ladder(
        &supervisor,
        &named::company_schema(),
        &named::fig_4_4_restructuring(),
        &clean_program(),
        KEY,
        &mut db,
        &Inputs::new(),
        &mut AutoAnalyst,
    )
}

#[test]
fn clean_descent_serves_full_rewriting_with_no_fallbacks() {
    let outcome = descend(FaultPlan::none());
    assert_eq!(outcome.report.rung, Rung::FullRewrite);
    assert!(outcome.report.fallbacks.is_empty());
    assert!(outcome.report.succeeded());
    assert_eq!(outcome.level, Some(EquivalenceLevel::Strict));
    assert_eq!(outcome.attempts, 1);

    // Byte-identical to the plain (ladder-free) pipeline's report.
    let plain = Supervisor::default()
        .convert(
            &named::company_schema(),
            &named::fig_4_4_restructuring(),
            &clean_program(),
            &mut AutoAnalyst,
        )
        .unwrap();
    assert_eq!(outcome.report, plain);
}

#[test]
fn each_fault_lands_on_its_documented_rung() {
    // (faulted stage, rung that must end up serving the program).
    let expectations = [
        (Stage::Analyzer, Rung::Emulation),
        (Stage::Converter, Rung::Emulation),
        (Stage::Generator, Rung::Emulation),
        (Stage::Optimizer, Rung::RewriteNoOptimizer),
        (Stage::Translation, Rung::Manual),
        (Stage::Verification, Rung::Manual),
    ];
    for (stage, serving) in expectations {
        for kind in [FaultKind::Error, FaultKind::Panic] {
            let outcome = descend(FaultPlan::none().with_fault(stage, KEY, kind));
            let report = &outcome.report;
            assert_eq!(
                report.rung, serving,
                "{kind:?} at {stage} should be served by {serving}"
            );
            assert!(
                !report.fallbacks.is_empty(),
                "{kind:?} at {stage} must record why earlier rungs failed"
            );
            // The fallback log covers exactly the rungs above the serving
            // one, in descent order.
            let failed: Vec<Rung> = report.fallbacks.iter().map(|f| f.rung).collect();
            let expected_failed: Vec<Rung> = dbpc::convert::LADDER
                .iter()
                .copied()
                .take_while(|r| *r < serving)
                .collect();
            assert_eq!(failed, expected_failed, "{kind:?} at {stage}");
            if serving == Rung::Manual {
                assert_eq!(report.verdict, Verdict::NeedsManualWork);
                assert!(outcome.level.is_none());
            } else {
                assert!(report.succeeded(), "{kind:?} at {stage}");
                assert!(outcome.level.is_some(), "{kind:?} at {stage}");
            }
            // A persistent fault exhausts the retry budget on each rung it
            // reaches (1 + default retry = 2 attempts).
            for failure in &report.fallbacks {
                if failure.rung != serving {
                    assert!(failure.attempts >= 1, "{kind:?} at {stage}");
                }
            }
        }
    }
}

#[test]
fn transient_fault_is_retried_on_the_same_rung() {
    for kind in [FaultKind::Error, FaultKind::Panic] {
        let outcome =
            descend(FaultPlan::none().with_transient_fault(Stage::Converter, KEY, kind, 1));
        // One injected failure, one retry, served by the top rung: the
        // transient fault never demotes the program.
        assert_eq!(outcome.report.rung, Rung::FullRewrite, "{kind:?}");
        assert!(outcome.report.fallbacks.is_empty(), "{kind:?}");
        assert_eq!(outcome.attempts, 2, "{kind:?}");
        assert!(outcome.report.succeeded(), "{kind:?}");
    }
}

#[test]
fn injected_panics_poison_only_their_program_in_the_plain_matrix() {
    let target_t = TransformClass::RenameAgeField;
    let target_pc = ProgramClass::ALL[2];
    let plan = FaultPlan::none().with_fault(
        Stage::Converter,
        program_fault_key(target_t, target_pc, 1),
        FaultKind::Panic,
    );
    let clean = success_rate_study_config(&StudyConfig {
        threads: 1,
        ..StudyConfig::new(2, 1979)
    });
    for threads in [1, 8] {
        let faulted = success_rate_study_config(&StudyConfig {
            threads,
            fault_plan: plan.clone(),
            ..StudyConfig::new(2, 1979)
        });
        for (clean_row, faulted_row) in clean.rows.iter().zip(&faulted.rows) {
            for ((pc, clean_cell), (_, faulted_cell)) in
                clean_row.cells.iter().zip(&faulted_row.cells)
            {
                if clean_row.transform == target_t && *pc == target_pc {
                    // The batch completed; the poisoned program moved to
                    // the failure column and out of its clean verdict.
                    assert_eq!(faulted_cell.poisoned, 1, "threads = {threads}");
                    assert_eq!(faulted_cell.total, clean_cell.total);
                } else {
                    assert_eq!(
                        clean_cell, faulted_cell,
                        "sibling cell {}/{} changed under a targeted fault \
                         (threads = {threads})",
                        clean_row.transform, pc
                    );
                }
            }
        }
    }
}

#[test]
fn targeted_fault_demotes_exactly_one_ladder_report() {
    let samples = 2;
    let target_t = TransformClass::Promote;
    let target_pc = ProgramClass::ALL[0];
    let target_k = 1;
    let target_idx = {
        let t_idx = TransformClass::ALL
            .iter()
            .position(|t| *t == target_t)
            .unwrap();
        let pc_idx = ProgramClass::ALL
            .iter()
            .position(|pc| *pc == target_pc)
            .unwrap();
        (t_idx * ProgramClass::ALL.len() + pc_idx) * samples + target_k
    };
    let plan = FaultPlan::none().with_fault(
        Stage::Converter,
        program_fault_key(target_t, target_pc, target_k),
        FaultKind::Panic,
    );
    let clean = ladder_reports(&StudyConfig {
        threads: 1,
        ladder: true,
        ..StudyConfig::new(samples, 1979)
    });
    for threads in [1, 8] {
        let faulted = ladder_reports(&StudyConfig {
            threads,
            ladder: true,
            fault_plan: plan.clone(),
            ..StudyConfig::new(samples, 1979)
        });
        assert_eq!(clean.len(), faulted.len());
        for (i, (c, f)) in clean.iter().zip(&faulted).enumerate() {
            if i == target_idx {
                // The faulted program is served by a lower rung (or by
                // nobody), with the converter failures on record.
                assert!(f.rung > c.rung, "threads = {threads}");
                assert!(!f.fallbacks.is_empty(), "threads = {threads}");
                assert!(
                    f.fallbacks.iter().any(|fb| matches!(
                        fb.error,
                        PipelineError::Panic { .. } | PipelineError::Injected { .. }
                    )),
                    "threads = {threads}"
                );
            } else {
                assert_eq!(c, f, "report {i} changed (threads = {threads})");
            }
        }
    }
}

#[test]
fn seeded_probabilistic_faults_are_thread_count_invariant() {
    let make = |threads: usize| StudyConfig {
        threads,
        ladder: true,
        fault_plan: FaultPlan::seeded(0xFA17, 0.25),
        ..StudyConfig::new(1, 1979)
    };
    let reference_reports = ladder_reports(&make(1));
    let reference_matrix = success_rate_study_config(&make(1));
    // The plan really does fire somewhere at this probability.
    assert!(
        reference_reports.iter().any(|r| !r.fallbacks.is_empty()),
        "seeded plan injected nothing; the invariance check would be vacuous"
    );
    for threads in [2, 8] {
        assert_eq!(
            reference_reports,
            ladder_reports(&make(threads)),
            "ladder reports differ at {threads} threads"
        );
        let matrix = success_rate_study_config(&make(threads));
        assert_eq!(reference_matrix.rows, matrix.rows);
    }
}
