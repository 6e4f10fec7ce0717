//! The Program Conversion Supervisor (Figure 4.1's conversion program
//! manager).
//!
//! "During the entire program conversion process, a monitor program, the
//! conversion program manager, oversees the operation of the other modules.
//! We expect that an interactive system would be most successful in
//! resolving issues of database integrity and application program
//! requirements."
//!
//! The pipeline:
//!
//! 1. **Conversion Analyzer** ([`crate::mapping`]) validates the declared
//!    schemas/restructuring triple;
//! 2. **Program Analyzer** (dbpc-analyzer) surfaces §3.2 hazards — a
//!    run-time-variable DML verb is raised to the analyst immediately;
//! 3. **Program Converter** ([`crate::rules`]) applies one rule family per
//!    transform, threading the program through the schema snapshots;
//! 4. every [`Question`] is put to the [`Analyst`]; a rejection ends the
//!    conversion, an approval downgrades the verdict to
//!    [`Verdict::NeedsManualWork`];
//! 5. the **Optimizer** (optional) cleans up;
//! 6. the **Program Generator** emits target text.
//!
//! Supervision proper lives in two submodules: [`fault`] injects
//! deterministic, seeded failures at stage boundaries so robustness is
//! testable, and [`ladder`] descends the paper's §2 strategy taxonomy
//! (rewriting → emulation → bridge → manual) when a stage fails. The batch
//! entry points below are panic-safe: a crash converting one program
//! yields a [`Verdict::Poisoned`] report for that program, never a dead
//! batch.

pub mod fault;
pub mod ladder;

use crate::mapping::Mapping;
use crate::report::{Analyst, Answer, ConversionReport, Question, Verdict, Warning};
use crate::rules::{convert_step, FreshNames};
use crate::supervisor::fault::FaultPlan;
use crate::supervisor::ladder::{Rung, RungFailure};
use dbpc_analyzer::apg::AccessPathGraph;
use dbpc_analyzer::dataflow::{analyze_host, Hazard};
use dbpc_datamodel::error::{ModelError, ModelResult, PipelineError, PipelineResult, Stage};
use dbpc_datamodel::network::NetworkSchema;
use dbpc_dml::host::Program;
use dbpc_restructure::Restructuring;
use dbpc_storage::pool::panic_payload;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Configuration of a conversion run.
#[derive(Debug, Clone)]
pub struct Supervisor {
    /// Run the optimizer after conversion (§5.4).
    pub optimize: bool,
    /// Fault-injection plan for robustness studies. The default
    /// ([`FaultPlan::none`]) is idle and leaves every code path
    /// byte-identical to an unsupervised run.
    pub fault: FaultPlan,
    /// Statistics of the source database, when the caller has them (the
    /// fallback ladder snapshots a
    /// [`StatCatalog`](dbpc_storage::StatCatalog) before converting).
    /// Feeds the optimizer's advisory plan pass; `None` (the default)
    /// leaves the optimizer byte-identical to the stats-blind pipeline.
    pub plan_stats: Option<dbpc_storage::StatCatalog>,
}

impl Default for Supervisor {
    fn default() -> Self {
        Supervisor {
            optimize: true,
            fault: FaultPlan::none(),
            plan_stats: None,
        }
    }
}

impl Supervisor {
    pub fn new() -> Supervisor {
        Supervisor::default()
    }

    pub fn without_optimizer() -> Supervisor {
        Supervisor {
            optimize: false,
            ..Supervisor::default()
        }
    }

    /// Convert one program under a restructuring, consulting `analyst` for
    /// every question. The target schema is derived from the restructuring.
    pub fn convert(
        &self,
        source_schema: &NetworkSchema,
        restructuring: &Restructuring,
        program: &Program,
        analyst: &mut dyn Analyst,
    ) -> ModelResult<ConversionReport> {
        let mut reports = self.convert_batch(
            source_schema,
            restructuring,
            std::slice::from_ref(program),
            analyst,
        )?;
        reports
            .pop()
            .ok_or_else(|| ModelError::invalid("batch conversion returned no report"))
    }

    /// One *supervised* conversion attempt, identified by a stable work-item
    /// `key` and an `attempt` ordinal: the unit the fallback ladder retries.
    /// The fault plan is consulted at every stage boundary; an injected
    /// error surfaces as `Err`, an injected panic unwinds (the ladder's
    /// `catch_unwind` catches it).
    pub fn convert_attempt(
        &self,
        source_schema: &NetworkSchema,
        restructuring: &Restructuring,
        program: &Program,
        analyst: &mut dyn Analyst,
        key: u64,
        attempt: usize,
    ) -> PipelineResult<ConversionReport> {
        let mapping = Mapping::from_restructuring(source_schema, restructuring)?;
        let apg = AccessPathGraph::new(&mapping.target);
        self.convert_one(
            &mapping,
            &apg,
            source_schema,
            program,
            analyst,
            key,
            attempt,
        )
    }

    /// Convert a batch of programs under one restructuring.
    ///
    /// The schema-level work — validating the triple and deriving the
    /// per-step schema snapshots ([`Mapping::from_restructuring`]) — is done
    /// once for the whole batch instead of once per program; it depends only
    /// on `(source_schema, restructuring)`, so every program sees the exact
    /// mapping a solo [`Supervisor::convert`] would have built. Per-program
    /// verdicts are unchanged: the mapping is the only fallible step, so an
    /// `Err` here is an `Err` for each program individually too.
    pub fn convert_batch(
        &self,
        source_schema: &NetworkSchema,
        restructuring: &Restructuring,
        programs: &[Program],
        analyst: &mut dyn Analyst,
    ) -> ModelResult<Vec<ConversionReport>> {
        let keys: Vec<u64> = (0..programs.len() as u64).collect();
        self.convert_batch_keyed(source_schema, restructuring, programs, &keys, analyst)
    }

    /// [`Supervisor::convert_batch`] with caller-chosen fault keys: study
    /// harnesses key each program by its stable corpus coordinates, so a
    /// `FaultPlan` hits the same program at any thread count or batch
    /// split. Each program is converted under `catch_unwind`: a panic
    /// yields a [`Verdict::Poisoned`] report and a pipeline error yields a
    /// [`Verdict::Rejected`] report (with the error recorded in
    /// `fallbacks`), so one bad program can never abort the batch.
    pub fn convert_batch_keyed(
        &self,
        source_schema: &NetworkSchema,
        restructuring: &Restructuring,
        programs: &[Program],
        keys: &[u64],
        analyst: &mut dyn Analyst,
    ) -> ModelResult<Vec<ConversionReport>> {
        if programs.len() != keys.len() {
            return Err(ModelError::invalid(format!(
                "batch of {} programs given {} fault keys",
                programs.len(),
                keys.len()
            )));
        }
        let mapping = Mapping::from_restructuring(source_schema, restructuring)?;
        // The target access-path graph used by the alternate-path audit
        // depends only on the target schema, so build it once for the whole
        // batch.
        let apg = AccessPathGraph::new(&mapping.target);
        let mut reports = Vec::with_capacity(programs.len());
        for (p, &key) in programs.iter().zip(keys) {
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                self.convert_one(&mapping, &apg, source_schema, p, analyst, key, 0)
            }));
            reports.push(match attempt {
                Ok(Ok(report)) => report,
                Ok(Err(error)) => failure_report(Verdict::Rejected, error),
                Err(payload) => failure_report(
                    Verdict::Poisoned,
                    PipelineError::Panic {
                        detail: panic_payload(payload),
                    },
                ),
            });
        }
        Ok(reports)
    }

    /// [`Supervisor::convert`] with structured observability: the returned
    /// report's `run_report` carries the span tree (every `Stage` boundary
    /// under one logical clock) and the metrics recorded while converting.
    pub fn convert_traced(
        &self,
        source_schema: &NetworkSchema,
        restructuring: &Restructuring,
        program: &Program,
        analyst: &mut dyn Analyst,
    ) -> ModelResult<ConversionReport> {
        let mark = dbpc_obs::local_mark();
        let (outcome, cap) = dbpc_obs::capture("convert", || {
            self.convert(source_schema, restructuring, program, analyst)
        });
        let mut registry = dbpc_obs::MetricsRegistry::new();
        registry.absorb(&mark.delta());
        let mut report = outcome?;
        report.run_report = Some(Box::new(dbpc_obs::RunReport::assemble(
            "convert",
            vec![cap],
            registry,
        )));
        Ok(report)
    }

    /// One supervised conversion attempt against *pre-built* schema-level
    /// state: the [`Mapping`] and the target [`AccessPathGraph`].
    /// [`Supervisor::convert_batch_keyed`] builds them once per batch and
    /// the conversion service once per registered context, then both
    /// replay them for every program. Outcomes are
    /// identical to [`Supervisor::convert_attempt`]; only the per-program
    /// setup cost differs.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn convert_one(
        &self,
        mapping: &Mapping,
        apg: &AccessPathGraph,
        source_schema: &NetworkSchema,
        program: &Program,
        analyst: &mut dyn Analyst,
        key: u64,
        attempt: usize,
    ) -> PipelineResult<ConversionReport> {
        dbpc_obs::span_with(
            "convert.program",
            &[("key", &key.to_string()), ("attempt", &attempt.to_string())],
            || self.convert_one_inner(mapping, apg, source_schema, program, analyst, key, attempt),
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn convert_one_inner(
        &self,
        mapping: &Mapping,
        apg: &AccessPathGraph,
        source_schema: &NetworkSchema,
        program: &Program,
        analyst: &mut dyn Analyst,
        key: u64,
        attempt: usize,
    ) -> PipelineResult<ConversionReport> {
        let mut warnings: Vec<Warning> = Vec::new();
        let mut questions: Vec<(Question, Answer)> = Vec::new();
        let mut needs_manual = false;
        let mut rejected = false;

        // Program analysis: execution-time variability blocks automation
        // before any rewriting is attempted (§3.2).
        dbpc_obs::span(Stage::Analyzer.span_name(), || -> PipelineResult<()> {
            self.fault.trip(Stage::Analyzer, key, attempt)?;
            dbpc_obs::count("convert.programs_analyzed", 1);
            let analysis = analyze_host(program, source_schema);
            for h in &analysis.hazards {
                if let Hazard::RuntimeVariableVerb { .. } = h {
                    let q = Question::RuntimeVariability { hazard: h.clone() };
                    let a = analyst.resolve(&q);
                    match a {
                        Answer::Proceed => needs_manual = true,
                        Answer::Reject => rejected = true,
                    }
                    questions.push((q, a));
                }
            }
            Ok(())
        })?;

        // Per-transform rewriting against the pre-step schema snapshots.
        let mut current = program.clone();
        let mut fresh = FreshNames::default();
        dbpc_obs::span(Stage::Converter.span_name(), || -> PipelineResult<()> {
            self.fault.trip(Stage::Converter, key, attempt)?;
            if !rejected {
                for (i, t) in mapping.restructuring.transforms.iter().enumerate() {
                    let outcome = convert_step(&current, &mapping.snapshots[i], t, &mut fresh);
                    current = outcome.program;
                    warnings.extend(outcome.warnings);
                    for q in outcome.questions {
                        let a = analyst.resolve(&q);
                        match a {
                            Answer::Proceed => {
                                // §5.2: an approved integrity tightening is a
                                // *desired* behavior change ("the application
                                // requirements have changed"), not unfinished
                                // work — record it as a predicted change.
                                if let Question::InsertionTightened { record, set } = &q {
                                    warnings.push(Warning::IntegrityTightened {
                                        detail: format!(
                                            "STORE {record} now requires membership in {set}                                          (behavior change approved by analyst)"
                                        ),
                                    });
                                } else if let Question::RetentionTightened { set } = &q {
                                    warnings.push(Warning::IntegrityTightened {
                                        detail: format!(
                                            "DISCONNECT from {set} now forbidden                                          (behavior change approved by analyst)"
                                        ),
                                    });
                                } else {
                                    needs_manual = true;
                                }
                            }
                            Answer::Reject => rejected = true,
                        }
                        questions.push((q, a));
                    }
                    if rejected {
                        break;
                    }
                }
            }

            // Alternate-path audit: "if … multiple data paths can be found to
            // carry out an access then these issues can be resolved
            // interactively" (§4). Each converted hop whose (source, target)
            // pair is realized by more than one set in the target schema is
            // put to the analyst once.
            if !rejected {
                for q in ambiguous_paths(&current, apg) {
                    let a = analyst.resolve(&q);
                    match a {
                        Answer::Proceed => {}
                        Answer::Reject => rejected = true,
                    }
                    questions.push((q, a));
                    if rejected {
                        break;
                    }
                }
            }
            Ok(())
        })?;

        if rejected {
            dbpc_obs::count("convert.rejections", 1);
            return Ok(ConversionReport {
                verdict: Verdict::Rejected,
                program: None,
                text: None,
                warnings,
                questions,
                rung: Rung::FullRewrite,
                fallbacks: Vec::new(),
                run_report: None,
            });
        }

        if self.optimize {
            dbpc_obs::span(Stage::Optimizer.span_name(), || -> PipelineResult<()> {
                self.fault.trip(Stage::Optimizer, key, attempt)?;
                let (optimized, opt_warnings) = crate::optimizer::optimize_with_stats(
                    &current,
                    &mapping.target,
                    self.plan_stats.as_ref(),
                );
                current = optimized;
                warnings.extend(opt_warnings);
                Ok(())
            })?;
        }

        // Advisory warnings (plan advice) report access-path opportunities,
        // not behavior differences: they never demote the verdict.
        let verdict = if needs_manual {
            Verdict::NeedsManualWork
        } else if warnings.iter().all(Warning::is_advisory) {
            Verdict::Converted
        } else {
            Verdict::ConvertedWithWarnings
        };
        let text = dbpc_obs::span(
            Stage::Generator.span_name(),
            || -> PipelineResult<String> {
                self.fault.trip(Stage::Generator, key, attempt)?;
                Ok(crate::generator::generate_host(&current))
            },
        )?;
        dbpc_obs::count("convert.programs_converted", 1);
        Ok(ConversionReport {
            verdict,
            program: Some(current),
            text: Some(text),
            warnings,
            questions,
            rung: Rung::FullRewrite,
            fallbacks: Vec::new(),
            run_report: None,
        })
    }
}

/// A batch slot's report when supervision, not judgment, ended the
/// conversion: a typed pipeline error ([`Verdict::Rejected`]) or a caught
/// panic ([`Verdict::Poisoned`]).
pub fn failure_report(verdict: Verdict, error: PipelineError) -> ConversionReport {
    ConversionReport {
        verdict,
        program: None,
        text: None,
        warnings: Vec::new(),
        questions: Vec::new(),
        rung: Rung::FullRewrite,
        fallbacks: vec![RungFailure {
            rung: Rung::FullRewrite,
            attempts: 1,
            error,
        }],
        run_report: None,
    }
}

/// Find converted path hops with more than one minimal realization in the
/// target schema, using its (batch-shared) access-path graph.
fn ambiguous_paths(program: &Program, apg: &AccessPathGraph) -> Vec<Question> {
    use dbpc_dml::host::PathStart;
    let mut seen: Vec<(String, String)> = Vec::new();
    let mut questions = Vec::new();
    for find in program.finds() {
        let spec = find.spec();
        let mut prev: Option<String> = match &spec.start {
            PathStart::System => None,
            PathStart::Collection(_) => None,
        };
        for step in &spec.steps {
            if let Some(from) = &prev {
                let pair = (from.clone(), step.record.clone());
                if !seen.contains(&pair) && apg.is_ambiguous(from, &step.record, 1) {
                    let candidates: Vec<String> = apg
                        .paths(from, &step.record, 1)
                        .into_iter()
                        .map(|p| p.describe())
                        .collect();
                    questions.push(Question::AmbiguousPath {
                        from: from.clone(),
                        to: step.record.clone(),
                        candidates,
                    });
                    seen.push(pair);
                }
            }
            prev = Some(step.record.clone());
        }
    }
    questions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{AutoAnalyst, PermissiveAnalyst};
    use dbpc_datamodel::network::{FieldDef, RecordTypeDef, SetDef};
    use dbpc_datamodel::types::FieldType;
    use dbpc_dml::host::parse_program;
    use dbpc_restructure::Transform;

    fn company_schema() -> NetworkSchema {
        NetworkSchema::new("COMPANY-NAME")
            .with_record(RecordTypeDef::new(
                "DIV",
                vec![
                    FieldDef::new("DIV-NAME", FieldType::Char(20)),
                    FieldDef::new("DIV-LOC", FieldType::Char(10)),
                ],
            ))
            .with_record(RecordTypeDef::new(
                "EMP",
                vec![
                    FieldDef::new("EMP-NAME", FieldType::Char(25)),
                    FieldDef::new("DEPT-NAME", FieldType::Char(5)),
                    FieldDef::new("AGE", FieldType::Int(2)),
                ],
            ))
            .with_set(SetDef::system("ALL-DIV", "DIV", vec!["DIV-NAME"]))
            .with_set(SetDef::owned("DIV-EMP", "DIV", "EMP", vec!["EMP-NAME"]))
    }

    fn fig_4_4() -> Restructuring {
        Restructuring::single(Transform::PromoteFieldToOwner {
            record: "EMP".into(),
            field: "DEPT-NAME".into(),
            via_set: "DIV-EMP".into(),
            new_record: "DEPT".into(),
            upper_set: "DIV-DEPT".into(),
            lower_set: "DEPT-EMP".into(),
        })
    }

    #[test]
    fn clean_program_converts_automatically() {
        let p = parse_program(
            "PROGRAM P;
  FIND E := FIND(EMP: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'MACHINERY'), DIV-EMP, EMP(DEPT-NAME = 'SALES'));
  FOR EACH R IN E DO
    PRINT R.EMP-NAME;
  END FOR;
END PROGRAM;",
        )
        .unwrap();
        let report = Supervisor::new()
            .convert(&company_schema(), &fig_4_4(), &p, &mut AutoAnalyst)
            .unwrap();
        assert!(report.succeeded());
        let text = report.text.unwrap();
        assert!(text.contains("DIV-DEPT, DEPT(DEPT-NAME = 'SALES'), DEPT-EMP, EMP"));
    }

    #[test]
    fn optimizer_removes_conservative_sort() {
        let p = parse_program(
            "PROGRAM P;
  FIND E := FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 30));
END PROGRAM;",
        )
        .unwrap();
        // Without the optimizer: the rules wrap a SORT (paper example 1).
        let r1 = Supervisor::without_optimizer()
            .convert(&company_schema(), &fig_4_4(), &p, &mut AutoAnalyst)
            .unwrap();
        assert!(r1.text.unwrap().contains("SORT("));
        // With the optimizer: the SORT is provably redundant (DEPT-EMP is
        // keyed on EMP-NAME) and vanishes — but the dead-FIND pass removes
        // the unused retrieval first, so use the result.
        let p2 = parse_program(
            "PROGRAM P;
  FIND E := FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 30));
  FOR EACH R IN E DO
    PRINT R.EMP-NAME;
  END FOR;
END PROGRAM;",
        )
        .unwrap();
        let r2 = Supervisor::new()
            .convert(&company_schema(), &fig_4_4(), &p2, &mut AutoAnalyst)
            .unwrap();
        let text = r2.text.unwrap();
        assert!(!text.contains("SORT("));
        assert!(text.contains("DIV-DEPT, DEPT, DEPT-EMP, EMP(AGE > 30)"));
    }

    #[test]
    fn runtime_verb_rejected_by_auto_analyst() {
        let p = parse_program(
            "PROGRAM P;
  READ TERMINAL INTO V;
  CALL DML V ON EMP;
END PROGRAM;",
        )
        .unwrap();
        let report = Supervisor::new()
            .convert(&company_schema(), &fig_4_4(), &p, &mut AutoAnalyst)
            .unwrap();
        assert_eq!(report.verdict, Verdict::Rejected);
        assert!(report.program.is_none());
    }

    #[test]
    fn permissive_analyst_downgrades_to_manual() {
        let p = parse_program(
            "PROGRAM P;
  READ TERMINAL INTO V;
  CALL DML V ON EMP;
END PROGRAM;",
        )
        .unwrap();
        let report = Supervisor::new()
            .convert(&company_schema(), &fig_4_4(), &p, &mut PermissiveAnalyst)
            .unwrap();
        assert_eq!(report.verdict, Verdict::NeedsManualWork);
        assert!(report.program.is_some());
    }

    #[test]
    fn multi_step_restructuring_threads_snapshots() {
        let r = Restructuring::new(vec![
            Transform::RenameField {
                record: "EMP".into(),
                old: "AGE".into(),
                new: "YEARS".into(),
            },
            Transform::RenameRecord {
                old: "EMP".into(),
                new: "WORKER".into(),
            },
        ]);
        let p = parse_program(
            "PROGRAM P;
  FIND E := FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 30));
  FOR EACH R IN E DO
    PRINT R.AGE;
  END FOR;
END PROGRAM;",
        )
        .unwrap();
        let report = Supervisor::new()
            .convert(&company_schema(), &r, &p, &mut AutoAnalyst)
            .unwrap();
        let text = report.text.unwrap();
        assert!(text.contains("WORKER(YEARS > 30)"));
        assert!(text.contains("R.YEARS"));
    }

    #[test]
    fn ambiguous_path_raised_for_parallel_sets() {
        // Two sets between DIV and EMP: the access is genuinely ambiguous
        // in the target schema (§4's interactive-resolution case).
        let schema = NetworkSchema::new("P")
            .with_record(RecordTypeDef::new(
                "DIV",
                vec![FieldDef::new("DIV-NAME", FieldType::Char(20))],
            ))
            .with_record(RecordTypeDef::new(
                "EMP",
                vec![FieldDef::new("EMP-NAME", FieldType::Char(25))],
            ))
            .with_set(SetDef::system("ALL-DIV", "DIV", vec!["DIV-NAME"]))
            .with_set(SetDef::owned(
                "CURRENT-STAFF",
                "DIV",
                "EMP",
                vec!["EMP-NAME"],
            ))
            .with_set(
                SetDef::owned("ALUMNI", "DIV", "EMP", vec!["EMP-NAME"])
                    .with_insertion(dbpc_datamodel::network::Insertion::Manual),
            );
        let r = Restructuring::single(Transform::RenameField {
            record: "EMP".into(),
            old: "EMP-NAME".into(),
            new: "NAME".into(),
        });
        let p = parse_program(
            "PROGRAM P;
  FIND E := FIND(EMP: SYSTEM, ALL-DIV, DIV, CURRENT-STAFF, EMP);
  PRINT COUNT(E);
END PROGRAM;",
        )
        .unwrap();
        // Fully automatic mode rejects on the ambiguity question.
        let auto = Supervisor::new()
            .convert(&schema, &r, &p, &mut AutoAnalyst)
            .unwrap();
        assert_eq!(auto.verdict, Verdict::Rejected);
        assert!(auto
            .questions
            .iter()
            .any(|(q, _)| matches!(q, crate::report::Question::AmbiguousPath { .. })));
        // A human confirming the set choice lets it through.
        let ok = Supervisor::new()
            .convert(&schema, &r, &p, &mut PermissiveAnalyst)
            .unwrap();
        assert!(ok.program.is_some());
    }

    #[test]
    fn batch_conversion_matches_per_program_conversion() {
        let programs: Vec<Program> = [
            "PROGRAM P1;
  FIND E := FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 30));
  FOR EACH R IN E DO
    PRINT R.EMP-NAME;
  END FOR;
END PROGRAM;",
            "PROGRAM P2;
  READ TERMINAL INTO V;
  CALL DML V ON EMP;
END PROGRAM;",
            "PROGRAM P3;
  FIND E := FIND(EMP: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'MACHINERY'), DIV-EMP, EMP);
  PRINT COUNT(E);
END PROGRAM;",
        ]
        .iter()
        .map(|s| parse_program(s).unwrap())
        .collect();
        let sup = Supervisor::new();
        let batch = sup
            .convert_batch(&company_schema(), &fig_4_4(), &programs, &mut AutoAnalyst)
            .unwrap();
        assert_eq!(batch.len(), programs.len());
        for (p, batched) in programs.iter().zip(&batch) {
            let solo = sup
                .convert(&company_schema(), &fig_4_4(), p, &mut AutoAnalyst)
                .unwrap();
            assert_eq!(batched.verdict, solo.verdict);
            assert_eq!(batched.text, solo.text);
            assert_eq!(batched.warnings, solo.warnings);
        }
        // The mix exercises both outcomes.
        assert!(batch.iter().any(|r| r.succeeded()));
        assert!(batch.iter().any(|r| r.verdict == Verdict::Rejected));
    }

    #[test]
    fn empty_batch_is_fine() {
        let batch = Supervisor::new()
            .convert_batch(&company_schema(), &fig_4_4(), &[], &mut AutoAnalyst)
            .unwrap();
        assert!(batch.is_empty());
    }

    #[test]
    fn verdict_reflects_warnings() {
        let r = Restructuring::single(Transform::ChangeSetKeys {
            set: "DIV-EMP".into(),
            keys: vec!["AGE".into()],
        });
        let p = parse_program(
            "PROGRAM P;
  FIND E := FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP);
  FOR EACH R IN E DO
    PRINT R.EMP-NAME;
  END FOR;
END PROGRAM;",
        )
        .unwrap();
        let report = Supervisor::without_optimizer()
            .convert(&company_schema(), &r, &p, &mut AutoAnalyst)
            .unwrap();
        assert_eq!(report.verdict, Verdict::ConvertedWithWarnings);
        assert!(report.text.unwrap().contains("ON (EMP-NAME)"));
    }
}
