//! The strategy fallback ladder: the paper's §2 taxonomy as a degradation
//! path.
//!
//! §2 surveys four ways to convert an application program: full rewriting,
//! DML emulation, bridge programs, and manual conversion. The seed pipeline
//! implemented them as disconnected subsystems; this module connects them
//! into a supervised ladder that a production batch descends when a rung
//! fails:
//!
//! 1. **Full rewriting** — the Figure 4.1 pipeline, optimizer on;
//! 2. **Rewriting without the optimizer** — same rules, no §5.4 cleanup
//!    (isolates optimizer faults);
//! 3. **DML emulation** — the unmodified program over an
//!    [`Emulator`] view of the target database;
//! 4. **Bridge program** — [`dbpc_emulate::run_bridged`] with differential
//!    write-back (requires an invertible restructuring);
//! 5. **Manual** — [`Verdict::NeedsManualWork`], carrying the full account
//!    of why every automatic rung failed.
//!
//! Every rung attempt runs under `catch_unwind` with a bounded retry
//! budget, and every engine execution it triggers runs with an interpreter
//! fuel limit, so neither a panicking rule nor a looping generated program
//! can take down or hang a batch. A rung *serves* a program only if its
//! result is verified against the source program's ground-truth trace
//! (§1.1): strict equality for emulation and bridging, which claim exact
//! source semantics, and strict-or-predicted (§5.2 "warned") equivalence
//! for the rewriting rungs.
//!
//! Documented fault → rung mapping (asserted by `tests/fault_ladder.rs`):
//! a persistent analyzer, converter, or generator fault fails both
//! rewriting rungs, so **emulation** serves; an optimizer fault fails only
//! full rewriting, so **rewriting without the optimizer** serves; a
//! translation or verification fault fails every automatic rung, so the
//! program lands on **manual**.
//!
//! Stateful analysts: the two rewriting rungs each consult the analyst, so
//! a scripted analyst would see questions repeated across rungs. Use
//! stateless analysts (`AutoAnalyst`, `PermissiveAnalyst`) under the
//! ladder.

use crate::equivalence::{predicts_behavior_change, EquivalenceLevel};
use crate::report::{Analyst, ConversionReport, Verdict};
use crate::supervisor::fault::panic_payload;
use crate::supervisor::Supervisor;
use dbpc_datamodel::error::{PipelineError, PipelineResult, Stage};
use dbpc_datamodel::network::NetworkSchema;
use dbpc_dml::host::Program;
use dbpc_emulate::{run_bridged, Emulator, WriteBack};
use dbpc_engine::host_exec::run_host_with_fuel;
use dbpc_engine::{diff_traces, Inputs, RunError, Trace, DEFAULT_VERIFY_FUEL};
use dbpc_restructure::Restructuring;
use dbpc_storage::{NetworkDb, StatCatalog};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A rung of the §2 strategy ladder, in descent order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rung {
    /// Full rewriting (§2's "program conversion proper"; Figure 4.1).
    FullRewrite,
    /// Full rewriting with the §5.4 optimizer disabled.
    RewriteNoOptimizer,
    /// DML emulation: the unmodified program over an emulation layer.
    Emulation,
    /// Bridge program: reconstruct, run, write back differentially.
    Bridge,
    /// No automatic strategy served; a person takes over.
    Manual,
}

/// The automatic rungs, in the order the ladder descends them.
pub const LADDER: [Rung; 4] = [
    Rung::FullRewrite,
    Rung::RewriteNoOptimizer,
    Rung::Emulation,
    Rung::Bridge,
];

impl Rung {
    pub fn name(&self) -> &'static str {
        match self {
            Rung::FullRewrite => "full-rewrite",
            Rung::RewriteNoOptimizer => "rewrite-no-optimizer",
            Rung::Emulation => "emulation",
            Rung::Bridge => "bridge",
            Rung::Manual => "manual",
        }
    }
}

impl std::fmt::Display for Rung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why one rung failed to serve a program.
#[derive(Debug, Clone, PartialEq)]
pub struct RungFailure {
    pub rung: Rung,
    /// How many attempts the rung consumed (1 + retries actually used).
    pub attempts: usize,
    /// The last error observed on this rung.
    pub error: PipelineError,
}

/// Supervision parameters for a ladder descent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LadderConfig {
    /// Extra attempts per rung after the first (transient-fault budget).
    pub retries: usize,
    /// Interpreter fuel for every engine execution the ladder triggers.
    pub verify_fuel: usize,
}

impl Default for LadderConfig {
    fn default() -> Self {
        LadderConfig {
            retries: 1,
            verify_fuel: DEFAULT_VERIFY_FUEL,
        }
    }
}

/// The result of a ladder descent.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderOutcome {
    /// The serving rung's report ([`ConversionReport::rung`] names it;
    /// [`ConversionReport::fallbacks`] records every rung above it).
    pub report: ConversionReport,
    /// Verified equivalence level of the serving rung's execution, when
    /// one served (`None` on the manual rung).
    pub level: Option<EquivalenceLevel>,
    /// Total rung attempts consumed across the descent.
    pub attempts: usize,
}

/// Convert `program` by descending the strategy ladder, verifying each
/// rung's result against the source program's ground-truth trace on
/// `source_db` under `inputs`.
///
/// The ground-truth run executes **in place** on `source_db` inside a
/// savepoint that is rolled back afterwards, so mutating programs no
/// longer force a deep copy of the base; in debug builds the descent
/// asserts the base is bitwise-unchanged after the ground-truth run and
/// after every failed rung attempt — the invariant that makes the retry
/// budget sound (a rung retry must see the same base the first attempt
/// saw).
#[allow(clippy::too_many_arguments)]
pub fn run_ladder(
    supervisor: &Supervisor,
    cfg: &LadderConfig,
    source_schema: &NetworkSchema,
    restructuring: &Restructuring,
    program: &Program,
    key: u64,
    source_db: &mut NetworkDb,
    inputs: &Inputs,
    analyst: &mut dyn Analyst,
) -> LadderOutcome {
    let base_fp = if cfg!(debug_assertions) {
        source_db.fingerprint()
    } else {
        0
    };
    // Ground truth once per descent: the source program's observable trace
    // (§1.1), fuel-limited like every other supervised execution, run in
    // place and rolled back. If the source program itself cannot run, no
    // automatic strategy can be verified — straight to manual.
    let sp = source_db.begin_savepoint();
    let truth_result =
        run_host_with_fuel(&mut *source_db, program, inputs.clone(), cfg.verify_fuel);
    source_db.rollback_to(sp);
    if cfg!(debug_assertions) {
        debug_assert_eq!(
            source_db.fingerprint(),
            base_fp,
            "ground-truth run must leave the base unchanged"
        );
    }
    let truth = match truth_result {
        Ok(t) => t,
        Err(e) => {
            return LadderOutcome {
                report: manual_report(vec![RungFailure {
                    rung: Rung::FullRewrite,
                    attempts: 0,
                    error: run_error(Stage::Verification, e),
                }]),
                level: None,
                attempts: 0,
            };
        }
    };

    // Statistics consult: snapshot the source catalog once per descent.
    // It prices the strategy rungs against each other (emulation's
    // per-statement overhead vs the bridge's per-record reconstruction)
    // and feeds the rewrite rungs' advisory optimizer pass.
    let stats = StatCatalog::of_network(source_db);
    let order = rank_rungs(&stats, program);

    let mut fallbacks: Vec<RungFailure> = Vec::new();
    let mut total_attempts = 0usize;
    for rung in order {
        let mut attempts = 0usize;
        let mut last_err = PipelineError::stage(Stage::Converter, "rung not attempted");
        while attempts <= cfg.retries {
            let attempt = attempts;
            attempts += 1;
            total_attempts += 1;
            dbpc_obs::count("ladder.rung_attempts", 1);
            let outcome = dbpc_obs::span_with(
                format!("rung.{}", rung.name()),
                &[("attempt", &attempt.to_string())],
                || {
                    catch_unwind(AssertUnwindSafe(|| {
                        attempt_rung(
                            supervisor,
                            cfg,
                            rung,
                            source_schema,
                            restructuring,
                            program,
                            key,
                            attempt,
                            &*source_db,
                            &stats,
                            &truth,
                            inputs,
                            &mut *analyst,
                        )
                    }))
                },
            );
            if cfg!(debug_assertions) {
                debug_assert_eq!(
                    source_db.fingerprint(),
                    base_fp,
                    "rung {rung} attempt {attempt} must leave the base unchanged"
                );
            }
            match outcome {
                Ok(Ok((mut report, level))) => {
                    report.rung = rung;
                    report.fallbacks = fallbacks;
                    return LadderOutcome {
                        report,
                        level: Some(level),
                        attempts: total_attempts,
                    };
                }
                Ok(Err(e)) => {
                    let retry = retryable(&e);
                    last_err = e;
                    if !retry {
                        break;
                    }
                }
                Err(payload) => {
                    // Panics are retryable — the transient-fault case the
                    // retry budget exists for.
                    last_err = PipelineError::Panic {
                        detail: panic_payload(payload),
                    };
                }
            }
        }
        fallbacks.push(RungFailure {
            rung,
            attempts,
            error: last_err,
        });
    }

    LadderOutcome {
        report: manual_report(fallbacks),
        level: None,
        attempts: total_attempts,
    }
}

/// Whether a failed attempt is worth spending retry budget on. Injected
/// faults model transient infrastructure failures, and a lock-table
/// timeout is scheduling luck (the conflicting session usually finishes
/// before the retry) — everything else in this pipeline is deterministic,
/// so retrying would only reproduce the same error.
pub(crate) fn retryable(e: &PipelineError) -> bool {
    matches!(
        e,
        PipelineError::Injected { .. } | PipelineError::LockTimeout { .. }
    )
}

/// Order the automatic rungs for one descent from catalog statistics.
///
/// The two rewriting rungs always lead — a verified rewrite is the §2
/// gold standard. Between the strategy rungs the catalog prices what each
/// pays per run: emulation re-evaluates every DML operation against the
/// source structure (≈ 4·log₂R work per statement for its per-call
/// re-sorting), while a bridge reconstructs the source database and
/// writes back differentially (≈ 2R + P). Emulation stays first unless
/// its estimate exceeds **twice** the bridge's — a deliberate hysteresis
/// band, since emulation needs no invertibility precondition.
fn rank_rungs(stats: &StatCatalog, program: &Program) -> [Rung; 4] {
    let records = stats.total_records().max(1);
    let mut stmts = 0u64;
    program.visit_stmts(&mut |_| stmts += 1);
    let stmts = stmts.max(1);
    let log2r = u64::from(64 - records.leading_zeros()); // ⌈log₂(R+1)⌉
    let est_emulation = stmts * 4 * log2r;
    let est_bridge = 2 * records + stmts;
    let swap = est_emulation > 2 * est_bridge;
    dbpc_obs::count("ladder.plan_consults", 1);
    if dbpc_obs::in_capture() {
        dbpc_obs::event_with(
            "ladder.plan",
            &[
                ("est_emulation", &est_emulation.to_string()),
                ("est_bridge", &est_bridge.to_string()),
                ("first_strategy", if swap { "bridge" } else { "emulation" }),
            ],
        );
    }
    if swap {
        [
            Rung::FullRewrite,
            Rung::RewriteNoOptimizer,
            Rung::Bridge,
            Rung::Emulation,
        ]
    } else {
        LADDER
    }
}

/// One attempt at one rung. Errors are rung-local: the caller decides
/// whether to retry or descend.
#[allow(clippy::too_many_arguments)]
fn attempt_rung(
    supervisor: &Supervisor,
    cfg: &LadderConfig,
    rung: Rung,
    source_schema: &NetworkSchema,
    restructuring: &Restructuring,
    program: &Program,
    key: u64,
    attempt: usize,
    source_db: &NetworkDb,
    stats: &StatCatalog,
    truth: &Trace,
    inputs: &Inputs,
    analyst: &mut dyn Analyst,
) -> PipelineResult<(ConversionReport, EquivalenceLevel)> {
    let fault = &supervisor.fault;
    match rung {
        Rung::FullRewrite | Rung::RewriteNoOptimizer => {
            let sup = Supervisor {
                optimize: rung == Rung::FullRewrite,
                plan_stats: Some(stats.clone()),
                ..supervisor.clone()
            };
            let report =
                sup.convert_attempt(source_schema, restructuring, program, analyst, key, attempt)?;
            if !report.succeeded() {
                return Err(PipelineError::stage(
                    Stage::Converter,
                    format!("rewriting ended with verdict {:?}", report.verdict),
                ));
            }
            let Some(converted) = report.program.as_ref() else {
                return Err(PipelineError::stage(
                    Stage::Generator,
                    "no converted program emitted",
                ));
            };
            let mut target = translate(fault, restructuring, source_db, key, attempt)?;
            let level = dbpc_obs::span(Stage::Verification.span_name(), || {
                fault.trip(Stage::Verification, key, attempt)?;
                let trace =
                    run_host_with_fuel(&mut target, converted, inputs.clone(), cfg.verify_fuel)
                        .map_err(|e| run_error(Stage::Verification, e))?;
                match diff_traces(truth, &trace) {
                    None => Ok(EquivalenceLevel::Strict),
                    Some(_) if report.warnings.iter().any(predicts_behavior_change) => {
                        Ok(EquivalenceLevel::Warned)
                    }
                    Some(d) => Err(PipelineError::stage(
                        Stage::Verification,
                        format!("trace divergence: {d}"),
                    )),
                }
            })?;
            Ok((report, level))
        }
        Rung::Emulation => {
            let target = translate(fault, restructuring, source_db, key, attempt)?;
            let mut emu = Emulator::over(target, source_schema, restructuring)
                .map_err(|e| PipelineError::stage(Stage::Converter, format!("emulation: {e}")))?;
            dbpc_obs::span(Stage::Verification.span_name(), || {
                fault.trip(Stage::Verification, key, attempt)?;
                let trace = run_host_with_fuel(&mut emu, program, inputs.clone(), cfg.verify_fuel)
                    .map_err(|e| run_error(Stage::Verification, e))?;
                match diff_traces(truth, &trace) {
                    None => Ok((strategy_report(), EquivalenceLevel::Strict)),
                    Some(d) => Err(PipelineError::stage(
                        Stage::Verification,
                        format!("emulation trace divergence: {d}"),
                    )),
                }
            })
        }
        Rung::Bridge => {
            let target = translate(fault, restructuring, source_db, key, attempt)?;
            dbpc_obs::span(Stage::Verification.span_name(), || {
                fault.trip(Stage::Verification, key, attempt)?;
                let run = run_bridged(
                    target,
                    source_schema,
                    restructuring,
                    program,
                    inputs.clone(),
                    WriteBack::Differential,
                )
                .map_err(|e| run_error(Stage::Converter, e))?;
                match diff_traces(truth, &run.trace) {
                    None => Ok((strategy_report(), EquivalenceLevel::Strict)),
                    Some(d) => Err(PipelineError::stage(
                        Stage::Verification,
                        format!("bridge trace divergence: {d}"),
                    )),
                }
            })
        }
        Rung::Manual => Err(PipelineError::stage(
            Stage::Converter,
            "manual rung is terminal, not attempted",
        )),
    }
}

/// Translate the source database for one rung attempt, under the
/// translation-stage fault point.
fn translate(
    fault: &crate::supervisor::fault::FaultPlan,
    restructuring: &Restructuring,
    source_db: &NetworkDb,
    key: u64,
    attempt: usize,
) -> PipelineResult<NetworkDb> {
    dbpc_obs::span(Stage::Translation.span_name(), || {
        fault.trip(Stage::Translation, key, attempt)?;
        restructuring
            .translate(source_db)
            .map_err(|e| PipelineError::stage(Stage::Translation, e))
    })
}

/// Report for a verified strategy rung (emulation/bridge): the *original*
/// program serves, so there is no converted program or generated text.
fn strategy_report() -> ConversionReport {
    ConversionReport {
        verdict: Verdict::Converted,
        program: None,
        text: None,
        warnings: Vec::new(),
        questions: Vec::new(),
        rung: Rung::FullRewrite, // overwritten by the caller
        fallbacks: Vec::new(),
        run_report: None,
    }
}

/// Terminal report: every automatic rung failed.
fn manual_report(fallbacks: Vec<RungFailure>) -> ConversionReport {
    ConversionReport {
        verdict: Verdict::NeedsManualWork,
        program: None,
        text: None,
        warnings: Vec::new(),
        questions: Vec::new(),
        rung: Rung::Manual,
        fallbacks,
        run_report: None,
    }
}

/// Fold an engine error into the pipeline error space.
fn run_error(stage: Stage, e: RunError) -> PipelineError {
    match e {
        RunError::StepLimit => PipelineError::FuelExhausted { stage },
        other => PipelineError::stage(stage, other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpc_dml::host::parse_program;
    use dbpc_storage::statcat::TypeStats;

    fn catalog(records: u64) -> StatCatalog {
        StatCatalog {
            types: vec![TypeStats {
                name: "R".into(),
                cardinality: records,
            }],
            ..StatCatalog::default()
        }
    }

    fn program(prints: usize) -> dbpc_dml::host::Program {
        let body: String = (0..prints).map(|i| format!("  PRINT {i};\n")).collect();
        parse_program(&format!("PROGRAM P;\n{body}END PROGRAM;")).unwrap()
    }

    #[test]
    fn small_program_on_large_db_keeps_emulation_first() {
        // Emulation's log-factor beats the bridge's full reconstruction.
        let order = rank_rungs(&catalog(10_000), &program(2));
        assert_eq!(order, LADDER);
    }

    #[test]
    fn large_program_on_small_db_promotes_bridge() {
        // 100 statements × 4·log₂(4) ≫ 2·(2·4 + 100): reconstructing a
        // 4-record base is cheaper than emulating every statement.
        let order = rank_rungs(&catalog(4), &program(100));
        assert_eq!(order[2], Rung::Bridge);
        assert_eq!(order[3], Rung::Emulation);
        assert_eq!(&order[..2], &LADDER[..2], "rewrite rungs always lead");
    }
}
