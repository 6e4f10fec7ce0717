//! Study harnesses: the success-rate matrix (experiment E2) and the
//! conversion cost model (experiment E9).
//!
//! §2.1.1 reports that 1970s computer-aided converters "achieve a 65-70
//! percent success rate (sometimes higher) … When a conversion cannot be
//! done, often the software tool will mark the portion of the program that
//! failed, and then the conversion is completed by hand." The study
//! measures our framework the same way: over a corpus stratified by program
//! feature × restructuring class, what fraction converts fully
//! automatically, what fraction converts with warnings, what needs a human,
//! and what is rejected — and, for everything converted, whether the result
//! actually **runs equivalently** (the §1.1 criterion, checked by
//! execution, not by assumption).

use crate::gen::{generate_program, ProgramClass, TransformClass};
use crate::named::company_db;
use crate::pool;
use dbpc_convert::equivalence::{check_equivalence, judge_equivalence, EquivalenceLevel};
use dbpc_convert::report::{Analyst, AutoAnalyst, ConversionReport, PermissiveAnalyst};
use dbpc_convert::supervisor::failure_report;
use dbpc_convert::{run_ladder, FaultPlan, Supervisor, Verdict};
use dbpc_datamodel::error::PipelineError;
use dbpc_datamodel::network::NetworkSchema;
use dbpc_dml::host::Program;
use dbpc_engine::host_exec::run_host;
use dbpc_engine::{Inputs, RunError, Trace};
use dbpc_obs::{MetricsFrame, MetricsRegistry, RunReport};
use dbpc_storage::{NetworkDb, StatCatalog};
use std::fmt;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

// Study-level metric names (the `study.*` slice of the merged frame; see
// DESIGN.md for the old-field → metric-name migration table). Counters are
// thread-count invariant; `Racy` names are shared-memo hit/miss splits and
// scheduling-dependent run counts; `Time` names are wall-clock.
pub const CELLS_DONE: &str = "study.cells_done";
pub const PROGRAMS_GENERATED: &str = "study.programs_generated";
pub const GENERATION_CACHE_HITS: &str = "study.generation_cache_hits";
pub const PROGRAMS_CONVERTED: &str = "study.programs_converted";
pub const EQUIVALENCE_RUNS: &str = "study.equivalence_runs";
pub const SOURCE_TRACE_HITS: &str = "study.source_trace_hits";
pub const SOURCE_TRACE_MISSES: &str = "study.source_trace_misses";
pub const DB_BUILDS: &str = "study.db_builds";
pub const DB_SHARED_RUNS: &str = "study.db_shared_runs";
pub const TRANSLATIONS: &str = "study.translations";
pub const GENERATE_NS: &str = "study.generate_ns";
pub const CONVERT_NS: &str = "study.convert_ns";
pub const VERIFY_NS: &str = "study.verify_ns";
/// Worker-thread gauge; the `host.` prefix keeps machine shape out of
/// deterministic comparisons.
pub const HOST_THREADS: &str = "host.threads";

/// One study's memos of everything derived from a program alone, which
/// recurs in all 8 transform rows. Every pool worker borrows the table and
/// it is dropped when the study returns, so a study never reads another's
/// entries and holds them no longer than it runs. Each slot is a pure
/// function of its coordinates, so whichever worker fills it first cannot
/// change a result; a later worker waits for the fill and then borrows it.
/// A fill that panics leaves its slot empty, so the next cell fills it.
struct StudyMemos {
    /// Per class, by position in [`ProgramClass::ALL`]: its `samples`
    /// programs (memoizing configurations only).
    programs: Vec<OnceLock<Vec<Program>>>,
    /// Per (class, sample) slot: the ground-truth trace on the source
    /// database (`company_db(4, 3, 8)`) under the scripted inputs, which
    /// every E2 verification shares.
    traces: Vec<OnceLock<Result<Trace, RunError>>>,
}

/// Outcome counts for one (transform class, program class) cell.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cell {
    pub total: usize,
    pub converted: usize,
    pub converted_with_warnings: usize,
    pub needs_manual: usize,
    pub rejected: usize,
    /// Converted programs whose execution trace matched (strict or at the
    /// predicted-warning level).
    pub verified_equivalent: usize,
    /// Converted programs whose execution diverged unpredictably — a
    /// conversion-system bug if ever nonzero.
    pub verified_wrong: usize,
    /// Programs whose conversion pipeline crashed (panic caught at a
    /// supervision boundary) — the E2 failure column. A fault-free run
    /// always has zero here.
    pub poisoned: usize,
}

impl Cell {
    /// Fraction automatically converted (with or without warnings).
    pub fn auto_rate(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        (self.converted + self.converted_with_warnings) as f64 / self.total as f64
    }
}

/// One row of the study: a transform class against every program class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StudyRow {
    pub transform: TransformClass,
    pub cells: Vec<(ProgramClass, Cell)>,
}

impl StudyRow {
    pub fn aggregate(&self) -> Cell {
        let mut agg = Cell::default();
        for (_, c) in &self.cells {
            agg.total += c.total;
            agg.converted += c.converted;
            agg.converted_with_warnings += c.converted_with_warnings;
            agg.needs_manual += c.needs_manual;
            agg.rejected += c.rejected;
            agg.verified_equivalent += c.verified_equivalent;
            agg.verified_wrong += c.verified_wrong;
            agg.poisoned += c.poisoned;
        }
        agg
    }
}

/// Diagnostic profile of one study run: work counters and per-stage
/// wall-clock, aggregated across the pool's workers.
///
/// Since the `dbpc-obs` migration this is a *view* over the run's merged
/// [`MetricsFrame`] ([`StudyProfile::from_frame`]), kept so benches and
/// regression tests read named fields instead of string-keyed metrics. The
/// recording itself goes through the ambient `dbpc_obs` sheet; the harness
/// brackets each cell, ships the delta frame back from the worker, and
/// merges in cell-index order.
///
/// Same contract as the storage engines' `AccessProfile`: the profile makes
/// the pipeline's *work* observable for benches and regression tests, but it
/// is never part of a result comparison — [`StudyResult`]'s `PartialEq` and
/// `Display` both exclude it, so two runs at different thread counts (whose
/// timings necessarily differ) still compare equal when their matrices do.
#[derive(Debug, Clone, Copy, Default)]
pub struct StudyProfile {
    /// Worker threads the run actually used.
    pub threads: usize,
    /// (transform × program-class) cells completed.
    pub cells_done: u64,
    /// Programs generated across all cells.
    pub programs_generated: u64,
    /// Programs served from the generation memo instead of regenerated
    /// (memoizing configurations only; still counted in
    /// `programs_generated`).
    pub generation_cache_hits: u64,
    /// Programs that converted automatically (with or without warnings).
    pub programs_converted: u64,
    /// Execution-equivalence checks performed.
    pub equivalence_runs: u64,
    /// Always 0: the Analyzer stage analyzes every program directly, with
    /// no memo to hit. Kept because the repository benchmark's `study`
    /// workload still reads it.
    pub analysis_cache_hits: u64,
    /// Always 0, for the same reason as `analysis_cache_hits`.
    pub analysis_cache_misses: u64,
    /// Ground-truth source-trace memo hits (reuse mode only).
    pub source_trace_hits: u64,
    /// Ground-truth source-trace memo misses — actual source executions.
    pub source_trace_misses: u64,
    /// Verification databases built from scratch.
    pub db_builds: u64,
    /// Verification runs executed directly on a shared base database —
    /// every run since the undo journal: updating programs run inside a
    /// savepoint that is rolled back, so no working copy is ever needed.
    pub db_shared_runs: u64,
    /// Data translations performed.
    pub translations: u64,
    /// Wall-clock spent generating programs (summed across workers).
    pub generate_ns: u64,
    /// Wall-clock spent converting (summed across workers).
    pub convert_ns: u64,
    /// Wall-clock spent on execution verification (summed across workers).
    pub verify_ns: u64,
}

impl StudyProfile {
    /// Project a merged metrics frame onto the named-field profile, reading
    /// the `study.*` names above and the `host.threads` gauge.
    pub fn from_frame(frame: &MetricsFrame) -> StudyProfile {
        StudyProfile {
            threads: frame.gauge(HOST_THREADS).max(0) as usize,
            cells_done: frame.counter(CELLS_DONE),
            programs_generated: frame.counter(PROGRAMS_GENERATED),
            generation_cache_hits: frame.counter(GENERATION_CACHE_HITS),
            programs_converted: frame.counter(PROGRAMS_CONVERTED),
            equivalence_runs: frame.counter(EQUIVALENCE_RUNS),
            analysis_cache_hits: 0,
            analysis_cache_misses: 0,
            source_trace_hits: frame.counter(SOURCE_TRACE_HITS),
            source_trace_misses: frame.counter(SOURCE_TRACE_MISSES),
            db_builds: frame.counter(DB_BUILDS),
            db_shared_runs: frame.counter(DB_SHARED_RUNS),
            translations: frame.counter(TRANSLATIONS),
            generate_ns: frame.time_ns(GENERATE_NS),
            convert_ns: frame.time_ns(CONVERT_NS),
            verify_ns: frame.time_ns(VERIFY_NS),
        }
    }
}

/// The complete study result.
///
/// Equality compares the *matrix* — rows and samples — and deliberately
/// ignores the diagnostic [`StudyProfile`], so determinism tests can assert
/// that runs at different thread counts produce the same result.
#[derive(Debug, Clone)]
pub struct StudyResult {
    pub rows: Vec<StudyRow>,
    pub samples_per_cell: usize,
    /// Work counters and stage timings (diagnostic only; a view over
    /// `report.metrics`).
    pub profile: StudyProfile,
    /// Structured observability for the run: per-cell span trees under one
    /// renumbered logical clock, plus the full merged metrics frame.
    /// Diagnostic like `profile` — excluded from equality — and exported
    /// as JSON when `DBPC_OBS_JSON` names a path.
    pub report: RunReport,
}

impl PartialEq for StudyResult {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows && self.samples_per_cell == other.samples_per_cell
    }
}

/// The E2 success-rate matrix. Alias kept so call sites can name the
/// result by the experiment it backs.
pub type StudyMatrix = StudyResult;

impl StudyResult {
    /// The overall automatic-conversion rate — the number the paper's
    /// §2.1.1 pegs at 65-70 % for 1970s converters.
    pub fn overall_auto_rate(&self) -> f64 {
        let mut total = 0usize;
        let mut auto_ok = 0usize;
        for row in &self.rows {
            let agg = row.aggregate();
            total += agg.total;
            auto_ok += agg.converted + agg.converted_with_warnings;
        }
        if total == 0 {
            0.0
        } else {
            auto_ok as f64 / total as f64
        }
    }

    pub fn total_verified_wrong(&self) -> usize {
        self.rows.iter().map(|r| r.aggregate().verified_wrong).sum()
    }
}

impl fmt::Display for StudyResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<16} {:>6} {:>6} {:>6} {:>7} {:>6} {:>7} {:>9}",
            "transform", "auto", "warn", "manual", "reject", "fail", "auto%", "verified"
        )?;
        for row in &self.rows {
            let a = row.aggregate();
            writeln!(
                f,
                "{:<16} {:>6} {:>6} {:>6} {:>7} {:>6} {:>6.1}% {:>5}/{:<3}",
                row.transform.name(),
                a.converted,
                a.converted_with_warnings,
                a.needs_manual,
                a.rejected,
                a.poisoned,
                100.0 * a.auto_rate(),
                a.verified_equivalent,
                a.converted + a.converted_with_warnings,
            )?;
        }
        writeln!(
            f,
            "overall automatic conversion rate: {:.1}%  (1970s computer-aided baseline: 65-70%)",
            100.0 * self.overall_auto_rate()
        )
    }
}

/// Run the success-rate study in fully automatic mode (every analyst
/// question is a rejection).
pub fn success_rate_study(samples: usize, seed: u64) -> StudyResult {
    success_rate_study_config(&StudyConfig::new(samples, seed))
}

/// Run the study with a permissive analyst: questions are approved, so
/// partially-convertible programs land in `needs_manual` instead of
/// `rejected` — the "conversion is completed by hand" mode of §2.1.1.
pub fn success_rate_study_interactive(samples: usize, seed: u64) -> StudyResult {
    success_rate_study_config(&StudyConfig {
        permissive: true,
        ..StudyConfig::new(samples, seed)
    })
}

/// Configuration of a study run.
///
/// The defaults are the tuned pipeline: all pipeline-efficiency features
/// on, thread count from `DBPC_THREADS` (falling back to the machine's
/// available parallelism). Every knob changes only *speed*: the matrix a
/// config produces is identical across all of them, which
/// `tests/parallel_determinism.rs` asserts.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// Programs generated per (transform, program-class) cell.
    pub samples: usize,
    /// Corpus seed.
    pub seed: u64,
    /// Approve analyst questions instead of rejecting them.
    pub permissive: bool,
    /// Worker threads; `0` means `DBPC_THREADS` or the machine default
    /// ([`pool::default_threads`]).
    pub threads: usize,
    /// Build each cell's verification database once and clone it per
    /// verified program, instead of rebuilding (and re-translating) it for
    /// every program.
    pub reuse_databases: bool,
    /// Generate each program class once per study and borrow it in every
    /// transform row: the program seed does not depend on the row.
    pub memoize_programs: bool,
    /// Fault-injection plan threaded into the supervisor (robustness
    /// studies). The default is idle, leaving the pipeline byte-identical
    /// to an unfaulted run.
    pub fault_plan: FaultPlan,
    /// Convert via the §2 strategy fallback ladder instead of plain
    /// rewriting: failed or unverifiable rewrites degrade to emulation,
    /// bridging, and finally manual work. Changes *outcomes* (it rescues
    /// programs plain rewriting rejects), so it is off by default and the
    /// default matrix stays byte-identical to the seed pipeline.
    pub ladder: bool,
}

impl StudyConfig {
    /// Tuned defaults (see type docs).
    pub fn new(samples: usize, seed: u64) -> StudyConfig {
        StudyConfig {
            samples,
            seed,
            permissive: false,
            threads: 0,
            reuse_databases: true,
            memoize_programs: true,
            fault_plan: FaultPlan::none(),
            ladder: false,
        }
    }

    /// The pre-optimization pipeline — sequential, every database rebuilt
    /// per program, every program generated afresh in every row. The
    /// benchmark baseline.
    pub fn baseline(samples: usize, seed: u64) -> StudyConfig {
        StudyConfig {
            threads: 1,
            reuse_databases: false,
            memoize_programs: false,
            ..StudyConfig::new(samples, seed)
        }
    }
}

/// Run the E2 study under an explicit [`StudyConfig`].
///
/// Parallelism is deterministic by construction: the 96 (transform ×
/// program-class) cells are a fixed work list, [`pool::parallel_map`] lets
/// each worker claim the next unclaimed cell and returns results in list
/// order, and each cell's computation is self-contained (seeded generation,
/// per-cell databases, memos whose hits change no result: this study's
/// program and ground-truth memos, which are dropped when it returns).
/// Which worker ran a cell varies from run to run; the assembled matrix is
/// byte-identical at any thread count.
pub fn success_rate_study_config(config: &StudyConfig) -> StudyResult {
    let threads = if config.threads == 0 {
        pool::default_threads()
    } else {
        config.threads
    };
    let schema = crate::named::company_schema();
    let supervisor = Supervisor {
        fault: config.fault_plan.clone(),
        ..Supervisor::default()
    };

    let classes = ProgramClass::ALL.len();
    let memos = StudyMemos {
        programs: (0..classes).map(|_| OnceLock::new()).collect(),
        traces: (0..classes * config.samples)
            .map(|_| OnceLock::new())
            .collect(),
    };
    let units: Vec<(TransformClass, usize)> = TransformClass::ALL
        .iter()
        .flat_map(|t| (0..classes).map(move |c| (*t, c)))
        .collect();
    // Panic-safe fan-out: a cell whose computation escapes every inner
    // supervision boundary becomes an all-poisoned cell, not a dead batch.
    // Each cell runs under its own `dbpc_obs::capture` (so every span the
    // pipeline opens lands in the cell's tree) and brackets the worker's
    // ambient metric sheet, shipping the per-cell delta back with the
    // result for the index-ordered merge below.
    let per_cell = pool::try_parallel_map(&units, threads, |_, &(t, c)| {
        let mark = dbpc_obs::local_mark();
        let label = format!("cell.{}.{}", t.name(), ProgramClass::ALL[c].name());
        let (cell, capture) = dbpc_obs::capture(&label, || {
            run_cell(&supervisor, &schema, config, &memos, t, c)
        });
        (cell, capture, mark.delta())
    });

    // Reassemble in the fixed transform × program-class order. Captures and
    // metric shards merge in the same cell-index order as the matrix, so
    // the assembled report is a pure function of the work list.
    let mut registry = MetricsRegistry::new();
    let mut captures = Vec::new();
    let mut results = per_cell.into_iter();
    let mut rows = Vec::new();
    for t in TransformClass::ALL {
        let mut cells = Vec::new();
        for pc in ProgramClass::ALL {
            let cell = match results.next() {
                Some(Ok((cell, capture, delta))) => {
                    registry.absorb(&delta);
                    captures.push(capture);
                    cell
                }
                // A poisoned (or missing) cell: every sample is recorded in
                // the failure column; siblings are untouched. Its capture
                // died with the worker's unwind, so an empty placeholder
                // keeps the capture list aligned with the cell list.
                Some(Err(_)) | None => {
                    captures.push(dbpc_obs::Capture::default());
                    Cell {
                        total: config.samples,
                        poisoned: config.samples,
                        ..Cell::default()
                    }
                }
            };
            cells.push((*pc, cell));
        }
        rows.push(StudyRow {
            transform: *t,
            cells,
        });
    }
    // Planner inputs: publish the canonical source database's statistics
    // catalog (a pure function of the fixture), so the deterministic
    // RunReport JSON shows the cardinalities and fan-outs the cost-based
    // planner and ladder consult priced plans from.
    StatCatalog::of_network(&company_db(4, 3, 8)).publish(&mut registry);
    registry.set_gauge(HOST_THREADS, threads as i64);
    let report = RunReport::assemble("success-rate-study", captures, registry);
    let profile = StudyProfile::from_frame(&report.metrics);
    export_report_if_requested(&report);
    StudyResult {
        rows,
        samples_per_cell: config.samples,
        profile,
        report,
    }
}

/// Write a run report to the path named by `DBPC_OBS_JSON`, when set. A
/// write failure is reported on stderr but never fails the study — the
/// export is an observer, not a participant.
fn export_report_if_requested(report: &RunReport) {
    let Ok(path) = std::env::var("DBPC_OBS_JSON") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let mut text = report.to_json();
    text.push('\n');
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("DBPC_OBS_JSON: cannot write {path}: {e}");
    }
}

/// The fault key identifying sample `k` of cell `(t, pc)` to a
/// [`FaultPlan`]: a pure function of the corpus coordinates, so a plan
/// targets the same program at any thread count, in the matrix study and
/// in [`ladder_reports`] alike.
pub fn program_fault_key(t: TransformClass, pc: ProgramClass, k: usize) -> u64 {
    ((t as u64) << 32) | ((pc as u64) << 16) | (k as u64 & 0xffff)
}

/// The corpus seed of sample `k` of class `pc`: transform-row independent
/// by construction, so one program serves all 8 rows.
fn program_seed(seed: u64, k: usize, pc: ProgramClass) -> u64 {
    seed.wrapping_mul(1_000_003)
        .wrapping_add((k as u64) << 8)
        .wrapping_add(pc as u64)
}

/// One (transform, program-class) cell: generate, batch-convert, verify.
/// `c` is the class's position in [`ProgramClass::ALL`]. The programs come
/// from the study's memo when `memoize_programs` is on; each is analyzed
/// afresh in every row, since an analysis costs about what a memo lookup
/// would. Work counters go to the worker's ambient `dbpc_obs` sheet (the
/// caller brackets the cell and ships the delta frame); spans land in the
/// caller's per-cell capture.
fn run_cell(
    supervisor: &Supervisor,
    schema: &NetworkSchema,
    config: &StudyConfig,
    memos: &StudyMemos,
    t: TransformClass,
    c: usize,
) -> Cell {
    let mut cell = Cell::default();
    let pc = ProgramClass::ALL[c];
    let restructuring = t.restructuring();

    let started = Instant::now();
    let generate = || -> Vec<Program> {
        (0..config.samples)
            .map(|k| generate_program(pc, program_seed(config.seed, k, pc)))
            .collect()
    };
    // Memoizing configurations generate a class once per study and borrow
    // it in every row. Which cell generates depends on scheduling, so the
    // hit count is `Racy`.
    let fresh;
    let programs: &[Program] = if config.memoize_programs {
        let mut hit = true;
        let programs = memos.programs[c].get_or_init(|| {
            hit = false;
            generate()
        });
        if hit {
            dbpc_obs::racy(GENERATION_CACHE_HITS, programs.len() as u64);
        }
        programs
    } else {
        fresh = generate();
        &fresh
    };
    dbpc_obs::count(PROGRAMS_GENERATED, programs.len() as u64);
    dbpc_obs::time(GENERATE_NS, started.elapsed().as_nanos() as u64);

    if config.ladder {
        return run_cell_ladder(supervisor, schema, config, t, pc, programs, cell);
    }

    // Convert the cell as one batch: the schema mapping is derived once for
    // all samples. The mapping is the batch's only fallible step and
    // depends only on (schema, restructuring), so a batch error is exactly
    // a per-program rejection of every sample.
    let started = Instant::now();
    let mut auto = AutoAnalyst;
    let mut perm = PermissiveAnalyst;
    let analyst: &mut dyn Analyst = if config.permissive {
        &mut perm
    } else {
        &mut auto
    };
    let keys: Vec<u64> = (0..config.samples)
        .map(|k| program_fault_key(t, pc, k))
        .collect();
    let reports: Vec<ConversionReport> =
        match supervisor.convert_batch_keyed(schema, &restructuring, programs, &keys, analyst) {
            Ok(reports) => reports,
            Err(_) => {
                cell.total = programs.len();
                cell.rejected = programs.len();
                dbpc_obs::time(CONVERT_NS, started.elapsed().as_nanos() as u64);
                dbpc_obs::count(CELLS_DONE, 1);
                return cell;
            }
        };
    dbpc_obs::time(CONVERT_NS, started.elapsed().as_nanos() as u64);

    // Execution verification for successful conversions. In reuse mode the
    // cell's source database and its translation are built once; every
    // program — updating or not — runs directly against those shared bases
    // inside a savepoint that is rolled back afterwards, so no working
    // copies are cloned at all. The ground-truth trace of the original
    // program — which does not depend on the restructuring — is memoized
    // for the study, so a program recurring across transform rows executes
    // once instead of eight times.
    let started = Instant::now();
    let inputs = Inputs::new().with_terminal(&["RETRIEVE"]);
    let mut bases: Option<(NetworkDb, Option<NetworkDb>)> = None;
    for (k, (program, report)) in programs.iter().zip(&reports).enumerate() {
        cell.total += 1;
        match report.verdict {
            Verdict::Converted => cell.converted += 1,
            Verdict::ConvertedWithWarnings => cell.converted_with_warnings += 1,
            Verdict::NeedsManualWork => cell.needs_manual += 1,
            Verdict::Rejected => cell.rejected += 1,
            Verdict::Poisoned => cell.poisoned += 1,
        }
        if !report.succeeded() {
            continue;
        }
        dbpc_obs::count(PROGRAMS_CONVERTED, 1);
        let Some(converted) = report.program.as_ref() else {
            // A succeeded verdict always carries a program; treat the
            // impossible as a verification failure rather than a panic.
            cell.verified_wrong += 1;
            continue;
        };
        let eq: Result<EquivalenceLevel, _> = if config.reuse_databases {
            if bases.is_none() {
                let src = company_db(4, 3, 8);
                dbpc_obs::count(DB_BUILDS, 1);
                let tgt = restructuring.translate(&src).ok();
                dbpc_obs::count(TRANSLATIONS, 1);
                bases = Some((src, tgt));
            }
            let Some((src_base, tgt_base)) = bases.as_mut() else {
                cell.verified_wrong += 1;
                continue;
            };
            let Some(tgt_base) = tgt_base.as_mut() else {
                cell.verified_wrong += 1;
                continue;
            };
            let mut hit = true;
            let original_trace = memos.traces[c * config.samples + k].get_or_init(|| {
                hit = false;
                dbpc_obs::racy(SOURCE_TRACE_MISSES, 1);
                // Every program — updating or not — runs straight on the
                // shared base inside a savepoint that is rolled back
                // afterwards; the undo journal replaced the working-copy
                // clone entirely. Which cell fills the memo depends on
                // scheduling, so the run is `quiet`: its spans and storage
                // counters would otherwise make the trace thread-count
                // dependent.
                dbpc_obs::racy(DB_SHARED_RUNS, 1);
                dbpc_obs::quiet(|| {
                    let sp = src_base.begin_savepoint();
                    let run = run_host(src_base, program, inputs.clone());
                    src_base.rollback_to(sp);
                    run
                })
            });
            if hit {
                dbpc_obs::racy(SOURCE_TRACE_HITS, 1);
            }
            dbpc_obs::count(EQUIVALENCE_RUNS, 1);
            original_trace
                .as_ref()
                .map_err(RunError::clone)
                .and_then(|trace| {
                    dbpc_obs::racy(DB_SHARED_RUNS, 1);
                    let sp = tgt_base.begin_savepoint();
                    let out =
                        judge_equivalence(trace, tgt_base, converted, &inputs, &report.warnings);
                    tgt_base.rollback_to(sp);
                    out.map(|(level, _, _)| level)
                })
        } else {
            let src = company_db(4, 3, 8);
            dbpc_obs::count(DB_BUILDS, 1);
            dbpc_obs::count(TRANSLATIONS, 1);
            let Ok(tgt) = restructuring.translate(&src) else {
                cell.verified_wrong += 1;
                continue;
            };
            dbpc_obs::count(EQUIVALENCE_RUNS, 1);
            check_equivalence(src, program, tgt, converted, &inputs, &report.warnings)
                .map(|eq| eq.level)
        };
        match eq {
            Ok(EquivalenceLevel::Strict | EquivalenceLevel::Warned) => {
                cell.verified_equivalent += 1
            }
            Ok(EquivalenceLevel::NotEquivalent) | Err(_) => cell.verified_wrong += 1,
        }
    }
    dbpc_obs::time(VERIFY_NS, started.elapsed().as_nanos() as u64);
    dbpc_obs::count(CELLS_DONE, 1);
    cell
}

/// The ladder variant of a cell: every program descends the §2 strategy
/// ladder, so conversion and verification are one supervised step. Tallies
/// the serving rung's verdict; `verified_equivalent` counts programs whose
/// serving rung passed its equivalence check (the ladder only serves
/// verified rungs, so a served program is a verified one).
fn run_cell_ladder(
    supervisor: &Supervisor,
    schema: &NetworkSchema,
    config: &StudyConfig,
    t: TransformClass,
    pc: ProgramClass,
    programs: &[Program],
    mut cell: Cell,
) -> Cell {
    let started = Instant::now();
    let inputs = Inputs::new().with_terminal(&["RETRIEVE"]);
    let mut src_base = company_db(4, 3, 8);
    dbpc_obs::count(DB_BUILDS, 1);
    let restructuring = t.restructuring();
    for (k, program) in programs.iter().enumerate() {
        cell.total += 1;
        let key = program_fault_key(t, pc, k);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut auto = AutoAnalyst;
            let mut perm = PermissiveAnalyst;
            let analyst: &mut dyn Analyst = if config.permissive {
                &mut perm
            } else {
                &mut auto
            };
            run_ladder(
                supervisor,
                schema,
                &restructuring,
                program,
                key,
                &mut src_base,
                &inputs,
                analyst,
            )
        }));
        match outcome {
            Ok(out) => {
                match out.report.verdict {
                    Verdict::Converted => cell.converted += 1,
                    Verdict::ConvertedWithWarnings => cell.converted_with_warnings += 1,
                    Verdict::NeedsManualWork => cell.needs_manual += 1,
                    Verdict::Rejected => cell.rejected += 1,
                    Verdict::Poisoned => cell.poisoned += 1,
                }
                if out.report.succeeded() {
                    dbpc_obs::count(PROGRAMS_CONVERTED, 1);
                }
                dbpc_obs::count(EQUIVALENCE_RUNS, 1);
                match out.level {
                    Some(EquivalenceLevel::Strict | EquivalenceLevel::Warned) => {
                        cell.verified_equivalent += 1
                    }
                    Some(EquivalenceLevel::NotEquivalent) => cell.verified_wrong += 1,
                    None => {}
                }
            }
            // run_ladder already supervises every rung; a panic escaping it
            // (ground-truth setup, tallying) poisons only this program.
            Err(_) => cell.poisoned += 1,
        }
    }
    dbpc_obs::time(VERIFY_NS, started.elapsed().as_nanos() as u64);
    dbpc_obs::count(CELLS_DONE, 1);
    cell
}

/// Per-program ladder reports over the whole E2 corpus, in the fixed
/// `(transform, program class, sample)` order — the unit the robustness
/// acceptance test and the E15 rung-distribution figure compare. Parallel
/// and panic-safe like the matrix study: a program whose descent escapes
/// supervision yields a [`Verdict::Poisoned`] report in its slot.
pub fn ladder_reports(config: &StudyConfig) -> Vec<ConversionReport> {
    let threads = if config.threads == 0 {
        pool::default_threads()
    } else {
        config.threads
    };
    let schema = crate::named::company_schema();
    let supervisor = Supervisor {
        fault: config.fault_plan.clone(),
        ..Supervisor::default()
    };
    let inputs = Inputs::new().with_terminal(&["RETRIEVE"]);
    let units: Vec<(TransformClass, ProgramClass, usize)> = TransformClass::ALL
        .iter()
        .flat_map(|t| {
            ProgramClass::ALL
                .iter()
                .flat_map(move |pc| (0..config.samples).map(move |k| (*t, *pc, k)))
        })
        .collect();
    pool::try_parallel_map(&units, threads, |_, &(t, pc, k)| {
        let program = generate_program(pc, program_seed(config.seed, k, pc));
        let restructuring = t.restructuring();
        // NetworkDb keeps interior index caches (not Sync), so the small
        // verification base is built per work item rather than shared.
        let mut src_base = company_db(4, 3, 8);
        let mut auto = AutoAnalyst;
        let mut perm = PermissiveAnalyst;
        let analyst: &mut dyn Analyst = if config.permissive {
            &mut perm
        } else {
            &mut auto
        };
        run_ladder(
            &supervisor,
            &schema,
            &restructuring,
            &program,
            program_fault_key(t, pc, k),
            &mut src_base,
            &inputs,
            analyst,
        )
        .report
    })
    .into_iter()
    .map(|r| {
        r.unwrap_or_else(|p| {
            failure_report(
                Verdict::Poisoned,
                PipelineError::Panic { detail: p.payload },
            )
        })
    })
    .collect()
}

// ---------------------------------------------------------------------------
// The conversion cost model (experiment E9)
// ---------------------------------------------------------------------------

/// Effort parameters, in analyst-hours per program (period-plausible
/// magnitudes; the *shape* of the comparison is the claim, not the
/// absolute numbers).
#[derive(Debug, Clone, Copy)]
pub struct CostParams {
    /// Fully manual conversion of one database program.
    pub manual_hours: f64,
    /// Reviewing an automatically converted program.
    pub review_hours: f64,
    /// Completing a program the system converted partially
    /// (needs-manual-work verdict).
    pub completion_hours: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        // A 1979 shop: a week of analyst time to convert a program by hand,
        // an hour to review a machine conversion, two days to finish a
        // partial one.
        CostParams {
            manual_hours: 40.0,
            review_hours: 1.0,
            completion_hours: 16.0,
        }
    }
}

/// The cost-model result.
#[derive(Debug, Clone)]
pub struct CostReport {
    pub programs: usize,
    pub manual_total_hours: f64,
    pub aided_total_hours: f64,
}

impl CostReport {
    /// Fraction of the manual cost avoided — compare with the GAO figure
    /// the paper opens with (about $100M of $450M ≈ 22 %, for conversions
    /// in general; database program conversion automates better).
    pub fn savings_fraction(&self) -> f64 {
        1.0 - self.aided_total_hours / self.manual_total_hours
    }
}

impl fmt::Display for CostReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        let _ = writeln!(s, "programs converted          : {}", self.programs);
        let _ = writeln!(
            s,
            "manual conversion           : {:>10.0} analyst-hours",
            self.manual_total_hours
        );
        let _ = writeln!(
            s,
            "computer-aided conversion   : {:>10.0} analyst-hours",
            self.aided_total_hours
        );
        let _ = writeln!(
            s,
            "savings                     : {:>9.1}%  (GAO 1977 all-conversion baseline: ~22%)",
            100.0 * self.savings_fraction()
        );
        f.write_str(&s)
    }
}

/// Apply the cost model to a study result.
pub fn cost_model(study: &StudyResult, params: CostParams) -> CostReport {
    let mut programs = 0usize;
    let mut aided = 0.0f64;
    for row in &study.rows {
        let a = row.aggregate();
        programs += a.total;
        let auto = (a.converted + a.converted_with_warnings) as f64;
        aided += auto * params.review_hours;
        aided += a.needs_manual as f64 * (params.review_hours + params.completion_hours);
        aided += a.rejected as f64 * params.manual_hours;
    }
    CostReport {
        programs,
        manual_total_hours: programs as f64 * params.manual_hours,
        aided_total_hours: aided,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_runs_and_never_converts_wrongly() {
        let study = success_rate_study(2, 1979);
        let total: usize = study.rows.iter().map(|r| r.aggregate().total).sum();
        assert_eq!(
            total,
            TransformClass::ALL.len() * ProgramClass::ALL.len() * 2
        );
        // The load-bearing assertion: nothing that claimed success runs
        // differently than predicted.
        assert_eq!(study.total_verified_wrong(), 0, "\n{study}");
        // And the tool is in the plausible automation band.
        let rate = study.overall_auto_rate();
        assert!(rate > 0.4 && rate < 0.95, "rate = {rate}");
    }

    #[test]
    fn renames_convert_everything_convertible() {
        let study = success_rate_study(2, 7);
        let rename_row = study
            .rows
            .iter()
            .find(|r| r.transform == TransformClass::RenameAgeField)
            .unwrap();
        // Only the runtime-verb class resists a pure rename.
        let agg = rename_row.aggregate();
        assert_eq!(agg.rejected, 2, "{study}");
    }

    #[test]
    fn cost_model_shows_savings() {
        let study = success_rate_study(2, 3);
        let report = cost_model(&study, CostParams::default());
        assert!(report.savings_fraction() > 0.2, "{report}");
        assert!(report.aided_total_hours < report.manual_total_hours);
    }

    #[test]
    fn pipeline_knobs_change_speed_not_results() {
        let tuned = success_rate_study_config(&StudyConfig {
            threads: 1,
            ..StudyConfig::new(2, 1979)
        });
        let baseline = success_rate_study_config(&StudyConfig::baseline(2, 1979));
        // Reuse, memoization and batching are pure speed knobs.
        assert_eq!(tuned, baseline);

        let cells = (TransformClass::ALL.len() * ProgramClass::ALL.len()) as u64;
        let programs = cells * 2;
        for p in [&tuned.profile, &baseline.profile] {
            assert_eq!(p.threads, 1);
            assert_eq!(p.cells_done, cells);
            assert_eq!(p.programs_generated, programs);
            assert_eq!(p.equivalence_runs, p.programs_converted);
        }
        // Program memoization engages only in the tuned pipeline.
        assert!(tuned.profile.generation_cache_hits > 0);
        assert_eq!(baseline.profile.generation_cache_hits, 0);
        // Database reuse: the tuned run builds/translates at most once per
        // cell and runs every program — updating or not — on the shared
        // bases under a rolled-back savepoint, so the deep-copy path stays
        // deleted; the baseline rebuilds and re-translates for every
        // program.
        assert!(tuned.profile.db_builds <= cells);
        assert_eq!(
            tuned.profile.db_shared_runs,
            tuned.profile.equivalence_runs + tuned.profile.source_trace_misses
        );
        assert!(tuned.profile.db_shared_runs > 0);
        assert_eq!(
            baseline.profile.db_builds,
            baseline.profile.programs_converted
        );
        assert_eq!(baseline.profile.db_shared_runs, 0);
        assert!(tuned.profile.db_builds < baseline.profile.db_builds);
        // Source-trace memoization: each verified program's ground truth is
        // computed once per study; across the 8 transform rows the
        // recurrences are hits. The baseline never memoizes.
        assert_eq!(
            tuned.profile.source_trace_hits + tuned.profile.source_trace_misses,
            tuned.profile.equivalence_runs
        );
        assert!(tuned.profile.source_trace_hits > 0);
        assert_eq!(baseline.profile.source_trace_hits, 0);
        assert_eq!(baseline.profile.source_trace_misses, 0);
    }

    /// The memos live for one study: running the same config twice in one
    /// process generates each class and executes each ground truth afresh
    /// in the second run, instead of reading the first run's entries.
    #[test]
    fn memos_live_for_one_study() {
        let config = StudyConfig {
            threads: 2,
            ..StudyConfig::new(2, 2718)
        };
        let first = success_rate_study_config(&config);
        let second = success_rate_study_config(&config);
        assert_eq!(first, second);
        let (a, b) = (&first.profile, &second.profile);
        assert!(a.source_trace_misses > 0);
        assert_eq!(a.source_trace_misses, b.source_trace_misses);
        assert_eq!(a.generation_cache_hits, b.generation_cache_hits);
        // Each class is generated once per study and borrowed by the
        // other seven rows.
        let classes = ProgramClass::ALL.len() as u64;
        assert_eq!(a.generation_cache_hits, a.programs_generated - classes * 2);
    }
}

// ---------------------------------------------------------------------------
// Strategy coverage (the §2.1.2 restrictiveness comparison)
// ---------------------------------------------------------------------------

/// Per-strategy outcome for one (transform, program) cell.
#[derive(Debug, Clone, Default)]
pub struct CoverageCell {
    pub total: usize,
    pub rewrite_ok: usize,
    pub emulate_ok: usize,
    pub bridge_ok: usize,
}

/// Coverage of the three §2 strategies across the corpus: for each
/// generated program and transform, does each strategy reproduce the source
/// trace? The paper's claim under test: "The drawback of restrictiveness
/// comes about because the emulation and bridge program strategies probably
/// cannot utilize the increased capabilities of the restructured database …
/// This approach may also limit the class of restructurings that can be
/// done."
pub fn strategy_coverage(samples: usize, seed: u64) -> Vec<(TransformClass, CoverageCell)> {
    use dbpc_emulate::{run_bridged, Emulator, WriteBack};
    use dbpc_engine::host_exec::run_host;

    let schema = crate::named::company_schema();
    let supervisor = Supervisor::new();
    // The corpus database is transform-independent: build it once and run
    // every ground truth in place under a rolled-back savepoint. Each
    // transform's translation is likewise computed once per row.
    let mut src_base = company_db(4, 3, 8);
    let mut rows = Vec::new();
    for t in TransformClass::ALL {
        let restructuring = t.restructuring();
        let tgt_base = restructuring.translate(&src_base).ok();
        let mut cell = CoverageCell::default();
        for pc in ProgramClass::ALL {
            for k in 0..samples {
                let program_seed = seed
                    .wrapping_mul(7_777_777)
                    .wrapping_add((k as u64) << 8)
                    .wrapping_add(*pc as u64);
                let program = generate_program(*pc, program_seed);
                cell.total += 1;

                // Ground truth on the source database.
                let Some(tgt) = &tgt_base else {
                    continue;
                };
                let inputs = Inputs::new().with_terminal(&["RETRIEVE"]);
                let sp = src_base.begin_savepoint();
                let expected = run_host(&mut src_base, &program, inputs.clone());
                src_base.rollback_to(sp);
                let Ok(expected) = expected else {
                    continue;
                };

                // Rewriting.
                if let Ok(report) =
                    supervisor.convert(&schema, &restructuring, &program, &mut AutoAnalyst)
                {
                    if let (true, Some(converted)) = (report.succeeded(), report.program.as_ref()) {
                        let mut db = tgt.clone();
                        if let Ok(trace) = run_host(&mut db, converted, inputs.clone()) {
                            if trace == expected {
                                cell.rewrite_ok += 1;
                            }
                        }
                    }
                }
                // Emulation (unmodified program).
                if let Ok(mut emu) = Emulator::over(tgt.clone(), &schema, &restructuring) {
                    if let Ok(trace) = run_host(&mut emu, &program, inputs.clone()) {
                        if trace == expected {
                            cell.emulate_ok += 1;
                        }
                    }
                }
                // Bridge (unmodified program, differential write-back).
                if let Ok(run) = run_bridged(
                    tgt.clone(),
                    &schema,
                    &restructuring,
                    &program,
                    inputs.clone(),
                    WriteBack::Differential,
                ) {
                    if run.trace == expected {
                        cell.bridge_ok += 1;
                    }
                }
            }
        }
        rows.push((*t, cell));
    }
    rows
}

/// Render the coverage table.
pub fn format_coverage(rows: &[(TransformClass, CoverageCell)]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:>6} {:>9} {:>9} {:>9}",
        "transform", "total", "rewrite", "emulate", "bridge"
    );
    for (t, c) in rows {
        let pct = |n: usize| 100.0 * n as f64 / c.total.max(1) as f64;
        let _ = writeln!(
            out,
            "{:<16} {:>6} {:>8.1}% {:>8.1}% {:>8.1}%",
            t.name(),
            c.total,
            pct(c.rewrite_ok),
            pct(c.emulate_ok),
            pct(c.bridge_ok),
        );
    }
    out
}

#[cfg(test)]
mod coverage_tests {
    use super::*;

    /// The measured shape of the §2.1.2 restrictiveness claim — with a
    /// nuance the experiment surfaces honestly:
    ///
    /// * per *transform class*, emulation and bridge are all-or-nothing:
    ///   information-losing restructurings (drop-field, delete-where) and
    ///   non-invertible ones (bridge under change-keys) are **impossible**
    ///   ("this approach may also limit the class of restructurings that
    ///   can be done"), while rewriting still converts the programs that
    ///   don't touch the lost information;
    /// * per *program*, on the restructurings it does support, emulation
    ///   covers at least as many programs as rewriting — by construction it
    ///   mimics the source DML call by call — at the run-time cost
    ///   experiment E1 measures.
    #[test]
    fn restrictiveness_shape_holds() {
        let rows = strategy_coverage(1, 42);
        let cell = |tc: TransformClass| {
            rows.iter()
                .find(|(t, _)| *t == tc)
                .map(|(_, c)| c.clone())
                .unwrap()
        };
        // Lossy restructurings: emulation/bridge impossible, rewriting
        // partially survives.
        for lossy in [TransformClass::DropAgeField, TransformClass::DeleteSeniors] {
            let c = cell(lossy);
            assert_eq!(c.emulate_ok, 0, "{lossy}:\n{}", format_coverage(&rows));
            assert_eq!(c.bridge_ok, 0, "{lossy}:\n{}", format_coverage(&rows));
            assert!(c.rewrite_ok > 0, "{lossy}:\n{}", format_coverage(&rows));
        }
        // Non-invertible restructuring: the bridge (which needs Housel's
        // inverse operators) is impossible; emulation and rewriting work.
        let ck = cell(TransformClass::ChangeEmpKeys);
        assert_eq!(ck.bridge_ok, 0, "{}", format_coverage(&rows));
        assert!(ck.emulate_ok > 0 && ck.rewrite_ok > 0);
        // On the paper's own promotion, per-call emulation covers at least
        // as many programs as rewriting (and E1 shows what that costs).
        let pr = cell(TransformClass::Promote);
        assert!(pr.emulate_ok >= pr.rewrite_ok, "{}", format_coverage(&rows));
    }
}
