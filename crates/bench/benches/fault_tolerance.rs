//! Experiment E15: robustness of the conversion pipeline under fault
//! injection.
//!
//! Runs the per-program strategy-ladder descent over the E2 corpus with a
//! seeded probabilistic fault plan at 0%, 5% and 20% per-stage fault
//! probability (half typed errors, half panics), measuring:
//!
//! - **Survival rate** — the fraction of programs still served by an
//!   automatic strategy (any rung above manual, nothing poisoned);
//! - **Rung distribution** — how far down the §2 ladder the batch is
//!   pushed as the fault rate rises;
//! - **Throughput** — wall-clock cost of the supervision (catch_unwind,
//!   retries, fallback rungs) at each fault rate.
//!
//! Invariants asserted on every run:
//!
//! - With the fault machinery present but idle, the plain (ladder-free)
//!   pipeline renders a study matrix **byte-identical** to the seed
//!   pipeline's — robustness is free when nothing fails.
//! - Under injected faults, every program the plan did *not* hit produces
//!   a report byte-identical to the fault-free run — faults never leak
//!   across programs.
//!
//! Smoke mode (`DBPC_BENCH_SMOKE=1`): one sample per cell, one timed
//! iteration, all assertions active, no artifact written — the CI guard.

use std::time::Instant;

use dbpc_bench::artifact;
use dbpc_convert::{ConversionReport, FaultPlan, Rung, Verdict, LADDER};
use dbpc_corpus::harness::{ladder_reports, success_rate_study_config, StudyConfig};
use dbpc_datamodel::error::PipelineError;
use dbpc_obs::json::Json;

/// Did an *injected* fault (as opposed to a genuine pipeline failure)
/// contribute to this report's descent?
fn was_faulted(report: &ConversionReport) -> bool {
    report.fallbacks.iter().any(|f| match &f.error {
        PipelineError::Injected { .. } => true,
        PipelineError::Panic { detail } => detail.contains("injected panic"),
        _ => false,
    })
}

struct FaultRun {
    label: &'static str,
    probability: f64,
    best_ns: u128,
    reports: Vec<ConversionReport>,
}

fn main() {
    let (samples, iters) = if artifact::smoke() { (1, 1) } else { (2, 3) };
    let seed = 1979u64;
    let fault_seed = 0xFA17u64;

    // ---- Idle fault machinery is invisible --------------------------------
    // The plain pipeline with an explicit (idle) plan must render the same
    // matrix as the seed configuration.
    let seed_matrix = success_rate_study_config(&StudyConfig::new(samples, seed));
    let idle_matrix = success_rate_study_config(&StudyConfig {
        fault_plan: FaultPlan::none(),
        ..StudyConfig::new(samples, seed)
    });
    assert_eq!(
        seed_matrix.to_string(),
        idle_matrix.to_string(),
        "idle fault plan must leave the study matrix byte-identical"
    );

    // ---- Ladder descents at rising fault probability ----------------------
    let config = |probability: f64| StudyConfig {
        ladder: true,
        fault_plan: FaultPlan::seeded(fault_seed, probability),
        ..StudyConfig::new(samples, seed)
    };
    let mut runs = [
        ("no_faults", 0.0),
        ("faults_5pct", 0.05),
        ("faults_20pct", 0.20),
    ]
    .map(|(label, probability)| FaultRun {
        label,
        probability,
        best_ns: u128::MAX,
        reports: ladder_reports(&config(probability)),
    });

    // Interleave timed iterations, keeping each configuration's best, so a
    // slow system phase degrades a whole round rather than one fault rate.
    for _ in 0..iters {
        for run in runs.iter_mut() {
            let t = Instant::now();
            let reports = ladder_reports(&config(run.probability));
            let ns = t.elapsed().as_nanos();
            assert_eq!(
                reports, run.reports,
                "{}: descent is deterministic",
                run.label
            );
            run.best_ns = run.best_ns.min(ns);
        }
    }

    // ---- Fault isolation ---------------------------------------------------
    // Any program the plan did not hit descends exactly as in the
    // fault-free run.
    let clean = &runs[0].reports;
    assert!(
        clean.iter().all(|r| !was_faulted(r)),
        "a 0% plan must inject nothing"
    );
    for run in &runs[1..] {
        let mut hit = 0usize;
        for (c, f) in clean.iter().zip(&run.reports) {
            if was_faulted(f) || f.verdict == Verdict::Poisoned {
                hit += 1;
            } else {
                assert_eq!(c, f, "{}: non-faulted program changed", run.label);
            }
        }
        assert!(hit > 0, "{}: plan injected nothing measurable", run.label);
    }

    // ---- Emit artifact ----------------------------------------------------
    let total = clean.len();
    let run_json = |run: &FaultRun| {
        let count = |keep: &dyn Fn(&ConversionReport) -> bool| {
            Json::from(run.reports.iter().filter(|r| keep(r)).count())
        };
        let survived = run.reports.iter().filter(|r| r.succeeded()).count();
        let rungs = LADDER
            .iter()
            .chain(std::iter::once(&Rung::Manual))
            .map(|rung| (rung.to_string(), count(&|r| r.rung == *rung)));
        Json::obj([
            ("fault_probability", run.probability.into()),
            ("best_ns", run.best_ns.into()),
            (
                "programs_per_sec",
                (total as f64 / (run.best_ns.max(1) as f64 / 1e9)).into(),
            ),
            ("survival_rate", (survived as f64 / total as f64).into()),
            ("programs_faulted", count(&was_faulted)),
            ("poisoned", count(&|r| r.verdict == Verdict::Poisoned)),
            ("rung_distribution", Json::obj(rungs)),
        ])
    };
    let summary = [
        ("samples_per_cell", Json::from(samples)),
        ("seed", seed.into()),
        ("fault_seed", fault_seed.into()),
        ("programs", total.into()),
        ("idle_plan_identical_to_seed", true.into()),
        ("non_faulted_reports_identical", true.into()),
    ];
    let runs_json = runs.iter().map(|run| (run.label, run_json(run)));
    artifact::emit(
        "fault_tolerance",
        Json::obj(summary.into_iter().chain(runs_json)),
    );
}
