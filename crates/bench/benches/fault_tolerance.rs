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
//! - **Supervision cost** — the wall-clock cost of the supervision
//!   (catch_unwind, retries, fallback rungs) at each fault rate, as the
//!   median per-round ratio of the faulted descent over the idle one run
//!   in alternating rounds ([`paired::ratio`]).
//!
//! Invariants asserted on every run, timed ones included:
//!
//! - With the fault machinery present but idle, the plain (ladder-free)
//!   pipeline renders a study matrix **byte-identical** to the seed
//!   pipeline's — robustness is free when nothing fails.
//! - Under injected faults, every program the plan did *not* hit produces
//!   a report byte-identical to the fault-free run — faults never leak
//!   across programs.
//!
//! - Every descent is deterministic: each timed run's reports equal the
//!   first run's at the same fault rate.
//!
//! Smoke mode (`DBPC_BENCH_SMOKE=1`): one sample per cell, one timed
//! round, all assertions active, no artifact written — the CI guard.

use std::time::Duration;

use dbpc_bench::artifact;
use dbpc_bench::paired::{self, timed};
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
    reports: Vec<ConversionReport>,
}

/// One timed ladder descent under `config`, checked against `run`'s
/// reports: the descent is deterministic.
fn descent(run: &FaultRun, config: StudyConfig) -> impl FnMut() -> Duration + '_ {
    move || {
        let (d, reports) = timed(|| ladder_reports(&config));
        assert_eq!(
            reports, run.reports,
            "{}: descent is deterministic",
            run.label
        );
        d
    }
}

fn main() {
    let (samples, rounds) = if artifact::smoke() { (1, 1) } else { (2, 3) };
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
    let runs = [
        ("no_faults", 0.0),
        ("faults_5pct", 0.05),
        ("faults_20pct", 0.20),
    ]
    .map(|(label, probability)| FaultRun {
        label,
        probability,
        reports: ladder_reports(&config(probability)),
    });

    // Each faulted descent against the idle one.
    let timings: Vec<_> = (runs[1..].iter())
        .map(|run| {
            let faulted = descent(run, config(run.probability));
            let idle = descent(&runs[0], config(0.0));
            let p = paired::ratio(rounds, faulted, idle);
            (
                format!("{}_vs_{}", run.label, runs[0].label),
                p.json("faulted", "idle"),
            )
        })
        .collect();

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
    let runs_json = runs
        .iter()
        .map(|run| (run.label.to_string(), run_json(run)));
    let summary = summary.into_iter().map(|(k, v)| (k.to_string(), v));
    artifact::emit(
        "fault_tolerance",
        Json::obj(summary.chain(runs_json).chain(timings)),
    );
}
