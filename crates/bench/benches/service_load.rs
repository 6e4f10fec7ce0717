//! Experiment E19: sustained load on the concurrent conversion service.
//!
//! A load generator queues ≥1000 conversion jobs (80% read-only, 20%
//! mutating — the service's design mix) against one shared company
//! context and measures, at 1, 2, and 8 workers:
//!
//! - **Throughput** — jobs/sec over the whole queue, wall clock;
//! - **Latency** — per-job submit-to-completion p50/p99;
//! - **Concurrency-control cost** — lock counters, queue-depth high-water,
//!   and backpressure waits from the service's own `RunReport`.
//!
//! The **baseline** is the shape the service replaces: the per-job
//! pipeline, which rebuilds the conversion (mapping + analysis), re-runs
//! data translation, and re-executes the ground truth for every job
//! against its own private engines. The service amortizes all of that
//! across the queue (shared contexts, replica pools, memoized truth
//! traces), which is where its speedup comes from — it is therefore
//! hardware-independent, and the 2× gate below holds even on a single
//! hardware thread, where worker parallelism alone could never produce it.
//!
//! Each worker count is timed against the baseline in alternating rounds
//! ([`paired::ratio`]): the per-round ratio is the baseline's wall time
//! over the service's, and the median of those ratios is the speedup.
//!
//! Gates asserted on every timed service run (smoke included):
//!
//! - zero poisoned jobs at every worker count;
//! - every `(report, level)` byte-identical to the serial reference
//!   (`ServiceBuilder::run_serial`) at every worker count.
//!
//! Full runs additionally assert the timing gate: the 8-worker service's
//! speedup over the per-job baseline ≥ 2.
//!
//! Smoke mode (`DBPC_BENCH_SMOKE=1`): 120 jobs, one round, no artifact
//! written — the CI guard. As with the planner bench, the equivalence and
//! poison gates stay active in smoke but the timing gate is skipped: at
//! 120 jobs under a loaded CI host the throughput ratio is dominated by
//! scheduling noise rather than by the amortization being measured.

use std::time::Duration;

use dbpc_bench::paired::{self, timed, Paired};
use dbpc_bench::{artifact, service_builder, service_jobs, submit_all, SERVICE_SEED};
use dbpc_convert::equivalence::{check_equivalence, EquivalenceLevel};
use dbpc_convert::report::{AutoAnalyst, Verdict};
use dbpc_convert::service::{
    CtxId, JobOutcome, ServiceConfig, Ticket, SERVICE_BACKPRESSURE_WAITS, SERVICE_QUEUE_DEPTH_MAX,
};
use dbpc_convert::Supervisor;
use dbpc_corpus::named;
use dbpc_dml::host::Program;
use dbpc_engine::Inputs;
use dbpc_obs::json::Json;
use dbpc_storage::locks::{LOCKS_EXCLUSIVE, LOCKS_SHARED, LOCKS_TIMEOUTS, LOCKS_WAITS};

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// The per-job pipeline the service replaces: every job rebuilds the
/// conversion, retranslates the data, and reruns its own ground truth.
fn baseline_job(job: &(CtxId, Program, u64)) -> (Verdict, Option<EquivalenceLevel>) {
    let schema = named::company_schema();
    let restructuring = named::fig_4_4_restructuring();
    let source = named::company_db(2, 2, 6);
    let report = Supervisor::new()
        .convert(&schema, &restructuring, &job.1, &mut AutoAnalyst)
        .unwrap();
    if !report.succeeded() {
        return (report.verdict, None);
    }
    let Some(converted) = report.program.as_ref() else {
        return (report.verdict, None);
    };
    let target = restructuring.translate(&source).unwrap();
    // A runtime error during verification demotes the job (the service
    // does the same); the baseline still paid for the translation and the
    // partial runs, which is the point of timing it.
    match check_equivalence(
        source,
        &job.1,
        target,
        converted,
        &Inputs::new().with_terminal(&["RETRIEVE"]),
        &report.warnings,
    ) {
        Ok(eq) => (report.verdict, Some(eq.level)),
        Err(_) => (Verdict::NeedsManualWork, None),
    }
}

fn percentile_ms(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * q).round() as usize;
    sorted_ns[idx] as f64 / 1e6
}

fn main() {
    let smoke = artifact::smoke();
    let (jobs_n, rounds) = if smoke { (120, 1) } else { (1000, 5) };
    let jobs = service_jobs(jobs_n);
    let mutating = jobs_n / 5;
    let config = |workers| ServiceConfig {
        workers,
        ..ServiceConfig::default()
    };

    // ---- Serial reference --------------------------------------------------
    // The acceptance bar every concurrent run is compared against.
    let serial: Vec<JobOutcome> = service_builder(config(1)).run_serial(&jobs).unwrap();
    assert!(
        serial.iter().all(|o| o.report.verdict != Verdict::Poisoned),
        "serial reference poisoned a job"
    );
    let verified = serial.iter().filter(|o| o.level.is_some()).count();

    // ---- Per-job pipeline baseline ----------------------------------------
    let baseline = || {
        let (d, verdicts) = timed(|| jobs.iter().map(baseline_job).collect::<Vec<_>>());
        assert!(verdicts.iter().all(|(v, _)| *v != Verdict::Poisoned));
        d
    };

    // ---- Service under load at 1 / 2 / 8 workers, paired with the baseline -
    // Each worker count's artifact entry reads its last timed run.
    let per_sec = |d: Duration| jobs_n as f64 / d.as_secs_f64();
    let runs: Vec<(Paired, Json)> = WORKER_COUNTS
        .iter()
        .map(|&workers| {
            let mut last = None;
            let service = || {
                let svc = service_builder(config(workers)).start();
                let (d, outcomes) = timed(|| {
                    let tickets = submit_all(&svc, &jobs);
                    tickets.into_iter().map(Ticket::wait).collect::<Vec<_>>()
                });
                let report = svc.shutdown();
                for (s, c) in serial.iter().zip(&outcomes) {
                    assert_eq!(
                        (&s.report, &s.level),
                        (&c.report, &c.level),
                        "outcome at seq {} differs from the serial run ({workers} workers)",
                        s.seq
                    );
                }
                let poisoned = (outcomes.iter())
                    .filter(|o| o.report.verdict == Verdict::Poisoned)
                    .count();
                assert_eq!(poisoned, 0, "{workers} workers poisoned {poisoned} jobs");
                last = Some((outcomes, report));
                d
            };
            let vs_baseline = paired::ratio(rounds, baseline, service);
            let (outcomes, report) = last.expect("a timed service run");
            let mut latencies: Vec<u64> = outcomes.iter().map(|o| o.queue_ns + o.exec_ns).collect();
            latencies.sort_unstable();
            let counter = |name| Json::from(report.metrics.counter(name));
            let json = Json::obj([
                ("workers", Json::from(workers)),
                (
                    "baseline_vs_service",
                    vs_baseline.json("baseline", "service"),
                ),
                ("jobs_per_sec", per_sec(vs_baseline.b).into()),
                ("latency_p50_ms", percentile_ms(&latencies, 0.50).into()),
                ("latency_p99_ms", percentile_ms(&latencies, 0.99).into()),
                ("poisoned", 0.into()),
                ("identical_to_serial", true.into()),
                ("queue_depth_max", counter(SERVICE_QUEUE_DEPTH_MAX)),
                ("backpressure_waits", counter(SERVICE_BACKPRESSURE_WAITS)),
                ("locks_shared", counter(LOCKS_SHARED)),
                ("locks_exclusive", counter(LOCKS_EXCLUSIVE)),
                ("locks_waits", counter(LOCKS_WAITS)),
                ("locks_timeouts", counter(LOCKS_TIMEOUTS)),
            ]);
            (vs_baseline, json)
        })
        .collect();

    // ---- The 2× amortization gate (timing: full runs only) ----------------
    let eight = &runs[WORKER_COUNTS.iter().position(|&w| w == 8).unwrap()].0;
    if !smoke {
        assert!(
            eight.ratio >= 2.0,
            "8-worker service only {:.2}x the per-job baseline (gate 2x)",
            eight.ratio
        );
    }

    // ---- Emit artifact ----------------------------------------------------
    artifact::emit(
        "service_load",
        Json::obj([
            ("seed", Json::from(SERVICE_SEED)),
            ("jobs", jobs_n.into()),
            ("mutating_jobs", mutating.into()),
            ("verified_jobs", verified.into()),
            ("rounds", rounds.into()),
            (
                "baseline_per_job_pipeline_jobs_per_sec",
                per_sec(eight.a).into(),
            ),
            (
                "service",
                Json::Arr(runs.iter().map(|(_, j)| j.clone()).collect()),
            ),
            ("speedup_8_workers_vs_baseline", eight.ratio.into()),
            ("gate_2x_amortization", true.into()),
        ]),
    );
}
