//! Experiment E21 (bench half): what crash recovery *costs*.
//!
//! The chaos matrix (`tests/service_crash.rs`) proves a restarted
//! service converges on a byte-identical report; this bench prices the
//! convergence. A 200-job run is halted at its midpoint — `halt()`
//! closes the queue, abandons the journal un-finalized, and returns,
//! which is the closest an in-process harness gets to `exit(9)` — and
//! the timed recovery (reopen the root, replay exactly the incomplete
//! jobs, drain, shut down) is compared against the only alternative a
//! journal-less operator has: re-running the whole workload from
//! scratch, because without the journal nobody knows which results
//! survived.
//!
//! Gates asserted on every run (smoke included):
//!
//! - the recovered report's deterministic projection is byte-identical
//!   to an uninterrupted run's (`RunReport::deterministic` equality);
//! - recovery accounting partitions: `admitted = results + replayed`,
//!   with nothing left pending after a bounded-time drain journals its
//!   sheds (a reopened service replays zero jobs);
//! - the seeded retry backoff schedule is deterministic: two policies
//!   with the same seed agree on every (key, attempt) delay, a
//!   different seed disagrees somewhere, and every delay respects the
//!   cap and the half-to-full jitter window.
//!
//! Full runs additionally assert the timing gate: recovery and re-run
//! run in alternating rounds ([`paired::ratio`]), each round over a fresh
//! crash, and the median per-round ratio recovery / re-run is ≤ 0.8. The
//! journal makes that hardware-independent: recovery translates the
//! context exactly as the re-run does and re-executes only the lost
//! suffix, so it does strictly less work than the re-run at any thread
//! count.
//!
//! Smoke mode (`DBPC_BENCH_SMOKE=1`): 40 jobs, one round, timing gate
//! skipped (scheduling noise dominates at that size), no artifact
//! written.

use std::time::Duration;

use dbpc_bench::paired::{self, timed};
use dbpc_bench::{artifact, service_builder, service_jobs, submit_all, SERVICE_SEED};
use dbpc_convert::journal::{JobJournal, JournalRecord};
use dbpc_convert::service::{
    ConversionService, JobOutcome, RetryPolicy, ServiceConfig, Ticket, SERVICE_JOBS, SERVICE_SHED,
};
use dbpc_datamodel::error::PipelineError;
use dbpc_obs::json::Json;
use dbpc_storage::TempDir;
use std::path::Path;

const WORKERS: usize = 2;

fn service(root: &Path, workers: usize) -> ConversionService {
    service_builder(ServiceConfig {
        workers,
        durable_root: Some(root.to_path_buf()),
        ..ServiceConfig::default()
    })
    .start()
}

fn main() {
    let smoke = artifact::smoke();
    let (jobs_n, rounds) = if smoke { (40, 1) } else { (200, 5) };
    let jobs = service_jobs(jobs_n);
    let midpoint = jobs_n / 2;

    // ---- Uninterrupted reference ----------------------------------------
    // The byte-identity reference every re-run and recovery must match.
    let ref_dir = TempDir::new("e21-bench-reference").expect("tempdir");
    let svc = service(ref_dir.path(), WORKERS);
    for ticket in submit_all(&svc, &jobs) {
        ticket.wait();
    }
    let clean = svc.shutdown().deterministic();

    // ---- From-scratch re-run --------------------------------------------
    // After a crash without a journal the operator re-runs everything:
    // survivors are indistinguishable from losses. This is that baseline's
    // price: start, every job, shut down.
    let rerun = || {
        let dir = TempDir::new("e21-bench-rerun").expect("tempdir");
        let (d, report) = timed(|| {
            let svc = service(dir.path(), WORKERS);
            for ticket in submit_all(&svc, &jobs) {
                ticket.wait();
            }
            svc.shutdown()
        });
        assert_eq!(
            report.metrics.counter(SERVICE_JOBS),
            jobs_n as u64,
            "uninterrupted run must execute every job"
        );
        assert_eq!(report.deterministic(), clean, "re-run diverged");
        d
    };

    // ---- Midpoint crash, then timed recovery ----------------------------
    // The crash state to price: first half completed and durable, second
    // half admitted (fsynced) but never executed — a kill right after
    // the last admission's fsync. An in-process harness cannot freeze
    // its own workers mid-queue (they drain faster than admissions
    // arrive), so the lost half is staged through the journal's own
    // public API; the *real* process kills at every boundary are
    // `tests/service_crash.rs`' job, and E21 proves this state is
    // exactly what they leave behind.
    let mut last_recovery = None;
    let recover = || {
        let crash_dir = TempDir::new("e21-bench-crash").expect("tempdir");
        let svc = service(crash_dir.path(), WORKERS);
        for ticket in submit_all(&svc, &jobs[..midpoint]) {
            ticket.wait();
        }
        svc.shutdown();
        let (mut journal, scan) = JobJournal::open(&crash_dir.path().join("journal"), None, None)
            .expect("reopen journal to stage the lost admissions");
        assert_eq!(scan.next_seq, midpoint as u64);
        for (i, (ctx, program, key)) in jobs[midpoint..].iter().enumerate() {
            journal.append(&JournalRecord::admit(
                scan.next_seq + i as u64,
                0,
                *ctx,
                *key,
                program,
            ));
        }
        assert_eq!(journal.errors(), 0, "staging admissions must not fault");
        drop(journal); // admits are already fsynced; a crash loses nothing

        let (d, (recovery, report)) = timed(|| {
            let svc = service(crash_dir.path(), WORKERS);
            let recovery = svc.recovery();
            (recovery, svc.shutdown())
        });
        assert_eq!(
            recovery.admitted, jobs_n as u64,
            "every admission was fsynced before its ticket existed"
        );
        assert_eq!(
            recovery.results + recovery.replayed,
            jobs_n as u64,
            "recovered results and replayed jobs must partition the admissions"
        );
        assert_eq!(
            recovery.replayed,
            (jobs_n - midpoint) as u64,
            "the lost half must come back via replay, nothing more"
        );
        assert_eq!(
            report.deterministic(),
            clean,
            "recovered report must be byte-identical to the uninterrupted run"
        );
        last_recovery = Some(recovery);
        d
    };

    let timing = paired::ratio(rounds, recover, rerun);
    let recovery = last_recovery.expect("a timed recovery");
    if !smoke {
        assert!(
            timing.ratio <= 0.8,
            "midpoint recovery above 0.8x the from-scratch re-run: ratio {:.2} \
             (per-round ratios: {:?})",
            timing.ratio,
            timing.ratios
        );
    }

    // ---- Deterministic backoff schedule ---------------------------------
    let policy = RetryPolicy {
        retries: 6,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(64),
        ..RetryPolicy::default()
    };
    let again = policy.clone();
    let reseeded = RetryPolicy {
        backoff_seed: policy.backoff_seed ^ 0xDEAD_BEEF,
        ..policy.clone()
    };
    let mut schedules_differ = false;
    for key in [3u64, 1979, u64::MAX] {
        for attempt in 1..=6usize {
            let d = policy.backoff(key, attempt);
            assert_eq!(
                d,
                again.backoff(key, attempt),
                "same seed must reproduce the schedule (key {key}, attempt {attempt})"
            );
            schedules_differ |= d != reseeded.backoff(key, attempt);
            assert!(
                d <= policy.backoff_cap,
                "delay above cap at attempt {attempt}"
            );
            // Jitter window: [0.5, 1.0) of the capped exponential step.
            let step = policy
                .backoff_base
                .saturating_mul(1u32 << (attempt - 1).min(20))
                .min(policy.backoff_cap);
            assert!(
                d >= step.mul_f64(0.5) && d < step,
                "delay {d:?} outside the jitter window of {step:?}"
            );
        }
    }
    assert!(
        schedules_differ,
        "reseeding must move the schedule somewhere"
    );

    // ---- Deterministic shed accounting under bounded drain --------------
    // A zero-budget drain sheds whatever is still queued; the journal
    // records every shed, so a reopened service has nothing to replay —
    // shed jobs were *reported* failed, replaying them would violate
    // exactly-once.
    let drain_dir = TempDir::new("e21-bench-drain").expect("tempdir");
    let svc = service(drain_dir.path(), 1);
    let tickets = submit_all(&svc, &jobs);
    let drain_report = svc.shutdown_within(Duration::ZERO);
    let outcomes: Vec<JobOutcome> = tickets.into_iter().map(Ticket::wait).collect();
    let shed_outcomes = outcomes
        .iter()
        .filter(|o| {
            o.report
                .fallbacks
                .iter()
                .any(|f| matches!(f.error, PipelineError::Overloaded { .. }))
        })
        .count() as u64;
    let drained_jobs = drain_report.metrics.counter(SERVICE_JOBS);
    let drained_shed = drain_report.metrics.counter(SERVICE_SHED);
    assert_eq!(
        drained_jobs + drained_shed,
        jobs_n as u64,
        "drain must account every admission as executed or shed"
    );
    assert_eq!(
        drained_shed, shed_outcomes,
        "every shed must surface to its ticket as a rejection"
    );
    let svc = service(drain_dir.path(), 1);
    let after_drain = svc.recovery();
    drop(svc);
    assert_eq!(
        after_drain.replayed, 0,
        "journaled sheds must not be replayed (exactly-once)"
    );
    assert_eq!(
        after_drain.results + after_drain.shed,
        jobs_n as u64,
        "reopened journal must account every drained admission"
    );

    // ---- Emit artifact --------------------------------------------------
    artifact::emit(
        "service_recovery",
        Json::obj([
            ("seed", Json::from(SERVICE_SEED)),
            ("jobs", jobs_n.into()),
            ("workers", WORKERS.into()),
            ("rounds", rounds.into()),
            (
                "midpoint_crash",
                Json::obj([
                    ("completed_before_crash", Json::from(midpoint)),
                    ("results_recovered", recovery.results.into()),
                    ("jobs_replayed", recovery.replayed.into()),
                    ("byte_identical_report", true.into()),
                ]),
            ),
            ("recovery_vs_rerun", timing.json("recovery", "rerun")),
            ("gate_recovery_below_0_8x", (!smoke).into()),
            (
                "bounded_drain",
                Json::obj([
                    ("executed", Json::from(drained_jobs)),
                    ("shed", drained_shed.into()),
                    ("replayed_after_reopen", after_drain.replayed.into()),
                ]),
            ),
            ("backoff_deterministic", true.into()),
        ]),
    );
}
