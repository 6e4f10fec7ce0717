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
//! Full runs additionally assert the timing gate: midpoint-crash
//! recovery ≤ 0.8× the from-scratch re-run. The journal makes that
//! hardware-independent: recovery translates the context exactly as the
//! re-run does and re-executes only the lost suffix, so it does strictly
//! less work than the re-run at any thread count.
//!
//! Smoke mode (`DBPC_BENCH_SMOKE=1`): 40 jobs, timing gate skipped
//! (scheduling noise dominates at that size), no artifact written.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use dbpc_convert::journal::JobJournal;
use dbpc_convert::service::{
    ConversionService, JobOutcome, RetryPolicy, ServiceBuilder, ServiceConfig, Ticket,
    SERVICE_JOBS, SERVICE_SHED,
};
use dbpc_corpus::gen::{generate_program, ProgramClass};
use dbpc_corpus::named;
use dbpc_datamodel::error::PipelineError;
use dbpc_dml::host::Program;
use dbpc_engine::Inputs;
use dbpc_storage::TempDir;
use std::path::Path;

const SEED: u64 = 1979;
const WORKERS: usize = 2;

/// E19's 80/20 read/mutate mix: the service's design traffic.
fn workload(n: usize) -> Vec<(Program, u64)> {
    const READ: [ProgramClass; 4] = [
        ProgramClass::PlainReport,
        ProgramClass::SortedReport,
        ProgramClass::AggregateOnly,
        ProgramClass::VirtualRef,
    ];
    const MUTATE: [ProgramClass; 4] = [
        ProgramClass::StoreEmp,
        ProgramClass::ModifyAge,
        ProgramClass::ModifyDept,
        ProgramClass::DeleteEmp,
    ];
    let seeds = (n / 20).max(8);
    (0..n)
        .map(|i| {
            let class = if i % 5 == 4 {
                MUTATE[i % MUTATE.len()]
            } else {
                READ[i % READ.len()]
            };
            let seed = SEED
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add((i % seeds) as u64);
            (generate_program(class, seed), SEED.wrapping_add(i as u64))
        })
        .collect()
}

fn service(root: &Path, workers: usize) -> ConversionService {
    let mut b = ServiceBuilder::new(ServiceConfig {
        workers,
        durable_root: Some(root.to_path_buf()),
        ..ServiceConfig::default()
    });
    b.register_context(
        &named::company_schema(),
        &named::fig_4_4_restructuring(),
        named::company_db(2, 2, 6),
        Inputs::new().with_terminal(&["RETRIEVE"]),
    )
    .expect("register company context");
    b.start()
}

fn submit_all(svc: &ConversionService, jobs: &[(Program, u64)]) -> Vec<Ticket> {
    let session = svc.session();
    jobs.iter()
        .map(|(p, k)| session.submit(0, p.clone(), *k).expect("submit"))
        .collect()
}

fn main() {
    let smoke = std::env::var("DBPC_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let jobs_n = if smoke { 40 } else { 200 };
    let jobs = workload(jobs_n);
    let midpoint = jobs_n / 2;

    // ---- Uninterrupted reference (also the from-scratch re-run cost) ----
    // After a crash without a journal the operator re-runs everything:
    // survivors are indistinguishable from losses. This run is both the
    // byte-identity reference and that baseline's price.
    let rerun_dir = TempDir::new("e21-bench-rerun").expect("tempdir");
    let t = Instant::now();
    let svc = service(rerun_dir.path(), WORKERS);
    for ticket in submit_all(&svc, &jobs) {
        ticket.wait();
    }
    let clean_report = svc.shutdown();
    let rerun_ns = t.elapsed().as_nanos();
    assert_eq!(
        clean_report.metrics.counter(SERVICE_JOBS),
        jobs_n as u64,
        "uninterrupted run must execute every job"
    );

    // ---- Midpoint crash -------------------------------------------------
    // The crash state to price: first half completed and durable, second
    // half admitted (fsynced) but never executed — a kill right after
    // the last admission's fsync. An in-process harness cannot freeze
    // its own workers mid-queue (they drain faster than admissions
    // arrive), so the lost half is staged through the journal's own
    // public API; the *real* process kills at every boundary are
    // `tests/service_crash.rs`' job, and E21 proves this state is
    // exactly what they leave behind.
    let crash_dir = TempDir::new("e21-bench-crash").expect("tempdir");
    let svc = service(crash_dir.path(), WORKERS);
    let mut completed_before_crash = 0u64;
    for ticket in submit_all(&svc, &jobs[..midpoint]) {
        ticket.wait();
        completed_before_crash += 1;
    }
    svc.shutdown();
    let (mut journal, scan) = JobJournal::open(&crash_dir.path().join("journal"), None, None)
        .expect("reopen journal to stage the lost admissions");
    assert_eq!(scan.next_seq, midpoint as u64);
    for (i, (program, key)) in jobs[midpoint..].iter().enumerate() {
        journal.admit(scan.next_seq + i as u64, 0, 0, *key, program);
    }
    assert_eq!(journal.errors(), 0, "staging admissions must not fault");
    drop(journal); // admits are already fsynced; a crash loses nothing

    // ---- Timed recovery -------------------------------------------------
    let t = Instant::now();
    let svc = service(crash_dir.path(), WORKERS);
    let recovery = svc.recovery();
    let recovered_report = svc.shutdown();
    let recovery_ns = t.elapsed().as_nanos();

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
        recovered_report.deterministic(),
        clean_report.deterministic(),
        "recovered report must be byte-identical to the uninterrupted run"
    );

    let ratio = recovery_ns as f64 / rerun_ns.max(1) as f64;
    if !smoke {
        assert!(
            ratio <= 0.8,
            "midpoint recovery ({recovery_ns} ns) above 0.8x the from-scratch \
             re-run ({rerun_ns} ns): ratio {ratio:.2}"
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
    let mut json = String::new();
    let w = &mut json;
    writeln!(w, "{{").unwrap();
    writeln!(w, "  \"bench\": \"service_recovery\",").unwrap();
    writeln!(w, "  \"smoke\": {smoke},").unwrap();
    writeln!(w, "  \"seed\": {SEED},").unwrap();
    writeln!(w, "  \"jobs\": {jobs_n},").unwrap();
    writeln!(w, "  \"workers\": {WORKERS},").unwrap();
    writeln!(w, "  \"rerun_from_scratch_wall_ns\": {rerun_ns},").unwrap();
    writeln!(w, "  \"midpoint_crash\": {{").unwrap();
    writeln!(
        w,
        "    \"completed_before_crash\": {completed_before_crash},"
    )
    .unwrap();
    writeln!(w, "    \"recovery_wall_ns\": {recovery_ns},").unwrap();
    writeln!(w, "    \"results_recovered\": {},", recovery.results).unwrap();
    writeln!(w, "    \"jobs_replayed\": {},", recovery.replayed).unwrap();
    writeln!(w, "    \"byte_identical_report\": true").unwrap();
    writeln!(w, "  }},").unwrap();
    writeln!(w, "  \"recovery_vs_rerun_ratio\": {ratio:.3},").unwrap();
    writeln!(w, "  \"gate_recovery_below_0_8x\": {},", !smoke).unwrap();
    writeln!(w, "  \"bounded_drain\": {{").unwrap();
    writeln!(w, "    \"executed\": {drained_jobs},").unwrap();
    writeln!(w, "    \"shed\": {drained_shed},").unwrap();
    writeln!(w, "    \"replayed_after_reopen\": {}", after_drain.replayed).unwrap();
    writeln!(w, "  }},").unwrap();
    writeln!(w, "  \"backoff_deterministic\": true").unwrap();
    writeln!(w, "}}").unwrap();

    println!("{json}");
    if smoke {
        println!("smoke mode: artifact not written");
    } else {
        let out = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_service_recovery.json"
        );
        std::fs::write(out, &json).unwrap();
        println!("wrote {out}");
    }
}
