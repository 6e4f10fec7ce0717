//! Cross-process chaos harness for the E21 service-recovery matrix.
//!
//! `tests/service_crash.rs` spawns this binary to die for real —
//! `std::process::exit(9)` fired from inside the job journal's
//! [`BoundaryHook`], no unwinding, no destructors — and then spawns it
//! again over the same durable root to check that a *fresh process*
//! replays exactly the incomplete jobs and assembles a deterministic
//! report byte-identical to an uninterrupted run. Modes:
//!
//! * `clean <root> <workers> <cell>` — run the fixed 8-job workload to
//!   completion over a fresh durable root; print
//!   `<det-fp> <boundaries> <jobs>` (hex, dec, dec) where `boundaries`
//!   is the total number of journal boundary events a run crosses (the
//!   kill sweep's range) and `jobs` is the completed-job counter;
//! * `kill <root> <workers> <boundary> <cell>` — same workload, but the
//!   hook exits 9 the moment boundary event `<boundary>` fires. If the
//!   cell's disk fault wedges the journal first, no further boundaries
//!   fire and the run completes normally (exit 0, `clean`-style line) —
//!   the service stays available on a wedged journal by design;
//! * `recover <root> <workers> <cell>` — rebuild the service over the
//!   same root, resubmit the suffix of the workload from
//!   `recovery().next_seq` on (the submitter is single-threaded, so any
//!   journal loss is exactly a suffix of the admission order), and
//!   print `<det-fp> <admitted> <results> <replayed> <resubmitted>`.
//!
//! The fingerprint is FNV-64 over the JSON of `report.deterministic()`
//! with the `service.workers` gauge removed, so 1/2/8-worker runs —
//! and crashed-then-recovered runs — must all print the same hex.
//!
//! Cells: `none` (fault-free), `torn:<op>` / `short:<op>` /
//! `fsync:<op>` (one injected journal-disk fault, positional), `pipe`
//! (seeded transient verification faults — the deterministic stand-in
//! for lock-timeout retries, which real contention would make
//! schedule-dependent; both exercise the same release-locks-and-retry
//! path in `execute_job`).

use dbpc::convert::journal::BoundaryHook;
use dbpc::convert::service::{
    ConversionService, RetryPolicy, ServiceBuilder, ServiceConfig, Ticket, SERVICE_JOBS,
    SERVICE_WORKERS,
};
use dbpc::convert::supervisor::fault::FaultPlan;
use dbpc::convert::Supervisor;
use dbpc::corpus::gen::{generate_program, ProgramClass};
use dbpc::corpus::named;
use dbpc::datamodel::error::Stage;
use dbpc::dml::host::Program;
use dbpc::engine::Inputs;
use dbpc::obs::metrics::MetricsFrame;
use dbpc::obs::report::RunReport;
use dbpc::storage::disk::codec::fnv64;
use dbpc::storage::disk::{DiskFault, DiskFaultPlan};
use std::path::Path;
use std::process::exit;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Exit code for the deliberate mid-boundary kill.
const EXIT_KILLED: i32 = 9;

/// Workload size: enough to cross every journal record kind several
/// times while keeping the boundary sweep (kill at *every* index ×
/// worker counts × fault cells) affordable.
const JOBS: usize = 8;
const SEED: u64 = 1979;

/// The fixed job list: E19's 80/20 read/mutate mix, shrunk. Seeds cycle
/// so the ground-truth memo sees repeats; keys are distinct per job.
fn jobs() -> Vec<(Program, u64)> {
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
    (0..JOBS)
        .map(|i| {
            let class = if i % 5 == 4 {
                MUTATE[i % MUTATE.len()]
            } else {
                READ[i % READ.len()]
            };
            let seed = SEED.wrapping_mul(0x9E37_79B9).wrapping_add((i % 4) as u64);
            (generate_program(class, seed), SEED.wrapping_add(i as u64))
        })
        .collect()
}

/// Parse a cell spec into the supervisor fault plan it stands for.
fn cell_plan(cell: &str) -> FaultPlan {
    if cell == "none" {
        return FaultPlan::none();
    }
    if cell == "pipe" {
        // Seeded transient faults in the verification stage: retryable
        // (`PipelineError::Injected`), deterministic per (stage, key,
        // attempt) — the same demote-or-retry decisions land regardless
        // of worker count or crash position.
        return FaultPlan::seeded(SEED, 0.25).in_stages(&[Stage::Verification]);
    }
    let Some((kind, at)) = cell.split_once(':') else {
        usage();
    };
    let fault = match kind {
        "torn" => DiskFault::TornWrite,
        "short" => DiskFault::ShortWrite,
        "fsync" => DiskFault::FsyncFail,
        _ => usage(),
    };
    let at: u64 = at.parse().unwrap_or_else(|_| usage());
    FaultPlan::none().with_disk_faults(DiskFaultPlan::default().with_fault_at(at, fault))
}

/// Build the service over `root` with the cell's fault plan. Backoff is
/// enabled (non-zero base) so the `pipe` cell's retries actually walk
/// the deterministic schedule; the backoff only delays a retry, so no
/// job's *outcome* depends on wall-clock.
fn build(root: &Path, workers: usize, cell: &str, hook: Option<BoundaryHook>) -> ConversionService {
    let supervisor = Supervisor {
        fault: cell_plan(cell),
        ..Supervisor::default()
    };
    let mut b = ServiceBuilder::new(ServiceConfig {
        workers,
        retry: RetryPolicy {
            retries: 2,
            backoff_base: Duration::from_micros(200),
            backoff_cap: Duration::from_millis(2),
            ..RetryPolicy::default()
        },
        supervisor,
        durable_root: Some(root.to_path_buf()),
        journal_hook: hook,
        ..ServiceConfig::default()
    });
    b.register_context(
        &named::company_schema(),
        &named::fig_4_4_restructuring(),
        named::company_db(2, 2, 6),
        Inputs::new().with_terminal(&["RETRIEVE"]),
    )
    .unwrap_or_else(|e| {
        eprintln!("service_crash: register_context: {e}");
        exit(1);
    });
    b.start()
}

/// FNV-64 over the deterministic report's JSON, minus the
/// `service.workers` gauge (the one deterministic metric that honestly
/// differs across worker counts).
fn det_fingerprint(report: &RunReport) -> u64 {
    let det = report.deterministic();
    let mut metrics = MetricsFrame::new();
    for (name, value) in det.metrics.iter() {
        if name != SERVICE_WORKERS {
            metrics.set(name, *value);
        }
    }
    let stripped = RunReport {
        label: det.label,
        spans: det.spans,
        metrics,
    };
    if std::env::var_os("DBPC_CRASH_DUMP").is_some() {
        eprintln!("{}", stripped.to_json());
    }
    fnv64(stripped.to_json().as_bytes())
}

/// `clean` and `kill` share a driver: submit the whole workload from
/// this (single) thread, wait, shut down. With `kill_at` set the hook
/// exits 9 at that boundary index; the submitter being single-threaded
/// is what makes any journal loss a *suffix* of the admission order.
fn run_drive(root: &Path, workers: usize, kill_at: Option<u64>, cell: &str) {
    let boundaries = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&boundaries);
    let hook = BoundaryHook::new(move |_event, index| {
        counter.fetch_add(1, Ordering::SeqCst);
        if Some(index) == kill_at {
            exit(EXIT_KILLED);
        }
    });
    let service = build(root, workers, cell, Some(hook));
    let session = service.session();
    let tickets: Vec<Ticket> = jobs()
        .into_iter()
        .map(|(program, key)| {
            session.submit(0, program, key).unwrap_or_else(|e| {
                eprintln!("service_crash: submit: {e}");
                exit(1);
            })
        })
        .collect();
    for t in tickets {
        t.wait();
    }
    let report = service.shutdown();
    println!(
        "{:016x} {} {}",
        det_fingerprint(&report),
        boundaries.load(Ordering::SeqCst),
        report.metrics.counter(SERVICE_JOBS),
    );
}

/// `recover`: reopen the root (journal faults off — positional specs
/// would re-fire on replay ops), resubmit the lost suffix, and print
/// the recovered report's fingerprint plus the recovery accounting.
fn run_recover(root: &Path, workers: usize, cell: &str) {
    let service = build(root, workers, cell, None);
    let recovery = service.recovery();
    let all = jobs();
    let resubmit = &all[(recovery.next_seq as usize).min(all.len())..];
    let resubmitted = resubmit.len();
    let session = service.session();
    let tickets: Vec<Ticket> = resubmit
        .iter()
        .map(|(program, key)| {
            session
                .submit(0, program.clone(), *key)
                .unwrap_or_else(|e| {
                    eprintln!("service_crash: resubmit: {e}");
                    exit(1);
                })
        })
        .collect();
    for t in tickets {
        t.wait();
    }
    let report = service.shutdown();
    println!(
        "{:016x} {} {} {} {}",
        det_fingerprint(&report),
        recovery.admitted,
        recovery.results,
        recovery.replayed,
        resubmitted,
    );
}

fn usage() -> ! {
    eprintln!(
        "usage: service_crash clean <root> <workers> <cell>\n\
        \x20      service_crash kill <root> <workers> <boundary> <cell>\n\
        \x20      service_crash recover <root> <workers> <cell>\n\
        cell: none | pipe | torn:<op> | short:<op> | fsync:<op>"
    );
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mode = args.get(1).map(String::as_str).unwrap_or("");
    match mode {
        "clean" | "recover" if args.len() == 5 => {
            let root = Path::new(&args[2]);
            let workers: usize = args[3].parse().unwrap_or_else(|_| usage());
            if mode == "clean" {
                run_drive(root, workers, None, &args[4]);
            } else {
                run_recover(root, workers, &args[4]);
            }
        }
        "kill" if args.len() == 6 => {
            let root = Path::new(&args[2]);
            let workers: usize = args[3].parse().unwrap_or_else(|_| usage());
            let boundary: u64 = args[4].parse().unwrap_or_else(|_| usage());
            run_drive(root, workers, Some(boundary), &args[5]);
        }
        _ => usage(),
    }
}
