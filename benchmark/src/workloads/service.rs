//! `service`: the conversion service under a closed loop. Two client
//! threads, each with its own `Session`, submit one job and wait for its
//! verdict before sending the next, so at most two jobs are outstanding.
//! The service runs 2 workers over 8 contexts (the company database under
//! each E2 restructuring) with `durable_root` set, so every admission is
//! journaled and fsynced before `submit` returns.
//!
//! Jobs are 80% read-only and 20% mutating programs, each drawn by a
//! seeded Zipf(1.0) over its pool, so repeated and first-seen programs mix
//! throughout; the context is drawn uniformly. One service serves the
//! whole window; it is started on a fresh root several times beforehand,
//! each start one set-up sample, and the last start is the one measured.
//! The window runs in rounds of 1,000 jobs per client; between rounds no
//! job is outstanding, and the host is probed.
//!
//! Every job's `(report, level)` must equal `ServiceBuilder::run_serial`
//! for the same context and program, computed before the measured window.
//!
//! Unit of work and operation: a job, timed from submit to verdict.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::Instant;

use dbpc_convert::equivalence::EquivalenceLevel;
use dbpc_convert::report::{ConversionReport, Verdict};
use dbpc_convert::service::{
    ConversionService, CtxId, ServiceBuilder, ServiceConfig, SERVICE_BACKPRESSURE_WAITS,
    SERVICE_EXEC_NS, SERVICE_QUEUE_WAIT_NS, SERVICE_TRUTH_HITS, SERVICE_TRUTH_MISSES,
};
use dbpc_corpus::gen::{generate_program, ProgramClass, TransformClass};
use dbpc_corpus::named;
use dbpc_dml::host::Program;
use dbpc_engine::Inputs;
use dbpc_storage::locks::{LOCKS_TIMEOUTS, LOCKS_WAITS, LOCKS_WAIT_NS};

use super::{digest, ns_since, Ctx, Outcome};
use crate::host;
use crate::stats::{derive_seed, percentile, sorted, SplitMix64, Zipf};
use crate::trace::{self, obs_self_times, SpanId};

const WORKERS: usize = 2;
const CLIENTS: usize = 2;
const MUTATING_SHARE: f64 = 0.2;

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

struct Sizes {
    /// Programs in the pool; a fifth of them mutate.
    programs: usize,
    /// Jobs drawn in advance per client; a longer run reuses the sequence.
    drawn: usize,
    /// Each client's first jobs, which every run serves: the digest.
    digest_jobs: usize,
    /// Jobs each client runs per round; a round is one throughput segment.
    round_jobs: usize,
    /// Jobs served when peak memory is read.
    rss_jobs: u64,
}

const FULL: Sizes = Sizes {
    programs: 10_000,
    drawn: 80_000,
    digest_jobs: 1_500,
    round_jobs: 1_000,
    rss_jobs: 20_000,
};
const SMOKE: Sizes = Sizes {
    programs: 200,
    drawn: 400,
    digest_jobs: 100,
    round_jobs: 50,
    rss_jobs: 200,
};

/// Service starts timed as set-up; the last one serves the window.
const STARTS: usize = 15;

/// One drawn job: its context and its program's index in the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Job {
    ctx: CtxId,
    program: usize,
}

type Verdicts = HashMap<Job, (ConversionReport, Option<EquivalenceLevel>)>;

fn pool(seed: u64, n: usize) -> Vec<Program> {
    let mutating = (n as f64 * MUTATING_SHARE) as usize;
    (0..n)
        .map(|i| {
            let class = if i < mutating {
                MUTATE[i % MUTATE.len()]
            } else {
                READ[i % READ.len()]
            };
            generate_program(class, derive_seed(seed, i as u64))
        })
        .collect()
}

/// Each client's job sequence, drawn from the seed.
fn draw(seed: u64, sizes: &Sizes, contexts: usize) -> Vec<Vec<Job>> {
    let mutating = (sizes.programs as f64 * MUTATING_SHARE) as usize;
    let zipf_mut = Zipf::new(mutating, 1.0);
    let zipf_read = Zipf::new(sizes.programs - mutating, 1.0);
    (0..CLIENTS)
        .map(|c| {
            let mut rng = SplitMix64::new(derive_seed(seed, 1 << 32 | c as u64));
            (0..sizes.drawn)
                .map(|_| {
                    let program = if rng.unit() < MUTATING_SHARE {
                        zipf_mut.sample(&mut rng)
                    } else {
                        mutating + zipf_read.sample(&mut rng)
                    };
                    let ctx = rng.below(contexts as u64) as CtxId;
                    Job { ctx, program }
                })
                .collect()
        })
        .collect()
}

fn builder(durable_root: Option<&Path>) -> ServiceBuilder {
    let mut b = ServiceBuilder::new(ServiceConfig {
        workers: WORKERS,
        durable_root: durable_root.map(Path::to_path_buf),
        ..ServiceConfig::default()
    });
    for t in TransformClass::ALL {
        b.register_context(
            &named::company_schema(),
            &t.restructuring(),
            named::company_db(4, 3, 25),
            Inputs::new().with_terminal(&["RETRIEVE"]),
        )
        .unwrap_or_else(|e| panic!("context {t} must register: {e}"));
    }
    b
}

/// What one client measured.
#[derive(Default)]
struct ClientLog {
    /// Latency of each job, whether a traced run traced it, and its round.
    latency_ns: Vec<(f64, bool, usize)>,
    failed: u64,
    problems: Vec<String>,
}

/// What every client shares.
struct Load<'a> {
    ctx: &'a Ctx<'a>,
    svc: &'a ConversionService,
    programs: &'a [Program],
    verdicts: &'a Verdicts,
    round_jobs: usize,
    /// The clients and the main thread meet here at the end of a round,
    /// and again once the main thread has probed the host.
    rounds: Barrier,
    /// Set by the main thread when the window is over.
    stop: AtomicBool,
    /// Jobs completed by all clients so far.
    served: AtomicU64,
    /// Current and peak resident memory once `rss_jobs` jobs are served.
    rss_at: OnceLock<(u64, u64)>,
    rss_jobs: u64,
}

/// Run `f` in a span when `on`; a traced run traces every other job.
fn span<T>(
    ctx: &Ctx,
    on: bool,
    name: &'static str,
    op: u64,
    parent: Option<SpanId>,
    f: impl FnOnce(Option<SpanId>) -> T,
) -> T {
    if on {
        ctx.tracer.span(name, op, parent, f)
    } else {
        f(None)
    }
}

/// Client `id` submits its jobs in order, a round at a time, until the
/// window closes.
fn client(load: &Load, jobs: &[Job], id: usize) -> ClientLog {
    let Load {
        ctx,
        svc,
        programs,
        verdicts,
        ..
    } = load;
    let session = svc.session();
    let mut log = ClientLog::default();
    let mut i = 0;
    loop {
        if i > 0 && i % load.round_jobs == 0 {
            // The round is over; wait while the main thread probes.
            load.rounds.wait();
            load.rounds.wait();
            if load.stop.load(Ordering::Relaxed) {
                break;
            }
        }
        let job = jobs[i % jobs.len()];
        let program = programs[job.program].clone();
        let op = (id as u64) << 40 | i as u64;
        let on = ctx.tracer.enabled() && i.is_multiple_of(2);
        let t = Instant::now();
        let outcome = span(ctx, on, "job", op, None, |root| {
            let ticket = span(ctx, on, "service.submit", op, root, |_| {
                session.submit(job.ctx, program, op)
            });
            ticket.map(|t| span(ctx, on, "service.wait", op, root, |_| t.wait()))
        });
        log.latency_ns.push((ns_since(t), on, i / load.round_jobs));
        if load.served.fetch_add(1, Ordering::Relaxed) + 1 == load.rss_jobs {
            let _ = load.rss_at.set((host::rss_bytes(), host::peak_rss_bytes()));
        }
        let ok = match &outcome {
            Ok(o) => {
                let (report, level) = &verdicts[&job];
                o.report.verdict != Verdict::Poisoned && &o.report == report && &o.level == level
            }
            Err(_) => false,
        };
        if !ok {
            log.failed += 1;
            if log.problems.len() < 3 {
                log.problems.push(format!(
                    "job {i} of client {id} ({job:?}) differs from the serial reference: {:?}",
                    outcome.map(|o| o.report.verdict)
                ));
            }
        }
        i += 1;
    }
    log
}

pub fn run(ctx: &Ctx) -> Outcome {
    let sizes = if ctx.smoke { &SMOKE } else { &FULL };
    let mut out = Outcome::default();
    let programs = pool(derive_seed(ctx.seed, 0), sizes.programs);
    let contexts = TransformClass::ALL.len();
    let jobs = draw(ctx.seed, sizes, contexts);

    // The serial reference for every distinct (context, program) drawn.
    let distinct: Vec<Job> = {
        let mut d: Vec<Job> = jobs.iter().flatten().copied().collect();
        d.sort_unstable();
        d.dedup();
        d
    };
    let reference = builder(None)
        .run_serial(
            &distinct
                .iter()
                .map(|j| (j.ctx, programs[j.program].clone(), 0))
                .collect::<Vec<_>>(),
        )
        .expect("every context is registered");
    let verdicts: Verdicts = distinct
        .iter()
        .zip(reference)
        .map(|(j, o)| (*j, (o.report, o.level)))
        .collect();
    // Digest: the verdicts of each client's first jobs, which every run
    // serves whatever its length.
    let first_verdicts: String = jobs
        .iter()
        .flat_map(|client_jobs| client_jobs.iter().take(sizes.digest_jobs))
        .map(|job| format!("{:?}", verdicts[job]))
        .collect();
    out.digest = digest(first_verdicts.as_bytes());

    // Set-up: start the service on a fresh root, several times; the last
    // start serves the window.
    let mut started = None;
    for i in 0..STARTS {
        if let Some((svc, root)) = started.take() {
            ConversionService::shutdown(svc);
            let _ = std::fs::remove_dir_all(root);
        }
        let root = ctx.scratch.join(format!("service-{i}"));
        out.probe_host();
        let t = Instant::now();
        let svc = builder(Some(&root)).start();
        out.setup(t.elapsed().as_secs_f64());
        started = Some((svc, root));
    }
    let (svc, root) = started.expect("the service started");

    let rss_start = host::rss_bytes();
    let load = Load {
        ctx,
        svc: &svc,
        programs: &programs,
        verdicts: &verdicts,
        round_jobs: sizes.round_jobs,
        rounds: Barrier::new(CLIENTS + 1),
        stop: AtomicBool::new(false),
        served: AtomicU64::new(0),
        rss_at: OnceLock::new(),
        rss_jobs: sizes.rss_jobs,
    };
    out.probe_host();
    let first_round = out.here();
    let deadline = ctx.deadline();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .iter()
            .enumerate()
            .map(|(id, client_jobs)| {
                let load = &load;
                s.spawn(move || client(load, client_jobs, id))
            })
            .collect();
        // Each round is a throughput segment. Between rounds no job is
        // outstanding, so the host is probed while the service is idle.
        let round = (CLIENTS * sizes.round_jobs) as u64;
        loop {
            let t = Instant::now();
            load.rounds.wait();
            out.segment(round, t.elapsed().as_secs_f64());
            out.probe_host();
            let last = Instant::now() >= deadline;
            load.stop.store(last, Ordering::Relaxed);
            load.rounds.wait();
            if last {
                break;
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let rss_at = load.rss_at.get().copied();
    let report = svc.shutdown();
    let journal_bytes = host::dir_bytes(&root.join("journal"));
    let _ = std::fs::remove_dir_all(&root);

    for log in logs {
        out.attempted += log.latency_ns.len() as u64;
        out.failed += log.failed;
        out.problems.extend(log.problems);
        for (ns, on, round) in log.latency_ns {
            out.latency_ns.push((ns, first_round + round));
            out.split(ctx, on, ns);
        }
    }
    let served = out.attempted;
    out.peak_rss_bytes = rss_at.map(|(_, peak)| peak);

    if ctx.tracer.enabled() {
        let m = &report.metrics;
        let spans = ctx.tracer.spans();
        let ms = |name| {
            let d = sorted(&trace::durations(&spans, name));
            let p = |q| percentile(&d, q).unwrap_or(0.0) / 1e6;
            (p(50.0), p(99.0))
        };
        let per_job = |v: u64| v as f64 / served.max(1) as f64;
        let l = &mut out.layers;
        let (p50, p99) = ms("service.submit");
        l.set("service.submit_ms.p50", p50);
        l.set("service.submit_ms.p99", p99);
        let (p50, p99) = ms("service.wait");
        l.set("service.wait_ms.p50", p50);
        l.set("service.wait_ms.p99", p99);
        let queue_ns = m.time_ns(SERVICE_QUEUE_WAIT_NS);
        let exec_ns = m.time_ns(SERVICE_EXEC_NS);
        l.set("service.queue_wait_us_per_job", per_job(queue_ns) / 1e3);
        l.set("service.exec_us_per_job", per_job(exec_ns) / 1e3);
        let (hits, misses) = (
            m.counter(SERVICE_TRUTH_HITS),
            m.counter(SERVICE_TRUTH_MISSES),
        );
        l.set(
            "service.truth_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        l.set(
            "service.backpressure_waits_per_job",
            per_job(m.counter(SERVICE_BACKPRESSURE_WAITS)),
        );
        if let Some((rss, _)) = rss_at {
            l.set(
                "service.rss_kb_per_job",
                rss.saturating_sub(rss_start) as f64 / sizes.rss_jobs as f64 / 1024.0,
            );
        }
        l.set("journal.bytes_per_job", per_job(journal_bytes));
        l.set("locks.waits_per_job", per_job(m.counter(LOCKS_WAITS)));
        l.set(
            "locks.wait_us_per_job",
            per_job(m.time_ns(LOCKS_WAIT_NS)) / 1e3,
        );
        l.set("locks.timeouts", m.counter(LOCKS_TIMEOUTS) as f64);
        let mut self_ns = BTreeMap::new();
        for job in &report.spans {
            obs_self_times(job, &mut self_ns);
        }
        for (span, metric) in super::study::STAGES {
            l.set(
                metric,
                per_job(self_ns.get(span).copied().unwrap_or(0)) / 1e3,
            );
        }
        // Coverage: the share of the traced jobs' latency spent in
        // admission (submit), the queue, or execution; queue wait and
        // execution are per job over every job.
        let traced_jobs = trace::durations(&spans, "job");
        let job_ns: f64 = traced_jobs.iter().sum();
        let submit_ns: f64 = trace::durations(&spans, "service.submit").iter().sum();
        if job_ns > 0.0 {
            let named = submit_ns + traced_jobs.len() as f64 * per_job(queue_ns + exec_ns);
            l.set("trace.coverage", named / job_ns);
        }
    }
    out
}
