//! The long-running conversion service: sessions, admission control, and
//! concurrency-managed verification over shared engines.
//!
//! The service accepts conversion jobs continuously and runs them against
//! shared engine state under real concurrency control:
//!
//! * **Contexts** ([`ServiceBuilder::register_context`]) hoist everything
//!   that depends only on `(schema, restructuring, source database)`: the
//!   validated [`Mapping`], the translated target database, and the
//!   source's [`GroundTruth`], which contexts over an equal source (equal
//!   [`NetworkDb::fingerprint`] and inputs) share, so a program submitted
//!   to several of them runs on the source once. Queued jobs replay that
//!   state instead of rebuilding it — on this corpus the per-job pipeline
//!   spends most of its time there, which is what the `BENCH_service_load`
//!   amortization figure measures. The translation lives in RAM only: the
//!   source database is authoritative, so every registration translates it
//!   afresh, a restarted service included (retranslating is cheaper than
//!   reloading a persisted copy would be).
//! * **Admission control**: a bounded FIFO queue. [`Session::submit`]
//!   blocks while the queue is full — backpressure, not unbounded memory —
//!   and [`Ticket::wait`] parks until the job's worker publishes its
//!   [`JobOutcome`]. Queue-depth high-water and backpressure-wait gauges
//!   land in the shutdown [`RunReport`].
//! * **Concurrency control**: every verification declares a lock set over
//!   the *logical* databases it touches ([`LockRes`] at engine and
//!   record-type granularity, source and target side namespaced apart) and
//!   acquires it through the shared [`LockTable`] in sorted order.
//!   Update-free programs (`Program::mutates_database` == false on both
//!   sides) take only shared locks — the read-read fast path — while a
//!   `STORE` takes an exclusive lock on just the stored record type, and
//!   variable-addressed mutations (MODIFY/DELETE/CONNECT/DISCONNECT) fall
//!   back to an exclusive engine lock. A wait that times out surfaces as
//!   [`PipelineError::LockTimeout`]; the job retries (the conflicting
//!   session usually finishes first) and, with the retry budget spent,
//!   degrades to [`Verdict::NeedsManualWork`] with the timeout recorded in
//!   `fallbacks` — the same degradation discipline as the §2 strategy
//!   ladder.
//!
//! **Engine replicas, not literal sharing.** `NetworkDb` keeps interior
//! access-structure caches (`RefCell` calc-key indexes), so one instance
//! cannot be referenced from two threads. Each side of a context
//! therefore has a small checkout/checkin pool of replicas of its base (an
//! [`EnginePool`], the type the E2 study pools its databases in too).
//! This is sound *because of* the concurrency manager and the undo
//! journal: every run — ground truth and verification alike — executes
//! inside a savepoint that is rolled back, so every replica stays
//! byte-identical to the base (debug builds assert the fingerprint at
//! every checkin), and the lock table enforces exactly the schedule that
//! would make literal sharing correct — readers overlap, conflicting
//! writers serialize per record type (lock namespaces stay per context).
//! Both sides run under the ladder's fuel, and exhausting it degrades the
//! job as on the ladder ([`PipelineError::FuelExhausted`]).
//! Concurrency changes *when* a job runs, never *what* it produces:
//! [`ServiceBuilder::run_serial`] executes the same jobs inline through the
//! same code path, and `tests/service_equivalence.rs` asserts the outcomes
//! are byte-identical.
//!
//! Determinism: a job's `(report, level)` is a pure function of `(context,
//! program, fault key)` — the fault plan is keyed, the ground truth memo
//! caches a pure function of the program, and rollback restores every
//! replica — so seeded [`FaultPlan`][crate::FaultPlan] runs are identical
//! at any worker count. Scheduling-dependent observations (queue depth,
//! lock waits, memo hit/miss splits) are recorded as `Racy`/`Time` metrics
//! or shutdown gauges, which `dbpc-obs` excludes from deterministic
//! comparisons.
//!
//! **Crash safety** (PR 9): a durable service journals every admission
//! and every published result through the [`JobJournal`] under
//! `durable_root/journal`, the only files the service keeps. A service
//! restarted over the same root replays exactly the
//! admitted-but-incomplete jobs — original sequence numbers and session
//! ids preserved, so the replayed captures slot into the
//! shutdown [`RunReport`] where the lost originals would have been, and
//! the deterministic projection of the recovered report is byte-identical
//! to an uninterrupted run's (the E21 chaos matrix,
//! `src/bin/service_crash.rs`, kills the process at every journal boundary
//! to prove it). A full queue always blocks the submitter, and
//! [`RetryPolicy`] spaces a job's retries by a seeded,
//! thread-count-invariant exponential backoff, so no job's outcome
//! depends on the wall clock. A journaled `SHED` comes from three places
//! only: jobs still queued when [`ConversionService::shutdown_within`]'s
//! drain budget expires, a submit that finds the queue closed after its
//! `ADMIT` was journaled, and replayed jobs that name a context this run
//! did not register.

use crate::equivalence::{EnginePool, EquivalenceLevel, GroundTruth};
use crate::journal::{decode_done, BoundaryHook, JobJournal, JournalRecord, RecoveredJob};
use crate::mapping::Mapping;
use crate::report::{AutoAnalyst, ConversionReport, Verdict};
use crate::supervisor::ladder::{retryable, run_error, RungFailure};
use crate::supervisor::{failure_report, Supervisor};
use dbpc_analyzer::apg::AccessPathGraph;
use dbpc_datamodel::error::{ModelError, PipelineError, PipelineResult, Stage};
use dbpc_datamodel::network::NetworkSchema;
use dbpc_dml::host::{Program, Stmt};
use dbpc_engine::Inputs;
use dbpc_obs::metrics::MetricValue;
use dbpc_obs::{MetricsFrame, MetricsRegistry, RunReport};
use dbpc_restructure::Restructuring;
use dbpc_storage::locks::{ConcurrencyMgr, LockError, LockKind, LockRes, LockTable};
use dbpc_storage::{pool, NetworkDb};
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Metric: jobs executed (deterministic work count).
pub const SERVICE_JOBS: &str = "service.jobs";
/// Metric: jobs whose whole lock set was shared — the read-read fast path.
pub const SERVICE_READ_ONLY_JOBS: &str = "service.jobs_read_only";
/// Metric: wall-clock a job spent queued before a worker picked it up.
pub const SERVICE_QUEUE_WAIT_NS: &str = "service.queue_wait_ns";
/// Metric: wall-clock a job spent executing.
pub const SERVICE_EXEC_NS: &str = "service.exec_ns";
/// Metric: ground-truth trace memo hits (scheduling-dependent split).
pub const SERVICE_TRUTH_HITS: &str = "service.truth_hits";
/// Metric: ground-truth trace memo misses — actual source executions.
pub const SERVICE_TRUTH_MISSES: &str = "service.truth_misses";
/// Shutdown gauge: worker threads the service ran with.
pub const SERVICE_WORKERS: &str = "service.workers";
/// Shutdown gauge: registered contexts.
pub const SERVICE_CONTEXTS: &str = "service.contexts";
/// Racy shutdown stat: admission-queue high-water mark. Scheduling- (and
/// crash-) dependent, so it is excluded from deterministic projections.
pub const SERVICE_QUEUE_DEPTH_MAX: &str = "service.queue_depth_max";
/// Racy shutdown stat: submits that had to block on a full queue.
pub const SERVICE_BACKPRESSURE_WAITS: &str = "service.backpressure_waits";
/// Racy shutdown stat: jobs shed by drain expiry, by a closed queue or at
/// start-up.
pub const SERVICE_SHED: &str = "service.shed";
/// Racy shutdown stat: admitted-but-incomplete jobs replayed from the
/// journal at startup.
pub const SERVICE_JOBS_REPLAYED: &str = "service.jobs_replayed";
/// Racy shutdown stat: completed-job shards recovered from the journal.
pub const SERVICE_RESULTS_RECOVERED: &str = "service.results_recovered";
/// Racy shutdown stat: journal disk/decode errors (the journal wedges on
/// the first disk error; the service stays available).
pub const SERVICE_JOURNAL_ERRORS: &str = "service.journal_errors";

/// Recover a mutex guard from poisoning. Every service critical section is
/// a plain container operation (queue push/pop, pool checkout, memo
/// lookup), so the protected state is consistent whenever the guard is
/// released — even by a panicking worker, whose job the supervision layer
/// has already turned into a poisoned report.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Configuration of a [`ConversionService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads; `0` (the default) means `DBPC_THREADS` or the
    /// machine's available parallelism ([`pool::default_threads`]) — the
    /// same resolution every batch harness uses.
    pub workers: usize,
    /// Admission-queue bound: [`Session::submit`] blocks at this depth.
    pub queue_capacity: usize,
    /// How long a lock request waits before the table declares a timeout —
    /// the SimpleDB-style deadlock-resolution budget.
    pub lock_timeout: Duration,
    /// The retry schedule for lock timeouts and injected (retryable)
    /// verification faults: attempt budget and deterministic backoff.
    pub retry: RetryPolicy,
    /// The conversion pipeline configuration, fault plan included.
    pub supervisor: Supervisor,
    /// Where the [`JobJournal`] lives (under `journal/`, the only thing
    /// the service writes here), which makes the service crash-safe: see
    /// the module docs. `None` runs without a journal.
    pub durable_root: Option<PathBuf>,
    /// Test hook fired at every job-journal boundary — the E21 crash
    /// matrix's kill switch. `None` in production configurations.
    pub journal_hook: Option<BoundaryHook>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            queue_capacity: 64,
            lock_timeout: Duration::from_secs(5),
            retry: RetryPolicy::default(),
            supervisor: Supervisor::default(),
            durable_root: None,
            journal_hook: None,
        }
    }
}

/// The retry schedule for retryable per-job failures (lock timeouts,
/// injected transient faults): a bounded attempt budget with seeded
/// exponential backoff.
///
/// The backoff delay is a pure function of `(seed, job key, attempt)` —
/// like [`FaultPlan`][crate::FaultPlan] decisions it is invariant across
/// worker counts and interleavings, so seeded runs stay reproducible.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries after the first attempt (PR 7's `lock_retries`).
    pub retries: usize,
    /// First-retry backoff; `ZERO` (the default) disables sleeping
    /// entirely, preserving the immediate-retry behavior of PR 7.
    pub backoff_base: Duration,
    /// Upper bound on a single backoff sleep.
    pub backoff_cap: Duration,
    /// Seed for the deterministic jitter.
    pub backoff_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            retries: 1,
            backoff_base: Duration::ZERO,
            backoff_cap: Duration::from_millis(100),
            backoff_seed: 0x1979,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry `attempt` (1-based): exponential doubling
    /// from `backoff_base`, capped at `backoff_cap`, jittered into
    /// `[0.5, 1.0)×` by a SplitMix64 hash of `(seed, key, attempt)`.
    pub fn backoff(&self, key: u64, attempt: usize) -> Duration {
        if self.backoff_base.is_zero() || attempt == 0 {
            return Duration::ZERO;
        }
        let shift = u32::try_from(attempt - 1).unwrap_or(u32::MAX).min(20);
        let raw = self.backoff_base.saturating_mul(1u32 << shift);
        let capped = raw.min(self.backoff_cap);
        let mut z = self.backoff_seed
            ^ key.rotate_left(17)
            ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // SplitMix64 finalizer — same construction as `FaultPlan`'s
        // unit hash, so the jitter is seeded and schedule-independent.
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let frac = (z >> 11) as f64 / (1u64 << 53) as f64;
        capped.mul_f64(0.5 + frac / 2.0)
    }
}

impl ServiceConfig {
    /// The worker count this configuration resolves to: the explicit
    /// setting, or `DBPC_THREADS` / machine parallelism when `0`.
    pub fn resolved_workers(&self) -> usize {
        if self.workers == 0 {
            pool::default_threads()
        } else {
            self.workers
        }
    }
}

/// Identifies a registered conversion context to [`Session::submit`].
pub type CtxId = usize;

/// Everything hoisted once per `(schema, restructuring, source database)`.
struct Context {
    schema: NetworkSchema,
    mapping: Mapping,
    /// Shared by every context over an equal source and inputs.
    truth: Arc<GroundTruth>,
    target: EnginePool,
    /// Lock namespace of the source side; the target side is `+ 1`.
    space_source: u32,
}

impl Context {
    fn space_target(&self) -> u32 {
        self.space_source + 1
    }
}

/// A queued unit of work.
struct Job {
    seq: u64,
    session: u64,
    ctx: CtxId,
    /// Shared with the ground-truth memo, which keeps it as a key.
    program: Arc<Program>,
    key: u64,
    queued_at: Instant,
    slot: Arc<Slot>,
}

impl Job {
    /// Resolve the job's ticket without running it: a
    /// [`Verdict::Rejected`] report carrying `error`.
    fn refuse(self, error: PipelineError) {
        self.slot.fill(JobOutcome {
            seq: self.seq,
            report: failure_report(Verdict::Rejected, error),
            level: None,
            queue_ns: self.queued_at.elapsed().as_nanos() as u64,
            exec_ns: 0,
        });
    }
}

/// The published result of one job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Admission order (service-wide, monotone).
    pub seq: u64,
    pub report: ConversionReport,
    /// Equivalence level when verification ran to completion; `None` for
    /// unconverted, unverifiable, or poisoned jobs.
    pub level: Option<EquivalenceLevel>,
    /// Wall-clock spent queued (admission to dequeue).
    pub queue_ns: u64,
    /// Wall-clock spent executing.
    pub exec_ns: u64,
}

/// One-shot rendezvous between a worker and a waiting [`Ticket`].
struct Slot {
    state: Mutex<Option<JobOutcome>>,
    ready: Condvar,
}

impl Slot {
    fn new() -> Arc<Slot> {
        Arc::new(Slot {
            state: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    fn fill(&self, outcome: JobOutcome) {
        *lock(&self.state) = Some(outcome);
        self.ready.notify_all();
    }
}

/// Handle to one submitted job; [`Ticket::wait`] blocks until its worker
/// publishes the outcome.
pub struct Ticket {
    slot: Arc<Slot>,
}

impl Ticket {
    pub fn wait(self) -> JobOutcome {
        let mut st = lock(&self.slot.state);
        loop {
            if let Some(outcome) = st.take() {
                return outcome;
            }
            st = self
                .slot
                .ready
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The bounded admission queue (see module docs).
struct Queue {
    capacity: usize,
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    depth_max: AtomicUsize,
    backpressure_waits: AtomicU64,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl Queue {
    fn new(capacity: usize) -> Queue {
        Queue {
            capacity: capacity.max(1),
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            depth_max: AtomicUsize::new(0),
            backpressure_waits: AtomicU64::new(0),
        }
    }

    /// Blocking admission: waits while the queue is at capacity — the
    /// backpressure that bounds its memory. `Err` returns the job when
    /// the queue has been closed.
    fn push(&self, job: Job) -> Result<(), Job> {
        let mut st = lock(&self.state);
        while st.jobs.len() >= self.capacity && !st.closed {
            self.backpressure_waits.fetch_add(1, Ordering::Relaxed);
            st = self
                .not_full
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if st.closed {
            return Err(job);
        }
        st.jobs.push_back(job);
        self.depth_max.fetch_max(st.jobs.len(), Ordering::Relaxed);
        drop(st);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Worker side: next job, or `None` once the queue is closed *and*
    /// drained — shutdown completes every admitted job.
    fn pop(&self) -> Option<Job> {
        let mut st = lock(&self.state);
        loop {
            if let Some(job) = st.jobs.pop_front() {
                drop(st);
                self.not_full.notify_one();
                return Some(job);
            }
            if st.closed {
                return None;
            }
            st = self
                .not_empty
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn is_empty(&self) -> bool {
        lock(&self.state).jobs.is_empty()
    }

    /// Remove and return every still-queued job — the bounded-drain and
    /// simulated-crash paths, which resolve (or abandon) them without
    /// running them.
    fn drain_remaining(&self) -> Vec<Job> {
        lock(&self.state).jobs.drain(..).collect()
    }

    fn close(&self) {
        lock(&self.state).closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

struct ServiceInner {
    config: ServiceConfig,
    contexts: Vec<Arc<Context>>,
    lock_table: LockTable,
    queue: Queue,
    /// Every finished job's observability shard (span tree and metrics
    /// delta) as `(seq, DONE payload)`: the bytes the journal writes, kept
    /// at their exact length whether or not the service has a journal, and
    /// decoded in admission order at shutdown so the assembled report is a
    /// pure function of the job sequence.
    sink: Mutex<Vec<(u64, Box<[u8]>)>>,
    /// The durable job journal; `None` without a `durable_root` (or when
    /// the journal failed to open, which `journal_errors` records).
    journal: Option<Mutex<JobJournal>>,
    /// Jobs shed: drain expiries, closed-queue submits and start-up sheds.
    sheds: AtomicU64,
    /// Journal open/decode failures (wedge errors are read off the
    /// journal itself at shutdown).
    journal_errors: AtomicU64,
    /// What the startup journal scan found.
    recovery: RecoveryStats,
}

impl ServiceInner {
    /// Run `f` on the journal, if the service has one.
    fn journal<T>(&self, f: impl FnOnce(&mut JobJournal) -> T) -> Option<T> {
        self.journal.as_ref().map(|j| f(&mut lock(j)))
    }

    /// Journal one record, if the service has a journal. The record is
    /// encoded before the journal lock is taken, so the lock covers only
    /// the WAL append (and an `ADMIT`'s fsync).
    fn journal_append(&self, record: impl FnOnce() -> JournalRecord) {
        if let Some(j) = &self.journal {
            let record = record();
            lock(j).append(&record);
        }
    }
}

/// What [`ServiceBuilder::start`] recovered from the job journal — all
/// zeros for a fresh root or a journal-less service.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Intact `ADMIT` records found in the journal.
    pub admitted: u64,
    /// Completed jobs whose result shards were recovered (not re-run).
    pub results: u64,
    /// Admitted-but-incomplete jobs re-enqueued for replay.
    pub replayed: u64,
    /// Shed jobs, never replayed: shed decisions already in the journal,
    /// plus admitted-but-incomplete jobs shed at this start-up because
    /// they name an unregistered context. So
    /// `admitted == results + replayed + shed`.
    pub shed: u64,
    /// The sequence number new admissions continue from.
    pub next_seq: u64,
}

/// Builds a [`ConversionService`]: register contexts, then [`start`]
/// workers — or run the same jobs inline with [`run_serial`] for a
/// reference result.
///
/// [`start`]: ServiceBuilder::start
/// [`run_serial`]: ServiceBuilder::run_serial
pub struct ServiceBuilder {
    config: ServiceConfig,
    contexts: Vec<Arc<Context>>,
}

impl ServiceBuilder {
    pub fn new(config: ServiceConfig) -> ServiceBuilder {
        ServiceBuilder {
            config,
            contexts: Vec::new(),
        }
    }

    /// Hoist one `(schema, restructuring, source database)` triple into a
    /// reusable context: validate the mapping, translate the source once,
    /// and seed the target replica pool. A source (and inputs) equal to an
    /// earlier context's shares that context's [`GroundTruth`].
    pub fn register_context(
        &mut self,
        schema: &NetworkSchema,
        restructuring: &Restructuring,
        source: NetworkDb,
        inputs: Inputs,
    ) -> PipelineResult<CtxId> {
        let mapping = Mapping::from_restructuring(schema, restructuring)?;
        let target = restructuring
            .translate(&source)
            .map_err(|e| PipelineError::stage(Stage::Translation, e))?;
        let cap = self.config.resolved_workers();
        let source = EnginePool::new(source, cap);
        let truth = self
            .contexts
            .iter()
            .map(|ctx| &ctx.truth)
            .find(|truth| {
                truth.source().fingerprint() == source.fingerprint() && *truth.inputs() == inputs
            })
            .map(Arc::clone)
            .unwrap_or_else(|| Arc::new(GroundTruth::new(source, inputs)));
        let id = self.contexts.len();
        let space_source = u32::try_from(id)
            .ok()
            .and_then(|id| id.checked_mul(2))
            .ok_or_else(|| ModelError::invalid("context id exceeds the lock namespace"))?;
        self.contexts.push(Arc::new(Context {
            schema: schema.clone(),
            mapping,
            truth,
            target: EnginePool::new(target, cap),
            space_source,
        }));
        Ok(id)
    }

    /// Spawn the worker pool and open the service for sessions.
    ///
    /// A durable service first opens its [`JobJournal`] and replays the
    /// scan: completed jobs' validated `DONE` payloads seed the sink (their
    /// reports were already served — they are *not* re-run), and
    /// admitted-but-incomplete jobs are re-enqueued with their original
    /// sequence numbers once the workers are up. Journal failures never
    /// prevent startup — the service degrades to journal-less operation
    /// and reports the error count at shutdown.
    pub fn start(self) -> ConversionService {
        let workers = self.config.resolved_workers();
        let mut journal = None;
        let mut recovery = RecoveryStats::default();
        let mut seeded = Vec::new();
        let mut replay: Vec<RecoveredJob> = Vec::new();
        let mut sheds = 0u64;
        let mut journal_errors = 0u64;
        if let Some(root) = &self.config.durable_root {
            match JobJournal::open(
                &root.join("journal"),
                self.config.supervisor.fault.disk_faults().cloned(),
                self.config.journal_hook.clone(),
            ) {
                Ok((mut j, scan)) => {
                    // A journal from a run with more contexts registered
                    // than this one: those jobs are never runnable here,
                    // so shed them durably instead of replaying them.
                    let (runnable, stale): (Vec<_>, Vec<_>) = scan
                        .pending
                        .into_iter()
                        .partition(|job| job.ctx < self.contexts.len());
                    for job in &stale {
                        j.append(&JournalRecord::shed(job.seq));
                    }
                    sheds = stale.len() as u64;
                    recovery = RecoveryStats {
                        admitted: scan.admitted,
                        results: scan.results.len() as u64,
                        replayed: runnable.len() as u64,
                        shed: scan.shed.len() as u64 + sheds,
                        next_seq: scan.next_seq,
                    };
                    journal_errors += scan.decode_errors;
                    seeded = scan.results;
                    replay = runnable;
                    journal = Some(Mutex::new(j));
                }
                Err(_) => journal_errors += 1,
            }
        }
        let inner = Arc::new(ServiceInner {
            queue: Queue::new(self.config.queue_capacity),
            config: self.config,
            contexts: self.contexts,
            lock_table: LockTable::new(),
            sink: Mutex::new(seeded),
            journal,
            sheds: AtomicU64::new(sheds),
            journal_errors: AtomicU64::new(journal_errors),
            recovery,
        });
        let handles = (0..workers)
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("dbpc-service-{w}"))
                    .spawn(move || worker_loop(&inner))
            })
            .filter_map(|h| h.ok())
            .collect();
        // Replay after the workers are up: a replay set larger than the
        // queue drains as workers run. The queue cannot be closed yet, so
        // every recovered job is queued.
        for job in replay {
            let _ = inner.queue.push(Job {
                seq: job.seq,
                session: job.session,
                ctx: job.ctx,
                program: Arc::new(job.program),
                key: job.key,
                queued_at: Instant::now(),
                slot: Slot::new(),
            });
        }
        ConversionService {
            next_seq: AtomicU64::new(recovery.next_seq),
            inner,
            workers: handles,
            next_session: AtomicU64::new(0),
            finalized: false,
        }
    }

    /// The serial reference: execute `jobs` inline, in order, through the
    /// *same* per-job code path the workers run (locks included, against a
    /// private uncontended table). The service's acceptance bar is that a
    /// concurrent run's `(report, level)` pairs are byte-identical to this.
    pub fn run_serial(&self, jobs: &[(CtxId, Program, u64)]) -> PipelineResult<Vec<JobOutcome>> {
        let table = LockTable::new();
        let mut out = Vec::with_capacity(jobs.len());
        for (seq, (ctx_id, program, key)) in jobs.iter().enumerate() {
            let ctx = self
                .contexts
                .get(*ctx_id)
                .ok_or_else(|| ModelError::invalid(format!("unknown context {ctx_id}")))?;
            let program = Arc::new(program.clone());
            let (report, level) = run_guarded(&self.config, &table, ctx, &program, *key);
            out.push(JobOutcome {
                seq: seq as u64,
                report,
                level,
                queue_ns: 0,
                exec_ns: 0,
            });
        }
        Ok(out)
    }
}

/// The running service (see module docs). Obtain with
/// [`ServiceBuilder::start`]; drive with [`ConversionService::session`];
/// finish with [`ConversionService::shutdown`], which drains every
/// admitted job and returns the run's assembled [`RunReport`].
pub struct ConversionService {
    inner: Arc<ServiceInner>,
    workers: Vec<JoinHandle<()>>,
    next_seq: AtomicU64,
    next_session: AtomicU64,
    /// Set once the journal has been finalized (or deliberately abandoned
    /// by [`ConversionService::halt`]) so `Drop` doesn't do it again.
    finalized: bool,
}

impl ConversionService {
    /// Open a session: a named submission stream. Sessions are cheap
    /// handles; jobs from all sessions share the queue, the lock table,
    /// and the contexts.
    pub fn session(&self) -> Session<'_> {
        Session {
            service: self,
            id: self.next_session.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Number of registered contexts.
    pub fn contexts(&self) -> usize {
        self.inner.contexts.len()
    }

    /// What the startup journal scan recovered (all zeros for a fresh
    /// root or a journal-less service).
    pub fn recovery(&self) -> RecoveryStats {
        self.inner.recovery
    }

    /// Close admission, drain the queue, join the workers, flush the
    /// journal, and assemble the run's observability: per-job span trees
    /// merged in admission order, per-job metric deltas absorbed in the
    /// same order, and the service-level stats.
    pub fn shutdown(mut self) -> RunReport {
        self.inner.queue.close();
        self.join_workers();
        self.finalize_journal();
        assemble(&self.inner)
    }

    /// [`shutdown`](ConversionService::shutdown) with a drain budget:
    /// jobs still queued when `drain` expires are shed — journaled,
    /// counted, their tickets resolved with [`PipelineError::Overloaded`]
    /// — instead of holding shutdown hostage to a deep queue. The job a
    /// worker is already executing always completes.
    pub fn shutdown_within(mut self, drain: Duration) -> RunReport {
        self.inner.queue.close();
        let deadline = Instant::now() + drain;
        while !self.inner.queue.is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        for job in self.inner.queue.drain_remaining() {
            self.inner.journal_append(|| JournalRecord::shed(job.seq));
            self.inner.sheds.fetch_add(1, Ordering::Relaxed);
            job.refuse(PipelineError::Overloaded {
                detail: "drain deadline expired".to_string(),
            });
        }
        self.join_workers();
        self.finalize_journal();
        assemble(&self.inner)
    }

    /// Simulated crash for benches and in-process recovery tests: abandon
    /// still-queued jobs (tickets resolve with
    /// [`PipelineError::Overloaded`]), close admission, join the workers,
    /// and — the point — skip the journal finalize, exactly like a
    /// process kill would. The queue is evicted *before* it closes so the
    /// workers cannot drain it on their way out — a killed process would
    /// never have run those jobs either; they stay journal-pending and
    /// must come back via replay. Returns the number of result shards the
    /// run had published.
    pub fn halt(mut self) -> u64 {
        let abandoned = self.inner.queue.drain_remaining();
        self.inner.queue.close();
        for job in abandoned {
            job.refuse(PipelineError::Overloaded {
                detail: "service halted".to_string(),
            });
        }
        self.join_workers();
        self.finalized = true; // abandon, do not flush
        lock(&self.inner.sink).len() as u64
    }

    fn join_workers(&mut self) {
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    fn finalize_journal(&mut self) {
        if !self.finalized {
            self.inner.journal(JobJournal::finalize);
            self.finalized = true;
        }
    }
}

/// Assemble the shutdown report from the inner state (shared by every
/// shutdown flavor). Shards are decoded and merged in admission order and
/// de-duplicated by sequence number — a recovered shard and a replayed one
/// can never coexist for the same seq, but the report must not
/// double-count even if a future caller arranges that. Live and recovered
/// shards are the same `DONE` bytes and pass through the journal's one
/// decoder; one that fails to decode counts as a journal error.
fn assemble(inner: &ServiceInner) -> RunReport {
    let mut shards = std::mem::take(&mut *lock(&inner.sink));
    shards.sort_by_key(|(seq, _)| *seq);
    shards.dedup_by_key(|(seq, _)| *seq);
    let mut registry = MetricsRegistry::new();
    let mut captures = Vec::with_capacity(shards.len());
    let mut undecodable = 0u64;
    for (_, payload) in shards {
        match decode_done(&payload) {
            Ok((_, cap, delta)) => {
                registry.absorb(&delta);
                captures.push(cap);
            }
            Err(_) => undecodable += 1,
        }
    }
    // Lock-wait telemetry is aggregated on the table itself (not the
    // ambient per-thread sheets — see `dbpc_storage::locks`), so the
    // run total is published exactly once, here.
    let mut stats = MetricsFrame::new();
    inner.lock_table.wait_stats().publish(&mut stats);
    // Scheduling- and crash-dependent service stats ride as `Racy`
    // entries: visible in the full report, excluded from deterministic
    // projections — which is what lets a recovered run's report compare
    // byte-identical to the uninterrupted one.
    stats.set(
        SERVICE_QUEUE_DEPTH_MAX,
        MetricValue::Racy(inner.queue.depth_max.load(Ordering::Relaxed) as u64),
    );
    stats.set(
        SERVICE_BACKPRESSURE_WAITS,
        MetricValue::Racy(inner.queue.backpressure_waits.load(Ordering::Relaxed)),
    );
    let journal_errors = inner.journal_errors.load(Ordering::Relaxed)
        + inner.journal(|j| j.errors()).unwrap_or(0)
        + undecodable;
    // Zero-suppressed (like `WaitStats::publish`): quiet runs keep their
    // pre-PR9 report bytes.
    for (name, value) in [
        (SERVICE_SHED, inner.sheds.load(Ordering::Relaxed)),
        (SERVICE_JOBS_REPLAYED, inner.recovery.replayed),
        (SERVICE_RESULTS_RECOVERED, inner.recovery.results),
        (SERVICE_JOURNAL_ERRORS, journal_errors),
    ] {
        if value > 0 {
            stats.set(name, MetricValue::Racy(value));
        }
    }
    registry.absorb(&stats);
    registry.set_gauge(SERVICE_WORKERS, inner.config.resolved_workers() as i64);
    registry.set_gauge(SERVICE_CONTEXTS, inner.contexts.len() as i64);
    RunReport::assemble("conversion-service", captures, registry)
}

impl Drop for ConversionService {
    fn drop(&mut self) {
        // A service dropped without `shutdown` still drains and joins —
        // every admitted job completes and every ticket resolves — and
        // still flushes the journal: results published by those last jobs
        // must be as durable as ones a proper shutdown would have flushed.
        self.inner.queue.close();
        self.join_workers();
        self.finalize_journal();
    }
}

/// A submission stream on a running service.
pub struct Session<'s> {
    service: &'s ConversionService,
    id: u64,
}

impl Session<'_> {
    /// Submit one program for conversion + verification under context
    /// `ctx`. `key` is the job's fault/identity key (the `FaultPlan`
    /// coordinate). A full queue blocks the call until a worker frees a
    /// slot.
    ///
    /// On a durable service the admission is journaled (and fsynced)
    /// *before* the job is queued: once `submit` returns a ticket, a
    /// crash-restarted service will either serve the job's recovered
    /// result or replay it.
    pub fn submit(&self, ctx: CtxId, program: Program, key: u64) -> PipelineResult<Ticket> {
        let inner = &self.service.inner;
        if ctx >= inner.contexts.len() {
            return Err(ModelError::invalid(format!("unknown context {ctx}")).into());
        }
        let seq = self.service.next_seq.fetch_add(1, Ordering::Relaxed);
        inner.journal_append(|| JournalRecord::admit(seq, self.id, ctx, key, &program));
        let slot = Slot::new();
        let job = Job {
            seq,
            session: self.id,
            ctx,
            program: Arc::new(program),
            key,
            queued_at: Instant::now(),
            slot: Arc::clone(&slot),
        };
        match inner.queue.push(job) {
            Ok(()) => Ok(Ticket { slot }),
            // The `ADMIT` is already durable: shed the job as a drain does,
            // so a restart never replays a job its client was refused.
            Err(job) => {
                inner.journal_append(|| JournalRecord::shed(job.seq));
                inner.sheds.fetch_add(1, Ordering::Relaxed);
                Err(PipelineError::Overloaded {
                    detail: "service is shutting down".to_string(),
                })
            }
        }
    }
}

fn worker_loop(inner: &ServiceInner) {
    while let Some(job) = inner.queue.pop() {
        let queue_ns = job.queued_at.elapsed().as_nanos() as u64;
        let Some(ctx) = inner.contexts.get(job.ctx) else {
            // Unreachable (submit and replay validate), but a lost slot
            // must not wedge a ticket.
            let error = ModelError::invalid(format!("unknown context {}", job.ctx));
            job.refuse(error.into());
            continue;
        };
        let mark = dbpc_obs::local_mark();
        let label = format!("session{}.job{}", job.session, job.seq);
        let started = Instant::now();
        let ((report, level), cap) = dbpc_obs::capture(&label, || {
            dbpc_obs::count(SERVICE_JOBS, 1);
            run_guarded(&inner.config, &inner.lock_table, ctx, &job.program, job.key)
        });
        let exec_ns = started.elapsed().as_nanos() as u64;
        dbpc_obs::time(SERVICE_EXEC_NS, exec_ns);
        dbpc_obs::time(SERVICE_QUEUE_WAIT_NS, queue_ns);
        // One encoding of the shard, journal or not: the journal appends
        // these bytes and the sink keeps them.
        let done = JournalRecord::done(job.seq, &cap, &mark.delta());
        inner.journal(|j| j.append(&done));
        lock(&inner.sink).push((job.seq, done.into_payload()));
        job.slot.fill(JobOutcome {
            seq: job.seq,
            report,
            level,
            queue_ns,
            exec_ns,
        });
    }
}

/// One job under the panic boundary: a crash anywhere in conversion or
/// verification yields a poisoned report for *this* job (locks released by
/// the concurrency manager's unwind, replicas dropped), never a dead
/// worker. Both the worker loop and the serial reference run jobs
/// through this one function — the serial-equivalence contract.
fn run_guarded(
    config: &ServiceConfig,
    table: &LockTable,
    ctx: &Context,
    program: &Arc<Program>,
    key: u64,
) -> (ConversionReport, Option<EquivalenceLevel>) {
    catch_unwind(AssertUnwindSafe(|| {
        execute_job(config, table, ctx, program, key)
    }))
    .unwrap_or_else(|payload| {
        (
            failure_report(
                Verdict::Poisoned,
                PipelineError::Panic {
                    detail: pool::panic_payload(payload),
                },
            ),
            None,
        )
    })
}

/// Convert + verify one program against its context. Pure in
/// `(context, program, key)` — see the module docs' determinism contract.
fn execute_job(
    config: &ServiceConfig,
    table: &LockTable,
    ctx: &Context,
    program: &Arc<Program>,
    key: u64,
) -> (ConversionReport, Option<EquivalenceLevel>) {
    // The graph is a zero-cost view over the target schema; building it
    // per job keeps the context free of self-references.
    let apg = AccessPathGraph::new(&ctx.mapping.target);
    let report = match config.supervisor.convert_one(
        &ctx.mapping,
        &apg,
        &ctx.schema,
        program,
        &mut AutoAnalyst,
        key,
        0,
    ) {
        Ok(report) => report,
        Err(e) => return (failure_report(Verdict::Rejected, e), None),
    };
    if !report.succeeded() {
        return (report, None);
    }
    let Some(converted) = report.program.clone() else {
        return (report, None);
    };

    let locks = lock_set(ctx, program, &converted);
    if locks.values().all(|k| *k == LockKind::Shared) {
        dbpc_obs::count(SERVICE_READ_ONLY_JOBS, 1);
    }
    let mut attempt = 0usize;
    loop {
        let mut mgr = ConcurrencyMgr::new(table);
        let failure = match mgr.acquire(&locks, config.lock_timeout) {
            Err(LockError::Timeout { resource }) => Some(PipelineError::LockTimeout {
                resource: resource.to_string(),
            }),
            // The verification-stage fault hook, tripped under the locks so
            // an injected verification failure exercises release + retry.
            Ok(()) => config
                .supervisor
                .fault
                .trip(Stage::Verification, key, attempt)
                .err(),
        };
        if let Some(error) = failure {
            drop(mgr);
            attempt += 1;
            if retryable(&error) && attempt <= config.retry.retries {
                let delay = config.retry.backoff(key, attempt);
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
                continue;
            }
            return (demote(report, attempt, error), None);
        }
        // Which worker fills a ground-truth entry is scheduling, so the
        // hit/miss split is `Racy`.
        let (outcome, hit) = dbpc_obs::span(Stage::Verification.span_name(), || {
            ctx.truth
                .judge(program, &ctx.target, &converted, &report.warnings)
        });
        drop(mgr);
        let metric = if hit {
            SERVICE_TRUTH_HITS
        } else {
            SERVICE_TRUTH_MISSES
        };
        dbpc_obs::racy(metric, 1);
        return match outcome {
            Ok(level) => (report, Some(level)),
            Err(e) => (
                demote(report, attempt + 1, run_error(Stage::Verification, e)),
                None,
            ),
        };
    }
}

/// A conversion whose verification could not complete is not served as a
/// success: the verdict degrades to [`Verdict::NeedsManualWork`] with the
/// terminal error on the fallback record — the same discipline the §2
/// strategy ladder applies to an unverifiable rung.
fn demote(mut report: ConversionReport, attempts: usize, error: PipelineError) -> ConversionReport {
    let rung = report.rung;
    report.verdict = Verdict::NeedsManualWork;
    report.fallbacks.push(RungFailure {
        rung,
        attempts,
        error,
    });
    report
}

/// The lock set of one verification: source side for the ground-truth run,
/// target side for the converted run, acquired together (sorted order) so
/// a job never holds one side while waiting on the other.
fn lock_set(ctx: &Context, original: &Program, converted: &Program) -> BTreeMap<LockRes, LockKind> {
    let mut set = BTreeMap::new();
    side_locks(&mut set, ctx.space_source, original);
    side_locks(&mut set, ctx.space_target(), converted);
    set
}

/// One side's locks. Granularity: a shared engine lock always (readers of
/// disjoint record types overlap; an engine-level writer excludes all);
/// shared record-type locks on every type a path reads; an exclusive
/// record-type lock for a `STORE` (statically-known type) and for `CALL
/// DML` (type known, verb conservatively a write, per §3.2); an exclusive
/// *engine* lock for variable-addressed mutations (MODIFY / DELETE /
/// CONNECT / DISCONNECT), whose record type would need dataflow to pin.
fn side_locks(set: &mut BTreeMap<LockRes, LockKind>, space: u32, program: &Program) {
    fn want(set: &mut BTreeMap<LockRes, LockKind>, res: LockRes, kind: LockKind) {
        let cur = set.entry(res).or_insert(kind);
        if kind == LockKind::Exclusive {
            *cur = LockKind::Exclusive;
        }
    }
    want(set, LockRes::engine(space), LockKind::Shared);
    for find in program.finds() {
        let spec = find.spec();
        want(
            set,
            LockRes::record_type(space, spec.target.clone()),
            LockKind::Shared,
        );
        for step in &spec.steps {
            want(
                set,
                LockRes::record_type(space, step.record.clone()),
                LockKind::Shared,
            );
        }
    }
    let mut engine_exclusive = false;
    program.visit_stmts(&mut |s| match s {
        Stmt::Store { record, .. } | Stmt::CallDml { record, .. } => {
            want(
                set,
                LockRes::record_type(space, record.clone()),
                LockKind::Exclusive,
            );
        }
        Stmt::Modify { .. }
        | Stmt::Delete { .. }
        | Stmt::Connect { .. }
        | Stmt::Disconnect { .. } => {
            engine_exclusive = true;
        }
        _ => {}
    });
    if engine_exclusive {
        want(set, LockRes::engine(space), LockKind::Exclusive);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpc_datamodel::network::{FieldDef, RecordTypeDef, SetDef};
    use dbpc_datamodel::types::FieldType;
    use dbpc_datamodel::value::Value;
    use dbpc_dml::host::parse_program;
    use dbpc_restructure::Transform;
    use dbpc_storage::locks::{LOCKS_EXCLUSIVE, LOCKS_SHARED};
    use std::path::Path;

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

    fn company_db() -> NetworkDb {
        let mut db = NetworkDb::new(company_schema()).unwrap();
        let mach = db
            .store(
                "DIV",
                &[
                    ("DIV-NAME", Value::str("MACHINERY")),
                    ("DIV-LOC", Value::str("DETROIT")),
                ],
                &[],
            )
            .unwrap();
        for (name, dept, age) in [("JONES", "SALES", 34), ("ADAMS", "SALES", 28)] {
            db.store(
                "EMP",
                &[
                    ("EMP-NAME", Value::str(name)),
                    ("DEPT-NAME", Value::str(dept)),
                    ("AGE", Value::Int(age)),
                ],
                &[("DIV-EMP", mach)],
            )
            .unwrap();
        }
        db
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

    fn read_only_program() -> Program {
        parse_program(
            "PROGRAM P;
  FIND E := FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 30));
  FOR EACH R IN E DO
    PRINT R.EMP-NAME;
  END FOR;
END PROGRAM;",
        )
        .unwrap()
    }

    fn store_program() -> Program {
        parse_program(
            "PROGRAM P;
  FIND D := FIND(DIV: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'MACHINERY'));
  STORE EMP (EMP-NAME := 'NEWMAN', DEPT-NAME := 'SALES', AGE := 21) CONNECT TO DIV-EMP OF D;
  FIND E := FIND(EMP: D, DIV-EMP, EMP(DEPT-NAME = 'SALES'));
  PRINT COUNT(E);
END PROGRAM;",
        )
        .unwrap()
    }

    fn builder(config: ServiceConfig) -> (ServiceBuilder, CtxId) {
        let mut b = ServiceBuilder::new(config);
        let ctx = b
            .register_context(
                &company_schema(),
                &fig_4_4(),
                company_db(),
                Inputs::new().with_terminal(&["RETRIEVE"]),
            )
            .unwrap();
        (b, ctx)
    }

    #[test]
    fn read_only_lock_set_is_all_shared() {
        let (b, ctx) = builder(ServiceConfig::default());
        let p = read_only_program();
        let set = lock_set(&b.contexts[ctx], &p, &p);
        assert!(!set.is_empty());
        assert!(set.values().all(|k| *k == LockKind::Shared), "{set:?}");
    }

    #[test]
    fn store_locks_exactly_its_record_type() {
        let (b, ctx) = builder(ServiceConfig::default());
        let p = store_program();
        let set = lock_set(&b.contexts[ctx], &p, &p);
        let space = b.contexts[ctx].space_source;
        assert_eq!(
            set.get(&LockRes::record_type(space, "EMP")),
            Some(&LockKind::Exclusive)
        );
        // The engine lock stays shared: a STORE serializes per record
        // type, not per engine.
        assert_eq!(set.get(&LockRes::engine(space)), Some(&LockKind::Shared));
        assert_eq!(
            set.get(&LockRes::record_type(space, "DIV")),
            Some(&LockKind::Shared)
        );
    }

    /// Satellite 1: the read-read fast path takes zero exclusive locks —
    /// asserted on the service's own metrics, end to end.
    #[test]
    fn fast_path_takes_zero_exclusive_locks() {
        let (b, ctx) = builder(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let svc = b.start();
        let session = svc.session();
        let tickets: Vec<Ticket> = (0..6)
            .map(|k| session.submit(ctx, read_only_program(), k).unwrap())
            .collect();
        for t in tickets {
            let out = t.wait();
            assert_eq!(
                out.level,
                Some(EquivalenceLevel::Strict),
                "{:?}",
                out.report
            );
        }
        let report = svc.shutdown();
        assert_eq!(report.metrics.counter(LOCKS_EXCLUSIVE), 0);
        assert!(report.metrics.counter(LOCKS_SHARED) > 0);
        assert_eq!(report.metrics.counter(SERVICE_READ_ONLY_JOBS), 6);
        assert_eq!(report.metrics.counter(SERVICE_JOBS), 6);
    }

    #[test]
    fn mutating_job_takes_exclusive_locks_and_verifies() {
        let (b, ctx) = builder(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let svc = b.start();
        let session = svc.session();
        let t = session.submit(ctx, store_program(), 0).unwrap();
        let out = t.wait();
        assert_eq!(
            out.level,
            Some(EquivalenceLevel::Strict),
            "{:?}",
            out.report
        );
        let report = svc.shutdown();
        assert!(report.metrics.counter(LOCKS_EXCLUSIVE) > 0);
        assert_eq!(report.metrics.counter(SERVICE_READ_ONLY_JOBS), 0);
    }

    /// Contexts over one source share its ground truth: the same program,
    /// submitted to each of two such contexts in turn, runs on the source
    /// once.
    #[test]
    fn contexts_over_one_source_share_one_ground_truth() {
        let (mut b, first) = builder(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let second = b
            .register_context(
                &company_schema(),
                &fig_4_4(),
                company_db(),
                Inputs::new().with_terminal(&["RETRIEVE"]),
            )
            .unwrap();
        let svc = b.start();
        let session = svc.session();
        for (key, ctx) in [(0, first), (1, second)] {
            let out = session
                .submit(ctx, read_only_program(), key)
                .unwrap()
                .wait();
            assert_eq!(
                out.level,
                Some(EquivalenceLevel::Strict),
                "{:?}",
                out.report
            );
        }
        let report = svc.shutdown();
        assert_eq!(report.metrics.counter(SERVICE_TRUTH_MISSES), 1);
        assert_eq!(report.metrics.counter(SERVICE_TRUTH_HITS), 1);
    }

    /// Verification runs under the ladder's fuel, `DEFAULT_VERIFY_FUEL`: a
    /// program that needs more steps than that (but fewer than the
    /// interpreter's default limit) is not served as verified; it is
    /// demoted with its fuel exhaustion on record, as on the ladder.
    #[test]
    fn verification_runs_under_the_ladder_fuel() {
        let (b, ctx) = builder(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        // Two steps per iteration: about 400,000 steps.
        let looping = parse_program(
            "PROGRAM P;
  LET I := 0;
  WHILE I < 200000 DO
    LET I := I + 1;
  END WHILE;
  PRINT I;
END PROGRAM;",
        )
        .unwrap();
        let out = b.run_serial(&[(ctx, looping, 0)]).unwrap().remove(0);
        assert_eq!(out.level, None, "{:?}", out.report);
        assert_eq!(out.report.verdict, Verdict::NeedsManualWork);
        let last = out.report.fallbacks.last().map(|f| &f.error);
        assert!(
            matches!(
                last,
                Some(PipelineError::FuelExhausted {
                    stage: Stage::Verification
                })
            ),
            "{:?}",
            out.report.fallbacks
        );
    }

    /// A verification that cannot get its locks degrades to
    /// needs-manual-work with the timeout on the fallback record — it is
    /// never served as a success.
    #[test]
    fn lock_timeout_demotes_to_needs_manual_work() {
        let (b, ctx) = builder(ServiceConfig {
            lock_timeout: Duration::from_millis(30),
            retry: RetryPolicy {
                retries: 1,
                ..RetryPolicy::default()
            },
            ..ServiceConfig::default()
        });
        let table = LockTable::new();
        let context = &b.contexts[ctx];
        // A foreign session holds the target-side EMP record type
        // exclusively for the whole test.
        let blocked = LockRes::record_type(context.space_target(), "EMP");
        table.x_lock(&blocked, Duration::from_secs(1)).unwrap();
        let (report, level) = execute_job(
            &b.config,
            &table,
            context,
            &Arc::new(read_only_program()),
            0,
        );
        assert_eq!(report.verdict, Verdict::NeedsManualWork);
        assert_eq!(level, None);
        assert!(
            matches!(
                report.fallbacks.last(),
                Some(RungFailure {
                    error: PipelineError::LockTimeout { .. },
                    attempts: 2,
                    ..
                })
            ),
            "{:?}",
            report.fallbacks
        );
        table.unlock(&blocked, LockKind::Exclusive);
        // With the lock released, the same job verifies cleanly.
        let (report, level) = execute_job(
            &b.config,
            &table,
            context,
            &Arc::new(read_only_program()),
            0,
        );
        assert!(report.succeeded());
        assert_eq!(level, Some(EquivalenceLevel::Strict));
    }

    /// The backoff schedule is a pure function of `(seed, key, attempt)`:
    /// reproducible, jittered within `[0.5, 1.0)×`, capped, and `ZERO`
    /// when disabled.
    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let p = RetryPolicy {
            retries: 8,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(80),
            backoff_seed: 0x1979,
        };
        for attempt in 1..=8usize {
            let nominal = Duration::from_millis(10 << (attempt - 1).min(3));
            let capped = nominal.min(Duration::from_millis(80));
            for key in [0u64, 7, 0xDEAD_BEEF] {
                let d = p.backoff(key, attempt);
                assert_eq!(d, p.backoff(key, attempt), "deterministic");
                assert!(d >= capped.mul_f64(0.5), "{d:?} < half of {capped:?}");
                assert!(d < capped + Duration::from_nanos(1), "{d:?} > {capped:?}");
            }
        }
        // Distinct keys get distinct jitter (with these inputs).
        assert_ne!(p.backoff(0, 1), p.backoff(7, 1));
        // Disabled backoff never sleeps.
        assert_eq!(RetryPolicy::default().backoff(7, 3), Duration::ZERO);
    }

    /// A closed queue refuses new jobs, handing them back, and still
    /// yields the jobs queued before it closed.
    #[test]
    fn closed_queue_refuses_push_and_keeps_queued_jobs() {
        let job = |seq: u64| Job {
            seq,
            session: 0,
            ctx: 0,
            program: Arc::new(read_only_program()),
            key: seq,
            queued_at: Instant::now(),
            slot: Slot::new(),
        };
        let q = Queue::new(1);
        assert!(q.push(job(0)).is_ok());
        q.close();
        assert_eq!(q.push(job(1)).map_err(|j| j.seq), Err(1));
        assert_eq!(q.pop().map(|j| j.seq), Some(0));
        assert!(q.pop().is_none());
    }

    /// A submit that finds the queue closed after journaling its `ADMIT`
    /// journals a `SHED` and refuses with `Overloaded`, so a restart
    /// replays nothing.
    #[test]
    fn closed_queue_submit_is_shed_not_replayed() {
        let tmp = dbpc_storage::TempDir::new("svc-closed-submit").unwrap();
        let config = || ServiceConfig {
            workers: 1,
            durable_root: Some(tmp.path().to_path_buf()),
            ..ServiceConfig::default()
        };
        let (b, ctx) = builder(config());
        let svc = b.start();
        svc.inner.queue.close();
        let refused = svc.session().submit(ctx, read_only_program(), 0);
        assert!(
            matches!(refused, Err(PipelineError::Overloaded { .. })),
            "{:?}",
            refused.err()
        );
        let report = svc.shutdown();
        assert_eq!(report.metrics.counter(SERVICE_SHED), 1);

        let (b, _) = builder(config());
        let svc = b.start();
        let recovery = svc.recovery();
        svc.shutdown();
        assert_eq!(recovery.admitted, 1, "{recovery:?}");
        assert_eq!(recovery.replayed, 0, "{recovery:?}");
        assert_eq!(recovery.shed, 1, "{recovery:?}");
    }

    /// Admission control: a capacity-1 queue still completes every job,
    /// and the backpressure gauge records the submits that had to wait.
    #[test]
    fn bounded_queue_applies_backpressure_without_losing_jobs() {
        let (b, ctx) = builder(ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServiceConfig::default()
        });
        let svc = b.start();
        let session = svc.session();
        let tickets: Vec<Ticket> = (0..8)
            .map(|k| session.submit(ctx, read_only_program(), k).unwrap())
            .collect();
        let outcomes: Vec<JobOutcome> = tickets.into_iter().map(Ticket::wait).collect();
        assert_eq!(outcomes.len(), 8);
        for out in &outcomes {
            assert_eq!(out.level, Some(EquivalenceLevel::Strict));
        }
        let report = svc.shutdown();
        assert!(report.metrics.counter(SERVICE_QUEUE_DEPTH_MAX) <= 1);
        assert_eq!(report.metrics.counter(SERVICE_JOBS), 8);
    }

    /// Concurrent mixed sessions produce outcomes byte-identical to the
    /// serial reference (the full interleaving study lives in
    /// `tests/service_equivalence.rs`).
    #[test]
    fn concurrent_outcomes_match_serial_reference() {
        let jobs: Vec<(CtxId, Program, u64)> = (0..10u64)
            .map(|k| {
                let p = if k % 3 == 0 {
                    store_program()
                } else {
                    read_only_program()
                };
                (0, p, k)
            })
            .collect();
        let (b, ctx) = builder(ServiceConfig {
            workers: 4,
            ..ServiceConfig::default()
        });
        assert_eq!(ctx, 0);
        let serial = b.run_serial(&jobs).unwrap();
        let svc = b.start();
        let session = svc.session();
        let tickets: Vec<Ticket> = jobs
            .iter()
            .map(|(c, p, k)| session.submit(*c, p.clone(), *k).unwrap())
            .collect();
        let concurrent: Vec<JobOutcome> = tickets.into_iter().map(Ticket::wait).collect();
        drop(svc);
        for (s, c) in serial.iter().zip(&concurrent) {
            assert_eq!(s.report, c.report);
            assert_eq!(s.level, c.level);
        }
    }

    /// A context is its translation in RAM: two builds over one durable
    /// root translate to the same target, and after each run the root
    /// holds nothing but the job journal.
    #[test]
    fn durable_root_holds_only_the_journal() {
        let tmp = dbpc_storage::TempDir::new("svc-durable").unwrap();
        let entries = || {
            let mut names: Vec<String> = std::fs::read_dir(tmp.path())
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            names.sort();
            names
        };
        let mut base_fps = Vec::new();
        for _ in 0..2 {
            let (b, ctx) = builder(ServiceConfig {
                durable_root: Some(tmp.path().to_path_buf()),
                ..ServiceConfig::default()
            });
            base_fps.push(b.contexts[ctx].target.checkout().fingerprint());
            let svc = b.start();
            let session = svc.session();
            let out = session.submit(ctx, read_only_program(), 0).unwrap().wait();
            assert_eq!(
                out.level,
                Some(EquivalenceLevel::Strict),
                "{:?}",
                out.report
            );
            svc.shutdown();
            assert_eq!(entries(), ["journal"]);
        }
        assert_eq!(base_fps[0], base_fps[1]);
    }

    #[test]
    fn submit_rejects_unknown_context() {
        let (b, _) = builder(ServiceConfig::default());
        let svc = b.start();
        let session = svc.session();
        assert!(session.submit(99, read_only_program(), 0).is_err());
    }

    /// Satellite regression (ISSUE 9): a durable service *dropped* without
    /// `shutdown` must still flush journal completions — a journal
    /// reopened over the same root sees every job as done, none pending.
    #[test]
    fn drop_without_shutdown_flushes_journal_completions() {
        let tmp = dbpc_storage::TempDir::new("svc-drop-flush").unwrap();
        let config = ServiceConfig {
            workers: 2,
            durable_root: Some(tmp.path().to_path_buf()),
            ..ServiceConfig::default()
        };
        let (b, ctx) = builder(config);
        let svc = b.start();
        let session = svc.session();
        let tickets: Vec<Ticket> = (0..4)
            .map(|k| session.submit(ctx, read_only_program(), k).unwrap())
            .collect();
        for t in tickets {
            assert_eq!(t.wait().level, Some(EquivalenceLevel::Strict));
        }
        drop(svc); // no shutdown()

        let (_, scan) =
            crate::journal::JobJournal::open(&tmp.path().join("journal"), None, None).unwrap();
        assert_eq!(scan.admitted, 4);
        assert_eq!(scan.results.len(), 4, "drop must flush staged DONEs");
        assert!(scan.pending.is_empty(), "{:?}", scan.pending);
    }

    /// A pending job whose context this run did not register is shed at
    /// start-up and counted as shed, not replayed, so `admitted ==
    /// results + replayed + shed`; a second restart replays nothing.
    #[test]
    fn startup_sheds_are_counted_as_shed_not_replayed() {
        let tmp = dbpc_storage::TempDir::new("svc-startup-shed").unwrap();
        let (mut j, _) = JobJournal::open(&tmp.path().join("journal"), None, None).unwrap();
        j.append(&JournalRecord::admit(0, 0, 0, 0, &read_only_program()));
        j.append(&JournalRecord::admit(1, 0, 1, 1, &read_only_program()));
        drop(j);
        let restart = || {
            let (b, _) = builder(ServiceConfig {
                workers: 1,
                durable_root: Some(tmp.path().to_path_buf()),
                ..ServiceConfig::default()
            });
            let svc = b.start();
            let recovery = svc.recovery();
            (recovery, svc.shutdown())
        };
        let stats = |results, replayed| RecoveryStats {
            admitted: 2,
            results,
            replayed,
            shed: 1,
            next_seq: 2,
        };

        let (recovery, report) = restart();
        assert_eq!(recovery, stats(0, 1));
        assert_eq!(report.metrics.counter(SERVICE_JOBS_REPLAYED), 1);
        assert_eq!(report.metrics.counter(SERVICE_SHED), 1);
        assert_eq!(report.metrics.counter(SERVICE_JOBS), 1);

        let (recovery, report) = restart();
        assert_eq!(recovery, stats(1, 0));
        assert_eq!(report.metrics.counter(SERVICE_JOBS_REPLAYED), 0);
        assert_eq!(report.metrics.counter(SERVICE_RESULTS_RECOVERED), 1);
    }

    /// Jobs still queued when a zero drain budget expires are shed: each
    /// ticket carries `Overloaded`, each shed is journaled, and a reopened
    /// service replays none of them.
    #[test]
    fn drain_sheds_are_journaled_and_never_replayed() {
        let tmp = dbpc_storage::TempDir::new("svc-drain-shed").unwrap();
        let config = || ServiceConfig {
            workers: 1,
            durable_root: Some(tmp.path().to_path_buf()),
            ..ServiceConfig::default()
        };
        let (b, ctx) = builder(config());
        let svc = b.start();
        let inner = Arc::clone(&svc.inner);
        // Hold the target side's EMP type: the one worker parks on its
        // first job, so the rest stay queued until the drain sheds them.
        let blocked = LockRes::record_type(inner.contexts[ctx].space_target(), "EMP");
        inner
            .lock_table
            .x_lock(&blocked, Duration::from_secs(5))
            .unwrap();
        let tickets: Vec<Ticket> = {
            let session = svc.session();
            (0..6)
                .map(|k| session.submit(ctx, read_only_program(), k).unwrap())
                .collect()
        };
        let drain = std::thread::spawn(move || svc.shutdown_within(Duration::ZERO));
        while !inner.queue.is_empty() {
            std::thread::sleep(Duration::from_millis(1));
        }
        inner.lock_table.unlock(&blocked, LockKind::Exclusive);
        let report = drain.join().unwrap();
        let outcomes: Vec<JobOutcome> = tickets.into_iter().map(Ticket::wait).collect();
        let shed = outcomes
            .iter()
            .filter(|o| o.report.verdict == Verdict::Rejected)
            .inspect(|o| {
                assert!(
                    matches!(
                        o.report.fallbacks.as_slice(),
                        [RungFailure {
                            error: PipelineError::Overloaded { .. },
                            ..
                        }]
                    ),
                    "{:?}",
                    o.report
                )
            })
            .count() as u64;
        assert!(shed >= 5, "only the parked job may run: {shed} shed");
        assert_eq!(report.metrics.counter(SERVICE_SHED), shed);
        assert_eq!(report.metrics.counter(SERVICE_JOBS) + shed, 6);

        let (b, _) = builder(config());
        let svc = b.start();
        let recovery = svc.recovery();
        svc.shutdown();
        assert_eq!(recovery.replayed, 0, "{recovery:?}");
        assert_eq!(recovery.shed, shed, "{recovery:?}");
        assert_eq!(recovery.results + recovery.shed, 6, "{recovery:?}");
    }

    /// The shards a halted service journaled decode to exactly the ones
    /// it kept in its sink: every recovered result equals its original.
    #[test]
    fn halted_service_journals_shards_that_decode_exactly() {
        let tmp = dbpc_storage::TempDir::new("svc-halt-shards").unwrap();
        let (b, ctx) = builder(ServiceConfig {
            workers: 2,
            durable_root: Some(tmp.path().to_path_buf()),
            ..ServiceConfig::default()
        });
        let svc = b.start();
        let session = svc.session();
        for k in 0..8u64 {
            let p = if k % 3 == 0 {
                store_program()
            } else {
                read_only_program()
            };
            session.submit(ctx, p, k).unwrap().wait();
        }
        let journaled: Vec<_> = lock(&svc.inner.sink)
            .iter()
            .map(|(seq, payload)| (*seq, decode_done(payload).unwrap()))
            .collect();
        assert_eq!(journaled.len(), 8);
        svc.halt();

        let (_, scan) =
            crate::journal::JobJournal::open(&tmp.path().join("journal"), None, None).unwrap();
        assert_eq!(scan.decode_errors, 0);
        // Each admit's fsync made the previous job's staged DONE durable.
        assert!(scan.results.len() >= 7, "{}", scan.results.len());
        for (seq, payload) in &scan.results {
            let (_, cap, frame) = decode_done(payload).unwrap();
            let (_, (_, cap0, frame0)) = journaled.iter().find(|(s, _)| s == seq).unwrap();
            assert_eq!((&cap, &frame), (cap0, frame0), "shard {seq}");
            assert_eq!(
                format!("{cap:?}"),
                format!("{cap0:?}"),
                "wall times of {seq}"
            );
        }
    }

    /// Twelve jobs on context 0, every third one mutating.
    fn twelve_jobs() -> Vec<(CtxId, Program, u64)> {
        (0..12u64)
            .map(|k| {
                let p = if k % 3 == 0 {
                    store_program()
                } else {
                    read_only_program()
                };
                (0, p, k)
            })
            .collect()
    }

    /// Submit `jobs` on one session and wait for every verdict.
    fn run_jobs(svc: &ConversionService, jobs: &[(CtxId, Program, u64)]) {
        let session = svc.session();
        let tickets: Vec<Ticket> = jobs
            .iter()
            .map(|(c, p, k)| session.submit(*c, p.clone(), *k).unwrap())
            .collect();
        for t in tickets {
            t.wait();
        }
    }

    /// A durable service and a journal-less one keep their shards the same
    /// way, so the same jobs assemble to the same deterministic report.
    #[test]
    fn one_shard_encoding_durable_and_journal_less_reports_match() {
        let tmp = dbpc_storage::TempDir::new("svc-one-encoding").unwrap();
        let reports: Vec<String> = [None, Some(tmp.path().to_path_buf())]
            .into_iter()
            .map(|durable_root| {
                let (b, _) = builder(ServiceConfig {
                    workers: 2,
                    durable_root,
                    ..ServiceConfig::default()
                });
                let svc = b.start();
                run_jobs(&svc, &twelve_jobs());
                svc.shutdown().deterministic().to_json()
            })
            .collect();
        assert_eq!(reports[0], reports[1]);
    }

    /// Every shard the sink holds is, byte for byte, the `DONE` payload
    /// the journal holds for that seq.
    #[test]
    fn one_shard_encoding_sink_holds_the_journals_done_bytes() {
        let tmp = dbpc_storage::TempDir::new("svc-sink-bytes").unwrap();
        let (b, _) = builder(ServiceConfig {
            workers: 2,
            durable_root: Some(tmp.path().to_path_buf()),
            ..ServiceConfig::default()
        });
        let svc = b.start();
        run_jobs(&svc, &twelve_jobs());
        let mut kept = lock(&svc.inner.sink).clone();
        kept.sort_by_key(|(seq, _)| *seq);
        svc.shutdown();

        let (_, scan) =
            crate::journal::JobJournal::open(&tmp.path().join("journal"), None, None).unwrap();
        assert_eq!(scan.decode_errors, 0);
        assert_eq!(kept.len(), 12);
        assert_eq!(scan.results, kept);
    }

    /// A journal written before `DONE` went binary: its tag-2 JSON `DONE`
    /// is counted as a journal error and the job replays, to the report a
    /// fresh run produces.
    #[test]
    fn legacy_json_done_replays_to_a_fresh_runs_report() {
        let config = |root: &Path| ServiceConfig {
            workers: 2,
            durable_root: Some(root.to_path_buf()),
            ..ServiceConfig::default()
        };
        let fresh_root = dbpc_storage::TempDir::new("svc-legacy-fresh").unwrap();
        let (b, ctx) = builder(config(fresh_root.path()));
        let svc = b.start();
        svc.session()
            .submit(ctx, read_only_program(), 5)
            .unwrap()
            .wait();
        let fresh = svc.shutdown();

        let root = dbpc_storage::TempDir::new("svc-legacy").unwrap();
        let dir = root.path().join("journal");
        let (mut j, _) = crate::journal::JobJournal::open(&dir, None, None).unwrap();
        j.append(&JournalRecord::admit(0, 0, ctx, 5, &read_only_program()));
        drop(j);
        let fm =
            dbpc_storage::disk::FileMgr::new(&dir, dbpc_storage::disk::DEFAULT_PAGE_SIZE).unwrap();
        let (mut log, records) =
            dbpc_storage::LogMgr::open(Arc::new(fm), crate::journal::JOURNAL_FILE).unwrap();
        assert_eq!(records.len(), 1);
        let json = r#"{"ticks":2,"spans":[{"kind":"event","name":"unit","open":0,"close":0}],"metrics":[{"name":"service.jobs","kind":"counter","value":1}]}"#;
        let mut legacy = vec![crate::journal::TAG_DONE_JSON];
        legacy.extend_from_slice(&0u64.to_le_bytes());
        legacy.extend_from_slice(&(json.len() as u32).to_le_bytes());
        legacy.extend_from_slice(json.as_bytes());
        log.append(&legacy).unwrap();
        log.flush().unwrap();
        drop(log);

        let (b, _) = builder(config(root.path()));
        let svc = b.start();
        let recovery = svc.recovery();
        assert_eq!(recovery.admitted, 1);
        assert_eq!(recovery.replayed, 1);
        assert_eq!(recovery.results, 0);
        let report = svc.shutdown();
        assert_eq!(report.metrics.counter(SERVICE_JOURNAL_ERRORS), 1);
        assert_eq!(report.metrics.counter(SERVICE_JOBS_REPLAYED), 1);
        assert_eq!(report.deterministic(), fresh.deterministic());
    }

    /// Crash and recover, in-process: `halt()` abandons the journal
    /// mid-run (results staged but unflushed), and a service restarted
    /// over the same root replays exactly the incomplete jobs to a
    /// deterministic projection byte-identical to an uninterrupted run.
    #[test]
    fn halt_recovery_report_matches_uninterrupted_run() {
        let jobs: Vec<(CtxId, Program, u64)> = (0..6u64)
            .map(|k| {
                let p = if k % 3 == 0 {
                    store_program()
                } else {
                    read_only_program()
                };
                (0, p, k)
            })
            .collect();
        let run_all = |root: &Path, submit_from: u64| -> (RecoveryStats, RunReport) {
            let (b, _ctx) = builder(ServiceConfig {
                workers: 2,
                durable_root: Some(root.to_path_buf()),
                ..ServiceConfig::default()
            });
            let svc = b.start();
            let recovery = svc.recovery();
            let session = svc.session();
            let tickets: Vec<Ticket> = jobs
                .iter()
                .skip(submit_from as usize)
                .map(|(c, p, k)| session.submit(*c, p.clone(), *k).unwrap())
                .collect();
            for t in tickets {
                t.wait();
            }
            (recovery, svc.shutdown())
        };

        // Reference: uninterrupted run over a fresh root.
        let clean_root = dbpc_storage::TempDir::new("svc-halt-clean").unwrap();
        let (_, clean) = run_all(clean_root.path(), 0);

        // Crashed run: complete three jobs, then halt without flushing.
        let crash_root = dbpc_storage::TempDir::new("svc-halt-crash").unwrap();
        {
            let (b, _ctx) = builder(ServiceConfig {
                workers: 2,
                durable_root: Some(crash_root.path().to_path_buf()),
                ..ServiceConfig::default()
            });
            let svc = b.start();
            let session = svc.session();
            let tickets: Vec<Ticket> = jobs
                .iter()
                .take(3)
                .map(|(c, p, k)| session.submit(*c, p.clone(), *k).unwrap())
                .collect();
            for t in tickets {
                t.wait();
            }
            svc.halt();
        }

        // Recovered run: replays whatever the journal lost, the driver
        // resubmits from the journal's next_seq.
        let (recovery, recovered) = run_all(crash_root.path(), {
            let (_, scan) =
                crate::journal::JobJournal::open(&crash_root.path().join("journal"), None, None)
                    .unwrap();
            scan.next_seq
        });
        assert_eq!(recovery.admitted, 3);
        assert_eq!(
            recovery.results + recovery.replayed,
            3,
            "every admitted job is either recovered or replayed: {recovery:?}"
        );
        assert_eq!(recovery.next_seq, 3);
        assert_eq!(
            recovered.deterministic(),
            clean.deterministic(),
            "recovered deterministic projection must match the clean run"
        );
    }
}
