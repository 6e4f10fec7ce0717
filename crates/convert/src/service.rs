//! The long-running conversion service: sessions, admission control, and
//! concurrency-managed verification over shared engines.
//!
//! The batch pipeline (PR 2) parallelizes one *batch* by striding its index
//! space; this module replaces that shape with the ROADMAP's north star — a
//! service that accepts conversion jobs continuously and runs them against
//! shared engine state under real concurrency control:
//!
//! * **Contexts** ([`ServiceBuilder::register_context`]) hoist everything
//!   that depends only on `(schema, restructuring, source database)`: the
//!   validated [`Mapping`], the target [`AccessPathGraph`], the schema
//!   fingerprint, the translated target database, and a replica pool for
//!   each side. Queued jobs replay that state instead of rebuilding it —
//!   on this corpus the per-job pipeline spends most of its time there,
//!   which is what the `BENCH_service_load` amortization figure measures.
//!   The translation lives in RAM only: the source database is
//!   authoritative, so every registration translates it afresh, a
//!   restarted service included (retranslating is cheaper than reloading
//!   a persisted copy would be).
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
//! cannot be referenced from two threads. Each context therefore keeps a
//! small checkout/checkin pool of replicas of its base. This is sound
//! *because of* the concurrency manager and the undo journal: every run —
//! ground truth and verification alike — executes inside a savepoint that
//! is rolled back, so every replica stays byte-identical to the base
//! (debug builds assert the fingerprint at every checkin), and the lock
//! table enforces exactly the schedule that would make literal sharing
//! correct — readers overlap, conflicting writers serialize per record
//! type. Concurrency changes *when* a job runs, never *what* it produces:
//! [`ServiceBuilder::run_serial`] executes the same jobs inline through the
//! same code path, and `tests/service_equivalence.rs` asserts the outcomes
//! are byte-identical.
//!
//! Determinism: a job's `(report, level)` is a pure function of
//! `(context, program, fault key)` — the fault plan is keyed, the truth
//! memo caches a pure function of the program, and rollback restores every
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
//! to prove it). Overload is handled by policy rather than by dying:
//! [`AdmissionPolicy`] picks blocking backpressure, reject-new, or
//! shed-oldest; [`RetryPolicy`] replaces the fixed retry loop with a
//! seeded, thread-count-invariant exponential backoff under an optional
//! per-job deadline; and a per-context circuit breaker
//! ([`BreakerConfig`]) fast-fails jobs against a context that keeps
//! failing, re-probing after a cooldown.

use crate::equivalence::{judge_equivalence, source_trace, EquivalenceLevel};
use crate::journal::{BoundaryHook, JobJournal, RecoveredJob};
use crate::mapping::Mapping;
use crate::report::{Analyst, AutoAnalyst, ConversionReport, PermissiveAnalyst, Verdict};
use crate::supervisor::fault::panic_payload;
use crate::supervisor::ladder::{retryable, RungFailure};
use crate::supervisor::{failure_report, Supervisor};
use dbpc_analyzer::apg::AccessPathGraph;
use dbpc_datamodel::error::{ModelError, PipelineError, PipelineResult, Stage};
use dbpc_datamodel::network::NetworkSchema;
use dbpc_dml::host::{Program, Stmt};
use dbpc_engine::{Inputs, Trace};
use dbpc_obs::metrics::MetricValue;
use dbpc_obs::{Capture, MetricsFrame, MetricsRegistry, RunReport};
use dbpc_restructure::Restructuring;
use dbpc_storage::locks::{ConcurrencyMgr, LockError, LockKind, LockRes, LockTable};
use dbpc_storage::{pool, NetworkDb};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{Hash, Hasher};
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
/// Racy shutdown stat: jobs shed by admission policy or drain expiry.
pub const SERVICE_SHED: &str = "service.shed";
/// Racy shutdown stat: circuit-breaker trips across all contexts.
pub const SERVICE_BREAKER_TRIPS: &str = "service.breaker_trips";
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
    /// Admission-queue bound: what happens at this depth is the
    /// [`AdmissionPolicy`]'s decision.
    pub queue_capacity: usize,
    /// What [`Session::submit`] does when the queue is at capacity.
    pub admission: AdmissionPolicy,
    /// How long a lock request waits before the table declares a timeout —
    /// the SimpleDB-style deadlock-resolution budget.
    pub lock_timeout: Duration,
    /// The retry schedule for lock timeouts and injected (retryable)
    /// verification faults: attempt budget, deterministic backoff, and an
    /// optional per-job deadline.
    pub retry: RetryPolicy,
    /// The per-context circuit breaker (disabled by default).
    pub breaker: BreakerConfig,
    /// Approve analyst questions instead of rejecting them.
    pub permissive: bool,
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
            admission: AdmissionPolicy::Block,
            lock_timeout: Duration::from_secs(5),
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            permissive: false,
            supervisor: Supervisor::default(),
            durable_root: None,
            journal_hook: None,
        }
    }
}

/// What [`Session::submit`] does when the admission queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Block the submitter until a worker frees a slot — backpressure,
    /// the PR 7 behavior and the default.
    #[default]
    Block,
    /// Refuse the new job: `submit` returns
    /// [`PipelineError::Overloaded`] and the caller decides when to retry.
    RejectNew,
    /// Admit the new job and evict the oldest still-queued one, whose
    /// ticket resolves to a [`Verdict::Rejected`] report carrying
    /// [`PipelineError::Overloaded`] — freshest-work-wins shedding.
    ShedOldest,
}

/// The retry schedule for retryable per-job failures (lock timeouts,
/// injected transient faults): a bounded attempt budget with seeded
/// exponential backoff and an optional wall-clock deadline.
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
    /// Wall-clock budget measured from admission; a retry whose backoff
    /// would land past the deadline fails with
    /// [`PipelineError::DeadlineExceeded`] instead of sleeping.
    pub deadline: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            retries: 1,
            backoff_base: Duration::ZERO,
            backoff_cap: Duration::from_millis(100),
            backoff_seed: 0x1979,
            deadline: None,
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

/// Per-context circuit breaker: after `threshold` consecutive ladder
/// failures on one context, jobs against it fast-fail with
/// [`PipelineError::CircuitOpen`] for `cooldown`, then a single probe job
/// is let through — success closes the breaker, failure re-opens it.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker; `0` (default) disables.
    pub threshold: u32,
    /// How long the breaker stays open before admitting a probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            threshold: 0,
            cooldown: Duration::from_millis(50),
        }
    }
}

/// Runtime state of one context's circuit breaker.
#[derive(Debug, Default)]
struct Breaker {
    consecutive: u32,
    trips: u64,
    open_until: Option<Instant>,
    probing: bool,
}

/// Gate one job through a context's breaker. `Err` means fast-fail.
fn breaker_admit(config: &BreakerConfig, breaker: &Mutex<Breaker>) -> Result<(), PipelineError> {
    if config.threshold == 0 {
        return Ok(());
    }
    let mut b = lock(breaker);
    match b.open_until {
        None => Ok(()),
        Some(until) if Instant::now() < until => Err(PipelineError::CircuitOpen {
            trips: u32::try_from(b.trips).unwrap_or(u32::MAX),
        }),
        Some(_) if b.probing => Err(PipelineError::CircuitOpen {
            trips: u32::try_from(b.trips).unwrap_or(u32::MAX),
        }),
        Some(_) => {
            // Cooldown over: half-open. Exactly one probe runs; everyone
            // else keeps fast-failing until the probe reports back.
            b.probing = true;
            Ok(())
        }
    }
}

/// Report a gated job's outcome back to its breaker.
fn breaker_record(config: &BreakerConfig, breaker: &Mutex<Breaker>, success: bool) {
    if config.threshold == 0 {
        return;
    }
    let mut b = lock(breaker);
    b.probing = false;
    if success {
        b.consecutive = 0;
        b.open_until = None;
    } else {
        b.consecutive += 1;
        if b.consecutive >= config.threshold {
            b.trips += 1;
            b.consecutive = 0;
            b.open_until = Some(Instant::now() + config.cooldown);
        }
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

/// A replica pool over one logical database: checkout hands a worker its
/// own `NetworkDb` instance (the type's interior caches are not `Sync`),
/// checkin returns it. Sound because every run is rolled back — replicas
/// never diverge from the base, which debug builds assert by fingerprint.
struct EnginePool {
    inner: Mutex<PoolState>,
    /// Fingerprint of the base; every checkin must still match it.
    base_fp: u64,
    /// Bound on retained spares (the worker count — more can never be
    /// checked out at once).
    cap: usize,
}

struct PoolState {
    base: NetworkDb,
    spares: Vec<NetworkDb>,
}

impl EnginePool {
    fn new(base: NetworkDb, cap: usize) -> EnginePool {
        EnginePool {
            base_fp: base.fingerprint(),
            inner: Mutex::new(PoolState {
                base,
                spares: Vec::new(),
            }),
            cap: cap.max(1),
        }
    }

    fn checkout(&self) -> NetworkDb {
        let mut st = lock(&self.inner);
        st.spares.pop().unwrap_or_else(|| st.base.clone())
    }

    fn checkin(&self, db: NetworkDb) {
        debug_assert_eq!(
            db.fingerprint(),
            self.base_fp,
            "engine replica diverged from its base: a verification escaped its savepoint"
        );
        let mut st = lock(&self.inner);
        if st.spares.len() < self.cap {
            st.spares.push(db);
        }
    }
}

/// Everything hoisted once per `(schema, restructuring, source database)`.
struct Context {
    schema: NetworkSchema,
    mapping: Mapping,
    schema_fp: Option<u64>,
    inputs: Inputs,
    source: EnginePool,
    target: EnginePool,
    /// Ground-truth traces keyed by structural program hash: a pure
    /// function of the key (fixed source base, fixed inputs), so whichever
    /// worker fills an entry first, every reader sees the same trace.
    truth: Mutex<HashMap<u64, Arc<Trace>>>,
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
    program: Program,
    key: u64,
    queued_at: Instant,
    slot: Arc<Slot>,
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

/// The outcome of one admission attempt (see [`AdmissionPolicy`]).
enum Admitted {
    /// The job is queued.
    Queued,
    /// `RejectNew` refused the job (queue full); nothing was queued.
    Rejected,
    /// `ShedOldest` queued the job and evicted this victim.
    Shed(Job),
    /// The queue is closed; nothing was queued.
    Closed,
}

/// The bounded admission queue (see module docs).
struct Queue {
    capacity: usize,
    policy: AdmissionPolicy,
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
    fn new(capacity: usize, policy: AdmissionPolicy) -> Queue {
        Queue {
            capacity: capacity.max(1),
            policy,
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

    /// Admission under the configured policy.
    fn push(&self, job: Job) -> Admitted {
        match self.policy {
            AdmissionPolicy::Block => match self.requeue(job) {
                Ok(()) => Admitted::Queued,
                Err(_) => Admitted::Closed,
            },
            AdmissionPolicy::RejectNew => {
                let mut st = lock(&self.state);
                if st.closed {
                    return Admitted::Closed;
                }
                if st.jobs.len() >= self.capacity {
                    return Admitted::Rejected;
                }
                self.enqueue(&mut st, job);
                drop(st);
                self.not_empty.notify_one();
                Admitted::Queued
            }
            AdmissionPolicy::ShedOldest => {
                let mut st = lock(&self.state);
                if st.closed {
                    return Admitted::Closed;
                }
                let victim = if st.jobs.len() >= self.capacity {
                    st.jobs.pop_front()
                } else {
                    None
                };
                self.enqueue(&mut st, job);
                drop(st);
                self.not_empty.notify_one();
                match victim {
                    Some(v) => Admitted::Shed(v),
                    None => Admitted::Queued,
                }
            }
        }
    }

    /// Blocking admission regardless of policy: waits while the queue is
    /// at capacity. `Err` returns the job when the queue has been closed.
    /// Journal replay uses this directly — recovered jobs are *already*
    /// admitted, so no shedding policy may drop them.
    fn requeue(&self, job: Job) -> Result<(), Job> {
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
        self.enqueue(&mut st, job);
        drop(st);
        self.not_empty.notify_one();
        Ok(())
    }

    fn enqueue(&self, st: &mut QueueState, job: Job) {
        st.jobs.push_back(job);
        self.depth_max.fetch_max(st.jobs.len(), Ordering::Relaxed);
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

/// Per-job observability shard: `(seq, span tree, metrics delta)`, merged
/// in admission order at shutdown so the assembled report is a pure
/// function of the job sequence.
type ObsShard = (u64, Capture, MetricsFrame);

struct ServiceInner {
    config: ServiceConfig,
    contexts: Vec<Arc<Context>>,
    lock_table: LockTable,
    queue: Queue,
    sink: Mutex<Vec<ObsShard>>,
    /// The durable job journal; `None` without a `durable_root` (or when
    /// the journal failed to open, which `journal_errors` records).
    journal: Option<Mutex<JobJournal>>,
    /// One circuit breaker per registered context.
    breakers: Vec<Mutex<Breaker>>,
    /// Jobs shed: admission rejections, evictions, and drain expiries.
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
    /// Journaled shed decisions honored (never replayed).
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
    /// reusable context: validate the mapping, build the access-path
    /// graph, translate the source once, and seed both replica pools.
    pub fn register_context(
        &mut self,
        schema: &NetworkSchema,
        restructuring: &Restructuring,
        source: NetworkDb,
        inputs: Inputs,
    ) -> PipelineResult<CtxId> {
        let mapping = Mapping::from_restructuring(schema, restructuring)?;
        let schema_fp = self
            .config
            .supervisor
            .memoize_analysis
            .then(|| dbpc_analyzer::cache::schema_fingerprint(schema));
        let target = restructuring
            .translate(&source)
            .map_err(|e| PipelineError::stage(Stage::Translation, e))?;
        let cap = self.config.resolved_workers();
        let id = self.contexts.len();
        let space_source = u32::try_from(id)
            .ok()
            .and_then(|id| id.checked_mul(2))
            .ok_or_else(|| ModelError::invalid("context id exceeds the lock namespace"))?;
        self.contexts.push(Arc::new(Context {
            schema: schema.clone(),
            mapping,
            schema_fp,
            inputs,
            source: EnginePool::new(source, cap),
            target: EnginePool::new(target, cap),
            truth: Mutex::new(HashMap::new()),
            space_source,
        }));
        Ok(id)
    }

    /// Spawn the worker pool and open the service for sessions.
    ///
    /// A durable service first opens its [`JobJournal`] and replays the
    /// scan: completed jobs' observability shards seed the sink (their
    /// reports were already served — they are *not* re-run), and
    /// admitted-but-incomplete jobs are re-enqueued with their original
    /// sequence numbers once the workers are up. Journal failures never
    /// prevent startup — the service degrades to journal-less operation
    /// and reports the error count at shutdown.
    pub fn start(self) -> ConversionService {
        let workers = self.config.resolved_workers();
        let mut journal = None;
        let mut recovery = RecoveryStats::default();
        let mut seeded: Vec<ObsShard> = Vec::new();
        let mut replay: Vec<RecoveredJob> = Vec::new();
        let mut journal_errors = 0u64;
        if let Some(root) = &self.config.durable_root {
            match JobJournal::open(
                &root.join("journal"),
                self.config.supervisor.fault.disk_faults().cloned(),
                self.config.journal_hook.clone(),
            ) {
                Ok((j, scan)) => {
                    recovery = RecoveryStats {
                        admitted: scan.admitted,
                        results: scan.results.len() as u64,
                        replayed: scan.pending.len() as u64,
                        shed: scan.shed.len() as u64,
                        next_seq: scan.next_seq,
                    };
                    journal_errors += scan.decode_errors;
                    seeded = scan.results;
                    replay = scan.pending;
                    journal = Some(Mutex::new(j));
                }
                Err(_) => journal_errors += 1,
            }
        }
        let breakers = self.contexts.iter().map(|_| Mutex::default()).collect();
        let inner = Arc::new(ServiceInner {
            queue: Queue::new(self.config.queue_capacity, self.config.admission),
            config: self.config,
            contexts: self.contexts,
            lock_table: LockTable::new(),
            sink: Mutex::new(seeded),
            journal,
            breakers,
            sheds: AtomicU64::new(0),
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
        // Replay after the workers are up, through the always-block path:
        // recovered jobs are already admitted, so no policy may drop them,
        // and a replay set larger than the queue drains as workers run.
        for job in replay {
            if job.ctx >= inner.contexts.len() {
                // A journal from a run with more contexts registered than
                // this one: never runnable here, so shed it durably.
                inner.journal(|j| j.shed(job.seq));
                inner.sheds.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let _ = inner.queue.requeue(Job {
                seq: job.seq,
                session: job.session,
                ctx: job.ctx,
                program: job.program,
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
        let breakers: Vec<Mutex<Breaker>> =
            self.contexts.iter().map(|_| Mutex::default()).collect();
        let mut out = Vec::with_capacity(jobs.len());
        for (seq, (ctx_id, program, key)) in jobs.iter().enumerate() {
            let ctx = self
                .contexts
                .get(*ctx_id)
                .ok_or_else(|| ModelError::invalid(format!("unknown context {ctx_id}")))?;
            let (report, level) = run_policied(
                &self.config,
                &table,
                ctx,
                &breakers[*ctx_id],
                program,
                *key,
                Instant::now(),
            );
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
            self.inner.journal(|j| j.shed(job.seq));
            self.inner.sheds.fetch_add(1, Ordering::Relaxed);
            let queue_ns = job.queued_at.elapsed().as_nanos() as u64;
            job.slot.fill(JobOutcome {
                seq: job.seq,
                report: failure_report(
                    Verdict::Rejected,
                    PipelineError::Overloaded {
                        detail: "drain deadline expired".to_string(),
                    },
                ),
                level: None,
                queue_ns,
                exec_ns: 0,
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
            let queue_ns = job.queued_at.elapsed().as_nanos() as u64;
            job.slot.fill(JobOutcome {
                seq: job.seq,
                report: failure_report(
                    Verdict::Rejected,
                    PipelineError::Overloaded {
                        detail: "service halted".to_string(),
                    },
                ),
                level: None,
                queue_ns,
                exec_ns: 0,
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
/// shutdown flavor). Shards are merged in admission order and de-duplicated
/// by sequence number — a recovered shard and a replayed one can never
/// coexist for the same seq, but the report must not double-count even if
/// a future caller arranges that.
fn assemble(inner: &ServiceInner) -> RunReport {
    let mut shards = std::mem::take(&mut *lock(&inner.sink));
    shards.sort_by_key(|(seq, _, _)| *seq);
    shards.dedup_by_key(|(seq, _, _)| *seq);
    let mut registry = MetricsRegistry::new();
    let mut captures = Vec::with_capacity(shards.len());
    for (_, cap, delta) in shards {
        registry.absorb(&delta);
        captures.push(cap);
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
    let journal_errors =
        inner.journal_errors.load(Ordering::Relaxed) + inner.journal(|j| j.errors()).unwrap_or(0);
    let trips: u64 = inner.breakers.iter().map(|b| lock(b).trips).sum();
    // Zero-suppressed (like `WaitStats::publish`): quiet runs keep their
    // pre-PR9 report bytes.
    for (name, value) in [
        (SERVICE_SHED, inner.sheds.load(Ordering::Relaxed)),
        (SERVICE_BREAKER_TRIPS, trips),
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
    /// coordinate). What happens at a full queue is the configured
    /// [`AdmissionPolicy`]'s call: block (default), refuse this job with
    /// [`PipelineError::Overloaded`], or evict the oldest queued one.
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
        inner.journal(|j| j.admit(seq, self.id, ctx, key, &program));
        let slot = Slot::new();
        let job = Job {
            seq,
            session: self.id,
            ctx,
            program,
            key,
            queued_at: Instant::now(),
            slot: Arc::clone(&slot),
        };
        match inner.queue.push(job) {
            Admitted::Queued => Ok(Ticket { slot }),
            Admitted::Rejected => {
                inner.journal(|j| j.shed(seq));
                inner.sheds.fetch_add(1, Ordering::Relaxed);
                Err(PipelineError::Overloaded {
                    detail: format!(
                        "admission queue full (capacity {})",
                        inner.config.queue_capacity
                    ),
                })
            }
            Admitted::Shed(victim) => {
                inner.journal(|j| j.shed(victim.seq));
                inner.sheds.fetch_add(1, Ordering::Relaxed);
                let queue_ns = victim.queued_at.elapsed().as_nanos() as u64;
                victim.slot.fill(JobOutcome {
                    seq: victim.seq,
                    report: failure_report(
                        Verdict::Rejected,
                        PipelineError::Overloaded {
                            detail: "shed by a newer admission".to_string(),
                        },
                    ),
                    level: None,
                    queue_ns,
                    exec_ns: 0,
                });
                Ok(Ticket { slot })
            }
            Admitted::Closed => Err(ModelError::invalid("service is shutting down").into()),
        }
    }
}

fn worker_loop(inner: &ServiceInner) {
    while let Some(job) = inner.queue.pop() {
        let queue_ns = job.queued_at.elapsed().as_nanos() as u64;
        let Some(ctx) = inner.contexts.get(job.ctx) else {
            // Unreachable (submit validates), but a lost slot must not
            // wedge a ticket.
            job.slot.fill(JobOutcome {
                seq: job.seq,
                report: failure_report(
                    Verdict::Rejected,
                    ModelError::invalid(format!("unknown context {}", job.ctx)).into(),
                ),
                level: None,
                queue_ns,
                exec_ns: 0,
            });
            continue;
        };
        let before = dbpc_obs::local_snapshot();
        let label = format!("session{}.job{}", job.session, job.seq);
        let started = Instant::now();
        let ((report, level), cap) = dbpc_obs::capture(&label, || {
            dbpc_obs::count(SERVICE_JOBS, 1);
            run_policied(
                &inner.config,
                &inner.lock_table,
                ctx,
                &inner.breakers[job.ctx],
                &job.program,
                job.key,
                job.queued_at,
            )
        });
        let exec_ns = started.elapsed().as_nanos() as u64;
        dbpc_obs::time(SERVICE_EXEC_NS, exec_ns);
        dbpc_obs::time(SERVICE_QUEUE_WAIT_NS, queue_ns);
        let delta = dbpc_obs::local_snapshot().since(&before);
        inner.journal(|j| j.done(job.seq, &cap, &delta));
        lock(&inner.sink).push((job.seq, cap, delta));
        job.slot.fill(JobOutcome {
            seq: job.seq,
            report,
            level,
            queue_ns,
            exec_ns,
        });
    }
}

/// One job under the full service policy stack: circuit breaker first
/// (fast-fail without touching a worker-second of pipeline time), then the
/// panic boundary. Both the worker loop and the serial reference run jobs
/// through this one function — the serial-equivalence contract.
fn run_policied(
    config: &ServiceConfig,
    table: &LockTable,
    ctx: &Context,
    breaker: &Mutex<Breaker>,
    program: &Program,
    key: u64,
    queued_at: Instant,
) -> (ConversionReport, Option<EquivalenceLevel>) {
    if let Err(error) = breaker_admit(&config.breaker, breaker) {
        return (failure_report(Verdict::NeedsManualWork, error), None);
    }
    let (report, level) = run_guarded(config, table, ctx, program, key, queued_at);
    // "Failure" for breaker purposes is the infrastructure kind — a job
    // demoted or poisoned mid-verification — not an analyst rejection,
    // which says nothing about the context's health.
    let healthy = !matches!(report.verdict, Verdict::NeedsManualWork | Verdict::Poisoned);
    breaker_record(&config.breaker, breaker, healthy);
    (report, level)
}

/// One job under the panic boundary: a crash anywhere in conversion or
/// verification yields a poisoned report for *this* job (locks released by
/// the concurrency manager's unwind, replicas dropped), never a dead
/// worker.
fn run_guarded(
    config: &ServiceConfig,
    table: &LockTable,
    ctx: &Context,
    program: &Program,
    key: u64,
    queued_at: Instant,
) -> (ConversionReport, Option<EquivalenceLevel>) {
    catch_unwind(AssertUnwindSafe(|| {
        execute_job(config, table, ctx, program, key, queued_at)
    }))
    .unwrap_or_else(|payload| {
        (
            failure_report(
                Verdict::Poisoned,
                PipelineError::Panic {
                    detail: panic_payload(payload),
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
    program: &Program,
    key: u64,
    queued_at: Instant,
) -> (ConversionReport, Option<EquivalenceLevel>) {
    let mut auto = AutoAnalyst;
    let mut perm = PermissiveAnalyst;
    let analyst: &mut dyn Analyst = if config.permissive {
        &mut perm
    } else {
        &mut auto
    };
    // The graph is a zero-cost view over the target schema; building it
    // per job keeps the context free of self-references.
    let apg = AccessPathGraph::new(&ctx.mapping.target);
    let report = match config.supervisor.convert_prepared(
        &ctx.mapping,
        &apg,
        &ctx.schema,
        ctx.schema_fp,
        program,
        analyst,
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
    let deadline = config.retry.deadline.map(|d| queued_at + d);
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
                if let Some(deadline) = deadline {
                    // Retrying would land past the deadline: give up now
                    // with the time-budget error, not after sleeping.
                    if Instant::now() + delay >= deadline {
                        let attempts = u32::try_from(attempt).unwrap_or(u32::MAX);
                        return (
                            demote(
                                report,
                                attempt,
                                PipelineError::DeadlineExceeded { attempts },
                            ),
                            None,
                        );
                    }
                }
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
                continue;
            }
            return (demote(report, attempt, error), None);
        }
        let outcome = verify(ctx, program, &converted, &report);
        drop(mgr);
        return match outcome {
            Ok(level) => (report, Some(level)),
            Err(error) => (demote(report, attempt + 1, error), None),
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

/// Run one verification under the already-held lock set: memoized ground
/// truth on a source replica, then the converted program on a target
/// replica, both inside rolled-back savepoints.
fn verify(
    ctx: &Context,
    original: &Program,
    converted: &Program,
    report: &ConversionReport,
) -> Result<EquivalenceLevel, PipelineError> {
    let truth = truth_trace(ctx, original)?;
    let mut tgt = ctx.target.checkout();
    let sp = tgt.begin_savepoint();
    let outcome = judge_equivalence(&truth, &mut tgt, converted, &ctx.inputs, &report.warnings);
    tgt.rollback_to(sp);
    ctx.target.checkin(tgt);
    let (level, _, _) = outcome.map_err(|e| PipelineError::stage(Stage::Verification, e))?;
    Ok(level)
}

/// The memoized ground-truth trace of `original` on the context's source
/// base. Which worker fills an entry depends on scheduling, so the split
/// is `Racy` and the miss run is `quiet` — its spans and counters would
/// otherwise make job captures worker-count dependent.
fn truth_trace(ctx: &Context, original: &Program) -> Result<Arc<Trace>, PipelineError> {
    let mut h = DefaultHasher::new();
    original.hash(&mut h);
    let key = h.finish();
    if let Some(trace) = lock(&ctx.truth).get(&key).cloned() {
        dbpc_obs::racy(SERVICE_TRUTH_HITS, 1);
        return Ok(trace);
    }
    dbpc_obs::racy(SERVICE_TRUTH_MISSES, 1);
    let mut src = ctx.source.checkout();
    let run = dbpc_obs::quiet(|| {
        let sp = src.begin_savepoint();
        let run = source_trace(&mut src, original, &ctx.inputs);
        src.rollback_to(sp);
        run
    });
    ctx.source.checkin(src);
    let trace = Arc::new(run.map_err(|e| PipelineError::stage(Stage::Verification, e))?);
    lock(&ctx.truth).insert(key, Arc::clone(&trace));
    Ok(trace)
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
            &read_only_program(),
            0,
            Instant::now(),
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
            &read_only_program(),
            0,
            Instant::now(),
        );
        assert!(report.succeeded());
        assert_eq!(level, Some(EquivalenceLevel::Strict));
    }

    /// The deadline cuts the retry schedule short: with a backoff that
    /// must land past the deadline, the second attempt never happens and
    /// the job degrades with `DeadlineExceeded` instead of `LockTimeout`.
    #[test]
    fn deadline_preempts_backoff_retry() {
        let (b, ctx) = builder(ServiceConfig {
            lock_timeout: Duration::from_millis(10),
            retry: RetryPolicy {
                retries: 5,
                backoff_base: Duration::from_millis(200),
                backoff_cap: Duration::from_millis(200),
                deadline: Some(Duration::from_millis(50)),
                ..RetryPolicy::default()
            },
            ..ServiceConfig::default()
        });
        let table = LockTable::new();
        let context = &b.contexts[ctx];
        let blocked = LockRes::record_type(context.space_target(), "EMP");
        table.x_lock(&blocked, Duration::from_secs(1)).unwrap();
        let (report, level) = execute_job(
            &b.config,
            &table,
            context,
            &read_only_program(),
            0,
            Instant::now(),
        );
        assert_eq!(report.verdict, Verdict::NeedsManualWork);
        assert_eq!(level, None);
        assert!(
            matches!(
                report.fallbacks.last(),
                Some(RungFailure {
                    error: PipelineError::DeadlineExceeded { attempts: 1 },
                    ..
                })
            ),
            "{:?}",
            report.fallbacks
        );
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
            deadline: None,
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

    /// Admission policies at the queue layer: `RejectNew` refuses the
    /// newcomer, `ShedOldest` evicts the oldest queued job.
    #[test]
    fn queue_admission_policies() {
        let job = |seq: u64| Job {
            seq,
            session: 0,
            ctx: 0,
            program: read_only_program(),
            key: seq,
            queued_at: Instant::now(),
            slot: Slot::new(),
        };
        let q = Queue::new(1, AdmissionPolicy::RejectNew);
        assert!(matches!(q.push(job(0)), Admitted::Queued));
        assert!(matches!(q.push(job(1)), Admitted::Rejected));
        q.close();
        assert!(matches!(q.push(job(2)), Admitted::Closed));
        // The queued job survives the rejection and the close.
        assert_eq!(q.pop().map(|j| j.seq), Some(0));

        let q = Queue::new(2, AdmissionPolicy::ShedOldest);
        assert!(matches!(q.push(job(0)), Admitted::Queued));
        assert!(matches!(q.push(job(1)), Admitted::Queued));
        match q.push(job(2)) {
            Admitted::Shed(victim) => assert_eq!(victim.seq, 0),
            other => panic!("expected Shed, got {}", admitted_name(&other)),
        }
        q.close();
        let drained: Vec<u64> = q.drain_remaining().iter().map(|j| j.seq).collect();
        assert_eq!(drained, vec![1, 2]);
    }

    fn admitted_name(a: &Admitted) -> &'static str {
        match a {
            Admitted::Queued => "Queued",
            Admitted::Rejected => "Rejected",
            Admitted::Shed(_) => "Shed",
            Admitted::Closed => "Closed",
        }
    }

    /// The circuit breaker: trips after `threshold` consecutive failures,
    /// fast-fails while open, half-opens after the cooldown, and closes on
    /// a successful probe.
    #[test]
    fn breaker_trips_fast_fails_and_reprobes() {
        let (b, ctx) = builder(ServiceConfig {
            lock_timeout: Duration::from_millis(10),
            retry: RetryPolicy {
                retries: 0,
                ..RetryPolicy::default()
            },
            breaker: BreakerConfig {
                threshold: 2,
                cooldown: Duration::from_millis(20),
            },
            ..ServiceConfig::default()
        });
        let table = LockTable::new();
        let context = &b.contexts[ctx];
        let breaker = Mutex::new(Breaker::default());
        let blocked = LockRes::record_type(context.space_target(), "EMP");
        table.x_lock(&blocked, Duration::from_secs(5)).unwrap();
        let run = |tbl: &LockTable| {
            run_policied(
                &b.config,
                tbl,
                context,
                &breaker,
                &read_only_program(),
                0,
                Instant::now(),
            )
        };
        // Two lock-timeout failures trip the breaker...
        for _ in 0..2 {
            let (report, _) = run(&table);
            assert_eq!(report.verdict, Verdict::NeedsManualWork);
        }
        assert_eq!(lock(&breaker).trips, 1);
        // ...and the third job fast-fails without waiting on the lock.
        let started = Instant::now();
        let (report, _) = run(&table);
        assert!(
            matches!(
                report.fallbacks.last(),
                Some(RungFailure {
                    error: PipelineError::CircuitOpen { trips: 1 },
                    ..
                })
            ),
            "{:?}",
            report.fallbacks
        );
        assert!(
            started.elapsed() < Duration::from_millis(10),
            "fast-fail must not wait on the lock"
        );
        // After the cooldown the probe runs for real — and with the lock
        // released it succeeds, closing the breaker.
        std::thread::sleep(Duration::from_millis(25));
        table.unlock(&blocked, LockKind::Exclusive);
        let (report, level) = run(&table);
        assert!(report.succeeded(), "{report:?}");
        assert_eq!(level, Some(EquivalenceLevel::Strict));
        let b2 = lock(&breaker);
        assert_eq!(b2.open_until, None);
        assert!(!b2.probing);
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
            base_fps.push(b.contexts[ctx].target.base_fp);
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
