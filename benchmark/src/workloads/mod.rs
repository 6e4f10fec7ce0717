//! The five workloads. Each builds its inputs from the run seed, sets up
//! the system several times (timing each set-up), measures operations for
//! the requested number of seconds, and checks every output. Before every
//! set-up and every segment of the window, and after the last, it probes
//! the host's speed with [`host::reference_kernel`] while the program is
//! idle.

mod churn;
mod service;
mod study;
mod translate;

use std::path::Path;
use std::time::{Duration, Instant};

use dbpc_corpus::named;
use dbpc_datamodel::value::Value;
use dbpc_obs::MetricsFrame;
use dbpc_storage::disk::{BUFFER_EVICTIONS, BUFFER_HITS, BUFFER_PINS, DISK_READS, DISK_WRITES};
use dbpc_storage::{NetworkDb, RecordId};

use crate::host;
use crate::metrics::Layers;
use crate::stats::{median, SplitMix64};
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Study,
    Service,
    TranslatePaged,
    TranslateMem,
    DurableChurn,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Study,
        Workload::Service,
        Workload::TranslatePaged,
        Workload::TranslateMem,
        Workload::DurableChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Study => "study",
            Workload::Service => "service",
            Workload::TranslatePaged => "translate_paged",
            Workload::TranslateMem => "translate_mem",
            Workload::DurableChurn => "durable_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn run(self, ctx: &Ctx) -> Outcome {
        match self {
            Workload::Study => study::run(ctx),
            Workload::Service => service::run(ctx),
            Workload::TranslatePaged => translate::run(ctx, translate::Backend::Paged),
            Workload::TranslateMem => translate::run(ctx, translate::Backend::Mem),
            Workload::DurableChurn => churn::run(ctx),
        }
    }
}

/// What a workload run is given.
pub struct Ctx<'a> {
    pub seed: u64,
    pub seconds: f64,
    /// Toy sizes with every check still active.
    pub smoke: bool,
    pub tracer: &'a Tracer,
    /// A directory of this run's own, inside the checkout, for every file
    /// the workload creates.
    pub scratch: &'a Path,
}

impl Ctx<'_> {
    fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }

    /// In a traced run, trace every other operation; the rest are the
    /// untraced baseline for `trace.overhead_pct`.
    fn trace_op(&self, op: u64) -> bool {
        let on = self.tracer.enabled() && op.is_multiple_of(2);
        self.tracer.set_active(on);
        on
    }
}

/// A measured value and the probe point before it: the index in
/// [`Outcome::probes`] of the last host probe taken before the interval it
/// measures began.
pub type Probed = (f64, usize);

/// What a workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed, in the workload's unit of work.
    pub attempted: u64,
    pub failed: u64,
    /// Every correctness check that did not hold.
    pub problems: Vec<String>,
    /// Digest of outputs that depend only on the seed.
    pub digest: u64,
    /// Duration of each set-up, seconds.
    pub setup_s: Vec<Probed>,
    /// Latency of each measured operation, nanoseconds.
    pub latency_ns: Vec<Probed>,
    /// Units of work completed in the measured window.
    pub units: u64,
    /// Throughput of each segment of the window (a pass, a round of jobs,
    /// a checkpoint interval), units per second.
    pub rates: Vec<Probed>,
    /// Peak resident memory once a fixed amount of work is done, for a
    /// workload whose memory grows with the work; otherwise the peak at
    /// the end of the run is reported.
    pub peak_rss_bytes: Option<u64>,
    /// Operation latencies of the traced and the untraced operations of a
    /// traced run, nanoseconds.
    pub traced_ns: Vec<f64>,
    pub untraced_ns: Vec<f64>,
    pub layers: Layers,
    /// The reference kernel's median duration at each probe point: before
    /// every set-up and every segment of the window, and after the last,
    /// while the program is idle. Nanoseconds.
    pub probes: Vec<f64>,
    /// Every duration of the reference kernel, nanoseconds.
    pub kernel_ns: Vec<f64>,
    last_probe: Option<Instant>,
}

impl Outcome {
    /// The current probe point: the last one taken.
    fn here(&self) -> usize {
        assert!(
            !self.probes.is_empty(),
            "no host probe before a measurement"
        );
        self.probes.len() - 1
    }

    /// Record a set-up that took `secs` seconds.
    fn setup(&mut self, secs: f64) {
        self.setup_s.push((secs, self.here()));
    }

    /// Record a segment of the window: `units` of work in `secs` seconds.
    fn segment(&mut self, units: u64, secs: f64) {
        self.units += units;
        self.rates.push((units as f64 / secs, self.here()));
    }

    /// Record an operation's latency.
    fn latency(&mut self, ns: f64) {
        self.latency_ns.push((ns, self.here()));
    }

    /// A probe point: time the reference kernel once, and again while the
    /// probe has taken less than a fiftieth of the time since the last
    /// one, so that long segments are bracketed by many samples and short
    /// ones cost little. The program must be idle.
    fn probe_host(&mut self) {
        let budget = self.last_probe.map_or(Duration::ZERO, |t| t.elapsed() / 50);
        let start = Instant::now();
        let mut ns = vec![host::reference_kernel()];
        while start.elapsed() < budget {
            ns.push(host::reference_kernel());
        }
        self.probes.push(median(&ns).expect("one kernel run"));
        self.kernel_ns.extend(ns);
        self.last_probe = Some(Instant::now());
    }

    /// How much slower than the quiet host the host ran during an interval
    /// that began after probe point `p`: the mean of the kernel's time at
    /// `p` and at the next point, over its time on the quiet host.
    pub fn slowdown_at(&self, p: usize) -> f64 {
        let next = self.probes.get(p + 1).unwrap_or(&self.probes[p]);
        (self.probes[p] + next) / 2.0 / host::QUIET_KERNEL_NS
    }

    /// Record a correctness check.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// File an operation's latency with the traced or untraced baseline
    /// of a traced run.
    fn split(&mut self, ctx: &Ctx, traced: bool, ns: f64) {
        if ctx.tracer.enabled() {
            if traced {
                self.traced_ns.push(ns);
            } else {
                self.untraced_ns.push(ns);
            }
        }
    }
}

/// FNV-1a, 64 bit: a digest that is stable across builds and toolchains
/// and, unlike the program's own checksums, across changes to the program.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Nanoseconds since `t`.
fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Every department name a seeded division can draw from.
const DEPTS: [&str; 8] = [
    "SALES", "MFG", "ENG", "ADMIN", "RSRCH", "LEGAL", "SHIP", "QA",
];

/// What [`fill_corpus`] stored.
struct Corpus {
    emp_ids: Vec<RecordId>,
    /// Distinct (division, department) pairs: the DEPT records the Figure
    /// 4.4 promotion must create.
    dept_pairs: usize,
}

/// Store a seeded company corpus (Figure 4.2 schema) into `db`:
/// `divisions` divisions of `emps` employees each, every division using 3
/// of the 8 departments. Names are unique; locations, department draws
/// and ages come from the seed. `timed` receives the duration of every
/// `store` call when set.
fn fill_corpus(
    db: &mut NetworkDb,
    divisions: usize,
    emps: usize,
    seed: u64,
    mut timed: Option<&mut Vec<f64>>,
) -> Corpus {
    fn store(
        db: &mut NetworkDb,
        timed: &mut Option<&mut Vec<f64>>,
        rtype: &str,
        values: &[(&str, Value)],
        connects: &[(&str, RecordId)],
    ) -> RecordId {
        let t = Instant::now();
        let id = db
            .store(rtype, values, connects)
            .unwrap_or_else(|e| panic!("corpus {rtype} must store: {e}"));
        if let Some(samples) = timed {
            samples.push(ns_since(t));
        }
        id
    }
    let mut rng = SplitMix64::new(seed);
    let mut emp_ids = Vec::with_capacity(divisions * emps);
    let mut dept_pairs = 0;
    for d in 0..divisions {
        let loc = format!("CITY-{:02}", rng.below(37));
        let div = store(
            db,
            &mut timed,
            "DIV",
            &[
                ("DIV-NAME", Value::str(format!("DIV-{d:05}"))),
                ("DIV-LOC", Value::str(loc)),
            ],
            &[],
        );
        let first = rng.below(DEPTS.len() as u64) as usize;
        let mut used = [false; 3];
        for e in 0..emps {
            let k = rng.below(3) as usize;
            used[k] = true;
            let age = 20 + rng.below(45) as i64;
            let id = store(
                db,
                &mut timed,
                "EMP",
                &[
                    ("EMP-NAME", Value::str(format!("EMP-{:07}", d * emps + e))),
                    ("DEPT-NAME", Value::str(DEPTS[(first + k) % DEPTS.len()])),
                    ("AGE", Value::Int(age)),
                ],
                &[("DIV-EMP", div)],
            );
            emp_ids.push(id);
        }
        dept_pairs += used.iter().filter(|&&u| u).count();
    }
    Corpus {
        emp_ids,
        dept_pairs,
    }
}

/// The buffer-pool and file counters in `frame`, per operation of `ops`.
fn disk_layers(layers: &mut Layers, frame: &MetricsFrame, ops: u64) {
    let per_op = |name| frame.counter(name) as f64 / ops.max(1) as f64;
    let pins = frame.counter(BUFFER_PINS);
    if pins > 0 {
        layers.set(
            "buffer.hit_ratio",
            frame.counter(BUFFER_HITS) as f64 / pins as f64,
        );
    }
    layers.set("buffer.pins_per_op", per_op(BUFFER_PINS));
    layers.set("buffer.evictions_per_op", per_op(BUFFER_EVICTIONS));
    layers.set("disk.reads_per_op", per_op(DISK_READS));
    layers.set("disk.writes_per_op", per_op(DISK_WRITES));
}

/// An empty in-memory database over the Figure 4.2 schema.
fn company_mem() -> NetworkDb {
    NetworkDb::new(named::company_schema()).expect("the company schema is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_mean_of_the_bracketing_probe_points() {
        let quiet = host::QUIET_KERNEL_NS;
        let out = Outcome {
            probes: vec![quiet, 3.0 * quiet, 2.0 * quiet],
            ..Outcome::default()
        };
        assert_eq!(out.slowdown_at(0), 2.0);
        assert_eq!(out.slowdown_at(1), 2.5);
        // The last probe point has no next one.
        assert_eq!(out.slowdown_at(2), 2.0);
    }

    #[test]
    fn samples_are_filed_under_the_probe_point_before_them() {
        let mut out = Outcome::default();
        out.probe_host();
        out.setup(1.0);
        out.probe_host();
        out.segment(10, 2.0);
        out.latency(7.0);
        assert_eq!(out.setup_s, [(1.0, 0)]);
        assert_eq!(out.rates, [(5.0, 1)]);
        assert_eq!(out.latency_ns, [(7.0, 1)]);
        assert_eq!(out.units, 10);
        assert_eq!(out.probes.len(), 2);
        assert!(out.kernel_ns.len() >= 2 && out.kernel_ns.iter().all(|&ns| ns > 0.0));
    }
}
