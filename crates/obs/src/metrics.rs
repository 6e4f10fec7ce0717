//! Typed metrics: per-thread sharded recording, deterministic merge.
//!
//! Recording sites call the free functions ([`count`], [`racy`], [`gauge`],
//! [`time`]) with `&'static str` metric names; values accumulate in a
//! thread-local sheet. Harnesses bracket a unit of work with
//! [`local_mark`] and [`Mark::delta`], ship the [`Delta`] back from the
//! worker that did the work, and merge the per-item deltas in item order
//! into a [`MetricsRegistry`] — the same index-ordered reassembly the
//! thread pool already uses for results, so the merged frame is a pure
//! function of the work list, not of scheduling.
//!
//! ## Dense ids
//!
//! Each metric name gets a process-wide dense id on first use, interned by
//! its text, so two codegen units' copies of one literal are one metric.
//! The thread sheet is a `Vec` indexed by id: a mark copies it, and a
//! delta subtracts element by element, reading names only to put the
//! entries in name order. [`local_snapshot`] reads the same sheet into a
//! name-keyed [`MetricsFrame`], and `local_snapshot().since(&before)`
//! equals the bracket's delta entry for entry.
//!
//! ## Determinism contract
//!
//! Every value is kind-tagged, and the kind decides whether it takes part
//! in deterministic comparisons ([`MetricsFrame::deterministic`]):
//!
//! | kind               | merged value at any thread count | in `deterministic()` |
//! |--------------------|----------------------------------|----------------------|
//! | [`Counter`]        | identical                        | yes                  |
//! | [`Gauge`]          | identical                        | yes                  |
//! | [`Hist`]ogram      | identical                        | yes                  |
//! | [`Racy`]           | interleaving-dependent           | no                   |
//! | [`Time`]           | wall-clock                       | no                   |
//!
//! `Racy` exists because process-wide memo caches are shared across pool
//! workers: *which* worker scores a hit — and whether two workers briefly
//! double-compute the same entry — depends on interleaving, so hit/miss
//! splits are honest but not reproducible. Names prefixed `host.` (machine
//! shape: thread counts, parallelism) are likewise excluded whatever their
//! kind.
//!
//! [`Counter`]: MetricValue::Counter
//! [`Gauge`]: MetricValue::Gauge
//! [`Hist`]: MetricValue::Hist
//! [`Racy`]: MetricValue::Racy
//! [`Time`]: MetricValue::Time

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Process-wide recording switch (benchmarks measure the recording premium
/// by flipping it off). Checked with a relaxed load on every record call.
static RECORDING: AtomicBool = AtomicBool::new(true);

/// Enable or disable all metric and span recording process-wide.
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::Relaxed);
}

/// Is recording enabled?
pub fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// A fixed-bucket summary of observed values: count/sum/min/max.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Hist {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
}

impl Hist {
    pub fn observe(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    pub fn merge(&mut self, other: &Hist) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Mean of the observed values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One metric value, kind-tagged (see module docs for the determinism
/// contract per kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotone work counter; thread-count invariant.
    Counter(u64),
    /// Monotone counter whose value depends on cross-worker interleaving
    /// (shared-memo hit/miss splits).
    Racy(u64),
    /// Last-write-wins instantaneous value.
    Gauge(i64),
    /// Accumulated wall-clock nanoseconds.
    Time(u64),
    /// Distribution summary of observed values.
    Hist(Hist),
}

impl MetricValue {
    pub fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Racy(_) => "racy",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Time(_) => "time",
            MetricValue::Hist(_) => "hist",
        }
    }

    /// Does this kind take part in deterministic comparisons?
    pub fn is_deterministic(&self) -> bool {
        !matches!(self, MetricValue::Racy(_) | MetricValue::Time(_))
    }

    /// The scalar magnitude (hist → count), for quick assertions.
    pub fn magnitude(&self) -> u64 {
        match self {
            MetricValue::Counter(v) | MetricValue::Racy(v) | MetricValue::Time(v) => *v,
            MetricValue::Gauge(v) => *v as u64,
            MetricValue::Hist(h) => h.count,
        }
    }
}

/// An immutable snapshot (or merge) of named metrics, ordered by name.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsFrame {
    entries: BTreeMap<String, MetricValue>,
}

impl MetricsFrame {
    pub fn new() -> MetricsFrame {
        MetricsFrame::default()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries.get(name)
    }

    /// Counter or racy-counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        match self.entries.get(name) {
            Some(MetricValue::Counter(v)) | Some(MetricValue::Racy(v)) => *v,
            _ => 0,
        }
    }

    /// Accumulated time in nanoseconds by name (0 when absent).
    pub fn time_ns(&self, name: &str) -> u64 {
        match self.entries.get(name) {
            Some(MetricValue::Time(v)) => *v,
            _ => 0,
        }
    }

    /// Gauge value by name (0 when absent).
    pub fn gauge(&self, name: &str) -> i64 {
        match self.entries.get(name) {
            Some(MetricValue::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// Histogram by name (empty when absent).
    pub fn hist(&self, name: &str) -> Hist {
        match self.entries.get(name) {
            Some(MetricValue::Hist(h)) => *h,
            _ => Hist::default(),
        }
    }

    /// Insert or overwrite an entry.
    pub fn set(&mut self, name: impl Into<String>, value: MetricValue) {
        self.entries.insert(name.into(), value);
    }

    /// Record one observation into a named histogram.
    pub fn observe(&mut self, name: &str, v: u64) {
        match self
            .entries
            .entry(name.to_string())
            .or_insert(MetricValue::Hist(Hist::default()))
        {
            MetricValue::Hist(h) => h.observe(v),
            other => {
                let mut h = Hist::default();
                h.observe(v);
                *other = MetricValue::Hist(h);
            }
        }
    }

    /// Merge `other` (a frame or a [`Delta`]) into `self`: counters/racy/
    /// time add, gauges take `other`'s value, histograms merge. Commutative
    /// for every additive kind; callers nevertheless merge shards in
    /// item-index order so the whole pipeline has one canonical merge
    /// order.
    pub fn merge<'a>(&mut self, other: impl IntoIterator<Item = (&'a str, MetricValue)>) {
        for (name, v) in other {
            match (self.entries.get_mut(name), v) {
                (Some(MetricValue::Counter(a)), MetricValue::Counter(b)) => *a += b,
                (Some(MetricValue::Racy(a)), MetricValue::Racy(b)) => *a += b,
                (Some(MetricValue::Time(a)), MetricValue::Time(b)) => *a += b,
                (Some(MetricValue::Hist(a)), MetricValue::Hist(b)) => a.merge(&b),
                (Some(slot), other_v) => *slot = other_v,
                (None, other_v) => {
                    self.entries.insert(name.to_string(), other_v);
                }
            }
        }
    }

    /// Deltas since `earlier`: additive kinds subtract (saturating), gauges
    /// and histograms take `self`'s value. Bracketing the ambient sheet
    /// this way (`local_snapshot().since(&before)`) gives the same entries
    /// as [`local_mark`] and [`Mark::delta`], which skip the name-keyed
    /// maps.
    pub fn since(&self, earlier: &MetricsFrame) -> MetricsFrame {
        let mut out = MetricsFrame::new();
        for (name, v) in &self.entries {
            let delta = match (v, earlier.entries.get(name)) {
                (MetricValue::Counter(a), Some(MetricValue::Counter(b))) => {
                    MetricValue::Counter(a.saturating_sub(*b))
                }
                (MetricValue::Racy(a), Some(MetricValue::Racy(b))) => {
                    MetricValue::Racy(a.saturating_sub(*b))
                }
                (MetricValue::Time(a), Some(MetricValue::Time(b))) => {
                    MetricValue::Time(a.saturating_sub(*b))
                }
                (v, _) => *v,
            };
            out.entries.insert(name.clone(), delta);
        }
        out
    }

    /// The deterministic projection: drops `Racy` and `Time` entries and
    /// any name under the `host.` prefix. Two runs of the same work list
    /// must produce equal deterministic frames at any thread count.
    pub fn deterministic(&self) -> MetricsFrame {
        MetricsFrame {
            entries: self
                .entries
                .iter()
                .filter(|(name, v)| v.is_deterministic() && !name.starts_with("host."))
                .map(|(name, v)| (name.clone(), *v))
                .collect(),
        }
    }

    /// Is every additive entry of `self` >= the matching entry of
    /// `earlier`? (Monotonicity within a run; gauges exempt.)
    pub fn monotone_since(&self, earlier: &MetricsFrame) -> bool {
        earlier.entries.iter().all(|(name, before)| {
            let after = self.entries.get(name);
            match (before, after) {
                (MetricValue::Counter(b), Some(MetricValue::Counter(a)))
                | (MetricValue::Racy(b), Some(MetricValue::Racy(a)))
                | (MetricValue::Time(b), Some(MetricValue::Time(a))) => a >= b,
                (MetricValue::Hist(b), Some(MetricValue::Hist(a))) => {
                    a.count >= b.count && a.sum >= b.sum
                }
                (MetricValue::Gauge(_), _) => true,
                // An entry vanished (or changed kind): not monotone.
                _ => false,
            }
        })
    }
}

/// A frame's entries by value, in name order: the shape
/// [`MetricsFrame::merge`], [`MetricsRegistry::absorb`] and encoders take,
/// which a bracket's [`Delta`] shares.
impl<'a> IntoIterator for &'a MetricsFrame {
    type Item = (&'a str, MetricValue);
    type IntoIter = std::iter::Map<
        std::collections::btree_map::Iter<'a, String, MetricValue>,
        fn((&'a String, &'a MetricValue)) -> (&'a str, MetricValue),
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter().map(|(name, v)| (name.as_str(), *v))
    }
}

impl fmt::Display for MetricsFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, v) in &self.entries {
            match v {
                MetricValue::Hist(h) => writeln!(
                    f,
                    "  {name:<40} {:>8} count={} sum={} min={} max={}",
                    v.kind(),
                    h.count,
                    h.sum,
                    h.min,
                    h.max
                )?,
                MetricValue::Gauge(g) => writeln!(f, "  {name:<40} {:>8} {g}", v.kind())?,
                MetricValue::Counter(c) | MetricValue::Racy(c) | MetricValue::Time(c) => {
                    writeln!(f, "  {name:<40} {:>8} {c}", v.kind())?
                }
            }
        }
        Ok(())
    }
}

/// The merge point for per-worker / per-item metric shards. Thin by
/// design: its value is the *discipline* — shards absorbed in item-index
/// order, study-level gauges and histograms recorded once at assembly —
/// plus the shard count for sanity checks.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    merged: MetricsFrame,
    shards: usize,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Absorb one shard (a per-item or per-worker delta frame, or a
    /// [`Delta`]). Callers MUST absorb in item-index order — the registry
    /// records arrival order as the canonical merge order.
    pub fn absorb<'a>(&mut self, shard: impl IntoIterator<Item = (&'a str, MetricValue)>) {
        self.merged.merge(shard);
        self.shards += 1;
    }

    /// Record a registry-level observation (per-item sizes, attempts…).
    pub fn observe(&mut self, name: &str, v: u64) {
        self.merged.observe(name, v);
    }

    /// Record a registry-level gauge (thread counts, config shape).
    pub fn set_gauge(&mut self, name: &str, v: i64) {
        self.merged.set(name, MetricValue::Gauge(v));
    }

    /// Shards absorbed so far.
    pub fn shards(&self) -> usize {
        self.shards
    }

    pub fn frame(&self) -> &MetricsFrame {
        &self.merged
    }

    pub fn into_frame(self) -> MetricsFrame {
        self.merged
    }
}

// ---------------------------------------------------------------------------
// Dense metric ids and the thread-local ambient sheet
// ---------------------------------------------------------------------------

/// The process-wide interner: one dense id per metric name, assigned on
/// first use and never reused. Keyed by the name's text, so two codegen
/// units' copies of one literal share an id.
static IDS: Mutex<BTreeMap<&'static str, usize>> = Mutex::new(BTreeMap::new());

fn ids() -> MutexGuard<'static, BTreeMap<&'static str, usize>> {
    IDS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Hashes a name's address for [`Sheet::ids`]: a multiply and a fold,
/// since the keys are already unique machine words.
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|b| self.write_usize(*b as usize));
    }

    fn write_usize(&mut self, n: usize) {
        let h = (self.0 ^ n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 29);
    }
}

/// A sheet value: [`MetricValue`] without the histogram, which only
/// frames carry, so a mark copies 16 bytes per id.
#[derive(Debug, Clone, Copy)]
enum LocalVal {
    Counter(u64),
    Racy(u64),
    Gauge(i64),
    Time(u64),
}

impl LocalVal {
    /// The delta from `earlier`, by [`MetricsFrame::since`]'s rule: an
    /// additive kind subtracts (saturating) an earlier value of the same
    /// kind; a gauge or a changed kind takes `self`.
    fn since(self, earlier: Option<LocalVal>) -> LocalVal {
        match (self, earlier) {
            (LocalVal::Counter(a), Some(LocalVal::Counter(b))) => {
                LocalVal::Counter(a.saturating_sub(b))
            }
            (LocalVal::Racy(a), Some(LocalVal::Racy(b))) => LocalVal::Racy(a.saturating_sub(b)),
            (LocalVal::Time(a), Some(LocalVal::Time(b))) => LocalVal::Time(a.saturating_sub(b)),
            (v, _) => v,
        }
    }

    fn value(self) -> MetricValue {
        match self {
            LocalVal::Counter(c) => MetricValue::Counter(c),
            LocalVal::Racy(c) => MetricValue::Racy(c),
            LocalVal::Gauge(g) => MetricValue::Gauge(g),
            LocalVal::Time(t) => MetricValue::Time(t),
        }
    }
}

/// The per-thread sheet. Record calls are the hottest instrumented path in
/// the workspace (every counter bump on every translated record and engine
/// run lands here), so a name is resolved to its dense id through a
/// thread-local cache keyed by the `&'static str`'s address and length —
/// one multiply-hash and a word compare — and the value sits in a `Vec`
/// indexed by that id. A bracket ([`local_mark`], [`Mark::delta`]) is
/// then a copy of that `Vec` and an element-by-element subtraction.
struct Sheet {
    /// Name address and length → dense id. Two copies of one literal at
    /// different addresses are two keys with the same id.
    ids: HashMap<(usize, usize), usize, BuildHasherDefault<AddrHasher>>,
    /// Value by id; `None` where this thread has recorded nothing under
    /// that id (or [`local_remove`]d it).
    vals: Vec<Option<LocalVal>>,
    /// Every id this thread has seen, with its name, in name order: the
    /// order snapshots and deltas are read in.
    order: Vec<(&'static str, usize)>,
}

impl Sheet {
    /// The value slot for `name`, interning the name on this thread's
    /// first use of its address.
    fn slot(&mut self, name: &'static str) -> &mut Option<LocalVal> {
        let key = (name.as_ptr() as usize, name.len());
        let id = match self.ids.get(&key) {
            Some(&id) => id,
            None => self.learn(key, name),
        };
        &mut self.vals[id]
    }

    #[cold]
    fn learn(&mut self, key: (usize, usize), name: &'static str) -> usize {
        let id = {
            let mut ids = ids();
            let next = ids.len();
            *ids.entry(name).or_insert(next)
        };
        self.ids.insert(key, id);
        if self.vals.len() <= id {
            self.vals.resize(id + 1, None);
        }
        if let Err(at) = self.order.binary_search(&(name, id)) {
            self.order.insert(at, (name, id));
        }
        id
    }

    /// Live entries in name order.
    fn live(&self) -> impl Iterator<Item = (&'static str, usize, LocalVal)> + '_ {
        self.order
            .iter()
            .filter_map(|&(name, id)| self.vals[id].map(|v| (name, id, v)))
    }
}

thread_local! {
    static LOCAL: RefCell<Sheet> = const {
        RefCell::new(Sheet {
            ids: HashMap::with_hasher(BuildHasherDefault::new()),
            vals: Vec::new(),
            order: Vec::new(),
        })
    };
}

fn local_add(name: &'static str, make: LocalVal, add: impl FnOnce(&mut LocalVal)) {
    if !recording() || crate::span::is_quiet() {
        return;
    }
    LOCAL.with(|l| match l.borrow_mut().slot(name) {
        Some(v) => add(v),
        slot @ None => *slot = Some(make),
    });
}

/// Add `n` to this thread's deterministic counter `name`.
pub fn count(name: &'static str, n: u64) {
    local_add(name, LocalVal::Counter(n), |v| {
        if let LocalVal::Counter(c) = v {
            *c += n;
        }
    });
}

/// Add `n` to this thread's interleaving-dependent counter `name`
/// (shared-memo hit/miss splits; excluded from deterministic frames).
pub fn racy(name: &'static str, n: u64) {
    local_add(name, LocalVal::Racy(n), |v| {
        if let LocalVal::Racy(c) = v {
            *c += n;
        }
    });
}

/// Set this thread's gauge `name`.
pub fn gauge(name: &'static str, value: i64) {
    local_add(name, LocalVal::Gauge(value), |v| {
        *v = LocalVal::Gauge(value)
    });
}

/// Add `ns` wall-clock nanoseconds to this thread's time metric `name`.
pub fn time(name: &'static str, ns: u64) {
    local_add(name, LocalVal::Time(ns), |v| {
        if let LocalVal::Time(t) = v {
            *t += ns;
        }
    });
}

/// Snapshot this thread's ambient sheet as a [`MetricsFrame`].
pub fn local_snapshot() -> MetricsFrame {
    LOCAL.with(|l| MetricsFrame {
        entries: l
            .borrow()
            .live()
            .map(|(name, _, v)| (name.to_string(), v.value()))
            .collect(),
    })
}

/// Remove one entry from this thread's ambient sheet (test/bench isolation
/// for subsystems with an explicit `reset`, e.g. the analysis cache).
pub fn local_remove(name: &str) {
    let Some(id) = ids().get(name).copied() else {
        return;
    };
    LOCAL.with(|l| {
        if let Some(slot) = l.borrow_mut().vals.get_mut(id) {
            *slot = None;
        }
    });
}

/// The opening of a bracket on this thread's ambient sheet: a copy of its
/// values by id. Read it back with [`Mark::delta`] on the same thread.
#[derive(Debug)]
pub struct Mark(Vec<Option<LocalVal>>);

/// Open a bracket: `let mark = local_mark(); … ; let d = mark.delta();`.
pub fn local_mark() -> Mark {
    LOCAL.with(|l| Mark(l.borrow().vals.clone()))
}

impl Mark {
    /// This thread's metrics since the mark, entry for entry what
    /// `local_snapshot().since(&before)` gives for a `before` snapshotted
    /// at the mark — computed by id, with no name-keyed map and no
    /// `String`.
    pub fn delta(&self) -> Delta {
        LOCAL.with(|l| {
            let sheet = l.borrow();
            // One allocation, sized by the names this thread has seen.
            let mut entries = Vec::with_capacity(sheet.order.len());
            entries.extend(sheet.live().map(|(name, id, now)| {
                let was = self.0.get(id).copied().flatten();
                (name, now.since(was))
            }));
            Delta { entries }
        })
    }
}

/// A bracket's metric deltas in name order (see [`Mark::delta`]). It
/// iterates as `(name, value)` like a [`MetricsFrame`], so either one
/// feeds [`MetricsRegistry::absorb`] or an encoder.
#[derive(Debug)]
pub struct Delta {
    entries: Vec<(&'static str, LocalVal)>,
}

impl Delta {
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn iter(&self) -> DeltaIter<'_> {
        self.into_iter()
    }

    /// Counter or racy-counter delta by name (0 when absent), as
    /// [`MetricsFrame::counter`] reads a frame.
    pub fn counter(&self, name: &str) -> u64 {
        match self.iter().find(|(n, _)| *n == name) {
            Some((_, MetricValue::Counter(v) | MetricValue::Racy(v))) => v,
            _ => 0,
        }
    }
}

impl<'a> IntoIterator for &'a Delta {
    type Item = (&'a str, MetricValue);
    type IntoIter = DeltaIter<'a>;

    fn into_iter(self) -> DeltaIter<'a> {
        DeltaIter(self.entries.iter())
    }
}

/// A [`Delta`]'s entries by value, in name order.
#[derive(Debug, Clone)]
pub struct DeltaIter<'a>(std::slice::Iter<'a, (&'static str, LocalVal)>);

impl<'a> Iterator for DeltaIter<'a> {
    type Item = (&'a str, MetricValue);

    fn next(&mut self) -> Option<(&'a str, MetricValue)> {
        self.0.next().map(|(name, v)| (*name, v.value()))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for DeltaIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counters_accumulate_and_bracket() {
        let before = local_snapshot();
        count("test.metrics.alpha", 2);
        count("test.metrics.alpha", 3);
        racy("test.metrics.beta", 1);
        time("test.metrics.ns", 40);
        let delta = local_snapshot().since(&before);
        assert_eq!(delta.counter("test.metrics.alpha"), 5);
        assert_eq!(delta.counter("test.metrics.beta"), 1);
        assert_eq!(delta.time_ns("test.metrics.ns"), 40);
    }

    #[test]
    fn merge_adds_and_since_subtracts() {
        let mut a = MetricsFrame::new();
        a.set("c", MetricValue::Counter(2));
        a.set("g", MetricValue::Gauge(7));
        let mut b = MetricsFrame::new();
        b.set("c", MetricValue::Counter(5));
        b.set("g", MetricValue::Gauge(9));
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.counter("c"), 7);
        assert_eq!(m.gauge("g"), 9);
        let d = m.since(&a);
        assert_eq!(d.counter("c"), 5);
        assert_eq!(d.gauge("g"), 9);
    }

    #[test]
    fn deterministic_projection_drops_racy_time_and_host() {
        let mut f = MetricsFrame::new();
        f.set("work.done", MetricValue::Counter(4));
        f.set("cache.hits", MetricValue::Racy(2));
        f.set("stage.ns", MetricValue::Time(99));
        f.set("host.threads", MetricValue::Gauge(8));
        let d = f.deterministic();
        assert_eq!(d.len(), 1);
        assert_eq!(d.counter("work.done"), 4);
    }

    #[test]
    fn histogram_observes_and_merges() {
        let mut h = Hist::default();
        h.observe(3);
        h.observe(9);
        let mut h2 = Hist::default();
        h2.observe(1);
        h.merge(&h2);
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 13);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 9);
        assert!((h.mean() - 13.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn registry_merges_shards_in_order() {
        let mut r = MetricsRegistry::new();
        let mut s1 = MetricsFrame::new();
        s1.set("x", MetricValue::Counter(1));
        let mut s2 = MetricsFrame::new();
        s2.set("x", MetricValue::Counter(2));
        r.absorb(&s1);
        r.absorb(&s2);
        r.observe("sizes", 5);
        r.set_gauge("host.threads", 4);
        assert_eq!(r.shards(), 2);
        assert_eq!(r.frame().counter("x"), 3);
        assert_eq!(r.frame().hist("sizes").count, 1);
        assert_eq!(r.frame().gauge("host.threads"), 4);
    }

    /// Two `&'static str` with equal text at different addresses, as two
    /// codegen units' copies of one literal can be.
    fn twins() -> (&'static str, &'static str) {
        let a: &'static str = Box::leak(String::from("test.bracket.twin").into_boxed_str());
        let b: &'static str = Box::leak(String::from("test.bracket.twin").into_boxed_str());
        assert_ne!(a.as_ptr(), b.as_ptr());
        (a, b)
    }

    /// One recording op on name `i` of `names`, drawn from `(kind, i, v)`.
    fn apply(names: &[&'static str], (kind, i, v): (u8, usize, u32)) {
        let name = names[i % names.len()];
        match kind {
            0 => count(name, u64::from(v)),
            1 => racy(name, u64::from(v)),
            2 => gauge(name, i64::from(v) - (1 << 31)),
            3 => time(name, u64::from(v)),
            _ => local_remove(name),
        }
    }

    /// A delta's entries in order, to compare a bracket with a snapshot.
    fn entries<'a>(
        delta: impl IntoIterator<Item = (&'a str, MetricValue)>,
    ) -> Vec<(&'a str, MetricValue)> {
        delta.into_iter().collect()
    }

    #[test]
    fn twin_literals_share_one_id() {
        let (a, b) = twins();
        let mark = local_mark();
        count(a, 2);
        count(b, 3);
        assert_eq!(local_snapshot().counter("test.bracket.twin"), 5);
        let delta = mark.delta();
        assert_eq!(delta.len(), 1);
        assert_eq!(
            delta.iter().next(),
            Some(("test.bracket.twin", MetricValue::Counter(5)))
        );
        local_remove(a);
        assert!(local_snapshot().get("test.bracket.twin").is_none());
    }

    /// Over 256 names on one thread: no name count changes the result.
    #[test]
    fn bracket_delta_equals_snapshot_since_past_256_names() {
        let names: Vec<&'static str> = (0..300)
            .map(|i| &*Box::leak(format!("test.bracket.many.{i:03}").into_boxed_str()))
            .collect();
        for (i, name) in names.iter().enumerate() {
            count(name, i as u64);
        }
        let before = local_snapshot();
        let mark = local_mark();
        for (i, name) in names.iter().enumerate().step_by(7) {
            apply(&names, ((i % 5) as u8, i, i as u32 * 11));
            count(name, 1);
        }
        let (bracket, snapshot) = (mark.delta(), local_snapshot().since(&before));
        assert!(bracket.len() >= 300, "{}", bracket.len());
        assert_eq!(entries(&bracket), entries(&snapshot));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Over random interleavings of every recording op on ten names
        /// (two of them twins), a bracket opened at a random point gives
        /// `local_snapshot().since(&before)` entry for entry.
        #[test]
        fn bracket_delta_equals_snapshot_since(
            ops in prop::collection::vec((0u8..5, 0usize..10, any::<u32>()), 0..64),
            at in any::<usize>(),
        ) {
            let (a, b) = twins();
            let names = [
                "test.bracket.c0", "test.bracket.c1", "test.bracket.c2", "test.bracket.r",
                "test.bracket.g", "test.bracket.t0", "test.bracket.t1", "test.bracket.mixed",
                a, b,
            ];
            let at = at % (ops.len() + 1);
            for op in &ops[..at] {
                apply(&names, *op);
            }
            let before = local_snapshot();
            let mark = local_mark();
            for op in &ops[at..] {
                apply(&names, *op);
            }
            let (bracket, snapshot) = (mark.delta(), local_snapshot().since(&before));
            prop_assert_eq!(entries(&bracket), entries(&snapshot));
        }
    }

    #[test]
    fn monotonicity_check() {
        let mut a = MetricsFrame::new();
        a.set("c", MetricValue::Counter(2));
        let mut b = MetricsFrame::new();
        b.set("c", MetricValue::Counter(5));
        assert!(b.monotone_since(&a));
        assert!(!a.monotone_since(&b));
    }
}
