//! Bench-side tracing: spans recorded around the public calls a workload
//! makes into each layer, kept in memory and written out when the run ends.
//!
//! A span has a name, a start, an end, a parent, and the id of the
//! operation (job, transaction, pass) it belongs to. Untraced runs create
//! no spans and take no timestamps beyond the ones their end-to-end metrics
//! need. The program's own spans (`dbpc_obs`, with wall time under
//! `DBPC_OBS_WALL=1`) are read from its run reports by [`obs_self_times`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use dbpc_obs::span::SpanKind;
use dbpc_obs::SpanNode;

use crate::json::Json;

/// Identifies a recorded span, so children can name their parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u64);

#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub id: u64,
    /// `0` for a root span.
    pub parent: u64,
    pub name: &'static str,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    active: AtomicBool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            active: AtomicBool::new(enabled),
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Is this a traced run?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Are the operations now starting traced? Only ever true in a traced
    /// run.
    pub fn active(&self) -> bool {
        self.active.load(Ordering::SeqCst)
    }

    /// Turn bench spans on or off for the operations that follow. A traced
    /// run alternates, so its untraced operations give the baseline that
    /// `trace.overhead_pct` is measured against. No-op in untraced runs.
    pub fn set_active(&self, on: bool) {
        if self.enabled {
            self.active.store(on, Ordering::SeqCst);
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` of operation `op`. `f` receives
    /// the new span's id for its children (`None` when not tracing).
    pub fn span<T>(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        if !self.active() {
            return f(None);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(Some(SpanId(id)));
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("span list poisoned by a panicking workload thread")
            .push(SpanRec {
                id,
                parent: parent.map_or(0, |p| p.0),
                name,
                op,
                start_ns,
                end_ns,
            });
        out
    }

    pub fn spans(&self) -> Vec<SpanRec> {
        let mut spans = self
            .spans
            .lock()
            .expect("span list poisoned by a panicking workload thread")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Total length of the union of `intervals`.
fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every span, in the order given: its duration minus the
/// union of its children's intervals (clipped to its own). Children that
/// overlap — two worker threads under one parent — are not subtracted
/// twice.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).map_or_else(Vec::new, |k| {
                k.iter()
                    .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                    .filter(|(a, b)| a < b)
                    .collect()
            });
            s.dur_ns() - union_len(kids)
        })
        .collect()
}

/// Share of the time of the root spans named `root` that their child
/// spans cover: how much of each operation's time the trace attributes to
/// a layer. `None` without such roots.
pub fn coverage(spans: &[SpanRec], root: &str) -> Option<f64> {
    let selfs = self_times(spans);
    let (mut own, mut total) = (0u64, 0u64);
    for (s, t) in spans.iter().zip(selfs) {
        if s.parent == 0 && s.name == root {
            own += t;
            total += s.dur_ns();
        }
    }
    (total > 0).then(|| 1.0 - own as f64 / total as f64)
}

/// Durations (ns) of every span named `name`.
pub fn durations(spans: &[SpanRec], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

pub fn to_json(spans: &[SpanRec]) -> Json {
    Json::obj([(
        "spans",
        Json::Arr(
            spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("id", Json::Num(s.id as f64)),
                        ("parent", Json::Num(s.parent as f64)),
                        ("name", Json::str(s.name)),
                        ("op", Json::Num(s.op as f64)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                    ])
                })
                .collect(),
        ),
    )])
}

/// Accumulate the program's own span self times (wall time minus the wall
/// time of child spans) by span name. Spans of one capture run on one
/// thread, so children never overlap. Spans without wall time (recorded
/// without `DBPC_OBS_WALL=1`) are skipped.
pub fn obs_self_times(node: &SpanNode, out: &mut BTreeMap<String, u64>) {
    if node.kind == SpanKind::Span {
        if let Some(wall) = node.wall_ns {
            let kids: u64 = node
                .children
                .iter()
                .filter(|c| c.kind == SpanKind::Span)
                .filter_map(|c| c.wall_ns)
                .sum();
            *out.entry(node.name.clone()).or_insert(0) += wall.saturating_sub(kids);
        }
    }
    for c in &node.children {
        obs_self_times(c, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name: "s",
            op: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        // One job whose two halves ran on two worker threads at once.
        let spans = [rec(1, 0, 0, 100), rec(2, 1, 10, 50), rec(3, 1, 30, 70)];
        assert_eq!(self_times(&spans), vec![40, 40, 40]);
        assert_eq!(coverage(&spans, "s"), Some(0.6));
        assert_eq!(coverage(&spans, "other"), None);
    }

    #[test]
    fn disjoint_and_clipped_children() {
        let spans = [
            rec(1, 0, 0, 100),
            rec(2, 1, 0, 10),
            rec(3, 1, 20, 30),
            // Overhangs its parent's end: only the inside part counts.
            rec(4, 1, 90, 120),
            rec(5, 2, 2, 4),
        ];
        assert_eq!(self_times(&spans), vec![70, 8, 10, 30, 2]);
    }

    #[test]
    fn tracer_records_only_while_active() {
        let t = Tracer::new(true);
        t.span("root", 7, None, |id| {
            t.span("child", 7, id, |_| ());
        });
        t.set_active(false);
        t.span("hidden", 8, None, |id| assert!(id.is_none()));
        t.set_active(true);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        assert_eq!(child.parent, root.id);
        assert!(root.start_ns <= child.start_ns && child.end_ns <= root.end_ns);
        let untraced = Tracer::new(false);
        untraced.span("x", 0, None, |id| assert!(id.is_none()));
        assert!(untraced.spans().is_empty());
    }
}
