//! # dbpc-obs
//!
//! The unified observability layer for the conversion pipeline.
//!
//! The paper's Figure 4.1 puts a Conversion Program Supervisor over the
//! Analyzer → Converter → Optimizer → Generator pipeline; §2's discussion
//! of execution-time variability and strategy cost is unanswerable unless
//! the supervisor can *see* what each component did. Before this crate the
//! repo had three disjoint ad-hoc counter bags (the storage engines'
//! `AccessProfile`, the study harness's `StudyProfile`, the restructure
//! crate's translation work stats) and no stage timing or structured
//! tracing at all. This crate replaces them with one substrate:
//!
//! * [`span`](mod@span) — a `Span`/`Event` model under a **deterministic logical
//!   clock**: monotonic per-run sequence numbers order everything;
//!   wall-clock time is optional (`DBPC_OBS_WALL=1`) and excluded from
//!   equality, so traces are byte-identical across machines and thread
//!   counts.
//! * [`metrics`] — a registry of typed counters/gauges/histograms with
//!   per-thread sharded recording and deterministic index-ordered merging.
//!   Metrics are *kind-tagged* for determinism: `Counter`/`Gauge`/`Hist`
//!   values must be identical at any thread count, while `Racy` (shared
//!   memo hit/miss splits, which depend on cross-worker interleaving) and
//!   `Time` (wall-clock) values are excluded from deterministic
//!   comparisons.
//! * [`report`] — a [`RunReport`] bundling a span forest with a merged
//!   metrics frame, with byte-stable JSON export ([`RunReport::to_json`] /
//!   [`RunReport::from_json`]), a compact human tree `Display`, and a tiny
//!   in-repo schema checker ([`report::validate_json`]) for CI smoke.
//!
//! Recording is **append-only**: rolling back a storage savepoint never
//! un-counts a metric or unwrites a span — observability describes what
//! happened, not what survived. The crate is zero-dependency (std only)
//! and sits below every other crate in the workspace.

pub mod json;
pub mod metrics;
pub mod report;
pub mod span;

pub use metrics::{
    count, gauge, local_remove, local_snapshot, racy, recording, set_recording, time, Hist,
    MetricValue, MetricsFrame, MetricsRegistry,
};
pub use report::RunReport;
pub use span::{capture, event, event_with, in_capture, quiet, span, span_with, Capture, SpanNode};
