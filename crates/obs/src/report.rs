//! `RunReport`: one run's span forest plus its merged metrics frame, with
//! deterministic JSON export and a compact human tree display.
//!
//! A report is assembled from per-item captures (merged in item-index
//! order under one renumbered logical clock) and a [`MetricsRegistry`]'s
//! merged frame. `to_json` is byte-stable: object member order is fixed by
//! construction and metric names are already sorted. `from_json` inverts
//! it exactly, and [`validate_json`] is the tiny schema checker the CI obs
//! smoke step runs against exported reports.

use std::fmt;

use crate::json::{self, Json};
use crate::metrics::{Hist, MetricValue, MetricsFrame, MetricsRegistry};
use crate::span::{fmt_node, Capture, SpanKind, SpanNode};

/// A completed observed run: a labelled span forest under one logical
/// clock, plus the merged metrics for the run.
///
/// Equality (derived) excludes wall-clock data transitively because
/// [`SpanNode`]'s equality excludes it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    pub label: String,
    pub spans: Vec<SpanNode>,
    pub metrics: MetricsFrame,
}

impl RunReport {
    pub fn new(label: impl Into<String>) -> RunReport {
        RunReport {
            label: label.into(),
            spans: Vec::new(),
            metrics: MetricsFrame::new(),
        }
    }

    /// Assemble a report from per-item captures and the merged registry.
    /// Captures are renumbered into one global monotone clock in the order
    /// given — callers pass them in work-item index order, which makes the
    /// assembled forest a pure function of the work list.
    pub fn assemble(
        label: impl Into<String>,
        captures: Vec<Capture>,
        registry: MetricsRegistry,
    ) -> RunReport {
        let mut spans = Vec::new();
        let mut clock = 0u64;
        for cap in captures {
            let ticks = cap.ticks;
            for mut root in cap.spans {
                root.renumber(clock);
                spans.push(root);
            }
            clock += ticks;
        }
        RunReport {
            label: label.into(),
            spans,
            metrics: registry.into_frame(),
        }
    }

    /// Total span/event nodes across the forest.
    pub fn node_count(&self) -> usize {
        self.spans.iter().map(SpanNode::node_count).sum()
    }

    /// Depth-first preorder walk over the whole forest.
    pub fn walk(&self, f: &mut impl FnMut(&SpanNode)) {
        for root in &self.spans {
            root.walk(f);
        }
    }

    /// The deterministic projection: racy/time/host metrics dropped, wall
    /// clocks stripped. Two runs of the same work list must produce equal
    /// deterministic reports at any thread count.
    pub fn deterministic(&self) -> RunReport {
        let mut spans = self.spans.clone();
        for s in &mut spans {
            s.strip_wall();
        }
        RunReport {
            label: self.label.clone(),
            spans,
            metrics: self.metrics.deterministic(),
        }
    }

    /// Serialize to compact, byte-stable JSON.
    pub fn to_json(&self) -> String {
        let doc = Json::Obj(vec![
            ("label".to_string(), Json::Str(self.label.clone())),
            (
                "spans".to_string(),
                Json::Arr(self.spans.iter().map(span_to_json).collect()),
            ),
            ("metrics".to_string(), metrics_to_json(&self.metrics)),
        ]);
        doc.to_string()
    }

    /// Parse a report previously produced by [`RunReport::to_json`]. A
    /// report holds integers only, so any float in `text` is refused.
    pub fn from_json(text: &str) -> Result<RunReport, String> {
        let doc = json::parse(text)?;
        if holds_float(&doc) {
            return Err("run reports hold integers only".to_string());
        }
        let label = doc
            .get("label")
            .and_then(Json::as_str)
            .ok_or("missing string field `label`")?
            .to_string();
        let spans = doc
            .get("spans")
            .and_then(Json::as_arr)
            .ok_or("missing array field `spans`")?
            .iter()
            .map(span_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let metrics =
            metrics_from_json(doc.get("metrics").ok_or("missing array field `metrics`")?)?;
        Ok(RunReport {
            label,
            spans,
            metrics,
        })
    }
}

fn holds_float(v: &Json) -> bool {
    match v {
        Json::Float(_) => true,
        Json::Arr(items) => items.iter().any(holds_float),
        Json::Obj(members) => members.iter().any(|(_, v)| holds_float(v)),
        _ => false,
    }
}

fn metrics_to_json(frame: &MetricsFrame) -> Json {
    let mut metrics = Vec::new();
    for (name, v) in frame.iter() {
        let mut m = vec![
            ("name".to_string(), Json::Str(name.to_string())),
            ("kind".to_string(), Json::Str(v.kind().to_string())),
        ];
        match v {
            MetricValue::Counter(n) | MetricValue::Racy(n) | MetricValue::Time(n) => {
                m.push(("value".to_string(), Json::Int(*n as i64)));
            }
            MetricValue::Gauge(g) => m.push(("value".to_string(), Json::Int(*g))),
            MetricValue::Hist(h) => {
                m.push((
                    "value".to_string(),
                    Json::Obj(vec![
                        ("count".to_string(), Json::Int(h.count as i64)),
                        ("sum".to_string(), Json::Int(h.sum as i64)),
                        ("min".to_string(), Json::Int(h.min as i64)),
                        ("max".to_string(), Json::Int(h.max as i64)),
                    ]),
                ));
            }
        }
        metrics.push(Json::Obj(m));
    }
    Json::Arr(metrics)
}

fn metrics_from_json(v: &Json) -> Result<MetricsFrame, String> {
    let mut metrics = MetricsFrame::new();
    for m in v.as_arr().ok_or("`metrics` must be an array")? {
        let name = m
            .get("name")
            .and_then(Json::as_str)
            .ok_or("metric missing `name`")?;
        let kind = m
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("metric missing `kind`")?;
        let value = m.get("value").ok_or("metric missing `value`")?;
        let mv = match kind {
            "counter" => MetricValue::Counter(int_field(value)? as u64),
            "racy" => MetricValue::Racy(int_field(value)? as u64),
            "time" => MetricValue::Time(int_field(value)? as u64),
            "gauge" => MetricValue::Gauge(int_field(value)?),
            "hist" => MetricValue::Hist(Hist {
                count: obj_int(value, "count")? as u64,
                sum: obj_int(value, "sum")? as u64,
                min: obj_int(value, "min")? as u64,
                max: obj_int(value, "max")? as u64,
            }),
            other => return Err(format!("unknown metric kind {other:?}")),
        };
        metrics.set(name, mv);
    }
    Ok(metrics)
}

fn int_field(v: &Json) -> Result<i64, String> {
    v.as_int()
        .ok_or_else(|| "expected integer value".to_string())
}

fn obj_int(v: &Json, key: &str) -> Result<i64, String> {
    v.get(key)
        .and_then(Json::as_int)
        .ok_or_else(|| format!("hist missing integer `{key}`"))
}

fn span_to_json(node: &SpanNode) -> Json {
    let mut m = vec![
        (
            "kind".to_string(),
            Json::Str(
                match node.kind {
                    SpanKind::Span => "span",
                    SpanKind::Event => "event",
                }
                .to_string(),
            ),
        ),
        ("name".to_string(), Json::Str(node.name.clone())),
        ("open".to_string(), Json::Int(node.seq_open as i64)),
        ("close".to_string(), Json::Int(node.seq_close as i64)),
    ];
    if !node.attrs.is_empty() {
        m.push((
            "attrs".to_string(),
            Json::Obj(
                node.attrs
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                    .collect(),
            ),
        ));
    }
    if let Some(ns) = node.wall_ns {
        m.push(("wall_ns".to_string(), Json::Int(ns as i64)));
    }
    if !node.children.is_empty() {
        m.push((
            "children".to_string(),
            Json::Arr(node.children.iter().map(span_to_json).collect()),
        ));
    }
    Json::Obj(m)
}

fn span_from_json(v: &Json) -> Result<SpanNode, String> {
    let kind = match v.get("kind").and_then(Json::as_str) {
        Some("span") => SpanKind::Span,
        Some("event") => SpanKind::Event,
        other => return Err(format!("bad span kind {other:?}")),
    };
    let name = v
        .get("name")
        .and_then(Json::as_str)
        .ok_or("span missing `name`")?
        .to_string();
    let seq_open = v
        .get("open")
        .and_then(Json::as_int)
        .ok_or("span missing `open`")? as u64;
    let seq_close = v
        .get("close")
        .and_then(Json::as_int)
        .ok_or("span missing `close`")? as u64;
    let attrs = match v.get("attrs") {
        Some(a) => a
            .as_obj()
            .ok_or("`attrs` must be an object")?
            .iter()
            .map(|(k, val)| {
                val.as_str()
                    .map(|s| (k.clone(), s.to_string()))
                    .ok_or_else(|| format!("attr `{k}` must be a string"))
            })
            .collect::<Result<Vec<_>, _>>()?,
        None => Vec::new(),
    };
    let wall_ns = match v.get("wall_ns") {
        Some(w) => Some(w.as_int().ok_or("`wall_ns` must be an integer")? as u64),
        None => None,
    };
    let children = match v.get("children") {
        Some(c) => c
            .as_arr()
            .ok_or("`children` must be an array")?
            .iter()
            .map(span_from_json)
            .collect::<Result<Vec<_>, _>>()?,
        None => Vec::new(),
    };
    Ok(SpanNode {
        kind,
        name,
        attrs,
        seq_open,
        seq_close,
        wall_ns,
        children,
    })
}

/// Validate that `text` is a structurally well-formed RunReport JSON
/// document: required fields present and typed, every span node
/// well-formed under its logical clock, every metric kind known. This is
/// the in-repo schema checker the CI obs smoke step uses.
pub fn validate_json(text: &str) -> Result<(), String> {
    let report = RunReport::from_json(text)?;
    for (i, root) in report.spans.iter().enumerate() {
        if !root.well_formed() {
            return Err(format!(
                "span root #{i} ({:?}) violates logical-clock nesting",
                root.name
            ));
        }
    }
    // Re-serialization must reproduce the input byte-for-byte; anything
    // else means the producer isn't our writer (or the file was edited).
    let round = report.to_json();
    if round != text.trim() {
        return Err("document does not round-trip byte-identically".to_string());
    }
    Ok(())
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "run: {}", self.label)?;
        writeln!(f, "spans:")?;
        for root in &self.spans {
            fmt_node(root, f, 1)?;
        }
        writeln!(f, "metrics:")?;
        write!(f, "{}", self.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::capture;

    fn sample() -> RunReport {
        let ((), cap) = capture("unit", || {
            crate::span::span_with("stage.analyzer", &[("key", "p1")], || {
                crate::span::event("memo-hit");
            });
        });
        let mut reg = MetricsRegistry::new();
        let mut shard = MetricsFrame::new();
        shard.set("work.items", MetricValue::Counter(3));
        shard.set("cache.hits", MetricValue::Racy(1));
        shard.set("stage.ns", MetricValue::Time(500));
        reg.absorb(&shard);
        reg.observe("batch.size", 32);
        reg.set_gauge("host.threads", 2);
        RunReport::assemble("sample-run", vec![cap], reg)
    }

    #[test]
    fn json_round_trips_exactly() {
        let r = sample();
        let text = r.to_json();
        let back = RunReport::from_json(&text).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_json(), text);
        validate_json(&text).unwrap();
    }

    #[test]
    fn validate_rejects_mangled_documents() {
        assert!(validate_json("{}").is_err());
        let text = sample().to_json();
        let mangled = text.replace("\"close\":", "\"close_\":");
        assert!(validate_json(&mangled).is_err());
    }

    #[test]
    fn float_metric_values_and_span_clocks_are_refused() {
        let text = sample().to_json();
        for (from, to) in [
            ("\"value\":3}", "\"value\":3.0}"),
            ("\"open\":0", "\"open\":0.0"),
        ] {
            assert!(text.contains(from), "{from}");
            let floated = text.replacen(from, to, 1);
            assert!(RunReport::from_json(&floated).is_err(), "{to}");
            assert!(validate_json(&floated).is_err(), "{to}");
        }
    }

    #[test]
    fn assemble_renumbers_in_item_order() {
        let ((), a) = capture("item-0", || crate::span::event("e"));
        let ((), b) = capture("item-1", || crate::span::event("e"));
        let r = RunReport::assemble("batch", vec![a, b], MetricsRegistry::new());
        assert_eq!(r.spans.len(), 2);
        // Second item's clock starts after the first item's ticks.
        assert!(r.spans[1].seq_open > r.spans[0].seq_close - 1);
        for root in &r.spans {
            assert!(root.well_formed());
        }
    }

    #[test]
    fn deterministic_projection_strips_racy_and_wall() {
        let mut r = sample();
        r.spans[0].wall_ns = Some(999);
        let d = r.deterministic();
        assert!(d.spans[0].wall_ns.is_none());
        assert!(d.metrics.get("cache.hits").is_none());
        assert!(d.metrics.get("stage.ns").is_none());
        assert!(d.metrics.get("host.threads").is_none());
        assert_eq!(d.metrics.counter("work.items"), 3);
        assert_eq!(d.metrics.hist("batch.size").count, 1);
    }

    #[test]
    fn display_is_a_compact_tree() {
        let text = sample().to_string();
        assert!(text.starts_with("run: sample-run"));
        assert!(text.contains("▸ unit"));
        assert!(text.contains("▸ stage.analyzer"));
        assert!(text.contains("· memo-hit"));
        assert!(text.contains("work.items"));
    }
}
