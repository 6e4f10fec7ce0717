//! The metrics this benchmark reports, by name and unit. These tables and
//! `BENCHMARK.json` must agree exactly; `tests/spec_sync.rs` checks that
//! every run emits exactly the metrics the file declares.

use std::collections::BTreeMap;

/// A reported metric. Its direction and bound live in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the system sees, reported by every untraced run. The
/// unit of work behind throughput is each workload's own: a program
/// (study), a job (service), a source record (translate_*), a transaction
/// (durable_churn); latency is that of one operation: a study pass, a job,
/// a translation, a transaction. See the README.
pub const END_TO_END: &[MetricDef] = &[
    m("throughput_per_s", "1/s"),
    m("latency_p50_ms", "ms"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MiB"),
];

/// Single-layer metrics, reported by every traced run. A layer a workload
/// does not exercise reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // corpus / analyzer / convert::supervisor (study)
    m("study.generate_us_per_program", "us"),
    m("study.convert_us_per_program", "us"),
    m("study.verify_us_per_program", "us"),
    m("analyzer.cache_hit_ratio", "ratio"),
    m("study.source_trace_hit_ratio", "ratio"),
    m("study.rss_bytes_per_program", "B"),
    // the program's own stage spans (study, service)
    m("span.stage.analyzer.self_us_per_op", "us"),
    m("span.stage.converter.self_us_per_op", "us"),
    m("span.stage.optimizer.self_us_per_op", "us"),
    m("span.stage.generator.self_us_per_op", "us"),
    m("span.stage.verification.self_us_per_op", "us"),
    m("span.stage.translation.self_us_per_op", "us"),
    m("span.engine.host.self_us_per_op", "us"),
    // convert::service / convert::journal / storage::locks (service)
    m("service.submit_ms.p50", "ms"),
    m("service.submit_ms.p99", "ms"),
    m("service.wait_ms.p50", "ms"),
    m("service.wait_ms.p99", "ms"),
    m("service.queue_wait_us_per_job", "us"),
    m("service.exec_us_per_job", "us"),
    m("service.truth_hit_ratio", "ratio"),
    m("service.backpressure_waits_per_job", "count"),
    m("service.rss_kb_per_job", "KB"),
    m("journal.bytes_per_job", "B"),
    m("locks.waits_per_job", "count"),
    m("locks.wait_us_per_job", "us"),
    m("locks.timeouts", "count"),
    // storage (NetworkDb) / restructure::data (translate_*)
    m("storage.store_us.p50", "us"),
    m("storage.store_us.p99", "us"),
    m("storage.store_us.first_decile_mean", "us"),
    m("storage.store_us.last_decile_mean", "us"),
    m("storage.get_us.p50", "us"),
    m("storage.get_us.p99", "us"),
    m("storage.ram_bytes_per_record", "B"),
    m("restructure.records_stored", "count"),
    m("restructure.schema_clones", "count"),
    // storage::disk: buffer, file, heap (translate_paged, durable_churn)
    m("buffer.hit_ratio", "ratio"),
    m("buffer.pins_per_op", "count"),
    m("buffer.evictions_per_op", "count"),
    m("disk.reads_per_op", "count"),
    m("disk.writes_per_op", "count"),
    m("heap.bytes_per_record", "B"),
    // storage::disk::durable / log (durable_churn)
    m("durable.store_us.p50", "us"),
    m("durable.modify_us.p50", "us"),
    m("durable.erase_us.p50", "us"),
    m("durable.commit_call_us.p50", "us"),
    m("durable.commit_call_us.p99", "us"),
    m("wal.bytes_per_commit", "B"),
    m("wal.appends_per_commit", "count"),
    m("wal.flushes_per_commit", "count"),
    m("disk.syncs_per_commit", "count"),
    m("durable.checkpoint_ms.p50", "ms"),
    m("durable.checkpoint_ms.max", "ms"),
    m("durable.checkpoint_writes", "count"),
    m("durable.import_s", "s"),
    m("durable.recover_s", "s"),
    m("recovery.wal_records", "count"),
    m("recovery.disk_reads", "count"),
    // trace bookkeeping
    m("trace.coverage", "ratio"),
    m("trace.overhead_pct", "%"),
    m("trace.spans", "count"),
];

/// Per-layer values a workload measured; every other declared layer
/// metric reads 0.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Set a declared per-layer metric. Panics on an undeclared name: that
    /// is a bug in this benchmark, caught by its own smoke test.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|d| d.name == name),
            "per-layer metric {name} is not declared"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}
