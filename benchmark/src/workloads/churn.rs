//! `durable_churn`: random writes beside reads on `DurableNetworkDb`
//! (`SyncPolicy::Os`, a 64-frame pool). A seeded 100,100-record company
//! corpus is loaded with `import`; then seeded transactions run. Each
//! stores 1 DIV and 4 EMPs, modifies 8 uniformly drawn corpus EMPs, erases
//! (with cascade) the DIV and EMPs the transaction before it stored, and
//! commits, so the database keeps its size however long the run. A checkpoint follows every 1,000th
//! commit except the last, so the log holds exactly 1,000 commits when the
//! handle is leaked with `std::mem::forget`: a kill at an acknowledged
//! commit. A timed `open` then recovers, and must reproduce the last
//! acknowledged fingerprint.
//!
//! Unit of work and operation: a transaction, timed from savepoint to the
//! return of `commit`.

use std::path::Path;
use std::time::Instant;

use dbpc_corpus::named;
use dbpc_datamodel::value::Value;
use dbpc_obs::metrics::local_snapshot;
use dbpc_obs::MetricsFrame;
use dbpc_storage::disk::{
    DiskResult, DISK_READS, DISK_SYNCS, DISK_WRITES, WAL_APPENDS, WAL_BYTES, WAL_FLUSHES,
    WAL_RECOVERED,
};
use dbpc_storage::{DurableNetworkDb, DurableOptions, RecordId, SyncPolicy};

use super::{company_mem, disk_layers, fill_corpus, ns_since, Ctx, Outcome, DEPTS};
use crate::stats::{derive_seed, median, percentile, sorted, SplitMix64};
use crate::trace::{self, SpanId, Tracer};

const PAGE: usize = 4096;

struct Sizes {
    divisions: usize,
    emps: usize,
    /// Commits between checkpoints; also the log depth recovery replays.
    checkpoint_every: u64,
}

const FULL: Sizes = Sizes {
    divisions: 100,
    emps: 1000,
    checkpoint_every: 1000,
};
const SMOKE: Sizes = Sizes {
    divisions: 4,
    emps: 50,
    checkpoint_every: 20,
};

fn options() -> DurableOptions {
    DurableOptions {
        sync: SyncPolicy::Os,
        buffers: 64,
        page_size: PAGE,
        ..DurableOptions::default()
    }
}

fn open(dir: &Path) -> DiskResult<DurableNetworkDb> {
    DurableNetworkDb::open(dir, named::company_schema(), options())
}

/// The operation a transaction's calls are traced under.
struct Txn<'a> {
    tracer: &'a Tracer,
    op: u64,
    root: Option<SpanId>,
}

impl Txn<'_> {
    fn call<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.tracer.span(name, self.op, self.root, |_| f())
    }
}

/// One transaction's work before its commit: store a DIV and 4 EMPs,
/// modify 8 corpus EMPs, erase the previous transaction's DIV and EMPs.
/// Returns the new DIV.
fn transaction(
    db: &mut DurableNetworkDb,
    txn: &Txn,
    rng: &mut SplitMix64,
    emp_ids: &[RecordId],
    prev_div: Option<RecordId>,
) -> DiskResult<RecordId> {
    let i = txn.op;
    let loc = format!("CITY-{:02}", rng.below(37));
    let div = txn.call("durable.store", || {
        db.store(
            "DIV",
            &[
                ("DIV-NAME", Value::str(format!("TXN-{i:09}"))),
                ("DIV-LOC", Value::str(loc)),
            ],
            &[],
        )
    })?;
    for e in 0..4 {
        let dept = DEPTS[rng.below(DEPTS.len() as u64) as usize];
        let age = 20 + rng.below(45) as i64;
        txn.call("durable.store", || {
            db.store(
                "EMP",
                &[
                    ("EMP-NAME", Value::str(format!("TXN-{i:09}-{e}"))),
                    ("DEPT-NAME", Value::str(dept)),
                    ("AGE", Value::Int(age)),
                ],
                &[("DIV-EMP", div)],
            )
        })?;
    }
    for _ in 0..8 {
        let id = emp_ids[rng.below(emp_ids.len() as u64) as usize];
        let age = 20 + rng.below(45) as i64;
        txn.call("durable.modify", || {
            db.modify(id, &[("AGE", Value::Int(age))])
        })?;
    }
    if let Some(prev) = prev_div {
        txn.call("durable.erase", || db.erase(prev, true))?;
    }
    Ok(div)
}

/// Counter deltas of the traced transactions and of the checkpoints.
#[derive(Default)]
struct Traced {
    commits: u64,
    txns: MetricsFrame,
    checkpoints: MetricsFrame,
}

pub fn run(ctx: &Ctx) -> Outcome {
    let sizes = if ctx.smoke { &SMOKE } else { &FULL };
    let mut out = Outcome::default();
    let mut src = company_mem();
    let corpus = fill_corpus(
        &mut src,
        sizes.divisions,
        sizes.emps,
        derive_seed(ctx.seed, 5),
        None,
    );
    let corpus_records = src.record_count() as u64;

    // Set-up: open a fresh directory and import the corpus, three times;
    // keep the last.
    let mut import_s = Vec::new();
    let mut kept = None;
    for i in 0..3 {
        if let Some((db, dir)) = kept.take() {
            drop(db);
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = ctx.scratch.join(format!("churn-{i}"));
        out.probe_host();
        let t = Instant::now();
        let mut db = open(&dir).unwrap_or_else(|e| panic!("durable open failed: {e}"));
        let ti = Instant::now();
        db.import(&src, b"")
            .unwrap_or_else(|e| panic!("durable import failed: {e}"));
        import_s.push(ti.elapsed().as_secs_f64());
        out.setup(t.elapsed().as_secs_f64());
        kept = Some((db, dir));
    }
    drop(src);
    let (mut db, dir) = kept.expect("three set-ups ran");

    let mut rng = SplitMix64::new(derive_seed(ctx.seed, 6));
    let mut prev_div = None;
    let mut traced = Traced::default();
    let mut checkpoints = 0u64;
    out.probe_host();
    let deadline = ctx.deadline();
    let mut segment = (Instant::now(), 0u64);
    let mut op = 0u64;
    loop {
        let on = ctx.trace_op(op);
        let before = on.then(local_snapshot);
        let t = Instant::now();
        let result = ctx.tracer.span("txn", op, None, |root| {
            let txn = Txn {
                tracer: ctx.tracer,
                op,
                root,
            };
            let sp = db.begin_savepoint();
            match transaction(&mut db, &txn, &mut rng, &corpus.emp_ids, prev_div) {
                Ok(div) => txn.call("durable.commit", || db.commit(sp)).map(|()| div),
                Err(e) => {
                    db.rollback_to(sp);
                    Err(e)
                }
            }
        });
        let ns = ns_since(t);
        op += 1;
        out.attempted += 1;
        match result {
            Ok(div) => {
                prev_div = Some(div);
                segment.1 += 1;
                out.latency(ns);
                out.split(ctx, on, ns);
                if let Some(before) = before {
                    traced.txns.merge(&local_snapshot().since(&before));
                    traced.commits += 1;
                }
            }
            Err(e) => {
                out.failed += 1;
                out.check(false, || format!("transaction {op} failed: {e}"));
                if db.wedged() {
                    break;
                }
            }
        }
        if !op.is_multiple_of(sizes.checkpoint_every) {
            continue;
        }
        // A checkpoint interval ends: it is one throughput segment,
        // checkpoint included, except the last, which has no checkpoint.
        let last = Instant::now() >= deadline;
        if !last {
            // In a traced run every checkpoint is traced: there are few.
            ctx.tracer.set_active(true);
            let before = local_snapshot();
            let r = ctx
                .tracer
                .span("durable.checkpoint", op, None, |_| db.checkpoint(b""));
            traced.checkpoints.merge(&local_snapshot().since(&before));
            checkpoints += 1;
            out.check(r.is_ok(), || format!("checkpoint after commit {op} failed"));
        }
        out.segment(segment.1, segment.0.elapsed().as_secs_f64());
        if op == sizes.checkpoint_every {
            // The state after the first interval depends only on the seed.
            out.digest = db.fingerprint();
        }
        if last {
            break;
        }
        out.probe_host();
        segment = (Instant::now(), 0);
    }
    out.probe_host();
    ctx.tracer.set_active(true);

    let expected = corpus_records + 5;
    let live = db.engine().record_count() as u64;
    out.check(out.failed > 0 || live == expected, || {
        format!("{live} live records after {op} transactions, expected {expected}")
    });
    let heap = db.engine().heap_stats();
    let acknowledged = db.fingerprint();
    // A kill at an acknowledged commit: nothing is flushed or closed.
    std::mem::forget(db);
    let before = local_snapshot();
    let t = Instant::now();
    let recovered = open(&dir);
    let recover_s = t.elapsed().as_secs_f64();
    let recovery = local_snapshot().since(&before);
    match recovered {
        Ok(db) => out.check(db.fingerprint() == acknowledged, || {
            "recovered fingerprint differs from the last acknowledged commit".to_string()
        }),
        Err(e) => out.check(false, || format!("recovery failed: {e}")),
    }
    let _ = std::fs::remove_dir_all(&dir);

    if ctx.tracer.enabled() {
        let spans = ctx.tracer.spans();
        let us = |name, q| {
            let d = sorted(&trace::durations(&spans, name));
            percentile(&d, q).unwrap_or(0.0) / 1e3
        };
        let f = &traced.txns;
        let per_commit = |name| f.counter(name) as f64 / traced.commits.max(1) as f64;
        let ck = sorted(&trace::durations(&spans, "durable.checkpoint"));
        let l = &mut out.layers;
        l.set("durable.store_us.p50", us("durable.store", 50.0));
        l.set("durable.modify_us.p50", us("durable.modify", 50.0));
        l.set("durable.erase_us.p50", us("durable.erase", 50.0));
        l.set("durable.commit_call_us.p50", us("durable.commit", 50.0));
        l.set("durable.commit_call_us.p99", us("durable.commit", 99.0));
        l.set("wal.bytes_per_commit", per_commit(WAL_BYTES));
        l.set("wal.appends_per_commit", per_commit(WAL_APPENDS));
        l.set("wal.flushes_per_commit", per_commit(WAL_FLUSHES));
        l.set("disk.syncs_per_commit", per_commit(DISK_SYNCS));
        disk_layers(l, f, traced.commits);
        if let Some(h) = heap {
            l.set(
                "heap.bytes_per_record",
                (h.pages * PAGE as u64) as f64 / live as f64,
            );
        }
        l.set(
            "durable.checkpoint_ms.p50",
            percentile(&ck, 50.0).unwrap_or(0.0) / 1e6,
        );
        l.set(
            "durable.checkpoint_ms.max",
            ck.last().copied().unwrap_or(0.0) / 1e6,
        );
        l.set(
            "durable.checkpoint_writes",
            traced.checkpoints.counter(DISK_WRITES) as f64 / checkpoints.max(1) as f64,
        );
        l.set("durable.import_s", median(&import_s).unwrap_or(0.0));
        l.set("durable.recover_s", recover_s);
        l.set(
            "recovery.wal_records",
            recovery.counter(WAL_RECOVERED) as f64,
        );
        l.set("recovery.disk_reads", recovery.counter(DISK_READS) as f64);
        if let Some(c) = trace::coverage(&spans, "txn") {
            l.set("trace.coverage", c);
        }
    }
    out
}
