//! Durable job journal for the conversion service.
//!
//! PR 7's service keeps admitted jobs in worker-queue RAM; PR 8's WAL
//! substrate persists engine state but not the *work list*. This module
//! closes that seam: every admitted job and every published result is
//! journaled through [`dbpc_storage::LogMgr`] so a service restarted over
//! the same durable root can replay exactly the jobs that were admitted
//! but not completed — and assemble a shutdown [`RunReport`] byte-identical
//! (in its deterministic projection) to the uninterrupted run.
//!
//! ## Record format
//!
//! The journal is one checksummed WAL (`jobs.wal`, `[len][fnv64][payload]`
//! framing from [`LogMgr`]); each payload is a tag byte plus
//! [`ByteWriter`]-encoded fields:
//!
//! | tag | record | fields |
//! |-----|--------|--------|
//! | 1 | `ADMIT` | seq, session, ctx, key, fnv64(text), program text |
//! | 2 | — | retired: the JSON `DONE` of earlier journals |
//! | 3 | `SHED`  | seq |
//! | 4 | `DONE`  | seq, capture (ticks, span forest), metrics delta |
//!
//! The program rides as dialect text ([`print_program`], round-trip proven
//! by `tests/dialect_roundtrip.rs`) with its own fingerprint, so a replayed
//! job re-parses to the very program that was admitted. A `DONE` payload is
//! the job's *observability shard* — span capture plus metrics delta, in
//! the binary shard codec below — which is all the shutdown report
//! assembly needs; the job outcome itself is deliberately not persisted,
//! because a replayed job recomputes it as a pure function of
//! `(context, program, key)` (the service's determinism contract). The
//! service keeps every finished job's shard as these same bytes, journal
//! or not, and [`decode_done`] turns live and recovered ones alike back
//! into a capture and a metrics frame.
//!
//! A span is `flags` (bit 0: event, bit 1: wall time present), name,
//! open and close seqs, the wall time when flagged, the attributes as
//! `u32` count plus key/value strings, and the children as `u32` count
//! plus spans, preorder. A metrics frame is a `u32` count of entries, each
//! name, kind byte (counter, racy, gauge, time, hist) and value (one
//! 8-byte word, or four for a hist). Decoding is total: every failure is a
//! typed [`CodecError`], preallocations are capped by the bytes left, span
//! nesting deeper than 256 levels is refused, and trailing bytes
//! are an error. A record that fails to decode — a retired tag-2 `DONE`
//! included — is counted in [`JournalScan::decode_errors`] and skipped, so
//! its job replays.
//!
//! Callers encode a record ([`JournalRecord`]) *before* they take the
//! service's journal lock: the lock covers only the WAL append and, for an
//! `ADMIT`, its fsync.
//!
//! ## Durability schedule
//!
//! `ADMIT` is append + fsync — admission is the contract the client can
//! rely on after a crash. `DONE`/`SHED` are append-only (staged into the
//! WAL tail, full pages written eagerly) and made durable by the next
//! [`JobJournal::finalize`] — shutdown, drop, or an explicit flush. A kill
//! between a result's append and the final flush loses at most the staged
//! tail of results, and the matching jobs simply replay — idempotent, and
//! cheaper than an fsync per completion (the `BENCH_durability` fsync
//! floor, documented in EXPERIMENTS.md §K).
//!
//! ## Failure semantics
//!
//! The journal *wedges* on the first surfaced disk error (torn write,
//! short write, failed fsync — injectable via [`DiskFaultPlan`]): every
//! later operation is a no-op and the error count is reported at shutdown.
//! A wedged journal never takes the service down — jobs still run and
//! tickets still resolve; the un-journaled suffix is indistinguishable
//! from never-admitted work after a restart, which the E21 driver treats
//! exactly like the unsubmitted tail (resubmission), preserving the
//! `admitted = completed ∪ replayed` invariant.
//!
//! [`RunReport`]: dbpc_obs::RunReport

use dbpc_datamodel::error::{ModelError, PipelineResult};
use dbpc_dml::host::{parse_program, print_program, Program};
use dbpc_obs::span::SpanKind;
use dbpc_obs::{Capture, Hist, MetricValue, MetricsFrame, SpanNode};
use dbpc_storage::disk::codec::{fnv64, ByteReader, ByteWriter, CodecError, CodecResult};
use dbpc_storage::disk::{DiskFaultPlan, FileMgr, LogMgr, DEFAULT_PAGE_SIZE};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::Path;
use std::sync::Arc;

const TAG_ADMIT: u8 = 1;
/// Retired: the JSON `DONE` of earlier journals. Never written; a record
/// carrying it fails to decode, so its job replays.
pub(crate) const TAG_DONE_JSON: u8 = 2;
const TAG_SHED: u8 = 3;
const TAG_DONE: u8 = 4;

/// Deepest span nesting a `DONE` may carry. Real job captures nest a few
/// levels; the limit bounds the decoder's recursion on corrupt input.
const MAX_SPAN_DEPTH: usize = 256;

/// The WAL file name under the journal directory.
pub(crate) const JOURNAL_FILE: &str = "jobs.wal";

/// A journal boundary the crash matrix can kill at. `Staged` events fire
/// after the record is appended to the in-memory WAL tail (lost by a
/// kill); `Durable` events fire after the corresponding flush returned
/// (survives a kill). See `src/bin/service_crash.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalEvent {
    AdmitStaged,
    AdmitDurable,
    DoneStaged,
    ShedStaged,
    Finalized,
}

/// Test hook fired at every journal boundary with a process-wide monotone
/// boundary index. The E21 driver installs one that calls
/// `std::process::exit` at a chosen index; production configurations leave
/// it `None`.
#[derive(Clone)]
pub struct BoundaryHook(Arc<dyn Fn(JournalEvent, u64) + Send + Sync>);

impl BoundaryHook {
    pub fn new(f: impl Fn(JournalEvent, u64) + Send + Sync + 'static) -> BoundaryHook {
        BoundaryHook(Arc::new(f))
    }
}

impl fmt::Debug for BoundaryHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("BoundaryHook(..)")
    }
}

/// One admitted-but-incomplete job recovered from the journal: the
/// service re-enqueues it (original seq and session preserved, so its
/// capture label — and therefore the assembled span forest — matches the
/// uninterrupted run byte for byte).
#[derive(Debug, Clone)]
pub struct RecoveredJob {
    pub seq: u64,
    pub session: u64,
    pub ctx: usize,
    pub key: u64,
    pub program: Program,
}

/// Everything a recovery scan found, partitioned for the service.
#[derive(Debug, Default)]
pub struct JournalScan {
    /// Admitted, neither completed nor shed — the replay set, seq order.
    pub pending: Vec<RecoveredJob>,
    /// Completed jobs' `DONE` payloads, each validated by decoding it, in
    /// seq order ([`decode_done`] reads one back).
    pub results: Vec<(u64, Box<[u8]>)>,
    /// Seqs that were shed (bounded drain, or an unregistered context at
    /// start-up).
    pub shed: Vec<u64>,
    /// Intact `ADMIT` records found.
    pub admitted: u64,
    /// One past the highest journaled seq — the restarted service's next
    /// admission number, so post-crash submissions continue the sequence.
    pub next_seq: u64,
    /// Records whose payload failed to decode (never produced by this
    /// writer; counted, skipped, reported at shutdown).
    pub decode_errors: u64,
}

/// The durable job journal (see module docs). One per service, behind the
/// service's own mutex; every method is infallible by design — failures
/// wedge the journal instead of surfacing, per the module contract.
pub struct JobJournal {
    log: LogMgr,
    hook: Option<BoundaryHook>,
    boundary: u64,
    errors: u64,
    wedged: bool,
}

impl fmt::Debug for JobJournal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobJournal")
            .field("boundary", &self.boundary)
            .field("errors", &self.errors)
            .field("wedged", &self.wedged)
            .finish()
    }
}

impl JobJournal {
    /// Open (creating if absent) the journal under `dir`, running the WAL
    /// recovery scan and partitioning its records. `faults` threads the
    /// seeded disk-fault plan into the journal's own file manager — the
    /// E21 torn/short/fsync cells.
    pub fn open(
        dir: &Path,
        faults: Option<DiskFaultPlan>,
        hook: Option<BoundaryHook>,
    ) -> PipelineResult<(JobJournal, JournalScan)> {
        // Quiet: the journal's own disk traffic is crash-safety
        // bookkeeping, not job work. Letting its `wal.*`/`disk.*`
        // counters hit the ambient sheet would leak journal activity —
        // which varies with scheduling, crash position, and wedges —
        // into per-job shards and break the byte-identity contract.
        let (log, records) = dbpc_obs::quiet(|| {
            let fm = FileMgr::new(dir, DEFAULT_PAGE_SIZE)
                .map_err(journal_err)?
                .with_faults(faults);
            LogMgr::open(Arc::new(fm), JOURNAL_FILE).map_err(journal_err)
        })?;

        let mut admits: BTreeMap<u64, RecoveredJob> = BTreeMap::new();
        let mut dones: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut shed: BTreeSet<u64> = BTreeSet::new();
        let mut next_seq = 0u64;
        let mut decode_errors = 0u64;
        for (_, payload) in records {
            match decode(&payload) {
                Ok(Record::Admit(job)) => {
                    next_seq = next_seq.max(job.seq + 1);
                    admits.insert(job.seq, job);
                }
                Ok(Record::Done(seq, _, _)) => {
                    next_seq = next_seq.max(seq + 1);
                    // Last-wins: a replayed job's second DONE supersedes.
                    dones.insert(seq, payload);
                }
                Ok(Record::Shed(seq)) => {
                    next_seq = next_seq.max(seq + 1);
                    shed.insert(seq);
                }
                Err(_) => decode_errors += 1,
            }
        }
        let admitted = admits.len() as u64;
        let pending = admits
            .into_values()
            .filter(|j| !dones.contains_key(&j.seq) && !shed.contains(&j.seq))
            .collect();
        let results = dones
            .into_iter()
            .map(|(seq, payload)| (seq, payload.into_boxed_slice()))
            .collect();
        Ok((
            JobJournal {
                log,
                hook,
                boundary: 0,
                errors: 0,
                wedged: false,
            },
            JournalScan {
                pending,
                results,
                shed: shed.into_iter().collect(),
                admitted,
                next_seq,
                decode_errors,
            },
        ))
    }

    /// Append one record encoded by the caller. An `ADMIT` is fsynced
    /// before this returns: after it returns un-wedged, a restart will
    /// either find the job's result or replay it. `DONE` and `SHED` are
    /// append-only, made durable by the next [`JobJournal::finalize`] (or
    /// a page-boundary eager write); a kill before then just means the
    /// job replays.
    pub fn append(&mut self, record: &JournalRecord) {
        if self.wedged {
            return;
        }
        if dbpc_obs::quiet(|| self.log.append(&record.payload)).is_err() {
            self.wedge();
            return;
        }
        self.fire(record.staged);
        if record.staged == JournalEvent::AdmitStaged {
            if dbpc_obs::quiet(|| self.log.flush()).is_err() {
                self.wedge();
                return;
            }
            self.fire(JournalEvent::AdmitDurable);
        }
    }

    /// Flush the staged tail durably (append + fsync). Called by service
    /// shutdown *and* by `Drop` — a service dropped without `shutdown`
    /// must not lose completed results that were only staged.
    pub fn finalize(&mut self) {
        if self.wedged {
            return;
        }
        if dbpc_obs::quiet(|| self.log.flush()).is_err() {
            self.wedge();
            return;
        }
        self.fire(JournalEvent::Finalized);
    }

    /// Disk errors surfaced so far (the journal wedges on the first).
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// Has a disk error wedged the journal?
    pub fn wedged(&self) -> bool {
        self.wedged
    }

    fn wedge(&mut self) {
        self.errors += 1;
        self.wedged = true;
    }

    fn fire(&mut self, event: JournalEvent) {
        if self.wedged {
            return;
        }
        let index = self.boundary;
        self.boundary += 1;
        if let Some(hook) = &self.hook {
            (hook.0)(event, index);
        }
    }
}

/// One journal record, encoded. Callers build it before they take the
/// journal lock, so the lock covers only [`JobJournal::append`]'s WAL
/// append (and an `ADMIT`'s fsync).
#[derive(Debug)]
pub struct JournalRecord {
    payload: Box<[u8]>,
    /// The boundary event the append fires.
    staged: JournalEvent,
}

impl JournalRecord {
    /// An admission: the job's identity and its program as dialect text.
    pub fn admit(seq: u64, session: u64, ctx: usize, key: u64, program: &Program) -> JournalRecord {
        let text = print_program(program);
        let mut w = ByteWriter::new();
        w.put_u8(TAG_ADMIT);
        w.put_u64(seq);
        w.put_u64(session);
        w.put_u64(ctx as u64);
        w.put_u64(key);
        w.put_u64(fnv64(text.as_bytes()));
        w.put_str(&text);
        JournalRecord::new(w, JournalEvent::AdmitStaged)
    }

    /// A completed job's observability shard: its capture and the metrics
    /// delta recorded alongside it, a [`MetricsFrame`] or a bracket's
    /// [`Delta`](dbpc_obs::Delta), in name order either way.
    pub fn done<'a, M>(seq: u64, capture: &Capture, delta: M) -> JournalRecord
    where
        M: IntoIterator<Item = (&'a str, MetricValue), IntoIter: ExactSizeIterator>,
    {
        // A service job's shard encodes to about 1.7 KB; the payload is
        // cut to its exact length below.
        let mut w = ByteWriter::over(Vec::with_capacity(2048));
        w.put_u8(TAG_DONE);
        w.put_u64(seq);
        put_capture(&mut w, capture);
        put_frame(&mut w, delta);
        JournalRecord::new(w, JournalEvent::DoneStaged)
    }

    /// A shed seq (drain expiry, or an unregistered context at start-up), so
    /// recovery never replays a job the client was told failed.
    pub fn shed(seq: u64) -> JournalRecord {
        let mut w = ByteWriter::new();
        w.put_u8(TAG_SHED);
        w.put_u64(seq);
        JournalRecord::new(w, JournalEvent::ShedStaged)
    }

    fn new(w: ByteWriter, staged: JournalEvent) -> JournalRecord {
        JournalRecord {
            payload: w.into_bytes().into_boxed_slice(),
            staged,
        }
    }

    /// The encoded payload, exactly as [`JobJournal::append`] writes it.
    pub fn into_payload(self) -> Box<[u8]> {
        self.payload
    }
}

#[derive(Debug)]
enum Record {
    Admit(RecoveredJob),
    Done(u64, Capture, MetricsFrame),
    Shed(u64),
}

const SPAN_EVENT: u8 = 1;
const SPAN_WALL: u8 = 2;

/// Fewest bytes one encoded span takes (flags, empty name, two seqs, two
/// empty counts): the divisor that caps a child-count preallocation.
const MIN_SPAN_BYTES: usize = 1 + 4 + 8 + 8 + 4 + 4;
/// Fewest bytes one encoded attribute takes (two empty strings).
const MIN_ATTR_BYTES: usize = 4 + 4;

const METRIC_COUNTER: u8 = 0;
const METRIC_RACY: u8 = 1;
const METRIC_GAUGE: u8 = 2;
const METRIC_TIME: u8 = 3;
const METRIC_HIST: u8 = 4;

fn put_capture(w: &mut ByteWriter, capture: &Capture) {
    w.put_u64(capture.ticks);
    w.put_u32(capture.spans.len() as u32);
    for root in &capture.spans {
        put_span(w, root);
    }
}

fn put_span(w: &mut ByteWriter, node: &SpanNode) {
    let mut flags = 0;
    if node.kind == SpanKind::Event {
        flags |= SPAN_EVENT;
    }
    if node.wall_ns.is_some() {
        flags |= SPAN_WALL;
    }
    w.put_u8(flags);
    w.put_str(&node.name);
    w.put_u64(node.seq_open);
    w.put_u64(node.seq_close);
    if let Some(ns) = node.wall_ns {
        w.put_u64(ns);
    }
    w.put_u32(node.attrs.len() as u32);
    for (k, v) in &node.attrs {
        w.put_str(k);
        w.put_str(v);
    }
    w.put_u32(node.children.len() as u32);
    for child in &node.children {
        put_span(w, child);
    }
}

fn put_frame<'a>(
    w: &mut ByteWriter,
    frame: impl IntoIterator<Item = (&'a str, MetricValue), IntoIter: ExactSizeIterator>,
) {
    let entries = frame.into_iter();
    w.put_u32(entries.len() as u32);
    for (name, value) in entries {
        w.put_str(name);
        match value {
            MetricValue::Counter(n) => {
                w.put_u8(METRIC_COUNTER);
                w.put_u64(n);
            }
            MetricValue::Racy(n) => {
                w.put_u8(METRIC_RACY);
                w.put_u64(n);
            }
            MetricValue::Gauge(g) => {
                w.put_u8(METRIC_GAUGE);
                w.put_i64(g);
            }
            MetricValue::Time(n) => {
                w.put_u8(METRIC_TIME);
                w.put_u64(n);
            }
            MetricValue::Hist(h) => {
                w.put_u8(METRIC_HIST);
                w.put_u64(h.count);
                w.put_u64(h.sum);
                w.put_u64(h.min);
                w.put_u64(h.max);
            }
        }
    }
}

fn codec_err(context: &'static str, detail: impl Into<String>) -> CodecError {
    CodecError {
        context,
        detail: detail.into(),
    }
}

/// Preallocation for `n` decoded items of at least `min_bytes` each,
/// capped by the bytes left in `r`: a corrupt count cannot reserve more
/// memory than the input could fill.
fn capacity(n: u32, r: &ByteReader, min_bytes: usize) -> usize {
    (n as usize).min(r.remaining() / min_bytes)
}

fn get_capture(r: &mut ByteReader) -> CodecResult<Capture> {
    let ticks = r.get_u64("done ticks")?;
    let n = r.get_u32("done span count")?;
    let mut spans = Vec::with_capacity(capacity(n, r, MIN_SPAN_BYTES));
    for _ in 0..n {
        spans.push(get_span(r, 1)?);
    }
    Ok(Capture { spans, ticks })
}

fn get_span(r: &mut ByteReader, depth: usize) -> CodecResult<SpanNode> {
    if depth > MAX_SPAN_DEPTH {
        return Err(codec_err(
            "done span depth",
            format!("spans nest deeper than {MAX_SPAN_DEPTH}"),
        ));
    }
    let flags = r.get_u8("done span flags")?;
    if flags & !(SPAN_EVENT | SPAN_WALL) != 0 {
        return Err(codec_err(
            "done span flags",
            format!("unknown flags {flags:#04x}"),
        ));
    }
    let kind = if flags & SPAN_EVENT != 0 {
        SpanKind::Event
    } else {
        SpanKind::Span
    };
    let name = r.get_str("done span name")?;
    let seq_open = r.get_u64("done span open")?;
    let seq_close = r.get_u64("done span close")?;
    let wall_ns = if flags & SPAN_WALL != 0 {
        Some(r.get_u64("done span wall")?)
    } else {
        None
    };
    let n = r.get_u32("done attr count")?;
    let mut attrs = Vec::with_capacity(capacity(n, r, MIN_ATTR_BYTES));
    for _ in 0..n {
        let k = r.get_str("done attr key")?;
        let v = r.get_str("done attr value")?;
        attrs.push((k, v));
    }
    let n = r.get_u32("done child count")?;
    let mut children = Vec::with_capacity(capacity(n, r, MIN_SPAN_BYTES));
    for _ in 0..n {
        children.push(get_span(r, depth + 1)?);
    }
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

fn get_frame(r: &mut ByteReader) -> CodecResult<MetricsFrame> {
    let n = r.get_u32("done metric count")?;
    let mut frame = MetricsFrame::new();
    for _ in 0..n {
        let name = r.get_str("done metric name")?;
        let value = match r.get_u8("done metric kind")? {
            METRIC_COUNTER => MetricValue::Counter(r.get_u64("done counter")?),
            METRIC_RACY => MetricValue::Racy(r.get_u64("done racy")?),
            METRIC_GAUGE => MetricValue::Gauge(r.get_i64("done gauge")?),
            METRIC_TIME => MetricValue::Time(r.get_u64("done time")?),
            METRIC_HIST => MetricValue::Hist(Hist {
                count: r.get_u64("done hist count")?,
                sum: r.get_u64("done hist sum")?,
                min: r.get_u64("done hist min")?,
                max: r.get_u64("done hist max")?,
            }),
            other => {
                return Err(codec_err(
                    "done metric kind",
                    format!("unknown kind {other}"),
                ))
            }
        };
        frame.set(name, value);
    }
    Ok(frame)
}

/// Decode one `DONE` payload — a live shard the service kept or one a
/// recovery scan validated — into its seq, capture and metrics frame.
pub fn decode_done(payload: &[u8]) -> CodecResult<(u64, Capture, MetricsFrame)> {
    match decode(payload)? {
        Record::Done(seq, capture, frame) => Ok((seq, capture, frame)),
        _ => Err(codec_err("journal tag", "not a DONE record")),
    }
}

fn decode(payload: &[u8]) -> CodecResult<Record> {
    let mut r = ByteReader::new(payload);
    let record = match r.get_u8("journal tag")? {
        TAG_ADMIT => {
            let seq = r.get_u64("admit seq")?;
            let session = r.get_u64("admit session")?;
            let ctx = r.get_u64("admit ctx")? as usize;
            let key = r.get_u64("admit key")?;
            let text_fp = r.get_u64("admit text fp")?;
            let text = r.get_str("admit program")?;
            if fnv64(text.as_bytes()) != text_fp {
                return Err(codec_err("admit program", "fingerprint mismatch"));
            }
            let program = parse_program(&text)
                .map_err(|e| codec_err("admit program", format!("re-parse: {e}")))?;
            Record::Admit(RecoveredJob {
                seq,
                session,
                ctx,
                key,
                program,
            })
        }
        TAG_DONE => {
            let seq = r.get_u64("done seq")?;
            let capture = get_capture(&mut r)?;
            let frame = get_frame(&mut r)?;
            Record::Done(seq, capture, frame)
        }
        TAG_SHED => Record::Shed(r.get_u64("shed seq")?),
        TAG_DONE_JSON => return Err(codec_err("journal tag", "retired JSON DONE record (tag 2)")),
        other => return Err(codec_err("journal tag", format!("unknown tag {other}"))),
    };
    if !r.is_empty() {
        return Err(codec_err(
            "journal record",
            format!("{} trailing bytes", r.remaining()),
        ));
    }
    Ok(record)
}

fn journal_err(e: dbpc_storage::disk::DiskError) -> dbpc_datamodel::error::PipelineError {
    ModelError::invalid(format!("job journal: {e}")).into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpc_storage::disk::{DiskFault, TempDir};
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn program() -> Program {
        dbpc_dml::host::parse_program(
            "PROGRAM J;
  FIND E := FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 30));
  FOR EACH R IN E DO
    PRINT R.EMP-NAME;
  END FOR;
END PROGRAM;",
        )
        .unwrap()
    }

    fn shard() -> (Capture, MetricsFrame) {
        let ((), cap) = dbpc_obs::capture("session0.job1", || {
            dbpc_obs::event("unit");
        });
        let mut frame = MetricsFrame::new();
        frame.set("service.jobs", MetricValue::Counter(1));
        (cap, frame)
    }

    fn admit(seq: u64, session: u64, key: u64, p: &Program) -> JournalRecord {
        JournalRecord::admit(seq, session, 0, key, p)
    }

    /// Exact shard equality: `SpanNode`'s `PartialEq` skips `wall_ns`,
    /// its derived `Debug` does not.
    fn same_shard(a: &(Capture, MetricsFrame), b: &(Capture, MetricsFrame)) -> bool {
        a == b && format!("{a:?}") == format!("{b:?}")
    }

    /// SplitMix64 over a proptest seed: the shim has no recursive
    /// strategies, so random span trees are grown from one seed.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn text(&mut self) -> String {
            const PARTS: [&str; 6] = ["", "stage.converter", "key", "7", "é—ü", " "];
            (0..self.below(3))
                .map(|_| PARTS[self.below(PARTS.len() as u64) as usize])
                .collect()
        }

        fn span(&mut self, depth: usize) -> SpanNode {
            let kind = if self.below(3) == 0 {
                SpanKind::Event
            } else {
                SpanKind::Span
            };
            let children = if kind == SpanKind::Span && depth < 5 {
                (0..self.below(4)).map(|_| self.span(depth + 1)).collect()
            } else {
                Vec::new()
            };
            SpanNode {
                kind,
                name: self.text(),
                attrs: (0..self.below(3))
                    .map(|_| (self.text(), self.text()))
                    .collect(),
                seq_open: self.next(),
                seq_close: self.next(),
                wall_ns: (self.below(2) == 0).then(|| self.next()),
                children,
            }
        }

        fn capture(&mut self) -> Capture {
            Capture {
                spans: (0..self.below(4)).map(|_| self.span(1)).collect(),
                ticks: self.next(),
            }
        }

        fn frame(&mut self) -> MetricsFrame {
            let mut frame = MetricsFrame::new();
            for i in 0..self.below(8) {
                let value = match self.below(5) {
                    0 => MetricValue::Counter(self.next()),
                    1 => MetricValue::Racy(self.next()),
                    2 => MetricValue::Gauge(self.next() as i64),
                    3 => MetricValue::Time(self.next()),
                    _ => MetricValue::Hist(Hist {
                        count: self.next(),
                        sum: self.next(),
                        min: self.next(),
                        max: self.next(),
                    }),
                };
                frame.set(format!("{}.{i}", self.text()), value);
            }
            frame
        }
    }

    #[test]
    fn admit_done_shed_round_trip_across_reopen() {
        let dir = TempDir::new("journal-roundtrip").unwrap();
        let (mut j, scan) = JobJournal::open(dir.path(), None, None).unwrap();
        assert_eq!(scan.admitted, 0);
        assert_eq!(scan.next_seq, 0);
        let p = program();
        j.append(&admit(0, 0, 7, &p));
        j.append(&admit(1, 0, 8, &p));
        j.append(&admit(2, 1, 9, &p));
        let (cap, frame) = shard();
        let done = JournalRecord::done(0, &cap, &frame);
        j.append(&done);
        j.append(&JournalRecord::shed(2));
        j.finalize();
        drop(j);

        let (_, scan) = JobJournal::open(dir.path(), None, None).unwrap();
        assert_eq!(scan.admitted, 3);
        assert_eq!(scan.next_seq, 3);
        assert_eq!(scan.shed, vec![2]);
        assert_eq!(scan.decode_errors, 0);
        // Exactly job 1 is pending: 0 completed, 2 shed.
        assert_eq!(scan.pending.len(), 1);
        let pending = &scan.pending[0];
        assert_eq!((pending.seq, pending.session, pending.key), (1, 0, 8));
        assert_eq!(pending.program, p);
        // The completed shard round-trips exactly, as the very bytes written.
        assert_eq!(scan.results.len(), 1);
        let (seq, payload) = &scan.results[0];
        assert_eq!(*seq, 0);
        assert_eq!(payload, &done.into_payload());
        let (seq2, cap2, frame2) = decode_done(payload).unwrap();
        assert_eq!(seq2, 0);
        assert_eq!(cap2, cap);
        assert_eq!(frame2, frame);
    }

    #[test]
    fn staged_done_is_lost_without_finalize_but_admit_survives() {
        let dir = TempDir::new("journal-staged").unwrap();
        let (mut j, _) = JobJournal::open(dir.path(), None, None).unwrap();
        j.append(&admit(0, 0, 1, &program()));
        let (cap, frame) = shard();
        j.append(&JournalRecord::done(0, &cap, &frame));
        drop(j); // kill: no finalize

        let (_, scan) = JobJournal::open(dir.path(), None, None).unwrap();
        // The fsync'd admit survived; the staged-only done did not — the
        // job replays, which is the idempotent-recovery contract.
        assert_eq!(scan.admitted, 1);
        assert_eq!(scan.results.len(), 0);
        assert_eq!(scan.pending.len(), 1);
    }

    #[test]
    fn disk_fault_wedges_instead_of_erroring() {
        let dir = TempDir::new("journal-wedge").unwrap();
        // FsyncFail is inert on read/write ops, so targeting the first
        // few indices hits exactly the admit's fsync wherever it lands.
        let plan = (0..8).fold(DiskFaultPlan::default(), |p, i| {
            p.with_fault_at(i, DiskFault::FsyncFail)
        });
        let (mut j, _) = JobJournal::open(dir.path(), Some(plan), None).unwrap();
        assert!(!j.wedged());
        j.append(&admit(0, 0, 1, &program()));
        assert!(j.wedged(), "failed fsync must wedge the journal");
        assert_eq!(j.errors(), 1);
        // Wedged journal: every later op is a silent no-op.
        let (cap, frame) = shard();
        j.append(&JournalRecord::done(0, &cap, &frame));
        j.append(&JournalRecord::shed(1));
        j.finalize();
        assert_eq!(j.errors(), 1);
    }

    #[test]
    fn boundary_hook_sees_monotone_indices() {
        let dir = TempDir::new("journal-hook").unwrap();
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        let hook = BoundaryHook::new(move |_, index| {
            assert_eq!(index, seen2.fetch_add(1, Ordering::SeqCst));
        });
        let (mut j, _) = JobJournal::open(dir.path(), None, Some(hook)).unwrap();
        j.append(&admit(0, 0, 1, &program()));
        let (cap, frame) = shard();
        j.append(&JournalRecord::done(0, &cap, &frame));
        j.finalize();
        // admit staged + admit durable + done staged + finalized
        assert_eq!(seen.load(Ordering::SeqCst), 4);
    }

    /// A captured span tree with attributes and an event, and every metric
    /// kind at its extremes, decode to exactly what was encoded.
    #[test]
    fn done_round_trips_every_metric_kind_and_extreme() {
        let ((), cap) = dbpc_obs::capture("job", || {
            dbpc_obs::span_with("stage.converter", &[("key", "7")], || {
                dbpc_obs::event("rewrite");
            });
        });
        let mut frame = MetricsFrame::new();
        frame.set("jobs.converted", MetricValue::Counter(1));
        frame.set("locks.waits", MetricValue::Racy(2));
        frame.set("host.threads", MetricValue::Gauge(4));
        frame.set("counter.max", MetricValue::Counter(u64::MAX));
        frame.set("racy.max", MetricValue::Racy(u64::MAX));
        frame.set("gauge.min", MetricValue::Gauge(i64::MIN));
        frame.set("gauge.max", MetricValue::Gauge(i64::MAX));
        frame.set("time.max", MetricValue::Time(u64::MAX));
        frame.set("hist.empty", MetricValue::Hist(Hist::default()));
        frame.set(
            "hist.full",
            MetricValue::Hist(Hist {
                count: u64::MAX,
                sum: u64::MAX,
                min: 0,
                max: u64::MAX,
            }),
        );
        let record = JournalRecord::done(u64::MAX, &cap, &frame);
        let (seq, cap2, frame2) = decode_done(&record.payload).unwrap();
        assert_eq!(seq, u64::MAX);
        assert!(same_shard(&(cap2, frame2), &(cap, frame)));
    }

    /// A span nested 10,000 deep is refused at the depth limit with a
    /// typed error, not a stack overflow.
    #[test]
    fn deeply_nested_span_fails_typed() {
        let mut w = ByteWriter::new();
        w.put_u8(TAG_DONE);
        w.put_u64(0);
        w.put_u64(0); // ticks
        w.put_u32(1); // one root
        for _ in 0..10_000 {
            w.put_u8(0);
            w.put_str("s");
            w.put_u64(0);
            w.put_u64(0);
            w.put_u32(0); // attrs
            w.put_u32(1); // one child
        }
        let err = decode(&w.into_bytes()).unwrap_err();
        assert_eq!(err.context, "done span depth");
    }

    /// A count of `u32::MAX` with no bytes behind it fails typed, without
    /// reserving memory for the count.
    #[test]
    fn huge_counts_without_bytes_fail_typed() {
        let header = |w: &mut ByteWriter| {
            w.put_u8(TAG_DONE);
            w.put_u64(0);
            w.put_u64(0);
        };
        let span_head = |w: &mut ByteWriter| {
            w.put_u8(0);
            w.put_str("s");
            w.put_u64(0);
            w.put_u64(0);
        };
        // Roots.
        let mut w = ByteWriter::new();
        header(&mut w);
        w.put_u32(u32::MAX);
        assert!(decode(&w.into_bytes()).is_err());
        // Attributes.
        let mut w = ByteWriter::new();
        header(&mut w);
        w.put_u32(1);
        span_head(&mut w);
        w.put_u32(u32::MAX);
        assert!(decode(&w.into_bytes()).is_err());
        // Children.
        let mut w = ByteWriter::new();
        header(&mut w);
        w.put_u32(1);
        span_head(&mut w);
        w.put_u32(0);
        w.put_u32(u32::MAX);
        assert_eq!(
            decode(&w.into_bytes()).unwrap_err().context,
            "done span flags"
        );
        // Metrics.
        let mut w = ByteWriter::new();
        header(&mut w);
        w.put_u32(0);
        w.put_u32(u32::MAX);
        assert_eq!(
            decode(&w.into_bytes()).unwrap_err().context,
            "done metric name"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random captures (nested spans and events, attributes, wall time
        /// present and absent, several roots) and frames (every metric
        /// kind) decode back to exactly their input.
        #[test]
        fn done_round_trips_random_shards(seed in any::<u64>()) {
            let mut g = Gen(seed);
            let (cap, frame) = (g.capture(), g.frame());
            let seq = g.next();
            let record = JournalRecord::done(seq, &cap, &frame);
            let (seq2, cap2, frame2) = decode_done(&record.payload).unwrap();
            prop_assert_eq!(seq2, seq);
            prop_assert!(same_shard(&(cap2, frame2), &(cap, frame)));
        }

        /// Decoder totality: byte flips, truncations and appended garbage
        /// on any record kind decode to a record or a typed error — never
        /// a panic.
        #[test]
        fn mangled_records_decode_or_fail_typed(
            kind in 0u8..3,
            seed in any::<u64>(),
            flips in prop::collection::vec((any::<u32>(), 1u8..=255), 0..4),
            cut in prop::option::of(any::<u32>()),
            garbage in prop::collection::vec(any::<u8>(), 0..16),
        ) {
            let mut g = Gen(seed);
            let record = match kind {
                0 => admit(g.next(), g.next(), g.next(), &program()),
                1 => JournalRecord::done(g.next(), &g.capture(), &g.frame()),
                _ => JournalRecord::shed(g.next()),
            };
            let mut bytes = record.payload.into_vec();
            prop_assert!(decode(&bytes).is_ok());
            for (at, mask) in flips {
                let at = at as usize % bytes.len();
                bytes[at] ^= mask;
            }
            if let Some(cut) = cut {
                bytes.truncate(cut as usize % (bytes.len() + 1));
            }
            bytes.extend_from_slice(&garbage);
            let _ = decode(&bytes);
        }
    }
}
