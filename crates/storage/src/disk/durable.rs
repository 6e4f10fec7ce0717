//! [`DurableNetworkDb`] — a [`NetworkDb`] whose commits survive process
//! death.
//!
//! ## Design: logical redo logging over the undo journal
//!
//! `txn.rs` already gives exact in-memory rollback, so the WAL only has
//! to make *commits* durable. Every mutation applies to the in-memory
//! engine immediately (keeping reads fast and rollback the existing
//! undo-journal path) and stages a **logical redo record** — the
//! arguments of the front-door call (`store`/`connect`/`disconnect`/
//! `erase`/`modify`). When the **outermost** savepoint commits, the
//! staged records plus a commit marker are appended to the WAL and
//! flushed; that flush is the commit boundary. Rolling back discards the
//! staged records along with the in-memory changes. Mutations outside
//! any savepoint auto-commit one record at a time.
//!
//! A transaction may also carry **notes**: opaque caller bytes staged with
//! [`DurableNetworkDb::note`] beside its redo records. A note is logged
//! and committed (or rolled back) with its transaction, replay never
//! applies it to the engine, and [`DurableNetworkDb::open`] hands back
//! every note committed since the last checkpoint, in commit order
//! ([`DurableNetworkDb::notes`]). The durable data translator keeps its
//! batch cursor this way, so a translation and the database it builds
//! share one redo log.
//!
//! Replaying committed calls through the same front door reproduces the
//! engine state *exactly* — ids come from a sequential allocator, set
//! positions from declared keys plus arrival order, and
//! [`NetworkDb::fingerprint`] hashes nothing but functions of that call
//! history — so a fresh process recovers a byte-identical fingerprint,
//! and the [`StatCatalog`](crate::StatCatalog) fingerprint (a pure
//! function of the state) comes along for free.
//!
//! ## Out-of-core records, page-granular checkpoints
//!
//! The engine inside is **paged**: records live in a slotted heap file
//! (`heap.dat`) under a capped [`BufferMgr`](super::buffer::BufferMgr)
//! pool, so database size is bounded by disk, not RAM. Between
//! checkpoints the pool runs **no-steal** — dirty pages are never
//! evicted to disk (the pool grows instead), so the on-disk heap image
//! stays exactly the last checkpoint's state and WAL replay from it is
//! always correct.
//!
//! [`DurableNetworkDb::checkpoint`] is therefore *page-granular*: its
//! I/O is proportional to the pages dirtied since the last checkpoint,
//! not to database size. The protocol:
//!
//! 1. refresh lazily-synced set-link payloads ([`NetworkDb::sync_links`]);
//! 2. write the **old on-disk image** of every dirty block into a
//!    pre-image undo log (`ckpt.undo`) and fsync it;
//! 3. flush the dirty heap pages in place and sync `heap.dat`;
//! 4. start an empty WAL for the next generation;
//! 5. persist the allocator state (`next_id`, per-set arrival counters)
//!    plus application metadata in a per-generation blob;
//! 6. flip the two-slot ping-pong manifest — the atomic switch;
//! 7. retire the old generation's WAL/blob and the undo log.
//!
//! A crash before step 6 leaves the manifest on the old generation;
//! recovery finds `ckpt.undo` prepared for a *newer* generation, rolls
//! every recorded pre-image back (and re-zeroes blocks past the old
//! end-of-file), and the old generation is intact. A crash after step 6
//! finds the undo log prepared for the *current* generation and simply
//! discards it. Recovery rebuilds all in-RAM indexes by scanning the
//! heap ([`NetworkDb::recover_paged`]) and replaying the WAL.
//!
//! ## Failure semantics
//!
//! A failed commit flush (real I/O error or injected fault) leaves the
//! in-memory engine ahead of the durable state, so the handle **wedges**:
//! every later operation fails until the process reopens the directory,
//! which recovers the last durably committed state — the same thing a
//! `kill -9` at that moment would have produced. Dropping the handle
//! without committing loses exactly the uncommitted tail, nothing more.

use super::codec::{capacity, fnv64, ByteReader, ByteWriter};
use super::faults::DiskFaultPlan;
use super::file::{BlockId, FileMgr, Page, DEFAULT_PAGE_SIZE};
use super::heap::HeapFile;
use super::log::{LogMgr, Lsn};
use super::{DiskError, DiskResult};
use crate::network_db::{NetworkDb, RecordId};
use crate::statcat::StatCatalog;
use crate::txn::Savepoint;
use dbpc_datamodel::network::NetworkSchema;
use dbpc_datamodel::value::Value;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::sync::Arc;

/// How a commit's WAL flush reaches stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// `fsync` on every commit: durable against power loss.
    #[default]
    Data,
    /// Write to the OS page cache on every commit, no `fsync`: durable
    /// against process death (`kill -9`), not power loss. This is the
    /// crash model of the E20 recovery matrix and roughly two orders of
    /// magnitude cheaper per small commit on ext4.
    Os,
}

/// Tuning knobs for opening a durable database.
#[derive(Debug, Clone, PartialEq)]
pub struct DurableOptions {
    pub page_size: usize,
    /// Base capacity of the heap's buffer pool, in frames. Clean pages
    /// are bounded by this; dirty pages may grow past it between
    /// checkpoints (no-steal) and are trimmed back afterwards.
    pub buffers: usize,
    pub sync: SyncPolicy,
    pub faults: Option<DiskFaultPlan>,
}

impl Default for DurableOptions {
    fn default() -> DurableOptions {
        DurableOptions {
            page_size: DEFAULT_PAGE_SIZE,
            buffers: 8,
            sync: SyncPolicy::Data,
            faults: None,
        }
    }
}

const MANIFEST: &str = "MANIFEST";
/// The heap file holding every record, shared across generations; only
/// the pages dirtied since the last checkpoint are rewritten.
const HEAP: &str = "heap.dat";
/// Pre-image undo log protecting in-place heap flushes (see module docs).
const UNDO: &str = "ckpt.undo";
const MAN_MAGIC: u64 = u64::from_le_bytes(*b"DBPCMAN1");
const META_MAGIC: u64 = u64::from_le_bytes(*b"DBPCMET1");
const UNDO_MAGIC: u64 = u64::from_le_bytes(*b"DBPCUND1");
const WAL_MAGIC: u64 = u64::from_le_bytes(*b"DBPCWAL1");

const TAG_HEADER: u8 = 1;
const TAG_OP: u8 = 2;
const TAG_COMMIT: u8 = 3;
const TAG_NOTE: u8 = 4;

const OP_STORE: u8 = 1;
const OP_CONNECT: u8 = 2;
const OP_DISCONNECT: u8 = 3;
const OP_ERASE: u8 = 4;
const OP_MODIFY: u8 = 5;

fn wal_file(gen: u64) -> String {
    format!("wal_{gen:06}.log")
}

fn meta_file(gen: u64) -> String {
    format!("meta_{gen:06}.blob")
}

/// Structural digest of a schema, stamped into snapshot and WAL headers
/// so an image can never be replayed under the wrong schema.
pub fn schema_fingerprint(schema: &NetworkSchema) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    format!("{schema:?}").hash(&mut h);
    h.finish()
}

/// A durably persisted owner-coupled-set database. See the module docs
/// for the logging design.
#[derive(Debug)]
pub struct DurableNetworkDb {
    fm: Arc<FileMgr>,
    log: LogMgr,
    db: NetworkDb,
    /// Base heap-pool capacity, remembered for the import rebuild path.
    pool: usize,
    gen: u64,
    meta: Vec<u8>,
    schema_fp: u64,
    sync: SyncPolicy,
    /// Redo records staged by the open transaction, encoded back to back
    /// in one flat buffer whose allocation survives across commits.
    pending: Vec<u8>,
    /// End offset in `pending` of each staged record.
    ends: Vec<usize>,
    /// Open savepoints with the staged-record count at their creation.
    marks: Vec<(Savepoint, usize)>,
    /// Notes committed since the last checkpoint, as recovered by open.
    notes: Vec<Vec<u8>>,
    wedged: bool,
}

impl DurableNetworkDb {
    /// Open (or create) the database under `root`, recovering the last
    /// committed state: manifest → torn-checkpoint rollback → heap scan →
    /// WAL replay of committed transactions. Recovery is idempotent —
    /// opening twice yields the same fingerprint as opening once.
    pub fn open(
        root: impl Into<PathBuf>,
        schema: NetworkSchema,
        opts: DurableOptions,
    ) -> DiskResult<DurableNetworkDb> {
        let fm = Arc::new(FileMgr::new(root, opts.page_size)?.with_faults(opts.faults.clone()));
        let schema_fp = schema_fingerprint(&schema);
        let gen = read_manifest(&fm)?;
        rollback_torn_checkpoint(&fm, gen)?;
        let (next_id, next_seqs, meta) = if gen > 0 {
            read_meta_blob(&fm, gen, schema_fp)?
        } else {
            // Heap pages reach disk only inside a checkpoint, and a torn
            // first checkpoint was just rolled back: with no generation on
            // record the heap must be empty. Records here mean the
            // MANIFEST was lost.
            if HeapFile::open(Arc::clone(&fm), HEAP, 1)?.stats().records > 0 {
                return Err(DiskError::Corrupt(
                    "MANIFEST names no checkpoint but the heap holds records".to_string(),
                ));
            }
            (1, Vec::new(), Vec::new())
        };
        let mut db = NetworkDb::recover_paged(
            schema,
            Arc::clone(&fm),
            HEAP,
            opts.buffers,
            next_id,
            &next_seqs,
        )
        .map_err(|e| DiskError::Corrupt(format!("heap recovery: {e}")))?;
        // From here on, dirty heap pages must never reach disk outside a
        // checkpoint: the on-disk heap image *is* the last checkpoint.
        // This must precede WAL replay — replayed ops dirty pages too.
        if let Some(bm) = db.heap_buffer() {
            bm.set_no_steal(true);
        }
        let (mut log, records) = LogMgr::open(fm.clone(), wal_file(gen))?;
        let notes = replay(&mut db, &records, schema_fp)?;
        if records.is_empty() {
            log.append(&header_record(schema_fp))?;
            flush_policy(&mut log, SyncPolicy::Data)?;
        }
        Ok(DurableNetworkDb {
            fm,
            log,
            db,
            pool: opts.buffers,
            gen,
            meta,
            schema_fp,
            sync: opts.sync,
            pending: Vec::new(),
            ends: Vec::new(),
            marks: Vec::new(),
            notes,
            wedged: false,
        })
    }

    /// The in-memory engine, for reads. Mutations must go through this
    /// wrapper or they will not be logged.
    pub fn engine(&self) -> &NetworkDb {
        &self.db
    }

    /// Engine fingerprint of the current in-memory state.
    pub fn fingerprint(&self) -> u64 {
        self.db.fingerprint()
    }

    /// Fingerprint of the derived statistics catalogue.
    pub fn stat_fingerprint(&self) -> u64 {
        StatCatalog::of_network(&self.db).fingerprint()
    }

    /// Application metadata stored with the latest snapshot.
    pub fn meta(&self) -> &[u8] {
        &self.meta
    }

    /// Notes committed since the last checkpoint, in commit order, as
    /// [`Self::open`] recovered them from the WAL. A checkpoint empties
    /// the list along with the WAL it truncates.
    pub fn notes(&self) -> &[Vec<u8>] {
        &self.notes
    }

    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// Total disk operations (reads, writes, syncs) issued through this
    /// engine's [`FileMgr`] since open. The checkpoint-cost regression
    /// test diffs this around [`DurableNetworkDb::checkpoint`] to pin
    /// the page-granular contract: checkpoint I/O is proportional to
    /// the number of *dirty* pages, not to database size.
    pub fn disk_ops(&self) -> u64 {
        self.fm.op_count()
    }

    /// True once a failed commit flush has wedged the handle (reopen the
    /// directory to recover the durable state).
    pub fn wedged(&self) -> bool {
        self.wedged
    }

    fn ready(&self) -> DiskResult<()> {
        if self.wedged {
            return Err(DiskError::State(
                "handle wedged by a failed commit flush; reopen to recover".to_string(),
            ));
        }
        Ok(())
    }

    /// See [`NetworkDb::begin_savepoint`].
    pub fn begin_savepoint(&mut self) -> Savepoint {
        let sp = self.db.begin_savepoint();
        self.marks.push((sp, self.ends.len()));
        sp
    }

    /// See [`NetworkDb::rollback_to`]; also discards the staged redo
    /// records of the rolled-back suffix.
    pub fn rollback_to(&mut self, sp: Savepoint) {
        self.db.rollback_to(sp);
        if let Some(pos) = self.marks.iter().position(|&(s, _)| s == sp) {
            self.ends.truncate(self.marks[pos].1);
            self.pending
                .truncate(self.ends.last().copied().unwrap_or(0));
            self.marks.truncate(pos);
        }
    }

    /// See [`NetworkDb::commit`]. Committing the outermost savepoint is
    /// the durability point: staged records plus a commit marker are
    /// appended and flushed per the [`SyncPolicy`].
    pub fn commit(&mut self, sp: Savepoint) -> DiskResult<()> {
        self.ready()?;
        self.db.commit(sp);
        if let Some(pos) = self.marks.iter().position(|&(s, _)| s == sp) {
            self.marks.truncate(pos);
        }
        if self.marks.is_empty() {
            self.commit_pending()?;
        }
        Ok(())
    }

    fn commit_pending(&mut self) -> DiskResult<()> {
        if self.ends.is_empty() {
            return Ok(());
        }
        let result = (|| {
            let mut start = 0usize;
            for &end in &self.ends {
                self.log.append(&self.pending[start..end])?;
                start = end;
            }
            self.log.append(&[TAG_COMMIT])?;
            flush_policy(&mut self.log, self.sync)
        })();
        match result {
            Ok(()) => {
                self.pending.clear();
                self.ends.clear();
                Ok(())
            }
            Err(e) => {
                // The in-memory engine is now ahead of the durable state;
                // refuse everything further so the divergence cannot grow.
                self.wedged = true;
                Err(e)
            }
        }
    }

    /// Borrow the staged-record buffer for in-place encoding of one more
    /// record; [`Self::seal_op`] takes it back and marks the record end.
    fn begin_op(&mut self) -> ByteWriter {
        self.begin_record(TAG_OP)
    }

    fn begin_record(&mut self, tag: u8) -> ByteWriter {
        let mut w = ByteWriter::over(std::mem::take(&mut self.pending));
        w.put_u8(tag);
        w
    }

    /// Stage `note` in the open transaction: it reaches the WAL with the
    /// transaction's commit, vanishes with its rollback, and comes back
    /// from [`Self::notes`] after a reopen. Outside any savepoint the
    /// note commits on its own.
    pub fn note(&mut self, note: &[u8]) -> DiskResult<()> {
        self.ready()?;
        let mut w = self.begin_record(TAG_NOTE);
        w.put_bytes(note);
        self.seal_op(w)
    }

    fn seal_op(&mut self, w: ByteWriter) -> DiskResult<()> {
        self.pending = w.into_bytes();
        self.ends.push(self.pending.len());
        if self.marks.is_empty() {
            self.commit_pending()?;
        }
        Ok(())
    }

    /// See [`NetworkDb::store`].
    pub fn store(
        &mut self,
        rtype: &str,
        values: &[(&str, Value)],
        connects: &[(&str, RecordId)],
    ) -> DiskResult<RecordId> {
        self.ready()?;
        let id = self
            .db
            .store(rtype, values, connects)
            .map_err(DiskError::Engine)?;
        let mut w = self.begin_op();
        w.put_u8(OP_STORE);
        w.put_str(rtype);
        w.put_u32(values.len() as u32);
        for (name, v) in values {
            w.put_str(name);
            w.put_value(v);
        }
        w.put_u32(connects.len() as u32);
        for (set, owner) in connects {
            w.put_str(set);
            w.put_u64(owner.0);
        }
        self.seal_op(w)?;
        Ok(id)
    }

    /// See [`NetworkDb::connect`].
    pub fn connect(&mut self, set: &str, owner: RecordId, member: RecordId) -> DiskResult<()> {
        self.ready()?;
        self.db
            .connect(set, owner, member)
            .map_err(DiskError::Engine)?;
        let mut w = self.begin_op();
        w.put_u8(OP_CONNECT);
        w.put_str(set);
        w.put_u64(owner.0);
        w.put_u64(member.0);
        self.seal_op(w)
    }

    /// See [`NetworkDb::disconnect`].
    pub fn disconnect(&mut self, set: &str, member: RecordId) -> DiskResult<()> {
        self.ready()?;
        self.db.disconnect(set, member).map_err(DiskError::Engine)?;
        let mut w = self.begin_op();
        w.put_u8(OP_DISCONNECT);
        w.put_str(set);
        w.put_u64(member.0);
        self.seal_op(w)
    }

    /// See [`NetworkDb::erase`].
    pub fn erase(&mut self, id: RecordId, cascade: bool) -> DiskResult<Vec<RecordId>> {
        self.ready()?;
        let erased = self.db.erase(id, cascade).map_err(DiskError::Engine)?;
        let mut w = self.begin_op();
        w.put_u8(OP_ERASE);
        w.put_u64(id.0);
        w.put_u8(u8::from(cascade));
        self.seal_op(w)?;
        Ok(erased)
    }

    /// See [`NetworkDb::modify`].
    pub fn modify(&mut self, id: RecordId, assigns: &[(&str, Value)]) -> DiskResult<()> {
        self.ready()?;
        self.db.modify(id, assigns).map_err(DiskError::Engine)?;
        let mut w = self.begin_op();
        w.put_u8(OP_MODIFY);
        w.put_u64(id.0);
        w.put_u32(assigns.len() as u32);
        for (name, v) in assigns {
            w.put_str(name);
            w.put_value(v);
        }
        self.seal_op(w)
    }

    /// Force the WAL to stable storage regardless of the sync policy.
    pub fn sync(&mut self) -> DiskResult<()> {
        self.ready()?;
        self.log.flush()
    }

    /// Snapshot the committed state into a new generation and truncate
    /// the WAL. Must be called outside any savepoint. Crashing anywhere
    /// inside recovers either the old or the new generation, complete.
    pub fn checkpoint(&mut self, meta: &[u8]) -> DiskResult<()> {
        self.ready()?;
        if !self.marks.is_empty() {
            return Err(DiskError::State(
                "checkpoint inside an open savepoint".to_string(),
            ));
        }
        let result = self.checkpoint_inner(meta, false);
        if result.is_err() {
            self.wedged = true;
        }
        result
    }

    fn checkpoint_inner(&mut self, meta: &[u8], undo_prepared: bool) -> DiskResult<()> {
        let next = self.gen + 1;
        // Clear leftovers a crashed earlier checkpoint may have written;
        // the manifest still points at the current generation, so these
        // files are garbage by definition (pre-images in UNDO were already
        // rolled back by open()).
        self.fm.remove(&meta_file(next))?;
        self.fm.remove(&wal_file(next))?;

        // 1. Materialise lazily-deferred link rewrites so the dirty-page
        //    set below is the complete committed delta.
        self.db.sync_links().map_err(DiskError::Engine)?;

        // 2. Log pre-images of exactly the pages about to change, so a
        //    crash mid-flush can restore the current generation's heap.
        if !undo_prepared {
            let dirty: Vec<u64> = match self.db.heap_buffer() {
                Some(bm) => bm.dirty_blocks().iter().map(|b| b.num).collect(),
                None => Vec::new(),
            };
            prepare_undo(&self.fm, next, &dirty)?;
        }

        // 3. Flush those pages in place and make the heap file durable.
        //    Checkpoint I/O is therefore proportional to the number of
        //    dirty pages, not to the database size.
        self.db.flush_heap().map_err(DiskError::Engine)?;
        self.fm.sync(HEAP)?;

        // 4. Fresh WAL for the new generation.
        let (mut new_log, recs) = LogMgr::open(self.fm.clone(), wal_file(next))?;
        if !recs.is_empty() {
            return Err(DiskError::Corrupt(format!(
                "fresh WAL {} already holds {} records",
                wal_file(next),
                recs.len()
            )));
        }
        new_log.append(&header_record(self.schema_fp))?;
        new_log.flush()?;

        // 5. Sidecar with the allocator state and caller metadata.
        write_meta_blob(&self.fm, next, self.schema_fp, &self.db, meta)?;

        // 6. Atomically flip the manifest to the new generation.
        write_manifest(&self.fm, next)?;

        let old = self.gen;
        self.log = new_log;
        self.gen = next;
        self.meta = meta.to_vec();
        self.notes.clear();
        // 7. Retire the previous generation: its undo log, WAL, and meta
        //    sidecar (gen 0 has a WAL but no sidecar). Shrink the pool
        //    back to its base capacity now that nothing is dirty.
        self.fm.remove(UNDO)?;
        self.fm.remove(&wal_file(old))?;
        if old > 0 {
            self.fm.remove(&meta_file(old))?;
        }
        if let Some(bm) = self.db.heap_buffer() {
            bm.trim();
        }
        Ok(())
    }

    /// Replace the (empty or stale) contents with a full copy of `db` and
    /// checkpoint it — how the durable translator seeds a `DeleteWhere`
    /// target with its source. The schema must match the one the handle
    /// was opened with.
    pub fn import(&mut self, db: &NetworkDb, meta: &[u8]) -> DiskResult<()> {
        self.ready()?;
        if !self.marks.is_empty() {
            return Err(DiskError::State(
                "import inside an open savepoint".to_string(),
            ));
        }
        if schema_fingerprint(db.schema()) != self.schema_fp {
            return Err(DiskError::State(
                "import schema differs from the opened schema".to_string(),
            ));
        }
        let result = self.import_inner(db, meta);
        if result.is_err() {
            self.wedged = true;
        }
        result
    }

    /// Import rewrites the whole heap file in place, so the undo log must
    /// cover every old page up front: pre-image all of them, zero them so
    /// no stale slotted page survives at an offset the rebuild does not
    /// overwrite, copy straight into the heap with
    /// [`NetworkDb::to_paged_on`] (eviction during the copy is safe —
    /// every flushed page is covered by a pre-image or by the
    /// tail-zeroing rule in [`rollback_torn_checkpoint`]), then run the
    /// ordinary checkpoint with the undo already prepared.
    fn import_inner(&mut self, db: &NetworkDb, meta: &[u8]) -> DiskResult<()> {
        let next = self.gen + 1;
        let old_blocks = self.fm.block_count(HEAP)?;
        prepare_undo(&self.fm, next, &(0..old_blocks).collect::<Vec<u64>>())?;
        let zero = Page::new(self.fm.page_size());
        for b in 0..old_blocks {
            self.fm.write(&BlockId::new(HEAP, b), &zero)?;
        }
        let mut rebuilt = db
            .to_paged_on(Arc::clone(&self.fm), HEAP, self.pool)
            .map_err(DiskError::Engine)?;
        if let Some(bm) = rebuilt.heap_buffer() {
            bm.set_no_steal(true);
        }
        self.db = rebuilt;
        self.checkpoint_inner(meta, true)
    }
}

fn header_record(schema_fp: u64) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(TAG_HEADER);
    w.put_u64(WAL_MAGIC);
    w.put_u64(schema_fp);
    w.into_bytes()
}

fn flush_policy(log: &mut LogMgr, sync: SyncPolicy) -> DiskResult<()> {
    match sync {
        SyncPolicy::Data => log.flush(),
        SyncPolicy::Os => log.flush_os(),
    }
}

/// Replay the committed transactions of a recovered WAL onto `db` and
/// return the notes they carried, in commit order. Uncommitted trailing
/// records (no commit marker) are discarded — they were never durable.
fn replay(
    db: &mut NetworkDb,
    records: &[(Lsn, Vec<u8>)],
    schema_fp: u64,
) -> DiskResult<Vec<Vec<u8>>> {
    let mut notes = Vec::new();
    let mut staged: Vec<(u8, &[u8])> = Vec::new();
    for (i, (lsn, rec)) in records.iter().enumerate() {
        let mut r = ByteReader::new(rec);
        let tag = r.get_u8("wal record tag")?;
        if i == 0 {
            if tag != TAG_HEADER {
                return Err(DiskError::Corrupt(
                    "WAL does not start with a header".to_string(),
                ));
            }
            if r.get_u64("wal magic")? != WAL_MAGIC {
                return Err(DiskError::Corrupt("bad WAL magic".to_string()));
            }
            if r.get_u64("wal schema fingerprint")? != schema_fp {
                return Err(DiskError::Corrupt(
                    "WAL was written under a different schema".to_string(),
                ));
            }
            continue;
        }
        match tag {
            TAG_OP | TAG_NOTE => staged.push((tag, &rec[1..])),
            TAG_COMMIT => {
                for (tag, body) in staged.drain(..) {
                    if tag == TAG_NOTE {
                        notes.push(ByteReader::new(body).get_bytes("wal note")?.to_vec());
                    } else {
                        apply_op(db, body)?;
                    }
                }
            }
            TAG_HEADER => {
                return Err(DiskError::Corrupt(format!(
                    "header record mid-log at lsn {lsn}"
                )))
            }
            t => {
                return Err(DiskError::Corrupt(format!(
                    "unknown WAL tag {t} at lsn {lsn}"
                )))
            }
        }
    }
    Ok(notes)
}

fn apply_op(db: &mut NetworkDb, op: &[u8]) -> DiskResult<()> {
    let mut r = ByteReader::new(op);
    let engine = |e: crate::error::DbError| {
        DiskError::Corrupt(format!("replay of committed op rejected: {e}"))
    };
    match r.get_u8("op tag")? {
        OP_STORE => {
            let rtype = r.get_str("store rtype")?;
            let n_values = r.get_u32("store value count")?;
            let mut values = Vec::with_capacity(capacity(n_values, &r));
            for _ in 0..n_values {
                values.push((r.get_str("store field")?, r.get_value("store value")?));
            }
            let n_connects = r.get_u32("store connect count")?;
            let mut connects = Vec::with_capacity(capacity(n_connects, &r));
            for _ in 0..n_connects {
                connects.push((r.get_str("store set")?, RecordId(r.get_u64("store owner")?)));
            }
            let value_refs: Vec<(&str, Value)> = values
                .iter()
                .map(|(n, v)| (n.as_str(), v.clone()))
                .collect();
            let connect_refs: Vec<(&str, RecordId)> =
                connects.iter().map(|(s, o)| (s.as_str(), *o)).collect();
            db.store(&rtype, &value_refs, &connect_refs)
                .map(|_| ())
                .map_err(engine)
        }
        OP_CONNECT => {
            let set = r.get_str("connect set")?;
            let owner = RecordId(r.get_u64("connect owner")?);
            let member = RecordId(r.get_u64("connect member")?);
            db.connect(&set, owner, member).map_err(engine)
        }
        OP_DISCONNECT => {
            let set = r.get_str("disconnect set")?;
            let member = RecordId(r.get_u64("disconnect member")?);
            db.disconnect(&set, member).map_err(engine)
        }
        OP_ERASE => {
            let id = RecordId(r.get_u64("erase id")?);
            let cascade = r.get_u8("erase cascade")? != 0;
            db.erase(id, cascade).map(|_| ()).map_err(engine)
        }
        OP_MODIFY => {
            let id = RecordId(r.get_u64("modify id")?);
            let n = r.get_u32("modify assign count")?;
            let mut assigns = Vec::with_capacity(capacity(n, &r));
            for _ in 0..n {
                assigns.push((r.get_str("modify field")?, r.get_value("modify value")?));
            }
            let assign_refs: Vec<(&str, Value)> = assigns
                .iter()
                .map(|(n, v)| (n.as_str(), v.clone()))
                .collect();
            db.modify(id, &assign_refs).map_err(engine)
        }
        t => Err(DiskError::Corrupt(format!("unknown op tag {t}"))),
    }
}

fn read_manifest(fm: &FileMgr) -> DiskResult<u64> {
    if !fm.exists(MANIFEST) {
        return Ok(0);
    }
    let mut best = 0u64;
    let mut page = Page::new(fm.page_size());
    for slot in 0..2u64 {
        fm.read(&BlockId::new(MANIFEST, slot), &mut page)?;
        let bytes = page.as_slice();
        let mut r = ByteReader::new(bytes);
        let (Ok(magic), Ok(gen), Ok(sum)) = (
            r.get_u64("manifest magic"),
            r.get_u64("manifest gen"),
            r.get_u64("manifest checksum"),
        ) else {
            continue;
        };
        if magic == MAN_MAGIC && sum == fnv64(&bytes[..16]) && gen > best {
            best = gen;
        }
    }
    Ok(best)
}

fn write_manifest(fm: &FileMgr, gen: u64) -> DiskResult<()> {
    let mut w = ByteWriter::new();
    w.put_u64(MAN_MAGIC);
    w.put_u64(gen);
    let head = w.into_bytes();
    let mut page = Page::new(fm.page_size());
    page.write_at(0, &head)?;
    page.write_at(16, &fnv64(&head).to_le_bytes())?;
    fm.write(&BlockId::new(MANIFEST, gen % 2), &page)?;
    fm.sync(MANIFEST)
}

/// Write pre-images of `blocks` (heap block numbers) into the undo log,
/// then fsync it. Layout: record 0 is a header
/// `[UNDO_MAGIC][prepared_gen][old_block_count]`; each following record
/// is `[u64 block][raw page bytes]`. Blocks at or past the current end
/// of the heap file have no pre-image — rollback restores them by
/// zeroing everything from `old_block_count` to the (possibly grown)
/// end of file. The undo log reuses the WAL's checksummed record
/// framing, so a torn undo write is indistinguishable from an absent
/// one and recovery can discard it wholesale.
fn prepare_undo(fm: &Arc<FileMgr>, prepared_gen: u64, blocks: &[u64]) -> DiskResult<()> {
    fm.remove(UNDO)?;
    let old_blocks = fm.block_count(HEAP)?;
    let (mut log, _) = LogMgr::open(fm.clone(), UNDO)?;
    let mut w = ByteWriter::new();
    w.put_u64(UNDO_MAGIC);
    w.put_u64(prepared_gen);
    w.put_u64(old_blocks);
    log.append(&w.into_bytes())?;
    let mut page = Page::new(fm.page_size());
    for &num in blocks {
        if num >= old_blocks {
            continue; // tail-zeroing covers pages past the old EOF
        }
        fm.read(&BlockId::new(HEAP, num), &mut page)?;
        let mut rec = Vec::with_capacity(8 + page.size());
        rec.extend_from_slice(&num.to_le_bytes());
        rec.extend_from_slice(page.as_slice());
        log.append(&rec)?;
    }
    log.flush()
}

/// Undo a checkpoint that crashed after pre-images were durable but
/// before the manifest flipped: restore every logged page and zero the
/// heap-file tail past the old end. If the manifest did flip (or the
/// undo header never made it to disk), the pre-images are stale and are
/// simply discarded. Idempotent — crashing inside rollback and running
/// it again restores the same bytes.
fn rollback_torn_checkpoint(fm: &Arc<FileMgr>, manifest_gen: u64) -> DiskResult<()> {
    if !fm.exists(UNDO) {
        return Ok(());
    }
    let (_, records) = LogMgr::open(fm.clone(), UNDO)?;
    if let Some((_, header)) = records.first() {
        let mut r = ByteReader::new(header);
        if r.get_u64("undo magic")? != UNDO_MAGIC {
            return Err(DiskError::Corrupt("bad undo-log magic".to_string()));
        }
        let prepared_gen = r.get_u64("undo prepared gen")?;
        let old_blocks = r.get_u64("undo old block count")?;
        if prepared_gen > manifest_gen {
            let ps = fm.page_size();
            let mut page = Page::new(ps);
            for (_, rec) in &records[1..] {
                if rec.len() != 8 + ps {
                    return Err(DiskError::Corrupt(format!(
                        "undo pre-image of {} bytes against page size {ps}",
                        rec.len()
                    )));
                }
                let num = u64::from_le_bytes(rec[..8].try_into().unwrap_or_default());
                page.as_mut_slice().copy_from_slice(&rec[8..]);
                fm.write(&BlockId::new(HEAP, num), &page)?;
            }
            let current = fm.block_count(HEAP)?;
            if current > old_blocks {
                let zero = Page::new(ps);
                for b in old_blocks..current {
                    fm.write(&BlockId::new(HEAP, b), &zero)?;
                }
            }
            fm.sync(HEAP)?;
        }
    }
    fm.remove(UNDO)
}

/// Persist the per-generation sidecar: one checksummed record holding
/// `[META_MAGIC][schema_fp][next record id][set seq table][meta bytes]`
/// — everything a reopen needs that is not reconstructible from the
/// heap pages themselves (erased-record ids must never be reused, and
/// caller metadata is opaque).
fn write_meta_blob(
    fm: &Arc<FileMgr>,
    gen: u64,
    schema_fp: u64,
    db: &NetworkDb,
    meta: &[u8],
) -> DiskResult<()> {
    let (next_id, seqs) = db.allocator_state();
    let mut w = ByteWriter::new();
    w.put_u64(META_MAGIC);
    w.put_u64(schema_fp);
    w.put_u64(next_id);
    w.put_u32(seqs.len() as u32);
    for (set, seq) in &seqs {
        w.put_str(set);
        w.put_u64(*seq);
    }
    w.put_bytes(meta);
    let (mut log, _) = LogMgr::open(fm.clone(), meta_file(gen))?;
    log.append(&w.into_bytes())?;
    log.flush()
}

#[allow(clippy::type_complexity)]
fn read_meta_blob(
    fm: &Arc<FileMgr>,
    gen: u64,
    schema_fp: u64,
) -> DiskResult<(u64, Vec<(String, u64)>, Vec<u8>)> {
    let file = meta_file(gen);
    let (_, records) = LogMgr::open(fm.clone(), file.clone())?;
    let Some((_, rec)) = records.first() else {
        return Err(DiskError::Corrupt(format!("{file}: empty meta sidecar")));
    };
    let mut r = ByteReader::new(rec);
    if r.get_u64("meta magic")? != META_MAGIC {
        return Err(DiskError::Corrupt(format!("{file}: bad meta magic")));
    }
    if r.get_u64("meta schema fingerprint")? != schema_fp {
        return Err(DiskError::Corrupt(format!(
            "{file}: database was written under a different schema"
        )));
    }
    let next_id = r.get_u64("meta next id")?;
    let n = r.get_u32("meta seq count")?;
    let mut seqs = Vec::with_capacity(capacity(n, &r));
    for _ in 0..n {
        let set = r.get_str("meta set name")?;
        let seq = r.get_u64("meta set seq")?;
        seqs.push((set, seq));
    }
    let meta = r.get_bytes("meta payload")?.to_vec();
    Ok((next_id, seqs, meta))
}

#[cfg(test)]
mod tests {
    use super::super::tempdir::TempDir;
    use super::*;
    use dbpc_datamodel::network::{FieldDef, RecordTypeDef, SetDef};
    use dbpc_datamodel::types::FieldType;
    use proptest::prelude::*;

    fn schema() -> NetworkSchema {
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
                    FieldDef::new("AGE", FieldType::Int(2)),
                ],
            ))
            .with_set(SetDef::system("ALL-DIV", "DIV", vec!["DIV-NAME"]))
            .with_set(SetDef::owned("DIV-EMP", "DIV", "EMP", vec!["EMP-NAME"]))
    }

    fn opts_small() -> DurableOptions {
        DurableOptions {
            page_size: 256,
            buffers: 4,
            ..DurableOptions::default()
        }
    }

    fn seed_commit(db: &mut DurableNetworkDb) -> RecordId {
        let sp = db.begin_savepoint();
        let div = db
            .store(
                "DIV",
                &[
                    ("DIV-NAME", Value::str("MACHINERY")),
                    ("DIV-LOC", Value::str("DETROIT")),
                ],
                &[],
            )
            .unwrap();
        for e in 0..3 {
            db.store(
                "EMP",
                &[
                    ("EMP-NAME", Value::str(format!("EMP-{e}"))),
                    ("AGE", Value::Int(30 + e)),
                ],
                &[("DIV-EMP", div)],
            )
            .unwrap();
        }
        db.commit(sp).unwrap();
        div
    }

    #[test]
    fn committed_state_survives_reopen_with_identical_fingerprints() {
        let dir = TempDir::new("durable-reopen").unwrap();
        let mut db = DurableNetworkDb::open(dir.path(), schema(), opts_small()).unwrap();
        seed_commit(&mut db);
        let (fp, sfp) = (db.fingerprint(), db.stat_fingerprint());
        drop(db);

        let db = DurableNetworkDb::open(dir.path(), schema(), opts_small()).unwrap();
        assert_eq!(db.fingerprint(), fp);
        assert_eq!(db.stat_fingerprint(), sfp);
        assert_eq!(db.engine().record_count(), 4);
    }

    #[test]
    fn uncommitted_tail_is_lost_rolled_back_ops_never_logged() {
        let dir = TempDir::new("durable-uncommitted").unwrap();
        let mut db = DurableNetworkDb::open(dir.path(), schema(), opts_small()).unwrap();
        seed_commit(&mut db);
        let fp = db.fingerprint();

        // Rolled back: never reaches the log.
        let sp = db.begin_savepoint();
        db.store(
            "DIV",
            &[("DIV-NAME", Value::str("ROLLED")), ("DIV-LOC", Value::Null)],
            &[],
        )
        .unwrap();
        db.rollback_to(sp);
        assert_eq!(db.fingerprint(), fp);

        // Committed-in-memory-only (kill before flush): open txn dropped.
        let sp = db.begin_savepoint();
        db.store(
            "DIV",
            &[("DIV-NAME", Value::str("DOOMED")), ("DIV-LOC", Value::Null)],
            &[],
        )
        .unwrap();
        let _ = sp; // dropped without commit = killed mid-transaction
        drop(db);

        let db = DurableNetworkDb::open(dir.path(), schema(), opts_small()).unwrap();
        assert_eq!(db.fingerprint(), fp);
    }

    #[test]
    fn nested_savepoints_log_only_the_outermost_commit() {
        let dir = TempDir::new("durable-nested").unwrap();
        let mut db = DurableNetworkDb::open(dir.path(), schema(), opts_small()).unwrap();
        let outer = db.begin_savepoint();
        let div = db
            .store(
                "DIV",
                &[("DIV-NAME", Value::str("M")), ("DIV-LOC", Value::Null)],
                &[],
            )
            .unwrap();
        let inner = db.begin_savepoint();
        db.store(
            "EMP",
            &[("EMP-NAME", Value::str("GONE")), ("AGE", Value::Int(1))],
            &[("DIV-EMP", div)],
        )
        .unwrap();
        db.rollback_to(inner);
        db.store(
            "EMP",
            &[("EMP-NAME", Value::str("KEPT")), ("AGE", Value::Int(2))],
            &[("DIV-EMP", div)],
        )
        .unwrap();
        db.commit(outer).unwrap();
        let fp = db.fingerprint();
        drop(db);

        let db = DurableNetworkDb::open(dir.path(), schema(), opts_small()).unwrap();
        assert_eq!(db.fingerprint(), fp);
        assert_eq!(db.engine().record_count(), 2);
    }

    #[test]
    fn checkpoint_truncates_wal_and_reopens_from_snapshot() {
        let dir = TempDir::new("durable-checkpoint").unwrap();
        let mut db = DurableNetworkDb::open(dir.path(), schema(), opts_small()).unwrap();
        let div = seed_commit(&mut db);
        db.checkpoint(b"after-seed").unwrap();
        assert_eq!(db.generation(), 1);
        // Post-checkpoint commits land in the new WAL.
        let sp = db.begin_savepoint();
        db.modify(
            db.engine().records_of_type("EMP")[0],
            &[("AGE", Value::Int(99))],
        )
        .unwrap();
        db.erase(div, true).unwrap();
        db.commit(sp).unwrap();
        let fp = db.fingerprint();
        drop(db);

        let db = DurableNetworkDb::open(dir.path(), schema(), opts_small()).unwrap();
        assert_eq!(db.fingerprint(), fp);
        assert_eq!(db.meta(), b"after-seed");
        assert_eq!(db.generation(), 1);
        // Old generation files are gone.
        assert!(!db.fm.exists(&wal_file(0)));
    }

    #[test]
    fn import_persists_a_full_copy() {
        let dir = TempDir::new("durable-import").unwrap();
        let mut source = NetworkDb::new(schema()).unwrap();
        source
            .store(
                "DIV",
                &[("DIV-NAME", Value::str("A")), ("DIV-LOC", Value::Null)],
                &[],
            )
            .unwrap();
        let mut db = DurableNetworkDb::open(dir.path(), schema(), opts_small()).unwrap();
        db.import(&source, b"ctx-meta").unwrap();
        drop(db);

        let db = DurableNetworkDb::open(dir.path(), schema(), opts_small()).unwrap();
        assert_eq!(db.fingerprint(), source.fingerprint());
        assert_eq!(db.meta(), b"ctx-meta");
    }

    #[test]
    fn failed_commit_flush_wedges_and_reopen_recovers_last_commit() {
        let dir = TempDir::new("durable-wedge").unwrap();
        let mut db = DurableNetworkDb::open(dir.path(), schema(), opts_small()).unwrap();
        seed_commit(&mut db);
        let fp = db.fingerprint();
        drop(db);

        // Reopen with an fsync fault timed to hit the next commit's flush:
        // open issues no writes/syncs on a clean dir (replay only), so the
        // first sync op after open belongs to the doomed commit.
        let mut opts = opts_small();
        opts.faults = Some(DiskFaultPlan::seeded(1, 1.0));
        let mut db = DurableNetworkDb::open(dir.path(), schema(), opts).unwrap();
        let sp = db.begin_savepoint();
        db.store(
            "DIV",
            &[("DIV-NAME", Value::str("X")), ("DIV-LOC", Value::Null)],
            &[],
        )
        .unwrap();
        let err = db.commit(sp).unwrap_err();
        assert!(err.is_injected(), "{err}");
        assert!(db.wedged());
        // Everything further is refused.
        assert!(matches!(
            db.store(
                "DIV",
                &[("DIV-NAME", Value::str("Y")), ("DIV-LOC", Value::Null)],
                &[]
            ),
            Err(DiskError::State(_))
        ));
        drop(db);

        let db = DurableNetworkDb::open(dir.path(), schema(), opts_small()).unwrap();
        assert_eq!(db.fingerprint(), fp, "recovered to last durable commit");
    }

    #[test]
    fn schema_mismatch_is_detected_on_open() {
        let dir = TempDir::new("durable-schema").unwrap();
        let mut db = DurableNetworkDb::open(dir.path(), schema(), opts_small()).unwrap();
        seed_commit(&mut db);
        drop(db);

        let other = NetworkSchema::new("OTHER").with_record(RecordTypeDef::new(
            "T",
            vec![FieldDef::new("F", FieldType::Int(4))],
        ));
        let err = DurableNetworkDb::open(dir.path(), other, opts_small()).unwrap_err();
        assert!(matches!(err, DiskError::Corrupt(_)), "{err}");
    }

    #[test]
    fn notes_commit_and_roll_back_with_their_transaction() {
        let dir = TempDir::new("durable-notes").unwrap();
        let mut db = DurableNetworkDb::open(dir.path(), schema(), opts_small()).unwrap();
        seed_commit(&mut db);
        let sp = db.begin_savepoint();
        db.note(b"first").unwrap();
        db.commit(sp).unwrap();
        let sp = db.begin_savepoint();
        db.note(b"rolled back").unwrap();
        db.rollback_to(sp);
        let sp = db.begin_savepoint();
        db.note(b"never committed").unwrap();
        let _ = sp;
        let fp = db.fingerprint();
        drop(db);

        let mut db = DurableNetworkDb::open(dir.path(), schema(), opts_small()).unwrap();
        assert_eq!(db.fingerprint(), fp, "notes never reach the engine");
        assert_eq!(db.notes(), [b"first".to_vec()]);
        db.note(b"second").unwrap();
        drop(db);
        let mut db = DurableNetworkDb::open(dir.path(), schema(), opts_small()).unwrap();
        assert_eq!(db.notes(), [b"first".to_vec(), b"second".to_vec()]);
        db.checkpoint(b"").unwrap();
        assert!(db.notes().is_empty());
        drop(db);
        let db = DurableNetworkDb::open(dir.path(), schema(), opts_small()).unwrap();
        assert!(db.notes().is_empty(), "a checkpoint truncates the notes");
    }

    /// Well-formed redo ops over [`schema`], for truncation below.
    fn sample_ops() -> Vec<Vec<u8>> {
        let mut ops = Vec::new();
        let mut w = ByteWriter::new();
        w.put_u8(OP_STORE);
        w.put_str("DIV");
        w.put_u32(2);
        w.put_str("DIV-NAME");
        w.put_value(&Value::str("M"));
        w.put_str("DIV-LOC");
        w.put_value(&Value::Null);
        w.put_u32(0);
        ops.push(w.into_bytes());
        let mut w = ByteWriter::new();
        w.put_u8(OP_STORE);
        w.put_str("EMP");
        w.put_u32(2);
        w.put_str("EMP-NAME");
        w.put_value(&Value::str("E"));
        w.put_str("AGE");
        w.put_value(&Value::Int(7));
        w.put_u32(1);
        w.put_str("DIV-EMP");
        w.put_u64(1);
        ops.push(w.into_bytes());
        let mut w = ByteWriter::new();
        w.put_u8(OP_MODIFY);
        w.put_u64(2);
        w.put_u32(1);
        w.put_str("AGE");
        w.put_value(&Value::Int(8));
        ops.push(w.into_bytes());
        let mut w = ByteWriter::new();
        w.put_u8(OP_DISCONNECT);
        w.put_str("DIV-EMP");
        w.put_u64(2);
        ops.push(w.into_bytes());
        let mut w = ByteWriter::new();
        w.put_u8(OP_CONNECT);
        w.put_str("DIV-EMP");
        w.put_u64(1);
        w.put_u64(2);
        ops.push(w.into_bytes());
        let mut w = ByteWriter::new();
        w.put_u8(OP_ERASE);
        w.put_u64(1);
        w.put_u8(1);
        ops.push(w.into_bytes());
        ops
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Decoder robustness: replay of a log whose records after the
        /// header are random tags, truncated or garbage-extended ops, and
        /// garbage notes either succeeds or reports `Corrupt` — never a
        /// panic, never another error class.
        #[test]
        fn replay_of_arbitrary_records_is_ok_or_corrupt(
            recs in prop::collection::vec(
                (0u8..5, any::<u8>(), 0usize..6, 0usize..64,
                 prop::collection::vec(any::<u8>(), 0..24)),
                0..24,
            ),
        ) {
            let ops = sample_ops();
            let fp = schema_fingerprint(&schema());
            let mut records = vec![(1, header_record(fp))];
            for (kind, tag, which, cut, garbage) in recs {
                let mut rec = Vec::new();
                match kind {
                    0 => rec.push(tag),
                    1 => {
                        rec.push(TAG_OP);
                        let op = &ops[which];
                        rec.extend_from_slice(&op[..cut.min(op.len())]);
                    }
                    2 => rec.push(TAG_NOTE),
                    3 => rec.push(TAG_COMMIT),
                    _ => {
                        rec.push(TAG_OP);
                        rec.extend_from_slice(&ops[which]);
                    }
                }
                rec.extend_from_slice(&garbage);
                records.push((records.len() as u64 + 1, rec));
            }
            let mut db = NetworkDb::new(schema()).unwrap();
            match replay(&mut db, &records, fp) {
                Ok(_) | Err(DiskError::Corrupt(_)) => {}
                Err(e) => prop_assert!(false, "replay failed outside Corrupt: {e}"),
            }
        }

        /// `apply_op` on arbitrary bytes: `Ok` or `Corrupt`, never a panic.
        #[test]
        fn apply_op_of_arbitrary_bytes_is_ok_or_corrupt(
            tag in 0u8..7,
            body in prop::collection::vec(any::<u8>(), 0..64),
        ) {
            let mut db = NetworkDb::new(schema()).unwrap();
            for op in sample_ops().iter().take(2) {
                apply_op(&mut db, op).unwrap();
            }
            let mut op = vec![tag];
            op.extend_from_slice(&body);
            match apply_op(&mut db, &op) {
                Ok(()) | Err(DiskError::Corrupt(_)) => {}
                Err(e) => prop_assert!(false, "apply_op failed outside Corrupt: {e}"),
            }
        }
    }
}
