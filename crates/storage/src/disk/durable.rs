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
//! and the [`StatCatalog`] fingerprint (a pure
//! function of the state) comes along for free.
//!
//! ## Out-of-core records, page-granular checkpoints
//!
//! The engine inside is **paged**: records live in a slotted heap file
//! (`heap.dat`) under a capped [`BufferMgr`]
//! pool, so database size is bounded by disk, not RAM. Every logical heap
//! page owns two physical slots in the file (shadow paging with a
//! ping-pong page pair; the slots of 64 consecutive pages lie in two
//! contiguous runs of blocks, so a checkpoint's writes coalesce), and
//! each generation's [`SlotMap`] — one bit per page plus the page count
//! — says which slot holds the page's checkpointed image. The pool reads
//! a page from that slot and only ever writes it to the other one.
//! Between checkpoints it also runs **no-steal**: dirty pages are never
//! evicted (the pool grows instead), so un-checkpointed changes live only
//! in RAM and the WAL.
//!
//! [`DurableNetworkDb::checkpoint`] is therefore *page-granular*: one
//! write per page dirtied since the last checkpoint plus a fixed
//! overhead, whatever the database size, and no pre-image of anything.
//! The protocol:
//!
//! 1. refresh lazily-synced set-link payloads ([`NetworkDb::sync_links`]);
//! 2. write every dirty heap page, in page-number order, to the slot the
//!    current map does not use (with ping-pong slots, page order is not
//!    file-block order: neighbouring pages may sit in different slots);
//! 3. sync `heap.dat`;
//! 4. start an empty WAL for the next generation;
//! 5. persist the allocator state (`next_id`, per-set arrival counters),
//!    the next generation's slot map (each page written in step 2 in its
//!    new slot) and application metadata in a per-generation meta blob;
//! 6. flip the two-slot ping-pong manifest — the atomic switch;
//! 7. adopt the new slot map in the pool, then retire the old
//!    generation's WAL and meta blob. When a checkpoint stops between
//!    steps 6 and 7, the next open retires them instead.
//!
//! Nothing ever needs rolling back. Until step 6 the manifest names the
//! old generation, and no step writes a byte of its heap slots, its WAL
//! or its meta blob: a crash anywhere before the flip recovers it exactly,
//! and whatever a torn step left behind lies in slots its map does not
//! read or in the next generation's files, which the next checkpoint
//! clears before writing. From step 6 on the manifest names the new
//! generation, whose heap slots, WAL and meta blob were all durable
//! before the flip. Recovery rebuilds all in-RAM indexes by scanning the
//! heap through the map ([`NetworkDb::recover_paged`]) and replays the
//! WAL. The space this costs is a heap file of about twice the logical
//! heap.
//!
//! A fresh directory records generation 0 (an empty map) in the manifest
//! before any heap page can be written, so a manifest naming no
//! generation over a heap file that holds pages means the manifest was
//! lost: the open is refused rather than recovering an empty database. A
//! directory holds only `MANIFEST`, `heap.dat` and the generations' WALs
//! and meta blobs; any other file was left by another on-disk format (an
//! older one kept pre-image logs beside the heap), and the open refuses
//! it as [`DiskError::Corrupt`], as it does a meta blob of another format.
//!
//! ## Failure semantics
//!
//! A failed commit flush (real I/O error or injected fault) leaves the
//! in-memory engine ahead of the durable state, so the handle **wedges**:
//! every later operation fails until the process reopens the directory,
//! which recovers the last durably committed state — the same thing a
//! `kill -9` at that moment would have produced. Dropping the handle
//! without committing loses exactly the uncommitted tail, nothing more.

use super::buffer::{BufferMgr, SlotMap};
use super::codec::{capacity, fnv64, ByteReader, ByteWriter};
use super::faults::DiskFaultPlan;
use super::file::{FileMgr, Page, DEFAULT_PAGE_SIZE};
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
/// The heap file holding every record, two slots per page, shared across
/// generations; only the pages dirtied since the last checkpoint are
/// written, each to the slot its generation's map does not use.
const HEAP: &str = "heap.dat";
const MAN_MAGIC: u64 = u64::from_le_bytes(*b"DBPCMAN1");
/// Meta blob format 2: the blob carries the generation's slot map.
const META_MAGIC: u64 = u64::from_le_bytes(*b"DBPCMET2");
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

/// The generation a WAL or meta blob file name belongs to.
fn generation_of(name: &str) -> Option<u64> {
    let n = match name.strip_prefix("wal_") {
        Some(rest) => rest.strip_suffix(".log")?,
        None => name.strip_prefix("meta_")?.strip_suffix(".blob")?,
    };
    let numbered = n.len() >= 6 && n.bytes().all(|b| b.is_ascii_digit());
    numbered.then(|| n.parse().ok()).flatten()
}

/// Whether `name` is a file this format writes: the manifest, the heap,
/// or a generation's WAL or meta blob.
fn is_format_file(name: &str) -> bool {
    name == MANIFEST || name == HEAP || generation_of(name).is_some()
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
    /// committed state: manifest → the generation's meta blob and slot
    /// map → heap scan → WAL replay of committed transactions. Recovery
    /// writes nothing a second open would read differently, so opening
    /// twice yields the same fingerprint as opening once.
    pub fn open(
        root: impl Into<PathBuf>,
        schema: NetworkSchema,
        opts: DurableOptions,
    ) -> DiskResult<DurableNetworkDb> {
        let fm = Arc::new(FileMgr::new(root, opts.page_size)?.with_faults(opts.faults.clone()));
        let schema_fp = schema_fingerprint(&schema);
        let files = format_files(&fm)?;
        let gen = match read_manifest(&fm)? {
            Some(gen) => {
                // A checkpoint that flipped the manifest but never reached
                // step 7 (a crash, or a failed manifest sync) left the
                // earlier generations' WALs and meta blobs behind. Make
                // the flip durable, then retire them.
                let stale: Vec<&String> = files
                    .iter()
                    .filter(|f| generation_of(f).is_some_and(|k| k < gen))
                    .collect();
                if !stale.is_empty() {
                    fm.sync(MANIFEST)?;
                    for f in stale {
                        fm.remove(f)?;
                    }
                }
                gen
            }
            None => {
                // A fresh directory records generation 0 before it writes
                // a heap page or a later generation's file: either one
                // here means the MANIFEST was lost.
                let later = files
                    .iter()
                    .find(|f| ![MANIFEST, HEAP].contains(&f.as_str()) && **f != wal_file(0));
                if fm.block_count(HEAP)? > 0 || later.is_some() {
                    let what =
                        later.map_or(format!("{HEAP} holds pages"), |f| format!("{f} exists"));
                    return Err(DiskError::Corrupt(format!(
                        "MANIFEST names no checkpoint but {what}"
                    )));
                }
                write_manifest(&fm, 0)?;
                0
            }
        };
        let blob = if gen > 0 {
            read_meta_blob(&fm, gen, schema_fp)?
        } else {
            MetaBlob::empty()
        };
        if fm.block_count(HEAP)? < blob.slots.min_blocks() {
            return Err(DiskError::Corrupt(format!(
                "{HEAP} is shorter than generation {gen}'s {} pages",
                blob.slots.pages()
            )));
        }
        let mut db = NetworkDb::recover_paged(
            schema,
            Arc::clone(&fm),
            HEAP,
            opts.buffers,
            blob.next_id,
            &blob.seqs,
            blob.slots,
        )
        .map_err(|e| DiskError::Corrupt(format!("heap recovery: {e}")))?;
        // From here on dirty heap pages stay in RAM until a checkpoint
        // writes each of them once. This precedes WAL replay — replayed
        // ops dirty pages too.
        heap_pool(&mut db)?.set_no_steal(true);
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
            meta: blob.meta,
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
        let result = self.checkpoint_inner(meta);
        if result.is_err() {
            self.wedged = true;
        }
        result
    }

    fn checkpoint_inner(&mut self, meta: &[u8]) -> DiskResult<()> {
        let next = self.gen + 1;
        // Clear leftovers a crashed earlier checkpoint may have written;
        // the manifest still points at the current generation, so these
        // files are garbage by definition.
        self.fm.remove(&meta_file(next))?;
        self.fm.remove(&wal_file(next))?;

        // 1. Materialise lazily-deferred link rewrites so the dirty-page
        //    set below is the complete committed delta.
        self.db.sync_links().map_err(DiskError::Engine)?;

        // 2–3. Write each dirty page, in page-number order (which the
        //    ping-pong slots make different from file-block order), to the
        //    slot the current map does not use, straight through the pool so a
        //    failed write reaches the caller as the disk error it is, and
        //    make the heap file durable. I/O is proportional to the
        //    number of dirty pages, not to the database size.
        let pool = heap_pool(&mut self.db)?;
        pool.flush_all()?;
        let slots = pool.next_slot_map();
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

        // 5. Meta blob with the allocator state, the new slot map and
        //    the caller's metadata.
        write_meta_blob(&self.fm, next, self.schema_fp, &self.db, &slots, meta)?;

        // 6. Atomically flip the manifest to the new generation.
        write_manifest(&self.fm, next)?;

        // 7. Only now is the new map the durable one: adopt it, shrink
        //    the pool back to its base capacity now that nothing is
        //    dirty, and retire the previous generation's WAL and meta
        //    blob (gen 0 has a WAL but no blob).
        let pool = heap_pool(&mut self.db)?;
        pool.adopt_slot_map(slots);
        pool.trim();
        let old = self.gen;
        self.log = new_log;
        self.gen = next;
        self.meta = meta.to_vec();
        self.notes.clear();
        self.fm.remove(&wal_file(old))?;
        if old > 0 {
            self.fm.remove(&meta_file(old))?;
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

    /// Import copies `db` into a heap over an empty slot map that keeps
    /// the current generation's slot choices
    /// ([`SlotMap::cleared`]), so every page the copy writes — evicted
    /// during the copy or flushed by the checkpoint — lands in a slot the
    /// current generation does not use, then runs the ordinary
    /// checkpoint. Until its manifest flip the current generation is
    /// untouched.
    fn import_inner(&mut self, db: &NetworkDb, meta: &[u8]) -> DiskResult<()> {
        let slots = heap_pool(&mut self.db)?.slot_map().cleared();
        let mut rebuilt = db
            .to_paged_at(Arc::clone(&self.fm), HEAP, self.pool, slots)
            .map_err(DiskError::Engine)?;
        heap_pool(&mut rebuilt)?.set_no_steal(true);
        self.db = rebuilt;
        self.checkpoint_inner(meta)
    }
}

/// The buffer pool of the durable engine's heap.
fn heap_pool(db: &mut NetworkDb) -> DiskResult<&mut BufferMgr> {
    db.heap_buffer()
        .ok_or_else(|| DiskError::State("durable engine without a heap".to_string()))
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

/// The newest generation a valid manifest slot names; `None` when no slot
/// is valid (or there is no manifest).
fn read_manifest(fm: &FileMgr) -> DiskResult<Option<u64>> {
    if !fm.exists(MANIFEST) {
        return Ok(None);
    }
    let mut best = None;
    let mut page = Page::new(fm.page_size());
    for slot in 0..2u64 {
        fm.read(MANIFEST, slot, &mut page)?;
        let bytes = page.as_slice();
        let mut r = ByteReader::new(bytes);
        let (Ok(magic), Ok(gen), Ok(sum)) = (
            r.get_u64("manifest magic"),
            r.get_u64("manifest gen"),
            r.get_u64("manifest checksum"),
        ) else {
            continue;
        };
        if magic == MAN_MAGIC && sum == fnv64(&bytes[..16]) && best < Some(gen) {
            best = Some(gen);
        }
    }
    Ok(best)
}

/// The files under the root, refusing any this format does not write
/// (see the module docs): never open beside another format's leftovers.
fn format_files(fm: &FileMgr) -> DiskResult<Vec<String>> {
    let root = fm.root();
    let io = |e: std::io::Error| DiskError::Io {
        op: "list",
        path: root.display().to_string(),
        detail: e.to_string(),
    };
    let mut files = Vec::new();
    for entry in std::fs::read_dir(root).map_err(io)? {
        let name = entry
            .map_err(io)?
            .file_name()
            .to_string_lossy()
            .into_owned();
        if !is_format_file(&name) {
            return Err(DiskError::Corrupt(format!(
                "{name}: not a file of this database format"
            )));
        }
        files.push(name);
    }
    Ok(files)
}

fn write_manifest(fm: &FileMgr, gen: u64) -> DiskResult<()> {
    let mut w = ByteWriter::new();
    w.put_u64(MAN_MAGIC);
    w.put_u64(gen);
    let head = w.into_bytes();
    let mut page = Page::new(fm.page_size());
    page.write_at(0, &head)?;
    page.write_at(16, &fnv64(&head).to_le_bytes())?;
    fm.write(MANIFEST, gen % 2, &page)?;
    fm.sync(MANIFEST)
}

/// What a generation's meta blob holds beside the heap pages: everything
/// a reopen needs that a heap scan cannot reconstruct (erased-record ids
/// must never be reused, where each page's image lies, and the caller's
/// opaque metadata).
#[derive(Debug)]
struct MetaBlob {
    next_id: u64,
    seqs: Vec<(String, u64)>,
    slots: SlotMap,
    meta: Vec<u8>,
}

impl MetaBlob {
    /// Generation 0: no record, no page, no metadata.
    fn empty() -> MetaBlob {
        MetaBlob {
            next_id: 1,
            seqs: Vec::new(),
            slots: SlotMap::default(),
            meta: Vec::new(),
        }
    }
}

/// Persist the per-generation blob: one checksummed record holding
/// `[META_MAGIC][schema_fp][next record id][set seq table][slot map][meta
/// bytes]`.
fn write_meta_blob(
    fm: &Arc<FileMgr>,
    gen: u64,
    schema_fp: u64,
    db: &NetworkDb,
    slots: &SlotMap,
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
    slots.encode(&mut w);
    w.put_bytes(meta);
    let (mut log, _) = LogMgr::open(fm.clone(), meta_file(gen))?;
    log.append(&w.into_bytes())?;
    log.flush()
}

fn read_meta_blob(fm: &Arc<FileMgr>, gen: u64, schema_fp: u64) -> DiskResult<MetaBlob> {
    let file = meta_file(gen);
    let (_, records) = LogMgr::open(fm.clone(), file.clone())?;
    let Some((_, rec)) = records.first() else {
        return Err(DiskError::Corrupt(format!("{file}: empty meta sidecar")));
    };
    let mut r = ByteReader::new(rec);
    if r.get_u64("meta magic")? != META_MAGIC {
        return Err(DiskError::Corrupt(format!(
            "{file}: bad meta magic (not this database format)"
        )));
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
    let slots = SlotMap::decode(&mut r)?;
    let meta = r.get_bytes("meta payload")?.to_vec();
    Ok(MetaBlob {
        next_id,
        seqs,
        slots,
        meta,
    })
}

#[cfg(test)]
mod tests {
    use super::super::faults::DiskFault;
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

    /// Every file of a directory: name and bytes.
    type DirImage = Vec<(String, Vec<u8>)>;

    fn dir_image(root: &std::path::Path) -> DirImage {
        let mut files: DirImage = std::fs::read_dir(root)
            .unwrap()
            .map(|e| {
                let path = e.unwrap().path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read(&path).unwrap())
            })
            .collect();
        files.sort();
        files
    }

    /// A fresh directory holding `image`.
    fn lay_down(image: &[(String, Vec<u8>)], label: &str) -> TempDir {
        let dir = TempDir::new(label).unwrap();
        for (name, bytes) in image {
            std::fs::write(dir.path().join(name), bytes).unwrap();
        }
        dir
    }

    /// A database one checkpoint in, whose live WAL then rewrites every
    /// checkpointed record, grows the heap by new pages and relinks its
    /// division: the next checkpoint writes old pages, new pages and
    /// link payloads. Returns the directory image and its fingerprints.
    fn sweep_fixture() -> (DirImage, (u64, u64)) {
        let dir = TempDir::new("durable-sweep-fixture").unwrap();
        let mut db = DurableNetworkDb::open(dir.path(), schema(), opts_small()).unwrap();
        let div = seed_commit(&mut db);
        db.checkpoint(b"one").unwrap();
        let sp = db.begin_savepoint();
        for emp in db.engine().records_of_type("EMP") {
            db.modify(emp, &[("AGE", Value::Int(77))]).unwrap();
        }
        for e in 0..24 {
            db.store(
                "EMP",
                &[
                    ("EMP-NAME", Value::str(format!("NEW-{e:02}"))),
                    ("AGE", Value::Int(40)),
                ],
                &[("DIV-EMP", div)],
            )
            .unwrap();
        }
        db.commit(sp).unwrap();
        let want = (db.fingerprint(), db.stat_fingerprint());
        drop(db);
        (dir_image(dir.path()), want)
    }

    /// Generation `gen`'s slot map, as its meta blob records it.
    fn slot_map(root: &std::path::Path, gen: u64) -> SlotMap {
        let fm = Arc::new(FileMgr::new(root, opts_small().page_size).unwrap());
        let fp = schema_fingerprint(&schema());
        read_meta_blob(&fm, gen, fp).unwrap().slots
    }

    /// The raw bytes of every heap block holding an image under `slots`.
    fn image_bytes(root: &std::path::Path, slots: &SlotMap) -> Vec<(u64, Vec<u8>)> {
        let fm = FileMgr::new(root, opts_small().page_size).unwrap();
        let mut page = Page::new(fm.page_size());
        (0..slots.pages())
            .map(|p| {
                let block = slots.image(p).unwrap();
                fm.read(HEAP, block, &mut page).unwrap();
                (block, page.as_slice().to_vec())
            })
            .collect()
    }

    /// The disk-op indexes one clean checkpoint of `image` issues.
    fn checkpoint_ops(image: &[(String, Vec<u8>)]) -> std::ops::Range<u64> {
        let dir = lay_down(image, "durable-sweep-clean");
        let mut db = DurableNetworkDb::open(dir.path(), schema(), opts_small()).unwrap();
        let first = db.disk_ops();
        db.checkpoint(b"two").unwrap();
        first..db.disk_ops()
    }

    /// A fault on a checkpoint's heap page write reaches the caller as
    /// the injected [`DiskError`] it is — not wrapped as an engine
    /// error — like a fault on any other write of the checkpoint.
    #[test]
    fn checkpoint_write_faults_reach_the_caller_typed() {
        let (image, _) = sweep_fixture();
        let ops = checkpoint_ops(&image);
        let mut fired = 0;
        for op in ops {
            let dir = lay_down(&image, "durable-typed-fault");
            let mut opts = opts_small();
            opts.faults = Some(DiskFaultPlan::default().with_fault_at(op, DiskFault::TornWrite));
            let mut db = DurableNetworkDb::open(dir.path(), schema(), opts).unwrap();
            match db.checkpoint(b"two") {
                Ok(()) => {}
                Err(DiskError::Injected { op_index, .. }) if op_index == op => fired += 1,
                Err(e) => panic!("torn write at op {op} came back as {e:?}"),
            }
        }
        // Every heap page write is one of them: the fixture dirties more
        // pages than a checkpoint's WAL, blob and manifest writes.
        assert!(fired > 8, "only {fired} checkpoint writes");
    }

    /// Fail one checkpoint at every disk op it issues, with each of a
    /// torn write, a short write and a failed fsync. Whatever the fault,
    /// the checkpointed generation's heap slots keep their bytes, a
    /// fault-free reopen recovers the exact pre-checkpoint state, and a
    /// clean checkpoint after it reopens to that state again.
    #[test]
    fn every_fault_in_one_checkpoint_leaves_the_checkpointed_generation_intact() {
        let (image, want) = sweep_fixture();
        let ops = checkpoint_ops(&image);
        let fixture = lay_down(&image, "durable-sweep-gen1");
        let slots = slot_map(fixture.path(), 1);
        let gen1 = image_bytes(fixture.path(), &slots);
        assert!(gen1.len() > 1);
        for op in ops {
            let mut fired = false;
            for fault in [
                DiskFault::TornWrite,
                DiskFault::ShortWrite,
                DiskFault::FsyncFail,
            ] {
                let dir = lay_down(&image, "durable-sweep");
                let mut opts = opts_small();
                opts.faults = Some(DiskFaultPlan::default().with_fault_at(op, fault));
                let mut db = DurableNetworkDb::open(dir.path(), schema(), opts).unwrap();
                match db.checkpoint(b"two") {
                    // The fault is for the other kind of op.
                    Ok(()) => {}
                    Err(e) => {
                        assert!(e.is_injected(), "{fault:?} at op {op}: {e}");
                        fired = true;
                    }
                }
                drop(db);
                assert_eq!(
                    image_bytes(dir.path(), &slots),
                    gen1,
                    "{fault:?} at op {op} overwrote a checkpointed slot"
                );
                let mut db = DurableNetworkDb::open(dir.path(), schema(), opts_small()).unwrap();
                assert_eq!(
                    (db.fingerprint(), db.stat_fingerprint()),
                    want,
                    "{fault:?} at op {op}: reopen drifted"
                );
                db.checkpoint(b"three").unwrap();
                drop(db);
                let db = DurableNetworkDb::open(dir.path(), schema(), opts_small()).unwrap();
                assert_eq!(
                    (db.fingerprint(), db.stat_fingerprint()),
                    want,
                    "{fault:?} at op {op}: clean checkpoint after the fault drifted"
                );
            }
            assert!(fired, "no fault kind fired at op {op}");
        }
    }

    /// A checkpoint whose manifest write lands but whose manifest sync
    /// fails wedges before it retires the old generation; the reopen
    /// retires it, so two clean checkpoints later the directory holds
    /// only the live generation's files.
    #[test]
    fn a_checkpoint_stopped_after_the_flip_leaves_no_stale_generation() {
        let (image, _) = sweep_fixture();
        let last = checkpoint_ops(&image).end - 1;
        let dir = lay_down(&image, "durable-stale-gen");
        let mut opts = opts_small();
        opts.faults = Some(DiskFaultPlan::default().with_fault_at(last, DiskFault::FsyncFail));
        let mut db = DurableNetworkDb::open(dir.path(), schema(), opts).unwrap();
        let err = db.checkpoint(b"two").unwrap_err();
        assert!(err.is_injected(), "{err}");
        drop(db);
        let mut db = DurableNetworkDb::open(dir.path(), schema(), opts_small()).unwrap();
        assert_eq!(db.generation(), 2, "the manifest write landed");
        db.checkpoint(b"three").unwrap();
        db.checkpoint(b"four").unwrap();
        drop(db);
        let mut files: Vec<String> = std::fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        assert_eq!(
            files,
            [MANIFEST, HEAP, &meta_file(4), &wal_file(4)].map(String::from)
        );
    }

    /// A directory written by the previous on-disk format opens to a
    /// typed refusal, never to a database in a wrong state: a generation
    /// whose meta blob has the format-1 magic (and no slot map), and a
    /// directory holding that format's pre-image log.
    #[test]
    fn directories_of_the_previous_format_are_refused() {
        let dir = TempDir::new("durable-format-1").unwrap();
        let mut db = DurableNetworkDb::open(dir.path(), schema(), opts_small()).unwrap();
        seed_commit(&mut db);
        db.checkpoint(b"old").unwrap();
        drop(db);
        let fm = Arc::new(FileMgr::new(dir.path(), opts_small().page_size).unwrap());
        fm.remove(&meta_file(1)).unwrap();
        let mut w = ByteWriter::new();
        w.put_u64(u64::from_le_bytes(*b"DBPCMET1"));
        w.put_u64(schema_fingerprint(&schema()));
        w.put_u64(5);
        w.put_u32(0);
        w.put_bytes(b"old");
        let (mut log, _) = LogMgr::open(Arc::clone(&fm), meta_file(1)).unwrap();
        log.append(&w.into_bytes()).unwrap();
        log.flush().unwrap();
        drop((log, fm));
        let err = DurableNetworkDb::open(dir.path(), schema(), opts_small()).unwrap_err();
        assert!(matches!(err, DiskError::Corrupt(_)), "{err}");

        let dir = TempDir::new("durable-format-1-undo").unwrap();
        let mut db = DurableNetworkDb::open(dir.path(), schema(), opts_small()).unwrap();
        seed_commit(&mut db);
        drop(db);
        std::fs::write(dir.path().join("ckpt.undo"), [0u8; 256]).unwrap();
        let err = DurableNetworkDb::open(dir.path(), schema(), opts_small()).unwrap_err();
        assert!(matches!(err, DiskError::Corrupt(_)), "{err}");
    }

    /// A fresh directory records generation 0 before anything else, so a
    /// first checkpoint torn in the heap still reopens (to generation 0),
    /// while the same heap without a MANIFEST is refused.
    #[test]
    fn torn_first_checkpoint_and_lost_manifest_are_told_apart() {
        let dir = TempDir::new("durable-first-ckpt").unwrap();
        let mut db = DurableNetworkDb::open(dir.path(), schema(), opts_small()).unwrap();
        seed_commit(&mut db);
        let want = db.fingerprint();
        drop(db);
        let mut opts = opts_small();
        opts.faults = Some(DiskFaultPlan::default().with_fault_at(0, DiskFault::TornWrite));
        let mut db = DurableNetworkDb::open(dir.path(), schema(), opts).unwrap();
        assert!(db.checkpoint(b"torn").unwrap_err().is_injected());
        drop(db);
        let db = DurableNetworkDb::open(dir.path(), schema(), opts_small()).unwrap();
        assert_eq!((db.generation(), db.fingerprint()), (0, want));
        drop(db);

        std::fs::remove_file(dir.path().join(MANIFEST)).unwrap();
        let err = DurableNetworkDb::open(dir.path(), schema(), opts_small()).unwrap_err();
        assert!(
            err.to_string().contains("MANIFEST names no checkpoint"),
            "{err}"
        );

        // An empty database checkpointed once, then its MANIFEST lost: no
        // heap page gives it away, its generation-1 files do.
        let dir = TempDir::new("durable-lost-empty").unwrap();
        let mut db = DurableNetworkDb::open(dir.path(), schema(), opts_small()).unwrap();
        db.checkpoint(b"empty").unwrap();
        drop(db);
        std::fs::remove_file(dir.path().join(MANIFEST)).unwrap();
        let err = DurableNetworkDb::open(dir.path(), schema(), opts_small()).unwrap_err();
        assert!(
            err.to_string().contains("MANIFEST names no checkpoint"),
            "{err}"
        );
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
