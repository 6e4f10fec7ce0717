//! The owner-coupled-set storage engine.
//!
//! Implements the operational semantics the paper's §3.1 and §4.2 rely on:
//!
//! * **ordered set occurrences** — members of each set occurrence are kept
//!   sorted by the declared `SET KEYS`, with duplicates rejected ("Duplicates
//!   are not allowed within a set occurrence", §4.2); keyless sets preserve
//!   insertion (chronological) order;
//! * **insertion classes** — storing a record that is an `AUTOMATIC` member
//!   of a set requires a connection at STORE time; `MANUAL` membership is
//!   established later via `CONNECT`;
//! * **retention classes** — a `MANDATORY` member cannot be disconnected,
//!   reproducing the existence-constraint mechanism of §3.1;
//! * **virtual fields** — reads resolve through the owning record
//!   (`VIRTUAL VIA set USING field`), writes are rejected;
//! * **declarative constraints** — the §3.1 catalogue (existence,
//!   characterizing/cascade, cardinality limits, not-null, uniqueness,
//!   domain) is enforced on every mutation, so moving a constraint between
//!   program logic and the schema is observable.

use crate::disk::buffer::SlotMap;
use crate::disk::file::FileMgr;
use crate::disk::heap::{HeapFile, HeapId, HeapStats};
use crate::disk::tempdir::TempDir;
use crate::error::{DbError, DbResult};
use crate::keys::KeyTuple;
use crate::stats::AccessStats;
use crate::txn::{Savepoint, UndoLog};
use dbpc_datamodel::constraint::Constraint;
use dbpc_datamodel::network::{
    Insertion, NetworkSchema, RecordTypeDef, Retention, SetDef, VirtualVia,
};
use dbpc_datamodel::value::Value;
use std::cell::RefCell;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Identifier of a stored record. `RecordId(0)` is the SYSTEM pseudo-owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordId(pub u64);

/// Owner id used for occurrences of system-owned sets.
pub const SYSTEM_OWNER: RecordId = RecordId(0);

/// A stored record occurrence. `values` is parallel to the record type's
/// full field list; virtual-field slots hold `Null` and are resolved on
/// read.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredRecord {
    pub id: RecordId,
    pub rtype: String,
    pub values: Vec<Value>,
}

/// Index identity: (record type, CALC field names) — one index per probe shape.
type CalcIndexKey = (String, Vec<String>);
/// One maintained index: key tuple → ids of matching records, in storage order.
type CalcIndex = BTreeMap<KeyTuple, Vec<u64>>;

/// Storage for one set type: a member table and the per-owner
/// occurrences. Each link is one member-table entry plus one occurrence
/// entry, and a keyed link holds its key once, in the occurrence. A
/// member is unlinked by its key, which the caller recomputes from the
/// row it holds, so CONNECT, DISCONNECT, ERASE and MODIFY repositioning
/// are O(log members) without a second copy of the key.
#[derive(Debug, Clone, Default)]
struct SetStore {
    /// member → (owner, arrival seq).
    links: BTreeMap<u64, (u64, u64)>,
    /// owner → its occurrence; an empty occurrence is dropped.
    occs: BTreeMap<u64, Occurrence>,
    next_seq: u64,
}

/// One set occurrence, in the order §4.2 prescribes.
#[derive(Debug, Clone)]
enum Occurrence {
    /// A keyed set's members by set key: key → (arrival seq, member).
    /// The key alone orders them, because `store`, `connect` and
    /// `modify` refuse a duplicate key within an occurrence.
    Keyed(BTreeMap<KeyTuple, (u64, u64)>),
    /// A keyless set's members in arrival (chronological) order:
    /// seq → member.
    Chrono(BTreeMap<u64, u64>),
}

impl Occurrence {
    fn len(&self) -> usize {
        match self {
            Occurrence::Keyed(m) => m.len(),
            Occurrence::Chrono(m) => m.len(),
        }
    }

    /// `(key, seq, member)` in set order; a keyless link's key is empty.
    fn entries(&self) -> Box<dyn Iterator<Item = (&[Value], u64, u64)> + '_> {
        match self {
            Occurrence::Keyed(m) => Box::new(m.iter().map(|(k, &(s, mem))| (&k.0[..], s, mem))),
            Occurrence::Chrono(m) => Box::new(m.iter().map(|(&s, &mem)| (&[][..], s, mem))),
        }
    }
}

/// Insert `value` at `key` unless `key` is taken; whether it was inserted.
fn insert_new<K: Ord, V>(map: &mut BTreeMap<K, V>, key: K, value: V) -> bool {
    match map.entry(key) {
        Entry::Vacant(slot) => {
            slot.insert(value);
            true
        }
        Entry::Occupied(_) => false,
    }
}

impl SetStore {
    /// Link `member` under `owner` at a fresh arrival sequence. `key` is
    /// its set key, `None` for a keyless set.
    fn link(&mut self, owner: u64, member: u64, key: Option<KeyTuple>) -> bool {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.relink_at(owner, member, seq, key)
    }

    /// File `member` under `owner` at arrival sequence `seq`, which
    /// [`SetStore::link`] draws and the undo and recovery paths restore.
    /// Refuses, changing nothing, when the member is already linked or
    /// the occurrence already holds its key (keyless: its seq), so a link
    /// is never overwritten.
    fn relink_at(&mut self, owner: u64, member: u64, seq: u64, key: Option<KeyTuple>) -> bool {
        let Entry::Vacant(link) = self.links.entry(member) else {
            return false;
        };
        let occ = self.occs.entry(owner).or_insert_with(|| match key {
            Some(_) => Occurrence::Keyed(BTreeMap::new()),
            None => Occurrence::Chrono(BTreeMap::new()),
        });
        let filed = match (occ, key) {
            (Occurrence::Keyed(m), Some(key)) => insert_new(m, key, (seq, member)),
            (Occurrence::Chrono(m), None) => insert_new(m, seq, member),
            _ => false,
        };
        if filed {
            link.insert((owner, seq));
        } else {
            self.drop_if_empty(owner);
        }
        filed
    }

    /// Unlink `member`, whose set key is `key` (`None` for a keyless
    /// set); returns its former `(owner, seq)`.
    fn unlink(&mut self, member: u64, key: Option<&KeyTuple>) -> Option<(u64, u64)> {
        let (owner, seq) = self.links.remove(&member)?;
        match (self.occs.get_mut(&owner), key) {
            (Some(Occurrence::Keyed(m)), Some(key)) if m.get(key) == Some(&(seq, member)) => {
                m.remove(key);
            }
            (Some(Occurrence::Chrono(m)), _) => {
                m.remove(&seq);
            }
            _ => {}
        }
        self.drop_if_empty(owner);
        Some((owner, seq))
    }

    fn drop_if_empty(&mut self, owner: u64) {
        if self.occs.get(&owner).is_some_and(|occ| occ.len() == 0) {
            self.occs.remove(&owner);
        }
    }

    fn members_in_order(&self, owner: u64) -> Vec<u64> {
        match self.occs.get(&owner) {
            Some(Occurrence::Keyed(m)) => m.values().map(|&(_, member)| member).collect(),
            Some(Occurrence::Chrono(m)) => m.values().copied().collect(),
            None => Vec::new(),
        }
    }

    fn occurrence_len(&self, owner: u64) -> usize {
        self.occs.get(&owner).map_or(0, Occurrence::len)
    }

    /// Does the occurrence under `owner` already hold `key`?
    fn contains_key_under(&self, owner: u64, key: &KeyTuple) -> bool {
        matches!(self.occs.get(&owner), Some(Occurrence::Keyed(m)) if m.contains_key(key))
    }
}

/// Physical inverse of one network mutation, journaled while a savepoint
/// is open. Set stores, `by_type` lists, and any materialized calc-key
/// index are maintained through the undo application, so a rollback
/// leaves every derived structure consistent. A set key is never
/// journaled: the undo recomputes it from the member's row, which the
/// later ops, undone first, have already restored.
#[derive(Debug, Clone)]
enum NetUndo {
    /// Undo a STORE: remove the record and its automatic/planned links.
    Store { id: u64 },
    /// Undo a CONNECT.
    Link { set: String, member: u64 },
    /// Undo a DISCONNECT: reinstate the link at its original owner and
    /// arrival sequence.
    Unlink {
        set: String,
        owner: u64,
        member: u64,
        seq: u64,
    },
    /// Undo a MODIFY: restore the previous row image, and move the
    /// record back to its original `(set, owner, seq)` in every set the
    /// modify repositioned.
    Values {
        id: u64,
        values: Vec<Value>,
        moved: PersistedLinks,
    },
    /// Undo one record's removal inside an ERASE cascade: reinstate the
    /// record and every set link it held as a member.
    Erase {
        rec: StoredRecord,
        links: PersistedLinks,
    },
}

/// Per-savepoint metadata: the id allocator plus each set's arrival
/// counter (links drawn during the rolled-back suffix must not leave
/// gaps that would change later chronological ordering).
#[derive(Debug, Clone)]
struct NetMark {
    next_id: u64,
    next_seqs: Vec<(String, u64)>,
}

/// Magic leading every heap record payload; versioned with the codec.
const REC_MAGIC: u8 = 0x52; // 'R'

/// One record's set memberships as persisted in its heap payload:
/// `(set name, owner id, arrival seq)`. The ordering key is re-derived
/// from the record's values and the schema's `SET KEYS` on recovery.
type PersistedLinks = Vec<(String, u64, u64)>;

/// Where the records themselves live.
///
/// `Mem` is the original representation: every [`StoredRecord`] in a
/// `BTreeMap`, bounded by RAM. `Heap` pages records through a slotted
/// [`HeapFile`] under a capped buffer pool, so database size is bounded
/// by disk; all derived structures (set stores, `by_type` lists,
/// calc-key indexes) stay in RAM as indexes over record ids, and the
/// id-indexed [`Directory`] (16 bytes per id) is the one record-store
/// structure that grows with the record count.
enum Backend {
    Mem(BTreeMap<u64, StoredRecord>),
    Heap(Box<HeapBackend>),
}

impl std::fmt::Debug for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::Mem(m) => write!(f, "Mem({} records)", m.len()),
            Backend::Heap(h) => write!(f, "Heap({} records)", h.dir.live),
        }
    }
}

/// Heap-resident record storage (see [`Backend::Heap`]).
struct HeapBackend {
    /// Scratch directory keeping an anonymous paged database alive;
    /// `None` when the heap lives in a caller-owned directory (the
    /// durable engine's).
    scratch: Option<TempDir>,
    fm: Arc<FileMgr>,
    /// Base pool capacity, remembered for `fresh_like` and `clone`.
    pool: usize,
    heap: RefCell<HeapFile>,
    dir: Directory,
    /// Ids whose link bit was set since the last `sync_links`, in the
    /// order it was set. An id may repeat (a rolled-back store's id is
    /// allocated again) or have been rewritten or erased since; the sync
    /// sorts, dedups and skips those, and so does [`HeapBackend::queue`]
    /// whenever the list outgrows twice the live records.
    pending: Vec<u64>,
    /// Encode buffer every payload write reuses.
    buf: Vec<u8>,
}

/// Record ids per [`Directory`] chunk.
const DIR_CHUNK: usize = 1024;

/// The record directory of a paged database, indexed by logical record
/// id. Ids are allocated in ascending order, so it is a dense table, held
/// in chunks of [`DIR_CHUNK`] ids: a chunk whose records have all been
/// erased is freed, so the directory stays proportional to the live
/// records however many ids a workload storing and erasing burns through.
#[derive(Default)]
struct Directory {
    chunks: Vec<Option<Box<DirChunk>>>,
    /// Live entries.
    live: usize,
}

struct DirChunk {
    /// Live entries in this chunk.
    live: usize,
    entries: [Option<DirEntry>; DIR_CHUNK],
}

impl Directory {
    /// Chunk and position of `id`.
    fn split(id: u64) -> Option<(usize, usize)> {
        let id = usize::try_from(id).ok()?;
        Some((id / DIR_CHUNK, id % DIR_CHUNK))
    }

    fn get(&self, id: u64) -> Option<&DirEntry> {
        let (c, i) = Directory::split(id)?;
        self.chunks.get(c)?.as_ref()?.entries[i].as_ref()
    }

    fn get_mut(&mut self, id: u64) -> Option<&mut DirEntry> {
        let (c, i) = Directory::split(id)?;
        self.chunks.get_mut(c)?.as_mut()?.entries[i].as_mut()
    }

    fn insert(&mut self, id: u64, entry: DirEntry) {
        let (c, i) = (id as usize / DIR_CHUNK, id as usize % DIR_CHUNK);
        if self.chunks.len() <= c {
            self.chunks.resize_with(c + 1, || None);
        }
        let chunk = self.chunks[c].get_or_insert_with(|| {
            Box::new(DirChunk {
                live: 0,
                entries: [None; DIR_CHUNK],
            })
        });
        if chunk.entries[i].replace(entry).is_none() {
            chunk.live += 1;
            self.live += 1;
        }
    }

    fn remove(&mut self, id: u64) -> Option<DirEntry> {
        let (c, i) = Directory::split(id)?;
        let slot = self.chunks.get_mut(c)?;
        let chunk = slot.as_mut()?;
        let entry = chunk.entries[i].take()?;
        chunk.live -= 1;
        self.live -= 1;
        if chunk.live == 0 {
            *slot = None;
        }
        Some(entry)
    }

    /// Live record ids, ascending.
    fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        let chunks = self.chunks.iter().enumerate();
        chunks
            .filter_map(|(c, chunk)| Some((c * DIR_CHUNK, chunk.as_ref()?)))
            .flat_map(|(base, chunk)| {
                let entries = chunk.entries.iter().enumerate();
                entries.filter_map(move |(i, e)| e.as_ref().map(|_| (base + i) as u64))
            })
    }
}

/// One record's directory entry in a paged database.
#[derive(Debug, Clone, Copy)]
struct DirEntry {
    /// Where the payload lives.
    hid: HeapId,
    /// The record's type, as an index into the schema's record list —
    /// kept in RAM so type dispatch, `by_type` bookkeeping, single-field
    /// reads and erase paths never fault a page in for it.
    rtype: u32,
    /// The set links changed since the payload was last written (its link
    /// section is refreshed lazily, at checkpoints).
    link_dirty: bool,
}

impl HeapBackend {
    /// Run `f` over the heap, translating disk errors. The `RefCell` is
    /// only held inside this call, so callers may re-enter `NetworkDb`
    /// read APIs afterwards.
    fn with_heap<T>(
        &self,
        f: impl FnOnce(&mut HeapFile) -> crate::disk::DiskResult<T>,
    ) -> DbResult<T> {
        f(&mut self.heap.borrow_mut()).map_err(|e| DbError::constraint(format!("heap: {e}")))
    }

    /// Enter record `id`, stored at `hid`, queueing it for the next link
    /// sync when `link_dirty` says its payload holds stale links.
    fn bind(&mut self, id: u64, hid: HeapId, rtype: u32, link_dirty: bool) {
        let entry = DirEntry {
            hid,
            rtype,
            link_dirty,
        };
        self.dir.insert(id, entry);
        if link_dirty {
            self.queue(id);
        }
    }

    /// Queue `id` for the next link sync. A heap nobody checkpoints never
    /// drains the queue, so once it outgrows twice the live records it is
    /// cut down to the distinct ids still waiting.
    fn queue(&mut self, id: u64) {
        self.pending.push(id);
        if self.pending.len() > 2 * self.dir.live + 64 {
            let dir = &self.dir;
            self.pending.sort_unstable();
            self.pending.dedup();
            self.pending
                .retain(|&id| dir.get(id).is_some_and(|e| e.link_dirty));
        }
    }

    /// Run `decode` over record `id`'s payload where it lies in its pinned
    /// frame (one pin; a spilled payload is assembled first). `None` when
    /// there is no such record.
    fn read<T>(&self, id: u64, decode: impl FnOnce(&[u8]) -> Result<T, String>) -> Option<T> {
        let hid = self.dir.get(id)?.hid;
        let decoded = self
            .with_heap(|h| h.read(hid, |bytes| Ok(decode(bytes))))
            .unwrap_or_else(|e| panic!("heap record #{id} unreadable: {e}"));
        Some(decoded.unwrap_or_else(|e| panic!("heap record #{id} undecodable: {e}")))
    }

    fn fetch(&self, id: u64) -> Option<StoredRecord> {
        self.read(id, |bytes| decode_record(bytes).map(|(rec, _)| rec))
    }

    /// Stored field `idx` of record `id`, without decoding the rest.
    fn value(&self, id: u64, idx: usize) -> Option<Value> {
        self.read(id, |bytes| value_at(bytes, id, idx))
    }

    /// Encode record `id` into the reused buffer and hand it to `write`.
    fn encode<T>(
        &mut self,
        id: u64,
        rtype: &str,
        values: &[Value],
        links: &[(String, u64, u64)],
        write: impl FnOnce(&mut HeapFile, &[u8]) -> crate::disk::DiskResult<T>,
    ) -> DbResult<T> {
        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        let mut w = crate::disk::codec::ByteWriter::over(buf);
        encode_record(&mut w, id, rtype, values, links);
        let buf = w.into_bytes();
        let out = self.with_heap(|heap| write(heap, &buf));
        self.buf = buf;
        out
    }

    /// Current physical statistics of the heap file.
    fn stats(&self) -> HeapStats {
        self.heap.borrow().stats()
    }
}

/// Serialize one record (plus its set memberships) into a heap payload:
/// `[magic][id][rtype][values][links]`, all little-endian via the disk
/// codec. The ordering key inside each set is *not* persisted — it is a
/// function of the values and the schema's `SET KEYS`, re-derived on
/// recovery — but the arrival sequence is, because it is allocator state.
fn encode_record(
    w: &mut crate::disk::codec::ByteWriter,
    id: u64,
    rtype: &str,
    values: &[Value],
    links: &[(String, u64, u64)],
) {
    w.put_u8(REC_MAGIC);
    w.put_u64(id);
    w.put_str(rtype);
    w.put_u32(values.len() as u32);
    for v in values {
        w.put_value(v);
    }
    w.put_u32(links.len() as u32);
    for (set, owner, seq) in links {
        w.put_str(set);
        w.put_u64(*owner);
        w.put_u64(*seq);
    }
}

/// Inverse of [`encode_record`]; total (typed errors, no panics) because
/// recovery feeds it bytes a crash may have damaged.
fn decode_record(bytes: &[u8]) -> Result<(StoredRecord, PersistedLinks), String> {
    use crate::disk::codec::{capacity, ByteReader};
    fn ctx<T>(r: Result<T, crate::disk::codec::CodecError>) -> Result<T, String> {
        r.map_err(|e| e.to_string())
    }
    let mut r = ByteReader::new(bytes);
    let magic = ctx(r.get_u8("record magic"))?;
    if magic != REC_MAGIC {
        return Err(format!("bad record magic 0x{magic:02X}"));
    }
    let id = ctx(r.get_u64("record id"))?;
    let rtype = ctx(r.get_str("record type"))?;
    let n_values = ctx(r.get_u32("value count"))?;
    let mut values = Vec::with_capacity(capacity(n_values, &r));
    for _ in 0..n_values {
        values.push(ctx(r.get_value("field value"))?);
    }
    let n_links = ctx(r.get_u32("link count"))?;
    let mut links = Vec::with_capacity(capacity(n_links, &r));
    for _ in 0..n_links {
        let set = ctx(r.get_str("link set"))?;
        let owner = ctx(r.get_u64("link owner"))?;
        let seq = ctx(r.get_u64("link seq"))?;
        links.push((set, owner, seq));
    }
    if !r.is_empty() {
        return Err(format!("{} trailing bytes", r.remaining()));
    }
    Ok((
        StoredRecord {
            id: RecordId(id),
            rtype,
            values,
        },
        links,
    ))
}

/// Stored field `idx` of the payload of record `id`, read by stepping over
/// the fields before it instead of decoding them. On the way it checks
/// what [`decode_record`] would: the magic, that the payload is record
/// `id`'s, the value count, and every skipped value's tag.
fn value_at(bytes: &[u8], id: u64, idx: usize) -> Result<Value, String> {
    use crate::disk::codec::ByteReader;
    fn ctx<T>(r: Result<T, crate::disk::codec::CodecError>) -> Result<T, String> {
        r.map_err(|e| e.to_string())
    }
    let mut r = ByteReader::new(bytes);
    let magic = ctx(r.get_u8("record magic"))?;
    if magic != REC_MAGIC {
        return Err(format!("bad record magic 0x{magic:02X}"));
    }
    let stored = ctx(r.get_u64("record id"))?;
    if stored != id {
        return Err(format!("payload holds record #{stored}"));
    }
    ctx(r.get_bytes("record type"))?;
    let n_values = ctx(r.get_u32("value count"))?;
    if idx >= n_values as usize {
        return Err(format!("field {idx} of a record with {n_values} values"));
    }
    for _ in 0..idx {
        ctx(r.skip_value("field value"))?;
    }
    ctx(r.get_value("field value"))
}

/// Index of record type `rtype` in `schema`'s record list: the type id a
/// paged directory entry holds.
fn type_index(schema: &NetworkSchema, rtype: &str) -> Option<u32> {
    let i = schema.records.iter().position(|rt| rt.name == rtype)?;
    u32::try_from(i).ok()
}

/// A record's current set memberships `(set, owner, arrival seq)`, read
/// from the RAM set stores — the persisted form of its links.
fn persisted_links_of(sets: &BTreeMap<String, SetStore>, id: u64) -> PersistedLinks {
    sets.iter()
        .filter_map(|(name, st)| {
            let &(owner, seq) = st.links.get(&id)?;
            Some((name.clone(), owner, seq))
        })
        .collect()
}

/// An owner-coupled-set database instance.
#[derive(Debug)]
pub struct NetworkDb {
    /// Shared with every copy of the database, and borrowed (never
    /// cloned) by each mutation.
    schema: Arc<NetworkSchema>,
    records: Backend,
    sets: BTreeMap<String, SetStore>,
    /// Record ids per record type, ascending (= creation order).
    by_type: BTreeMap<String, Vec<u64>>,
    /// Lazily-built calc-key indexes: (record type, stored-field list) →
    /// key tuple → ids in creation order. Built on the first keyed FIND
    /// over that field list, maintained through every later mutation.
    calc_indexes: RefCell<BTreeMap<CalcIndexKey, CalcIndex>>,
    next_id: u64,
    stats: AccessStats,
    /// Undo journal (see [`crate::txn`]).
    journal: UndoLog<NetUndo, NetMark>,
}

impl Clone for NetworkDb {
    /// Mem databases clone structurally. Heap databases clone
    /// *physically*, into a fresh scratch heap through the shared copy
    /// routine, preserving every logical id (and therefore the
    /// fingerprint). Panics on disk errors — `Clone` has no error
    /// channel, and a failing scratch volume is not a recoverable
    /// condition here.
    fn clone(&self) -> NetworkDb {
        match &self.records {
            Backend::Mem(m) => NetworkDb {
                schema: Arc::clone(&self.schema),
                records: Backend::Mem(m.clone()),
                sets: self.sets.clone(),
                by_type: self.by_type.clone(),
                calc_indexes: self.calc_indexes.clone(),
                next_id: self.next_id,
                stats: self.stats.clone(),
                journal: self.journal.clone(),
            },
            Backend::Heap(h) => {
                let mut copy = HeapBackend::scratch(h.fm.page_size(), h.pool)
                    .and_then(|hb| self.copy_into_heap(hb))
                    .unwrap_or_else(|e| panic!("cloning paged db: {e}"));
                copy.calc_indexes = self.calc_indexes.clone();
                copy.stats = self.stats.clone();
                copy.journal = self.journal.clone();
                copy
            }
        }
    }
}

impl HeapBackend {
    /// A heap backend over its own self-cleaning scratch directory.
    fn scratch(page_size: usize, pool: usize) -> DbResult<HeapBackend> {
        let dir = TempDir::new("paged-netdb")
            .map_err(|e| DbError::constraint(format!("heap scratch: {e}")))?;
        let fm = Arc::new(
            FileMgr::new(dir.path(), page_size)
                .map_err(|e| DbError::constraint(format!("heap scratch: {e}")))?,
        );
        let mut hb = HeapBackend::on(fm, "heap.dat", pool, SlotMap::default())?;
        hb.scratch = Some(dir);
        Ok(hb)
    }

    /// A heap backend over a caller-owned file manager: the pages of
    /// `file` that `slots` places (see [`HeapFile::open`]).
    fn on(fm: Arc<FileMgr>, file: &str, pool: usize, slots: SlotMap) -> DbResult<HeapBackend> {
        let heap = HeapFile::open(Arc::clone(&fm), file, pool, slots)
            .map_err(|e| DbError::constraint(format!("heap open: {e}")))?;
        Ok(HeapBackend {
            scratch: None,
            fm,
            pool,
            heap: RefCell::new(heap),
            dir: Directory::default(),
            pending: Vec::new(),
            buf: Vec::new(),
        })
    }
}

impl NetworkDb {
    /// Create an empty database for a (validated) schema.
    pub fn new(schema: NetworkSchema) -> DbResult<NetworkDb> {
        NetworkDb::with_backend(schema, Backend::Mem(BTreeMap::new()))
    }

    /// Create an empty **paged** database: records live in a slotted heap
    /// file under a buffer pool of `pool` frames of `page_size` bytes, in
    /// a self-cleaning scratch directory. Database size is bounded by
    /// disk; RAM holds the pool plus O(records) index entries.
    pub fn new_paged(schema: NetworkSchema, page_size: usize, pool: usize) -> DbResult<NetworkDb> {
        let hb = HeapBackend::scratch(page_size, pool)?;
        NetworkDb::with_backend(schema, Backend::Heap(Box::new(hb)))
    }

    /// Reopen a paged database from an existing heap file: scan every
    /// live payload, rebuild the id directory, `by_type` lists, and all
    /// set stores from the persisted `(set, owner, seq)` links (ordering
    /// keys re-derived from values + schema keys). The caller supplies
    /// the allocator state the scan cannot know — `next_id` and each
    /// set's arrival counter — from its own durable metadata, and the
    /// [`SlotMap`] placing the heap's pages in the file. Over an empty map
    /// (with `next_id` 1 and no counters) this opens an empty database
    /// whose heap lives in a caller-owned [`FileMgr`].
    pub fn recover_paged(
        schema: NetworkSchema,
        fm: Arc<FileMgr>,
        file: &str,
        pool: usize,
        next_id: u64,
        next_seqs: &[(String, u64)],
        slots: SlotMap,
    ) -> DbResult<NetworkDb> {
        let hb = HeapBackend::on(fm, file, pool, slots)?;
        let mut db = NetworkDb::with_backend(schema, Backend::Heap(Box::new(hb)))?;
        // Collect (id → payload parts) in one heap pass, ascending
        // physical order; then rebuild RAM structures in id order.
        let mut decoded: BTreeMap<u64, (StoredRecord, PersistedLinks, HeapId)> = BTreeMap::new();
        {
            let Backend::Heap(h) = &db.records else {
                return Err(DbError::constraint("recover_paged: not a heap backend"));
            };
            h.with_heap(|heap| {
                heap.for_each(&mut |hid, bytes| {
                    let (rec, links) = decode_record(&bytes).map_err(|e| {
                        crate::disk::DiskError::Corrupt(format!("heap record at {hid}: {e}"))
                    })?;
                    decoded.insert(rec.id.0, (rec, links, hid));
                    Ok(())
                })
            })?;
        }
        for (id, (rec, links, hid)) in decoded {
            // Ids are disk bytes, and the directory is indexed by them.
            if id == 0 || id >= next_id {
                return Err(DbError::constraint(format!(
                    "heap recovery: record #{id} outside the allocated ids 1..{next_id}"
                )));
            }
            let t = type_index(&db.schema, &rec.rtype)
                .ok_or_else(|| DbError::unknown("record", &rec.rtype))?;
            let Backend::Heap(h) = &mut db.records else {
                return Err(DbError::constraint("recover_paged: not a heap backend"));
            };
            h.bind(id, hid, t, false);
            db.by_type.entry(rec.rtype.clone()).or_default().push(id);
            let rt = &db.schema.records[t as usize];
            for (set_name, owner, seq) in links {
                let set = db
                    .schema
                    .set(&set_name)
                    .ok_or_else(|| DbError::unknown("set", &set_name))?;
                let key = set_key(set, rt, &rec.values);
                let store = db
                    .sets
                    .get_mut(&set_name)
                    .ok_or_else(|| DbError::unknown("set", &set_name))?;
                if !store.relink_at(owner, id, seq, key) {
                    return Err(refused_link(&set_name, owner, id));
                }
            }
        }
        db.next_id = next_id;
        for (name, seq) in next_seqs {
            if let Some(st) = db.sets.get_mut(name) {
                st.next_seq = *seq;
            }
        }
        db.check_access_structures()
            .map_err(|e| DbError::constraint(format!("heap recovery: {e}")))?;
        Ok(db)
    }

    fn with_backend(schema: NetworkSchema, records: Backend) -> DbResult<NetworkDb> {
        schema
            .validate()
            .map_err(|e| DbError::constraint(e.to_string()))?;
        let sets = schema
            .sets
            .iter()
            .map(|s| (s.name.clone(), SetStore::default()))
            .collect();
        Ok(NetworkDb {
            schema: Arc::new(schema),
            records,
            sets,
            by_type: BTreeMap::new(),
            calc_indexes: RefCell::new(BTreeMap::new()),
            next_id: 1,
            stats: AccessStats::default(),
            journal: UndoLog::default(),
        })
    }

    /// An empty database under `schema` on the **same backend kind** as
    /// `self` (and, for paged databases, the same page size and pool):
    /// translation outputs inherit their source's storage discipline, so
    /// an out-of-core source translates into an out-of-core target.
    pub fn fresh_like(&self, schema: NetworkSchema) -> DbResult<NetworkDb> {
        match &self.records {
            Backend::Mem(_) => NetworkDb::new(schema),
            Backend::Heap(h) => NetworkDb::new_paged(schema, h.fm.page_size(), h.pool),
        }
    }

    /// Whether records are paged through a heap file (vs RAM-resident).
    pub fn is_paged(&self) -> bool {
        matches!(self.records, Backend::Heap(_))
    }

    /// Physical heap statistics (`None` for in-memory databases).
    pub fn heap_stats(&self) -> Option<HeapStats> {
        match &self.records {
            Backend::Mem(_) => None,
            Backend::Heap(h) => Some(h.stats()),
        }
    }

    /// Publish `heap.*` physical gauges (and nothing for Mem databases)
    /// into the ambient metrics sheet for RunReport assembly.
    pub fn publish_heap_gauges(&self) {
        if let Some(st) = self.heap_stats() {
            dbpc_obs::gauge("heap.pages", st.pages as i64);
            dbpc_obs::gauge("heap.records", st.records as i64);
            dbpc_obs::gauge("heap.fill_pct", st.fill_pct as i64);
        }
    }

    // -- backend accessors -------------------------------------------------

    /// Run `f` over the record, if it exists. Clone-free in Mem mode; in
    /// Heap mode the payload is decoded first and the heap borrow is
    /// released before `f` runs, so `f` may re-enter read APIs.
    fn with_rec<T>(&self, id: u64, f: impl FnOnce(&StoredRecord) -> T) -> Option<T> {
        match &self.records {
            Backend::Mem(m) => m.get(&id).map(f),
            Backend::Heap(h) => h.fetch(id).as_ref().map(f),
        }
    }

    /// Visit every record in ascending-id (= creation) order.
    fn for_each_rec(&self, f: &mut dyn FnMut(&StoredRecord)) {
        match &self.records {
            Backend::Mem(m) => {
                for rec in m.values() {
                    f(rec);
                }
            }
            Backend::Heap(h) => {
                for id in h.dir.ids() {
                    if let Some(rec) = h.fetch(id) {
                        f(&rec);
                    }
                }
            }
        }
    }

    fn backend_contains(&self, id: u64) -> bool {
        match &self.records {
            Backend::Mem(m) => m.contains_key(&id),
            Backend::Heap(h) => h.dir.get(id).is_some(),
        }
    }

    /// A record's type, read from RAM (the Mem map, or the heap's
    /// directory), so type and existence checks never fetch a record.
    fn rtype_of(&self, id: RecordId) -> DbResult<&str> {
        match &self.records {
            Backend::Mem(m) => m.get(&id.0).map(|rec| rec.rtype.as_str()),
            Backend::Heap(h) => h
                .dir
                .get(id.0)
                .and_then(|e| self.schema.records.get(e.rtype as usize))
                .map(|rt| rt.name.as_str()),
        }
        .ok_or_else(|| DbError::NotFound(format!("record #{}", id.0)))
    }

    /// Insert freshly created record `id` of type `rtype` (store /
    /// undo-of-erase). A heap payload is encoded straight from `values`.
    fn backend_insert(&mut self, id: u64, rtype: &str, values: &[Value]) {
        match &mut self.records {
            Backend::Mem(m) => {
                let rec = StoredRecord {
                    id: RecordId(id),
                    rtype: rtype.to_string(),
                    values: values.to_vec(),
                };
                m.insert(id, rec);
            }
            Backend::Heap(h) => {
                let placed = type_index(&self.schema, rtype)
                    .ok_or_else(|| format!("unknown record type {rtype}"))
                    .and_then(|t| {
                        let hid = h.encode(id, rtype, values, &[], |heap, b| heap.insert(b));
                        hid.map(|hid| (hid, t)).map_err(|e| e.to_string())
                    });
                let (hid, t) = placed.unwrap_or_else(|e| panic!("heap insert #{id}: {e}"));
                h.bind(id, hid, t, true);
            }
        }
    }

    /// Remove a record (erase / undo-of-store), returning it.
    fn backend_remove(&mut self, id: u64) -> Option<StoredRecord> {
        match &mut self.records {
            Backend::Mem(m) => m.remove(&id),
            Backend::Heap(h) => {
                let rec = h.fetch(id)?;
                let hid = h.dir.remove(id)?.hid;
                h.with_heap(|heap| heap.erase(hid))
                    .unwrap_or_else(|e| panic!("heap erase #{id}: {e}"));
                Some(rec)
            }
        }
    }

    /// Overwrite the values of record `id`, of type `rtype` (modify /
    /// undo-of-modify). The caller already holds the record, so nothing
    /// is fetched here. Returns false if the record does not exist.
    fn backend_set_values(&mut self, id: u64, rtype: &str, values: &[Value]) -> bool {
        match &mut self.records {
            Backend::Mem(m) => match m.get_mut(&id) {
                Some(rec) => {
                    rec.values = values.to_vec();
                    true
                }
                None => false,
            },
            Backend::Heap(h) => {
                let Some(hid) = h.dir.get(id).map(|e| e.hid) else {
                    return false;
                };
                // Values rewrite resyncs the link section too (it is
                // being re-encoded anyway), so clear the dirty bit.
                let links = persisted_links_of(&self.sets, id);
                let new_hid = h
                    .encode(id, rtype, values, &links, |heap, b| heap.update(hid, b))
                    .unwrap_or_else(|e| panic!("heap update #{id}: {e}"));
                if let Some(e) = h.dir.get_mut(id) {
                    e.hid = new_hid;
                    e.link_dirty = false;
                }
                true
            }
        }
    }

    /// Record that `id`'s set links changed; its heap payload is
    /// refreshed lazily by [`NetworkDb::sync_links`]. No-op in Mem mode.
    fn touch_links(&mut self, id: u64) {
        if let Backend::Heap(h) = &mut self.records {
            if let Some(e) = h.dir.get_mut(id).filter(|e| !e.link_dirty) {
                e.link_dirty = true;
                h.queue(id);
            }
        }
    }

    /// Rewrite the heap payload of every record whose set links changed
    /// since the last sync, bringing persisted links in line with the
    /// RAM set stores. Called by checkpoints before flushing pages; a
    /// no-op for Mem databases and when nothing changed.
    pub fn sync_links(&mut self) -> DbResult<()> {
        let Backend::Heap(h) = &mut self.records else {
            return Ok(());
        };
        let mut pending = std::mem::take(&mut h.pending);
        pending.sort_unstable();
        pending.dedup();
        for (i, &id) in pending.iter().enumerate() {
            let Some(hid) = h.dir.get(id).filter(|e| e.link_dirty).map(|e| e.hid) else {
                continue;
            };
            let Some(rec) = h.fetch(id) else {
                continue;
            };
            let links = persisted_links_of(&self.sets, id);
            let update = |heap: &mut HeapFile, b: &[u8]| heap.update(hid, b);
            let new_hid = match h.encode(id, &rec.rtype, &rec.values, &links, update) {
                Ok(new_hid) => new_hid,
                Err(e) => {
                    // What is not yet synced stays pending for the next
                    // sync.
                    h.pending = pending.split_off(i);
                    return Err(DbError::constraint(format!("link sync #{id}: {e}")));
                }
            };
            if let Some(e) = h.dir.get_mut(id) {
                e.hid = new_hid;
                e.link_dirty = false;
            }
        }
        Ok(())
    }

    /// Flush every dirty heap page to disk and return the map that reads
    /// the flushed heap back through [`NetworkDb::recover_paged`] (a no-op
    /// returning an empty map for Mem). Does not fsync — the caller owns
    /// the sync boundary.
    pub fn flush_heap(&mut self) -> DbResult<SlotMap> {
        match &mut self.records {
            Backend::Mem(_) => Ok(SlotMap::default()),
            Backend::Heap(h) => h.with_heap(|heap| {
                heap.flush()?;
                Ok(heap.buffer().next_slot_map())
            }),
        }
    }

    /// Mutable access to the heap's buffer pool (durable checkpoint
    /// protocol: no-steal policy, dirty-block enumeration, trim).
    pub(crate) fn heap_buffer(&mut self) -> Option<&mut crate::disk::BufferMgr> {
        match &mut self.records {
            Backend::Mem(_) => None,
            Backend::Heap(h) => Some(h.heap.get_mut().buffer()),
        }
    }

    /// Allocator state a physical scan cannot reconstruct: the next
    /// record id and every set's arrival-sequence counter. The durable
    /// engine persists this beside the heap at each checkpoint and hands
    /// it back to [`NetworkDb::recover_paged`].
    pub fn allocator_state(&self) -> (u64, Vec<(String, u64)>) {
        (
            self.next_id,
            self.sets
                .iter()
                .map(|(name, st)| (name.clone(), st.next_seq))
                .collect(),
        )
    }

    /// Open a savepoint. Until it is rolled back or committed, every
    /// mutation journals its inverse. Savepoints nest.
    pub fn begin_savepoint(&mut self) -> Savepoint {
        self.journal.begin(NetMark {
            next_id: self.next_id,
            next_seqs: self
                .sets
                .iter()
                .map(|(name, st)| (name.clone(), st.next_seq))
                .collect(),
        })
    }

    /// Restore the database to its state at `begin_savepoint`: records,
    /// every set occurrence (including member order and arrival
    /// sequences), `by_type` lists, materialized calc-key indexes, and
    /// the id allocator. Savepoints opened after `sp` are discarded; a
    /// stale handle is a no-op.
    pub fn rollback_to(&mut self, sp: Savepoint) {
        if let Some((ops, mark)) = self.journal.rollback(sp) {
            for op in ops {
                self.apply_undo(op);
            }
            self.next_id = mark.next_id;
            for (name, seq) in mark.next_seqs {
                if let Some(st) = self.sets.get_mut(&name) {
                    st.next_seq = seq;
                }
            }
        }
    }

    /// Keep everything done since `sp` and close it (plus any savepoint
    /// nested inside it). A stale handle is a no-op.
    pub fn commit(&mut self, sp: Savepoint) {
        self.journal.commit(sp);
    }

    fn apply_undo(&mut self, op: NetUndo) {
        let schema = Arc::clone(&self.schema);
        match op {
            NetUndo::Store { id } => {
                // Mirror of `erase_inner`'s teardown: any link made *after*
                // the store was journaled separately and is already undone
                // (LIFO), so what remains are the store-time connections.
                if let Some(rec) = self.backend_remove(id) {
                    self.unlink_member(&rec);
                    if let Some(ids) = self.by_type.get_mut(&rec.rtype) {
                        if let Ok(pos) = ids.binary_search(&id) {
                            ids.remove(pos);
                        }
                    }
                    self.index_remove(&rec.rtype, &rec.values, id);
                }
            }
            NetUndo::Link { set, member } => {
                let key = schema
                    .set(&set)
                    .and_then(|s| self.member_set_key(s, member));
                if let Some(store) = self.sets.get_mut(&set) {
                    store.unlink(member, key.as_ref());
                }
                self.touch_links(member);
            }
            NetUndo::Unlink {
                set,
                owner,
                member,
                seq,
            } => {
                let key = schema
                    .set(&set)
                    .and_then(|s| self.member_set_key(s, member));
                if let Some(store) = self.sets.get_mut(&set) {
                    let linked = store.relink_at(owner, member, seq, key);
                    debug_assert!(linked, "undo of a disconnect refused in {set}");
                }
                self.touch_links(member);
            }
            NetUndo::Values { id, values, moved } => {
                let Some((rtype, current)) =
                    self.with_rec(id, |r| (r.rtype.clone(), r.values.clone()))
                else {
                    return;
                };
                // Move the links back first, so the row rewrite below
                // persists them as they were before the modify.
                let rt = schema.record(&rtype);
                for (set, owner, seq) in moved {
                    let (Some(def), Some(rt)) = (schema.set(&set), rt) else {
                        continue;
                    };
                    if let Some(store) = self.sets.get_mut(&set) {
                        store.unlink(id, set_key(def, rt, &current).as_ref());
                        let linked = store.relink_at(owner, id, seq, set_key(def, rt, &values));
                        debug_assert!(linked, "undo of a reposition refused in {set}");
                    }
                    self.touch_links(id);
                }
                self.backend_set_values(id, &rtype, &values);
                self.index_update(&rtype, &current, &values, id);
            }
            NetUndo::Erase { rec, links } => {
                let id = rec.id.0;
                let ids = self.by_type.entry(rec.rtype.clone()).or_default();
                let pos = ids.partition_point(|&m| m < id);
                ids.insert(pos, id);
                self.index_add(&rec.rtype, &rec.values, id);
                self.backend_insert(id, &rec.rtype, &rec.values);
                let rt = schema.record(&rec.rtype);
                for (set, owner, seq) in links {
                    let key = schema
                        .set(&set)
                        .zip(rt)
                        .and_then(|(def, rt)| set_key(def, rt, &rec.values));
                    if let Some(store) = self.sets.get_mut(&set) {
                        let linked = store.relink_at(owner, id, seq, key);
                        debug_assert!(linked, "undo of an erase refused in {set}");
                    }
                }
            }
        }
    }

    /// Deterministic digest of the full logical state: records, every
    /// set's link structure (owners, member order, arrival sequences and
    /// counter), and the id allocator. Derived structures (`by_type`
    /// lists, calc-key indexes) are excluded — they are a function of the
    /// records, verified by [`NetworkDb::check_access_structures`].
    pub fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.next_id.hash(&mut h);
        self.record_count().hash(&mut h);
        self.for_each_rec(&mut |rec| {
            rec.id.0.hash(&mut h);
            rec.rtype.hash(&mut h);
            rec.values.hash(&mut h);
        });
        for (name, store) in &self.sets {
            name.hash(&mut h);
            store.next_seq.hash(&mut h);
            store.occs.len().hash(&mut h);
            for (owner, occ) in &store.occs {
                owner.hash(&mut h);
                for (key, seq, member) in occ.entries() {
                    key.hash(&mut h);
                    seq.hash(&mut h);
                    member.hash(&mut h);
                }
            }
        }
        h.finish()
    }

    /// Copy this database into a **paged** twin over a self-cleaning
    /// scratch heap file: same schema, same records, same allocator
    /// state; `fingerprint()` equal by construction. The twin's working
    /// set is bounded by `pool` frames of `page_size` bytes regardless
    /// of how large the source is.
    pub fn to_paged(&self, page_size: usize, pool: usize) -> DbResult<NetworkDb> {
        self.copy_into_heap(HeapBackend::scratch(page_size, pool)?)
    }

    /// [`NetworkDb::to_paged`], but into a caller-owned file of two slots
    /// per page, read and written through `slots`, a map with no pages
    /// ([`SlotMap::cleared`]). The durable engine's import copies through
    /// this, so the copy lands in blocks the checkpointed generation does
    /// not use.
    pub(crate) fn to_paged_at(
        &self,
        fm: Arc<FileMgr>,
        file: &str,
        pool: usize,
        slots: SlotMap,
    ) -> DbResult<NetworkDb> {
        self.copy_into_heap(HeapBackend::on(fm, file, pool, slots)?)
    }

    /// The one routine that copies a database into a heap ([`Clone`] of
    /// a paged database, [`NetworkDb::to_paged`], the durable import).
    /// Each record is written once, in ascending id order, with its
    /// current set links encoded, so the copy needs no
    /// [`NetworkDb::sync_links`]; the set stores, `by_type` lists and id
    /// allocator carry over as they are, and the copy must pass
    /// [`NetworkDb::check_access_structures`]. Calc-key indexes start
    /// empty and rebuild lazily.
    fn copy_into_heap(&self, mut hb: HeapBackend) -> DbResult<NetworkDb> {
        let ids: Vec<u64> = match &self.records {
            Backend::Mem(m) => m.keys().copied().collect(),
            Backend::Heap(h) => h.dir.ids().collect(),
        };
        for id in ids {
            let Some(placed) = self.with_rec(id, |rec| {
                let rtype = type_index(&self.schema, &rec.rtype).ok_or_else(|| {
                    DbError::constraint(format!(
                        "heap copy: record #{id} has a type outside the schema"
                    ))
                })?;
                let links = persisted_links_of(&self.sets, id);
                let insert = |heap: &mut HeapFile, b: &[u8]| heap.insert(b);
                let hid = hb.encode(id, &rec.rtype, &rec.values, &links, insert)?;
                Ok::<_, DbError>((hid, rtype))
            }) else {
                continue;
            };
            let (hid, rtype) = placed?;
            hb.bind(id, hid, rtype, false);
        }
        let copy = NetworkDb {
            schema: Arc::clone(&self.schema),
            records: Backend::Heap(Box::new(hb)),
            sets: self.sets.clone(),
            by_type: self.by_type.clone(),
            calc_indexes: RefCell::new(BTreeMap::new()),
            next_id: self.next_id,
            stats: AccessStats::default(),
            journal: UndoLog::default(),
        };
        copy.check_access_structures()
            .map_err(|e| DbError::constraint(format!("heap copy: {e}")))?;
        Ok(copy)
    }

    pub fn schema(&self) -> &NetworkSchema {
        &self.schema
    }

    /// Access-path counters (records visited, calc-key probes).
    pub fn access_stats(&self) -> &AccessStats {
        &self.stats
    }

    pub fn record_count(&self) -> usize {
        match &self.records {
            Backend::Mem(m) => m.len(),
            Backend::Heap(h) => h.dir.live,
        }
    }

    /// Fetch a record. Returned by value: a paged backend materializes
    /// the record from its heap page (which may fault the page in), so
    /// there is no reference into the store to hold across evictions.
    pub fn get(&self, id: RecordId) -> DbResult<StoredRecord> {
        match &self.records {
            Backend::Mem(m) => m.get(&id.0).cloned(),
            Backend::Heap(h) => h.fetch(id.0),
        }
        .ok_or_else(|| DbError::NotFound(format!("record #{}", id.0)))
    }

    /// All record ids of a type, in creation order (deterministic).
    pub fn records_of_type(&self, rtype: &str) -> Vec<RecordId> {
        let ids = self
            .by_type
            .get(rtype)
            .map(Vec::as_slice)
            .unwrap_or_default();
        self.stats.scanned(ids.len() as u64);
        ids.iter().map(|&i| RecordId(i)).collect()
    }

    /// Records of `rtype` whose stored fields `fields` equal `key`, via the
    /// calc-key index (built lazily on first use, maintained thereafter).
    /// Results come back in creation order — identical to filtering
    /// [`records_of_type`](Self::records_of_type) — so a converted program
    /// using keyed FIND observes the same sequence as a scanning one.
    /// Returns `Ok(None)` when the field list is not indexable (unknown or
    /// `VIRTUAL` fields: virtuals resolve through the owner and change on
    /// CONNECT/DISCONNECT without the record itself being touched); the
    /// caller falls back to a scan.
    pub fn find_keyed(
        &self,
        rtype: &str,
        fields: &[&str],
        key: &[Value],
    ) -> DbResult<Option<Vec<RecordId>>> {
        if fields.len() != key.len() {
            return Ok(None);
        }
        self.with_calc_index(rtype, fields, |index| {
            let hit = index.get(&KeyTuple(key.to_vec()));
            self.stats.probed(hit.is_some());
            hit.map(|v| v.iter().map(|&i| RecordId(i)).collect())
                .unwrap_or_default()
        })
    }

    /// Run `f` over the calc-key index of `rtype` on `fields`, building it
    /// from the store on first use. `Ok(None)` when the field list is not
    /// indexable: empty, or naming an unknown or `VIRTUAL` field. Counts
    /// no access; the caller decides whether its use is a probe.
    fn with_calc_index<T>(
        &self,
        rtype: &str,
        fields: &[&str],
        f: impl FnOnce(&CalcIndex) -> T,
    ) -> DbResult<Option<T>> {
        if fields.is_empty() {
            return Ok(None);
        }
        let rt = self.record_type(rtype)?;
        let mut idxs = Vec::with_capacity(fields.len());
        for field in fields {
            match rt.field_index(field) {
                Some(i) if !rt.fields[i].is_virtual() => idxs.push(i),
                _ => return Ok(None),
            }
        }
        let index_key = (
            rtype.to_string(),
            fields.iter().map(|f| f.to_string()).collect::<Vec<_>>(),
        );
        let mut indexes = self.calc_indexes.borrow_mut();
        if let Some(index) = indexes.get(&index_key) {
            return Ok(Some(f(index)));
        }
        let mut map = CalcIndex::new();
        for &id in self
            .by_type
            .get(rtype)
            .map(Vec::as_slice)
            .unwrap_or_default()
        {
            let k = self
                .with_rec(id, |rec| {
                    KeyTuple(idxs.iter().map(|&i| rec.values[i].clone()).collect())
                })
                .ok_or_else(|| {
                    DbError::NotFound(format!(
                        "record #{id}: listed under type {rtype} but missing from the store"
                    ))
                })?;
            map.entry(k).or_default().push(id);
        }
        Ok(Some(f(indexes.entry(index_key).or_insert(map))))
    }

    /// Current record count of a type. Non-counting: a statistics read,
    /// not a data access.
    pub fn type_cardinality(&self, rtype: &str) -> u64 {
        self.by_type.get(rtype).map_or(0, |ids| ids.len() as u64)
    }

    /// Statistics twin of [`NetworkDb::find_keyed`]: is this field list
    /// calc-indexable, and with how many distinct key tuples? Builds the
    /// lazy index exactly as a keyed FIND would (so the answer reflects
    /// live state) but **never counts a probe** — the planner consults
    /// this before deciding probe vs scan. `Ok(None)` mirrors
    /// `find_keyed`'s not-indexable cases (unknown or `VIRTUAL` fields).
    pub fn keyed_distinct(&self, rtype: &str, fields: &[&str]) -> DbResult<Option<u64>> {
        self.with_calc_index(rtype, fields, |index| index.len() as u64)
    }

    /// `(occurrences with members, total member links)` of a set — the
    /// planner's fan-out statistic. Non-counting.
    pub fn set_fanout(&self, set: &str) -> DbResult<(u64, u64)> {
        let store = self.set_store(set)?;
        Ok((store.occs.len() as u64, store.links.len() as u64))
    }

    /// Members of a set occurrence, in set-key order.
    pub fn members_of(&self, set: &str, owner: RecordId) -> DbResult<Vec<RecordId>> {
        let store = self.set_store(set)?;
        let ids = store.members_in_order(owner.0);
        self.stats.scanned(ids.len() as u64);
        Ok(ids.into_iter().map(RecordId).collect())
    }

    /// The owner of `member` in `set`, if connected.
    pub fn owner_in(&self, set: &str, member: RecordId) -> DbResult<Option<RecordId>> {
        let store = self.set_store(set)?;
        Ok(store
            .links
            .get(&member.0)
            .map(|&(owner, _)| RecordId(owner)))
    }

    /// Read a field, resolving virtual fields through the owner. A virtual
    /// field of a disconnected member reads as `Null` (the "null instructor"
    /// device of §3.1).
    ///
    /// A paged record's type comes from the directory, and a stored field
    /// is read out of the record's pinned page alone, the rest of the
    /// payload undecoded; a virtual field reads only the owner's page.
    pub fn field_value(&self, id: RecordId, field: &str) -> DbResult<Value> {
        let not_found = || DbError::NotFound(format!("record #{}", id.0));
        let stored = match &self.records {
            Backend::Mem(m) => {
                let rec = m.get(&id.0).ok_or_else(not_found)?;
                self.field_slot(&rec.rtype, field)?
                    .map(|idx| rec.values.get(idx).cloned())
            }
            Backend::Heap(h) => {
                let rtype = self.rtype_of(id)?;
                self.field_slot(rtype, field)?.map(|idx| h.value(id.0, idx))
            }
        };
        match stored {
            Ok(value) => value.ok_or_else(not_found),
            Err(via) => match self.owner_in(&via.set, id)? {
                None => Ok(Value::Null),
                Some(owner) => self.field_value(owner, &via.source_field),
            },
        }
    }

    /// Where `field` of a record of type `rtype` is read: `Ok` with its
    /// index in the stored values, or `Err` with the owner path a virtual
    /// field resolves through.
    fn field_slot(&self, rtype: &str, field: &str) -> DbResult<Result<usize, &VirtualVia>> {
        let rt = self.record_type(rtype)?;
        let idx = rt
            .field_index(field)
            .ok_or_else(|| DbError::unknown("field", format!("{rtype}.{field}")))?;
        Ok(match &rt.fields[idx].virtual_via {
            None => Ok(idx),
            Some(via) => Err(via),
        })
    }

    /// All field values of a record in declaration order, virtuals
    /// resolved: one read of the record, plus one read of the owner per
    /// virtual field. A stored row that does not hold one value per field
    /// is `NotFound`, as a single field missing from it is for
    /// [`NetworkDb::field_value`].
    pub fn resolved_values(&self, id: RecordId) -> DbResult<Vec<Value>> {
        let rec = self.get(id)?;
        let rt = self.record_type(&rec.rtype)?;
        let mut values = rec.values;
        if values.len() != rt.fields.len() {
            return Err(DbError::NotFound(format!(
                "record #{}: {} values for {} fields",
                id.0,
                values.len(),
                rt.fields.len()
            )));
        }
        for (value, f) in values.iter_mut().zip(&rt.fields) {
            if let Some(via) = &f.virtual_via {
                *value = match self.owner_in(&via.set, id)? {
                    None => Value::Null,
                    Some(owner) => self.field_value(owner, &via.source_field)?,
                };
            }
        }
        Ok(values)
    }

    // -- mutation ----------------------------------------------------------

    /// Store a new record.
    ///
    /// `values` gives stored (non-virtual) fields; omitted fields default to
    /// `Null`. `connects` names the owner occurrence for record-owned sets;
    /// system-owned sets of the type are connected automatically. An
    /// `AUTOMATIC` record-owned set *must* appear in `connects`.
    pub fn store(
        &mut self,
        rtype: &str,
        values: &[(&str, Value)],
        connects: &[(&str, RecordId)],
    ) -> DbResult<RecordId> {
        let schema = Arc::clone(&self.schema);
        let rt = schema
            .record(rtype)
            .ok_or_else(|| DbError::unknown("record", rtype))?;
        let mut row = vec![Value::Null; rt.fields.len()];
        for (name, v) in values {
            let idx = rt
                .field_index(name)
                .ok_or_else(|| DbError::unknown("field", format!("{rtype}.{name}")))?;
            let fdef = &rt.fields[idx];
            if fdef.is_virtual() {
                return Err(DbError::VirtualWrite {
                    field: format!("{rtype}.{name}"),
                });
            }
            if !fdef.ty.admits(v) {
                return Err(DbError::TypeMismatch {
                    field: format!("{rtype}.{name}"),
                    detail: format!("{} does not fit {}", v.type_name(), fdef.ty),
                });
            }
            row[idx] = v.clone();
        }

        // Row-level declarative constraints.
        self.check_row_constraints(rtype, rt, &row, None)?;

        // Validate the requested connections before anything is inserted.
        let mut planned: Vec<(&SetDef, RecordId)> = Vec::new();
        for (set_name, owner) in connects {
            let set = schema
                .set(set_name)
                .ok_or_else(|| DbError::unknown("set", *set_name))?;
            if set.member != rtype {
                return Err(DbError::Membership(format!(
                    "record type {rtype} is not the member of set {set_name}"
                )));
            }
            let owner_type = self.rtype_of(*owner)?;
            if set.owner.record_name() != Some(owner_type) {
                return Err(DbError::Membership(format!(
                    "record #{} of type {owner_type} cannot own set {set_name}",
                    owner.0
                )));
            }
            planned.push((set, *owner));
        }
        // AUTOMATIC record-owned sets must be connected at store time; an
        // Existence constraint demands connection regardless of class.
        for set in schema.sets_with_member(rtype) {
            if set.owner.record_name().is_none() {
                continue;
            }
            let requested = planned.iter().any(|(s, _)| s.name == set.name);
            let required =
                set.insertion == Insertion::Automatic || self.has_existence_constraint(&set.name);
            if required && !requested {
                return Err(DbError::Membership(format!(
                    "set {} requires connection at STORE time (AUTOMATIC/EXISTENCE)",
                    set.name
                )));
            }
        }

        // Pre-check occupancy rules for each planned connection, then the
        // duplicate-key check of each system set's single occurrence,
        // keeping every set key for its link.
        let system_sets = schema
            .sets
            .iter()
            .filter(|s| s.is_system() && s.member == rtype);
        let mut links: Vec<(&SetDef, RecordId, Option<KeyTuple>)> =
            Vec::with_capacity(planned.len() + 1);
        for (set, owner) in planned
            .into_iter()
            .chain(system_sets.map(|s| (s, SYSTEM_OWNER)))
        {
            let key = self.check_connectable(set, owner, rt, &row)?;
            links.push((set, owner, key));
        }

        let id = RecordId(self.next_id);
        self.next_id += 1;
        self.backend_insert(id.0, rtype, &row);
        match self.by_type.get_mut(rtype) {
            Some(ids) => ids.push(id.0),
            None => {
                self.by_type.insert(rtype.to_string(), vec![id.0]);
            }
        }
        self.index_add(rtype, &row, id.0);
        for (set, owner, key) in links {
            self.link_member(set, owner, id, key)?;
        }
        // One op covers the record and its store-time links; the undo
        // tears them all down, mirroring an erase.
        self.journal.record_with(|| NetUndo::Store { id: id.0 });
        Ok(id)
    }

    /// Connect an existing record into a set occurrence (`CONNECT`).
    pub fn connect(&mut self, set_name: &str, owner: RecordId, member: RecordId) -> DbResult<()> {
        let schema = Arc::clone(&self.schema);
        let set = schema
            .set(set_name)
            .ok_or_else(|| DbError::unknown("set", set_name))?;
        let mem_rec = self.get(member)?;
        if set.member != mem_rec.rtype {
            return Err(DbError::Membership(format!(
                "record type {} is not the member of set {set_name}",
                mem_rec.rtype
            )));
        }
        let owner_type = self.rtype_of(owner)?;
        if set.owner.record_name() != Some(owner_type) {
            return Err(DbError::Membership(format!(
                "record type {owner_type} cannot own set {set_name}"
            )));
        }
        if self.set_store(set_name)?.links.contains_key(&member.0) {
            return Err(DbError::Membership(format!(
                "record #{} already connected in set {set_name}",
                member.0
            )));
        }
        let rt = schema
            .record(&mem_rec.rtype)
            .ok_or_else(|| DbError::unknown("record", &mem_rec.rtype))?;
        let key = self.check_connectable(set, owner, rt, &mem_rec.values)?;
        self.link_member(set, owner, member, key)?;
        self.touch_links(member.0);
        self.journal.record_with(|| NetUndo::Link {
            set: set_name.to_string(),
            member: member.0,
        });
        Ok(())
    }

    /// Disconnect a record from a set occurrence (`DISCONNECT`).
    ///
    /// Rejected for `MANDATORY` members and for sets carrying an existence
    /// constraint; enforces a declared cardinality minimum on the owner.
    pub fn disconnect(&mut self, set_name: &str, member: RecordId) -> DbResult<()> {
        let schema = Arc::clone(&self.schema);
        let set = schema
            .set(set_name)
            .ok_or_else(|| DbError::unknown("set", set_name))?;
        if set.retention == Retention::Mandatory {
            return Err(DbError::Membership(format!(
                "cannot disconnect MANDATORY member from {set_name}"
            )));
        }
        if self.has_existence_constraint(set_name) {
            return Err(DbError::constraint(format!(
                "EXISTENCE ON {set_name} forbids disconnect"
            )));
        }
        let store = self.set_store(set_name)?;
        let &(owner, seq) = store
            .links
            .get(&member.0)
            .ok_or_else(|| DbError::Membership(format!("record not connected in {set_name}")))?;
        if let Some(min) = self.cardinality_min(set_name) {
            let count = store.occurrence_len(owner);
            if (count as u32) <= min {
                return Err(DbError::constraint(format!(
                    "cardinality minimum {min} on {set_name} would be violated"
                )));
            }
        }
        // A keyed link is found by its key: read it off the member's row.
        let key = self.member_set_key(set, member.0);
        if !set.keys.is_empty() && key.is_none() {
            return Err(DbError::NotFound(format!("record #{}", member.0)));
        }
        self.set_store_mut(set_name)?.unlink(member.0, key.as_ref());
        self.touch_links(member.0);
        self.journal.record_with(|| NetUndo::Unlink {
            set: set_name.to_string(),
            owner,
            member: member.0,
            seq,
        });
        Ok(())
    }

    /// Erase a record (`ERASE` / DBTG `DELETE`).
    ///
    /// Without `cascade`, erasure fails while the record owns members —
    /// except through **characterizing** sets, whose members are deleted
    /// implicitly (Su's defined/characterizing semantics: "Deletion of an
    /// employee implies deletion of dependents"). With `cascade` (DBTG
    /// `ERASE ALL`), members of every owned set are erased recursively —
    /// which is precisely the operation §3.1 warns "may … violate the
    /// system's integrity constraints", and our engine permits it just as
    /// the 1979 systems did.
    ///
    /// Returns all erased record ids (the root first).
    pub fn erase(&mut self, id: RecordId, cascade: bool) -> DbResult<Vec<RecordId>> {
        self.rtype_of(id)?;
        let mut erased = Vec::new();
        self.erase_inner(id, cascade, &mut erased)?;
        Ok(erased)
    }

    fn erase_inner(
        &mut self,
        id: RecordId,
        cascade: bool,
        erased: &mut Vec<RecordId>,
    ) -> DbResult<()> {
        let schema = Arc::clone(&self.schema);
        // Gather owned occurrences.
        let owned_sets = schema.sets_owned_by(self.rtype_of(id)?);
        for set in owned_sets {
            let members: Vec<u64> = self.set_store(&set.name)?.members_in_order(id.0);
            if members.is_empty() {
                continue;
            }
            let characterizing = self.has_characterizing_constraint(&set.name);
            if cascade || characterizing {
                for m in members {
                    // A member may already have been erased through another
                    // path in a diamond-shaped cascade.
                    if self.backend_contains(m) {
                        self.erase_inner(RecordId(m), cascade, erased)?;
                    }
                }
            } else {
                return Err(DbError::Membership(format!(
                    "record owns {} member(s) in set {}; ERASE ALL required",
                    members.len(),
                    set.name
                )));
            }
        }
        // Snapshot this record's member links for the undo journal before
        // tearing them down.
        let links = if self.journal.active() {
            persisted_links_of(&self.sets, id.0)
        } else {
            Vec::new()
        };
        let Some(rec) = self.backend_remove(id.0) else {
            return Err(DbError::NotFound(format!("record #{}", id.0)));
        };
        // Any occurrence it *owned* is empty by now: members were either
        // erased above or their presence aborted the operation.
        self.unlink_member(&rec);
        if let Some(ids) = self.by_type.get_mut(&rec.rtype) {
            if let Ok(pos) = ids.binary_search(&id.0) {
                ids.remove(pos);
            }
        }
        self.index_remove(&rec.rtype, &rec.values, id.0);
        self.journal.record_with(|| NetUndo::Erase { rec, links });
        erased.push(id);
        Ok(())
    }

    /// Modify stored fields of a record (`MODIFY`). Re-sorts the record
    /// within any set occurrence whose keys it changes.
    pub fn modify(&mut self, id: RecordId, assigns: &[(&str, Value)]) -> DbResult<()> {
        let rec = self.get(id)?;
        let schema = Arc::clone(&self.schema);
        let rt = schema
            .record(&rec.rtype)
            .ok_or_else(|| DbError::unknown("record", &rec.rtype))?;
        let mut new_row = rec.values.clone();
        for (name, v) in assigns {
            let idx = rt
                .field_index(name)
                .ok_or_else(|| DbError::unknown("field", format!("{}.{}", rec.rtype, name)))?;
            let fdef = &rt.fields[idx];
            if fdef.is_virtual() {
                return Err(DbError::VirtualWrite {
                    field: format!("{}.{}", rec.rtype, name),
                });
            }
            if !fdef.ty.admits(v) {
                return Err(DbError::TypeMismatch {
                    field: format!("{}.{}", rec.rtype, name),
                    detail: format!("{} does not fit {}", v.type_name(), fdef.ty),
                });
            }
            new_row[idx] = v.clone();
        }
        self.check_row_constraints(&rec.rtype, rt, &new_row, Some(id))?;

        // Which sets' key tuples change? A duplicate among the siblings is
        // refused before anything is written: a single ordered-map probe
        // per set. The record itself cannot collide — its old key differs
        // from the new one.
        let mut moves: Vec<(&SetDef, KeyTuple, KeyTuple)> = Vec::new();
        for set in schema.sets.iter().filter(|s| s.member == rec.rtype) {
            let (Some(old_key), Some(new_key)) =
                (set_key(set, rt, &rec.values), set_key(set, rt, &new_row))
            else {
                continue;
            };
            if old_key == new_key {
                continue;
            }
            let store = self.set_store(&set.name)?;
            if let Some(&(owner, _)) = store.links.get(&id.0) {
                let dup = store.contains_key_under(owner, &new_key);
                self.stats.probed(dup);
                if dup {
                    return Err(DbError::Duplicate {
                        scope: format!("set {}", set.name),
                        key: format!("{:?}", new_key.0),
                    });
                }
            }
            moves.push((set, old_key, new_key));
        }
        // Commit the new values, then reposition: unlink by the old key,
        // link at the new one with a fresh arrival sequence.
        if !self.backend_set_values(id.0, &rec.rtype, &new_row) {
            return Err(DbError::NotFound(format!("record #{}", id.0)));
        }
        self.index_update(&rec.rtype, &rec.values, &new_row, id.0);
        let mut moved = PersistedLinks::new();
        for (set, old_key, new_key) in moves {
            if let Some((owner, seq)) = self.set_store_mut(&set.name)?.unlink(id.0, Some(&old_key))
            {
                self.link_member(set, RecordId(owner), id, Some(new_key))?;
                moved.push((set.name.clone(), owner, seq));
            }
            // The persisted link section is refreshed at the next sync.
            self.touch_links(id.0);
        }
        self.journal.record_with(|| NetUndo::Values {
            id: id.0,
            values: rec.values,
            moved,
        });
        Ok(())
    }

    // -- internals ---------------------------------------------------------

    fn record_type(&self, rtype: &str) -> DbResult<&RecordTypeDef> {
        self.schema
            .record(rtype)
            .ok_or_else(|| DbError::unknown("record", rtype))
    }

    fn has_existence_constraint(&self, set: &str) -> bool {
        self.schema
            .constraints
            .iter()
            .any(|c| matches!(c, Constraint::Existence { set: s } if s == set))
    }

    fn has_characterizing_constraint(&self, set: &str) -> bool {
        self.schema
            .constraints
            .iter()
            .any(|c| matches!(c, Constraint::Characterizing { set: s } if s == set))
    }

    fn cardinality_max(&self, set: &str) -> Option<u32> {
        self.schema.constraints.iter().find_map(|c| match c {
            Constraint::Cardinality {
                set: s,
                max: Some(m),
                ..
            } if s == set => Some(*m),
            _ => None,
        })
    }

    fn cardinality_min(&self, set: &str) -> Option<u32> {
        self.schema.constraints.iter().find_map(|c| match c {
            Constraint::Cardinality { set: s, min, .. } if s == set && *min > 0 => Some(*min),
            _ => None,
        })
    }

    /// Not-null / domain / uniqueness checks for a prospective row.
    fn check_row_constraints(
        &self,
        rtype: &str,
        rt: &RecordTypeDef,
        row: &[Value],
        exclude: Option<RecordId>,
    ) -> DbResult<()> {
        for c in &self.schema.constraints {
            match c {
                Constraint::NotNull { record, field } if record == rtype => {
                    let Some(idx) = rt.field_index(field) else {
                        continue;
                    };
                    if row[idx].is_null() {
                        return Err(DbError::constraint(format!("NOT NULL {record}.{field}")));
                    }
                }
                Constraint::Domain {
                    record,
                    field,
                    low,
                    high,
                } if record == rtype => {
                    let Some(idx) = rt.field_index(field) else {
                        continue;
                    };
                    let v = &row[idx];
                    if v.is_null() {
                        continue;
                    }
                    if let Some(l) = low {
                        if v.total_cmp(l) == std::cmp::Ordering::Less {
                            return Err(DbError::constraint(format!(
                                "DOMAIN {record}.{field}: {v} below {l}"
                            )));
                        }
                    }
                    if let Some(h) = high {
                        if v.total_cmp(h) == std::cmp::Ordering::Greater {
                            return Err(DbError::constraint(format!(
                                "DOMAIN {record}.{field}: {v} above {h}"
                            )));
                        }
                    }
                }
                Constraint::Unique { record, fields } if record == rtype => {
                    let idxs: Vec<usize> =
                        fields.iter().filter_map(|f| rt.field_index(f)).collect();
                    let key: Vec<&Value> = idxs.iter().map(|&i| &row[i]).collect();
                    // Scan only this type's records (via `by_type`), not
                    // the whole store — on a paged backend the full scan
                    // would fault every record's page in.
                    let ids = self
                        .by_type
                        .get(rtype)
                        .map(Vec::as_slice)
                        .unwrap_or_default();
                    for &oid in ids {
                        if Some(RecordId(oid)) == exclude {
                            continue;
                        }
                        let dup = self
                            .with_rec(oid, |other| {
                                idxs.iter()
                                    .zip(&key)
                                    .all(|(&i, k)| other.values[i].loose_eq(k))
                            })
                            .unwrap_or(false);
                        if dup {
                            return Err(DbError::Duplicate {
                                scope: format!("record {record}"),
                                key: fields.join(","),
                            });
                        }
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Key tuple of a member stored in the database (`None` when it is
    /// not: a dangling link in a decoded image).
    fn member_key(&self, member: u64, keys: &[String]) -> Option<KeyTuple> {
        self.with_rec(member, |mrec| match self.schema.record(&mrec.rtype) {
            Some(mrt) => key_tuple(mrt, &mrec.values, keys),
            None => KeyTuple(Vec::new()),
        })
    }

    /// Can a record with values `row` be connected under `owner` in `set`?
    /// Checks cardinality maxima and duplicate set keys (one ordered-map
    /// probe into the occurrence). Returns the record's set key, `None`
    /// for a keyless set, for [`NetworkDb::link_member`] to move into the
    /// occurrence.
    fn check_connectable(
        &self,
        set: &SetDef,
        owner: RecordId,
        rt: &RecordTypeDef,
        row: &[Value],
    ) -> DbResult<Option<KeyTuple>> {
        let store = self.set_store(&set.name)?;
        if let Some(max) = self.cardinality_max(&set.name) {
            if store.occurrence_len(owner.0) as u32 >= max {
                return Err(DbError::constraint(format!(
                    "cardinality maximum {max} on {} reached",
                    set.name
                )));
            }
        }
        let key = set_key(set, rt, row);
        if let Some(key) = &key {
            let dup = store.contains_key_under(owner.0, key);
            self.stats.probed(dup);
            if dup {
                return Err(DbError::Duplicate {
                    scope: format!("set {}", set.name),
                    key: format!("{:?}", key.0),
                });
            }
        }
        Ok(key)
    }

    /// Link `member` under `owner` in `set` at a fresh arrival sequence:
    /// at its position by `key` (from [`NetworkDb::check_connectable`]),
    /// or at the chronological end of a keyless set.
    fn link_member(
        &mut self,
        set: &SetDef,
        owner: RecordId,
        member: RecordId,
        key: Option<KeyTuple>,
    ) -> DbResult<()> {
        if self.set_store_mut(&set.name)?.link(owner.0, member.0, key) {
            Ok(())
        } else {
            Err(refused_link(&set.name, owner.0, member.0))
        }
    }

    /// Take record `rec` out of every set it is linked in as a member,
    /// each link found by the set key of `rec`'s row.
    fn unlink_member(&mut self, rec: &StoredRecord) {
        let schema = Arc::clone(&self.schema);
        let Some(rt) = schema.record(&rec.rtype) else {
            return;
        };
        for set in schema.sets.iter().filter(|s| s.member == rec.rtype) {
            if let Some(store) = self.sets.get_mut(&set.name) {
                store.unlink(rec.id.0, set_key(set, rt, &rec.values).as_ref());
            }
        }
    }

    /// The set key of stored record `member` in `set`, read off its row
    /// (one read). `None` for a keyless set, or when it is not stored.
    fn member_set_key(&self, set: &SetDef, member: u64) -> Option<KeyTuple> {
        if set.keys.is_empty() {
            return None;
        }
        self.member_key(member, &set.keys)
    }

    fn set_store(&self, set: &str) -> DbResult<&SetStore> {
        self.sets
            .get(set)
            .ok_or_else(|| DbError::unknown("set", set))
    }

    fn set_store_mut(&mut self, set: &str) -> DbResult<&mut SetStore> {
        self.sets
            .get_mut(set)
            .ok_or_else(|| DbError::unknown("set", set))
    }

    // -- calc-key index maintenance ----------------------------------------

    /// Key tuple of `row` for an indexed field list (stored fields only).
    /// Index creation guarantees the type and fields exist; the fallbacks
    /// keep this total for the unwrap-free lib gate.
    fn calc_key(schema: &NetworkSchema, rtype: &str, fields: &[String], row: &[Value]) -> KeyTuple {
        let Some(rt) = schema.record(rtype) else {
            return KeyTuple(Vec::new());
        };
        KeyTuple(
            fields
                .iter()
                .map(|f| {
                    rt.field_index(f)
                        .and_then(|i| row.get(i))
                        .cloned()
                        .unwrap_or(Value::Null)
                })
                .collect(),
        )
    }

    fn index_add(&mut self, rtype: &str, row: &[Value], id: u64) {
        let schema = &self.schema;
        for ((rt_name, fields), map) in self.calc_indexes.get_mut().iter_mut() {
            if rt_name != rtype {
                continue;
            }
            let key = Self::calc_key(schema, rtype, fields, row);
            let ids = map.entry(key).or_default();
            let pos = ids.partition_point(|&m| m < id);
            ids.insert(pos, id);
        }
    }

    fn index_remove(&mut self, rtype: &str, row: &[Value], id: u64) {
        let schema = &self.schema;
        for ((rt_name, fields), map) in self.calc_indexes.get_mut().iter_mut() {
            if rt_name != rtype {
                continue;
            }
            let key = Self::calc_key(schema, rtype, fields, row);
            if let Some(ids) = map.get_mut(&key) {
                if let Ok(pos) = ids.binary_search(&id) {
                    ids.remove(pos);
                }
                if ids.is_empty() {
                    map.remove(&key);
                }
            }
        }
    }

    fn index_update(&mut self, rtype: &str, old_row: &[Value], new_row: &[Value], id: u64) {
        self.index_remove(rtype, old_row, id);
        self.index_add(rtype, new_row, id);
    }

    /// Verify every derived access structure against a from-scratch
    /// rebuild: the per-type record lists, each set store's ordering and
    /// reverse maps, and every materialized calc-key index. Used by the
    /// storage-invariant property tests.
    pub fn check_access_structures(&self) -> Result<(), String> {
        // Per-type record lists ↔ the record store.
        let mut want_types: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        self.for_each_rec(&mut |rec| {
            want_types
                .entry(rec.rtype.clone())
                .or_default()
                .push(rec.id.0);
        });
        for (rtype, ids) in &self.by_type {
            let want = want_types.remove(rtype).unwrap_or_default();
            if *ids != want {
                return Err(format!("by_type[{rtype}] = {ids:?}, want {want:?}"));
            }
        }
        if let Some((rtype, _)) = want_types.into_iter().next() {
            return Err(format!("by_type missing entry for {rtype}"));
        }

        // Set stores: occurrences ↔ member table, plus key correctness.
        for (name, store) in &self.sets {
            let Some(set) = self.schema.set(name) else {
                return Err(format!("set {name} stored but not in schema"));
            };
            let mut linked = 0usize;
            for (&owner, occ) in &store.occs {
                if occ.len() == 0 {
                    return Err(format!("set {name}: empty occurrence kept for #{owner}"));
                }
                if matches!(occ, Occurrence::Keyed(_)) == set.keys.is_empty() {
                    return Err(format!(
                        "set {name}: occurrence of #{owner} ordered wrongly"
                    ));
                }
                for (key, seq, member) in occ.entries() {
                    linked += 1;
                    if store.links.get(&member) != Some(&(owner, seq)) {
                        return Err(format!(
                            "set {name}: member table entry of #{member} ≠ (#{owner}, {seq})"
                        ));
                    }
                    let want_key = if set.keys.is_empty() {
                        self.backend_contains(member).then(|| KeyTuple(Vec::new()))
                    } else {
                        self.member_key(member, &set.keys)
                    }
                    .ok_or_else(|| format!("set {name}: member #{member} is not stored"))?;
                    if key != want_key.0 {
                        return Err(format!(
                            "set {name}: #{member} filed under {key:?}, want {:?}",
                            want_key.0
                        ));
                    }
                }
            }
            if store.links.len() != linked {
                return Err(format!(
                    "set {name}: {} member table entries for {linked} links",
                    store.links.len()
                ));
            }
        }

        // Calc-key indexes ↔ a fresh rebuild over the record heap.
        for ((rtype, fields), map) in self.calc_indexes.borrow().iter() {
            let mut want: BTreeMap<KeyTuple, Vec<u64>> = BTreeMap::new();
            self.for_each_rec(&mut |rec| {
                if rec.rtype == *rtype {
                    want.entry(Self::calc_key(&self.schema, rtype, fields, &rec.values))
                        .or_default()
                        .push(rec.id.0);
                }
            });
            if *map != want {
                return Err(format!(
                    "calc index ({rtype}, {fields:?}) diverged from rebuild"
                ));
            }
        }
        Ok(())
    }
}

/// The set key of a member of `set` whose row is `row`: `None` for a
/// keyless set.
fn set_key(set: &SetDef, rt: &RecordTypeDef, row: &[Value]) -> Option<KeyTuple> {
    (!set.keys.is_empty()).then(|| key_tuple(rt, row, &set.keys))
}

/// The error for a link [`SetStore::relink_at`] refused: the member is
/// linked already, or its occurrence holds its key.
fn refused_link(set: &str, owner: u64, member: u64) -> DbError {
    DbError::Duplicate {
        scope: format!("set {set}, occurrence of #{owner}"),
        key: format!("record #{member}: linked already, or its set key is taken"),
    }
}

fn key_tuple(rt: &RecordTypeDef, row: &[Value], keys: &[String]) -> KeyTuple {
    KeyTuple(
        keys.iter()
            .map(|k| {
                rt.field_index(k)
                    .and_then(|i| row.get(i))
                    .cloned()
                    .unwrap_or(Value::Null)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpc_datamodel::network::{FieldDef, SetDef};
    use dbpc_datamodel::types::FieldType;

    fn company_schema() -> NetworkSchema {
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
                    FieldDef::new("DEPT-NAME", FieldType::Char(5)),
                    FieldDef::new("AGE", FieldType::Int(2)),
                    FieldDef::virtual_field("DIV-NAME", FieldType::Char(20), "DIV-EMP", "DIV-NAME"),
                ],
            ))
            .with_set(SetDef::system("ALL-DIV", "DIV", vec!["DIV-NAME"]))
            .with_set(SetDef::owned("DIV-EMP", "DIV", "EMP", vec!["EMP-NAME"]))
    }

    fn company_db() -> (NetworkDb, RecordId, RecordId) {
        let mut db = NetworkDb::new(company_schema()).unwrap();
        let mach = db
            .store(
                "DIV",
                &[
                    ("DIV-NAME", Value::str("MACHINERY")),
                    ("DIV-LOC", Value::str("DETROIT")),
                ],
                &[],
            )
            .unwrap();
        let sales = db
            .store(
                "DIV",
                &[
                    ("DIV-NAME", Value::str("AEROSPACE")),
                    ("DIV-LOC", Value::str("SEATTLE")),
                ],
                &[],
            )
            .unwrap();
        (db, mach, sales)
    }

    #[test]
    fn system_set_orders_by_keys() {
        let (db, mach, aero) = company_db();
        // AEROSPACE < MACHINERY alphabetically even though stored later.
        let order = db.members_of("ALL-DIV", SYSTEM_OWNER).unwrap();
        assert_eq!(order, vec![aero, mach]);
    }

    #[test]
    fn store_and_read_member_with_virtual_field() {
        let (mut db, mach, _) = company_db();
        let e = db
            .store(
                "EMP",
                &[
                    ("EMP-NAME", Value::str("JONES")),
                    ("DEPT-NAME", Value::str("SALES")),
                    ("AGE", Value::Int(34)),
                ],
                &[("DIV-EMP", mach)],
            )
            .unwrap();
        assert_eq!(
            db.field_value(e, "DIV-NAME").unwrap(),
            Value::str("MACHINERY")
        );
        assert_eq!(db.field_value(e, "AGE").unwrap(), Value::Int(34));
        assert_eq!(db.owner_in("DIV-EMP", e).unwrap(), Some(mach));
    }

    #[test]
    fn automatic_set_requires_connection() {
        let (mut db, _, _) = company_db();
        let err = db
            .store("EMP", &[("EMP-NAME", Value::str("X"))], &[])
            .unwrap_err();
        assert!(matches!(err, DbError::Membership(_)));
    }

    #[test]
    fn manual_set_allows_deferred_connect() {
        let mut schema = company_schema();
        schema.set_mut("DIV-EMP").unwrap().insertion = Insertion::Manual;
        let mut db = NetworkDb::new(schema).unwrap();
        let d = db
            .store("DIV", &[("DIV-NAME", Value::str("M"))], &[])
            .unwrap();
        let e = db
            .store("EMP", &[("EMP-NAME", Value::str("X"))], &[])
            .unwrap();
        assert_eq!(db.field_value(e, "DIV-NAME").unwrap(), Value::Null);
        db.connect("DIV-EMP", d, e).unwrap();
        assert_eq!(db.field_value(e, "DIV-NAME").unwrap(), Value::str("M"));
    }

    #[test]
    fn duplicate_set_key_rejected() {
        let (mut db, mach, _) = company_db();
        db.store(
            "EMP",
            &[("EMP-NAME", Value::str("JONES"))],
            &[("DIV-EMP", mach)],
        )
        .unwrap();
        let err = db
            .store(
                "EMP",
                &[("EMP-NAME", Value::str("JONES"))],
                &[("DIV-EMP", mach)],
            )
            .unwrap_err();
        assert!(matches!(err, DbError::Duplicate { .. }));
    }

    #[test]
    fn members_kept_in_key_order_under_modify() {
        let (mut db, mach, _) = company_db();
        let a = db
            .store(
                "EMP",
                &[("EMP-NAME", Value::str("ADAMS"))],
                &[("DIV-EMP", mach)],
            )
            .unwrap();
        let z = db
            .store(
                "EMP",
                &[("EMP-NAME", Value::str("ZOLA"))],
                &[("DIV-EMP", mach)],
            )
            .unwrap();
        assert_eq!(db.members_of("DIV-EMP", mach).unwrap(), vec![a, z]);
        // Rename ADAMS → ZZTOP: must move after ZOLA.
        db.modify(a, &[("EMP-NAME", Value::str("ZZTOP"))]).unwrap();
        assert_eq!(db.members_of("DIV-EMP", mach).unwrap(), vec![z, a]);
    }

    #[test]
    fn mandatory_member_cannot_disconnect() {
        let mut schema = company_schema();
        schema.set_mut("DIV-EMP").unwrap().retention = Retention::Mandatory;
        let mut db = NetworkDb::new(schema).unwrap();
        let d = db
            .store("DIV", &[("DIV-NAME", Value::str("M"))], &[])
            .unwrap();
        let e = db
            .store("EMP", &[("EMP-NAME", Value::str("X"))], &[("DIV-EMP", d)])
            .unwrap();
        assert!(db.disconnect("DIV-EMP", e).is_err());
    }

    #[test]
    fn erase_requires_cascade_when_members_exist() {
        let (mut db, mach, _) = company_db();
        db.store(
            "EMP",
            &[("EMP-NAME", Value::str("X"))],
            &[("DIV-EMP", mach)],
        )
        .unwrap();
        assert!(db.erase(mach, false).is_err());
        let erased = db.erase(mach, true).unwrap();
        assert_eq!(erased.len(), 2);
        assert_eq!(db.records_of_type("EMP").len(), 0);
    }

    #[test]
    fn characterizing_set_cascades_implicitly() {
        let schema = company_schema().with_constraint(Constraint::Characterizing {
            set: "DIV-EMP".into(),
        });
        let mut db = NetworkDb::new(schema).unwrap();
        let d = db
            .store("DIV", &[("DIV-NAME", Value::str("M"))], &[])
            .unwrap();
        db.store("EMP", &[("EMP-NAME", Value::str("X"))], &[("DIV-EMP", d)])
            .unwrap();
        // Plain erase cascades because EMP characterizes DIV.
        let erased = db.erase(d, false).unwrap();
        assert_eq!(erased.len(), 2);
    }

    #[test]
    fn cardinality_max_enforced() {
        let schema = company_schema().with_constraint(Constraint::Cardinality {
            set: "DIV-EMP".into(),
            min: 0,
            max: Some(2),
        });
        let mut db = NetworkDb::new(schema).unwrap();
        let d = db
            .store("DIV", &[("DIV-NAME", Value::str("M"))], &[])
            .unwrap();
        for name in ["A", "B"] {
            db.store("EMP", &[("EMP-NAME", Value::str(name))], &[("DIV-EMP", d)])
                .unwrap();
        }
        let err = db
            .store("EMP", &[("EMP-NAME", Value::str("C"))], &[("DIV-EMP", d)])
            .unwrap_err();
        assert!(matches!(err, DbError::Constraint { .. }));
    }

    #[test]
    fn not_null_and_domain_enforced() {
        let schema = company_schema()
            .with_constraint(Constraint::NotNull {
                record: "EMP".into(),
                field: "EMP-NAME".into(),
            })
            .with_constraint(Constraint::Domain {
                record: "EMP".into(),
                field: "AGE".into(),
                low: Some(Value::Int(14)),
                high: Some(Value::Int(99)),
            });
        let mut db = NetworkDb::new(schema).unwrap();
        let d = db
            .store("DIV", &[("DIV-NAME", Value::str("M"))], &[])
            .unwrap();
        assert!(db.store("EMP", &[], &[("DIV-EMP", d)]).is_err()); // null name
        let err = db
            .store(
                "EMP",
                &[("EMP-NAME", Value::str("K")), ("AGE", Value::Int(7))],
                &[("DIV-EMP", d)],
            )
            .unwrap_err();
        assert!(matches!(err, DbError::Constraint { .. }));
    }

    #[test]
    fn unique_constraint_enforced_across_occurrences() {
        let schema = company_schema().with_constraint(Constraint::Unique {
            record: "EMP".into(),
            fields: vec!["EMP-NAME".into()],
        });
        let mut db = NetworkDb::new(schema).unwrap();
        let d1 = db
            .store("DIV", &[("DIV-NAME", Value::str("A"))], &[])
            .unwrap();
        let d2 = db
            .store("DIV", &[("DIV-NAME", Value::str("B"))], &[])
            .unwrap();
        db.store("EMP", &[("EMP-NAME", Value::str("X"))], &[("DIV-EMP", d1)])
            .unwrap();
        // Same name under a *different* division: set-key check passes but
        // the global uniqueness constraint must reject it.
        assert!(db
            .store("EMP", &[("EMP-NAME", Value::str("X"))], &[("DIV-EMP", d2)])
            .is_err());
    }

    #[test]
    fn type_checks_on_store_and_modify() {
        let (mut db, mach, _) = company_db();
        assert!(matches!(
            db.store(
                "EMP",
                &[("AGE", Value::str("OLD")), ("EMP-NAME", Value::str("E"))],
                &[("DIV-EMP", mach)],
            ),
            Err(DbError::TypeMismatch { .. })
        ));
        let e = db
            .store(
                "EMP",
                &[("EMP-NAME", Value::str("E"))],
                &[("DIV-EMP", mach)],
            )
            .unwrap();
        assert!(matches!(
            db.modify(e, &[("AGE", Value::str("OLD"))]),
            Err(DbError::TypeMismatch { .. })
        ));
        assert!(matches!(
            db.modify(e, &[("DIV-NAME", Value::str("HACK"))]),
            Err(DbError::VirtualWrite { .. })
        ));
    }

    #[test]
    fn membership_maps_stay_consistent_through_mutations() {
        let (mut db, mach, aero) = company_db();
        let a = db
            .store(
                "EMP",
                &[("EMP-NAME", Value::str("ADAMS"))],
                &[("DIV-EMP", mach)],
            )
            .unwrap();
        let b = db
            .store(
                "EMP",
                &[("EMP-NAME", Value::str("BLAKE"))],
                &[("DIV-EMP", mach)],
            )
            .unwrap();
        db.check_access_structures().unwrap();
        // Reposition under the same owner, then move divisions.
        db.modify(a, &[("EMP-NAME", Value::str("CLARK"))]).unwrap();
        assert_eq!(db.members_of("DIV-EMP", mach).unwrap(), vec![b, a]);
        db.check_access_structures().unwrap();
        db.disconnect("DIV-EMP", a).unwrap();
        db.connect("DIV-EMP", aero, a).unwrap();
        assert_eq!(db.members_of("DIV-EMP", mach).unwrap(), vec![b]);
        assert_eq!(db.members_of("DIV-EMP", aero).unwrap(), vec![a]);
        db.check_access_structures().unwrap();
        db.erase(b, false).unwrap();
        assert_eq!(db.members_of("DIV-EMP", mach).unwrap(), vec![]);
        db.check_access_structures().unwrap();
    }

    #[test]
    fn find_keyed_matches_scan_and_survives_mutations() {
        let (mut db, mach, _) = company_db();
        for name in ["JONES", "SMITH", "ADAMS"] {
            db.store(
                "EMP",
                &[
                    ("EMP-NAME", Value::str(name)),
                    ("DEPT-NAME", Value::str("SALES")),
                ],
                &[("DIV-EMP", mach)],
            )
            .unwrap();
        }
        let probe = |db: &NetworkDb, name: &str| {
            db.find_keyed("EMP", &["EMP-NAME"], &[Value::str(name)])
                .unwrap()
                .expect("stored field is indexable")
        };
        let smith = probe(&db, "SMITH");
        assert_eq!(smith.len(), 1);
        // Index answers must equal the scan-and-filter answer, in order.
        let scan: Vec<RecordId> = db
            .records_of_type("EMP")
            .into_iter()
            .filter(|&id| db.field_value(id, "EMP-NAME").unwrap() == Value::str("SMITH"))
            .collect();
        assert_eq!(smith, scan);
        let before = db.access_stats().snapshot();
        assert!(before.index_probes > 0 && before.index_hits > 0);
        db.check_access_structures().unwrap();
        // The lazily-built index must track later mutations.
        db.modify(smith[0], &[("EMP-NAME", Value::str("SMYTHE"))])
            .unwrap();
        assert!(probe(&db, "SMITH").is_empty());
        assert_eq!(probe(&db, "SMYTHE"), smith);
        db.erase(smith[0], false).unwrap();
        assert!(probe(&db, "SMYTHE").is_empty());
        db.check_access_structures().unwrap();
        // Virtual fields are not indexable: caller must fall back to scan.
        assert_eq!(
            db.find_keyed("EMP", &["DIV-NAME"], &[Value::str("MACHINERY")])
                .unwrap(),
            None
        );
    }

    /// The planner's `keyed_distinct` builds the same lazy index a keyed
    /// FIND uses but never counts an access; only `find_keyed` probes.
    #[test]
    fn keyed_distinct_shares_the_calc_index_and_counts_no_probe() {
        let (mut db, mach, _) = company_db();
        for (name, dept) in [("JONES", "SALES"), ("SMITH", "MFG"), ("ADAMS", "SALES")] {
            db.store(
                "EMP",
                &[
                    ("EMP-NAME", Value::str(name)),
                    ("DEPT-NAME", Value::str(dept)),
                ],
                &[("DIV-EMP", mach)],
            )
            .unwrap();
        }
        let cold = db.access_stats().snapshot();
        assert_eq!(db.keyed_distinct("EMP", &["DEPT-NAME"]).unwrap(), Some(2));
        assert_eq!(db.access_stats().snapshot(), cold, "cold build counted");
        let sales = db
            .find_keyed("EMP", &["DEPT-NAME"], &[Value::str("SALES")])
            .unwrap()
            .expect("stored field is indexable");
        assert_eq!(sales.len(), 2);
        let probed = db.access_stats().snapshot();
        assert_eq!(probed.index_probes, cold.index_probes + 1);
        assert_eq!(probed.index_hits, cold.index_hits + 1);
        assert_eq!(db.keyed_distinct("EMP", &["DEPT-NAME"]).unwrap(), Some(2));
        assert_eq!(db.access_stats().snapshot(), probed, "warm read counted");
        assert_eq!(db.keyed_distinct("EMP", &["DIV-NAME"]).unwrap(), None);
        assert_eq!(db.keyed_distinct("EMP", &[]).unwrap(), None);
    }

    /// A type list naming a record the store lost is a typed error, not a
    /// panic, when the calc index is first built over it.
    #[test]
    fn calc_index_build_over_a_lost_record_is_a_typed_error() {
        let (mut db, _, _) = company_db();
        let lost = db.records_of_type("DIV")[0];
        let Backend::Mem(m) = &mut db.records else {
            panic!("company_db is in memory");
        };
        m.remove(&lost.0);
        let err = db.keyed_distinct("DIV", &["DIV-NAME"]).unwrap_err();
        assert!(matches!(err, DbError::NotFound(_)), "{err}");
        let err = db
            .find_keyed("DIV", &["DIV-NAME"], &[Value::str("MACHINERY")])
            .unwrap_err();
        assert!(matches!(err, DbError::NotFound(_)), "{err}");
    }

    /// A stored row without one value per field is a typed error from
    /// `resolved_values`, not a silently truncated row, in memory and on
    /// a heap.
    #[test]
    fn resolved_values_of_a_short_row_is_not_found() {
        let (mem, _, _) = company_db();
        let paged = mem.to_paged(256, 4).unwrap();
        for mut db in [mem, paged] {
            let div = db.records_of_type("DIV")[0];
            assert!(db.backend_set_values(div.0, "DIV", &[Value::str("MACHINERY")]));
            let err = db.resolved_values(div).unwrap_err();
            assert!(matches!(err, DbError::NotFound(_)), "{err}");
        }
    }

    #[test]
    fn existence_constraint_blocks_manual_orphan() {
        let mut schema = company_schema().with_constraint(Constraint::Existence {
            set: "DIV-EMP".into(),
        });
        schema.set_mut("DIV-EMP").unwrap().insertion = Insertion::Manual;
        let mut db = NetworkDb::new(schema).unwrap();
        // Even though the set is MANUAL, the EXISTENCE constraint requires a
        // connection at store time.
        assert!(db
            .store("EMP", &[("EMP-NAME", Value::str("X"))], &[])
            .is_err());
    }

    /// Storing and erasing burns through ids: the paged directory frees
    /// each chunk whose records are all gone, and still lists the live
    /// ones in id order.
    #[test]
    fn directory_frees_chunks_whose_records_are_all_erased() {
        let mut db = NetworkDb::new_paged(company_schema(), 4096, 8).unwrap();
        let ids: Vec<RecordId> = (0..3000)
            .map(|i| {
                db.store("DIV", &[("DIV-NAME", Value::str(format!("D{i}")))], &[])
                    .unwrap()
            })
            .collect();
        for &id in &ids[..2500] {
            db.erase(id, false).unwrap();
        }
        let Backend::Heap(h) = &db.records else {
            unreachable!("new_paged builds a heap backend");
        };
        let held = h.dir.chunks.iter().filter(|c| c.is_some()).count();
        assert_eq!(held, 1, "only the chunk of ids 2048..3072 has live records");
        let live: Vec<RecordId> = h.dir.ids().map(RecordId).collect();
        assert_eq!(live, ids[2500..]);
        assert_eq!(db.record_count(), 500);
        db.check_access_structures().unwrap();
    }

    /// A paged database nobody checkpoints never drains its link-sync
    /// queue: storing and rolling back forever must not grow it without
    /// bound.
    #[test]
    fn link_sync_queue_stays_bounded_without_checkpoints() {
        let mut db = NetworkDb::new_paged(company_schema(), 4096, 8).unwrap();
        let mach = db
            .store("DIV", &[("DIV-NAME", Value::str("MACHINERY"))], &[])
            .unwrap();
        for i in 0..100_000 {
            let sp = db.begin_savepoint();
            db.store(
                "EMP",
                &[("EMP-NAME", Value::str(format!("E{i}")))],
                &[("DIV-EMP", mach)],
            )
            .unwrap();
            db.rollback_to(sp);
            let Backend::Heap(h) = &db.records else {
                unreachable!("new_paged builds a heap backend");
            };
            // Twice the live records at the store's peak, plus the slack.
            let bound = 2 * (db.record_count() + 1) + 64;
            assert!(h.pending.len() <= bound, "cycle {i}");
        }
        db.check_access_structures().unwrap();
    }

    /// The payload of a record, as the heap backend encodes it.
    fn encoded(id: u64, rtype: &str, values: &[Value], links: &[(String, u64, u64)]) -> Vec<u8> {
        let mut w = crate::disk::codec::ByteWriter::new();
        encode_record(&mut w, id, rtype, values, links);
        w.into_bytes()
    }

    /// The directory is indexed by record id, and recovery reads ids from
    /// disk: one past the allocator's `next_id` is a typed error, not a
    /// directory sized by a corrupt number.
    #[test]
    fn recovery_rejects_ids_the_allocator_never_allocated() {
        let dir = TempDir::new("netdb-wild-id").unwrap();
        let fm = Arc::new(FileMgr::new(dir.path(), 256).unwrap());
        let mut heap = HeapFile::open(Arc::clone(&fm), "heap.dat", 4, SlotMap::default()).unwrap();
        heap.insert(&encoded(u64::MAX, "DIV", &[Value::str("X")], &[]))
            .unwrap();
        heap.flush().unwrap();
        let map = heap.buffer().next_slot_map();
        drop(heap);
        let err =
            NetworkDb::recover_paged(company_schema(), fm, "heap.dat", 4, 5, &[], map).unwrap_err();
        assert!(
            err.to_string().contains("outside the allocated ids"),
            "{err}"
        );
    }

    /// Two payloads that file equal keys in one occurrence — a damaged
    /// heap — are a typed error on recovery, never one link silently
    /// overwriting the other.
    #[test]
    fn recovery_refuses_two_equal_keys_in_one_occurrence() {
        let dir = TempDir::new("netdb-dup-key").unwrap();
        let fm = Arc::new(FileMgr::new(dir.path(), 256).unwrap());
        let mut heap = HeapFile::open(Arc::clone(&fm), "heap.dat", 4, SlotMap::default()).unwrap();
        let div = [Value::str("MACHINERY"), Value::str("DETROIT")];
        let emp = [Value::str("JONES"), Value::Null, Value::Null, Value::Null];
        heap.insert(&encoded(1, "DIV", &div, &[("ALL-DIV".into(), 0, 0)]))
            .unwrap();
        for (id, seq) in [(2, 0), (3, 1)] {
            let links = [("DIV-EMP".to_string(), 1, seq)];
            heap.insert(&encoded(id, "EMP", &emp, &links)).unwrap();
        }
        heap.flush().unwrap();
        let map = heap.buffer().next_slot_map();
        drop(heap);
        let seqs = [("ALL-DIV".to_string(), 1), ("DIV-EMP".to_string(), 2)];
        let err = NetworkDb::recover_paged(company_schema(), fm, "heap.dat", 4, 4, &seqs, map)
            .unwrap_err();
        assert!(matches!(err, DbError::Duplicate { .. }), "{err}");
    }

    mod decoders {
        use super::*;
        use proptest::prelude::*;

        fn sample_record() -> Vec<u8> {
            encoded(
                7,
                "EMP",
                &[Value::str("ADAMS"), Value::Int(41), Value::Null],
                &[("DIV-EMP".to_string(), 3, 9)],
            )
        }

        /// A record whose value count claims `u32::MAX` entries: the
        /// decoder must fail on the missing bytes, not try to reserve
        /// room for four billion values first.
        #[test]
        fn corrupt_counts_fail_without_huge_reservations() {
            let mut w = crate::disk::codec::ByteWriter::new();
            w.put_u8(REC_MAGIC);
            w.put_u64(7);
            w.put_str("EMP");
            w.put_u32(u32::MAX);
            assert!(decode_record(&w.into_bytes()).is_err());
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// The heap record decoder is total: arbitrary bytes, and a
            /// valid record with one byte replaced and the tail cut, decode
            /// or fail with an error — never a panic or an abort.
            #[test]
            fn record_decoder_is_total(
                noise in prop::collection::vec(any::<u8>(), 0..96),
                at in any::<usize>(),
                byte in any::<u8>(),
                cut in any::<usize>(),
            ) {
                let _ = decode_record(&noise);

                let mut rec = sample_record();
                let i = at % rec.len();
                rec[i] = byte;
                rec.truncate(rec.len() - cut % 4);
                let _ = decode_record(&rec);
            }
        }
    }
}
