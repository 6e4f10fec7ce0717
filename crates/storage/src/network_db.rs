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

use crate::disk::file::FileMgr;
use crate::disk::heap::{HeapFile, HeapId, HeapStats};
use crate::disk::tempdir::TempDir;
use crate::error::{DbError, DbResult};
use crate::keys::KeyTuple;
use crate::stats::AccessStats;
use crate::txn::{Savepoint, UndoLog};
use dbpc_datamodel::constraint::Constraint;
use dbpc_datamodel::network::{Insertion, NetworkSchema, RecordTypeDef, Retention, SetDef};
use dbpc_datamodel::value::Value;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
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

/// Ordering key of a member within a set occurrence: the declared set-key
/// tuple, tie-broken by arrival sequence. Keyed sets sort by key alone
/// (duplicates are rejected, so the sequence never decides between live
/// members); keyless sets have an empty tuple and degrade to pure arrival
/// (chronological) order — exactly the two orders §4.2 prescribes.
type MemberOrd = (KeyTuple, u64);

/// Index identity: (record type, CALC field names) — one index per probe shape.
type CalcIndexKey = (String, Vec<String>);
/// One maintained index: key tuple → ids of matching records, in storage order.
type CalcIndex = BTreeMap<KeyTuple, Vec<u64>>;

/// Storage for one set type: per-owner ordered member maps plus the
/// member→owner and member→position indexes. Ordered maps make CONNECT,
/// DISCONNECT, ERASE and MODIFY repositioning O(log members) where the
/// former `Vec` representation paid an O(members) `retain` scan.
#[derive(Debug, Clone, Default)]
struct SetStore {
    members: BTreeMap<u64, BTreeMap<MemberOrd, u64>>,
    owner_of: BTreeMap<u64, u64>,
    /// member → its ordering key inside `members[owner_of[member]]`, so a
    /// member can be unlinked without scanning its siblings.
    ord_of: BTreeMap<u64, MemberOrd>,
    next_seq: u64,
}

impl SetStore {
    fn link(&mut self, owner: u64, member: u64, key: KeyTuple) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.members
            .entry(owner)
            .or_default()
            .insert((key.clone(), seq), member);
        self.ord_of.insert(member, (key, seq));
        self.owner_of.insert(member, owner);
    }

    /// Unlink `member` from its occurrence; returns the former owner.
    fn unlink(&mut self, member: u64) -> Option<u64> {
        let owner = self.owner_of.remove(&member)?;
        if let Some(ord) = self.ord_of.remove(&member) {
            if let Some(occ) = self.members.get_mut(&owner) {
                occ.remove(&ord);
                if occ.is_empty() {
                    self.members.remove(&owner);
                }
            }
        }
        Some(owner)
    }

    fn members_in_order(&self, owner: u64) -> Vec<u64> {
        self.members
            .get(&owner)
            .map(|occ| occ.values().copied().collect())
            .unwrap_or_default()
    }

    fn occurrence_len(&self, owner: u64) -> usize {
        self.members.get(&owner).map(|occ| occ.len()).unwrap_or(0)
    }

    /// Does the occurrence under `owner` already hold `key`?
    fn contains_key_under(&self, owner: u64, key: &KeyTuple) -> bool {
        self.members.get(&owner).is_some_and(|occ| {
            occ.range((key.clone(), 0)..=(key.clone(), u64::MAX))
                .next()
                .is_some()
        })
    }

    /// Reinstate a link at its **original** ordering key (undo path only:
    /// unlike [`SetStore::link`] no new arrival sequence is drawn, so the
    /// member returns to exactly the position it held).
    fn relink_at(&mut self, owner: u64, member: u64, ord: MemberOrd) {
        self.members
            .entry(owner)
            .or_default()
            .insert(ord.clone(), member);
        self.owner_of.insert(member, owner);
        self.ord_of.insert(member, ord);
    }
}

/// Physical inverse of one network mutation, journaled while a savepoint
/// is open. Set-store maps, `by_type` lists, and any materialized
/// calc-key index are maintained through the undo application, so a
/// rollback leaves every derived structure consistent.
#[derive(Debug, Clone)]
enum NetUndo {
    /// Undo a STORE: remove the record and its automatic/planned links.
    Store { id: u64 },
    /// Undo a CONNECT (or the link half of a MODIFY reposition).
    Link { set: String, member: u64 },
    /// Undo a DISCONNECT (or the unlink half of a MODIFY reposition):
    /// reinstate the link at its original ordering key.
    Unlink {
        set: String,
        owner: u64,
        member: u64,
        ord: MemberOrd,
    },
    /// Undo the value half of a MODIFY: restore the previous row image.
    Values { id: u64, values: Vec<Value> },
    /// Undo one record's removal inside an ERASE cascade: reinstate the
    /// record and every set link it held as a member.
    Erase {
        rec: StoredRecord,
        links: Vec<(String, u64, MemberOrd)>,
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
/// id → [`HeapId`] directory is the one structure that grows with the
/// record count (two words per record).
enum Backend {
    Mem(BTreeMap<u64, StoredRecord>),
    Heap(Box<HeapBackend>),
}

impl std::fmt::Debug for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::Mem(m) => write!(f, "Mem({} records)", m.len()),
            Backend::Heap(h) => write!(f, "Heap({} records)", h.dir.len()),
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
    /// Logical record id → physical slot, ascending (= creation) order.
    dir: BTreeMap<u64, HeapId>,
    /// Record types by id — kept in RAM so type dispatch, `by_type`
    /// bookkeeping, and erase paths never fault a page in.
    rtypes: BTreeMap<u64, String>,
    /// Records whose set links changed since the last `sync_links`
    /// (payload link sections are refreshed lazily, at checkpoints).
    link_dirty: BTreeSet<u64>,
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

    fn fetch(&self, id: u64) -> Option<StoredRecord> {
        let hid = *self.dir.get(&id)?;
        let bytes = self
            .with_heap(|h| h.get(hid))
            .unwrap_or_else(|e| panic!("heap record #{id} unreadable: {e}"));
        let (rec, _) =
            decode_record(&bytes).unwrap_or_else(|e| panic!("heap record #{id} undecodable: {e}"));
        Some(rec)
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
fn encode_record(id: u64, rtype: &str, values: &[Value], links: &[(String, u64, u64)]) -> Vec<u8> {
    use crate::disk::codec::ByteWriter;
    let mut w = ByteWriter::new();
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
    w.into_bytes()
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

/// A record's current set memberships `(set, owner, arrival seq)`, read
/// from the RAM set stores — the persisted form of its links.
fn persisted_links_of(sets: &BTreeMap<String, SetStore>, id: u64) -> PersistedLinks {
    sets.iter()
        .filter_map(|(name, st)| {
            let owner = *st.owner_of.get(&id)?;
            let (_, seq) = st.ord_of.get(&id)?;
            Some((name.clone(), owner, *seq))
        })
        .collect()
}

/// An owner-coupled-set database instance.
#[derive(Debug)]
pub struct NetworkDb {
    schema: NetworkSchema,
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
                schema: self.schema.clone(),
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
        let mut hb = HeapBackend::on(fm, "heap.dat", pool)?;
        hb.scratch = Some(dir);
        Ok(hb)
    }

    /// A heap backend over a caller-owned file manager (durable engine).
    fn on(fm: Arc<FileMgr>, file: &str, pool: usize) -> DbResult<HeapBackend> {
        let heap = HeapFile::open(Arc::clone(&fm), file, pool)
            .map_err(|e| DbError::constraint(format!("heap open: {e}")))?;
        Ok(HeapBackend {
            scratch: None,
            fm,
            pool,
            heap: RefCell::new(heap),
            dir: BTreeMap::new(),
            rtypes: BTreeMap::new(),
            link_dirty: BTreeSet::new(),
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

    /// Create an empty paged database whose heap file lives in a
    /// caller-owned [`FileMgr`] (the durable engine shares its directory
    /// with the WAL and manifest). The heap file must be empty or absent.
    pub fn paged_on(
        schema: NetworkSchema,
        fm: Arc<FileMgr>,
        file: &str,
        pool: usize,
    ) -> DbResult<NetworkDb> {
        let hb = HeapBackend::on(fm, file, pool)?;
        if hb.stats().pages > 0 {
            return Err(DbError::constraint(format!(
                "paged_on: heap file {file} is not empty"
            )));
        }
        NetworkDb::with_backend(schema, Backend::Heap(Box::new(hb)))
    }

    /// Reopen a paged database from an existing heap file: scan every
    /// live payload, rebuild the id directory, `by_type` lists, and all
    /// set stores from the persisted `(set, owner, seq)` links (ordering
    /// keys re-derived from values + schema keys). The caller supplies
    /// the allocator state the scan cannot know — `next_id` and each
    /// set's arrival counter — from its own durable metadata.
    pub fn recover_paged(
        schema: NetworkSchema,
        fm: Arc<FileMgr>,
        file: &str,
        pool: usize,
        next_id: u64,
        next_seqs: &[(String, u64)],
    ) -> DbResult<NetworkDb> {
        let hb = HeapBackend::on(fm, file, pool)?;
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
            let Backend::Heap(h) = &mut db.records else {
                return Err(DbError::constraint("recover_paged: not a heap backend"));
            };
            h.dir.insert(id, hid);
            h.rtypes.insert(id, rec.rtype.clone());
            db.by_type.entry(rec.rtype.clone()).or_default().push(id);
            let rt = db
                .schema
                .record(&rec.rtype)
                .ok_or_else(|| DbError::unknown("record", &rec.rtype))?;
            for (set_name, owner, seq) in links {
                let set = db
                    .schema
                    .set(&set_name)
                    .ok_or_else(|| DbError::unknown("set", &set_name))?;
                let key = if set.keys.is_empty() {
                    KeyTuple(Vec::new())
                } else {
                    key_tuple(rt, &rec.values, &set.keys)
                };
                let store = db
                    .sets
                    .get_mut(&set_name)
                    .ok_or_else(|| DbError::unknown("set", &set_name))?;
                store.relink_at(owner, id, (key, seq));
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
            schema,
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
                for &id in h.dir.keys().collect::<Vec<_>>() {
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
            Backend::Heap(h) => h.dir.contains_key(&id),
        }
    }

    /// A record's type, read from RAM (the Mem map, or the heap's type
    /// map), so type and existence checks never fetch a record.
    fn rtype_of(&self, id: RecordId) -> DbResult<&str> {
        match &self.records {
            Backend::Mem(m) => m.get(&id.0).map(|rec| rec.rtype.as_str()),
            Backend::Heap(h) => h.rtypes.get(&id.0).map(String::as_str),
        }
        .ok_or_else(|| DbError::NotFound(format!("record #{}", id.0)))
    }

    /// Insert a freshly created record (store / undo-of-erase).
    fn backend_insert(&mut self, rec: StoredRecord) {
        match &mut self.records {
            Backend::Mem(m) => {
                m.insert(rec.id.0, rec);
            }
            Backend::Heap(h) => {
                let id = rec.id.0;
                let bytes = encode_record(id, &rec.rtype, &rec.values, &[]);
                let hid = h
                    .with_heap(|heap| heap.insert(&bytes))
                    .unwrap_or_else(|e| panic!("heap insert #{id}: {e}"));
                h.dir.insert(id, hid);
                h.rtypes.insert(id, rec.rtype);
                h.link_dirty.insert(id);
            }
        }
    }

    /// Remove a record (erase / undo-of-store), returning it.
    fn backend_remove(&mut self, id: u64) -> Option<StoredRecord> {
        match &mut self.records {
            Backend::Mem(m) => m.remove(&id),
            Backend::Heap(h) => {
                let rec = h.fetch(id)?;
                let hid = h.dir.remove(&id)?;
                h.rtypes.remove(&id);
                h.link_dirty.remove(&id);
                h.with_heap(|heap| heap.erase(hid))
                    .unwrap_or_else(|e| panic!("heap erase #{id}: {e}"));
                Some(rec)
            }
        }
    }

    /// Overwrite the values of record `id`, of type `rtype` (modify /
    /// undo-of-modify). The caller already holds the record, so nothing
    /// is fetched here. Returns false if the record does not exist.
    fn backend_set_values(&mut self, id: u64, rtype: &str, values: Vec<Value>) -> bool {
        match &mut self.records {
            Backend::Mem(m) => match m.get_mut(&id) {
                Some(rec) => {
                    rec.values = values;
                    true
                }
                None => false,
            },
            Backend::Heap(h) => {
                let Some(&hid) = h.dir.get(&id) else {
                    return false;
                };
                // Values rewrite resyncs the link section too (it is
                // being re-encoded anyway), so drop any pending marker.
                let links = persisted_links_of(&self.sets, id);
                let bytes = encode_record(id, rtype, &values, &links);
                let new_hid = h
                    .with_heap(|heap| heap.update(hid, &bytes))
                    .unwrap_or_else(|e| panic!("heap update #{id}: {e}"));
                h.dir.insert(id, new_hid);
                h.link_dirty.remove(&id);
                true
            }
        }
    }

    /// Record that `id`'s set links changed; its heap payload is
    /// refreshed lazily by [`NetworkDb::sync_links`]. No-op in Mem mode.
    fn touch_links(&mut self, id: u64) {
        if let Backend::Heap(h) = &mut self.records {
            if h.dir.contains_key(&id) {
                h.link_dirty.insert(id);
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
        let pending: Vec<u64> = h.link_dirty.iter().copied().collect();
        for id in pending {
            let Some(rec) = h.fetch(id) else {
                h.link_dirty.remove(&id);
                continue;
            };
            let links = persisted_links_of(&self.sets, id);
            let bytes = encode_record(id, &rec.rtype, &rec.values, &links);
            let hid = h.dir[&id];
            let new_hid = h
                .with_heap(|heap| heap.update(hid, &bytes))
                .map_err(|e| DbError::constraint(format!("link sync #{id}: {e}")))?;
            h.dir.insert(id, new_hid);
            h.link_dirty.remove(&id);
        }
        Ok(())
    }

    /// Flush every dirty heap page to disk (no-op for Mem). Does not
    /// fsync — the caller owns the sync boundary.
    pub fn flush_heap(&mut self) -> DbResult<()> {
        match &mut self.records {
            Backend::Mem(_) => Ok(()),
            Backend::Heap(h) => h.with_heap(|heap| heap.flush()),
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
        match op {
            NetUndo::Store { id } => {
                // Mirror of `erase_inner`'s teardown: any link made *after*
                // the store was journaled separately and is already undone
                // (LIFO), so what remains are the store-time connections.
                for store in self.sets.values_mut() {
                    store.unlink(id);
                    store.members.remove(&id);
                }
                if let Some(rec) = self.backend_remove(id) {
                    if let Some(ids) = self.by_type.get_mut(&rec.rtype) {
                        if let Ok(pos) = ids.binary_search(&id) {
                            ids.remove(pos);
                        }
                    }
                    self.index_remove(&rec.rtype, &rec.values, id);
                }
            }
            NetUndo::Link { set, member } => {
                if let Some(store) = self.sets.get_mut(&set) {
                    store.unlink(member);
                }
                self.touch_links(member);
            }
            NetUndo::Unlink {
                set,
                owner,
                member,
                ord,
            } => {
                if let Some(store) = self.sets.get_mut(&set) {
                    store.relink_at(owner, member, ord);
                }
                self.touch_links(member);
            }
            NetUndo::Values { id, values } => {
                let Some((rtype, current)) =
                    self.with_rec(id, |r| (r.rtype.clone(), r.values.clone()))
                else {
                    return;
                };
                self.backend_set_values(id, &rtype, values.clone());
                self.index_update(&rtype, &current, &values, id);
            }
            NetUndo::Erase { rec, links } => {
                let id = rec.id.0;
                let ids = self.by_type.entry(rec.rtype.clone()).or_default();
                let pos = ids.partition_point(|&m| m < id);
                ids.insert(pos, id);
                self.index_add(&rec.rtype, &rec.values, id);
                self.backend_insert(rec);
                for (set, owner, ord) in links {
                    if let Some(store) = self.sets.get_mut(&set) {
                        store.relink_at(owner, id, ord);
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
            store.members.len().hash(&mut h);
            for (owner, occ) in &store.members {
                owner.hash(&mut h);
                for ((key, seq), member) in occ {
                    key.0.hash(&mut h);
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

    /// [`NetworkDb::to_paged`], but into a caller-owned heap file, which
    /// must hold no live records (virgin pages from a zeroed-out
    /// predecessor are fine). The durable engine's import copies through
    /// this.
    pub(crate) fn to_paged_on(
        &self,
        fm: Arc<FileMgr>,
        file: &str,
        pool: usize,
    ) -> DbResult<NetworkDb> {
        let hb = HeapBackend::on(fm, file, pool)?;
        if hb.stats().records > 0 {
            return Err(DbError::constraint(format!(
                "to_paged_on: heap file {file} holds records"
            )));
        }
        self.copy_into_heap(hb)
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
            Backend::Heap(h) => h.dir.keys().copied().collect(),
        };
        for id in ids {
            let Some((rtype, bytes)) = self.with_rec(id, |rec| {
                let links = persisted_links_of(&self.sets, id);
                let bytes = encode_record(id, &rec.rtype, &rec.values, &links);
                (rec.rtype.clone(), bytes)
            }) else {
                continue;
            };
            let hid = hb.with_heap(|heap| heap.insert(&bytes))?;
            hb.dir.insert(id, hid);
            hb.rtypes.insert(id, rtype);
        }
        let copy = NetworkDb {
            schema: self.schema.clone(),
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
            Backend::Heap(h) => h.dir.len(),
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
        if fields.is_empty() || fields.len() != key.len() {
            return Ok(None);
        }
        let rt = self.record_type(rtype)?;
        let mut idxs = Vec::with_capacity(fields.len());
        for f in fields {
            match rt.field_index(f) {
                Some(i) if !rt.fields[i].is_virtual() => idxs.push(i),
                _ => return Ok(None),
            }
        }
        let index_key = (
            rtype.to_string(),
            fields.iter().map(|f| f.to_string()).collect::<Vec<_>>(),
        );
        let mut indexes = self.calc_indexes.borrow_mut();
        let index = indexes.entry(index_key).or_insert_with(|| {
            let mut map: BTreeMap<KeyTuple, Vec<u64>> = BTreeMap::new();
            for &id in self
                .by_type
                .get(rtype)
                .map(Vec::as_slice)
                .unwrap_or_default()
            {
                let Some(k) = self.with_rec(id, |rec| {
                    KeyTuple(idxs.iter().map(|&i| rec.values[i].clone()).collect())
                }) else {
                    panic!("by_type lists record #{id} missing from the store");
                };
                map.entry(k).or_default().push(id);
            }
            map
        });
        let hit = index.get(&KeyTuple(key.to_vec()));
        self.stats.probed(hit.is_some());
        Ok(Some(
            hit.map(|v| v.iter().map(|&i| RecordId(i)).collect())
                .unwrap_or_default(),
        ))
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
        if fields.is_empty() {
            return Ok(None);
        }
        let rt = self.record_type(rtype)?;
        let mut idxs = Vec::with_capacity(fields.len());
        for f in fields {
            match rt.field_index(f) {
                Some(i) if !rt.fields[i].is_virtual() => idxs.push(i),
                _ => return Ok(None),
            }
        }
        let index_key = (
            rtype.to_string(),
            fields.iter().map(|f| f.to_string()).collect::<Vec<_>>(),
        );
        let mut indexes = self.calc_indexes.borrow_mut();
        let index = indexes.entry(index_key).or_insert_with(|| {
            let mut map: BTreeMap<KeyTuple, Vec<u64>> = BTreeMap::new();
            for &id in self
                .by_type
                .get(rtype)
                .map(Vec::as_slice)
                .unwrap_or_default()
            {
                let Some(k) = self.with_rec(id, |rec| {
                    KeyTuple(idxs.iter().map(|&i| rec.values[i].clone()).collect())
                }) else {
                    panic!("by_type lists record #{id} missing from the store");
                };
                map.entry(k).or_default().push(id);
            }
            map
        });
        Ok(Some(index.len() as u64))
    }

    /// `(occurrences with members, total member links)` of a set — the
    /// planner's fan-out statistic. Non-counting.
    pub fn set_fanout(&self, set: &str) -> DbResult<(u64, u64)> {
        let store = self
            .sets
            .get(set)
            .ok_or_else(|| DbError::unknown("set", set))?;
        let occupied = store.members.values().filter(|occ| !occ.is_empty()).count();
        Ok((occupied as u64, store.owner_of.len() as u64))
    }

    /// Members of a set occurrence, in set-key order.
    pub fn members_of(&self, set: &str, owner: RecordId) -> DbResult<Vec<RecordId>> {
        let store = self
            .sets
            .get(set)
            .ok_or_else(|| DbError::unknown("set", set))?;
        let ids = store.members_in_order(owner.0);
        self.stats.scanned(ids.len() as u64);
        Ok(ids.into_iter().map(RecordId).collect())
    }

    /// The owner of `member` in `set`, if connected.
    pub fn owner_in(&self, set: &str, member: RecordId) -> DbResult<Option<RecordId>> {
        let store = self
            .sets
            .get(set)
            .ok_or_else(|| DbError::unknown("set", set))?;
        Ok(store.owner_of.get(&member.0).map(|&i| RecordId(i)))
    }

    /// Read a field, resolving virtual fields through the owner. A virtual
    /// field of a disconnected member reads as `Null` (the "null instructor"
    /// device of §3.1).
    pub fn field_value(&self, id: RecordId, field: &str) -> DbResult<Value> {
        // Resolve in two steps so the virtual-field recursion runs after
        // the record access completes (no store borrow held across it).
        enum Fetched {
            Plain(Value),
            Virtual { set: String, source: String },
        }
        let step = self
            .with_rec(id.0, |rec| -> DbResult<Fetched> {
                let rt = self.record_type(&rec.rtype)?;
                let idx = rt
                    .field_index(field)
                    .ok_or_else(|| DbError::unknown("field", format!("{}.{}", rec.rtype, field)))?;
                match &rt.fields[idx].virtual_via {
                    None => Ok(Fetched::Plain(rec.values[idx].clone())),
                    Some(v) => Ok(Fetched::Virtual {
                        set: v.set.clone(),
                        source: v.source_field.clone(),
                    }),
                }
            })
            .ok_or_else(|| DbError::NotFound(format!("record #{}", id.0)))??;
        match step {
            Fetched::Plain(v) => Ok(v),
            Fetched::Virtual { set, source } => match self.owner_in(&set, id)? {
                None => Ok(Value::Null),
                Some(owner) => self.field_value(owner, &source),
            },
        }
    }

    /// All field values of a record in declaration order, virtuals resolved.
    pub fn resolved_values(&self, id: RecordId) -> DbResult<Vec<Value>> {
        let rec = self.get(id)?;
        let rt = self.record_type(&rec.rtype)?.clone();
        rt.fields
            .iter()
            .map(|f| self.field_value(id, &f.name))
            .collect()
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
        let rt = self.record_type(rtype)?.clone();
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
        self.check_row_constraints(rtype, &rt, &row, None)?;

        // Validate the requested connections before anything is inserted.
        let mut planned: Vec<(SetDef, RecordId)> = Vec::new();
        for (set_name, owner) in connects {
            let set = self
                .schema
                .set(set_name)
                .ok_or_else(|| DbError::unknown("set", *set_name))?
                .clone();
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
        for set in self.schema.sets_with_member(rtype) {
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

        // Pre-check occupancy rules for each planned connection.
        for (set, owner) in &planned {
            self.check_connectable(set, *owner, &rt, &row)?;
        }
        // System sets: duplicate-key check against the single occurrence.
        let system_sets: Vec<SetDef> = self
            .schema
            .system_sets_of(rtype)
            .into_iter()
            .cloned()
            .collect();
        for set in &system_sets {
            self.check_connectable(set, SYSTEM_OWNER, &rt, &row)?;
        }

        let id = RecordId(self.next_id);
        self.next_id += 1;
        self.backend_insert(StoredRecord {
            id,
            rtype: rtype.to_string(),
            values: row.clone(),
        });
        self.by_type
            .entry(rtype.to_string())
            .or_default()
            .push(id.0);
        self.index_add(rtype, &row, id.0);
        for set in &system_sets {
            self.insert_member(set, SYSTEM_OWNER, id, &rt, &row);
        }
        for (set, owner) in &planned {
            self.insert_member(set, *owner, id, &rt, &row);
        }
        // One op covers the record and its store-time links; the undo
        // tears them all down, mirroring an erase.
        self.journal.record_with(|| NetUndo::Store { id: id.0 });
        Ok(id)
    }

    /// Connect an existing record into a set occurrence (`CONNECT`).
    pub fn connect(&mut self, set_name: &str, owner: RecordId, member: RecordId) -> DbResult<()> {
        let set = self
            .schema
            .set(set_name)
            .ok_or_else(|| DbError::unknown("set", set_name))?
            .clone();
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
        if self.sets[set_name].owner_of.contains_key(&member.0) {
            return Err(DbError::Membership(format!(
                "record #{} already connected in set {set_name}",
                member.0
            )));
        }
        let rt = self.record_type(&mem_rec.rtype)?.clone();
        self.check_connectable(&set, owner, &rt, &mem_rec.values)?;
        self.insert_member(&set, owner, member, &rt, &mem_rec.values);
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
        let set = self
            .schema
            .set(set_name)
            .ok_or_else(|| DbError::unknown("set", set_name))?
            .clone();
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
        let Some(store) = self.sets.get(set_name) else {
            return Err(DbError::unknown("set", set_name));
        };
        let owner = *store
            .owner_of
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
        let Some(store) = self.sets.get_mut(set_name) else {
            return Err(DbError::unknown("set", set_name));
        };
        let ord = store.ord_of.get(&member.0).cloned();
        store.unlink(member.0);
        self.touch_links(member.0);
        if let Some(ord) = ord {
            self.journal.record_with(|| NetUndo::Unlink {
                set: set_name.to_string(),
                owner,
                member: member.0,
                ord,
            });
        }
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
        let rtype = self.rtype_of(id)?.to_string();
        // Gather owned occurrences.
        let owned_sets: Vec<SetDef> = self
            .schema
            .sets_owned_by(&rtype)
            .into_iter()
            .cloned()
            .collect();
        for set in &owned_sets {
            let members: Vec<u64> = self.sets[&set.name].members_in_order(id.0);
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
        let links: Vec<(String, u64, MemberOrd)> = if self.journal.active() {
            self.sets
                .iter()
                .filter_map(|(name, st)| {
                    let owner = *st.owner_of.get(&id.0)?;
                    let ord = st.ord_of.get(&id.0)?.clone();
                    Some((name.clone(), owner, ord))
                })
                .collect()
        } else {
            Vec::new()
        };
        // Remove from all sets in which it participates as member. (Any
        // occurrence it *owned* is empty by now: members were either erased
        // above or their presence aborted the operation.)
        for store in self.sets.values_mut() {
            store.unlink(id.0);
            store.members.remove(&id.0);
        }
        let Some(rec) = self.backend_remove(id.0) else {
            return Err(DbError::NotFound(format!("record #{}", id.0)));
        };
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
        let rt = self.record_type(&rec.rtype)?.clone();
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
        self.check_row_constraints(&rec.rtype, &rt, &new_row, Some(id))?;

        // Which sets' key tuples change?
        let member_sets: Vec<SetDef> = self
            .schema
            .sets_with_member(&rec.rtype)
            .into_iter()
            .cloned()
            .collect();
        for set in &member_sets {
            if set.keys.is_empty() {
                continue;
            }
            let old_key = key_tuple(&rt, &rec.values, &set.keys);
            let new_key = key_tuple(&rt, &new_row, &set.keys);
            if old_key == new_key {
                continue;
            }
            if let Some(&owner) = self.sets[&set.name].owner_of.get(&id.0) {
                // Duplicate check against siblings: a single ordered-map
                // probe. The record itself cannot collide — its old key
                // differs from `new_key`.
                let dup = self.sets[&set.name].contains_key_under(owner, &new_key);
                self.stats.probed(dup);
                if dup {
                    return Err(DbError::Duplicate {
                        scope: format!("set {}", set.name),
                        key: format!("{:?}", new_key.0),
                    });
                }
            }
        }
        // Commit the new values, then reposition.
        if !self.backend_set_values(id.0, &rec.rtype, new_row.clone()) {
            return Err(DbError::NotFound(format!("record #{}", id.0)));
        }
        self.index_update(&rec.rtype, &rec.values, &new_row, id.0);
        self.journal.record_with(|| NetUndo::Values {
            id: id.0,
            values: rec.values.clone(),
        });
        for set in &member_sets {
            if set.keys.is_empty() {
                continue;
            }
            let old_key = key_tuple(&rt, &rec.values, &set.keys);
            let new_key = key_tuple(&rt, &new_row, &set.keys);
            if old_key == new_key {
                continue;
            }
            let Some(store) = self.sets.get_mut(&set.name) else {
                continue;
            };
            let old_ord = store.ord_of.get(&id.0).cloned();
            if let Some(owner) = store.unlink(id.0) {
                store.link(owner, id.0, new_key);
                if let Some(ord) = old_ord {
                    // LIFO: undo the relink first, then restore the old
                    // position — journal the pair in operation order.
                    self.journal.record_with(|| NetUndo::Unlink {
                        set: set.name.clone(),
                        owner,
                        member: id.0,
                        ord,
                    });
                    self.journal.record_with(|| NetUndo::Link {
                        set: set.name.clone(),
                        member: id.0,
                    });
                }
            }
            // Repositioning drew a fresh arrival sequence; the persisted
            // link section is refreshed at the next sync.
            self.touch_links(id.0);
        }
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
    /// probe into the occurrence).
    fn check_connectable(
        &self,
        set: &SetDef,
        owner: RecordId,
        rt: &RecordTypeDef,
        row: &[Value],
    ) -> DbResult<()> {
        let store = &self.sets[&set.name];
        if let Some(max) = self.cardinality_max(&set.name) {
            if store.occurrence_len(owner.0) as u32 >= max {
                return Err(DbError::constraint(format!(
                    "cardinality maximum {max} on {} reached",
                    set.name
                )));
            }
        }
        if !set.keys.is_empty() {
            let key = key_tuple(rt, row, &set.keys);
            let dup = store.contains_key_under(owner.0, &key);
            self.stats.probed(dup);
            if dup {
                return Err(DbError::Duplicate {
                    scope: format!("set {}", set.name),
                    key: format!("{:?}", key.0),
                });
            }
        }
        Ok(())
    }

    /// Link a member into its occurrence; the ordered map places it at its
    /// key position (keyed sets) or at the chronological end (keyless).
    fn insert_member(
        &mut self,
        set: &SetDef,
        owner: RecordId,
        member: RecordId,
        rt: &RecordTypeDef,
        row: &[Value],
    ) {
        let key = if set.keys.is_empty() {
            KeyTuple(Vec::new())
        } else {
            key_tuple(rt, row, &set.keys)
        };
        if let Some(store) = self.sets.get_mut(&set.name) {
            store.link(owner.0, member.0, key);
        }
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

        // Set stores: members ↔ owner_of ↔ ord_of, plus key correctness.
        for (name, store) in &self.sets {
            let Some(set) = self.schema.set(name) else {
                return Err(format!("set {name} stored but not in schema"));
            };
            let mut linked = 0usize;
            for (&owner, occ) in &store.members {
                if occ.is_empty() {
                    return Err(format!("set {name}: empty occurrence kept for #{owner}"));
                }
                for (ord, &member) in occ {
                    linked += 1;
                    if store.owner_of.get(&member) != Some(&owner) {
                        return Err(format!("set {name}: owner_of[#{member}] ≠ #{owner}"));
                    }
                    if store.ord_of.get(&member) != Some(ord) {
                        return Err(format!("set {name}: ord_of[#{member}] stale"));
                    }
                    let want_key = if set.keys.is_empty() {
                        self.backend_contains(member).then(|| KeyTuple(Vec::new()))
                    } else {
                        self.member_key(member, &set.keys)
                    }
                    .ok_or_else(|| format!("set {name}: member #{member} is not stored"))?;
                    if ord.0 != want_key {
                        return Err(format!(
                            "set {name}: #{member} filed under {:?}, want {:?}",
                            ord.0, want_key.0
                        ));
                    }
                }
            }
            if store.owner_of.len() != linked || store.ord_of.len() != linked {
                return Err(format!(
                    "set {name}: {} owner_of / {} ord_of entries for {linked} links",
                    store.owner_of.len(),
                    store.ord_of.len()
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

    mod decoders {
        use super::*;
        use proptest::prelude::*;

        fn sample_record() -> Vec<u8> {
            encode_record(
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
