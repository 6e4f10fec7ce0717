//! The hierarchical (IMS-like) storage engine.
//!
//! Segment instances form forests mirroring the schema's segment-type trees.
//! The **hierarchic order** — root occurrence, then for each child *type* in
//! declaration order, each child *occurrence* (in sequence-field order) with
//! its whole subtree — defines the database traversal sequence that DL/I
//! `GN` (get next) walks. The Mehl & Wang experiment (paper ref 11) is
//! precisely about what happens to programs when a restructuring permutes
//! this order.

use crate::error::{DbError, DbResult};
use crate::stats::AccessStats;
use crate::txn::{Savepoint, UndoLog};
use dbpc_datamodel::hierarchical::{HierSchema, SegmentDef};
use dbpc_datamodel::value::Value;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// A stored segment occurrence.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentInstance {
    pub id: u64,
    pub seg_type: String,
    pub values: Vec<Value>,
    pub parent: Option<u64>,
    /// Children in hierarchic order (grouped by child type rank, then
    /// sequence-field value, then insertion order).
    pub children: Vec<u64>,
}

/// Cached hierarchic (preorder) sequence plus derived lookup structures.
/// Rebuilt lazily after a structural mutation; every `GN`/`GNP` between
/// mutations reuses it, making navigation amortized O(1) in rebuilds.
#[derive(Debug, Clone)]
struct PreorderCache {
    /// The full database in hierarchic sequence.
    order: Vec<u64>,
    /// Segment id → index in `order`.
    pos: BTreeMap<u64, usize>,
    /// Segment type → ascending indices into `order` (for type-filtered
    /// `GN`: the next occurrence is a binary search, not a forward scan).
    by_type: BTreeMap<String, Vec<usize>>,
    /// Segment id → subtree size including self (`GNP` bounds its search
    /// to `pos[parent]+1 .. pos[parent]+subtree[parent]`).
    subtree: BTreeMap<u64, usize>,
}

/// Physical inverse of one hierarchic mutation, journaled while a
/// savepoint is open. The preorder cache is not journaled: rollback
/// restores the segment forest and rebuilds (or drops) the cache to
/// match the state the savepoint captured.
#[derive(Debug, Clone)]
enum HierUndo {
    /// Undo an `ISRT`: remove the segment and its sibling-list entry.
    Insert { id: u64 },
    /// Undo a `REPL`: restore the previous values; when the replace
    /// repositioned the segment, restore the exact sibling list too.
    Replace {
        id: u64,
        values: Vec<Value>,
        parent: Option<u64>,
        siblings: Option<Vec<u64>>,
    },
    /// Undo a `DLET`: reinstate the whole subtree (captured in preorder)
    /// and re-link the top segment at its original sibling position.
    Delete {
        id: u64,
        parent: Option<u64>,
        pos: usize,
        subtree: Vec<SegmentInstance>,
    },
}

/// Per-savepoint metadata: the id allocator, and whether the preorder
/// cache was populated (so rollback can restore cache warmth exactly —
/// a later run must see the same rebuild count it would have seen had
/// the rolled-back suffix never executed).
#[derive(Debug, Clone)]
struct HierMark {
    next_id: u64,
    cache_was_valid: bool,
}

/// A hierarchical database instance.
#[derive(Debug, Clone)]
pub struct HierDb {
    schema: HierSchema,
    segs: BTreeMap<u64, SegmentInstance>,
    /// Root occurrences in (root type rank, sequence, insertion) order.
    roots: Vec<u64>,
    next_id: u64,
    /// Schema-derived: segment type → rank among its parent's child types
    /// (or among the schema roots, for root types).
    type_rank: BTreeMap<String, usize>,
    /// Schema-derived: segment type → index of its sequence field.
    seq_idx: BTreeMap<String, Option<usize>>,
    /// Lazily (re)built preorder cache; `None` after a structural change.
    cache: RefCell<Option<PreorderCache>>,
    /// Access-path counters.
    stats: AccessStats,
    /// Undo journal (see [`crate::txn`]).
    journal: UndoLog<HierUndo, HierMark>,
}

impl HierDb {
    pub fn new(schema: HierSchema) -> DbResult<HierDb> {
        schema
            .validate()
            .map_err(|e| DbError::constraint(e.to_string()))?;
        let mut type_rank = BTreeMap::new();
        let mut seq_idx = BTreeMap::new();
        fn walk(
            def: &SegmentDef,
            rank: usize,
            type_rank: &mut BTreeMap<String, usize>,
            seq_idx: &mut BTreeMap<String, Option<usize>>,
        ) {
            type_rank.insert(def.name.clone(), rank);
            seq_idx.insert(
                def.name.clone(),
                def.seq_field.as_ref().and_then(|f| def.field_index(f)),
            );
            for (i, c) in def.children.iter().enumerate() {
                walk(c, i, type_rank, seq_idx);
            }
        }
        for (i, r) in schema.roots.iter().enumerate() {
            walk(r, i, &mut type_rank, &mut seq_idx);
        }
        Ok(HierDb {
            schema,
            segs: BTreeMap::new(),
            roots: Vec::new(),
            next_id: 1,
            type_rank,
            seq_idx,
            cache: RefCell::new(None),
            stats: AccessStats::default(),
            journal: UndoLog::default(),
        })
    }

    /// Open a savepoint. Until it is rolled back or committed, every
    /// mutation journals its inverse. Savepoints nest.
    pub fn begin_savepoint(&mut self) -> Savepoint {
        self.journal.begin(HierMark {
            next_id: self.next_id,
            cache_was_valid: self.cache.borrow().is_some(),
        })
    }

    /// Restore the database to its state at `begin_savepoint`: the
    /// segment forest, sibling orders, the id allocator, and the preorder
    /// cache's warmth. Savepoints opened after `sp` are discarded; a
    /// stale handle is a no-op.
    pub fn rollback_to(&mut self, sp: Savepoint) {
        if let Some((ops, mark)) = self.journal.rollback(sp) {
            let structural = !ops.is_empty();
            for op in ops {
                self.apply_undo(op);
            }
            self.next_id = mark.next_id;
            if structural {
                // Re-warm (or drop) the cache to match the savepoint:
                // the run being undone must not change how many rebuilds
                // a *later* run observes. The rebuild here is silent —
                // it is cache restoration, not navigation work.
                self.invalidate_cache();
                if mark.cache_was_valid {
                    *self.cache.get_mut() = Some(self.build_cache());
                }
            }
        }
    }

    /// Keep everything done since `sp` and close it (plus any savepoint
    /// nested inside it). A stale handle is a no-op.
    pub fn commit(&mut self, sp: Savepoint) {
        self.journal.commit(sp);
    }

    fn apply_undo(&mut self, op: HierUndo) {
        match op {
            HierUndo::Insert { id } => {
                if let Some(inst) = self.segs.remove(&id) {
                    match inst.parent {
                        Some(pid) => {
                            if let Some(p) = self.segs.get_mut(&pid) {
                                p.children.retain(|&c| c != id);
                            }
                        }
                        None => self.roots.retain(|&r| r != id),
                    }
                }
            }
            HierUndo::Replace {
                id,
                values,
                parent,
                siblings,
            } => {
                if let Some(s) = self.segs.get_mut(&id) {
                    s.values = values;
                }
                if let Some(sibs) = siblings {
                    match parent {
                        Some(pid) => {
                            if let Some(p) = self.segs.get_mut(&pid) {
                                p.children = sibs;
                            }
                        }
                        None => self.roots = sibs,
                    }
                }
            }
            HierUndo::Delete {
                id,
                parent,
                pos,
                subtree,
            } => {
                for inst in subtree {
                    self.segs.insert(inst.id, inst);
                }
                match parent {
                    Some(pid) => {
                        if let Some(p) = self.segs.get_mut(&pid) {
                            let at = pos.min(p.children.len());
                            p.children.insert(at, id);
                        }
                    }
                    None => {
                        let at = pos.min(self.roots.len());
                        self.roots.insert(at, id);
                    }
                }
            }
        }
    }

    /// Deterministic digest of the full logical state: the segment
    /// forest (values, parentage, sibling order), root order, and the id
    /// allocator. The preorder cache is excluded — it is derived, and
    /// verified by [`HierDb::check_access_structures`].
    pub fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.next_id.hash(&mut h);
        self.roots.hash(&mut h);
        self.segs.len().hash(&mut h);
        for (id, inst) in &self.segs {
            id.hash(&mut h);
            inst.seg_type.hash(&mut h);
            inst.values.hash(&mut h);
            inst.parent.hash(&mut h);
            inst.children.hash(&mut h);
        }
        h.finish()
    }

    /// Access-path counters for this database.
    pub fn access_stats(&self) -> &AccessStats {
        &self.stats
    }

    /// Drop the preorder cache after a structural mutation.
    fn invalidate_cache(&mut self) {
        *self.cache.get_mut() = None;
    }

    fn build_cache(&self) -> PreorderCache {
        let mut order = Vec::with_capacity(self.segs.len());
        let mut subtree = BTreeMap::new();
        fn walk(
            db: &HierDb,
            id: u64,
            order: &mut Vec<u64>,
            subtree: &mut BTreeMap<u64, usize>,
        ) -> usize {
            order.push(id);
            let mut size = 1;
            for &c in &db.segs[&id].children {
                size += walk(db, c, order, subtree);
            }
            subtree.insert(id, size);
            size
        }
        for &r in &self.roots {
            walk(self, r, &mut order, &mut subtree);
        }
        let mut pos = BTreeMap::new();
        let mut by_type: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, &id) in order.iter().enumerate() {
            pos.insert(id, i);
            by_type
                .entry(self.segs[&id].seg_type.clone())
                .or_default()
                .push(i);
        }
        PreorderCache {
            order,
            pos,
            by_type,
            subtree,
        }
    }

    /// Run `f` against the preorder cache, building it first if needed.
    fn with_cache<R>(&self, f: impl FnOnce(&PreorderCache) -> R) -> R {
        let mut slot = self.cache.borrow_mut();
        if slot.is_none() {
            self.stats.rebuilt_preorder();
            *slot = Some(self.build_cache());
        }
        match slot.as_ref() {
            Some(c) => f(c),
            // Unreachable: the slot was filled just above.
            None => f(&self.build_cache()),
        }
    }

    pub fn schema(&self) -> &HierSchema {
        &self.schema
    }

    pub fn segment_count(&self) -> usize {
        self.segs.len()
    }

    pub fn get(&self, id: u64) -> DbResult<&SegmentInstance> {
        self.segs
            .get(&id)
            .ok_or_else(|| DbError::NotFound(format!("segment #{id}")))
    }

    fn seg_def(&self, name: &str) -> DbResult<&SegmentDef> {
        self.schema
            .segment(name)
            .ok_or_else(|| DbError::unknown("segment", name))
    }

    /// Insert a segment occurrence (`ISRT`).
    ///
    /// A root-type segment takes `parent = None`; a dependent segment's
    /// parent occurrence must be of its schema parent type.
    pub fn insert(
        &mut self,
        seg_type: &str,
        values: &[(&str, Value)],
        parent: Option<u64>,
    ) -> DbResult<u64> {
        let def = self.seg_def(seg_type)?.clone();
        let mut row = vec![Value::Null; def.fields.len()];
        for (name, v) in values {
            let idx = def
                .field_index(name)
                .ok_or_else(|| DbError::unknown("field", format!("{seg_type}.{name}")))?;
            if !def.fields[idx].ty.admits(v) {
                return Err(DbError::TypeMismatch {
                    field: format!("{seg_type}.{name}"),
                    detail: format!("{} does not fit {}", v.type_name(), def.fields[idx].ty),
                });
            }
            row[idx] = v.clone();
        }
        let schema_parent = self.schema.parent_of(seg_type).map(str::to_string);
        match (&schema_parent, parent) {
            (None, Some(_)) => {
                return Err(DbError::Membership(format!(
                    "segment type {seg_type} is a root; no parent allowed"
                )))
            }
            (Some(p), None) => {
                return Err(DbError::Membership(format!(
                    "segment type {seg_type} requires a parent of type {p}"
                )))
            }
            (Some(p), Some(pid)) => {
                let prec = self.get(pid)?;
                if &prec.seg_type != p {
                    return Err(DbError::Membership(format!(
                        "segment type {seg_type} requires parent type {p}, got {}",
                        prec.seg_type
                    )));
                }
            }
            (None, None) => {}
        }

        let id = self.next_id;
        self.next_id += 1;
        let inst = SegmentInstance {
            id,
            seg_type: seg_type.to_string(),
            values: row.clone(),
            parent,
            children: Vec::new(),
        };
        match parent {
            Some(pid) => {
                // Position first (it only scans existing siblings), then
                // store and link.
                let pos = self.child_position(pid, seg_type, &def, &row)?;
                self.segs.insert(id, inst);
                if let Some(p) = self.segs.get_mut(&pid) {
                    p.children.insert(pos, id);
                }
            }
            None => {
                let pos = self.root_position(seg_type, &def, &row);
                self.segs.insert(id, inst);
                self.roots.insert(pos, id);
            }
        }
        self.journal.record_with(|| HierUndo::Insert { id });
        self.invalidate_cache();
        Ok(id)
    }

    /// Where does a new child of `seg_type` with `row` go among `pid`'s
    /// children? Group by child-type rank, then sequence field, then
    /// insertion order.
    fn child_position(
        &self,
        pid: u64,
        seg_type: &str,
        def: &SegmentDef,
        row: &[Value],
    ) -> DbResult<usize> {
        let parent = self.get(pid)?;
        // Ordinal maps precomputed at construction replace the former
        // per-sibling `position()` scans over the schema's child lists.
        let rank = self.type_rank[seg_type];
        let seq_val = self.seq_idx[seg_type].map(|i| &row[i]);
        debug_assert!(def.name == seg_type);
        let children = &parent.children;
        let mut pos = children.len();
        for (i, cid) in children.iter().enumerate() {
            let c = &self.segs[cid];
            let crank = self.type_rank[&c.seg_type];
            if crank < rank {
                continue;
            }
            if crank > rank {
                pos = i;
                break;
            }
            // Same type: order by sequence field (stable: insertions of
            // equal keys stay in arrival order).
            if let (Some(sv), Some(ci)) =
                (seq_val, self.seq_idx.get(&c.seg_type).copied().flatten())
            {
                let cseq = &c.values[ci];
                if sv.total_cmp(cseq) == std::cmp::Ordering::Less {
                    pos = i;
                    break;
                }
            }
        }
        Ok(pos)
    }

    fn root_position(&self, seg_type: &str, def: &SegmentDef, row: &[Value]) -> usize {
        let rank = self.type_rank[seg_type];
        let seq_val = self.seq_idx[seg_type].map(|i| &row[i]);
        debug_assert!(def.name == seg_type);
        let mut pos = self.roots.len();
        for (i, rid) in self.roots.iter().enumerate() {
            let r = &self.segs[rid];
            let rrank = self.type_rank[&r.seg_type];
            if rrank < rank {
                continue;
            }
            if rrank > rank {
                pos = i;
                break;
            }
            if let (Some(sv), Some(ri)) =
                (seq_val, self.seq_idx.get(&r.seg_type).copied().flatten())
            {
                let rseq = &r.values[ri];
                if sv.total_cmp(rseq) == std::cmp::Ordering::Less {
                    pos = i;
                    break;
                }
            }
        }
        pos
    }

    /// The full database in hierarchic (preorder) sequence — the order `GN`
    /// traverses. Served from the preorder cache; prefer
    /// [`HierDb::next_in_preorder`] for stepwise navigation, which avoids
    /// materializing the sequence.
    pub fn preorder(&self) -> Vec<u64> {
        self.with_cache(|c| c.order.clone())
    }

    /// Hierarchic successor: the first segment after `after` (or the first
    /// segment of the database when `after` is `None`), optionally
    /// restricted to `seg_type`. A stale `after` (deleted id) restarts from
    /// the front, matching the historical linear-search behaviour.
    ///
    /// Amortized O(log n) against the cache: the position lookup is a map
    /// probe and the type filter a binary search over that type's
    /// occurrence positions. It counts, as scanned rows, every segment a
    /// sequential `GN` would examine: the ones of other types it steps
    /// over and the hit itself (or the rest of the database when there is
    /// no hit).
    pub fn next_in_preorder(&self, after: Option<u64>, seg_type: Option<&str>) -> Option<u64> {
        self.with_cache(|c| {
            let start = match after {
                Some(p) => c.pos.get(&p).map_or(0, |&i| i + 1),
                None => 0,
            };
            let hit_pos = match seg_type {
                None => (start < c.order.len()).then_some(start),
                Some(t) => c.by_type.get(t).and_then(|positions| {
                    let k = positions.partition_point(|&p| p < start);
                    positions.get(k).copied()
                }),
            };
            let examined = hit_pos.map_or(c.order.len(), |p| p + 1);
            self.stats.scanned((examined - start) as u64);
            self.stats.probed(hit_pos.is_some());
            hit_pos.map(|p| c.order[p])
        })
    }

    /// Hierarchic successor **within `root`'s subtree** (exclusive of
    /// `root` itself): the `GNP` step. `after` semantics mirror
    /// [`HierDb::next_in_preorder`] — `None`, `root` itself, or a stale id
    /// start from the first descendant — and so does its count of scanned
    /// rows, bounded by the subtree.
    pub fn next_within(
        &self,
        root: u64,
        after: Option<u64>,
        seg_type: Option<&str>,
    ) -> Option<u64> {
        self.with_cache(|c| {
            let rpos = *c.pos.get(&root)?;
            let end = rpos + c.subtree[&root]; // exclusive
            let start = match after {
                Some(p) if p != root => match c.pos.get(&p) {
                    Some(&i) if i > rpos && i < end => i + 1,
                    _ => rpos + 1,
                },
                _ => rpos + 1,
            };
            let hit_pos = match seg_type {
                None => (start < end).then_some(start),
                Some(t) => c.by_type.get(t).and_then(|positions| {
                    let k = positions.partition_point(|&p| p < start);
                    positions.get(k).copied().filter(|&p| p < end)
                }),
            };
            let examined = hit_pos.map_or(end, |p| p + 1);
            self.stats.scanned((examined - start) as u64);
            self.stats.probed(hit_pos.is_some());
            hit_pos.map(|p| c.order[p])
        })
    }

    fn preorder_into(&self, id: u64, out: &mut Vec<u64>) {
        out.push(id);
        for &c in &self.segs[&id].children {
            self.preorder_into(c, out);
        }
    }

    /// Children of `id` having segment type `seg_type`, in hierarchic order.
    /// Every child of `id` is examined, so each counts as a scanned row.
    pub fn children_of(&self, id: u64, seg_type: &str) -> DbResult<Vec<u64>> {
        let inst = self.get(id)?;
        self.stats.scanned(inst.children.len() as u64);
        Ok(inst
            .children
            .iter()
            .copied()
            .filter(|c| self.segs[c].seg_type == seg_type)
            .collect())
    }

    /// Read one field of a segment occurrence.
    pub fn field_value(&self, id: u64, field: &str) -> DbResult<Value> {
        let inst = self.get(id)?;
        let def = self.seg_def(&inst.seg_type)?;
        let idx = def
            .field_index(field)
            .ok_or_else(|| DbError::unknown("field", format!("{}.{field}", inst.seg_type)))?;
        Ok(inst.values[idx].clone())
    }

    /// Replace fields of a segment occurrence (`REPL`). Changing the
    /// sequence field repositions the occurrence among its siblings.
    pub fn replace(&mut self, id: u64, assigns: &[(&str, Value)]) -> DbResult<()> {
        let inst = self.get(id)?.clone();
        let def = self.seg_def(&inst.seg_type)?.clone();
        let mut row = inst.values.clone();
        for (name, v) in assigns {
            let idx = def
                .field_index(name)
                .ok_or_else(|| DbError::unknown("field", format!("{}.{name}", inst.seg_type)))?;
            if !def.fields[idx].ty.admits(v) {
                return Err(DbError::TypeMismatch {
                    field: format!("{}.{name}", inst.seg_type),
                    detail: format!("{} does not fit {}", v.type_name(), def.fields[idx].ty),
                });
            }
            row[idx] = v.clone();
        }
        let seq_changed = def
            .seq_field
            .as_ref()
            .and_then(|f| def.field_index(f))
            .is_some_and(|i| !inst.values[i].loose_eq(&row[i]));
        // Journal the pre-image (and, for a reposition, the exact sibling
        // list) before mutating anything.
        let old_siblings = if self.journal.active() && seq_changed {
            Some(match inst.parent {
                Some(pid) => self
                    .segs
                    .get(&pid)
                    .map(|p| p.children.clone())
                    .unwrap_or_default(),
                None => self.roots.clone(),
            })
        } else {
            None
        };
        let Some(seg) = self.segs.get_mut(&id) else {
            return Err(DbError::NotFound(format!("segment #{id}")));
        };
        seg.values = row.clone();
        if seq_changed {
            match inst.parent {
                Some(pid) => {
                    if let Some(p) = self.segs.get_mut(&pid) {
                        p.children.retain(|&c| c != id);
                    }
                    let pos = self.child_position(pid, &inst.seg_type, &def, &row)?;
                    if let Some(p) = self.segs.get_mut(&pid) {
                        p.children.insert(pos, id);
                    }
                }
                None => {
                    self.roots.retain(|&r| r != id);
                    let pos = self.root_position(&inst.seg_type, &def, &row);
                    self.roots.insert(pos, id);
                }
            }
            // Only a reposition perturbs hierarchic order; plain value
            // updates leave the cache valid.
            self.invalidate_cache();
        }
        self.journal.record_with(|| HierUndo::Replace {
            id,
            values: inst.values.clone(),
            parent: inst.parent,
            siblings: old_siblings,
        });
        Ok(())
    }

    /// Delete a segment occurrence and its whole subtree (`DLET` — IMS
    /// deletes dependents implicitly, the §3.1 cascade hazard in
    /// hierarchical form). Returns the number of segments deleted.
    pub fn delete(&mut self, id: u64) -> DbResult<usize> {
        let inst = self.get(id)?.clone();
        let pos = match inst.parent {
            Some(pid) => self
                .segs
                .get(&pid)
                .and_then(|p| p.children.iter().position(|&c| c == id)),
            None => self.roots.iter().position(|&r| r == id),
        }
        .unwrap_or(usize::MAX);
        match inst.parent {
            Some(pid) => {
                if let Some(p) = self.segs.get_mut(&pid) {
                    p.children.retain(|&c| c != id);
                }
            }
            None => self.roots.retain(|&r| r != id),
        }
        let mut doomed = Vec::new();
        self.preorder_into(id, &mut doomed);
        // Snapshot the subtree (in preorder, children lists intact) for
        // the undo journal before tearing it down.
        let subtree: Vec<SegmentInstance> = if self.journal.active() {
            doomed
                .iter()
                .filter_map(|d| self.segs.get(d).cloned())
                .collect()
        } else {
            Vec::new()
        };
        for d in &doomed {
            self.segs.remove(d);
        }
        self.journal.record_with(|| HierUndo::Delete {
            id,
            parent: inst.parent,
            pos,
            subtree,
        });
        self.invalidate_cache();
        Ok(doomed.len())
    }

    /// Every segment type the schema declares, in hierarchic definition
    /// order (root-first preorder rank).
    pub fn segment_types(&self) -> Vec<String> {
        let mut names: Vec<(&usize, &String)> =
            self.type_rank.iter().map(|(n, r)| (r, n)).collect();
        names.sort();
        names.into_iter().map(|(_, n)| n.clone()).collect()
    }

    /// Current occurrence count of a segment type. Non-counting and
    /// cache-neutral: reads the preorder cache when it happens to be warm,
    /// otherwise counts segments directly — it never forces (or tallies) a
    /// preorder rebuild, so planning is invisible to `preorder_rebuilds`.
    pub fn type_cardinality(&self, seg_type: &str) -> u64 {
        if let Some(c) = self.cache.borrow().as_ref() {
            return c.by_type.get(seg_type).map_or(0, |v| v.len() as u64);
        }
        self.segs
            .values()
            .filter(|s| s.seg_type == seg_type)
            .count() as u64
    }

    /// All occurrences of a segment type in hierarchic order, each counted
    /// as a scanned row.
    pub fn occurrences_of(&self, seg_type: &str) -> Vec<u64> {
        let ids: Vec<u64> = self.with_cache(|c| {
            c.by_type
                .get(seg_type)
                .map(|positions| positions.iter().map(|&p| c.order[p]).collect())
                .unwrap_or_default()
        });
        self.stats.scanned(ids.len() as u64);
        ids
    }

    /// Verify the preorder cache (when populated) against a from-scratch
    /// rebuild. Returns a description of the first inconsistency found.
    pub fn check_access_structures(&self) -> Result<(), String> {
        let cached = self.cache.borrow();
        let Some(c) = cached.as_ref() else {
            return Ok(()); // nothing cached, nothing to diverge
        };
        let fresh = self.build_cache();
        if c.order != fresh.order {
            return Err(format!(
                "preorder cache diverges: cached {:?} vs rebuilt {:?}",
                c.order, fresh.order
            ));
        }
        if c.pos != fresh.pos {
            return Err("preorder position map diverges from rebuilt order".into());
        }
        if c.by_type != fresh.by_type {
            return Err("preorder by-type map diverges from rebuilt order".into());
        }
        if c.subtree != fresh.subtree {
            return Err("subtree-size map diverges from rebuilt order".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpc_datamodel::network::FieldDef;
    use dbpc_datamodel::types::FieldType;

    fn schema() -> HierSchema {
        HierSchema::new("COMPANY").with_root(
            SegmentDef::new("DIV", vec![FieldDef::new("DIV-NAME", FieldType::Char(20))])
                .with_seq_field("DIV-NAME")
                .with_child(
                    SegmentDef::new(
                        "EMP",
                        vec![
                            FieldDef::new("EMP-NAME", FieldType::Char(25)),
                            FieldDef::new("AGE", FieldType::Int(2)),
                        ],
                    )
                    .with_seq_field("EMP-NAME"),
                )
                .with_child(SegmentDef::new(
                    "PROJ",
                    vec![FieldDef::new("PROJ-NAME", FieldType::Char(10))],
                )),
        )
    }

    fn sample() -> (HierDb, u64, u64) {
        let mut db = HierDb::new(schema()).unwrap();
        let d1 = db
            .insert("DIV", &[("DIV-NAME", Value::str("MACHINERY"))], None)
            .unwrap();
        let d2 = db
            .insert("DIV", &[("DIV-NAME", Value::str("AEROSPACE"))], None)
            .unwrap();
        (db, d1, d2)
    }

    #[test]
    fn roots_ordered_by_sequence_field() {
        let (db, d1, d2) = sample();
        assert_eq!(db.preorder(), vec![d2, d1]); // AEROSPACE < MACHINERY
    }

    #[test]
    fn hierarchic_order_groups_child_types() {
        let (mut db, d1, _) = sample();
        let p = db
            .insert("PROJ", &[("PROJ-NAME", Value::str("P1"))], Some(d1))
            .unwrap();
        let e2 = db
            .insert("EMP", &[("EMP-NAME", Value::str("ZOLA"))], Some(d1))
            .unwrap();
        let e1 = db
            .insert("EMP", &[("EMP-NAME", Value::str("ADAMS"))], Some(d1))
            .unwrap();
        // Under MACHINERY: all EMPs (by name) precede all PROJs.
        let kids = db.get(d1).unwrap().children.clone();
        assert_eq!(kids, vec![e1, e2, p]);
    }

    #[test]
    fn parentage_is_type_checked() {
        let (mut db, d1, _) = sample();
        let e = db
            .insert("EMP", &[("EMP-NAME", Value::str("X"))], Some(d1))
            .unwrap();
        // PROJ under an EMP is illegal (EMP has no PROJ child).
        assert!(db
            .insert("PROJ", &[("PROJ-NAME", Value::str("P"))], Some(e))
            .is_err());
        // EMP with no parent is illegal.
        assert!(db
            .insert("EMP", &[("EMP-NAME", Value::str("Y"))], None)
            .is_err());
        // DIV with a parent is illegal.
        assert!(db
            .insert("DIV", &[("DIV-NAME", Value::str("Z"))], Some(d1))
            .is_err());
    }

    #[test]
    fn delete_cascades_subtree() {
        let (mut db, d1, d2) = sample();
        db.insert("EMP", &[("EMP-NAME", Value::str("A"))], Some(d1))
            .unwrap();
        db.insert("EMP", &[("EMP-NAME", Value::str("B"))], Some(d1))
            .unwrap();
        let n = db.delete(d1).unwrap();
        assert_eq!(n, 3);
        assert_eq!(db.preorder(), vec![d2]);
    }

    #[test]
    fn replace_repositions_on_seq_change() {
        let (mut db, d1, _) = sample();
        let a = db
            .insert("EMP", &[("EMP-NAME", Value::str("ADAMS"))], Some(d1))
            .unwrap();
        let z = db
            .insert("EMP", &[("EMP-NAME", Value::str("ZOLA"))], Some(d1))
            .unwrap();
        db.replace(a, &[("EMP-NAME", Value::str("ZZTOP"))]).unwrap();
        assert_eq!(db.get(d1).unwrap().children, vec![z, a]);
    }

    #[test]
    fn occurrences_follow_hierarchic_order() {
        let (mut db, d1, d2) = sample();
        let e_mach = db
            .insert("EMP", &[("EMP-NAME", Value::str("M1"))], Some(d1))
            .unwrap();
        let e_aero = db
            .insert("EMP", &[("EMP-NAME", Value::str("A1"))], Some(d2))
            .unwrap();
        // AEROSPACE's employees come first because AEROSPACE is first.
        assert_eq!(db.occurrences_of("EMP"), vec![e_aero, e_mach]);
    }

    #[test]
    fn stepwise_navigation_matches_preorder_without_rebuilds() {
        let (mut db, d1, d2) = sample();
        let e1 = db
            .insert("EMP", &[("EMP-NAME", Value::str("A1"))], Some(d2))
            .unwrap();
        let e2 = db
            .insert("EMP", &[("EMP-NAME", Value::str("M1"))], Some(d1))
            .unwrap();
        let p1 = db
            .insert("PROJ", &[("PROJ-NAME", Value::str("P1"))], Some(d1))
            .unwrap();
        // Full walk via next_in_preorder equals the materialized preorder.
        let expected = db.preorder();
        assert_eq!(expected, vec![d2, e1, d1, e2, p1]);
        let mut walked = Vec::new();
        let mut cur = None;
        while let Some(n) = db.next_in_preorder(cur, None) {
            walked.push(n);
            cur = Some(n);
        }
        assert_eq!(walked, expected);
        // The whole walk reused one cache build (the preorder() call).
        assert_eq!(db.access_stats().snapshot().preorder_rebuilds, 1);
        // Type-filtered navigation.
        assert_eq!(db.next_in_preorder(None, Some("EMP")), Some(e1));
        assert_eq!(db.next_in_preorder(Some(e1), Some("EMP")), Some(e2));
        assert_eq!(db.next_in_preorder(Some(e2), Some("EMP")), None);
        // Parent-bounded navigation (GNP): stays inside d1's subtree.
        assert_eq!(db.next_within(d1, None, None), Some(e2));
        assert_eq!(db.next_within(d1, Some(e2), None), Some(p1));
        assert_eq!(db.next_within(d1, Some(p1), None), None);
        assert_eq!(db.next_within(d2, None, Some("PROJ")), None);
        db.check_access_structures().unwrap();
    }

    #[test]
    fn scans_count_every_segment_they_examine() {
        let (mut db, d1, d2) = sample();
        let e1 = db
            .insert("EMP", &[("EMP-NAME", Value::str("A1"))], Some(d2))
            .unwrap();
        db.insert("EMP", &[("EMP-NAME", Value::str("M1"))], Some(d1))
            .unwrap();
        let p1 = db
            .insert("PROJ", &[("PROJ-NAME", Value::str("P1"))], Some(d1))
            .unwrap();
        // Preorder: d2, e1, d1, e2, p1.
        let scanned = |db: &HierDb| db.access_stats().snapshot().rows_scanned;
        db.access_stats().reset();
        assert_eq!(db.occurrences_of("EMP").len(), 2);
        assert_eq!(scanned(&db), 2);
        db.access_stats().reset();
        assert_eq!(db.children_of(d1, "PROJ").unwrap().len(), 1);
        assert_eq!(scanned(&db), 2, "both children of d1 are examined");
        db.access_stats().reset();
        // From e1, the next EMP steps over d1 and stops at e2.
        db.next_in_preorder(Some(e1), Some("EMP")).unwrap();
        assert_eq!(scanned(&db), 2);
        db.access_stats().reset();
        // From e1 the next DIV is d1, one segment on; from d1 a search
        // that misses examines the two segments left.
        assert_eq!(db.next_in_preorder(Some(e1), Some("DIV")), Some(d1));
        assert_eq!(db.next_in_preorder(Some(d1), Some("DIV")), None);
        assert_eq!(scanned(&db), 1 + 2);
        db.access_stats().reset();
        // GNP under d1: the first PROJ steps over e2; none follows p1.
        assert_eq!(db.next_within(d1, None, Some("PROJ")), Some(p1));
        assert_eq!(db.next_within(d1, Some(p1), Some("PROJ")), None);
        assert_eq!(scanned(&db), 2);
    }

    #[test]
    fn cache_invalidates_on_mutation_and_stays_consistent() {
        let (mut db, d1, _) = sample();
        let _ = db.preorder();
        let a = db
            .insert("EMP", &[("EMP-NAME", Value::str("ADAMS"))], Some(d1))
            .unwrap();
        let _ = db.preorder(); // rebuild #2 after insert
        db.replace(a, &[("AGE", Value::Int(30))]).unwrap();
        // Non-sequence replace keeps the cache.
        assert_eq!(db.access_stats().snapshot().preorder_rebuilds, 2);
        db.check_access_structures().unwrap();
        db.replace(a, &[("EMP-NAME", Value::str("ZZ"))]).unwrap();
        db.delete(a).unwrap();
        let _ = db.preorder();
        db.check_access_structures().unwrap();
        assert_eq!(db.access_stats().snapshot().preorder_rebuilds, 3);
    }

    #[test]
    fn field_access_and_type_checks() {
        let (mut db, d1, _) = sample();
        let e = db
            .insert(
                "EMP",
                &[("EMP-NAME", Value::str("X")), ("AGE", Value::Int(40))],
                Some(d1),
            )
            .unwrap();
        assert_eq!(db.field_value(e, "AGE").unwrap(), Value::Int(40));
        assert!(db.field_value(e, "NOPE").is_err());
        assert!(db
            .insert("EMP", &[("AGE", Value::str("old"))], Some(d1))
            .is_err());
    }
}
