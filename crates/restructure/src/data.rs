//! The data translator: carry a stored database across a transformation.
//!
//! This is the crate's answer to the paper's middle step — "converting the
//! data to reflect the new schema" (§1) — the part the 1970s data-translation
//! projects (EXPRESS, the Michigan translator; refs 3–7) solved and which a
//! program conversion system presupposes.
//!
//! Translation is a *rebuild*: a fresh [`NetworkDb`] under the target schema
//! is populated through the ordinary typed/constrained mutation API, owner
//! types before member types, records in creation order. Rebuilding through
//! the front door means a translation can fail exactly where a 1979 reload
//! would have failed (duplicate keys, cardinality limits), rather than
//! producing a silently inconsistent database.
//!
//! The rebuild is the unit of work of the batch-conversion pipeline (one
//! translation per restructuring class, cloned per verified program), so
//! the per-record path is kept allocation-lean: schema-level resolution —
//! which old field feeds which target field, which target sets the type
//! belongs to — is planned **once per record type** and the per-record loop
//! only clones the values it stores. [`crate::stats`] counts the work so
//! tests can assert translating an N-record database does O(record types)
//! schema-level preparation, not O(N).

use crate::transform::Transform;
use dbpc_datamodel::network::{NetworkSchema, SetOwner};
use dbpc_datamodel::value::Value;
use dbpc_storage::keys::KeyTuple;
use dbpc_storage::{DbError, DbResult, NetworkDb, RecordId, SYSTEM_OWNER};
use std::collections::BTreeMap;

/// Translate `db` across `transform`, producing the restructured database.
/// The rebuild plan runs in one go: no batch boundary is ever reached.
/// [`crate::durable`] runs the same plan in committed batches.
pub fn translate(db: &NetworkDb, transform: &Transform) -> DbResult<NetworkDb> {
    let target_schema = target_schema(db, transform)?;
    let out = match transform {
        // Schema unchanged: the §5.2 information-losing subset starts from
        // a clone and erases, rather than rebuilding.
        Transform::DeleteWhere { .. } => db.clone(),
        // `fresh_like` keeps the target on the source's backend: a paged
        // (out-of-core) source translates into a paged target, so the
        // translation's footprint stays bounded by the two buffer pools.
        _ => db.fresh_like(target_schema.clone())?,
    };
    crate::stats::count_schema_clone();
    let mut st = RunState::new(out, usize::MAX);
    run(db, transform, &target_schema, &mut st, &mut |_| false)?;
    Ok(st.out)
}

/// The schema `transform` produces from `db`'s.
pub(crate) fn target_schema(db: &NetworkDb, transform: &Transform) -> DbResult<NetworkSchema> {
    transform
        .apply_schema(db.schema())
        .map_err(|e| DbError::constraint(e.to_string()))
}

/// Snapshot the translated database's statistics catalog so the planner
/// starts from fresh cardinalities, and record the refresh. Runs at every
/// translation completion — one-shot or crash-resumed — so both paths
/// report identical statistics (the catalog is a pure function of the
/// output database).
pub(crate) fn refresh_stats(out: &NetworkDb) {
    let catalog = dbpc_storage::StatCatalog::of_network(out);
    dbpc_obs::count("stats.refreshes", 1);
    if dbpc_obs::in_capture() {
        dbpc_obs::event_with(
            "stats.refresh",
            &[
                ("records", &catalog.total_records().to_string()),
                ("links", &catalog.total_links().to_string()),
            ],
        );
    }
}

/// One step of the rebuild plan. Every phase iterates a record list that
/// is derived from the (immutable) *source* database, so a (phase,
/// offset) cursor identifies the same position before and after a crash.
#[derive(Clone)]
enum Phase {
    /// Generic rebuild of one record type with name/field mapping.
    CopyMapped { rtype: String },
    /// Plain copy of one record type (promote/demote's unaffected types),
    /// optionally skipping membership in the set being split.
    CopyPlain {
        rtype: String,
        skip_set: Option<String>,
    },
    /// Promote step 2: one new-record occurrence per distinct promoted
    /// value per owner.
    PromoteGroups,
    /// Promote step 3: the split set's members, re-homed under groups.
    PromoteMembers,
    /// Demote: members regain the demoted field, re-homed to grand-owners.
    DemoteMembers,
    /// DeleteWhere: cascade-erase matching occurrences from the clone.
    Erase,
}

fn plan_phases(schema: &NetworkSchema, transform: &Transform) -> DbResult<Vec<Phase>> {
    match transform {
        Transform::DeleteWhere { .. } => Ok(vec![Phase::Erase]),
        Transform::PromoteFieldToOwner {
            record, via_set, ..
        } => {
            let mut phases: Vec<Phase> = topo_order(schema)?
                .into_iter()
                .filter(|r| r != record)
                .map(|rtype| Phase::CopyPlain {
                    rtype,
                    skip_set: Some(via_set.clone()),
                })
                .collect();
            phases.push(Phase::PromoteGroups);
            phases.push(Phase::PromoteMembers);
            Ok(phases)
        }
        Transform::DemoteOwnerToField {
            mid_record, record, ..
        } => {
            let mut phases: Vec<Phase> = topo_order(schema)?
                .into_iter()
                .filter(|r| r != mid_record && r != record)
                .map(|rtype| Phase::CopyPlain {
                    rtype,
                    skip_set: None,
                })
                .collect();
            phases.push(Phase::DemoteMembers);
            Ok(phases)
        }
        _ => Ok(topo_order(schema)?
            .into_iter()
            .map(|rtype| Phase::CopyMapped { rtype })
            .collect()),
    }
}

/// The database a translation writes into. [`translate`] writes a plain
/// [`NetworkDb`] and never reaches a batch boundary; the durable
/// translator (`crate::durable`) writes a `DurableNetworkDb` and commits
/// one transaction per batch. Every use is monomorphised, so the
/// in-memory hot path carries none of the durable bookkeeping.
pub(crate) trait Target {
    /// Failure of a target write; engine errors convert into it.
    type Error: From<DbError>;
    /// The engine being built, for reads.
    fn engine(&self) -> &NetworkDb;
    /// See [`NetworkDb::store`].
    fn store(
        &mut self,
        rtype: &str,
        values: &[(&str, Value)],
        connects: &[(&str, RecordId)],
    ) -> Result<RecordId, Self::Error>;
    /// Cascade-erase `id`, unless an earlier cascade already took it.
    fn erase_cascade(&mut self, id: RecordId) -> Result<(), Self::Error>;
    /// Source record `old` was translated to `new`.
    fn mapped(&mut self, _old: RecordId, _new: RecordId) {}
    /// Promoted group `key` under source owner `owner` became `new`.
    fn grouped(&mut self, _owner: RecordId, _key: &KeyTuple, _new: RecordId) {}
    /// A batch ended; a resume would restart at `(phase, offset)` with
    /// `batches_done` batches behind it.
    fn boundary(
        &mut self,
        _phase: usize,
        _offset: usize,
        _batches_done: usize,
    ) -> Result<(), Self::Error> {
        Ok(())
    }
    /// The plan ran to completion.
    fn finish(&mut self) -> Result<(), Self::Error> {
        Ok(())
    }
}

impl Target for NetworkDb {
    type Error = DbError;

    fn engine(&self) -> &NetworkDb {
        self
    }

    fn store(
        &mut self,
        rtype: &str,
        values: &[(&str, Value)],
        connects: &[(&str, RecordId)],
    ) -> DbResult<RecordId> {
        NetworkDb::store(self, rtype, values, connects)
    }

    fn erase_cascade(&mut self, id: RecordId) -> DbResult<()> {
        match self.erase(id, true) {
            Ok(_) | Err(DbError::NotFound(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }
}

/// Mutable translation state threaded through the phases; exactly what a
/// durable translation's commit notes must capture to resume.
pub(crate) struct RunState<T> {
    pub(crate) out: T,
    pub(crate) idmap: BTreeMap<RecordId, RecordId>,
    pub(crate) group_map: BTreeMap<(RecordId, KeyTuple), RecordId>,
    batch: usize,
    in_batch: usize,
    pub(crate) batches_done: usize,
    /// The cursor: the phase executing (or to resume), and the offset
    /// within it a run starts from (or a crashed run stopped at).
    pub(crate) phase: usize,
    pub(crate) offset: usize,
}

impl<T: Target> RunState<T> {
    /// A run at the start of the plan.
    pub(crate) fn new(out: T, batch: usize) -> RunState<T> {
        RunState {
            out,
            idmap: BTreeMap::new(),
            group_map: BTreeMap::new(),
            batch: batch.max(1),
            in_batch: 0,
            batches_done: 0,
            phase: 0,
            offset: 0,
        }
    }

    fn map(&mut self, old: RecordId, new: RecordId) {
        self.idmap.insert(old, new);
        self.out.mapped(old, new);
    }

    /// Count one unit of work. At a batch boundary the target records the
    /// cursor (`done` = offset a resume would restart from) *first*, then
    /// the crash plan is asked whether to die here — so a run killed at
    /// boundary `b` has already made batch `b` durable.
    fn tick(
        &mut self,
        done: usize,
        crash: &mut dyn FnMut(usize) -> bool,
    ) -> Result<bool, T::Error> {
        self.in_batch += 1;
        if self.in_batch >= self.batch {
            self.in_batch = 0;
            let b = self.batches_done;
            self.batches_done += 1;
            dbpc_obs::count("restructure.translation_batches", 1);
            dbpc_obs::event_with("translation.batch", &[("index", &b.to_string())]);
            self.out.boundary(self.phase, done, self.batches_done)?;
            return Ok(crash(b));
        }
        Ok(false)
    }
}

/// Run the rebuild plan from the state's cursor. Returns `false` on
/// completion (statistics refreshed), or `true` when `crash` fired at a
/// batch boundary, with the cursor left at the restart position.
pub(crate) fn run<T: Target>(
    db: &NetworkDb,
    transform: &Transform,
    target_schema: &NetworkSchema,
    st: &mut RunState<T>,
    crash: &mut dyn FnMut(usize) -> bool,
) -> Result<bool, T::Error> {
    let phases = plan_phases(db.schema(), transform)?;
    let (start_phase, start_offset) = (st.phase, st.offset);
    for (p, phase) in phases.iter().enumerate().skip(start_phase) {
        let offset = if p == start_phase { start_offset } else { 0 };
        st.phase = p;
        let crashed_at = match phase {
            Phase::CopyMapped { rtype } => {
                phase_copy_mapped(db, transform, target_schema, rtype, offset, st, crash)?
            }
            Phase::CopyPlain { rtype, skip_set } => {
                phase_copy_plain(db, rtype, skip_set.as_deref(), offset, st, crash)?
            }
            Phase::PromoteGroups => phase_promote_groups(db, transform, offset, st, crash)?,
            Phase::PromoteMembers => phase_promote_members(db, transform, offset, st, crash)?,
            Phase::DemoteMembers => phase_demote_members(db, transform, offset, st, crash)?,
            Phase::Erase => phase_erase(db, transform, offset, st, crash)?,
        };
        if let Some(off) = crashed_at {
            st.offset = off;
            return Ok(true);
        }
    }
    st.out.finish()?;
    refresh_stats(st.out.engine());
    Ok(false)
}

fn phase_copy_mapped<T: Target>(
    db: &NetworkDb,
    transform: &Transform,
    target_schema: &NetworkSchema,
    old_type: &str,
    offset: usize,
    st: &mut RunState<T>,
    crash: &mut dyn FnMut(usize) -> bool,
) -> Result<Option<usize>, T::Error> {
    let mut map = NameMap::identity();
    if let Transform::RenameRecord { old, new } = transform {
        map.record.insert(old.clone(), new.clone());
    }
    if let Transform::RenameSet { old, new } = transform {
        map.set.insert(old.clone(), new.clone());
    }
    let new_type = map.record(old_type);
    let old_rt = db
        .schema()
        .record(old_type)
        .ok_or_else(|| DbError::unknown("record", old_type))?;
    let new_rt = target_schema
        .record(new_type)
        .ok_or_else(|| DbError::unknown("record", new_type))?;
    if offset == 0 {
        crate::stats::count_type_prep();
    }
    // Field plan: which old field index (or transform default) supplies
    // each stored target field — per type, so the per-record loop below
    // only moves values out of the fetched record. Target field names are
    // unique, so no old index is planned twice.
    let mut field_plan: Vec<(&str, FieldSrc)> = Vec::with_capacity(new_rt.fields.len());
    for nf in &new_rt.fields {
        if nf.is_virtual() {
            continue;
        }
        match transform {
            Transform::RenameField { record, old, new }
                if record == old_type && *new == nf.name =>
            {
                if let Some(idx) = old_rt.field_index(old) {
                    if !old_rt.fields[idx].is_virtual() {
                        field_plan.push((nf.name.as_str(), FieldSrc::Old(idx)));
                    }
                }
            }
            Transform::AddField {
                record,
                field,
                default,
                ..
            } if record == old_type && *field == nf.name => {
                field_plan.push((nf.name.as_str(), FieldSrc::Default(default)));
            }
            _ => {
                if let Some(idx) = old_rt.field_index(&nf.name) {
                    if !old_rt.fields[idx].is_virtual() {
                        field_plan.push((nf.name.as_str(), FieldSrc::Old(idx)));
                    }
                }
            }
        }
    }
    // Set plan: record-owned target sets the type belongs to, paired
    // with the source set supplying the membership.
    let set_plan: Vec<(&str, &str)> = target_schema
        .sets_with_member(new_type)
        .into_iter()
        .filter(|ns| !ns.is_system())
        .map(|ns| (ns.name.as_str(), map.set_rev(&ns.name)))
        .collect();

    let items = db.records_of_type(old_type);
    let mut stored = crate::stats::StoredTally::new();
    for (i, &old_id) in items.iter().enumerate().skip(offset) {
        let mut old_rec = db.get(old_id)?;
        let values: Vec<(&str, Value)> = field_plan
            .iter()
            .map(|(name, src)| {
                let v = match src {
                    FieldSrc::Old(idx) => std::mem::take(&mut old_rec.values[*idx]),
                    FieldSrc::Default(d) => (*d).clone(),
                };
                (*name, v)
            })
            .collect();
        let mut connects: Vec<(&str, RecordId)> = Vec::with_capacity(set_plan.len());
        for (new_set, old_set) in &set_plan {
            if let Some(old_owner) = db.owner_in(old_set, old_id)? {
                if old_owner != SYSTEM_OWNER {
                    let new_owner = translated_owner(&st.idmap, old_set, old_owner)?;
                    connects.push((*new_set, new_owner));
                }
            }
        }
        let new_id = st.out.store(new_type, &values, &connects)?;
        stored.bump();
        st.map(old_id, new_id);
        if st.tick(i + 1, crash)? {
            return Ok(Some(i + 1));
        }
    }
    Ok(None)
}

/// Record types ordered so that set owners precede their members.
fn topo_order(schema: &NetworkSchema) -> DbResult<Vec<String>> {
    let mut order: Vec<String> = Vec::new();
    let mut remaining: Vec<&str> = schema.records.iter().map(|r| r.name.as_str()).collect();
    while !remaining.is_empty() {
        let before = remaining.len();
        remaining.retain(|r| {
            let ready = schema.sets_with_member(r).iter().all(|s| match &s.owner {
                SetOwner::System => true,
                SetOwner::Record(o) => order.iter().any(|x| x == o),
            });
            if ready {
                order.push(r.to_string());
                false
            } else {
                true
            }
        });
        if remaining.len() == before {
            return Err(DbError::constraint(format!(
                "ownership cycle among record types: {}",
                remaining.join(", ")
            )));
        }
    }
    Ok(order)
}

/// How a structure-preserving transform maps names and values.
struct NameMap {
    record: BTreeMap<String, String>,
    set: BTreeMap<String, String>,
}

impl NameMap {
    fn identity() -> NameMap {
        NameMap {
            record: BTreeMap::new(),
            set: BTreeMap::new(),
        }
    }

    fn record<'a>(&'a self, name: &'a str) -> &'a str {
        self.record.get(name).map(String::as_str).unwrap_or(name)
    }

    fn set_rev<'a>(&'a self, target_name: &'a str) -> &'a str {
        for (old, new) in &self.set {
            if new == target_name {
                return old;
            }
        }
        target_name
    }
}

/// Where a stored target field's value comes from, resolved once per
/// record type.
enum FieldSrc<'a> {
    /// Index into the source record's stored values.
    Old(usize),
    /// The `AddField` default.
    Default(&'a Value),
}

/// Look up the already-translated id of `old_owner` (owners precede
/// members in every phase plan).
fn translated_owner(
    idmap: &BTreeMap<RecordId, RecordId>,
    set: &str,
    old_owner: RecordId,
) -> DbResult<RecordId> {
    idmap.get(&old_owner).copied().ok_or_else(|| {
        DbError::constraint(format!(
            "owner #{} of set {set} not yet translated",
            old_owner.0
        ))
    })
}

fn phase_copy_plain<T: Target>(
    db: &NetworkDb,
    rtype: &str,
    skip_set: Option<&str>,
    offset: usize,
    st: &mut RunState<T>,
    crash: &mut dyn FnMut(usize) -> bool,
) -> Result<Option<usize>, T::Error> {
    let rt = db
        .schema()
        .record(rtype)
        .ok_or_else(|| DbError::unknown("record", rtype))?;
    if offset == 0 {
        crate::stats::count_type_prep();
    }
    let stored_fields: Vec<(usize, &str)> = rt
        .fields
        .iter()
        .enumerate()
        .filter(|(_, f)| !f.is_virtual())
        .map(|(i, f)| (i, f.name.as_str()))
        .collect();
    let member_sets: Vec<&str> = db
        .schema()
        .sets_with_member(rtype)
        .into_iter()
        .filter(|s| !s.is_system() && Some(s.name.as_str()) != skip_set)
        .map(|s| s.name.as_str())
        .collect();
    let items = db.records_of_type(rtype);
    let mut stored = crate::stats::StoredTally::new();
    for (i, &old_id) in items.iter().enumerate().skip(offset) {
        let mut old_rec = db.get(old_id)?;
        let values: Vec<(&str, Value)> = stored_fields
            .iter()
            .map(|(i, name)| (*name, std::mem::take(&mut old_rec.values[*i])))
            .collect();
        let mut connects: Vec<(&str, RecordId)> = Vec::with_capacity(member_sets.len());
        for s in &member_sets {
            if let Some(owner) = db.owner_in(s, old_id)? {
                if owner != SYSTEM_OWNER {
                    connects.push((*s, translated_owner(&st.idmap, s, owner)?));
                }
            }
        }
        let new_id = st.out.store(rtype, &values, &connects)?;
        stored.bump();
        st.map(old_id, new_id);
        if st.tick(i + 1, crash)? {
            return Ok(Some(i + 1));
        }
    }
    Ok(None)
}

fn phase_promote_groups<T: Target>(
    db: &NetworkDb,
    transform: &Transform,
    offset: usize,
    st: &mut RunState<T>,
    crash: &mut dyn FnMut(usize) -> bool,
) -> Result<Option<usize>, T::Error> {
    let Transform::PromoteFieldToOwner {
        field,
        via_set,
        new_record,
        upper_set,
        ..
    } = transform
    else {
        return Err(DbError::constraint("group phase outside a promote").into());
    };
    // Owner of the split set in the source schema.
    let via_owner_type = db
        .schema()
        .set(via_set)
        .and_then(|s| s.owner.record_name())
        .ok_or_else(|| DbError::unknown("set", via_set))?
        .to_string();
    // For each owner occurrence, one new-record occurrence per distinct
    // promoted-field value among its members. The work list is the
    // (owner, member) pairs, flattened in set order — derived from the
    // immutable source, so the offset survives a crash.
    let mut pairs: Vec<(RecordId, RecordId)> = Vec::new();
    for owner in db.records_of_type(&via_owner_type) {
        for member in db.members_of(via_set, owner)? {
            pairs.push((owner, member));
        }
    }
    let mut stored = crate::stats::StoredTally::new();
    for (i, &(owner, member)) in pairs.iter().enumerate().skip(offset) {
        let v = db.field_value(member, field)?;
        let key = (owner, KeyTuple(vec![v.clone()]));
        if let std::collections::btree_map::Entry::Vacant(slot) = st.group_map.entry(key) {
            let new_owner = translated_owner(&st.idmap, via_set, owner)?;
            let new_id = st
                .out
                .store(new_record, &[(field, v)], &[(upper_set, new_owner)])?;
            stored.bump();
            st.out.grouped(owner, &slot.key().1, new_id);
            slot.insert(new_id);
        }
        if st.tick(i + 1, crash)? {
            return Ok(Some(i + 1));
        }
    }
    Ok(None)
}

fn phase_promote_members<T: Target>(
    db: &NetworkDb,
    transform: &Transform,
    offset: usize,
    st: &mut RunState<T>,
    crash: &mut dyn FnMut(usize) -> bool,
) -> Result<Option<usize>, T::Error> {
    let Transform::PromoteFieldToOwner {
        record,
        field,
        via_set,
        lower_set,
        ..
    } = transform
    else {
        return Err(DbError::constraint("member phase outside a promote").into());
    };
    let rt = db
        .schema()
        .record(record)
        .ok_or_else(|| DbError::unknown("record", record))?;
    if offset == 0 {
        crate::stats::count_type_prep();
    }
    let promoted_idx = rt
        .field_index(field)
        .ok_or_else(|| DbError::unknown("field", field))?;
    let stored_fields: Vec<(usize, &str)> = rt
        .fields
        .iter()
        .enumerate()
        .filter(|(_, f)| !f.is_virtual() && f.name != *field)
        .map(|(i, f)| (i, f.name.as_str()))
        .collect();
    let other_sets: Vec<&str> = db
        .schema()
        .sets_with_member(record)
        .into_iter()
        .filter(|s| !s.is_system() && s.name != *via_set)
        .map(|s| s.name.as_str())
        .collect();
    let items = db.records_of_type(record);
    let mut stored = crate::stats::StoredTally::new();
    for (i, &old_id) in items.iter().enumerate().skip(offset) {
        let mut old_rec = db.get(old_id)?;
        let values: Vec<(&str, Value)> = stored_fields
            .iter()
            .map(|(i, name)| (*name, std::mem::take(&mut old_rec.values[*i])))
            .collect();
        let mut connects: Vec<(&str, RecordId)> = Vec::with_capacity(other_sets.len() + 1);
        match db.owner_in(via_set, old_id)? {
            Some(owner) => {
                // The record is in hand: only a virtual field needs the
                // owner lookup `field_value` does.
                let v = if rt.fields[promoted_idx].is_virtual() {
                    db.field_value(old_id, field)?
                } else {
                    std::mem::take(&mut old_rec.values[promoted_idx])
                };
                let group = st
                    .group_map
                    .get(&(owner, KeyTuple(vec![v])))
                    .copied()
                    .ok_or_else(|| DbError::constraint("promoted group not materialized"))?;
                connects.push((lower_set, group));
            }
            None => {
                // Disconnected member: its promoted-field value has no group
                // to live in; non-null values would be silently lost.
                if !old_rec.values[promoted_idx].is_null() {
                    return Err(DbError::constraint(format!(
                        "cannot promote {record}.{field}: record #{} is not \
                         connected in {via_set} but carries a value",
                        old_id.0
                    ))
                    .into());
                }
            }
        }
        for s in &other_sets {
            if let Some(owner) = db.owner_in(s, old_id)? {
                if owner != SYSTEM_OWNER {
                    connects.push((*s, translated_owner(&st.idmap, s, owner)?));
                }
            }
        }
        let new_id = st.out.store(record, &values, &connects)?;
        stored.bump();
        st.map(old_id, new_id);
        if st.tick(i + 1, crash)? {
            return Ok(Some(i + 1));
        }
    }
    Ok(None)
}

fn phase_demote_members<T: Target>(
    db: &NetworkDb,
    transform: &Transform,
    offset: usize,
    st: &mut RunState<T>,
    crash: &mut dyn FnMut(usize) -> bool,
) -> Result<Option<usize>, T::Error> {
    let Transform::DemoteOwnerToField {
        mid_record,
        field,
        lower_set,
        record,
        merged_set,
        ..
    } = transform
    else {
        return Err(DbError::constraint("demote phase outside a demote").into());
    };
    let upper_set_name = db
        .schema()
        .sets_with_member(mid_record)
        .iter()
        .map(|s| s.name.clone())
        .next()
        .ok_or_else(|| DbError::unknown("set", "upper set"))?;
    // Member records regain the demoted field; membership re-homes to the
    // grand-owner via the merged set.
    let rt = db
        .schema()
        .record(record)
        .ok_or_else(|| DbError::unknown("record", record))?;
    if offset == 0 {
        crate::stats::count_type_prep();
    }
    let stored_fields: Vec<(usize, &str)> = rt
        .fields
        .iter()
        .enumerate()
        .filter(|(_, f)| !f.is_virtual())
        .map(|(i, f)| (i, f.name.as_str()))
        .collect();
    let other_sets: Vec<&str> = db
        .schema()
        .sets_with_member(record)
        .into_iter()
        .filter(|s| !s.is_system() && s.name != *lower_set)
        .map(|s| s.name.as_str())
        .collect();
    let items = db.records_of_type(record);
    let mut stored = crate::stats::StoredTally::new();
    for (i, &old_id) in items.iter().enumerate().skip(offset) {
        let old_rec = db.get(old_id)?;
        let mut values: Vec<(&str, Value)> = stored_fields
            .iter()
            .map(|(i, name)| (*name, old_rec.values[*i].clone()))
            .collect();
        let mut connects: Vec<(&str, RecordId)> = Vec::with_capacity(other_sets.len() + 1);
        match db.owner_in(lower_set, old_id)? {
            Some(mid) => {
                values.push((field, db.field_value(mid, field)?));
                if let Some(grand) = db.owner_in(&upper_set_name, mid)? {
                    if grand != SYSTEM_OWNER {
                        connects
                            .push((merged_set, translated_owner(&st.idmap, merged_set, grand)?));
                    }
                }
            }
            None => {
                values.push((field, Value::Null));
            }
        }
        for s in &other_sets {
            if let Some(owner) = db.owner_in(s, old_id)? {
                if owner != SYSTEM_OWNER {
                    connects.push((*s, translated_owner(&st.idmap, s, owner)?));
                }
            }
        }
        let new_id = st.out.store(record, &values, &connects)?;
        stored.bump();
        st.map(old_id, new_id);
        if st.tick(i + 1, crash)? {
            return Ok(Some(i + 1));
        }
    }
    Ok(None)
}

/// The records a `DeleteWhere` dooms, in source order.
fn erase_victims(
    db: &NetworkDb,
    record: &str,
    field: &str,
    op: &dbpc_dml::expr::CmpOp,
    value: &Value,
) -> Vec<RecordId> {
    db.records_of_type(record)
        .into_iter()
        .filter(|&id| {
            db.field_value(id, field)
                .map(|v| op.eval(&v, value))
                .unwrap_or(false)
        })
        .collect()
}

fn phase_erase<T: Target>(
    db: &NetworkDb,
    transform: &Transform,
    offset: usize,
    st: &mut RunState<T>,
    crash: &mut dyn FnMut(usize) -> bool,
) -> Result<Option<usize>, T::Error> {
    let Transform::DeleteWhere {
        record,
        field,
        op,
        value,
    } = transform
    else {
        return Err(DbError::constraint("erase phase outside a delete-where").into());
    };
    // The doomed list is derived from the *source* database (which the
    // output starts as a clone of), so it is identical before and after
    // a crash even though the output clone is partially erased.
    let doomed = erase_victims(db, record, field, op, value);
    for (i, &id) in doomed.iter().enumerate().skip(offset) {
        // May already be gone through a cascade.
        st.out.erase_cascade(id)?;
        if st.tick(i + 1, crash)? {
            return Ok(Some(i + 1));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{RECORDS_STORED, RECORD_TYPE_PREPS, SCHEMA_CLONES};
    use crate::transform::Transform;
    use dbpc_datamodel::network::{FieldDef, RecordTypeDef, SetDef};
    use dbpc_datamodel::types::FieldType;
    use dbpc_dml::expr::CmpOp;

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

    fn company_db() -> NetworkDb {
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
        let aero = db
            .store(
                "DIV",
                &[
                    ("DIV-NAME", Value::str("AEROSPACE")),
                    ("DIV-LOC", Value::str("SEATTLE")),
                ],
                &[],
            )
            .unwrap();
        for (name, dept, age, div) in [
            ("JONES", "SALES", 34, mach),
            ("ADAMS", "SALES", 28, mach),
            ("BAKER", "MFG", 45, mach),
            ("CLARK", "SALES", 52, aero),
        ] {
            db.store(
                "EMP",
                &[
                    ("EMP-NAME", Value::str(name)),
                    ("DEPT-NAME", Value::str(dept)),
                    ("AGE", Value::Int(age)),
                ],
                &[("DIV-EMP", div)],
            )
            .unwrap();
        }
        db
    }

    fn fig_4_4() -> Transform {
        Transform::PromoteFieldToOwner {
            record: "EMP".into(),
            field: "DEPT-NAME".into(),
            via_set: "DIV-EMP".into(),
            new_record: "DEPT".into(),
            upper_set: "DIV-DEPT".into(),
            lower_set: "DEPT-EMP".into(),
        }
    }

    #[test]
    fn promote_groups_members_into_new_records() {
        let src = company_db();
        let out = translate(&src, &fig_4_4()).unwrap();
        // MACHINERY has SALES+MFG, AEROSPACE has SALES → 3 DEPTs.
        assert_eq!(out.records_of_type("DEPT").len(), 3);
        assert_eq!(out.records_of_type("EMP").len(), 4);
        // Machinery's SALES dept holds ADAMS and JONES in name order.
        let machinery = out
            .records_of_type("DIV")
            .into_iter()
            .find(|&d| out.field_value(d, "DIV-NAME").unwrap() == Value::str("MACHINERY"))
            .unwrap();
        let depts = out.members_of("DIV-DEPT", machinery).unwrap();
        assert_eq!(depts.len(), 2);
        // DIV-DEPT is keyed on DEPT-NAME: MFG before SALES.
        assert_eq!(
            out.field_value(depts[0], "DEPT-NAME").unwrap(),
            Value::str("MFG")
        );
        let sales = depts[1];
        let emps = out.members_of("DEPT-EMP", sales).unwrap();
        let names: Vec<Value> = emps
            .iter()
            .map(|&e| out.field_value(e, "EMP-NAME").unwrap())
            .collect();
        assert_eq!(names, vec![Value::str("ADAMS"), Value::str("JONES")]);
        // DEPT's migrated virtual field resolves through DIV-DEPT.
        assert_eq!(
            out.field_value(sales, "DIV-NAME").unwrap(),
            Value::str("MACHINERY")
        );
    }

    #[test]
    fn promote_then_demote_round_trips_data() {
        let src = company_db();
        let mid = translate(&src, &fig_4_4()).unwrap();
        let back = translate(&mid, &fig_4_4().inverse().unwrap()).unwrap();
        assert_eq!(back.records_of_type("EMP").len(), 4);
        // Every employee's (name, dept, age, division) quadruple survives.
        let quad = |db: &NetworkDb| -> Vec<(Value, Value, Value, Value)> {
            let mut v: Vec<_> = db
                .records_of_type("EMP")
                .into_iter()
                .map(|e| {
                    (
                        db.field_value(e, "EMP-NAME").unwrap(),
                        db.field_value(e, "DEPT-NAME").unwrap(),
                        db.field_value(e, "AGE").unwrap(),
                        db.field_value(e, "DIV-NAME").unwrap(),
                    )
                })
                .collect();
            v.sort_by(|a, b| a.0.total_cmp(&b.0));
            v
        };
        assert_eq!(quad(&src), quad(&back));
    }

    #[test]
    fn rename_record_rebuilds_identically() {
        let src = company_db();
        let out = translate(
            &src,
            &Transform::RenameRecord {
                old: "DIV".into(),
                new: "DIVISION".into(),
            },
        )
        .unwrap();
        assert_eq!(out.records_of_type("DIVISION").len(), 2);
        let emps = out.records_of_type("EMP");
        assert_eq!(emps.len(), 4);
        // Virtual field still resolves.
        assert_eq!(
            out.field_value(emps[0], "DIV-NAME").unwrap(),
            Value::str("MACHINERY")
        );
    }

    #[test]
    fn add_field_fills_default() {
        let src = company_db();
        let out = translate(
            &src,
            &Transform::AddField {
                record: "EMP".into(),
                field: "SALARY".into(),
                ty: FieldType::Int(6),
                default: Value::Int(100),
            },
        )
        .unwrap();
        for e in out.records_of_type("EMP") {
            assert_eq!(out.field_value(e, "SALARY").unwrap(), Value::Int(100));
        }
    }

    #[test]
    fn drop_field_removes_values() {
        let src = company_db();
        let out = translate(
            &src,
            &Transform::DropField {
                record: "EMP".into(),
                field: "AGE".into(),
            },
        )
        .unwrap();
        assert!(out
            .field_value(out.records_of_type("EMP")[0], "AGE")
            .is_err());
    }

    #[test]
    fn change_set_keys_reorders_occurrences() {
        let src = company_db();
        let out = translate(
            &src,
            &Transform::ChangeSetKeys {
                set: "DIV-EMP".into(),
                keys: vec!["AGE".into()],
            },
        )
        .unwrap();
        let machinery = out
            .records_of_type("DIV")
            .into_iter()
            .find(|&d| out.field_value(d, "DIV-NAME").unwrap() == Value::str("MACHINERY"))
            .unwrap();
        let ages: Vec<Value> = out
            .members_of("DIV-EMP", machinery)
            .unwrap()
            .iter()
            .map(|&e| out.field_value(e, "AGE").unwrap())
            .collect();
        assert_eq!(ages, vec![Value::Int(28), Value::Int(34), Value::Int(45)]);
    }

    #[test]
    fn delete_where_erases_matching_and_preserves_rest() {
        let src = company_db();
        let out = translate(
            &src,
            &Transform::DeleteWhere {
                record: "EMP".into(),
                field: "AGE".into(),
                op: CmpOp::Gt,
                value: Value::Int(40),
            },
        )
        .unwrap();
        assert_eq!(out.records_of_type("EMP").len(), 2);
        // Deleting divisions cascades their employees.
        let out2 = translate(
            &src,
            &Transform::DeleteWhere {
                record: "DIV".into(),
                field: "DIV-NAME".into(),
                op: CmpOp::Eq,
                value: Value::str("MACHINERY"),
            },
        )
        .unwrap();
        assert_eq!(out2.records_of_type("DIV").len(), 1);
        assert_eq!(out2.records_of_type("EMP").len(), 1);
    }

    #[test]
    fn topo_order_owners_first() {
        let order = topo_order(&company_schema()).unwrap();
        let div = order.iter().position(|r| r == "DIV").unwrap();
        let emp = order.iter().position(|r| r == "EMP").unwrap();
        assert!(div < emp);
    }

    fn sized_company_db(emps: usize) -> NetworkDb {
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
        for i in 0..emps {
            db.store(
                "EMP",
                &[
                    ("EMP-NAME", Value::str(format!("EMP-{i:05}"))),
                    ("DEPT-NAME", Value::str("SALES")),
                    ("AGE", Value::Int(20 + (i as i64 % 40))),
                ],
                &[("DIV-EMP", mach)],
            )
            .unwrap();
        }
        db
    }

    /// Clone audit: translating an N-record database does O(record types)
    /// schema-level work — one target-schema clone and one translation plan
    /// per record type — regardless of N. Only the per-record store count
    /// scales with database size.
    #[test]
    fn translation_schema_work_is_o_record_types_not_o_n() {
        let rename = Transform::RenameRecord {
            old: "DIV".into(),
            new: "DIVISION".into(),
        };
        let mut per_n = Vec::new();
        for n in [8usize, 64] {
            let src = sized_company_db(n);
            let mark = dbpc_obs::local_mark();
            translate(&src, &rename).unwrap();
            let work = mark.delta();
            // One clone to seed the rebuilt target database; one plan per
            // record type (DIV + EMP); one store per record (1 DIV + N EMPs).
            assert_eq!(work.counter(SCHEMA_CLONES), 1, "N = {n}");
            assert_eq!(work.counter(RECORD_TYPE_PREPS), 2, "N = {n}");
            assert_eq!(work.counter(RECORDS_STORED), n as u64 + 1, "N = {n}");
            per_n.push(work);
        }
        // Schema-level work identical at both sizes; record work scales.
        let [small, large] = [&per_n[0], &per_n[1]];
        assert_eq!(small.counter(SCHEMA_CLONES), large.counter(SCHEMA_CLONES));
        assert_eq!(
            small.counter(RECORD_TYPE_PREPS),
            large.counter(RECORD_TYPE_PREPS)
        );
        assert!(large.counter(RECORDS_STORED) > small.counter(RECORDS_STORED));
    }
}
