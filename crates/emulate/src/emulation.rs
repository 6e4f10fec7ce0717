//! DML emulation (the Honeywell Task 609 strategy, §2.1.2).
//!
//! An [`Emulator`] stacks one mapping layer per transform of the
//! restructuring, innermost layer speaking to the restructured database and
//! the outermost presenting the *source* schema's DML surface. The
//! unmodified source program runs on top through the ordinary
//! `NetworkOps`-generic interpreter.
//!
//! The paper's two predicted drawbacks are designed in, not around:
//!
//! * **degraded efficiency** — every `members_of` over a split set walks the
//!   two-level target structure and re-sorts by the source set's keys *on
//!   every call*; every promoted-field read chases the grouping owner.
//! * **restrictiveness** — operations the mapping cannot express
//!   (CONNECT/DISCONNECT across a split set, emulating a dropped field
//!   whose data no longer exists) are rejected: "this approach may also
//!   limit the class of restructurings that can be done."

use dbpc_datamodel::network::NetworkSchema;
use dbpc_datamodel::value::{cmp_tuple, Value};
use dbpc_engine::host_exec::NetworkOps;
use dbpc_engine::AtomicStore;
use dbpc_restructure::{Restructuring, Transform};
use dbpc_storage::{DbError, DbResult, NetworkDb, RecordId, Savepoint};

/// Per-transform call-mapping behavior.
#[derive(Debug, Clone)]
#[doc(hidden)]
pub enum LayerKind {
    RenameRecord {
        old: String,
        new: String,
    },
    RenameSet {
        old: String,
        new: String,
    },
    RenameField {
        record: String,
        old: String,
        new: String,
    },
    /// The Figure 4.2→4.4 split, emulated per call.
    Promote {
        record: String,
        field: String,
        via_set: String,
        new_record: String,
        upper_set: String,
        lower_set: String,
        via_keys: Vec<String>,
        migrated: Vec<String>,
    },
    /// Set ordering changed: re-sort member lists by the old keys per call.
    KeyChange {
        set: String,
        old_keys: Vec<String>,
    },
    /// Added field: hide it from whole-record reads. `resolved_values`
    /// already projects through the presented (source) schema, so the
    /// variant carries no state.
    ProjectOut,
    /// No call mapping needed (constraint-only transforms). Integrity is
    /// now enforced by the *target* schema — a genuine §2.1.2
    /// restrictiveness: emulated updates may fail where the source would
    /// not, and vice versa.
    Transparent,
}

/// A stack of emulation layers over a restructured database.
pub enum Emulator {
    Base(NetworkDb),
    Layer {
        /// The schema this layer *presents* (before its transform).
        schema: NetworkSchema,
        kind: LayerKind,
        inner: Box<Emulator>,
    },
}

impl Emulator {
    /// Build the emulation stack: the unmodified source program sees
    /// `source_schema` while all data lives in `target_db` (which must be
    /// `restructuring.translate` of a source database).
    ///
    /// ```
    /// use dbpc_emulate::Emulator;
    /// use dbpc_engine::host_exec::run_host;
    /// use dbpc_engine::Inputs;
    /// use dbpc_datamodel::ddl::parse_network_schema;
    /// use dbpc_datamodel::value::Value;
    /// use dbpc_dml::host::parse_program;
    /// use dbpc_restructure::{Restructuring, Transform};
    /// use dbpc_storage::NetworkDb;
    ///
    /// let schema = parse_network_schema("\
    /// SCHEMA NAME IS C.
    /// RECORD SECTION.
    ///   RECORD NAME IS DIV.
    ///   FIELDS ARE.
    ///     DIV-NAME PIC X(20).
    ///   END RECORD.
    ///   RECORD NAME IS EMP.
    ///   FIELDS ARE.
    ///     EMP-NAME PIC X(25).
    ///     DEPT-NAME PIC X(8).
    ///   END RECORD.
    /// END RECORD SECTION.
    /// SET SECTION.
    ///   SET NAME IS ALL-DIV.
    ///   OWNER IS SYSTEM.
    ///   MEMBER IS DIV.
    ///   SET KEYS ARE (DIV-NAME).
    ///   END SET.
    ///   SET NAME IS DIV-EMP.
    ///   OWNER IS DIV.
    ///   MEMBER IS EMP.
    ///   SET KEYS ARE (EMP-NAME).
    ///   END SET.
    /// END SET SECTION.
    /// END SCHEMA.
    /// ").unwrap();
    /// let mut src = NetworkDb::new(schema.clone()).unwrap();
    /// let d = src.store("DIV", &[("DIV-NAME", Value::str("M"))], &[]).unwrap();
    /// src.store(
    ///     "EMP",
    ///     &[("EMP-NAME", Value::str("JONES")), ("DEPT-NAME", Value::str("SALES"))],
    ///     &[("DIV-EMP", d)],
    /// ).unwrap();
    ///
    /// let restructuring = Restructuring::single(Transform::PromoteFieldToOwner {
    ///     record: "EMP".into(),
    ///     field: "DEPT-NAME".into(),
    ///     via_set: "DIV-EMP".into(),
    ///     new_record: "DEPT".into(),
    ///     upper_set: "DIV-DEPT".into(),
    ///     lower_set: "DEPT-EMP".into(),
    /// });
    /// let target = restructuring.translate(&src).unwrap();
    ///
    /// // The UNMODIFIED source program runs over the restructured data.
    /// let program = parse_program("PROGRAM P;
    ///   FIND E := FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(DEPT-NAME = 'SALES'));
    ///   PRINT COUNT(E);
    /// END PROGRAM;").unwrap();
    /// let mut emu = Emulator::over(target, &schema, &restructuring).unwrap();
    /// let trace = run_host(&mut emu, &program, Inputs::new()).unwrap();
    /// assert_eq!(trace.terminal_lines(), vec!["1"]);
    /// ```
    pub fn over(
        target_db: NetworkDb,
        source_schema: &NetworkSchema,
        restructuring: &Restructuring,
    ) -> DbResult<Emulator> {
        // Schema snapshots before each transform.
        let mut snapshots = vec![source_schema.clone()];
        let mut cur = source_schema.clone();
        for t in &restructuring.transforms {
            cur = t
                .apply_schema(&cur)
                .map_err(|e| DbError::constraint(e.to_string()))?;
            snapshots.push(cur.clone());
        }
        let mut emu = Emulator::Base(target_db);
        for (i, t) in restructuring.transforms.iter().enumerate().rev() {
            let schema = snapshots[i].clone();
            let kind = Self::layer_kind(t, &schema)?;
            emu = Emulator::Layer {
                schema,
                kind,
                inner: Box::new(emu),
            };
        }
        Ok(emu)
    }

    fn layer_kind(t: &Transform, schema_before: &NetworkSchema) -> DbResult<LayerKind> {
        Ok(match t {
            Transform::RenameRecord { old, new } => LayerKind::RenameRecord {
                old: old.clone(),
                new: new.clone(),
            },
            Transform::RenameSet { old, new } => LayerKind::RenameSet {
                old: old.clone(),
                new: new.clone(),
            },
            Transform::RenameField { record, old, new } => LayerKind::RenameField {
                record: record.clone(),
                old: old.clone(),
                new: new.clone(),
            },
            Transform::PromoteFieldToOwner {
                record,
                field,
                via_set,
                new_record,
                upper_set,
                lower_set,
            } => {
                let via_keys = schema_before
                    .set(via_set)
                    .map(|s| s.keys.clone())
                    .unwrap_or_default();
                let migrated = schema_before
                    .record(record)
                    .map(|r| {
                        r.fields
                            .iter()
                            .filter(|f| f.virtual_via.as_ref().is_some_and(|v| v.set == *via_set))
                            .map(|f| f.name.clone())
                            .collect()
                    })
                    .unwrap_or_default();
                LayerKind::Promote {
                    record: record.clone(),
                    field: field.clone(),
                    via_set: via_set.clone(),
                    new_record: new_record.clone(),
                    upper_set: upper_set.clone(),
                    lower_set: lower_set.clone(),
                    via_keys,
                    migrated,
                }
            }
            Transform::ChangeSetKeys { set, .. } => LayerKind::KeyChange {
                set: set.clone(),
                old_keys: schema_before
                    .set(set)
                    .map(|s| s.keys.clone())
                    .unwrap_or_default(),
            },
            Transform::AddField { .. } => LayerKind::ProjectOut,
            Transform::AddConstraint(_)
            | Transform::DropConstraint(_)
            | Transform::ChangeInsertion { .. }
            | Transform::ChangeRetention { .. } => LayerKind::Transparent,
            Transform::DropField { record, field } => {
                return Err(DbError::constraint(format!(
                    "cannot emulate: data for {record}.{field} no longer exists"
                )))
            }
            Transform::DemoteOwnerToField { mid_record, .. } => {
                return Err(DbError::constraint(format!(
                    "cannot emulate: record type {mid_record} no longer exists"
                )))
            }
            Transform::DeleteWhere { record, .. } => {
                return Err(DbError::constraint(format!(
                    "cannot emulate: {record} occurrences were deleted"
                )))
            }
        })
    }

    /// The schema this emulator presents.
    pub fn presented_schema(&self) -> &NetworkSchema {
        match self {
            Emulator::Base(db) => db.schema(),
            Emulator::Layer { schema, .. } => schema,
        }
    }

    /// Tear down the stack and recover the (possibly updated) target
    /// database.
    pub fn into_target(self) -> NetworkDb {
        match self {
            Emulator::Base(db) => db,
            Emulator::Layer { inner, .. } => inner.into_target(),
        }
    }

    /// Find or create the grouping occurrence for `value` under `owner`.
    #[allow(clippy::too_many_arguments)]
    fn group_for(
        inner: &mut Emulator,
        upper_set: &str,
        new_record: &str,
        field: &str,
        owner: RecordId,
        value: &Value,
    ) -> DbResult<RecordId> {
        for dept in inner.members_of(upper_set, owner)? {
            if inner.field_value(dept, field)?.loose_eq(value) {
                return Ok(dept);
            }
        }
        inner.store(new_record, &[(field, value.clone())], &[(upper_set, owner)])
    }

    /// Sort `ids` by the given fields (per-call — the emulation overhead).
    fn sort_by_fields(
        inner: &mut Emulator,
        ids: Vec<RecordId>,
        keys: &[String],
    ) -> DbResult<Vec<RecordId>> {
        if keys.is_empty() {
            return Ok(ids);
        }
        let mut keyed: Vec<(Vec<Value>, RecordId)> = Vec::with_capacity(ids.len());
        for id in ids {
            let mut k = Vec::with_capacity(keys.len());
            for key in keys {
                k.push(inner.field_value(id, key)?);
            }
            keyed.push((k, id));
        }
        keyed.sort_by(|a, b| cmp_tuple(&a.0, &b.0));
        Ok(keyed.into_iter().map(|(_, id)| id).collect())
    }
}

impl NetworkOps for Emulator {
    fn field_value(&self, id: RecordId, field: &str) -> DbResult<Value> {
        match self {
            Emulator::Base(db) => db.field_value(id, field),
            Emulator::Layer { kind, inner, .. } => match kind {
                LayerKind::RenameField { record, old, new } if field == old => {
                    if inner.rtype_of(id)? == *record {
                        inner.field_value(id, new)
                    } else {
                        inner.field_value(id, field)
                    }
                }
                LayerKind::Promote {
                    record,
                    field: promoted,
                    lower_set,
                    migrated,
                    ..
                } if (field == promoted || migrated.iter().any(|m| m == field)) => {
                    if inner.rtype_of(id)? != *record {
                        return inner.field_value(id, field);
                    }
                    // Chase the grouping owner — per-call mapping cost.
                    // (The inner emulator is logically mutable for cache-free
                    // lookups; our layers do not cache, so a read-only path
                    // suffices via interior recursion on &self.)
                    match self.owner_in_readonly(lower_set, id)? {
                        None => Ok(Value::Null),
                        Some(dept) => inner.field_value(dept, field),
                    }
                }
                _ => inner.field_value(id, field),
            },
        }
    }

    fn has_field(&self, rtype: &str, field: &str) -> bool {
        self.presented_schema()
            .record(rtype)
            .is_some_and(|r| r.field(field).is_some())
    }

    fn resolved_values(&self, id: RecordId) -> DbResult<Vec<Value>> {
        let rtype = self.rtype_of(id)?;
        let schema = self.presented_schema();
        let rt = schema
            .record(rtype)
            .ok_or_else(|| DbError::unknown("record", rtype))?;
        rt.fields
            .iter()
            .map(|f| self.field_value(id, &f.name))
            .collect()
    }

    fn members_of(&mut self, set: &str, owner: RecordId) -> DbResult<Vec<RecordId>> {
        match self {
            Emulator::Base(db) => db.members_of(set, owner),
            Emulator::Layer { kind, inner, .. } => match kind.clone() {
                LayerKind::RenameSet { old, new } if set == old => inner.members_of(&new, owner),
                LayerKind::Promote {
                    via_set,
                    upper_set,
                    lower_set,
                    via_keys,
                    ..
                } if set == via_set => {
                    let mut all = Vec::new();
                    for dept in inner.members_of(&upper_set, owner)? {
                        all.extend(inner.members_of(&lower_set, dept)?);
                    }
                    Emulator::sort_by_fields(inner, all, &via_keys)
                }
                LayerKind::KeyChange { set: s, old_keys } if set == s => {
                    let ids = inner.members_of(set, owner)?;
                    Emulator::sort_by_fields(inner, ids, &old_keys)
                }
                _ => inner.members_of(set, owner),
            },
        }
    }

    fn set_keys(&self, set: &str) -> DbResult<Vec<String>> {
        self.presented_schema()
            .set(set)
            .map(|s| s.keys.clone())
            .ok_or_else(|| DbError::unknown("set", set))
    }

    fn rtype_of(&self, id: RecordId) -> DbResult<&str> {
        match self {
            Emulator::Base(db) => db.rtype_of(id),
            Emulator::Layer { kind, inner, .. } => {
                let t = inner.rtype_of(id)?;
                if let LayerKind::RenameRecord { old, new } = kind {
                    if t == new {
                        return Ok(old);
                    }
                }
                Ok(t)
            }
        }
    }

    fn owner_in(&mut self, set: &str, member: RecordId) -> DbResult<Option<RecordId>> {
        match self {
            Emulator::Base(db) => db.owner_in(set, member),
            Emulator::Layer { kind, inner, .. } => match kind.clone() {
                LayerKind::RenameSet { old, new } if set == old => inner.owner_in(&new, member),
                LayerKind::Promote {
                    via_set,
                    upper_set,
                    lower_set,
                    ..
                } if set == via_set => match inner.owner_in(&lower_set, member)? {
                    None => Ok(None),
                    Some(dept) => inner.owner_in(&upper_set, dept),
                },
                _ => inner.owner_in(set, member),
            },
        }
    }

    fn records_of_type(&mut self, rtype: &str) -> DbResult<Vec<RecordId>> {
        match self {
            Emulator::Base(db) => db.records_of_type(rtype),
            Emulator::Layer { kind, inner, .. } => match kind {
                LayerKind::RenameRecord { old, new } if rtype == old => {
                    let new = new.clone();
                    inner.records_of_type(&new)
                }
                _ => inner.records_of_type(rtype),
            },
        }
    }

    fn store(
        &mut self,
        rtype: &str,
        values: &[(&str, Value)],
        connects: &[(&str, RecordId)],
    ) -> DbResult<RecordId> {
        match self {
            Emulator::Base(db) => db.store(rtype, values, connects),
            Emulator::Layer { kind, inner, .. } => match kind.clone() {
                LayerKind::RenameRecord { old, new } => {
                    let mapped = if rtype == old { new.as_str() } else { rtype };
                    inner.store(mapped, values, connects)
                }
                LayerKind::RenameSet { old, new } => {
                    let mapped: Vec<(&str, RecordId)> = connects
                        .iter()
                        .map(|(s, o)| (if *s == old { new.as_str() } else { *s }, *o))
                        .collect();
                    inner.store(rtype, values, &mapped)
                }
                LayerKind::RenameField { record, old, new } => {
                    if rtype == record {
                        let mapped: Vec<(&str, Value)> = values
                            .iter()
                            .map(|(f, v)| (if *f == old { new.as_str() } else { *f }, v.clone()))
                            .collect();
                        inner.store(rtype, &mapped, connects)
                    } else {
                        inner.store(rtype, values, connects)
                    }
                }
                LayerKind::Promote {
                    record,
                    field,
                    via_set,
                    new_record,
                    upper_set,
                    lower_set,
                    ..
                } if rtype == record => {
                    let dept_value = values
                        .iter()
                        .find(|(f, _)| *f == field)
                        .map(|(_, v)| v.clone())
                        .unwrap_or(Value::Null);
                    let rest: Vec<(&str, Value)> = values
                        .iter()
                        .filter(|(f, _)| *f != field)
                        .map(|(f, v)| (*f, v.clone()))
                        .collect();
                    let mut mapped: Vec<(&str, RecordId)> = Vec::new();
                    let mut dept_holder: Option<RecordId> = None;
                    for (s, o) in connects {
                        if *s == via_set {
                            let dept = Emulator::group_for(
                                inner,
                                &upper_set,
                                &new_record,
                                &field,
                                *o,
                                &dept_value,
                            )?;
                            dept_holder = Some(dept);
                        } else {
                            mapped.push((s, *o));
                        }
                    }
                    if let Some(dept) = dept_holder {
                        mapped.push((lower_set.as_str(), dept));
                    } else if !dept_value.is_null() {
                        return Err(DbError::constraint(format!(
                            "emulation cannot store a disconnected {record} \
                             carrying a {field} value"
                        )));
                    }
                    inner.store(rtype, &rest, &mapped)
                }
                _ => inner.store(rtype, values, connects),
            },
        }
    }

    fn modify(&mut self, id: RecordId, assigns: &[(&str, Value)]) -> DbResult<()> {
        match self {
            Emulator::Base(db) => db.modify(id, assigns),
            Emulator::Layer { kind, inner, .. } => match kind.clone() {
                LayerKind::RenameField { record, old, new } => {
                    if inner.rtype_of(id)? == record {
                        let mapped: Vec<(&str, Value)> = assigns
                            .iter()
                            .map(|(f, v)| (if *f == old { new.as_str() } else { *f }, v.clone()))
                            .collect();
                        inner.modify(id, &mapped)
                    } else {
                        inner.modify(id, assigns)
                    }
                }
                LayerKind::Promote {
                    record,
                    field,
                    new_record,
                    upper_set,
                    lower_set,
                    migrated,
                    ..
                } if inner.rtype_of(id)? == record => {
                    if assigns.iter().any(|(f, _)| migrated.iter().any(|m| m == f)) {
                        return Err(DbError::VirtualWrite {
                            field: "virtual field".into(),
                        });
                    }
                    let rest: Vec<(&str, Value)> = assigns
                        .iter()
                        .filter(|(f, _)| *f != field)
                        .map(|(f, v)| (*f, v.clone()))
                        .collect();
                    if let Some((_, new_value)) = assigns.iter().find(|(f, _)| *f == field) {
                        // Re-home the member to the right grouping record.
                        let cur_dept = inner.owner_in(&lower_set, id)?.ok_or_else(|| {
                            DbError::constraint(format!(
                                "cannot change {field} of a disconnected {record}"
                            ))
                        })?;
                        let cur_value = inner.field_value(cur_dept, &field)?;
                        if !cur_value.loose_eq(new_value) {
                            let div = inner
                                .owner_in(&upper_set, cur_dept)?
                                .ok_or_else(|| DbError::constraint("orphan group"))?;
                            inner.disconnect(&lower_set, id)?;
                            let dept2 = Emulator::group_for(
                                inner,
                                &upper_set,
                                &new_record,
                                &field,
                                div,
                                new_value,
                            )?;
                            inner.connect(&lower_set, div_safe(dept2), id)?;
                            // Garbage-collect the old group if empty.
                            if inner.members_of(&lower_set, cur_dept)?.is_empty() {
                                inner.erase(cur_dept, false)?;
                            }
                        }
                    }
                    if rest.is_empty() {
                        Ok(())
                    } else {
                        inner.modify(id, &rest)
                    }
                }
                _ => inner.modify(id, assigns),
            },
        }
    }

    fn erase(&mut self, id: RecordId, cascade: bool) -> DbResult<()> {
        match self {
            Emulator::Base(db) => NetworkDb::erase(db, id, cascade).map(|_| ()),
            Emulator::Layer { kind, inner, .. } => match kind.clone() {
                LayerKind::Promote {
                    record, lower_set, ..
                } if inner.rtype_of(id)? == record => {
                    let dept = inner.owner_in(&lower_set, id)?;
                    inner.erase(id, cascade)?;
                    // Empty groups are invisible at the source level; drop
                    // them so plain ERASE of the grand-owner behaves as in
                    // the source schema.
                    if let Some(dept) = dept {
                        if inner.members_of(&lower_set, dept)?.is_empty() {
                            inner.erase(dept, false)?;
                        }
                    }
                    Ok(())
                }
                _ => inner.erase(id, cascade),
            },
        }
    }

    fn connect(&mut self, set: &str, owner: RecordId, member: RecordId) -> DbResult<()> {
        match self {
            Emulator::Base(db) => db.connect(set, owner, member),
            Emulator::Layer { kind, inner, .. } => match kind.clone() {
                LayerKind::RenameSet { old, new } if set == old => {
                    inner.connect(&new, owner, member)
                }
                LayerKind::Promote { via_set, .. } if set == via_set => {
                    // The member's grouping value no longer exists outside a
                    // group: the mapping cannot express deferred connection.
                    Err(DbError::constraint(format!(
                        "emulation does not support CONNECT across split set {set}"
                    )))
                }
                _ => inner.connect(set, owner, member),
            },
        }
    }

    fn disconnect(&mut self, set: &str, member: RecordId) -> DbResult<()> {
        match self {
            Emulator::Base(db) => db.disconnect(set, member),
            Emulator::Layer { kind, inner, .. } => match kind.clone() {
                LayerKind::RenameSet { old, new } if set == old => inner.disconnect(&new, member),
                LayerKind::Promote { via_set, .. } if set == via_set => Err(DbError::constraint(
                    format!("emulation does not support DISCONNECT across split set {set}"),
                )),
                _ => inner.disconnect(set, member),
            },
        }
    }
}

// Layers are stateless call mappings; atomicity lives in the base
// store, so savepoints pass straight through the stack.
impl AtomicStore for Emulator {
    fn begin_savepoint(&mut self) -> Savepoint {
        match self {
            Emulator::Base(db) => db.begin_savepoint(),
            Emulator::Layer { inner, .. } => inner.begin_savepoint(),
        }
    }

    fn rollback_to(&mut self, sp: Savepoint) {
        match self {
            Emulator::Base(db) => db.rollback_to(sp),
            Emulator::Layer { inner, .. } => inner.rollback_to(sp),
        }
    }

    fn commit_savepoint(&mut self, sp: Savepoint) {
        match self {
            Emulator::Base(db) => db.commit(sp),
            Emulator::Layer { inner, .. } => inner.commit_savepoint(sp),
        }
    }
}

impl Emulator {
    /// Read-only owner lookup used by `field_value` (which has `&self`).
    fn owner_in_readonly(&self, set: &str, member: RecordId) -> DbResult<Option<RecordId>> {
        match self {
            Emulator::Base(db) => NetworkDb::owner_in(db, set, member),
            Emulator::Layer { kind, inner, .. } => match kind {
                LayerKind::RenameSet { old, new } if set == old => {
                    inner.owner_in_readonly(new, member)
                }
                _ => inner.owner_in_readonly(set, member),
            },
        }
    }
}

/// Identity helper (keeps the borrow checker satisfied around the re-home
/// sequence without cloning ids).
fn div_safe(id: RecordId) -> RecordId {
    id
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpc_datamodel::network::{FieldDef, RecordTypeDef, SetDef};
    use dbpc_datamodel::types::FieldType;
    use dbpc_dml::host::parse_program;
    use dbpc_engine::host_exec::run_host;
    use dbpc_engine::{diff_traces, Inputs};

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

    fn fig_4_4() -> Restructuring {
        Restructuring::single(Transform::PromoteFieldToOwner {
            record: "EMP".into(),
            field: "DEPT-NAME".into(),
            via_set: "DIV-EMP".into(),
            new_record: "DEPT".into(),
            upper_set: "DIV-DEPT".into(),
            lower_set: "DEPT-EMP".into(),
        })
    }

    /// The emulation contract: an UNMODIFIED source program produces the
    /// same trace over the emulator as over the source database.
    #[test]
    fn retrieval_program_emulates_exactly() {
        let src = "PROGRAM P;
  FIND E := FIND(EMP: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'MACHINERY'), DIV-EMP, EMP(DEPT-NAME = 'SALES'));
  FOR EACH R IN E DO
    PRINT R.EMP-NAME, R.AGE, R.DIV-NAME;
  END FOR;
END PROGRAM;";
        let p = parse_program(src).unwrap();
        let mut source_db = company_db();
        let target_db = fig_4_4().translate(&source_db).unwrap();
        let t_src = run_host(&mut source_db, &p, Inputs::new()).unwrap();
        let mut emu = Emulator::over(target_db, &company_schema(), &fig_4_4()).unwrap();
        let t_emu = run_host(&mut emu, &p, Inputs::new()).unwrap();
        assert_eq!(diff_traces(&t_src, &t_emu), None);
        assert_eq!(
            t_src.terminal_lines(),
            vec!["ADAMS 28 MACHINERY", "JONES 34 MACHINERY"]
        );
    }

    #[test]
    fn store_and_modify_emulate_exactly() {
        let src = "PROGRAM P;
  FIND D := FIND(DIV: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'MACHINERY'));
  STORE EMP (EMP-NAME := 'NEWMAN', DEPT-NAME := 'ENG', AGE := 21) CONNECT TO DIV-EMP OF D;
  FIND E := FIND(EMP: D, DIV-EMP, EMP(EMP-NAME = 'NEWMAN'));
  MODIFY E SET (DEPT-NAME := 'SALES', AGE := 22);
  FOR EACH R IN FIND(EMP: D, DIV-EMP, EMP(DEPT-NAME = 'SALES')) DO
    PRINT R.EMP-NAME, R.AGE;
  END FOR;
END PROGRAM;";
        let p = parse_program(src).unwrap();
        let mut source_db = company_db();
        let target_db = fig_4_4().translate(&source_db).unwrap();
        let t_src = run_host(&mut source_db, &p, Inputs::new()).unwrap();
        let mut emu = Emulator::over(target_db, &company_schema(), &fig_4_4()).unwrap();
        let t_emu = run_host(&mut emu, &p, Inputs::new()).unwrap();
        assert_eq!(diff_traces(&t_src, &t_emu), None);
        // The re-homed NEWMAN now counts among SALES.
        assert_eq!(
            t_src.terminal_lines(),
            vec!["ADAMS 28", "JONES 34", "NEWMAN 22"]
        );
        // And the empty ENG group was garbage-collected in the target.
        let target = emu.into_target();
        let depts = target.records_of_type("DEPT");
        let names: Vec<Value> = depts
            .iter()
            .map(|&d| target.field_value(d, "DEPT-NAME").unwrap())
            .collect();
        assert!(!names.contains(&Value::str("ENG")));
    }

    #[test]
    fn erase_garbage_collects_empty_groups() {
        let src = "PROGRAM P;
  FIND D := FIND(DIV: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'MACHINERY'));
  FIND E := FIND(EMP: D, DIV-EMP, EMP(DEPT-NAME = 'MFG'));
  DELETE E;
  DELETE D;
  FIND LEFT := FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP);
  PRINT COUNT(LEFT);
END PROGRAM;";
        // DELETE D should fail in both worlds (MACHINERY still has SALES
        // employees), producing identical abort traces.
        let p = parse_program(src).unwrap();
        let mut source_db = company_db();
        let target_db = fig_4_4().translate(&source_db).unwrap();
        let t_src = run_host(&mut source_db, &p, Inputs::new()).unwrap();
        let mut emu = Emulator::over(target_db, &company_schema(), &fig_4_4()).unwrap();
        let t_emu = run_host(&mut emu, &p, Inputs::new()).unwrap();
        assert!(t_src.aborted());
        assert!(t_emu.aborted());
    }

    #[test]
    fn rename_layers_compose() {
        let r = Restructuring::new(vec![
            Transform::RenameField {
                record: "EMP".into(),
                old: "AGE".into(),
                new: "YEARS".into(),
            },
            Transform::RenameRecord {
                old: "EMP".into(),
                new: "WORKER".into(),
            },
            Transform::RenameSet {
                old: "DIV-EMP".into(),
                new: "STAFF".into(),
            },
        ]);
        let src = "PROGRAM P;
  FIND E := FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 30));
  FOR EACH R IN E DO
    PRINT R.EMP-NAME, R.AGE;
  END FOR;
END PROGRAM;";
        let p = parse_program(src).unwrap();
        let mut source_db = company_db();
        let target_db = r.translate(&source_db).unwrap();
        let t_src = run_host(&mut source_db, &p, Inputs::new()).unwrap();
        let mut emu = Emulator::over(target_db, &company_schema(), &r).unwrap();
        let t_emu = run_host(&mut emu, &p, Inputs::new()).unwrap();
        assert_eq!(diff_traces(&t_src, &t_emu), None);
    }

    #[test]
    fn key_change_resorted_per_call() {
        let r = Restructuring::single(Transform::ChangeSetKeys {
            set: "DIV-EMP".into(),
            keys: vec!["AGE".into()],
        });
        let src = "PROGRAM P;
  FIND E := FIND(EMP: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'MACHINERY'), DIV-EMP, EMP);
  FOR EACH R IN E DO
    PRINT R.EMP-NAME;
  END FOR;
END PROGRAM;";
        let p = parse_program(src).unwrap();
        let mut source_db = company_db();
        let target_db = r.translate(&source_db).unwrap();
        let t_src = run_host(&mut source_db, &p, Inputs::new()).unwrap();
        let mut emu = Emulator::over(target_db, &company_schema(), &r).unwrap();
        let t_emu = run_host(&mut emu, &p, Inputs::new()).unwrap();
        assert_eq!(diff_traces(&t_src, &t_emu), None);
        assert_eq!(t_src.terminal_lines(), vec!["ADAMS", "BAKER", "JONES"]);
    }

    #[test]
    fn unsupported_transforms_rejected_at_build() {
        let r = Restructuring::single(Transform::DropField {
            record: "EMP".into(),
            field: "AGE".into(),
        });
        let target = r.translate(&company_db()).unwrap();
        assert!(Emulator::over(target, &company_schema(), &r).is_err());
    }

    #[test]
    fn connect_across_split_set_is_restricted() {
        let mut source_db = company_db();
        let target_db = fig_4_4().translate(&source_db).unwrap();
        let src = "PROGRAM P;
  FIND D := FIND(DIV: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'MACHINERY'));
  FIND E := FIND(EMP: D, DIV-EMP, EMP(EMP-NAME = 'JONES'));
  DISCONNECT E FROM DIV-EMP;
END PROGRAM;";
        let p = parse_program(src).unwrap();
        // Source world: works (OPTIONAL retention).
        let t_src = run_host(&mut source_db, &p, Inputs::new()).unwrap();
        assert!(!t_src.aborted());
        // Emulated world: restricted — an observable abort. This is the
        // §2.1.2 restrictiveness drawback, faithfully reproduced.
        let mut emu = Emulator::over(target_db, &company_schema(), &fig_4_4()).unwrap();
        let t_emu = run_host(&mut emu, &p, Inputs::new()).unwrap();
        assert!(t_emu.aborted());
    }
}
