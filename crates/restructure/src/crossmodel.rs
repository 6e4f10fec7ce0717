//! Cross-model mappings: network ⇄ relational and network → hierarchical.
//!
//! §4.1's central claim is that "since the conversion takes place at a level
//! of abstraction that is removed from an actual DBMS language, conversion
//! from one DBMS to another to account for some schema changes is possible."
//! These mappings provide the *database* side of that story (the program
//! side is the converter's cross-model lowering).
//!
//! The network→relational encoding is the classic database-key encoding:
//! every record type becomes a table carrying a synthetic `DBKEY` column
//! (the record identifier) and, for each record-owned set it belongs to, a
//! `<SET>-OWNER` column holding the owner's `DBKEY` (null when
//! disconnected). The encoding is lossless and mechanically invertible,
//! which is what lets the bridge baseline reconstruct network-form data
//! from a relational target.

use dbpc_datamodel::hierarchical::{HierSchema, SegmentDef};
use dbpc_datamodel::network::{NetworkSchema, SetOwner};
use dbpc_datamodel::relational::{ColumnDef, RelationalSchema, TableDef};
use dbpc_datamodel::types::FieldType;
use dbpc_datamodel::value::Value;
use dbpc_storage::{DbError, DbResult, HierDb, NetworkDb, RecordId, RelationalDb, SYSTEM_OWNER};
use std::collections::BTreeMap;

/// Name of the synthetic record-identity column.
pub const DBKEY: &str = "DBKEY";

/// Owner-reference column name for a set.
pub fn owner_column(set: &str) -> String {
    format!("{set}-OWNER")
}

/// Map a network schema to its relational encoding.
pub fn network_schema_to_relational(schema: &NetworkSchema) -> RelationalSchema {
    let mut rel = RelationalSchema::new(schema.name.clone());
    for r in &schema.records {
        let mut cols = vec![ColumnDef::new(DBKEY, FieldType::Int(10))];
        for f in &r.fields {
            if f.is_virtual() {
                // Virtual fields are derivable: they do not materialize.
                continue;
            }
            cols.push(ColumnDef::new(f.name.clone(), f.ty.clone()));
        }
        let mut table = TableDef::new(r.name.clone(), cols).with_key(vec![DBKEY]);
        for s in schema.sets_with_member(&r.name) {
            if let SetOwner::Record(owner) = &s.owner {
                table
                    .columns
                    .push(ColumnDef::new(owner_column(&s.name), FieldType::Int(10)));
                table
                    .foreign_keys
                    .push(dbpc_datamodel::relational::ForeignKey {
                        columns: vec![owner_column(&s.name)],
                        parent_table: owner.clone(),
                        parent_columns: vec![DBKEY.to_string()],
                    });
            }
        }
        rel.tables.push(table);
    }
    rel
}

/// Translate a network database into its relational encoding.
pub fn network_db_to_relational(db: &NetworkDb) -> DbResult<RelationalDb> {
    let rel_schema = network_schema_to_relational(db.schema());
    let mut out = RelationalDb::new(rel_schema)?;
    for r in &db.schema().records {
        let member_sets: Vec<String> = db
            .schema()
            .sets_with_member(&r.name)
            .iter()
            .filter(|s| !s.is_system())
            .map(|s| s.name.clone())
            .collect();
        for id in db.records_of_type(&r.name) {
            let rec = db.get(id)?;
            let mut vals: Vec<(String, Value)> = vec![(DBKEY.to_string(), Value::Int(id.0 as i64))];
            for (i, f) in r.fields.iter().enumerate() {
                if f.is_virtual() {
                    continue;
                }
                vals.push((f.name.clone(), rec.values[i].clone()));
            }
            for set in &member_sets {
                let owner = db.owner_in(set, id)?;
                let v = match owner {
                    Some(o) if o != SYSTEM_OWNER => Value::Int(o.0 as i64),
                    _ => Value::Null,
                };
                vals.push((owner_column(set), v));
            }
            let vref: Vec<(&str, Value)> =
                vals.iter().map(|(c, v)| (c.as_str(), v.clone())).collect();
            out.insert(&r.name, &vref)?;
        }
    }
    Ok(out)
}

/// Reconstruct a network database from its relational encoding — the
/// inverse mapping (Housel's requirement, and the bridge's reconstruction
/// step).
pub fn relational_db_to_network(rel: &RelationalDb, schema: &NetworkSchema) -> DbResult<NetworkDb> {
    let mut out = NetworkDb::new(schema.clone())?;
    let mut idmap: BTreeMap<i64, RecordId> = BTreeMap::new();
    // Owner types before member types.
    let mut order: Vec<&str> = Vec::new();
    let mut remaining: Vec<&str> = schema.records.iter().map(|r| r.name.as_str()).collect();
    while !remaining.is_empty() {
        let before = remaining.len();
        remaining.retain(|r| {
            let ready = schema.sets_with_member(r).iter().all(|s| match &s.owner {
                SetOwner::System => true,
                SetOwner::Record(o) => order.contains(&o.as_str()),
            });
            if ready {
                order.push(r);
            }
            !ready
        });
        if remaining.len() == before {
            return Err(DbError::constraint("ownership cycle".to_string()));
        }
    }
    for rtype in order {
        let rdef = schema
            .record(rtype)
            .ok_or_else(|| DbError::unknown("record", rtype))?;
        let tdef = rel
            .schema()
            .table(rtype)
            .ok_or_else(|| DbError::unknown("table", rtype))?
            .clone();
        // Rows sorted by DBKEY reproduce creation order.
        let mut rows = rel.scan(rtype)?;
        let key_idx = tdef
            .column_index(DBKEY)
            .ok_or_else(|| DbError::unknown("column", DBKEY))?;
        rows.sort_by(|a, b| a[key_idx].total_cmp(&b[key_idx]));
        for row in rows {
            let dbkey = row[key_idx]
                .as_int()
                .ok_or_else(|| DbError::constraint("non-integer DBKEY".to_string()))?;
            let mut vals: Vec<(String, Value)> = Vec::new();
            for f in &rdef.fields {
                if f.is_virtual() {
                    continue;
                }
                let idx = tdef
                    .column_index(&f.name)
                    .ok_or_else(|| DbError::unknown("column", &f.name))?;
                vals.push((f.name.clone(), row[idx].clone()));
            }
            let mut connects: Vec<(String, RecordId)> = Vec::new();
            for s in schema.sets_with_member(rtype) {
                if s.is_system() {
                    continue;
                }
                let col = owner_column(&s.name);
                let idx = tdef
                    .column_index(&col)
                    .ok_or_else(|| DbError::unknown("column", &col))?;
                if let Some(owner_key) = row[idx].as_int() {
                    let owner = idmap.get(&owner_key).ok_or_else(|| {
                        DbError::constraint(format!("dangling owner {owner_key}"))
                    })?;
                    connects.push((s.name.clone(), *owner));
                }
            }
            let vref: Vec<(&str, Value)> =
                vals.iter().map(|(c, v)| (c.as_str(), v.clone())).collect();
            let cref: Vec<(&str, RecordId)> =
                connects.iter().map(|(s, o)| (s.as_str(), *o)).collect();
            let new_id = out.store(rtype, &vref, &cref)?;
            idmap.insert(dbkey, new_id);
        }
    }
    Ok(out)
}

/// Map a forest-shaped network schema to a hierarchical schema. Fails when
/// a record type is a member of more than one record-owned set (a genuine
/// network, not expressible as a hierarchy — the structural gap between the
/// two models the paper's §3.1 discusses).
pub fn network_schema_to_hier(schema: &NetworkSchema) -> DbResult<HierSchema> {
    // Find each record's unique parent (via record-owned sets).
    let mut parent: BTreeMap<&str, (&str, Option<String>)> = BTreeMap::new();
    for r in &schema.records {
        let owned: Vec<_> = schema
            .sets_with_member(&r.name)
            .into_iter()
            .filter(|s| !s.is_system())
            .collect();
        if owned.len() > 1 {
            return Err(DbError::constraint(format!(
                "record {} has {} owners; not a hierarchy",
                r.name,
                owned.len()
            )));
        }
        if let Some(s) = owned.first() {
            let owner = s
                .owner
                .record_name()
                .ok_or_else(|| DbError::unknown("set owner", s.name.clone()))?;
            parent.insert(r.name.as_str(), (owner, s.keys.first().cloned()));
        }
    }
    fn build(
        schema: &NetworkSchema,
        parent: &BTreeMap<&str, (&str, Option<String>)>,
        name: &str,
    ) -> DbResult<SegmentDef> {
        let r = schema
            .record(name)
            .ok_or_else(|| DbError::unknown("record", name))?;
        let fields = r
            .fields
            .iter()
            .filter(|f| !f.is_virtual())
            .cloned()
            .collect();
        let mut seg = SegmentDef::new(name, fields);
        if let Some((_, Some(key))) = parent.get(name) {
            seg.seq_field = Some(key.clone());
        } else if let Some(sys) = schema.system_sets_of(name).first() {
            if let Some(k) = sys.keys.first() {
                seg.seq_field = Some(k.clone());
            }
        }
        for child in &schema.records {
            if parent.get(child.name.as_str()).map(|(p, _)| *p) == Some(name) {
                seg.children.push(build(schema, parent, &child.name)?);
            }
        }
        Ok(seg)
    }
    let mut hier = HierSchema::new(schema.name.clone());
    for r in &schema.records {
        if !parent.contains_key(r.name.as_str()) {
            hier.roots.push(build(schema, &parent, &r.name)?);
        }
    }
    hier.validate()
        .map_err(|e| DbError::constraint(e.to_string()))?;
    Ok(hier)
}

/// Translate a forest-shaped network database into a hierarchical one.
pub fn network_db_to_hier(db: &NetworkDb) -> DbResult<HierDb> {
    let hier_schema = network_schema_to_hier(db.schema())?;
    let mut out = HierDb::new(hier_schema.clone())?;
    let mut idmap: BTreeMap<RecordId, u64> = BTreeMap::new();
    // Parents before children: hierarchic order of the segment types.
    let type_order: Vec<String> = hier_schema
        .hierarchic_order()
        .into_iter()
        .map(String::from)
        .collect();
    for rtype in &type_order {
        let rdef = db
            .schema()
            .record(rtype)
            .ok_or_else(|| DbError::unknown("record", rtype.as_str()))?
            .clone();
        let parent_set: Option<String> = db
            .schema()
            .sets_with_member(rtype)
            .into_iter()
            .filter(|s| !s.is_system())
            .map(|s| s.name.clone())
            .next();
        for id in db.records_of_type(rtype) {
            let rec = db.get(id)?;
            let vals: Vec<(String, Value)> = rdef
                .fields
                .iter()
                .enumerate()
                .filter(|(_, f)| !f.is_virtual())
                .map(|(i, f)| (f.name.clone(), rec.values[i].clone()))
                .collect();
            let parent_occ = match &parent_set {
                None => None,
                Some(set) => match db.owner_in(set, id)? {
                    Some(o) if o != SYSTEM_OWNER => Some(idmap[&o]),
                    _ => {
                        return Err(DbError::constraint(format!(
                            "record #{} disconnected from {set}; cannot place in hierarchy",
                            id.0
                        )))
                    }
                },
            };
            let vref: Vec<(&str, Value)> =
                vals.iter().map(|(f, v)| (f.as_str(), v.clone())).collect();
            let seg = out.insert(rtype, &vref, parent_occ)?;
            idmap.insert(id, seg);
        }
    }
    Ok(out)
}

/// Reorder the child segment types of `parent` in a hierarchical schema —
/// the Mehl & Wang transformation (paper ref 11): "changes in the
/// hierarchical order of an IMS structure". `new_order` must be a
/// permutation of the existing child type names.
pub fn reorder_hier_children(
    schema: &HierSchema,
    parent: &str,
    new_order: &[&str],
) -> DbResult<HierSchema> {
    let mut out = schema.clone();
    let seg = out
        .segment_mut(parent)
        .ok_or_else(|| DbError::unknown("segment", parent))?;
    if seg.children.len() != new_order.len()
        || !new_order
            .iter()
            .all(|n| seg.children.iter().any(|c| &c.name == n))
    {
        return Err(DbError::constraint(format!(
            "new order is not a permutation of {parent}'s children"
        )));
    }
    let mut reordered = Vec::with_capacity(seg.children.len());
    for n in new_order {
        let idx = seg
            .children
            .iter()
            .position(|c| &c.name == n)
            .ok_or_else(|| {
                DbError::constraint(format!(
                    "new order is not a permutation of {parent}'s children"
                ))
            })?;
        reordered.push(seg.children.remove(idx));
    }
    seg.children = reordered;
    out.validate()
        .map_err(|e| DbError::constraint(e.to_string()))?;
    Ok(out)
}

/// Translate a hierarchical database to a reordered schema: same segment
/// occurrences, new hierarchic sequence.
pub fn translate_hier_reorder(db: &HierDb, new_schema: &HierSchema) -> DbResult<HierDb> {
    let mut out = HierDb::new(new_schema.clone())?;
    let mut idmap: BTreeMap<u64, u64> = BTreeMap::new();
    // Reinsert in the OLD preorder; the engine re-groups children by the
    // new type ranks.
    for id in db.preorder() {
        let inst = db.get(id)?;
        let def = db
            .schema()
            .segment(&inst.seg_type)
            .ok_or_else(|| DbError::unknown("segment", &inst.seg_type))?;
        let vals: Vec<(&str, Value)> = def
            .fields
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.as_str(), inst.values[i].clone()))
            .collect();
        let parent = inst.parent.map(|p| idmap[&p]);
        let new_id = out.insert(&inst.seg_type, &vals, parent)?;
        idmap.insert(id, new_id);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpc_datamodel::network::{FieldDef, RecordTypeDef, SetDef};

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
        for (n, a) in [("JONES", 34), ("ADAMS", 28)] {
            db.store(
                "EMP",
                &[("EMP-NAME", Value::str(n)), ("AGE", Value::Int(a))],
                &[("DIV-EMP", mach)],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn relational_encoding_has_dbkey_and_owner_columns() {
        let rel = network_schema_to_relational(&company_schema());
        let emp = rel.table("EMP").unwrap();
        assert!(emp.column(DBKEY).is_some());
        assert!(emp.column("DIV-EMP-OWNER").is_some());
        // Virtual field does not materialize.
        assert!(emp.column("DIV-NAME").is_none());
        rel.validate().unwrap();
    }

    #[test]
    fn network_to_relational_round_trips() {
        let src = company_db();
        let rel = network_db_to_relational(&src).unwrap();
        assert_eq!(rel.row_count("EMP").unwrap(), 2);
        let back = relational_db_to_network(&rel, src.schema()).unwrap();
        assert_eq!(back.records_of_type("EMP").len(), 2);
        // Set membership and order survive.
        let mach = back.records_of_type("DIV")[0];
        let names: Vec<Value> = back
            .members_of("DIV-EMP", mach)
            .unwrap()
            .iter()
            .map(|&e| back.field_value(e, "EMP-NAME").unwrap())
            .collect();
        assert_eq!(names, vec![Value::str("ADAMS"), Value::str("JONES")]);
        // Virtual field resolves again after reconstruction.
        let emp = back.records_of_type("EMP")[0];
        assert_eq!(
            back.field_value(emp, "DIV-NAME").unwrap(),
            Value::str("MACHINERY")
        );
    }

    #[test]
    fn hier_mapping_builds_forest() {
        let hier = network_schema_to_hier(&company_schema()).unwrap();
        assert_eq!(hier.hierarchic_order(), vec!["DIV", "EMP"]);
        assert_eq!(
            hier.segment("EMP").unwrap().seq_field.as_deref(),
            Some("EMP-NAME")
        );
    }

    #[test]
    fn hier_db_translation_preserves_structure() {
        let src = company_db();
        let h = network_db_to_hier(&src).unwrap();
        assert_eq!(h.segment_count(), 3);
        let emps = h.occurrences_of("EMP");
        let names: Vec<Value> = emps
            .iter()
            .map(|&e| h.field_value(e, "EMP-NAME").unwrap())
            .collect();
        assert_eq!(names, vec![Value::str("ADAMS"), Value::str("JONES")]);
    }

    #[test]
    fn true_network_rejected_by_hier_mapping() {
        // COURSE-OFFERING has two owners: a genuine network.
        let s = NetworkSchema::new("SCHOOL")
            .with_record(RecordTypeDef::new(
                "COURSE",
                vec![FieldDef::new("CNO", FieldType::Char(6))],
            ))
            .with_record(RecordTypeDef::new(
                "SEMESTER",
                vec![FieldDef::new("S", FieldType::Char(4))],
            ))
            .with_record(RecordTypeDef::new(
                "COURSE-OFFERING",
                vec![FieldDef::new("ID", FieldType::Char(8))],
            ))
            .with_set(SetDef::owned("CO", "COURSE", "COURSE-OFFERING", vec![]))
            .with_set(SetDef::owned("SO", "SEMESTER", "COURSE-OFFERING", vec![]));
        assert!(network_schema_to_hier(&s).is_err());
    }
}
