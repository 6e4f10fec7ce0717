//! The relational storage engine.
//!
//! Deliberately 1979-shaped: tables are bags of rows in insertion order
//! (SEQUEL results are unordered unless `ORDER BY` is given — which is why
//! the converter must reason about order observability), primary-key
//! uniqueness is enforced when declared ("the only constraint maintained
//! explicitly in the relational model", §3.1), and foreign keys are checked
//! only when `enforce_foreign_keys` is enabled — so the §3.1 scenario of
//! integrity constraints living in application programs is reproducible.

use crate::error::{DbError, DbResult};
use crate::keys::KeyTuple;
use crate::stats::AccessStats;
use crate::txn::{Savepoint, UndoLog};
use dbpc_datamodel::relational::{RelationalSchema, TableDef};
use dbpc_datamodel::value::Value;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// Identifier of a stored row (stable across deletes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowId(pub u64);

/// A maintained secondary index over one column set.
///
/// Because [`KeyTuple`]'s order is [`Value::total_cmp`] — the same relation
/// `loose_eq` is defined by — a map probe matches exactly the rows a
/// per-row `loose_eq` filter would (including `Int(1)`/`Float(1.0)`
/// cross-type equality), so equality pushdown through this index is
/// semantically identical to a full scan.
#[derive(Debug, Clone)]
struct SecondaryIndex {
    /// Indexed columns, in index-key order.
    cols: Vec<String>,
    /// Positions of `cols` in the row layout.
    idxs: Vec<usize>,
    /// Key → row ids, ascending (= insertion/storage order).
    map: BTreeMap<KeyTuple, Vec<u64>>,
}

impl SecondaryIndex {
    fn key_of(&self, row: &[Value]) -> KeyTuple {
        KeyTuple(self.idxs.iter().map(|&i| row[i].clone()).collect())
    }

    fn add(&mut self, row: &[Value], id: u64) {
        let ids = self.map.entry(self.key_of(row)).or_default();
        let at = ids.partition_point(|&x| x < id);
        ids.insert(at, id);
    }

    fn remove(&mut self, row: &[Value], id: u64) {
        let key = self.key_of(row);
        if let Some(ids) = self.map.get_mut(&key) {
            if let Ok(at) = ids.binary_search(&id) {
                ids.remove(at);
            }
            if ids.is_empty() {
                self.map.remove(&key);
            }
        }
    }
}

#[derive(Debug, Clone, Default)]
struct Table {
    rows: BTreeMap<u64, Vec<Value>>,
    /// Primary-key index (only when the table declares a key).
    pk_index: BTreeMap<KeyTuple, u64>,
    /// Maintained secondary indexes (created via `create_index`).
    indexes: Vec<SecondaryIndex>,
}

/// Physical inverse of one relational mutation, journaled while a
/// savepoint is open. Index maintenance (pk + secondary) is replayed by
/// the undo application itself, so rollback restores the derived
/// structures along with the rows.
#[derive(Debug, Clone)]
enum RelUndo {
    /// Undo an insert: remove the row again.
    Insert { table: String, id: u64 },
    /// Undo a delete: reinstate the removed row.
    Delete {
        table: String,
        id: u64,
        row: Vec<Value>,
    },
    /// Undo an update: restore the previous row image.
    Update {
        table: String,
        id: u64,
        row: Vec<Value>,
    },
}

/// A relational database instance.
#[derive(Debug, Clone)]
pub struct RelationalDb {
    schema: RelationalSchema,
    tables: BTreeMap<String, Table>,
    next_id: u64,
    /// Enforce declared foreign keys on insert/delete. Off by default,
    /// mirroring 1979 systems.
    pub enforce_foreign_keys: bool,
    /// Access-path counters (interior-mutable so read paths can count).
    stats: AccessStats,
    /// Undo journal; metadata per savepoint is the `next_id` watermark.
    journal: UndoLog<RelUndo, u64>,
}

impl RelationalDb {
    pub fn new(schema: RelationalSchema) -> DbResult<RelationalDb> {
        schema
            .validate()
            .map_err(|e| DbError::constraint(e.to_string()))?;
        let tables = schema
            .tables
            .iter()
            .map(|t| (t.name.clone(), Table::default()))
            .collect();
        Ok(RelationalDb {
            schema,
            tables,
            next_id: 1,
            enforce_foreign_keys: false,
            stats: AccessStats::default(),
            journal: UndoLog::default(),
        })
    }

    /// Open a savepoint. Until it is rolled back or committed, every
    /// mutation journals its inverse. Savepoints nest.
    pub fn begin_savepoint(&mut self) -> Savepoint {
        self.journal.begin(self.next_id)
    }

    /// Restore the database to its state at `begin_savepoint`, including
    /// the pk/secondary indexes and the row-id allocator. Savepoints
    /// opened after `sp` are discarded; a stale handle is a no-op.
    pub fn rollback_to(&mut self, sp: Savepoint) {
        if let Some((ops, next_id)) = self.journal.rollback(sp) {
            for op in ops {
                self.apply_undo(op);
            }
            self.next_id = next_id;
        }
    }

    /// Keep everything done since `sp` and close it (plus any savepoint
    /// nested inside it). A stale handle is a no-op.
    pub fn commit(&mut self, sp: Savepoint) {
        self.journal.commit(sp);
    }

    fn apply_undo(&mut self, op: RelUndo) {
        // Undo ops are applied newest-first and were journaled against
        // the exact state they now revert; missing rows/tables below can
        // only mean a stale handle was misused, and are skipped rather
        // than compounded.
        match op {
            RelUndo::Insert { table, id } => {
                let def = self.schema.table(&table);
                if let Some(t) = self.tables.get_mut(&table) {
                    if let Some(row) = t.rows.remove(&id) {
                        if let Some(pk) = def.and_then(|d| pk_of_static(d, &row)) {
                            t.pk_index.remove(&pk);
                        }
                        for ix in &mut t.indexes {
                            ix.remove(&row, id);
                        }
                    }
                }
            }
            RelUndo::Delete { table, id, row } => {
                let pk = self
                    .schema
                    .table(&table)
                    .and_then(|d| pk_of_static(d, &row));
                if let Some(t) = self.tables.get_mut(&table) {
                    for ix in &mut t.indexes {
                        ix.add(&row, id);
                    }
                    if let Some(pk) = pk {
                        t.pk_index.insert(pk, id);
                    }
                    t.rows.insert(id, row);
                }
            }
            RelUndo::Update { table, id, row } => {
                let def = self.schema.table(&table);
                let old_pk = def.and_then(|d| pk_of_static(d, &row));
                if let Some(t) = self.tables.get_mut(&table) {
                    if let Some(cur) = t.rows.get(&id).cloned() {
                        if let Some(pk) = def.and_then(|d| pk_of_static(d, &cur)) {
                            t.pk_index.remove(&pk);
                        }
                        for ix in &mut t.indexes {
                            ix.remove(&cur, id);
                        }
                    }
                    for ix in &mut t.indexes {
                        ix.add(&row, id);
                    }
                    if let Some(pk) = old_pk {
                        t.pk_index.insert(pk, id);
                    }
                    t.rows.insert(id, row);
                }
            }
        }
    }

    /// Deterministic digest of the full logical state: rows, the id
    /// allocator, and the fk-enforcement flag. Derived structures (pk and
    /// secondary indexes) are excluded — they are a function of the rows,
    /// verified separately by [`RelationalDb::check_access_structures`].
    pub fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.next_id.hash(&mut h);
        self.enforce_foreign_keys.hash(&mut h);
        for (name, t) in &self.tables {
            name.hash(&mut h);
            t.rows.len().hash(&mut h);
            for (id, row) in &t.rows {
                id.hash(&mut h);
                row.hash(&mut h);
            }
        }
        h.finish()
    }

    pub fn schema(&self) -> &RelationalSchema {
        &self.schema
    }

    /// Access-path counters for this database.
    pub fn access_stats(&self) -> &AccessStats {
        &self.stats
    }

    /// Create (and backfill) a secondary index on `cols`. Idempotent for an
    /// identical column list.
    pub fn create_index(&mut self, table: &str, cols: &[&str]) -> DbResult<()> {
        let def = self
            .schema
            .table(table)
            .ok_or_else(|| DbError::unknown("table", table))?;
        let mut idxs = Vec::with_capacity(cols.len());
        for c in cols {
            idxs.push(
                def.column_index(c)
                    .ok_or_else(|| DbError::unknown("column", format!("{table}.{c}")))?,
            );
        }
        let Some(t) = self.tables.get_mut(table) else {
            return Err(DbError::unknown("table", table));
        };
        if t.indexes.iter().any(|ix| ix.idxs == idxs) {
            return Ok(());
        }
        let mut ix = SecondaryIndex {
            cols: cols.iter().map(|c| c.to_string()).collect(),
            idxs,
            map: BTreeMap::new(),
        };
        for (&id, row) in &t.rows {
            ix.add(row, id);
        }
        t.indexes.push(ix);
        Ok(())
    }

    fn table_def(&self, name: &str) -> DbResult<&TableDef> {
        self.schema
            .table(name)
            .ok_or_else(|| DbError::unknown("table", name))
    }

    /// Number of rows in a table.
    pub fn row_count(&self, table: &str) -> DbResult<usize> {
        Ok(self
            .tables
            .get(table)
            .ok_or_else(|| DbError::unknown("table", table))?
            .rows
            .len())
    }

    /// Fetch one row.
    pub fn row(&self, table: &str, id: RowId) -> DbResult<&[Value]> {
        self.tables
            .get(table)
            .ok_or_else(|| DbError::unknown("table", table))?
            .rows
            .get(&id.0)
            .map(|v| v.as_slice())
            .ok_or_else(|| DbError::NotFound(format!("{table} row #{}", id.0)))
    }

    /// All rows of a table in insertion order (cloned). Prefer
    /// [`RelationalDb::iter_rows`] on hot paths — this clones every cell.
    pub fn scan(&self, table: &str) -> DbResult<Vec<Vec<Value>>> {
        let t = self
            .tables
            .get(table)
            .ok_or_else(|| DbError::unknown("table", table))?;
        self.stats.scanned(t.rows.len() as u64);
        Ok(t.rows.values().cloned().collect())
    }

    /// Borrowing cursor over a table in insertion (storage) order.
    /// Each yielded row counts toward `rows_scanned`.
    pub fn iter_rows(&self, table: &str) -> DbResult<impl Iterator<Item = (RowId, &[Value])> + '_> {
        let t = self
            .tables
            .get(table)
            .ok_or_else(|| DbError::unknown("table", table))?;
        let stats = &self.stats;
        Ok(t.rows.iter().map(move |(&id, row)| {
            stats.scanned(1);
            (RowId(id), row.as_slice())
        }))
    }

    /// Equality-probe planner hook: given conjunctive `col = value` terms,
    /// return candidate row ids **in storage order** via the primary-key
    /// index or a secondary index, or `None` when no index covers the
    /// terms (caller falls back to a scan).
    ///
    /// Candidates are a superset of the true matches restricted to the
    /// probed columns; the caller must still apply its full predicate.
    /// Unknown columns yield `None` so the scan path reports the error
    /// exactly as before.
    pub fn probe_eq(&self, table: &str, eqs: &[(String, Value)]) -> DbResult<Option<Vec<RowId>>> {
        let def = self
            .schema
            .table(table)
            .ok_or_else(|| DbError::unknown("table", table))?;
        let t = &self.tables[table];
        if eqs.is_empty() {
            return Ok(None);
        }
        if eqs.iter().any(|(c, _)| def.column_index(c).is_none()) {
            return Ok(None);
        }
        let bound =
            |col: &str| -> Option<&Value> { eqs.iter().find(|(c, _)| c == col).map(|(_, v)| v) };
        // Primary key first: a full binding is a point lookup.
        if !def.primary_key.is_empty() {
            if let Some(key) = def
                .primary_key
                .iter()
                .map(|c| bound(c).cloned())
                .collect::<Option<Vec<Value>>>()
            {
                let hit = t.pk_index.get(&KeyTuple(key));
                self.stats.probed(hit.is_some());
                return Ok(Some(hit.map(|&id| RowId(id)).into_iter().collect()));
            }
        }
        // Any secondary index fully bound by the equality terms.
        for ix in &t.indexes {
            if let Some(key) = ix
                .cols
                .iter()
                .map(|c| bound(c).cloned())
                .collect::<Option<Vec<Value>>>()
            {
                let ids = ix.map.get(&KeyTuple(key));
                self.stats.probed(ids.is_some());
                return Ok(Some(
                    ids.map(|v| v.iter().map(|&id| RowId(id)).collect())
                        .unwrap_or_default(),
                ));
            }
        }
        Ok(None)
    }

    /// Current row count of a table. Non-counting: a statistics read, not
    /// a data access.
    pub fn table_cardinality(&self, table: &str) -> DbResult<u64> {
        Ok(self
            .tables
            .get(table)
            .ok_or_else(|| DbError::unknown("table", table))?
            .rows
            .len() as u64)
    }

    /// `(columns, distinct key count)` for each maintained secondary index
    /// of a table, in creation order. Non-counting.
    pub fn secondary_index_stats(&self, table: &str) -> DbResult<Vec<(Vec<String>, u64)>> {
        Ok(self
            .tables
            .get(table)
            .ok_or_else(|| DbError::unknown("table", table))?
            .indexes
            .iter()
            .map(|ix| (ix.cols.clone(), ix.map.len() as u64))
            .collect())
    }

    /// Statistics twin of [`RelationalDb::probe_eq`]: would the same
    /// equality terms be answerable by an index, and with how many distinct
    /// keys? Mirrors `probe_eq`'s index selection (primary key first, then
    /// the first fully-bound secondary) but **never counts a probe** — the
    /// planner consults this before deciding whether to probe at all.
    /// Returns `(distinct_keys, unique)`.
    pub fn probe_eq_stats(
        &self,
        table: &str,
        eqs: &[(String, Value)],
    ) -> DbResult<Option<(u64, bool)>> {
        let def = self
            .schema
            .table(table)
            .ok_or_else(|| DbError::unknown("table", table))?;
        let t = &self.tables[table];
        if eqs.is_empty() || eqs.iter().any(|(c, _)| def.column_index(c).is_none()) {
            return Ok(None);
        }
        let bound = |col: &str| eqs.iter().any(|(c, _)| c == col);
        if !def.primary_key.is_empty() && def.primary_key.iter().all(|c| bound(c)) {
            return Ok(Some((t.pk_index.len() as u64, true)));
        }
        for ix in &t.indexes {
            if ix.cols.iter().all(|c| bound(c)) {
                return Ok(Some((ix.map.len() as u64, false)));
            }
        }
        Ok(None)
    }

    /// Insert a row given `(column, value)` pairs; omitted columns are null.
    pub fn insert(&mut self, table: &str, values: &[(&str, Value)]) -> DbResult<RowId> {
        // Borrow the definition from the schema field directly (no clone):
        // the later mutation touches only the disjoint `tables`/`next_id`
        // fields, so the borrows split.
        let def = self
            .schema
            .table(table)
            .ok_or_else(|| DbError::unknown("table", table))?;
        let mut row = vec![Value::Null; def.columns.len()];
        for (name, v) in values {
            let idx = def
                .column_index(name)
                .ok_or_else(|| DbError::unknown("column", format!("{table}.{name}")))?;
            if !def.columns[idx].ty.admits(v) {
                return Err(DbError::TypeMismatch {
                    field: format!("{table}.{name}"),
                    detail: format!("{} does not fit {}", v.type_name(), def.columns[idx].ty),
                });
            }
            row[idx] = v.clone();
        }
        // Primary-key uniqueness.
        let pk = pk_of_static(def, &row);
        if let Some(pk) = &pk {
            if self.tables[table].pk_index.contains_key(pk) {
                return Err(DbError::Duplicate {
                    scope: format!("table {table}"),
                    key: format!("{:?}", pk.0),
                });
            }
        }
        // Foreign keys (optional enforcement).
        if self.enforce_foreign_keys {
            for fk in &def.foreign_keys {
                let child: Vec<&Value> = fk
                    .columns
                    .iter()
                    .filter_map(|c| def.column_index(c).map(|i| &row[i]))
                    .collect();
                if child.iter().any(|v| v.is_null()) {
                    continue; // null references are the §3.1 escape hatch
                }
                let parent = self
                    .schema
                    .table(&fk.parent_table)
                    .ok_or_else(|| DbError::unknown("table", &fk.parent_table))?;
                let found = self.tables[&fk.parent_table].rows.values().any(|prow| {
                    fk.parent_columns.iter().zip(&child).all(|(pc, cv)| {
                        parent
                            .column_index(pc)
                            .is_some_and(|i| prow[i].loose_eq(cv))
                    })
                });
                if !found {
                    return Err(DbError::constraint(format!(
                        "foreign key {table}({}) -> {}({})",
                        fk.columns.join(","),
                        fk.parent_table,
                        fk.parent_columns.join(",")
                    )));
                }
            }
        }
        let id = self.next_id;
        self.next_id += 1;
        let Some(t) = self.tables.get_mut(table) else {
            return Err(DbError::unknown("table", table));
        };
        for ix in &mut t.indexes {
            ix.add(&row, id);
        }
        t.rows.insert(id, row);
        if let Some(pk) = pk {
            t.pk_index.insert(pk, id);
        }
        self.journal.record_with(|| RelUndo::Insert {
            table: table.to_string(),
            id,
        });
        Ok(RowId(id))
    }

    /// Delete rows matching a predicate; returns the number deleted.
    pub fn delete_where<F>(&mut self, table: &str, pred: F) -> DbResult<usize>
    where
        F: Fn(&[Value]) -> bool,
    {
        let def = self
            .schema
            .table(table)
            .ok_or_else(|| DbError::unknown("table", table))?;
        let doomed: Vec<u64> = self.tables[table]
            .rows
            .iter()
            .filter(|(_, row)| {
                self.stats.scanned(1);
                pred(row)
            })
            .map(|(&id, _)| id)
            .collect();
        let Some(t) = self.tables.get_mut(table) else {
            return Err(DbError::unknown("table", table));
        };
        for id in &doomed {
            if let Some(row) = t.rows.remove(id) {
                if let Some(pk) = pk_of_static(def, &row) {
                    t.pk_index.remove(&pk);
                }
                for ix in &mut t.indexes {
                    ix.remove(&row, *id);
                }
                self.journal.record_with(|| RelUndo::Delete {
                    table: table.to_string(),
                    id: *id,
                    row,
                });
            }
        }
        Ok(doomed.len())
    }

    /// Update rows matching a predicate with `(column, value)` assignments;
    /// returns the number updated.
    pub fn update_where<F>(
        &mut self,
        table: &str,
        pred: F,
        assigns: &[(&str, Value)],
    ) -> DbResult<usize>
    where
        F: Fn(&[Value]) -> bool,
    {
        let def = self
            .schema
            .table(table)
            .ok_or_else(|| DbError::unknown("table", table))?;
        let mut idxs = Vec::new();
        for (name, v) in assigns {
            let idx = def
                .column_index(name)
                .ok_or_else(|| DbError::unknown("column", format!("{table}.{name}")))?;
            if !def.columns[idx].ty.admits(v) {
                return Err(DbError::TypeMismatch {
                    field: format!("{table}.{name}"),
                    detail: format!("{} does not fit {}", v.type_name(), def.columns[idx].ty),
                });
            }
            idxs.push((idx, v.clone()));
        }
        let targets: Vec<u64> = self.tables[table]
            .rows
            .iter()
            .filter(|(_, row)| {
                self.stats.scanned(1);
                pred(row)
            })
            .map(|(&id, _)| id)
            .collect();
        let pk_cols_touched = def
            .primary_key
            .iter()
            .any(|k| idxs.iter().any(|(i, _)| def.column_index(k) == Some(*i)));
        // Validate-then-commit: compute every new row and check key
        // uniqueness before mutating anything, so a rejected update leaves
        // the table untouched.
        type PlannedRow = (u64, Vec<Value>, Option<KeyTuple>, Option<KeyTuple>);
        let mut planned: Vec<PlannedRow> = Vec::new();
        let mut new_keys: Vec<KeyTuple> = Vec::new();
        for id in &targets {
            let mut row = self.tables[table].rows[id].clone();
            let old_pk = pk_of_static(def, &row);
            for (i, v) in &idxs {
                row[*i] = v.clone();
            }
            let new_pk = pk_of_static(def, &row);
            if pk_cols_touched {
                if let Some(np) = &new_pk {
                    let conflict_outside = self.tables[table]
                        .pk_index
                        .get(np)
                        .is_some_and(|owner| !targets.contains(owner));
                    if conflict_outside || new_keys.contains(np) {
                        return Err(DbError::Duplicate {
                            scope: format!("table {table}"),
                            key: format!("{:?}", np.0),
                        });
                    }
                    new_keys.push(np.clone());
                }
            }
            planned.push((*id, row, old_pk, new_pk));
        }
        let Some(t) = self.tables.get_mut(table) else {
            return Err(DbError::unknown("table", table));
        };
        for (id, row, old_pk, new_pk) in planned {
            if pk_cols_touched {
                if let Some(op) = old_pk {
                    t.pk_index.remove(&op);
                }
            }
            let undo = if self.journal.active() {
                t.rows.get(&id).cloned()
            } else {
                None
            };
            if let Some(old) = t.rows.get(&id) {
                for ix in &mut t.indexes {
                    ix.remove(old, id);
                }
            }
            for ix in &mut t.indexes {
                ix.add(&row, id);
            }
            t.rows.insert(id, row);
            if pk_cols_touched {
                if let Some(np) = new_pk {
                    t.pk_index.insert(np, id);
                }
            }
            if let Some(old) = undo {
                self.journal.record_with(|| RelUndo::Update {
                    table: table.to_string(),
                    id,
                    row: old,
                });
            }
        }
        Ok(targets.len())
    }

    /// Primary-key point lookup.
    pub fn find_by_key(&self, table: &str, key: &[Value]) -> DbResult<Option<RowId>> {
        let def = self.table_def(table)?;
        if def.primary_key.is_empty() {
            return Ok(None);
        }
        let hit = self.tables[table].pk_index.get(&KeyTuple(key.to_vec()));
        self.stats.probed(hit.is_some());
        Ok(hit.map(|&id| RowId(id)))
    }

    /// Verify every maintained access structure against a from-scratch
    /// rebuild. Returns a description of the first inconsistency found.
    pub fn check_access_structures(&self) -> Result<(), String> {
        for (name, t) in &self.tables {
            let def = self
                .schema
                .table(name)
                .ok_or_else(|| format!("table {name} stored but not in schema"))?;
            let mut fresh_pk = BTreeMap::new();
            for (&id, row) in &t.rows {
                if let Some(pk) = pk_of_static(def, row) {
                    if fresh_pk.insert(pk.clone(), id).is_some() {
                        return Err(format!("table {name}: duplicate pk {:?} in rows", pk.0));
                    }
                }
            }
            if fresh_pk != t.pk_index {
                return Err(format!("table {name}: pk index diverges from rows"));
            }
            for ix in &t.indexes {
                let mut fresh: BTreeMap<KeyTuple, Vec<u64>> = BTreeMap::new();
                for (&id, row) in &t.rows {
                    fresh.entry(ix.key_of(row)).or_default().push(id);
                }
                if fresh != ix.map {
                    return Err(format!(
                        "table {name}: secondary index on {:?} diverges from rows",
                        ix.cols
                    ));
                }
            }
        }
        Ok(())
    }
}

fn pk_of_static(def: &TableDef, row: &[Value]) -> Option<KeyTuple> {
    if def.primary_key.is_empty() {
        return None;
    }
    Some(KeyTuple(
        def.primary_key
            .iter()
            .map(|k| def.column_index(k).and_then(|i| row.get(i)).cloned())
            .collect::<Option<Vec<Value>>>()?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpc_datamodel::relational::ColumnDef;
    use dbpc_datamodel::types::FieldType;

    fn school() -> RelationalSchema {
        RelationalSchema::new("SCHOOL")
            .with_table(
                TableDef::new(
                    "COURSE",
                    vec![
                        ColumnDef::new("CNO", FieldType::Char(6)),
                        ColumnDef::new("CNAME", FieldType::Char(20)),
                    ],
                )
                .with_key(vec!["CNO"]),
            )
            .with_table(
                TableDef::new(
                    "COURSE-OFFERING",
                    vec![
                        ColumnDef::new("CNO", FieldType::Char(6)),
                        ColumnDef::new("S", FieldType::Char(4)),
                    ],
                )
                .with_key(vec!["CNO", "S"])
                .with_foreign_key(vec!["CNO"], "COURSE", vec!["CNO"]),
            )
    }

    #[test]
    fn insert_scan_order_is_insertion_order() {
        let mut db = RelationalDb::new(school()).unwrap();
        db.insert("COURSE", &[("CNO", Value::str("C2"))]).unwrap();
        db.insert("COURSE", &[("CNO", Value::str("C1"))]).unwrap();
        let rows = db.scan("COURSE").unwrap();
        assert_eq!(rows[0][0], Value::str("C2"));
        assert_eq!(rows[1][0], Value::str("C1"));
    }

    #[test]
    fn primary_key_uniqueness() {
        let mut db = RelationalDb::new(school()).unwrap();
        db.insert("COURSE", &[("CNO", Value::str("C1"))]).unwrap();
        assert!(matches!(
            db.insert("COURSE", &[("CNO", Value::str("C1"))]),
            Err(DbError::Duplicate { .. })
        ));
    }

    #[test]
    fn composite_keys_and_lookup() {
        let mut db = RelationalDb::new(school()).unwrap();
        db.insert(
            "COURSE-OFFERING",
            &[("CNO", Value::str("C1")), ("S", Value::str("F78"))],
        )
        .unwrap();
        let hit = db
            .find_by_key("COURSE-OFFERING", &[Value::str("C1"), Value::str("F78")])
            .unwrap();
        assert!(hit.is_some());
        let miss = db
            .find_by_key("COURSE-OFFERING", &[Value::str("C1"), Value::str("S79")])
            .unwrap();
        assert!(miss.is_none());
    }

    #[test]
    fn foreign_keys_unenforced_by_default_like_1979() {
        let mut db = RelationalDb::new(school()).unwrap();
        // The §3.1 problem: nothing stops a dangling COURSE-OFFERING.
        db.insert(
            "COURSE-OFFERING",
            &[("CNO", Value::str("GHOST")), ("S", Value::str("F78"))],
        )
        .unwrap();
        assert_eq!(db.row_count("COURSE-OFFERING").unwrap(), 1);
    }

    #[test]
    fn foreign_keys_enforced_when_enabled() {
        let mut db = RelationalDb::new(school()).unwrap();
        db.enforce_foreign_keys = true;
        assert!(db
            .insert(
                "COURSE-OFFERING",
                &[("CNO", Value::str("GHOST")), ("S", Value::str("F78"))],
            )
            .is_err());
        db.insert("COURSE", &[("CNO", Value::str("C1"))]).unwrap();
        db.insert(
            "COURSE-OFFERING",
            &[("CNO", Value::str("C1")), ("S", Value::str("F78"))],
        )
        .unwrap();
    }

    #[test]
    fn null_fk_reference_allowed() {
        let mut db = RelationalDb::new(school()).unwrap();
        db.enforce_foreign_keys = true;
        // Null reference = the paper's "null instructor" trick.
        db.insert("COURSE-OFFERING", &[("S", Value::str("F78"))])
            .unwrap();
    }

    #[test]
    fn delete_where_updates_index() {
        let mut db = RelationalDb::new(school()).unwrap();
        db.insert("COURSE", &[("CNO", Value::str("C1"))]).unwrap();
        let n = db
            .delete_where("COURSE", |r| r[0].loose_eq(&Value::str("C1")))
            .unwrap();
        assert_eq!(n, 1);
        // Key is free again.
        db.insert("COURSE", &[("CNO", Value::str("C1"))]).unwrap();
    }

    #[test]
    fn update_where_maintains_pk_index() {
        let mut db = RelationalDb::new(school()).unwrap();
        db.insert("COURSE", &[("CNO", Value::str("C1"))]).unwrap();
        db.insert("COURSE", &[("CNO", Value::str("C2"))]).unwrap();
        // Renaming C2 to C1 must be rejected.
        assert!(db
            .update_where(
                "COURSE",
                |r| r[0].loose_eq(&Value::str("C2")),
                &[("CNO", Value::str("C1"))],
            )
            .is_err());
        // Renaming C2 to C3 works and the index follows.
        db.update_where(
            "COURSE",
            |r| r[0].loose_eq(&Value::str("C2")),
            &[("CNO", Value::str("C3"))],
        )
        .unwrap();
        assert!(db
            .find_by_key("COURSE", &[Value::str("C3")])
            .unwrap()
            .is_some());
        assert!(db
            .find_by_key("COURSE", &[Value::str("C2")])
            .unwrap()
            .is_none());
    }

    #[test]
    fn secondary_index_probe_matches_scan_and_stays_consistent() {
        let mut db = RelationalDb::new(school()).unwrap();
        db.create_index("COURSE-OFFERING", &["S"]).unwrap();
        for (cno, s) in [("C1", "F78"), ("C2", "F78"), ("C3", "S79")] {
            db.insert(
                "COURSE-OFFERING",
                &[("CNO", Value::str(cno)), ("S", Value::str(s))],
            )
            .unwrap();
        }
        let hits = db
            .probe_eq("COURSE-OFFERING", &[("S".to_string(), Value::str("F78"))])
            .unwrap()
            .expect("index covers the term");
        let rows: Vec<&[Value]> = hits
            .iter()
            .map(|&id| db.row("COURSE-OFFERING", id).unwrap())
            .collect();
        assert_eq!(rows.len(), 2);
        // Storage order: C1 inserted before C2.
        assert_eq!(rows[0][0], Value::str("C1"));
        assert_eq!(rows[1][0], Value::str("C2"));
        db.check_access_structures().unwrap();

        // Mutations keep the index consistent.
        db.update_where(
            "COURSE-OFFERING",
            |r| r[0].loose_eq(&Value::str("C2")),
            &[("S", Value::str("S79"))],
        )
        .unwrap();
        db.delete_where("COURSE-OFFERING", |r| r[0].loose_eq(&Value::str("C1")))
            .unwrap();
        db.check_access_structures().unwrap();
        let hits = db
            .probe_eq("COURSE-OFFERING", &[("S".to_string(), Value::str("F78"))])
            .unwrap()
            .unwrap();
        assert!(hits.is_empty());
    }

    #[test]
    fn probe_eq_uses_pk_and_counts() {
        let mut db = RelationalDb::new(school()).unwrap();
        db.insert("COURSE", &[("CNO", Value::str("C1"))]).unwrap();
        db.insert("COURSE", &[("CNO", Value::str("C2"))]).unwrap();
        let before = db.access_stats().snapshot();
        let hits = db
            .probe_eq("COURSE", &[("CNO".to_string(), Value::str("C2"))])
            .unwrap()
            .expect("pk fully bound");
        assert_eq!(hits.len(), 1);
        let after = db.access_stats().snapshot();
        assert_eq!(after.index_probes, before.index_probes + 1);
        assert_eq!(after.index_hits, before.index_hits + 1);
        // Unknown column → planner declines, scan path will report it.
        assert!(db
            .probe_eq("COURSE", &[("NOPE".to_string(), Value::Int(1))])
            .unwrap()
            .is_none());
    }

    #[test]
    fn iter_rows_borrows_in_storage_order() {
        let mut db = RelationalDb::new(school()).unwrap();
        db.insert("COURSE", &[("CNO", Value::str("C2"))]).unwrap();
        db.insert("COURSE", &[("CNO", Value::str("C1"))]).unwrap();
        let names: Vec<String> = db
            .iter_rows("COURSE")
            .unwrap()
            .map(|(_, row)| row[0].to_string())
            .collect();
        assert_eq!(names, vec!["C2", "C1"]);
        assert!(db.access_stats().snapshot().rows_scanned >= 2);
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut db = RelationalDb::new(school()).unwrap();
        assert!(matches!(
            db.insert("COURSE", &[("CNO", Value::Int(12))]),
            Err(DbError::TypeMismatch { .. })
        ));
    }
}
