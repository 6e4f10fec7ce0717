//! SEQUEL evaluator over the relational engine.
//!
//! A 1979-faithful evaluator: `SELECT` scans its table in storage (insertion)
//! order, evaluates the predicate per row — `IN` subqueries are evaluated by
//! collecting the subquery's first projected column — and prints each result
//! row to the terminal (running a query *is* the program in a self-contained
//! query system, §1.1). Result order is storage order unless `ORDER BY`
//! pins it, which is precisely the order-observability issue the converter
//! must manage.

use crate::atomic::run_atomic;
use crate::error::{RunError, RunResult};
use crate::scan::{planner, AccessPath, IndexScan, ProbeStats, Scan, Select, TableScan};
use crate::trace::{Inputs, Trace, TraceEvent};
use dbpc_datamodel::value::{cmp_tuple, Value};
use dbpc_dml::sequel::{SelectQuery, SequelPred, SequelProgram, SequelStmt};
use dbpc_dml::CmpOp;
use dbpc_storage::{DbError, RelationalDb};

/// Run a SEQUEL program; each SELECT's rows are printed to the terminal.
/// The returned trace carries the run's access-path counters.
///
/// The run is atomic ([`crate::atomic`]): a typed error or a panic
/// (re-raised after cleanup) rolls the database back to its pre-run
/// state. An *observable* abort — a rejected update printed to the
/// trace — is still a completed run and keeps its partial work, as a 1979
/// batch program would.
pub fn run_sequel(
    db: &mut RelationalDb,
    program: &SequelProgram,
    inputs: Inputs,
) -> RunResult<Trace> {
    run_atomic("engine.sequel", db, |db| {
        run_sequel_inner(db, program, inputs)
    })
}

fn run_sequel_inner(
    db: &mut RelationalDb,
    program: &SequelProgram,
    _inputs: Inputs,
) -> RunResult<Trace> {
    let mut trace = Trace::new();
    for stmt in &program.stmts {
        match stmt {
            SequelStmt::Select(q) => {
                let rows = eval_select(db, q)?;
                for row in rows {
                    let line = row
                        .iter()
                        .map(|v| v.to_string())
                        .collect::<Vec<_>>()
                        .join(" ");
                    trace.push(TraceEvent::TerminalOut(line));
                }
            }
            SequelStmt::Insert { table, assigns } => {
                let vals: Vec<(&str, Value)> = assigns
                    .iter()
                    .map(|(c, v)| (c.as_str(), v.clone()))
                    .collect();
                if let Err(e) = db.insert(table, &vals) {
                    return db_abort(&mut trace, e);
                }
            }
            SequelStmt::Delete { table, where_ } => {
                let pred = compile_pred(db, table, where_.as_ref())?;
                if let Err(e) = db.delete_where(table, |row| pred(row)) {
                    return db_abort(&mut trace, e);
                }
            }
            SequelStmt::Update {
                table,
                assigns,
                where_,
            } => {
                let pred = compile_pred(db, table, where_.as_ref())?;
                let vals: Vec<(&str, Value)> = assigns
                    .iter()
                    .map(|(c, v)| (c.as_str(), v.clone()))
                    .collect();
                if let Err(e) = db.update_where(table, |row| pred(row), &vals) {
                    return db_abort(&mut trace, e);
                }
            }
        }
    }
    Ok(trace)
}

fn db_abort(trace: &mut Trace, e: DbError) -> RunResult<Trace> {
    match e {
        DbError::UnknownName { .. } => Err(RunError::Db(e)),
        other => {
            trace.push(TraceEvent::Abort(other.to_string()));
            Ok(std::mem::take(trace))
        }
    }
}

/// A compiled row predicate.
type RowPred = Box<dyn Fn(&[Value]) -> bool>;

/// Compile a predicate into a row closure for `delete_where`/`update_where`.
///
/// `IN` subqueries are pre-evaluated to value sets (they are uncorrelated in
/// this sublanguage), so the closure needs no database access — which also
/// keeps the mutable-borrow story simple.
fn compile_pred(db: &RelationalDb, table: &str, pred: Option<&SequelPred>) -> RunResult<RowPred> {
    let Some(p) = pred else {
        return Ok(Box::new(|_| true));
    };
    let def = db
        .schema()
        .table(table)
        .ok_or_else(|| RunError::Db(DbError::unknown("table", table)))?;
    compile_pred_inner(db, def, p)
}

fn compile_pred_inner(
    db: &RelationalDb,
    def: &dbpc_datamodel::relational::TableDef,
    p: &SequelPred,
) -> RunResult<RowPred> {
    match p {
        SequelPred::Cmp { column, op, value } => {
            let idx = def.column_index(column).ok_or_else(|| {
                RunError::Db(DbError::unknown(
                    "column",
                    format!("{}.{}", def.name, column),
                ))
            })?;
            let op = *op;
            let value = value.clone();
            Ok(Box::new(move |row| op.eval(&row[idx], &value)))
        }
        SequelPred::In { column, sub } => {
            let idx = def.column_index(column).ok_or_else(|| {
                RunError::Db(DbError::unknown(
                    "column",
                    format!("{}.{}", def.name, column),
                ))
            })?;
            let values: Vec<Value> = eval_select(db, sub)?
                .into_iter()
                .filter_map(|r| r.into_iter().next())
                .collect();
            Ok(Box::new(move |row| {
                values.iter().any(|v| v.loose_eq(&row[idx]))
            }))
        }
        SequelPred::And(a, b) => {
            let fa = compile_pred_inner(db, def, a)?;
            let fb = compile_pred_inner(db, def, b)?;
            Ok(Box::new(move |row| fa(row) && fb(row)))
        }
        SequelPred::Or(a, b) => {
            let fa = compile_pred_inner(db, def, a)?;
            let fb = compile_pred_inner(db, def, b)?;
            Ok(Box::new(move |row| fa(row) || fb(row)))
        }
        SequelPred::Not(a) => {
            let fa = compile_pred_inner(db, def, a)?;
            Ok(Box::new(move |row| !fa(row)))
        }
    }
}

/// Evaluate a `SELECT` to projected rows.
///
/// Access path: top-level conjunctive `col = const` terms are offered to
/// the planner, which prices an index probe ([`RelationalDb::probe_eq`],
/// primary key or secondary index) against a full scan from the table's
/// cardinality and the index's distinct-key count, then builds the
/// corresponding [`Scan`] pipeline. Probe candidates come back in storage
/// order and the **full** predicate is re-evaluated on each one, so plan
/// choice changes row visits, never results — contradictory or duplicated
/// equality terms included. On the scan path the table is read through
/// the borrowing row cursor; rows are cloned only once the predicate
/// admits them.
pub fn eval_select(db: &RelationalDb, q: &SelectQuery) -> RunResult<Vec<Vec<Value>>> {
    let def = db
        .schema()
        .table(&q.table)
        .ok_or_else(|| RunError::Db(DbError::unknown("table", &q.table)))?;

    let mut eqs: Vec<(String, Value)> = Vec::new();
    collect_eq_terms(q.where_.as_ref(), &mut eqs);
    let probe = if eqs.is_empty() {
        None
    } else {
        db.probe_eq_stats(&q.table, &eqs)?
            .map(|(distinct_keys, unique)| ProbeStats {
                distinct_keys,
                unique,
            })
    };
    let choice = planner::choose(db.table_cardinality(&q.table)?, probe);

    // Pre-evaluate IN subqueries once (they are uncorrelated in this
    // sublanguage, matching the paper's usage).
    let mut kept: Vec<Vec<Value>> = Vec::new();
    let pred = |row: &[Value]| match &q.where_ {
        None => Ok(true),
        Some(p) => eval_pred(db, def, p, row),
    };
    match choice.path {
        AccessPath::IndexProbe => {
            let ids = db.probe_eq(&q.table, &eqs)?.unwrap_or_default();
            let actual = ids.len() as u64;
            let fetch = |id| {
                let row = db.row(&q.table, id)?;
                db.access_stats().scanned(1);
                Ok(row)
            };
            let mut pipe = Select::new(IndexScan::new(ids, fetch), |row: &&[Value]| pred(row));
            while let Some(row) = pipe.next()? {
                kept.push(row.to_vec());
            }
            planner::finish("sequel.select", choice, actual);
        }
        AccessPath::FullScan => {
            let before = db.access_stats().snapshot().rows_scanned;
            let mut pipe = Select::new(TableScan::new(db.iter_rows(&q.table)?), |(_, row)| {
                pred(row)
            });
            while let Some((_, row)) = pipe.next()? {
                kept.push(row.to_vec());
            }
            let actual = db.access_stats().snapshot().rows_scanned - before;
            planner::finish("sequel.select", choice, actual);
        }
    }

    // ORDER BY before projection (sort columns need not be projected).
    if !q.order_by.is_empty() {
        let idxs: Vec<usize> = q
            .order_by
            .iter()
            .map(|c| {
                def.column_index(c).ok_or_else(|| {
                    RunError::Db(DbError::unknown("column", format!("{}.{}", q.table, c)))
                })
            })
            .collect::<RunResult<_>>()?;
        kept.sort_by(|a, b| {
            let ka: Vec<Value> = idxs.iter().map(|&i| a[i].clone()).collect();
            let kb: Vec<Value> = idxs.iter().map(|&i| b[i].clone()).collect();
            cmp_tuple(&ka, &kb)
        });
    }

    // Projection; empty column list = SELECT *.
    if q.columns.is_empty() {
        return Ok(kept);
    }
    let idxs: Vec<usize> = q
        .columns
        .iter()
        .map(|c| {
            def.column_index(c).ok_or_else(|| {
                RunError::Db(DbError::unknown("column", format!("{}.{}", q.table, c)))
            })
        })
        .collect::<RunResult<_>>()?;
    Ok(kept
        .into_iter()
        .map(|row| idxs.iter().map(|&i| row[i].clone()).collect())
        .collect())
}

/// Collect the `col = const` terms reachable through top-level `AND`s.
/// `OR`, `NOT` and `IN` subtrees are left to per-row evaluation: an
/// equality below them does not restrict the result set.
fn collect_eq_terms(p: Option<&SequelPred>, out: &mut Vec<(String, Value)>) {
    let Some(p) = p else { return };
    match p {
        SequelPred::Cmp {
            column,
            op: CmpOp::Eq,
            value,
        } => out.push((column.clone(), value.clone())),
        SequelPred::And(a, b) => {
            collect_eq_terms(Some(a), out);
            collect_eq_terms(Some(b), out);
        }
        _ => {}
    }
}

fn eval_pred(
    db: &RelationalDb,
    def: &dbpc_datamodel::relational::TableDef,
    p: &SequelPred,
    row: &[Value],
) -> RunResult<bool> {
    match p {
        SequelPred::Cmp { column, op, value } => {
            let idx = def.column_index(column).ok_or_else(|| {
                RunError::Db(DbError::unknown(
                    "column",
                    format!("{}.{}", def.name, column),
                ))
            })?;
            Ok(op.eval(&row[idx], value))
        }
        SequelPred::In { column, sub } => {
            let idx = def.column_index(column).ok_or_else(|| {
                RunError::Db(DbError::unknown(
                    "column",
                    format!("{}.{}", def.name, column),
                ))
            })?;
            let sub_rows = eval_select(db, sub)?;
            Ok(sub_rows
                .iter()
                .any(|r| !r.is_empty() && r[0].loose_eq(&row[idx])))
        }
        SequelPred::And(a, b) => Ok(eval_pred(db, def, a, row)? && eval_pred(db, def, b, row)?),
        SequelPred::Or(a, b) => Ok(eval_pred(db, def, a, row)? || eval_pred(db, def, b, row)?),
        SequelPred::Not(a) => Ok(!eval_pred(db, def, a, row)?),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpc_datamodel::relational::{ColumnDef, RelationalSchema, TableDef};
    use dbpc_datamodel::types::FieldType;
    use dbpc_dml::sequel::{parse_select, parse_sequel_program};

    /// The §4.1 relational personnel database: EMP, DEPT, EMP-DEPT.
    fn personnel() -> RelationalDb {
        let schema = RelationalSchema::new("PERSONNEL")
            .with_table(
                TableDef::new(
                    "EMP",
                    vec![
                        ColumnDef::new("E#", FieldType::Char(4)),
                        ColumnDef::new("ENAME", FieldType::Char(20)),
                        ColumnDef::new("AGE", FieldType::Int(2)),
                    ],
                )
                .with_key(vec!["E#"]),
            )
            .with_table(
                TableDef::new(
                    "DEPT",
                    vec![
                        ColumnDef::new("D#", FieldType::Char(4)),
                        ColumnDef::new("DNAME", FieldType::Char(12)),
                        ColumnDef::new("MGR", FieldType::Char(20)),
                    ],
                )
                .with_key(vec!["D#"]),
            )
            .with_table(
                TableDef::new(
                    "EMP-DEPT",
                    vec![
                        ColumnDef::new("E#", FieldType::Char(4)),
                        ColumnDef::new("D#", FieldType::Char(4)),
                        ColumnDef::new("YEAR-OF-SERVICE", FieldType::Int(2)),
                    ],
                )
                .with_key(vec!["E#", "D#"]),
            );
        let mut db = RelationalDb::new(schema).unwrap();
        for (e, n, a) in [
            ("E1", "SMITH", 40),
            ("E2", "JONES", 35),
            ("E3", "BAKER", 28),
            ("E4", "DAVIS", 50),
        ] {
            db.insert(
                "EMP",
                &[
                    ("E#", Value::str(e)),
                    ("ENAME", Value::str(n)),
                    ("AGE", Value::Int(a)),
                ],
            )
            .unwrap();
        }
        for (d, n, m) in [("D2", "SALES", "SMITH"), ("D3", "ENG", "GREY")] {
            db.insert(
                "DEPT",
                &[
                    ("D#", Value::str(d)),
                    ("DNAME", Value::str(n)),
                    ("MGR", Value::str(m)),
                ],
            )
            .unwrap();
        }
        for (e, d, y) in [
            ("E1", "D2", 3),
            ("E2", "D2", 5),
            ("E3", "D2", 3),
            ("E4", "D3", 11),
        ] {
            db.insert(
                "EMP-DEPT",
                &[
                    ("E#", Value::str(e)),
                    ("D#", Value::str(d)),
                    ("YEAR-OF-SERVICE", Value::Int(y)),
                ],
            )
            .unwrap();
        }
        db
    }

    /// The paper's listing (A), verbatim.
    const LISTING_A: &str = "\
SELECT ENAME
FROM EMP
WHERE E# IN
SELECT E#
FROM EMP-DEPT
WHERE D# = 'D2'
AND YEAR-OF-SERVICE = 3
";

    #[test]
    fn listing_a_returns_d2_three_year_employees() {
        let db = personnel();
        let q = parse_select(LISTING_A).unwrap();
        let rows = eval_select(&db, &q).unwrap();
        assert_eq!(
            rows,
            vec![vec![Value::str("SMITH")], vec![Value::str("BAKER")]]
        );
    }

    #[test]
    fn order_by_pins_result_order() {
        let db = personnel();
        // A bare nested subquery would greedily consume the ORDER BY, so the
        // parenthesized form is required here.
        let q = parse_select(
            "SELECT ENAME FROM EMP WHERE E# IN \
             (SELECT E# FROM EMP-DEPT WHERE D# = 'D2' AND YEAR-OF-SERVICE = 3) \
             ORDER BY ENAME",
        )
        .unwrap();
        let rows = eval_select(&db, &q).unwrap();
        assert_eq!(
            rows,
            vec![vec![Value::str("BAKER")], vec![Value::str("SMITH")]]
        );
    }

    #[test]
    fn select_star_projects_everything() {
        let db = personnel();
        let q = parse_select("SELECT * FROM DEPT").unwrap();
        let rows = eval_select(&db, &q).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].len(), 3);
    }

    #[test]
    fn program_with_updates_runs_and_prints() {
        let mut db = personnel();
        let p = parse_sequel_program(
            "SEQUEL PROGRAM MAINT;
INSERT INTO EMP (E# = 'E9', ENAME = 'NEWMAN', AGE = 21);
UPDATE EMP SET (AGE = 22) WHERE E# = 'E9';
SELECT ENAME, AGE
FROM EMP
WHERE AGE < 30
ORDER BY ENAME;
DELETE FROM EMP WHERE E# = 'E9';
END PROGRAM;",
        )
        .unwrap();
        let t = run_sequel(&mut db, &p, Inputs::new()).unwrap();
        assert_eq!(t.terminal_lines(), vec!["BAKER 28", "NEWMAN 22"]);
        assert_eq!(db.row_count("EMP").unwrap(), 4);
    }

    #[test]
    fn duplicate_key_aborts_program() {
        let mut db = personnel();
        let p = parse_sequel_program(
            "SEQUEL PROGRAM DUP;
INSERT INTO EMP (E# = 'E1', ENAME = 'CLONE');
SELECT ENAME
FROM EMP
WHERE E# = 'E1';
END PROGRAM;",
        )
        .unwrap();
        let t = run_sequel(&mut db, &p, Inputs::new()).unwrap();
        assert!(t.aborted());
        assert!(t.terminal_lines().is_empty());
    }

    #[test]
    fn unknown_column_is_malfunction() {
        let db = personnel();
        let q = parse_select("SELECT NOPE FROM EMP").unwrap();
        assert!(matches!(
            eval_select(&db, &q),
            Err(RunError::Db(DbError::UnknownName { .. }))
        ));
    }

    #[test]
    fn nested_nesting_two_levels() {
        let db = personnel();
        // Employees in the department managed by SMITH.
        let q = parse_select(
            "SELECT ENAME
FROM EMP
WHERE E# IN
SELECT E#
FROM EMP-DEPT
WHERE D# IN
SELECT D#
FROM DEPT
WHERE MGR = 'SMITH'
",
        )
        .unwrap();
        let rows = eval_select(&db, &q).unwrap();
        assert_eq!(rows.len(), 3);
    }
}
