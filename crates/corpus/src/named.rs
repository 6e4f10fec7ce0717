//! The paper's databases, buildable at any scale.
//!
//! Everything is deterministic: the same scale produces the same database,
//! so traces compare across strategies and runs.

use dbpc_datamodel::constraint::Constraint;
use dbpc_datamodel::network::{FieldDef, NetworkSchema, RecordTypeDef, SetDef};
use dbpc_datamodel::relational::{ColumnDef, RelationalSchema, TableDef};
use dbpc_datamodel::types::FieldType;
use dbpc_datamodel::value::Value;
use dbpc_restructure::{crossmodel, Restructuring, Transform};
use dbpc_storage::{DbResult, HierDb, NetworkDb, RelationalDb};

// ---------------------------------------------------------------------------
// Figure 4.2 / 4.3: the company database
// ---------------------------------------------------------------------------

/// The Figure 4.2/4.3 company schema (network form), with the virtual
/// `DIV-NAME` field of the paper's DDL listing.
pub fn company_schema() -> NetworkSchema {
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
                FieldDef::new("DEPT-NAME", FieldType::Char(8)),
                FieldDef::new("AGE", FieldType::Int(2)),
                FieldDef::virtual_field("DIV-NAME", FieldType::Char(20), "DIV-EMP", "DIV-NAME"),
            ],
        ))
        .with_set(SetDef::system("ALL-DIV", "DIV", vec!["DIV-NAME"]))
        .with_set(SetDef::owned("DIV-EMP", "DIV", "EMP", vec!["EMP-NAME"]))
}

/// The paper's restructuring, Figure 4.2 → Figure 4.4.
pub fn fig_4_4_restructuring() -> Restructuring {
    Restructuring::single(Transform::PromoteFieldToOwner {
        record: "EMP".into(),
        field: "DEPT-NAME".into(),
        via_set: "DIV-EMP".into(),
        new_record: "DEPT".into(),
        upper_set: "DIV-DEPT".into(),
        lower_set: "DEPT-EMP".into(),
    })
}

/// Division names are synthetic past the classic two.
fn div_name(i: usize) -> String {
    match i {
        0 => "MACHINERY".to_string(),
        1 => "AEROSPACE".to_string(),
        n => format!("DIVISION-{n:03}"),
    }
}

const DEPT_NAMES: &[&str] = &[
    "SALES", "MFG", "ENG", "ADMIN", "RSRCH", "LEGAL", "SHIP", "QA",
];

/// Build the company database: `divisions` divisions, each with
/// `emps_per_div` employees spread over `depts_per_div` department values.
/// Deterministic; employee names are globally unique.
pub fn company_db(divisions: usize, depts_per_div: usize, emps_per_div: usize) -> NetworkDb {
    let mut db = NetworkDb::new(company_schema())
        .unwrap_or_else(|e| panic!("company schema must be valid: {e}"));
    fill_company_db(&mut db, divisions, depts_per_div, emps_per_div);
    db
}

/// Store the deterministic company corpus into `db`, which must be an
/// empty database over [`company_schema`] — in-memory or **paged**; the
/// E22 scale bench streams million-record corpora through this into a
/// heap-backed engine whose pool is far smaller than the data.
pub fn fill_company_db(
    db: &mut NetworkDb,
    divisions: usize,
    depts_per_div: usize,
    emps_per_div: usize,
) {
    let mut emp_no = 0usize;
    for d in 0..divisions {
        let div = db
            .store(
                "DIV",
                &[
                    ("DIV-NAME", Value::str(div_name(d))),
                    ("DIV-LOC", Value::str(format!("CITY-{:02}", d % 37))),
                ],
                &[],
            )
            .unwrap_or_else(|e| panic!("seed DIV row must store: {e}"));
        for e in 0..emps_per_div {
            let dept = DEPT_NAMES[e % depts_per_div.clamp(1, DEPT_NAMES.len())];
            db.store(
                "EMP",
                &[
                    ("EMP-NAME", Value::str(format!("EMP-{emp_no:06}"))),
                    ("DEPT-NAME", Value::str(dept)),
                    ("AGE", Value::Int(20 + ((emp_no * 7) % 45) as i64)),
                ],
                &[("DIV-EMP", div)],
            )
            .unwrap_or_else(|e| panic!("seed EMP row must store: {e}"));
            emp_no += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Figure 3.1: the school database
// ---------------------------------------------------------------------------

/// Figure 3.1a — the relational school schema.
pub fn school_relational_schema() -> RelationalSchema {
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
                "SEMESTER",
                vec![
                    ColumnDef::new("S", FieldType::Char(4)),
                    ColumnDef::new("YEAR", FieldType::Int(4)),
                ],
            )
            .with_key(vec!["S"]),
        )
        .with_table(
            TableDef::new(
                "COURSE-OFFERING",
                vec![
                    ColumnDef::new("CNO", FieldType::Char(6)),
                    ColumnDef::new("S", FieldType::Char(4)),
                    ColumnDef::new("INSTRUCTOR", FieldType::Char(20)),
                ],
            )
            .with_key(vec!["CNO", "S"])
            .with_foreign_key(vec!["CNO"], "COURSE", vec!["CNO"])
            .with_foreign_key(vec!["S"], "SEMESTER", vec!["S"]),
        )
}

/// Figure 3.1b — the CODASYL school schema, with COURSE-OFFERING an
/// AUTOMATIC/MANDATORY member of both owners (the §3.1 device for
/// existence constraints) plus the "offered at most twice per year"
/// cardinality rule as a declarative constraint.
pub fn school_network_schema() -> NetworkSchema {
    use dbpc_datamodel::network::{Insertion, Retention};
    NetworkSchema::new("SCHOOL")
        .with_record(RecordTypeDef::new(
            "COURSE",
            vec![
                FieldDef::new("CNO", FieldType::Char(6)),
                FieldDef::new("CNAME", FieldType::Char(20)),
            ],
        ))
        .with_record(RecordTypeDef::new(
            "SEMESTER",
            vec![
                FieldDef::new("S", FieldType::Char(4)),
                FieldDef::new("YEAR", FieldType::Int(4)),
            ],
        ))
        .with_record(RecordTypeDef::new(
            "COURSE-OFFERING",
            vec![
                FieldDef::new("OFF-ID", FieldType::Char(10)),
                FieldDef::new("INSTRUCTOR", FieldType::Char(20)),
            ],
        ))
        .with_set(SetDef::system("ALL-COURSE", "COURSE", vec!["CNO"]))
        .with_set(SetDef::system("ALL-SEMESTER", "SEMESTER", vec!["S"]))
        .with_set(
            SetDef::owned(
                "COURSES-OFFERING",
                "COURSE",
                "COURSE-OFFERING",
                vec!["OFF-ID"],
            )
            .with_insertion(Insertion::Automatic)
            .with_retention(Retention::Mandatory),
        )
        .with_set(
            SetDef::owned(
                "SEMESTERS-OFFERING",
                "SEMESTER",
                "COURSE-OFFERING",
                vec!["OFF-ID"],
            )
            .with_insertion(Insertion::Automatic)
            .with_retention(Retention::Mandatory),
        )
        .with_constraint(Constraint::Existence {
            set: "COURSES-OFFERING".into(),
        })
        .with_constraint(Constraint::Existence {
            set: "SEMESTERS-OFFERING".into(),
        })
        .with_constraint(Constraint::Cardinality {
            set: "COURSES-OFFERING".into(),
            min: 0,
            max: Some(2),
        })
}

/// Populate the network school database.
pub fn school_network_db(courses: usize, semesters: usize) -> DbResult<NetworkDb> {
    let mut db = NetworkDb::new(school_network_schema())?;
    let mut course_ids = Vec::new();
    for c in 0..courses {
        course_ids.push(db.store(
            "COURSE",
            &[
                ("CNO", Value::str(format!("C{c:03}"))),
                ("CNAME", Value::str(format!("COURSE {c:03}"))),
            ],
            &[],
        )?);
    }
    let mut sem_ids = Vec::new();
    for s in 0..semesters {
        sem_ids.push(db.store(
            "SEMESTER",
            &[
                ("S", Value::str(format!("S{s:02}"))),
                ("YEAR", Value::Int(1975 + (s / 2) as i64)),
            ],
            &[],
        )?);
    }
    // Each course offered once in its "home" semester.
    for (c, &course) in course_ids.iter().enumerate() {
        let sem = sem_ids[c % sem_ids.len().max(1)];
        db.store(
            "COURSE-OFFERING",
            &[
                ("OFF-ID", Value::str(format!("OFF-{c:04}"))),
                ("INSTRUCTOR", Value::str(format!("PROF-{:02}", c % 17))),
            ],
            &[("COURSES-OFFERING", course), ("SEMESTERS-OFFERING", sem)],
        )?;
    }
    Ok(db)
}

// ---------------------------------------------------------------------------
// §4.1: the personnel database (DEPT / EMP-DEPT / EMP)
// ---------------------------------------------------------------------------

/// The §4.1 personnel schema in network form, with the EMP-DEPT association
/// realized as the set `ED` flattened onto EMP (as in listing (B)).
pub fn personnel_network_schema() -> NetworkSchema {
    NetworkSchema::new("PERSONNEL")
        .with_record(RecordTypeDef::new(
            "DEPT",
            vec![
                FieldDef::new("D#", FieldType::Char(4)),
                FieldDef::new("DNAME", FieldType::Char(12)),
                FieldDef::new("MGR", FieldType::Char(20)),
            ],
        ))
        .with_record(RecordTypeDef::new(
            "EMP",
            vec![
                FieldDef::new("E#", FieldType::Char(6)),
                FieldDef::new("ENAME", FieldType::Char(20)),
                FieldDef::new("AGE", FieldType::Int(2)),
                FieldDef::new("YEAR-OF-SERVICE", FieldType::Int(2)),
            ],
        ))
        .with_set(SetDef::system("ALL-DEPT", "DEPT", vec!["D#"]))
        .with_set(SetDef::owned("ED", "DEPT", "EMP", vec!["E#"]))
}

/// The same database in relational form (the §4.1 listing (A) tables).
pub fn personnel_relational_schema() -> RelationalSchema {
    RelationalSchema::new("PERSONNEL")
        .with_table(
            TableDef::new(
                "EMP",
                vec![
                    ColumnDef::new("E#", FieldType::Char(6)),
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
                    ColumnDef::new("E#", FieldType::Char(6)),
                    ColumnDef::new("D#", FieldType::Char(4)),
                    ColumnDef::new("YEAR-OF-SERVICE", FieldType::Int(2)),
                ],
            )
            .with_key(vec!["E#", "D#"]),
        )
}

/// Populate the network personnel database.
pub fn personnel_network_db(depts: usize, emps_per_dept: usize) -> DbResult<NetworkDb> {
    let mut db = NetworkDb::new(personnel_network_schema())?;
    let mut emp_no = 0usize;
    for d in 0..depts {
        let dept = db.store(
            "DEPT",
            &[
                ("D#", Value::str(format!("D{d}"))),
                ("DNAME", Value::str(format!("DEPT-{d:02}"))),
                (
                    "MGR",
                    Value::str(if d == 2 {
                        "SMITH".into()
                    } else {
                        format!("MGR-{d:02}")
                    }),
                ),
            ],
            &[],
        )?;
        for _ in 0..emps_per_dept {
            db.store(
                "EMP",
                &[
                    ("E#", Value::str(format!("E{emp_no:04}"))),
                    ("ENAME", Value::str(format!("NAME-{emp_no:04}"))),
                    ("AGE", Value::Int(21 + ((emp_no * 3) % 44) as i64)),
                    ("YEAR-OF-SERVICE", Value::Int((emp_no % 5) as i64)),
                ],
                &[("ED", dept)],
            )?;
            emp_no += 1;
        }
    }
    Ok(db)
}

/// Populate the relational personnel database with the same facts.
pub fn personnel_relational_db(depts: usize, emps_per_dept: usize) -> DbResult<RelationalDb> {
    let mut db = RelationalDb::new(personnel_relational_schema())?;
    let mut emp_no = 0usize;
    for d in 0..depts {
        db.insert(
            "DEPT",
            &[
                ("D#", Value::str(format!("D{d}"))),
                ("DNAME", Value::str(format!("DEPT-{d:02}"))),
                (
                    "MGR",
                    Value::str(if d == 2 {
                        "SMITH".into()
                    } else {
                        format!("MGR-{d:02}")
                    }),
                ),
            ],
        )?;
        for _ in 0..emps_per_dept {
            db.insert(
                "EMP",
                &[
                    ("E#", Value::str(format!("E{emp_no:04}"))),
                    ("ENAME", Value::str(format!("NAME-{emp_no:04}"))),
                    ("AGE", Value::Int(21 + ((emp_no * 3) % 44) as i64)),
                ],
            )?;
            db.insert(
                "EMP-DEPT",
                &[
                    ("E#", Value::str(format!("E{emp_no:04}"))),
                    ("D#", Value::str(format!("D{d}"))),
                    ("YEAR-OF-SERVICE", Value::Int((emp_no % 5) as i64)),
                ],
            )?;
            emp_no += 1;
        }
    }
    Ok(db)
}

/// Hierarchical company database at scale.
pub fn company_hier_db(
    divisions: usize,
    depts_per_div: usize,
    emps_per_div: usize,
) -> DbResult<HierDb> {
    crossmodel::network_db_to_hier(&company_db(divisions, depts_per_div, emps_per_div))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn company_db_scales_deterministically() {
        let a = company_db(3, 2, 10);
        let b = company_db(3, 2, 10);
        assert_eq!(a.record_count(), b.record_count());
        assert_eq!(a.records_of_type("EMP").len(), 30);
        assert_eq!(a.records_of_type("DIV").len(), 3);
    }

    #[test]
    fn company_translates_to_fig_4_4() {
        let db = company_db(2, 3, 12);
        let out = fig_4_4_restructuring().translate(&db).unwrap();
        assert_eq!(out.records_of_type("DEPT").len(), 6); // 3 depts × 2 divs
        assert_eq!(out.records_of_type("EMP").len(), 24);
    }

    #[test]
    fn school_constraints_enforced() {
        let db = school_network_db(4, 2).unwrap();
        assert_eq!(db.records_of_type("COURSE-OFFERING").len(), 4);
        let mut db = db;
        let course = db.records_of_type("COURSE")[0];
        let sem = db.records_of_type("SEMESTER")[0];
        // Two more offerings of the same course: second must violate the
        // twice-per-year cardinality rule (one exists already).
        db.store(
            "COURSE-OFFERING",
            &[("OFF-ID", Value::str("X1"))],
            &[("COURSES-OFFERING", course), ("SEMESTERS-OFFERING", sem)],
        )
        .unwrap();
        let err = db
            .store(
                "COURSE-OFFERING",
                &[("OFF-ID", Value::str("X2"))],
                &[("COURSES-OFFERING", course), ("SEMESTERS-OFFERING", sem)],
            )
            .unwrap_err();
        assert!(err.to_string().contains("cardinality"));
        // Orphan offering rejected (the §3.1 existence constraint).
        assert!(db
            .store("COURSE-OFFERING", &[("OFF-ID", Value::str("X3"))], &[])
            .is_err());
    }

    #[test]
    fn school_compact_notation_matches_fig_31a() {
        let txt = school_relational_schema().to_compact_notation();
        assert!(txt.starts_with("COURSE(CNO,CNAME)"));
        assert!(txt.contains("COURSE-OFFERING(CNO,S,INSTRUCTOR)"));
    }

    #[test]
    fn personnel_dbs_agree() {
        let net = personnel_network_db(4, 5).unwrap();
        let rel = personnel_relational_db(4, 5).unwrap();
        assert_eq!(net.records_of_type("EMP").len(), 20);
        assert_eq!(rel.row_count("EMP").unwrap(), 20);
        assert_eq!(rel.row_count("EMP-DEPT").unwrap(), 20);
    }

    #[test]
    fn hier_company_builds() {
        let h = company_hier_db(2, 2, 5).unwrap();
        assert_eq!(h.occurrences_of("EMP").len(), 10);
    }
}
