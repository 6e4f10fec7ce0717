//! Property tests on the owner-coupled-set engine's invariants under
//! arbitrary operation sequences. Trace-equality conversion checking is
//! only as trustworthy as the substrate, so the substrate gets its own
//! adversarial workout.

use dbpc::corpus::named;
use dbpc::datamodel::hierarchical::{HierSchema, SegmentDef};
use dbpc::datamodel::network::{FieldDef, SetOwner};
use dbpc::datamodel::relational::{ColumnDef, RelationalSchema, TableDef};
use dbpc::datamodel::types::FieldType;
use dbpc::datamodel::value::{cmp_tuple, Value};
use dbpc::storage::{DbError, HierDb, NetworkDb, RecordId, RelationalDb, SYSTEM_OWNER};
use proptest::prelude::*;

/// One random mutation.
#[derive(Debug, Clone)]
enum Op {
    StoreEmp {
        name_seed: u16,
        dept: u8,
        age: u8,
        div_pick: u8,
    },
    StoreDiv {
        name_seed: u16,
    },
    ModifyAge {
        pick: u8,
        age: u8,
    },
    RenameEmp {
        pick: u8,
        name_seed: u16,
    },
    EraseEmp {
        pick: u8,
    },
    EraseDivCascade {
        pick: u8,
    },
    Disconnect {
        pick: u8,
    },
    /// Store a new `EMP` under a division with a sibling's `EMP-NAME`.
    DupStore {
        pick: u8,
    },
    /// Give a second `EMP` a connected sibling's `EMP-NAME` outside the
    /// set, then connect it under the sibling's division.
    DupConnect {
        pick: u8,
        other: u8,
    },
    /// Rename an `EMP` to the `EMP-NAME` of a sibling in its division.
    DupRename {
        pick: u8,
        other: u8,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u16>(), any::<u8>(), any::<u8>(), any::<u8>()).prop_map(
            |(name_seed, dept, age, div_pick)| Op::StoreEmp {
                name_seed,
                dept,
                age,
                div_pick
            }
        ),
        any::<u16>().prop_map(|name_seed| Op::StoreDiv { name_seed }),
        (any::<u8>(), any::<u8>()).prop_map(|(pick, age)| Op::ModifyAge { pick, age }),
        (any::<u8>(), any::<u16>()).prop_map(|(pick, name_seed)| Op::RenameEmp { pick, name_seed }),
        any::<u8>().prop_map(|pick| Op::EraseEmp { pick }),
        any::<u8>().prop_map(|pick| Op::EraseDivCascade { pick }),
        any::<u8>().prop_map(|pick| Op::Disconnect { pick }),
        any::<u8>().prop_map(|pick| Op::DupStore { pick }),
        (any::<u8>(), any::<u8>()).prop_map(|(pick, other)| Op::DupConnect { pick, other }),
        (any::<u8>(), any::<u8>()).prop_map(|(pick, other)| Op::DupRename { pick, other }),
    ]
}

fn pick(ids: &[RecordId], k: u8) -> Option<RecordId> {
    if ids.is_empty() {
        None
    } else {
        Some(ids[k as usize % ids.len()])
    }
}

fn apply(db: &mut NetworkDb, op: &Op) {
    // Every operation may legitimately fail (duplicates, members present);
    // the property is that the database never becomes inconsistent.
    match op {
        Op::StoreEmp {
            name_seed,
            dept,
            age,
            div_pick,
        } => {
            let divs = db.records_of_type("DIV");
            if let Some(div) = pick(&divs, *div_pick) {
                let _ = db.store(
                    "EMP",
                    &[
                        ("EMP-NAME", Value::str(format!("E{name_seed:05}"))),
                        ("DEPT-NAME", Value::str(format!("D{}", dept % 5))),
                        ("AGE", Value::Int(*age as i64 % 80)),
                    ],
                    &[("DIV-EMP", div)],
                );
            }
        }
        Op::StoreDiv { name_seed } => {
            let _ = db.store(
                "DIV",
                &[
                    ("DIV-NAME", Value::str(format!("DIV{name_seed:05}"))),
                    ("DIV-LOC", Value::str("X")),
                ],
                &[],
            );
        }
        Op::ModifyAge { pick: p, age } => {
            if let Some(id) = pick(&db.records_of_type("EMP"), *p) {
                let _ = db.modify(id, &[("AGE", Value::Int(*age as i64 % 80))]);
            }
        }
        Op::RenameEmp { pick: p, name_seed } => {
            if let Some(id) = pick(&db.records_of_type("EMP"), *p) {
                let _ = db.modify(id, &[("EMP-NAME", Value::str(format!("R{name_seed:05}")))]);
            }
        }
        Op::EraseEmp { pick: p } => {
            if let Some(id) = pick(&db.records_of_type("EMP"), *p) {
                let _ = db.erase(id, false);
            }
        }
        Op::EraseDivCascade { pick: p } => {
            if let Some(id) = pick(&db.records_of_type("DIV"), *p) {
                let _ = db.erase(id, true);
            }
        }
        Op::Disconnect { pick: p } => {
            if let Some(id) = pick(&db.records_of_type("EMP"), *p) {
                let _ = db.disconnect("DIV-EMP", id);
            }
        }
        Op::DupStore { pick: p } => {
            if let Some((emp, div)) = connected_emp(db, *p) {
                let name = db.field_value(emp, "EMP-NAME").unwrap();
                refused_without_trace(db, "store", |db| {
                    db.store("EMP", &[("EMP-NAME", name)], &[("DIV-EMP", div)])
                        .map(|_| ())
                });
            }
        }
        Op::DupConnect { pick: p, other } => {
            let Some((emp, div)) = connected_emp(db, *p) else {
                return;
            };
            let Some(second) = pick(&db.records_of_type("EMP"), *other).filter(|&e| e != emp)
            else {
                return;
            };
            if db.owner_in("DIV-EMP", second).unwrap().is_some() {
                db.disconnect("DIV-EMP", second).unwrap();
            }
            // Outside the set, the name collides with nothing.
            let name = db.field_value(emp, "EMP-NAME").unwrap();
            db.modify(second, &[("EMP-NAME", name)]).unwrap();
            refused_without_trace(db, "connect", |db| db.connect("DIV-EMP", div, second));
        }
        Op::DupRename { pick: p, other } => {
            let Some((emp, div)) = connected_emp(db, *p) else {
                return;
            };
            let siblings = db.members_of("DIV-EMP", div).unwrap();
            if let Some(second) = pick(&siblings, *other).filter(|&e| e != emp) {
                let name = db.field_value(emp, "EMP-NAME").unwrap();
                refused_without_trace(db, "rename", |db| db.modify(second, &[("EMP-NAME", name)]));
            }
        }
    }
}

/// An `EMP` connected in `DIV-EMP`, with its division.
fn connected_emp(db: &NetworkDb, k: u8) -> Option<(RecordId, RecordId)> {
    let emp = pick(&db.records_of_type("EMP"), k)?;
    Some((emp, db.owner_in("DIV-EMP", emp).unwrap()?))
}

/// `op` must fail with `DbError::Duplicate` and leave the database as it
/// found it.
fn refused_without_trace(
    db: &mut NetworkDb,
    what: &str,
    op: impl FnOnce(&mut NetworkDb) -> Result<(), DbError>,
) {
    let before = db.fingerprint();
    let err = op(db).unwrap_err();
    assert!(
        matches!(err, DbError::Duplicate { .. }),
        "duplicate {what}: {err}"
    );
    assert_eq!(db.fingerprint(), before, "refused {what} left a trace");
}

/// The engine's structural invariants.
fn check_invariants(db: &NetworkDb) {
    let schema = db.schema().clone();
    for set in &schema.sets {
        let owners: Vec<RecordId> = match &set.owner {
            SetOwner::System => vec![SYSTEM_OWNER],
            SetOwner::Record(r) => db.records_of_type(r),
        };
        for owner in owners {
            let members = db.members_of(&set.name, owner).unwrap();
            // 1. Member lists are sorted by the declared keys.
            if !set.keys.is_empty() {
                let keys: Vec<Vec<Value>> = members
                    .iter()
                    .map(|&m| {
                        set.keys
                            .iter()
                            .map(|k| db.field_value(m, k).unwrap())
                            .collect()
                    })
                    .collect();
                for w in keys.windows(2) {
                    assert_ne!(
                        cmp_tuple(&w[0], &w[1]),
                        std::cmp::Ordering::Greater,
                        "set {} occurrence unsorted",
                        set.name
                    );
                }
                // 2. No duplicate keys within an occurrence.
                for w in keys.windows(2) {
                    assert_ne!(
                        cmp_tuple(&w[0], &w[1]),
                        std::cmp::Ordering::Equal,
                        "set {} occurrence has duplicate keys",
                        set.name
                    );
                }
            }
            // 3. owner_in is the inverse of members_of.
            for &m in &members {
                assert_eq!(
                    db.owner_in(&set.name, m).unwrap(),
                    Some(owner),
                    "member/owner index out of sync in {}",
                    set.name
                );
            }
        }
        // 4. System sets contain every record of their member type.
        if set.is_system() {
            let members = db.members_of(&set.name, SYSTEM_OWNER).unwrap();
            let mut all = db.records_of_type(&set.member);
            let mut ms = members.clone();
            all.sort();
            ms.sort();
            assert_eq!(all, ms, "system set {} incomplete", set.name);
        }
    }
    // 5. Every live record's values resolve.
    for r in &schema.records {
        for id in db.records_of_type(&r.name) {
            db.resolved_values(id).unwrap();
        }
    }
    // 6. Every derived access structure (per-type lists, set ordering and
    // reverse maps, materialized calc-key indexes) matches a from-scratch
    // rebuild.
    db.check_access_structures().unwrap();
    // 7. Calc-key probes agree with scan-and-filter, order included.
    for d in 0..5u8 {
        let want = Value::str(format!("D{d}"));
        if let Some(hits) = db
            .find_keyed("EMP", &["DEPT-NAME"], std::slice::from_ref(&want))
            .unwrap()
        {
            let scan: Vec<RecordId> = db
                .records_of_type("EMP")
                .into_iter()
                .filter(|&id| db.field_value(id, "DEPT-NAME").unwrap().loose_eq(&want))
                .collect();
            assert_eq!(hits, scan, "calc-key probe for D{d} diverged from scan");
        }
    }
}

// -- relational access structures -------------------------------------------

/// One random relational mutation against table T(K pk, C indexed, A).
#[derive(Debug, Clone)]
enum RelOp {
    Insert { k: u8, c: u8, a: u8 },
    DeleteByC { c: u8 },
    Reclass { k: u8, c: u8 },
    Bump { k: u8, a: u8 },
}

fn rel_op_strategy() -> impl Strategy<Value = RelOp> {
    prop_oneof![
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(k, c, a)| RelOp::Insert { k, c, a }),
        any::<u8>().prop_map(|c| RelOp::DeleteByC { c }),
        (any::<u8>(), any::<u8>()).prop_map(|(k, c)| RelOp::Reclass { k, c }),
        (any::<u8>(), any::<u8>()).prop_map(|(k, a)| RelOp::Bump { k, a }),
    ]
}

fn rel_db() -> RelationalDb {
    let schema = RelationalSchema::new("P").with_table(
        TableDef::new(
            "T",
            vec![
                ColumnDef::new("K", FieldType::Int(4)),
                ColumnDef::new("C", FieldType::Char(4)),
                ColumnDef::new("A", FieldType::Int(4)),
            ],
        )
        .with_key(vec!["K"]),
    );
    let mut db = RelationalDb::new(schema).unwrap();
    db.create_index("T", &["C"]).unwrap();
    db
}

fn apply_rel(db: &mut RelationalDb, op: &RelOp) {
    // Failures (duplicate keys, empty matches) are legitimate; the property
    // is that the secondary index never drifts from the rows.
    match op {
        RelOp::Insert { k, c, a } => {
            let _ = db.insert(
                "T",
                &[
                    ("K", Value::Int((*k % 64) as i64)),
                    ("C", Value::str(format!("C{}", c % 8))),
                    ("A", Value::Int(*a as i64)),
                ],
            );
        }
        RelOp::DeleteByC { c } => {
            let want = Value::str(format!("C{}", c % 8));
            let _ = db.delete_where("T", |row| row[1].loose_eq(&want));
        }
        RelOp::Reclass { k, c } => {
            let want = Value::Int((*k % 64) as i64);
            let _ = db.update_where(
                "T",
                |row| row[0].loose_eq(&want),
                &[("C", Value::str(format!("C{}", c % 8)))],
            );
        }
        RelOp::Bump { k, a } => {
            let want = Value::Int((*k % 64) as i64);
            let _ = db.update_where(
                "T",
                |row| row[0].loose_eq(&want),
                &[("A", Value::Int(*a as i64))],
            );
        }
    }
}

fn check_rel(db: &RelationalDb) {
    db.check_access_structures().unwrap();
    // Index probes must agree with a full scan, in storage order.
    for c in 0..8u8 {
        let want = Value::str(format!("C{c}"));
        let candidates = db
            .probe_eq("T", &[("C".to_string(), want.clone())])
            .unwrap()
            .expect("C is indexed");
        let probed: Vec<Vec<Value>> = candidates
            .iter()
            .map(|&id| db.row("T", id).unwrap().to_vec())
            .filter(|r| r[1].loose_eq(&want))
            .collect();
        let scanned: Vec<Vec<Value>> = db
            .iter_rows("T")
            .unwrap()
            .filter(|(_, r)| r[1].loose_eq(&want))
            .map(|(_, r)| r.to_vec())
            .collect();
        assert_eq!(probed, scanned, "index probe for C{c} diverged from scan");
    }
}

// -- hierarchic access structures --------------------------------------------

/// One random hierarchic mutation against DIV → (EMP, PROJ).
#[derive(Debug, Clone)]
enum HierOp {
    AddDiv { n: u16 },
    AddEmp { pick: u8, n: u16 },
    AddProj { pick: u8, n: u16 },
    Rename { pick: u8, n: u16 },
    Touch { pick: u8, a: u8 },
    Delete { pick: u8 },
}

fn hier_op_strategy() -> impl Strategy<Value = HierOp> {
    prop_oneof![
        any::<u16>().prop_map(|n| HierOp::AddDiv { n }),
        (any::<u8>(), any::<u16>()).prop_map(|(pick, n)| HierOp::AddEmp { pick, n }),
        (any::<u8>(), any::<u16>()).prop_map(|(pick, n)| HierOp::AddProj { pick, n }),
        (any::<u8>(), any::<u16>()).prop_map(|(pick, n)| HierOp::Rename { pick, n }),
        (any::<u8>(), any::<u8>()).prop_map(|(pick, a)| HierOp::Touch { pick, a }),
        any::<u8>().prop_map(|pick| HierOp::Delete { pick }),
    ]
}

fn hier_seed() -> HierDb {
    let schema = HierSchema::new("COMPANY").with_root(
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
    );
    let mut db = HierDb::new(schema).unwrap();
    db.insert("DIV", &[("DIV-NAME", Value::str("SEED"))], None)
        .unwrap();
    db
}

fn pick_id(ids: &[u64], k: u8) -> Option<u64> {
    if ids.is_empty() {
        None
    } else {
        Some(ids[k as usize % ids.len()])
    }
}

fn apply_hier(db: &mut HierDb, op: &HierOp) {
    match op {
        HierOp::AddDiv { n } => {
            let _ = db.insert("DIV", &[("DIV-NAME", Value::str(format!("V{n:05}")))], None);
        }
        HierOp::AddEmp { pick, n } => {
            if let Some(div) = pick_id(&db.occurrences_of("DIV"), *pick) {
                let _ = db.insert(
                    "EMP",
                    &[("EMP-NAME", Value::str(format!("E{n:05}")))],
                    Some(div),
                );
            }
        }
        HierOp::AddProj { pick, n } => {
            if let Some(div) = pick_id(&db.occurrences_of("DIV"), *pick) {
                let _ = db.insert(
                    "PROJ",
                    &[("PROJ-NAME", Value::str(format!("P{n:04}")))],
                    Some(div),
                );
            }
        }
        HierOp::Rename { pick, n } => {
            // Seq-field replace: repositions the segment, invalidates cache.
            if let Some(emp) = pick_id(&db.occurrences_of("EMP"), *pick) {
                let _ = db.replace(emp, &[("EMP-NAME", Value::str(format!("R{n:05}")))]);
            }
        }
        HierOp::Touch { pick, a } => {
            // Non-seq replace: must keep the cache valid.
            if let Some(emp) = pick_id(&db.occurrences_of("EMP"), *pick) {
                let _ = db.replace(emp, &[("AGE", Value::Int(*a as i64 % 80))]);
            }
        }
        HierOp::Delete { pick } => {
            if let Some(id) = pick_id(&db.occurrences_of("EMP"), *pick) {
                let _ = db.delete(id);
            }
        }
    }
}

fn check_hier(db: &HierDb) {
    let order = db.preorder();
    db.check_access_structures().unwrap();
    // Stepwise GN navigation reproduces the materialized sequence exactly.
    let mut walked = Vec::new();
    let mut cur = None;
    while let Some(next) = db.next_in_preorder(cur, None) {
        walked.push(next);
        cur = Some(next);
    }
    assert_eq!(walked, order, "stepwise navigation diverged from preorder");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn invariants_hold_under_arbitrary_op_sequences(
        ops in prop::collection::vec(op_strategy(), 0..120)
    ) {
        let mut db = named::company_db(3, 3, 5);
        // Materialize a calc-key index up front, so the whole op sequence
        // exercises its incremental maintenance rather than a fresh build.
        db.find_keyed("EMP", &["DEPT-NAME"], &[Value::str("D0")]).unwrap();
        for op in &ops {
            apply(&mut db, op);
        }
        check_invariants(&db);
    }

    /// Secondary indexes stay consistent with the rows, and probes agree
    /// with scans, under arbitrary insert/delete/update interleavings.
    #[test]
    fn relational_index_consistent_under_interleavings(
        ops in prop::collection::vec(rel_op_strategy(), 0..120)
    ) {
        let mut db = rel_db();
        for op in &ops {
            apply_rel(&mut db, op);
        }
        check_rel(&db);
    }

    /// The preorder cache survives arbitrary mutation interleavings: it is
    /// rebuilt lazily, kept across non-seq replaces, and always equal to a
    /// from-scratch traversal.
    #[test]
    fn hierarchic_cache_consistent_under_interleavings(
        ops in prop::collection::vec(hier_op_strategy(), 0..100)
    ) {
        let mut db = hier_seed();
        for (i, op) in ops.iter().enumerate() {
            apply_hier(&mut db, op);
            // Periodically force the cache alive mid-sequence so later
            // mutations must invalidate (not just lazily avoid) it.
            if i % 7 == 0 {
                let _ = db.preorder();
                db.check_access_structures().unwrap();
            }
        }
        check_hier(&db);
    }

    /// Translation preserves the invariants too (the rebuild goes through
    /// the same mutation API, but diamond cases deserve the check).
    #[test]
    fn invariants_hold_after_translation(
        ops in prop::collection::vec(op_strategy(), 0..60)
    ) {
        let mut db = named::company_db(2, 3, 4);
        for op in &ops {
            apply(&mut db, op);
        }
        let r = named::fig_4_4_restructuring();
        if let Ok(t) = r.translate(&db) {
            check_invariants(&t);
        }
    }
}
