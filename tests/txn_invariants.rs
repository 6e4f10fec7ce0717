//! Property tests on the transactional substrate: for every engine, a
//! savepoint followed by an arbitrary mutation suffix and a rollback is
//! indistinguishable from never having run the suffix — full logical
//! state (via `fingerprint`) *and* the derived access structures
//! (secondary indexes, preorder cache, per-set member maps, via
//! `check_access_structures`) restored alike. Commit is likewise
//! indistinguishable from running the same ops with no savepoint at all,
//! and rollbacks nest. A final regression pins the engine-level
//! consequence the supervision ladder depends on: a mutating program
//! killed by fuel exhaustion leaves the base bitwise-unchanged.

use dbpc::corpus::named;
use dbpc::datamodel::hierarchical::{HierSchema, SegmentDef};
use dbpc::datamodel::network::FieldDef;
use dbpc::datamodel::relational::{ColumnDef, RelationalSchema, TableDef};
use dbpc::datamodel::types::FieldType;
use dbpc::datamodel::value::Value;
use dbpc::dml::host::parse_program;
use dbpc::engine::error::RunError;
use dbpc::engine::host_exec::run_host_with_fuel;
use dbpc::engine::Inputs;
use dbpc::storage::{HierDb, NetworkDb, RecordId, RelationalDb};
use proptest::prelude::*;

// -- network ------------------------------------------------------------------

/// One random network mutation over the company schema.
#[derive(Debug, Clone)]
enum NetOp {
    StoreEmp { n: u16, dept: u8, age: u8, div: u8 },
    StoreDiv { n: u16 },
    ModifyAge { pick: u8, age: u8 },
    EraseEmp { pick: u8 },
    EraseDivCascade { pick: u8 },
    Disconnect { pick: u8 },
    Connect { pick: u8, div: u8 },
    Rename { pick: u8, n: u16 },
}

fn net_op_strategy() -> impl Strategy<Value = NetOp> {
    prop_oneof![
        (any::<u16>(), any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(n, dept, age, div)| NetOp::StoreEmp { n, dept, age, div }),
        any::<u16>().prop_map(|n| NetOp::StoreDiv { n }),
        (any::<u8>(), any::<u8>()).prop_map(|(pick, age)| NetOp::ModifyAge { pick, age }),
        any::<u8>().prop_map(|pick| NetOp::EraseEmp { pick }),
        any::<u8>().prop_map(|pick| NetOp::EraseDivCascade { pick }),
        any::<u8>().prop_map(|pick| NetOp::Disconnect { pick }),
        (any::<u8>(), any::<u8>()).prop_map(|(pick, div)| NetOp::Connect { pick, div }),
        (any::<u8>(), any::<u16>()).prop_map(|(pick, n)| NetOp::Rename { pick, n }),
    ]
}

/// The company database of `company_db(3, 3, 5)`, in memory or in a
/// paged twin whose four 256-byte frames hold only part of its heap.
fn net_db(paged: bool) -> NetworkDb {
    if !paged {
        return named::company_db(3, 3, 5);
    }
    let mut db = NetworkDb::new_paged(named::company_schema(), 256, 4).unwrap();
    named::fill_company_db(&mut db, 3, 3, 5);
    db
}

fn pick(ids: &[RecordId], k: u8) -> Option<RecordId> {
    if ids.is_empty() {
        None
    } else {
        Some(ids[k as usize % ids.len()])
    }
}

fn apply_net(db: &mut NetworkDb, op: &NetOp) {
    // Individual ops may legitimately fail (duplicates, members present);
    // the property is about what rollback restores, not what succeeds.
    match op {
        NetOp::StoreEmp { n, dept, age, div } => {
            let divs = db.records_of_type("DIV");
            if let Some(d) = pick(&divs, *div) {
                let _ = db.store(
                    "EMP",
                    &[
                        ("EMP-NAME", Value::str(format!("E{n:05}"))),
                        ("DEPT-NAME", Value::str(format!("D{}", dept % 5))),
                        ("AGE", Value::Int(*age as i64 % 80)),
                    ],
                    &[("DIV-EMP", d)],
                );
            }
        }
        NetOp::StoreDiv { n } => {
            let _ = db.store(
                "DIV",
                &[
                    ("DIV-NAME", Value::str(format!("V{n:05}"))),
                    ("DIV-LOC", Value::str("X")),
                ],
                &[],
            );
        }
        NetOp::ModifyAge { pick: p, age } => {
            if let Some(id) = pick(&db.records_of_type("EMP"), *p) {
                let _ = db.modify(id, &[("AGE", Value::Int(*age as i64 % 80))]);
            }
        }
        NetOp::EraseEmp { pick: p } => {
            if let Some(id) = pick(&db.records_of_type("EMP"), *p) {
                let _ = db.erase(id, false);
            }
        }
        NetOp::EraseDivCascade { pick: p } => {
            if let Some(id) = pick(&db.records_of_type("DIV"), *p) {
                let _ = db.erase(id, true);
            }
        }
        NetOp::Disconnect { pick: p } => {
            if let Some(id) = pick(&db.records_of_type("EMP"), *p) {
                let _ = db.disconnect("DIV-EMP", id);
            }
        }
        NetOp::Connect { pick: p, div } => {
            let emp = pick(&db.records_of_type("EMP"), *p);
            if let (Some(e), Some(d)) = (emp, pick(&db.records_of_type("DIV"), *div)) {
                let _ = db.connect("DIV-EMP", d, e);
            }
        }
        NetOp::Rename { pick: p, n } => {
            // A new set key: repositions the member in `DIV-EMP`.
            if let Some(id) = pick(&db.records_of_type("EMP"), *p) {
                let _ = db.modify(id, &[("EMP-NAME", Value::str(format!("R{n:05}")))]);
            }
        }
    }
}

// -- relational ---------------------------------------------------------------

/// One random relational mutation against T(K pk, C indexed, A).
#[derive(Debug, Clone)]
enum RelOp {
    Insert { k: u8, c: u8, a: u8 },
    DeleteByC { c: u8 },
    Reclass { k: u8, c: u8 },
}

fn rel_op_strategy() -> impl Strategy<Value = RelOp> {
    prop_oneof![
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(k, c, a)| RelOp::Insert { k, c, a }),
        any::<u8>().prop_map(|c| RelOp::DeleteByC { c }),
        (any::<u8>(), any::<u8>()).prop_map(|(k, c)| RelOp::Reclass { k, c }),
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
    }
}

// -- hierarchic ---------------------------------------------------------------

/// One random hierarchic mutation against DIV → EMP.
#[derive(Debug, Clone)]
enum HierOp {
    AddDiv { n: u16 },
    AddEmp { pick: u8, n: u16 },
    Rename { pick: u8, n: u16 },
    Delete { pick: u8 },
}

fn hier_op_strategy() -> impl Strategy<Value = HierOp> {
    prop_oneof![
        any::<u16>().prop_map(|n| HierOp::AddDiv { n }),
        (any::<u8>(), any::<u16>()).prop_map(|(pick, n)| HierOp::AddEmp { pick, n }),
        (any::<u8>(), any::<u16>()).prop_map(|(pick, n)| HierOp::Rename { pick, n }),
        any::<u8>().prop_map(|pick| HierOp::Delete { pick }),
    ]
}

fn hier_seed() -> HierDb {
    let schema = HierSchema::new("COMPANY").with_root(
        SegmentDef::new("DIV", vec![FieldDef::new("DIV-NAME", FieldType::Char(20))])
            .with_seq_field("DIV-NAME")
            .with_child(
                SegmentDef::new("EMP", vec![FieldDef::new("EMP-NAME", FieldType::Char(25))])
                    .with_seq_field("EMP-NAME"),
            ),
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
        HierOp::Rename { pick, n } => {
            if let Some(emp) = pick_id(&db.occurrences_of("EMP"), *pick) {
                let _ = db.replace(emp, &[("EMP-NAME", Value::str(format!("R{n:05}")))]);
            }
        }
        HierOp::Delete { pick } => {
            if let Some(id) = pick_id(&db.occurrences_of("EMP"), *pick) {
                let _ = db.delete(id);
            }
        }
    }
}

// -- the properties -----------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Network: savepoint + suffix + rollback ≡ never running the suffix,
    /// for the full logical state and every derived structure, in memory
    /// and paged.
    #[test]
    fn network_rollback_erases_the_suffix(
        prefix in prop::collection::vec(net_op_strategy(), 0..40),
        suffix in prop::collection::vec(net_op_strategy(), 1..40),
    ) {
        for paged in [false, true] {
            let mut db = net_db(paged);
            // Materialize a calc-key index so rollback must restore it (or
            // its source of truth) rather than start from a cold cache.
            db.find_keyed("EMP", &["DEPT-NAME"], &[Value::str("D0")]).unwrap();
            for op in &prefix {
                apply_net(&mut db, op);
            }
            let before = db.fingerprint();
            let sp = db.begin_savepoint();
            for op in &suffix {
                apply_net(&mut db, op);
            }
            db.rollback_to(sp);
            prop_assert_eq!(db.fingerprint(), before, "paged: {}", paged);
            db.check_access_structures().unwrap();
        }
    }

    /// Network: commit ≡ running the same ops with no savepoint at all,
    /// and a nested rollback inside a committed outer savepoint undoes
    /// exactly its own ops, in memory and paged.
    #[test]
    fn network_commit_keeps_and_nested_rollback_peels(
        a in prop::collection::vec(net_op_strategy(), 0..25),
        b in prop::collection::vec(net_op_strategy(), 1..25),
    ) {
        for paged in [false, true] {
            // Commit path: savepoints are pure bookkeeping.
            let mut plain = net_db(paged);
            let mut txn = net_db(paged);
            for op in a.iter().chain(&b) {
                apply_net(&mut plain, op);
            }
            let sp = txn.begin_savepoint();
            for op in a.iter().chain(&b) {
                apply_net(&mut txn, op);
            }
            txn.commit(sp);
            prop_assert_eq!(txn.fingerprint(), plain.fingerprint(), "paged: {}", paged);

            // Nested path: outer(a) + inner(b rolled back) ≡ a alone.
            let mut just_a = net_db(paged);
            for op in &a {
                apply_net(&mut just_a, op);
            }
            let mut nested = net_db(paged);
            let outer = nested.begin_savepoint();
            for op in &a {
                apply_net(&mut nested, op);
            }
            let inner = nested.begin_savepoint();
            for op in &b {
                apply_net(&mut nested, op);
            }
            nested.rollback_to(inner);
            nested.commit(outer);
            prop_assert_eq!(nested.fingerprint(), just_a.fingerprint(), "paged: {}", paged);
            nested.check_access_structures().unwrap();
        }
    }

    /// Relational: rollback restores rows, the pk index, and the secondary
    /// index on C.
    #[test]
    fn relational_rollback_erases_the_suffix(
        prefix in prop::collection::vec(rel_op_strategy(), 0..40),
        suffix in prop::collection::vec(rel_op_strategy(), 1..40),
    ) {
        let mut db = rel_db();
        for op in &prefix {
            apply_rel(&mut db, op);
        }
        let before = db.fingerprint();
        let sp = db.begin_savepoint();
        for op in &suffix {
            apply_rel(&mut db, op);
        }
        db.rollback_to(sp);
        prop_assert_eq!(db.fingerprint(), before);
        db.check_access_structures().unwrap();
    }

    /// Hierarchic: rollback restores the forest *and* leaves the preorder
    /// cache equal to a from-scratch traversal — even when the suffix
    /// invalidated and rebuilt it.
    #[test]
    fn hierarchic_rollback_erases_the_suffix(
        prefix in prop::collection::vec(hier_op_strategy(), 0..30),
        suffix in prop::collection::vec(hier_op_strategy(), 1..30),
    ) {
        let mut db = hier_seed();
        for op in &prefix {
            apply_hier(&mut db, op);
        }
        // Force the cache warm so rollback must reconcile it.
        let preorder_before = db.preorder();
        let before = db.fingerprint();
        let sp = db.begin_savepoint();
        for op in &suffix {
            apply_hier(&mut db, op);
        }
        db.rollback_to(sp);
        prop_assert_eq!(db.fingerprint(), before);
        prop_assert_eq!(db.preorder(), preorder_before);
        db.check_access_structures().unwrap();
    }
}

// -- the ladder's load-bearing consequence ------------------------------------

/// Regression for the supervision ladder's retry budget: a mutating
/// program killed by fuel exhaustion must leave the shared base
/// bitwise-unchanged. Before the undo journal, the `STORE` landed and the
/// base drifted — retries and sibling programs then ran against corrupted
/// ground truth.
#[test]
fn fuel_exhaustion_rolls_back_a_mutating_program() {
    let program = parse_program(
        "PROGRAM RUNAWAY;
  STORE DIV (DIV-NAME := 'DOOMED', DIV-LOC := 'X');
  FIND ALL := FIND(DIV: SYSTEM, ALL-DIV, DIV);
  FOR EACH D IN ALL DO
    PRINT D.DIV-NAME;
  END FOR;
END PROGRAM;",
    )
    .unwrap();
    let mut db = named::company_db(4, 3, 8);
    let before = db.fingerprint();

    // Generous enough to execute the STORE, far too small for the loop.
    let err = run_host_with_fuel(&mut db, &program, Inputs::new(), 3).unwrap_err();
    assert_eq!(err, RunError::StepLimit);

    assert_eq!(
        db.fingerprint(),
        before,
        "fuel exhaustion left the base changed — the ladder's retry budget \
         would re-verify against a corrupted ground truth"
    );
    db.check_access_structures().unwrap();

    // And with enough fuel the same program commits its store.
    run_host_with_fuel(&mut db, &program, Inputs::new(), 1_000).unwrap();
    assert_ne!(db.fingerprint(), before, "the program really does mutate");
}
