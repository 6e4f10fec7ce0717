//! Transactional statistics: the planner's `StatCatalog` is a derived
//! view over access structures the undo journal already restores, so it
//! must be **transactional by construction** — `rollback_to` a savepoint
//! returns the catalog to exactly its pre-savepoint value (fingerprint
//! equality), on all three storage engines, with warmed lazy structures
//! (calc-key indexes, the hierarchic preorder cache) in play. A
//! crash-resumed data translation must likewise yield a catalog identical
//! to the uncrashed run's.
//!
//! Without these guarantees the cost-based planner could price plans from
//! stale cardinalities after a rolled-back run — the stats analogue of
//! the torn-write bugs the PR 4 undo journal exists to prevent.

use dbpc::corpus::named;
use dbpc::datamodel::hierarchical::{HierSchema, SegmentDef};
use dbpc::datamodel::network::FieldDef;
use dbpc::datamodel::relational::{ColumnDef, RelationalSchema, TableDef};
use dbpc::datamodel::types::FieldType;
use dbpc::datamodel::value::Value;
use dbpc::restructure::{translate_durable, DurableOutcome, DurableTranslationOptions};
use dbpc::storage::{HierDb, RelationalDb, StatCatalog, TempDir, SYSTEM_OWNER};

fn rel_db() -> RelationalDb {
    let schema = RelationalSchema::new("S").with_table(
        TableDef::new(
            "PART",
            vec![
                ColumnDef::new("P#", FieldType::Int(6)),
                ColumnDef::new("CLASS", FieldType::Char(4)),
            ],
        )
        .with_key(vec!["P#"]),
    );
    let mut db = RelationalDb::new(schema).unwrap();
    db.create_index("PART", &["CLASS"]).unwrap();
    for i in 0..20 {
        db.insert(
            "PART",
            &[
                ("P#", Value::Int(i)),
                ("CLASS", Value::str(format!("C{}", i % 4))),
            ],
        )
        .unwrap();
    }
    db
}

#[test]
fn relational_rollback_restores_catalog() {
    let mut db = rel_db();
    let before = StatCatalog::of_relational(&db);

    let sp = db.begin_savepoint();
    for i in 20..40 {
        db.insert(
            "PART",
            &[("P#", Value::Int(i)), ("CLASS", Value::str("NEW"))],
        )
        .unwrap();
    }
    db.delete_where("PART", |row| row[0] == Value::Int(3))
        .unwrap();
    let during = StatCatalog::of_relational(&db);
    assert_ne!(
        before.fingerprint(),
        during.fingerprint(),
        "mutations must be visible in the catalog"
    );
    assert_eq!(during.cardinality_of("PART"), Some(39));

    db.rollback_to(sp);
    let after = StatCatalog::of_relational(&db);
    assert_eq!(before, after);
    assert_eq!(before.fingerprint(), after.fingerprint());
}

#[test]
fn network_rollback_restores_catalog_with_warm_calc_index() {
    let mut db = named::company_db(4, 3, 8);
    // Warm the lazy calc-key index so the undo path must maintain it.
    let hit = db
        .find_keyed("DIV", &["DIV-NAME"], &[Value::str("MACHINERY")])
        .unwrap();
    assert!(hit.is_some(), "fixture MACHINERY must be keyed-reachable");
    let before = StatCatalog::of_network(&db);

    let sp = db.begin_savepoint();
    let div = db
        .store("DIV", &[("DIV-NAME", Value::str("DIV-NEW"))], &[])
        .unwrap();
    for n in ["A", "B", "C"] {
        db.store(
            "EMP",
            &[
                ("EMP-NAME", Value::str(n)),
                ("DEPT-NAME", Value::str("SALES")),
                ("AGE", Value::Int(30)),
            ],
            &[("DIV-EMP", div)],
        )
        .unwrap();
    }
    let erased = db.records_of_type("EMP")[0];
    db.erase(erased, true).unwrap();
    let during = StatCatalog::of_network(&db);
    assert_ne!(before.fingerprint(), during.fingerprint());

    db.rollback_to(sp);
    let after = StatCatalog::of_network(&db);
    assert_eq!(before, after);
    assert_eq!(before.fingerprint(), after.fingerprint());
    // The warmed index answers identically after the rollback.
    assert_eq!(
        db.find_keyed("DIV", &["DIV-NAME"], &[Value::str("MACHINERY")])
            .unwrap(),
        hit
    );
}

#[test]
fn hier_rollback_restores_catalog_with_warm_preorder() {
    let schema = HierSchema::new("COMPANY").with_root(
        SegmentDef::new("DIV", vec![FieldDef::new("DIV-NAME", FieldType::Char(20))])
            .with_seq_field("DIV-NAME")
            .with_child(
                SegmentDef::new("EMP", vec![FieldDef::new("EMP-NAME", FieldType::Char(25))])
                    .with_seq_field("EMP-NAME"),
            ),
    );
    let mut db = HierDb::new(schema).unwrap();
    let mut roots = Vec::new();
    for d in 0..3 {
        let div = db
            .insert("DIV", &[("DIV-NAME", Value::str(format!("DIV{d}")))], None)
            .unwrap();
        roots.push(div);
        for e in 0..5 {
            db.insert(
                "EMP",
                &[("EMP-NAME", Value::str(format!("E{d}{e}")))],
                Some(div),
            )
            .unwrap();
        }
    }
    // Warm the preorder cache so rollback must keep it consistent.
    assert!(db.next_in_preorder(None, Some("EMP")).is_some());
    let before = StatCatalog::of_hier(&db);
    assert_eq!(before.cardinality_of("EMP"), Some(15));

    let sp = db.begin_savepoint();
    db.insert("EMP", &[("EMP-NAME", Value::str("NEW"))], Some(roots[0]))
        .unwrap();
    db.delete(roots[2]).unwrap(); // cascades its 5 EMP children
    let during = StatCatalog::of_hier(&db);
    assert_ne!(before.fingerprint(), during.fingerprint());

    db.rollback_to(sp);
    let after = StatCatalog::of_hier(&db);
    assert_eq!(before, after);
    assert_eq!(before.fingerprint(), after.fingerprint());
    db.check_access_structures().unwrap();
}

#[test]
fn nested_savepoints_restore_catalog_stepwise() {
    let mut db = named::company_db(2, 2, 4);
    let fp0 = StatCatalog::of_network(&db).fingerprint();
    let sp1 = db.begin_savepoint();
    let d = db
        .store("DIV", &[("DIV-NAME", Value::str("X"))], &[])
        .unwrap();
    let fp1 = StatCatalog::of_network(&db).fingerprint();
    let sp2 = db.begin_savepoint();
    db.store(
        "EMP",
        &[
            ("EMP-NAME", Value::str("Y")),
            ("DEPT-NAME", Value::str("MFG")),
            ("AGE", Value::Int(20)),
        ],
        &[("DIV-EMP", d)],
    )
    .unwrap();
    assert_ne!(StatCatalog::of_network(&db).fingerprint(), fp1);
    db.rollback_to(sp2);
    assert_eq!(StatCatalog::of_network(&db).fingerprint(), fp1);
    db.rollback_to(sp1);
    assert_eq!(StatCatalog::of_network(&db).fingerprint(), fp0);
}

#[test]
fn crash_resumed_translation_yields_identical_catalog() {
    let source = named::company_db(4, 3, 8);
    let restructuring = named::fig_4_4_restructuring();
    let transform = &restructuring.transforms[0];
    let opts = DurableTranslationOptions {
        batch: 3,
        ..DurableTranslationOptions::default()
    };

    let one_shot = restructuring.translate(&source).unwrap();
    let reference = StatCatalog::of_network(&one_shot);
    assert!(reference.total_records() > 0);

    // Crash a durable translation at every boundary; the catalog of the
    // run that recovers from its log must match.
    let boundaries = {
        let dir = TempDir::new("catalog-count").unwrap();
        let mut n = 0;
        translate_durable(&source, transform, dir.path(), &opts, &mut |_| {
            n += 1;
            false
        })
        .unwrap();
        n
    };
    for crash_at in 0..boundaries {
        let dir = TempDir::new(&format!("catalog-crash-{crash_at}")).unwrap();
        let crashed = translate_durable(&source, transform, dir.path(), &opts, &mut |b| {
            b == crash_at
        })
        .unwrap();
        assert!(
            matches!(crashed, DurableOutcome::Crashed { .. }),
            "crash plan never fired"
        );
        let DurableOutcome::Complete { out, .. } =
            translate_durable(&source, transform, dir.path(), &opts, &mut |_| false).unwrap()
        else {
            unreachable!("recovery crashed without a crash plan")
        };
        let catalog = StatCatalog::of_network(out.engine());
        assert_eq!(
            reference, catalog,
            "catalog diverged when crashed at boundary {crash_at}"
        );
        assert_eq!(reference.fingerprint(), catalog.fingerprint());
    }
}

#[test]
fn catalog_reading_is_access_invisible() {
    let db = named::company_db(4, 3, 8);
    // Warm lazy structures first so catalog construction cannot be blamed
    // for their build cost either way.
    let _ = db.find_keyed("DIV", &["DIV-NAME"], &[Value::str("MACHINERY")]);
    let _ = db.members_of("ALL-DIV", SYSTEM_OWNER);
    db.access_stats().reset();
    let before = db.access_stats().snapshot();
    let _ = StatCatalog::of_network(&db);
    let after = db.access_stats().snapshot();
    assert_eq!(
        before, after,
        "building a StatCatalog must not touch access-path counters"
    );
}

#[test]
fn network_catalog_matches_translated_reality() {
    // Cross-check: catalog cardinalities equal direct recounts on the
    // translated database (no stale incremental state).
    let source = named::company_db(3, 2, 5);
    let target = named::fig_4_4_restructuring().translate(&source).unwrap();
    let catalog = StatCatalog::of_network(&target);
    for r in &target.schema().records.clone() {
        assert_eq!(
            catalog.cardinality_of(&r.name),
            Some(target.records_of_type(&r.name).len() as u64),
            "cardinality mismatch for {}",
            r.name
        );
    }
}
