//! Paged I/O budget of the record path, as exact `buffer.pins` and
//! `disk.reads` deltas.
//!
//! Each record operation on a paged [`NetworkDb`] pins the pages it
//! touches once: a read is one pin of the record's page (plus one of the
//! owner's per virtual field it resolves); a store checks
//! its owners' types from RAM and pins only the page it writes; modify
//! and erase fetch the record once and write its page once. A pin
//! counted here is a buffer-pool lookup, not necessarily a disk read, so
//! the budget holds whatever the pool size.
//!
//! A pin that misses reads the disk only for a page the pool evicted
//! earlier: a page the heap has just appended has no image on disk yet
//! and is faulted in as zeros.

use dbpc_datamodel::network::{FieldDef, NetworkSchema, RecordTypeDef, SetDef};
use dbpc_datamodel::types::FieldType;
use dbpc_datamodel::value::Value;
use dbpc_obs::local_snapshot;
use dbpc_storage::disk::{BUFFER_HITS, BUFFER_PINS, DISK_READS};
use dbpc_storage::{NetworkDb, RecordId};

fn schema() -> NetworkSchema {
    NetworkSchema::new("COMPANY-NAME")
        .with_record(RecordTypeDef::new(
            "DIV",
            vec![FieldDef::new("DIV-NAME", FieldType::Char(20))],
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

/// Buffer pins spent by `f`.
fn pins<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = local_snapshot();
    let out = f();
    (out, local_snapshot().since(&before).counter(BUFFER_PINS))
}

fn store_emp(db: &mut NetworkDb, name: &str, div: RecordId) -> RecordId {
    db.store(
        "EMP",
        &[("EMP-NAME", Value::str(name)), ("AGE", Value::Int(30))],
        &[("DIV-EMP", div)],
    )
    .unwrap()
}

/// A paged database holding one division with two employees, every
/// payload rewritten once so later same-size modifies stay in place.
fn setup(pool: usize) -> (NetworkDb, RecordId, [RecordId; 2]) {
    let mut db = NetworkDb::new_paged(schema(), 4096, pool).unwrap();
    let div = db
        .store("DIV", &[("DIV-NAME", Value::str("SALES"))], &[])
        .unwrap();
    let emps = [
        store_emp(&mut db, "ADAMS", div),
        store_emp(&mut db, "BAKER", div),
    ];
    db.sync_links().unwrap();
    (db, div, emps)
}

#[test]
fn paged_record_operations_stay_within_their_pin_budget() {
    // With one frame nearly every pin misses, with sixteen none do: the
    // budget is the same either way.
    for pool in [1, 16] {
        let (mut db, div, [adams, baker]) = setup(pool);

        // A read of an inline record: one pin of its page.
        let (rec, n) = pins(|| db.get(adams).unwrap());
        assert_eq!(rec.values[0], Value::str("ADAMS"));
        assert_eq!(n, 1, "get (pool {pool})");

        // A store connected to an owner checks the owner's type from RAM:
        // the only pin is the page the new record is written to.
        let (carter, n) = pins(|| store_emp(&mut db, "CARTER", div));
        assert_eq!(n, 1, "store with an owner connect (pool {pool})");

        // A same-size modify fetches the record once and rewrites it in
        // place: one pin to read, one to write.
        let (res, n) = pins(|| db.modify(baker, &[("AGE", Value::Int(41))]));
        res.unwrap();
        assert_eq!(n, 2, "modify (pool {pool})");
        assert_eq!(db.field_value(baker, "AGE").unwrap(), Value::Int(41));

        // An erase fetches the record once (for the undo image and the
        // index maintenance) and clears its slot under one more pin.
        let (res, n) = pins(|| db.erase(carter, false));
        assert_eq!(res.unwrap(), vec![carter]);
        assert_eq!(n, 2, "erase (pool {pool})");

        // A cascade costs the same per record: two employees and their
        // division, two pins each.
        let (res, n) = pins(|| db.erase(div, true));
        assert_eq!(res.unwrap().len(), 3);
        assert_eq!(n, 6, "cascading erase of three records (pool {pool})");
        assert_eq!(db.record_count(), 0);
        db.check_access_structures().unwrap();
    }
}

#[test]
fn set_link_operations_stay_within_their_pin_budget() {
    for pool in [1, 16] {
        let (mut db, div, [adams, _]) = setup(pool);

        // A disconnect from a keyed set reads the member once, for the
        // set key its link is filed under; the link itself is in RAM.
        let (res, n) = pins(|| db.disconnect("DIV-EMP", adams));
        res.unwrap();
        assert_eq!(n, 1, "disconnect from a keyed set (pool {pool})");
        let unlinked = db.fingerprint();

        // A connect reads the member once, for its type and set key; the
        // owner's type comes from RAM.
        let sp = db.begin_savepoint();
        let (res, n) = pins(|| db.connect("DIV-EMP", div, adams));
        res.unwrap();
        assert_eq!(n, 1, "connect (pool {pool})");

        // Rolling the connect back reads the member once, for its key.
        let ((), n) = pins(|| db.rollback_to(sp));
        assert_eq!(n, 1, "rollback of a connect (pool {pool})");
        assert_eq!(db.fingerprint(), unlinked);

        // Rolling a disconnect back reads the member once, for the key
        // its link is filed under again.
        db.connect("DIV-EMP", div, adams).unwrap();
        let linked = db.fingerprint();
        let sp = db.begin_savepoint();
        db.disconnect("DIV-EMP", adams).unwrap();
        let ((), n) = pins(|| db.rollback_to(sp));
        assert_eq!(n, 1, "rollback of a disconnect (pool {pool})");
        assert_eq!(db.fingerprint(), linked);
        db.check_access_structures().unwrap();
    }
}

#[test]
fn single_field_reads_pin_one_page() {
    for pool in [1, 16] {
        let (db, _, [adams, _]) = setup(pool);

        // A stored field is read out of the record's page alone: its type
        // comes from the directory, not from a fetch.
        let (v, n) = pins(|| db.field_value(adams, "AGE").unwrap());
        assert_eq!(v, Value::Int(30));
        assert_eq!(n, 1, "stored field (pool {pool})");

        // A virtual field pins only the owner's page: the member's set
        // link and type are in RAM.
        let (v, n) = pins(|| db.field_value(adams, "DIV-NAME").unwrap());
        assert_eq!(v, Value::str("SALES"));
        assert_eq!(n, 1, "virtual field (pool {pool})");

        // A resolved row decodes the record once and reads each virtual
        // field's owner once: EMP has one virtual field, so two pins.
        let (row, n) = pins(|| db.resolved_values(adams).unwrap());
        assert_eq!(
            row,
            vec![Value::str("ADAMS"), Value::Int(30), Value::str("SALES")]
        );
        assert_eq!(n, 2, "resolved values (pool {pool})");
    }
}

/// What `f` cost: disk reads, buffer misses, and heap pages appended.
fn reads<T>(db: &mut NetworkDb, f: impl FnOnce(&mut NetworkDb) -> T) -> (T, [u64; 3]) {
    let pages = |db: &NetworkDb| db.heap_stats().map_or(0, |s| s.pages);
    let (before, pages_before) = (local_snapshot(), pages(db));
    let out = f(db);
    let delta = local_snapshot().since(&before);
    let misses = delta.counter(BUFFER_PINS) - delta.counter(BUFFER_HITS);
    let appended = pages(db) - pages_before;
    (out, [delta.counter(DISK_READS), misses, appended])
}

#[test]
fn scratch_heaps_read_back_only_evicted_pages() {
    // 512-byte pages hold a handful of records each, so 400 employees
    // fill dozens of pages: all resident under 128 frames, never under 2.
    for pool in [128, 2] {
        let mut db = NetworkDb::new_paged(schema(), 512, pool).unwrap();
        let ((div, emps), [disk, misses, appended]) = reads(&mut db, |db| {
            let div = db
                .store("DIV", &[("DIV-NAME", Value::str("SALES"))], &[])
                .unwrap();
            let emps: Vec<RecordId> = (0..400)
                .map(|i| store_emp(db, &format!("E{i:04}"), div))
                .collect();
            db.sync_links().unwrap();
            (div, emps)
        });
        assert!(appended > 20, "{appended} pages (pool {pool})");
        // Every miss on a page the heap appended is free; the rest are
        // pages read back after an eviction.
        assert_eq!(disk, misses - appended, "stores (pool {pool})");
        if pool == 128 {
            assert_eq!(disk, 0, "stores under an ample pool");
        }

        // Reading every record back misses only on evicted pages, and
        // each such miss is one read.
        let (_, [disk, misses, appended]) = reads(&mut db, |db| {
            assert_eq!(db.get(div).unwrap().values[0], Value::str("SALES"));
            for &emp in &emps {
                db.get(emp).unwrap();
            }
        });
        assert_eq!(appended, 0);
        assert_eq!(disk, misses, "reads (pool {pool})");
        if pool == 128 {
            assert_eq!(disk, 0, "reads under an ample pool");
        } else {
            assert!(disk > 20, "a 2-frame pool re-read only {disk} pages");
        }
    }
}
