//! Checkpoint cost regression: I/O proportional to **dirty pages**, not
//! to database size.
//!
//! The page-granular checkpoint protocol (dirty frames written to their
//! free slots, heap sync, fresh WAL, meta blob with the new slot map,
//! manifest flip) touches disk only for pages the interval actually
//! dirtied plus a small fixed overhead. These tests diff [`DurableNetworkDb::disk_ops`]
//! around checkpoints to pin that contract, so a regression back to
//! whole-database snapshots (the pre-heap design) fails loudly here.

use dbpc_datamodel::network::{FieldDef, NetworkSchema, RecordTypeDef, SetDef};
use dbpc_datamodel::types::FieldType;
use dbpc_datamodel::value::Value;
use dbpc_storage::disk::{DurableNetworkDb, DurableOptions, TempDir};
use dbpc_storage::RecordId;

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
            ],
        ))
        .with_set(SetDef::system("ALL-DIV", "DIV", vec!["DIV-NAME"]))
        .with_set(SetDef::owned("DIV-EMP", "DIV", "EMP", vec!["EMP-NAME"]))
}

fn opts() -> DurableOptions {
    DurableOptions {
        page_size: 256,
        buffers: 8,
        ..DurableOptions::default()
    }
}

/// Seed one division plus `emps` employees in one committed batch and
/// return every employee id.
fn seed(db: &mut DurableNetworkDb, emps: usize) -> Vec<RecordId> {
    let sp = db.begin_savepoint();
    let div = db
        .store("DIV", &[("DIV-NAME", Value::str("MACHINERY"))], &[])
        .unwrap();
    let ids: Vec<RecordId> = (0..emps)
        .map(|e| {
            db.store(
                "EMP",
                &[
                    ("EMP-NAME", Value::str(format!("EMP-{e:06}"))),
                    ("AGE", Value::Int(20 + (e % 45) as i64)),
                ],
                &[("DIV-EMP", div)],
            )
            .unwrap()
        })
        .collect();
    db.commit(sp).unwrap();
    ids
}

/// Build a database of `emps` records, checkpoint it (everything dirty),
/// then dirty exactly one record and checkpoint again. Returns the disk
/// ops spent by (full checkpoint, one-record checkpoint, no-op checkpoint).
fn measure(emps: usize) -> (u64, u64, u64) {
    let dir = TempDir::new("ckpt-io").unwrap();
    let mut db = DurableNetworkDb::open(dir.path(), schema(), opts()).unwrap();
    let ids = seed(&mut db, emps);

    let before = db.disk_ops();
    db.checkpoint(b"full").unwrap();
    let full = db.disk_ops() - before;

    let sp = db.begin_savepoint();
    db.modify(ids[emps / 2], &[("AGE", Value::Int(63))])
        .unwrap();
    db.commit(sp).unwrap();
    let before = db.disk_ops();
    db.checkpoint(b"one").unwrap();
    let one = db.disk_ops() - before;

    let before = db.disk_ops();
    db.checkpoint(b"idle").unwrap();
    let idle = db.disk_ops() - before;

    (full, one, idle)
}

#[test]
fn checkpoint_io_tracks_dirty_pages_not_database_size() {
    let (full_small, one_small, idle_small) = measure(200);
    let (full_large, one_large, idle_large) = measure(800);

    // A whole-database checkpoint costs ops on the order of its pages; a
    // one-record checkpoint must be far below it.
    assert!(
        one_large * 8 < full_large,
        "one-record checkpoint cost {one_large} is not ≪ full cost {full_large}"
    );

    // The one-record cost must not grow with database size: 4× the data,
    // same dirty set, same bill (small slack for the deeper free-space map).
    assert!(
        one_large <= one_small + 6,
        "one-record checkpoint grew with database size: {one_small} ops at \
         200 records vs {one_large} at 800"
    );

    // The full checkpoint, by contrast, must scale with size — otherwise
    // the comparison above proves nothing.
    assert!(
        full_large > full_small * 2,
        "full checkpoint did not scale with data ({full_small} vs {full_large}); \
         the dirty-page measurement is broken"
    );

    // A checkpoint with nothing dirty pays only the fixed protocol
    // overhead (heap sync, WAL reset, meta blob, manifest), also
    // size-independent.
    assert!(
        idle_large <= idle_small + 2,
        "idle checkpoint grew with database size: {idle_small} vs {idle_large}"
    );
    assert!(
        idle_large < 32,
        "idle checkpoint overhead {idle_large} ops — fixed cost regressed"
    );
}

/// The exact bound: a checkpoint writes each dirty heap page once and
/// adds only the fixed protocol overhead an idle checkpoint pays (heap
/// sync, fresh WAL, meta blob, manifest). The dirty pages here are all
/// old pages — every record is rewritten after a full checkpoint — so a
/// protocol that also logs each page's pre-image pays about twice this.
#[test]
fn checkpoint_writes_each_dirty_page_once() {
    let dir = TempDir::new("ckpt-io-once").unwrap();
    let mut db = DurableNetworkDb::open(dir.path(), schema(), opts()).unwrap();
    let ids = seed(&mut db, 800);
    db.checkpoint(b"full").unwrap();

    let before = db.disk_ops();
    db.checkpoint(b"idle").unwrap();
    let overhead = db.disk_ops() - before;

    let sp = db.begin_savepoint();
    for (i, &id) in ids.iter().enumerate() {
        db.modify(id, &[("AGE", Value::Int(64 - (i % 45) as i64))])
            .unwrap();
    }
    db.commit(sp).unwrap();
    let pages = db.engine().heap_stats().unwrap().pages;
    let before = db.disk_ops();
    db.checkpoint(b"rewrite").unwrap();
    let rewrite = db.disk_ops() - before;

    assert!(
        rewrite <= pages + overhead,
        "checkpoint of {pages} dirty pages cost {rewrite} ops, more than one write \
         per page plus the {overhead}-op idle overhead"
    );
    assert!(
        rewrite >= pages,
        "checkpoint cost {rewrite} ops for {pages} dirty pages: pages went unwritten"
    );
}
