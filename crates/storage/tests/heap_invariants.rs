//! Property tests for the out-of-core record store.
//!
//! Three families, per the heap-file PR's test plan:
//!
//! * a [`HeapFile`] under a deliberately tiny buffer pool (4 frames —
//!   far smaller than the data) driven by random insert / erase /
//!   update / get / iterate / flush-and-rescan sequences must agree
//!   with an in-memory shadow map at every step, and its free-space
//!   accounting must add up;
//! * on a **paged** [`NetworkDb`], rolling a savepoint back must leave
//!   a state byte-identical to never having run the savepoint's ops —
//!   the undo journal's logical records must exactly invert what the
//!   heap backend did physically;
//! * recovering a heap image twice yields the same database as
//!   recovering it once, and both match the writer that produced it;
//! * every copy into a heap — `to_paged`, `Clone` of a paged database,
//!   and a durable `import` read back by a reopen — equals its source,
//!   in-memory or paged.

use dbpc_datamodel::network::{FieldDef, NetworkSchema, RecordTypeDef, SetDef};
use dbpc_datamodel::types::FieldType;
use dbpc_datamodel::value::Value;
use dbpc_storage::disk::{FileMgr, HeapFile, HeapId, TempDir};
use dbpc_storage::{
    DurableNetworkDb, DurableOptions, NetworkDb, RecordId, StoredRecord, SyncPolicy, SYSTEM_OWNER,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

const PAGE: usize = 128;
const POOL: usize = 4;

/// Deterministic payload: length spans one-byte records through chains
/// that overflow several 128-byte pages.
fn payload(tag: u8, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| tag.wrapping_add(i as u8) | 1)
        .collect::<Vec<u8>>()
}

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

/// One random logical op against a paged database; mirrors the op mix
/// the engine's DML layer issues. Every op picks its target from the
/// live id list so sequences stay meaningful as records come and go.
#[derive(Debug, Clone)]
enum DbOp {
    StoreEmp { name: u16, age: i64, div: u8 },
    ModifyAge { pick: u8, age: i64 },
    Erase { pick: u8 },
    Reconnect { pick: u8, div: u8 },
}

fn db_op() -> impl Strategy<Value = DbOp> {
    prop_oneof![
        3 => (any::<u16>(), 18i64..70, any::<u8>())
            .prop_map(|(name, age, div)| DbOp::StoreEmp { name, age, div }),
        2 => (any::<u8>(), 18i64..70).prop_map(|(pick, age)| DbOp::ModifyAge { pick, age }),
        1 => any::<u8>().prop_map(|pick| DbOp::Erase { pick }),
        1 => (any::<u8>(), any::<u8>()).prop_map(|(pick, div)| DbOp::Reconnect { pick, div }),
    ]
}

/// Build a paged database with a couple of divisions and apply `ops`,
/// tracking live employee ids. Ops that pick a missing target are
/// skipped — the generator is position-based, not id-based.
fn apply_ops(db: &mut NetworkDb, divs: &[RecordId], emps: &mut Vec<RecordId>, ops: &[DbOp]) {
    for op in ops {
        match op {
            DbOp::StoreEmp { name, age, div } => {
                let owner = divs[*div as usize % divs.len()];
                let id = db
                    .store(
                        "EMP",
                        &[
                            ("EMP-NAME", Value::str(format!("E{name:05}"))),
                            ("AGE", Value::Int(*age)),
                        ],
                        &[("DIV-EMP", owner)],
                    )
                    .unwrap();
                emps.push(id);
            }
            DbOp::ModifyAge { pick, age } if !emps.is_empty() => {
                let id = emps[*pick as usize % emps.len()];
                db.modify(id, &[("AGE", Value::Int(*age))]).unwrap();
            }
            DbOp::Erase { pick } if !emps.is_empty() => {
                let i = *pick as usize % emps.len();
                let id = emps.remove(i);
                db.erase(id, false).unwrap();
            }
            DbOp::Reconnect { pick, div } if !emps.is_empty() => {
                let id = emps[*pick as usize % emps.len()];
                let owner = divs[*div as usize % divs.len()];
                db.disconnect("DIV-EMP", id).unwrap();
                db.connect("DIV-EMP", owner, id).unwrap();
            }
            _ => {}
        }
    }
}

fn seeded_db(paged: bool) -> (NetworkDb, Vec<RecordId>) {
    let mut db = if paged {
        NetworkDb::new_paged(schema(), PAGE, POOL).unwrap()
    } else {
        NetworkDb::new(schema()).unwrap()
    };
    let divs: Vec<RecordId> = (0..3)
        .map(|d| {
            db.store("DIV", &[("DIV-NAME", Value::str(format!("DIV-{d}")))], &[])
                .unwrap()
        })
        .collect();
    (db, divs)
}

/// The logical state of a database as its public read API sees it:
/// the allocator state, every record of every type (in creation order),
/// and the member list of every set under every possible owner.
/// Together with `fingerprint()` — which also covers each member's
/// ordering key and arrival sequence — this is what a copy must keep.
type LogicalImage = (
    (u64, Vec<(String, u64)>),
    Vec<StoredRecord>,
    Vec<(String, RecordId, Vec<RecordId>)>,
);

fn logical_image(db: &NetworkDb) -> LogicalImage {
    let schema = db.schema();
    let ids: Vec<RecordId> = schema
        .records
        .iter()
        .flat_map(|rt| db.records_of_type(&rt.name))
        .collect();
    let records = ids.iter().map(|&id| db.get(id).unwrap()).collect();
    let owners: Vec<RecordId> = std::iter::once(SYSTEM_OWNER).chain(ids).collect();
    let members = schema
        .sets
        .iter()
        .flat_map(|set| {
            owners.iter().map(|&owner| {
                (
                    set.name.clone(),
                    owner,
                    db.members_of(&set.name, owner).unwrap(),
                )
            })
        })
        .collect();
    (db.allocator_state(), records, members)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Shadow-model check of the raw heap file: after every random
    /// insert / erase / update, every live record must read back
    /// exactly, iteration must visit exactly the shadow map's payloads,
    /// and the stats must account for every live byte. A periodic
    /// flush + fresh-handle rescan proves the disk image alone carries
    /// the whole store even though the pool held only 4 frames.
    #[test]
    fn heap_ops_match_shadow_map(
        ops in prop::collection::vec((0u8..4, any::<u8>(), 0usize..300), 1..60),
    ) {
        let dir = TempDir::new("heap-prop").unwrap();
        let fm = Arc::new(FileMgr::new(dir.path(), PAGE).unwrap());
        let mut heap = HeapFile::open(Arc::clone(&fm), "heap.dat", POOL).unwrap();
        let mut shadow: BTreeMap<HeapId, Vec<u8>> = BTreeMap::new();
        let mut order: Vec<HeapId> = Vec::new();

        for (step, &(op, tag, len)) in ops.iter().enumerate() {
            match op {
                0 => {
                    let bytes = payload(tag, len.max(1));
                    let id = heap.insert(&bytes).unwrap();
                    prop_assert!(shadow.insert(id, bytes).is_none(),
                        "insert reused live handle {id:?}");
                    order.push(id);
                }
                1 if !order.is_empty() => {
                    let id = order.remove(tag as usize % order.len());
                    heap.erase(id).unwrap();
                    shadow.remove(&id);
                }
                2 if !order.is_empty() => {
                    let i = tag as usize % order.len();
                    let old = order[i];
                    let bytes = payload(tag.wrapping_add(13), len.max(1));
                    let id = heap.update(old, &bytes).unwrap();
                    shadow.remove(&old);
                    prop_assert!(shadow.insert(id, bytes).is_none(),
                        "update reused live handle {id:?}");
                    order[i] = id;
                }
                3 => {
                    // Crash-free restart: flush, reopen a fresh handle
                    // over the same file, keep going.
                    heap.flush().unwrap();
                    heap = HeapFile::open(Arc::clone(&fm), "heap.dat", POOL).unwrap();
                }
                _ => {}
            }

            // Point reads see exactly the modeled bytes.
            for (id, bytes) in &shadow {
                prop_assert_eq!(&heap.get(*id).unwrap(), bytes,
                    "step {}: record {:?} read back wrong", step, id);
            }
            // Iteration visits every live record exactly once.
            let mut seen: BTreeMap<HeapId, Vec<u8>> = BTreeMap::new();
            heap.for_each(&mut |id, bytes| {
                assert!(seen.insert(id, bytes.to_vec()).is_none());
                Ok(())
            })
            .unwrap();
            prop_assert_eq!(&seen, &shadow, "step {}: iteration drifted", step);
            // Stats account for every live payload byte.
            let stats = heap.stats();
            prop_assert_eq!(stats.records as usize, shadow.len());
            let live: u64 = shadow.values().map(|b| b.len() as u64).sum();
            prop_assert_eq!(stats.live_bytes, live, "step {}: live-byte accounting", step);
        }
    }

    /// Savepoint rollback on a paged database is equivalent to never
    /// having run the savepoint's ops: fingerprints and logical
    /// images match a twin database that only ran the prefix — even
    /// though the heap file underneath saw (and physically kept) every
    /// aborted insert and update.
    #[test]
    fn savepoint_rollback_equals_never_ran(
        prefix in prop::collection::vec(db_op(), 0..25),
        suffix in prop::collection::vec(db_op(), 1..25),
    ) {
        let (mut db, divs) = seeded_db(true);
        let mut emps = Vec::new();
        apply_ops(&mut db, &divs, &mut emps, &prefix);

        let (mut twin, twin_divs) = seeded_db(true);
        let mut twin_emps = Vec::new();
        apply_ops(&mut twin, &twin_divs, &mut twin_emps, &prefix);

        let sp = db.begin_savepoint();
        let mut scratch = emps.clone();
        apply_ops(&mut db, &divs, &mut scratch, &suffix);
        db.rollback_to(sp);

        prop_assert_eq!(db.fingerprint(), twin.fingerprint(),
            "rollback left a different logical state");
        prop_assert_eq!(logical_image(&db), logical_image(&twin),
            "rollback left a different logical image");
    }

    /// Recovery is idempotent: scan-rebuild a flushed heap image twice
    /// with fresh handles; both recovered databases must equal the
    /// writer — fingerprint and logical image — and each other.
    #[test]
    fn heap_recovery_twice_equals_recovery_once(
        ops in prop::collection::vec(db_op(), 1..40),
    ) {
        let dir = TempDir::new("heap-recover-prop").unwrap();
        let fm = Arc::new(FileMgr::new(dir.path(), PAGE).unwrap());
        let mut db =
            NetworkDb::paged_on(schema(), Arc::clone(&fm), "heap.dat", POOL).unwrap();
        let divs: Vec<RecordId> = (0..3)
            .map(|d| {
                db.store("DIV", &[("DIV-NAME", Value::str(format!("DIV-{d}")))], &[])
                    .unwrap()
            })
            .collect();
        let mut emps = Vec::new();
        apply_ops(&mut db, &divs, &mut emps, &ops);
        db.sync_links().unwrap();
        db.flush_heap().unwrap();
        let (next_id, seqs) = db.allocator_state();

        let once = NetworkDb::recover_paged(
            schema(), Arc::clone(&fm), "heap.dat", POOL, next_id, &seqs,
        )
        .unwrap();
        let twice = NetworkDb::recover_paged(
            schema(), Arc::clone(&fm), "heap.dat", POOL, next_id, &seqs,
        )
        .unwrap();

        prop_assert_eq!(once.fingerprint(), db.fingerprint(),
            "recovered database drifted from the writer");
        prop_assert_eq!(twice.fingerprint(), once.fingerprint(),
            "second recovery drifted from the first");
        prop_assert_eq!(logical_image(&once), logical_image(&db));
        prop_assert_eq!(logical_image(&twice), logical_image(&once));
        prop_assert_eq!(once.allocator_state(), db.allocator_state());
    }

    /// Every copy into a heap equals its source: `to_paged`, `Clone` of
    /// a paged database, and `DurableNetworkDb::import` read back by a
    /// reopen, from an in-memory and from a paged source alike — same
    /// fingerprint, same logical image, and intact access structures.
    #[test]
    fn heap_copies_equal_their_source(
        paged in any::<bool>(),
        ops in prop::collection::vec(db_op(), 0..40),
    ) {
        let (mut src, divs) = seeded_db(paged);
        let mut emps = Vec::new();
        apply_ops(&mut src, &divs, &mut emps, &ops);

        let twin = src.to_paged(PAGE, POOL).unwrap();
        let clone = if paged { src.clone() } else { twin.clone() };
        let dir = TempDir::new("heap-copy-prop").unwrap();
        let opts = DurableOptions {
            page_size: 256,
            buffers: POOL,
            sync: SyncPolicy::Os,
            ..DurableOptions::default()
        };
        let mut durable = DurableNetworkDb::open(dir.path(), schema(), opts.clone()).unwrap();
        durable.import(&src, b"copy").unwrap();
        drop(durable);
        let reopened = DurableNetworkDb::open(dir.path(), schema(), opts).unwrap();

        let want = logical_image(&src);
        for (label, copy) in [("to_paged", &twin), ("clone", &clone), ("import", reopened.engine())] {
            prop_assert!(copy.is_paged(), "{}: copy is not paged", label);
            prop_assert_eq!(copy.fingerprint(), src.fingerprint(), "{}: fingerprint", label);
            prop_assert_eq!(&logical_image(copy), &want, "{}: logical image", label);
            prop_assert_eq!(copy.check_access_structures(), Ok(()), "{}: audit", label);
        }
    }
}
