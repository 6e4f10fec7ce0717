//! Single-field reads on a paged database equal the in-memory engine's.
//!
//! `NetworkDb::field_value` on a paged record takes the record's type from
//! the directory and reads the one value out of its pinned page, stepping
//! over the fields before it. This drives the same random operations
//! through a paged twin with 128-byte pages and a 4-frame pool and an
//! in-memory one, then reads every field of every record from both. Notes
//! up to 250 bytes long spill past a 128-byte page into overflow chains,
//! and a modify that grows a note moves its record to another page, so
//! both of those paths are read as well as the inline one.

use dbpc_datamodel::network::{FieldDef, NetworkSchema, RecordTypeDef, SetDef};
use dbpc_datamodel::types::FieldType;
use dbpc_datamodel::value::Value;
use dbpc_storage::{NetworkDb, RecordId};
use proptest::prelude::*;

fn schema() -> NetworkSchema {
    let mut schema = NetworkSchema::new("COMPANY-NAME")
        .with_record(RecordTypeDef::new(
            "DIV",
            vec![FieldDef::new("DIV-NAME", FieldType::Char(20))],
        ))
        .with_record(RecordTypeDef::new(
            "EMP",
            vec![
                FieldDef::new("EMP-NAME", FieldType::Char(25)),
                FieldDef::new("NOTE", FieldType::Char(300)),
                FieldDef::virtual_field("DIV-NAME", FieldType::Char(20), "DIV-EMP", "DIV-NAME"),
                FieldDef::new("AGE", FieldType::Int(3)),
            ],
        ))
        .with_set(SetDef::system("ALL-DIV", "DIV", vec!["DIV-NAME"]))
        .with_set(SetDef::owned("DIV-EMP", "DIV", "EMP", vec!["EMP-NAME"]));
    // Members may be stored unconnected and connected later, so virtual
    // fields read both through an owner and as the null of a disconnected
    // member.
    if let Some(set) = schema.set_mut("DIV-EMP") {
        set.insertion = dbpc_datamodel::network::Insertion::Manual;
    }
    schema
}

#[derive(Debug, Clone)]
enum Op {
    StoreDiv { name: u8 },
    StoreEmp { name: u16, note: u8, age: u8 },
    Modify { pick: u8, note: u8, age: u8 },
    Connect { pick: u8, div: u8 },
    Disconnect { pick: u8 },
    Erase { pick: u8 },
    SyncLinks,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u8>().prop_map(|name| Op::StoreDiv { name }),
        (any::<u16>(), any::<u8>(), any::<u8>()).prop_map(|(name, note, age)| Op::StoreEmp {
            name,
            note,
            age
        }),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(pick, note, age)| Op::Modify {
            pick,
            note,
            age
        }),
        (any::<u8>(), any::<u8>()).prop_map(|(pick, div)| Op::Connect { pick, div }),
        any::<u8>().prop_map(|pick| Op::Disconnect { pick }),
        any::<u8>().prop_map(|pick| Op::Erase { pick }),
        Just(Op::SyncLinks),
    ]
}

/// A note of `n` bytes: mostly short, past the inline limit of a
/// 128-byte page for the upper quarter of `n`.
fn note(n: u8) -> Value {
    let len = if n >= 192 {
        n as usize + 50
    } else {
        n as usize % 40
    };
    Value::str("N".repeat(len))
}

fn pick(db: &NetworkDb, rtype: &str, k: u8) -> Option<RecordId> {
    let ids = db.records_of_type(rtype);
    (!ids.is_empty()).then(|| ids[k as usize % ids.len()])
}

/// Apply `op`, rendering the outcome so both engines' can be compared.
fn apply(db: &mut NetworkDb, op: &Op) -> String {
    let out = match *op {
        Op::StoreDiv { name } => db
            .store(
                "DIV",
                &[("DIV-NAME", Value::str(format!("D{}", name % 6)))],
                &[],
            )
            .map(|id| format!("{id:?}")),
        Op::StoreEmp { name, note: n, age } => db
            .store(
                "EMP",
                &[
                    ("EMP-NAME", Value::str(format!("E{name}"))),
                    ("NOTE", note(n)),
                    ("AGE", Value::Int(age as i64)),
                ],
                &[],
            )
            .map(|id| format!("{id:?}")),
        Op::Modify {
            pick: k,
            note: n,
            age,
        } => match pick(db, "EMP", k) {
            None => return "no emp".into(),
            Some(id) => db
                .modify(id, &[("NOTE", note(n)), ("AGE", Value::Int(age as i64))])
                .map(|()| String::new()),
        },
        Op::Connect { pick: k, div } => match (pick(db, "EMP", k), pick(db, "DIV", div)) {
            (Some(emp), Some(div)) => db.connect("DIV-EMP", div, emp).map(|()| String::new()),
            _ => return "nothing to connect".into(),
        },
        Op::Disconnect { pick: k } => match pick(db, "EMP", k) {
            None => return "no emp".into(),
            Some(id) => db.disconnect("DIV-EMP", id).map(|()| String::new()),
        },
        Op::Erase { pick: k } => {
            let rtype = if k % 4 == 0 { "DIV" } else { "EMP" };
            match pick(db, rtype, k / 4) {
                None => return "nothing to erase".into(),
                Some(id) => db.erase(id, true).map(|ids| format!("{ids:?}")),
            }
        }
        Op::SyncLinks => db.sync_links().map(|()| String::new()),
    };
    format!("{out:?}")
}

/// Every field of every record, as `field_value` reads it, plus a field
/// no record type has.
fn all_fields(db: &NetworkDb) -> Vec<String> {
    let mut out = Vec::new();
    for rt in &db.schema().records {
        for id in db.records_of_type(&rt.name) {
            for f in rt.fields.iter().map(|f| f.name.as_str()).chain(["NO-SUCH"]) {
                out.push(format!("{id:?}.{f} = {:?}", db.field_value(id, f)));
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn paged_field_reads_equal_the_in_memory_twin(
        ops in prop::collection::vec(op_strategy(), 1..80),
    ) {
        let mut mem = NetworkDb::new(schema()).unwrap();
        let mut paged = NetworkDb::new_paged(schema(), 128, 4).unwrap();
        for (i, op) in ops.iter().enumerate() {
            let want = apply(&mut mem, op);
            prop_assert_eq!(apply(&mut paged, op), want, "op {} {:?}", i, op);
            prop_assert_eq!(all_fields(&paged), all_fields(&mem), "after op {} {:?}", i, op);
        }
        prop_assert_eq!(paged.fingerprint(), mem.fingerprint());
        paged.check_access_structures().unwrap();
    }
}

/// One fixed sequence through the same paths: six employees fill a few
/// 128-byte pages, one note grows past the inline limit and spills, and
/// two grow on pages too full to hold them, before and after their link
/// sections are rewritten.
#[test]
fn spilled_and_grown_records_read_back_field_by_field() {
    let mut mem = NetworkDb::new(schema()).unwrap();
    let mut paged = NetworkDb::new_paged(schema(), 128, 4).unwrap();
    let mut ops = vec![Op::StoreDiv { name: 1 }];
    for name in 0..6u8 {
        ops.push(Op::StoreEmp {
            name: name.into(),
            note: 10,
            age: 30,
        });
        ops.push(Op::Connect { pick: name, div: 0 });
    }
    ops.extend([
        Op::Modify {
            pick: 0,
            note: 250,
            age: 31,
        },
        Op::Modify {
            pick: 1,
            note: 39,
            age: 32,
        },
        Op::SyncLinks,
        Op::Modify {
            pick: 2,
            note: 39,
            age: 33,
        },
    ]);
    for op in &ops {
        assert_eq!(apply(&mut paged, op), apply(&mut mem, op), "{op:?}");
    }
    assert!(paged.heap_stats().unwrap().pages > 2);
    assert_eq!(all_fields(&paged), all_fields(&mem));
    let emp = pick(&paged, "EMP", 0).unwrap();
    assert_eq!(paged.field_value(emp, "NOTE").unwrap(), note(250));
    assert_eq!(
        paged.field_value(emp, "DIV-NAME").unwrap(),
        Value::str("D1")
    );
}
