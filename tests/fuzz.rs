//! Robustness: the parsers and engines never panic, whatever they are fed.
//!
//! The conversion system is only "computer-aided" if malformed inputs
//! produce diagnostics, not crashes — 1979 shops fed these tools decks of
//! arbitrary COBOL.

use dbpc::corpus::gen::{
    generate_schema, populate_schema, random_invertible_transform, SchemaGenConfig,
};
use dbpc::corpus::named;
use dbpc::datamodel::ddl::{parse_network_schema, print_network_schema};
use dbpc::datamodel::value::Value;
use dbpc::dml::dbtg::parse_dbtg;
use dbpc::dml::dli::parse_dli;
use dbpc::dml::host::parse_program;
use dbpc::dml::sequel::{parse_select, parse_sequel_program};
use dbpc::restructure::Restructuring;
use dbpc::storage::disk::{DiskResult, FileMgr, LogMgr};
use dbpc::storage::{DurableNetworkDb, DurableOptions, SyncPolicy, TempDir};
use proptest::prelude::*;
use std::path::Path;
use std::sync::{Arc, OnceLock};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// No parser panics on arbitrary printable input.
    #[test]
    fn parsers_never_panic(input in "[ -~\n]{0,200}") {
        let _ = parse_program(&input);
        let _ = parse_dbtg(&input);
        let _ = parse_dli(&input);
        let _ = parse_select(&input);
        let _ = parse_sequel_program(&input);
        let _ = parse_network_schema(&input);
    }

    /// No parser panics on mutations of a valid program (the realistic
    /// corruption case: truncated decks, swapped cards).
    #[test]
    fn parsers_survive_mutations(cut in 0usize..400, extra in "[ -~]{0,12}") {
        let valid = "PROGRAM P;
  LET X := 3;
  FIND E := FIND(EMP: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'M'), DIV-EMP, EMP(AGE > X));
  FOR EACH R IN E DO
    PRINT R.EMP-NAME;
  END FOR;
END PROGRAM;";
        let cut = cut.min(valid.len());
        // Stay on a char boundary (always true for this ASCII source).
        let mutated = format!("{}{}{}", &valid[..cut], extra, &valid[cut..]);
        let _ = parse_program(&mutated);
    }

    /// Generated schemas always validate, populate, translate under a
    /// random invertible transform, and round-trip through the DDL.
    #[test]
    fn generated_schema_pipeline_holds(seed in 0u64..500) {
        let schema = generate_schema(SchemaGenConfig::default(), seed);
        schema.validate().unwrap();

        // DDL round trip (names/sets/constraints; virtual widths excluded
        // by construction — the generator emits no virtual fields).
        let printed = print_network_schema(&schema);
        let parsed = parse_network_schema(&printed).unwrap();
        prop_assert_eq!(&schema.sets, &parsed.sets);

        // Populate and translate.
        let db = populate_schema(&schema, 4, seed).unwrap();
        let t = random_invertible_transform(&schema, seed);
        let r = Restructuring::single(t);
        let translated = r.translate(&db).unwrap();
        prop_assert_eq!(db.record_count(), translated.record_count());

        // And back (renames round-trip; AddField's inverse drops the
        // default-filled field, record counts still match).
        let back = r.inverse().unwrap().translate(&translated).unwrap();
        prop_assert_eq!(back.record_count(), db.record_count());
    }
}

// ---------------------------------------------------------------------------
// On-disk decoders: the WAL frame scan and the MANIFEST slots. Whatever
// bytes a crash, a bad disk or a stray write leaves behind, recovery ends
// in `Ok` or a typed `DiskError`, never a panic.
// ---------------------------------------------------------------------------

/// Small pages, so the fixtures' records and frames span page boundaries.
const PAGE: usize = 128;
const WAL: &str = "wal";

/// A corruption of a file image: bit flips at (wrapped) offsets, then an
/// optional truncation at a (wrapped) length, then appended garbage.
#[derive(Debug, Clone)]
struct Damage {
    flips: Vec<(usize, u8)>,
    cut: Option<usize>,
    tail: Vec<u8>,
}

impl Damage {
    fn apply(&self, pristine: &[u8]) -> Vec<u8> {
        let mut bytes = pristine.to_vec();
        if !bytes.is_empty() {
            for &(at, bit) in &self.flips {
                let at = at % bytes.len();
                bytes[at] ^= 1 << bit;
            }
        }
        if let Some(cut) = self.cut {
            bytes.truncate(cut % (bytes.len() + 1));
        }
        bytes.extend_from_slice(&self.tail);
        bytes
    }
}

fn damage() -> impl Strategy<Value = Damage> {
    (
        prop::collection::vec((0usize..4096, 0u8..8), 0..6),
        prop::option::of(0usize..4096),
        prop::collection::vec(any::<u8>(), 0..48),
    )
        .prop_map(|(flips, cut, tail)| Damage { flips, cut, tail })
}

/// The records of the WAL fixture: sizes below, at and above a page.
fn wal_records() -> Vec<Vec<u8>> {
    [1usize, 40, 116, 117, 300, 9]
        .iter()
        .enumerate()
        .map(|(i, &n)| (0..n).map(|b| (i * 31 + b) as u8).collect())
        .collect()
}

/// The byte image of a flushed log holding [`wal_records`].
fn wal_image() -> &'static [u8] {
    static IMAGE: OnceLock<Vec<u8>> = OnceLock::new();
    IMAGE.get_or_init(|| {
        let dir = TempDir::new("fuzz-wal-fixture").unwrap();
        let fm = Arc::new(FileMgr::new(dir.path(), PAGE).unwrap());
        let (mut log, _) = LogMgr::open(fm, WAL).unwrap();
        for rec in wal_records() {
            log.append(&rec).unwrap();
        }
        log.flush().unwrap();
        drop(log);
        std::fs::read(dir.path().join(WAL)).unwrap()
    })
}

/// Write `bytes` as the log file of a fresh directory and run the
/// recovery scan over it twice.
fn recover_wal(bytes: &[u8]) -> Result<(), TestCaseError> {
    let dir = TempDir::new("fuzz-wal").unwrap();
    std::fs::write(dir.path().join(WAL), bytes).unwrap();
    let fm = Arc::new(FileMgr::new(dir.path(), PAGE).unwrap());
    let Ok((_, first)) = LogMgr::open(Arc::clone(&fm), WAL) else {
        return Ok(()); // a typed error is an acceptable outcome
    };
    // The cleansing write makes recovery idempotent, whatever it found.
    let (_, second) = LogMgr::open(fm, WAL).map_err(|e| TestCaseError::fail(e.to_string()))?;
    prop_assert_eq!(first, second, "second recovery differs from the first");
    Ok(())
}

/// Every file of a durable database directory, by name.
type DirImage = Vec<(String, Vec<u8>)>;

fn read_dir_image(root: &Path) -> DirImage {
    let mut files: DirImage = std::fs::read_dir(root)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().into_string().unwrap();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

fn durable_opts() -> DurableOptions {
    DurableOptions {
        page_size: 256,
        buffers: 4,
        sync: SyncPolicy::Os,
        faults: None,
    }
}

fn open_durable(root: &Path) -> DiskResult<DurableNetworkDb> {
    DurableNetworkDb::open(root, named::company_schema(), durable_opts())
}

/// A durable database two checkpoints in (so both MANIFEST slots hold a
/// generation) with committed work in the live WAL, and its fingerprint.
fn durable_image() -> &'static (DirImage, u64) {
    static IMAGE: OnceLock<(DirImage, u64)> = OnceLock::new();
    IMAGE.get_or_init(|| {
        let dir = TempDir::new("fuzz-manifest-fixture").unwrap();
        let mut db = open_durable(dir.path()).unwrap();
        db.import(&named::company_db(2, 2, 4), b"fuzz").unwrap();
        let sp = db.begin_savepoint();
        let div = db
            .store(
                "DIV",
                &[
                    ("DIV-NAME", Value::str("FUZZ")),
                    ("DIV-LOC", Value::str("NOWHERE")),
                ],
                &[],
            )
            .unwrap();
        db.commit(sp).unwrap();
        db.checkpoint(b"fuzz").unwrap();
        let sp = db.begin_savepoint();
        db.modify(div, &[("DIV-LOC", Value::str("ANYWHERE"))])
            .unwrap();
        db.commit(sp).unwrap();
        let fp = db.fingerprint();
        drop(db);
        (read_dir_image(dir.path()), fp)
    })
}

/// Lay the fixture down in a fresh directory with its MANIFEST replaced
/// by `manifest`, and open it.
fn open_with_manifest(manifest: &[u8]) -> DiskResult<u64> {
    let dir = TempDir::new("fuzz-manifest").unwrap();
    for (name, bytes) in &durable_image().0 {
        let bytes = if name == "MANIFEST" { manifest } else { bytes };
        std::fs::write(dir.path().join(name), bytes).unwrap();
    }
    open_durable(dir.path()).map(|db| db.fingerprint())
}

fn pristine_manifest() -> &'static [u8] {
    let (files, _) = durable_image();
    &files
        .iter()
        .find(|(name, _)| name == "MANIFEST")
        .expect("two checkpoints write a MANIFEST")
        .1
}

/// The fixtures themselves recover exactly, so the cases below corrupt a
/// state that opens.
#[test]
fn undamaged_wal_and_manifest_recover_exactly() {
    let dir = TempDir::new("fuzz-wal-clean").unwrap();
    std::fs::write(dir.path().join(WAL), wal_image()).unwrap();
    let fm = Arc::new(FileMgr::new(dir.path(), PAGE).unwrap());
    let (_, recs) = LogMgr::open(fm, WAL).unwrap();
    let payloads: Vec<Vec<u8>> = recs.into_iter().map(|(_, p)| p).collect();
    assert_eq!(payloads, wal_records());
    assert_eq!(
        open_with_manifest(pristine_manifest()).unwrap(),
        durable_image().1
    );
}

/// A MANIFEST emptied after two checkpoints names no generation, which
/// only a database that never completed a checkpoint may claim: the
/// records in its heap give it away, and the open is refused.
#[test]
fn lost_manifest_is_refused() {
    let err = open_with_manifest(&[]).expect_err("an empty MANIFEST opened");
    assert!(
        err.to_string().contains("MANIFEST names no checkpoint"),
        "{err}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A flipped, truncated or extended log recovers an unaltered prefix
    /// of its records (the frame checksum rejects the rest), or fails
    /// with a typed error.
    #[test]
    fn wal_scan_survives_damage(d in damage()) {
        let bytes = d.apply(wal_image());
        let dir = TempDir::new("fuzz-wal-prefix").unwrap();
        std::fs::write(dir.path().join(WAL), &bytes).unwrap();
        let fm = Arc::new(FileMgr::new(dir.path(), PAGE).unwrap());
        if let Ok((_, recs)) = LogMgr::open(fm, WAL) {
            let want = wal_records();
            prop_assert!(recs.len() <= want.len(), "recovered {} records", recs.len());
            for (i, (lsn, payload)) in recs.iter().enumerate() {
                prop_assert_eq!(*lsn, i as u64 + 1);
                prop_assert_eq!(payload, &want[i], "record {} altered", i);
            }
        }
        recover_wal(&bytes)?;
    }

    /// Arbitrary bytes as a log file.
    #[test]
    fn wal_scan_survives_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
        recover_wal(&bytes)?;
    }

    /// A flipped, truncated or extended MANIFEST opens the database it
    /// named or fails with a typed error; it never opens another state.
    #[test]
    fn manifest_survives_damage(d in damage()) {
        if let Ok(fp) = open_with_manifest(&d.apply(pristine_manifest())) {
            prop_assert_eq!(fp, durable_image().1, "damaged MANIFEST opened another state");
        }
    }

    /// Arbitrary bytes as a MANIFEST.
    #[test]
    fn manifest_survives_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
        if let Ok(fp) = open_with_manifest(&bytes) {
            prop_assert_eq!(fp, durable_image().1, "arbitrary MANIFEST opened another state");
        }
    }
}
