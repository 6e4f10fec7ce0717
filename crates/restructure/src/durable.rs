//! Durable, restartable data translation: the rebuild plan of
//! [`crate::data`] run in batches whose progress is written into a
//! [`DurableNetworkDb`].
//!
//! This is the crate's one resumable translation. The translator's output
//! *is* a durable database under `root`, so the target's own redo log
//! makes translation crash-safe:
//!
//! * each batch runs inside one savepoint, and at the batch boundary the
//!   translator commits it together with a **commit note** (see
//!   [`DurableNetworkDb::note`]) holding the cursor — phase, offset,
//!   batches done — plus the id-map and group-map entries the batch added.
//!   The commit is flushed with `fsync` before the crash plan is consulted,
//!   so a kill at boundary `b` loses no committed batch;
//! * the target is pinned to its source database and transform by their
//!   fingerprints in the checkpoint metadata, written before the first
//!   batch: a plain checkpoint of the empty target, or, for `DeleteWhere`
//!   (which erases from a copy of the source), an import of the source;
//! * the run ends with one more commit whose note marks completion and
//!   carries the tail since the last boundary.
//!
//! Recovery is [`DurableNetworkDb::open`] — which replays the committed
//! store and erase calls through the engine's front door — followed by a
//! fold over the committed notes to rebuild the id maps and the cursor.
//! One entry point serves both lives of the process: [`translate_durable`]
//! recovers whatever `root` holds (nothing, some batches, or a completed
//! run), then continues — so the program a supervisor restarts after
//! `kill -9` is the same program it started the first time. The
//! restart-recovery experiment (E20) kills a translation at every batch
//! boundary and asserts the recovered output's engine and
//! [`StatCatalog`][dbpc_storage::StatCatalog] fingerprints are
//! byte-identical to the one-shot translation's.

use crate::data::{refresh_stats, run, target_schema, RunState, Target};
use crate::transform::Transform;
use dbpc_datamodel::value::Value;
use dbpc_storage::disk::codec::{ByteReader, ByteWriter};
use dbpc_storage::disk::{DiskError, DiskFaultPlan, DiskResult, DEFAULT_PAGE_SIZE};
use dbpc_storage::keys::KeyTuple;
use dbpc_storage::txn::Savepoint;
use dbpc_storage::{DbError, DurableNetworkDb, DurableOptions, NetworkDb, RecordId, SyncPolicy};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::Path;

/// Default batch size of a durable translation: units of work per
/// committed batch. Small enough that a crash loses bounded work, large
/// enough that the per-batch commit and its `fsync` stay noise against
/// per-record store cost.
pub const TRANSLATION_BATCH: usize = 32;

/// Metric: batches replayed from a translation's redo log during recovery.
pub const WAL_REPLAYED_BATCHES: &str = "restructure.wal_replayed_batches";

/// Buffer-pool frames of the target database. Between checkpoints the
/// pool keeps every dirty page anyway (no-steal), so this only bounds
/// clean pages.
const POOL_FRAMES: usize = 64;

const NOTE_BATCH: u8 = 1;
const NOTE_COMPLETE: u8 = 2;

/// Configuration of a durable translation run.
#[derive(Debug, Clone)]
pub struct DurableTranslationOptions {
    /// Units of work per committed batch (see [`TRANSLATION_BATCH`]).
    pub batch: usize,
    /// Page size of the target database's files.
    pub page_size: usize,
    /// Deterministic disk faults to inject into the target's I/O.
    pub faults: Option<DiskFaultPlan>,
}

impl Default for DurableTranslationOptions {
    fn default() -> Self {
        DurableTranslationOptions {
            batch: TRANSLATION_BATCH,
            page_size: DEFAULT_PAGE_SIZE,
            faults: None,
        }
    }
}

/// How a [`translate_durable`] call ended.
#[allow(clippy::large_enum_variant)] // consumed once at the call site; boxing the engine buys nothing
pub enum DurableOutcome {
    /// The translation ran (or recovered) to completion.
    Complete {
        /// The translated database; read it through
        /// [`DurableNetworkDb::engine`].
        out: DurableNetworkDb,
        /// Batches replayed from the log before continuing — `0` on an
        /// uninterrupted first run.
        batches_replayed: usize,
    },
    /// The crash plan fired; the log holds everything up to and
    /// including the boundary it fired at.
    Crashed {
        batches_done: usize,
        batches_replayed: usize,
    },
}

/// Checkpoint metadata pinning a target directory to the source database
/// and transform it is a translation of.
fn journal_meta(db: &NetworkDb, transform: &Transform) -> Vec<u8> {
    let mut h = DefaultHasher::new();
    format!("{transform:?}").hash(&mut h);
    let mut w = ByteWriter::new();
    w.put_u64(db.fingerprint());
    w.put_u64(h.finish());
    w.into_bytes()
}

/// Translate `db` across `transform` into the durable database rooted at
/// `root`, recovering first if it already holds progress. `crash` is the
/// batch-boundary crash plan (fed the zero-based boundary index); a
/// cross-process harness exits the process inside it — the boundary's
/// commit is flushed before the plan is consulted, so the kill loses no
/// committed batch.
pub fn translate_durable(
    db: &NetworkDb,
    transform: &Transform,
    root: &Path,
    opts: &DurableTranslationOptions,
    crash: &mut dyn FnMut(usize) -> bool,
) -> DiskResult<DurableOutcome> {
    let target_schema = target_schema(db, transform)?;
    let mut out = DurableNetworkDb::open(
        root,
        target_schema.clone(),
        DurableOptions {
            page_size: opts.page_size,
            buffers: POOL_FRAMES,
            sync: SyncPolicy::Data,
            faults: opts.faults.clone(),
        },
    )?;
    let meta = journal_meta(db, transform);
    let mut progress = Note::default();
    if out.meta().is_empty() {
        // Fresh run: stamp the target with what it is a translation of.
        match transform {
            Transform::DeleteWhere { .. } => out.import(db, &meta)?,
            _ => out.checkpoint(&meta)?,
        }
        crate::stats::count_schema_clone();
    } else if out.meta() != meta.as_slice() {
        return Err(DiskError::State(
            "durable translation target does not match the source database and transform"
                .to_string(),
        ));
    } else {
        progress = Note::fold(out.notes())?;
        dbpc_obs::count(WAL_REPLAYED_BATCHES, progress.batches_done as u64);
        if progress.complete {
            refresh_stats(out.engine());
            return Ok(DurableOutcome::Complete {
                out,
                batches_replayed: progress.batches_done,
            });
        }
    }
    let batches_replayed = progress.batches_done;
    let mut st = RunState::new(Journal::new(out), opts.batch);
    (st.phase, st.offset, st.batches_done) = (progress.phase, progress.offset, batches_replayed);
    st.idmap = progress.ids.into_iter().collect();
    st.group_map = progress.groups.into_iter().collect();
    if run(db, transform, &target_schema, &mut st, crash)? {
        return Ok(DurableOutcome::Crashed {
            batches_done: st.batches_done,
            batches_replayed,
        });
    }
    Ok(DurableOutcome::Complete {
        out: st.out.db,
        batches_replayed,
    })
}

/// The durable translation target: the database, its open per-batch
/// savepoint, and the map entries the batch has added so far.
struct Journal {
    db: DurableNetworkDb,
    sp: Savepoint,
    ids: Vec<(RecordId, RecordId)>,
    groups: Vec<(RecordId, KeyTuple, RecordId)>,
}

impl Journal {
    fn new(mut db: DurableNetworkDb) -> Journal {
        let sp = db.begin_savepoint();
        Journal {
            db,
            sp,
            ids: Vec::new(),
            groups: Vec::new(),
        }
    }

    /// Stage the note for the batch so far and commit the batch with it.
    fn commit(&mut self, kind: u8, phase: usize, offset: usize, batches: usize) -> DiskResult<()> {
        let mut w = ByteWriter::new();
        w.put_u8(kind);
        w.put_u64(phase as u64);
        w.put_u64(offset as u64);
        w.put_u64(batches as u64);
        w.put_u32(self.ids.len() as u32);
        for (old, new) in self.ids.drain(..) {
            w.put_u64(old.0);
            w.put_u64(new.0);
        }
        w.put_u32(self.groups.len() as u32);
        for (owner, key, new) in self.groups.drain(..) {
            w.put_u64(owner.0);
            w.put_u32(key.0.len() as u32);
            for v in &key.0 {
                w.put_value(v);
            }
            w.put_u64(new.0);
        }
        self.db.note(&w.into_bytes())?;
        self.db.commit(self.sp)
    }
}

impl Target for Journal {
    type Error = DiskError;

    fn engine(&self) -> &NetworkDb {
        self.db.engine()
    }

    fn store(
        &mut self,
        rtype: &str,
        values: &[(&str, Value)],
        connects: &[(&str, RecordId)],
    ) -> DiskResult<RecordId> {
        self.db.store(rtype, values, connects)
    }

    fn erase_cascade(&mut self, id: RecordId) -> DiskResult<()> {
        match self.db.erase(id, true) {
            Ok(_) | Err(DiskError::Engine(DbError::NotFound(_))) => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn mapped(&mut self, old: RecordId, new: RecordId) {
        self.ids.push((old, new));
    }

    fn grouped(&mut self, owner: RecordId, key: &KeyTuple, new: RecordId) {
        self.groups.push((owner, key.clone(), new));
    }

    fn boundary(&mut self, phase: usize, offset: usize, batches_done: usize) -> DiskResult<()> {
        self.commit(NOTE_BATCH, phase, offset, batches_done)?;
        self.sp = self.db.begin_savepoint();
        Ok(())
    }

    fn finish(&mut self) -> DiskResult<()> {
        self.commit(NOTE_COMPLETE, 0, 0, 0)
    }
}

/// One decoded commit note, or the fold of several.
#[derive(Debug, Default)]
struct Note {
    complete: bool,
    phase: usize,
    offset: usize,
    batches_done: usize,
    ids: Vec<(RecordId, RecordId)>,
    groups: Vec<((RecordId, KeyTuple), RecordId)>,
}

impl Note {
    /// Fold committed notes in commit order: the map deltas accumulate,
    /// and the cursor is the last batch note's.
    fn fold(notes: &[Vec<u8>]) -> DiskResult<Note> {
        let mut acc = Note::default();
        for raw in notes {
            let note = Note::decode(raw)?;
            acc.ids.extend(note.ids);
            acc.groups.extend(note.groups);
            if note.complete {
                acc.complete = true;
            } else {
                (acc.phase, acc.offset, acc.batches_done) =
                    (note.phase, note.offset, note.batches_done);
            }
        }
        Ok(acc)
    }

    /// Decode a note; any malformed input is [`DiskError::Corrupt`].
    fn decode(bytes: &[u8]) -> DiskResult<Note> {
        let mut r = ByteReader::new(bytes);
        let complete = match r.get_u8("note kind")? {
            NOTE_BATCH => false,
            NOTE_COMPLETE => true,
            k => {
                return Err(DiskError::Corrupt(format!(
                    "unknown translation note kind {k}"
                )))
            }
        };
        let phase = r.get_u64("note phase")? as usize;
        let offset = r.get_u64("note offset")? as usize;
        let batches_done = r.get_u64("note batches")? as usize;
        let n = r.get_u32("note id count")? as usize;
        let mut ids = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            let old = RecordId(r.get_u64("note old id")?);
            ids.push((old, RecordId(r.get_u64("note new id")?)));
        }
        let n = r.get_u32("note group count")? as usize;
        let mut groups = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            let owner = RecordId(r.get_u64("note group owner")?);
            let arity = r.get_u32("note group arity")? as usize;
            let mut key = Vec::with_capacity(arity.min(r.remaining()));
            for _ in 0..arity {
                key.push(r.get_value("note group key")?);
            }
            groups.push((
                (owner, KeyTuple(key)),
                RecordId(r.get_u64("note group id")?),
            ));
        }
        Ok(Note {
            complete,
            phase,
            offset,
            batches_done,
            ids,
            groups,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::translate;
    use dbpc_datamodel::network::{FieldDef, RecordTypeDef, SetDef};
    use dbpc_datamodel::types::FieldType;
    use dbpc_datamodel::value::Value;
    use dbpc_dml::expr::CmpOp;
    use dbpc_storage::disk::DiskFault;
    use dbpc_storage::{StatCatalog, TempDir};
    use proptest::prelude::*;

    fn company_schema() -> dbpc_datamodel::network::NetworkSchema {
        dbpc_datamodel::network::NetworkSchema::new("COMPANY-NAME")
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
                    FieldDef::new("DEPT-NAME", FieldType::Char(5)),
                    FieldDef::new("AGE", FieldType::Int(2)),
                ],
            ))
            .with_set(SetDef::system("ALL-DIV", "DIV", vec!["DIV-NAME"]))
            .with_set(SetDef::owned("DIV-EMP", "DIV", "EMP", vec!["EMP-NAME"]))
    }

    fn company_db(emps: usize) -> NetworkDb {
        let mut db = NetworkDb::new(company_schema()).unwrap();
        let mach = db
            .store(
                "DIV",
                &[
                    ("DIV-NAME", Value::str("MACHINERY")),
                    ("DIV-LOC", Value::str("DETROIT")),
                ],
                &[],
            )
            .unwrap();
        for i in 0..emps {
            db.store(
                "EMP",
                &[
                    ("EMP-NAME", Value::str(format!("EMP-{i:05}"))),
                    ("DEPT-NAME", Value::str(format!("D{}", i % 3))),
                    ("AGE", Value::Int(20 + (i as i64 % 40))),
                ],
                &[("DIV-EMP", mach)],
            )
            .unwrap();
        }
        db
    }

    fn promote() -> Transform {
        Transform::PromoteFieldToOwner {
            record: "EMP".into(),
            field: "DEPT-NAME".into(),
            via_set: "DIV-EMP".into(),
            new_record: "DEPT".into(),
            upper_set: "DIV-DEPT".into(),
            lower_set: "DEPT-EMP".into(),
        }
    }

    fn opts(batch: usize) -> DurableTranslationOptions {
        DurableTranslationOptions {
            batch,
            page_size: 256,
            faults: None,
        }
    }

    /// Kill at every boundary, recover with a fresh handle each time (a
    /// new process in miniature): the recovered completion equals the
    /// one-shot translation, engine and statistics fingerprints both.
    #[test]
    fn crash_at_every_boundary_recovers_byte_identical() {
        let src = company_db(20);
        let t = promote();
        let oneshot = translate(&src, &t).unwrap();
        let mut k = 0usize;
        loop {
            let tmp = TempDir::new("durable-xlate").unwrap();
            let fired = matches!(
                translate_durable(&src, &t, tmp.path(), &opts(3), &mut |b| b == k).unwrap(),
                DurableOutcome::Crashed { .. }
            );
            if !fired {
                break;
            }
            // "Restart": same root, no crash plan.
            let DurableOutcome::Complete {
                out,
                batches_replayed,
            } = translate_durable(&src, &t, tmp.path(), &opts(3), &mut |_| false).unwrap()
            else {
                panic!("recovery crashed at k = {k}");
            };
            assert_eq!(batches_replayed, k + 1, "k = {k}");
            assert_eq!(out.engine().fingerprint(), oneshot.fingerprint(), "k = {k}");
            assert_eq!(
                StatCatalog::of_network(out.engine()).fingerprint(),
                StatCatalog::of_network(&oneshot).fingerprint(),
                "k = {k}"
            );
            out.engine().check_access_structures().unwrap();
            k += 1;
        }
        assert!(k > 2, "expected several boundaries, saw {k}");
    }

    /// A completed journal short-circuits: reopening replays to the
    /// completion note without re-translating.
    #[test]
    fn completed_journal_replays_to_the_same_output() {
        let src = company_db(12);
        let t = promote();
        let tmp = TempDir::new("durable-done").unwrap();
        let DurableOutcome::Complete { out: first, .. } =
            translate_durable(&src, &t, tmp.path(), &opts(4), &mut |_| false).unwrap()
        else {
            panic!("first run crashed");
        };
        let DurableOutcome::Complete {
            out: second,
            batches_replayed,
        } = translate_durable(&src, &t, tmp.path(), &opts(4), &mut |_| false).unwrap()
        else {
            panic!("reopen crashed");
        };
        assert!(batches_replayed > 0);
        assert_eq!(first.engine().fingerprint(), second.engine().fingerprint());
    }

    /// Erase-plan (`DeleteWhere`) journals start from an imported copy of
    /// the source and still recover byte-identically.
    #[test]
    fn delete_where_recovers_by_cursor_replay() {
        let src = company_db(15);
        let t = Transform::DeleteWhere {
            record: "EMP".into(),
            field: "AGE".into(),
            op: CmpOp::Gt,
            value: Value::Int(30),
        };
        let oneshot = translate(&src, &t).unwrap();
        let tmp = TempDir::new("durable-erase").unwrap();
        let crashed = translate_durable(&src, &t, tmp.path(), &opts(2), &mut |b| b == 1).unwrap();
        assert!(matches!(crashed, DurableOutcome::Crashed { .. }));
        let DurableOutcome::Complete { out, .. } =
            translate_durable(&src, &t, tmp.path(), &opts(2), &mut |_| false).unwrap()
        else {
            panic!("recovery crashed");
        };
        assert_eq!(out.engine().fingerprint(), oneshot.fingerprint());
    }

    /// A journal written against different source data refuses to resume.
    #[test]
    fn journal_rejects_mismatched_source() {
        let src = company_db(10);
        let t = promote();
        let tmp = TempDir::new("durable-mismatch").unwrap();
        let _ = translate_durable(&src, &t, tmp.path(), &opts(2), &mut |b| b == 0).unwrap();
        let other = company_db(9);
        assert!(translate_durable(&other, &t, tmp.path(), &opts(2), &mut |_| false).is_err());
    }

    /// An injected torn write fails the running translation; reopening
    /// cleanses the torn tail and recovery completes from the last
    /// durable boundary.
    #[test]
    fn torn_journal_write_recovers_from_last_durable_batch() {
        let src = company_db(20);
        let t = promote();
        let oneshot = translate(&src, &t).unwrap();
        let tmp = TempDir::new("durable-torn").unwrap();
        // Find a write op index that actually fires mid-run, then tear it.
        let mut failed_at = None;
        for op in 1..60 {
            let tmp = TempDir::new("durable-torn-probe").unwrap();
            let faulty = DurableTranslationOptions {
                faults: Some(DiskFaultPlan::default().with_fault_at(op, DiskFault::TornWrite)),
                ..opts(3)
            };
            if translate_durable(&src, &t, tmp.path(), &faulty, &mut |_| false).is_err() {
                failed_at = Some(op);
                break;
            }
        }
        let op = failed_at.expect("no journal write to tear in 60 ops");
        let faulty = DurableTranslationOptions {
            faults: Some(DiskFaultPlan::default().with_fault_at(op, DiskFault::TornWrite)),
            ..opts(3)
        };
        let Err(err) = translate_durable(&src, &t, tmp.path(), &faulty, &mut |_| false) else {
            panic!("torn write at op {op} did not fail the run");
        };
        assert!(
            !matches!(err, DiskError::Engine(_)),
            "injected fault surfaced as an engine error: {err}"
        );
        let DurableOutcome::Complete { out, .. } =
            translate_durable(&src, &t, tmp.path(), &opts(3), &mut |_| false).unwrap()
        else {
            panic!("recovery after torn write crashed");
        };
        assert_eq!(out.engine().fingerprint(), oneshot.fingerprint());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The note decoder on arbitrary bytes — random kinds, truncated
        /// notes, garbage counts — returns a note or `Corrupt`, never a
        /// panic.
        #[test]
        fn note_decoder_is_ok_or_corrupt(
            kind in 0u8..4,
            body in prop::collection::vec(any::<u8>(), 0..96),
        ) {
            let mut bytes = vec![kind];
            bytes.extend_from_slice(&body);
            match Note::decode(&bytes) {
                Ok(_) | Err(DiskError::Corrupt(_)) => {}
                Err(e) => prop_assert!(false, "note decode failed outside Corrupt: {e}"),
            }
        }
    }
}
