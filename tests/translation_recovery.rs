//! The crash matrix: a durable data translation killed at *every* batch
//! boundary, then recovered by a second `translate_durable` over the same
//! directory, must be byte-identical to the uncrashed one-shot
//! translation — output database (by engine and statistics fingerprints
//! and derived access structures) *and* translation-work statistics alike
//! — for a spread of transform shapes and at 1, 2, and 8 worker threads.
//!
//! This is the data-translator face of the paper's bridge-program
//! discussion: a long-running translation that dies mid-way must be
//! restartable without re-doing (or double-doing) work, and without the
//! crashed-and-recovered artifact being distinguishable from a clean one.
//! Every cell starts from a fresh directory, and the recovering call
//! holds nothing of the crashed one but what its redo log made durable.

use dbpc::corpus::{named, pool};
use dbpc::datamodel::value::Value;
use dbpc::dml::expr::CmpOp;
use dbpc::obs::{local_mark, Mark};
use dbpc::restructure::stats::{RECORDS_STORED, RECORD_TYPE_PREPS, SCHEMA_CLONES};
use dbpc::restructure::{
    translate_durable, DurableOutcome, DurableTranslationOptions, Restructuring, Transform,
};
use dbpc::storage::disk::DiskResult;
use dbpc::storage::{DurableNetworkDb, NetworkDb, StatCatalog, TempDir};
use std::path::Path;

/// Small enough to put several boundaries inside every phase of the small
/// test database, so crashes land mid-copy, mid-promote, and mid-erase.
const BATCH: usize = 3;

fn opts() -> DurableTranslationOptions {
    DurableTranslationOptions {
        batch: BATCH,
        ..DurableTranslationOptions::default()
    }
}

/// The transform spread: the paper's own Figure 4.2 → 4.4 promotion, its
/// inverse demotion, a plain field rename, and an information-losing
/// delete-where (whose translation erases in place on a copy of the
/// source — the one phase plan that starts from a copy instead of empty).
fn cases() -> Vec<(&'static str, NetworkDb, Transform)> {
    let source = named::company_db(4, 3, 8);
    let promote = named::fig_4_4_restructuring();
    let promoted = promote.translate(&source).unwrap();
    let demote = promote.inverse().unwrap().transforms[0].clone();
    vec![
        ("promote", source.clone(), promote.transforms[0].clone()),
        ("demote", promoted, demote),
        (
            "rename",
            source.clone(),
            Transform::RenameField {
                record: "EMP".into(),
                old: "AGE".into(),
                new: "YEARS".into(),
            },
        ),
        (
            "delete-where",
            source,
            Transform::DeleteWhere {
                record: "EMP".into(),
                field: "AGE".into(),
                op: CmpOp::Gt,
                value: Value::Int(40),
            },
        ),
    ]
}

/// What a translation must reproduce: engine fingerprint, statistics
/// catalog fingerprint, and the work the translator counted.
type Outcome = (u64, u64, [u64; 3]);

/// The translator's work since `mark`: schema clones, record-type plans
/// and records stored.
fn work(mark: &Mark) -> [u64; 3] {
    let delta = mark.delta();
    [SCHEMA_CLONES, RECORD_TYPE_PREPS, RECORDS_STORED].map(|m| delta.counter(m))
}

fn fingerprints(out: &NetworkDb) -> (u64, u64) {
    out.check_access_structures().unwrap();
    (
        out.fingerprint(),
        StatCatalog::of_network(out).fingerprint(),
    )
}

/// One `translate_durable` call — one process lifetime — over `root`,
/// crashing at the boundaries `crash` picks.
fn durable(
    db: &NetworkDb,
    t: &Transform,
    root: &Path,
    crash: &mut dyn FnMut(usize) -> bool,
) -> DiskResult<DurableOutcome> {
    translate_durable(db, t, root, &opts(), crash)
}

fn complete(outcome: DurableOutcome) -> (DurableNetworkDb, usize) {
    match outcome {
        DurableOutcome::Complete {
            out,
            batches_replayed,
        } => (out, batches_replayed),
        DurableOutcome::Crashed { batches_done, .. } => {
            panic!("translation crashed after {batches_done} batches")
        }
    }
}

/// The one-shot reference from `Restructuring::translate`, plus the number
/// of batch boundaries an uncrashed durable run consults (= the crash
/// points to cover). That durable run must itself match the reference.
fn one_shot(db: &NetworkDb, t: &Transform) -> (Outcome, usize) {
    let mark = local_mark();
    let out = Restructuring::single(t.clone()).translate(db).unwrap();
    let profile = work(&mark);
    let (fp, stat) = fingerprints(&out);

    let dir = TempDir::new("xlate-count").unwrap();
    let mut boundaries = 0;
    let mark = local_mark();
    let (durable_out, replayed) = complete(
        durable(db, t, dir.path(), &mut |_| {
            boundaries += 1;
            false
        })
        .unwrap(),
    );
    assert_eq!(replayed, 0, "a fresh directory has nothing to replay");
    assert_eq!(
        (fingerprints(durable_out.engine()), work(&mark)),
        ((fp, stat), profile),
        "uncrashed durable translation differs from the one-shot"
    );
    ((fp, stat, profile), boundaries)
}

/// Crash at boundary `point` in a fresh directory, recover with a second
/// call over it, and return the recovered output plus the work of both
/// calls together.
fn crash_and_recover(db: &NetworkDb, t: &Transform, point: usize) -> Outcome {
    let dir = TempDir::new(&format!("xlate-crash-{point}")).unwrap();
    let mark = local_mark();
    match durable(db, t, dir.path(), &mut |b| b == point).unwrap() {
        // Boundary `point` fires after its batch committed, so the log
        // holds `point + 1` finished batches.
        DurableOutcome::Crashed { batches_done, .. } => {
            assert_eq!(batches_done, point + 1, "batches committed at the crash")
        }
        DurableOutcome::Complete { .. } => panic!("crash at boundary {point} did not fire"),
    }
    let (out, replayed) = complete(durable(db, t, dir.path(), &mut |_| false).unwrap());
    assert_eq!(replayed, point + 1, "recovery replayed the wrong depth");
    let (fp, stat) = fingerprints(out.engine());
    (fp, stat, work(&mark))
}

#[test]
fn resume_is_byte_identical_at_every_crash_point() {
    for (name, db, t) in cases() {
        let (want, boundaries) = one_shot(&db, &t);
        assert!(
            boundaries >= 4,
            "{name}: only {boundaries} boundaries — batch too coarse for a \
             meaningful crash matrix"
        );
        for point in 0..boundaries {
            let (fp, stat, profile) = crash_and_recover(&db, &t, point);
            assert_eq!(fp, want.0, "{name}: output differs after crash at {point}");
            assert_eq!(
                stat, want.1,
                "{name}: statistics differ after crash at {point}"
            );
            assert_eq!(
                profile, want.2,
                "{name}: translation work differs after crash at {point} — \
                 the recovery re-did or skipped work"
            );
        }
    }
}

/// The same matrix fanned out over worker threads: every `(case, crash
/// point)` cell yields the same fingerprints and stats delta at 1, 2, and
/// 8 threads (the stats counters are thread-local, so a worker's delta
/// must be exactly its own run's work).
#[test]
fn crash_matrix_is_thread_count_invariant() {
    // NetworkDb keeps interior index caches (not Sync), so workers rebuild
    // their case from its index; the work units themselves carry only
    // plain data.
    let mut units = Vec::new();
    for (idx, (_, db, t)) in cases().into_iter().enumerate() {
        let (want, boundaries) = one_shot(&db, &t);
        for point in 0..boundaries {
            units.push((idx, point, want));
        }
    }
    assert_eq!(
        units.len(),
        22 + 12 + 12 + 5,
        "promote, demote, rename and delete-where boundaries at batch {BATCH}"
    );
    let run_unit = |&(idx, point, want): &(usize, usize, Outcome)| {
        let (name, db, t) = cases().into_iter().nth(idx).unwrap();
        let got = crash_and_recover(&db, &t, point);
        assert_eq!(got, want, "{name} point {point}: recovery drifted");
        got
    };
    let reference: Vec<Outcome> = units.iter().map(run_unit).collect();
    for threads in [1, 2, 8] {
        let got = pool::parallel_map(&units, threads, |_, unit| run_unit(unit));
        assert_eq!(got, reference, "matrix changed at {threads} threads");
    }
}

/// A stale log must be refused, not silently replayed: recovering a
/// directory against a source whose content changed since the crash is
/// an error, and the directory is left as it was.
#[test]
fn resume_refuses_a_drifted_source() {
    let (_, db, t) = cases().remove(0);
    let dir = TempDir::new("xlate-drift").unwrap();
    let crashed = durable(&db, &t, dir.path(), &mut |b| b == 1).unwrap();
    assert!(matches!(crashed, DurableOutcome::Crashed { .. }));
    let mut drifted = db.clone();
    let doomed = drifted.records_of_type("EMP")[0];
    drifted.erase(doomed, false).unwrap();
    let err = match durable(&drifted, &t, dir.path(), &mut |_| false) {
        Err(err) => err,
        Ok(_) => panic!("a drifted source was accepted"),
    };
    assert!(
        err.to_string().contains("does not match the source"),
        "unexpected error: {err}"
    );
    // The true source still recovers from the untouched log.
    let (out, replayed) = complete(durable(&db, &t, dir.path(), &mut |_| false).unwrap());
    assert_eq!(replayed, 2);
    let (want, _) = one_shot(&db, &t);
    assert_eq!(fingerprints(out.engine()), (want.0, want.1));
}

/// Several crashes in one translation: each recovering call crashes again
/// further on, and the run that finally completes matches the plain
/// `Restructuring::translate` path.
#[test]
fn checkpointed_sequence_matches_plain_translation() {
    let db = named::company_db(4, 3, 8);
    let r = named::fig_4_4_restructuring();
    let plain = r.translate(&db).unwrap();
    let t = &r.transforms[0];
    let dir = TempDir::new("xlate-repeated").unwrap();
    let mut committed = 0;
    for point in [0usize, 3, 7] {
        match durable(&db, t, dir.path(), &mut |b| b == point).unwrap() {
            DurableOutcome::Crashed {
                batches_done,
                batches_replayed,
            } => {
                assert_eq!(batches_replayed, committed, "crash at {point}");
                assert_eq!(batches_done, point + 1, "crash at {point}");
                committed = batches_done;
            }
            DurableOutcome::Complete { .. } => panic!("crash at {point} did not fire"),
        }
    }
    let (recovered, replayed) = complete(durable(&db, t, dir.path(), &mut |_| false).unwrap());
    assert_eq!(replayed, committed, "every committed batch replays");
    assert_eq!(fingerprints(recovered.engine()), fingerprints(&plain));
}

/// Promote crashed-and-recovered, then demote crashed-and-recovered from
/// the recovered promotion, lands on the database the clean round trip
/// produces.
#[test]
fn crashed_round_trip_preserves_content() {
    let db = named::company_db(3, 2, 6);
    let promote = named::fig_4_4_restructuring();
    let inverse = promote.inverse().unwrap();
    let clean_back = inverse.translate(&promote.translate(&db).unwrap()).unwrap();

    let there_dir = TempDir::new("xlate-there").unwrap();
    let back_dir = TempDir::new("xlate-back").unwrap();
    let (promote, demote) = (&promote.transforms[0], &inverse.transforms[0]);
    let crashed = durable(&db, promote, there_dir.path(), &mut |b| b == 2);
    assert!(matches!(crashed.unwrap(), DurableOutcome::Crashed { .. }));
    let (there, _) = complete(durable(&db, promote, there_dir.path(), &mut |_| false).unwrap());
    let crashed = durable(there.engine(), demote, back_dir.path(), &mut |b| b == 1);
    assert!(matches!(crashed.unwrap(), DurableOutcome::Crashed { .. }));
    let (back, _) =
        complete(durable(there.engine(), demote, back_dir.path(), &mut |_| false).unwrap());
    assert_eq!(fingerprints(back.engine()), fingerprints(&clean_back));
}

/// A multi-transform sequence recovers transform by transform: each step
/// is its own durable translation over the previous step's output, its
/// boundary indices start at 0, and a crash at each step's boundary 0
/// still lands on the plain sequence's database.
#[test]
fn multi_transform_sequences_resume_per_transform() {
    let db = named::company_db(3, 2, 6);
    let r = Restructuring::new(vec![
        Transform::RenameField {
            record: "EMP".into(),
            old: "AGE".into(),
            new: "YEARS".into(),
        },
        Transform::RenameRecord {
            old: "DIV".into(),
            new: "BRANCH".into(),
        },
    ]);
    let plain = r.translate(&db).unwrap();
    let dirs: Vec<TempDir> = (0..r.transforms.len())
        .map(|i| TempDir::new(&format!("xlate-step-{i}")).unwrap())
        .collect();
    let mut fired = 0;
    let mut step: Option<DurableNetworkDb> = None;
    for (t, dir) in r.transforms.iter().zip(&dirs) {
        let src = step.as_ref().map_or(&db, |d| d.engine());
        let crashed = durable(src, t, dir.path(), &mut |b| {
            fired += usize::from(b == 0);
            b == 0
        });
        assert!(matches!(crashed.unwrap(), DurableOutcome::Crashed { .. }));
        let (out, replayed) = complete(durable(src, t, dir.path(), &mut |_| false).unwrap());
        assert_eq!(replayed, 1);
        step = Some(out);
    }
    assert_eq!(fired, 2, "each transform consults its own boundary 0");
    let recovered = step.unwrap();
    assert_eq!(fingerprints(recovered.engine()), fingerprints(&plain));
}
