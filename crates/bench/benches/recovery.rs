//! Experiment E16: cost of the transactional substrate.
//!
//! Two prices are measured, both of which the robustness layer claims
//! are small:
//!
//! - **Verification cost** — the per-program cost of verifying a mutating
//!   program, old way (clone the whole base, run on the copy — the PR 3
//!   baseline) vs new way (savepoint on the shared base, run, rollback).
//!   Target: the savepoint path within 10% of the deep-copy baseline it
//!   replaced.
//! - **Journal recording premium** — the same mutations with the journal
//!   idle vs recording inverse ops under an open savepoint, no clone or
//!   rollback in either leg: the raw cost of the undo log itself.
//!
//! Each price pairs its two legs in alternating rounds
//! ([`paired::ratio`]) and reads the median of the per-round ratios. What
//! crash recovery of a data translation saves over retranslating is
//! measured by `benches/durability.rs` (E20), on the durable path.
//!
//! Invariants asserted on every timed leg:
//!
//! - Rollback restores the pre-savepoint fingerprint exactly; the
//!   journal-idle and the committing legs land on one final state.
//! - The E2 verification matrix (which now runs every program on shared
//!   bases under savepoints) still renders, and its profile confirms that
//!   verification runs on the shared bases (`db_shared_runs > 0`).
//!
//! Smoke mode (`DBPC_BENCH_SMOKE=1`): tiny workload, one timed round, all
//! assertions active, no artifact written — the CI guard.

use dbpc_bench::artifact;
use dbpc_bench::paired::{self, timed};
use dbpc_corpus::harness::{success_rate_study_config, StudyConfig};
use dbpc_corpus::named;
use dbpc_datamodel::value::Value;
use dbpc_obs::json::Json;
use dbpc_storage::NetworkDb;

/// One mutating-program-shaped pass against a large base: store a small
/// division of employees, touch their ages, erase the division again.
/// Mutation volume is deliberately small relative to the base — the E2
/// verification regime, where the old deep-copy path paid for the whole
/// database to run a program that touches a sliver of it.
fn churn(db: &mut NetworkDb, round: usize) {
    let div = db
        .store(
            "DIV",
            &[
                ("DIV-NAME", Value::str(format!("CHURN-{round:04}"))),
                ("DIV-LOC", Value::str("TMP")),
            ],
            &[],
        )
        .unwrap();
    let mut hires = Vec::new();
    for e in 0..8 {
        hires.push(
            db.store(
                "EMP",
                &[
                    ("EMP-NAME", Value::str(format!("CH-{round:04}-{e}"))),
                    ("DEPT-NAME", Value::str(format!("D{}", e % 3))),
                    ("AGE", Value::Int(20 + e as i64)),
                ],
                &[("DIV-EMP", div)],
            )
            .unwrap(),
        );
    }
    for &id in &hires {
        let age = db.field_value(id, "AGE").unwrap();
        if let Value::Int(a) = age {
            db.modify(id, &[("AGE", Value::Int((a + 1) % 80))]).unwrap();
        }
    }
    db.erase(div, true).unwrap();
}

fn main() {
    let (rounds, pairs, db_scale, samples) = if artifact::smoke() {
        (4usize, 1usize, (4, 3, 8), 1usize)
    } else {
        (64, 5, (8, 4, 48), 2)
    };

    // ---- Verification cost: deep copy (PR 3) vs savepoint (now) -----------
    // The old harness cloned the whole base to verify one mutating
    // program; the new one opens a savepoint on the shared base and rolls
    // it back. Both legs run the same per-program workload; the target is
    // the savepoint path within 10% of — in practice, well below — the
    // deep-copy baseline it replaced.
    let base = named::company_db(db_scale.0, db_scale.1, db_scale.2);
    let base_fp = base.fingerprint();
    // The state both journal legs must end in.
    let churned_fp = {
        let mut db = base.clone();
        (0..rounds).for_each(|r| churn(&mut db, r));
        db.fingerprint()
    };

    let deep_copy = || {
        timed(|| {
            for r in 0..rounds {
                churn(&mut base.clone(), r);
            }
        })
        .0
    };
    let mut shared = base.clone();
    let savepoint = || {
        let (d, ()) = timed(|| {
            for r in 0..rounds {
                let sp = shared.begin_savepoint();
                churn(&mut shared, r);
                shared.rollback_to(sp);
            }
        });
        assert_eq!(
            shared.fingerprint(),
            base_fp,
            "every rollback must restore the pre-savepoint state"
        );
        d
    };
    let verification = paired::ratio(pairs, savepoint, deep_copy);
    shared.check_access_structures().unwrap();

    // ---- Pure journal recording premium ------------------------------------
    // The same mutations with the journal idle vs recording-then-committing
    // on one working copy: the raw cost of pushing inverse ops, with no
    // clone or rollback in either leg. Cloning the base is set-up.
    let journal_leg = |record: bool| {
        let base = &base;
        move || {
            let mut db = base.clone();
            let (d, ()) = timed(|| {
                let sp = record.then(|| db.begin_savepoint());
                (0..rounds).for_each(|r| churn(&mut db, r));
                if let Some(sp) = sp {
                    db.commit(sp);
                }
            });
            assert_eq!(
                db.fingerprint(),
                churned_fp,
                "commit must land on the journal-idle state"
            );
            d
        }
    };
    let journal = paired::ratio(pairs, journal_leg(true), journal_leg(false));

    // ---- E2 matrix still renders on the savepoint substrate ----------------
    let (matrix, study) = timed(|| success_rate_study_config(&StudyConfig::new(samples, 1979)));
    assert!(study.profile.db_shared_runs > 0);

    // ---- Emit artifact ----------------------------------------------------
    artifact::emit(
        "recovery",
        Json::obj([
            ("churn_rounds", Json::from(rounds)),
            (
                "verification",
                Json::obj([
                    (
                        "savepoint_vs_deep_copy",
                        verification.json("savepoint", "deep_copy"),
                    ),
                    ("target_ratio", 1.1.into()),
                    ("rollback_restores_fingerprint", true.into()),
                ]),
            ),
            ("journal", journal.json("commit", "idle")),
            (
                "e2_matrix",
                Json::obj([
                    ("wall_ns", Json::from(matrix.as_nanos())),
                    ("db_shared_runs", study.profile.db_shared_runs.into()),
                ]),
            ),
        ]),
    );
}
