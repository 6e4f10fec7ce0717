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
//! What crash recovery of a data translation saves over retranslating is
//! measured by `benches/durability.rs` (E20), on the durable path.
//!
//! Invariants asserted on every run:
//!
//! - Rollback restores the pre-savepoint fingerprint exactly; commit's
//!   final state is fingerprint-identical to the journal-idle run.
//! - The E2 verification matrix (which now runs every program on shared
//!   bases under savepoints) still renders, and its profile confirms the
//!   deep-copy path is gone (`db_clones == 0`).
//!
//! Smoke mode (`DBPC_BENCH_SMOKE=1`): tiny workload, one timed iteration,
//! all assertions active, no artifact written — the CI guard.

use std::time::Instant;

use dbpc_bench::artifact;
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

fn timed<R>(iters: usize, mut f: impl FnMut() -> R) -> (u128, R) {
    let mut best = u128::MAX;
    let mut out = None;
    for _ in 0..iters {
        let t = Instant::now();
        let r = f();
        best = best.min(t.elapsed().as_nanos());
        out = Some(r);
    }
    (best, out.unwrap())
}

fn main() {
    let (rounds, iters, db_scale, samples) = if artifact::smoke() {
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

    let (deep_copy_ns, copied_db) = timed(iters, || {
        let mut last = None;
        for r in 0..rounds {
            let mut db = base.clone();
            churn(&mut db, r);
            last = Some(db);
        }
        last.unwrap()
    });
    let mut shared = base.clone();
    let (savepoint_ns, ()) = timed(iters, || {
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
    shared.check_access_structures().unwrap();
    let _ = copied_db;
    let savepoint_vs_copy_pct =
        100.0 * (savepoint_ns as f64 - deep_copy_ns as f64) / deep_copy_ns.max(1) as f64;

    // ---- Pure journal recording premium ------------------------------------
    // The same mutations with the journal idle vs recording-then-committing
    // on one working copy: the raw cost of pushing inverse ops, with no
    // clone or rollback in either leg.
    let (idle_ns, idle_db) = timed(iters, || {
        let mut db = base.clone();
        for r in 0..rounds {
            churn(&mut db, r);
        }
        db
    });
    let (commit_ns, commit_db) = timed(iters, || {
        let mut db = base.clone();
        let sp = db.begin_savepoint();
        for r in 0..rounds {
            churn(&mut db, r);
        }
        db.commit(sp);
        db
    });
    assert_eq!(
        commit_db.fingerprint(),
        idle_db.fingerprint(),
        "commit must land on the journal-idle state"
    );
    let recording_overhead_pct =
        100.0 * (commit_ns as f64 - idle_ns as f64) / idle_ns.max(1) as f64;

    // ---- E2 matrix still renders on the savepoint substrate ----------------
    let (matrix_ns, study) = timed(1, || {
        success_rate_study_config(&StudyConfig::new(samples, 1979))
    });
    assert_eq!(
        study.profile.db_clones, 0,
        "verification must not clone working copies anymore"
    );
    assert!(study.profile.db_shared_runs > 0);

    // ---- Emit artifact ----------------------------------------------------
    artifact::emit(
        "recovery",
        Json::obj([
            ("churn_rounds", Json::from(rounds)),
            (
                "verification",
                Json::obj([
                    ("deep_copy_ns", Json::from(deep_copy_ns)),
                    ("savepoint_ns", savepoint_ns.into()),
                    ("savepoint_vs_copy_pct", savepoint_vs_copy_pct.into()),
                    ("target_pct", 10.0.into()),
                    ("rollback_restores_fingerprint", true.into()),
                ]),
            ),
            (
                "journal",
                Json::obj([
                    ("idle_ns", Json::from(idle_ns)),
                    ("commit_ns", commit_ns.into()),
                    ("recording_overhead_pct", recording_overhead_pct.into()),
                ]),
            ),
            (
                "e2_matrix",
                Json::obj([
                    ("wall_ns", Json::from(matrix_ns)),
                    ("db_clones", 0.into()),
                    ("db_shared_runs", study.profile.db_shared_runs.into()),
                ]),
            ),
        ]),
    );
}
