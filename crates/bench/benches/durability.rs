//! Experiment E20 (cost face): what the durable substrate charges.
//!
//! Two prices, both of which the durability layer claims are affordable:
//!
//! - **WAL-on overhead** — the E9/E16 churn workload (one transaction
//!   per round: store a division, hire, age-bump, cascade-erase) run
//!   three ways: plain in-memory `NetworkDb`, `DurableNetworkDb` with
//!   `SyncPolicy::Os` (commit = write to the OS page cache, the E20
//!   crash model: survives `kill -9`, not power loss), and
//!   `DurableNetworkDb` with `SyncPolicy::Data` (fsync per commit, the
//!   power-loss model). Gates: the `Os` leg's time over the in-memory
//!   leg's at most 1.25, and — because the `Data` leg's
//!   several-hundred-percent wall-clock overhead is device physics, not
//!   implementation — an I/O-count proof that the commit path issues
//!   *exactly one* fsync per committed transaction (and the `Os` leg
//!   zero). That pins the overhead to the fsync floor (reported per
//!   commit as `fsync_floor_us_per_commit`); batching below one sync per
//!   commit is the `Os` policy's durability contract, not a `Data` tuning
//!   opportunity.
//! - **Recovery vs retranslate** — a durable translation crashed at its
//!   midpoint batch boundary is finished two ways: recovered by a fresh
//!   `translate_durable` over the same directory (reopening the target
//!   `DurableNetworkDb` replays the committed batches and their cursor
//!   notes, then the remaining batches run), or thrown away and fully
//!   retranslated into a fresh directory. Both must be byte-identical to
//!   the uncrashed run.
//!
//! Each comparison (`Os` vs in-memory, `Data` vs `Os`, recovery vs
//! retranslate) runs its two legs in alternating rounds
//! ([`paired::ratio`]) and reads the median of the per-round ratios. The
//! artifact also records the physical-op counters (`disk.*`, `wal.*`,
//! `buffer.*`) each leg generated, so the I/O budget is inspectable
//! instead of inferred.
//!
//! Invariants asserted on every timed leg (smoke included):
//!
//! - every churn leg lands on the in-memory engine fingerprint, the
//!   `Data` leg issues exactly one device sync per commit and the `Os`
//!   leg none, and reopening an `Os` directory in a fresh handle
//!   recovers the committed state;
//! - every recovered translation equals the uncrashed one, engine and
//!   `StatCatalog` fingerprints both, with the expected replay depth.
//!
//! Smoke mode (`DBPC_BENCH_SMOKE=1`): tiny workload, one timed round,
//! all correctness assertions active, no artifact written.

use std::time::Duration;

use dbpc_bench::artifact;
use dbpc_bench::paired::{self, timed};
use dbpc_corpus::named;
use dbpc_datamodel::value::Value;
use dbpc_obs::json::Json;
use dbpc_obs::metrics::{local_snapshot, MetricsFrame};
use dbpc_restructure::{translate_durable, DurableOutcome, DurableTranslationOptions};
use dbpc_storage::disk::{
    BUFFER_EVICTIONS, BUFFER_FLUSHES, BUFFER_PINS, DISK_READS, DISK_SYNCS, DISK_WRITES,
    WAL_APPENDS, WAL_BYTES, WAL_FLUSHES, WAL_RECOVERED,
};
use dbpc_storage::{DurableNetworkDb, DurableOptions, NetworkDb, StatCatalog, SyncPolicy, TempDir};

/// The E9/E16 churn round against the in-memory engine.
fn churn_mem(db: &mut NetworkDb, round: usize) {
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
        if let Value::Int(a) = db.field_value(id, "AGE").unwrap() {
            db.modify(id, &[("AGE", Value::Int((a + 1) % 80))]).unwrap();
        }
    }
    db.erase(div, true).unwrap();
}

/// The identical round through the durable wrapper.
fn churn_durable(db: &mut DurableNetworkDb, round: usize) {
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
        if let Value::Int(a) = db.engine().field_value(id, "AGE").unwrap() {
            db.modify(id, &[("AGE", Value::Int((a + 1) % 80))]).unwrap();
        }
    }
    db.erase(div, true).unwrap();
}

/// Delta of the named counters between two thread-local snapshots.
fn counter_delta(
    before: &MetricsFrame,
    after: &MetricsFrame,
    names: &[&str],
) -> Vec<(String, u64)> {
    names
        .iter()
        .map(|n| (n.to_string(), after.counter(n) - before.counter(n)))
        .collect()
}

fn io_counters() -> Vec<&'static str> {
    vec![
        DISK_READS,
        DISK_WRITES,
        DISK_SYNCS,
        WAL_APPENDS,
        WAL_FLUSHES,
        WAL_BYTES,
        WAL_RECOVERED,
        BUFFER_PINS,
        BUFFER_EVICTIONS,
        BUFFER_FLUSHES,
    ]
}

/// The counter deltas as one artifact object.
fn counters(counts: &[(String, u64)]) -> Json {
    Json::obj(
        counts
            .iter()
            .map(|(name, v)| (name.as_str(), Json::from(*v))),
    )
}

fn durable_opts(sync: SyncPolicy) -> DurableOptions {
    DurableOptions {
        sync,
        ..DurableOptions::default()
    }
}

/// One churn leg through the durable wrapper under `sync`: a fresh
/// directory, one transaction per round, timed from the first savepoint to
/// the last commit. Returns the time, the leg's I/O counter deltas and the
/// directory, after checking the fingerprint against the in-memory run's
/// and the device syncs against the policy's.
fn durable_leg(
    sync: SyncPolicy,
    rounds: usize,
    want_fp: u64,
) -> (Duration, Vec<(String, u64)>, TempDir) {
    let dir = TempDir::new("bench-durability-churn").unwrap();
    let mut db =
        DurableNetworkDb::open(dir.path(), named::company_schema(), durable_opts(sync)).unwrap();
    let before = local_snapshot();
    let (d, ()) = timed(|| {
        for r in 0..rounds {
            let sp = db.begin_savepoint();
            churn_durable(&mut db, r);
            db.commit(sp).unwrap();
        }
    });
    let io = counter_delta(&before, &local_snapshot(), &io_counters());
    assert_eq!(
        db.fingerprint(),
        want_fp,
        "{sync:?} leg diverged from the in-memory run"
    );
    let syncs = io
        .iter()
        .find(|(n, _)| n == DISK_SYNCS)
        .map_or(0, |(_, v)| *v);
    // The `Data` leg's several-hundred-percent wall-clock overhead is the
    // fsync floor, not write amplification, and this check proves it: the
    // commit path issues *exactly* one device sync per committed
    // transaction (the `Os` leg issues zero — its flushes stop at the
    // page cache). Group-committing below one-sync-per-commit would mean
    // acknowledging commits that a power cut could still lose, which is
    // the `Os` policy's contract, not `Data`'s; anyone who wants the
    // cheaper point on that curve picks the policy, not a looser fsync.
    let want_syncs = match sync {
        SyncPolicy::Data => rounds as u64,
        SyncPolicy::Os => 0,
    };
    assert_eq!(
        syncs, want_syncs,
        "{sync:?} policy: one device sync per Data commit, none for Os"
    );
    (d, io, dir)
}

fn main() {
    let smoke = artifact::smoke();
    let (rounds, pairs, xlate_scale, batch) = if smoke {
        (6usize, 1usize, (4, 3, 8), 3usize)
    } else {
        (48, 15, (8, 4, 48), 16)
    };

    // ---- WAL-on overhead: in-memory vs Os vs Data --------------------------
    // One transaction (savepoint → churn round → commit) per round in every
    // leg, so the in-memory leg pays the same undo-journal bookkeeping and
    // the difference is exactly the durability machinery. Construction and
    // open happen outside the timers in all legs.
    let schema = named::company_schema();
    let mem_run = || {
        let mut db = NetworkDb::new(schema.clone()).unwrap();
        let (d, ()) = timed(|| {
            for r in 0..rounds {
                let sp = db.begin_savepoint();
                churn_mem(&mut db, r);
                db.commit(sp);
            }
        });
        (d, db.fingerprint())
    };
    let mem_fp = mem_run().1;
    let mem_leg = || {
        let (d, fp) = mem_run();
        assert_eq!(fp, mem_fp, "the in-memory churn is deterministic");
        d
    };
    let mut os_io = Vec::new();
    let mut os_leg = || {
        let (d, io, dir) = durable_leg(SyncPolicy::Os, rounds, mem_fp);
        // The durability proof, not just the price: a fresh handle over
        // the leg's directory recovers the exact committed state.
        let reopened =
            DurableNetworkDb::open(dir.path(), schema.clone(), durable_opts(SyncPolicy::Os))
                .unwrap();
        assert_eq!(
            reopened.fingerprint(),
            mem_fp,
            "reopen did not recover the committed state"
        );
        os_io = io;
        d
    };
    let mut data_io = Vec::new();
    let data_leg = || {
        let (d, io, _dir) = durable_leg(SyncPolicy::Data, rounds, mem_fp);
        data_io = io;
        d
    };
    let wal_on = paired::ratio(pairs, &mut os_leg, mem_leg);
    let fsync = paired::ratio(pairs, data_leg, &mut os_leg);
    if !smoke {
        assert!(
            wal_on.ratio <= 1.25,
            "WAL-on (Os) over in-memory {:.3} exceeds the 1.25 gate",
            wal_on.ratio
        );
    }
    let fsync_floor_us_per_commit =
        fsync.a.saturating_sub(fsync.b).as_secs_f64() / rounds.max(1) as f64 * 1e6;

    // ---- Recovery vs retranslate at the midpoint crash ---------------------
    let source = named::company_db(xlate_scale.0, xlate_scale.1, xlate_scale.2);
    let restructuring = named::fig_4_4_restructuring();
    let transform = restructuring.transforms[0].clone();
    let one_shot = restructuring.translate(&source).unwrap();
    let want_fp = one_shot.fingerprint();
    let want_stat = StatCatalog::of_network(&one_shot).fingerprint();
    let opts = DurableTranslationOptions {
        batch,
        ..DurableTranslationOptions::default()
    };
    // Count the boundaries with an uncrashed, untimed durable run.
    let mut boundaries = 0usize;
    {
        let dir = TempDir::new("bench-durability-count").unwrap();
        translate_durable(&source, &transform, dir.path(), &opts, &mut |_| {
            boundaries += 1;
            false
        })
        .unwrap();
    }
    let midpoint = boundaries / 2;

    // Recovery leg: crash a durable translation at the midpoint (sunk
    // cost), then time only the fresh-handle completion over the WAL.
    let mut recover_io = Vec::new();
    let recover_leg = || {
        let dir = TempDir::new("bench-durability-recover").unwrap();
        match translate_durable(&source, &transform, dir.path(), &opts, &mut |b| {
            b == midpoint
        })
        .unwrap()
        {
            DurableOutcome::Crashed { .. } => {}
            DurableOutcome::Complete { .. } => panic!("midpoint crash did not fire"),
        }
        let before = local_snapshot();
        let (d, outcome) =
            timed(|| translate_durable(&source, &transform, dir.path(), &opts, &mut |_| false));
        recover_io = counter_delta(&before, &local_snapshot(), &io_counters());
        let DurableOutcome::Complete {
            out,
            batches_replayed,
        } = outcome.unwrap()
        else {
            unreachable!("recovery leg crashed")
        };
        assert_eq!(batches_replayed, midpoint + 1, "unexpected replay depth");
        assert_eq!(
            out.engine().fingerprint(),
            want_fp,
            "recovered translation drifted"
        );
        assert_eq!(
            StatCatalog::of_network(out.engine()).fingerprint(),
            want_stat,
            "recovered statistics drifted"
        );
        d
    };
    // Retranslate leg: a fresh durable run from scratch, journal and all.
    let retranslate_leg = || {
        let dir = TempDir::new("bench-durability-full").unwrap();
        let (d, outcome) =
            timed(|| translate_durable(&source, &transform, dir.path(), &opts, &mut |_| false));
        match outcome.unwrap() {
            DurableOutcome::Complete { out, .. } => assert_eq!(out.engine().fingerprint(), want_fp),
            DurableOutcome::Crashed { .. } => unreachable!("uncrashed plan crashed"),
        }
        d
    };
    let recovery = paired::ratio(pairs, recover_leg, retranslate_leg);

    // ---- Emit artifact ----------------------------------------------------
    artifact::emit(
        "durability",
        Json::obj([
            (
                "churn",
                Json::obj([
                    ("rounds", rounds.into()),
                    ("wal_os_vs_in_memory", wal_on.json("wal_os", "in_memory")),
                    ("gate_ratio", 1.25.into()),
                    ("wal_fsync_vs_wal_os", fsync.json("wal_fsync", "wal_os")),
                    (
                        "fsync_floor_us_per_commit",
                        fsync_floor_us_per_commit.into(),
                    ),
                    ("gate_one_sync_per_commit", true.into()),
                    ("reopen_recovers_fingerprint", true.into()),
                ]),
            ),
            ("churn_os_io", counters(&os_io)),
            ("churn_data_io", counters(&data_io)),
            (
                "translation",
                Json::obj([
                    ("batch", batch.into()),
                    ("boundaries", boundaries.into()),
                    ("crash_at", midpoint.into()),
                    ("batches_replayed", (midpoint + 1).into()),
                    (
                        "recover_vs_retranslate",
                        recovery.json("recover", "retranslate"),
                    ),
                    ("recovery_identical", true.into()),
                ]),
            ),
            ("recovery_io", counters(&recover_io)),
        ]),
    );
}
