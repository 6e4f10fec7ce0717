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
//!   power-loss model). Gates: the `Os` leg within 25% of in-memory,
//!   and — because the `Data` leg's several-hundred-percent wall-clock
//!   overhead is device physics, not implementation — an I/O-count
//!   proof that the commit path issues *exactly one* fsync per
//!   committed transaction (and the `Os` leg zero). That pins the
//!   overhead to the fsync floor (reported per commit as
//!   `fsync_floor_us_per_commit`); batching below one sync per commit
//!   is the `Os` policy's durability contract, not a `Data` tuning
//!   opportunity.
//! - **Recovery vs retranslate** — a durable translation crashed at its
//!   midpoint batch boundary is finished two ways: recovered by a fresh
//!   `translate_durable` over the same directory (reopening the target
//!   `DurableNetworkDb` replays the committed batches and their cursor
//!   notes, then the remaining batches run), or thrown away and fully
//!   retranslated into a fresh directory. Both must be byte-identical to
//!   the uncrashed run.
//!
//! The artifact also records the physical-op counters (`disk.*`,
//! `wal.*`, `buffer.*`) each leg generated, so the I/O budget is
//! inspectable instead of inferred.
//!
//! Invariants asserted on every run (smoke included):
//!
//! - all three churn legs land on the same engine fingerprint, and
//!   reopening the `Os` directory in a fresh handle recovers it;
//! - the recovered translation equals the uncrashed one, engine and
//!   `StatCatalog` fingerprints both, with the expected replay depth.
//!
//! Smoke mode (`DBPC_BENCH_SMOKE=1`): tiny workload, one timed
//! iteration, all correctness assertions active, no artifact written.

use std::time::Instant;

use dbpc_bench::artifact;
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

/// Best-of-`iters` wall time of `f`, which receives the iteration index.
fn timed<R>(iters: usize, mut f: impl FnMut(usize) -> R) -> (u128, R) {
    let mut best = u128::MAX;
    let mut out = None;
    for i in 0..iters {
        let t = Instant::now();
        let r = f(i);
        best = best.min(t.elapsed().as_nanos());
        out = Some(r);
    }
    (best, out.unwrap())
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

fn main() {
    let smoke = artifact::smoke();
    let (rounds, iters, xlate_scale, batch) = if smoke {
        (6usize, 1usize, (4, 3, 8), 3usize)
    } else {
        (48, 15, (8, 4, 48), 16)
    };

    // ---- WAL-on overhead: in-memory vs Os vs Data --------------------------
    // One transaction (savepoint → churn round → commit) per round in every
    // leg, so the in-memory leg pays the same undo-journal bookkeeping and
    // the difference is exactly the durability machinery. The three legs
    // are interleaved inside one iteration loop — paired measurement — so
    // host load drift hits them equally instead of skewing whichever leg
    // happened to run under the heavier moment; each leg reports its best
    // iteration. Construction/open happens outside the timers in all legs.
    let schema = named::company_schema();
    let mut mem_ns = u128::MAX;
    let mut mem_fp = 0u64;
    let mut os_ns = u128::MAX;
    let mut os_kept: Option<(TempDir, u64)> = None;
    let mut os_io = Vec::new();
    let mut data_ns = u128::MAX;
    let mut data_io = Vec::new();
    let mut data_fp = 0u64;
    for _ in 0..iters {
        let mut db = NetworkDb::new(schema.clone()).unwrap();
        let t = Instant::now();
        for r in 0..rounds {
            let sp = db.begin_savepoint();
            churn_mem(&mut db, r);
            db.commit(sp);
        }
        mem_ns = mem_ns.min(t.elapsed().as_nanos());
        mem_fp = db.fingerprint();

        let dir = TempDir::new("bench-durability-os").unwrap();
        let mut db =
            DurableNetworkDb::open(dir.path(), schema.clone(), durable_opts(SyncPolicy::Os))
                .unwrap();
        let before = local_snapshot();
        let t = Instant::now();
        for r in 0..rounds {
            let sp = db.begin_savepoint();
            churn_durable(&mut db, r);
            db.commit(sp).unwrap();
        }
        let ns = t.elapsed().as_nanos();
        os_io = counter_delta(&before, &local_snapshot(), &io_counters());
        if ns < os_ns {
            os_ns = ns;
            os_kept = Some((dir, db.fingerprint()));
        }

        let dir = TempDir::new("bench-durability-data").unwrap();
        let mut db =
            DurableNetworkDb::open(dir.path(), schema.clone(), durable_opts(SyncPolicy::Data))
                .unwrap();
        let before = local_snapshot();
        let t = Instant::now();
        for r in 0..rounds {
            let sp = db.begin_savepoint();
            churn_durable(&mut db, r);
            db.commit(sp).unwrap();
        }
        data_ns = data_ns.min(t.elapsed().as_nanos());
        data_io = counter_delta(&before, &local_snapshot(), &io_counters());
        data_fp = db.fingerprint();
    }
    let (os_dir, os_fp) = os_kept.unwrap();

    assert_eq!(os_fp, mem_fp, "Os leg diverged from the in-memory run");
    assert_eq!(data_fp, mem_fp, "Data leg diverged from the in-memory run");
    // The durability proof, not just the price: a fresh handle over the
    // Os leg's directory recovers the exact committed state.
    let reopened =
        DurableNetworkDb::open(os_dir.path(), schema.clone(), durable_opts(SyncPolicy::Os))
            .unwrap();
    assert_eq!(
        reopened.fingerprint(),
        mem_fp,
        "reopen did not recover the committed state"
    );
    drop(reopened);

    let wal_on_overhead_pct = 100.0 * (os_ns as f64 - mem_ns as f64) / mem_ns.max(1) as f64;
    let fsync_overhead_pct = 100.0 * (data_ns as f64 - mem_ns as f64) / mem_ns.max(1) as f64;
    if !smoke {
        assert!(
            wal_on_overhead_pct <= 25.0,
            "WAL-on (Os) overhead {wal_on_overhead_pct:.1}% exceeds the 25% gate"
        );
    }
    // The `Data` leg's several-hundred-percent wall-clock overhead is the
    // fsync floor, not write amplification, and this gate proves it: the
    // commit path issues *exactly* one device sync per committed
    // transaction (the `Os` leg issues zero — its flushes stop at the
    // page cache). Group-committing below one-sync-per-commit would mean
    // acknowledging commits that a power cut could still lose, which is
    // the `Os` policy's contract, not `Data`'s; anyone who wants the
    // cheaper point on that curve picks the policy, not a looser fsync.
    let data_syncs = data_io
        .iter()
        .find(|(n, _)| n == DISK_SYNCS)
        .map_or(0, |(_, v)| *v);
    let os_syncs = os_io
        .iter()
        .find(|(n, _)| n == DISK_SYNCS)
        .map_or(0, |(_, v)| *v);
    assert_eq!(
        data_syncs, rounds as u64,
        "Data policy must fsync exactly once per commit (the floor, no amplification)"
    );
    assert_eq!(os_syncs, 0, "Os policy must never reach the device");
    let fsync_floor_us_per_commit =
        (data_ns.saturating_sub(os_ns)) as f64 / rounds.max(1) as f64 / 1e3;

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
    let mut recover_ns = u128::MAX;
    let mut recover_io = Vec::new();
    let mut replayed = 0usize;
    for _ in 0..iters {
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
        let t = Instant::now();
        let out = match translate_durable(&source, &transform, dir.path(), &opts, &mut |_| false)
            .unwrap()
        {
            DurableOutcome::Complete {
                out,
                batches_replayed,
            } => {
                replayed = batches_replayed;
                out
            }
            DurableOutcome::Crashed { .. } => unreachable!("recovery leg crashed"),
        };
        recover_ns = recover_ns.min(t.elapsed().as_nanos());
        recover_io = counter_delta(&before, &local_snapshot(), &io_counters());
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
    }
    assert_eq!(replayed, midpoint + 1, "unexpected replay depth");

    // Retranslate leg: a fresh durable run from scratch, journal and all.
    let (retranslate_ns, retranslated_fp) = timed(iters, |_| {
        let dir = TempDir::new("bench-durability-full").unwrap();
        match translate_durable(&source, &transform, dir.path(), &opts, &mut |_| false).unwrap() {
            DurableOutcome::Complete { out, .. } => out.engine().fingerprint(),
            DurableOutcome::Crashed { .. } => unreachable!("uncrashed plan crashed"),
        }
    });
    assert_eq!(retranslated_fp, want_fp);
    let recovery_vs_retranslate = recover_ns as f64 / retranslate_ns.max(1) as f64;

    // ---- Emit artifact ----------------------------------------------------
    artifact::emit(
        "durability",
        Json::obj([
            (
                "churn",
                Json::obj([
                    ("rounds", rounds.into()),
                    ("in_memory_ns", mem_ns.into()),
                    ("wal_os_ns", os_ns.into()),
                    ("wal_fsync_ns", data_ns.into()),
                    ("wal_on_overhead_pct", wal_on_overhead_pct.into()),
                    ("gate_pct", 25.0.into()),
                    ("fsync_overhead_pct", fsync_overhead_pct.into()),
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
                    ("batches_replayed", replayed.into()),
                    ("recover_ns", recover_ns.into()),
                    ("retranslate_ns", retranslate_ns.into()),
                    ("recovery_vs_retranslate", recovery_vs_retranslate.into()),
                    ("recovery_identical", true.into()),
                ]),
            ),
            ("recovery_io", counters(&recover_io)),
        ]),
    );
}
