//! Experiment E20: restart-across-process crash recovery.
//!
//! `tests/translation_recovery.rs` recovers a crashed translation inside
//! the process that crashed it. This matrix removes that comfort: a
//! child process (`src/bin/durability_crash.rs`) is killed
//! for real (`exit(9)`, no unwinding, no destructors) at every commit
//! boundary of a churn workload and at every WAL batch boundary of a
//! mid-flight translation, and a *fresh* process must recover engine and
//! `StatCatalog` fingerprints byte-identical to the committed prefix —
//! including when the crash itself was a torn write, a short write, or a
//! failed fsync planted by the deterministic disk-fault injector. Every
//! cell is also fanned over 1, 2, and 8 worker threads, which must not
//! change a single fingerprint.

use dbpc::corpus::named;
use dbpc::datamodel::value::Value;
use dbpc::obs::metrics::{local_snapshot, MetricsRegistry};
use dbpc::obs::RunReport;
use dbpc::restructure::{translate_durable, DurableTranslationOptions};
use dbpc::storage::{pool, DurableNetworkDb, DurableOptions, StatCatalog, SyncPolicy, TempDir};
use std::path::Path;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_durability_crash");
const EXIT_FAULT: i32 = 3;
const EXIT_KILLED: i32 = 9;

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawning {BIN} {args:?}: {e}"))
}

/// Run the harness expecting a clean exit; parse its
/// `<engine-fp> <stat-fp> <n>` report line.
fn run_ok(args: &[&str]) -> (u64, u64, u64) {
    let out = run(args);
    assert!(
        out.status.success(),
        "{args:?} failed ({:?}): {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let line = String::from_utf8_lossy(&out.stdout);
    let mut parts = line.split_whitespace();
    let mut next = |radix| {
        u64::from_str_radix(
            parts.next().unwrap_or_else(|| panic!("bad report: {line}")),
            radix,
        )
        .unwrap_or_else(|e| panic!("bad report {line}: {e}"))
    };
    (next(16), next(16), next(10))
}

/// Run the harness expecting it to die with `code`.
fn run_dies(args: &[&str], code: i32) {
    let out = run(args);
    assert_eq!(
        out.status.code(),
        Some(code),
        "{args:?} exited {:?}, wanted {code}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
}

fn path_str(p: &Path) -> &str {
    p.to_str().unwrap()
}

/// Kill the engine child after every single commit of a churn workload;
/// a fresh process must recover exactly the state an in-memory replay of
/// that committed prefix produces — engine and statistics fingerprints
/// both. The whole matrix fans over 1, 2, and 8 threads without any
/// fingerprint moving.
#[test]
fn engine_killed_at_every_commit_recovers_the_committed_prefix() {
    const OPS: usize = 12;
    let cells: Vec<usize> = (1..=OPS).collect();
    let run_cell = |&kill: &usize| {
        let dir = TempDir::new(&format!("e20-engine-{kill}")).unwrap();
        let root = path_str(dir.path());
        run_dies(
            &["engine", root, &OPS.to_string(), &kill.to_string()],
            EXIT_KILLED,
        );
        let recovered = run_ok(&["probe", root]);
        let expected = run_ok(&["expect", &kill.to_string()]);
        assert_eq!(
            (recovered.0, recovered.1),
            (expected.0, expected.1),
            "kill after commit {kill}: recovered state drifted from the committed prefix"
        );
        (recovered.0, recovered.1)
    };
    let reference: Vec<(u64, u64)> = cells.iter().map(run_cell).collect();
    for threads in [1, 2, 8] {
        let got = pool::parallel_map(&cells, threads, |_, cell| run_cell(cell));
        assert_eq!(got, reference, "matrix changed at {threads} threads");
    }

    // The uncrashed child agrees with the full in-memory replay, and a
    // second probe of its directory is a no-op (idempotent recovery).
    let dir = TempDir::new("e20-engine-clean").unwrap();
    let root = path_str(dir.path());
    let clean = run_ok(&["engine", root, &OPS.to_string(), "none"]);
    let expected = run_ok(&["expect", &OPS.to_string()]);
    assert_eq!((clean.0, clean.1), (expected.0, expected.1));
    let probe1 = run_ok(&["probe", root]);
    let probe2 = run_ok(&["probe", root]);
    assert_eq!((probe1.0, probe1.1), (clean.0, clean.1));
    assert_eq!(probe1, probe2, "second recovery differed from the first");
}

/// Reference fingerprints for the translation matrix: the uncrashed
/// in-process translation of the corpus company database under the
/// paper's Figure 4.2 → 4.4 promotion, plus the number of WAL batch
/// boundaries a batch-3 run consults (= the kill points to cover).
fn translation_reference() -> (u64, u64, usize) {
    let src = named::company_db(4, 3, 8);
    let restructuring = named::fig_4_4_restructuring();
    let out = restructuring.translate(&src).unwrap();
    out.check_access_structures().unwrap();
    let dir = TempDir::new("e20-xlate-count").unwrap();
    let opts = DurableTranslationOptions {
        batch: 3,
        ..DurableTranslationOptions::default()
    };
    let mut boundaries = 0usize;
    translate_durable(
        &src,
        &restructuring.transforms[0],
        dir.path(),
        &opts,
        &mut |_| {
            boundaries += 1;
            false
        },
    )
    .unwrap();
    (
        out.fingerprint(),
        StatCatalog::of_network(&out).fingerprint(),
        boundaries,
    )
}

/// Kill the translation child at every WAL batch boundary; a fresh
/// process over the same directory must replay exactly the batches that
/// were durable at the kill and finish byte-identical to the uncrashed
/// translation. Fanned over 1, 2, and 8 threads.
#[test]
fn translation_killed_at_every_wal_boundary_recovers_byte_identical() {
    let (want_fp, want_stat, boundaries) = translation_reference();
    assert!(
        boundaries >= 6,
        "only {boundaries} boundaries — batch too coarse"
    );

    let cells: Vec<usize> = (0..boundaries).collect();
    let run_cell = |&kill: &usize| {
        let dir = TempDir::new(&format!("e20-xlate-{kill}")).unwrap();
        let root = path_str(dir.path());
        run_dies(&["translate", root, &kill.to_string()], EXIT_KILLED);
        let (fp, stat, replayed) = run_ok(&["translate", root, "none"]);
        assert_eq!(
            fp, want_fp,
            "kill at boundary {kill}: output fingerprint drifted"
        );
        assert_eq!(
            stat, want_stat,
            "kill at boundary {kill}: statistics drifted"
        );
        // Boundary `kill` fires after its batch was journaled, so the
        // fresh process must find exactly `kill + 1` batches durable.
        assert_eq!(
            replayed as usize,
            kill + 1,
            "kill at boundary {kill}: wrong replay depth"
        );
        (fp, stat, replayed)
    };
    let reference: Vec<(u64, u64, u64)> = cells.iter().map(run_cell).collect();
    for threads in [1, 2, 8] {
        let got = pool::parallel_map(&cells, threads, |_, cell| run_cell(cell));
        assert_eq!(got, reference, "matrix changed at {threads} threads");
    }

    // Unkilled child on a fresh directory: nothing to replay, same bytes.
    let dir = TempDir::new("e20-xlate-clean").unwrap();
    let (fp, stat, replayed) = run_ok(&["translate", path_str(dir.path()), "none"]);
    assert_eq!((fp, stat, replayed), (want_fp, want_stat, 0));
}

/// Crash the heap-backed engine *inside* its checkpoints: with 256-byte
/// pages and a 4-frame pool, a positional torn write, short write, or
/// failed fsync lands on heap page writes to free slots, the heap sync,
/// WAL rolls, meta blobs, and manifest flips. Wherever the fault fires the child dies
/// with no cleanup after printing how many commits it had acknowledged;
/// a fault-free probe must recover exactly that committed prefix —
/// engine and statistics fingerprints both — and the whole matrix must
/// not move across 1, 2, and 8 worker threads.
#[test]
fn heap_checkpoint_faults_recover_the_acknowledged_prefix() {
    const OPS: usize = 16;
    // Committed-prefix reference fingerprints, indexed by commit count.
    let expect: Vec<(u64, u64)> = (0..=OPS)
        .map(|k| {
            let (fp, stat, _) = run_ok(&["expect", &k.to_string()]);
            (fp, stat)
        })
        .collect();
    let cells: Vec<(String, u64)> = ["torn", "short", "fsync"]
        .iter()
        .flat_map(|kind| (1..60).step_by(4).map(move |op| (kind.to_string(), op)))
        .collect();
    let run_cell = |(kind, op): &(String, u64)| {
        let spec = format!("{kind}:{op}");
        let dir = TempDir::new(&format!("e20-ckpt-{kind}-{op}")).unwrap();
        let root = path_str(dir.path());
        let out = run(&["ckpt", root, &OPS.to_string(), &spec]);
        match out.status.code() {
            // The fault fired mid-I/O and the child died with no cleanup.
            // Recovery must land on a committed prefix — never a torn or
            // invented state. A failed fsync corrupts no bytes (and a heap
            // page is only ever written to a slot the checkpointed
            // generation does not use), so
            // those cells must recover *exactly* the acknowledged
            // prefix; a torn/short write may additionally have damaged
            // acknowledged WAL records sharing the tail page, so there
            // the bar is prefix integrity, not prefix completeness.
            Some(EXIT_FAULT) => {
                let acked: usize = String::from_utf8_lossy(&out.stdout)
                    .trim()
                    .parse()
                    .unwrap_or_else(|e| panic!("{spec}: bad acked count: {e}"));
                let (fp, stat, _) = run_ok(&["probe", root, "small"]);
                if kind == "fsync" {
                    assert_eq!(
                        (fp, stat),
                        expect[acked],
                        "{spec}: recovery drifted from the {acked}-commit prefix"
                    );
                } else {
                    // One commit was in flight when the write tore; its
                    // outcome is legitimately unknown (fully logged →
                    // replayed, truncated → dropped), so the prefix may
                    // extend one past the acknowledged count.
                    assert!(
                        expect[..=(acked + 1).min(OPS)].contains(&(fp, stat)),
                        "{spec}: recovered state is not a committed prefix \
                         (acked {acked})"
                    );
                }
                (fp, stat, true)
            }
            // Inert cell: the fault index was never reached — the run
            // must already be byte-identical to the in-memory replay.
            Some(0) => {
                let line = String::from_utf8_lossy(&out.stdout);
                let fp = u64::from_str_radix(line.split_whitespace().next().unwrap(), 16).unwrap();
                assert_eq!(fp, expect[OPS].0, "{spec}: inert fault changed the outcome");
                (fp, expect[OPS].1, false)
            }
            code => panic!(
                "{spec}: unexpected exit {code:?}: {}",
                String::from_utf8_lossy(&out.stderr)
            ),
        }
    };
    let reference: Vec<(u64, u64, bool)> = cells.iter().map(run_cell).collect();
    let fired = reference.iter().filter(|r| r.2).count();
    assert!(
        fired >= 6,
        "only {fired} checkpoint-fault cells fired — matrix too sparse"
    );
    for threads in [1, 2, 8] {
        let got = pool::parallel_map(&cells, threads, |_, cell| run_cell(cell));
        assert_eq!(got, reference, "ckpt matrix changed at {threads} threads");
    }
}

/// The durable substrate's physical counters flow through the ambient
/// observability layer: a `RunReport` assembled from the thread-local
/// metrics delta of one durable session reports the WAL, disk, and
/// buffer-pool work that session did.
#[test]
fn durable_io_counters_flow_into_run_reports() {
    let dir = TempDir::new("e20-obs-report").unwrap();
    let opts = DurableOptions {
        page_size: 256,
        sync: SyncPolicy::Os,
        ..DurableOptions::default()
    };
    let before = local_snapshot();

    let mut db = DurableNetworkDb::open(dir.path(), named::company_schema(), opts.clone()).unwrap();
    let sp = db.begin_savepoint();
    let div = db
        .store(
            "DIV",
            &[
                ("DIV-NAME", Value::str("OBS")),
                ("DIV-LOC", Value::str("IO")),
            ],
            &[],
        )
        .unwrap();
    db.store(
        "EMP",
        &[
            ("EMP-NAME", Value::str("PROBE")),
            ("DEPT-NAME", Value::str("D0")),
            ("AGE", Value::Int(30)),
        ],
        &[("DIV-EMP", div)],
    )
    .unwrap();
    db.commit(sp).unwrap();
    // Checkpoint + reopen drive the snapshot path through the buffer pool
    // and the recovery scan through the log manager.
    db.checkpoint(b"obs").unwrap();
    drop(db);
    let db = DurableNetworkDb::open(dir.path(), named::company_schema(), opts).unwrap();
    assert_eq!(db.engine().record_count(), 2);
    drop(db);

    let mut registry = MetricsRegistry::new();
    registry.absorb(&local_snapshot().since(&before));
    let report = RunReport::assemble("durable-io", vec![], registry);
    for name in [
        "wal.appends",
        "wal.flushes",
        "disk.writes",
        "disk.reads",
        "buffer.pins",
    ] {
        assert!(
            report.metrics.counter(name) > 0,
            "counter {name} missing from the assembled run report"
        );
    }
}

/// The crash need not be a clean kill: plant each fault kind — torn
/// write, short write, failed fsync — at a spread of physical op
/// indices. Wherever the fault fires the child dies mid-write; recovery
/// without the fault must still complete byte-identical to the
/// uncrashed translation. Inert indices (fault aimed at an op that
/// never happens or of the wrong kind) must leave the run unaffected.
#[test]
fn translation_survives_torn_short_and_fsync_faults() {
    let (want_fp, want_stat, _) = translation_reference();
    for kind in ["torn", "short", "fsync"] {
        let mut fired = 0usize;
        for op in (1..40).step_by(3) {
            let dir = TempDir::new(&format!("e20-fault-{kind}-{op}")).unwrap();
            let root = path_str(dir.path());
            let spec = format!("{kind}:{op}");
            let out = run(&["translate", root, "none", &spec]);
            match out.status.code() {
                // The fault fired and surfaced mid-run; a fresh fault-free
                // process must recover and complete exactly.
                Some(EXIT_FAULT) => {
                    fired += 1;
                    let (fp, stat, _) = run_ok(&["translate", root, "none"]);
                    assert_eq!(fp, want_fp, "{spec}: recovery after fault drifted");
                    assert_eq!(stat, want_stat, "{spec}: statistics drifted after fault");
                }
                // Inert cell: the uninjured run must already be exact.
                Some(0) => {
                    let line = String::from_utf8_lossy(&out.stdout);
                    let fp =
                        u64::from_str_radix(line.split_whitespace().next().unwrap(), 16).unwrap();
                    assert_eq!(fp, want_fp, "{spec}: inert fault changed the output");
                }
                code => panic!(
                    "{spec}: unexpected exit {code:?}: {}",
                    String::from_utf8_lossy(&out.stderr)
                ),
            }
        }
        assert!(
            fired >= 2,
            "{kind}: only {fired} probed indices fired — matrix too sparse"
        );
    }
}
