//! Cross-process crash harness for the E20 recovery matrix.
//!
//! `tests/durable_recovery.rs` spawns this binary to die for real —
//! `std::process::exit(9)` at a chosen commit or WAL batch boundary, no
//! unwinding, no destructors — and then spawns it again over the same
//! directory to check that a *fresh process* recovers a state whose
//! engine and `StatCatalog` fingerprints are byte-identical to the
//! committed prefix. Modes:
//!
//! * `engine <root> <ops> <kill_after|none>` — drive a deterministic
//!   churn workload through [`DurableNetworkDb`] (one commit per op),
//!   exiting with code 9 right after commit `kill_after`;
//! * `ckpt <root> <ops> <torn|short|fsync:<op>>` — same churn with a
//!   positional disk fault armed on the engine's file manager and tiny
//!   pages, so the sweep crosses every heap page-flush and checkpoint
//!   boundary; on fault the acknowledged-commit count is printed and
//!   the process exits 3 without cleanup;
//! * `probe <root> [small]` — open the directory and print what
//!   recovered (`small` matches the `ckpt` writer's 256-byte pages);
//! * `expect <ops>` — replay the same churn prefix on a plain in-memory
//!   [`NetworkDb`] and print the fingerprints recovery must hit;
//! * `translate <root> <kill_at|none> [torn|short|fsync:<op>]` — run
//!   [`translate_durable`] over the corpus company database, exiting 9
//!   at WAL boundary `kill_at`; with a fault spec, exit 3 if the
//!   injected disk fault surfaced instead.
//!
//! Every success path prints one line, `<engine-fp> <stat-fp> <n>`
//! (hex, hex, decimal), where `n` is the generation (engine modes) or
//! the number of WAL batches replayed (translate mode).

use dbpc::corpus::named;
use dbpc::datamodel::value::Value;
use dbpc::restructure::{translate_durable, DurableOutcome, DurableTranslationOptions};
use dbpc::storage::disk::{DiskFault, DiskFaultPlan};
use dbpc::storage::{
    DurableNetworkDb, DurableOptions, NetworkDb, RecordId, StatCatalog, SyncPolicy,
};
use std::path::Path;
use std::process::exit;

/// Exit code for "an injected disk fault surfaced as an error".
const EXIT_FAULT: i32 = 3;
/// Exit code for the deliberate mid-commit kill.
const EXIT_KILLED: i32 = 9;

/// The two databases the churn plan must drive identically.
trait Mutator {
    fn store(
        &mut self,
        rtype: &str,
        values: &[(&str, Value)],
        connects: &[(&str, RecordId)],
    ) -> RecordId;
    fn modify(&mut self, id: RecordId, assigns: &[(&str, Value)]);
    fn erase(&mut self, id: RecordId, cascade: bool);
    fn age_of(&self, id: RecordId) -> i64;
    /// Durable side only: roll the WAL into a snapshot generation.
    fn checkpoint(&mut self) {}
}

impl Mutator for NetworkDb {
    fn store(
        &mut self,
        rtype: &str,
        values: &[(&str, Value)],
        connects: &[(&str, RecordId)],
    ) -> RecordId {
        NetworkDb::store(self, rtype, values, connects).unwrap()
    }
    fn modify(&mut self, id: RecordId, assigns: &[(&str, Value)]) {
        NetworkDb::modify(self, id, assigns).unwrap();
    }
    fn erase(&mut self, id: RecordId, cascade: bool) {
        NetworkDb::erase(self, id, cascade).unwrap();
    }
    fn age_of(&self, id: RecordId) -> i64 {
        match self.field_value(id, "AGE").unwrap() {
            Value::Int(a) => a,
            other => panic!("AGE is not an int: {other:?}"),
        }
    }
}

impl Mutator for DurableNetworkDb {
    fn store(
        &mut self,
        rtype: &str,
        values: &[(&str, Value)],
        connects: &[(&str, RecordId)],
    ) -> RecordId {
        DurableNetworkDb::store(self, rtype, values, connects).unwrap()
    }
    fn modify(&mut self, id: RecordId, assigns: &[(&str, Value)]) {
        DurableNetworkDb::modify(self, id, assigns).unwrap();
    }
    fn erase(&mut self, id: RecordId, cascade: bool) {
        DurableNetworkDb::erase(self, id, cascade).unwrap();
    }
    fn age_of(&self, id: RecordId) -> i64 {
        match self.engine().field_value(id, "AGE").unwrap() {
            Value::Int(a) => a,
            other => panic!("AGE is not an int: {other:?}"),
        }
    }
    fn checkpoint(&mut self) {
        DurableNetworkDb::checkpoint(self, b"e20").unwrap();
    }
}

/// Apply churn ops `0..ops` — each op is exactly one commit. After op
/// `i`, `after_commit(i + 1)` may kill the process; a surviving process
/// checkpoints every seventh commit so kills land on both sides of a
/// snapshot roll. The op mix (store division / hire / age bump / cascade
/// erase) is a pure function of the index and the surviving record ids,
/// so the in-memory and durable legs stay in lockstep.
fn churn_ops(db: &mut dyn Mutator, ops: usize, after_commit: &mut dyn FnMut(usize)) {
    let mut divs: Vec<(RecordId, Vec<RecordId>)> = Vec::new();
    for i in 0..ops {
        if divs.is_empty() || i % 5 == 0 {
            let div = db.store(
                "DIV",
                &[
                    ("DIV-NAME", Value::str(format!("CHURN-{i:04}"))),
                    ("DIV-LOC", Value::str("TMP")),
                ],
                &[],
            );
            divs.push((div, Vec::new()));
        } else if i % 5 == 4 && divs.len() > 2 {
            let (div, _) = divs.remove(0);
            db.erase(div, true);
        } else {
            let (div, emps) = divs.last_mut().unwrap();
            if i % 3 == 0 && !emps.is_empty() {
                let emp = emps[i % emps.len()];
                let age = db.age_of(emp);
                db.modify(emp, &[("AGE", Value::Int((age + 1) % 80))]);
            } else {
                let emp = db.store(
                    "EMP",
                    &[
                        ("EMP-NAME", Value::str(format!("CH-{i:04}"))),
                        ("DEPT-NAME", Value::str(format!("D{}", i % 3))),
                        ("AGE", Value::Int(20 + (i as i64 % 40))),
                    ],
                    &[("DIV-EMP", *div)],
                );
                emps.push(emp);
            }
        }
        after_commit(i + 1);
        if (i + 1) % 7 == 0 {
            db.checkpoint();
        }
    }
}

fn durable_opts() -> DurableOptions {
    DurableOptions {
        // The crash model is process death, not power loss: no fsync.
        sync: SyncPolicy::Os,
        ..DurableOptions::default()
    }
}

/// A durable engine whose churn stops dead — report-and-exit, no
/// cleanup — the moment an injected disk fault surfaces. Ops the engine
/// acknowledged before the fault are printed so the parent knows which
/// committed prefix recovery must reproduce.
struct FaultingDb {
    db: DurableNetworkDb,
    acked: usize,
}

fn bail_faulted(acked: usize) -> ! {
    println!("{acked}");
    exit(EXIT_FAULT);
}

impl Mutator for FaultingDb {
    fn store(
        &mut self,
        rtype: &str,
        values: &[(&str, Value)],
        connects: &[(&str, RecordId)],
    ) -> RecordId {
        match DurableNetworkDb::store(&mut self.db, rtype, values, connects) {
            Ok(id) => {
                self.acked += 1;
                id
            }
            Err(_) => bail_faulted(self.acked),
        }
    }
    fn modify(&mut self, id: RecordId, assigns: &[(&str, Value)]) {
        match DurableNetworkDb::modify(&mut self.db, id, assigns) {
            Ok(()) => self.acked += 1,
            Err(_) => bail_faulted(self.acked),
        }
    }
    fn erase(&mut self, id: RecordId, cascade: bool) {
        match DurableNetworkDb::erase(&mut self.db, id, cascade) {
            Ok(_) => self.acked += 1,
            Err(_) => bail_faulted(self.acked),
        }
    }
    fn age_of(&self, id: RecordId) -> i64 {
        match self.db.engine().field_value(id, "AGE").unwrap() {
            Value::Int(a) => a,
            other => panic!("AGE is not an int: {other:?}"),
        }
    }
    fn checkpoint(&mut self) {
        // A checkpoint crash is the interesting cell: heap page writes
        // to free slots, heap sync, WAL roll, meta blob, and manifest
        // flip boundaries all live inside this call now that records
        // are heap-resident.
        if DurableNetworkDb::checkpoint(&mut self.db, b"e20").is_err() {
            bail_faulted(self.acked);
        }
    }
}

/// `ckpt` mode: churn with a positional disk fault armed on the
/// engine's own file manager. Tiny pages and a tiny pool maximise the
/// number of per-page physical ops a checkpoint performs, so the fault
/// index sweep lands on every page-flush and checkpoint boundary. If
/// the fault never fires the run must finish byte-identical to a
/// fault-free one (inert cell, exit 0).
fn run_engine_fault(root: &Path, ops: usize, plan: DiskFaultPlan) {
    let opts = DurableOptions {
        page_size: 256,
        buffers: 4,
        faults: Some(plan),
        ..durable_opts()
    };
    let db = match DurableNetworkDb::open(root, named::company_schema(), opts) {
        Ok(db) => db,
        // Fault during open/recovery: nothing was ever acknowledged.
        Err(_) => bail_faulted(0),
    };
    let mut f = FaultingDb { db, acked: 0 };
    churn_ops(&mut f, ops, &mut |_| {});
    print_state(
        f.db.fingerprint(),
        f.db.stat_fingerprint(),
        f.db.generation(),
    );
}

fn print_state(fp: u64, stat: u64, n: u64) {
    println!("{fp:016x} {stat:016x} {n}");
}

fn run_engine(root: &Path, ops: usize, kill_after: Option<usize>) {
    let mut db = DurableNetworkDb::open(root, named::company_schema(), durable_opts()).unwrap();
    churn_ops(&mut db, ops, &mut |committed| {
        if Some(committed) == kill_after {
            // Die for real: no drop glue, no final flush.
            exit(EXIT_KILLED);
        }
    });
    print_state(db.fingerprint(), db.stat_fingerprint(), db.generation());
}

fn run_probe(root: &Path, small: bool) {
    let opts = if small {
        // Match the `ckpt` writer's geometry: page size is a property
        // of the on-disk files, not a per-open choice.
        DurableOptions {
            page_size: 256,
            buffers: 4,
            ..durable_opts()
        }
    } else {
        durable_opts()
    };
    let db = DurableNetworkDb::open(root, named::company_schema(), opts).unwrap();
    print_state(db.fingerprint(), db.stat_fingerprint(), db.generation());
}

fn run_expect(ops: usize) {
    let mut db = NetworkDb::new(named::company_schema()).unwrap();
    churn_ops(&mut db, ops, &mut |_| {});
    print_state(
        db.fingerprint(),
        StatCatalog::of_network(&db).fingerprint(),
        0,
    );
}

fn parse_fault(spec: &str) -> DiskFaultPlan {
    let (kind, at) = spec.split_once(':').unwrap_or_else(|| usage());
    let fault = match kind {
        "torn" => DiskFault::TornWrite,
        "short" => DiskFault::ShortWrite,
        "fsync" => DiskFault::FsyncFail,
        _ => usage(),
    };
    let at: u64 = at.parse().unwrap_or_else(|_| usage());
    DiskFaultPlan::default().with_fault_at(at, fault)
}

fn run_translate(root: &Path, kill_at: Option<usize>, fault: Option<DiskFaultPlan>) {
    let src = named::company_db(4, 3, 8);
    let transform = named::fig_4_4_restructuring().transforms[0].clone();
    let opts = DurableTranslationOptions {
        batch: 3,
        page_size: 256,
        faults: fault,
    };
    let outcome = translate_durable(&src, &transform, root, &opts, &mut |b| {
        if Some(b) == kill_at {
            exit(EXIT_KILLED);
        }
        false
    });
    match outcome {
        Ok(DurableOutcome::Complete {
            out,
            batches_replayed,
        }) => print_state(
            out.engine().fingerprint(),
            StatCatalog::of_network(out.engine()).fingerprint(),
            batches_replayed as u64,
        ),
        Ok(DurableOutcome::Crashed { .. }) => unreachable!("kill closure never returns true"),
        // An injected disk fault surfacing as an error *is* the crash
        // under test; tell the parent it fired.
        Err(e) => {
            eprintln!("translate failed: {e}");
            exit(EXIT_FAULT);
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: durability_crash engine <root> <ops> <kill_after|none>\n\
         \x20      durability_crash ckpt <root> <ops> <torn|short|fsync:<op>>\n\
         \x20      durability_crash probe <root> [small]\n\
         \x20      durability_crash expect <ops>\n\
         \x20      durability_crash translate <root> <kill_at|none> [torn|short|fsync:<op>]"
    );
    exit(2)
}

fn parse_kill(arg: &str) -> Option<usize> {
    if arg == "none" {
        None
    } else {
        Some(arg.parse().unwrap_or_else(|_| usage()))
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("engine") if args.len() == 5 => {
            let ops = args[3].parse().unwrap_or_else(|_| usage());
            run_engine(Path::new(&args[2]), ops, parse_kill(&args[4]));
        }
        Some("ckpt") if args.len() == 5 => {
            let ops = args[3].parse().unwrap_or_else(|_| usage());
            run_engine_fault(Path::new(&args[2]), ops, parse_fault(&args[4]));
        }
        Some("probe") if args.len() == 3 || args.len() == 4 => {
            run_probe(
                Path::new(&args[2]),
                args.get(3).map(String::as_str) == Some("small"),
            );
        }
        Some("expect") if args.len() == 3 => {
            run_expect(args[2].parse().unwrap_or_else(|_| usage()));
        }
        Some("translate") if args.len() == 4 || args.len() == 5 => {
            let fault = args.get(4).map(|s| parse_fault(s));
            run_translate(Path::new(&args[2]), parse_kill(&args[3]), fault);
        }
        _ => usage(),
    }
}
