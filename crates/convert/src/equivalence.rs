//! The acceptance test: "runs equivalently" (§1.1) and the levels of
//! successful conversion (§5.2).
//!
//! "The rule is that except with respect to the database, a restructured
//! program must preserve the input/output behavior of the original
//! program." Operationally: run the original program against the source
//! database and the converted program against the translated database,
//! under identical scripted inputs, and compare the observable traces.
//!
//! §5.2 adds that strict I/O equivalence is not the only useful level —
//! after an information-deleting restructuring, "we would probably want a
//! conversion system to convert the 'print all employees' program
//! successfully, though perhaps a warning should be issued". That weaker
//! level is [`EquivalenceLevel::Warned`]: traces differ, but every
//! difference was predicted by a conversion warning.

use crate::report::Warning;
use dbpc_dml::host::Program;
use dbpc_engine::host_exec::{run_host, run_host_with_fuel};
use dbpc_engine::{diff_traces, Inputs, RunError, Trace, DEFAULT_VERIFY_FUEL};
use dbpc_storage::NetworkDb;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// How equivalent the converted program turned out to be.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivalenceLevel {
    /// Trace-identical: the §1.1 strict standard.
    Strict,
    /// Traces differ, but the conversion predicted behavior change
    /// (information deletion, integrity tightening/loosening) — the §5.2
    /// "successful with a warning" level.
    Warned,
    /// Traces differ with no predicting warning: the conversion failed.
    NotEquivalent,
}

/// Outcome of an equivalence check.
#[derive(Debug)]
pub struct EquivalenceResult {
    pub level: EquivalenceLevel,
    pub original_trace: Trace,
    pub converted_trace: Trace,
    /// First divergence, when not strict.
    pub divergence: Option<String>,
}

/// Warnings that legitimately predict observable behavior change.
fn predicts_behavior_change(w: &Warning) -> bool {
    matches!(
        w,
        Warning::InformationDeleted { .. }
            | Warning::IntegrityTightened { .. }
            | Warning::IntegrityLoosened { .. }
    )
}

/// Run both programs and judge equivalence. `source_db` and `target_db` are
/// consumed as working copies (runs may update them).
pub fn check_equivalence(
    mut source_db: NetworkDb,
    original: &Program,
    mut target_db: NetworkDb,
    converted: &Program,
    inputs: &Inputs,
    warnings: &[Warning],
) -> Result<EquivalenceResult, RunError> {
    let original_trace = run_host(&mut source_db, original, inputs.clone())?;
    let converted_trace = run_host(&mut target_db, converted, inputs.clone())?;
    let (level, divergence) = judge_traces(&original_trace, &converted_trace, warnings);
    Ok(EquivalenceResult {
        level,
        original_trace,
        converted_trace,
        divergence,
    })
}

/// The judging rule, the one place a trace is compared with its ground
/// truth: identical traces are [`EquivalenceLevel::Strict`]; divergent
/// traces with a behavior-predicting warning are
/// [`EquivalenceLevel::Warned`]; anything else is
/// [`EquivalenceLevel::NotEquivalent`]. Returns the level and the first
/// divergence, when not strict.
pub(crate) fn judge_traces(
    truth: &Trace,
    trace: &Trace,
    warnings: &[Warning],
) -> (EquivalenceLevel, Option<String>) {
    let divergence = diff_traces(truth, trace);
    let level = match divergence {
        None => EquivalenceLevel::Strict,
        Some(_) if warnings.iter().any(predicts_behavior_change) => EquivalenceLevel::Warned,
        Some(_) => EquivalenceLevel::NotEquivalent,
    };
    (level, divergence)
}

/// A replica pool over one logical database: checkout hands a worker its
/// own `NetworkDb` instance (the type's interior caches are not `Sync`),
/// checkin returns it. Sound because every run is rolled back — replicas
/// never diverge from the base, which debug builds assert by fingerprint.
/// A [`GroundTruth`] keeps one over its source database; the conversion
/// service keeps one per context's translation, and the E2 study one per
/// restructuring's.
pub struct EnginePool {
    inner: Mutex<PoolState>,
    /// Fingerprint of the base; every checkin must still match it.
    base_fp: u64,
    /// Bound on retained spares (the worker count — more can never be
    /// checked out at once).
    cap: usize,
}

struct PoolState {
    base: NetworkDb,
    spares: Vec<NetworkDb>,
}

impl EnginePool {
    /// A pool over `base`, retaining at most `cap` spares (at least one).
    pub fn new(base: NetworkDb, cap: usize) -> EnginePool {
        EnginePool {
            base_fp: base.fingerprint(),
            inner: Mutex::new(PoolState {
                base,
                spares: Vec::new(),
            }),
            cap: cap.max(1),
        }
    }

    /// The base's fingerprint ([`NetworkDb::fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.base_fp
    }

    /// A replica of the base: a retained spare, or a fresh clone.
    pub fn checkout(&self) -> NetworkDb {
        let mut st = self.state();
        st.spares.pop().unwrap_or_else(|| st.base.clone())
    }

    /// Return a replica, which must equal the base again (every run on it
    /// rolled back). Beyond `cap` spares it is dropped. A replica whose
    /// run unwound is never checked in: its caller drops it instead.
    pub fn checkin(&self, db: NetworkDb) {
        debug_assert_eq!(
            db.fingerprint(),
            self.base_fp,
            "engine replica diverged from its base: a verification escaped its savepoint"
        );
        let mut st = self.state();
        if st.spares.len() < self.cap {
            st.spares.push(db);
        }
    }

    /// Every update is a single push or pop, so a guard recovered from a
    /// panicking holder still sees a valid pool.
    fn state(&self) -> MutexGuard<'_, PoolState> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Entries a [`GroundTruth`] memo holds before it is cleared: a power of
/// two above the 10,000 distinct programs of the repository benchmark's
/// `service` workload, so that no workload here ever loses an entry.
pub const GROUND_TRUTH_ENTRIES: usize = 1 << 14;

/// A ground truth: the program's trace, or its run's error.
type Truth = Result<Trace, RunError>;

/// Program hash → the program and its ground truth, filled once.
type Memo = HashMap<u64, (Arc<Program>, Arc<OnceLock<Truth>>)>;

/// The ground truth of one source database under one set of scripted
/// inputs: each original program runs on it once, and every conversion of
/// the program is judged against that trace. The service shares one among
/// the contexts registered over one source; the E2 study keeps one. The
/// memo is keyed by the program's hash, and a hit is confirmed by
/// comparing the stored program, so a collision costs a miss (the newer
/// program takes the entry over), never a wrong trace. It is cleared at
/// [`GROUND_TRUTH_ENTRIES`]; entries handed out live on through their
/// `Arc`. Concurrent lookups of one program wait for a single fill, and a
/// fill that panics leaves its entry empty for the next lookup.
pub struct GroundTruth {
    source: EnginePool,
    inputs: Inputs,
    memo: Mutex<Memo>,
}

impl GroundTruth {
    /// The ground truth of `source`'s base under `inputs`.
    pub fn new(source: EnginePool, inputs: Inputs) -> GroundTruth {
        GroundTruth {
            source,
            inputs,
            memo: Mutex::new(HashMap::new()),
        }
    }

    /// The source database's replica pool.
    pub fn source(&self) -> &EnginePool {
        &self.source
    }

    /// The scripted inputs every run gets.
    pub fn inputs(&self) -> &Inputs {
        &self.inputs
    }

    /// Judge `converted`, run on a replica of `target`, against the ground
    /// truth of `original` (`judge_traces`). Both sides run rolled back
    /// under [`DEFAULT_VERIFY_FUEL`], the §2 ladder's fuel. Returns the
    /// level, or either run's error, and whether the truth was a memo hit.
    /// A miss keeps `original`'s `Arc` as the memo's key, not a copy.
    pub fn judge(
        &self,
        original: &Arc<Program>,
        target: &EnginePool,
        converted: &Program,
        warnings: &[Warning],
    ) -> (Result<EquivalenceLevel, RunError>, bool) {
        self.truth(original, |truth| {
            let truth = truth.as_ref().map_err(RunError::clone)?;
            let trace = run_replica(target, converted, &self.inputs)?;
            Ok(judge_traces(truth, &trace, warnings).0)
        })
    }

    /// Apply `f` to the ground truth of `program`, filling it on a miss;
    /// returns `f`'s result and whether the lookup hit.
    fn truth<T>(&self, program: &Arc<Program>, f: impl FnOnce(&Truth) -> T) -> (T, bool) {
        let mut h = DefaultHasher::new();
        program.hash(&mut h);
        let (slot, mut hit) = self.slot(h.finish(), program);
        // Which caller fills an entry is scheduling, so the run is `quiet`:
        // its spans and counters must not land in that caller's capture.
        let truth = slot.get_or_init(|| {
            hit = false;
            dbpc_obs::quiet(|| run_replica(&self.source, program, &self.inputs))
        });
        (f(truth), hit)
    }

    /// The entry at `key` if it holds `program`, or a new empty one that
    /// replaces whatever was there.
    fn slot(&self, key: u64, program: &Arc<Program>) -> (Arc<OnceLock<Truth>>, bool) {
        // Every update is one insert or clear: a poisoned guard is valid.
        let mut memo = self.memo.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((stored, slot)) = memo.get(&key) {
            if Arc::ptr_eq(stored, program) || stored == program {
                return (Arc::clone(slot), true);
            }
        } else if memo.len() >= GROUND_TRUTH_ENTRIES {
            memo.clear();
        }
        let slot = Arc::<OnceLock<Truth>>::default();
        memo.insert(key, (Arc::clone(program), Arc::clone(&slot)));
        (slot, false)
    }
}

/// Run `program` on a replica of `pool`'s base inside a savepoint that is
/// rolled back, under [`DEFAULT_VERIFY_FUEL`].
fn run_replica(pool: &EnginePool, program: &Program, inputs: &Inputs) -> Result<Trace, RunError> {
    let mut db = dbpc_obs::quiet(|| pool.checkout());
    let sp = db.begin_savepoint();
    let run = run_host_with_fuel(&mut db, program, inputs.clone(), DEFAULT_VERIFY_FUEL);
    db.rollback_to(sp);
    pool.checkin(db);
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::AutoAnalyst;
    use crate::supervisor::Supervisor;
    use dbpc_datamodel::network::{FieldDef, NetworkSchema, RecordTypeDef, SetDef};
    use dbpc_datamodel::types::FieldType;
    use dbpc_datamodel::value::Value;
    use dbpc_dml::expr::{CmpOp, Expr};
    use dbpc_dml::host::{parse_program, Stmt};
    use dbpc_restructure::{Restructuring, Transform};

    fn company_schema() -> NetworkSchema {
        NetworkSchema::new("COMPANY-NAME")
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

    fn company_db() -> NetworkDb {
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
        let aero = db
            .store(
                "DIV",
                &[
                    ("DIV-NAME", Value::str("AEROSPACE")),
                    ("DIV-LOC", Value::str("SEATTLE")),
                ],
                &[],
            )
            .unwrap();
        for (name, dept, age, div) in [
            ("JONES", "SALES", 34, mach),
            ("ADAMS", "SALES", 28, mach),
            ("BAKER", "MFG", 45, mach),
            ("CLARK", "SALES", 52, aero),
            ("DAVIS", "ENG", 31, aero),
        ] {
            db.store(
                "EMP",
                &[
                    ("EMP-NAME", Value::str(name)),
                    ("DEPT-NAME", Value::str(dept)),
                    ("AGE", Value::Int(age)),
                ],
                &[("DIV-EMP", div)],
            )
            .unwrap();
        }
        db
    }

    fn fig_4_4() -> Restructuring {
        Restructuring::single(Transform::PromoteFieldToOwner {
            record: "EMP".into(),
            field: "DEPT-NAME".into(),
            via_set: "DIV-EMP".into(),
            new_record: "DEPT".into(),
            upper_set: "DIV-DEPT".into(),
            lower_set: "DEPT-EMP".into(),
        })
    }

    /// End-to-end Figure 4.2→4.4: the paper's example 1, run for real.
    #[test]
    fn promoted_retrieval_is_strictly_equivalent() {
        let src_db = company_db();
        let r = fig_4_4();
        let tgt_db = r.translate(&src_db).unwrap();
        let p = parse_program(
            "PROGRAM P;
  FIND E := FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 30));
  FOR EACH R IN E DO
    PRINT R.EMP-NAME, R.AGE;
  END FOR;
END PROGRAM;",
        )
        .unwrap();
        let report = Supervisor::new()
            .convert(&company_schema(), &r, &p, &mut AutoAnalyst)
            .unwrap();
        let converted = report.program.unwrap();
        let eq = check_equivalence(
            src_db,
            &p,
            tgt_db,
            &converted,
            &Inputs::new(),
            &report.warnings,
        )
        .unwrap();
        assert_eq!(eq.level, EquivalenceLevel::Strict, "{:?}", eq.divergence);
        assert_eq!(
            eq.original_trace.terminal_lines(),
            vec!["BAKER 45", "CLARK 52", "DAVIS 31", "JONES 34"]
        );
    }

    /// The same with updates: STORE compensation must be behaviorally
    /// invisible.
    #[test]
    fn promoted_store_is_strictly_equivalent() {
        let src_db = company_db();
        let r = fig_4_4();
        let tgt_db = r.translate(&src_db).unwrap();
        let p = parse_program(
            "PROGRAM P;
  FIND D := FIND(DIV: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'MACHINERY'));
  STORE EMP (EMP-NAME := 'NEWMAN', DEPT-NAME := 'SALES', AGE := 21) CONNECT TO DIV-EMP OF D;
  FIND E := FIND(EMP: D, DIV-EMP, EMP(DEPT-NAME = 'SALES'));
  PRINT COUNT(E);
END PROGRAM;",
        )
        .unwrap();
        let report = Supervisor::new()
            .convert(&company_schema(), &r, &p, &mut AutoAnalyst)
            .unwrap();
        assert!(report.succeeded(), "{:?}", report.questions);
        let converted = report.program.unwrap();
        let eq = check_equivalence(
            src_db,
            &p,
            tgt_db,
            &converted,
            &Inputs::new(),
            &report.warnings,
        )
        .unwrap();
        assert_eq!(eq.level, EquivalenceLevel::Strict, "{:?}", eq.divergence);
        assert_eq!(eq.original_trace.terminal_lines(), vec!["3"]);
    }

    /// §5.2: deletion during restructuring downgrades to Warned.
    #[test]
    fn information_deletion_is_warned_level() {
        let src_db = company_db();
        let r = Restructuring::single(Transform::DeleteWhere {
            record: "EMP".into(),
            field: "AGE".into(),
            op: CmpOp::Gt,
            value: Value::Int(50),
        });
        let tgt_db = r.translate(&src_db).unwrap();
        let p = parse_program(
            "PROGRAM P;
  FIND E := FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP);
  PRINT COUNT(E);
END PROGRAM;",
        )
        .unwrap();
        let report = Supervisor::new()
            .convert(&company_schema(), &r, &p, &mut AutoAnalyst)
            .unwrap();
        let converted = report.program.unwrap();
        let eq = check_equivalence(
            src_db,
            &p,
            tgt_db,
            &converted,
            &Inputs::new(),
            &report.warnings,
        )
        .unwrap();
        assert_eq!(eq.level, EquivalenceLevel::Warned);
        assert_eq!(eq.original_trace.terminal_lines(), vec!["5"]);
        assert_eq!(eq.converted_trace.terminal_lines(), vec!["4"]);
    }

    /// A checkout is a replica of the base, whether it is cloned or a
    /// retained spare.
    #[test]
    fn pool_checkout_matches_the_base() {
        let base = company_db();
        let fp = base.fingerprint();
        let pool = EnginePool::new(base, 2);
        let first = pool.checkout();
        assert_eq!(first.fingerprint(), fp);
        pool.checkin(first);
        let spare = pool.checkout();
        assert_eq!(spare.fingerprint(), fp);
        assert!(pool.state().spares.is_empty(), "the spare was handed out");
    }

    /// Checkin retains at most `cap` spares and drops the rest.
    #[test]
    fn pool_keeps_at_most_cap_spares() {
        let pool = EnginePool::new(company_db(), 2);
        let out: Vec<NetworkDb> = (0..4).map(|_| pool.checkout()).collect();
        for (k, db) in out.into_iter().enumerate() {
            pool.checkin(db);
            assert_eq!(pool.state().spares.len(), (k + 1).min(2));
        }
    }

    /// A replica whose change escaped its savepoint is refused at checkin.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "diverged from its base")]
    fn pool_refuses_a_dirty_replica() {
        let pool = EnginePool::new(company_db(), 1);
        let mut db = pool.checkout();
        db.store(
            "DIV",
            &[
                ("DIV-NAME", Value::str("ENERGY")),
                ("DIV-LOC", Value::str("TULSA")),
            ],
            &[],
        )
        .unwrap();
        pool.checkin(db);
    }

    fn ground_truth() -> GroundTruth {
        GroundTruth::new(EnginePool::new(company_db(), 2), Inputs::new())
    }

    /// `PRINT k;`: a distinct one-statement program per `k`.
    fn print_program(k: i64) -> Arc<Program> {
        Arc::new(Program {
            name: "P".into(),
            stmts: vec![Stmt::Print(vec![Expr::lit(k)])],
        })
    }

    fn truth_of(gt: &GroundTruth, p: &Arc<Program>) -> (Result<Trace, RunError>, bool) {
        gt.truth(p, Clone::clone)
    }

    /// Each program is filled once with its own trace, and a second
    /// lookup hits.
    #[test]
    fn ground_truth_keeps_distinct_programs_apart() {
        let gt = ground_truth();
        let (one, two) = (print_program(1), print_program(2));
        let (first, hit) = truth_of(&gt, &one);
        assert!(!hit);
        assert_eq!(first.unwrap().terminal_lines(), vec!["1"]);
        let (second, hit) = truth_of(&gt, &two);
        assert!(!hit);
        assert_eq!(second.unwrap().terminal_lines(), vec!["2"]);
        assert!(truth_of(&gt, &one).1);
        assert!(truth_of(&gt, &two).1);
        assert_eq!(gt.memo.lock().unwrap().len(), 2);
    }

    /// Two programs under one hash key: the stored program is compared on
    /// every lookup, so the second program misses and takes the entry
    /// over instead of reading the first one's trace.
    #[test]
    fn ground_truth_confirms_hits_by_equality() {
        let gt = ground_truth();
        let (one, two) = (print_program(1), print_program(2));
        assert!(!gt.slot(7, &one).1);
        assert!(gt.slot(7, &one).1);
        let (slot, hit) = gt.slot(7, &two);
        assert!(!hit, "a colliding program must not hit");
        assert!(slot.get().is_none(), "and must get an empty entry");
        assert!(gt.slot(7, &two).1);
        assert!(!gt.slot(7, &one).1);
        assert_eq!(gt.memo.lock().unwrap().len(), 1);
    }

    /// More distinct programs than the bound: the memo never holds more
    /// than [`GROUND_TRUTH_ENTRIES`], and starts over once it is full.
    #[test]
    fn ground_truth_memo_is_bounded() {
        let gt = ground_truth();
        let mut most = 0;
        for k in 0..=GROUND_TRUTH_ENTRIES as i64 {
            let (trace, hit) = truth_of(&gt, &print_program(k));
            assert!(trace.is_ok() && !hit);
            most = most.max(gt.memo.lock().unwrap().len());
        }
        assert_eq!(most, GROUND_TRUTH_ENTRIES);
        assert_eq!(
            gt.memo.lock().unwrap().len(),
            1,
            "the full memo was cleared"
        );
    }

    /// Concurrent lookups of one program share its fill: one miss, and
    /// every caller reads the same trace.
    #[test]
    fn concurrent_lookups_share_one_fill() {
        let gt = ground_truth();
        // Long enough that the other lookups arrive during the fill.
        let p = Arc::new(
            parse_program(
                "PROGRAM P;
  LET I := 0;
  WHILE I < 20000 DO
    LET I := I + 1;
  END WHILE;
  PRINT I;
END PROGRAM;",
            )
            .unwrap(),
        );
        let start = std::sync::Barrier::new(4);
        let lookups: Vec<(Result<Trace, RunError>, bool)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        truth_of(&gt, &p)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(lookups.iter().filter(|(_, hit)| !hit).count(), 1);
        for (trace, _) in &lookups {
            assert_eq!(trace.as_ref().unwrap().terminal_lines(), vec!["20000"]);
        }
    }

    /// A deliberately wrong conversion is caught.
    #[test]
    fn wrong_conversion_detected() {
        let src_db = company_db();
        let tgt_db = src_db.clone();
        let p = parse_program(
            "PROGRAM P;
  FIND E := FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 30));
  PRINT COUNT(E);
END PROGRAM;",
        )
        .unwrap();
        let wrong = parse_program(
            "PROGRAM P;
  FIND E := FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 40));
  PRINT COUNT(E);
END PROGRAM;",
        )
        .unwrap();
        let eq = check_equivalence(src_db, &p, tgt_db, &wrong, &Inputs::new(), &[]).unwrap();
        assert_eq!(eq.level, EquivalenceLevel::NotEquivalent);
        assert!(eq.divergence.unwrap().contains("diverge"));
    }
}
