//! Memoized program analysis.
//!
//! The study corpus (dbpc-corpus) re-analyzes the *same* generated program
//! once per restructuring class — the program seed depends only on
//! `(study seed, sample, program class)`, so each program is converted
//! against every transform row. Analysis ([`analyze_host`]) walks the whole
//! program each time; this module memoizes it keyed by a hash of the
//! program and of the schema it is analyzed against.
//!
//! The cache map is **process-wide**: a report is a deterministic function
//! of its `(schema, program)` key, so which worker computes an entry first
//! can never change what any other worker reads back — sharing is safe for
//! determinism, and it keeps short-lived pool workers warm across study
//! runs. The lock brackets only the lookup or insert, never an analysis.
//! Hit/miss **counters** live in the thread-local `dbpc-obs` metric sheet
//! (PR 5; previously private `Cell`s that were never merged across pool
//! workers): harnesses snapshot them around a unit of work on the worker
//! that does the work, and the per-item deltas merge into the study's
//! registry. They are `racy`-kind metrics — the hit/miss *split* depends
//! on cross-worker interleaving — but `hits + misses == lookups` holds at
//! any thread count, and `analyzer.cache_lookups` is a plain deterministic
//! counter.

use crate::dataflow::{analyze_host, AnalysisReport};
use dbpc_datamodel::network::NetworkSchema;
use dbpc_dml::host::Program;
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::hash::{DefaultHasher, Hasher};
use std::sync::{Arc, LazyLock, Mutex, MutexGuard, PoisonError};

/// Metric name for memo-cache hits (racy: split depends on interleaving).
pub const CACHE_HITS: &str = "analyzer.cache_hits";
/// Metric name for memo-cache misses (racy, ditto).
pub const CACHE_MISSES: &str = "analyzer.cache_misses";
/// Metric name for total memo lookups (deterministic: one per call).
pub const CACHE_LOOKUPS: &str = "analyzer.cache_lookups";

/// Cache key: `(schema fingerprint, program fingerprint)`.
type FingerprintKey = (u64, u64);

static CACHE: LazyLock<Mutex<HashMap<FingerprintKey, Arc<AnalysisReport>>>> =
    LazyLock::new(|| Mutex::new(HashMap::new()));

/// `fmt::Write` adapter that streams formatted output straight into a
/// hasher, so fingerprinting never materializes the `Debug` string.
struct HashWriter<'a>(&'a mut DefaultHasher);

impl fmt::Write for HashWriter<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

fn debug_fingerprint(value: &dyn fmt::Debug) -> u64 {
    let mut h = DefaultHasher::new();
    write!(HashWriter(&mut h), "{value:?}").expect("hashing never fails");
    h.finish()
}

/// Stable-within-a-process fingerprint of a program: a structural hash of
/// the AST (the host AST derives `Hash`), an order of magnitude cheaper
/// than formatting it. Collisions across a corpus of a few thousand
/// programs are vanishingly unlikely at 64 bits; a collision would only
/// mis-share an *analysis report*, which the execution-verification step
/// of the study would surface as `verified_wrong`.
pub fn program_fingerprint(program: &Program) -> u64 {
    let mut h = DefaultHasher::new();
    std::hash::Hash::hash(program, &mut h);
    h.finish()
}

/// Fingerprint of the schema side of the key. Schemas are much larger than
/// programs, so batch callers should compute this **once** per batch and
/// use [`analyze_host_memo_keyed`].
pub fn schema_fingerprint(schema: &NetworkSchema) -> u64 {
    debug_fingerprint(schema)
}

/// [`analyze_host`], memoized per `(schema, program)` fingerprint pair.
/// Returns the report behind an `Arc` so a cache hit costs a refcount bump,
/// not a deep clone of every hazard and field list.
pub fn analyze_host_memo(program: &Program, schema: &NetworkSchema) -> Arc<AnalysisReport> {
    analyze_host_memo_keyed(program, schema, schema_fingerprint(schema))
}

/// [`analyze_host_memo`] with the schema fingerprint precomputed by the
/// caller (it must be `schema_fingerprint(schema)` for the same schema).
pub fn analyze_host_memo_keyed(
    program: &Program,
    schema: &NetworkSchema,
    schema_fp: u64,
) -> Arc<AnalysisReport> {
    let key = (schema_fp, program_fingerprint(program));
    dbpc_obs::count(CACHE_LOOKUPS, 1);
    if let Some(report) = lock_cache().get(&key).cloned() {
        dbpc_obs::racy(CACHE_HITS, 1);
        return report;
    }
    dbpc_obs::racy(CACHE_MISSES, 1);
    let report = Arc::new(analyze_host(program, schema));
    lock_cache().insert(key, report.clone());
    report
}

/// Lock the cache map, recovering from poisoning: the guard is never held
/// across analysis (only map reads/writes), so a panicking thread cannot
/// leave the map inconsistent — a poisoned lock just means some thread
/// died elsewhere, and the supervised pipeline keeps running.
fn lock_cache() -> MutexGuard<'static, HashMap<FingerprintKey, Arc<AnalysisReport>>> {
    CACHE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Drop the process-wide cache and zero this thread's counters (test/bench
/// isolation). Concurrent users of the cache only get extra misses from
/// this, never wrong reports.
pub fn reset_cache() {
    lock_cache().clear();
    dbpc_obs::local_remove(CACHE_HITS);
    dbpc_obs::local_remove(CACHE_MISSES);
    dbpc_obs::local_remove(CACHE_LOOKUPS);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpc_datamodel::network::{FieldDef, RecordTypeDef, SetDef};
    use dbpc_datamodel::types::FieldType;
    use dbpc_dml::host::parse_program;

    fn schema() -> NetworkSchema {
        NetworkSchema::new("S")
            .with_record(RecordTypeDef::new(
                "EMP",
                vec![
                    FieldDef::new("EMP-NAME", FieldType::Char(25)),
                    FieldDef::new("AGE", FieldType::Int(2)),
                ],
            ))
            .with_set(SetDef::system("ALL-EMP", "EMP", vec!["EMP-NAME"]))
    }

    fn program(age: i64) -> Program {
        parse_program(&format!(
            "PROGRAM P;
  FIND E := FIND(EMP: SYSTEM, ALL-EMP, EMP(AGE > {age}));
  PRINT COUNT(E);
END PROGRAM;"
        ))
        .unwrap()
    }

    // The cache map is shared process-wide and the test harness runs tests
    // concurrently, so each test below uses (program, schema) keys no other
    // test touches, and none calls `reset_cache` (which would race with a
    // sibling's hit/miss bracketing).

    #[test]
    fn memoized_analysis_matches_direct_analysis() {
        let s = schema();
        let p = program(30);
        let direct = analyze_host(&p, &s);
        let memo = analyze_host_memo(&p, &s);
        assert_eq!(direct.hazards, memo.hazards);
        assert_eq!(direct.field_refs, memo.field_refs);
        assert_eq!(direct.sets_used, memo.sets_used);
        assert_eq!(direct.records_used, memo.records_used);
        assert_eq!(direct.has_updates, memo.has_updates);
    }

    #[test]
    fn repeated_analysis_hits_the_cache() {
        let s = schema();
        let p = program(40);
        let mark = dbpc_obs::local_mark();
        analyze_host_memo(&p, &s);
        analyze_host_memo(&p, &s);
        analyze_host_memo(&p, &s);
        let delta = mark.delta();
        assert_eq!(delta.counter(CACHE_MISSES), 1);
        assert_eq!(delta.counter(CACHE_HITS), 2);
    }

    #[test]
    fn distinct_programs_and_schemas_miss() {
        let s = schema();
        let mark = dbpc_obs::local_mark();
        analyze_host_memo(&program(51), &s);
        analyze_host_memo(&program(52), &s);
        let renamed = NetworkSchema {
            name: "S2".into(),
            ..schema()
        };
        analyze_host_memo(&program(51), &renamed);
        let delta = mark.delta();
        assert_eq!(delta.counter(CACHE_MISSES), 3);
        assert_eq!(delta.counter(CACHE_HITS), 0);
    }
}
