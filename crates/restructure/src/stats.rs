//! Translation-side work counters, recorded through `dbpc-obs`.
//!
//! Same contract as the storage engines' `AccessStats` (PR 1): the
//! counters make the *work done* by a data translation observable —
//! tests and benches assert that translating an N-record database performs
//! O(record types) schema-level work, not O(N) — while staying strictly
//! diagnostic: no translation result or comparison ever depends on them.
//!
//! The counters live in the ambient `dbpc-obs` metric sheet (thread-local,
//! so parallel study harnesses can bracket a unit of work per worker
//! without locks) under the `restructure.*` names below; callers bracket
//! with [`dbpc_obs::local_mark`] and read them by name.

/// Metric name for whole-schema clones. One per translation: the target
/// schema moved into the rebuilt database (or, for `DeleteWhere`, the
/// single database clone that is then erased in place).
pub const SCHEMA_CLONES: &str = "restructure.schema_clones";
/// Metric name for per-record-type translation plans built (field-source
/// resolution, set-connection lookup): O(record types) per translation.
pub const RECORD_TYPE_PREPS: &str = "restructure.record_type_preps";
/// Metric name for records rebuilt through the typed/constrained store
/// path.
pub const RECORDS_STORED: &str = "restructure.records_stored";

pub(crate) fn count_schema_clone() {
    dbpc_obs::count(SCHEMA_CLONES, 1);
}

pub(crate) fn count_type_prep() {
    dbpc_obs::count(RECORD_TYPE_PREPS, 1);
}

/// Batches per-record `records_stored` increments into one ambient-sheet
/// write, flushed on drop. The per-record translation loops are the hottest
/// instrumented path in the workspace (thousands of records per study cell);
/// counting each store individually would dominate the recording premium.
/// Drop-flushing keeps totals exact on every exit: completion, simulated
/// crash, and `?` error returns alike.
pub(crate) struct StoredTally(u64);

impl StoredTally {
    pub(crate) fn new() -> StoredTally {
        StoredTally(0)
    }

    pub(crate) fn bump(&mut self) {
        self.0 += 1;
    }
}

impl Drop for StoredTally {
    fn drop(&mut self) {
        if self.0 > 0 {
            dbpc_obs::count(RECORDS_STORED, self.0);
        }
    }
}
