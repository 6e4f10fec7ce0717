//! Translation-side work counters, recorded through `dbpc-obs`.
//!
//! Same contract as the storage engines' `AccessStats` (PR 1): the
//! counters make the *work done* by a data translation observable —
//! tests and benches assert that translating an N-record database performs
//! O(record types) schema-level work, not O(N) — while staying strictly
//! diagnostic: no translation result or comparison ever depends on them.
//!
//! Since PR 5 the counters live in the ambient `dbpc-obs` metric sheet
//! (thread-local, so parallel study harnesses can bracket a unit of work
//! per worker without locks) under the `restructure.*` names; this module
//! keeps [`TranslationProfile`] as a thin typed view over that sheet for
//! existing call sites.

pub use dbpc_obs::MetricsFrame;

/// Metric name for whole-schema clones (see [`TranslationProfile`]).
pub const SCHEMA_CLONES: &str = "restructure.schema_clones";
/// Metric name for per-record-type translation plans built.
pub const RECORD_TYPE_PREPS: &str = "restructure.record_type_preps";
/// Metric name for records rebuilt through the typed store path.
pub const RECORDS_STORED: &str = "restructure.records_stored";

/// Snapshot of this thread's translation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TranslationProfile {
    /// Whole-schema (or whole-database) clones. One per translation: the
    /// target schema moved into the rebuilt database (or, for `DeleteWhere`,
    /// the single database clone that is then erased in place).
    pub schema_clones: u64,
    /// Per-record-type translation plans built (field-source resolution,
    /// set-connection lookup). O(record types) per translation.
    pub record_type_preps: u64,
    /// Records rebuilt through the typed/constrained store path.
    pub records_stored: u64,
}

impl TranslationProfile {
    /// Counter deltas since `earlier`.
    pub fn since(&self, earlier: &TranslationProfile) -> TranslationProfile {
        TranslationProfile {
            schema_clones: self.schema_clones - earlier.schema_clones,
            record_type_preps: self.record_type_preps - earlier.record_type_preps,
            records_stored: self.records_stored - earlier.records_stored,
        }
    }

    /// Read the `restructure.*` counters out of a merged metrics frame.
    pub fn from_frame(frame: &MetricsFrame) -> TranslationProfile {
        TranslationProfile {
            schema_clones: frame.counter(SCHEMA_CLONES),
            record_type_preps: frame.counter(RECORD_TYPE_PREPS),
            records_stored: frame.counter(RECORDS_STORED),
        }
    }
}

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

/// This thread's cumulative counters.
pub fn snapshot() -> TranslationProfile {
    TranslationProfile::from_frame(&dbpc_obs::local_snapshot())
}
