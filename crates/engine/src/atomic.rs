//! The atomic-run boundary every executor shares.
//!
//! Every program run — host, DBTG, DL/I or SEQUEL — executes inside a
//! savepoint that commits only when the program completes. A typed error,
//! fuel exhaustion, or a panic (re-raised after cleanup) rolls the store
//! back to its pre-run state: the property the supervision ladder's retry
//! budget depends on, since a retry must see the base the first attempt
//! saw. The run's access-path counters reach the trace on success and the
//! ambient obs sheet on every exit.

use crate::error::RunResult;
use crate::trace::Trace;
use dbpc_storage::{AccessProfile, HierDb, NetworkDb, RelationalDb, Savepoint};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// The store hooks an atomic run needs. Layers over a store (emulation)
/// must forward the savepoint hooks to it, so that a failed run leaves
/// the base bitwise-unchanged.
pub trait AtomicStore {
    /// Snapshot of the layer's access-path counters, if it keeps any.
    fn access_profile(&self) -> Option<AccessProfile> {
        None
    }

    /// Zero the layer's access-path counters before a run.
    fn reset_access_stats(&mut self) {}

    /// Open a savepoint on the underlying store.
    fn begin_savepoint(&mut self) -> Savepoint;
    /// Undo everything since `sp` (and close it).
    fn rollback_to(&mut self, sp: Savepoint);
    /// Keep everything since `sp` (and close it).
    fn commit_savepoint(&mut self, sp: Savepoint);
}

/// Run `run` on `db` atomically inside a span named `span`.
pub(crate) fn run_atomic<D: AtomicStore>(
    span: &str,
    db: &mut D,
    run: impl FnOnce(&mut D) -> RunResult<Trace>,
) -> RunResult<Trace> {
    dbpc_obs::span(span, || {
        db.reset_access_stats();
        let sp = db.begin_savepoint();
        let outcome = catch_unwind(AssertUnwindSafe(|| run(&mut *db)));
        // Observability is append-only: the counters are absorbed before
        // a rollback undoes the data.
        let absorb = |db: &D| db.access_profile().unwrap_or_default().absorb_into_obs();
        match outcome {
            Ok(Ok(mut trace)) => {
                db.commit_savepoint(sp);
                trace.access = db.access_profile().unwrap_or_default();
                trace.access.absorb_into_obs();
                Ok(trace)
            }
            Ok(Err(e)) => {
                absorb(db);
                db.rollback_to(sp);
                Err(e)
            }
            Err(payload) => {
                absorb(db);
                db.rollback_to(sp);
                resume_unwind(payload)
            }
        }
    })
}

// The three stores share one set of inherent method names.
macro_rules! atomic_store {
    ($($store:ty),*) => {$(
        impl AtomicStore for $store {
            fn access_profile(&self) -> Option<AccessProfile> {
                Some(self.access_stats().snapshot())
            }

            fn reset_access_stats(&mut self) {
                self.access_stats().reset();
            }

            fn begin_savepoint(&mut self) -> Savepoint {
                <$store>::begin_savepoint(self)
            }

            fn rollback_to(&mut self, sp: Savepoint) {
                <$store>::rollback_to(self, sp);
            }

            fn commit_savepoint(&mut self, sp: Savepoint) {
                <$store>::commit(self, sp);
            }
        }
    )*};
}

atomic_store!(NetworkDb, RelationalDb, HierDb);
