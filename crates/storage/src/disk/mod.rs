//! # Durable storage substrate
//!
//! The paper's conversion pipeline assumes long-running translation of
//! real databases; everything above this module was pure in-memory and
//! evaporated on process exit. This subsystem adds the classic disk
//! stack — paged files, a pinning buffer pool, and a write-ahead log —
//! and layers the existing undo-journal savepoints on top so that
//! commits survive a `kill -9` and a fresh process recovers a state
//! whose engine and `StatCatalog` fingerprints are byte-identical to the
//! last committed one.
//!
//! Layer map (each layer only speaks to the one below):
//!
//! * [`file`](mod@file) — [`FileMgr`]: fixed-size pages addressed by file
//!   name and block number, numbered physical ops with seeded fault
//!   injection ([`faults`]);
//! * [`log`] — [`LogMgr`]: checksummed WAL records of logical redo, LSNs,
//!   idempotent torn-tail recovery;
//! * [`buffer`] — [`BufferMgr`]: a pool over one file, addressed by page
//!   number: pin/unpin accounting, clock replacement, optional no-steal
//!   growth, and ping-pong addressing through a [`SlotMap`]: two physical
//!   slots per page, reads from the slot holding the checkpointed image
//!   (none for a page the map does not hold), writes only to the other
//!   one;
//! * [`heap`] — [`HeapFile`]: slotted record pages and overflow chains
//!   over one pool, with a RAM free-space map rebuilt by a page scan;
//! * [`durable`] — [`DurableNetworkDb`]: a [`crate::NetworkDb`] whose
//!   outermost savepoint commits are logical redo records in the WAL,
//!   checkpointed by writing the dirty heap pages to their free slots
//!   and persisting the new slot map in a meta blob behind a ping-pong
//!   manifest flip — no pre-image, nothing to roll back;
//! * [`codec`] / [`tempdir`] — byte framing and self-cleaning scratch
//!   directories shared by all of the above.
//!
//! Failures are typed ([`DiskError`]) end to end: recovery code reads
//! bytes a crash may have torn arbitrarily, so nothing in this subsystem
//! panics on bad input.

pub mod buffer;
pub mod codec;
pub mod durable;
pub mod faults;
pub mod file;
pub mod heap;
pub mod log;
pub mod tempdir;

pub use buffer::{
    BufferMgr, FrameId, SlotMap, BUFFER_EVICTIONS, BUFFER_FLUSHES, BUFFER_HITS, BUFFER_PINS,
};
pub use durable::{DurableNetworkDb, DurableOptions, SyncPolicy};
pub use faults::{DiskFault, DiskFaultPlan};
pub use file::{DiskOp, FileMgr, Page, DEFAULT_PAGE_SIZE, DISK_READS, DISK_SYNCS, DISK_WRITES};
pub use heap::{HeapFile, HeapId, HeapStats};
pub use log::{LogMgr, Lsn, WAL_APPENDS, WAL_BYTES, WAL_FLUSHES, WAL_RECOVERED, WAL_TRUNCATIONS};
pub use tempdir::TempDir;

use crate::error::DbError;
use std::fmt;

/// Typed failure from the disk subsystem.
#[derive(Debug, Clone, PartialEq)]
pub enum DiskError {
    /// An OS-level I/O failure.
    Io {
        op: &'static str,
        path: String,
        detail: String,
    },
    /// A page-offset access outside the page.
    Bounds {
        offset: usize,
        len: usize,
        page: usize,
    },
    /// Misuse of the API (wrong page size, empty record, unpinned frame…).
    Config(String),
    /// Every buffer frame is pinned; nothing can be evicted.
    BufferAbort { capacity: usize },
    /// A deterministic injected fault fired (see [`faults`]).
    Injected { fault: DiskFault, op_index: u64 },
    /// On-disk bytes failed validation during recovery.
    Corrupt(String),
    /// The durable engine refused an operation in its current state
    /// (wedged after a failed flush, checkpoint inside a transaction…).
    State(String),
    /// The logical engine under the durable wrapper rejected the op.
    Engine(DbError),
    /// A disk-layer mutex was poisoned by a panicking thread.
    Poisoned,
}

impl fmt::Display for DiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskError::Io { op, path, detail } => {
                write!(f, "io error during {op} on {path}: {detail}")
            }
            DiskError::Bounds { offset, len, page } => {
                write!(
                    f,
                    "page access [{offset}..+{len}] outside page of {page} bytes"
                )
            }
            DiskError::Config(msg) => write!(f, "disk config error: {msg}"),
            DiskError::BufferAbort { capacity } => {
                write!(f, "buffer abort: all {capacity} frames pinned")
            }
            DiskError::Injected { fault, op_index } => {
                write!(f, "injected {fault:?} at disk op {op_index}")
            }
            DiskError::Corrupt(msg) => write!(f, "corrupt on-disk state: {msg}"),
            DiskError::State(msg) => write!(f, "invalid durable-engine state: {msg}"),
            DiskError::Engine(e) => write!(f, "engine error: {e}"),
            DiskError::Poisoned => write!(f, "disk mutex poisoned"),
        }
    }
}

impl std::error::Error for DiskError {}

impl From<codec::CodecError> for DiskError {
    fn from(e: codec::CodecError) -> DiskError {
        DiskError::Corrupt(e.to_string())
    }
}

/// An engine rejection under the durable wrapper.
impl From<DbError> for DiskError {
    fn from(e: DbError) -> DiskError {
        DiskError::Engine(e)
    }
}

impl DiskError {
    /// Whether this failure came from the deterministic fault injector.
    pub fn is_injected(&self) -> bool {
        matches!(self, DiskError::Injected { .. })
    }
}

pub type DiskResult<T> = Result<T, DiskError>;
