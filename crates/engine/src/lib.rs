//! # dbpc-engine
//!
//! Execution engines for the four program dialects, plus the **I/O trace**
//! machinery that embodies the paper's operational definition of program
//! equivalence (§1.1):
//!
//! > "except with respect to the database, a restructured program must
//! > preserve the input/output behavior of the original program … the
//! > program must give the same requests and/or messages as before
//! > conversion \[and\] present the same series of reads and writes to
//! > non-database files."
//!
//! Every interpreter therefore produces a [`Trace`] of *observable* events —
//! terminal output and input, non-database file reads and writes, and
//! aborts — while database operations (including any auxiliary storage a
//! strategy such as the bridge's differential file might use) are explicitly
//! **not** traced. Two programs are "equivalent" exactly when their traces
//! are equal under the same scripted [`Inputs`].
//!
//! Interpreters:
//! * [`host_exec`] — host programs with Maryland `FIND` paths over a
//!   [`dbpc_storage::NetworkDb`];
//! * [`dbtg_exec`] — the DBTG currency machine (current of run-unit / record
//!   type / set type, status register, UWA);
//! * [`sequel_exec`] — SEQUEL over a [`dbpc_storage::RelationalDb`];
//! * [`dli_exec`] — DL/I position/parentage machine over a
//!   [`dbpc_storage::HierDb`].
//!
//! All four run a program through one boundary, [`atomic`]: a savepoint
//! that commits only a completed run, with the run's access counters
//! copied onto the trace and into the obs sheet on every exit.

pub mod atomic;
pub mod dbtg_exec;
pub mod dli_exec;
pub mod error;
pub mod host_exec;
pub mod scan;
pub mod sequel_exec;
pub mod trace;

pub use atomic::AtomicStore;
pub use error::{RunError, RunResult};
pub use host_exec::{HostInterpreter, RtVal, DEFAULT_VERIFY_FUEL};
pub use trace::{diff_traces, Inputs, Trace, TraceEvent};
