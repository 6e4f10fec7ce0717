//! # dbpc-convert
//!
//! The paper's primary contribution, realized: the **database program
//! conversion framework** of Figure 4.1.
//!
//! ```text
//!  database descriptions ──▶ CONVERSION ANALYZER ─┐
//!  application program ───▶ PROGRAM ANALYZER ─────┤   (dbpc-analyzer)
//!                                                 ▼
//!                           PROGRAM CONVERTER  (rules)
//!                                                 ▼
//!                           OPTIMIZER          (optimizer)
//!                                                 ▼
//!                           PROGRAM GENERATOR  (generator)
//!
//!        all under the PROGRAM CONVERSION SUPERVISOR (supervisor),
//!        interacting with a Conversion Analyst (the Analyst trait)
//! ```
//!
//! * [`mapping`] — the Conversion Analyzer: applies the declared
//!   transformation sequence once, step by step, and keeps the schema
//!   before each step and the target it produces.
//! * [`rules`] — transformation rules, one family per
//!   [`dbpc_restructure::Transform`]: path splicing for promoted/demoted
//!   records, filter re-homing, SORT insertion for order preservation,
//!   find-or-create compensation for STOREs, compensating deletes when a
//!   characterizing constraint moves from schema to program, and typed
//!   [`report::Question`]s for everything §3.2 says cannot be automated.
//! * [`optimizer`] — §5.4: redundant-SORT elimination, redundant
//!   integrity-check removal (when the target schema declares the
//!   constraint), and dead-retrieval elimination.
//! * [`generator`] — program text emission plus the cross-model lowering of
//!   access sequences into SEQUEL (reproducing §4.1 listing A from
//!   listing B's access patterns).
//! * [`supervisor`] — the conversion program manager: drives the pipeline,
//!   consults the [`report::Analyst`], and assembles a
//!   [`report::ConversionReport`]. Its [`supervisor::fault`] submodule
//!   injects deterministic faults for robustness studies, and
//!   [`supervisor::ladder`] descends the paper's §2 strategy taxonomy
//!   (rewriting → emulation → bridge → manual) when a stage fails.
//! * [`dli_rules`] — Mehl & Wang's DL/I command substitution under
//!   hierarchy reordering (ref 11).
//! * [`equivalence`] — the §1.1 acceptance test (trace equality), the
//!   §5.2 levels of "successful conversion", and the replica pool
//!   ([`equivalence::EnginePool`]) that the service and the E2 study run
//!   verifications on.
//! * [`service`] — the long-running conversion service: sessions submit
//!   jobs against shared, concurrency-managed engine contexts through a
//!   bounded admission queue; update-free verifications overlap under
//!   shared locks while mutating ones serialize per record type.
//! * [`journal`] — the durable job journal backing the service's
//!   crash-safety contract: admitted jobs and published results ride a
//!   checksummed WAL, and a restart replays exactly the incomplete set.

pub mod dli_rules;
pub mod equivalence;
pub mod generator;
pub mod journal;
pub mod mapping;
pub mod optimizer;
pub mod report;
pub mod rules;
pub mod service;
pub mod supervisor;

pub use journal::{
    BoundaryHook, JobJournal, JournalEvent, JournalRecord, JournalScan, RecoveredJob,
};
pub use report::{Analyst, Answer, AutoAnalyst, ConversionReport, Question, Verdict, Warning};
pub use service::{
    ConversionService, CtxId, JobOutcome, RecoveryStats, RetryPolicy, ServiceBuilder,
    ServiceConfig, Session, Ticket,
};
pub use supervisor::fault::{FaultKind, FaultPlan};
pub use supervisor::ladder::{run_ladder, LadderOutcome, Rung, RungFailure, LADDER};
pub use supervisor::Supervisor;
