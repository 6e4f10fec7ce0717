//! # dbpc-analyzer
//!
//! The framework's **Program Analyzer** (Figure 4.1): "uses the source
//! database description and matches candidate language templates against the
//! source application program to produce a representation of the database
//! operations and data access patterns made by the program."
//!
//! * [`patterns`] — Su's model-independent access patterns (§4.1): `Access A
//!   via A`, `Access A via B through (Ai, Bj)`, `Access AB via B`, `Access A
//!   via AB`, assembled into access sequences.
//! * [`extract`] — extraction of access sequences from host programs
//!   (direct, since `FIND` paths carry the structure) and from DBTG
//!   navigation programs (by **language-template matching** over
//!   `FIND ANY` / `FIND NEXT WITHIN` / `IF STATUS` idioms — Nations & Su,
//!   ref 26).
//! * [`apg`] — the **access path graph** (Su & Liu, ref 25): record types
//!   and sets as a graph, with alternate-path enumeration (multiple paths ⇒
//!   an interactive question for the Conversion Analyst).
//! * [`dataflow`] — detection of the §3.2 execution-time-variability
//!   hazards: run-time-variable DML verbs, observable retrieval order,
//!   status-code dependence, process-first-vs-process-all suspicion.
//! * [`integrity`] — detection of §3.1 integrity constraints "enforced
//!   procedurally in the program" (the §5.3 open problem, solved here for
//!   this crate's constraint catalogue).
//! * [`lint`] — the §5.3 programmer's aid: convertibility guidelines
//!   checked against programs before they ever need converting.

pub mod apg;
pub mod dataflow;
pub mod extract;
pub mod integrity;
pub mod lint;
pub mod patterns;

pub use dataflow::{analyze_host, AnalysisReport, Hazard};
pub use patterns::{AccessSequence, AccessStep, DbOperation, Via};
