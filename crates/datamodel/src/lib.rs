//! # dbpc-datamodel
//!
//! Data-model substrate for the database program conversion framework of the
//! CODASYL Systems Committee's *Database Program Conversion: A Framework for
//! Research* (1979).
//!
//! The paper's framework rests on "a precise description of the data
//! structures, integrity constraints, and permissible operations". This crate
//! provides exactly that description layer for the three 1979-era data models
//! the paper discusses:
//!
//! * the **owner-coupled-set (network/CODASYL)** model — [`network`] — with
//!   `AUTOMATIC`/`MANUAL` insertion and `MANDATORY`/`OPTIONAL` retention
//!   classes, ordered set occurrences, and `VIRTUAL … VIA … USING` fields
//!   exactly as in the paper's Figure 4.3 schema;
//! * the **relational** model — [`relational`] — in the compact
//!   `COURSE(CNO,CNAME,…)` notation of Figure 3.1a;
//! * the **hierarchical (IMS-like)** model — [`hierarchical`] — trees of
//!   segment types, as needed for the Mehl & Wang order-transformation
//!   experiments.
//!
//! On top of the structural description sits the **integrity-constraint
//! catalogue** of the paper's §3.1 ([`constraint`]): existence constraints,
//! Su's defined/characterizing entity dependencies, numeric limits on
//! relationship participation, uniqueness, non-null and domain constraints.
//! The paper's central observation is that current models cannot express
//! these declaratively "to the degree needed", forcing them into program
//! logic; making them first-class here is what lets the converter move them
//! between declarative and procedural form.
//!
//! [`ddl`] provides a parser and pretty-printer for the Figure 4.3 schema
//! language (extended with a `CONSTRAINT SECTION`).

pub mod constraint;
pub mod ddl;
pub mod error;
pub mod hierarchical;
pub mod network;
pub mod relational;
pub mod types;
pub mod value;

pub use constraint::Constraint;
pub use error::{ModelError, ModelResult};
pub use hierarchical::{HierSchema, SegmentDef};
pub use network::{
    FieldDef, Insertion, NetworkSchema, RecordTypeDef, Retention, SetDef, SetOwner, VirtualVia,
};
pub use relational::{ColumnDef, ForeignKey, RelationalSchema, TableDef};
pub use types::FieldType;
pub use value::Value;
