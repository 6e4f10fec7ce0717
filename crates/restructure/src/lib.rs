//! # dbpc-restructure
//!
//! The restructuring substrate: schema transformation operators, the data
//! translator that carries a stored database across a transformation, and
//! cross-model mappings.
//!
//! The paper's problem statement (§1.1) takes as *given* "a new database
//! schema and a definition of a restructuring to some new (logical) form";
//! the Maryland approach (§4.2) treats "a conversion … as a sequence of
//! transformations applied to the source schema" where "these same
//! transformations are also used to translate the database and to convert
//! the DML statements". This crate supplies the first two uses — schema and
//! data — while `dbpc-convert` supplies the third (program conversion),
//! keyed off the very same [`Transform`] values.
//!
//! Operator inverses implement Housel's requirement (ref 12) that "the
//! source database can be reconstructed from the target database by
//! applying some inverse operators" — which is also what the bridge-program
//! baseline needs at run time.

pub mod crossmodel;
pub mod data;
pub mod durable;
pub mod sequence;
pub mod stats;
pub mod transform;

pub use durable::{
    translate_durable, DurableOutcome, DurableTranslationOptions, TRANSLATION_BATCH,
};
pub use sequence::Restructuring;
pub use transform::Transform;
