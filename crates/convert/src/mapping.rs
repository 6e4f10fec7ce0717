//! The Conversion Analyzer (Figure 4.1).
//!
//! "The Conversion Analyzer analyzes the source and target databases in
//! order to classify the types of changes that have been made and to encode
//! the descriptions in suitable internal representations."
//!
//! Inputs are the source schema and the declared restructuring (§1.1); the
//! target schema is what the restructuring produces. The analyzer:
//!
//! 1. applies each transform once, failing on the first step the schema
//!    cannot take (catching DBA declaration errors before any program is
//!    touched), and validates the source and target schemas;
//! 2. keeps the schema snapshot *before each transform step* — the
//!    per-step contexts the transformation rules rewrite against.
//!
//! The classification of changes is per transform
//! ([`Restructuring::affects_ordering`], [`Restructuring::affects_integrity`]
//! and the [`Transform`](dbpc_restructure::Transform) variants themselves),
//! which is what the rules read.

use dbpc_datamodel::error::ModelResult;
use dbpc_datamodel::network::NetworkSchema;
use dbpc_restructure::Restructuring;

/// Internal representation produced by the Conversion Analyzer.
#[derive(Debug, Clone)]
pub struct Mapping {
    pub target: NetworkSchema,
    pub restructuring: Restructuring,
    /// `snapshots[i]` is the schema before transform `i`
    /// (`snapshots[0]` is the source); the last one is `target`.
    pub snapshots: Vec<NetworkSchema>,
}

impl Mapping {
    /// Run the Conversion Analyzer on `source` and the declared
    /// restructuring.
    pub fn from_restructuring(
        source: &NetworkSchema,
        restructuring: &Restructuring,
    ) -> ModelResult<Mapping> {
        let mut snapshots = Vec::with_capacity(restructuring.transforms.len() + 1);
        snapshots.push(source.clone());
        let mut cur = source.clone();
        for t in &restructuring.transforms {
            cur = t.apply_schema(&cur)?;
            snapshots.push(cur.clone());
        }
        source.validate()?;
        cur.validate()?;
        Ok(Mapping {
            target: cur,
            restructuring: restructuring.clone(),
            snapshots,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpc_datamodel::network::{FieldDef, RecordTypeDef, SetDef};
    use dbpc_datamodel::types::FieldType;
    use dbpc_restructure::Transform;

    fn schema() -> NetworkSchema {
        NetworkSchema::new("S")
            .with_record(RecordTypeDef::new(
                "A",
                vec![FieldDef::new("K", FieldType::Char(4))],
            ))
            .with_set(SetDef::system("ALL-A", "A", vec!["K"]))
    }

    #[test]
    fn from_restructuring_keeps_one_snapshot_per_step() {
        let r = Restructuring::single(Transform::RenameRecord {
            old: "A".into(),
            new: "B".into(),
        });
        let m = Mapping::from_restructuring(&schema(), &r).unwrap();
        assert_eq!(m.snapshots.len(), 2);
        assert_eq!(m.snapshots[0], schema());
        assert_eq!(m.snapshots[1], m.target);
        assert_eq!(m.target, r.apply_schema(&schema()).unwrap());
    }

    #[test]
    fn from_restructuring_rejects_a_step_the_schema_cannot_take() {
        let r = Restructuring::single(Transform::RenameRecord {
            old: "MISSING".into(),
            new: "B".into(),
        });
        assert!(Mapping::from_restructuring(&schema(), &r).is_err());
    }
}
