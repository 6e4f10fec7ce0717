//! Restructuring sequences.
//!
//! §4.2: "A conversion is considered as a sequence of transformations
//! applied to the source schema which produces a target schema … It is hoped
//! that more complex transformations can be built up from these." A
//! [`Restructuring`] is that sequence, applied in order to schemas and
//! databases alike.

use crate::data::translate;
use crate::transform::Transform;
use dbpc_datamodel::error::ModelResult;
use dbpc_datamodel::network::NetworkSchema;
use dbpc_storage::{DbResult, NetworkDb};
use std::fmt;

/// An ordered sequence of transformations.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Restructuring {
    pub transforms: Vec<Transform>,
}

impl Restructuring {
    pub fn new(transforms: Vec<Transform>) -> Restructuring {
        Restructuring { transforms }
    }

    pub fn single(t: Transform) -> Restructuring {
        Restructuring {
            transforms: vec![t],
        }
    }

    pub fn is_empty(&self) -> bool {
        self.transforms.is_empty()
    }

    /// Apply all transforms to a schema, in order.
    pub fn apply_schema(&self, schema: &NetworkSchema) -> ModelResult<NetworkSchema> {
        let mut s = schema.clone();
        for t in &self.transforms {
            s = t.apply_schema(&s)?;
        }
        Ok(s)
    }

    /// Translate a database across all transforms, in order. Each
    /// transform reads its input and builds a new database, so the source
    /// is copied only when there is no transform to run.
    pub fn translate(&self, db: &NetworkDb) -> DbResult<NetworkDb> {
        let mut d: Option<NetworkDb> = None;
        for t in &self.transforms {
            d = Some(translate(d.as_ref().unwrap_or(db), t)?);
        }
        Ok(d.unwrap_or_else(|| db.clone()))
    }

    /// The inverse sequence (reversed inverses), if every step has one.
    pub fn inverse(&self) -> Option<Restructuring> {
        let mut inv = Vec::with_capacity(self.transforms.len());
        for t in self.transforms.iter().rev() {
            inv.push(t.inverse()?);
        }
        Some(Restructuring { transforms: inv })
    }

    /// Does the whole sequence preserve information?
    pub fn preserves_information(&self) -> bool {
        self.transforms.iter().all(|t| t.preserves_information())
    }

    /// Can the sequence perturb observable retrieval order?
    pub fn affects_ordering(&self) -> bool {
        self.transforms.iter().any(|t| t.affects_ordering())
    }

    /// Does the sequence change integrity semantics?
    pub fn affects_integrity(&self) -> bool {
        self.transforms.iter().any(|t| t.affects_integrity())
    }

    /// Check that the declared target schema is in fact what the sequence
    /// produces from `source` — the Conversion Analyzer's sanity check on
    /// its inputs (Figure 4.1 takes both the schemas *and* the
    /// restructuring definition).
    pub fn produces(&self, source: &NetworkSchema, target: &NetworkSchema) -> bool {
        match self.apply_schema(source) {
            Ok(s) => &s == target,
            Err(_) => false,
        }
    }
}

impl fmt::Display for Restructuring {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, t) in self.transforms.iter().enumerate() {
            writeln!(f, "{}. {t}", i + 1)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpc_datamodel::network::{FieldDef, RecordTypeDef, SetDef};
    use dbpc_datamodel::types::FieldType;
    use dbpc_datamodel::value::Value;

    fn schema() -> NetworkSchema {
        NetworkSchema::new("S")
            .with_record(RecordTypeDef::new(
                "A",
                vec![
                    FieldDef::new("K", FieldType::Char(4)),
                    FieldDef::new("X", FieldType::Int(4)),
                ],
            ))
            .with_set(SetDef::system("ALL-A", "A", vec!["K"]))
    }

    #[test]
    fn sequence_applies_in_order() {
        let r = Restructuring::new(vec![
            Transform::RenameField {
                record: "A".into(),
                old: "X".into(),
                new: "Y".into(),
            },
            Transform::AddField {
                record: "A".into(),
                field: "Z".into(),
                ty: FieldType::Int(4),
                default: Value::Int(0),
            },
        ]);
        let out = r.apply_schema(&schema()).unwrap();
        let a = out.record("A").unwrap();
        assert!(a.field("Y").is_some());
        assert!(a.field("Z").is_some());
        assert!(a.field("X").is_none());
    }

    #[test]
    fn inverse_reverses_and_inverts() {
        let r = Restructuring::new(vec![
            Transform::RenameRecord {
                old: "A".into(),
                new: "B".into(),
            },
            Transform::RenameField {
                record: "B".into(),
                old: "X".into(),
                new: "Y".into(),
            },
        ]);
        let fwd = r.apply_schema(&schema()).unwrap();
        let back = r.inverse().unwrap().apply_schema(&fwd).unwrap();
        assert_eq!(back, schema());
    }

    #[test]
    fn inverse_fails_for_lossy_sequence() {
        let r = Restructuring::new(vec![Transform::DropField {
            record: "A".into(),
            field: "X".into(),
        }]);
        assert!(r.inverse().is_none());
        assert!(!r.preserves_information());
    }

    #[test]
    fn produces_checks_target() {
        let r = Restructuring::single(Transform::RenameRecord {
            old: "A".into(),
            new: "B".into(),
        });
        let target = r.apply_schema(&schema()).unwrap();
        assert!(r.produces(&schema(), &target));
        assert!(!r.produces(&schema(), &schema()));
    }

    #[test]
    fn translate_folds_over_database() {
        let mut db = NetworkDb::new(schema()).unwrap();
        db.store("A", &[("K", Value::str("k1")), ("X", Value::Int(7))], &[])
            .unwrap();
        let r = Restructuring::new(vec![
            Transform::RenameField {
                record: "A".into(),
                old: "X".into(),
                new: "Y".into(),
            },
            Transform::AddField {
                record: "A".into(),
                field: "Z".into(),
                ty: FieldType::Int(4),
                default: Value::Int(1),
            },
        ]);
        let out = r.translate(&db).unwrap();
        let id = out.records_of_type("A")[0];
        assert_eq!(out.field_value(id, "Y").unwrap(), Value::Int(7));
        assert_eq!(out.field_value(id, "Z").unwrap(), Value::Int(1));
    }

    #[test]
    fn display_numbers_steps() {
        let r = Restructuring::new(vec![Transform::RenameRecord {
            old: "A".into(),
            new: "B".into(),
        }]);
        assert!(r.to_string().starts_with("1. RENAME RECORD A TO B"));
    }
}
