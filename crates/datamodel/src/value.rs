//! Field values.
//!
//! A [`Value`] is the unit of data stored in a record field, a tuple
//! attribute, or a segment field. The 1979 systems the paper targets were
//! COBOL-hosted, so the value space is deliberately small: fixed character
//! strings (`PIC X(n)`), integers (`PIC 9(n)`), floats (`COMP-2`-ish), and
//! the null marker whose semantics §3.1 discusses at length (the
//! "null instructor" device).
//!
//! Values carry a **total order** because set occurrences in the network
//! model are ordered by declared set keys and the Maryland DML has
//! `SORT … ON (…)`; an unstable or partial order would make converted-program
//! traces nondeterministic, violating the paper's operational equivalence
//! criterion.

use std::cmp::Ordering;
use std::fmt;

/// A single field value. The default is `Null`, the value of a field no
/// one assigned.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum Value {
    /// The null marker. Sorts before every non-null value.
    #[default]
    Null,
    /// Signed integer (`PIC 9(n)` with implicit sign).
    Int(i64),
    /// Floating point. Compared via total order (`f64::total_cmp`).
    Float(f64),
    /// Character data (`PIC X(n)`).
    Str(String),
}

impl std::hash::Hash for Value {
    /// Manual because of `Float`: hashes the bit pattern, normalizing the
    /// two zero representations so `0.0` and `-0.0` (equal under the derived
    /// `PartialEq`) hash alike. NaN payloads hash distinctly, which is fine —
    /// `Hash` only has to be consistent with equality, and derived equality
    /// already compares NaNs bitwise-never-equal.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Value::Null => {}
            Value::Int(i) => i.hash(state),
            Value::Float(f) => {
                let normalized = if *f == 0.0 { 0.0f64 } else { *f };
                normalized.to_bits().hash(state);
            }
            Value::Str(s) => s.hash(state),
        }
    }
}

impl Value {
    /// String value from anything stringy.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// True iff this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Type name used in error messages and the DDL printer.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "NULL",
            Value::Int(_) => "INT",
            Value::Float(_) => "FLOAT",
            Value::Str(_) => "CHAR",
        }
    }

    /// Numeric view: integers widen to floats. `None` for strings/null.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view. `None` unless `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view. `None` unless `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Comparison used by filters, set keys and SORT.
    ///
    /// Rules (documented so that converted programs and source programs
    /// observe the same collation):
    /// * `Null` sorts first and equals only `Null`;
    /// * numeric values compare numerically across `Int`/`Float`;
    /// * strings compare bytewise;
    /// * a number never equals a string; numbers sort before strings.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Int(_) | Float(_), Str(_)) => Ordering::Less,
            (Str(_), Int(_) | Float(_)) => Ordering::Greater,
        }
    }

    /// Equality under [`Value::total_cmp`] (so `Int(1) == Float(1.0)` in
    /// filter predicates, matching the loose typing of 1979 DMLs).
    pub fn loose_eq(&self, other: &Value) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.is_finite() {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// Lexicographic comparison of value tuples (used for multi-field set keys
/// and SORT keys).
pub fn cmp_tuple(a: &[Value], b: &[Value]) -> Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        match x.total_cmp(y) {
            Ordering::Equal => continue,
            non_eq => return non_eq,
        }
    }
    a.len().cmp(&b.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sorts_first() {
        assert_eq!(Value::Null.total_cmp(&Value::Int(-100)), Ordering::Less);
        assert_eq!(Value::Null.total_cmp(&Value::str("")), Ordering::Less);
        assert_eq!(Value::Null.total_cmp(&Value::Null), Ordering::Equal);
    }

    #[test]
    fn numeric_cross_type_compare() {
        assert!(Value::Int(2).loose_eq(&Value::Float(2.0)));
        assert_eq!(Value::Float(1.5).total_cmp(&Value::Int(2)), Ordering::Less);
    }

    #[test]
    fn numbers_before_strings() {
        assert_eq!(Value::Int(999).total_cmp(&Value::str("0")), Ordering::Less);
        assert!(!Value::Int(0).loose_eq(&Value::str("0")));
    }

    #[test]
    fn string_bytewise() {
        assert_eq!(
            Value::str("APPLE").total_cmp(&Value::str("BANANA")),
            Ordering::Less
        );
    }

    #[test]
    fn tuple_compare_is_lexicographic() {
        let a = vec![Value::str("SALES"), Value::Int(1)];
        let b = vec![Value::str("SALES"), Value::Int(2)];
        assert_eq!(cmp_tuple(&a, &b), Ordering::Less);
        let shorter = vec![Value::str("SALES")];
        assert_eq!(cmp_tuple(&shorter, &a), Ordering::Less);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::str("X").to_string(), "X");
    }

    #[test]
    fn as_views() {
        assert_eq!(Value::Int(7).as_f64(), Some(7.0));
        assert_eq!(Value::str("a").as_f64(), None);
        assert_eq!(Value::str("a").as_str(), Some("a"));
        assert_eq!(Value::Int(7).as_int(), Some(7));
    }
}
