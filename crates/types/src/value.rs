//! Dynamically typed attribute values.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A single attribute value inside a datagram.
///
/// Values carry their own runtime type. Comparisons between `Int` and
/// `Float` coerce the integer to a float, mirroring the numeric semantics
/// of the CQL subset; comparisons between incompatible types are reported
/// as `None` by [`Value::partial_cmp_coerce`] so predicate evaluation can
/// treat them as "does not satisfy".
///
/// `Value` implements a *total* order ([`Ord`]) so it can be used as a
/// grouping key; the total order places types in a fixed ranking
/// (`Null < Bool < numeric < Str`) and orders NaN floats last within the
/// numeric band.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// Absent / unknown value.
    Null,
    /// Boolean value.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float.
    Float(f64),
    /// UTF-8 string, shared (never interned: arbitrary text would leak).
    /// The `Arc` keeps tuple cloning a refcount bump; it points at a
    /// `String` rather than a `str` so the handle is one word and a
    /// `Value` is two.
    Str(Arc<String>),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(Arc::new(s.into()))
    }

    /// True when this value is `Null`.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The value as an `f64` when it is numeric.
    #[inline]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a string slice when it is a string.
    #[inline]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Compare two values with numeric coercion.
    ///
    /// Returns `None` when the types are incomparable (e.g. `Int` vs
    /// `Str`) or when either side is `Null` or a NaN float. This is the
    /// comparison used by predicate evaluation: an incomparable pair never
    /// satisfies any constraint.
    pub fn partial_cmp_coerce(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.as_str().cmp(b.as_str())),
            (a, b) => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                x.partial_cmp(&y)
            }
        }
    }

    /// Equality with numeric coercion (`Int(3) == Float(3.0)`);
    /// `Null` is never equal to anything, including `Null`.
    pub fn eq_coerce(&self, other: &Value) -> bool {
        self.partial_cmp_coerce(other) == Some(Ordering::Equal)
    }

    /// Approximate wire size of this value in bytes.
    ///
    /// Used by the communication-cost accounting: a fixed 8 bytes for
    /// scalars, `1 + len` for strings (length byte plus payload), 1 byte
    /// for nulls/bools.
    pub fn size_bytes(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 8,
            Value::Str(s) => 1 + s.len(),
        }
    }

    /// Rank of the type band used by the total order.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Str(_) => 3,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.as_str().cmp(b.as_str()),
            (a, b) if a.type_rank() == 2 && b.type_rank() == 2 => {
                // Numeric band: order by value, NaN last, Int(3)==Float(3).
                let x = a.as_f64().expect("numeric");
                let y = b.as_f64().expect("numeric");
                match x.partial_cmp(&y) {
                    Some(ord) => ord,
                    None => match (x.is_nan(), y.is_nan()) {
                        (true, true) => Ordering::Equal,
                        (true, false) => Ordering::Greater,
                        (false, true) => Ordering::Less,
                        (false, false) => unreachable!("non-NaN incomparable floats"),
                    },
                }
            }
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Ints and floats hash identically when numerically equal so
            // that the Hash/Eq contract holds under coercion; every NaN
            // and both zeros (`-0.0 == 0.0 == Int(0)`) hash as one value.
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                let canonical = if f.is_nan() {
                    f64::NAN
                } else if *f == 0.0 {
                    0.0
                } else {
                    *f
                };
                canonical.to_bits().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.as_str().hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn numeric_coercion_compares_int_and_float() {
        assert!(Value::Int(3).eq_coerce(&Value::Float(3.0)));
        assert_eq!(
            Value::Int(2).partial_cmp_coerce(&Value::Float(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Float(10.0).partial_cmp_coerce(&Value::Int(4)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn null_is_incomparable() {
        assert_eq!(Value::Null.partial_cmp_coerce(&Value::Int(1)), None);
        assert!(!Value::Null.eq_coerce(&Value::Null));
    }

    #[test]
    fn cross_type_is_incomparable_under_coercion() {
        assert_eq!(Value::Int(1).partial_cmp_coerce(&Value::str("a")), None);
        assert_eq!(Value::Bool(true).partial_cmp_coerce(&Value::Int(1)), None);
    }

    #[test]
    fn total_order_ranks_types() {
        let mut vs = vec![
            Value::str("a"),
            Value::Int(0),
            Value::Bool(false),
            Value::Null,
            Value::Float(-1.0),
        ];
        vs.sort();
        assert_eq!(
            vs,
            vec![
                Value::Null,
                Value::Bool(false),
                Value::Float(-1.0),
                Value::Int(0),
                Value::str("a"),
            ]
        );
    }

    #[test]
    fn nan_sorts_last_in_numeric_band_and_equals_itself() {
        let mut vs = [Value::Float(f64::NAN), Value::Float(1.0), Value::Int(5)];
        vs.sort();
        assert_eq!(vs[0], Value::Float(1.0));
        assert_eq!(vs[1], Value::Int(5));
        assert!(matches!(vs[2], Value::Float(f) if f.is_nan()));
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
    }

    #[test]
    fn hash_respects_numeric_eq() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_eq!(hash_of(&Value::Int(3)), hash_of(&Value::Float(3.0)));
    }

    #[test]
    fn equal_values_hash_equal() {
        let edge = 2f64.powi(53);
        let values = [
            Value::Int(0),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Float(f64::from_bits(f64::NAN.to_bits() | 1)),
            Value::Int(3),
            Value::Float(3.0),
            Value::Int((1 << 53) + 1),
            Value::Int(-(1 << 53) - 1),
            Value::Float(edge),
            Value::Float(-edge),
        ];
        for a in &values {
            for b in &values {
                if a == b {
                    assert_eq!(hash_of(a), hash_of(b), "{a:?} == {b:?}");
                }
            }
        }
        assert_eq!(Value::Float(-0.0), Value::Int(0));
    }

    #[test]
    fn size_bytes_model() {
        assert_eq!(Value::Null.size_bytes(), 1);
        assert_eq!(Value::Bool(true).size_bytes(), 1);
        assert_eq!(Value::Int(7).size_bytes(), 8);
        assert_eq!(Value::Float(7.0).size_bytes(), 8);
        assert_eq!(Value::str("abc").size_bytes(), 4);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-2).to_string(), "-2");
        assert_eq!(Value::str("x").to_string(), "'x'");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from("hi").as_str(), Some("hi"));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(2.5f64).as_f64(), Some(2.5));
    }
}
