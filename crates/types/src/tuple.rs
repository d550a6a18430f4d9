//! Datagrams: timestamped tuples tagged with a stream name.

use crate::{CosmosError, Result, Schema, Timestamp, Value};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// An interned stream name.
///
/// Stream names identify both source streams (`OpenAuction`) and derived
/// result streams (`result::q3`). The `Arc<str>` representation makes
/// cloning (which happens on every routing hop) a refcount bump.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct StreamName(Arc<str>);

impl StreamName {
    /// Intern a stream name.
    pub fn new(name: impl Into<Arc<str>>) -> Self {
        StreamName(name.into())
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for StreamName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for StreamName {
    fn from(s: &str) -> Self {
        StreamName::new(s)
    }
}

impl From<String> for StreamName {
    fn from(s: String) -> Self {
        StreamName::new(s)
    }
}

/// A datagram: one tuple of a named stream at an application timestamp.
///
/// The value vector is positionally aligned with the stream's [`Schema`].
/// Values are stored behind an `Arc` so that fan-out inside the
/// content-based network clones cheaply; projection produces a fresh
/// (shorter) vector.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tuple {
    /// The stream this datagram belongs to.
    pub stream: StreamName,
    /// Application timestamp drawn from the discrete time domain `T`.
    pub timestamp: Timestamp,
    values: Arc<[Value]>,
}

impl Tuple {
    /// Build a tuple.
    pub fn new(stream: impl Into<StreamName>, timestamp: Timestamp, values: Vec<Value>) -> Self {
        Tuple {
            stream: stream.into(),
            timestamp,
            values: values.into(),
        }
    }

    /// Build a tuple around an already shared value slice — no copy, so a
    /// row collected straight into an `Arc<[Value]>` costs one allocation.
    pub fn from_shared(
        stream: impl Into<StreamName>,
        timestamp: Timestamp,
        values: Arc<[Value]>,
    ) -> Self {
        Tuple {
            stream: stream.into(),
            timestamp,
            values,
        }
    }

    /// The attribute values, in schema order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Value at a positional index.
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.values.get(idx)
    }

    /// Value of the named attribute under the given schema.
    pub fn get_by_name<'a>(&'a self, schema: &Schema, name: &str) -> Option<&'a Value> {
        schema.index_of(name).and_then(|i| self.values.get(i))
    }

    /// Project the tuple onto the given positional indices (early
    /// projection inside the CBN, Section 3.1 of the paper).
    pub fn project_indices(&self, indices: &[usize]) -> Result<Tuple> {
        if let Some(i) = indices.iter().find(|&&i| i >= self.values.len()) {
            return Err(CosmosError::Type(format!(
                "projection index {i} out of range for arity {}",
                self.values.len()
            )));
        }
        // Bounds are settled, so the gather is an exact-size iterator and
        // collects straight into the shared slice: one allocation.
        Ok(Tuple {
            stream: self.stream.clone(),
            timestamp: self.timestamp,
            values: indices.iter().map(|&i| self.values[i].clone()).collect(),
        })
    }

    /// Wire size in bytes: stream-name header plus all values.
    pub fn size_bytes(&self) -> usize {
        // 2-byte stream id on the wire plus 8-byte timestamp.
        10 + self.values.iter().map(Value::size_bytes).sum::<usize>()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}[", self.stream, self.timestamp)?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AttrType;

    fn tup() -> Tuple {
        Tuple::new(
            "S",
            Timestamp(42),
            vec![Value::Int(1), Value::str("x"), Value::Float(2.5)],
        )
    }

    #[test]
    fn accessors() {
        let t = tup();
        assert_eq!(t.arity(), 3);
        assert_eq!(t.get(0), Some(&Value::Int(1)));
        assert_eq!(t.get(3), None);
        let schema = Schema::of(&[
            ("a", AttrType::Int),
            ("b", AttrType::Str),
            ("c", AttrType::Float),
        ]);
        assert_eq!(t.get_by_name(&schema, "b"), Some(&Value::str("x")));
        assert_eq!(t.get_by_name(&schema, "nope"), None);
    }

    #[test]
    fn projection_selects_and_orders() {
        let t = tup();
        let p = t.project_indices(&[2, 0]).unwrap();
        assert_eq!(p.values(), &[Value::Float(2.5), Value::Int(1)]);
        assert_eq!(p.timestamp, t.timestamp);
        assert_eq!(p.stream, t.stream);
        assert!(t.project_indices(&[9]).is_err());
    }

    #[test]
    fn size_accounts_header_and_values() {
        let t = tup();
        // 10 header + 8 (int) + 2 ('x') + 8 (float)
        assert_eq!(t.size_bytes(), 28);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(tup().to_string(), "S@t42[1, 'x', 2.5]");
    }

    #[test]
    fn stream_name_interning() {
        let a = StreamName::from("abc");
        let b: StreamName = String::from("abc").into();
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "abc");
        assert_eq!(a.to_string(), "abc");
    }
}
