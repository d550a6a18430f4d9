//! Datagrams: timestamped tuples tagged with a stream name.

use crate::{CosmosError, FxHashMap, Result, Schema, Timestamp, Value};
use serde::{Content, DeError, Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

/// An interned stream name.
///
/// Stream names identify both source streams (`OpenAuction`) and derived
/// result streams (`result::q3`). The text of every name lives once per
/// process, in a leaked slot that holds its `&'static str`
/// ([`StreamName::new`] looks it up); a handle is a `Copy` thin pointer
/// to that slot, one word, so cloning a tuple touches no refcount for its
/// name and `==` compares pointers. Ordering, hashing, `Debug`, `Display`
/// and serde all go by the text, never by the pointer, so maps keyed by
/// names, digests and JSON do not depend on where the text lives.
#[derive(Debug, Clone, Copy)]
pub struct StreamName(&'static &'static str);

/// The process-wide stream-name interner: every text ever interned and
/// its slot, both leaked once and never freed (like the schema
/// interner's ids).
fn names() -> &'static Mutex<FxHashMap<&'static str, &'static &'static str>> {
    static NAMES: OnceLock<Mutex<FxHashMap<&'static str, &'static &'static str>>> = OnceLock::new();
    NAMES.get_or_init(|| Mutex::new(FxHashMap::default()))
}

impl StreamName {
    /// Intern a stream name: the handle of the one slot of its text,
    /// stored on first use.
    pub fn new(name: impl AsRef<str>) -> Self {
        let name = name.as_ref();
        let mut names = names().lock().expect("stream-name interner poisoned");
        if let Some(&slot) = names.get(name) {
            return StreamName(slot);
        }
        let text: &'static str = Box::leak(name.into());
        let slot: &'static &'static str = Box::leak(Box::new(text));
        names.insert(text, slot);
        StreamName(slot)
    }

    /// The handle of `name` if it was ever interned; never interns, so
    /// looking up text that names no stream (a typo in a query) leaves
    /// the interner as it was.
    pub fn find(name: &str) -> Option<Self> {
        let names = names().lock().expect("stream-name interner poisoned");
        names.get(name).map(|&slot| StreamName(slot))
    }

    /// The name as a string slice.
    #[inline]
    pub fn as_str(&self) -> &'static str {
        self.0
    }
}

/// Interned, so one text has one slot: pointer equality is text
/// equality.
impl PartialEq for StreamName {
    #[inline]
    fn eq(&self, other: &StreamName) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for StreamName {}

impl Ord for StreamName {
    #[inline]
    fn cmp(&self, other: &StreamName) -> Ordering {
        if self == other {
            Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl PartialOrd for StreamName {
    #[inline]
    fn partial_cmp(&self, other: &StreamName) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Exactly what `str` hashes: addresses differ between processes.
impl Hash for StreamName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl Serialize for StreamName {
    fn to_content(&self) -> Content {
        self.as_str().to_content()
    }
}

impl Deserialize for StreamName {
    fn from_content(c: &Content) -> std::result::Result<StreamName, DeError> {
        match c {
            Content::Str(s) => Ok(StreamName::new(s)),
            other => Err(DeError::custom(format!("expected string, found {other}"))),
        }
    }
}

impl fmt::Display for StreamName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
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
/// Values are stored behind an `Arc` and the stream name is an interned
/// one-word `Copy` handle, so fan-out inside the content-based network
/// clones a tuple with one refcount bump; projection produces a fresh
/// (shorter) vector. A tuple is four words: name, timestamp and the
/// slice's pointer and length.
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
            stream: self.stream,
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
        assert!(std::ptr::eq(a.as_str(), b.as_str()), "one copy of the text");
        assert_eq!(a.as_str(), "abc");
        assert_eq!(a.to_string(), "abc");
        assert_eq!(format!("{a:?}"), r#"StreamName("abc")"#);
        assert_eq!(StreamName::find("abc"), Some(a));
        assert_eq!(StreamName::find("never interned by any test"), None);
    }
}
