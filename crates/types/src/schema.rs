//! Stream schemas.

use crate::{CosmosError, FxHashMap, Result, Value};
use serde::{Content, DeError, Deserialize, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

/// Runtime type of an attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttrType {
    /// Boolean attribute.
    Bool,
    /// 64-bit integer attribute.
    Int,
    /// 64-bit float attribute.
    Float,
    /// UTF-8 string attribute.
    Str,
}

impl AttrType {
    /// Whether a value inhabits this type (`Null` inhabits every type).
    pub fn admits(self, v: &Value) -> bool {
        matches!(
            (self, v),
            (_, Value::Null)
                | (AttrType::Bool, Value::Bool(_))
                | (AttrType::Int, Value::Int(_))
                | (AttrType::Float, Value::Float(_))
                | (AttrType::Float, Value::Int(_))
                | (AttrType::Str, Value::Str(_))
        )
    }

    /// Whether the type is numeric (comparable with numeric constants).
    pub fn is_numeric(self) -> bool {
        matches!(self, AttrType::Int | AttrType::Float)
    }
}

impl fmt::Display for AttrType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AttrType::Bool => "BOOL",
            AttrType::Int => "INT",
            AttrType::Float => "FLOAT",
            AttrType::Str => "STRING",
        };
        f.write_str(s)
    }
}

/// A named, typed attribute of a stream schema.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Field {
    /// Attribute name. Source streams use bare names (`itemID`); derived
    /// result streams use qualified names (`O.itemID`).
    pub name: String,
    /// Attribute type.
    pub ty: AttrType,
}

impl Field {
    /// Construct a field.
    pub fn new(name: impl Into<String>, ty: AttrType) -> Self {
        Field {
            name: name.into(),
            ty,
        }
    }
}

/// Identity of an interned schema (see [`Schema::id`]).
///
/// Two schemas compare equal iff their ids are equal; ids are allocated
/// process-locally in intern order, so they must never be persisted or
/// compared across processes. Their purpose is to key per-schema caches
/// (the routers' projection-plan caches) with an `O(1)` `Copy` handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SchemaId(u32);

impl SchemaId {
    /// The raw id.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for SchemaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "schema#{}", self.0)
    }
}

/// Shared immutable body of a schema: the fields plus a cached
/// `name → index` map (attribute lookups on the routing hot path must
/// not re-scan the field list per tuple) and the lazily interned id.
#[derive(Debug)]
struct SchemaInner {
    fields: Box<[Field]>,
    index: FxHashMap<String, u32>,
    id: OnceLock<SchemaId>,
}

/// An ordered list of attributes describing the tuples of one stream.
///
/// Schemas are immutable and cheap to clone (`Arc` inside). Field order
/// is the on-the-wire tuple order; lookups by name hit a prebuilt index
/// map. Every schema can be *interned* ([`Schema::id`]): structurally
/// equal schemas map to the same process-wide [`SchemaId`], which the
/// CBN layer uses to key its cached projection plans.
#[derive(Debug, Clone)]
pub struct Schema {
    inner: Arc<SchemaInner>,
}

/// The process-wide schema interner (content-addressed): ids are
/// handed out densely, in first-interned order.
fn interner() -> &'static Mutex<FxHashMap<Schema, SchemaId>> {
    static INTERNER: OnceLock<Mutex<FxHashMap<Schema, SchemaId>>> = OnceLock::new();
    INTERNER.get_or_init(|| Mutex::new(FxHashMap::default()))
}

impl Schema {
    /// Build a schema from fields. Fails on duplicate attribute names.
    pub fn new(fields: Vec<Field>) -> Result<Schema> {
        let mut index = FxHashMap::default();
        for (i, f) in fields.iter().enumerate() {
            if index.insert(f.name.clone(), i as u32).is_some() {
                return Err(CosmosError::Schema(format!(
                    "duplicate attribute name '{}'",
                    f.name
                )));
            }
        }
        Ok(Schema {
            inner: Arc::new(SchemaInner {
                fields: fields.into(),
                index,
                id: OnceLock::new(),
            }),
        })
    }

    /// Build a schema from `(name, type)` pairs; panics on duplicates.
    /// Intended for statically known schemas in tests and workloads.
    pub fn of(pairs: &[(&str, AttrType)]) -> Schema {
        Schema::new(
            pairs
                .iter()
                .map(|(n, t)| Field::new(*n, *t))
                .collect::<Vec<_>>(),
        )
        .expect("static schema must not contain duplicates")
    }

    /// The interned id of this schema. The first call registers the
    /// schema in the process-wide interner; structurally equal schemas
    /// (even separately constructed or deserialized) return the same id.
    /// The result is cached inside the schema, so repeated calls are a
    /// single atomic load.
    pub fn id(&self) -> SchemaId {
        *self.inner.id.get_or_init(|| {
            let mut ids = interner().lock().expect("schema interner poisoned");
            let next = SchemaId(u32::try_from(ids.len()).expect("interner overflow"));
            *ids.entry(self.clone()).or_insert(next)
        })
    }

    /// The fields, in tuple order.
    pub fn fields(&self) -> &[Field] {
        &self.inner.fields
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.inner.fields.len()
    }

    /// Index of the attribute with the given name (`O(1)`).
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.inner.index.get(name).map(|&i| i as usize)
    }

    /// The field with the given name.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.index_of(name).map(|i| &self.inner.fields[i])
    }

    /// Whether the schema contains the attribute.
    pub fn contains(&self, name: &str) -> bool {
        self.inner.index.contains_key(name)
    }

    /// All attribute names, in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.inner.fields.iter().map(|f| f.name.as_str())
    }

    /// Schema containing only the named attributes, in the given order.
    pub fn project(&self, names: &[&str]) -> Result<Schema> {
        let mut out = Vec::with_capacity(names.len());
        for n in names {
            let f = self
                .field(n)
                .ok_or_else(|| CosmosError::Schema(format!("unknown attribute '{n}'")))?;
            out.push(f.clone());
        }
        Schema::new(out)
    }

    /// Concatenation of two schemas, with each attribute of `self`
    /// prefixed by `left_prefix.` and each of `other` by `right_prefix.`.
    ///
    /// This is how join result schemas are derived: qualified names keep
    /// same-named attributes from the two inputs distinct.
    pub fn join(&self, left_prefix: &str, other: &Schema, right_prefix: &str) -> Result<Schema> {
        let mut out = Vec::with_capacity(self.arity() + other.arity());
        for f in self.fields() {
            out.push(Field::new(format!("{left_prefix}.{}", f.name), f.ty));
        }
        for f in other.fields() {
            out.push(Field::new(format!("{right_prefix}.{}", f.name), f.ty));
        }
        Schema::new(out)
    }

    /// Average wire size, in bytes, of a tuple of this schema assuming
    /// scalar attributes (strings estimated at 12 bytes).
    pub fn estimated_tuple_bytes(&self) -> usize {
        self.fields()
            .iter()
            .map(|f| match f.ty {
                AttrType::Bool => 1,
                AttrType::Int | AttrType::Float => 8,
                AttrType::Str => 12,
            })
            .sum()
    }
}

impl PartialEq for Schema {
    fn eq(&self, other: &Schema) -> bool {
        if Arc::ptr_eq(&self.inner, &other.inner) {
            return true;
        }
        // Two already-interned schemas compare by id (an O(1) check).
        if let (Some(a), Some(b)) = (self.inner.id.get(), other.inner.id.get()) {
            return a == b;
        }
        self.inner.fields == other.inner.fields
    }
}

impl Eq for Schema {}

impl Hash for Schema {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.inner.fields.hash(state);
    }
}

impl Serialize for Schema {
    fn to_content(&self) -> Content {
        // Same wire shape as the former derived impl: {"fields": [...]}.
        Content::Map(vec![(
            Content::Str("fields".into()),
            self.fields().to_content(),
        )])
    }
}

impl Deserialize for Schema {
    fn from_content(c: &Content) -> std::result::Result<Schema, DeError> {
        let fields = Vec::<Field>::from_content(serde::map_get(c, "fields")?)?;
        Schema::new(fields).map_err(|e| DeError::custom(e.to_string()))
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, fld) in self.fields().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", fld.name, fld.ty)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn auction_schema() -> Schema {
        Schema::of(&[
            ("itemID", AttrType::Int),
            ("sellerID", AttrType::Int),
            ("start_price", AttrType::Float),
            ("timestamp", AttrType::Int),
        ])
    }

    #[test]
    fn lookup_and_order() {
        let s = auction_schema();
        assert_eq!(s.arity(), 4);
        assert_eq!(s.index_of("sellerID"), Some(1));
        assert_eq!(s.index_of("nope"), None);
        assert!(s.contains("timestamp"));
        assert_eq!(s.names().collect::<Vec<_>>()[0], "itemID");
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = Schema::new(vec![
            Field::new("a", AttrType::Int),
            Field::new("a", AttrType::Float),
        ])
        .unwrap_err();
        assert_eq!(err.kind(), "schema");
    }

    #[test]
    fn projection_keeps_requested_order() {
        let s = auction_schema();
        let p = s.project(&["timestamp", "itemID"]).unwrap();
        assert_eq!(p.names().collect::<Vec<_>>(), vec!["timestamp", "itemID"]);
        assert!(s.project(&["missing"]).is_err());
    }

    #[test]
    fn join_qualifies_names() {
        let open = auction_schema();
        let closed = Schema::of(&[
            ("itemID", AttrType::Int),
            ("buyerID", AttrType::Int),
            ("timestamp", AttrType::Int),
        ]);
        let j = open.join("O", &closed, "C").unwrap();
        assert_eq!(j.arity(), 7);
        assert!(j.contains("O.itemID"));
        assert!(j.contains("C.itemID"));
        assert!(j.contains("C.buyerID"));
    }

    #[test]
    fn admits_follows_coercion() {
        assert!(AttrType::Float.admits(&Value::Int(3)));
        assert!(!AttrType::Int.admits(&Value::Float(3.0)));
        assert!(AttrType::Str.admits(&Value::Null));
        assert!(AttrType::Int.is_numeric());
        assert!(!AttrType::Str.is_numeric());
    }

    #[test]
    fn estimated_bytes() {
        let s = Schema::of(&[
            ("a", AttrType::Int),
            ("b", AttrType::Str),
            ("c", AttrType::Bool),
        ]);
        assert_eq!(s.estimated_tuple_bytes(), 8 + 12 + 1);
    }

    #[test]
    fn display() {
        let s = Schema::of(&[("a", AttrType::Int)]);
        assert_eq!(s.to_string(), "(a INT)");
    }

    #[test]
    fn interning_is_structural() {
        // Two independently built but equal schemas share one id; a
        // clone trivially does; a different schema gets a different id.
        let a = auction_schema();
        let b = auction_schema();
        let c = a.clone();
        assert_eq!(a.id(), b.id());
        assert_eq!(a.id(), c.id());
        let other = Schema::of(&[("zzz_unique_attr", AttrType::Bool)]);
        assert_ne!(a.id(), other.id());
    }

    #[test]
    fn equality_and_hash_are_structural() {
        use std::collections::hash_map::DefaultHasher;
        let a = auction_schema();
        let b = auction_schema();
        assert_eq!(a, b);
        let h = |s: &Schema| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(h(&a), h(&b));
        // interning one side must not break equality with the other
        let _ = a.id();
        assert_eq!(a, b);
        assert_eq!(b, a);
    }

    #[test]
    fn serde_roundtrip_reinterns() {
        let a = auction_schema();
        let json = serde_json::to_string(&a).unwrap();
        let back: Schema = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);
        assert_eq!(back.id(), a.id());
        // duplicate fields on the wire are rejected
        let bad = r#"{"fields":[{"name":"a","ty":"Int"},{"name":"a","ty":"Int"}]}"#;
        assert!(serde_json::from_str::<Schema>(bad).is_err());
    }
}
