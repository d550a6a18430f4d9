//! The stream schema registry.
//!
//! Every stream in COSMOS has a unique name; nodes need the schema of a
//! stream to evaluate filters and projections on its datagrams. The
//! registry also records each stream's *advertisement* — the origin node
//! that publishes it — which the routing layer uses to anchor
//! dissemination.
//!
//! It is one logical registry. The paper's two ways of storing it
//! (Section 3: flooding the schema to every node when streams are few, a
//! DHT keyed by stream name otherwise) differ only in the control
//! messages they send; ablation A8 of the experiment report compares them
//! as a closed-form cost model.

use cosmos_types::{CosmosError, FxHashMap, NodeId, Result, Schema, StreamName};

/// Metadata registered for one stream.
#[derive(Debug, Clone, PartialEq)]
pub struct RegisteredStream {
    /// The stream's unique name.
    pub name: StreamName,
    /// Its schema.
    pub schema: Schema,
    /// The overlay node that advertises (publishes) the stream.
    pub origin: NodeId,
}

/// The system-wide schema registry: a logically centralized view.
#[derive(Debug, Clone, Default)]
pub struct SchemaRegistry {
    streams: FxHashMap<StreamName, RegisteredStream>,
}

impl SchemaRegistry {
    /// An empty registry.
    pub fn new() -> SchemaRegistry {
        SchemaRegistry::default()
    }

    /// Register a stream. Fails on duplicate names (stream names must be
    /// unique in COSMOS).
    pub fn register(
        &mut self,
        name: impl Into<StreamName>,
        schema: Schema,
        origin: NodeId,
    ) -> Result<()> {
        let name = name.into();
        if self.streams.contains_key(&name) {
            return Err(CosmosError::Network(format!(
                "stream '{name}' is already registered"
            )));
        }
        self.streams.insert(
            name,
            RegisteredStream {
                name,
                schema,
                origin,
            },
        );
        Ok(())
    }

    /// Remove a stream registration.
    pub fn unregister(&mut self, name: &StreamName) -> Option<RegisteredStream> {
        self.streams.remove(name)
    }

    /// Replace the schema of an already-registered stream (a processor
    /// re-advertising a representative result stream whose column set
    /// grew after a merge).
    pub fn update_schema(&mut self, name: &StreamName, schema: Schema) -> Result<()> {
        let entry = self
            .streams
            .get_mut(name)
            .ok_or_else(|| CosmosError::Network(format!("stream '{name}' is not registered")))?;
        entry.schema = schema;
        Ok(())
    }

    /// Look up a stream.
    pub fn get(&self, name: &StreamName) -> Option<&RegisteredStream> {
        self.streams.get(name)
    }

    /// The schema of a stream, if registered.
    pub fn schema(&self, name: &StreamName) -> Option<&Schema> {
        self.streams.get(name).map(|r| &r.schema)
    }

    /// The origin (advertising) node of a stream, if registered.
    pub fn origin(&self, name: &StreamName) -> Option<NodeId> {
        self.streams.get(name).map(|r| r.origin)
    }

    /// Number of registered streams.
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// Whether no stream is registered.
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// Iterate over registered streams, in name order.
    pub fn iter(&self) -> impl Iterator<Item = &RegisteredStream> {
        #[expect(clippy::disallowed_methods, reason = "sorted by name below")]
        let mut all: Vec<&RegisteredStream> = self.streams.values().collect();
        all.sort_unstable_by_key(|r| r.name);
        all.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_types::AttrType;

    fn schema() -> Schema {
        Schema::of(&[("a", AttrType::Int)])
    }

    #[test]
    fn register_and_lookup() {
        let mut r = SchemaRegistry::new();
        r.register("S", schema(), NodeId(2)).unwrap();
        let name = StreamName::from("S");
        assert_eq!(r.get(&name).unwrap().origin, NodeId(2));
        assert!(r.get(&StreamName::from("missing")).is_none());
        assert_eq!(r.schema(&name), Some(&schema()));
        assert_eq!(r.origin(&name), Some(NodeId(2)));
        assert_eq!(r.len(), 1);
        assert!(!r.is_empty());
        assert_eq!(r.iter().count(), 1);
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut r = SchemaRegistry::new();
        r.register("S", schema(), NodeId(0)).unwrap();
        let err = r.register("S", schema(), NodeId(1)).unwrap_err();
        assert_eq!(err.kind(), "network");
    }

    #[test]
    fn unregister_removes() {
        let mut r = SchemaRegistry::new();
        r.register("S", schema(), NodeId(0)).unwrap();
        assert!(r.unregister(&StreamName::from("S")).is_some());
        assert!(r.unregister(&StreamName::from("S")).is_none());
        assert!(r.is_empty());
        // name is free again
        r.register("S", schema(), NodeId(1)).unwrap();
    }
}
