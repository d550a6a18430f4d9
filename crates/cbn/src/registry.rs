//! The stream schema registry.
//!
//! Every stream in COSMOS has a unique name; nodes need the schema of a
//! stream to evaluate filters and projections on its datagrams. The paper
//! prescribes two storage modes (Section 3): **flooding** the schema to
//! every node when streams are few, and a **DHT** keyed by stream name
//! otherwise. The registry also records each stream's *advertisement* —
//! the origin node that publishes it — which the routing layer uses to
//! anchor dissemination.
//!
//! The registry tracks the number of control messages each mode would
//! send so tests and ablation A8 can compare the two (flooding costs `O(N)`
//! messages per stream, the DHT costs `O(replicas)` plus per-lookup
//! traffic).

use cosmos_types::{CosmosError, FxHashMap, NodeId, Result, Schema, StreamName};

/// How schema metadata is distributed across nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegistryMode {
    /// Every node stores every schema; registration floods the network.
    Flooding,
    /// Schemas live on `replicas` ring nodes; lookups are remote.
    Dht {
        /// Number of replica nodes storing each schema.
        replicas: usize,
    },
}

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

/// The system-wide schema registry.
///
/// This is a logically centralized view; the `mode` determines the
/// *accounted cost* of registration and lookup.
#[derive(Debug, Clone)]
pub struct SchemaRegistry {
    mode: RegistryMode,
    node_count: usize,
    streams: FxHashMap<StreamName, RegisteredStream>,
    control_messages: u64,
}

impl SchemaRegistry {
    /// A registry for a network of `nodes` overlay nodes.
    pub fn new(mode: RegistryMode, nodes: impl IntoIterator<Item = NodeId>) -> SchemaRegistry {
        SchemaRegistry {
            mode,
            node_count: nodes.into_iter().count(),
            streams: FxHashMap::default(),
            control_messages: 0,
        }
    }

    /// The registry's distribution mode.
    pub fn mode(&self) -> RegistryMode {
        self.mode
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
        self.control_messages += match self.mode {
            RegistryMode::Flooding => self.node_count as u64,
            RegistryMode::Dht { replicas } => replicas.min(self.node_count) as u64,
        };
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
    /// grew after a merge). Costs the same control traffic as a fresh
    /// registration.
    pub fn update_schema(&mut self, name: &StreamName, schema: Schema) -> Result<()> {
        let entry = self
            .streams
            .get_mut(name)
            .ok_or_else(|| CosmosError::Network(format!("stream '{name}' is not registered")))?;
        entry.schema = schema;
        self.control_messages += match self.mode {
            RegistryMode::Flooding => self.node_count as u64,
            RegistryMode::Dht { replicas } => replicas.min(self.node_count) as u64,
        };
        Ok(())
    }

    /// Look up a stream (accounts a remote round-trip in DHT mode).
    pub fn lookup(&mut self, name: &StreamName) -> Option<&RegisteredStream> {
        if matches!(self.mode, RegistryMode::Dht { .. }) && self.streams.contains_key(name) {
            self.control_messages += 2; // request + response
        }
        self.streams.get(name)
    }

    /// Look up without cost accounting (local cache hit).
    pub fn peek(&self, name: &StreamName) -> Option<&RegisteredStream> {
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

    /// Total control messages accounted so far.
    pub fn control_messages(&self) -> u64 {
        self.control_messages
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

    fn nodes(n: u32) -> impl Iterator<Item = NodeId> {
        (0..n).map(NodeId)
    }

    #[test]
    fn register_and_lookup() {
        let mut r = SchemaRegistry::new(RegistryMode::Flooding, nodes(4));
        r.register("S", schema(), NodeId(2)).unwrap();
        let name = StreamName::from("S");
        assert_eq!(r.lookup(&name).unwrap().origin, NodeId(2));
        assert_eq!(r.schema(&name), Some(&schema()));
        assert_eq!(r.origin(&name), Some(NodeId(2)));
        assert_eq!(r.len(), 1);
        assert!(!r.is_empty());
        assert_eq!(r.iter().count(), 1);
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut r = SchemaRegistry::new(RegistryMode::Flooding, nodes(4));
        r.register("S", schema(), NodeId(0)).unwrap();
        let err = r.register("S", schema(), NodeId(1)).unwrap_err();
        assert_eq!(err.kind(), "network");
    }

    #[test]
    fn flooding_costs_n_messages_per_stream() {
        let mut r = SchemaRegistry::new(RegistryMode::Flooding, nodes(10));
        r.register("S", schema(), NodeId(0)).unwrap();
        r.register("T", schema(), NodeId(0)).unwrap();
        assert_eq!(r.control_messages(), 20);
        // flooding lookups are free (every node has a local copy)
        r.lookup(&StreamName::from("S"));
        assert_eq!(r.control_messages(), 20);
    }

    #[test]
    fn dht_costs_replicas_plus_lookups() {
        let mut r = SchemaRegistry::new(RegistryMode::Dht { replicas: 3 }, nodes(10));
        r.register("S", schema(), NodeId(0)).unwrap();
        assert_eq!(r.control_messages(), 3);
        r.lookup(&StreamName::from("S"));
        assert_eq!(r.control_messages(), 5);
        // missing lookups do not panic and cost nothing
        assert!(r.lookup(&StreamName::from("missing")).is_none());
        assert_eq!(r.control_messages(), 5);
        // peek never accounts
        assert!(r.peek(&StreamName::from("S")).is_some());
        assert_eq!(r.control_messages(), 5);
    }

    #[test]
    fn unregister_removes() {
        let mut r = SchemaRegistry::new(RegistryMode::Flooding, nodes(2));
        r.register("S", schema(), NodeId(0)).unwrap();
        assert!(r.unregister(&StreamName::from("S")).is_some());
        assert!(r.unregister(&StreamName::from("S")).is_none());
        assert!(r.is_empty());
        // name is free again
        r.register("S", schema(), NodeId(1)).unwrap();
    }
}
