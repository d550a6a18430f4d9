//! A serializable, self-contained picture of a deployed [`crate::Cosmos`]:
//! every dissemination tree, every router's reverse-path interests and
//! local subscriptions, every advertisement, every query group with its
//! representative and re-tightened member profiles, and every query the
//! CBN serves alone.
//!
//! The snapshot is the introspection boundary between the live system
//! and `cosmos-verify`, which proves the V1–V5 network invariants over
//! it *statically* — so everything here is plain data with public
//! fields, serde round-trippable, and carries queries as CQL text
//! (`AnalyzedQuery` has no serde form; the verifier re-analyzes the text
//! against the snapshot's own advertised schemas).

use cosmos_cbn::Profile;
use cosmos_types::{CosmosError, NodeId, QueryId, Result, Schema, StreamName, SubscriberId};
use serde::{Deserialize, Serialize};

/// Snapshot format version, bumped on breaking shape changes.
pub const SNAPSHOT_VERSION: u32 = 1;

/// One dissemination tree, as raw `(parent, child)` edges. Deliberately
/// *not* a [`cosmos_overlay::Tree`]: the verifier re-checks acyclicity,
/// connectivity, and rootedness from the edge list instead of trusting
/// the invariants `Tree::from_edges` enforced at construction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreeTopology {
    /// Root node (for per-source trees: the advertising origin).
    pub root: NodeId,
    /// Number of overlay nodes the tree must span.
    pub node_count: usize,
    /// Directed `(parent, child)` edges.
    pub edges: Vec<(NodeId, NodeId)>,
}

/// One advertised stream: sources and result streams alike.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Advertisement {
    pub stream: StreamName,
    /// Node the stream enters the network at (tree root in multi-tree
    /// mode; for result streams, the producing processor).
    pub origin: NodeId,
    pub schema: Schema,
}

/// What a local subscription is for.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SubscriberKind {
    /// An SPE input feeding the representative executor of a result
    /// stream at its processor.
    SpeInput { result_stream: StreamName },
    /// A user's result-retrieval subscription for a query.
    User { query: QueryId },
}

/// One local subscriber registered at a router.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LocalSubscriber {
    pub id: SubscriberId,
    pub kind: SubscriberKind,
    /// The installed data-interest profile `⟨S, P, F⟩`.
    pub profile: Profile,
}

/// One router's complete routing state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouterState {
    pub node: NodeId,
    /// Reverse-path interests: `(downstream neighbor, merged profile)`.
    pub neighbor_interests: Vec<(NodeId, Profile)>,
    pub local_subscribers: Vec<LocalSubscriber>,
}

/// One member of a query group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemberSnapshot {
    pub query: QueryId,
    /// The member query, unparsed back to CQL.
    pub cql: String,
    /// Node where the user subscribed.
    pub user: NodeId,
    /// The user's result subscription id (its installed profile is the
    /// member's re-tightened split profile — find it in
    /// [`RouterState::local_subscribers`] at `user`).
    pub user_sub: SubscriberId,
    /// The re-tightened split profile the query manager derived for this
    /// member (what *should* be installed at `user`).
    pub split_profile: Profile,
}

/// One query group: a representative executor serving its members'
/// shared result stream. Baseline (non-merging) deployments appear as
/// singleton groups whose representative *is* the member.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupSnapshot {
    /// Processor hosting the representative executor.
    pub processor: NodeId,
    pub result_stream: StreamName,
    /// The representative query, unparsed back to CQL.
    pub representative_cql: String,
    pub members: Vec<MemberSnapshot>,
}

/// One query the CBN serves alone: a single-stream select-project query
/// of an in-order deployment, whose user subscribes straight to the
/// source stream with the query's selection and output attributes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DirectSnapshot {
    pub query: QueryId,
    /// The query, unparsed back to CQL.
    pub cql: String,
    /// Node where the user subscribed.
    pub user: NodeId,
    /// The user's subscription id (find its installed profile in
    /// [`RouterState::local_subscribers`] at `user`).
    pub user_sub: SubscriberId,
}

/// One query's overload-conservation ledger, as captured from the
/// armed [`crate::overload::OverloadController`]. The verifier checks
/// the identity `offered = delivered + shed` (tuples and bytes) and
/// that a query with ledger traffic still has its user subscription
/// installed — shedding must never black-hole a retained query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OverloadLedgerSnapshot {
    pub query: QueryId,
    pub offered_tuples: u64,
    pub offered_bytes: u64,
    pub delivered_tuples: u64,
    pub delivered_bytes: u64,
    pub shed_tuples: u64,
    pub shed_bytes: u64,
}

/// The whole-network snapshot `cosmos-verify` analyzes.
///
/// `Serialize`/`Deserialize` are written by hand (the vendored derive
/// supports no field attributes): `direct`, `closed_streams` and
/// `overload` are omitted from JSON when empty and default to empty when
/// absent, so snapshots without them keep their exact earlier byte shape
/// and old documents parse.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSnapshot {
    pub version: u32,
    /// Whether query merging (Section 4) was enabled.
    pub merging_enabled: bool,
    /// Number of overlay nodes.
    pub nodes: usize,
    /// The shared dissemination tree (MST).
    pub shared_tree: TreeTopology,
    /// Per-origin shortest-path trees (multi-tree mode); an origin
    /// absent here disseminates along [`NetworkSnapshot::shared_tree`].
    pub source_trees: Vec<TreeTopology>,
    pub advertisements: Vec<Advertisement>,
    /// Every router, indexed by node id.
    pub routers: Vec<RouterState>,
    pub groups: Vec<GroupSnapshot>,
    /// Queries the CBN serves alone, in query order; empty out of order.
    pub direct: Vec<DirectSnapshot>,
    /// Source streams closed by their final watermark (disorder mode);
    /// their interest entries have been pruned from every router, so
    /// path invariants are not checkable for them. Sorted; empty for
    /// in-order deployments.
    pub closed_streams: Vec<StreamName>,
    /// Per-query overload ledgers (query order); empty when no
    /// overload controller is armed.
    pub overload: Vec<OverloadLedgerSnapshot>,
}

impl Serialize for NetworkSnapshot {
    fn to_content(&self) -> serde::Content {
        let mut entries = vec![
            ("version", self.version.to_content()),
            ("merging_enabled", self.merging_enabled.to_content()),
            ("nodes", self.nodes.to_content()),
            ("shared_tree", self.shared_tree.to_content()),
            ("source_trees", self.source_trees.to_content()),
            ("advertisements", self.advertisements.to_content()),
            ("routers", self.routers.to_content()),
            ("groups", self.groups.to_content()),
        ];
        if !self.direct.is_empty() {
            entries.push(("direct", self.direct.to_content()));
        }
        if !self.closed_streams.is_empty() {
            entries.push(("closed_streams", self.closed_streams.to_content()));
        }
        if !self.overload.is_empty() {
            entries.push(("overload", self.overload.to_content()));
        }
        serde::Content::Map(
            entries
                .into_iter()
                .map(|(k, v)| (serde::Content::Str(k.to_string()), v))
                .collect(),
        )
    }
}

impl Deserialize for NetworkSnapshot {
    fn from_content(c: &serde::Content) -> std::result::Result<Self, serde::DeError> {
        Ok(NetworkSnapshot {
            version: Deserialize::from_content(serde::map_get(c, "version")?)?,
            merging_enabled: Deserialize::from_content(serde::map_get(c, "merging_enabled")?)?,
            nodes: Deserialize::from_content(serde::map_get(c, "nodes")?)?,
            shared_tree: Deserialize::from_content(serde::map_get(c, "shared_tree")?)?,
            source_trees: Deserialize::from_content(serde::map_get(c, "source_trees")?)?,
            advertisements: Deserialize::from_content(serde::map_get(c, "advertisements")?)?,
            routers: Deserialize::from_content(serde::map_get(c, "routers")?)?,
            groups: Deserialize::from_content(serde::map_get(c, "groups")?)?,
            direct: match serde::map_get(c, "direct") {
                Ok(v) => Deserialize::from_content(v)?,
                Err(_) => Vec::new(),
            },
            closed_streams: match serde::map_get(c, "closed_streams") {
                Ok(v) => Deserialize::from_content(v)?,
                Err(_) => Vec::new(),
            },
            overload: match serde::map_get(c, "overload") {
                Ok(v) => Deserialize::from_content(v)?,
                Err(_) => Vec::new(),
            },
        })
    }
}

impl NetworkSnapshot {
    /// The dissemination tree a stream rooted at `origin` uses.
    pub fn tree_for(&self, origin: NodeId) -> &TreeTopology {
        self.source_trees
            .iter()
            .find(|t| t.root == origin)
            .unwrap_or(&self.shared_tree)
    }

    /// The advertisement for a stream, if any.
    pub fn advertisement(&self, stream: &StreamName) -> Option<&Advertisement> {
        self.advertisements.iter().find(|a| &a.stream == stream)
    }

    /// Serialize to JSON (the `cosmos-verify` CLI input format).
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self)
            .map_err(|e| CosmosError::System(format!("snapshot serialize: {e}")))
    }

    /// Parse a snapshot back from JSON, rejecting unknown versions.
    pub fn from_json(text: &str) -> Result<NetworkSnapshot> {
        let snap: NetworkSnapshot = serde_json::from_str(text)
            .map_err(|e| CosmosError::System(format!("snapshot parse: {e}")))?;
        if snap.version != SNAPSHOT_VERSION {
            return Err(CosmosError::System(format!(
                "snapshot version {} unsupported (expected {SNAPSHOT_VERSION})",
                snap.version
            )));
        }
        Ok(snap)
    }
}
