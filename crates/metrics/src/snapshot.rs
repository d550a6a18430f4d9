//! Serializable metrics snapshots.
//!
//! [`MetricsSnapshot`] is the external face of the metrics layer: a
//! versioned, deterministic (all vectors sorted) JSON document, shaped
//! like `NetworkSnapshot` so the same tooling conventions apply. The
//! `cosmos-sim metrics` subcommand dumps one per scenario, and the
//! testkit conservation oracle compares two of them for byte equality
//! across a replay.

use cosmos_types::{CosmosError, NodeId, QueryId, Result};
use serde::{Deserialize, Serialize};

/// Version stamp carried by every [`MetricsSnapshot`].
pub const METRICS_VERSION: u32 = 1;

/// Traffic over one undirected overlay link (`a < b`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkMetrics {
    /// Smaller endpoint.
    pub a: NodeId,
    /// Larger endpoint.
    pub b: NodeId,
    /// Lifetime tuples carried.
    pub tuples: u64,
    /// Lifetime bytes carried.
    pub bytes: u64,
    /// Windowed tuples per second.
    pub tuple_rate: f64,
    /// Windowed bytes per second.
    pub byte_rate: f64,
}

/// Traffic through one overlay node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeMetrics {
    /// The node.
    pub node: NodeId,
    /// Lifetime tuples sent onward.
    pub tx_tuples: u64,
    /// Lifetime bytes sent onward.
    pub tx_bytes: u64,
    /// Windowed outbound bytes per second.
    pub tx_byte_rate: f64,
    /// Lifetime tuples received.
    pub rx_tuples: u64,
    /// Lifetime bytes received.
    pub rx_bytes: u64,
    /// Windowed inbound bytes per second.
    pub rx_byte_rate: f64,
    /// Lifetime tuples consumed locally (deliveries + SPE intake).
    pub consumed_tuples: u64,
    /// Lifetime bytes consumed locally.
    pub consumed_bytes: u64,
    /// Windowed locally-consumed bytes per second — the measured
    /// per-node demand used by `Cosmos::autotune`.
    pub consumed_byte_rate: f64,
}

/// Observed statistics for one attribute of a stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttrMetrics {
    /// Attribute name.
    pub name: String,
    /// Non-null values sampled.
    pub samples: u64,
    /// Smallest sampled value (0 for categorical attributes).
    pub min: f64,
    /// Largest sampled value (0 for categorical attributes).
    pub max: f64,
    /// KMV estimate of distinct values.
    pub distinct: f64,
}

/// Observed behavior of one stream (source or operator result).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamMetrics {
    /// Stream name.
    pub stream: String,
    /// Lifetime tuples published.
    pub tuples: u64,
    /// Lifetime bytes published.
    pub bytes: u64,
    /// Windowed tuples per second.
    pub tuple_rate: f64,
    /// Windowed bytes per second.
    pub byte_rate: f64,
    /// Sampled per-attribute statistics.
    pub attrs: Vec<AttrMetrics>,
}

/// Delivery behavior of one continuous query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryMetrics {
    /// The query.
    pub query: QueryId,
    /// Lifetime result tuples delivered to the user.
    pub delivered_tuples: u64,
    /// Lifetime result bytes delivered.
    pub delivered_bytes: u64,
    /// Windowed delivered tuples per second.
    pub delivery_rate: f64,
    /// Mean virtual-time delivery latency over the query's lifetime.
    pub latency_avg_ms: f64,
    /// Worst virtual-time delivery latency seen.
    pub latency_max_ms: i64,
}

/// Aggregated content-based-network router counters (summed over all
/// node routers by the driver).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RouterTotals {
    /// Tuples routed onward by profile matching.
    pub tuples_routed: u64,
    /// Tuples dropped for lack of any matching interest.
    pub tuples_dropped: u64,
    /// Projection-plan cache hits.
    pub plan_hits: u64,
    /// Projection-plan cache misses.
    pub plan_misses: u64,
    /// Projections materialized (cache misses that built a plan).
    pub projections_built: u64,
    /// Plans currently cached across routers.
    pub cached_plans: u64,
}

impl RouterTotals {
    /// Fold one router's counter block (plus its current plan-store
    /// occupancy) into the deployment totals — sums of
    /// [`cosmos_cbn::RouterCounters::merge`]-compatible blocks, never
    /// reconstructed field by field.
    pub fn fold_counters(&mut self, c: &cosmos_cbn::RouterCounters, cached_plans: u64) {
        self.tuples_routed += c.tuples_routed;
        self.tuples_dropped += c.tuples_dropped;
        self.plan_hits += c.plan_hits;
        self.plan_misses += c.plan_misses;
        self.projections_built += c.projections_built;
        self.cached_plans += cached_plans;
    }
}

/// A deterministic point-in-time view of every metric the system keeps.
///
/// `Serialize`/`Deserialize` are written by hand (the vendored derive
/// supports no field attributes): the punctuation counters are omitted
/// from JSON when zero and default to zero when absent, so in-order
/// runs produce byte-identical snapshots to the pre-disorder format and
/// old documents still parse.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Format version ([`METRICS_VERSION`]).
    pub version: u32,
    /// Virtual time the snapshot was taken at.
    pub now_ms: i64,
    /// Per-link traffic, sorted by `(a, b)`.
    pub links: Vec<LinkMetrics>,
    /// Per-node traffic, sorted by node.
    pub nodes: Vec<NodeMetrics>,
    /// Per-stream observations, sorted by name.
    pub streams: Vec<StreamMetrics>,
    /// Per-query delivery metrics, sorted by query id.
    pub queries: Vec<QueryMetrics>,
    /// Aggregated CBN router counters.
    pub router: RouterTotals,
    /// Watermark punctuation datagrams disseminated (disorder mode).
    pub punctuations: u64,
    /// Link bytes spent on punctuation datagrams (included in the
    /// per-link totals above; broken out for the disorder sweep).
    pub punctuation_bytes: u64,
    /// Result tuples dropped by the overload gate. Never silent: each
    /// is also counted in its query's ledger, which holds
    /// offered = delivered + shed.
    pub shed_tuples: u64,
    /// Result bytes dropped by the overload gate.
    pub shed_bytes: u64,
}

impl serde::Serialize for MetricsSnapshot {
    fn to_content(&self) -> serde::Content {
        let mut entries = vec![
            ("version", self.version.to_content()),
            ("now_ms", self.now_ms.to_content()),
            ("links", self.links.to_content()),
            ("nodes", self.nodes.to_content()),
            ("streams", self.streams.to_content()),
            ("queries", self.queries.to_content()),
            ("router", self.router.to_content()),
        ];
        if self.punctuations != 0 {
            entries.push(("punctuations", self.punctuations.to_content()));
        }
        if self.punctuation_bytes != 0 {
            entries.push(("punctuation_bytes", self.punctuation_bytes.to_content()));
        }
        if self.shed_tuples != 0 {
            entries.push(("shed_tuples", self.shed_tuples.to_content()));
        }
        if self.shed_bytes != 0 {
            entries.push(("shed_bytes", self.shed_bytes.to_content()));
        }
        serde::Content::Map(
            entries
                .into_iter()
                .map(|(k, v)| (serde::Content::Str(k.to_string()), v))
                .collect(),
        )
    }
}

impl serde::Deserialize for MetricsSnapshot {
    fn from_content(c: &serde::Content) -> std::result::Result<Self, serde::DeError> {
        let opt_u64 = |key: &str| -> std::result::Result<u64, serde::DeError> {
            match serde::map_get(c, key) {
                Ok(v) => serde::Deserialize::from_content(v),
                Err(_) => Ok(0),
            }
        };
        Ok(MetricsSnapshot {
            version: serde::Deserialize::from_content(serde::map_get(c, "version")?)?,
            now_ms: serde::Deserialize::from_content(serde::map_get(c, "now_ms")?)?,
            links: serde::Deserialize::from_content(serde::map_get(c, "links")?)?,
            nodes: serde::Deserialize::from_content(serde::map_get(c, "nodes")?)?,
            streams: serde::Deserialize::from_content(serde::map_get(c, "streams")?)?,
            queries: serde::Deserialize::from_content(serde::map_get(c, "queries")?)?,
            router: serde::Deserialize::from_content(serde::map_get(c, "router")?)?,
            punctuations: opt_u64("punctuations")?,
            punctuation_bytes: opt_u64("punctuation_bytes")?,
            shed_tuples: opt_u64("shed_tuples")?,
            shed_bytes: opt_u64("shed_bytes")?,
        })
    }
}

impl MetricsSnapshot {
    /// Serialize to JSON.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self)
            .map_err(|e| CosmosError::System(format!("metrics serialize: {e}")))
    }

    /// Parse a snapshot back from JSON, rejecting unknown versions.
    pub fn from_json(text: &str) -> Result<MetricsSnapshot> {
        let snap: MetricsSnapshot = serde_json::from_str(text)
            .map_err(|e| CosmosError::System(format!("metrics parse: {e}")))?;
        if snap.version != METRICS_VERSION {
            return Err(CosmosError::System(format!(
                "metrics version {} unsupported (expected {METRICS_VERSION})",
                snap.version
            )));
        }
        Ok(snap)
    }

    /// Lifetime bytes summed over every link — the left-hand side of
    /// the conservation check against the driver's `total_bytes()`.
    pub fn link_bytes_total(&self) -> u64 {
        self.links.iter().map(|l| l.bytes).sum()
    }

    /// Delivered-tuple count for `query`, zero if never delivered to.
    pub fn delivered_tuples(&self, query: QueryId) -> u64 {
        self.queries
            .iter()
            .find(|q| q.query == query)
            .map(|q| q.delivered_tuples)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_is_checked_on_parse() {
        let snap = MetricsSnapshot {
            version: METRICS_VERSION,
            now_ms: 0,
            links: Vec::new(),
            nodes: Vec::new(),
            streams: Vec::new(),
            queries: Vec::new(),
            router: RouterTotals::default(),
            punctuations: 0,
            punctuation_bytes: 0,
            shed_tuples: 0,
            shed_bytes: 0,
        };
        let mut json = snap.to_json().expect("serialize");
        assert!(MetricsSnapshot::from_json(&json).is_ok());
        assert!(
            !json.contains("punctuation"),
            "zero punctuation counters must not appear in JSON: {json}"
        );
        assert!(
            !json.contains("shed"),
            "zero overload counters must not appear in JSON: {json}"
        );
        json = json.replace("\"version\":1", "\"version\":999");
        let err = MetricsSnapshot::from_json(&json).expect_err("bad version");
        assert!(err.to_string().contains("999"), "{err}");
    }
}
