//! The one adapter between the benchmark and the system under test.
//!
//! Every call into a workspace crate is made in this file, so the
//! benchmark's dependency on the workspace API is readable in one place
//! and a reshaped API costs one edit here. The surface is deliberately
//! the part ROADMAP item 2 keeps: `Cosmos::{new, register_stream,
//! submit_query, unsubscribe, publish_batch, close_streams,
//! set_disorder, results, total_bytes, tuples_published, router,
//! snapshot, metrics, metrics_hub, rebuild_routes, reoptimize_groups,
//! optimize_tree, autotune, disorder_totals}` plus the layer
//! functions the per-layer table names. Not used, because items 1–2
//! delete or reshape them: `run`/`run_batched`, `set_plan_caching`,
//! `NaiveMatcher`, `set_parallelism`, `set_metrics_enabled`, and the
//! `autotune_runs`/`autotune_rollbacks`/`last_autotune` accessors.

use cosmos::snapshot::SubscriberKind;
use cosmos::{AutotuneOptions, Cosmos, CosmosConfig, DisorderRuntime, LatePolicy};
use cosmos_cbn::{CountingMatcher, MatchEngine};
use cosmos_metrics::{MetricsConfig, MetricsHub};
use cosmos_query::{GroupManager, StatsCatalog};
use cosmos_spe::{AnalyzedQuery, Executor};
use cosmos_workload::sensor::stream_name;
use cosmos_workload::{sensor_catalog, QueryGenerator, SensorGenerator};

pub use cosmos::snapshot::NetworkSnapshot;
pub use cosmos_cbn::{BatchForward, Destination, RouterCounters};
pub use cosmos_types::{
    NodeId, QueryId, Schema, StreamName, SubscriberId, Timestamp, Tuple, Value,
};
pub use cosmos_workload::{DisorderSpec, QueryGenConfig};

/// Errors from the system under test, flattened to text: the benchmark
/// only counts and prints them.
pub type Result<T> = std::result::Result<T, String>;

fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// The error-level findings of a lint, bound or verify pass, as text.
fn errors(diagnostics: Vec<cosmos_lint::Diagnostic>) -> Vec<String> {
    diagnostics
        .into_iter()
        .filter(|d| d.severity == cosmos_lint::Severity::Error)
        .map(|d| format!("{}: {}", d.code, d.message))
        .collect()
}

/// A deployed system under test.
pub struct Sut(Cosmos);

/// Out-of-order ingestion counters of a deployment or a replica.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DisorderCounts {
    pub conserved: bool,
    pub shed: u64,
    pub duplicates: u64,
    pub staged: u64,
}

impl Sut {
    /// `Cosmos::new` on a Barabási–Albert overlay; everything but the
    /// three arguments is the deployment default (shared tree, merging
    /// on, one affinity candidate, serial driver, metrics on).
    pub fn deploy(nodes: usize, processor_fraction: f64, seed: u64) -> Result<Sut> {
        Cosmos::new(CosmosConfig {
            nodes,
            processor_fraction,
            seed,
            ..CosmosConfig::default()
        })
        .map(Sut)
        .map_err(text)
    }

    /// Advertise sensor deployment `index` at `origin` with the sensor
    /// catalog's schema and statistics.
    pub fn register_sensor_stream(
        &mut self,
        catalog: &Catalog,
        index: usize,
        origin: NodeId,
    ) -> Result<()> {
        let name = StreamName::from(stream_name(index).as_str());
        let schema = catalog
            .0
            .schema(&name)
            .ok_or("unknown sensor stream")?
            .clone();
        let stats = catalog
            .0
            .stats(&name)
            .ok_or("unknown sensor stream")?
            .clone();
        self.0
            .register_stream(name, schema, stats, origin)
            .map_err(text)
    }

    pub fn submit_query(&mut self, cql: &str, user: NodeId) -> Result<QueryId> {
        self.0.submit_query(cql, user).map_err(text)
    }

    pub fn unsubscribe(&mut self, qid: QueryId) -> Result<()> {
        self.0.unsubscribe(qid).map_err(text)
    }

    pub fn publish_batch(&mut self, tuples: &[Tuple]) -> Result<()> {
        self.0.publish_batch(tuples).map_err(text)
    }

    pub fn close_streams(&mut self) {
        self.0.close_streams();
    }

    /// Arm out-of-order operation with the `Drop` late policy.
    pub fn set_disorder(&mut self, bound_ms: i64) {
        self.0.set_disorder(Some(DisorderRuntime {
            bound: cosmos_types::TimeDelta::from_millis(bound_ms),
            policy: LatePolicy::Drop,
        }));
    }

    pub fn results(&self, qid: QueryId) -> &[Tuple] {
        self.0.results(qid)
    }

    pub fn total_bytes(&self) -> u64 {
        self.0.total_bytes()
    }

    pub fn tuples_published(&self) -> u64 {
        self.0.tuples_published()
    }

    /// `Router::route_batch` at node `at` (the router is `&self`).
    pub fn route_batch(
        &self,
        at: NodeId,
        tuples: &[Tuple],
        schema: &Schema,
        from: Option<NodeId>,
    ) -> Vec<BatchForward> {
        self.0.router(at).route_batch(tuples, schema, from)
    }

    /// `Router::route_punctuation` at node `at`.
    pub fn route_punctuation(
        &self,
        at: NodeId,
        stream: &StreamName,
        from: Option<NodeId>,
    ) -> Vec<Destination> {
        self.0.router(at).route_punctuation(stream, from)
    }

    /// Sum of every router's counter block.
    pub fn router_counters(&self, nodes: usize) -> RouterCounters {
        let mut total = RouterCounters::default();
        for n in 0..nodes {
            total.merge(&self.0.router(NodeId(n as u32)).counters());
        }
        total
    }

    pub fn snapshot(&self) -> Result<NetworkSnapshot> {
        self.0.snapshot().map_err(text)
    }

    /// `Cosmos::metrics()`, reduced to its serialized size so the call
    /// cannot be optimized away.
    pub fn metrics_snapshot_len(&self) -> Result<usize> {
        self.0.metrics().to_json().map(|s| s.len()).map_err(text)
    }

    /// Link bytes as the metrics hub counted them (the PR-5
    /// conservation identity says this equals `total_bytes`).
    pub fn hub_link_bytes(&self) -> u64 {
        self.0.metrics_hub().link_bytes_total()
    }

    /// Bytes the hub attributes to watermark punctuations.
    pub fn hub_punctuation_bytes(&self) -> u64 {
        self.0.metrics_hub().punctuation_totals().1
    }

    pub fn rebuild_routes(&mut self) {
        self.0.rebuild_routes();
    }

    pub fn reoptimize_groups(&mut self) -> Result<usize> {
        self.0.reoptimize_groups().map_err(text)
    }

    /// `optimize_tree` with the default optimizer; returns the moves.
    pub fn optimize_tree(&mut self) -> usize {
        self.0
            .optimize_tree(cosmos_overlay::OptimizerConfig::default())
            .moves
    }

    /// One manual self-tuning pass with default options.
    pub fn autotune(&mut self) -> Result<()> {
        self.0
            .autotune(&AutotuneOptions::default())
            .map(|_| ())
            .map_err(text)
    }

    pub fn disorder_counts(&self) -> DisorderCounts {
        let t = self.0.disorder_totals();
        DisorderCounts {
            conserved: t.conserved(),
            shed: t.shed,
            duplicates: t.duplicates,
            staged: t.staged,
        }
    }
}

// ------------------------------------------------------------ snapshot

/// What a local subscription feeds, read off a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubKind {
    /// The SPE input of the representative producing `result_stream`.
    Spe(StreamName),
    /// A user's result subscription.
    User(QueryId),
}

/// The parts of a [`NetworkSnapshot`] the shadow dissemination needs.
pub struct SnapshotView {
    /// Subscriber → what it feeds.
    pub subs: Vec<(SubscriberId, SubKind)>,
    /// Advertised stream → (origin, schema), sources and results alike.
    pub ads: Vec<(StreamName, NodeId, Schema)>,
    /// One entry per query group.
    pub groups: Vec<GroupView>,
    /// `(parent, child)` edges of the shared dissemination tree.
    pub tree_edges: Vec<(NodeId, NodeId)>,
    pub nodes: usize,
}

/// One query group of a snapshot.
pub struct GroupView {
    pub processor: NodeId,
    pub result_stream: StreamName,
    pub representative_cql: String,
    pub members: Vec<QueryId>,
}

pub fn view(snap: &NetworkSnapshot) -> SnapshotView {
    let subs = snap
        .routers
        .iter()
        .flat_map(|r| r.local_subscribers.iter())
        .map(|s| {
            let kind = match &s.kind {
                SubscriberKind::SpeInput { result_stream } => SubKind::Spe(result_stream.clone()),
                SubscriberKind::User { query } => SubKind::User(*query),
            };
            (s.id, kind)
        })
        .collect();
    SnapshotView {
        subs,
        ads: snap
            .advertisements
            .iter()
            .map(|a| (a.stream.clone(), a.origin, a.schema.clone()))
            .collect(),
        groups: snap
            .groups
            .iter()
            .map(|g| GroupView {
                processor: g.processor,
                result_stream: g.result_stream.clone(),
                representative_cql: g.representative_cql.clone(),
                members: g.members.iter().map(|m| m.query).collect(),
            })
            .collect(),
        tree_edges: snap.shared_tree.edges.clone(),
        nodes: snap.nodes,
    }
}

pub fn snapshot_json_len(snap: &NetworkSnapshot) -> Result<usize> {
    snap.to_json().map(|s| s.len()).map_err(text)
}

/// `cosmos_verify::verify_snapshot`: the error-level findings.
pub fn verify_violations(snap: &NetworkSnapshot) -> Vec<String> {
    errors(cosmos_verify::verify_snapshot(snap))
}

// ------------------------------------------------- control-plane layers

/// The schemas and statistics queries are analyzed and grouped
/// against: the sensor catalog.
pub struct Catalog(StatsCatalog);

impl Catalog {
    pub fn sensors() -> Catalog {
        Catalog(sensor_catalog())
    }
}

/// A query after `parse_query_spanned`.
pub struct Parsed(cosmos_cql::SpannedQuery);

/// A query after `AnalyzedQuery::analyze`.
#[derive(Clone)]
pub struct Analyzed(AnalyzedQuery);

pub fn parse(cql: &str) -> Result<Parsed> {
    cosmos_cql::parse_query_spanned(cql)
        .map(Parsed)
        .map_err(text)
}

/// `cosmos_lint::check_query_with`: the error-level findings.
pub fn lint(parsed: &Parsed, catalog: &Catalog) -> Vec<String> {
    errors(cosmos_lint::check_query_with(
        &parsed.0,
        catalog.0.schema_fn(),
    ))
}

pub fn analyze(parsed: &Parsed, catalog: &Catalog) -> Result<Analyzed> {
    AnalyzedQuery::analyze(&parsed.0.query, catalog.0.schema_fn())
        .map(Analyzed)
        .map_err(text)
}

/// `cosmos_bound::check_query`: the error-level findings.
pub fn bound_check(q: &Analyzed) -> Vec<String> {
    errors(cosmos_bound::check_query(&q.0))
}

impl Analyzed {
    /// Names of the streams the query reads.
    pub fn streams(&self) -> Vec<String> {
        self.0
            .streams
            .iter()
            .map(|b| b.stream.as_str().to_string())
            .collect()
    }

    /// Delivery is unaffected by executor restarts (cosmos-testkit's
    /// `stateless` epoch rule: no aggregate, one stream, no DISTINCT).
    pub fn is_stateless(&self) -> bool {
        !self.0.is_aggregate() && self.0.streams.len() == 1 && !self.0.distinct
    }
}

/// A replica `GroupManager` fed the same insert sequence as the system.
pub struct Grouping(GroupManager);

impl Grouping {
    pub fn replica() -> Grouping {
        Grouping(GroupManager::new("replica"))
    }

    pub fn insert(&mut self, qid: u64, q: Analyzed, catalog: &Catalog) -> Result<()> {
        self.0
            .insert(QueryId(qid), q.0, &catalog.0)
            .map(|_| ())
            .map_err(text)
    }
}

// ---------------------------------------------------- data-plane layers

/// A replica representative executor.
pub struct Replica {
    exec: Executor,
    schema: Schema,
}

impl Replica {
    /// Build the executor of a snapshot group from its CQL text.
    pub fn new(
        representative_cql: &str,
        result_stream: &StreamName,
        catalog: &Catalog,
        disorder: bool,
    ) -> Result<Replica> {
        let analyzed = analyze(&parse(representative_cql)?, catalog)?;
        let mut exec = Executor::new(analyzed.0, result_stream.clone()).map_err(text)?;
        if disorder {
            exec.enable_disorder(LatePolicy::Drop);
        }
        let schema = exec.result_schema().clone();
        Ok(Replica { exec, schema })
    }

    pub fn result_schema(&self) -> &Schema {
        &self.schema
    }

    pub fn push_projected_batch(&mut self, tuples: &[Tuple], schema: &Schema) -> Vec<Tuple> {
        self.exec.push_projected_batch(tuples, schema)
    }

    pub fn advance_watermark(&mut self, stream: &StreamName, watermark: Timestamp) -> Vec<Tuple> {
        self.exec.advance_watermark(stream, watermark)
    }

    pub fn frontier(&self) -> Option<Timestamp> {
        self.exec.frontier()
    }

    /// `(total retained rows, of which staged)`.
    pub fn state_rows(&self) -> (usize, usize) {
        let s = self.exec.state_size();
        (s.total_rows(), s.staging_rows)
    }

    pub fn disorder_counts(&self) -> DisorderCounts {
        self.exec
            .disorder_stats()
            .map(|t| DisorderCounts {
                conserved: t.conserved(),
                shed: t.shed,
                duplicates: t.duplicates,
                staged: t.staged,
            })
            .unwrap_or_default()
    }
}

/// A replica metrics hub with the deployment-default configuration.
pub struct Hub(MetricsHub);

impl Hub {
    pub fn replica() -> Hub {
        Hub(MetricsHub::new(MetricsConfig::default()))
    }

    pub fn on_publish(&mut self, stream: &StreamName, schema: &Schema, tuples: &[Tuple]) {
        self.0.on_publish(stream, schema, tuples);
    }

    pub fn on_link(&mut self, from: NodeId, to: NodeId, tuples: usize, bytes: usize) {
        self.0.on_link(from, to, tuples, bytes);
    }

    pub fn on_delivery(&mut self, qid: QueryId, node: NodeId, tuples: &[Tuple]) {
        self.0.on_delivery(qid, node, tuples);
    }

    pub fn on_spe_intake(&mut self, node: NodeId, tuples: &[Tuple]) {
        self.0.on_spe_intake(node, tuples);
    }

    pub fn on_punctuation(&mut self, bytes: usize) {
        self.0.on_punctuation(bytes);
    }

    pub fn link_bytes_total(&self) -> u64 {
        self.0.link_bytes_total()
    }
}

/// Wire size of one watermark punctuation for `stream`.
pub fn punctuation_bytes(stream: &StreamName, watermark: Timestamp) -> usize {
    cosmos_types::Punctuation::new(stream.clone(), watermark).size_bytes()
}

/// A replica `CountingMatcher` loaded with one router's interests.
pub struct Matcher(CountingMatcher<Destination>);

impl Matcher {
    /// Load node `at`'s neighbour and local profiles from a snapshot.
    pub fn of_router(snap: &NetworkSnapshot, at: NodeId) -> Matcher {
        let mut m = CountingMatcher::new();
        if let Some(r) = snap.routers.iter().find(|r| r.node == at) {
            for (n, p) in &r.neighbor_interests {
                m.insert(Destination::Neighbor(*n), p.clone());
            }
            for s in &r.local_subscribers {
                m.insert(Destination::Local(s.id), s.profile.clone());
            }
        }
        Matcher(m)
    }

    /// `matches_batch`; returns the number of (tuple, profile) matches.
    pub fn matches_batch(&self, tuples: &[Tuple], schema: &Schema) -> usize {
        self.0
            .matches_batch(tuples, schema)
            .iter()
            .map(Vec::len)
            .sum()
    }
}

// ------------------------------------------------------------ reference

/// What `results(qid)` must equal: the reference evaluator's output for
/// the query's own text over `inputs`, normalized like the delivery.
pub fn expected_results(q: &Analyzed, inputs: &[Tuple]) -> Vec<(Timestamp, Vec<Value>)> {
    let names: Vec<String> = q.0.output_schema.names().map(str::to_string).collect();
    cosmos_testkit::normalize_expected(&cosmos_spe::oracle::evaluate(&q.0, "ref", inputs), &names)
}

pub fn normalize_delivered(tuples: &[Tuple]) -> Vec<(Timestamp, Vec<Value>)> {
    cosmos_testkit::normalize_delivered(tuples)
}

// ------------------------------------------------------------ generators

/// The first `n` tuples of sensor deployment `index`.
pub struct Sensor(SensorGenerator);

impl Sensor {
    pub fn new(index: usize, seed: u64) -> Sensor {
        Sensor(SensorGenerator::new(index, seed))
    }

    pub fn next_tuple(&mut self) -> Tuple {
        self.0.next_tuple()
    }

    /// All tuples with a timestamp below `until_ms`.
    pub fn tuples_until(&mut self, until_ms: i64) -> Vec<Tuple> {
        self.0.tuples_until(until_ms)
    }
}

/// CQL text generator over the sensor catalog.
pub struct Queries(QueryGenerator);

impl Queries {
    pub fn new(cfg: QueryGenConfig, seed: u64) -> Queries {
        Queries(QueryGenerator::new(cfg, seed))
    }

    pub fn next_query(&mut self) -> String {
        self.0.next_query()
    }
}

pub fn sensor_stream_name(index: usize) -> String {
    stream_name(index)
}
