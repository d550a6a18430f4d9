//! The deployed COSMOS system: nodes, routing, query management, and the
//! discrete-event driver.

use crate::autotune::{AutotuneOptions, AutotunePass, AutotunePolicy, AutotuneStatus};
use crate::overload::{Action, OverloadConfig, OverloadController};
use cosmos_cbn::{
    BatchForward, Destination, Profile, ProfileEntry, RegistryMode, Router, SchemaRegistry,
};
use cosmos_metrics::{relative_drift, MetricsConfig, MetricsHub, MetricsSnapshot, RouterTotals};
use cosmos_overlay::{generate, minimum_spanning_tree, Graph, TopologyKind, Tree};
use cosmos_query::{GroupChange, GroupManager, StatsCatalog, StreamStats};
use cosmos_spe::{AnalyzedQuery, DisorderStats, Executor, LatePolicy, StateSize};
use cosmos_types::{
    CosmosError, FxHashMap, NeumaierSum, NodeId, Punctuation, QueryId, RateLimit, Result, Schema,
    StreamName, SubscriberId, TimeDelta, Timestamp, Tuple,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// What a server contributes to the system (Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRole {
    /// Routes data only (data layer).
    Broker,
    /// Routes data and hosts an SPE (data layer + query layer).
    Processor,
}

/// Configuration of a COSMOS deployment.
#[derive(Debug, Clone)]
pub struct CosmosConfig {
    /// Number of overlay nodes.
    pub nodes: usize,
    /// Topology generator for the overlay.
    pub topology: TopologyKind,
    /// Fraction of nodes equipped with an SPE.
    pub processor_fraction: f64,
    /// Schema registry mode (flooding vs DHT).
    pub registry_mode: RegistryMode,
    /// Master seed (topology, placement).
    pub seed: u64,
    /// Number of candidate processors per stream set considered by the
    /// query distribution service. `1` maximizes merging opportunities
    /// (all queries over a stream set meet at one processor); larger
    /// values trade sharing for load balance.
    pub affinity_candidates: usize,
    /// Whether the query layer merges queries (Section 4). Disabling it
    /// reproduces the "Non-Share" baseline of Figure 3: every query gets
    /// its own result stream.
    pub merging_enabled: bool,
    /// "Currently the nodes in COSMOS are organized into multiple
    /// overlay dissemination trees" (Section 3.2). When enabled, every
    /// stream is disseminated along a shortest-path tree rooted at its
    /// origin instead of the single shared MST — lower delivery delay at
    /// the price of more per-node routing state.
    pub per_source_trees: bool,
}

impl Default for CosmosConfig {
    fn default() -> Self {
        CosmosConfig {
            nodes: 16,
            topology: TopologyKind::BarabasiAlbert { m: 2 },
            processor_fraction: 0.25,
            registry_mode: RegistryMode::Flooding,
            seed: 0,
            affinity_candidates: 1,
            merging_enabled: true,
            per_source_trees: false,
        }
    }
}

/// Out-of-order operation: how the deployed system copes with
/// disordered publishes (ISSUE: disorder injection / watermark
/// datagrams / late-tuple semantics).
///
/// When set via [`Cosmos::set_disorder`], the driver tracks the global
/// high water (the largest timestamp any accepted publish carried) and,
/// after every publish, emits per-stream watermark [`Punctuation`]
/// datagrams at `high_water − bound` along the dissemination trees.
/// Every representative executor runs in staged (out-of-order) intake
/// mode with the given late-tuple `policy`. When unset (the default),
/// behavior is bit-for-bit identical to in-order operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DisorderRuntime {
    /// How far watermarks lag behind the global high water. Sound when
    /// it covers the workload's maximum lateness (for the seeded
    /// `cosmos-workload` disorder transform: `DisorderSpec::bound()`).
    pub bound: TimeDelta,
    /// What executors do with tuples behind their watermark frontier.
    pub policy: LatePolicy,
}

/// Book-keeping of an armed [`AutotunePolicy`]: the public readout
/// (policy, lifetime pass/rollback counters, last pass) plus when the
/// last pass ran and how many consecutive rate windows exceeded the
/// drift threshold.
#[derive(Debug)]
struct AutotuneSched {
    status: AutotuneStatus,
    /// Virtual time of the last scheduled pass.
    last_run_ms: i64,
    /// Last rate-window ordinal the drift trigger evaluated.
    last_window: i64,
    /// Consecutive windows with drift above the threshold so far.
    over_windows: u32,
}

/// One result-stream production site: the representative executor
/// running at a processor.
#[derive(Debug)]
struct RepSite {
    processor: NodeId,
    executor: Executor,
    /// Generation stamp of this executor (see [`Cosmos::executor_generation`]).
    generation: u64,
    /// The SPE-input subscription feeding the executor.
    sub: SubscriberId,
}

/// Read-only view of one running representative executor's identity and
/// retained-state occupancy (see [`Cosmos::rep_states`]).
#[derive(Debug, Clone, Copy)]
pub struct RepStateView<'a> {
    /// The result stream the representative produces.
    pub result_stream: &'a StreamName,
    /// The processor hosting the executor.
    pub processor: NodeId,
    /// The representative query the executor runs.
    pub query: &'a AnalyzedQuery,
    /// Measured per-component state occupancy.
    pub state: StateSize,
    /// Out-of-order ingestion counters (`None` when disorder mode is
    /// off).
    pub disorder: Option<DisorderStats>,
    /// The executor's watermark frontier (`None` when disorder mode is
    /// off).
    pub frontier: Option<Timestamp>,
}

/// One hop of the dissemination BFS: a stream-homogeneous batch of
/// datagrams arriving at `at` over the link from `from` (`None` when
/// the batch entered the network at `at`).
#[derive(Debug)]
struct Hop {
    from: Option<NodeId>,
    at: NodeId,
    tuples: Vec<Tuple>,
    schema: Schema,
    /// Wire bytes of `tuples`, as accounted on the link from `from` (0
    /// when the batch entered at `at`): a relayed hop crosses its next
    /// link with the same tuples, so it is accounted from this count.
    bytes: usize,
}

/// The buffers [`Cosmos::disseminate`] works in, kept between calls so
/// the loop finds them grown instead of allocating per hop.
#[derive(Debug, Default)]
struct HopLoop {
    /// Hops still to route (empty between calls).
    queue: VecDeque<Hop>,
    /// The forwards of the hop being routed (empty between hops).
    forwards: Vec<BatchForward>,
    /// Emptied tuple buffers of routed hops and SPE-consumed forwards,
    /// which the routers fill the next forwards into; at most one per
    /// node ([`HopLoop::recycle`]).
    pool: Vec<Vec<Tuple>>,
}

impl HopLoop {
    /// Hand a consumed tuple buffer back. Buffers also enter the loop
    /// from outside the pool — every executor emission is a fresh `Vec`
    /// — and leave it only into user deliveries, so an uncapped pool
    /// grows by one buffer per emission nobody is delivered. A batch
    /// visits a node at most once, so `nodes` buffers cover the hops of
    /// one batch; the surplus is freed.
    fn recycle(&mut self, mut tuples: Vec<Tuple>, nodes: usize) {
        if self.pool.len() < nodes {
            tuples.clear();
            self.pool.push(tuples);
        }
    }
}

/// The buffers [`Cosmos::disseminate_watermark`] works in, kept between
/// calls like [`HopLoop`]'s — apart from it, because a walk drives
/// drained results through [`Cosmos::disseminate`] half-way.
#[derive(Debug, Default)]
struct PunctuationWalk {
    /// Punctuation hops still to route, as `(arrival link, node, stream,
    /// watermark)` (empty between calls).
    queue: VecDeque<(Option<NodeId>, NodeId, StreamName, Timestamp)>,
    /// The destinations of the hop being routed.
    dests: Vec<Destination>,
}

/// Upper bound on retained warning headlines per accepted query, so a
/// pathological submission cannot balloon [`Cosmos`]'s memory (entries
/// are also dropped on [`Cosmos::unsubscribe`]).
const MAX_LINT_WARNINGS_PER_QUERY: usize = 16;

/// The overlay and the dissemination trees laid over it (Figure 1).
#[derive(Debug)]
pub(crate) struct Topology {
    pub(crate) graph: Graph,
    /// The shared dissemination tree.
    pub(crate) tree: Tree,
    /// Per-origin shortest-path dissemination trees (lazily built, and
    /// only when `per_source_trees` is enabled).
    pub(crate) source_trees: BTreeMap<NodeId, Tree>,
    roles: Vec<NodeRole>,
    processors: Vec<NodeId>,
}

impl Topology {
    /// The dissemination tree used for streams originating at `origin`.
    fn tree_for(&self, origin: NodeId) -> &Tree {
        self.source_trees.get(&origin).unwrap_or(&self.tree)
    }

    /// Build the shortest-path dissemination tree rooted at a stream
    /// origin, unless it exists (multi-tree mode). A failed bridge can
    /// leave nodes no live overlay edge reaches: tree repairs heal over
    /// any live pair ([`cosmos_overlay::Graph::link_delay`]), shortest
    /// paths walk edges only. The origin then gets a copy of the shared
    /// tree, which spans every node.
    fn ensure_source_tree(&mut self, origin: NodeId) {
        if self.source_trees.contains_key(&origin) {
            return;
        }
        let sp = cosmos_overlay::dijkstra(&self.graph, origin);
        let edges: Option<Vec<(NodeId, NodeId)>> = self
            .graph
            .nodes()
            .filter(|&v| v != origin)
            .map(|v| {
                let path = sp.path_to(v);
                (path.len() >= 2).then(|| (path[path.len() - 2], v))
            })
            .collect();
        let tree = match edges {
            Some(edges) => Tree::from_edges(self.graph.node_count(), origin, &edges)
                .expect("a shortest-path tree spanning every node is a tree"),
            None => self.tree.clone(),
        };
        self.source_trees.insert(origin, tree);
    }
}

/// A routing cell `(up, down, stream)`: the interest router `up` holds
/// in `stream` for the subtree behind neighbor `down`.
type Cell = (NodeId, NodeId, StreamName);

/// One local subscription's interest in one stream: the normalised
/// entry, shared by every cell of its reverse path (subscriber first,
/// origin last).
type Contribution = (StreamName, Arc<ProfileEntry>, Vec<NodeId>);

/// One contributor of a cell: the subscription, its entry, and whether
/// it is an SPE input (an operator that reads the stream's punctuations).
type Contributor = (SubscriberId, Arc<ProfileEntry>, bool);

/// Reverse-path interest kept as the fold's inputs, not only its output.
/// Every cell lists its contributors in `SubscriberId` order; the entry
/// its router holds is their left fold (`union_with`), and the router
/// forwards the stream's punctuations over the cell iff any contributor
/// is an SPE input.
#[derive(Debug, Default)]
struct RouteLedger {
    /// Each cell's contributors; a cell nobody contributes to is absent.
    cells: BTreeMap<Cell, Vec<Contributor>>,
    /// What each local subscription contributes.
    subs: FxHashMap<SubscriberId, Vec<Contribution>>,
    /// Cells edited since the last refold.
    touched: BTreeSet<Cell>,
    /// The cells the last refold recomputed.
    #[cfg(test)]
    refolded: Vec<Cell>,
}

impl RouteLedger {
    /// Replace what subscription `sub` at `at` contributes by what
    /// `profile` does, leaving the cells of streams whose entry and path
    /// are unchanged alone. This is the one reverse-path walk: each
    /// stream's normalised entry goes to every cell of the path from `at`
    /// to the stream's origin along that origin's dissemination tree. A
    /// profile naming an unadvertised stream contributes nothing. `spe`
    /// says whether `sub` is an SPE input; a subscription never changes
    /// kind, so contributions it keeps keep their flag.
    fn set(
        &mut self,
        topology: &Topology,
        registry: &SchemaRegistry,
        at: NodeId,
        sub: SubscriberId,
        spe: bool,
        profile: &Profile,
    ) {
        let new: Option<Vec<Contribution>> = (profile.iter())
            .map(|(stream, entry)| {
                let origin = registry.origin(stream)?;
                let mut entry = entry.clone();
                entry.normalize();
                let path = topology.tree_for(origin).path(at, origin);
                Some((*stream, Arc::new(entry), path))
            })
            .collect();
        let mut new = new.unwrap_or_default();
        let (kept, gone): (Vec<_>, Vec<_>) = (self.subs.remove(&sub).unwrap_or_default())
            .into_iter()
            .partition(|c| new.contains(c));
        for (stream, _, path) in gone {
            for w in path.windows(2) {
                self.edit((w[1], w[0], stream), sub, None);
            }
        }
        for contribution in &mut new {
            if let Some(same) = kept.iter().find(|c| *c == contribution) {
                contribution.1 = Arc::clone(&same.1); // the one its cells hold
                continue;
            }
            let (stream, entry, path) = &*contribution;
            for w in path.windows(2) {
                self.edit((w[1], w[0], *stream), sub, Some((entry, spe)));
            }
        }
        if !new.is_empty() {
            self.subs.insert(sub, new);
        }
    }

    /// Insert `sub`'s `entry` (and SPE-input flag) among `cell`'s
    /// contributors, or withdraw it (`None`), and note the cell for the
    /// next refold.
    fn edit(&mut self, cell: Cell, sub: SubscriberId, entry: Option<(&Arc<ProfileEntry>, bool)>) {
        let list = self.cells.entry(cell).or_default();
        let at = list.partition_point(|(s, ..)| *s < sub);
        self.touched.insert(cell);
        match entry {
            Some((entry, spe)) => list.insert(at, (sub, Arc::clone(entry), spe)),
            None => {
                debug_assert_eq!(list.get(at).map(|c| c.0), Some(sub));
                list.remove(at);
            }
        }
        if list.is_empty() {
            self.cells.remove(&cell);
        }
    }
}

/// Everything the query layer knows about one live query.
#[derive(Debug)]
struct QueryRecord {
    user: NodeId,
    processor: NodeId,
    /// The user's subscription to the result stream.
    user_sub: SubscriberId,
    /// Warning-level lint findings (error-level findings reject the
    /// query at submission instead).
    lint_warnings: Vec<String>,
}

/// What a locally attached subscriber is.
#[derive(Debug)]
enum LocalSub {
    /// The SPE input of the representative producing this result stream.
    Spe(StreamName),
    /// The user subscription of this query.
    User(QueryId),
}

/// The id counters; each id is handed out once, in call order.
#[derive(Debug, Default)]
struct Ids {
    next_sub: u64,
    next_query: u64,
    /// Monotone counter stamped onto every freshly created executor.
    last_generation: u64,
}

impl Ids {
    fn sub(&mut self) -> SubscriberId {
        self.next_sub += 1;
        SubscriberId(self.next_sub - 1)
    }

    fn query(&mut self) -> QueryId {
        self.next_query += 1;
        QueryId(self.next_query - 1)
    }

    fn generation(&mut self) -> u64 {
        self.last_generation += 1;
        self.last_generation
    }
}

/// The driver's own traffic accounting (the metrics hub keeps a second,
/// windowed ledger the conservation oracle compares against this one;
/// [`Cosmos::set_metrics_config`] replaces the hub mid-life, so this one
/// cannot be read back from it).
#[derive(Debug, Default)]
struct Traffic {
    link_bytes: BTreeMap<(NodeId, NodeId), u64>,
    /// Compensated summation: the `compensated_sums` test of
    /// `cosmos-types` holds every oracle-feeding float accumulation to
    /// this standard.
    weighted_cost: NeumaierSum,
    tuples_published: u64,
}

/// Out-of-order operation: the runtime (`None` = in-order, zero
/// behavior change) and the watermark state it drives.
#[derive(Debug, Default)]
struct Disorder {
    runtime: Option<DisorderRuntime>,
    /// Largest timestamp any accepted publish carried.
    high_water: Option<Timestamp>,
    /// Last watermark emitted per stream (sources and, via executor
    /// frontier propagation, the result streams of running
    /// representatives — [`Cosmos::stop_rep`] removes a stopped one's).
    emitted: BTreeMap<StreamName, Timestamp>,
    /// Source streams that have published at least once — the streams
    /// watermarks are emitted for.
    published: BTreeSet<StreamName>,
    /// Disorder counters of executors that were replaced or torn down,
    /// folded in so [`Cosmos::disorder_totals`] stays conserved.
    retired: DisorderStats,
    /// Source streams closed by their final watermark
    /// ([`Cosmos::close_streams`]); their routing state is pruned.
    closed: BTreeSet<StreamName>,
    /// The punctuations [`Disorder::after_publish`] found due, as
    /// `(stream, watermark, origin)`; drained by the caller, kept for
    /// its buffer.
    due: Vec<(StreamName, Timestamp, NodeId)>,
}

impl Disorder {
    /// Put an executor into disorder mode (when on) and seed it with
    /// every watermark already emitted, so its frontier starts where
    /// the network's has advanced to instead of at −∞ (the executor
    /// ignores, and does not keep, those of streams it does not bind).
    fn arm(&self, executor: &mut Executor) {
        let Some(rt) = self.runtime else { return };
        executor.enable_disorder(rt.policy);
        for (s, wm) in &self.emitted {
            let outputs = executor.advance_watermark(s, *wm);
            debug_assert!(outputs.is_empty(), "fresh staging cannot drain");
        }
    }

    /// Epilogue of every publish (a no-op in in-order operation): note
    /// the stream, advance the global high water, and append to
    /// [`Disorder::due`] the punctuations now due — `high_water − bound`
    /// for every open source stream that has published, where it
    /// advances past the last one emitted. Lagging the *global* high
    /// water is what makes the promise sound: the workload's disorder
    /// transform displaces a tuple's position by at most `bound` of
    /// application time, so no future publish of *any* stream can carry
    /// a timestamp at or below the emitted watermark.
    fn after_publish(&mut self, tuples: &[Tuple], registry: &SchemaRegistry) {
        let (Some(rt), Some(first)) = (self.runtime, tuples.first()) else {
            return;
        };
        self.published.insert(first.stream);
        let hw = tuples.iter().map(|t| t.timestamp).max();
        let hw = self.high_water.max(hw).expect("the batch is not empty");
        self.high_water = Some(hw);
        let wm = Timestamp(hw.0.saturating_sub(rt.bound.millis()));
        for &stream in self.published.difference(&self.closed) {
            if self.emitted.get(&stream).is_some_and(|l| wm <= *l) {
                continue;
            }
            if let Some(origin) = registry.origin(&stream) {
                self.emitted.insert(stream, wm);
                self.due.push((stream, wm, origin));
            }
        }
    }
}

/// Processor placement: `fraction` of `n` nodes (at least one), chosen
/// by stride.
pub(crate) fn place_processors(n: usize, fraction: f64) -> Vec<NodeId> {
    let want = ((n as f64 * fraction).round() as usize).clamp(1, n);
    let stride = (n / want).max(1);
    (0..n)
        .step_by(stride)
        .take(want)
        .map(|i| NodeId(i as u32))
        .collect()
}

/// Query distribution (load management): pick the processor that will
/// run `q`. A window of `affinity` candidates is derived from the
/// query's stream set (FNV-1a over the sorted stream list), so queries
/// over the same streams meet at the same processor(s); the least-loaded
/// candidate — fewest queries in its manager — wins.
pub(crate) fn pick_processor(
    q: &AnalyzedQuery,
    processors: &[NodeId],
    affinity: usize,
    managers: &BTreeMap<NodeId, GroupManager>,
) -> NodeId {
    let mut streams: Vec<&str> = q.streams.iter().map(|b| b.stream.as_str()).collect();
    streams.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in streams.join(",").bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    let k = affinity.clamp(1, processors.len());
    let start = (h as usize) % processors.len();
    let load = |p: &NodeId| managers.get(p).map_or(0, GroupManager::query_count);
    (0..k)
        .map(|i| processors[(start + i) % processors.len()])
        .min_by_key(|p| (load(p), p.raw()))
        .expect("at least one processor")
}

/// A running COSMOS deployment.
#[derive(Debug)]
pub struct Cosmos {
    cfg: CosmosConfig,
    pub(crate) topology: Topology,
    registry: SchemaRegistry,
    catalog: StatsCatalog,
    routers: Vec<Router>,
    /// What every local subscription contributes to the routers'
    /// reverse-path interests.
    ledger: RouteLedger,
    /// Query-layer state per processor: the groups, their members and
    /// placements — and, by its query count, the processor's load.
    managers: BTreeMap<NodeId, GroupManager>,
    /// Representative executors, keyed by result-stream name.
    reps: BTreeMap<StreamName, RepSite>,
    /// Every local subscription the routers hold, by what it feeds.
    subs: FxHashMap<SubscriberId, LocalSub>,
    /// The live queries.
    queries: BTreeMap<QueryId, QueryRecord>,
    /// Delivered results; they outlive the query ([`Cosmos::results`]).
    delivered: FxHashMap<QueryId, Vec<Tuple>>,
    ids: Ids,
    traffic: Traffic,
    /// Runtime observability: sliding-window rates, sampled stream
    /// statistics, delivery latencies (see [`Cosmos::metrics`]).
    metrics: MetricsHub,
    disorder: Disorder,
    /// Per-node overload controller (`None` = unbounded delivery; see
    /// [`Cosmos::set_overload`]).
    overload: Option<OverloadController>,
    /// Armed self-tuning scheduler (`None` = manual
    /// [`Cosmos::autotune`] calls only; see [`Cosmos::set_autotune`]).
    autotune_sched: Option<AutotuneSched>,
    /// The dissemination loop's reused buffers.
    hops: HopLoop,
    /// The punctuation walk's reused buffers.
    punctuations: PunctuationWalk,
}

impl Cosmos {
    /// Deploy a system with a generated topology.
    pub fn new(cfg: CosmosConfig) -> Result<Cosmos> {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let graph = generate(cfg.topology, cfg.nodes, &mut rng)?;
        Self::with_graph(cfg, graph)
    }

    /// Deploy a system on an explicitly constructed overlay graph
    /// (used by the Figure 3 experiment and by tests that need exact
    /// topologies). Processors are chosen by stride to match
    /// `processor_fraction`.
    pub fn with_graph(cfg: CosmosConfig, graph: Graph) -> Result<Cosmos> {
        let n = graph.node_count();
        if n == 0 {
            return Err(CosmosError::System("empty overlay".into()));
        }
        let tree = minimum_spanning_tree(&graph, NodeId(0))?;
        let processors = place_processors(n, cfg.processor_fraction);
        let mut roles = vec![NodeRole::Broker; n];
        for p in &processors {
            roles[p.index()] = NodeRole::Processor;
        }
        Ok(Cosmos {
            registry: SchemaRegistry::new(cfg.registry_mode, (0..n as u32).map(NodeId)),
            cfg,
            topology: Topology {
                graph,
                tree,
                source_trees: BTreeMap::new(),
                roles,
                processors,
            },
            catalog: StatsCatalog::new(),
            routers: (0..n as u32).map(|i| Router::new(NodeId(i))).collect(),
            ledger: RouteLedger::default(),
            managers: BTreeMap::new(),
            reps: BTreeMap::new(),
            subs: FxHashMap::default(),
            queries: BTreeMap::new(),
            delivered: FxHashMap::default(),
            ids: Ids::default(),
            traffic: Traffic::default(),
            metrics: MetricsHub::new(MetricsConfig::default()),
            disorder: Disorder::default(),
            overload: None,
            autotune_sched: None,
            hops: HopLoop::default(),
            punctuations: PunctuationWalk::default(),
        })
    }

    /// The overlay graph.
    pub fn graph(&self) -> &Graph {
        &self.topology.graph
    }

    /// The dissemination tree.
    pub fn tree(&self) -> &Tree {
        &self.topology.tree
    }

    /// Run the Section 3.2 adaptive reorganizer on the shared
    /// dissemination tree, using each node's local-subscription count as
    /// its consumer demand, then re-derive all routing state from the
    /// new tree. Returns a zero-move report in per-source-tree mode
    /// (those trees are delay-optimal by construction).
    pub fn optimize_tree(
        &mut self,
        cfg: cosmos_overlay::OptimizerConfig,
    ) -> cosmos_overlay::OptimizeReport {
        let demand: Vec<f64> = self
            .routers
            .iter()
            .map(|r| r.local_subscribers().count() as f64)
            .collect();
        self.optimize_tree_with_demand(cfg, &demand)
    }

    /// [`Cosmos::optimize_tree`] with an explicit per-node demand vector
    /// instead of subscription counts — [`Cosmos::autotune`] passes the
    /// *measured* per-node consumed byte rates here.
    pub fn optimize_tree_with_demand(
        &mut self,
        cfg: cosmos_overlay::OptimizerConfig,
        demand: &[f64],
    ) -> cosmos_overlay::OptimizeReport {
        let optimizer = cosmos_overlay::TreeOptimizer::new(cfg);
        let topo = &mut self.topology;
        if self.cfg.per_source_trees {
            let idle = vec![0.0; topo.graph.node_count()];
            let cost = optimizer.cost(&topo.graph, &topo.tree, &idle);
            return cosmos_overlay::OptimizeReport {
                cost_before: cost,
                cost_after: cost,
                moves: 0,
            };
        }
        let report = optimizer.optimize(&topo.graph, &mut topo.tree, demand);
        if report.moves > 0 {
            self.rebuild_routes();
        }
        report
    }

    /// The role of a node.
    pub fn role(&self, node: NodeId) -> NodeRole {
        self.topology.roles[node.index()]
    }

    /// The processor nodes.
    pub fn processors(&self) -> &[NodeId] {
        &self.topology.processors
    }

    /// The schema registry.
    pub fn registry(&self) -> &SchemaRegistry {
        &self.registry
    }

    /// The statistics catalog.
    pub fn catalog(&self) -> &StatsCatalog {
        &self.catalog
    }

    /// Access a node's router (tests, diagnostics).
    pub fn router(&self, node: NodeId) -> &Router {
        &self.routers[node.index()]
    }

    /// Advertise a source stream published at `origin`.
    pub fn register_stream(
        &mut self,
        name: impl Into<StreamName>,
        schema: Schema,
        stats: StreamStats,
        origin: NodeId,
    ) -> Result<()> {
        let name = name.into();
        if origin.index() >= self.routers.len() {
            return Err(CosmosError::System(format!("unknown origin {origin}")));
        }
        self.registry.register(name, schema.clone(), origin)?;
        self.catalog.register(name, schema, stats);
        self.ensure_source_tree(origin);
        Ok(())
    }

    /// The dissemination tree used for streams originating at `origin`.
    pub fn tree_for(&self, origin: NodeId) -> &Tree {
        self.topology.tree_for(origin)
    }

    /// [`Topology::ensure_source_tree`] in multi-tree mode.
    fn ensure_source_tree(&mut self, origin: NodeId) {
        if self.cfg.per_source_trees {
            self.topology.ensure_source_tree(origin);
        }
    }

    /// Install `profile` as local subscription `sub` at `at` (an empty
    /// profile withdraws it) and record what it contributes to the
    /// reverse paths: the one way a local subscription changes. An SPE
    /// input (`spe`) is marked for the punctuations of every stream it
    /// names. The routers' reverse-path interests follow at the end of
    /// the public call ([`Cosmos::refold_routes`]). Only SPE inputs may
    /// name a source stream: [`Cosmos::close_streams`] drops closed
    /// streams by re-installing those alone.
    fn subscribe_local(&mut self, at: NodeId, sub: SubscriberId, spe: bool, profile: Profile) {
        self.ledger
            .set(&self.topology, &self.registry, at, sub, spe, &profile);
        let router = &mut self.routers[at.index()];
        if profile.is_empty() {
            router.remove_local_subscriber(sub);
            return;
        }
        let streams: Vec<StreamName> = if spe {
            profile.streams().copied().collect()
        } else {
            Vec::new()
        };
        router.add_local_subscriber(sub, profile);
        for stream in &streams {
            router.punctuate(Destination::Local(sub), stream, true);
        }
    }

    /// Bring the cells edited since the last refold up to date: each
    /// installed entry becomes the left fold of its cell's contributors
    /// in `SubscriberId` order, and is installed on its router as a
    /// one-stream edit, which re-indexes nothing when the entry is
    /// unchanged. The same pass ORs the contributors' SPE-input flags
    /// into the cell's punctuation mark. An operation that fails
    /// half-way leaves its cells to the next refold.
    fn refold_routes(&mut self) {
        let ledger = &mut self.ledger;
        #[cfg(test)]
        ledger.refolded.clear();
        for cell in std::mem::take(&mut ledger.touched) {
            let (up, down, stream) = &cell;
            let (entry, punctuated) = match ledger.cells.get(&cell) {
                Some(list) => {
                    let (_, first, mut punctuated) = &list[0];
                    let mut entry = ProfileEntry::clone(first);
                    for (_, e, spe) in &list[1..] {
                        entry.union_with(e);
                        punctuated |= spe;
                    }
                    (Some(entry), punctuated)
                }
                None => (None, false),
            };
            let router = &mut self.routers[up.index()];
            router.set_neighbor_entry(*down, stream, entry);
            router.punctuate(Destination::Neighbor(*down), stream, punctuated);
            #[cfg(test)]
            ledger.refolded.push(cell);
        }
    }

    /// Bring every router's reverse-path interests to the fold of the
    /// *current* local subscriptions along the current trees — what a
    /// tree reorganization needs, since it moves every path. The ledger
    /// is rebuilt from the local subscriptions, and every cell it or a
    /// router holds is refolded; one whose entry is unchanged is not
    /// touched, so a second call re-indexes nothing.
    pub fn rebuild_routes(&mut self) {
        let mut ledger = RouteLedger::default();
        for r in &self.routers {
            for (sub, profile) in r.local_subscribers() {
                let spe = matches!(self.subs.get(&sub), Some(LocalSub::Spe(_)));
                ledger.set(&self.topology, &self.registry, r.node(), sub, spe, profile);
            }
            for (down, profile) in r.neighbor_interests() {
                for stream in profile.streams() {
                    ledger.touched.insert((r.node(), down, *stream));
                }
            }
        }
        self.ledger = ledger;
        self.refold_routes();
    }

    /// (Re)install SPE-input subscription `sub` at `processor`: `rep`'s
    /// source profile minus the closed streams. No datagram of a closed
    /// stream can arrive any more, and subscribing to one would
    /// resurrect the routing state [`Cosmos::close_streams`] pruned.
    fn install_spe_input(&mut self, processor: NodeId, sub: SubscriberId, rep: &AnalyzedQuery) {
        let mut profile = rep.source_profile();
        for closed in &self.disorder.closed {
            profile.remove_entry(closed);
        }
        self.subscribe_local(processor, sub, true, profile);
    }

    /// Start a representative: advertise `stream` at `processor`, run
    /// `rep` there in a fresh executor of a fresh generation, and
    /// subscribe the SPE to the source data (Section 4 profile).
    fn start_rep(
        &mut self,
        processor: NodeId,
        stream: &StreamName,
        rep: &AnalyzedQuery,
    ) -> Result<()> {
        self.ensure_source_tree(processor);
        self.registry
            .register(*stream, rep.output_schema.clone(), processor)?;
        let rate = cosmos_query::estimate::output_tuples_per_sec(rep, &self.catalog);
        self.catalog.register(
            *stream,
            rep.output_schema.clone(),
            StreamStats::with_rate(rate),
        );
        let mut executor = Executor::new(rep.clone(), *stream)?;
        self.disorder.arm(&mut executor);
        let sub = self.ids.sub();
        self.install_spe_input(processor, sub, rep);
        self.subs.insert(sub, LocalSub::Spe(*stream));
        let site = RepSite {
            processor,
            executor,
            generation: self.ids.generation(),
            sub,
        };
        self.reps.insert(*stream, site);
        Ok(())
    }

    /// Replace the running representative of `stream` by `rep` — the
    /// group was widened by a new member or shrank after a withdrawal.
    /// The fresh executor gets a fresh generation and the same SPE-input
    /// subscription. (Window state restarts; experiments submit queries
    /// before publishing data.)
    fn replace_rep(&mut self, stream: &StreamName, rep: &AnalyzedQuery) -> Result<()> {
        self.retire_executor(stream);
        self.registry
            .update_schema(stream, rep.output_schema.clone())?;
        let mut executor = Executor::new(rep.clone(), *stream)?;
        self.disorder.arm(&mut executor);
        let generation = self.ids.generation();
        let site = self.reps.get_mut(stream).expect("rep exists");
        site.executor = executor;
        site.generation = generation;
        let (processor, sub) = (site.processor, site.sub);
        self.install_spe_input(processor, sub, rep);
        Ok(())
    }

    /// Stop a representative: flush and drop its executor, withdraw the
    /// result stream's advertisement and the SPE-input subscription, and
    /// forget the last watermark emitted for the result stream — nothing
    /// will emit for it again, and a later stream of that name starts
    /// its promises afresh.
    fn stop_rep(&mut self, stream: &StreamName) {
        self.retire_executor(stream);
        self.disorder.emitted.remove(stream);
        self.registry.unregister(stream);
        if let Some(site) = self.reps.remove(stream) {
            self.subs.remove(&site.sub);
            self.subscribe_local(site.processor, site.sub, true, Profile::new());
        }
    }

    /// Apply what the query layer decided for `processor`, in this
    /// order: stop representatives, start the new ones, replace the
    /// changed ones, then (re)install every listed member subscription.
    /// The caller refolds the routes it touched.
    fn apply(&mut self, processor: NodeId, change: GroupChange) -> Result<()> {
        for stream in &change.stop {
            self.stop_rep(stream);
        }
        for (stream, rep) in &change.start {
            self.start_rep(processor, stream, rep)?;
        }
        for (stream, rep) in &change.replace {
            self.replace_rep(stream, rep)?;
        }
        for (qid, _, profile) in change.subscribe {
            let member = &self.queries[&qid];
            self.subscribe_local(member.user, member.user_sub, false, profile);
        }
        Ok(())
    }

    /// Submit a user query at node `user`. Returns the query id; results
    /// accumulate in [`Cosmos::results`] as data is published.
    pub fn submit_query(&mut self, text: &str, user: NodeId) -> Result<QueryId> {
        if user.index() >= self.routers.len() {
            return Err(CosmosError::System(format!("unknown user node {user}")));
        }
        let spanned = cosmos_cql::parse_query_spanned(text)?;
        // Static analysis gates registration: a continuous query with an
        // error-level finding (unsatisfiable WHERE, type mismatch, …)
        // would run forever and deliver nothing, so refuse it up front.
        // Warnings don't block; they are kept for inspection.
        let diags = cosmos_lint::check_query_with(&spanned, self.catalog.schema_fn());
        if let Some(err) = diags
            .iter()
            .find(|d| d.severity == cosmos_lint::Severity::Error)
        {
            return Err(CosmosError::Lint(format!("{}: {}", err.code, err.message)));
        }
        let mut warnings: Vec<String> = diags
            .iter()
            .take(MAX_LINT_WARNINGS_PER_QUERY)
            .map(cosmos_lint::Diagnostic::headline)
            .collect();
        let parsed = spanned.query;
        let analyzed = AnalyzedQuery::analyze(&parsed, self.catalog.schema_fn())?;
        // Admission control (cosmos-bound): a query whose executor state
        // provably grows without bound — a join buffer or aggregate
        // window under `[Unbounded]` — is rejected before any routing
        // state is allocated or the result stream is advertised.
        // Warning-level findings (DISTINCT dedup state) ride along with
        // the lint warnings.
        for d in cosmos_bound::check_query(&analyzed) {
            match d.severity {
                cosmos_lint::Severity::Error => {
                    return Err(CosmosError::Lint(format!("{}: {}", d.code, d.message)));
                }
                _ => {
                    if warnings.len() < MAX_LINT_WARNINGS_PER_QUERY {
                        warnings.push(d.headline());
                    }
                }
            }
        }
        let qid = self.ids.query();
        let processor = pick_processor(
            &analyzed,
            &self.topology.processors,
            self.cfg.affinity_candidates,
            &self.managers,
        );

        // Query management: the processor's manager groups the query —
        // or, for the non-share baseline, founds a group of its own.
        let merging = self.cfg.merging_enabled;
        let mut change = (self.managers.entry(processor))
            .or_insert_with(|| {
                let prefix = format!("result::{processor}");
                if merging {
                    GroupManager::new(prefix)
                } else {
                    GroupManager::unshared(prefix)
                }
            })
            .insert(qid, analyzed, &self.catalog)?;
        // The new query's own subscription (listed last) is installed
        // below, once its user subscription exists.
        let (.., user_profile) = change.subscribe.pop().expect("own subscription");
        // A new group starts its representative, a widened one replaces
        // it (same result stream) and resubscribes its other members,
        // and a query that joins without widening is served by the warm,
        // already-running executor.
        self.apply(processor, change)?;

        // The user retrieves the results through the CBN.
        let user_sub = self.ids.sub();
        self.subscribe_local(user, user_sub, false, user_profile);
        self.subs.insert(user_sub, LocalSub::User(qid));
        self.refold_routes();

        self.delivered.insert(qid, Vec::new());
        let record = QueryRecord {
            user,
            processor,
            user_sub,
            lint_warnings: warnings,
        };
        self.queries.insert(qid, record);
        Ok(qid)
    }

    /// Self-tuning (the "Self-tuning" of COSMOS's name): re-optimize the
    /// query grouping at every processor. Where a better grouping exists
    /// (greedy insertion is order-sensitive), the processor's
    /// representatives are rebuilt, its result streams re-advertised,
    /// every affected user subscription refreshed, and the routing cells
    /// they touch refolded. Returns the number of processors whose
    /// grouping improved.
    ///
    /// Like representative replacement on merge, rebuilt executors start
    /// with empty windows; run this between workload phases.
    pub fn reoptimize_groups(&mut self) -> Result<usize> {
        let processors: Vec<NodeId> = self.managers.keys().copied().collect();
        let mut improved = 0usize;
        for p in processors {
            let manager = self.managers.get_mut(&p).expect("listed above");
            let change = manager.reoptimize(&self.catalog)?;
            if !change.is_empty() {
                improved += 1;
                self.apply(p, change)?;
            }
        }
        self.refold_routes();
        Ok(improved)
    }

    /// Withdraw a query: remove its user subscription, drop it from its
    /// group (rebuilding the representative from the remaining members,
    /// or tearing the group down entirely), and refold the routing cells
    /// that touches.
    ///
    /// Returns an error for unknown query ids. Results already delivered
    /// — a batch the overload controller was still coalescing included —
    /// remain readable via [`Cosmos::results`].
    pub fn unsubscribe(&mut self, qid: QueryId) -> Result<()> {
        let record = self
            .queries
            .remove(&qid)
            .ok_or_else(|| CosmosError::System(format!("unknown query {qid}")))?;
        self.subscribe_local(record.user, record.user_sub, false, Profile::new());
        self.subs.remove(&record.user_sub);
        // Nothing more will be offered to the query: release the batch
        // the overload controller was coalescing for it.
        let pending = self.overload.as_mut().map(|ctl| ctl.drain_query(qid));
        if let Some(pending) = pending.filter(|p| !p.is_empty()) {
            self.deliver(qid, record.user, pending);
        }
        let change = (self.managers.get_mut(&record.processor))
            .expect("manager exists")
            .remove(qid)?;
        self.apply(record.processor, change)?;
        self.refold_routes();
        Ok(())
    }

    /// `bytes` (carrying `tuples` data tuples; 0 for control datagrams)
    /// cross the link `a - b`: one entry in each of the two ledgers.
    fn cross_link(&mut self, a: NodeId, b: NodeId, tuples: usize, bytes: usize) {
        let key = (a.min(b), a.max(b));
        *self.traffic.link_bytes.entry(key).or_insert(0) += bytes as u64;
        // Price the hop exactly like TreeOptimizer::cost does, so the
        // measured weighted cost is comparable to the estimated one.
        let graph = &self.topology.graph;
        let delay = graph.link_delay(a, b).unwrap_or_else(|| {
            debug_assert!(false, "traffic accounted on downed link {a}-{b}");
            graph.distance(a, b).max(f64::EPSILON)
        });
        self.traffic.weighted_cost.add(bytes as f64 * delay);
        self.metrics.on_link(a, b, tuples, bytes);
    }

    /// Publish one source datagram at its stream's origin node and drive
    /// it (and any result datagrams it triggers) through the network to
    /// completion.
    ///
    /// A batch of one through [`Cosmos::publish_batch`]; the input tuple
    /// is never cloned — the origin router borrows it and only the
    /// (projected, `Arc`-backed) forwarded copies are materialized.
    pub fn publish(&mut self, tuple: &Tuple) -> Result<()> {
        self.publish_batch(std::slice::from_ref(tuple))
    }

    /// Publish a *stream-homogeneous* batch of source datagrams at their
    /// stream's origin and drive the whole batch through the network
    /// together: one match lookup per (router, batch), one projection
    /// plan per (router, destination), amortized link accounting, and
    /// whole batches fed to the SPE executors.
    ///
    /// Delivery is tuple-for-tuple identical to publishing the tuples
    /// one at a time (cosmos-testkit's batch oracle pins this down).
    pub fn publish_batch(&mut self, tuples: &[Tuple]) -> Result<()> {
        let Some(first) = tuples.first() else {
            return Ok(());
        };
        if tuples.iter().any(|t| t.stream != first.stream) {
            return Err(CosmosError::System(
                "publish_batch requires a single-stream batch".into(),
            ));
        }
        let reg = self.registry.peek(&first.stream).ok_or_else(|| {
            CosmosError::System(format!("stream '{}' is not advertised", first.stream))
        })?;
        // Every router downstream indexes columns by the advertised layout.
        if let Some(t) = tuples.iter().find(|t| t.arity() != reg.schema.arity()) {
            return Err(CosmosError::System(format!(
                "a tuple of stream '{}' has {} values, its schema {} attributes",
                first.stream,
                t.arity(),
                reg.schema.arity()
            )));
        }
        let (origin, schema) = (reg.origin, reg.schema.clone());
        self.traffic.tuples_published += tuples.len() as u64;
        self.metrics.on_publish(&first.stream, &schema, tuples);
        self.disseminate(origin, tuples, &schema);
        self.disorder.after_publish(tuples, &self.registry);
        let mut due = std::mem::take(&mut self.disorder.due);
        for (stream, wm, origin) in due.drain(..) {
            self.disseminate_watermark(stream, wm, origin);
        }
        self.disorder.due = due;
        self.autotune_tick();
        Ok(())
    }

    /// The one dissemination loop: drive a stream-homogeneous batch of
    /// datagrams entering the network at `at` (a source publish or an
    /// executor's result batch) through the network to completion,
    /// including every result batch it triggers on the way. The first
    /// hop routes the caller's slice borrowed; forwarded hops own their
    /// (projected) tuples and are served breadth-first. A forwarded hop
    /// that is a relay hop at its router ([`Router::relay`]) is not
    /// routed: its buffer and schema become the one forward as they are,
    /// and a neighbor forward crosses its link with the byte count the
    /// hop carries instead of a re-summed one. That reads the upstream
    /// router's entries at the time the hop is served, which are the
    /// ones it was routed under, because nothing the loop calls mutates
    /// a router.
    ///
    /// The loop works in [`HopLoop`]'s buffers, taken out of `self` for
    /// the duration of the call. That is sound because the loop is never
    /// re-entered: nothing it calls — the routers, the executors, the
    /// metrics hub, the overload gate and its rate-limit notices —
    /// disseminates; result batches re-enter as hops of this same queue,
    /// and the other callers (`publish_batch`, watermark and retirement
    /// drains) run strictly before or after it.
    fn disseminate(&mut self, at: NodeId, tuples: &[Tuple], schema: &Schema) {
        let mut hops = std::mem::take(&mut self.hops);
        debug_assert!(hops.queue.is_empty() && hops.forwards.is_empty());
        let nodes = self.routers.len();
        self.routers[at.index()].route_batch_into(
            tuples,
            schema,
            None,
            &mut hops.forwards,
            &mut hops.pool,
        );
        self.process_forwards(at, &mut hops);
        while let Some(hop) = hops.queue.pop_front() {
            let router = &self.routers[hop.at.index()];
            let upstream = hop.from.map(|from| &self.routers[from.index()]);
            let relay = upstream.and_then(|up| router.relay_batch(&hop.tuples, &hop.schema, up));
            match relay {
                Some(Destination::Neighbor(n)) => {
                    self.cross_link(hop.at, n, hop.tuples.len(), hop.bytes);
                    hops.queue.push_back(Hop {
                        from: Some(hop.at),
                        at: n,
                        ..hop
                    });
                }
                Some(dest) => {
                    hops.forwards.push(BatchForward {
                        dest,
                        tuples: hop.tuples,
                        schema: hop.schema,
                    });
                    self.process_forwards(hop.at, &mut hops);
                }
                None => {
                    router.route_batch_into(
                        &hop.tuples,
                        &hop.schema,
                        hop.from,
                        &mut hops.forwards,
                        &mut hops.pool,
                    );
                    hops.recycle(hop.tuples, nodes);
                    self.process_forwards(hop.at, &mut hops);
                }
            }
        }
        self.hops = hops;
    }

    /// Handle the forwarding decisions of one (node, batch) routing
    /// step (`hops.forwards`, left empty): account and enqueue neighbor
    /// hops, feed local SPE inputs (re-entering their outputs into the
    /// network), append user deliveries.
    fn process_forwards(&mut self, at: NodeId, hops: &mut HopLoop) {
        let mut forwards = std::mem::take(&mut hops.forwards);
        for f in forwards.drain(..) {
            match f.dest {
                Destination::Neighbor(n) => {
                    let bytes: usize = f.tuples.iter().map(Tuple::size_bytes).sum();
                    self.cross_link(at, n, f.tuples.len(), bytes);
                    hops.queue.push_back(Hop {
                        from: Some(at),
                        at: n,
                        tuples: f.tuples,
                        schema: f.schema,
                        bytes,
                    });
                }
                Destination::Local(sub) => self.deliver_local(at, sub, f.tuples, &f.schema, hops),
            }
        }
        hops.forwards = forwards;
    }

    /// Deliver a projected batch to one locally attached subscriber: an
    /// SPE input gets the batch pushed through its executor (the result
    /// datagrams, if any, re-enter the network as a new hop, and the
    /// consumed batch's buffer goes back to the pool), a user
    /// subscription gets the tuples appended to its delivery buffer
    /// (through the overload gate when one is armed).
    fn deliver_local(
        &mut self,
        at: NodeId,
        sub: SubscriberId,
        tuples: Vec<Tuple>,
        schema: &Schema,
        hops: &mut HopLoop,
    ) {
        match self.subs.get(&sub) {
            None => {}
            Some(LocalSub::Spe(stream)) => {
                let site = self.reps.get_mut(stream).expect("rep site exists");
                debug_assert_eq!(site.processor, at);
                let outputs = site.executor.push_projected_batch(&tuples, schema);
                self.metrics.on_spe_intake(at, &tuples);
                hops.recycle(tuples, self.routers.len());
                if outputs.is_empty() {
                    return;
                }
                // Result datagrams enter the CBN here; observe them
                // like any other published stream.
                let rep_schema = site.executor.result_schema().clone();
                self.metrics.on_publish(stream, &rep_schema, &outputs);
                hops.queue.push_back(Hop {
                    from: None,
                    at,
                    tuples: outputs,
                    schema: rep_schema,
                    bytes: 0,
                });
            }
            Some(&LocalSub::User(qid)) => self.deliver_user(at, qid, tuples),
        }
    }

    /// Append `tuples` to a query's delivery buffer at its user node.
    fn deliver(&mut self, qid: QueryId, at: NodeId, tuples: Vec<Tuple>) {
        self.metrics.on_delivery(qid, at, &tuples);
        self.delivered
            .get_mut(&qid)
            .expect("delivery buffer")
            .extend(tuples);
    }

    /// User delivery through the overload gate, when one is armed:
    /// consult the controller with the node's measured in-window intake,
    /// then map its verdict onto delivery-buffer and metrics effects.
    /// Budget decisions read only virtual-time state, so a replay of the
    /// same scenario reproduces identical shed decisions.
    fn deliver_user(&mut self, at: NodeId, qid: QueryId, tuples: Vec<Tuple>) {
        let Some(ctl) = self.overload.as_mut() else {
            return self.deliver(qid, at, tuples);
        };
        let in_window = self.metrics.consumed_in_window(at);
        let window_index = self.metrics.now_ms().div_euclid(self.metrics.window_ms());
        match ctl.admit(at, qid, tuples, in_window, window_index) {
            Action::Deliver { tuples, .. } => self.deliver(qid, at, tuples),
            Action::Stage { coalesced } => {
                if coalesced {
                    self.metrics.on_coalesce();
                }
            }
            Action::Shed { tuples, bytes } => self.metrics.on_shed(tuples, bytes),
            Action::Throttle {
                tuples,
                bytes,
                limit,
            } => {
                self.metrics.on_shed(tuples, bytes);
                if let Some(limit) = limit {
                    self.send_rate_limit(at, limit);
                }
            }
        }
    }

    /// Route one [`RateLimit`] datagram from the overloaded consumer
    /// reverse along the throttled stream's dissemination tree to the
    /// stream's origin, accounting every link crossing in bytes exactly
    /// like a watermark punctuation. The notice is recorded at the
    /// origin (advisory in this build — sources are simulation-driven).
    fn send_rate_limit(&mut self, at: NodeId, limit: RateLimit) {
        let datagram_bytes = limit.size_bytes();
        let mut link_bytes = 0usize;
        if let Some(origin) = self.registry.origin(&limit.stream) {
            for w in self.tree_for(origin).path(at, origin).windows(2) {
                self.cross_link(w[0], w[1], 0, datagram_bytes);
                link_bytes += datagram_bytes;
            }
        }
        self.metrics.on_throttle(link_bytes);
        if let Some(ctl) = self.overload.as_mut() {
            ctl.record_received(limit);
        }
    }

    /// Switch the deployment into (or out of) out-of-order operation.
    ///
    /// With a runtime set, publishes may arrive in any timestamp order
    /// within `runtime.bound` of the global high water: every
    /// representative executor stages out-of-order intake behind a
    /// watermark frontier with the given late-tuple policy, and the
    /// driver emits watermark punctuations after every publish. Pass
    /// `None` (the default) for classic in-order operation — no
    /// punctuations, no staging, bit-for-bit identical behavior.
    ///
    /// Call before publishing; executors already running are switched
    /// in place with empty staging areas. Each armed executor keeps one
    /// watermark per stream it binds — a watermark for any other stream
    /// is ignored — and one ordered table of the arrivals it has seen
    /// down to `frontier − grace`, for exact-duplicate detection.
    pub fn set_disorder(&mut self, runtime: Option<DisorderRuntime>) {
        self.disorder.runtime = runtime;
        for site in self.reps.values_mut() {
            self.disorder.arm(&mut site.executor);
        }
    }

    /// Before an executor is replaced or torn down: flush its staging
    /// area through the engine (routing whatever results that drains)
    /// and fold its disorder counters into the retired totals, so
    /// conservation holds across the whole deployment lifetime.
    fn retire_executor(&mut self, stream: &StreamName) {
        if self.disorder.runtime.is_none() {
            return;
        }
        let Some(site) = self.reps.get_mut(stream) else {
            return;
        };
        let outputs = site.executor.flush_staged();
        if let Some(stats) = site.executor.disorder_stats() {
            self.disorder.retired = self.disorder.retired.merge(&stats);
        }
        let processor = site.processor;
        let schema = site.executor.result_schema().clone();
        if !outputs.is_empty() {
            self.inject_results(stream, processor, &outputs, &schema);
        }
    }

    /// Result tuples of `stream` enter the network at `at` outside the
    /// normal publish path (an executor drained by a watermark or a
    /// retirement): observe them like any other published stream and
    /// drive them through to completion.
    fn inject_results(
        &mut self,
        stream: &StreamName,
        at: NodeId,
        tuples: &[Tuple],
        schema: &Schema,
    ) {
        self.metrics.on_publish(stream, schema, tuples);
        self.disseminate(at, tuples, schema);
    }

    /// Route one watermark punctuation from its origin along the
    /// stream's dissemination tree: every link crossing is accounted in
    /// bytes exactly like data (and counted by the metrics hub), every
    /// interested SPE input advances its executor's frontier (draining
    /// staged tuples into the network), and an executor whose frontier
    /// moved propagates a punctuation for its *result* stream — so
    /// watermarks cascade through operator chains. User subscriptions
    /// consume punctuations silently (their windows are the executors').
    ///
    /// The walk works in [`PunctuationWalk`]'s buffers, taken out of
    /// `self` for the call: nothing it calls walks punctuations, and the
    /// data dissemination it triggers has buffers of its own.
    fn disseminate_watermark(&mut self, stream: StreamName, watermark: Timestamp, origin: NodeId) {
        let mut walk = std::mem::take(&mut self.punctuations);
        debug_assert!(walk.queue.is_empty());
        // Every punctuation is the same size on the wire.
        let bytes = Punctuation::WIRE_BYTES;
        walk.queue.push_back((None, origin, stream, watermark));
        while let Some((from, at, stream, wm)) = walk.queue.pop_front() {
            self.routers[at.index()].route_punctuation_into(&stream, from, &mut walk.dests);
            for &dest in &walk.dests {
                match dest {
                    Destination::Neighbor(n) => {
                        self.cross_link(at, n, 0, bytes);
                        self.metrics.on_punctuation(bytes);
                        walk.queue.push_back((Some(at), n, stream, wm));
                    }
                    Destination::Local(sub) => {
                        let Some(LocalSub::Spe(result_stream)) = self.subs.get(&sub) else {
                            continue;
                        };
                        let site = self.reps.get_mut(result_stream).expect("rep site exists");
                        debug_assert_eq!(site.processor, at);
                        let before = site.executor.frontier();
                        let outputs = site.executor.advance_watermark(&stream, wm);
                        let after = site.executor.frontier();
                        if outputs.is_empty() && after == before {
                            continue;
                        }
                        let result_stream = *result_stream;
                        if !outputs.is_empty() {
                            let schema = site.executor.result_schema().clone();
                            self.inject_results(&result_stream, at, &outputs, &schema);
                        }
                        // The executor's frontier is a low-water promise
                        // for its result stream (revision tuples may dip
                        // below it, but stay within the grace window any
                        // downstream executor retains).
                        let (Some(b), Some(a)) = (before, after) else {
                            continue;
                        };
                        if a > b
                            && self
                                .disorder
                                .emitted
                                .get(&result_stream)
                                .is_none_or(|l| a > *l)
                        {
                            self.disorder.emitted.insert(result_stream, a);
                            walk.queue.push_back((None, at, result_stream, a));
                        }
                    }
                }
            }
        }
        self.punctuations = walk;
    }

    /// Declare every source stream finished: emit a final `+∞` watermark
    /// along each one's dissemination tree (draining every staging area
    /// and cascading through operator chains), then drop the streams
    /// from every SPE input — their reverse-path cells refold away, with
    /// the plan-cache lines they pinned — since no datagram of a closed
    /// stream can ever arrive again. Records the closed set for the
    /// network snapshot.
    /// Also drains any batches the overload controller was coalescing.
    /// Idempotent; apart from the overload drain, a no-op in in-order
    /// operation.
    pub fn close_streams(&mut self) {
        // Nothing more can arrive: release any coalesced batches the
        // overload controller is still holding.
        self.drain_overload_staged();
        if self.disorder.runtime.is_none() {
            return;
        }
        let sources: Vec<(StreamName, NodeId)> = self
            .registry
            .iter()
            .filter(|r| !self.reps.contains_key(&r.name))
            .map(|r| (r.name, r.origin))
            .collect();
        for (stream, origin) in sources {
            if self.disorder.closed.contains(&stream) {
                continue;
            }
            self.disorder.emitted.insert(stream, Timestamp(i64::MAX));
            self.disseminate_watermark(stream, Timestamp(i64::MAX), origin);
            self.disorder.closed.insert(stream);
        }
        // Only SPE inputs subscribe to source streams: re-installing them
        // drops the closed ones, and their cells refold away.
        let inputs: Vec<(NodeId, SubscriberId, AnalyzedQuery)> = (self.reps.values())
            .map(|site| (site.processor, site.sub, site.executor.query().clone()))
            .collect();
        for (processor, sub, rep) in inputs {
            self.install_spe_input(processor, sub, &rep);
        }
        debug_assert!(
            (self.ledger.cells.keys()).all(|(.., s)| !self.disorder.closed.contains(s)),
            "a local subscription still names a closed stream"
        );
        self.refold_routes();
    }

    /// Source streams closed by [`Cosmos::close_streams`].
    pub fn closed_streams(&self) -> &BTreeSet<StreamName> {
        &self.disorder.closed
    }

    /// Deployment-wide out-of-order ingestion counters: every live
    /// executor's statistics plus everything accumulated from executors
    /// that were replaced or torn down. `conserved()` holds on this
    /// total at any instant.
    pub fn disorder_totals(&self) -> DisorderStats {
        let mut total = self.disorder.retired;
        for site in self.reps.values() {
            if let Some(stats) = site.executor.disorder_stats() {
                total = total.merge(&stats);
            }
        }
        total
    }

    /// Publish a whole timestamp-ordered input sequence.
    pub fn run<I: IntoIterator<Item = Tuple>>(&mut self, inputs: I) -> Result<()> {
        for t in inputs {
            self.publish(&t)?;
        }
        Ok(())
    }

    /// Arm (or disarm) the per-node overload controller. With a
    /// configuration set, every user delivery is admission-checked
    /// against the node's intake budget per metrics rate window and
    /// over-budget batches are shed, coalesced, or throttled per the
    /// per-query policy — ledger-accounted so that
    /// `offered == delivered + shed + staged` holds tuple- and
    /// byte-exact per query at any instant (cosmos-testkit checks the
    /// identity after every event).
    ///
    /// Budgets are measured against the metrics hub's virtual-time
    /// windows. Disarming (or replacing) a controller first drains its
    /// pending coalesced batches into the delivery buffers.
    pub fn set_overload(&mut self, cfg: Option<OverloadConfig>) {
        self.drain_overload_staged();
        self.overload = cfg.map(OverloadController::new);
    }

    /// The armed overload controller (ledgers, high-water marks,
    /// received rate-limit notices), if any.
    pub fn overload(&self) -> Option<&OverloadController> {
        self.overload.as_ref()
    }

    /// Deliver every pending coalesced batch to its query's buffer
    /// (stream closure, controller disarm). The ledger moves the mass
    /// from `staged` to `delivered`, keeping the identity exact.
    fn drain_overload_staged(&mut self) {
        let Some(ctl) = self.overload.as_mut() else {
            return;
        };
        // Withdrawal releases a query's pending batch, so every staged
        // batch belongs to a live query.
        for (qid, tuples) in ctl.drain_all() {
            self.deliver(qid, self.queries[&qid].user, tuples);
        }
    }

    /// Result tuples delivered to a query's user so far.
    pub fn results(&self, qid: QueryId) -> &[Tuple] {
        self.delivered.get(&qid).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Warning-level lint findings recorded when the query was accepted
    /// (e.g. a join over an `[Unbounded]` window). Empty for clean
    /// queries; error-level findings reject submission instead.
    pub fn lint_warnings(&self, qid: QueryId) -> &[String] {
        self.queries
            .get(&qid)
            .map_or(&[], |q| q.lint_warnings.as_slice())
    }

    /// The user node of a query.
    pub fn user_of(&self, qid: QueryId) -> Option<NodeId> {
        self.queries.get(&qid).map(|q| q.user)
    }

    /// The processor a query was assigned to.
    pub fn processor_of(&self, qid: QueryId) -> Option<NodeId> {
        self.queries.get(&qid).map(|q| q.processor)
    }

    /// One view per running representative executor: its result stream,
    /// the processor hosting it, the representative query it runs, and
    /// its current retained-state occupancy — the measured side of
    /// `cosmos-bound`'s per-executor state bounds. Ordered by result
    /// stream for determinism.
    pub fn rep_states(&self) -> Vec<RepStateView<'_>> {
        self.reps
            .iter()
            .map(|(stream, site)| RepStateView {
                result_stream: stream,
                processor: site.processor,
                query: site.executor.query(),
                state: site.executor.state_size(),
                disorder: site.executor.disorder_stats(),
                frontier: site.executor.frontier(),
            })
            .collect()
    }

    /// Bytes that crossed the (undirected) overlay link `a - b`.
    pub fn link_bytes(&self, a: NodeId, b: NodeId) -> u64 {
        let key = (a.min(b), a.max(b));
        self.traffic.link_bytes.get(&key).copied().unwrap_or(0)
    }

    /// Total bytes that crossed any overlay link.
    pub fn total_bytes(&self) -> u64 {
        self.traffic.link_bytes.values().sum()
    }

    /// Total delay-weighted communication cost (`Σ bytes × link delay`).
    pub fn weighted_cost(&self) -> f64 {
        self.traffic.weighted_cost.total()
    }

    /// Number of source datagrams published.
    pub fn tuples_published(&self) -> u64 {
        self.traffic.tuples_published
    }

    /// The live metrics hub (read access for diagnostics and tests).
    pub fn metrics_hub(&self) -> &MetricsHub {
        &self.metrics
    }

    /// Replace the metrics configuration. Resets all recorded history
    /// (windows of a different span are not comparable).
    pub fn set_metrics_config(&mut self, cfg: MetricsConfig) {
        self.metrics = MetricsHub::new(cfg);
    }

    /// A deterministic snapshot of every runtime metric: per-link and
    /// per-node traffic, per-stream observed rates and sampled attribute
    /// statistics, per-query delivery rates and virtual-time latencies,
    /// plus the aggregated CBN router counters. Versioned and
    /// serializable like `NetworkSnapshot`.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut router = RouterTotals::default();
        for r in &self.routers {
            router.fold_counters(&r.counters(), r.cached_plan_count() as u64);
        }
        self.metrics.snapshot(router)
    }

    /// Maximum relative drift between what registration-time estimates
    /// claim and what the metrics layer has measured, split into the
    /// stream-rate component and the per-group representative-cost
    /// component. Streams the metrics layer never observed contribute
    /// nothing.
    pub fn measured_drift(&self) -> (f64, f64) {
        let measured = self.metrics.measured();
        let mut stream_drift = 0.0f64;
        for s in self.catalog.streams() {
            let (Some(m), Some(e)) = (measured.stream_rate(s), self.catalog.stats(s)) else {
                continue;
            };
            stream_drift = stream_drift.max(relative_drift(m, e.rate));
        }
        let measured_catalog = measured.catalog(&self.catalog);
        let mut group_drift = 0.0f64;
        for mgr in self.managers.values() {
            for g in mgr.groups() {
                let est = cosmos_query::estimate::cost_bps(&g.representative, &self.catalog);
                let meas = cosmos_query::estimate::cost_bps(&g.representative, &measured_catalog);
                group_drift = group_drift.max(relative_drift(meas, est));
            }
        }
        (stream_drift, group_drift)
    }

    /// Replace the registered statistics of every *observed* stream with
    /// its measured statistics (rate always; attribute ranges and
    /// distinct counts where the samplers saw values). Returns how many
    /// streams were updated. Unobserved streams keep their estimates.
    fn adopt_measured_stats(&mut self) -> usize {
        let streams: Vec<StreamName> = self.catalog.streams().cloned().collect();
        let mut adopted = 0usize;
        for s in streams {
            let Some(stats) = self
                .metrics
                .measured()
                .stream_stats(&s, self.catalog.stats(&s))
            else {
                continue;
            };
            let schema = self.catalog.schema(&s).cloned().expect("stream registered");
            self.catalog.register(s, schema, stats);
            adopted += 1;
        }
        adopted
    }

    /// Measured per-node demand: the windowed byte rate each node
    /// consumes locally (user deliveries plus SPE intake).
    fn measured_demand(&self) -> Vec<f64> {
        (0..self.routers.len())
            .map(|i| self.metrics.consumed_byte_rate(NodeId(i as u32)))
            .collect()
    }

    /// Close the self-tuning loop: compare measured statistics against
    /// the registration-time estimates the system planned with, and if
    /// the relative drift exceeds `opts.drift_threshold`, adopt the
    /// measured statistics into the catalog and re-run the existing
    /// optimizers — query re-grouping ([`Cosmos::reoptimize_groups`])
    /// and dissemination-tree reorganization with *measured* per-node
    /// demand ([`Cosmos::optimize_tree_with_demand`]).
    ///
    /// Below the threshold this is read-only and returns a pass with
    /// `triggered: false`.
    pub fn autotune(&mut self, opts: &AutotuneOptions) -> Result<AutotunePass> {
        // A direct call runs without a hysteresis band: the optimizer
        // only reports strict improvements, so nothing rolls back.
        self.autotune_gated(opts, 0.0)
    }

    /// [`Cosmos::autotune`] with a hysteresis band: a tree
    /// re-organization whose fractional improvement does not *exceed*
    /// `hysteresis` is rolled back (tree restored, routes rebuilt) and
    /// reported with `tree_rolled_back: true`, so near-equal plans
    /// cannot oscillate across scheduled passes.
    fn autotune_gated(&mut self, opts: &AutotuneOptions, hysteresis: f64) -> Result<AutotunePass> {
        let (stream_drift, group_drift) = self.measured_drift();
        let drift = stream_drift.max(group_drift);
        let mut pass = AutotunePass {
            stream_drift,
            group_drift,
            drift,
            threshold: opts.drift_threshold,
            triggered: false,
            adopted_streams: 0,
            groups_improved: 0,
            tree: None,
            tree_rolled_back: false,
        };
        if !drift.is_finite() || drift <= opts.drift_threshold {
            return Ok(pass);
        }
        pass.triggered = true;
        pass.adopted_streams = self.adopt_measured_stats();
        pass.groups_improved = self.reoptimize_groups()?;
        let demand = self.measured_demand();
        let saved = (hysteresis > 0.0).then(|| self.topology.tree.clone());
        let report = self.optimize_tree_with_demand(opts.optimizer, &demand);
        if let Some(saved) = saved {
            if report.moves > 0 && report.improvement() <= hysteresis {
                self.topology.tree = saved;
                self.rebuild_routes();
                pass.tree_rolled_back = true;
            }
        }
        pass.tree = Some(report);
        Ok(pass)
    }

    /// Arm (or disarm) the self-tuning scheduler. With a policy set,
    /// the publish driver evaluates the policy's triggers after every
    /// publish (in virtual time — wall clocks never participate) and
    /// runs a hysteresis-gated autotune pass when one fires; see
    /// [`AutotunePolicy`] for the trigger semantics. A pass that fails
    /// (e.g. a regrouping error) is skipped, never propagated into the
    /// publish path. Arming resets the scheduler's phase to "a pass
    /// just ran now".
    pub fn set_autotune(&mut self, policy: Option<AutotunePolicy>) {
        self.autotune_sched = policy.map(|policy| AutotuneSched {
            status: AutotuneStatus {
                policy,
                runs: 0,
                rollbacks: 0,
                last: None,
            },
            last_run_ms: self.metrics.now_ms(),
            last_window: self.metrics.now_ms().div_euclid(self.metrics.window_ms()),
            over_windows: 0,
        });
    }

    /// The armed scheduler's policy, lifetime pass and rollback
    /// counters, and most recent pass; `None` when no policy is armed.
    pub fn autotune_status(&self) -> Option<AutotuneStatus> {
        self.autotune_sched.as_ref().map(|s| s.status)
    }

    /// Evaluate the armed scheduling policy at the current virtual
    /// time. Called by the publish driver after each publish completes.
    fn autotune_tick(&mut self) {
        let Some(mut sched) = self.autotune_sched.take() else {
            return;
        };
        let policy = sched.status.policy;
        let now = self.metrics.now_ms();
        let mut due = false;
        let period = policy.period_virtual.millis();
        if period > 0 && now - sched.last_run_ms >= period {
            due = true;
        }
        if policy.trigger_after_k_windows > 0 {
            let win = now.div_euclid(self.metrics.window_ms());
            if win > sched.last_window {
                // Evaluate drift once per rate window, on entry.
                sched.last_window = win;
                let (sd, gd) = self.measured_drift();
                if sd.max(gd) > policy.options.drift_threshold {
                    sched.over_windows += 1;
                } else {
                    sched.over_windows = 0;
                }
                if sched.over_windows >= policy.trigger_after_k_windows {
                    due = true;
                }
            }
        }
        if due {
            if let Ok(pass) = self.autotune_gated(&policy.options, policy.hysteresis) {
                sched.status.runs += 1;
                if pass.tree_rolled_back {
                    sched.status.rollbacks += 1;
                }
                sched.status.last = Some(pass);
            }
            sched.last_run_ms = now;
            sched.over_windows = 0;
        }
        self.autotune_sched = Some(sched);
    }

    /// Grouping state of one processor (if it hosts any queries).
    pub fn group_manager(&self, processor: NodeId) -> Option<&GroupManager> {
        self.managers.get(&processor)
    }

    /// Overall grouping ratio (`Σ groups / Σ queries`) across processors.
    pub fn grouping_ratio(&self) -> f64 {
        let groups: usize = self.managers.values().map(|m| m.group_count()).sum();
        let queries: usize = self.managers.values().map(|m| m.query_count()).sum();
        if queries == 0 {
            1.0
        } else {
            groups as f64 / queries as f64
        }
    }

    /// Number of queries in the system.
    pub fn query_count(&self) -> usize {
        self.queries.len()
    }

    /// Generation stamp of the executor currently serving a query.
    ///
    /// Every time an executor is (re)created — a group is founded, a
    /// representative is widened by a new member, a group is rebuilt by
    /// [`Cosmos::reoptimize_groups`], or it shrinks after an
    /// [`Cosmos::unsubscribe`] — it gets a fresh, globally monotone
    /// generation. A query reports the generation of its group's
    /// executor, so one that joins a warm group without widening it
    /// shares the running executor's. The scenario harness uses this to
    /// cut oracle epochs exactly where window state restarts; `None`
    /// after unsubscription or for unknown ids.
    pub fn executor_generation(&self, qid: QueryId) -> Option<u64> {
        let processor = self.queries.get(&qid)?.processor;
        let (group, _) = self.managers.get(&processor)?.placement(qid)?;
        Some(self.reps.get(&group.result_stream)?.generation)
    }

    /// A deterministic digest of the routing state: dissemination-tree
    /// edges (shared and per-source), every router's local subscriptions,
    /// and every router's reverse-path neighbor interests.
    ///
    /// Two runs of the same seeded scenario must produce identical
    /// digests at every step (the harness's determinism contract); the
    /// digest also pins routing-state invariance across replays.
    pub fn routing_digest(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for (parent, child) in self.topology.tree.edges() {
            (parent.raw(), child.raw()).hash(&mut h);
        }
        for (origin, tree) in &self.topology.source_trees {
            origin.raw().hash(&mut h);
            for (parent, child) in tree.edges() {
                (parent.raw(), child.raw()).hash(&mut h);
            }
        }
        for r in &self.routers {
            let mut locals: Vec<String> = r
                .local_subscribers()
                .map(|(sub, p)| format!("{sub:?}={p:?}"))
                .collect();
            locals.sort_unstable();
            locals.hash(&mut h);
            let mut interests: Vec<String> = self
                .topology
                .graph
                .neighbors(r.node())
                .iter()
                .filter_map(|(n, _)| r.neighbor_interest(*n).map(|p| format!("{n}={p:?}")))
                .collect();
            interests.sort_unstable();
            interests.hash(&mut h);
        }
        h.finish()
    }

    /// Capture the complete deployed network state as a serializable
    /// [`crate::snapshot::NetworkSnapshot`] for static verification
    /// (`cosmos-verify`): every dissemination tree, every router's
    /// reverse-path interests and local subscriptions, every
    /// advertisement, and every query group with its representative and
    /// re-tightened member profiles. Queries travel as CQL text (the
    /// analyzed form has no serde shape); a baseline deployment's groups
    /// are singletons whose representative *is* the member.
    pub fn snapshot(&self) -> Result<crate::snapshot::NetworkSnapshot> {
        use crate::snapshot::*;
        let topo = |tree: &Tree| TreeTopology {
            root: tree.root(),
            node_count: tree.node_count(),
            edges: tree.edges().collect(),
        };
        let source_trees = self.topology.source_trees.values().map(topo).collect();

        let advertisements: Vec<Advertisement> = self
            .registry
            .iter()
            .map(|r| Advertisement {
                stream: r.name,
                origin: r.origin,
                schema: r.schema.clone(),
            })
            .collect();

        let routers = self
            .routers
            .iter()
            .map(|r| {
                let mut local_subscribers = r
                    .local_subscribers()
                    .map(|(id, profile)| {
                        let kind = match self.subs.get(&id) {
                            Some(LocalSub::Spe(stream)) => SubscriberKind::SpeInput {
                                result_stream: *stream,
                            },
                            Some(&LocalSub::User(query)) => SubscriberKind::User { query },
                            None => {
                                let what = format!("{id:?} at {} feeds nothing", r.node());
                                return Err(CosmosError::System(what));
                            }
                        };
                        Ok(LocalSubscriber {
                            id,
                            kind,
                            profile: profile.clone(),
                        })
                    })
                    .collect::<Result<Vec<_>>>()?;
                local_subscribers.sort_by_key(|s| s.id);
                Ok(RouterState {
                    node: r.node(),
                    neighbor_interests: r
                        .neighbor_interests()
                        .map(|(n, p)| (n, p.clone()))
                        .collect(),
                    local_subscribers,
                })
            })
            .collect::<Result<_>>()?;

        let unparse =
            |q: &AnalyzedQuery| -> Result<String> { Ok(cosmos_query::to_query(q)?.to_string()) };
        let mut groups: Vec<GroupSnapshot> = Vec::new();
        for (&p, manager) in &self.managers {
            for g in manager.groups() {
                let mut members = Vec::new();
                for (qid, member) in &g.members {
                    let (_, split) = manager
                        .placement(*qid)
                        .ok_or_else(|| CosmosError::System(format!("{qid} unplaced")))?;
                    members.push(MemberSnapshot {
                        query: *qid,
                        cql: unparse(member)?,
                        user: self.queries[qid].user,
                        user_sub: self.queries[qid].user_sub,
                        split_profile: split.clone(),
                    });
                }
                groups.push(GroupSnapshot {
                    processor: p,
                    result_stream: g.result_stream,
                    representative_cql: unparse(&g.representative)?,
                    members,
                });
            }
        }
        groups.sort_by_key(|a| a.result_stream);

        let overload = self
            .overload
            .as_ref()
            .map(|ctl| {
                ctl.ledgers()
                    .iter()
                    .map(|(qid, l)| OverloadLedgerSnapshot {
                        query: *qid,
                        offered_tuples: l.offered_tuples,
                        offered_bytes: l.offered_bytes,
                        delivered_tuples: l.delivered_tuples,
                        delivered_bytes: l.delivered_bytes,
                        shed_tuples: l.shed_tuples,
                        shed_bytes: l.shed_bytes,
                        staged_tuples: l.staged_tuples,
                        staged_bytes: l.staged_bytes,
                    })
                    .collect()
            })
            .unwrap_or_default();

        Ok(NetworkSnapshot {
            version: SNAPSHOT_VERSION,
            merging_enabled: self.cfg.merging_enabled,
            nodes: self.routers.len(),
            shared_tree: topo(&self.topology.tree),
            source_trees,
            advertisements,
            routers,
            groups,
            closed_streams: self.disorder.closed.iter().cloned().collect(),
            overload,
        })
    }
}

#[cfg(test)]
mod route_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_query::{AttrStats, StreamStats};
    use cosmos_types::{AttrType, Timestamp, Value};

    /// Line overlay 0 - 1 - 2 - 3 with the processor at node 0, which is
    /// also the origin of `S`.
    fn line_system(merging: bool) -> Cosmos {
        line_system_from(merging, NodeId(0))
    }

    /// [`line_system`] with `S` advertised at `origin`.
    fn line_system_from(merging: bool, origin: NodeId) -> Cosmos {
        let mut g = Graph::new(4);
        for i in 0..4 {
            g.set_position(NodeId(i), i as f64 / 4.0, 0.0);
        }
        for i in 0..3u32 {
            g.add_edge_by_distance(NodeId(i), NodeId(i + 1)).unwrap();
        }
        let cfg = CosmosConfig {
            nodes: 4,
            processor_fraction: 0.25,
            merging_enabled: merging,
            ..CosmosConfig::default()
        };
        let mut sys = Cosmos::with_graph(cfg, g).unwrap();
        sys.register_stream(
            "S",
            Schema::of(&[
                ("k", AttrType::Int),
                ("x", AttrType::Float),
                ("timestamp", AttrType::Int),
            ]),
            StreamStats::with_rate(1.0)
                .attr("k", AttrStats::categorical(10.0))
                .attr("x", AttrStats::numeric(0.0, 100.0, 100.0)),
            origin,
        )
        .unwrap();
        sys
    }

    fn s_tuple(ts: i64, k: i64, x: f64) -> Tuple {
        Tuple::new(
            "S",
            Timestamp(ts),
            vec![Value::Int(k), Value::Float(x), Value::Int(ts)],
        )
    }

    #[test]
    fn roles_and_processor_choice() {
        let sys = line_system(true);
        assert_eq!(sys.role(NodeId(0)), NodeRole::Processor);
        assert_eq!(sys.role(NodeId(1)), NodeRole::Broker);
        assert_eq!(sys.processors(), &[NodeId(0)]);
        assert_eq!(sys.graph().node_count(), 4);
        assert_eq!(sys.tree().node_count(), 4);
    }

    #[test]
    fn end_to_end_query_delivery() {
        let mut sys = line_system(true);
        let q = sys
            .submit_query("SELECT k, x FROM S [Now] WHERE x > 50.0", NodeId(3))
            .unwrap();
        sys.run((0..10).map(|i| s_tuple(i * 1000, i, (i * 12) as f64)))
            .unwrap();
        let res = sys.results(q);
        // x = 0, 12, 24, 36, 48 fail; 60, 72, 84, 96, 108 pass
        assert_eq!(res.len(), 5);
        assert_eq!(res[0].values()[1], Value::Float(60.0));
        assert_eq!(sys.user_of(q), Some(NodeId(3)));
        assert_eq!(sys.processor_of(q), Some(NodeId(0)));
        // data flowed over every link on the path 0→3
        assert!(sys.link_bytes(NodeId(0), NodeId(1)) > 0);
        assert!(sys.link_bytes(NodeId(2), NodeId(3)) > 0);
        assert!(sys.total_bytes() > 0);
        assert!(sys.weighted_cost() > 0.0);
        assert_eq!(sys.tuples_published(), 10);
    }

    #[test]
    fn unbounded_state_query_is_rejected_at_admission() {
        let mut sys = line_system(true);
        sys.register_stream(
            "T",
            Schema::of(&[("k", AttrType::Int), ("timestamp", AttrType::Int)]),
            StreamStats::with_rate(1.0).attr("k", AttrStats::categorical(10.0)),
            NodeId(0),
        )
        .unwrap();
        // Join buffers under [Unbounded] never evict: rejected before
        // any routing state is allocated or data published.
        let err = sys
            .submit_query(
                "SELECT S.k FROM S [Unbounded] S, T [Unbounded] T WHERE S.k = T.k",
                NodeId(3),
            )
            .unwrap_err();
        assert!(err.to_string().contains("B0101"), "{err}");
        // Aggregates over [Unbounded] retain their whole history.
        let err = sys
            .submit_query(
                "SELECT k, COUNT(*) FROM S [Unbounded] GROUP BY k",
                NodeId(2),
            )
            .unwrap_err();
        assert!(err.to_string().contains("B0102"), "{err}");
        // Rejection left nothing behind: a fresh query gets id 0 and
        // the system still works end to end.
        let q = sys
            .submit_query("SELECT DISTINCT k FROM S [Range 5 Second]", NodeId(3))
            .unwrap();
        assert_eq!(q, QueryId(0));
        assert!(
            sys.lint_warnings(q).iter().any(|w| w.contains("B0103")),
            "DISTINCT warning recorded: {:?}",
            sys.lint_warnings(q)
        );
        sys.run((0..4).map(|i| s_tuple(i * 1000, i % 2, i as f64)))
            .unwrap();
        assert_eq!(sys.results(q).len(), 2);
        // The admission gate's measured counterpart: rep state views.
        let views = sys.rep_states();
        assert_eq!(views.len(), 1);
        assert_eq!(views[0].processor, NodeId(0));
        assert_eq!(views[0].state.distinct_rows, 2);
    }

    #[test]
    fn publish_batch_matches_per_tuple_publish() {
        let inputs: Vec<Tuple> = (0..40)
            .map(|i| s_tuple(i * 500, i % 7, (i * 3) as f64))
            .collect();
        let deliver = |batched: bool| -> (Vec<Tuple>, Vec<Tuple>, u64, u64) {
            let mut sys = line_system(true);
            let q1 = sys
                .submit_query("SELECT k, x FROM S [Now] WHERE x > 30.0", NodeId(3))
                .unwrap();
            let q2 = sys
                .submit_query("SELECT k FROM S [Range 5 Second] WHERE k = 3", NodeId(2))
                .unwrap();
            if batched {
                sys.publish_batch(&inputs).unwrap();
            } else {
                sys.run(inputs.iter().cloned()).unwrap();
            }
            (
                sys.results(q1).to_vec(),
                sys.results(q2).to_vec(),
                sys.tuples_published(),
                sys.total_bytes(),
            )
        };
        let single = deliver(false);
        let batched = deliver(true);
        assert_eq!(single.0, batched.0, "q1 deliveries differ");
        assert_eq!(single.1, batched.1, "q2 deliveries differ");
        assert_eq!(single.2, batched.2, "published counts differ");
        assert_eq!(single.3, batched.3, "link bytes differ");
    }

    #[test]
    fn hop_buffer_pool_stays_within_its_cap() {
        // Two grouped aggregates share a representative over the hull of
        // their keys (the registered statistics make that look cheap), so
        // its every emission for the key between them is dropped at the
        // processor: a buffer that entered the loop from the executor
        // and is never handed to a delivery.
        let mut sys = line_system(true);
        sys.register_stream(
            "G",
            Schema::of(&[("k", AttrType::Int), ("timestamp", AttrType::Int)]),
            StreamStats::with_rate(1.0).attr("k", AttrStats::numeric(0.0, 1000.0, 2.0)),
            NodeId(0),
        )
        .unwrap();
        let wanted = [1, 3].map(|k| {
            let text =
                format!("SELECT k, COUNT(*) FROM G [Range 5 Second] WHERE k = {k} GROUP BY k");
            sys.submit_query(&text, NodeId(3)).unwrap()
        });
        assert!(sys.grouping_ratio() < 1.0, "the two queries share a group");
        let nodes = sys.routers.len();
        let mut pooled = 0;
        for i in 0..10_000 {
            let values = vec![Value::Int(1 + i % 3), Value::Int(i * 100)];
            sys.publish(&Tuple::new("G", Timestamp(i * 100), values))
                .unwrap();
            assert!(sys.hops.queue.is_empty() && sys.hops.forwards.is_empty());
            assert!(sys.hops.pool.len() <= nodes);
            assert!(sys.hops.pool.iter().all(Vec::is_empty));
            pooled = pooled.max(sys.hops.pool.len());
        }
        assert_eq!(pooled, nodes, "the cap is what bounds the pool");
        for q in wanted {
            assert!(sys.results(q).len() > 3_000);
        }
    }

    #[test]
    fn publish_batch_rejects_bad_batches() {
        let mut sys = line_system(true);
        // empty batch is a no-op
        sys.publish_batch(&[]).unwrap();
        assert_eq!(sys.tuples_published(), 0);
        // mixed streams are refused
        let mixed = vec![
            s_tuple(0, 1, 1.0),
            Tuple::new("T", Timestamp(1), vec![Value::Int(1)]),
        ];
        assert!(sys.publish_batch(&mixed).is_err());
        // unadvertised stream is refused without counting anything
        let unknown = vec![Tuple::new("Nope", Timestamp(0), vec![Value::Int(1)])];
        assert!(sys.publish_batch(&unknown).is_err());
        assert_eq!(sys.tuples_published(), 0);
        // a tuple shorter (or longer) than its stream's schema is refused
        // before anything is counted, even behind well-formed ones (a
        // short one used to panic in the SPE input's projection plan)
        let q = sys
            .submit_query("SELECT x FROM S [Now]", NodeId(3))
            .unwrap();
        let short = Tuple::new("S", Timestamp(1), vec![Value::Int(1)]);
        let mut long = s_tuple(1, 1, 1.0).values().to_vec();
        long.push(Value::Int(0));
        let long = Tuple::new("S", Timestamp(1), long);
        for bad in [short, long] {
            assert!(sys.publish(&bad).is_err());
            let err = sys.publish_batch(&[s_tuple(0, 1, 1.0), bad]).unwrap_err();
            assert!(err.to_string().contains("schema 3 attributes"), "{err}");
        }
        assert_eq!(sys.tuples_published(), 0);
        assert_eq!(sys.total_bytes(), 0);
        assert!(sys.results(q).is_empty());
        sys.publish(&s_tuple(0, 1, 1.0)).unwrap();
        assert_eq!(sys.results(q).len(), 1);
    }

    #[test]
    fn merged_queries_share_one_result_stream_on_the_trunk() {
        // Two identical queries from nodes 2 and 3: with merging the
        // shared trunk link 0-1 carries the result stream once; without
        // merging it carries it twice.
        let queries = ["SELECT k, x FROM S [Now] WHERE x >= 0.0"; 2];
        let run = |merging: bool| -> (u64, usize, usize) {
            let mut sys = line_system(merging);
            let q1 = sys.submit_query(queries[0], NodeId(2)).unwrap();
            let q2 = sys.submit_query(queries[1], NodeId(3)).unwrap();
            sys.run((0..50).map(|i| s_tuple(i * 1000, i % 5, i as f64)))
                .unwrap();
            (
                sys.link_bytes(NodeId(0), NodeId(1)),
                sys.results(q1).len(),
                sys.results(q2).len(),
            )
        };
        let (shared, r1, r2) = run(true);
        let (unshared, r1b, r2b) = run(false);
        // identical results either way
        assert_eq!(r1, 50);
        assert_eq!(r2, 50);
        assert_eq!(r1, r1b);
        assert_eq!(r2, r2b);
        // sharing saves trunk bandwidth
        assert!(
            shared < unshared,
            "shared {shared} should be < unshared {unshared}"
        );
    }

    #[test]
    fn grouping_state_is_visible() {
        let mut sys = line_system(true);
        sys.submit_query("SELECT k FROM S [Now] WHERE x < 10.0", NodeId(2))
            .unwrap();
        sys.submit_query("SELECT k FROM S [Now] WHERE x < 10.0", NodeId(3))
            .unwrap();
        let gm = sys.group_manager(NodeId(0)).unwrap();
        assert_eq!(gm.query_count(), 2);
        assert_eq!(gm.group_count(), 1);
        assert!((sys.grouping_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(sys.query_count(), 2);
    }

    #[test]
    fn early_projection_reduces_upstream_bytes() {
        // A query projecting one attribute must move fewer bytes than a
        // query projecting everything.
        let narrow = {
            let mut sys = line_system(true);
            sys.submit_query("SELECT k FROM S [Now]", NodeId(3))
                .unwrap();
            sys.run((0..50).map(|i| s_tuple(i * 1000, i, i as f64)))
                .unwrap();
            sys.total_bytes()
        };
        let wide = {
            let mut sys = line_system(true);
            sys.submit_query("SELECT k, x, timestamp FROM S [Now]", NodeId(3))
                .unwrap();
            sys.run((0..50).map(|i| s_tuple(i * 1000, i, i as f64)))
                .unwrap();
            sys.total_bytes()
        };
        assert!(narrow < wide, "narrow {narrow} vs wide {wide}");
    }

    #[test]
    fn filters_drop_traffic_at_the_source() {
        // A highly selective filter must keep almost all tuples off the
        // wire entirely (filtering happens at the origin's router).
        let mut sys = line_system(true);
        sys.submit_query("SELECT k, x FROM S [Now] WHERE x > 1000.0", NodeId(3))
            .unwrap();
        sys.run((0..50).map(|i| s_tuple(i * 1000, i, i as f64)))
            .unwrap();
        // only subscription control state, no data bytes at all
        assert_eq!(sys.total_bytes(), 0);
    }

    #[test]
    fn join_query_runs_end_to_end() {
        let mut sys = line_system(true);
        sys.register_stream(
            "T",
            Schema::of(&[
                ("k", AttrType::Int),
                ("y", AttrType::Float),
                ("timestamp", AttrType::Int),
            ]),
            StreamStats::with_rate(1.0).attr("k", AttrStats::categorical(10.0)),
            NodeId(1),
        )
        .unwrap();
        let q = sys
            .submit_query(
                "SELECT A.k, A.x, B.y FROM S [Range 10 Second] A, T [Range 10 Second] B \
                 WHERE A.k = B.k",
                NodeId(3),
            )
            .unwrap();
        let mut inputs = Vec::new();
        for i in 0..10i64 {
            inputs.push(s_tuple(i * 1000, i % 3, i as f64));
            inputs.push(Tuple::new(
                "T",
                Timestamp(i * 1000 + 500),
                vec![
                    Value::Int(i % 3),
                    Value::Float(-(i as f64)),
                    Value::Int(i * 1000 + 500),
                ],
            ));
        }
        sys.run(inputs).unwrap();
        assert!(!sys.results(q).is_empty());
    }

    #[test]
    fn errors_are_reported() {
        let mut sys = line_system(true);
        // unknown stream in query
        assert!(sys
            .submit_query("SELECT a FROM Nope [Now]", NodeId(1))
            .is_err());
        // unknown user node
        assert!(sys
            .submit_query("SELECT k FROM S [Now]", NodeId(99))
            .is_err());
        // unadvertised stream published
        assert!(sys
            .publish(&Tuple::new("Nope", Timestamp(0), vec![]))
            .is_err());
        // duplicate stream registration
        assert!(sys
            .register_stream(
                "S",
                Schema::of(&[("a", AttrType::Int)]),
                StreamStats::default(),
                NodeId(0)
            )
            .is_err());
        // bad origin
        assert!(sys
            .register_stream(
                "U",
                Schema::of(&[("a", AttrType::Int)]),
                StreamStats::default(),
                NodeId(42)
            )
            .is_err());
        // empty overlay rejected
        assert!(Cosmos::with_graph(CosmosConfig::default(), Graph::new(0)).is_err());
    }

    /// No representative can consume a representative: result streams
    /// are named `result::<node>::g<k>`, which CQL cannot spell, and
    /// any identifier it can spell must be a registered stream (lint
    /// C0201, ahead of analysis). That is why the
    /// dissemination loop may batch freely — a source batch never has
    /// to be interleaved by timestamp with the result batch it
    /// triggers. A change that lets queries read result streams must
    /// bring those interleaving semantics with it.
    #[test]
    fn queries_cannot_read_result_streams() {
        for merging in [true, false] {
            let mut sys = line_system(merging);
            sys.submit_query("SELECT k, x FROM S [Now]", NodeId(3))
                .unwrap();
            let live = *sys.rep_states()[0].result_stream;
            assert!(live.as_str().starts_with("result::"), "{live}");
            assert!(sys.catalog().schema(&live).is_some(), "advertised");
            let err = sys
                .submit_query(&format!("SELECT k FROM {live} [Now]"), NodeId(2))
                .unwrap_err();
            assert_eq!(err.kind(), "parse", "{err}");
            // Every spellable prefix of the name is just an unknown stream.
            let err = sys
                .submit_query("SELECT k FROM result [Now]", NodeId(2))
                .unwrap_err();
            assert!(err.message().contains("unknown stream 'result'"), "{err}");
            assert_eq!(sys.query_count(), 1, "rejections leave no state");
        }
    }

    /// Each `(node, destination)` a punctuation of `stream` entering at
    /// `origin` is forwarded to, walked breadth-first as
    /// [`Cosmos::disseminate_watermark`] walks it.
    fn punctuation_walk(
        sys: &Cosmos,
        stream: &StreamName,
        origin: NodeId,
    ) -> Vec<(NodeId, Destination)> {
        let (mut out, mut queue) = (Vec::new(), VecDeque::from([(None, origin)]));
        while let Some((from, at)) = queue.pop_front() {
            for dest in sys.router(at).route_punctuation(stream, from) {
                out.push((at, dest));
                if let Destination::Neighbor(n) = dest {
                    queue.push_back((Some(at), n));
                }
            }
        }
        out
    }

    /// Install a user-kind subscription to all of `S` at `at`, behind the
    /// query layer's back: only SPE inputs subscribe to a source stream.
    fn subscribe_user_to_s(sys: &mut Cosmos, at: NodeId) {
        let (user, mut profile) = (sys.ids.sub(), Profile::new());
        let always = cosmos_cbn::Conjunction::always();
        profile.add_interest("S", cosmos_cbn::Projection::All, always);
        sys.subscribe_local(at, user, false, profile);
        sys.refold_routes();
    }

    #[test]
    fn a_cell_of_user_subscriptions_only_gets_no_punctuation() {
        let mut sys = line_system(true);
        sys.submit_query("SELECT k, x FROM S [Now]", NodeId(3))
            .unwrap();
        let result = *sys.rep_states()[0].result_stream;
        // Every cell of the result stream holds the user's entry alone:
        // data goes all the way, punctuations nowhere.
        for (up, down) in [(0, 1), (1, 2), (2, 3)] {
            let held = sys.router(NodeId(up)).neighbor_interest(NodeId(down));
            assert!(held.and_then(|p| p.entry(&result)).is_some(), "{up}-{down}");
        }
        assert_eq!(punctuation_walk(&sys, &result, NodeId(0)), []);
        // The source's punctuations still reach the SPE input.
        let spe = sys.reps[&result].sub;
        assert_eq!(
            punctuation_walk(&sys, &"S".into(), NodeId(0)),
            [(NodeId(0), Destination::Local(spe))]
        );
    }

    #[test]
    fn a_cell_with_one_spe_contributor_among_users_is_punctuated() {
        // `S` enters at node 3, its SPE input sits at node 0; a user-kind
        // subscription to `S` at node 1 shares the cells 3→2 and 2→1.
        let mut sys = line_system_from(true, NodeId(3));
        let q = sys
            .submit_query("SELECT k, x FROM S [Now]", NodeId(2))
            .unwrap();
        let s: StreamName = "S".into();
        subscribe_user_to_s(&mut sys, NodeId(1));
        let spe = sys.reps.values().next().unwrap().sub;
        let kinds = |cell: &Cell| -> Vec<bool> {
            sys.ledger.cells[cell]
                .iter()
                .map(|(.., spe)| *spe)
                .collect()
        };
        assert_eq!(kinds(&(NodeId(3), NodeId(2), s)), [true, false]);
        assert_eq!(kinds(&(NodeId(2), NodeId(1), s)), [true, false]);
        assert_eq!(kinds(&(NodeId(1), NodeId(0), s)), [true]);
        let n = |i| Destination::Neighbor(NodeId(i));
        assert_eq!(
            punctuation_walk(&sys, &s, NodeId(3)),
            [
                (NodeId(3), n(2)),
                (NodeId(2), n(1)),
                (NodeId(1), n(0)),
                (NodeId(0), Destination::Local(spe)),
            ],
            "the user at node 1 gets none"
        );
        // Once the SPE input goes, the user's entries stay and carry no
        // punctuation.
        sys.unsubscribe(q).unwrap();
        let held = sys.router(NodeId(3)).neighbor_interest(NodeId(2));
        assert!(held.and_then(|p| p.entry(&s)).is_some());
        assert_eq!(punctuation_walk(&sys, &s, NodeId(3)), []);
    }

    #[test]
    fn a_local_user_subscription_gets_no_punctuation() {
        // The user sits at the processor, the origin of `S`: its router
        // holds the SPE input (on `S`) and the user subscription (on the
        // result stream) side by side — and one more user-kind entry on
        // `S` itself.
        let mut sys = line_system(true);
        let q = sys
            .submit_query("SELECT k, x FROM S [Now]", NodeId(0))
            .unwrap();
        let result = *sys.rep_states()[0].result_stream;
        let s: StreamName = "S".into();
        subscribe_user_to_s(&mut sys, NodeId(0));
        let router = sys.router(NodeId(0));
        assert_eq!(router.local_subscribers().count(), 3);
        let spe = sys.reps[&result].sub;
        assert_eq!(
            router.route_punctuation(&s, None),
            [Destination::Local(spe)]
        );
        assert_eq!(router.route_punctuation(&result, None), []);
        sys.publish(&s_tuple(1_000, 1, 1.0)).unwrap();
        assert_eq!(sys.results(q).len(), 1, "data still reaches the user");
    }

    #[test]
    fn lint_rejects_unsatisfiable_queries_at_registration() {
        let mut sys = line_system(false);
        let err = sys
            .submit_query("SELECT k FROM S [Now] WHERE x > 5.0 AND x < 3.0", NodeId(1))
            .unwrap_err();
        assert_eq!(err.kind(), "lint");
        assert!(err.message().contains("C0101"), "{}", err.message());
        // type errors are caught before registration too
        let err = sys
            .submit_query("SELECT k FROM S [Now] WHERE k = 'red'", NodeId(1))
            .unwrap_err();
        assert_eq!(err.kind(), "lint");
        assert!(err.message().contains("C0203"), "{}", err.message());
        // a rejected query must leave no state behind
        assert_eq!(sys.query_count(), 0);
    }

    #[test]
    fn lint_warnings_are_recorded_for_accepted_queries() {
        let mut sys = line_system(false);
        let q = sys
            .submit_query("SELECT k, AVG(x) FROM S [Now] GROUP BY k", NodeId(1))
            .unwrap();
        let warnings = sys.lint_warnings(q);
        assert!(
            warnings.iter().any(|w| w.contains("C0302")),
            "expected a zero-width-aggregate warning, got {warnings:?}"
        );
        // clean queries carry no warnings
        let q2 = sys
            .submit_query("SELECT k FROM S [Now] WHERE x < 10.0", NodeId(2))
            .unwrap();
        assert!(sys.lint_warnings(q2).is_empty());
    }

    #[test]
    fn reoptimize_groups_end_to_end() {
        // Adversarial arrival order: two disjoint narrow queries seed
        // separate groups before the wide query arrives.
        let mut sys = line_system(true);
        let qa = sys
            .submit_query(
                "SELECT k, x FROM S [Now] WHERE x BETWEEN 0.0 AND 10.0",
                NodeId(1),
            )
            .unwrap();
        let qb = sys
            .submit_query(
                "SELECT k, x FROM S [Now] WHERE x BETWEEN 90.0 AND 100.0",
                NodeId(2),
            )
            .unwrap();
        let qc = sys
            .submit_query(
                "SELECT k, x FROM S [Now] WHERE x BETWEEN 0.0 AND 100.0",
                NodeId(3),
            )
            .unwrap();
        assert_eq!(sys.group_manager(NodeId(0)).unwrap().group_count(), 2);
        let improved = sys.reoptimize_groups().unwrap();
        assert_eq!(improved, 1);
        assert_eq!(sys.group_manager(NodeId(0)).unwrap().group_count(), 1);
        // delivery stays exact for every member after retuning
        sys.run((0..21).map(|i| s_tuple(i * 1000, i, (i * 5) as f64)))
            .unwrap();
        assert_eq!(sys.results(qa).len(), 3); // x ∈ {0, 5, 10}
        assert_eq!(sys.results(qb).len(), 3); // x ∈ {90, 95, 100}
        assert_eq!(sys.results(qc).len(), 21);
        // idempotent afterwards
        assert_eq!(sys.reoptimize_groups().unwrap(), 0);
        // no-op in baseline mode
        let mut base = line_system(false);
        base.submit_query("SELECT k FROM S [Now]", NodeId(1))
            .unwrap();
        assert_eq!(base.reoptimize_groups().unwrap(), 0);
    }

    #[test]
    fn unsubscribe_stops_one_query_and_keeps_others() {
        let mut sys = line_system(true);
        let q1 = sys
            .submit_query("SELECT k, x FROM S [Now] WHERE x <= 20.0", NodeId(2))
            .unwrap();
        let q2 = sys
            .submit_query("SELECT k, x FROM S [Now] WHERE x <= 40.0", NodeId(3))
            .unwrap();
        sys.run((0..5).map(|i| s_tuple(i * 1000, i, (i * 10) as f64)))
            .unwrap();
        assert_eq!(sys.results(q1).len(), 3);
        assert_eq!(sys.results(q2).len(), 5);
        // Drop the wide member: the representative must shrink back to
        // q1's shape, and q1 keeps receiving exactly its results.
        sys.unsubscribe(q2).unwrap();
        sys.run((5..10).map(|i| s_tuple(i * 1000, i % 5, ((i % 5) * 10) as f64)))
            .unwrap();
        assert_eq!(sys.results(q1).len(), 6); // +3 new matches (0,10,20)
        assert_eq!(sys.results(q2).len(), 5); // frozen after unsubscribe
        let gm = sys.group_manager(NodeId(0)).unwrap();
        assert_eq!(gm.query_count(), 1);
        assert_eq!(gm.group_count(), 1);
        assert_eq!(sys.query_count(), 1, "live queries, not ids issued");
    }

    #[test]
    fn unsubscribe_last_member_dissolves_group_and_silences_traffic() {
        let mut sys = line_system(true);
        let q = sys
            .submit_query("SELECT k, x FROM S [Now]", NodeId(3))
            .unwrap();
        sys.run((0..3).map(|i| s_tuple(i * 1000, i, i as f64)))
            .unwrap();
        let bytes_before = sys.total_bytes();
        assert!(bytes_before > 0);
        sys.unsubscribe(q).unwrap();
        let gm = sys.group_manager(NodeId(0)).unwrap();
        assert_eq!(gm.group_count(), 0);
        // further publishes move no bytes at all
        sys.run((3..10).map(|i| s_tuple(i * 1000, i, i as f64)))
            .unwrap();
        assert_eq!(sys.total_bytes(), bytes_before);
        // delivered results remain readable; unknown ids error
        assert_eq!(sys.results(q).len(), 3);
        assert!(sys.unsubscribe(q).is_err());
        assert!(sys.unsubscribe(QueryId(99)).is_err());
    }

    #[test]
    fn unsubscribe_in_baseline_mode() {
        let mut sys = line_system(false);
        let q1 = sys
            .submit_query("SELECT k FROM S [Now]", NodeId(2))
            .unwrap();
        let q2 = sys
            .submit_query("SELECT k FROM S [Now]", NodeId(3))
            .unwrap();
        sys.unsubscribe(q1).unwrap();
        sys.run((0..4).map(|i| s_tuple(i * 1000, i, i as f64)))
            .unwrap();
        assert_eq!(sys.results(q1).len(), 0);
        assert_eq!(sys.results(q2).len(), 4);
    }

    #[test]
    fn per_source_trees_deliver_and_shorten_paths() {
        // A ring-ish overlay where the shared MST forces a long detour
        // for one source, but its own shortest-path tree is direct.
        let mut g = Graph::new(5);
        g.set_position(NodeId(0), 0.0, 0.0);
        g.set_position(NodeId(1), 0.25, 0.0);
        g.set_position(NodeId(2), 0.5, 0.0);
        g.set_position(NodeId(3), 0.75, 0.0);
        g.set_position(NodeId(4), 1.0, 0.0);
        for i in 0..4u32 {
            g.add_edge_by_distance(NodeId(i), NodeId(i + 1)).unwrap();
        }
        // direct (slightly heavier than the 4-hop sum, so the MST keeps
        // the chain but a per-source tree from node 4 can use it)
        g.add_edge(NodeId(0), NodeId(4), 1.02).unwrap();
        let run = |per_source: bool| {
            let cfg = CosmosConfig {
                nodes: 5,
                processor_fraction: 0.2,
                per_source_trees: per_source,
                ..CosmosConfig::default()
            };
            let mut sys = Cosmos::with_graph(cfg, g.clone()).unwrap();
            sys.register_stream(
                "S",
                Schema::of(&[("k", AttrType::Int), ("timestamp", AttrType::Int)]),
                StreamStats::with_rate(1.0).attr("k", AttrStats::categorical(8.0)),
                NodeId(4),
            )
            .unwrap();
            let q = sys
                .submit_query("SELECT k FROM S [Now]", NodeId(1))
                .unwrap();
            sys.run((0..6).map(|i| {
                Tuple::new(
                    "S",
                    Timestamp(i * 1000),
                    vec![Value::Int(i), Value::Int(i * 1000)],
                )
            }))
            .unwrap();
            assert_eq!(sys.results(q).len(), 6);
            sys
        };
        let shared = run(false);
        let multi = run(true);
        // both deliver; the per-source tree of origin 4 exists
        assert!(multi.tree_for(NodeId(4)).parent(NodeId(4)).is_none());
        assert_eq!(multi.tree_for(NodeId(4)).root(), NodeId(4));
        // shared mode uses the MST regardless of origin
        assert_eq!(shared.tree_for(NodeId(4)).root(), NodeId(0));
    }

    #[test]
    fn optimize_tree_rewires_and_keeps_delivering() {
        // Line overlay, user far from the source: the optimizer can
        // shortcut the path (overlay links are logical).
        let mut g = Graph::new(6);
        for i in 0..6 {
            g.set_position(NodeId(i), 0.15 * i as f64, 0.0);
        }
        for i in 0..5u32 {
            g.add_edge_by_distance(NodeId(i), NodeId(i + 1)).unwrap();
        }
        let cfg = CosmosConfig {
            nodes: 6,
            processor_fraction: 0.17,
            ..CosmosConfig::default()
        };
        let mut sys = Cosmos::with_graph(cfg, g).unwrap();
        sys.register_stream(
            "S",
            Schema::of(&[("k", AttrType::Int), ("timestamp", AttrType::Int)]),
            StreamStats::with_rate(1.0).attr("k", AttrStats::categorical(8.0)),
            NodeId(0),
        )
        .unwrap();
        let q = sys
            .submit_query("SELECT k FROM S [Now]", NodeId(5))
            .unwrap();
        sys.run((0..3).map(|i| {
            Tuple::new(
                "S",
                Timestamp(i * 1000),
                vec![Value::Int(i), Value::Int(i * 1000)],
            )
        }))
        .unwrap();
        let report = sys.optimize_tree(cosmos_overlay::OptimizerConfig {
            max_degree: 4,
            w_delay: 1.0,
            w_load: 0.0,
            rounds: 4,
        });
        assert!(report.cost_after <= report.cost_before);
        // delivery continues after reorganization
        sys.run((3..6).map(|i| {
            Tuple::new(
                "S",
                Timestamp(i * 1000),
                vec![Value::Int(i), Value::Int(i * 1000)],
            )
        }))
        .unwrap();
        assert_eq!(sys.results(q).len(), 6);
    }

    #[test]
    fn optimize_tree_noop_with_per_source_trees() {
        let cfg = CosmosConfig {
            nodes: 8,
            per_source_trees: true,
            seed: 2,
            ..CosmosConfig::default()
        };
        let mut sys = Cosmos::new(cfg).unwrap();
        let report = sys.optimize_tree(cosmos_overlay::OptimizerConfig::default());
        assert_eq!(report.moves, 0);
        assert_eq!(report.cost_before, report.cost_after);
    }

    #[test]
    fn rep_change_replaces_executor_and_still_delivers() {
        let mut sys = line_system(true);
        let q1 = sys
            .submit_query("SELECT k, x FROM S [Now] WHERE x <= 20.0", NodeId(2))
            .unwrap();
        // widening second member forces a representative change
        let q2 = sys
            .submit_query("SELECT k, x FROM S [Now] WHERE x <= 40.0", NodeId(3))
            .unwrap();
        sys.run((0..10).map(|i| s_tuple(i * 1000, i, (i * 10) as f64)))
            .unwrap();
        assert_eq!(sys.results(q1).len(), 3); // x = 0, 10, 20
        assert_eq!(sys.results(q2).len(), 5); // x = 0..40
        let gm = sys.group_manager(NodeId(0)).unwrap();
        assert_eq!(gm.group_count(), 1);
    }

    #[test]
    fn disordered_publishes_converge_after_close() {
        // `S` enters at node 3 and its processor is node 0: every source
        // punctuation crosses the three links; the result stream goes
        // back to the user at node 3 and its punctuations cross none.
        let mut sys = line_system_from(true, NodeId(3));
        let q = sys
            .submit_query(
                "SELECT k, COUNT(*) FROM S [Range 10 Second] GROUP BY k",
                NodeId(3),
            )
            .unwrap();
        sys.set_disorder(Some(DisorderRuntime {
            bound: TimeDelta::from_millis(3_000),
            policy: LatePolicy::Revise {
                grace: TimeDelta::from_millis(3_000),
            },
        }));
        // Timestamps displaced by up to the bound, plus one exact
        // duplicate. In-order reference below must agree post-close.
        let ts = [2_000i64, 1_000, 3_000, 5_000, 4_000, 5_000, 7_000, 6_000];
        for t in ts {
            let k = t / 1_000;
            sys.publish(&s_tuple(t, k % 2, k as f64)).unwrap();
        }
        sys.close_streams();
        let totals = sys.disorder_totals();
        assert!(totals.conserved(), "{totals:?}");
        assert_eq!(totals.duplicates, 1);
        assert_eq!(totals.staged, 0, "close must drain all staging");
        // The in-order reference run (disorder off, duplicate removed).
        let mut reference = line_system_from(true, NodeId(3));
        let rq = reference
            .submit_query(
                "SELECT k, COUNT(*) FROM S [Range 10 Second] GROUP BY k",
                NodeId(3),
            )
            .unwrap();
        let mut sorted: Vec<i64> = ts
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 5)
            .map(|(_, t)| *t)
            .collect();
        sorted.sort_unstable();
        for t in sorted {
            let k = t / 1_000;
            reference.publish(&s_tuple(t, k % 2, k as f64)).unwrap();
        }
        assert_eq!(sys.results(q), reference.results(rq));
        // Source punctuations crossed links and were accounted both ways:
        // watermarks 2 000 − 3 000, 0, 2 000 and 4 000 were due after the
        // publishes (the others did not advance), then +∞ at the close —
        // five, over three links each.
        let snap = sys.metrics();
        assert_eq!(snap.punctuations, 5 * 3);
        assert_eq!(snap.punctuation_bytes, 18 * snap.punctuations);
        // None of the result stream's: it moved (its frontier advanced)
        // and its data crossed, but no router forwards its punctuations.
        let result = *sys.rep_states()[0].result_stream;
        assert!(sys.disorder.emitted.contains_key(&result));
        assert!(sys.results(q).len() > 1 && sys.link_bytes(NodeId(2), NodeId(3)) > 0);
        assert_eq!(punctuation_walk(&sys, &result, NodeId(0)), []);
        assert_eq!(snap.link_bytes_total(), sys.total_bytes());
        // The closed set reached the network snapshot (and only there:
        // an in-order snapshot stays byte-identical to the old format).
        let netsnap = sys.snapshot().unwrap();
        assert_eq!(netsnap.closed_streams, vec![StreamName::from("S")]);
        let json = netsnap.to_json().unwrap();
        let back = crate::snapshot::NetworkSnapshot::from_json(&json).unwrap();
        assert_eq!(back, netsnap);
        let plain = reference.snapshot().unwrap().to_json().unwrap();
        assert!(!plain.contains("closed_streams"));
    }

    #[test]
    fn in_order_disorder_mode_changes_nothing_but_watermarks() {
        // Same in-order feed, disorder mode on vs off: deliveries are
        // identical tuple for tuple (staging releases everything, no
        // late path is ever taken).
        let feed: Vec<Tuple> = (0..12).map(|i| s_tuple(i * 500, i % 3, i as f64)).collect();
        let deliver = |disorder: bool| -> Vec<Tuple> {
            let mut sys = line_system(true);
            let q = sys
                .submit_query(
                    "SELECT k, COUNT(*) FROM S [Range 2 Second] GROUP BY k",
                    NodeId(3),
                )
                .unwrap();
            if disorder {
                sys.set_disorder(Some(DisorderRuntime {
                    bound: TimeDelta::from_millis(1_000),
                    policy: LatePolicy::Drop,
                }));
            }
            sys.run(feed.iter().cloned()).unwrap();
            sys.close_streams();
            sys.results(q).to_vec()
        };
        assert_eq!(deliver(false), deliver(true));
    }

    #[test]
    fn retiring_a_rep_flushes_its_staging_through_the_engine() {
        let mut sys = line_system(true);
        let q1 = sys
            .submit_query("SELECT k, x FROM S [Now] WHERE x <= 20.0", NodeId(2))
            .unwrap();
        sys.set_disorder(Some(DisorderRuntime {
            bound: TimeDelta::from_millis(10_000),
            policy: LatePolicy::Drop,
        }));
        // A huge bound keeps every publish staged (watermark trails far
        // behind), so results only exist if replacement flushes.
        sys.publish(&s_tuple(1_000, 1, 10.0)).unwrap();
        sys.publish(&s_tuple(2_000, 2, 20.0)).unwrap();
        assert!(sys.results(q1).is_empty(), "still staged");
        // Widening member replaces the representative executor, which
        // must flush the staged tuples through the old engine first.
        let q2 = sys
            .submit_query("SELECT k, x FROM S [Now] WHERE x <= 40.0", NodeId(3))
            .unwrap();
        assert_eq!(sys.results(q1).len(), 2);
        assert!(sys.results(q2).is_empty(), "flushed before q2 subscribed");
        let totals = sys.disorder_totals();
        assert!(totals.conserved(), "{totals:?}");
        assert_eq!(totals.drained, 2);
        sys.close_streams();
        assert!(sys.disorder_totals().conserved());
    }

    #[test]
    fn stopped_representatives_leave_no_emitted_watermark_behind() {
        let mut sys = line_system(true);
        let runtime = DisorderRuntime {
            bound: TimeDelta::from_millis(1_000),
            policy: LatePolicy::Drop,
        };
        sys.set_disorder(Some(runtime));
        sys.submit_query(
            "SELECT k, COUNT(*) FROM S [Range 10 Second] GROUP BY k",
            NodeId(3),
        )
        .unwrap();
        sys.publish(&s_tuple(5_000, 1, 1.0)).unwrap();
        let streams = |sys: &Cosmos| sys.disorder.emitted.keys().cloned().collect::<Vec<_>>();
        let at_start = streams(&sys);
        assert_eq!(at_start.len(), 2, "the source and the standing group");
        for cycle in 0..50 {
            // A selection cannot join the aggregate's group: it forms its
            // own, whose frontier moves with the publish (a result-stream
            // watermark is emitted), and dissolves it again.
            let text = format!("SELECT k, x FROM S [Now] WHERE k = {cycle}");
            let q = sys.submit_query(&text, NodeId(2)).unwrap();
            sys.publish(&s_tuple(6_000 + cycle * 1_000, cycle, 1.0))
                .unwrap();
            assert_eq!(streams(&sys).len(), 3, "cycle {cycle}");
            sys.unsubscribe(q).unwrap();
            assert_eq!(streams(&sys), at_start, "cycle {cycle}");
        }
        assert!(sys.disorder_totals().conserved());

        // Arming replays every emitted watermark; one for a stream the
        // executor does not bind must not move (or be kept by) it.
        let armed = Disorder {
            runtime: Some(runtime),
            emitted: BTreeMap::from([("Elsewhere".into(), Timestamp(9_000))]),
            ..Disorder::default()
        };
        let query = cosmos_cql::parse_query("SELECT k FROM S [Now]").unwrap();
        let query = AnalyzedQuery::analyze(&query, sys.catalog.schema_fn()).unwrap();
        let mut executor = Executor::new(query, "r").unwrap();
        armed.arm(&mut executor);
        assert_eq!(executor.frontier(), Some(Timestamp(i64::MIN)));
    }
}
