//! The data plane: the stream-aware CBN of PAPER §1's data layer.
//!
//! [`DataPlane`] owns the overlay and its dissemination trees, the
//! schema registry, every node's router and the route ledger behind
//! their reverse-path interests, what each local subscription feeds,
//! the delivery buffers, the traffic counters, the metrics hub, the
//! overload gate, and the one loop that moves datagrams
//! ([`DataPlane::disseminate`]) with its reused buffers. Its queue holds
//! two kinds of datagram ([`Payload`]): tuple batches and watermark
//! punctuations, and [`DataPlane::send`] is the one function that puts
//! either on a link. Watermarks exist for source streams only: an SPE
//! input is the only reader of a punctuation, and no query can read a
//! result stream.
//!
//! It cannot see query state. The one place the layers meet is an SPE
//! input: the loop hands the batch (or the watermark) that reaches one
//! to the [`QueryPlane`], which runs the representative's executor and
//! hands the emitted batch back; [`DataPlane::emit`] is the one function
//! that puts a result batch on the network. A route changes one way,
//! through the route ledger's `set` ([`DataPlane::subscribe_local`],
//! and [`DataPlane::rebuild_routes`] after a tree change), and reaches
//! the routers in [`DataPlane::refold_routes`].

use super::query::{Emitted, QueryPlane};
use super::{CosmosConfig, NodeRole};
use crate::overload::{Action, OverloadController};
use cosmos_cbn::{BatchForward, Destination, Profile, ProfileEntry, Router, SchemaRegistry};
use cosmos_metrics::{MetricsConfig, MetricsHub};
use cosmos_overlay::{
    minimum_spanning_tree, Graph, OptimizeReport, OptimizerConfig, Tree, TreeOptimizer,
};
use cosmos_spe::{AnalyzedQuery, Executor};
use cosmos_types::{
    CosmosError, FxHashMap, NeumaierSum, NodeId, Punctuation, QueryId, Result, Schema, StreamName,
    SubscriberId, Timestamp, Tuple,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// The overlay and the dissemination trees laid over it (Figure 1).
#[derive(Debug)]
pub(crate) struct Topology {
    pub(crate) graph: Graph,
    /// The shared dissemination tree.
    pub(crate) tree: Tree,
    /// Per-origin shortest-path dissemination trees (lazily built, and
    /// only when `per_source_trees` is set).
    pub(crate) source_trees: BTreeMap<NodeId, Tree>,
    pub(super) per_source_trees: bool,
    pub(super) roles: Vec<NodeRole>,
    pub(super) processors: Vec<NodeId>,
}

impl Topology {
    /// The dissemination tree used for streams originating at `origin`.
    pub(super) fn tree_for(&self, origin: NodeId) -> &Tree {
        self.source_trees.get(&origin).unwrap_or(&self.tree)
    }

    /// In multi-tree mode, build the shortest-path dissemination tree
    /// rooted at a stream origin, unless it exists. A failed bridge can
    /// leave nodes no live overlay edge reaches: tree repairs heal over
    /// any live pair ([`cosmos_overlay::Graph::link_delay`]), shortest
    /// paths walk edges only. The origin then gets a copy of the shared
    /// tree, which spans every node.
    pub(super) fn ensure_source_tree(&mut self, origin: NodeId) {
        if !self.per_source_trees || self.source_trees.contains_key(&origin) {
            return;
        }
        let sp = cosmos_overlay::dijkstra(&self.graph, origin);
        let edges: Option<Vec<(NodeId, NodeId)>> = (self.graph.nodes())
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

/// What a locally attached subscriber is.
#[derive(Debug)]
pub(super) enum LocalSub {
    /// The SPE input of the representative producing this result stream.
    Spe(StreamName),
    /// The user subscription of this query.
    User(QueryId),
}

/// One hop of the dissemination BFS: a datagram arriving at `at` over
/// the link from `from` (`None` when it entered the network at `at`).
#[derive(Debug)]
struct Hop {
    from: Option<NodeId>,
    at: NodeId,
    payload: Payload,
}

/// The datagram a [`Hop`] carries.
#[derive(Debug)]
enum Payload {
    /// A stream-homogeneous batch of tuples with their schema and their
    /// wire bytes as accounted on the link from `from` (0 when the batch
    /// entered at `at`): a relayed hop crosses its next link with the
    /// same tuples, so it is accounted from this count.
    Batch(Vec<Tuple>, Schema, usize),
    /// A source stream's watermark, bound for the stream's SPE inputs.
    Watermark(StreamName, Timestamp),
}

/// The buffers [`DataPlane::disseminate`] works in, kept between calls
/// so the loop finds them grown instead of allocating per hop.
#[derive(Debug, Default)]
struct HopLoop {
    /// Hops still to serve (empty between calls).
    queue: VecDeque<Hop>,
    /// The forwards of the batch hop being routed (empty between hops).
    forwards: Vec<BatchForward>,
    /// The destinations of the watermark hop being routed.
    dests: Vec<Destination>,
    /// Emptied tuple buffers of routed hops and SPE-consumed forwards,
    /// which the routers fill the next forwards into; at most one per
    /// node ([`HopLoop::recycle`]).
    pool: Vec<Vec<Tuple>>,
}

impl HopLoop {
    /// Queue `payload` arriving at `at` over the link from `from`.
    fn push(&mut self, from: Option<NodeId>, at: NodeId, payload: Payload) {
        self.queue.push_back(Hop { from, at, payload });
    }

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

/// Out-of-order operation: the runtime (`None` = in-order, zero
/// behavior change) and the watermark state it drives. The data plane
/// writes every field; the query plane reads `runtime` and `emitted`
/// when it arms an executor ([`Disorder::arm`]) and `closed` when it
/// installs an SPE input ([`DataPlane::install_spe_input`]).
#[derive(Debug, Default)]
pub(super) struct Disorder {
    pub(super) runtime: Option<super::DisorderRuntime>,
    /// Largest timestamp any accepted publish carried.
    high_water: Option<Timestamp>,
    /// Last watermark emitted per source stream. No result stream is
    /// ever punctuated: no query can read one.
    emitted: BTreeMap<StreamName, Timestamp>,
    /// Source streams that have published at least once — the streams
    /// watermarks are emitted for.
    published: BTreeSet<StreamName>,
    /// Source streams closed by their final watermark
    /// ([`DataPlane::close_streams`]); their routing state is pruned.
    pub(super) closed: BTreeSet<StreamName>,
}

impl Disorder {
    /// Put an executor into disorder mode (when on) and seed it with
    /// every source watermark already emitted, so its frontier starts
    /// where the network's has advanced to instead of at −∞ (the
    /// executor ignores, and does not keep, those of streams it does not
    /// bind).
    pub(super) fn arm(&self, executor: &mut Executor) {
        let Some(rt) = self.runtime else { return };
        executor.enable_disorder(rt.policy);
        for (s, wm) in &self.emitted {
            let outputs = executor.advance_watermark(s, *wm);
            debug_assert!(outputs.is_empty(), "fresh staging cannot drain");
        }
    }

    /// Epilogue of every publish (a no-op in in-order operation): note
    /// the stream, advance the global high water, and queue behind the
    /// publish's data the punctuations now due — `high_water − bound`
    /// for every open source stream that has published, where it
    /// advances past the last one emitted. Lagging the *global* high
    /// water is what makes the promise sound: the workload's disorder
    /// transform displaces a tuple's position by at most `bound` of
    /// application time, so no future publish of *any* stream can carry
    /// a timestamp at or below the emitted watermark.
    fn after_publish(&mut self, tuples: &[Tuple], registry: &SchemaRegistry, hops: &mut HopLoop) {
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
                hops.push(None, origin, Payload::Watermark(stream, wm));
            }
        }
    }
}

/// The data layer of a deployment (see the module doc).
#[derive(Debug)]
pub(crate) struct DataPlane {
    pub(crate) topology: Topology,
    pub(super) registry: SchemaRegistry,
    pub(super) routers: Vec<Router>,
    /// What every local subscription contributes to the routers'
    /// reverse-path interests.
    ledger: RouteLedger,
    /// Every local subscription the routers hold, by what it feeds.
    pub(super) subs: FxHashMap<SubscriberId, LocalSub>,
    /// Delivered results; they outlive the query (`Cosmos::results`).
    pub(super) delivered: FxHashMap<QueryId, Vec<Tuple>>,
    /// The driver's own traffic accounting: bytes per undirected link
    /// and their delay-weighted sum. The metrics hub keeps a second,
    /// windowed ledger, and the conservation oracle holds it to this
    /// independent count, so this one is not read back from the hub
    /// (the oracle would then compare the hub with itself). The sum is
    /// compensated: the `compensated_sums` test of `cosmos-types` holds
    /// every oracle-feeding float accumulation to this standard.
    pub(super) link_bytes: BTreeMap<(NodeId, NodeId), u64>,
    pub(super) weighted_cost: NeumaierSum,
    pub(super) tuples_published: u64,
    /// Runtime observability: sliding-window rates, sampled stream
    /// statistics, delivery latencies (see `Cosmos::metrics`).
    pub(super) metrics: MetricsHub,
    pub(super) disorder: Disorder,
    /// Per-node overload controller (`None` = unbounded delivery; see
    /// `Cosmos::set_overload`).
    pub(super) overload: Option<OverloadController>,
    /// The dissemination loop's reused buffers.
    hops: HopLoop,
}

impl DataPlane {
    /// The data layer of a fresh deployment on `graph`: the shared tree
    /// is the minimum spanning tree from node 0, and processors are
    /// chosen by stride to match `processor_fraction`.
    pub(super) fn new(cfg: &CosmosConfig, graph: Graph) -> Result<DataPlane> {
        let n = graph.node_count();
        if n == 0 {
            return Err(CosmosError::System("empty overlay".into()));
        }
        let tree = minimum_spanning_tree(&graph, NodeId(0))?;
        let processors = super::place_processors(n, cfg.processor_fraction);
        let mut roles = vec![NodeRole::Broker; n];
        for p in &processors {
            roles[p.index()] = NodeRole::Processor;
        }
        Ok(DataPlane {
            topology: Topology {
                graph,
                tree,
                source_trees: BTreeMap::new(),
                per_source_trees: cfg.per_source_trees,
                roles,
                processors,
            },
            registry: SchemaRegistry::new(),
            routers: (0..n as u32).map(|i| Router::new(NodeId(i))).collect(),
            ledger: RouteLedger::default(),
            subs: FxHashMap::default(),
            delivered: FxHashMap::default(),
            link_bytes: BTreeMap::new(),
            weighted_cost: NeumaierSum::default(),
            tuples_published: 0,
            metrics: MetricsHub::new(MetricsConfig::default()),
            disorder: Disorder::default(),
            overload: None,
            hops: HopLoop::default(),
        })
    }

    /// Install `profile` as local subscription `sub` at `at` (an empty
    /// profile withdraws it) and record what it contributes to the
    /// reverse paths: the one way a local subscription changes. An SPE
    /// input (one [`DataPlane::subs`] lists as such — a subscription
    /// never changes kind) is marked for the punctuations of every
    /// stream it names. The routers' reverse-path interests follow at
    /// the end of the public call ([`DataPlane::refold_routes`]). A
    /// subscription that names a source stream — an SPE input, or the
    /// user of a query the CBN serves alone — is installed through
    /// [`DataPlane::open_profile`], so none names a closed stream.
    pub(super) fn subscribe_local(&mut self, at: NodeId, sub: SubscriberId, profile: Profile) {
        let spe = matches!(self.subs.get(&sub), Some(LocalSub::Spe(_)));
        self.ledger
            .set(&self.topology, &self.registry, at, sub, spe, &profile);
        let router = &mut self.routers[at.index()];
        if profile.is_empty() {
            router.remove_local_subscriber(sub);
            return;
        }
        let streams: Vec<StreamName> = profile.streams().copied().filter(|_| spe).collect();
        router.add_local_subscriber(sub, profile);
        for stream in &streams {
            router.punctuate(Destination::Local(sub), stream, true);
        }
    }

    /// `profile` minus the closed streams: no datagram of a closed
    /// stream can arrive any more, and subscribing to one would
    /// resurrect the routing state [`DataPlane::close_streams`] pruned.
    pub(super) fn open_profile(&self, mut profile: Profile) -> Profile {
        for closed in &self.disorder.closed {
            profile.remove_entry(closed);
        }
        profile
    }

    /// (Re)install SPE-input subscription `sub` (listed in
    /// [`DataPlane::subs`]) at processor `at`: `rep`'s source profile
    /// minus the closed streams ([`DataPlane::open_profile`]).
    pub(super) fn install_spe_input(&mut self, at: NodeId, sub: SubscriberId, rep: &AnalyzedQuery) {
        let profile = self.open_profile(rep.source_profile());
        self.subscribe_local(at, sub, profile);
    }

    /// Bring the cells edited since the last refold up to date: each
    /// installed entry becomes the left fold of its cell's contributors
    /// in `SubscriberId` order, and is installed on its router as a
    /// one-stream edit, which re-indexes nothing when the entry is
    /// unchanged. The same pass ORs the contributors' SPE-input flags
    /// into the cell's punctuation mark. An operation that fails
    /// half-way leaves its cells to the next refold.
    pub(super) fn refold_routes(&mut self) {
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

    /// Re-`set` every local subscription against the *current* trees
    /// and refold what that touched (see `Cosmos::rebuild_routes`): a
    /// contribution whose entry and path are unchanged is kept, so a tree
    /// change refolds exactly the cells of the paths it moved.
    pub(super) fn rebuild_routes(&mut self) {
        for r in &self.routers {
            for (sub, profile) in r.local_subscribers() {
                let spe = matches!(self.subs.get(&sub), Some(LocalSub::Spe(_)));
                self.ledger
                    .set(&self.topology, &self.registry, r.node(), sub, spe, profile);
            }
        }
        self.refold_routes();
    }

    /// Reorganize the shared tree for `demand`, one finite non-negative
    /// entry per node (the `Cosmos` callers build or check it), and
    /// rebuild the routes if a node moved. A zero-move report in
    /// per-source-tree mode.
    pub(super) fn optimize_tree(&mut self, cfg: OptimizerConfig, demand: &[f64]) -> OptimizeReport {
        let optimizer = TreeOptimizer::new(cfg);
        let topo = &mut self.topology;
        if topo.per_source_trees {
            let idle = vec![0.0; topo.graph.node_count()];
            let cost = optimizer.cost(&topo.graph, &topo.tree, &idle);
            return OptimizeReport {
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

    /// Put `payload` on the link `from → to`, the one way a datagram
    /// crosses a link: one entry in each of the two ledgers (and the
    /// hub's punctuation counters for a watermark), and its hop queued.
    fn send(&mut self, hops: &mut HopLoop, from: NodeId, to: NodeId, payload: Payload) {
        let (tuples, bytes) = match &payload {
            Payload::Batch(tuples, _, bytes) => (tuples.len(), *bytes),
            Payload::Watermark(..) => (0, Punctuation::WIRE_BYTES),
        };
        let key = (from.min(to), from.max(to));
        *self.link_bytes.entry(key).or_insert(0) += bytes as u64;
        // Price the hop exactly like TreeOptimizer::cost does, so the
        // measured weighted cost is comparable to the estimated one.
        let graph = &self.topology.graph;
        let delay = graph.link_delay(from, to).unwrap_or_else(|| {
            debug_assert!(false, "traffic accounted on downed link {from}-{to}");
            graph.distance(from, to).max(f64::EPSILON)
        });
        self.weighted_cost.add(bytes as f64 * delay);
        self.metrics.on_link(from, to, tuples, bytes);
        if let Payload::Watermark(..) = payload {
            self.metrics.on_punctuation(bytes);
        }
        hops.push(Some(from), to, payload);
    }

    /// Publish a stream-homogeneous batch at its stream's origin (see
    /// `Cosmos::publish_batch`) and drive it, the result batches it
    /// triggers and the watermarks it makes due through the network.
    /// The origin's forwards are queued ahead of the watermarks, so on
    /// every link a publish's data crosses before its punctuations.
    pub(super) fn publish(&mut self, spe: &mut QueryPlane, tuples: &[Tuple]) -> Result<()> {
        let Some(first) = tuples.first() else {
            return Ok(());
        };
        if tuples.iter().any(|t| t.stream != first.stream) {
            return Err(CosmosError::System(
                "publish_batch requires a single-stream batch".into(),
            ));
        }
        let reg = self.registry.get(&first.stream).ok_or_else(|| {
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
        self.tuples_published += tuples.len() as u64;
        self.metrics.on_publish(&first.stream, &schema, tuples);
        let mut hops = std::mem::take(&mut self.hops);
        debug_assert!(hops.queue.is_empty() && hops.forwards.is_empty());
        let (forwards, pool) = (&mut hops.forwards, &mut hops.pool);
        self.routers[origin.index()].route_batch_into(tuples, &schema, None, forwards, pool);
        self.process_forwards(spe, origin, &mut hops);
        (self.disorder).after_publish(tuples, &self.registry, &mut hops);
        self.disseminate(spe, &mut hops);
        self.hops = hops;
        Ok(())
    }

    /// Put an executor's result batch on the network at its processor
    /// `at` — the one way a result batch enters it: observe it like any
    /// other published stream and queue it as a hop that entered at `at`.
    fn emit(&mut self, hops: &mut HopLoop, at: NodeId, batch: Emitted) {
        let (stream, tuples, schema) = batch;
        self.metrics.on_publish(&stream, &schema, &tuples);
        hops.push(None, at, Payload::Batch(tuples, schema, 0));
    }

    /// Drive a result batch a retiring executor flushed through the
    /// network to completion, before the caller goes on.
    pub(super) fn disseminate_emitted(&mut self, spe: &mut QueryPlane, at: NodeId, batch: Emitted) {
        let mut hops = std::mem::take(&mut self.hops);
        debug_assert!(hops.queue.is_empty() && hops.forwards.is_empty());
        self.emit(&mut hops, at, batch);
        self.disseminate(spe, &mut hops);
        self.hops = hops;
    }

    /// The one dissemination loop: serve `hops.queue` breadth-first to
    /// completion, including every datagram the hops trigger on the way.
    /// A watermark goes to [`DataPlane::punctuate`]. A batch is routed,
    /// unless it is a relay hop at its router ([`Router::relay`]): then
    /// its buffer and schema become the one forward as they are, and a
    /// neighbor forward crosses its link with the byte count the hop
    /// carries instead of a re-summed one. That reads the upstream router's entries at the
    /// time the hop is served, which are the ones it was routed under,
    /// because nothing the loop calls mutates a router.
    ///
    /// The loop works in [`HopLoop`]'s buffers, which the callers take
    /// out of `self` for the call. That is sound because the loop is
    /// never re-entered: nothing it calls disseminates, and every
    /// datagram it causes is a hop of this same queue.
    fn disseminate(&mut self, spe: &mut QueryPlane, hops: &mut HopLoop) {
        let nodes = self.routers.len();
        while let Some(Hop { from, at, payload }) = hops.queue.pop_front() {
            let (tuples, schema, bytes) = match payload {
                Payload::Batch(tuples, schema, bytes) => (tuples, schema, bytes),
                Payload::Watermark(stream, ts) => {
                    self.punctuate(spe, hops, from, at, stream, ts);
                    continue;
                }
            };
            let router = &self.routers[at.index()];
            let upstream = from.map(|from| &self.routers[from.index()]);
            match upstream.and_then(|up| router.relay_batch(&tuples, &schema, up)) {
                Some(Destination::Neighbor(n)) => {
                    self.send(hops, at, n, Payload::Batch(tuples, schema, bytes));
                }
                Some(dest) => {
                    hops.forwards.push(BatchForward {
                        dest,
                        tuples,
                        schema,
                    });
                    self.process_forwards(spe, at, hops);
                }
                None => {
                    let (forwards, pool) = (&mut hops.forwards, &mut hops.pool);
                    router.route_batch_into(&tuples, &schema, from, forwards, pool);
                    hops.recycle(tuples, nodes);
                    self.process_forwards(spe, at, hops);
                }
            }
        }
    }

    /// Handle the forwarding decisions of one (node, batch) routing
    /// step (`hops.forwards`, left empty): send neighbor hops, feed
    /// local SPE inputs (queueing their outputs), append user
    /// deliveries.
    fn process_forwards(&mut self, spe: &mut QueryPlane, at: NodeId, hops: &mut HopLoop) {
        let mut forwards = std::mem::take(&mut hops.forwards);
        for f in forwards.drain(..) {
            match f.dest {
                Destination::Neighbor(n) => {
                    let bytes: usize = f.tuples.iter().map(Tuple::size_bytes).sum();
                    self.send(hops, at, n, Payload::Batch(f.tuples, f.schema, bytes));
                }
                Destination::Local(sub) => {
                    self.deliver_local(spe, at, sub, f.tuples, &f.schema, hops);
                }
            }
        }
        hops.forwards = forwards;
    }

    /// Serve source stream `stream`'s watermark `ts` at `at`: send it on
    /// toward the SPE inputs behind each marked neighbor, and advance
    /// every local SPE input's executor with it (queueing what that
    /// drains). A result stream is never punctuated: only user
    /// subscriptions read one, and their windows are the executors'.
    fn punctuate(
        &mut self,
        spe: &mut QueryPlane,
        hops: &mut HopLoop,
        from: Option<NodeId>,
        at: NodeId,
        stream: StreamName,
        ts: Timestamp,
    ) {
        let mut dests = std::mem::take(&mut hops.dests);
        self.routers[at.index()].route_punctuation_into(&stream, from, &mut dests);
        for &dest in &dests {
            match dest {
                Destination::Neighbor(n) => self.send(hops, at, n, Payload::Watermark(stream, ts)),
                Destination::Local(sub) => {
                    let Some(&LocalSub::Spe(result)) = self.subs.get(&sub) else {
                        continue;
                    };
                    if let Some(batch) = spe.advance(&result, at, &stream, ts) {
                        self.emit(hops, at, batch);
                    }
                }
            }
        }
        hops.dests = dests;
    }

    /// Deliver a projected batch to one locally attached subscriber: an
    /// SPE input hands the batch to the query plane, which runs it
    /// through the representative's executor (the emitted batch, if
    /// any, re-enters the network as a new hop, and the consumed batch's
    /// buffer goes back to the pool); a user subscription gets the
    /// tuples appended to its delivery buffer (through the overload gate
    /// when one is armed).
    fn deliver_local(
        &mut self,
        spe: &mut QueryPlane,
        at: NodeId,
        sub: SubscriberId,
        tuples: Vec<Tuple>,
        schema: &Schema,
        hops: &mut HopLoop,
    ) {
        match self.subs.get(&sub) {
            None => {}
            Some(LocalSub::Spe(stream)) => {
                let emitted = spe.intake(stream, at, &tuples, schema);
                self.metrics.on_spe_intake(at, &tuples);
                hops.recycle(tuples, self.routers.len());
                if let Some(batch) = emitted {
                    self.emit(hops, at, batch);
                }
            }
            Some(&LocalSub::User(qid)) => self.deliver_user(at, qid, tuples),
        }
    }

    /// Append `tuples` to a query's delivery buffer at its user node.
    pub(super) fn deliver(&mut self, qid: QueryId, at: NodeId, tuples: Vec<Tuple>) {
        self.metrics.on_delivery(qid, at, &tuples);
        let buffer = self.delivered.get_mut(&qid).expect("delivery buffer");
        buffer.extend(tuples);
    }

    /// User delivery through the overload gate, when one is armed:
    /// consult the controller with the node's measured in-window intake
    /// and deliver the batch or count it shed. Budget decisions read
    /// only virtual-time state, so a replay of the same scenario
    /// reproduces identical shed decisions.
    fn deliver_user(&mut self, at: NodeId, qid: QueryId, tuples: Vec<Tuple>) {
        let Some(ctl) = self.overload.as_mut() else {
            return self.deliver(qid, at, tuples);
        };
        let (_, in_window) = self.metrics.consumed_in_window(at);
        match ctl.admit(at, qid, tuples, in_window) {
            Action::Deliver(tuples) => self.deliver(qid, at, tuples),
            Action::Shed { tuples, bytes } => self.metrics.on_shed(tuples, bytes),
        }
    }

    /// The disorder half of `Cosmos::close_streams`: queue a final `+∞`
    /// watermark for every open source stream at its origin and run the
    /// loop once (draining every staging area), then drop the closed
    /// streams from every SPE input — their reverse-path cells refold
    /// away, with the plan-cache lines they pinned. A no-op in in-order
    /// operation.
    pub(super) fn close_streams(&mut self, spe: &mut QueryPlane) {
        if self.disorder.runtime.is_none() {
            return;
        }
        let end = Timestamp(i64::MAX);
        let mut hops = std::mem::take(&mut self.hops);
        for r in self.registry.iter() {
            // `insert` is false for a stream closed before.
            if spe.produces(&r.name) || !self.disorder.closed.insert(r.name) {
                continue;
            }
            self.disorder.emitted.insert(r.name, end);
            hops.push(None, r.origin, Payload::Watermark(r.name, end));
        }
        self.disseminate(spe, &mut hops);
        self.hops = hops;
        // Out of order, only SPE inputs subscribe to source streams (every
        // query has a group): re-installing them drops the closed ones,
        // and their cells refold away.
        spe.reinstall_spe_inputs(self);
        debug_assert!(
            (self.ledger.cells.keys()).all(|(.., s)| !self.disorder.closed.contains(s)),
            "a local subscription still names a closed stream"
        );
        self.refold_routes();
    }
}

#[cfg(test)]
mod route_tests;

#[cfg(test)]
mod tests {
    //! The data plane: batching, the hop buffers, punctuation routing,
    //! the trees, and the disorder state it writes.
    use super::*;
    use crate::system::tests::{line_system, line_system_from, s_tuple};
    use crate::system::{Cosmos, CosmosConfig, DisorderRuntime};
    use cosmos_query::{AttrStats, StreamStats};
    use cosmos_spe::LatePolicy;
    use cosmos_types::{AttrType, TimeDelta, Value};

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
        let nodes = sys.data.routers.len();
        let mut pooled = 0;
        for i in 0..10_000 {
            let values = vec![Value::Int(1 + i % 3), Value::Int(i * 100)];
            sys.publish(&Tuple::new("G", Timestamp(i * 100), values))
                .unwrap();
            assert!(sys.data.hops.queue.is_empty() && sys.data.hops.forwards.is_empty());
            assert!(sys.data.hops.pool.len() <= nodes);
            assert!(sys.data.hops.pool.iter().all(Vec::is_empty));
            pooled = pooled.max(sys.data.hops.pool.len());
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

    /// Each `(node, destination)` a punctuation of `stream` entering at
    /// `origin` is forwarded to, breadth-first as [`DataPlane::disseminate`]
    /// serves its watermark hops.
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

    /// A query the CBN serves alone: its user subscribes to `S` itself.
    const SELECTION: &str = "SELECT k, x FROM S [Now]";

    /// A stateful twin of [`SELECTION`], run by an executor whose SPE
    /// input subscribes to `S` at the processor.
    const DISTINCT: &str = "SELECT DISTINCT k, x FROM S [Now]";

    /// The SPE input feeding `result`'s representative at `at`.
    fn spe_input(sys: &Cosmos, at: NodeId, result: StreamName) -> SubscriberId {
        let feeds = |sub: &SubscriberId| matches!(sys.data.subs.get(sub), Some(LocalSub::Spe(r)) if *r == result);
        let mut inputs = sys.router(at).local_subscribers().map(|(sub, _)| sub);
        inputs
            .find(feeds)
            .expect("the representative has an SPE input")
    }

    #[test]
    fn a_cell_of_user_subscriptions_only_gets_no_punctuation() {
        let mut sys = line_system(true);
        sys.submit_query(DISTINCT, NodeId(3)).unwrap();
        // A user subscribing to `S` directly holds its cells 0→1 and 1→2
        // alone, and reads none of its punctuations either.
        sys.submit_query(SELECTION, NodeId(2)).unwrap();
        let result = *sys.rep_states()[0].result_stream;
        // Every cell of the result stream holds the user's entry alone:
        // data goes all the way, punctuations nowhere.
        for (up, down) in [(0, 1), (1, 2), (2, 3)] {
            let held = sys.router(NodeId(up)).neighbor_interest(NodeId(down));
            assert!(held.and_then(|p| p.entry(&result)).is_some(), "{up}-{down}");
        }
        assert_eq!(punctuation_walk(&sys, &result, NodeId(0)), []);
        // The source's punctuations still reach the SPE input.
        let spe = spe_input(&sys, NodeId(0), result);
        assert_eq!(
            punctuation_walk(&sys, &"S".into(), NodeId(0)),
            [(NodeId(0), Destination::Local(spe))]
        );
    }

    #[test]
    fn a_cell_with_one_spe_contributor_among_users_is_punctuated() {
        // `S` enters at node 3, its SPE input sits at node 0; the user of
        // a query the CBN serves alone, at node 1, shares the cells 3→2
        // and 2→1.
        let mut sys = line_system_from(true, NodeId(3));
        let q = sys.submit_query(DISTINCT, NodeId(2)).unwrap();
        let s: StreamName = "S".into();
        sys.submit_query(SELECTION, NodeId(1)).unwrap();
        let result = *sys.rep_states()[0].result_stream;
        let spe = spe_input(&sys, NodeId(0), result);
        let kinds = |cell: &Cell| -> Vec<bool> {
            sys.data.ledger.cells[cell]
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
        // result stream) side by side — and the user entry of a query the
        // CBN serves alone on `S` itself.
        let mut sys = line_system(true);
        let q = sys.submit_query(DISTINCT, NodeId(0)).unwrap();
        let result = *sys.rep_states()[0].result_stream;
        let s: StreamName = "S".into();
        let direct = sys.submit_query(SELECTION, NodeId(0)).unwrap();
        let router = sys.router(NodeId(0));
        assert_eq!(router.local_subscribers().count(), 3);
        let spe = spe_input(&sys, NodeId(0), result);
        assert_eq!(
            router.route_punctuation(&s, None),
            [Destination::Local(spe)]
        );
        assert_eq!(router.route_punctuation(&result, None), []);
        sys.publish(&s_tuple(1_000, 1, 1.0)).unwrap();
        assert_eq!(sys.results(q).len(), 1, "data still reaches the user");
        assert_eq!(sys.results(direct).len(), 1);
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
    fn malformed_demand_is_refused_in_both_tree_modes() {
        let cfg = cosmos_overlay::OptimizerConfig::default();
        for per_source_trees in [false, true] {
            let mut sys = Cosmos::new(CosmosConfig {
                per_source_trees,
                ..CosmosConfig::default()
            })
            .unwrap();
            let n = sys.graph().node_count();
            let before = sys.routing_digest();
            let with = |i: usize, d: f64| {
                let mut v = vec![1.0; n];
                v[i] = d;
                v
            };
            for demand in [
                vec![1.0],
                vec![1.0; n + 1],
                with(3, f64::NAN),
                with(0, f64::INFINITY),
                with(n - 1, -1.0),
            ] {
                let err = sys.optimize_tree_with_demand(cfg, &demand).unwrap_err();
                assert_eq!(err.kind(), "overlay", "{demand:?}: {err}");
            }
            assert_eq!(sys.routing_digest(), before, "no tree changed");
            assert!(sys.optimize_tree_with_demand(cfg, &vec![0.0; n]).is_ok());
        }
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
        // None of the result stream's: its data crossed, but it is never
        // punctuated — the emitted table holds the closed source alone,
        // and no router forwards a result-stream punctuation.
        let result = *sys.rep_states()[0].result_stream;
        assert!(!sys.data.disorder.emitted.contains_key(&result));
        let closed = BTreeMap::from([(StreamName::from("S"), Timestamp(i64::MAX))]);
        assert_eq!(sys.data.disorder.emitted, closed);
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
        let streams = |sys: &Cosmos| {
            sys.data
                .disorder
                .emitted
                .keys()
                .cloned()
                .collect::<Vec<_>>()
        };
        // The open source streams that have published: the standing
        // group's result stream is never punctuated.
        let sources = vec![StreamName::from("S")];
        assert_eq!(streams(&sys), sources, "the source alone");
        for cycle in 0..50 {
            // A selection cannot join the aggregate's group: it forms its
            // own, whose executor advances with the publish (its result
            // stream gets no watermark), and dissolves it again.
            let text = format!("SELECT k, x FROM S [Now] WHERE k = {cycle}");
            let q = sys.submit_query(&text, NodeId(2)).unwrap();
            sys.publish(&s_tuple(6_000 + cycle * 1_000, cycle, 1.0))
                .unwrap();
            assert_eq!(sys.rep_states().len(), 2, "cycle {cycle}");
            assert_eq!(streams(&sys), sources, "cycle {cycle}");
            sys.unsubscribe(q).unwrap();
            assert_eq!(streams(&sys), sources, "cycle {cycle}");
        }
        assert!(sys.disorder_totals().conserved());

        // Arming replays every emitted source watermark; one for a stream
        // the executor does not bind must not move (or be kept by) it.
        let armed = Disorder {
            runtime: Some(runtime),
            emitted: BTreeMap::from([("Elsewhere".into(), Timestamp(9_000))]),
            ..Disorder::default()
        };
        let query = cosmos_cql::parse_query("SELECT k FROM S [Now]").unwrap();
        let query = AnalyzedQuery::analyze(&query, sys.catalog().schema_fn()).unwrap();
        let mut executor = Executor::new(query, "r").unwrap();
        armed.arm(&mut executor);
        assert_eq!(executor.frontier(), Some(Timestamp(i64::MIN)));
    }
}
