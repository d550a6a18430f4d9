//! The data plane: the stream-aware CBN of PAPER §1's data layer.
//!
//! [`DataPlane`] owns the overlay and its dissemination trees, the
//! schema registry, every node's router and the route ledger behind
//! their reverse-path interests, what each local subscription feeds,
//! the delivery buffers, the traffic counters, the metrics hub, the
//! overload gate, and the two loops that move datagrams: the hop loop
//! ([`DataPlane::disseminate`]) and the punctuation walk
//! ([`DataPlane::disseminate_watermark`]), each with its reused buffers.
//!
//! It cannot see query state. The one place the layers meet is an SPE
//! input: a loop that reaches one hands the batch (or the watermark) to
//! the [`QueryPlane`], which runs the representative's executor and
//! hands the emitted batch back; [`DataPlane::emit`] is the one function
//! that puts a result batch on the network.

use super::query::{Emitted, QueryPlane};
use super::{CosmosConfig, NodeRole};
use crate::overload::{Action, OverloadController};
use cosmos_cbn::{BatchForward, Destination, Profile, ProfileEntry, Router, SchemaRegistry};
use cosmos_metrics::{MetricsConfig, MetricsHub};
use cosmos_overlay::{minimum_spanning_tree, Graph, Tree};
use cosmos_spe::{AnalyzedQuery, Executor};
use cosmos_types::{
    CosmosError, FxHashMap, NeumaierSum, NodeId, Punctuation, QueryId, RateLimit, Result, Schema,
    StreamName, SubscriberId, Timestamp, Tuple,
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

/// The buffers [`DataPlane::disseminate`] works in, kept between calls
/// so the loop finds them grown instead of allocating per hop.
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

/// The buffers [`DataPlane::disseminate_watermark`] works in, kept
/// between calls like [`HopLoop`]'s — apart from it, because a walk
/// drives drained results through [`DataPlane::disseminate`] half-way.
#[derive(Debug, Default)]
struct PunctuationWalk {
    /// Punctuation hops still to route, as `(arrival link, node, stream,
    /// watermark)` (empty between calls).
    queue: VecDeque<(Option<NodeId>, NodeId, StreamName, Timestamp)>,
    /// The destinations of the hop being routed.
    dests: Vec<Destination>,
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
    /// Last watermark emitted per stream (sources and, via executor
    /// frontier propagation, the result streams of running
    /// representatives — [`DataPlane::unadvertise`] removes a stopped
    /// one's).
    emitted: BTreeMap<StreamName, Timestamp>,
    /// Source streams that have published at least once — the streams
    /// watermarks are emitted for.
    published: BTreeSet<StreamName>,
    /// Source streams closed by their final watermark
    /// ([`DataPlane::close_streams`]); their routing state is pruned.
    pub(super) closed: BTreeSet<StreamName>,
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
    pub(super) fn arm(&self, executor: &mut Executor) {
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
    /// and their delay-weighted sum (the metrics hub keeps a second,
    /// windowed ledger the conservation oracle compares against this
    /// one; `Cosmos::set_metrics_config` replaces the hub mid-life, so
    /// this one cannot be read back from it). The sum is compensated:
    /// the `compensated_sums` test of `cosmos-types` holds every
    /// oracle-feeding float accumulation to this standard.
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
    /// The punctuation walk's reused buffers.
    punctuations: PunctuationWalk,
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
            registry: SchemaRegistry::new(cfg.registry_mode, (0..n as u32).map(NodeId)),
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
            punctuations: PunctuationWalk::default(),
        })
    }

    /// Install `profile` as local subscription `sub` at `at` (an empty
    /// profile withdraws it) and record what it contributes to the
    /// reverse paths: the one way a local subscription changes. An SPE
    /// input (one [`DataPlane::subs`] lists as such — a subscription
    /// never changes kind) is marked for the punctuations of every
    /// stream it names. The routers' reverse-path interests follow at
    /// the end of the public call ([`DataPlane::refold_routes`]). Only
    /// SPE inputs may name a source stream: [`DataPlane::close_streams`]
    /// drops closed streams by re-installing those alone.
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

    /// (Re)install SPE-input subscription `sub` (listed in
    /// [`DataPlane::subs`]) at processor `at`: `rep`'s
    /// source profile minus the closed streams. No datagram of a closed
    /// stream can arrive any more, and subscribing to one would
    /// resurrect the routing state [`DataPlane::close_streams`] pruned.
    pub(super) fn install_spe_input(&mut self, at: NodeId, sub: SubscriberId, rep: &AnalyzedQuery) {
        let mut profile = rep.source_profile();
        for closed in &self.disorder.closed {
            profile.remove_entry(closed);
        }
        self.subscribe_local(at, sub, profile);
    }

    /// Withdraw a result stream's advertisement and forget the last
    /// watermark emitted for it: nothing will emit for it again, and a
    /// later stream of that name starts its promises afresh.
    pub(super) fn unadvertise(&mut self, stream: &StreamName) {
        self.disorder.emitted.remove(stream);
        self.registry.unregister(stream);
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

    /// Bring every router's reverse-path interests to the fold of the
    /// *current* local subscriptions along the current trees (see
    /// `Cosmos::rebuild_routes`).
    pub(super) fn rebuild_routes(&mut self) {
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

    /// `bytes` (carrying `tuples` data tuples; 0 for control datagrams)
    /// cross the link `a - b`: one entry in each of the two ledgers.
    fn cross_link(&mut self, a: NodeId, b: NodeId, tuples: usize, bytes: usize) {
        let key = (a.min(b), a.max(b));
        *self.link_bytes.entry(key).or_insert(0) += bytes as u64;
        // Price the hop exactly like TreeOptimizer::cost does, so the
        // measured weighted cost is comparable to the estimated one.
        let graph = &self.topology.graph;
        let delay = graph.link_delay(a, b).unwrap_or_else(|| {
            debug_assert!(false, "traffic accounted on downed link {a}-{b}");
            graph.distance(a, b).max(f64::EPSILON)
        });
        self.weighted_cost.add(bytes as f64 * delay);
        self.metrics.on_link(a, b, tuples, bytes);
    }

    /// Publish a stream-homogeneous batch at its stream's origin (see
    /// `Cosmos::publish_batch`) and drive it, the result batches it
    /// triggers and the watermarks it makes due through the network.
    pub(super) fn publish(&mut self, spe: &mut QueryPlane, tuples: &[Tuple]) -> Result<()> {
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
        self.tuples_published += tuples.len() as u64;
        self.metrics.on_publish(&first.stream, &schema, tuples);
        let mut hops = std::mem::take(&mut self.hops);
        debug_assert!(hops.queue.is_empty() && hops.forwards.is_empty());
        let (forwards, pool) = (&mut hops.forwards, &mut hops.pool);
        self.routers[origin.index()].route_batch_into(tuples, &schema, None, forwards, pool);
        self.process_forwards(spe, origin, &mut hops);
        self.disseminate(spe, &mut hops);
        self.hops = hops;
        self.disorder.after_publish(tuples, &self.registry);
        let mut due = std::mem::take(&mut self.disorder.due);
        for (stream, wm, origin) in due.drain(..) {
            self.disseminate_watermark(spe, stream, wm, origin);
        }
        self.disorder.due = due;
        Ok(())
    }

    /// Put an executor's result batch on the network at its processor
    /// `at` — the one way a result batch enters it: observe it like any
    /// other published stream and queue it as a hop that entered at `at`.
    fn emit(&mut self, hops: &mut HopLoop, at: NodeId, batch: Emitted) {
        let (stream, tuples, schema) = batch;
        self.metrics.on_publish(&stream, &schema, &tuples);
        hops.queue.push_back(Hop {
            from: None,
            at,
            tuples,
            schema,
            bytes: 0,
        });
    }

    /// Drive a result batch emitted outside the hop loop (an executor
    /// drained by a watermark or a retirement) through the network to
    /// completion, before the caller goes on.
    pub(super) fn disseminate_emitted(&mut self, spe: &mut QueryPlane, at: NodeId, batch: Emitted) {
        let mut hops = std::mem::take(&mut self.hops);
        debug_assert!(hops.queue.is_empty() && hops.forwards.is_empty());
        self.emit(&mut hops, at, batch);
        self.disseminate(spe, &mut hops);
        self.hops = hops;
    }

    /// The one dissemination loop: serve `hops.queue` breadth-first to
    /// completion, including every result batch the hops trigger on the
    /// way. A hop that is a relay hop at its router ([`Router::relay`])
    /// is not routed: its buffer and schema become the one forward as
    /// they are, and a neighbor forward crosses its link with the byte
    /// count the hop carries instead of a re-summed one. That reads the
    /// upstream router's entries at the time the hop is served, which
    /// are the ones it was routed under, because nothing the loop calls
    /// mutates a router.
    ///
    /// The loop works in [`HopLoop`]'s buffers, which the callers take
    /// out of `self` for the call. That is sound because the loop is
    /// never re-entered: nothing it calls — the routers, the executors,
    /// the metrics hub, the overload gate and its rate-limit notices —
    /// disseminates; result batches re-enter as hops of this same queue
    /// ([`DataPlane::emit`]), and the other callers (watermark and
    /// retirement drains) run strictly before or after it.
    fn disseminate(&mut self, spe: &mut QueryPlane, hops: &mut HopLoop) {
        let nodes = self.routers.len();
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
                    self.process_forwards(spe, hop.at, hops);
                }
                None => {
                    let (forwards, pool) = (&mut hops.forwards, &mut hops.pool);
                    router.route_batch_into(&hop.tuples, &hop.schema, hop.from, forwards, pool);
                    hops.recycle(hop.tuples, nodes);
                    self.process_forwards(spe, hop.at, hops);
                }
            }
        }
    }

    /// Handle the forwarding decisions of one (node, batch) routing
    /// step (`hops.forwards`, left empty): account and enqueue neighbor
    /// hops, feed local SPE inputs (queueing their outputs), append user
    /// deliveries.
    fn process_forwards(&mut self, spe: &mut QueryPlane, at: NodeId, hops: &mut HopLoop) {
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
                Destination::Local(sub) => {
                    self.deliver_local(spe, at, sub, f.tuples, &f.schema, hops);
                }
            }
        }
        hops.forwards = forwards;
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
            for w in self.topology.tree_for(origin).path(at, origin).windows(2) {
                self.cross_link(w[0], w[1], 0, datagram_bytes);
                link_bytes += datagram_bytes;
            }
        }
        self.metrics.on_throttle(link_bytes);
        if let Some(ctl) = self.overload.as_mut() {
            ctl.record_received(limit);
        }
    }

    /// Route one watermark punctuation from its origin along the
    /// stream's dissemination tree: every link crossing is accounted in
    /// bytes exactly like data (and counted by the metrics hub), every
    /// interested SPE input hands the watermark to the query plane,
    /// which advances its executor's frontier (the drained batch is
    /// driven through the network before the walk goes on), and an
    /// executor whose frontier moved propagates a punctuation for its
    /// *result* stream — so watermarks cascade through operator chains.
    /// User subscriptions consume punctuations silently (their windows
    /// are the executors').
    ///
    /// The walk works in [`PunctuationWalk`]'s buffers, taken out of
    /// `self` for the call: nothing it calls walks punctuations, and the
    /// data dissemination it triggers has buffers of its own.
    fn disseminate_watermark(
        &mut self,
        spe: &mut QueryPlane,
        stream: StreamName,
        watermark: Timestamp,
        origin: NodeId,
    ) {
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
                        let Some(&LocalSub::Spe(result)) = self.subs.get(&sub) else {
                            continue;
                        };
                        let (emitted, moved) = spe.advance(&result, at, &stream, wm);
                        if let Some(batch) = emitted {
                            self.disseminate_emitted(spe, at, batch);
                        }
                        // The executor's frontier is a low-water promise
                        // for its result stream (revision tuples may dip
                        // below it, but stay within the grace window any
                        // downstream executor retains).
                        let last = self.disorder.emitted.get(&result);
                        if let Some(a) = moved.filter(|a| last.is_none_or(|l| a > l)) {
                            self.disorder.emitted.insert(result, a);
                            walk.queue.push_back((None, at, result, a));
                        }
                    }
                }
            }
        }
        self.punctuations = walk;
    }

    /// The disorder half of `Cosmos::close_streams`: emit a final `+∞`
    /// watermark along every open source stream's dissemination tree
    /// (draining every staging area and cascading through operator
    /// chains), then drop the closed streams from every SPE input —
    /// their reverse-path cells refold away, with the plan-cache lines
    /// they pinned. A no-op in in-order operation.
    pub(super) fn close_streams(&mut self, spe: &mut QueryPlane) {
        if self.disorder.runtime.is_none() {
            return;
        }
        let sources: Vec<(StreamName, NodeId)> = (self.registry.iter())
            .filter(|r| !spe.produces(&r.name) && !self.disorder.closed.contains(&r.name))
            .map(|r| (r.name, r.origin))
            .collect();
        for (stream, origin) in sources {
            self.disorder.emitted.insert(stream, Timestamp(i64::MAX));
            self.disseminate_watermark(spe, stream, Timestamp(i64::MAX), origin);
            self.disorder.closed.insert(stream);
        }
        // Only SPE inputs subscribe to source streams: re-installing them
        // drops the closed ones, and their cells refold away.
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
    /// `origin` is forwarded to, walked breadth-first as
    /// [`DataPlane::disseminate_watermark`] walks it.
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
        let (user, mut profile) = (SubscriberId(u64::MAX), Profile::new());
        let always = cosmos_cbn::Conjunction::always();
        profile.add_interest("S", cosmos_cbn::Projection::All, always);
        sys.data.subscribe_local(at, user, profile);
        sys.data.refold_routes();
    }

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
        let spe = spe_input(&sys, NodeId(0), result);
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
        let spe = spe_input(&sys, NodeId(0), result);
        assert_eq!(
            router.route_punctuation(&s, None),
            [Destination::Local(spe)]
        );
        assert_eq!(router.route_punctuation(&result, None), []);
        sys.publish(&s_tuple(1_000, 1, 1.0)).unwrap();
        assert_eq!(sys.results(q).len(), 1, "data still reaches the user");
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
        assert!(sys.data.disorder.emitted.contains_key(&result));
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
        let query = AnalyzedQuery::analyze(&query, sys.catalog().schema_fn()).unwrap();
        let mut executor = Executor::new(query, "r").unwrap();
        armed.arm(&mut executor);
        assert_eq!(executor.frontier(), Some(Timestamp(i64::MIN)));
    }
}
