//! The deployed COSMOS system: nodes, routing, query management, and the
//! discrete-event driver.
//!
//! [`Cosmos`] is PAPER §1's two layers as two types that meet at one
//! crossing: the data plane (`system/data.rs`: the overlay, the
//! routers, the dissemination loops, delivery, traffic, metrics and the
//! overload gate) and the query plane (`system/query.rs`: queries,
//! group managers, representative executors, the catalog). `Cosmos`
//! holds the two and the autotune scheduler; a public call that spans
//! both hands the query plane to a data-plane loop, or the data plane
//! to a query-plane control operation.

mod data;
mod query;

use crate::autotune::{AutotuneOptions, AutotunePass, AutotunePolicy, AutotuneStatus};
use crate::overload::{OverloadConfig, OverloadController};
use cosmos_cbn::{RegistryMode, Router, SchemaRegistry};
use cosmos_metrics::{MetricsConfig, MetricsHub, MetricsSnapshot, RouterTotals};
use cosmos_overlay::{generate, Graph, TopologyKind, Tree};
use cosmos_query::{GroupManager, StreamStats};
use cosmos_spe::{AnalyzedQuery, DisorderStats, LatePolicy, StateSize};
use cosmos_types::{
    CosmosError, NodeId, QueryId, Result, Schema, StreamName, TimeDelta, Timestamp, Tuple,
};
use data::{DataPlane, LocalSub};
use query::QueryPlane;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};

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
/// after every publish, emits per-stream watermark
/// [`Punctuation`](cosmos_types::Punctuation)
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
    /// The data layer: overlay, routers, loops, delivery, accounting.
    pub(crate) data: DataPlane,
    /// The query layer: queries, groups, executors, catalog.
    query: QueryPlane,
    /// Armed self-tuning scheduler (`None` = manual
    /// [`Cosmos::autotune`] calls only; see [`Cosmos::set_autotune`]).
    autotune_sched: Option<AutotuneSched>,
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
        Ok(Cosmos {
            data: DataPlane::new(&cfg, graph)?,
            query: QueryPlane::new(&cfg),
            autotune_sched: None,
        })
    }

    /// The overlay graph.
    pub fn graph(&self) -> &Graph {
        &self.data.topology.graph
    }

    /// The dissemination tree.
    pub fn tree(&self) -> &Tree {
        &self.data.topology.tree
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
        let demand: Vec<f64> = (self.data.routers.iter())
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
        let topo = &mut self.data.topology;
        if topo.per_source_trees {
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
        self.data.topology.roles[node.index()]
    }

    /// The processor nodes.
    pub fn processors(&self) -> &[NodeId] {
        &self.data.topology.processors
    }

    /// The schema registry.
    pub fn registry(&self) -> &SchemaRegistry {
        &self.data.registry
    }

    /// Access a node's router (tests, diagnostics).
    pub fn router(&self, node: NodeId) -> &Router {
        &self.data.routers[node.index()]
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
        if origin.index() >= self.data.routers.len() {
            return Err(CosmosError::System(format!("unknown origin {origin}")));
        }
        self.data.registry.register(name, schema.clone(), origin)?;
        self.query.catalog.register(name, schema, stats);
        self.data.topology.ensure_source_tree(origin);
        Ok(())
    }

    /// The dissemination tree used for streams originating at `origin`.
    pub fn tree_for(&self, origin: NodeId) -> &Tree {
        self.data.topology.tree_for(origin)
    }

    /// Bring every router's reverse-path interests to the fold of the
    /// *current* local subscriptions along the current trees — what a
    /// tree reorganization needs, since it moves every path. The ledger
    /// is rebuilt from the local subscriptions, and every cell it or a
    /// router holds is refolded; one whose entry is unchanged is not
    /// touched, so a second call re-indexes nothing.
    pub fn rebuild_routes(&mut self) {
        self.data.rebuild_routes();
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
        if tuples.is_empty() {
            return Ok(());
        }
        self.data.publish(&mut self.query, tuples)?;
        self.autotune_tick();
        Ok(())
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
    /// Executors already running are switched in place: an armed one
    /// first flushes its staging area through the engine (its results
    /// are delivered, its counters kept in [`Cosmos::disorder_totals`]),
    /// then starts the new mode with an empty one. Each armed executor
    /// keeps one watermark per stream it binds — a watermark for any
    /// other stream is ignored — and one ordered table of the arrivals
    /// it has seen down to `frontier − grace`, for exact-duplicate
    /// detection.
    pub fn set_disorder(&mut self, runtime: Option<DisorderRuntime>) {
        self.data.disorder.runtime = runtime;
        self.query.rearm(&mut self.data);
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
        self.data.close_streams(&mut self.query);
    }

    /// Source streams closed by [`Cosmos::close_streams`].
    pub fn closed_streams(&self) -> &BTreeSet<StreamName> {
        &self.data.disorder.closed
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
        self.data.overload = cfg.map(OverloadController::new);
    }

    /// The armed overload controller (ledgers, high-water marks,
    /// received rate-limit notices), if any.
    pub fn overload(&self) -> Option<&OverloadController> {
        self.data.overload.as_ref()
    }

    /// Deliver every pending coalesced batch to its query's buffer
    /// (stream closure, controller disarm). The ledger moves the mass
    /// from `staged` to `delivered`, keeping the identity exact.
    fn drain_overload_staged(&mut self) {
        let staged = (self.data.overload.as_mut()).map(OverloadController::drain_all);
        for (qid, tuples) in staged.unwrap_or_default() {
            // Withdrawal releases a query's pending batch, so every
            // staged batch belongs to a live query.
            let user = self.user_of(qid).expect("a staged batch's query is live");
            self.data.deliver(qid, user, tuples);
        }
    }

    /// Result tuples delivered to a query's user so far.
    pub fn results(&self, qid: QueryId) -> &[Tuple] {
        self.data.delivered.get(&qid).map_or(&[], Vec::as_slice)
    }

    /// Bytes that crossed the (undirected) overlay link `a - b`.
    pub fn link_bytes(&self, a: NodeId, b: NodeId) -> u64 {
        let key = (a.min(b), a.max(b));
        self.data.link_bytes.get(&key).copied().unwrap_or(0)
    }

    /// Total bytes that crossed any overlay link.
    pub fn total_bytes(&self) -> u64 {
        self.data.link_bytes.values().sum()
    }

    /// Total delay-weighted communication cost (`Σ bytes × link delay`).
    pub fn weighted_cost(&self) -> f64 {
        self.data.weighted_cost.total()
    }

    /// Number of source datagrams published.
    pub fn tuples_published(&self) -> u64 {
        self.data.tuples_published
    }

    /// The live metrics hub (read access for diagnostics and tests).
    pub fn metrics_hub(&self) -> &MetricsHub {
        &self.data.metrics
    }

    /// Replace the metrics configuration. Resets all recorded history
    /// (windows of a different span are not comparable).
    pub fn set_metrics_config(&mut self, cfg: MetricsConfig) {
        self.data.metrics = MetricsHub::new(cfg);
    }

    /// A deterministic snapshot of every runtime metric: per-link and
    /// per-node traffic, per-stream observed rates and sampled attribute
    /// statistics, per-query delivery rates and virtual-time latencies,
    /// plus the aggregated CBN router counters. Versioned and
    /// serializable like `NetworkSnapshot`.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut router = RouterTotals::default();
        for r in &self.data.routers {
            router.fold_counters(&r.counters(), r.cached_plan_count() as u64);
        }
        self.data.metrics.snapshot(router)
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
        pass.adopted_streams =
            query::adopt_measured_stats(&mut self.query.catalog, &self.data.metrics);
        pass.groups_improved = self.reoptimize_groups()?;
        // Measured per-node demand: the windowed byte rate each node
        // consumes locally (user deliveries plus SPE intake).
        let demand: Vec<f64> = (0..self.data.routers.len())
            .map(|i| self.data.metrics.consumed_byte_rate(NodeId(i as u32)))
            .collect();
        let saved = (hysteresis > 0.0).then(|| self.data.topology.tree.clone());
        let report = self.optimize_tree_with_demand(opts.optimizer, &demand);
        if let Some(saved) = saved {
            if report.moves > 0 && report.improvement() <= hysteresis {
                self.data.topology.tree = saved;
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
        let now = self.data.metrics.now_ms();
        self.autotune_sched = policy.map(|policy| AutotuneSched {
            status: AutotuneStatus {
                policy,
                runs: 0,
                rollbacks: 0,
                last: None,
            },
            last_run_ms: now,
            last_window: now.div_euclid(self.data.metrics.window_ms()),
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
        let now = self.data.metrics.now_ms();
        let period = policy.period_virtual.millis();
        let mut due = period > 0 && now - sched.last_run_ms >= period;
        let win = now.div_euclid(self.data.metrics.window_ms());
        if policy.trigger_after_k_windows > 0 && win > sched.last_window {
            // Evaluate drift once per rate window, on entry.
            sched.last_window = win;
            let (sd, gd) = self.measured_drift();
            let over = sd.max(gd) > policy.options.drift_threshold;
            sched.over_windows = if over { sched.over_windows + 1 } else { 0 };
            due |= sched.over_windows >= policy.trigger_after_k_windows;
        }
        if due {
            if let Ok(pass) = self.autotune_gated(&policy.options, policy.hysteresis) {
                sched.status.runs += 1;
                sched.status.rollbacks += u64::from(pass.tree_rolled_back);
                sched.status.last = Some(pass);
            }
            sched.last_run_ms = now;
            sched.over_windows = 0;
        }
        self.autotune_sched = Some(sched);
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
        for (parent, child) in self.data.topology.tree.edges() {
            (parent.raw(), child.raw()).hash(&mut h);
        }
        for (origin, tree) in &self.data.topology.source_trees {
            origin.raw().hash(&mut h);
            for (parent, child) in tree.edges() {
                (parent.raw(), child.raw()).hash(&mut h);
            }
        }
        for r in &self.data.routers {
            let mut locals: Vec<String> = (r.local_subscribers())
                .map(|(sub, p)| format!("{sub:?}={p:?}"))
                .collect();
            locals.sort_unstable();
            locals.hash(&mut h);
            let mut interests: Vec<String> = (self.data.topology.graph.neighbors(r.node()).iter())
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
        let source_trees = self.data.topology.source_trees.values().map(topo).collect();

        let advertisements: Vec<Advertisement> = (self.data.registry.iter())
            .map(|r| Advertisement {
                stream: r.name,
                origin: r.origin,
                schema: r.schema.clone(),
            })
            .collect();

        let routers = (self.data.routers.iter())
            .map(|r| {
                let mut local_subscribers = r
                    .local_subscribers()
                    .map(|(id, profile)| {
                        let kind = match self.data.subs.get(&id) {
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

        let mut groups = self.query.group_snapshots()?;
        groups.sort_by_key(|a| a.result_stream);

        let ledgers = self.data.overload.as_ref().map(OverloadController::ledgers);
        let overload = (ledgers.into_iter().flatten())
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
            .collect();

        Ok(NetworkSnapshot {
            version: SNAPSHOT_VERSION,
            merging_enabled: self.query.merging,
            nodes: self.data.routers.len(),
            shared_tree: topo(&self.data.topology.tree),
            source_trees,
            advertisements,
            routers,
            groups,
            closed_streams: self.data.disorder.closed.iter().cloned().collect(),
            overload,
        })
    }
}
#[cfg(test)]
mod tests {
    //! Whole-deployment tests of the public API, and the fixtures the
    //! two planes' tests share.
    use super::*;
    use cosmos_query::{AttrStats, StreamStats};
    use cosmos_types::{AttrType, Timestamp, Value};

    /// Line overlay 0 - 1 - 2 - 3 with the processor at node 0, which is
    /// also the origin of `S`.
    pub(super) fn line_system(merging: bool) -> Cosmos {
        line_system_from(merging, NodeId(0))
    }

    /// [`line_system`] with `S` advertised at `origin`.
    pub(super) fn line_system_from(merging: bool, origin: NodeId) -> Cosmos {
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

    pub(super) fn s_tuple(ts: i64, k: i64, x: f64) -> Tuple {
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
}
