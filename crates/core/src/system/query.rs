//! The query plane: PAPER §1's query layer.
//!
//! [`QueryPlane`] owns the live queries, every processor's group
//! manager, the representative executors, the statistics catalog and
//! the id counters. It runs the control operations — [`QueryPlane::apply`]
//! and the representative lifecycle under it ([`QueryPlane::run_rep`],
//! [`QueryPlane::stop_rep`]) — against a `&mut`
//! [`DataPlane`], whose routes, registry and subscriptions they change.
//!
//! The layers meet at one crossing, an SPE input: the data plane hands
//! a batch ([`QueryPlane::intake`]) or a watermark
//! ([`QueryPlane::advance`]) to a representative's executor and gets the
//! emitted batch back; a retiring executor's flushed batch
//! ([`QueryPlane::retire_executor`]) goes the same way. The data plane
//! puts every such batch on the network itself.
//!
//! The plane's maps are private to this module, so the data plane
//! cannot reach them; the query half of [`Cosmos`]'s public API reads
//! them here.

use super::data::{DataPlane, LocalSub};
use super::{pick_processor, Cosmos, CosmosConfig, RepStateView};
use crate::snapshot::{GroupSnapshot, MemberSnapshot};
use cosmos_cbn::Profile;
use cosmos_metrics::{relative_drift, MetricsHub};
use cosmos_query::{GroupChange, GroupManager, StatsCatalog, StreamStats};
use cosmos_spe::{AnalyzedQuery, DisorderStats, Executor};
use cosmos_types::{
    CosmosError, NodeId, QueryId, Result, Schema, StreamName, SubscriberId, Timestamp, Tuple,
};
use std::collections::BTreeMap;

/// Upper bound on retained warning headlines per accepted query, so a
/// pathological submission cannot balloon [`Cosmos`]'s memory (entries
/// are also dropped on [`Cosmos::unsubscribe`]).
const MAX_LINT_WARNINGS_PER_QUERY: usize = 16;

/// A batch a representative's executor emitted, on its way back to the
/// data plane: its result stream, the tuples and their schema.
pub(super) type Emitted = (StreamName, Vec<Tuple>, Schema);

/// What `executor` emitted, unless that is nothing.
fn emitted(executor: &Executor, tuples: Vec<Tuple>) -> Option<Emitted> {
    let (stream, schema) = (executor.result_stream(), executor.result_schema());
    (!tuples.is_empty()).then(|| (*stream, tuples, schema.clone()))
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

/// The query layer of a deployment (see the module doc).
#[derive(Debug, Default)]
pub(super) struct QueryPlane {
    /// Whether processors merge queries (`CosmosConfig::merging_enabled`).
    pub(super) merging: bool,
    /// Candidate processors per stream set (`CosmosConfig::affinity_candidates`).
    affinity: usize,
    pub(super) catalog: StatsCatalog,
    /// Query-layer state per processor: the groups, their members and
    /// placements — and, by its query count, the processor's load.
    managers: BTreeMap<NodeId, GroupManager>,
    /// Representative executors, keyed by result-stream name.
    reps: BTreeMap<StreamName, RepSite>,
    /// The live queries.
    queries: BTreeMap<QueryId, QueryRecord>,
    ids: Ids,
    /// Disorder counters of executors that were replaced, torn down or
    /// disarmed, folded in so [`Cosmos::disorder_totals`] stays conserved.
    retired: DisorderStats,
}

impl QueryPlane {
    pub(super) fn new(cfg: &CosmosConfig) -> QueryPlane {
        QueryPlane {
            merging: cfg.merging_enabled,
            affinity: cfg.affinity_candidates,
            ..QueryPlane::default()
        }
    }

    /// The crossing, data in: push a batch that reached the SPE input of
    /// `stream`'s representative at `at` through its executor, and hand
    /// back what it emitted.
    pub(super) fn intake(
        &mut self,
        stream: &StreamName,
        at: NodeId,
        tuples: &[Tuple],
        schema: &Schema,
    ) -> Option<Emitted> {
        let site = self.reps.get_mut(stream).expect("rep site exists");
        debug_assert_eq!(site.processor, at);
        let outputs = site.executor.push_projected_batch(tuples, schema);
        emitted(&site.executor, outputs)
    }

    /// The crossing, watermark in: fold `stream`'s watermark into the
    /// executor of `result`'s representative at `at`. Hands back what
    /// the advance drained and, when the executor's frontier moved
    /// forward, where it moved to.
    pub(super) fn advance(
        &mut self,
        result: &StreamName,
        at: NodeId,
        stream: &StreamName,
        watermark: Timestamp,
    ) -> (Option<Emitted>, Option<Timestamp>) {
        let site = self.reps.get_mut(result).expect("rep site exists");
        debug_assert_eq!(site.processor, at);
        let before = site.executor.frontier();
        let outputs = site.executor.advance_watermark(stream, watermark);
        let moved = (site.executor.frontier()).filter(|a| before.is_some_and(|b| *a > b));
        (emitted(&site.executor, outputs), moved)
    }

    /// Before an executor is replaced, torn down or disarmed: if it runs
    /// in disorder mode, flush its staging area through the engine
    /// (driving whatever that drains through the network) and fold its
    /// disorder counters into the retired totals, so conservation holds
    /// across the whole deployment lifetime. The executor's own mode
    /// decides, not the runtime: one armed before a disarm still stages.
    fn retire_executor(&mut self, data: &mut DataPlane, stream: &StreamName) {
        let Some(site) = self.reps.get_mut(stream) else {
            return;
        };
        let outputs = site.executor.flush_staged();
        let Some(stats) = site.executor.disorder_stats() else {
            return;
        };
        self.retired = self.retired.merge(&stats);
        if let Some(batch) = emitted(&site.executor, outputs) {
            let at = site.processor;
            data.disseminate_emitted(self, at, batch);
        }
    }

    /// Switch every running executor to the runtime now in
    /// `data.disorder`: an armed one is retired first
    /// ([`QueryPlane::retire_executor`]) and put back into in-order
    /// intake, so disarming withholds nothing and re-arming starts from
    /// an empty staging area; then each is armed for the new runtime (a
    /// no-op when disarming).
    pub(super) fn rearm(&mut self, data: &mut DataPlane) {
        let streams: Vec<StreamName> = self.reps.keys().copied().collect();
        for stream in streams {
            self.retire_executor(data, &stream);
            let executor = &mut self.reps.get_mut(&stream).expect("listed above").executor;
            executor.disable_disorder();
            data.disorder.arm(executor);
        }
    }

    /// Whether `stream` is the result stream of a running representative.
    pub(super) fn produces(&self, stream: &StreamName) -> bool {
        self.reps.contains_key(stream)
    }

    /// Re-install every representative's SPE input
    /// ([`DataPlane::install_spe_input`]), dropping closed streams.
    pub(super) fn reinstall_spe_inputs(&self, data: &mut DataPlane) {
        for site in self.reps.values() {
            data.install_spe_input(site.processor, site.sub, site.executor.query());
        }
    }

    /// Run `rep` as the representative of `stream` at processor `at`, in
    /// a fresh executor of a fresh generation fed by the SPE input
    /// (re)installed to `rep`'s source profile (Section 4). A founded
    /// group advertises its stream and gets a new SPE input; a widened
    /// or shrunk one retires its running executor first, re-advertises
    /// the stream's schema and keeps its SPE input. (Window state
    /// restarts; experiments submit queries before publishing data.)
    fn run_rep(
        &mut self,
        data: &mut DataPlane,
        at: NodeId,
        stream: &StreamName,
        rep: &AnalyzedQuery,
    ) -> Result<()> {
        let schema = rep.output_schema.clone();
        if self.reps.contains_key(stream) {
            self.retire_executor(data, stream);
            data.registry.update_schema(stream, schema)?;
        } else {
            data.topology.ensure_source_tree(at);
            data.registry.register(*stream, schema.clone(), at)?;
            let rate = cosmos_query::estimate::output_tuples_per_sec(rep, &self.catalog);
            self.catalog
                .register(*stream, schema, StreamStats::with_rate(rate));
        }
        let mut executor = Executor::new(rep.clone(), *stream)?;
        data.disorder.arm(&mut executor);
        let sub = (self.reps.get(stream)).map_or_else(|| self.ids.sub(), |site| site.sub);
        data.subs.insert(sub, LocalSub::Spe(*stream));
        data.install_spe_input(at, sub, rep);
        let generation = self.ids.generation();
        let site = RepSite {
            processor: at,
            executor,
            generation,
            sub,
        };
        self.reps.insert(*stream, site);
        Ok(())
    }

    /// Stop a representative: flush and drop its executor, withdraw the
    /// result stream ([`DataPlane::unadvertise`]) and the SPE-input
    /// subscription.
    fn stop_rep(&mut self, data: &mut DataPlane, stream: &StreamName) {
        self.retire_executor(data, stream);
        data.unadvertise(stream);
        if let Some(site) = self.reps.remove(stream) {
            data.subs.remove(&site.sub);
            data.subscribe_local(site.processor, site.sub, Profile::new());
        }
    }

    /// Apply what the query layer decided for processor `at`, in this
    /// order: stop representatives, start the new ones, replace the
    /// changed ones ([`QueryPlane::run_rep`] both), then (re)install
    /// every listed member subscription. The caller refolds the routes
    /// it touched.
    fn apply(&mut self, data: &mut DataPlane, at: NodeId, change: GroupChange) -> Result<()> {
        for stream in &change.stop {
            self.stop_rep(data, stream);
        }
        for (stream, rep) in change.start.iter().chain(&change.replace) {
            self.run_rep(data, at, stream, rep)?;
        }
        for (qid, _, profile) in change.subscribe {
            let member = self.queries.get(&qid).expect("a listed member is live");
            data.subscribe_local(member.user, member.user_sub, profile);
        }
        Ok(())
    }

    /// Every group as the network snapshot records it, in processor
    /// order (`Cosmos::snapshot` sorts them).
    pub(super) fn group_snapshots(&self) -> Result<Vec<GroupSnapshot>> {
        let unparse =
            |q: &AnalyzedQuery| -> Result<String> { Ok(cosmos_query::to_query(q)?.to_string()) };
        let mut groups = Vec::new();
        for (&p, manager) in &self.managers {
            for g in manager.groups() {
                let mut members = Vec::new();
                for (qid, member) in &g.members {
                    let unplaced = || CosmosError::System(format!("{qid} unplaced"));
                    let (_, split) = manager.placement(*qid).ok_or_else(unplaced)?;
                    let record = self.queries.get(qid).ok_or_else(unplaced)?;
                    members.push(MemberSnapshot {
                        query: *qid,
                        cql: unparse(member)?,
                        user: record.user,
                        user_sub: record.user_sub,
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
        Ok(groups)
    }
}

/// The query half of the public API.
impl Cosmos {
    /// The statistics catalog.
    pub fn catalog(&self) -> &StatsCatalog {
        &self.query.catalog
    }

    /// Submit a user query at node `user`. Returns the query id; results
    /// accumulate in [`Cosmos::results`] as data is published.
    pub fn submit_query(&mut self, text: &str, user: NodeId) -> Result<QueryId> {
        let (q, data) = (&mut self.query, &mut self.data);
        if user.index() >= data.routers.len() {
            return Err(CosmosError::System(format!("unknown user node {user}")));
        }
        let spanned = cosmos_cql::parse_query_spanned(text)?;
        // Static analysis gates registration: a continuous query with an
        // error-level finding (unsatisfiable WHERE, type mismatch, …)
        // would run forever and deliver nothing, so refuse it up front.
        // Warnings don't block; they are kept for inspection.
        let diags = cosmos_lint::check_query_with(&spanned, q.catalog.schema_fn());
        if let Some(err) = (diags.iter()).find(|d| d.severity == cosmos_lint::Severity::Error) {
            return Err(CosmosError::Lint(format!("{}: {}", err.code, err.message)));
        }
        let mut warnings: Vec<String> = (diags.iter().take(MAX_LINT_WARNINGS_PER_QUERY))
            .map(cosmos_lint::Diagnostic::headline)
            .collect();
        let analyzed = AnalyzedQuery::analyze(&spanned.query, q.catalog.schema_fn())?;
        // Admission control (cosmos-bound): a query whose executor state
        // provably grows without bound — a join buffer or aggregate
        // window under `[Unbounded]` — is rejected before any routing
        // state is allocated or the result stream is advertised.
        // Warning-level findings (DISTINCT dedup state) ride along with
        // the lint warnings.
        for d in cosmos_bound::check_query(&analyzed) {
            if d.severity == cosmos_lint::Severity::Error {
                return Err(CosmosError::Lint(format!("{}: {}", d.code, d.message)));
            }
            if warnings.len() < MAX_LINT_WARNINGS_PER_QUERY {
                warnings.push(d.headline());
            }
        }
        let qid = q.ids.query();
        let processor = pick_processor(
            &analyzed,
            &data.topology.processors,
            q.affinity,
            &q.managers,
        );

        // Query management: the processor's manager groups the query —
        // or, for the non-share baseline, founds a group of its own.
        let merging = q.merging;
        let mut change = (q.managers.entry(processor))
            .or_insert_with(|| {
                let prefix = format!("result::{processor}");
                if merging {
                    GroupManager::new(prefix)
                } else {
                    GroupManager::unshared(prefix)
                }
            })
            .insert(qid, analyzed, &q.catalog)?;
        // The new query's own subscription (listed last) is installed
        // below, once its user subscription exists.
        let (.., user_profile) = change.subscribe.pop().expect("own subscription");
        // A new group starts its representative, a widened one replaces
        // it (same result stream) and resubscribes its other members,
        // and a query that joins without widening is served by the warm,
        // already-running executor.
        q.apply(data, processor, change)?;

        // The user retrieves the results through the CBN.
        let user_sub = q.ids.sub();
        data.subscribe_local(user, user_sub, user_profile);
        data.subs.insert(user_sub, LocalSub::User(qid));
        data.refold_routes();

        data.delivered.insert(qid, Vec::new());
        let record = QueryRecord {
            user,
            processor,
            user_sub,
            lint_warnings: warnings,
        };
        q.queries.insert(qid, record);
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
        let (q, data) = (&mut self.query, &mut self.data);
        let processors: Vec<NodeId> = q.managers.keys().copied().collect();
        let mut improved = 0usize;
        for p in processors {
            let manager = q.managers.get_mut(&p).expect("listed above");
            let change = manager.reoptimize(&q.catalog)?;
            if !change.is_empty() {
                improved += 1;
                q.apply(data, p, change)?;
            }
        }
        data.refold_routes();
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
        let (q, data) = (&mut self.query, &mut self.data);
        let unknown = || CosmosError::System(format!("unknown query {qid}"));
        let record = q.queries.remove(&qid).ok_or_else(unknown)?;
        data.subscribe_local(record.user, record.user_sub, Profile::new());
        data.subs.remove(&record.user_sub);
        // Nothing more will be offered to the query: release the batch
        // the overload controller was coalescing for it.
        let pending = data.overload.as_mut().map(|ctl| ctl.drain_query(qid));
        if let Some(pending) = pending.filter(|p| !p.is_empty()) {
            data.deliver(qid, record.user, pending);
        }
        let change = (q.managers.get_mut(&record.processor))
            .expect("manager exists")
            .remove(qid)?;
        q.apply(data, record.processor, change)?;
        data.refold_routes();
        Ok(())
    }

    /// Deployment-wide out-of-order ingestion counters: every live
    /// executor's statistics plus everything accumulated from executors
    /// that were replaced, torn down or disarmed. `conserved()` holds on
    /// this total at any instant, and no counter ever decreases.
    pub fn disorder_totals(&self) -> DisorderStats {
        let live = (self.query.reps.values()).filter_map(|site| site.executor.disorder_stats());
        live.fold(self.query.retired, |total, stats| total.merge(&stats))
    }

    /// Warning-level lint findings recorded when the query was accepted
    /// (e.g. a join over an `[Unbounded]` window). Empty for clean
    /// queries; error-level findings reject submission instead.
    pub fn lint_warnings(&self, qid: QueryId) -> &[String] {
        (self.query.queries.get(&qid)).map_or(&[], |q| q.lint_warnings.as_slice())
    }

    /// The user node of a query.
    pub fn user_of(&self, qid: QueryId) -> Option<NodeId> {
        self.query.queries.get(&qid).map(|q| q.user)
    }

    /// The processor a query was assigned to.
    pub fn processor_of(&self, qid: QueryId) -> Option<NodeId> {
        self.query.queries.get(&qid).map(|q| q.processor)
    }

    /// One view per running representative executor: its result stream,
    /// the processor hosting it, the representative query it runs, and
    /// its current retained-state occupancy — the measured side of
    /// `cosmos-bound`'s per-executor state bounds. Ordered by result
    /// stream for determinism.
    pub fn rep_states(&self) -> Vec<RepStateView<'_>> {
        (self.query.reps.iter())
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

    /// Maximum relative drift between what registration-time estimates
    /// claim and what the metrics layer has measured, split into the
    /// stream-rate component and the per-group representative-cost
    /// component. Streams the metrics layer never observed contribute
    /// nothing.
    pub fn measured_drift(&self) -> (f64, f64) {
        let (catalog, measured) = (&self.query.catalog, self.data.metrics.measured());
        let mut stream_drift = 0.0f64;
        for s in catalog.streams() {
            if let (Some(m), Some(e)) = (measured.stream_rate(s), catalog.stats(s)) {
                stream_drift = stream_drift.max(relative_drift(m, e.rate));
            }
        }
        let measured_catalog = measured.catalog(catalog);
        let mut group_drift = 0.0f64;
        for mgr in self.query.managers.values() {
            for g in mgr.groups() {
                let est = cosmos_query::estimate::cost_bps(&g.representative, catalog);
                let meas = cosmos_query::estimate::cost_bps(&g.representative, &measured_catalog);
                group_drift = group_drift.max(relative_drift(meas, est));
            }
        }
        (stream_drift, group_drift)
    }

    /// Grouping state of one processor (if it hosts any queries).
    pub fn group_manager(&self, processor: NodeId) -> Option<&GroupManager> {
        self.query.managers.get(&processor)
    }

    /// Overall grouping ratio (`Σ groups / Σ queries`) across processors.
    pub fn grouping_ratio(&self) -> f64 {
        let managers = self.query.managers.values();
        let groups: usize = managers.clone().map(GroupManager::group_count).sum();
        let queries: usize = managers.map(GroupManager::query_count).sum();
        if queries == 0 {
            return 1.0;
        }
        groups as f64 / queries as f64
    }

    /// Number of queries in the system.
    pub fn query_count(&self) -> usize {
        self.query.queries.len()
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
        let processor = self.query.queries.get(&qid)?.processor;
        let (group, _) = self.query.managers.get(&processor)?.placement(qid)?;
        Some(self.query.reps.get(&group.result_stream)?.generation)
    }
}

/// Replace the registered statistics of every stream `metrics` observed
/// with its measured statistics (rate always; attribute ranges and
/// distinct counts where the samplers saw values). Returns how many
/// streams were updated. Unobserved streams keep their estimates.
pub(super) fn adopt_measured_stats(catalog: &mut StatsCatalog, metrics: &MetricsHub) -> usize {
    let streams: Vec<StreamName> = catalog.streams().cloned().collect();
    let mut adopted = 0usize;
    for s in streams {
        let Some(stats) = metrics.measured().stream_stats(&s, catalog.stats(&s)) else {
            continue;
        };
        let schema = catalog.schema(&s).cloned().expect("stream registered");
        catalog.register(s, schema, stats);
        adopted += 1;
    }
    adopted
}

#[cfg(test)]
mod tests {
    //! The query plane: admission, grouping, withdrawal, and the
    //! executor lifecycle at the crossing.
    use crate::system::tests::{line_system, s_tuple};
    use crate::system::DisorderRuntime;
    use cosmos_query::{AttrStats, StreamStats};
    use cosmos_spe::{DisorderStats, LatePolicy};
    use cosmos_types::{AttrType, NodeId, QueryId, Schema, TimeDelta, Tuple};

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

    /// Disarming out-of-order operation mid-run withholds nothing: what
    /// the armed executor staged is flushed through it, the publishes
    /// after the disarm run in order, and no lifetime disorder counter
    /// ever goes down — not at the disarm, and not when the executor is
    /// retired later.
    #[test]
    fn disarming_disorder_flushes_staging_and_keeps_the_counters() {
        let text = "SELECT k, COUNT(*) FROM S [Range 10 Second] GROUP BY k";
        let feed = |i: i64| s_tuple(i * 1_000, i % 2, i as f64);
        let mut reference = line_system(true);
        let rq = reference.submit_query(text, NodeId(3)).unwrap();
        reference.run((1..10).map(feed)).unwrap();
        assert_eq!(reference.results(rq).len(), 9);

        let mut sys = line_system(true);
        let q = sys.submit_query(text, NodeId(3)).unwrap();
        let grace = TimeDelta::from_millis(3_000);
        let policy = LatePolicy::Revise { grace };
        sys.set_disorder(Some(DisorderRuntime {
            bound: grace,
            policy,
        }));
        let mut totals = vec![sys.disorder_totals()];
        sys.run((1..3).map(feed)).unwrap();
        totals.push(sys.disorder_totals());
        assert_eq!(totals[1].staged, 2, "both publishes wait for a watermark");
        sys.set_disorder(None);
        totals.push(sys.disorder_totals());
        assert_eq!(sys.results(q).len(), 2, "the disarm flushed them");
        sys.run((3..10).map(feed)).unwrap();
        sys.close_streams();
        totals.push(sys.disorder_totals());
        assert_eq!(sys.results(q), reference.results(rq));
        sys.unsubscribe(q).unwrap();
        totals.push(sys.disorder_totals());
        assert_eq!(totals.last().unwrap().arrived, 2);
        let lifetime = |t: &DisorderStats| {
            [
                t.arrived,
                t.drained,
                t.shed,
                t.duplicates,
                t.late,
                t.revisions,
            ]
        };
        for pair in totals.windows(2) {
            assert!(pair[1].conserved(), "{:?}", pair[1]);
            let (before, after) = (lifetime(&pair[0]), lifetime(&pair[1]));
            assert!(before.iter().zip(&after).all(|(b, a)| b <= a), "{pair:?}");
        }
    }
}
