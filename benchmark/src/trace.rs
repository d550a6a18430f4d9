//! The traced run: shadow dissemination and the per-layer metrics.
//!
//! The system under test has no stage timers (ROADMAP item 1 adds them
//! later), so the benchmark re-drives each workload through a
//! dissemination loop of its own — the *shadow* — that makes the same
//! calls `Cosmos::publish_batch` makes (`Router::route_batch`,
//! `Executor::push_projected_batch`, `MetricsHub::on_*`, …) and times
//! each one as a span. The shadow walks the deployment's real routers
//! (`route_batch` is `&self`) but owns replica executors, a replica
//! metrics hub and its own delivery buffers. For every operation the
//! shadow goes first and the real call second, so the deployment's own
//! state (executors, hub, groups) evolves exactly as in a measured run
//! and the control plane reacts to the same measurements. At the
//! checkpoint the shadow's per-query deliveries must equal the
//! deployment's — otherwise the layer numbers describe a different
//! program and the traced run fails.

use crate::measure::{self, elapsed_ns, Deployed};
use crate::sut::{
    self, BatchForward, Catalog, Destination, Hub, NodeId, QueryId, Replica, RouterCounters,
    Schema, SnapshotView, StreamName, SubKind, SubscriberId, Sut, Timestamp, Tuple,
};
use crate::workloads::{Op, Workload};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::io::Write;
use std::time::Instant;

/// Span names: `<crate>.<module>.<call>`, or `shadow.*` for the
/// benchmark's own loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    ShadowPublish,
    ShadowClose,
    HubRecord,
    RouteBatch,
    RoutePunctuation,
    SpePush,
    SpeWatermark,
    MatcherMatchesBatch,
    CqlParse,
    LintCheck,
    SpeAnalyze,
    BoundCheck,
    GroupingInsert,
    CoreSubmit,
    CoreUnsubscribe,
    CoreRebuildRoutes,
    CoreReoptimize,
    CoreAutotune,
    CoreSnapshot,
    CoreMetrics,
    VerifySnapshot,
    OverlayOptimize,
}

const NAME_TEXT: [&str; 22] = [
    "shadow.publish",
    "shadow.close_streams",
    "metrics.hub.on_event",
    "cbn.router.route_batch",
    "cbn.router.route_punctuation",
    "spe.executor.push_projected_batch",
    "spe.executor.advance_watermark",
    "cbn.matcher.matches_batch",
    "cql.parse_query_spanned",
    "lint.check_query_with",
    "spe.analyze",
    "bound.check_query",
    "query.grouping.insert",
    "core.submit_query",
    "core.unsubscribe",
    "core.rebuild_routes",
    "core.reoptimize_groups",
    "core.autotune",
    "core.snapshot",
    "core.metrics",
    "verify.verify_snapshot",
    "overlay.optimize_tree",
];

pub const NO_PARENT: u32 = u32::MAX;

/// One timed call. `parent` is the index of the span that caused it;
/// spans of one publish share its `batch` id.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: Name,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub batch: u32,
}

/// Spans are kept in memory and written out when the run ends.
pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn open(&mut self, name: Name, parent: u32, batch: u32) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            batch,
        });
        // Read the clock last so the push is outside the span.
        self.spans[id as usize].start_ns = elapsed_ns(self.origin);
        id
    }

    fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = elapsed_ns(self.origin);
    }

    /// What an empty span measures: the clock read that falls inside
    /// it. Subtracted once per span from the self times, or a layer
    /// called fifty times per tuple is billed fifty clock reads.
    fn empty_span_ns() -> u64 {
        let mut probe = Spans::new();
        for _ in 0..10_000 {
            let s = probe.open(Name::ShadowPublish, NO_PARENT, 0);
            probe.close(s);
        }
        crate::stats::percentile(&probe.durations(Name::ShadowPublish), 50.0)
    }

    /// Per-name `(self time, calls)`: a span's duration minus its
    /// children's and minus the clock's own cost. `durations` is
    /// parallel to the spans (their own, or a minimum over passes).
    pub fn self_times(&self, durations: &[u64]) -> Vec<(u64, u64)> {
        self.self_times_less(Spans::empty_span_ns(), durations)
    }

    fn self_times_less(&self, clock_ns: u64, durations: &[u64]) -> Vec<(u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for (s, d) in self.spans.iter().zip(durations) {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += d;
            }
        }
        let mut by_name = vec![(0u64, 0u64); NAME_TEXT.len()];
        for ((s, d), children) in self.spans.iter().zip(durations).zip(child_ns) {
            let e = &mut by_name[s.name as usize];
            e.0 += d.saturating_sub(children + clock_ns);
            e.1 += 1;
        }
        by_name
    }

    /// Durations of every span with this name, in order.
    fn durations(&self, name: Name) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// JSON lines: a header naming the span kinds, then one compact
    /// object per span (`n` name index, `s`/`e` start/end ns, `p` parent
    /// span index or -1, `b` batch id).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        let names: Vec<String> = NAME_TEXT.iter().map(|n| format!("\"{n}\"")).collect();
        writeln!(f, "{{\"names\":[{}]}}", names.join(","))?;
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                f,
                "{{\"n\":{},\"s\":{},\"e\":{},\"p\":{parent},\"b\":{}}}",
                s.name as u8, s.start_ns, s.end_ns, s.batch
            )?;
        }
        f.flush()
    }
}

struct Hop {
    from: Option<NodeId>,
    at: NodeId,
    tuples: Vec<Tuple>,
    schema: Schema,
}

struct Exec {
    replica: Replica,
    cql: String,
}

/// Counts a traced pass takes where the work happens. Every pass of a
/// run must produce the same ones.
#[derive(Debug, Clone, PartialEq, Default)]
struct Counts {
    route_calls: u64,
    hop_tuples: u64,
    intake: u64,
    emitted_results: u64,
    matches: u64,
    state_rows_peak: usize,
    staged_rows_peak: usize,
    router: RouterCounters,
    duplicates: u64,
    late_shed: u64,
    results: u64,
    result_bytes: u64,
    punctuation_bytes: u64,
    total_bytes: u64,
    groups: usize,
    grouped_queries: usize,
    json_bytes: usize,
    violations: usize,
    mean_depth: f64,
}

/// The benchmark's own dissemination loop over a deployment's routers.
struct Shadow {
    spans: Spans,
    hub: Hub,
    catalog: Catalog,
    nodes: usize,
    execs: BTreeMap<StreamName, Exec>,
    subs: HashMap<SubscriberId, SubKind>,
    ads: HashMap<StreamName, (NodeId, Schema)>,
    groups: Vec<(StreamName, Vec<QueryId>)>,
    deliveries: HashMap<QueryId, Vec<Tuple>>,
    // Out-of-order mode mirrors of the driver's watermark state.
    disorder_bound_ms: Option<i64>,
    high_water: Option<Timestamp>,
    emitted: BTreeMap<StreamName, Timestamp>,
    published: BTreeSet<StreamName>,
    closed: BTreeSet<StreamName>,
    counts: Counts,
    /// Bytes the shadow sent over links (must equal `total_bytes()`).
    link_bytes: u64,
    problems: Vec<String>,
}

impl Shadow {
    fn new(w: &Workload) -> Shadow {
        Shadow {
            spans: Spans::new(),
            hub: Hub::replica(),
            catalog: Catalog::sensors(),
            nodes: w.nodes,
            execs: BTreeMap::new(),
            subs: HashMap::new(),
            ads: HashMap::new(),
            groups: Vec::new(),
            deliveries: HashMap::new(),
            disorder_bound_ms: w.disorder_bound_ms,
            high_water: None,
            emitted: BTreeMap::new(),
            published: BTreeSet::new(),
            closed: BTreeSet::new(),
            counts: Counts::default(),
            link_bytes: 0,
            problems: Vec::new(),
        }
    }

    /// Bring the replicas in line with the deployment after a control
    /// operation, following the rule `Cosmos::executor_generation`
    /// documents: an executor starts fresh when its group is founded,
    /// its representative is widened or shrunk, or its processor is
    /// re-grouped (which renames the result stream); `restarted` names
    /// the surviving group of a withdrawn query, whose executor the
    /// system restarts even when the representative's text is unchanged.
    fn resync(&mut self, view: SnapshotView, restarted: Option<&StreamName>) {
        self.subs = view.subs.into_iter().collect();
        self.ads = view
            .ads
            .into_iter()
            .map(|(s, origin, schema)| (s, (origin, schema)))
            .collect();
        let mut live = BTreeSet::new();
        for g in &view.groups {
            live.insert(g.result_stream.clone());
            let keep = self
                .execs
                .get(&g.result_stream)
                .is_some_and(|e| e.cql == g.representative_cql)
                && restarted != Some(&g.result_stream);
            if keep {
                continue;
            }
            match Replica::new(
                &g.representative_cql,
                &g.result_stream,
                &self.catalog,
                self.disorder_bound_ms.is_some(),
            ) {
                Ok(mut replica) => {
                    // A fresh executor starts at the network's frontier.
                    for (s, wm) in &self.emitted {
                        replica.advance_watermark(s, *wm);
                    }
                    self.execs.insert(
                        g.result_stream.clone(),
                        Exec {
                            replica,
                            cql: g.representative_cql.clone(),
                        },
                    );
                }
                Err(e) => self
                    .problems
                    .push(format!("replica of '{}': {e}", g.representative_cql)),
            }
        }
        self.execs.retain(|stream, _| live.contains(stream));
        self.groups = view
            .groups
            .into_iter()
            .map(|g| (g.result_stream, g.members))
            .collect();
    }

    /// The result stream of the group serving `qid`.
    fn group_of(&self, qid: QueryId) -> Option<StreamName> {
        self.groups
            .iter()
            .find(|(_, members)| members.contains(&qid))
            .map(|(s, _)| s.clone())
    }

    fn route(&mut self, sys: &Sut, hop: &Hop, root: u32, batch: u32) -> Vec<BatchForward> {
        let s = self.spans.open(Name::RouteBatch, root, batch);
        let forwards = sys.route_batch(hop.at, &hop.tuples, &hop.schema, hop.from);
        self.spans.close(s);
        self.counts.route_calls += 1;
        self.counts.hop_tuples += hop.tuples.len() as u64;
        forwards
    }

    /// Breadth-first dissemination from `first`, as the driver's loop.
    fn drive(&mut self, sys: &Sut, first: Hop, root: u32, batch: u32) {
        let mut queue = VecDeque::from([first]);
        while let Some(hop) = queue.pop_front() {
            let forwards = self.route(sys, &hop, root, batch);
            for f in forwards {
                match f.dest {
                    Destination::Neighbor(n) => {
                        let bytes: usize = f.tuples.iter().map(Tuple::size_bytes).sum();
                        let s = self.spans.open(Name::HubRecord, root, batch);
                        self.hub.on_link(hop.at, n, f.tuples.len(), bytes);
                        self.spans.close(s);
                        self.link_bytes += bytes as u64;
                        queue.push_back(Hop {
                            from: Some(hop.at),
                            at: n,
                            tuples: f.tuples,
                            schema: f.schema,
                        });
                    }
                    Destination::Local(sub) => {
                        if let Some(out) = self.deliver_local(hop.at, sub, f, root, batch) {
                            queue.push_back(out);
                        }
                    }
                }
            }
        }
    }

    fn deliver_local(
        &mut self,
        at: NodeId,
        sub: SubscriberId,
        f: BatchForward,
        root: u32,
        batch: u32,
    ) -> Option<Hop> {
        match self.subs.get(&sub) {
            Some(SubKind::Spe(stream)) => {
                let exec = self.execs.get_mut(stream)?;
                let s = self.spans.open(Name::SpePush, root, batch);
                let outputs = exec.replica.push_projected_batch(&f.tuples, &f.schema);
                self.spans.close(s);
                self.counts.intake += f.tuples.len() as u64;
                self.counts.emitted_results += outputs.len() as u64;
                let s = self.spans.open(Name::HubRecord, root, batch);
                self.hub.on_spe_intake(at, &f.tuples);
                self.spans.close(s);
                if outputs.is_empty() {
                    return None;
                }
                let schema = exec.replica.result_schema().clone();
                let s = self.spans.open(Name::HubRecord, root, batch);
                self.hub.on_publish(stream, &schema, &outputs);
                self.spans.close(s);
                Some(Hop {
                    from: None,
                    at,
                    tuples: outputs,
                    schema,
                })
            }
            Some(SubKind::User(qid)) => {
                let s = self.spans.open(Name::HubRecord, root, batch);
                self.hub.on_delivery(*qid, at, &f.tuples);
                self.spans.close(s);
                self.deliveries.entry(*qid).or_default().extend(f.tuples);
                None
            }
            None => {
                self.problems
                    .push(format!("shadow: {sub:?} at {at} is in no snapshot"));
                None
            }
        }
    }

    /// One publish, as `Cosmos::publish_batch` drives it.
    fn publish(&mut self, sys: &Sut, batch: u32, tuples: &[Tuple]) {
        let before = sys.router_counters(self.nodes);
        let stream = tuples[0].stream.clone();
        let Some((origin, schema)) = self.ads.get(&stream).cloned() else {
            self.problems
                .push(format!("shadow: '{stream}' is not advertised"));
            return;
        };
        let root = self.spans.open(Name::ShadowPublish, NO_PARENT, batch);
        let s = self.spans.open(Name::HubRecord, root, batch);
        self.hub.on_publish(&stream, &schema, tuples);
        self.spans.close(s);
        if self.disorder_bound_ms.is_some() {
            self.published.insert(stream);
        }
        let first = Hop {
            from: None,
            at: origin,
            tuples: tuples.to_vec(),
            schema,
        };
        self.drive(sys, first, root, batch);
        if self.disorder_bound_ms.is_some() {
            if let Some(hw) = tuples.iter().map(|t| t.timestamp).max() {
                self.high_water = Some(self.high_water.map_or(hw, |h| h.max(hw)));
            }
            self.emit_watermarks(sys, root, batch);
        }
        self.spans.close(root);
        self.after_op(sys, before);
    }

    /// Counter deltas and state peaks, taken outside every span.
    fn after_op(&mut self, sys: &Sut, before: RouterCounters) {
        let after = sys.router_counters(self.nodes);
        self.counts.router.merge(&RouterCounters {
            tuples_routed: after.tuples_routed - before.tuples_routed,
            tuples_dropped: after.tuples_dropped - before.tuples_dropped,
            plan_hits: after.plan_hits - before.plan_hits,
            plan_misses: after.plan_misses - before.plan_misses,
            projections_built: after.projections_built - before.projections_built,
        });
        let (mut rows, mut staged) = (0, 0);
        for e in self.execs.values() {
            let (r, s) = e.replica.state_rows();
            rows += r;
            staged += s;
        }
        self.counts.state_rows_peak = self.counts.state_rows_peak.max(rows);
        self.counts.staged_rows_peak = self.counts.staged_rows_peak.max(staged);
    }

    /// `high_water − bound` for every published source stream it
    /// advances.
    fn emit_watermarks(&mut self, sys: &Sut, root: u32, batch: u32) {
        let (Some(bound), Some(hw)) = (self.disorder_bound_ms, self.high_water) else {
            return;
        };
        let wm = Timestamp(hw.0.saturating_sub(bound));
        let streams: Vec<StreamName> = self.published.iter().cloned().collect();
        for stream in streams {
            if self.closed.contains(&stream) || self.emitted.get(&stream).is_some_and(|l| wm <= *l)
            {
                continue;
            }
            let Some((origin, _)) = self.ads.get(&stream).cloned() else {
                continue;
            };
            self.emitted.insert(stream.clone(), wm);
            self.disseminate_watermark(sys, stream, wm, origin, root, batch);
        }
    }

    /// One punctuation along the stream's tree: link crossings are
    /// counted in bytes, interested executors advance and drain, and an
    /// executor whose frontier moved punctuates its result stream.
    fn disseminate_watermark(
        &mut self,
        sys: &Sut,
        stream: StreamName,
        watermark: Timestamp,
        origin: NodeId,
        root: u32,
        batch: u32,
    ) {
        let mut queue = VecDeque::from([(None, origin, stream, watermark)]);
        while let Some((from, at, stream, wm)) = queue.pop_front() {
            let s = self.spans.open(Name::RoutePunctuation, root, batch);
            let dests = sys.route_punctuation(at, &stream, from);
            self.spans.close(s);
            for dest in dests {
                match dest {
                    Destination::Neighbor(n) => {
                        let bytes = sut::punctuation_bytes(&stream, wm);
                        let s = self.spans.open(Name::HubRecord, root, batch);
                        self.hub.on_link(at, n, 0, bytes);
                        self.hub.on_punctuation(bytes);
                        self.spans.close(s);
                        self.link_bytes += bytes as u64;
                        queue.push_back((Some(at), n, stream.clone(), wm));
                    }
                    Destination::Local(sub) => {
                        let Some(SubKind::Spe(result_stream)) = self.subs.get(&sub).cloned() else {
                            continue;
                        };
                        let Some(exec) = self.execs.get_mut(&result_stream) else {
                            continue;
                        };
                        let before = exec.replica.frontier();
                        let s = self.spans.open(Name::SpeWatermark, root, batch);
                        let outputs = exec.replica.advance_watermark(&stream, wm);
                        self.spans.close(s);
                        let after = exec.replica.frontier();
                        let schema = exec.replica.result_schema().clone();
                        self.counts.emitted_results += outputs.len() as u64;
                        if !outputs.is_empty() {
                            let s = self.spans.open(Name::HubRecord, root, batch);
                            self.hub.on_publish(&result_stream, &schema, &outputs);
                            self.spans.close(s);
                            let hop = Hop {
                                from: None,
                                at,
                                tuples: outputs,
                                schema,
                            };
                            self.drive(sys, hop, root, batch);
                        }
                        let (Some(b), Some(a)) = (before, after) else {
                            continue;
                        };
                        if a > b && self.emitted.get(&result_stream).is_none_or(|l| a > *l) {
                            self.emitted.insert(result_stream.clone(), a);
                            queue.push_back((None, at, result_stream, a));
                        }
                    }
                }
            }
        }
    }

    /// `Cosmos::close_streams`: a final `+∞` watermark per source.
    fn close_streams(&mut self, sys: &Sut, batch: u32) {
        let before = sys.router_counters(self.nodes);
        let root = self.spans.open(Name::ShadowClose, NO_PARENT, batch);
        let mut sources: Vec<(StreamName, NodeId)> = self
            .ads
            .iter()
            .filter(|(s, _)| !self.execs.contains_key(*s))
            .map(|(s, (origin, _))| (s.clone(), *origin))
            .collect();
        sources.sort();
        for (stream, origin) in sources {
            if self.closed.contains(&stream) {
                continue;
            }
            let end = Timestamp(i64::MAX);
            self.emitted.insert(stream.clone(), end);
            self.disseminate_watermark(sys, stream.clone(), end, origin, root, batch);
            self.closed.insert(stream);
        }
        self.spans.close(root);
        self.after_op(sys, before);
    }
}

/// Compare the shadow's per-query deliveries with the deployment's:
/// the exact sequence, or the multiset when the deployment ran out of
/// order (watermark drains interleave differently-keyed queues).
pub fn compare_deliveries(
    shadow: &HashMap<QueryId, Vec<Tuple>>,
    real: &[(QueryId, &[Tuple])],
    multiset: bool,
) -> Vec<String> {
    let empty = Vec::new();
    let mut out = Vec::new();
    for (qid, delivered) in real {
        let mirrored = shadow.get(qid).unwrap_or(&empty);
        let same = if multiset {
            sut::normalize_delivered(mirrored) == sut::normalize_delivered(delivered)
        } else {
            mirrored.as_slice() == *delivered
        };
        if !same {
            out.push(format!(
                "shadow delivery of {qid} differs: {} tuples mirrored, {} delivered",
                mirrored.len(),
                delivered.len()
            ));
        }
    }
    out
}

/// The per-layer metric names and units, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("cbn.router.route_ns_per_tuple", "ns"),
    ("cbn.router.ns_per_call", "ns"),
    ("cbn.router.calls_per_tuple", "count"),
    ("cbn.router.hop_tuples_per_tuple", "count"),
    ("cbn.router.forward_ratio", "ratio"),
    ("cbn.router.plan_hit_ratio", "ratio"),
    ("cbn.router.projections_per_hop_tuple", "count"),
    ("cbn.matcher.match_ns_per_tuple", "ns"),
    ("cbn.matcher.matches_per_tuple", "count"),
    ("spe.executor.push_ns_per_intake", "ns"),
    ("spe.executor.intake_per_tuple", "count"),
    ("spe.executor.emit_per_intake", "count"),
    ("spe.executor.state_rows_peak", "count"),
    ("spe.executor.watermark_ns_per_tuple", "ns"),
    ("spe.executor.staged_rows_peak", "count"),
    ("spe.executor.duplicates_dropped", "count"),
    ("spe.executor.late_shed", "count"),
    ("metrics.hub.record_ns_per_tuple", "ns"),
    ("metrics.hub.snapshot_ns", "ns"),
    ("core.driver.residual_ns_per_tuple", "ns"),
    ("core.driver.residual_share", "ratio"),
    ("core.delivery.results_per_tuple", "count"),
    ("core.delivery.retained_bytes_per_tuple", "bytes"),
    ("core.punctuation.bytes_share", "ratio"),
    ("alloc.count_per_tuple", "count"),
    ("alloc.bytes_per_tuple", "bytes"),
    ("cql.parse_ns_per_query", "ns"),
    ("lint.check_ns_per_query", "ns"),
    ("spe.analyze_ns_per_query", "ns"),
    ("bound.check_ns_per_query", "ns"),
    ("query.grouping.insert_ns_per_query", "ns"),
    ("query.grouping.ratio", "ratio"),
    ("core.submit.residual_ns_per_query", "ns"),
    ("core.submit.us_at_live_32", "us"),
    ("core.submit.us_at_live_96", "us"),
    ("core.unsubscribe.ns_per_call", "ns"),
    ("core.rebuild_routes.ns_per_call", "ns"),
    ("core.reoptimize.ns_per_call", "ns"),
    ("core.autotune.ns_per_call", "ns"),
    ("core.snapshot.ns_per_call", "ns"),
    ("core.snapshot.json_bytes", "bytes"),
    ("verify.snapshot.ns_per_call", "ns"),
    ("verify.snapshot.violations", "count"),
    ("overlay.build_ns", "ns"),
    ("overlay.optimize_ns", "ns"),
    ("overlay.tree.mean_depth", "count"),
    ("workload.gen_s", "s"),
    ("trace.shadow_ratio", "ratio"),
];

/// What the traced run hands back.
pub struct Traced {
    /// Parallel to [`PER_LAYER`].
    pub values: Vec<f64>,
    /// Per span name `(self ns, calls)`, after the per-span minimum.
    pub self_times: Vec<(u64, u64)>,
    /// The first pass's spans, as recorded.
    pub spans: Spans,
    /// Shadow and deployment deliveries at the checkpoint, kept so the
    /// self-test can show the comparison has teeth.
    pub shadow_deliveries: HashMap<QueryId, Vec<Tuple>>,
    pub real_deliveries: Vec<(QueryId, Vec<Tuple>)>,
    /// What the traced deployment read at its checkpoint; a measured
    /// run of the same workload must have read the same.
    pub checkpoint: measure::Checkpoint,
    pub problems: Vec<String>,
    pub errors: Vec<String>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Mean number of tree hops from a stream origin to a node, over all
/// registered origins.
fn mean_depth(view: &SnapshotView, origins: &[NodeId]) -> f64 {
    let mut adj = vec![Vec::new(); view.nodes];
    for (p, c) in &view.tree_edges {
        adj[p.index()].push(c.index());
        adj[c.index()].push(p.index());
    }
    let (mut hops, mut pairs) = (0u64, 0u64);
    for origin in origins {
        let mut depth = vec![usize::MAX; view.nodes];
        depth[origin.index()] = 0;
        let mut queue = VecDeque::from([origin.index()]);
        while let Some(n) = queue.pop_front() {
            for &m in &adj[n] {
                if depth[m] == usize::MAX {
                    depth[m] = depth[n] + 1;
                    queue.push_back(m);
                }
            }
        }
        for d in depth.into_iter().filter(|d| *d != usize::MAX && *d > 0) {
            hops += d as u64;
            pairs += 1;
        }
    }
    ratio(hops as f64, pairs as f64)
}

/// Replay every query text through the public functions `submit_query`
/// calls, in its order, one span each.
fn replay_control_plane(w: &Workload, spans: &mut Spans, problems: &mut Vec<String>) {
    let catalog = Catalog::sensors();
    let mut grouping = sut::Grouping::replica();
    for (i, (text, _)) in w.queries.iter().enumerate() {
        let batch = i as u32;
        let s = spans.open(Name::CqlParse, NO_PARENT, batch);
        let parsed = sut::parse(text);
        spans.close(s);
        let Ok(parsed) = parsed else {
            problems.push(format!("replay: '{text}' does not parse"));
            continue;
        };
        let s = spans.open(Name::LintCheck, NO_PARENT, batch);
        let findings = sut::lint(&parsed, &catalog);
        spans.close(s);
        std::hint::black_box(findings);
        let s = spans.open(Name::SpeAnalyze, NO_PARENT, batch);
        let analyzed = sut::analyze(&parsed, &catalog);
        spans.close(s);
        let Ok(analyzed) = analyzed else {
            problems.push(format!("replay: '{text}' does not analyze"));
            continue;
        };
        let s = spans.open(Name::BoundCheck, NO_PARENT, batch);
        let findings = sut::bound_check(&analyzed);
        spans.close(s);
        std::hint::black_box(findings);
        let s = spans.open(Name::GroupingInsert, NO_PARENT, batch);
        let r = grouping.insert(i as u64, analyzed, &catalog);
        spans.close(s);
        if let Err(e) = r {
            problems.push(format!("replay: grouping '{text}': {e}"));
        }
    }
}

/// `CountingMatcher::matches_batch` on replicas of the origin routers,
/// over the workload's batches. Returns the number of matches.
fn replay_matcher(w: &Workload, d: &Deployed, spans: &mut Spans) -> Result<u64, String> {
    let snap = d.sut.snapshot()?;
    let view = sut::view(&snap);
    let matchers: HashMap<StreamName, (sut::Matcher, Schema)> = view
        .ads
        .iter()
        .map(|(stream, origin, schema)| {
            (
                stream.clone(),
                (sut::Matcher::of_router(&snap, *origin), schema.clone()),
            )
        })
        .collect();
    let mut matches = 0u64;
    for op in &w.ops {
        let Op::Publish(b) = op else { continue };
        let tuples = &w.batches[*b];
        let Some((matcher, schema)) = matchers.get(&tuples[0].stream) else {
            continue;
        };
        let s = spans.open(Name::MatcherMatchesBatch, NO_PARENT, *b as u32);
        let n = matcher.matches_batch(tuples, schema);
        spans.close(s);
        matches += n as u64;
    }
    Ok(matches)
}

/// A real repetition with the counting allocator switched on around
/// the data-plane calls only.
fn count_allocations(w: &Workload, catalog: &Catalog) -> Result<(u64, u64), String> {
    let mut d = measure::deploy(w, catalog)?;
    let (mut count, mut bytes) = (0u64, 0u64);
    for &op in &w.ops {
        if matches!(op, Op::Publish(_) | Op::Close) {
            let (_, c, b) = crate::alloc::count(|| d.run_op(w, op));
            count += c;
            bytes += b;
        } else {
            d.run_op(w, op);
        }
    }
    Ok((count, bytes))
}

/// One traced pass over a fresh deployment.
struct Pass {
    spans: Spans,
    counts: Counts,
    /// `Cosmos::new`, then every start-up `submit_query`.
    setup_ns: Vec<u64>,
    shadow_deliveries: HashMap<QueryId, Vec<Tuple>>,
    real_deliveries: Vec<(QueryId, Vec<Tuple>)>,
    checkpoint: Option<measure::Checkpoint>,
    problems: Vec<String>,
    errors: Vec<String>,
}

fn pass(w: &Workload, catalog: &Catalog) -> Result<Pass, String> {
    let mut d = measure::deploy(w, catalog)?;
    let mut shadow = Shadow::new(w);
    let origins: Vec<NodeId> = w.streams.iter().map(|(_, o)| *o).collect();
    shadow.resync(sut::view(&d.sut.snapshot()?), None);
    shadow.counts.matches = replay_matcher(w, &d, &mut shadow.spans)?;

    // A bare `rebuild_routes()` before (at most ~50 of) the withdrawals.
    let unsubscribes = w.count(|op| matches!(op, Op::Unsubscribe(_)));
    let rebuild_stride = unsubscribes.div_ceil(50).max(1);
    let mut unsubscribe_index = 0;
    let mut real_deliveries = Vec::new();
    let mut checkpoint = None;
    for (i, &op) in w.ops.iter().enumerate() {
        let batch = i as u32;
        match op {
            Op::Publish(b) => {
                shadow.publish(&d.sut, batch, &w.batches[b]);
                d.run_op(w, op);
            }
            Op::Close => {
                shadow.close_streams(&d.sut, batch);
                d.run_op(w, op);
            }
            Op::Checkpoint => {
                let s = shadow.spans.open(Name::CoreSnapshot, NO_PARENT, batch);
                let snap = d.sut.snapshot()?;
                shadow.spans.close(s);
                shadow.counts.json_bytes = sut::snapshot_json_len(&snap)?;
                let s = shadow.spans.open(Name::VerifySnapshot, NO_PARENT, batch);
                let violations = sut::verify_violations(&snap);
                shadow.spans.close(s);
                shadow.counts.violations = violations.len();
                shadow
                    .problems
                    .extend(violations.iter().map(|v| format!("verify_snapshot: {v}")));
                let view = sut::view(&snap);
                shadow.counts.groups = view.groups.len();
                shadow.counts.grouped_queries = view.groups.iter().map(|g| g.members.len()).sum();
                shadow.counts.mean_depth = mean_depth(&view, &origins);
                shadow.counts.punctuation_bytes = d.sut.hub_punctuation_bytes();
                shadow.counts.total_bytes = d.sut.total_bytes();
                checkpoint = Some(d.checkpoint());
                real_deliveries = d
                    .qids
                    .iter()
                    .flatten()
                    .map(|q| (*q, d.sut.results(*q).to_vec()))
                    .collect();
                for (_, tuples) in &real_deliveries {
                    shadow.counts.results += tuples.len() as u64;
                    shadow.counts.result_bytes +=
                        tuples.iter().map(|t| t.size_bytes() as u64).sum::<u64>();
                }
                let real: Vec<(QueryId, &[Tuple])> = real_deliveries
                    .iter()
                    .map(|(q, t)| (*q, t.as_slice()))
                    .collect();
                shadow.problems.extend(compare_deliveries(
                    &shadow.deliveries,
                    &real,
                    w.disorder_bound_ms.is_some(),
                ));
                if shadow.link_bytes != shadow.counts.total_bytes {
                    shadow.problems.push(format!(
                        "shadow crossed {} link bytes, the deployment {}",
                        shadow.link_bytes, shadow.counts.total_bytes
                    ));
                }
                if shadow.hub.link_bytes_total() != shadow.link_bytes {
                    shadow
                        .problems
                        .push("replica hub lost link bytes".to_string());
                }
            }
            Op::Submit(_) | Op::Unsubscribe(_) | Op::Reoptimize | Op::Autotune => {
                let mut restarted = None;
                if let Op::Unsubscribe(q) = op {
                    restarted = d.qids[q].and_then(|qid| shadow.group_of(qid));
                    if unsubscribe_index % rebuild_stride == 0 {
                        let s = shadow.spans.open(Name::CoreRebuildRoutes, NO_PARENT, batch);
                        d.sut.rebuild_routes();
                        shadow.spans.close(s);
                    }
                    unsubscribe_index += 1;
                }
                let name = match op {
                    Op::Submit(_) => Name::CoreSubmit,
                    Op::Unsubscribe(_) => Name::CoreUnsubscribe,
                    Op::Reoptimize => Name::CoreReoptimize,
                    _ => Name::CoreAutotune,
                };
                let s = shadow.spans.open(name, NO_PARENT, batch);
                d.run_op(w, op);
                shadow.spans.close(s);
                shadow.resync(sut::view(&d.sut.snapshot()?), restarted.as_ref());
            }
            Op::Snapshot | Op::Metrics => {
                let name = if op == Op::Snapshot {
                    Name::CoreSnapshot
                } else {
                    Name::CoreMetrics
                };
                let s = shadow.spans.open(name, NO_PARENT, batch);
                d.run_op(w, op);
                shadow.spans.close(s);
            }
        }
    }

    // One more of every control-plane call the script may not contain.
    let end = w.ops.len() as u32;
    for (name, op) in [
        (Name::CoreMetrics, Op::Metrics),
        (Name::CoreReoptimize, Op::Reoptimize),
        (Name::CoreAutotune, Op::Autotune),
    ] {
        let s = shadow.spans.open(name, NO_PARENT, end);
        d.run_op(w, op);
        shadow.spans.close(s);
    }
    let s = shadow.spans.open(Name::OverlayOptimize, NO_PARENT, end);
    std::hint::black_box(d.sut.optimize_tree());
    shadow.spans.close(s);
    replay_control_plane(w, &mut shadow.spans, &mut shadow.problems);

    for e in shadow.execs.values() {
        let c = e.replica.disorder_counts();
        shadow.counts.late_shed += c.shed;
        shadow.counts.duplicates += c.duplicates;
    }
    if shadow.counts.late_shed != 0 {
        shadow.problems.push(format!(
            "{} tuples shed as late in the shadow",
            shadow.counts.late_shed
        ));
    }
    let mut setup_ns = vec![d.new_ns];
    setup_ns.extend(&d.startup_ns);
    Ok(Pass {
        spans: shadow.spans,
        counts: shadow.counts,
        setup_ns,
        // No script publishes after its checkpoint.
        shadow_deliveries: shadow.deliveries,
        real_deliveries,
        checkpoint,
        problems: shadow.problems,
        errors: d.errors,
    })
}

/// The traced run: `passes` identical traced passes, each span's
/// duration taken as its minimum over the passes (the measurement rule
/// of the measured run, applied to spans), then one more real
/// repetition that counts allocations. `measured_ns_per_tuple` and
/// `measured_publish_ns` come from a measured run of the same workload
/// (tracing off) and feed only the residual and the shadow ratio.
pub fn run(
    w: &Workload,
    catalog: &Catalog,
    passes: usize,
    measured_ns_per_tuple: f64,
    measured_publish_ns: u64,
) -> Result<Traced, String> {
    let first = pass(w, catalog)?;
    let mut problems = first.problems.clone();
    let mut errors = first.errors.clone();
    let mut durations: Vec<u64> = first
        .spans
        .spans
        .iter()
        .map(|s| s.end_ns - s.start_ns)
        .collect();
    let mut setup_ns = first.setup_ns.clone();
    for p in 1..passes {
        let next = pass(w, catalog)?;
        if next.counts != first.counts || next.spans.spans.len() != durations.len() {
            problems.push(format!("traced pass {p} did different work than pass 0"));
            continue;
        }
        for (d, s) in durations.iter_mut().zip(&next.spans.spans) {
            *d = (*d).min(s.end_ns - s.start_ns);
        }
        for (a, b) in setup_ns.iter_mut().zip(&next.setup_ns) {
            *a = (*a).min(*b);
        }
        problems.extend(next.problems);
        errors.extend(next.errors);
    }
    let (alloc_count, alloc_bytes) = count_allocations(w, catalog)?;

    let c = &first.counts;
    let st = first.spans.self_times(&durations);
    let self_ns = |n: Name| st[n as usize].0 as f64;
    let per_call = |n: Name| ratio(self_ns(n), st[n as usize].1 as f64);
    let total = |n: Name| -> u64 {
        first
            .spans
            .spans
            .iter()
            .zip(&durations)
            .filter(|(s, _)| s.name == n)
            .map(|(_, d)| *d)
            .sum()
    };
    let src = w.source_tuples() as f64;
    let route = self_ns(Name::RouteBatch) / src;
    let push = self_ns(Name::SpePush) / src;
    let watermark = (self_ns(Name::SpeWatermark) + self_ns(Name::RoutePunctuation)) / src;
    let record = self_ns(Name::HubRecord) / src;
    let residual = measured_ns_per_tuple - (route + push + watermark + record);

    // `live` queries were admitted before start-up submit #live.
    let startup_ns = &setup_ns[1..];
    let at_live = |lo: usize, hi: usize| -> f64 {
        let window: Vec<u64> = startup_ns
            .iter()
            .enumerate()
            .filter(|(live, _)| (lo..=hi).contains(live))
            .map(|(_, ns)| *ns)
            .collect();
        crate::stats::percentile(&window, 50.0) as f64 / 1e3
    };
    let submits = startup_ns.len() as f64 + st[Name::CoreSubmit as usize].1 as f64;
    let submit_mean = ratio(
        startup_ns.iter().sum::<u64>() as f64 + self_ns(Name::CoreSubmit),
        submits,
    );
    let layers: f64 = [
        Name::CqlParse,
        Name::LintCheck,
        Name::SpeAnalyze,
        Name::BoundCheck,
        Name::GroupingInsert,
    ]
    .iter()
    .map(|n| per_call(*n))
    .sum();
    let shadow_ns = total(Name::ShadowPublish) + total(Name::ShadowClose);

    let named: Vec<(&str, f64)> = vec![
        ("cbn.router.route_ns_per_tuple", route),
        ("cbn.router.ns_per_call", per_call(Name::RouteBatch)),
        ("cbn.router.calls_per_tuple", c.route_calls as f64 / src),
        ("cbn.router.hop_tuples_per_tuple", c.hop_tuples as f64 / src),
        (
            "cbn.router.forward_ratio",
            ratio(
                c.router.tuples_routed as f64,
                (c.router.tuples_routed + c.router.tuples_dropped) as f64,
            ),
        ),
        (
            "cbn.router.plan_hit_ratio",
            ratio(
                c.router.plan_hits as f64,
                (c.router.plan_hits + c.router.plan_misses) as f64,
            ),
        ),
        (
            "cbn.router.projections_per_hop_tuple",
            ratio(c.router.projections_built as f64, c.hop_tuples as f64),
        ),
        (
            "cbn.matcher.match_ns_per_tuple",
            self_ns(Name::MatcherMatchesBatch) / src,
        ),
        ("cbn.matcher.matches_per_tuple", c.matches as f64 / src),
        (
            "spe.executor.push_ns_per_intake",
            ratio(self_ns(Name::SpePush), c.intake as f64),
        ),
        ("spe.executor.intake_per_tuple", c.intake as f64 / src),
        (
            "spe.executor.emit_per_intake",
            ratio(c.emitted_results as f64, c.intake as f64),
        ),
        ("spe.executor.state_rows_peak", c.state_rows_peak as f64),
        ("spe.executor.watermark_ns_per_tuple", watermark),
        ("spe.executor.staged_rows_peak", c.staged_rows_peak as f64),
        ("spe.executor.duplicates_dropped", c.duplicates as f64),
        ("spe.executor.late_shed", c.late_shed as f64),
        ("metrics.hub.record_ns_per_tuple", record),
        ("metrics.hub.snapshot_ns", per_call(Name::CoreMetrics)),
        ("core.driver.residual_ns_per_tuple", residual),
        (
            "core.driver.residual_share",
            ratio(residual, measured_ns_per_tuple),
        ),
        ("core.delivery.results_per_tuple", c.results as f64 / src),
        (
            "core.delivery.retained_bytes_per_tuple",
            c.result_bytes as f64 / src,
        ),
        (
            "core.punctuation.bytes_share",
            ratio(c.punctuation_bytes as f64, c.total_bytes as f64),
        ),
        ("alloc.count_per_tuple", alloc_count as f64 / src),
        ("alloc.bytes_per_tuple", alloc_bytes as f64 / src),
        ("cql.parse_ns_per_query", per_call(Name::CqlParse)),
        ("lint.check_ns_per_query", per_call(Name::LintCheck)),
        ("spe.analyze_ns_per_query", per_call(Name::SpeAnalyze)),
        ("bound.check_ns_per_query", per_call(Name::BoundCheck)),
        (
            "query.grouping.insert_ns_per_query",
            per_call(Name::GroupingInsert),
        ),
        (
            "query.grouping.ratio",
            ratio(c.groups as f64, c.grouped_queries as f64),
        ),
        ("core.submit.residual_ns_per_query", submit_mean - layers),
        ("core.submit.us_at_live_32", at_live(24, 40)),
        ("core.submit.us_at_live_96", at_live(88, 104)),
        (
            "core.unsubscribe.ns_per_call",
            per_call(Name::CoreUnsubscribe),
        ),
        (
            "core.rebuild_routes.ns_per_call",
            per_call(Name::CoreRebuildRoutes),
        ),
        (
            "core.reoptimize.ns_per_call",
            per_call(Name::CoreReoptimize),
        ),
        ("core.autotune.ns_per_call", per_call(Name::CoreAutotune)),
        ("core.snapshot.ns_per_call", per_call(Name::CoreSnapshot)),
        ("core.snapshot.json_bytes", c.json_bytes as f64),
        (
            "verify.snapshot.ns_per_call",
            per_call(Name::VerifySnapshot),
        ),
        ("verify.snapshot.violations", c.violations as f64),
        ("overlay.build_ns", setup_ns[0] as f64),
        ("overlay.optimize_ns", per_call(Name::OverlayOptimize)),
        ("overlay.tree.mean_depth", c.mean_depth),
        ("workload.gen_s", w.gen_s),
        (
            "trace.shadow_ratio",
            ratio(shadow_ns as f64, measured_publish_ns as f64),
        ),
    ];
    // The values travel by position; make sure the positions are right.
    assert!(
        named
            .iter()
            .map(|(n, _)| n)
            .eq(PER_LAYER.iter().map(|(n, _)| n)),
        "per-layer values are not in PER_LAYER order"
    );
    let values = named.into_iter().map(|(_, v)| v).collect();
    Ok(Traced {
        values,
        self_times: st,
        spans: first.spans,
        shadow_deliveries: first.shadow_deliveries,
        real_deliveries: first.real_deliveries,
        checkpoint: first.checkpoint.ok_or("script has no checkpoint")?,
        problems,
        errors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::new();
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            batch: 0,
        };
        spans.spans = vec![
            span(Name::ShadowPublish, 0, 100, NO_PARENT),
            span(Name::RouteBatch, 10, 40, 0),
            span(Name::RouteBatch, 50, 70, 0),
            span(Name::HubRecord, 70, 75, 0),
        ];
        let own = [100, 30, 20, 5];
        let st = spans.self_times_less(0, &own);
        assert_eq!(st[Name::ShadowPublish as usize], (45, 1));
        assert_eq!(st[Name::RouteBatch as usize], (50, 2));
        assert_eq!(st[Name::HubRecord as usize], (5, 1));
        let st = spans.self_times_less(4, &own);
        assert_eq!(st[Name::RouteBatch as usize], (42, 2));
        assert_eq!(st[Name::HubRecord as usize], (1, 1));
    }

    #[test]
    fn names_and_texts_line_up() {
        assert_eq!(
            NAME_TEXT[Name::OverlayOptimize as usize],
            "overlay.optimize_tree"
        );
        assert_eq!(NAME_TEXT[Name::HubRecord as usize], "metrics.hub.on_event");
        assert_eq!(NAME_TEXT.len(), Name::OverlayOptimize as usize + 1);
    }
}
