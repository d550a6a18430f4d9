//! The metrics hub: every observation point in the running system
//! funnels into one [`MetricsHub`] owned by the system driver.
//!
//! The hub is clocked by *virtual time* — the max tuple timestamp seen
//! so far — never the wall clock, so two runs of the same scenario
//! produce byte-identical metrics. What a call costs: the per-node
//! windows (`on_link`'s sender and receiver, `on_spe_intake`,
//! `on_delivery`'s consumer) are table slots indexed by
//! [`NodeId::index`]; a link's window sits in its lower endpoint's slot,
//! found by a binary search of that node's few links by far end
//! (`on_link`); the per-stream and per-query windows are one
//! ordered-map probe each (`on_publish`, `on_delivery`), and a key is
//! cloned and a window built only when the probe misses; each window
//! found then takes the sample, which is a
//! range check and two additions while virtual time stays inside the
//! window's newest bucket and a division plus a search of its eight
//! buckets when it does not ([`RateWindow::record`]);
//! `on_publish` and `on_delivery` also walk the batch for
//! its bytes, and sampled tuples cost O(arity) in the attribute
//! observers. The hub always records: overload budgets and the autotune
//! scheduler read it, so there is no "off" state for them to disagree
//! with.

use crate::observe::AttrObserver;
use crate::snapshot::{
    AttrMetrics, LinkMetrics, MetricsSnapshot, NodeMetrics, QueryMetrics, RouterTotals,
    StreamMetrics, METRICS_VERSION,
};
use crate::window::RateWindow;
use cosmos_query::{StatsCatalog, StreamStats};
use cosmos_types::{NodeId, QueryId, Schema, StreamName, TimeDelta, Timestamp, Tuple};
use std::collections::BTreeMap;

/// Knobs for the metrics layer.
#[derive(Debug, Clone)]
pub struct MetricsConfig {
    /// Sliding-window span, in virtual time.
    pub window: TimeDelta,
    /// Sample every Nth published tuple into the per-attribute
    /// observers. 1 samples everything; higher trades accuracy for
    /// less hot-path work.
    pub sample_every: u64,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig {
            window: TimeDelta::from_secs(60),
            sample_every: 32,
        }
    }
}

#[derive(Debug, Clone)]
struct StreamObservation {
    window: RateWindow,
    /// Modular clock driving every-Nth-tuple sampling.
    sample_clock: u64,
    /// Schema the observers are positionally aligned with. Interned
    /// schemas compare in O(1), so re-checking per batch is free.
    schema: Option<Schema>,
    /// One observer per schema field, in field order — indexed sampling,
    /// no per-sample name lookups.
    observers: Vec<AttrObserver>,
}

impl StreamObservation {
    /// Record one published batch (`bytes` in total, at virtual time
    /// `at`) and sample every `every`th tuple into the observers.
    fn record(&mut self, at: i64, bytes: u64, every: u64, schema: &Schema, tuples: &[Tuple]) {
        self.window.record(at, tuples.len() as u64, bytes);
        // Jump straight to the sampled indices: with `clock` tuples seen
        // before this batch, the next sample is the tuple that brings the
        // cumulative count to a multiple of `every`.
        let mut idx = (every - self.sample_clock % every) as usize;
        self.sample_clock += tuples.len() as u64;
        if idx > tuples.len() {
            return;
        }
        if self.schema.as_ref() != Some(schema) {
            // First sample (or a schema change, which streams don't do):
            // align one observer per field.
            self.schema = Some(schema.clone());
            self.observers = vec![AttrObserver::default(); schema.fields().len()];
        }
        while idx <= tuples.len() {
            let t = &tuples[idx - 1];
            for (o, value) in self.observers.iter_mut().zip(t.values()) {
                o.observe(value);
            }
            idx += every as usize;
        }
    }

    /// The (field name, observer) pairs that saw at least one sample.
    fn observed_attrs(&self) -> impl Iterator<Item = (&str, &AttrObserver)> {
        self.schema
            .iter()
            .flat_map(|s| s.fields().iter().zip(&self.observers))
            .map(|(f, o)| (f.name.as_str(), o))
    }
}

#[derive(Debug, Clone)]
struct QueryObservation {
    window: RateWindow,
    latency_sum_ms: i64,
    latency_max_ms: i64,
}

/// The windows of one node; `None` until the node sends, receives or
/// consumes for the first time.
#[derive(Debug, Clone, Default)]
struct NodeWindows {
    tx: Option<RateWindow>,
    rx: Option<RateWindow>,
    /// Bytes consumed *at* the node: user deliveries plus SPE intake.
    /// This is the measured analogue of the optimizer's per-node demand.
    consumed: Option<RateWindow>,
    /// The windows of the links this node is the lower endpoint of,
    /// sorted by the far end (so nodes, then far ends, is link order).
    links: Vec<(NodeId, RateWindow)>,
}

impl NodeWindows {
    /// Where the link to `far` sits in [`NodeWindows::links`] (`Err`:
    /// where it would be inserted).
    fn link_slot(&self, far: NodeId) -> std::result::Result<usize, usize> {
        self.links.binary_search_by_key(&far, |&(b, _)| b)
    }
}

/// Sliding-window metrics for links, nodes, streams and queries.
#[derive(Debug, Clone)]
pub struct MetricsHub {
    cfg: MetricsConfig,
    now_ms: i64,
    // Every table below is iterated while assembling `MetricsSnapshot`,
    // so each is ordered (never a hash map): node index, then far end,
    // for nodes and links; key order for the BTreeMaps. That is the
    // emission order, making the snapshot deterministic with no
    // sort-before-emit step.
    /// Per-node windows, each holding the node's links to higher nodes,
    /// indexed by [`NodeId::index`].
    nodes: Vec<NodeWindows>,
    streams: BTreeMap<StreamName, StreamObservation>,
    queries: BTreeMap<QueryId, QueryObservation>,
    /// Watermark punctuation datagrams disseminated (disorder mode).
    punctuations: u64,
    /// Link bytes spent on punctuations (also counted by `on_link`).
    punctuation_bytes: u64,
    /// Result tuples dropped by the overload controller's `Shed` policy.
    shed_tuples: u64,
    /// Result bytes dropped by the `Shed` policy.
    shed_bytes: u64,
    /// Pending batches merged by the `Coalesce` policy before delivery.
    coalesced_batches: u64,
    /// Upstream rate-limit datagrams disseminated by `Throttle`.
    throttles: u64,
    /// Link bytes spent on rate-limits (also counted by `on_link`).
    throttle_bytes: u64,
}

impl MetricsHub {
    /// A hub with the given configuration.
    pub fn new(cfg: MetricsConfig) -> MetricsHub {
        MetricsHub {
            cfg,
            now_ms: 0,
            nodes: Vec::new(),
            streams: BTreeMap::new(),
            queries: BTreeMap::new(),
            punctuations: 0,
            punctuation_bytes: 0,
            shed_tuples: 0,
            shed_bytes: 0,
            coalesced_batches: 0,
            throttles: 0,
            throttle_bytes: 0,
        }
    }

    /// Current virtual time in milliseconds.
    pub fn now_ms(&self) -> i64 {
        self.now_ms
    }

    /// Configured sliding-window span in milliseconds (never zero) —
    /// the budget period of the overload controller and the scheduling
    /// quantum of autotune policies.
    pub fn window_ms(&self) -> i64 {
        self.cfg.window.millis().max(1)
    }

    /// Advance virtual time to at least `ts` (time never goes backward).
    pub fn advance(&mut self, ts: Timestamp) {
        self.now_ms = self.now_ms.max(ts.millis());
    }

    /// The windows of `node`, growing the table to reach it.
    fn node_mut(&mut self, node: NodeId) -> &mut NodeWindows {
        if self.nodes.len() <= node.index() {
            self.nodes
                .resize_with(node.index() + 1, NodeWindows::default);
        }
        &mut self.nodes[node.index()]
    }

    /// A batch of `stream` tuples entered the system (source publish or
    /// an in-network operator emitting its result stream). Advances
    /// virtual time, records the stream's rate window, and samples every
    /// Nth tuple into the attribute observers.
    pub fn on_publish(&mut self, stream: &StreamName, schema: &Schema, tuples: &[Tuple]) {
        if tuples.is_empty() {
            return;
        }
        let mut at = self.now_ms;
        let mut bytes = 0u64;
        for t in tuples {
            at = at.max(t.timestamp.millis());
            bytes += t.size_bytes() as u64;
        }
        self.now_ms = at;
        let every = self.cfg.sample_every.max(1);
        match self.streams.get_mut(stream) {
            Some(obs) => obs.record(at, bytes, every, schema, tuples),
            None => {
                let mut obs = StreamObservation {
                    window: RateWindow::new(self.cfg.window),
                    sample_clock: 0,
                    schema: None,
                    observers: Vec::new(),
                };
                obs.record(at, bytes, every, schema, tuples);
                self.streams.insert(*stream, obs);
            }
        }
    }

    /// `tuples` tuples totalling `bytes` bytes crossed the overlay link
    /// `from`→`to`.
    pub fn on_link(&mut self, from: NodeId, to: NodeId, tuples: usize, bytes: usize) {
        let (now, span) = (self.now_ms, self.cfg.window);
        let (tuples, bytes) = (tuples as u64, bytes as u64);
        let fresh = || RateWindow::new(span);
        let (low, far) = (from.min(to), from.max(to));
        let low = self.node_mut(low);
        let i = low.link_slot(far).unwrap_or_else(|i| {
            low.links.insert(i, (far, fresh()));
            i
        });
        low.links[i].1.record(now, tuples, bytes);
        let tx = &mut self.node_mut(from).tx;
        tx.get_or_insert_with(fresh).record(now, tuples, bytes);
        let rx = &mut self.node_mut(to).rx;
        rx.get_or_insert_with(fresh).record(now, tuples, bytes);
    }

    fn on_consume(&mut self, node: NodeId, tuples: u64, bytes: u64) {
        let (now, span) = (self.now_ms, self.cfg.window);
        let consumed = &mut self.node_mut(node).consumed;
        consumed
            .get_or_insert_with(|| RateWindow::new(span))
            .record(now, tuples, bytes);
    }

    /// A batch of result tuples reached the user of `qid` at `node`.
    /// Delivery latency is `now − tuple timestamp` in virtual time.
    pub fn on_delivery(&mut self, qid: QueryId, node: NodeId, tuples: &[Tuple]) {
        if tuples.is_empty() {
            return;
        }
        let now = self.now_ms;
        let mut bytes = 0u64;
        let mut lat_sum = 0i64;
        let mut lat_max = 0i64;
        for t in tuples {
            bytes += t.size_bytes() as u64;
            let lat = (now - t.timestamp.millis()).max(0);
            lat_sum += lat;
            lat_max = lat_max.max(lat);
        }
        self.on_consume(node, tuples.len() as u64, bytes);
        let span = self.cfg.window;
        let obs = self.queries.entry(qid).or_insert_with(|| QueryObservation {
            window: RateWindow::new(span),
            latency_sum_ms: 0,
            latency_max_ms: 0,
        });
        obs.window.record(now, tuples.len() as u64, bytes);
        obs.latency_sum_ms += lat_sum;
        obs.latency_max_ms = obs.latency_max_ms.max(lat_max);
    }

    /// A watermark punctuation datagram crossed one overlay link.
    /// Its link bytes are accounted by the accompanying [`MetricsHub::on_link`]
    /// call; this hook keeps the dedicated counters. Punctuations carry
    /// no tuple timestamp, so virtual time does not advance.
    pub fn on_punctuation(&mut self, bytes: usize) {
        self.punctuations += 1;
        self.punctuation_bytes += bytes as u64;
    }

    /// Lifetime punctuation datagrams and bytes disseminated.
    pub fn punctuation_totals(&self) -> (u64, u64) {
        (self.punctuations, self.punctuation_bytes)
    }

    /// The overload controller's `Shed` policy dropped a batch at the
    /// delivery point. Shedding is never silent: the dropped mass lands
    /// in these ledger counters and the conservation oracle checks
    /// published = delivered + shed + staged against them.
    pub fn on_shed(&mut self, tuples: u64, bytes: u64) {
        self.shed_tuples += tuples;
        self.shed_bytes += bytes;
    }

    /// The `Coalesce` policy merged one pending batch into a staged
    /// buffer instead of delivering it immediately.
    pub fn on_coalesce(&mut self) {
        self.coalesced_batches += 1;
    }

    /// A rate-limit datagram crossed one overlay link. Its link bytes
    /// are accounted by the accompanying [`MetricsHub::on_link`] call;
    /// this hook keeps the dedicated counters. Like punctuations,
    /// rate-limits carry no tuple timestamp, so virtual time does not
    /// advance.
    pub fn on_throttle(&mut self, bytes: usize) {
        self.throttles += 1;
        self.throttle_bytes += bytes as u64;
    }

    /// Tuples and bytes consumed at `node` inside the current live
    /// window (deliveries + SPE intake) — the measured side of the
    /// overload controller's per-node budget check.
    pub fn consumed_in_window(&self, node: NodeId) -> (u64, u64) {
        self.consumed(node)
            .map(|w| w.windowed(self.now_ms))
            .unwrap_or((0, 0))
    }

    /// The consumed-bytes window of `node`, if it ever consumed.
    fn consumed(&self, node: NodeId) -> Option<&RateWindow> {
        self.nodes.get(node.index())?.consumed.as_ref()
    }

    /// A batch of tuples was handed to a stream-processing executor at
    /// `node` (in-network operator intake). Counts toward the node's
    /// consumed demand but not toward any query's deliveries.
    pub fn on_spe_intake(&mut self, node: NodeId, tuples: &[Tuple]) {
        if tuples.is_empty() {
            return;
        }
        let bytes: u64 = tuples.iter().map(|t| t.size_bytes() as u64).sum();
        self.on_consume(node, tuples.len() as u64, bytes);
    }

    /// Windowed byte rate consumed at `node` (deliveries + SPE intake):
    /// the measured per-node demand for tree optimization.
    pub fn consumed_byte_rate(&self, node: NodeId) -> f64 {
        self.consumed(node)
            .map(|w| w.byte_rate(self.now_ms))
            .unwrap_or(0.0)
    }

    /// Lifetime bytes consumed at `node` (deliveries + SPE intake) —
    /// the measured side of `cosmos-bound`'s per-node load bound.
    pub fn consumed_bytes_total(&self, node: NodeId) -> u64 {
        self.consumed(node)
            .map(RateWindow::total_bytes)
            .unwrap_or(0)
    }

    /// Lifetime number of tuples delivered to `qid`.
    pub fn delivered_count(&self, qid: QueryId) -> u64 {
        self.queries
            .get(&qid)
            .map(|q| q.window.total_tuples())
            .unwrap_or(0)
    }

    /// Lifetime sum of bytes over all links — must equal the driver's
    /// own `total_bytes()` accounting (the conservation oracle).
    pub fn link_bytes_total(&self) -> u64 {
        self.links().map(|(_, _, w)| w.total_bytes()).sum()
    }

    /// Lifetime bytes over the link `a - b` (either order).
    pub fn link_bytes(&self, a: NodeId, b: NodeId) -> u64 {
        let (low, far) = (a.min(b), a.max(b));
        let Some(low) = self.nodes.get(low.index()) else {
            return 0;
        };
        low.link_slot(far)
            .map_or(0, |i| low.links[i].1.total_bytes())
    }

    /// Every link's window as `(lower end, higher end, window)`, in
    /// `(lower end, higher end)` order.
    fn links(&self) -> impl Iterator<Item = (NodeId, NodeId, &RateWindow)> {
        self.nodes.iter().enumerate().flat_map(|(i, n)| {
            let low = NodeId(i as u32);
            n.links.iter().map(move |(far, w)| (low, *far, w))
        })
    }

    /// View the hub through the measured-stats adapter.
    pub fn measured(&self) -> MeasuredStats<'_> {
        MeasuredStats { hub: self }
    }

    /// Assemble a deterministic, serializable snapshot. Router totals
    /// are aggregated by the caller (the driver owns the routers).
    pub fn snapshot(&self, router: RouterTotals) -> MetricsSnapshot {
        let now = self.now_ms;
        let links: Vec<LinkMetrics> = self
            .links()
            .map(|(a, b, w)| LinkMetrics {
                a,
                b,
                tuples: w.total_tuples(),
                bytes: w.total_bytes(),
                tuple_rate: w.tuple_rate(now),
                byte_rate: w.byte_rate(now),
            })
            .collect();

        let zero = RateWindow::new(self.cfg.window);
        let nodes: Vec<NodeMetrics> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, w)| w.tx.is_some() || w.rx.is_some() || w.consumed.is_some())
            .map(|(i, w)| {
                let tx = w.tx.as_ref().unwrap_or(&zero);
                let rx = w.rx.as_ref().unwrap_or(&zero);
                let co = w.consumed.as_ref().unwrap_or(&zero);
                NodeMetrics {
                    node: NodeId(i as u32),
                    tx_tuples: tx.total_tuples(),
                    tx_bytes: tx.total_bytes(),
                    tx_byte_rate: tx.byte_rate(now),
                    rx_tuples: rx.total_tuples(),
                    rx_bytes: rx.total_bytes(),
                    rx_byte_rate: rx.byte_rate(now),
                    consumed_tuples: co.total_tuples(),
                    consumed_bytes: co.total_bytes(),
                    consumed_byte_rate: co.byte_rate(now),
                }
            })
            .collect();

        let streams: Vec<StreamMetrics> = self
            .streams
            .iter()
            .map(|(name, obs)| {
                let mut attrs: Vec<AttrMetrics> = obs
                    .observed_attrs()
                    .filter_map(|(attr, o)| {
                        o.attr_stats().map(|s| AttrMetrics {
                            name: attr.to_string(),
                            samples: o.samples(),
                            min: s.min,
                            max: s.max,
                            distinct: s.distinct,
                        })
                    })
                    .collect();
                attrs.sort_by(|x, y| x.name.cmp(&y.name));
                StreamMetrics {
                    stream: name.as_str().to_string(),
                    tuples: obs.window.total_tuples(),
                    bytes: obs.window.total_bytes(),
                    tuple_rate: obs.window.tuple_rate(now),
                    byte_rate: obs.window.byte_rate(now),
                    attrs,
                }
            })
            .collect();

        let queries: Vec<QueryMetrics> = self
            .queries
            .iter()
            .map(|(&qid, obs)| {
                let n = obs.window.total_tuples();
                QueryMetrics {
                    query: qid,
                    delivered_tuples: n,
                    delivered_bytes: obs.window.total_bytes(),
                    delivery_rate: obs.window.tuple_rate(now),
                    latency_avg_ms: if n == 0 {
                        0.0
                    } else {
                        obs.latency_sum_ms as f64 / n as f64
                    },
                    latency_max_ms: obs.latency_max_ms,
                }
            })
            .collect();

        MetricsSnapshot {
            version: METRICS_VERSION,
            now_ms: now,
            links,
            nodes,
            streams,
            queries,
            router,
            punctuations: self.punctuations,
            punctuation_bytes: self.punctuation_bytes,
            shed_tuples: self.shed_tuples,
            shed_bytes: self.shed_bytes,
            coalesced_batches: self.coalesced_batches,
            throttles: self.throttles,
            throttle_bytes: self.throttle_bytes,
        }
    }
}

/// Adapter turning window aggregates back into the optimizer's
/// [`StreamStats`]/[`StatsCatalog`] vocabulary — the "measured" side of
/// the registration-time-estimate vs runtime-observation comparison.
pub struct MeasuredStats<'a> {
    hub: &'a MetricsHub,
}

impl MeasuredStats<'_> {
    /// Observed arrival rate of `stream`, if any tuples were seen.
    pub fn stream_rate(&self, stream: &StreamName) -> Option<f64> {
        let obs = self.hub.streams.get(stream)?;
        if obs.window.total_tuples() == 0 {
            return None;
        }
        Some(obs.window.tuple_rate(self.hub.now_ms))
    }

    /// Observed [`StreamStats`] for `stream`, overlaid on `base`: the
    /// measured rate always wins; attribute stats are replaced where the
    /// samplers saw values and inherited from `base` otherwise.
    /// `None` until the stream has been observed at all.
    pub fn stream_stats(
        &self,
        stream: &StreamName,
        base: Option<&StreamStats>,
    ) -> Option<StreamStats> {
        let rate = self.stream_rate(stream)?;
        let obs = self.hub.streams.get(stream)?;
        let mut out = base.cloned().unwrap_or_default();
        out.rate = rate;
        for (name, o) in obs.observed_attrs() {
            if let Some(s) = o.attr_stats() {
                out.attrs.insert(name.to_string(), s);
            }
        }
        Some(out)
    }

    /// A full catalog: `base` with every observed stream's stats
    /// replaced by measurements. Streams never observed keep their
    /// registered estimates.
    pub fn catalog(&self, base: &StatsCatalog) -> StatsCatalog {
        let mut out = StatsCatalog::new();
        for s in base.streams() {
            let Some(schema) = base.schema(s) else {
                continue;
            };
            let stats = self
                .stream_stats(s, base.stats(s))
                .or_else(|| base.stats(s).cloned())
                .unwrap_or_default();
            out.register(*s, schema.clone(), stats);
        }
        out
    }
}

/// Relative drift between a measured and an estimated quantity.
pub fn relative_drift(measured: f64, estimated: f64) -> f64 {
    (measured - estimated).abs() / estimated.abs().max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_types::{AttrType, Field, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("id", AttrType::Int),
            Field::new("temp", AttrType::Float),
        ])
        .expect("valid schema")
    }

    fn tuple(ms: i64, id: i64, temp: f64) -> Tuple {
        Tuple::new("s", Timestamp(ms), vec![Value::Int(id), Value::Float(temp)])
    }

    #[test]
    fn publish_observation_feeds_measured_stats() {
        let mut hub = MetricsHub::new(MetricsConfig {
            sample_every: 1,
            ..MetricsConfig::default()
        });
        let s = StreamName::new("s");
        let sch = schema();
        // 4 tuples/sec for 10 seconds.
        for i in 0..40i64 {
            hub.on_publish(&s, &sch, &[tuple(i * 250, i % 5, i as f64)]);
        }
        let measured = hub.measured();
        let rate = measured.stream_rate(&s).expect("observed");
        assert!((rate - 4.0).abs() < 0.5, "rate {rate}");
        let stats = measured.stream_stats(&s, None).expect("observed");
        let id = &stats.attrs["id"];
        assert_eq!(id.distinct as i64, 5);
        let temp = &stats.attrs["temp"];
        assert_eq!(temp.min, 0.0);
        assert_eq!(temp.max, 39.0);
    }

    #[test]
    fn measured_catalog_overlays_base_and_keeps_unobserved() {
        let mut hub = MetricsHub::new(MetricsConfig::default());
        let mut base = StatsCatalog::new();
        base.register("s", schema(), StreamStats::with_rate(0.1));
        base.register("quiet", schema(), StreamStats::with_rate(7.0));
        let s = StreamName::new("s");
        let sch = schema();
        for i in 0..40i64 {
            hub.on_publish(&s, &sch, &[tuple(i * 250, i, 0.0)]);
        }
        let cat = hub.measured().catalog(&base);
        assert!(cat.stats(&s).unwrap().rate > 3.0, "measured rate adopted");
        let quiet = StreamName::new("quiet");
        assert_eq!(cat.stats(&quiet).unwrap().rate, 7.0, "estimate kept");
    }

    #[test]
    fn delivery_latency_and_conservation_counters() {
        let mut hub = MetricsHub::new(MetricsConfig::default());
        hub.advance(Timestamp(1_000));
        let batch = [tuple(400, 1, 1.0), tuple(900, 2, 2.0)];
        hub.on_link(NodeId(0), NodeId(1), 2, 56);
        hub.on_delivery(QueryId(7), NodeId(1), &batch);
        assert_eq!(hub.delivered_count(QueryId(7)), 2);
        assert_eq!(hub.link_bytes_total(), 56);
        let snap = hub.snapshot(RouterTotals::default());
        let q = &snap.queries[0];
        assert_eq!(q.query, QueryId(7));
        assert_eq!(q.latency_max_ms, 600);
        assert!((q.latency_avg_ms - 350.0).abs() < 1e-9);
        assert!(hub.consumed_byte_rate(NodeId(1)) > 0.0);
        assert_eq!(hub.consumed_byte_rate(NodeId(0)), 0.0);
        let batch_bytes: u64 = batch.iter().map(|t| t.size_bytes() as u64).sum();
        assert_eq!(hub.consumed_bytes_total(NodeId(1)), batch_bytes);
        assert_eq!(hub.consumed_bytes_total(NodeId(0)), 0);
        hub.on_spe_intake(NodeId(1), &batch);
        assert_eq!(hub.consumed_bytes_total(NodeId(1)), 2 * batch_bytes);
    }

    /// The node tables (and the links kept in them) report what the
    /// ordered maps they replaced reported: sparse node ids fed out of
    /// order, across a window boundary, links fed in both directions,
    /// one inserted before a lower end's existing links and one whose
    /// lower end lies beyond the table, snapshot to the JSON the
    /// map-based hub produced for the same calls (the fixture).
    #[test]
    fn node_tables_snapshot_like_the_ordered_maps_did() {
        let mut hub = MetricsHub::new(MetricsConfig::default());
        hub.advance(Timestamp(5_000));
        hub.on_link(NodeId(9), NodeId(2), 3, 120);
        hub.on_spe_intake(NodeId(40), &[tuple(4_000, 1, 1.0)]);
        hub.on_delivery(
            QueryId(3),
            NodeId(17),
            &[tuple(1_000, 2, 2.0), tuple(4_500, 3, 3.0)],
        );
        hub.on_link(NodeId(2), NodeId(33), 1, 40);
        hub.on_spe_intake(NodeId(5), &[]);
        hub.advance(Timestamp(70_000));
        hub.on_link(NodeId(0), NodeId(9), 2, 80);
        hub.on_delivery(QueryId(1), NodeId(2), &[tuple(69_000, 4, 4.0)]);
        hub.on_spe_intake(NodeId(17), &[tuple(70_000, 5, 5.0), tuple(70_000, 6, 6.0)]);
        hub.on_link(NodeId(33), NodeId(2), 0, 19);
        hub.on_link(NodeId(9), NodeId(0), 1, 30);
        hub.on_link(NodeId(5), NodeId(2), 1, 25);
        hub.on_link(NodeId(57), NodeId(52), 4, 160);
        let json = hub.snapshot(RouterTotals::default()).to_json().unwrap();
        assert_eq!(
            json,
            include_str!("../tests/fixtures/sparse_nodes.snapshot.json").trim_end()
        );
        let snap = hub.snapshot(RouterTotals::default());
        let nodes: Vec<u32> = snap.nodes.iter().map(|n| n.node.raw()).collect();
        assert_eq!(
            nodes,
            [0, 2, 5, 9, 17, 33, 40, 52, 57],
            "only nodes that were fed"
        );
        let links: Vec<(u32, u32)> = snap.links.iter().map(|l| (l.a.raw(), l.b.raw())).collect();
        assert_eq!(links, [(0, 9), (2, 5), (2, 9), (2, 33), (52, 57)]);
        assert_eq!(hub.link_bytes(NodeId(0), NodeId(9)), 110, "both directions");
        assert_eq!(hub.link_bytes(NodeId(33), NodeId(2)), 59);
        assert_eq!(hub.link_bytes(NodeId(52), NodeId(57)), 160);
        assert_eq!(hub.link_bytes(NodeId(2), NodeId(17)), 0, "never fed");
        assert_eq!(
            hub.link_bytes(NodeId(90), NodeId(91)),
            0,
            "beyond the table"
        );
        assert_eq!(hub.link_bytes_total(), 120 + 40 + 80 + 19 + 30 + 25 + 160);
        assert_eq!(hub.consumed_in_window(NodeId(40)), (0, 0), "slid out");
        assert_eq!(hub.consumed_in_window(NodeId(17)).0, 2);
        assert_eq!(hub.consumed_bytes_total(NodeId(99)), 0, "beyond the table");
    }

    #[test]
    fn snapshot_is_sorted_and_roundtrips() {
        let mut hub = MetricsHub::new(MetricsConfig::default());
        let sch = schema();
        hub.on_publish(&StreamName::new("zeta"), &sch, &[tuple(0, 1, 1.0)]);
        hub.on_publish(&StreamName::new("alpha"), &sch, &[tuple(10, 2, 2.0)]);
        hub.on_link(NodeId(3), NodeId(1), 1, 10);
        hub.on_link(NodeId(0), NodeId(2), 1, 10);
        let snap = hub.snapshot(RouterTotals::default());
        assert_eq!(snap.streams[0].stream, "alpha");
        assert_eq!(snap.links[0].a, NodeId(0));
        let json = snap.to_json().expect("serialize");
        let back = MetricsSnapshot::from_json(&json).expect("parse");
        assert_eq!(back.streams.len(), 2);
        assert_eq!(back.links.len(), 2);
    }
}
