//! The bound-soundness oracle: measured runtime metrics must be
//! dominated by `cosmos-bound`'s static bounds.
//!
//! `cosmos-bound` (PR 6) claims its closed-form bounds are sound
//! against the executor's actual retention policy. This module re-checks
//! that claim on every scenario run by instantiating the formulas with
//! the **observed trace envelope** — every accepted publish is recorded
//! as an arrival, so `N`/`W`/`B` are exact properties of the input the
//! system actually saw — and comparing three measured families after
//! every event:
//!
//! * **delivered rows** — the metrics hub's `delivered_count` (the hub
//!   is [`cosmos::Cosmos::metrics_hub`]) per query against the query's
//!   `output_rows` bound;
//! * **per-node consumed bytes** — the hub's `consumed_bytes_total`
//!   against the sum of `output_bytes` over queries whose user lives on
//!   the node plus `intake_bytes` over queries whose representative the
//!   node has ever hosted (processor sets only grow: a moved executor's
//!   historic intake stays covered);
//! * **executor state** — every live representative's measured
//!   [`cosmos_spe::StateSize`] ([`cosmos::Cosmos::rep_states`]) against
//!   the per-component row bounds of the *representative's own* query.
//!
//! All three bounds are monotone in the envelope and the measurements
//! are lifetime counters or current occupancies, so an any-time check
//! after each event is valid — and strictly stronger than an end-of-run
//! check, because transient occupancy peaks are caught too.

use crate::run::QueryRun;
use cosmos::Cosmos;
use cosmos_bound::{query_bounds, Bound, Envelope, QueryBounds};
use cosmos_types::{NodeId, QueryId, TimeDelta, Tuple};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// One measured-vs-static comparison, serializable for the
/// `cosmos-sim bounds` report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BoundReportEntry {
    /// What was measured (`query #3 delivered rows`, `node 5 consumed
    /// bytes`, `rep 'result::…' join-buffer rows`).
    pub subject: String,
    /// The measured value.
    pub measured: f64,
    /// The static bound (`None` when no finite bound is derivable —
    /// which dominates every measurement).
    pub bound: Option<f64>,
    /// Whether the bound dominates the measurement.
    pub ok: bool,
}

impl BoundReportEntry {
    fn new(subject: String, measured: f64, bound: Bound) -> BoundReportEntry {
        BoundReportEntry {
            subject,
            measured,
            bound: bound.as_finite(),
            ok: bound.dominates(measured),
        }
    }

    /// Render a failing entry as an oracle violation line.
    fn violation(&self) -> String {
        format!(
            "{}: measured {} exceeds static bound {}",
            self.subject,
            self.measured,
            match self.bound {
                Some(b) => b.to_string(),
                None => "∞".into(),
            }
        )
    }
}

/// Accumulates the observed trace envelope and per-query placement, and
/// checks the three measured families against the static bounds.
#[derive(Debug)]
pub struct BoundTracker {
    env: Envelope,
    /// Deployment size (node ids are `0..nodes`).
    nodes: u32,
    /// Node each accepted query's user subscribed at.
    users: BTreeMap<QueryId, NodeId>,
    /// Every processor ever observed hosting the query's representative.
    procs: BTreeMap<QueryId, BTreeSet<NodeId>>,
    /// Watermark lag of a disordered run, doubling as the envelope's
    /// reorder slack (`None` in order).
    disorder_bound: Option<TimeDelta>,
}

impl BoundTracker {
    /// A fresh tracker (empty envelope: everything unbounded until the
    /// first publish).
    pub fn new(nodes: u32) -> BoundTracker {
        BoundTracker {
            env: Envelope::new(),
            nodes,
            users: BTreeMap::new(),
            procs: BTreeMap::new(),
            disorder_bound: None,
        }
    }

    /// Arm the tracker for a disordered run: `bound` is the watermark
    /// lag (= revision grace). It becomes the envelope's *reorder slack*
    /// — disordered traces are evaluated in sorted order (the staged
    /// executor's processing order) and every window is widened by the
    /// slack to cover grace retention — and bounds the staging area:
    /// staged tuples span at most `(frontier, high-water]`, a band of
    /// width `bound`, so `window_rows(stream, bound)` dominates each
    /// input stream's contribution.
    pub fn set_disorder_bound(&mut self, bound: Option<TimeDelta>) {
        self.disorder_bound = bound;
        self.env.set_reorder_slack(bound);
    }

    /// Record one accepted publish as a trace arrival.
    pub fn on_publish(&mut self, t: &Tuple) {
        self.env
            .record(&t.stream, t.timestamp.millis(), t.size_bytes());
    }

    /// Record an accepted submission's user placement.
    pub fn on_submit(&mut self, qid: QueryId, user: NodeId) {
        self.users.insert(qid, user);
        self.procs.entry(qid).or_default();
    }

    /// Refresh every live query's processor set (called after each
    /// event; sets only grow, so historic intake stays covered after a
    /// representative moves or a query withdraws).
    pub fn observe_processors(&mut self, sys: &Cosmos, queries: &[QueryRun]) {
        for q in queries {
            if let Some(p) = sys.processor_of(q.qid) {
                self.procs.entry(q.qid).or_default().insert(p);
            }
        }
    }

    /// The observed trace envelope.
    pub fn envelope(&self) -> &Envelope {
        &self.env
    }

    /// Compare every measured family against its static bound. Entries
    /// with `ok: false` are soundness violations.
    pub fn assess(&self, sys: &Cosmos, queries: &[QueryRun]) -> Vec<BoundReportEntry> {
        let hub = sys.metrics_hub();
        let bounds: Vec<QueryBounds> = queries
            .iter()
            .map(|q| query_bounds(&q.analyzed, &self.env))
            .collect();
        let mut out = Vec::new();

        // Delivered rows per query (lifetime, survives withdrawal).
        for (q, b) in queries.iter().zip(&bounds) {
            out.push(BoundReportEntry::new(
                format!("query #{} delivered rows", q.label),
                hub.delivered_count(q.qid) as f64,
                b.output_rows,
            ));
        }

        // Consumed bytes per node: deliveries to resident users plus
        // intake of every representative the node ever hosted.
        for i in 0..self.nodes {
            let n = NodeId(i);
            let measured = hub.consumed_bytes_total(n) as f64;
            let mut bound = Bound::ZERO;
            for (q, b) in queries.iter().zip(&bounds) {
                if self.users.get(&q.qid) == Some(&n) {
                    bound = bound + b.output_bytes;
                }
                if self.procs.get(&q.qid).is_some_and(|ps| ps.contains(&n)) {
                    bound = bound + b.intake_bytes;
                }
            }
            if measured == 0.0 && bound == Bound::ZERO {
                continue;
            }
            out.push(BoundReportEntry::new(
                format!("node {i} consumed bytes"),
                measured,
                bound,
            ));
        }

        // Retained state per live representative executor, component by
        // component, against the representative's own bounds.
        for v in sys.rep_states() {
            let b = query_bounds(v.query, &self.env);
            for (component, measured, bound) in [
                ("join-buffer", v.state.buffer_rows, b.buffer_rows),
                ("agg-window", v.state.agg_window_rows, b.agg_window_rows),
                ("group-table", v.state.group_rows, b.group_rows),
                ("distinct-set", v.state.distinct_rows, b.distinct_rows),
            ] {
                if measured == 0 && bound == Bound::ZERO {
                    continue;
                }
                out.push(BoundReportEntry::new(
                    format!(
                        "rep '{}' @ node {} {component} rows",
                        v.result_stream,
                        v.processor.index()
                    ),
                    measured as f64,
                    bound,
                ));
            }
            if let Some(db) = self.disorder_bound {
                let mut staging_bound = Bound::ZERO;
                for b in &v.query.streams {
                    staging_bound = staging_bound + self.env.window_rows(&b.stream, db);
                }
                if v.state.staging_rows != 0 || staging_bound != Bound::ZERO {
                    out.push(BoundReportEntry::new(
                        format!(
                            "rep '{}' @ node {} staging rows",
                            v.result_stream,
                            v.processor.index()
                        ),
                        v.state.staging_rows as f64,
                        staging_bound,
                    ));
                }
            }
        }
        out
    }

    /// The violations among [`BoundTracker::assess`], rendered.
    pub fn check(&self, sys: &Cosmos, queries: &[QueryRun]) -> Vec<String> {
        self.assess(sys, queries)
            .into_iter()
            .filter(|e| !e.ok)
            .map(|e| e.violation())
            .collect()
    }
}
