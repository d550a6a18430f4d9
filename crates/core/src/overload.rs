//! Per-node overload control: bounded delivery budgets, accounted load
//! shedding, coalescing, and upstream throttling.
//!
//! Every node gets an intake *budget* — bytes or tuples per metrics
//! rate window. The controller is data-plane state: it sits on the
//! single delivery point of the dissemination loop (the data plane's
//! `deliver_local`; the crossing to the query plane and the loop's
//! watermark hops deliver to no user), so a user delivery that would
//! push the node's measured in-window intake past its budget is
//! intercepted *before* it lands in the delivery buffer and handled by
//! a deterministic per-query [`OverloadPolicy`]:
//!
//! * [`Shed`](OverloadPolicy::Shed) — drop the batch, counted
//!   tuple- and byte-exact in the query's [`QueryLedger`] (never
//!   silent: the conservation identity below is checked by
//!   cosmos-testkit after every event);
//! * [`Coalesce`](OverloadPolicy::Coalesce) — merge the batch into the
//!   query's single pending batch and deliver the merged batch once
//!   the node is back under budget (or at the query's withdrawal, or
//!   at stream closure);
//! * [`Throttle`](OverloadPolicy::Throttle) — shed like `Shed` and
//!   additionally send a [`RateLimit`] datagram reverse along the
//!   stream's dissemination tree toward its origin, a hop of the same
//!   loop's queue, link-byte accounted like a watermark punctuation,
//!   at most once per `(node, stream)` per rate window.
//!
//! The controller maintains, per query, the **conservation identity**
//!
//! ```text
//! offered == delivered + shed + staged        (tuples AND bytes)
//! ```
//!
//! where `offered` counts every batch the routing layer handed to the
//! user subscription, `delivered` what reached the delivery buffer,
//! `shed` what the Shed/Throttle policies dropped, and `staged` what
//! Coalesce is currently holding. Budget decisions read only the
//! metrics hub's virtual-time windows, so replays of the same scenario
//! reproduce identical shed decisions bit for bit.
//!
//! [`RateLimit`]: cosmos_types::RateLimit

use cosmos_types::{NodeId, QueryId, RateLimit, StreamName, Tuple};
use std::collections::BTreeMap;

/// An intake budget per metrics rate window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// At most this many bytes of user delivery per window.
    Bytes(u64),
    /// At most this many tuples of user delivery per window.
    Tuples(u64),
}

impl Budget {
    /// A budget no realizable window can exceed.
    pub const UNLIMITED: Budget = Budget::Bytes(u64::MAX);

    /// Would accepting a `(batch_tuples, batch_bytes)` batch on top of
    /// the measured `(in_tuples, in_bytes)` window occupancy cross the
    /// budget?
    pub fn exceeded_by(&self, in_window: (u64, u64), batch: (u64, u64)) -> bool {
        match *self {
            Budget::Bytes(b) => in_window.1.saturating_add(batch.1) > b,
            Budget::Tuples(n) => in_window.0.saturating_add(batch.0) > n,
        }
    }
}

/// What to do with a delivery that would cross the node's budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// Drop the batch, ledger-accounted (the default).
    #[default]
    Shed,
    /// Merge the batch into the query's pending batch; deliver merged
    /// once under budget again (or at stream closure).
    Coalesce,
    /// Shed the batch and notify the stream's origin with a
    /// [`RateLimit`] datagram routed along the dissemination tree.
    Throttle,
}

/// Deployment-wide overload configuration.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OverloadConfig {
    /// Intake budget of every node.
    pub budget: Budget,
    /// Default policy for every query.
    pub policy: OverloadPolicy,
    /// Per-query overrides of `policy`.
    pub query_policies: BTreeMap<QueryId, OverloadPolicy>,
}

impl Default for Budget {
    fn default() -> Budget {
        Budget::UNLIMITED
    }
}

impl OverloadConfig {
    /// A uniform bytes-per-window budget for every node, default
    /// (Shed) policy.
    pub fn uniform_bytes(budget: u64) -> OverloadConfig {
        OverloadConfig {
            budget: Budget::Bytes(budget),
            ..OverloadConfig::default()
        }
    }

    /// The policy in force for `qid`.
    pub fn policy_for(&self, qid: QueryId) -> OverloadPolicy {
        self.query_policies
            .get(&qid)
            .copied()
            .unwrap_or(self.policy)
    }
}

/// Per-query conservation ledger (see the module docs for the
/// identity it maintains). `staged` is a gauge — it moves to
/// `delivered` when a pending Coalesce batch drains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryLedger {
    /// Tuples the routing layer offered to the user subscription.
    pub offered_tuples: u64,
    /// Bytes offered.
    pub offered_bytes: u64,
    /// Tuples that reached the delivery buffer.
    pub delivered_tuples: u64,
    /// Bytes delivered.
    pub delivered_bytes: u64,
    /// Tuples dropped by the Shed/Throttle policies.
    pub shed_tuples: u64,
    /// Bytes shed.
    pub shed_bytes: u64,
    /// Tuples currently pending in the Coalesce batch.
    pub staged_tuples: u64,
    /// Bytes staged.
    pub staged_bytes: u64,
}

impl QueryLedger {
    /// `offered == delivered + shed + staged`, tuple- and byte-exact.
    pub fn conserved(&self) -> bool {
        self.offered_tuples == self.delivered_tuples + self.shed_tuples + self.staged_tuples
            && self.offered_bytes == self.delivered_bytes + self.shed_bytes + self.staged_bytes
    }
}

/// The controller's verdict on one offered batch. The driver maps each
/// variant onto delivery-buffer and metrics-hub effects.
#[derive(Debug)]
pub enum Action {
    /// Deliver `tuples` (the offered batch, preceded by any drained
    /// pending batch). `drained` is true when a pending Coalesce batch
    /// rode along.
    Deliver { tuples: Vec<Tuple>, drained: bool },
    /// The batch was staged into the query's pending batch;
    /// `coalesced` is true when it merged into an existing one.
    Stage { coalesced: bool },
    /// The batch was shed (`tuples`/`bytes` give its exact size).
    Shed { tuples: u64, bytes: u64 },
    /// The batch was shed and, when `limit` is set, the origin should
    /// be notified along the reverse tree path (at most one notice per
    /// `(node, stream)` per window, deduplicated here).
    Throttle {
        tuples: u64,
        bytes: u64,
        limit: Option<RateLimit>,
    },
}

/// The per-deployment overload controller (one per [`Cosmos`], armed
/// with [`Cosmos::set_overload`]).
///
/// [`Cosmos`]: crate::Cosmos
/// [`Cosmos::set_overload`]: crate::Cosmos::set_overload
#[derive(Debug)]
pub struct OverloadController {
    cfg: OverloadConfig,
    ledgers: BTreeMap<QueryId, QueryLedger>,
    /// Pending Coalesce batch per query.
    staged: BTreeMap<QueryId, Vec<Tuple>>,
    /// Per-node high-water mark: the largest in-window intake (bytes)
    /// any *admitted* delivery left behind, counting the admitted
    /// batch itself.
    high_water: BTreeMap<NodeId, u64>,
    /// Rate-window index of the last [`RateLimit`] emitted per
    /// `(node, stream)`.
    throttled_window: BTreeMap<(NodeId, StreamName), i64>,
    /// Rate-limit notices that reached a stream's origin (advisory in
    /// this build; see `cosmos_types::RateLimit`).
    received: Vec<RateLimit>,
}

fn batch_size(tuples: &[Tuple]) -> (u64, u64) {
    (
        tuples.len() as u64,
        tuples.iter().map(|t| t.size_bytes() as u64).sum(),
    )
}

impl OverloadController {
    /// A controller enforcing `cfg`.
    pub fn new(cfg: OverloadConfig) -> OverloadController {
        OverloadController {
            cfg,
            ledgers: BTreeMap::new(),
            staged: BTreeMap::new(),
            high_water: BTreeMap::new(),
            throttled_window: BTreeMap::new(),
            received: Vec::new(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &OverloadConfig {
        &self.cfg
    }

    /// Decide what happens to a batch offered to `qid`'s user
    /// subscription at `node`. `in_window` is the node's measured
    /// `(tuples, bytes)` intake in the live rate window (the metrics
    /// hub's `consumed_in_window`), `window_index` the current window's
    /// ordinal (for throttle deduplication). Deterministic: the verdict
    /// is a pure function of controller state and the two measurements.
    pub fn admit(
        &mut self,
        node: NodeId,
        qid: QueryId,
        tuples: Vec<Tuple>,
        in_window: (u64, u64),
        window_index: i64,
    ) -> Action {
        let batch = batch_size(&tuples);
        let ledger = self.ledgers.entry(qid).or_default();
        ledger.offered_tuples += batch.0;
        ledger.offered_bytes += batch.1;
        let budget = self.cfg.budget;
        let hw = self.high_water.entry(node).or_insert(0);
        if !budget.exceeded_by(in_window, batch) {
            // Under budget. Drain the pending Coalesce batch along when
            // the combined mass still fits; otherwise keep coalescing
            // so the window stays bounded (closure drains the rest).
            let pending = self
                .staged
                .get(&qid)
                .map(|p| batch_size(p))
                .unwrap_or((0, 0));
            let combined = (batch.0 + pending.0, batch.1 + pending.1);
            if pending.0 > 0 && budget.exceeded_by(in_window, combined) {
                ledger.staged_tuples += batch.0;
                ledger.staged_bytes += batch.1;
                self.staged.entry(qid).or_default().extend(tuples);
                return Action::Stage { coalesced: true };
            }
            ledger.delivered_tuples += combined.0;
            ledger.delivered_bytes += combined.1;
            ledger.staged_tuples -= pending.0;
            ledger.staged_bytes -= pending.1;
            *hw = (*hw).max(in_window.1 + combined.1);
            let drained = pending.0 > 0;
            let mut out = self.staged.remove(&qid).unwrap_or_default();
            out.extend(tuples);
            return Action::Deliver {
                tuples: out,
                drained,
            };
        }
        match self.cfg.policy_for(qid) {
            OverloadPolicy::Shed => {
                ledger.shed_tuples += batch.0;
                ledger.shed_bytes += batch.1;
                Action::Shed {
                    tuples: batch.0,
                    bytes: batch.1,
                }
            }
            OverloadPolicy::Coalesce => {
                ledger.staged_tuples += batch.0;
                ledger.staged_bytes += batch.1;
                let slot = self.staged.entry(qid).or_default();
                let coalesced = !slot.is_empty();
                slot.extend(tuples);
                Action::Stage { coalesced }
            }
            OverloadPolicy::Throttle => {
                ledger.shed_tuples += batch.0;
                ledger.shed_bytes += batch.1;
                let stream = tuples
                    .first()
                    .map(|t| t.stream)
                    .unwrap_or_else(|| StreamName::from(""));
                let key = (node, stream);
                let limit = if self.throttled_window.get(&key) != Some(&window_index) {
                    self.throttled_window.insert(key, window_index);
                    let budget_bytes = match budget {
                        Budget::Bytes(b) => b,
                        // Tuple budgets travel scaled by the rejected
                        // batch's mean tuple size.
                        Budget::Tuples(n) => n.saturating_mul(batch.1 / batch.0.max(1)),
                    };
                    Some(RateLimit::new(stream, node, budget_bytes))
                } else {
                    None
                };
                Action::Throttle {
                    tuples: batch.0,
                    bytes: batch.1,
                    limit,
                }
            }
        }
    }

    /// Drain one query's pending Coalesce batch unconditionally (the
    /// query is being withdrawn): the batch moves to `delivered` and is
    /// returned for the driver to append to the delivery buffer. Empty
    /// when nothing is pending.
    pub(crate) fn drain_query(&mut self, qid: QueryId) -> Vec<Tuple> {
        let tuples = self.staged.remove(&qid).unwrap_or_default();
        let (t, b) = batch_size(&tuples);
        if t > 0 {
            let ledger = self.ledgers.entry(qid).or_default();
            ledger.staged_tuples -= t;
            ledger.staged_bytes -= b;
            ledger.delivered_tuples += t;
            ledger.delivered_bytes += b;
        }
        tuples
    }

    /// Drain every query with a pending Coalesce batch (stream closure,
    /// controller disarm), in query order: each batch moves to
    /// `delivered` and is returned with its query.
    pub fn drain_all(&mut self) -> Vec<(QueryId, Vec<Tuple>)> {
        let pending: Vec<QueryId> = self.staged.keys().copied().collect();
        pending
            .into_iter()
            .map(|qid| (qid, self.drain_query(qid)))
            .collect()
    }

    /// Record a rate-limit notice that reached its stream's origin.
    pub fn record_received(&mut self, limit: RateLimit) {
        self.received.push(limit);
    }

    /// Rate-limit notices recorded at stream origins, in arrival order.
    pub fn received(&self) -> &[RateLimit] {
        &self.received
    }

    /// A query's ledger (zero for queries never offered a batch).
    pub fn ledger(&self, qid: QueryId) -> QueryLedger {
        self.ledgers.get(&qid).copied().unwrap_or_default()
    }

    /// All per-query ledgers, in query order.
    pub fn ledgers(&self) -> &BTreeMap<QueryId, QueryLedger> {
        &self.ledgers
    }

    /// A node's delivery high-water mark: the largest in-window intake
    /// (bytes, admitted batch included) any *admitted* delivery left
    /// behind. Deliveries are admitted only when they fit, so with a
    /// `Bytes` budget this never exceeds the budget — the bounded-
    /// buffer guarantee of the overload scenario.
    pub fn high_water(&self, node: NodeId) -> u64 {
        self.high_water.get(&node).copied().unwrap_or(0)
    }

    /// Tuples currently staged for a query.
    pub fn staged_len(&self, qid: QueryId) -> usize {
        self.staged.get(&qid).map(Vec::len).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_types::{Timestamp, Value};

    fn tup(ts: i64) -> Tuple {
        Tuple::new("S", Timestamp(ts), vec![Value::Int(ts)])
    }

    fn ctl(budget: Budget, policy: OverloadPolicy) -> OverloadController {
        OverloadController::new(OverloadConfig {
            budget,
            policy,
            ..OverloadConfig::default()
        })
    }

    #[test]
    fn under_budget_delivers_and_conserves() {
        let mut c = ctl(Budget::Tuples(10), OverloadPolicy::Shed);
        let q = QueryId(1);
        match c.admit(NodeId(0), q, vec![tup(1), tup(2)], (0, 0), 0) {
            Action::Deliver { tuples, drained } => {
                assert_eq!(tuples.len(), 2);
                assert!(!drained);
            }
            other => panic!("expected delivery, got {other:?}"),
        }
        let l = c.ledger(q);
        assert!(l.conserved());
        assert_eq!(l.offered_tuples, 2);
        assert_eq!(l.delivered_tuples, 2);
        assert_eq!(l.shed_tuples, 0);
    }

    #[test]
    fn shed_is_ledger_accounted_byte_exact() {
        let mut c = ctl(Budget::Tuples(1), OverloadPolicy::Shed);
        let q = QueryId(1);
        let batch = vec![tup(1), tup(2)];
        let bytes: u64 = batch.iter().map(|t| t.size_bytes() as u64).sum();
        match c.admit(NodeId(0), q, batch, (1, 100), 0) {
            Action::Shed { tuples, bytes: b } => {
                assert_eq!(tuples, 2);
                assert_eq!(b, bytes);
            }
            other => panic!("expected shed, got {other:?}"),
        }
        let l = c.ledger(q);
        assert!(l.conserved());
        assert_eq!(l.shed_tuples, 2);
        assert_eq!(l.shed_bytes, bytes);
        assert_eq!(l.delivered_tuples, 0);
    }

    #[test]
    fn coalesce_stages_then_drains_in_order() {
        let mut c = ctl(Budget::Tuples(3), OverloadPolicy::Coalesce);
        let q = QueryId(1);
        // Window full: two over-budget batches coalesce into one.
        match c.admit(NodeId(0), q, vec![tup(1)], (3, 30), 0) {
            Action::Stage { coalesced } => assert!(!coalesced),
            other => panic!("expected stage, got {other:?}"),
        }
        match c.admit(NodeId(0), q, vec![tup(2)], (3, 30), 0) {
            Action::Stage { coalesced } => assert!(coalesced, "second batch merges"),
            other => panic!("expected stage, got {other:?}"),
        }
        assert_eq!(c.ledger(q).staged_tuples, 2);
        assert!(c.ledger(q).conserved());
        // Window drained: the pending batch (2 tuples) plus the new one
        // fit the 3-tuple budget together, so it rides along, oldest
        // first.
        match c.admit(NodeId(0), q, vec![tup(3)], (0, 0), 1) {
            Action::Deliver { tuples, drained } => {
                assert!(drained);
                let ts: Vec<i64> = tuples.iter().map(|t| t.timestamp.0).collect();
                assert_eq!(ts, vec![1, 2, 3]);
            }
            other => panic!("expected delivery, got {other:?}"),
        }
        let l = c.ledger(q);
        assert!(l.conserved());
        assert_eq!(l.delivered_tuples, 3);
        assert_eq!(l.staged_tuples, 0);
    }

    #[test]
    fn drain_all_moves_staged_to_delivered() {
        let mut c = ctl(Budget::Tuples(0), OverloadPolicy::Coalesce);
        let q = QueryId(7);
        c.admit(NodeId(0), q, vec![tup(1), tup(2)], (5, 50), 0);
        assert_eq!(c.staged_len(q), 2);
        let drained = c.drain_all();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].0, q);
        assert_eq!(drained[0].1.len(), 2);
        let l = c.ledger(q);
        assert!(l.conserved());
        assert_eq!(l.delivered_tuples, 2);
        assert_eq!(c.staged_len(q), 0);
    }

    #[test]
    fn throttle_emits_one_notice_per_window() {
        let mut c = ctl(Budget::Bytes(10), OverloadPolicy::Throttle);
        let q = QueryId(1);
        let lim = match c.admit(NodeId(3), q, vec![tup(1)], (4, 40), 0) {
            Action::Throttle { limit, .. } => limit.expect("first over-budget batch notifies"),
            other => panic!("expected throttle, got {other:?}"),
        };
        assert_eq!(lim.from, NodeId(3));
        assert_eq!(lim.budget_bytes, 10);
        // Same window: deduplicated.
        match c.admit(NodeId(3), q, vec![tup(2)], (4, 40), 0) {
            Action::Throttle { limit, .. } => assert!(limit.is_none()),
            other => panic!("expected throttle, got {other:?}"),
        }
        // Next window: a fresh notice.
        match c.admit(NodeId(3), q, vec![tup(3)], (4, 40), 1) {
            Action::Throttle { limit, .. } => assert!(limit.is_some()),
            other => panic!("expected throttle, got {other:?}"),
        }
        assert!(c.ledger(q).conserved());
        assert_eq!(c.ledger(q).shed_tuples, 3);
    }

    #[test]
    fn high_water_never_exceeds_a_byte_budget() {
        let mut c = ctl(Budget::Bytes(100), OverloadPolicy::Shed);
        let q = QueryId(1);
        for i in 0..20 {
            // Window occupancy sweeps well past the budget; everything
            // over it is shed, so the delivery high-water stays bounded.
            c.admit(NodeId(0), q, vec![tup(i)], (0, (i as u64 * 30).min(300)), 0);
        }
        let hw = c.high_water(NodeId(0));
        assert!(hw > 0, "some deliveries were admitted");
        assert!(hw <= 100, "high water {hw} exceeds the budget");
    }

    #[test]
    fn a_shed_missing_from_the_ledger_breaks_conservation() {
        let mut c = ctl(Budget::Tuples(0), OverloadPolicy::Shed);
        let q = QueryId(1);
        c.admit(NodeId(0), q, vec![tup(1)], (1, 10), 0);
        let honest = c.ledger(q);
        assert!(honest.conserved());
        assert_eq!((honest.offered_tuples, honest.shed_tuples), (1, 1));
        // What a shed that skipped its ledger entry would leave behind.
        let leaky = QueryLedger {
            shed_tuples: 0,
            shed_bytes: 0,
            ..honest
        };
        assert!(!leaky.conserved(), "the leak must be observable");
    }
}
