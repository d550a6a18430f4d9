//! Per-node overload control: a bounded delivery budget whose
//! over-budget batches are shed, ledger-exact.
//!
//! Every node gets the same intake *budget* — bytes per 60 s
//! virtual-time window (the metrics hub's). The controller is data-plane
//! state: it sits on the single delivery point of the dissemination loop
//! (the data plane's `deliver_local`; the crossing to the query plane and
//! the loop's watermark hops deliver to no user), so a user delivery
//! that would push the node's measured in-window intake past its budget
//! is shed *before* it lands in the delivery buffer. Shedding is never
//! silent: the dropped batch is counted tuple- and byte-exact in the
//! query's [`QueryLedger`], which maintains the **conservation identity**
//!
//! ```text
//! offered == delivered + shed        (tuples AND bytes)
//! ```
//!
//! where `offered` counts every batch the routing layer handed to the
//! user subscription, `delivered` what reached the delivery buffer and
//! `shed` what the gate dropped (cosmos-testkit checks the identity
//! after every event). Budget decisions read only the metrics hub's
//! virtual-time windows, so replays of the same scenario reproduce
//! identical shed decisions bit for bit.

use cosmos_types::{NodeId, QueryId, Tuple};
use std::collections::BTreeMap;

/// Per-query conservation ledger (see the module docs for the
/// identity it maintains).
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
    /// Tuples shed at the gate.
    pub shed_tuples: u64,
    /// Bytes shed.
    pub shed_bytes: u64,
}

impl QueryLedger {
    /// `offered == delivered + shed`, tuple- and byte-exact.
    pub fn conserved(&self) -> bool {
        self.offered_tuples == self.delivered_tuples + self.shed_tuples
            && self.offered_bytes == self.delivered_bytes + self.shed_bytes
    }
}

/// The controller's verdict on one offered batch. The driver maps each
/// variant onto delivery-buffer and metrics-hub effects.
#[derive(Debug)]
pub enum Action {
    /// Deliver the offered batch.
    Deliver(Vec<Tuple>),
    /// The batch was shed (`tuples`/`bytes` give its exact size).
    Shed { tuples: u64, bytes: u64 },
}

/// The per-deployment overload controller (one per [`Cosmos`], armed
/// with [`Cosmos::set_overload`]).
///
/// [`Cosmos`]: crate::Cosmos
/// [`Cosmos::set_overload`]: crate::Cosmos::set_overload
#[derive(Debug)]
pub struct OverloadController {
    /// Intake budget of every node, in bytes per 60 s virtual-time
    /// window.
    budget: u64,
    ledgers: BTreeMap<QueryId, QueryLedger>,
    /// Per-node high-water mark: the largest in-window intake (bytes)
    /// any *admitted* delivery left behind, counting the admitted
    /// batch itself.
    high_water: BTreeMap<NodeId, u64>,
}

impl OverloadController {
    /// A controller holding every node to `budget` bytes of user
    /// delivery per 60 s virtual-time window.
    pub fn new(budget: u64) -> OverloadController {
        OverloadController {
            budget,
            ledgers: BTreeMap::new(),
            high_water: BTreeMap::new(),
        }
    }

    /// Decide what happens to a batch offered to `qid`'s user
    /// subscription at `node`. `in_window` is the node's measured
    /// intake in bytes in the live 60 s window (the metrics hub's
    /// `consumed_in_window`). Deterministic: the verdict is a pure
    /// function of the budget and the two sizes.
    pub fn admit(
        &mut self,
        node: NodeId,
        qid: QueryId,
        tuples: Vec<Tuple>,
        in_window: u64,
    ) -> Action {
        let count = tuples.len() as u64;
        let bytes: u64 = tuples.iter().map(|t| t.size_bytes() as u64).sum();
        let ledger = self.ledgers.entry(qid).or_default();
        ledger.offered_tuples += count;
        ledger.offered_bytes += bytes;
        if in_window.saturating_add(bytes) > self.budget {
            ledger.shed_tuples += count;
            ledger.shed_bytes += bytes;
            return Action::Shed {
                tuples: count,
                bytes,
            };
        }
        ledger.delivered_tuples += count;
        ledger.delivered_bytes += bytes;
        let hw = self.high_water.entry(node).or_insert(0);
        *hw = (*hw).max(in_window + bytes);
        Action::Deliver(tuples)
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
    /// behind. Deliveries are admitted only when they fit, so this
    /// never exceeds the budget — the bounded-buffer guarantee of the
    /// overload scenario.
    pub fn high_water(&self, node: NodeId) -> u64 {
        self.high_water.get(&node).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_types::{Timestamp, Value};

    fn tup(ts: i64) -> Tuple {
        Tuple::new("S", Timestamp(ts), vec![Value::Int(ts)])
    }

    fn size(tuples: &[Tuple]) -> u64 {
        tuples.iter().map(|t| t.size_bytes() as u64).sum()
    }

    #[test]
    fn under_budget_delivers_and_conserves() {
        let mut c = OverloadController::new(1_000);
        let q = QueryId(1);
        match c.admit(NodeId(0), q, vec![tup(1), tup(2)], 0) {
            Action::Deliver(tuples) => assert_eq!(tuples.len(), 2),
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
        let mut c = OverloadController::new(100);
        let q = QueryId(1);
        let batch = vec![tup(1), tup(2)];
        let bytes = size(&batch);
        match c.admit(NodeId(0), q, batch, 100) {
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
    fn high_water_never_exceeds_a_byte_budget() {
        let mut c = OverloadController::new(100);
        let q = QueryId(1);
        for i in 0..20 {
            // Window occupancy sweeps well past the budget; everything
            // over it is shed, so the delivery high-water stays bounded.
            c.admit(NodeId(0), q, vec![tup(i)], (i as u64 * 30).min(300));
        }
        let hw = c.high_water(NodeId(0));
        assert!(hw > 0, "some deliveries were admitted");
        assert!(hw <= 100, "high water {hw} exceeds the budget");
    }

    #[test]
    fn a_shed_missing_from_the_ledger_breaks_conservation() {
        let mut c = OverloadController::new(0);
        let q = QueryId(1);
        c.admit(NodeId(0), q, vec![tup(1)], 10);
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
