//! Overload control, end to end: a consumer budgeted far below its
//! inbound rate keeps its delivery buffer bounded, every dropped byte
//! is ledger-accounted (offered = delivered + shed, byte-exact), a
//! budget above the peak is a pure witness, and all of it replays
//! bit-for-bit.

use cosmos::{Cosmos, CosmosConfig};
use cosmos_overlay::Graph;
use cosmos_query::{AttrStats, StreamStats};
use cosmos_types::{AttrType, NodeId, QueryId, Schema, Timestamp, Tuple, Value};

/// The 3-node chain 0 — 1 — 2: stream `S` at node 0, one consumer
/// query at node 2.
fn chain_system() -> (Cosmos, QueryId) {
    let mut g = Graph::new(3);
    g.set_position(NodeId(0), 0.0, 0.0);
    g.set_position(NodeId(1), 0.3, 0.4);
    g.set_position(NodeId(2), 0.6, 0.0);
    g.add_edge_by_distance(NodeId(0), NodeId(1)).unwrap();
    g.add_edge_by_distance(NodeId(1), NodeId(2)).unwrap();
    let mut sys = Cosmos::with_graph(
        CosmosConfig {
            nodes: 3,
            processor_fraction: 0.34,
            ..CosmosConfig::default()
        },
        g,
    )
    .unwrap();
    sys.register_stream(
        "S",
        Schema::of(&[("k", AttrType::Int), ("timestamp", AttrType::Int)]),
        StreamStats::with_rate(10.0).attr("k", AttrStats::categorical(10.0)),
        NodeId(0),
    )
    .unwrap();
    let q = sys
        .submit_query("SELECT k FROM S [Now]", NodeId(2))
        .unwrap();
    (sys, q)
}

/// Tuples fed at 10/s of virtual time: 150 s, so the metrics hub's 60 s
/// window is saturated long before the feed ends.
const TUPLES: u64 = 1500;

/// [`TUPLES`] tuples at 10/s of virtual time (t = 0..150 s).
fn feed(sys: &mut Cosmos) {
    for i in 0..TUPLES as i64 {
        sys.publish(&Tuple::new(
            "S",
            Timestamp(i * 100),
            vec![Value::Int(i % 7), Value::Int(i * 100)],
        ))
        .unwrap();
    }
}

/// The consumer's inbound bytes per 60 s metrics window, measured on an
/// unbudgeted probe run (the window is saturated well before the feed
/// ends).
fn inbound_window_bytes() -> u64 {
    let (mut probe, _) = chain_system();
    feed(&mut probe);
    let (_tuples, bytes) = probe.metrics_hub().consumed_in_window(NodeId(2));
    assert!(bytes > 0, "probe must observe deliveries");
    bytes
}

#[test]
fn budgeted_consumer_sheds_boundedly_with_exact_conservation() {
    let budget = inbound_window_bytes() / 4; // 25% of the inbound rate
    let (mut sys, q) = chain_system();
    sys.set_overload(Some(budget));
    feed(&mut sys);
    sys.close_streams();

    let ctl = sys.overload().expect("armed");
    let ledger = ctl.ledger(q);
    assert!(ledger.conserved(), "identity broken: {ledger:?}");
    assert!(ledger.shed_tuples > 0, "a 4x overload must shed");
    assert!(ledger.delivered_tuples > 0, "under-budget windows deliver");
    assert_eq!(ledger.offered_tuples, TUPLES, "every tuple was offered");
    assert_eq!(
        ledger.delivered_tuples as usize,
        sys.results(q).len(),
        "ledger agrees with the delivery buffer"
    );
    // The bounded-buffer guarantee: no admitted delivery ever left the
    // consumer's in-window intake above its budget.
    let hw = ctl.high_water(NodeId(2));
    assert!(hw > 0 && hw <= budget, "high water {hw} vs budget {budget}");
    // Shed mass is visible in the metrics snapshot, never silent.
    let snap = sys.metrics();
    assert_eq!(snap.shed_tuples, ledger.shed_tuples);
    assert_eq!(snap.shed_bytes, ledger.shed_bytes);
}

#[test]
fn shed_decisions_replay_bit_for_bit() {
    let budget = inbound_window_bytes() / 4;
    let run = || {
        let (mut sys, q) = chain_system();
        sys.set_overload(Some(budget));
        feed(&mut sys);
        sys.close_streams();
        let ledger = sys.overload().unwrap().ledger(q);
        let results: Vec<Tuple> = sys.results(q).to_vec();
        (ledger, results, sys.metrics().to_json().unwrap())
    };
    let (ledger_a, results_a, json_a) = run();
    let (ledger_b, results_b, json_b) = run();
    assert_eq!(ledger_a, ledger_b, "identical ledgers");
    assert_eq!(results_a, results_b, "identical deliveries");
    assert_eq!(json_a, json_b, "byte-identical metrics documents");
}

#[test]
fn above_peak_budget_never_interferes() {
    let (mut plain, q_plain) = chain_system();
    feed(&mut plain);
    plain.close_streams();

    let (mut budgeted, q) = chain_system();
    // Twice the observed peak: the controller must be a pure witness.
    budgeted.set_overload(Some(inbound_window_bytes() * 2));
    feed(&mut budgeted);
    budgeted.close_streams();

    assert_eq!(budgeted.results(q), plain.results(q_plain));
    let ledger = budgeted.overload().unwrap().ledger(q);
    assert!(ledger.conserved());
    assert_eq!(ledger.shed_tuples, 0);
    assert_eq!(ledger.delivered_tuples, TUPLES);
    // The metrics documents agree except for the (zero-valued, hence
    // omitted) overload counters: byte-identical serialization.
    assert_eq!(
        budgeted.metrics().to_json().unwrap(),
        plain.metrics().to_json().unwrap()
    );
    assert_eq!(budgeted.total_bytes(), plain.total_bytes());
}
