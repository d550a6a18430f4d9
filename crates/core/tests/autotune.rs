//! The self-tuning loop, end to end: a deployment planned from wrong
//! registration-time estimates measures reality, detects the drift, and
//! re-optimizes itself — strictly reducing subsequent delivery cost
//! versus an identical deployment that never autotunes.

use cosmos::{AutotuneOptions, Cosmos, CosmosConfig};
use cosmos_overlay::Graph;
use cosmos_query::{AttrStats, StreamStats};
use cosmos_types::{AttrType, NodeId, QueryId, Schema, Timestamp, Tuple, Value};

/// A curved 3-node overlay: 0 at (0,0), 1 at (0.3,0.4), 2 at (0.6,0).
/// Physical edges 0-1 and 1-2 (0.5 each), so the MST chains 0→1→2 and
/// the root-to-2 path costs 1.0 — while the *logical* pair 0-2 costs
/// only its 0.6 distance. Promoting node 2 under the root is exactly
/// the move measured demand should buy. `merging: false` deploys the
/// non-share baseline.
fn curved_system(registered_rate: f64, merging: bool) -> (Cosmos, QueryId) {
    curved_system_with(registered_rate, merging, SELECTION)
}

/// A selection the CBN serves alone: no group, no representative.
const SELECTION: &str = "SELECT k FROM S [Now]";

/// [`curved_system`] with the user at node 2 submitting `text`.
fn curved_system_with(registered_rate: f64, merging: bool, text: &str) -> (Cosmos, QueryId) {
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
            merging_enabled: merging,
            ..CosmosConfig::default()
        },
        g,
    )
    .unwrap();
    sys.register_stream(
        "S",
        Schema::of(&[("k", AttrType::Int), ("timestamp", AttrType::Int)]),
        StreamStats::with_rate(registered_rate).attr("k", AttrStats::categorical(10.0)),
        NodeId(0),
    )
    .unwrap();
    let q = sys.submit_query(text, NodeId(2)).unwrap();
    assert_eq!(sys.tree().parent(NodeId(2)), Some(NodeId(1)), "MST chain");
    (sys, q)
}

/// Publish tuple `i` at virtual time `i × 200 ms` — an actual rate of
/// 5 tuples/second.
fn publish_phase(sys: &mut Cosmos, range: std::ops::Range<i64>) {
    sys.run(range.map(|i| {
        Tuple::new(
            "S",
            Timestamp(i * 200),
            vec![Value::Int(i % 7), Value::Int(i * 200)],
        )
    }))
    .unwrap();
}

#[test]
fn autotune_detects_drift_and_strictly_reduces_cost() {
    // Registered at 0.1 tuples/s; reality runs at 5 tuples/s.
    let (mut tuned, q_tuned) = curved_system(0.1, true);
    let (mut control, q_control) = curved_system(0.1, true);

    publish_phase(&mut tuned, 0..150);
    publish_phase(&mut control, 0..150);
    assert_eq!(tuned.weighted_cost(), control.weighted_cost());
    assert_eq!(tuned.results(q_tuned).len(), 150);

    let pass = tuned.autotune(&AutotuneOptions::default()).unwrap();
    assert!(pass.triggered, "49x rate drift must trigger: {pass:?}");
    assert!(pass.stream_drift > 10.0, "{pass:?}");
    assert!(pass.adopted_streams >= 1, "{pass:?}");
    let tree = pass.tree.expect("tree pass ran");
    assert!(tree.moves >= 1, "measured demand should move node 2");
    assert_eq!(
        tuned.tree().parent(NodeId(2)),
        Some(NodeId(0)),
        "node 2 promoted under the root over the cheaper logical pair"
    );
    // The adopted catalog now carries the measured rate.
    let rate = tuned.catalog().stats(&"S".into()).unwrap().rate;
    assert!((rate - 5.0).abs() < 0.5, "adopted rate {rate}");

    // Phase 2: same traffic into both deployments.
    let before_tuned = tuned.weighted_cost();
    let before_control = control.weighted_cost();
    publish_phase(&mut tuned, 150..300);
    publish_phase(&mut control, 150..300);
    let delta_tuned = tuned.weighted_cost() - before_tuned;
    let delta_control = control.weighted_cost() - before_control;
    assert_eq!(
        tuned.results(q_tuned).len(),
        control.results(q_control).len(),
        "autotune must not change delivery"
    );
    assert!(
        delta_tuned < delta_control,
        "autotuned phase-2 cost {delta_tuned} must beat control {delta_control}"
    );
    // The promotion replaced the 0.5+0.5 path with the 0.6 logical hop.
    let ratio = delta_tuned / delta_control;
    assert!((ratio - 0.6).abs() < 0.05, "cost ratio {ratio}");
}

#[test]
fn baseline_representatives_count_toward_group_drift() {
    // The non-share baseline runs one representative per query, and its
    // estimated cost drifts from the measured one exactly like that of
    // the merged deployment's one-member group. DISTINCT keeps state,
    // so the query is grouped at the processor.
    let text = "SELECT DISTINCT k, timestamp FROM S [Now]";
    let (mut baseline, q) = curved_system_with(0.1, false, text);
    let (mut merged, _) = curved_system_with(0.1, true, text);
    publish_phase(&mut baseline, 0..150);
    publish_phase(&mut merged, 0..150);
    let (_, group_drift) = baseline.measured_drift();
    assert!(group_drift > 0.0, "{group_drift}");
    assert_eq!(group_drift, merged.measured_drift().1);
    // A selection has no group, so no representative cost to drift.
    let (mut direct, _) = curved_system(0.1, false);
    publish_phase(&mut direct, 0..150);
    assert_eq!(direct.measured_drift().1, 0.0);

    let pass = baseline.autotune(&AutotuneOptions::default()).unwrap();
    assert!(pass.triggered, "{pass:?}");
    assert_eq!(pass.group_drift, group_drift);
    assert_eq!(pass.groups_improved, 0, "a baseline never regroups");
    assert_eq!(baseline.results(q).len(), 150);
}

#[test]
fn autotune_is_a_no_op_without_drift() {
    // Registered rate matches reality: nothing should move.
    let (mut sys, q) = curved_system(5.0, true);
    publish_phase(&mut sys, 0..150);
    let cost = sys.weighted_cost();
    let pass = sys.autotune(&AutotuneOptions::default()).unwrap();
    assert!(!pass.triggered, "{pass:?}");
    assert!(pass.tree.is_none());
    assert_eq!(sys.tree().parent(NodeId(2)), Some(NodeId(1)), "unchanged");
    assert_eq!(sys.weighted_cost(), cost);
    assert_eq!(sys.results(q).len(), 150);
}

#[test]
fn metrics_snapshot_agrees_with_driver_accounting() {
    let (mut sys, q) = curved_system(0.1, true);
    publish_phase(&mut sys, 0..50);
    let snap = sys.metrics();
    assert_eq!(snap.link_bytes_total(), sys.total_bytes());
    assert_eq!(snap.delivered_tuples(q), sys.results(q).len() as u64);
    // The source stream was observed with sampled attribute stats.
    let s = snap
        .streams
        .iter()
        .find(|m| m.stream == "S")
        .expect("observed");
    assert_eq!(s.tuples, 50);
    assert!(s.tuple_rate > 3.0, "rate {}", s.tuple_rate);
    assert!(s.attrs.iter().any(|a| a.name == "k"));
    // Snapshots are versioned JSON documents that round-trip.
    let json = snap.to_json().unwrap();
    let back = cosmos::MetricsSnapshot::from_json(&json).unwrap();
    assert_eq!(back, snap);
}
