//! V6 integration tests: interval-abstraction consistency over live
//! snapshots, plus tamper scenarios the abstract interpreter must catch.

use cosmos::{Cosmos, CosmosConfig};
use cosmos_cbn::Conjunction;
use cosmos_lint::Severity;
use cosmos_query::{AttrStats, StreamStats};
use cosmos_types::{AttrType, NodeId, Schema};
use cosmos_verify::{codes, has_violations, verify_snapshot};

fn system() -> Cosmos {
    let cfg = CosmosConfig {
        nodes: 8,
        seed: 11,
        ..CosmosConfig::default()
    };
    let mut sys = Cosmos::new(cfg).unwrap();
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
        NodeId(0),
    )
    .unwrap();
    sys
}

#[test]
fn live_snapshot_has_no_v6_findings() {
    let mut sys = system();
    sys.submit_query("SELECT k, x FROM S [Now] WHERE x > 50.0", NodeId(5))
        .unwrap();
    sys.submit_query(
        "SELECT k FROM S [Range 5 Second] WHERE x BETWEEN 10.0 AND 30.0",
        NodeId(3),
    )
    .unwrap();
    let diags = verify_snapshot(&sys.snapshot().unwrap());
    assert!(!has_violations(&diags), "clean deployment: {diags:?}");
    assert!(
        diags.iter().all(|d| !d.code.starts_with("V06")),
        "no V6 findings expected: {diags:?}"
    );
}

/// Line overlay 0 - 1 - 2 - 3 with the processor at node 0 and the
/// source at node 3: a subscription to 'S' at node 0 (carrying the
/// query's selection) must propagate over every link, so each hop holds
/// an interest for 'S' the test can tamper with.
fn line_system() -> Cosmos {
    use cosmos_overlay::Graph;
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
        NodeId(3),
    )
    .unwrap();
    sys
}

#[test]
fn disjoint_hop_filter_is_a_dead_delivery() {
    let mut sys = line_system();
    sys.submit_query("SELECT k, x FROM S [Now] WHERE x > 50.0", NodeId(0))
        .unwrap();
    let mut snap = sys.snapshot().unwrap();
    // Tamper: re-tighten every installed interest for 'S' to a range
    // disjoint from the subscriber's `x > 50` — tuples die mid-path.
    let stream = cosmos_types::StreamName::from("S");
    let mut tampered = false;
    for r in &mut snap.routers {
        for (_, profile) in &mut r.neighbor_interests {
            if let Some(entry) = profile.entry(&stream) {
                let mut dead = Conjunction::always();
                dead.between("x", 0, 10);
                let mut e = entry.clone();
                e.filters = vec![dead];
                let mut p = cosmos_cbn::Profile::new();
                for (s, other) in profile.iter() {
                    if *s != stream {
                        p.add_entry(*s, other.clone());
                    }
                }
                p.add_entry(stream, e);
                *profile = p;
                tampered = true;
            }
        }
    }
    assert!(
        tampered,
        "the path from node 3 must install interests for S"
    );
    let diags = verify_snapshot(&snap);
    assert!(
        diags
            .iter()
            .any(|d| d.code == codes::DEAD_DELIVERY && d.severity == Severity::Error),
        "expected V0601: {diags:?}"
    );
}

#[test]
fn unsatisfiable_subscription_is_flagged() {
    let mut sys = system();
    sys.submit_query("SELECT k, x FROM S [Now] WHERE x > 50.0", NodeId(5))
        .unwrap();
    let mut snap = sys.snapshot().unwrap();
    // Tamper: make one local subscriber's filter self-contradictory.
    let mut unsat = Conjunction::always();
    unsat.between("x", 0, 10);
    unsat.lower("x", 20, false);
    let sub = snap
        .routers
        .iter_mut()
        .flat_map(|r| r.local_subscribers.iter_mut())
        .next()
        .expect("a subscriber exists");
    // Profile has no iter_mut: rebuild it with the poisoned filters.
    let mut poisoned = cosmos_cbn::Profile::new();
    for (s, e) in sub.profile.iter() {
        let mut e2 = e.clone();
        e2.filters = vec![unsat.clone()];
        poisoned.add_entry(*s, e2);
    }
    sub.profile = poisoned;
    let diags = verify_snapshot(&snap);
    assert!(
        diags.iter().any(|d| d.code == codes::EMPTY_SUBSCRIPTION),
        "expected V0602: {diags:?}"
    );
}

#[test]
fn unbounded_representative_is_flagged() {
    let mut sys = system();
    // A selection is served by the CBN alone, with no representative to
    // tamper with; DISTINCT keeps state, so it runs in a group.
    sys.submit_query(
        "SELECT k, x FROM S [Range 5 Second] WHERE x > 50.0",
        NodeId(5),
    )
    .unwrap();
    assert!(sys.snapshot().unwrap().groups.is_empty(), "a profile");
    sys.submit_query(
        "SELECT DISTINCT k, x FROM S [Range 5 Second] WHERE x > 50.0",
        NodeId(5),
    )
    .unwrap();
    let mut snap = sys.snapshot().unwrap();
    assert!(!snap.groups.is_empty(), "merging deployment has a group");
    // Tamper: rewrite the representative to aggregate over [Unbounded]
    // (the admission gate would have rejected this query).
    snap.groups[0].representative_cql =
        "SELECT k, COUNT(*) FROM S [Unbounded] GROUP BY k".to_string();
    let diags = verify_snapshot(&snap);
    assert!(
        diags
            .iter()
            .any(|d| d.code == codes::UNBOUNDED_REP_STATE && d.severity == Severity::Error),
        "expected V0604: {diags:?}"
    );
}
