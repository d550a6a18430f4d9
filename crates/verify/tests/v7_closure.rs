//! V7 integration tests: stream-closure pruning completeness. A closed
//! stream must leave no routing state behind, and a snapshot where it
//! did (simulated tampering) must be flagged as a leak — not as a
//! confusing black hole on a stream that will never publish again.

use cosmos::{Cosmos, CosmosConfig, DisorderRuntime, LatePolicy};
use cosmos_query::{AttrStats, StreamStats};
use cosmos_types::{AttrType, NodeId, Schema, StreamName, TimeDelta, Timestamp, Tuple, Value};
use cosmos_verify::{codes, has_violations, verify_snapshot};

fn system() -> Cosmos {
    system_with_origin(NodeId(0))
}

/// [`system`] with `S` published at `origin`.
fn system_with_origin(origin: NodeId) -> Cosmos {
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
        origin,
    )
    .unwrap();
    sys
}

fn s_tuple(ts: i64, k: i64) -> Tuple {
    Tuple::new(
        "S",
        Timestamp(ts),
        vec![Value::Int(k), Value::Float(k as f64), Value::Int(ts)],
    )
}

fn disorder() -> DisorderRuntime {
    DisorderRuntime {
        bound: TimeDelta::from_millis(1_000),
        policy: LatePolicy::Revise {
            grace: TimeDelta::from_millis(1_000),
        },
    }
}

#[test]
fn closed_deployment_verifies_clean() {
    let mut sys = system();
    sys.submit_query("SELECT k, x FROM S [Now] WHERE x > 2.0", NodeId(5))
        .unwrap();
    sys.set_disorder(Some(disorder()));
    for ts in [2_000i64, 1_000, 3_000, 5_000, 4_000] {
        sys.publish(&s_tuple(ts, ts / 1_000)).unwrap();
    }
    sys.close_streams();
    let snap = sys.snapshot().unwrap();
    assert_eq!(snap.closed_streams, vec![StreamName::from("S")]);
    let diags = verify_snapshot(&snap);
    assert!(!has_violations(&diags), "closed deployment: {diags:?}");
    assert!(
        diags.iter().all(|d| d.code != codes::CLOSED_LEAK),
        "pruning is complete: {diags:?}"
    );
}

#[test]
fn leaked_closure_is_flagged_not_black_holed() {
    let mut sys = system();
    sys.submit_query("SELECT k, x FROM S [Now] WHERE x > 2.0", NodeId(5))
        .unwrap();
    // Mark 'S' closed *without* closing it: the live interest entries
    // for 'S' now simulate a pruning leak.
    let mut snap = sys.snapshot().unwrap();
    assert!(snap.closed_streams.is_empty());
    snap.closed_streams = vec![StreamName::from("S")];
    let diags = verify_snapshot(&snap);
    assert!(has_violations(&diags));
    assert!(
        diags
            .iter()
            .any(|d| d.code == codes::CLOSED_LEAK && d.message.contains("'S'")),
        "leak flagged: {diags:?}"
    );
    assert!(
        diags.iter().all(|d| d.code != codes::BLACK_HOLE),
        "closed streams are skipped by the path checks: {diags:?}"
    );
}

/// No router holds an entry for `S` and the verifier finds no leak.
fn assert_s_stays_closed(sys: &Cosmos, step: &str) {
    let closed = StreamName::from("S");
    let diags = verify_snapshot(&sys.snapshot().unwrap());
    assert!(
        diags.iter().all(|d| d.code != codes::CLOSED_LEAK),
        "{step}: closed stream resurrected: {diags:?}"
    );
    for node in sys.graph().nodes() {
        let r = sys.router(node);
        let leaked = r
            .neighbor_interests()
            .map(|(_, p)| p)
            .chain(r.local_subscribers().map(|(_, p)| p))
            .any(|p| p.entry(&closed).is_some());
        assert!(
            !leaked,
            "{step}: router {node} still holds an entry for 'S'"
        );
    }
}

/// Regression (benchmark README "Findings"): withdrawing one member of
/// a multi-member group after `close_streams` re-installed the shrunk
/// representative's SPE subscription with its full source profile, and
/// `rebuild_routes` re-propagated interest in the closed stream. Every
/// control operation after closure — each one refolds the cells it
/// touches, and a tree change rebuilds them all — must keep it closed.
#[test]
fn control_operations_after_closure_do_not_resurrect_closed_streams() {
    // Published away from the processors, so S crosses links to them.
    let mut sys = system_with_origin(NodeId(7));
    let wide = sys
        .submit_query("SELECT k, x FROM S [Now] WHERE x > 2.0", NodeId(5))
        .unwrap();
    let narrow = sys
        .submit_query("SELECT k, x FROM S [Now] WHERE x > 6.0", NodeId(6))
        .unwrap();
    assert_eq!(
        sys.executor_generation(wide),
        sys.executor_generation(narrow),
        "both queries share one representative"
    );
    // A second group over S: its SPE input shares the reverse-path cells
    // of the first, so refolding them after closure must not bring its
    // interest back.
    let standing = sys
        .submit_query(
            "SELECT k, COUNT(*) FROM S [Range 10 Second] GROUP BY k",
            NodeId(7),
        )
        .unwrap();
    assert_ne!(
        sys.executor_generation(standing),
        sys.executor_generation(wide)
    );
    let crosses_links = sys.graph().nodes().any(|n| {
        let mut interests = sys.router(n).neighbor_interests();
        interests.any(|(_, p)| p.entry(&"S".into()).is_some())
    });
    assert!(crosses_links, "S reaches the processor over links");
    sys.set_disorder(Some(disorder()));
    for ts in [2_000i64, 1_000, 3_000, 5_000, 4_000] {
        sys.publish(&s_tuple(ts, ts / 1_000)).unwrap();
    }
    sys.close_streams();
    assert_s_stays_closed(&sys, "close_streams");
    // The group survives with a shrunk representative, then dissolves.
    sys.unsubscribe(wide).unwrap();
    assert_s_stays_closed(&sys, "unsubscribe (shrink)");
    sys.unsubscribe(narrow).unwrap();
    assert_s_stays_closed(&sys, "unsubscribe (dissolve)");
    // Two disjoint narrow queries seed separate groups before the wide
    // one arrives, so regrouping has something to improve.
    let late: Vec<_> = ["0.0 AND 10.0", "90.0 AND 100.0", "0.0 AND 100.0"]
        .iter()
        .map(|w| {
            let q = sys.submit_query(
                &format!("SELECT k, x FROM S [Now] WHERE x BETWEEN {w}"),
                NodeId(3),
            );
            assert_s_stays_closed(&sys, "submit");
            q.unwrap()
        })
        .collect();
    assert!(sys.reoptimize_groups().unwrap() > 0, "regrouping improved");
    assert_s_stays_closed(&sys, "reoptimize_groups");
    let mut demand = vec![0.0; sys.graph().node_count()];
    demand[7] = 1e6;
    let report = sys
        .optimize_tree_with_demand(cosmos_overlay::OptimizerConfig::default(), &demand)
        .unwrap();
    assert!(
        report.moves > 0,
        "the tree moved, so every route was rebuilt"
    );
    assert_s_stays_closed(&sys, "optimize_tree");
    for q in late.into_iter().chain([standing]) {
        sys.unsubscribe(q).unwrap();
        assert_s_stays_closed(&sys, "unsubscribe");
    }
}
