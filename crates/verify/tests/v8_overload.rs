//! V8 integration tests: overload accounting. A budgeted deployment's
//! snapshot carries its per-query shed ledgers; the verifier proves
//! conservation (`offered = delivered + shed`, byte-exact) and that
//! shedding never black-holed a query that still exists. A tampered
//! ledger (simulated shed leak) must be flagged.

use cosmos::{Cosmos, CosmosConfig, NetworkSnapshot};
use cosmos_query::{AttrStats, StreamStats};
use cosmos_types::{AttrType, NodeId, Schema, Timestamp, Tuple, Value};
use cosmos_verify::{codes, has_violations, verify_snapshot};

/// A selection: the CBN serves it alone.
const SELECTION: &str = "SELECT k FROM S [Now]";

fn budgeted_system() -> Cosmos {
    budgeted_system_with(SELECTION)
}

/// [`budgeted_system`] with the user at node 5 submitting `text`.
fn budgeted_system_with(text: &str) -> Cosmos {
    let cfg = CosmosConfig {
        nodes: 8,
        seed: 11,
        ..CosmosConfig::default()
    };
    let mut sys = Cosmos::new(cfg).unwrap();
    sys.register_stream(
        "S",
        Schema::of(&[("k", AttrType::Int), ("timestamp", AttrType::Int)]),
        StreamStats::with_rate(10.0).attr("k", AttrStats::categorical(10.0)),
        NodeId(0),
    )
    .unwrap();
    sys.submit_query(text, NodeId(5)).unwrap();
    // A tight budget guarantees real shed traffic in the ledger; 90 s
    // of virtual time at 10/s saturate the hub's 60 s window.
    sys.set_overload(Some(64));
    for i in 0..900i64 {
        sys.publish(&Tuple::new(
            "S",
            Timestamp(i * 100),
            vec![Value::Int(i % 7), Value::Int(i * 100)],
        ))
        .unwrap();
    }
    sys.close_streams();
    sys
}

#[test]
fn budgeted_deployment_verifies_clean() {
    let sys = budgeted_system();
    let snap = sys.snapshot().unwrap();
    assert!(!snap.overload.is_empty(), "ledger reached the snapshot");
    assert!(snap.overload[0].shed_tuples > 0, "the budget bit");
    let diags = verify_snapshot(&snap);
    assert!(!has_violations(&diags), "budgeted deployment: {diags:?}");
    assert!(
        diags.iter().all(|d| d.code != codes::SHED_UNACCOUNTED),
        "accounting is exact: {diags:?}"
    );

    // Ledgers written before the identity lost its `staged` term carry
    // two more keys, always zero: such documents still parse, to the
    // same snapshot, and verify clean.
    let json = snap.to_json().unwrap();
    let (head, ledgers) = json.split_at(json.find("\"overload\":").expect("ledger section"));
    let legacy = ledgers.replace(
        "\"shed_bytes\":",
        "\"staged_tuples\":0,\"staged_bytes\":0,\"shed_bytes\":",
    );
    assert_eq!(legacy.matches("staged_tuples").count(), snap.overload.len());
    let parsed = NetworkSnapshot::from_json(&format!("{head}{legacy}")).expect("legacy keys parse");
    assert_eq!(parsed, snap);
    let diags = verify_snapshot(&parsed);
    assert!(!has_violations(&diags), "legacy ledgers: {diags:?}");
}

#[test]
fn leaked_shed_ledger_is_flagged() {
    let sys = budgeted_system();
    let mut snap = sys.snapshot().unwrap();
    // Simulate a shed leak: a tuple was dropped without being counted.
    snap.overload[0].shed_tuples -= 1;
    snap.overload[0].shed_bytes -= 20;
    let diags = verify_snapshot(&snap);
    assert!(has_violations(&diags));
    assert!(
        diags
            .iter()
            .any(|d| d.code == codes::SHED_UNACCOUNTED && d.message.contains("conservation")),
        "leak flagged: {diags:?}"
    );
}

#[test]
fn shed_black_hole_is_flagged() {
    // A query the CBN serves alone, and a group member (DISTINCT keeps
    // state): either one losing its subscription is a black hole.
    for text in [SELECTION, "SELECT DISTINCT k, timestamp FROM S [Now]"] {
        shed_black_hole_is_flagged_for(text);
    }
}

fn shed_black_hole_is_flagged_for(text: &str) {
    let sys = budgeted_system_with(text);
    let mut snap = sys.snapshot().unwrap();
    assert_eq!(snap.direct.len(), usize::from(text == SELECTION), "{text}");
    // Simulate a black hole: the controller still accounts for a query
    // whose user subscription is gone from every router.
    let q = snap.overload[0].query;
    for r in &mut snap.routers {
        r.local_subscribers
            .retain(|s| s.kind != (cosmos::snapshot::SubscriberKind::User { query: q }));
    }
    let diags = verify_snapshot(&snap);
    assert!(
        diags
            .iter()
            .any(|d| d.code == codes::SHED_UNACCOUNTED && d.message.contains("black-holed")),
        "{text}: black hole flagged: {diags:?}"
    );
}

#[test]
fn unbudgeted_snapshot_has_no_ledger_section() {
    let cfg = CosmosConfig {
        nodes: 4,
        seed: 3,
        ..CosmosConfig::default()
    };
    let mut sys = Cosmos::new(cfg).unwrap();
    sys.register_stream(
        "S",
        Schema::of(&[("k", AttrType::Int), ("timestamp", AttrType::Int)]),
        StreamStats::with_rate(1.0).attr("k", AttrStats::categorical(4.0)),
        NodeId(0),
    )
    .unwrap();
    sys.submit_query("SELECT k FROM S [Now]", NodeId(2))
        .unwrap();
    let snap = sys.snapshot().unwrap();
    assert!(snap.overload.is_empty());
    // The serialized form omits the section entirely: old tooling
    // parses unbudgeted snapshots byte-unchanged.
    assert!(!snap.to_json().unwrap().contains("overload"));
    let diags = verify_snapshot(&snap);
    assert!(!has_violations(&diags), "{diags:?}");
}
