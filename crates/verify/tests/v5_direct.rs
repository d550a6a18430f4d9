//! V5 for queries the CBN serves alone: an in-order deployment answers a
//! single-stream select-project query with its user's subscription to
//! the source stream, and `V0502` holds that subscription to the query —
//! its filter equivalent to the selection, its projection exactly the
//! output attributes. Tampered snapshots (an extra projected attribute,
//! a dropped filter) must be flagged.

use cosmos::snapshot::NetworkSnapshot;
use cosmos::{Cosmos, CosmosConfig};
use cosmos_cbn::{Profile, ProfileEntry, Projection};
use cosmos_query::{AttrStats, StreamStats};
use cosmos_types::{AttrType, NodeId, Schema, StreamName};
use cosmos_verify::{codes, has_violations, verify_snapshot};

/// An 8-node deployment with `S(k, x, timestamp)` at node 0 and one
/// query the CBN serves alone, submitted at node 5.
fn direct_system(text: &str) -> Cosmos {
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
    sys.submit_query(text, NodeId(5)).unwrap();
    sys
}

/// Replace the entry for `S` of the direct query's installed profile.
fn tamper(snap: &mut NetworkSnapshot, edit: impl FnOnce(&mut ProfileEntry)) {
    let d = snap.direct[0].clone();
    let sub = (snap.routers[d.user.index()].local_subscribers.iter_mut())
        .find(|s| s.id == d.user_sub)
        .expect("the direct query's subscription is installed");
    let s = StreamName::from("S");
    let mut entry = sub.profile.entry(&s).expect("an entry for S").clone();
    edit(&mut entry);
    let mut profile = Profile::new();
    profile.add_entry(s, entry);
    sub.profile = profile;
}

fn v0502(snap: &NetworkSnapshot) -> Vec<String> {
    (verify_snapshot(snap).into_iter())
        .filter(|d| d.code == codes::DIRECT_PROFILE)
        .map(|d| d.message)
        .collect()
}

#[test]
fn live_direct_queries_verify_clean() {
    for text in [
        "SELECT k FROM S [Now] WHERE x > 50.0",
        "SELECT * FROM S [Now]",
        "SELECT x, k FROM S [Range 5 Second] WHERE k = 3 AND x < 20.0",
    ] {
        let snap = direct_system(text).snapshot().unwrap();
        assert_eq!(snap.direct.len(), 1, "{text}");
        assert!(snap.groups.is_empty(), "{text}");
        let diags = verify_snapshot(&snap);
        assert!(!has_violations(&diags), "{text}: {diags:?}");
        // The list survives the JSON round trip.
        let back = NetworkSnapshot::from_json(&snap.to_json().unwrap()).unwrap();
        assert_eq!(back, snap);
    }
}

#[test]
fn an_extra_projected_attribute_is_flagged() {
    let mut snap = direct_system("SELECT k FROM S [Now] WHERE x > 50.0")
        .snapshot()
        .unwrap();
    assert!(v0502(&snap).is_empty());
    // The filter attribute `x` rides along to the user: the profile the
    // route ledger sends upstream, not the query's.
    tamper(&mut snap, |e| e.projection = Projection::of(["k", "x"]));
    let found = v0502(&snap);
    assert!(found.iter().any(|m| m.contains("projection")), "{found:?}");
}

#[test]
fn a_dropped_filter_is_flagged() {
    let mut snap = direct_system("SELECT k FROM S [Now] WHERE x > 50.0")
        .snapshot()
        .unwrap();
    tamper(&mut snap, |e| e.filters.clear());
    let found = v0502(&snap);
    assert!(
        found.iter().any(|m| m.contains("over-delivery")),
        "{found:?}"
    );
}

#[test]
fn a_missing_subscription_is_flagged() {
    let mut snap = direct_system("SELECT k FROM S [Now]").snapshot().unwrap();
    let d = snap.direct[0].clone();
    snap.routers[d.user.index()]
        .local_subscribers
        .retain(|s| s.id != d.user_sub);
    let found = v0502(&snap);
    assert!(
        found.iter().any(|m| m.contains("receives nothing")),
        "{found:?}"
    );
}
