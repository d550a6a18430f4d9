//! V5 for merged queries: a member of a group receives the shared result
//! stream through its installed split filter, which re-tightens every
//! constraint the representative loosened (PAPER §4). `V0501` holds the
//! installed filter to `member ≡ representative ∘ filter`. The deployment
//! is the smallest one a missing re-tightening fails on — one stream, two
//! grouped aggregates at one user, no tuple published — and a snapshot
//! whose member filter lost one re-tightened constraint must be flagged
//! before any tuple could be over-delivered.

use cosmos::snapshot::NetworkSnapshot;
use cosmos::{Cosmos, CosmosConfig};
use cosmos_cbn::Conjunction;
use cosmos_overlay::TopologyKind;
use cosmos_types::{NodeId, StreamName};
use cosmos_verify::{codes, has_violations, verify_snapshot};
use cosmos_workload::sensor_catalog;

/// Seed 3's scenario shrunk to what a missing re-tightening fails on:
/// six Waxman nodes, `sensors_06` at node 3, and two aggregates over the
/// same window submitted at node 5 — one over every sensor, one over
/// sensors 8 and 9. They share one group whose representative drops the
/// `node_id` range, so the second member's split filter re-tightens it.
fn grouped_system() -> Cosmos {
    let cfg = CosmosConfig {
        nodes: 6,
        topology: TopologyKind::Waxman {
            alpha: 0.6,
            beta: 0.4,
        },
        seed: 42406,
        ..CosmosConfig::default()
    };
    let mut sys = Cosmos::new(cfg).unwrap();
    let sensors = sensor_catalog();
    let stream = StreamName::from("sensors_06");
    let (schema, stats) = (sensors.schema(&stream), sensors.stats(&stream));
    sys.register_stream(
        stream,
        schema.unwrap().clone(),
        stats.unwrap().clone(),
        NodeId(3),
    )
    .unwrap();
    for text in [
        "SELECT node_id, SUM(ambient_temp) FROM sensors_06 [Range 1 Minute] GROUP BY node_id",
        "SELECT node_id, MIN(humidity) FROM sensors_06 [Range 1 Minute] \
         WHERE node_id BETWEEN 8 AND 9 GROUP BY node_id",
    ] {
        sys.submit_query(text, NodeId(5)).unwrap();
    }
    sys
}

/// `c` without its constraint on `attr` (difference constraints kept).
fn without(c: &Conjunction, attr: &str) -> Conjunction {
    let mut out = Conjunction::always();
    for (a, ac) in c.attr_constraints().filter(|(a, _)| *a != attr) {
        out.constrain(a, ac.clone());
    }
    for (x, y, r) in c.diff_constraints() {
        out.diff(x, y, *r);
    }
    out
}

fn v0501(snap: &NetworkSnapshot) -> Vec<String> {
    (verify_snapshot(snap).into_iter())
        .filter(|d| d.code == codes::SPLIT_FILTER)
        .map(|d| d.headline())
        .collect()
}

#[test]
fn a_split_filter_missing_a_retightened_constraint_is_flagged() {
    let snap = grouped_system().snapshot().unwrap();
    assert_eq!(snap.groups.len(), 1, "the two queries share one group");
    let group = &snap.groups[0];
    assert_eq!(group.members.len(), 2);
    let diags = verify_snapshot(&snap);
    assert!(!has_violations(&diags), "{diags:?}");

    // The member whose installed filter re-tightens `node_id`.
    let (user, sub) = (group.members.iter())
        .map(|m| (m.user, m.user_sub))
        .find(|&(user, sub)| {
            let subs = &snap.routers[user.index()].local_subscribers;
            let s = subs.iter().find(|s| s.id == sub).unwrap();
            let entry = s.profile.entry(&group.result_stream).unwrap();
            (entry.filters.iter()).any(|f| f.attr_constraints().any(|(a, _)| a == "node_id"))
        })
        .expect("one member re-tightens node_id");
    let mut tampered = snap.clone();
    let stream = group.result_stream;
    let subs = &mut tampered.routers[user.index()].local_subscribers;
    let s = subs.iter_mut().find(|s| s.id == sub).unwrap();
    let mut entry = s.profile.remove_entry(&stream).unwrap();
    entry.filters = entry
        .filters
        .iter()
        .map(|f| without(f, "node_id"))
        .collect();
    s.profile.add_entry(stream, entry);

    let found = v0501(&tampered);
    assert!(
        found
            .iter()
            .any(|d| d.starts_with("error[V0501]") && d.contains("over-delivery")),
        "{found:?}"
    );
}
