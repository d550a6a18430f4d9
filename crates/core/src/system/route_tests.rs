//! Route maintenance held to an independent reference and to a cost
//! contract: `rebuild_routes` must leave exactly what clearing every
//! router and re-propagating every subscription hop by hop leaves, and
//! control operations must re-index only what they moved.

use super::*;
use cosmos_workload::sensor::stream_name;
use cosmos_workload::{sensor_catalog, QueryGenConfig, QueryGenerator};
use rand::Rng;

/// A generated deployment: the first `streams` sensor streams, each
/// advertised at a random node, and a supply of generated queries.
fn deployment(
    seed: u64,
    nodes: usize,
    streams: usize,
    per_source_trees: bool,
) -> (Cosmos, QueryGenerator, StdRng) {
    let mut sys = Cosmos::new(CosmosConfig {
        nodes,
        seed,
        processor_fraction: 0.15,
        per_source_trees,
        ..CosmosConfig::default()
    })
    .unwrap();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let catalog = sensor_catalog();
    for i in 0..streams {
        let name = StreamName::from(stream_name(i).as_str());
        let schema = catalog.schema(&name).unwrap().clone();
        let stats = catalog.stats(&name).unwrap().clone();
        let origin = NodeId(rng.gen_range(0..nodes as u32));
        sys.register_stream(name, schema, stats, origin).unwrap();
    }
    let queries = QueryGenerator::new(QueryGenConfig::default(), seed ^ 0x51);
    (sys, queries, rng)
}

/// Submit generated queries, from random user nodes, until `n` were
/// accepted: most name a sensor stream this deployment does not
/// advertise, and admission control refuses a few shapes.
fn submit_generated(
    sys: &mut Cosmos,
    queries: &mut QueryGenerator,
    rng: &mut StdRng,
    n: usize,
) -> Vec<(QueryId, String)> {
    let nodes = sys.graph().node_count() as u32;
    let mut live = Vec::new();
    while live.len() < n {
        let text = queries.next_query();
        if let Ok(qid) = sys.submit_query(&text, NodeId(rng.gen_range(0..nodes))) {
            live.push((qid, text));
        }
    }
    live
}

/// The route rebuild as it was before the fold: clear every neighbor
/// interest, then merge each local subscription's normalized per-stream
/// profile into every router on its reverse path, through `Router`'s
/// public mutators only.
fn reference_rebuild(sys: &Cosmos, routers: &mut [Router]) {
    for r in routers.iter_mut() {
        let neighbors: Vec<NodeId> = r.neighbor_interests().map(|(n, _)| n).collect();
        for n in neighbors {
            r.set_neighbor_interest(n, Profile::new());
        }
    }
    let subs: Vec<(NodeId, Profile)> = routers
        .iter()
        .flat_map(|r| r.local_subscribers().map(|(_, p)| (r.node(), p.clone())))
        .collect();
    for (node, profile) in subs {
        let origins: Option<Vec<NodeId>> =
            profile.streams().map(|s| sys.registry.origin(s)).collect();
        let Some(origins) = origins else {
            continue; // names an unadvertised stream: skipped whole
        };
        for ((stream, entry), origin) in profile.iter().zip(origins) {
            let mut single = Profile::new();
            single.add_entry(stream.clone(), entry.clone());
            let single = single.normalized();
            let path = sys.tree_for(origin).path(node, origin);
            for w in path.windows(2) {
                routers[w[1].index()].merge_neighbor_interest(w[0], &single);
            }
        }
    }
}

/// Rebuild the system's routes, and a clone of its (pre-rebuild)
/// routers by the reference; both must hold the same interests and
/// hash to the same routing digest.
fn assert_rebuild_matches_reference(sys: &mut Cosmos, step: &str) {
    let mut reference = sys.routers.clone();
    reference_rebuild(sys, &mut reference);
    sys.rebuild_routes();
    for (ours, theirs) in sys.routers.iter().zip(&reference) {
        assert!(
            ours.neighbor_interests().eq(theirs.neighbor_interests()),
            "{step}: router {} diverges from the reference",
            ours.node()
        );
    }
    let digest = sys.routing_digest();
    let ours = std::mem::replace(&mut sys.routers, reference);
    assert_eq!(digest, sys.routing_digest(), "{step}: routing digest");
    sys.routers = ours;
}

/// The query-layer tables, read through public views only: exactly the
/// `live` queries are known, every local subscriber feeds one of them or
/// a running representative, there is one representative per group, and
/// the static verifier accepts the snapshot.
fn assert_tables_match_live_queries(
    sys: &Cosmos,
    live: &[QueryId],
    withdrawn: &[QueryId],
    step: &str,
) {
    assert_eq!(sys.query_count(), live.len(), "{step}: query_count");
    for (qids, known) in [(live, true), (withdrawn, false)] {
        for &q in qids {
            assert_eq!(sys.user_of(q).is_some(), known, "{step}: user_of {q}");
            assert_eq!(sys.processor_of(q).is_some(), known, "{step}: {q}");
            assert_eq!(sys.executor_generation(q).is_some(), known, "{step}: {q}");
        }
    }
    let reps = sys.rep_states();
    let groups: usize = sys
        .processors()
        .iter()
        .filter_map(|p| sys.group_manager(*p))
        .map(GroupManager::group_count)
        .sum();
    assert_eq!(reps.len(), groups, "{step}: one representative per group");
    let snap = sys.snapshot().unwrap_or_else(|e| panic!("{step}: {e}"));
    for sub in snap.routers.iter().flat_map(|r| &r.local_subscribers) {
        let real = match &sub.kind {
            crate::snapshot::SubscriberKind::User { query } => live.contains(query),
            crate::snapshot::SubscriberKind::SpeInput { result_stream } => {
                reps.iter().any(|r| r.result_stream == result_stream)
            }
        };
        assert!(
            real,
            "{step}: {:?} feeds nothing live: {:?}",
            sub.id, sub.kind
        );
    }
    // The snapshot documents each member's split profile once as query-
    // layer state and once as installed on its user's router: the same.
    for member in snap.groups.iter().flat_map(|g| &g.members) {
        let installed = snap.routers[member.user.index()]
            .local_subscribers
            .iter()
            .find(|s| s.id == member.user_sub)
            .map(|s| &s.profile);
        assert_eq!(
            Some(&member.split_profile),
            installed,
            "{step}: {}'s split profile is not the installed one",
            member.query
        );
    }
    // cosmos-verify links the plain build of this crate, whose snapshot
    // type this test build cannot name: hand the document over as JSON.
    let json = snap.to_json().unwrap();
    let diags = cosmos_verify::verify_snapshot(&serde_json::from_str(&json).unwrap());
    assert!(!cosmos_verify::has_violations(&diags), "{step}: {diags:?}");
}

#[test]
fn fold_matches_the_clear_and_repropagate_reference() {
    let (mut regrouped, mut tree_moves) = (0, 0);
    for seed in 0..16u64 {
        let per_source_trees = seed % 2 == 1;
        let (mut sys, mut queries, mut rng) =
            deployment(seed, 12 + seed as usize, 4, per_source_trees);
        let mut live = submit_generated(&mut sys, &mut queries, &mut rng, 10);
        let mut withdrawn = Vec::new();
        assert_rebuild_matches_reference(&mut sys, "start-up");
        for step in 0..24 {
            let what = match rng.gen_range(0..8u32) {
                0..=2 => {
                    live.extend(submit_generated(&mut sys, &mut queries, &mut rng, 1));
                    "submit"
                }
                3..=5 if !live.is_empty() => {
                    let (qid, _) = live.swap_remove(rng.gen_range(0..live.len()));
                    sys.unsubscribe(qid).unwrap();
                    withdrawn.push(qid);
                    "unsubscribe"
                }
                6 => {
                    regrouped += sys.reoptimize_groups().unwrap();
                    "reoptimize_groups"
                }
                _ => {
                    tree_moves += sys
                        .optimize_tree(cosmos_overlay::OptimizerConfig::default())
                        .moves;
                    "optimize_tree"
                }
            };
            let step = format!("seed {seed} step {step} {what}");
            assert_rebuild_matches_reference(&mut sys, &step);
            let live: Vec<QueryId> = live.iter().map(|(q, _)| *q).collect();
            assert_tables_match_live_queries(&sys, &live, &withdrawn, &step);
        }
    }
    assert!(
        regrouped > 0 && tree_moves > 0,
        "the interleaving must regroup ({regrouped}) and move tree edges ({tree_moves})"
    );
}

/// Per-router `(index_rebuilds, cached_plan_count)`.
fn maintenance_counters(sys: &Cosmos) -> Vec<(u64, usize)> {
    sys.routers
        .iter()
        .map(|r| (r.index_rebuilds(), r.cached_plan_count()))
        .collect()
}

/// Assert that since `before`, match indexes were rebuilt only at the
/// routers on `path` (a query's user → processor tree path), at most
/// one stream (the group's result stream) each, and at least one
/// somewhere.
fn assert_rebuilds_confined_to_path(sys: &Cosmos, before: &[(u64, usize)], path: &[NodeId]) {
    let mut total = 0;
    for (r, (was, _)) in sys.routers.iter().zip(before) {
        let rebuilt = r.index_rebuilds() - was;
        if path.contains(&r.node()) {
            assert!(
                rebuilt <= 1,
                "router {}: {rebuilt} streams re-indexed",
                r.node()
            );
        } else {
            assert_eq!(rebuilt, 0, "off-path router {} re-indexed", r.node());
        }
        total += rebuilt;
    }
    assert!(
        total >= 1,
        "the user's own router re-indexes the result stream"
    );
}

#[test]
fn control_operations_reindex_only_what_moved() {
    let (mut sys, mut queries, mut rng) = deployment(7, 64, 16, false);
    let live = submit_generated(&mut sys, &mut queries, &mut rng, 96);
    // Route something so the plan caches are not trivially empty.
    let mut sensors = cosmos_workload::SensorGenerator::new(0, 7);
    sys.run(sensors.tuples_until(60_000)).unwrap();

    // A rebuild with nothing to change touches nothing.
    sys.rebuild_routes();
    let before = maintenance_counters(&sys);
    assert!(before.iter().any(|(_, plans)| *plans > 0));
    sys.rebuild_routes();
    assert_eq!(maintenance_counters(&sys), before);

    // A query joining an existing group without widening it (here: a
    // second copy of a live query, from another node) re-indexes the
    // group's result stream along its user → processor path only.
    let (original, text) = &live[0];
    let generation = sys.executor_generation(*original);
    let user = (0..64u32)
        .map(NodeId)
        .find(|n| Some(*n) != sys.user_of(*original) && Some(*n) != sys.processor_of(*original))
        .unwrap();
    let before = maintenance_counters(&sys);
    let copy = sys.submit_query(text, user).unwrap();
    assert_eq!(sys.executor_generation(copy), generation, "joined warm");
    let processor = sys.processor_of(copy).unwrap();
    let path = sys.tree_for(processor).path(user, processor);
    assert_rebuilds_confined_to_path(&sys, &before, &path);

    // Withdrawing it again leaves the group with the representative it
    // had: same confinement.
    let before = maintenance_counters(&sys);
    sys.unsubscribe(copy).unwrap();
    assert_rebuilds_confined_to_path(&sys, &before, &path);
}

/// A Throttle notice walks `tree_for(origin).path(consumer, origin)`:
/// the bytes accounted for it are the datagram's size times that path's
/// length, on the shared tree and on a per-source tree alike.
#[test]
fn throttle_notice_is_accounted_along_the_origins_tree_path() {
    use crate::overload::{Budget, OverloadPolicy};
    use cosmos_types::{AttrType, Value};
    // Chain 0-1-2-3-4 plus a direct 0-4 link too heavy for the MST but
    // shorter than the chain: only the tree rooted at 0 uses it.
    let deploy = |per_source_trees: bool, throttle: bool| {
        let mut g = Graph::new(5);
        for i in 0..5 {
            g.set_position(NodeId(i), 0.25 * i as f64, 0.0);
        }
        for i in 0..4 {
            g.add_edge_by_distance(NodeId(i), NodeId(i + 1)).unwrap();
        }
        g.add_edge(NodeId(0), NodeId(4), 0.9).unwrap();
        let cfg = CosmosConfig {
            nodes: 5,
            processor_fraction: 0.2,
            per_source_trees,
            ..CosmosConfig::default()
        };
        let mut sys = Cosmos::with_graph(cfg, g).unwrap();
        let schema = Schema::of(&[("k", AttrType::Int), ("timestamp", AttrType::Int)]);
        sys.register_stream("S", schema, StreamStats::with_rate(1.0), NodeId(0))
            .unwrap();
        sys.submit_query("SELECT k FROM S [Now]", NodeId(4))
            .unwrap();
        if throttle {
            sys.set_overload(Some(OverloadConfig {
                budget: Budget::Tuples(0),
                policy: OverloadPolicy::Throttle,
                ..OverloadConfig::default()
            }));
        }
        let values = vec![Value::Int(1), Value::Int(0)];
        sys.publish(&Tuple::new("S", Timestamp(0), values)).unwrap();
        sys
    };
    let mut hops = Vec::new();
    for per_source_trees in [false, true] {
        let plain = deploy(per_source_trees, false);
        let sys = deploy(per_source_trees, true);
        let notices = sys.overload().unwrap().received();
        assert_eq!(notices.len(), 1);
        let origin = sys.registry().origin(&notices[0].stream).unwrap();
        let path_len = sys.tree_for(origin).path_len(NodeId(4), origin);
        let expected = (notices[0].size_bytes() * path_len) as u64;
        assert_eq!(sys.metrics().throttle_bytes, expected);
        assert_eq!(sys.total_bytes() - plain.total_bytes(), expected);
        hops.push(path_len);
    }
    assert_eq!(hops, [4, 1], "the two modes walk different paths");
}
