//! Route maintenance held to an independent reference and to a cost
//! contract: after every control operation the routers must hold exactly
//! what clearing every router and re-propagating every subscription hop
//! by hop, in `SubscriberId` order, leaves — without a `rebuild_routes`
//! — and an operation must refold only the cells it changed.

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

/// The route rebuild as it was before the ledger: clear every neighbor
/// interest, then merge each local subscription's normalized per-stream
/// profile, in `SubscriberId` order, into every router on its reverse
/// path, through `Router`'s public mutators only.
fn reference_rebuild(sys: &Cosmos, routers: &mut [Router]) {
    for r in routers.iter_mut() {
        let neighbors: Vec<NodeId> = r.neighbor_interests().map(|(n, _)| n).collect();
        for n in neighbors {
            r.set_neighbor_interest(n, Profile::new());
        }
    }
    let mut subs: Vec<(SubscriberId, NodeId, Profile)> = routers
        .iter()
        .flat_map(|r| r.local_subscribers().map(|(s, p)| (s, r.node(), p.clone())))
        .collect();
    subs.sort_by_key(|(sub, ..)| *sub);
    for (_, node, profile) in subs {
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
                let up = &mut routers[w[1].index()];
                let merged = match up.neighbor_interest(w[0]) {
                    Some(held) => held.union(&single),
                    None => single.clone(),
                };
                up.set_neighbor_interest(w[0], merged);
            }
        }
    }
}

/// The system's routers must already hold what the reference leaves on
/// a clone of them, and hash to the same routing digest; a following
/// `rebuild_routes` then re-indexes nothing and finds the ledger it
/// rebuilds from the local subscriptions already in place.
fn assert_routes_match_reference(sys: &mut Cosmos, step: &str) {
    let mut reference = sys.routers.clone();
    reference_rebuild(sys, &mut reference);
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
    assert_rebuild_changes_nothing(sys, step);
}

/// A `rebuild_routes` re-indexes nothing, drops no plan, and rebuilds
/// exactly the ledger in place: no withdrawn subscriber or closed stream
/// lingers in it.
fn assert_rebuild_changes_nothing(sys: &mut Cosmos, step: &str) {
    let (cells, subs) = (sys.ledger.cells.clone(), sys.ledger.subs.clone());
    let before = maintenance_counters(sys);
    sys.rebuild_routes();
    let moved = maintenance_counters(sys) != before;
    assert!(!moved, "{step}: rebuild moved something");
    assert!(sys.ledger.cells == cells, "{step}: stale ledger cells");
    assert!(
        sys.ledger.subs == subs,
        "{step}: stale ledger subscriptions"
    );
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
    let (mut regrouped, mut tree_moves, mut failed_links, mut tuned, mut closed) = (0, 0, 0, 0, 0);
    for seed in 0..16u64 {
        for per_source_trees in [false, true] {
            let (mut sys, mut queries, mut rng) =
                deployment(seed, 12 + seed as usize, 4, per_source_trees);
            if seed % 2 == 0 {
                sys.set_disorder(Some(DisorderRuntime {
                    bound: TimeDelta::from_millis(1_000),
                    policy: LatePolicy::Drop,
                }));
            }
            let mut live = submit_generated(&mut sys, &mut queries, &mut rng, 10);
            // Measured rates for autotune to drift from.
            let mut sensors = cosmos_workload::SensorGenerator::new(0, seed);
            sys.run(sensors.tuples_until(30_000)).unwrap();
            let mut withdrawn = Vec::new();
            assert_routes_match_reference(&mut sys, &format!("seed {seed} start-up"));
            for step in 0..24 {
                let what = match rng.gen_range(0..11u32) {
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
                    7 => {
                        tree_moves += sys
                            .optimize_tree(cosmos_overlay::OptimizerConfig::default())
                            .moves;
                        "optimize_tree"
                    }
                    8 => {
                        let edges: Vec<(NodeId, NodeId)> = sys.tree().edges().collect();
                        let (a, b) = edges[rng.gen_range(0..edges.len())];
                        if sys.fail_tree_link(a, b).is_ok() {
                            failed_links += 1;
                            sys.heal_tree_link(a, b).unwrap();
                        }
                        "fail_tree_link"
                    }
                    9 => {
                        let opts = AutotuneOptions {
                            drift_threshold: 0.0,
                            ..AutotuneOptions::default()
                        };
                        tuned += usize::from(sys.autotune(&opts).unwrap().triggered);
                        "autotune"
                    }
                    _ => {
                        sys.close_streams();
                        "close_streams"
                    }
                };
                let step = format!("seed {seed} trees {per_source_trees} step {step} {what}");
                assert_routes_match_reference(&mut sys, &step);
                let live: Vec<QueryId> = live.iter().map(|(q, _)| *q).collect();
                assert_tables_match_live_queries(&sys, &live, &withdrawn, &step);
            }
            closed += usize::from(!sys.closed_streams().is_empty());
        }
    }
    let exercised = [regrouped, tree_moves, failed_links, tuned, closed];
    assert!(
        exercised.iter().all(|n| *n > 0),
        "regroups, tree moves, link failures, autotune passes, closures: {exercised:?}"
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

/// Each local subscription's normalised entry per stream, with the
/// cells of that stream's reverse path — derived from the routers, the
/// registry and the trees, not from the ledger.
fn contributions(sys: &Cosmos) -> BTreeMap<(SubscriberId, StreamName), (ProfileEntry, Vec<Cell>)> {
    let mut out = BTreeMap::new();
    for r in &sys.routers {
        for (sub, profile) in r.local_subscribers() {
            for (stream, entry) in profile.iter() {
                let origin = sys.registry.origin(stream).expect("advertised");
                let path = sys.tree_for(origin).path(r.node(), origin);
                let cells = path.windows(2).map(|w| (w[1], w[0], stream.clone()));
                let mut entry = entry.clone();
                entry.normalize();
                out.insert((sub, stream.clone()), (entry, cells.collect()));
            }
        }
    }
    out
}

/// Run `op` and assert that it refolded exactly the cells on the reverse
/// paths of the `(subscription, stream)` entries it added, withdrew or
/// changed — and that there were some.
fn assert_refolds_what_moved<T>(
    sys: &mut Cosmos,
    what: &str,
    op: impl FnOnce(&mut Cosmos) -> T,
) -> T {
    let before = contributions(sys);
    let out = op(sys);
    let after = contributions(sys);
    let keys: BTreeSet<_> = before.keys().chain(after.keys()).collect();
    let moved: BTreeSet<Cell> = keys
        .into_iter()
        .filter(|k| before.get(*k) != after.get(*k))
        .flat_map(|k| before.get(k).into_iter().chain(after.get(k)))
        .flat_map(|(_, cells)| cells.iter().cloned())
        .collect();
    let refolded: BTreeSet<Cell> = sys.ledger.refolded.iter().cloned().collect();
    assert!(!moved.is_empty(), "{what} moves nothing");
    assert_eq!(refolded, moved, "{what}: refolded cells");
    out
}

#[test]
fn control_operations_reindex_only_what_moved() {
    let (mut sys, mut queries, mut rng) = deployment(7, 64, 16, false);
    let mut live = submit_generated(&mut sys, &mut queries, &mut rng, 96);
    // Route something so the plan caches are not trivially empty.
    let mut sensors = cosmos_workload::SensorGenerator::new(0, 7);
    sys.run(sensors.tuples_until(60_000)).unwrap();

    // A rebuild with nothing to change touches nothing.
    assert!(sys.routers.iter().any(|r| r.cached_plan_count() > 0));
    assert_rebuild_changes_nothing(&mut sys, "start-up");

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
    let copy = assert_refolds_what_moved(&mut sys, "a warm join", |sys| {
        sys.submit_query(text, user).unwrap()
    });
    assert_eq!(sys.executor_generation(copy), generation, "joined warm");
    let processor = sys.processor_of(copy).unwrap();
    let path = sys.tree_for(processor).path(user, processor);
    assert_rebuilds_confined_to_path(&sys, &before, &path);

    // Withdrawing it again leaves the group with the representative it
    // had: same confinement.
    let before = maintenance_counters(&sys);
    assert_refolds_what_moved(&mut sys, "a warm withdrawal", |sys| {
        sys.unsubscribe(copy).unwrap()
    });
    assert_rebuilds_confined_to_path(&sys, &before, &path);

    // A widening submit, the unsubscribe that shrinks the group back,
    // and the one that dissolves it.
    let humidity = |lo: f64, hi: f64| {
        format!("SELECT node_id, humidity FROM sensors_05 [Now] WHERE humidity BETWEEN {lo:.1} AND {hi:.1}")
    };
    let narrow = sys.submit_query(&humidity(70.0, 80.0), NodeId(3)).unwrap();
    let generation = sys.executor_generation(narrow);
    let wide = assert_refolds_what_moved(&mut sys, "a widening submit", |sys| {
        sys.submit_query(&humidity(50.0, 90.0), NodeId(40)).unwrap()
    });
    assert_eq!(
        sys.executor_generation(wide),
        sys.executor_generation(narrow)
    );
    assert_ne!(sys.executor_generation(narrow), generation, "widened");
    let generation = sys.executor_generation(narrow);
    assert_refolds_what_moved(&mut sys, "a shrinking unsubscribe", |sys| {
        sys.unsubscribe(wide).unwrap()
    });
    assert_ne!(sys.executor_generation(narrow), generation, "shrunk");
    let processor = sys.processor_of(narrow).unwrap();
    let groups = |sys: &Cosmos| sys.group_manager(processor).unwrap().group_count();
    let before = groups(&sys);
    assert_refolds_what_moved(&mut sys, "a dissolving unsubscribe", |sys| {
        sys.unsubscribe(narrow).unwrap()
    });
    assert_eq!(groups(&sys), before - 1, "dissolved");

    // Two disjoint narrow queries seed separate groups before the wide
    // one arrives: regrouping improves.
    for (lo, hi) in [(0.0, 10.0), (90.0, 100.0), (0.0, 100.0)] {
        sys.submit_query(&humidity(lo, hi), NodeId(9)).unwrap();
    }
    let improved = assert_refolds_what_moved(&mut sys, "a regrouping", |sys| {
        sys.reoptimize_groups().unwrap()
    });
    assert!(improved > 0);

    // Churn leaves no withdrawn subscriber behind: the ledger equals one
    // rebuilt from the local subscriptions, and so do the routers.
    let (mut cells, mut contributors) = (Vec::new(), Vec::new());
    for _ in 0..200 {
        live.extend(submit_generated(&mut sys, &mut queries, &mut rng, 1));
        let (qid, _) = live.swap_remove(rng.gen_range(0..live.len()));
        sys.unsubscribe(qid).unwrap();
        let refolded = &sys.ledger.refolded;
        cells.push(refolded.len());
        contributors.push(
            (refolded.iter())
                .filter_map(|cell| sys.ledger.cells.get(cell))
                .map(Vec::len)
                .sum::<usize>(),
        );
    }
    assert_rebuild_changes_nothing(&mut sys, "after 200 cycles");

    // The sizes DESIGN.md §9 "Route maintenance" quotes: the ledger's
    // cells and contributions, and what an unsubscribe refolds (cells,
    // contributors folded) at the median and p95.
    let quantiles = |mut v: Vec<usize>| {
        v.sort_unstable();
        (v[v.len() / 2], v[v.len() * 95 / 100])
    };
    let ledger = (
        sys.ledger.cells.len(),
        sys.ledger.cells.values().map(Vec::len).sum::<usize>(),
    );
    assert_eq!(ledger, (485, 836), "ledger cells, contributions");
    assert_eq!(quantiles(cells), (9, 20), "cells per unsubscribe");
    assert_eq!(
        quantiles(contributors),
        (17, 39),
        "contributors per unsubscribe"
    );
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
