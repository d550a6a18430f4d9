//! Route maintenance held to an independent reference and to a cost
//! contract: after every control operation the routers must hold exactly
//! what clearing every router and re-propagating every subscription hop
//! by hop, in `SubscriberId` order, leaves — without a `rebuild_routes`
//! — and an operation must refold only the cells it changed.

use super::*;
use crate::system::{Cosmos, CosmosConfig, DisorderRuntime};
use crate::{AutotuneOptions, OverloadConfig};
use cosmos_query::{GroupManager, StreamStats};
use cosmos_spe::LatePolicy;
use cosmos_types::TimeDelta;
use cosmos_workload::sensor::stream_name;
use cosmos_workload::{sensor_catalog, QueryGenConfig, QueryGenerator};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

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
        let origins: Option<Vec<NodeId>> = profile
            .streams()
            .map(|s| sys.data.registry.origin(s))
            .collect();
        let Some(origins) = origins else {
            continue; // names an unadvertised stream: skipped whole
        };
        for ((stream, entry), origin) in profile.iter().zip(origins) {
            let mut single = Profile::new();
            single.add_entry(*stream, entry.clone());
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

/// Per router, the punctuation destinations of every stream it routes
/// punctuations of (`route_punctuation(stream, None)`, non-empty only).
fn punctuation_marks(sys: &Cosmos) -> Vec<BTreeMap<StreamName, Vec<Destination>>> {
    let routers = sys.data.routers.iter();
    routers
        .map(|r| {
            let held = (r.neighbor_interests().map(|(_, p)| p))
                .chain(r.local_subscribers().map(|(_, p)| p));
            let streams: BTreeSet<StreamName> = held.flat_map(Profile::streams).copied().collect();
            (streams.into_iter())
                .map(|s| (s, r.route_punctuation(&s, None)))
                .filter(|(_, dests)| !dests.is_empty())
                .collect()
        })
        .collect()
}

/// [`punctuation_marks`] as the definition has it, from the SPE inputs
/// (the local subscriptions `subs` lists as such) and the trees alone: each input for every
/// stream it names, and every cell on that stream's reverse path from
/// the input's processor to the stream's origin.
fn spe_input_marks(sys: &Cosmos) -> Vec<BTreeMap<StreamName, Vec<Destination>>> {
    let mut marks = vec![BTreeMap::<StreamName, Vec<Destination>>::new(); sys.data.routers.len()];
    let inputs = (sys.data.routers.iter())
        .flat_map(|r| {
            r.local_subscribers()
                .map(move |(sub, p)| (r.node(), sub, p))
        })
        .filter(|(_, sub, _)| matches!(sys.data.subs.get(sub), Some(LocalSub::Spe(_))));
    for (processor, sub, profile) in inputs {
        for stream in profile.streams() {
            let local = Destination::Local(sub);
            marks[processor.index()]
                .entry(*stream)
                .or_default()
                .push(local);
            let origin = sys.data.registry.origin(stream).expect("advertised");
            for w in sys.tree_for(origin).path(processor, origin).windows(2) {
                let up = marks[w[1].index()].entry(*stream).or_default();
                up.push(Destination::Neighbor(w[0]));
            }
        }
    }
    for dests in marks.iter_mut().flat_map(BTreeMap::values_mut) {
        dests.sort_unstable();
        dests.dedup();
    }
    marks
}

/// The system's routers must already hold what the reference leaves on
/// a clone of them, hash to the same routing digest, and punctuate
/// exactly toward the SPE inputs; a following `rebuild_routes` then
/// re-indexes nothing and finds the ledger it rebuilds from the local
/// subscriptions already in place.
fn assert_routes_match_reference(sys: &mut Cosmos, step: &str) {
    let mut reference = sys.data.routers.clone();
    reference_rebuild(sys, &mut reference);
    for (ours, theirs) in sys.data.routers.iter().zip(&reference) {
        assert!(
            ours.neighbor_interests().eq(theirs.neighbor_interests()),
            "{step}: router {} diverges from the reference",
            ours.node()
        );
    }
    let digest = sys.routing_digest();
    let ours = std::mem::replace(&mut sys.data.routers, reference);
    assert_eq!(digest, sys.routing_digest(), "{step}: routing digest");
    sys.data.routers = ours;
    assert_eq!(
        punctuation_marks(sys),
        spe_input_marks(sys),
        "{step}: punctuation marks"
    );
    assert_rebuild_changes_nothing(sys, step);
}

/// A `rebuild_routes` re-indexes nothing, drops no plan, moves no
/// punctuation mark, and rebuilds exactly the ledger in place: no
/// withdrawn subscriber or closed stream lingers in it.
fn assert_rebuild_changes_nothing(sys: &mut Cosmos, step: &str) {
    let (cells, subs) = (sys.data.ledger.cells.clone(), sys.data.ledger.subs.clone());
    let (before, marks) = (maintenance_counters(sys), punctuation_marks(sys));
    sys.rebuild_routes();
    let moved = maintenance_counters(sys) != before;
    assert!(!moved, "{step}: rebuild moved something");
    assert!(
        punctuation_marks(sys) == marks,
        "{step}: rebuild moved a mark"
    );
    assert!(sys.data.ledger.cells == cells, "{step}: stale ledger cells");
    assert!(
        sys.data.ledger.subs == subs,
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
    sys.data
        .routers
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
    for (r, (was, _)) in sys.data.routers.iter().zip(before) {
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
    for r in &sys.data.routers {
        for (sub, profile) in r.local_subscribers() {
            for (stream, entry) in profile.iter() {
                let origin = sys.data.registry.origin(stream).expect("advertised");
                let path = sys.tree_for(origin).path(r.node(), origin);
                let cells = path.windows(2).map(|w| (w[1], w[0], *stream));
                let mut entry = entry.clone();
                entry.normalize();
                out.insert((sub, *stream), (entry, cells.collect()));
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
    let refolded: BTreeSet<Cell> = sys.data.ledger.refolded.iter().cloned().collect();
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
    // Most hops are relays (DESIGN.md §9 "Relay hops" quotes the share).
    let (relayed, arrived) = relay_share(&sys);
    assert_eq!(
        (relayed, arrived),
        (435, 525),
        "tuples relayed, arrived over a link"
    );
    assert!(relayed * 10 >= arrived * 7, "{relayed} of {arrived}");

    // A rebuild with nothing to change touches nothing.
    assert!(sys.data.routers.iter().any(|r| r.cached_plan_count() > 0));
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
        let refolded = &sys.data.ledger.refolded;
        cells.push(refolded.len());
        contributors.push(
            (refolded.iter())
                .filter_map(|cell| sys.data.ledger.cells.get(cell))
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
        sys.data.ledger.cells.len(),
        sys.data.ledger.cells.values().map(Vec::len).sum::<usize>(),
    );
    assert_eq!(ledger, (485, 836), "ledger cells, contributions");
    assert_eq!(quantiles(cells), (9, 20), "cells per unsubscribe");
    assert_eq!(
        quantiles(contributors),
        (17, 39),
        "contributors per unsubscribe"
    );
}

/// A chain `0 - 1 - … - (n-1)` whose one processor is node 0, the origin
/// of `S(k, x, timestamp)`.
fn chain(n: u32) -> Cosmos {
    use cosmos_query::AttrStats;
    use cosmos_types::AttrType;
    let mut g = Graph::new(n as usize);
    for i in 0..n {
        g.set_position(NodeId(i), i as f64 / n as f64, 0.0);
    }
    for i in 0..n - 1 {
        g.add_edge_by_distance(NodeId(i), NodeId(i + 1)).unwrap();
    }
    let cfg = CosmosConfig {
        nodes: n as usize,
        processor_fraction: 1.0 / n as f64,
        ..CosmosConfig::default()
    };
    let mut sys = Cosmos::with_graph(cfg, g).unwrap();
    assert_eq!(sys.processors(), [NodeId(0)]);
    let schema = Schema::of(&[
        ("k", AttrType::Int),
        ("x", AttrType::Float),
        ("timestamp", AttrType::Int),
    ]);
    let stats = StreamStats::with_rate(1.0)
        .attr("k", AttrStats::categorical(10.0))
        .attr("x", AttrStats::numeric(0.0, 100.0, 100.0));
    sys.register_stream("S", schema, stats, NodeId(0)).unwrap();
    sys
}

/// `S` tuples `from..to`, one a second, `x` sweeping `0..100`.
fn s_tuples(from: i64, to: i64) -> impl Iterator<Item = Tuple> {
    use cosmos_types::Value;
    (from..to).map(|i| {
        let values = vec![
            Value::Int(i % 7),
            Value::Float((i * 37 % 100) as f64),
            Value::Int(i * 1000),
        ];
        Tuple::new("S", Timestamp(i * 1000), values)
    })
}

/// Tuples each router has relayed so far, by node.
fn relayed(sys: &Cosmos) -> Vec<u64> {
    sys.data
        .routers
        .iter()
        .map(Router::tuples_relayed)
        .collect()
}

fn total_relayed(sys: &Cosmos) -> u64 {
    relayed(sys).iter().sum()
}

/// `(relayed, arrived)`: tuples relayed, and hop tuples that arrived
/// over a link — every link crossing of a data tuple is one.
fn relay_share(sys: &Cosmos) -> (u64, u64) {
    let arrived = sys.metrics().links.iter().map(|l| l.tuples).sum();
    (total_relayed(sys), arrived)
}

#[test]
fn chain_relays_and_delivers_what_routing_delivers() {
    let query = "SELECT k, x FROM S [Now] WHERE x > 30.0";
    let run = |block_relays: bool| {
        let mut sys = chain(6);
        let q = sys.submit_query(query, NodeId(5)).unwrap();
        if block_relays {
            // Every middle node also holds an entry for the result stream
            // that matches nothing: a second destination, so no hop
            // relays, and nothing else changes.
            let stream = *sys.rep_states()[0].result_stream;
            let mut dead = cosmos_cbn::Conjunction::always();
            dead.between("k", 5, 1);
            let mut profile = Profile::new();
            profile.add_interest(stream, cosmos_cbn::Projection::All, dead);
            for node in 1..5 {
                sys.data.routers[node]
                    .add_local_subscriber(SubscriberId(u64::MAX), profile.clone());
            }
        }
        sys.run(s_tuples(0, 200)).unwrap();
        let links: Vec<u64> = (0..5)
            .map(|i| sys.link_bytes(NodeId(i), NodeId(i + 1)))
            .collect();
        (sys.results(q).to_vec(), links, relayed(&sys))
    };
    let (delivered, links, relays) = run(false);
    let (reference, reference_links, no_relays) = run(true);
    assert_eq!(delivered, reference, "deliveries");
    assert_eq!(links, reference_links, "bytes per link");
    // The source stream never leaves its origin, the processor; the
    // result stream is relayed by every node after it, the user's own
    // router included (its entry is the one its upstream holds).
    let n = delivered.len() as u64;
    assert!(n > 100 && links.iter().all(|b| *b > 0), "{n} {links:?}");
    assert_eq!(relays, [0, n, n, n, n, n]);
    assert_eq!(no_relays, [0, 0, 0, 0, 0, n], "the middle nodes route");
}

#[test]
fn a_second_subscriber_turns_its_branch_node_from_relay_to_route() {
    let query = "SELECT k, x FROM S [Now] WHERE x > 30.0";
    let mut sys = chain(5);
    let far = sys.submit_query(query, NodeId(4)).unwrap();
    sys.run(s_tuples(0, 50)).unwrap();
    let n = sys.results(far).len() as u64;
    assert_eq!(relayed(&sys), [0, n, n, n, n]);

    let near = sys.submit_query(query, NodeId(2)).unwrap();
    assert_eq!(sys.rep_states().len(), 1, "one group, one result stream");
    let before = relayed(&sys);
    sys.run(s_tuples(50, 100)).unwrap();
    let m = sys.results(near).len() as u64;
    assert_eq!(sys.results(far).len() as u64, n + m);
    let grew: Vec<u64> = relayed(&sys)
        .iter()
        .zip(&before)
        .map(|(a, b)| a - b)
        .collect();
    assert_eq!(
        grew,
        [0, m, 0, m, m],
        "node 2 delivers and forwards: routed"
    );

    sys.unsubscribe(near).unwrap();
    let before = relayed(&sys);
    sys.run(s_tuples(100, 150)).unwrap();
    let k = sys.results(far).len() as u64 - (n + m);
    let grew: Vec<u64> = relayed(&sys)
        .iter()
        .zip(&before)
        .map(|(a, b)| a - b)
        .collect();
    assert_eq!(grew, [0, k, k, k, k], "withdrawn: node 2 relays again");
}

#[test]
fn a_user_entry_without_its_split_filter_attribute_is_routed() {
    // The narrow query joins the wide one's group; its split filter on
    // `x` stays on its user entry, whose projection drops `x`.
    let mut sys = chain(4);
    let wide = sys
        .submit_query("SELECT k, x FROM S [Now] WHERE x > 10.0", NodeId(2))
        .unwrap();
    let narrow = sys
        .submit_query("SELECT k FROM S [Now] WHERE x > 60.0", NodeId(3))
        .unwrap();
    assert_eq!(sys.rep_states().len(), 1, "one group");
    let stream = *sys.rep_states()[0].result_stream;
    let user = sys.router(NodeId(3)).local_subscribers().next().unwrap();
    let entry = user.1.entry(&stream).unwrap();
    assert!(!entry.is_normalized(), "{entry:?}");
    sys.run(s_tuples(0, 100)).unwrap();
    let (w, n) = (sys.results(wide).len(), sys.results(narrow).len());
    assert!(w > n && n > 0, "{w} {n}");
    assert!(sys.results(narrow).iter().all(|t| t.arity() == 1));
    assert_eq!(
        sys.router(NodeId(3)).tuples_relayed(),
        0,
        "routed, not relayed"
    );
    assert_eq!(sys.router(NodeId(1)).tuples_relayed(), w as u64);
}

#[test]
fn relay_verdicts_read_the_upstream_router_not_the_ledger() {
    // The query at node 3 joins the wider one at node 2, so its user
    // entry keeps a split filter on `x`.
    let mut sys = chain(4);
    sys.submit_query("SELECT k, x FROM S [Now] WHERE x > 10.0", NodeId(2))
        .unwrap();
    let q = sys
        .submit_query("SELECT k, x FROM S [Now] WHERE x > 60.0", NodeId(3))
        .unwrap();
    sys.run(s_tuples(0, 50)).unwrap();
    let n = sys.results(q).len() as u64;
    assert_eq!(relayed(&sys)[3], n);
    // Behind the ledger's back, node 2 stops sending the filtered
    // attribute to node 3: the hops node 3 now receives match nothing
    // there. Relaying them would deliver them.
    let stream = *sys.rep_states()[0].result_stream;
    let sent = sys.router(NodeId(2)).neighbor_interest(NodeId(3)).unwrap();
    let mut entry = sent.entry(&stream).unwrap().clone();
    let filtered: BTreeSet<&str> = entry.filters.iter().flat_map(|f| f.referenced()).collect();
    assert!(!filtered.is_empty(), "{entry:?}");
    let schema = &sys.data.registry.peek(&stream).unwrap().schema;
    let kept = schema.names().filter(|a| !filtered.contains(a));
    entry.projection = cosmos_cbn::Projection::of(kept);
    sys.data.routers[2].set_neighbor_entry(NodeId(3), &stream, Some(entry));
    sys.run(s_tuples(50, 100)).unwrap();
    assert_eq!(sys.results(q).len() as u64, n, "dropped at node 3");
    assert_eq!(relayed(&sys)[3], n, "routed, not relayed");
}

/// Relay verdicts are derived from both routers' entries at every hop;
/// interleave every control operation that moves entries with
/// publishing, under disorder (so `close_streams` drains staged results
/// through the relays), on shared and per-source trees. A stale verdict
/// would relay a hop routing changes, which the debug cross-check in
/// `Router::relay_batch` turns into a panic.
#[test]
fn relay_verdicts_follow_every_control_operation() {
    let mut relayed_after = BTreeMap::<&str, u64>::new();
    for seed in 0..6u64 {
        for per_source_trees in [false, true] {
            let (mut sys, mut queries, mut rng) = deployment(seed, 16, 4, per_source_trees);
            sys.set_disorder(Some(DisorderRuntime {
                bound: TimeDelta::from_millis(1_000),
                policy: LatePolicy::Drop,
            }));
            let mut live = submit_generated(&mut sys, &mut queries, &mut rng, 12);
            let mut sensors: Vec<_> = (0..4)
                .map(|i| cosmos_workload::SensorGenerator::new(i, seed))
                .collect();
            let mut until = 0;
            let mut publish = |sys: &mut Cosmos, what: &'static str| {
                let before = total_relayed(sys);
                until += 20_000;
                let inputs = cosmos_workload::sensor::merged_inputs(&mut sensors, until);
                sys.run(inputs).unwrap();
                *relayed_after.entry(what).or_default() += total_relayed(sys) - before;
            };
            publish(&mut sys, "start-up");
            for step in 0..10 {
                let what = match step % 5 {
                    0 => {
                        sys.optimize_tree(cosmos_overlay::OptimizerConfig::default());
                        "optimize_tree"
                    }
                    1 => {
                        let edges: Vec<(NodeId, NodeId)> = sys.tree().edges().collect();
                        let (a, b) = edges[rng.gen_range(0..edges.len())];
                        if sys.fail_tree_link(a, b).is_ok() {
                            publish(&mut sys, "failed link");
                            sys.heal_tree_link(a, b).unwrap();
                        }
                        "healed link"
                    }
                    2 => {
                        live.extend(submit_generated(&mut sys, &mut queries, &mut rng, 2));
                        "submit"
                    }
                    3 => {
                        let (qid, _) = live.swap_remove(rng.gen_range(0..live.len()));
                        sys.unsubscribe(qid).unwrap();
                        "unsubscribe"
                    }
                    _ => {
                        sys.reoptimize_groups().unwrap();
                        "reoptimize_groups"
                    }
                };
                publish(&mut sys, what);
            }
            let before = total_relayed(&sys);
            sys.close_streams();
            *relayed_after.entry("close_streams").or_default() += total_relayed(&sys) - before;
        }
    }
    assert!(
        relayed_after.values().all(|n| *n > 0),
        "relays after each operation: {relayed_after:?}"
    );
}

/// A watermark walk crosses exactly the links on the reverse paths of
/// the SPE inputs of its stream, once each, at `Punctuation::WIRE_BYTES`
/// a crossing — derived from the representatives' inputs and the trees
/// ([`spe_input_marks`]), not from any router. The executors it advances punctuate their
/// result streams in turn, and those cross no link at all: only user
/// subscriptions read a result stream. Nothing is published, so the
/// walks drain no data onto the links.
#[test]
fn punctuations_cross_only_the_spe_inputs_reverse_paths() {
    let (mut crossings, mut result_walks) = (0, 0);
    for seed in 0..6u64 {
        for per_source_trees in [false, true] {
            let (mut sys, mut queries, mut rng) = deployment(seed, 16, 4, per_source_trees);
            sys.set_disorder(Some(DisorderRuntime {
                bound: TimeDelta::from_millis(1_000),
                policy: LatePolicy::Drop,
            }));
            submit_generated(&mut sys, &mut queries, &mut rng, 12);
            let marks = spe_input_marks(&sys);
            let results: BTreeSet<StreamName> = (sys.rep_states().iter())
                .map(|v| *v.result_stream)
                .collect();
            let sources: Vec<(StreamName, NodeId)> = (sys.data.registry.iter())
                .filter(|r| !results.contains(&r.name))
                .map(|r| (r.name, r.origin))
                .collect();
            for (stream, origin) in sources {
                let before = sys.data.link_bytes.clone();
                sys.data
                    .disseminate_watermark(&mut sys.query, stream, Timestamp(0), origin);
                let crossed: BTreeMap<(NodeId, NodeId), u64> = (sys.data.link_bytes.iter())
                    .map(|(link, bytes)| (*link, bytes - before.get(link).copied().unwrap_or(0)))
                    .filter(|(_, bytes)| *bytes > 0)
                    .collect();
                let wire = Punctuation::WIRE_BYTES as u64;
                let want: BTreeMap<(NodeId, NodeId), u64> = (marks.iter().enumerate())
                    .flat_map(|(up, m)| m.get(&stream).into_iter().flatten().map(move |d| (up, d)))
                    .filter_map(|(up, dest)| match dest {
                        Destination::Neighbor(n) => {
                            let up = NodeId(up as u32);
                            Some(((up.min(*n), up.max(*n)), wire))
                        }
                        Destination::Local(_) => None,
                    })
                    .collect();
                let step = format!("seed {seed} trees {per_source_trees} stream {stream}");
                assert_eq!(crossed, want, "{step}");
                crossings += want.len();
            }
            result_walks += (results.iter())
                .filter(|r| sys.data.disorder.emitted.contains_key(*r))
                .count();
        }
    }
    assert!(
        crossings > 0 && result_walks > 0,
        "{crossings} crossings, {result_walks} result-stream walks"
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

/// Tree repairs heal over any live pair, shortest paths walk overlay
/// edges only: once a bridge fails, a later origin reaches part of the
/// overlay through no edge at all, and its per-source tree must still
/// span every node.
#[test]
fn an_origin_behind_a_failed_bridge_gets_a_spanning_tree() {
    use cosmos_types::{AttrType, Value};
    let mut g = Graph::new(4);
    for i in 0..4 {
        g.set_position(NodeId(i), 0.25 * i as f64, 0.0);
    }
    for i in 0..3 {
        g.add_edge_by_distance(NodeId(i), NodeId(i + 1)).unwrap();
    }
    let cfg = CosmosConfig {
        nodes: 4,
        processor_fraction: 0.25,
        per_source_trees: true,
        ..CosmosConfig::default()
    };
    let mut sys = Cosmos::with_graph(cfg, g).unwrap();
    let schema = Schema::of(&[("k", AttrType::Int), ("timestamp", AttrType::Int)]);
    let stats = StreamStats::with_rate(1.0);
    sys.register_stream("S", schema.clone(), stats.clone(), NodeId(0))
        .unwrap();
    sys.fail_tree_link(NodeId(1), NodeId(2)).unwrap();
    sys.register_stream("T", schema, stats, NodeId(3)).unwrap();
    let q = sys
        .submit_query("SELECT k FROM T [Now]", NodeId(1))
        .unwrap();
    let values = vec![Value::Int(7), Value::Int(0)];
    sys.publish(&Tuple::new("T", Timestamp(0), values)).unwrap();
    assert_eq!(sys.results(q).len(), 1);
    let json = sys.snapshot().unwrap().to_json().unwrap();
    let diags = cosmos_verify::verify_snapshot(&serde_json::from_str(&json).unwrap());
    assert!(!cosmos_verify::has_violations(&diags), "{diags:?}");
}
