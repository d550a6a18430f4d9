//! The whole-system correctness invariant: for every query submitted to
//! a COSMOS deployment, the tuples delivered to its user through the
//! content-based network — source-side filtering, early projection,
//! query merging, representative execution, and result-stream splitting
//! included — are exactly the tuples a local, brute-force evaluation of
//! that query over the same inputs produces.
//!
//! The comparison itself lives in `cosmos_testkit` (shared with the
//! `cosmos-sim` scenario harness); these tests keep a corpus of pinned
//! deployments around it. For randomized end-to-end coverage beyond the
//! proptest below, see `crates/testkit` and the CI `sim-sweep` job.

use cosmos::{Cosmos, CosmosConfig};
use cosmos_query::{AttrStats, StatsCatalog, StreamStats};
use cosmos_testkit::assert_results_match_oracle;
use cosmos_types::{AttrType, NodeId, QueryId, Schema, StreamName, Timestamp, Tuple, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn catalog() -> StatsCatalog {
    let mut cat = StatsCatalog::new();
    cat.register(
        "L",
        Schema::of(&[
            ("k", AttrType::Int),
            ("x", AttrType::Int),
            ("timestamp", AttrType::Int),
        ]),
        StreamStats::with_rate(2.0)
            .attr("k", AttrStats::categorical(4.0))
            .attr("x", AttrStats::numeric(0.0, 40.0, 40.0)),
    );
    cat.register(
        "R",
        Schema::of(&[
            ("k", AttrType::Int),
            ("y", AttrType::Int),
            ("timestamp", AttrType::Int),
        ]),
        StreamStats::with_rate(2.0)
            .attr("k", AttrStats::categorical(4.0))
            .attr("y", AttrStats::numeric(0.0, 40.0, 40.0)),
    );
    cat
}

/// Deploy a system with both streams advertised.
fn deploy(nodes: usize, seed: u64, merging: bool) -> Cosmos {
    let mut sys = Cosmos::new(CosmosConfig {
        nodes,
        seed,
        processor_fraction: 0.2,
        merging_enabled: merging,
        ..CosmosConfig::default()
    })
    .unwrap();
    let cat = catalog();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
    for s in ["L", "R"] {
        let key = StreamName::from(s);
        sys.register_stream(
            s,
            cat.schema(&key).unwrap().clone(),
            cat.stats(&key).unwrap().clone(),
            NodeId(rng.gen_range(0..nodes as u32)),
        )
        .unwrap();
    }
    sys
}

/// Check a deployed system against local oracle evaluation.
fn check_deployment(sys: &mut Cosmos, queries: &[(QueryId, String)], inputs: &[Tuple]) {
    sys.run(inputs.iter().cloned()).unwrap();
    assert_results_match_oracle(sys, queries, inputs);
}

fn l(ts: i64, k: i64, x: i64) -> Tuple {
    Tuple::new(
        "L",
        Timestamp(ts),
        vec![Value::Int(k), Value::Int(x), Value::Int(ts)],
    )
}

fn r(ts: i64, k: i64, y: i64) -> Tuple {
    Tuple::new(
        "R",
        Timestamp(ts),
        vec![Value::Int(k), Value::Int(y), Value::Int(ts)],
    )
}

fn demo_inputs(n: i64) -> Vec<Tuple> {
    let mut rng = StdRng::seed_from_u64(7);
    let mut out = Vec::new();
    for i in 0..n {
        let ts = i * 700;
        if rng.gen_bool(0.5) {
            out.push(l(ts, rng.gen_range(0..4), rng.gen_range(0..40)));
        } else {
            out.push(r(ts, rng.gen_range(0..4), rng.gen_range(0..40)));
        }
    }
    out
}

const QUERY_SET: &[&str] = &[
    "SELECT k, x FROM L [Now] WHERE x > 10",
    "SELECT k, x FROM L [Now] WHERE x > 25",
    "SELECT k, x FROM L [Now] WHERE x BETWEEN 5 AND 30",
    "SELECT k FROM R [Now] WHERE y <= 20",
    "SELECT A.k, A.x, B.y FROM L [Range 5 Second] A, R [Range 5 Second] B WHERE A.k = B.k",
    "SELECT A.k, A.x, B.y FROM L [Range 10 Second] A, R [Range 5 Second] B WHERE A.k = B.k",
    "SELECT k, COUNT(*), SUM(x) FROM L [Range 8 Second] GROUP BY k",
    "SELECT k, COUNT(*) FROM L [Range 8 Second] WHERE k BETWEEN 1 AND 2 GROUP BY k",
];

#[test]
fn merged_deployment_matches_local_evaluation() {
    let mut sys = deploy(24, 11, true);
    let mut rng = StdRng::seed_from_u64(5);
    let queries: Vec<(QueryId, String)> = QUERY_SET
        .iter()
        .map(|text| {
            let user = NodeId(rng.gen_range(0..24u32));
            (sys.submit_query(text, user).unwrap(), text.to_string())
        })
        .collect();
    check_deployment(&mut sys, &queries, &demo_inputs(120));
}

#[test]
fn baseline_deployment_matches_local_evaluation() {
    let mut sys = deploy(24, 11, false);
    let mut rng = StdRng::seed_from_u64(5);
    let queries: Vec<(QueryId, String)> = QUERY_SET
        .iter()
        .map(|text| {
            let user = NodeId(rng.gen_range(0..24u32));
            (sys.submit_query(text, user).unwrap(), text.to_string())
        })
        .collect();
    check_deployment(&mut sys, &queries, &demo_inputs(120));
}

#[test]
fn registry_serves_a_selection_end_to_end() {
    let mut sys = deploy(24, 19, true);
    let q = sys
        .submit_query("SELECT k, x FROM L [Now] WHERE x > 20", NodeId(13))
        .unwrap();
    sys.run((0..30).map(|i| l(i * 500, i % 4, i % 40))).unwrap();
    let expected = (0..30).filter(|i| (i % 40) > 20).count();
    assert_eq!(sys.results(q).len(), expected);
}

#[test]
fn duplicate_queries_from_many_users_share_everything() {
    let mut sys = deploy(30, 23, true);
    let text = "SELECT x, COUNT(*) FROM L [Range 5 Second] WHERE x >= 0 GROUP BY x";
    let qids: Vec<QueryId> = (0..10)
        .map(|i| sys.submit_query(text, NodeId(3 * i as u32)).unwrap())
        .collect();
    // The same users' selections share the source stream's paths in the
    // CBN itself, with no group at all.
    let selection = "SELECT k, x FROM L [Now] WHERE x >= 0";
    let direct: Vec<QueryId> = (0..10)
        .map(|i| sys.submit_query(selection, NodeId(3 * i as u32)).unwrap())
        .collect();
    sys.run((0..40).map(|i| l(i * 500, i % 4, i % 40))).unwrap();
    for q in qids.iter().chain(&direct) {
        assert_eq!(sys.results(*q).len(), 40);
    }
    // all ten aggregate users share one representative
    let total_groups: usize = sys
        .processors()
        .iter()
        .filter_map(|p| sys.group_manager(*p))
        .map(|m| m.group_count())
        .sum();
    assert_eq!(total_groups, 1);
    assert!(direct.iter().all(|q| sys.processor_of(*q).is_none()));
}

#[test]
fn per_source_tree_deployment_matches_local_evaluation() {
    let mut sys = Cosmos::new(CosmosConfig {
        nodes: 24,
        seed: 31,
        processor_fraction: 0.2,
        per_source_trees: true,
        ..CosmosConfig::default()
    })
    .unwrap();
    let cat = catalog();
    for (s, origin) in [("L", NodeId(5)), ("R", NodeId(17))] {
        let key = StreamName::from(s);
        sys.register_stream(
            s,
            cat.schema(&key).unwrap().clone(),
            cat.stats(&key).unwrap().clone(),
            origin,
        )
        .unwrap();
    }
    let mut rng = StdRng::seed_from_u64(9);
    let queries: Vec<(QueryId, String)> = QUERY_SET
        .iter()
        .map(|text| {
            let user = NodeId(rng.gen_range(0..24u32));
            (sys.submit_query(text, user).unwrap(), text.to_string())
        })
        .collect();
    check_deployment(&mut sys, &queries, &demo_inputs(100));
}

#[test]
fn reoptimized_deployment_matches_local_evaluation() {
    let mut sys = deploy(20, 41, true);
    let mut rng = StdRng::seed_from_u64(3);
    // adversarial order: narrow selections first, wide one last
    let order = [2usize, 1, 0, 3, 4, 6, 7];
    let queries: Vec<(QueryId, String)> = order
        .iter()
        .map(|&i| {
            let text = QUERY_SET[i];
            let user = NodeId(rng.gen_range(0..20u32));
            (sys.submit_query(text, user).unwrap(), text.to_string())
        })
        .collect();
    sys.reoptimize_groups().unwrap();
    check_deployment(&mut sys, &queries, &demo_inputs(100));
}

/// No generator or workload publishes a string attribute, so this is the
/// one deployment whose tuples carry `Value::Str` through every layer:
/// equality filters on the string (the matcher's eq index hashes the
/// value), projection, merging and a `GROUP BY` on it.
#[test]
fn string_attributes_filter_and_group_end_to_end() {
    let mut sys = deploy(16, 29, true);
    sys.register_stream(
        "Tags",
        Schema::of(&[
            ("tag", AttrType::Str),
            ("v", AttrType::Int),
            ("timestamp", AttrType::Int),
        ]),
        StreamStats::with_rate(2.0)
            .attr("tag", AttrStats::categorical(4.0))
            .attr("v", AttrStats::numeric(0.0, 20.0, 20.0)),
        NodeId(3),
    )
    .unwrap();
    let texts = [
        "SELECT tag, v FROM Tags [Now] WHERE tag = 'b'",
        "SELECT tag, v FROM Tags [Now] WHERE tag = 'é€' AND v > 5",
        "SELECT v FROM Tags [Now] WHERE tag = ''",
        "SELECT tag, COUNT(*), SUM(v) FROM Tags [Range 5 Second] GROUP BY tag",
        "SELECT tag, MAX(v) FROM Tags [Range 3 Second] WHERE tag = 'b' GROUP BY tag",
    ];
    let queries: Vec<(QueryId, String)> = texts
        .iter()
        .enumerate()
        .map(|(i, text)| {
            let user = NodeId(2 * i as u32 + 5);
            (sys.submit_query(text, user).unwrap(), text.to_string())
        })
        .collect();
    let tags = ["a", "b", "é€", ""];
    let mut rng = StdRng::seed_from_u64(17);
    let inputs: Vec<Tuple> = (0..120)
        .map(|i| {
            let ts = i * 400;
            let tag = tags[rng.gen_range(0..tags.len())];
            let v = rng.gen_range(0..20);
            Tuple::new(
                "Tags",
                Timestamp(ts),
                vec![Value::str(tag), Value::Int(v), Value::Int(ts)],
            )
        })
        .collect();
    check_deployment(&mut sys, &queries, &inputs);
    for (qid, text) in &queries {
        assert!(!sys.results(*qid).is_empty(), "vacuous: {text}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random subsets of the query corpus on random topologies: the
    /// distributed deployment always matches local evaluation.
    #[test]
    fn random_deployments_match_local_evaluation(
        seed in 0u64..5000,
        picks in proptest::collection::vec(0usize..8, 1..6),
        n_inputs in 40i64..120,
    ) {
        let mut sys = deploy(16, seed, true);
        let mut rng = StdRng::seed_from_u64(seed);
        let queries: Vec<(QueryId, String)> = picks
            .iter()
            .map(|&i| {
                let text = QUERY_SET[i];
                let user = NodeId(rng.gen_range(0..16u32));
                (sys.submit_query(text, user).unwrap(), text.to_string())
            })
            .collect();
        check_deployment(&mut sys, &queries, &demo_inputs(n_inputs));
    }
}
