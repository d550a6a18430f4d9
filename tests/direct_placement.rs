//! Direct placement, differentially: while a deployment runs in order, a
//! query that reads one stream and has no aggregate and no DISTINCT is
//! served by the CBN alone — its user subscribes to the source stream
//! with the query's selection and output attributes, and no processor,
//! executor or result stream is involved. Every row it delivers must be
//! the local evaluation's (`cosmos_spe::oracle::evaluate`), column for
//! column: the projection keeps the output attributes and nothing else,
//! even where the filter reads attributes the query does not select.
//! Arming out-of-order operation moves such queries into groups and
//! disarming moves them back; across both moves they must deliver what
//! an always-in-order twin delivers.

use cosmos::{Cosmos, CosmosConfig, DisorderRuntime, LatePolicy};
use cosmos_query::{AttrStats, StreamStats};
use cosmos_spe::{oracle, AnalyzedQuery, OutputColumn};
use cosmos_testkit::normalize_delivered;
use cosmos_types::{AttrType, NodeId, QueryId, Schema, TimeDelta, Timestamp, Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ATTRS: [&str; 4] = ["k", "x", "tag", "timestamp"];

fn schema() -> Schema {
    Schema::of(&[
        ("k", AttrType::Int),
        ("x", AttrType::Float),
        ("tag", AttrType::Str),
        ("timestamp", AttrType::Int),
    ])
}

/// A deployment of `nodes` nodes with `S` advertised at a random node.
fn deploy(rng: &mut StdRng, nodes: usize) -> Cosmos {
    let mut sys = Cosmos::new(CosmosConfig {
        nodes,
        seed: rng.gen(),
        processor_fraction: 0.25,
        ..CosmosConfig::default()
    })
    .unwrap();
    let stats = StreamStats::with_rate(1.0)
        .attr("k", AttrStats::categorical(8.0))
        .attr("x", AttrStats::numeric(0.0, 100.0, 100.0))
        .attr("tag", AttrStats::categorical(3.0));
    let origin = NodeId(rng.gen_range(0..nodes as u32));
    sys.register_stream("S", schema(), stats, origin).unwrap();
    sys
}

/// `n` tuples of `S`, one every 250 ms from `from`.
fn inputs(rng: &mut StdRng, from: i64, n: i64) -> Vec<Tuple> {
    (from..from + n)
        .map(|i| {
            let ts = i * 250;
            let values = vec![
                Value::Int(rng.gen_range(0..8)),
                Value::Float(rng.gen_range(0..100) as f64),
                Value::str(["a", "b", "c"][rng.gen_range(0..3usize)]),
                Value::Int(ts),
            ];
            Tuple::new("S", Timestamp(ts), values)
        })
        .collect()
}

/// A random single-stream select-project query: a random non-empty
/// output list (in any order, `*`, or with a repeated column), and a
/// conjunction of zero to three predicates on any attribute — selected
/// or not.
fn selection(rng: &mut StdRng) -> String {
    let columns = match rng.gen_range(0..8) {
        0 => "*".to_string(),
        1 => {
            let a = ATTRS[rng.gen_range(0..ATTRS.len())];
            format!("{a}, k, {a}")
        }
        _ => {
            let mut picked: Vec<&str> = ATTRS
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(0.5))
                .collect();
            if picked.is_empty() {
                picked.push(ATTRS[rng.gen_range(0..ATTRS.len())]);
            }
            if rng.gen_bool(0.5) {
                picked.reverse();
            }
            picked.join(", ")
        }
    };
    let window = ["[Now]", "[Range 2 Second]", "[Unbounded]"][rng.gen_range(0..3usize)];
    let predicates: Vec<String> = (0..rng.gen_range(0..4))
        .map(|_| match rng.gen_range(0..5) {
            0 => format!("k = {}", rng.gen_range(0..8)),
            1 => format!(
                "k BETWEEN {} AND {}",
                rng.gen_range(0..4),
                rng.gen_range(4..8)
            ),
            2 => format!("x > {}.0", rng.gen_range(0..100)),
            3 => format!("x <= {}.5", rng.gen_range(0..100)),
            _ => format!("tag = '{}'", ["a", "b", "c"][rng.gen_range(0..3usize)]),
        })
        .collect();
    let mut text = format!("SELECT {columns} FROM S {window}");
    if !predicates.is_empty() {
        text.push_str(&format!(" WHERE {}", predicates.join(" AND ")));
    }
    text
}

fn analyze(sys: &Cosmos, text: &str) -> AnalyzedQuery {
    let parsed = cosmos_cql::parse_query(text).unwrap();
    AnalyzedQuery::analyze(&parsed, sys.catalog().schema_fn()).unwrap()
}

/// The local evaluation of `q` over `published`, each row's columns put
/// in the source schema's order — the order a projection keeps them in.
fn expected(q: &AnalyzedQuery, published: &[Tuple]) -> Vec<(Timestamp, Vec<Value>)> {
    let schema = schema();
    let mut order: Vec<(usize, usize)> = (q.output.iter().enumerate())
        .map(|(i, c)| match c {
            OutputColumn::Attr(a) => (schema.index_of(&a.name).unwrap(), i),
            OutputColumn::Agg { .. } => unreachable!("a selection has no aggregate"),
        })
        .collect();
    order.sort_unstable();
    (oracle::evaluate(q, "ref", published).iter())
        .map(|t| {
            let row = order.iter().map(|&(_, i)| t.values()[i].clone());
            (t.timestamp, row.collect())
        })
        .collect()
}

fn delivered(sys: &Cosmos, q: QueryId) -> Vec<(Timestamp, Vec<Value>)> {
    (sys.results(q).iter())
        .map(|t| (t.timestamp, t.values().to_vec()))
        .collect()
}

/// Submit random selections from random users until `n` were accepted
/// (lint refuses the unsatisfiable ones, analysis the repeated columns —
/// leaving no state behind).
fn submit(sys: &mut Cosmos, rng: &mut StdRng, n: usize) -> Vec<(QueryId, String)> {
    let nodes = sys.graph().node_count() as u32;
    let mut live = Vec::new();
    while live.len() < n {
        let text = selection(rng);
        let before = sys.query_count();
        match sys.submit_query(&text, NodeId(rng.gen_range(0..nodes))) {
            Ok(q) => live.push((q, text)),
            Err(_) => assert_eq!(sys.query_count(), before, "{text} left state"),
        }
    }
    live
}

#[test]
fn direct_queries_deliver_the_local_evaluation() {
    let mut rng = StdRng::seed_from_u64(51);
    let mut checked = 0;
    for round in 0..24 {
        let nodes = rng.gen_range(4..12);
        let mut sys = deploy(&mut rng, nodes);
        let mut queries = submit(&mut sys, &mut rng, 6);
        let mut published = Vec::new();
        let mut starts = vec![0; queries.len()];
        for phase in 0..3 {
            for batch in inputs(&mut rng, published.len() as i64, 40).chunks(7) {
                sys.publish_batch(batch).unwrap();
                published.extend_from_slice(batch);
            }
            // Late joiners see only what is published after them.
            if phase == 0 {
                let more = submit(&mut sys, &mut rng, 2);
                starts.extend(more.iter().map(|_| published.len()));
                queries.extend(more);
            }
        }
        assert!(
            sys.rep_states().is_empty(),
            "round {round}: no executor runs"
        );
        for ((q, text), start) in queries.iter().zip(starts) {
            assert_eq!(sys.processor_of(*q), None, "round {round}: {text}");
            assert_eq!(sys.executor_generation(*q), None, "round {round}: {text}");
            let want = expected(&analyze(&sys, text), &published[start..]);
            assert_eq!(delivered(&sys, *q), want, "round {round}: {text}");
            checked += want.len();
        }
        let snap = sys.snapshot().unwrap();
        assert_eq!(snap.direct.len(), queries.len(), "round {round}");
        let diags = cosmos_verify::verify_snapshot(&snap);
        assert!(
            !cosmos_verify::has_violations(&diags),
            "round {round}: {diags:?}"
        );
    }
    assert!(checked > 1_000, "only {checked} rows checked");
}

#[test]
fn arming_and_disarming_disorder_delivers_what_in_order_delivers() {
    let mut rng = StdRng::seed_from_u64(52);
    let runtime = DisorderRuntime {
        bound: TimeDelta::from_millis(1_000),
        policy: LatePolicy::Drop,
    };
    let mut moved = 0;
    for round in 0..12 {
        let nodes = rng.gen_range(4..12);
        let seed = rng.gen();
        let (mut sys, mut twin) = {
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = StdRng::seed_from_u64(seed);
            (deploy(&mut a, nodes), deploy(&mut b, nodes))
        };
        let mut texts = StdRng::seed_from_u64(seed);
        let queries = submit(&mut sys, &mut texts, 5);
        let mut texts = StdRng::seed_from_u64(seed);
        let twins = submit(&mut twin, &mut texts, 5);
        let feed = inputs(&mut rng, 0, 120);
        for (i, batch) in feed.chunks(8).enumerate() {
            match i {
                3 => sys.set_disorder(Some(runtime)),
                9 => sys.set_disorder(None),
                _ => {}
            }
            if i == 4 {
                // Armed: every query runs in a group.
                moved += queries
                    .iter()
                    .filter(|(q, _)| sys.processor_of(*q).is_some())
                    .count();
                assert!(!sys.rep_states().is_empty(), "round {round}");
            }
            sys.publish_batch(batch).unwrap();
            twin.publish_batch(batch).unwrap();
        }
        for ((q, text), (t, _)) in queries.iter().zip(&twins) {
            assert_eq!(sys.processor_of(*q), None, "round {round}: back in the CBN");
            assert_eq!(
                normalize_delivered(sys.results(*q)),
                normalize_delivered(twin.results(*t)),
                "round {round}: {text}"
            );
        }
        assert!(
            sys.rep_states().is_empty(),
            "round {round}: every group dissolved"
        );
        assert!(sys.disorder_totals().conserved(), "round {round}");
    }
    assert!(moved > 0, "no query was ever grouped");
}
