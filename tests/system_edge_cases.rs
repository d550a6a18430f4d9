//! System-level edge cases: query distribution policy, accounting
//! consistency, the registry under many result streams, and determinism
//! of whole deployments.

use cosmos::{Cosmos, CosmosConfig, NodeRole};
use cosmos_query::{AttrStats, StreamStats};
use cosmos_types::{AttrType, NodeId, Schema, Timestamp, Tuple, Value};

fn schema() -> Schema {
    Schema::of(&[
        ("k", AttrType::Int),
        ("x", AttrType::Float),
        ("timestamp", AttrType::Int),
    ])
}

fn stats() -> StreamStats {
    StreamStats::with_rate(1.0)
        .attr("k", AttrStats::categorical(16.0))
        .attr("x", AttrStats::numeric(0.0, 100.0, 200.0))
}

fn tup(ts: i64, k: i64, x: f64) -> Tuple {
    Tuple::new(
        "S",
        Timestamp(ts),
        vec![Value::Int(k), Value::Float(x), Value::Int(ts)],
    )
}

fn deploy(cfg: CosmosConfig) -> Cosmos {
    let mut sys = Cosmos::new(cfg).unwrap();
    sys.register_stream("S", schema(), stats(), NodeId(1))
        .unwrap();
    sys
}

#[test]
fn affinity_one_concentrates_affinity_many_balances() {
    // With one candidate processor per stream set, all queries over S
    // land together; with many candidates, load spreads.
    let run = |affinity: usize| -> Vec<usize> {
        let mut sys = deploy(CosmosConfig {
            nodes: 40,
            seed: 9,
            processor_fraction: 0.2,
            affinity_candidates: affinity,
            merging_enabled: false, // isolate the distribution policy
            ..CosmosConfig::default()
        });
        let mut counts = vec![0usize; 40];
        for i in 0..32 {
            // DISTINCT keeps state, so the query needs a processor.
            let q = sys
                .submit_query("SELECT DISTINCT k FROM S [Now]", NodeId(i % 40))
                .unwrap();
            counts[sys.processor_of(q).unwrap().index()] += 1;
            // A stateless selection is served by the CBN alone and
            // loads no processor.
            let direct = sys.submit_query("SELECT k FROM S [Now]", NodeId(i % 40));
            assert_eq!(sys.processor_of(direct.unwrap()), None);
        }
        counts
    };
    let concentrated = run(1);
    assert_eq!(concentrated.iter().filter(|&&c| c > 0).count(), 1);
    let spread = run(8);
    let busy = spread.iter().filter(|&&c| c > 0).count();
    assert!(
        busy >= 4,
        "affinity 8 should use several processors, used {busy}"
    );
    // least-loaded choice keeps the spread flat
    let max = spread.iter().max().unwrap();
    let min_busy = spread.iter().filter(|&&c| c > 0).min().unwrap();
    assert!(max - min_busy <= 1, "unbalanced spread: {spread:?}");
}

#[test]
fn processor_roles_match_fraction() {
    let sys = deploy(CosmosConfig {
        nodes: 40,
        seed: 1,
        processor_fraction: 0.25,
        ..CosmosConfig::default()
    });
    let processors = (0..40u32)
        .filter(|&i| sys.role(NodeId(i)) == NodeRole::Processor)
        .count();
    assert_eq!(processors, 10);
    assert_eq!(sys.processors().len(), 10);
}

#[test]
fn weighted_cost_and_bytes_move_together() {
    let mut sys = deploy(CosmosConfig {
        nodes: 12,
        seed: 3,
        ..CosmosConfig::default()
    });
    sys.submit_query("SELECT k, x FROM S [Now]", NodeId(7))
        .unwrap();
    let mut last_bytes = 0;
    let mut last_cost = 0.0;
    for i in 0..10 {
        sys.publish(&tup(i * 1000, i, i as f64)).unwrap();
        assert!(sys.total_bytes() >= last_bytes);
        assert!(sys.weighted_cost() >= last_cost);
        last_bytes = sys.total_bytes();
        last_cost = sys.weighted_cost();
    }
    assert!(last_bytes > 0);
}

#[test]
fn whole_deployments_are_deterministic() {
    let run = || {
        let mut sys = deploy(CosmosConfig {
            nodes: 24,
            seed: 77,
            ..CosmosConfig::default()
        });
        let q = sys
            .submit_query("SELECT k, x FROM S [Now] WHERE x > 25.0", NodeId(13))
            .unwrap();
        sys.run((0..40).map(|i| tup(i * 250, i % 16, (i % 100) as f64)))
            .unwrap();
        (
            sys.results(q).to_vec(),
            sys.total_bytes(),
            sys.weighted_cost().to_bits(),
            sys.processor_of(q),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn registry_advertises_many_result_streams() {
    let mut sys = Cosmos::new(CosmosConfig {
        nodes: 30,
        seed: 4,
        merging_enabled: false, // one result stream per query
        ..CosmosConfig::default()
    })
    .unwrap();
    sys.register_stream("S", schema(), stats(), NodeId(1))
        .unwrap();
    let qids: Vec<_> = (0..12)
        .map(|i| {
            sys.submit_query("SELECT DISTINCT k FROM S [Now]", NodeId(i * 2))
                .unwrap()
        })
        .collect();
    // A stateless selection advertises no result stream: the CBN
    // serves it from the source stream.
    let direct = sys
        .submit_query("SELECT k FROM S [Now]", NodeId(5))
        .unwrap();
    let advertised = sys.registry().iter().count();
    assert_eq!(advertised, 13, "the source and 12 result streams");
    sys.run((0..10).map(|i| tup(i * 1000, i, 1.0))).unwrap();
    for q in qids.into_iter().chain([direct]) {
        assert_eq!(sys.results(q).len(), 10);
    }
}

#[test]
fn unsubscribe_collapses_group_to_remaining_member() {
    let mut sys = deploy(CosmosConfig {
        nodes: 16,
        seed: 6,
        affinity_candidates: 1, // both queries land on the same processor
        ..CosmosConfig::default()
    });
    // Aggregates keep state, so they are grouped at a processor (the
    // selections alone would be served by the CBN: no group to collapse).
    let wide = sys
        .submit_query(
            "SELECT x, COUNT(*) FROM S [Range 5 Second] WHERE x >= 0.0 GROUP BY x",
            NodeId(3),
        )
        .unwrap();
    let narrow = sys
        .submit_query(
            "SELECT x, COUNT(*) FROM S [Range 5 Second] WHERE x > 50.0 GROUP BY x",
            NodeId(9),
        )
        .unwrap();
    let selection = sys
        .submit_query("SELECT k, x FROM S [Now] WHERE x > 50.0", NodeId(9))
        .unwrap();
    assert_eq!(sys.processor_of(selection), None);
    let p = sys.processor_of(narrow).unwrap();
    {
        let mgr = sys.group_manager(p).unwrap();
        assert_eq!(mgr.group_count(), 1, "the two aggregates must merge");
        let g = mgr.groups().next().unwrap();
        assert_eq!(g.members.len(), 2);
        let narrow_q = &g.members.iter().find(|(m, _)| *m == narrow).unwrap().1;
        assert_ne!(
            &g.representative, narrow_q,
            "the representative must be wider than the narrow member"
        );
    }

    // Withdrawing the wide member shrinks the group to a singleton whose
    // representative collapses back to the member query itself...
    sys.unsubscribe(wide).unwrap();
    {
        let mgr = sys.group_manager(p).unwrap();
        assert_eq!(mgr.group_count(), 1);
        let g = mgr.groups().next().unwrap();
        assert_eq!(g.members.len(), 1);
        assert_eq!(g.members[0].0, narrow);
        assert_eq!(
            g.representative, g.members[0].1,
            "singleton representative must equal its member"
        );
    }
    // ...and self-tuning finds nothing left to improve.
    assert_eq!(sys.reoptimize_groups().unwrap(), 0);

    // The collapsed representative filters at the source again: only
    // x > 50 survives, delivered solely to the remaining query.
    sys.run((0..20).map(|i| tup(i * 1000, i, (i * 10) as f64)))
        .unwrap();
    let expected = (0..20).filter(|i| i * 10 > 50).count();
    assert_eq!(sys.results(narrow).len(), expected);
    assert_eq!(sys.results(selection).len(), expected);
    assert_eq!(sys.results(wide).len(), 0, "withdrawn before any input");
}

#[test]
fn advertisement_and_subscription_are_decoupled() {
    let mut sys = deploy(CosmosConfig {
        nodes: 16,
        seed: 8,
        ..CosmosConfig::default()
    });

    // An advertised stream with no subscribers absorbs publishes: they
    // route nowhere and deliver nothing, but they are not errors.
    for i in 0..5 {
        sys.publish(&tup(i * 1000, i, 60.0)).unwrap();
    }

    // An unadvertised stream bounces both publishes and queries.
    let t = Tuple::new(
        "T",
        Timestamp(0),
        vec![Value::Int(0), Value::Float(1.0), Value::Int(0)],
    );
    assert!(sys.publish(&t).is_err(), "publish before advertisement");
    assert!(
        sys.submit_query("SELECT k FROM T [Now]", NodeId(2))
            .is_err(),
        "subscribe before advertisement"
    );

    // Advertising T after queries over S already exist opens it up.
    let on_s = sys
        .submit_query("SELECT k, x FROM S [Now] WHERE x > 50.0", NodeId(4))
        .unwrap();
    sys.register_stream("T", schema(), stats(), NodeId(7))
        .unwrap();
    let on_t = sys
        .submit_query("SELECT k FROM T [Now]", NodeId(11))
        .unwrap();

    for i in 5..10 {
        sys.publish(&tup(i * 1000, i, 60.0)).unwrap();
        sys.publish(&Tuple::new(
            "T",
            Timestamp(i * 1000),
            vec![Value::Int(i), Value::Float(1.0), Value::Int(i * 1000)],
        ))
        .unwrap();
    }
    // Subscriptions only see tuples published after they existed: the
    // five pre-subscription tuples on S are gone for good.
    assert_eq!(sys.results(on_s).len(), 5);
    assert_eq!(sys.results(on_t).len(), 5);
}

#[test]
fn queries_against_missing_attributes_fail_cleanly() {
    let mut sys = deploy(CosmosConfig {
        nodes: 8,
        seed: 2,
        ..CosmosConfig::default()
    });
    // the lint pass catches the bad attribute before analysis
    let err = sys
        .submit_query("SELECT nonexistent FROM S [Now]", NodeId(3))
        .unwrap_err();
    assert_eq!(err.kind(), "lint");
    assert!(err.message().contains("C0202"), "{}", err.message());
    // failed submissions leave no residue: a valid query still works
    let q = sys
        .submit_query("SELECT k FROM S [Now]", NodeId(3))
        .unwrap();
    sys.publish(&tup(0, 1, 1.0)).unwrap();
    assert_eq!(sys.results(q).len(), 1);
}
