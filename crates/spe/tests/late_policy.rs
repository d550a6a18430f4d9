//! Directed tests for the executor's late-tuple policies: one per
//! policy × operator kind (COUNT/SUM/AVG/MIN aggregates, DISTINCT
//! selection, window join), plus duplicate-injection dedup inside the
//! grace window and shed-counter conservation accounting. A build that
//! skips watermark gating altogether is CI's eviction canary
//! (`ci/mutants/eviction_skip_gating.patch`), caught by the scenario
//! harness's convergence oracle.

use cosmos_cql::parse_query;
use cosmos_spe::{AnalyzedQuery, Executor, LatePolicy};
use cosmos_types::{AttrType, Schema, TimeDelta, Timestamp, Tuple, Value};

fn catalog(name: &str) -> Option<Schema> {
    match name {
        "Open" => Some(Schema::of(&[
            ("itemID", AttrType::Int),
            ("start_price", AttrType::Float),
        ])),
        "Closed" => Some(Schema::of(&[
            ("itemID", AttrType::Int),
            ("buyerID", AttrType::Int),
        ])),
        "S" => Some(Schema::of(&[("k", AttrType::Int), ("v", AttrType::Float)])),
        _ => None,
    }
}

fn executor(text: &str, policy: LatePolicy) -> Executor {
    let q = AnalyzedQuery::analyze(&parse_query(text).unwrap(), catalog).unwrap();
    let mut ex = Executor::new(q, "result").unwrap();
    ex.enable_disorder(policy);
    ex
}

fn s(ts: i64, k: i64, v: f64) -> Tuple {
    Tuple::new("S", Timestamp(ts), vec![Value::Int(k), Value::Float(v)])
}

fn open(ts: i64, item: i64) -> Tuple {
    Tuple::new(
        "Open",
        Timestamp(ts),
        vec![Value::Int(item), Value::Float(1.0)],
    )
}

fn closed(ts: i64, item: i64, buyer: i64) -> Tuple {
    Tuple::new(
        "Closed",
        Timestamp(ts),
        vec![Value::Int(item), Value::Int(buyer)],
    )
}

fn revise(grace_ms: i64) -> LatePolicy {
    LatePolicy::Revise {
        grace: TimeDelta::from_millis(grace_ms),
    }
}

#[test]
fn watermark_releases_staged_tuples_in_timestamp_order() {
    let mut ex = executor("SELECT k FROM S [Now]", LatePolicy::Drop);
    assert!(ex.push_out_of_order(&s(3_000, 3, 0.0)).is_empty());
    assert!(ex.push_out_of_order(&s(1_000, 1, 0.0)).is_empty());
    assert!(ex.push_out_of_order(&s(2_000, 2, 0.0)).is_empty());
    assert_eq!(ex.state_size().staging_rows, 3);
    let out = ex.advance_watermark(&"S".into(), Timestamp(2_500));
    let ks: Vec<_> = out.iter().map(|t| t.values()[0].clone()).collect();
    assert_eq!(ks, vec![Value::Int(1), Value::Int(2)]);
    assert_eq!(ex.frontier(), Some(Timestamp(2_500)));
    let st = ex.disorder_stats().unwrap();
    assert_eq!((st.arrived, st.drained, st.staged), (3, 2, 1));
    assert!(st.conserved());
}

#[test]
fn drop_policy_sheds_late_sum() {
    let mut ex = executor(
        "SELECT k, SUM(v) FROM S [Range 10 Second] GROUP BY k",
        LatePolicy::Drop,
    );
    ex.push_out_of_order(&s(1_000, 1, 10.0));
    ex.push_out_of_order(&s(3_000, 1, 30.0));
    let out = ex.advance_watermark(&"S".into(), Timestamp(4_000));
    assert_eq!(out.len(), 2);
    assert_eq!(out[1].values(), &[Value::Int(1), Value::Float(40.0)]);
    // Late arrival behind the frontier: shed, counted, no output.
    assert!(ex.push_out_of_order(&s(2_000, 1, 20.0)).is_empty());
    let st = ex.disorder_stats().unwrap();
    assert_eq!((st.shed, st.drained, st.late), (1, 2, 0));
    assert!(st.conserved());
    // The shed tuple never contaminates later windows.
    ex.push_out_of_order(&s(5_000, 1, 5.0));
    let out = ex.advance_watermark(&"S".into(), Timestamp(6_000));
    assert_eq!(out[0].values(), &[Value::Int(1), Value::Float(45.0)]);
}

#[test]
fn revise_policy_folds_late_tuple_into_sum() {
    let mut ex = executor(
        "SELECT k, SUM(v) FROM S [Range 10 Second] GROUP BY k",
        revise(5_000),
    );
    ex.push_out_of_order(&s(1_000, 1, 10.0));
    let out = ex.advance_watermark(&"S".into(), Timestamp(2_000));
    assert_eq!(out[0].values(), &[Value::Int(1), Value::Float(10.0)]);
    ex.push_out_of_order(&s(3_000, 1, 30.0));
    let out = ex.advance_watermark(&"S".into(), Timestamp(4_000));
    assert_eq!(out[0].values(), &[Value::Int(1), Value::Float(40.0)]);
    // Late tuple within grace: its own row as-of t=2000, then a
    // revision of the already-emitted row at t=3000.
    let out = ex.push_out_of_order(&s(2_000, 1, 20.0));
    assert_eq!(out.len(), 2);
    assert_eq!(out[0].timestamp, Timestamp(2_000));
    assert_eq!(out[0].values(), &[Value::Int(1), Value::Float(30.0)]);
    assert_eq!(out[1].timestamp, Timestamp(3_000));
    assert_eq!(out[1].values(), &[Value::Int(1), Value::Float(60.0)]);
    let st = ex.disorder_stats().unwrap();
    assert_eq!((st.late, st.revisions, st.shed), (1, 1, 0));
    assert!(st.conserved());
    // In-order processing resumes with the late tuple folded in.
    ex.push_out_of_order(&s(5_000, 1, 5.0));
    let out = ex.advance_watermark(&"S".into(), Timestamp(6_000));
    assert_eq!(out[0].values(), &[Value::Int(1), Value::Float(65.0)]);
}

#[test]
fn revise_policy_folds_late_tuple_into_count() {
    let mut ex = executor(
        "SELECT k, COUNT(*) FROM S [Range 10 Second] GROUP BY k",
        revise(5_000),
    );
    ex.push_out_of_order(&s(1_000, 1, 0.0));
    ex.push_out_of_order(&s(3_000, 1, 0.0));
    ex.advance_watermark(&"S".into(), Timestamp(4_000));
    let out = ex.push_out_of_order(&s(2_000, 1, 0.0));
    assert_eq!(out.len(), 2);
    assert_eq!(out[0].values(), &[Value::Int(1), Value::Int(2)]);
    assert_eq!(out[1].values(), &[Value::Int(1), Value::Int(3)]);
}

#[test]
fn revise_policy_folds_late_tuple_into_avg_and_min() {
    let mut ex = executor(
        "SELECT k, AVG(v), MIN(v) FROM S [Range 10 Second] GROUP BY k",
        revise(5_000),
    );
    ex.push_out_of_order(&s(1_000, 1, 10.0));
    ex.push_out_of_order(&s(3_000, 1, 30.0));
    ex.advance_watermark(&"S".into(), Timestamp(4_000));
    let out = ex.push_out_of_order(&s(2_000, 1, 5.0));
    assert_eq!(out.len(), 2);
    assert_eq!(
        out[0].values(),
        &[Value::Int(1), Value::Float(7.5), Value::Float(5.0)]
    );
    assert_eq!(
        out[1].values(),
        &[Value::Int(1), Value::Float(15.0), Value::Float(5.0)]
    );
}

#[test]
fn revisions_respect_window_expiry() {
    let mut ex = executor(
        "SELECT k, SUM(v) FROM S [Range 2 Second] GROUP BY k",
        revise(20_000),
    );
    ex.push_out_of_order(&s(1_000, 1, 10.0));
    ex.push_out_of_order(&s(6_000, 1, 60.0));
    ex.advance_watermark(&"S".into(), Timestamp(7_000));
    // Late t=2000: inside t=1000's neighborhood but more than one
    // window ahead of it lies t=6000, which must NOT be revised.
    let out = ex.push_out_of_order(&s(2_000, 1, 20.0));
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].timestamp, Timestamp(2_000));
    assert_eq!(out[0].values(), &[Value::Int(1), Value::Float(30.0)]);
}

/// A window `[Range w]` at τ holds `[τ − w, τ]`, so a late tuple at
/// exactly τ − w joins the live window: its group gets a row in the
/// aggregate state beside the in-order one. The test reads state, not
/// output rows, because the rows are the same either way — the next
/// in-order push evicts that entry anyway, so the window edge's
/// inclusivity shows only in state.
#[test]
fn late_tuple_on_the_window_edge_joins_the_live_window() {
    let mut ex = executor(
        "SELECT k, COUNT(*) FROM S [Range 5 Second] GROUP BY k",
        revise(10_000),
    );
    ex.push_out_of_order(&s(10_000, 1, 0.0));
    ex.advance_watermark(&"S".into(), Timestamp(10_000));
    assert_eq!(ex.state_size().group_rows, 1);
    // A new group, exactly on the edge τ − w = 5000.
    let out = ex.push_out_of_order(&s(5_000, 2, 0.0));
    assert_eq!(out.len(), 1);
    assert_eq!(ex.state_size().group_rows, 2);
}

#[test]
fn late_beyond_grace_is_shed_under_revise() {
    let mut ex = executor(
        "SELECT k, SUM(v) FROM S [Range 10 Second] GROUP BY k",
        revise(1_000),
    );
    ex.push_out_of_order(&s(1_000, 1, 10.0));
    ex.advance_watermark(&"S".into(), Timestamp(4_000));
    // t=2500 is behind frontier − grace = 3000: shed, not revised.
    assert!(ex.push_out_of_order(&s(2_500, 1, 20.0)).is_empty());
    let st = ex.disorder_stats().unwrap();
    assert_eq!((st.shed, st.late, st.revisions), (1, 0, 0));
    assert!(st.conserved());
}

#[test]
fn drop_policy_drops_late_distinct() {
    let mut ex = executor("SELECT DISTINCT k FROM S [Now]", LatePolicy::Drop);
    ex.push_out_of_order(&s(1_000, 7, 0.0));
    assert_eq!(ex.advance_watermark(&"S".into(), Timestamp(2_000)).len(), 1);
    assert!(ex.push_out_of_order(&s(500, 8, 0.0)).is_empty());
    assert_eq!(ex.disorder_stats().unwrap().shed, 1);
}

#[test]
fn revise_policy_emits_late_distinct_as_of_its_timestamp() {
    let mut ex = executor("SELECT DISTINCT k FROM S [Now]", revise(5_000));
    ex.push_out_of_order(&s(1_000, 7, 0.0));
    assert_eq!(ex.advance_watermark(&"S".into(), Timestamp(2_000)).len(), 1);
    // Late tuple with an already-seen value: suppressed by DISTINCT.
    assert!(ex.push_out_of_order(&s(500, 7, 1.0)).is_empty());
    // Late tuple with a fresh value: emitted as of its own timestamp.
    let out = ex.push_out_of_order(&s(600, 8, 0.0));
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].timestamp, Timestamp(600));
    assert_eq!(out[0].values(), &[Value::Int(8)]);
    let st = ex.disorder_stats().unwrap();
    assert_eq!((st.late, st.revisions), (2, 0));
    assert!(st.conserved());
}

#[test]
fn drop_policy_sheds_late_join_side() {
    let mut ex = executor(
        "SELECT O.itemID, C.buyerID FROM Open [Range 1 Hour] O, Closed [Range 1 Hour] C \
         WHERE O.itemID = C.itemID",
        LatePolicy::Drop,
    );
    ex.push_out_of_order(&open(0, 1));
    ex.advance_watermark(&"Open".into(), Timestamp(500));
    // Frontier is the min over BOTH input streams' watermarks.
    assert_eq!(ex.frontier(), Some(Timestamp(i64::MIN)));
    ex.advance_watermark(&"Closed".into(), Timestamp(500));
    assert_eq!(ex.frontier(), Some(Timestamp(500)));
    ex.push_out_of_order(&closed(2_000, 1, 99));
    ex.advance_watermark(&"Open".into(), Timestamp(3_000));
    let out = ex.advance_watermark(&"Closed".into(), Timestamp(3_000));
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].values(), &[Value::Int(1), Value::Int(99)]);
    // A late opening is shed and completes nothing.
    assert!(ex.push_out_of_order(&open(1_500, 1)).is_empty());
    assert_eq!(ex.disorder_stats().unwrap().shed, 1);
}

#[test]
fn revise_policy_completes_missed_join_combinations() {
    let mut ex = executor(
        "SELECT O.itemID, C.buyerID FROM Open [Range 1 Hour] O, Closed [Range 1 Hour] C \
         WHERE O.itemID = C.itemID",
        revise(10_000),
    );
    ex.push_out_of_order(&open(0, 1));
    ex.push_out_of_order(&closed(2_000, 1, 99));
    ex.advance_watermark(&"Open".into(), Timestamp(3_000));
    let out = ex.advance_watermark(&"Closed".into(), Timestamp(3_000));
    assert_eq!(out.len(), 1);
    // The late opening joins the already-processed closing; the
    // combination is stamped with the latest member's timestamp.
    let out = ex.push_out_of_order(&open(1_500, 1));
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].timestamp, Timestamp(2_000));
    assert_eq!(out[0].values(), &[Value::Int(1), Value::Int(99)]);
    // A later closing still sees the revised-in opening.
    ex.push_out_of_order(&closed(4_000, 1, 100));
    ex.advance_watermark(&"Open".into(), Timestamp(5_000));
    let out = ex.advance_watermark(&"Closed".into(), Timestamp(5_000));
    assert_eq!(out.len(), 2);
    assert!(ex.disorder_stats().unwrap().conserved());
}

#[test]
fn duplicates_are_discarded_inside_the_grace_window() {
    let mut ex = executor(
        "SELECT k, SUM(v) FROM S [Range 10 Second] GROUP BY k",
        revise(10_000),
    );
    let t1 = s(1_000, 1, 10.0);
    ex.push_out_of_order(&t1);
    // Duplicate of a staged tuple.
    assert!(ex.push_out_of_order(&t1).is_empty());
    ex.advance_watermark(&"S".into(), Timestamp(5_000));
    // Duplicate of a drained tuple, still inside the grace window.
    assert!(ex.push_out_of_order(&t1).is_empty());
    let st = ex.disorder_stats().unwrap();
    assert_eq!((st.arrived, st.drained, st.duplicates), (3, 1, 2));
    assert_eq!((st.late, st.revisions, st.shed), (0, 0, 0));
    assert!(st.conserved());
}

#[test]
fn dedup_memory_is_released_past_the_grace_window() {
    let mut ex = executor("SELECT k FROM S [Now]", LatePolicy::Drop);
    let t1 = s(1_000, 1, 0.0);
    ex.push_out_of_order(&t1);
    ex.advance_watermark(&"S".into(), Timestamp(2_000));
    // With zero grace the dedup entry is evicted once the frontier
    // passes it; the copy re-arrives late and is shed instead.
    assert!(ex.push_out_of_order(&t1).is_empty());
    let st = ex.disorder_stats().unwrap();
    assert_eq!((st.shed, st.duplicates), (1, 0));
    assert!(st.conserved());
}

#[test]
fn flush_drains_staging_without_moving_the_frontier() {
    let mut ex = executor("SELECT k FROM S [Now]", revise(1_000));
    ex.push_out_of_order(&s(2_000, 2, 0.0));
    ex.push_out_of_order(&s(1_000, 1, 0.0));
    let out = ex.flush_staged();
    let ks: Vec<_> = out.iter().map(|t| t.values()[0].clone()).collect();
    assert_eq!(ks, vec![Value::Int(1), Value::Int(2)]);
    assert_eq!(ex.frontier(), Some(Timestamp(i64::MIN)));
    let st = ex.disorder_stats().unwrap();
    assert_eq!((st.arrived, st.drained, st.staged), (2, 2, 0));
    assert!(st.conserved());
}

#[test]
fn conservation_holds_across_a_mixed_feed() {
    let mut ex = executor(
        "SELECT k, COUNT(*) FROM S [Range 10 Second] GROUP BY k",
        revise(2_000),
    );
    ex.push_out_of_order(&s(1_000, 1, 0.0));
    ex.push_out_of_order(&s(1_000, 1, 0.0)); // duplicate
    ex.push_out_of_order(&s(4_000, 1, 0.0));
    ex.advance_watermark(&"S".into(), Timestamp(5_000));
    ex.push_out_of_order(&s(4_500, 1, 0.0)); // late, within grace
    ex.push_out_of_order(&s(2_000, 1, 0.0)); // late, beyond grace
    ex.push_out_of_order(&s(9_000, 1, 0.0)); // staged
    let st = ex.disorder_stats().unwrap();
    assert_eq!(st.arrived, 6);
    assert_eq!(st.drained, 3);
    assert_eq!(st.staged, 1);
    assert_eq!(st.shed, 1);
    assert_eq!(st.duplicates, 1);
    assert_eq!(st.late, 1);
    assert!(st.conserved());
    assert_eq!(ex.state_size().staging_rows, 1);
}

#[test]
fn same_timestamp_tuples_with_different_values_are_both_processed() {
    let mut ex = executor("SELECT k, v FROM S [Now]", LatePolicy::Drop);
    ex.push_out_of_order(&s(1_000, 1, 1.0));
    ex.push_out_of_order(&s(1_000, 1, 2.0));
    ex.push_out_of_order(&s(1_000, 2, 1.0));
    let out = ex.advance_watermark(&"S".into(), Timestamp(1_000));
    let rows: Vec<_> = out.iter().map(|t| t.values().to_vec()).collect();
    assert_eq!(
        rows,
        vec![
            vec![Value::Int(1), Value::Float(1.0)],
            vec![Value::Int(1), Value::Float(2.0)],
            vec![Value::Int(2), Value::Float(1.0)],
        ],
        "equal timestamps drain in arrival order"
    );
    let st = ex.disorder_stats().unwrap();
    assert_eq!((st.drained, st.duplicates), (3, 0));
}

#[test]
fn a_duplicate_is_remembered_down_to_the_frontier_minus_grace() {
    for policy in [LatePolicy::Drop, revise(2_000)] {
        let mut ex = executor("SELECT k FROM S [Now]", policy);
        let (old, edge) = (s(1_000, 1, 0.0), s(3_000, 3, 0.0));
        ex.push_out_of_order(&old);
        ex.push_out_of_order(&edge);
        // While the original is staged.
        assert!(ex.push_out_of_order(&edge).is_empty());
        assert_eq!(ex.advance_watermark(&"S".into(), Timestamp(3_000)).len(), 2);
        // After it drained, at `ts == frontier`: still remembered.
        assert!(ex.push_out_of_order(&edge).is_empty());
        let st = ex.disorder_stats().unwrap();
        assert_eq!((st.duplicates, st.shed), (2, 0), "{policy:?}");
        // Behind the frontier: forgotten and shed with no grace, still a
        // remembered duplicate inside the grace window.
        assert!(ex.push_out_of_order(&old).is_empty());
        let st = ex.disorder_stats().unwrap();
        let expected = match policy {
            LatePolicy::Drop => (2, 1),
            LatePolicy::Revise { .. } => (3, 0),
        };
        assert_eq!((st.duplicates, st.shed), expected, "{policy:?}");
        assert_eq!(st.late, 0);
        assert!(st.conserved());
    }
}

#[test]
fn one_watermark_advances_both_bindings_of_a_self_join() {
    let mut ex = executor(
        "SELECT A.k FROM S [Range 10 Second] A, S [Range 10 Second] B WHERE A.k = B.k",
        LatePolicy::Drop,
    );
    ex.push_out_of_order(&s(1_000, 1, 0.0));
    let out = ex.advance_watermark(&"S".into(), Timestamp(2_000));
    assert_eq!(out.len(), 1, "the tuple joins itself");
    assert_eq!(ex.frontier(), Some(Timestamp(2_000)));
}

#[test]
fn flush_keeps_conservation_after_duplicates_and_late_arrivals() {
    let mut ex = executor("SELECT k FROM S [Now]", revise(1_000));
    ex.push_out_of_order(&s(1_000, 1, 0.0));
    ex.push_out_of_order(&s(5_000, 5, 0.0));
    ex.advance_watermark(&"S".into(), Timestamp(4_000));
    ex.push_out_of_order(&s(5_000, 5, 0.0)); // duplicate of a staged tuple
    ex.push_out_of_order(&s(3_500, 3, 0.0)); // late, folded in
    ex.push_out_of_order(&s(1_000, 9, 0.0)); // late, beyond grace
    ex.push_out_of_order(&s(6_000, 6, 0.0)); // staged
    assert_eq!(ex.flush_staged().len(), 2);
    let st = ex.disorder_stats().unwrap();
    assert_eq!(
        (st.arrived, st.drained, st.staged, st.shed, st.duplicates),
        (6, 4, 0, 1, 1)
    );
    assert!(st.conserved());
    assert_eq!(ex.frontier(), Some(Timestamp(4_000)));
}

#[test]
fn revised_join_ends_with_the_in_order_result_multiset() {
    let text = "SELECT O.itemID, O.start_price, C.buyerID FROM Open [Range 5 Second] O, \
                Closed [Range 3 Second] C WHERE O.itemID = C.itemID";
    let open_at = |ts: i64, item: i64| {
        Tuple::new(
            "Open",
            Timestamp(ts),
            vec![Value::Int(item), Value::Float(ts as f64)],
        )
    };
    let in_order = [
        open_at(1_000, 1),
        open_at(2_000, 2),
        closed(3_000, 1, 10),
        open_at(4_000, 1),
        closed(5_000, 2, 20),
        closed(6_000, 1, 30),
        open_at(6_000, 2),
        open_at(7_000, 2),
        closed(8_000, 2, 40),
    ];
    let sorted = |rows: Vec<Tuple>| {
        let mut rows: Vec<_> = rows
            .into_iter()
            .map(|t| (t.timestamp, t.values().to_vec()))
            .collect();
        rows.sort();
        rows
    };
    let q = AnalyzedQuery::analyze(&parse_query(text).unwrap(), catalog).unwrap();
    let mut reference = Executor::new(q, "result").unwrap();
    let expected = sorted(in_order.iter().flat_map(|t| reference.push(t)).collect());
    assert_eq!(expected.len(), 9);

    let mut ex = executor(text, revise(10_000));
    let mut out = Vec::new();
    let late = |t: &Tuple| [1, 3, 4].map(|i| &in_order[i]).contains(&t);
    for t in in_order
        .iter()
        .filter(|t| !late(t) && t.timestamp <= Timestamp(6_000))
    {
        out.extend(ex.push_out_of_order(t));
    }
    for stream in ["Open", "Closed"] {
        out.extend(ex.advance_watermark(&stream.into(), Timestamp(6_500)));
    }
    // Behind the frontier, within grace: folded in by revision.
    for t in in_order.iter().filter(|t| late(t)) {
        out.extend(ex.push_out_of_order(t));
    }
    for t in in_order.iter().filter(|t| t.timestamp > Timestamp(6_000)) {
        out.extend(ex.push_out_of_order(t));
    }
    for stream in ["Open", "Closed"] {
        out.extend(ex.advance_watermark(&stream.into(), Timestamp(9_000)));
    }
    let st = ex.disorder_stats().unwrap();
    assert_eq!((st.late, st.shed, st.staged), (3, 0, 0));
    assert!(st.conserved());
    assert_eq!(sorted(out), expected);
}
