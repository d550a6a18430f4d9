//! The planted watermark-gating bug must actually change behavior —
//! otherwise the CI canary that relies on it proves nothing. The
//! fault-injection flag is per thread, so arming it here cannot reach a
//! test running beside this one.

use cosmos_cql::parse_query;
use cosmos_spe::{faultinject, AnalyzedQuery, Executor, LatePolicy};
use cosmos_types::{AttrType, Schema, TimeDelta, Timestamp, Tuple, Value};

fn s(ts: i64, k: i64) -> Tuple {
    Tuple::new("S", Timestamp(ts), vec![Value::Int(k)])
}

#[test]
fn skip_watermark_gating_processes_arrival_order() {
    let catalog = |n: &str| (n == "S").then(|| Schema::of(&[("k", AttrType::Int)]));
    let q = AnalyzedQuery::analyze(
        &parse_query("SELECT k, COUNT(*) FROM S [Range 10 Second] GROUP BY k").unwrap(),
        catalog,
    )
    .unwrap();
    let mut ex = Executor::new(q, "result").unwrap();
    ex.enable_disorder(LatePolicy::Revise {
        grace: TimeDelta::from_millis(1_000),
    });
    faultinject::set_skip_watermark_gating(true);
    // Out-of-order arrivals are processed immediately instead of being
    // staged — exactly the bug the convergence oracle must catch.
    let out1 = ex.push_out_of_order(&s(2_000, 1));
    let out2 = ex.push_out_of_order(&s(1_000, 1));
    faultinject::set_skip_watermark_gating(false);
    assert_eq!(out1.len(), 1);
    assert_eq!(out2.len(), 1);
    assert_eq!(out2[0].timestamp, Timestamp(1_000));
    let st = ex.disorder_stats().unwrap();
    assert_eq!((st.arrived, st.drained, st.staged), (2, 2, 0));
    assert!(st.conserved());
    // Duplicates are still deduplicated even with gating disabled.
    faultinject::set_skip_watermark_gating(true);
    assert!(ex.push_out_of_order(&s(2_000, 1)).is_empty());
    faultinject::set_skip_watermark_gating(false);
    assert_eq!(ex.disorder_stats().unwrap().duplicates, 1);
}
