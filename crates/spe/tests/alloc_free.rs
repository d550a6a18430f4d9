//! A watermark that moves no frontier costs no allocation — gated by
//! counting allocations, not by a clock.

use cosmos_cql::parse_query;
use cosmos_spe::{AnalyzedQuery, Executor, LatePolicy};
use cosmos_types::{AttrType, Schema, StreamName, Timestamp, Tuple, Value};

#[path = "../../cbn/tests/counting/mod.rs"]
mod counting;

#[test]
fn a_watermark_that_moves_no_frontier_allocates_nothing() {
    let catalog = |name: &str| {
        ["X", "Y"]
            .contains(&name)
            .then(|| Schema::of(&[("k", AttrType::Int)]))
    };
    let text = "SELECT A.k FROM X [Range 5 Second] A, Y [Range 5 Second] B WHERE A.k = B.k";
    let q = AnalyzedQuery::analyze(&parse_query(text).unwrap(), catalog).unwrap();
    let mut ex = Executor::new(q, "result").unwrap();
    ex.enable_disorder(LatePolicy::Drop);
    let (x, y, unbound): (StreamName, StreamName, StreamName) =
        ("X".into(), "Y".into(), "Z".into());
    ex.push_out_of_order(&Tuple::new("X", Timestamp(5_000), vec![Value::Int(1)]));
    ex.advance_watermark(&x, Timestamp(1_000));
    ex.advance_watermark(&y, Timestamp(1_000));
    assert_eq!(ex.frontier(), Some(Timestamp(1_000)));
    let n = counting::allocations(|| {
        // Behind the stream's last watermark, ahead of it but held back
        // by the other stream, and for a stream the query does not bind.
        assert!(ex.advance_watermark(&x, Timestamp(500)).is_empty());
        assert!(ex.advance_watermark(&x, Timestamp(9_000)).is_empty());
        assert!(ex.advance_watermark(&unbound, Timestamp(9_000)).is_empty());
    });
    assert_eq!(n, 0);
    assert_eq!(ex.frontier(), Some(Timestamp(1_000)));
    assert_eq!(ex.state_size().staging_rows, 1);
}
