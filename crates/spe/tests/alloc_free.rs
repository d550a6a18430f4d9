//! What the executor's per-arrival paths allocate — gated by counting
//! allocations, not by a clock: a watermark that moves no frontier
//! costs nothing, nor does a join arrival that completes nothing; an
//! aggregate arrival or a selected tuple costs its own rows and the
//! returned vector. Tuples are built before each counted closure and the
//! executor is warmed first, so buffer capacity is already in place.

use cosmos_cql::parse_query;
use cosmos_spe::{AnalyzedQuery, Executor, LatePolicy};
use cosmos_types::{AttrType, Schema, StreamName, Timestamp, Tuple, Value};

#[path = "../../cbn/tests/counting/mod.rs"]
mod counting;

fn executor(text: &str, schema: Schema) -> Executor {
    let catalog = |_: &str| Some(schema.clone());
    let q = AnalyzedQuery::analyze(&parse_query(text).unwrap(), catalog).unwrap();
    Executor::new(q, "result").unwrap()
}

fn kv(stream: &str, ts: i64, k: i64, v: i64) -> Tuple {
    Tuple::new(stream, Timestamp(ts), vec![Value::Int(k), Value::Int(v)])
}

fn kv_schema() -> Schema {
    Schema::of(&[("k", AttrType::Int), ("v", AttrType::Int)])
}

#[test]
fn a_join_arrival_that_completes_nothing_allocates_nothing() {
    let text = "SELECT A.v, B.v FROM X [Range 5 Second] A, Y [Range 5 Second] B WHERE A.k = B.k";
    let mut ex = executor(text, kv_schema());
    // Key 1 is partitioned on both sides; Y's key-1 rows expire.
    assert_eq!(ex.push(&kv("Y", 0, 1, 0)).len(), 0);
    for ts in (1..=20).map(|s| s * 1_000) {
        assert_eq!(ex.push(&kv("Y", ts, 2, 0)).len(), 0);
        assert_eq!(ex.push(&kv("X", ts, 1, 0)).len(), usize::from(ts <= 5_000));
    }
    let arrival = kv("X", 21_000, 1, 0);
    let n = counting::allocations(|| assert!(ex.push(&arrival).is_empty()));
    assert_eq!(n, 0);
    assert_eq!(ex.state_size().buffer_rows, 11);
}

#[test]
fn an_aggregate_arrival_into_an_existing_group_allocates_its_rows_only() {
    for func in ["SUM", "MAX"] {
        let text = format!("SELECT k, {func}(v) FROM S [Range 5 Second] GROUP BY k");
        let mut ex = executor(&text, kv_schema());
        for ts in 0..20 {
            assert_eq!(ex.push(&kv("S", ts * 1_000, 1, ts % 3)).len(), 1);
        }
        let arrival = kv("S", 20_000, 1, 2);
        let mut out = Vec::new();
        let n = counting::allocations(|| out = ex.push(&arrival));
        // The window entry's arguments, the result row, the vector.
        assert!(n <= 3, "{func}: {n} allocations");
        assert_eq!(out.len(), 1);
    }
}

#[test]
fn a_projected_selection_batch_allocates_its_rows_only() {
    let schema = Schema::of(&[("k", AttrType::Int), ("v", AttrType::Float)]);
    let mut ex = executor("SELECT k FROM S [Now] WHERE v > 1.0", schema);
    // Early-projected: the two columns arrive swapped.
    let narrow = Schema::of(&[("v", AttrType::Float), ("k", AttrType::Int)]);
    let tuple = |ts: i64| Tuple::new("S", Timestamp(ts), vec![Value::Float(2.0), Value::Int(7)]);
    assert_eq!(ex.push_projected_batch(&[tuple(0)], &narrow).len(), 1);
    let batch = [tuple(1)];
    let mut out = Vec::new();
    let n = counting::allocations(|| out = ex.push_projected_batch(&batch, &narrow));
    // The realigned tuple, the result row, the vector.
    assert!(n <= 3, "{n} allocations");
    assert_eq!(out[0].values(), &[Value::Int(7)]);
}

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
