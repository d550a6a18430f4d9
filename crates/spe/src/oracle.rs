//! A brute-force reference evaluator.
//!
//! [`evaluate`] recomputes a query's result stream from the complete
//! input history with no incremental state, no eviction and no indexes —
//! a direct transcription of the semantics (Lemma 1 for joins, sliding
//! windows re-scanned from scratch for aggregates). It exists solely as
//! ground truth: the executor's incremental machinery is property-tested
//! against it here, and the query layer's merge-and-split pipeline is
//! checked against it end-to-end.

use crate::analyze::{AnalyzedQuery, OutputColumn};
use cosmos_types::{FxHashSet, StreamName, Timestamp, Tuple, Value};

/// Evaluate `query` over `inputs` (which must be in non-decreasing
/// timestamp order), returning the full result stream.
pub fn evaluate(
    query: &AnalyzedQuery,
    result_stream: impl Into<StreamName>,
    inputs: &[Tuple],
) -> Vec<Tuple> {
    let result_stream = result_stream.into();
    let n = query.streams.len();
    // Per-binding history of selection-passing tuples.
    let mut history: Vec<Vec<Tuple>> = vec![Vec::new(); n];
    let mut out = Vec::new();
    let mut distinct_seen: FxHashSet<Vec<Value>> = FxHashSet::default();
    let mut emit = |values: Vec<Value>, ts: Timestamp, out: &mut Vec<Tuple>| {
        if query.distinct && !distinct_seen.insert(values.clone()) {
            return;
        }
        out.push(Tuple::new(result_stream, ts, values));
    };

    for t in inputs {
        for si in 0..n {
            if query.streams[si].stream != t.stream {
                continue;
            }
            let passes = query.selections[si].satisfies(t, &query.streams[si].schema);
            if passes {
                if query.is_aggregate() {
                    let row = aggregate_row(query, &history[0], t);
                    emit(row, t.timestamp, &mut out);
                } else if n == 1 {
                    let row = project(query, &[t]);
                    emit(row, t.timestamp, &mut out);
                } else {
                    join_arrival(query, &history, si, t, |values| {
                        emit(values, t.timestamp, &mut out)
                    });
                }
                history[si].push(t.clone());
            }
        }
    }
    out
}

/// Project a complete combination onto the output columns.
fn project(query: &AnalyzedQuery, combo: &[&Tuple]) -> Vec<Value> {
    query
        .output
        .iter()
        .map(|col| match col {
            OutputColumn::Attr(a) => {
                let si = query.stream_index(&a.binding).expect("bound");
                combo[si]
                    .get_by_name(&query.streams[si].schema, &a.name)
                    .cloned()
                    .unwrap_or(Value::Null)
            }
            OutputColumn::Agg { .. } => unreachable!("join oracle has no aggregates"),
        })
        .collect()
}

/// Enumerate the new combinations an arrival completes, per Lemma 1.
fn join_arrival<F: FnMut(Vec<Value>)>(
    query: &AnalyzedQuery,
    history: &[Vec<Tuple>],
    arrival_idx: usize,
    t: &Tuple,
    mut emit: F,
) {
    let tau = t.timestamp;
    let n = query.streams.len();
    let mut combo: Vec<Option<&Tuple>> = vec![None; n];
    combo[arrival_idx] = Some(t);
    fn rec<'a, F: FnMut(Vec<Value>)>(
        query: &AnalyzedQuery,
        history: &'a [Vec<Tuple>],
        arrival_idx: usize,
        tau: Timestamp,
        si: usize,
        combo: &mut Vec<Option<&'a Tuple>>,
        emit: &mut F,
    ) {
        let n = history.len();
        if si == n {
            for j in &query.joins {
                let get = |binding: &str, name: &str| -> Option<&Value> {
                    let i = query.stream_index(binding)?;
                    combo[i]?.get_by_name(&query.streams[i].schema, name)
                };
                match (
                    get(&j.left.binding, &j.left.name),
                    get(&j.right.binding, &j.right.name),
                ) {
                    (Some(a), Some(b)) if a.eq_coerce(b) => {}
                    _ => return,
                }
            }
            let full: Vec<&Tuple> = combo.iter().map(|c| c.expect("complete")).collect();
            emit(project(query, &full));
            return;
        }
        if si == arrival_idx {
            rec(query, history, arrival_idx, tau, si + 1, combo, emit);
            return;
        }
        for u in &history[si] {
            // Window check (Lemma 1): partner must be within its own
            // window relative to the completing arrival.
            let w = query.streams[si].window;
            if !w.is_infinite() && u.timestamp < tau - w {
                continue;
            }
            combo[si] = Some(u);
            rec(query, history, arrival_idx, tau, si + 1, combo, emit);
        }
        combo[si] = None;
    }
    rec(query, history, arrival_idx, tau, 0, &mut combo, &mut emit);
}

/// Recompute the aggregate row for an arrival's group from scratch.
fn aggregate_row(query: &AnalyzedQuery, history: &[Tuple], t: &Tuple) -> Vec<Value> {
    use cosmos_cql::AggFunc;
    let schema = &query.streams[0].schema;
    let tau = t.timestamp;
    let w = query.streams[0].window;
    let key_of = |u: &Tuple| -> Vec<Value> {
        query
            .group_by
            .iter()
            .map(|g| {
                u.get_by_name(schema, &g.name)
                    .cloned()
                    .unwrap_or(Value::Null)
            })
            .collect()
    };
    let key = key_of(t);
    let members: Vec<&Tuple> = history
        .iter()
        .chain(std::iter::once(t))
        .filter(|u| (w.is_infinite() || u.timestamp >= tau - w) && key_of(u) == key)
        .collect();
    query
        .output
        .iter()
        .map(|col| match col {
            OutputColumn::Attr(a) => {
                let gi = query.group_by.iter().position(|g| g == a).expect("grouped");
                key[gi].clone()
            }
            OutputColumn::Agg { func, arg } => {
                let vals: Vec<&Value> = match arg {
                    Some(a) => members
                        .iter()
                        .filter_map(|u| u.get_by_name(schema, &a.name))
                        .collect(),
                    None => Vec::new(),
                };
                match func {
                    AggFunc::Count => Value::Int(members.len() as i64),
                    AggFunc::Sum => {
                        let s: f64 = vals.iter().filter_map(|v| v.as_f64()).sum();
                        let is_int = arg
                            .as_ref()
                            .and_then(|a| schema.field(&a.name))
                            .map(|f| f.ty == cosmos_types::AttrType::Int)
                            .unwrap_or(false);
                        if is_int {
                            Value::Int(s.round() as i64)
                        } else {
                            Value::Float(s)
                        }
                    }
                    AggFunc::Avg => {
                        if members.is_empty() {
                            Value::Null
                        } else {
                            let s: f64 = vals.iter().filter_map(|v| v.as_f64()).sum();
                            Value::Float(s / members.len() as f64)
                        }
                    }
                    AggFunc::Min => vals
                        .iter()
                        .min()
                        .map(|v| (*v).clone())
                        .unwrap_or(Value::Null),
                    AggFunc::Max => vals
                        .iter()
                        .max()
                        .map(|v| (*v).clone())
                        .unwrap_or(Value::Null),
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::AnalyzedQuery;
    use crate::executor::Executor;
    use cosmos_cql::parse_query;
    use cosmos_types::{AttrType, Schema};
    use proptest::prelude::*;

    fn catalog(name: &str) -> Option<Schema> {
        match name {
            "A" => Some(Schema::of(&[("k", AttrType::Int), ("x", AttrType::Int)])),
            "B" => Some(Schema::of(&[("k", AttrType::Int), ("y", AttrType::Int)])),
            "F" => Some(Schema::of(&[("k", AttrType::Float), ("z", AttrType::Int)])),
            _ => None,
        }
    }

    fn analyzed(text: &str) -> AnalyzedQuery {
        AnalyzedQuery::analyze(&parse_query(text).unwrap(), catalog).unwrap()
    }

    /// Run both implementations and compare.
    fn check(query_text: &str, inputs: &[Tuple]) {
        let q = analyzed(query_text);
        let expected = evaluate(&q, "r", inputs);
        let mut ex = Executor::new(q, "r").unwrap();
        let mut actual = Vec::new();
        for t in inputs {
            actual.extend(ex.push(t));
        }
        assert_eq!(
            expected, actual,
            "oracle/executor divergence for {query_text}"
        );
    }

    fn arb_inputs(len: usize) -> impl Strategy<Value = Vec<Tuple>> {
        proptest::collection::vec(
            (
                0i64..30,
                prop_oneof![Just("A"), Just("B")],
                0i64..5,
                0i64..50,
            ),
            1..len,
        )
        .prop_map(|mut raw| {
            raw.sort_by_key(|(ts, _, _, _)| *ts);
            raw.into_iter()
                .map(|(ts, stream, k, v)| {
                    Tuple::new(
                        stream,
                        Timestamp(ts * 1000),
                        vec![Value::Int(k), Value::Int(v)],
                    )
                })
                .collect()
        })
    }

    /// Join keys the partitions must get right: on the Float stream
    /// `F`, `Null` and NaN (equal to nothing), both zeros (equal to each
    /// other and to `Int(0)`) and a non-integral value; on the Int
    /// streams `A` and `B`, keys that meet `F`'s. The second column is
    /// drawn from 0..3 so it can serve as a join key too.
    fn arb_keyed_inputs(len: usize) -> impl Strategy<Value = Vec<Tuple>> {
        let float_keys = [Value::Null, Value::Float(f64::NAN), Value::Float(-0.0)];
        let float_keys = float_keys
            .into_iter()
            .chain([0.0, 1.0, 2.5].map(Value::Float))
            .collect::<Vec<_>>();
        proptest::collection::vec(
            (
                0i64..30,
                prop_oneof![Just("A"), Just("B"), Just("F")],
                0i64..3,
                proptest::sample::select(float_keys),
                0i64..3,
            ),
            1..len,
        )
        .prop_map(|mut raw| {
            raw.sort_by_key(|r| r.0);
            raw.into_iter()
                .map(|(ts, stream, int_key, float_key, v)| {
                    let key = if stream == "F" {
                        float_key
                    } else {
                        Value::Int(int_key)
                    };
                    Tuple::new(stream, Timestamp(ts * 1000), vec![key, Value::Int(v)])
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Partitioned joins ≡ the oracle on every join shape: a
        /// cross-type key (`Int = Float`), a self-join over Float keys,
        /// a three-way chain on two different columns, two equality
        /// predicates between one pair, and a window-only join, whose
        /// bindings have no predicate to partition by and are scanned.
        #[test]
        fn partitioned_joins_match_oracle(inputs in arb_keyed_inputs(40)) {
            for query in [
                "SELECT A.x, F.z FROM A [Range 8 Second] A, F [Range 4 Second] F WHERE A.k = F.k",
                "SELECT X.k, Y.z FROM F [Range 5 Second] X, F [Range 5 Second] Y WHERE X.k = Y.k",
                "SELECT A.x, B.y, F.z FROM A [Range 6 Second] A, B [Range 6 Second] B, \
                 F [Range 6 Second] F WHERE A.k = B.k AND B.y = F.z",
                "SELECT A.k, F.k FROM A [Range 8 Second] A, F [Range 8 Second] F \
                 WHERE A.k = F.k AND A.x = F.z",
                "SELECT A.x, B.y FROM A [Range 3 Second] A, B [Now] B",
            ] {
                check(query, &inputs);
            }
        }

        /// Incremental window join ≡ brute-force Lemma 1 evaluation.
        #[test]
        fn join_matches_oracle(inputs in arb_inputs(40)) {
            check(
                "SELECT A.x, B.y FROM A [Range 8 Second] A, B [Range 4 Second] B \
                 WHERE A.k = B.k",
                &inputs,
            );
        }

        /// Now-window joins agree too (timestamp-equality edge cases).
        #[test]
        fn now_join_matches_oracle(inputs in arb_inputs(40)) {
            check(
                "SELECT A.x FROM A [Range 10 Second] A, B [Now] B WHERE A.k = B.k",
                &inputs,
            );
        }

        /// Selections + distinct agree.
        #[test]
        fn distinct_select_matches_oracle(inputs in arb_inputs(40)) {
            check("SELECT DISTINCT x FROM A [Now] WHERE x >= 10", &inputs);
        }

        /// Sliding grouped aggregates agree with full recomputation.
        #[test]
        fn aggregates_match_oracle(inputs in arb_inputs(40)) {
            check(
                "SELECT k, COUNT(*), SUM(x), MIN(x), MAX(x), AVG(x) \
                 FROM A [Range 6 Second] GROUP BY k",
                &inputs,
            );
        }

        /// Unbounded-window aggregates agree.
        #[test]
        fn unbounded_aggregates_match_oracle(inputs in arb_inputs(30)) {
            check("SELECT COUNT(*), SUM(x) FROM A [Unbounded]", &inputs);
        }
    }

    #[test]
    fn negative_zero_joins_the_zero_group() {
        let f =
            |ts: i64, k: f64| Tuple::new("F", Timestamp(ts), vec![Value::Float(k), Value::Int(0)]);
        let inputs = [f(0, 0.0), f(1_000, -0.0)];
        check(
            "SELECT k, COUNT(*) FROM F [Range 10 Second] GROUP BY k",
            &inputs,
        );
    }

    #[test]
    fn oracle_smoke_join() {
        let q = analyzed("SELECT A.x, B.y FROM A [Range 5 Second] A, B [Now] B WHERE A.k = B.k");
        let inputs = vec![
            Tuple::new("A", Timestamp(0), vec![Value::Int(1), Value::Int(10)]),
            Tuple::new("B", Timestamp(3_000), vec![Value::Int(1), Value::Int(20)]),
        ];
        let out = evaluate(&q, "r", &inputs);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].values(), &[Value::Int(10), Value::Int(20)]);
        assert_eq!(out[0].timestamp, Timestamp(3_000));
    }
}
