//! Empirical soundness of the paper's containment theorems.
//!
//! Theorem 1 and Theorem 2 are *sufficient* conditions for continuous-
//! query containment (Definition 1). These tests sample random query
//! pairs and random stream instances and verify that whenever our
//! checker says `q1 ⊑ q2`, the executed results agree: every result row
//! of `q1` appears (projected) among `q2`'s result rows at the same
//! application time instance.
//!
//! The `derivability_*` tests check the semantic law that ties
//! containment to the query layer's split:
//!
//! 1. if `contained(q1, q2)` and `retighten_profile(q1, q2, s)` returns
//!    a profile, splitting `q2`'s result stream with it reproduces
//!    `q1`'s result stream exactly, column for column;
//! 2. whenever `merge(q, r)` returns `m`, both `q ⊑ m` and `r ⊑ m` hold
//!    and both members' profiles can be re-tightened from `m`.
//!
//! Part 1 is conditional on purpose: containment gives row inclusion,
//! while splitting `q2`'s result stream back into `q1`'s also needs the
//! split attributes in `q2`'s output (`SELECT k FROM L [Now] WHERE x
//! BETWEEN 0 AND 5` is contained in `SELECT k FROM L [Now]`, but the
//! latter's result has no `x` to filter on).

use cosmos_cql::parse_query;
use cosmos_query::{contained, correspondence, merge, retighten_profile};
use cosmos_spe::analyze::{AnalyzedQuery, OutputColumn, QAttr};
use cosmos_spe::oracle;
use cosmos_types::{AttrType, Schema, StreamName, Timestamp, Tuple, Value};
use proptest::prelude::*;

fn catalog(name: &str) -> Option<Schema> {
    match name {
        "L" => Some(Schema::of(&[
            ("k", AttrType::Int),
            ("x", AttrType::Int),
            ("timestamp", AttrType::Int),
        ])),
        "R" => Some(Schema::of(&[
            ("k", AttrType::Int),
            ("y", AttrType::Int),
            ("timestamp", AttrType::Int),
        ])),
        _ => None,
    }
}

fn analyzed(text: &str) -> AnalyzedQuery {
    AnalyzedQuery::analyze(&parse_query(text).unwrap(), catalog).unwrap()
}

/// Rows of a result stream, each keyed by the column names of the
/// result schema of `rename_into`'s query (or `q`'s own), sorted and
/// deduplicated by name.
fn keyed_rows(
    q: &AnalyzedQuery,
    out: &[Tuple],
    rename_into: Option<(&AnalyzedQuery, &[usize])>,
) -> Vec<(Timestamp, Vec<(String, Value)>)> {
    let names: Vec<String> = q
        .output
        .iter()
        .map(|c| match rename_into {
            Some((target, map)) => {
                let rn = |qa: &QAttr| -> QAttr {
                    let i = q.stream_index(&qa.binding).unwrap();
                    QAttr::new(&target.streams[map[i]].binding, &qa.name)
                };
                target.column_name(&match c {
                    OutputColumn::Attr(a) => OutputColumn::Attr(rn(a)),
                    OutputColumn::Agg { func, arg } => OutputColumn::Agg {
                        func: *func,
                        arg: arg.as_ref().map(rn),
                    },
                })
            }
            None => q.column_name(c),
        })
        .collect();
    let mut rows: Vec<_> = out
        .iter()
        .map(|t| {
            let mut row: Vec<(String, Value)> = names
                .iter()
                .cloned()
                .zip(t.values().iter().cloned())
                .collect();
            row.sort();
            row.dedup_by(|a, b| a.0 == b.0);
            (t.timestamp, row)
        })
        .collect();
    rows.sort();
    rows
}

/// If the checker claims containment, execution must agree.
fn assert_containment_sound(q1: &AnalyzedQuery, q2: &AnalyzedQuery, inputs: &[Tuple]) {
    if !contained(q1, q2) {
        return;
    }
    let map = correspondence(q1, q2).expect("contained implies correspondence");
    let out1 = oracle::evaluate(q1, "o1", inputs);
    let out2 = oracle::evaluate(q2, "o2", inputs);
    let rows1 = keyed_rows(q1, &out1, Some((q2, &map)));
    let rows2 = keyed_rows(q2, &out2, None);
    // Every q1 row must appear in q2's rows once q2's row is projected
    // onto q1's columns (same timestamp).
    let mut remaining = rows2.clone();
    for (ts, row) in &rows1 {
        let pos = remaining.iter().position(|(ts2, row2)| {
            ts2 == ts
                && row
                    .iter()
                    .all(|(name, v)| row2.iter().any(|(n2, v2)| n2 == name && v2 == v))
        });
        let Some(pos) = pos else {
            panic!(
                "containment violated: q1 row {row:?}@{ts} missing from q2 output\n\
                 q1: {q1:#?}\nq2: {q2:#?}"
            );
        };
        remaining.swap_remove(pos);
    }
}

/// Law part 1: where `q1 ⊑ q2` and `q1`'s profile can be re-tightened
/// from `q2`, splitting `q2`'s result stream reproduces `q1`'s exactly.
fn assert_derivable(q1: &AnalyzedQuery, q2: &AnalyzedQuery, inputs: &[Tuple]) {
    if !contained(q1, q2) {
        return;
    }
    let stream = StreamName::from("o2");
    let Ok(profile) = retighten_profile(q1, q2, &stream) else {
        return;
    };
    let map = correspondence(q1, q2).expect("contained implies correspondence");
    let want = keyed_rows(q1, &oracle::evaluate(q1, "o1", inputs), Some((q2, &map)));
    let mut got: Vec<_> = oracle::evaluate(q2, stream, inputs)
        .iter()
        .filter(|t| profile.covers_tuple(t, &q2.output_schema))
        .map(|t| {
            let (pt, ps) = profile
                .project_tuple(t, &q2.output_schema)
                .expect("projectable");
            let mut row: Vec<(String, Value)> = ps
                .names()
                .map(str::to_string)
                .zip(pt.values().iter().cloned())
                .collect();
            row.sort();
            row.dedup_by(|a, b| a.0 == b.0);
            (pt.timestamp, row)
        })
        .collect();
    got.sort();
    assert_eq!(
        got, want,
        "splitting q2's result with q1's profile is not q1's result\n\
         q1: {q1:#?}\nq2: {q2:#?}\nprofile: {profile:?}"
    );
}

/// Law part 2: a representative contains both members and splits back
/// into each (and part 1 then holds for each member).
fn assert_merge_contains(q: &AnalyzedQuery, r: &AnalyzedQuery, inputs: &[Tuple]) {
    let Ok(m) = merge(q, r) else {
        return;
    };
    for member in [q, r] {
        assert!(
            contained(member, &m),
            "member not contained in its representative\nmember: {member:#?}\nrep: {m:#?}"
        );
        if let Err(e) = retighten_profile(member, &m, &StreamName::from("o2")) {
            panic!("member profile not re-tightenable from its representative: {e}");
        }
        assert_derivable(member, &m, inputs);
    }
}

/// Both parts of the law, for a pair in both orders.
fn assert_law(a: &str, b: &str, inputs: &[Tuple]) {
    let (a, b) = (analyzed(a), analyzed(b));
    assert_derivable(&a, &b, inputs);
    assert_derivable(&b, &a, inputs);
    assert_merge_contains(&a, &b, inputs);
    assert_merge_contains(&b, &a, inputs);
}

fn arb_single() -> impl Strategy<Value = String> {
    (
        prop_oneof![
            Just("[Now]"),
            Just("[Range 4 Second]"),
            Just("[Range 9 Second]"),
            Just("[Unbounded]")
        ],
        proptest::option::of((0i64..30, 5i64..30)),
        proptest::sample::subsequence(vec!["k", "x"], 1..=2),
    )
        .prop_map(|(w, range, cols)| {
            let where_ = match range {
                Some((lo, width)) => format!(" WHERE x BETWEEN {lo} AND {}", lo + width),
                None => String::new(),
            };
            format!("SELECT {} FROM L {w}{where_}", cols.join(", "))
        })
}

/// Window joins. Windows are drawn at the 5 s boundary ± 1 s, so pairs
/// differ by exactly one second as often as by more, and the inputs'
/// whole-second timestamps land on every window edge.
fn arb_join() -> impl Strategy<Value = String> {
    let window = || {
        prop_oneof![
            Just("[Now]"),
            Just("[Range 4 Second]"),
            Just("[Range 5 Second]"),
            Just("[Range 6 Second]"),
            Just("[Range 12 Second]")
        ]
    };
    (
        window(),
        window(),
        proptest::option::of(0i64..25),
        proptest::option::of(0i64..25),
        any::<bool>(),
    )
        .prop_map(|(w1, w2, xmin, ymax, timestamps)| {
            let mut extra = String::new();
            if let Some(m) = xmin {
                extra += &format!(" AND A.x >= {m}");
            }
            if let Some(m) = ymax {
                extra += &format!(" AND B.y <= {m}");
            }
            let ts = if timestamps {
                ", A.timestamp, B.timestamp"
            } else {
                ""
            };
            format!("SELECT A.k, A.x, B.y{ts} FROM L {w1} A, R {w2} B WHERE A.k = B.k{extra}")
        })
}

fn arb_agg() -> impl Strategy<Value = String> {
    (
        prop_oneof![Just("[Range 6 Second]"), Just("[Range 14 Second]")],
        proptest::option::of((0i64..3, 0i64..2)),
        proptest::sample::subsequence(vec!["COUNT(*)", "SUM(x)", "MAX(x)"], 1..=3),
    )
        .prop_map(|(w, krange, aggs)| {
            let where_ = match krange {
                Some((lo, width)) => format!(" WHERE k BETWEEN {lo} AND {}", lo + width),
                None => String::new(),
            };
            format!(
                "SELECT k, {} FROM L {w}{where_} GROUP BY k",
                aggs.join(", ")
            )
        })
}

fn arb_inputs() -> impl Strategy<Value = Vec<Tuple>> {
    proptest::collection::vec((0i64..20, any::<bool>(), 0i64..4, 0i64..35), 10..50).prop_map(
        |mut raw| {
            raw.sort_by_key(|(ts, _, _, _)| *ts);
            raw.into_iter()
                .map(|(ts, is_l, k, v)| {
                    let (stream, _) = if is_l { ("L", "x") } else { ("R", "y") };
                    Tuple::new(
                        stream,
                        Timestamp(ts * 1000),
                        vec![Value::Int(k), Value::Int(v), Value::Int(ts * 1000)],
                    )
                })
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 1 on single-stream select-project queries.
    #[test]
    fn theorem1_single_stream(a in arb_single(), b in arb_single(), inputs in arb_inputs()) {
        assert_containment_sound(&analyzed(&a), &analyzed(&b), &inputs);
        assert_containment_sound(&analyzed(&b), &analyzed(&a), &inputs);
    }

    /// Theorem 1 on window joins (the window-containment condition).
    #[test]
    fn theorem1_joins(a in arb_join(), b in arb_join(), inputs in arb_inputs()) {
        assert_containment_sound(&analyzed(&a), &analyzed(&b), &inputs);
        assert_containment_sound(&analyzed(&b), &analyzed(&a), &inputs);
    }

    /// Theorem 2 on grouped aggregates (equal-window condition).
    #[test]
    fn theorem2_aggregates(a in arb_agg(), b in arb_agg(), inputs in arb_inputs()) {
        assert_containment_sound(&analyzed(&a), &analyzed(&b), &inputs);
        assert_containment_sound(&analyzed(&b), &analyzed(&a), &inputs);
    }

    /// The derivability law on single-stream select-project queries.
    #[test]
    fn derivability_single_stream(a in arb_single(), b in arb_single(), inputs in arb_inputs()) {
        assert_law(&a, &b, &inputs);
    }

    /// The derivability law on window joins (Lemma 1's re-tightening).
    #[test]
    fn derivability_joins(a in arb_join(), b in arb_join(), inputs in arb_inputs()) {
        assert_law(&a, &b, &inputs);
    }

    /// The derivability law on grouped aggregates.
    #[test]
    fn derivability_aggregates(a in arb_agg(), b in arb_agg(), inputs in arb_inputs()) {
        assert_law(&a, &b, &inputs);
    }

    /// Containment is reflexive and execution agrees.
    #[test]
    fn reflexivity(a in arb_single(), inputs in arb_inputs()) {
        let q = analyzed(&a);
        prop_assert!(contained(&q, &q));
        assert_containment_sound(&q, &q, &inputs);
    }
}

/// Deterministic regression cases: the lemma's boundary (`ts` exactly at
/// the window edge) and the Now-window equality case.
#[test]
fn window_boundary_cases() {
    let narrow =
        analyzed("SELECT A.k, A.x, B.y FROM L [Range 4 Second] A, R [Now] B WHERE A.k = B.k");
    let wide =
        analyzed("SELECT A.k, A.x, B.y FROM L [Range 9 Second] A, R [Now] B WHERE A.k = B.k");
    assert!(contained(&narrow, &wide));
    let inputs = vec![
        Tuple::new(
            "L",
            Timestamp(0),
            vec![Value::Int(1), Value::Int(5), Value::Int(0)],
        ),
        // exactly 4s later: inside the narrow window (inclusive)
        Tuple::new(
            "R",
            Timestamp(4_000),
            vec![Value::Int(1), Value::Int(7), Value::Int(4_000)],
        ),
        // 9s: only the wide window
        Tuple::new(
            "R",
            Timestamp(9_000),
            vec![Value::Int(1), Value::Int(8), Value::Int(9_000)],
        ),
        // 10s: neither
        Tuple::new(
            "R",
            Timestamp(10_000),
            vec![Value::Int(1), Value::Int(9), Value::Int(10_000)],
        ),
    ];
    let narrow_out = oracle::evaluate(&narrow, "n", &inputs);
    let wide_out = oracle::evaluate(&wide, "w", &inputs);
    assert_eq!(narrow_out.len(), 1);
    assert_eq!(wide_out.len(), 2);
    assert_containment_sound(&narrow, &wide, &inputs);
}

/// Why part 1 of the law is conditional: Theorem 1 gives row inclusion,
/// but a representative that does not output the member's selection
/// attribute cannot be split back into the member's result stream.
#[test]
fn containment_without_split_attributes() {
    let narrow = analyzed("SELECT k FROM L [Now] WHERE x BETWEEN 0 AND 5");
    let all = analyzed("SELECT k FROM L [Now]");
    assert!(contained(&narrow, &all));
    let err = retighten_profile(&narrow, &all, &StreamName::from("o2")).unwrap_err();
    assert!(err.to_string().contains("lacks column 'x'"), "{err}");
}
