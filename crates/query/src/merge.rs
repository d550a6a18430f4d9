//! Representative-query synthesis and profile re-tightening (Section 4).
//!
//! "For a group of queries that have overlapping results, our method
//! composes a new query q that contains all the queries in this group
//! … The representative query is generated by merging the query
//! predicates (selection predicates, join predicates, window predicates,
//! etc.)" — and "profiles are also generated for the users to retrieve
//! their query results from the result stream of the representative
//! query. It is actually to re-tighten the constraints that have been
//! 'loosened' in the representative query."
//!
//! [`merge`] builds the representative of two queries; folding it over a
//! group handles any group size. [`retighten_profile`] builds the CBN
//! profile that splits the representative's result stream back into one
//! member's exact result stream — including the window re-tightening
//! filters of the paper's `p1`/`p2` example, which constrain the
//! *difference* of the participating streams' timestamp attributes
//! according to Lemma 1. [`to_query`] unparses a representative back to
//! CQL so it can be shipped to a remote SPE as text.

use crate::containment::correspondence;
use cosmos_cbn::{Conjunction, DiffRange, Profile, Projection};
use cosmos_cql::{AttrRef, CmpOp, Operand, Predicate, Query, SelectItem, StreamRef, WindowSpec};
use cosmos_spe::analyze::{AnalyzedQuery, OutputColumn, QAttr};
use cosmos_types::{CosmosError, Result, StreamName, Value};
use std::collections::BTreeSet;

/// The timestamp attribute used for window re-tightening filters.
pub const TIMESTAMP_ATTR: &str = "timestamp";

/// Merge two continuous queries into a representative query whose result
/// contains both (`a ⊑ merge(a,b)` and `b ⊑ merge(a,b)`).
///
/// Fails with a `query` error when the inputs are not mergeable: stream
/// sets differ, join predicates differ, aggregation shapes differ,
/// `DISTINCT` is involved, aggregate windows differ, or the attributes
/// needed to split the shared stream again cannot be provided.
pub fn merge(a: &AnalyzedQuery, b: &AnalyzedQuery) -> Result<AnalyzedQuery> {
    if a.distinct || b.distinct {
        return Err(CosmosError::Query(
            "DISTINCT queries cannot share a result stream (splitting cannot \
             re-create per-member duplicate elimination)"
                .into(),
        ));
    }
    if a.is_aggregate() != b.is_aggregate() {
        return Err(CosmosError::Query(
            "cannot merge an aggregate query with a non-aggregate query".into(),
        ));
    }
    let map_b = correspondence(b, a)
        .ok_or_else(|| CosmosError::Query("queries involve different stream sets".into()))?;

    // Join predicates must coincide (renamed into `a`'s bindings).
    let renamed_joins: BTreeSet<_> = b
        .joins
        .iter()
        .map(|j| {
            let rn = |qa: &QAttr| {
                let i = b.stream_index(&qa.binding).expect("bound");
                QAttr::new(&a.streams[map_b[i]].binding, &qa.name)
            };
            cosmos_spe::analyze::JoinPred::new(rn(&j.left), rn(&j.right))
        })
        .collect();
    if renamed_joins != a.joins {
        return Err(CosmosError::Query(
            "queries have different join predicates".into(),
        ));
    }

    // Windows: maximum per stream for SPJ (Theorem 1); equal for
    // aggregates (Theorem 2).
    let mut streams = a.streams.clone();
    for (ib, &ia) in map_b.iter().enumerate() {
        let (wa, wb) = (a.streams[ia].window, b.streams[ib].window);
        if a.is_aggregate() {
            if wa != wb {
                return Err(CosmosError::Query(format!(
                    "aggregate windows differ on stream '{}' ({} vs {})",
                    a.streams[ia].stream, wa, wb
                )));
            }
        } else {
            streams[ia].window = wa.max_window(wb);
        }
    }

    // Aggregate shape checks.
    let group_by = a.group_by.clone();
    if a.is_aggregate() {
        let ga: BTreeSet<String> = a.group_by.iter().map(|g| g.qualified()).collect();
        let gb: BTreeSet<String> = b
            .group_by
            .iter()
            .map(|g| {
                let i = b.stream_index(&g.binding).expect("bound");
                QAttr::new(&a.streams[map_b[i]].binding, &g.name).qualified()
            })
            .collect();
        if ga != gb {
            return Err(CosmosError::Query(
                "aggregate queries have different grouping conditions".into(),
            ));
        }
        // Every selection attribute of either member must be a grouping
        // attribute, else the member's aggregate values cannot be
        // reconstructed from the shared (hull-selected) aggregates.
        let group_names: BTreeSet<&str> = a.group_by.iter().map(|g| g.name.as_str()).collect();
        for (q, label) in [(a, "first"), (b, "second")] {
            for sel in &q.selections {
                for attr in sel.referenced_attrs() {
                    if !group_names.contains(attr.as_str()) {
                        return Err(CosmosError::Query(format!(
                            "{label} query filters on non-grouping attribute '{attr}'; \
                             its aggregate cannot be split from a shared result"
                        )));
                    }
                }
            }
        }
    }

    // Selections: per-stream hull ("loosening").
    let mut selections = Vec::with_capacity(streams.len());
    for ia in 0..streams.len() {
        let ib = map_b.iter().position(|&x| x == ia).expect("bijection");
        let mut hull = a.selections[ia].hull(&b.selections[ib]);
        hull.simplify();
        selections.push(hull);
    }

    // Output: union of both queries' columns (renamed to `a`'s bindings),
    // preserving `a`'s order first.
    let rename_col = |c: &OutputColumn| -> OutputColumn {
        let rn = |qa: &QAttr| {
            let i = b.stream_index(&qa.binding).expect("bound");
            QAttr::new(&a.streams[map_b[i]].binding, &qa.name)
        };
        match c {
            OutputColumn::Attr(qa) => OutputColumn::Attr(rn(qa)),
            OutputColumn::Agg { func, arg } => OutputColumn::Agg {
                func: *func,
                arg: arg.as_ref().map(&rn),
            },
        }
    };
    let mut output = a.output.clone();
    for c in &b.output {
        let rc = rename_col(c);
        if !output.contains(&rc) {
            output.push(rc);
        }
    }

    // Splitting support: every attribute a member's re-tightening filter
    // references must be available in the representative's output.
    let mut needed: BTreeSet<QAttr> = BTreeSet::new();
    for (q, map) in [(a, None), (b, Some(&map_b))] {
        for (i, sel) in q.selections.iter().enumerate() {
            let ia = map.map_or(i, |m| m[i]);
            for attr in sel.referenced_attrs() {
                needed.insert(QAttr::new(&a.streams[ia].binding, attr));
            }
        }
    }
    // Window re-tightening needs the timestamp attribute of every stream
    // whenever some member ends up with a narrower window than the
    // representative.
    if !a.is_aggregate() && streams.len() > 1 {
        let loosened = map_b.iter().enumerate().any(|(ib, &ia)| {
            a.streams[ia].window != streams[ia].window || b.streams[ib].window != streams[ia].window
        });
        if loosened {
            for s in &streams {
                if !s.schema.contains(TIMESTAMP_ATTR) {
                    return Err(CosmosError::Query(format!(
                        "stream '{}' lacks a '{TIMESTAMP_ATTR}' attribute; window \
                         re-tightening filters cannot be composed",
                        s.stream
                    )));
                }
                needed.insert(QAttr::new(&s.binding, TIMESTAMP_ATTR));
            }
        }
    }
    for qa in needed {
        let col = OutputColumn::Attr(qa);
        if !output.contains(&col) {
            output.push(col);
        }
    }

    AnalyzedQuery::from_parts(
        false,
        streams,
        selections,
        a.joins.clone(),
        output,
        group_by,
    )
    .map_err(|e| CosmosError::Query(format!("representative query invalid: {e}")))
}

/// Rename a member attribute into the representative's naming scheme
/// (without requiring it to be an output column — aggregate arguments
/// appear only inside `FUNC(arg)` column names).
fn renamed_attr(
    member: &AnalyzedQuery,
    rep: &AnalyzedQuery,
    map: &[usize],
    qa: &QAttr,
) -> Result<String> {
    let i = member
        .stream_index(&qa.binding)
        .ok_or_else(|| CosmosError::Query(format!("unbound member attribute {qa}")))?;
    let renamed = QAttr::new(&rep.streams[map[i]].binding, &qa.name);
    Ok(if rep.qualified_names() {
        renamed.qualified()
    } else {
        renamed.name
    })
}

/// The name of a member attribute inside the representative's result
/// schema (erroring when the representative does not provide it).
fn rep_column_name(
    member: &AnalyzedQuery,
    rep: &AnalyzedQuery,
    map: &[usize],
    qa: &QAttr,
) -> Result<String> {
    let name = renamed_attr(member, rep, map, qa)?;
    if !rep.output_schema.contains(&name) {
        return Err(CosmosError::Query(format!(
            "representative result lacks column '{name}' needed by a member"
        )));
    }
    Ok(name)
}

/// Build the profile a member's user submits to retrieve its exact
/// result stream from the representative's result stream — the paper's
/// "re-tightening" of the loosened constraints.
pub fn retighten_profile(
    member: &AnalyzedQuery,
    rep: &AnalyzedQuery,
    rep_stream: &StreamName,
) -> Result<Profile> {
    let map = correspondence(member, rep).ok_or_else(|| {
        CosmosError::Query("member and representative involve different streams".into())
    })?;

    // Projection: the member's output columns, named as the
    // representative's result schema names them.
    let mut projection = BTreeSet::new();
    for col in &member.output {
        let name = match col {
            OutputColumn::Attr(qa) => rep_column_name(member, rep, &map, qa)?,
            OutputColumn::Agg { func, arg } => {
                let inner = match arg {
                    Some(qa) => renamed_attr(member, rep, &map, qa)?,
                    None => "*".to_string(),
                };
                let name = format!("{func}({inner})");
                if !rep.output_schema.contains(&name) {
                    return Err(CosmosError::Query(format!(
                        "representative result lacks aggregate column '{name}'"
                    )));
                }
                name
            }
        };
        projection.insert(name);
    }

    // Filter: exactly the member constraints the representative
    // *loosened* ("re-tighten the constraints that have been 'loosened'
    // in the representative query"). Constraints the representative
    // still enforces as strictly are already guaranteed on the shared
    // stream and are skipped — in particular, a singleton group's
    // profile carries no selection filter at all.
    let mut filter = Conjunction::always();
    for (i, sel) in member.selections.iter().enumerate() {
        let binding = member.streams[i].binding.clone();
        let rep_sel = &rep.selections[map[i]];
        for (attr, c) in sel.attr_constraints() {
            if rep_sel.constraint_for(attr).implies(c) {
                continue; // not loosened
            }
            let name = rep_column_name(member, rep, &map, &QAttr::new(&binding, attr))?;
            filter.constrain(name, c.clone());
        }
        let rep_diffs: Vec<_> = rep_sel
            .diff_constraints()
            .map(|(a, b, r)| (a.to_string(), b.to_string(), *r))
            .collect();
        for (x, y, r) in sel.diff_constraints() {
            let enforced = rep_diffs.iter().any(|(a, b, rr)| {
                (a == x && b == y && rr.implies(r))
                    || (a == y && b == x && rr.implies(&r.flipped()))
            });
            if enforced {
                continue;
            }
            let nx = rep_column_name(member, rep, &map, &QAttr::new(&binding, x))?;
            let ny = rep_column_name(member, rep, &map, &QAttr::new(&binding, y))?;
            filter.diff(nx, ny, *r);
        }
    }

    // Window re-tightening (Lemma 1): for every stream pair (i, j) where
    // the member's window is narrower than the representative's, add
    //   −Tᵢ ≤ tsᵢ − tsⱼ ≤ Tⱼ
    // over the streams' timestamp attributes.
    if !member.is_aggregate() && member.streams.len() > 1 {
        let narrower: Vec<bool> = map
            .iter()
            .enumerate()
            .map(|(im, &ir)| member.streams[im].window < rep.streams[ir].window)
            .collect();
        // The paper's p1/p2 profiles carry the window filter even when the
        // member window equals the representative's; we follow suit when
        // the timestamp columns are available, and we *must* add it when
        // the member's window was actually loosened.
        let ts_available = map.iter().enumerate().all(|(im, &ir)| {
            let qa = QAttr::new(&rep.streams[ir].binding, TIMESTAMP_ATTR);
            let name = if rep.qualified_names() {
                qa.qualified()
            } else {
                qa.name
            };
            member.streams[im].schema.contains(TIMESTAMP_ATTR) && rep.output_schema.contains(&name)
        });
        for i in 0..member.streams.len() {
            for j in (i + 1)..member.streams.len() {
                if !narrower[i] && !narrower[j] && !ts_available {
                    continue;
                }
                let ti = member.streams[i].window;
                let tj = member.streams[j].window;
                if ti.is_infinite() && tj.is_infinite() {
                    continue;
                }
                let lo = if ti.is_infinite() {
                    f64::NEG_INFINITY
                } else {
                    -(ti.millis() as f64)
                };
                let hi = if tj.is_infinite() {
                    f64::INFINITY
                } else {
                    tj.millis() as f64
                };
                let tsi = rep_column_name(
                    member,
                    rep,
                    &map,
                    &QAttr::new(&member.streams[i].binding, TIMESTAMP_ATTR),
                )?;
                let tsj = rep_column_name(
                    member,
                    rep,
                    &map,
                    &QAttr::new(&member.streams[j].binding, TIMESTAMP_ATTR),
                )?;
                filter.diff(tsi, tsj, DiffRange::new(lo, hi));
            }
        }
    }

    // A split filter that provably admits no tuple would silently turn the
    // member's result stream into /dev/null; surface that instead. (The
    // satisfiability check sees contradictions *across* constraints, e.g.
    // re-tightened window diffs clashing with selection bounds, which the
    // per-constraint emptiness checks above cannot.)
    if cosmos_cbn::conjunction_unsat(&filter) {
        return Err(CosmosError::Query(format!(
            "re-tightened split filter for member query is unsatisfiable \
             (its result stream would always be empty): {filter}"
        )));
    }

    let mut profile = Profile::new();
    profile.add_interest(*rep_stream, Projection::Attrs(projection), filter);
    Ok(profile)
}

/// Unparse an analyzed query back to CQL (for shipping a representative
/// query to a remote processor's SPE as text).
pub fn to_query(q: &AnalyzedQuery) -> Result<Query> {
    let attr_ref = |qa: &QAttr| AttrRef::qualified(&qa.binding, &qa.name);
    let select = q
        .output
        .iter()
        .map(|c| match c {
            OutputColumn::Attr(qa) => SelectItem::Attr(attr_ref(qa)),
            OutputColumn::Agg { func, arg } => SelectItem::Agg {
                func: *func,
                arg: arg.as_ref().map(&attr_ref),
            },
        })
        .collect();
    let from = q
        .streams
        .iter()
        .map(|b| StreamRef {
            stream: b.stream.as_str().to_string(),
            alias: Some(b.binding.clone()),
            window: WindowSpec::from_size(b.window),
        })
        .collect();
    let mut predicates = Vec::new();
    for j in &q.joins {
        predicates.push(Predicate::Cmp {
            left: Operand::Attr(attr_ref(&j.left)),
            op: CmpOp::Eq,
            right: Operand::Attr(attr_ref(&j.right)),
        });
    }
    for (i, sel) in q.selections.iter().enumerate() {
        let binding = &q.streams[i].binding;
        for (attr, c) in sel.attr_constraints() {
            let aref = AttrRef::qualified(binding, attr);
            let point = match (&c.interval.lo, &c.interval.hi) {
                (Some((lo, true)), Some((hi, true))) if lo == hi => Some(lo.clone()),
                _ => None,
            };
            if let Some(v) = point {
                predicates.push(cmp(aref.clone(), CmpOp::Eq, v));
            } else {
                if let Some((lo, incl)) = &c.interval.lo {
                    let op = if *incl { CmpOp::Ge } else { CmpOp::Gt };
                    predicates.push(cmp(aref.clone(), op, lo.clone()));
                }
                if let Some((hi, incl)) = &c.interval.hi {
                    let op = if *incl { CmpOp::Le } else { CmpOp::Lt };
                    predicates.push(cmp(aref.clone(), op, hi.clone()));
                }
            }
            for e in &c.excluded {
                predicates.push(cmp(aref.clone(), CmpOp::Ne, e.clone()));
            }
        }
        for (x, y, r) in sel.diff_constraints() {
            let lx = AttrRef::qualified(binding, x);
            let ry = AttrRef::qualified(binding, y);
            let op = if r.lo == 0.0 && r.hi == 0.0 {
                CmpOp::Eq
            } else if r.lo == f64::NEG_INFINITY && r.hi == 0.0 {
                CmpOp::Le
            } else if r.lo == 0.0 && r.hi == f64::INFINITY {
                CmpOp::Ge
            } else {
                return Err(CosmosError::Query(format!(
                    "difference constraint {x} - {y} in {r} has no CQL form"
                )));
            };
            predicates.push(Predicate::Cmp {
                left: Operand::Attr(lx),
                op,
                right: Operand::Attr(ry),
            });
        }
    }
    let group_by = q.group_by.iter().map(&attr_ref).collect();
    Ok(Query {
        distinct: q.distinct,
        select,
        from,
        predicates,
        group_by,
    })
}

fn cmp(attr: AttrRef, op: CmpOp, v: Value) -> Predicate {
    Predicate::Cmp {
        left: Operand::Attr(attr),
        op,
        right: Operand::Const(v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containment::contained;
    use cosmos_cql::parse_query;
    use cosmos_types::{AttrType, Schema, TimeDelta};

    fn catalog(name: &str) -> Option<Schema> {
        match name {
            "OpenAuction" => Some(Schema::of(&[
                ("itemID", AttrType::Int),
                ("sellerID", AttrType::Int),
                ("start_price", AttrType::Float),
                ("timestamp", AttrType::Int),
            ])),
            "ClosedAuction" => Some(Schema::of(&[
                ("itemID", AttrType::Int),
                ("buyerID", AttrType::Int),
                ("timestamp", AttrType::Int),
            ])),
            "Sensors" => Some(Schema::of(&[
                ("station", AttrType::Int),
                ("temperature", AttrType::Float),
                ("timestamp", AttrType::Int),
            ])),
            _ => None,
        }
    }

    fn q(text: &str) -> AnalyzedQuery {
        AnalyzedQuery::analyze(&parse_query(text).unwrap(), catalog).unwrap()
    }

    const Q1: &str = "SELECT O.* FROM OpenAuction [Range 3 Hour] O, ClosedAuction [Now] C \
                      WHERE O.itemID = C.itemID";
    const Q2: &str = "SELECT O.itemID, O.timestamp, C.buyerID, C.timestamp \
                      FROM OpenAuction [Range 5 Hour] O, ClosedAuction [Now] C \
                      WHERE O.itemID = C.itemID";
    const Q3: &str = "SELECT O.*, C.buyerID, C.timestamp \
                      FROM OpenAuction [Range 5 Hour] O, ClosedAuction [Now] C \
                      WHERE O.itemID = C.itemID";

    #[test]
    fn merging_table1_q1_q2_yields_q3() {
        let rep = merge(&q(Q1), &q(Q2)).unwrap();
        let q3 = q(Q3);
        // identical FROM shape
        assert_eq!(rep.streams[0].window, TimeDelta::from_hours(5));
        assert_eq!(rep.streams[1].window, TimeDelta::ZERO);
        assert_eq!(rep.joins, q3.joins);
        // identical output column *set* (order may differ)
        let cols = |a: &AnalyzedQuery| {
            a.output_schema
                .names()
                .map(str::to_string)
                .collect::<BTreeSet<_>>()
        };
        assert_eq!(cols(&rep), cols(&q3));
        // and the paper's claim: q1 ⊑ rep, q2 ⊑ rep
        assert!(contained(&q(Q1), &rep));
        assert!(contained(&q(Q2), &rep));
    }

    #[test]
    fn paper_profiles_p1_p2_shape() {
        // p1: S = {s3}, P = {O.*}, F = {−3h ≤ O.timestamp − C.timestamp ≤ 0}
        let rep = merge(&q(Q1), &q(Q2)).unwrap();
        let stream = StreamName::from("s3");
        let p1 = retighten_profile(&q(Q1), &rep, &stream).unwrap();
        let e = p1.entry(&stream).unwrap();
        // projection covers O.* (all four OpenAuction attributes)
        for a in ["O.itemID", "O.sellerID", "O.start_price", "O.timestamp"] {
            assert!(e.projection.contains(a), "missing {a}");
        }
        assert_eq!(e.filters.len(), 1);
        let diffs: Vec<_> = e.filters[0].diff_constraints().collect();
        assert_eq!(diffs.len(), 1);
        let (x, y, r) = diffs[0];
        // canonical orientation: C.timestamp − O.timestamp ∈ [0, 3h]
        // which is exactly −3h ≤ O.ts − C.ts ≤ 0 flipped
        assert_eq!((x, y), ("C.timestamp", "O.timestamp"));
        assert_eq!(*r, DiffRange::new(0.0, 3.0 * 3_600_000.0));

        // p2 projects q2's four columns and re-tightens to 5 hours
        let p2 = retighten_profile(&q(Q2), &rep, &stream).unwrap();
        let e2 = p2.entry(&stream).unwrap();
        for a in ["O.itemID", "O.timestamp", "C.buyerID", "C.timestamp"] {
            assert!(e2.projection.contains(a), "missing {a}");
        }
        assert!(!e2.projection.contains("O.sellerID"));
        let d2: Vec<_> = e2.filters[0].diff_constraints().collect();
        assert_eq!(*d2[0].2, DiffRange::new(0.0, 5.0 * 3_600_000.0));
    }

    #[test]
    fn member_equal_to_rep_needs_no_window_filter() {
        // A member whose output carries no timestamp columns, merged with
        // itself: nothing is loosened and no timestamp columns exist in
        // the representative, so the profile has no filter at all.
        let plain = q("SELECT O.itemID FROM OpenAuction [Range 5 Hour] O, \
                       ClosedAuction [Now] C WHERE O.itemID = C.itemID");
        let rep = merge(&plain, &plain).unwrap();
        let p = retighten_profile(&plain, &rep, &StreamName::from("s")).unwrap();
        let e = p.entry(&StreamName::from("s")).unwrap();
        assert!(e.filters.is_empty(), "{:?}", e.filters);
    }

    #[test]
    fn selection_hull_loosens_and_profiles_retighten() {
        let cold = q("SELECT station, temperature, timestamp FROM Sensors [Now] \
                      WHERE temperature <= 0.0");
        let hot = q("SELECT station, temperature FROM Sensors [Now] \
                     WHERE temperature >= 30.0");
        let rep = merge(&cold, &hot).unwrap();
        // the hull admits everything between the two ranges → no
        // temperature constraint survives in the representative
        assert!(rep.selections[0].constraint_for("temperature").is_any());
        assert!(contained(&cold, &rep));
        assert!(contained(&hot, &rep));
        let s = StreamName::from("r");
        let pc = retighten_profile(&cold, &rep, &s).unwrap();
        let ph = retighten_profile(&hot, &rep, &s).unwrap();
        let fc = &pc.entry(&s).unwrap().filters[0];
        let fh = &ph.entry(&s).unwrap().filters[0];
        assert!(fc.satisfies_with(|n| (n == "temperature").then_some(&Value::Float(-5.0))));
        assert!(!fc.satisfies_with(|n| (n == "temperature").then_some(&Value::Float(35.0))));
        assert!(fh.satisfies_with(|n| (n == "temperature").then_some(&Value::Float(35.0))));
        assert!(!fh.satisfies_with(|n| (n == "temperature").then_some(&Value::Float(-5.0))));
    }

    #[test]
    fn unsat_retightened_split_filter_is_rejected() {
        // The member's selection is empty only through the *interaction*
        // of its difference constraint with two bounds (temperature ≥
        // timestamp ≥ 30 yet temperature < 30) — every individual
        // constraint is non-empty, so nothing upstream catches it. Once
        // the representative loosens all three, the re-tightened split
        // filter reproduces the contradiction and must be refused rather
        // than installed as a filter that can never match.
        let m = q("SELECT station, temperature, timestamp FROM Sensors [Now] \
                   WHERE temperature >= timestamp AND timestamp >= 30.0 \
                   AND temperature < 30.0");
        assert!(
            !m.selections[0].is_unsat(),
            "shallow check must not see this"
        );
        let other = q("SELECT station, temperature, timestamp FROM Sensors [Now] \
                       WHERE temperature >= 100.0");
        let rep = merge(&m, &other).unwrap();
        let s = StreamName::from("r");
        let err = retighten_profile(&m, &rep, &s).unwrap_err();
        assert_eq!(err.kind(), "query");
        assert!(err.message().contains("unsatisfiable"), "{err}");
        // The healthy member of the same group is unaffected.
        assert!(retighten_profile(&other, &rep, &s).is_ok());
    }

    #[test]
    fn overlapping_ranges_hull() {
        let a = q("SELECT station FROM Sensors [Now] WHERE temperature BETWEEN 0.0 AND 20.0");
        let b = q("SELECT station FROM Sensors [Now] WHERE temperature BETWEEN 10.0 AND 30.0");
        let rep = merge(&a, &b).unwrap();
        let c = rep.selections[0].constraint_for("temperature");
        assert!(c.satisfies(&Value::Float(0.0)));
        assert!(c.satisfies(&Value::Float(30.0)));
        assert!(!c.satisfies(&Value::Float(-1.0)));
        assert!(!c.satisfies(&Value::Float(31.0)));
    }

    #[test]
    fn merge_rejections() {
        // different streams
        assert!(merge(&q("SELECT station FROM Sensors [Now]"), &q(Q1)).is_err());
        // different join predicates
        let j1 = q(
            "SELECT O.itemID FROM OpenAuction [Now] O, ClosedAuction [Now] C \
                    WHERE O.itemID = C.itemID",
        );
        let j2 = q(
            "SELECT O.itemID FROM OpenAuction [Now] O, ClosedAuction [Now] C \
                    WHERE O.sellerID = C.itemID",
        );
        assert!(merge(&j1, &j2).is_err());
        // distinct
        let d = q("SELECT DISTINCT station FROM Sensors [Now]");
        assert!(merge(&d, &d).is_err());
        // aggregate with non-aggregate
        let ag = q("SELECT station, COUNT(*) FROM Sensors [Range 5 Minute] GROUP BY station");
        let pl = q("SELECT station FROM Sensors [Range 5 Minute]");
        assert!(merge(&ag, &pl).is_err());
        // aggregate windows differ
        let ag10 = q("SELECT station, COUNT(*) FROM Sensors [Range 10 Minute] GROUP BY station");
        assert!(merge(&ag, &ag10).is_err());
        // aggregate filtering on non-grouping attribute
        let hot = q("SELECT station, COUNT(*) FROM Sensors [Range 5 Minute] \
                     WHERE temperature > 30.0 GROUP BY station");
        assert!(merge(&ag, &hot).is_err());
    }

    #[test]
    fn aggregate_merge_with_group_filters() {
        let s3 = q(
            "SELECT station, AVG(temperature) FROM Sensors [Range 5 Minute] \
                    WHERE station = 3 GROUP BY station",
        );
        let s5 = q(
            "SELECT station, MAX(temperature) FROM Sensors [Range 5 Minute] \
                    WHERE station = 5 GROUP BY station",
        );
        let rep = merge(&s3, &s5).unwrap();
        assert!(rep.is_aggregate());
        // union of aggregate columns
        assert!(rep.output_schema.contains("AVG(temperature)"));
        assert!(rep.output_schema.contains("MAX(temperature)"));
        // hull of station constraints: [3, 5]
        let c = rep.selections[0].constraint_for("station");
        assert!(c.satisfies(&Value::Int(4)));
        assert!(!c.satisfies(&Value::Int(6)));
        assert!(contained(&s3, &rep));
        assert!(contained(&s5, &rep));
        // re-tightened profile picks out the member's group
        let s = StreamName::from("r");
        let p3 = retighten_profile(&s3, &rep, &s).unwrap();
        let f = &p3.entry(&s).unwrap().filters[0];
        assert!(f.satisfies_with(|n| (n == "station").then_some(&Value::Int(3))));
        assert!(!f.satisfies_with(|n| (n == "station").then_some(&Value::Int(4))));
    }

    #[test]
    fn merged_query_roundtrips_through_cql_text() {
        let rep = merge(&q(Q1), &q(Q2)).unwrap();
        let text = to_query(&rep).unwrap().to_string();
        let reparsed = AnalyzedQuery::analyze(&parse_query(&text).unwrap(), catalog)
            .unwrap_or_else(|e| panic!("reparse of representative failed: {e}\n{text}"));
        assert_eq!(rep, reparsed);
    }

    #[test]
    fn to_query_handles_all_constraint_shapes() {
        let orig = q("SELECT station, temperature FROM Sensors [Range 2 Hour] \
                      WHERE temperature > 1.5 AND temperature <= 9.5 AND station != 4 \
                      AND station BETWEEN 0 AND 60 AND station >= temperature");
        let text = to_query(&orig).unwrap().to_string();
        let reparsed = AnalyzedQuery::analyze(&parse_query(&text).unwrap(), catalog).unwrap();
        assert_eq!(orig, reparsed);
    }

    #[test]
    fn merge_is_commutative_up_to_column_set() {
        let a = q(Q1);
        let b = q(Q2);
        let ab = merge(&a, &b).unwrap();
        let ba = merge(&b, &a).unwrap();
        let cols = |x: &AnalyzedQuery| {
            x.output_schema
                .names()
                .map(str::to_string)
                .collect::<BTreeSet<_>>()
        };
        assert_eq!(cols(&ab), cols(&ba));
        assert_eq!(ab.streams[0].window, ba.streams[0].window);
        assert!(contained(&a, &ba) && contained(&b, &ab));
    }
}
