//! Continuous-query containment (Definition 1, Theorems 1 and 2).
//!
//! The paper defines `q1 ⊑ q2` as: at every application time instance
//! `τ` and for every stream instance `S`, the temporal result `q1(S, τ)`
//! is derivable from `q2(S, τ)` by the CBN's filter/projection mechanism.
//! Theorem 1 reduces the check for select-project-join queries to
//! (1) containment of the `∞`-window versions and (2) component-wise
//! window containment `T¹ᵢ ≤ T²ᵢ`; Theorem 2 covers aggregate queries,
//! requiring *equal* windows, identical grouping, and member selectivity
//! that acts on whole groups.
//!
//! [`contained`] decides the `∞`-window part structurally over the
//! conjunctive SPJ fragment COSMOS handles: the streams must correspond,
//! the weaker query's join predicates must follow from the stronger
//! one's (modulo the transitive closure of attribute equality), the
//! stronger query's per-stream selection must imply the weaker's
//! *semantically* ([`conjunction_implies`], which refutes `q1 ∧ ¬atom`
//! with the difference-constraint kernel), and the stronger query's
//! output must be available in the weaker's. It is *sound* — a `true`
//! answer is always correct — and conservative where the representation
//! cannot compare.
//!
//! Containment gives row inclusion. Definition 1's *derivability* —
//! that CBN filtering and projection of `q2`'s result stream rebuild
//! `q1`'s exactly — additionally needs the split attributes in `q2`'s
//! output; that is what [`crate::merge::retighten_profile`] returning
//! `Ok` decides. [`crate::merge::merge`] builds containment by
//! construction and never calls [`contained`], so `cosmos-verify`'s V4
//! checks the construction with this function independently.

use cosmos_cbn::conjunction_implies;
use cosmos_spe::analyze::{AnalyzedQuery, OutputColumn, QAttr};
use cosmos_types::FxHashMap;
use std::collections::BTreeSet;

/// Find the stream correspondence `q1.streams[i] ↔ q2.streams[map[i]]`:
/// a bijection pairing streams of the same name.
///
/// Streams appearing more than once (self joins) are matched
/// positionally among their duplicates, which is deterministic and
/// agrees between [`contained`], [`crate::merge::merge`] and
/// [`crate::merge::retighten_profile`]. Returns `None` when the stream
/// multisets differ.
pub fn correspondence(q1: &AnalyzedQuery, q2: &AnalyzedQuery) -> Option<Vec<usize>> {
    if q1.streams.len() != q2.streams.len() {
        return None;
    }
    let mut used = vec![false; q2.streams.len()];
    let mut map = Vec::with_capacity(q1.streams.len());
    for b1 in &q1.streams {
        let j = q2
            .streams
            .iter()
            .enumerate()
            .position(|(j, b2)| !used[j] && b2.stream == b1.stream)?;
        used[j] = true;
        map.push(j);
    }
    Some(map)
}

/// Rename a qualified attribute from `q1`'s binding namespace into
/// `q2`'s, under a correspondence.
fn rename(qa: &QAttr, q1: &AnalyzedQuery, q2: &AnalyzedQuery, map: &[usize]) -> Option<QAttr> {
    let i = q1.stream_index(&qa.binding)?;
    Some(QAttr::new(&q2.streams[map[i]].binding, &qa.name))
}

/// Union-find over qualified attributes, used to close join predicates
/// transitively.
#[derive(Default)]
struct AttrUnion {
    parent: FxHashMap<QAttr, QAttr>,
}

impl AttrUnion {
    fn find(&mut self, a: &QAttr) -> QAttr {
        let p = match self.parent.get(a) {
            Some(p) if p != a => p.clone(),
            _ => return a.clone(),
        };
        let root = self.find(&p);
        self.parent.insert(a.clone(), root.clone());
        root
    }

    fn union(&mut self, a: &QAttr, b: &QAttr) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent.insert(ra, rb);
        }
    }

    fn same(&mut self, a: &QAttr, b: &QAttr) -> bool {
        self.find(a) == self.find(b)
    }
}

/// Output column names of a query, renamed into `q2`'s bindings when a
/// map is given (aggregates print as `FUNC(arg)`).
fn outputs(
    q: &AnalyzedQuery,
    renamed: Option<(&AnalyzedQuery, &[usize])>,
) -> Option<BTreeSet<String>> {
    let name_of = |qa: &QAttr| -> Option<String> {
        match renamed {
            Some((q2, map)) => rename(qa, q, q2, map).map(|r| r.qualified()),
            None => Some(qa.qualified()),
        }
    };
    q.output
        .iter()
        .map(|c| match c {
            OutputColumn::Attr(qa) => name_of(qa),
            OutputColumn::Agg { func, arg } => {
                let inner = match arg {
                    Some(qa) => name_of(qa)?,
                    None => "*".to_string(),
                };
                Some(format!("{func}({inner})"))
            }
        })
        .collect()
}

/// The `∞`-window (relational) part shared by both theorems: every
/// combination satisfying `q1`'s predicates satisfies `q2`'s, and
/// `q1`'s output is available in `q2`'s.
fn infinity_contained(q1: &AnalyzedQuery, q2: &AnalyzedQuery, map: &[usize]) -> bool {
    // Join predicates of q2 must follow from q1's (transitive closure).
    let mut uf = AttrUnion::default();
    for j in &q1.joins {
        let (Some(l), Some(r)) = (rename(&j.left, q1, q2, map), rename(&j.right, q1, q2, map))
        else {
            return false;
        };
        uf.union(&l, &r);
    }
    if !q2.joins.iter().all(|j| uf.same(&j.left, &j.right)) {
        return false;
    }
    // q1's selections must imply q2's, stream by stream, semantically.
    if !map
        .iter()
        .enumerate()
        .all(|(i1, &i2)| conjunction_implies(&q1.selections[i1], &q2.selections[i2]))
    {
        return false;
    }
    // q1's output must be a subset of q2's (so a projection of q2's
    // result stream can reproduce it).
    match (outputs(q1, Some((q2, map))), outputs(q2, None)) {
        (Some(o1), Some(o2)) if o1.is_subset(&o2) => {}
        _ => return false,
    }
    // DISTINCT changes multiset semantics in ways CBN filtering cannot
    // reproduce; only identical distinct-ness is comparable.
    q1.distinct == q2.distinct
}

/// `q1 ⊑ q2`: Theorem 1 for select-project-join queries, Theorem 2 for
/// aggregates. An aggregate and a non-aggregate query are incomparable.
pub fn contained(q1: &AnalyzedQuery, q2: &AnalyzedQuery) -> bool {
    if q1.is_aggregate() != q2.is_aggregate() {
        return false;
    }
    let Some(map) = correspondence(q1, q2) else {
        return false;
    };
    if q1.is_aggregate() {
        // Theorem 2: equal windows and identical grouping.
        for (i1, &i2) in map.iter().enumerate() {
            if q1.streams[i1].window != q2.streams[i2].window {
                return false;
            }
        }
        let Some(g1) = q1
            .group_by
            .iter()
            .map(|g| rename(g, q1, q2, &map))
            .collect::<Option<BTreeSet<_>>>()
        else {
            return false;
        };
        let g2: BTreeSet<_> = q2.group_by.iter().cloned().collect();
        if g1 != g2 || q1.group_by.len() != q2.group_by.len() {
            return false;
        }
        // An aggregate value is only reconstructible from q2's when q1's
        // extra selectivity acts on whole groups: each of q1's selection
        // attributes is a grouping attribute, or constrained identically
        // in q2.
        for (i1, sel) in q1.selections.iter().enumerate() {
            for attr in sel.referenced_attrs() {
                let Some(renamed) =
                    rename(&QAttr::new(&q1.streams[i1].binding, &attr), q1, q2, &map)
                else {
                    return false;
                };
                let grouped = q2.group_by.contains(&renamed);
                let identical =
                    q2.selections[map[i1]].constraint_for(&attr) == sel.constraint_for(&attr);
                if !grouped && !identical {
                    return false;
                }
            }
        }
    } else {
        // Theorem 1: component-wise window containment T¹ᵢ ≤ T²ᵢ.
        for (i1, &i2) in map.iter().enumerate() {
            if q1.streams[i1].window > q2.streams[i2].window {
                return false;
            }
        }
    }
    infinity_contained(q1, q2, &map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_cql::parse_query;
    use cosmos_types::{AttrType, Schema};

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
    fn table1_containments_hold() {
        // The paper's running example: q3 contains both q1 and q2.
        assert!(contained(&q(Q1), &q(Q3)));
        assert!(contained(&q(Q2), &q(Q3)));
        // and not vice versa (q3 has a larger window / more outputs)
        assert!(!contained(&q(Q3), &q(Q1)));
        assert!(!contained(&q(Q3), &q(Q2)));
        // q1 and q2 are incomparable (different outputs/windows)
        assert!(!contained(&q(Q1), &q(Q2)));
        assert!(!contained(&q(Q2), &q(Q1)));
        // reflexive
        assert!(contained(&q(Q3), &q(Q3)));
    }

    #[test]
    fn window_condition_is_necessary() {
        let narrow = q("SELECT O.itemID FROM OpenAuction [Range 1 Hour] O, \
                        ClosedAuction [Now] C WHERE O.itemID = C.itemID");
        let wide = q("SELECT O.itemID FROM OpenAuction [Range 2 Hour] O, \
                      ClosedAuction [Now] C WHERE O.itemID = C.itemID");
        assert!(contained(&narrow, &wide));
        assert!(!contained(&wide, &narrow));
    }

    #[test]
    fn selection_implication_is_checked() {
        let tight = q("SELECT station FROM Sensors [Now] WHERE temperature > 30.0");
        let loose = q("SELECT station FROM Sensors [Now] WHERE temperature > 10.0");
        assert!(contained(&tight, &loose));
        assert!(!contained(&loose, &tight));
    }

    #[test]
    fn selection_implication_is_semantic() {
        // `station ≥ 5 ∧ temperature ≥ station` implies `temperature ≥ 5`
        // only across attributes: no per-key comparison sees it.
        let chained = q("SELECT station FROM Sensors [Now] \
                         WHERE station >= 5 AND temperature >= station");
        let warm = q("SELECT station FROM Sensors [Now] WHERE temperature >= 5.0");
        assert!(contained(&chained, &warm));
        assert!(!contained(&warm, &chained));
    }

    #[test]
    fn output_subset_is_required() {
        let small = q("SELECT station FROM Sensors [Now]");
        let big = q("SELECT station, temperature FROM Sensors [Now]");
        assert!(contained(&small, &big));
        assert!(!contained(&big, &small));
    }

    #[test]
    fn missing_join_predicate_blocks_containment() {
        let joined = q(
            "SELECT O.itemID FROM OpenAuction [Now] O, ClosedAuction [Now] C \
                        WHERE O.itemID = C.itemID",
        );
        let cross = q("SELECT O.itemID FROM OpenAuction [Now] O, ClosedAuction [Now] C");
        // joined ⊑ cross (fewer predicates = weaker), not vice versa
        assert!(contained(&joined, &cross));
        assert!(!contained(&cross, &joined));
    }

    #[test]
    fn transitive_join_closure() {
        // q1 joins O.itemID = C.itemID and O.itemID = C.buyerID, which
        // transitively implies C.itemID = C.buyerID... but that is a
        // same-stream predicate in q2's FROM shape; use three-way
        // equality through two predicates instead.
        let strong = q(
            "SELECT O.itemID FROM OpenAuction [Now] O, ClosedAuction [Now] C \
                        WHERE O.itemID = C.itemID AND O.sellerID = C.itemID",
        );
        let weak = q(
            "SELECT O.itemID FROM OpenAuction [Now] O, ClosedAuction [Now] C \
                      WHERE O.sellerID = C.itemID",
        );
        assert!(contained(&strong, &weak));
        assert!(!contained(&weak, &strong));
    }

    #[test]
    fn different_streams_are_incomparable() {
        let a = q("SELECT station FROM Sensors [Now]");
        let b = q("SELECT O.itemID FROM OpenAuction [Now] O");
        assert!(!contained(&a, &b));
        assert!(correspondence(&a, &b).is_none());
    }

    #[test]
    fn distinct_must_match() {
        let d = q("SELECT DISTINCT station FROM Sensors [Now]");
        let nd = q("SELECT station FROM Sensors [Now]");
        assert!(!contained(&d, &nd));
        assert!(!contained(&nd, &d));
        assert!(contained(&d, &d));
    }

    #[test]
    fn aggregate_containment_needs_equal_windows() {
        let a5 = q(
            "SELECT station, AVG(temperature) FROM Sensors [Range 5 Minute] \
                    GROUP BY station",
        );
        let a10 = q(
            "SELECT station, AVG(temperature) FROM Sensors [Range 10 Minute] \
                     GROUP BY station",
        );
        // Theorem 2: equal windows required — even the smaller window is
        // not contained in the larger one for aggregates.
        assert!(!contained(&a5, &a10));
        assert!(!contained(&a10, &a5));
        assert!(contained(&a5, &a5));
    }

    #[test]
    fn aggregate_containment_with_group_filters() {
        let all = q("SELECT station, AVG(temperature), COUNT(*) \
                     FROM Sensors [Range 5 Minute] GROUP BY station");
        let one = q("SELECT station, AVG(temperature) \
                     FROM Sensors [Range 5 Minute] WHERE station = 3 GROUP BY station");
        // `one` filters on the grouping attribute → reconstructible
        assert!(contained(&one, &all));
        assert!(!contained(&all, &one));
    }

    #[test]
    fn aggregate_with_non_group_filter_is_not_contained() {
        let all = q("SELECT station, COUNT(*) FROM Sensors [Range 5 Minute] GROUP BY station");
        let hot = q("SELECT station, COUNT(*) FROM Sensors [Range 5 Minute] \
                     WHERE temperature > 30.0 GROUP BY station");
        // counting only hot readings is NOT derivable from counting all
        assert!(!contained(&hot, &all));
    }

    #[test]
    fn aggregate_vs_spj_incomparable() {
        let agg = q("SELECT station, COUNT(*) FROM Sensors [Now] GROUP BY station");
        let spj = q("SELECT station FROM Sensors [Now]");
        assert!(!contained(&agg, &spj));
        assert!(!contained(&spj, &agg));
    }

    #[test]
    fn self_join_correspondence_is_positional() {
        let a = q(
            "SELECT A.itemID FROM OpenAuction [Range 1 Hour] A, OpenAuction [Now] B \
                   WHERE A.itemID = B.itemID",
        );
        let b = q(
            "SELECT X.itemID FROM OpenAuction [Range 2 Hour] X, OpenAuction [Now] Y \
                   WHERE X.itemID = Y.itemID",
        );
        let map = correspondence(&a, &b).unwrap();
        assert_eq!(map, vec![0, 1]);
        assert!(contained(&a, &b));
    }
}
