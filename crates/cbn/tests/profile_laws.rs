//! Algebraic laws of profiles and conjunctions, checked by sampling:
//! union is an upper bound under covering, covering is transitive and
//! sound against tuple matching, and normalization never loses data.

use cosmos_cbn::{Conjunction, DiffRange, Profile, ProfileEntry, Projection};
use cosmos_types::{AttrType, Schema, Timestamp, Tuple, Value};
use proptest::prelude::*;

fn schema() -> Schema {
    Schema::of(&[
        ("a", AttrType::Int),
        ("b", AttrType::Int),
        ("c", AttrType::Int),
    ])
}

#[derive(Debug, Clone)]
enum Atom {
    Between(&'static str, i64, i64),
    Eq(&'static str, i64),
    Ne(&'static str, i64),
    Diff(&'static str, &'static str, i64, i64),
}

fn arb_conj() -> impl Strategy<Value = Conjunction> {
    let attr = prop_oneof![Just("a"), Just("b"), Just("c")];
    let atom = prop_oneof![
        (attr.clone(), -8i64..8, -8i64..8).prop_map(|(x, l, h)| Atom::Between(
            x,
            l.min(h),
            l.max(h)
        )),
        (attr.clone(), -8i64..8).prop_map(|(x, v)| Atom::Eq(x, v)),
        (attr.clone(), -8i64..8).prop_map(|(x, v)| Atom::Ne(x, v)),
        (-6i64..6, -6i64..6).prop_map(|(l, h)| Atom::Diff("a", "b", l.min(h), l.max(h))),
    ];
    proptest::collection::vec(atom, 0..4).prop_map(|atoms| {
        let mut c = Conjunction::always();
        for a in atoms {
            match a {
                Atom::Between(x, l, h) => {
                    c.between(x, l, h);
                }
                Atom::Eq(x, v) => {
                    c.equals(x, v);
                }
                Atom::Ne(x, v) => {
                    c.excludes(x, v);
                }
                Atom::Diff(x, y, l, h) => {
                    c.diff(x, y, DiffRange::new(l as f64, h as f64));
                }
            }
        }
        c
    })
}

fn arb_entry() -> impl Strategy<Value = ProfileEntry> {
    (
        proptest::collection::vec(arb_conj(), 0..3),
        proptest::sample::subsequence(vec!["a", "b", "c"], 0..=3),
        any::<bool>(),
    )
        .prop_map(|(filters, attrs, all)| ProfileEntry {
            projection: if all {
                Projection::All
            } else {
                Projection::of(attrs)
            },
            filters,
        })
}

/// `ProfileEntry::union` as it was before the in-place form existed —
/// every filter of both operands cloned into a fresh pruning pass — kept
/// here as the reference the in-place fold is held to.
fn reference_union(a: &ProfileEntry, b: &ProfileEntry) -> ProfileEntry {
    let projection = a.projection.union(&b.projection);
    if a.filters.is_empty() || b.filters.is_empty() {
        return ProfileEntry {
            projection,
            filters: vec![],
        };
    }
    let mut filters: Vec<Conjunction> = Vec::new();
    'outer: for cand in a.filters.iter().chain(&b.filters) {
        if cand.is_unsat() {
            continue;
        }
        for kept in &filters {
            if cand.implies(kept) {
                continue 'outer;
            }
        }
        filters.retain(|kept| !kept.implies(cand));
        filters.push(cand.clone());
    }
    if filters.is_empty() {
        filters.push(a.filters[0].clone());
    }
    ProfileEntry {
        projection,
        filters,
    }
}

fn arb_profile() -> impl Strategy<Value = Profile> {
    proptest::collection::vec(arb_entry(), 1..3).prop_map(|entries| {
        let mut p = Profile::new();
        for (i, e) in entries.into_iter().enumerate() {
            p.add_entry(if i == 0 { "S" } else { "T" }, e);
        }
        p
    })
}

fn arb_tuple() -> impl Strategy<Value = Tuple> {
    (
        prop_oneof![Just("S"), Just("T")],
        -10i64..10,
        -10i64..10,
        -10i64..10,
    )
        .prop_map(|(s, a, b, c)| {
            Tuple::new(
                s,
                Timestamp(0),
                vec![Value::Int(a), Value::Int(b), Value::Int(c)],
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The union of two profiles covers every tuple either covers.
    #[test]
    fn union_is_an_upper_bound(p1 in arb_profile(), p2 in arb_profile(), t in arb_tuple()) {
        let u = p1.union(&p2);
        let s = schema();
        if p1.covers_tuple(&t, &s) || p2.covers_tuple(&t, &s) {
            prop_assert!(u.covers_tuple(&t, &s));
        }
        // and the union structurally covers both operands
        prop_assert!(u.covers(&p1));
        prop_assert!(u.covers(&p2));
    }

    /// Structural covering is sound for tuple matching: if `p` covers
    /// `q` and `q` accepts a tuple, `p` accepts it too.
    #[test]
    fn covering_is_sound(p in arb_profile(), q in arb_profile(), t in arb_tuple()) {
        let s = schema();
        if p.covers(&q) && q.covers_tuple(&t, &s) {
            prop_assert!(p.covers_tuple(&t, &s));
        }
    }

    /// Structural covering is transitive.
    #[test]
    fn covering_is_transitive(
        p in arb_profile(),
        q in arb_profile(),
        r in arb_profile(),
    ) {
        if p.covers(&q) && q.covers(&r) {
            prop_assert!(p.covers(&r), "transitivity broken");
        }
    }

    /// Normalization never narrows acceptance, and its projection
    /// retains every filter attribute.
    #[test]
    fn normalization_is_lossless(p in arb_profile(), t in arb_tuple()) {
        let s = schema();
        let n = p.normalized();
        prop_assert_eq!(p.covers_tuple(&t, &s), n.covers_tuple(&t, &s));
        for (_, entry) in n.iter() {
            for f in &entry.filters {
                for a in f.referenced_attrs() {
                    prop_assert!(
                        entry.projection.contains(&a),
                        "normalized projection misses filter attr {}", a
                    );
                }
            }
        }
    }

    /// Union is idempotent and commutative w.r.t. acceptance.
    #[test]
    fn union_laws(p in arb_profile(), q in arb_profile(), t in arb_tuple()) {
        let s = schema();
        let pq = p.union(&q);
        let qp = q.union(&p);
        prop_assert_eq!(pq.covers_tuple(&t, &s), qp.covers_tuple(&t, &s));
        let pp = p.union(&p);
        prop_assert_eq!(pp.covers_tuple(&t, &s), p.covers_tuple(&t, &s));
    }

    /// Folding entries in place — `union_with`, and `add_entry` /
    /// `merge_entry` / `Profile::union` on top of it — gives, field for
    /// field, what folding them with the cloning union gave: whatever
    /// the entries (unsatisfiable, duplicated or implied filters,
    /// accept-all, either projection kind) and whatever the fold order.
    /// The first entry of a fold is stored raw, never pruned.
    #[test]
    fn in_place_fold_is_the_cloning_fold(
        pool in proptest::collection::vec(arb_entry(), 1..5),
        order in proptest::collection::vec(0usize..64, 1..10),
    ) {
        let picks: Vec<&ProfileEntry> = order.iter().map(|i| &pool[i % pool.len()]).collect();
        let mut reference = picks[0].clone();
        let mut in_place = picks[0].clone();
        let (mut added, mut merged, mut unioned) = (Profile::new(), Profile::new(), Profile::new());
        for (n, e) in picks.iter().enumerate() {
            if n > 0 {
                reference = reference_union(&reference, e);
                in_place.union_with(e);
                prop_assert_eq!(&reference.union(e), &reference_union(&reference, e));
            }
            added.add_entry("S", (*e).clone());
            merged.merge_entry(&"S".into(), e);
            let mut single = Profile::new();
            single.add_entry("S", (*e).clone());
            unioned = unioned.union(&single);
            prop_assert_eq!(&in_place, &reference);
            for folded in [&added, &merged, &unioned] {
                prop_assert_eq!(folded.entry(&"S".into()), Some(&reference));
            }
        }
    }

    /// Projection through a profile keeps exactly the projected columns'
    /// values (sampled against by-name lookup).
    #[test]
    fn projection_preserves_values(p in arb_profile(), t in arb_tuple()) {
        let s = schema();
        if let Some((pt, ps)) = p.project_tuple(&t, &s) {
            for (i, name) in ps.names().enumerate() {
                prop_assert_eq!(
                    pt.get(i),
                    t.get_by_name(&s, name),
                    "column {} corrupted", name
                );
            }
        }
    }
}

/// Deterministic replay of the seed in `profile_laws.proptest-regressions`.
///
/// The shrunk case is a profile whose only filter has the empty interval
/// `a ∈ [0, −4]` (an unsatisfiable conjunction) paired with an
/// accept-all profile (empty filter list). It historically caught the
/// covering/union laws treating an unsatisfiable disjunct as if it
/// could match. The workspace's vendored proptest stand-in does not
/// replay `*.proptest-regressions` seeds, so this ordinary test keeps
/// the case pinned.
#[test]
fn regression_unsat_filter_interval_in_covering_and_union() {
    let s = schema();
    let mut dead = Conjunction::always();
    dead.between("a", Value::Int(0), Value::Int(-4));
    let mut p = Profile::new();
    p.add_entry(
        "S",
        ProfileEntry {
            projection: Projection::Attrs(Default::default()),
            filters: vec![dead],
        },
    );
    let mut q = Profile::new();
    q.add_entry(
        "S",
        ProfileEntry {
            projection: Projection::Attrs(Default::default()),
            filters: Vec::new(), // empty filter list = accept-all
        },
    );
    let t = Tuple::new(
        "S",
        Timestamp(0),
        vec![Value::Int(0), Value::Int(0), Value::Int(0)],
    );

    // The dead disjunct matches nothing; the accept-all profile matches t.
    assert!(!p.covers_tuple(&t, &s));
    assert!(q.covers_tuple(&t, &s));

    // union_is_an_upper_bound: the union accepts what either accepts and
    // structurally covers both operands.
    let u = p.union(&q);
    assert!(u.covers_tuple(&t, &s));
    assert!(u.covers(&p));
    assert!(u.covers(&q));

    // covering_is_sound: q accepts t, so anything covering q must too.
    if p.covers(&q) {
        assert!(p.covers_tuple(&t, &s));
    }

    // union_laws: commutative and idempotent w.r.t. acceptance.
    assert_eq!(
        p.union(&q).covers_tuple(&t, &s),
        q.union(&p).covers_tuple(&t, &s)
    );
    assert_eq!(p.union(&p).covers_tuple(&t, &s), p.covers_tuple(&t, &s));
}
