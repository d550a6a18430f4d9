//! The value-level abstraction domain: per-attribute intervals.
//!
//! An [`AbsTuple`] over-approximates the set of tuples that can flow
//! past a point in the network: attribute `a ↦ I` means every such
//! tuple's `a` lies in `I`; attributes absent from the map are
//! unconstrained. The abstraction of a *filter list* (a disjunction of
//! conjunctions, empty = accept-all) is the per-attribute hull across
//! its satisfiable disjuncts, with each disjunct's intervals extracted
//! from the difference-constraint graph by
//! [`cosmos_cbn::conjunction_range`] — so transitive tightenings like
//! `a ≤ b ∧ b ≤ 3 ⇒ a ≤ 3` are visible to the abstraction even though
//! no atom mentions them directly.
//!
//! `None` is the **empty** abstraction (no tuple can pass), used by
//! `cosmos-verify`'s V6xx family to prove deliveries statically dead:
//! intersecting the abstractions along a dissemination path yields the
//! tuples that can actually arrive, and a disjoint meet at any hop
//! means the subscriber downstream can never receive anything.

use cosmos_cbn::profile::Projection;
use cosmos_cbn::{conjunction_range, Conjunction, Interval};
use std::collections::BTreeMap;

/// An abstract tuple: per-attribute intervals, missing = unconstrained.
pub type AbsTuple = BTreeMap<String, Interval>;

/// Abstraction of a filter list (disjunction; empty list = accept-all).
///
/// Returns `None` iff the list is non-empty and every disjunct is
/// provably unsatisfiable — nothing passes. Otherwise the result maps
/// each attribute constrained in *every* satisfiable disjunct to the
/// hull of its per-disjunct intervals (an attribute free in any
/// disjunct is unconstrained in the disjunction).
pub fn filters_abstraction(filters: &[Conjunction]) -> Option<AbsTuple> {
    if filters.is_empty() {
        return Some(AbsTuple::new());
    }
    let mut acc: Option<AbsTuple> = None;
    for c in filters {
        let Some(range) = conjunction_range(c) else {
            continue; // unsatisfiable disjunct contributes nothing
        };
        acc = Some(match acc {
            None => range,
            Some(prev) => {
                // Keep only attrs constrained on both sides, hulled.
                let mut out = AbsTuple::new();
                for (attr, iv) in &prev {
                    if let Some(other) = range.get(attr) {
                        let hulled = iv.hull(other);
                        if !hulled.is_full() {
                            out.insert(attr.clone(), hulled);
                        }
                    }
                }
                out
            }
        });
    }
    acc
}

/// Meet of two abstractions: per-attribute interval intersection.
/// Returns `None` when some shared attribute's meet is empty — no
/// concrete tuple lies in both abstractions.
pub fn intersect(a: &AbsTuple, b: &AbsTuple) -> Option<AbsTuple> {
    let mut out = a.clone();
    for (attr, iv) in b {
        match out.get_mut(attr) {
            Some(existing) => {
                *existing = existing.intersect(iv);
                if existing.is_empty() {
                    return None;
                }
            }
            None => {
                out.insert(attr.clone(), iv.clone());
            }
        }
    }
    Some(out)
}

/// Restrict an abstraction to the attributes a projection retains.
/// Sound because dropping a column only forgets constraints.
pub fn project(a: &AbsTuple, p: &Projection) -> AbsTuple {
    a.iter()
        .filter(|(attr, _)| p.contains(attr))
        .map(|(attr, iv)| (attr.clone(), iv.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_types::Value;

    fn between(attr: &str, lo: i64, hi: i64) -> Conjunction {
        let mut c = Conjunction::always();
        c.between(attr, lo, hi);
        c
    }

    fn iv(a: &AbsTuple, attr: &str) -> Interval {
        a.get(attr).cloned().unwrap_or_else(Interval::full)
    }

    #[test]
    fn empty_filter_list_is_top() {
        let top = filters_abstraction(&[]).unwrap();
        assert!(top.is_empty());
        // Top meets anything without shrinking it.
        let other = filters_abstraction(&[between("a", 0, 5)]).unwrap();
        assert_eq!(intersect(&top, &other).unwrap(), other);
    }

    #[test]
    fn all_unsat_disjuncts_is_bottom() {
        let mut unsat = between("a", 0, 5);
        unsat.lower("a", 10, false);
        assert!(filters_abstraction(&[unsat.clone()]).is_none());
        assert!(filters_abstraction(&[unsat.clone(), unsat]).is_none());
    }

    #[test]
    fn disjunction_hulls_per_attribute() {
        let f = [between("a", 0, 2), between("a", 8, 10)];
        let a = filters_abstraction(&f).unwrap();
        let hull = iv(&a, "a");
        assert!(hull.contains(&Value::Int(0)));
        assert!(hull.contains(&Value::Int(5))); // hull fills the gap
        assert!(hull.contains(&Value::Int(10)));
        assert!(!hull.contains(&Value::Int(11)));
    }

    #[test]
    fn attr_free_in_one_disjunct_is_unconstrained() {
        let mut both = between("a", 0, 2);
        both.between("b", 0, 1);
        let f = [both, between("a", 1, 3)];
        let a = filters_abstraction(&f).unwrap();
        assert!(a.contains_key("a"));
        assert!(!a.contains_key("b"));
    }

    #[test]
    fn unsat_disjunct_is_ignored_not_poisonous() {
        let mut unsat = between("a", 0, 5);
        unsat.lower("a", 10, false);
        let f = [unsat, between("a", 1, 3)];
        let a = filters_abstraction(&f).unwrap();
        assert!(!iv(&a, "a").contains(&Value::Int(7)));
    }

    #[test]
    fn abstraction_sees_difference_tightening() {
        // a ≤ b ∧ b ∈ [0, 3]  ⇒  a ≤ 3 (no atom says so directly).
        let mut c = Conjunction::always();
        c.diff("a", "b", cosmos_cbn::DiffRange::new(f64::NEG_INFINITY, 0.0));
        c.between("b", 0, 3);
        let a = filters_abstraction(&[c]).unwrap();
        assert!(!iv(&a, "a").contains(&Value::Int(10)));
    }

    #[test]
    fn meet_detects_disjointness() {
        let lo = filters_abstraction(&[between("a", 0, 4)]).unwrap();
        let hi = filters_abstraction(&[between("a", 6, 9)]).unwrap();
        assert!(intersect(&lo, &hi).is_none());
        let mid = filters_abstraction(&[between("a", 4, 6)]).unwrap();
        let met = intersect(&lo, &mid).unwrap();
        assert!(met.get("a").unwrap().contains(&Value::Int(4)));
        assert!(!met.get("a").unwrap().contains(&Value::Int(5)));
    }

    #[test]
    fn projection_drops_constraints_soundly() {
        let mut c = between("a", 0, 4);
        c.between("b", 1, 2);
        let a = filters_abstraction(&[c]).unwrap();
        let p = project(&a, &Projection::of(["a"]));
        assert!(p.contains_key("a"));
        assert!(!p.contains_key("b"));
        assert_eq!(project(&a, &Projection::All), a);
    }
}
