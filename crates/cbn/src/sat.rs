//! Satisfiability of [`Conjunction`]s beyond the shallow per-constraint
//! check.
//!
//! [`Conjunction::is_unsat`] only sees contradictions *inside* a single
//! constraint (an empty interval, an empty difference range). A
//! conjunction can still be empty through *interaction* of its
//! constraints, e.g. `a − b ≥ 0 AND b ≥ 5 AND a < 5`: every individual
//! constraint is non-empty, yet no assignment satisfies all three.
//!
//! Numeric bounds and difference ranges together form a system of
//! *difference constraints* — exactly the fragment solved by shortest
//! paths. [`conjunction_unsat`] builds the standard constraint graph
//! (constraint `x − y ≤ w` ⇒ edge `y → x` of weight `w`, plus a virtual
//! origin pinned at 0 for absolute bounds) and runs Bellman–Ford: the
//! system is infeasible iff the graph has a negative cycle. Strict
//! bounds (`<`, `>`) are tracked as an infinitesimal on each edge, so a
//! zero-weight cycle containing a strict edge is also infeasible.
//!
//! The check is **sound, not complete**: `true` means provably empty
//! (over the reals; exclusions from `!=` and non-numeric bounds are
//! ignored, which only widens the admitted set), while `false` merely
//! means no contradiction was found. Callers use it to prune filters
//! and reject queries, so only the `true` direction must be trusted.

use crate::predicate::{AttrConstraint, Conjunction, Interval};
use cosmos_types::Value;
use std::collections::BTreeMap;

/// One additional difference bound `to − from ≤ w` (`None` = the virtual
/// origin pinned at 0), conjoined onto a [`Conjunction`]'s constraint
/// graph by [`unsat_with`]. The entailment entry points use these to
/// encode the *negation* of a consequent atom.
#[derive(Debug, Clone)]
struct ExtraEdge<'a> {
    from: Option<&'a str>,
    to: Option<&'a str>,
    w: f64,
    strict: bool,
}

/// The difference-constraint graph of a conjunction: one node per
/// attribute appearing in a difference constraint (plus the virtual
/// origin, node 0, pinned at value 0), one edge per derivable bound
/// `to − from ≤ w`. Shared by the infeasibility check ([`unsat_with`])
/// and the per-attribute interval extraction ([`conjunction_range`]).
struct ConstraintGraph<'a> {
    idx: BTreeMap<&'a str, usize>,
    /// `(from, to, weight, strict)`: constraint `to − from ≤ weight`,
    /// strict when the bound excludes equality.
    edges: Vec<(usize, usize, f64, bool)>,
    /// Tolerance scaled to the weights in play so float rounding cannot
    /// manufacture a spurious negative cycle or an over-tight bound.
    eps: f64,
}

impl<'a> ConstraintGraph<'a> {
    fn build(c: &'a Conjunction, extra: &[ExtraEdge<'a>]) -> ConstraintGraph<'a> {
        // Nodes: one per attribute that appears in a difference
        // constraint (of `c` or of an extra edge). Attributes outside
        // every difference constraint cannot interact with anything;
        // their interval emptiness is covered by the shallow `is_unsat`
        // check upstream, and their ranges are read off directly.
        let mut idx: BTreeMap<&str, usize> = BTreeMap::new();
        for (a, b, _) in c.diff_constraints() {
            let next = idx.len() + 1;
            idx.entry(a).or_insert(next);
            let next = idx.len() + 1;
            idx.entry(b).or_insert(next);
        }
        for e in extra {
            for name in [e.from, e.to].into_iter().flatten() {
                let next = idx.len() + 1;
                idx.entry(name).or_insert(next);
            }
        }

        let mut edges: Vec<(usize, usize, f64, bool)> = Vec::new();
        for (a, b, r) in c.diff_constraints() {
            let (ia, ib) = (idx[a], idx[b]);
            // lo ≤ a − b ≤ hi: `a − b ≤ hi` and `b − a ≤ −lo`.
            if r.hi.is_finite() {
                edges.push((ib, ia, r.hi, false));
            }
            if r.lo.is_finite() {
                edges.push((ia, ib, -r.lo, false));
            }
        }
        for (name, ac) in c.attr_constraints() {
            let Some(&i) = idx.get(name) else { continue };
            // `a ≤ v` ⇒ a − origin ≤ v; `a ≥ v` ⇒ origin − a ≤ −v.
            // Non-numeric bounds are skipped (sound: skipping only
            // loosens).
            if let Some((v, incl)) = &ac.interval.hi {
                if let Some(x) = v.as_f64() {
                    edges.push((0, i, x, !incl));
                }
            }
            if let Some((v, incl)) = &ac.interval.lo {
                if let Some(x) = v.as_f64() {
                    edges.push((i, 0, -x, !incl));
                }
            }
        }
        for e in extra {
            let from = e.from.map_or(0, |a| idx[a]);
            let to = e.to.map_or(0, |a| idx[a]);
            edges.push((from, to, e.w, e.strict));
        }

        let max_w = edges.iter().map(|e| e.2.abs()).fold(0.0f64, f64::max);
        let eps = 1e-9 * (1.0 + max_w) * edges.len().max(1) as f64;
        ConstraintGraph { idx, edges, eps }
    }

    fn node_count(&self) -> usize {
        self.idx.len() + 1 // node 0 is the virtual origin
    }

    /// Lexicographic path weight (sum, strict-edge count): a path is
    /// strictly shorter when its sum is smaller beyond tolerance, or the
    /// sums tie and it crosses more strict bounds (each strict edge is
    /// an infinitesimal −ε).
    fn less(&self, a: (f64, usize), b: (f64, usize)) -> bool {
        a.0 < b.0 - self.eps || (a.0 <= b.0 + self.eps && a.1 > b.1)
    }

    /// Whether the difference-constraint system is infeasible: Bellman–
    /// Ford from an implicit super-source (all distances 0); after n
    /// relaxation rounds, any still-relaxable edge lies on a negative
    /// (or zero-but-strict) cycle.
    fn infeasible(&self) -> bool {
        if self.idx.is_empty() || self.edges.is_empty() {
            return false;
        }
        let mut dist = vec![(0.0f64, 0usize); self.node_count()];
        for _ in 0..self.node_count() {
            let mut changed = false;
            for &(u, v, w, strict) in &self.edges {
                let cand = (dist[u].0 + w, dist[u].1 + strict as usize);
                if self.less(cand, dist[v]) {
                    dist[v] = cand;
                    changed = true;
                }
            }
            if !changed {
                return false;
            }
        }
        self.edges.iter().any(|&(u, v, w, strict)| {
            let cand = (dist[u].0 + w, dist[u].1 + strict as usize);
            self.less(cand, dist[v])
        })
    }

    /// Single-source shortest paths from the origin (node 0), optionally
    /// over the reversed edge set. `dists[i] = Some((d, strict))` means
    /// the tightest derivable path bound is `d`, crossing a strict edge
    /// iff `strict`; `None` means node `i` is unreachable (no bound).
    /// Only meaningful on a feasible graph (no negative cycles).
    fn origin_distances(&self, reversed: bool) -> Vec<Option<(f64, bool)>> {
        let n = self.node_count();
        let mut dist: Vec<Option<(f64, usize)>> = vec![None; n];
        dist[0] = Some((0.0, 0));
        for _ in 1..n.max(2) {
            let mut changed = false;
            for &(u, v, w, strict) in &self.edges {
                let (u, v) = if reversed { (v, u) } else { (u, v) };
                let Some(du) = dist[u] else { continue };
                let cand = (du.0 + w, du.1 + strict as usize);
                if dist[v].is_none_or(|dv| self.less(cand, dv)) {
                    dist[v] = Some(cand);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        dist.into_iter()
            .map(|d| d.map(|(sum, strict)| (sum, strict > 0)))
            .collect()
    }
}

/// Whether `c`, conjoined with the extra difference bounds, provably
/// admits no assignment. The core of every entry point in this module.
fn unsat_with(c: &Conjunction, extra: &[ExtraEdge<'_>]) -> bool {
    ConstraintGraph::build(c, extra).infeasible()
}

/// Whether the conjunction provably admits no assignment.
///
/// Exact over the reals for the interval + difference-range fragment
/// (ignoring `!=` exclusions and non-numeric bounds, both of which are
/// skipped conservatively). Runs in `O(nodes × edges)`.
pub fn conjunction_unsat(c: &Conjunction) -> bool {
    if c.is_unsat() {
        return true;
    }
    unsat_with(c, &[])
}

/// The tightest per-attribute intervals implied by a conjunction,
/// extracted from its difference-constraint graph.
///
/// Returns `None` when the conjunction is provably unsatisfiable — its
/// abstraction is the empty set. Otherwise every referenced attribute
/// maps to a **sound over-approximation** of its admissible values:
/// the attribute's own declared interval (covering non-numeric bounds
/// the graph cannot express), tightened by shortest paths through the
/// difference constraints — `dist(origin → x)` is the tightest
/// derivable upper bound on `x`, `−dist(x → origin)` the tightest
/// lower bound, with a bound strict iff its tightest path crosses a
/// strict edge. So `a − b ≤ 2 AND b < 3` yields `a < 5` even though
/// `a` carries no interval constraint of its own. Exclusions (`!=`)
/// are ignored and graph bounds are widened by the float tolerance,
/// both of which only loosen the result — every satisfying assignment
/// lies inside every returned interval.
pub fn conjunction_range(c: &Conjunction) -> Option<BTreeMap<String, Interval>> {
    if conjunction_unsat(c) {
        return None;
    }
    // Base abstraction: each referenced attribute's declared interval.
    let mut out: BTreeMap<String, Interval> = c
        .referenced_attrs()
        .into_iter()
        .map(|attr| {
            let interval = c.constraint_for(&attr).interval;
            (attr, interval)
        })
        .collect();
    // Tighten attributes that participate in difference constraints.
    let g = ConstraintGraph::build(c, &[]);
    if g.idx.is_empty() {
        return Some(out);
    }
    let upper = g.origin_distances(false);
    let lower = g.origin_distances(true);
    for (name, &i) in &g.idx {
        let mut derived = Interval::full();
        // Widen by the graph tolerance: `x ≤ d` proven with float sums
        // must not round into a bound tighter than the real one.
        if let Some((d, strict)) = upper[i] {
            derived.hi = Some((Value::Float(d + g.eps), !strict));
        }
        if let Some((d, strict)) = lower[i] {
            derived.lo = Some((Value::Float(-d - g.eps), !strict));
        }
        let entry = out
            .entry((*name).to_string())
            .or_insert_with(Interval::full);
        *entry = entry.intersect(&derived);
        if entry.is_empty() {
            // Both operands over-approximate the admissible values, so
            // an empty meet proves the conjunction itself is empty.
            return None;
        }
    }
    Some(out)
}

/// Whether every assignment satisfying `a` satisfies `b` (`a ⇒ b`).
///
/// Strictly stronger than the syntactic [`Conjunction::implies`]: each
/// atom of `b` not already implied key-by-key is checked *semantically*
/// by refuting `a ∧ ¬atom` with the difference-constraint kernel, which
/// sees interactions across attributes (e.g. `x ≥ 5 ∧ x − y ≤ 2` implies
/// `y ≥ 3`). **Sound, not complete**: `true` is always correct; `false`
/// means the implication could not be proved (non-numeric atoms only get
/// the syntactic check).
pub fn conjunction_implies(a: &Conjunction, b: &Conjunction) -> bool {
    if conjunction_unsat(a) {
        return true; // vacuous: `a` admits nothing
    }
    if a.implies(b) {
        return true; // syntactic fast path (exact per shared key)
    }
    // Per-atom: `a ⇒ p ∧ q` iff `a ⇒ p` and `a ⇒ q`.
    for (attr, c2) in b.attr_constraints() {
        let c1 = a.constraint_for(attr);
        if c1.implies(c2) {
            continue;
        }
        // Bounds: refute `a ∧ ¬bound`. The negation of a lower bound
        // `x ≥ v` is `x < v` (an upper edge, strict flipped), and dually.
        if let Some((v, incl)) = &c2.interval.lo {
            let syntactic = c1.implies(&AttrConstraint::from_interval(Interval {
                lo: Some((v.clone(), *incl)),
                hi: None,
            }));
            let semantic = v.as_f64().is_some_and(|x| {
                unsat_with(
                    a,
                    &[ExtraEdge {
                        from: None,
                        to: Some(attr),
                        w: x,
                        strict: *incl,
                    }],
                )
            });
            if !syntactic && !semantic {
                return false;
            }
        }
        if let Some((v, incl)) = &c2.interval.hi {
            let syntactic = c1.implies(&AttrConstraint::from_interval(Interval {
                lo: None,
                hi: Some((v.clone(), *incl)),
            }));
            let semantic = v.as_f64().is_some_and(|x| {
                unsat_with(
                    a,
                    &[ExtraEdge {
                        from: Some(attr),
                        to: None,
                        w: -x,
                        strict: *incl,
                    }],
                )
            });
            if !syntactic && !semantic {
                return false;
            }
        }
        // Exclusions: `a ⇒ x ≠ v` iff `a ∧ x = v` is empty.
        for e in &c2.excluded {
            let syntactic = c1.excluded.contains(e) || !c1.interval.contains(e);
            let semantic = e.as_f64().is_some_and(|x| {
                unsat_with(
                    a,
                    &[
                        ExtraEdge {
                            from: None,
                            to: Some(attr),
                            w: x,
                            strict: false,
                        },
                        ExtraEdge {
                            from: Some(attr),
                            to: None,
                            w: -x,
                            strict: false,
                        },
                    ],
                )
            });
            if !syntactic && !semantic {
                return false;
            }
        }
    }
    for (x, y, r2) in b.diff_constraints() {
        // `a`'s range for the same (canonically ordered) pair, if any.
        let r1 = a
            .diff_constraints()
            .find(|(ax, ay, _)| *ax == x && *ay == y)
            .map(|(_, _, r)| *r);
        if r1.is_some_and(|r1| r1.implies(r2)) {
            continue;
        }
        // Negation of `x − y ≥ lo` is `x − y < lo`; of `x − y ≤ hi` is
        // `y − x < −hi`.
        if r2.lo.is_finite()
            && !unsat_with(
                a,
                &[ExtraEdge {
                    from: Some(y),
                    to: Some(x),
                    w: r2.lo,
                    strict: true,
                }],
            )
        {
            return false;
        }
        if r2.hi.is_finite()
            && !unsat_with(
                a,
                &[ExtraEdge {
                    from: Some(x),
                    to: Some(y),
                    w: -r2.hi,
                    strict: true,
                }],
            )
        {
            return false;
        }
    }
    true
}

/// Whether the disjunction `antecedent` implies the disjunction
/// `consequent`, under the [`crate::ProfileEntry`] convention that an
/// **empty filter list means accept-all**.
///
/// Conservative and sound: each satisfiable disjunct of the antecedent
/// must imply *some single* disjunct of the consequent (case splits
/// across consequent disjuncts are not attempted), so `true` is always
/// correct.
pub fn filters_imply(antecedent: &[Conjunction], consequent: &[Conjunction]) -> bool {
    if consequent.is_empty() {
        return true; // accept-all is implied by anything
    }
    if antecedent.is_empty() {
        // Accept-all implies the consequent only if a disjunct of the
        // consequent is itself accept-all.
        return consequent.iter().any(|c| c.is_always());
    }
    antecedent
        .iter()
        .all(|a| conjunction_unsat(a) || consequent.iter().any(|c| conjunction_implies(a, c)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::DiffRange;
    use cosmos_types::Value;

    fn ge(lo: f64) -> DiffRange {
        DiffRange::new(lo, f64::INFINITY)
    }

    #[test]
    fn shallow_unsat_is_still_unsat() {
        let mut c = Conjunction::always();
        c.between("a", 5, 2);
        assert!(c.is_unsat());
        assert!(conjunction_unsat(&c));
    }

    #[test]
    fn always_true_is_sat() {
        assert!(!conjunction_unsat(&Conjunction::always()));
    }

    #[test]
    fn deep_unsat_through_a_difference_constraint() {
        // a ≥ b AND b ≥ 5 AND a < 5: each constraint alone is non-empty.
        let mut c = Conjunction::always();
        c.diff("a", "b", ge(0.0))
            .lower("b", 5, true)
            .upper("a", 5, false);
        assert!(!c.is_unsat(), "shallow check must not see this");
        assert!(conjunction_unsat(&c));
        // Relaxing the strict bound to ≤ makes a = b = 5 a model.
        let mut s = Conjunction::always();
        s.diff("a", "b", ge(0.0))
            .lower("b", 5, true)
            .upper("a", 5, true);
        assert!(!conjunction_unsat(&s));
    }

    #[test]
    fn deep_unsat_through_a_chain_of_differences() {
        // a − b ≥ 1, b − c ≥ 1, a − c ≤ 1: the chain forces a − c ≥ 2.
        let mut c = Conjunction::always();
        c.diff("a", "b", ge(1.0)).diff("b", "c", ge(1.0)).diff(
            "a",
            "c",
            DiffRange::new(f64::NEG_INFINITY, 1.0),
        );
        assert!(!c.is_unsat());
        assert!(conjunction_unsat(&c));
        // Widening the cap to 2 admits a = c + 2, b = c + 1.
        let mut s = Conjunction::always();
        s.diff("a", "b", ge(1.0)).diff("b", "c", ge(1.0)).diff(
            "a",
            "c",
            DiffRange::new(f64::NEG_INFINITY, 2.0),
        );
        assert!(!conjunction_unsat(&s));
    }

    #[test]
    fn zero_cycle_with_strict_bound_is_unsat() {
        // a = b (difference pinned to 0), b ≥ 5, a < 5.
        let mut c = Conjunction::always();
        c.diff("a", "b", DiffRange::new(0.0, 0.0))
            .lower("b", 5, true)
            .upper("a", 5, false);
        assert!(conjunction_unsat(&c));
    }

    #[test]
    fn bounds_on_attrs_outside_diffs_do_not_interact() {
        let mut c = Conjunction::always();
        c.lower("x", 100, true)
            .upper("y", -100, true)
            .diff("a", "b", ge(0.0));
        assert!(!conjunction_unsat(&c));
    }

    #[test]
    fn non_numeric_bounds_are_skipped_soundly() {
        let mut c = Conjunction::always();
        c.equals("name", Value::str("abc"))
            .diff("a", "b", ge(0.0))
            .lower("b", 1, true);
        assert!(!conjunction_unsat(&c));
    }

    #[test]
    fn unbounded_difference_ranges_add_no_edges() {
        let mut c = Conjunction::always();
        c.diff("a", "b", DiffRange::any());
        assert!(!conjunction_unsat(&c));
    }

    #[test]
    fn contradictory_antecedent_implies_anything() {
        // a ≥ 5 ∧ a < 5 is empty, so it vacuously implies b = 42.
        let mut a = Conjunction::always();
        a.lower("a", 5, true).upper("a", 5, false);
        let mut b = Conjunction::always();
        b.equals("b", 42);
        assert!(conjunction_unsat(&a));
        assert!(conjunction_implies(&a, &b));
    }

    #[test]
    fn difference_chains_imply_their_transitive_closure() {
        // a − b ≤ −1 ∧ b − c ≤ −1 ⇒ a − c ≤ −2 — invisible to the
        // syntactic per-key check, provable by refutation.
        let neg = |hi: f64| DiffRange::new(f64::NEG_INFINITY, hi);
        let mut a = Conjunction::always();
        a.diff("a", "b", neg(-1.0)).diff("b", "c", neg(-1.0));
        let mut b = Conjunction::always();
        b.diff("a", "c", neg(-2.0));
        assert!(!a.implies(&b), "the syntactic check must not see this");
        assert!(conjunction_implies(&a, &b));
        // …and the closure is tight: a − c ≤ −3 does not follow.
        let mut tighter = Conjunction::always();
        tighter.diff("a", "c", neg(-3.0));
        assert!(!conjunction_implies(&a, &tighter));
    }

    #[test]
    fn interval_bound_follows_through_a_difference() {
        // x ≥ 5 ∧ x − y ≤ 2 ⇒ y ≥ 3.
        let mut a = Conjunction::always();
        a.lower("x", 5, true)
            .diff("x", "y", DiffRange::new(f64::NEG_INFINITY, 2.0));
        let mut b = Conjunction::always();
        b.lower("y", 3, true);
        assert!(!a.implies(&b));
        assert!(conjunction_implies(&a, &b));
        let mut too_much = Conjunction::always();
        too_much.lower("y", 4, true);
        assert!(!conjunction_implies(&a, &too_much));
    }

    #[test]
    fn exclusion_follows_through_a_difference() {
        // x = y ∧ y ≥ 5 ⇒ x ≠ 4: x is unconstrained per-key, but
        // pinning x = 4 forces y = 4 < 5.
        let mut a = Conjunction::always();
        a.diff("x", "y", DiffRange::new(0.0, 0.0))
            .lower("y", 5, true);
        let mut b = Conjunction::always();
        b.excludes("x", 4);
        assert!(!a.implies(&b));
        assert!(conjunction_implies(&a, &b));
        // x = 7 is a model (y = 7 ≥ 5), so x ≠ 7 must not be claimed.
        let mut open = Conjunction::always();
        open.excludes("x", 7);
        assert!(!conjunction_implies(&a, &open));
    }

    #[test]
    fn filter_implication_conventions_for_empty_disjunctions() {
        let restrictive = {
            let mut c = Conjunction::always();
            c.lower("a", 5, true);
            c
        };
        // Empty filter list = accept-all (profile convention): it is
        // implied by anything, and implies only accept-all consequents.
        assert!(filters_imply(std::slice::from_ref(&restrictive), &[]));
        assert!(filters_imply(&[], &[]));
        assert!(!filters_imply(&[], std::slice::from_ref(&restrictive)));
        assert!(filters_imply(&[], &[Conjunction::always()]));
        // Each antecedent disjunct needs *some* covering consequent.
        let low = {
            let mut c = Conjunction::always();
            c.upper("a", 0, true);
            c
        };
        assert!(filters_imply(
            &[restrictive.clone(), low.clone()],
            &[low.clone(), restrictive.clone()]
        ));
        assert!(!filters_imply(&[restrictive, low.clone()], &[low]));
    }

    #[test]
    fn empty_conjunction_degenerate_cases() {
        let always = Conjunction::always();
        assert!(!conjunction_unsat(&always));
        assert!(conjunction_implies(&always, &always));
        let mut restrictive = Conjunction::always();
        restrictive.lower("a", 5, true);
        assert!(!conjunction_implies(&always, &restrictive));
        assert!(conjunction_implies(&restrictive, &always));
        // An always-true disjunct behaves as accept-all inside a list.
        assert!(filters_imply(
            &[restrictive.clone()],
            &[Conjunction::always()]
        ));
        assert!(!filters_imply(&[Conjunction::always()], &[restrictive]));
    }

    #[test]
    fn tautological_bounds_are_implied() {
        // x ≤ 5 ⇒ x < 6 and x ≤ 5 over the reals — the semantic check
        // must see both even though neither is syntactically keyed.
        let mut a = Conjunction::always();
        a.upper("x", 5, true);
        let mut b = Conjunction::always();
        b.upper("x", 6, false);
        assert!(conjunction_implies(&a, &b));
        let mut same = Conjunction::always();
        same.upper("x", 5, true);
        assert!(conjunction_implies(&a, &same));
        // …but not the converse.
        assert!(!conjunction_implies(&b, &a));
    }

    #[test]
    fn equality_chain_at_interval_endpoints() {
        // a = b, b ∈ [3, 7], a ≥ 7: the chain pins both to exactly 7 —
        // satisfiable at the closed endpoint, empty once it is open.
        let mut c = Conjunction::always();
        c.diff("a", "b", DiffRange::new(0.0, 0.0))
            .between("b", 3, 7)
            .lower("a", 7, true);
        assert!(!conjunction_unsat(&c));
        let mut open = Conjunction::always();
        open.diff("a", "b", DiffRange::new(0.0, 0.0))
            .between("b", 3, 7)
            .lower("a", 7, false);
        assert!(conjunction_unsat(&open));
    }

    #[test]
    fn filter_lists_of_only_unsat_disjuncts() {
        let dead = {
            let mut c = Conjunction::always();
            c.lower("a", 5, true).upper("a", 5, false);
            c
        };
        // Every-disjunct-dead antecedent implies anything (vacuous).
        let mut restrictive = Conjunction::always();
        restrictive.lower("b", 0, true);
        assert!(filters_imply(
            &[dead.clone(), dead.clone()],
            std::slice::from_ref(&restrictive)
        ));
    }

    #[test]
    fn range_of_empty_conjunction_is_empty_map() {
        let r = conjunction_range(&Conjunction::always()).expect("always is satisfiable");
        assert!(r.is_empty());
    }

    #[test]
    fn range_of_unsat_conjunction_is_none() {
        let mut c = Conjunction::always();
        c.diff("a", "b", ge(0.0)).lower("b", 5, true).upper(
            "a", 5, false, // a ≥ b ≥ 5 and a < 5
        );
        assert_eq!(conjunction_range(&c), None);
    }

    #[test]
    fn range_reads_declared_intervals_for_diff_free_attrs() {
        let mut c = Conjunction::always();
        c.between("x", 2, 9).equals("name", Value::str("abc"));
        let r = conjunction_range(&c).unwrap();
        assert_eq!(r["x"], Interval::closed(Value::Int(2), Value::Int(9)));
        assert_eq!(r["name"], Interval::point(Value::str("abc")));
    }

    #[test]
    fn range_tightens_through_differences() {
        // a − b ≤ 2 AND 0 ≤ b ≤ 3: a ≤ 5 though a has no own bound.
        let mut c = Conjunction::always();
        c.diff("a", "b", DiffRange::new(f64::NEG_INFINITY, 2.0))
            .between("b", 0, 3);
        let r = conjunction_range(&c).unwrap();
        let (hi, incl) = r["a"].hi.clone().expect("derived upper bound");
        assert!(incl);
        let hi = hi.as_f64().unwrap();
        assert!((hi - 5.0).abs() < 1e-6, "a ≤ {hi}, expected ≈5");
        assert!(r["a"].lo.is_none(), "no lower bound is derivable");
        // b keeps its declared closed interval.
        assert_eq!(r["b"], Interval::closed(Value::Int(0), Value::Int(3)));
    }

    #[test]
    fn range_strictness_follows_the_tightest_path() {
        // a ≥ b AND b > 2: the derived lower bound on a is strict.
        let mut c = Conjunction::always();
        c.diff("a", "b", ge(0.0)).lower("b", 2, false);
        let r = conjunction_range(&c).unwrap();
        let (lo, incl) = r["a"].lo.clone().expect("derived lower bound");
        assert!(!incl, "bound through a strict edge must stay strict");
        let lo = lo.as_f64().unwrap();
        assert!((lo - 2.0).abs() < 1e-6, "a > {lo}, expected ≈2");
    }

    #[test]
    fn range_pins_equality_chains_at_endpoints() {
        // a = b, b ∈ [3, 7], a ≥ 7 ⇒ both collapse to ≈[7, 7].
        let mut c = Conjunction::always();
        c.diff("a", "b", DiffRange::new(0.0, 0.0))
            .between("b", 3, 7)
            .lower("a", 7, true);
        let r = conjunction_range(&c).unwrap();
        for attr in ["a", "b"] {
            let (lo, _) = r[attr].lo.clone().expect("lower");
            let (hi, _) = r[attr].hi.clone().expect("upper");
            assert!((lo.as_f64().unwrap() - 7.0).abs() < 1e-6, "{attr} lo");
            assert!((hi.as_f64().unwrap() - 7.0).abs() < 1e-6, "{attr} hi");
        }
    }

    mod prop_tests {
        use super::*;
        use proptest::prelude::*;

        /// One randomly generated primitive constraint.
        #[derive(Debug, Clone)]
        enum Atom {
            Lower(usize, i64, bool),
            Upper(usize, i64, bool),
            Diff(usize, usize, i64, i64),
        }

        const ATTRS: [&str; 3] = ["a", "b", "c"];

        fn arb_atom() -> impl Strategy<Value = Atom> {
            let small = -4i64..=4;
            prop_oneof![
                (0usize..3, small.clone(), any::<bool>())
                    .prop_map(|(i, v, inc)| Atom::Lower(i, v, inc)),
                (0usize..3, small.clone(), any::<bool>())
                    .prop_map(|(i, v, inc)| Atom::Upper(i, v, inc)),
                (0usize..3, 1usize..3, small.clone(), small).prop_map(
                    // `j` is an offset so the pair is never a self-difference.
                    |(i, off, x, y)| Atom::Diff(i, (i + off) % 3, x.min(y), x.max(y))
                ),
            ]
        }

        fn build(atoms: &[Atom]) -> Conjunction {
            let mut c = Conjunction::always();
            for atom in atoms {
                match *atom {
                    Atom::Lower(i, v, inc) => {
                        c.lower(ATTRS[i], v, inc);
                    }
                    Atom::Upper(i, v, inc) => {
                        c.upper(ATTRS[i], v, inc);
                    }
                    Atom::Diff(i, j, lo, hi) => {
                        c.diff(ATTRS[i], ATTRS[j], DiffRange::new(lo as f64, hi as f64));
                    }
                }
            }
            c
        }

        fn satisfied_at(c: &Conjunction, p: [i64; 3]) -> bool {
            let vals: Vec<Value> = p.iter().map(|&v| Value::Int(v)).collect();
            c.satisfies_with(|name| ATTRS.iter().position(|a| *a == name).map(|i| &vals[i]))
        }

        proptest! {
            /// Soundness: if any sampled integer point satisfies the
            /// conjunction, the kernel must not call it unsatisfiable.
            #[test]
            fn never_unsat_when_a_witness_exists(atoms in proptest::collection::vec(arb_atom(), 0..8)) {
                let c = build(&atoms);
                let mut witness = false;
                for x in -5i64..=5 {
                    for y in -5i64..=5 {
                        for z in -5i64..=5 {
                            if satisfied_at(&c, [x, y, z]) {
                                witness = true;
                            }
                        }
                    }
                }
                if witness {
                    prop_assert!(!conjunction_unsat(&c), "unsat despite witness: {c}");
                }
            }

            /// Constraints generated *around* a known point are satisfiable,
            /// so the kernel must agree.
            #[test]
            fn constraints_built_around_a_point_are_sat(
                p in (-4i64..=4, -4i64..=4, -4i64..=4).prop_map(|(x, y, z)| [x, y, z]),
                picks in proptest::collection::vec((0usize..3, 0usize..3, any::<bool>(), 0i64..=3), 0..8),
            ) {
                let mut c = Conjunction::always();
                for (i, j, is_diff, slack) in picks {
                    if is_diff && i != j {
                        let d = p[i] - p[j];
                        c.diff(
                            ATTRS[i],
                            ATTRS[j],
                            DiffRange::new((d - slack) as f64, (d + slack) as f64),
                        );
                    } else {
                        c.between(ATTRS[i], p[i] - slack, p[i] + slack);
                    }
                }
                prop_assert!(satisfied_at(&c, p));
                prop_assert!(!conjunction_unsat(&c), "unsat but {p:?} satisfies: {c}");
            }

            /// Implication soundness: when the kernel claims `a ⇒ b`,
            /// no sampled integer point may satisfy `a` but not `b`.
            #[test]
            fn implication_claims_hold_at_every_sampled_point(
                aa in proptest::collection::vec(arb_atom(), 0..6),
                bb in proptest::collection::vec(arb_atom(), 0..4),
            ) {
                let a = build(&aa);
                let b = build(&bb);
                if conjunction_implies(&a, &b) {
                    for x in -5i64..=5 {
                        for y in -5i64..=5 {
                            for z in -5i64..=5 {
                                if satisfied_at(&a, [x, y, z]) {
                                    prop_assert!(
                                        satisfied_at(&b, [x, y, z]),
                                        "claimed {a} ⇒ {b} but ({x},{y},{z}) refutes it"
                                    );
                                }
                            }
                        }
                    }
                }
            }

            /// Range-extraction soundness: every sampled satisfying
            /// point must lie inside every interval the extraction
            /// claims — and a conjunction with a witness must not map
            /// to `None` (the empty abstraction).
            #[test]
            fn extracted_ranges_contain_every_sampled_point(
                atoms in proptest::collection::vec(arb_atom(), 0..8),
            ) {
                let c = build(&atoms);
                let ranges = conjunction_range(&c);
                for x in -5i64..=5 {
                    for y in -5i64..=5 {
                        for z in -5i64..=5 {
                            if !satisfied_at(&c, [x, y, z]) {
                                continue;
                            }
                            let Some(ranges) = &ranges else {
                                prop_assert!(
                                    false,
                                    "empty abstraction despite witness ({x},{y},{z}): {c}"
                                );
                                unreachable!()
                            };
                            for (i, v) in [x, y, z].into_iter().enumerate() {
                                if let Some(iv) = ranges.get(ATTRS[i]) {
                                    prop_assert!(
                                        iv.contains(&Value::Int(v)),
                                        "{} = {v} escapes claimed {iv} of {c}",
                                        ATTRS[i]
                                    );
                                }
                            }
                        }
                    }
                }
            }

            /// Filter-implication soundness over disjunctions: a claimed
            /// `F₁ ⇒ F₂` may leave no sampled point covered by `F₁` but
            /// not by `F₂` (empty filter = accept-all).
            #[test]
            fn filter_implication_claims_hold_at_every_sampled_point(
                aa in proptest::collection::vec(arb_atom(), 1..5),
                bb in proptest::collection::vec(arb_atom(), 1..5),
            ) {
                let fa = [build(&aa[..aa.len() / 2]), build(&aa[aa.len() / 2..])];
                let fb = [build(&bb[..bb.len() / 2]), build(&bb[bb.len() / 2..])];
                if filters_imply(&fa, &fb) {
                    for x in -5i64..=5 {
                        for y in -5i64..=5 {
                            for z in -5i64..=5 {
                                let p = [x, y, z];
                                if fa.iter().any(|c| satisfied_at(c, p)) {
                                    prop_assert!(
                                        fb.iter().any(|c| satisfied_at(c, p)),
                                        "claimed implied but ({x},{y},{z}) escapes"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
