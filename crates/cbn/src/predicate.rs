//! The constraint algebra underlying CBN filters and query containment.
//!
//! A CBN filter (Section 3.1 of the paper) is "a conjunction of
//! constraints on the values of a set of attributes". COSMOS additionally
//! needs constraints on the *difference* of two attributes, because the
//! window re-tightening profiles of Section 4 take the form
//! `−3h ≤ O.timestamp − C.timestamp ≤ 0` (profiles `p1`/`p2` in the
//! paper). This module implements:
//!
//! * [`Interval`] — a (possibly half-open) interval over [`Value`]s;
//! * [`AttrConstraint`] — an interval plus a set of excluded points
//!   (`!=` constraints);
//! * [`DiffRange`] — a closed interval constraint on `a − b` for two
//!   numeric attributes;
//! * [`Conjunction`] — a conjunction of per-attribute and difference
//!   constraints, with the four operations the rest of the system is
//!   built on: **satisfaction** (does a tuple pass?), **implication**
//!   (is one filter stronger than another? — used for routing-table
//!   subsumption and query containment), **intersection** (logical AND)
//!   and **hull** (the tightest representable *weakening* covering both
//!   operands — used to synthesize representative queries).
//!
//! Soundness contract: `hull` may over-approximate (its result can accept
//! tuples neither operand accepts — e.g. the gap between two disjoint
//! intervals) but never under-approximates. `implies` is exact for this
//! representation. These are exactly the directions the paper's
//! representative-query construction needs: the representative result
//! must be a *superset* of every member result.

use cosmos_types::{Schema, Tuple, Value};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// An interval over [`Value`]s with independently open/closed endpoints.
///
/// `None` endpoints are unbounded. The `bool` in each endpoint is the
/// *inclusive* flag.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Interval {
    /// Lower endpoint, `None` = −∞.
    pub lo: Option<(Value, bool)>,
    /// Upper endpoint, `None` = +∞.
    pub hi: Option<(Value, bool)>,
}

/// Compare two lower endpoints: which admits fewer values (is greater)?
fn cmp_lo(a: &Option<(Value, bool)>, b: &Option<(Value, bool)>) -> Ordering {
    match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Less,
        (Some(_), None) => Ordering::Greater,
        (Some((va, ia)), Some((vb, ib))) => va.cmp(vb).then_with(|| {
            // At the same value, an exclusive lower bound is tighter.
            match (ia, ib) {
                (true, false) => Ordering::Less,
                (false, true) => Ordering::Greater,
                _ => Ordering::Equal,
            }
        }),
    }
}

/// Compare two upper endpoints: an upper bound is "less" when it admits
/// fewer values.
fn cmp_hi(a: &Option<(Value, bool)>, b: &Option<(Value, bool)>) -> Ordering {
    match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Greater,
        (Some(_), None) => Ordering::Less,
        (Some((va, ia)), Some((vb, ib))) => va.cmp(vb).then_with(|| match (ia, ib) {
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            _ => Ordering::Equal,
        }),
    }
}

impl Interval {
    /// The interval admitting every value.
    pub fn full() -> Interval {
        Interval { lo: None, hi: None }
    }

    /// The degenerate interval `[v, v]`.
    pub fn point(v: Value) -> Interval {
        Interval {
            lo: Some((v.clone(), true)),
            hi: Some((v, true)),
        }
    }

    /// `x ≥ v` (inclusive) or `x > v` (exclusive).
    pub fn at_least(v: Value, inclusive: bool) -> Interval {
        Interval {
            lo: Some((v, inclusive)),
            hi: None,
        }
    }

    /// `x ≤ v` (inclusive) or `x < v` (exclusive).
    pub fn at_most(v: Value, inclusive: bool) -> Interval {
        Interval {
            lo: None,
            hi: Some((v, inclusive)),
        }
    }

    /// `[lo, hi]`, both inclusive.
    pub fn closed(lo: Value, hi: Value) -> Interval {
        Interval {
            lo: Some((lo, true)),
            hi: Some((hi, true)),
        }
    }

    /// Whether the interval admits no value at all.
    pub fn is_empty(&self) -> bool {
        match (&self.lo, &self.hi) {
            (Some((lo, li)), Some((hi, hi_i))) => match lo.cmp(hi) {
                Ordering::Greater => true,
                Ordering::Equal => !(*li && *hi_i),
                Ordering::Less => false,
            },
            _ => false,
        }
    }

    /// Whether the interval admits every value.
    pub fn is_full(&self) -> bool {
        self.lo.is_none() && self.hi.is_none()
    }

    /// Whether `v` lies inside the interval.
    ///
    /// Uses coercing comparison: values incomparable with an endpoint
    /// (wrong type, `Null`, NaN) never satisfy.
    pub fn contains(&self, v: &Value) -> bool {
        if v.is_null() {
            return false;
        }
        if let Some((lo, incl)) = &self.lo {
            match v.partial_cmp_coerce(lo) {
                Some(Ordering::Greater) => {}
                Some(Ordering::Equal) if *incl => {}
                _ => return false,
            }
        }
        if let Some((hi, incl)) = &self.hi {
            match v.partial_cmp_coerce(hi) {
                Some(Ordering::Less) => {}
                Some(Ordering::Equal) if *incl => {}
                _ => return false,
            }
        }
        true
    }

    /// Whether every value of `self` is admitted by `other`.
    pub fn subset_of(&self, other: &Interval) -> bool {
        if self.is_empty() {
            return true;
        }
        cmp_lo(&self.lo, &other.lo) != Ordering::Less
            && cmp_hi(&self.hi, &other.hi) != Ordering::Greater
    }

    /// The tightest interval containing both operands.
    pub fn hull(&self, other: &Interval) -> Interval {
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        let lo = if cmp_lo(&self.lo, &other.lo) == Ordering::Greater {
            other.lo.clone()
        } else {
            self.lo.clone()
        };
        let hi = if cmp_hi(&self.hi, &other.hi) == Ordering::Less {
            other.hi.clone()
        } else {
            self.hi.clone()
        };
        Interval { lo, hi }
    }

    /// The intersection of the operands (possibly empty).
    pub fn intersect(&self, other: &Interval) -> Interval {
        let lo = if cmp_lo(&self.lo, &other.lo) == Ordering::Less {
            other.lo.clone()
        } else {
            self.lo.clone()
        };
        let hi = if cmp_hi(&self.hi, &other.hi) == Ordering::Greater {
            other.hi.clone()
        } else {
            self.hi.clone()
        };
        Interval { lo, hi }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.lo {
            Some((v, true)) => write!(f, "[{v}, ")?,
            Some((v, false)) => write!(f, "({v}, ")?,
            None => write!(f, "(-inf, ")?,
        }
        match &self.hi {
            Some((v, true)) => write!(f, "{v}]"),
            Some((v, false)) => write!(f, "{v})"),
            None => write!(f, "+inf)"),
        }
    }
}

/// A constraint on one attribute: an interval minus a set of excluded
/// points (the excluded points come from `!=` predicates).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttrConstraint {
    /// The admitting interval.
    pub interval: Interval,
    /// Values explicitly excluded (`!=`).
    pub excluded: BTreeSet<Value>,
}

impl AttrConstraint {
    /// The unconstrained attribute.
    pub fn any() -> AttrConstraint {
        AttrConstraint {
            interval: Interval::full(),
            excluded: BTreeSet::new(),
        }
    }

    /// A constraint admitting exactly the interval.
    pub fn from_interval(interval: Interval) -> AttrConstraint {
        AttrConstraint {
            interval,
            excluded: BTreeSet::new(),
        }
    }

    /// Whether the constraint admits everything.
    pub fn is_any(&self) -> bool {
        self.interval.is_full() && self.excluded.is_empty()
    }

    /// Whether the constraint admits nothing.
    ///
    /// Exact for point intervals; for wider intervals a finite excluded
    /// set can never empty them (value domains are dense or large).
    pub fn is_unsat(&self) -> bool {
        if self.interval.is_empty() {
            return true;
        }
        if let (Some((lo, true)), Some((hi, true))) = (&self.interval.lo, &self.interval.hi) {
            if lo == hi {
                return self.excluded.contains(lo);
            }
        }
        false
    }

    /// Whether `v` satisfies the constraint.
    pub fn satisfies(&self, v: &Value) -> bool {
        self.interval.contains(v) && !self.excluded.iter().any(|e| e.eq_coerce(v))
    }

    /// Conjunction of two constraints on the same attribute.
    pub fn and(&self, other: &AttrConstraint) -> AttrConstraint {
        AttrConstraint {
            interval: self.interval.intersect(&other.interval),
            excluded: self.excluded.union(&other.excluded).cloned().collect(),
        }
    }

    /// Whether every value admitted by `self` is admitted by `other`.
    pub fn implies(&self, other: &AttrConstraint) -> bool {
        if self.is_unsat() {
            return true;
        }
        if !self.interval.subset_of(&other.interval) {
            return false;
        }
        // Every point `other` excludes must be unsatisfiable under `self`.
        other
            .excluded
            .iter()
            .all(|e| !self.interval.contains(e) || self.excluded.contains(e))
    }

    /// The tightest representable constraint admitting everything either
    /// operand admits (may over-approximate across interval gaps).
    pub fn hull(&self, other: &AttrConstraint) -> AttrConstraint {
        if self.is_unsat() {
            return other.clone();
        }
        if other.is_unsat() {
            return self.clone();
        }
        AttrConstraint {
            interval: self.interval.hull(&other.interval),
            // Only points excluded by BOTH operands stay excluded.
            excluded: self
                .excluded
                .intersection(&other.excluded)
                .cloned()
                .collect(),
        }
    }
}

impl fmt::Display for AttrConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.interval)?;
        for e in &self.excluded {
            write!(f, " \\ {e}")?;
        }
        Ok(())
    }
}

/// A closed interval constraint on the difference of two numeric
/// attributes: `lo ≤ a − b ≤ hi` (in the attributes' own units; for
/// timestamps this is milliseconds).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiffRange {
    /// Inclusive lower bound on `a − b` (use `f64::NEG_INFINITY` for none).
    pub lo: f64,
    /// Inclusive upper bound on `a − b` (use `f64::INFINITY` for none).
    pub hi: f64,
}

impl DiffRange {
    /// Constraint `lo ≤ a − b ≤ hi`. Negative zero is normalized so
    /// flipped ranges print and compare cleanly.
    pub fn new(lo: f64, hi: f64) -> DiffRange {
        let norm = |x: f64| if x == 0.0 { 0.0 } else { x };
        DiffRange {
            lo: norm(lo),
            hi: norm(hi),
        }
    }

    /// The unconstrained difference.
    pub fn any() -> DiffRange {
        DiffRange {
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
        }
    }

    /// Whether `a − b` satisfies the constraint.
    pub fn satisfies(&self, a: &Value, b: &Value) -> bool {
        match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => {
                let d = x - y;
                d >= self.lo && d <= self.hi
            }
            _ => false,
        }
    }

    /// The reversed constraint, describing `b − a`.
    pub fn flipped(&self) -> DiffRange {
        DiffRange::new(-self.hi, -self.lo)
    }

    /// Whether `self`'s admitted differences are a subset of `other`'s.
    pub fn implies(&self, other: &DiffRange) -> bool {
        self.is_empty() || (self.lo >= other.lo && self.hi <= other.hi)
    }

    /// Hull of two difference ranges.
    pub fn hull(&self, other: &DiffRange) -> DiffRange {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        DiffRange {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Intersection of two difference ranges.
    pub fn intersect(&self, other: &DiffRange) -> DiffRange {
        DiffRange {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        }
    }

    /// Whether the range admits no difference.
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi
    }

    /// Whether the range admits every difference.
    pub fn is_any(&self) -> bool {
        self.lo == f64::NEG_INFINITY && self.hi == f64::INFINITY
    }
}

impl fmt::Display for DiffRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

/// A conjunction of per-attribute constraints and attribute-difference
/// constraints — the filter language of the COSMOS CBN.
///
/// The empty conjunction is `true` (accepts everything).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Conjunction {
    attrs: BTreeMap<String, AttrConstraint>,
    /// Keyed by the attribute pair `(a, b)` with `a < b` lexicographically;
    /// the stored range constrains `a − b`.
    diffs: BTreeMap<(String, String), DiffRange>,
}

impl Conjunction {
    /// The always-true conjunction.
    pub fn always() -> Conjunction {
        Conjunction::default()
    }

    /// Whether this is the always-true conjunction.
    pub fn is_always(&self) -> bool {
        self.attrs.values().all(AttrConstraint::is_any)
            && self.diffs.values().all(DiffRange::is_any)
    }

    /// Whether the conjunction is unsatisfiable (exact for the
    /// representable fragment: any empty attribute or difference range).
    pub fn is_unsat(&self) -> bool {
        self.attrs.values().any(AttrConstraint::is_unsat)
            || self.diffs.values().any(DiffRange::is_empty)
    }

    /// The per-attribute constraints.
    pub fn attr_constraints(&self) -> impl Iterator<Item = (&str, &AttrConstraint)> {
        self.attrs.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The difference constraints, keyed `(a, b)` constraining `a − b`.
    pub fn diff_constraints(&self) -> impl Iterator<Item = (&str, &str, &DiffRange)> {
        self.diffs
            .iter()
            .map(|((a, b), r)| (a.as_str(), b.as_str(), r))
    }

    /// The constraint on one attribute (`any` if unconstrained).
    pub fn constraint_for(&self, attr: &str) -> AttrConstraint {
        self.attrs
            .get(attr)
            .cloned()
            .unwrap_or_else(AttrConstraint::any)
    }

    /// AND an [`AttrConstraint`] onto an attribute.
    pub fn constrain(&mut self, attr: impl Into<String>, c: AttrConstraint) -> &mut Self {
        let attr = attr.into();
        let merged = match self.attrs.get(&attr) {
            Some(prev) => prev.and(&c),
            None => c,
        };
        self.attrs.insert(attr, merged);
        self
    }

    /// AND an equality `attr = v`.
    pub fn equals(&mut self, attr: impl Into<String>, v: impl Into<Value>) -> &mut Self {
        self.constrain(
            attr,
            AttrConstraint::from_interval(Interval::point(v.into())),
        )
    }

    /// AND an exclusion `attr != v`.
    pub fn excludes(&mut self, attr: impl Into<String>, v: impl Into<Value>) -> &mut Self {
        let mut c = AttrConstraint::any();
        c.excluded.insert(v.into());
        self.constrain(attr, c)
    }

    /// AND a lower bound `attr > v` / `attr ≥ v`.
    pub fn lower(
        &mut self,
        attr: impl Into<String>,
        v: impl Into<Value>,
        inclusive: bool,
    ) -> &mut Self {
        self.constrain(
            attr,
            AttrConstraint::from_interval(Interval::at_least(v.into(), inclusive)),
        )
    }

    /// AND an upper bound `attr < v` / `attr ≤ v`.
    pub fn upper(
        &mut self,
        attr: impl Into<String>,
        v: impl Into<Value>,
        inclusive: bool,
    ) -> &mut Self {
        self.constrain(
            attr,
            AttrConstraint::from_interval(Interval::at_most(v.into(), inclusive)),
        )
    }

    /// AND a range `lo ≤ attr ≤ hi` (inclusive, `BETWEEN`).
    pub fn between(
        &mut self,
        attr: impl Into<String>,
        lo: impl Into<Value>,
        hi: impl Into<Value>,
    ) -> &mut Self {
        self.constrain(
            attr,
            AttrConstraint::from_interval(Interval::closed(lo.into(), hi.into())),
        )
    }

    /// AND a difference constraint `lo ≤ a − b ≤ hi`.
    pub fn diff(
        &mut self,
        a: impl Into<String>,
        b: impl Into<String>,
        range: DiffRange,
    ) -> &mut Self {
        let (a, b) = (a.into(), b.into());
        let (key, range) = if a <= b {
            ((a, b), range)
        } else {
            ((b, a), range.flipped())
        };
        let merged = match self.diffs.get(&key) {
            Some(prev) => prev.intersect(&range),
            None => range,
        };
        self.diffs.insert(key, merged);
        self
    }

    /// All attribute names referenced by the conjunction (including the
    /// operands of difference constraints).
    pub fn referenced_attrs(&self) -> BTreeSet<String> {
        self.referenced().map(str::to_owned).collect()
    }

    /// The names of [`Conjunction::referenced_attrs`], borrowed: a name
    /// comes once per constraint naming it, and nothing is allocated.
    pub fn referenced(&self) -> impl Iterator<Item = &str> {
        let diffs = self
            .diffs
            .keys()
            .flat_map(|(a, b)| [a.as_str(), b.as_str()]);
        self.attrs.keys().map(String::as_str).chain(diffs)
    }

    /// Evaluate the conjunction against a tuple under a schema.
    ///
    /// Constraints on attributes absent from the schema are unsatisfied
    /// (the tuple cannot be shown to pass), keeping filtering sound under
    /// projection.
    pub fn satisfies(&self, tuple: &Tuple, schema: &Schema) -> bool {
        self.satisfies_with(|name| tuple.get_by_name(schema, name))
    }

    /// Evaluate against an arbitrary attribute lookup.
    pub fn satisfies_with<'a, F>(&self, lookup: F) -> bool
    where
        F: Fn(&str) -> Option<&'a Value>,
    {
        self.satisfies_counting(lookup, &mut 0)
    }

    /// [`Conjunction::satisfies_with`], adding to `evaluated` every
    /// constraint it evaluates: it stops at the first that fails.
    pub fn satisfies_counting<'a, F>(&self, lookup: F, evaluated: &mut u64) -> bool
    where
        F: Fn(&str) -> Option<&'a Value>,
    {
        for (attr, c) in &self.attrs {
            *evaluated += 1;
            match lookup(attr) {
                Some(v) if c.satisfies(v) => {}
                _ => return false,
            }
        }
        for ((a, b), r) in &self.diffs {
            *evaluated += 1;
            match (lookup(a), lookup(b)) {
                (Some(x), Some(y)) if r.satisfies(x, y) => {}
                _ => return false,
            }
        }
        true
    }

    /// Logical AND of two conjunctions.
    pub fn and(&self, other: &Conjunction) -> Conjunction {
        let mut out = self.clone();
        for (attr, c) in &other.attrs {
            out.constrain(attr.clone(), c.clone());
        }
        for ((a, b), r) in &other.diffs {
            out.diff(a.clone(), b.clone(), *r);
        }
        out
    }

    /// Whether every tuple satisfying `self` satisfies `other`.
    ///
    /// Exact for this representation: `other`'s constraints must each be
    /// implied by `self`'s constraint on the same attribute (an attribute
    /// unconstrained in `self` can only imply an `any` constraint).
    pub fn implies(&self, other: &Conjunction) -> bool {
        if self.is_unsat() {
            return true;
        }
        for (attr, c2) in &other.attrs {
            let ok = match self.attrs.get(attr) {
                Some(c1) => c1.implies(c2),
                None => c2.is_any(),
            };
            if !ok {
                return false;
            }
        }
        for (key, r2) in &other.diffs {
            let ok = match self.diffs.get(key) {
                Some(r1) => r1.implies(r2),
                None => r2.is_any(),
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// The tightest representable conjunction weaker than both operands.
    ///
    /// Attributes constrained in only one operand become unconstrained
    /// (their hull with `any` is `any`); shared attributes take the
    /// constraint hull. This is the "merging the query predicates" step
    /// of the paper's representative-query construction.
    pub fn hull(&self, other: &Conjunction) -> Conjunction {
        if self.is_unsat() {
            return other.clone();
        }
        if other.is_unsat() {
            return self.clone();
        }
        let mut out = Conjunction::default();
        for (attr, c1) in &self.attrs {
            if let Some(c2) = other.attrs.get(attr) {
                let h = c1.hull(c2);
                if !h.is_any() {
                    out.attrs.insert(attr.clone(), h);
                }
            }
        }
        for (key, r1) in &self.diffs {
            if let Some(r2) = other.diffs.get(key) {
                let h = r1.hull(r2);
                if !h.is_any() {
                    out.diffs.insert(key.clone(), h);
                }
            }
        }
        out
    }

    /// Drop constraints that admit everything (normal form used by
    /// equality comparisons and display).
    pub fn simplify(&mut self) {
        self.attrs.retain(|_, c| !c.is_any());
        self.diffs.retain(|_, r| !r.is_any());
    }
}

impl fmt::Display for Conjunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.attrs.is_empty() && self.diffs.is_empty() {
            return write!(f, "TRUE");
        }
        let mut first = true;
        for (attr, c) in &self.attrs {
            if !first {
                write!(f, " AND ")?;
            }
            first = false;
            write!(f, "{attr} in {c}")?;
        }
        for ((a, b), r) in &self.diffs {
            if !first {
                write!(f, " AND ")?;
            }
            first = false;
            write!(f, "({a} - {b}) in {r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_types::AttrType;

    fn iv(lo: Option<(i64, bool)>, hi: Option<(i64, bool)>) -> Interval {
        Interval {
            lo: lo.map(|(v, i)| (Value::Int(v), i)),
            hi: hi.map(|(v, i)| (Value::Int(v), i)),
        }
    }

    #[test]
    fn interval_contains_respects_endpoints() {
        let i = iv(Some((1, true)), Some((5, false))); // [1, 5)
        assert!(i.contains(&Value::Int(1)));
        assert!(i.contains(&Value::Int(4)));
        assert!(!i.contains(&Value::Int(5)));
        assert!(!i.contains(&Value::Int(0)));
        assert!(i.contains(&Value::Float(4.9)));
        assert!(!i.contains(&Value::Null));
        assert!(!i.contains(&Value::str("a")));
    }

    #[test]
    fn interval_emptiness() {
        assert!(iv(Some((5, true)), Some((1, true))).is_empty());
        assert!(iv(Some((3, true)), Some((3, false))).is_empty());
        assert!(!iv(Some((3, true)), Some((3, true))).is_empty());
        assert!(!Interval::full().is_empty());
        assert!(Interval::full().is_full());
    }

    #[test]
    fn interval_subset() {
        let narrow = iv(Some((2, true)), Some((4, true)));
        let wide = iv(Some((1, true)), Some((5, true)));
        assert!(narrow.subset_of(&wide));
        assert!(!wide.subset_of(&narrow));
        assert!(narrow.subset_of(&Interval::full()));
        // open vs closed at same endpoint
        let open = iv(Some((1, false)), Some((5, true)));
        let closed = iv(Some((1, true)), Some((5, true)));
        assert!(open.subset_of(&closed));
        assert!(!closed.subset_of(&open));
        // empty is a subset of anything
        assert!(iv(Some((9, true)), Some((1, true))).subset_of(&narrow));
    }

    #[test]
    fn interval_hull_and_intersect() {
        let a = iv(Some((1, true)), Some((3, true)));
        let b = iv(Some((5, false)), Some((9, true)));
        let h = a.hull(&b);
        assert_eq!(h, iv(Some((1, true)), Some((9, true))));
        // hull over-approximates: 4 in hull but in neither operand
        assert!(h.contains(&Value::Int(4)));
        let x = a.intersect(&b);
        assert!(x.is_empty());
        let c = iv(Some((2, true)), Some((7, true)));
        assert_eq!(a.intersect(&c), iv(Some((2, true)), Some((3, true))));
        // hull with empty side returns other
        let empty = iv(Some((9, true)), Some((1, true)));
        assert_eq!(empty.hull(&a), a);
        assert_eq!(a.hull(&empty), a);
    }

    #[test]
    fn attr_constraint_excluded_points() {
        let mut c = AttrConstraint::from_interval(iv(Some((0, true)), Some((10, true))));
        c.excluded.insert(Value::Int(5));
        assert!(c.satisfies(&Value::Int(4)));
        assert!(!c.satisfies(&Value::Int(5)));
        assert!(!c.satisfies(&Value::Float(5.0))); // coerced exclusion
        assert!(!c.satisfies(&Value::Int(11)));
    }

    #[test]
    fn attr_constraint_unsat_detection() {
        let mut point = AttrConstraint::from_interval(Interval::point(Value::Int(3)));
        assert!(!point.is_unsat());
        point.excluded.insert(Value::Int(3));
        assert!(point.is_unsat());
        let empty = AttrConstraint::from_interval(iv(Some((5, true)), Some((1, true))));
        assert!(empty.is_unsat());
        assert!(!AttrConstraint::any().is_unsat());
        assert!(AttrConstraint::any().is_any());
    }

    #[test]
    fn attr_constraint_implication_with_exclusions() {
        let narrow = AttrConstraint::from_interval(iv(Some((2, true)), Some((4, true))));
        let mut wide_minus_3 = AttrConstraint::from_interval(iv(Some((0, true)), Some((10, true))));
        wide_minus_3.excluded.insert(Value::Int(3));
        // narrow admits 3, which the other excludes → no implication
        assert!(!narrow.implies(&wide_minus_3));
        // but if narrow also excludes 3, implication holds
        let mut narrow2 = narrow.clone();
        narrow2.excluded.insert(Value::Int(3));
        assert!(narrow2.implies(&wide_minus_3));
        // excluded point outside self's interval is harmless
        let mut wide_minus_20 =
            AttrConstraint::from_interval(iv(Some((0, true)), Some((10, true))));
        wide_minus_20.excluded.insert(Value::Int(20));
        assert!(narrow.implies(&wide_minus_20));
    }

    #[test]
    fn attr_constraint_hull_keeps_common_exclusions() {
        let mut a = AttrConstraint::from_interval(iv(Some((0, true)), Some((5, true))));
        a.excluded.insert(Value::Int(2));
        a.excluded.insert(Value::Int(3));
        let mut b = AttrConstraint::from_interval(iv(Some((3, true)), Some((9, true))));
        b.excluded.insert(Value::Int(3));
        let h = a.hull(&b);
        assert_eq!(h.interval, iv(Some((0, true)), Some((9, true))));
        assert_eq!(h.excluded, BTreeSet::from([Value::Int(3)]));
        // 2 must be admitted by the hull because b admits it
        assert!(h.satisfies(&Value::Int(2)));
    }

    #[test]
    fn diff_range_semantics() {
        // −3h ≤ a − b ≤ 0, in ms (the paper's p1 filter shape)
        let r = DiffRange::new(-10_800_000.0, 0.0);
        assert!(r.satisfies(&Value::Int(1_000), &Value::Int(2_000)));
        assert!(r.satisfies(&Value::Int(2_000), &Value::Int(2_000)));
        assert!(!r.satisfies(&Value::Int(3_000), &Value::Int(2_000)));
        assert!(!r.satisfies(&Value::Int(0), &Value::Int(20_000_000)));
        assert!(!r.satisfies(&Value::str("x"), &Value::Int(0)));
        assert_eq!(r.flipped(), DiffRange::new(0.0, 10_800_000.0));
        assert!(DiffRange::new(-1.0, 0.0).implies(&r));
        assert!(!r.implies(&DiffRange::new(-1.0, 0.0)));
        assert_eq!(
            r.hull(&DiffRange::new(-1.0, 5.0)),
            DiffRange::new(-10_800_000.0, 5.0)
        );
        assert!(DiffRange::new(1.0, -1.0).is_empty());
        assert!(DiffRange::any().is_any());
    }

    #[test]
    fn conjunction_satisfaction_on_tuples() {
        let schema = Schema::of(&[
            ("a", AttrType::Int),
            ("b", AttrType::Int),
            ("s", AttrType::Str),
        ]);
        let mut c = Conjunction::always();
        c.between("a", 1, 10)
            .equals("s", "x")
            .diff("a", "b", DiffRange::new(-5.0, 5.0));
        let t = Tuple::new(
            "S",
            cosmos_types::Timestamp(0),
            vec![Value::Int(5), Value::Int(3), Value::str("x")],
        );
        assert!(c.satisfies(&t, &schema));
        let t2 = Tuple::new(
            "S",
            cosmos_types::Timestamp(0),
            vec![Value::Int(5), Value::Int(30), Value::str("x")],
        );
        assert!(!c.satisfies(&t2, &schema)); // diff out of range
        let t3 = Tuple::new(
            "S",
            cosmos_types::Timestamp(0),
            vec![Value::Int(5), Value::Int(3), Value::str("y")],
        );
        assert!(!c.satisfies(&t3, &schema)); // eq fails
    }

    #[test]
    fn conjunction_missing_attr_is_unsatisfied() {
        let schema = Schema::of(&[("a", AttrType::Int)]);
        let mut c = Conjunction::always();
        c.equals("missing", 1);
        let t = Tuple::new("S", cosmos_types::Timestamp(0), vec![Value::Int(1)]);
        assert!(!c.satisfies(&t, &schema));
    }

    #[test]
    fn conjunction_implication() {
        let mut strong = Conjunction::always();
        strong.between("a", 2, 4).equals("s", "x");
        let mut weak = Conjunction::always();
        weak.between("a", 0, 10);
        assert!(strong.implies(&weak));
        assert!(!weak.implies(&strong));
        assert!(strong.implies(&Conjunction::always()));
        assert!(Conjunction::always().implies(&Conjunction::always()));
        // diff constraints participate
        let mut d1 = Conjunction::always();
        d1.diff("x", "y", DiffRange::new(-1.0, 1.0));
        let mut d2 = Conjunction::always();
        d2.diff("x", "y", DiffRange::new(-5.0, 5.0));
        assert!(d1.implies(&d2));
        assert!(!d2.implies(&d1));
        // flipped orientation normalizes to the same key
        let mut d3 = Conjunction::always();
        d3.diff("y", "x", DiffRange::new(-5.0, 5.0));
        assert!(d1.implies(&d3));
    }

    #[test]
    fn unsat_conjunction_implies_everything() {
        let mut bad = Conjunction::always();
        bad.between("a", 10, 0);
        assert!(bad.is_unsat());
        let mut any_strong = Conjunction::always();
        any_strong.equals("z", 1);
        assert!(bad.implies(&any_strong));
    }

    #[test]
    fn conjunction_hull_drops_one_sided_constraints() {
        let mut c1 = Conjunction::always();
        c1.between("a", 0, 5).equals("only1", 7);
        let mut c2 = Conjunction::always();
        c2.between("a", 3, 9);
        let h = c1.hull(&c2);
        // shared attr hulled
        assert_eq!(
            h.constraint_for("a").interval,
            Interval::closed(Value::Int(0), Value::Int(9))
        );
        // one-sided constraint must be dropped (c2 admits any `only1`)
        assert!(h.constraint_for("only1").is_any());
        // hull is weaker than both
        assert!(c1.implies(&h));
        assert!(c2.implies(&h));
    }

    #[test]
    fn conjunction_and_composes() {
        let mut c1 = Conjunction::always();
        c1.lower("a", 0, true);
        let mut c2 = Conjunction::always();
        c2.upper("a", 10, false).excludes("a", 5);
        let both = c1.and(&c2);
        assert!(both.satisfies_with(|n| (n == "a").then_some(&Value::Int(3))));
        assert!(!both.satisfies_with(|n| (n == "a").then_some(&Value::Int(5))));
        assert!(!both.satisfies_with(|n| (n == "a").then_some(&Value::Int(10))));
    }

    #[test]
    fn referenced_attrs_includes_diff_operands() {
        let mut c = Conjunction::always();
        c.equals("a", 1).diff("x", "y", DiffRange::new(0.0, 1.0));
        let attrs = c.referenced_attrs();
        assert_eq!(
            attrs,
            BTreeSet::from(["a".to_string(), "x".to_string(), "y".to_string()])
        );
    }

    #[test]
    fn simplify_removes_trivial_constraints() {
        let mut c = Conjunction::always();
        c.constrain("a", AttrConstraint::any());
        c.diff("x", "y", DiffRange::any());
        assert!(c.is_always());
        c.simplify();
        assert_eq!(c, Conjunction::always());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Conjunction::always().to_string(), "TRUE");
        let mut c = Conjunction::always();
        c.between("a", 1, 2);
        assert_eq!(c.to_string(), "a in [1, 2]");
        let mut d = Conjunction::always();
        d.diff("x", "y", DiffRange::new(0.0, 1.0));
        assert_eq!(d.to_string(), "(x - y) in [0, 1]");
        assert_eq!(Interval::full().to_string(), "(-inf, +inf)");
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_interval() -> impl Strategy<Value = Interval> {
        (
            proptest::option::of((-50i64..50, any::<bool>())),
            proptest::option::of((-50i64..50, any::<bool>())),
        )
            .prop_map(|(lo, hi)| Interval {
                lo: lo.map(|(v, i)| (Value::Int(v), i)),
                hi: hi.map(|(v, i)| (Value::Int(v), i)),
            })
    }

    fn arb_constraint() -> impl Strategy<Value = AttrConstraint> {
        (
            arb_interval(),
            proptest::collection::btree_set((-50i64..50).prop_map(Value::Int), 0..4),
        )
            .prop_map(|(interval, excluded)| AttrConstraint { interval, excluded })
    }

    proptest! {
        /// If `a.implies(b)` then every point satisfying `a` satisfies `b`.
        #[test]
        fn implication_is_sound(a in arb_constraint(), b in arb_constraint(), x in -60i64..60) {
            let v = Value::Int(x);
            if a.implies(&b) && a.satisfies(&v) {
                prop_assert!(b.satisfies(&v));
            }
        }

        /// The hull admits every point either operand admits.
        #[test]
        fn hull_is_superset(a in arb_constraint(), b in arb_constraint(), x in -60i64..60) {
            let v = Value::Int(x);
            let h = a.hull(&b);
            if a.satisfies(&v) || b.satisfies(&v) {
                prop_assert!(h.satisfies(&v));
            }
        }

        /// AND admits exactly the points both operands admit.
        #[test]
        fn and_is_intersection(a in arb_constraint(), b in arb_constraint(), x in -60i64..60) {
            let v = Value::Int(x);
            prop_assert_eq!(a.and(&b).satisfies(&v), a.satisfies(&v) && b.satisfies(&v));
        }

        /// Subset check agrees with pointwise containment on samples.
        #[test]
        fn subset_is_pointwise(a in arb_interval(), b in arb_interval(), x in -60i64..60) {
            let v = Value::Int(x);
            if a.subset_of(&b) && a.contains(&v) {
                prop_assert!(b.contains(&v));
            }
        }

        /// `is_unsat` means no sampled point satisfies.
        #[test]
        fn unsat_admits_nothing(c in arb_constraint(), x in -60i64..60) {
            if c.is_unsat() {
                prop_assert!(!c.satisfies(&Value::Int(x)));
            }
        }
    }
}
