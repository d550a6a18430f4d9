//! Data-interest profiles `π = ⟨S, P, F⟩` (Section 3.1 of the paper).

use crate::predicate::Conjunction;
use cosmos_types::{Schema, StreamName, Tuple};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The projection attribute set `P` for one stream of a profile.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Projection {
    /// Every attribute of the stream.
    All,
    /// Only the named attributes.
    Attrs(BTreeSet<String>),
}

impl Projection {
    /// Projection of the named attributes.
    pub fn of<I, S>(names: I) -> Projection
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Projection::Attrs(names.into_iter().map(Into::into).collect())
    }

    /// Whether the projection retains the named attribute.
    pub fn contains(&self, name: &str) -> bool {
        match self {
            Projection::All => true,
            Projection::Attrs(set) => set.contains(name),
        }
    }

    /// Union of two projections.
    pub fn union(&self, other: &Projection) -> Projection {
        match (self, other) {
            (Projection::All, _) | (_, Projection::All) => Projection::All,
            (Projection::Attrs(a), Projection::Attrs(b)) => {
                Projection::Attrs(a.union(b).cloned().collect())
            }
        }
    }

    /// Whether `self` retains at least the attributes `other` retains.
    pub fn covers(&self, other: &Projection) -> bool {
        match (self, other) {
            (Projection::All, _) => true,
            (Projection::Attrs(_), Projection::All) => false,
            (Projection::Attrs(a), Projection::Attrs(b)) => b.is_subset(a),
        }
    }

    /// Extend the projection with the given attribute names.
    pub fn extend<I, S>(&mut self, names: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        if let Projection::Attrs(set) = self {
            set.extend(names.into_iter().map(Into::into));
        }
    }

    /// The positional indices of the retained attributes under `schema`,
    /// in schema order. Attributes absent from the schema are skipped.
    pub fn indices(&self, schema: &Schema) -> Vec<usize> {
        match self {
            Projection::All => (0..schema.arity()).collect(),
            Projection::Attrs(set) => schema
                .fields()
                .iter()
                .enumerate()
                .filter(|(_, f)| set.contains(&f.name))
                .map(|(i, _)| i)
                .collect(),
        }
    }

    /// Whether applying this projection to `schema` would change it.
    pub fn narrows(&self, schema: &Schema) -> bool {
        match self {
            Projection::All => false,
            Projection::Attrs(set) => schema.fields().iter().any(|f| !set.contains(&f.name)),
        }
    }
}

impl fmt::Display for Projection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Projection::All => f.write_str("*"),
            Projection::Attrs(set) => {
                write!(f, "{{")?;
                for (i, a) in set.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    f.write_str(a)?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Interest in a single stream: a projection and a disjunction of
/// conjunctive filters. **An empty filter list accepts every datagram**
/// of the stream (this is how the paper's "profile without filter
/// predicates" for result-stream retrieval is expressed).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileEntry {
    /// The projection attribute set `P` for this stream.
    pub projection: Projection,
    /// Disjunction of filters `F` for this stream; empty = accept all.
    pub filters: Vec<Conjunction>,
}

impl ProfileEntry {
    /// Accept-everything entry.
    pub fn all() -> ProfileEntry {
        ProfileEntry {
            projection: Projection::All,
            filters: vec![],
        }
    }

    /// Whether the entry accepts the tuple under the schema (any filter
    /// passes, or there are no filters).
    pub fn accepts(&self, tuple: &Tuple, schema: &Schema) -> bool {
        self.accepts_counting(tuple, schema, &mut 0)
    }

    /// [`ProfileEntry::accepts`], adding to `evaluated` every constraint
    /// evaluated: a filter stops at its first failing constraint, the
    /// entry at its first passing filter.
    pub fn accepts_counting(&self, tuple: &Tuple, schema: &Schema, evaluated: &mut u64) -> bool {
        let lookup = |name: &str| tuple.get_by_name(schema, name);
        let any = |c: &Conjunction| c.satisfies_counting(lookup, evaluated);
        self.filters.is_empty() || self.filters.iter().any(any)
    }

    /// Whether `self` accepts every tuple `other` accepts *and* retains
    /// every attribute `other` retains (conservative covering check:
    /// every filter of `other` must be implied by some filter of `self`).
    pub fn covers(&self, other: &ProfileEntry) -> bool {
        if !self.projection.covers(&other.projection) {
            return false;
        }
        if self.filters.is_empty() {
            return true; // accept-all covers anything
        }
        if other.filters.is_empty() {
            return false; // other accepts all but self filters
        }
        other
            .filters
            .iter()
            .all(|fo| self.filters.iter().any(|fs| fo.implies(fs)))
    }

    /// Union of interests: widen the projection and take the disjunction
    /// of filter sets, pruning filters implied by another filter.
    pub fn union(&self, other: &ProfileEntry) -> ProfileEntry {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// `*self = self.union(other)` in place: the same result field for
    /// field, but `self`'s filters are moved through the pruning pass
    /// instead of cloned, and `other`'s are cloned only if kept — what
    /// a fold over many subscriptions pays per merge.
    ///
    /// `self`'s filters do go through the pass again: a raw multi-filter
    /// entry (never pruned) is indistinguishable from a previous union's
    /// output, and only for the latter is the pass the identity.
    pub fn union_with(&mut self, other: &ProfileEntry) {
        match (&mut self.projection, &other.projection) {
            (Projection::All, _) => {}
            (p, Projection::All) => *p = Projection::All,
            (Projection::Attrs(a), Projection::Attrs(b)) => a.extend(b.iter().cloned()),
        }
        if self.filters.is_empty() {
            return; // accept-all absorbs anything
        }
        if other.filters.is_empty() {
            self.filters.clear();
            return;
        }
        let own = std::mem::take(&mut self.filters);
        let cands = own
            .into_iter()
            .map(Cow::Owned)
            .chain(other.filters.iter().map(Cow::Borrowed));
        let mut first_unsat = None;
        for cand in cands {
            if cand.is_unsat() {
                first_unsat.get_or_insert(cand);
                continue;
            }
            // Drop `cand` if a kept filter already subsumes it; drop
            // kept filters subsumed by `cand`.
            if self.filters.iter().any(|kept| cand.implies(kept)) {
                continue;
            }
            self.filters.retain(|kept| !kept.implies(&cand));
            self.filters.push(cand.into_owned());
        }
        if self.filters.is_empty() {
            // Every filter of both operands was unsatisfiable. An empty
            // list means "accept all", which would *flip* the semantics;
            // keep the first one to preserve "match nothing".
            self.filters.extend(first_unsat.map(Cow::into_owned));
        }
    }

    /// Ensure the projection retains every attribute referenced by a
    /// filter, so that in-network filtering downstream of an early
    /// projection still sees the attributes it needs.
    pub fn normalize(&mut self) {
        if let Projection::Attrs(set) = &mut self.projection {
            for a in self.filters.iter().flat_map(Conjunction::referenced) {
                if !set.contains(a) {
                    set.insert(a.to_owned());
                }
            }
        }
    }

    /// Whether the projection already retains every attribute a filter
    /// references — [`ProfileEntry::normalize`] would not change the
    /// entry. Allocates nothing.
    pub fn is_normalized(&self) -> bool {
        match &self.projection {
            Projection::All => true,
            Projection::Attrs(set) => (self.filters.iter())
                .flat_map(Conjunction::referenced)
                .all(|a| set.contains(a)),
        }
    }
}

/// A data-interest profile `π = ⟨S, P, F⟩` over several streams.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Profile {
    entries: BTreeMap<StreamName, ProfileEntry>,
}

impl Profile {
    /// The empty profile (interested in nothing).
    pub fn new() -> Profile {
        Profile::default()
    }

    /// Add (or union into) the entry for one stream.
    ///
    /// Projections are *not* widened to cover filter attributes here: a
    /// node evaluates filters against the incoming (unprojected) tuple
    /// and projects only afterwards, exactly like the paper's `p1`
    /// profile filters on `C.timestamp` while projecting `O.*`. Use
    /// [`Profile::normalized`] when propagating interest upstream, where
    /// the filter attributes must keep flowing.
    pub fn add_entry(&mut self, stream: impl Into<StreamName>, entry: ProfileEntry) {
        let stream = stream.into();
        match self.entries.get_mut(&stream) {
            Some(existing) => existing.union_with(&entry),
            None => {
                self.entries.insert(stream, entry);
            }
        }
    }

    /// [`Profile::add_entry`] from borrowed parts: clones only what the
    /// profile ends up keeping.
    pub fn merge_entry(&mut self, stream: &StreamName, entry: &ProfileEntry) {
        match self.entries.get_mut(stream) {
            Some(existing) => existing.union_with(entry),
            None => {
                self.entries.insert(*stream, entry.clone());
            }
        }
    }

    /// Convenience: add a single-filter interest in a stream.
    pub fn add_interest(
        &mut self,
        stream: impl Into<StreamName>,
        projection: Projection,
        filter: Conjunction,
    ) {
        let filters = if filter.is_always() {
            vec![]
        } else {
            vec![filter]
        };
        self.add_entry(
            stream,
            ProfileEntry {
                projection,
                filters,
            },
        );
    }

    /// Whether the profile mentions no stream.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The stream set `S`.
    pub fn streams(&self) -> impl Iterator<Item = &StreamName> {
        self.entries.keys()
    }

    /// The entry for one stream.
    pub fn entry(&self, stream: &StreamName) -> Option<&ProfileEntry> {
        self.entries.get(stream)
    }

    /// Remove (and return) the entry for one stream — interest pruning
    /// when a stream is closed by its final watermark.
    pub fn remove_entry(&mut self, stream: &StreamName) -> Option<ProfileEntry> {
        self.entries.remove(stream)
    }

    /// Iterate over `(stream, entry)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&StreamName, &ProfileEntry)> {
        self.entries.iter()
    }

    /// Whether a datagram is covered by the profile (Section 3.1:
    /// covered by any filter of its stream).
    pub fn covers_tuple(&self, tuple: &Tuple, schema: &Schema) -> bool {
        match self.entries.get(&tuple.stream) {
            Some(e) => e.accepts(tuple, schema),
            None => false,
        }
    }

    /// Project a covered tuple onto the profile's attribute set for its
    /// stream, returning the projected tuple and its projected schema.
    /// Returns the inputs unchanged when the projection is `All`.
    pub fn project_tuple(&self, tuple: &Tuple, schema: &Schema) -> Option<(Tuple, Schema)> {
        let entry = self.entries.get(&tuple.stream)?;
        if !entry.projection.narrows(schema) {
            return Some((tuple.clone(), schema.clone()));
        }
        let idx = entry.projection.indices(schema);
        let names: Vec<&str> = idx
            .iter()
            .map(|&i| schema.fields()[i].name.as_str())
            .collect();
        let projected_schema = schema.project(&names).ok()?;
        let projected = tuple.project_indices(&idx).ok()?;
        Some((projected, projected_schema))
    }

    /// Union of two profiles (the merged interest of a subtree).
    pub fn union(&self, other: &Profile) -> Profile {
        let mut out = self.clone();
        for (s, e) in &other.entries {
            out.merge_entry(s, e);
        }
        out
    }

    /// The profile with every entry's projection widened to include its
    /// filters' attributes — the shape that must be requested from
    /// *upstream*, so that this node still receives the attributes its
    /// downstream filters evaluate.
    pub fn normalized(&self) -> Profile {
        let mut out = self.clone();
        for entry in out.entries.values_mut() {
            entry.normalize();
        }
        out
    }

    /// Conservative covering check: `self` covers `other` when, for every
    /// stream of `other`, `self`'s entry covers it.
    pub fn covers(&self, other: &Profile) -> bool {
        other
            .entries
            .iter()
            .all(|(s, eo)| self.entries.get(s).is_some_and(|es| es.covers(eo)))
    }
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, (s, e)) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{s}: P={}", e.projection)?;
            if e.filters.is_empty() {
                write!(f, ", F=TRUE")?;
            } else {
                write!(f, ", F=")?;
                for (j, c) in e.filters.iter().enumerate() {
                    if j > 0 {
                        write!(f, " OR ")?;
                    }
                    write!(f, "({c})")?;
                }
            }
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_types::{AttrType, Timestamp, Value};

    fn schema() -> Schema {
        Schema::of(&[
            ("a", AttrType::Int),
            ("b", AttrType::Int),
            ("c", AttrType::Str),
        ])
    }

    fn tup(a: i64, b: i64, c: &str) -> Tuple {
        Tuple::new(
            "S",
            Timestamp(0),
            vec![Value::Int(a), Value::Int(b), Value::str(c)],
        )
    }

    #[test]
    fn projection_union_and_cover() {
        let p1 = Projection::of(["a", "b"]);
        let p2 = Projection::of(["b", "c"]);
        let u = p1.union(&p2);
        assert!(u.contains("a") && u.contains("c"));
        assert!(u.covers(&p1));
        assert!(!p1.covers(&u));
        assert!(Projection::All.covers(&u));
        assert!(!p1.covers(&Projection::All));
        assert_eq!(Projection::All.union(&p1), Projection::All);
    }

    #[test]
    fn projection_indices_follow_schema_order() {
        let s = schema();
        let p = Projection::of(["c", "a"]);
        assert_eq!(p.indices(&s), vec![0, 2]);
        assert_eq!(Projection::All.indices(&s), vec![0, 1, 2]);
        assert!(p.narrows(&s));
        assert!(!Projection::All.narrows(&s));
        assert!(!Projection::of(["a", "b", "c"]).narrows(&s));
    }

    #[test]
    fn empty_filter_list_accepts_all() {
        let e = ProfileEntry::all();
        assert!(e.accepts(&tup(1, 2, "x"), &schema()));
    }

    #[test]
    fn entry_filters_are_a_disjunction() {
        let mut f1 = Conjunction::always();
        f1.between("a", 0, 10);
        let mut f2 = Conjunction::always();
        f2.equals("c", "special");
        let e = ProfileEntry {
            projection: Projection::All,
            filters: vec![f1, f2],
        };
        assert!(e.accepts(&tup(5, 0, "zzz"), &schema())); // via f1
        assert!(e.accepts(&tup(99, 0, "special"), &schema())); // via f2
        assert!(!e.accepts(&tup(99, 0, "zzz"), &schema()));
    }

    #[test]
    fn entry_covering() {
        let mut narrow = Conjunction::always();
        narrow.between("a", 2, 4);
        let mut wide = Conjunction::always();
        wide.between("a", 0, 10);
        let e_narrow = ProfileEntry {
            projection: Projection::of(["a"]),
            filters: vec![narrow],
        };
        let e_wide = ProfileEntry {
            projection: Projection::of(["a", "b"]),
            filters: vec![wide],
        };
        assert!(e_wide.covers(&e_narrow));
        assert!(!e_narrow.covers(&e_wide));
        assert!(ProfileEntry::all().covers(&e_wide));
        assert!(!e_wide.covers(&ProfileEntry::all()));
    }

    #[test]
    fn entry_union_prunes_subsumed_filters() {
        let mut narrow = Conjunction::always();
        narrow.between("a", 2, 4);
        let mut wide = Conjunction::always();
        wide.between("a", 0, 10);
        let e1 = ProfileEntry {
            projection: Projection::of(["a"]),
            filters: vec![narrow],
        };
        let e2 = ProfileEntry {
            projection: Projection::of(["a"]),
            filters: vec![wide.clone()],
        };
        let u = e1.union(&e2);
        assert_eq!(u.filters, vec![wide]);
        // union with accept-all is accept-all
        let u2 = e1.union(&ProfileEntry::all());
        assert!(u2.filters.is_empty());
        assert_eq!(u2.projection, Projection::All);
    }

    #[test]
    fn normalize_pulls_filter_attrs_into_projection() {
        let mut f = Conjunction::always();
        f.equals("b", 1);
        let mut e = ProfileEntry {
            projection: Projection::of(["a"]),
            filters: vec![f],
        };
        assert!(!e.is_normalized());
        e.normalize();
        assert!(e.projection.contains("b"));
        assert!(e.is_normalized());
        assert!(ProfileEntry::all().is_normalized());
        let mut diff = Conjunction::always();
        diff.diff("a", "c", crate::predicate::DiffRange::new(0.0, 1.0));
        let e = ProfileEntry {
            projection: Projection::of(["a"]),
            filters: vec![diff],
        };
        assert!(!e.is_normalized(), "a difference operand is referenced");
    }

    #[test]
    fn profile_covers_tuple_and_projects() {
        let mut p = Profile::new();
        let mut f = Conjunction::always();
        f.lower("a", 0, false);
        p.add_interest("S", Projection::of(["a", "c"]), f);
        let s = schema();
        assert!(p.covers_tuple(&tup(3, 9, "x"), &s));
        assert!(!p.covers_tuple(&tup(-3, 9, "x"), &s));
        // unknown stream
        let other = Tuple::new("T", Timestamp(0), vec![Value::Int(1)]);
        assert!(!p.covers_tuple(&other, &s));
        let (pt, ps) = p.project_tuple(&tup(3, 9, "x"), &s).unwrap();
        assert_eq!(ps.names().collect::<Vec<_>>(), vec!["a", "c"]);
        assert_eq!(pt.values(), &[Value::Int(3), Value::str("x")]);
    }

    #[test]
    fn project_tuple_with_all_is_identity() {
        let mut p = Profile::new();
        p.add_entry("S", ProfileEntry::all());
        let s = schema();
        let t = tup(1, 2, "x");
        let (pt, ps) = p.project_tuple(&t, &s).unwrap();
        assert_eq!(pt, t);
        assert_eq!(ps, s);
    }

    #[test]
    fn profile_union_merges_streams() {
        let mut p1 = Profile::new();
        p1.add_interest("S", Projection::of(["a"]), Conjunction::always());
        let mut p2 = Profile::new();
        p2.add_interest("T", Projection::All, Conjunction::always());
        let u = p1.union(&p2);
        assert_eq!(u.streams().count(), 2);
        assert!(u.covers(&p1));
        assert!(u.covers(&p2));
        assert!(!p1.covers(&u));
    }

    #[test]
    fn add_interest_with_always_filter_is_accept_all() {
        let mut p = Profile::new();
        p.add_interest("S", Projection::All, Conjunction::always());
        let e = p.entry(&StreamName::from("S")).unwrap();
        assert!(e.filters.is_empty());
    }

    #[test]
    fn display_is_informative() {
        let mut p = Profile::new();
        let mut f = Conjunction::always();
        f.between("a", 1, 2);
        p.add_interest("S", Projection::of(["a"]), f);
        let s = p.to_string();
        assert!(s.contains("S:"), "{s}");
        assert!(s.contains("a in [1, 2]"), "{s}");
        let mut whole = Profile::new();
        whole.add_entry("R", ProfileEntry::all());
        assert!(whole.to_string().contains("F=TRUE"));
    }
}
