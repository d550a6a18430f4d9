//! Profile matching engines.
//!
//! Every CBN node must answer, per incoming datagram, "which of the
//! profiles installed here cover it?". This module provides two
//! implementations behind the [`MatchEngine`] trait:
//!
//! * [`NaiveMatcher`] — scans every installed profile. The baseline.
//! * [`CountingMatcher`] — a Siena-style *counting algorithm*: each
//!   conjunctive filter is decomposed into per-attribute constraints; an
//!   index keyed by attribute finds the satisfied constraints and a
//!   per-filter counter detects filters whose constraint count is fully
//!   satisfied. Pure equality constraints (the common case for key
//!   attributes like `itemID` or `station_id`) take a hash-lookup fast
//!   path instead of a scan.
//!
//! Both engines return deterministic (sorted) key lists and are checked
//! against each other by property tests; `benches/matching.rs` compares
//! their throughput (ablation A1 in DESIGN.md).

use crate::predicate::{AttrConstraint, DiffRange};
use crate::profile::Profile;
use cosmos_types::{FxHashMap, Schema, SchemaId, StreamName, Tuple, Value};
use std::cell::{Ref, RefCell};
use std::collections::BTreeMap;
use std::ops::Range;

/// A pluggable profile-matching engine.
///
/// Keys identify subscriptions (a local subscriber or a next-hop
/// neighbor). `matches` returns the keys of every installed profile that
/// covers the tuple, sorted and deduplicated.
pub trait MatchEngine<K: Ord + Clone> {
    /// Install (or replace) the profile for a key.
    fn insert(&mut self, key: K, profile: Profile);
    /// Remove the profile for a key, if present.
    fn remove(&mut self, key: &K);
    /// Keys of all profiles covering the tuple, sorted.
    fn matches(&self, tuple: &Tuple, schema: &Schema) -> Vec<K>;
    /// Per-tuple match keys for a *stream-homogeneous* batch (all tuples
    /// share `tuples[0].stream` and `schema`). The default delegates to
    /// [`MatchEngine::matches`]. [`CountingMatcher`] overrides it with a
    /// wrapper that splits the result of
    /// [`CountingMatcher::matches_batch_flat`] — the flat path the
    /// router calls, which pays the stream-partition lookup and the
    /// name → column resolution once per batch — into one `Vec` per
    /// tuple.
    fn matches_batch(&self, tuples: &[Tuple], schema: &Schema) -> Vec<Vec<K>> {
        tuples.iter().map(|t| self.matches(t, schema)).collect()
    }
    /// Number of installed profiles.
    fn len(&self) -> usize;
    /// Whether no profile is installed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Baseline engine: evaluate every profile against the tuple.
#[derive(Debug, Clone, Default)]
pub struct NaiveMatcher<K> {
    profiles: Vec<(K, Profile)>,
}

impl<K: Ord + Clone> NaiveMatcher<K> {
    /// An empty engine.
    pub fn new() -> Self {
        NaiveMatcher {
            profiles: Vec::new(),
        }
    }
}

impl<K: Ord + Clone> MatchEngine<K> for NaiveMatcher<K> {
    fn insert(&mut self, key: K, profile: Profile) {
        match self.profiles.iter_mut().find(|(k, _)| *k == key) {
            Some((_, p)) => *p = profile,
            None => self.profiles.push((key, profile)),
        }
    }

    fn remove(&mut self, key: &K) {
        self.profiles.retain(|(k, _)| k != key);
    }

    fn matches(&self, tuple: &Tuple, schema: &Schema) -> Vec<K> {
        let mut out: Vec<K> = self
            .profiles
            .iter()
            .filter(|(_, p)| p.covers_tuple(tuple, schema))
            .map(|(k, _)| k.clone())
            .collect();
        out.sort_unstable();
        out
    }

    fn len(&self) -> usize {
        self.profiles.len()
    }
}

/// One decomposed conjunctive filter inside the counting index.
#[derive(Debug, Clone)]
struct FilterEntry<K> {
    key: K,
    /// Number of per-attribute constraints that must be counted.
    needed: u32,
    /// Its difference constraints, a range of [`StreamIndex::diffs`],
    /// checked after the counter fires.
    diffs: Range<usize>,
}

/// Per-stream constraint index.
#[derive(Debug, Clone)]
struct StreamIndex<K> {
    /// Keys holding any entry for this stream, in key order — also one
    /// whose filters are all unsatisfiable, which is interested in the
    /// stream's punctuations though no datagram matches it. The index
    /// lives while this list is non-empty.
    interested: Vec<K>,
    /// Keys whose entry for this stream has no filters (accept all).
    accept_all: Vec<K>,
    filters: Vec<FilterEntry<K>>,
    /// Fast path: pure point constraints without exclusions, per
    /// attribute then value — a probe borrows the tuple's value.
    eq_index: Vec<(String, FxHashMap<Value, Vec<u32>>)>,
    /// General constraints evaluated by scan: `(attribute, constraint,
    /// filter index)`.
    scan: Vec<(String, AttrConstraint, u32)>,
    /// Difference constraints of all filters: `(a, b, range of a − b)`.
    diffs: Vec<(String, String, DiffRange)>,
    /// The attribute names above resolved to column positions, once per
    /// layout this stream was matched under. It is a function of this
    /// index and the layout alone, and lives and dies with the index:
    /// [`CountingMatcher::rebuild_stream`] replaces the index whole, so
    /// there is nothing else to invalidate.
    columns: RefCell<Vec<Columns>>,
}

/// One [`StreamIndex`]'s attribute names as columns of one layout, so
/// the per-tuple work never hashes a name.
#[derive(Debug, Clone)]
struct Columns {
    schema: SchemaId,
    /// `(column, slot of eq_index)` for every column of the layout some
    /// point constraint names, in column order.
    eq: Vec<(usize, usize)>,
    /// Column of each `scan` constraint; `None` = the layout lacks the
    /// attribute, so the constraint is never satisfied.
    scan: Vec<Option<usize>>,
    /// Columns of each `diffs` pair; `None` = the layout lacks either.
    diffs: Vec<Option<(usize, usize)>>,
}

/// The result and the reused buffers of a flat batch match
/// ([`CountingMatcher::matches_batch_flat`]): every tuple's keys in one
/// vector, so a caller that keeps the scratch matches batch after batch
/// without allocating.
#[derive(Debug, Clone)]
pub struct MatchScratch<K> {
    /// Each tuple's sorted, deduplicated keys, concatenated in batch
    /// order.
    keys: Vec<K>,
    /// Per tuple, the end of its segment of `keys`.
    ends: Vec<usize>,
    /// Per-filter satisfied-constraint counters of the tuple at hand.
    counts: Vec<u32>,
}

impl<K> Default for MatchScratch<K> {
    fn default() -> Self {
        MatchScratch {
            keys: Vec::new(),
            ends: Vec::new(),
            counts: Vec::new(),
        }
    }
}

impl<K> MatchScratch<K> {
    /// Each tuple's keys, in batch order.
    pub fn iter(&self) -> impl Iterator<Item = &[K]> {
        self.ends.iter().scan(0, |start, &end| {
            let keys = &self.keys[*start..end];
            *start = end;
            Some(keys)
        })
    }

    /// Whether no tuple of the batch matched any key.
    pub fn none_matched(&self) -> bool {
        self.keys.is_empty()
    }
}

/// Counting-algorithm engine with an equality fast path. The installed
/// profiles are kept once, in key order, and are readable — a caller
/// needs no copy of what it installed.
#[derive(Debug, Clone, Default)]
pub struct CountingMatcher<K> {
    profiles: BTreeMap<K, Profile>,
    streams: FxHashMap<StreamName, StreamIndex<K>>,
    /// Per-stream index rebuilds performed so far — lets a test pin
    /// "a control operation re-indexes only what moved" without a clock.
    index_rebuilds: u64,
}

impl<K: Ord + Clone> CountingMatcher<K> {
    /// An empty engine.
    pub fn new() -> Self {
        CountingMatcher {
            profiles: BTreeMap::new(),
            streams: FxHashMap::default(),
            index_rebuilds: 0,
        }
    }

    /// The profile installed for `key`, if any.
    pub fn profile(&self, key: &K) -> Option<&Profile> {
        self.profiles.get(key)
    }

    /// Every installed profile, in key order.
    pub fn profiles(&self) -> impl Iterator<Item = (&K, &Profile)> {
        self.profiles.iter()
    }

    /// Number of per-stream index rebuilds performed so far.
    pub fn index_rebuilds(&self) -> u64 {
        self.index_rebuilds
    }

    /// The keys whose profile holds any entry for `stream`, in key
    /// order — whatever the entry's filters say.
    pub fn interested(&self, stream: &StreamName) -> &[K] {
        self.streams
            .get(stream)
            .map_or(&[], |idx| idx.interested.as_slice())
    }

    /// Install (`Some`), replace or remove (`None`) the profile of
    /// `key`, rebuilding the index of exactly the streams whose entry
    /// for `key` appeared, disappeared or changed. Returns those
    /// streams, so a caller caching per-stream state derived from the
    /// profile knows what to drop.
    pub fn replace(&mut self, key: K, profile: Option<Profile>) -> Vec<StreamName> {
        let prev = match profile {
            Some(p) => self.profiles.insert(key.clone(), p),
            None => self.profiles.remove(&key),
        };
        let prev = prev.unwrap_or_default();
        let new = self.profiles.get(&key);
        let changed: Vec<StreamName> = prev
            .iter()
            .filter(|(s, e)| new.and_then(|p| p.entry(s)) != Some(e))
            .map(|(s, _)| s)
            .chain(
                new.into_iter()
                    .flat_map(Profile::streams)
                    .filter(|s| prev.entry(s).is_none()),
            )
            .cloned()
            .collect();
        for s in &changed {
            self.rebuild_stream(s);
        }
        changed
    }

    /// Rebuild the index of one stream from all installed profiles.
    fn rebuild_stream(&mut self, stream: &StreamName) {
        self.index_rebuilds += 1;
        let mut idx = StreamIndex {
            interested: Vec::new(),
            accept_all: Vec::new(),
            filters: Vec::new(),
            eq_index: Vec::new(),
            scan: Vec::new(),
            diffs: Vec::new(),
            columns: RefCell::new(Vec::new()),
        };
        for (key, profile) in &self.profiles {
            let Some(entry) = profile.entry(stream) else {
                continue;
            };
            idx.interested.push(key.clone());
            if entry.filters.is_empty() {
                idx.accept_all.push(key.clone());
                continue;
            }
            // Dead conjunctions can never match; skip indexing them. An
            // entry whose every filter is pruned stays out of `accept_all`
            // (only an originally-empty filter list means accept-all), so
            // it simply matches nothing — which is what an unsatisfiable
            // disjunction denotes.
            for conj in entry
                .filters
                .iter()
                .filter(|conj| !crate::sat::conjunction_unsat(conj))
            {
                let fid = idx.filters.len() as u32;
                let mut needed = 0u32;
                for (attr, c) in conj.attr_constraints() {
                    if c.is_any() {
                        continue;
                    }
                    needed += 1;
                    // Fast path for `attr = v` without exclusions.
                    if c.excluded.is_empty() {
                        if let (Some((lo, true)), Some((hi, true))) =
                            (&c.interval.lo, &c.interval.hi)
                        {
                            if lo == hi {
                                let slot = idx
                                    .eq_index
                                    .iter()
                                    .position(|(a, _)| a == attr)
                                    .unwrap_or_else(|| {
                                        idx.eq_index.push((attr.to_string(), FxHashMap::default()));
                                        idx.eq_index.len() - 1
                                    });
                                idx.eq_index[slot]
                                    .1
                                    .entry(lo.clone())
                                    .or_default()
                                    .push(fid);
                                continue;
                            }
                        }
                    }
                    idx.scan.push((attr.to_string(), c.clone(), fid));
                }
                let first_diff = idx.diffs.len();
                idx.diffs.extend(
                    conj.diff_constraints()
                        .map(|(a, b, r)| (a.to_string(), b.to_string(), *r)),
                );
                idx.filters.push(FilterEntry {
                    key: key.clone(),
                    needed,
                    diffs: first_diff..idx.diffs.len(),
                });
            }
        }
        idx.accept_all.sort_unstable();
        if idx.interested.is_empty() {
            self.streams.remove(stream);
        } else {
            self.streams.insert(stream.clone(), idx);
        }
    }

    /// Match a *stream-homogeneous* batch (all tuples share
    /// `tuples[0].stream` and `schema`) into `out`, replacing what it
    /// held: per tuple, the sorted and deduplicated keys of every
    /// profile covering it. The stream-partition lookup and the
    /// name → column resolution are paid once per batch, and with a
    /// reused `out` the call allocates nothing once its buffers have
    /// grown. This is the engine's one matching body; `matches` and
    /// `matches_batch` wrap it.
    pub fn matches_batch_flat(&self, tuples: &[Tuple], schema: &Schema, out: &mut MatchScratch<K>) {
        out.keys.clear();
        out.ends.clear();
        let Some(first) = tuples.first() else {
            return;
        };
        debug_assert!(
            tuples.iter().all(|t| t.stream == first.stream),
            "matches_batch_flat requires a stream-homogeneous batch"
        );
        match self.streams.get(&first.stream) {
            Some(idx) => idx.match_batch(tuples, schema, out),
            None => out.ends.resize(tuples.len(), 0),
        }
    }
}

impl<K: Ord + Clone> StreamIndex<K> {
    /// This index's attribute names as columns of `schema`, resolved on
    /// the first batch of that layout.
    fn columns_for(&self, schema: &Schema) -> Ref<'_, Columns> {
        let id = schema.id();
        let known = self.columns.borrow().iter().position(|c| c.schema == id);
        let pos = known.unwrap_or_else(|| {
            let mut all = self.columns.borrow_mut();
            all.push(Columns {
                schema: id,
                eq: schema
                    .fields()
                    .iter()
                    .enumerate()
                    .filter_map(|(col, f)| {
                        let slot = self.eq_index.iter().position(|(a, _)| *a == f.name)?;
                        Some((col, slot))
                    })
                    .collect(),
                scan: self
                    .scan
                    .iter()
                    .map(|(attr, _, _)| schema.index_of(attr))
                    .collect(),
                diffs: self
                    .diffs
                    .iter()
                    .map(|(a, b, _)| Some((schema.index_of(a)?, schema.index_of(b)?)))
                    .collect(),
            });
            all.len() - 1
        });
        Ref::map(self.columns.borrow(), |all| &all[pos])
    }

    /// Match every tuple of a batch against this stream's index,
    /// appending one sorted, deduplicated key segment per tuple.
    fn match_batch(&self, tuples: &[Tuple], schema: &Schema, out: &mut MatchScratch<K>) {
        let MatchScratch { keys, ends, counts } = out;
        let cols = (!self.filters.is_empty()).then(|| self.columns_for(schema));
        for tuple in tuples {
            let start = keys.len();
            keys.extend_from_slice(&self.accept_all);
            if let Some(cols) = &cols {
                counts.clear();
                counts.resize(self.filters.len(), 0);
                // Equality fast path: probe the value of every column
                // some point constraint names.
                for &(col, slot) in &cols.eq {
                    let Some(v) = tuple.get(col) else { continue };
                    if let Some(fids) = self.eq_index[slot].1.get(v) {
                        for &fid in fids {
                            counts[fid as usize] += 1;
                        }
                    }
                }
                // General constraints.
                for ((_, c, fid), col) in self.scan.iter().zip(&cols.scan) {
                    if col
                        .and_then(|i| tuple.get(i))
                        .is_some_and(|v| c.satisfies(v))
                    {
                        counts[*fid as usize] += 1;
                    }
                }
                for (entry, count) in self.filters.iter().zip(counts.iter()) {
                    if *count != entry.needed {
                        continue;
                    }
                    let diffs_ok = entry.diffs.clone().all(|d| {
                        let pair = cols.diffs[d].and_then(|(a, b)| tuple.get(a).zip(tuple.get(b)));
                        pair.is_some_and(|(x, y)| self.diffs[d].2.satisfies(x, y))
                    });
                    if diffs_ok {
                        keys.push(entry.key.clone());
                    }
                }
            }
            // Sort and deduplicate the tail segment only.
            keys[start..].sort_unstable();
            let mut kept = start;
            for i in start..keys.len() {
                if kept == start || keys[i] != keys[kept - 1] {
                    keys.swap(kept, i);
                    kept += 1;
                }
            }
            keys.truncate(kept);
            ends.push(kept);
        }
    }
}

impl<K: Ord + Clone> MatchEngine<K> for CountingMatcher<K> {
    fn insert(&mut self, key: K, profile: Profile) {
        self.replace(key, Some(profile));
    }

    fn remove(&mut self, key: &K) {
        self.replace(key.clone(), None);
    }

    fn matches(&self, tuple: &Tuple, schema: &Schema) -> Vec<K> {
        let mut flat = MatchScratch::default();
        self.matches_batch_flat(std::slice::from_ref(tuple), schema, &mut flat);
        flat.keys
    }

    fn matches_batch(&self, tuples: &[Tuple], schema: &Schema) -> Vec<Vec<K>> {
        let mut flat = MatchScratch::default();
        self.matches_batch_flat(tuples, schema, &mut flat);
        flat.iter().map(<[K]>::to_vec).collect()
    }

    fn len(&self) -> usize {
        self.profiles.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Conjunction;
    use crate::profile::{ProfileEntry, Projection};
    use cosmos_types::{AttrType, Timestamp};

    fn schema() -> Schema {
        Schema::of(&[
            ("id", AttrType::Int),
            ("price", AttrType::Float),
            ("tag", AttrType::Str),
        ])
    }

    fn tup(id: i64, price: f64, tag: &str) -> Tuple {
        Tuple::new(
            "S",
            Timestamp(0),
            vec![Value::Int(id), Value::Float(price), Value::str(tag)],
        )
    }

    fn profile_eq_id(id: i64) -> Profile {
        let mut f = Conjunction::always();
        f.equals("id", id);
        let mut p = Profile::new();
        p.add_interest("S", Projection::All, f);
        p
    }

    fn profile_price_range(lo: f64, hi: f64) -> Profile {
        let mut f = Conjunction::always();
        f.between("price", lo, hi);
        let mut p = Profile::new();
        p.add_interest("S", Projection::All, f);
        p
    }

    fn both_engines() -> (NaiveMatcher<u32>, CountingMatcher<u32>) {
        (NaiveMatcher::new(), CountingMatcher::new())
    }

    #[test]
    fn matches_equality_and_range() {
        let (mut n, mut c) = both_engines();
        for (k, p) in [
            (1u32, profile_eq_id(7)),
            (2, profile_price_range(0.0, 100.0)),
            (3, Profile::whole_stream("S")),
            (4, Profile::whole_stream("T")),
        ] {
            n.insert(k, p.clone());
            c.insert(k, p);
        }
        let s = schema();
        let t = tup(7, 50.0, "a");
        assert_eq!(n.matches(&t, &s), vec![1, 2, 3]);
        assert_eq!(c.matches(&t, &s), vec![1, 2, 3]);
        let t2 = tup(8, 500.0, "a");
        assert_eq!(n.matches(&t2, &s), vec![3]);
        assert_eq!(c.matches(&t2, &s), vec![3]);
        assert_eq!(c.len(), 4);
        assert!(!c.is_empty());
    }

    #[test]
    fn unknown_stream_matches_nothing() {
        let (mut n, mut c) = both_engines();
        n.insert(1, profile_eq_id(7));
        c.insert(1, profile_eq_id(7));
        let t = Tuple::new("Other", Timestamp(0), vec![Value::Int(7)]);
        let s = Schema::of(&[("id", AttrType::Int)]);
        assert!(n.matches(&t, &s).is_empty());
        assert!(c.matches(&t, &s).is_empty());
    }

    #[test]
    fn remove_uninstalls() {
        let (mut n, mut c) = both_engines();
        n.insert(1, profile_eq_id(7));
        c.insert(1, profile_eq_id(7));
        n.remove(&1);
        c.remove(&1);
        let t = tup(7, 0.0, "a");
        assert!(n.matches(&t, &schema()).is_empty());
        assert!(c.matches(&t, &schema()).is_empty());
        assert!(c.is_empty());
        // removing a missing key is a no-op
        c.remove(&9);
    }

    #[test]
    fn insert_replaces_existing_key() {
        let (mut n, mut c) = both_engines();
        n.insert(1, profile_eq_id(7));
        c.insert(1, profile_eq_id(7));
        n.insert(1, profile_eq_id(8));
        c.insert(1, profile_eq_id(8));
        let s = schema();
        assert!(n.matches(&tup(7, 0.0, "a"), &s).is_empty());
        assert!(c.matches(&tup(7, 0.0, "a"), &s).is_empty());
        assert_eq!(c.matches(&tup(8, 0.0, "a"), &s), vec![1]);
        assert_eq!(n.len(), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn multi_filter_profile_matches_once() {
        // Two overlapping filters in one profile must yield the key once.
        let mut p = Profile::new();
        let mut f1 = Conjunction::always();
        f1.between("id", 0, 10);
        let mut f2 = Conjunction::always();
        f2.between("id", 5, 15);
        p.add_entry(
            "S",
            ProfileEntry {
                projection: Projection::All,
                filters: vec![f1, f2],
            },
        );
        let (mut n, mut c) = both_engines();
        n.insert(1, p.clone());
        c.insert(1, p);
        let t = tup(7, 0.0, "a");
        assert_eq!(n.matches(&t, &schema()), vec![1]);
        assert_eq!(c.matches(&t, &schema()), vec![1]);
    }

    #[test]
    fn diff_constraints_checked() {
        let mut f = Conjunction::always();
        f.diff("id", "price", DiffRange::new(0.0, 5.0));
        let mut p = Profile::new();
        p.add_interest("S", Projection::All, f);
        let (mut n, mut c) = both_engines();
        n.insert(1, p.clone());
        c.insert(1, p);
        let s = schema();
        assert_eq!(c.matches(&tup(7, 4.0, "a"), &s), vec![1]); // diff 3
        assert!(c.matches(&tup(7, 0.5, "a"), &s).is_empty()); // diff 6.5
        assert_eq!(
            n.matches(&tup(7, 4.0, "a"), &s),
            c.matches(&tup(7, 4.0, "a"), &s)
        );
    }

    #[test]
    fn equality_fast_path_matches_negative_zero() {
        // `-0.0 == 0.0`, so the equality index must find the profile.
        let mut f = Conjunction::always();
        f.equals("price", 0.0);
        let mut p = Profile::new();
        p.add_interest("S", Projection::All, f);
        let (mut n, mut c) = both_engines();
        n.insert(1, p.clone());
        c.insert(1, p);
        let t = tup(7, -0.0, "a");
        assert_eq!(n.matches(&t, &schema()), vec![1]);
        assert_eq!(c.matches(&t, &schema()), vec![1]);
    }

    #[test]
    fn ne_constraint_not_on_fast_path() {
        // id = 7 with an exclusion can't use the eq fast path; the scan
        // path must still be correct.
        let mut f = Conjunction::always();
        f.between("id", 7, 7).excludes("id", 7);
        let mut p = Profile::new();
        p.add_interest("S", Projection::All, f);
        let mut c = CountingMatcher::new();
        c.insert(1, p);
        assert!(c.matches(&tup(7, 0.0, "a"), &schema()).is_empty());
    }

    #[test]
    fn deep_unsat_filters_are_pruned_from_the_index() {
        // One dead conjunction (id ≥ price, price ≥ 5, id < 5 — unsat only
        // through interaction) plus one live one. The dead filter must not
        // be indexed at all, and matching must agree with the naive engine.
        let mut dead = Conjunction::always();
        dead.diff(
            "id",
            "price",
            crate::predicate::DiffRange::new(0.0, f64::INFINITY),
        )
        .lower("price", 5, true)
        .upper("id", 5, false);
        assert!(!dead.is_unsat(), "must be invisible to the shallow check");
        let mut live = Conjunction::always();
        live.equals("id", 7);
        let mut p = Profile::new();
        p.add_interest("S", Projection::All, dead);
        p.add_interest("S", Projection::All, live);
        let (mut n, mut c) = both_engines();
        n.insert(1, p.clone());
        c.insert(1, p);
        let idx = &c.streams[&"S".into()];
        assert_eq!(idx.filters.len(), 1, "dead conjunction still indexed");
        assert!(idx.accept_all.is_empty());
        let s = schema();
        let hit = tup(7, 50.0, "a");
        let miss = tup(3, 50.0, "a");
        assert_eq!(n.matches(&hit, &s), vec![1]);
        assert_eq!(c.matches(&hit, &s), vec![1]);
        assert!(n.matches(&miss, &s).is_empty());
        assert!(c.matches(&miss, &s).is_empty());
    }

    #[test]
    fn batch_matches_agree_with_single() {
        let (mut n, mut c) = both_engines();
        for (k, p) in [
            (1u32, profile_eq_id(7)),
            (2, profile_price_range(0.0, 100.0)),
            (3, Profile::whole_stream("S")),
        ] {
            n.insert(k, p.clone());
            c.insert(k, p);
        }
        let s = schema();
        let batch: Vec<Tuple> = (0..20).map(|i| tup(i % 9, (i * 13) as f64, "x")).collect();
        let singles: Vec<Vec<u32>> = batch.iter().map(|t| c.matches(t, &s)).collect();
        assert_eq!(c.matches_batch(&batch, &s), singles);
        assert_eq!(n.matches_batch(&batch, &s), singles);
        // unknown stream: one empty result per tuple
        let other = vec![Tuple::new("Other", Timestamp(0), vec![Value::Int(1)])];
        let os = Schema::of(&[("id", AttrType::Int)]);
        assert_eq!(c.matches_batch(&other, &os), vec![Vec::<u32>::new()]);
        assert!(c.matches_batch(&[], &s).is_empty());
    }

    #[test]
    fn profile_of_only_dead_filters_matches_nothing_but_stays_installed() {
        let mut dead = Conjunction::always();
        dead.diff(
            "id",
            "price",
            crate::predicate::DiffRange::new(0.0, f64::INFINITY),
        )
        .lower("price", 5, true)
        .upper("id", 5, false);
        let mut p = Profile::new();
        p.add_interest("S", Projection::All, dead);
        let mut c = CountingMatcher::new();
        c.insert(1, p);
        assert_eq!(c.len(), 1);
        assert!(c.matches(&tup(7, 50.0, "a"), &schema()).is_empty());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::predicate::Conjunction;
    use crate::profile::Projection;
    use cosmos_types::{AttrType, Timestamp};
    use proptest::prelude::*;

    /// The layouts every stream is matched under, each with the
    /// columns of `(a, b)` it carries: the full one, the same two
    /// attributes swapped, and one lacking `b` — a constrained
    /// attribute. Matching them in turn after every replace means a
    /// column resolution that is stale (kept across a re-index) or
    /// wrong (shared between layouts) cannot agree with the naive
    /// engine, which resolves every name per tuple.
    fn layouts() -> [(Schema, &'static [usize]); 3] {
        let (a, b) = (("a", AttrType::Int), ("b", AttrType::Int));
        [
            (Schema::of(&[a, b]), &[0, 1]),
            (Schema::of(&[b, a]), &[1, 0]),
            (Schema::of(&[a]), &[0]),
        ]
    }

    #[derive(Debug, Clone)]
    enum Constr {
        Eq(&'static str, i64),
        Ne(&'static str, i64),
        Between(&'static str, i64, i64),
        Lower(&'static str, i64, bool),
        Upper(&'static str, i64, bool),
        Diff(i64, i64),
    }

    fn arb_constr() -> impl Strategy<Value = Constr> {
        let attr = prop_oneof![Just("a"), Just("b")];
        prop_oneof![
            (attr.clone(), -10i64..10).prop_map(|(a, v)| Constr::Eq(a, v)),
            (attr.clone(), -10i64..10).prop_map(|(a, v)| Constr::Ne(a, v)),
            (attr.clone(), -10i64..10, -10i64..10).prop_map(|(a, l, h)| Constr::Between(
                a,
                l.min(h),
                l.max(h)
            )),
            (attr.clone(), -10i64..10, any::<bool>()).prop_map(|(a, v, i)| Constr::Lower(a, v, i)),
            (attr, -10i64..10, any::<bool>()).prop_map(|(a, v, i)| Constr::Upper(a, v, i)),
            (-10i64..10, -10i64..10).prop_map(|(l, h)| Constr::Diff(l.min(h), l.max(h))),
        ]
    }

    /// Add interest in `stream` to `p`: the disjunction of `constrs`,
    /// or the whole stream when there are none.
    fn add_stream(p: &mut Profile, stream: &str, constrs: &[Vec<Constr>]) {
        if constrs.is_empty() {
            p.add_interest(stream, Projection::All, Conjunction::always());
        }
        for filter in constrs {
            let mut c = Conjunction::always();
            for k in filter {
                match k {
                    Constr::Eq(a, v) => {
                        c.equals(*a, *v);
                    }
                    Constr::Ne(a, v) => {
                        c.excludes(*a, *v);
                    }
                    Constr::Between(a, l, h) => {
                        c.between(*a, *l, *h);
                    }
                    Constr::Lower(a, v, i) => {
                        c.lower(*a, *v, *i);
                    }
                    Constr::Upper(a, v, i) => {
                        c.upper(*a, *v, *i);
                    }
                    Constr::Diff(l, h) => {
                        c.diff("a", "b", DiffRange::new(*l as f64, *h as f64));
                    }
                }
            }
            p.add_interest(stream, Projection::All, c);
        }
    }

    /// The filters of one stream entry; `None` = no entry for the stream.
    fn arb_stream() -> impl Strategy<Value = Option<Vec<Vec<Constr>>>> {
        proptest::option::of(proptest::collection::vec(
            proptest::collection::vec(arb_constr(), 0..3),
            0..3,
        ))
    }

    proptest! {
        /// The counting matcher and the naive matcher agree after every
        /// step of an arbitrary install / replace / remove sequence over
        /// profiles spanning two streams — the counting matcher re-indexes
        /// only the streams whose entry changed, so a replace that keeps
        /// one stream's entry and moves the other must leave both right.
        #[test]
        fn engines_agree(
            ops in proptest::collection::vec((0u32..4, arb_stream(), arb_stream()), 1..12),
            points in proptest::collection::vec((-12i64..12, -12i64..12), 1..8),
        ) {
            let mut naive = NaiveMatcher::new();
            let mut counting = CountingMatcher::new();
            for (key, on_s, on_t) in ops {
                let mut p = Profile::new();
                for (stream, constrs) in [("S", on_s), ("T", on_t)] {
                    if let Some(constrs) = constrs {
                        add_stream(&mut p, stream, &constrs);
                    }
                }
                if p.is_empty() {
                    naive.remove(&key);
                    counting.remove(&key);
                } else {
                    naive.insert(key, p.clone());
                    counting.insert(key, p);
                }
                prop_assert_eq!(naive.len(), counting.len());
                for stream in ["S", "T"] {
                    for (s, columns) in layouts() {
                        let batch: Vec<Tuple> = points
                            .iter()
                            .map(|&(a, b)| {
                                let values = columns.iter().map(|&c| Value::Int([a, b][c])).collect();
                                Tuple::new(stream, Timestamp(0), values)
                            })
                            .collect();
                        for t in &batch {
                            prop_assert_eq!(naive.matches(t, &s), counting.matches(t, &s));
                        }
                        prop_assert_eq!(naive.matches_batch(&batch, &s), counting.matches_batch(&batch, &s));
                    }
                }
            }
        }
    }
}
