//! Incremental greedy query grouping.
//!
//! "Each processor maintains a number of query groups such that queries
//! inside each group have overlapping results and it is beneficial to
//! rewrite these queries into one query q which contains all the member
//! queries. … An incremental greedy algorithm is used to optimize the
//! query grouping, where each new query is assigned to the query group
//! that can achieve the maximum benefit." (Section 4)
//!
//! The [`GroupManager`] implements that algorithm. Groups are indexed by
//! their *compatibility key* (stream multiset, aggregation shape,
//! grouping attributes) so a new query only attempts merges against
//! plausibly mergeable groups; the marginal gain of joining a group is
//! `C(q) + C(rep) − C(rep ⊕ q)` — the bandwidth saved versus delivering
//! the query's result separately — and the query joins the group with
//! the maximum positive gain, or founds a new group otherwise.

use crate::estimate::{cost_bps, StatsCatalog};
use crate::merge::{merge, retighten_profile};
use cosmos_cbn::Profile;
use cosmos_spe::analyze::AnalyzedQuery;
use cosmos_types::{CosmosError, FxHashMap, GroupId, QueryId, Result, StreamName};
use std::collections::BTreeMap;

/// A group of queries sharing one representative query.
#[derive(Debug, Clone)]
pub struct QueryGroup {
    /// The group id.
    pub id: GroupId,
    /// The name of the representative's shared result stream.
    pub result_stream: StreamName,
    /// The member queries.
    pub members: Vec<(QueryId, AnalyzedQuery)>,
    /// The representative query (equals the single member for
    /// singleton groups).
    pub representative: AnalyzedQuery,
}

impl QueryGroup {
    /// The paper's group benefit: `Σᵢ C(qᵢ) − C(rep)` in bytes/second.
    pub fn benefit(&self, catalog: &StatsCatalog) -> f64 {
        let members: f64 = self.members.iter().map(|(_, q)| cost_bps(q, catalog)).sum();
        members - cost_bps(&self.representative, catalog)
    }
}

/// What one [`GroupManager`] operation — an insert, a removal, a
/// regrouping — did to the groups, stated completely: the layer below
/// applies it (stops, then starts and replacements, then subscriptions)
/// and never has to look at the manager to find out the rest.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroupChange {
    /// Result streams of dissolved groups: their representatives stop.
    pub stop: Vec<StreamName>,
    /// Founded groups: the result stream and the representative to run.
    pub start: Vec<(StreamName, AnalyzedQuery)>,
    /// Groups that stay but whose representative changed (widened by a
    /// new member, rebuilt after a withdrawal): the processor replaces
    /// the running representative and re-advertises.
    pub replace: Vec<(StreamName, AnalyzedQuery)>,
    /// Every member subscription to (re)install: the member, the shared
    /// result stream, and the re-tightened profile extracting its
    /// results from it. A changed representative lists *all* its
    /// members — an old profile may be too loose once the shared stream
    /// widens (its constraints were skipped as "already enforced"). An
    /// insert lists the inserted query last.
    pub subscribe: Vec<(QueryId, StreamName, Profile)>,
}

impl GroupChange {
    /// Whether the operation left the groups as they were.
    pub fn is_empty(&self) -> bool {
        self == &GroupChange::default()
    }
}

/// The per-processor grouping state.
#[derive(Debug, Clone, Default)]
pub struct GroupManager {
    groups: BTreeMap<GroupId, QueryGroup>,
    /// Compatibility key → groups with that key.
    index: FxHashMap<String, Vec<GroupId>>,
    /// Query → its group and re-tightened profile.
    placements: FxHashMap<QueryId, (GroupId, Profile)>,
    next_group: u64,
    /// Namespace prefix for generated result-stream names.
    stream_prefix: String,
    /// Never merge: every query founds a singleton group
    /// ([`GroupManager::unshared`]).
    unshared: bool,
}

/// Minimum marginal gain (bytes/second) required to join a group rather
/// than founding a new one.
const GAIN_EPSILON: f64 = 1e-9;

/// Compatibility key: queries can only ever merge when these agree.
fn compat_key(q: &AnalyzedQuery) -> String {
    let mut streams: Vec<&str> = q.streams.iter().map(|b| b.stream.as_str()).collect();
    streams.sort_unstable();
    let gb: Vec<String> = {
        let mut g: Vec<String> = q.group_by.iter().map(|g| g.name.clone()).collect();
        g.sort_unstable();
        g
    };
    format!(
        "{}|agg={}|distinct={}|gb={}",
        streams.join(","),
        q.is_aggregate(),
        q.distinct,
        gb.join(",")
    )
}

impl GroupManager {
    /// A manager generating result streams named `{prefix}::g{N}`.
    pub fn new(stream_prefix: impl Into<String>) -> GroupManager {
        GroupManager {
            stream_prefix: stream_prefix.into(),
            ..GroupManager::default()
        }
    }

    /// A manager that never merges — the "Non-Share" baseline of Figure
    /// 3: every insert founds a singleton group named like
    /// [`GroupManager::new`]'s, and [`GroupManager::reoptimize`] never
    /// regroups.
    pub fn unshared(stream_prefix: impl Into<String>) -> GroupManager {
        GroupManager {
            unshared: true,
            ..GroupManager::new(stream_prefix)
        }
    }

    /// Insert a query, greedily assigning it to the best group (a new
    /// one, when the manager never merges).
    pub fn insert(
        &mut self,
        qid: QueryId,
        q: AnalyzedQuery,
        catalog: &StatsCatalog,
    ) -> Result<GroupChange> {
        if self.placements.contains_key(&qid) {
            return Err(CosmosError::Query(format!("query {qid} already inserted")));
        }
        let key = compat_key(&q);
        let cq = cost_bps(&q, catalog);
        // Find the candidate group with the maximum positive gain.
        let mut best: Option<(GroupId, AnalyzedQuery, f64)> = None;
        if let Some(candidates) = self.index.get(&key).filter(|_| !self.unshared) {
            for &gid in candidates {
                let group = &self.groups[&gid];
                let Ok(candidate_rep) = merge(&group.representative, &q) else {
                    continue;
                };
                let gain = cq + cost_bps(&group.representative, catalog)
                    - cost_bps(&candidate_rep, catalog);
                if gain > GAIN_EPSILON && best.as_ref().is_none_or(|(_, _, bg)| gain > *bg) {
                    best = Some((gid, candidate_rep, gain));
                }
            }
        }
        let mut change = GroupChange::default();
        let gid = match best {
            Some((gid, new_rep, _)) => {
                // Compute every profile against the new representative
                // *before* mutating state, so failures leave us consistent.
                let group = &self.groups[&gid];
                let stream = &group.result_stream;
                if group.representative != new_rep {
                    for (mid, member) in &group.members {
                        let p = retighten_profile(member, &new_rep, stream)?;
                        change.subscribe.push((*mid, *stream, p));
                    }
                    change.replace.push((*stream, new_rep.clone()));
                }
                let profile = retighten_profile(&q, &new_rep, stream)?;
                change.subscribe.push((qid, *stream, profile));
                let group = self.groups.get_mut(&gid).expect("candidate exists");
                group.representative = new_rep;
                group.members.push((qid, q));
                gid
            }
            None => {
                let gid = GroupId(self.next_group);
                self.next_group += 1;
                let result_stream =
                    StreamName::from(format!("{}::g{}", self.stream_prefix, gid.raw()));
                let profile = retighten_profile(&q, &q, &result_stream)?;
                change.start.push((result_stream, q.clone()));
                change.subscribe.push((qid, result_stream, profile));
                let group = QueryGroup {
                    id: gid,
                    result_stream,
                    members: vec![(qid, q.clone())],
                    representative: q,
                };
                self.groups.insert(gid, group);
                self.index.entry(key).or_default().push(gid);
                gid
            }
        };
        self.place(gid, &change);
        Ok(change)
    }

    /// Record the subscriptions of `change` (all in group `gid`) as the
    /// members' placements.
    fn place(&mut self, gid: GroupId, change: &GroupChange) {
        for (qid, _, profile) in &change.subscribe {
            self.placements.insert(*qid, (gid, profile.clone()));
        }
    }

    /// Remove a query: its group dissolves with its last member, or its
    /// representative is rebuilt by folding the remaining members, who
    /// are all re-tightened against it. Unknown queries are an error.
    pub fn remove(&mut self, qid: QueryId) -> Result<GroupChange> {
        let Some(&(gid, _)) = self.placements.get(&qid) else {
            return Err(CosmosError::Query(format!("query {qid} is not placed")));
        };
        let group = &self.groups[&gid];
        let stream = group.result_stream;
        let mut change = GroupChange::default();
        let survivors: Vec<_> = group.members.iter().filter(|(m, _)| *m != qid).collect();
        if let Some(((_, first), rest)) = survivors.split_first() {
            let mut rep = first.clone();
            for (_, m) in rest {
                rep = merge(&rep, m)?;
            }
            for (mid, member) in &survivors {
                let p = retighten_profile(member, &rep, &stream)?;
                change.subscribe.push((*mid, stream, p));
            }
            let group = self.groups.get_mut(&gid).expect("placement implies group");
            group.members.retain(|(m, _)| *m != qid);
            group.representative = rep.clone();
            change.replace.push((stream, rep));
            self.place(gid, &change);
        } else {
            let key = compat_key(&group.representative);
            self.groups.remove(&gid);
            if let Some(v) = self.index.get_mut(&key) {
                v.retain(|g| *g != gid);
            }
            change.stop.push(stream);
        }
        self.placements.remove(&qid);
        Ok(change)
    }

    /// The group containing a query, with its re-tightened profile.
    pub fn placement(&self, qid: QueryId) -> Option<(&QueryGroup, &Profile)> {
        let (gid, profile) = self.placements.get(&qid)?;
        Some((&self.groups[gid], profile))
    }

    /// A group by id.
    pub fn group(&self, gid: GroupId) -> Option<&QueryGroup> {
        self.groups.get(&gid)
    }

    /// Iterate over all groups.
    pub fn groups(&self) -> impl Iterator<Item = &QueryGroup> {
        self.groups.values()
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Number of inserted queries.
    pub fn query_count(&self) -> usize {
        self.placements.len()
    }

    /// The paper's grouping ratio: `#groups / #queries` (1.0 when empty).
    pub fn grouping_ratio(&self) -> f64 {
        if self.placements.is_empty() {
            1.0
        } else {
            self.groups.len() as f64 / self.placements.len() as f64
        }
    }

    /// Total estimated delivery rate without merging: `Σ C(qᵢ)`.
    pub fn total_member_bps(&self, catalog: &StatsCatalog) -> f64 {
        self.groups
            .values()
            .flat_map(|g| g.members.iter())
            .map(|(_, q)| cost_bps(q, catalog))
            .sum()
    }

    /// Total estimated delivery rate with merging: `Σ C(rep_g)`.
    pub fn total_rep_bps(&self, catalog: &StatsCatalog) -> f64 {
        self.groups
            .values()
            .map(|g| cost_bps(&g.representative, catalog))
            .sum()
    }

    /// Rate-based benefit ratio `1 − Σ C(rep) / Σ C(q)` — the
    /// topology-independent part of the paper's Figure 4(a) metric.
    pub fn rate_benefit_ratio(&self, catalog: &StatsCatalog) -> f64 {
        let members = self.total_member_bps(catalog);
        if members <= 0.0 {
            0.0
        } else {
            1.0 - self.total_rep_bps(catalog) / members
        }
    }

    /// Self-tuning re-optimization (the "Self-tuning" in COSMOS's name):
    /// greedy insertion is order-sensitive, so periodically re-run the
    /// assignment with all queries known, inserting in descending `C(q)`
    /// order (large flows anchor groups; small ones then join the best
    /// anchor). The new grouping is adopted only if it strictly lowers
    /// `Σ C(rep)`: every old representative stops (in result-stream
    /// order), every new one starts (in group order), every query is
    /// resubscribed (in query order). Otherwise — and always when the
    /// manager never merges — the change is empty.
    pub fn reoptimize(&mut self, catalog: &StatsCatalog) -> Result<GroupChange> {
        if self.unshared || self.placements.len() < 2 {
            return Ok(GroupChange::default());
        }
        let mut queries: Vec<(QueryId, AnalyzedQuery)> = self
            .groups
            .values()
            .flat_map(|g| g.members.iter().cloned())
            .collect();
        queries.sort_by(|(ia, qa), (ib, qb)| {
            cost_bps(qb, catalog)
                .partial_cmp(&cost_bps(qa, catalog))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(ia.cmp(ib))
        });
        let mut candidate = GroupManager::new(self.stream_prefix.clone());
        candidate.next_group = self.next_group;
        for (qid, q) in queries {
            candidate.insert(qid, q, catalog)?;
        }
        let (old, new) = (
            self.total_rep_bps(catalog),
            candidate.total_rep_bps(catalog),
        );
        if new + GAIN_EPSILON >= old {
            return Ok(GroupChange::default());
        }
        let mut stop: Vec<StreamName> = self.groups.values().map(|g| g.result_stream).collect();
        stop.sort_unstable();
        let start = candidate
            .groups
            .values()
            .map(|g| (g.result_stream, g.representative.clone()))
            .collect();
        let mut subscribe: Vec<_> = (candidate.groups.values())
            .flat_map(|g| {
                g.members
                    .iter()
                    .map(move |(qid, _)| (*qid, g.result_stream))
            })
            .map(|(qid, stream)| (qid, stream, candidate.placements[&qid].1.clone()))
            .collect();
        subscribe.sort_unstable_by_key(|(qid, ..)| *qid);
        *self = candidate;
        Ok(GroupChange {
            stop,
            start,
            replace: Vec::new(),
            subscribe,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::{AttrStats, StreamStats};
    use cosmos_cql::parse_query;
    use cosmos_types::{AttrType, Schema};

    fn catalog() -> StatsCatalog {
        let mut c = StatsCatalog::new();
        for name in ["S", "T"] {
            c.register(
                name,
                Schema::of(&[
                    ("id", AttrType::Int),
                    ("x", AttrType::Float),
                    ("timestamp", AttrType::Int),
                ]),
                StreamStats::with_rate(10.0)
                    .attr("id", AttrStats::categorical(50.0))
                    .attr("x", AttrStats::numeric(0.0, 100.0, 1000.0)),
            );
        }
        c
    }

    fn q(cat: &StatsCatalog, text: &str) -> AnalyzedQuery {
        AnalyzedQuery::analyze(&parse_query(text).unwrap(), cat.schema_fn()).unwrap()
    }

    /// The group a placed query sits in.
    fn group_of(gm: &GroupManager, qid: u64) -> GroupId {
        gm.placement(QueryId(qid)).expect("placed").0.id
    }

    #[test]
    fn identical_queries_share_a_group() {
        let cat = catalog();
        let mut gm = GroupManager::new("rep");
        let text = "SELECT id, x FROM S [Now] WHERE x < 50.0";
        let o1 = gm.insert(QueryId(1), q(&cat, text), &cat).unwrap();
        let o2 = gm.insert(QueryId(2), q(&cat, text), &cat).unwrap();
        assert!(!o1.start.is_empty()); // founded a group
        assert!(o2.start.is_empty()); // joined it
        assert_eq!(group_of(&gm, 1), group_of(&gm, 2));
        assert!(o2.replace.is_empty()); // identical query cannot change the rep
        assert_eq!(o2.subscribe.len(), 1, "only the new member subscribes");
        assert_eq!(gm.group_count(), 1);
        assert_eq!(gm.query_count(), 2);
        assert!((gm.grouping_ratio() - 0.5).abs() < 1e-12);
        // benefit: one member's cost is saved entirely
        let g = gm.group(group_of(&gm, 1)).unwrap();
        assert!(g.benefit(&cat) > 0.0);
        assert!(gm.rate_benefit_ratio(&cat) > 0.4);
    }

    #[test]
    fn overlapping_queries_merge_with_loosened_rep() {
        let cat = catalog();
        let mut gm = GroupManager::new("rep");
        gm.insert(
            QueryId(1),
            q(
                &cat,
                "SELECT id, x FROM S [Now] WHERE x BETWEEN 0.0 AND 60.0",
            ),
            &cat,
        )
        .unwrap();
        let o2 = gm
            .insert(
                QueryId(2),
                q(
                    &cat,
                    "SELECT id, x FROM S [Now] WHERE x BETWEEN 40.0 AND 100.0",
                ),
                &cat,
            )
            .unwrap();
        assert_eq!(group_of(&gm, 1), group_of(&gm, 2));
        // the widened representative is replaced and both members resubscribe
        let g = gm.group(group_of(&gm, 1)).unwrap();
        assert_eq!(
            o2.replace,
            vec![(g.result_stream, g.representative.clone())]
        );
        let resubscribed: Vec<QueryId> = o2.subscribe.iter().map(|(m, ..)| *m).collect();
        assert_eq!(resubscribed, vec![QueryId(1), QueryId(2)]);
        let c = g.representative.selections[0].constraint_for("x");
        assert!(c.satisfies(&cosmos_types::Value::Float(0.0)));
        assert!(c.satisfies(&cosmos_types::Value::Float(100.0)));
    }

    #[test]
    fn disjoint_narrow_queries_stay_apart() {
        let cat = catalog();
        let mut gm = GroupManager::new("rep");
        gm.insert(
            QueryId(1),
            q(&cat, "SELECT id FROM S [Now] WHERE x BETWEEN 0.0 AND 5.0"),
            &cat,
        )
        .unwrap();
        let o2 = gm
            .insert(
                QueryId(2),
                q(&cat, "SELECT id FROM S [Now] WHERE x BETWEEN 90.0 AND 95.0"),
                &cat,
            )
            .unwrap();
        assert_eq!(o2.start.len(), 1, "hull over the gap should not pay off");
        assert_ne!(group_of(&gm, 1), group_of(&gm, 2));
        assert_eq!(gm.group_count(), 2);
    }

    #[test]
    fn different_streams_never_share_groups() {
        let cat = catalog();
        let mut gm = GroupManager::new("rep");
        let o1 = gm
            .insert(QueryId(1), q(&cat, "SELECT id FROM S [Now]"), &cat)
            .unwrap();
        let o2 = gm
            .insert(QueryId(2), q(&cat, "SELECT id FROM T [Now]"), &cat)
            .unwrap();
        assert_ne!(group_of(&gm, 1), group_of(&gm, 2));
        assert_ne!(o1.start[0].0, o2.start[0].0, "distinct result streams");
    }

    #[test]
    fn picks_maximum_gain_group() {
        let cat = catalog();
        let mut gm = GroupManager::new("rep");
        // group A: wide range; group B: narrow disjoint range
        gm.insert(
            QueryId(1),
            q(
                &cat,
                "SELECT id, x FROM S [Now] WHERE x BETWEEN 0.0 AND 50.0",
            ),
            &cat,
        )
        .unwrap();
        gm.insert(
            QueryId(2),
            q(
                &cat,
                "SELECT id, x FROM S [Now] WHERE x BETWEEN 98.0 AND 100.0",
            ),
            &cat,
        )
        .unwrap();
        // a query inside A's range must join A, not B
        let oc = gm
            .insert(
                QueryId(3),
                q(
                    &cat,
                    "SELECT id, x FROM S [Now] WHERE x BETWEEN 10.0 AND 20.0",
                ),
                &cat,
            )
            .unwrap();
        assert!(oc.start.is_empty());
        assert_eq!(group_of(&gm, 3), group_of(&gm, 1));
    }

    #[test]
    fn placement_returns_profile() {
        let cat = catalog();
        let mut gm = GroupManager::new("rep");
        let o = gm
            .insert(
                QueryId(7),
                q(&cat, "SELECT id FROM S [Now] WHERE x < 10.0"),
                &cat,
            )
            .unwrap();
        let (g, p) = gm.placement(QueryId(7)).unwrap();
        assert_eq!(o.subscribe, vec![(QueryId(7), g.result_stream, p.clone())]);
        assert!(gm.placement(QueryId(99)).is_none());
        // the profile targets the group's result stream
        assert!(p.entry(&g.result_stream).is_some());
    }

    #[test]
    fn duplicate_insert_rejected() {
        let cat = catalog();
        let mut gm = GroupManager::new("rep");
        gm.insert(QueryId(1), q(&cat, "SELECT id FROM S [Now]"), &cat)
            .unwrap();
        assert!(gm
            .insert(QueryId(1), q(&cat, "SELECT id FROM S [Now]"), &cat)
            .is_err());
    }

    #[test]
    fn remove_rebuilds_or_dissolves_groups() {
        let cat = catalog();
        let mut gm = GroupManager::new("rep");
        let wide = "SELECT id, x FROM S [Now] WHERE x BETWEEN 0.0 AND 80.0";
        let narrow = "SELECT id, x FROM S [Now] WHERE x BETWEEN 0.0 AND 40.0";
        gm.insert(QueryId(1), q(&cat, wide), &cat).unwrap();
        gm.insert(QueryId(2), q(&cat, narrow), &cat).unwrap();
        let gid = group_of(&gm, 1);
        assert_eq!(gid, group_of(&gm, 2));
        // removing the wide member shrinks the representative
        let shrunk = gm.remove(QueryId(1)).unwrap();
        let g = gm.group(gid).unwrap();
        let c = g.representative.selections[0].constraint_for("x");
        assert!(!c.satisfies(&cosmos_types::Value::Float(60.0)));
        assert_eq!(
            shrunk.replace,
            vec![(g.result_stream, g.representative.clone())]
        );
        assert!(shrunk.stop.is_empty() && shrunk.start.is_empty());
        // removing the last member dissolves the group
        let stream = g.result_stream;
        let dissolved = gm.remove(QueryId(2)).unwrap();
        assert_eq!(dissolved.stop, vec![stream]);
        assert!(dissolved.replace.is_empty() && dissolved.subscribe.is_empty());
        assert_eq!(gm.group_count(), 0);
        assert!(gm.remove(QueryId(2)).is_err());
        // and its index slot no longer offers the dead group
        let o3 = gm.insert(QueryId(3), q(&cat, wide), &cat).unwrap();
        assert!(!o3.start.is_empty());
    }

    #[test]
    fn withdrawal_refreshes_the_survivors_placements() {
        // The narrow member's profile against the wide representative
        // filters on x; once the wide member leaves, the representative
        // *is* the narrow query and the survivor's profile must follow.
        let cat = catalog();
        let mut gm = GroupManager::new("rep");
        let wide = "SELECT id, x FROM S [Now] WHERE x BETWEEN 0.0 AND 80.0";
        let narrow = "SELECT id, x FROM S [Now] WHERE x BETWEEN 0.0 AND 40.0";
        gm.insert(QueryId(1), q(&cat, wide), &cat).unwrap();
        gm.insert(QueryId(2), q(&cat, narrow), &cat).unwrap();
        let stale = gm.placement(QueryId(2)).unwrap().1.clone();
        let change = gm.remove(QueryId(1)).unwrap();
        let (group, placed) = gm.placement(QueryId(2)).unwrap();
        let fresh = retighten_profile(
            &q(&cat, narrow),
            &group.representative,
            &group.result_stream,
        )
        .unwrap();
        assert_ne!(stale, fresh, "the withdrawal must change the profile");
        assert_eq!(placed, &fresh);
        assert_eq!(
            change.subscribe,
            vec![(QueryId(2), group.result_stream, fresh)]
        );
    }

    #[test]
    fn unshared_manager_founds_a_group_per_query() {
        let cat = catalog();
        let mut gm = GroupManager::unshared("rep");
        let text = "SELECT id, x FROM S [Now] WHERE x < 50.0";
        for i in 0..3 {
            let change = gm.insert(QueryId(i), q(&cat, text), &cat).unwrap();
            let stream = StreamName::from(format!("rep::g{i}"));
            let profile = retighten_profile(&q(&cat, text), &q(&cat, text), &stream).unwrap();
            let founded = GroupChange {
                start: vec![(stream, q(&cat, text))],
                subscribe: vec![(QueryId(i), stream, profile)],
                ..GroupChange::default()
            };
            assert_eq!(change, founded);
        }
        assert_eq!((gm.group_count(), gm.query_count()), (3, 3));
        assert!(gm.reoptimize(&cat).unwrap().is_empty());
        let dissolved = gm.remove(QueryId(1)).unwrap();
        assert_eq!(dissolved.stop, vec![StreamName::from("rep::g1")]);
        assert_eq!(gm.group_count(), 2);
    }

    #[test]
    fn distinct_queries_form_singleton_groups() {
        let cat = catalog();
        let mut gm = GroupManager::new("rep");
        let text = "SELECT DISTINCT id FROM S [Now]";
        gm.insert(QueryId(1), q(&cat, text), &cat).unwrap();
        let o2 = gm.insert(QueryId(2), q(&cat, text), &cat).unwrap();
        assert!(!o2.start.is_empty());
        assert_ne!(group_of(&gm, 1), group_of(&gm, 2));
    }

    #[test]
    fn reoptimize_recovers_from_adversarial_insert_order() {
        // Two disjoint narrow queries arrive first and seed separate
        // groups; a wide query then joins one of them, leaving the other
        // stranded. With full knowledge, the wide query anchors a single
        // group that absorbs both narrow ones.
        let cat = catalog();
        let mut gm = GroupManager::new("rep");
        let narrow_a = "SELECT id, x FROM S [Now] WHERE x BETWEEN 0.0 AND 10.0";
        let narrow_b = "SELECT id, x FROM S [Now] WHERE x BETWEEN 90.0 AND 100.0";
        let wide = "SELECT id, x FROM S [Now] WHERE x BETWEEN 0.0 AND 100.0";
        gm.insert(QueryId(1), q(&cat, narrow_a), &cat).unwrap();
        gm.insert(QueryId(2), q(&cat, narrow_b), &cat).unwrap();
        gm.insert(QueryId(3), q(&cat, wide), &cat).unwrap();
        assert_eq!(gm.group_count(), 2, "greedy leaves one narrow stranded");
        let before = gm.total_rep_bps(&cat);
        let regrouped = gm.reoptimize(&cat).unwrap();
        assert_eq!(gm.group_count(), 1);
        assert!(gm.total_rep_bps(&cat) < before);
        assert_eq!(regrouped.stop.len(), 2, "both old groups stop");
        assert_eq!(regrouped.start.len(), 1);
        assert!(regrouped.replace.is_empty());
        assert_eq!(regrouped.subscribe.len(), 3);
        // every query keeps a valid placement afterwards
        for qid in [QueryId(1), QueryId(2), QueryId(3)] {
            assert!(gm.placement(qid).is_some());
        }
        // a second pass finds nothing more to do
        assert!(gm.reoptimize(&cat).unwrap().is_empty());
    }

    #[test]
    fn reoptimize_noop_cases() {
        let cat = catalog();
        let mut gm = GroupManager::new("rep");
        assert!(gm.reoptimize(&cat).unwrap().is_empty()); // empty
        gm.insert(QueryId(1), q(&cat, "SELECT id FROM S [Now]"), &cat)
            .unwrap();
        assert!(gm.reoptimize(&cat).unwrap().is_empty()); // single query
        gm.insert(QueryId(2), q(&cat, "SELECT id FROM S [Now]"), &cat)
            .unwrap();
        // already optimal (one group)
        assert!(gm.reoptimize(&cat).unwrap().is_empty());
        assert_eq!(gm.group_count(), 1);
    }

    #[test]
    fn grouping_ratio_of_empty_manager() {
        let gm = GroupManager::new("rep");
        assert_eq!(gm.grouping_ratio(), 1.0);
        assert_eq!(gm.rate_benefit_ratio(&catalog()), 0.0);
        assert_eq!(gm.groups().count(), 0);
    }
}
