#![forbid(unsafe_code)]
//! `cosmos-verify` — whole-network static verification of a deployed
//! COSMOS system.
//!
//! The input is a [`cosmos::NetworkSnapshot`] (see
//! [`cosmos::Cosmos::snapshot`]): dissemination trees, per-router
//! reverse-path interests and local subscriptions, stream
//! advertisements, and query groups with their representatives and
//! re-tightened member profiles. Over that snapshot this crate proves —
//! symbolically, via the `cosmos_cbn::sat` difference-constraint kernel
//! extended with implication/intersection over disjunctive filters —
//! five invariant families, reported as [`cosmos_lint::Diagnostic`]s
//! with stable `V0xxx` codes:
//!
//! | family | codes | claim |
//! |--------|-------|-------|
//! | V1 no black holes | `V0101` | every subscriber's profile is implied by the interest installed at every hop of its tree path from each advertising source |
//! | V2 no over-delivery / lost attributes | `V0201`, `V0202` | forwarding edges follow the dissemination tree toward the origin (so no node receives a stream from two upstreams and no subscriber is registered twice), and early projection never drops an attribute a downstream filter or member query references |
//! | V3 tree well-formedness | `V0301` | every dissemination tree is acyclic, connected, spans the overlay, and per-source trees are rooted at their advertiser |
//! | V4 merge soundness | `V0401` | every member is contained in its representative (Theorem 1/2, `cosmos_query::contained`); `merge` builds that containment without calling `contained`, so the check is independent of the construction |
//! | V5 split-filter exactness | `V0501`, `V0502` | `member ≡ representative ∘ re-tightened filter`, checked as mutual semantic implication (Lemma 1 window re-tightening included); a query the CBN serves alone has its user's profile equal the query: its filter equivalent to the selection, its projection exactly the output attributes |
//! | V6 abstraction consistency | `V0601`–`V0604` | the interval abstractions (`cosmos_bound::absint`) of the filters along every delivery path meet non-emptily — no statically-dead delivery — and no deployed representative has provably unbounded executor state |
//! | V7 closure pruning | `V0701` | a stream closed by its final watermark has no routing state left at any router |
//! | V8 overload accounting | `V0801` | every overload ledger satisfies `offered = delivered + shed` (tuples *and* bytes), and every query with ledger traffic still has its user subscription installed — shedding never silently black-holes a retained query |
//!
//! `V0001` marks a snapshot too inconsistent to analyze (unparseable
//! query text, dangling subscriber, missing advertisement for a result
//! stream). Every check is *sound*: an `Error`-level finding means the
//! deployed routing state provably violates the paper's delivery
//! contract — before any tuple is published.

use cosmos::snapshot::{
    DirectSnapshot, GroupSnapshot, LocalSubscriber, NetworkSnapshot, SubscriberKind, TreeTopology,
};
use cosmos_bound::absint;
use cosmos_cbn::{filters_imply, Conjunction, DiffRange, Profile, ProfileEntry, Projection};
use cosmos_lint::{Diagnostic, Severity};
use cosmos_query::merge::TIMESTAMP_ATTR;
use cosmos_spe::analyze::{AnalyzedQuery, OutputColumn, QAttr};
use cosmos_types::{NodeId, Schema, StreamName};
use std::collections::{BTreeMap, BTreeSet};

pub use cosmos_lint::{Diagnostic as VerifyDiagnostic, Severity as VerifySeverity};

/// Stable diagnostic codes for the V1–V5 invariant families.
pub mod codes {
    /// The snapshot itself is inconsistent (unparseable query text,
    /// dangling subscriber id, missing result-stream advertisement).
    pub const SNAPSHOT: &str = "V0001";
    /// V1: a subscriber's interest is not covered along its tree path —
    /// tuples it asked for would never reach it.
    pub const BLACK_HOLE: &str = "V0101";
    /// V2: a forwarding edge departs from the dissemination tree (risk
    /// of duplicate or misrouted delivery), or a subscriber id is
    /// registered at two routers.
    pub const MISROUTED_EDGE: &str = "V0201";
    /// V2: early projection drops an attribute a downstream filter,
    /// subscriber, or member query references.
    pub const PROJECTION_DROPS: &str = "V0202";
    /// V3: a dissemination tree is cyclic, disconnected, non-spanning,
    /// or not rooted at its advertiser.
    pub const TREE_MALFORMED: &str = "V0301";
    /// V4: a group member is not contained in its representative
    /// (Theorem 1/2, decided by `cosmos_query::contained`).
    pub const CONTAINMENT: &str = "V0401";
    /// V5: the installed split filter is not equivalent to the member's
    /// re-tightening of the representative (over- or under-delivery).
    pub const SPLIT_FILTER: &str = "V0501";
    /// V5: the profile installed for a query the CBN serves alone is not
    /// the query: its filter is not equivalent to the query's selection,
    /// or its projection keeps other than the output attributes.
    pub const DIRECT_PROFILE: &str = "V0502";
    /// V6: the interval abstractions along a subscriber's delivery path
    /// are disjoint — no concrete tuple can ever reach it (a
    /// statically-dead delivery the hop filters silently absorb).
    pub const DEAD_DELIVERY: &str = "V0601";
    /// V6: a subscriber's own filter abstraction is empty — every
    /// disjunct is unsatisfiable, so the subscription matches nothing.
    pub const EMPTY_SUBSCRIPTION: &str = "V0602";
    /// V6: a group member's installed split-filter abstraction is empty
    /// — the member can never receive a result tuple.
    pub const EMPTY_SPLIT: &str = "V0603";
    /// V6: a deployed representative has provably unbounded executor
    /// state (`cosmos_bound::check_query` error) — it should have been
    /// rejected at admission.
    pub const UNBOUNDED_REP_STATE: &str = "V0604";
    /// V7: a router still holds routing state (an interest entry or a
    /// local-profile entry) for a stream its final watermark closed —
    /// the watermark-driven pruning leaked.
    pub const CLOSED_LEAK: &str = "V0701";
    /// V8: an overload ledger breaks the conservation identity
    /// (`offered = delivered + shed`, tuples and bytes), or a
    /// query with ledger traffic has lost its user subscription — load
    /// shedding black-holed a retained query.
    pub const SHED_UNACCOUNTED: &str = "V0801";
}

/// Whether a verification result contains any `Error`-level violation.
pub fn has_violations(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Statically verify all five invariant families over a snapshot.
/// Returns every finding; [`has_violations`] separates hard violations
/// from advisory notes.
pub fn verify_snapshot(snap: &NetworkSnapshot) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let routers_ok = check_router_table(snap, &mut diags);
    let forest = check_trees(snap, &mut diags);
    check_subscriber_uniqueness(snap, &mut diags);
    if let (Some(forest), true) = (&forest, routers_ok) {
        check_forwarding_edges(snap, forest, &mut diags);
        check_delivery_paths(snap, forest, &mut diags);
        check_path_abstractions(snap, forest, &mut diags);
    }
    check_closed_streams(snap, &mut diags);
    check_overload_ledgers(snap, &mut diags);
    check_groups(snap, &mut diags);
    check_direct_queries(snap, &mut diags);
    diags
}

// ---------------------------------------------------------------------
// V8: overload accounting
// ---------------------------------------------------------------------

/// Every overload ledger must balance — `offered = delivered + shed`,
/// tuples and bytes — and a query the controller is still
/// accounting for must still have its user subscription installed
/// somewhere. A missing subscription with a live ledger means load
/// shedding black-holed a retained query: tuples are being dropped for
/// a consumer that can no longer receive the survivors.
fn check_overload_ledgers(snap: &NetworkSnapshot, diags: &mut Vec<Diagnostic>) {
    for l in &snap.overload {
        let tuples_ok = l.offered_tuples == l.delivered_tuples + l.shed_tuples;
        let bytes_ok = l.offered_bytes == l.delivered_bytes + l.shed_bytes;
        if !tuples_ok || !bytes_ok {
            diags.push(Diagnostic::error(
                codes::SHED_UNACCOUNTED,
                format!(
                    "overload ledger for {} violates conservation: offered \
                     {}t/{}b != delivered {}t/{}b + shed {}t/{}b",
                    l.query,
                    l.offered_tuples,
                    l.offered_bytes,
                    l.delivered_tuples,
                    l.delivered_bytes,
                    l.shed_tuples,
                    l.shed_bytes,
                ),
                None,
            ));
        }
        if l.offered_tuples == 0 {
            continue;
        }
        // Only queries still deployed are checkable: a withdrawn query
        // legitimately keeps its ledger (history is never erased) with
        // no subscription left. A live query — a group member or one
        // the CBN serves alone — without its user sub is the black hole.
        let members =
            (snap.groups.iter().flat_map(|g| &g.members)).map(|m| (m.query, m.user, m.user_sub));
        let direct = (snap.direct.iter()).map(|d| (d.query, d.user, d.user_sub));
        let Some((query, user, user_sub)) = members.chain(direct).find(|m| m.0 == l.query) else {
            continue;
        };
        let subscribed = snap.routers.iter().any(|r| {
            r.node == user
                && (r.local_subscribers.iter())
                    .any(|s| s.id == user_sub && s.kind == (SubscriberKind::User { query }))
        });
        if !subscribed {
            diags.push(Diagnostic::error(
                codes::SHED_UNACCOUNTED,
                format!(
                    "{} has overload-ledger traffic ({} tuples offered) but no \
                     installed user subscription — load shedding black-holed a \
                     retained query",
                    l.query, l.offered_tuples
                ),
                None,
            ));
        }
    }
}

// ---------------------------------------------------------------------
// V7: stream-closure pruning completeness
// ---------------------------------------------------------------------

/// A closed stream (final watermark disseminated) must have no routing
/// state left anywhere: the driver prunes every interest entry when the
/// `+∞` punctuation passes, so a survivor proves the pruning leaked.
/// The delivery-path families (V1/V2/V6) deliberately skip closed
/// streams — there is nothing left to walk, and a leak is *this*
/// finding, not a black hole.
fn check_closed_streams(snap: &NetworkSnapshot, diags: &mut Vec<Diagnostic>) {
    for stream in &snap.closed_streams {
        if snap.advertisement(stream).is_none() {
            diags.push(Diagnostic::warning(
                codes::CLOSED_LEAK,
                format!("closed stream '{stream}' is not advertised (stale closure record)"),
                None,
            ));
        }
        for r in &snap.routers {
            for (down, profile) in &r.neighbor_interests {
                if profile.entry(stream).is_some() {
                    diags.push(Diagnostic::error(
                        codes::CLOSED_LEAK,
                        format!(
                            "{} still holds an interest from {down} for closed stream \
                             '{stream}' — watermark-driven pruning leaked",
                            r.node
                        ),
                        None,
                    ));
                }
            }
            for sub in &r.local_subscribers {
                if sub.profile.entry(stream).is_some() {
                    diags.push(Diagnostic::error(
                        codes::CLOSED_LEAK,
                        format!(
                            "subscriber {} at {} still subscribes to closed stream \
                             '{stream}' — watermark-driven pruning leaked",
                            sub.id, r.node
                        ),
                        None,
                    ));
                }
            }
        }
    }
}

/// The router table must cover every overlay node, in node order — the
/// path walks index into it directly. A live snapshot satisfies this by
/// construction; a hand-edited JSON dump may not.
fn check_router_table(snap: &NetworkSnapshot, diags: &mut Vec<Diagnostic>) -> bool {
    if snap.routers.len() != snap.nodes
        || snap
            .routers
            .iter()
            .enumerate()
            .any(|(i, r)| r.node.index() != i)
    {
        diags.push(Diagnostic::error(
            codes::SNAPSHOT,
            format!(
                "router table does not cover the {} overlay nodes in order — \
                 path checks skipped",
                snap.nodes
            ),
            None,
        ));
        return false;
    }
    true
}

// ---------------------------------------------------------------------
// V3: tree well-formedness
// ---------------------------------------------------------------------

/// A validated tree: the parent table, supporting the LCA path walks
/// V1/V2 need.
struct TreeView {
    parent: Vec<Option<NodeId>>,
}

impl TreeView {
    /// The unique tree path from `u` to `v`, inclusive. Assumes both
    /// nodes are in range (validated before construction).
    fn path(&self, u: NodeId, v: NodeId) -> Vec<NodeId> {
        let ancestors = |mut x: NodeId| -> Vec<NodeId> {
            let mut out = vec![x];
            while let Some(p) = self.parent[x.index()] {
                out.push(p);
                x = p;
            }
            out
        };
        let (au, av) = (ancestors(u), ancestors(v));
        let pos: BTreeMap<NodeId, usize> = au.iter().enumerate().map(|(i, n)| (*n, i)).collect();
        let (lca_v, lca_u) = av
            .iter()
            .enumerate()
            .find_map(|(j, n)| pos.get(n).map(|&i| (j, i)))
            .expect("a validated tree has a common root");
        let mut path: Vec<NodeId> = au[..=lca_u].to_vec();
        path.extend(av[..lca_v].iter().rev());
        path
    }
}

/// Every dissemination tree of the snapshot, validated.
struct Forest {
    shared: TreeView,
    source: BTreeMap<NodeId, TreeView>,
}

impl Forest {
    fn view_for(&self, origin: NodeId) -> &TreeView {
        self.source.get(&origin).unwrap_or(&self.shared)
    }
}

fn validate_tree(
    label: &str,
    t: &TreeTopology,
    nodes: usize,
    diags: &mut Vec<Diagnostic>,
) -> Option<TreeView> {
    let mut bad = |msg: String| diags.push(Diagnostic::error(codes::TREE_MALFORMED, msg, None));
    if t.node_count != nodes {
        bad(format!(
            "{label}: tree spans {} nodes but the overlay has {nodes}",
            t.node_count
        ));
        return None;
    }
    if t.root.index() >= nodes {
        bad(format!("{label}: root {} is not an overlay node", t.root));
        return None;
    }
    if t.edges.len() != nodes.saturating_sub(1) {
        bad(format!(
            "{label}: {} edges cannot span {nodes} nodes acyclically (expected {})",
            t.edges.len(),
            nodes - 1
        ));
        return None;
    }
    let mut parent: Vec<Option<NodeId>> = vec![None; nodes];
    for &(p, c) in &t.edges {
        if p.index() >= nodes || c.index() >= nodes {
            bad(format!("{label}: edge {p} → {c} leaves the overlay"));
            return None;
        }
        if c == t.root {
            bad(format!("{label}: root {c} has parent {p}"));
            return None;
        }
        if let Some(prev) = parent[c.index()] {
            bad(format!(
                "{label}: node {c} has two parents ({prev} and {p})"
            ));
            return None;
        }
        parent[c.index()] = Some(p);
    }
    // Every node must reach the root in < n steps (connectivity; a
    // cycle of orphaned nodes would loop forever otherwise).
    for i in 0..nodes {
        let mut x = NodeId(i as u32);
        let mut steps = 0usize;
        while let Some(p) = parent[x.index()] {
            x = p;
            steps += 1;
            if steps > nodes {
                bad(format!("{label}: node n{i} sits on a cycle"));
                return None;
            }
        }
        if x != t.root {
            bad(format!(
                "{label}: node n{i} is disconnected from root {} (reaches {x})",
                t.root
            ));
            return None;
        }
    }
    Some(TreeView { parent })
}

fn check_trees(snap: &NetworkSnapshot, diags: &mut Vec<Diagnostic>) -> Option<Forest> {
    let shared = validate_tree("shared tree", &snap.shared_tree, snap.nodes, diags);
    let mut source = BTreeMap::new();
    let mut all_ok = shared.is_some();
    for t in &snap.source_trees {
        match validate_tree(
            &format!("source tree rooted at {}", t.root),
            t,
            snap.nodes,
            diags,
        ) {
            Some(view) => {
                // V3: a per-source tree must be rooted at its advertiser.
                // A tree whose advertisement has since been withdrawn is
                // stale but harmless (lazily built, never pruned).
                if !snap.advertisements.iter().any(|a| a.origin == t.root) {
                    diags.push(Diagnostic {
                        code: codes::TREE_MALFORMED,
                        severity: Severity::Note,
                        message: format!(
                            "source tree rooted at {} has no advertised stream (stale)",
                            t.root
                        ),
                        span: None,
                    });
                }
                source.insert(t.root, view);
            }
            None => all_ok = false,
        }
    }
    for a in &snap.advertisements {
        if a.origin.index() >= snap.nodes {
            diags.push(Diagnostic::error(
                codes::TREE_MALFORMED,
                format!(
                    "stream '{}' is advertised at {}, which is not an overlay node",
                    a.stream, a.origin
                ),
                None,
            ));
            all_ok = false;
        }
    }
    all_ok.then(|| Forest {
        shared: shared.expect("checked"),
        source,
    })
}

// ---------------------------------------------------------------------
// V2a: subscriber uniqueness
// ---------------------------------------------------------------------

fn check_subscriber_uniqueness(snap: &NetworkSnapshot, diags: &mut Vec<Diagnostic>) {
    let mut seen: BTreeMap<u64, NodeId> = BTreeMap::new();
    for r in &snap.routers {
        for s in &r.local_subscribers {
            if let Some(prev) = seen.insert(s.id.raw(), r.node) {
                diags.push(Diagnostic::error(
                    codes::MISROUTED_EDGE,
                    format!(
                        "subscriber {} is registered at both {prev} and {} — \
                         every covered tuple would be delivered twice",
                        s.id, r.node
                    ),
                    None,
                ));
            }
            if matches!(s.kind, SubscriberKind::User { query } if query.raw() == u64::MAX) {
                diags.push(Diagnostic::error(
                    codes::SNAPSHOT,
                    format!(
                        "subscriber {} at {} belongs to no SPE input and no user query",
                        s.id, r.node
                    ),
                    None,
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// V2b: forwarding edges follow the dissemination tree
// ---------------------------------------------------------------------

fn check_forwarding_edges(snap: &NetworkSnapshot, forest: &Forest, diags: &mut Vec<Diagnostic>) {
    for r in &snap.routers {
        for (down, profile) in &r.neighbor_interests {
            for (stream, _) in profile.iter() {
                if snap.closed_streams.contains(stream) {
                    continue; // V7 reports the leak
                }
                let Some(adv) = snap.advertisement(stream) else {
                    diags.push(Diagnostic::warning(
                        codes::MISROUTED_EDGE,
                        format!(
                            "{} holds an interest from {down} for '{stream}', which is \
                             not advertised (stale routing state)",
                            r.node
                        ),
                        None,
                    ));
                    continue;
                };
                // Reverse-path invariant: the edge `r.node → down` must
                // be the unique tree edge on `down`'s path toward the
                // origin. Any other edge would let a node receive the
                // stream from two upstreams — duplicate delivery.
                let tree = forest.view_for(adv.origin);
                let path = tree.path(*down, adv.origin);
                if path.len() < 2 || path[1] != r.node {
                    diags.push(Diagnostic::error(
                        codes::MISROUTED_EDGE,
                        format!(
                            "{} would forward '{stream}' to {down}, but the dissemination \
                             tree routes that stream to {down} via {} — a second \
                             forwarding edge into the same subtree duplicates delivery",
                            r.node,
                            path.get(1)
                                .map(|n| n.to_string())
                                .unwrap_or_else(|| "nobody (it is the origin)".into()),
                        ),
                        None,
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// V1 + V2c: black holes and attribute availability along tree paths
// ---------------------------------------------------------------------

/// Intersection of two projections.
fn meet(a: &Projection, b: &Projection) -> Projection {
    match (a, b) {
        (Projection::All, x) | (x, Projection::All) => x.clone(),
        (Projection::Attrs(x), Projection::Attrs(y)) => {
            Projection::Attrs(x.intersection(y).cloned().collect())
        }
    }
}

/// Everything a subscriber entry needs to arrive: its projection plus
/// every attribute its own filters reference (the local match runs on
/// the delivered tuple).
fn needed_projection(entry: &ProfileEntry) -> Projection {
    let mut p = entry.projection.clone();
    if matches!(p, Projection::Attrs(_)) {
        p.extend(
            entry
                .filters
                .iter()
                .flat_map(|f| f.referenced_attrs())
                .collect::<Vec<_>>(),
        );
    }
    p
}

fn check_delivery_paths(snap: &NetworkSnapshot, forest: &Forest, diags: &mut Vec<Diagnostic>) {
    for r in &snap.routers {
        for sub in &r.local_subscribers {
            for (stream, entry) in sub.profile.iter() {
                if snap.closed_streams.contains(stream) {
                    continue; // V7 reports the leak
                }
                check_one_path(snap, forest, r.node, sub, stream, entry, diags);
            }
        }
    }
}

fn check_one_path(
    snap: &NetworkSnapshot,
    forest: &Forest,
    node: NodeId,
    sub: &LocalSubscriber,
    stream: &StreamName,
    entry: &ProfileEntry,
    diags: &mut Vec<Diagnostic>,
) {
    let who = format!("subscriber {} at {node}", sub.id);
    let Some(adv) = snap.advertisement(stream) else {
        diags.push(Diagnostic::error(
            codes::BLACK_HOLE,
            format!("{who} awaits '{stream}', which nobody advertises — a black hole"),
            None,
        ));
        return;
    };
    let tree = forest.view_for(adv.origin);
    let path = tree.path(node, adv.origin);
    // Walk the path in tuple-flow order (origin → subscriber), tracking
    // which attributes survive each hop's early projection.
    let mut avail = Projection::All;
    for w in path.windows(2).rev() {
        let (down, up) = (w[0], w[1]);
        let interest = snap.routers[up.index()]
            .neighbor_interests
            .iter()
            .find(|(n, _)| *n == down)
            .and_then(|(_, p)| p.entry(stream));
        let Some(interest) = interest else {
            diags.push(Diagnostic::error(
                codes::BLACK_HOLE,
                format!(
                    "{who} subscribed to '{stream}' (origin {}), but {up} holds no \
                     interest for it on behalf of {down} — tuples stop at {up}",
                    adv.origin
                ),
                None,
            ));
            return;
        };
        // V1: everything the subscriber's filters accept must pass this
        // hop's filter.
        if !filters_imply(&entry.filters, &interest.filters) {
            diags.push(Diagnostic::error(
                codes::BLACK_HOLE,
                format!(
                    "{who}: the interest installed at {up} (toward {down}) for '{stream}' \
                     does not cover the subscriber's filter — matching tuples are \
                     dropped mid-path",
                ),
                None,
            ));
            return;
        }
        // V2: this hop's filter must only reference attributes that
        // survived the upstream projections.
        for f in &interest.filters {
            for attr in f.referenced_attrs() {
                if !avail.contains(&attr) {
                    diags.push(Diagnostic::error(
                        codes::PROJECTION_DROPS,
                        format!(
                            "{who}: the filter at {up} (toward {down}) for '{stream}' \
                             references '{attr}', which an upstream projection dropped",
                        ),
                        None,
                    ));
                    return;
                }
            }
        }
        avail = meet(&avail, &interest.projection);
    }
    // V2: the surviving attribute set must cover everything the
    // subscriber projects or filters on.
    let need = needed_projection(entry);
    if !avail.covers(&need) {
        diags.push(Diagnostic::error(
            codes::PROJECTION_DROPS,
            format!(
                "{who}: early projection along the path from {} drops attributes of \
                 '{stream}' the subscriber needs ({need:?} ⊄ {avail:?})",
                adv.origin
            ),
            None,
        ));
    }
}

// ---------------------------------------------------------------------
// V6: interval-abstraction consistency along delivery paths
// ---------------------------------------------------------------------

/// Abstract-interpretation pass over the same tree walks as V1/V2: the
/// per-attribute interval abstraction of each hop's filters
/// ([`cosmos_bound::absint`]) must meet non-emptily with every other
/// hop's and with the subscriber's own — an empty meet proves that no
/// concrete tuple can ever complete the path. Complementary to V1's
/// implication check: implication asks "does the hop *cover* the
/// subscriber", this asks "can anything at all get through".
fn check_path_abstractions(snap: &NetworkSnapshot, forest: &Forest, diags: &mut Vec<Diagnostic>) {
    for r in &snap.routers {
        for sub in &r.local_subscribers {
            for (stream, entry) in sub.profile.iter() {
                if snap.closed_streams.contains(stream) {
                    continue; // V7 reports the leak
                }
                let who = format!("subscriber {} at {}", sub.id, r.node);
                let sub_abs = match absint::filters_abstraction(&entry.filters) {
                    Some(a) => a,
                    None => {
                        diags.push(Diagnostic::warning(
                            codes::EMPTY_SUBSCRIPTION,
                            format!(
                                "{who}: every filter disjunct for '{stream}' is \
                                 unsatisfiable — the subscription matches nothing",
                            ),
                            None,
                        ));
                        continue;
                    }
                };
                let Some(adv) = snap.advertisement(stream) else {
                    continue; // V1 reports the black hole
                };
                let path = forest.view_for(adv.origin).path(r.node, adv.origin);
                // Meet the hop abstractions in tuple-flow order; start
                // from the subscriber's own (non-empty) abstraction.
                let mut flow = sub_abs;
                for w in path.windows(2).rev() {
                    let (down, up) = (w[0], w[1]);
                    let Some(interest) = snap.routers[up.index()]
                        .neighbor_interests
                        .iter()
                        .find(|(n, _)| *n == down)
                        .and_then(|(_, p)| p.entry(stream))
                    else {
                        break; // V1 reports the missing interest
                    };
                    let Some(hop_abs) = absint::filters_abstraction(&interest.filters) else {
                        diags.push(Diagnostic::error(
                            codes::DEAD_DELIVERY,
                            format!(
                                "{who}: the interest installed at {up} (toward {down}) for \
                                 '{stream}' is unsatisfiable — every tuple dies at that hop",
                            ),
                            None,
                        ));
                        break;
                    };
                    match absint::intersect(&flow, &hop_abs) {
                        Some(met) => flow = met,
                        None => {
                            diags.push(Diagnostic::error(
                                codes::DEAD_DELIVERY,
                                format!(
                                    "{who}: the interval abstraction of the filter at {up} \
                                     (toward {down}) for '{stream}' is disjoint from what \
                                     the rest of the path admits — no tuple can ever \
                                     complete the delivery",
                                ),
                                None,
                            ));
                            break;
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// V4 + V5: merge soundness and split-filter exactness
// ---------------------------------------------------------------------

/// The name a representative's result schema gives to `attr` of its
/// `k`-th stream, if the representative outputs it.
fn rep_out_name(rep: &AnalyzedQuery, k: usize, attr: &str) -> Option<String> {
    let qa = QAttr::new(&rep.streams[k].binding, attr);
    let name = if rep.qualified_names() {
        qa.qualified()
    } else {
        qa.name
    };
    rep.output_schema.contains(&name).then_some(name)
}

/// The name of a member output column inside the representative's
/// result schema.
fn member_col_in_rep(
    member: &AnalyzedQuery,
    rep: &AnalyzedQuery,
    map: &[usize],
    col: &OutputColumn,
) -> Option<String> {
    let renamed = |qa: &QAttr| -> Option<String> {
        let i = member.stream_index(&qa.binding)?;
        let r = QAttr::new(&rep.streams[map[i]].binding, &qa.name);
        Some(if rep.qualified_names() {
            r.qualified()
        } else {
            r.name
        })
    };
    match col {
        OutputColumn::Attr(qa) => {
            let name = renamed(qa)?;
            rep.output_schema.contains(&name).then_some(name)
        }
        OutputColumn::Agg { func, arg } => {
            let inner = match arg {
                Some(qa) => renamed(qa)?,
                None => "*".to_string(),
            };
            let name = format!("{func}({inner})");
            rep.output_schema.contains(&name).then_some(name)
        }
    }
}

/// The constraints a representative's result stream satisfies *by
/// construction*, expressed over its result-schema names: its own
/// selections plus the window bounds its executor enforces (for a join,
/// every surviving pair satisfies `−Tₖ ≤ tsₖ − tsₗ ≤ Tₗ`). Both sides
/// of the V5 equivalence are interpreted under this context.
fn rep_context(rep: &AnalyzedQuery) -> Conjunction {
    let mut ctx = Conjunction::always();
    for (k, sel) in rep.selections.iter().enumerate() {
        for (attr, c) in sel.attr_constraints() {
            if let Some(name) = rep_out_name(rep, k, attr) {
                ctx.constrain(name, c.clone());
            }
        }
        for (x, y, r) in sel.diff_constraints() {
            if let (Some(nx), Some(ny)) = (rep_out_name(rep, k, x), rep_out_name(rep, k, y)) {
                ctx.diff(nx, ny, *r);
            }
        }
    }
    if !rep.is_aggregate() && rep.streams.len() > 1 {
        for k in 0..rep.streams.len() {
            for l in (k + 1)..rep.streams.len() {
                let (tk, tl) = (rep.streams[k].window, rep.streams[l].window);
                if tk.is_infinite() && tl.is_infinite() {
                    continue;
                }
                let (Some(nk), Some(nl)) = (
                    rep_out_name(rep, k, TIMESTAMP_ATTR),
                    rep_out_name(rep, l, TIMESTAMP_ATTR),
                ) else {
                    continue;
                };
                let lo = if tk.is_infinite() {
                    f64::NEG_INFINITY
                } else {
                    -(tk.millis() as f64)
                };
                let hi = if tl.is_infinite() {
                    f64::INFINITY
                } else {
                    tl.millis() as f64
                };
                ctx.diff(nk, nl, DiffRange::new(lo, hi));
            }
        }
    }
    ctx
}

/// Build the member's *expected* split predicate over the
/// representative's result schema: the member's own selections and
/// difference constraints, renamed, plus the Lemma 1 window
/// re-tightening `−Tᵢ ≤ tsᵢ − tsⱼ ≤ Tⱼ` — all conjoined onto the
/// representative context. Pushes a V0501 for any member constraint the
/// result schema cannot express and the representative does not already
/// enforce.
fn expected_split(
    member: &AnalyzedQuery,
    rep: &AnalyzedQuery,
    map: &[usize],
    ctx: &Conjunction,
    who: &str,
    diags: &mut Vec<Diagnostic>,
) -> Conjunction {
    let mut expected = ctx.clone();
    for (i, sel) in member.selections.iter().enumerate() {
        let k = map[i];
        let rep_sel = &rep.selections[k];
        for (attr, c) in sel.attr_constraints() {
            match rep_out_name(rep, k, attr) {
                Some(name) => {
                    expected.constrain(name, c.clone());
                }
                None => {
                    if !rep_sel.constraint_for(attr).implies(c) {
                        diags.push(Diagnostic::error(
                            codes::SPLIT_FILTER,
                            format!(
                                "{who}: selection on '{attr}' cannot be re-tightened — the \
                                 representative neither outputs the attribute nor enforces \
                                 the constraint",
                            ),
                            None,
                        ));
                    }
                }
            }
        }
        for (x, y, r) in sel.diff_constraints() {
            match (rep_out_name(rep, k, x), rep_out_name(rep, k, y)) {
                (Some(nx), Some(ny)) => {
                    expected.diff(nx, ny, *r);
                }
                _ => {
                    let enforced = rep_sel.diff_constraints().any(|(a, b, rr)| {
                        (a == x && b == y && rr.implies(r))
                            || (a == y && b == x && rr.implies(&r.flipped()))
                    });
                    if !enforced {
                        diags.push(Diagnostic::error(
                            codes::SPLIT_FILTER,
                            format!(
                                "{who}: difference constraint on '{x} − {y}' cannot be \
                                 re-tightened from the representative's result stream",
                            ),
                            None,
                        ));
                    }
                }
            }
        }
    }
    // Lemma 1: window re-tightening for joins.
    if !member.is_aggregate() && member.streams.len() > 1 {
        for i in 0..member.streams.len() {
            for j in (i + 1)..member.streams.len() {
                let (ti, tj) = (member.streams[i].window, member.streams[j].window);
                if ti.is_infinite() && tj.is_infinite() {
                    continue;
                }
                let names = (
                    rep_out_name(rep, map[i], TIMESTAMP_ATTR),
                    rep_out_name(rep, map[j], TIMESTAMP_ATTR),
                );
                let (Some(ni), Some(nj)) = names else {
                    let loosened = member.streams[i].window < rep.streams[map[i]].window
                        || member.streams[j].window < rep.streams[map[j]].window;
                    if loosened {
                        diags.push(Diagnostic::error(
                            codes::SPLIT_FILTER,
                            format!(
                                "{who}: the representative loosened a window but its result \
                                 stream lacks the timestamp columns Lemma 1 re-tightening \
                                 needs",
                            ),
                            None,
                        ));
                    }
                    continue;
                };
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
                expected.diff(ni, nj, DiffRange::new(lo, hi));
            }
        }
    }
    expected
}

/// Locate the profile actually installed for a subscriber id.
fn installed_profile(
    snap: &NetworkSnapshot,
    node: NodeId,
    sub: cosmos_types::SubscriberId,
) -> Option<&Profile> {
    snap.routers
        .get(node.index())?
        .local_subscribers
        .iter()
        .find(|s| s.id == sub)
        .map(|s| &s.profile)
}

/// A re-analyzer of query text against the snapshot's own advertised
/// schemas.
fn analyzer(snap: &NetworkSnapshot) -> impl Fn(&str) -> Result<AnalyzedQuery, String> {
    let schemas: BTreeMap<String, Schema> = snap
        .advertisements
        .iter()
        .map(|a| (a.stream.as_str().to_string(), a.schema.clone()))
        .collect();
    move |text| {
        let parsed = cosmos_cql::parse_query(text).map_err(|e| e.to_string())?;
        let schema_of = |name: &str| schemas.get(name).cloned();
        AnalyzedQuery::analyze(&parsed, schema_of).map_err(|e| e.to_string())
    }
}

fn check_groups(snap: &NetworkSnapshot, diags: &mut Vec<Diagnostic>) {
    let analyze = analyzer(snap);

    for g in &snap.groups {
        let rep = match analyze(&g.representative_cql) {
            Ok(rep) => rep,
            Err(e) => {
                diags.push(Diagnostic::error(
                    codes::SNAPSHOT,
                    format!(
                        "group '{}': representative query does not re-analyze: {e}",
                        g.result_stream
                    ),
                    None,
                ));
                continue;
            }
        };
        match snap.advertisement(&g.result_stream) {
            None => diags.push(Diagnostic::error(
                codes::SNAPSHOT,
                format!(
                    "group '{}' produces a result stream that is not advertised",
                    g.result_stream
                ),
                None,
            )),
            Some(adv) => {
                if adv.origin != g.processor {
                    diags.push(Diagnostic::error(
                        codes::TREE_MALFORMED,
                        format!(
                            "result stream '{}' is advertised at {} but produced at {}",
                            g.result_stream, adv.origin, g.processor
                        ),
                        None,
                    ));
                }
                if adv.schema != rep.output_schema {
                    diags.push(Diagnostic::error(
                        codes::SNAPSHOT,
                        format!(
                            "result stream '{}' is advertised with a schema different \
                             from its representative's output schema",
                            g.result_stream
                        ),
                        None,
                    ));
                }
            }
        }
        // V6: a deployed representative must not have provably unbounded
        // executor state — the admission gate rejects such queries, so a
        // snapshot containing one was tampered with or predates the gate.
        for d in cosmos_bound::check_query(&rep) {
            if d.severity == Severity::Error {
                diags.push(Diagnostic::error(
                    codes::UNBOUNDED_REP_STATE,
                    format!(
                        "group '{}': deployed representative has unbounded state \
                         ({}: {})",
                        g.result_stream, d.code, d.message
                    ),
                    None,
                ));
            }
        }
        let ctx = rep_context(&rep);
        for m in &g.members {
            let who = format!("group '{}', member {}", g.result_stream, m.query);
            let member = match analyze(&m.cql) {
                Ok(q) => q,
                Err(e) => {
                    diags.push(Diagnostic::error(
                        codes::SNAPSHOT,
                        format!("{who}: member query does not re-analyze: {e}"),
                        None,
                    ));
                    continue;
                }
            };
            check_member(
                snap,
                g,
                &rep,
                &ctx,
                &(m.user, m.user_sub),
                &member,
                &who,
                diags,
            );
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn check_member(
    snap: &NetworkSnapshot,
    g: &GroupSnapshot,
    rep: &AnalyzedQuery,
    ctx: &Conjunction,
    user: &(NodeId, cosmos_types::SubscriberId),
    member: &AnalyzedQuery,
    who: &str,
    diags: &mut Vec<Diagnostic>,
) {
    // V4: Theorem 1/2 containment of the member in its representative.
    // `merge` builds the representative to contain its members and never
    // calls `contained`, so this checks the construction independently.
    if !cosmos_query::contained(member, rep) {
        diags.push(Diagnostic::error(
            codes::CONTAINMENT,
            format!(
                "{who}: the representative does not contain the member — the merge is \
                 unsound and the member can never receive its full result",
            ),
            None,
        ));
    }

    // V5 needs a correspondence even when containment failed.
    let Some(map) = cosmos_query::correspondence(member, rep) else {
        return;
    };

    let expected = expected_split(member, rep, &map, ctx, who, diags);

    let (unode, usub) = *user;
    let Some(profile) = installed_profile(snap, unode, usub) else {
        diags.push(Diagnostic::error(
            codes::SPLIT_FILTER,
            format!(
                "{who}: no result subscription is installed at {unode} — the member \
                     receives nothing"
            ),
            None,
        ));
        return;
    };
    let Some(entry) = profile.entry(&g.result_stream) else {
        diags.push(Diagnostic::error(
            codes::SPLIT_FILTER,
            format!(
                "{who}: the installed subscription at {unode} has no entry for result \
                 stream '{}'",
                g.result_stream
            ),
            None,
        ));
        return;
    };

    // V6: an empty split-filter abstraction means the member can never
    // receive a result tuple (every installed disjunct is unsat).
    if absint::filters_abstraction(&entry.filters).is_none() {
        diags.push(Diagnostic::warning(
            codes::EMPTY_SPLIT,
            format!(
                "{who}: the installed split filter's interval abstraction is empty — \
                 the member's subscription can never match a result tuple",
            ),
            None,
        ));
    }

    // V2: the installed projection must keep every member output column.
    for col in &member.output {
        match member_col_in_rep(member, rep, &map, col) {
            Some(name) => {
                if !entry.projection.contains(&name) {
                    diags.push(Diagnostic::error(
                        codes::PROJECTION_DROPS,
                        format!(
                            "{who}: the installed split projection drops result column \
                             '{name}' the member query outputs",
                        ),
                        None,
                    ));
                }
            }
            None => diags.push(Diagnostic::error(
                codes::SPLIT_FILTER,
                format!(
                    "{who}: the representative's result schema lacks a column the member \
                     outputs ({})",
                    member.column_name(col)
                ),
                None,
            )),
        }
    }

    // V5: `member ≡ representative ∘ installed filter`, as mutual
    // implication under the representative context.
    let installed: Vec<Conjunction> = if entry.filters.is_empty() {
        vec![ctx.clone()]
    } else {
        entry.filters.iter().map(|f| f.and(ctx)).collect()
    };
    let expected_side = [expected];
    if !filters_imply(&installed, &expected_side) {
        diags.push(Diagnostic::error(
            codes::SPLIT_FILTER,
            format!(
                "{who}: the installed split filter admits result tuples outside the \
                 member query (the re-tightening of the representative's loosened \
                 constraints is missing or too weak) — over-delivery",
            ),
            None,
        ));
    }
    if !filters_imply(&expected_side, &installed) {
        diags.push(Diagnostic::error(
            codes::SPLIT_FILTER,
            format!(
                "{who}: the installed split filter drops result tuples the member query \
                 selects — under-delivery",
            ),
            None,
        ));
    }
}

/// V5 for the queries the CBN serves alone: each is a single-stream
/// select-project query, and the profile installed for its user is the
/// query itself — one entry, for its stream, whose filter is equivalent
/// to its selection (mutual implication) and whose projection keeps
/// exactly its output attributes. An entry that keeps a filter-only
/// attribute over-delivers a column; one that drops or widens the filter
/// under- or over-delivers rows. A closed stream's entry is pruned by
/// design (V7 reports a leak).
fn check_direct_queries(snap: &NetworkSnapshot, diags: &mut Vec<Diagnostic>) {
    let analyze = analyzer(snap);
    for d in &snap.direct {
        match analyze(&d.cql) {
            Ok(query) => check_direct(snap, d, &query, diags),
            Err(e) => diags.push(Diagnostic::error(
                codes::SNAPSHOT,
                format!("direct query {}: does not re-analyze: {e}", d.query),
                None,
            )),
        }
    }
}

fn check_direct(
    snap: &NetworkSnapshot,
    d: &DirectSnapshot,
    query: &AnalyzedQuery,
    diags: &mut Vec<Diagnostic>,
) {
    let who = format!(
        "direct query {} (subscriber {} at {})",
        d.query, d.user_sub, d.user
    );
    let mut fail = |what: String| {
        diags.push(Diagnostic::error(
            codes::DIRECT_PROFILE,
            format!("{who}: {what}"),
            None,
        ));
    };
    if query.streams.len() != 1 || query.is_aggregate() || query.distinct {
        fail("only a single-stream select-project query is a profile".into());
        return;
    }
    let (bound, selection) = (&query.streams[0], &query.selections[0]);
    if snap.closed_streams.contains(&bound.stream) {
        return;
    }
    let Some(profile) = installed_profile(snap, d.user, d.user_sub) else {
        fail("no subscription is installed — the query receives nothing".into());
        return;
    };
    if let Some(other) = profile.streams().find(|s| **s != bound.stream) {
        fail(format!(
            "the installed profile also subscribes to '{other}'"
        ));
    }
    let Some(entry) = profile.entry(&bound.stream) else {
        fail(format!(
            "the installed profile has no entry for '{}'",
            bound.stream
        ));
        return;
    };
    let installed: Vec<Conjunction> = if entry.filters.is_empty() {
        vec![Conjunction::always()]
    } else {
        entry.filters.clone()
    };
    let expected = [selection.clone()];
    if !filters_imply(&installed, &expected) {
        fail("the installed filter admits tuples the selection rejects — over-delivery".into());
    }
    if !filters_imply(&expected, &installed) {
        fail("the installed filter drops tuples the selection admits — under-delivery".into());
    }
    let kept: BTreeSet<&str> = (bound.schema.names())
        .filter(|a| entry.projection.contains(a))
        .collect();
    let outputs: BTreeSet<&str> = (query.output.iter())
        .filter_map(|c| match c {
            OutputColumn::Attr(a) => Some(a.name.as_str()),
            OutputColumn::Agg { .. } => None,
        })
        .collect();
    if kept != outputs {
        fail(format!(
            "the installed projection keeps {kept:?}, the query outputs {outputs:?}"
        ));
    }
}
