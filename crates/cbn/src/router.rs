//! Per-node CBN routing state.
//!
//! Each overlay node (broker or processor) runs a [`Router`]. The router
//! knows, for every overlay neighbor, the merged data interest of the
//! subtree reachable through that neighbor, plus the interests of locally
//! attached subscribers (users, processors' SPE inputs). Incoming
//! datagrams are matched against these interests and forwarded — after
//! *early projection* onto each destination's attribute set — to every
//! interested next hop except the link they arrived on (reverse-path
//! forwarding on the dissemination tree).
//!
//! Watermark punctuations take a narrower path: only toward the
//! destinations marked as leading to an operator, a local SPE input or
//! a neighbor with one behind it ([`Router::punctuate`],
//! [`Router::route_punctuation`]). A destination that leads only to
//! user subscriptions never sees one.
//!
//! Subscription propagation itself (walking the dissemination tree from a
//! subscriber towards a stream's origin, merging profiles at every hop)
//! is orchestrated by the `cosmos` system crate.
//!
//! A node holds each interest once: the match engine's profile table,
//! keyed by [`Destination`] — whose order, neighbors by node then locals
//! by subscriber, is the order every reader here promises.
//!
//! Routing takes `&self`: the compiled projection plans, the routing
//! scratch and the counters sit behind interior mutability, so a caller
//! holding only a shared reference to the deployment can still route
//! through its routers. An interest mutation drops the compiled plans of
//! exactly the streams whose entry for the mutated destination changed.
//!
//! One function body matches and forwards a batch,
//! [`Router::route_batch_into`]: it works in buffers the router keeps
//! (match keys, projection memo) and the caller lends (the forwards, a
//! pool of tuple buffers), so steady-state routing allocates only the
//! narrowing projections it actually builds. The one hop that skips it
//! is a *relay hop* ([`Router::relay`]): one destination, under the very
//! entry the upstream router matched and projected the batch under, so
//! routing would hand the batch on unchanged — and in debug builds
//! [`Router::relay_batch`] routes it anyway and checks that it does.

use crate::matcher::{CountingMatcher, MatchScratch};
use crate::profile::{Profile, ProfileEntry};
use cosmos_types::{NodeId, Schema, SchemaId, StreamName, SubscriberId, Tuple};
use std::cell::{Cell, RefCell};

/// Where a routed datagram goes next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Destination {
    /// Forward over the overlay link to a neighbor node.
    Neighbor(NodeId),
    /// Deliver to a locally attached subscriber.
    Local(SubscriberId),
}

/// All tuples of one routed batch bound for one destination: the
/// projected tuples in arrival order and their shared layout.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchForward {
    /// The next hop.
    pub dest: Destination,
    /// The projected tuples, in batch order.
    pub tuples: Vec<Tuple>,
    /// The layout shared by every tuple in `tuples`.
    pub schema: Schema,
}

/// A compiled projection for one (incoming schema, destination) pair:
/// the per-tuple work is reduced to a bounds-checked column gather (or
/// a refcount bump when the projection is the identity).
#[derive(Debug, Clone, PartialEq)]
struct ProjectionPlan {
    /// Gather indices into the incoming tuple; `None` = identity.
    indices: Option<Box<[usize]>>,
    /// The (interned) layout of the projected tuples.
    out_schema: Schema,
}

impl ProjectionPlan {
    /// Compile the projection of one profile entry against a schema.
    fn compile(entry: &ProfileEntry, schema: &Schema) -> ProjectionPlan {
        if !entry.projection.narrows(schema) {
            let out_schema = schema.clone();
            let _ = out_schema.id(); // pre-intern for cheap fan-out keys
            return ProjectionPlan {
                indices: None,
                out_schema,
            };
        }
        let idx = entry.projection.indices(schema);
        let names: Vec<&str> = idx
            .iter()
            .map(|&i| schema.fields()[i].name.as_str())
            .collect();
        let out_schema = schema
            .project(&names)
            .expect("projection indices come from the schema itself");
        let _ = out_schema.id();
        ProjectionPlan {
            indices: Some(idx.into_boxed_slice()),
            out_schema,
        }
    }

    /// Project `tuple` through the plan, sharing one projected tuple
    /// among every destination of this fan-out whose plan produces the
    /// same layout (`memo` lives for one incoming tuple).
    fn apply(
        &self,
        tuple: &Tuple,
        memo: &mut Vec<(SchemaId, Tuple)>,
        counters: &mut RouterCounters,
    ) -> Tuple {
        let Some(indices) = &self.indices else {
            return tuple.clone();
        };
        let out_id = self.out_schema.id();
        if let Some((_, shared)) = memo.iter().find(|(id, _)| *id == out_id) {
            return shared.clone();
        }
        let projected = tuple
            .project_indices(indices)
            .expect("plan indices are in bounds for the compiled schema");
        counters.projections_built += 1;
        memo.push((out_id, projected.clone()));
        projected
    }
}

/// The router's throughput and plan-cache counters as one block, so
/// they fold into deployment totals with a single
/// [`RouterCounters::merge`] and cannot drift field-by-field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterCounters {
    /// Datagrams that produced at least one forwarding decision.
    pub tuples_routed: u64,
    /// Datagrams that matched no interest and were dropped.
    pub tuples_dropped: u64,
    /// Projection-plan cache hits.
    pub plan_hits: u64,
    /// Projection-plan cache misses (each one compiled a plan).
    pub plan_misses: u64,
    /// Narrowing projections actually materialized.
    pub projections_built: u64,
}

impl RouterCounters {
    /// Fold another counter block into this one (router → deployment
    /// totals).
    pub fn merge(&mut self, other: &RouterCounters) {
        self.tuples_routed += other.tuples_routed;
        self.tuples_dropped += other.tuples_dropped;
        self.plan_hits += other.plan_hits;
        self.plan_misses += other.plan_misses;
        self.projections_built += other.projections_built;
    }
}

/// Per-destination compiled plans for one (schema, stream) pair, sorted
/// by [`Destination`]: a tuple's match keys come sorted too, so one
/// forward-only cursor finds every plan of a fan-out. `None` records a
/// destination that has no entry for the stream.
type PlanMap = Vec<(Destination, Option<ProjectionPlan>)>;

/// One line of a router's compiled projection plans: those of one
/// (incoming schema, stream) pair. A router only ever sees the few
/// pairs routed through it, so the lines are a linear-scan list — an
/// interned [`SchemaId`] compares as an integer and an interned stream
/// name as a pointer. A line exists only while it holds a plan.
#[derive(Debug, Clone)]
struct PlanEntry {
    schema: SchemaId,
    stream: StreamName,
    plans: PlanMap,
}

/// One stream's cached [`Router::relay`] verdict: valid for hops arriving
/// from `from` while this router's and the upstream router's re-index
/// counters read `generations`.
#[derive(Debug, Clone)]
struct RelayLine {
    stream: StreamName,
    from: NodeId,
    generations: (u64, u64),
    dest: Option<Destination>,
}

/// What routing mutates behind `&self`: the compiled plans, the relay
/// verdicts and the buffers one [`Router::route_batch_into`] call works
/// in, kept so the next call finds them grown.
#[derive(Debug, Clone, Default)]
struct RouteState {
    plans: Vec<PlanEntry>,
    /// At most one line per stream, scanned like the plan lines.
    relays: Vec<RelayLine>,
    /// The batch's match keys.
    matched: MatchScratch<Destination>,
    /// Projected tuples of the datagram at hand, by output layout
    /// (emptied after every datagram).
    memo: Vec<(SchemaId, Tuple)>,
}

/// The routing state of one CBN node.
#[derive(Debug, Clone)]
pub struct Router {
    node: NodeId,
    /// The match index and, in it, the one table of installed interests.
    engine: CountingMatcher<Destination>,
    /// Compiled projection plans — an interest mutation drops those of
    /// the streams it changed (see [`Router::install`]) — and the
    /// routing scratch.
    state: RefCell<RouteState>,
    counters: Cell<RouterCounters>,
    /// Tuples passed on by [`Router::relay_batch`] (also counted in
    /// [`RouterCounters::tuples_routed`]).
    relayed: Cell<u64>,
}

impl Router {
    /// A router for the given node with no interests installed.
    pub fn new(node: NodeId) -> Router {
        Router {
            node,
            engine: CountingMatcher::new(),
            state: RefCell::new(RouteState::default()),
            counters: Cell::new(RouterCounters::default()),
            relayed: Cell::new(0),
        }
    }

    /// Install (`Some`), replace or remove (`None`) the profile the
    /// match engine holds for `dest`. Every interest mutator goes
    /// through here — [`Router::set_neighbor_entry`] through its
    /// one-stream twin — which is the whole invalidation contract: a plan
    /// depends on `(schema, stream, dest's entry for stream)` and
    /// nothing else, the engine reports exactly the streams whose entry
    /// for `dest` changed, and their compiled plans are dropped before
    /// the `&mut self` borrow ends — a stale plan is never observable.
    fn install(&mut self, dest: Destination, profile: Option<Profile>) {
        let changed = self.engine.replace(dest, profile);
        self.forget(&changed);
    }

    /// Drop the compiled plans of `changed`, streams whose entries just
    /// changed, and the relay line of each one nobody here wants any
    /// more. Relay verdicts need no invalidation (they are keyed by the
    /// re-index counters); dropping a dead stream's line only keeps the
    /// list as short as the streams routed here.
    fn forget(&mut self, changed: &[StreamName]) {
        let state = self.state.get_mut();
        state.plans.retain(|e| !changed.contains(&e.stream));
        let engine = &self.engine;
        state
            .relays
            .retain(|l| !changed.contains(&l.stream) || !engine.interested(&l.stream).is_empty());
    }

    /// The node this router belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Replace the merged interest of the subtree behind `neighbor`
    /// (an empty profile clears it). Tests only: the product edits one
    /// stream at a time through [`Router::set_neighbor_entry`].
    #[cfg(test)]
    pub(crate) fn set_neighbor_interest(&mut self, neighbor: NodeId, profile: Profile) {
        let dest = Destination::Neighbor(neighbor);
        self.install(dest, (!profile.is_empty()).then_some(profile));
    }

    /// Replace (`Some`) or clear (`None`) the interest of the subtree
    /// behind `neighbor` in one stream, leaving its other streams alone:
    /// re-indexes and re-plans that stream only, and only if the entry
    /// changed.
    pub fn set_neighbor_entry(
        &mut self,
        neighbor: NodeId,
        stream: &StreamName,
        entry: Option<ProfileEntry>,
    ) {
        let dest = Destination::Neighbor(neighbor);
        if self.engine.replace_entry(dest, stream, entry) {
            self.forget(std::slice::from_ref(stream));
        }
    }

    /// Mark (`true`) or unmark `dest` as a receiver of `stream`'s
    /// punctuations: an operator — an SPE input, here or behind a
    /// neighbor — reads them. Only a destination holding an entry for
    /// `stream` can be marked (otherwise this does nothing), an interest
    /// mutation that keeps the entry keeps the mark, and one that
    /// withdraws it drops the mark. Marks touch no plan, relay verdict
    /// or [`Router::index_rebuilds`]: data routing never reads them.
    pub fn punctuate(&mut self, dest: Destination, stream: &StreamName, on: bool) {
        self.engine.punctuate(&dest, stream, on);
    }

    /// Interest of the subtree behind `neighbor`, if any.
    pub fn neighbor_interest(&self, neighbor: NodeId) -> Option<&Profile> {
        self.engine.profile(&Destination::Neighbor(neighbor))
    }

    /// All neighbor interests, in neighbor order (introspection for
    /// whole-network snapshots — see `cosmos-verify`).
    pub fn neighbor_interests(&self) -> impl Iterator<Item = (NodeId, &Profile)> {
        self.engine.profiles().filter_map(|(dest, p)| match dest {
            Destination::Neighbor(n) => Some((*n, p)),
            Destination::Local(_) => None,
        })
    }

    /// Install the profile of a locally attached subscriber.
    pub fn add_local_subscriber(&mut self, sub: SubscriberId, profile: Profile) {
        self.install(Destination::Local(sub), Some(profile));
    }

    /// Remove a locally attached subscriber.
    pub fn remove_local_subscriber(&mut self, sub: SubscriberId) {
        self.install(Destination::Local(sub), None);
    }

    /// Iterate over the locally attached subscribers and their profiles,
    /// in subscriber order.
    pub fn local_subscribers(&self) -> impl Iterator<Item = (SubscriberId, &Profile)> {
        self.engine.profiles().filter_map(|(dest, p)| match dest {
            Destination::Neighbor(_) => None,
            Destination::Local(s) => Some((*s, p)),
        })
    }

    /// Route a *stream-homogeneous* batch of incoming datagrams (every
    /// tuple on the same stream, laid out by `schema`) through this
    /// node; a single datagram is a batch of one.
    ///
    /// `from` is the neighbor the batch arrived from (`None` when it was
    /// published locally); it is excluded from the forwarding set. Each
    /// [`BatchForward`] carries the tuples projected onto that
    /// destination's attribute set, in batch order, and the projected
    /// schema; forwards come out in [`Destination`] order. The
    /// match-index partition is looked up once per batch, each
    /// projection plan once per (schema, stream, destination), and
    /// destinations of one tuple whose plans produce the same layout
    /// share one projected tuple.
    ///
    /// Allocates its result; a caller routing in a loop lends its
    /// buffers to [`Router::route_batch_into`] instead, which this wraps.
    pub fn route_batch(
        &self,
        tuples: &[Tuple],
        schema: &Schema,
        from: Option<NodeId>,
    ) -> Vec<BatchForward> {
        let mut out = Vec::new();
        self.route_batch_into(tuples, schema, from, &mut out, &mut Vec::new());
        out
    }

    /// [`Router::route_batch`] into buffers the caller keeps: `out` is
    /// emptied and receives the forwards, each forward's tuple buffer is
    /// taken from `pool` (any buffer there is emptied first; a fresh one
    /// is made when the pool runs out). A caller that hands consumed
    /// buffers back to `pool` makes routing allocate nothing but the
    /// narrowing projections it builds ([`RouterCounters::projections_built`]).
    pub fn route_batch_into(
        &self,
        tuples: &[Tuple],
        schema: &Schema,
        from: Option<NodeId>,
        out: &mut Vec<BatchForward>,
        pool: &mut Vec<Vec<Tuple>>,
    ) {
        out.clear();
        let Some(first) = tuples.first() else {
            return;
        };
        let stream = &first.stream;
        let mut counters = self.counters.get();
        let mut state = self.state.borrow_mut();
        let RouteState {
            plans,
            matched,
            memo,
            ..
        } = &mut *state;
        self.engine.matches_batch_flat(tuples, schema, matched);
        if matched.none_matched() {
            // Nobody here wants the stream (or this batch of it): no
            // plan is looked up, so no plan line is left behind.
            counters.tuples_dropped += tuples.len() as u64;
            self.counters.set(counters);
            return;
        }
        let arrival = from.map(Destination::Neighbor);
        let schema_id = schema.id();
        let mut line = plans
            .iter()
            .position(|e| e.schema == schema_id && e.stream == *stream);
        for (tuple, dests) in tuples.iter().zip(matched.iter()) {
            // A tuple's keys are sorted, and so are `out` and the plan
            // line: both cursors only ever move forward.
            let (mut slot, mut at) = (0, 0);
            let mut forwarded = false;
            for &dest in dests {
                if Some(dest) == arrival {
                    continue;
                }
                let line = *line.get_or_insert_with(|| {
                    plans.push(PlanEntry {
                        schema: schema_id,
                        stream: *stream,
                        plans: Vec::new(),
                    });
                    plans.len() - 1
                });
                let map = &mut plans[line].plans;
                while map.get(at).is_some_and(|(d, _)| *d < dest) {
                    at += 1;
                }
                if map.get(at).is_some_and(|(d, _)| *d == dest) {
                    counters.plan_hits += 1;
                } else {
                    counters.plan_misses += 1;
                    let entry = self.engine.profile(&dest).and_then(|p| p.entry(stream));
                    let plan = entry.map(|e| ProjectionPlan::compile(e, schema));
                    map.insert(at, (dest, plan));
                }
                let Some(plan) = &map[at].1 else {
                    continue;
                };
                let projected = plan.apply(tuple, memo, &mut counters);
                while out.get(slot).is_some_and(|f| f.dest < dest) {
                    slot += 1;
                }
                if out.get(slot).is_none_or(|f| f.dest != dest) {
                    let mut buffer = pool.pop().unwrap_or_default();
                    buffer.clear();
                    let forward = BatchForward {
                        dest,
                        tuples: buffer,
                        schema: plan.out_schema.clone(),
                    };
                    out.insert(slot, forward);
                }
                out[slot].tuples.push(projected);
                forwarded = true;
            }
            memo.clear();
            if forwarded {
                counters.tuples_routed += 1;
            } else {
                counters.tuples_dropped += 1;
            }
        }
        self.counters.set(counters);
    }

    /// Whether a hop of `stream` arriving here from `upstream`'s node is
    /// a *relay hop*, and if so its one destination `D`. It is when
    ///
    /// 1. this router holds an entry for `stream` for exactly one
    ///    destination `D` other than the arrival link,
    /// 2. `D`'s entry equals the one `upstream` holds for this node — the
    ///    entry the hop's tuples were matched and projected under, and
    /// 3. that entry keeps every attribute its filters reference
    ///    ([`ProfileEntry::is_normalized`]).
    ///
    /// Then each tuple still carries, unchanged, every attribute of the
    /// filter it passed upstream, so it matches `D` again and nothing
    /// else here, and `D`'s plan is the identity on the layout the
    /// upstream plan produced: [`Router::route_batch_into`] would forward
    /// the hop to `D` as it is.
    ///
    /// The verdict is kept per stream, keyed by the arrival link and by
    /// both routers' [`Router::index_rebuilds`]. Every entry change moves
    /// one of them, so a verdict never outlives the entries it was read
    /// from and no mutator has to remember to invalidate it. Recomputing
    /// it for a stream already routed here allocates nothing.
    pub fn relay(&self, stream: &StreamName, upstream: &Router) -> Option<Destination> {
        let (from, generations) = (
            upstream.node,
            (self.index_rebuilds(), upstream.index_rebuilds()),
        );
        let mut state = self.state.borrow_mut();
        let held = state.relays.iter().position(|l| l.stream == *stream);
        if let Some(line) = held.map(|at| &state.relays[at]) {
            if (line.from, line.generations) == (from, generations) {
                return line.dest;
            }
        }
        let dest = self.relay_verdict(stream, upstream);
        let line = RelayLine {
            stream: *stream,
            from,
            generations,
            dest,
        };
        match held {
            Some(at) => state.relays[at] = line,
            None => state.relays.push(line),
        }
        dest
    }

    /// [`Router::relay`]'s three conditions, read off both routers'
    /// installed entries.
    fn relay_verdict(&self, stream: &StreamName, upstream: &Router) -> Option<Destination> {
        let arrival = Destination::Neighbor(upstream.node);
        let mut others = (self.engine.interested(stream).iter()).filter(|d| **d != arrival);
        let (Some(&dest), None) = (others.next(), others.next()) else {
            return None;
        };
        let held = self.engine.profile(&dest)?.entry(stream)?;
        let sent = (upstream.engine)
            .profile(&Destination::Neighbor(self.node))?
            .entry(stream)?;
        (held == sent && held.is_normalized()).then_some(dest)
    }

    /// Pass on a hop of `tuples` (laid out by `schema`, arriving from
    /// `upstream`'s node) if [`Router::relay`] finds it a relay hop:
    /// count its tuples as routed and relayed — no plan is consulted —
    /// and return the destination, to which the caller hands the hop's
    /// tuples and schema untouched. `None` changes nothing: route the
    /// hop.
    ///
    /// In debug builds the hop is routed through
    /// [`Router::route_batch_into`] as well, which must produce exactly
    /// that one forward; the check leaves no trace (counters and compiled
    /// plans are restored).
    pub fn relay_batch(
        &self,
        tuples: &[Tuple],
        schema: &Schema,
        upstream: &Router,
    ) -> Option<Destination> {
        let dest = self.relay(&tuples.first()?.stream, upstream)?;
        if cfg!(debug_assertions) {
            self.assert_routing_relays(tuples, schema, upstream.node, dest);
        }
        let mut counters = self.counters.get();
        counters.tuples_routed += tuples.len() as u64;
        self.counters.set(counters);
        self.relayed.set(self.relayed.get() + tuples.len() as u64);
        Some(dest)
    }

    /// The debug cross-check of [`Router::relay_batch`].
    fn assert_routing_relays(
        &self,
        tuples: &[Tuple],
        schema: &Schema,
        from: NodeId,
        dest: Destination,
    ) {
        let (counters, plans) = (self.counters.get(), self.state.borrow().plans.clone());
        let mut routed = Vec::new();
        self.route_batch_into(tuples, schema, Some(from), &mut routed, &mut Vec::new());
        self.counters.set(counters);
        self.state.borrow_mut().plans = plans;
        let relayed = BatchForward {
            dest,
            tuples: tuples.to_vec(),
            schema: schema.clone(),
        };
        assert_eq!(
            routed,
            [relayed],
            "router {} relayed a hop from {from} that routing changes",
            self.node
        );
    }

    /// Tuples passed on by [`Router::relay_batch`] so far.
    pub fn tuples_relayed(&self) -> u64 {
        self.relayed.get()
    }

    /// Route a punctuation (watermark datagram) for `stream`.
    ///
    /// Punctuations follow *operator interest*, not the interest set and
    /// not the filters: a destination receives the watermark if it is
    /// marked for the stream ([`Router::punctuate`]) — an SPE input for
    /// it is attached there or lies behind it — whatever its filters
    /// say, because a promise about future timestamps is independent of
    /// which attribute values an operator filters on. A destination that
    /// leads only to user subscriptions is skipped: they would discard
    /// the watermark. The arrival link is excluded (reverse-path
    /// forwarding, exactly like data). Destinations come out in
    /// deterministic neighbors-then-locals order.
    ///
    /// Allocates its result; a caller routing in a loop lends a buffer
    /// to [`Router::route_punctuation_into`] instead, which this wraps.
    pub fn route_punctuation(&self, stream: &StreamName, from: Option<NodeId>) -> Vec<Destination> {
        let mut out = Vec::new();
        self.route_punctuation_into(stream, from, &mut out);
        out
    }

    /// [`Router::route_punctuation`] into a buffer the caller keeps
    /// (`out` is emptied first). The marked destinations are read off
    /// the match index, which lists them per stream beside the
    /// interested ones — one lookup, no profile scanned.
    pub fn route_punctuation_into(
        &self,
        stream: &StreamName,
        from: Option<NodeId>,
        out: &mut Vec<Destination>,
    ) {
        let arrival = from.map(Destination::Neighbor);
        out.clear();
        let punctuated = self.engine.punctuated(stream).iter();
        out.extend(punctuated.copied().filter(|dest| Some(*dest) != arrival));
    }

    /// Match-index rebuilds (one per stream re-indexed) this router's
    /// interest mutations have caused so far.
    pub fn index_rebuilds(&self) -> u64 {
        self.engine.index_rebuilds()
    }

    /// Number of compiled plans currently cached.
    pub fn cached_plan_count(&self) -> usize {
        let state = self.state.borrow();
        state.plans.iter().map(|e| e.plans.len()).sum()
    }

    /// The counter block (throughput + plan-cache counters).
    pub fn counters(&self) -> RouterCounters {
        self.counters.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Conjunction;
    use crate::profile::Projection;
    use cosmos_types::{AttrType, Timestamp, Value};
    use std::collections::{BTreeMap, BTreeSet};

    fn schema() -> Schema {
        Schema::of(&[
            ("id", AttrType::Int),
            ("price", AttrType::Float),
            ("note", AttrType::Str),
        ])
    }

    fn tup(id: i64, price: f64) -> Tuple {
        tup_on("S", id, price)
    }

    fn tup_on(stream: &str, id: i64, price: f64) -> Tuple {
        Tuple::new(
            stream,
            Timestamp(1),
            vec![Value::Int(id), Value::Float(price), Value::str("n")],
        )
    }

    fn interest(lo: i64, hi: i64, attrs: &[&str]) -> Profile {
        interest_on("S", lo, hi, attrs)
    }

    fn interest_on(stream: &str, lo: i64, hi: i64, attrs: &[&str]) -> Profile {
        let mut f = Conjunction::always();
        f.between("id", lo, hi);
        let mut p = Profile::new();
        let proj = if attrs.is_empty() {
            Projection::All
        } else {
            Projection::of(attrs.iter().copied())
        };
        p.add_interest(stream, proj, f);
        p
    }

    /// `(hits, misses)` of the projection-plan cache.
    fn plan_cache_stats(r: &Router) -> (u64, u64) {
        let c = r.counters();
        (c.plan_hits, c.plan_misses)
    }

    /// Route one datagram: a batch of one.
    fn route(r: &Router, t: &Tuple, s: &Schema, from: Option<NodeId>) -> Vec<BatchForward> {
        r.route_batch(std::slice::from_ref(t), s, from)
    }

    #[test]
    fn routes_to_matching_neighbors_and_locals() {
        let mut r = Router::new(NodeId(0));
        r.set_neighbor_interest(NodeId(1), interest(0, 10, &[]));
        r.set_neighbor_interest(NodeId(2), interest(20, 30, &[]));
        r.add_local_subscriber(SubscriberId(7), interest(5, 25, &[]));
        let s = schema();

        let d = route(&r, &tup(7, 1.0), &s, None);
        let dests: Vec<_> = d.iter().map(|x| x.dest).collect();
        assert_eq!(
            dests,
            vec![
                Destination::Neighbor(NodeId(1)),
                Destination::Local(SubscriberId(7))
            ]
        );

        let d2 = route(&r, &tup(25, 1.0), &s, None);
        assert_eq!(d2.len(), 2); // neighbor 2 and local 7
        assert_eq!(r.counters().tuples_routed, 2);
    }

    #[test]
    fn excludes_arrival_link() {
        let mut r = Router::new(NodeId(0));
        r.set_neighbor_interest(NodeId(1), interest(0, 10, &[]));
        r.set_neighbor_interest(NodeId(2), interest(0, 10, &[]));
        let d = route(&r, &tup(5, 1.0), &schema(), Some(NodeId(1)));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].dest, Destination::Neighbor(NodeId(2)));
    }

    #[test]
    fn early_projection_narrows_tuples_per_destination() {
        let mut r = Router::new(NodeId(0));
        r.set_neighbor_interest(NodeId(1), interest(0, 10, &["id"]));
        r.set_neighbor_interest(NodeId(2), interest(0, 10, &["id", "price"]));
        let s = schema();
        let d = route(&r, &tup(5, 2.5), &s, None);
        assert_eq!(d.len(), 2);
        let d1 = d
            .iter()
            .find(|x| x.dest == Destination::Neighbor(NodeId(1)))
            .unwrap();
        assert_eq!(d1.schema.names().collect::<Vec<_>>(), vec!["id"]);
        assert_eq!(d1.tuples[0].values(), &[Value::Int(5)]);
        let d2 = d
            .iter()
            .find(|x| x.dest == Destination::Neighbor(NodeId(2)))
            .unwrap();
        assert_eq!(d2.schema.names().collect::<Vec<_>>(), vec!["id", "price"]);
        // the original tuple is untouched
        assert!(d2.tuples[0].size_bytes() < tup(5, 2.5).size_bytes());
    }

    #[test]
    fn non_matching_tuple_is_dropped() {
        let mut r = Router::new(NodeId(0));
        r.set_neighbor_interest(NodeId(1), interest(0, 10, &[]));
        let d = route(&r, &tup(99, 1.0), &schema(), None);
        assert!(d.is_empty());
        assert_eq!(r.counters().tuples_dropped, 1);
    }

    #[test]
    fn set_neighbor_entry_edits_one_stream() {
        let mut r = Router::new(NodeId(0));
        let s_and_t = interest(0, 10, &[]).union(&interest_on("T", 0, 10, &[]));
        r.set_neighbor_interest(NodeId(1), s_and_t);
        let s = schema();
        route(&r, &tup_on("T", 5, 1.0), &s, None);
        let rebuilds = r.index_rebuilds();
        let (stream, wider) = ("S".into(), interest(0, 30, &[]));
        let entry = wider.entry(&stream).cloned();
        r.set_neighbor_entry(NodeId(1), &stream, entry.clone());
        assert_eq!(r.index_rebuilds(), rebuilds + 1, "S re-indexed, T not");
        assert_eq!(r.cached_plan_count(), 1, "T's plan survived");
        assert_eq!(route(&r, &tup(25, 1.0), &s, None).len(), 1);
        r.set_neighbor_entry(NodeId(1), &stream, entry);
        assert_eq!(
            r.index_rebuilds(),
            rebuilds + 1,
            "an equal entry is a no-op"
        );
        r.set_neighbor_entry(NodeId(1), &stream, None);
        assert!(route(&r, &tup(5, 1.0), &s, None).is_empty());
        r.set_neighbor_entry(NodeId(1), &"T".into(), None);
        assert_eq!(r.neighbor_interests().count(), 0, "an emptied profile goes");
    }

    #[test]
    fn subscriber_removal_stops_delivery() {
        let mut r = Router::new(NodeId(0));
        r.add_local_subscriber(SubscriberId(1), interest(0, 10, &[]));
        assert_eq!(route(&r, &tup(5, 0.0), &schema(), None).len(), 1);
        r.remove_local_subscriber(SubscriberId(1));
        assert_eq!(route(&r, &tup(5, 0.0), &schema(), None).len(), 0);
        assert_eq!(r.local_subscribers().count(), 0);
    }

    #[test]
    fn plans_are_cached_and_invalidated_per_stream() {
        let mut r = Router::new(NodeId(0));
        r.set_neighbor_interest(NodeId(1), interest(0, 10, &["id"]));
        r.add_local_subscriber(SubscriberId(7), interest(0, 10, &[]));
        r.add_local_subscriber(SubscriberId(9), interest_on("T", 0, 10, &["id"]));
        let s = schema();
        let on_t = |id| tup_on("T", id, 1.0);
        assert_eq!(r.cached_plan_count(), 0);

        route(&r, &tup(5, 1.0), &s, None);
        assert_eq!(plan_cache_stats(&r), (0, 2), "first tuple compiles both");
        route(&r, &tup(6, 1.0), &s, None);
        assert_eq!(plan_cache_stats(&r), (2, 2), "second tuple hits both");
        route(&r, &on_t(5), &s, None);
        assert_eq!(plan_cache_stats(&r), (2, 3));
        assert_eq!(r.cached_plan_count(), 3);

        // A mutation on S drops S's plans and leaves T's compiled.
        r.add_local_subscriber(SubscriberId(8), interest(0, 10, &[]));
        assert_eq!(r.cached_plan_count(), 1);
        route(&r, &on_t(5), &s, None);
        assert_eq!(plan_cache_stats(&r), (3, 3), "T's plan survived");
        route(&r, &tup(5, 1.0), &s, None);
        assert_eq!(plan_cache_stats(&r), (3, 6), "S's plans recompiled");
        assert_eq!(r.cached_plan_count(), 4);

        // Re-setting an equal profile changes nothing.
        let rebuilds = r.index_rebuilds();
        r.set_neighbor_interest(NodeId(1), interest(0, 10, &["id"]));
        r.add_local_subscriber(SubscriberId(9), interest_on("T", 0, 10, &["id"]));
        assert_eq!(r.cached_plan_count(), 4);
        assert_eq!(r.index_rebuilds(), rebuilds);
        route(&r, &tup(5, 1.0), &s, None);
        assert_eq!(plan_cache_stats(&r), (6, 6));

        // Removals drop their stream's plans only.
        r.remove_local_subscriber(SubscriberId(8));
        assert_eq!(r.cached_plan_count(), 1);
        r.set_neighbor_interest(NodeId(1), Profile::new());
        r.remove_local_subscriber(SubscriberId(9));
        assert_eq!(r.cached_plan_count(), 0);
    }

    #[test]
    fn routing_a_stream_nobody_wants_leaves_no_plan_line() {
        let mut r = Router::new(NodeId(0));
        r.add_local_subscriber(SubscriberId(7), interest_on("T", 0, 10, &["id"]));
        let s = schema();
        // Unindexed stream, and an indexed one whose batch matches nothing.
        assert!(route(&r, &tup(5, 1.0), &s, None).is_empty());
        assert!(route(&r, &tup_on("T", 99, 1.0), &s, None).is_empty());
        assert_eq!(r.counters().tuples_dropped, 2);
        assert_eq!(r.cached_plan_count(), 0);
        assert!(r.state.borrow().plans.is_empty(), "no empty line either");
        // The line appears with the first compiled plan.
        assert_eq!(route(&r, &tup_on("T", 5, 1.0), &s, None).len(), 1);
        assert_eq!(r.state.borrow().plans.len(), 1);
        assert_eq!(r.cached_plan_count(), 1);
    }

    #[test]
    fn identical_projections_share_one_projected_tuple() {
        let mut r = Router::new(NodeId(0));
        r.set_neighbor_interest(NodeId(1), interest(0, 10, &["id"]));
        r.set_neighbor_interest(NodeId(2), interest(0, 10, &["id"]));
        r.add_local_subscriber(SubscriberId(7), interest(0, 10, &["id"]));
        let s = schema();
        let d = route(&r, &tup(5, 1.0), &s, None);
        assert_eq!(d.len(), 3);
        assert_eq!(
            r.counters().projections_built,
            1,
            "one gather serves all three destinations"
        );
        assert!(d.windows(2).all(|w| w[0].tuples == w[1].tuples));
    }

    /// Route `batch` and hold the outcome to an independent reference:
    /// every installed profile decides for itself, tuple by tuple,
    /// whether it covers the datagram and what its projection looks
    /// like — no match index, no plans. Returns `(routed, dropped)` of
    /// one routing of the batch.
    fn assert_routes_like_profiles(
        r: &Router,
        batch: &[Tuple],
        s: &Schema,
        arrival: NodeId,
    ) -> (u64, u64) {
        let mut installed: Vec<(Destination, &Profile)> = r
            .neighbor_interests()
            .filter(|(n, _)| *n != arrival)
            .map(|(n, p)| (Destination::Neighbor(n), p))
            .collect();
        installed.extend(
            r.local_subscribers()
                .map(|(sub, p)| (Destination::Local(sub), p)),
        );
        let mut grouped: BTreeMap<Destination, (Vec<Tuple>, Schema)> = BTreeMap::new();
        let (mut routed, mut dropped) = (0u64, 0u64);
        for t in batch {
            let mut forwarded = false;
            for (dest, profile) in &installed {
                if !profile.covers_tuple(t, s) {
                    continue;
                }
                let (pt, ps) = profile.project_tuple(t, s).expect("covered stream");
                grouped
                    .entry(*dest)
                    .or_insert_with(|| (Vec::new(), ps))
                    .0
                    .push(pt);
                forwarded = true;
            }
            if forwarded {
                routed += 1;
            } else {
                dropped += 1;
            }
        }
        let reference: Vec<BatchForward> = grouped
            .into_iter()
            .map(|(dest, (tuples, schema))| BatchForward {
                dest,
                tuples,
                schema,
            })
            .collect();
        // Route it twice — into fresh buffers, and into a dirty `out`
        // with a pool of used buffers: reuse must be invisible.
        let mut out = vec![BatchForward {
            dest: Destination::Local(SubscriberId(u64::MAX)),
            tuples: batch.to_vec(),
            schema: s.clone(),
        }];
        let mut pool = vec![batch.to_vec(), Vec::with_capacity(3)];
        for reuse in [false, true] {
            let before = r.counters();
            if reuse {
                r.route_batch_into(batch, s, Some(arrival), &mut out, &mut pool);
            } else {
                out = r.route_batch(batch, s, Some(arrival));
            }
            assert_eq!(out, reference, "forwards, order, schemas (reuse: {reuse})");
            let after = r.counters();
            assert_eq!(
                (
                    after.tuples_routed - before.tuples_routed,
                    after.tuples_dropped - before.tuples_dropped
                ),
                (routed, dropped)
            );
        }
        (routed, dropped)
    }

    #[test]
    fn route_batch_agrees_with_profile_reference() {
        let mut r = Router::new(NodeId(0));
        r.set_neighbor_interest(NodeId(1), interest(0, 10, &["id"]));
        r.set_neighbor_interest(NodeId(2), interest(5, 25, &[]));
        r.add_local_subscriber(SubscriberId(7), interest(0, 30, &["id", "price"]));
        let s = schema();
        let batch: Vec<Tuple> = (0..40).map(|i| tup(i % 35, i as f64)).collect();
        let (routed, dropped) = assert_routes_like_profiles(&r, &batch, &s, NodeId(2));
        assert!(routed > 0 && dropped > 0, "both outcomes are exercised");
        assert!(r.route_batch(&[], &s, None).is_empty());
    }

    /// Hold punctuation routing to its definition, for both streams and
    /// every arrival link: each installed profile with any entry for the
    /// stream, whatever its filters, that is `marked` for it, except the
    /// arrival link. Returns how many marked entries match nothing (every
    /// filter unsatisfiable) and are punctuated all the same.
    fn assert_punctuations_follow_marks(
        r: &Router,
        marked: &BTreeSet<(Destination, StreamName)>,
        buffer: &mut Vec<Destination>,
    ) -> usize {
        let mut dead_entries = 0;
        for stream in ["S", "T"].map(StreamName::from) {
            let punctuated = |dest: &Destination, p: &Profile| {
                p.entry(&stream).is_some() && marked.contains(&(*dest, stream))
            };
            for from in [None, Some(1), Some(2), Some(3)] {
                let from = from.map(NodeId);
                let arrival = from.map(Destination::Neighbor);
                let reference: Vec<Destination> = r
                    .engine
                    .profiles()
                    .filter(|(dest, p)| punctuated(dest, p) && Some(**dest) != arrival)
                    .map(|(dest, _)| *dest)
                    .collect();
                assert_eq!(r.route_punctuation(&stream, from), reference);
                r.route_punctuation_into(&stream, from, buffer);
                assert_eq!(*buffer, reference, "a used buffer is emptied first");
            }
            let entries = (r.engine.profiles())
                .filter(|(dest, p)| punctuated(dest, p))
                .filter_map(|(_, p)| p.entry(&stream));
            dead_entries += entries
                .filter(|e| !e.filters.is_empty())
                .filter(|e| e.filters.iter().all(crate::sat::conjunction_unsat))
                .count();
        }
        dead_entries
    }

    /// No interleaving of interest mutations and routed batches ever
    /// observes a stale plan or a stale match index: after every
    /// mutation, batches on two streams (one of them under two layouts)
    /// still route exactly as the installed profiles say — and so do
    /// punctuations, which follow the marks of the destinations still
    /// holding an entry, whatever the mutations did to it in between.
    #[test]
    fn mutations_never_leave_stale_plans_or_indexes() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xCB);
        let wide = schema();
        let narrow = wide.project(&["id", "price"]).unwrap();
        let batches: Vec<(Vec<Tuple>, &Schema)> = vec![
            ((0..24).map(|i| tup(i, i as f64)).collect(), &wide),
            (
                (0..24)
                    .map(|i| {
                        let values = vec![Value::Int(i), Value::Float(i as f64)];
                        Tuple::new("S", Timestamp(1), values)
                    })
                    .collect(),
                &narrow,
            ),
            ((0..24).map(|i| tup_on("T", i, i as f64)).collect(), &wide),
        ];
        let mut r = Router::new(NodeId(0));
        let mut outcomes = (0, 0);
        let (mut punctuated, mut dead_entries) = (Vec::new(), 0);
        // The marks set and not since withdrawn, by `punctuate` or by
        // the entry leaving: a profile-level model of the index's lists.
        let mut marked = BTreeSet::new();
        for _ in 0..300 {
            let mut p = Profile::new();
            for stream in ["S", "T"] {
                if rng.gen_bool(0.6) {
                    let lo = rng.gen_range(0..20i64);
                    // `-1`: an empty range, interested but matching nothing.
                    let hi = lo + rng.gen_range(-1..12i64);
                    let attrs: &[&str] =
                        [&[][..], &["id"], &["id", "price"]][rng.gen_range(0..3usize)];
                    p = p.union(&interest_on(stream, lo, hi, attrs));
                }
            }
            let n = NodeId(rng.gen_range(1..4));
            let sub = SubscriberId(rng.gen_range(0..3));
            match rng.gen_range(0..6u32) {
                0 => r.set_neighbor_interest(n, p), // changed, or empty: removed
                1 => {
                    let same = r.neighbor_interest(n).cloned().unwrap_or_default();
                    r.set_neighbor_interest(n, same);
                }
                2 => r.set_neighbor_interest(n, Profile::new()),
                3 => {
                    let stream = StreamName::from(["S", "T"][rng.gen_range(0..2usize)]);
                    r.set_neighbor_entry(n, &stream, p.entry(&stream).cloned());
                }
                4 if !p.is_empty() => r.add_local_subscriber(sub, p), // new or replacing
                _ => r.remove_local_subscriber(sub),
            }
            let holds = |r: &Router, (dest, stream): &(Destination, StreamName)| {
                r.engine
                    .profile(dest)
                    .and_then(|p| p.entry(stream))
                    .is_some()
            };
            marked.retain(|mark| holds(&r, mark));
            for _ in 0..2 {
                let dest = match rng.gen_range(0..2u32) {
                    0 => Destination::Neighbor(NodeId(rng.gen_range(1..4))),
                    _ => Destination::Local(SubscriberId(rng.gen_range(0..3))),
                };
                let mark = (dest, StreamName::from(["S", "T"][rng.gen_range(0..2usize)]));
                let (on, rebuilds) = (rng.gen_bool(0.7), r.index_rebuilds());
                r.punctuate(dest, &mark.1, on);
                assert_eq!(r.index_rebuilds(), rebuilds, "a mark re-indexes nothing");
                if !on {
                    marked.remove(&mark);
                } else if holds(&r, &mark) {
                    marked.insert(mark);
                }
            }
            for (batch, layout) in &batches {
                let arrival = NodeId(rng.gen_range(1..4));
                let (routed, dropped) = assert_routes_like_profiles(&r, batch, layout, arrival);
                outcomes = (outcomes.0 + routed, outcomes.1 + dropped);
            }
            dead_entries += assert_punctuations_follow_marks(&r, &marked, &mut punctuated);
        }
        assert!(!marked.is_empty(), "marks survive to the end");
        assert!(outcomes.0 > 1000 && outcomes.1 > 1000, "{outcomes:?}");
        assert!(dead_entries > 0, "no all-unsatisfiable entry was exercised");
        let (hits, misses) = plan_cache_stats(&r);
        assert!(
            hits > misses,
            "plans survive unrelated mutations: {hits}/{misses}"
        );
    }

    #[test]
    fn punctuations_follow_marks_not_filters() {
        let mut r = Router::new(NodeId(0));
        r.set_neighbor_interest(NodeId(1), interest(0, 10, &[]));
        r.set_neighbor_interest(NodeId(2), interest(0, 10, &[]));
        r.add_local_subscriber(SubscriberId(7), interest(90, 99, &["id"]));
        let s: StreamName = "S".into();
        let (n1, local) = (
            Destination::Neighbor(NodeId(1)),
            Destination::Local(SubscriberId(7)),
        );
        // Interested but unmarked: no punctuation.
        assert!(r.route_punctuation(&s, None).is_empty());
        // Marked destinations get it, whatever their filters; neighbor 2
        // stays unmarked.
        r.punctuate(n1, &s, true);
        r.punctuate(local, &s, true);
        assert_eq!(r.route_punctuation(&s, None), vec![n1, local]);
        // The arrival link is excluded, and unknown streams go nowhere —
        // a mark without an entry is not kept.
        assert_eq!(r.route_punctuation(&s, Some(NodeId(1))), vec![local]);
        r.punctuate(local, &"T".into(), true);
        assert!(r.route_punctuation(&"T".into(), None).is_empty());
        // A changed entry keeps its mark, a withdrawn one drops it.
        r.set_neighbor_interest(NodeId(1), interest(0, 20, &[]));
        assert_eq!(r.route_punctuation(&s, None), vec![n1, local]);
        r.remove_local_subscriber(SubscriberId(7));
        r.add_local_subscriber(SubscriberId(7), interest(90, 99, &["id"]));
        assert_eq!(r.route_punctuation(&s, None), vec![n1]);
        r.punctuate(n1, &s, false);
        assert!(r.route_punctuation(&s, None).is_empty());
    }

    #[test]
    fn setting_empty_profile_clears_neighbor() {
        let mut r = Router::new(NodeId(3));
        assert_eq!(r.node(), NodeId(3));
        r.set_neighbor_interest(NodeId(1), interest(0, 10, &[]));
        assert!(r.neighbor_interest(NodeId(1)).is_some());
        r.set_neighbor_interest(NodeId(1), Profile::new());
        assert!(r.neighbor_interest(NodeId(1)).is_none());
        assert_eq!(route(&r, &tup(5, 0.0), &schema(), None).len(), 0);
    }

    /// Node 0 routes `S` to node 1 under `interest(0, 10, attrs)`; node 1
    /// holds the same entry for its local subscriber 7.
    fn relay_pair(attrs: &[&str]) -> (Router, Router) {
        let (mut up, mut r) = (Router::new(NodeId(0)), Router::new(NodeId(1)));
        up.set_neighbor_interest(NodeId(1), interest(0, 10, attrs));
        r.add_local_subscriber(SubscriberId(7), interest(0, 10, attrs));
        (up, r)
    }

    /// The batch `up` forwards to node 1, as node 1 receives it.
    fn hop_to_1(up: &Router, batch: &[Tuple]) -> BatchForward {
        let forwards = up.route_batch(batch, &schema(), None);
        let hop = forwards
            .into_iter()
            .find(|f| f.dest == Destination::Neighbor(NodeId(1)));
        hop.expect("node 0 forwards to node 1")
    }

    #[test]
    fn relay_needs_one_destination_under_the_upstream_entry() {
        let s: StreamName = "S".into();
        let local = Some(Destination::Local(SubscriberId(7)));
        let (mut up, mut r) = relay_pair(&["id", "price"]);
        assert_eq!(r.relay(&s, &up), local);
        // The arrival link's own entry is not a destination.
        r.set_neighbor_interest(NodeId(0), interest(0, 99, &[]));
        assert_eq!(r.relay(&s, &up), local);
        // A second destination: route.
        r.set_neighbor_interest(NodeId(2), interest(50, 60, &[]));
        assert_eq!(r.relay(&s, &up), None);
        r.set_neighbor_interest(NodeId(2), Profile::new());
        assert_eq!(r.relay(&s, &up), local);
        // An entry unlike the upstream one, on either side: route.
        r.add_local_subscriber(SubscriberId(7), interest(0, 11, &["id", "price"]));
        assert_eq!(r.relay(&s, &up), None);
        up.set_neighbor_interest(NodeId(1), interest(0, 11, &["id", "price"]));
        assert_eq!(r.relay(&s, &up), local);
        up.set_neighbor_interest(NodeId(1), interest(0, 11, &["id"]));
        assert_eq!(r.relay(&s, &up), None);
        // Another stream, and another arrival link, decide for themselves.
        assert_eq!(r.relay(&"T".into(), &up), None);
        assert_eq!(r.relay(&s, &Router::new(NodeId(2))), None);
    }

    #[test]
    fn an_entry_that_projects_away_its_filter_attribute_is_routed() {
        // `id` is filtered on but projected away: the hop arrives without
        // it, so the entry that passed it upstream matches nothing here.
        let (up, r) = relay_pair(&["price"]);
        let hop = hop_to_1(&up, &[tup(5, 1.0)]);
        assert_eq!(hop.schema.names().collect::<Vec<_>>(), ["price"]);
        assert!(r
            .route_batch(&hop.tuples, &hop.schema, Some(NodeId(0)))
            .is_empty());
        assert_eq!(r.relay(&"S".into(), &up), None);
        assert_eq!(r.relay_batch(&hop.tuples, &hop.schema, &up), None);
    }

    #[test]
    fn a_relayed_batch_counts_as_routed_and_consults_no_plan() {
        let (up, r) = relay_pair(&["id"]);
        let batch: Vec<Tuple> = (0..20).map(|i| tup(i, 1.0)).collect();
        let hop = hop_to_1(&up, &batch);
        assert_eq!(hop.tuples.len(), 11);
        let dest = r.relay_batch(&hop.tuples, &hop.schema, &up);
        assert_eq!(dest, Some(Destination::Local(SubscriberId(7))));
        let counted = RouterCounters {
            tuples_routed: 11,
            ..RouterCounters::default()
        };
        assert_eq!(r.counters(), counted, "no plan hit, miss or projection");
        assert_eq!(r.tuples_relayed(), 11);
        assert_eq!(
            r.cached_plan_count(),
            0,
            "no plan compiled, not even by the debug check"
        );
        assert_eq!(r.relay_batch(&[], &hop.schema, &up), None);
    }

    #[test]
    fn relay_lines_go_with_the_streams_routed_here() {
        let (up, mut r) = relay_pair(&[]);
        assert!(r.relay(&"S".into(), &up).is_some());
        assert_eq!(r.state.borrow().relays.len(), 1);
        r.add_local_subscriber(SubscriberId(7), interest_on("T", 0, 10, &[]));
        assert!(r.state.borrow().relays.is_empty(), "nobody here wants S");
    }

    #[test]
    fn router_counters_merge_folds_every_field() {
        let mut a = RouterCounters {
            tuples_routed: 1,
            tuples_dropped: 2,
            plan_hits: 3,
            plan_misses: 4,
            projections_built: 5,
        };
        let b = RouterCounters {
            tuples_routed: 10,
            tuples_dropped: 20,
            plan_hits: 30,
            plan_misses: 40,
            projections_built: 50,
        };
        a.merge(&b);
        assert_eq!(
            a,
            RouterCounters {
                tuples_routed: 11,
                tuples_dropped: 22,
                plan_hits: 33,
                plan_misses: 44,
                projections_built: 55,
            }
        );
    }
}
