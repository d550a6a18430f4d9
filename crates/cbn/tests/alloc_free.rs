//! Steady-state routing allocates nothing but the projections it builds
//! — gated by counting allocations, not by a clock.

use cosmos_cbn::{
    BatchForward, Conjunction, CountingMatcher, Destination, MatchScratch, Profile, ProfileEntry,
    Projection, Router,
};
use cosmos_types::{AttrType, NodeId, Schema, SubscriberId, Timestamp, Tuple, Value};

mod counting;
use counting::allocations;

fn schema() -> Schema {
    Schema::of(&[
        ("id", AttrType::Int),
        ("price", AttrType::Float),
        ("note", AttrType::Str),
    ])
}

fn batch(n: i64) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            let values = vec![Value::Int(i), Value::Float(i as f64), Value::str("n")];
            Tuple::new("S", Timestamp(i), values)
        })
        .collect()
}

/// Interest in `S` tuples with `lo ≤ id ≤ hi`, projected onto `attrs`
/// (empty = every attribute).
fn interest(lo: i64, hi: i64, attrs: &[&str]) -> Profile {
    let mut f = Conjunction::always();
    f.between("id", lo, hi);
    let projection = if attrs.is_empty() {
        Projection::All
    } else {
        Projection::of(attrs.iter().copied())
    };
    let mut p = Profile::new();
    p.add_interest("S", projection, f);
    p
}

/// Replace the interest behind `neighbor` in stream `S`, the only
/// stream these tests route (an empty profile clears it).
fn set_interest(r: &mut Router, neighbor: NodeId, profile: Profile) {
    let s = "S".into();
    r.set_neighbor_entry(neighbor, &s, profile.entry(&s).cloned());
}

/// What a routing loop does with the forwards: consume them and hand
/// their emptied buffers back.
fn recycle(out: &mut Vec<BatchForward>, pool: &mut Vec<Vec<Tuple>>) {
    for mut forward in out.drain(..) {
        forward.tuples.clear();
        pool.push(forward.tuples);
    }
}

#[test]
fn steady_state_routing_allocates_only_built_projections() {
    let s = schema();
    let (mut out, mut pool) = (Vec::new(), Vec::new());

    // (i) Identity projections, overlapping interests, a dropped tail.
    let mut r = Router::new(NodeId(0));
    set_interest(&mut r, NodeId(1), interest(0, 40, &[]));
    set_interest(&mut r, NodeId(2), interest(20, 50, &[]));
    r.add_local_subscriber(SubscriberId(7), interest(10, 30, &[]));
    let tuples = batch(64);
    // Warm-up: plans compile, the scratch grows, and — buffers change
    // hands between destinations — every pooled buffer reaches the
    // largest forward's size.
    for _ in 0..3 {
        r.route_batch_into(&tuples, &s, None, &mut out, &mut pool);
        assert_eq!(out.len(), 3);
        recycle(&mut out, &mut pool);
    }
    let n = allocations(|| {
        r.route_batch_into(&tuples, &s, Some(NodeId(2)), &mut out, &mut pool);
        assert_eq!(out.len(), 2);
        recycle(&mut out, &mut pool);
        r.route_batch_into(&tuples, &s, None, &mut out, &mut pool);
    });
    assert_eq!(n, 0, "identity-projection batch");
    assert_eq!(out.iter().map(|f| f.tuples.len()).sum::<usize>(), 93);
    recycle(&mut out, &mut pool);

    // (ii) A one-tuple batch: the per-call cost.
    let n = allocations(|| {
        for t in &tuples[..32] {
            r.route_batch_into(std::slice::from_ref(t), &s, None, &mut out, &mut pool);
            recycle(&mut out, &mut pool);
        }
    });
    assert_eq!(n, 0, "one-tuple batches");

    // (iii) Narrowing projections: one allocation per projection built,
    // and destinations with the same layout share it.
    let mut r = Router::new(NodeId(0));
    set_interest(&mut r, NodeId(1), interest(0, 40, &["id"]));
    set_interest(&mut r, NodeId(2), interest(20, 50, &["id"]));
    r.add_local_subscriber(SubscriberId(7), interest(10, 30, &["id", "price"]));
    r.route_batch_into(&tuples, &s, None, &mut out, &mut pool);
    recycle(&mut out, &mut pool);
    let built = r.counters().projections_built;
    let n = allocations(|| r.route_batch_into(&tuples, &s, None, &mut out, &mut pool));
    let built = r.counters().projections_built - built;
    assert_eq!(built, 51 + 21, "one per layout per tuple");
    assert_eq!(n, built, "narrowing batch");
}

#[test]
fn steady_state_flat_matching_allocates_nothing() {
    let s = schema();
    let mut m = CountingMatcher::new();
    m.replace(1u32, Some(interest(0, 40, &[])));
    m.replace(2, Some(interest(20, 50, &["id"])));
    let mut whole = Profile::new();
    whole.add_entry("S", ProfileEntry::all());
    m.replace(3, Some(whole));
    let tuples = batch(64);
    let mut flat = MatchScratch::default();
    m.matches_batch_flat(&tuples, &s, &mut flat);
    let matched: usize = flat.iter().map(<[u32]>::len).sum();
    assert_eq!(matched, 41 + 31 + 64);
    let n = allocations(|| {
        m.matches_batch_flat(&tuples, &s, &mut flat);
        m.matches_batch_flat(&tuples[..1], &s, &mut flat);
    });
    assert_eq!(n, 0);
    assert_eq!(flat.iter().collect::<Vec<_>>(), [&[1, 3][..]]);
}

#[test]
fn relay_lookups_allocate_nothing_once_the_stream_was_routed() {
    let (mut up, mut r) = (Router::new(NodeId(0)), Router::new(NodeId(1)));
    set_interest(&mut up, NodeId(1), interest(0, 40, &["id", "price"]));
    r.add_local_subscriber(SubscriberId(7), interest(0, 40, &["id", "price"]));
    let on_s = "S".into();
    let relay = Some(Destination::Local(SubscriberId(7)));
    assert_eq!(r.relay(&on_s, &up), relay);
    let n = allocations(|| {
        for _ in 0..32 {
            assert_eq!(r.relay(&on_s, &up), relay);
        }
    });
    assert_eq!(n, 0, "warmed lookups");
    // Interest changes on either router: the verdict is recomputed, in
    // place.
    set_interest(&mut r, NodeId(2), interest(50, 60, &[]));
    assert_eq!(allocations(|| assert_eq!(r.relay(&on_s, &up), None)), 0);
    set_interest(&mut r, NodeId(2), Profile::new());
    set_interest(&mut up, NodeId(1), interest(0, 41, &["id", "price"]));
    assert_eq!(allocations(|| assert_eq!(r.relay(&on_s, &up), None)), 0);
    r.add_local_subscriber(SubscriberId(7), interest(0, 41, &["id", "price"]));
    assert_eq!(allocations(|| assert_eq!(r.relay(&on_s, &up), relay)), 0);
}

#[test]
fn punctuation_routing_into_a_warmed_buffer_allocates_nothing() {
    let mut r = Router::new(NodeId(0));
    set_interest(&mut r, NodeId(1), interest(0, 40, &[]));
    set_interest(&mut r, NodeId(2), interest(20, 50, &["id"]));
    r.add_local_subscriber(SubscriberId(7), interest(10, 30, &[]));
    let (on_s, unknown) = ("S".into(), "T".into());
    for dest in [
        Destination::Neighbor(NodeId(1)),
        Destination::Neighbor(NodeId(2)),
        Destination::Local(SubscriberId(7)),
    ] {
        r.punctuate(dest, &on_s, true);
    }
    let mut out = Vec::new();
    r.route_punctuation_into(&on_s, None, &mut out);
    assert_eq!(out.len(), 3);
    let n = allocations(|| {
        r.route_punctuation_into(&on_s, Some(NodeId(2)), &mut out);
        assert_eq!(out.len(), 2);
        r.route_punctuation_into(&unknown, None, &mut out);
        assert!(out.is_empty());
        r.route_punctuation_into(&on_s, None, &mut out);
    });
    assert_eq!(n, 0);
    assert_eq!(out.len(), 3);
}
