//! The five workloads: deployment, queries, input and operation script.
//!
//! A workload is data: both interpreters — the measured run
//! (`measure.rs`) and the traced run (`trace.rs`) — walk the same
//! [`Workload::ops`] against a fresh deployment, so an operation index
//! means the same work in every repetition and in the trace.
//!
//! **What the seed reaches.** `--seed` drives everything that is data:
//! every sensor stream's tuple values and the disorder transform. The
//! *structure* of a workload — overlay topology, stream origins, user
//! nodes, query texts and the order of churn's withdrawals — is drawn
//! from the fixed [`STRUCTURE_SEED`], like the workload's sizes. The
//! benchmark contract requires every end-to-end metric to stay within
//! its bound across ten different seeds; a different overlay or query
//! population is a different workload (link bytes per tuple move by
//! tens of percent), not noise to be averaged over.

use crate::sut::{self, Catalog, DisorderSpec, NodeId, QueryGenConfig, Tuple};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::time::Instant;

/// Seed of everything structural (see the module docs).
pub const STRUCTURE_SEED: u64 = 0x00C0_5305;

/// Repetitions of a measured run when `--seconds` does not stop it
/// earlier.
pub const MAX_REPS: usize = 12;

pub const NAMES: [&str; 5] = ["fanout", "trickle", "windowed", "disordered", "churn"];

/// One step of a workload's script. Indexes point into
/// [`Workload::queries`] and [`Workload::batches`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Submit(usize),
    Unsubscribe(usize),
    Publish(usize),
    /// `close_streams()` — the last data-plane operation of `disordered`.
    Close,
    Reoptimize,
    Snapshot,
    Metrics,
    Autotune,
    /// Untimed: read counters and digests, verify on repetition 0.
    Checkpoint,
}

/// Which deliveries the checkpoint compares with the reference
/// evaluator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verify {
    /// Every start-up query over the whole input.
    Whole,
    /// Every start-up query over the inputs and results with timestamp
    /// at most that of the `n`-th input tuple (the reference evaluator
    /// is quadratic on joins).
    Prefix(usize),
    /// Start-up queries that are stateless selections and are never
    /// withdrawn, over the whole input. cosmos-testkit's epoch rule
    /// (`oracle.rs`, `stateless`): delivery of a query with no
    /// aggregate, one stream and no DISTINCT is unaffected by the
    /// executor restarts that widening, shrinking and re-grouping
    /// cause, so its whole run is one epoch.
    StatelessSurvivors,
}

pub struct Workload {
    pub name: &'static str,
    pub nodes: usize,
    pub processor_fraction: f64,
    /// `(sensor deployment index, origin node)`.
    pub streams: Vec<(usize, NodeId)>,
    /// Watermark lag when the deployment runs in out-of-order mode.
    pub disorder_bound_ms: Option<i64>,
    /// `(CQL text, user node)`; the first `startup` are submitted
    /// during set-up, the rest by `Op::Submit`.
    pub queries: Vec<(String, NodeId)>,
    pub startup: usize,
    /// Stream-homogeneous publish batches.
    pub batches: Vec<Vec<Tuple>>,
    /// The in-order, duplicate-free input (what the reference
    /// evaluator sees), in timestamp order per stream.
    pub reference_input: Vec<Tuple>,
    pub ops: Vec<Op>,
    pub verify: Verify,
    /// Seconds spent generating all of the above.
    pub gen_s: f64,
}

impl Workload {
    /// Source tuples one repetition publishes.
    pub fn source_tuples(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                Op::Publish(b) => self.batches[*b].len() as u64,
                _ => 0,
            })
            .sum()
    }

    pub fn count(&self, pred: impl Fn(&Op) -> bool) -> usize {
        self.ops.iter().filter(|op| pred(op)).count()
    }
}

/// Build workload `name` from `seed` at `1/scale` of its full size.
pub fn build(name: &str, seed: u64, scale: usize) -> Option<Workload> {
    let start = Instant::now();
    let mut w = match name {
        "fanout" => fanout(seed, scale),
        "trickle" => trickle(seed, scale),
        "windowed" => windowed(seed, scale, false),
        "disordered" => windowed(seed, scale, true),
        "churn" => churn(seed, scale),
        _ => return None,
    };
    w.gen_s = start.elapsed().as_secs_f64();
    Some(w)
}

// ----------------------------------------------------------- deployments

const FANOUT_NODES: usize = 64;
const FANOUT_STREAMS: usize = 16;
/// Queries withdrawn one by one after the checkpoint on the workloads
/// that have no unsubscribe of their own.
const TAIL_UNSUBSCRIBES: usize = 16;

fn structure_rng(salt: u64) -> StdRng {
    StdRng::seed_from_u64(STRUCTURE_SEED ^ salt)
}

/// `fanout`'s deployment: 64-node overlay, sensors 0–15 at random
/// origins. The RNG is handed back so query users continue the draw.
fn fanout_deployment() -> (Vec<(usize, NodeId)>, StdRng) {
    let mut rng = structure_rng(0xFA);
    let streams = (0..FANOUT_STREAMS)
        .map(|i| (i, NodeId(rng.gen_range(0..FANOUT_NODES as u32))))
        .collect();
    (streams, rng)
}

/// `fanout` and `trickle`: the same deployment and the same 128
/// selection queries, fed `batches`.
fn selection_workload(
    name: &'static str,
    batches: impl FnOnce(&[(usize, NodeId)]) -> Vec<Vec<Tuple>>,
) -> Workload {
    let (streams, mut rng) = fanout_deployment();
    let queries = sample_queries(
        selection_only(),
        STRUCTURE_SEED ^ 0x51,
        128,
        &streams,
        FANOUT_NODES,
        &mut rng,
    );
    let batches = batches(&streams);
    Workload {
        name,
        nodes: FANOUT_NODES,
        processor_fraction: 0.1,
        streams,
        disorder_bound_ms: None,
        startup: queries.len(),
        ops: script((0..batches.len()).map(Op::Publish).collect(), queries.len()),
        queries,
        reference_input: batches.iter().flatten().cloned().collect(),
        batches,
        verify: Verify::Whole,
        gen_s: 0.0,
    }
}

/// Rejection-sample `n` generated queries onto the registered streams.
/// A query is kept only if lint, analysis and the admission bound check
/// all accept it, so no `submit_query` of a workload is ever refused.
fn sample_queries(
    cfg: QueryGenConfig,
    gen_seed: u64,
    n: usize,
    streams: &[(usize, NodeId)],
    nodes: usize,
    rng: &mut StdRng,
) -> Vec<(String, NodeId)> {
    let catalog = Catalog::sensors();
    let registered: BTreeSet<String> = streams
        .iter()
        .map(|(i, _)| sut::sensor_stream_name(*i))
        .collect();
    let mut gen = sut::Queries::new(cfg, gen_seed);
    let mut out = Vec::with_capacity(n);
    let mut attempts = 0usize;
    while out.len() < n {
        attempts += 1;
        assert!(attempts < 1_000_000, "query rejection sampling diverged");
        let text = gen.next_query();
        let Ok(parsed) = sut::parse(&text) else {
            continue;
        };
        let Ok(analyzed) = sut::analyze(&parsed, &catalog) else {
            continue;
        };
        if analyzed.streams().iter().all(|s| registered.contains(s))
            && sut::lint(&parsed, &catalog).is_empty()
            && sut::bound_check(&analyzed).is_empty()
        {
            out.push((text, NodeId(rng.gen_range(0..nodes as u32))));
        }
    }
    out
}

fn selection_only() -> QueryGenConfig {
    QueryGenConfig {
        join_fraction: 0.0,
        agg_fraction: 0.0,
        ..QueryGenConfig::default()
    }
}

/// Start-up cohort, the body, the checkpoint, then the tail
/// unsubscribes of the first submitted queries.
fn script(body: Vec<Op>, startup: usize) -> Vec<Op> {
    let mut ops = body;
    ops.push(Op::Checkpoint);
    ops.extend((0..TAIL_UNSUBSCRIBES.min(startup)).map(Op::Unsubscribe));
    ops
}

// --------------------------------------------------------------- fanout

fn fanout(seed: u64, scale: usize) -> Workload {
    const BATCH: usize = 128;
    let per_stream_batches = 64 / scale;
    selection_workload("fanout", |streams| {
        let mut per_stream: Vec<Vec<Vec<Tuple>>> = streams
            .iter()
            .map(|(i, _)| {
                let mut g = sut::Sensor::new(*i, seed);
                (0..per_stream_batches)
                    .map(|_| (0..BATCH).map(|_| g.next_tuple()).collect())
                    .collect()
            })
            .collect();
        // Round-robin over the streams: each stream is in timestamp
        // order, which is all a single-stream selection query requires.
        let mut batches = Vec::with_capacity(per_stream_batches * streams.len());
        for k in 0..per_stream_batches {
            for s in per_stream.iter_mut() {
                batches.push(std::mem::take(&mut s[k]));
            }
        }
        batches
    })
}

// -------------------------------------------------------------- trickle

fn trickle(seed: u64, scale: usize) -> Workload {
    let per_stream = 2048 / scale;
    selection_workload("trickle", |streams| {
        let mut all: Vec<Tuple> = Vec::with_capacity(per_stream * streams.len());
        for (i, _) in streams {
            let mut g = sut::Sensor::new(*i, seed);
            all.extend((0..per_stream).map(|_| g.next_tuple()));
        }
        // Global timestamp order (stable: ties keep stream order), each
        // tuple published alone.
        all.sort_by_key(|t| t.timestamp);
        all.into_iter().map(|t| vec![t]).collect()
    })
}

// -------------------------------------------------- windowed, disordered

fn windowed(seed: u64, scale: usize, disordered: bool) -> Workload {
    const NODES: usize = 16;
    // Two deployments at 4 tuples/s, two at 0.5; (4,5) and (9,10) are
    // the neighbour pairs the generator's correlation joins use.
    const SENSORS: [usize; 4] = [4, 5, 9, 10];
    let horizon_ms = 3_600_000 / scale as i64;
    let mut rng = structure_rng(0x77);
    let streams: Vec<(usize, NodeId)> = SENSORS
        .iter()
        .map(|i| (*i, NodeId(rng.gen_range(0..NODES as u32))))
        .collect();
    let joins = sample_queries(
        QueryGenConfig {
            join_fraction: 1.0,
            agg_fraction: 0.0,
            ..QueryGenConfig::default()
        },
        STRUCTURE_SEED ^ 0x52,
        24,
        &streams,
        NODES,
        &mut rng,
    );
    let aggregates = sample_queries(
        QueryGenConfig {
            join_fraction: 0.0,
            agg_fraction: 1.0,
            ..QueryGenConfig::default()
        },
        STRUCTURE_SEED ^ 0x53,
        24,
        &streams,
        NODES,
        &mut rng,
    );
    let queries: Vec<(String, NodeId)> = joins
        .into_iter()
        .zip(aggregates)
        .flat_map(|(j, a)| [j, a])
        .collect();

    let mut in_order: Vec<Tuple> = Vec::new();
    for (i, _) in &streams {
        in_order.extend(sut::Sensor::new(*i, seed).tuples_until(horizon_ms));
    }
    in_order.sort_by_key(|t| t.timestamp);

    let spec = DisorderSpec {
        seed,
        skew_ms: 2_000,
        straggler_ms: 10_000,
        straggler_prob: 0.02,
        duplicate_prob: 0.01,
    };
    let arrival = if disordered {
        spec.apply(&in_order)
    } else {
        in_order.clone()
    };
    // Batches are maximal same-stream runs of the arrival order.
    let mut batches: Vec<Vec<Tuple>> = Vec::new();
    for t in arrival {
        match batches.last_mut() {
            Some(b) if b[0].stream == t.stream => b.push(t),
            _ => batches.push(vec![t]),
        }
    }
    let mut body: Vec<Op> = (0..batches.len()).map(Op::Publish).collect();
    if disordered {
        body.push(Op::Close);
    }
    Workload {
        name: if disordered { "disordered" } else { "windowed" },
        nodes: NODES,
        processor_fraction: 0.25,
        streams,
        // `spec.bound()` covers originals only. A duplicate trails its
        // original by up to another `straggler_ms`, and under the `Drop`
        // policy a duplicate behind the frontier is shed, not
        // deduplicated. The lag covers duplicates too, so that "zero
        // late sheds" holds for every seed, not for lucky ones.
        disorder_bound_ms: disordered.then(|| spec.bound().millis() + spec.straggler_ms),
        startup: queries.len(),
        ops: script(body, queries.len()),
        queries,
        batches,
        reference_input: in_order,
        verify: Verify::Prefix(4000 / scale),
        gen_s: 0.0,
    }
}

// ---------------------------------------------------------------- churn

fn churn(seed: u64, scale: usize) -> Workload {
    const START_QUERIES: usize = 96;
    const PUBLISHES_PER_EVENT: usize = 5;
    const BATCH: usize = 16;
    let events = (200 / scale).max(4);
    let maintenance_every = (50 / scale).max(2);
    let (streams, mut rng) = fanout_deployment();
    let queries = sample_queries(
        QueryGenConfig::default(),
        STRUCTURE_SEED ^ 0x54,
        START_QUERIES + events,
        &streams,
        FANOUT_NODES,
        &mut rng,
    );

    // Every source is bursty: a publish is the next 16 tuples of one
    // stream that are not older than the previous burst's last tuple, so
    // the whole input is in global timestamp order (the join executors'
    // in-order contract) although every batch is stream-homogeneous.
    let mut gens: Vec<sut::Sensor> = streams
        .iter()
        .map(|(i, _)| sut::Sensor::new(*i, seed))
        .collect();
    let mut clock_ms = 0i64;
    let mut batches: Vec<Vec<Tuple>> = Vec::with_capacity(events * PUBLISHES_PER_EVENT);
    let mut burst = |k: usize| {
        let n = gens.len();
        let g = &mut gens[k % n];
        g.tuples_until(clock_ms);
        let b: Vec<Tuple> = (0..BATCH).map(|_| g.next_tuple()).collect();
        clock_ms = b[BATCH - 1].timestamp.millis();
        b
    };

    // Which query each event withdraws decides the query population of
    // every later event: structure, not data.
    let mut victims = structure_rng(0xC4);
    let mut live: Vec<usize> = (0..START_QUERIES).collect();
    let mut ops = Vec::new();
    for e in 0..events {
        let q = START_QUERIES + e;
        ops.push(Op::Submit(q));
        live.push(q);
        let victim = live.swap_remove(victims.gen_range(0..live.len()));
        ops.push(Op::Unsubscribe(victim));
        for _ in 0..PUBLISHES_PER_EVENT {
            let b = batches.len();
            batches.push(burst(b));
            ops.push(Op::Publish(b));
        }
        if (e + 1) % maintenance_every == 0 {
            ops.extend([Op::Reoptimize, Op::Snapshot, Op::Metrics]);
        }
    }
    // `autotune` adopts *measured* statistics and re-groups and re-roots
    // by them, so what it decides depends on the seed's tuple values:
    // run every 50 events it made `link_bytes_per_tuple` range over
    // 536–608 bytes across twenty seeds, against 560–569 without it.
    // It runs once, after the last event, where it is still timed and
    // mirrored but cannot turn the rest of the script into a different
    // workload per seed.
    ops.push(Op::Autotune);
    ops.push(Op::Checkpoint);
    let reference_input = batches.iter().flatten().cloned().collect();
    Workload {
        name: "churn",
        nodes: FANOUT_NODES,
        processor_fraction: 0.1,
        streams,
        disorder_bound_ms: None,
        queries,
        startup: START_QUERIES,
        batches,
        reference_input,
        ops,
        verify: Verify::StatelessSurvivors,
        gen_s: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_builds_and_unknown_names_do_not() {
        for name in NAMES {
            let w = build(name, 1, 16).expect(name);
            assert_eq!(w.name, name);
            assert!(w.source_tuples() > 0);
            assert!(w.count(|op| matches!(op, Op::Checkpoint)) == 1);
        }
        assert!(build("nope", 1, 16).is_none());
    }

    #[test]
    fn the_seed_changes_data_and_only_data() {
        let (a, b, c) = (
            build("churn", 1, 16).unwrap(),
            build("churn", 1, 16).unwrap(),
            build("churn", 2, 16).unwrap(),
        );
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.ops, b.ops);
        assert_ne!(a.batches, c.batches);
        assert_eq!(a.ops, c.ops);
        assert_eq!(a.queries, c.queries);
        assert_eq!(a.streams, c.streams);
        let (d, e) = (
            build("disordered", 1, 16).unwrap(),
            build("disordered", 2, 16).unwrap(),
        );
        assert_ne!(d.batches, e.batches);
        assert_eq!(d.queries, e.queries);
    }

    #[test]
    fn full_scale_sizes_are_the_documented_ones() {
        let f = build("fanout", 1, 1).unwrap();
        assert_eq!((f.batches.len(), f.source_tuples()), (1024, 131_072));
        assert_eq!((f.queries.len(), f.startup), (128, 128));
        let t = build("trickle", 1, 1).unwrap();
        assert_eq!((t.batches.len(), t.source_tuples()), (32_768, 32_768));
        assert_eq!(t.queries, f.queries);
        let w = build("windowed", 1, 1).unwrap();
        assert_eq!(w.source_tuples(), 32_400);
        assert_eq!(w.queries.len(), 48);
        let c = build("churn", 1, 1).unwrap();
        assert_eq!(c.count(|op| matches!(op, Op::Publish(_))), 1000);
        assert_eq!(c.count(|op| matches!(op, Op::Submit(_))), 200);
        assert_eq!(c.count(|op| matches!(op, Op::Unsubscribe(_))), 200);
        assert_eq!(c.count(|op| matches!(op, Op::Reoptimize)), 4);
        assert_eq!(c.count(|op| matches!(op, Op::Autotune)), 1);
        assert_eq!(c.source_tuples(), 16_000);
    }

    #[test]
    fn churn_input_is_in_global_timestamp_order() {
        let c = build("churn", 3, 16).unwrap();
        let ts: Vec<_> = c.reference_input.iter().map(|t| t.timestamp).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }
}
