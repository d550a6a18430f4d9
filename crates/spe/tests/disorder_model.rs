//! Differential test of out-of-order intake against a reference model
//! that keeps the bookkeeping the obvious way: one set of
//! `(stream, timestamp, values)` for exact-duplicate detection, one map
//! of last watermarks by stream name, staging ordered by `(timestamp,
//! arrival)`. Whatever structures the executor uses, every arrival and
//! every watermark must leave the same outputs, frontier, staging
//! occupancy and counters.

use cosmos_cql::parse_query;
use cosmos_spe::{AnalyzedQuery, DisorderStats, Executor, LatePolicy};
use cosmos_types::{AttrType, Schema, TimeDelta, Timestamp, Tuple, Value};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The streams arrivals and watermarks are dealt over; `Z` is bound by
/// no query.
const STREAMS: [&str; 3] = ["X", "Y", "Z"];

fn catalog(name: &str) -> Option<Schema> {
    STREAMS[..2]
        .contains(&name)
        .then(|| Schema::of(&[("k", AttrType::Int), ("v", AttrType::Int)]))
}

fn executor(text: &str) -> Executor {
    let q = AnalyzedQuery::analyze(&parse_query(text).unwrap(), catalog).unwrap();
    Executor::new(q, "result").unwrap()
}

struct Model {
    policy: LatePolicy,
    /// The query's bound streams.
    bound: Vec<&'static str>,
    watermarks: HashMap<String, i64>,
    frontier: i64,
    seq: u64,
    staging: BTreeMap<(i64, u64), Tuple>,
    seen: BTreeSet<(String, i64, Vec<Value>)>,
    stats: DisorderStats,
}

impl Model {
    fn grace(&self) -> i64 {
        match self.policy {
            LatePolicy::Drop => 0,
            LatePolicy::Revise { grace } => grace.millis(),
        }
    }

    /// One arrival; true when it is folded in late (processed now).
    fn arrive(&mut self, t: &Tuple) -> bool {
        let ts = t.timestamp.millis();
        let key = (t.stream.as_str().to_string(), ts, t.values().to_vec());
        self.stats.arrived += 1;
        if self.seen.contains(&key) {
            self.stats.duplicates += 1;
        } else if ts > self.frontier {
            self.seen.insert(key);
            self.seq += 1;
            self.staging.insert((ts, self.seq), t.clone());
        } else if matches!(self.policy, LatePolicy::Revise { .. })
            && ts >= self.frontier.saturating_sub(self.grace())
        {
            self.seen.insert(key);
            self.stats.late += 1;
            self.stats.drained += 1;
            return true;
        } else {
            self.stats.shed += 1;
        }
        false
    }

    /// One watermark; the staged tuples it releases, in drain order.
    fn watermark(&mut self, stream: &str, wm: i64) -> Vec<Tuple> {
        let last = self.watermarks.entry(stream.to_string()).or_insert(wm);
        *last = (*last).max(wm);
        let of = |s: &&str| self.watermarks.get(*s).copied().unwrap_or(i64::MIN);
        let eff = self.bound.iter().map(of).min().expect("a bound stream");
        let mut drained = Vec::new();
        if eff > self.frontier {
            self.frontier = eff;
            while self
                .staging
                .first_key_value()
                .is_some_and(|(k, _)| k.0 <= eff)
            {
                drained.push(self.staging.pop_first().expect("checked first").1);
            }
            let horizon = eff.saturating_sub(self.grace());
            self.seen.retain(|(_, ts, _)| *ts >= horizon);
            self.stats.drained += drained.len() as u64;
        }
        drained
    }
}

#[derive(Debug, Clone)]
enum Event {
    Arrive {
        stream: usize,
        secs: i64,
        k: i64,
        v: i64,
    },
    /// Re-send an earlier arrival: an exact duplicate, maybe a straggler.
    Again(usize),
    Watermark {
        stream: usize,
        secs: i64,
    },
}

fn arb_events() -> impl Strategy<Value = Vec<Event>> {
    let arrive =
        || {
            (0..3usize, 0..30i64, 0..3i64, -1..3i64)
                .prop_map(|(stream, secs, k, v)| Event::Arrive { stream, secs, k, v })
        };
    // Arrivals listed twice: the choice is uniform.
    let event = prop_oneof![
        arrive(),
        arrive(),
        (0..64usize).prop_map(Event::Again),
        (0..3usize, 0..34i64).prop_map(|(stream, secs)| Event::Watermark { stream, secs }),
    ];
    proptest::collection::vec(event, 1..60)
}

/// What the engine emits for one tuple the model releases.
type Engine<'a> = &'a mut dyn FnMut(&Tuple) -> Vec<Tuple>;

/// Feed `events` to a disorder-mode executor of `text` and to the model,
/// holding them equal after every event. `process` says what the engine
/// emits for one tuple the model releases (`None` = outputs are not
/// compared, only the bookkeeping).
fn check(
    text: &str,
    bound: &[&'static str],
    policy: LatePolicy,
    events: &[Event],
    mut process: Option<Engine<'_>>,
) {
    let mut ex = executor(text);
    ex.enable_disorder(policy);
    let mut model = Model {
        policy,
        bound: bound.to_vec(),
        watermarks: HashMap::new(),
        frontier: i64::MIN,
        seq: 0,
        staging: BTreeMap::new(),
        seen: BTreeSet::new(),
        stats: DisorderStats::default(),
    };
    let mut sent: Vec<Tuple> = Vec::new();
    for event in events {
        let (got, released) = match event {
            Event::Watermark { stream, secs } => {
                let name = STREAMS[*stream];
                let got = ex.advance_watermark(&name.into(), Timestamp(secs * 1_000));
                (got, model.watermark(name, secs * 1_000))
            }
            arrival => {
                let t = match arrival {
                    Event::Arrive { stream, secs, k, v } => Tuple::new(
                        STREAMS[*stream],
                        Timestamp(secs * 1_000),
                        vec![Value::Int(*k), Value::Int(*v)],
                    ),
                    Event::Again(_) if sent.is_empty() => continue,
                    Event::Again(i) => sent[i % sent.len()].clone(),
                    Event::Watermark { .. } => unreachable!("matched above"),
                };
                sent.push(t.clone());
                let late = model.arrive(&t);
                (ex.push_out_of_order(&t), Vec::from_iter(late.then_some(t)))
            }
        };
        if let Some(process) = process.as_mut() {
            let mut expected = Vec::new();
            for t in &released {
                expected.extend(process(t));
            }
            prop_assert_eq!(got, expected);
        }
        prop_assert_eq!(ex.frontier(), Some(Timestamp(model.frontier)));
        prop_assert_eq!(ex.state_size().staging_rows, model.staging.len());
        let stats = DisorderStats {
            staged: model.staging.len() as u64,
            ..model.stats
        };
        prop_assert_eq!(ex.disorder_stats(), Some(stats));
        prop_assert!(stats.conserved());
    }
}

const SELECT: &str = "SELECT k, v FROM X [Now] WHERE v >= 0";
const JOIN: &str =
    "SELECT A.k, B.v FROM X [Range 5 Second] A, Y [Range 5 Second] B WHERE A.k = B.k";

fn policies() -> [LatePolicy; 2] {
    let grace = TimeDelta::from_secs(3);
    [LatePolicy::Drop, LatePolicy::Revise { grace }]
}

proptest! {
    /// A stateless selection: a released tuple's output does not depend
    /// on order, so it is written out here — under both policies.
    #[test]
    fn selection_intake_matches_the_model(events in arb_events()) {
        let mut project = |t: &Tuple| {
            let passes = t.stream.as_str() == "X" && t.values()[1] >= Value::Int(0);
            Vec::from_iter(passes.then(|| Tuple::new("result", t.timestamp, t.values().to_vec())))
        };
        for policy in policies() {
            check(SELECT, &["X"], policy, &events, Some(&mut project));
        }
    }

    /// A two-stream join: the frontier is the minimum of two watermarks.
    /// Under `Drop` every released tuple is in timestamp order, so an
    /// in-order executor of the same query says what it emits; under
    /// `Revise` the bookkeeping alone is compared.
    #[test]
    fn join_intake_matches_the_model(events in arb_events()) {
        let mut in_order = executor(JOIN);
        let mut push = |t: &Tuple| in_order.push(t);
        let [drop, revise] = policies();
        check(JOIN, &["X", "Y"], drop, &events, Some(&mut push));
        check(JOIN, &["X", "Y"], revise, &events, None);
    }
}
