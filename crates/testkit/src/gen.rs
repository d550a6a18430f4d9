//! Seed → scenario expansion.
//!
//! Everything is drawn from one `StdRng`, so a seed fully determines the
//! scenario: topology, sensor deployments, query batch, input tuples,
//! and the interleaving of submissions, withdrawals, re-optimizations
//! and link failures. Queries come from the workload generator
//! ([`cosmos_workload::QueryGenerator`]) rejection-sampled down to the
//! streams the scenario actually registers; inputs come from the sensor
//! generators, globally timestamp-ordered and cut into publish batches.

use crate::scenario::{Event, Scenario, ScenarioConfig, TopologySpec, SCENARIO_VERSION};
use cosmos_spe::AnalyzedQuery;
use cosmos_workload::sensor::{merged_inputs, stream_name};
use cosmos_workload::{
    sensor_catalog, DisorderSpec, QueryGenConfig, QueryGenerator, SensorGenerator, SENSOR_STREAMS,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Expand a seed into a scenario.
pub fn generate(seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC05_305);

    // Deployment shape. A fifth of the scenarios exercise per-source
    // trees (link failures repair every affected per-source tree).
    let per_source_trees = rng.gen_bool(0.2);
    let (topology, nodes) = match rng.gen_range(0..6u32) {
        0 | 1 => (
            TopologySpec::BarabasiAlbert { m: 2 },
            rng.gen_range(6..=20usize),
        ),
        2 => (
            TopologySpec::Waxman {
                alpha: 0.6,
                beta: 0.4,
            },
            rng.gen_range(6..=20usize),
        ),
        3 => (TopologySpec::Line, rng.gen_range(6..=14usize)),
        4 => (TopologySpec::Star, rng.gen_range(6..=16usize)),
        _ => {
            let width = rng.gen_range(2..=4usize);
            (
                TopologySpec::Grid { width },
                width * rng.gen_range(2..=5usize),
            )
        }
    };
    let config = ScenarioConfig {
        nodes,
        topology,
        cosmos_seed: seed ^ 0xA5A5,
        processor_fraction: [0.2, 0.25, 0.34, 0.5][rng.gen_range(0..4usize)],
        affinity_candidates: if rng.gen_bool(0.8) { 1 } else { 2 },
        per_source_trees,
        disorder: None,
    };
    // The retired registry-replica axis: its draws stay and their values
    // are discarded, so every seed still expands to the same scenario
    // (otherwise the 192 golden digests would move).
    if rng.gen_bool(0.25) {
        let _ = rng.gen_range(2..=3usize);
    }

    // Sensor deployments: k consecutive streams (consecutive so the
    // workload generator's neighbor joins can stay inside the set). One
    // may be registered late, mid-schedule, to exercise the
    // advertise/subscribe decoupling: its earlier tuples bounce.
    let k = rng.gen_range(2..=4usize);
    let base = rng.gen_range(0..SENSOR_STREAMS - k);
    let streams: Vec<String> = (base..base + k).map(stream_name).collect();
    let late_stream: Option<String> = if k >= 3 && rng.gen_bool(0.3) {
        Some(streams[k - 1].clone())
    } else {
        None
    };

    // Query batch: rejection-sample the workload generator down to the
    // registered streams. Short windows relative to the input horizon
    // keep sliding-window behavior observable.
    let catalog = sensor_catalog();
    let qcfg = QueryGenConfig {
        join_fraction: 0.25,
        agg_fraction: 0.15,
        windows_ms: vec![5_000, 15_000, 60_000],
        ..QueryGenConfig::default()
    };
    let mut qgen = QueryGenerator::new(qcfg, seed ^ 0x51);
    let n_queries = rng.gen_range(3..=8usize);
    // (text, needs the late stream)
    let mut queries: Vec<(String, bool)> = Vec::new();
    let mut attempts = 0usize;
    while queries.len() < n_queries && attempts < 20_000 {
        attempts += 1;
        let text = qgen.next_query();
        let Some(refs) = streams_of(&text, &catalog) else {
            continue;
        };
        if refs.iter().all(|s| streams.contains(s)) {
            let needs_late = late_stream.as_ref().is_some_and(|late| refs.contains(late));
            queries.push((text, needs_late));
        }
    }
    // Pathological configs still terminate: pad with plain selections
    // over registered streams.
    while queries.len() < n_queries {
        let s = &streams[rng.gen_range(0..streams.len() - usize::from(late_stream.is_some()))];
        queries.push((
            format!("SELECT node_id, ambient_temp FROM {s} [Range 15 Second]"),
            false,
        ));
    }

    // Inputs: every registered stream emits over the full horizon, then
    // the merged, timestamp-ordered sequence is cut into publish batches.
    let mut gens: Vec<SensorGenerator> = (base..base + k)
        .map(|i| SensorGenerator::new(i, seed))
        .collect();
    let horizon_ms = rng.gen_range(20..=40i64) * 1000;
    let all_inputs = merged_inputs(&mut gens, horizon_ms);
    let n_chunks = rng.gen_range(3..=6usize).min(all_inputs.len().max(1));
    let mut cuts: Vec<usize> = (0..n_chunks - 1)
        .map(|_| rng.gen_range(0..=all_inputs.len()))
        .collect();
    cuts.sort_unstable();
    cuts.insert(0, 0);
    cuts.push(all_inputs.len());

    // Assemble the schedule: early registers up front, then publish
    // batches in order with everything else spliced in between.
    let mut events: Vec<Event> = streams
        .iter()
        .filter(|s| late_stream.as_ref() != Some(*s))
        .map(|s| Event::Register {
            stream: s.clone(),
            origin: rng.gen_range(0..nodes as u32),
        })
        .collect();
    let head = events.len();
    for w in cuts.windows(2) {
        if w[0] < w[1] {
            events.push(Event::Publish {
                tuples: all_inputs[w[0]..w[1]].to_vec(),
            });
        }
    }

    // The late register goes somewhere mid-schedule.
    if let Some(late) = &late_stream {
        let at = rng.gen_range(head..=events.len());
        events.insert(
            at,
            Event::Register {
                stream: late.clone(),
                origin: rng.gen_range(0..nodes as u32),
            },
        );
    }
    let late_pos = |events: &[Event]| {
        events.iter().position(
            |e| matches!(e, Event::Register { stream, .. } if Some(stream) == late_stream.as_ref()),
        )
    };

    // Submissions: anywhere after the head registers; queries over the
    // late stream only after its registration.
    for (label, (text, needs_late)) in queries.into_iter().enumerate() {
        let lo = if needs_late {
            late_pos(&events).map(|p| p + 1).unwrap_or(head)
        } else {
            head
        };
        let at = rng.gen_range(lo..=events.len());
        events.insert(
            at,
            Event::Submit {
                label: label as u32,
                user: rng.gen_range(0..nodes as u32),
                text,
            },
        );
    }

    // Withdrawals: after the corresponding submission.
    let n_unsub = rng.gen_range(0..=2usize).min(n_queries);
    let mut unsub_labels: Vec<u32> = (0..n_queries as u32).collect();
    for _ in 0..n_unsub {
        let label = unsub_labels.remove(rng.gen_range(0..unsub_labels.len()));
        let submit_at = events
            .iter()
            .position(|e| matches!(e, Event::Submit { label: l, .. } if l == &label))
            .expect("submitted above");
        let at = rng.gen_range(submit_at + 1..=events.len());
        events.insert(at, Event::Unsubscribe { label });
    }

    // Maintenance events.
    for _ in 0..rng.gen_range(0..=2usize) {
        let at = rng.gen_range(head..=events.len());
        events.insert(at, Event::Reoptimize);
    }
    if rng.gen_bool(0.5) {
        let at = rng.gen_range(head..=events.len());
        events.insert(at, Event::OptimizeTree);
    }
    for _ in 0..rng.gen_range(0..=2usize) {
        let at = rng.gen_range(head..=events.len());
        events.insert(
            at,
            Event::FailLink {
                nth: rng.gen_range(0..64u32),
            },
        );
    }

    Scenario {
        version: SCENARIO_VERSION,
        seed,
        config,
        events,
    }
}

/// Expand a seed into a *disordered* scenario: the same deployment and
/// event schedule as [`generate`], with every publish batch run through
/// a seeded [`DisorderSpec`] (skew, stragglers, duplicates) drawn from
/// the same seed. Batch boundaries are preserved — disorder reshuffles
/// arrivals *within* each publish event — so the set of tuples any
/// submission or registration boundary has seen is identical to the
/// in-order scenario. That is what makes `disorder_equivalence` an
/// exact metamorphic oracle: the two runs must converge to the same
/// post-watermark results.
pub fn generate_disordered(seed: u64) -> Scenario {
    let mut sc = generate(seed);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD15_02DE);
    let spec = DisorderSpec {
        seed: rng.gen(),
        skew_ms: rng.gen_range(100..=2_000),
        straggler_ms: rng.gen_range(500..=5_000),
        straggler_prob: rng.gen_range(0.10..=0.30),
        duplicate_prob: rng.gen_range(0.05..=0.15),
    };
    for ev in &mut sc.events {
        if let Event::Publish { tuples } = ev {
            *tuples = spec.apply(tuples);
        }
    }
    sc.config.disorder = Some(spec);
    sc
}

/// The stream names a query references, or `None` if it does not even
/// analyze against the full sensor catalog.
fn streams_of(text: &str, catalog: &cosmos_query::StatsCatalog) -> Option<Vec<String>> {
    let parsed = cosmos_cql::parse_query(text).ok()?;
    let analyzed = AnalyzedQuery::analyze(&parsed, catalog.schema_fn()).ok()?;
    Some(
        analyzed
            .streams
            .iter()
            .map(|b| b.stream.as_str().to_string())
            .collect(),
    )
}
