//! Harness self-tests: determinism, shrinking, and replay-file
//! round-tripping.
//!
//! That the oracles catch real bugs is shown elsewhere, without a bug in
//! the product: the oracles' unit tests feed them tampered run outcomes,
//! `cosmos-verify`'s tests tamper snapshots, and CI sweeps builds that
//! `ci/mutants/*.patch` break on purpose.

use cosmos_testkit::{check_scenario, gen, run_scenario, shrink, Event, RunOptions, Scenario};

/// Out-of-order scenarios of `seeds`, named for failure messages.
fn disordered(seeds: &[u64]) -> Vec<(String, Scenario)> {
    let named = |&seed: &u64| {
        (
            format!("disordered seed {seed}"),
            gen::generate_disordered(seed),
        )
    };
    seeds.iter().map(named).collect()
}

/// The scenarios the planted merge bug (`ci/mutants/merge_skip_retighten.patch`)
/// fails first. In order a single-stream selection is served by the CBN
/// alone and never merges, so only 2 of the first 64 default seeds merge
/// a pair the bug breaks: 3 and 46. Out of order every query is grouped,
/// and seeds 1, 6 and 9 are among the catches.
fn bug_scenarios() -> Vec<(String, Scenario)> {
    let default = [3u64, 46].map(|seed| (format!("seed {seed}"), gen::generate(seed)));
    default.into_iter().chain(disordered(&[1, 6, 9])).collect()
}

/// Seed expansion is a pure function of the seed, and executing the same
/// scenario twice produces identical digests — the contract that makes
/// `cosmos-sim run --seed S` replayable bit-for-bit.
#[test]
fn seed_expansion_and_execution_are_deterministic() {
    let a = gen::generate(7);
    let b = gen::generate(7);
    assert_eq!(a, b, "seed expansion must be a pure function of the seed");

    let r1 = run_scenario(&a, &RunOptions::default()).expect("run");
    let r2 = run_scenario(&b, &RunOptions::default()).expect("run");
    assert_eq!(r1.digest, r2.digest, "same scenario, same digest");
    assert_eq!(r1.routing_digests, r2.routing_digests);
    assert_eq!(r1.published.len(), r2.published.len());
}

/// The seeds the planted merge bug fails pass every oracle on a healthy
/// build — the canary's failures are the bug's doing, not the harness's.
#[test]
fn bug_seeds_pass_on_healthy_build() {
    for (seed, scenario) in bug_scenarios() {
        check_scenario(&scenario).unwrap_or_else(|f| panic!("{seed}: {f}"));
    }
}

/// The shrinker keeps what its predicate needs and drops the rest. The
/// predicate runs each candidate — every subsequence of a scenario's
/// events must run, whatever kinds it drops — and holds while a query is
/// accepted and three tuples are published. The result publishes exactly
/// three tuples and needs every event it kept.
#[test]
fn shrinker_minimizes_failing_scenarios() {
    let opts = RunOptions {
        static_verify: false,
        bound_checks: false,
        ..RunOptions::default()
    };
    let published = |c: &Scenario| {
        let run = run_scenario(c, &opts).expect("every subsequence of a scenario runs");
        if run.queries.is_empty() {
            0
        } else {
            run.published.len()
        }
    };
    let holds = |c: &Scenario| published(c) >= 3;
    let scenario = gen::generate(3);
    assert!(holds(&scenario), "seed 3 accepts a query and publishes");
    let small = shrink(&scenario, 300, holds);
    assert_eq!(published(&small), 3, "{}", small.summary());
    let offered: usize = (small.events.iter())
        .map(|e| match e {
            Event::Publish { tuples } => tuples.len(),
            _ => 0,
        })
        .sum();
    assert_eq!(offered, 3, "{}", small.summary());
    for i in 0..small.events.len() {
        let mut fewer = small.clone();
        fewer.events.remove(i);
        assert!(
            !holds(&fewer),
            "event #{i} of {} is not needed",
            small.summary()
        );
    }
}

/// Runtime-determinism probe — the dynamic twin of the clippy gate's
/// wall-clock and entropy bans (DESIGN §15): a full scenario run never
/// pushes the metrics hub's virtual clock past the largest published
/// tuple timestamp, and the clock never regresses. A wall-clock or
/// ambient-randomness leak into the metrics path would trip this at
/// runtime even if the static gate missed the site.
#[test]
fn full_run_makes_zero_runtime_determinism_violations() {
    for seed in [1u64, 3, 6, 7] {
        let run = run_scenario(&gen::generate(seed), &RunOptions::default())
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(
            run.runtime_violations.is_empty(),
            "seed {seed}: {:?}",
            run.runtime_violations
        );
        assert!(
            !run.published.is_empty(),
            "seed {seed}: no publishes — the probe never saw a clock advance"
        );
    }
}

/// A scenario file written while scenarios still carried a registry
/// replica count (`cosmos-sim run --seed 3 --no-shrink --out F` on a
/// build the merge mutant broke; its config holds `"dht_replicas":2`)
/// still loads: the retired key is ignored, the file parses to the
/// scenario seed 3 expands to today, and it replays to seed 3's golden
/// digest.
#[test]
fn a_file_with_the_retired_replica_key_replays_unchanged() {
    let text = include_str!("fixtures/seed3_with_dht_replicas.json");
    assert!(
        text.contains("\"dht_replicas\":2"),
        "the fixture has the key"
    );
    let scenario = Scenario::from_json(text).expect("the retired key is ignored");
    assert_eq!(scenario, gen::generate(3));
    let report = check_scenario(&scenario).unwrap_or_else(|f| panic!("{f}"));
    assert_eq!(format!("{:016x}", report.digest), "c3309989aeb5f53d");
}

/// Failure files replay: JSON round-trips losslessly and version
/// mismatches are rejected instead of silently misinterpreted.
#[test]
fn scenario_json_round_trips() {
    let scenario = gen::generate(3);
    let json = scenario.to_json();
    let back = Scenario::from_json(&json).expect("parse back");
    assert_eq!(scenario, back);

    let mut stale = scenario;
    stale.version += 1;
    assert!(
        Scenario::from_json(&stale.to_json()).is_err(),
        "future versions must be rejected"
    );
}
