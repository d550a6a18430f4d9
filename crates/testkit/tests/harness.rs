//! Harness self-tests: determinism, oracle sensitivity, shrinking, and
//! replay-file round-tripping.
//!
//! The fault-injection flags ([`cosmos_query::merge::faultinject`],
//! [`cosmos::overload::faultinject`]) are per thread, so a test that
//! injects a bug cannot reach the tests cargo runs beside it on other
//! threads. It arms the bug through a guard that disarms on drop (panic
//! included), so the bug never outlives the test on its own thread
//! either.

use cosmos::overload::faultinject::set_drop_shed_ledger;
use cosmos_query::merge::faultinject;
use cosmos_testkit::{
    check_scenario, check_scenario_opts, gen, run_scenario, shrink, CheckOptions, Event,
    RunOptions, Scenario,
};

/// Arms the deliberate merge bug for one scope; disarms on drop.
struct InjectedBug;

impl InjectedBug {
    fn arm() -> Self {
        faultinject::set_skip_retighten(true);
        InjectedBug
    }
}

impl Drop for InjectedBug {
    fn drop(&mut self) {
        faultinject::set_skip_retighten(false);
    }
}

/// Arms the shed-ledger leak for one scope; disarms on drop.
struct ShedLeak;

impl ShedLeak {
    fn arm() -> Self {
        set_drop_shed_ledger(true);
        ShedLeak
    }
}

impl Drop for ShedLeak {
    fn drop(&mut self) {
        set_drop_shed_ledger(false);
    }
}

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

/// The scenarios the static verifier must catch the injected merge bug
/// in. In order a single-stream selection is served by the CBN alone and
/// never merges, so only 2 of the first 64 default seeds merge a pair the
/// bug breaks: 3 and 46. Out of order every query is grouped, and seeds
/// 1 and 6 are the first two catches, as they were in order before.
fn bug_scenarios() -> Vec<(String, Scenario)> {
    let default = [3u64, 46].map(|seed| (format!("seed {seed}"), gen::generate(seed)));
    default.into_iter().chain(disordered(&[1, 6])).collect()
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

/// Acceptance check from the issue: a deliberately broken merge layer —
/// selection re-tightening skipped, so members of merged groups
/// over-deliver — is caught by the *metamorphic* oracle alone (the
/// differential oracle is disabled here), within a 64-seed sweep. Out of
/// order, seeds 6 and 9 are the first two such catches; in order there
/// is none among the first 64 seeds (3 and 46 are the static verifier's).
#[test]
fn injected_merge_bug_is_caught_by_metamorphic_oracle() {
    let _bug = InjectedBug::arm();
    let opts = CheckOptions {
        differential: false,
        metamorphic_merge: true,
        metamorphic_tree: false,
        metamorphic_batch: false,
        determinism: false,
        static_verify: false,
        metrics_conservation: false,
        bound_soundness: false,
        overload_budget: None,
    };
    for (seed, scenario) in disordered(&[6, 9]) {
        let failure = check_scenario_opts(&scenario, &opts)
            .expect_err("the broken merge layer must over-deliver");
        assert_eq!(
            failure.oracle, "metamorphic-merge",
            "{seed}: wrong oracle fired: {failure}"
        );
    }
    // In order, seed 1's selections are served by the CBN alone: no
    // split filter is installed for the bug to break.
    check_scenario_opts(&gen::generate(1), &opts).expect("seed 1 merges no selection");
}

/// Acceptance check from the issue: the *static* verifier catches the
/// same injected merge bug symbolically — as a V0501 split-filter
/// violation — with every publish event stripped from the scenario, so
/// not a single tuple flows. The dynamic oracles above need deliveries
/// to diverge; `cosmos-verify` proves the over-delivery from the routing
/// state alone.
#[test]
fn injected_merge_bug_is_caught_statically_before_any_publish() {
    let _bug = InjectedBug::arm();
    let opts = CheckOptions {
        differential: false,
        metamorphic_merge: false,
        metamorphic_tree: false,
        metamorphic_batch: false,
        determinism: false,
        static_verify: true,
        metrics_conservation: false,
        bound_soundness: false,
        overload_budget: None,
    };
    for (seed, mut scenario) in bug_scenarios() {
        scenario
            .events
            .retain(|e| !matches!(e, Event::Publish { .. }));
        let failure = check_scenario_opts(&scenario, &opts)
            .expect_err("the static verifier must reject the unre-tightened split filter");
        assert!(
            failure.oracle.starts_with("static-verify"),
            "{seed}: wrong oracle fired: {failure}"
        );
        assert!(
            failure.detail.contains("V0501"),
            "{seed}: expected a V0501 split-filter violation: {failure}"
        );
    }
}

/// The same seeds pass every oracle on a healthy build — the failures
/// above are the bug's doing, not the harness's.
#[test]
fn bug_seeds_pass_on_healthy_build() {
    assert!(!faultinject::skip_retighten());
    for (seed, scenario) in bug_scenarios().into_iter().chain(disordered(&[9])) {
        check_scenario(&scenario).unwrap_or_else(|f| panic!("{seed}: {f}"));
    }
}

/// The shrinker returns a strictly smaller scenario that still fails,
/// exercising the skip-tolerance of every event kind.
#[test]
fn shrinker_minimizes_failing_scenarios() {
    let _bug = InjectedBug::arm();
    let scenario = gen::generate(3);
    assert!(check_scenario(&scenario).is_err(), "seed 3 must fail armed");
    let small = shrink(&scenario, 120, &CheckOptions::default());
    assert!(
        small.events.len() < scenario.events.len(),
        "no events dropped ({} of {})",
        small.events.len(),
        scenario.events.len()
    );
    assert!(
        check_scenario(&small).is_err(),
        "shrunk scenario must still fail"
    );
}

/// Shrinking checks under the options of the run that failed. With the
/// shed-ledger leak armed, seed 0 breaks the conservation identity under
/// a 64-byte budget with bounds off (as CI's overload canary runs it);
/// under the default options — no budget, so nothing is shed — it
/// passes, and a shrinker that re-checked with those would keep every
/// event.
#[test]
fn shrinking_keeps_the_failing_runs_options() {
    let _leak = ShedLeak::arm();
    let opts = CheckOptions {
        bound_soundness: false,
        overload_budget: Some(64),
        ..CheckOptions::default()
    };
    let scenario = gen::generate(0);
    let failure = check_scenario_opts(&scenario, &opts).expect_err("seed 0 sheds and leaks");
    assert!(
        failure.oracle.starts_with("metrics-conservation"),
        "{failure}"
    );
    assert!(check_scenario(&scenario).is_ok(), "no budget, no shed");
    let small = shrink(&scenario, 40, &opts);
    assert!(
        small.events.len() < scenario.events.len(),
        "no events dropped ({} of {})",
        small.events.len(),
        scenario.events.len()
    );
    let failure = check_scenario_opts(&small, &opts).expect_err("the shrunk scenario still fails");
    assert!(
        failure.oracle.starts_with("metrics-conservation"),
        "{failure}"
    );
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
