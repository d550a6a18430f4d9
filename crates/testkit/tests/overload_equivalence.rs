//! Metamorphic property for the overload controller: armed with a
//! budget above every node's actual peak intake, the controller must be
//! a *pure witness* — byte-identical digests and metrics documents to an
//! unarmed run, zero shed, exact ledger conservation — across 64
//! generated seeds. Armed with a budget that sheds, honest accounting
//! keeps the ledger conserved. That the conservation oracle catches a
//! shed missing from the ledger is shown by `cosmos`'s overload unit
//! tests on a ledger and by CI's sweep of
//! `ci/mutants/shed_ledger_leak.patch`.

use cosmos_testkit::{gen, run_scenario, RunOptions};

#[test]
fn above_peak_budget_is_a_pure_witness_across_seeds() {
    for seed in 0..64u64 {
        let scenario = gen::generate(seed);
        let opts = RunOptions {
            static_verify: false,
            bound_checks: false,
            ..RunOptions::default()
        };
        let plain = run_scenario(&scenario, &opts).expect("unarmed run");
        let budgeted = run_scenario(
            &scenario,
            &RunOptions {
                overload_budget: Some(u64::MAX / 4),
                ..opts
            },
        )
        .expect("budgeted run");
        assert_eq!(
            budgeted.overload_shed_tuples, 0,
            "seed {seed}: an above-peak budget must never shed"
        );
        assert_eq!(
            plain.digest, budgeted.digest,
            "seed {seed}: arming the controller changed observable behavior"
        );
        assert_eq!(
            plain.metrics_json, budgeted.metrics_json,
            "seed {seed}: arming the controller perturbed the metrics document"
        );
        assert_eq!(
            plain.routing_digests, budgeted.routing_digests,
            "seed {seed}: arming the controller perturbed routing state"
        );
        assert!(
            budgeted.metrics_violations.is_empty(),
            "seed {seed}: ledger conservation broken: {:?}",
            budgeted.metrics_violations
        );
    }
}

#[test]
fn honest_shedding_keeps_the_ledger_conserved() {
    // A 64-byte window budget sheds on any realistic delivery volume;
    // find the first seed that actually sheds (deterministically) so
    // the shed path is guaranteed to run.
    let tight = RunOptions {
        static_verify: false,
        bound_checks: false,
        overload_budget: Some(64),
        ..RunOptions::default()
    };
    let (seed, honest) = (0..16u64)
        .find_map(|seed| {
            let r = run_scenario(&gen::generate(seed), &tight).expect("tight run");
            (r.overload_shed_tuples > 0).then_some((seed, r))
        })
        .expect("some seed in 0..16 must shed under a 64-byte budget");
    assert!(
        honest.metrics_violations.is_empty(),
        "seed {seed}: honest shed broke conservation: {:?}",
        honest.metrics_violations
    );
}
