//! The behavioural contract, as data: every seed of the three sweeps CI
//! runs (`cosmos-sim sweep --seeds 64`, `… --disorder`, `… --overload`)
//! must pass every oracle *and* reproduce the digest recorded in
//! `golden/sweep_digests.txt`. A refactor that keeps behaviour keeps
//! this file; a change that alters behaviour on purpose regenerates it
//! from the three sweeps and says why.

use cosmos_testkit::{check_scenario_opts, gen, CheckOptions};

/// The budget `cosmos-sim --overload` arms by default: far above any
/// generated scenario's peak, a pure accounting witness.
const WITNESS_BUDGET: u64 = u64::MAX / 4;

/// The recorded digests of one sweep mode, indexed by seed.
fn golden(mode: &str) -> Vec<u64> {
    let mut digests = Vec::new();
    for line in include_str!("golden/sweep_digests.txt").lines() {
        let mut fields = line.split_whitespace();
        if fields.next() != Some(mode) {
            continue;
        }
        let seed: usize = fields.next().and_then(|s| s.parse().ok()).expect("seed");
        assert_eq!(seed, digests.len(), "{mode}: seeds are listed 0.. in order");
        let digest = fields.next().expect("digest");
        digests.push(u64::from_str_radix(digest, 16).expect("16 hex digits"));
    }
    assert_eq!(
        digests.len(),
        64,
        "{mode}: one digest per seed of the sweep"
    );
    digests
}

/// Re-run one sweep in-process, exactly as `cosmos-sim sweep` checks it.
fn sweep_matches_golden(mode: &str) {
    let opts = CheckOptions {
        overload_budget: (mode == "overload").then_some(WITNESS_BUDGET),
        ..CheckOptions::default()
    };
    for (seed, want) in golden(mode).into_iter().enumerate() {
        let seed = seed as u64;
        let scenario = if mode == "disorder" {
            gen::generate_disordered(seed)
        } else {
            gen::generate(seed)
        };
        let report = check_scenario_opts(&scenario, &opts)
            .unwrap_or_else(|f| panic!("{mode} seed {seed}: {f}"));
        assert_eq!(
            report.digest, want,
            "{mode} seed {seed}: digest {:016x}, golden {want:016x}",
            report.digest
        );
    }
}

#[test]
fn default_sweep_matches_golden() {
    sweep_matches_golden("default");
}

#[test]
fn disorder_sweep_matches_golden() {
    sweep_matches_golden("disorder");
}

#[test]
fn overload_sweep_matches_golden() {
    sweep_matches_golden("overload");
}
