#![forbid(unsafe_code)]
//! `cosmos-sim` CLI: run, replay, and sweep deterministic scenarios.
//!
//! ```text
//! cosmos-sim run --seed S [--disorder] [--overload [--budget B]] [--no-bounds] [--no-shrink] [--out FILE]
//! cosmos-sim replay FILE [--no-bounds] [--overload [--budget B]]
//! cosmos-sim sweep --seeds N [--start S0] [--disorder] [--overload [--budget B]] [--no-bounds] [--no-shrink] [--out-dir DIR]
//! cosmos-sim snapshot --seed S [--baseline] [--disorder] [--out FILE]
//! cosmos-sim metrics --seed S [--baseline] [--disorder] [--out FILE]
//! cosmos-sim bounds --seed S [--baseline] [--disorder] [--out FILE]
//! cosmos-sim admission-canary
//! cosmos-sim experiments [--scale quick|paper]
//! ```
//!
//! `run` expands one seed and checks every oracle — including the static
//! verifier (`cosmos-verify`), which proves the V1–V6 routing invariants
//! over a network snapshot after every routing-relevant event; on
//! failure the scenario is minimized and written as a replayable JSON
//! file, and for static-verify failures the violating snapshot is
//! written next to it. Shrinking and `replay` check under the flags the
//! run had (bounds, overload budget), so `replay` of a written file with
//! the flags its hint prints re-checks it exactly as the run did (shrunk
//! files stay failing until the bug is fixed, then flip to PASS). `sweep` runs
//! a contiguous seed range, as CI does. `snapshot` dumps the network
//! snapshot a seed's scenario ends in, for `cosmos-verify <file>`.
//! `metrics` dumps the versioned metrics snapshot the same run ends in —
//! per-link/node traffic, observed stream statistics, per-query delivery
//! rates and latencies, and the aggregated router counters. `bounds`
//! runs the bound-soundness oracle on one seed and dumps the final
//! measured-vs-static comparison as a JSON report (exit 1 if any
//! measured metric exceeded its static `cosmos-bound` bound).
//! `admission-canary` submits a deliberately unbounded-state query to a
//! live deployment and exits nonzero unless the admission gate rejects
//! it with a stable `B01xx` code before any tuple is published.
//! `experiments` prints the paper's evaluation ([`cosmos::experiment`])
//! as one markdown report, equal to `tests/golden/experiments_<scale>.txt`
//! (`quick` by default), and exits 1 if a claim it checks fails.
//!
//! `--disorder` expands seeds with [`gen::generate_disordered`] instead:
//! publish batches arrive skewed, with stragglers and duplicates, and
//! the *convergence* oracle replaces the differential one.
//! `--no-bounds` turns the (per-event, and therefore earliest-firing)
//! bound-soundness oracle off for `run`/`sweep`, so a canary failure is
//! attributed to the end-of-run semantic oracles instead.
//!
//! `--overload` arms the overload controller with a uniform per-node
//! delivery budget of `--budget` bytes per 60 s virtual-time window (default
//! `u64::MAX / 4`, far above any generated scenario's peak — a pure
//! accounting witness); a delivery that would cross it is shed. Every
//! run then also checks the ledger conservation identity
//! `offered = delivered + shed` byte-exactly after every event.
//!
//! That the oracles catch real bugs is shown on deliberately broken
//! builds, not by flags: each patch under `ci/mutants/` plants one bug
//! in a copy of the tree (`ci/mutants/build.sh` builds it), and CI
//! requires the patched `cosmos-sim` to fail its sweep through the
//! oracle that guards the broken mechanism.
//!
//! Exit status: 0 all scenarios pass, 1 any oracle failure, 2 usage/IO.

use cosmos::experiment::{self, Scale};
use cosmos_testkit::{
    check_scenario_opts, gen, run_scenario, shrink, CheckOptions, RunOptions, Scenario,
};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("cosmos-sim: {msg}");
    eprintln!(
        "usage: cosmos-sim run --seed S [--disorder] [--no-bounds] \
         [--overload [--budget B]] [--no-shrink] [--out FILE]\n\
         \u{20}      cosmos-sim replay FILE [--no-bounds] [--overload [--budget B]]\n\
         \u{20}      cosmos-sim sweep --seeds N [--start S0] [--disorder] [--no-bounds] \
         [--overload [--budget B]] [--no-shrink] [--out-dir DIR]\n\
         \u{20}      cosmos-sim snapshot --seed S [--baseline] [--disorder] [--out FILE]\n\
         \u{20}      cosmos-sim metrics --seed S [--baseline] [--disorder] [--out FILE]\n\
         \u{20}      cosmos-sim bounds --seed S [--baseline] [--disorder] [--out FILE]\n\
         \u{20}      cosmos-sim admission-canary\n\
         \u{20}      cosmos-sim experiments [--scale quick|paper]"
    );
    ExitCode::from(2)
}

struct Opts {
    seed: u64,
    seeds: u64,
    start: u64,
    no_shrink: bool,
    no_bounds: bool,
    baseline: bool,
    disorder: bool,
    overload: bool,
    budget: u64,
    scale: Scale,
    out: Option<String>,
    out_dir: String,
    files: Vec<String>,
}

impl Opts {
    /// The oracles `run`, `sweep` and `replay` check, and shrinking keeps
    /// failing: all of them, bounds unless `--no-bounds`, under the
    /// `--overload` budget when one is armed.
    fn check_options(&self) -> CheckOptions {
        CheckOptions {
            bound_soundness: !self.no_bounds,
            overload_budget: self.overload.then_some(self.budget),
        }
    }

    /// The flags a written scenario replays under: those of
    /// [`Opts::check_options`].
    fn replay_flags(&self) -> String {
        let mut flags = String::new();
        if self.no_bounds {
            flags += " --no-bounds";
        }
        if self.overload {
            flags += &format!(" --overload --budget {}", self.budget);
        }
        flags
    }

    /// Expand a seed per the `--disorder` flag.
    fn expand(&self, seed: u64) -> Scenario {
        if self.disorder {
            gen::generate_disordered(seed)
        } else {
            gen::generate(seed)
        }
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        return usage("no command");
    };
    let mut o = Opts {
        seed: 0,
        seeds: 64,
        start: 0,
        no_shrink: false,
        no_bounds: false,
        baseline: false,
        disorder: false,
        overload: false,
        budget: u64::MAX / 4,
        scale: Scale::Quick,
        out: None,
        out_dir: "cosmos-sim-failures".into(),
        files: Vec::new(),
    };
    let mut seed_given = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => {
                    o.seed = v;
                    seed_given = true;
                }
                None => return usage("--seed needs an integer"),
            },
            "--seeds" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => o.seeds = v,
                None => return usage("--seeds needs an integer"),
            },
            "--start" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => o.start = v,
                None => return usage("--start needs an integer"),
            },
            "--no-shrink" => o.no_shrink = true,
            "--no-bounds" => o.no_bounds = true,
            "--baseline" => o.baseline = true,
            "--disorder" => o.disorder = true,
            "--overload" => o.overload = true,
            "--budget" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => o.budget = v,
                _ => return usage("--budget needs an integer >= 1"),
            },
            "--scale" => match args.next().as_deref().and_then(Scale::from_name) {
                Some(v) => o.scale = v,
                None => return usage("--scale needs quick or paper"),
            },
            "--out" => match args.next() {
                Some(v) => o.out = Some(v),
                None => return usage("--out needs a path"),
            },
            "--out-dir" => match args.next() {
                Some(v) => o.out_dir = v,
                None => return usage("--out-dir needs a path"),
            },
            "--help" | "-h" => {
                return usage("");
            }
            other if other.starts_with('-') => return usage(&format!("unknown flag '{other}'")),
            file => o.files.push(file.to_string()),
        }
    }
    match cmd.as_str() {
        "run" => {
            if !seed_given {
                return usage("run needs --seed");
            }
            if run_one(o.seed, &o) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "replay" => {
            if o.files.len() != 1 {
                return usage("replay needs exactly one scenario file");
            }
            replay(&o.files[0], &o)
        }
        "sweep" => {
            let mut failed = 0u64;
            for seed in o.start..o.start + o.seeds {
                if !run_one(seed, &o) {
                    failed += 1;
                }
            }
            println!(
                "sweep: {}/{} seeds passed (start {})",
                o.seeds - failed,
                o.seeds,
                o.start
            );
            if failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "snapshot" => {
            if !seed_given {
                return usage("snapshot needs --seed");
            }
            dump_snapshot(&o)
        }
        "metrics" => {
            if !seed_given {
                return usage("metrics needs --seed");
            }
            dump_metrics(&o)
        }
        "bounds" => {
            if !seed_given {
                return usage("bounds needs --seed");
            }
            check_bounds(&o)
        }
        "admission-canary" => admission_canary(),
        "experiments" => experiments(o.scale),
        other => usage(&format!("unknown command '{other}'")),
    }
}

/// Run one seed's scenario to the end and dump the resulting network
/// snapshot as `cosmos-verify` input.
fn dump_snapshot(o: &Opts) -> ExitCode {
    let scenario = o.expand(o.seed);
    let opts = RunOptions {
        merging: !o.baseline,
        static_verify: false,
        ..RunOptions::default()
    };
    let outcome = match run_scenario(&scenario, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cosmos-sim: seed {}: {e}", o.seed);
            return ExitCode::from(2);
        }
    };
    let Some(json) = outcome.final_snapshot else {
        eprintln!("cosmos-sim: seed {}: run produced no snapshot", o.seed);
        return ExitCode::from(2);
    };
    let path = o
        .out
        .clone()
        .unwrap_or_else(|| format!("seed-{}.snapshot.json", o.seed));
    match std::fs::write(&path, json) {
        Ok(()) => {
            println!("wrote {path} (verify with: cosmos-verify {path})");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cosmos-sim: could not write {path}: {e}");
            ExitCode::from(2)
        }
    }
}

/// Run one seed's scenario to the end and dump the metrics snapshot it
/// produced. Any metrics-conservation violation the run recorded makes
/// the command fail.
fn dump_metrics(o: &Opts) -> ExitCode {
    let scenario = o.expand(o.seed);
    let opts = RunOptions {
        merging: !o.baseline,
        static_verify: false,
        ..RunOptions::default()
    };
    let outcome = match run_scenario(&scenario, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cosmos-sim: seed {}: {e}", o.seed);
            return ExitCode::from(2);
        }
    };
    if let Some((ev_idx, detail)) = outcome.metrics_violations.first() {
        eprintln!(
            "cosmos-sim: seed {}: metrics conservation broken after event #{ev_idx}: {detail}",
            o.seed
        );
        return ExitCode::FAILURE;
    }
    let Some(json) = outcome.metrics_json else {
        eprintln!("cosmos-sim: seed {}: run produced no metrics", o.seed);
        return ExitCode::from(2);
    };
    let path = o
        .out
        .clone()
        .unwrap_or_else(|| format!("seed-{}.metrics.json", o.seed));
    match std::fs::write(&path, json) {
        Ok(()) => {
            println!("wrote {path}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cosmos-sim: could not write {path}: {e}");
            ExitCode::from(2)
        }
    }
}

/// Submit a deliberately unbounded-state query (a join whose buffer is
/// never evicted under an `[Unbounded]` window) to a live deployment.
/// The `cosmos-bound` admission gate must reject it with a stable
/// `B01xx` error before any tuple is published; if the query is
/// admitted, the gate is broken and the canary exits nonzero.
fn admission_canary() -> ExitCode {
    use cosmos_types::NodeId;
    let mut sys = match cosmos::Cosmos::new(cosmos::CosmosConfig {
        nodes: 8,
        seed: 1,
        ..cosmos::CosmosConfig::default()
    }) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cosmos-sim: building deployment: {e}");
            return ExitCode::from(2);
        }
    };
    let sensors = cosmos_workload::sensor_catalog();
    for (i, stream) in ["sensors_00", "sensors_01"].into_iter().enumerate() {
        let key = stream.into();
        let (Some(schema), Some(stats)) = (sensors.schema(&key), sensors.stats(&key)) else {
            eprintln!("cosmos-sim: sensor catalog is missing {stream}");
            return ExitCode::from(2);
        };
        if let Err(e) = sys.register_stream(stream, schema.clone(), stats.clone(), NodeId(i as u32))
        {
            eprintln!("cosmos-sim: registering {stream}: {e}");
            return ExitCode::from(2);
        }
    }
    let text = "SELECT A.node_id, B.ambient_temp \
                FROM sensors_00 [Unbounded] A, sensors_01 [Range 10 Second] B \
                WHERE A.node_id = B.node_id";
    match sys.submit_query(text, NodeId(5)) {
        Ok(qid) => {
            eprintln!(
                "cosmos-sim: admission gate FAILED — unbounded-state query was \
                 admitted as {qid:?}: {text}"
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            let msg = e.to_string();
            if msg.contains("B01") {
                println!("admission canary OK — rejected statically: {msg}");
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "cosmos-sim: query was rejected, but not by the bound gate \
                     (no B01xx code): {msg}"
                );
                ExitCode::FAILURE
            }
        }
    }
}

/// Print the experiment report at `scale`; any claim that does not hold
/// fails the command.
fn experiments(scale: Scale) -> ExitCode {
    match experiment::report(scale) {
        Ok(report) => {
            print!("{}", report.text());
            for claim in report.failed_checks() {
                eprintln!("cosmos-sim: experiments: FAIL {claim}");
            }
            ExitCode::from(u8::from(!report.failed_checks().is_empty()))
        }
        Err(e) => {
            eprintln!("cosmos-sim: experiments: {e}");
            ExitCode::from(2)
        }
    }
}

/// Run one seed's scenario with the bound-soundness oracle on and dump
/// the final measured-vs-static report. Any measurement exceeding its
/// static bound makes the command fail.
fn check_bounds(o: &Opts) -> ExitCode {
    let scenario = o.expand(o.seed);
    let opts = RunOptions {
        merging: !o.baseline,
        static_verify: false,
        bound_checks: true,
        ..RunOptions::default()
    };
    let outcome = match run_scenario(&scenario, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cosmos-sim: seed {}: {e}", o.seed);
            return ExitCode::from(2);
        }
    };
    let json = match serde_json::to_string(&outcome.bound_report) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("cosmos-sim: seed {}: serializing report: {e}", o.seed);
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &o.out {
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("cosmos-sim: could not write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("wrote {path}");
    } else {
        println!("{json}");
    }
    if let Some((ev_idx, detail)) = outcome.bound_violations.first() {
        eprintln!(
            "cosmos-sim: seed {}: bound soundness broken after event #{ev_idx}: {detail}{}",
            o.seed,
            match outcome.bound_violations.len() {
                1 => String::new(),
                n => format!(" (+{} more violations)", n - 1),
            }
        );
        return ExitCode::FAILURE;
    }
    let checked = outcome.bound_report.len();
    eprintln!(
        "seed {}: bound soundness OK — {checked} subject{} within static bounds",
        o.seed,
        if checked == 1 { "" } else { "s" }
    );
    ExitCode::SUCCESS
}

/// Expand, check, and (on failure) minimize + persist one seed.
/// Returns true on pass.
fn run_one(seed: u64, o: &Opts) -> bool {
    let scenario = o.expand(seed);
    let copts = o.check_options();
    match check_scenario_opts(&scenario, &copts) {
        Ok(r) => {
            println!(
                "seed {seed}: PASS — {} queries ({} rejected), {} tuples, {} epochs, \
                 {} merge-compared, digest {:016x}",
                r.queries, r.rejected, r.published, r.epochs, r.merge_compared, r.digest
            );
            true
        }
        Err(f) => {
            eprintln!("seed {seed}: FAIL {f}");
            eprintln!("  scenario: {}", scenario.summary());
            let minimized = if o.no_shrink {
                scenario
            } else {
                let m = shrink(&scenario, 300, |c| check_scenario_opts(c, &copts).is_err());
                eprintln!("  shrunk to: {}", m.summary());
                m
            };
            let path = o
                .out
                .clone()
                .unwrap_or_else(|| format!("{}/seed-{seed}.json", o.out_dir));
            if let Some(dir) = std::path::Path::new(&path).parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            match std::fs::write(&path, minimized.to_json()) {
                Ok(()) => eprintln!(
                    "  wrote {path} (replay with: cosmos-sim replay {path}{})",
                    o.replay_flags()
                ),
                Err(e) => eprintln!("  could not write {path}: {e}"),
            }
            if f.oracle.starts_with("static-verify") {
                write_violating_snapshot(&minimized, &path);
            }
            false
        }
    }
}

/// For a static-verify failure, re-run the (deterministic) scenario and
/// dump the first snapshot the verifier rejected next to the scenario
/// file — the artifact CI uploads.
fn write_violating_snapshot(scenario: &Scenario, scenario_path: &str) {
    for merging in [true, false] {
        let outcome = match run_scenario(
            scenario,
            &RunOptions {
                merging,
                ..RunOptions::default()
            },
        ) {
            Ok(r) => r,
            Err(_) => continue,
        };
        if let Some(json) = outcome.first_violation_snapshot {
            let path = format!("{scenario_path}.violating-snapshot.json");
            match std::fs::write(&path, json) {
                Ok(()) => eprintln!("  wrote {path} (inspect with: cosmos-verify {path})"),
                Err(e) => eprintln!("  could not write {path}: {e}"),
            }
            return;
        }
    }
}

/// Re-check a scenario file under the oracles `o` selects.
fn replay(path: &str, o: &Opts) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cosmos-sim: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let scenario = match Scenario::from_json(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cosmos-sim: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    println!("replaying seed {}: {}", scenario.seed, scenario.summary());
    match check_scenario_opts(&scenario, &o.check_options()) {
        Ok(r) => {
            println!(
                "PASS — {} queries, {} tuples, digest {:016x}",
                r.queries, r.published, r.digest
            );
            ExitCode::SUCCESS
        }
        Err(f) => {
            eprintln!("FAIL {f}");
            ExitCode::FAILURE
        }
    }
}
