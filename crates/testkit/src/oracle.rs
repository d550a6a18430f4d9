//! The differential and metamorphic oracles.
//!
//! **Differential.** For every accepted query, per executor epoch, the
//! delivered tuples must equal the centralized
//! [`cosmos_spe::oracle::evaluate`] output over the published inputs of
//! that epoch. The reference evaluator is incremental (it appends
//! outputs per arrival), so a warm group join — where the query starts
//! listening to an executor with pre-existing window state — is exactly
//! the reference output over `[exec_start, end)` with the prefix
//! produced by `[exec_start, member_start)` skipped.
//!
//! **Convergence.** On a disordered scenario the same check runs in
//! *convergence form*: after the end-of-schedule stream closure has
//! drained every staged tuple, each epoch's deliveries must equal the
//! reference evaluation of the epoch's inputs **sorted by timestamp and
//! exact-duplicate-deduplicated** — the staged executor processes
//! exactly that sequence, so disorder the watermark bound absorbs must
//! leave no trace in the results. Epochs across which the system's
//! `late + revisions + shed` counter moved are skipped (revision
//! folding is covered by the `crates/spe` directed tests and by the
//! conservation counters), as are warm joins and mid-run withdrawals,
//! whose cut points are blurred by staging.
//!
//! **Metamorphic (merge).** Theorems 1–2: merging is semantically
//! invisible, so delivered results with merging enabled must equal the
//! non-share baseline. Executor restarts only happen with merging on
//! (groups never change shape in baseline mode), so the whole-run
//! comparison is performed for queries whose delivery is restart-proof:
//! stateless queries (single stream, no aggregate, no DISTINCT), and
//! stateful queries that lived in a single cold-started epoch in both
//! runs. Everything else is still covered per-epoch by the differential
//! oracle in both modes.
//!
//! **Metamorphic (tree).** Re-running with a tree re-optimization
//! injected after every event must leave every query's delivered
//! results unchanged: routing adaptation never touches executor state.
//!
//! **Metamorphic (batch).** Re-running with batched publishing
//! (`publish_batch` over each publish event's same-stream runs) must be
//! observably identical to per-tuple publishing: exact delivery order,
//! epochs, counts, and digest.
//!
//! **Determinism.** Running the same scenario twice must produce
//! identical digests — the contract that makes `run --seed` replayable.

use crate::run::{run_scenario, RunOptions, RunOutcome};
use crate::scenario::Scenario;
use cosmos_spe::{oracle, AnalyzedQuery};
use cosmos_types::{QueryId, Timestamp, Tuple, Value};

/// A minimal, displayable oracle violation.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Which oracle fired (`differential (merged)` — `convergence
    /// (merged)` on disordered scenarios —, `metamorphic-merge`,
    /// `metamorphic-tree`, `metamorphic-batch`, `determinism`,
    /// `static-verify (…)`, `metrics-conservation (…)`,
    /// `bound-soundness (…)`, `run-error`).
    pub oracle: String,
    /// The offending query's scenario label, when attributable.
    pub label: Option<u32>,
    /// Human-readable details.
    pub detail: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.label {
            Some(l) => write!(f, "[{}] query #{l}: {}", self.oracle, self.detail),
            None => write!(f, "[{}] {}", self.oracle, self.detail),
        }
    }
}

/// Statistics of a passing scenario.
#[derive(Debug, Clone, Copy)]
pub struct Report {
    /// Accepted queries.
    pub queries: usize,
    /// Rejected submissions (lint/analysis).
    pub rejected: usize,
    /// Published source tuples.
    pub published: usize,
    /// Executor epochs checked differentially.
    pub epochs: usize,
    /// Queries compared whole-run between merged and baseline modes.
    pub merge_compared: usize,
    /// The base run's digest.
    pub digest: u64,
}

/// Which oracles to run (all by default; the injected-bug acceptance
/// test isolates the metamorphic family).
#[derive(Debug, Clone, Copy)]
pub struct CheckOptions {
    /// Per-epoch differential comparison, both modes.
    pub differential: bool,
    /// Merged-vs-baseline whole-run comparison.
    pub metamorphic_merge: bool,
    /// Tree-reorganization invariance.
    pub metamorphic_tree: bool,
    /// Batched-publish invariance (per-tuple vs `publish_batch`).
    pub metamorphic_batch: bool,
    /// Same-scenario digest equality.
    pub determinism: bool,
    /// Static verification (`cosmos-verify`) of the routing state after
    /// every routing-relevant event, in both merged and baseline modes.
    pub static_verify: bool,
    /// Metrics conservation: the metrics layer's lifetime counters must
    /// agree with the driver's accounting after every event, and the
    /// final metrics snapshot must be byte-identical across the
    /// determinism replay.
    pub metrics_conservation: bool,
    /// Bound soundness: measured delivered counts, per-node consumed
    /// bytes, and executor state sizes must be dominated by the static
    /// `cosmos-bound` bounds after every event, in merged, baseline,
    /// and batched modes.
    pub bound_soundness: bool,
    /// Arm the overload controller with this uniform per-node byte
    /// budget in every run ([`RunOptions::overload_budget`]). The
    /// conservation identity is checked after every event; when the
    /// budget is tight enough to actually shed, the semantic oracles
    /// back off per query (a shed buffer is legitimately a sub-multiset
    /// of the reference output) while determinism still demands
    /// bit-identical shed decisions.
    pub overload_budget: Option<u64>,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            differential: true,
            metamorphic_merge: true,
            metamorphic_tree: true,
            metamorphic_batch: true,
            determinism: true,
            static_verify: true,
            metrics_conservation: true,
            bound_soundness: true,
            overload_budget: None,
        }
    }
}

/// Run every oracle over a scenario.
pub fn check_scenario(scenario: &Scenario) -> Result<Report, Failure> {
    check_scenario_opts(scenario, &CheckOptions::default())
}

/// Run the selected oracles over a scenario.
pub fn check_scenario_opts(scenario: &Scenario, opts: &CheckOptions) -> Result<Report, Failure> {
    let run_err = |e: cosmos_types::CosmosError| Failure {
        oracle: "run-error".into(),
        label: None,
        detail: e.to_string(),
    };
    let merged = run_scenario(
        scenario,
        &RunOptions {
            static_verify: opts.static_verify,
            bound_checks: opts.bound_soundness,
            overload_budget: opts.overload_budget,
            ..RunOptions::default()
        },
    )
    .map_err(run_err)?;
    // Conservation before the static verifier: both can see a broken
    // overload ledger (the snapshot carries it as V0801), but the
    // runner's per-event check names the shed ledger directly, so it
    // owns the attribution.
    if opts.metrics_conservation {
        metrics_conservation_failure(&merged, "merged")?;
    }
    static_verify_failure(&merged, "merged")?;
    bound_soundness_failure(&merged, "merged")?;
    runtime_determinism_failure(&merged, "merged")?;

    if opts.determinism {
        // The verifier and bound tracker only read state, so skipping
        // them here cannot change the digest being compared.
        let again = run_scenario(
            scenario,
            &RunOptions {
                static_verify: false,
                bound_checks: false,
                overload_budget: opts.overload_budget,
                ..RunOptions::default()
            },
        )
        .map_err(run_err)?;
        if again.digest != merged.digest || again.routing_digests != merged.routing_digests {
            return Err(Failure {
                oracle: "determinism".into(),
                label: None,
                detail: format!(
                    "two runs of the same scenario diverged: digest {:016x} vs {:016x}",
                    merged.digest, again.digest
                ),
            });
        }
        if opts.metrics_conservation && again.metrics_json != merged.metrics_json {
            return Err(Failure {
                oracle: "determinism".into(),
                label: None,
                detail: "two runs of the same scenario produced different metrics snapshots".into(),
            });
        }
    }

    if opts.differential {
        differential(&merged, "merged")?;
    }

    let baseline = run_scenario(
        scenario,
        &RunOptions {
            merging: false,
            static_verify: opts.static_verify,
            bound_checks: opts.bound_soundness,
            overload_budget: opts.overload_budget,
            ..RunOptions::default()
        },
    )
    .map_err(run_err)?;
    if opts.metrics_conservation {
        metrics_conservation_failure(&baseline, "baseline")?;
    }
    static_verify_failure(&baseline, "baseline")?;
    bound_soundness_failure(&baseline, "baseline")?;
    runtime_determinism_failure(&baseline, "baseline")?;
    if opts.differential {
        differential(&baseline, "baseline")?;
    }

    let mut merge_compared = 0usize;
    if opts.metamorphic_merge {
        merge_compared = metamorphic_merge(&merged, &baseline)?;
    }

    if opts.metamorphic_tree {
        let treed = run_scenario(
            scenario,
            &RunOptions {
                merging: true,
                optimize_every_event: true,
                static_verify: false,
                bound_checks: false,
                overload_budget: opts.overload_budget,
                ..RunOptions::default()
            },
        )
        .map_err(run_err)?;
        if opts.metrics_conservation {
            metrics_conservation_failure(&treed, "treed")?;
        }
        metamorphic_tree(&merged, &treed)?;
    }

    if opts.metamorphic_batch {
        let batched = run_scenario(
            scenario,
            &RunOptions {
                batched: true,
                static_verify: false,
                bound_checks: opts.bound_soundness,
                overload_budget: opts.overload_budget,
                ..RunOptions::default()
            },
        )
        .map_err(run_err)?;
        if opts.metrics_conservation {
            metrics_conservation_failure(&batched, "batched")?;
        }
        bound_soundness_failure(&batched, "batched")?;
        metamorphic_batch(&merged, &batched)?;
    }

    Ok(Report {
        queries: merged.queries.len(),
        rejected: merged.rejected.len(),
        published: merged.published.len(),
        epochs: merged.queries.iter().map(|q| q.epochs.len()).sum(),
        merge_compared,
        digest: merged.digest,
    })
}

/// Surface a run's bound-soundness violations as an oracle failure (a
/// no-op when the run had bound checks off, since the list is empty).
fn bound_soundness_failure(run: &RunOutcome, mode: &str) -> Result<(), Failure> {
    let Some((ev_idx, detail)) = run.bound_violations.first() else {
        return Ok(());
    };
    Err(Failure {
        oracle: format!("bound-soundness ({mode})"),
        label: None,
        detail: format!(
            "after event #{ev_idx}: {detail}{}",
            match run.bound_violations.len() {
                1 => String::new(),
                n => format!(" (+{} more violations)", n - 1),
            }
        ),
    })
}

/// Surface a run's runtime-determinism violations as an oracle failure —
/// the dynamic twin of the clippy gate's wall-clock and entropy bans
/// (DESIGN §15): the metrics hub's virtual clock stayed within the
/// tuple-timestamp ceiling and never regressed. Always on: the probe is
/// O(1) per event.
fn runtime_determinism_failure(run: &RunOutcome, mode: &str) -> Result<(), Failure> {
    let Some((ev_idx, detail)) = run.runtime_violations.first() else {
        return Ok(());
    };
    Err(Failure {
        oracle: format!("runtime-determinism ({mode})"),
        label: None,
        detail: format!(
            "after event #{ev_idx}: {detail}{}",
            match run.runtime_violations.len() {
                1 => String::new(),
                n => format!(" (+{} more violations)", n - 1),
            }
        ),
    })
}

/// Surface a run's metrics-conservation violations as an oracle failure.
fn metrics_conservation_failure(run: &RunOutcome, mode: &str) -> Result<(), Failure> {
    let Some((ev_idx, detail)) = run.metrics_violations.first() else {
        return Ok(());
    };
    Err(Failure {
        oracle: format!("metrics-conservation ({mode})"),
        label: None,
        detail: format!(
            "after event #{ev_idx}: {detail}{}",
            match run.metrics_violations.len() {
                1 => String::new(),
                n => format!(" (+{} more violations)", n - 1),
            }
        ),
    })
}

/// Surface a run's static-verifier violations as an oracle failure. The
/// headline of the first violation (with its event index) is the detail;
/// the violating snapshot rides along in [`RunOutcome`] for artifact
/// dumping.
fn static_verify_failure(run: &RunOutcome, mode: &str) -> Result<(), Failure> {
    let Some((ev_idx, headline)) = run.static_violations.first() else {
        return Ok(());
    };
    Err(Failure {
        oracle: format!("static-verify ({mode})"),
        label: None,
        detail: format!(
            "after event #{ev_idx}: {headline}{}",
            match run.static_violations.len() {
                1 => String::new(),
                n => format!(" (+{} more violations)", n - 1),
            }
        ),
    })
}

/// Quantize floats before comparison. The deployed executor maintains
/// running SUM/AVG accumulators (evictions subtract), while the
/// reference evaluator recomputes each aggregate from scratch; with
/// Kahan-compensated accumulation the two stay within an ulp or two, so
/// quantizing to 1e-9 absolute (sensor magnitudes are ~1e2) erases that
/// noise without masking any real divergence (which shows up as whole
/// tuples, not last digits).
fn canon(v: Value) -> Value {
    match v {
        Value::Float(x) => Value::Float((x * 1e9).round() / 1e9),
        other => other,
    }
}

/// Normalized delivered multiset: `(timestamp, sorted values)`, sorted.
/// Delivered tuples carry the member's column set but in the
/// representative schema's order, so comparisons are value-multiset
/// based, per timestamp, with floats quantized to 1e-9 absolute (the
/// executor's running SUM/AVG and the reference's recomputation differ
/// in the last ulps).
pub fn normalize_delivered(tuples: &[Tuple]) -> Vec<(Timestamp, Vec<Value>)> {
    let mut out: Vec<(Timestamp, Vec<Value>)> = tuples
        .iter()
        .map(|t| {
            let mut vs: Vec<Value> = t.values().iter().cloned().map(canon).collect();
            vs.sort();
            (t.timestamp, vs)
        })
        .collect();
    out.sort();
    out
}

/// Normalize reference-evaluation tuples the same way, first deduping
/// columns by name (the split profile projects each column once, however
/// often the member's SELECT repeats it).
pub fn normalize_expected(tuples: &[Tuple], names: &[String]) -> Vec<(Timestamp, Vec<Value>)> {
    let mut out: Vec<(Timestamp, Vec<Value>)> = tuples
        .iter()
        .map(|t| {
            let mut row: Vec<(String, Value)> = names
                .iter()
                .cloned()
                .zip(t.values().iter().cloned())
                .collect();
            row.sort();
            row.dedup_by(|a, b| a.0 == b.0);
            let mut vs: Vec<Value> = row.into_iter().map(|(_, v)| canon(v)).collect();
            vs.sort();
            (t.timestamp, vs)
        })
        .collect();
    out.sort();
    out
}

fn first_diff(want: &[(Timestamp, Vec<Value>)], got: &[(Timestamp, Vec<Value>)]) -> String {
    let i = want
        .iter()
        .zip(got.iter())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| want.len().min(got.len()));
    format!(
        "expected {} tuples, got {}; first divergence at #{i}: expected {:?}, got {:?}",
        want.len(),
        got.len(),
        want.get(i),
        got.get(i)
    )
}

/// The staged executor's processing order: stably sorted by timestamp
/// (arrival order breaks ties, matching the staging area's
/// `(timestamp, arrival)` key) with exact duplicates removed, keeping
/// the first occurrence — the executor's duplicate memory discards the
/// rest on arrival. Injected duplicates never rewrite timestamps, so
/// matching within the same-timestamp group is exhaustive.
fn sorted_deduped(tuples: &[Tuple]) -> Vec<Tuple> {
    let mut v = tuples.to_vec();
    v.sort_by_key(|t| t.timestamp);
    let mut out: Vec<Tuple> = Vec::with_capacity(v.len());
    for t in v {
        let dup = out
            .iter()
            .rev()
            .take_while(|u| u.timestamp == t.timestamp)
            .any(|u| *u == t);
        if !dup {
            out.push(t);
        }
    }
    out
}

/// Per-query, per-epoch comparison against the reference evaluator. On
/// a disordered run this is the *convergence* oracle: the reference
/// evaluates the epoch's inputs in sorted, deduplicated order (see
/// [`sorted_deduped`]), and epochs whose cut points staging blurs —
/// warm joins, mid-run withdrawals, any late/revision/shed activity —
/// are skipped.
fn differential(run: &RunOutcome, mode: &str) -> Result<(), Failure> {
    if run.overload_shed_tuples > 0 {
        // A shed delivery buffer is legitimately a sub-multiset of the
        // reference output; the conservation ledger is the dedicated
        // oracle for budgeted runs.
        return Ok(());
    }
    let disordered = run.disorder_totals.is_some();
    let oracle_name = if disordered {
        format!("convergence ({mode})")
    } else {
        format!("differential ({mode})")
    };
    let final_late = run
        .disorder_totals
        .map(|t| t.late + t.revisions + t.shed)
        .unwrap_or(0);
    for q in &run.queries {
        if disordered && q.input_end.is_some() {
            // Withdrawn mid-run: the delivery buffer was frozen while
            // tuples sat staged, so no input cut reproduces it exactly.
            continue;
        }
        let names: Vec<String> = q
            .analyzed
            .output_schema
            .names()
            .map(str::to_string)
            .collect();
        let input_end = q.input_end.unwrap_or(run.published.len());
        for (i, ep) in q.epochs.iter().enumerate() {
            let in_end = q
                .epochs
                .get(i + 1)
                .map(|n| n.member_start)
                .unwrap_or(input_end);
            let del_end = q
                .epochs
                .get(i + 1)
                .map(|n| n.delivered_start)
                .unwrap_or(q.delivered.len());
            if ep.exec_start > ep.member_start || ep.member_start > in_end {
                return Err(Failure {
                    oracle: oracle_name.clone(),
                    label: Some(q.label),
                    detail: format!(
                        "inconsistent epoch bounds: exec {} member {} end {in_end}",
                        ep.exec_start, ep.member_start
                    ),
                });
            }
            if disordered {
                let late_end = q
                    .epochs
                    .get(i + 1)
                    .map(|n| n.late_start)
                    .unwrap_or(final_late);
                if ep.member_start > ep.exec_start || late_end > ep.late_start {
                    continue;
                }
            }
            let inputs: Vec<Tuple> = if disordered {
                sorted_deduped(&run.published[ep.exec_start..in_end])
            } else {
                run.published[ep.exec_start..in_end].to_vec()
            };
            let full = oracle::evaluate(&q.analyzed, "ref", &inputs);
            let skip = if ep.member_start > ep.exec_start {
                oracle::evaluate(
                    &q.analyzed,
                    "ref",
                    &run.published[ep.exec_start..ep.member_start],
                )
                .len()
            } else {
                0
            };
            let want = normalize_expected(&full[skip.min(full.len())..], &names);
            let got = normalize_delivered(&q.delivered[ep.delivered_start..del_end]);
            if want != got {
                return Err(Failure {
                    oracle: oracle_name.clone(),
                    label: Some(q.label),
                    detail: format!(
                        "'{}' epoch {i} (inputs {}..{in_end}, warm-skip {skip}): {}",
                        q.text,
                        ep.exec_start,
                        first_diff(&want, &got)
                    ),
                });
            }
        }
    }
    Ok(())
}

/// Is delivery for this query unaffected by executor restarts?
fn stateless(q: &AnalyzedQuery) -> bool {
    !q.is_aggregate() && q.streams.len() == 1 && !q.distinct
}

/// A run's `late + revisions + shed` total — nonzero when some tuple
/// took a path whose output interleaving is timing-dependent, which is
/// when the cross-run metamorphic comparisons back off to what still
/// must hold.
fn run_lateish(run: &RunOutcome) -> u64 {
    run.disorder_totals
        .map(|t| t.late + t.revisions + t.shed)
        .unwrap_or(0)
}

/// Merged vs baseline whole-run comparison. Returns how many queries
/// were comparable.
fn metamorphic_merge(merged: &RunOutcome, baseline: &RunOutcome) -> Result<usize, Failure> {
    if merged.overload_shed_tuples > 0 || baseline.overload_shed_tuples > 0 {
        // Merging moves the per-node intake the budget meters, so shed
        // decisions legitimately differ between the modes.
        return Ok(0);
    }
    for (label, _) in &merged.rejected {
        if baseline.queries.iter().any(|q| q.label == *label) {
            return Err(Failure {
                oracle: "metamorphic-merge".into(),
                label: Some(*label),
                detail: "rejected with merging enabled but accepted in baseline mode".into(),
            });
        }
    }
    let disordered = merged.disorder_totals.is_some();
    let late_activity = run_lateish(merged) > 0 || run_lateish(baseline) > 0;
    let mut compared = 0usize;
    for q in &merged.queries {
        let Some(base) = baseline.queries.iter().find(|b| b.label == q.label) else {
            return Err(Failure {
                oracle: "metamorphic-merge".into(),
                label: Some(q.label),
                detail: "accepted with merging enabled but rejected in baseline mode".into(),
            });
        };
        let cold_single = |runs: &crate::run::QueryRun| {
            runs.epochs.len() == 1 && runs.epochs[0].member_start == runs.epochs[0].exec_start
        };
        // Disordered runs: compare only queries alive at closure (a
        // mid-run withdrawal freezes the buffer with tuples staged),
        // cold-started in both modes — a warm join inherits whatever the
        // group's staging area drains after the join, which the
        // baseline's fresh executor never saw, so even stateless
        // deliveries legitimately differ — and only when neither run
        // took a timing-dependent late path.
        let comparable = if disordered {
            q.input_end.is_none() && !late_activity && cold_single(q) && cold_single(base)
        } else {
            stateless(&q.analyzed) || (cold_single(q) && cold_single(base))
        };
        if !comparable {
            continue;
        }
        compared += 1;
        let want = normalize_delivered(&base.delivered);
        let got = normalize_delivered(&q.delivered);
        if want != got {
            return Err(Failure {
                oracle: "metamorphic-merge".into(),
                label: Some(q.label),
                detail: format!(
                    "'{}': merged delivery differs from baseline: {}",
                    q.text,
                    first_diff(&want, &got)
                ),
            });
        }
    }
    Ok(compared)
}

/// Tree-reorganization invariance: every query delivers identically
/// (on disordered runs: every query alive at closure, when no late path
/// fired — see [`run_lateish`]).
fn metamorphic_tree(merged: &RunOutcome, treed: &RunOutcome) -> Result<(), Failure> {
    if merged.overload_shed_tuples > 0 || treed.overload_shed_tuples > 0 {
        return Ok(());
    }
    let disordered = merged.disorder_totals.is_some();
    let late_activity = run_lateish(merged) > 0 || run_lateish(treed) > 0;
    for q in &merged.queries {
        if disordered && (q.input_end.is_some() || late_activity) {
            continue;
        }
        let Some(t) = treed.queries.iter().find(|t| t.label == q.label) else {
            return Err(Failure {
                oracle: "metamorphic-tree".into(),
                label: Some(q.label),
                detail: "query vanished under injected tree re-optimization".into(),
            });
        };
        let want = normalize_delivered(&q.delivered);
        let got = normalize_delivered(&t.delivered);
        if want != got {
            return Err(Failure {
                oracle: "metamorphic-tree".into(),
                label: Some(q.label),
                detail: format!(
                    "'{}': delivery changed under injected tree re-optimization: {}",
                    q.text,
                    first_diff(&want, &got)
                ),
            });
        }
    }
    Ok(())
}

/// Batched-publish invariance: routing each publish event's same-stream
/// runs through `publish_batch` must be *observably identical* to
/// per-tuple publishing — tuple-for-tuple delivery (exact order, not
/// just multisets), identical epochs and skip counts, identical digest.
/// On a disordered run with late-path activity the exact interleaving
/// legitimately differs (a revision fires at arrival time, which batch
/// boundaries move relative to watermark drains), so the comparison
/// backs off to per-query delivered multisets and the publish counts.
fn metamorphic_batch(merged: &RunOutcome, batched: &RunOutcome) -> Result<(), Failure> {
    if merged.overload_shed_tuples > 0 || batched.overload_shed_tuples > 0 {
        // Batching changes the batch shapes `admit` meters, so shed
        // decisions legitimately differ; only the publish accounting
        // (which runs upstream of the controller) must still agree.
        if batched.skipped_publishes != merged.skipped_publishes
            || batched.published.len() != merged.published.len()
        {
            return Err(Failure {
                oracle: "metamorphic-batch".into(),
                label: None,
                detail: format!(
                    "accepted/skipped publish counts changed under batching: {}+{} vs {}+{}",
                    merged.published.len(),
                    merged.skipped_publishes,
                    batched.published.len(),
                    batched.skipped_publishes
                ),
            });
        }
        return Ok(());
    }
    let strict =
        merged.disorder_totals.is_none() || (run_lateish(merged) == 0 && run_lateish(batched) == 0);
    for q in &merged.queries {
        let Some(b) = batched.queries.iter().find(|b| b.label == q.label) else {
            return Err(Failure {
                oracle: "metamorphic-batch".into(),
                label: Some(q.label),
                detail: "query vanished under batched publishing".into(),
            });
        };
        if !strict {
            let want = normalize_delivered(&q.delivered);
            let got = normalize_delivered(&b.delivered);
            if want != got {
                return Err(Failure {
                    oracle: "metamorphic-batch".into(),
                    label: Some(q.label),
                    detail: format!(
                        "'{}': batched delivery diverged beyond revision reordering: {}",
                        q.text,
                        first_diff(&want, &got)
                    ),
                });
            }
            continue;
        }
        if b.delivered != q.delivered {
            let i = q
                .delivered
                .iter()
                .zip(b.delivered.iter())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| q.delivered.len().min(b.delivered.len()));
            return Err(Failure {
                oracle: "metamorphic-batch".into(),
                label: Some(q.label),
                detail: format!(
                    "'{}': batched delivery differs from per-tuple: expected {} tuples, \
                     got {}; first divergence at #{i}: expected {:?}, got {:?}",
                    q.text,
                    q.delivered.len(),
                    b.delivered.len(),
                    q.delivered.get(i),
                    b.delivered.get(i)
                ),
            });
        }
        if b.epochs != q.epochs {
            return Err(Failure {
                oracle: "metamorphic-batch".into(),
                label: Some(q.label),
                detail: format!(
                    "'{}': executor epochs changed under batched publishing",
                    q.text
                ),
            });
        }
    }
    if batched.skipped_publishes != merged.skipped_publishes
        || batched.published.len() != merged.published.len()
    {
        return Err(Failure {
            oracle: "metamorphic-batch".into(),
            label: None,
            detail: format!(
                "accepted/skipped publish counts changed under batching: {}+{} vs {}+{}",
                merged.published.len(),
                merged.skipped_publishes,
                batched.published.len(),
                batched.skipped_publishes
            ),
        });
    }
    if strict && batched.digest != merged.digest {
        return Err(Failure {
            oracle: "metamorphic-batch".into(),
            label: None,
            detail: format!(
                "run digest changed under batched publishing: {:016x} vs {:016x}",
                merged.digest, batched.digest
            ),
        });
    }
    Ok(())
}

/// Assert that a deployed system's delivered results match the reference
/// evaluator for each `(query id, CQL text)` over `inputs` — the shared
/// helper behind `tests/distributed_vs_local.rs`-style pinned cases.
///
/// Queries must have been submitted before any of `inputs` were
/// published (cold start, single epoch); `inputs` is the full published
/// history in order.
pub fn assert_results_match_oracle(
    sys: &cosmos::Cosmos,
    queries: &[(QueryId, String)],
    inputs: &[Tuple],
) {
    for (qid, text) in queries {
        let analyzed = AnalyzedQuery::analyze(
            &cosmos_cql::parse_query(text).expect("query parses"),
            sys.catalog().schema_fn(),
        )
        .expect("query analyzes");
        let names: Vec<String> = analyzed.output_schema.names().map(str::to_string).collect();
        let want = normalize_expected(&oracle::evaluate(&analyzed, "ref", inputs), &names);
        let got = normalize_delivered(sys.results(*qid));
        assert_eq!(
            want, got,
            "deployment diverged from local evaluation for {text}"
        );
    }
}
