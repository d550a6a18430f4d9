//! The measured run: R identical repetitions of a workload's script on
//! fresh deployments, tracing off, every public call timed.

use crate::stats::{per_index_min, percentile};
use crate::sut::{Catalog, DisorderCounts, QueryId, Sut};
use crate::verify::{self, Digest};
use crate::workloads::{Op, Workload};
use std::hint::black_box;
use std::time::Instant;

/// What a repetition's checkpoint reads. Every field must be identical
/// in every repetition of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    pub total_bytes: u64,
    pub tuples_published: u64,
    pub hub_link_bytes: u64,
    pub disorder: DisorderCounts,
    /// One digest per script query (zero for queries not yet submitted).
    pub digests: Vec<Digest>,
}

/// One repetition: the time of every operation, in script order.
pub struct Rep {
    /// `Cosmos::new` plus the stream registrations.
    pub deploy_ns: u64,
    pub startup_ns: Vec<u64>,
    /// Parallel to `Workload::ops` (0 for the checkpoint).
    pub op_ns: Vec<u64>,
    /// Text of every call that returned `Err`.
    pub errors: Vec<String>,
    pub checkpoint: Checkpoint,
}

/// A fresh deployment with the start-up cohort submitted.
pub struct Deployed {
    pub sut: Sut,
    /// Parallel to `Workload::queries`.
    pub qids: Vec<Option<QueryId>>,
    /// `Cosmos::new` alone.
    pub new_ns: u64,
    pub deploy_ns: u64,
    pub startup_ns: Vec<u64>,
    pub errors: Vec<String>,
}

pub fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// Deploy, register the streams, arm disorder mode if the workload has
/// it, and submit the start-up cohort — the work `setup_s` times.
pub fn deploy(w: &Workload, catalog: &Catalog) -> Result<Deployed, String> {
    let t = Instant::now();
    let mut sut = Sut::deploy(
        w.nodes,
        w.processor_fraction,
        crate::workloads::STRUCTURE_SEED,
    )?;
    let new_ns = elapsed_ns(t);
    for (index, origin) in &w.streams {
        sut.register_sensor_stream(catalog, *index, *origin)?;
    }
    if let Some(bound_ms) = w.disorder_bound_ms {
        sut.set_disorder(bound_ms);
    }
    let deploy_ns = elapsed_ns(t);
    let mut d = Deployed {
        sut,
        qids: vec![None; w.queries.len()],
        new_ns,
        deploy_ns,
        startup_ns: Vec::with_capacity(w.startup),
        errors: Vec::new(),
    };
    for q in 0..w.startup {
        let ns = d.submit(w, q);
        d.startup_ns.push(ns);
    }
    Ok(d)
}

impl Deployed {
    /// Timed `submit_query` of script query `q`.
    pub fn submit(&mut self, w: &Workload, q: usize) -> u64 {
        let (text, user) = &w.queries[q];
        let t = Instant::now();
        let r = self.sut.submit_query(text, *user);
        let ns = elapsed_ns(t);
        match r {
            Ok(qid) => self.qids[q] = Some(qid),
            Err(e) => self.errors.push(format!("submit_query('{text}'): {e}")),
        }
        ns
    }

    /// Timed `unsubscribe` of script query `q`.
    pub fn unsubscribe(&mut self, w: &Workload, q: usize) -> u64 {
        let Some(qid) = self.qids[q] else {
            self.errors
                .push(format!("unsubscribe('{}'): never admitted", w.queries[q].0));
            return 0;
        };
        let t = Instant::now();
        let r = self.sut.unsubscribe(qid);
        let ns = elapsed_ns(t);
        if let Err(e) = r {
            self.errors.push(format!("unsubscribe({qid}): {e}"));
        }
        ns
    }

    /// One timed operation of the script (not the checkpoint).
    pub fn run_op(&mut self, w: &Workload, op: Op) -> u64 {
        match op {
            Op::Submit(q) => self.submit(w, q),
            Op::Unsubscribe(q) => self.unsubscribe(w, q),
            Op::Publish(b) => {
                let t = Instant::now();
                let r = self.sut.publish_batch(&w.batches[b]);
                let ns = elapsed_ns(t);
                if let Err(e) = r {
                    self.errors.push(format!("publish_batch(#{b}): {e}"));
                }
                ns
            }
            Op::Close => self.timed(|s| {
                s.close_streams();
                Ok(())
            }),
            Op::Reoptimize => self.timed(|s| {
                s.reoptimize_groups().map(|n| {
                    black_box(n);
                })
            }),
            Op::Snapshot => self.timed(|s| s.snapshot().map(|snap| drop(black_box(snap)))),
            Op::Metrics => self.timed(|s| {
                s.metrics_snapshot_len().map(|n| {
                    black_box(n);
                })
            }),
            Op::Autotune => self.timed(|s| s.autotune()),
            Op::Checkpoint => 0,
        }
    }

    fn timed(&mut self, f: impl FnOnce(&mut Sut) -> Result<(), String>) -> u64 {
        let t = Instant::now();
        let r = f(&mut self.sut);
        let ns = elapsed_ns(t);
        if let Err(e) = r {
            self.errors.push(e);
        }
        ns
    }

    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            total_bytes: self.sut.total_bytes(),
            tuples_published: self.sut.tuples_published(),
            hub_link_bytes: self.sut.hub_link_bytes(),
            disorder: self.sut.disorder_counts(),
            digests: self
                .qids
                .iter()
                .map(|q| q.map_or(Digest::default(), |q| verify::digest(self.sut.results(q))))
                .collect(),
        }
    }
}

/// Outcome of the checkpoint's verification on repetition 0.
#[derive(Default)]
pub struct Verdict {
    pub queries_verified: usize,
    pub mismatches: Vec<String>,
    /// Broken invariants that are not a per-query mismatch.
    pub problems: Vec<String>,
}

fn verify_at_checkpoint(w: &Workload, d: &Deployed, catalog: &Catalog) -> Verdict {
    let (queries_verified, mismatches) = verify::against_reference(w, &d.sut, &d.qids, catalog);
    let mut problems = Vec::new();
    if w.disorder_bound_ms.is_some() {
        let c = d.sut.disorder_counts();
        if !c.conserved {
            problems.push("disorder_totals() is not conserved".to_string());
        }
        if c.shed != 0 {
            problems.push(format!("{} tuples were shed as late", c.shed));
        }
        if c.staged != 0 {
            problems.push(format!("{} tuples still staged after close", c.staged));
        }
    }
    if w.verify == crate::workloads::Verify::StatelessSurvivors {
        match d.sut.snapshot() {
            Ok(snap) => problems.extend(
                crate::sut::verify_violations(&snap)
                    .into_iter()
                    .map(|v| format!("verify_snapshot: {v}")),
            ),
            Err(e) => problems.push(format!("snapshot: {e}")),
        }
    }
    Verdict {
        queries_verified,
        mismatches,
        problems,
    }
}

/// Run one repetition; `verdict` is filled at the checkpoint when given.
pub fn run_rep(
    w: &Workload,
    catalog: &Catalog,
    verdict: Option<&mut Verdict>,
) -> Result<Rep, String> {
    let mut d = deploy(w, catalog)?;
    let mut op_ns = Vec::with_capacity(w.ops.len());
    let mut checkpoint = None;
    let mut verdict = verdict;
    for &op in &w.ops {
        if op == Op::Checkpoint {
            checkpoint = Some(d.checkpoint());
            if let Some(v) = verdict.take() {
                *v = verify_at_checkpoint(w, &d, catalog);
            }
        }
        op_ns.push(d.run_op(w, op));
    }
    Ok(Rep {
        deploy_ns: d.deploy_ns,
        startup_ns: d.startup_ns,
        op_ns,
        errors: d.errors,
        checkpoint: checkpoint.ok_or("script has no checkpoint")?,
    })
}

/// The measured run's result.
pub struct Measured {
    pub reps: Vec<Rep>,
    pub verdict: Verdict,
    pub peak_rss_kb: u64,
}

/// Repetitions never drop below this when the time budget cuts a run
/// short.
const MIN_REPS: usize = 5;

/// Run `max_reps` repetitions, stopping early (never below
/// [`MIN_REPS`]) once `budget_s` seconds have been measured.
pub fn run(
    w: &Workload,
    catalog: &Catalog,
    max_reps: usize,
    budget_s: f64,
) -> Result<Measured, String> {
    let start = Instant::now();
    let mut verdict = Verdict::default();
    let mut reps = Vec::with_capacity(max_reps);
    for r in 0..max_reps {
        reps.push(run_rep(w, catalog, (r == 0).then_some(&mut verdict))?);
        if reps.len() >= MIN_REPS.min(max_reps) && start.elapsed().as_secs_f64() >= budget_s {
            break;
        }
    }
    // Every repetition must reproduce repetition 0 exactly.
    let first = &reps[0];
    for (r, rep) in reps.iter().enumerate().skip(1) {
        if rep.checkpoint != first.checkpoint {
            verdict.problems.push(format!(
                "repetition {r} diverged from repetition 0 at the checkpoint"
            ));
        }
        if rep.errors != first.errors {
            verdict.problems.push(format!(
                "repetition {r} failed different calls than repetition 0"
            ));
        }
    }
    for (r, rep) in reps.iter().enumerate() {
        let c = &rep.checkpoint;
        if c.hub_link_bytes != c.total_bytes {
            verdict.problems.push(format!(
                "repetition {r}: hub link_bytes_total {} != total_bytes {}",
                c.hub_link_bytes, c.total_bytes
            ));
        }
        if c.tuples_published != w.source_tuples() {
            verdict.problems.push(format!(
                "repetition {r}: tuples_published {} != {} source tuples",
                c.tuples_published,
                w.source_tuples()
            ));
        }
    }
    Ok(Measured {
        reps,
        verdict,
        peak_rss_kb: crate::host::peak_rss_kb(),
    })
}

/// The nine end-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("tuples_per_s", "tuples/s"),
    ("batch_p50_us", "us"),
    ("batch_p99_us", "us"),
    ("submit_p50_us", "us"),
    ("submit_p95_us", "us"),
    ("unsubscribe_p50_us", "us"),
    ("link_bytes_per_tuple", "bytes"),
    ("peak_rss_mb", "MB"),
];

/// Per-operation-class times of a set of repetitions after the
/// per-index minimum (or of a single repetition, for the raw record).
pub struct Timings {
    pub setup_ns: u64,
    pub publish_ns: Vec<u64>,
    pub close_ns: u64,
    pub submit_ns: Vec<u64>,
    pub unsubscribe_ns: Vec<u64>,
}

pub fn timings(w: &Workload, reps: &[&Rep]) -> Timings {
    let rows: Vec<Vec<u64>> = reps
        .iter()
        .map(|r| {
            let mut row = vec![r.deploy_ns];
            row.extend(&r.startup_ns);
            row.extend(&r.op_ns);
            row
        })
        .collect();
    let min = per_index_min(&rows);
    let (setup, ops) = min.split_at(1 + w.startup);
    let pick = |pred: fn(&Op) -> bool| -> Vec<u64> {
        w.ops
            .iter()
            .zip(ops)
            .filter(|(op, _)| pred(op))
            .map(|(_, ns)| *ns)
            .collect()
    };
    let mut submit_ns = setup[1..].to_vec();
    submit_ns.extend(pick(|op| matches!(op, Op::Submit(_))));
    Timings {
        setup_ns: setup.iter().sum(),
        publish_ns: pick(|op| matches!(op, Op::Publish(_))),
        close_ns: pick(|op| matches!(op, Op::Close)).iter().sum(),
        submit_ns,
        unsubscribe_ns: pick(|op| matches!(op, Op::Unsubscribe(_))),
    }
}

impl Timings {
    /// Nanoseconds of data-plane work per source tuple.
    pub fn ns_per_tuple(&self, w: &Workload) -> f64 {
        (self.publish_ns.iter().sum::<u64>() + self.close_ns) as f64 / w.source_tuples() as f64
    }
}

/// The end-to-end metric values, parallel to [`END_TO_END`].
pub fn end_to_end(
    w: &Workload,
    t: &Timings,
    checkpoint: &Checkpoint,
    peak_rss_kb: u64,
) -> [f64; 9] {
    let us = |ns: u64| ns as f64 / 1e3;
    [
        t.setup_ns as f64 / 1e9,
        1e9 / t.ns_per_tuple(w),
        us(percentile(&t.publish_ns, 50.0)),
        us(percentile(&t.publish_ns, 99.0)),
        us(percentile(&t.submit_ns, 50.0)),
        us(percentile(&t.submit_ns, 95.0)),
        us(percentile(&t.unsubscribe_ns, 50.0)),
        checkpoint.total_bytes as f64 / w.source_tuples() as f64,
        peak_rss_kb as f64 / 1024.0,
    ]
}
