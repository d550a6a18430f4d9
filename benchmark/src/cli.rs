//! Command line, child processes and result files.
//!
//! `cosmos-benchmark --seed N [--workload NAME] [--trace [0|1]]
//! [--seconds S] [--smoke]`
//!
//! With `--workload` the process *is* that workload's run: measured
//! (end-to-end metrics) or, with `--trace`, traced (per-layer metrics).
//! Without it, every workload runs in a child process of its own — so
//! `peak_rss_mb` is one workload's — and `--trace` adds a second,
//! separate traced child per workload. The last line of standard output
//! is the result JSON; the full record (host facts, raw per-repetition
//! values, digests) goes to `<target>/cosmos-benchmark/`.

use crate::host;
use crate::measure::{self, Measured, END_TO_END};
use crate::sut::Catalog;
use crate::trace::{self, PER_LAYER};
use crate::workloads::{self, Op, Workload};
use serde_json::Value;
use std::path::PathBuf;
use std::process::Command;

/// Measured repetitions inside a traced run (they feed only the
/// residual, the shadow ratio and the digest cross-check) and traced
/// passes; each span's time is its minimum over the passes.
const TRACED_RUN_REPS: usize = 2;
const SMOKE_SCALE: usize = 16;
const SMOKE_REPS: usize = 2;

struct Args {
    seed: u64,
    workload: Option<String>,
    trace: bool,
    smoke: bool,
    seconds: Option<f64>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        seed: 1,
        workload: None,
        trace: false,
        smoke: false,
        seconds: None,
    };
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--seed" => {
                out.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?
            }
            "--workload" => {
                let name = value("--workload")?;
                if !workloads::NAMES.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload '{name}' (one of {})",
                        workloads::NAMES.join(", ")
                    ));
                }
                out.workload = Some(name.clone());
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds needs a number")?;
                if s.is_nan() || s <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
                out.seconds = Some(s);
            }
            "--smoke" => out.smoke = true,
            // `--trace` alone, or `--trace 0|1` as the driver passes it.
            "--trace" => {
                out.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(out)
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (Value::Str(k.to_string()), v))
            .collect(),
    )
}

fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Map(entries) => entries
            .iter()
            .find(|(k, _)| k.as_str() == Some(key))
            .map(|(_, v)| v),
        _ => None,
    }
}

fn metrics_json(names: &[(&str, &str)], values: &[f64]) -> Value {
    obj(names
        .iter()
        .zip(values)
        .map(|((name, unit), v)| {
            (
                *name,
                obj(vec![
                    ("value", Value::Float(*v)),
                    ("unit", Value::Str(unit.to_string())),
                ]),
            )
        })
        .collect())
}

/// `<target>/cosmos-benchmark/`, next to the running executable.
fn out_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let target = exe
        .parent()
        .and_then(|p| p.parent())
        .ok_or("executable has no target directory")?;
    let dir = target.join("cosmos-benchmark");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn write_json(path: &std::path::Path, v: &Value) -> Result<(), String> {
    std::fs::write(path, v.to_json() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// Work per repetition and the other constants of a workload.
fn workload_facts(w: &Workload, seed: u64, reps_run: usize) -> Value {
    obj(vec![
        ("name", serde_json::json!(w.name)),
        ("seed", serde_json::json!(seed)),
        (
            "structure_seed",
            serde_json::json!(workloads::STRUCTURE_SEED),
        ),
        ("repetitions", serde_json::json!(reps_run)),
        ("nodes", serde_json::json!(w.nodes)),
        ("streams", serde_json::json!(w.streams.len())),
        ("startup_queries", serde_json::json!(w.startup)),
        ("queries", serde_json::json!(w.queries.len())),
        ("source_tuples", serde_json::json!(w.source_tuples())),
        (
            "publish_calls",
            serde_json::json!(w.count(|op| matches!(op, Op::Publish(_)))),
        ),
        (
            "submit_calls",
            serde_json::json!(w.startup + w.count(|op| matches!(op, Op::Submit(_)))),
        ),
        (
            "unsubscribe_calls",
            serde_json::json!(w.count(|op| matches!(op, Op::Unsubscribe(_)))),
        ),
    ])
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Value,
    /// Everything else that goes into the result file.
    record: Vec<(&'static str, Value)>,
}

fn calls_per_rep(w: &Workload) -> u64 {
    (w.startup + w.count(|op| matches!(op, Op::Publish(_) | Op::Submit(_) | Op::Unsubscribe(_))))
        as u64
}

fn print_lines(workload: &str, names: &[(&str, &str)], values: &[f64]) {
    for ((name, unit), v) in names.iter().zip(values) {
        println!("{workload} {name} {v} {unit}");
    }
}

fn report_failures(m: &Measured) -> (u64, Vec<String>) {
    let mut lines = Vec::new();
    let mut failed = 0u64;
    for (r, rep) in m.reps.iter().enumerate() {
        failed += rep.errors.len() as u64;
        lines.extend(rep.errors.iter().map(|e| format!("repetition {r}: {e}")));
    }
    failed += m.verdict.mismatches.len() as u64;
    lines.extend(m.verdict.mismatches.iter().cloned());
    lines.extend(m.verdict.problems.iter().cloned());
    (failed, lines)
}

fn measured_outcome(w: &Workload, seed: u64, m: &Measured) -> Outcome {
    let all: Vec<&measure::Rep> = m.reps.iter().collect();
    let checkpoint = &m.reps[0].checkpoint;
    let values = measure::end_to_end(w, &measure::timings(w, &all), checkpoint, m.peak_rss_kb);
    print_lines(w.name, &END_TO_END, &values);
    let (failed, lines) = report_failures(m);
    for l in &lines {
        println!("{} FAILED {l}", w.name);
    }
    let attempted = m.reps.len() as u64 * calls_per_rep(w) + m.verdict.queries_verified as u64;
    println!(
        "{} attempted_ops {attempted} failed_ops {failed} queries_verified {} \
         repetitions {} submit_samples {} unsubscribe_samples {}",
        w.name,
        m.verdict.queries_verified,
        m.reps.len(),
        w.startup + w.count(|op| matches!(op, Op::Submit(_))),
        w.count(|op| matches!(op, Op::Unsubscribe(_))),
    );
    // The same estimators on each repetition alone, so the de-noising
    // is auditable.
    let raw: Vec<Value> = m
        .reps
        .iter()
        .map(|rep| {
            let v = measure::end_to_end(
                w,
                &measure::timings(w, &[rep]),
                &rep.checkpoint,
                m.peak_rss_kb,
            );
            Value::Seq(v.iter().map(|x| Value::Float(*x)).collect())
        })
        .collect();
    let digests: Vec<Value> = checkpoint
        .digests
        .iter()
        .map(|d| serde_json::json!([d.count, d.ordered, d.multiset]))
        .collect();
    Outcome {
        correct: lines.is_empty(),
        attempted,
        failed,
        metrics: metrics_json(&END_TO_END, &values),
        record: vec![
            ("workload", workload_facts(w, seed, m.reps.len())),
            (
                "raw_columns",
                Value::Seq(
                    END_TO_END
                        .iter()
                        .map(|(n, _)| serde_json::json!(n))
                        .collect(),
                ),
            ),
            ("raw", Value::Seq(raw)),
            ("total_bytes", serde_json::json!(checkpoint.total_bytes)),
            (
                "queries_verified",
                serde_json::json!(m.verdict.queries_verified),
            ),
            ("digests", Value::Seq(digests)),
            (
                "failures",
                Value::Seq(lines.iter().map(|l| serde_json::json!(l)).collect()),
            ),
        ],
    }
}

fn traced_outcome(
    w: &Workload,
    seed: u64,
    catalog: &Catalog,
    dir: &std::path::Path,
) -> Result<Outcome, String> {
    // A short measured run first: the residual and the shadow ratio
    // compare the trace against tracing-off time from the same process.
    let short = measure::run(w, catalog, TRACED_RUN_REPS, f64::INFINITY)?;
    let all: Vec<&measure::Rep> = short.reps.iter().collect();
    let t = measure::timings(w, &all);
    let publish_ns = t.publish_ns.iter().sum::<u64>() + t.close_ns;
    let traced = trace::run(w, catalog, TRACED_RUN_REPS, t.ns_per_tuple(w), publish_ns)?;
    print_lines(w.name, &PER_LAYER, &traced.values);

    let (mut failed, mut lines) = report_failures(&short);
    failed += traced.errors.len() as u64;
    lines.extend(traced.errors.iter().cloned());
    lines.extend(traced.problems.iter().cloned());
    // Same program, same inputs: the traced deployment must have
    // delivered and accounted what the measured run did.
    if traced.checkpoint != short.reps[0].checkpoint {
        lines.push("traced deployment diverged from the measured run at the checkpoint".into());
    }
    for l in &lines {
        println!("{} FAILED {l}", w.name);
    }
    let spans_path = dir.join(format!("{}.spans.jsonl", w.name));
    traced
        .spans
        .write(&spans_path)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    println!(
        "{} spans {} written to {}",
        w.name,
        traced.spans.spans.len(),
        spans_path.display()
    );
    let self_times: Vec<Value> = traced
        .self_times
        .iter()
        .map(|(ns, calls)| serde_json::json!([*ns, *calls]))
        .collect();
    Ok(Outcome {
        correct: lines.is_empty(),
        attempted: short.reps.len() as u64 * calls_per_rep(w)
            + calls_per_rep(w)
            + short.verdict.queries_verified as u64,
        failed,
        metrics: metrics_json(&PER_LAYER, &traced.values),
        record: vec![
            ("workload", workload_facts(w, seed, short.reps.len())),
            ("span_self_ns_and_calls", Value::Seq(self_times)),
            (
                "failures",
                Value::Seq(lines.iter().map(|l| serde_json::json!(l)).collect()),
            ),
        ],
    })
}

/// One workload in this process.
fn run_workload(args: &Args, name: &str) -> Result<bool, String> {
    let scale = if args.smoke { SMOKE_SCALE } else { 1 };
    let w = workloads::build(name, args.seed, scale).ok_or("unknown workload")?;
    let catalog = Catalog::sensors();
    let dir = out_dir()?;
    let outcome = if args.trace {
        traced_outcome(&w, args.seed, &catalog, &dir)?
    } else {
        let budget = args.seconds.unwrap_or(f64::INFINITY);
        let max_reps = if args.smoke {
            SMOKE_REPS
        } else {
            workloads::MAX_REPS
        };
        let m = measure::run(&w, &catalog, max_reps, budget)?;
        measured_outcome(&w, args.seed, &m)
    };
    let result = obj(vec![
        ("correct", Value::Bool(outcome.correct)),
        ("attempted", serde_json::json!(outcome.attempted)),
        ("failed", serde_json::json!(outcome.failed)),
        ("metrics", outcome.metrics),
    ]);
    let mut record = vec![("result", result.clone()), ("host", obj(host::facts()))];
    record.extend(outcome.record);
    let kind = if args.trace { "traced" } else { "measured" };
    write_json(
        &dir.join(format!("{name}.{kind}.seed{}.json", args.seed)),
        &obj(record),
    )?;
    println!("{}", result.to_json());
    Ok(outcome.correct)
}

/// Every workload, each in a child process of its own.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = out_dir()?;
    let mut all_correct = true;
    let (mut attempted, mut failed) = (0i64, 0i64);
    let mut per_workload = Vec::new();
    for name in workloads::NAMES {
        let mut kinds = Vec::new();
        for trace in [false, true] {
            if trace && !args.trace {
                continue;
            }
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name, "--seed", &args.seed.to_string()]);
            cmd.args(["--trace", if trace { "1" } else { "0" }]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            if let Some(s) = args.seconds {
                cmd.args(["--seconds", &s.to_string()]);
            }
            // `output` waits for the child to end.
            let out = cmd.output().map_err(|e| format!("{name}: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            let last = lines.pop().unwrap_or("");
            for l in lines {
                println!("{l}");
            }
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            let kind = if trace { "traced" } else { "measured" };
            let path = dir.join(format!("{name}.{kind}.seed{}.json", args.seed));
            let record = std::fs::read_to_string(&path)
                .ok()
                .and_then(|s| Value::parse_json(&s).ok());
            let result = Value::parse_json(last).ok();
            let ok = out.status.success()
                && result.as_ref().and_then(|r| get(r, "correct")) == Some(&Value::Bool(true));
            if !ok {
                println!("{name} FAILED {kind} run (exit {:?})", out.status.code());
                all_correct = false;
            }
            for (key, total) in [("attempted", &mut attempted), ("failed", &mut failed)] {
                if let Some(Value::Int(n)) = result.as_ref().and_then(|r| get(r, key)) {
                    *total += n;
                }
            }
            kinds.push((kind, record.unwrap_or(Value::Null)));
        }
        per_workload.push((name, obj(kinds)));
    }
    let summary = obj(vec![
        ("correct", Value::Bool(all_correct)),
        ("attempted", Value::Int(attempted)),
        ("failed", Value::Int(failed)),
    ]);
    write_json(
        &dir.join(format!("run.seed{}.json", args.seed)),
        &obj(vec![
            ("summary", summary.clone()),
            ("workloads", obj(per_workload)),
        ]),
    )?;
    println!("{}", summary.to_json());
    Ok(all_correct)
}

/// Returns the process exit code.
pub fn main() -> i32 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cosmos-benchmark: {e}");
            return 2;
        }
    };
    host::pin_or_continue();
    let run = match &args.workload {
        Some(name) => run_workload(&args, name),
        None => run_all(&args),
    };
    match run {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("cosmos-benchmark: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse(&[
            "--workload",
            "churn",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!((a.seed, a.trace, a.seconds), (7, true, Some(10.0)));
        assert_eq!(a.workload.as_deref(), Some("churn"));
        assert!(!parse(&["--trace", "0"]).unwrap().trace);
        assert!(parse(&["--trace", "--smoke"]).unwrap().smoke);
        assert!(parse(&["--trace"]).unwrap().trace);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }
}
