//! Self-tests of the benchmark as a program: the names it emits are the
//! names `BENCHMARK.json` declares, `--smoke` verifies on two seeds,
//! one seed gives identical counts and digests twice, and the shadow
//! comparison has teeth.

use cosmos_benchmark::sut::Catalog;
use cosmos_benchmark::{trace, workloads};
use serde_json::Value;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_cosmos-benchmark");

fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Map(entries) => entries
            .iter()
            .find(|(k, _)| k.as_str() == Some(key))
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no key '{key}'")),
        other => panic!("not an object: {other}"),
    }
}

fn names(v: &Value) -> Vec<String> {
    match v {
        Value::Seq(items) => items
            .iter()
            .map(|i| {
                get(i, "name")
                    .as_str()
                    .expect("name is a string")
                    .to_string()
            })
            .collect(),
        other => panic!("not a list: {other}"),
    }
}

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(EXE)
        .args(args)
        .output()
        .expect("benchmark runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// `<target>/cosmos-benchmark/`, where the binary writes its records.
fn out_dir() -> PathBuf {
    PathBuf::from(EXE)
        .parent()
        .and_then(|p| p.parent())
        .expect("target directory")
        .join("cosmos-benchmark")
}

#[test]
fn smoke_trace_emits_exactly_the_declared_names() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let manifest = Value::parse_json(&manifest).expect("BENCHMARK.json parses");
    let declared_workloads: BTreeSet<String> =
        names(get(&manifest, "workloads")).into_iter().collect();
    let mut declared_metrics: BTreeSet<String> =
        names(get(&manifest, "end_to_end")).into_iter().collect();
    declared_metrics.extend(names(get(&manifest, "per_layer")));
    let ok_name = |n: &String| {
        !n.is_empty()
            && n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    assert!(declared_workloads.iter().all(ok_name));
    assert!(declared_metrics.iter().all(ok_name));

    let (ok, stdout) = run(&["--smoke", "--trace", "--seed", "1"]);
    assert!(ok, "--smoke --trace --seed 1 failed:\n{stdout}");
    // `workload metric value unit` lines.
    let mut emitted: BTreeSet<(String, String)> = BTreeSet::new();
    for line in stdout.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() == 4 && f[2].parse::<f64>().is_ok() {
            emitted.insert((f[0].to_string(), f[1].to_string()));
        }
    }
    let emitted_workloads: BTreeSet<String> = emitted.iter().map(|(w, _)| w.clone()).collect();
    assert_eq!(emitted_workloads, declared_workloads);
    for w in &declared_workloads {
        let metrics: BTreeSet<String> = emitted
            .iter()
            .filter(|(ew, _)| ew == w)
            .map(|(_, m)| m.clone())
            .collect();
        assert_eq!(metrics, declared_metrics, "metric names of '{w}'");
    }
}

#[test]
fn smoke_verifies_on_a_second_seed() {
    let (ok, stdout) = run(&["--smoke", "--seed", "2"]);
    assert!(ok, "--smoke --seed 2 failed:\n{stdout}");
    assert!(!stdout.contains("FAILED"));
    let last = Value::parse_json(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(get(&last, "correct"), &Value::Bool(true));
    assert_eq!(get(&last, "failed"), &Value::Int(0));
}

#[test]
fn one_seed_gives_identical_counts_and_digests() {
    let record = |tag: &str| -> Value {
        let (ok, stdout) = run(&["--smoke", "--workload", "churn", "--seed", "3"]);
        assert!(ok, "{tag} run failed:\n{stdout}");
        let text = std::fs::read_to_string(out_dir().join("churn.measured.seed3.json")).unwrap();
        Value::parse_json(&text).unwrap()
    };
    let (a, b) = (record("first"), record("second"));
    for key in ["digests", "total_bytes", "queries_verified"] {
        assert_eq!(get(&a, key), get(&b, key), "{key} differs between runs");
    }
    let metric =
        |r: &Value, m: &str| get(get(get(get(r, "result"), "metrics"), m), "value").clone();
    assert_eq!(
        metric(&a, "link_bytes_per_tuple"),
        metric(&b, "link_bytes_per_tuple")
    );
    for key in ["attempted", "failed", "correct"] {
        assert_eq!(get(get(&a, "result"), key), get(get(&b, "result"), key));
    }
    // A different seed publishes different tuples.
    let (ok, _) = run(&["--smoke", "--workload", "churn", "--seed", "4"]);
    assert!(ok);
    let other = std::fs::read_to_string(out_dir().join("churn.measured.seed4.json")).unwrap();
    let other = Value::parse_json(&other).unwrap();
    assert_ne!(get(&a, "digests"), get(&other, "digests"));
}

#[test]
fn a_corrupted_shadow_delivery_fails_the_traced_run() {
    let w = workloads::build("windowed", 5, 16).unwrap();
    let traced = trace::run(&w, &Catalog::sensors(), 1, 1.0, 1).unwrap();
    assert_eq!(traced.problems, Vec::<String>::new());
    let real: Vec<_> = traced
        .real_deliveries
        .iter()
        .map(|(q, t)| (*q, t.as_slice()))
        .collect();
    assert!(trace::compare_deliveries(&traced.shadow_deliveries, &real, false).is_empty());

    // Drop one mirrored tuple of the busiest query.
    let mut corrupted = traced.shadow_deliveries.clone();
    let victim = corrupted
        .values_mut()
        .max_by_key(|t| t.len())
        .expect("some query delivered");
    assert!(victim.pop().is_some());
    for multiset in [false, true] {
        let problems = trace::compare_deliveries(&corrupted, &real, multiset);
        assert_eq!(problems.len(), 1, "{problems:?}");
    }
    // Swapping two mirrored tuples breaks the sequence, not the multiset.
    let mut swapped = traced.shadow_deliveries.clone();
    let victim = swapped
        .values_mut()
        .find(|t| t.len() >= 2 && t[0] != t[1])
        .expect("a query with two distinct results");
    victim.swap(0, 1);
    assert_eq!(trace::compare_deliveries(&swapped, &real, false).len(), 1);
    assert!(trace::compare_deliveries(&swapped, &real, true).is_empty());
}
