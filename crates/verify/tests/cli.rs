//! The `cosmos-verify` binary's argument handling: an unknown flag is
//! a usage error (exit 2 with the usage line), never silently dropped.

use cosmos::{Cosmos, CosmosConfig};
use cosmos_lint::JsonDiagnostic;
use cosmos_query::{AttrStats, StreamStats};
use cosmos_types::{AttrType, NodeId, Schema};
use std::path::PathBuf;
use std::process::{Command, Output};

/// A small clean deployment's snapshot, written to a per-test file.
fn snapshot_file(test: &str) -> PathBuf {
    let mut sys = Cosmos::new(CosmosConfig {
        nodes: 6,
        seed: 3,
        ..CosmosConfig::default()
    })
    .unwrap();
    sys.register_stream(
        "S",
        Schema::of(&[("k", AttrType::Int), ("timestamp", AttrType::Int)]),
        StreamStats::with_rate(10.0).attr("k", AttrStats::categorical(10.0)),
        NodeId(0),
    )
    .unwrap();
    sys.submit_query("SELECT k FROM S [Now] WHERE k > 2", NodeId(4))
        .unwrap();
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("verify-cli-{test}.json"));
    std::fs::write(&path, sys.snapshot().unwrap().to_json().unwrap()).unwrap();
    path
}

fn verify(args: &[&str], snapshot: &PathBuf) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cosmos-verify"))
        .arg(snapshot)
        .args(args)
        .output()
        .expect("cosmos-verify runs")
}

#[test]
fn an_unknown_flag_is_a_usage_error() {
    let snap = snapshot_file("unknown");
    for flag in ["--jsno", "--quite", "-x"] {
        let out = verify(&[flag], &snap);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{flag} printed a report");
        assert!(stderr.contains(flag), "{stderr}");
        assert!(stderr.contains("usage: cosmos-verify"), "{stderr}");
    }
}

#[test]
fn known_flags_still_select_the_output() {
    let snap = snapshot_file("known");
    let human = verify(&[], &snap);
    assert_eq!(human.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&human.stdout);
    assert!(stdout.contains("cosmos-verify: ok"), "{stdout}");
    let json = verify(&["--json"], &snap);
    assert_eq!(json.status.code(), Some(0));
    let findings: Vec<JsonDiagnostic> =
        serde_json::from_str(&String::from_utf8_lossy(&json.stdout)).unwrap();
    assert!(
        findings.iter().all(|d| d.severity != "error"),
        "{findings:?}"
    );
    for quiet in ["--quiet", "-q"] {
        let out = verify(&[quiet], &snap);
        assert_eq!(out.status.code(), Some(0));
        assert!(out.stdout.is_empty(), "{quiet} printed a report");
    }
}
