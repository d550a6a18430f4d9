//! The `cosmos-bound` binary refuses a rate or horizon that would make
//! its bounds meaningless: a negative or non-finite value exits 2 with
//! the usage line, like a missing one.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Write the catalog and the statement into a per-test directory and
/// run `cosmos-bound --schemas CATALOG FLAGS… FILE`.
fn bound(test: &str, query: &str, flags: &[&str]) -> Output {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("bound-cli-{test}"));
    std::fs::create_dir_all(&dir).unwrap();
    let catalog = dir.join("s.cat");
    let file = dir.join("q.cql");
    std::fs::write(&catalog, "S(k INT, x FLOAT, timestamp INT)\n").unwrap();
    std::fs::write(&file, query).unwrap();
    Command::new(env!("CARGO_BIN_EXE_cosmos-bound"))
        .arg("--schemas")
        .arg(&catalog)
        .args(flags)
        .arg(&file)
        .output()
        .expect("cosmos-bound runs")
}

const AGGREGATE: &str = "SELECT k, COUNT(*) FROM S [Range 30 Second] GROUP BY k";
const SELECTION: &str = "SELECT k FROM S [Now] WHERE x > 1.0";

fn assert_refused(out: &Output, flag: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
    assert!(out.stdout.is_empty(), "{flag} printed a report");
    assert!(stderr.contains(flag), "{stderr}");
    assert!(stderr.contains("usage: cosmos-bound"), "{stderr}");
}

#[test]
fn negative_or_non_finite_rates_are_refused() {
    for rate in ["-5", "NaN", "inf", "-inf"] {
        let out = bound("rate", AGGREGATE, &["--rate", rate]);
        assert_refused(&out, "--rate");
    }
}

#[test]
fn negative_or_non_finite_horizons_are_refused() {
    for horizon in ["-10", "NaN", "inf"] {
        let out = bound("horizon", SELECTION, &["--horizon", horizon]);
        assert_refused(&out, "--horizon");
    }
}

#[test]
fn finite_non_negative_values_report_bounds() {
    for flags in [
        &["--rate", "5"][..],
        &["--rate", "0"],
        &["--horizon", "10"],
        &["--rate", "2.5", "--horizon", "0"],
    ] {
        let out = bound("ok", SELECTION, flags);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{flags:?}: {stdout}");
        let (_, note) = stdout.split_once("note[B0201]: state ≤").expect(&stdout);
        assert!(!note.contains('-') && !note.contains("NaN"), "{stdout}");
    }
}
