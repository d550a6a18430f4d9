#![forbid(unsafe_code)]
//! `cosmos-verify` — statically verify a dumped network snapshot.
//!
//! ```text
//! cosmos-verify <snapshot.json> [--quiet] [--json]
//! cosmos-verify -            # read the snapshot from stdin
//! ```
//!
//! Prints every finding as a one-line diagnostic and exits non-zero iff
//! any `error`-level violation (V1–V6) was found. `--json` emits one
//! JSON array of findings in the [`cosmos_lint::JsonDiagnostic`] form
//! shared with `cosmos-lint` and `cosmos-bound`. Produce snapshots with
//! `cosmos-sim snapshot --seed N` or [`cosmos::Cosmos::snapshot`] +
//! [`cosmos::NetworkSnapshot::to_json`].

use cosmos::NetworkSnapshot;
use cosmos_lint::{JsonDiagnostic, Severity};
use std::io::Read;
use std::process::ExitCode;

fn main() -> ExitCode {
    let (mut quiet, mut json) = (false, false);
    let mut paths: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quiet" | "-q" => quiet = true,
            "--json" => json = true,
            flag if flag.starts_with('-') && flag != "-" => {
                return usage(&format!("unknown flag '{flag}'"));
            }
            _ => paths.push(arg),
        }
    }
    let [path] = paths.as_slice() else {
        return usage("exactly one snapshot path is needed");
    };

    let text = if path.as_str() == "-" {
        let mut buf = String::new();
        if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
            eprintln!("cosmos-verify: reading stdin: {e}");
            return ExitCode::from(2);
        }
        buf
    } else {
        match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cosmos-verify: reading {path}: {e}");
                return ExitCode::from(2);
            }
        }
    };

    let snap = match NetworkSnapshot::from_json(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cosmos-verify: {e}");
            return ExitCode::from(2);
        }
    };

    let diags = cosmos_verify::verify_snapshot(&snap);
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    if json {
        let findings: Vec<JsonDiagnostic> = diags.iter().map(JsonDiagnostic::from).collect();
        println!(
            "{}",
            serde_json::to_string(&findings).expect("findings always serialize")
        );
    } else if !quiet {
        for d in &diags {
            println!("{}", d.headline());
        }
    }
    if errors > 0 {
        eprintln!(
            "cosmos-verify: {errors} violation{} in {} finding{}",
            if errors == 1 { "" } else { "s" },
            diags.len(),
            if diags.len() == 1 { "" } else { "s" },
        );
        ExitCode::FAILURE
    } else {
        if !quiet && !json {
            println!(
                "cosmos-verify: ok — {} node{}, {} group{}, {} direct quer{}, {} advisory finding{}",
                snap.nodes,
                if snap.nodes == 1 { "" } else { "s" },
                snap.groups.len(),
                if snap.groups.len() == 1 { "" } else { "s" },
                snap.direct.len(),
                if snap.direct.len() == 1 { "y" } else { "ies" },
                diags.len(),
                if diags.len() == 1 { "" } else { "s" },
            );
        }
        ExitCode::SUCCESS
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("cosmos-verify: {msg}\nusage: cosmos-verify <snapshot.json | -> [--quiet] [--json]");
    ExitCode::from(2)
}
