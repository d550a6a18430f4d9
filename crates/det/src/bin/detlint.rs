#![forbid(unsafe_code)]
//! `cosmos-detlint` CLI: the workspace determinism lint.
//!
//! ```text
//! cosmos-detlint [ROOT] [--json]
//! ```
//!
//! Walks every `crates/*/src` and `crates/*/benches` Rust file under
//! ROOT (default: the current directory) and runs the `D`-code
//! determinism lints (see `cosmos_det::lints`). There is no suppression
//! mechanism: every finding fails the run. `--json` emits one JSON
//! array in the `JsonDiagnostic` shape shared with `cosmos-lint`/
//! `cosmos-verify`/`cosmos-bound`, wrapped with `file`/`line` context.
//! Exit status: 0 clean, 1 findings, 2 usage/IO problems.

use cosmos_det::lint_workspace;
use cosmos_lint::JsonDiagnostic;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                return usage(&format!("unknown flag '{other}'"));
            }
            path if root.is_none() => root = Some(PathBuf::from(path)),
            _ => return usage("at most one ROOT directory"),
        }
    }
    let root = root.unwrap_or_else(|| PathBuf::from("."));
    if !root.join("crates").is_dir() {
        eprintln!(
            "cosmos-detlint: {} has no crates/ directory (pass the workspace root)",
            root.display()
        );
        return ExitCode::from(2);
    }

    let findings = match lint_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cosmos-detlint: {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if json {
        let out: Vec<serde_json::Value> = findings
            .iter()
            .map(|f| {
                serde_json::json!({
                    "file": f.path,
                    "line": f.line,
                    "diagnostic": JsonDiagnostic::from(&f.diag),
                })
            })
            .collect();
        println!(
            "{}",
            serde_json::to_string(&out).expect("findings always serialize")
        );
    } else {
        for f in &findings {
            println!("{}:{}: {}", f.path, f.line, f.diag.headline());
            if !f.line_text.is_empty() {
                println!("   | {}", f.line_text.trim_end());
            }
        }
        println!(
            "cosmos-detlint: {} finding{}",
            findings.len(),
            if findings.len() == 1 { "" } else { "s" },
        );
    }

    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

const USAGE: &str = "usage: cosmos-detlint [ROOT] [--json]";

fn usage(msg: &str) -> ExitCode {
    eprintln!("cosmos-detlint: {msg}\n{USAGE}");
    ExitCode::from(2)
}
