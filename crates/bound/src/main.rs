#![forbid(unsafe_code)]
//! `cosmos-bound` CLI: worst-case bound reports for `.cql` files.
//!
//! ```text
//! cosmos-bound --schemas CATALOG [--rate TPS] [--horizon SECS] [--json] FILE...
//! ```
//!
//! Every statement is analyzed against the schema catalog (the
//! `cosmos-lint` catalog format), checked for structural unboundedness
//! (`B01xx`), and — under a uniform rate envelope of `--rate` tuples
//! per second per stream, optionally cut off at `--horizon` seconds —
//! reported with its derived worst-case state and load bounds
//! (`B0201`). `--json` emits one JSON array (the shared
//! [`cosmos_lint::JsonDiagnostic`] form plus a `bounds` object per
//! statement). Exit status: 0 when every statement is admissible,
//! 1 if any error-level finding, 2 on usage/IO problems.

use cosmos_bound::{check_query, query_bounds, Bound, Envelope, QueryBounds, StreamEnvelope};
use cosmos_lint::{codes, Diagnostic, JsonDiagnostic, Severity};
use cosmos_query::estimate::TUPLE_HEADER_BYTES;
use cosmos_spe::analyze::AnalyzedQuery;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut schemas: Option<String> = None;
    let mut rate = 1.0f64;
    let mut horizon: Option<f64> = None;
    let mut json = false;
    let mut files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--schemas" => match args.next() {
                Some(path) => schemas = Some(path),
                None => return usage("--schemas needs a file argument"),
            },
            "--rate" => match args.next().as_deref().and_then(non_negative) {
                Some(v) => rate = v,
                None => return usage("--rate needs a finite, non-negative number"),
            },
            "--horizon" => match args.next().as_deref().and_then(non_negative) {
                Some(v) => horizon = Some(v),
                None => return usage("--horizon needs a finite, non-negative number"),
            },
            "--json" => json = true,
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                return usage(&format!("unknown flag '{other}'"));
            }
            file => files.push(file.to_string()),
        }
    }
    let Some(schemas) = schemas else {
        return usage("--schemas is required (bounds need stream schemas)");
    };
    if files.is_empty() {
        return usage("no input files");
    }

    let catalog = match std::fs::read_to_string(&schemas)
        .map_err(|e| e.to_string())
        .and_then(|text| cosmos_lint::parse_catalog(&text).map_err(|e| e.to_string()))
    {
        Ok(cat) => cat,
        Err(e) => {
            eprintln!("cosmos-bound: {schemas}: {e}");
            return ExitCode::from(2);
        }
    };
    let mut env = Envelope::new();
    for (name, schema) in &catalog {
        env.set(
            name.as_str().into(),
            StreamEnvelope::Rate {
                tuples_per_sec: rate,
                horizon_secs: horizon,
                tuple_bytes: schema.estimated_tuple_bytes() as f64 + TUPLE_HEADER_BYTES,
            },
        );
    }

    let mut errors = 0usize;
    let mut report: Vec<serde_json::Value> = Vec::new();
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cosmos-bound: {file}: {e}");
                return ExitCode::from(2);
            }
        };
        for (n, stmt) in cosmos_cql::split_statements(&text).enumerate() {
            let analyzed = cosmos_cql::parse_query(stmt)
                .map_err(|e| e.message().to_string())
                .and_then(|q| {
                    AnalyzedQuery::analyze(&q, |name| catalog.get(name).cloned())
                        .map_err(|e| e.to_string())
                });
            let (diags, bounds) = match &analyzed {
                Err(e) => (vec![Diagnostic::error(codes::PARSE, e.clone(), None)], None),
                Ok(q) => (check_query(q), Some(query_bounds(q, &env))),
            };
            errors += diags
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .count();
            if json {
                report.push(serde_json::json!({
                    "file": file,
                    "statement": n + 1,
                    "diagnostics": diags.iter().map(JsonDiagnostic::from).collect::<Vec<_>>(),
                    "bounds": bounds.map(|b| bounds_json(&b)),
                }));
            } else {
                for d in &diags {
                    println!("{file}: statement {}: {}", n + 1, d.render(stmt));
                }
                if let Some(b) = bounds {
                    println!(
                        "{file}: statement {}: note[{}]: state ≤ {} rows / {} bytes, \
                         output ≤ {} rows / {} bytes, intake ≤ {} bytes",
                        n + 1,
                        cosmos_bound::codes::STATE_BOUND,
                        b.state_rows,
                        b.state_bytes,
                        b.output_rows,
                        b.output_bytes,
                        b.intake_bytes,
                    );
                }
            }
        }
    }
    if json {
        println!(
            "{}",
            serde_json::to_string(&report).expect("report always serializes")
        );
    }
    if errors > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// `arg` as a finite, non-negative number: a negative or non-finite
/// rate or horizon would print negative or NaN bounds.
fn non_negative(arg: &str) -> Option<f64> {
    arg.parse()
        .ok()
        .filter(|v: &f64| v.is_finite() && *v >= 0.0)
}

fn num(b: Bound) -> serde_json::Value {
    match b.as_finite() {
        Some(x) => serde_json::json!(x),
        None => serde_json::Value::Null, // null = unbounded
    }
}

fn bounds_json(b: &QueryBounds) -> serde_json::Value {
    serde_json::json!({
        "state_rows": num(b.state_rows),
        "state_bytes": num(b.state_bytes),
        "buffer_rows": num(b.buffer_rows),
        "agg_window_rows": num(b.agg_window_rows),
        "group_rows": num(b.group_rows),
        "distinct_rows": num(b.distinct_rows),
        "output_rows": num(b.output_rows),
        "output_row_bytes": num(b.output_row_bytes),
        "output_bytes": num(b.output_bytes),
        "intake_bytes": num(b.intake_bytes),
    })
}

const USAGE: &str =
    "usage: cosmos-bound --schemas CATALOG [--rate TPS] [--horizon SECS] [--json] FILE...";

fn usage(msg: &str) -> ExitCode {
    eprintln!("cosmos-bound: {msg}\n{USAGE}");
    ExitCode::from(2)
}
