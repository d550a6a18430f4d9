#![forbid(unsafe_code)]
//! `cosmos-lint`: static analysis of continuous queries.
//!
//! A registered continuous query runs forever; a malformed one fails
//! forever. Where a one-shot SQL query that returns nothing is merely
//! disappointing, a continuous query whose WHERE clause is
//! unsatisfiable, or whose CBN split filter can never match, silently
//! produces an empty result stream for its whole lifetime while still
//! consuming routing state, matcher slots and merge candidates. This
//! crate finds those queries *before* registration:
//!
//! * **Satisfiability** ([`check_query`]): contradictory bounds on one
//!   attribute, empty `BETWEEN`/difference ranges, and — via the shared
//!   Bellman–Ford kernel [`cosmos_cbn::conjunction_unsat`] —
//!   contradictions that only appear when predicates interact (`a ≥ b
//!   AND b ≥ 5 AND a < 5`), plus equality chains that force one
//!   attribute to two values.
//! * **Schema/type checks** ([`check_query_with`]): unknown streams,
//!   unknown or ambiguous attributes, comparisons across incomparable
//!   types.
//! * **Window lints**: joins over `[Unbounded]`, aggregates over
//!   zero-width `[Now]` windows, and one stream under two windows
//!   (which forecloses the paper's Theorem-2 merging).
//!
//! Findings are [`Diagnostic`]s with stable codes (see [`codes`]),
//! severities, and byte spans into the statement text (threaded from
//! the lexer through [`cosmos_cql::parse_query_spanned`]). The system
//! layer rejects registration on any `Error`-level finding and surfaces
//! `Warning`s; the `cosmos-lint` binary lints `.cql` files offline.

mod catalog;
mod diag;
mod query;

pub use catalog::parse_catalog;
pub use diag::{codes, has_errors, Diagnostic, JsonDiagnostic, Severity};
pub use query::{check_query, check_query_with};
