//! The diagnostic model: stable codes, severities, and source spans.

use cosmos_cql::Span;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Stable diagnostic codes.
///
/// Codes are grouped by the hundred: `C00xx` tooling, `C01xx`
/// satisfiability, `C02xx` schema/types, `C03xx` windows, `C04xx`
/// profiles, `C05xx` merge safety. A code's meaning never changes once
/// published; retired codes are not reused (nor are the `D` codes of the
/// retired determinism lint, whose rules `crates/clippy.toml` now holds).
pub mod codes {
    /// A statement failed to lex or parse (CLI only).
    pub const PARSE: &str = "C0001";
    /// The WHERE clause admits no tuple (contradictory or interacting
    /// constraints).
    pub const UNSAT_WHERE: &str = "C0101";
    /// An equality chain (`a = b AND b = c …`) forces an attribute to
    /// hold two different values at once.
    pub const EQ_CHAIN_CONFLICT: &str = "C0103";
    /// A FROM stream is not registered in the catalog.
    pub const UNKNOWN_STREAM: &str = "C0201";
    /// An attribute reference names no attribute of the bound streams,
    /// an unknown binding, or is ambiguous across streams.
    pub const UNKNOWN_ATTR: &str = "C0202";
    /// A comparison between incomparable types (or with `NULL`).
    pub const TYPE_MISMATCH: &str = "C0203";
    /// A multi-stream query joins over an `[Unbounded]` window.
    pub const UNBOUNDED_JOIN: &str = "C0301";
    /// An aggregate runs over a zero-width `[Now]` window.
    pub const ZERO_WIDTH_AGG: &str = "C0302";
    /// One stream appears under different windows, foreclosing the
    /// paper's Theorem-2 merging (which needs equal per-stream windows).
    pub const WINDOW_MISMATCH: &str = "C0303";
    /// A profile disjunct is subsumed by another disjunct (redundant).
    pub const REDUNDANT_DISJUNCT: &str = "C0401";
    /// A profile disjunct is unsatisfiable and can never match.
    pub const UNSAT_DISJUNCT: &str = "C0402";
    /// A member's re-tightened split filter is unsatisfiable: after
    /// merging, its result stream would always be empty.
    pub const UNSAT_SPLIT_FILTER: &str = "C0501";
}

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational context attached to another finding.
    Note,
    /// Suspicious but legal; registration proceeds.
    Warning,
    /// Definitely wrong; registration is rejected.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding from a lint pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code from [`codes`].
    pub code: &'static str,
    /// Severity of the finding.
    pub severity: Severity,
    /// Human-readable explanation.
    pub message: String,
    /// Byte span into the source statement, when one exists (profile
    /// lints have no source text to point into).
    pub span: Option<Span>,
}

impl Diagnostic {
    /// An [`Severity::Error`]-level finding.
    pub fn error(code: &'static str, message: impl Into<String>, span: Option<Span>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            message: message.into(),
            span,
        }
    }

    /// A [`Severity::Warning`]-level finding.
    pub fn warning(code: &'static str, message: impl Into<String>, span: Option<Span>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Warning,
            message: message.into(),
            span,
        }
    }

    /// Compact one-line form, `severity[code]: message`.
    pub fn headline(&self) -> String {
        format!("{}[{}]: {}", self.severity, self.code, self.message)
    }

    /// Render against the source text, rustc-style: the headline, then
    /// the offending line with a caret run under the span.
    pub fn render(&self, src: &str) -> String {
        let mut out = self.headline();
        let Some(span) = self.span else {
            return out;
        };
        let start = span.start.min(src.len());
        let line_no = src[..start].bytes().filter(|&b| b == b'\n').count() + 1;
        let line_start = src[..start].rfind('\n').map_or(0, |i| i + 1);
        let line_end = src[start..].find('\n').map_or(src.len(), |i| start + i);
        let line = &src[line_start..line_end];
        let col = start - line_start + 1;
        let width = span.end.min(line_end).saturating_sub(start).max(1);
        out.push_str(&format!(
            "\n  --> {line_no}:{col}\n   | {line}\n   | {}{}",
            " ".repeat(col - 1),
            "^".repeat(width)
        ));
        out
    }
}

/// Whether any finding is an [`Severity::Error`].
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// The machine-readable diagnostic form shared by every COSMOS static
/// tool: `cosmos-lint` (`C` codes), `cosmos-verify` (`V` codes) and
/// `cosmos-bound` (`B` codes) all emit this one shape under `--json`,
/// so downstream tooling parses a single format regardless of which
/// analyzer produced the finding.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JsonDiagnostic {
    /// Stable diagnostic code (`C…`, `V…` or `B…`).
    pub code: String,
    /// `"error"`, `"warning"`, or `"note"`.
    pub severity: String,
    /// Human-readable explanation.
    pub message: String,
    /// Byte span `(start, end)` into the source statement; `null` when
    /// the finding has no source text to point into.
    pub span: Option<(usize, usize)>,
}

impl From<&Diagnostic> for JsonDiagnostic {
    fn from(d: &Diagnostic) -> JsonDiagnostic {
        JsonDiagnostic {
            code: d.code.to_string(),
            severity: d.severity.to_string(),
            message: d.message.clone(),
            span: d.span.map(|s| (s.start, s.end)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_ordering_and_display() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Note);
        assert_eq!(Severity::Error.to_string(), "error");
    }

    #[test]
    fn render_underlines_the_span() {
        let src = "SELECT a FROM S [Now] WHERE a > 5";
        let d = Diagnostic::error(codes::UNSAT_WHERE, "boom", Some(Span::new(28, 33)));
        let r = d.render(src);
        assert!(r.starts_with("error[C0101]: boom"), "{r}");
        assert!(r.contains("--> 1:29"), "{r}");
        assert!(r.contains("^^^^^"), "{r}");
    }

    #[test]
    fn render_without_span_is_just_the_headline() {
        let d = Diagnostic::warning(codes::UNSAT_DISJUNCT, "dead disjunct", None);
        assert_eq!(d.render("whatever"), "warning[C0402]: dead disjunct");
    }

    #[test]
    fn json_form_round_trips_and_elides_missing_spans() {
        let d = Diagnostic::error(codes::UNSAT_WHERE, "boom", Some(Span::new(3, 7)));
        let j = serde_json::to_string(&JsonDiagnostic::from(&d)).unwrap();
        assert!(j.contains("\"code\":\"C0101\""), "{j}");
        assert!(j.contains("\"span\":[3,7]"), "{j}");
        let back: JsonDiagnostic = serde_json::from_str(&j).unwrap();
        assert_eq!(back, JsonDiagnostic::from(&d));
        let spanless = Diagnostic::warning(codes::UNSAT_DISJUNCT, "dead", None);
        let j = serde_json::to_string(&JsonDiagnostic::from(&spanless)).unwrap();
        assert!(j.contains("\"span\":null"), "{j}");
    }

    #[test]
    fn has_errors_ignores_warnings() {
        let w = Diagnostic::warning(codes::UNBOUNDED_JOIN, "w", None);
        let e = Diagnostic::error(codes::UNKNOWN_STREAM, "e", None);
        assert!(!has_errors(std::slice::from_ref(&w)));
        assert!(has_errors(&[w, e]));
    }
}
