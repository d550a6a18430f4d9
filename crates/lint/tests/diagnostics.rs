//! One dedicated test per diagnostic code, each asserting both the
//! finding and (where spans exist) the exact source text the span
//! underlines.

use cosmos_cql::parse_query_spanned;
use cosmos_lint::{check_query, check_query_with, codes, Severity};
use cosmos_types::{AttrType, Schema};

fn catalog(name: &str) -> Option<Schema> {
    match name {
        "OpenAuction" => Some(Schema::of(&[
            ("itemID", AttrType::Int),
            ("sellerID", AttrType::Int),
            ("start_price", AttrType::Float),
            ("timestamp", AttrType::Int),
        ])),
        "ClosedAuction" => Some(Schema::of(&[
            ("itemID", AttrType::Int),
            ("buyerID", AttrType::Int),
            ("timestamp", AttrType::Int),
        ])),
        "Sensors" => Some(Schema::of(&[
            ("station", AttrType::Int),
            ("temperature", AttrType::Float),
            ("tag", AttrType::Str),
            ("timestamp", AttrType::Int),
        ])),
        _ => None,
    }
}

/// Lint `src` with the catalog and return (diagnostics, span texts).
fn lint(src: &str) -> Vec<(String, Severity, Option<String>)> {
    let sq = parse_query_spanned(src).unwrap();
    check_query_with(&sq, catalog)
        .into_iter()
        .map(|d| {
            (
                d.code.to_string(),
                d.severity,
                d.span.map(|s| s.text(src).to_string()),
            )
        })
        .collect()
}

#[test]
fn clean_queries_produce_no_diagnostics() {
    for src in [
        "SELECT O.* FROM OpenAuction [Range 3 Hour] O, ClosedAuction [Now] C \
         WHERE O.itemID = C.itemID",
        "SELECT station, AVG(temperature) FROM Sensors [Range 10 Minute] GROUP BY station",
        "SELECT station FROM Sensors [Now] WHERE temperature BETWEEN 0.0 AND 20.0",
    ] {
        assert!(lint(src).is_empty(), "unexpected findings for {src}");
    }
}

#[test]
fn c0101_contradictory_bounds_on_one_attribute() {
    let src = "SELECT station FROM Sensors [Now] \
               WHERE temperature > 5.0 AND tag = 'a' AND temperature < 3.0";
    let diags = lint(src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    let (code, sev, span) = &diags[0];
    assert_eq!(code, codes::UNSAT_WHERE);
    assert_eq!(*sev, Severity::Error);
    // The span covers exactly the predicates on `temperature`, including
    // the unrelated predicate sitting between them.
    assert_eq!(
        span.as_deref(),
        Some("temperature > 5.0 AND tag = 'a' AND temperature < 3.0")
    );
}

#[test]
fn c0101_empty_between_range() {
    let src = "SELECT station FROM Sensors [Now] WHERE temperature BETWEEN 9.0 AND 1.0";
    let diags = lint(src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].0, codes::UNSAT_WHERE);
    assert_eq!(
        diags[0].2.as_deref(),
        Some("temperature BETWEEN 9.0 AND 1.0")
    );
}

#[test]
fn c0101_deep_unsat_needs_the_difference_kernel() {
    // Each predicate alone is satisfiable; only the Bellman–Ford kernel
    // sees the cycle temperature ≥ timestamp ≥ 30 > temperature.
    let src = "SELECT station FROM Sensors [Now] \
               WHERE temperature >= timestamp AND timestamp >= 30.0 AND temperature < 30.0";
    let diags = lint(src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    let (code, sev, span) = &diags[0];
    assert_eq!(code, codes::UNSAT_WHERE);
    assert_eq!(*sev, Severity::Error);
    assert_eq!(
        span.as_deref(),
        Some("temperature >= timestamp AND timestamp >= 30.0 AND temperature < 30.0")
    );
}

#[test]
fn c0101_always_false_constant_predicate() {
    let src = "SELECT station FROM Sensors [Now] WHERE 1 = 2";
    let diags = lint(src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].0, codes::UNSAT_WHERE);
    assert_eq!(diags[0].2.as_deref(), Some("1 = 2"));
}

#[test]
fn c0103_string_equality_chain_conflict() {
    // No numeric bounds anywhere, so the difference kernel is blind;
    // the union-find over `=` joins must catch it.
    let src = "SELECT O.itemID FROM OpenAuction [Now] O, ClosedAuction [Now] C \
               WHERE O.itemID = 3 AND C.itemID = 4 AND O.itemID = C.itemID";
    // itemID is Int here, which C0101 also sees — use a schema-free parse
    // with string constants to isolate C0103.
    let src_str = "SELECT a FROM S [Now], T [Now] \
                   WHERE S.x = 'red' AND T.y = 'blue' AND S.x = T.y";
    let sq = parse_query_spanned(src_str).unwrap();
    let diags = check_query(&sq);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, codes::EQ_CHAIN_CONFLICT);
    assert_eq!(diags[0].severity, Severity::Error);
    assert_eq!(
        diags[0]
            .span
            .map(|s| s.text(src_str).to_string())
            .as_deref(),
        Some("S.x = 'red' AND T.y = 'blue' AND S.x = T.y")
    );
    // The numeric variant is caught by C0101 instead (and only once).
    let diags = lint(src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].0, codes::UNSAT_WHERE);
}

#[test]
fn c0201_unknown_stream() {
    let src = "SELECT x FROM Nonsense [Now]";
    let diags = lint(src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    let (code, sev, span) = &diags[0];
    assert_eq!(code, codes::UNKNOWN_STREAM);
    assert_eq!(*sev, Severity::Error);
    assert_eq!(span.as_deref(), Some("Nonsense [Now]"));
}

#[test]
fn c0202_unknown_and_ambiguous_attributes() {
    let src = "SELECT wibble FROM Sensors [Now]";
    let diags = lint(src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].0, codes::UNKNOWN_ATTR);
    assert_eq!(diags[0].2.as_deref(), Some("wibble"));

    // Unknown binding in a qualified reference.
    let src = "SELECT Q.station FROM Sensors [Now] S";
    let diags = lint(src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].0, codes::UNKNOWN_ATTR);
    assert_eq!(diags[0].2.as_deref(), Some("Q.station"));

    // `timestamp` lives in both streams: a bare reference is ambiguous.
    let src = "SELECT timestamp FROM OpenAuction [Now] O, ClosedAuction [Now] C";
    let diags = lint(src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].0, codes::UNKNOWN_ATTR);
    assert_eq!(diags[0].2.as_deref(), Some("timestamp"));

    // Without a catalog none of these can fire.
    let sq = parse_query_spanned("SELECT wibble FROM Sensors [Now]").unwrap();
    assert!(check_query(&sq).is_empty());
}

#[test]
fn c0203_type_mismatches() {
    // String attribute against a numeric constant.
    let src = "SELECT station FROM Sensors [Now] WHERE tag > 5";
    let diags = lint(src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    let (code, sev, span) = &diags[0];
    assert_eq!(code, codes::TYPE_MISMATCH);
    assert_eq!(*sev, Severity::Error);
    assert_eq!(span.as_deref(), Some("tag > 5"));

    // NULL comparisons never hold, catalog or not.
    let src = "SELECT station FROM Sensors [Now] WHERE station = NULL";
    let diags = lint(src);
    assert!(
        diags.iter().any(|d| d.0 == codes::TYPE_MISMATCH),
        "{diags:?}"
    );

    // Incomparable attribute pair.
    let src = "SELECT station FROM Sensors [Now] WHERE tag = temperature";
    let diags = lint(src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].0, codes::TYPE_MISMATCH);

    // Int vs Float is fine.
    let src = "SELECT station FROM Sensors [Now] WHERE temperature > 5 AND station = 2";
    assert!(lint(src).is_empty());
}

#[test]
fn c0301_join_over_unbounded_window() {
    let src = "SELECT O.itemID FROM OpenAuction [Unbounded] O, ClosedAuction [Now] C \
               WHERE O.itemID = C.itemID";
    let diags = lint(src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    let (code, sev, span) = &diags[0];
    assert_eq!(code, codes::UNBOUNDED_JOIN);
    assert_eq!(*sev, Severity::Warning);
    assert_eq!(span.as_deref(), Some("[Unbounded]"));

    // A single-stream [Unbounded] scan accumulates no join state.
    let src = "SELECT itemID FROM OpenAuction [Unbounded]";
    assert!(lint(src).is_empty());
}

#[test]
fn c0302_aggregate_over_zero_width_window() {
    let src = "SELECT COUNT(*) FROM Sensors [Now]";
    let diags = lint(src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    let (code, sev, span) = &diags[0];
    assert_eq!(code, codes::ZERO_WIDTH_AGG);
    assert_eq!(*sev, Severity::Warning);
    assert_eq!(span.as_deref(), Some("[Now]"));

    // Non-aggregate [Now] queries are the paper's bread and butter.
    let src = "SELECT station FROM Sensors [Now]";
    assert!(lint(src).is_empty());
}

#[test]
fn c0303_same_stream_under_two_windows() {
    let src = "SELECT A.itemID FROM OpenAuction [Range 1 Hour] A, OpenAuction [Range 2 Hour] B \
               WHERE A.itemID = B.itemID";
    let diags = lint(src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    let (code, sev, span) = &diags[0];
    assert_eq!(code, codes::WINDOW_MISMATCH);
    assert_eq!(*sev, Severity::Warning);
    assert_eq!(
        span.as_deref(),
        Some("[Range 1 Hour] A, OpenAuction [Range 2 Hour]")
    );

    // A self-join under one window is fine.
    let src = "SELECT A.itemID FROM OpenAuction [Range 1 Hour] A, OpenAuction [Range 1 Hour] B \
               WHERE A.itemID = B.itemID";
    assert!(lint(src).is_empty());
}
