//! The bound derivation and the structural unboundedness check.
//!
//! Formulas are derived against the executor's actual retention policy
//! (`cosmos_spe::executor`) and proved sound per component:
//!
//! * **Join buffers** — on every arrival the executor evicts strictly
//!   older-than-`τ − w` tuples and keeps the closed boundary, so buffer
//!   `i` holds at most `W(sᵢ, wᵢ)` rows.
//! * **Aggregate window** — same eviction over the single input stream:
//!   at most `W(s₀, w₀)` rows; the group table is pruned the moment a
//!   group's window contribution drains, so `#groups ≤ W(s₀, w₀)` too.
//! * **DISTINCT set** — grows one entry per distinct emitted row:
//!   bounded by the output-row bound.
//! * **Output rows** — non-join queries emit at most one row per
//!   arrival (`N(s₀)`); a join arrival on binding `i` enumerates the
//!   other buffers, so totals are `Σᵢ N(sᵢ) × Πⱼ≠ᵢ W(sⱼ, wⱼ)` (the
//!   per-binding sum makes self-joins, which process each binding of
//!   the same arrival, come out right).
//! * **Output row bytes** — every attribute column is a value of some
//!   bound stream's tuple and output columns are distinct, so the
//!   payload is at most `Σᵢ (B(sᵢ) − header)`; each aggregate column
//!   adds at most `max(8, B(s₀) − header)` (COUNT/SUM/AVG are 8-byte
//!   numerics, MIN/MAX return a stream value).
//! * **Consumed bytes** — a processor ingests, per query assigned to
//!   it, at most every arrival of each referenced stream at full width
//!   (early projection only shrinks tuples, and concurrent merge groups
//!   have disjoint member sets); a user node ingests at most each
//!   resident query's output bytes.
//! * **Dead bindings** — a binding whose selection is unsatisfiable
//!   (`cosmos_cbn::sat::conjunction_unsat`) passes no tuple, so its
//!   `W` and `N` are 0 in every state and output term above; intake
//!   is unchanged. A WHERE that contradicts itself only jointly (across
//!   bindings) keeps the looser, still sound, bound.

use crate::envelope::{Bound, Envelope};
use cosmos_cbn::sat::conjunction_unsat;
use cosmos_lint::Diagnostic;
use cosmos_spe::analyze::{AnalyzedQuery, OutputColumn};
use cosmos_types::StreamName;
use std::collections::BTreeSet;

/// Wire bytes of a tuple before its values (stream id + timestamp),
/// matching [`cosmos_types::Tuple::size_bytes`].
const HEADER_BYTES: f64 = 10.0;
/// Wire bytes of a numeric aggregate result (Int/Float).
const NUMERIC_BYTES: f64 = 8.0;

/// Worst-case resource bounds for one query under an [`Envelope`].
/// Row bounds on executor components are exact enough for the testkit
/// oracle to check them against measured state sizes; byte bounds are
/// sound over-approximations of wire sizes.
#[derive(Debug, Clone, Copy)]
pub struct QueryBounds {
    /// Rows retained across all join input buffers.
    pub buffer_rows: Bound,
    /// Rows retained in the aggregate's sliding window.
    pub agg_window_rows: Bound,
    /// Live groups in the aggregate's group table.
    pub group_rows: Bound,
    /// Entries in the DISTINCT dedup set.
    pub distinct_rows: Bound,
    /// Total retained rows (sum of the four components).
    pub state_rows: Bound,
    /// Bytes retained across all executor state.
    pub state_bytes: Bound,
    /// Result rows the query can ever emit.
    pub output_rows: Bound,
    /// Wire bytes of a single result row.
    pub output_row_bytes: Bound,
    /// Total result bytes (`output_rows × output_row_bytes`).
    pub output_bytes: Bound,
    /// Bytes a processor ingests on behalf of this query over its
    /// lifetime (every arrival of each referenced stream, full width).
    pub intake_bytes: Bound,
}

/// Payload bytes of a stream's widest tuple (wire size minus header).
fn payload(env: &Envelope, stream: &StreamName) -> Bound {
    match env.tuple_bytes(stream) {
        Bound::Finite(b) => Bound::Finite((b - HEADER_BYTES).max(0.0)),
        Bound::Unbounded => Bound::Unbounded,
    }
}

/// Derive the worst-case bounds for `q` under `env`.
pub fn query_bounds(q: &AnalyzedQuery, env: &Envelope) -> QueryBounds {
    let is_join = q.streams.len() > 1;
    // A binding whose selection no tuple satisfies admits no rows: it
    // retains none and drives no output (intake still counts its stream).
    let dead: Vec<bool> = q.selections.iter().map(conjunction_unsat).collect();
    let admits = |i: usize, rows: Bound| {
        if dead[i] {
            Bound::ZERO
        } else {
            rows
        }
    };
    let w: Vec<Bound> = q
        .streams
        .iter()
        .enumerate()
        .map(|(i, b)| admits(i, env.window_rows(&b.stream, b.window)))
        .collect();
    let n: Vec<Bound> = q
        .streams
        .iter()
        .enumerate()
        .map(|(i, b)| admits(i, env.total_rows(&b.stream)))
        .collect();
    let bytes: Vec<Bound> = q
        .streams
        .iter()
        .map(|b| env.tuple_bytes(&b.stream))
        .collect();
    let payloads: Vec<Bound> = q.streams.iter().map(|b| payload(env, &b.stream)).collect();

    // Retained rows per executor component.
    let buffer_rows = if is_join {
        w.iter().fold(Bound::ZERO, |acc, &x| acc + x)
    } else {
        Bound::ZERO
    };
    let agg_window_rows = if q.is_aggregate() { w[0] } else { Bound::ZERO };
    // Groups are pruned the moment their window contribution drains, so
    // every live group owns at least one window row.
    let group_rows = agg_window_rows;

    // Output rows.
    let output_rows = if is_join {
        let mut total = Bound::ZERO;
        for (i, &ni) in n.iter().enumerate() {
            let mut per_arrival = Bound::Finite(1.0);
            for (j, &wj) in w.iter().enumerate() {
                if j != i {
                    per_arrival = per_arrival * wj;
                }
            }
            total = total + ni * per_arrival;
        }
        total
    } else {
        // Select-project and aggregates emit at most one row per
        // arrival (DISTINCT only suppresses).
        n[0]
    };
    let distinct_rows = if q.distinct { output_rows } else { Bound::ZERO };
    let state_rows = buffer_rows + agg_window_rows + group_rows + distinct_rows;

    // Output row width.
    let attr_payload = payloads.iter().fold(Bound::ZERO, |acc, &p| acc + p);
    let n_agg_cols = q
        .output
        .iter()
        .filter(|c| matches!(c, OutputColumn::Agg { .. }))
        .count() as f64;
    let agg_col_bytes = match payloads[0] {
        Bound::Finite(p) => Bound::Finite(NUMERIC_BYTES.max(p) * n_agg_cols),
        Bound::Unbounded if n_agg_cols == 0.0 => Bound::ZERO,
        Bound::Unbounded => Bound::Unbounded,
    };
    let output_row_bytes = Bound::Finite(HEADER_BYTES) + attr_payload + agg_col_bytes;
    let output_bytes = output_rows * output_row_bytes;

    // Processor intake: every arrival of each referenced stream, full
    // width (projection only shrinks). Self-joins hand one copy of the
    // arrival to the executor, so count distinct streams once.
    let distinct_streams: BTreeSet<&StreamName> = q.streams.iter().map(|b| &b.stream).collect();
    let intake_bytes = distinct_streams.iter().fold(Bound::ZERO, |acc, s| {
        acc + env.total_rows(s) * env.tuple_bytes(s)
    });

    // Retained bytes, per component: join buffers hold full source
    // tuples; aggregate window entries hold a timestamp plus two value
    // subsets (group key + agg args); groups hold a key plus fixed-size
    // accumulators; the DISTINCT set holds output-row values.
    let mut state_bytes = Bound::ZERO;
    if is_join {
        for (i, &wi) in w.iter().enumerate() {
            state_bytes = state_bytes + wi * bytes[i];
        }
    }
    if q.is_aggregate() {
        let entry = Bound::Finite(NUMERIC_BYTES) + payloads[0] + payloads[0];
        state_bytes = state_bytes + agg_window_rows * entry;
        let group = payloads[0] + Bound::Finite(3.0 * NUMERIC_BYTES * n_agg_cols.max(1.0));
        state_bytes = state_bytes + group_rows * group;
    }
    state_bytes = state_bytes + distinct_rows * output_row_bytes;

    QueryBounds {
        buffer_rows,
        agg_window_rows,
        group_rows,
        distinct_rows,
        state_rows,
        state_bytes,
        output_rows,
        output_row_bytes,
        output_bytes,
        intake_bytes,
    }
}

/// Structural unboundedness check: the envelope-independent findings
/// behind the `Cosmos::submit_query` admission gate. `Error`-level
/// findings mean the executor's retained state provably grows without
/// bound for *any* unbounded input, no matter the arrival envelope.
pub fn check_query(q: &AnalyzedQuery) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if q.streams.len() > 1 {
        for b in &q.streams {
            if b.window.is_infinite() {
                out.push(Diagnostic::error(
                    crate::codes::UNBOUNDED_JOIN_STATE,
                    format!(
                        "join buffer for '{}' ({}) is never evicted under an \
                         [Unbounded] window — retained state grows with every arrival",
                        b.binding, b.stream
                    ),
                    None,
                ));
            }
        }
    }
    if q.is_aggregate() && q.streams[0].window.is_infinite() {
        out.push(Diagnostic::error(
            crate::codes::UNBOUNDED_AGG_WINDOW,
            format!(
                "aggregate over '{}' retains its whole history under an \
                 [Unbounded] window — window and group state grow with every arrival",
                q.streams[0].stream
            ),
            None,
        ));
    }
    if q.distinct {
        out.push(Diagnostic::warning(
            crate::codes::DISTINCT_STATE,
            "DISTINCT dedup state is never evicted — bounded only by total \
             distinct output rows, not by any window"
                .to_string(),
            None,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_cql::parse_query;
    use cosmos_types::{AttrType, Schema};

    fn schema_fn(name: &str) -> Option<Schema> {
        match name {
            "S" | "T" => Some(Schema::of(&[
                ("id", AttrType::Int),
                ("x", AttrType::Float),
                ("timestamp", AttrType::Int),
            ])),
            _ => None,
        }
    }

    fn q(text: &str) -> AnalyzedQuery {
        AnalyzedQuery::analyze(&parse_query(text).unwrap(), schema_fn).unwrap()
    }

    fn env() -> Envelope {
        let mut env = Envelope::new();
        // 11 arrivals per stream, 1 s apart, 34 wire bytes each.
        for s in ["S", "T"] {
            let name = StreamName::from(s);
            for k in 0..11i64 {
                env.record(&name, k * 1000, 34);
            }
        }
        env
    }

    #[test]
    fn select_project_bounds() {
        let b = query_bounds(&q("SELECT id FROM S [Range 5 Second]"), &env());
        assert_eq!(b.state_rows, Bound::ZERO);
        assert_eq!(b.output_rows, Bound::Finite(11.0));
        // header + full payload of S.
        assert_eq!(b.output_row_bytes, Bound::Finite(34.0));
        assert_eq!(b.intake_bytes, Bound::Finite(11.0 * 34.0));
    }

    #[test]
    fn join_bounds_follow_window_occupancy() {
        let b = query_bounds(
            &q(
                "SELECT S.id FROM S [Range 2 Second] S, T [Range 4 Second] T \
                WHERE S.id = T.id",
            ),
            &env(),
        );
        // W(S, 2s) = 3, W(T, 4s) = 5 on the 1 Hz trace.
        assert_eq!(b.buffer_rows, Bound::Finite(8.0));
        // Σᵢ N × Π W over the other side: 11×5 + 11×3.
        assert_eq!(b.output_rows, Bound::Finite(11.0 * 5.0 + 11.0 * 3.0));
        // Both streams ingested at full width.
        assert_eq!(b.intake_bytes, Bound::Finite(2.0 * 11.0 * 34.0));
        assert!(!b.state_rows.is_unbounded());
    }

    #[test]
    fn self_join_counts_each_binding_but_ingests_once() {
        let b = query_bounds(
            &q(
                "SELECT a.id FROM S [Range 2 Second] a, S [Range 2 Second] b \
                WHERE a.id = b.id",
            ),
            &env(),
        );
        assert_eq!(b.buffer_rows, Bound::Finite(6.0));
        assert_eq!(b.output_rows, Bound::Finite(2.0 * 11.0 * 3.0));
        // One stream, one intake.
        assert_eq!(b.intake_bytes, Bound::Finite(11.0 * 34.0));
    }

    #[test]
    fn aggregate_state_follows_the_window() {
        let b = query_bounds(
            &q("SELECT id, COUNT(*) FROM S [Range 3 Second] GROUP BY id"),
            &env(),
        );
        assert_eq!(b.agg_window_rows, Bound::Finite(4.0));
        assert_eq!(b.group_rows, Bound::Finite(4.0));
        assert_eq!(b.output_rows, Bound::Finite(11.0));
        assert!(!b.state_rows.is_unbounded());
    }

    /// The README's `cosmos-bound --rate 5 --horizon 60` envelope: 301
    /// arrivals of 34 wire bytes on each stream.
    fn readme_env() -> Envelope {
        let mut env = Envelope::new();
        for s in ["S", "T"] {
            env.set(
                StreamName::from(s),
                crate::StreamEnvelope::Rate {
                    tuples_per_sec: 5.0,
                    horizon_secs: Some(60.0),
                    tuple_bytes: 34.0,
                },
            );
        }
        env
    }

    #[test]
    fn a_live_selection_bounds_every_arrival() {
        let b = query_bounds(&q("SELECT id FROM S [Now] WHERE x > 5.0"), &readme_env());
        assert_eq!(b.output_rows, Bound::Finite(301.0));
        assert_eq!(b.output_bytes, Bound::Finite(10234.0));
    }

    #[test]
    fn a_dead_selection_emits_nothing_but_is_still_ingested() {
        let b = query_bounds(
            &q("SELECT id FROM S [Now] WHERE x > 5.0 AND x < 3.0"),
            &readme_env(),
        );
        assert_eq!(b.state_rows, Bound::ZERO);
        assert_eq!(b.state_bytes, Bound::ZERO);
        assert_eq!(b.output_rows, Bound::ZERO);
        assert_eq!(b.output_bytes, Bound::ZERO);
        assert_eq!(b.intake_bytes, Bound::Finite(10234.0));

        let agg = query_bounds(
            &q("SELECT id, COUNT(*) FROM S [Range 3 Second] WHERE x > 5.0 AND x < 3.0 GROUP BY id"),
            &env(),
        );
        assert_eq!(agg.state_rows, Bound::ZERO);
        assert_eq!(agg.output_rows, Bound::ZERO);
    }

    #[test]
    fn a_dead_join_binding_keeps_only_the_live_buffer() {
        let b = query_bounds(
            &q(
                "SELECT S.id FROM S [Range 2 Second] S, T [Range 4 Second] T \
                WHERE S.id = T.id AND S.x > 5.0 AND S.x < 3.0",
            ),
            &env(),
        );
        // W(T, 4s) = 5 on the 1 Hz trace; S retains nothing.
        assert_eq!(b.buffer_rows, Bound::Finite(5.0));
        assert_eq!(b.state_bytes, Bound::Finite(5.0 * 34.0));
        assert_eq!(b.output_rows, Bound::ZERO);
        assert_eq!(b.output_bytes, Bound::ZERO);
        assert_eq!(b.intake_bytes, Bound::Finite(2.0 * 11.0 * 34.0));
    }

    #[test]
    fn unknown_streams_are_unbounded_not_wrong() {
        let b = query_bounds(&q("SELECT id FROM S [Now]"), &Envelope::new());
        assert!(b.output_rows.is_unbounded());
        assert!(b.intake_bytes.is_unbounded());
        // No retained state regardless of the envelope.
        assert_eq!(b.state_rows, Bound::ZERO);
    }

    #[test]
    fn unbounded_join_window_is_rejected_structurally() {
        let d = check_query(&q(
            "SELECT S.id FROM S [Unbounded] S, T [Now] T WHERE S.id = T.id",
        ));
        assert!(d
            .iter()
            .any(|d| d.code == crate::codes::UNBOUNDED_JOIN_STATE
                && d.severity == cosmos_lint::Severity::Error));
        // …and the envelope-level bound agrees.
        let b = query_bounds(
            &q("SELECT S.id FROM S [Unbounded] S, T [Now] T WHERE S.id = T.id"),
            &env(),
        );
        assert!(
            !b.state_rows.is_unbounded(),
            "a finite trace still bounds it"
        );
    }

    #[test]
    fn unbounded_aggregate_and_distinct_are_flagged() {
        let d = check_query(&q("SELECT id, COUNT(*) FROM S [Unbounded] GROUP BY id"));
        assert!(d
            .iter()
            .any(|d| d.code == crate::codes::UNBOUNDED_AGG_WINDOW));
        let d = check_query(&q("SELECT DISTINCT id FROM S [Range 5 Second]"));
        assert!(d.iter().all(|d| d.severity != cosmos_lint::Severity::Error));
        assert!(d.iter().any(|d| d.code == crate::codes::DISTINCT_STATE));
        // A plain bounded query is clean.
        assert!(check_query(&q("SELECT id FROM S [Range 5 Second]")).is_empty());
        // A single-stream select over [Unbounded] holds no state: clean.
        assert!(check_query(&q("SELECT id FROM S [Unbounded]")).is_empty());
    }
}
