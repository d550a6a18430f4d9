//! Output-rate estimation: the `C(q)` of the paper's benefit formula.
//!
//! "The benefit of the rewriting can be estimated as `Σᵢ C(qᵢ) − C(q)`,
//! where `C(q)` is the estimated rate (bps) of the result stream of `q`."
//! This module derives that rate from per-stream statistics:
//!
//! * selection selectivity from per-attribute `[min, max]` ranges and
//!   distinct counts (uniformity assumption — the standard System-R
//!   model, adequate for *relative* benefit comparisons);
//! * window-join output rate from the classical formula
//!   `λ₁ σ₁ · λ₂ σ₂ · sel⋈ · (T₁ + T₂)` (tuples per second), generalized
//!   left-deep for more streams;
//! * aggregate output rate = matched input rate (the engine emits one
//!   updated row per qualifying arrival);
//! * bytes per second = tuples per second × estimated wire bytes of the
//!   output schema.

use cosmos_cbn::{AttrConstraint, Conjunction};
use cosmos_spe::analyze::AnalyzedQuery;
use cosmos_types::{Schema, StreamName, TimeDelta, Value};
use std::collections::BTreeMap;

/// Selectivity assumed for constraints the statistics cannot estimate.
pub const DEFAULT_SELECTIVITY: f64 = 0.5;
/// Selectivity assumed for a two-sided attribute-difference constraint.
pub const DIFF_RANGE_SELECTIVITY: f64 = 0.25;
/// Selectivity assumed for an equality between two attributes.
pub const DIFF_EQ_SELECTIVITY: f64 = 0.05;
/// Effective window (seconds) substituted for `[Now]` in rate formulas:
/// one timestamp tick.
pub const NOW_WINDOW_SECS: f64 = 0.001;
/// Effective window (seconds) substituted for `[Unbounded]` windows.
pub const UNBOUNDED_WINDOW_SECS: f64 = 86_400.0;
/// Distinct count assumed for attributes without statistics.
pub const DEFAULT_DISTINCT: f64 = 100.0;
/// Per-tuple wire header bytes (stream id + timestamp).
pub const TUPLE_HEADER_BYTES: f64 = 10.0;

/// Statistics for one attribute of a stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttrStats {
    /// Smallest value (numeric attributes).
    pub min: f64,
    /// Largest value (numeric attributes).
    pub max: f64,
    /// Approximate number of distinct values.
    pub distinct: f64,
}

impl AttrStats {
    /// Statistics for a numeric attribute.
    pub fn numeric(min: f64, max: f64, distinct: f64) -> AttrStats {
        AttrStats {
            min,
            max,
            distinct: distinct.max(1.0),
        }
    }

    /// Statistics for a categorical attribute with `distinct` values.
    pub fn categorical(distinct: f64) -> AttrStats {
        AttrStats {
            min: 0.0,
            max: 0.0,
            distinct: distinct.max(1.0),
        }
    }

    fn width(&self) -> f64 {
        (self.max - self.min).max(0.0)
    }
}

/// Statistics for one stream.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StreamStats {
    /// Average arrival rate in tuples per second.
    pub rate: f64,
    /// Per-attribute statistics.
    pub attrs: BTreeMap<String, AttrStats>,
}

impl StreamStats {
    /// Stats for a stream of `rate` tuples/second.
    pub fn with_rate(rate: f64) -> StreamStats {
        StreamStats {
            rate,
            attrs: BTreeMap::new(),
        }
    }

    /// Add statistics for one attribute (builder style).
    pub fn attr(mut self, name: impl Into<String>, stats: AttrStats) -> StreamStats {
        self.attrs.insert(name.into(), stats);
        self
    }
}

/// A catalog of stream schemas and statistics — what a COSMOS processor
/// knows about the streams it can subscribe to.
#[derive(Debug, Clone, Default)]
pub struct StatsCatalog {
    entries: BTreeMap<StreamName, (Schema, StreamStats)>,
}

impl StatsCatalog {
    /// An empty catalog.
    pub fn new() -> StatsCatalog {
        StatsCatalog::default()
    }

    /// Register a stream with its schema and statistics.
    pub fn register(&mut self, stream: impl Into<StreamName>, schema: Schema, stats: StreamStats) {
        self.entries.insert(stream.into(), (schema, stats));
    }

    /// The schema of a stream.
    pub fn schema(&self, stream: &StreamName) -> Option<&Schema> {
        self.entries.get(stream).map(|(s, _)| s)
    }

    /// The statistics of a stream.
    pub fn stats(&self, stream: &StreamName) -> Option<&StreamStats> {
        self.entries.get(stream).map(|(_, s)| s)
    }

    /// A schema-lookup closure usable with
    /// [`AnalyzedQuery::analyze`](cosmos_spe::analyze::AnalyzedQuery::analyze).
    /// A name no stream was ever registered under is reported unknown
    /// without being interned ([`StreamName::find`]).
    pub fn schema_fn(&self) -> impl Fn(&str) -> Option<Schema> + '_ {
        move |name| self.schema(&StreamName::find(name)?).cloned()
    }

    /// Registered stream names.
    pub fn streams(&self) -> impl Iterator<Item = &StreamName> {
        self.entries.keys()
    }

    /// Number of registered streams.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

fn value_to_f64(v: &Value) -> Option<f64> {
    v.as_f64()
}

/// Selectivity of one attribute constraint under uniformity.
pub fn constraint_selectivity(c: &AttrConstraint, stats: Option<&AttrStats>) -> f64 {
    if c.is_any() {
        return 1.0;
    }
    if c.is_unsat() {
        return 0.0;
    }
    let Some(st) = stats else {
        return DEFAULT_SELECTIVITY;
    };
    // Point constraint: 1/distinct — but a point outside a numeric
    // domain matches nothing (categorical stats have no range to check).
    if let (Some((lo, true)), Some((hi, true))) = (&c.interval.lo, &c.interval.hi) {
        if lo == hi {
            if c.excluded.contains(lo) {
                return 0.0;
            }
            if st.width() > 0.0 {
                if let Some(v) = value_to_f64(lo) {
                    if v < st.min || v > st.max {
                        return 0.0;
                    }
                }
            }
            return 1.0 / st.distinct;
        }
    }
    let width = st.width();
    let sel = if width <= 0.0 {
        // Constant or categorical attribute: interval either covers the
        // single point or not; fall back to the default when unknown.
        DEFAULT_SELECTIVITY
    } else {
        let lo = c
            .interval
            .lo
            .as_ref()
            .and_then(|(v, _)| value_to_f64(v))
            .unwrap_or(st.min)
            .max(st.min);
        let hi = c
            .interval
            .hi
            .as_ref()
            .and_then(|(v, _)| value_to_f64(v))
            .unwrap_or(st.max)
            .min(st.max);
        ((hi - lo) / width).clamp(0.0, 1.0)
    };
    // Each excluded point removes one value's worth of mass, 1/distinct
    // — but only if it lies inside both the constraint interval and the
    // stats domain (an out-of-domain point carries no mass under
    // uniformity), and as an absolute subtraction, matching the exact
    // count `(rows in interval − excluded rows) / rows in domain`.
    let in_domain =
        |e: &Value| width <= 0.0 || value_to_f64(e).is_none_or(|v| v >= st.min && v <= st.max);
    let inside = c
        .excluded
        .iter()
        .filter(|e| c.interval.contains(e) && in_domain(e))
        .count() as f64;
    (sel - inside / st.distinct).clamp(0.0, 1.0)
}

/// Selectivity of a whole conjunction (independence assumption).
pub fn conjunction_selectivity(conj: &Conjunction, stats: Option<&StreamStats>) -> f64 {
    let mut sel = 1.0;
    for (attr, c) in conj.attr_constraints() {
        sel *= constraint_selectivity(c, stats.and_then(|s| s.attrs.get(attr)));
    }
    for (_, _, r) in conj.diff_constraints() {
        sel *= if r.is_any() {
            1.0
        } else if r.is_empty() {
            0.0
        } else if r.lo == r.hi {
            DIFF_EQ_SELECTIVITY
        } else if r.lo == f64::NEG_INFINITY || r.hi == f64::INFINITY {
            DEFAULT_SELECTIVITY
        } else {
            DIFF_RANGE_SELECTIVITY
        };
    }
    sel
}

fn effective_window_secs(w: TimeDelta) -> f64 {
    if w.is_infinite() {
        UNBOUNDED_WINDOW_SECS
    } else if w == TimeDelta::ZERO {
        NOW_WINDOW_SECS
    } else {
        w.as_secs_f64()
    }
}

/// Estimated result-stream rate in tuples per second.
pub fn output_tuples_per_sec(q: &AnalyzedQuery, catalog: &StatsCatalog) -> f64 {
    // Per-stream matched arrival rate λᵢ σᵢ.
    let matched: Vec<f64> = q
        .streams
        .iter()
        .zip(&q.selections)
        .map(|(b, sel)| {
            let stats = catalog.stats(&b.stream);
            let rate = stats.map(|s| s.rate).unwrap_or(1.0);
            rate * conjunction_selectivity(sel, stats)
        })
        .collect();
    if q.streams.len() == 1 {
        // Select-project and aggregates: one output per matched arrival.
        return matched[0];
    }
    // Left-deep join cascade: fold streams in FROM order.
    let mut rate = matched[0];
    let mut acc_window = effective_window_secs(q.streams[0].window);
    #[allow(clippy::needless_range_loop)] // index used against several parallel arrays
    for i in 1..q.streams.len() {
        // Join selectivity: product over join predicates connecting
        // stream i to the streams already folded in.
        let mut join_sel = 1.0;
        let mut connected = false;
        for jp in &q.joins {
            let side = |qa: &cosmos_spe::analyze::QAttr| q.stream_index(&qa.binding);
            let (li, ri) = (side(&jp.left), side(&jp.right));
            let touches_i = li == Some(i) || ri == Some(i);
            let touches_prev = li.is_some_and(|x| x < i) || ri.is_some_and(|x| x < i);
            if touches_i && touches_prev {
                connected = true;
                let distinct_of = |qa: &cosmos_spe::analyze::QAttr| {
                    let si = q.stream_index(&qa.binding).expect("bound");
                    catalog
                        .stats(&q.streams[si].stream)
                        .and_then(|s| s.attrs.get(&qa.name))
                        .map(|a| a.distinct)
                        .unwrap_or(DEFAULT_DISTINCT)
                };
                join_sel *= 1.0 / distinct_of(&jp.left).max(distinct_of(&jp.right)).max(1.0);
            }
        }
        if !connected {
            // Cross join: every pair within the window combines.
            join_sel = 1.0;
        }
        let wi = effective_window_secs(q.streams[i].window);
        rate = rate * matched[i] * join_sel * (acc_window + wi);
        acc_window = acc_window.max(wi);
    }
    rate
}

/// `C(q)`: estimated result-stream rate in **bytes per second** — the
/// quantity the paper's grouping benefit `Σᵢ C(qᵢ) − C(q)` is defined on.
pub fn cost_bps(q: &AnalyzedQuery, catalog: &StatsCatalog) -> f64 {
    let bytes = q.output_schema.estimated_tuple_bytes() as f64 + TUPLE_HEADER_BYTES;
    output_tuples_per_sec(q, catalog) * bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_cql::parse_query;
    use cosmos_spe::analyze::AnalyzedQuery;
    use cosmos_types::AttrType;

    fn catalog() -> StatsCatalog {
        let mut c = StatsCatalog::new();
        c.register(
            "S",
            Schema::of(&[
                ("id", AttrType::Int),
                ("x", AttrType::Float),
                ("timestamp", AttrType::Int),
            ]),
            StreamStats::with_rate(10.0)
                .attr("id", AttrStats::categorical(100.0))
                .attr("x", AttrStats::numeric(0.0, 100.0, 1000.0)),
        );
        c.register(
            "T",
            Schema::of(&[
                ("id", AttrType::Int),
                ("y", AttrType::Float),
                ("timestamp", AttrType::Int),
            ]),
            StreamStats::with_rate(2.0).attr("id", AttrStats::categorical(100.0)),
        );
        c
    }

    fn q(text: &str) -> AnalyzedQuery {
        let c = catalog();
        AnalyzedQuery::analyze(&parse_query(text).unwrap(), c.schema_fn()).unwrap()
    }

    #[test]
    fn selection_selectivity_scales_rate() {
        let cat = catalog();
        let full = q("SELECT id FROM S [Now]");
        assert!((output_tuples_per_sec(&full, &cat) - 10.0).abs() < 1e-9);
        let half = q("SELECT id FROM S [Now] WHERE x < 50.0");
        assert!((output_tuples_per_sec(&half, &cat) - 5.0).abs() < 1e-9);
        let tenth = q("SELECT id FROM S [Now] WHERE x BETWEEN 0.0 AND 10.0");
        assert!((output_tuples_per_sec(&tenth, &cat) - 1.0).abs() < 1e-9);
        let point = q("SELECT id FROM S [Now] WHERE id = 7");
        assert!((output_tuples_per_sec(&point, &cat) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn bytes_scale_with_schema_width() {
        let cat = catalog();
        let narrow = q("SELECT id FROM S [Now]");
        let wide = q("SELECT id, x, timestamp FROM S [Now]");
        assert!(cost_bps(&wide, &cat) > cost_bps(&narrow, &cat));
        // narrow: 10 tuples/s × (8 + 10) bytes
        assert!((cost_bps(&narrow, &cat) - 180.0).abs() < 1e-9);
    }

    #[test]
    fn join_rate_follows_window_formula() {
        let cat = catalog();
        let j = q(
            "SELECT S.id FROM S [Range 10 Second] S, T [Range 20 Second] T \
                   WHERE S.id = T.id",
        );
        // λ1 λ2 / distinct × (T1 + T2) = 10 × 2 / 100 × 30 = 6
        assert!((output_tuples_per_sec(&j, &cat) - 6.0).abs() < 1e-9);
        // widening a window increases the rate
        let j2 = q(
            "SELECT S.id FROM S [Range 40 Second] S, T [Range 20 Second] T \
                    WHERE S.id = T.id",
        );
        assert!(output_tuples_per_sec(&j2, &cat) > output_tuples_per_sec(&j, &cat));
    }

    #[test]
    fn now_and_unbounded_windows_have_finite_rates() {
        let cat = catalog();
        let now = q("SELECT S.id FROM S [Now] S, T [Now] T WHERE S.id = T.id");
        let r = output_tuples_per_sec(&now, &cat);
        assert!(r > 0.0 && r.is_finite());
        let unb = q("SELECT S.id FROM S [Unbounded] S, T [Now] T WHERE S.id = T.id");
        assert!(output_tuples_per_sec(&unb, &cat).is_finite());
    }

    #[test]
    fn unknown_stream_defaults_are_sane() {
        let cat = StatsCatalog::new();
        let mut full_cat = catalog();
        full_cat.register(
            "U",
            Schema::of(&[("a", AttrType::Int)]),
            StreamStats::default(),
        );
        let qq = AnalyzedQuery::analyze(
            &parse_query("SELECT a FROM U [Now] WHERE a > 5").unwrap(),
            full_cat.schema_fn(),
        )
        .unwrap();
        let r = output_tuples_per_sec(&qq, &cat);
        assert!(r.is_finite() && r >= 0.0);
        assert!(cat.is_empty());
        assert_eq!(full_cat.len(), 3);
        assert_eq!(full_cat.streams().count(), 3);
    }

    #[test]
    fn hull_rate_vs_member_rates_drive_grouping() {
        // Overlapping ranges: hull rate < sum of member rates (benefit).
        let cat = catalog();
        let a = q("SELECT id, x FROM S [Now] WHERE x BETWEEN 0.0 AND 60.0");
        let b = q("SELECT id, x FROM S [Now] WHERE x BETWEEN 40.0 AND 100.0");
        let rep = crate::merge::merge(&a, &b).unwrap();
        let (ca, cb, cr) = (cost_bps(&a, &cat), cost_bps(&b, &cat), cost_bps(&rep, &cat));
        assert!(cr < ca + cb, "hull {cr} vs members {ca}+{cb}");
        // Disjoint narrow ranges: hull covers the gap → negative benefit.
        let c = q("SELECT id, x FROM S [Now] WHERE x BETWEEN 0.0 AND 5.0");
        let d = q("SELECT id, x FROM S [Now] WHERE x BETWEEN 95.0 AND 100.0");
        let rep2 = crate::merge::merge(&c, &d).unwrap();
        assert!(cost_bps(&rep2, &cat) > cost_bps(&c, &cat) + cost_bps(&d, &cat));
    }

    #[test]
    fn constraint_selectivity_edge_cases() {
        use cosmos_cbn::Interval;
        let st = AttrStats::numeric(0.0, 100.0, 100.0);
        // unsatisfiable
        let c = AttrConstraint::from_interval(Interval::closed(Value::Int(10), Value::Int(0)));
        assert_eq!(constraint_selectivity(&c, Some(&st)), 0.0);
        // any
        assert_eq!(
            constraint_selectivity(&AttrConstraint::any(), Some(&st)),
            1.0
        );
        // no stats
        let r = AttrConstraint::from_interval(Interval::closed(Value::Int(0), Value::Int(10)));
        assert_eq!(constraint_selectivity(&r, None), DEFAULT_SELECTIVITY);
        // excluded point inside the interval reduces selectivity
        let mut with_ne = r.clone();
        with_ne.excluded.insert(Value::Int(5));
        assert!(
            constraint_selectivity(&with_ne, Some(&st)) < constraint_selectivity(&r, Some(&st))
        );
        // excluded point of a point interval kills it
        let mut dead = AttrConstraint::from_interval(Interval::point(Value::Int(5)));
        dead.excluded.insert(Value::Int(5));
        assert_eq!(constraint_selectivity(&dead, Some(&st)), 0.0);
    }
}
