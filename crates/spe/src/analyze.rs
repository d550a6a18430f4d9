//! Semantic analysis: from parsed CQL to a bound, normalized query.

use cosmos_cbn::{Conjunction, DiffRange, Profile, Projection};
use cosmos_cql::{AggFunc, AttrRef, CmpOp, Operand, Predicate, Query, SelectItem};
use cosmos_types::{AttrType, CosmosError, Field, Result, Schema, StreamName, TimeDelta, Value};
use std::collections::BTreeSet;

/// A fully qualified attribute: stream binding (alias) plus attribute name.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QAttr {
    /// The stream binding (alias or stream name).
    pub binding: String,
    /// The attribute name inside that stream.
    pub name: String,
}

impl QAttr {
    /// Construct a qualified attribute.
    pub fn new(binding: impl Into<String>, name: impl Into<String>) -> QAttr {
        QAttr {
            binding: binding.into(),
            name: name.into(),
        }
    }

    /// The `binding.name` form used in multi-stream result schemas.
    pub fn qualified(&self) -> String {
        format!("{}.{}", self.binding, self.name)
    }
}

impl std::fmt::Display for QAttr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.binding, self.name)
    }
}

/// One stream of the `FROM` clause after binding.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundStream {
    /// The stream's registered name.
    pub stream: StreamName,
    /// The binding qualifying its attributes in this query.
    pub binding: String,
    /// The window size `T` (`0` = `[Now]`, `∞` = `[Unbounded]`).
    pub window: TimeDelta,
    /// The stream's schema.
    pub schema: Schema,
}

/// A canonicalized equi-join predicate between two different streams.
///
/// `left` always orders before `right` by `(binding, name)`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JoinPred {
    /// Lexicographically smaller side.
    pub left: QAttr,
    /// Lexicographically larger side.
    pub right: QAttr,
}

impl JoinPred {
    /// Canonicalize an equi-join between two qualified attributes.
    pub fn new(a: QAttr, b: QAttr) -> JoinPred {
        if a <= b {
            JoinPred { left: a, right: b }
        } else {
            JoinPred { left: b, right: a }
        }
    }
}

/// One column of the output schema.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OutputColumn {
    /// A plain attribute.
    Attr(QAttr),
    /// An aggregate (`None` argument = `COUNT(*)`).
    Agg {
        /// The aggregate function.
        func: AggFunc,
        /// Its argument.
        arg: Option<QAttr>,
    },
}

/// A bound, normalized select-project-join(-aggregate) continuous query.
///
/// This is the representation the whole query layer works on: the
/// containment theorems, representative-query synthesis and profile
/// composition all operate on `AnalyzedQuery`.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzedQuery {
    /// `SELECT DISTINCT`.
    pub distinct: bool,
    /// The bound streams, in `FROM` order.
    pub streams: Vec<BoundStream>,
    /// Per-stream selection conjunction over *bare* attribute names,
    /// parallel to `streams`.
    pub selections: Vec<Conjunction>,
    /// Canonical equi-join predicates between different streams.
    pub joins: BTreeSet<JoinPred>,
    /// Output columns, in `SELECT` order (stars expanded).
    pub output: Vec<OutputColumn>,
    /// Grouping attributes (empty for non-aggregate queries).
    pub group_by: Vec<QAttr>,
    /// The derived result-stream schema.
    pub output_schema: Schema,
}

impl AnalyzedQuery {
    /// Analyze a parsed query against a schema catalog.
    pub fn analyze<F>(q: &Query, schema_of: F) -> Result<AnalyzedQuery>
    where
        F: Fn(&str) -> Option<Schema>,
    {
        let mut streams = Vec::with_capacity(q.from.len());
        for sref in &q.from {
            let schema = schema_of(&sref.stream)
                .ok_or_else(|| CosmosError::Analyze(format!("unknown stream '{}'", sref.stream)))?;
            let binding = sref.binding().to_string();
            if streams.iter().any(|b: &BoundStream| b.binding == binding) {
                return Err(CosmosError::Analyze(format!(
                    "duplicate stream binding '{binding}'"
                )));
            }
            streams.push(BoundStream {
                stream: StreamName::from(sref.stream.as_str()),
                binding,
                window: sref.window.size(),
                schema,
            });
        }

        let resolver = Resolver { streams: &streams };

        // Classify WHERE predicates.
        let mut selections = vec![Conjunction::always(); streams.len()];
        let mut joins = BTreeSet::new();
        for p in &q.predicates {
            classify_predicate(p, &resolver, &mut selections, &mut joins)?;
        }

        // Expand the SELECT list.
        let mut output = Vec::new();
        for item in &q.select {
            match item {
                SelectItem::Star => {
                    for b in &streams {
                        for f in b.schema.fields() {
                            output.push(OutputColumn::Attr(QAttr::new(&b.binding, &f.name)));
                        }
                    }
                }
                SelectItem::QualifiedStar(binding) => {
                    let b = resolver.stream_by_binding(binding)?;
                    for f in b.schema.fields() {
                        output.push(OutputColumn::Attr(QAttr::new(&b.binding, &f.name)));
                    }
                }
                SelectItem::Attr(a) => {
                    let (qa, _) = resolver.resolve(a)?;
                    output.push(OutputColumn::Attr(qa));
                }
                SelectItem::Agg { func, arg } => {
                    let arg = match arg {
                        Some(a) => {
                            let (qa, ty) = resolver.resolve(a)?;
                            if matches!(func, AggFunc::Sum | AggFunc::Avg) && !ty.is_numeric() {
                                return Err(CosmosError::Analyze(format!(
                                    "{func}({qa}) requires a numeric argument"
                                )));
                            }
                            Some(qa)
                        }
                        None => None,
                    };
                    output.push(OutputColumn::Agg { func: *func, arg });
                }
            }
        }
        if output.is_empty() {
            return Err(CosmosError::Analyze("empty SELECT list".into()));
        }

        let group_by: Vec<QAttr> = q
            .group_by
            .iter()
            .map(|a| resolver.resolve(a).map(|(qa, _)| qa))
            .collect::<Result<_>>()?;

        let has_agg = output.iter().any(|c| matches!(c, OutputColumn::Agg { .. }));
        if has_agg {
            if streams.len() != 1 {
                return Err(CosmosError::Analyze(
                    "aggregate queries over joins are not supported".into(),
                ));
            }
            for c in &output {
                if let OutputColumn::Attr(a) = c {
                    if !group_by.contains(a) {
                        return Err(CosmosError::Analyze(format!(
                            "non-aggregated output attribute {a} must appear in GROUP BY"
                        )));
                    }
                }
            }
        } else if !group_by.is_empty() {
            return Err(CosmosError::Analyze(
                "GROUP BY requires at least one aggregate in the SELECT list".into(),
            ));
        }

        let output_schema = derive_schema(&streams, &output, streams.len() > 1)?;

        Ok(AnalyzedQuery {
            distinct: q.distinct,
            streams,
            selections,
            joins,
            output,
            group_by,
            output_schema,
        })
    }

    /// Assemble an analyzed query directly from its parts, deriving and
    /// validating the output schema. Used by the query layer to build
    /// representative queries without a textual round trip.
    pub fn from_parts(
        distinct: bool,
        streams: Vec<BoundStream>,
        selections: Vec<Conjunction>,
        joins: BTreeSet<JoinPred>,
        output: Vec<OutputColumn>,
        group_by: Vec<QAttr>,
    ) -> Result<AnalyzedQuery> {
        if streams.is_empty() {
            return Err(CosmosError::Analyze(
                "a query needs at least one stream".into(),
            ));
        }
        if selections.len() != streams.len() {
            return Err(CosmosError::Analyze(
                "one selection conjunction per stream is required".into(),
            ));
        }
        if output.is_empty() {
            return Err(CosmosError::Analyze("empty output column list".into()));
        }
        let output_schema = derive_schema(&streams, &output, streams.len() > 1)?;
        Ok(AnalyzedQuery {
            distinct,
            streams,
            selections,
            joins,
            output,
            group_by,
            output_schema,
        })
    }

    /// Whether the query contains aggregates.
    pub fn is_aggregate(&self) -> bool {
        self.output
            .iter()
            .any(|c| matches!(c, OutputColumn::Agg { .. }))
    }

    /// Whether output column names are qualified (`binding.attr`).
    pub fn qualified_names(&self) -> bool {
        self.streams.len() > 1
    }

    /// The display/schema name of an output column.
    pub fn column_name(&self, col: &OutputColumn) -> String {
        column_name(col, self.qualified_names())
    }

    /// The bound stream with the given binding.
    pub fn stream_by_binding(&self, binding: &str) -> Option<&BoundStream> {
        self.streams.iter().find(|b| b.binding == binding)
    }

    /// Index (into `streams`) of the stream with the given binding.
    pub fn stream_index(&self, binding: &str) -> Option<usize> {
        self.streams.iter().position(|b| b.binding == binding)
    }

    /// Attributes of stream `i` the query touches anywhere (output,
    /// selections, joins, grouping) — the projection set `P` of the
    /// source-retrieval profile.
    pub fn used_attrs(&self, i: usize) -> BTreeSet<String> {
        let b = &self.streams[i];
        let mut out = BTreeSet::new();
        for c in &self.output {
            match c {
                OutputColumn::Attr(a) if a.binding == b.binding => {
                    out.insert(a.name.clone());
                }
                OutputColumn::Agg { arg: Some(a), .. } if a.binding == b.binding => {
                    out.insert(a.name.clone());
                }
                _ => {}
            }
        }
        out.extend(self.selections[i].referenced_attrs());
        for j in &self.joins {
            if j.left.binding == b.binding {
                out.insert(j.left.name.clone());
            }
            if j.right.binding == b.binding {
                out.insert(j.right.name.clone());
            }
        }
        for g in &self.group_by {
            if g.binding == b.binding {
                out.insert(g.name.clone());
            }
        }
        out
    }

    /// Compose the source-retrieval profile `⟨S, P, F⟩` of Section 4:
    /// "the selection predicates applied to each individual source stream
    /// are extracted to compose the filters of the profile. Then a
    /// projection predicate is composed by using all the attributes in
    /// the query."
    pub fn source_profile(&self) -> Profile {
        let mut profile = Profile::new();
        for (i, b) in self.streams.iter().enumerate() {
            let used = self.used_attrs(i);
            let projection = if used.len() == b.schema.arity() {
                Projection::All
            } else {
                Projection::Attrs(used)
            };
            profile.add_interest(b.stream, projection, self.selections[i].clone());
        }
        profile
    }
}

/// The display/schema name of an output column under a naming mode.
pub fn column_name(col: &OutputColumn, qualified: bool) -> String {
    let attr_name = |a: &QAttr| {
        if qualified {
            a.qualified()
        } else {
            a.name.clone()
        }
    };
    match col {
        OutputColumn::Attr(a) => attr_name(a),
        OutputColumn::Agg { func, arg: Some(a) } => format!("{func}({})", attr_name(a)),
        OutputColumn::Agg { func, arg: None } => format!("{func}(*)"),
    }
}

struct Resolver<'a> {
    streams: &'a [BoundStream],
}

impl Resolver<'_> {
    fn stream_by_binding(&self, binding: &str) -> Result<&BoundStream> {
        self.streams
            .iter()
            .find(|b| b.binding == binding)
            .ok_or_else(|| CosmosError::Analyze(format!("unknown stream binding '{binding}'")))
    }

    /// Resolve an attribute reference to a qualified attribute and type.
    fn resolve(&self, a: &AttrRef) -> Result<(QAttr, AttrType)> {
        match &a.qualifier {
            Some(q) => {
                let b = self.stream_by_binding(q)?;
                let f = b.schema.field(&a.name).ok_or_else(|| {
                    CosmosError::Analyze(format!(
                        "stream '{}' has no attribute '{}'",
                        b.binding, a.name
                    ))
                })?;
                Ok((QAttr::new(&b.binding, &a.name), f.ty))
            }
            None => {
                let mut hit: Option<(QAttr, AttrType)> = None;
                for b in self.streams {
                    if let Some(f) = b.schema.field(&a.name) {
                        if hit.is_some() {
                            return Err(CosmosError::Analyze(format!(
                                "ambiguous attribute '{}'",
                                a.name
                            )));
                        }
                        hit = Some((QAttr::new(&b.binding, &a.name), f.ty));
                    }
                }
                hit.ok_or_else(|| CosmosError::Analyze(format!("unknown attribute '{}'", a.name)))
            }
        }
    }
}

fn check_const_type(attr: &QAttr, ty: AttrType, v: &Value) -> Result<()> {
    let ok = match v {
        Value::Null => false,
        Value::Bool(_) => ty == AttrType::Bool,
        Value::Int(_) | Value::Float(_) => ty.is_numeric(),
        Value::Str(_) => ty == AttrType::Str,
    };
    if ok {
        Ok(())
    } else {
        Err(CosmosError::Analyze(format!(
            "constant {v} is not comparable with {attr} of type {ty}"
        )))
    }
}

/// AND one `attr op const` bound onto the conjunction: the one mapping
/// of a comparison with a constant onto a [`Conjunction`] constraint
/// (`cosmos-lint` reuses it for its satisfiability check).
pub fn add_const_constraint(conj: &mut Conjunction, attr: &str, op: CmpOp, v: Value) {
    match op {
        CmpOp::Eq => {
            conj.equals(attr, v);
        }
        CmpOp::Ne => {
            conj.excludes(attr, v);
        }
        CmpOp::Lt => {
            conj.upper(attr, v, false);
        }
        CmpOp::Le => {
            conj.upper(attr, v, true);
        }
        CmpOp::Gt => {
            conj.lower(attr, v, false);
        }
        CmpOp::Ge => {
            conj.lower(attr, v, true);
        }
    }
}

fn classify_predicate(
    p: &Predicate,
    resolver: &Resolver<'_>,
    selections: &mut [Conjunction],
    joins: &mut BTreeSet<JoinPred>,
) -> Result<()> {
    match p {
        Predicate::Between { attr, lo, hi } => {
            let (qa, ty) = resolver.resolve(attr)?;
            check_const_type(&qa, ty, lo)?;
            check_const_type(&qa, ty, hi)?;
            let idx = resolver
                .streams
                .iter()
                .position(|b| b.binding == qa.binding)
                .expect("resolved binding exists");
            selections[idx].between(qa.name.as_str(), lo.clone(), hi.clone());
            Ok(())
        }
        Predicate::Cmp { left, op, right } => match (left, right) {
            (Operand::Const(a), Operand::Const(b)) => Err(CosmosError::Analyze(format!(
                "constant comparison {a} {op} {b} is not a stream predicate"
            ))),
            (Operand::Attr(a), Operand::Const(v)) => {
                let (qa, ty) = resolver.resolve(a)?;
                check_const_type(&qa, ty, v)?;
                let idx = resolver
                    .streams
                    .iter()
                    .position(|b| b.binding == qa.binding)
                    .expect("resolved binding exists");
                add_const_constraint(&mut selections[idx], &qa.name, *op, v.clone());
                Ok(())
            }
            (Operand::Const(v), Operand::Attr(a)) => {
                let (qa, ty) = resolver.resolve(a)?;
                check_const_type(&qa, ty, v)?;
                let idx = resolver
                    .streams
                    .iter()
                    .position(|b| b.binding == qa.binding)
                    .expect("resolved binding exists");
                add_const_constraint(&mut selections[idx], &qa.name, op.flipped(), v.clone());
                Ok(())
            }
            (Operand::Attr(a), Operand::Attr(b)) => {
                let (qa, ta) = resolver.resolve(a)?;
                let (qb, tb) = resolver.resolve(b)?;
                if qa.binding == qb.binding {
                    // Same-stream attribute comparison → difference range.
                    if !ta.is_numeric() || !tb.is_numeric() {
                        return Err(CosmosError::Analyze(format!(
                            "attribute comparison {qa} {op} {qb} requires numeric attributes"
                        )));
                    }
                    let range = match op {
                        CmpOp::Eq => DiffRange::new(0.0, 0.0),
                        CmpOp::Le => DiffRange::new(f64::NEG_INFINITY, 0.0),
                        CmpOp::Ge => DiffRange::new(0.0, f64::INFINITY),
                        other => {
                            return Err(CosmosError::Analyze(format!(
                                "same-stream comparison {qa} {other} {qb} is not supported \
                                 (only =, <=, >=)"
                            )))
                        }
                    };
                    let idx = resolver
                        .streams
                        .iter()
                        .position(|s| s.binding == qa.binding)
                        .expect("resolved binding exists");
                    selections[idx].diff(qa.name.as_str(), qb.name.as_str(), range);
                    Ok(())
                } else {
                    if *op != CmpOp::Eq {
                        return Err(CosmosError::Analyze(format!(
                            "only equi-joins are supported, got {qa} {op} {qb}"
                        )));
                    }
                    if ta != tb && !(ta.is_numeric() && tb.is_numeric()) {
                        return Err(CosmosError::Analyze(format!(
                            "join {qa} = {qb} compares incompatible types {ta} and {tb}"
                        )));
                    }
                    joins.insert(JoinPred::new(qa, qb));
                    Ok(())
                }
            }
        },
    }
}

fn derive_schema(
    streams: &[BoundStream],
    output: &[OutputColumn],
    qualified: bool,
) -> Result<Schema> {
    let mut fields = Vec::with_capacity(output.len());
    for col in output {
        let ty = match col {
            OutputColumn::Attr(a)
            | OutputColumn::Agg {
                arg: Some(a),
                func: AggFunc::Min,
            }
            | OutputColumn::Agg {
                arg: Some(a),
                func: AggFunc::Max,
            }
            | OutputColumn::Agg {
                arg: Some(a),
                func: AggFunc::Sum,
            } => {
                let b = streams
                    .iter()
                    .find(|b| b.binding == a.binding)
                    .expect("bound binding");
                let base = b.schema.field(&a.name).expect("resolved attr").ty;
                match col {
                    OutputColumn::Attr(_)
                    | OutputColumn::Agg {
                        func: AggFunc::Min, ..
                    }
                    | OutputColumn::Agg {
                        func: AggFunc::Max, ..
                    } => base,
                    _ => base, // SUM keeps the numeric input type
                }
            }
            OutputColumn::Agg {
                func: AggFunc::Avg, ..
            } => AttrType::Float,
            OutputColumn::Agg {
                func: AggFunc::Count,
                ..
            } => AttrType::Int,
            OutputColumn::Agg { arg: None, .. } => AttrType::Int,
        };
        fields.push(Field::new(column_name(col, qualified), ty));
    }
    Schema::new(fields).map_err(|e| {
        CosmosError::Analyze(format!("invalid output schema (duplicate column?): {e}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_cql::parse_query;

    fn open_auction() -> Schema {
        Schema::of(&[
            ("itemID", AttrType::Int),
            ("sellerID", AttrType::Int),
            ("start_price", AttrType::Float),
            ("timestamp", AttrType::Int),
        ])
    }

    fn closed_auction() -> Schema {
        Schema::of(&[
            ("itemID", AttrType::Int),
            ("buyerID", AttrType::Int),
            ("timestamp", AttrType::Int),
        ])
    }

    fn catalog(name: &str) -> Option<Schema> {
        match name {
            "OpenAuction" => Some(open_auction()),
            "ClosedAuction" => Some(closed_auction()),
            "Sensors" => Some(Schema::of(&[
                ("station", AttrType::Int),
                ("temperature", AttrType::Float),
                ("timestamp", AttrType::Int),
            ])),
            _ => None,
        }
    }

    fn analyze(text: &str) -> Result<AnalyzedQuery> {
        AnalyzedQuery::analyze(&parse_query(text).unwrap(), catalog)
    }

    #[test]
    fn analyzes_table1_q1() {
        let a = analyze(
            "SELECT O.* FROM OpenAuction [Range 3 Hour] O, ClosedAuction [Now] C \
             WHERE O.itemID = C.itemID",
        )
        .unwrap();
        assert_eq!(a.streams.len(), 2);
        assert_eq!(a.streams[0].window, TimeDelta::from_hours(3));
        assert_eq!(a.streams[1].window, TimeDelta::ZERO);
        assert_eq!(a.joins.len(), 1);
        let j = a.joins.iter().next().unwrap();
        assert_eq!(j.left, QAttr::new("C", "itemID"));
        assert_eq!(j.right, QAttr::new("O", "itemID"));
        assert_eq!(a.output.len(), 4); // O.*
        assert!(a.qualified_names());
        assert!(a.output_schema.contains("O.itemID"));
        assert!(!a.is_aggregate());
        assert_eq!(a.stream_index("C"), Some(1));
        assert!(a.stream_by_binding("O").is_some());
    }

    #[test]
    fn composes_section4_source_profile() {
        // The R/S example of Section 4: S = {R, S},
        // P = {R.A, R.B, S.B, S.C}, F = {R.A > 10}.
        let cat = |n: &str| match n {
            "R" => Some(Schema::of(&[
                ("A", AttrType::Int),
                ("B", AttrType::Int),
                ("Z", AttrType::Int),
            ])),
            "S" => Some(Schema::of(&[
                ("B", AttrType::Int),
                ("C", AttrType::Int),
                ("Z", AttrType::Int),
            ])),
            _ => None,
        };
        let q = parse_query("SELECT R.A, S.C FROM R [Now], S [Now] WHERE R.B = S.B AND R.A > 10")
            .unwrap();
        let a = AnalyzedQuery::analyze(&q, cat).unwrap();
        let p = a.source_profile();
        assert_eq!(p.streams().count(), 2);
        let r_entry = p.entry(&StreamName::from("R")).unwrap();
        assert!(r_entry.projection.contains("A"));
        assert!(r_entry.projection.contains("B"));
        assert!(!r_entry.projection.contains("Z"));
        assert_eq!(r_entry.filters.len(), 1);
        assert!(!r_entry.filters[0].constraint_for("A").is_any());
        let s_entry = p.entry(&StreamName::from("S")).unwrap();
        assert!(s_entry.projection.contains("B"));
        assert!(s_entry.projection.contains("C"));
        assert!(!s_entry.projection.contains("Z"));
        assert!(s_entry.filters.is_empty()); // no selection on S
    }

    #[test]
    fn bare_attrs_resolve_when_unambiguous() {
        let a = analyze(
            "SELECT buyerID FROM OpenAuction [Now] O, ClosedAuction [Now] C \
             WHERE O.itemID = C.itemID",
        )
        .unwrap();
        assert_eq!(a.output[0], OutputColumn::Attr(QAttr::new("C", "buyerID")));
        // itemID is ambiguous
        let err =
            analyze("SELECT itemID FROM OpenAuction [Now] O, ClosedAuction [Now] C").unwrap_err();
        assert!(err.to_string().contains("ambiguous"));
    }

    #[test]
    fn single_stream_names_stay_bare() {
        let a = analyze(
            "SELECT station, temperature FROM Sensors [Range 1 Minute] WHERE temperature > 20.0",
        )
        .unwrap();
        assert!(!a.qualified_names());
        assert_eq!(
            a.output_schema.names().collect::<Vec<_>>(),
            vec!["station", "temperature"]
        );
        assert!(!a.selections[0].constraint_for("temperature").is_any());
    }

    #[test]
    fn aggregates_analyzed() {
        let a = analyze(
            "SELECT station, AVG(temperature), COUNT(*) FROM Sensors [Range 10 Minute] \
             GROUP BY station",
        )
        .unwrap();
        assert!(a.is_aggregate());
        assert_eq!(a.group_by, vec![QAttr::new("Sensors", "station")]);
        assert_eq!(
            a.output_schema.names().collect::<Vec<_>>(),
            vec!["station", "AVG(temperature)", "COUNT(*)"]
        );
        assert_eq!(
            a.output_schema.field("AVG(temperature)").unwrap().ty,
            AttrType::Float
        );
        assert_eq!(a.output_schema.field("COUNT(*)").unwrap().ty, AttrType::Int);
    }

    #[test]
    fn rejects_semantic_errors() {
        // unknown stream
        assert!(analyze("SELECT a FROM Nope [Now]").is_err());
        // unknown attribute
        assert!(analyze("SELECT nope FROM Sensors [Now]").is_err());
        // type mismatch in selection
        assert!(analyze("SELECT station FROM Sensors [Now] WHERE station = 'x'").is_err());
        // non-equi join
        assert!(analyze(
            "SELECT O.itemID FROM OpenAuction [Now] O, ClosedAuction [Now] C \
             WHERE O.itemID < C.itemID"
        )
        .is_err());
        // aggregate over join
        assert!(analyze(
            "SELECT COUNT(*) FROM OpenAuction [Now] O, ClosedAuction [Now] C \
             WHERE O.itemID = C.itemID"
        )
        .is_err());
        // bare attr not in GROUP BY
        assert!(
            analyze("SELECT temperature, COUNT(*) FROM Sensors [Now] GROUP BY station").is_err()
        );
        // GROUP BY without aggregate
        assert!(analyze("SELECT station FROM Sensors [Now] GROUP BY station").is_err());
        // SUM of non-numeric
        assert!(analyze("SELECT SUM(tag) FROM Sensors [Now]").is_err());
        // duplicate binding
        assert!(analyze("SELECT station FROM Sensors [Now] S, Sensors [Now] S").is_err());
    }

    #[test]
    fn same_stream_attr_comparison_becomes_diff_constraint() {
        let a = analyze("SELECT itemID FROM OpenAuction [Now] WHERE itemID >= sellerID").unwrap();
        let diffs: Vec<_> = a.selections[0].diff_constraints().collect();
        assert_eq!(diffs.len(), 1);
        // strict same-stream comparison unsupported
        assert!(analyze("SELECT itemID FROM OpenAuction [Now] WHERE itemID > sellerID").is_err());
    }

    #[test]
    fn from_parts_validation() {
        let a = analyze("SELECT station FROM Sensors [Now]").unwrap();
        // roundtrip through from_parts
        let rebuilt = AnalyzedQuery::from_parts(
            a.distinct,
            a.streams.clone(),
            a.selections.clone(),
            a.joins.clone(),
            a.output.clone(),
            a.group_by.clone(),
        )
        .unwrap();
        assert_eq!(a, rebuilt);
        // no streams
        assert!(AnalyzedQuery::from_parts(
            false,
            vec![],
            vec![],
            Default::default(),
            a.output.clone(),
            vec![]
        )
        .is_err());
        // selections arity mismatch
        assert!(AnalyzedQuery::from_parts(
            false,
            a.streams.clone(),
            vec![],
            Default::default(),
            a.output.clone(),
            vec![]
        )
        .is_err());
        // empty output
        assert!(AnalyzedQuery::from_parts(
            false,
            a.streams.clone(),
            a.selections.clone(),
            Default::default(),
            vec![],
            vec![]
        )
        .is_err());
        // duplicate output columns → invalid schema
        let mut dup = a.output.clone();
        dup.extend(a.output.clone());
        assert!(AnalyzedQuery::from_parts(
            false,
            a.streams.clone(),
            a.selections.clone(),
            Default::default(),
            dup,
            vec![]
        )
        .is_err());
    }

    #[test]
    fn self_join_with_aliases() {
        let a = analyze(
            "SELECT A.itemID FROM OpenAuction [Range 1 Hour] A, OpenAuction [Now] B \
             WHERE A.itemID = B.itemID",
        )
        .unwrap();
        assert_eq!(a.streams.len(), 2);
        assert_eq!(a.streams[0].stream, a.streams[1].stream);
        assert_eq!(a.joins.len(), 1);
    }

    #[test]
    fn constant_on_left_flips() {
        let a = analyze("SELECT station FROM Sensors [Now] WHERE 20.0 < temperature").unwrap();
        let c = a.selections[0].constraint_for("temperature");
        assert!(c.satisfies(&Value::Float(25.0)));
        assert!(!c.satisfies(&Value::Float(15.0)));
    }

    #[test]
    fn used_attrs_cover_all_clauses() {
        let a = analyze(
            "SELECT O.sellerID FROM OpenAuction [Now] O, ClosedAuction [Now] C \
             WHERE O.itemID = C.itemID AND O.start_price > 10.0",
        )
        .unwrap();
        let used = a.used_attrs(0);
        assert!(used.contains("sellerID"));
        assert!(used.contains("itemID"));
        assert!(used.contains("start_price"));
        assert!(!used.contains("timestamp"));
    }
}
