//! Lints over one parsed continuous query.
//!
//! [`check_query_with`] runs every check against a stream catalog;
//! [`check_query`] runs the catalog-free subset (the CLI without
//! `--schemas`, where attribute resolution falls back to the textual
//! names, which is conservative: constraints on what might be the same
//! attribute under two spellings are simply not combined).

use crate::diag::{codes, Diagnostic};
use cosmos_cbn::{conjunction_unsat, AttrConstraint, Conjunction, DiffRange};
use cosmos_cql::{AttrRef, CmpOp, Operand, Predicate, SelectItem, Span, SpannedQuery, WindowSpec};
use cosmos_spe::analyze::add_const_constraint;
use cosmos_types::{AttrType, Schema, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Run the catalog-free lints (satisfiability, equality chains, windows).
pub fn check_query(sq: &SpannedQuery) -> Vec<Diagnostic> {
    Checker::new(sq, None::<fn(&str) -> Option<Schema>>).run()
}

/// Run every lint, resolving streams and attributes through `catalog`.
pub fn check_query_with<F>(sq: &SpannedQuery, catalog: F) -> Vec<Diagnostic>
where
    F: Fn(&str) -> Option<Schema>,
{
    Checker::new(sq, Some(catalog)).run()
}

/// One FROM entry: how predicates name it and what it contains.
struct Binding {
    /// The name predicates use: the alias if given, else the stream name.
    name: String,
    stream: String,
    schema: Option<Schema>,
}

struct Checker<'a> {
    sq: &'a SpannedQuery,
    bindings: Vec<Binding>,
    have_catalog: bool,
    out: Vec<Diagnostic>,
}

impl<'a> Checker<'a> {
    fn new<F>(sq: &'a SpannedQuery, catalog: Option<F>) -> Self
    where
        F: Fn(&str) -> Option<Schema>,
    {
        let mut out = Vec::new();
        let mut bindings = Vec::new();
        for (i, sr) in sq.query.from.iter().enumerate() {
            let schema = match &catalog {
                Some(f) => {
                    let s = f(&sr.stream);
                    if s.is_none() {
                        out.push(Diagnostic::error(
                            codes::UNKNOWN_STREAM,
                            format!("unknown stream '{}'", sr.stream),
                            Some(sq.spans.from[i]),
                        ));
                    }
                    s
                }
                None => None,
            };
            bindings.push(Binding {
                name: sr.alias.clone().unwrap_or_else(|| sr.stream.clone()),
                stream: sr.stream.clone(),
                schema,
            });
        }
        Checker {
            sq,
            bindings,
            have_catalog: catalog.is_some(),
            out,
        }
    }

    fn run(mut self) -> Vec<Diagnostic> {
        self.check_attr_refs();
        self.check_predicate_types();
        let had_unsat = self.check_satisfiability();
        if !had_unsat {
            self.check_equality_chains();
        }
        self.check_windows();
        self.out
    }

    /// Canonical key for an attribute plus its type when resolvable.
    ///
    /// Resolution failures (unknown binding/attribute, ambiguity) emit
    /// `C0202` at `span` and fall back to the textual name, so later
    /// checks still run (conservatively uncombined).
    fn resolve(&mut self, attr: &AttrRef, span: Span) -> (String, Option<AttrType>) {
        match &attr.qualifier {
            Some(qual) => match self.bindings.iter().find(|b| b.name == *qual) {
                None => {
                    self.out.push(Diagnostic::error(
                        codes::UNKNOWN_ATTR,
                        format!("unknown stream binding '{qual}' in '{attr}'"),
                        Some(span),
                    ));
                    (attr.to_string(), None)
                }
                Some(b) => {
                    let field = b.schema.as_ref().and_then(|s| s.field(&attr.name));
                    if b.schema.is_some() && field.is_none() {
                        self.out.push(Diagnostic::error(
                            codes::UNKNOWN_ATTR,
                            format!("stream '{}' has no attribute '{}'", b.stream, attr.name),
                            Some(span),
                        ));
                    }
                    (format!("{}.{}", b.name, attr.name), field.map(|f| f.ty))
                }
            },
            None => {
                // Bare names can only be resolved when every schema is
                // known; otherwise the missing schema could hold it.
                if !self.have_catalog || self.bindings.iter().any(|b| b.schema.is_none()) {
                    return (attr.name.clone(), None);
                }
                let hits: Vec<&Binding> = self
                    .bindings
                    .iter()
                    .filter(|b| b.schema.as_ref().is_some_and(|s| s.contains(&attr.name)))
                    .collect();
                match hits[..] {
                    [] => {
                        self.out.push(Diagnostic::error(
                            codes::UNKNOWN_ATTR,
                            format!("no stream in FROM has an attribute '{}'", attr.name),
                            Some(span),
                        ));
                        (attr.name.clone(), None)
                    }
                    [b] => (
                        format!("{}.{}", b.name, attr.name),
                        b.schema
                            .as_ref()
                            .and_then(|s| s.field(&attr.name))
                            .map(|f| f.ty),
                    ),
                    _ => {
                        let names: Vec<&str> = hits.iter().map(|b| b.stream.as_str()).collect();
                        self.out.push(Diagnostic::error(
                            codes::UNKNOWN_ATTR,
                            format!(
                                "attribute '{}' is ambiguous (found in {})",
                                attr.name,
                                names.join(", ")
                            ),
                            Some(span),
                        ));
                        (attr.name.clone(), None)
                    }
                }
            }
        }
    }

    /// C0202 over the SELECT list and GROUP BY (predicates are resolved
    /// again where their constraints are collected).
    fn check_attr_refs(&mut self) {
        let q = &self.sq.query;
        let spans = self.sq.spans.clone();
        for (item, &span) in q.select.iter().zip(&spans.select) {
            match item {
                SelectItem::Star => {}
                SelectItem::QualifiedStar(qual) => {
                    if !self.bindings.iter().any(|b| b.name == *qual) {
                        self.out.push(Diagnostic::error(
                            codes::UNKNOWN_ATTR,
                            format!("unknown stream binding '{qual}' in '{qual}.*'"),
                            Some(span),
                        ));
                    }
                }
                SelectItem::Attr(a) => {
                    self.resolve(a, span);
                }
                SelectItem::Agg { arg, .. } => {
                    if let Some(a) = arg {
                        self.resolve(a, span);
                    }
                }
            }
        }
        for (a, &span) in q.group_by.iter().zip(&spans.group_by) {
            self.resolve(a, span);
        }
    }

    /// C0203: comparisons whose operand types can never be compared.
    fn check_predicate_types(&mut self) {
        let q = &self.sq.query;
        let spans = self.sq.spans.clone();
        for (p, &span) in q.predicates.iter().zip(&spans.predicates) {
            match p {
                Predicate::Cmp { left, op: _, right } => match (left, right) {
                    (Operand::Attr(a), Operand::Const(v))
                    | (Operand::Const(v), Operand::Attr(a)) => {
                        let (_, ty) = self.resolve(a, span);
                        self.check_attr_const(a, ty, v, span);
                    }
                    (Operand::Attr(a), Operand::Attr(b)) => {
                        let (_, ta) = self.resolve(a, span);
                        let (_, tb) = self.resolve(b, span);
                        if let (Some(ta), Some(tb)) = (ta, tb) {
                            if ta != tb && !(ta.is_numeric() && tb.is_numeric()) {
                                self.out.push(Diagnostic::error(
                                    codes::TYPE_MISMATCH,
                                    format!("cannot compare '{a}' ({ta}) with '{b}' ({tb})"),
                                    Some(span),
                                ));
                            }
                        }
                    }
                    (Operand::Const(x), Operand::Const(y)) => {
                        if x.partial_cmp_coerce(y).is_none() {
                            self.out.push(Diagnostic::error(
                                codes::TYPE_MISMATCH,
                                format!("cannot compare constants {x} and {y}"),
                                Some(span),
                            ));
                        }
                    }
                },
                Predicate::Between { attr, lo, hi } => {
                    let (_, ty) = self.resolve(attr, span);
                    self.check_attr_const(attr, ty, lo, span);
                    self.check_attr_const(attr, ty, hi, span);
                }
            }
        }
    }

    fn check_attr_const(&mut self, attr: &AttrRef, ty: Option<AttrType>, v: &Value, span: Span) {
        if matches!(v, Value::Null) {
            self.out.push(Diagnostic::error(
                codes::TYPE_MISMATCH,
                format!("comparison of '{attr}' with NULL never holds"),
                Some(span),
            ));
            return;
        }
        let Some(ty) = ty else { return };
        let vt = match v {
            Value::Bool(_) => AttrType::Bool,
            Value::Int(_) => AttrType::Int,
            Value::Float(_) => AttrType::Float,
            Value::Str(_) => AttrType::Str,
            Value::Null => unreachable!(),
        };
        if vt != ty && !(vt.is_numeric() && ty.is_numeric()) {
            self.out.push(Diagnostic::error(
                codes::TYPE_MISMATCH,
                format!("cannot compare '{attr}' ({ty}) with {v} ({vt})"),
                Some(span),
            ));
        }
    }

    /// Translate the WHERE clause into one [`Conjunction`] over canonical
    /// attribute keys, remembering which predicates touch which keys.
    ///
    /// Strict attribute-difference bounds (`a < b`) are widened to their
    /// closed forms ([`DiffRange`] is closed), which only loosens the
    /// conjunction — sound for unsat detection.
    fn collect_conjunction(&mut self) -> (Conjunction, Vec<BTreeSet<String>>) {
        let q = self.sq.query.clone();
        let spans = self.sq.spans.clone();
        let mut conj = Conjunction::always();
        let mut touched: Vec<BTreeSet<String>> = Vec::with_capacity(q.predicates.len());
        for (p, &span) in q.predicates.iter().zip(&spans.predicates) {
            let mut keys = BTreeSet::new();
            match p {
                Predicate::Between { attr, lo, hi } => {
                    let (key, _) = self.resolve(attr, span);
                    conj.between(&key, lo.clone(), hi.clone());
                    keys.insert(key);
                }
                Predicate::Cmp { left, op, right } => match (left, right) {
                    (Operand::Attr(a), Operand::Const(v)) => {
                        let (key, _) = self.resolve(a, span);
                        add_const_constraint(&mut conj, &key, *op, v.clone());
                        keys.insert(key);
                    }
                    (Operand::Const(v), Operand::Attr(a)) => {
                        let (key, _) = self.resolve(a, span);
                        add_const_constraint(&mut conj, &key, op.flipped(), v.clone());
                        keys.insert(key);
                    }
                    (Operand::Attr(a), Operand::Attr(b)) => {
                        let (ka, _) = self.resolve(a, span);
                        let (kb, _) = self.resolve(b, span);
                        if ka != kb {
                            let range = match op {
                                CmpOp::Eq => Some(DiffRange::new(0.0, 0.0)),
                                CmpOp::Le | CmpOp::Lt => {
                                    Some(DiffRange::new(f64::NEG_INFINITY, 0.0))
                                }
                                CmpOp::Ge | CmpOp::Gt => Some(DiffRange::new(0.0, f64::INFINITY)),
                                CmpOp::Ne => None,
                            };
                            if let Some(r) = range {
                                conj.diff(&ka, &kb, r);
                                keys.insert(ka);
                                keys.insert(kb);
                            }
                        }
                    }
                    (Operand::Const(x), Operand::Const(y)) => {
                        // A decidably-false constant predicate empties the
                        // whole clause on its own.
                        if let Some(ord) = x.partial_cmp_coerce(y) {
                            if !op.eval(ord) {
                                self.out.push(Diagnostic::error(
                                    codes::UNSAT_WHERE,
                                    format!("predicate '{x} {op} {y}' is always false"),
                                    Some(span),
                                ));
                            }
                        }
                    }
                },
            }
            touched.push(keys);
        }
        (conj, touched)
    }

    /// The span covering every predicate whose key set intersects `keys`.
    fn span_of_keys(&self, touched: &[BTreeSet<String>], keys: &[&str]) -> Option<Span> {
        let spans = &self.sq.spans.predicates;
        touched
            .iter()
            .zip(spans)
            .filter(|(t, _)| keys.iter().any(|k| t.contains(*k)))
            .map(|(_, &s)| s)
            .reduce(Span::join)
    }

    /// C0101: the WHERE clause admits no tuple.
    ///
    /// Reported at the tightest defensible span: the predicates on one
    /// attribute when its own bounds are contradictory, the predicates on
    /// a pair when their difference range is empty, and the whole clause
    /// when only the Bellman–Ford kernel sees the contradiction.
    fn check_satisfiability(&mut self) -> bool {
        let before = self.out.len();
        let (conj, touched) = self.collect_conjunction();
        let mut shallow = false;
        for (attr, c) in conj.attr_constraints() {
            if c.is_unsat() {
                shallow = true;
                let span = self.span_of_keys(&touched, &[attr]);
                self.out.push(Diagnostic::error(
                    codes::UNSAT_WHERE,
                    format!("contradictory constraints on '{attr}': no value satisfies {c}"),
                    span,
                ));
            }
        }
        for (a, b, r) in conj.diff_constraints() {
            if r.is_empty() {
                shallow = true;
                let span = self.span_of_keys(&touched, &[a, b]);
                self.out.push(Diagnostic::error(
                    codes::UNSAT_WHERE,
                    format!(
                        "contradictory constraints on '{a} − {b}': the difference range is empty"
                    ),
                    span,
                ));
            }
        }
        if !shallow && conjunction_unsat(&conj) {
            let span = self.sq.spans.predicates.iter().copied().reduce(Span::join);
            self.out.push(Diagnostic::error(
                codes::UNSAT_WHERE,
                "WHERE clause is unsatisfiable: the predicates interact to exclude every tuple"
                    .to_string(),
                span,
            ));
        }
        self.out.len() > before
    }

    /// C0103: equality chains forcing one attribute to two values.
    ///
    /// Works where the numeric kernel cannot: `a = 'x' AND b = 'y' AND
    /// a = b` has no numeric bounds, but the union-find over `=` joins
    /// merges the per-attribute constraints, and the AND of two distinct
    /// points is empty for any value type.
    fn check_equality_chains(&mut self) {
        let (conj, touched) = self.collect_conjunction();
        // Union-find over canonical keys joined by equality predicates.
        let mut parent: BTreeMap<String, String> = BTreeMap::new();
        fn root(parent: &mut BTreeMap<String, String>, k: &str) -> String {
            let p = parent.get(k).cloned().unwrap_or_else(|| k.to_string());
            if p == k {
                return p;
            }
            let r = root(parent, &p);
            parent.insert(k.to_string(), r.clone());
            r
        }
        for (a, b, r) in conj.diff_constraints() {
            if r.lo == 0.0 && r.hi == 0.0 {
                let (ra, rb) = (root(&mut parent, a), root(&mut parent, b));
                if ra != rb {
                    parent.insert(ra, rb);
                }
            }
        }
        let mut classes: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let keys: BTreeSet<String> = conj.referenced_attrs();
        for k in &keys {
            classes
                .entry(root(&mut parent, k))
                .or_default()
                .push(k.clone());
        }
        for members in classes.values() {
            if members.len() < 2 {
                continue;
            }
            let merged = members.iter().fold(AttrConstraint::any(), |acc, m| {
                acc.and(&conj.constraint_for(m))
            });
            if merged.is_unsat() {
                let refs: Vec<&str> = members.iter().map(String::as_str).collect();
                let span = self.span_of_keys(&touched, &refs);
                self.out.push(Diagnostic::error(
                    codes::EQ_CHAIN_CONFLICT,
                    format!(
                        "equality chain over {} forces conflicting values",
                        members.join(" = ")
                    ),
                    span,
                ));
            }
        }
    }

    /// C0301 / C0302 / C0303: window hygiene.
    fn check_windows(&mut self) {
        let q = &self.sq.query;
        let spans = &self.sq.spans;
        if q.from.len() > 1 {
            for (sr, &wspan) in q.from.iter().zip(&spans.windows) {
                if sr.window == WindowSpec::Unbounded {
                    self.out.push(Diagnostic::warning(
                        codes::UNBOUNDED_JOIN,
                        format!(
                            "join over '{}' with an [Unbounded] window retains the stream's \
                             entire history; join state grows without bound",
                            sr.stream
                        ),
                        Some(wspan),
                    ));
                }
            }
        }
        if q.is_aggregate() {
            for (sr, &wspan) in q.from.iter().zip(&spans.windows) {
                if sr.window == WindowSpec::Now {
                    self.out.push(Diagnostic::warning(
                        codes::ZERO_WIDTH_AGG,
                        format!(
                            "aggregate over '{}' with a zero-width [Now] window only ever \
                             sees tuples sharing one timestamp",
                            sr.stream
                        ),
                        Some(wspan),
                    ));
                }
            }
        }
        for i in 0..q.from.len() {
            for j in (i + 1)..q.from.len() {
                if q.from[i].stream == q.from[j].stream && q.from[i].window != q.from[j].window {
                    self.out.push(Diagnostic::warning(
                        codes::WINDOW_MISMATCH,
                        format!(
                            "stream '{}' appears under two different windows; per-stream \
                             windows must match for Theorem-2 aggregate merging to apply",
                            q.from[i].stream
                        ),
                        Some(spans.windows[i].join(spans.windows[j])),
                    ));
                }
            }
        }
    }
}
