//! Push-based continuous execution of analyzed queries.
//!
//! The executor receives source tuples in global timestamp order and
//! produces the query's result stream incrementally (Istream semantics:
//! a result tuple is emitted the moment the arrival completing it is
//! processed, stamped with that arrival's timestamp).
//!
//! **Join semantics** are precisely the paper's Lemma 1: for streams
//! `S1, S2` with window sizes `T1, T2`, tuples `t1, t2` join iff they
//! satisfy the join predicates and `−T1 ≤ t1.ts − t2.ts ≤ T2`. For *n*-way
//! joins the condition generalizes to `tᵢ.ts ≥ τ − Tᵢ` for every
//! participant, where `τ` is the completing arrival's timestamp.
//!
//! **Aggregate semantics**: on each arrival that passes the selection,
//! the sliding window is advanced (tuples older than `τ − T` evicted)
//! and one result row for the arriving tuple's group is emitted.

use crate::analyze::{AnalyzedQuery, OutputColumn, QAttr};
use cosmos_cbn::{AttrConstraint, Conjunction, DiffRange};
use cosmos_cql::AggFunc;
use cosmos_types::{
    AttrType, CosmosError, FxHashMap, FxHashSet, NeumaierSum, Result, Schema, SchemaId, StreamName,
    TimeDelta, Timestamp, Tuple, Value,
};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Positional source of one output column: `(stream index, attr index)`.
type ColSource = (usize, usize);

/// A snapshot of an executor's retained-state occupancy, by component.
/// Each field is the measured counterpart of a row bound derived by the
/// `cosmos-bound` crate (`QueryBounds`), so the testkit can check
/// measured ≤ bound on every sweep event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StateSize {
    /// Rows across all join input buffers.
    pub buffer_rows: usize,
    /// Rows in the aggregate's sliding window (including disorder-mode
    /// revision history retained behind the live window).
    pub agg_window_rows: usize,
    /// Live groups in the aggregate's group table.
    pub group_rows: usize,
    /// Entries in the DISTINCT dedup set.
    pub distinct_rows: usize,
    /// Tuples staged behind the watermark frontier (disorder mode).
    pub staging_rows: usize,
}

impl StateSize {
    /// Total retained rows across all components.
    pub fn total_rows(&self) -> usize {
        self.buffer_rows
            + self.agg_window_rows
            + self.group_rows
            + self.distinct_rows
            + self.staging_rows
    }
}

/// What to do with a tuple that arrives *behind* the watermark frontier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatePolicy {
    /// Shed late tuples, counting them so conservation still balances.
    Drop,
    /// Process late tuples within `grace` of the frontier by emitting
    /// their result as-of their timestamp plus *revision* tuples for
    /// already-emitted results they change; shed beyond the grace.
    Revise {
        /// How far behind the frontier a tuple may still be folded in.
        grace: TimeDelta,
    },
}

impl LatePolicy {
    /// How long state needed to fold late tuples in must be retained.
    fn grace(&self) -> TimeDelta {
        match self {
            LatePolicy::Drop => TimeDelta::ZERO,
            LatePolicy::Revise { grace } => *grace,
        }
    }
}

/// Disorder-mode bookkeeping counters. The conservation identity
/// `arrived == drained + staged + shed + duplicates` holds at every
/// instant; the testkit asserts it on every sweep event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DisorderStats {
    /// Out-of-order arrivals offered to this executor.
    pub arrived: u64,
    /// Tuples processed through the engine (in-order drains, flushes,
    /// and late tuples folded in by revision).
    pub drained: u64,
    /// Tuples currently staged behind the frontier.
    pub staged: u64,
    /// Late tuples shed (beyond grace, or `Drop` policy).
    pub shed: u64,
    /// Exact duplicates of a remembered arrival, discarded.
    pub duplicates: u64,
    /// Late tuples folded in via the revision path (subset of `drained`).
    pub late: u64,
    /// Revision tuples emitted to supersede earlier emissions.
    pub revisions: u64,
}

impl DisorderStats {
    /// Sum two stat snapshots (used to total live + retired executors).
    pub fn merge(&self, other: &DisorderStats) -> DisorderStats {
        DisorderStats {
            arrived: self.arrived + other.arrived,
            drained: self.drained + other.drained,
            staged: self.staged + other.staged,
            shed: self.shed + other.shed,
            duplicates: self.duplicates + other.duplicates,
            late: self.late + other.late,
            revisions: self.revisions + other.revisions,
        }
    }

    /// The conservation identity; false means tuples were lost or
    /// double-counted somewhere in the disorder machinery.
    pub fn conserved(&self) -> bool {
        self.arrived == self.drained + self.staged + self.shed + self.duplicates
    }
}

/// Out-of-order ingestion state: a staging area ordered by
/// `(timestamp, arrival seq)`, the watermark frontier that releases it,
/// and the remembered tuples exact duplicates are tested against, in
/// the same order so the frontier evicts them from the front.
#[derive(Debug, Clone)]
struct DisorderState {
    policy: LatePolicy,
    /// Tuples not yet released: all have `ts > frontier`.
    staging: BTreeMap<(Timestamp, u64), Tuple>,
    /// Arrival tiebreaker so equal timestamps drain in arrival order;
    /// every remembered arrival takes the next one.
    seq: u64,
    /// Greatest effective watermark seen: `min` over the query's input
    /// streams of their last watermark.
    frontier: Timestamp,
    /// Last watermark per stream binding, parallel to the query's
    /// `streams` (`i64::MIN` until the first one).
    watermarks: Vec<Timestamp>,
    /// Every processable arrival seen so far (shared, `Arc`-backed
    /// clones): exact duplicates of anything here are discarded. Entries
    /// below `frontier − grace` can no longer collide with a processable
    /// arrival and are popped off the front as the frontier moves.
    seen: BTreeMap<(Timestamp, u64), Tuple>,
    stats: DisorderStats,
}

impl DisorderState {
    fn new(policy: LatePolicy, bindings: usize) -> DisorderState {
        DisorderState {
            policy,
            staging: BTreeMap::new(),
            seq: 0,
            frontier: Timestamp(i64::MIN),
            watermarks: vec![Timestamp(i64::MIN); bindings],
            seen: BTreeMap::new(),
            stats: DisorderStats::default(),
        }
    }

    /// Remember a tuple that is not a duplicate; returns its arrival
    /// sequence number.
    fn remember(&mut self, t: &Tuple) -> u64 {
        self.seq += 1;
        self.seen.insert((t.timestamp, self.seq), t.clone());
        self.seq
    }

    /// Whether an equal tuple (stream, timestamp, values) is remembered:
    /// only those at the arrival's own timestamp can be.
    fn is_duplicate(&self, t: &Tuple) -> bool {
        let at = (t.timestamp, 0)..=(t.timestamp, u64::MAX);
        self.seen.range(at).any(|(_, seen)| seen == t)
    }

    /// Drop remembered tuples that can no longer match a processable
    /// arrival (strictly below `frontier − grace`): the front of the
    /// table, usually a handful per frontier move.
    fn evict_seen(&mut self) {
        let horizon = self.frontier - self.policy.grace();
        while self
            .seen
            .first_key_value()
            .is_some_and(|(k, _)| k.0 < horizon)
        {
            self.seen.pop_first();
        }
    }
}

/// One binding's selection with its attribute names resolved to columns
/// of the binding's full schema, so the per-tuple test looks no name up.
/// `None` = the schema lacks the attribute: the constraint can never be
/// shown to hold, exactly as [`Conjunction::satisfies`] has it.
#[derive(Debug, Clone)]
struct Selection {
    attrs: Vec<(Option<usize>, AttrConstraint)>,
    diffs: Vec<(Option<(usize, usize)>, DiffRange)>,
}

impl Selection {
    fn resolve(selection: &Conjunction, schema: &Schema) -> Selection {
        Selection {
            attrs: selection
                .attr_constraints()
                .map(|(attr, c)| (schema.index_of(attr), c.clone()))
                .collect(),
            diffs: selection
                .diff_constraints()
                .map(|(a, b, r)| (schema.index_of(a).zip(schema.index_of(b)), *r))
                .collect(),
        }
    }

    fn satisfies(&self, tuple: &Tuple) -> bool {
        let attrs = self.attrs.iter().all(|(col, c)| {
            let value = col.and_then(|i| tuple.get(i));
            value.is_some_and(|v| c.satisfies(v))
        });
        attrs
            && self.diffs.iter().all(|(cols, r)| {
                let pair = cols.and_then(|(a, b)| tuple.get(a).zip(tuple.get(b)));
                pair.is_some_and(|(x, y)| r.satisfies(x, y))
            })
    }
}

/// How to re-align the early-projected tuples of one layout to the full
/// schema of the binding at `stream_index`: per full-schema attribute,
/// its column in the projected layout (`None` = projected away).
#[derive(Debug, Clone)]
struct Alignment {
    stream_index: usize,
    layout: SchemaId,
    columns: Vec<Option<usize>>,
}

/// Whether a join-column value can equal anything under
/// [`Value::eq_coerce`]: `Null` and NaN cannot, so no partition is keyed
/// by one (and a probe with one finds nothing).
fn joinable(v: &Value) -> bool {
    !v.is_null() && !matches!(v, Value::Float(f) if f.is_nan())
}

/// One join binding's retained tuples: the time-ordered buffer, and —
/// when an equality predicate compares one of its columns with another
/// binding — the same tuples partitioned by that column's value.
///
/// Invariant: each partition is the subsequence of `rows` whose key
/// column [`Value`]-equals the partition's key (`Null`/NaN keys are not
/// indexed). `Value` equality and hashing agree with `eq_coerce` on
/// every other value, so a partition holds exactly the buffered tuples
/// that can satisfy the predicate against its key, in buffer order.
#[derive(Debug, Clone, Default)]
struct JoinBuffer {
    rows: VecDeque<Tuple>,
    /// The partitioned column (`None` = no usable equality predicate).
    key_col: Option<usize>,
    partitions: FxHashMap<Value, VecDeque<Tuple>>,
}

impl JoinBuffer {
    fn new(key_col: Option<usize>) -> JoinBuffer {
        JoinBuffer {
            key_col,
            ..JoinBuffer::default()
        }
    }

    /// The partition `t` belongs in, if it is indexed at all.
    fn key_of<'t>(&self, t: &'t Tuple) -> Option<&'t Value> {
        self.key_col.and_then(|c| t.get(c)).filter(|v| joinable(v))
    }

    fn push_back(&mut self, t: &Tuple) {
        if let Some(key) = self.key_of(t) {
            match self.partitions.get_mut(key) {
                Some(p) => p.push_back(t.clone()),
                None => {
                    self.partitions
                        .insert(key.clone(), VecDeque::from([t.clone()]));
                }
            }
        }
        self.rows.push_back(t.clone());
    }

    /// Insert `t` after every row not newer than it (the late-revision
    /// path; the buffer is in timestamp order there).
    fn insert_by_time(&mut self, t: &Tuple) {
        let after = |rows: &VecDeque<Tuple>| {
            rows.iter()
                .position(|u| u.timestamp > t.timestamp)
                .unwrap_or(rows.len())
        };
        if let Some(key) = self.key_of(t) {
            let p = self.partitions.entry(key.clone()).or_default();
            p.insert(after(p), t.clone());
        }
        let pos = after(&self.rows);
        self.rows.insert(pos, t.clone());
    }

    /// Pop rows older than `horizon` off the front, and off the front of
    /// their partitions. Emptied partitions are kept for the next tuple
    /// with their key until they outnumber the rows.
    fn evict_before(&mut self, horizon: Timestamp) {
        while self.rows.front().is_some_and(|t| t.timestamp < horizon) {
            let t = self.rows.pop_front().expect("checked front");
            if let Some(key) = self.key_of(&t) {
                let p = self.partitions.get_mut(key).expect("indexed row");
                let first = p.pop_front();
                debug_assert!(first.is_some_and(|u| u == t), "partition order");
            }
        }
        if self.partitions.len() > 2 * self.rows.len() + 64 {
            #[expect(
                clippy::disallowed_methods,
                reason = "which partitions survive does not depend on the visiting order"
            )]
            self.partitions.retain(|_, p| !p.is_empty());
        }
    }
}

/// A running continuous query.
#[derive(Debug, Clone)]
pub struct Executor {
    query: AnalyzedQuery,
    result_stream: StreamName,
    /// Each binding's selection over columns (parallel to
    /// `query.streams`).
    selections: Vec<Selection>,
    /// The re-alignment maps of the projected layouts seen so far — a
    /// function of the query and the layout alone, so they live as long
    /// as the executor does.
    alignments: Vec<Alignment>,
    /// Tuples that passed their stream's selection, per stream index.
    buffers: Vec<JoinBuffer>,
    /// Precomputed positional sources of the output columns (empty for
    /// an aggregate, whose row plan lives in [`AggregateState`]).
    attr_sources: Vec<ColSource>,
    /// Precomputed `(left source, right source)` of each join predicate.
    join_sources: Vec<(ColSource, ColSource)>,
    /// `probes[a][i]`: when binding `a` arrives, the already-bound column
    /// whose value selects binding `i`'s candidates from its partitions
    /// (`None` = scan its whole buffer). Resolved in [`Executor::new`].
    probes: Vec<Vec<Option<ColSource>>>,
    /// Per-stream-binding window sizes (parallel to `query.streams`).
    windows: Vec<TimeDelta>,
    /// The join combinations of one arrival, before they are finished;
    /// empty between calls, kept for its capacity.
    join_results: Vec<(Timestamp, Arc<[Value]>)>,
    distinct_seen: FxHashSet<Arc<[Value]>>,
    agg: Option<AggregateState>,
    last_ts: Timestamp,
    consumed: u64,
    emitted: u64,
    /// Out-of-order ingestion state; `None` = strict in-order mode.
    disorder: Option<DisorderState>,
    /// Under `Revise`, window state down to this timestamp (minus the
    /// window size) is retained past normal eviction so late tuples can
    /// be folded in. Tracks `frontier − grace`.
    retain_floor: Option<Timestamp>,
}

impl Executor {
    /// Build an executor for an analyzed query; result tuples are tagged
    /// with `result_stream`.
    pub fn new(query: AnalyzedQuery, result_stream: impl Into<StreamName>) -> Result<Executor> {
        let locate = |qa: &QAttr| -> Result<ColSource> {
            let si = query
                .stream_index(&qa.binding)
                .ok_or_else(|| CosmosError::Engine(format!("unbound binding '{}'", qa.binding)))?;
            let ai = query.streams[si]
                .schema
                .index_of(&qa.name)
                .ok_or_else(|| CosmosError::Engine(format!("unknown attribute {qa}")))?;
            Ok((si, ai))
        };
        let agg = if query.is_aggregate() {
            Some(AggregateState::new(&query)?)
        } else {
            None
        };
        let mut attr_sources = Vec::new();
        if agg.is_none() {
            for col in &query.output {
                if let OutputColumn::Attr(a) = col {
                    attr_sources.push(locate(a)?);
                }
            }
        }
        let mut join_sources = Vec::with_capacity(query.joins.len());
        for j in &query.joins {
            join_sources.push((locate(&j.left)?, locate(&j.right)?));
        }
        let n = query.streams.len();
        let key_cols = partition_columns(n, &join_sources);
        let probes = (0..n)
            .map(|arrival| probe_plan(arrival, &key_cols, &join_sources))
            .collect();
        let selections = query
            .streams
            .iter()
            .zip(&query.selections)
            .map(|(binding, selection)| Selection::resolve(selection, &binding.schema))
            .collect();
        Ok(Executor {
            selections,
            alignments: Vec::new(),
            buffers: key_cols.into_iter().map(JoinBuffer::new).collect(),
            windows: query.streams.iter().map(|b| b.window).collect(),
            query,
            result_stream: result_stream.into(),
            attr_sources,
            join_sources,
            probes,
            join_results: Vec::new(),
            distinct_seen: FxHashSet::default(),
            agg,
            last_ts: Timestamp(i64::MIN),
            consumed: 0,
            emitted: 0,
            disorder: None,
            retain_floor: None,
        })
    }

    /// The analyzed query this executor runs.
    pub fn query(&self) -> &AnalyzedQuery {
        &self.query
    }

    /// The schema of emitted result tuples.
    pub fn result_schema(&self) -> &Schema {
        &self.query.output_schema
    }

    /// The name of the result stream.
    pub fn result_stream(&self) -> &StreamName {
        &self.result_stream
    }

    /// Source tuples consumed so far (arrivals relevant to this query).
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Result tuples emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Current retained-state occupancy, per component — the measured
    /// side of `cosmos-bound`'s bound-soundness oracle.
    pub fn state_size(&self) -> StateSize {
        StateSize {
            buffer_rows: self.buffers.iter().map(|b| b.rows.len()).sum(),
            agg_window_rows: self
                .agg
                .as_ref()
                .map_or(0, |a| a.window.len() + a.history.len()),
            group_rows: self.agg.as_ref().map_or(0, |a| a.groups.len()),
            distinct_rows: self.distinct_seen.len(),
            staging_rows: self.disorder.as_ref().map_or(0, |d| d.staging.len()),
        }
    }

    /// Switch the executor into out-of-order ingestion mode: arrivals
    /// are staged until a watermark releases them; tuples behind the
    /// frontier are handled per `policy`. Must be called before the
    /// first arrival.
    pub fn enable_disorder(&mut self, policy: LatePolicy) {
        self.retain_floor = match policy {
            LatePolicy::Drop => None,
            LatePolicy::Revise { .. } => Some(Timestamp(i64::MIN)),
        };
        self.disorder = Some(DisorderState::new(policy, self.query.streams.len()));
    }

    /// The inverse of [`Executor::enable_disorder`]: back to strict
    /// in-order intake, dropping the staging area, the watermarks, the
    /// disorder counters and the window state retained for revisions.
    /// Flush the staging area first ([`Executor::flush_staged`]) and
    /// read the counters, or both are lost.
    pub fn disable_disorder(&mut self) {
        self.disorder = None;
        self.retain_floor = None;
        if let Some(agg) = &mut self.agg {
            agg.history.clear();
        }
    }

    /// Disorder bookkeeping counters (`None` in strict in-order mode).
    pub fn disorder_stats(&self) -> Option<DisorderStats> {
        self.disorder.as_ref().map(|d| DisorderStats {
            staged: d.staging.len() as u64,
            ..d.stats
        })
    }

    /// The watermark frontier (`None` in strict in-order mode): all
    /// arrivals at or below it have been drained, shed, or deduplicated.
    pub fn frontier(&self) -> Option<Timestamp> {
        self.disorder.as_ref().map(|d| d.frontier)
    }

    /// Process a *stream-homogeneous* batch of arrivals (every tuple on
    /// the same stream) that may have been *early-projected* by the CBN:
    /// `schema` describes the tuples' actual layout. Each tuple is
    /// re-aligned to the stream's full schema (missing attributes become
    /// `Null`; the source profile guarantees every attribute the query
    /// touches is present) and then processed normally; the re-alignment
    /// column map is computed on the first batch of a layout and kept.
    /// Result tuples are returned in emission order.
    pub fn push_projected_batch(&mut self, tuples: &[Tuple], schema: &Schema) -> Vec<Tuple> {
        let Some(first) = tuples.first() else {
            return Vec::new();
        };
        debug_assert!(
            tuples.iter().all(|t| t.stream == first.stream),
            "push_projected_batch requires a stream-homogeneous batch"
        );
        let streams = &self.query.streams;
        let Some(si) = streams.iter().position(|b| b.stream == first.stream) else {
            return Vec::new();
        };
        let full = &streams[si].schema;
        let mut out = Vec::new();
        if schema == full {
            for t in tuples {
                self.ingest(t, &mut out);
            }
            return out;
        }
        // Source column in the projected layout (or Null) per full-schema
        // attribute, resolved on the first batch of the layout.
        let layout = schema.id();
        let known = |a: &Alignment| a.stream_index == si && a.layout == layout;
        let at = self.alignments.iter().position(known).unwrap_or_else(|| {
            let columns = full.fields().iter().map(|f| schema.index_of(&f.name));
            self.alignments.push(Alignment {
                stream_index: si,
                layout,
                columns: columns.collect(),
            });
            self.alignments.len() - 1
        });
        for t in tuples {
            let full: Arc<[Value]> = self.alignments[at]
                .columns
                .iter()
                .map(|src| src.and_then(|i| t.get(i).cloned()).unwrap_or(Value::Null))
                .collect();
            let aligned = Tuple::from_shared(t.stream, t.timestamp, full);
            self.ingest(&aligned, &mut out);
        }
        out
    }

    /// Route one full-schema arrival through the mode-appropriate path.
    fn ingest(&mut self, tuple: &Tuple, out: &mut Vec<Tuple>) {
        if self.disorder.is_some() {
            self.push_out_of_order_into(tuple, out);
        } else {
            self.push_into(tuple, out);
        }
    }

    /// Process one source arrival, returning the result tuples it
    /// completes. Tuples must arrive in non-decreasing timestamp order.
    pub fn push(&mut self, tuple: &Tuple) -> Vec<Tuple> {
        let mut out = Vec::new();
        self.push_into(tuple, &mut out);
        out
    }

    /// [`Executor::push`], appending the results to `out`.
    fn push_into(&mut self, tuple: &Tuple, out: &mut Vec<Tuple>) {
        debug_assert!(
            tuple.timestamp >= self.last_ts,
            "tuples must arrive in timestamp order ({} after {})",
            tuple.timestamp,
            self.last_ts
        );
        self.last_ts = self.last_ts.max(tuple.timestamp);
        let before = out.len();
        // A stream may be bound several times (self joins); process each.
        for si in 0..self.query.streams.len() {
            if self.query.streams[si].stream != tuple.stream {
                continue;
            }
            self.consumed += 1;
            if !self.selections[si].satisfies(tuple) {
                continue;
            }
            if self.agg.is_some() {
                self.push_aggregate(si, tuple, out);
            } else if self.query.streams.len() == 1 {
                self.emit_single(tuple, out);
            } else {
                self.push_join(si, tuple, out);
            }
        }
        self.emitted += (out.len() - before) as u64;
    }

    /// Process one arrival in out-of-order mode. Exact duplicates of
    /// anything remembered are discarded; arrivals ahead of the
    /// watermark frontier are staged; arrivals behind it are handled
    /// per the late policy (revision within grace, shed otherwise).
    pub fn push_out_of_order(&mut self, tuple: &Tuple) -> Vec<Tuple> {
        let mut out = Vec::new();
        self.push_out_of_order_into(tuple, &mut out);
        out
    }

    /// [`Executor::push_out_of_order`], appending the results to `out`.
    fn push_out_of_order_into(&mut self, tuple: &Tuple, out: &mut Vec<Tuple>) {
        let Some(mut d) = self.disorder.take() else {
            return self.push_into(tuple, out);
        };
        d.stats.arrived += 1;
        if d.is_duplicate(tuple) {
            d.stats.duplicates += 1;
        } else if tuple.timestamp > d.frontier {
            let seq = d.remember(tuple);
            d.staging.insert((tuple.timestamp, seq), tuple.clone());
        } else {
            match d.policy {
                LatePolicy::Drop => d.stats.shed += 1,
                LatePolicy::Revise { grace } => {
                    if tuple.timestamp >= d.frontier - grace {
                        d.remember(tuple);
                        let mut revisions = 0;
                        self.revise(tuple, &mut revisions, out);
                        d.stats.late += 1;
                        d.stats.drained += 1;
                        d.stats.revisions += revisions;
                    } else {
                        d.stats.shed += 1;
                    }
                }
            }
        }
        self.disorder = Some(d);
    }

    /// Fold in a watermark for `stream`: the effective frontier is the
    /// minimum over all input streams' watermarks, and every staged
    /// tuple at or below it is drained through the engine in
    /// `(timestamp, arrival)` order. Returns the drained results. A
    /// stream the query does not bind changes (and stores) nothing.
    pub fn advance_watermark(&mut self, stream: &StreamName, watermark: Timestamp) -> Vec<Tuple> {
        let Some(mut d) = self.disorder.take() else {
            return Vec::new();
        };
        for (binding, last) in self.query.streams.iter().zip(&mut d.watermarks) {
            if binding.stream == *stream {
                *last = (*last).max(watermark);
            }
        }
        let eff = d.watermarks.iter().copied().min().unwrap_or(watermark);
        let mut out = Vec::new();
        if eff > d.frontier {
            d.frontier = eff;
            if matches!(d.policy, LatePolicy::Revise { .. }) {
                self.retain_floor = Some(d.frontier - d.policy.grace());
            }
            while let Some((&(ts, _), _)) = d.staging.first_key_value() {
                if ts > d.frontier {
                    break;
                }
                let (_, t) = d.staging.pop_first().expect("checked first");
                self.push_into(&t, &mut out);
                d.stats.drained += 1;
            }
            d.evict_seen();
        }
        self.disorder = Some(d);
        out
    }

    /// Drain everything still staged, in `(timestamp, arrival)` order,
    /// *without* moving the frontier — used when an executor is about
    /// to be retired so its staged tuples are not silently lost.
    pub fn flush_staged(&mut self) -> Vec<Tuple> {
        let Some(mut d) = self.disorder.take() else {
            return Vec::new();
        };
        let staged = std::mem::take(&mut d.staging);
        let mut out = Vec::new();
        for t in staged.into_values() {
            self.push_into(&t, &mut out);
            d.stats.drained += 1;
        }
        self.disorder = Some(d);
        out
    }

    /// Fold a late (behind-frontier, within-grace) tuple into the
    /// query state as if it had arrived in order: emit its result
    /// as-of its own timestamp, plus revision tuples for already-emitted
    /// results it retroactively changes.
    fn revise(&mut self, tuple: &Tuple, revisions: &mut u64, out: &mut Vec<Tuple>) {
        let before = out.len();
        for si in 0..self.query.streams.len() {
            if self.query.streams[si].stream != tuple.stream {
                continue;
            }
            self.consumed += 1;
            if !self.selections[si].satisfies(tuple) {
                continue;
            }
            if self.agg.is_some() {
                self.revise_aggregate(tuple, out, revisions);
            } else if self.query.streams.len() == 1 {
                // Stateless: the row is independent of arrival order.
                self.emit_single(tuple, out);
            } else {
                self.revise_join(si, tuple, out);
            }
        }
        self.emitted += (out.len() - before) as u64;
    }

    fn revise_aggregate(&mut self, tuple: &Tuple, out: &mut Vec<Tuple>, revisions: &mut u64) {
        let agg = self.agg.as_mut().expect("aggregate state");
        let rows = agg.revise(tuple);
        for (ts, values) in rows {
            if ts > tuple.timestamp {
                *revisions += 1;
            }
            self.finish(values, ts, out);
        }
    }

    /// Enumerate the join combinations the late tuple completes. Each
    /// combination is stamped with the *latest* member's timestamp τ
    /// (Lemma 1's completing arrival) and checked against every
    /// member's window. No combination containing the late tuple can
    /// have been emitted before, so no dedup is needed.
    fn revise_join(&mut self, arrival_idx: usize, tuple: &Tuple, out: &mut Vec<Tuple>) {
        self.join(arrival_idx, tuple, None, out);
        self.buffers[arrival_idx].insert_by_time(tuple);
    }

    /// Finish a candidate result row: distinct check and wrap.
    fn finish(&mut self, values: Arc<[Value]>, ts: Timestamp, out: &mut Vec<Tuple>) {
        if self.query.distinct && !self.distinct_seen.insert(values.clone()) {
            return;
        }
        out.push(Tuple::from_shared(self.result_stream, ts, values));
    }

    fn emit_single(&mut self, tuple: &Tuple, out: &mut Vec<Tuple>) {
        let values = self
            .attr_sources
            .iter()
            .map(|&(_, ai)| tuple.get(ai).cloned().unwrap_or(Value::Null))
            .collect();
        self.finish(values, tuple.timestamp, out);
    }

    fn push_join(&mut self, arrival_idx: usize, tuple: &Tuple, out: &mut Vec<Tuple>) {
        let tau = tuple.timestamp;
        // Evict tuples that can no longer join any future arrival:
        // tᵢ.ts < τ − Tᵢ (infinite windows never evict). Under a
        // `Revise` late policy, tuples back to `frontier − grace − Tᵢ`
        // are retained: a late arrival within grace may still complete
        // a combination with them.
        for (buf, &w) in self.buffers.iter_mut().zip(&self.windows) {
            if w.is_infinite() {
                continue;
            }
            let mut horizon = tau - w;
            if let Some(floor) = self.retain_floor {
                horizon = horizon.min(floor - w);
            }
            buf.evict_before(horizon);
        }
        self.join(arrival_idx, tuple, Some(tau), out);
        self.buffers[arrival_idx].push_back(tuple);
    }

    /// Finish the combinations `tuple`, arriving on binding `arrival_idx`,
    /// completes with the buffered tuples (see [`JoinCtx::tau`]), in
    /// timestamp order. They are gathered in the reused results buffer.
    fn join(
        &mut self,
        arrival_idx: usize,
        tuple: &Tuple,
        tau: Option<Timestamp>,
        out: &mut Vec<Tuple>,
    ) {
        let mut results = std::mem::take(&mut self.join_results);
        let ctx = JoinCtx {
            join_sources: &self.join_sources,
            attr_sources: &self.attr_sources,
            windows: &self.windows,
            probes: &self.probes[arrival_idx],
            arrival_idx,
            tau,
        };
        // Queries rarely bind more than a few streams: keep the partial
        // combination on the stack.
        let n = self.buffers.len();
        let mut inline = [None; 8];
        let mut spilled;
        let combo: &mut [Option<&Tuple>] = if n <= inline.len() {
            &mut inline[..n]
        } else {
            spilled = vec![None; n];
            &mut spilled
        };
        combo[arrival_idx] = Some(tuple);
        enumerate(&self.buffers, 0, combo, &ctx, &mut results);
        if tau.is_none() {
            results.sort_by_key(|r| r.0);
        }
        for (ts, values) in results.drain(..) {
            self.finish(values, ts, out);
        }
        self.join_results = results;
    }

    fn push_aggregate(&mut self, si: usize, tuple: &Tuple, out: &mut Vec<Tuple>) {
        debug_assert_eq!(si, 0, "aggregates run over a single stream");
        let retain_floor = self.retain_floor;
        let agg = self.agg.as_mut().expect("aggregate state");
        let row = agg.push(tuple, retain_floor);
        self.finish(row, tuple.timestamp, out);
    }
}

/// Each binding's partitioned column: the first equality predicate that
/// compares one of its columns with *another* binding's column decides.
fn partition_columns(n: usize, join_sources: &[(ColSource, ColSource)]) -> Vec<Option<usize>> {
    (0..n)
        .map(|si| {
            join_sources
                .iter()
                .find_map(|&(l, r)| match (l.0 == si, r.0 == si) {
                    (true, false) => Some(l.1),
                    (false, true) => Some(r.1),
                    _ => None,
                })
        })
        .collect()
}

/// When binding `arrival` arrives, where each other binding's candidates
/// come from. Enumeration binds the arrival first and then the others
/// in index order, so binding `i` can probe its partitions with the
/// column an equality predicate compares its partitioned column with,
/// provided that column's binding is the arrival or precedes `i`;
/// otherwise (no such predicate) it scans its whole buffer.
fn probe_plan(
    arrival: usize,
    key_cols: &[Option<usize>],
    join_sources: &[(ColSource, ColSource)],
) -> Vec<Option<ColSource>> {
    let bound_before = |j: usize, i: usize| j == arrival || j < i;
    (0..key_cols.len())
        .map(|i| {
            let key = (i, key_cols[i]?);
            if i == arrival {
                return None;
            }
            join_sources.iter().find_map(|&(l, r)| {
                if l == key && r.0 != i && bound_before(r.0, i) {
                    Some(r)
                } else if r == key && l.0 != i && bound_before(l.0, i) {
                    Some(l)
                } else {
                    None
                }
            })
        })
        .collect()
}

/// Shared immutable context for join enumeration.
struct JoinCtx<'a> {
    join_sources: &'a [(ColSource, ColSource)],
    attr_sources: &'a [ColSource],
    windows: &'a [TimeDelta],
    /// The arrival binding's row of [`Executor::probes`].
    probes: &'a [Option<ColSource>],
    arrival_idx: usize,
    /// `Some(τ)`: every emission is stamped τ (the in-order completing
    /// arrival); `None`: each combination's τ is its latest member's
    /// timestamp (the late-revision case).
    tau: Option<Timestamp>,
}

/// Depth-first enumeration of join combinations: the one body for
/// in-order arrivals and late revisions, partitioned bindings and
/// scanned ones. A binding's candidates are its partition for the probe
/// column's value when the probe column is bound, else its whole buffer;
/// a partition is a subsequence of the buffer holding every row that can
/// satisfy that predicate, so it can neither drop nor reorder a
/// combination. The leaf still checks every window and every predicate:
/// each member must satisfy Lemma 1, `tᵢ.ts ≥ τ − Tᵢ` — redundant with
/// buffer eviction in strict in-order mode, load-bearing when buffers
/// retain revision history.
fn enumerate<'a>(
    buffers: &'a [JoinBuffer],
    si: usize,
    combo: &mut [Option<&'a Tuple>],
    ctx: &JoinCtx<'_>,
    results: &mut Vec<(Timestamp, Arc<[Value]>)>,
) {
    let bound = |combo: &[Option<&'a Tuple>], i: usize| combo[i].expect("combo complete");
    if si == buffers.len() {
        let get = |src: ColSource| -> &Value {
            bound(combo, src.0).get(src.1).expect("attr index valid")
        };
        let tau = ctx.tau.unwrap_or_else(|| {
            (0..combo.len())
                .map(|i| bound(combo, i).timestamp)
                .max()
                .expect("non-empty combo")
        });
        for (i, w) in ctx.windows.iter().enumerate() {
            if !w.is_infinite() && bound(combo, i).timestamp < tau - *w {
                return;
            }
        }
        for (l, r) in ctx.join_sources {
            if !get(*l).eq_coerce(get(*r)) {
                return;
            }
        }
        let values = ctx
            .attr_sources
            .iter()
            .map(|&(s, a)| bound(combo, s).get(a).cloned().unwrap_or(Value::Null))
            .collect();
        results.push((tau, values));
        return;
    }
    if si == ctx.arrival_idx {
        enumerate(buffers, si + 1, combo, ctx, results);
        return;
    }
    let buffer = &buffers[si];
    let candidates = match ctx.probes[si] {
        None => &buffer.rows,
        Some((s, a)) => match bound(combo, s)
            .get(a)
            .and_then(|k| buffer.partitions.get(k))
        {
            Some(partition) => partition,
            None => return,
        },
    };
    for t in candidates {
        combo[si] = Some(t);
        enumerate(buffers, si + 1, combo, ctx, results);
    }
    combo[si] = None;
}

/// One buffered aggregate contribution.
#[derive(Debug, Clone)]
struct AggEntry {
    ts: Timestamp,
    /// The group's key, shared with the group table.
    key: Arc<[Value]>,
    /// The aggregate-argument values, parallel to the aggregate columns
    /// (`Null` for `COUNT(*)`).
    args: Box<[Value]>,
}

/// One aggregate output column, resolved against the stream's schema.
#[derive(Debug, Clone, Copy)]
struct AggColumn {
    func: AggFunc,
    /// Column of the argument (`None` = `COUNT(*)`).
    arg: Option<usize>,
    /// SUM over an Int attribute stays Int.
    sum_is_int: bool,
}

/// Where one output-row value comes from.
#[derive(Debug, Clone, Copy)]
enum RowSource {
    /// The group key's value at this position.
    Key(usize),
    /// The aggregate column at this position.
    Agg(usize),
}

/// The aggregate's resolved plan: a function of the query alone.
#[derive(Debug, Clone)]
struct AggPlan {
    window: TimeDelta,
    /// Positional sources of the group-by attributes.
    group_sources: Vec<usize>,
    columns: Vec<AggColumn>,
    /// The output row, in SELECT order.
    row: Vec<RowSource>,
}

/// A live group: its key (the one copy, which window entries share) and
/// one accumulator per aggregate column.
#[derive(Debug, Clone)]
struct Group {
    key: Arc<[Value]>,
    accs: Vec<Accumulator>,
}

/// Grouped sliding-window aggregate state.
#[derive(Debug, Clone)]
struct AggregateState {
    plan: AggPlan,
    /// Buffered contributions inside the live window, sorted by time.
    window: VecDeque<AggEntry>,
    /// Contributions evicted from the live window (and from the
    /// accumulators) but retained for late-tuple revision, sorted by
    /// time and strictly older than everything in `window`. Only
    /// populated under a `Revise` late policy.
    history: VecDeque<AggEntry>,
    /// Low edge of the live window: the greatest `τ − T` applied. The
    /// accumulators reflect exactly the entries in `window`, i.e. those
    /// with `ts ≥ horizon`.
    horizon: Timestamp,
    /// Live groups by key.
    groups: FxHashMap<Arc<[Value]>, Group>,
    /// The arrival's group key, gathered here to probe `groups` without
    /// allocating; empty between calls.
    key: Vec<Value>,
}

/// One incremental accumulator supporting insert and remove.
///
/// The running SUM/AVG uses Kahan–Neumaier compensated summation
/// ([`NeumaierSum`]): window evictions subtract, so a plain f64
/// accumulator drifts from a from-scratch recomputation by growing
/// rounding residue (the testkit sweep caught this as seeds whose AVG
/// disagreed in the last ulps). Carrying the compensation term keeps
/// every readout within an ulp or two of the exact sum of the window's
/// current contents.
#[derive(Debug, Clone, Default)]
struct Accumulator {
    count: i64,
    sum: NeumaierSum,
    /// Multiset of values, kept for MIN/MAX columns only.
    values: BTreeMap<Value, usize>,
}

impl Accumulator {
    /// The compensated running sum.
    fn total(&self) -> f64 {
        self.sum.total()
    }

    fn insert(&mut self, col: &AggColumn, v: &Value) {
        self.count += 1;
        if col.arg.is_none() {
            return;
        }
        match col.func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => {
                if let Some(x) = v.as_f64() {
                    self.sum.add(x);
                }
            }
            AggFunc::Min | AggFunc::Max => *self.values.entry(v.clone()).or_insert(0) += 1,
        }
    }

    fn remove(&mut self, col: &AggColumn, v: &Value) {
        self.count -= 1;
        if col.arg.is_none() {
            return;
        }
        match col.func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => {
                if let Some(x) = v.as_f64() {
                    self.sum.add(-x);
                }
            }
            AggFunc::Min | AggFunc::Max => {
                if let Some(c) = self.values.get_mut(v) {
                    *c -= 1;
                    if *c == 0 {
                        self.values.remove(v);
                    }
                }
            }
        }
    }

    fn value(&self, col: &AggColumn) -> Value {
        match col.func {
            AggFunc::Count => Value::Int(self.count),
            AggFunc::Sum => {
                if col.sum_is_int {
                    Value::Int(self.total().round() as i64)
                } else {
                    Value::Float(self.total())
                }
            }
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.total() / self.count as f64)
                }
            }
            AggFunc::Min => self.values.keys().next().cloned().unwrap_or(Value::Null),
            AggFunc::Max => self
                .values
                .keys()
                .next_back()
                .cloned()
                .unwrap_or(Value::Null),
        }
    }
}

impl AggPlan {
    fn new(query: &AnalyzedQuery) -> Result<AggPlan> {
        let schema = &query.streams[0].schema;
        let mut group_sources = Vec::with_capacity(query.group_by.len());
        for g in &query.group_by {
            group_sources.push(
                schema.index_of(&g.name).ok_or_else(|| {
                    CosmosError::Engine(format!("unknown grouping attribute {g}"))
                })?,
            );
        }
        let mut columns = Vec::new();
        let mut row = Vec::with_capacity(query.output.len());
        for col in &query.output {
            match col {
                OutputColumn::Attr(a) => {
                    let gi = query.group_by.iter().position(|g| g == a).ok_or_else(|| {
                        CosmosError::Engine(format!("output attribute {a} is not grouped"))
                    })?;
                    row.push(RowSource::Key(gi));
                }
                OutputColumn::Agg { func, arg } => {
                    let arg = match arg {
                        Some(a) => Some(schema.index_of(&a.name).ok_or_else(|| {
                            CosmosError::Engine(format!("unknown aggregate argument {a}"))
                        })?),
                        None => None,
                    };
                    let sum_is_int = arg.is_some_and(|ai| schema.fields()[ai].ty == AttrType::Int);
                    row.push(RowSource::Agg(columns.len()));
                    columns.push(AggColumn {
                        func: *func,
                        arg,
                        sum_is_int,
                    });
                }
            }
        }
        Ok(AggPlan {
            window: query.streams[0].window,
            group_sources,
            columns,
            row,
        })
    }

    /// The tuple's aggregate-argument values.
    fn args(&self, tuple: &Tuple) -> Box<[Value]> {
        self.columns
            .iter()
            .map(|c| {
                c.arg
                    .and_then(|i| tuple.get(i))
                    .cloned()
                    .unwrap_or(Value::Null)
            })
            .collect()
    }

    fn accumulators(&self) -> Vec<Accumulator> {
        vec![Accumulator::default(); self.columns.len()]
    }

    /// Fold one entry's arguments into a set of accumulators.
    fn accumulate(&self, accs: &mut [Accumulator], args: &[Value]) {
        for ((acc, col), v) in accs.iter_mut().zip(&self.columns).zip(args) {
            acc.insert(col, v);
        }
    }

    /// Take one entry's arguments back out of a set of accumulators.
    fn retract(&self, accs: &mut [Accumulator], args: &[Value]) {
        for ((acc, col), v) in accs.iter_mut().zip(&self.columns).zip(args) {
            acc.remove(col, v);
        }
    }

    /// The output row for `key` from `accs`, in SELECT order.
    fn row(&self, key: &[Value], accs: &[Accumulator]) -> Arc<[Value]> {
        self.row
            .iter()
            .map(|&src| match src {
                RowSource::Key(gi) => key[gi].clone(),
                RowSource::Agg(ai) => accs[ai].value(&self.columns[ai]),
            })
            .collect()
    }
}

impl AggregateState {
    fn new(query: &AnalyzedQuery) -> Result<AggregateState> {
        Ok(AggregateState {
            plan: AggPlan::new(query)?,
            window: VecDeque::new(),
            history: VecDeque::new(),
            horizon: Timestamp(i64::MIN),
            groups: FxHashMap::default(),
            key: Vec::new(),
        })
    }

    /// Fold `args` into the group of the arrival's key, gathered in
    /// `self.key`, creating the group on first sight (an existing group
    /// costs one probe and no key copy); `then` reads the group and the
    /// arrival's key off it.
    fn fold<R>(&mut self, args: &[Value], then: impl FnOnce(&AggPlan, &[Value], &Group) -> R) -> R {
        let (plan, arrival) = (&self.plan, self.key.as_slice());
        match self.groups.get_mut(arrival) {
            Some(group) => {
                plan.accumulate(&mut group.accs, args);
                then(plan, arrival, group)
            }
            None => {
                let key: Arc<[Value]> = arrival.into();
                let mut group = Group {
                    key: key.clone(),
                    accs: plan.accumulators(),
                };
                plan.accumulate(&mut group.accs, args);
                let r = then(plan, arrival, &group);
                self.groups.insert(key, group);
                r
            }
        }
    }

    /// Gather the tuple's group key into `self.key`.
    fn gather_key(&mut self, tuple: &Tuple) {
        let values = self.plan.group_sources.iter();
        let key = values.map(|&i| tuple.get(i).cloned().unwrap_or(Value::Null));
        self.key.extend(key);
    }

    /// Advance the window to `tuple.timestamp`, fold the tuple in, and
    /// return the output row for its group. With `retain_floor` set
    /// (disorder mode, `Revise` policy), entries leaving the live
    /// window move to `history` — still outside the accumulators —
    /// until even a maximally-late tuple could not reach them.
    fn push(&mut self, tuple: &Tuple, retain_floor: Option<Timestamp>) -> Arc<[Value]> {
        let tau = tuple.timestamp;
        let w = self.plan.window;
        if !w.is_infinite() {
            let horizon = tau - w;
            self.horizon = self.horizon.max(horizon);
            while self.window.front().is_some_and(|e| e.ts < horizon) {
                let e = self.window.pop_front().expect("checked front");
                let group = self.groups.get_mut(&e.key).expect("group exists");
                self.plan.retract(&mut group.accs, &e.args);
                if group.accs[0].count == 0 {
                    self.groups.remove(&e.key);
                }
                if retain_floor.is_some() {
                    self.history.push_back(e);
                }
            }
            if let Some(floor) = retain_floor {
                let keep = floor - w;
                while self.history.front().is_some_and(|e| e.ts < keep) {
                    self.history.pop_front();
                }
            }
        }
        self.gather_key(tuple);
        let args = self.plan.args(tuple);
        let (key, row) = self.fold(&args, |plan, arrival, g| {
            (g.key.clone(), plan.row(arrival, &g.accs))
        });
        self.key.clear();
        self.window.push_back(AggEntry { ts: tau, key, args });
        row
    }

    /// Recompute the row for `key` as of time `at` from scratch, by
    /// scanning every retained contribution in `(at − w, at]`.
    fn recompute_row(&self, key: &[Value], at: Timestamp) -> Arc<[Value]> {
        let w = self.plan.window;
        let mut accs = self.plan.accumulators();
        for e in self.history.iter().chain(self.window.iter()) {
            if e.ts > at || *e.key != *key {
                continue;
            }
            if !w.is_infinite() && e.ts < at - w {
                continue;
            }
            self.plan.accumulate(&mut accs, &e.args);
        }
        self.plan.row(key, &accs)
    }

    /// Fold a late tuple in as if it had arrived in order and return
    /// the rows to emit: first the late tuple's own row as of its
    /// timestamp, then one revision row for every already-processed
    /// same-group contribution whose window contained it.
    fn revise(&mut self, tuple: &Tuple) -> Vec<(Timestamp, Arc<[Value]>)> {
        let ts = tuple.timestamp;
        let w = self.plan.window;
        self.gather_key(tuple);
        let args = self.plan.args(tuple);
        // Still inside the live window: future in-order rows must see
        // it, so it joins the accumulators too. Otherwise it only joins
        // the revision history.
        let (entries, key) = if ts >= self.horizon {
            let key = self.fold(&args, |_, _, g| g.key.clone());
            (&mut self.window, key)
        } else {
            (&mut self.history, self.key.as_slice().into())
        };
        let pos = entries
            .iter()
            .position(|e| e.ts > ts)
            .unwrap_or(entries.len());
        entries.insert(pos, AggEntry { ts, key, args });
        let key = self.key.as_slice();
        let mut rows = vec![(ts, self.recompute_row(key, ts))];
        // Revise same-group contributions at (ts, ts + w]: their rows
        // were emitted before this tuple was known.
        for e in self.history.iter().chain(self.window.iter()) {
            if e.ts <= ts || *e.key != *key {
                continue;
            }
            if !w.is_infinite() && e.ts > ts + w {
                continue;
            }
            rows.push((e.ts, self.recompute_row(key, e.ts)));
        }
        self.key.clear();
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::AnalyzedQuery;
    use cosmos_cql::parse_query;

    fn open_schema() -> Schema {
        Schema::of(&[
            ("itemID", AttrType::Int),
            ("start_price", AttrType::Float),
            ("timestamp", AttrType::Int),
        ])
    }

    fn closed_schema() -> Schema {
        Schema::of(&[
            ("itemID", AttrType::Int),
            ("buyerID", AttrType::Int),
            ("timestamp", AttrType::Int),
        ])
    }

    fn catalog(name: &str) -> Option<Schema> {
        match name {
            "Open" => Some(open_schema()),
            "Closed" => Some(closed_schema()),
            "S" => Some(Schema::of(&[("k", AttrType::Int), ("v", AttrType::Float)])),
            _ => None,
        }
    }

    fn executor(text: &str) -> Executor {
        let q = AnalyzedQuery::analyze(&parse_query(text).unwrap(), catalog).unwrap();
        Executor::new(q, "result").unwrap()
    }

    fn open_tuple(ts: i64, item: i64, price: f64) -> Tuple {
        Tuple::new(
            "Open",
            Timestamp(ts),
            vec![Value::Int(item), Value::Float(price), Value::Int(ts)],
        )
    }

    fn closed_tuple(ts: i64, item: i64, buyer: i64) -> Tuple {
        Tuple::new(
            "Closed",
            Timestamp(ts),
            vec![Value::Int(item), Value::Int(buyer), Value::Int(ts)],
        )
    }

    #[test]
    fn single_stream_select_project() {
        let mut ex = executor("SELECT k FROM S [Now] WHERE v > 1.0");
        let pass = Tuple::new("S", Timestamp(1), vec![Value::Int(7), Value::Float(2.0)]);
        let fail = Tuple::new("S", Timestamp(2), vec![Value::Int(8), Value::Float(0.5)]);
        let out = ex.push(&pass);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].values(), &[Value::Int(7)]);
        assert_eq!(out[0].stream.as_str(), "result");
        assert_eq!(out[0].timestamp, Timestamp(1));
        assert!(ex.push(&fail).is_empty());
        assert_eq!(ex.consumed(), 2);
        assert_eq!(ex.emitted(), 1);
        assert_eq!(ex.result_schema().names().collect::<Vec<_>>(), vec!["k"]);
        assert_eq!(ex.result_stream().as_str(), "result");
    }

    #[test]
    fn window_join_follows_lemma1() {
        // Open [Range 3 Hour], Closed [Now]: a closing auction joins
        // openings within the last 3 hours (and nothing newer).
        let mut ex = executor(
            "SELECT O.itemID, C.buyerID FROM Open [Range 3 Hour] O, Closed [Now] C \
             WHERE O.itemID = C.itemID",
        );
        let h = 3_600_000i64;
        assert!(ex.push(&open_tuple(0, 1, 10.0)).is_empty());
        assert!(ex.push(&open_tuple(h, 2, 20.0)).is_empty());
        // close item 1 at 2h: the opening at t=0 is within 3h → join
        let out = ex.push(&closed_tuple(2 * h, 1, 99));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].values(), &[Value::Int(1), Value::Int(99)]);
        assert_eq!(out[0].timestamp, Timestamp(2 * h));
        // close item 1 again at 4h: the opening at t=0 has expired (> 3h)
        assert!(ex.push(&closed_tuple(4 * h, 1, 100)).is_empty());
        // close item 2 at 4h: opening at t=1h is exactly 3h old → joins
        let out = ex.push(&closed_tuple(4 * h, 2, 101)).len();
        assert_eq!(out, 1);
    }

    #[test]
    fn now_window_requires_equal_timestamps() {
        // Closed [Now]: an opening arriving after a closing with a
        // smaller timestamp must not join it.
        let mut ex = executor(
            "SELECT O.itemID FROM Open [Range 1 Hour] O, Closed [Now] C \
             WHERE O.itemID = C.itemID",
        );
        assert!(ex.push(&closed_tuple(1000, 5, 1)).is_empty());
        // opening at the same timestamp joins the buffered closing
        assert_eq!(ex.push(&open_tuple(1000, 5, 1.0)).len(), 1);
        // opening later does not (closing's Now window has passed)
        assert!(ex.push(&open_tuple(2000, 5, 1.0)).is_empty());
    }

    #[test]
    fn join_predicates_filter_combinations() {
        let mut ex = executor(
            "SELECT O.itemID FROM Open [Range 1 Hour] O, Closed [Range 1 Hour] C \
             WHERE O.itemID = C.itemID",
        );
        ex.push(&open_tuple(0, 1, 1.0));
        ex.push(&open_tuple(0, 2, 1.0));
        let out = ex.push(&closed_tuple(10, 2, 50));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].values(), &[Value::Int(2)]);
    }

    #[test]
    fn selections_prune_before_buffering() {
        let mut ex = executor(
            "SELECT O.itemID FROM Open [Range 1 Hour] O, Closed [Range 1 Hour] C \
             WHERE O.itemID = C.itemID AND O.start_price > 15.0",
        );
        ex.push(&open_tuple(0, 1, 10.0)); // filtered out
        ex.push(&open_tuple(0, 2, 20.0)); // kept
        let out = ex.push(&closed_tuple(10, 1, 50));
        assert!(out.is_empty());
        let out = ex.push(&closed_tuple(10, 2, 51));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn unbounded_windows_never_evict() {
        let mut ex = executor(
            "SELECT O.itemID FROM Open [Unbounded] O, Closed [Now] C \
             WHERE O.itemID = C.itemID",
        );
        ex.push(&open_tuple(0, 1, 1.0));
        let far = 1_000_000_000i64;
        assert_eq!(ex.push(&closed_tuple(far, 1, 9)).len(), 1);
    }

    #[test]
    fn distinct_deduplicates_result_values() {
        let mut ex = executor("SELECT DISTINCT k FROM S [Now]");
        let t1 = Tuple::new("S", Timestamp(1), vec![Value::Int(7), Value::Float(0.0)]);
        let t2 = Tuple::new("S", Timestamp(2), vec![Value::Int(7), Value::Float(1.0)]);
        let t3 = Tuple::new("S", Timestamp(3), vec![Value::Int(8), Value::Float(1.0)]);
        assert_eq!(ex.push(&t1).len(), 1);
        assert_eq!(ex.push(&t2).len(), 0);
        assert_eq!(ex.push(&t3).len(), 1);
    }

    #[test]
    fn irrelevant_streams_are_ignored() {
        let mut ex = executor("SELECT k FROM S [Now]");
        let other = Tuple::new("Unrelated", Timestamp(1), vec![Value::Int(1)]);
        assert!(ex.push(&other).is_empty());
        assert_eq!(ex.consumed(), 0);
    }

    #[test]
    fn self_join_binds_both_sides() {
        let mut ex = executor(
            "SELECT A.itemID FROM Open [Range 1 Hour] A, Open [Range 1 Hour] B \
             WHERE A.itemID = B.itemID",
        );
        // first arrival: both windows contain the tuple at its own
        // timestamp, so it joins itself once (CQL self-join semantics)
        let out = ex.push(&open_tuple(0, 1, 1.0));
        assert_eq!(out.len(), 1);
        // second arrival t2: pairs (t2, t1), (t1, t2) and (t2, t2)
        let out = ex.push(&open_tuple(10, 1, 2.0));
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn grouped_sliding_aggregates() {
        let mut ex = executor(
            "SELECT k, COUNT(*), AVG(v), MIN(v), MAX(v), SUM(v) \
             FROM S [Range 10 Second] GROUP BY k",
        );
        let t = |ts: i64, k: i64, v: f64| {
            Tuple::new("S", Timestamp(ts), vec![Value::Int(k), Value::Float(v)])
        };
        let r1 = ex.push(&t(0, 1, 10.0));
        assert_eq!(
            r1[0].values(),
            &[
                Value::Int(1),
                Value::Int(1),
                Value::Float(10.0),
                Value::Float(10.0),
                Value::Float(10.0),
                Value::Float(10.0)
            ]
        );
        let r2 = ex.push(&t(5_000, 1, 20.0));
        assert_eq!(
            r2[0].values(),
            &[
                Value::Int(1),
                Value::Int(2),
                Value::Float(15.0),
                Value::Float(10.0),
                Value::Float(20.0),
                Value::Float(30.0)
            ]
        );
        // other group independent
        let r3 = ex.push(&t(6_000, 2, 100.0));
        assert_eq!(r3[0].values()[1], Value::Int(1));
        // at t=12s the t=0 tuple has left the 10s window
        let r4 = ex.push(&t(12_000, 1, 30.0));
        assert_eq!(
            r4[0].values(),
            &[
                Value::Int(1),
                Value::Int(2),
                Value::Float(25.0),
                Value::Float(20.0),
                Value::Float(30.0),
                Value::Float(50.0)
            ]
        );
    }

    #[test]
    fn count_star_without_group_by() {
        let mut ex = executor("SELECT COUNT(*) FROM S [Range 5 Second]");
        let t = |ts: i64| Tuple::new("S", Timestamp(ts), vec![Value::Int(1), Value::Float(0.0)]);
        assert_eq!(ex.push(&t(0))[0].values(), &[Value::Int(1)]);
        assert_eq!(ex.push(&t(1_000))[0].values(), &[Value::Int(2)]);
        assert_eq!(ex.push(&t(4_000))[0].values(), &[Value::Int(3)]);
        // at t=7s the 5s window keeps only t=4s and t=7s
        assert_eq!(ex.push(&t(7_000))[0].values(), &[Value::Int(2)]);
    }

    #[test]
    fn push_projected_realigns_narrow_tuples() {
        // The CBN delivers only {k, v} (early projection); the executor
        // must realign them to the full stream schema.
        let mut ex = executor("SELECT k FROM S [Now] WHERE v > 1.0");
        let narrow_schema = Schema::of(&[("v", AttrType::Float), ("k", AttrType::Int)]);
        // note: reversed column order relative to the registered schema
        let t = Tuple::new("S", Timestamp(1), vec![Value::Float(2.0), Value::Int(7)]);
        let out = ex.push_projected_batch(&[t], &narrow_schema);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].values(), &[Value::Int(7)]);
        // a tuple missing the filtered attribute cannot satisfy it
        let missing = Schema::of(&[("k", AttrType::Int)]);
        let t2 = Tuple::new("S", Timestamp(2), vec![Value::Int(8)]);
        assert!(ex.push_projected_batch(&[t2], &missing).is_empty());
        // full-schema tuples take the fast path
        let full = Tuple::new("S", Timestamp(3), vec![Value::Int(9), Value::Float(5.0)]);
        let full_schema = Schema::of(&[("k", AttrType::Int), ("v", AttrType::Float)]);
        assert_eq!(ex.push_projected_batch(&[full], &full_schema).len(), 1);
        // tuples from unknown streams are ignored
        let other = Tuple::new("Other", Timestamp(4), vec![Value::Int(1)]);
        assert!(ex.push_projected_batch(&[other], &missing).is_empty());
    }

    #[test]
    fn integer_sums_stay_integers() {
        let cat =
            |n: &str| (n == "T").then(|| Schema::of(&[("g", AttrType::Int), ("x", AttrType::Int)]));
        let q = AnalyzedQuery::analyze(
            &parse_query("SELECT g, SUM(x) FROM T [Unbounded] GROUP BY g").unwrap(),
            cat,
        )
        .unwrap();
        let mut ex = Executor::new(q, "r").unwrap();
        let t = |ts: i64, g: i64, x: i64| {
            Tuple::new("T", Timestamp(ts), vec![Value::Int(g), Value::Int(x)])
        };
        ex.push(&t(0, 1, 5));
        let out = ex.push(&t(1, 1, 7));
        assert_eq!(out[0].values(), &[Value::Int(1), Value::Int(12)]);
        assert!(matches!(out[0].values()[1], Value::Int(_)));
    }
}
