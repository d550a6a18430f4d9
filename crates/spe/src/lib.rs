#![forbid(unsafe_code)]
//! A continuous-query stream processing engine (SPE).
//!
//! COSMOS treats the SPE as a pluggable component: "Existing single site
//! SPEs such as TelegraphCQ, STREAM and Aurora can be employed"
//! (Section 2), with a *query wrapper* translating CQL into the engine's
//! language and a *data wrapper* translating datagrams. The paper's own
//! experiments plug in GSN. Since no off-the-shelf engine is available
//! here, this crate is that engine, built from scratch:
//!
//! * [`analyze`] — the query wrapper: resolves a parsed
//!   [`cosmos_cql::Query`] against stream schemas into an
//!   [`AnalyzedQuery`] (bound streams with window sizes, per-stream
//!   selection [`cosmos_cbn::Conjunction`]s, canonical equi-join
//!   predicate set, output columns, derived result schema) and composes
//!   the **source-retrieval profile** `⟨S, P, F⟩` of Section 4.
//! * [`executor`] — push-based continuous execution: single-stream
//!   select/project, symmetric *n*-way window joins implementing exactly
//!   the timestamp-difference semantics of the paper's Lemma 1, and
//!   sliding-window grouped aggregation (`COUNT`/`SUM`/`AVG`/`MIN`/`MAX`).
//! * [`oracle`] — a deliberately simple brute-force re-evaluator used by
//!   property tests (and by the query layer's containment tests) as
//!   ground truth.
//!
//! Tuples must be pushed in global timestamp order (the discrete
//! application time domain `T` of the paper); the engine asserts
//! monotonicity in debug builds.

pub mod analyze;
pub mod executor;
pub mod oracle;

pub use analyze::{AnalyzedQuery, BoundStream, JoinPred, OutputColumn, QAttr};
pub use executor::{DisorderStats, Executor, LatePolicy, StateSize};
