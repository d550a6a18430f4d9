#![forbid(unsafe_code)]
//! The COSMOS query layer (Section 4 of the paper).
//!
//! This crate implements the paper's primary algorithmic contribution:
//! rewriting groups of continuous queries with overlapping results into a
//! single **representative query** whose result stream is shipped once
//! through the content-based network and *split back* into the original
//! per-user result streams by ordinary CBN filters.
//!
//! * [`containment`] — continuous-query containment: Definition 1 made
//!   checkable through Theorem 1 (select-project-join queries: `∞`-window
//!   containment plus component-wise window containment `T¹ᵢ ≤ T²ᵢ`) and
//!   Theorem 2 (aggregate queries: additionally *equal* windows).
//! * [`mod@merge`] — representative-query synthesis ("merging the query
//!   predicates"): selection-predicate hulls, per-stream window maxima,
//!   output-attribute union (plus the timestamp attributes needed for
//!   splitting), and the **re-tightened profile** construction — filters
//!   of the exact shape the paper shows for `p1`/`p2`, e.g.
//!   `−3h ≤ O.timestamp − C.timestamp ≤ 0` (Lemma 1).
//! * [`estimate`] — the benefit estimator: `C(q)`, the expected output
//!   rate of a query in bytes per second, derived from per-stream rate
//!   and attribute statistics.
//! * [`grouping`] — the incremental greedy grouping algorithm: "each new
//!   query is assigned to the query group that can achieve the maximum
//!   benefit", where a group's benefit is `Σᵢ C(qᵢ) − C(q)`.
//!
//! The load-bearing invariant, property-tested against the SPE's
//! brute-force oracle: **filtering a representative query's result
//! stream through a member's re-tightened profile reproduces exactly the
//! result stream of running that member directly.**

pub mod containment;
pub mod estimate;
pub mod grouping;
pub mod merge;

pub use containment::{contained, correspondence};
pub use estimate::{AttrStats, StatsCatalog, StreamStats};
pub use grouping::{GroupChange, GroupManager, QueryGroup};
pub use merge::{merge, retighten_profile, to_query};
