#![forbid(unsafe_code)]
//! A stream-aware content-based network (CBN).
//!
//! Section 3 of the COSMOS paper enhances a classical content-based
//! network (Carzaniga & Wolf's Siena model) with the notion of *streaming
//! relations*:
//!
//! * every datagram is a tuple of a named stream ([`cosmos_types::Tuple`]);
//! * receivers subscribe with **profiles** `π = ⟨S, P, F⟩` — a set of
//!   stream names `S`, per-stream projection attribute sets `P`
//!   (*early projection*, an extension over traditional CBN), and a set
//!   of per-stream conjunctive filters `F`;
//! * a datagram is *covered* by a profile iff it is covered by any filter
//!   of its stream, and is then projected onto the profile's attribute
//!   set before being forwarded.
//!
//! This crate provides:
//!
//! * [`predicate`] — the constraint algebra shared with the query layer:
//!   intervals, per-attribute constraints, attribute-difference
//!   constraints (needed for the paper's window re-tightening filters
//!   such as `−3h ≤ O.timestamp − C.timestamp ≤ 0`), and conjunctions
//!   with *satisfaction*, *implication*, *intersection* and *hull*.
//! * [`profile`] — profiles, covering, and profile union (used to merge
//!   the interests of an entire subtree into one routing-table entry).
//! * [`matcher`] — two matching engines: a naive scan and a
//!   counting-based engine with an equality fast path, each counting
//!   the constraints it evaluates (ablation A1 of the experiment
//!   report compares the counts).
//! * [`registry`] — the stream schema registry: each stream's schema
//!   and advertising origin.
//! * [`router`] — the per-node routing state: neighbor interests, local
//!   subscribers, reverse-path subscription propagation helpers and
//!   datagram forwarding with early projection.

pub mod matcher;
pub mod predicate;
pub mod profile;
pub mod registry;
pub mod router;
pub mod sat;

pub use matcher::{CountingMatcher, MatchEngine, MatchScratch, NaiveMatcher};
pub use predicate::{AttrConstraint, Conjunction, DiffRange, Interval};
pub use profile::{Profile, ProfileEntry, Projection};
pub use registry::{RegisteredStream, SchemaRegistry};
pub use router::{BatchForward, Destination, Router, RouterCounters};
pub use sat::{conjunction_implies, conjunction_range, conjunction_unsat, filters_imply};
