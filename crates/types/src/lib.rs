#![forbid(unsafe_code)]
//! Core data model shared by every COSMOS crate.
//!
//! COSMOS (ICDE 2008) models stream data as *datagrams*: tuples of
//! attribute/value pairs tagged with a stream name and an application
//! timestamp. This crate defines those primitives:
//!
//! * [`Value`] — a dynamically typed attribute value with a total order
//!   suitable for predicate evaluation and grouping.
//! * [`Schema`] / [`Field`] / [`AttrType`] — stream schemas.
//! * [`Tuple`] — a timestamped datagram belonging to a named stream.
//! * [`Timestamp`] / [`TimeDelta`] — the discrete application time domain
//!   `T` of the paper (Section 4, Definition 1).
//! * Identifier newtypes ([`NodeId`], [`QueryId`], [`SubscriberId`], …).
//! * [`CosmosError`] — the shared error type.
//!
//! Everything here is deliberately free of I/O and of any dependency on the
//! networking or query layers so that all higher crates can share it.

mod error;
mod ids;
mod num;
mod punctuation;
mod schema;
mod time;
mod tuple;
mod value;

pub use error::{CosmosError, Result};
pub use ids::{GroupId, LinkId, NodeId, ProfileId, QueryId, SubscriberId};
pub use num::NeumaierSum;
pub use punctuation::Punctuation;
pub use schema::{AttrType, Field, Schema, SchemaId};
pub use time::{TimeDelta, Timestamp};
pub use tuple::{StreamName, Tuple};
pub use value::Value;

// Every layer holds tuples (inputs, hops in flight, window state, staging,
// delivery buffers), so these widths are paid per value and per tuple
// everywhere (DESIGN §9 "Value and tuple layout"): a wider field fails
// the build here.
const _: () = {
    assert!(std::mem::size_of::<Value>() == 16);
    assert!(std::mem::size_of::<StreamName>() == 8);
    assert!(std::mem::size_of::<Tuple>() == 32);
};

/// Convenience alias for the fast hash map used on hot paths
/// (see the performance notes in DESIGN.md).
pub type FxHashMap<K, V> = rustc_hash::FxHashMap<K, V>;
/// Convenience alias for the fast hash set used on hot paths.
pub type FxHashSet<K> = rustc_hash::FxHashSet<K>;
