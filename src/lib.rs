#![forbid(unsafe_code)]
//! # cosmos-stream
//!
//! A from-scratch Rust reproduction of **"Rethinking the Design of
//! Distributed Stream Processing Systems"** (Zhou, Aberer, Salehi, Tan —
//! ICDE 2008): the COSMOS architecture, which backs a wide-area stream
//! processing service with a stream-aware **content-based network** and
//! rewrites overlapping user queries into shared **representative
//! queries** whose result streams are split back per user by ordinary
//! CBN filters.
//!
//! This crate is the facade: it re-exports every subsystem crate under
//! one roof and hosts the runnable examples and cross-crate integration
//! tests. Start with [`system::Cosmos`](cosmos::Cosmos) for the whole
//! deployment, or use the layers directly:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `cosmos-types` | values, tuples, schemas, time |
//! | [`cql`] | `cosmos-cql` | the CQL-subset parser |
//! | [`cbn`] | `cosmos-cbn` | profiles, matching, routing, schema registry |
//! | [`overlay`] | `cosmos-overlay` | topologies, MST dissemination trees, optimizer |
//! | [`spe`] | `cosmos-spe` | the stream processing engine |
//! | [`query`] | `cosmos-query` | containment, merging, grouping, estimation |
//! | [`workload`] | `cosmos-workload` | sensor/auction/random-query generators |
//! | [`system`] | `cosmos` | brokers, processors, the discrete-event driver |
//!
//! ## Quickstart
//!
//! ```
//! use cosmos::{Cosmos, CosmosConfig};
//! use cosmos_query::{AttrStats, StreamStats};
//! use cosmos_types::{AttrType, NodeId, Schema, Timestamp, Tuple, Value};
//!
//! let mut sys = Cosmos::new(CosmosConfig { nodes: 8, seed: 1, ..Default::default() }).unwrap();
//! sys.register_stream(
//!     "Temps",
//!     Schema::of(&[("celsius", AttrType::Float), ("timestamp", AttrType::Int)]),
//!     StreamStats::with_rate(1.0).attr("celsius", AttrStats::numeric(-20.0, 45.0, 650.0)),
//!     NodeId(2),
//! ).unwrap();
//! let q = sys.submit_query("SELECT celsius FROM Temps [Now] WHERE celsius > 30.0", NodeId(5)).unwrap();
//! sys.publish(&Tuple::new("Temps", Timestamp(0), vec![Value::Float(35.5), Value::Int(0)])).unwrap();
//! assert_eq!(sys.results(q).len(), 1);
//! ```

pub use cosmos as system;
pub use cosmos_cbn as cbn;
pub use cosmos_cql as cql;
pub use cosmos_overlay as overlay;
pub use cosmos_query as query;
pub use cosmos_spe as spe;
pub use cosmos_types as types;
pub use cosmos_workload as workload;
