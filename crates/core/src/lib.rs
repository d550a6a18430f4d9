#![forbid(unsafe_code)]
//! The COSMOS system layer (Figures 1 and 2 of the paper).
//!
//! This crate ties the substrates together into the architecture the
//! paper describes: a set of autonomous servers — plain **brokers** that
//! only run the data layer, and **processors** that additionally host a
//! stream processing engine — interconnected by an overlay network whose
//! dissemination tree carries a stream-aware content-based network.
//!
//! [`Cosmos`] is the whole deployment, driven as a deterministic
//! discrete-event simulation. It holds the paper's two layers as two
//! types (`system/data.rs` and `system/query.rs`): a data plane — the
//! overlay, the routers, the dissemination loops, delivery, traffic
//! accounting, metrics and the overload gate — and a query plane —
//! queries, group managers, representative executors and the catalog
//! — which meet only at profiles and at one crossing, an SPE input,
//! where the data plane hands a batch or a watermark to an executor and
//! takes the emitted batch back. A deployment runs like this:
//!
//! * sources *advertise* and publish their streams at origin nodes;
//! * user queries enter at any node, are routed to a processor by the
//!   **query distribution** (load management) service, pass through the
//!   processor's **query management** module (grouping/merging of
//!   Section 4), and install data-interest profiles into the CBN — one
//!   for the processor to *retrieve the source data* and one per user to
//!   *retrieve the results* from the representative's result stream;
//! * every datagram is physically routed hop-by-hop along the
//!   dissemination tree with reverse-path forwarding and early
//!   projection, and every link crossing is accounted in bytes and in
//!   delay-weighted cost.
//!
//! [`experiment`] runs the paper's evaluation (Figure 4's query-merging
//! benefit/grouping ratios, Figure 3, Table 1 and the count-valued
//! ablations) as one deterministic report, and [`fault`] holds the
//! data-layer fault-tolerance extension (tree repair + subscription
//! re-propagation).

pub mod autotune;
pub mod experiment;
pub mod fault;
pub mod overload;
pub mod snapshot;
pub mod system;

pub use autotune::{AutotuneOptions, AutotunePass};
pub use cosmos_metrics::{MetricsSnapshot, RouterTotals, METRICS_VERSION};
pub use cosmos_spe::{DisorderStats, LatePolicy};
pub use overload::{OverloadController, QueryLedger};
pub use snapshot::NetworkSnapshot;
pub use system::{Cosmos, CosmosConfig, DisorderRuntime, NodeRole, RepStateView};
