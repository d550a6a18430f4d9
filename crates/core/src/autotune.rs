//! Self-tuning options and reports.
//!
//! COSMOS plans with registration-time estimates; the metrics layer
//! measures what actually happens. [`Cosmos::autotune`] compares the
//! two and, past a drift threshold, feeds the measurements back into
//! the existing optimizers. This module holds the knobs of one pass and
//! its structured outcome. Nothing runs a pass unasked: the caller
//! decides when to re-plan.
//!
//! [`Cosmos::autotune`]: crate::Cosmos::autotune

use cosmos_overlay::{OptimizeReport, OptimizerConfig};

/// Knobs for one [`Cosmos::autotune`] pass.
///
/// [`Cosmos::autotune`]: crate::Cosmos::autotune
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutotuneOptions {
    /// Relative drift between measured and estimated statistics above
    /// which the pass adopts measurements and re-optimizes. `0.25`
    /// means "act when reality is 25% away from the plan".
    pub drift_threshold: f64,
    /// Tree-optimizer configuration used when the pass re-organizes the
    /// dissemination tree with measured demand.
    pub optimizer: OptimizerConfig,
}

impl Default for AutotuneOptions {
    fn default() -> Self {
        AutotuneOptions {
            drift_threshold: 0.25,
            optimizer: OptimizerConfig::default(),
        }
    }
}

/// The measurements and actions of one [`Cosmos::autotune`] pass (it may
/// have been read-only, when drift stayed under the threshold).
///
/// [`Cosmos::autotune`]: crate::Cosmos::autotune
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutotunePass {
    /// Worst relative drift between a stream's measured and registered
    /// arrival rate.
    pub stream_drift: f64,
    /// Worst relative drift between a group representative's cost under
    /// measured vs registered statistics.
    pub group_drift: f64,
    /// `max(stream_drift, group_drift)` — what was compared against the
    /// threshold.
    pub drift: f64,
    /// The threshold the pass ran with.
    pub threshold: f64,
    /// Whether the drift exceeded the threshold and feedback ran.
    pub triggered: bool,
    /// Streams whose catalog statistics were replaced by measurements.
    pub adopted_streams: usize,
    /// Processors whose query grouping improved under measured stats.
    pub groups_improved: usize,
    /// Outcome of the measured-demand tree re-organization (`None` when
    /// the pass did not trigger).
    pub tree: Option<OptimizeReport>,
}
