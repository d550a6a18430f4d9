//! Self-tuning options, scheduling policy, and reports.
//!
//! COSMOS plans with registration-time estimates; the metrics layer
//! measures what actually happens. [`Cosmos::autotune`] compares the
//! two and, past a drift threshold, feeds the measurements back into
//! the existing optimizers. This module holds the knobs, the policy
//! that decides *when* a pass runs ([`AutotunePolicy`], armed with
//! [`Cosmos::set_autotune`]), the structured outcome of one pass, and
//! the scheduler's readout ([`AutotuneStatus`]).
//!
//! **Hysteresis.** Measured demand drifts continuously, so two
//! near-equal tree plans can leapfrog each other across consecutive
//! passes — plan A beats B by ε in one rate window, B beats A by ε in
//! the next, and the deployment pays a full route rebuild for every
//! flip. The scheduler therefore adopts a tree re-organization only
//! when its fractional cost improvement *exceeds* the policy's
//! hysteresis band; anything at or below the band is rolled back. A
//! flip then requires the demand shift itself to be worth more than
//! the band, which ε-oscillation by construction is not — plan
//! adoption under a band is monotone in the driving demand.
//!
//! [`Cosmos::autotune`]: crate::Cosmos::autotune
//! [`Cosmos::set_autotune`]: crate::Cosmos::set_autotune

use cosmos_overlay::{OptimizeReport, OptimizerConfig};
use cosmos_types::TimeDelta;

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

/// When and how the deployment re-tunes itself without being asked
/// (armed with [`Cosmos::set_autotune`]).
///
/// A pass is scheduled when **either** trigger fires:
///
/// * **periodic** — at least `period_virtual` of virtual time elapsed
///   since the last scheduled pass (zero disables the periodic
///   trigger);
/// * **drift** — measured drift exceeded `options.drift_threshold` in
///   `trigger_after_k_windows` *consecutive* rate windows (zero
///   disables the drift trigger). Requiring K consecutive windows
///   keeps a single bursty window from thrashing the optimizers.
///
/// [`Cosmos::set_autotune`]: crate::Cosmos::set_autotune
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutotunePolicy {
    /// Periodic trigger: run a pass whenever this much virtual time has
    /// elapsed since the last one (zero = periodic trigger off).
    pub period_virtual: TimeDelta,
    /// Drift trigger: run a pass after measured drift exceeded the
    /// threshold in this many consecutive rate windows (zero = drift
    /// trigger off).
    pub trigger_after_k_windows: u32,
    /// Hysteresis band: a tree re-organization is adopted only when its
    /// fractional cost improvement ([`OptimizeReport::improvement`])
    /// strictly exceeds this value; otherwise the previous tree is
    /// restored. Zero adopts every strict improvement (no damping).
    pub hysteresis: f64,
    /// Per-pass knobs (drift threshold, optimizer configuration).
    pub options: AutotuneOptions,
}

impl Default for AutotunePolicy {
    fn default() -> Self {
        AutotunePolicy {
            period_virtual: TimeDelta::from_secs(60),
            trigger_after_k_windows: 2,
            hysteresis: 0.05,
            options: AutotuneOptions::default(),
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
    /// Whether the re-organized tree was rolled back because its
    /// improvement did not clear the hysteresis band (always `false`
    /// for direct [`Cosmos::autotune`] calls, which run without a
    /// band).
    ///
    /// [`Cosmos::autotune`]: crate::Cosmos::autotune
    pub tree_rolled_back: bool,
}

/// The armed scheduler's state, as one value
/// ([`Cosmos::autotune_status`]).
///
/// [`Cosmos::autotune_status`]: crate::Cosmos::autotune_status
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutotuneStatus {
    /// The armed policy.
    pub policy: AutotunePolicy,
    /// Scheduled passes run since the policy was armed.
    pub runs: u64,
    /// Scheduled passes whose tree re-organization was rolled back by
    /// the hysteresis band.
    pub rollbacks: u64,
    /// The most recent scheduled pass, if any ran.
    pub last: Option<AutotunePass>,
}
