//! Replayable scenario files.
//!
//! A scenario captures everything a run needs — deployment parameters
//! and the full event schedule, with published tuples embedded — so a
//! failure written to disk replays bit-for-bit on any machine. Every
//! event is *skip-tolerant*: an event whose precondition no longer holds
//! (a dead query label, a non-tree link, an already-registered stream)
//! is counted and skipped rather than aborting the run. This makes
//! every subsequence of a scenario's events a valid scenario, which is
//! what the greedy shrinker relies on.

use cosmos_overlay::TopologyKind;
use cosmos_types::{CosmosError, Result, Tuple};
use cosmos_workload::DisorderSpec;
use serde::{Deserialize, Serialize};

/// Scenario file format version (rejected on mismatch at load time).
pub const SCENARIO_VERSION: u32 = 1;

/// Serializable mirror of [`TopologyKind`] (which lives in a crate that
/// does not depend on serde).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TopologySpec {
    /// Barabási–Albert preferential attachment with `m` links per node.
    BarabasiAlbert { m: usize },
    /// Waxman random graph (stitched connected).
    Waxman { alpha: f64, beta: f64 },
    /// A grid of the given width (node count must be a multiple).
    Grid { width: usize },
    /// A simple path.
    Line,
    /// A star centered at node 0.
    Star,
}

impl TopologySpec {
    /// The overlay generator this spec selects.
    pub fn kind(&self) -> TopologyKind {
        match *self {
            TopologySpec::BarabasiAlbert { m } => TopologyKind::BarabasiAlbert { m },
            TopologySpec::Waxman { alpha, beta } => TopologyKind::Waxman { alpha, beta },
            TopologySpec::Grid { width } => TopologyKind::Grid { width },
            TopologySpec::Line => TopologyKind::Line,
            TopologySpec::Star => TopologyKind::Star,
        }
    }
}

/// Deployment parameters of a scenario (everything
/// [`cosmos::CosmosConfig`] needs except `merging_enabled`, which the
/// metamorphic oracle varies per run).
///
/// `Serialize`/`Deserialize` are written by hand (the vendored derive
/// supports no field attributes): `disorder` is omitted from JSON when
/// `None` and defaults to `None` when absent, so in-order scenarios
/// keep the exact pre-disorder file format and old files still load.
/// Fields are read by name and other keys are ignored, so files that
/// still carry the retired `dht_replicas` key load too.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Overlay size.
    pub nodes: usize,
    /// Overlay shape.
    pub topology: TopologySpec,
    /// Seed driving topology generation inside `Cosmos::new`.
    pub cosmos_seed: u64,
    /// Fraction of nodes hosting an SPE.
    pub processor_fraction: f64,
    /// Query-distribution candidate set size.
    pub affinity_candidates: usize,
    /// Per-source dissemination trees instead of the shared MST.
    pub per_source_trees: bool,
    /// Disorder transform applied to the publish sequence (recorded so
    /// replays stay bit-for-bit); `None` runs the scenario in order.
    pub disorder: Option<DisorderSpec>,
}

impl serde::Serialize for ScenarioConfig {
    fn to_content(&self) -> serde::Content {
        let mut entries = vec![
            ("nodes", self.nodes.to_content()),
            ("topology", self.topology.to_content()),
            ("cosmos_seed", self.cosmos_seed.to_content()),
            ("processor_fraction", self.processor_fraction.to_content()),
            ("affinity_candidates", self.affinity_candidates.to_content()),
            ("per_source_trees", self.per_source_trees.to_content()),
        ];
        if let Some(d) = &self.disorder {
            entries.push(("disorder", d.to_content()));
        }
        serde::Content::Map(
            entries
                .into_iter()
                .map(|(k, v)| (serde::Content::Str(k.to_string()), v))
                .collect(),
        )
    }
}

impl serde::Deserialize for ScenarioConfig {
    fn from_content(c: &serde::Content) -> std::result::Result<Self, serde::DeError> {
        Ok(ScenarioConfig {
            nodes: Deserialize::from_content(serde::map_get(c, "nodes")?)?,
            topology: Deserialize::from_content(serde::map_get(c, "topology")?)?,
            cosmos_seed: Deserialize::from_content(serde::map_get(c, "cosmos_seed")?)?,
            processor_fraction: Deserialize::from_content(serde::map_get(
                c,
                "processor_fraction",
            )?)?,
            affinity_candidates: Deserialize::from_content(serde::map_get(
                c,
                "affinity_candidates",
            )?)?,
            per_source_trees: Deserialize::from_content(serde::map_get(c, "per_source_trees")?)?,
            disorder: match serde::map_get(c, "disorder") {
                Ok(v) => Some(Deserialize::from_content(v)?),
                Err(_) => None,
            },
        })
    }
}

/// One step of the interleaved schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// Advertise sensor stream `stream` (a `sensors_NN` name; schema and
    /// statistics come from the sensor catalog) at overlay node `origin`.
    Register { stream: String, origin: u32 },
    /// Submit a CQL query at node `user`. `label` names the query across
    /// runs; query ids are an implementation detail of one run.
    Submit { label: u32, user: u32, text: String },
    /// Publish a batch of source tuples (globally timestamp-ordered
    /// across all `Publish` events). Tuples on streams not yet
    /// registered are skipped — that is the advertise/subscribe
    /// decoupling edge case, not an error.
    Publish { tuples: Vec<Tuple> },
    /// Withdraw the query labelled `label` (skipped if absent or
    /// already withdrawn).
    Unsubscribe { label: u32 },
    /// Re-optimize query groupings at every processor.
    Reoptimize,
    /// Run the adaptive dissemination-tree reorganizer.
    OptimizeTree,
    /// Fail the `nth mod edge-count` link of the current shared tree
    /// (in per-source-tree mode every per-source tree using the link
    /// is repaired too).
    FailLink { nth: u32 },
}

/// A complete, self-contained, replayable scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// File format version ([`SCENARIO_VERSION`]).
    pub version: u32,
    /// The seed [`crate::gen::generate`] expanded into this scenario.
    pub seed: u64,
    /// Deployment parameters.
    pub config: ScenarioConfig,
    /// The event schedule.
    pub events: Vec<Event>,
}

impl Scenario {
    /// Serialize to the on-disk JSON format.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("scenario serializes")
    }

    /// Load from the on-disk JSON format.
    pub fn from_json(text: &str) -> Result<Scenario> {
        let s: Scenario = serde_json::from_str(text)
            .map_err(|e| CosmosError::System(format!("scenario parse error: {e}")))?;
        if s.version != SCENARIO_VERSION {
            return Err(CosmosError::System(format!(
                "scenario version {} unsupported (expected {SCENARIO_VERSION})",
                s.version
            )));
        }
        Ok(s)
    }

    /// One-line summary for CLI output.
    pub fn summary(&self) -> String {
        let mut registers = 0usize;
        let mut submits = 0usize;
        let mut tuples = 0usize;
        let mut unsubs = 0usize;
        let mut reopts = 0usize;
        let mut tree_opts = 0usize;
        let mut faults = 0usize;
        for e in &self.events {
            match e {
                Event::Register { .. } => registers += 1,
                Event::Submit { .. } => submits += 1,
                Event::Publish { tuples: t } => tuples += t.len(),
                Event::Unsubscribe { .. } => unsubs += 1,
                Event::Reoptimize => reopts += 1,
                Event::OptimizeTree => tree_opts += 1,
                Event::FailLink { .. } => faults += 1,
            }
        }
        format!(
            "{} nodes ({:?}), {} events: {registers} registers, {submits} submits, \
             {tuples} tuples, {unsubs} unsubs, {reopts} reopts, {tree_opts} tree-opts, \
             {faults} faults",
            self.config.nodes,
            self.config.topology,
            self.events.len()
        )
    }
}
