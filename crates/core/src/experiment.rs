//! The Figure 4 experiment harness (Section 5 of the paper).
//!
//! Setup, exactly as the paper describes it: a power-law overlay of
//! `nodes` nodes (BRITE → Barabási–Albert here), a minimum spanning tree
//! as the dissemination tree, the 63 SensorScope-like streams placed on
//! random nodes, and randomly generated queries whose stream choice
//! follows a uniform or zipfian distribution. Queries are inserted
//! incrementally into the per-processor [`GroupManager`]s, and at each
//! checkpoint two metrics are reported:
//!
//! * **benefit ratio** — "the percentage of communication cost that is
//!   reduced by the query merging algorithms in comparing to that
//!   without merging": `1 − cost(merged) / cost(unmerged)`, where cost
//!   is the delay-weighted result-delivery rate over the dissemination
//!   tree. Without merging every query's result stream travels its own
//!   tree path at rate `C(q)`; with merging each group ships one shared
//!   stream over the union of its members' paths, a link carrying
//!   `min(C(rep), Σ C(members downstream of the link))` — shared on the
//!   trunk, split back near the users.
//! * **grouping ratio** — "the ratio of the number of query groups to
//!   the total number of queries".
//!
//! This harness computes costs analytically from the estimator's rates
//! instead of routing datagrams (the paper's CBN "is simulated" too);
//! the tuple-accurate path is exercised end-to-end by the Figure 3
//! experiment and the system tests.

use crate::system::{pick_processor, place_processors};
use cosmos_overlay::{generate, minimum_spanning_tree, Graph, TopologyKind, Tree};
use cosmos_query::{estimate::cost_bps, GroupManager, StatsCatalog};
use cosmos_spe::AnalyzedQuery;
use cosmos_types::{FxHashMap, NodeId, QueryId, Result};
use cosmos_workload::{sensor_catalog, Popularity, QueryGenConfig, QueryGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of one Figure 4 run.
#[derive(Debug, Clone)]
pub struct Fig4Config {
    /// Overlay size (the paper uses 1000).
    pub nodes: usize,
    /// Query-count checkpoints (the paper reports 2000..10000 step 2000).
    pub checkpoints: Vec<usize>,
    /// Stream-popularity distribution of the generated queries.
    pub popularity: Popularity,
    /// Repetitions to average over (the paper uses 20).
    pub reps: usize,
    /// Master seed.
    pub seed: u64,
    /// Fraction of nodes that are processors.
    pub processor_fraction: f64,
    /// Query-distribution affinity (candidate processors per stream set).
    pub affinity_candidates: usize,
    /// Workload shape knobs (join/aggregate fractions, predicates, …).
    pub workload: QueryGenConfig,
}

impl Default for Fig4Config {
    fn default() -> Self {
        Fig4Config {
            nodes: 1000,
            checkpoints: vec![2000, 4000, 6000, 8000, 10000],
            popularity: Popularity::Uniform,
            reps: 20,
            seed: 42,
            processor_fraction: 0.05,
            affinity_candidates: 1,
            workload: QueryGenConfig::default(),
        }
    }
}

/// One measured point of Figure 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig4Point {
    /// Number of queries inserted so far.
    pub queries: usize,
    /// `1 − merged/unmerged` topology-weighted delivery cost.
    pub benefit_ratio: f64,
    /// `1 − ΣC(rep)/ΣC(q)`: the topology-independent rate reduction
    /// (the benefit measure as the paper defines `C(q)` — pure result
    /// stream rates, before multicast path accounting).
    pub rate_benefit_ratio: f64,
    /// `#groups / #queries`.
    pub grouping_ratio: f64,
}

/// Delay (sum of link weights) of the tree path `a → b`.
fn path_delay(graph: &Graph, tree: &Tree, a: NodeId, b: NodeId) -> f64 {
    tree.path_links(a, b)
        .iter()
        .map(|&(u, v)| {
            graph
                .edge_weight(u, v)
                .unwrap_or_else(|| graph.distance(u, v).max(f64::EPSILON))
        })
        .sum()
}

/// State of one repetition of the experiment.
struct Rep {
    graph: Graph,
    tree: Tree,
    processors: Vec<NodeId>,
    catalog: StatsCatalog,
    managers: FxHashMap<NodeId, GroupManager>,
    /// Per query: `(user node, processor, C(q))`.
    queries: Vec<(NodeId, NodeId, f64)>,
    loads: FxHashMap<NodeId, usize>,
    affinity: usize,
}

impl Rep {
    fn new(cfg: &Fig4Config, rep_seed: u64) -> Result<Rep> {
        let mut rng = StdRng::seed_from_u64(rep_seed);
        let graph = generate(TopologyKind::BarabasiAlbert { m: 2 }, cfg.nodes, &mut rng)?;
        let tree = minimum_spanning_tree(&graph, NodeId(0))?;
        Ok(Rep {
            graph,
            tree,
            processors: place_processors(cfg.nodes, cfg.processor_fraction),
            catalog: sensor_catalog(),
            managers: FxHashMap::default(),
            queries: Vec::new(),
            loads: FxHashMap::default(),
            affinity: cfg.affinity_candidates,
        })
    }

    fn insert(&mut self, text: &str, rng: &mut StdRng) -> Result<()> {
        let parsed = cosmos_cql::parse_query(text)?;
        let q = AnalyzedQuery::analyze(&parsed, self.catalog.schema_fn())?;
        let user = NodeId(rng.gen_range(0..self.graph.node_count() as u32));
        let processor = pick_processor(&q, &self.processors, self.affinity, &self.loads);
        *self.loads.entry(processor).or_insert(0) += 1;
        let qid = QueryId(self.queries.len() as u64);
        let cq = cost_bps(&q, &self.catalog);
        let manager = self
            .managers
            .entry(processor)
            .or_insert_with(|| GroupManager::new(format!("rep::{processor}")));
        manager.insert(qid, q, &self.catalog)?;
        self.queries.push((user, processor, cq));
        Ok(())
    }

    /// Unmerged delivery cost: every query's result stream travels its
    /// own tree path at rate `C(q)`.
    fn unmerged_cost(&self) -> f64 {
        self.queries
            .iter()
            .map(|&(user, proc, cq)| cq * path_delay(&self.graph, &self.tree, proc, user))
            .sum()
    }

    /// Merged delivery cost: per group, one shared stream over the union
    /// of member paths; per link, the flow is capped both by the
    /// representative's rate and by what the members downstream of the
    /// link actually consume.
    fn merged_cost(&self) -> f64 {
        let mut total = 0.0;
        for (&proc, manager) in &self.managers {
            for group in manager.groups() {
                let rep_rate = cost_bps(&group.representative, &self.catalog);
                let mut per_link: FxHashMap<(NodeId, NodeId), f64> = FxHashMap::default();
                for (qid, _) in &group.members {
                    let (user, _, cq) = self.queries[qid.index()];
                    for link in self.tree.path_links(proc, user) {
                        *per_link.entry(link).or_insert(0.0) += cq;
                    }
                }
                for ((u, v), member_sum) in per_link {
                    let delay = self
                        .graph
                        .edge_weight(u, v)
                        .unwrap_or_else(|| self.graph.distance(u, v).max(f64::EPSILON));
                    total += delay * rep_rate.min(member_sum);
                }
            }
        }
        total
    }

    fn grouping_ratio(&self) -> f64 {
        let groups: usize = self.managers.values().map(|m| m.group_count()).sum();
        if self.queries.is_empty() {
            1.0
        } else {
            groups as f64 / self.queries.len() as f64
        }
    }

    fn rate_benefit_ratio(&self) -> f64 {
        let members: f64 = self
            .managers
            .values()
            .map(|m| m.total_member_bps(&self.catalog))
            .sum();
        let reps: f64 = self
            .managers
            .values()
            .map(|m| m.total_rep_bps(&self.catalog))
            .sum();
        if members <= 0.0 {
            0.0
        } else {
            1.0 - reps / members
        }
    }
}

/// Run the Figure 4 experiment for one popularity family, returning one
/// point per checkpoint, averaged over `cfg.reps` repetitions.
pub fn run_fig4(cfg: &Fig4Config) -> Result<Vec<Fig4Point>> {
    let max_q = *cfg.checkpoints.iter().max().unwrap_or(&0);
    let mut sums: Vec<(f64, f64, f64)> = vec![(0.0, 0.0, 0.0); cfg.checkpoints.len()];
    for rep in 0..cfg.reps {
        let rep_seed = cfg
            .seed
            .wrapping_add(rep as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut state = Rep::new(cfg, rep_seed)?;
        let mut gen = QueryGenerator::new(
            QueryGenConfig {
                popularity: cfg.popularity,
                ..cfg.workload.clone()
            },
            rep_seed ^ 0xABCD,
        );
        let mut rng = StdRng::seed_from_u64(rep_seed ^ 0x1234);
        let mut next_cp = 0usize;
        for i in 1..=max_q {
            let text = gen.next_query();
            state.insert(&text, &mut rng)?;
            if next_cp < cfg.checkpoints.len() && i == cfg.checkpoints[next_cp] {
                let unmerged = state.unmerged_cost();
                let merged = state.merged_cost();
                let benefit = if unmerged > 0.0 {
                    1.0 - merged / unmerged
                } else {
                    0.0
                };
                sums[next_cp].0 += benefit;
                sums[next_cp].1 += state.grouping_ratio();
                sums[next_cp].2 += state.rate_benefit_ratio();
                next_cp += 1;
            }
        }
    }
    Ok(cfg
        .checkpoints
        .iter()
        .zip(sums)
        .map(|(&queries, (b, g, r))| Fig4Point {
            queries,
            benefit_ratio: b / cfg.reps as f64,
            grouping_ratio: g / cfg.reps as f64,
            rate_benefit_ratio: r / cfg.reps as f64,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down Figure 4 configuration for fast tests.
    fn small(pop: Popularity) -> Fig4Config {
        Fig4Config {
            nodes: 120,
            checkpoints: vec![100, 300],
            popularity: pop,
            reps: 2,
            seed: 7,
            processor_fraction: 0.05,
            affinity_candidates: 1,
            workload: QueryGenConfig::default(),
        }
    }

    #[test]
    fn benefit_grows_with_query_count() {
        let pts = run_fig4(&small(Popularity::Uniform)).unwrap();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].queries, 100);
        assert!(pts[0].benefit_ratio >= 0.0 && pts[0].benefit_ratio <= 1.0);
        assert!(
            pts[1].benefit_ratio > pts[0].benefit_ratio,
            "benefit should grow with more queries: {pts:?}"
        );
        assert!(
            pts[1].grouping_ratio < pts[0].grouping_ratio,
            "grouping ratio should shrink with more queries: {pts:?}"
        );
    }

    #[test]
    fn skew_increases_benefit() {
        let uni = run_fig4(&small(Popularity::Uniform)).unwrap();
        let zipf = run_fig4(&small(Popularity::Zipf(2.0))).unwrap();
        assert!(
            zipf[1].benefit_ratio > uni[1].benefit_ratio,
            "zipf {zipf:?} should beat uniform {uni:?}"
        );
        assert!(zipf[1].grouping_ratio < uni[1].grouping_ratio);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_fig4(&small(Popularity::Zipf(1.0))).unwrap();
        let b = run_fig4(&small(Popularity::Zipf(1.0))).unwrap();
        assert_eq!(a, b);
    }
}
