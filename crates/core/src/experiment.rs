//! The paper's evaluation as one deterministic report.
//!
//! [`report`] runs every count-valued experiment of EXPERIMENTS.md —
//! Figure 4 (E1/E2), Figure 3 (E3), Table 1 (E4) and the ablations A1,
//! A2, A3, A4, A7 and A8 — and renders each table as markdown, followed
//! by the claims its numbers must satisfy. Every input is seeded, so a
//! report is a function of its [`Scale`] alone: `cosmos-sim experiments`
//! prints it and fails when a claim does not hold, and both scales are
//! committed as golden files.
//!
//! **Figure 4** (Section 5 of the paper). Setup, exactly as the paper
//! describes it: a power-law overlay (BRITE → Barabási–Albert here), a
//! minimum spanning tree as the dissemination tree, the 63
//! SensorScope-like streams placed on random nodes, and randomly
//! generated queries whose stream choice follows a uniform or zipfian
//! distribution. Queries are inserted incrementally into the
//! per-processor [`GroupManager`]s, and at each checkpoint two metrics
//! are reported:
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
//! Figure 4 computes costs analytically from the estimator's rates
//! instead of routing datagrams (the paper's CBN "is simulated" too);
//! Figure 3 and the A2/A7 ablations route every tuple through a deployed
//! [`Cosmos`]. A1 counts the constraints the two matching engines
//! evaluate, as the engines themselves report them.

use crate::system::{pick_processor, place_processors};
use crate::{Cosmos, CosmosConfig};
use cosmos_cbn::{
    Conjunction, CountingMatcher, MatchEngine, MatchScratch, NaiveMatcher, Profile, Projection,
};
use cosmos_cql::parse_query;
use cosmos_overlay::{
    generate, minimum_spanning_tree, Graph, OptimizerConfig, TopologyKind, Tree, TreeOptimizer,
};
use cosmos_query::{
    contained, estimate::cost_bps, merge, retighten_profile, GroupManager, StatsCatalog,
};
use cosmos_spe::{oracle, AnalyzedQuery};
use cosmos_types::{
    AttrType, NeumaierSum, NodeId, QueryId, Result, Schema, StreamName, Timestamp, Tuple, Value,
};
use cosmos_workload::auction::{
    auction_catalog, closed_auction_schema, open_auction_schema, AuctionGenerator, Q1, Q2, Q3,
};
use cosmos_workload::sensor::{merged_inputs, stream_name, SensorGenerator};
use cosmos_workload::{sensor_catalog, Popularity, QueryGenConfig, QueryGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// How large the experiments run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Every shape in seconds: Figure 4 on 300 nodes up to 3000 queries
    /// over 5 repetitions, A3 on 1200 queries, A4 on 300 nodes, A8 up to
    /// 500 streams.
    Quick,
    /// The paper's parameters: Figure 4 on 1000 nodes up to 10 000
    /// queries over 20 repetitions; A3 on 5000 queries, A4 on 1000 nodes,
    /// A8 up to 5000 streams.
    Paper,
}

impl Scale {
    /// The name `cosmos-sim experiments --scale` takes.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Paper => "paper",
        }
    }

    /// The scale called `name`, if any.
    pub fn from_name(name: &str) -> Option<Scale> {
        [Scale::Quick, Scale::Paper]
            .into_iter()
            .find(|s| s.name() == name)
    }
}

/// A rendered report: markdown tables, each followed by the claims its
/// numbers must satisfy as `- PASS: …` / `- FAIL: …` lines.
#[derive(Debug, Clone, Default)]
pub struct Report {
    text: String,
    failed: Vec<String>,
}

impl Report {
    /// The report as markdown.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The claims that do not hold.
    pub fn failed_checks(&self) -> &[String] {
        &self.failed
    }

    /// Append a table under a `##` heading; the claims about it follow.
    fn table(
        &mut self,
        title: &str,
        headers: &[&str],
        rows: impl IntoIterator<Item = Vec<String>>,
    ) {
        let _ = write!(
            self.text,
            "\n## {title}\n\n| {} |\n|{}\n",
            headers.join(" | "),
            "---|".repeat(headers.len())
        );
        for row in rows {
            let _ = writeln!(self.text, "| {} |", row.join(" | "));
        }
        self.text.push('\n');
    }

    /// Append one claim and whether it holds.
    fn check(&mut self, claim: impl Into<String>, holds: bool) {
        let claim = claim.into();
        let verdict = if holds { "PASS" } else { "FAIL" };
        let _ = writeln!(self.text, "- {verdict}: {claim}");
        if !holds {
            self.failed.push(claim);
        }
    }
}

/// Run every count-valued experiment at `scale`.
pub fn report(scale: Scale) -> Result<Report> {
    let mut r = Report {
        text: format!("# COSMOS experiments ({} scale)\n", scale.name()),
        ..Report::default()
    };
    figure4(&mut r, scale)?;
    figure3(&mut r)?;
    table1(&mut r)?;
    matcher_ablation(&mut r);
    early_projection(&mut r)?;
    grouping_policies(&mut r, scale)?;
    overlay_optimizer(&mut r, scale)?;
    tree_modes(&mut r)?;
    schema_registry(&mut r, scale);
    Ok(r)
}

/// Master seed of every Figure 4 sweep.
const FIG4_SEED: u64 = 42;
/// Fraction of overlay nodes that are processors.
const FIG4_PROCESSOR_FRACTION: f64 = 0.05;
/// Candidate processors per stream set (query-distribution affinity).
const FIG4_AFFINITY: usize = 1;

/// The stream-popularity families of Figure 4, least to most skewed.
const FIG4_FAMILIES: [Popularity; 4] = [
    Popularity::Uniform,
    Popularity::Zipf(1.0),
    Popularity::Zipf(1.5),
    Popularity::Zipf(2.0),
];

/// One of Figure 4's three tables.
struct Fig4Metric {
    title: &'static str,
    name: &'static str,
    value: fn(&Fig4Point) -> f64,
    /// Whether the paper has it rise (else fall) with query count and skew.
    rises: bool,
}

const FIG4_METRICS: [Fig4Metric; 3] = [
    Fig4Metric {
        title: "E1 — Figure 4(a): benefit ratio, result-stream rate reduction 1 − ΣC(rep)/ΣC(q)",
        name: "rate benefit",
        value: |p| p.rate_benefit_ratio,
        rises: true,
    },
    Fig4Metric {
        title: "E1′ — Figure 4(a): delay-weighted multicast delivery cost reduction",
        name: "delay-weighted benefit",
        value: |p| p.benefit_ratio,
        rises: true,
    },
    Fig4Metric {
        title: "E2 — Figure 4(b): grouping ratio #groups/#queries",
        name: "grouping ratio",
        value: |p| p.grouping_ratio,
        rises: false,
    },
];

/// One measured point of Figure 4.
struct Fig4Point {
    /// Number of queries inserted so far.
    queries: usize,
    /// `1 − merged/unmerged` topology-weighted delivery cost.
    benefit_ratio: f64,
    /// `1 − ΣC(rep)/ΣC(q)`: the topology-independent rate reduction
    /// (the benefit measure as the paper defines `C(q)` — pure result
    /// stream rates, before multicast path accounting).
    rate_benefit_ratio: f64,
    /// `#groups / #queries`.
    grouping_ratio: f64,
}

/// E1 and E2: one sweep per family feeds all three Figure 4 tables.
fn figure4(r: &mut Report, scale: Scale) -> Result<()> {
    let (nodes, checkpoints, reps) = match scale {
        Scale::Quick => (300, vec![500, 1000, 1500, 2000, 2500, 3000], 5),
        Scale::Paper => (1000, vec![2000, 4000, 6000, 8000, 10000], 20),
    };
    let series = FIG4_FAMILIES
        .into_iter()
        .map(|pop| Ok((pop, run_fig4(nodes, &checkpoints, reps, pop)?)))
        .collect::<Result<Vec<_>>>()?;
    fig4_tables(r, &format!("{nodes} nodes, {reps} reps"), &series);
    Ok(())
}

/// Figure 4's tables, each followed by the paper's shape: strictly
/// monotone in the query count within every family, and in the skew at
/// every checkpoint.
fn fig4_tables(r: &mut Report, setup: &str, series: &[(Popularity, Vec<Fig4Point>)]) {
    let labels: Vec<String> = series.iter().map(|(pop, _)| pop.label()).collect();
    let headers: Vec<&str> = std::iter::once("#Queries")
        .chain(labels.iter().map(String::as_str))
        .collect();
    let checkpoints = series.first().map_or(0, |(_, pts)| pts.len());
    for m in &FIG4_METRICS {
        let at =
            |i: usize| -> Vec<f64> { series.iter().map(|(_, pts)| (m.value)(&pts[i])).collect() };
        let rows = (0..checkpoints).map(|i| {
            std::iter::once(series[0].1[i].queries.to_string())
                .chain(at(i).iter().map(|v| format!("{v:.3}")))
                .collect()
        });
        r.table(&format!("{} ({setup})", m.title), &headers, rows);
        let monotone = |xs: &[f64]| {
            xs.windows(2)
                .all(|w| if m.rises { w[0] < w[1] } else { w[0] > w[1] })
        };
        let trend = if m.rises { "rises" } else { "falls" };
        let by_count = series
            .iter()
            .all(|(_, pts)| monotone(&pts.iter().map(m.value).collect::<Vec<_>>()));
        r.check(
            format!("{} {trend} with #queries in every family", m.name),
            by_count,
        );
        let by_skew = (0..checkpoints).all(|i| monotone(&at(i)));
        r.check(
            format!("{} {trend} with skew at every checkpoint", m.name),
            by_skew,
        );
    }
}

/// Delay of the tree path `a → b`: the sum of its links'
/// [`Graph::link_delay`]s.
fn path_delay(graph: &Graph, tree: &Tree, a: NodeId, b: NodeId) -> f64 {
    tree.path_links(a, b)
        .iter()
        .map(|&(u, v)| graph.link_delay(u, v).expect(NO_LINK_FAILS))
        .sum()
}

/// Figure 4's overlay never fails a link, so every pair has a delay.
const NO_LINK_FAILS: &str = "Figure 4 fails no link";

/// State of one repetition of the experiment.
struct Rep {
    graph: Graph,
    tree: Tree,
    processors: Vec<NodeId>,
    catalog: StatsCatalog,
    /// Grouping per processor, in node order: every cost sum walks it,
    /// and query distribution reads each processor's load from it.
    managers: BTreeMap<NodeId, GroupManager>,
    /// Per query: `(user node, processor, C(q))`.
    queries: Vec<(NodeId, NodeId, f64)>,
}

impl Rep {
    fn new(nodes: usize, rep_seed: u64) -> Result<Rep> {
        let mut rng = StdRng::seed_from_u64(rep_seed);
        let graph = generate(TopologyKind::BarabasiAlbert { m: 2 }, nodes, &mut rng)?;
        let tree = minimum_spanning_tree(&graph, NodeId(0))?;
        Ok(Rep {
            graph,
            tree,
            processors: place_processors(nodes, FIG4_PROCESSOR_FRACTION),
            catalog: sensor_catalog(),
            managers: BTreeMap::new(),
            queries: Vec::new(),
        })
    }

    fn insert(&mut self, text: &str, rng: &mut StdRng) -> Result<()> {
        let parsed = parse_query(text)?;
        let q = AnalyzedQuery::analyze(&parsed, self.catalog.schema_fn())?;
        let user = NodeId(rng.gen_range(0..self.graph.node_count() as u32));
        let processor = pick_processor(&q, &self.processors, FIG4_AFFINITY, &self.managers);
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
        let mut total = NeumaierSum::new();
        for &(user, proc, cq) in &self.queries {
            total.add(cq * path_delay(&self.graph, &self.tree, proc, user));
        }
        total.total()
    }

    /// Merged delivery cost: per group, one shared stream over the union
    /// of member paths; per link, the flow is capped both by the
    /// representative's rate and by what the members downstream of the
    /// link actually consume.
    fn merged_cost(&self) -> f64 {
        let mut total = NeumaierSum::new();
        for (&proc, manager) in &self.managers {
            for group in manager.groups() {
                let rep_rate = cost_bps(&group.representative, &self.catalog);
                let mut per_link: BTreeMap<(NodeId, NodeId), NeumaierSum> = BTreeMap::new();
                for (qid, _) in &group.members {
                    let (user, _, cq) = self.queries[qid.index()];
                    for link in self.tree.path_links(proc, user) {
                        per_link.entry(link).or_default().add(cq);
                    }
                }
                for ((u, v), member_sum) in per_link {
                    let delay = self.graph.link_delay(u, v).expect(NO_LINK_FAILS);
                    total.add(delay * rep_rate.min(member_sum.total()));
                }
            }
        }
        total.total()
    }

    fn grouping_ratio(&self) -> f64 {
        let groups: usize = self.managers.values().map(|m| m.group_count()).sum();
        groups as f64 / self.queries.len() as f64
    }

    fn rate_benefit_ratio(&self) -> f64 {
        let (mut members, mut reps) = (NeumaierSum::new(), NeumaierSum::new());
        for m in self.managers.values() {
            members.add(m.total_member_bps(&self.catalog));
            reps.add(m.total_rep_bps(&self.catalog));
        }
        if members.total() <= 0.0 {
            0.0
        } else {
            1.0 - reps.total() / members.total()
        }
    }
}

/// Run Figure 4 on a `nodes`-node overlay for one stream-popularity
/// family: one point per query-count checkpoint, each averaged over
/// `reps` repetitions.
fn run_fig4(
    nodes: usize,
    checkpoints: &[usize],
    reps: usize,
    popularity: Popularity,
) -> Result<Vec<Fig4Point>> {
    let max_q = *checkpoints.iter().max().unwrap_or(&0);
    // Per checkpoint: benefit, grouping ratio, rate benefit.
    let mut sums = vec![[NeumaierSum::new(); 3]; checkpoints.len()];
    for rep in 0..reps {
        let rep_seed = FIG4_SEED
            .wrapping_add(rep as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut state = Rep::new(nodes, rep_seed)?;
        let mut gen = QueryGenerator::new(
            QueryGenConfig {
                popularity,
                ..QueryGenConfig::default()
            },
            rep_seed ^ 0xABCD,
        );
        let mut rng = StdRng::seed_from_u64(rep_seed ^ 0x1234);
        let mut next_cp = 0usize;
        for i in 1..=max_q {
            let text = gen.next_query();
            state.insert(&text, &mut rng)?;
            if next_cp < checkpoints.len() && i == checkpoints[next_cp] {
                let unmerged = state.unmerged_cost();
                let benefit = if unmerged > 0.0 {
                    1.0 - state.merged_cost() / unmerged
                } else {
                    0.0
                };
                let [b, g, r] = &mut sums[next_cp];
                b.add(benefit);
                g.add(state.grouping_ratio());
                r.add(state.rate_benefit_ratio());
                next_cp += 1;
            }
        }
    }
    let reps = reps as f64;
    Ok(checkpoints
        .iter()
        .zip(sums)
        .map(|(&queries, [b, g, r])| Fig4Point {
            queries,
            benefit_ratio: b.total() / reps,
            grouping_ratio: g.total() / reps,
            rate_benefit_ratio: r.total() / reps,
        })
        .collect())
}

/// Auctions E3 routes in each mode.
const FIG3_AUCTIONS: i64 = 400;

/// E3 on one overlay, without and with result sharing.
struct Fig3Run {
    trunk: u32,
    /// Result counts of `[q1, q2]`: `[non-share, share]`.
    results: [[usize; 2]; 2],
    /// `[non-share, share]` bytes per link: the trunk links `i-1 — i` in
    /// order, then the two split links (every link of the overlay).
    links: Vec<[u64; 2]>,
}

/// E3 — Figure 3: the paper's one-hop trunk, and a six-hop wide-area
/// variant (the longer the shared path, the more one shared stream saves).
fn figure3(r: &mut Report) -> Result<()> {
    for trunk in [1, 6] {
        let (non_share, non_share_results) = fig3_deployment(false, trunk)?;
        let (share, share_results) = fig3_deployment(true, trunk)?;
        let split = [(trunk, trunk + 1), (trunk, trunk + 2)];
        let run = Fig3Run {
            trunk,
            results: [non_share_results, share_results],
            links: (1..=trunk)
                .map(|i| (i - 1, i))
                .chain(split)
                .map(|(a, b)| {
                    let (a, b) = (NodeId(a), NodeId(b));
                    [non_share.link_bytes(a, b), share.link_bytes(a, b)]
                })
                .collect(),
        };
        fig3_table(r, &run);
    }
    Ok(())
}

/// One E3 table, followed by Figure 3's claim: the overlapping content
/// of s1 and s2 crosses every trunk link once instead of twice, and
/// sharing changes no result.
fn fig3_table(r: &mut Report, run: &Fig3Run) {
    let trunk = run.trunk;
    let names = (1..=trunk)
        .map(|i| format!("trunk {}-{i}", i - 1))
        .chain(["n2-n3 (split)", "n2-n4 (split)", "TOTAL"].map(String::from));
    let total = [0, 1].map(|mode| run.links.iter().map(|bytes| bytes[mode]).sum());
    let rows = names
        .zip(run.links.iter().chain([&total]))
        .map(|(name, &[ns, sh])| {
            let saved = if ns > 0 {
                100.0 * (1.0 - sh as f64 / ns as f64)
            } else {
                0.0
            };
            vec![name, ns.to_string(), sh.to_string(), format!("{saved:.1}%")]
        });
    let [q1, q2] = run.results[1];
    r.table(
        &format!(
            "E3 — Figure 3: result-stream delivery ({trunk}-hop trunk, {FIG3_AUCTIONS} \
             auctions; q1: {q1} results, q2: {q2} results)"
        ),
        &["link", "Non-Share bytes", "Share bytes", "saved"],
        rows,
    );
    r.check(
        format!("{trunk}-hop trunk: sharing carries fewer bytes on every trunk link"),
        run.links[..trunk as usize].iter().all(|[ns, sh]| sh < ns),
    );
    r.check(
        format!("{trunk}-hop trunk: both modes deliver the same result counts"),
        run.results[0] == run.results[1],
    );
}

/// Figure 3's overlay with a trunk of `trunk` hops: n1(0) — … —
/// n2(trunk) — n3(trunk+1), n2 — n4(trunk+2).
fn fig3_graph(trunk: u32) -> Result<Graph> {
    let n = trunk as usize + 3;
    let mut g = Graph::new(n);
    for i in 0..=trunk {
        g.set_position(NodeId(i), i as f64 / n as f64, 0.5);
        if i > 0 {
            g.add_edge_by_distance(NodeId(i - 1), NodeId(i))?;
        }
    }
    g.set_position(NodeId(trunk + 1), (trunk + 1) as f64 / n as f64, 0.2);
    g.set_position(NodeId(trunk + 2), (trunk + 1) as f64 / n as f64, 0.8);
    g.add_edge_by_distance(NodeId(trunk), NodeId(trunk + 1))?;
    g.add_edge_by_distance(NodeId(trunk), NodeId(trunk + 2))?;
    Ok(g)
}

/// Deploy q1 at n3 and q2 at n4 with the SPE at n1, route the auctions
/// tuple by tuple, and return the deployment with `[q1, q2]`'s result
/// counts.
fn fig3_deployment(share: bool, trunk: u32) -> Result<(Cosmos, [usize; 2])> {
    let nodes = trunk as usize + 3;
    let cfg = CosmosConfig {
        nodes,
        processor_fraction: 1.0 / nodes as f64, // node 0 only
        merging_enabled: share,
        ..CosmosConfig::default()
    };
    let mut sys = Cosmos::with_graph(cfg, fig3_graph(trunk)?)?;
    let cat = auction_catalog(60.0);
    for (name, schema) in [
        ("OpenAuction", open_auction_schema()),
        ("ClosedAuction", closed_auction_schema()),
    ] {
        let stats = cat
            .stats(&StreamName::from(name))
            .expect("the auction catalog describes both streams");
        sys.register_stream(name, schema, stats.clone(), NodeId(0))?;
    }
    let q1 = sys.submit_query(Q1, NodeId(trunk + 1))?;
    let q2 = sys.submit_query(Q2, NodeId(trunk + 2))?;
    let events = AuctionGenerator::new(11, 60_000, 6 * 3_600_000).generate(FIG3_AUCTIONS);
    sys.run(events)?;
    let counts = [sys.results(q1).len(), sys.results(q2).len()];
    Ok((sys, counts))
}

/// E4 — Table 1: every claim the paper makes about q1, q2 and the
/// representative q3, checked on 300 generated auctions.
fn table1(r: &mut Report) -> Result<()> {
    let cat = auction_catalog(60.0);
    let analyze = |t: &str| AnalyzedQuery::analyze(&parse_query(t)?, cat.schema_fn());
    let (q1, q2, q3) = (analyze(Q1)?, analyze(Q2)?, analyze(Q3)?);
    let rep = merge(&q1, &q2)?;
    let cols = |a: &AnalyzedQuery| {
        a.output_schema
            .names()
            .map(str::to_string)
            .collect::<BTreeSet<_>>()
    };

    // The re-tightening profiles p1/p2 and their window filters.
    let s3 = StreamName::from("s3");
    let p1 = retighten_profile(&q1, &rep, &s3)?;
    let p2 = retighten_profile(&q2, &rep, &s3)?;
    let diff_of = |p: &Profile| {
        let entry = p.entry(&s3).expect("a re-tightened profile reads s3");
        entry.filters[0]
            .diff_constraints()
            .map(|(a, b, r)| format!("{a} - {b} in {r}"))
            .collect::<Vec<_>>()
            .join("; ")
    };

    // Split q3's result stream through p1/p2, and run q1/q2 directly;
    // compare as sorted rows of (column, value) pairs sorted by column.
    let events = AuctionGenerator::new(3, 60_000, 6 * 3_600_000).generate(300);
    let rep_out = oracle::evaluate(&rep, "s3", &events);
    let sorted_rows = |tuples: Vec<(Tuple, Schema)>| {
        let mut rows: Vec<_> = tuples
            .into_iter()
            .map(|(t, schema)| {
                let mut row: Vec<_> = schema
                    .names()
                    .map(str::to_string)
                    .zip(t.values().iter().cloned())
                    .collect();
                row.sort();
                (t.timestamp, row)
            })
            .collect();
        rows.sort();
        rows
    };
    let split = |p: &Profile| {
        sorted_rows(
            rep_out
                .iter()
                .filter(|t| p.covers_tuple(t, &rep.output_schema))
                .map(|t| {
                    p.project_tuple(t, &rep.output_schema)
                        .expect("a covered tuple projects")
                })
                .collect(),
        )
    };
    let direct = |q: &AnalyzedQuery| {
        sorted_rows(
            oracle::evaluate(q, "direct", &events)
                .into_iter()
                .map(|t| (t, q.output_schema.clone()))
                .collect(),
        )
    };
    let (split1, split2) = (split(&p1), split(&p2));

    let count = |name: &str, n: usize| vec![name.to_string(), n.to_string()];
    r.table(
        "E4 — Table 1: q1/q2/q3 on 300 generated auctions",
        &["result stream", "rows"],
        [
            count("q3 = merge(q1, q2)", rep_out.len()),
            count("split(p1, q3) = q1", split1.len()),
            count("split(p2, q3) = q2", split2.len()),
        ],
    );
    r.check("q1 ⊑ q3 (Theorem 1)", contained(&q1, &q3));
    r.check("q2 ⊑ q3 (Theorem 1)", contained(&q2, &q3));
    r.check("¬(q3 ⊑ q1)", !contained(&q3, &q1));
    r.check("¬(q3 ⊑ q2)", !contained(&q3, &q2));
    r.check("merge(q1,q2) ≡ q3 (columns)", cols(&rep) == cols(&q3));
    r.check(
        "merge(q1,q2) ≡ q3 (windows)",
        rep.streams[0].window == q3.streams[0].window
            && rep.streams[1].window == q3.streams[1].window,
    );
    // C.ts − O.ts ∈ [0, 3h] is the paper's −3h ≤ O.ts − C.ts ≤ 0.
    r.check(
        "p1 window filter = −3h ≤ O.ts − C.ts ≤ 0",
        diff_of(&p1).contains("[0, 10800000]"),
    );
    r.check(
        "p2 window filter = −5h ≤ O.ts − C.ts ≤ 0",
        diff_of(&p2).contains("[0, 18000000]"),
    );
    r.check("split(p1, q3 results) ≡ q1 results", split1 == direct(&q1));
    r.check("split(p2, q3 results) ≡ q2 results", split2 == direct(&q2));
    r.check(
        "q1 results ⊂ q3 results (strict)",
        split1.len() < rep_out.len() && !split1.is_empty(),
    );
    Ok(())
}

/// A line overlay of `n` nodes, 0 — 1 — … — n-1.
fn line(n: u32) -> Result<Graph> {
    let mut g = Graph::new(n as usize);
    for i in 0..n {
        g.set_position(NodeId(i), i as f64 / n as f64, 0.0);
    }
    for i in 1..n {
        g.add_edge_by_distance(NodeId(i - 1), NodeId(i))?;
    }
    Ok(g)
}

/// Register sensor stream `i` of the sensor catalog at `origin`.
fn register_sensor(sys: &mut Cosmos, i: usize, origin: NodeId) -> Result<()> {
    let cat = sensor_catalog();
    let name = stream_name(i);
    let key = StreamName::from(name.as_str());
    let schema = cat
        .schema(&key)
        .expect("the sensor catalog has a schema per stream");
    let stats = cat
        .stats(&key)
        .expect("the sensor catalog has stats per stream");
    sys.register_stream(name.as_str(), schema.clone(), stats.clone(), origin)
}

/// One A1 subscription. `equality`: `id` equal to a key, the common
/// case of key-attribute interest. `range`: a `price` band, half of
/// them also bounding `qty` from below.
fn a1_profile(workload: &str, rng: &mut StdRng) -> Profile {
    let mut f = Conjunction::always();
    if workload == "equality" {
        f.equals("id", rng.gen_range(0..500i64));
    } else {
        let lo = rng.gen_range(0.0..900.0);
        f.between("price", lo, lo + rng.gen_range(10.0..100.0));
        if rng.gen_bool(0.5) {
            f.lower("qty", rng.gen_range(0..50i64), true);
        }
    }
    let mut p = Profile::new();
    p.add_interest("S", Projection::All, f);
    p
}

/// A1's 256 probe tuples of stream `S (id, price, qty)`.
fn a1_probes() -> Vec<Tuple> {
    let mut rng = StdRng::seed_from_u64(7);
    (0..256)
        .map(|i| {
            Tuple::new(
                "S",
                Timestamp(i),
                vec![
                    Value::Int(rng.gen_range(0..500)),
                    Value::Float(rng.gen_range(0.0..1000.0)),
                    Value::Int(rng.gen_range(0..100)),
                ],
            )
        })
        .collect()
}

/// A1 — the counting matcher against the naive profile scan (§3: every
/// node matches every datagram). Per probe tuple: the constraints each
/// engine evaluates, as the engine counts them, and the profiles
/// matched, at N installed profiles of an equality and a range workload.
fn matcher_ablation(r: &mut Report) {
    let schema = Schema::of(&[
        ("id", AttrType::Int),
        ("price", AttrType::Float),
        ("qty", AttrType::Int),
    ]);
    let probes = a1_probes();
    let per_tuple = |n: u64| n as f64 / probes.len() as f64;
    let (mut rows, mut agree, mut checks) = (Vec::new(), true, Vec::new());
    for workload in ["equality", "range"] {
        for n in [100u32, 1000, 5000] {
            let mut rng = StdRng::seed_from_u64(42);
            let (mut naive, mut counting) = (NaiveMatcher::new(), CountingMatcher::new());
            for key in 0..n {
                let p = a1_profile(workload, &mut rng);
                naive.insert(key, p.clone());
                counting.insert(key, p);
            }
            let mut flat = MatchScratch::default();
            counting.matches_batch_flat(&probes, &schema, &mut flat);
            let (mut naive_evaluated, mut matched) = (0, 0);
            for (t, keys) in probes.iter().zip(flat.iter()) {
                let naive_keys = naive.matches_counting(t, &schema, &mut naive_evaluated);
                agree &= naive_keys == keys;
                matched += keys.len() as u64;
            }
            let ratio = naive_evaluated as f64 / flat.evaluated() as f64;
            rows.push(vec![
                workload.to_string(),
                n.to_string(),
                format!("{:.1}", per_tuple(naive_evaluated)),
                format!("{:.1}", per_tuple(flat.evaluated())),
                format!("{ratio:.2}"),
                format!("{:.2}", per_tuple(matched)),
            ]);
            match (workload, n) {
                ("equality", 5000) => checks.push((
                    "equality, N = 5000: counting evaluates ≥ 30× fewer constraints".to_string(),
                    ratio >= 30.0,
                )),
                ("range", _) => checks.push((
                    format!("range, N = {n}: counting evaluates ≤ 2× the constraints of naive"),
                    ratio >= 0.5,
                )),
                _ => {}
            }
        }
    }
    r.table(
        &format!(
            "A1 — counting matcher vs naive scan ({} probe tuples, N installed profiles)",
            probes.len()
        ),
        &[
            "workload",
            "N",
            "naive evals/tuple",
            "counting evals/tuple",
            "naive / counting",
            "matches/tuple",
        ],
        rows,
    );
    r.check("both engines return identical keys for every probe", agree);
    for (claim, holds) in checks {
        r.check(claim, holds);
    }
}

/// Bytes an 8-node line moves for `query` (user at node 7) over 2000 s
/// of sensor data published at node 0.
fn projection_bytes(query: &str) -> Result<u64> {
    let cfg = CosmosConfig {
        nodes: 8,
        processor_fraction: 0.13, // node 0 only
        ..CosmosConfig::default()
    };
    let mut sys = Cosmos::with_graph(cfg, line(8)?)?;
    register_sensor(&mut sys, 0, NodeId(0))?;
    sys.submit_query(query, NodeId(7))?;
    let mut gen = SensorGenerator::new(0, 3);
    sys.run(gen.tuples_until(2_000_000))?;
    Ok(sys.total_bytes())
}

/// A2 — early projection (Section 3.1): the same data and overlay, the
/// query's narrow projection against a `SELECT *` profile.
fn early_projection(r: &mut Report) -> Result<()> {
    let s = stream_name(0);
    let wide = projection_bytes(&format!("SELECT * FROM {s} [Now]"))?;
    let narrow = projection_bytes(&format!("SELECT node_id, ambient_temp FROM {s} [Now]"))?;
    let filtered = projection_bytes(&format!(
        "SELECT node_id, ambient_temp FROM {s} [Now] WHERE ambient_temp > 30.0"
    ))?;
    let row =
        |name: &str, bytes: u64, saved: String| vec![name.to_string(), bytes.to_string(), saved];
    let saved = |bytes: u64| format!("-{:.1}%", 100.0 * (1.0 - bytes as f64 / wide as f64));
    r.table(
        "A2 — early projection (8-node line, 2000 s of sensor data)",
        &["profile", "bytes moved", "vs SELECT *"],
        [
            row("SELECT * (no projection)", wide, "—".into()),
            row("2 attributes (early projection)", narrow, saved(narrow)),
            row("2 attrs + selective filter", filtered, saved(filtered)),
        ],
    );
    r.check("projection moves fewer bytes than SELECT *", narrow < wide);
    r.check("a selective filter moves fewer still", filtered < narrow);
    Ok(())
}

/// First-fit grouping: join the first group that merges at all,
/// ignoring the benefit estimate.
#[derive(Default)]
struct FirstFit {
    groups: Vec<(AnalyzedQuery, Vec<AnalyzedQuery>)>,
}

impl FirstFit {
    fn insert(&mut self, q: AnalyzedQuery) {
        for (rep, members) in &mut self.groups {
            if let Ok(new_rep) = merge(rep, &q) {
                *rep = new_rep;
                members.push(q);
                return;
            }
        }
        self.groups.push((q.clone(), vec![q]));
    }

    /// Grouping ratio and rate benefit `1 − ΣC(rep)/ΣC(q)`.
    fn metrics(&self, cat: &StatsCatalog) -> (f64, f64) {
        let queries: usize = self.groups.iter().map(|(_, m)| m.len()).sum();
        let member_bps: f64 = self
            .groups
            .iter()
            .flat_map(|(_, m)| m.iter())
            .map(|q| cost_bps(q, cat))
            .sum();
        let rep_bps: f64 = self.groups.iter().map(|(r, _)| cost_bps(r, cat)).sum();
        (
            self.groups.len() as f64 / queries as f64,
            1.0 - rep_bps / member_bps,
        )
    }
}

/// A3 — grouping policies on one query workload: no merging (the
/// paper's baseline), first-fit, the paper's greedy maximum-gain
/// assignment, and greedy followed by the self-tuning regrouping pass.
fn grouping_policies(r: &mut Report, scale: Scale) -> Result<()> {
    let n_queries = match scale {
        Scale::Quick => 1200,
        Scale::Paper => 5000,
    };
    let cat = sensor_catalog();
    let (mut rows, mut checks) = (Vec::new(), Vec::new());
    for pop in [Popularity::Uniform, Popularity::Zipf(1.5)] {
        let mut gen = QueryGenerator::new(
            QueryGenConfig {
                popularity: pop,
                ..QueryGenConfig::default()
            },
            21,
        );
        let queries = gen
            .generate(n_queries)
            .iter()
            .map(|t| AnalyzedQuery::analyze(&parse_query(t)?, cat.schema_fn()))
            .collect::<Result<Vec<_>>>()?;

        let mut ff = FirstFit::default();
        for q in &queries {
            ff.insert(q.clone());
        }
        let first_fit = ff.metrics(&cat);

        let mut gm = GroupManager::new("rep");
        for (i, q) in queries.iter().enumerate() {
            gm.insert(QueryId(i as u64), q.clone(), &cat)?;
        }
        let greedy = (gm.grouping_ratio(), gm.rate_benefit_ratio(&cat));
        gm.reoptimize(&cat)?;
        let retuned = (gm.grouping_ratio(), gm.rate_benefit_ratio(&cat));

        let label = pop.label();
        for (policy, (ratio, benefit)) in [
            ("no-merge", (1.0, 0.0)),
            ("first-fit", first_fit),
            ("greedy (paper)", greedy),
            ("greedy + retune", retuned),
        ] {
            let (ratio, benefit) = (format!("{ratio:.3}"), format!("{benefit:.3}"));
            rows.push(vec![label.clone(), policy.to_string(), ratio, benefit]);
        }
        checks.push((
            format!("{label}: greedy + retune ≥ greedy on rate benefit"),
            retuned.1 >= greedy.1,
        ));
        checks.push((
            format!("{label}: greedy + retune > first-fit on rate benefit"),
            retuned.1 > first_fit.1,
        ));
    }
    r.table(
        &format!("A3 — grouping policies ({n_queries} queries)"),
        &["distribution", "policy", "grouping ratio", "rate benefit"],
        rows,
    );
    for (claim, holds) in checks {
        r.check(claim, holds);
    }
    Ok(())
}

/// A4 — the Section 3.2 overlay reorganizer, from the MST of a
/// power-law overlay, under uniform and skewed consumer demand.
fn overlay_optimizer(r: &mut Report, scale: Scale) -> Result<()> {
    let nodes = match scale {
        Scale::Quick => 300,
        Scale::Paper => 1000,
    };
    let (mut rows, mut checks) = (Vec::new(), Vec::new());
    for (demand_label, skewed) in [("uniform demand", false), ("skewed demand", true)] {
        let mut rng = StdRng::seed_from_u64(17);
        let g = generate(TopologyKind::BarabasiAlbert { m: 2 }, nodes, &mut rng)?;
        let mut tree = minimum_spanning_tree(&g, NodeId(0))?;
        let demand: Vec<f64> = (0..nodes)
            .map(|i| match (skewed, i % 11 == 0) {
                (true, true) => rng.gen_range(5.0..10.0),
                (true, false) => rng.gen_range(0.0..0.2),
                (false, _) => rng.gen_range(0.5..1.5),
            })
            .collect();
        let report = TreeOptimizer::new(OptimizerConfig {
            max_degree: 8,
            w_delay: 1.0,
            w_load: 0.3,
            rounds: 3,
        })
        .optimize(&g, &mut tree, &demand);
        rows.push(vec![
            demand_label.to_string(),
            format!("{:.3}", report.cost_before),
            format!("{:.3}", report.cost_after),
            report.moves.to_string(),
            format!("{:.1}%", 100.0 * report.improvement()),
        ]);
        checks.push((
            format!("{demand_label}: optimized cost ≤ MST cost"),
            report.cost_after <= report.cost_before,
        ));
    }
    r.table(
        &format!("A4 — overlay optimizer ({nodes}-node power-law, MST start)"),
        &[
            "demand",
            "MST cost",
            "optimized cost",
            "moves",
            "improvement",
        ],
        rows,
    );
    for (claim, holds) in checks {
        r.check(claim, holds);
    }
    Ok(())
}

/// One A7 run: total bytes, delay-weighted cost, results delivered.
fn tree_mode_run(per_source: bool) -> Result<(u64, f64, usize)> {
    const NODES: u32 = 60;
    const STREAMS: usize = 6;
    const QUERIES: usize = 24;
    let mut sys = Cosmos::new(CosmosConfig {
        nodes: NODES as usize,
        seed: 17,
        processor_fraction: 0.1,
        per_source_trees: per_source,
        ..CosmosConfig::default()
    })?;
    let mut rng = StdRng::seed_from_u64(4);
    for i in 0..STREAMS {
        register_sensor(&mut sys, i, NodeId(rng.gen_range(0..NODES)))?;
    }
    let mut qids = Vec::new();
    for i in 0..QUERIES {
        let query = format!(
            "SELECT node_id, ambient_temp FROM {} [Now]",
            stream_name(i % STREAMS)
        );
        qids.push(sys.submit_query(&query, NodeId(rng.gen_range(0..NODES)))?);
    }
    let mut gens: Vec<SensorGenerator> =
        (0..STREAMS).map(|i| SensorGenerator::new(i, 33)).collect();
    sys.run(merged_inputs(&mut gens, 120_000))?;
    let delivered = qids.iter().map(|&q| sys.results(q).len()).sum();
    Ok((sys.total_bytes(), sys.weighted_cost(), delivered))
}

/// A7 — one shared MST against per-source shortest-path trees (§3.2
/// "multiple overlay dissemination trees") on the same workload.
fn tree_modes(r: &mut Report) -> Result<()> {
    let (mst_bytes, mst_cost, mst_delivered) = tree_mode_run(false)?;
    let (spt_bytes, spt_cost, spt_delivered) = tree_mode_run(true)?;
    let row = |name: &str, bytes: String, cost: String| vec![name.to_string(), bytes, cost];
    r.table(
        &format!(
            "A7 — shared MST vs per-source trees (60 nodes, 6 streams, 24 queries, \
             {mst_delivered} deliveries)"
        ),
        &["dissemination", "bytes", "delay-weighted cost"],
        [
            row(
                "shared MST",
                mst_bytes.to_string(),
                format!("{mst_cost:.1}"),
            ),
            row(
                "per-source SPTs",
                spt_bytes.to_string(),
                format!("{spt_cost:.1}"),
            ),
            row(
                "SPT / MST",
                format!("{:.3}", spt_bytes as f64 / mst_bytes as f64),
                format!("{:.3}", spt_cost / mst_cost),
            ),
        ],
    );
    r.check(
        "both modes deliver the same results",
        mst_delivered == spt_delivered,
    );
    Ok(())
}

/// Overlay size of A8.
const A8_NODES: u64 = 1000;

/// Nodes that store each schema in the DHT.
const A8_REPLICAS: u64 = 3;

/// Control messages, `(flooding, DHT)`, to register `streams` streams
/// on A8's nodes and resolve each one `lookups` times. Flooding sends a
/// registration to every node, which then resolves it locally; the DHT
/// sends it to `min(A8_REPLICAS, nodes)` replicas, and every lookup is a
/// request and a response.
fn registry_messages(streams: u64, lookups: u64) -> (u64, u64) {
    let flooding = streams * A8_NODES;
    let dht = streams * A8_REPLICAS.min(A8_NODES) + 2 * streams * lookups;
    (flooding, dht)
}

/// A8 — schema distribution. Section 3: "if the number of streams is
/// small, the schema information of the streams will be flooded to every
/// node upon its arrival. Otherwise, we use a DHT architecture to store
/// the schema information while using the unique stream name as the
/// hashing key." The deployment keeps one logical registry, so A8 prices
/// the two storage modes with [`registry_messages`]' cost model: control
/// messages for a few consumers per stream (sparse) and for every node
/// resolving every stream (hot).
fn schema_registry(r: &mut Report, scale: Scale) {
    let streams: &[u64] = match scale {
        Scale::Quick => &[8, 63, 500],
        Scale::Paper => &[8, 63, 500, 5000],
    };
    let mut rows = Vec::new();
    let (mut sparse_dht, mut hot_flooding) = (true, true);
    for (regime, lookups) in [("sparse (3 lookups)", 3), ("hot (1000 lookups)", 1000)] {
        for &n in streams {
            let (flood, dht) = registry_messages(n, lookups);
            if lookups == 3 {
                sparse_dht &= dht < flood;
            } else {
                hot_flooding &= flood < dht;
            }
            let cheaper = if dht < flood { "DHT" } else { "flooding" };
            let counts = [n, flood, dht].map(|c| c.to_string());
            rows.push([&[regime.to_string()], &counts[..], &[cheaper.to_string()]].concat());
        }
    }
    r.table(
        &format!("A8 — schema distribution on {A8_NODES} nodes"),
        &["regime", "#streams", "flooding msgs", "DHT msgs", "cheaper"],
        rows,
    );
    r.check("the DHT is cheaper in every sparse row", sparse_dht);
    r.check("flooding is cheaper in every hot row", hot_flooding);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doctored_results_fail_their_checks() {
        let point = |queries, x| Fig4Point {
            queries,
            benefit_ratio: x,
            rate_benefit_ratio: x,
            grouping_ratio: 1.0 - x,
        };
        let mut series: Vec<_> = FIG4_FAMILIES
            .into_iter()
            .zip([0.1, 0.2, 0.3, 0.4])
            .map(|(pop, x)| (pop, vec![point(100, x), point(200, x + 0.05)]))
            .collect();
        let failed = |series: &[(Popularity, Vec<Fig4Point>)]| {
            let mut r = Report::default();
            fig4_tables(&mut r, "doctored", series);
            r.failed
        };
        assert_eq!(failed(&series), Vec::<String>::new());
        // Swap the uniform and zipf2 columns: the query-count trends
        // still hold, the skew trend of every table fails.
        series.swap(0, 3);
        let claims = failed(&series);
        assert_eq!(claims.len(), 3, "{claims:?}");
        assert!(claims.iter().all(|c| c.contains("with skew")));

        let mut run = Fig3Run {
            trunk: 2,
            results: [[5, 7], [5, 7]],
            links: vec![[100, 80], [100, 80], [30, 40], [50, 50]],
        };
        let failed = |run: &Fig3Run| {
            let mut r = Report::default();
            fig3_table(&mut r, run);
            r.failed
        };
        assert_eq!(failed(&run), Vec::<String>::new());
        // The second trunk link carries more with sharing.
        run.links[1] = [100, 120];
        assert_eq!(
            failed(&run),
            ["2-hop trunk: sharing carries fewer bytes on every trunk link"]
        );
    }
}
