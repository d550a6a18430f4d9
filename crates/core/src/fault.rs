//! Data-layer fault tolerance (Section 2's second fault-tolerance
//! function: "providing highly available data transmission service").
//!
//! The paper defers this topic for space; we implement the natural
//! mechanism for a tree-structured CBN: when a dissemination-tree link
//! fails, it is first marked down in the overlay [`Graph`] (removing it
//! from neighbor lists, shortest paths, spanning trees, and
//! [`Graph::link_delay`] pricing, so no later reorganization can
//! silently re-adopt it), then every dissemination tree that used the
//! link — the shared tree and, in per-source-tree mode, each affected
//! per-source tree — is repaired by re-attaching its orphaned subtree
//! to the closest surviving node (overlay links are logical, so any
//! *live* pair may become a tree edge). Finally every subscription is
//! re-propagated along the new tree paths from the high-level
//! subscription log. Queries keep running; only data in flight during
//! the repair is lost, matching the paper's gap-recovery-style
//! guarantee for the data layer. [`Cosmos::heal_tree_link`] reverses
//! the graph marking so later reorganizations may use the link again.
//!
//! [`Graph`]: cosmos_overlay::Graph
//! [`Graph::link_delay`]: cosmos_overlay::Graph::link_delay

use crate::system::Cosmos;
use cosmos_overlay::{Graph, Tree};
use cosmos_types::{CosmosError, NodeId, Result};

/// The child endpoint of `a - b` if it is an edge of `tree`.
fn child_of(tree: &Tree, a: NodeId, b: NodeId) -> Option<NodeId> {
    if tree.parent(a) == Some(b) {
        Some(a)
    } else if tree.parent(b) == Some(a) {
        Some(b)
    } else {
        None
    }
}

/// Reconnect the subtree orphaned by the failure of the link above
/// `child` over the cheapest live pair across the cut, pricing
/// candidate healing links with [`Graph::link_delay`] so downed pairs
/// (including the failed link itself) are never considered. When the
/// best pair's orphan endpoint is not the orphan root the component is
/// re-rooted around it; ties prefer the lowest node ids, keeping the
/// repair deterministic.
fn repair_tree(graph: &Graph, tree: &mut Tree, child: NodeId) -> Result<()> {
    let orphaned = tree.subtree(child);
    let n = tree.node_count();
    let mut in_subtree = vec![false; n];
    for u in &orphaned {
        in_subtree[u.index()] = true;
    }
    let old_parent = tree.parent(child).expect("child has a parent");
    let mut best: Option<(f64, NodeId, NodeId)> = None;
    for &u in &orphaned {
        for v in graph.nodes() {
            if in_subtree[v.index()] {
                continue;
            }
            let Some(d) = graph.link_delay(u, v) else {
                continue; // downed pair — unusable at any price
            };
            let better = best.is_none_or(|(bd, bu, bv)| d < bd || (d == bd && (u, v) < (bu, bv)));
            if better {
                best = Some((d, u, v));
            }
        }
    }
    let Some((_, u, v)) = best else {
        return Err(CosmosError::Overlay(
            "no surviving link to re-attach the subtree over".into(),
        ));
    };
    if u == child {
        return tree.reattach(child, v);
    }
    // The healing link lands inside the orphan: rebuild the tree from
    // its undirected edges with the cut removed and u-v added, which
    // re-roots the orphan component at `u`.
    let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for (p, c) in tree.edges() {
        if (p, c) == (old_parent, child) {
            continue;
        }
        adj[p.index()].push(c);
        adj[c.index()].push(p);
    }
    adj[u.index()].push(v);
    adj[v.index()].push(u);
    let root = tree.root();
    let mut seen = vec![false; n];
    seen[root.index()] = true;
    let mut queue = std::collections::VecDeque::from([root]);
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    while let Some(x) = queue.pop_front() {
        for &y in &adj[x.index()] {
            if !seen[y.index()] {
                seen[y.index()] = true;
                edges.push((x, y));
                queue.push_back(y);
            }
        }
    }
    *tree = Tree::from_edges(n, root, &edges)?;
    Ok(())
}

impl Cosmos {
    /// Fail the dissemination-tree link between `a` and `b`: mark it
    /// down in the overlay graph and repair every tree that used it by
    /// re-attaching the orphaned subtree at the closest surviving node.
    /// All subscriptions are re-propagated.
    ///
    /// In per-source-tree mode each affected per-source tree is
    /// repaired independently (the same reattach procedure per tree).
    pub fn fail_tree_link(&mut self, a: NodeId, b: NodeId) -> Result<()> {
        let topo = &mut self.data.topology;
        // Identify every tree that carries this link before mutating
        // anything (origin order keeps the repair order deterministic).
        let shared_child = child_of(&topo.tree, a, b);
        let source_children: Vec<(NodeId, NodeId)> = topo
            .source_trees
            .iter()
            .filter_map(|(&origin, tree)| child_of(tree, a, b).map(|c| (origin, c)))
            .collect();
        if shared_child.is_none() && source_children.is_empty() {
            return Err(CosmosError::Overlay(format!(
                "{a} - {b} is not a dissemination-tree link"
            )));
        }
        // Snapshot the affected trees so an unrepairable failure (no
        // live link across the cut) can be rolled back atomically.
        let saved_shared = shared_child.map(|_| topo.tree.clone());
        let saved_sources: Vec<(NodeId, Tree)> = source_children
            .iter()
            .map(|&(origin, _)| (origin, topo.source_trees[&origin].clone()))
            .collect();
        // Mark the link down first so the survivor searches below (and
        // any later optimize_tree / MST rebuild) can never route
        // through it or re-adopt it.
        topo.graph.fail_link(a, b)?;
        let mut res = Ok(());
        if let Some(child) = shared_child {
            res = repair_tree(&topo.graph, &mut topo.tree, child);
        }
        for &(origin, child) in &source_children {
            if res.is_ok() {
                let tree = topo.source_trees.get_mut(&origin).expect("collected above");
                res = repair_tree(&topo.graph, tree, child);
            }
        }
        if let Err(e) = res {
            // Roll back: the link comes back up and every tree keeps
            // its pre-failure shape.
            if let Some(saved) = saved_shared {
                topo.tree = saved;
            }
            topo.source_trees.extend(saved_sources);
            let _ = topo.graph.heal_link(a, b);
            return Err(e);
        }
        self.rebuild_routes();
        Ok(())
    }

    /// Bring a previously failed link back up. The dissemination trees
    /// keep their repaired shape — the healed link simply becomes
    /// available again to `optimize_tree` and future repairs.
    pub fn heal_tree_link(&mut self, a: NodeId, b: NodeId) -> Result<()> {
        self.data.topology.graph.heal_link(a, b)
    }
}

#[cfg(test)]
mod tests {
    use crate::system::{Cosmos, CosmosConfig};
    use cosmos_overlay::{Graph, OptimizerConfig, TreeOptimizer};
    use cosmos_query::{AttrStats, StreamStats};
    use cosmos_types::{AttrType, NodeId, Schema, Timestamp, Tuple, Value};

    /// A ring-capable overlay: line 0-1-2-3 plus a spare edge 0-3 that
    /// the repair can fall back on.
    fn ring_system() -> Cosmos {
        ring_system_with(CosmosConfig::default())
    }

    fn ring_system_with(cfg: CosmosConfig) -> Cosmos {
        let mut g = Graph::new(4);
        g.set_position(NodeId(0), 0.0, 0.0);
        g.set_position(NodeId(1), 0.3, 0.0);
        g.set_position(NodeId(2), 0.6, 0.0);
        g.set_position(NodeId(3), 0.9, 0.0);
        for i in 0..3u32 {
            g.add_edge_by_distance(NodeId(i), NodeId(i + 1)).unwrap();
        }
        g.add_edge(NodeId(0), NodeId(3), 5.0).unwrap(); // expensive spare
        let mut sys = Cosmos::with_graph(
            CosmosConfig {
                nodes: 4,
                processor_fraction: 0.25,
                ..cfg
            },
            g,
        )
        .unwrap();
        sys.register_stream(
            "S",
            Schema::of(&[("k", AttrType::Int), ("timestamp", AttrType::Int)]),
            StreamStats::with_rate(1.0).attr("k", AttrStats::categorical(10.0)),
            NodeId(0),
        )
        .unwrap();
        sys
    }

    fn tup(ts: i64, k: i64) -> Tuple {
        Tuple::new("S", Timestamp(ts), vec![Value::Int(k), Value::Int(ts)])
    }

    #[test]
    fn delivery_resumes_after_link_failure() {
        let mut sys = ring_system();
        let q = sys
            .submit_query("SELECT k FROM S [Now]", NodeId(3))
            .unwrap();
        sys.run((0..5).map(|i| tup(i * 1000, i))).unwrap();
        assert_eq!(sys.results(q).len(), 5);
        // Fail the tree link feeding node 3's path (2-3).
        sys.fail_tree_link(NodeId(2), NodeId(3)).unwrap();
        // Node 3 must have been re-attached outside the old parent.
        assert_ne!(sys.tree().parent(NodeId(3)), Some(NodeId(2)));
        // New data still arrives.
        sys.run((5..10).map(|i| tup(i * 1000, i))).unwrap();
        assert_eq!(sys.results(q).len(), 10);
    }

    #[test]
    fn repairing_a_trunk_link_reroutes_a_whole_subtree() {
        let mut sys = ring_system();
        let q2 = sys
            .submit_query("SELECT k FROM S [Now]", NodeId(2))
            .unwrap();
        let q3 = sys
            .submit_query("SELECT k FROM S [Now]", NodeId(3))
            .unwrap();
        sys.fail_tree_link(NodeId(1), NodeId(2)).unwrap();
        sys.run((0..4).map(|i| tup(i * 1000, i))).unwrap();
        assert_eq!(sys.results(q2).len(), 4);
        assert_eq!(sys.results(q3).len(), 4);
    }

    #[test]
    fn non_tree_links_cannot_fail() {
        let mut sys = ring_system();
        // 0-3 is a graph edge but not a tree edge (MST avoids weight 5).
        assert!(sys.fail_tree_link(NodeId(0), NodeId(3)).is_err());
        // arbitrary non-adjacent pair
        assert!(sys.fail_tree_link(NodeId(0), NodeId(2)).is_err());
    }

    #[test]
    fn rebuild_routes_is_idempotent() {
        let mut sys = ring_system();
        let q = sys
            .submit_query("SELECT k FROM S [Now]", NodeId(2))
            .unwrap();
        sys.rebuild_routes();
        sys.rebuild_routes();
        sys.run((0..3).map(|i| tup(i * 1000, i))).unwrap();
        assert_eq!(sys.results(q).len(), 3);
    }

    /// Satellite-1 regression: a failed link is marked down in the
    /// overlay graph, so a later tree re-optimization can never
    /// re-adopt it — and delivery still works after the re-optimization.
    #[test]
    fn downed_edge_is_never_readopted_by_reoptimization() {
        let mut sys = ring_system();
        let q = sys
            .submit_query("SELECT k FROM S [Now]", NodeId(3))
            .unwrap();
        sys.fail_tree_link(NodeId(2), NodeId(3)).unwrap();
        assert!(sys.graph().is_link_down(NodeId(2), NodeId(3)));
        assert!(!sys.graph().has_edge(NodeId(2), NodeId(3)));
        // Hill-climb the repaired tree; the downed edge must stay out.
        let report = sys.optimize_tree(OptimizerConfig::default());
        assert!(report.cost_after.is_finite());
        for (p, c) in sys.tree().edges() {
            assert!(
                !sys.graph().is_link_down(p, c),
                "re-optimization re-adopted downed link {p}-{c}"
            );
        }
        sys.run((0..5).map(|i| tup(i * 1000, i))).unwrap();
        assert_eq!(sys.results(q).len(), 5);
        // Healing makes the link available again (tree shape unchanged).
        sys.heal_tree_link(NodeId(2), NodeId(3)).unwrap();
        assert!(sys.graph().has_edge(NodeId(2), NodeId(3)));
        assert!(sys.heal_tree_link(NodeId(2), NodeId(3)).is_err());
    }

    /// Satellite-2 regression: in per-source-tree mode a link failure
    /// degrades gracefully — every per-source tree using the link is
    /// repaired, and both sources keep delivering.
    #[test]
    fn per_source_trees_survive_link_failure() {
        let mut sys = ring_system_with(CosmosConfig {
            per_source_trees: true,
            ..CosmosConfig::default()
        });
        // Second source at the far end: its shortest-path tree uses the
        // failed trunk in the opposite direction.
        sys.register_stream(
            "T",
            Schema::of(&[("k", AttrType::Int), ("timestamp", AttrType::Int)]),
            StreamStats::with_rate(1.0).attr("k", AttrStats::categorical(10.0)),
            NodeId(3),
        )
        .unwrap();
        let qs = sys
            .submit_query("SELECT k FROM S [Now]", NodeId(3))
            .unwrap();
        let qt = sys
            .submit_query("SELECT k FROM T [Now]", NodeId(1))
            .unwrap();
        let t_tup =
            |ts: i64, k: i64| Tuple::new("T", Timestamp(ts), vec![Value::Int(k), Value::Int(ts)]);
        sys.run((0..3).map(|i| tup(i * 1000, i))).unwrap();
        sys.run((0..3).map(|i| t_tup(i * 1000, i))).unwrap();
        assert_eq!(sys.results(qs).len(), 3);
        assert_eq!(sys.results(qt).len(), 3);
        // 1-2 is a trunk edge of both per-source trees.
        sys.fail_tree_link(NodeId(1), NodeId(2)).unwrap();
        for origin in [NodeId(0), NodeId(3)] {
            for (p, c) in sys.tree_for(origin).edges() {
                assert!(
                    !sys.graph().is_link_down(p, c),
                    "tree for {origin} still uses downed link {p}-{c}"
                );
            }
        }
        sys.run((3..8).map(|i| tup(i * 1000, i))).unwrap();
        sys.run((3..8).map(|i| t_tup(i * 1000, i))).unwrap();
        assert_eq!(sys.results(qs).len(), 8);
        assert_eq!(sys.results(qt).len(), 8);
    }

    /// Satellite-3 regression: after repairs put a *weighted* overlay
    /// edge (weight 5.0, distance 0.9) on the delivery path, the
    /// runtime's measured `weighted_cost` and the optimizer's estimated
    /// cost price it identically — both read `Graph::link_delay`.
    #[test]
    fn measured_and_estimated_cost_agree_on_healed_trees() {
        let mut sys = ring_system();
        let q = sys
            .submit_query("SELECT k FROM S [Now]", NodeId(3))
            .unwrap();
        // First failure re-attaches 3 under 1 over a logical link;
        // failing that too leaves only the weight-5.0 spare edge 0-3.
        sys.fail_tree_link(NodeId(2), NodeId(3)).unwrap();
        assert_eq!(sys.tree().parent(NodeId(3)), Some(NodeId(1)));
        sys.fail_tree_link(NodeId(1), NodeId(3)).unwrap();
        assert_eq!(sys.tree().parent(NodeId(3)), Some(NodeId(0)));
        let before = sys.weighted_cost();
        sys.run((0..5).map(|i| tup(i * 1000, i))).unwrap();
        assert_eq!(sys.results(q).len(), 5);
        let measured = sys.weighted_cost() - before;
        // All delivery traffic crossed the single hop 0-3.
        let bytes = sys.link_bytes(NodeId(0), NodeId(3)) as f64;
        assert!(bytes > 0.0);
        let mut demand = vec![0.0; 4];
        demand[3] = bytes;
        let estimated = TreeOptimizer::new(OptimizerConfig {
            w_delay: 1.0,
            w_load: 0.0,
            ..OptimizerConfig::default()
        })
        .cost(sys.graph(), sys.tree(), &demand);
        // Both must price the hop at the edge's weight (5.0), not its
        // endpoint distance (0.9).
        assert!((measured - bytes * 5.0).abs() < 1e-9);
        assert!(
            (measured - estimated).abs() < 1e-9,
            "measured {measured} != estimated {estimated}"
        );
    }
}
