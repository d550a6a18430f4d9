//! Weighted undirected overlay graphs with planar node positions.

use cosmos_types::{CosmosError, NodeId, Result};
use std::collections::BTreeMap;

/// An undirected overlay graph.
///
/// Nodes are dense ids `0..n`. Each node has a position in the unit
/// square; link weights default to the Euclidean distance between the
/// endpoints, which is the BRITE convention for link delay.
///
/// Links carry up/down state: [`Graph::fail_link`] removes a link from
/// the adjacency lists (so neighbor iteration, shortest paths, and
/// spanning trees all exclude it automatically) while remembering its
/// weight, and [`Graph::heal_link`] restores it. Downed pairs are also
/// excluded from [`Graph::link_delay`], the single pricing function the
/// tree optimizer and the runtime byte accounting share.
#[derive(Debug, Clone)]
pub struct Graph {
    adj: Vec<Vec<(NodeId, f64)>>,
    pos: Vec<(f64, f64)>,
    edges: usize,
    /// Failed links by canonical `(min, max)` endpoint pair. The value
    /// is the weight the edge had when it failed (`None` when the pair
    /// had no underlying graph edge — a repair-created logical link).
    downed: BTreeMap<(NodeId, NodeId), Option<f64>>,
}

impl Graph {
    /// An edgeless graph of `n` nodes placed at the origin.
    pub fn new(n: usize) -> Graph {
        Graph {
            adj: vec![Vec::new(); n],
            pos: vec![(0.0, 0.0); n],
            edges: 0,
            downed: BTreeMap::new(),
        }
    }

    fn canon(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
        (u.min(v), u.max(v))
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.adj.len() as u32).map(NodeId)
    }

    /// Set the planar position of a node.
    pub fn set_position(&mut self, u: NodeId, x: f64, y: f64) {
        self.pos[u.index()] = (x, y);
    }

    /// The planar position of a node.
    pub fn position(&self, u: NodeId) -> (f64, f64) {
        self.pos[u.index()]
    }

    /// Euclidean distance between two nodes' positions (the *potential*
    /// delay of an overlay link between them, whether or not one exists).
    pub fn distance(&self, u: NodeId, v: NodeId) -> f64 {
        let (x1, y1) = self.pos[u.index()];
        let (x2, y2) = self.pos[v.index()];
        ((x1 - x2).powi(2) + (y1 - y2).powi(2)).sqrt()
    }

    /// Add an undirected edge with an explicit weight.
    ///
    /// Rejects self-loops and duplicate edges.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: f64) -> Result<()> {
        if u == v {
            return Err(CosmosError::Overlay(format!("self loop at {u}")));
        }
        let (ui, vi) = (u.index(), v.index());
        if ui >= self.adj.len() || vi >= self.adj.len() {
            return Err(CosmosError::Overlay(format!(
                "edge {u}-{v} references unknown node (n={})",
                self.adj.len()
            )));
        }
        if self.adj[ui].iter().any(|(n, _)| *n == v) {
            return Err(CosmosError::Overlay(format!("duplicate edge {u}-{v}")));
        }
        self.adj[ui].push((v, w));
        self.adj[vi].push((u, w));
        self.edges += 1;
        Ok(())
    }

    /// Add an edge weighted by the endpoint distance.
    pub fn add_edge_by_distance(&mut self, u: NodeId, v: NodeId) -> Result<()> {
        let w = self.distance(u, v).max(f64::EPSILON);
        self.add_edge(u, v, w)
    }

    /// Whether the edge `u - v` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.adj
            .get(u.index())
            .is_some_and(|ns| ns.iter().any(|(n, _)| *n == v))
    }

    /// Weight of the edge `u - v`, if present.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        self.adj
            .get(u.index())?
            .iter()
            .find(|(n, _)| *n == v)
            .map(|(_, w)| *w)
    }

    /// Neighbors of `u` with edge weights.
    pub fn neighbors(&self, u: NodeId) -> &[(NodeId, f64)] {
        &self.adj[u.index()]
    }

    /// Degree of `u`.
    pub fn degree(&self, u: NodeId) -> usize {
        self.adj[u.index()].len()
    }

    /// Mark the link `u - v` as failed.
    ///
    /// A live graph edge is removed from the adjacency lists — so
    /// neighbor iteration, Dijkstra, Prim, and degree counts all exclude
    /// it with no further bookkeeping — and its weight is remembered for
    /// [`Graph::heal_link`]. A pair with no underlying edge (a
    /// repair-created logical link) is recorded as down too, so
    /// [`Graph::link_delay`] stops pricing it. Failing an already-downed
    /// link is an error.
    pub fn fail_link(&mut self, u: NodeId, v: NodeId) -> Result<()> {
        if u == v {
            return Err(CosmosError::Overlay(format!(
                "cannot fail self loop at {u}"
            )));
        }
        if u.index() >= self.adj.len() || v.index() >= self.adj.len() {
            return Err(CosmosError::Overlay(format!(
                "link {u}-{v} references unknown node (n={})",
                self.adj.len()
            )));
        }
        let key = Self::canon(u, v);
        if self.downed.contains_key(&key) {
            return Err(CosmosError::Overlay(format!(
                "link {u}-{v} is already down"
            )));
        }
        let weight = self.edge_weight(u, v);
        if weight.is_some() {
            self.adj[u.index()].retain(|(n, _)| *n != v);
            self.adj[v.index()].retain(|(n, _)| *n != u);
            self.edges -= 1;
        }
        self.downed.insert(key, weight);
        Ok(())
    }

    /// Restore a link previously failed with [`Graph::fail_link`],
    /// re-adding the edge with its original weight (a no-op for downed
    /// pairs that never had a graph edge). Healing a link that is not
    /// down is an error.
    pub fn heal_link(&mut self, u: NodeId, v: NodeId) -> Result<()> {
        match self.downed.remove(&Self::canon(u, v)) {
            None => Err(CosmosError::Overlay(format!("link {u}-{v} is not down"))),
            Some(None) => Ok(()),
            Some(Some(w)) => self.add_edge(u, v, w),
        }
    }

    /// Whether the link `u - v` is currently marked down.
    pub fn is_link_down(&self, u: NodeId, v: NodeId) -> bool {
        self.downed.contains_key(&Self::canon(u, v))
    }

    /// The delay of the logical link `u - v` — the one number both cost
    /// estimation ([`TreeOptimizer::cost`](crate::TreeOptimizer)) and
    /// runtime byte accounting must read so measured and estimated
    /// weighted cost agree:
    ///
    /// - `Some(weight)` for a live graph edge;
    /// - `None` for a downed pair (the link is unusable at any price);
    /// - `Some(distance.max(ε))` otherwise — the potential delay of a
    ///   repair-created logical link with no physical edge.
    pub fn link_delay(&self, u: NodeId, v: NodeId) -> Option<f64> {
        if let Some(w) = self.edge_weight(u, v) {
            return Some(w);
        }
        if self.is_link_down(u, v) {
            return None;
        }
        Some(self.distance(u, v).max(f64::EPSILON))
    }

    /// Whether every node is reachable from node 0.
    pub fn is_connected(&self) -> bool {
        if self.adj.is_empty() {
            return true;
        }
        crate::paths::bfs_reachable(self, NodeId(0)).len() == self.adj.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query_edges() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1.5).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 2.5).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.has_edge(NodeId(1), NodeId(0)));
        assert!(!g.has_edge(NodeId(0), NodeId(2)));
        assert_eq!(g.edge_weight(NodeId(1), NodeId(2)), Some(2.5));
        assert_eq!(g.edge_weight(NodeId(0), NodeId(2)), None);
        assert_eq!(g.degree(NodeId(1)), 2);
        assert_eq!(g.nodes().count(), 3);
    }

    #[test]
    fn rejects_bad_edges() {
        let mut g = Graph::new(2);
        assert!(g.add_edge(NodeId(0), NodeId(0), 1.0).is_err());
        assert!(g.add_edge(NodeId(0), NodeId(5), 1.0).is_err());
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        assert!(g.add_edge(NodeId(1), NodeId(0), 2.0).is_err());
    }

    #[test]
    fn distance_follows_positions() {
        let mut g = Graph::new(2);
        g.set_position(NodeId(0), 0.0, 0.0);
        g.set_position(NodeId(1), 3.0, 4.0);
        assert!((g.distance(NodeId(0), NodeId(1)) - 5.0).abs() < 1e-12);
        g.add_edge_by_distance(NodeId(0), NodeId(1)).unwrap();
        assert!((g.edge_weight(NodeId(0), NodeId(1)).unwrap() - 5.0).abs() < 1e-12);
        assert_eq!(g.position(NodeId(1)), (3.0, 4.0));
    }

    #[test]
    fn connectivity() {
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 1.0).unwrap();
        assert!(!g.is_connected());
        g.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        assert!(g.is_connected());
        assert!(Graph::new(0).is_connected());
        assert!(Graph::new(1).is_connected());
    }

    #[test]
    fn fail_and_heal_link_round_trip() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1.5).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 2.5).unwrap();
        g.fail_link(NodeId(1), NodeId(0)).unwrap();
        assert!(g.is_link_down(NodeId(0), NodeId(1)));
        assert!(!g.has_edge(NodeId(0), NodeId(1)));
        assert_eq!(g.edge_weight(NodeId(0), NodeId(1)), None);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(NodeId(1)), 1);
        assert!(!g.is_connected());
        // double-fail and healing an up link are errors
        assert!(g.fail_link(NodeId(0), NodeId(1)).is_err());
        assert!(g.heal_link(NodeId(1), NodeId(2)).is_err());
        g.heal_link(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(g.edge_weight(NodeId(0), NodeId(1)), Some(1.5));
        assert_eq!(g.edge_count(), 2);
        assert!(!g.is_link_down(NodeId(0), NodeId(1)));
        assert!(g.is_connected());
    }

    #[test]
    fn fail_link_on_logical_pair_prices_as_unusable() {
        let mut g = Graph::new(3);
        g.set_position(NodeId(0), 0.0, 0.0);
        g.set_position(NodeId(2), 0.6, 0.8);
        // no 0-2 edge: link_delay falls back to the distance
        assert!((g.link_delay(NodeId(0), NodeId(2)).unwrap() - 1.0).abs() < 1e-12);
        g.fail_link(NodeId(0), NodeId(2)).unwrap();
        assert_eq!(g.link_delay(NodeId(0), NodeId(2)), None);
        assert_eq!(g.edge_count(), 0);
        g.heal_link(NodeId(0), NodeId(2)).unwrap();
        // healing a logical pair restores the distance fallback, no edge
        assert!(!g.has_edge(NodeId(0), NodeId(2)));
        assert!((g.link_delay(NodeId(0), NodeId(2)).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn link_delay_prefers_edge_weight_over_distance() {
        let mut g = Graph::new(2);
        g.set_position(NodeId(0), 0.0, 0.0);
        g.set_position(NodeId(1), 0.3, 0.4);
        g.add_edge(NodeId(0), NodeId(1), 5.0).unwrap();
        // the explicit weight wins even though the distance is 0.5
        assert_eq!(g.link_delay(NodeId(0), NodeId(1)), Some(5.0));
        assert_eq!(g.link_delay(NodeId(1), NodeId(0)), Some(5.0));
    }

    #[test]
    fn fail_link_rejects_bad_pairs() {
        let mut g = Graph::new(2);
        assert!(g.fail_link(NodeId(0), NodeId(0)).is_err());
        assert!(g.fail_link(NodeId(0), NodeId(7)).is_err());
    }
}
