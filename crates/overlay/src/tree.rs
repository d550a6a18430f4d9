//! Rooted dissemination trees.
//!
//! COSMOS organizes CBN nodes "into multiple overlay dissemination trees"
//! (Section 3.2). A [`Tree`] is one such tree: it answers the routing
//! question the data layer needs — the unique tree path between two
//! nodes — and supports the re-attachment moves of the adaptive
//! reorganizer.

use cosmos_types::{CosmosError, NodeId, Result};

/// A rooted spanning tree over nodes `0..n`.
#[derive(Debug, Clone)]
pub struct Tree {
    root: NodeId,
    parent: Vec<Option<NodeId>>,
    children: Vec<Vec<NodeId>>,
    depth: Vec<u32>,
}

impl Tree {
    /// Build a tree from `(parent, child)` edges. Every node except the
    /// root must appear exactly once as a child, and the edges must form
    /// a single connected tree.
    pub fn from_edges(n: usize, root: NodeId, edges: &[(NodeId, NodeId)]) -> Result<Tree> {
        if root.index() >= n {
            return Err(CosmosError::Overlay(format!("unknown root {root}")));
        }
        if edges.len() != n.saturating_sub(1) {
            return Err(CosmosError::Overlay(format!(
                "a tree over {n} nodes needs {} edges, got {}",
                n.saturating_sub(1),
                edges.len()
            )));
        }
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for &(p, c) in edges {
            if p.index() >= n || c.index() >= n {
                return Err(CosmosError::Overlay(format!("edge {p}-{c} out of range")));
            }
            if c == root {
                return Err(CosmosError::Overlay(format!("root {root} has a parent")));
            }
            if parent[c.index()].is_some() {
                return Err(CosmosError::Overlay(format!("node {c} has two parents")));
            }
            parent[c.index()] = Some(p);
            children[p.index()].push(c);
        }
        // Depths via BFS from the root; also validates connectivity and
        // acyclicity (every node reached exactly once).
        let mut depth = vec![u32::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        depth[root.index()] = 0;
        queue.push_back(root);
        let mut seen = 1usize;
        while let Some(u) = queue.pop_front() {
            for &c in &children[u.index()] {
                if depth[c.index()] != u32::MAX {
                    return Err(CosmosError::Overlay(format!("cycle through {c}")));
                }
                depth[c.index()] = depth[u.index()] + 1;
                seen += 1;
                queue.push_back(c);
            }
        }
        if seen != n {
            return Err(CosmosError::Overlay(
                "edges do not connect all nodes to the root".into(),
            ));
        }
        Ok(Tree {
            root,
            parent,
            children,
            depth,
        })
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.parent.len()
    }

    /// Parent of a node (`None` for the root).
    pub fn parent(&self, u: NodeId) -> Option<NodeId> {
        self.parent[u.index()]
    }

    /// Children of a node.
    pub fn children(&self, u: NodeId) -> &[NodeId] {
        &self.children[u.index()]
    }

    /// Depth of a node (root = 0).
    pub fn depth(&self, u: NodeId) -> u32 {
        self.depth[u.index()]
    }

    /// Degree of a node inside the tree (children + parent link).
    pub fn tree_degree(&self, u: NodeId) -> usize {
        self.children[u.index()].len() + usize::from(self.parent[u.index()].is_some())
    }

    /// Iterate over `(parent, child)` edges.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.parent
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|p| (p, NodeId(i as u32))))
    }

    /// The unique tree path from `u` to `v`, inclusive of both endpoints.
    pub fn path(&self, u: NodeId, v: NodeId) -> Vec<NodeId> {
        // Walk both endpoints up to their lowest common ancestor.
        let (mut a, mut b) = (u, v);
        let mut left = vec![a];
        let mut right = vec![b];
        while self.depth[a.index()] > self.depth[b.index()] {
            a = self.parent[a.index()].expect("non-root has parent");
            left.push(a);
        }
        while self.depth[b.index()] > self.depth[a.index()] {
            b = self.parent[b.index()].expect("non-root has parent");
            right.push(b);
        }
        while a != b {
            a = self.parent[a.index()].expect("non-root has parent");
            b = self.parent[b.index()].expect("non-root has parent");
            left.push(a);
            right.push(b);
        }
        // `left` ends at the LCA; `right` also ends at the LCA.
        right.pop();
        right.reverse();
        left.extend(right);
        left
    }

    /// The links of [`Tree::path`] as canonical `(min, max)` pairs.
    pub fn path_links(&self, u: NodeId, v: NodeId) -> Vec<(NodeId, NodeId)> {
        let p = self.path(u, v);
        p.windows(2)
            .map(|w| (w[0].min(w[1]), w[0].max(w[1])))
            .collect()
    }

    /// Nodes of the subtree rooted at `u` (preorder, including `u`).
    pub fn subtree(&self, u: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![u];
        while let Some(x) = stack.pop() {
            out.push(x);
            stack.extend(self.children[x.index()].iter().copied());
        }
        out
    }

    /// Detach the subtree rooted at `u` and reattach it under
    /// `new_parent`. Fails if `u` is the root or `new_parent` lies inside
    /// `u`'s subtree (which would create a cycle).
    pub fn reattach(&mut self, u: NodeId, new_parent: NodeId) -> Result<()> {
        let Some(old_parent) = self.parent[u.index()] else {
            return Err(CosmosError::Overlay(format!("cannot move the root {u}")));
        };
        if new_parent == old_parent {
            return Ok(());
        }
        if self.subtree(u).contains(&new_parent) {
            return Err(CosmosError::Overlay(format!(
                "reattaching {u} under its own descendant {new_parent}"
            )));
        }
        self.children[old_parent.index()].retain(|&c| c != u);
        self.children[new_parent.index()].push(u);
        self.parent[u.index()] = Some(new_parent);
        // Recompute depths of the moved subtree.
        let base = self.depth[new_parent.index()] + 1;
        let mut stack = vec![(u, base)];
        while let Some((x, d)) = stack.pop() {
            self.depth[x.index()] = d;
            for &c in &self.children[x.index()] {
                stack.push((c, d + 1));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    ///        0
    ///       / \
    ///      1   2
    ///     / \   \
    ///    3   4   5
    fn sample() -> Tree {
        Tree::from_edges(
            6,
            NodeId(0),
            &[
                (NodeId(0), NodeId(1)),
                (NodeId(0), NodeId(2)),
                (NodeId(1), NodeId(3)),
                (NodeId(1), NodeId(4)),
                (NodeId(2), NodeId(5)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn structure_queries() {
        let t = sample();
        assert_eq!(t.root(), NodeId(0));
        assert_eq!(t.node_count(), 6);
        assert_eq!(t.parent(NodeId(4)), Some(NodeId(1)));
        assert_eq!(t.parent(NodeId(0)), None);
        assert_eq!(t.children(NodeId(1)), &[NodeId(3), NodeId(4)]);
        assert_eq!(t.depth(NodeId(5)), 2);
        assert_eq!(t.tree_degree(NodeId(1)), 3);
        assert_eq!(t.tree_degree(NodeId(0)), 2);
        assert_eq!(t.edges().count(), 5);
    }

    #[test]
    fn paths_cross_the_lca() {
        let t = sample();
        assert_eq!(
            t.path(NodeId(3), NodeId(5)),
            vec![NodeId(3), NodeId(1), NodeId(0), NodeId(2), NodeId(5)]
        );
        assert_eq!(
            t.path(NodeId(3), NodeId(4)),
            vec![NodeId(3), NodeId(1), NodeId(4)]
        );
        assert_eq!(t.path(NodeId(1), NodeId(3)), vec![NodeId(1), NodeId(3)]);
        assert_eq!(t.path(NodeId(2), NodeId(2)), vec![NodeId(2)]);
    }

    #[test]
    fn path_links_are_canonical() {
        let t = sample();
        let links = t.path_links(NodeId(3), NodeId(4));
        assert_eq!(links, vec![(NodeId(1), NodeId(3)), (NodeId(1), NodeId(4))]);
    }

    #[test]
    fn subtree_enumeration() {
        let t = sample();
        let mut s = t.subtree(NodeId(1));
        s.sort_unstable();
        assert_eq!(s, vec![NodeId(1), NodeId(3), NodeId(4)]);
        assert_eq!(t.subtree(NodeId(5)), vec![NodeId(5)]);
    }

    #[test]
    fn reattach_moves_subtrees() {
        let mut t = sample();
        t.reattach(NodeId(1), NodeId(2)).unwrap();
        assert_eq!(t.parent(NodeId(1)), Some(NodeId(2)));
        assert_eq!(t.depth(NodeId(3)), 3);
        assert!(t.children(NodeId(0)).iter().all(|&c| c != NodeId(1)));
        // no-op reattach to the same parent
        t.reattach(NodeId(5), NodeId(2)).unwrap();
        // cannot create a cycle
        assert!(t.reattach(NodeId(2), NodeId(3)).is_err());
        // cannot move the root
        assert!(t.reattach(NodeId(0), NodeId(1)).is_err());
    }

    #[test]
    fn from_edges_validation() {
        // wrong edge count
        assert!(Tree::from_edges(3, NodeId(0), &[(NodeId(0), NodeId(1))]).is_err());
        // two parents
        assert!(Tree::from_edges(
            3,
            NodeId(0),
            &[(NodeId(0), NodeId(2)), (NodeId(1), NodeId(2))]
        )
        .is_err());
        // root as child
        assert!(Tree::from_edges(2, NodeId(0), &[(NodeId(1), NodeId(0))]).is_err());
        // disconnected (self-referential pair)
        assert!(Tree::from_edges(
            4,
            NodeId(0),
            &[
                (NodeId(0), NodeId(1)),
                (NodeId(2), NodeId(3)),
                (NodeId(3), NodeId(2))
            ]
        )
        .is_err());
        // unknown root
        assert!(Tree::from_edges(2, NodeId(9), &[(NodeId(0), NodeId(1))]).is_err());
    }
}
