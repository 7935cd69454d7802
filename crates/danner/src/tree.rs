//! Rooted BFS spanning trees, the skeleton for broadcast and convergecast.

use symbreak_graphs::{properties, Graph, NodeId};

/// A rooted BFS tree of a connected graph.
///
/// The children lists are stored CSR-style in one allocation: node `v`'s
/// children, ascending, are
/// `children[child_offsets[v] as usize..child_offsets[v + 1] as usize]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfsTree {
    root: NodeId,
    parent: Vec<Option<NodeId>>,
    child_offsets: Vec<u32>,
    children: Vec<NodeId>,
    depth: Vec<u32>,
}

impl BfsTree {
    /// Builds the BFS tree of `graph` rooted at `root`.
    ///
    /// # Panics
    ///
    /// Panics if some node is unreachable from `root` (the tree must span).
    pub fn rooted_at(graph: &Graph, root: NodeId) -> Self {
        let parents = properties::bfs_parents(graph, root);
        let depths = properties::bfs_distances(graph, root);
        let n = graph.num_nodes();
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        // Count each node's children, prefix-sum the counts into row starts,
        // then place the children in ascending order behind their cursors.
        let mut child_offsets = vec![0u32; n + 1];
        for v in graph.nodes() {
            let p = parents[v.index()]
                .unwrap_or_else(|| panic!("node {v} is unreachable from the root {root}"));
            if v != root {
                parent[v.index()] = Some(p);
                child_offsets[p.index() + 1] += 1;
            }
        }
        for i in 0..n {
            child_offsets[i + 1] += child_offsets[i];
        }
        let mut cursor = child_offsets[..n].to_vec();
        let mut children = vec![root; n.saturating_sub(1)];
        for (v, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                children[cursor[p.index()] as usize] = NodeId(v as u32);
                cursor[p.index()] += 1;
            }
        }
        BfsTree {
            root,
            parent,
            child_offsets,
            children,
            depth: depths,
        }
    }

    /// The root of the tree.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes in the tree.
    pub fn num_nodes(&self) -> usize {
        self.parent.len()
    }

    /// Parent of `v` (`None` for the root).
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.parent[v.index()]
    }

    /// Children of `v`, ascending.
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        let i = v.index();
        &self.children[self.child_offsets[i] as usize..self.child_offsets[i + 1] as usize]
    }

    /// Depth of `v` (0 for the root).
    pub fn depth(&self, v: NodeId) -> u32 {
        self.depth[v.index()]
    }

    /// Height of the tree: the maximum depth of any node.
    pub fn height(&self) -> u32 {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// Number of tree edges (`n − 1` for `n ≥ 1`).
    pub fn num_edges(&self) -> usize {
        self.num_nodes().saturating_sub(1)
    }

    /// Iterates over the tree edges as `(child, parent)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.parent
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|p| (NodeId(i as u32), p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use symbreak_graphs::generators;

    #[test]
    fn tree_of_path() {
        let g = generators::path(5);
        let t = BfsTree::rooted_at(&g, NodeId(0));
        assert_eq!(t.root(), NodeId(0));
        assert_eq!(t.height(), 4);
        assert_eq!(t.num_edges(), 4);
        assert_eq!(t.parent(NodeId(3)), Some(NodeId(2)));
        assert_eq!(t.children(NodeId(2)), &[NodeId(3)]);
        assert_eq!(t.depth(NodeId(4)), 4);
    }

    #[test]
    fn tree_edges_connect_parent_levels() {
        let g = generators::clique(6);
        let t = BfsTree::rooted_at(&g, NodeId(3));
        assert_eq!(t.height(), 1);
        for (child, parent) in t.edges() {
            assert_eq!(t.depth(child), t.depth(parent) + 1);
            assert!(g.has_edge(child, parent));
        }
        assert_eq!(t.edges().count(), 5);
    }

    #[test]
    fn children_rows_list_each_parents_children_ascending() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let g = generators::connected_gnp(60, 0.05, &mut rng);
        let t = BfsTree::rooted_at(&g, NodeId(17));
        assert!(t.height() >= 3, "the tree has inner levels");
        let mut seen = 0;
        for p in g.nodes() {
            let expected: Vec<NodeId> = g.nodes().filter(|&v| t.parent(v) == Some(p)).collect();
            assert_eq!(t.children(p), expected.as_slice(), "children of {p}");
            seen += expected.len();
        }
        assert_eq!(seen, t.num_edges());
    }

    #[test]
    #[should_panic(expected = "unreachable")]
    fn disconnected_graph_rejected() {
        let g = generators::disjoint_union(&[generators::path(2), generators::path(2)]);
        let _ = BfsTree::rooted_at(&g, NodeId(0));
    }
}
