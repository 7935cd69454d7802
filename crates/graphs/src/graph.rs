//! The core immutable undirected graph type.

use std::fmt;

/// Identifier of a node in a [`Graph`].
///
/// Node identifiers are dense indices `0..n`. They are *not* the CONGEST
/// model IDs visible to the algorithm — those are assigned separately through
/// [`crate::ids::IdAssignment`] so that lower-bound constructions can control
/// the ID space precisely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the node index as a `usize` suitable for indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(value: usize) -> Self {
        NodeId(u32::try_from(value).expect("node index exceeds u32::MAX"))
    }
}

/// Identifier of an undirected edge in a [`Graph`].
///
/// Edge identifiers are dense indices `0..m` in the order edges were added to
/// the [`crate::GraphBuilder`] (after deduplication).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// Returns the edge index as a `usize` suitable for indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl From<usize> for EdgeId {
    fn from(value: usize) -> Self {
        EdgeId(u32::try_from(value).expect("edge index exceeds u32::MAX"))
    }
}

/// An immutable, undirected, simple graph in compressed sparse row (CSR)
/// form: one flat `(neighbour, edge)` array indexed by per-node offsets,
/// with each node's slice sorted by neighbour.
///
/// The flat layout keeps the whole adjacency structure in two allocations
/// (instead of one `Vec` per node), so neighbour iteration is a contiguous
/// scan and the simulator's hot loop stays cache-friendly on graphs with
/// hundreds of thousands of nodes.
///
/// The graph doubles as the communication network of the CONGEST simulator,
/// so it exposes both neighbour iteration and `(neighbour, edge)` iteration —
/// the latter is what the simulator's message metering uses to charge
/// per-edge counters.
///
/// # Example
///
/// ```
/// use symbreak_graphs::{GraphBuilder, NodeId};
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(NodeId(0), NodeId(1));
/// b.add_edge(NodeId(1), NodeId(2));
/// let g = b.build();
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.neighbors(NodeId(1)).count(), 2);
/// assert!(g.has_edge(NodeId(0), NodeId(1)));
/// assert!(!g.has_edge(NodeId(0), NodeId(2)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    /// CSR row offsets: node `v`'s `(neighbour, edge)` pairs occupy
    /// `targets[offsets[v] as usize .. offsets[v + 1] as usize]`.
    /// Always has `num_nodes() + 1` entries; the last equals `2 * m`.
    offsets: Vec<u32>,
    /// Flat `(neighbour, incident edge)` pairs of every node, row by row,
    /// each row sorted by neighbour.
    targets: Vec<(NodeId, EdgeId)>,
    /// `edges[e]` is the pair of endpoints `(u, v)` with `u < v`.
    edges: Vec<(NodeId, NodeId)>,
}

impl Graph {
    /// Assembles a graph from prebuilt CSR arrays. The builder is the only
    /// caller; it guarantees that `offsets` is monotone with `n + 1` entries,
    /// that every row of `targets` is sorted by neighbour, and that `targets`
    /// mirrors `edges` exactly twice.
    pub(crate) fn from_csr(
        offsets: Vec<u32>,
        targets: Vec<(NodeId, EdgeId)>,
        edges: Vec<(NodeId, NodeId)>,
    ) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().unwrap() as usize, targets.len());
        debug_assert_eq!(targets.len(), 2 * edges.len());
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        Graph {
            offsets,
            targets,
            edges,
        }
    }

    /// Creates a graph with `n` nodes and no edges.
    ///
    /// ```
    /// let g = symbreak_graphs::Graph::empty(4);
    /// assert_eq!(g.num_nodes(), 4);
    /// assert_eq!(g.num_edges(), 0);
    /// ```
    pub fn empty(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            targets: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// The CSR row of `v`: its `(neighbour, edge)` pairs sorted by neighbour.
    #[inline]
    fn row(&self, v: NodeId) -> &[(NodeId, EdgeId)] {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        &self.targets[lo..hi]
    }

    /// The CSR row of `v`: its `(neighbour, edge)` pairs sorted by
    /// neighbour, borrowed in place so callers (the overlay's merge iterator,
    /// the KT-ρ radius tests) can merge or binary-search rows without
    /// copying.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbor_slice(&self, v: NodeId) -> &[(NodeId, EdgeId)] {
        self.row(v)
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Iterates over all node identifiers `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes() as u32).map(NodeId)
    }

    /// Iterates over all edges as `(EdgeId, u, v)` triples with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, &(u, v))| (EdgeId(i as u32), u, v))
    }

    /// Returns the endpoints `(u, v)` (with `u < v`) of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not a valid edge of this graph.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.edges[e.index()]
    }

    /// Given an edge and one endpoint, returns the opposite endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not an endpoint of `e`.
    #[inline]
    pub fn other_endpoint(&self, e: EdgeId, v: NodeId) -> NodeId {
        let (a, b) = self.endpoints(e);
        if v == a {
            b
        } else if v == b {
            a
        } else {
            panic!("{v} is not an endpoint of {e}");
        }
    }

    /// Degree of node `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v.index() + 1] - self.offsets[v.index()]) as usize
    }

    /// Maximum degree Δ of the graph (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Iterates over the neighbours of `v` in increasing [`NodeId`] order.
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.row(v).iter().map(|&(u, _)| u)
    }

    /// Iterates over `(neighbour, incident edge)` pairs of `v` in increasing
    /// neighbour order.
    pub fn incident(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        self.row(v).iter().copied()
    }

    /// Returns the edge between `u` and `v`, if any.
    pub fn edge_between(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        let row = self.row(u);
        row.binary_search_by_key(&v, |&(w, _)| w)
            .ok()
            .map(|i| row[i].1)
    }

    /// Returns `true` if `u` and `v` are adjacent.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_between(u, v).is_some()
    }

    /// Returns the set of neighbours of `v` as a sorted vector.
    pub fn neighbor_vec(&self, v: NodeId) -> Vec<NodeId> {
        self.neighbors(v).collect()
    }

    /// Returns all nodes at distance exactly two from `v` (excluding `v` and
    /// its neighbours), in increasing order.
    ///
    /// This is the extra initial knowledge a node has in the KT-2 CONGEST
    /// model and is used by Algorithm 3 of the paper.
    ///
    /// Runs in `O(sum of neighbour degrees + output·log(output))`: a seen
    /// bitmap over the node space replaces per-candidate adjacency searches.
    pub fn two_hop_neighbors(&self, v: NodeId) -> Vec<NodeId> {
        let mut seen = vec![false; self.num_nodes()];
        // Distance-0 and distance-1 nodes are excluded by pre-marking them.
        seen[v.index()] = true;
        for u in self.neighbors(v) {
            seen[u.index()] = true;
        }
        let mut out = Vec::new();
        for u in self.neighbors(v) {
            for w in self.neighbors(u) {
                if !seen[w.index()] {
                    seen[w.index()] = true;
                    out.push(w);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Sum of all node degrees; equals `2 * num_edges()`.
    pub fn degree_sum(&self) -> usize {
        self.targets.len()
    }

    /// Average degree `2m / n`; 0.0 for an empty graph.
    pub fn average_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.degree_sum() as f64 / self.num_nodes() as f64
        }
    }

    /// Builds a new graph that keeps only the edges for which `keep` returns
    /// `true`. Node identifiers are preserved; edge identifiers are
    /// renumbered. The returned vector maps new [`EdgeId`]s to old ones.
    pub fn filter_edges<F>(&self, mut keep: F) -> (Graph, Vec<EdgeId>)
    where
        F: FnMut(EdgeId, NodeId, NodeId) -> bool,
    {
        let mut builder = crate::GraphBuilder::new(self.num_nodes());
        let mut mapping = Vec::new();
        for (e, u, v) in self.edges() {
            if keep(e, u, v) {
                builder.add_edge(u, v);
                mapping.push(e);
            }
        }
        (builder.build(), mapping)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn path3() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(2));
        b.build()
    }

    #[test]
    fn empty_graph_has_no_edges() {
        let g = Graph::empty(5);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.degree_sum(), 0);
        assert_eq!(g.average_degree(), 0.0);
    }

    #[test]
    fn endpoints_are_ordered() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(3), NodeId(1));
        let g = b.build();
        assert_eq!(g.endpoints(EdgeId(0)), (NodeId(1), NodeId(3)));
    }

    #[test]
    fn other_endpoint_returns_opposite() {
        let g = path3();
        let e = g.edge_between(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(g.other_endpoint(e, NodeId(0)), NodeId(1));
        assert_eq!(g.other_endpoint(e, NodeId(1)), NodeId(0));
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn other_endpoint_panics_for_non_endpoint() {
        let g = path3();
        let e = g.edge_between(NodeId(0), NodeId(1)).unwrap();
        let _ = g.other_endpoint(e, NodeId(2));
    }

    #[test]
    fn neighbors_are_sorted() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(NodeId(2), NodeId(4));
        b.add_edge(NodeId(2), NodeId(0));
        b.add_edge(NodeId(2), NodeId(3));
        let g = b.build();
        let ns: Vec<_> = g.neighbors(NodeId(2)).collect();
        assert_eq!(ns, vec![NodeId(0), NodeId(3), NodeId(4)]);
    }

    #[test]
    fn edge_between_finds_edges_in_both_directions() {
        let g = path3();
        assert!(g.edge_between(NodeId(0), NodeId(1)).is_some());
        assert!(g.edge_between(NodeId(1), NodeId(0)).is_some());
        assert!(g.edge_between(NodeId(0), NodeId(2)).is_none());
    }

    #[test]
    fn two_hop_neighbors_of_path() {
        let g = path3();
        assert_eq!(g.two_hop_neighbors(NodeId(0)), vec![NodeId(2)]);
        assert_eq!(g.two_hop_neighbors(NodeId(1)), Vec::<NodeId>::new());
    }

    #[test]
    fn two_hop_excludes_direct_neighbors() {
        // Triangle: every pair is adjacent, so no 2-hop-only neighbours.
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(2));
        b.add_edge(NodeId(0), NodeId(2));
        let g = b.build();
        for v in g.nodes() {
            assert!(g.two_hop_neighbors(v).is_empty());
        }
    }

    #[test]
    fn filter_edges_keeps_subset() {
        let g = crate::generators::clique(4);
        let (h, mapping) = g.filter_edges(|_, u, _| u == NodeId(0));
        assert_eq!(h.num_nodes(), 4);
        assert_eq!(h.num_edges(), 3);
        assert_eq!(mapping.len(), 3);
        for &e in &mapping {
            let (u, _v) = g.endpoints(e);
            assert_eq!(u, NodeId(0));
        }
    }

    #[test]
    fn degree_sum_is_twice_edge_count() {
        let g = crate::generators::clique(6);
        assert_eq!(g.degree_sum(), 2 * g.num_edges());
    }

    #[test]
    fn csr_rows_partition_the_target_array() {
        let g = crate::generators::clique(5);
        let total: usize = g.nodes().map(|v| g.degree(v)).sum();
        assert_eq!(total, g.degree_sum());
        // Every incident pair names an edge whose endpoints include v.
        for v in g.nodes() {
            for (u, e) in g.incident(v) {
                let (a, b) = g.endpoints(e);
                assert!(a == v || b == v);
                assert!(u == a || u == b);
                assert_ne!(u, v);
            }
        }
    }

    #[test]
    fn empty_rows_between_occupied_rows() {
        // Node 1 is isolated between two nodes of positive degree.
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(2));
        let g = b.build();
        assert_eq!(g.degree(NodeId(0)), 1);
        assert_eq!(g.degree(NodeId(1)), 0);
        assert_eq!(g.neighbors(NodeId(1)).count(), 0);
        assert_eq!(g.degree(NodeId(2)), 1);
    }

    #[test]
    fn two_hop_on_star_is_all_other_leaves() {
        let g = crate::generators::star(6);
        // From a leaf, every other leaf is exactly two hops away.
        let hops = g.two_hop_neighbors(NodeId(1));
        assert_eq!(hops, vec![NodeId(2), NodeId(3), NodeId(4), NodeId(5)]);
        // From the centre, everything is one hop away.
        assert!(g.two_hop_neighbors(NodeId(0)).is_empty());
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId(7).to_string(), "v7");
        assert_eq!(EdgeId(3).to_string(), "e3");
    }
}
