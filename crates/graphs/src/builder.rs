//! Incremental construction of [`Graph`] values.
//!
//! [`GraphBuilder`] only records each fed pair, normalized to `u < v`;
//! duplicates are dropped once, by [`GraphBuilder::build`]. Its counting
//! sort lays every fed pair into both endpoints' CSR rows, and sorting a
//! row by `(neighbour, input index)` puts all copies of a pair side by
//! side, first copy first. The build keeps that first copy and drops every
//! later one, then renumbers the kept pairs in input order. The result
//! equals what a builder that rejected each duplicate on arrival would
//! produce, [`EdgeId`]s included.
//!
//! Memory: 8 bytes per fed pair while collecting. The build holds the
//! pairs, the CSR's `n + 1` offsets and 16 bytes of row entries per fed
//! pair; only when some pair was fed twice does it add a 4-byte renumbering
//! slot per fed pair.

use crate::{EdgeId, Graph, NodeId};

/// Marks a dropped copy in [`GraphBuilder::build`]'s renumbering table.
const DROPPED: u32 = u32::MAX;

/// Builder for [`Graph`].
///
/// Self-loops are rejected and duplicate edges are deduplicated, so the
/// resulting graph is always simple. Edges are numbered in insertion order of
/// their *first* occurrence.
///
/// # Example
///
/// ```
/// use symbreak_graphs::{GraphBuilder, NodeId};
///
/// let mut b = GraphBuilder::new(4);
/// b.add_edge(NodeId(0), NodeId(1));
/// b.add_edge(NodeId(1), NodeId(0)); // duplicate, dropped by `build`
/// let g = b.build();
/// assert_eq!(g.num_edges(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    num_nodes: usize,
    /// Every fed pair as `(min, max)`, duplicates included, in input order.
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` nodes and no edges yet.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            num_nodes: n,
            edges: Vec::new(),
        }
    }

    /// Number of nodes the built graph will have.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Adds the undirected edge `{u, v}`. Feeding an edge again, in either
    /// orientation, is allowed; [`GraphBuilder::build`] keeps its first copy.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` (self-loop) or if either endpoint is out of range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        assert!(u != v, "self-loop {u} is not allowed in a simple graph");
        assert!(
            u.index() < self.num_nodes && v.index() < self.num_nodes,
            "edge {{{u}, {v}}} has an endpoint outside 0..{}",
            self.num_nodes
        );
        self.edges.push(if u < v { (u, v) } else { (v, u) });
    }

    /// Adds every edge from an iterator of `(u, v)` pairs.
    pub fn add_edges<I>(&mut self, edges: I) -> &mut Self
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        for (u, v) in edges {
            self.add_edge(u, v);
        }
        self
    }

    /// Finalises the builder into an immutable [`Graph`].
    ///
    /// The CSR arrays are assembled directly with a counting sort over the
    /// fed pairs, and the sorted rows expose the duplicates (see the module
    /// docs); no per-node `Vec`s.
    ///
    /// # Panics
    ///
    /// Panics if `2³¹` or more pairs were fed, duplicates included — the
    /// CSR offsets index the fed pairs' half-edges with `u32`s.
    pub fn build(self) -> Graph {
        let n = self.num_nodes;
        let mut edges = self.edges;
        assert!(
            2 * edges.len() <= u32::MAX as usize,
            "{} edges were fed; the CSR u32 offsets support at most 2^31 - 1",
            edges.len()
        );
        let mut offsets = vec![0u32; n + 1];
        for &(u, v) in &edges {
            offsets[u.index() + 1] += 1;
            offsets[v.index() + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut targets = vec![(NodeId(0), EdgeId(0)); 2 * edges.len()];
        for (i, &(u, v)) in edges.iter().enumerate() {
            let e = EdgeId(i as u32);
            targets[cursor[u.index()] as usize] = (v, e);
            cursor[u.index()] += 1;
            targets[cursor[v.index()] as usize] = (u, e);
            cursor[v.index()] += 1;
        }
        // `renumber[i]` is the final id of fed pair `i`, or `DROPPED`;
        // allocated on the first duplicate found.
        let mut renumber: Vec<u32> = Vec::new();
        for i in 0..n {
            let row = &mut targets[offsets[i] as usize..offsets[i + 1] as usize];
            row.sort_unstable();
            for w in row.windows(2) {
                if w[0].0 == w[1].0 {
                    if renumber.is_empty() {
                        renumber = vec![0; edges.len()];
                    }
                    renumber[w[1].1.index()] = DROPPED;
                }
            }
        }
        if !renumber.is_empty() {
            drop_later_copies(&mut offsets, &mut targets, &mut edges, &mut renumber);
        }
        Graph::from_csr(offsets, targets, edges)
    }
}

/// Removes the pairs `renumber` marks `DROPPED` from the edge list and the
/// CSR rows, renumbering the kept ones `0..` in input order. Rows shrink in
/// place and stay sorted.
fn drop_later_copies(
    offsets: &mut [u32],
    targets: &mut Vec<(NodeId, EdgeId)>,
    edges: &mut Vec<(NodeId, NodeId)>,
    renumber: &mut [u32],
) {
    for (next, id) in renumber.iter_mut().filter(|id| **id != DROPPED).enumerate() {
        *id = next as u32;
    }
    let mut write = 0;
    let mut start = 0;
    for offset in &mut offsets[1..] {
        let end = *offset as usize;
        for read in start..end {
            let (w, e) = targets[read];
            let id = renumber[e.index()];
            if id != DROPPED {
                targets[write] = (w, EdgeId(id));
                write += 1;
            }
        }
        start = end;
        *offset = write as u32;
    }
    targets.truncate(write);
    let mut ids = renumber.iter();
    edges.retain(|_| ids.next() != Some(&DROPPED));
}

impl FromIterator<(NodeId, NodeId)> for GraphBuilder {
    /// Collects an edge list into a builder sized to the largest endpoint.
    fn from_iter<T: IntoIterator<Item = (NodeId, NodeId)>>(iter: T) -> Self {
        let edges: Vec<(NodeId, NodeId)> = iter.into_iter().collect();
        let n = edges
            .iter()
            .map(|&(u, v)| u.index().max(v.index()) + 1)
            .max()
            .unwrap_or(0);
        let mut b = GraphBuilder::new(n);
        b.add_edges(edges);
        b
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    /// The builder as it was before duplicates moved to `build`: a
    /// `BTreeSet` rejects each duplicate on arrival, and the CSR is
    /// assembled from the surviving pairs.
    fn btree_build(n: usize, pairs: &[(NodeId, NodeId)]) -> Graph {
        let mut seen = BTreeSet::new();
        let mut edges = Vec::new();
        for &(u, v) in pairs {
            let key = if u < v { (u, v) } else { (v, u) };
            if seen.insert(key) {
                edges.push(key);
            }
        }
        let mut offsets = vec![0u32; n + 1];
        for &(u, v) in &edges {
            offsets[u.index() + 1] += 1;
            offsets[v.index() + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut targets = vec![(NodeId(0), EdgeId(0)); 2 * edges.len()];
        for (i, &(u, v)) in edges.iter().enumerate() {
            let e = EdgeId(i as u32);
            targets[cursor[u.index()] as usize] = (v, e);
            cursor[u.index()] += 1;
            targets[cursor[v.index()] as usize] = (u, e);
            cursor[v.index()] += 1;
        }
        for i in 0..n {
            targets[offsets[i] as usize..offsets[i + 1] as usize].sort_unstable_by_key(|&(w, _)| w);
        }
        Graph::from_csr(offsets, targets, edges)
    }

    fn build(n: usize, pairs: &[(NodeId, NodeId)]) -> Graph {
        let mut b = GraphBuilder::new(n);
        b.add_edges(pairs.iter().copied());
        b.build()
    }

    /// `len` random pairs over `n` nodes; about half repeat an earlier pair,
    /// in a random orientation.
    fn random_pairs(n: usize, len: usize, rng: &mut StdRng) -> Vec<(NodeId, NodeId)> {
        let mut pairs: Vec<(NodeId, NodeId)> = Vec::with_capacity(len);
        while pairs.len() < len {
            let (u, v) = if !pairs.is_empty() && rng.gen_bool(0.5) {
                pairs[rng.gen_range(0..pairs.len())]
            } else {
                (
                    NodeId(rng.gen_range(0..n as u32)),
                    NodeId(rng.gen_range(0..n as u32)),
                )
            };
            if u != v {
                pairs.push(if rng.gen_bool(0.5) { (u, v) } else { (v, u) });
            }
        }
        pairs
    }

    #[test]
    fn build_matches_the_btree_builder() {
        let mut rng = StdRng::seed_from_u64(0xb17d);
        for &(n, len) in &[(2, 1), (2, 9), (5, 12), (30, 200), (200, 600), (1000, 5000)] {
            for _ in 0..4 {
                let pairs = random_pairs(n, len, &mut rng);
                assert_eq!(build(n, &pairs), btree_build(n, &pairs), "n={n} len={len}");
            }
        }
        for n in [0, 1, 7] {
            assert_eq!(build(n, &[]), btree_build(n, &[]), "n={n}, no pairs");
        }
    }

    #[test]
    fn all_duplicates_keep_the_first_copy() {
        let pairs: Vec<(NodeId, NodeId)> = (0..50)
            .map(|i| {
                if i % 2 == 0 {
                    (NodeId(4), NodeId(1))
                } else {
                    (NodeId(1), NodeId(4))
                }
            })
            .collect();
        let g = build(6, &pairs);
        assert_eq!(g, btree_build(6, &pairs));
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.endpoints(EdgeId(0)), (NodeId(1), NodeId(4)));
    }

    #[test]
    fn dedup_edges() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(1), NodeId(2));
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(2), NodeId(1));
        b.add_edge(NodeId(1), NodeId(0));
        b.add_edge(NodeId(0), NodeId(2));
        let g = b.build();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.endpoints(EdgeId(0)), (NodeId(1), NodeId(2)));
        assert_eq!(g.endpoints(EdgeId(1)), (NodeId(0), NodeId(1)));
        assert_eq!(g.endpoints(EdgeId(2)), (NodeId(0), NodeId(2)));
        assert_eq!(
            g.neighbor_slice(NodeId(1)),
            &[(NodeId(0), EdgeId(1)), (NodeId(2), EdgeId(0))]
        );
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn reject_self_loop() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(1), NodeId(1));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn reject_out_of_range() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(5));
    }

    #[test]
    fn from_iterator_sizes_to_max_endpoint() {
        let b: GraphBuilder = vec![(NodeId(0), NodeId(3)), (NodeId(2), NodeId(1))]
            .into_iter()
            .collect();
        let g = b.build();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 2);
    }
}
