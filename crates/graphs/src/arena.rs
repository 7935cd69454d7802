//! Flat CSR-style adjacency arenas for *derived* neighbour lists.
//!
//! Algorithm layers repeatedly need "the neighbours of `v` that satisfy a
//! predicate" — same-bucket neighbours of a coloring stage, the sampled-set
//! neighbours of Algorithm 3, the undecided remnant lists handed to Luby.
//! Materialising those as `Vec<Vec<NodeId>>` costs one allocation per node
//! before a single round runs. An [`AdjacencyArena`] mirrors [`Graph`]'s own
//! `offsets`/`targets` layout instead: one flat values array plus per-node
//! offsets, filled in a single pass over the graph's CSR rows, so building a
//! stage's active lists is two allocations total and each row is a contiguous
//! (sorted) slice.

use crate::{Graph, NodeId};

/// A flat per-node adjacency table: `row(v)` is a contiguous slice of
/// `NodeId`s, stored CSR-style (one offsets array, one values array).
///
/// [`AdjacencyArena::from_filtered`] walks [`Graph`] rows, so every row is
/// sorted ascending like the graph's own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdjacencyArena {
    /// Row `v` occupies `targets[offsets[v] as usize .. offsets[v+1] as usize]`.
    offsets: Vec<u32>,
    /// All rows, flattened into one allocation.
    targets: Vec<NodeId>,
}

impl AdjacencyArena {
    /// An arena with `n` empty rows.
    pub fn empty(n: usize) -> Self {
        AdjacencyArena {
            offsets: vec![0; n + 1],
            targets: Vec::new(),
        }
    }

    /// Builds the arena in one pass over the graph's CSR rows, keeping the
    /// neighbours `u` of each node `v` for which `keep(v, u)` returns `true`.
    /// Rows stay sorted ascending (the graph's row order).
    pub fn from_filtered<P>(graph: &Graph, mut keep: P) -> Self
    where
        P: FnMut(NodeId, NodeId) -> bool,
    {
        let n = graph.num_nodes();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(graph.degree_sum());
        offsets.push(0u32);
        for v in graph.nodes() {
            targets.extend(graph.neighbors(v).filter(|&u| keep(v, u)));
            offsets.push(targets.len() as u32);
        }
        AdjacencyArena { offsets, targets }
    }

    /// Number of rows (nodes).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Row `v` as a contiguous slice.
    #[inline]
    pub fn row(&self, v: NodeId) -> &[NodeId] {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Length of row `v`.
    #[inline]
    pub fn row_len(&self, v: NodeId) -> usize {
        (self.offsets[v.index() + 1] - self.offsets[v.index()]) as usize
    }

    /// Total number of stored entries across all rows.
    #[inline]
    pub fn total_len(&self) -> usize {
        self.targets.len()
    }

    /// Whether `u` appears in row `v`: a binary search, since every row is
    /// sorted.
    #[inline]
    pub fn row_contains(&self, v: NodeId, u: NodeId) -> bool {
        self.row(v).binary_search(&u).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn from_filtered_matches_per_node_filtering() {
        let g = generators::clique(7);
        let keep_even = |_, u: NodeId| u.0.is_multiple_of(2);
        let arena = AdjacencyArena::from_filtered(&g, keep_even);
        assert_eq!(arena.num_nodes(), 7);
        for v in g.nodes() {
            let expected: Vec<NodeId> = g.neighbors(v).filter(|&u| u.0.is_multiple_of(2)).collect();
            assert_eq!(arena.row(v), expected.as_slice());
            assert_eq!(arena.row_len(v), expected.len());
            for u in g.nodes() {
                assert_eq!(arena.row_contains(v, u), expected.contains(&u));
            }
        }
        assert_eq!(
            arena.total_len(),
            g.nodes().map(|v| arena.row_len(v)).sum::<usize>()
        );
    }

    #[test]
    fn empty_arena_has_empty_rows() {
        let arena = AdjacencyArena::empty(4);
        assert_eq!(arena.num_nodes(), 4);
        for i in 0..4 {
            assert!(arena.row(NodeId(i)).is_empty());
        }
        assert_eq!(arena.total_len(), 0);
    }
}
