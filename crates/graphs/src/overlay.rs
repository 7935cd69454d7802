//! A mutable adjacency overlay on the immutable CSR [`Graph`].
//!
//! Every engine feature so far (batching, faults, checkpoints)
//! assumes a frozen CSR. Dynamic workloads — edge insert/delete churn
//! against a long-lived graph — need mutation without paying a full CSR
//! rebuild per batch. A [`GraphOverlay`] follows the classic LSM shape: the
//! base [`Graph`] stays immutable, per-node **insert** and **delete** delta
//! lists are consulted *before* the flat arrays on every adjacency lookup,
//! and a periodic [`GraphOverlay::compact`] folds the deltas into a clean
//! CSR (the "rearrange after upload" step of the gral design referenced in
//! the ROADMAP).
//!
//! The merged adjacency view is **bit-identical** to a fresh CSR build of
//! the mutated edge list: [`GraphOverlay::neighbors`] yields each row in
//! ascending order exactly like [`Graph::neighbors`], and
//! [`GraphOverlay::two_hop_neighbors`] runs the same seen-bitmap algorithm
//! as [`Graph::two_hop_neighbors`]. The `churn_equivalence` and overlay
//! compaction suites pin this equivalence after every batch and across
//! compaction boundaries.

use crate::{Graph, GraphBuilder, NodeId};

/// One batch of edge churn: the insertions and deletions to apply together.
///
/// Batches are produced by [`crate::generators::ChurnStream`] (seeded,
/// reproducible) or built by hand in tests; [`GraphOverlay::apply`] applies
/// one in order (deletes first, then inserts, mirroring the order a repair
/// driver wants: deletions never create constraint violations, insertions
/// do).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChurnBatch {
    /// Edges to insert, as unordered endpoint pairs.
    pub inserts: Vec<(NodeId, NodeId)>,
    /// Edges to delete, as unordered endpoint pairs.
    pub deletes: Vec<(NodeId, NodeId)>,
}

impl ChurnBatch {
    /// `true` if the batch contains no operations.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Total number of operations in the batch.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }
}

/// A mutable adjacency overlay: an immutable base CSR plus per-node sorted
/// insert/delete delta lists, merged on the fly.
///
/// Invariants maintained by the mutators:
///
/// * `inserts[v]` is sorted ascending and disjoint from the base row of `v`;
/// * `deletes[v]` is sorted ascending and a subset of the base row of `v`;
/// * both sides of an undirected edge are recorded symmetrically;
/// * re-inserting a base edge deleted earlier *cancels* the delete (and vice
///   versa), so the delta lists never carry redundant entries and their
///   total length bounds the true edit distance to the base.
///
/// # Example
///
/// ```
/// use symbreak_graphs::{generators, overlay::GraphOverlay, NodeId};
///
/// let mut ov = GraphOverlay::new(generators::path(4));
/// assert!(ov.insert_edge(NodeId(0), NodeId(3)));
/// assert!(ov.delete_edge(NodeId(1), NodeId(2)));
/// assert_eq!(ov.neighbor_vec(NodeId(0)), vec![NodeId(1), NodeId(3)]);
/// assert_eq!(ov.num_edges(), 3);
/// let g = ov.compact();
/// assert_eq!(g.num_edges(), 3);
/// assert!(g.has_edge(NodeId(0), NodeId(3)));
/// ```
#[derive(Debug, Clone)]
pub struct GraphOverlay {
    base: Graph,
    /// Per-node inserted neighbours, sorted ascending, disjoint from base.
    inserts: Vec<Vec<NodeId>>,
    /// Per-node deleted neighbours, sorted ascending, subset of base row.
    deletes: Vec<Vec<NodeId>>,
    /// Live (merged) undirected edge count.
    num_edges: usize,
    /// Bumped on every [`GraphOverlay::compact`]; callers caching state
    /// derived from the base CSR (setup plans, query plans) key their
    /// caches on this and rebuild when it moves.
    generation: u64,
}

impl GraphOverlay {
    /// Wraps a base graph with empty delta lists (generation 0).
    pub fn new(base: Graph) -> Self {
        let n = base.num_nodes();
        let m = base.num_edges();
        GraphOverlay {
            base,
            inserts: vec![Vec::new(); n],
            deletes: vec![Vec::new(); n],
            num_edges: m,
            generation: 0,
        }
    }

    /// The immutable base CSR the deltas apply to. Only valid as a
    /// communication substrate for edges not touched since the last
    /// compaction; use [`GraphOverlay::neighbors`] for current adjacency.
    pub fn base(&self) -> &Graph {
        &self.base
    }

    /// Compaction generation: starts at 0, bumped by every
    /// [`GraphOverlay::compact`]. Caches of state derived from
    /// [`GraphOverlay::base`] are invalid once this moves.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of nodes (fixed: churn mutates edges, not the node set).
    pub fn num_nodes(&self) -> usize {
        self.base.num_nodes()
    }

    /// Current number of live undirected edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Total number of pending delta entries (half-edges) across all nodes;
    /// 0 iff the overlay equals its base. Compaction policies trigger on
    /// this.
    pub fn delta_len(&self) -> usize {
        self.inserts.iter().map(Vec::len).sum::<usize>()
            + self.deletes.iter().map(Vec::len).sum::<usize>()
    }

    /// `true` if any delta is pending (the overlay differs from its base).
    pub fn is_dirty(&self) -> bool {
        self.delta_len() > 0
    }

    fn check_endpoints(&self, u: NodeId, v: NodeId) {
        assert!(u != v, "self-loop {u} is not allowed in a simple graph");
        let n = self.num_nodes();
        assert!(
            u.index() < n && v.index() < n,
            "edge {{{u}, {v}}} has an endpoint outside 0..{n}"
        );
    }

    /// Whether `{u, v}` is a live edge: the delete list is consulted first,
    /// then the insert list, then the base CSR.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u == v || u.index() >= self.num_nodes() || v.index() >= self.num_nodes() {
            return false;
        }
        if self.deletes[u.index()].binary_search(&v).is_ok() {
            return false;
        }
        self.inserts[u.index()].binary_search(&v).is_ok() || self.base.has_edge(u, v)
    }

    /// Inserts the undirected edge `{u, v}`. Returns `true` if the edge was
    /// absent (and is now live). Re-inserting a base edge deleted earlier
    /// cancels the pending delete.
    ///
    /// # Panics
    ///
    /// Panics on self-loops and out-of-range endpoints, like
    /// [`GraphBuilder::add_edge`].
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        self.check_endpoints(u, v);
        if self.has_edge(u, v) {
            return false;
        }
        if self.base.has_edge(u, v) {
            // The edge exists in the base and is currently deleted: cancel.
            Self::remove_sorted(&mut self.deletes[u.index()], v);
            Self::remove_sorted(&mut self.deletes[v.index()], u);
        } else {
            Self::insert_sorted(&mut self.inserts[u.index()], v);
            Self::insert_sorted(&mut self.inserts[v.index()], u);
        }
        self.num_edges += 1;
        true
    }

    /// Deletes the undirected edge `{u, v}`. Returns `true` if the edge was
    /// live. Deleting an edge inserted since the last compaction cancels
    /// the pending insert.
    ///
    /// # Panics
    ///
    /// Panics on self-loops and out-of-range endpoints.
    pub fn delete_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        self.check_endpoints(u, v);
        if !self.has_edge(u, v) {
            return false;
        }
        if self.base.has_edge(u, v) {
            Self::insert_sorted(&mut self.deletes[u.index()], v);
            Self::insert_sorted(&mut self.deletes[v.index()], u);
        } else {
            // Live only through the insert list: cancel the pending insert.
            Self::remove_sorted(&mut self.inserts[u.index()], v);
            Self::remove_sorted(&mut self.inserts[v.index()], u);
        }
        self.num_edges -= 1;
        true
    }

    /// Applies one churn batch: deletions first, then insertions. Returns
    /// `(applied_deletes, applied_inserts)` — operations that were no-ops
    /// (deleting an absent edge, inserting a present one) are skipped and
    /// not counted.
    ///
    /// # Panics
    ///
    /// Panics on a self-loop or an out-of-range endpoint in either list,
    /// like [`GraphOverlay::insert_edge`] and [`GraphOverlay::delete_edge`].
    pub fn apply(&mut self, batch: &ChurnBatch) -> (usize, usize) {
        let mut deleted = 0;
        for &(u, v) in &batch.deletes {
            if self.delete_edge(u, v) {
                deleted += 1;
            }
        }
        let mut inserted = 0;
        for &(u, v) in &batch.inserts {
            if self.insert_edge(u, v) {
                inserted += 1;
            }
        }
        (deleted, inserted)
    }

    fn insert_sorted(list: &mut Vec<NodeId>, x: NodeId) {
        if let Err(pos) = list.binary_search(&x) {
            list.insert(pos, x);
        }
    }

    fn remove_sorted(list: &mut Vec<NodeId>, x: NodeId) {
        if let Ok(pos) = list.binary_search(&x) {
            list.remove(pos);
        }
    }

    /// Current degree of `v` under the deltas.
    pub fn degree(&self, v: NodeId) -> usize {
        self.base.degree(v) + self.inserts[v.index()].len() - self.deletes[v.index()].len()
    }

    /// Current maximum degree Δ of the merged graph.
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes() as u32)
            .map(|v| self.degree(NodeId(v)))
            .max()
            .unwrap_or(0)
    }

    /// Iterates over the live neighbours of `v` in increasing [`NodeId`]
    /// order — bit-identical to [`Graph::neighbors`] on a fresh CSR build of
    /// the mutated edge list. The deltas are consulted before the flat
    /// arrays: a three-way sorted merge of the base row (minus the delete
    /// list) with the insert list.
    pub fn neighbors(&self, v: NodeId) -> OverlayNeighbors<'_> {
        OverlayNeighbors {
            base: self.base.neighbor_slice(v),
            inserts: &self.inserts[v.index()],
            deletes: &self.deletes[v.index()],
        }
    }

    /// The live neighbours of `v` as a sorted vector.
    pub fn neighbor_vec(&self, v: NodeId) -> Vec<NodeId> {
        self.neighbors(v).collect()
    }

    /// All nodes at distance exactly two from `v` under the current deltas,
    /// in increasing order — the same seen-bitmap sweep as
    /// [`Graph::two_hop_neighbors`], so the output is bit-identical to a
    /// fresh CSR build of the mutated graph.
    pub fn two_hop_neighbors(&self, v: NodeId) -> Vec<NodeId> {
        let mut seen = vec![false; self.num_nodes()];
        seen[v.index()] = true;
        for u in self.neighbors(v) {
            seen[u.index()] = true;
        }
        let mut out = Vec::new();
        for u in self.neighbor_vec(v) {
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

    /// The live edge list, sorted by `(u, v)` with `u < v` — the canonical
    /// edge order used by [`GraphOverlay::materialize`] and
    /// [`GraphOverlay::compact`], so a compacted graph is **equal** (edge
    /// numbering included) to a scratch [`GraphBuilder`] fed this list.
    pub fn edge_list(&self) -> Vec<(NodeId, NodeId)> {
        let mut edges = Vec::with_capacity(self.num_edges);
        for v in 0..self.num_nodes() as u32 {
            let v = NodeId(v);
            for u in self.neighbors(v) {
                if v < u {
                    edges.push((v, u));
                }
            }
        }
        edges
    }

    /// Builds a clean CSR of the current merged adjacency without touching
    /// the overlay (the deltas stay pending). Edges are fed to the builder
    /// in canonical sorted order (see [`GraphOverlay::edge_list`]).
    pub fn materialize(&self) -> Graph {
        let mut b = GraphBuilder::new(self.num_nodes());
        b.add_edges(self.edge_list());
        b.build()
    }

    /// Folds the deltas into a fresh base CSR, clears them, and bumps the
    /// generation counter. Returns the new base. Derived caches keyed on
    /// [`GraphOverlay::generation`] (setup plans, query plans) are invalid
    /// after this call.
    pub fn compact(&mut self) -> &Graph {
        if self.is_dirty() {
            self.base = self.materialize();
            for list in &mut self.inserts {
                list.clear();
            }
            for list in &mut self.deletes {
                list.clear();
            }
        }
        self.generation += 1;
        &self.base
    }
}

/// Sorted-merge iterator over a node's live neighbours: the base CSR row
/// minus the delete list, unioned with the insert list, ascending.
#[derive(Debug, Clone)]
pub struct OverlayNeighbors<'a> {
    base: &'a [(NodeId, crate::EdgeId)],
    inserts: &'a [NodeId],
    deletes: &'a [NodeId],
}

impl Iterator for OverlayNeighbors<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        loop {
            let b = self.base.first().map(|&(u, _)| u);
            let i = self.inserts.first().copied();
            match (b, i) {
                (None, None) => return None,
                (Some(u), ins) => {
                    // Inserts are disjoint from the base row, so strict
                    // comparison decides which list advances.
                    if ins.is_some_and(|w| w < u) {
                        self.inserts = &self.inserts[1..];
                        return ins;
                    }
                    self.base = &self.base[1..];
                    // The delete list is sorted like the row; pop any
                    // leading entries it has already passed.
                    while self.deletes.first().is_some_and(|&d| d < u) {
                        self.deletes = &self.deletes[1..];
                    }
                    if self.deletes.first() == Some(&u) {
                        self.deletes = &self.deletes[1..];
                        continue;
                    }
                    return Some(u);
                }
                (None, Some(_)) => {
                    self.inserts = &self.inserts[1..];
                    return i;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn fresh(overlay: &GraphOverlay) -> Graph {
        let mut b = GraphBuilder::new(overlay.num_nodes());
        b.add_edges(overlay.edge_list());
        b.build()
    }

    fn assert_matches_fresh(overlay: &GraphOverlay) {
        let g = fresh(overlay);
        assert_eq!(overlay.num_edges(), g.num_edges());
        assert_eq!(overlay.max_degree(), g.max_degree());
        for v in g.nodes() {
            assert_eq!(overlay.neighbor_vec(v), g.neighbor_vec(v), "row of {v}");
            assert_eq!(overlay.degree(v), g.degree(v));
            assert_eq!(
                overlay.two_hop_neighbors(v),
                g.two_hop_neighbors(v),
                "two-hop of {v}"
            );
        }
    }

    #[test]
    fn fresh_overlay_mirrors_base() {
        let ov = GraphOverlay::new(generators::clique(5));
        assert!(!ov.is_dirty());
        assert_eq!(ov.num_edges(), 10);
        assert_matches_fresh(&ov);
    }

    #[test]
    fn insert_and_delete_update_the_merged_view() {
        let mut ov = GraphOverlay::new(generators::path(5));
        assert!(ov.insert_edge(NodeId(0), NodeId(4)));
        assert!(ov.delete_edge(NodeId(1), NodeId(2)));
        assert!(ov.has_edge(NodeId(0), NodeId(4)));
        assert!(!ov.has_edge(NodeId(1), NodeId(2)));
        assert_eq!(ov.num_edges(), 4);
        assert_eq!(ov.delta_len(), 4);
        assert_matches_fresh(&ov);
    }

    #[test]
    fn duplicate_insert_and_absent_delete_are_noops() {
        let mut ov = GraphOverlay::new(generators::path(3));
        assert!(!ov.insert_edge(NodeId(0), NodeId(1)), "base edge");
        assert!(ov.insert_edge(NodeId(0), NodeId(2)));
        assert!(!ov.insert_edge(NodeId(2), NodeId(0)), "pending insert");
        assert!(ov.delete_edge(NodeId(0), NodeId(2)), "live edge");
        assert!(!ov.delete_edge(NodeId(0), NodeId(2)), "already gone");
        assert_matches_fresh(&ov);
    }

    #[test]
    fn reinsert_after_delete_cancels_the_delta() {
        let mut ov = GraphOverlay::new(generators::cycle(4));
        assert!(ov.delete_edge(NodeId(0), NodeId(1)));
        assert!(ov.insert_edge(NodeId(0), NodeId(1)));
        assert!(!ov.is_dirty(), "cancelled deltas leave no residue");
        assert_eq!(ov.num_edges(), 4);
        // And the other direction: insert then delete a non-base edge.
        assert!(ov.insert_edge(NodeId(0), NodeId(2)));
        assert!(ov.delete_edge(NodeId(2), NodeId(0)));
        assert!(!ov.is_dirty());
        assert_matches_fresh(&ov);
    }

    #[test]
    fn isolating_a_node_empties_its_row() {
        let g = generators::star(5);
        let mut ov = GraphOverlay::new(g);
        for leaf in 1..5u32 {
            assert!(ov.delete_edge(NodeId(0), NodeId(leaf)));
        }
        assert_eq!(ov.degree(NodeId(0)), 0);
        assert_eq!(ov.neighbor_vec(NodeId(0)), Vec::<NodeId>::new());
        assert_eq!(ov.num_edges(), 0);
        assert_matches_fresh(&ov);
    }

    #[test]
    fn compact_folds_deltas_and_bumps_generation() {
        let mut ov = GraphOverlay::new(generators::path(4));
        assert_eq!(ov.generation(), 0);
        ov.insert_edge(NodeId(0), NodeId(3));
        ov.delete_edge(NodeId(0), NodeId(1));
        let expect = ov.edge_list();
        ov.compact();
        assert_eq!(ov.generation(), 1);
        assert!(!ov.is_dirty());
        assert_eq!(ov.base().num_edges(), 3);
        let mut b = GraphBuilder::new(4);
        b.add_edges(expect);
        assert_eq!(*ov.base(), b.build(), "compacted CSR equals scratch build");
        assert_matches_fresh(&ov);
    }

    #[test]
    fn deltas_survive_mutation_after_compaction() {
        let mut ov = GraphOverlay::new(generators::cycle(6));
        ov.delete_edge(NodeId(0), NodeId(1));
        ov.compact();
        ov.insert_edge(NodeId(0), NodeId(3));
        assert!(ov.is_dirty());
        assert_eq!(ov.num_edges(), 6);
        assert_matches_fresh(&ov);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn insert_rejects_self_loops() {
        let mut ov = GraphOverlay::new(generators::path(3));
        ov.insert_edge(NodeId(1), NodeId(1));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn insert_rejects_out_of_range() {
        let mut ov = GraphOverlay::new(generators::path(3));
        ov.insert_edge(NodeId(0), NodeId(7));
    }

    #[test]
    fn apply_counts_effective_operations() {
        let mut ov = GraphOverlay::new(generators::path(4));
        let batch = ChurnBatch {
            inserts: vec![
                (NodeId(0), NodeId(2)),
                (NodeId(0), NodeId(2)), // duplicate in the same batch
                (NodeId(1), NodeId(2)), // deleted below, then re-inserted
            ],
            deletes: vec![
                (NodeId(1), NodeId(2)),
                (NodeId(0), NodeId(3)), // absent
            ],
        };
        assert_eq!(batch.len(), 5);
        assert!(!batch.is_empty());
        let (deleted, inserted) = ov.apply(&batch);
        assert_eq!(deleted, 1);
        assert_eq!(inserted, 2);
        assert!(ov.has_edge(NodeId(1), NodeId(2)), "re-inserted in batch");
        assert_matches_fresh(&ov);
    }
}
