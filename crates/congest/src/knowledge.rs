//! Query-time enforcement of KT-ρ initial knowledge.

use std::cmp::Ordering;
use std::slice;

use symbreak_graphs::{EdgeId, Graph, IdAssignment, NodeId};

use crate::KtLevel;

/// A node's view of its initial knowledge under a KT-ρ model.
///
/// Rather than materialising every node's knowledge up front (which would be
/// Θ(n·Δ²) memory in KT-2), the view answers queries lazily against the
/// underlying graph and *checks the permitted radius on every query*: asking
/// for information outside the KT-ρ radius is a bug in the algorithm and
/// panics with a descriptive message. This keeps the simulated algorithms
/// honest about what they are allowed to read "for free".
///
/// The radius tests read the sorted CSR rows in place and never allocate:
/// radius 0 is `v == me`, radius 1 a binary search of this node's row
/// (O(log Δ)), radius 2 additionally a merge of this node's row with `v`'s
/// looking for a common neighbour. Only radius ≥ 3 falls back to a truncated
/// BFS.
#[derive(Debug, Clone, Copy)]
pub struct KnowledgeView<'a> {
    graph: &'a Graph,
    ids: &'a IdAssignment,
    level: KtLevel,
    me: NodeId,
}

impl<'a> KnowledgeView<'a> {
    /// Creates the knowledge view of node `me`.
    #[inline]
    pub fn new(graph: &'a Graph, ids: &'a IdAssignment, level: KtLevel, me: NodeId) -> Self {
        KnowledgeView {
            graph,
            ids,
            level,
            me,
        }
    }

    /// The node whose knowledge this is.
    #[inline]
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The knowledge level ρ.
    #[inline]
    pub fn level(&self) -> KtLevel {
        self.level
    }

    /// Total number of nodes `n` (all algorithms in the paper may assume
    /// knowledge of `n`; see e.g. Theorem 2.10 "even if the vertices know the
    /// size of the network").
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// This node's own ID (always known).
    #[inline]
    pub fn own_id(&self) -> u64 {
        self.ids.id_of(self.me)
    }

    /// This node's degree (always known — ports are visible even in KT-0).
    #[inline]
    pub fn degree(&self) -> usize {
        self.graph.degree(self.me)
    }

    /// The neighbours of this node as simulator addresses (ports). Knowing
    /// which *ports* exist is permitted in every KT level; knowing the IDs
    /// behind them requires KT-1 (see [`Self::neighbor_ids`]).
    pub fn neighbors(&self) -> Vec<NodeId> {
        self.graph.neighbor_vec(self.me)
    }

    /// Whether `v` lies within `radius` hops of this node.
    #[inline]
    fn within(&self, v: NodeId, radius: u32) -> bool {
        match radius {
            0 => v == self.me,
            1 => v == self.me || self.graph.has_edge(self.me, v),
            2 => v == self.me || self.graph.has_edge(self.me, v) || self.shares_neighbor_with(v),
            _ => self.bounded_distance(v, radius).is_some(),
        }
    }

    /// Whether this node and `v` have a common neighbour: one merge of the
    /// two sorted CSR rows.
    #[inline]
    fn shares_neighbor_with(&self, v: NodeId) -> bool {
        if v.index() >= self.graph.num_nodes() {
            return false;
        }
        let (mut a, mut b) = (
            self.graph.neighbor_slice(self.me),
            self.graph.neighbor_slice(v),
        );
        while let (Some(&(x, _)), Some(&(y, _))) = (a.first(), b.first()) {
            match x.cmp(&y) {
                Ordering::Less => a = &a[1..],
                Ordering::Greater => b = &b[1..],
                Ordering::Equal => return true,
            }
        }
        false
    }

    /// Distance from `me` to `v` if it is at most `cap`, computed by a
    /// truncated BFS. Only radii of three and more use it.
    fn bounded_distance(&self, v: NodeId, cap: u32) -> Option<u32> {
        if v == self.me {
            return Some(0);
        }
        if cap == 0 {
            return None;
        }
        let mut dist = vec![u32::MAX; self.graph.num_nodes()];
        dist[self.me.index()] = 0;
        let mut frontier = vec![self.me];
        for d in 1..=cap {
            let mut next = Vec::new();
            for &u in &frontier {
                for w in self.graph.neighbors(u) {
                    if dist[w.index()] == u32::MAX {
                        dist[w.index()] = d;
                        if w == v {
                            return Some(d);
                        }
                        next.push(w);
                    }
                }
            }
            frontier = next;
        }
        None
    }

    /// The ID of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is farther than ρ hops from this node — KT-ρ does not
    /// permit knowing that ID initially.
    #[inline]
    pub fn id_of(&self, v: NodeId) -> u64 {
        assert!(
            self.within(v, self.level.radius()),
            "{} violation: node {} may not initially know the ID of {}",
            self.level,
            self.me,
            v
        );
        self.ids.id_of(v)
    }

    /// The IDs of this node's neighbours, paired with their addresses.
    ///
    /// # Panics
    ///
    /// Panics in KT-0, where neighbour IDs are not part of the initial
    /// knowledge.
    pub fn neighbor_ids(&self) -> Vec<(NodeId, u64)> {
        assert!(
            self.level.radius() >= 1,
            "{} violation: neighbour IDs are not known initially",
            self.level
        );
        self.known_neighbors(self.me).collect()
    }

    /// The neighbours of node `v` with their IDs, in increasing [`NodeId`]
    /// order, read in place from `v`'s CSR row (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if `v` is farther than ρ − 1 hops from this node; KT-ρ only
    /// reveals the neighbourhood of nodes within radius ρ − 1. (The IDs of
    /// those neighbours are then within radius ρ, so they are known too.)
    #[inline]
    pub fn known_neighbors(&self, v: NodeId) -> KnownNeighbors<'a> {
        let r = self.level.radius();
        assert!(
            r >= 1 && self.within(v, r - 1),
            "{} violation: node {} may not initially know the neighbourhood of {}",
            self.level,
            self.me,
            v
        );
        KnownNeighbors {
            row: self.graph.neighbor_slice(v).iter(),
            ids: self.ids,
        }
    }

    /// The neighbours (addresses) of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is farther than ρ − 1 hops from this node; KT-ρ only
    /// reveals the neighbourhood of nodes within radius ρ − 1.
    pub fn neighbors_of(&self, v: NodeId) -> Vec<NodeId> {
        self.known_neighbors(v).map(|(w, _)| w).collect()
    }

    /// The IDs of the neighbours of node `v` (requires `v` within ρ − 1).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Self::neighbors_of`].
    pub fn neighbor_ids_of(&self, v: NodeId) -> Vec<(NodeId, u64)> {
        self.known_neighbors(v).collect()
    }

    /// Whether the edge `{a, b}` is visible in this node's initial knowledge,
    /// i.e. at least one endpoint lies within radius ρ − 1 of this node and
    /// the edge exists.
    #[inline]
    pub fn knows_edge(&self, a: NodeId, b: NodeId) -> bool {
        let r = self.level.radius();
        if r == 0 {
            return false;
        }
        (self.within(a, r - 1) || self.within(b, r - 1)) && self.graph.has_edge(a, b)
    }

    /// Nodes at distance exactly two, visible in KT-2 and above.
    ///
    /// # Panics
    ///
    /// Panics if ρ < 2.
    pub fn two_hop_neighbors(&self) -> Vec<NodeId> {
        assert!(
            self.level.radius() >= 2,
            "{} violation: the two-hop neighbourhood is not known initially",
            self.level
        );
        self.graph.two_hop_neighbors(self.me)
    }

    /// Looks up a node by ID among the nodes whose IDs this node knows
    /// initially (those within radius ρ). Returns `None` for unknown IDs.
    #[inline]
    pub fn known_node_with_id(&self, id: u64) -> Option<NodeId> {
        let v = self.ids.node_with_id(id)?;
        self.within(v, self.level.radius()).then_some(v)
    }
}

/// The neighbours of a node whose neighbourhood is known, paired with their
/// IDs, in increasing [`NodeId`] order. Borrows the graph's CSR row, so
/// iterating allocates nothing; created by
/// [`KnowledgeView::known_neighbors`], which checks the radius once.
#[derive(Debug, Clone)]
pub struct KnownNeighbors<'a> {
    row: slice::Iter<'a, (NodeId, EdgeId)>,
    ids: &'a IdAssignment,
}

impl Iterator for KnownNeighbors<'_> {
    type Item = (NodeId, u64);

    #[inline]
    fn next(&mut self) -> Option<(NodeId, u64)> {
        self.row.next().map(|&(w, _)| (w, self.ids.id_of(w)))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.row.size_hint()
    }
}

impl ExactSizeIterator for KnownNeighbors<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use symbreak_graphs::generators;

    fn setup(level: KtLevel) -> (Graph, IdAssignment, KtLevel) {
        let g = generators::path(4); // 0 - 1 - 2 - 3
        let ids = IdAssignment::from_vec(vec![100, 200, 300, 400]);
        (g, ids, level)
    }

    #[test]
    fn kt1_knows_neighbor_ids() {
        let (g, ids, level) = setup(KtLevel::KT1);
        let k = KnowledgeView::new(&g, &ids, level, NodeId(1));
        assert_eq!(k.own_id(), 200);
        let nbrs = k.neighbor_ids();
        assert_eq!(nbrs, vec![(NodeId(0), 100), (NodeId(2), 300)]);
        assert_eq!(k.id_of(NodeId(2)), 300);
        assert_eq!(k.degree(), 2);
        assert_eq!(k.num_nodes(), 4);
    }

    #[test]
    #[should_panic(expected = "KT-1 violation")]
    fn kt1_does_not_know_two_hop_ids() {
        let (g, ids, level) = setup(KtLevel::KT1);
        let k = KnowledgeView::new(&g, &ids, level, NodeId(0));
        let _ = k.id_of(NodeId(2));
    }

    #[test]
    #[should_panic(expected = "KT-0 violation")]
    fn kt0_does_not_know_neighbor_ids() {
        let (g, ids, level) = setup(KtLevel::KT0);
        let k = KnowledgeView::new(&g, &ids, level, NodeId(0));
        let _ = k.neighbor_ids();
    }

    #[test]
    fn kt2_knows_two_hop_ids_and_neighbor_adjacency() {
        let (g, ids, level) = setup(KtLevel::KT2);
        let k = KnowledgeView::new(&g, &ids, level, NodeId(0));
        assert_eq!(k.id_of(NodeId(2)), 300);
        assert_eq!(k.two_hop_neighbors(), vec![NodeId(2)]);
        assert_eq!(k.neighbors_of(NodeId(1)), vec![NodeId(0), NodeId(2)]);
        assert!(k.knows_edge(NodeId(1), NodeId(2)));
        assert!(!k.knows_edge(NodeId(2), NodeId(3)));
    }

    #[test]
    #[should_panic(expected = "KT-2 violation")]
    fn kt2_does_not_know_three_hop_ids() {
        let (g, ids, level) = setup(KtLevel::KT2);
        let k = KnowledgeView::new(&g, &ids, level, NodeId(0));
        let _ = k.id_of(NodeId(3));
    }

    #[test]
    #[should_panic(expected = "violation")]
    fn kt1_does_not_know_neighbor_adjacency() {
        let (g, ids, level) = setup(KtLevel::KT1);
        let k = KnowledgeView::new(&g, &ids, level, NodeId(0));
        let _ = k.neighbors_of(NodeId(1));
    }

    #[test]
    #[should_panic(expected = "KT-0 violation: node v0 may not initially know the ID of v1")]
    fn kt0_does_not_know_a_neighbor_id() {
        let (g, ids, level) = setup(KtLevel::KT0);
        let k = KnowledgeView::new(&g, &ids, level, NodeId(0));
        let _ = k.id_of(NodeId(1));
    }

    #[test]
    #[should_panic(
        expected = "KT-2 violation: node v0 may not initially know the neighbourhood of v2"
    )]
    fn kt2_does_not_know_two_hop_adjacency() {
        let (g, ids, level) = setup(KtLevel::KT2);
        let k = KnowledgeView::new(&g, &ids, level, NodeId(0));
        let _ = k.neighbors_of(NodeId(2));
    }

    #[test]
    #[should_panic(
        expected = "KT-1 violation: node v1 may not initially know the neighbourhood of v2"
    )]
    fn known_neighbors_checks_the_radius_up_front() {
        let (g, ids, level) = setup(KtLevel::KT1);
        let k = KnowledgeView::new(&g, &ids, level, NodeId(1));
        let _ = k.known_neighbors(NodeId(2));
    }

    #[test]
    fn known_node_with_id_respects_radius() {
        let (g, ids, _) = setup(KtLevel::KT1);
        let k = KnowledgeView::new(&g, &ids, KtLevel::KT1, NodeId(0));
        assert_eq!(k.known_node_with_id(200), Some(NodeId(1)));
        assert_eq!(k.known_node_with_id(300), None);
        assert_eq!(k.known_node_with_id(123), None);
    }

    #[test]
    fn ports_visible_even_in_kt0() {
        let (g, ids, _) = setup(KtLevel::KT0);
        let k = KnowledgeView::new(&g, &ids, KtLevel::KT0, NodeId(1));
        assert_eq!(k.neighbors(), vec![NodeId(0), NodeId(2)]);
        assert_eq!(k.own_id(), 200);
    }
}
