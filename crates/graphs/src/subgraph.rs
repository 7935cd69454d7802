//! Induced subgraphs and mappings back to the parent graph.

use std::collections::BTreeMap;

use crate::{Graph, GraphBuilder, NodeId};

/// An induced subgraph `G[S]` together with the index mappings between the
/// subgraph's dense node identifiers and the parent graph's identifiers.
///
/// # Example
///
/// ```
/// use symbreak_graphs::{generators, subgraph::InducedSubgraph, NodeId};
///
/// let g = generators::clique(5);
/// let sub = InducedSubgraph::new(&g, [NodeId(1), NodeId(3), NodeId(4)]);
/// assert_eq!(sub.graph().num_nodes(), 3);
/// assert_eq!(sub.graph().num_edges(), 3);
/// assert_eq!(sub.to_parent(NodeId(0)), NodeId(1));
/// assert_eq!(sub.to_local(NodeId(4)), Some(NodeId(2)));
/// ```
#[derive(Debug, Clone)]
pub struct InducedSubgraph {
    graph: Graph,
    to_parent: Vec<NodeId>,
    to_local: BTreeMap<NodeId, NodeId>,
}

impl InducedSubgraph {
    /// Builds the subgraph of `parent` induced by `nodes`.
    ///
    /// Duplicate nodes are ignored; the local ordering follows the sorted
    /// order of the parent identifiers so construction is deterministic.
    pub fn new<I>(parent: &Graph, nodes: I) -> Self
    where
        I: IntoIterator<Item = NodeId>,
    {
        let mut selected: Vec<NodeId> = nodes.into_iter().collect();
        selected.sort_unstable();
        selected.dedup();
        let to_local: BTreeMap<NodeId, NodeId> = selected
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, NodeId(i as u32)))
            .collect();
        let mut builder = GraphBuilder::new(selected.len());
        for &v in &selected {
            for u in parent.neighbors(v) {
                if u > v {
                    if let Some(&lu) = to_local.get(&u) {
                        builder.add_edge(to_local[&v], lu);
                    }
                }
            }
        }
        InducedSubgraph {
            graph: builder.build(),
            to_parent: selected,
            to_local,
        }
    }

    /// The induced subgraph itself (with dense local node identifiers).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of nodes in the subgraph.
    pub fn len(&self) -> usize {
        self.to_parent.len()
    }

    /// Whether the subgraph is empty.
    pub fn is_empty(&self) -> bool {
        self.to_parent.is_empty()
    }

    /// Maps a local subgraph node back to the parent graph.
    ///
    /// # Panics
    ///
    /// Panics if `local` is out of range.
    pub fn to_parent(&self, local: NodeId) -> NodeId {
        self.to_parent[local.index()]
    }

    /// Maps a parent-graph node to its local identifier, if it is part of the
    /// subgraph.
    pub fn to_local(&self, parent: NodeId) -> Option<NodeId> {
        self.to_local.get(&parent).copied()
    }
}

/// Counts the edges of `graph` with both endpoints in `nodes` without
/// materialising the subgraph.
pub fn induced_edge_count(graph: &Graph, nodes: &[NodeId]) -> usize {
    let mut member = vec![false; graph.num_nodes()];
    for &v in nodes {
        member[v.index()] = true;
    }
    let mut count = 0;
    for &v in nodes {
        if !member[v.index()] {
            continue;
        }
        for u in graph.neighbors(v) {
            if u > v && member[u.index()] {
                count += 1;
            }
        }
    }
    count
}

/// Maximum degree of the subgraph induced by `nodes`, computed without
/// materialising the subgraph.
pub fn induced_max_degree(graph: &Graph, nodes: &[NodeId]) -> usize {
    let mut member = vec![false; graph.num_nodes()];
    for &v in nodes {
        member[v.index()] = true;
    }
    nodes
        .iter()
        .map(|&v| graph.neighbors(v).filter(|u| member[u.index()]).count())
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn induced_subgraph_of_cycle() {
        let g = generators::cycle(6);
        let sub = InducedSubgraph::new(&g, [NodeId(0), NodeId(1), NodeId(2), NodeId(4)]);
        assert_eq!(sub.len(), 4);
        // Edges 0-1, 1-2 survive; 4 is isolated within the subgraph.
        assert_eq!(sub.graph().num_edges(), 2);
        let local4 = sub.to_local(NodeId(4)).unwrap();
        assert_eq!(sub.graph().degree(local4), 0);
    }

    #[test]
    fn duplicates_are_ignored() {
        let g = generators::clique(4);
        let sub = InducedSubgraph::new(&g, [NodeId(1), NodeId(1), NodeId(2)]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.graph().num_edges(), 1);
    }

    #[test]
    fn mapping_round_trips() {
        let g = generators::clique(6);
        let chosen = [NodeId(5), NodeId(0), NodeId(3)];
        let sub = InducedSubgraph::new(&g, chosen);
        for local in sub.graph().nodes() {
            let parent = sub.to_parent(local);
            assert_eq!(sub.to_local(parent), Some(local));
        }
        assert_eq!(sub.to_local(NodeId(1)), None);
    }

    #[test]
    fn induced_edge_count_matches_materialised() {
        let g = generators::clique(7);
        let nodes: Vec<NodeId> = vec![NodeId(0), NodeId(2), NodeId(4), NodeId(6)];
        let sub = InducedSubgraph::new(&g, nodes.clone());
        assert_eq!(induced_edge_count(&g, &nodes), sub.graph().num_edges());
        assert_eq!(induced_max_degree(&g, &nodes), sub.graph().max_degree());
    }

    #[test]
    fn empty_subgraph() {
        let g = generators::clique(3);
        let sub = InducedSubgraph::new(&g, []);
        assert!(sub.is_empty());
        assert_eq!(induced_edge_count(&g, &[]), 0);
        assert_eq!(induced_max_degree(&g, &[]), 0);
    }
}
