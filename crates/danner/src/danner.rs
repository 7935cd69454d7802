//! The danner structure (Theorem 1.1) as a contract-metered substrate.

use std::error::Error;
use std::fmt;

use symbreak_congest::PhaseCost;
use symbreak_graphs::{properties, EdgeId, Graph, GraphBuilder, IdAssignment, NodeId};

/// Errors from danner construction.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DannerError {
    /// The input graph must be connected (the paper's algorithms elect a
    /// single leader; on disconnected inputs run per component).
    Disconnected,
    /// δ must lie in `[0, 1]`.
    InvalidDelta {
        /// The offending value.
        delta: f64,
    },
}

impl fmt::Display for DannerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DannerError::Disconnected => {
                write!(f, "danner construction requires a connected graph")
            }
            DannerError::InvalidDelta { delta } => {
                write!(f, "danner parameter delta={delta} must lie in [0, 1]")
            }
        }
    }
}

impl Error for DannerError {}

/// A danner: a spanning subgraph `H ⊆ G` with few edges and low diameter.
///
/// The structure satisfies the guarantees of Theorem 1.1 — it spans `G`, has
/// at most `n − 1 + n^{1+δ}` edges, and its diameter is at most `2·D(G)` —
/// and records the *charged* construction cost
/// (`min{m, n^{1+δ}}·⌈log₂ n⌉` messages, `⌈n^{1−δ}⌉·⌈log₂ n⌉` rounds)
/// that the published distributed construction would incur.
#[derive(Debug, Clone)]
pub struct Danner {
    subgraph: Graph,
    delta: f64,
    construction_cost: PhaseCost,
}

impl Danner {
    /// Builds a danner of `graph` with parameter `delta ∈ [0, 1]`.
    ///
    /// The construction takes the union of a BFS spanning tree rooted at the
    /// minimum-ID node with, for every node, its `⌈n^δ⌉` lowest-ID incident
    /// edges (which each node can identify without communication thanks to
    /// KT-1). `H`'s edges are numbered tree edges first, in child order,
    /// then the other kept edges in node order and, per node, ID order.
    ///
    /// # Errors
    ///
    /// Returns [`DannerError::InvalidDelta`] if `delta` is outside `[0, 1]`
    /// and otherwise [`DannerError::Disconnected`] if `graph` is empty or
    /// not connected.
    pub fn build(graph: &Graph, ids: &IdAssignment, delta: f64) -> Result<Self, DannerError> {
        if !(0.0..=1.0).contains(&delta) || delta.is_nan() {
            return Err(DannerError::InvalidDelta { delta });
        }
        let n = graph.num_nodes();
        let root = graph
            .nodes()
            .min_by_key(|&v| ids.id_of(v))
            .ok_or(DannerError::Disconnected)?;

        // Bit `e` of `in_h` marks G's edge `e` as fed to the builder, so
        // each edge of H is fed once.
        let mut in_h = vec![0u64; graph.num_edges().div_ceil(64)];
        let mut builder = GraphBuilder::new(n);
        // BFS spanning tree: guarantees spanning and diameter ≤ 2·D(G). A
        // node the walk leaves unreached means G is disconnected.
        let parents = properties::bfs_parents(graph, root);
        for v in graph.nodes() {
            if v != root {
                let p = parents[v.index()].ok_or(DannerError::Disconnected)?;
                let e = graph
                    .edge_between(v, p)
                    .expect("BFS parents are neighbours");
                first_mark(&mut in_h, e);
                builder.add_edge(v, p);
            }
        }
        // Each node keeps its ⌈n^δ⌉ lowest-ID incident edges (local, KT-1).
        let keep = (n as f64).powf(delta).ceil() as usize;
        let mut lowest: Vec<(u64, NodeId, EdgeId)> = Vec::new();
        for v in graph.nodes() {
            lowest.clear();
            lowest.extend(
                graph
                    .neighbor_slice(v)
                    .iter()
                    .map(|&(u, e)| (ids.id_of(u), u, e)),
            );
            if keep < lowest.len() {
                lowest.select_nth_unstable(keep);
                lowest.truncate(keep);
            }
            lowest.sort_unstable();
            for &(_, u, e) in &lowest {
                if first_mark(&mut in_h, e) {
                    builder.add_edge(v, u);
                }
            }
        }
        let subgraph = builder.build();

        let log_n = (n.max(2) as f64).log2().ceil() as u64;
        let m = graph.num_edges() as u64;
        let sparse_bound = (n as f64).powf(1.0 + delta).ceil() as u64;
        let construction_cost = PhaseCost::charged(
            m.min(sparse_bound).saturating_mul(log_n),
            ((n as f64).powf(1.0 - delta).ceil() as u64).saturating_mul(log_n),
        );

        Ok(Danner {
            subgraph,
            delta,
            construction_cost,
        })
    }

    /// The danner subgraph `H` (same node set as `G`).
    pub fn subgraph(&self) -> &Graph {
        &self.subgraph
    }

    /// The parameter δ.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The charged cost of the distributed construction (Theorem 1.1).
    pub fn construction_cost(&self) -> PhaseCost {
        self.construction_cost
    }

    /// Number of edges of `H`.
    pub fn num_edges(&self) -> usize {
        self.subgraph.num_edges()
    }

    /// The theoretical edge bound `n − 1 + n^{1+δ}` the construction promises.
    pub fn edge_bound(&self) -> usize {
        let n = self.subgraph.num_nodes() as f64;
        (n - 1.0 + n.powf(1.0 + self.delta)).ceil() as usize
    }
}

/// Sets bit `e` of `bits`; returns whether it was clear.
fn first_mark(bits: &mut [u64], e: EdgeId) -> bool {
    let (word, bit) = (e.index() / 64, 1 << (e.index() % 64));
    let clear = bits[word] & bit == 0;
    bits[word] |= bit;
    clear
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use symbreak_graphs::generators;

    fn random_setup(n: usize, p: f64, seed: u64) -> (Graph, IdAssignment) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::connected_gnp(n, p, &mut rng);
        let ids = IdAssignment::random(&g, symbreak_graphs::IdSpace::CUBIC, &mut rng);
        (g, ids)
    }

    #[test]
    fn danner_spans_and_is_sparse() {
        let (g, ids) = random_setup(80, 0.5, 1);
        let d = Danner::build(&g, &ids, 0.5).unwrap();
        assert_eq!(d.subgraph().num_nodes(), g.num_nodes());
        assert!(properties::is_connected(d.subgraph()));
        assert!(d.num_edges() <= d.edge_bound());
        assert!(d.num_edges() <= g.num_edges());
        // On a dense graph the danner is much sparser than G.
        assert!(d.num_edges() < g.num_edges() / 2);
    }

    #[test]
    fn danner_diameter_is_bounded() {
        let (g, ids) = random_setup(60, 0.3, 2);
        let d = Danner::build(&g, &ids, 0.5).unwrap();
        let dg = properties::diameter(&g).unwrap();
        let dh = properties::diameter(d.subgraph()).unwrap();
        assert!(dh <= 2 * dg.max(1), "diam(H)={dh} diam(G)={dg}");
    }

    #[test]
    fn danner_is_subgraph_of_input() {
        let (g, ids) = random_setup(40, 0.2, 3);
        let d = Danner::build(&g, &ids, 0.25).unwrap();
        for (_, u, v) in d.subgraph().edges() {
            assert!(g.has_edge(u, v));
        }
    }

    #[test]
    fn delta_zero_gives_near_tree() {
        let (g, ids) = random_setup(50, 0.6, 4);
        let d = Danner::build(&g, &ids, 0.0).unwrap();
        // Tree edges plus one lowest-ID edge per node: at most 2(n − 1).
        assert!(d.num_edges() <= 2 * (g.num_nodes() - 1));
    }

    #[test]
    fn delta_one_keeps_everything_small_graphs() {
        let g = generators::clique(12);
        let ids = IdAssignment::identity(12);
        let d = Danner::build(&g, &ids, 1.0).unwrap();
        // With δ = 1 each node keeps up to n edges, i.e. all of them.
        assert_eq!(d.num_edges(), g.num_edges());
    }

    #[test]
    fn charged_cost_is_sublinear_in_m_for_dense_graphs() {
        let (g, ids) = random_setup(100, 0.8, 5);
        let d = Danner::build(&g, &ids, 0.5).unwrap();
        let cost = d.construction_cost();
        assert!(cost.charged_messages > 0);
        let log_n = (g.num_nodes() as f64).log2().ceil() as u64;
        assert!(cost.charged_messages <= (g.num_nodes() as f64).powf(1.5).ceil() as u64 * log_n);
        assert_eq!(cost.simulated_messages, 0);
    }

    #[test]
    fn errors_reported() {
        let g = generators::disjoint_union(&[generators::path(2), generators::path(2)]);
        let ids = IdAssignment::identity(4);
        assert_eq!(
            Danner::build(&g, &ids, 0.5).unwrap_err(),
            DannerError::Disconnected
        );
        // A bad δ is reported before connectivity is looked at.
        assert!(matches!(
            Danner::build(&g, &ids, 1.5).unwrap_err(),
            DannerError::InvalidDelta { .. }
        ));
        let g = generators::path(3);
        let ids = IdAssignment::identity(3);
        assert!(matches!(
            Danner::build(&g, &ids, 1.5).unwrap_err(),
            DannerError::InvalidDelta { .. }
        ));
        let empty = generators::empty(0);
        assert_eq!(
            Danner::build(&empty, &IdAssignment::identity(0), 0.5).unwrap_err(),
            DannerError::Disconnected
        );
        assert!(matches!(
            Danner::build(&empty, &IdAssignment::identity(0), f64::NAN).unwrap_err(),
            DannerError::InvalidDelta { .. }
        ));
    }
}
