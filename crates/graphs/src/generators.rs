//! Graph families used throughout the paper's evaluation and lower bounds.

use rand::Rng;

use crate::{ChurnBatch, Graph, GraphBuilder, NodeId};

/// Graph with `n` nodes and no edges.
pub fn empty(n: usize) -> Graph {
    Graph::empty(n)
}

/// Path `v0 - v1 - … - v(n-1)` with `n ≥ 0` nodes.
pub fn path(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.add_edge(NodeId((i - 1) as u32), NodeId(i as u32));
    }
    b.build()
}

/// Cycle on `n ≥ 3` nodes (for `n < 3` this degenerates to a path).
pub fn cycle(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.add_edge(NodeId((i - 1) as u32), NodeId(i as u32));
    }
    if n >= 3 {
        b.add_edge(NodeId((n - 1) as u32), NodeId(0));
    }
    b.build()
}

/// Complete graph `K_n`.
pub fn clique(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            b.add_edge(NodeId(i as u32), NodeId(j as u32));
        }
    }
    b.build()
}

/// Star graph with one centre (node 0) and `n − 1` leaves.
pub fn star(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.add_edge(NodeId(0), NodeId(i as u32));
    }
    b.build()
}

/// Complete bipartite graph `K_{a,b}`; the first `a` nodes form one side.
pub fn complete_bipartite(a: usize, b_size: usize) -> Graph {
    let mut b = GraphBuilder::new(a + b_size);
    for i in 0..a {
        for j in 0..b_size {
            b.add_edge(NodeId(i as u32), NodeId((a + j) as u32));
        }
    }
    b.build()
}

/// The layered tripartite graph used as one half of the Section 2.2 lower
/// bound construction: parts `X`, `Y`, `Z` of size `t` each, with the
/// subgraphs induced by `X ∪ Y` and `Y ∪ Z` both complete bipartite.
///
/// Nodes `0..t` are `X`, `t..2t` are `Y` and `2t..3t` are `Z`.
pub fn layered_tripartite(t: usize) -> Graph {
    let mut b = GraphBuilder::new(3 * t);
    for x in 0..t {
        for y in 0..t {
            b.add_edge(NodeId(x as u32), NodeId((t + y) as u32));
        }
    }
    for y in 0..t {
        for z in 0..t {
            b.add_edge(NodeId((t + y) as u32), NodeId((2 * t + z) as u32));
        }
    }
    b.build()
}

/// Erdős–Rényi random graph `G(n, p)`: every unordered pair is an edge
/// independently with probability `p`.
///
/// # Panics
///
/// Panics unless `0.0 ≤ p ≤ 1.0`.
pub fn gnp<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
    assert!((0.0..=1.0).contains(&p), "probability p={p} out of range");
    let mut b = GraphBuilder::new(n);
    if p == 0.0 {
        return b.build();
    }
    for i in 0..n {
        for j in (i + 1)..n {
            if p >= 1.0 || rng.gen_bool(p) {
                b.add_edge(NodeId(i as u32), NodeId(j as u32));
            }
        }
    }
    b.build()
}

/// `G(n, p)` conditioned on connectivity: edges of a random Hamiltonian-ish
/// path are added first so the result is always connected, then `G(n, p)`
/// edges on top. Useful for experiments that need a diameter.
pub fn connected_gnp<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
    assert!((0.0..=1.0).contains(&p), "probability p={p} out of range");
    let mut order: Vec<u32> = (0..n as u32).collect();
    // Fisher–Yates shuffle for a random spanning path.
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    let mut b = GraphBuilder::new(n);
    for w in order.windows(2) {
        b.add_edge(NodeId(w[0]), NodeId(w[1]));
    }
    for i in 0..n {
        for j in (i + 1)..n {
            if p >= 1.0 || (p > 0.0 && rng.gen_bool(p)) {
                b.add_edge(NodeId(i as u32), NodeId(j as u32));
            }
        }
    }
    b.build()
}

/// Disjoint union of graphs; node identifiers of later graphs are shifted by
/// the sizes of the earlier ones.
pub fn disjoint_union(graphs: &[Graph]) -> Graph {
    let total: usize = graphs.iter().map(Graph::num_nodes).sum();
    let mut b = GraphBuilder::new(total);
    let mut offset = 0u32;
    for g in graphs {
        for (_, u, v) in g.edges() {
            b.add_edge(NodeId(u.0 + offset), NodeId(v.0 + offset));
        }
        offset += g.num_nodes() as u32;
    }
    b.build()
}

/// `count` disjoint cycles of length `len` each — the hard family behind the
/// Ω(n) KT-ρ lower bound (Theorem 2.17).
pub fn disjoint_cycles(count: usize, len: usize) -> Graph {
    let cycles: Vec<Graph> = (0..count).map(|_| cycle(len)).collect();
    disjoint_union(&cycles)
}

/// Random `d`-regular-ish graph produced by superimposing `d` random perfect
/// matchings (requires even `n`); parallel edges are dropped so the actual
/// degree can be slightly below `d`.
pub fn random_near_regular<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Graph {
    assert!(
        n.is_multiple_of(2),
        "random_near_regular needs an even number of nodes"
    );
    let mut b = GraphBuilder::new(n);
    for _ in 0..d {
        let mut perm: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        for pair in perm.chunks(2) {
            if pair[0] != pair[1] {
                b.add_edge(NodeId(pair[0]), NodeId(pair[1]));
            }
        }
    }
    b.build()
}

/// Connected power-law graph by preferential attachment (Barabási–Albert):
/// nodes `0..=attach` start as a clique; every later node attaches `attach`
/// edges to distinct existing nodes chosen with probability proportional to
/// their current degree. Degrees follow a heavy-tailed distribution — the
/// skewed per-bucket work that stresses load balancing in the round engine.
pub fn power_law<R: Rng + ?Sized>(n: usize, attach: usize, rng: &mut R) -> Graph {
    assert!(attach >= 1, "each new node must attach at least one edge");
    let seed_nodes = (attach + 1).min(n);
    let mut b = GraphBuilder::new(n);
    // One entry per directed edge endpoint: sampling uniformly from this
    // list is sampling nodes proportional to degree.
    let mut endpoints: Vec<u32> = Vec::with_capacity(2 * n * attach);
    for i in 0..seed_nodes {
        for j in (i + 1)..seed_nodes {
            b.add_edge(NodeId(i as u32), NodeId(j as u32));
            endpoints.push(i as u32);
            endpoints.push(j as u32);
        }
    }
    for v in seed_nodes..n {
        let mut chosen: Vec<u32> = Vec::with_capacity(attach);
        let mut attempts = 0usize;
        while chosen.len() < attach.min(v) && attempts < 16 * attach {
            let u = endpoints[rng.gen_range(0..endpoints.len())];
            attempts += 1;
            if !chosen.contains(&u) {
                chosen.push(u);
            }
        }
        // Rejection ran dry (tiny graphs): fall back to the lowest unused.
        let mut fallback = 0u32;
        while chosen.len() < attach.min(v) {
            if !chosen.contains(&fallback) {
                chosen.push(fallback);
            }
            fallback += 1;
        }
        for &u in &chosen {
            b.add_edge(NodeId(v as u32), NodeId(u));
            endpoints.push(v as u32);
            endpoints.push(u);
        }
    }
    b.build()
}

/// Stochastic block model (planted communities): nodes are split into
/// `communities` contiguous, near-equal blocks; a pair inside one block is
/// an edge with probability `p_in`, a cross-block pair with probability
/// `p_out`. With `p_in ≫ p_out` this produces the community-structured
/// topologies where faults on the sparse inter-community cut are most
/// damaging — the scenario shape the fault matrix runs alongside
/// small-world and power-law graphs.
///
/// # Panics
///
/// Panics unless `communities ≥ 1` and both probabilities lie in `[0, 1]`.
pub fn stochastic_block<R: Rng + ?Sized>(
    n: usize,
    communities: usize,
    p_in: f64,
    p_out: f64,
    rng: &mut R,
) -> Graph {
    assert!(communities >= 1, "need at least one community");
    assert!(
        (0.0..=1.0).contains(&p_in),
        "probability p_in={p_in} out of range"
    );
    assert!(
        (0.0..=1.0).contains(&p_out),
        "probability p_out={p_out} out of range"
    );
    let block = |i: usize| i * communities / n.max(1);
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            let p = if block(i) == block(j) { p_in } else { p_out };
            if p >= 1.0 || (p > 0.0 && rng.gen_bool(p)) {
                b.add_edge(NodeId(i as u32), NodeId(j as u32));
            }
        }
    }
    b.build()
}

/// Watts–Strogatz small-world graph: a ring lattice where every node links
/// to its `k` nearest clockwise neighbours (degree `2k` before rewiring),
/// then each lattice edge is rewired with probability `rewire_p` to a
/// uniformly random non-self endpoint. Low `rewire_p` keeps the high
/// clustering of the lattice while adding the long-range shortcuts that
/// collapse the diameter — the topology where a single adversarially slow
/// or lossy shortcut edge has outsized effect.
///
/// Rewired edges that collide with an existing edge are dropped (the graph
/// stays simple), so the edge count can be slightly below `n·k`.
///
/// # Panics
///
/// Panics unless `1 ≤ k` and `2k < n` and `rewire_p ∈ [0, 1]`.
pub fn small_world<R: Rng + ?Sized>(n: usize, k: usize, rewire_p: f64, rng: &mut R) -> Graph {
    assert!(k >= 1, "each node needs at least one lattice neighbour");
    assert!(2 * k < n, "lattice degree 2k={} must be below n={n}", 2 * k);
    assert!(
        (0.0..=1.0).contains(&rewire_p),
        "probability rewire_p={rewire_p} out of range"
    );
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in 1..=k {
            let u = i as u32;
            let lattice = ((i + j) % n) as u32;
            let target = if rewire_p > 0.0 && rng.gen_bool(rewire_p) {
                // Uniform over the n - 1 non-self nodes.
                let mut t = rng.gen_range(0..n as u32 - 1);
                if t >= u {
                    t += 1;
                }
                t
            } else {
                lattice
            };
            b.add_edge(NodeId(u), NodeId(target));
        }
    }
    b.build()
}

/// Connected random graph of arboricity at most `a`, built by
/// `a`-degeneracy: node `v` links to `min(a, v)` distinct uniformly random
/// earlier nodes, so every node has at most `a` back-edges. Assigning each
/// node's `i`-th back-edge to forest `i` partitions the edges into `a`
/// forests (at most one parent per node per forest), hence arboricity ≤ `a`.
/// With `m = a·n − O(a²)` edges this is the uniformly sparse family —
/// locally tree-like at `a = 1`, complementing the dense, community and
/// heavy-tailed topologies in the fault matrix.
///
/// # Panics
///
/// Panics unless `a ≥ 1`.
pub fn bounded_arboricity<R: Rng + ?Sized>(n: usize, a: usize, rng: &mut R) -> Graph {
    assert!(a >= 1, "arboricity bound must be at least 1");
    let mut b = GraphBuilder::new(n);
    let mut chosen: Vec<u32> = Vec::with_capacity(a);
    for v in 1..n {
        chosen.clear();
        let picks = a.min(v);
        if picks == v {
            chosen.extend(0..v as u32);
        } else {
            while chosen.len() < picks {
                let u = rng.gen_range(0..v as u32);
                if !chosen.contains(&u) {
                    chosen.push(u);
                }
            }
        }
        for &u in &chosen {
            b.add_edge(NodeId(v as u32), NodeId(u));
        }
    }
    b.build()
}

/// Seed-reproducible edge-churn stream against a mutating graph.
///
/// The stream mirrors the live edge set of the graph it was created from
/// and emits [`ChurnBatch`]es of random deletions (drawn uniformly from the
/// live edges) and insertions (rejection-sampled uniformly from the absent
/// pairs). Every emitted batch is applied to the mirror, so consecutive
/// batches are consistent as long as the caller applies each one to its
/// [`crate::GraphOverlay`] — the usual loop is
/// `overlay.apply(&stream.next_batch(d, i))`.
///
/// Determinism: the sequence of batches is a pure function of the starting
/// edge set and the seed, independent of thread count or compaction points
/// (the stream never looks at the overlay).
///
/// # Example
///
/// ```
/// use symbreak_graphs::{generators, GraphOverlay};
///
/// let g = generators::cycle(10);
/// let mut overlay = GraphOverlay::new(g.clone());
/// let mut stream = generators::ChurnStream::new(&g, 42);
/// let batch = stream.next_batch(2, 2);
/// let (deleted, inserted) = overlay.apply(&batch);
/// assert_eq!((deleted, inserted), (2, 2));
/// assert_eq!(overlay.num_edges(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct ChurnStream {
    n: usize,
    rng: rand::rngs::StdRng,
    /// Mirror of the live edge set, `u < v`, unordered (indexable for
    /// uniform deletion draws).
    edges: Vec<(NodeId, NodeId)>,
    /// Membership companion of `edges`.
    present: std::collections::BTreeSet<(NodeId, NodeId)>,
}

impl ChurnStream {
    /// Creates a stream over `graph`'s current edge set, seeded with `seed`.
    pub fn new(graph: &Graph, seed: u64) -> Self {
        use rand::SeedableRng;
        let edges: Vec<(NodeId, NodeId)> = graph.edges().map(|(_, u, v)| (u, v)).collect();
        let present = edges.iter().copied().collect();
        ChurnStream {
            n: graph.num_nodes(),
            rng: rand::rngs::StdRng::seed_from_u64(seed ^ 0xc4ce_b9fe_1a85_ec53),
            edges,
            present,
        }
    }

    /// Number of live edges in the stream's mirror.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Draws the next batch: `deletes` uniform deletions of live edges
    /// followed by `inserts` uniform insertions of absent pairs, and applies
    /// both to the internal mirror. Fewer operations are emitted when the
    /// graph runs out of live edges (deletions) or absent pairs
    /// (insertions).
    pub fn next_batch(&mut self, deletes: usize, inserts: usize) -> ChurnBatch {
        let mut batch = ChurnBatch::default();
        for _ in 0..deletes {
            if self.edges.is_empty() {
                break;
            }
            let i = self.rng.gen_range(0..self.edges.len());
            let e = self.edges.swap_remove(i);
            self.present.remove(&e);
            batch.deletes.push(e);
        }
        let max_edges = self.n * self.n.saturating_sub(1) / 2;
        for _ in 0..inserts {
            if self.n < 2 || self.edges.len() >= max_edges {
                break;
            }
            // Rejection-sample an absent pair; density is bounded away from
            // complete in every churn workload, so this terminates fast.
            let e = loop {
                let a = self.rng.gen_range(0..self.n as u32);
                let b = self.rng.gen_range(0..self.n as u32);
                if a == b {
                    continue;
                }
                let key = if a < b {
                    (NodeId(a), NodeId(b))
                } else {
                    (NodeId(b), NodeId(a))
                };
                if !self.present.contains(&key) {
                    break key;
                }
            };
            self.present.insert(e);
            self.edges.push(e);
            batch.inserts.push(e);
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn path_and_cycle_sizes() {
        assert_eq!(path(1).num_edges(), 0);
        assert_eq!(path(5).num_edges(), 4);
        assert_eq!(cycle(5).num_edges(), 5);
        assert_eq!(cycle(2).num_edges(), 1);
    }

    #[test]
    fn clique_edge_count() {
        assert_eq!(clique(6).num_edges(), 15);
        assert_eq!(clique(0).num_edges(), 0);
        assert_eq!(clique(1).num_edges(), 0);
    }

    #[test]
    fn complete_bipartite_counts() {
        let g = complete_bipartite(3, 4);
        assert_eq!(g.num_nodes(), 7);
        assert_eq!(g.num_edges(), 12);
        assert_eq!(g.degree(NodeId(0)), 4);
        assert_eq!(g.degree(NodeId(3)), 3);
    }

    #[test]
    fn layered_tripartite_structure() {
        let t = 4;
        let g = layered_tripartite(t);
        assert_eq!(g.num_nodes(), 3 * t);
        assert_eq!(g.num_edges(), 2 * t * t);
        // X nodes have degree t, Y nodes 2t, Z nodes t.
        assert_eq!(g.degree(NodeId(0)), t);
        assert_eq!(g.degree(NodeId(t as u32)), 2 * t);
        assert_eq!(g.degree(NodeId(2 * t as u32)), t);
        // No X–Z edges.
        assert!(!g.has_edge(NodeId(0), NodeId(2 * t as u32)));
    }

    #[test]
    fn gnp_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(gnp(10, 0.0, &mut rng).num_edges(), 0);
        assert_eq!(gnp(10, 1.0, &mut rng).num_edges(), 45);
    }

    #[test]
    fn gnp_density_is_reasonable() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = gnp(200, 0.25, &mut rng);
        let expected = 0.25 * (200.0 * 199.0 / 2.0);
        let actual = g.num_edges() as f64;
        assert!(
            (actual - expected).abs() < 0.15 * expected,
            "m={actual} vs {expected}"
        );
    }

    #[test]
    fn connected_gnp_is_connected() {
        let mut rng = StdRng::seed_from_u64(3);
        for &p in &[0.0, 0.01, 0.3] {
            let g = connected_gnp(50, p, &mut rng);
            assert!(properties::is_connected(&g), "p={p}");
        }
    }

    #[test]
    fn disjoint_cycles_structure() {
        let g = disjoint_cycles(4, 5);
        assert_eq!(g.num_nodes(), 20);
        assert_eq!(g.num_edges(), 20);
        let (_, k) = properties::connected_components(&g);
        assert_eq!(k, 4);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn random_near_regular_degrees() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = random_near_regular(20, 4, &mut rng);
        for v in g.nodes() {
            assert!(g.degree(v) <= 4);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gnp_rejects_bad_probability() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = gnp(5, 1.5, &mut rng);
    }

    #[test]
    fn power_law_is_connected_with_heavy_tail() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = power_law(600, 3, &mut rng);
        assert_eq!(g.num_nodes(), 600);
        assert!(properties::is_connected(&g));
        // Every non-seed node attached `attach` distinct edges.
        for v in 4..600 {
            assert!(g.degree(NodeId(v)) >= 3);
        }
        // Preferential attachment concentrates degree: the hub should be
        // well above the average degree.
        assert!(g.max_degree() >= 4 * g.average_degree() as usize);
    }

    #[test]
    fn power_law_handles_tiny_graphs() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in [1usize, 2, 3, 5] {
            let g = power_law(n, 3, &mut rng);
            assert_eq!(g.num_nodes(), n);
            if n > 1 {
                assert!(properties::is_connected(&g));
            }
        }
    }

    #[test]
    fn stochastic_block_concentrates_edges_inside_communities() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 60;
        let communities = 3;
        let g = stochastic_block(n, communities, 0.6, 0.02, &mut rng);
        assert_eq!(g.num_nodes(), n);
        let block = |i: usize| i * communities / n;
        let (mut within, mut across) = (0usize, 0usize);
        for (_, u, v) in g.edges() {
            if block(u.index()) == block(v.index()) {
                within += 1;
            } else {
                across += 1;
            }
        }
        // Within-pairs are ~half of all pairs but carry 30× the probability.
        assert!(within > 5 * across, "within={within} across={across}");
    }

    #[test]
    fn stochastic_block_extremes() {
        let mut rng = StdRng::seed_from_u64(0);
        // p_in = 1, p_out = 0: disjoint cliques.
        let g = stochastic_block(12, 3, 1.0, 0.0, &mut rng);
        let (_, count) = properties::connected_components(&g);
        assert_eq!(count, 3);
        assert_eq!(g.num_edges(), 3 * (4 * 3 / 2));
    }

    #[test]
    fn small_world_without_rewiring_is_the_ring_lattice() {
        let mut rng = StdRng::seed_from_u64(0);
        let g = small_world(20, 3, 0.0, &mut rng);
        assert_eq!(g.num_edges(), 20 * 3);
        for v in 0..20 {
            assert_eq!(g.degree(NodeId(v)), 6);
        }
        assert!(properties::is_connected(&g));
    }

    #[test]
    fn small_world_rewiring_shrinks_the_diameter() {
        let mut rng = StdRng::seed_from_u64(7);
        let lattice = small_world(120, 2, 0.0, &mut rng);
        let rewired = small_world(120, 2, 0.3, &mut rng);
        assert_eq!(rewired.num_nodes(), 120);
        // Rewiring drops colliding edges but only a few.
        assert!(rewired.num_edges() > 120 * 2 - 20);
        let d_lat = properties::diameter(&lattice).unwrap();
        if let Some(d_sw) = properties::diameter(&rewired) {
            assert!(
                d_sw < d_lat,
                "shortcuts should shrink the diameter ({d_sw} vs {d_lat})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "below n")]
    fn small_world_rejects_dense_lattice() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = small_world(6, 3, 0.1, &mut rng);
    }

    #[test]
    fn bounded_arboricity_is_sparse_connected_and_degenerate() {
        let mut rng = StdRng::seed_from_u64(13);
        let (n, a) = (200usize, 3usize);
        let g = bounded_arboricity(n, a, &mut rng);
        assert_eq!(g.num_nodes(), n);
        // Exactly min(a, v) back-edges per node: 1 + 2 + a·(n − a).
        assert_eq!(g.num_edges(), 1 + 2 + a * (n - a));
        assert!(properties::is_connected(&g));
        // Degeneracy witness of arboricity ≤ a: every node has at most `a`
        // neighbours with a smaller index.
        let mut back = vec![0usize; n];
        for (_, u, v) in g.edges() {
            back[u.index().max(v.index())] += 1;
        }
        assert!(back.iter().all(|&d| d <= a));
    }

    #[test]
    fn bounded_arboricity_one_is_a_random_tree() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = bounded_arboricity(50, 1, &mut rng);
        assert_eq!(g.num_edges(), 49);
        assert!(properties::is_connected(&g));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn bounded_arboricity_rejects_zero_bound() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = bounded_arboricity(10, 0, &mut rng);
    }

    #[test]
    fn churn_stream_is_seed_reproducible() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = gnp(40, 0.1, &mut rng);
        let mut a = ChurnStream::new(&g, 99);
        let mut b = ChurnStream::new(&g, 99);
        for _ in 0..10 {
            assert_eq!(a.next_batch(3, 3), b.next_batch(3, 3));
        }
        let mut c = ChurnStream::new(&g, 100);
        let differs = (0..10).any(|_| a.next_batch(3, 3) != c.next_batch(3, 3));
        assert!(differs, "different seeds should diverge");
    }

    #[test]
    fn churn_stream_batches_apply_cleanly_to_an_overlay() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = gnp(30, 0.15, &mut rng);
        let mut overlay = crate::GraphOverlay::new(g.clone());
        let mut stream = ChurnStream::new(&g, 5);
        for round in 0..20 {
            let batch = stream.next_batch(2, 3);
            let (deleted, inserted) = overlay.apply(&batch);
            // The stream's mirror guarantees every emitted op is effective.
            assert_eq!(deleted, batch.deletes.len(), "round {round}");
            assert_eq!(inserted, batch.inserts.len(), "round {round}");
            assert_eq!(overlay.num_edges(), stream.num_edges(), "round {round}");
            if round == 10 {
                overlay.compact();
            }
        }
    }

    #[test]
    fn churn_stream_respects_exhaustion() {
        // Deleting more edges than exist and inserting into a clique both
        // truncate rather than loop forever.
        let g = clique(4);
        let mut stream = ChurnStream::new(&g, 1);
        let batch = stream.next_batch(100, 5);
        assert_eq!(batch.deletes.len(), 6);
        assert!(batch.inserts.len() <= 5);
        let g2 = clique(4);
        let mut full = ChurnStream::new(&g2, 2);
        let batch = full.next_batch(0, 3);
        assert!(batch.inserts.is_empty(), "clique has no absent pairs");
    }
}
