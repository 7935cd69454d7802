//! Structural properties: BFS, distances, diameter, connectivity, components.

use std::collections::VecDeque;

use crate::{Graph, NodeId};

/// Distance value returned by [`bfs_distances`] for unreachable nodes.
pub const UNREACHABLE: u32 = u32::MAX;

/// Runs a breadth-first search from `source` and returns the distance (in
/// hops) to every node; unreachable nodes get [`UNREACHABLE`].
///
/// ```
/// use symbreak_graphs::{generators, properties, NodeId};
/// let g = generators::path(4);
/// let d = properties::bfs_distances(&g, NodeId(0));
/// assert_eq!(d, vec![0, 1, 2, 3]);
/// ```
pub fn bfs_distances(graph: &Graph, source: NodeId) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; graph.num_nodes()];
    if graph.num_nodes() == 0 {
        return dist;
    }
    dist[source.index()] = 0;
    let mut queue = VecDeque::new();
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v.index()];
        for u in graph.neighbors(v) {
            if dist[u.index()] == UNREACHABLE {
                dist[u.index()] = dv + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}

/// Returns the BFS parent of every node reachable from `source` (the source
/// maps to itself; unreachable nodes map to `None`).
pub fn bfs_parents(graph: &Graph, source: NodeId) -> Vec<Option<NodeId>> {
    let mut parent = vec![None; graph.num_nodes()];
    if graph.num_nodes() == 0 {
        return parent;
    }
    parent[source.index()] = Some(source);
    let mut queue = VecDeque::new();
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        for u in graph.neighbors(v) {
            if parent[u.index()].is_none() {
                parent[u.index()] = Some(v);
                queue.push_back(u);
            }
        }
    }
    parent
}

/// Eccentricity of `source`: the maximum finite BFS distance from `source`.
/// Returns `None` if some node is unreachable from `source`.
pub fn eccentricity(graph: &Graph, source: NodeId) -> Option<u32> {
    let dist = bfs_distances(graph, source);
    let mut max = 0;
    for &d in &dist {
        if d == UNREACHABLE {
            return None;
        }
        max = max.max(d);
    }
    Some(max)
}

/// Exact diameter (maximum eccentricity) computed by running a BFS from every
/// node. Returns `None` for disconnected or empty graphs.
///
/// This is `O(n·m)` and intended for the graph sizes used in tests and
/// benchmarks (up to a few thousand nodes).
pub fn diameter(graph: &Graph) -> Option<u32> {
    if graph.num_nodes() == 0 {
        return None;
    }
    let mut diam = 0;
    for v in graph.nodes() {
        diam = diam.max(eccentricity(graph, v)?);
    }
    Some(diam)
}

/// Double-sweep diameter estimate in `O(m)`: a BFS from `start`, then a BFS
/// from the farthest node found. The returned eccentricity `e` satisfies
/// `diam/2 ≤ e ≤ diam` (exact on trees). Returns `None` for disconnected or
/// empty graphs.
///
/// Use this instead of [`diameter`] when the value feeds an *estimate* (e.g.
/// charged round counts) on graphs too large for the exact `O(n·m)` sweep.
pub fn diameter_double_sweep(graph: &Graph) -> Option<u32> {
    if graph.num_nodes() == 0 {
        return None;
    }
    let first = bfs_distances(graph, NodeId(0));
    let mut farthest = NodeId(0);
    let mut max = 0;
    for (i, &d) in first.iter().enumerate() {
        if d == UNREACHABLE {
            return None;
        }
        if d > max {
            max = d;
            farthest = NodeId(i as u32);
        }
    }
    eccentricity(graph, farthest)
}

/// Returns `true` when every node is reachable from every other node.
/// The empty graph and the single-node graph are considered connected.
pub fn is_connected(graph: &Graph) -> bool {
    if graph.num_nodes() <= 1 {
        return true;
    }
    bfs_distances(graph, NodeId(0))
        .iter()
        .all(|&d| d != UNREACHABLE)
}

/// Computes connected components; returns `(component_of, num_components)`
/// where `component_of[v]` is a component index in `0..num_components`.
pub fn connected_components(graph: &Graph) -> (Vec<usize>, usize) {
    let n = graph.num_nodes();
    let mut comp = vec![usize::MAX; n];
    let mut next = 0;
    for start in graph.nodes() {
        if comp[start.index()] != usize::MAX {
            continue;
        }
        comp[start.index()] = next;
        let mut queue = VecDeque::new();
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            for u in graph.neighbors(v) {
                if comp[u.index()] == usize::MAX {
                    comp[u.index()] = next;
                    queue.push_back(u);
                }
            }
        }
        next += 1;
    }
    (comp, next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_on_cycle() {
        let g = generators::cycle(6);
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d, vec![0, 1, 2, 3, 2, 1]);
    }

    #[test]
    fn bfs_unreachable_marked() {
        let g = generators::disjoint_union(&[generators::path(2), generators::path(2)]);
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d[0], 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], UNREACHABLE);
        assert_eq!(d[3], UNREACHABLE);
    }

    #[test]
    fn bfs_parents_form_tree() {
        let g = generators::clique(5);
        let p = bfs_parents(&g, NodeId(2));
        assert_eq!(p[2], Some(NodeId(2)));
        for v in g.nodes() {
            let parent = p[v.index()].unwrap();
            if v != NodeId(2) {
                assert!(g.has_edge(v, parent));
            }
        }
    }

    #[test]
    fn diameter_of_path_and_cycle() {
        assert_eq!(diameter(&generators::path(5)), Some(4));
        assert_eq!(diameter(&generators::cycle(8)), Some(4));
        assert_eq!(diameter(&generators::clique(7)), Some(1));
    }

    #[test]
    fn diameter_of_disconnected_is_none() {
        let g = generators::disjoint_union(&[generators::cycle(3), generators::cycle(3)]);
        assert_eq!(diameter(&g), None);
        assert!(!is_connected(&g));
    }

    #[test]
    fn double_sweep_estimate_brackets_the_diameter() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // Exact on trees/paths, within [diam/2, diam] in general.
        assert_eq!(diameter_double_sweep(&generators::path(9)), Some(8));
        assert_eq!(diameter_double_sweep(&generators::star(6)), Some(2));
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..5 {
            let g = generators::connected_gnp(60, 0.1, &mut rng);
            let exact = diameter(&g).unwrap();
            let est = diameter_double_sweep(&g).unwrap();
            assert!(est <= exact && 2 * est >= exact, "est {est} exact {exact}");
        }
        let disc = generators::disjoint_union(&[generators::cycle(3), generators::cycle(3)]);
        assert_eq!(diameter_double_sweep(&disc), None);
        assert_eq!(diameter_double_sweep(&Graph::empty(0)), None);
    }

    #[test]
    fn connectivity_of_small_graphs() {
        assert!(is_connected(&Graph::empty(0)));
        assert!(is_connected(&Graph::empty(1)));
        assert!(!is_connected(&Graph::empty(2)));
        assert!(is_connected(&generators::star(9)));
    }

    #[test]
    fn components_counts() {
        let g = generators::disjoint_union(&[
            generators::cycle(3),
            generators::path(4),
            generators::clique(2),
        ]);
        let (comp, k) = connected_components(&g);
        assert_eq!(k, 3);
        assert_eq!(comp.len(), 9);
        assert_eq!(comp[0], comp[1]);
        assert_ne!(comp[0], comp[3]);
        assert_ne!(comp[3], comp[7]);
    }
}
