//! Differential suite for the KT-ρ knowledge checks: every radius rule of
//! [`KnowledgeView`] against a plain BFS oracle
//! ([`properties::bfs_distances`]).
//!
//! For every pair `(me, v)` and every ρ ∈ {0, 1, 2, 3}, each query either
//! returns the value the oracle predicts or panics with the exact violation
//! message of its level. ρ ≤ 2 is answered from the CSR rows (`v == me`, a
//! binary search, a row merge) and ρ = 3 by a truncated BFS; the oracle is
//! the same for both.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use rand::rngs::StdRng;
use rand::SeedableRng;
use symbreak_congest::{KnowledgeView, KtLevel};
use symbreak_graphs::properties::{self, UNREACHABLE};
use symbreak_graphs::{generators, Graph, IdAssignment, IdSpace, NodeId};

const LEVELS: [KtLevel; 4] = [KtLevel::KT0, KtLevel::KT1, KtLevel::KT2, KtLevel(3)];

/// The graphs under test, each with random cubic-space IDs.
fn graphs() -> Vec<(&'static str, Graph, IdAssignment)> {
    let mut rng = StdRng::seed_from_u64(40);
    // Dropping every edge at nodes 0–2 leaves them isolated.
    let (sparse, _) =
        generators::gnp(40, 0.1, &mut rng).filter_edges(|_, a, b| a.index() >= 3 && b.index() >= 3);
    let two = generators::disjoint_union(&[generators::cycle(5), generators::path(4)]);
    [
        ("path", generators::path(6)),
        ("star", generators::star(7)),
        ("gnp40_isolated", sparse),
        ("two_components", two),
    ]
    .into_iter()
    .map(|(name, g)| {
        let ids = IdAssignment::random(&g, IdSpace::CUBIC, &mut rng);
        (name, g, ids)
    })
    .collect()
}

/// Silences the default panic report for the expected violation panics
/// (there are thousands of them); every other panic is still reported.
fn quiet_violations() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let report = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !panic_text(info.payload()).contains(" violation: ") {
                report(info);
            }
        }));
    });
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// Runs `query`, returning its value or its panic message.
fn outcome<T>(query: impl FnOnce() -> T) -> Result<T, String> {
    panic::catch_unwind(AssertUnwindSafe(query)).map_err(|e| panic_text(&*e))
}

#[test]
fn every_radius_rule_matches_the_bfs_oracle() {
    quiet_violations();
    for (name, g, ids) in graphs() {
        for me in g.nodes() {
            let dist = properties::bfs_distances(&g, me);
            // Every node at distance exactly two, for `two_hop_neighbors`.
            let two_hop: Vec<NodeId> = g.nodes().filter(|v| dist[v.index()] == 2).collect();
            for level in LEVELS {
                let rho = level.radius();
                let k = KnowledgeView::new(&g, &ids, level, me);
                let at = format!("{name}: {level} at {me}");
                // Knows `v`'s ID (within ρ) / `v`'s neighbourhood (within ρ − 1).
                let knows_id = |v: NodeId| dist[v.index()] <= rho;
                let knows_adj = |v: NodeId| dist[v.index()] < rho;

                let ports = outcome(|| k.neighbor_ids());
                if rho >= 1 {
                    let want: Vec<_> = g.neighbors(me).map(|w| (w, ids.id_of(w))).collect();
                    assert_eq!(ports, Ok(want), "{at}: neighbor_ids");
                } else {
                    let msg = format!("{level} violation: neighbour IDs are not known initially");
                    assert_eq!(ports, Err(msg), "{at}: neighbor_ids");
                }
                let hops = outcome(|| k.two_hop_neighbors());
                if rho >= 2 {
                    assert_eq!(hops, Ok(two_hop.clone()), "{at}: two_hop_neighbors");
                } else {
                    let msg = format!(
                        "{level} violation: the two-hop neighbourhood is not known initially"
                    );
                    assert_eq!(hops, Err(msg), "{at}: two_hop_neighbors");
                }
                assert_eq!(k.known_node_with_id(0), None, "{at}: unused ID");

                for v in g.nodes() {
                    let at = format!("{at}, v = {v} at distance {}", dist[v.index()]);
                    let id_msg = format!(
                        "{level} violation: node {me} may not initially know the ID of {v}"
                    );
                    let adj_msg = format!(
                        "{level} violation: node {me} may not initially know the neighbourhood of {v}"
                    );

                    let id = outcome(|| k.id_of(v));
                    let node = k.known_node_with_id(ids.id_of(v));
                    if knows_id(v) {
                        assert_eq!(id, Ok(ids.id_of(v)), "{at}: id_of");
                        assert_eq!(node, Some(v), "{at}: known_node_with_id");
                    } else {
                        assert_eq!(id, Err(id_msg), "{at}: id_of");
                        assert_eq!(node, None, "{at}: known_node_with_id");
                    }

                    let nodes = outcome(|| k.neighbors_of(v));
                    let with_ids = outcome(|| k.neighbor_ids_of(v));
                    let iterated = outcome(|| k.known_neighbors(v).collect::<Vec<_>>());
                    if knows_adj(v) {
                        let want: Vec<_> = g.neighbors(v).map(|w| (w, ids.id_of(w))).collect();
                        assert_eq!(nodes, Ok(g.neighbor_vec(v)), "{at}: neighbors_of");
                        assert_eq!(with_ids, Ok(want.clone()), "{at}: neighbor_ids_of");
                        assert_eq!(iterated, Ok(want), "{at}: known_neighbors");
                        assert_eq!(k.known_neighbors(v).len(), g.degree(v), "{at}: len");
                    } else {
                        assert_eq!(nodes, Err(adj_msg.clone()), "{at}: neighbors_of");
                        assert_eq!(with_ids, Err(adj_msg.clone()), "{at}: neighbor_ids_of");
                        assert_eq!(iterated.map(|_| ()), Err(adj_msg), "{at}: known_neighbors");
                    }

                    for b in g.nodes() {
                        let want = (knows_adj(v) || knows_adj(b)) && g.has_edge(v, b);
                        assert_eq!(k.knows_edge(v, b), want, "{at}: knows_edge({v}, {b})");
                    }
                }
            }
        }
    }
}

/// The oracle grid above must actually reach every outcome: nodes at each
/// distance 0–3, farther nodes, and unreachable ones (isolated nodes and a
/// second component).
#[test]
fn the_grid_covers_every_distance_class() {
    let mut seen = [false; 6];
    for (_, g, _) in graphs() {
        for me in g.nodes() {
            for d in properties::bfs_distances(&g, me) {
                let class = match d {
                    0..=3 => d as usize,
                    UNREACHABLE => 5,
                    _ => 4,
                };
                seen[class] = true;
            }
        }
    }
    assert_eq!(seen, [true; 6]);
}
