//! Regression suite pinning compaction: after [`GraphOverlay::compact`],
//! the rebuilt base CSR must be **bit-identical** to a CSR built from
//! scratch on the mutated edge list — full structural equality (offsets,
//! targets, edge numbering), identical neighbour iteration order, identical
//! `two_hop_neighbors` rows, and identical behaviour from then on (the
//! overlay's merged iterators must keep agreeing after further churn).
//!
//! This is the contract the rest of the workspace leans on: repair
//! frontiers and the differential churn harness both assume compaction
//! introduces no drift.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use symbreak_graphs::generators::{self, ChurnStream};
use symbreak_graphs::{Graph, GraphBuilder, GraphOverlay, NodeId};

/// A CSR built from scratch on the overlay's current edge list.
fn scratch(overlay: &GraphOverlay) -> Graph {
    let mut builder = GraphBuilder::new(overlay.num_nodes());
    builder.add_edges(overlay.edge_list());
    builder.build()
}

fn assert_pinned(overlay: &mut GraphOverlay, label: &str) {
    let fresh = scratch(overlay);
    let compacted = overlay.compact().clone();
    // Full structural equality: offsets, targets and EdgeId numbering. The
    // compactor feeds the canonical sorted edge list to the same builder,
    // so anything short of `==` is drift.
    assert_eq!(compacted, fresh, "{label}: compacted CSR drifted");
    for v in fresh.nodes() {
        let compacted_row: Vec<NodeId> = compacted.neighbors(v).collect();
        let fresh_row: Vec<NodeId> = fresh.neighbors(v).collect();
        assert_eq!(compacted_row, fresh_row, "{label}: neighbour order of {v}");
        assert_eq!(
            compacted.two_hop_neighbors(v),
            fresh.two_hop_neighbors(v),
            "{label}: two-hop row of {v}"
        );
        // The overlay's merged view over the new, delta-free base agrees.
        assert_eq!(
            overlay.neighbor_vec(v),
            fresh_row,
            "{label}: post-compaction merged row of {v}"
        );
        assert_eq!(
            overlay.two_hop_neighbors(v),
            fresh.two_hop_neighbors(v),
            "{label}: post-compaction merged two-hop row of {v}"
        );
    }
    assert!(
        !overlay.is_dirty(),
        "{label}: compaction left deltas behind"
    );
}

#[test]
fn compaction_is_bit_identical_to_scratch_build() {
    let mut rng = StdRng::seed_from_u64(0xC0_4AC7);
    for case in 0..8u64 {
        let n = rng.gen_range(8..40);
        let base = generators::connected_gnp(n, rng.gen_range(0.1..0.5), &mut rng);
        let mut overlay = GraphOverlay::new(base.clone());
        let mut stream = ChurnStream::new(&base, 0x5EED ^ case);
        for round in 0..4u64 {
            let batch = stream.next_batch(3, 3);
            overlay.apply(&batch);
            assert_pinned(&mut overlay, &format!("case {case} round {round}"));
        }
    }
}

#[test]
fn compaction_generation_invalidates_even_when_clean() {
    // compact() on a clean overlay is a no-op on the CSR but still bumps
    // the generation: cache keys must not alias across compaction calls.
    let mut overlay = GraphOverlay::new(generators::cycle(6));
    let g0 = overlay.generation();
    overlay.compact();
    let g1 = overlay.generation();
    assert!(g1 > g0);
    overlay.compact();
    assert!(overlay.generation() > g1);
}

#[test]
fn compaction_pins_the_degenerate_mutations() {
    // Deleting a node's whole row, re-inserting an edge deleted earlier,
    // and inserting into an empty row must all survive compaction exactly.
    let base = generators::star(7);
    let mut overlay = GraphOverlay::new(base.clone());
    for leaf in 1..7u32 {
        overlay.delete_edge(NodeId(0), NodeId(leaf)); // isolate the hub
    }
    overlay.insert_edge(NodeId(1), NodeId(2));
    overlay.insert_edge(NodeId(0), NodeId(3)); // re-insert a deleted edge
    assert_pinned(&mut overlay, "star degenerate");
    // Churn again after compaction: the new base must behave identically.
    overlay.insert_edge(NodeId(4), NodeId(5));
    overlay.delete_edge(NodeId(1), NodeId(2));
    assert_pinned(&mut overlay, "star degenerate, second generation");
}
