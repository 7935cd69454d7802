//! Differential churn harness: incremental repair vs. from-scratch truth.
//!
//! Every cell of the grid — graph family × stream seed × engine thread
//! count — opens a [`ChurnSession`], computes an initial colouring and MIS,
//! then drives a seed-reproducible [`ChurnStream`] through the overlay.
//! After **every** batch the suite asserts, against a fresh CSR built from
//! scratch on the mutated edge list:
//!
//! * repaired colourings are proper colourings of the current graph, and
//!   repaired sets are maximal independent sets;
//! * every repair reaches its fixpoint in at most one frontier iteration;
//! * the overlay's merged adjacency — neighbour rows, two-hop rows, degrees
//!   and edge count — is **bit-identical** to the fresh build;
//! * at compaction boundaries, the compacted base CSR equals the fresh
//!   build by full structural equality (offsets, targets **and** edge
//!   numbering), and repairs keep tracking across the boundary.
//!
//! Cells are labelled with their parameters, so a failure pins the exact
//! `(family, seed, threads, step)` to replay. `CONGEST_CHURN_SEED` replays
//! the whole grid under a different randomness universe.

use rand::rngs::StdRng;
use rand::SeedableRng;
use symbreak_classic::coloring::verify::is_proper_coloring;
use symbreak_classic::mis::verify::is_mis;
use symbreak_congest::SyncConfig;
use symbreak_core::repair::{ChurnSession, ColoringRepairDriver, MisRepairDriver};
use symbreak_graphs::generators::{self, ChurnStream};
use symbreak_graphs::{Graph, GraphBuilder, IdAssignment, IdSpace};

/// Env knob: replays the whole grid under a different base seed.
const CHURN_SEED_ENV: &str = "CONGEST_CHURN_SEED";

fn churn_seed_from_env(default: u64) -> u64 {
    match std::env::var(CHURN_SEED_ENV) {
        Ok(raw) => raw.trim().parse().unwrap_or(default),
        Err(_) => default,
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The graph families of the grid (≥ 3, per the acceptance criteria).
fn family_graph(family: &str, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    match family {
        "gnp" => generators::connected_gnp(42, 0.12, &mut rng),
        "power_law" => generators::power_law(48, 3, &mut rng),
        "small_world" => generators::small_world(40, 4, 0.2, &mut rng),
        other => panic!("unknown family {other}"),
    }
}

/// Fresh CSR built from scratch on the overlay's current edge list — the
/// from-scratch truth every per-batch assertion compares against.
fn scratch_build(session: &ChurnSession) -> Graph {
    let mut builder = GraphBuilder::new(session.overlay().num_nodes());
    builder.add_edges(session.overlay().edge_list());
    builder.build()
}

/// Asserts the overlay's merged adjacency is bit-identical to the fresh
/// CSR.
fn assert_overlay_matches_fresh(session: &ChurnSession, fresh: &Graph, cell: &str) {
    let overlay = session.overlay();
    assert_eq!(overlay.num_edges(), fresh.num_edges(), "{cell} edge count");
    for v in fresh.nodes() {
        assert_eq!(
            overlay.neighbor_vec(v),
            fresh.neighbor_vec(v),
            "{cell} neighbour row of {v}"
        );
        assert_eq!(overlay.degree(v), fresh.degree(v), "{cell} degree of {v}");
        assert_eq!(
            overlay.two_hop_neighbors(v),
            fresh.two_hop_neighbors(v),
            "{cell} two-hop row of {v}"
        );
    }
}

fn run_cell(family: &str, graph_seed: u64, threads: usize) {
    let cell = format!("family={family} seed={graph_seed:#x} threads={threads}");
    let graph = family_graph(family, graph_seed);
    let mut rng = StdRng::seed_from_u64(graph_seed ^ 0x1D5);
    let ids = IdAssignment::random(&graph, IdSpace::CUBIC, &mut rng);
    let config = SyncConfig::default().with_threads(threads);
    let mut session = ChurnSession::new(graph.clone(), ids, config);

    let (mut colors, _) = session.recompute_coloring(graph_seed ^ 0xC01);
    let (mut in_set, _) = session.recompute_mis(graph_seed ^ 0x3A5);

    let mut stream = ChurnStream::new(&graph, graph_seed ^ 0x5EED);
    for step in 0..10u64 {
        let batch = stream.next_batch(2, 2);
        session.apply(&batch);
        let seed = splitmix64(graph_seed ^ step);
        let coloring =
            session.repair_coloring(&batch, &mut colors, ColoringRepairDriver::Johansson, seed);
        let mis = session.repair_mis(&batch, &mut in_set, MisRepairDriver::Luby, seed ^ 2);

        let fresh = scratch_build(&session);
        assert!(
            is_proper_coloring(&fresh, &colors),
            "{cell} step={step}: Johansson repair broke the colouring"
        );
        assert!(
            is_mis(&fresh, &in_set),
            "{cell} step={step}: Luby repair broke the MIS"
        );
        // Johansson colours and Luby decides every frontier node, so the
        // re-scan after the first iteration finds nothing left to repair.
        assert!(
            coloring.iterations <= 1,
            "{cell} step={step}: colouring repair took {} iterations",
            coloring.iterations
        );
        assert!(
            mis.iterations <= 1,
            "{cell} step={step}: MIS repair took {} iterations",
            mis.iterations
        );
        assert_overlay_matches_fresh(&session, &fresh, &format!("{cell} step={step}"));

        // Compaction boundaries: the rebuilt base CSR must equal the fresh
        // build *structurally* (offsets, targets, edge numbering), and the
        // repairs must keep tracking across the boundary (the loop's next
        // iterations run against the compacted base).
        if step == 4 || step == 7 {
            let generation_before = session.overlay().generation();
            let compacted = session.compact().clone();
            assert_eq!(compacted, fresh, "{cell} step={step}: compaction drifted");
            assert!(
                session.overlay().generation() > generation_before,
                "{cell} step={step}: compaction must bump the generation"
            );
            assert!(!session.overlay().is_dirty(), "{cell} step={step}");
        }
    }
}

#[test]
fn churn_repair_matches_scratch_on_gnp() {
    let base = churn_seed_from_env(0xD1FF_0001);
    for i in 0..3u64 {
        for &threads in &[1usize, 4] {
            run_cell("gnp", splitmix64(base ^ i), threads);
        }
    }
}

#[test]
fn churn_repair_matches_scratch_on_power_law() {
    let base = churn_seed_from_env(0xD1FF_0002);
    for i in 0..3u64 {
        for &threads in &[1usize, 4] {
            run_cell("power_law", splitmix64(base ^ i), threads);
        }
    }
}

#[test]
fn churn_repair_matches_scratch_on_small_world() {
    let base = churn_seed_from_env(0xD1FF_0003);
    for i in 0..3u64 {
        for &threads in &[1usize, 4] {
            run_cell("small_world", splitmix64(base ^ i), threads);
        }
    }
}

#[test]
fn churn_repair_replays_bit_exactly_from_its_cell_seed() {
    // The per-cell replay contract: running one cell twice from the same
    // seed produces identical outputs. (The repaired vectors are a function
    // of the cell parameters only — asserted here by running the full cell
    // body twice and comparing the final colourings/sets.)
    fn final_outputs(seed: u64) -> (Vec<Option<u64>>, Vec<bool>) {
        let graph = family_graph("gnp", seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1D5);
        let ids = IdAssignment::random(&graph, IdSpace::CUBIC, &mut rng);
        let mut session = ChurnSession::new(graph.clone(), ids, SyncConfig::default());
        let (mut colors, _) = session.recompute_coloring(seed ^ 0xC01);
        let (mut in_set, _) = session.recompute_mis(seed ^ 0x3A5);
        let mut stream = ChurnStream::new(&graph, seed ^ 0x5EED);
        for step in 0..6u64 {
            let batch = stream.next_batch(2, 2);
            session.apply(&batch);
            let s = splitmix64(seed ^ step);
            session.repair_coloring(&batch, &mut colors, ColoringRepairDriver::Johansson, s);
            session.repair_mis(&batch, &mut in_set, MisRepairDriver::Luby, s ^ 2);
        }
        (colors, in_set)
    }
    let seed = churn_seed_from_env(0x5E_91A7);
    assert_eq!(final_outputs(seed), final_outputs(seed));
}
