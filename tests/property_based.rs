//! Property-based tests over random graphs, ID assignments and parameters:
//! validity invariants that must hold on *every* input, not just the
//! benchmark instances.
//!
//! The offline build environment has no `proptest`, so cases are generated
//! by a deterministic seed loop: every test derives its inputs from a fixed
//! per-case seed, which keeps failures reproducible (the failing seed is in
//! the assertion message) while still sweeping a spread of sizes, densities
//! and ID assignments.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use symbreak::classic::{coloring, mis};
use symbreak::congest::SyncConfig;
use symbreak::core::{alg1_coloring, alg2_coloring, alg3_mis, Alg1Config, Alg2Config, Alg3Config};
use symbreak::danner::Danner;
use symbreak::graphs::{generators, properties, Graph, IdAssignment, IdSpace, NodeId};
use symbreak::ktrand::{KWiseFamily, SharedRandomness};
use symbreak::lowerbounds::crossed::{CrossedFamily, Crossing};

const CASES: u64 = 12;

/// Derives a well-mixed seed for case `i` of the test labelled `salt`.
fn case_seed(salt: u64, i: u64) -> u64 {
    let mut z = salt ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Random connected graph with `4 <= n < max_n` and density in `[0.05, 0.9)`.
fn arb_connected_graph(max_n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(4..max_n);
    let p = rng.gen_range(0.05f64..0.9);
    generators::connected_gnp(n, p, &mut rng)
}

#[test]
fn alg1_always_produces_a_proper_coloring() {
    for i in 0..CASES {
        let seed = case_seed(0xa5a5, i);
        let graph = arb_connected_graph(40, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xa5a5);
        let ids = IdAssignment::random(&graph, IdSpace::CUBIC, &mut rng);
        let out = alg1_coloring::run(&graph, &ids, Alg1Config::default(), &mut rng).unwrap();
        assert!(
            coloring::verify::is_proper_coloring(&graph, &out.colors),
            "improper coloring for seed {seed}"
        );
        assert!(
            coloring::verify::uses_colors_below(&out.colors, graph.max_degree() as u64 + 1),
            "palette overflow for seed {seed}"
        );
    }
}

#[test]
fn alg2_respects_its_palette() {
    for i in 0..CASES {
        let seed = case_seed(0x1111, i);
        let graph = arb_connected_graph(40, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1111);
        let eps = rng.gen_range(0.1f64..2.0);
        let ids = IdAssignment::random(&graph, IdSpace::CUBIC, &mut rng);
        let config = Alg2Config {
            epsilon: eps,
            ..Alg2Config::default()
        };
        let out = alg2_coloring::run(&graph, &ids, config, &mut rng).unwrap();
        assert!(
            coloring::verify::is_proper_coloring(&graph, &out.colors),
            "improper coloring for seed {seed} (eps {eps})"
        );
        assert!(
            coloring::verify::uses_colors_below(&out.colors, out.palette_size),
            "palette overflow for seed {seed} (eps {eps})"
        );
    }
}

#[test]
fn alg3_always_produces_an_mis() {
    for i in 0..CASES {
        let seed = case_seed(0x3333, i);
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(2usize..50);
        let p = rng.gen_range(0.0f64..1.0);
        let graph = generators::gnp(n, p, &mut rng);
        let ids = IdAssignment::random(&graph, IdSpace::CUBIC, &mut rng);
        let out = alg3_mis::run(&graph, &ids, Alg3Config::default(), &mut rng).unwrap();
        assert!(
            mis::verify::is_mis(&graph, &out.in_mis),
            "invalid MIS for seed {seed} (n {n}, p {p})"
        );
    }
}

#[test]
fn luby_and_parallel_greedy_are_valid_on_arbitrary_graphs() {
    for i in 0..CASES {
        let seed = case_seed(0x4444, i);
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1usize..40);
        let p = rng.gen_range(0.0f64..1.0);
        let graph = generators::gnp(n, p, &mut rng);
        let ids = IdAssignment::identity(n);
        let (luby, _) = mis::luby::run(&graph, &ids, seed, SyncConfig::default());
        assert!(
            mis::verify::is_mis(&graph, &luby),
            "luby failed for seed {seed}"
        );
        let ranks: Vec<u64> = (0..n as u64).map(|i| i * 2654435761 % 10007).collect();
        let (pg, _) =
            mis::parallel_greedy::run_on_whole_graph(&graph, &ids, &ranks, SyncConfig::default());
        assert!(
            mis::verify::is_mis(&graph, &pg),
            "parallel greedy failed for seed {seed}"
        );
        assert_eq!(
            pg,
            mis::greedy::greedy_mis_by_rank(&graph, &ranks),
            "parallel greedy disagrees with sequential greedy for seed {seed}"
        );
    }
}

#[test]
fn danner_invariants_hold() {
    for i in 0..CASES {
        let seed = case_seed(0x7777, i);
        let graph = arb_connected_graph(50, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7777);
        let delta = rng.gen_range(0.0f64..1.0);
        let ids = IdAssignment::random(&graph, IdSpace::CUBIC, &mut rng);
        let danner = Danner::build(&graph, &ids, delta).unwrap();
        assert!(
            properties::is_connected(danner.subgraph()),
            "danner disconnected for seed {seed}"
        );
        assert!(
            danner.num_edges() <= danner.edge_bound(),
            "edge bound for seed {seed}"
        );
        assert!(
            danner.num_edges() <= graph.num_edges(),
            "edge count for seed {seed}"
        );
        if let (Some(dh), Some(dg)) = (
            properties::diameter(danner.subgraph()),
            properties::diameter(&graph),
        ) {
            assert!(
                dh <= 2 * dg.max(1),
                "diameter bound for seed {seed}: {dh} > 2*{dg}"
            );
        }
    }
}

#[test]
fn kwise_hash_outputs_stay_in_range() {
    for i in 0..CASES {
        let seed = case_seed(0x8888, i);
        let mut rng = StdRng::seed_from_u64(seed);
        let k = rng.gen_range(1usize..16);
        let range = rng.gen_range(1u64..1000);
        let x = rng.gen::<u64>();
        let h = KWiseFamily::new(k, range).sample(&mut rng);
        assert!(
            h.eval(x) < range,
            "out of range for seed {seed} (k {k}, range {range})"
        );
    }
}

#[test]
fn shared_randomness_clones_agree() {
    const LABELS: [&str; 4] = ["a", "bz", "qrs", "wxyzabcd"];
    for i in 0..CASES {
        let seed = case_seed(0x9999, i);
        let mut rng = StdRng::seed_from_u64(seed);
        let label = LABELS[rng.gen_range(0usize..LABELS.len())];
        let x = rng.gen::<u64>();
        let a = SharedRandomness::from_seed(seed, 1024);
        let b = a.clone();
        let ha = a.hash_fn(label, 4, 97);
        let hb = b.hash_fn(label, 4, 97);
        assert_eq!(ha.eval(x), hb.eval(x), "clones disagree for seed {seed}");
    }
}

#[test]
fn crossed_family_preserves_degrees_for_every_crossing() {
    for i in 0..CASES {
        let seed = case_seed(0xcccc, i);
        let mut rng = StdRng::seed_from_u64(seed);
        let t = rng.gen_range(2usize..7);
        let crossing = Crossing {
            x: rng.gen_range(0usize..6) % t,
            y: rng.gen_range(0usize..6) % t,
            z: rng.gen_range(0usize..6) % t,
        };
        let family = CrossedFamily::new(t);
        let base = family.base_graph();
        let crossed = family.crossed_graph(crossing);
        assert_eq!(
            base.num_edges(),
            crossed.num_edges(),
            "edge count for seed {seed}"
        );
        for v in base.nodes() {
            assert_eq!(
                base.degree(v),
                crossed.degree(v),
                "degree of {v} for seed {seed}"
            );
        }
        // The ψ assignment keeps the primed copy order-isomorphic to the
        // unprimed copy (observation (iii) of Section 2.2).
        let psi = family.psi(crossing);
        for a in 0..3 * t {
            for b in 0..3 * t {
                let unprimed = psi.id_of(NodeId(a as u32)) < psi.id_of(NodeId(b as u32));
                let primed =
                    psi.id_of(NodeId((a + 3 * t) as u32)) < psi.id_of(NodeId((b + 3 * t) as u32));
                assert_eq!(unprimed, primed, "order isomorphism for seed {seed}");
            }
        }
    }
}

#[test]
fn churn_repair_survives_random_streams() {
    // Random insert/delete streams against full recompute: after every
    // batch the repaired colouring and MIS must be valid on a graph built
    // from scratch on the mutated edge list.
    use symbreak::core::repair::{ChurnSession, ColoringRepairDriver, MisRepairDriver};
    use symbreak::graphs::generators::ChurnStream;
    for i in 0..CASES {
        let seed = case_seed(0xc4c4, i);
        let graph = arb_connected_graph(30, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc4c4);
        let ids = IdAssignment::random(&graph, IdSpace::CUBIC, &mut rng);
        let mut session = ChurnSession::new(graph.clone(), ids, SyncConfig::default());
        let (mut colors, _) = session.recompute_coloring(seed ^ 1);
        let (mut in_set, _) = session.recompute_mis(seed ^ 2);
        let mut stream = ChurnStream::new(&graph, seed ^ 3);
        for step in 0..8u64 {
            let deletes = rng.gen_range(0..4);
            let inserts = rng.gen_range(0..4);
            let batch = stream.next_batch(deletes, inserts);
            session.apply(&batch);
            session.repair_coloring(
                &batch,
                &mut colors,
                ColoringRepairDriver::Johansson,
                seed ^ (step << 8),
            );
            session.repair_mis(
                &batch,
                &mut in_set,
                MisRepairDriver::Luby,
                seed ^ (step << 16),
            );
            let current = session.overlay().materialize();
            assert!(
                coloring::verify::is_proper_coloring(&current, &colors),
                "improper colouring for seed {seed} step {step}"
            );
            assert!(
                mis::verify::is_mis(&current, &in_set),
                "broken MIS for seed {seed} step {step}"
            );
        }
    }
}

#[test]
fn churn_repair_handles_degenerate_batches() {
    // The degenerate churn cases: duplicate inserts in one batch, deleting
    // absent edges, isolating a node, and deleting + re-inserting the same
    // edge in one batch. All must leave the overlay bit-identical to a
    // fresh build and the repaired outputs valid.
    use symbreak::core::repair::{ChurnSession, ColoringRepairDriver, MisRepairDriver};
    use symbreak::graphs::{ChurnBatch, GraphBuilder};
    for i in 0..CASES {
        let seed = case_seed(0xde6e, i);
        let graph = arb_connected_graph(24, seed);
        let n = graph.num_nodes();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xde6e);
        let ids = IdAssignment::random(&graph, IdSpace::CUBIC, &mut rng);
        let mut session = ChurnSession::new(graph.clone(), ids, SyncConfig::default());
        let (mut colors, _) = session.recompute_coloring(seed ^ 1);
        let (mut in_set, _) = session.recompute_mis(seed ^ 2);

        // A non-edge (u, v) to insert twice in the same batch, plus an
        // absent edge to delete.
        let non_edge = (0..n as u32)
            .flat_map(|u| (u + 1..n as u32).map(move |v| (NodeId(u), NodeId(v))))
            .find(|&(u, v)| !graph.has_edge(u, v));
        // The victim node to isolate, and an existing edge to delete and
        // re-insert within one batch.
        let victim = NodeId(rng.gen_range(0..n as u32));
        let (_, eu, ev) = graph.edges().next().expect("connected graph has edges");

        let mut batches = vec![ChurnBatch {
            deletes: vec![(eu, ev)],
            inserts: vec![(eu, ev)], // net no-op: deleted then re-inserted
        }];
        if let Some((u, v)) = non_edge {
            batches.push(ChurnBatch {
                inserts: vec![(u, v), (u, v), (v, u)], // duplicates collapse
                deletes: vec![(u, v)],                 // applied first: absent, no-op
            });
        }
        // The isolation batch severs whatever the victim's *current* edges
        // are at application time, so it goes last and is built lazily.
        batches.push(ChurnBatch::default());

        let last = batches.len() - 1;
        for (k, batch) in batches.iter_mut().enumerate() {
            if k == last {
                batch.deletes = session
                    .overlay()
                    .neighbor_vec(victim)
                    .into_iter()
                    .map(|u| (victim, u))
                    .collect();
            }
            let batch = &*batch;
            session.apply(batch);
            session.repair_coloring(
                batch,
                &mut colors,
                ColoringRepairDriver::Johansson,
                seed ^ (k as u64) << 8,
            );
            session.repair_mis(
                batch,
                &mut in_set,
                MisRepairDriver::Luby,
                seed ^ (k as u64) << 16,
            );
            let mut builder = GraphBuilder::new(n);
            builder.add_edges(session.overlay().edge_list());
            let fresh = builder.build();
            for v in fresh.nodes() {
                assert_eq!(
                    session.overlay().neighbor_vec(v),
                    fresh.neighbor_vec(v),
                    "overlay row {v} drifted for seed {seed} batch {k}"
                );
            }
            assert!(
                coloring::verify::is_proper_coloring(&fresh, &colors),
                "improper colouring for seed {seed} batch {k}"
            );
            assert!(
                mis::verify::is_mis(&fresh, &in_set),
                "broken MIS for seed {seed} batch {k}"
            );
        }
        // The isolated node has no neighbours left, so maximality forces it
        // into the repaired set.
        assert!(
            in_set[victim.index()],
            "isolated node outside the MIS for seed {seed}"
        );
    }
}
