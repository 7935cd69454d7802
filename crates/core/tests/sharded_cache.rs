//! Regression suite for the sharded-rebuild bug: the round engine used to
//! construct a fresh `ShardedGraph` (ghost tables included) on **every**
//! `SyncSimulator::run` call, so a multi-stage Algorithm 1 run paid
//! ghost-table construction once per level stage. Algorithm 1 now builds
//! the sharded view once per run (`SyncConfig::prebuild_sharded` +
//! `SyncSimulator::with_sharded_graph`) and drives every stage through the
//! one simulator — asserted here via the process-wide
//! `ShardedGraph::constructions` counter.
//!
//! This file must stay a **single `#[test]`**: the counter is global, so
//! any concurrently running test that shards a graph would race the exact
//! count. For the same reason the ambient `CONGEST_SHARDS` variable is
//! cleared up front — with it set, every auxiliary simulation inside
//! Algorithm 1 (danner convergecasts, broadcasts) would legitimately shard
//! its own carrier graph and blur the count.

use rand::rngs::StdRng;
use rand::SeedableRng;
use symbreak_classic::coloring::verify;
use symbreak_congest::SHARDS_ENV;
use symbreak_core::{alg1_coloring, Alg1Config};
use symbreak_graphs::sharded::ShardedGraph;
use symbreak_graphs::{generators, IdAssignment, IdSpace};

#[test]
fn multi_stage_alg1_run_shards_the_graph_exactly_once() {
    std::env::remove_var(SHARDS_ENV);

    // Dense enough that at least one partition level runs before the final
    // stage — a genuinely multi-stage run.
    let mut rng = StdRng::seed_from_u64(5);
    let g = generators::connected_gnp(120, 0.9, &mut rng);
    let ids = IdAssignment::random(&g, IdSpace::CUBIC, &mut rng);

    let config = Alg1Config {
        threads: 1,
        shards: 3,
        ..Alg1Config::default()
    };
    let mut rng = StdRng::seed_from_u64(6);
    let before = ShardedGraph::constructions();
    let out = alg1_coloring::run(&g, &ids, config, &mut rng).unwrap();
    let built = ShardedGraph::constructions() - before;

    // The run really was multi-stage: at least one level stage plus the
    // final stage went through the simulator.
    let coloring_stages = out
        .costs
        .phases()
        .filter(|(label, _)| label.contains("coloring"))
        .count();
    assert!(
        out.levels_used >= 1 && coloring_stages >= 2,
        "expected a multi-stage run, got {} level(s) / {} stage(s)",
        out.levels_used,
        coloring_stages
    );
    assert!(verify::is_proper_coloring(&g, &out.colors));
    assert_eq!(
        built, 1,
        "{coloring_stages} stages constructed the ShardedGraph {built} times"
    );

    // And the cached sharded view must not change behaviour: a sharded run
    // is bit-identical to an unsharded one, phase by phase.
    sharded_stages_match_unsharded_stages_bit_for_bit();
}

fn sharded_stages_match_unsharded_stages_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(11);
    let g = generators::connected_gnp(90, 0.5, &mut rng);
    let ids = IdAssignment::random(&g, IdSpace::CUBIC, &mut rng);

    let run = |shards: usize| {
        let mut rng = StdRng::seed_from_u64(12);
        alg1_coloring::run(
            &g,
            &ids,
            Alg1Config {
                threads: 1,
                shards,
                ..Alg1Config::default()
            },
            &mut rng,
        )
        .unwrap()
    };
    let plain = run(0);
    let sharded = run(4);
    assert_eq!(plain.colors, sharded.colors);
    assert_eq!(plain.levels_used, sharded.levels_used);
    let p: Vec<_> = plain.costs.phases().collect();
    let s: Vec<_> = sharded.costs.phases().collect();
    assert_eq!(p, s, "per-phase costs must be shard-count invariant");
}
