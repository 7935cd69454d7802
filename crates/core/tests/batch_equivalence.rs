//! Differential suite for the shared-setup `run_batch` of Algorithms 1 and
//! 2: output `k` ("lane `k`") of a batched call must be **bit-identical** to
//! `run` with seed `seeds[k]` — same colors (and levels or palette), same
//! per-phase message and round counts — across graph families (cycle,
//! clique, power-law), lane counts {1, 3, 8} and stepping threads {1, 4}.
//! Only the seed-independent setup (the danner plan, the Δ casts and, for
//! Algorithm 2, the neighbour table) is shared between lanes; each seed
//! runs on the plain engine.
//!
//! This also pins down *lane independence*: batching any subset of seeds
//! must not perturb any lane, even when lanes diverge structurally (Alg1
//! lanes break out of the level loop at different levels).

use rand::rngs::StdRng;
use rand::SeedableRng;
use symbreak_congest::CostAccount;
use symbreak_core::{alg1_coloring, alg2_coloring, Alg1Config, Alg2Config};
use symbreak_graphs::{generators, Graph, IdAssignment, IdSpace};

const LANE_COUNTS: [usize; 3] = [1, 3, 8];
const THREAD_COUNTS: [usize; 2] = [1, 4];
const SEED_BASE: u64 = 40;

fn instances() -> Vec<(String, Graph, IdAssignment)> {
    let mut rng = StdRng::seed_from_u64(7);
    let cyc = generators::cycle(40);
    let cyc_ids = IdAssignment::random(&cyc, IdSpace::CUBIC, &mut rng);
    let clique = generators::clique(20);
    let clique_ids = IdAssignment::random(&clique, IdSpace::CUBIC, &mut rng);
    let pl = generators::power_law(80, 3, &mut rng);
    let pl_ids = IdAssignment::random(&pl, IdSpace::CUBIC, &mut rng);
    vec![
        ("cycle40".into(), cyc, cyc_ids),
        ("clique20".into(), clique, clique_ids),
        ("power_law80".into(), pl, pl_ids),
    ]
}

fn seeds(lanes: usize) -> Vec<u64> {
    (0..lanes as u64).map(|k| SEED_BASE + k).collect()
}

/// Phase-by-phase cost comparison — stronger than totals: a phase that
/// shifted work into another phase would be caught.
fn assert_costs_identical(label: &str, batched: &CostAccount, sequential: &CostAccount) {
    let b: Vec<_> = batched.phases().collect();
    let s: Vec<_> = sequential.phases().collect();
    assert_eq!(b.len(), s.len(), "{label}: phase count");
    for ((bl, bc), (sl, sc)) in b.iter().zip(&s) {
        assert_eq!(bl, sl, "{label}: phase label");
        assert_eq!(bc, sc, "{label}: cost of phase {bl}");
    }
}

#[test]
fn alg1_lanes_match_sequential_across_threads_and_shards() {
    for (name, g, ids) in instances() {
        // The sequential oracle: one outcome per seed, computed once (Alg1
        // outputs are thread invariant, so one baseline serves every engine
        // configuration).
        let oracle: Vec<_> = seeds(8)
            .iter()
            .map(|&s| {
                let mut rng = StdRng::seed_from_u64(s);
                alg1_coloring::run(&g, &ids, Alg1Config::default(), &mut rng).unwrap()
            })
            .collect();
        for threads in THREAD_COUNTS {
            for lanes in LANE_COUNTS {
                let config = Alg1Config {
                    threads,
                    ..Alg1Config::default()
                };
                let outs = alg1_coloring::run_batch(&g, &ids, config, &seeds(lanes)).unwrap();
                assert_eq!(outs.len(), lanes);
                for (k, out) in outs.iter().enumerate() {
                    let label = format!("alg1 {name} threads={threads} lane {k}/{lanes}");
                    assert_eq!(out.colors, oracle[k].colors, "{label}");
                    assert_eq!(out.levels_used, oracle[k].levels_used, "{label}");
                    assert_eq!(out.max_degree, oracle[k].max_degree, "{label}");
                    assert_costs_identical(&label, &out.costs, &oracle[k].costs);
                }
            }
        }
    }
}

#[test]
fn alg2_lanes_match_sequential_across_threads() {
    for (name, g, ids) in instances() {
        let oracle: Vec<_> = seeds(8)
            .iter()
            .map(|&s| {
                let mut rng = StdRng::seed_from_u64(s);
                alg2_coloring::run(&g, &ids, Alg2Config::default(), &mut rng).unwrap()
            })
            .collect();
        for threads in THREAD_COUNTS {
            for lanes in LANE_COUNTS {
                let config = Alg2Config {
                    threads,
                    ..Alg2Config::default()
                };
                let outs = alg2_coloring::run_batch(&g, &ids, config, &seeds(lanes)).unwrap();
                assert_eq!(outs.len(), lanes);
                for (k, out) in outs.iter().enumerate() {
                    let label = format!("alg2 {name} threads={threads} lane {k}/{lanes}");
                    assert_eq!(out.colors, oracle[k].colors, "{label}");
                    assert_eq!(out.palette_size, oracle[k].palette_size, "{label}");
                    assert_costs_identical(&label, &out.costs, &oracle[k].costs);
                }
            }
        }
    }
}

#[test]
fn batching_a_subset_of_lanes_does_not_perturb_any_lane() {
    // Lane independence: the same seed must produce the same outcome no
    // matter which other seeds share the batch.
    let (_, g, ids) = instances().remove(2);
    let full = alg1_coloring::run_batch(&g, &ids, Alg1Config::default(), &seeds(8)).unwrap();
    let pair = alg1_coloring::run_batch(
        &g,
        &ids,
        Alg1Config::default(),
        &[SEED_BASE + 2, SEED_BASE + 6],
    )
    .unwrap();
    assert_eq!(pair[0].colors, full[2].colors);
    assert_eq!(pair[1].colors, full[6].colors);
    assert_costs_identical("subset lane 2", &pair[0].costs, &full[2].costs);
    assert_costs_identical("subset lane 6", &pair[1].costs, &full[6].costs);
}
