//! Differential suite for the batched multi-execution engine: lane `k` of a
//! batched run must be **bit-identical** to a sequential run with seed
//! `seeds[k]` — same colors/MIS membership, same per-phase message and round
//! counts — across graph families (cycle, clique, power-law), algorithms
//! (1, 2, 3 and the classic Θ(m) baselines), lane counts {1, 3, 8} and
//! stepping threads {1, 4}.
//!
//! This also pins down *lane independence*: batching any subset of seeds
//! must not perturb any lane, even when lanes diverge structurally (Alg1
//! lanes break out of the level loop at different levels).

use rand::rngs::StdRng;
use rand::SeedableRng;
use symbreak_classic::{coloring, mis};
use symbreak_congest::{BatchSimulator, CostAccount, KtLevel, SyncConfig};
use symbreak_core::{alg1_coloring, alg2_coloring, alg3_mis, Alg1Config, Alg2Config, Alg3Config};
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
fn alg3_lanes_match_sequential_across_threads() {
    for (name, g, ids) in instances() {
        let oracle: Vec<_> = seeds(8)
            .iter()
            .map(|&s| {
                let mut rng = StdRng::seed_from_u64(s);
                alg3_mis::run(&g, &ids, Alg3Config::default(), &mut rng).unwrap()
            })
            .collect();
        for threads in THREAD_COUNTS {
            for lanes in LANE_COUNTS {
                let config = Alg3Config {
                    threads,
                    ..Alg3Config::default()
                };
                let outs = alg3_mis::run_batch(&g, &ids, config, &seeds(lanes)).unwrap();
                assert_eq!(outs.len(), lanes);
                for (k, out) in outs.iter().enumerate() {
                    let label = format!("alg3 {name} threads={threads} lane {k}/{lanes}");
                    assert_eq!(out.in_mis, oracle[k].in_mis, "{label}");
                    assert_eq!(out.sampled, oracle[k].sampled, "{label}");
                    assert_eq!(
                        out.remnant_max_degree, oracle[k].remnant_max_degree,
                        "{label}"
                    );
                    assert_costs_identical(&label, &out.costs, &oracle[k].costs);
                }
            }
        }
    }
}

#[test]
fn classic_baseline_lanes_match_sequential_reports() {
    // The classic Θ(m) baselines compare whole ExecutionReports (rounds,
    // messages, max message width, outputs), across the engine matrix.
    for (name, g, ids) in instances() {
        let luby_oracle: Vec<_> = seeds(8)
            .iter()
            .map(|&s| mis::luby::run(&g, &ids, s, SyncConfig::default()))
            .collect();
        let baseline_oracle: Vec<_> = seeds(8)
            .iter()
            .map(|&s| coloring::baseline::run(&g, &ids, s, SyncConfig::default()))
            .collect();
        let sim = BatchSimulator::new(&g, &ids, KtLevel::KT1);
        for threads in THREAD_COUNTS {
            let config = SyncConfig::default().with_threads(threads);
            for lanes in LANE_COUNTS {
                let luby = mis::luby::run_batch(&sim, &seeds(lanes), config);
                let baseline = coloring::baseline::run_batch(&sim, &seeds(lanes), config);
                assert_eq!(luby.len(), lanes);
                assert_eq!(baseline.len(), lanes);
                for k in 0..lanes {
                    let label = format!("{name} threads={threads} lane {k}/{lanes}");
                    assert_eq!(luby[k].0, luby_oracle[k].0, "luby MIS {label}");
                    assert_eq!(luby[k].1, luby_oracle[k].1, "luby report {label}");
                    assert_eq!(
                        baseline[k].0, baseline_oracle[k].0,
                        "baseline colors {label}"
                    );
                    assert_eq!(
                        baseline[k].1, baseline_oracle[k].1,
                        "baseline report {label}"
                    );
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
