//! Ready-made experiment drivers used by the benches (the sweep registry
//! behind `BENCH_sweeps.json` among them) and the examples: each function
//! runs one algorithm (or baseline) on one instance and returns a
//! [`MeasurementRow`] for the Figure-1 comparison.

use rand::rngs::StdRng;
use rand::SeedableRng;
use symbreak_classic::{coloring, mis};
use symbreak_congest::{CostAccount, SyncConfig};
use symbreak_graphs::{Graph, IdAssignment};

use crate::report::MeasurementRow;
use crate::{alg1_coloring, alg2_coloring, alg3_mis};
use crate::{Alg1Config, Alg2Config, Alg2Outcome, Alg3Config, ColoringOutcome};

/// Runs Algorithm 1 and returns its measurement row.
///
/// # Panics
///
/// Panics if the algorithm reports an error (the experiment drivers expect
/// connected, well-formed instances).
pub fn measure_alg1(graph: &Graph, ids: &IdAssignment, seed: u64) -> MeasurementRow {
    let mut rng = StdRng::seed_from_u64(seed);
    let out = alg1_coloring::run(graph, ids, Alg1Config::default(), &mut rng)
        .expect("Algorithm 1 failed on a benchmark instance");
    alg1_row(graph, &out)
}

/// Algorithm 1's measurement row for one outcome.
fn alg1_row(graph: &Graph, out: &ColoringOutcome) -> MeasurementRow {
    let valid = coloring::verify::is_proper_coloring(graph, &out.colors)
        && coloring::verify::uses_colors_below(&out.colors, graph.max_degree() as u64 + 1);
    MeasurementRow::new("Alg1 (Δ+1)-coloring KT-1", graph, &out.costs, valid)
}

/// Runs the asynchronous variant of Algorithm 1 (Theorem 3.4).
///
/// # Panics
///
/// Panics if the algorithm reports an error.
pub fn measure_alg1_async(graph: &Graph, ids: &IdAssignment, seed: u64) -> MeasurementRow {
    let mut rng = StdRng::seed_from_u64(seed);
    let out = alg1_coloring::run_async(graph, ids, Alg1Config::default(), &mut rng)
        .expect("asynchronous Algorithm 1 failed on a benchmark instance");
    let valid = coloring::verify::is_proper_coloring(graph, &out.colors);
    MeasurementRow::new("Alg1 async (Δ+1)-coloring KT-1", graph, &out.costs, valid)
}

/// Runs Algorithm 2 with the given ε and returns its measurement row.
///
/// # Panics
///
/// Panics if the algorithm reports an error.
pub fn measure_alg2(graph: &Graph, ids: &IdAssignment, epsilon: f64, seed: u64) -> MeasurementRow {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = Alg2Config {
        epsilon,
        ..Alg2Config::default()
    };
    let out = alg2_coloring::run(graph, ids, config, &mut rng)
        .expect("Algorithm 2 failed on a benchmark instance");
    alg2_row(graph, epsilon, &out)
}

/// Algorithm 2's measurement row for one outcome at slack `epsilon`.
fn alg2_row(graph: &Graph, epsilon: f64, out: &Alg2Outcome) -> MeasurementRow {
    let valid = coloring::verify::is_proper_coloring(graph, &out.colors)
        && coloring::verify::uses_colors_below(&out.colors, out.palette_size);
    MeasurementRow::new(
        format!("Alg2 (1+{epsilon})Δ-coloring KT-1"),
        graph,
        &out.costs,
        valid,
    )
}

/// Runs Algorithm 3 (KT-2 MIS) and returns its measurement row.
///
/// # Panics
///
/// Panics if the algorithm reports an error.
pub fn measure_alg3(graph: &Graph, ids: &IdAssignment, seed: u64) -> MeasurementRow {
    let mut rng = StdRng::seed_from_u64(seed);
    let out = alg3_mis::run(graph, ids, Alg3Config::default(), &mut rng)
        .expect("Algorithm 3 failed on a benchmark instance");
    let valid = mis::verify::is_mis(graph, &out.in_mis);
    MeasurementRow::new("Alg3 MIS KT-2", graph, &out.costs, valid)
}

/// Runs Luby's MIS — the Õ(m)-message KT-1 baseline of Figure 1.
pub fn measure_luby_baseline(graph: &Graph, ids: &IdAssignment, seed: u64) -> MeasurementRow {
    let (in_mis, report) = mis::luby::run(graph, ids, seed, SyncConfig::default());
    let valid = mis::verify::is_mis(graph, &in_mis);
    let mut costs = CostAccount::new();
    costs.charge_report("luby", &report);
    MeasurementRow::new("Luby MIS baseline (Θ(m))", graph, &costs, valid)
}

/// Runs the naive Θ(m)-message distributed (Δ+1)-coloring baseline.
pub fn measure_coloring_baseline(graph: &Graph, ids: &IdAssignment, seed: u64) -> MeasurementRow {
    let (colors, report) = coloring::baseline::run(graph, ids, seed, SyncConfig::default());
    let valid = coloring::verify::is_proper_coloring(graph, &colors);
    let mut costs = CostAccount::new();
    costs.charge_report("baseline", &report);
    MeasurementRow::new("Johansson coloring baseline (Θ(m))", graph, &costs, valid)
}

/// [`measure_alg1`] once per seed, through [`alg1_coloring::run_batch`]:
/// the seed-independent setup is built once and row `k` equals
/// `measure_alg1(graph, ids, seeds[k])`.
///
/// # Panics
///
/// Panics if any seed's run reports an error.
pub fn measure_alg1_batch(graph: &Graph, ids: &IdAssignment, seeds: &[u64]) -> Vec<MeasurementRow> {
    let outs = alg1_coloring::run_batch(graph, ids, Alg1Config::default(), seeds)
        .expect("Algorithm 1 failed on a benchmark instance");
    outs.iter().map(|out| alg1_row(graph, out)).collect()
}

/// [`measure_alg2`] once per seed, through [`alg2_coloring::run_batch`]:
/// row `k` equals `measure_alg2(graph, ids, epsilon, seeds[k])`.
///
/// # Panics
///
/// Panics if any seed's run reports an error.
pub fn measure_alg2_batch(
    graph: &Graph,
    ids: &IdAssignment,
    epsilon: f64,
    seeds: &[u64],
) -> Vec<MeasurementRow> {
    let config = Alg2Config {
        epsilon,
        ..Alg2Config::default()
    };
    let outs = alg2_coloring::run_batch(graph, ids, config, seeds)
        .expect("Algorithm 2 failed on a benchmark instance");
    outs.iter()
        .map(|out| alg2_row(graph, epsilon, out))
        .collect()
}

/// [`measure_alg3`] once per seed: row `k` equals `measure_alg3(graph, ids,
/// seeds[k])`. Kept only because the repo benchmark
/// (`benchmark/src/workloads.rs`) calls it; delete it once that benchmark
/// calls [`measure_alg3`] once per seed.
///
/// # Panics
///
/// Panics if any seed's run reports an error.
pub fn measure_alg3_batch(graph: &Graph, ids: &IdAssignment, seeds: &[u64]) -> Vec<MeasurementRow> {
    seeds
        .iter()
        .map(|&seed| measure_alg3(graph, ids, seed))
        .collect()
}

/// [`measure_luby_baseline`] once per seed: row `k` equals
/// `measure_luby_baseline(graph, ids, seeds[k])`. Kept only because the
/// repo benchmark (`benchmark/src/workloads.rs`, `benchmark/src/probes.rs`)
/// calls it; delete it once that benchmark calls [`measure_luby_baseline`]
/// once per seed.
pub fn measure_luby_baseline_batch(
    graph: &Graph,
    ids: &IdAssignment,
    seeds: &[u64],
) -> Vec<MeasurementRow> {
    seeds
        .iter()
        .map(|&seed| measure_luby_baseline(graph, ids, seed))
        .collect()
}

/// [`measure_coloring_baseline`] once per seed: row `k` equals
/// `measure_coloring_baseline(graph, ids, seeds[k])`. Kept only because the
/// repo benchmark (`benchmark/src/workloads.rs`, `benchmark/src/probes.rs`)
/// calls it; delete it once that benchmark calls
/// [`measure_coloring_baseline`] once per seed.
pub fn measure_coloring_baseline_batch(
    graph: &Graph,
    ids: &IdAssignment,
    seeds: &[u64],
) -> Vec<MeasurementRow> {
    seeds
        .iter()
        .map(|&seed| measure_coloring_baseline(graph, ids, seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbreak_graphs::{generators, IdSpace};

    fn instance(n: usize, p: f64, seed: u64) -> (Graph, IdAssignment) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::connected_gnp(n, p, &mut rng);
        let ids = IdAssignment::random(&g, IdSpace::CUBIC, &mut rng);
        (g, ids)
    }

    #[test]
    fn all_measurements_report_valid_outputs() {
        let (g, ids) = instance(60, 0.5, 3);
        let rows = vec![
            measure_alg1(&g, &ids, 1),
            measure_alg2(&g, &ids, 0.5, 2),
            measure_alg3(&g, &ids, 3),
            measure_luby_baseline(&g, &ids, 4),
            measure_coloring_baseline(&g, &ids, 5),
        ];
        for row in &rows {
            assert!(row.valid, "{} produced an invalid output", row.algorithm);
            assert_eq!(row.n, 60);
            assert_eq!(row.m, g.num_edges());
        }
    }

    #[test]
    fn batched_measurements_match_sequential_rows() {
        let (g, ids) = instance(50, 0.4, 13);
        // The empty seed list checks that no wrapper panics without seeds.
        for seeds in [&[21u64, 22][..], &[]] {
            let rows = |measure: &dyn Fn(u64) -> MeasurementRow| -> Vec<MeasurementRow> {
                seeds.iter().map(|&s| measure(s)).collect()
            };
            assert_eq!(
                measure_alg1_batch(&g, &ids, seeds),
                rows(&|s| measure_alg1(&g, &ids, s))
            );
            assert_eq!(
                measure_alg2_batch(&g, &ids, 0.5, seeds),
                rows(&|s| measure_alg2(&g, &ids, 0.5, s))
            );
            assert_eq!(
                measure_alg3_batch(&g, &ids, seeds),
                rows(&|s| measure_alg3(&g, &ids, s))
            );
            assert_eq!(
                measure_luby_baseline_batch(&g, &ids, seeds),
                rows(&|s| measure_luby_baseline(&g, &ids, s))
            );
            assert_eq!(
                measure_coloring_baseline_batch(&g, &ids, seeds),
                rows(&|s| measure_coloring_baseline(&g, &ids, s))
            );
        }
    }

    #[test]
    fn paper_algorithms_beat_baselines_on_dense_graphs() {
        let (g, ids) = instance(130, 0.85, 9);
        let alg1 = measure_alg1(&g, &ids, 1);
        let alg3 = measure_alg3(&g, &ids, 2);
        let luby = measure_luby_baseline(&g, &ids, 3);
        let base_col = measure_coloring_baseline(&g, &ids, 4);
        assert!(alg1.total_messages() < base_col.total_messages());
        assert!(alg3.total_messages() < luby.total_messages());
    }
}
