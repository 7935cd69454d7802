//! The declarative sweep driver: a sweep is a *seed × algorithm × graph*
//! grid. Every cell builds its instance graph once and runs each of its
//! seeds once through the `measure_*` drivers. Algorithm 1 and 2 cells run
//! **batched**: their drivers build the seed-independent setup (danner
//! plan, Δ casts) once per cell. Only those cells are re-executed seed by
//! seed, as both the wall-clock baseline and the **differential oracle**:
//! [`run_sweep`] asserts their batched rows are identical to the sequential
//! rows before reporting a speedup.
//!
//! The Figure 1, crossover and ablation grids are declared here as
//! [`SweepSpec`]s (see [`standard_sweeps`]). The `sweeps` bench executes the
//! registry, writes one JSON object per cell to `BENCH_sweeps.json` and
//! prints every figure table from those cells. The lower-bound experiment
//! loops have their own declarative grids ([`CrossedSweepSpec`],
//! [`CycleSweepSpec`]) — they run instrumented simulations
//! (utilization/per-edge tracking) one at a time, so their cells carry no
//! speedup claim.
//!
//! Set `SWEEP_SMOKE=1` for the reduced grid (smaller graphs, 3 lanes) used
//! by CI.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use symbreak_core::{experiments, MeasurementRow, MeasurementTable};
use symbreak_lowerbounds::experiments::{
    crossed_utilization_experiment, cycle_message_experiment, CrossedStats, CycleStats, Problem,
};

use crate::workloads::{gnp_instance, Instance};

/// Whether this run is the reduced-grid CI smoke (`SWEEP_SMOKE=1`).
pub fn smoke() -> bool {
    std::env::var("SWEEP_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// The default lane count of a sweep cell: 8 at full size, 3 in smoke mode.
pub fn default_lanes() -> usize {
    if smoke() {
        3
    } else {
        8
    }
}

/// The seed grid of one sweep cell: `lanes` consecutive seeds from `base`.
/// Every seed that reaches an algorithm goes through this one function, so a
/// cell's lane `k` is reproducible as the sequential run with `base + k`.
pub fn seed_grid(base: u64, lanes: usize) -> Vec<u64> {
    (0..lanes as u64).map(|k| base + k).collect()
}

/// Which measurement an algorithm cell runs (always through
/// [`symbreak_core::experiments`], so rows match the sequential drivers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SweepAlgorithm {
    /// Algorithm 1, (Δ+1)-coloring in KT-1.
    Alg1,
    /// The asynchronous variant of Algorithm 1. Its cost model re-charges
    /// the synchronous run, which has no batched runtime of its own — cells
    /// run seed by seed.
    Alg1Async,
    /// Algorithm 2, (1+ε)Δ-coloring in KT-1.
    Alg2 {
        /// The palette slack ε.
        epsilon: f64,
    },
    /// Algorithm 3, MIS in KT-2.
    Alg3,
    /// Luby's Θ(m)-message MIS baseline.
    LubyBaseline,
    /// Johansson's Θ(m)-message coloring baseline.
    ColoringBaseline,
}

impl SweepAlgorithm {
    /// Short machine-readable key used in JSON rows.
    pub fn key(self) -> String {
        match self {
            SweepAlgorithm::Alg1 => "alg1".into(),
            SweepAlgorithm::Alg1Async => "alg1_async".into(),
            SweepAlgorithm::Alg2 { epsilon } => format!("alg2_eps{epsilon}"),
            SweepAlgorithm::Alg3 => "alg3".into(),
            SweepAlgorithm::LubyBaseline => "luby_baseline".into(),
            SweepAlgorithm::ColoringBaseline => "coloring_baseline".into(),
        }
    }

    /// Whether the algorithm's batched run shares work across seeds:
    /// Algorithms 1 and 2 build their seed-independent setup once per cell.
    /// Every other algorithm has no batched driver; its cells run seed by
    /// seed, once.
    pub fn is_batched(self) -> bool {
        matches!(self, SweepAlgorithm::Alg1 | SweepAlgorithm::Alg2 { .. })
    }

    /// Every seed's row: through the batched driver for Algorithms 1 and 2,
    /// seed by seed for the rest.
    fn measure_batch(self, inst: &Instance, seeds: &[u64]) -> Vec<MeasurementRow> {
        let (g, ids) = (&inst.graph, &inst.ids);
        match self {
            SweepAlgorithm::Alg1 => experiments::measure_alg1_batch(g, ids, seeds),
            SweepAlgorithm::Alg2 { epsilon } => {
                experiments::measure_alg2_batch(g, ids, epsilon, seeds)
            }
            _ => self.measure_sequential(inst, seeds),
        }
    }

    /// Every seed's row, one `measure_*` run per seed.
    fn measure_sequential(self, inst: &Instance, seeds: &[u64]) -> Vec<MeasurementRow> {
        let (g, ids) = (&inst.graph, &inst.ids);
        seeds
            .iter()
            .map(|&s| match self {
                SweepAlgorithm::Alg1 => experiments::measure_alg1(g, ids, s),
                SweepAlgorithm::Alg1Async => experiments::measure_alg1_async(g, ids, s),
                SweepAlgorithm::Alg2 { epsilon } => experiments::measure_alg2(g, ids, epsilon, s),
                SweepAlgorithm::Alg3 => experiments::measure_alg3(g, ids, s),
                SweepAlgorithm::LubyBaseline => experiments::measure_luby_baseline(g, ids, s),
                SweepAlgorithm::ColoringBaseline => {
                    experiments::measure_coloring_baseline(g, ids, s)
                }
            })
            .collect()
    }
}

/// One graph point of a sweep grid: a connected `G(n, p)` instance with a
/// fixed construction seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphSpec {
    /// Number of nodes.
    pub n: usize,
    /// Edge probability.
    pub p: f64,
    /// Seed of the instance construction (graph + ID assignment).
    pub instance_seed: u64,
}

impl GraphSpec {
    /// Label used in tables and JSON rows.
    pub fn label(&self) -> String {
        format!("gnp_n{}_p{}", self.n, self.p)
    }

    /// Builds the instance (the cell's one shared CSR).
    pub fn build(&self) -> Instance {
        gnp_instance(self.n, self.p, self.instance_seed)
    }
}

/// A declarative sweep: every `(graph, algorithm)` pair becomes one batched
/// cell whose seed grid is `seed_grid(alg_seed_base + graph_index, lanes)`.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Sweep name (JSON `sweep` field).
    pub name: &'static str,
    /// The graph grid; each instance is built once and shared by all of the
    /// sweep's algorithm cells on it.
    pub graphs: Vec<GraphSpec>,
    /// The algorithms to run on every graph.
    pub algorithms: Vec<SweepAlgorithm>,
    /// Base of the per-cell seed grids (graph `g` gets base
    /// `alg_seed_base + g`).
    pub alg_seed_base: u64,
    /// Lanes per cell (= seeds per cell).
    pub lanes: usize,
}

/// One executed sweep cell: its rows (one per seed) plus their wall-clock
/// time, and for a batched cell the time of its sequential re-run.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Sweep name.
    pub sweep: &'static str,
    /// Graph label.
    pub graph: String,
    /// Nodes of the instance.
    pub n: usize,
    /// Edges of the instance.
    pub m: usize,
    /// Algorithm key.
    pub algorithm: String,
    /// The cell's seed grid.
    pub seeds: Vec<u64>,
    /// One measurement row per seed (for a batched cell, asserted identical
    /// to the sequential rows).
    pub rows: Vec<MeasurementRow>,
    /// Wall-clock nanoseconds of the cell's run over all of its seeds
    /// (batched for Algorithms 1 and 2, seed by seed for the rest).
    pub batched_ns: f64,
    /// Wall-clock nanoseconds of a batched cell's seed-by-seed re-run
    /// ([`SweepAlgorithm::is_batched`]); `None` for every other cell, which
    /// runs once.
    pub sequential_ns: Option<f64>,
}

impl SweepCell {
    /// Amortized batched-over-sequential speedup of a batched cell.
    pub fn speedup(&self) -> Option<f64> {
        self.sequential_ns.map(|ns| ns / self.batched_ns)
    }

    /// One JSON object (a line of `BENCH_sweeps.json`).
    pub fn json(&self) -> String {
        let messages: Vec<String> = self
            .rows
            .iter()
            .map(|r| r.total_messages().to_string())
            .collect();
        let sequential = match self.sequential_ns.zip(self.speedup()) {
            Some((ns, speedup)) => format!("\"sequential_ns\":{ns:.0},\"speedup\":{speedup:.3},"),
            None => String::new(),
        };
        format!(
            "{{\"bench\":\"sweeps\",\"sweep\":\"{}\",\"graph\":\"{}\",\"n\":{},\"m\":{},\
             \"algorithm\":\"{}\",\"batched\":{},\"lanes\":{},\"batched_ns\":{:.0},{}\
             \"total_messages\":[{}],\"valid\":{}}}",
            self.sweep,
            self.graph,
            self.n,
            self.m,
            self.algorithm,
            self.sequential_ns.is_some(),
            self.rows.len(),
            self.batched_ns,
            sequential,
            messages.join(","),
            self.rows.iter().all(|r| r.valid),
        )
    }

    /// Human-readable one-liner (`-` in the sequential and speedup columns
    /// of a cell that runs once).
    pub fn print(&self) {
        let (sequential, speedup) = match self.sequential_ns.zip(self.speedup()) {
            Some((ns, speedup)) => (format!("{:.2}ms", ns / 1e6), format!("{speedup:.2}x")),
            None => ("-".into(), "-".into()),
        };
        println!(
            "{:<16} {:<18} {:<22} {:>3} {:>12.2}ms {:>14} {:>8}",
            self.sweep,
            self.graph,
            self.algorithm,
            self.rows.len(),
            self.batched_ns / 1e6,
            sequential,
            speedup,
        );
    }
}

/// The lane-0 rows of a cell list as a printable table. Lane 0 of graph `g`
/// runs seed `alg_seed_base + g`, which is exactly the seed the historical
/// single-run tables used — so this table reproduces the pre-sweep figures
/// row for row.
pub fn lane0_table(cells: &[SweepCell]) -> MeasurementTable {
    let mut table = MeasurementTable::new();
    for cell in cells {
        table.push(cell.rows[0].clone());
    }
    table
}

/// Executes a sweep: per cell, one timed run of every seed. A batched cell
/// (Algorithm 1 or 2) is then re-run seed by seed as the sequential oracle
/// (timed), and its rows are asserted bit-identical to the batched ones.
///
/// # Panics
///
/// Panics if any batched cell's rows differ from its sequential rows — that
/// would be a bug in a batched driver, not measurement noise.
pub fn run_sweep(spec: &SweepSpec) -> Vec<SweepCell> {
    let mut cells = Vec::new();
    for (g, graph_spec) in spec.graphs.iter().enumerate() {
        let inst = graph_spec.build();
        for &alg in &spec.algorithms {
            let seeds = seed_grid(spec.alg_seed_base + g as u64, spec.lanes);
            let t = Instant::now();
            let rows = alg.measure_batch(&inst, &seeds);
            let batched_ns = t.elapsed().as_nanos() as f64;
            let sequential_ns = alg.is_batched().then(|| {
                let t = Instant::now();
                let sequential_rows = alg.measure_sequential(&inst, &seeds);
                let sequential_ns = t.elapsed().as_nanos() as f64;
                assert_eq!(
                    rows,
                    sequential_rows,
                    "sweep {} cell ({}, {}): batched rows diverged from the sequential oracle",
                    spec.name,
                    graph_spec.label(),
                    alg.key(),
                );
                sequential_ns
            });
            cells.push(SweepCell {
                sweep: spec.name,
                graph: graph_spec.label(),
                n: inst.graph.num_nodes(),
                m: inst.graph.num_edges(),
                algorithm: alg.key(),
                seeds,
                rows,
                batched_ns,
                sequential_ns,
            });
        }
    }
    cells
}

/// The Figure-1 `n` grid at the current scale.
fn n_grid() -> Vec<usize> {
    if smoke() {
        vec![48, 64]
    } else {
        vec![64, 128, 256, 384]
    }
}

/// F1-KT1-COL-UB: Algorithm 1 (and its async variant) vs the Θ(m) coloring
/// baseline across the `n` grid on dense `G(n, 0.5)`.
pub fn fig1_kt1_sweep(lanes: usize) -> SweepSpec {
    SweepSpec {
        name: "fig1_kt1",
        graphs: n_grid()
            .into_iter()
            .enumerate()
            .map(|(i, n)| GraphSpec {
                n,
                p: 0.5,
                instance_seed: 100 + i as u64,
            })
            .collect(),
        algorithms: vec![
            SweepAlgorithm::Alg1,
            SweepAlgorithm::ColoringBaseline,
            SweepAlgorithm::Alg1Async,
        ],
        alg_seed_base: 0,
        lanes,
    }
}

/// F1-EPS-COL-UB, part 1: Algorithm 2 across the `n` grid at ε = 0.5.
pub fn fig1_eps_n_sweep(lanes: usize) -> SweepSpec {
    SweepSpec {
        name: "fig1_eps_n",
        graphs: n_grid()
            .into_iter()
            .enumerate()
            .map(|(i, n)| GraphSpec {
                n,
                p: 0.5,
                instance_seed: 200 + i as u64,
            })
            .collect(),
        algorithms: vec![SweepAlgorithm::Alg2 { epsilon: 0.5 }],
        alg_seed_base: 0,
        lanes,
    }
}

/// F1-EPS-COL-UB, part 2: the ε sweep on one fixed instance.
pub fn fig1_eps_eps_sweep(lanes: usize) -> SweepSpec {
    let n = if smoke() { 64 } else { 192 };
    SweepSpec {
        name: "fig1_eps_eps",
        graphs: vec![GraphSpec {
            n,
            p: 0.5,
            instance_seed: 300,
        }],
        algorithms: [0.1, 0.2, 0.5, 1.0]
            .into_iter()
            .map(|epsilon| SweepAlgorithm::Alg2 { epsilon })
            .collect(),
        alg_seed_base: 9,
        lanes,
    }
}

/// F1-KT2-MIS-UB: Algorithm 3 vs Luby's Θ(m) baseline across the `n` grid.
pub fn fig1_kt2_sweep(lanes: usize) -> SweepSpec {
    SweepSpec {
        name: "fig1_kt2",
        graphs: n_grid()
            .into_iter()
            .enumerate()
            .map(|(i, n)| GraphSpec {
                n,
                p: 0.5,
                instance_seed: 400 + i as u64,
            })
            .collect(),
        algorithms: vec![SweepAlgorithm::Alg3, SweepAlgorithm::LubyBaseline],
        alg_seed_base: 0,
        lanes,
    }
}

/// CROSSOVER: the density sweep at fixed `n` — all four headline algorithms
/// per density.
pub fn crossover_sweep(lanes: usize) -> SweepSpec {
    let (n, densities): (usize, Vec<f64>) = if smoke() {
        (64, vec![0.15, 0.4])
    } else {
        (192, vec![0.05, 0.15, 0.4, 0.8])
    };
    SweepSpec {
        name: "crossover",
        graphs: densities
            .into_iter()
            .enumerate()
            .map(|(i, p)| GraphSpec {
                n,
                p,
                instance_seed: 600 + i as u64,
            })
            .collect(),
        algorithms: vec![
            SweepAlgorithm::Alg1,
            SweepAlgorithm::ColoringBaseline,
            SweepAlgorithm::Alg3,
            SweepAlgorithm::LubyBaseline,
        ],
        alg_seed_base: 0,
        lanes,
    }
}

/// SPARSE: Algorithm 1 vs the Θ(m) coloring baseline on near-threshold
/// `G(n, p)` with `p ≈ c·ln n / n`. This is the regime the KT-1 message
/// bounds are about — `m` is barely superlinear, so the danner setup is a
/// large, seed-independent share of every Algorithm 1 run, and the batched
/// driver builds it once for the whole seed grid. These are the cells where
/// sharing the setup shows its largest wall-clock wins.
pub fn sparse_sweep(lanes: usize) -> SweepSpec {
    let grid: Vec<(usize, f64, u64)> = if smoke() {
        vec![(48, 0.08, 701), (64, 0.06, 702)]
    } else {
        vec![
            (256, 0.02, 701),
            (320, 0.02, 702),
            (384, 0.015, 703),
            (448, 0.015, 705),
            (512, 0.012, 706),
        ]
    };
    SweepSpec {
        name: "sparse",
        graphs: grid
            .into_iter()
            .map(|(n, p, instance_seed)| GraphSpec {
                n,
                p,
                instance_seed,
            })
            .collect(),
        algorithms: vec![SweepAlgorithm::Alg1, SweepAlgorithm::ColoringBaseline],
        alg_seed_base: 0,
        lanes,
    }
}

/// ABL-KT2: the Algorithm 3 grid of the KT-2 ablation. The algorithm seeds
/// come from the cell's seed grid — previously the ablation reseeded every
/// instance with its bare loop index, so changing the instance seed silently
/// reused the old private coins.
pub fn ablation_kt2_sweep(lanes: usize) -> SweepSpec {
    let ns: Vec<usize> = if smoke() {
        vec![48, 64]
    } else {
        vec![96, 192, 288]
    };
    SweepSpec {
        name: "ablation_kt2",
        graphs: ns
            .into_iter()
            .enumerate()
            .map(|(i, n)| GraphSpec {
                n,
                p: 0.5,
                instance_seed: 900 + i as u64,
            })
            .collect(),
        algorithms: vec![SweepAlgorithm::Alg3],
        alg_seed_base: 0,
        lanes,
    }
}

/// The graph grid of the shared-randomness ablation (no simulation runs —
/// the ablation only needs the instances, declared here so its loop shares
/// the sweep grid types).
pub fn ablation_shared_rand_graphs() -> Vec<GraphSpec> {
    let ns: Vec<usize> = if smoke() {
        vec![48, 64]
    } else {
        vec![96, 192, 384]
    };
    ns.into_iter()
        .enumerate()
        .map(|(i, n)| GraphSpec {
            n,
            p: 0.5,
            instance_seed: 800 + i as u64,
        })
        .collect()
}

/// Every algorithm sweep of the registry, at the default lane count.
pub fn standard_sweeps() -> Vec<SweepSpec> {
    let lanes = default_lanes();
    vec![
        fig1_kt1_sweep(lanes),
        fig1_eps_n_sweep(lanes),
        fig1_eps_eps_sweep(lanes),
        fig1_kt2_sweep(lanes),
        crossover_sweep(lanes),
        sparse_sweep(lanes),
        ablation_kt2_sweep(lanes),
    ]
}

/// Declarative grid of the crossed-family utilization experiment
/// (F1-KT1-LB). Cells are instrumented runs — no batch speedup is claimed.
#[derive(Debug, Clone)]
pub struct CrossedSweepSpec {
    /// Sweep name.
    pub name: &'static str,
    /// The problems to measure.
    pub problems: Vec<Problem>,
    /// The part sizes `t` (n = 6t).
    pub ts: Vec<usize>,
    /// Sampled crossings per cell.
    pub samples: usize,
    /// Base seed; each cell derives its RNG from it and its coordinates.
    pub seed: u64,
}

/// One crossed-family cell result.
#[derive(Debug, Clone)]
pub struct CrossedCell {
    /// Sweep name.
    pub sweep: &'static str,
    /// The measured problem.
    pub problem: Problem,
    /// The cell's statistics.
    pub stats: CrossedStats,
}

impl CrossedCell {
    /// One JSON object (a line of `BENCH_sweeps.json`).
    pub fn json(&self) -> String {
        format!(
            "{{\"bench\":\"sweeps\",\"sweep\":\"{}\",\"problem\":\"{:?}\",\"t\":{},\"n\":{},\
             \"base_edges\":{},\"avg_utilized_edges\":{:.1},\"pair_utilized\":{},\"samples\":{}}}",
            self.sweep,
            self.problem,
            self.stats.t,
            6 * self.stats.t,
            self.stats.base_edges,
            self.stats.avg_utilized_edges,
            self.stats.pair_utilized,
            self.stats.samples,
        )
    }
}

/// The standard crossed-family grid.
pub fn lowerbound_crossed_sweep() -> CrossedSweepSpec {
    CrossedSweepSpec {
        name: "lowerbound_crossed",
        problems: vec![Problem::Coloring, Problem::Mis],
        ts: if smoke() {
            vec![4, 6]
        } else {
            vec![4, 6, 8, 12]
        },
        samples: if smoke() { 2 } else { 5 },
        seed: 2,
    }
}

/// Executes a crossed-family sweep; each cell gets a deterministic RNG
/// derived from the spec seed and the cell coordinates, so grid rows are
/// reproducible independently of one another (the old loop threaded one RNG
/// through every cell, entangling them).
pub fn run_crossed_sweep(spec: &CrossedSweepSpec) -> Vec<CrossedCell> {
    let mut cells = Vec::new();
    for (pi, &problem) in spec.problems.iter().enumerate() {
        for &t in &spec.ts {
            let mut rng =
                StdRng::seed_from_u64(spec.seed ^ (0x9e37 * (pi as u64 + 1)) ^ (t as u64) << 16);
            let stats = crossed_utilization_experiment(problem, t, spec.samples, &mut rng);
            cells.push(CrossedCell {
                sweep: spec.name,
                problem,
                stats,
            });
        }
    }
    cells
}

/// Declarative grid of the disjoint-cycle message experiment (F1-KTRHO-LB).
#[derive(Debug, Clone)]
pub struct CycleSweepSpec {
    /// Sweep name.
    pub name: &'static str,
    /// The problems to measure.
    pub problems: Vec<Problem>,
    /// The cycle counts of the grid.
    pub counts: Vec<usize>,
    /// Length of each cycle.
    pub len: usize,
    /// Base seed (same per-cell derivation as [`run_crossed_sweep`]).
    pub seed: u64,
}

/// One disjoint-cycle cell result.
#[derive(Debug, Clone)]
pub struct CycleCell {
    /// Sweep name.
    pub sweep: &'static str,
    /// The measured problem.
    pub problem: Problem,
    /// Cycle count of the cell.
    pub count: usize,
    /// The cell's statistics.
    pub stats: CycleStats,
}

impl CycleCell {
    /// One JSON object (a line of `BENCH_sweeps.json`).
    pub fn json(&self) -> String {
        format!(
            "{{\"bench\":\"sweeps\",\"sweep\":\"{}\",\"problem\":\"{:?}\",\"cycles\":{},\
             \"n\":{},\"messages\":{},\"mute_cycles\":{}}}",
            self.sweep,
            self.problem,
            self.count,
            self.stats.n,
            self.stats.messages,
            self.stats.mute_cycles,
        )
    }
}

/// The standard disjoint-cycle grid.
pub fn lowerbound_cycles_sweep() -> CycleSweepSpec {
    CycleSweepSpec {
        name: "lowerbound_cycles",
        problems: vec![Problem::Coloring, Problem::Mis],
        counts: if smoke() {
            vec![8, 16]
        } else {
            vec![8, 16, 32, 64]
        },
        len: 8,
        seed: 4,
    }
}

/// Executes a disjoint-cycle sweep (see [`run_crossed_sweep`] for the
/// per-cell RNG discipline).
pub fn run_cycle_sweep(spec: &CycleSweepSpec) -> Vec<CycleCell> {
    let mut cells = Vec::new();
    for (pi, &problem) in spec.problems.iter().enumerate() {
        for &count in &spec.counts {
            let mut rng = StdRng::seed_from_u64(
                spec.seed ^ (0x9e37 * (pi as u64 + 1)) ^ (count as u64) << 16,
            );
            let stats = cycle_message_experiment(problem, count, spec.len, &mut rng);
            cells.push(CycleCell {
                sweep: spec.name,
                problem,
                count,
                stats,
            });
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_grids_are_consecutive() {
        assert_eq!(seed_grid(5, 3), vec![5, 6, 7]);
        assert!(seed_grid(0, 0).is_empty());
    }

    #[test]
    fn sweep_cells_match_their_grid_and_pass_the_oracle() {
        // A tiny sweep: run_sweep itself asserts batched ≡ sequential rows
        // on the Algorithm 1 cell, the only one here that shares setup.
        let spec = SweepSpec {
            name: "test",
            graphs: vec![GraphSpec {
                n: 36,
                p: 0.3,
                instance_seed: 1,
            }],
            algorithms: vec![
                SweepAlgorithm::ColoringBaseline,
                SweepAlgorithm::Alg3,
                SweepAlgorithm::Alg1,
            ],
            alg_seed_base: 10,
            lanes: 2,
        };
        let cells = run_sweep(&spec);
        assert_eq!(cells.len(), 3);
        for cell in &cells {
            let shares_setup = cell.algorithm == "alg1";
            assert_eq!(cell.sequential_ns.is_some(), shares_setup);
            assert_eq!(cell.json().contains("\"speedup\""), shares_setup);
            assert_eq!(cell.rows.len(), 2);
            assert_eq!(cell.seeds, vec![10, 11]);
            assert!(cell.rows.iter().all(|r| r.valid));
            assert!(cell.json().contains("\"sweep\":\"test\""));
        }
    }

    #[test]
    fn lowerbound_grids_are_reproducible_cell_by_cell() {
        let spec = CycleSweepSpec {
            name: "test_cycles",
            problems: vec![Problem::Mis],
            counts: vec![4],
            len: 6,
            seed: 9,
        };
        let a = run_cycle_sweep(&spec);
        let b = run_cycle_sweep(&spec);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].stats, b[0].stats);
        assert!(a[0].stats.messages > 0);
    }
}
