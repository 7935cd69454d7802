//! SWEEPS — the experiments runner: the sweep registry, executed end to
//! end, and every Figure 1, crossover, ablation and lower-bound table of
//! the paper printed from the cells it ran.
//!
//! Runs every [`symbreak_bench::sweeps`] spec (the declarative form of the
//! Figure-1 / crossover / ablation grids). Each cell runs each of its seeds
//! once. Algorithm 1 and 2 cells go through the batched drivers, which build
//! the seed-independent setup once per cell, and are then re-run seed by
//! seed as the wall-clock baseline and differential oracle (the driver
//! asserts batched rows ≡ sequential rows). The lower-bound experiment grids
//! run afterwards as declarative, instrumented sweeps with no speedup claim.
//!
//! After the cell listing the bench prints the figure tables: the lane-0
//! slice of each Figure 1 and crossover sweep with its fitted exponents
//! (lane 0 of graph `g` runs the seed the single-run tables always used),
//! the baselines' exponents in m, the KT-2 flood bound, the shared-randomness
//! and danner-δ ablations, and both lower-bound families.
//!
//! Full runs rewrite `BENCH_sweeps.json` at the workspace root (one JSON
//! object per line), atomically once the gate below has passed. The run
//! *gates* on amortization: at least one batched cell must reach ≥ 1.0×
//! over sequential (≥ 0.9× under `SWEEP_SMOKE=1`, where graphs are tiny and
//! per-run overhead dominates).
//!
//! Run with `cargo bench --bench sweeps`; set `SWEEP_SMOKE=1` for the
//! reduced CI grid (no artifact is written).

use rand::rngs::StdRng;
use rand::SeedableRng;
use symbreak_bench::artifact::BenchArtifact;
use symbreak_bench::sweeps::{
    self, CrossedCell, CrossedSweepSpec, CycleCell, CycleSweepSpec, SweepAlgorithm, SweepCell,
    SweepSpec,
};
use symbreak_bench::workloads::{fit_exponent, gnp_instance};
use symbreak_core::{alg3_mis, Alg3Config};
use symbreak_danner::Danner;
use symbreak_graphs::properties;
use symbreak_lowerbounds::cycles::{find_failing_assignment, rank_mod3_rule, CycleFamily};

/// One executed sweep of the registry: its spec and its cells.
type Run = (SweepSpec, Vec<SweepCell>);

fn main() {
    let mut json = BenchArtifact::open("BENCH_sweeps.json", !sweeps::smoke());
    println!(
        "\n=== sweeps: {} seeds per cell; batched cells vs seed-by-seed sequential{} ===",
        sweeps::default_lanes(),
        if sweeps::smoke() { " (smoke)" } else { "" }
    );
    println!(
        "{:<16} {:<18} {:<22} {:>3} {:>14} {:>14} {:>8}",
        "sweep", "graph", "algorithm", "B", "wall", "sequential", "speedup"
    );
    let runs: Vec<Run> = sweeps::standard_sweeps()
        .into_iter()
        .map(|spec| {
            let cells = sweeps::run_sweep(&spec);
            for cell in &cells {
                cell.print();
                assert!(
                    cell.rows.iter().all(|r| r.valid),
                    "sweep {}/{}/{}: invalid output",
                    cell.sweep,
                    cell.graph,
                    cell.algorithm
                );
                json.row(cell.json());
            }
            (spec, cells)
        })
        .collect();
    amortization_gate(runs.iter().flat_map(|(_, cells)| cells));

    let crossed_spec = sweeps::lowerbound_crossed_sweep();
    let crossed = sweeps::run_crossed_sweep(&crossed_spec);
    crossed.iter().for_each(|cell| json.row(cell.json()));
    let cycles_spec = sweeps::lowerbound_cycles_sweep();
    let cycles = sweeps::run_cycle_sweep(&cycles_spec);
    cycles.iter().for_each(|cell| json.row(cell.json()));

    print_upper_bounds(&runs);
    print_ablations(&sweep(&runs, "ablation_kt2").0);
    print_crossed(&crossed_spec, &crossed);
    print_cycles(&cycles_spec, &cycles);
    json.commit().expect("write BENCH_sweeps.json");
}

/// The amortization gate. Tiny smoke graphs leave little shared work to
/// amortize, so CI only requires near-parity there; full-size runs must
/// show a real win somewhere in the registry.
fn amortization_gate<'a>(cells: impl Iterator<Item = &'a SweepCell>) {
    let (best_speedup, best_cell) = cells
        .filter_map(|c| c.speedup().map(|s| (s, c)))
        .max_by(|a, b| a.0.total_cmp(&b.0))
        .map(|(s, c)| (s, format!("{}/{}/{}", c.sweep, c.graph, c.algorithm)))
        .unwrap_or((f64::MIN, String::new()));
    let floor = if sweeps::smoke() { 0.9 } else { 1.0 };
    assert!(
        best_speedup >= floor,
        "no batched sweep cell reached {floor:.1}x over sequential (best: {best_speedup:.2}x \
         at {best_cell})"
    );
    println!("\nbest batched speedup: {best_speedup:.2}x ({best_cell})");
}

/// The registry sweep called `name`.
fn sweep<'a>(runs: &'a [Run], name: &str) -> &'a Run {
    runs.iter()
        .find(|(spec, _)| spec.name == name)
        .expect("a sweep of the registry")
}

/// The exponent fitted to the lane-0 message totals of the `algorithm`
/// cells, against `x` of each cell (its n or its m).
fn lane0_exponent(
    cells: &[SweepCell],
    algorithm: SweepAlgorithm,
    x: fn(&SweepCell) -> usize,
) -> f64 {
    let points: Vec<(f64, f64)> = cells
        .iter()
        .filter(|c| c.algorithm == algorithm.key())
        .map(|c| (x(c) as f64, c.rows[0].total_messages() as f64))
        .collect();
    fit_exponent(&points)
}

/// Figure 1's upper-bound rows (Theorems 3.3, 3.8 and 4.1), the Θ(m)
/// baselines and the crossover density sweep.
fn print_upper_bounds(runs: &[Run]) {
    let cells = |name| &sweep(runs, name).1[..];
    let n = |c: &SweepCell| c.n;
    let kt1 = cells("fig1_kt1");
    println!("\n=== F1-KT1-COL-UB: Algorithm 1 vs the Θ(m) baseline, G(n, 0.5) ===");
    println!("{}", sweeps::lane0_table(kt1));
    println!(
        "fitted message-growth exponent: Alg1 ≈ n^{:.2} (paper: Õ(n^1.5)), baseline ≈ n^{:.2} (≈ m = Θ(n²))",
        lane0_exponent(kt1, SweepAlgorithm::Alg1, n),
        lane0_exponent(kt1, SweepAlgorithm::ColoringBaseline, n)
    );

    let eps_n = cells("fig1_eps_n");
    println!("\n=== F1-EPS-COL-UB: Algorithm 2 across n (ε = 0.5), G(n, 0.5) ===");
    println!("{}", sweeps::lane0_table(eps_n));
    println!(
        "fitted message-growth exponent ≈ n^{:.2} (paper: Õ(n/ε²), i.e. ≈ 1 in n)",
        lane0_exponent(eps_n, SweepAlgorithm::Alg2 { epsilon: 0.5 }, n)
    );
    println!("\n=== F1-EPS-COL-UB: ε sweep on one instance (smaller ε ⇒ more messages) ===");
    println!("{}", sweeps::lane0_table(cells("fig1_eps_eps")));

    let kt2 = cells("fig1_kt2");
    println!("\n=== F1-KT2-MIS-UB: Algorithm 3 (KT-2) vs Luby (KT-1, Θ(m)), G(n, 0.5) ===");
    println!("{}", sweeps::lane0_table(kt2));
    println!(
        "fitted exponents: Alg3 ≈ n^{:.2} (paper: Õ(n^1.5)), Luby ≈ n^{:.2} (≈ m = Θ(n²))",
        lane0_exponent(kt2, SweepAlgorithm::Alg3, n),
        lane0_exponent(kt2, SweepAlgorithm::LubyBaseline, n)
    );
    println!(
        "F1 baselines, fitted exponents in m: Luby ≈ m^{:.2}, coloring baseline ≈ m^{:.2} \
         (both ≈ linear in m)",
        lane0_exponent(kt2, SweepAlgorithm::LubyBaseline, |c| c.m),
        lane0_exponent(kt1, SweepAlgorithm::ColoringBaseline, |c| c.m)
    );

    println!("\n=== CROSSOVER: density sweep at fixed n, G(n, p) ===");
    println!("{}", sweeps::lane0_table(cells("crossover")));
    println!(
        "(rows are grouped in blocks of four per density: Alg1, coloring baseline, Alg3, Luby)"
    );
}

/// The ablations: Algorithm 3's KT-2 relay against naive 2-hop flooding
/// (Section 4), the hash-derived partition against an explicit state
/// exchange (Section 1.3), and the danner's δ trade-off (Theorem 1.1).
fn print_ablations(kt2_spec: &SweepSpec) {
    println!("\n=== ABL-KT2: informing 2-hop neighbourhoods, KT-2 BFS trees vs naive flooding ===");
    println!(
        "{:<8} {:>10} {:>22} {:>22}",
        "n", "m", "Alg3 total (KT-2)", "naive 2-hop flood bound"
    );
    for (g, graph_spec) in kt2_spec.graphs.iter().enumerate() {
        let inst = graph_spec.build();
        // Lane 0 runs again because its sweep row carries neither
        // `sampled` nor the MIS.
        let mut rng = StdRng::seed_from_u64(kt2_spec.alg_seed_base + g as u64);
        let out = alg3_mis::run(&inst.graph, &inst.ids, Alg3Config::default(), &mut rng)
            .expect("Algorithm 3 failed on an ablation instance");
        // Naive flooding forwards every announcement over every incident
        // edge of every 1-hop neighbour: ≈ Σ_{u in MIS∩S} Σ_{v ∈ N(u)} deg(v)
        // messages. We bound it by |MIS∩S| · Δ² which is what a KT-1-only
        // implementation would risk paying.
        let mis_s = out.sampled.min(out.in_mis.iter().filter(|&&b| b).count());
        let flood_bound = mis_s as u64 * (inst.graph.max_degree() as u64).pow(2);
        println!(
            "{:<8} {:>10} {:>22} {:>22}",
            graph_spec.n,
            inst.graph.num_edges(),
            out.costs.total_messages(),
            flood_bound
        );
    }

    println!("\n=== ABL-SHARED-RAND: learning the partition of your neighbours ===");
    println!(
        "{:<8} {:>10} {:>24} {:>24}",
        "n", "m", "hash-derived (messages)", "state exchange (messages)"
    );
    for graph_spec in sweeps::ablation_shared_rand_graphs() {
        let n = graph_spec.n;
        let inst = graph_spec.build();
        // Hash-derived: a node evaluates the shared hash functions on its
        // neighbours' IDs (KT-1) — zero messages beyond the seed broadcast,
        // which costs n − 1 messages per 64-bit word over the danner tree.
        let seed_words = 2u64;
        let hash_messages = seed_words * (n as u64 - 1);
        // Explicit exchange: every node tells every neighbour its part.
        let exchange_messages = 2 * inst.graph.num_edges() as u64;
        println!(
            "{:<8} {:>10} {:>24} {:>24}",
            n,
            inst.graph.num_edges(),
            hash_messages,
            exchange_messages
        );
    }
    println!("(both variants produce the identical partition; only the communication differs)");

    println!("\n=== ABL-DANNER: danner size/diameter/charged cost vs δ (n = 256, p = 0.3) ===");
    println!(
        "{:<6} {:>10} {:>10} {:>10} {:>14} {:>12}",
        "δ", "|E(G)|", "|E(H)|", "diam(H)", "charged msgs", "charged rds"
    );
    let inst = gnp_instance(256, 0.3, 700);
    for delta in [0.0f64, 0.25, 0.5, 0.75, 1.0] {
        let danner = Danner::build(&inst.graph, &inst.ids, delta).expect("connected instance");
        let cost = danner.construction_cost();
        println!(
            "{:<6} {:>10} {:>10} {:>10} {:>14} {:>12}",
            delta,
            inst.graph.num_edges(),
            danner.num_edges(),
            properties::diameter(danner.subgraph()).unwrap_or(0),
            cost.charged_messages,
            cost.charged_rounds
        );
    }
}

/// The Ω(n²) comparison-based lower bound (Theorems 2.10–2.16): utilized
/// edges of correct algorithms on the crossed-graph family of Figure 2.
fn print_crossed(spec: &CrossedSweepSpec, cells: &[CrossedCell]) {
    println!(
        "\n=== F1-KT1-LB: utilized edges of correct comparison-based algorithms on G ∪ G′ ==="
    );
    println!(
        "{:<14} {:>4} {:>6} {:>10} {:>12} {:>16} {:>14}",
        "problem", "t", "n", "edges", "utilized", "utilized frac", "pair hit"
    );
    for &problem in &spec.problems {
        let mut points = Vec::new();
        for cell in cells.iter().filter(|c| c.problem == problem) {
            let stats = &cell.stats;
            points.push((6.0 * stats.t as f64, stats.avg_utilized_edges));
            println!(
                "{:<14} {:>4} {:>6} {:>10} {:>12.1} {:>15.0}% {:>11}/{}",
                format!("{problem:?}"),
                stats.t,
                6 * stats.t,
                stats.base_edges,
                stats.avg_utilized_edges,
                100.0 * stats.utilized_fraction(),
                stats.pair_utilized,
                stats.samples
            );
        }
        println!(
            "fitted utilized-edge exponent for {problem:?}: ≈ n^{:.2} (lower bound: Ω(n²))\n",
            fit_exponent(&points)
        );
    }
}

/// The Ω(n) lower bound in KT-ρ (Theorem 2.17): messages of correct
/// algorithms on the disjoint-cycle family, and a radius-1 silent rule that
/// some ID assignment defeats.
fn print_cycles(spec: &CycleSweepSpec, cells: &[CycleCell]) {
    println!(
        "=== F1-KTRHO-LB: messages on the disjoint-cycle family (cycles of length {}) ===",
        spec.len
    );
    println!(
        "{:<10} {:>8} {:>10} {:>12} {:>12}",
        "problem", "n", "messages", "msgs/node", "mute cycles"
    );
    for &problem in &spec.problems {
        let mut points = Vec::new();
        for cell in cells.iter().filter(|c| c.problem == problem) {
            let stats = &cell.stats;
            points.push((stats.n as f64, stats.messages as f64));
            println!(
                "{:<10} {:>8} {:>10} {:>12.2} {:>12}",
                format!("{problem:?}"),
                stats.n,
                stats.messages,
                stats.messages as f64 / stats.n as f64,
                stats.mute_cycles
            );
        }
        println!(
            "fitted message exponent for {problem:?}: ≈ n^{:.2} (lower bound: Ω(n))\n",
            fit_exponent(&points)
        );
    }
    let mut rng = StdRng::seed_from_u64(4);
    let family = CycleFamily::new(4, 9);
    let tries = find_failing_assignment(&family, 1, rank_mod3_rule, 500, &mut rng);
    println!("silent radius-1 rule defeated after {tries:?} random ID assignments\n");
}
