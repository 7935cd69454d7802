//! SWEEPS — the batched sweep registry, executed end to end.
//!
//! Runs every [`symbreak_bench::sweeps`] spec (the declarative form of the
//! Figure-1 / crossover / ablation grids): each cell runs all of its seeds
//! through the batched drivers, where Algorithms 1 and 2 build their
//! seed-independent setup once per cell, then re-runs them seed by seed as
//! the wall-clock baseline and differential oracle (the driver asserts
//! batched rows ≡ sequential rows). The lower-bound experiment grids run
//! afterwards as declarative, instrumented sweeps with no speedup claim.
//!
//! Full runs rewrite `BENCH_sweeps.json` at the workspace root (one JSON
//! object per line), atomically once the gate below has passed. The run
//! *gates* on amortization: at least one batched cell — an Algorithm 1 or 2
//! cell, the only ones that share work across seeds — must reach ≥ 1.0×
//! over sequential (≥ 0.9× under `SWEEP_SMOKE=1`, where graphs are tiny and
//! per-run overhead dominates).
//!
//! Run with `cargo bench --bench sweeps`; set `SWEEP_SMOKE=1` for the
//! reduced CI grid (no artifact is written).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use symbreak_bench::artifact::BenchArtifact;
use symbreak_bench::sweeps;
use symbreak_core::experiments;

fn run_registry() {
    let mut json = BenchArtifact::open("BENCH_sweeps.json", !sweeps::smoke());
    println!(
        "\n=== sweeps: {} seeds per cell, batched vs seed-by-seed sequential{} ===",
        sweeps::default_lanes(),
        if sweeps::smoke() { " (smoke)" } else { "" }
    );
    println!(
        "{:<16} {:<18} {:<22} {:>3} {:>14} {:>14} {:>8}",
        "sweep", "graph", "algorithm", "B", "batched", "sequential", "speedup"
    );
    let mut best_speedup = f64::MIN;
    let mut best_cell = String::new();
    for spec in sweeps::standard_sweeps() {
        for cell in sweeps::run_sweep(&spec) {
            cell.print();
            assert!(
                cell.rows.iter().all(|r| r.valid),
                "sweep {}/{}/{}: invalid output",
                cell.sweep,
                cell.graph,
                cell.algorithm
            );
            json.row(cell.json());
            if cell.batched && cell.speedup() > best_speedup {
                best_speedup = cell.speedup();
                best_cell = format!("{}/{}/{}", cell.sweep, cell.graph, cell.algorithm);
            }
        }
    }
    println!("\n--- lower-bound grids (instrumented; no speedup claim) ---");
    for cell in sweeps::run_crossed_sweep(&sweeps::lowerbound_crossed_sweep()) {
        println!(
            "{:<20} {:?} t={:<3} utilized {:>8.1}/{} edges",
            cell.sweep,
            cell.problem,
            cell.stats.t,
            cell.stats.avg_utilized_edges,
            cell.stats.base_edges
        );
        json.row(cell.json());
    }
    for cell in sweeps::run_cycle_sweep(&sweeps::lowerbound_cycles_sweep()) {
        println!(
            "{:<20} {:?} cycles={:<3} messages {:>8} mute {}",
            cell.sweep, cell.problem, cell.count, cell.stats.messages, cell.stats.mute_cycles
        );
        json.row(cell.json());
    }
    // The amortization gate. Tiny smoke graphs leave little shared work to
    // amortize, so CI only requires near-parity there; full-size runs must
    // show a real win somewhere in the registry.
    let floor = if sweeps::smoke() { 0.9 } else { 1.0 };
    assert!(
        best_speedup >= floor,
        "no batched sweep cell reached {floor:.1}x over sequential (best: {best_speedup:.2}x \
         at {best_cell})"
    );
    println!("\nbest batched speedup: {best_speedup:.2}x ({best_cell})");
    json.commit().expect("write BENCH_sweeps.json");
}

fn bench(c: &mut Criterion) {
    run_registry();
    // Criterion samples two cells of the crossover instance so engine
    // regressions show up as per-iteration time: the Θ(m) coloring baseline
    // and Algorithm 3, every seed of the grid run in turn.
    let spec = sweeps::GraphSpec {
        n: if sweeps::smoke() { 48 } else { 192 },
        p: 0.4,
        instance_seed: 600,
    };
    let inst = spec.build();
    let seeds = sweeps::seed_grid(0, sweeps::default_lanes());
    c.bench_function("sweeps_coloring_baseline_batched", |b| {
        b.iter(|| experiments::measure_coloring_baseline_batch(&inst.graph, &inst.ids, &seeds))
    });
    c.bench_function("sweeps_alg3_batched", |b| {
        b.iter(|| experiments::measure_alg3_batch(&inst.graph, &inst.ids, &seeds))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    targets = bench
}
criterion_main!(benches);
