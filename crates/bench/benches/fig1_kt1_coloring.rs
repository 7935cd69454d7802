//! F1-KT1-COL-UB / F1-KT1-COL-ASYNC: Figure 1, KT-1 coloring upper bounds.
//!
//! Reproduces the Õ(n^1.5)-message claim of Theorem 3.3 (and the async
//! variant of Theorem 3.4): message counts of Algorithm 1 across an `n`
//! sweep on dense `G(n, p)` graphs, compared against `m` and against the
//! Θ(m)-message baseline, plus a fitted growth exponent.
//!
//! The grid is the declarative [`sweeps::fig1_kt1_sweep`] spec, executed
//! batched (Algorithm 1 builds its seed-independent setup once per
//! instance; the other cells run seed by seed) with the sequential runs as
//! differential oracle; the printed table is the lane-0 slice, which
//! matches the historical single-seed rows exactly.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use symbreak_bench::sweeps;
use symbreak_bench::workloads::{fit_exponent, gnp_instance};
use symbreak_core::experiments;

fn print_table() {
    let cells = sweeps::run_sweep(&sweeps::fig1_kt1_sweep(sweeps::default_lanes()));
    let points: Vec<(f64, f64)> = cells
        .iter()
        .filter(|c| c.algorithm == "alg1")
        .map(|c| (c.n as f64, c.rows[0].total_messages() as f64))
        .collect();
    let baseline_points: Vec<(f64, f64)> = cells
        .iter()
        .filter(|c| c.algorithm == "coloring_baseline")
        .map(|c| (c.n as f64, c.rows[0].total_messages() as f64))
        .collect();
    println!("\n=== F1-KT1-COL-UB: Algorithm 1 vs the Θ(m) baseline, G(n, 0.5) ===");
    println!("{}", sweeps::lane0_table(&cells));
    println!(
        "fitted message-growth exponent: Alg1 ≈ n^{:.2} (paper: Õ(n^1.5)), baseline ≈ n^{:.2} (≈ m = Θ(n²))",
        fit_exponent(&points),
        fit_exponent(&baseline_points)
    );
    sweeps::print_speedup_summary(&cells);
}

fn bench(c: &mut Criterion) {
    print_table();
    let inst = gnp_instance(64, 0.5, 7);
    c.bench_function("alg1_kt1_coloring_n64_p0.5", |b| {
        b.iter(|| experiments::measure_alg1(&inst.graph, &inst.ids, 1))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_millis(500));
    targets = bench
}
criterion_main!(benches);
