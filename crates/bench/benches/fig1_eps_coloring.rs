//! F1-EPS-COL-UB: Theorem 3.8 — (1+ε)Δ-coloring with Õ(n/ε²) messages.
//!
//! Sweeps both `n` (message growth ≈ linear in n) and `ε` (cost grows as ε
//! shrinks) and prints the Figure-1-style rows.
//!
//! Both grids are declarative [`sweeps`] specs executed batched (Algorithm
//! 2 builds its seed-independent setup once per instance; sequential
//! differential oracle); the printed tables are the lane-0 slices, matching
//! the historical single-seed rows.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use symbreak_bench::sweeps;
use symbreak_bench::workloads::{fit_exponent, gnp_instance};
use symbreak_core::experiments;

fn print_table() {
    let lanes = sweeps::default_lanes();
    let cells = sweeps::run_sweep(&sweeps::fig1_eps_n_sweep(lanes));
    let points: Vec<(f64, f64)> = cells
        .iter()
        .map(|c| (c.n as f64, c.rows[0].total_messages() as f64))
        .collect();
    println!("\n=== F1-EPS-COL-UB: Algorithm 2 across n (ε = 0.5), G(n, 0.5) ===");
    println!("{}", sweeps::lane0_table(&cells));
    println!(
        "fitted message-growth exponent ≈ n^{:.2} (paper: Õ(n/ε²), i.e. ≈ 1 in n)",
        fit_exponent(&points)
    );
    sweeps::print_speedup_summary(&cells);

    let cells = sweeps::run_sweep(&sweeps::fig1_eps_eps_sweep(lanes));
    println!("=== F1-EPS-COL-UB: ε sweep on one instance (smaller ε ⇒ more messages) ===");
    println!("{}", sweeps::lane0_table(&cells));
    sweeps::print_speedup_summary(&cells);
}

fn bench(c: &mut Criterion) {
    print_table();
    let inst = gnp_instance(64, 0.5, 8);
    c.bench_function("alg2_eps_coloring_n64_eps0.5", |b| {
        b.iter(|| experiments::measure_alg2(&inst.graph, &inst.ids, 0.5, 1))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_millis(500));
    targets = bench
}
criterion_main!(benches);
