//! F1-KT2-MIS-UB: Figure 1 / Theorem 4.1 — MIS in KT-2 with Õ(n^1.5)
//! messages and Õ(√n) rounds.
//!
//! Prints Algorithm 3's message counts across an `n` sweep on dense graphs
//! next to Luby's Θ(m)-message baseline, with fitted growth exponents.
//!
//! The grid is the declarative [`sweeps::fig1_kt2_sweep`] spec; neither
//! algorithm has seed-independent setup to share, so both sides of every
//! cell run seed by seed (sequential differential oracle). The printed
//! table is the lane-0 slice, matching the historical single-seed rows.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use symbreak_bench::sweeps;
use symbreak_bench::workloads::{fit_exponent, gnp_instance};
use symbreak_core::experiments;

fn print_table() {
    let cells = sweeps::run_sweep(&sweeps::fig1_kt2_sweep(sweeps::default_lanes()));
    let alg3_points: Vec<(f64, f64)> = cells
        .iter()
        .filter(|c| c.algorithm == "alg3")
        .map(|c| (c.n as f64, c.rows[0].total_messages() as f64))
        .collect();
    let luby_points: Vec<(f64, f64)> = cells
        .iter()
        .filter(|c| c.algorithm == "luby_baseline")
        .map(|c| (c.n as f64, c.rows[0].total_messages() as f64))
        .collect();
    println!("\n=== F1-KT2-MIS-UB: Algorithm 3 (KT-2) vs Luby (KT-1, Θ(m)), G(n, 0.5) ===");
    println!("{}", sweeps::lane0_table(&cells));
    println!(
        "fitted exponents: Alg3 ≈ n^{:.2} (paper: Õ(n^1.5)), Luby ≈ n^{:.2} (≈ m = Θ(n²))",
        fit_exponent(&alg3_points),
        fit_exponent(&luby_points)
    );
    sweeps::print_speedup_summary(&cells);
}

fn bench(c: &mut Criterion) {
    print_table();
    let inst = gnp_instance(96, 0.5, 5);
    c.bench_function("alg3_kt2_mis_n96_p0.5", |b| {
        b.iter(|| experiments::measure_alg3(&inst.graph, &inst.ids, 1))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_millis(500));
    targets = bench
}
criterion_main!(benches);
