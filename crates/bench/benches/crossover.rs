//! CROSSOVER: the headline question — when does o(m) communication pay off?
//!
//! At fixed n, sweeps the density p of `G(n, p)`. The Θ(m) baselines grow
//! linearly with density while Algorithm 1 / Algorithm 3 stay roughly flat,
//! so the paper's algorithms win exactly on the dense instances the
//! introduction motivates.
//!
//! The grid is the declarative [`sweeps::crossover_sweep`] spec executed
//! batched (Algorithm 1 builds its seed-independent setup once per density;
//! the other cells run seed by seed; sequential differential oracle); the
//! printed table is the lane-0 slice, matching the historical single-seed
//! rows.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use symbreak_bench::sweeps;
use symbreak_bench::workloads::gnp_instance;
use symbreak_core::experiments;

fn print_table() {
    let cells = sweeps::run_sweep(&sweeps::crossover_sweep(sweeps::default_lanes()));
    println!("\n=== CROSSOVER: density sweep at fixed n, G(n, p) ===");
    println!("{}", sweeps::lane0_table(&cells));
    println!(
        "(rows are grouped in blocks of four per density: Alg1, coloring baseline, Alg3, Luby)"
    );
    sweeps::print_speedup_summary(&cells);
}

fn bench(c: &mut Criterion) {
    print_table();
    let inst = gnp_instance(96, 0.8, 9);
    c.bench_function("alg1_dense_n96_p0.8", |b| {
        b.iter(|| experiments::measure_alg1(&inst.graph, &inst.ids, 1))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_millis(500));
    targets = bench
}
criterion_main!(benches);
