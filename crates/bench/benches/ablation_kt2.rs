//! ABL-KT2: why Algorithm 3 needs KT-2 knowledge in Step 3 (Section 4).
//!
//! When an MIS node informs its two-hop neighbourhood, KT-2 lets each 1-hop
//! neighbour forward the announcement only if it is the minimum-ID common
//! neighbour — so each 2-hop node hears the news O(1) times. Without KT-2
//! the natural alternative is flooding: every 1-hop neighbour forwards to
//! all of its neighbours, costing one message per 2-path. This ablation
//! measures both.
//!
//! The grid is the declarative [`sweeps::ablation_kt2_sweep`] spec and every
//! algorithm seed comes from its per-cell seed grid (previously the loop
//! reseeded each instance with its bare index, disconnected from the
//! instance seed). The flood-bound table runs each instance's lane-0 seed,
//! which equals the historical single-run seed; the timed loop calls
//! [`alg3_mis::run`] once per seed of a grid.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use symbreak_bench::sweeps;
use symbreak_bench::workloads::gnp_instance;
use symbreak_core::{alg3_mis, Alg3Config};

fn print_table() {
    println!("\n=== ABL-KT2: informing 2-hop neighbourhoods, KT-2 BFS trees vs naive flooding ===");
    println!(
        "{:<8} {:>10} {:>22} {:>22}",
        "n", "m", "Alg3 total (KT-2)", "naive 2-hop flood bound"
    );
    let spec = sweeps::ablation_kt2_sweep(sweeps::default_lanes());
    for (g, graph_spec) in spec.graphs.iter().enumerate() {
        let inst = graph_spec.build();
        let mut rng = StdRng::seed_from_u64(spec.alg_seed_base + g as u64);
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
    println!();
}

fn bench(c: &mut Criterion) {
    print_table();
    let inst = gnp_instance(96, 0.5, 901);
    let seeds = sweeps::seed_grid(7, sweeps::default_lanes());
    c.bench_function("alg3_batched_run_n96", |b| {
        b.iter(|| {
            let run = |seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                alg3_mis::run(&inst.graph, &inst.ids, Alg3Config::default(), &mut rng).unwrap()
            };
            seeds.iter().map(|&seed| run(seed)).collect::<Vec<_>>()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_millis(500));
    targets = bench
}
criterion_main!(benches);
