//! ALG-COLORING: end-to-end wall time of the paper's algorithm layer.
//!
//! This bench times the *algorithms* of conf_podc_PaiPP021 — alg1
//! (Δ+1)-coloring, alg2 (1+ε)Δ-coloring, alg3 MIS and the classic Johansson
//! Δ+1 baseline — rather than raw engine message traffic (`sim_engine`).
//! Each row runs its algorithm once untimed, checks that output
//! (`is_proper_coloring` or `is_mis`) and records its total message cost,
//! then keeps the best wall time of the timed runs that follow. Every row
//! also records the most engine threads its run could use: alg1 and alg2
//! run their danner collectives at the default count and their stages on
//! one thread; `mis` and `classic` run on one thread throughout.
//!
//! Graph families: cycle (Δ = 2, pure final stage), clique (dense, bucket
//! levels engage), random d8 (the paper's sparse near-regular shape) and
//! preferential-attachment power law (skewed buckets — the shape the
//! work-stealing shard claiming exists for), at n up to 10⁵.
//!
//! Results are printed and written to `BENCH_alg_coloring.json` (one JSON
//! object per line; replaced atomically once every row has run). Set
//! `ALG_BENCH_SMOKE=1` for the reduced-n CI smoke (same rows and checks at
//! a fraction of the size, no JSON artifact).

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use symbreak_bench::artifact::BenchArtifact;
use symbreak_classic::coloring::{self, baseline};
use symbreak_classic::mis;
use symbreak_congest::SyncConfig;
use symbreak_core::{alg1_coloring, alg2_coloring, alg3_mis, Alg1Config, Alg2Config, Alg3Config};
use symbreak_graphs::{generators, properties, Graph, IdAssignment, IdSpace};

/// Whether this run is the reduced-size CI smoke.
fn smoke() -> bool {
    std::env::var("ALG_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

struct Family {
    name: &'static str,
    graph: Graph,
    ids: IdAssignment,
    /// Timed iterations per algorithm row.
    iters: u32,
    /// alg1/alg2 need a connected graph.
    connected: bool,
}

fn families() -> Vec<Family> {
    let shrink = if smoke() { 16 } else { 1 };
    let mut rng = StdRng::seed_from_u64(0xa19);
    let mut out = Vec::new();
    let mut push = |name: &'static str, graph: Graph, iters: u32| {
        let mut rng = StdRng::seed_from_u64(0x1d5 ^ graph.num_nodes() as u64);
        let ids = IdAssignment::random(&graph, IdSpace::CUBIC, &mut rng);
        let connected = properties::is_connected(&graph);
        out.push(Family {
            name,
            graph,
            ids,
            iters,
            connected,
        });
    };
    push("cycle_100000", generators::cycle(100_000 / shrink), 2);
    push("clique_512", generators::clique(512 / shrink.min(4)), 2);
    // Scan for a connected near-regular instance (d = 8 keeps it connected
    // for every seed tried; the scan just makes that deterministic).
    let d8 = (42..)
        .map(|seed| {
            generators::random_near_regular(100_000 / shrink, 8, &mut StdRng::seed_from_u64(seed))
        })
        .find(properties::is_connected)
        .expect("a connected random_d8 instance exists");
    push("random_d8_100000", d8, 2);
    push(
        "power_law_100000",
        generators::power_law(100_000 / shrink, 4, &mut rng),
        2,
    );
    out
}

/// Best-of wall-clock nanoseconds of `run` over `iters` iterations.
fn best_of<T>(iters: u32, mut run: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t = Instant::now();
        black_box(run());
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    best
}

struct Row {
    row: &'static str,
    graph_name: String,
    n: usize,
    m: usize,
    messages: u64,
    wall_ns: f64,
    threads: usize,
}

impl Row {
    fn print(&self) {
        println!(
            "{:<12} {:<18} {:>12} {:>12.2}ms",
            self.row,
            self.graph_name,
            self.messages,
            self.wall_ns / 1e6
        );
    }

    fn json(&self) -> String {
        format!(
            "{{\"bench\":\"alg_coloring\",\"row\":\"{}\",\"graph\":\"{}\",\"n\":{},\"m\":{},\"messages\":{},\"wall_ns\":{:.0},\"threads\":{}}}",
            self.row, self.graph_name, self.n, self.m, self.messages, self.wall_ns, self.threads
        )
    }
}

/// One row's measurement: an untimed warm-up run (page cache, branch
/// predictors) whose output `check` validates and turns into the row's
/// message count, then the best wall time of `iters` timed runs.
fn measure<T>(iters: u32, mut run: impl FnMut() -> T, check: impl FnOnce(&T) -> u64) -> (f64, u64) {
    let messages = check(&run());
    (best_of(iters, run), messages)
}

fn alg_rows(fam: &Family) -> Vec<Row> {
    let (graph, ids) = (&fam.graph, &fam.ids);
    let mut rows = Vec::new();
    // The danner collectives of alg1 and alg2 run at the default count.
    let collective_threads = SyncConfig::default().resolved_threads();
    let mut push = |row: &'static str, threads: usize, (wall_ns, messages): (f64, u64)| {
        let r = Row {
            row,
            graph_name: fam.name.to_string(),
            n: graph.num_nodes(),
            m: graph.num_edges(),
            messages,
            wall_ns,
            threads,
        };
        r.print();
        rows.push(r);
    };
    let proper = |row: &str, colors: &[Option<u64>]| {
        assert!(
            coloring::verify::is_proper_coloring(graph, colors),
            "{row} on {}: improper colouring",
            fam.name
        );
    };

    if fam.connected {
        let config = Alg1Config {
            threads: 1,
            ..Alg1Config::default()
        };
        push(
            "alg1",
            collective_threads,
            measure(
                fam.iters,
                || {
                    let mut rng = StdRng::seed_from_u64(0xc01);
                    alg1_coloring::run(graph, ids, config, &mut rng).expect("alg1 succeeds")
                },
                |out| {
                    proper("alg1", &out.colors);
                    out.costs.total_messages()
                },
            ),
        );

        let config = Alg2Config {
            threads: 1,
            ..Alg2Config::default()
        };
        push(
            "alg2",
            collective_threads,
            measure(
                fam.iters,
                || {
                    let mut rng = StdRng::seed_from_u64(0xc02);
                    alg2_coloring::run(graph, ids, config, &mut rng).expect("alg2 succeeds")
                },
                |out| {
                    proper("alg2", &out.colors);
                    out.costs.total_messages()
                },
            ),
        );
    }

    let config = Alg3Config {
        threads: 1,
        ..Alg3Config::default()
    };
    push(
        "mis",
        1,
        measure(
            fam.iters,
            || {
                let mut rng = StdRng::seed_from_u64(0xc03);
                alg3_mis::run(graph, ids, config, &mut rng).expect("alg3 succeeds")
            },
            |out| {
                assert!(
                    mis::verify::is_mis(graph, &out.in_mis),
                    "mis on {}: not an MIS",
                    fam.name
                );
                out.costs.total_messages()
            },
        ),
    );

    let config = SyncConfig::default().with_threads(1);
    push(
        "classic",
        1,
        measure(
            fam.iters,
            || baseline::run(graph, ids, 0xc1a, config),
            |(colors, report)| {
                proper("classic", colors);
                report.messages
            },
        ),
    );

    rows
}

fn main() {
    let mut json = BenchArtifact::open("BENCH_alg_coloring.json", !smoke());
    println!(
        "\n=== alg_coloring: end-to-end algorithm wall time{} ===",
        if smoke() { " (smoke)" } else { "" }
    );
    println!(
        "{:<12} {:<18} {:>12} {:>14}",
        "row", "graph", "messages", "wall"
    );
    for fam in &families() {
        for row in alg_rows(fam) {
            json.row(row.json());
        }
    }
    json.commit().expect("write BENCH_alg_coloring.json");
}
