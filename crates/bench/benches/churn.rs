//! CHURN — incremental repair vs. full recompute on low-churn streams.
//!
//! Each row opens a [`ChurnSession`] over one graph family, computes an
//! initial colouring and MIS, then drives a seed-reproducible
//! [`ChurnStream`] whose batches touch **≤ 1% of the edges** (half deletes,
//! half inserts). After every batch both restoration strategies run on the
//! *same* post-batch graph, interleaved so clock drift hits both sides
//! equally:
//!
//! * **repair** — dirty-frontier extraction + frontier-subgraph stages
//!   (`core::repair`, Johansson / Luby drivers);
//! * **recompute** — the from-scratch oracle on a materialized CSR
//!   (`recompute_coloring` / `recompute_mis`).
//!
//! Both sides' outputs are validity-checked each batch. The harness
//! **asserts** repair beats full recompute (wall-clock speedup ≥ 1×) on
//! every row — that is the point of incremental repair, and it holds with
//! a wide margin because frontier subgraphs are delta-sized while the
//! recompute pays Θ(n + m) per batch.
//!
//! After the last batch, a `compact` row per family times
//! [`ChurnSession::compact`], which folds every pending delta into a fresh
//! CSR through `GraphBuilder`, and asserts that the compacted base equals
//! the overlay's `materialize()` taken just before.
//!
//! Results are printed and written to `BENCH_churn.json` (one JSON object
//! per line; replaced atomically once every gate has passed). Set
//! `CHURN_SMOKE=1` for the reduced-size CI smoke (same rows and asserts, no
//! JSON artifact).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use symbreak_bench::artifact::BenchArtifact;
use symbreak_classic::coloring::verify::is_proper_coloring;
use symbreak_classic::mis::verify::is_mis;
use symbreak_congest::SyncConfig;
use symbreak_core::repair::{ChurnSession, ColoringRepairDriver, MisRepairDriver};
use symbreak_graphs::generators::{self, ChurnStream};
use symbreak_graphs::{properties, Graph, IdAssignment, IdSpace};

/// Whether this run is the reduced-size CI smoke.
fn smoke() -> bool {
    std::env::var("CHURN_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

struct Family {
    name: &'static str,
    graph: Graph,
    ids: IdAssignment,
}

fn families() -> Vec<Family> {
    let shrink = if smoke() { 16 } else { 1 };
    let mut out = Vec::new();
    let mut push = |name: &'static str, graph: Graph| {
        let mut rng = StdRng::seed_from_u64(0x1d5 ^ graph.num_nodes() as u64);
        let ids = IdAssignment::random(&graph, IdSpace::CUBIC, &mut rng);
        out.push(Family { name, graph, ids });
    };
    let d8 = (42..)
        .map(|seed| {
            generators::random_near_regular(20_000 / shrink, 8, &mut StdRng::seed_from_u64(seed))
        })
        .find(properties::is_connected)
        .expect("a connected random_d8 instance exists");
    push("random_d8_20000", d8);
    push(
        "power_law_20000",
        generators::power_law(20_000 / shrink, 4, &mut StdRng::seed_from_u64(0xbeef)),
    );
    push(
        "gnp_2000",
        generators::connected_gnp(2_000 / shrink.min(8), 0.01, &mut StdRng::seed_from_u64(7)),
    );
    out
}

struct Row {
    row: &'static str,
    graph_name: &'static str,
    n: usize,
    m: usize,
    batches: usize,
    churn_per_batch: usize,
    total_frontier: usize,
    repair_ns: f64,
    recompute_ns: f64,
    repair_messages: u64,
    recompute_messages: u64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.recompute_ns / self.repair_ns
    }

    fn print(&self) {
        println!(
            "{:<9} {:<18} {:>7}n {:>8}m {:>4}ops/b {:>7}fr {:>10.2}ms {:>10.2}ms {:>8.1}x",
            self.row,
            self.graph_name,
            self.n,
            self.m,
            self.churn_per_batch,
            self.total_frontier,
            self.repair_ns / 1e6,
            self.recompute_ns / 1e6,
            self.speedup()
        );
    }

    fn json(&self) -> String {
        format!(
            "{{\"bench\":\"churn\",\"row\":\"{}\",\"graph\":\"{}\",\"n\":{},\"m\":{},\"batches\":{},\"churn_per_batch\":{},\"total_frontier\":{},\"repair_ns\":{:.0},\"recompute_ns\":{:.0},\"repair_messages\":{},\"recompute_messages\":{},\"speedup\":{:.3}}}",
            self.row,
            self.graph_name,
            self.n,
            self.m,
            self.batches,
            self.churn_per_batch,
            self.total_frontier,
            self.repair_ns,
            self.recompute_ns,
            self.repair_messages,
            self.recompute_messages,
            self.speedup()
        )
    }
}

/// One family's compaction of the overlay after the stream's batches.
struct CompactRow {
    graph_name: &'static str,
    n: usize,
    /// Live edges after the batches.
    m: usize,
    batches: usize,
    churn_per_batch: usize,
    compact_ns: f64,
}

impl CompactRow {
    fn print(&self) {
        println!(
            "{:<9} {:<18} {:>7}n {:>8}m {:>4}ops/b {:>18.2}ms (one compaction)",
            "compact",
            self.graph_name,
            self.n,
            self.m,
            self.churn_per_batch,
            self.compact_ns / 1e6
        );
    }

    fn json(&self) -> String {
        format!(
            "{{\"bench\":\"churn\",\"row\":\"compact\",\"graph\":\"{}\",\"n\":{},\"m\":{},\"batches\":{},\"churn_per_batch\":{},\"compact_ns\":{:.0}}}",
            self.graph_name, self.n, self.m, self.batches, self.churn_per_batch, self.compact_ns
        )
    }
}

/// Runs one family's coloring and MIS rows: `batches` low-churn batches,
/// repair and recompute interleaved per batch on identical post-batch
/// graphs, validity asserted on both sides. Then compacts the overlay once
/// for the family's `compact` row.
fn family_rows(fam: &Family, batches: usize) -> (Vec<Row>, CompactRow) {
    let n = fam.graph.num_nodes();
    let m = fam.graph.num_edges();
    // ≤ 1% of the edges per batch: 0.5% deletes + 0.5% inserts, at least
    // one of each so the tiny smoke graphs still churn.
    let half = (m / 200).max(1);
    let config = SyncConfig::default();
    let mut session = ChurnSession::new(fam.graph.clone(), fam.ids.clone(), config);
    let (mut colors, _) = session.recompute_coloring(0xC01);
    let (mut in_set, _) = session.recompute_mis(0x3A5);
    let mut stream = ChurnStream::new(&fam.graph, 0x5EED);

    let mut coloring = Row {
        row: "coloring",
        graph_name: fam.name,
        n,
        m,
        batches,
        churn_per_batch: 2 * half,
        total_frontier: 0,
        repair_ns: 0.0,
        recompute_ns: 0.0,
        repair_messages: 0,
        recompute_messages: 0,
    };
    let mut mis = Row {
        row: "mis",
        graph_name: fam.name,
        ..coloring
    };

    // Untimed warm-up pair (page cache, allocator, branch predictors).
    let _ = session.recompute_coloring(1);
    let _ = session.recompute_mis(2);

    for step in 0..batches as u64 {
        let batch = stream.next_batch(half, half);
        session.apply(&batch);

        let t = Instant::now();
        let report =
            session.repair_coloring(&batch, &mut colors, ColoringRepairDriver::Johansson, step);
        coloring.repair_ns += t.elapsed().as_nanos() as f64;
        coloring.total_frontier += report.total_frontier();
        coloring.repair_messages += report.messages;

        let t = Instant::now();
        let (scratch_colors, exec) = session.recompute_coloring(step ^ 0xFF);
        coloring.recompute_ns += t.elapsed().as_nanos() as f64;
        coloring.recompute_messages += exec.messages;

        let t = Instant::now();
        let report = session.repair_mis(&batch, &mut in_set, MisRepairDriver::Luby, step);
        mis.repair_ns += t.elapsed().as_nanos() as f64;
        mis.total_frontier += report.total_frontier();
        mis.repair_messages += report.messages;

        let t = Instant::now();
        let (scratch_set, exec) = session.recompute_mis(step ^ 0xFF);
        mis.recompute_ns += t.elapsed().as_nanos() as f64;
        mis.recompute_messages += exec.messages;

        let current = session.overlay().materialize();
        assert!(
            is_proper_coloring(&current, &colors) && is_proper_coloring(&current, &scratch_colors),
            "{}: invalid colouring at batch {step}",
            fam.name
        );
        assert!(
            is_mis(&current, &in_set) && is_mis(&current, &scratch_set),
            "{}: invalid MIS at batch {step}",
            fam.name
        );
    }

    let expected = session.overlay().materialize();
    let t = Instant::now();
    let base = session.compact();
    let compact_ns = t.elapsed().as_nanos() as f64;
    assert_eq!(
        *base, expected,
        "{}: the compacted base differs from materialize()",
        fam.name
    );
    let compact = CompactRow {
        graph_name: fam.name,
        n,
        m: base.num_edges(),
        batches,
        churn_per_batch: 2 * half,
        compact_ns,
    };
    (vec![coloring, mis], compact)
}

fn main() {
    let mut json = BenchArtifact::open("BENCH_churn.json", !smoke());
    println!(
        "\n=== churn: incremental repair vs full recompute, ≤1% edges per batch{} ===",
        if smoke() { " (smoke)" } else { "" }
    );
    println!(
        "{:<9} {:<18} {:>8} {:>9} {:>6} {:>9} {:>12} {:>12} {:>9}",
        "row", "graph", "n", "m", "churn", "frontier", "repair", "recompute", "speedup"
    );
    let batches = if smoke() { 4 } else { 6 };
    for fam in families() {
        let (rows, compact) = family_rows(&fam, batches);
        for row in rows {
            row.print();
            // The repair-faster gate: incremental repair must beat the
            // from-scratch oracle on every low-churn row.
            assert!(
                row.speedup() >= 1.0,
                "{}/{}: repair did not beat full recompute ({:.2}x)",
                row.row,
                row.graph_name,
                row.speedup()
            );
            assert!(
                row.repair_messages < row.recompute_messages,
                "{}/{}: repair sent more messages than recompute",
                row.row,
                row.graph_name
            );
            json.row(row.json());
        }
        compact.print();
        json.row(compact.json());
    }
    json.commit().expect("write BENCH_churn.json");
}
