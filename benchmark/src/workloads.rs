//! The three workloads: their inputs, built from the workload seed, and one
//! pass of their operations through the library's public entry points.
//!
//! Every operation is timed on its own (CPU and wall seconds, see
//! [`crate::clock`]), with validation outside the timed region. An operation that returns an error, panics or fails its check
//! counts as failed and contributes no timing.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::StdRng;
use rand::SeedableRng;
use symbreak_classic::coloring::{self, verify as cverify};
use symbreak_classic::mis::{self, verify as mverify};
use symbreak_congest::SyncConfig;
use symbreak_core::experiments;
use symbreak_core::repair::{ChurnSession, ColoringRepairDriver, MisRepairDriver};
use symbreak_core::{alg1_coloring, alg2_coloring, alg3_mis, Alg1Config, Alg2Config, Alg3Config};
use symbreak_core::{MeasurementRow, RepairReport};
use symbreak_graphs::generators::{self, ChurnStream};
use symbreak_graphs::{properties, ChurnBatch, Graph, IdAssignment, IdSpace};
use symbreak_lowerbounds::experiments::{crossed_utilization_experiment, CrossedStats, Problem};

use crate::clock::{rescale, Reference, Stopwatch, Timing};
use crate::stats::{median, Digest};
use crate::trace::{alloc_snapshot, Alloc, Tracer};

/// Algorithm 2's slack on every workload.
pub const EPSILON: f64 = 0.5;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// alg1, alg2, alg3, Luby and Johansson once each on a random 8-regular
    /// graph with n = 10⁵.
    Sparse,
    /// Figure 1's dense regime: 8-seed batched cells on G(n, ½) plus the
    /// crossed-family lower-bound experiments.
    Dense,
    /// Churn batches on the sparse graph, each repaired before the next.
    Churn,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [Workload::Sparse, Workload::Dense, Workload::Churn];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sparse => "sparse-1e5",
            Workload::Dense => "dense-fig1",
            Workload::Churn => "churn-1e5",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: the full benchmark, or a reduced smoke size for tests.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Nodes of the sparse (and churn) graph.
    pub sparse_n: usize,
    /// Degree of the sparse graph.
    pub degree: usize,
    /// Nodes of the dense G(n, ½) for the KT-1 cells.
    pub dense_n: usize,
    /// Nodes of the dense G(n, ½) for the KT-2 (alg3) cell.
    pub kt2_n: usize,
    /// Seeds per batched cell.
    pub lanes: usize,
    /// Crossed-family parameter t.
    pub crossed_t: usize,
    /// Crossings sampled per lower-bound experiment.
    pub crossings: usize,
    /// Churn batches per pass.
    pub batches: usize,
    /// Batches between compactions.
    pub compact_every: usize,
    /// Timed churn batches per run, at least.
    pub min_batches: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const FULL: Sizes = Sizes {
        sparse_n: 100_000,
        degree: 8,
        dense_n: 1024,
        kt2_n: 192,
        lanes: 8,
        crossed_t: 96,
        crossings: 32,
        batches: 256,
        compact_every: 64,
        min_batches: 1000,
    };

    /// Reduced sizes for the benchmark's own tests.
    pub const SMOKE: Sizes = Sizes {
        sparse_n: 2048,
        degree: 8,
        dense_n: 96,
        kt2_n: 48,
        lanes: 4,
        crossed_t: 12,
        crossings: 4,
        batches: 32,
        compact_every: 8,
        min_batches: 0,
    };
}

/// `splitmix64`, used to derive every input seed from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut x = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A graph with its ID assignment from the cubic ID space.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The communication graph.
    pub graph: Graph,
    /// The node IDs.
    pub ids: IdAssignment,
}

/// The connected random near-regular graph of the sparse and churn
/// workloads: the first connected draw from the seed's stream.
pub fn sparse_instance(sizes: &Sizes, seed: u64) -> Instance {
    let graph = (0..)
        .map(|k| {
            let mut rng = StdRng::seed_from_u64(mix(seed, 0x5a + k));
            generators::random_near_regular(sizes.sparse_n, sizes.degree, &mut rng)
        })
        .find(properties::is_connected)
        .expect("a connected near-regular draw exists");
    let ids = IdAssignment::random(
        &graph,
        IdSpace::CUBIC,
        &mut StdRng::seed_from_u64(mix(seed, 0x1d)),
    );
    Instance { graph, ids }
}

/// A connected G(n, ½) with its IDs.
pub fn dense_instance(n: usize, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = generators::connected_gnp(n, 0.5, &mut rng);
    let ids = IdAssignment::random(&graph, IdSpace::CUBIC, &mut rng);
    Instance { graph, ids }
}

/// `count` churn batches over `graph`, each deleting and inserting 0.5% of
/// its edges (at least one of each).
pub fn churn_batches(graph: &Graph, count: usize, seed: u64) -> Vec<ChurnBatch> {
    let half = (graph.num_edges() / 200).max(1);
    let mut stream = ChurnStream::new(graph, seed);
    (0..count).map(|_| stream.next_batch(half, half)).collect()
}

/// The state every churn pass starts from.
#[derive(Debug, Clone)]
pub struct ChurnStart {
    /// The base graph and IDs.
    pub base: Instance,
    /// The batches of one pass, applied in order.
    pub batches: Vec<ChurnBatch>,
    /// The initial (Δ+1)-colouring.
    pub colors: Vec<Option<u64>>,
    /// The initial MIS.
    pub in_mis: Vec<bool>,
    /// Seed of the colour repairs (batch `k` uses `seed + k`).
    pub repair_seed: u64,
}

impl ChurnStart {
    /// Opens a session on `base`, computes the initial colouring and MIS
    /// with the Johansson and Luby drivers, and checks both.
    pub fn new(base: Instance, batches: Vec<ChurnBatch>, seed: u64, tracer: &mut Tracer) -> Self {
        let (colors, in_mis) = tracer.span("core.repair.recompute", |_| {
            let session =
                ChurnSession::new(base.graph.clone(), base.ids.clone(), SyncConfig::default());
            let (colors, _) = session.recompute_coloring(mix(seed, 0xc0));
            let (in_mis, _) = session.recompute_mis(mix(seed, 0x3a));
            (colors, in_mis)
        });
        ChurnStart {
            base,
            batches,
            colors,
            in_mis,
            repair_seed: mix(seed, 0x7e),
        }
    }

    /// Whether the initial outputs are a proper colouring and an MIS.
    pub fn is_valid(&self) -> bool {
        cverify::is_proper_coloring(&self.base.graph, &self.colors)
            && cverify::uses_colors_below(&self.colors, self.base.graph.max_degree() as u64 + 1)
            && mverify::is_mis(&self.base.graph, &self.in_mis)
    }
}

/// Every input a workload's passes read.
#[derive(Debug, Clone)]
pub enum Inputs {
    /// `sparse-1e5`.
    Sparse {
        /// The n = 10⁵ near-regular graph.
        main: Instance,
        /// Seed of the algorithms' randomness.
        alg_seed: u64,
    },
    /// `dense-fig1`.
    Dense {
        /// G(1024, ½) for alg1, alg2, Luby and Johansson.
        main: Instance,
        /// G(192, ½) for alg3.
        kt2: Instance,
        /// One seed per lane of every cell.
        seeds: Vec<u64>,
        /// Seed of the crossed-family experiments.
        crossed_seed: u64,
    },
    /// `churn-1e5`.
    Churn(ChurnStart),
}

impl Inputs {
    /// Builds the workload's inputs from `seed`.
    pub fn build(workload: Workload, sizes: &Sizes, seed: u64, tracer: &mut Tracer) -> Self {
        match workload {
            Workload::Sparse => Inputs::Sparse {
                main: tracer.span("graphs.generate", |_| sparse_instance(sizes, seed)),
                alg_seed: mix(seed, 0xa1),
            },
            Workload::Dense => {
                let (main, kt2) = tracer.span("graphs.generate", |_| {
                    (
                        dense_instance(sizes.dense_n, mix(seed, 0xde)),
                        dense_instance(sizes.kt2_n, mix(seed, 0xd2)),
                    )
                });
                Inputs::Dense {
                    main,
                    kt2,
                    seeds: (0..sizes.lanes as u64)
                        .map(|k| mix(seed, 0x100 + k))
                        .collect(),
                    crossed_seed: mix(seed, 0xc5),
                }
            }
            Workload::Churn => {
                let base = tracer.span("graphs.generate", |_| sparse_instance(sizes, seed));
                let batches = tracer.span("graphs.churn_stream", |_| {
                    churn_batches(&base.graph, sizes.batches, mix(seed, 0xcb))
                });
                Inputs::Churn(ChurnStart::new(base, batches, seed, tracer))
            }
        }
    }

    /// Whether the inputs themselves are valid (the churn workload's initial
    /// colouring and MIS).
    pub fn is_valid(&self) -> bool {
        match self {
            Inputs::Churn(start) => start.is_valid(),
            _ => true,
        }
    }
}

/// One successful, validated operation.
#[derive(Debug, Clone)]
pub struct Op {
    /// The operation's name (also its span name).
    pub name: &'static str,
    /// CPU and wall seconds of the call.
    pub time: Timing,
    /// Allocations inside the call (zero in the untraced binary).
    pub alloc: Alloc,
}

/// Repair work summed over a pass's repairs.
#[derive(Debug, Clone, Copy, Default)]
pub struct RepairTotals {
    /// Repair calls.
    pub calls: u64,
    /// Frontier nodes entered, over all iterations.
    pub frontier: u64,
    /// Node outputs rewritten.
    pub repaired: u64,
    /// Fixpoint iterations.
    pub iterations: u64,
}

impl RepairTotals {
    fn add(&mut self, r: &RepairReport) {
        self.calls += 1;
        self.frontier += r.total_frontier() as u64;
        self.repaired += r.repaired_nodes as u64;
        self.iterations += r.iterations as u64;
    }
}

/// The outcome of one pass.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Successful operations, in order.
    pub ops: Vec<Op>,
    /// Churn only: CPU milliseconds of apply plus both repairs, per batch.
    pub batch_ms: Vec<f64>,
    /// CPU seconds of the successful operations, rescaled by the median
    /// reference kernel sample of the pass (see [`crate::clock`]).
    pub ref_secs: f64,
    /// Reference kernel CPU seconds sampled during the pass.
    pub kernel: Vec<f64>,
    /// Simulated plus charged messages of the pass.
    pub messages: u64,
    /// Digest of every output and per-phase cost.
    pub digest: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored, panicked or failed their check.
    pub failed: u64,
    /// CPU seconds spent validating outputs.
    pub verify_secs: f64,
    /// Churn only: repair work.
    pub repairs: RepairTotals,
}

impl Pass {
    /// CPU seconds of the successful operations.
    pub fn secs(&self) -> f64 {
        self.ops.iter().map(|op| op.time.cpu).sum()
    }

    /// Wall seconds of the successful operations.
    pub fn wall(&self) -> f64 {
        self.ops.iter().map(|op| op.time.wall).sum()
    }

    /// Allocations of the successful operations.
    pub fn alloc(&self) -> Alloc {
        self.ops.iter().fold(Alloc::default(), |a, op| Alloc {
            bytes: a.bytes + op.alloc.bytes,
            count: a.count + op.alloc.count,
        })
    }

    /// CPU seconds of the operations called `name`.
    pub fn op_secs(&self, name: &str) -> f64 {
        self.ops
            .iter()
            .filter(|op| op.name == name)
            .map(|op| op.time.cpu)
            .sum()
    }
}

/// Runs `f` inside span `name`, catching panics; returns the result (or
/// the panic message), the CPU and wall seconds and the allocations of the
/// call.
pub fn timed<T>(
    tracer: &mut Tracer,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (Result<T, String>, Timing, Alloc) {
    let before = alloc_snapshot();
    let watch = Stopwatch::start();
    let out = tracer.span(name, |_| catch_unwind(AssertUnwindSafe(f)));
    let time = watch.elapsed();
    let alloc = alloc_snapshot().since(before);
    let out = out.map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into())
    });
    (out, time, alloc)
}

/// Accumulates one pass.
struct Recorder<'t> {
    tracer: &'t mut Tracer,
    reference: &'t mut Reference,
    pass: Pass,
    digest: Digest,
}

impl<'t> Recorder<'t> {
    fn new(tracer: &'t mut Tracer, reference: &'t mut Reference) -> Self {
        Recorder {
            tracer,
            reference,
            pass: Pass::default(),
            digest: Digest::default(),
        }
    }

    fn kernel(&mut self) {
        let secs = self.reference.sample();
        self.pass.kernel.push(secs);
    }

    /// Times `run`, then validates its output with `check` outside the
    /// timed region. `check` feeds the digest and returns the operation's
    /// message count, or `None` when the output is wrong.
    fn op<T>(
        &mut self,
        name: &'static str,
        run: impl FnOnce() -> T,
        check: impl FnOnce(&T, &mut Digest) -> Option<u64>,
    ) {
        self.pass.attempted += 1;
        self.kernel();
        let (out, time, alloc) = timed(self.tracer, name, run);
        let watch = Stopwatch::start();
        let checked = match &out {
            Ok(value) => {
                let digest = &mut self.digest;
                self.tracer.span("classic.verify", |_| {
                    catch_unwind(AssertUnwindSafe(|| check(value, digest))).unwrap_or(None)
                })
            }
            Err(msg) => {
                eprintln!("{name}: panicked: {msg}");
                None
            }
        };
        self.pass.verify_secs += watch.elapsed().cpu;
        match checked {
            Some(messages) => {
                self.pass.messages += messages;
                self.pass.ops.push(Op { name, time, alloc });
            }
            None => {
                if out.is_ok() {
                    eprintln!("{name}: output failed its check");
                }
                self.pass.failed += 1;
            }
        }
    }

    fn finish(mut self) -> Pass {
        self.kernel();
        self.pass.ref_secs = rescale(self.pass.secs(), median(&self.pass.kernel));
        self.pass.digest = self.digest.value();
        self.pass
    }
}

fn coloring_ok(graph: &Graph, colors: &[Option<u64>], palette: u64) -> bool {
    cverify::is_proper_coloring(graph, colors) && cverify::uses_colors_below(colors, palette)
}

fn rows_ok(rows: &[MeasurementRow], lanes: usize, digest: &mut Digest) -> Option<u64> {
    for row in rows {
        digest.str(&row.algorithm);
        for x in [row.n, row.m, row.max_degree] {
            digest.u64(x as u64);
        }
        for x in [row.simulated_messages, row.charged_messages, row.rounds] {
            digest.u64(x);
        }
    }
    (rows.len() == lanes && rows.iter().all(|r| r.valid))
        .then(|| rows.iter().map(MeasurementRow::total_messages).sum())
}

fn crossed_ok(stats: &CrossedStats, samples: usize, digest: &mut Digest) -> Option<u64> {
    digest.u64(stats.pair_utilized as u64);
    digest.u64(stats.avg_utilized_edges.to_bits());
    digest.u64(stats.avg_messages.to_bits());
    (stats.samples == samples && stats.pair_utilized <= samples)
        .then(|| (stats.avg_messages * samples as f64).round() as u64)
}

/// Runs one pass of `inputs`' operations.
pub fn run_pass(
    inputs: &Inputs,
    sizes: &Sizes,
    tracer: &mut Tracer,
    reference: &mut Reference,
) -> Pass {
    match inputs {
        Inputs::Sparse { main, alg_seed } => sparse_pass(main, *alg_seed, tracer, reference),
        Inputs::Dense {
            main,
            kt2,
            seeds,
            crossed_seed,
        } => dense_pass(main, kt2, seeds, *crossed_seed, sizes, tracer, reference),
        Inputs::Churn(start) => churn_pass(start, sizes, tracer, reference),
    }
}

/// The five algorithms once each through their sequential `run` entry
/// points.
fn sparse_pass(
    main: &Instance,
    alg_seed: u64,
    tracer: &mut Tracer,
    reference: &mut Reference,
) -> Pass {
    let (g, ids) = (&main.graph, &main.ids);
    let delta_plus_one = g.max_degree() as u64 + 1;
    let config = SyncConfig::default();
    let mut rec = Recorder::new(tracer, reference);
    rec.op(
        "alg1",
        || {
            let mut rng = StdRng::seed_from_u64(mix(alg_seed, 1));
            alg1_coloring::run(g, ids, Alg1Config::default(), &mut rng)
        },
        |out, d| {
            let out = out.as_ref().ok()?;
            d.colors(&out.colors);
            d.costs(&out.costs);
            d.u64(out.levels_used as u64);
            coloring_ok(g, &out.colors, delta_plus_one).then(|| out.costs.total_messages())
        },
    );
    rec.op(
        "alg2",
        || {
            let mut rng = StdRng::seed_from_u64(mix(alg_seed, 2));
            let config = Alg2Config {
                epsilon: EPSILON,
                ..Alg2Config::default()
            };
            alg2_coloring::run(g, ids, config, &mut rng)
        },
        |out, d| {
            let out = out.as_ref().ok()?;
            d.colors(&out.colors);
            d.costs(&out.costs);
            coloring_ok(g, &out.colors, out.palette_size).then(|| out.costs.total_messages())
        },
    );
    rec.op(
        "alg3",
        || {
            let mut rng = StdRng::seed_from_u64(mix(alg_seed, 3));
            alg3_mis::run(g, ids, Alg3Config::default(), &mut rng)
        },
        |out, d| {
            let out = out.as_ref().ok()?;
            d.membership(&out.in_mis);
            d.costs(&out.costs);
            mverify::is_mis(g, &out.in_mis).then(|| out.costs.total_messages())
        },
    );
    rec.op(
        "luby",
        || mis::luby::run(g, ids, mix(alg_seed, 4), config),
        |(in_mis, report), d| {
            d.membership(in_mis);
            d.u64(report.messages);
            d.u64(report.rounds);
            (report.completed && mverify::is_mis(g, in_mis)).then_some(report.messages)
        },
    );
    rec.op(
        "johansson",
        || coloring::baseline::run(g, ids, mix(alg_seed, 5), config),
        |(colors, report), d| {
            d.colors(colors);
            d.u64(report.messages);
            d.u64(report.rounds);
            (report.completed && coloring_ok(g, colors, delta_plus_one)).then_some(report.messages)
        },
    );
    rec.finish()
}

fn dense_pass(
    main: &Instance,
    kt2: &Instance,
    seeds: &[u64],
    crossed_seed: u64,
    sizes: &Sizes,
    tracer: &mut Tracer,
    reference: &mut Reference,
) -> Pass {
    let (g, ids) = (&main.graph, &main.ids);
    let lanes = seeds.len();
    let mut rec = Recorder::new(tracer, reference);
    rec.op(
        "alg1.cell",
        || experiments::measure_alg1_batch(g, ids, seeds),
        |rows, d| rows_ok(rows, lanes, d),
    );
    rec.op(
        "alg2.cell",
        || experiments::measure_alg2_batch(g, ids, EPSILON, seeds),
        |rows, d| rows_ok(rows, lanes, d),
    );
    rec.op(
        "alg3.cell",
        || experiments::measure_alg3_batch(&kt2.graph, &kt2.ids, seeds),
        |rows, d| rows_ok(rows, lanes, d),
    );
    rec.op(
        "luby.cell",
        || experiments::measure_luby_baseline_batch(g, ids, seeds),
        |rows, d| rows_ok(rows, lanes, d),
    );
    rec.op(
        "johansson.cell",
        || experiments::measure_coloring_baseline_batch(g, ids, seeds),
        |rows, d| rows_ok(rows, lanes, d),
    );
    let (t, samples) = (sizes.crossed_t, sizes.crossings);
    rec.op(
        "lowerbound.coloring",
        || {
            let mut rng = StdRng::seed_from_u64(mix(crossed_seed, 1));
            crossed_utilization_experiment(Problem::Coloring, t, samples, &mut rng)
        },
        |stats, d| crossed_ok(stats, samples, d),
    );
    rec.op(
        "lowerbound.mis",
        || {
            let mut rng = StdRng::seed_from_u64(mix(crossed_seed, 2));
            crossed_utilization_experiment(Problem::Mis, t, samples, &mut rng)
        },
        |stats, d| crossed_ok(stats, samples, d),
    );
    rec.finish()
}

fn digest_repair(d: &mut Digest, r: &RepairReport) {
    d.u64(r.iterations as u64);
    for &f in &r.frontier_sizes {
        d.u64(f as u64);
    }
    d.u64(r.repaired_nodes as u64);
    d.u64(r.rounds);
    d.u64(r.messages);
}

/// Replays `start`'s batches on a fresh session: each batch is applied,
/// then repaired with the Johansson colouring driver and the Luby MIS
/// driver; the next batch waits for both. The session compacts every
/// `compact_every` batches, and the colouring and MIS are checked against
/// the materialized graph at every compaction and at the end. A failed
/// check fails every batch since the previous one. The reference kernel
/// runs at each check, not between batches. Also used by the traced run's
/// probes.
pub fn churn_pass(
    start: &ChurnStart,
    sizes: &Sizes,
    tracer: &mut Tracer,
    reference: &mut Reference,
) -> Pass {
    let mut session = ChurnSession::new(
        start.base.graph.clone(),
        start.base.ids.clone(),
        SyncConfig::default(),
    );
    let mut colors = start.colors.clone();
    let mut in_mis = start.in_mis.clone();
    let mut rec = Recorder::new(tracer, reference);
    // Operations and batch latencies since the last check.
    let mut pending: Vec<Op> = Vec::new();
    let mut pending_ms: Vec<f64> = Vec::new();
    let mut pending_messages = 0;
    let total = start.batches.len();
    rec.pass.attempted = total as u64;
    rec.kernel();
    for (step, batch) in start.batches.iter().enumerate() {
        let seed = start.repair_seed.wrapping_add(step as u64);
        let (applied, t_apply, a_apply) =
            timed(rec.tracer, "graphs.overlay.apply", || session.apply(batch));
        let (col, t_col, a_col) = timed(rec.tracer, "core.repair.coloring", || {
            session.repair_coloring(batch, &mut colors, ColoringRepairDriver::Johansson, seed)
        });
        let (mis, t_mis, a_mis) = timed(rec.tracer, "core.repair.mis", || {
            session.repair_mis(batch, &mut in_mis, MisRepairDriver::Luby, seed)
        });
        let (Ok(applied), Ok(col), Ok(mis)) = (applied, col, mis) else {
            eprintln!("churn batch {step}: panicked; the session state is lost");
            // This batch, every later one and the unchecked ones before it.
            rec.pass.failed += (total - step + pending_ms.len()) as u64;
            return rec.finish();
        };
        rec.digest.u64(applied.0 as u64);
        rec.digest.u64(applied.1 as u64);
        digest_repair(&mut rec.digest, &col);
        digest_repair(&mut rec.digest, &mis);
        rec.pass.repairs.add(&col);
        rec.pass.repairs.add(&mis);
        pending_messages += col.messages + mis.messages;
        pending_ms.push((t_apply.cpu + t_col.cpu + t_mis.cpu) * 1e3);
        for (name, time, alloc) in [
            ("graphs.overlay.apply", t_apply, a_apply),
            ("core.repair.coloring", t_col, a_col),
            ("core.repair.mis", t_mis, a_mis),
        ] {
            pending.push(Op { name, time, alloc });
        }

        let compact = (step + 1) % sizes.compact_every == 0;
        if compact {
            let (out, time, alloc) = timed(rec.tracer, "graphs.overlay.compact", || {
                session.compact();
            });
            if out.is_err() {
                eprintln!("churn compaction after batch {step} panicked");
                // Every later batch and the unchecked ones, this one included.
                rec.pass.failed += (total - step - 1 + pending_ms.len()) as u64;
                return rec.finish();
            }
            pending.push(Op {
                name: "graphs.overlay.compact",
                time,
                alloc,
            });
        }
        if compact || step + 1 == total {
            let watch = Stopwatch::start();
            let ok = rec.tracer.span("classic.verify", |_| {
                let current = session.overlay().materialize();
                cverify::is_proper_coloring(&current, &colors) && mverify::is_mis(&current, &in_mis)
            });
            rec.pass.verify_secs += watch.elapsed().cpu;
            rec.digest.colors(&colors);
            rec.digest.membership(&in_mis);
            rec.kernel();
            if ok {
                rec.pass.ops.append(&mut pending);
                rec.pass.batch_ms.append(&mut pending_ms);
                rec.pass.messages += pending_messages;
            } else {
                eprintln!("churn check after batch {step} failed");
                rec.pass.failed += pending_ms.len() as u64;
                pending.clear();
                pending_ms.clear();
            }
            pending_messages = 0;
        }
    }
    rec.finish()
}
