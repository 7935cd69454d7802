//! Scenario matrix: algorithms × fault classes, with asserted outcomes.
//!
//! Six algorithm columns — raw asynchronous flooding (phase-free control),
//! Luby's MIS and rank-based parallel greedy MIS (the Step-2 core of
//! Algorithm 3), Luby again on a bounded-arboricity sparse graph, an
//! Algorithm 1 query-coloring stage and the Algorithm 2 colour-trial
//! phases — run on the asynchronous executor under eight fault classes:
//! benign, oblivious adversarial delay, adaptive adversarial delay, message
//! loss (global + one always-dropping edge), duplication + reordering,
//! crash, crash-with-reset-recovery, and crash-with-retained-recovery. The
//! synchronous algorithms run through the α-synchronizer lockstep wrapper
//! (`congest::lockstep`), which turns the paper's Theorem A.5 claim into
//! checkable per-cell outcomes:
//!
//! * **benign / delay-only / duplication+reordering** — the run completes
//!   and its outputs are *bit-identical* to the synchronous run (proper
//!   colourings stay proper, MIS stays an MIS);
//! * **crash with retained recovery** — the revived node re-joins through
//!   the lockstep replay protocol (bounded replay buffers), and the run
//!   *completes* with outputs bit-identical to the synchronous run — the
//!   cell that used to stall before re-join existed;
//! * **loss / crash / crash-with-reset** — the run **stalls** (no node
//!   ever executes a round on a partial inbox), and every node that did
//!   decide agrees with the synchronous run — safety survives, liveness is
//!   what faults take away.
//!
//! Every cell is run twice from the same seed and must reproduce its report
//! bit-exactly. Env knobs: `CONGEST_FAULT_SEED` replays the whole matrix
//! under a different randomness universe, `CONGEST_FAULT_SCENARIOS`
//! restricts the fault classes (comma list), and `FAULT_MATRIX_SMOKE=1`
//! reduces the grid for CI (benign, loss, crash only).

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use symbreak_classic::mis::{luby, parallel_greedy, verify};
use symbreak_congest::async_sim::{
    alpha_synchronizer_overhead, AsyncConfig, AsyncReport, AsyncSimulator,
};
use symbreak_congest::{
    fault_seed_from_env, scenario_enabled, CrashFault, DelayLaw, EdgeProb, FaultPlan, KtLevel,
    Message, NodeAlgorithm, Recovery, RoundContext, SyncConfig,
};
use symbreak_core::alg2_coloring;
use symbreak_core::query_coloring::QueryPlan;
use symbreak_core::stage_flat::{self, FlatStageSpec};
use symbreak_graphs::{generators, Graph, IdAssignment, NodeId};
use symbreak_ktrand::SharedRandomness;

fn smoke() -> bool {
    std::env::var("FAULT_MATRIX_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn async_config() -> AsyncConfig {
    AsyncConfig {
        max_delay: 5,
        max_time: 20_000,
        message_bit_limit: 512,
    }
}

/// The fault classes of the matrix. Names double as
/// `CONGEST_FAULT_SCENARIOS` keys.
#[derive(Clone, Copy, PartialEq)]
enum Class {
    Benign,
    Oblivious,
    Adaptive,
    Loss,
    DupReorder,
    Crash,
    CrashRecovery,
    CrashRetain,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Benign => "benign",
            Class::Oblivious => "oblivious",
            Class::Adaptive => "adaptive",
            Class::Loss => "loss",
            Class::DupReorder => "dup-reorder",
            Class::Crash => "crash",
            Class::CrashRecovery => "crash-recovery",
            Class::CrashRetain => "crash-retain",
        }
    }

    /// Whether the lockstep safety argument guarantees completion under
    /// this class (faithful delivery of at least one copy of everything).
    fn lossless(self) -> bool {
        matches!(
            self,
            Class::Benign | Class::Oblivious | Class::Adaptive | Class::DupReorder
        )
    }

    /// Whether the class crashes a node but hands it back with retained
    /// state, so the lockstep re-join protocol must drive the run to
    /// completion (the cell that stalled before re-join existed).
    fn rejoins(self) -> bool {
        matches!(self, Class::CrashRetain)
    }

    fn plan(self, graph: &Graph, seed: u64) -> FaultPlan {
        let crash_node = max_degree_node(graph);
        match self {
            Class::Benign => FaultPlan::default(),
            Class::Oblivious => FaultPlan::default().with_delay(DelayLaw::Oblivious { seed }),
            Class::Adaptive => FaultPlan::default().with_delay(DelayLaw::Adaptive),
            Class::Loss => {
                // Global background loss plus one edge that never delivers —
                // the "one cut link" adversary on a real edge of the graph.
                let (_, u, v) = graph.edges().next().expect("matrix graphs have edges");
                FaultPlan::default().with_drop(EdgeProb::uniform(0.1).with_edge(u, v, 1.0))
            }
            Class::DupReorder => FaultPlan::default()
                .with_duplicate(EdgeProb::uniform(0.3))
                .with_reorder(0.3),
            Class::Crash => FaultPlan::default().with_crash(CrashFault {
                node: crash_node,
                at: 2,
                recovery: None,
            }),
            Class::CrashRecovery => FaultPlan::default().with_crash(CrashFault {
                node: crash_node,
                at: 2,
                recovery: Some((30, Recovery::Reset)),
            }),
            // Recovery is scheduled deep into quiescence (the executor jumps
            // idle time, so this costs nothing): the revived node wakes on an
            // empty inbox, broadcasts REJOIN, and neighbours replay from
            // their bounded buffers.
            Class::CrashRetain => FaultPlan::default().with_crash(CrashFault {
                node: crash_node,
                at: 2,
                recovery: Some((1_000, Recovery::Retain)),
            }),
        }
    }
}

fn max_degree_node(graph: &Graph) -> NodeId {
    graph
        .nodes()
        .max_by_key(|&v| graph.degree(v))
        .expect("non-empty graph")
}

fn coloring_is_proper(graph: &Graph, colors: &[Option<u64>]) -> bool {
    graph.edges().all(
        |(_, u, v)| !matches!((colors[u.index()], colors[v.index()]), (Some(a), Some(b)) if a == b),
    )
}

fn independent_decided(graph: &Graph, outputs: &[Option<u64>]) -> bool {
    graph
        .edges()
        .all(|(_, u, v)| !(outputs[u.index()] == Some(1) && outputs[v.index()] == Some(1)))
}

/// Every node that decided in the faulty run agrees with the synchronous
/// run — the prefix-safety property of the lockstep wrapper.
fn agrees_where_decided(actual: &[Option<u64>], sync: &[Option<u64>]) -> bool {
    actual.iter().zip(sync).all(|(a, s)| a.is_none() || a == s)
}

struct CellOutcome {
    algorithm: &'static str,
    class: &'static str,
    completed: bool,
    time: u64,
    messages: u64,
    decided: usize,
    report: AsyncReport,
}

/// Runs one `(algorithm, class)` cell: the closure maps a fault plan and a
/// run seed to `(synchronous ground-truth outputs, asynchronous report)`.
/// Asserts seed-reproducibility (two runs, bit-identical reports) and the
/// class outcome contract for lockstep algorithms, then returns the row.
fn run_cell<F>(
    algorithm: &'static str,
    lockstep: bool,
    graph: &Graph,
    class: Class,
    seed: u64,
    mut run: F,
) -> CellOutcome
where
    F: FnMut(&FaultPlan, u64) -> (Vec<Option<u64>>, AsyncReport),
{
    let plan = class.plan(graph, seed ^ 0xad5e);
    let (sync_outputs, report) = run(&plan, seed);
    let (_, replay) = run(&plan, seed);
    assert_eq!(
        report,
        replay,
        "{algorithm}/{}: same seed and plan must reproduce the report bit-exactly",
        class.name()
    );

    if lockstep {
        if class.lossless() || class.rejoins() {
            assert!(
                report.completed,
                "{algorithm}/{}: lossless/re-joining schedules must terminate",
                class.name()
            );
            assert_eq!(
                report.outputs,
                sync_outputs,
                "{algorithm}/{}: lossless lockstep must replay the synchronous outputs",
                class.name()
            );
            if class.rejoins() {
                assert!(
                    report.faults.rejoin_pulses > 0,
                    "{algorithm}/{}: a retained crash must trigger REJOIN pulses",
                    class.name()
                );
                assert!(
                    report.faults.replayed > 0,
                    "{algorithm}/{}: neighbours must replay retained rounds",
                    class.name()
                );
            }
        } else {
            assert!(
                !report.completed,
                "{algorithm}/{}: lossy/crashy lockstep must stall, not fabricate outputs",
                class.name()
            );
            assert_eq!(report.time, async_config().max_time);
            assert!(
                agrees_where_decided(&report.outputs, &sync_outputs),
                "{algorithm}/{}: decided nodes must agree with the synchronous run",
                class.name()
            );
        }
    }
    match class {
        Class::Loss => assert!(report.faults.dropped > 0, "{algorithm}: loss must drop"),
        Class::DupReorder => assert!(report.faults.duplicated > 0),
        Class::Crash => assert_eq!(report.faults.crashes, 1),
        Class::CrashRecovery | Class::CrashRetain => {
            assert_eq!(report.faults.crashes, 1);
            assert_eq!(report.faults.recoveries, 1);
        }
        _ => assert_eq!(report.faults.dropped + report.faults.duplicated, 0),
    }

    CellOutcome {
        algorithm,
        class: class.name(),
        completed: report.completed,
        time: report.time,
        messages: report.messages,
        decided: report.outputs.iter().filter(|o| o.is_some()).count(),
        report,
    }
}

/// Matrix flooding control: forwards the token on first receipt; output 1
/// once the token arrived. Runs raw on the asynchronous executor (no
/// lockstep), so it measures which faults a phase-free gossip algorithm
/// absorbs without any synchronizer.
struct Flood {
    have: bool,
}

impl NodeAlgorithm for Flood {
    fn on_round(&mut self, ctx: &mut RoundContext<'_>, inbox: &[Message]) {
        let start = ctx.node() == NodeId(0) && !self.have && ctx.round() == 0;
        if (start || !inbox.is_empty()) && !self.have {
            self.have = true;
            ctx.broadcast(&Message::tagged(1));
        }
    }
    fn is_done(&self) -> bool {
        true
    }
    fn output(&self) -> Option<u64> {
        Some(u64::from(self.have))
    }
}

#[test]
fn scenario_matrix() {
    let base_seed = fault_seed_from_env(0xC0FF_EE42);
    let all_classes = [
        Class::Benign,
        Class::Oblivious,
        Class::Adaptive,
        Class::Loss,
        Class::DupReorder,
        Class::Crash,
        Class::CrashRecovery,
        Class::CrashRetain,
    ];
    let classes: Vec<Class> = all_classes
        .into_iter()
        .filter(|c| !smoke() || matches!(c, Class::Benign | Class::Loss | Class::Crash))
        .filter(|c| scenario_enabled(c.name()))
        .collect();
    let mut rows: Vec<CellOutcome> = Vec::new();

    // --- flood: raw async control on a random connected graph ------------
    {
        let graph = generators::connected_gnp(24, 0.15, &mut StdRng::seed_from_u64(11));
        let ids = IdAssignment::identity(24);
        let sim = AsyncSimulator::new(&graph, &ids, KtLevel::KT1);
        for (ci, &class) in classes.iter().enumerate() {
            let seed = base_seed ^ (ci as u64) << 8;
            let row = run_cell("flood", false, &graph, class, seed, |plan, seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                let report =
                    sim.run_with_faults(async_config(), plan, &mut rng, |_| Flood { have: false });
                (vec![Some(1); 24], report)
            });
            // A phase-free flood absorbs any fault that still delivers
            // *some* copy of everything; with faithful channels it covers
            // the whole graph.
            if class.lossless() {
                assert!(row.report.completed);
                assert!(row.report.outputs.iter().all(|o| *o == Some(1)));
            } else {
                // The origin always has the token; beyond that, coverage is
                // whatever the recorded (deterministic) outcome says.
                assert_eq!(row.report.outputs[0], Some(1));
            }
            rows.push(row);
        }
    }

    // --- Luby's MIS (lockstep) on a small-world graph ---------------------
    {
        let graph = generators::small_world(24, 4, 0.2, &mut StdRng::seed_from_u64(7));
        let ids = IdAssignment::identity(24);
        let m = graph.num_edges() as u64;
        for (ci, &class) in classes.iter().enumerate() {
            let seed = base_seed ^ 0x1_0000 ^ (ci as u64) << 8;
            let row = run_cell("luby", true, &graph, class, seed, |plan, seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                let (sync_report, report) = luby::run_async(
                    &graph,
                    &ids,
                    0xD1CE ^ seed,
                    SyncConfig::default(),
                    async_config(),
                    plan,
                    &mut rng,
                );
                if class == Class::Benign {
                    // Theorem A.5: synchronizer overhead within 2(T + 1)m'.
                    let overhead = report.messages - sync_report.messages;
                    assert_eq!(overhead, (sync_report.rounds - 1) * 2 * m);
                    assert!(overhead <= alpha_synchronizer_overhead(sync_report.rounds, m));
                }
                (sync_report.outputs, report)
            });
            if class.lossless() || class.rejoins() {
                let mis: Vec<bool> = row.report.outputs.iter().map(|o| *o == Some(1)).collect();
                assert!(
                    verify::is_mis(&graph, &mis),
                    "luby/{}: not an MIS",
                    row.class
                );
            } else {
                assert!(independent_decided(&graph, &row.report.outputs));
            }
            rows.push(row);
        }
    }

    // --- Luby's MIS (lockstep) on a bounded-arboricity sparse graph -------
    // The paper's upper bounds are parameterised by sparsity; this column
    // checks that the outcome contract is graph-family independent by
    // rerunning the lockstep MIS on an arboricity-≤3 (hence 3-degenerate)
    // graph, where replay buffers stay small because degrees do.
    {
        let graph = generators::bounded_arboricity(24, 3, &mut StdRng::seed_from_u64(17));
        let ids = IdAssignment::identity(24);
        for (ci, &class) in classes.iter().enumerate() {
            let seed = base_seed ^ 0x5_0000 ^ (ci as u64) << 8;
            let row = run_cell("luby-sparse", true, &graph, class, seed, |plan, seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                let (sync_report, report) = luby::run_async(
                    &graph,
                    &ids,
                    0x5AB0 ^ seed,
                    SyncConfig::default(),
                    async_config(),
                    plan,
                    &mut rng,
                );
                (sync_report.outputs, report)
            });
            if class.lossless() || class.rejoins() {
                let mis: Vec<bool> = row.report.outputs.iter().map(|o| *o == Some(1)).collect();
                assert!(
                    verify::is_mis(&graph, &mis),
                    "luby-sparse/{}: not an MIS",
                    row.class
                );
            } else {
                assert!(independent_decided(&graph, &row.report.outputs));
            }
            rows.push(row);
        }
    }

    // --- parallel greedy MIS (lockstep) on a community graph --------------
    {
        let graph = generators::stochastic_block(24, 3, 0.5, 0.05, &mut StdRng::seed_from_u64(9));
        let ids = IdAssignment::identity(24);
        let ranks: Vec<u64> = (0..24u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        for (ci, &class) in classes.iter().enumerate() {
            let seed = base_seed ^ 0x2_0000 ^ (ci as u64) << 8;
            let row = run_cell("greedy-mis", true, &graph, class, seed, |plan, seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                let (sync_report, report) = parallel_greedy::run_async(
                    &graph,
                    &ids,
                    &ranks,
                    SyncConfig::default(),
                    async_config(),
                    plan,
                    &mut rng,
                );
                (sync_report.outputs, report)
            });
            if class.lossless() || class.rejoins() {
                let mis: Vec<bool> = row.report.outputs.iter().map(|o| *o == Some(1)).collect();
                assert!(verify::is_mis(&graph, &mis));
            } else {
                assert!(independent_decided(&graph, &row.report.outputs));
            }
            rows.push(row);
        }
    }

    // --- Algorithm 1 query-coloring stage (lockstep) ----------------------
    {
        let graph = generators::connected_gnp(24, 0.2, &mut StdRng::seed_from_u64(13));
        let ids = IdAssignment::identity(24);
        let uncolored = vec![None; 24];
        // Everyone participates with palette {0, …, 2Δ + 1}, active towards
        // all of its neighbours.
        let spec = FlatStageSpec::for_final_stage(
            &graph,
            &uncolored,
            2 * graph.max_degree() as u64 + 2,
            Arc::new(QueryPlan::new(&graph, &ids, Vec::new())),
            200,
        );
        for (ci, &class) in classes.iter().enumerate() {
            let seed = base_seed ^ 0x3_0000 ^ (ci as u64) << 8;
            let row = run_cell("alg1-stage", true, &graph, class, seed, |plan, seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                let (colors, _, report) = stage_flat::run_stage_flat_async(
                    &graph,
                    &ids,
                    &spec,
                    0xA1C0 ^ seed,
                    SyncConfig::default(),
                    async_config(),
                    plan,
                    &mut rng,
                );
                (colors, report)
            });
            assert!(
                coloring_is_proper(&graph, &row.report.outputs),
                "alg1-stage/{}: conflicting colours",
                row.class
            );
            rows.push(row);
        }
    }

    // --- Algorithm 2 colour-trial phases (lockstep) -----------------------
    {
        let graph = generators::small_world(24, 3, 0.15, &mut StdRng::seed_from_u64(21));
        let ids = IdAssignment::identity(24);
        let palette_size = graph.max_degree() as u64 * 3 / 2 + 1;
        for (ci, &class) in classes.iter().enumerate() {
            let seed = base_seed ^ 0x4_0000 ^ (ci as u64) << 8;
            let row = run_cell("alg2-phases", true, &graph, class, seed, |plan, seed| {
                let shared = SharedRandomness::from_seed(0x5EED ^ seed, 1 << 14);
                let mut rng = StdRng::seed_from_u64(seed);
                let (colors, _, report) = alg2_coloring::run_phases_async(
                    &graph,
                    &ids,
                    &shared,
                    palette_size,
                    64,
                    async_config(),
                    plan,
                    &mut rng,
                );
                (colors, report)
            });
            assert!(
                coloring_is_proper(&graph, &row.report.outputs),
                "alg2-phases/{}: conflicting colours",
                row.class
            );
            rows.push(row);
        }
    }

    // Outcome table (visible with `--nocapture`); the assertions above are
    // the contract, this is the record.
    println!("algorithm    | class          | done | time   | messages | decided | drop/dup/crash");
    for r in &rows {
        println!(
            "{:<12} | {:<14} | {:<4} | {:<6} | {:<8} | {:>2}/{:<4} | {}/{}/{}",
            r.algorithm,
            r.class,
            r.completed,
            r.time,
            r.messages,
            r.decided,
            r.report.outputs.len(),
            r.report.faults.dropped,
            r.report.faults.duplicated,
            r.report.faults.crashes,
        );
    }
    let expected = 6 * classes.len();
    assert_eq!(rows.len(), expected, "matrix must cover every cell");
}
