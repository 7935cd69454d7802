//! SIM-ENGINE: throughput of the arena-based round engine vs. the naive
//! nested-`Vec` reference loop.
//!
//! Three simulator-bound workloads (algorithm work is intentionally trivial
//! so the measurement isolates the engine):
//!
//! * **flood** — a token spreads from node 0; every node broadcasts once.
//!   Message traffic is `2m` spread over ~diameter rounds.
//! * **announce** — every node broadcasts its ID in round 0. All `2m`
//!   messages land in a single round, stressing peak arena throughput.
//! * **dense_rounds** — every node broadcasts every round for
//!   [`DENSE_ROUNDS`] rounds: sustained all-to-all traffic, the shape that
//!   historically lost to the naive loop (see the receiver-major delivery
//!   path in `congest::engine`). The harness *asserts* the engine is at
//!   least as fast as the naive loop on these rows.
//!
//! Every timing is the median of [`SAMPLES`] runs, and every gated
//! comparison interleaves its two sides run by run, so slow clock drift
//! and one-off stalls on a shared machine move neither side's median.
//!
//! Graph families: cycle (long thin rounds), clique (one hot round),
//! near-regular random graphs up to n = 10⁵. Each pair is measured for both
//! engines — single-threaded, plus a multi-threaded engine pass when the
//! host has more than one CPU (asserting ≥ 2× on the flood@random_d8 row
//! when ≥ 4 cores are present). The speedups are printed and written to
//! `BENCH_sim_engine.json` (one JSON object per line, a `threads` field per
//! row; the file is replaced atomically once every gate has passed, see
//! [`symbreak_bench::artifact`]).
//!
//! Two **checkpoint rows** run the flood with an engine checkpoint every 8
//! rounds: `flood_ckpt8` on the n = 10⁵ near-regular random graph gates
//! the checkpointed loop at ≥ 0.8× of the plain engine (report asserted
//! bit-identical), and `flood_ckpt8_cycle` reports — without gating — the
//! adversarial ~n/2-round cycle flood, where thousands of boundaries land
//! on near-zero per-round work. A **fault-seam row** (`async_fault0`)
//! gates the identity-plan fault path at ≥ 0.9× of the plain asynchronous
//! executor. An **audit row** (`flood_audit0`) gates the audit-off engine
//! at ≥ 0.95× of the direct observer path — an unaudited run must not pay
//! for the audit hooks — and reports the collect-mode audit-on cost with
//! the report asserted bit-identical and violation-free.
//!
//! Set `SIM_ENGINE_SMOKE=1` to run a reduced-n regression smoke (used by
//! CI): the same workloads and asserts at a fraction of the size, with no
//! JSON artifact.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use symbreak_bench::artifact::BenchArtifact;
use symbreak_bench::workloads::median;
use symbreak_congest::async_sim::{AsyncConfig, AsyncSimulator};
use symbreak_congest::reference::NaiveSyncSimulator;
use symbreak_congest::{
    AuditConfig, CheckpointChain, CheckpointConfig, ExecutionReport, FaultPlan, KtLevel, Message,
    NodeAlgorithm, NodeInit, NoopObserver, PersistState, RoundContext, SyncConfig, SyncSimulator,
};
use symbreak_graphs::{generators, Graph, IdAssignment, NodeId};

/// Rounds of all-to-all traffic in the `dense_rounds` workload.
const DENSE_ROUNDS: u32 = 8;

/// Timed runs per side of every measurement; each reported time is their
/// median.
const SAMPLES: usize = 7;

/// Token flood from node 0: broadcast once on first contact.
///
/// The automaton is purely *reactive* — it permanently reports done and
/// relies on the `NodeAlgorithm::is_done` contract (a done node is invoked
/// whenever messages arrive). This is the shape event-driven flooding takes
/// on the arena engine: nodes the token has not reached yet cost nothing.
struct Flood {
    have: bool,
}

impl Flood {
    fn new() -> Self {
        Flood { have: false }
    }
}

impl NodeAlgorithm for Flood {
    fn on_round(&mut self, ctx: &mut RoundContext<'_>, inbox: &[Message]) {
        let newly =
            (ctx.round() == 0 && ctx.node() == NodeId(0)) || (!self.have && !inbox.is_empty());
        if newly {
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

impl PersistState for Flood {
    fn encode_state(&self, out: &mut Vec<u64>) {
        out.push(u64::from(self.have));
    }
    fn decode_state(&mut self, words: &[u64]) -> bool {
        let &[have] = words else { return false };
        if have > 1 {
            return false;
        }
        self.have = have == 1;
        true
    }
}

/// Every node announces its own ID to all neighbours in round 0.
struct Announce {
    id: u64,
    done: bool,
}

impl NodeAlgorithm for Announce {
    fn on_round(&mut self, ctx: &mut RoundContext<'_>, _inbox: &[Message]) {
        if ctx.round() == 0 {
            ctx.broadcast(&Message::tagged(0).with_id(self.id));
        }
        self.done = true;
    }
    fn is_done(&self) -> bool {
        self.done
    }
}

/// Every node broadcasts every round until its budget runs out: sustained
/// all-to-all rounds at full density.
struct DenseChatter {
    left: u32,
}

impl NodeAlgorithm for DenseChatter {
    fn on_round(&mut self, ctx: &mut RoundContext<'_>, _inbox: &[Message]) {
        if self.left > 0 {
            self.left -= 1;
            ctx.broadcast(&Message::tagged(3).with_value(self.left as u64));
        }
    }
    fn is_done(&self) -> bool {
        self.left == 0
    }
}

#[derive(Clone, Copy)]
enum Workload {
    Flood,
    Announce,
    DenseRounds,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Flood => "flood",
            Workload::Announce => "announce",
            Workload::DenseRounds => "dense_rounds",
        }
    }
}

struct Case {
    graph_name: &'static str,
    workload: Workload,
    graph: Graph,
    ids: IdAssignment,
    /// Timing iterations for the naive engine. The event-driven arena
    /// engine only touches the flood frontier, but the naive loop sweeps
    /// all n nodes every one of the ~n/2 rounds of a 100k-cycle flood —
    /// tens of seconds — so the huge high-diameter case, which no gate
    /// reads, gets one naive iteration instead of [`SAMPLES`].
    naive_iters: usize,
}

/// Whether this run is the reduced-size CI smoke.
fn smoke() -> bool {
    std::env::var("SIM_ENGINE_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn cases() -> Vec<Case> {
    let shrink = if smoke() { 16 } else { 1 };
    let mut out = Vec::new();
    let families: Vec<(&'static str, Graph)> = vec![
        ("cycle_4096", generators::cycle(4096 / shrink)),
        ("cycle_100000", generators::cycle(100_000 / shrink)),
        ("clique_512", generators::clique(512 / (shrink.min(4)))),
        (
            "random_d8_100000",
            generators::random_near_regular(100_000 / shrink, 8, &mut StdRng::seed_from_u64(42)),
        ),
    ];
    for (graph_name, graph) in families {
        let n = graph.num_nodes();
        for workload in [Workload::Flood, Workload::Announce, Workload::DenseRounds] {
            // `dense_rounds` is measured on the high-m families, where an
            // all-to-all round actually carries ~m messages. On cycles
            // (m = n) sustained broadcast is 2 messages per node and round —
            // the naive loop's best case, already covered by the announce
            // rows; the engine's event-driven machinery costs a few percent
            // there and pays for itself the moment rounds are sparse.
            if matches!(workload, Workload::DenseRounds) && graph_name.starts_with("cycle") {
                continue;
            }
            let slow_naive = matches!(workload, Workload::Flood) && graph_name == "cycle_100000";
            out.push(Case {
                graph_name,
                workload,
                graph: graph.clone(),
                ids: IdAssignment::identity(n),
                naive_iters: if slow_naive { 1 } else { SAMPLES },
            });
        }
    }
    out
}

fn run_case(case: &Case, naive: bool, threads: usize) -> ExecutionReport {
    let sim = SyncSimulator::new(&case.graph, &case.ids, KtLevel::KT1);
    let config = SyncConfig::default().with_threads(threads);
    match (case.workload, naive) {
        (Workload::Flood, false) => sim.run(config, |_| Flood::new()),
        (Workload::Flood, true) => NaiveSyncSimulator::new(sim).run(config, |_| Flood::new()),
        (Workload::Announce, false) => sim.run(config, |init: NodeInit<'_>| Announce {
            id: init.knowledge.own_id(),
            done: false,
        }),
        (Workload::Announce, true) => {
            NaiveSyncSimulator::new(sim).run(config, |init: NodeInit<'_>| Announce {
                id: init.knowledge.own_id(),
                done: false,
            })
        }
        (Workload::DenseRounds, false) => sim.run(config, |_| DenseChatter { left: DENSE_ROUNDS }),
        (Workload::DenseRounds, true) => {
            NaiveSyncSimulator::new(sim).run(config, |_| DenseChatter { left: DENSE_ROUNDS })
        }
    }
}

/// Runs `f` once and returns its wall-clock nanoseconds with its result.
fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_nanos() as f64, out)
}

/// Wall-clock nanoseconds of one run of a case.
fn time_case(case: &Case, naive: bool, threads: usize) -> f64 {
    let (ns, report) = timed(|| run_case(case, naive, threads));
    assert!(report.completed, "workload must terminate");
    ns
}

/// Median engine and naive times over [`SAMPLES`] engine runs and
/// `case.naive_iters` naive runs, *interleaved* so slow clock drift
/// (thermal throttling, noisy-neighbour VMs) hits both loops equally
/// instead of skewing whichever happened to run second.
fn measure_pair(case: &Case) -> (f64, f64) {
    let (mut engine, mut naive) = (Vec::new(), Vec::new());
    for k in 0..SAMPLES.max(case.naive_iters) {
        if k < SAMPLES {
            engine.push(time_case(case, false, 1));
        }
        if k < case.naive_iters {
            naive.push(time_case(case, true, 1));
        }
    }
    (median(engine), median(naive))
}

struct Row<'c> {
    case: &'c Case,
    threads: usize,
    messages: u64,
    engine_ns: f64,
    naive_ns: f64,
}

impl Row<'_> {
    fn print(&self) {
        println!(
            "{:<22} {:<13} {:>3} {:>12} {:>12.2}ms {:>12.2}ms {:>8.2}x",
            self.case.graph_name,
            self.case.workload.name(),
            self.threads,
            self.messages,
            self.engine_ns / 1e6,
            self.naive_ns / 1e6,
            self.naive_ns / self.engine_ns
        );
    }

    fn json(&self) -> String {
        format!(
            "{{\"bench\":\"sim_engine\",\"graph\":\"{}\",\"workload\":\"{}\",\"n\":{},\"m\":{},\"threads\":{},\"messages\":{},\"engine_ns\":{:.0},\"naive_ns\":{:.0},\"speedup\":{:.3}}}",
            self.case.graph_name,
            self.case.workload.name(),
            self.case.graph.num_nodes(),
            self.case.graph.num_edges(),
            self.threads,
            self.messages,
            self.engine_ns,
            self.naive_ns,
            self.naive_ns / self.engine_ns
        )
    }
}

fn main() {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mt_threads = cores.min(8);
    // The artifact sits at the workspace root with the other BENCH_*.json
    // files and is replaced wholesale once every gate has passed (smoke runs
    // write no artifact).
    let mut json = BenchArtifact::open("BENCH_sim_engine.json", !smoke());
    println!(
        "\n=== sim_engine: arena engine vs naive nested-Vec loop ({} core(s){}) ===",
        cores,
        if smoke() { ", smoke" } else { "" }
    );
    println!(
        "{:<22} {:<13} {:>3} {:>12} {:>14} {:>14} {:>9}",
        "graph", "workload", "thr", "messages", "engine", "naive", "speedup"
    );
    let cases = cases();
    let mut mt_flood_ratio: Option<f64> = None;
    for case in &cases {
        let messages = run_case(case, false, 1).messages;
        let (engine_ns, naive_ns) = measure_pair(case);
        let row = Row {
            case,
            threads: 1,
            messages,
            engine_ns,
            naive_ns,
        };
        row.print();
        json.row(row.json());
        if matches!(case.workload, Workload::DenseRounds) {
            assert!(
                engine_ns <= naive_ns,
                "dense-round regression on {}: engine {:.2}ms > naive {:.2}ms",
                case.graph_name,
                engine_ns / 1e6,
                naive_ns / 1e6
            );
        }
        if mt_threads > 1 {
            let mt_ns = median(
                (0..SAMPLES)
                    .map(|_| time_case(case, false, mt_threads))
                    .collect(),
            );
            let mt_row = Row {
                case,
                threads: mt_threads,
                messages,
                engine_ns: mt_ns,
                naive_ns,
            };
            mt_row.print();
            json.row(mt_row.json());
            if matches!(case.workload, Workload::Flood) && case.graph_name == "random_d8_100000" {
                mt_flood_ratio = Some(engine_ns / mt_ns);
            }
        }
    }
    fault_seam_row(&mut json);
    checkpoint_row(&mut json);
    audit_row(&mut json, mt_threads);
    if cores >= 4 {
        let ratio = mt_flood_ratio.expect("flood@random_d8_100000 must have run multi-threaded");
        // Only the full-size run is a fair test of parallel stepping: at
        // smoke scale the per-round fork-join overhead dominates the tiny
        // shards, and shared CI runners add noisy-neighbour variance.
        if smoke() {
            println!(
                "smoke: {mt_threads}-thread flood@random_d8 ratio {ratio:.2}x \
                 (informational only at reduced n)"
            );
        } else {
            assert!(
                ratio >= 2.0,
                "parallel stepping too slow: {mt_threads}-thread flood@random_d8_100000 \
                 only {ratio:.2}x over single-threaded on {cores} cores"
            );
        }
    }
    json.commit().expect("write BENCH_sim_engine.json");
    println!();
}

/// The fault-seam row: the asynchronous flood at n = 10⁵ through `run`
/// (the historical entry point) and through `run_with_faults` with an
/// identity [`FaultPlan`]. The identity plan dispatches to the same
/// `FAULTS = false` monomorphization, so enabling the fault seam must cost
/// nothing — gated at ≥ 0.9× of the plain path on full-size runs
/// (informational at smoke scale). The two sides' runs are interleaved,
/// like the engine-vs-naive pairs, and the ratio is of their medians.
fn fault_seam_row(json: &mut BenchArtifact) {
    let shrink = if smoke() { 16 } else { 1 };
    let n = 100_000 / shrink;
    let graph = generators::random_near_regular(n, 8, &mut StdRng::seed_from_u64(42));
    let ids = IdAssignment::identity(n);
    let sim = AsyncSimulator::new(&graph, &ids, KtLevel::KT1);
    let config = AsyncConfig::default();
    let plan = FaultPlan::default();
    assert!(plan.is_identity());

    let (mut plain_ns, mut seam_ns) = (Vec::new(), Vec::new());
    let mut messages = 0;
    for k in 0..SAMPLES as u64 {
        let (ns, plain) =
            timed(|| sim.run(config, &mut StdRng::seed_from_u64(k), |_| Flood::new()));
        plain_ns.push(ns);
        let (ns, seam) = timed(|| {
            sim.run_with_faults(config, &plan, &mut StdRng::seed_from_u64(k), |_| {
                Flood::new()
            })
        });
        seam_ns.push(ns);
        assert!(plain.completed && seam.completed);
        assert_eq!(plain, seam, "identity plan must be bit-identical to run()");
        messages = plain.messages;
    }
    let (plain_ns, seam_ns) = (median(plain_ns), median(seam_ns));
    let ratio = plain_ns / seam_ns;
    println!(
        "{:<22} {:<13} {:>3} {:>12} {:>12.2}ms {:>12.2}ms {:>8.2}x",
        format!("random_d8_{n}"),
        "async_fault0",
        1,
        messages,
        seam_ns / 1e6,
        plain_ns / 1e6,
        ratio,
    );
    json.row(format_args!(
        "{{\"bench\":\"sim_engine\",\"graph\":\"random_d8_{n}\",\"workload\":\"async_fault0\",\
         \"n\":{n},\"m\":{},\"threads\":1,\"messages\":{messages},\
         \"seam_ns\":{seam_ns:.0},\"plain_ns\":{plain_ns:.0},\"ratio\":{ratio:.3}}}",
        graph.num_edges(),
    ));
    if smoke() {
        if ratio < 0.9 {
            println!(
                "smoke: fault seam at {ratio:.2}x of the plain async path \
                 (informational only at reduced n)"
            );
        }
    } else {
        assert!(
            ratio >= 0.9,
            "fault-seam regression: run_with_faults(identity) is {ratio:.2}x the plain \
             async path (seam {:.2}ms vs {:.2}ms)",
            seam_ns / 1e6,
            plain_ns / 1e6
        );
    }
}

/// The audit row (`flood_audit0`): the flood on the n = 10⁵ near-regular
/// random graph through the three faces of the audit seam, multi-threaded
/// so the round loop's claimed windows and send-log replay are what's
/// priced:
///
/// * **audit-off** — `run()` with `CONGEST_AUDIT` unset: the production
///   path, the round loop with no hooks (plus one env read per run);
/// * **direct** — `run_observed` with a [`NoopObserver`]: the same
///   hook-free loop entered without the audit-enable check. Gated:
///   audit-off must stay ≥ 0.95× of this at full size (informational at
///   smoke scale) — an unaudited run must not pay for the audit hooks.
///   Interleaved, like the engine-vs-naive pairs, and compared by medians,
///   so neither clock drift nor one stalled run can fail a ratio between
///   near-identical code paths;
/// * **audit-on** — `run_audited` in collect mode: the auditor as loop
///   hooks, workers logging every send for deterministic replay through
///   the bandwidth/adjacency/multiplicity/race checks. Reported, not
///   gated — per-message replay has a real price — with the report
///   asserted bit-identical to the plain run and zero violations. Timed in
///   a loop of its own after the gated pairs: the run right after an
///   audited one is slower whichever path it takes (by 2–9 ms of a 40–55 ms
///   flood on a 2-CPU VM), so sharing one loop would charge that to the
///   seam side that follows it.
fn audit_row(json: &mut BenchArtifact, mt_threads: usize) {
    let shrink = if smoke() { 16 } else { 1 };
    let n = 100_000 / shrink;
    let graph = generators::random_near_regular(n, 8, &mut StdRng::seed_from_u64(42));
    let ids = IdAssignment::identity(n);
    let sim = SyncSimulator::new(&graph, &ids, KtLevel::KT1);
    let config = SyncConfig::default().with_threads(mt_threads);
    let audit = AuditConfig::collect(42);

    let (mut off_ns, mut direct_ns, mut on_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut plain = None;
    for _ in 0..SAMPLES {
        let (ns, off) = timed(|| sim.run(config, |_| Flood::new()));
        off_ns.push(ns);
        let (ns, direct) = timed(|| sim.run_observed(config, |_| Flood::new(), &mut NoopObserver));
        direct_ns.push(ns);
        assert!(off.completed);
        assert_eq!(off, direct);
        plain = Some(off);
    }
    let plain = plain.expect("at least one sample");
    for _ in 0..SAMPLES {
        let (ns, (audited, violations)) =
            timed(|| sim.run_audited(config, &audit, |_| Flood::new()));
        on_ns.push(ns);
        assert_eq!(plain, audited, "audited report must be bit-identical");
        assert!(violations.is_empty(), "the flood is model-compliant");
    }
    let messages = plain.messages;
    let (off_ns, direct_ns, on_ns) = (median(off_ns), median(direct_ns), median(on_ns));
    let seam_ratio = direct_ns / off_ns;
    let audit_on_ratio = off_ns / on_ns;
    println!(
        "{:<22} {:<13} {:>3} {:>12} {:>12.2}ms {:>12.2}ms {:>8.2}x",
        format!("random_d8_{n}"),
        "flood_audit0",
        mt_threads,
        messages,
        off_ns / 1e6,
        on_ns / 1e6,
        audit_on_ratio,
    );
    json.row(format_args!(
        "{{\"bench\":\"sim_engine\",\"graph\":\"random_d8_{n}\",\"workload\":\"flood_audit0\",\
         \"n\":{n},\"m\":{},\"threads\":{mt_threads},\"messages\":{messages},\
         \"off_ns\":{off_ns:.0},\"direct_ns\":{direct_ns:.0},\"on_ns\":{on_ns:.0},\
         \"seam_ratio\":{seam_ratio:.3},\"audit_on_ratio\":{audit_on_ratio:.3}}}",
        graph.num_edges(),
    ));
    if smoke() {
        if seam_ratio < 0.95 {
            println!(
                "smoke: audit-off engine at {seam_ratio:.2}x of the direct observer path \
                 (informational only at reduced n)"
            );
        }
    } else {
        assert!(
            seam_ratio >= 0.95,
            "audit-seam regression: the audit-off run() path is {seam_ratio:.2}x the direct \
             observer path (off {:.2}ms vs {:.2}ms) — unaudited runs must not pay for the \
             audit hooks",
            off_ns / 1e6,
            direct_ns / 1e6
        );
    }
}

/// The checkpoint rows: [`SyncSimulator::run_checkpointed`] with a
/// boundary every 8 rounds against the plain engine, interleaved, compared
/// by their medians, with the reports asserted bit-identical.
///
/// * **`flood_ckpt8`** (gated) — the flood on the near-regular random
///   graph at n = 10⁵, the same row the engine-speedup gate measures. The
///   ~9-round run crosses one boundary, so the row prices a full-state
///   dump plus the in-flight capture against real per-round work: ≥ 0.8×
///   of the uncheckpointed engine at full size (informational at smoke
///   scale), with a non-vacuity check that the log really holds a
///   checkpoint record.
/// * **`flood_ckpt8_cycle`** (informational) — the ~n/2-round cycle
///   flood: thousands of boundaries over near-zero per-round work, the
///   adversarial stress for the boundary path itself. A plain cycle round
///   is a few skip-list probes, so no boundary encoder can stay within
///   0.8× here; the row is reported to track the trend, not gated.
fn checkpoint_row(json: &mut BenchArtifact) {
    let shrink = if smoke() { 16 } else { 1 };
    let n = 100_000 / shrink;
    let config = SyncConfig::default().with_threads(1);
    let log = std::env::temp_dir().join(format!("sbck-bench-{}.sbck", std::process::id()));
    let ckpt = CheckpointConfig::new(&log).with_every(8);

    let mut measure = |graph_name: String, workload: &str, graph: &Graph| {
        let ids = IdAssignment::identity(graph.num_nodes());
        let sim = SyncSimulator::new(graph, &ids, KtLevel::KT1);
        let (mut plain_ns, mut ckpt_ns) = (Vec::new(), Vec::new());
        let mut messages = 0;
        for _ in 0..SAMPLES {
            let (ns, plain) = timed(|| sim.run(config, |_| Flood::new()));
            plain_ns.push(ns);
            let (ns, checkpointed) = timed(|| {
                sim.run_checkpointed(config, &ckpt, |_| Flood::new(), &mut NoopObserver)
                    .expect("checkpointed flood")
            });
            ckpt_ns.push(ns);
            assert!(plain.completed && checkpointed.completed);
            assert_eq!(
                plain, checkpointed,
                "checkpointing must not change the report"
            );
            messages = plain.messages;
        }
        let (plain_ns, ckpt_ns) = (median(plain_ns), median(ckpt_ns));
        let records = CheckpointChain::load(&log).map_or(0, |c| c.records().len());
        let log_bytes = std::fs::metadata(&log).map_or(0, |m| m.len());
        let _ = std::fs::remove_file(&log);
        let ratio = plain_ns / ckpt_ns;
        println!(
            "{:<22} {:<13} {:>3} {:>12} {:>12.2}ms {:>12.2}ms {:>8.2}x",
            graph_name,
            workload,
            1,
            messages,
            ckpt_ns / 1e6,
            plain_ns / 1e6,
            ratio,
        );
        json.row(format_args!(
            "{{\"bench\":\"sim_engine\",\"graph\":\"{graph_name}\",\"workload\":\"{workload}\",\
             \"n\":{},\"m\":{},\"threads\":1,\"messages\":{messages},\
             \"ckpt_ns\":{ckpt_ns:.0},\"plain_ns\":{plain_ns:.0},\"ratio\":{ratio:.3},\
             \"log_bytes\":{log_bytes}}}",
            graph.num_nodes(),
            graph.num_edges(),
        ));
        (ratio, records)
    };

    let graph = generators::random_near_regular(n, 8, &mut StdRng::seed_from_u64(42));
    let (ratio, records) = measure(format!("random_d8_{n}"), "flood_ckpt8", &graph);
    if smoke() {
        if ratio < 0.8 {
            println!(
                "smoke: checkpointing every 8 rounds at {ratio:.2}x of the plain engine \
                 (informational only at reduced n)"
            );
        }
    } else {
        assert!(
            records >= 1,
            "checkpoint gate is vacuous: the run never crossed a boundary"
        );
        assert!(
            ratio >= 0.8,
            "checkpoint overhead regression: every-8-rounds checkpointing is {ratio:.2}x \
             the plain engine on random_d8_{n}"
        );
    }

    let graph = generators::cycle(n);
    measure(format!("cycle_{n}"), "flood_ckpt8_cycle", &graph);
}
