//! Algorithm 2: (1+ε)Δ-coloring in KT-1 CONGEST with Õ(n/ε²) messages
//! (Theorem 3.8).
//!
//! Every phase `i`, an uncoloured node picks the candidate colour
//! `c = h_i(ID_v)` where `h_i` is a Θ(log n)-wise independent hash function
//! derived from the shared random bits. Because every neighbour's ID is
//! known (KT-1) and the hash functions are shared, the node can compute
//! *locally* which neighbours could possibly hold or propose `c` — namely
//! those `u` with `h_j(ID_u) = c` for some phase `j ≤ i` — and it checks the
//! colour with exactly those `O(log² n / ε)` neighbours (Lemma 3.7) instead
//! of all `deg(v)` of them. Ties within a phase are broken towards the
//! smaller ID.
//!
//! The simulator evaluates each phase hash once per `(phase, node)` per
//! run, not once per asking neighbour per later phase. A run-wide memo,
//! `PhaseCandidates`, caches every value `h_j(ID_u)` the first time some
//! automaton needs it: a node's own candidate, the Lemma 3.7 neighbour
//! check, and the responder's priority test. Every entry is a pure
//! function of the shared randomness and of `u`'s ID, which `u` and each
//! of its KT-1 neighbours know, so the memo only shares a local
//! computation that every one of them would repeat identically; messages,
//! rounds and outputs are those of per-node evaluation. Rows are allocated
//! per phase on first use, one 8-byte slot per node, so a run holds one
//! `n`-slot row per phase it reaches, 0.8 MB per phase at `n = 10⁵`: a
//! random 8-regular graph of that size needs 19–20 phases at ε = ½, about
//! 16 MB.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use symbreak_congest::async_sim::{AsyncConfig, AsyncReport, AsyncSimulator};
use symbreak_congest::{
    run_synchronized, CostAccount, ExecutionReport, FaultPlan, KtLevel, Message, NodeAlgorithm,
    NodeInit, RoundContext, SyncConfig, SyncSimulator,
};
use symbreak_graphs::{Graph, IdAssignment, NodeId};
use symbreak_ktrand::{tail, KWiseHash, SharedRandomness};

use crate::error::CoreError;
use crate::prologue::Prologue;
use crate::query_coloring::QueryPlan;

const TAG_QUERY: u16 = 0x60;
const TAG_RESPONSE: u16 = 0x61;

/// Configuration of Algorithm 2.
#[derive(Debug, Clone, Copy)]
pub struct Alg2Config {
    /// The slack ε > 0 of the (1+ε)Δ palette.
    pub epsilon: f64,
    /// Danner parameter δ used for the shared-randomness setup (the paper
    /// uses δ = 0, i.e. an Õ(n)-edge danner).
    pub delta: f64,
    /// Safety factor on the `O(log n / ε)` phase budget.
    pub phase_budget_factor: f64,
    /// Worker threads for the simulated phases (`0` = automatic).
    pub threads: usize,
}

impl Default for Alg2Config {
    fn default() -> Self {
        Alg2Config {
            epsilon: 0.5,
            delta: 0.0,
            phase_budget_factor: 12.0,
            threads: 0,
        }
    }
}

/// Outcome of Algorithm 2.
#[derive(Debug, Clone)]
pub struct Alg2Outcome {
    /// Per-node colours from `{0, …, palette_size − 1}`.
    pub colors: Vec<Option<u64>>,
    /// Message/round costs phase by phase.
    pub costs: CostAccount,
    /// The palette size `⌈(1+ε)Δ⌉` (at least `Δ + 1`).
    pub palette_size: u64,
    /// The global maximum degree Δ.
    pub max_degree: u64,
}

/// The run-wide memo of the phase hashes' values: slot `v` of row `j`
/// holds `h_j(ID_v) + 1` once some automaton has needed it, `0` before.
/// Rows are allocated on their phase's first use and slots filled one at a
/// time, so late phases with few uncoloured nodes stay cheap.
struct PhaseCandidates {
    hashes: Vec<KWiseHash>,
    rows: Vec<OnceLock<Box<[AtomicU64]>>>,
    n: usize,
}

impl PhaseCandidates {
    /// Derives the `max_phases` phase hashes of Algorithm 2 from `shared`
    /// (on a clone, so the caller's [`SharedRandomness::consumed_bits`]
    /// count is left untouched), with every row still unallocated.
    fn new(shared: &SharedRandomness, n: usize, palette_size: u64, max_phases: usize) -> Self {
        let independence = tail::log_n_independence(n);
        let scratch = shared.clone();
        PhaseCandidates {
            hashes: (0..max_phases)
                .map(|j| scratch.indexed_hash_fn("alg2.phase", j, independence, palette_size))
                .collect(),
            rows: (0..max_phases).map(|_| OnceLock::new()).collect(),
            n,
        }
    }

    /// `h_phase(id)`, the phase-`phase` candidate of node `v` whose ID is
    /// `id`. Racing threads may both evaluate an empty slot; they store the
    /// same pure value, so `Relaxed` suffices.
    fn candidate(&self, phase: usize, v: NodeId, id: u64) -> u64 {
        let row = self.rows[phase].get_or_init(|| (0..self.n).map(|_| AtomicU64::new(0)).collect());
        let slot = &row[v.index()];
        match slot.load(Ordering::Relaxed) {
            0 => {
                let c = self.hashes[phase].eval(id);
                slot.store(c + 1, Ordering::Relaxed);
                c
            }
            memo => memo - 1,
        }
    }
}

/// The phase automaton: the phase candidates (identical at every node —
/// they are pure functions of the shared randomness and the IDs) come from
/// one borrowed memo, and each node borrows its row of one flat
/// neighbour-ID arena.
struct FlatAlg2Node<'a> {
    node: NodeId,
    own_id: u64,
    color: Option<u64>,
    neighbor_ids: &'a [(NodeId, u64)],
    candidates: &'a PhaseCandidates,
    phase: usize,
    max_phases: usize,
    candidate: Option<u64>,
}

impl<'a> FlatAlg2Node<'a> {
    /// Node `init.node`'s automaton over the shared phase candidates and
    /// neighbour table.
    fn new(
        candidates: &'a PhaseCandidates,
        neighbor_table: &'a QueryPlan,
        init: NodeInit<'_>,
        max_phases: usize,
    ) -> Self {
        FlatAlg2Node {
            node: init.node,
            own_id: init.knowledge.own_id(),
            color: None,
            neighbor_ids: neighbor_table.neighbor_row(init.node),
            candidates,
            phase: 0,
            max_phases,
            candidate: None,
        }
    }

    fn respond(&self, ctx: &mut RoundContext<'_>, inbox: &[Message], phase: usize) {
        for msg in inbox {
            if msg.tag() != TAG_QUERY {
                continue;
            }
            let c = msg.values()[0];
            let sender_id = msg.ids()[0];
            let Some(sender) = ctx.knowledge().known_node_with_id(sender_id) else {
                continue;
            };
            // `phase < max_phases` whenever queries are in flight: a query
            // in round 3p+1 was sent by a node whose phase counter equals p
            // and passed the `phase < max_phases` send gate. The memo, not
            // `self.candidate`, is read, so the answer never depends on
            // whether this automaton ran the phase's first round (a
            // crash-reset automaton is rebuilt without a candidate).
            let proposes_c_with_priority = self.color.is_none()
                && self.candidates.candidate(phase, self.node, self.own_id) == c
                && self.own_id < sender_id;
            let taken = u64::from(self.color == Some(c) || proposes_c_with_priority);
            ctx.send(
                sender,
                Message::tagged(TAG_RESPONSE)
                    .with_value(c)
                    .with_value(taken),
            );
        }
    }
}

impl NodeAlgorithm for FlatAlg2Node<'_> {
    fn on_round(&mut self, ctx: &mut RoundContext<'_>, inbox: &[Message]) {
        let phase = (ctx.round() / 3) as usize;
        match ctx.round() % 3 {
            0 => {
                if self.color.is_none() && self.phase < self.max_phases {
                    let c = self.candidates.candidate(phase, self.node, self.own_id);
                    self.candidate = Some(c);
                    let query = Message::tagged(TAG_QUERY)
                        .with_value(c)
                        .with_id(self.own_id);
                    for &(u, uid) in self.neighbor_ids {
                        let could = (0..=phase).any(|j| self.candidates.candidate(j, u, uid) == c);
                        if could {
                            ctx.send(u, query);
                        }
                    }
                }
            }
            1 => {
                self.respond(ctx, inbox, phase);
            }
            _ => {
                if let Some(c) = self.candidate.take() {
                    let blocked = inbox.iter().any(|m| {
                        m.tag() == TAG_RESPONSE && m.values()[0] == c && m.values()[1] == 1
                    });
                    if !blocked {
                        self.color = Some(c);
                    }
                    self.phase += 1;
                }
            }
        }
    }

    fn is_done(&self) -> bool {
        self.color.is_some() || self.phase >= self.max_phases
    }

    fn output(&self) -> Option<u64> {
        self.color
    }
}

/// Runs the Algorithm 2 colouring phases given already-distributed shared
/// randomness and a known Δ. Exposed separately so ablations can reuse it.
pub fn run_phases(
    graph: &Graph,
    ids: &IdAssignment,
    shared: &SharedRandomness,
    palette_size: u64,
    max_phases: usize,
) -> (Vec<Option<u64>>, ExecutionReport) {
    let candidates = PhaseCandidates::new(shared, graph.num_nodes(), palette_size, max_phases);
    let neighbor_table = QueryPlan::new(graph, ids, Vec::new());
    run_phases_on(
        graph,
        ids,
        &candidates,
        &neighbor_table,
        max_phases,
        SyncConfig::default(),
    )
}

/// The synchronous phases over a given memo and neighbour table.
fn run_phases_on(
    graph: &Graph,
    ids: &IdAssignment,
    candidates: &PhaseCandidates,
    neighbor_table: &QueryPlan,
    max_phases: usize,
    config: SyncConfig,
) -> (Vec<Option<u64>>, ExecutionReport) {
    let sim = SyncSimulator::new(graph, ids, KtLevel::KT1);
    let mut report = sim.run(config, |init| {
        FlatAlg2Node::new(candidates, neighbor_table, init, max_phases)
    });
    assert!(report.completed, "Algorithm 2 phases did not quiesce");
    let colors = std::mem::take(&mut report.outputs);
    (colors, report)
}

/// Runs the Algorithm 2 colouring phases on the **asynchronous** executor
/// under a fault plan, via the α-synchronizer lockstep wrapper
/// ([`symbreak_congest::Synchronized`]).
///
/// The synchronous run ([`run_phases`]) executes first to fix the lockstep
/// round budget and as ground truth; it lends its phase-candidate memo and
/// neighbour table to the replay. The returned triple is `(synchronous
/// colours, synchronous report, asynchronous report)`. All per-node
/// randomness comes from `shared`, so the asynchronous replay consumes
/// identical hash schedules: on benign, delay-only and duplicate/reorder
/// fault schedules its outputs equal the synchronous colours, while loss or
/// crashes stall the run (`completed == false`) instead of emitting a
/// conflicting colouring.
#[allow(clippy::too_many_arguments)]
pub fn run_phases_async<R: Rng + ?Sized>(
    graph: &Graph,
    ids: &IdAssignment,
    shared: &SharedRandomness,
    palette_size: u64,
    max_phases: usize,
    async_config: AsyncConfig,
    fault_plan: &FaultPlan,
    rng: &mut R,
) -> (Vec<Option<u64>>, ExecutionReport, AsyncReport) {
    let candidates = PhaseCandidates::new(shared, graph.num_nodes(), palette_size, max_phases);
    let neighbor_table = QueryPlan::new(graph, ids, Vec::new());
    let (colors, sync_report) = run_phases_on(
        graph,
        ids,
        &candidates,
        &neighbor_table,
        max_phases,
        SyncConfig::default(),
    );
    let sim = AsyncSimulator::new(graph, ids, KtLevel::KT1);
    let report = run_synchronized(
        &sim,
        async_config,
        fault_plan,
        sync_report.rounds,
        rng,
        |init| FlatAlg2Node::new(&candidates, &neighbor_table, init, max_phases),
    );
    (colors, sync_report, report)
}

/// Runs Algorithm 2 once per seed. Output `k` is **bit-identical**
/// (colours, per-phase cost account) to [`run`] with
/// `StdRng::seed_from_u64(seeds[k])`.
///
/// Everything before the first coin is built **once** per call: the
/// danner, the leader and the broadcast tree (a pure function of
/// `(graph, ids, δ)`), the Δ convergecast and broadcast, whose reports are
/// charged to every seed's account, and the history-free neighbour table.
/// Each seed then draws and broadcasts its own seed words and runs its own
/// colour-trial phases on the plain engine, through the calls [`run`] makes.
///
/// # Errors
///
/// Same conditions as [`run`]; the first failing seed fails the whole call.
pub fn run_batch(
    graph: &Graph,
    ids: &IdAssignment,
    config: Alg2Config,
    seeds: &[u64],
) -> Result<Vec<Alg2Outcome>, CoreError> {
    check_epsilon(config)?;
    if seeds.is_empty() {
        return Ok(Vec::new());
    }
    if graph.num_nodes() == 0 {
        return Ok(seeds.iter().map(|_| empty_outcome()).collect());
    }
    let prologue = Prologue::new(graph, ids, config.delta)?;
    let neighbor_table = QueryPlan::new(graph, ids, Vec::new());
    seeds
        .iter()
        .map(|&seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            run_seed(graph, ids, config, &prologue, &neighbor_table, &mut rng)
        })
        .collect()
}

/// Runs Algorithm 2 end to end on a connected graph.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] if `ε ≤ 0`,
/// [`CoreError::Disconnected`] for disconnected inputs, and
/// [`CoreError::DidNotConverge`] if some node stays uncoloured after the
/// phase budget.
pub fn run<R: Rng + ?Sized>(
    graph: &Graph,
    ids: &IdAssignment,
    config: Alg2Config,
    rng: &mut R,
) -> Result<Alg2Outcome, CoreError> {
    check_epsilon(config)?;
    if graph.num_nodes() == 0 {
        return Ok(empty_outcome());
    }
    let prologue = Prologue::new(graph, ids, config.delta)?;
    let neighbor_table = QueryPlan::new(graph, ids, Vec::new());
    run_seed(graph, ids, config, &prologue, &neighbor_table, rng)
}

fn check_epsilon(config: Alg2Config) -> Result<(), CoreError> {
    if config.epsilon <= 0.0 || config.epsilon.is_nan() {
        return Err(CoreError::InvalidParameter {
            name: "epsilon",
            message: format!("epsilon = {} must be positive", config.epsilon),
        });
    }
    Ok(())
}

/// The outcome on the empty graph.
fn empty_outcome() -> Alg2Outcome {
    Alg2Outcome {
        colors: Vec::new(),
        costs: CostAccount::new(),
        palette_size: 1,
        max_degree: 0,
    }
}

/// The per-seed body of [`run`] and [`run_batch`]: the seed broadcast and
/// the colour-trial phases of one execution, on a non-empty connected graph.
/// `neighbor_table` is the history-free [`QueryPlan`], whose CSR rows are
/// exactly the per-node `(address, ID)` slices the automata need.
fn run_seed<R: Rng + ?Sized>(
    graph: &Graph,
    ids: &IdAssignment,
    config: Alg2Config,
    prologue: &Prologue,
    neighbor_table: &QueryPlan,
    rng: &mut R,
) -> Result<Alg2Outcome, CoreError> {
    let log_n = (graph.num_nodes().max(2) as f64).log2();

    // Shared randomness: (C/ε)·log³ n bits over an Õ(n)-edge danner; the
    // prologue has already learned Δ.
    let seed_bits = ((log_n.powi(3) / config.epsilon).ceil() as usize).max(64);
    let (shared, mut costs) = prologue.share(ids, seed_bits, rng);
    let max_degree = prologue.max_degree;

    let palette_size = (((1.0 + config.epsilon) * max_degree as f64).ceil() as u64)
        .max(max_degree + 1)
        .max(1);
    let max_phases =
        ((config.phase_budget_factor * log_n / config.epsilon.min(1.0)).ceil() as usize).max(8);

    let candidates = PhaseCandidates::new(&shared, graph.num_nodes(), palette_size, max_phases);
    let (colors, report) = run_phases_on(
        graph,
        ids,
        &candidates,
        neighbor_table,
        max_phases,
        SyncConfig::default().with_threads(config.threads),
    );
    costs.charge_report("colour trial phases", &report);

    if colors.iter().any(Option::is_none) {
        return Err(CoreError::DidNotConverge {
            stage: "(1+ε)Δ colour trials",
        });
    }
    Ok(Alg2Outcome {
        colors,
        costs,
        palette_size,
        max_degree,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use symbreak_classic::coloring::verify;
    use symbreak_graphs::{generators, IdSpace};

    fn instance(n: usize, p: f64, seed: u64) -> (Graph, IdAssignment) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::connected_gnp(n, p, &mut rng);
        let ids = IdAssignment::random(&g, IdSpace::CUBIC, &mut rng);
        (g, ids)
    }

    #[test]
    fn colors_properly_within_palette() {
        for (n, p, eps, seed) in [
            (50usize, 0.3, 0.5f64, 1u64),
            (80, 0.6, 1.0, 2),
            (60, 0.4, 0.25, 3),
        ] {
            let (g, ids) = instance(n, p, seed);
            let mut rng = StdRng::seed_from_u64(seed + 50);
            let config = Alg2Config {
                epsilon: eps,
                ..Alg2Config::default()
            };
            let out = run(&g, &ids, config, &mut rng).unwrap();
            assert!(
                verify::is_proper_coloring(&g, &out.colors),
                "n={n} eps={eps}"
            );
            assert!(verify::uses_colors_below(&out.colors, out.palette_size));
        }
    }

    #[test]
    fn message_cost_is_near_linear_in_n_on_dense_graphs() {
        let (g, ids) = instance(100, 0.8, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let out = run(&g, &ids, Alg2Config::default(), &mut rng).unwrap();
        assert!(verify::is_proper_coloring(&g, &out.colors));
        // The colour-trial phases themselves (excluding the charged danner
        // setup) should cost far less than m on a dense graph.
        let trial_messages: u64 = out
            .costs
            .phases()
            .filter(|(label, _)| label.contains("phases"))
            .map(|(_, c)| c.simulated_messages)
            .sum();
        assert!(
            trial_messages < g.num_edges() as u64,
            "trial messages {trial_messages} should be below m = {}",
            g.num_edges()
        );
    }

    #[test]
    fn batched_lanes_match_sequential_runs() {
        let (g, ids) = instance(70, 0.5, 17);
        let seeds = [31u64, 32, 33];
        let batch = run_batch(&g, &ids, Alg2Config::default(), &seeds).unwrap();
        assert_eq!(batch.len(), seeds.len());
        for (lane, &seed) in batch.iter().zip(&seeds) {
            let mut rng = StdRng::seed_from_u64(seed);
            let solo = run(&g, &ids, Alg2Config::default(), &mut rng).unwrap();
            assert_eq!(lane.colors, solo.colors, "seed {seed}");
            assert_eq!(lane.palette_size, solo.palette_size, "seed {seed}");
            assert_eq!(lane.costs, solo.costs, "seed {seed}");
        }
        // No seeds on a connected graph: an empty answer, not a panic.
        assert!(run_batch(&g, &ids, Alg2Config::default(), &[])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn phase_candidate_memo_is_exact_lazy_and_thread_invariant() {
        let (g, ids) = instance(200, 0.5, 23);
        let shared = SharedRandomness::from_seed(0xa162, 1 << 14);
        let palette_size = g.max_degree() as u64 * 3 / 2 + 1;
        let max_phases = 64;
        let neighbor_table = QueryPlan::new(&g, &ids, Vec::new());
        let run_at = |threads| {
            let memo = PhaseCandidates::new(&shared, g.num_nodes(), palette_size, max_phases);
            let config = SyncConfig::default().with_threads(threads);
            let (colors, report) =
                run_phases_on(&g, &ids, &memo, &neighbor_table, max_phases, config);
            (memo, colors, report)
        };
        let (memo1, colors1, report1) = run_at(1);
        let (memo4, colors4, report4) = run_at(4);
        assert_eq!(colors1, colors4);
        assert_eq!(report1, report4);
        assert!(verify::is_proper_coloring(&g, &colors1));

        let last_phase = (report1.rounds as usize - 1) / 3;
        assert!(
            last_phase + 1 < max_phases,
            "the run must leave rows unused"
        );
        for memo in [&memo1, &memo4] {
            let mut filled = 0;
            for (j, row) in memo.rows.iter().enumerate() {
                let Some(row) = row.get() else {
                    continue;
                };
                assert!(j <= last_phase, "row {j} allocated past phase {last_phase}");
                for v in g.nodes() {
                    let slot = row[v.index()].load(Ordering::Relaxed);
                    if slot != 0 {
                        filled += 1;
                        assert_eq!(slot - 1, memo.hashes[j].eval(ids.id_of(v)), "h_{j}({v:?})");
                    }
                }
            }
            assert!(memo.rows[0].get().is_some() && filled >= g.num_nodes());
        }
    }

    #[test]
    fn rejects_bad_epsilon_and_disconnected_graphs() {
        let (g, ids) = instance(20, 0.5, 4);
        let mut rng = StdRng::seed_from_u64(4);
        let config = Alg2Config {
            epsilon: 0.0,
            ..Alg2Config::default()
        };
        assert!(matches!(
            run(&g, &ids, config, &mut rng).unwrap_err(),
            CoreError::InvalidParameter {
                name: "epsilon",
                ..
            }
        ));
        let g2 = generators::disjoint_union(&[generators::clique(3), generators::clique(3)]);
        let ids2 = IdAssignment::identity(6);
        assert_eq!(
            run(&g2, &ids2, Alg2Config::default(), &mut rng).unwrap_err(),
            CoreError::Disconnected
        );
    }

    #[test]
    fn handles_sparse_graphs_and_single_node() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::path(10);
        let ids = IdAssignment::identity(10);
        let out = run(&g, &ids, Alg2Config::default(), &mut rng).unwrap();
        assert!(verify::is_proper_coloring(&g, &out.colors));
        let g = generators::empty(1);
        let ids = IdAssignment::identity(1);
        let out = run(&g, &ids, Alg2Config::default(), &mut rng).unwrap();
        assert!(verify::is_proper_coloring(&g, &out.colors));
    }
}
