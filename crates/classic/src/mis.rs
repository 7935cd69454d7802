//! Maximal-independent-set algorithms: verification, sequential greedy, and
//! one CONGEST automaton that runs parallel randomized greedy and Luby's
//! algorithm as its two [`Priority`] rules.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use symbreak_congest::async_sim::{AsyncConfig, AsyncReport, AsyncSimulator};
use symbreak_congest::{
    run_synchronized, CheckpointConfig, ExecutionReport, FaultPlan, KtLevel, Message,
    NodeAlgorithm, PersistState, RoundContext, RoundObserver, SyncConfig, SyncSimulator,
};
use symbreak_graphs::{AdjacencyArena, Graph, IdAssignment, NodeId};

pub mod verify {
    //! MIS solution checkers.

    use symbreak_graphs::Graph;

    /// Whether `in_set` (indexed by node) is an independent set of `graph`.
    pub fn is_independent_set(graph: &Graph, in_set: &[bool]) -> bool {
        assert_eq!(
            in_set.len(),
            graph.num_nodes(),
            "one flag per node required"
        );
        graph
            .edges()
            .all(|(_, u, v)| !(in_set[u.index()] && in_set[v.index()]))
    }

    /// Whether `in_set` is maximal: every node outside the set has a
    /// neighbour inside it.
    pub fn is_maximal(graph: &Graph, in_set: &[bool]) -> bool {
        assert_eq!(
            in_set.len(),
            graph.num_nodes(),
            "one flag per node required"
        );
        graph
            .nodes()
            .all(|v| in_set[v.index()] || graph.neighbors(v).any(|u| in_set[u.index()]))
    }

    /// Whether `in_set` is a maximal independent set.
    pub fn is_mis(graph: &Graph, in_set: &[bool]) -> bool {
        is_independent_set(graph, in_set) && is_maximal(graph, in_set)
    }

    /// Converts simulator outputs (`Some(1)` = in MIS) to membership flags.
    ///
    /// # Panics
    ///
    /// Panics if any node produced no output.
    pub fn outputs_to_membership(outputs: &[Option<u64>]) -> Vec<bool> {
        outputs
            .iter()
            .map(|o| o.expect("every node must decide") == 1)
            .collect()
    }
}

pub mod greedy {
    //! Sequential greedy MIS by rank — the reference implementation that
    //! the parallel variant must agree with (Blelloch, Fineman, Shun).

    use symbreak_graphs::{Graph, NodeId};

    /// Greedy MIS processing nodes in the order given by `ranks` (ascending;
    /// ties broken by node index). A node joins iff none of its already
    /// processed neighbours joined.
    pub fn greedy_mis_by_rank(graph: &Graph, ranks: &[u64]) -> Vec<bool> {
        assert_eq!(ranks.len(), graph.num_nodes(), "one rank per node required");
        let mut order: Vec<NodeId> = graph.nodes().collect();
        order.sort_by_key(|&v| (ranks[v.index()], v));
        let mut in_set = vec![false; graph.num_nodes()];
        for &v in &order {
            if !graph.neighbors(v).any(|u| in_set[u.index()]) {
                in_set[v.index()] = true;
            }
        }
        in_set
    }
}

/// How the nodes of an MIS run rank themselves in each two-round phase of
/// the one MIS automaton ([`run_arena`] and the runs built on it). In the
/// first round of a phase every undecided node announces its value to its
/// active neighbours; in the second, a node whose value beats every value it
/// heard joins the set and tells its neighbours, who drop out at the start
/// of the next phase.
#[derive(Debug, Clone, Copy)]
pub enum Priority<'a> {
    /// Parallel greedy: node `v` announces the fixed rank `ranks[v]` every
    /// phase and the lowest rank wins. This computes exactly the set that
    /// sequential greedy computes on the same ranks (Blelloch et al.), in
    /// `O(log n)` phases w.h.p. (Fischer–Noever). Ranks must be distinct
    /// among participating neighbours.
    Rank(&'a [u64]),
    /// Luby's algorithm: node `v` draws a fresh value each phase from a
    /// random stream that is a pure function of the seed and `v`, and the
    /// highest draw wins.
    Luby(u64),
}

/// A priority rule of the MIS automaton: the value a node announces each
/// phase, which value wins, and the state a checkpoint must keep.
trait Rule {
    /// Tag of a value announcement.
    const VALUE: u16;
    /// Tag of a join announcement.
    const JOIN: u16;

    /// The value this node announces in the phase that starts now.
    fn announce(&mut self) -> u64;

    /// Whether this node's current value beats a neighbour's `value`.
    fn beats(&self, value: u64) -> bool;

    /// Appends the words, after the decision word, that distinguish this
    /// node's rule from a factory-fresh one: none by default.
    fn encode(&self, _out: &mut Vec<u64>) {}

    /// Restores words written by [`Rule::encode`]; `false` if `words` is
    /// not such a state.
    fn decode(&mut self, words: &[u64]) -> bool {
        words.is_empty()
    }
}

/// [`Priority::Rank`]'s rule. The rank is factory-derived, so the
/// decision word is a node's whole checkpointed state.
struct Rank(u64);

impl Rule for Rank {
    const VALUE: u16 = 0x20;
    const JOIN: u16 = 0x21;

    #[inline]
    fn announce(&mut self) -> u64 {
        self.0
    }

    #[inline]
    fn beats(&self, value: u64) -> bool {
        self.0 < value
    }
}

/// [`Priority::Luby`]'s rule.
struct Luby {
    rng: StdRng,
    current: u64,
}

impl Luby {
    /// Node `v`'s random stream is a pure function of `seed` and `v`, so
    /// every run draws the same values.
    fn new(seed: u64, v: NodeId) -> Self {
        Luby {
            rng: StdRng::seed_from_u64(
                seed ^ (0x9e3779b97f4a7c15u64.wrapping_mul(v.index() as u64 + 1)),
            ),
            current: 0,
        }
    }
}

impl Rule for Luby {
    const VALUE: u16 = 0x30;
    const JOIN: u16 = 0x31;

    #[inline]
    fn announce(&mut self) -> u64 {
        self.current = self.rng.gen();
        self.current
    }

    #[inline]
    fn beats(&self, value: u64) -> bool {
        self.current > value
    }

    // The RNG cursor is part of the state: a resumed node must continue
    // the exact same draw stream.
    fn encode(&self, out: &mut Vec<u64>) {
        out.push(self.current);
        out.extend_from_slice(&self.rng.state());
    }

    fn decode(&mut self, words: &[u64]) -> bool {
        let &[current, s0, s1, s2, s3] = words else {
            return false;
        };
        let s = [s0, s1, s2, s3];
        if s == [0; 4] {
            return false; // Not a reachable xoshiro256** state.
        }
        self.current = current;
        self.rng = StdRng::from_state(s);
        true
    }
}

/// A node's decision; the discriminant is its checkpointed word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Undecided = 0,
    In = 1,
    Out = 2,
    NotParticipating = 3,
}

/// One node's automaton, generic over its rule so that each rule's runs
/// are compiled apart and a node holds only its own rule's words. It
/// borrows its row of an [`AdjacencyArena`] as its active list, so building
/// a node clones nothing.
struct Node<'a, R> {
    state: State,
    rule: R,
    active: &'a [NodeId],
}

impl<'a, R: Rule> Node<'a, R> {
    /// The automaton every run builds: plain, checkpointed, resumed and
    /// lockstep.
    fn new(participating: bool, rule: R, active: &'a [NodeId]) -> Self {
        Node {
            state: if participating {
                State::Undecided
            } else {
                State::NotParticipating
            },
            rule,
            active,
        }
    }
}

impl<R: Rule> NodeAlgorithm for Node<'_, R> {
    fn on_round(&mut self, ctx: &mut RoundContext<'_>, inbox: &[Message]) {
        if self.state == State::NotParticipating {
            return;
        }
        if ctx.round() % 2 == 0 {
            // Process JOIN announcements from the previous phase, then (if
            // still undecided) announce this phase's value.
            if self.state == State::Undecided && inbox.iter().any(|m| m.tag() == R::JOIN) {
                self.state = State::Out;
            }
            if self.state == State::Undecided {
                let msg = Message::tagged(R::VALUE).with_value(self.rule.announce());
                ctx.send_each(self.active, msg);
            }
        } else if self.state == State::Undecided {
            let wins = inbox
                .iter()
                .filter(|m| m.tag() == R::VALUE)
                .all(|m| self.rule.beats(m.values()[0]));
            if wins {
                self.state = State::In;
                ctx.send_each(self.active, Message::tagged(R::JOIN));
            }
        }
    }

    fn is_done(&self) -> bool {
        self.state != State::Undecided
    }

    fn output(&self) -> Option<u64> {
        match self.state {
            State::In => Some(1),
            State::Out | State::NotParticipating => Some(0),
            State::Undecided => None,
        }
    }
}

impl<R: Rule> PersistState for Node<'_, R> {
    fn encode_state(&self, out: &mut Vec<u64>) {
        out.push(self.state as u64);
        self.rule.encode(out);
    }

    fn decode_state(&mut self, words: &[u64]) -> bool {
        let Some((&disc, rule)) = words.split_first() else {
            return false;
        };
        self.state = match disc {
            0 => State::Undecided,
            1 => State::In,
            2 => State::Out,
            3 => State::NotParticipating,
            _ => return false,
        };
        self.rule.decode(rule)
    }
}

/// Evaluates `$run` once per rule of `$priority`, with `$rule` bound to
/// that rule's per-node constructor (`NodeId -> R`), so each arm builds its
/// own monomorphized automaton. `$n` is the node count a rank list must
/// cover.
macro_rules! with_rule {
    ($priority:expr, $n:expr, |$rule:ident| $run:expr) => {
        match $priority {
            Priority::Rank(ranks) => {
                assert_eq!(ranks.len(), $n, "one rank per node required");
                let $rule = |v: NodeId| Rank(ranks[v.index()]);
                $run
            }
            Priority::Luby(seed) => {
                let $rule = |v: NodeId| Luby::new(seed, v);
                $run
            }
        }
    };
}

/// Runs the MIS automaton over the participating nodes.
///
/// * `participating[v]` — whether `v` takes part (e.g. membership in the
///   sampled set `S` of Algorithm 3); non-participants output 0.
/// * `active.row(v)` — the participating neighbours of `v` it communicates
///   with (normally its participating neighbours in `graph`), in one flat
///   CSR arena: each node borrows its row, so stage setup is two
///   allocations total and per-node initialisation clones nothing.
/// * `priority` — parallel greedy on fixed ranks, or Luby's algorithm.
///
/// Returns the per-node MIS membership and the execution report.
///
/// # Panics
///
/// Panics if the run does not terminate within `config.max_rounds`.
pub fn run_arena(
    graph: &Graph,
    ids: &IdAssignment,
    level: KtLevel,
    participating: &[bool],
    active: &AdjacencyArena,
    priority: Priority<'_>,
    config: SyncConfig,
) -> (Vec<bool>, ExecutionReport) {
    assert_eq!(participating.len(), graph.num_nodes());
    assert_eq!(active.num_nodes(), graph.num_nodes());
    let sim = SyncSimulator::new(graph, ids, level);
    let report = with_rule!(priority, graph.num_nodes(), |rule| sim.run(
        config,
        |init| {
            let v = init.node;
            Node::new(participating[v.index()], rule(v), active.row(v))
        }
    ));
    assert!(report.completed, "MIS did not terminate");
    let membership = report
        .outputs
        .iter()
        .map(|o| o.expect("every node decided") == 1)
        .collect();
    (membership, report)
}

/// Runs the MIS automaton on every node of the graph at KT-1, over the full
/// neighbour lists.
pub fn run(
    graph: &Graph,
    ids: &IdAssignment,
    priority: Priority<'_>,
    config: SyncConfig,
) -> (Vec<bool>, ExecutionReport) {
    let participating = vec![true; graph.num_nodes()];
    let active = AdjacencyArena::from_filtered(graph, |_, _| true);
    run_arena(
        graph,
        ids,
        KtLevel::KT1,
        &participating,
        &active,
        priority,
        config,
    )
}

/// Runs whole-graph MIS as [`run`] does, with checkpoints
/// ([`SyncSimulator::run_checkpointed`]) every `checkpoint.every` rounds —
/// Luby's per-node RNG cursors included, so a resumed run continues the
/// exact same random streams; `observer` sees every message and round end
/// of the run (pass [`symbreak_congest::NoopObserver`] to observe nothing).
/// Unlike [`run`], the report is returned even when the round budget ran
/// out (`completed == false`) — the "killed" half of a kill-and-resume
/// cycle.
///
/// # Errors
///
/// As [`SyncSimulator::run_checkpointed`].
pub fn run_checkpointed<O: RoundObserver>(
    graph: &Graph,
    ids: &IdAssignment,
    priority: Priority<'_>,
    config: SyncConfig,
    checkpoint: &CheckpointConfig,
    observer: &mut O,
) -> std::io::Result<ExecutionReport> {
    let active = AdjacencyArena::from_filtered(graph, |_, _| true);
    let sim = SyncSimulator::new(graph, ids, KtLevel::KT1);
    with_rule!(priority, graph.num_nodes(), |rule| sim.run_checkpointed(
        config,
        checkpoint,
        |init| Node::new(true, rule(init.node), active.row(init.node)),
        observer,
    ))
}

/// Resumes an interrupted [`run_checkpointed`] run from the latest valid
/// checkpoint ([`SyncSimulator::resume_from`]); the completed resumed run
/// is bit-identical to an uninterrupted one. `observer` sees only the
/// resumed rounds, from the checkpoint boundary on: a recording the kill
/// cut short continues from its rounds before that boundary.
///
/// # Errors
///
/// As [`SyncSimulator::resume_from`]: a log written under another priority
/// rule or on another graph is [`std::io::ErrorKind::InvalidData`].
pub fn resume<O: RoundObserver>(
    graph: &Graph,
    ids: &IdAssignment,
    priority: Priority<'_>,
    config: SyncConfig,
    checkpoint: &CheckpointConfig,
    observer: &mut O,
) -> std::io::Result<ExecutionReport> {
    let active = AdjacencyArena::from_filtered(graph, |_, _| true);
    let sim = SyncSimulator::new(graph, ids, KtLevel::KT1);
    with_rule!(priority, graph.num_nodes(), |rule| sim.resume_from(
        config,
        checkpoint,
        |init| Node::new(true, rule(init.node), active.row(init.node)),
        observer,
    ))
}

/// Runs whole-graph MIS on the **asynchronous** executor under a fault
/// plan, via the α-synchronizer lockstep wrapper
/// ([`symbreak_congest::Synchronized`]).
///
/// The synchronous run ([`run`]) executes first to fix the round budget
/// (and as the ground truth); the asynchronous replay then runs the same
/// automata — Luby's per-node RNG streams included — for exactly that many
/// lockstep rounds. On benign, delay-only and duplicate/reorder schedules
/// the asynchronous outputs equal the synchronous outputs; under loss or
/// crashes the run stalls (`completed == false`) instead of emitting a
/// wrong set.
pub fn run_async<R: Rng + ?Sized>(
    graph: &Graph,
    ids: &IdAssignment,
    priority: Priority<'_>,
    sync_config: SyncConfig,
    async_config: AsyncConfig,
    plan: &FaultPlan,
    rng: &mut R,
) -> (ExecutionReport, AsyncReport) {
    let (_, sync_report) = run(graph, ids, priority, sync_config);
    let active = AdjacencyArena::from_filtered(graph, |_, _| true);
    let sim = AsyncSimulator::new(graph, ids, KtLevel::KT1);
    let report = with_rule!(priority, graph.num_nodes(), |rule| run_synchronized(
        &sim,
        async_config,
        plan,
        sync_report.rounds,
        rng,
        |init| Node::new(true, rule(init.node), active.row(init.node)),
    ));
    (sync_report, report)
}

pub mod luby {
    //! Luby's randomized MIS algorithm — the Õ(m)-message KT-1 baseline.

    use super::{ExecutionReport, Graph, IdAssignment, Priority, SyncConfig};

    /// Runs Luby's algorithm on the whole graph (the Figure-1 MIS
    /// baseline): [`super::run`] under [`Priority::Luby`].
    pub fn run(
        graph: &Graph,
        ids: &IdAssignment,
        seed: u64,
        config: SyncConfig,
    ) -> (Vec<bool>, ExecutionReport) {
        super::run(graph, ids, Priority::Luby(seed), config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbreak_graphs::generators;

    #[test]
    fn verify_detects_non_independence_and_non_maximality() {
        let g = generators::path(3);
        assert!(verify::is_mis(&g, &[true, false, true]));
        assert!(verify::is_mis(&g, &[false, true, false]));
        assert!(!verify::is_independent_set(&g, &[true, true, false]));
        assert!(!verify::is_maximal(&g, &[true, false, false]));
        assert!(!verify::is_mis(&g, &[false, false, false]));
    }

    #[test]
    fn greedy_rank_order_determines_output() {
        let g = generators::path(3);
        // Rank order 1 < 0 < 2: node 1 joins first, blocking 0 and 2? No:
        // node 2 is not adjacent to 1? It is (path 0-1-2). So MIS = {1}.
        let mis = greedy::greedy_mis_by_rank(&g, &[5, 1, 9]);
        assert_eq!(mis, vec![false, true, false]);
    }

    #[test]
    fn parallel_greedy_matches_sequential_greedy() {
        let mut rng = StdRng::seed_from_u64(33);
        for trial in 0..5 {
            let g = generators::connected_gnp(30, 0.2, &mut rng);
            let ids = IdAssignment::identity(30);
            let ranks: Vec<u64> = (0..30)
                .map(|i| (i as u64 * 7919 + trial) % 1000 + 1)
                .collect();
            let sequential = greedy::greedy_mis_by_rank(&g, &ranks);
            let (parallel, report) = run(&g, &ids, Priority::Rank(&ranks), SyncConfig::default());
            assert_eq!(parallel, sequential, "trial {trial}");
            assert!(verify::is_mis(&g, &parallel));
            assert!(report.messages > 0);
        }
    }

    #[test]
    fn parallel_greedy_respects_participation() {
        let g = generators::clique(8);
        let ids = IdAssignment::identity(8);
        let participating: Vec<bool> = (0..8).map(|i| i % 2 == 0).collect();
        let ranks: Vec<u64> = (0..8).map(|i| 100 - i as u64).collect();
        let active = AdjacencyArena::from_filtered(&g, |_, u| participating[u.index()]);
        let (mis, _) = run_arena(
            &g,
            &ids,
            KtLevel::KT1,
            &participating,
            &active,
            Priority::Rank(&ranks),
            SyncConfig::default(),
        );
        // Non-participants never join; exactly one participant joins (clique).
        assert!(mis.iter().zip(&participating).all(|(&m, &p)| p || !m));
        assert_eq!(mis.iter().filter(|&&b| b).count(), 1);
    }

    #[test]
    fn luby_computes_a_valid_mis() {
        let mut rng = StdRng::seed_from_u64(44);
        for n in [10usize, 25, 50] {
            let g = generators::connected_gnp(n, 0.2, &mut rng);
            let ids = IdAssignment::identity(n);
            let (mis, report) = luby::run(&g, &ids, 7, SyncConfig::default());
            assert!(verify::is_mis(&g, &mis), "n={n}");
            assert!(report.completed);
        }
    }

    #[test]
    fn luby_message_count_scales_with_edges() {
        // The baseline sends Θ(m) messages per phase — on a clique this is
        // far more than n^1.5, which is exactly why the paper's algorithms
        // avoid it.
        let g = generators::clique(40);
        let ids = IdAssignment::identity(40);
        let (mis, report) = luby::run(&g, &ids, 11, SyncConfig::default());
        assert!(verify::is_mis(&g, &mis));
        assert!(report.messages as usize >= g.num_edges());
    }

    #[test]
    fn luby_on_edgeless_graph_selects_everyone() {
        let g = generators::empty(5);
        let ids = IdAssignment::identity(5);
        let (mis, _) = luby::run(&g, &ids, 3, SyncConfig::default());
        assert_eq!(mis, vec![true; 5]);
    }

    #[test]
    fn luby_kill_and_resume_matches_uninterrupted_run() {
        use symbreak_congest::NoopObserver;
        let mut rng = StdRng::seed_from_u64(55);
        let g = generators::connected_gnp(30, 0.15, &mut rng);
        let ids = IdAssignment::identity(30);
        let (mis, baseline) = luby::run(&g, &ids, 9, SyncConfig::default());
        let dir = std::env::temp_dir().join(format!("sbck-mis-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = CheckpointConfig::new(dir.join("luby.sbck")).with_every(2);
        // Kill after the first boundary, then resume: Luby's per-node RNG
        // cursors must continue the exact same draw streams.
        let killed = SyncConfig::default().with_max_rounds(2);
        let luby = Priority::Luby(9);
        let partial = run_checkpointed(&g, &ids, luby, killed, &ckpt, &mut NoopObserver).unwrap();
        assert!(!partial.completed);
        let resumed = resume(
            &g,
            &ids,
            luby,
            SyncConfig::default(),
            &ckpt,
            &mut NoopObserver,
        )
        .unwrap();
        assert_eq!(resumed, baseline);
        assert_eq!(verify::outputs_to_membership(&resumed.outputs), mis);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn outputs_to_membership_maps_correctly() {
        let outputs = vec![Some(1), Some(0), Some(1)];
        assert_eq!(
            verify::outputs_to_membership(&outputs),
            vec![true, false, true]
        );
    }
}
