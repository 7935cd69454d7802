//! Maximal-independent-set algorithms: verification, sequential greedy,
//! parallel randomized greedy and Luby's algorithm.

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
    //! Sequential (randomized) greedy MIS — the reference implementation that
    //! the parallel variant must agree with (Blelloch, Fineman, Shun).

    use rand::Rng;
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

    /// Randomized greedy MIS: uniformly random processing order.
    pub fn randomized_greedy_mis<R: Rng + ?Sized>(graph: &Graph, rng: &mut R) -> Vec<bool> {
        let ranks: Vec<u64> = (0..graph.num_nodes()).map(|_| rng.gen()).collect();
        greedy_mis_by_rank(graph, &ranks)
    }

    /// Greedy MIS restricted to the sub-universe `members`: nodes outside
    /// `members` never join and do not block anyone. This is "running the
    /// sequential randomized greedy algorithm for |S| iterations" in Step 2
    /// of Algorithm 3.
    pub fn greedy_mis_on_subset(graph: &Graph, members: &[bool], ranks: &[u64]) -> Vec<bool> {
        assert_eq!(members.len(), graph.num_nodes());
        assert_eq!(ranks.len(), graph.num_nodes());
        let mut order: Vec<NodeId> = graph.nodes().filter(|v| members[v.index()]).collect();
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

pub mod parallel_greedy {
    //! Parallel rank-based greedy MIS as a CONGEST automaton.
    //!
    //! Each participating node holds a rank; in every phase, an undecided
    //! node whose rank is a local minimum among its undecided participating
    //! neighbours joins the MIS and announces it. This computes exactly the
    //! same MIS as the sequential greedy algorithm on the same ranks
    //! (Blelloch et al.), and finishes in `O(log n)` phases w.h.p.
    //! (Fischer–Noever).

    use rand::Rng;
    use symbreak_congest::async_sim::{AsyncConfig, AsyncReport, AsyncSimulator};
    use symbreak_congest::{
        run_synchronized, CheckpointConfig, ExecutionReport, FaultPlan, KtLevel, Message,
        NodeAlgorithm, PersistState, RoundContext, RoundObserver, SyncConfig, SyncSimulator,
    };
    use symbreak_graphs::{AdjacencyArena, Graph, IdAssignment, NodeId};

    const TAG_RANK: u16 = 0x20;
    const TAG_JOIN: u16 = 0x21;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum State {
        Undecided,
        In,
        Out,
        NotParticipating,
    }

    /// One node's automaton. It borrows its row of an [`AdjacencyArena`]
    /// as its active list, so building a node clones nothing.
    struct Node<'a> {
        state: State,
        rank: u64,
        active: &'a [NodeId],
    }

    impl<'a> Node<'a> {
        /// The automaton every run builds: plain, checkpointed, resumed and
        /// lockstep.
        fn new(participating: bool, rank: u64, active: &'a [NodeId]) -> Self {
            Node {
                state: if participating {
                    State::Undecided
                } else {
                    State::NotParticipating
                },
                rank,
                active,
            }
        }
    }

    impl NodeAlgorithm for Node<'_> {
        fn on_round(&mut self, ctx: &mut RoundContext<'_>, inbox: &[Message]) {
            if self.state == State::NotParticipating {
                return;
            }
            if ctx.round() % 2 == 0 {
                // Process JOIN announcements from the previous phase, then
                // (if still undecided) announce our rank.
                if self.state == State::Undecided && inbox.iter().any(|m| m.tag() == TAG_JOIN) {
                    self.state = State::Out;
                }
                if self.state == State::Undecided {
                    let msg = Message::tagged(TAG_RANK).with_value(self.rank);
                    for &u in self.active {
                        ctx.send(u, msg);
                    }
                }
            } else if self.state == State::Undecided {
                let min_neighbor_rank = inbox
                    .iter()
                    .filter(|m| m.tag() == TAG_RANK)
                    .map(|m| m.values()[0])
                    .min();
                let is_local_min = match min_neighbor_rank {
                    None => true,
                    Some(r) => self.rank < r,
                };
                if is_local_min {
                    self.state = State::In;
                    let msg = Message::tagged(TAG_JOIN);
                    for &u in self.active {
                        ctx.send(u, msg);
                    }
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

    impl PersistState for Node<'_> {
        fn encode_state(&self, out: &mut Vec<u64>) {
            // Rank and active list are factory-derived; only the decision
            // state distinguishes this node from a factory-fresh one.
            out.push(match self.state {
                State::Undecided => 0,
                State::In => 1,
                State::Out => 2,
                State::NotParticipating => 3,
            });
        }

        fn decode_state(&mut self, words: &[u64]) -> bool {
            let &[disc] = words else { return false };
            self.state = match disc {
                0 => State::Undecided,
                1 => State::In,
                2 => State::Out,
                3 => State::NotParticipating,
                _ => return false,
            };
            true
        }
    }

    /// Runs whole-graph parallel greedy MIS with checkpoints
    /// ([`SyncSimulator::run_checkpointed`]), snapshotting every
    /// `checkpoint.every` rounds; `observer` sees every message and round
    /// end of the run (pass [`symbreak_congest::NoopObserver`] to observe
    /// nothing). Unlike [`run_on_whole_graph`], the report is returned even
    /// when the round budget ran out (`completed == false`) — that is the
    /// "killed" half of a kill-and-resume cycle.
    ///
    /// # Errors
    ///
    /// As [`SyncSimulator::run_checkpointed`].
    pub fn run_checkpointed<O: RoundObserver>(
        graph: &Graph,
        ids: &IdAssignment,
        ranks: &[u64],
        config: SyncConfig,
        checkpoint: &CheckpointConfig,
        observer: &mut O,
    ) -> std::io::Result<ExecutionReport> {
        assert_eq!(ranks.len(), graph.num_nodes());
        let active = AdjacencyArena::from_filtered(graph, |_, _| true);
        let sim = SyncSimulator::new(graph, ids, KtLevel::KT1);
        sim.run_checkpointed(
            config,
            checkpoint,
            |init| Node::new(true, ranks[init.node.index()], active.row(init.node)),
            observer,
        )
    }

    /// Resumes an interrupted [`run_checkpointed`] run from the latest
    /// valid checkpoint ([`SyncSimulator::resume_from`]); the completed
    /// resumed run is bit-identical to an uninterrupted one. `observer`
    /// sees only the resumed rounds, from the checkpoint boundary on: a
    /// recording the kill cut short continues from its rounds before that
    /// boundary.
    ///
    /// # Errors
    ///
    /// As [`SyncSimulator::resume_from`].
    pub fn resume<O: RoundObserver>(
        graph: &Graph,
        ids: &IdAssignment,
        ranks: &[u64],
        config: SyncConfig,
        checkpoint: &CheckpointConfig,
        observer: &mut O,
    ) -> std::io::Result<ExecutionReport> {
        assert_eq!(ranks.len(), graph.num_nodes());
        let active = AdjacencyArena::from_filtered(graph, |_, _| true);
        let sim = SyncSimulator::new(graph, ids, KtLevel::KT1);
        sim.resume_from(
            config,
            checkpoint,
            |init| Node::new(true, ranks[init.node.index()], active.row(init.node)),
            observer,
        )
    }

    /// Runs parallel greedy MIS over the participating nodes.
    ///
    /// * `participating[v]` — whether `v` takes part (e.g. membership in the
    ///   sampled set `S` of Algorithm 3); non-participants output 0.
    /// * `ranks[v]` — the node's rank (must be distinct among participants).
    /// * `active.row(v)` — the participating neighbours of `v` it
    ///   communicates with (normally its participating neighbours in
    ///   `graph`), in one flat CSR arena: each node borrows its row, so
    ///   stage setup is two allocations total and per-node initialisation
    ///   clones nothing.
    ///
    /// Returns the per-node MIS membership and the execution report.
    pub fn run_arena(
        graph: &Graph,
        ids: &IdAssignment,
        level: KtLevel,
        participating: &[bool],
        ranks: &[u64],
        active: &AdjacencyArena,
        config: SyncConfig,
    ) -> (Vec<bool>, ExecutionReport) {
        assert_eq!(participating.len(), graph.num_nodes());
        assert_eq!(ranks.len(), graph.num_nodes());
        assert_eq!(active.num_nodes(), graph.num_nodes());
        let sim = SyncSimulator::new(graph, ids, level);
        let report = sim.run(config, |init| {
            let i = init.node.index();
            Node::new(participating[i], ranks[i], active.row(init.node))
        });
        assert!(report.completed, "parallel greedy MIS did not terminate");
        let membership = report
            .outputs
            .iter()
            .map(|o| o.expect("participants decided") == 1)
            .collect();
        (membership, report)
    }

    /// Convenience: run on all nodes of the graph with the given ranks; the
    /// active lists are the full neighbour lists.
    pub fn run_on_whole_graph(
        graph: &Graph,
        ids: &IdAssignment,
        ranks: &[u64],
        config: SyncConfig,
    ) -> (Vec<bool>, ExecutionReport) {
        let participating = vec![true; graph.num_nodes()];
        let active = AdjacencyArena::from_filtered(graph, |_, _| true);
        run_arena(
            graph,
            ids,
            KtLevel::KT1,
            &participating,
            ranks,
            &active,
            config,
        )
    }

    /// Runs the whole-graph parallel greedy MIS on the **asynchronous**
    /// executor under a fault plan, via the α-synchronizer lockstep wrapper
    /// ([`symbreak_congest::Synchronized`]).
    ///
    /// The synchronous run is executed first to fix the round budget (and
    /// as the ground truth); the asynchronous replay then runs the same
    /// automata for exactly that many lockstep rounds. On benign,
    /// delay-only and duplicate/reorder schedules the asynchronous outputs
    /// equal the synchronous outputs; under loss or crashes the run stalls
    /// (`completed == false`) instead of emitting a wrong set.
    pub fn run_async<R: Rng + ?Sized>(
        graph: &Graph,
        ids: &IdAssignment,
        ranks: &[u64],
        sync_config: SyncConfig,
        async_config: AsyncConfig,
        plan: &FaultPlan,
        rng: &mut R,
    ) -> (ExecutionReport, AsyncReport) {
        let (_, sync_report) = run_on_whole_graph(graph, ids, ranks, sync_config);
        let active = AdjacencyArena::from_filtered(graph, |_, _| true);
        let sim = AsyncSimulator::new(graph, ids, KtLevel::KT1);
        let report = run_synchronized(&sim, async_config, plan, sync_report.rounds, rng, |init| {
            Node::new(true, ranks[init.node.index()], active.row(init.node))
        });
        (sync_report, report)
    }
}

pub mod luby {
    //! Luby's randomized MIS algorithm — the Õ(m)-message KT-1 baseline.

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use symbreak_congest::async_sim::{AsyncConfig, AsyncReport, AsyncSimulator};
    use symbreak_congest::{
        run_synchronized, CheckpointConfig, ExecutionReport, FaultPlan, KtLevel, Message,
        NodeAlgorithm, PersistState, RoundContext, RoundObserver, SyncConfig, SyncSimulator,
    };
    use symbreak_graphs::{AdjacencyArena, Graph, IdAssignment, NodeId};

    const TAG_VALUE: u16 = 0x30;
    const TAG_JOIN: u16 = 0x31;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum State {
        Undecided,
        In,
        Out,
        NotParticipating,
    }

    /// One node's automaton; like `parallel_greedy`'s, it borrows its
    /// arena row as its active list.
    struct Node<'a> {
        state: State,
        rng: StdRng,
        current: u64,
        active: &'a [NodeId],
    }

    impl<'a> Node<'a> {
        /// The automaton every run builds: plain, checkpointed, resumed and
        /// lockstep. Node `v`'s random stream is a pure function of `seed`
        /// and `v`, so every run draws the same values.
        fn new(participating: bool, seed: u64, v: NodeId, active: &'a [NodeId]) -> Self {
            Node {
                state: if participating {
                    State::Undecided
                } else {
                    State::NotParticipating
                },
                rng: StdRng::seed_from_u64(
                    seed ^ (0x9e3779b97f4a7c15u64.wrapping_mul(v.index() as u64 + 1)),
                ),
                current: 0,
                active,
            }
        }
    }

    impl NodeAlgorithm for Node<'_> {
        fn on_round(&mut self, ctx: &mut RoundContext<'_>, inbox: &[Message]) {
            if self.state == State::NotParticipating {
                return;
            }
            if ctx.round() % 2 == 0 {
                if self.state == State::Undecided && inbox.iter().any(|m| m.tag() == TAG_JOIN) {
                    self.state = State::Out;
                }
                if self.state == State::Undecided {
                    self.current = self.rng.gen();
                    let msg = Message::tagged(TAG_VALUE).with_value(self.current);
                    for &u in self.active {
                        ctx.send(u, msg);
                    }
                }
            } else if self.state == State::Undecided {
                let max_neighbor = inbox
                    .iter()
                    .filter(|m| m.tag() == TAG_VALUE)
                    .map(|m| m.values()[0])
                    .max();
                let wins = match max_neighbor {
                    None => true,
                    Some(v) => self.current > v,
                };
                if wins {
                    self.state = State::In;
                    let msg = Message::tagged(TAG_JOIN);
                    for &u in self.active {
                        ctx.send(u, msg);
                    }
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

    impl PersistState for Node<'_> {
        fn encode_state(&self, out: &mut Vec<u64>) {
            // The RNG cursor is part of the state: a resumed node must
            // continue the exact same draw stream.
            out.push(match self.state {
                State::Undecided => 0,
                State::In => 1,
                State::Out => 2,
                State::NotParticipating => 3,
            });
            out.push(self.current);
            out.extend_from_slice(&self.rng.state());
        }

        fn decode_state(&mut self, words: &[u64]) -> bool {
            let &[disc, current, s0, s1, s2, s3] = words else {
                return false;
            };
            self.state = match disc {
                0 => State::Undecided,
                1 => State::In,
                2 => State::Out,
                3 => State::NotParticipating,
                _ => return false,
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

    /// Runs whole-graph Luby with checkpoints
    /// ([`SyncSimulator::run_checkpointed`]), snapshotting every
    /// `checkpoint.every` rounds — per-node RNG cursors included, so a
    /// resumed run continues the exact same random streams; `observer`
    /// sees every message and round end of the run (pass
    /// [`symbreak_congest::NoopObserver`] to observe nothing). Unlike
    /// [`run`], the report is returned even when the round budget ran out
    /// (`completed == false`) — the "killed" half of a kill-and-resume
    /// cycle.
    ///
    /// # Errors
    ///
    /// As [`SyncSimulator::run_checkpointed`].
    pub fn run_checkpointed<O: RoundObserver>(
        graph: &Graph,
        ids: &IdAssignment,
        seed: u64,
        config: SyncConfig,
        checkpoint: &CheckpointConfig,
        observer: &mut O,
    ) -> std::io::Result<ExecutionReport> {
        let active = AdjacencyArena::from_filtered(graph, |_, _| true);
        let sim = SyncSimulator::new(graph, ids, KtLevel::KT1);
        sim.run_checkpointed(
            config,
            checkpoint,
            |init| Node::new(true, seed, init.node, active.row(init.node)),
            observer,
        )
    }

    /// Resumes an interrupted [`run_checkpointed`] run from the latest
    /// valid checkpoint ([`SyncSimulator::resume_from`]); the completed
    /// resumed run is bit-identical to an uninterrupted one. `observer`
    /// sees only the resumed rounds, from the checkpoint boundary on: a
    /// recording the kill cut short continues from its rounds before that
    /// boundary.
    ///
    /// # Errors
    ///
    /// As [`SyncSimulator::resume_from`].
    pub fn resume<O: RoundObserver>(
        graph: &Graph,
        ids: &IdAssignment,
        seed: u64,
        config: SyncConfig,
        checkpoint: &CheckpointConfig,
        observer: &mut O,
    ) -> std::io::Result<ExecutionReport> {
        let active = AdjacencyArena::from_filtered(graph, |_, _| true);
        let sim = SyncSimulator::new(graph, ids, KtLevel::KT1);
        sim.resume_from(
            config,
            checkpoint,
            |init| Node::new(true, seed, init.node, active.row(init.node)),
            observer,
        )
    }

    /// Runs Luby's algorithm restricted to the nodes with
    /// `participating[v] = true`, communicating over the `active.row(v)`
    /// lists of one flat CSR arena: each node borrows its arena row instead
    /// of cloning a `Vec`.
    pub fn run_restricted_arena(
        graph: &Graph,
        ids: &IdAssignment,
        level: KtLevel,
        participating: &[bool],
        active: &AdjacencyArena,
        seed: u64,
        config: SyncConfig,
    ) -> (Vec<bool>, ExecutionReport) {
        assert_eq!(participating.len(), graph.num_nodes());
        assert_eq!(active.num_nodes(), graph.num_nodes());
        let sim = SyncSimulator::new(graph, ids, level);
        let report = sim.run(config, |init| {
            let v = init.node;
            Node::new(participating[v.index()], seed, v, active.row(v))
        });
        assert!(report.completed, "Luby's algorithm did not terminate");
        let membership = report
            .outputs
            .iter()
            .map(|o| o.expect("all nodes decided") == 1)
            .collect();
        (membership, report)
    }

    /// Runs Luby's algorithm on the whole graph (the Figure-1 MIS baseline).
    pub fn run(
        graph: &Graph,
        ids: &IdAssignment,
        seed: u64,
        config: SyncConfig,
    ) -> (Vec<bool>, ExecutionReport) {
        let participating = vec![true; graph.num_nodes()];
        let active = AdjacencyArena::from_filtered(graph, |_, _| true);
        run_restricted_arena(
            graph,
            ids,
            KtLevel::KT1,
            &participating,
            &active,
            seed,
            config,
        )
    }

    /// Runs whole-graph Luby on the **asynchronous** executor under a fault
    /// plan, via the α-synchronizer lockstep wrapper
    /// ([`symbreak_congest::Synchronized`]).
    ///
    /// The synchronous baseline runs first to fix the round budget (and as
    /// ground truth); the asynchronous replay then runs the same per-node
    /// RNG schedules for exactly that many lockstep rounds. On benign,
    /// delay-only and duplicate/reorder schedules the outputs equal the
    /// synchronous outputs; loss or crashes stall the run instead of
    /// producing a wrong set.
    pub fn run_async<R: Rng + ?Sized>(
        graph: &Graph,
        ids: &IdAssignment,
        seed: u64,
        sync_config: SyncConfig,
        async_config: AsyncConfig,
        plan: &FaultPlan,
        rng: &mut R,
    ) -> (ExecutionReport, AsyncReport) {
        let (_, sync_report) = run(graph, ids, seed, sync_config);
        let active = AdjacencyArena::from_filtered(graph, |_, _| true);
        let sim = AsyncSimulator::new(graph, ids, KtLevel::KT1);
        let report = run_synchronized(&sim, async_config, plan, sync_report.rounds, rng, |init| {
            Node::new(true, seed, init.node, active.row(init.node))
        });
        (sync_report, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use symbreak_congest::SyncConfig;
    use symbreak_graphs::{generators, AdjacencyArena, IdAssignment};

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
    fn greedy_mis_is_valid_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..5 {
            let g = generators::gnp(40, 0.15, &mut rng);
            let mis = greedy::randomized_greedy_mis(&g, &mut rng);
            assert!(verify::is_mis(&g, &mis));
        }
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
    fn greedy_on_subset_only_selects_members() {
        let g = generators::clique(6);
        let members = vec![true, false, true, false, true, false];
        let ranks = vec![3, 0, 1, 0, 2, 0];
        let mis = greedy::greedy_mis_on_subset(&g, &members, &ranks);
        // In a clique only the best-ranked member joins.
        assert_eq!(mis.iter().filter(|&&b| b).count(), 1);
        assert!(mis[2]);
        for v in [1usize, 3, 5] {
            assert!(!mis[v]);
        }
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
            let (parallel, report) =
                parallel_greedy::run_on_whole_graph(&g, &ids, &ranks, SyncConfig::default());
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
        let (mis, _) = parallel_greedy::run_arena(
            &g,
            &ids,
            symbreak_congest::KtLevel::KT1,
            &participating,
            &ranks,
            &active,
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
        use symbreak_congest::{CheckpointConfig, NoopObserver};
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
        let partial =
            luby::run_checkpointed(&g, &ids, 9, killed, &ckpt, &mut NoopObserver).unwrap();
        assert!(!partial.completed);
        let resumed =
            luby::resume(&g, &ids, 9, SyncConfig::default(), &ckpt, &mut NoopObserver).unwrap();
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
