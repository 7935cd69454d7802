//! Differential tests: the arena-based round engine must produce
//! bit-identical [`ExecutionReport`]s to the naive nested-`Vec` reference
//! implementation — including message counts, per-round inbox ordering
//! (observable through traces), per-edge counters and utilized-edge flags.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use symbreak_congest::reference::NaiveSyncSimulator;
use symbreak_congest::{
    ExecutionReport, KtLevel, Message, NodeAlgorithm, NodeInit, RoundContext, SyncConfig,
    SyncSimulator,
};
use symbreak_graphs::{generators, Graph, IdAssignment, NodeId};

/// Floods a token from node 0; every node forwards it once.
struct Flood {
    have: bool,
    done: bool,
}

impl NodeAlgorithm for Flood {
    fn on_round(&mut self, ctx: &mut RoundContext<'_>, inbox: &[Message]) {
        let newly =
            (ctx.round() == 0 && ctx.node() == NodeId(0)) || (!self.have && !inbox.is_empty());
        if newly {
            self.have = true;
            ctx.broadcast(&Message::tagged(1));
        } else if self.have {
            self.done = true;
        }
    }
    fn is_done(&self) -> bool {
        self.done
    }
    fn output(&self) -> Option<u64> {
        Some(u64::from(self.have))
    }
}

/// Every node gossips the smallest ID it has heard of, for a few rounds.
/// Exercises ID fields (utilized-edge tracking) and multi-round traffic.
struct MinGossip {
    best: u64,
    rounds_left: u32,
}

impl NodeAlgorithm for MinGossip {
    fn on_round(&mut self, ctx: &mut RoundContext<'_>, inbox: &[Message]) {
        for m in inbox {
            if let Some(id) = m.id() {
                self.best = self.best.min(id);
            }
        }
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            ctx.broadcast(&Message::tagged(2).with_id(self.best));
        }
    }
    fn is_done(&self) -> bool {
        self.rounds_left == 0
    }
    fn output(&self) -> Option<u64> {
        Some(self.best)
    }
}

fn assert_reports_identical(engine: &ExecutionReport, naive: &ExecutionReport, label: &str) {
    assert_eq!(engine.completed, naive.completed, "{label}: completed");
    assert_eq!(engine.rounds, naive.rounds, "{label}: rounds");
    assert_eq!(engine.messages, naive.messages, "{label}: messages");
    assert_eq!(
        engine.max_message_bits, naive.max_message_bits,
        "{label}: max_message_bits"
    );
    assert_eq!(engine.outputs, naive.outputs, "{label}: outputs");
    assert_eq!(
        engine.per_edge_messages, naive.per_edge_messages,
        "{label}: per-edge counters"
    );
    assert_eq!(
        engine.utilized_edges, naive.utilized_edges,
        "{label}: utilized edges"
    );
    assert_eq!(engine.trace, naive.trace, "{label}: trace");
}

fn check_all_configs(graph: &Graph, ids: &IdAssignment, level: KtLevel, label: &str) {
    let sim = SyncSimulator::new(graph, ids, level);
    let naive = NaiveSyncSimulator::new(sim);
    for config in [
        SyncConfig::default(),
        SyncConfig::instrumented(),
        SyncConfig {
            record_trace: true,
            ..SyncConfig::default()
        },
    ] {
        let fast = sim.run(config, |_| Flood {
            have: false,
            done: false,
        });
        let slow = naive.run(config, |_| Flood {
            have: false,
            done: false,
        });
        assert_reports_identical(&fast, &slow, &format!("{label}/flood"));

        let fast = sim.run(config, |init: NodeInit<'_>| MinGossip {
            best: init.knowledge.own_id(),
            rounds_left: 4,
        });
        let slow = naive.run(config, |init: NodeInit<'_>| MinGossip {
            best: init.knowledge.own_id(),
            rounds_left: 4,
        });
        assert_reports_identical(&fast, &slow, &format!("{label}/gossip"));
    }
}

#[test]
fn engine_matches_reference_on_structured_graphs() {
    for (label, graph) in [
        ("path", generators::path(12)),
        ("cycle", generators::cycle(9)),
        ("clique", generators::clique(8)),
        ("star", generators::star(10)),
        ("tripartite", generators::layered_tripartite(3)),
        ("disconnected", generators::disjoint_cycles(3, 4)),
    ] {
        let ids = IdAssignment::identity(graph.num_nodes());
        check_all_configs(&graph, &ids, KtLevel::KT1, label);
    }
}

#[test]
fn engine_matches_reference_on_random_graphs() {
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = generators::connected_gnp(30, 0.15, &mut rng);
        let ids = IdAssignment::random(
            &graph,
            symbreak_graphs::IdSpace::CUBIC,
            &mut StdRng::seed_from_u64(seed ^ 0xff),
        );
        check_all_configs(&graph, &ids, KtLevel::KT1, &format!("gnp-{seed}"));
    }
}

/// The thread count must be a pure throughput knob: identical `Report`s
/// (rounds, message counts, max bits, per-node outputs) at every thread
/// count, across workloads and graph shapes — including a clique, whose
/// all-to-all rounds stage one batch per node and up to n − 1 copies each.
#[test]
fn parallel_engine_is_deterministic_across_thread_counts() {
    let graphs: Vec<(&str, Graph)> = vec![
        ("cycle", generators::cycle(1000)),
        ("clique", generators::clique(96)),
        (
            "random_d8",
            generators::random_near_regular(1000, 8, &mut StdRng::seed_from_u64(11)),
        ),
    ];
    for (label, graph) in graphs {
        let n = graph.num_nodes();
        let ids = IdAssignment::identity(n);
        let sim = SyncSimulator::new(&graph, &ids, KtLevel::KT1);
        let sequential = SyncConfig::default().with_threads(1);

        let flood_base = sim.run(sequential, |_| Flood {
            have: false,
            done: false,
        });
        let announce_base = sim.run(sequential, |init: NodeInit<'_>| MinGossip {
            best: init.knowledge.own_id(),
            rounds_left: 4,
        });
        assert!(flood_base.completed && announce_base.completed);

        for threads in [2, 4, 8] {
            let config = SyncConfig::default().with_threads(threads);
            let flood = sim.run(config, |_| Flood {
                have: false,
                done: false,
            });
            assert_reports_identical(
                &flood,
                &flood_base,
                &format!("{label}/flood @{threads} threads"),
            );
            let announce = sim.run(config, |init: NodeInit<'_>| MinGossip {
                best: init.knowledge.own_id(),
                rounds_left: 4,
            });
            assert_reports_identical(
                &announce,
                &announce_base,
                &format!("{label}/gossip @{threads} threads"),
            );
        }
    }
}

/// Parallel runs must also match the naive oracle, and the built-in
/// instrumentation must yield the same report — trace, per-edge counters
/// and utilized edges included — at every thread count: on rounds split
/// across threads it replays the windows' send logs in sequential order.
#[test]
fn parallel_engine_matches_naive_and_instrumented_runs() {
    let graph = generators::random_near_regular(600, 8, &mut StdRng::seed_from_u64(3));
    let ids = IdAssignment::identity(graph.num_nodes());
    let sim = SyncSimulator::new(&graph, &ids, KtLevel::KT1);
    let naive = NaiveSyncSimulator::new(sim).run(SyncConfig::default(), |_| Flood {
        have: false,
        done: false,
    });
    for threads in [2, 8] {
        let fast = sim.run(SyncConfig::default().with_threads(threads), |_| Flood {
            have: false,
            done: false,
        });
        assert_reports_identical(&fast, &naive, &format!("naive-vs-{threads}-threads"));

        let instrumented = sim.run(SyncConfig::instrumented().with_threads(threads), |_| {
            Flood {
                have: false,
                done: false,
            }
        });
        let instrumented_seq = sim.run(SyncConfig::instrumented().with_threads(1), |_| Flood {
            have: false,
            done: false,
        });
        assert_reports_identical(
            &instrumented,
            &instrumented_seq,
            &format!("instrumented-vs-{threads}-threads"),
        );
    }
}

/// For a few rounds, every node sends one message to a seeded random
/// subset of its neighbours, sorted, through one `send_each` batch, and
/// folds its inbox in delivery order into its output.
struct Subsets {
    rng: StdRng,
    rounds_left: u32,
    fold: u64,
}

impl Subsets {
    fn new(init: NodeInit<'_>) -> Self {
        Subsets {
            rng: StdRng::seed_from_u64(init.knowledge.own_id() ^ 0x5eed),
            rounds_left: 5,
            fold: 0,
        }
    }
}

impl NodeAlgorithm for Subsets {
    fn on_round(&mut self, ctx: &mut RoundContext<'_>, inbox: &[Message]) {
        for m in inbox {
            self.fold = self.fold.wrapping_mul(31).wrapping_add(m.values()[0]);
        }
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            let rng = &mut self.rng;
            let to: Vec<NodeId> = ctx.neighbors().filter(|_| rng.gen_bool(0.5)).collect();
            let msg = Message::tagged(3)
                .with_id(ctx.own_id())
                .with_value(self.fold);
            ctx.send_each(&to, msg);
        }
    }
    fn is_done(&self) -> bool {
        self.rounds_left == 0
    }
    fn output(&self) -> Option<u64> {
        Some(self.fold)
    }
}

/// Send batches to arbitrary neighbour subsets must give the naive
/// oracle's report, which checks and counts each message on its own, at
/// one thread and on rounds split across four — on a sparse graph and on a
/// clique, whose batches cover most of each window's receivers.
#[test]
fn send_each_batches_match_the_reference() {
    let graphs = [
        (
            "random_d8",
            generators::random_near_regular(600, 8, &mut StdRng::seed_from_u64(5)),
        ),
        ("clique", generators::clique(96)),
    ];
    for (label, graph) in graphs {
        let ids = IdAssignment::random(
            &graph,
            symbreak_graphs::IdSpace::CUBIC,
            &mut StdRng::seed_from_u64(7),
        );
        let sim = SyncSimulator::new(&graph, &ids, KtLevel::KT1);
        for config in [SyncConfig::default(), SyncConfig::instrumented()] {
            let slow = NaiveSyncSimulator::new(sim).run(config, Subsets::new);
            assert!(slow.completed && slow.messages > 0, "{label}");
            for threads in [1, 4] {
                let fast = sim.run(config.with_threads(threads), Subsets::new);
                assert_reports_identical(&fast, &slow, &format!("{label} @{threads} threads"));
            }
        }
    }
}

#[test]
fn engine_matches_reference_at_round_limit() {
    struct Chatter;
    impl NodeAlgorithm for Chatter {
        fn on_round(&mut self, ctx: &mut RoundContext<'_>, _inbox: &[Message]) {
            ctx.broadcast(&Message::tagged(0));
        }
        fn is_done(&self) -> bool {
            false
        }
    }
    let graph = generators::cycle(6);
    let ids = IdAssignment::identity(6);
    let sim = SyncSimulator::new(&graph, &ids, KtLevel::KT1);
    let config = SyncConfig::instrumented().with_max_rounds(7);
    let fast = sim.run(config, |_| Chatter);
    let slow = NaiveSyncSimulator::new(sim).run(config, |_| Chatter);
    assert!(!fast.completed);
    assert_reports_identical(&fast, &slow, "chatter");
}
