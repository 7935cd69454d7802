//! Negative-path tests for the CONGEST compliance auditor: each injected
//! violation must be caught with full `(round, edge, shard)`
//! provenance and the caller's replay seed, and audited runs must stay
//! bit-identical to unaudited ones with zero violations.

use rand::rngs::StdRng;
use rand::SeedableRng;
use symbreak_congest::{
    AuditConfig, Auditor, KtLevel, Message, NodeAlgorithm, NodeInit, RoundContext, SyncConfig,
    SyncSimulator, Violation, ViolationKind,
};
use symbreak_graphs::{generators, IdAssignment, NodeId};

/// The doc-example flood: node 0 floods a token, everyone terminates.
struct Flood {
    have: bool,
    done: bool,
}

impl NodeAlgorithm for Flood {
    fn on_round(&mut self, ctx: &mut RoundContext<'_>, inbox: &[Message]) {
        let newly = (ctx.round() == 0 && ctx.node().0 == 0) || (!self.have && !inbox.is_empty());
        if newly {
            self.have = true;
            ctx.broadcast(&Message::tagged(1).with_id(7).with_value(3));
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

fn flood() -> impl FnMut(NodeInit<'_>) -> Flood {
    |_init| Flood {
        have: false,
        done: false,
    }
}

const SEED: u64 = 0xfeed_f00d;

/// A seeded oversized payload: with the budget multiplier crushed to 1 the
/// flood's `tag + id + value` message (16 + 2w model bits) exceeds `1·w`
/// bits on every send, and each violation carries the message's real edge,
/// round and the replay seed.
#[test]
fn oversized_payload_is_caught_with_provenance() {
    let graph = generators::cycle(8);
    let ids = IdAssignment::identity(8);
    let sim = SyncSimulator::new(&graph, &ids, KtLevel::KT1);
    let audit = AuditConfig::collect(SEED).with_budget(1);
    let (report, violations) = sim.run_audited(SyncConfig::default(), &audit, flood());
    assert!(report.completed);
    assert!(
        !violations.is_empty(),
        "crushed budget must flag every send"
    );
    // Round 0: node 0 broadcasts to its two cycle neighbours — the first
    // finding is its lower-indexed send, on the real graph edge.
    let v = &violations[0];
    match v.kind {
        ViolationKind::Bandwidth { bits, budget } => {
            // w = ⌈log₂ 8⌉ = 3: 16 + 2·3 = 22 model bits against a 3-bit budget.
            assert_eq!(bits, 22);
            assert_eq!(budget, 3);
        }
        other => panic!("expected a bandwidth violation, got {other:?}"),
    }
    assert_eq!(v.round, 0);
    assert_eq!(v.from, Some(NodeId(0)));
    assert_eq!(
        v.edge,
        graph.edge_between(
            NodeId(0),
            v.to.expect("message violations carry a receiver")
        )
    );
    assert_eq!(v.seed, SEED);
    // Every send of the run is over budget: one violation per message.
    assert_eq!(violations.len() as u64, report.messages);
}

/// An off-adjacency send: nodes 0 and 5 are not neighbours on an 8-cycle,
/// so the auditor reports an adjacency violation with no edge (there is
/// none) and the sender/receiver pair.
#[test]
fn off_adjacency_send_is_caught_with_provenance() {
    let graph = generators::cycle(8);
    let mut auditor = Auditor::new(&graph, AuditConfig::collect(SEED));
    auditor.end_round(); // advance to round 1
    auditor.on_send(NodeId(0), NodeId(5), &Message::tagged(9));
    let violations = auditor.finish();
    assert_eq!(violations.len(), 1);
    let v = &violations[0];
    assert_eq!(v.kind, ViolationKind::Adjacency);
    assert_eq!(v.round, 1);
    assert_eq!(v.from, Some(NodeId(0)));
    assert_eq!(v.to, Some(NodeId(5)));
    assert_eq!(v.edge, None, "a non-edge has no edge id");
    assert_eq!(v.seed, SEED);
}

/// A duplicate send on one edge direction within a round violates the
/// one-message-per-edge-per-direction CONGEST discipline; the same edge in
/// the *other* direction, or in the next round, is fine.
#[test]
fn per_direction_multiplicity_is_enforced_per_round() {
    let graph = generators::cycle(8);
    let mut auditor = Auditor::new(&graph, AuditConfig::collect(SEED));
    let m = Message::tagged(1);
    auditor.on_send(NodeId(0), NodeId(1), &m);
    auditor.on_send(NodeId(1), NodeId(0), &m); // reverse direction: legal
    auditor.on_send(NodeId(0), NodeId(1), &m); // duplicate: violation
    assert_eq!(auditor.violations().len(), 1);
    let v = auditor.violations()[0];
    assert_eq!(v.kind, ViolationKind::Multiplicity { count: 2 });
    assert_eq!(v.round, 0);
    assert_eq!(v.from, Some(NodeId(0)));
    assert_eq!(v.to, Some(NodeId(1)));
    assert_eq!(v.edge, graph.edge_between(NodeId(0), NodeId(1)));
    // A new round resets the counters: the same send is legal again.
    auditor.end_round();
    auditor.on_send(NodeId(0), NodeId(1), &m);
    assert_eq!(auditor.finish().len(), 1);
}

/// Overlapping per-worker write windows within one round are the shard-race
/// signature; the finding names both shards and both windows. Disjoint
/// windows — and the same window in a later round — are fine.
#[test]
fn overlapping_shard_windows_are_caught_with_provenance() {
    let graph = generators::cycle(8);
    let mut auditor = Auditor::new(&graph, AuditConfig::collect(SEED));
    auditor.end_round();
    auditor.end_round(); // round 2
    auditor.set_shard(Some(0));
    auditor.record_window(0, 0, 4);
    auditor.set_shard(Some(1));
    auditor.record_window(1, 4, 8); // disjoint: legal
    auditor.set_shard(Some(2));
    auditor.record_window(2, 3, 4); // overlaps shard 0's window (only)
    let violations: Vec<Violation> = auditor.finish();
    assert_eq!(violations.len(), 1);
    let v = &violations[0];
    assert_eq!(
        v.kind,
        ViolationKind::WindowOverlap {
            other_shard: 0,
            other_window: (0, 4),
            window: (3, 4),
        }
    );
    assert_eq!(v.round, 2);
    assert_eq!(v.shard, Some(2), "provenance names the offending shard");
    assert_eq!(v.seed, SEED);
}

/// Deny mode panics at the first violation with the full provenance string.
#[test]
#[should_panic(expected = "CONGEST audit violation")]
fn deny_mode_panics_with_provenance() {
    let graph = generators::cycle(8);
    let mut auditor = Auditor::new(&graph, AuditConfig::deny(SEED));
    auditor.on_send(NodeId(0), NodeId(5), &Message::tagged(9));
}

/// Audited runs are bit-identical to plain runs — with zero violations —
/// at every thread count, including the replayed send logs of rounds split
/// across threads, and an audited instrumented run records the same trace,
/// per-edge counters and utilized edges as a plain instrumented one.
#[test]
fn audited_runs_match_plain_runs_with_zero_violations() {
    let mut rng = StdRng::seed_from_u64(0xc0ffee);
    let graph = generators::connected_gnp(120, 0.06, &mut rng);
    let ids = IdAssignment::random(
        &graph,
        symbreak_graphs::IdSpace::CUBIC,
        &mut StdRng::seed_from_u64(42),
    );
    let sim = SyncSimulator::new(&graph, &ids, KtLevel::KT1);
    for plain in [SyncConfig::default(), SyncConfig::instrumented()] {
        let base = sim.run(
            SyncConfig {
                threads: 1,
                ..plain
            },
            flood(),
        );
        for threads in [1, 4] {
            let config = SyncConfig { threads, ..plain };
            let (report, violations) =
                sim.run_audited(config, &AuditConfig::collect(SEED), flood());
            assert!(violations.is_empty(), "threads={threads}: {violations:?}");
            assert_eq!(report, base, "audited report drifted at threads={threads}");
        }
    }
}
