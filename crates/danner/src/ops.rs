//! Real, metered broadcast and convergecast over a rooted spanning tree.
//!
//! These are the recurring communication primitives of Algorithm 1 and
//! Algorithm 2: broadcasting the leader's random seed words down the danner
//! and aggregating statistics (such as `|E(G[L])|` in Step 4 of Algorithm 1)
//! back up. Both are implemented as [`NodeAlgorithm`] automata and executed
//! by the CONGEST simulator, so every message is counted for real.
//!
//! A node's state does not grow with the payload. In the broadcast the root
//! borrows the words, every node borrows its row of the tree's children,
//! and each node keeps only the index of its next word and a running FNV-1a
//! fold. A non-root node needs no buffer: it has one parent, which sends at
//! most one word per round, and delivery is synchronous, so the words reach
//! it in index order, one per round, and it forwards each in the round it
//! arrives. In a convergecast a node keeps its running fold and a count of
//! the children that have reported.
//!
//! Each collective knows its exact round count (`height + |words|` for the
//! broadcast, `height + 1` for a convergecast) and uses it as its round cap,
//! so no tree height or payload length runs into a fixed cap.

use symbreak_congest::{
    ExecutionReport, KtLevel, Message, NodeAlgorithm, RoundContext, SyncConfig, SyncSimulator,
};
use symbreak_graphs::{Graph, IdAssignment, NodeId};

use crate::BfsTree;

/// Message tag for broadcast words.
const TAG_BCAST: u16 = 0x10;
/// Message tag for convergecast partial sums.
const TAG_UPCAST: u16 = 0x11;

/// FNV-1a offset basis: the digest of an empty word sequence.
const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// Folds one word into a node's running FNV-1a style digest.
fn fnv_step(acc: u64, word: u64) -> u64 {
    (acc ^ word).wrapping_mul(0x100000001b3)
}

/// One node of the pipelined broadcast of `words` from the tree root.
///
/// The root injects word `i` in round `i`; every other node forwards each
/// word to its children in the round it arrives. The execution therefore
/// takes `height + |words|` rounds and `(n − 1)·|words|` messages, and every
/// tree edge carries at most one message per round, as the CONGEST model
/// (and the `congest::audit` multiplicity check) requires.
///
/// The state is O(1) per node: the root borrows the payload, the node
/// borrows its children, and it keeps the index of its next word plus a
/// running [`fnv_step`] fold. A non-root node's words arrive in index order,
/// one per round, because its one parent sends at most one per round and
/// delivery is synchronous, so it needs no buffer. Its output is the fold
/// once all words have passed, which [`broadcast_words`] checks for
/// agreement.
struct BroadcastNode<'a> {
    /// The payload; only the root holds it.
    payload: Option<&'a [u64]>,
    children: &'a [NodeId],
    len: usize,
    next: usize,
    fold: u64,
}

impl<'a> BroadcastNode<'a> {
    fn new(tree: &'a BfsTree, words: &'a [u64], node: NodeId) -> Self {
        BroadcastNode {
            payload: (node == tree.root()).then_some(words),
            children: tree.children(node),
            len: words.len(),
            next: 0,
            fold: FNV_OFFSET,
        }
    }
}

impl NodeAlgorithm for BroadcastNode<'_> {
    fn on_round(&mut self, ctx: &mut RoundContext<'_>, inbox: &[Message]) {
        let word = match self.payload {
            Some(words) => words.get(self.next).copied(),
            None => inbox.first().map(|msg| {
                debug_assert_eq!(inbox.len(), 1, "one parent sends one word per round");
                debug_assert_eq!((msg.tag(), msg.values()[0]), (TAG_BCAST, self.next as u64));
                msg.values()[1]
            }),
        };
        if let Some(word) = word {
            let msg = Message::tagged(TAG_BCAST)
                .with_value(self.next as u64)
                .with_value(word);
            ctx.send_each(self.children, msg);
            self.fold = fnv_step(self.fold, word);
            self.next += 1;
        }
    }

    /// Reactive, except at the root while it injects: a forwarded word
    /// arrives through the inbox (which re-invokes a done node), so total
    /// activations are O(messages), never the all-nodes-all-rounds
    /// Θ(n·height) sweep.
    fn is_done(&self) -> bool {
        self.payload.is_none() || self.next == self.len
    }

    fn output(&self) -> Option<u64> {
        (self.next == self.len).then_some(self.fold)
    }
}

/// Broadcasts `words` from `tree.root()` to every node over the tree edges.
///
/// Returns the execution report. All communication happens inside the
/// simulator over the subgraph `carrier` (normally the danner), so the
/// returned report's message count is the real cost of the broadcast:
/// `(n − 1)·|words|` messages in exactly `height + |words|` rounds, which is
/// also the run's round cap.
///
/// Only the root holds `words`; every other node keeps O(1) state, the
/// index of its next word and a running digest. Its words arrive in index
/// order, one per round, because it has one parent, the parent sends at
/// most one word per round and delivery is synchronous, so it forwards each
/// word in the round it arrives and buffers nothing.
///
/// # Panics
///
/// Panics if the nodes fail to agree on the broadcast content (which would
/// indicate a simulator or algorithm bug) or if `words` is empty.
pub fn broadcast_words(
    carrier: &Graph,
    ids: &IdAssignment,
    tree: &BfsTree,
    words: &[u64],
) -> ExecutionReport {
    assert!(!words.is_empty(), "broadcast requires at least one word");
    let sim = SyncSimulator::new(carrier, ids, KtLevel::KT1);
    let rounds = u64::from(tree.height()) + words.len() as u64;
    let report = sim.run(SyncConfig::default().with_max_rounds(rounds), |init| {
        BroadcastNode::new(tree, words, init.node)
    });
    assert!(report.completed, "broadcast did not terminate");
    let first = report.outputs[0];
    assert!(
        report.outputs.iter().all(|o| *o == first && o.is_some()),
        "broadcast produced diverging node states"
    );
    report
}

/// One node of a convergecast (upcast): it folds its children's results
/// into its own value and, once every child has reported, sends the result
/// to its parent. `fold` is `wrapping_add` for [`convergecast_sum`] and
/// `max` for [`convergecast_max`].
struct UpcastNode<F> {
    parent: Option<NodeId>,
    num_children: usize,
    received: usize,
    acc: u64,
    sent: bool,
    fold: F,
}

impl<F: Fn(u64, u64) -> u64> NodeAlgorithm for UpcastNode<F> {
    fn on_round(&mut self, ctx: &mut RoundContext<'_>, inbox: &[Message]) {
        for msg in inbox {
            if msg.tag() == TAG_UPCAST {
                self.acc = (self.fold)(self.acc, msg.values()[0]);
                self.received += 1;
            }
        }
        if !self.sent && self.received == self.num_children {
            if let Some(p) = self.parent {
                ctx.send(p, Message::tagged(TAG_UPCAST).with_value(self.acc));
            }
            self.sent = true;
        }
    }

    /// Reactive (see [`BroadcastNode::is_done`]): an inner node waits only
    /// on child messages, so it need not occupy the active set while its
    /// subtree drains.
    fn is_done(&self) -> bool {
        true
    }

    fn output(&self) -> Option<u64> {
        self.sent.then_some(self.acc)
    }
}

/// Folds `values[v]` up the tree with `fold` and returns the root's result
/// with the report: `n − 1` messages in exactly `height + 1` rounds, which
/// is also the run's round cap.
fn upcast<F>(
    carrier: &Graph,
    ids: &IdAssignment,
    tree: &BfsTree,
    values: &[u64],
    fold: F,
) -> (u64, ExecutionReport)
where
    F: Fn(u64, u64) -> u64 + Copy + Send,
{
    assert_eq!(
        values.len(),
        carrier.num_nodes(),
        "one value per node is required"
    );
    let sim = SyncSimulator::new(carrier, ids, KtLevel::KT1);
    let rounds = u64::from(tree.height()) + 1;
    let report = sim.run(SyncConfig::default().with_max_rounds(rounds), |init| {
        UpcastNode {
            parent: tree.parent(init.node),
            num_children: tree.children(init.node).len(),
            received: 0,
            acc: values[init.node.index()],
            sent: false,
            fold,
        }
    });
    assert!(report.completed, "convergecast did not terminate");
    let result = report.outputs[tree.root().index()].expect("the root produced a result");
    (result, report)
}

/// Aggregates `values[v]` over all nodes by summation up the tree and returns
/// `(total, report)`. Costs `n − 1` messages and `height + 1` rounds.
pub fn convergecast_sum(
    carrier: &Graph,
    ids: &IdAssignment,
    tree: &BfsTree,
    values: &[u64],
) -> (u64, ExecutionReport) {
    upcast(carrier, ids, tree, values, u64::wrapping_add)
}

/// Aggregates the maximum of `values[v]` up the tree (e.g. to learn the
/// global maximum degree Δ) and returns `(max, report)`. Costs `n − 1`
/// messages and `height + 1` rounds.
pub fn convergecast_max(
    carrier: &Graph,
    ids: &IdAssignment,
    tree: &BfsTree,
    values: &[u64],
) -> (u64, ExecutionReport) {
    upcast(carrier, ids, tree, values, u64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbreak_graphs::generators;

    /// The digest of a full payload in index order: every node's broadcast
    /// output.
    fn words_digest(words: &[u64]) -> u64 {
        words.iter().fold(FNV_OFFSET, |acc, &w| fnv_step(acc, w))
    }

    #[test]
    fn convergecast_max_finds_maximum() {
        let g = generators::cycle(10);
        let ids = IdAssignment::identity(10);
        let tree = BfsTree::rooted_at(&g, NodeId(3));
        let values: Vec<u64> = (0..10).map(|i| (i * 37) % 23).collect();
        let (max, report) = convergecast_max(&g, &ids, &tree, &values);
        assert_eq!(max, *values.iter().max().unwrap());
        assert_eq!(report.messages, 9);
    }

    fn setup(n: usize) -> (Graph, IdAssignment, BfsTree) {
        let g = generators::cycle(n);
        let ids = IdAssignment::identity(n);
        let tree = BfsTree::rooted_at(&g, NodeId(0));
        (g, ids, tree)
    }

    /// The broadcast's tree shapes: a deep path (every node receives and
    /// forwards in the same round for 100 consecutive rounds), a star, a
    /// lone node, and the BFS tree of a random danner carrying Algorithm 2's
    /// payload at ε = ½.
    fn broadcast_shapes() -> Vec<(&'static str, Graph, IdAssignment, BfsTree, Vec<u64>)> {
        use crate::setup::SetupPlan;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        let mut shapes = Vec::new();
        for (name, g, root, num_words) in [
            ("path", generators::path(64), NodeId(0), 100),
            ("star", generators::star(30), NodeId(0), 7),
            ("single", generators::path(1), NodeId(0), 5),
        ] {
            let ids = IdAssignment::identity(g.num_nodes());
            let tree = BfsTree::rooted_at(&g, root);
            let words = (0..num_words).map(|_| rng.gen()).collect();
            shapes.push((name, g, ids, tree, words));
        }
        let g = generators::connected_gnp(300, 0.05, &mut rng);
        let ids = IdAssignment::random(&g, symbreak_graphs::IdSpace::CUBIC, &mut rng);
        let plan = SetupPlan::new(&g, &ids, 0.5).expect("connected input");
        let log_n = (g.num_nodes() as f64).log2();
        let alg2_bits = ((log_n.powi(3) / 0.5).ceil() as usize).max(64);
        let words = plan.draw_words(alg2_bits, &mut rng);
        assert_eq!(words.len(), 18);
        shapes.push((
            "danner",
            plan.carrier().clone(),
            ids,
            plan.tree().clone(),
            words,
        ));
        shapes
    }

    #[test]
    fn broadcast_delivers_all_words() {
        for (name, g, ids, tree, words) in broadcast_shapes() {
            let report = broadcast_words(&g, &ids, &tree, &words);
            let n = g.num_nodes() as u64;
            let w = words.len() as u64;
            assert!(report.completed, "{name}");
            // The last word leaves the root in round |words| − 1 and takes
            // `height` more rounds to reach the deepest leaf.
            assert_eq!(report.rounds, u64::from(tree.height()) + w, "{name}");
            // Each of the n − 1 tree edges carries each word exactly once.
            assert_eq!(report.messages, (n - 1) * w, "{name}");
            let bits = if n > 1 { 16 + 2 * 64 } else { 0 };
            assert_eq!(report.max_message_bits, bits, "{name}");
            let digest = Some(words_digest(&words));
            assert!(report.outputs.iter().all(|o| *o == digest), "{name}");
        }
    }

    /// The one-word-per-edge-per-round rule, checked by the auditor in
    /// this test rather than only under `CONGEST_AUDIT=1`: on the path every
    /// node receives and forwards in the same round, on the star the root
    /// sends down 29 edges at once.
    #[test]
    fn broadcast_sends_one_word_per_edge_per_round() {
        use symbreak_congest::AuditConfig;
        for (name, g, ids, tree, words) in broadcast_shapes() {
            if !matches!(name, "path" | "star") {
                continue;
            }
            let sim = SyncSimulator::new(&g, &ids, KtLevel::KT1);
            let (report, violations) =
                sim.run_audited(SyncConfig::default(), &AuditConfig::collect(0), |init| {
                    BroadcastNode::new(&tree, &words, init.node)
                });
            assert!(violations.is_empty(), "{name}: {violations:?}");
            assert_eq!(report, broadcast_words(&g, &ids, &tree, &words), "{name}");
        }
    }

    /// The round cap follows the payload: a 2-node path needs 1 + 10⁶
    /// rounds, one more than `SyncConfig::default()` allows.
    #[test]
    fn broadcast_outlasting_the_default_round_cap_completes() {
        let g = generators::path(2);
        let ids = IdAssignment::identity(2);
        let tree = BfsTree::rooted_at(&g, NodeId(0));
        let words: Vec<u64> = (0..1_000_000).collect();
        let report = broadcast_words(&g, &ids, &tree, &words);
        assert_eq!(report.rounds, 1_000_001);
        assert_eq!(report.messages, 1_000_000);
    }
    #[test]
    fn broadcast_single_word_costs_n_minus_one() {
        let (g, ids, tree) = setup(20);
        let report = broadcast_words(&g, &ids, &tree, &[42]);
        assert_eq!(report.messages, 19);
    }

    #[test]
    #[should_panic(expected = "at least one word")]
    fn broadcast_rejects_empty_payload() {
        let (g, ids, tree) = setup(4);
        let _ = broadcast_words(&g, &ids, &tree, &[]);
    }

    #[test]
    fn convergecast_sums_values() {
        let (g, ids, tree) = setup(15);
        let values: Vec<u64> = (0..15).collect();
        let (total, report) = convergecast_sum(&g, &ids, &tree, &values);
        assert_eq!(total, (0..15).sum::<u64>());
        assert_eq!(report.messages, 14);
        assert!(report.rounds as u32 <= tree.height() + 2);
    }

    #[test]
    fn convergecast_on_star_is_two_rounds() {
        let g = generators::star(30);
        let ids = IdAssignment::identity(30);
        let tree = BfsTree::rooted_at(&g, NodeId(0));
        let values = vec![1u64; 30];
        let (total, report) = convergecast_sum(&g, &ids, &tree, &values);
        assert_eq!(total, 30);
        assert_eq!(report.messages, 29);
        assert!(report.rounds <= 3);
    }

    #[test]
    #[should_panic(expected = "one value per node")]
    fn convergecast_requires_matching_lengths() {
        let (g, ids, tree) = setup(4);
        let _ = convergecast_sum(&g, &ids, &tree, &[1, 2]);
    }
}
