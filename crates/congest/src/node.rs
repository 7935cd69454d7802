//! The node-algorithm trait and the per-round execution context.

use symbreak_graphs::NodeId;

use crate::{KnowledgeView, Message};

/// Everything a node is given when it is created, before round 0.
///
/// The factory passed to [`crate::SyncSimulator::run`] receives one
/// `NodeInit` per node and returns that node's algorithm state. Algorithms
/// should copy whatever initial knowledge they need into their own state —
/// the view is only borrowed for the duration of the call.
#[derive(Debug, Clone, Copy)]
pub struct NodeInit<'a> {
    /// The node's simulator address.
    pub node: NodeId,
    /// Number of nodes in the network.
    pub num_nodes: usize,
    /// The node's KT-ρ initial knowledge.
    pub knowledge: KnowledgeView<'a>,
}

/// The context handed to a node on every round.
///
/// It exposes the node's initial knowledge and the current round number,
/// and it carries the activation's message sink. Every send is one
/// *batch*: one message and the list of neighbours it goes to. The sink
/// takes the whole batch at once, so the simulator checks its bit budget
/// once and stages its copies in one loop, straight into next round's
/// delivery. [`RoundContext::send`] is a batch of one,
/// [`RoundContext::send_each`] a batch of any list, and
/// [`RoundContext::broadcast`] the batch of the whole neighbour row.
/// Sending is only permitted to direct neighbours, as in the CONGEST model.
pub struct RoundContext<'a> {
    node: NodeId,
    round: u64,
    knowledge: KnowledgeView<'a>,
    neighbors: &'a [NodeId],
    sink: &'a mut dyn FnMut(&[NodeId], Message),
}

impl<'a> RoundContext<'a> {
    /// A context whose send batches (after the neighbour check) go to
    /// `sink`.
    #[inline]
    pub(crate) fn new(
        node: NodeId,
        round: u64,
        knowledge: KnowledgeView<'a>,
        neighbors: &'a [NodeId],
        sink: &'a mut dyn FnMut(&[NodeId], Message),
    ) -> Self {
        RoundContext {
            node,
            round,
            knowledge,
            neighbors,
            sink,
        }
    }

    /// This node's simulator address.
    #[inline]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The current round number (0-based).
    #[inline]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Number of nodes in the network.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.knowledge.num_nodes()
    }

    /// This node's KT-ρ initial knowledge.
    #[inline]
    pub fn knowledge(&self) -> &KnowledgeView<'a> {
        &self.knowledge
    }

    /// This node's own ID.
    #[inline]
    pub fn own_id(&self) -> u64 {
        self.knowledge.own_id()
    }

    /// The node's neighbours (simulator addresses), sorted.
    #[inline]
    pub fn neighbors(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.neighbors.iter().copied()
    }

    /// The node's degree.
    #[inline]
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }

    /// Sends `message` to neighbour `to`, for delivery at the start of the
    /// next round.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not a neighbour of this node — CONGEST only allows
    /// communication along edges of the input graph. The simulators also
    /// panic on a message over their bit budget.
    #[inline]
    pub fn send(&mut self, to: NodeId, message: Message) {
        if self.neighbors.binary_search(&to).is_err() {
            self.non_neighbour(to);
        }
        (self.sink)(std::slice::from_ref(&to), message);
    }

    /// Sends a copy of `message` to each node of `to`, in list order, for
    /// delivery at the start of the next round. This is one batch: the
    /// targets are checked in one merge walk over the sorted neighbour
    /// row, and the simulator checks the message's bit budget once. A
    /// target listed below its predecessor is checked by a binary search
    /// instead, so any order is accepted, and delivered in that order; an
    /// ascending list costs O(`degree`). An empty list sends nothing.
    ///
    /// # Panics
    ///
    /// Panics, before anything is sent, if any target is not a neighbour
    /// of this node, with the same message as [`RoundContext::send`]. The
    /// simulators also panic on a message over their bit budget.
    #[inline]
    pub fn send_each(&mut self, to: &[NodeId], message: Message) {
        let row = self.neighbors;
        let (mut at, mut last) = (0, None);
        for &t in to {
            let found = if last < Some(t) {
                // In order: the walk resumes where the last target left it.
                while row.get(at).is_some_and(|&u| u < t) {
                    at += 1;
                }
                last = Some(t);
                row.get(at) == Some(&t)
            } else {
                row.binary_search(&t).is_ok()
            };
            if !found {
                self.non_neighbour(t);
            }
        }
        (self.sink)(to, message);
    }

    /// Sends a copy of `message` to every neighbour: one batch over the
    /// neighbour row, which needs no check.
    #[inline]
    pub fn broadcast(&mut self, message: &Message) {
        (self.sink)(self.neighbors, *message);
    }

    #[cold]
    #[inline(never)]
    fn non_neighbour(&self, to: NodeId) -> ! {
        panic!(
            "node {} attempted to send to non-neighbour {}",
            self.node, to
        )
    }
}

impl std::fmt::Debug for RoundContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoundContext")
            .field("node", &self.node)
            .field("round", &self.round)
            .field("knowledge", &self.knowledge)
            .field("neighbors", &self.neighbors)
            .finish_non_exhaustive()
    }
}

/// Runs one activation of `node` and returns its sends in send order, each
/// batch expanded into one entry per target. The naive oracles validate
/// them after the call, message by message and independently of the
/// engine's sink; the lockstep wrapper re-sends them wrapped.
pub(crate) fn collect_sends<A: NodeAlgorithm + ?Sized>(
    node: &mut A,
    v: NodeId,
    round: u64,
    knowledge: KnowledgeView<'_>,
    neighbors: &[NodeId],
    inbox: &[Message],
) -> Vec<(NodeId, Message)> {
    let mut outbox = Vec::new();
    let mut push = |to: &[NodeId], msg: Message| outbox.extend(to.iter().map(|&t| (t, msg)));
    node.on_round(
        &mut RoundContext::new(v, round, knowledge, neighbors, &mut push),
        inbox,
    );
    outbox
}

/// A per-node automaton executed by the simulators.
///
/// The simulator calls [`NodeAlgorithm::on_round`] once per round; in round 0
/// the inbox is empty and the call plays the role of initialisation. The run
/// terminates once every node reports [`NodeAlgorithm::is_done`] and no
/// messages are in flight.
pub trait NodeAlgorithm {
    /// Executes one round: read `inbox` (messages delivered this round), do
    /// local computation, and queue outgoing messages on `ctx`.
    fn on_round(&mut self, ctx: &mut RoundContext<'_>, inbox: &[Message]);

    /// Whether this node has terminated. A done node is still invoked if new
    /// messages arrive for it.
    ///
    /// The engine relies on this contract for its fast path: on rounds after
    /// round 0 it may *skip* invoking a node that reports done and has no
    /// incoming messages. Round 0 (the initialisation call) is always
    /// delivered to every node. Algorithms that want to act spontaneously on
    /// later rounds must therefore report `false` until they truly have
    /// nothing left to do.
    fn is_done(&self) -> bool;

    /// The node's output (colour, MIS membership, …) once the run completes.
    fn output(&self) -> Option<u64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KtLevel;
    use symbreak_graphs::{generators, IdAssignment};

    /// Runs `send` on node `v` of `g` (identity IDs, KT1) and returns the
    /// batches its context handed to the sink, in send order.
    fn batches_of<F>(g: &symbreak_graphs::Graph, v: NodeId, send: F) -> Vec<(Vec<NodeId>, u16)>
    where
        F: FnOnce(&mut RoundContext<'_>),
    {
        let ids = IdAssignment::identity(g.num_nodes());
        let k = KnowledgeView::new(g, &ids, KtLevel::KT1, v);
        let nbrs = g.neighbor_vec(v);
        let mut out = Vec::new();
        let mut sink = |to: &[NodeId], m: Message| out.push((to.to_vec(), m.tag()));
        send(&mut RoundContext::new(v, 0, k, &nbrs, &mut sink));
        out
    }

    #[test]
    fn sends_reach_the_sink_as_batches_in_send_order() {
        let g = generators::path(3);
        let batches = batches_of(&g, NodeId(1), |ctx| {
            ctx.send(NodeId(0), Message::tagged(1));
            ctx.broadcast(&Message::tagged(2));
            ctx.send_each(&[NodeId(2)], Message::tagged(3));
        });
        let expect = [
            (vec![NodeId(0)], 1),
            (vec![NodeId(0), NodeId(2)], 2),
            (vec![NodeId(2)], 3),
        ];
        assert_eq!(batches, expect);
    }

    #[test]
    fn send_each_keeps_the_list_order_of_an_unsorted_list() {
        let g = generators::star(6);
        let to = [NodeId(4), NodeId(2), NodeId(5), NodeId(1), NodeId(1)];
        let batches = batches_of(&g, NodeId(0), |ctx| ctx.send_each(&to, Message::tagged(7)));
        assert_eq!(batches, [(to.to_vec(), 7)]);
    }

    #[test]
    fn an_empty_send_each_is_an_empty_batch() {
        let g = generators::path(3);
        let batches = batches_of(&g, NodeId(1), |ctx| ctx.send_each(&[], Message::tagged(1)));
        assert_eq!(batches, [(Vec::new(), 1)]);
    }

    #[test]
    #[should_panic(expected = "node v0 attempted to send to non-neighbour v2")]
    fn send_to_non_neighbor_panics() {
        let g = generators::path(3);
        let ids = IdAssignment::identity(3);
        let k = KnowledgeView::new(&g, &ids, KtLevel::KT1, NodeId(0));
        let nbrs = vec![NodeId(1)];
        let mut sink = |_: &[NodeId], _: Message| panic!("a rejected send must not reach the sink");
        let mut ctx = RoundContext::new(NodeId(0), 0, k, &nbrs, &mut sink);
        ctx.send(NodeId(2), Message::tagged(1));
    }

    /// Node 0 of a 6-cycle has neighbours v1 and v5; `to` lists v3 among
    /// them, in order or out of it.
    fn send_each_with_a_stranger(to: &[NodeId]) {
        let g = generators::cycle(6);
        let ids = IdAssignment::identity(6);
        let k = KnowledgeView::new(&g, &ids, KtLevel::KT1, NodeId(0));
        let nbrs = g.neighbor_vec(NodeId(0));
        let mut sink =
            |_: &[NodeId], _: Message| panic!("a rejected batch must not reach the sink");
        let mut ctx = RoundContext::new(NodeId(0), 0, k, &nbrs, &mut sink);
        ctx.send_each(to, Message::tagged(1));
    }

    #[test]
    #[should_panic(expected = "node v0 attempted to send to non-neighbour v3")]
    fn send_each_to_a_non_neighbour_in_order_panics() {
        send_each_with_a_stranger(&[NodeId(1), NodeId(3), NodeId(5)]);
    }

    #[test]
    #[should_panic(expected = "node v0 attempted to send to non-neighbour v3")]
    fn send_each_to_a_non_neighbour_out_of_order_panics() {
        send_each_with_a_stranger(&[NodeId(5), NodeId(3), NodeId(1)]);
    }

    #[test]
    fn context_accessors() {
        let g = generators::star(4);
        let ids = IdAssignment::from_vec(vec![9, 8, 7, 6]);
        let k = KnowledgeView::new(&g, &ids, KtLevel::KT1, NodeId(0));
        let nbrs: Vec<NodeId> = g.neighbor_vec(NodeId(0));
        let mut sink = |_: &[NodeId], _: Message| {};
        let ctx = RoundContext::new(NodeId(0), 5, k, &nbrs, &mut sink);
        assert_eq!(ctx.node(), NodeId(0));
        assert_eq!(ctx.round(), 5);
        assert_eq!(ctx.num_nodes(), 4);
        assert_eq!(ctx.own_id(), 9);
        assert_eq!(ctx.degree(), 3);
        assert_eq!(ctx.neighbors().count(), 3);
    }
}
