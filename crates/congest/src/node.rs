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
/// and it carries the activation's message sink: [`RoundContext::send`]
/// hands each message straight to the simulator, which validates it and
/// writes it once into next round's delivery staging. Sending is only
/// permitted to direct neighbours, as in the CONGEST model.
pub struct RoundContext<'a> {
    node: NodeId,
    round: u64,
    knowledge: KnowledgeView<'a>,
    neighbors: &'a [NodeId],
    sink: &'a mut dyn FnMut(NodeId, Message),
}

impl<'a> RoundContext<'a> {
    /// A context whose sends (after the neighbour check) go to `sink`.
    #[inline]
    pub(crate) fn new(
        node: NodeId,
        round: u64,
        knowledge: KnowledgeView<'a>,
        neighbors: &'a [NodeId],
        sink: &'a mut dyn FnMut(NodeId, Message),
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
        assert!(
            self.neighbors.binary_search(&to).is_ok(),
            "node {} attempted to send to non-neighbour {}",
            self.node,
            to
        );
        (self.sink)(to, message);
    }

    /// Sends a copy of `message` to every neighbour.
    #[inline]
    pub fn broadcast(&mut self, message: &Message) {
        for &to in self.neighbors {
            (self.sink)(to, *message);
        }
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

/// Runs one activation of `node` and returns its sends in send order. The
/// naive oracles validate them after the call, independently of the
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
    let mut push = |to, msg| outbox.push((to, msg));
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

    #[test]
    fn sends_reach_the_sink_in_send_order() {
        let g = generators::path(3);
        let ids = IdAssignment::identity(3);
        let k = KnowledgeView::new(&g, &ids, KtLevel::KT1, NodeId(1));
        let nbrs = vec![NodeId(0), NodeId(2)];
        let mut out = Vec::new();
        let mut sink = |to, msg| out.push((to, msg));
        let mut ctx = RoundContext::new(NodeId(1), 0, k, &nbrs, &mut sink);
        ctx.send(NodeId(0), Message::tagged(1));
        ctx.broadcast(&Message::tagged(2));
        let tags: Vec<(NodeId, u16)> = out.iter().map(|(to, m)| (*to, m.tag())).collect();
        assert_eq!(tags, [(NodeId(0), 1), (NodeId(0), 2), (NodeId(2), 2)]);
    }

    #[test]
    #[should_panic(expected = "node v0 attempted to send to non-neighbour v2")]
    fn send_to_non_neighbor_panics() {
        let g = generators::path(3);
        let ids = IdAssignment::identity(3);
        let k = KnowledgeView::new(&g, &ids, KtLevel::KT1, NodeId(0));
        let nbrs = vec![NodeId(1)];
        let mut sink = |_, _| panic!("a rejected send must not reach the sink");
        let mut ctx = RoundContext::new(NodeId(0), 0, k, &nbrs, &mut sink);
        ctx.send(NodeId(2), Message::tagged(1));
    }

    #[test]
    fn context_accessors() {
        let g = generators::star(4);
        let ids = IdAssignment::from_vec(vec![9, 8, 7, 6]);
        let k = KnowledgeView::new(&g, &ids, KtLevel::KT1, NodeId(0));
        let nbrs: Vec<NodeId> = g.neighbor_vec(NodeId(0));
        let mut sink = |_, _| {};
        let ctx = RoundContext::new(NodeId(0), 5, k, &nbrs, &mut sink);
        assert_eq!(ctx.node(), NodeId(0));
        assert_eq!(ctx.round(), 5);
        assert_eq!(ctx.num_nodes(), 4);
        assert_eq!(ctx.own_id(), 9);
        assert_eq!(ctx.degree(), 3);
        assert_eq!(ctx.neighbors().count(), 3);
    }
}
