//! Execution traces and their decoded representations.
//!
//! Definition 2.1 of the paper describes an execution as the messages sent in
//! each round plus node states; Definition 2.2 defines two executions to be
//! *similar* if their *decoded representations* — obtained by replacing every
//! occurrence of an ID value `φ(v)` by the node name `v` — coincide. The
//! lower-bound experiments in `symbreak-lowerbounds` compare traces of a
//! comparison-based algorithm on the base graph and on a crossed graph using
//! exactly this notion.

use symbreak_graphs::{IdAssignment, NodeId};

use crate::Message;

/// One recorded message: sender, receiver and payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMessage {
    /// Sending node (simulator address).
    pub from: NodeId,
    /// Receiving node (simulator address).
    pub to: NodeId,
    /// The message payload.
    pub message: Message,
}

/// A full per-round record of every message sent during a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    rounds: Vec<Vec<TraceMessage>>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace { rounds: Vec::new() }
    }

    pub(crate) fn push_round(&mut self, messages: Vec<TraceMessage>) {
        self.rounds.push(messages);
    }

    /// Number of recorded rounds.
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Total number of recorded messages.
    pub fn num_messages(&self) -> usize {
        self.rounds.iter().map(Vec::len).sum()
    }

    /// The messages of round `i`.
    pub fn round(&self, i: usize) -> &[TraceMessage] {
        &self.rounds[i]
    }

    /// Iterates over all `(round, message)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &TraceMessage)> + '_ {
        self.rounds
            .iter()
            .enumerate()
            .flat_map(|(r, ms)| ms.iter().map(move |m| (r, m)))
    }

    /// Computes the decoded representation of this trace under the given ID
    /// assignment (Definition 2.2): every ID field is replaced by the node
    /// carrying that ID (or kept as an opaque value if no node carries it).
    pub fn decode(&self, ids: &IdAssignment) -> DecodedTrace {
        let rounds = self
            .rounds
            .iter()
            .map(|msgs| {
                let mut decoded: Vec<DecodedMessage> = msgs
                    .iter()
                    .map(|m| DecodedMessage {
                        from: m.from,
                        to: m.to,
                        tag: m.message.tag(),
                        ids: m
                            .message
                            .ids()
                            .iter()
                            .map(|&id| match ids.node_with_id(id) {
                                Some(v) => DecodedField::Node(v),
                                None => DecodedField::Unknown(id),
                            })
                            .collect(),
                        values: m.message.values().to_vec(),
                    })
                    .collect();
                // Canonical order so that per-round comparison is independent
                // of the (arbitrary) send order within a round.
                decoded.sort();
                decoded
            })
            .collect();
        DecodedTrace { rounds }
    }
}

/// An ID field after decoding: either the node that carries the ID, or the
/// raw value if no node does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DecodedField {
    /// The ID belonged to this node.
    Node(NodeId),
    /// The ID did not belong to any node of the graph.
    Unknown(u64),
}

/// A message in decoded representation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct DecodedMessage {
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// Message tag.
    pub tag: u16,
    /// Decoded ID fields.
    pub ids: Vec<DecodedField>,
    /// Ordinary fields (copied verbatim).
    pub values: Vec<u64>,
}

/// The decoded representation of a whole execution; two executions are
/// *similar* (Definition 2.2) exactly when their decoded traces are equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedTrace {
    rounds: Vec<Vec<DecodedMessage>>,
}

impl DecodedTrace {
    /// Number of rounds in the decoded trace.
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// The decoded messages of round `i` (in canonical order).
    pub fn round(&self, i: usize) -> &[DecodedMessage] {
        &self.rounds[i]
    }

    /// Whether two decoded traces are identical — the similarity relation of
    /// Definition 2.2.
    pub fn similar_to(&self, other: &DecodedTrace) -> bool {
        self == other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(from: u32, to: u32, id: u64) -> TraceMessage {
        TraceMessage {
            from: NodeId(from),
            to: NodeId(to),
            message: Message::tagged(1).with_id(id),
        }
    }

    #[test]
    fn counts() {
        let mut t = Trace::new();
        t.push_round(vec![msg(0, 1, 100), msg(1, 0, 200)]);
        t.push_round(vec![msg(0, 1, 100)]);
        assert_eq!(t.num_rounds(), 2);
        assert_eq!(t.num_messages(), 3);
        assert_eq!(t.round(0).len(), 2);
        assert_eq!(t.iter().count(), 3);
    }

    #[test]
    fn decoding_replaces_ids_with_nodes() {
        let ids = IdAssignment::from_vec(vec![100, 200]);
        let mut t = Trace::new();
        t.push_round(vec![msg(0, 1, 200), msg(1, 0, 999)]);
        let d = t.decode(&ids);
        let round = d.round(0);
        // Canonical ordering sorts by (from, to, …).
        assert_eq!(round[0].ids, vec![DecodedField::Node(NodeId(1))]);
        assert_eq!(round[1].ids, vec![DecodedField::Unknown(999)]);
    }

    #[test]
    fn similarity_is_invariant_under_order_preserving_relabeling() {
        // Execution 1: IDs (100, 200); node 0 sends node 1's ID to it.
        let ids1 = IdAssignment::from_vec(vec![100, 200]);
        let mut t1 = Trace::new();
        t1.push_round(vec![msg(0, 1, 200)]);
        // Execution 2: IDs (5, 7); same decoded behaviour.
        let ids2 = IdAssignment::from_vec(vec![5, 7]);
        let mut t2 = Trace::new();
        t2.push_round(vec![msg(0, 1, 7)]);

        assert!(t1.decode(&ids1).similar_to(&t2.decode(&ids2)));

        // Execution 3: node 0 sends its *own* ID instead — not similar.
        let mut t3 = Trace::new();
        t3.push_round(vec![msg(0, 1, 5)]);
        assert!(!t1.decode(&ids1).similar_to(&t3.decode(&ids2)));
    }

    #[test]
    fn canonical_ordering_ignores_send_order() {
        let ids = IdAssignment::from_vec(vec![1, 2, 3]);
        let mut a = Trace::new();
        a.push_round(vec![msg(0, 1, 2), msg(2, 1, 2)]);
        let mut b = Trace::new();
        b.push_round(vec![msg(2, 1, 2), msg(0, 1, 2)]);
        assert!(a.decode(&ids).similar_to(&b.decode(&ids)));
    }
}
