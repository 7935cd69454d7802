//! The reusable round engine shared by the synchronous and asynchronous
//! simulators.
//!
//! Three pieces, all allocation-frugal:
//!
//! * [`NodeRuntime`] — owns the node automata plus a flat (CSR-style)
//!   neighbour array, and runs single-node activations: call
//!   [`NodeAlgorithm::on_round`] with a [`RoundContext`] whose sink checks
//!   each send against the CONGEST bit budget and hands it on to a
//!   caller-supplied sink at once. A send is one batch — one message and
//!   its list of receivers — so a multicast pays one budget check and one
//!   sink call, not one per copy. No outbox buffers sends in between: the
//!   synchronous loop's sink stages each batch at once, into the
//!   [`DeliveryBuffer`] or into its window's [`Staged`] buffer. Both
//!   simulators drive their delivery policies through this one code path.
//!   For rounds the synchronous loop splits across threads,
//!   [`NodeRuntime::shard_views`] cuts the automata into disjoint
//!   [`ShardView`]s over contiguous node ranges, each steppable from its
//!   own thread with no shared mutable state.
//! * [`MessageArena`] + [`DeliveryBuffer`] — the synchronous double buffer.
//!   A round's sends are staged in one format, [`Staged`]: each send
//!   batch's message is stored once, and each copy is an 8-byte
//!   `(receiver, payload index)` pair, in send order.
//!   [`DeliveryBuffer::flip`] counting-sorts the copies by receiver and
//!   writes each copy's message into one flat `Vec<Message>`, so every
//!   inbox is a contiguous slice in send order.
//!   [`DeliveryBuffer::flip_shards`] runs the same scatter over the
//!   per-window buffers of a round split across threads, walking them in
//!   window order, so the merged arena is bit-identical to a one-window
//!   round.
//!
//! Nothing here observes a run: traces, per-edge counters, utilized edges,
//! the auditor and checkpoints are the synchronous loop's hooks
//! ([`crate::sync`]), which see each send as the sink hands it on.

use symbreak_graphs::{Graph, IdAssignment, NodeId};

use crate::{KnowledgeView, KtLevel, Message, NodeAlgorithm, NodeInit, RoundContext};

/// Executes one node activation: runs the automaton with a [`RoundContext`]
/// whose send batches are checked against the CONGEST bit budget, folded
/// into `max_bits` and fed to `sink` as they happen — once per batch, not
/// once per receiver. An empty batch is skipped: like a send to nobody, it
/// is neither checked nor folded. Shared by [`NodeRuntime::step`]
/// (one-window rounds, the asynchronous executor) and the per-window
/// [`ShardView::step`] so the two paths cannot drift.
#[allow(clippy::too_many_arguments)]
fn step_node<A, S>(
    graph: &Graph,
    ids: &IdAssignment,
    level: KtLevel,
    nbrs: &[NodeId],
    node: &mut A,
    v: NodeId,
    round: u64,
    inbox: &[Message],
    bit_limit: u32,
    max_bits: &mut u32,
    sink: &mut S,
) -> bool
where
    A: NodeAlgorithm,
    S: FnMut(NodeId, &[NodeId], Message),
{
    let mut send = |to: &[NodeId], msg: Message| {
        if to.is_empty() {
            return;
        }
        let bits = msg.size_bits();
        assert!(
            bits <= bit_limit,
            "node {v} sent a {bits}-bit message, exceeding the CONGEST budget of {bit_limit} bits"
        );
        *max_bits = (*max_bits).max(bits);
        sink(v, to, msg);
    };
    let knowledge = KnowledgeView::new(graph, ids, level, v);
    node.on_round(
        &mut RoundContext::new(v, round, knowledge, nbrs, &mut send),
        inbox,
    );
    node.is_done()
}

/// Owns the per-node automata and the flat neighbour table, and executes
/// single-node activations for both simulators.
pub(crate) struct NodeRuntime<'g, A> {
    graph: &'g Graph,
    ids: &'g IdAssignment,
    level: KtLevel,
    nodes: Vec<A>,
    /// CSR offsets into `nbrs`: node `i`'s neighbours are
    /// `nbrs[nbr_offsets[i] as usize .. nbr_offsets[i + 1] as usize]`.
    nbr_offsets: Vec<u32>,
    /// All neighbour lists, flattened into one allocation (the old code
    /// cloned the adjacency structure into a `Vec<Vec<NodeId>>` per run).
    nbrs: Vec<NodeId>,
}

impl<'g, A: NodeAlgorithm> NodeRuntime<'g, A> {
    /// Creates the automata via `make` and snapshots the neighbour table.
    pub(crate) fn new<F>(
        graph: &'g Graph,
        ids: &'g IdAssignment,
        level: KtLevel,
        mut make: F,
    ) -> Self
    where
        F: FnMut(NodeInit<'_>) -> A,
    {
        let n = graph.num_nodes();
        let mut nbr_offsets = Vec::with_capacity(n + 1);
        let mut nbrs = Vec::with_capacity(graph.degree_sum());
        nbr_offsets.push(0u32);
        for v in graph.nodes() {
            nbrs.extend(graph.neighbors(v));
            nbr_offsets.push(nbrs.len() as u32);
        }
        let nodes = (0..n)
            .map(|i| {
                let v = NodeId(i as u32);
                make(NodeInit {
                    node: v,
                    num_nodes: n,
                    knowledge: KnowledgeView::new(graph, ids, level, v),
                })
            })
            .collect();
        NodeRuntime {
            graph,
            ids,
            level,
            nodes,
            nbr_offsets,
            nbrs,
        }
    }

    /// Rebuilds node `i`'s automaton from the factory, as if the node had
    /// just been created (crash-with-state-reset recovery in the faulty
    /// asynchronous executor). Returns the fresh automaton's done flag.
    pub(crate) fn reset_node<F>(&mut self, i: usize, make: &mut F) -> bool
    where
        F: FnMut(NodeInit<'_>) -> A,
    {
        let v = NodeId(i as u32);
        self.nodes[i] = make(NodeInit {
            node: v,
            num_nodes: self.nodes.len(),
            knowledge: KnowledgeView::new(self.graph, self.ids, self.level, v),
        });
        self.nodes[i].is_done()
    }

    /// Shared access to node `i`'s automaton (state encoding at a
    /// checkpoint boundary; see [`crate::checkpoint`]).
    #[inline]
    pub(crate) fn node_ref(&self, i: usize) -> &A {
        &self.nodes[i]
    }

    /// Number of automata (full-state checkpoint boundaries; see
    /// [`crate::checkpoint`]).
    #[inline]
    pub(crate) fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Mutable access to node `i`'s automaton (state restoration when
    /// resuming from a checkpoint; see [`crate::checkpoint`]).
    #[inline]
    pub(crate) fn node_mut(&mut self, i: usize) -> &mut A {
        &mut self.nodes[i]
    }

    /// Current done flag of every automaton (used to seed the skip list).
    pub(crate) fn done_flags(&self) -> Vec<bool> {
        self.nodes.iter().map(NodeAlgorithm::is_done).collect()
    }

    /// Final outputs of every automaton.
    pub(crate) fn outputs(&self) -> Vec<Option<u64>> {
        self.nodes.iter().map(NodeAlgorithm::output).collect()
    }

    /// Degree of node `i` (its number of incident edge endpoints).
    #[inline]
    pub(crate) fn degree_of(&self, i: usize) -> u32 {
        self.nbr_offsets[i + 1] - self.nbr_offsets[i]
    }

    /// Activates node `i` for one round: runs its automaton on `inbox` and
    /// feeds every nonempty send batch — after validating the CONGEST bit
    /// budget and updating `max_bits` — to `sink` as `(sender, receivers,
    /// message)` at the moment it is sent. Returns the automaton's done
    /// flag after the activation.
    ///
    /// # Panics
    ///
    /// Panics if the node sends a message exceeding `bit_limit`; sends to
    /// non-neighbours already panic inside [`RoundContext`].
    pub(crate) fn step<S>(
        &mut self,
        i: usize,
        round: u64,
        inbox: &[Message],
        bit_limit: u32,
        max_bits: &mut u32,
        sink: &mut S,
    ) -> bool
    where
        S: FnMut(NodeId, &[NodeId], Message),
    {
        let lo = self.nbr_offsets[i] as usize;
        let hi = self.nbr_offsets[i + 1] as usize;
        step_node(
            self.graph,
            self.ids,
            self.level,
            &self.nbrs[lo..hi],
            &mut self.nodes[i],
            NodeId(i as u32),
            round,
            inbox,
            bit_limit,
            max_bits,
            sink,
        )
    }

    /// Splits the automata into disjoint mutable [`ShardView`]s, one per
    /// entry of `node_bounds` (ascending, non-overlapping `[start, end)`
    /// node-index ranges). Each view can step its own nodes from a separate
    /// thread; immutable state (graph, IDs, neighbour table) is shared.
    ///
    /// # Panics
    ///
    /// Panics if the ranges are not ascending and disjoint or exceed the
    /// node count.
    pub(crate) fn shard_views<'rt>(
        &'rt mut self,
        node_bounds: &[(usize, usize)],
    ) -> Vec<ShardView<'rt, 'g, A>> {
        split_ranges_mut(&mut self.nodes, node_bounds)
            .into_iter()
            .zip(node_bounds)
            .map(|(nodes, &(start, _end))| ShardView {
                graph: self.graph,
                ids: self.ids,
                level: self.level,
                nbr_offsets: &self.nbr_offsets,
                nbrs: &self.nbrs,
                base: start,
                nodes,
            })
            .collect()
    }
}

/// A disjoint mutable view over a contiguous node-index range of a
/// [`NodeRuntime`], steppable independently of (and concurrently with) the
/// runtime's other shards.
pub(crate) struct ShardView<'rt, 'g, A> {
    graph: &'g Graph,
    ids: &'g IdAssignment,
    level: KtLevel,
    nbr_offsets: &'rt [u32],
    nbrs: &'rt [NodeId],
    /// Node index of `nodes[0]`.
    base: usize,
    nodes: &'rt mut [A],
}

impl<A: NodeAlgorithm> ShardView<'_, '_, A> {
    /// Like [`NodeRuntime::step`], for a *global* node index `i` inside this
    /// shard's range.
    pub(crate) fn step<S>(
        &mut self,
        i: usize,
        round: u64,
        inbox: &[Message],
        bit_limit: u32,
        max_bits: &mut u32,
        sink: &mut S,
    ) -> bool
    where
        S: FnMut(NodeId, &[NodeId], Message),
    {
        let lo = self.nbr_offsets[i] as usize;
        let hi = self.nbr_offsets[i + 1] as usize;
        step_node(
            self.graph,
            self.ids,
            self.level,
            &self.nbrs[lo..hi],
            &mut self.nodes[i - self.base],
            NodeId(i as u32),
            round,
            inbox,
            bit_limit,
            max_bits,
            sink,
        )
    }
}

/// Cuts `0..len` into at most `max_shards` contiguous ranges with near-equal
/// weight sums, where `weight(i)` is the cost of item `i`.
///
/// This is the quantile cut behind the round loop's claimed windows
/// (`sync::plan_shards`): walk the items accumulating
/// weight and close
/// shard `k` once the `k`-th quantile of the total weight is reached —
/// early if the remaining items are only just enough to keep every later
/// shard nonempty. Cuts depend only on `len`, `max_shards` and the weights —
/// never on execution order — so downstream merges that walk shards in
/// shard order are deterministic.
///
/// Returns exactly `min(max_shards, len)` ascending, contiguous, nonempty
/// `[start, end)` ranges covering `0..len` (a single `(0, 0)` range when
/// `len == 0`).
pub(crate) fn balanced_cuts<W>(len: usize, max_shards: usize, weight: W) -> Vec<(usize, usize)>
where
    W: Fn(usize) -> u64,
{
    let max_shards = max_shards.min(len).max(1);
    if max_shards == 1 {
        return vec![(0, len)];
    }
    let total: u64 = (0..len).map(&weight).sum();
    let mut bounds = Vec::with_capacity(max_shards);
    let mut lo = 0usize;
    let mut acc = 0u64;
    let mut k = 1usize;
    for idx in 0..len {
        acc += weight(idx);
        let remaining = len - (idx + 1);
        // Close shard k at its weight quantile — or immediately when the
        // remaining items are only just enough to hand every later shard one
        // item, which keeps the shard count exact even under weight skew.
        if k < max_shards
            && (acc * max_shards as u64 >= total * k as u64 || remaining == max_shards - k)
            && remaining >= max_shards - k
        {
            bounds.push((lo, idx + 1));
            lo = idx + 1;
            k += 1;
        }
    }
    bounds.push((lo, len));
    bounds
}

/// Splits `data` into disjoint mutable sub-slices, one per `[start, end)`
/// range (ascending, non-overlapping). Used to hand each stepping thread its
/// own window of the shared `done` flags.
pub(crate) fn split_ranges_mut<'a, T>(
    data: &'a mut [T],
    ranges: &[(usize, usize)],
) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(ranges.len());
    let mut rest = data;
    let mut consumed = 0usize;
    for &(start, end) in ranges {
        let (_skip, tail) = rest.split_at_mut(start - consumed);
        let (mine, tail) = tail.split_at_mut(end - start);
        rest = tail;
        consumed = end;
        out.push(mine);
    }
    out
}

/// Flat per-round inbox storage: one `Vec<Message>` partitioned into
/// per-node ranges.
///
/// Ranges are *epoch-stamped*: [`DeliveryBuffer::flip`] bumps the epoch and
/// rewrites only the entries of this round's receivers, so stale ranges from
/// earlier rounds are ignored without any per-round `O(n)` clearing.
pub(crate) struct MessageArena {
    /// `ranges[i]` is node `i`'s inbox range in `msgs` — valid only when
    /// `stamps[i] == epoch`.
    ranges: Vec<(u32, u32)>,
    stamps: Vec<u64>,
    epoch: u64,
    /// High-water message storage: only `msgs[..live]` is meaningful. The
    /// buffer never shrinks; `Message` is `Copy`, so stale slots past `live`
    /// need neither dropping nor clearing and each flip simply overwrites.
    msgs: Vec<Message>,
    live: usize,
}

impl MessageArena {
    pub(crate) fn new(n: usize) -> Self {
        MessageArena {
            ranges: vec![(0, 0); n],
            stamps: vec![0; n],
            epoch: 0,
            msgs: Vec::new(),
            live: 0,
        }
    }

    /// Node `i`'s inbox for the current round.
    #[inline]
    pub(crate) fn inbox(&self, i: usize) -> &[Message] {
        if self.stamps[i] == self.epoch {
            let (lo, hi) = self.ranges[i];
            &self.msgs[lo as usize..hi as usize]
        } else {
            &[]
        }
    }

    /// Total number of messages currently held (the in-flight count).
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Audit support: the first pair of nodes whose current-epoch inbox
    /// ranges overlap, if any.
    pub(crate) fn overlapping_inboxes(&self) -> Option<(u32, u32)> {
        let mut spans: Vec<(u32, u32, u32)> = (0..self.ranges.len())
            .filter(|&i| self.stamps[i] == self.epoch)
            .filter_map(|i| {
                let (lo, hi) = self.ranges[i];
                (hi > lo).then_some((lo, hi, i as u32))
            })
            .collect();
        spans.sort_unstable();
        spans
            .windows(2)
            .find(|w| w[1].0 < w[0].1)
            .map(|w| (w[0].2, w[1].2))
    }
}

/// Sends staged in sender order, each send batch's message stored once:
/// `payloads` holds one message per batch and `copies` one
/// `(receiver, payload index)` pair per copy, so a broadcast to `d`
/// neighbours stages one 48-byte message plus `8·d` bytes. The one-window
/// [`DeliveryBuffer`] and every claimed window of a round split across
/// threads stage in this one format, and [`DeliveryBuffer::flip_shards`]
/// delivers both with one scatter.
#[derive(Default)]
pub(crate) struct Staged {
    payloads: Vec<Message>,
    copies: Vec<(u32, u32)>,
}

impl Staged {
    /// Stages one send batch: `msg` once, and one copy for each node of
    /// `to`, in list order.
    #[inline]
    pub(crate) fn push(&mut self, to: &[NodeId], msg: Message) {
        let k = self.payloads.len() as u32;
        self.payloads.push(msg);
        self.copies.extend(to.iter().map(|r| (r.0, k)));
    }
}

/// The staging half of the synchronous double buffer: messages accumulate
/// here during a round, then [`DeliveryBuffer::flip`] moves them into a
/// [`MessageArena`] keyed by receiver.
///
/// Messages arrive one send batch at a time through
/// [`DeliveryBuffer::stage_each`] — one message and its receivers — and
/// are kept in the [`Staged`] format, the message once and 8 bytes per
/// copy. A single message, such as one replayed from a checkpoint, is a
/// batch of one. The flip writes each copy's message into the arena once,
/// so a round holds one full message per copy only there.
pub(crate) struct DeliveryBuffer {
    staged: Staged,
    /// Per-receiver message counts; nonzero only at indices listed in
    /// `receivers`. Reused as placement cursors during a flip, then zeroed.
    counts: Vec<u32>,
    /// Nodes with staged messages this round (unsorted until the flip).
    receivers: Vec<u32>,
}

impl DeliveryBuffer {
    pub(crate) fn new(n: usize) -> Self {
        DeliveryBuffer {
            staged: Staged::default(),
            counts: vec![0; n],
            receivers: Vec::new(),
        }
    }

    /// Queues one copy of `msg` for delivery to each node of `to` next
    /// round, in list order: one send batch, staged with its message once.
    #[inline]
    pub(crate) fn stage_each(&mut self, to: &[NodeId], msg: Message) {
        self.staged.push(to, msg);
    }

    /// Sorts `receivers` ascending: a comparison sort when the list is small
    /// relative to the node count, otherwise an `O(n)` scan over `counts`
    /// (dense rounds touch most nodes, where `k log k` loses to `n`).
    fn order_receivers(&mut self) {
        if self.receivers.len() * 16 >= self.counts.len() {
            self.receivers.clear();
            for (i, &c) in self.counts.iter().enumerate() {
                if c != 0 {
                    self.receivers.push(i as u32);
                }
            }
        } else {
            self.receivers.sort_unstable();
        }
    }

    /// Moves the staged messages into `arena`, grouped by receiver (in
    /// ascending receiver order, preserving send order within each
    /// receiver), and resets this buffer. `receivers_out` is overwritten
    /// with the sorted receiver list — the round loop unions it with the
    /// non-done nodes to form the next round's active set.
    ///
    /// The arena's previous contents (last round's inboxes) are dropped
    /// here. A flip runs in `O(copies + min(n, receivers·log receivers))`,
    /// independent of stale state, with no allocations once the buffers
    /// have warmed up.
    pub(crate) fn flip(&mut self, arena: &mut MessageArena, receivers_out: &mut Vec<u32>) {
        let mut staged = std::mem::take(&mut self.staged);
        self.flip_shards(std::slice::from_mut(&mut staged), arena, receivers_out);
        self.staged = staged;
    }

    /// The counting-sort scatter behind every flip: merges staging buffers
    /// (each in its window's sender order) into `arena`, walking them in
    /// slice order, and drains them. [`DeliveryBuffer::flip`] passes its
    /// own buffer alone; a round split across threads passes its windows'
    /// buffers. Because the round loop's windows are contiguous slices of
    /// the ascending active list, the concatenation of their buffers *is*
    /// the one-window staging order, and this one implementation is what
    /// makes the merged arena bit-identical to a one-window flip.
    pub(crate) fn flip_shards(
        &mut self,
        shards: &mut [Staged],
        arena: &mut MessageArena,
        receivers_out: &mut Vec<u32>,
    ) {
        for shard in shards.iter() {
            for &(to, _) in &shard.copies {
                if self.counts[to as usize] == 0 {
                    self.receivers.push(to);
                }
                self.counts[to as usize] += 1;
            }
        }
        self.order_receivers();
        arena.epoch += 1;
        arena.live = shards.iter().map(|s| s.copies.len()).sum();
        if arena.msgs.len() < arena.live {
            // Grow to the high-water mark; the placeholder fill happens at
            // most a few times per run and the scatter below overwrites
            // every live slot.
            arena.msgs.resize(arena.live, Message::tagged(u16::MAX));
        }
        let mut acc = 0u32;
        for &r in &self.receivers {
            let c = self.counts[r as usize];
            arena.ranges[r as usize] = (acc, acc + c);
            arena.stamps[r as usize] = arena.epoch;
            // Repurpose the count slot as this receiver's placement cursor.
            self.counts[r as usize] = acc;
            acc += c;
        }
        for shard in shards.iter_mut() {
            for &(to, k) in &shard.copies {
                let slot = self.counts[to as usize];
                arena.msgs[slot as usize] = shard.payloads[k as usize];
                self.counts[to as usize] += 1;
            }
            shard.payloads.clear();
            shard.copies.clear();
        }
        for &r in &self.receivers {
            self.counts[r as usize] = 0;
        }
        receivers_out.clear();
        std::mem::swap(receivers_out, &mut self.receivers);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A message whose value field, not only its tag, must survive staging.
    fn msg(tag: u16) -> Message {
        Message::tagged(tag).with_value(u64::from(tag) * 10)
    }

    fn tags(arena: &MessageArena, i: usize) -> Vec<u16> {
        arena.inbox(i).iter().map(Message::tag).collect()
    }

    #[test]
    fn delivery_buffer_groups_by_receiver_preserving_send_order() {
        let mut arena = MessageArena::new(4);
        let mut buf = DeliveryBuffer::new(4);
        let mut receivers = Vec::new();
        buf.stage_each(&[NodeId(2)], msg(0));
        buf.stage_each(&[NodeId(0)], msg(1));
        buf.stage_each(&[NodeId(2)], msg(2));
        // Multi-receiver batches, one listed out of ascending order, whose
        // receivers interleave with the single sends around them.
        buf.stage_each(&[NodeId(3), NodeId(0), NodeId(2)], msg(3));
        buf.stage_each(&[NodeId(0)], msg(4));
        buf.stage_each(&[NodeId(2), NodeId(3)], msg(5));
        buf.flip(&mut arena, &mut receivers);
        assert_eq!(receivers, vec![0, 2, 3]);
        assert_eq!(arena.len(), 9);
        assert_eq!(arena.inbox(0), [msg(1), msg(3), msg(4)]);
        assert!(arena.inbox(1).is_empty());
        assert_eq!(arena.inbox(2), [msg(0), msg(2), msg(3), msg(5)]);
        assert_eq!(arena.inbox(3), [msg(3), msg(5)]);
    }

    #[test]
    fn flip_resets_for_reuse() {
        let mut arena = MessageArena::new(2);
        let mut buf = DeliveryBuffer::new(2);
        let mut receivers = Vec::new();
        buf.stage_each(&[NodeId(1)], Message::tagged(7));
        buf.flip(&mut arena, &mut receivers);
        assert_eq!(arena.inbox(1).len(), 1);
        // Next round: nothing staged, arena empties out and stale ranges
        // from the previous epoch are ignored.
        buf.flip(&mut arena, &mut receivers);
        assert!(receivers.is_empty());
        assert_eq!(arena.len(), 0);
        assert!(arena.inbox(0).is_empty());
        assert!(arena.inbox(1).is_empty());
        // And staging works again afterwards.
        buf.stage_each(&[NodeId(0)], Message::tagged(9));
        buf.flip(&mut arena, &mut receivers);
        assert_eq!(receivers, vec![0]);
        assert_eq!(arena.inbox(0)[0].tag(), 9);
    }

    #[test]
    fn flip_shards_matches_sequential_flip() {
        // Windows concatenated in window order == one sequential staging
        // sequence; the merged arena must be identical. Batches interleave
        // their receivers within and across windows, and each window
        // numbers its payloads from 0.
        let n = 5;
        let windows: [Vec<(Vec<u32>, Message)>; 3] = [
            vec![
                (vec![3, 1], msg(0)),
                (vec![3], msg(1)),
                (vec![1, 0, 3], msg(2)),
            ],
            vec![
                (vec![0, 3], msg(3)),
                (vec![1], msg(4)),
                (vec![4, 3, 0], msg(5)),
            ],
            Vec::new(),
        ];
        let nodes = |to: &[u32]| to.iter().map(|&r| NodeId(r)).collect::<Vec<_>>();

        let mut seq_arena = MessageArena::new(n);
        let mut seq_buf = DeliveryBuffer::new(n);
        let mut seq_receivers = Vec::new();
        for (to, m) in windows.iter().flatten() {
            seq_buf.stage_each(&nodes(to), *m);
        }
        seq_buf.flip(&mut seq_arena, &mut seq_receivers);
        assert_eq!(seq_receivers, vec![0, 1, 3, 4]);
        let expected: [&[u16]; 5] = [&[2, 3, 5], &[0, 2, 4], &[], &[0, 1, 2, 3, 5], &[5]];
        for (i, want) in expected.iter().enumerate() {
            assert_eq!(tags(&seq_arena, i), *want, "inbox {i}");
        }

        let mut par_arena = MessageArena::new(n);
        let mut par_buf = DeliveryBuffer::new(n);
        let mut par_receivers = Vec::new();
        let mut shards: Vec<Staged> = windows.iter().map(|_| Staged::default()).collect();
        // Twice: the flip drains the window buffers, and their payload
        // indices restart at 0 the next round.
        for round in 0..2 {
            for (shard, window) in shards.iter_mut().zip(&windows) {
                for (to, m) in window {
                    shard.push(&nodes(to), *m);
                }
            }
            par_buf.flip_shards(&mut shards, &mut par_arena, &mut par_receivers);
            assert_eq!(seq_receivers, par_receivers, "round {round}");
            assert_eq!(seq_arena.len(), par_arena.len(), "round {round}");
            for i in 0..n {
                assert_eq!(
                    seq_arena.inbox(i),
                    par_arena.inbox(i),
                    "round {round}, inbox {i}"
                );
            }
            assert!(shards
                .iter()
                .all(|s| s.payloads.is_empty() && s.copies.is_empty()));
        }
        par_buf.stage_each(&[NodeId(2)], Message::tagged(9));
        par_buf.flip(&mut par_arena, &mut par_receivers);
        assert_eq!(par_receivers, vec![2]);
        assert_eq!(tags(&par_arena, 2), [9]);
    }

    #[test]
    fn balanced_cuts_cover_contiguously() {
        let cuts = balanced_cuts(100, 4, |_| 1);
        assert_eq!(cuts.len(), 4);
        assert_eq!(cuts[0].0, 0);
        assert_eq!(cuts.last().unwrap().1, 100);
        for w in cuts.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
        for &(lo, hi) in &cuts {
            assert!((20..=30).contains(&(hi - lo)), "unbalanced: {}", hi - lo);
        }
    }

    #[test]
    fn balanced_cuts_clamp_to_len() {
        assert_eq!(balanced_cuts(3, 8, |_| 1).len(), 3);
        assert_eq!(balanced_cuts(0, 4, |_| 1), vec![(0, 0)]);
        assert_eq!(balanced_cuts(5, 1, |_| 1), vec![(0, 5)]);
    }

    #[test]
    fn balanced_cuts_follow_weights() {
        // One heavy item at the front: it should get its own shard.
        let cuts = balanced_cuts(10, 2, |i| if i == 0 { 100 } else { 1 });
        assert_eq!(cuts, vec![(0, 1), (1, 10)]);
    }

    #[test]
    fn split_ranges_mut_yields_disjoint_windows() {
        let mut data = [0u8; 10];
        let views = split_ranges_mut(&mut data, &[(1, 3), (5, 6), (8, 10)]);
        assert_eq!(views.iter().map(|v| v.len()).collect::<Vec<_>>(), [2, 1, 2]);
        for (k, v) in views.into_iter().enumerate() {
            for x in v.iter_mut() {
                *x = k as u8 + 1;
            }
        }
        assert_eq!(data, [0, 1, 1, 0, 0, 2, 0, 0, 3, 3]);
    }
}
