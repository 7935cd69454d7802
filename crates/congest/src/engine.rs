//! The reusable round engine shared by the synchronous and asynchronous
//! simulators.
//!
//! Three pieces, all allocation-frugal:
//!
//! * [`NodeRuntime`] — owns the node automata plus a flat (CSR-style)
//!   neighbour array, and runs single-node activations: call
//!   [`NodeAlgorithm::on_round`] with a [`RoundContext`] whose sink checks
//!   each send against the CONGEST bit budget and hands it on to a
//!   caller-supplied sink at once. No outbox buffers sends in between: the
//!   synchronous loop's sink writes each one once, into the
//!   [`DeliveryBuffer`] or into its window's staging vector. Both
//!   simulators drive their delivery policies through this one code path.
//!   For rounds the synchronous loop splits across threads,
//!   [`NodeRuntime::shard_views`] cuts the automata into disjoint
//!   [`ShardView`]s over contiguous node ranges, each steppable from its
//!   own thread with no shared mutable state.
//! * [`MessageArena`] + [`DeliveryBuffer`] — the synchronous double buffer,
//!   with two delivery layouts:
//!   - **sender-major scatter** (the default): messages are staged in sender
//!     order and [`DeliveryBuffer::flip`] counting-sorts them by receiver
//!     into one flat `Vec<Message>`;
//!   - **receiver-major gather** (dense rounds): when the round loop
//!     predicts traffic comparable to the edge count on a high-degree graph
//!     ([`NodeRuntime::dense_round`]), staging writes each message once into
//!     a per-receiver bucket and `flip` *swaps* the buckets into the arena —
//!     no second copy, closing the scatter's double-write gap on
//!     clique-like all-to-all rounds.
//!
//!   Both layouts produce identical inboxes (same per-receiver contents and
//!   order), so reports are bit-identical whichever heuristic path runs.
//!   [`DeliveryBuffer::flip_shards`] is the multi-window variant: it merges
//!   per-window staging buffers with the same counting sort, walking them in
//!   window order so the merged arena is bit-identical to a one-window
//!   round.
//! * [`RoundObserver`] — compile-time-gated instrumentation. The
//!   uninstrumented fast path runs with [`NoopObserver`], whose
//!   `ACTIVE = false` constant statically removes every observation branch
//!   (including the per-message edge lookup) from the inner loop.

use symbreak_graphs::{EdgeId, Graph, IdAssignment, NodeId};

use crate::{KnowledgeView, KtLevel, Message, NodeAlgorithm, NodeInit, RoundContext};

/// Node-count bound under which the per-receiver bucket array (headers and
/// typical payloads) stays cache-resident, making receiver-major delivery
/// profitable regardless of the graph's edge locality.
const DENSE_SMALL_NODES: usize = 8192;

/// Average `|receiver − sender|` index distance under which bucket writes
/// land near the stepping cursor (cycles, grids, banded graphs), keeping the
/// receiver-major path cache-friendly on graphs of any size.
const DENSE_MAX_AVG_SPAN: u64 = 64;

/// Observer of a simulated execution, called from the engine's inner loop.
///
/// Implementations receive every delivered message (with the edge it
/// travelled on) and a callback at the end of every round. The simulator's
/// built-in instrumentation (traces, per-edge counters, utilized edges) is
/// one implementation; callers can pass their own to
/// [`crate::SyncSimulator::run_observed`] and the checkpointed entry points.
/// Messages arrive in sequential send order at every thread count.
pub trait RoundObserver {
    /// Whether this observer wants callbacks at all. When `false`, the
    /// engine statically skips the per-message edge resolution *and* the
    /// observer calls, leaving the fast path free of instrumentation
    /// branches.
    const ACTIVE: bool = true;

    /// Called once per message, after CONGEST validation, before delivery.
    /// `edge` is the graph edge the message travels on.
    fn on_message(&mut self, from: NodeId, to: NodeId, edge: EdgeId, message: &Message);

    /// Called once at the end of every executed round.
    fn on_round_end(&mut self, round: u64);
}

/// The do-nothing observer of the uninstrumented fast path.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl RoundObserver for NoopObserver {
    const ACTIVE: bool = false;

    #[inline(always)]
    fn on_message(&mut self, _from: NodeId, _to: NodeId, _edge: EdgeId, _message: &Message) {}

    #[inline(always)]
    fn on_round_end(&mut self, _round: u64) {}
}

/// Executes one node activation: runs the automaton with a [`RoundContext`]
/// whose sends are checked against the CONGEST bit budget, folded into
/// `max_bits` and fed to `sink` as they happen. Shared by
/// [`NodeRuntime::step`] (one-window rounds, the asynchronous executor) and
/// the per-window [`ShardView::step`] so the two paths cannot drift.
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
    S: FnMut(NodeId, NodeId, Message),
{
    let mut send = |to: NodeId, msg: Message| {
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
    /// Whether per-receiver buckets are cache-friendly on this graph (see
    /// [`NodeRuntime::dense_round`]); computed once at construction.
    buckets_local: bool,
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
        // Receiver-major staging writes through one bucket per receiver, so
        // it only pays off when those writes stay cache-resident: either the
        // whole bucket array is small, or senders' neighbour indices are
        // close to their own (small average edge span, e.g. cycles/grids),
        // keeping consecutive activations on neighbouring cache lines.
        let span_sum: u64 = (0..n)
            .map(|i| {
                let lo = nbr_offsets[i] as usize;
                let hi = nbr_offsets[i + 1] as usize;
                nbrs[lo..hi]
                    .iter()
                    .map(|&w| (w.0 as i64 - i as i64).unsigned_abs())
                    .sum::<u64>()
            })
            .sum();
        let buckets_local =
            n <= DENSE_SMALL_NODES || span_sum <= nbrs.len() as u64 * DENSE_MAX_AVG_SPAN;
        NodeRuntime {
            graph,
            ids,
            level,
            nodes,
            nbr_offsets,
            nbrs,
            buckets_local,
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

    /// [`NodeRuntime::dense_round`] for the case where the active list is
    /// already known to be every node (density 1): only the locality gate
    /// remains to check, making the per-round heuristic O(1).
    pub(crate) fn dense_full(&self) -> bool {
        self.buckets_local && !self.nbrs.is_empty()
    }

    /// Whether the upcoming round should use the receiver-major dense
    /// delivery path: the active set's degree sum (an upper bound on the
    /// round's traffic, reached by all-to-all broadcasts) must cover at
    /// least half of all directed edge slots, *and* the graph's bucket
    /// access pattern must be cache-friendly (`buckets_local`). On such
    /// rounds writing each message once into its receiver's bucket beats
    /// the flat layout's stage-then-scatter double write; on large graphs
    /// with scattered neighbourhoods the flat layout's sequential staging
    /// wins instead and this returns `false`.
    pub(crate) fn dense_round(&self, active: &[u32]) -> bool {
        let n = self.nbr_offsets.len() - 1;
        let dirs = self.nbrs.len() as u64;
        if dirs == 0 || !self.buckets_local {
            return false;
        }
        // The degree sum is only an upper bound on traffic; without a sender
        // quorum a handful of hubs (one star centre) would trip it every
        // round and make each flip's O(n) scan violate the round loop's
        // O(active + messages) cost contract.
        if active.len() * 4 < n {
            return false;
        }
        let active_degrees: u64 = active
            .iter()
            .map(|&i| self.degree_of(i as usize) as u64)
            .sum();
        active_degrees * 2 >= dirs
    }

    /// Activates node `i` for one round: runs its automaton on `inbox` and
    /// feeds every outgoing message — after validating the CONGEST bit
    /// budget and updating `max_bits` — to `sink` at the moment it is sent.
    /// Returns the automaton's done flag after the activation.
    ///
    /// # Panics
    ///
    /// Panics if the node sends a message exceeding `bit_limit`; sends to
    /// non-neighbours already panic inside [`RoundContext::send`].
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
        S: FnMut(NodeId, NodeId, Message),
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
        S: FnMut(NodeId, NodeId, Message),
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
/// per-node ranges, or — for dense rounds — per-receiver bucket vectors
/// swapped in wholesale by the gather path.
///
/// Ranges are *epoch-stamped*: [`DeliveryBuffer::flip`] bumps the epoch and
/// rewrites only the entries of this round's receivers, so stale ranges from
/// earlier rounds are ignored without any per-round `O(n)` clearing. The
/// `bucketed` flag records which layout the current epoch was written in;
/// stamps from older epochs are ignored either way.
pub(crate) struct MessageArena {
    /// `ranges[i]` is node `i`'s inbox range in `msgs` — valid only when
    /// `stamps[i] == epoch` and the epoch is flat.
    ranges: Vec<(u32, u32)>,
    stamps: Vec<u64>,
    epoch: u64,
    /// High-water message storage: only `msgs[..live]` is meaningful. The
    /// buffer never shrinks; `Message` is `Copy`, so stale slots past `live`
    /// need neither dropping nor clearing and each flip simply overwrites.
    msgs: Vec<Message>,
    live: usize,
    /// Whether the current epoch's inboxes live in `buckets` instead of
    /// `msgs` (receiver-major dense delivery).
    bucketed: bool,
    /// Whether the current (bucketed) epoch delivered to *every* node —
    /// sustained all-to-all rounds. Lets [`MessageArena::inbox`] skip the
    /// stamp check and [`DeliveryBuffer::flip`] skip stamping altogether.
    all_valid: bool,
    /// Per-receiver inboxes of a bucketed epoch; allocated lazily on the
    /// first dense round and swapped (not copied) with the staging buckets.
    buckets: Vec<Vec<Message>>,
}

impl MessageArena {
    pub(crate) fn new(n: usize) -> Self {
        MessageArena {
            ranges: vec![(0, 0); n],
            stamps: vec![0; n],
            epoch: 0,
            msgs: Vec::new(),
            live: 0,
            bucketed: false,
            all_valid: false,
            buckets: Vec::new(),
        }
    }

    /// Node `i`'s inbox for the current round.
    #[inline]
    pub(crate) fn inbox(&self, i: usize) -> &[Message] {
        if self.all_valid {
            // Full all-to-all epoch: every bucket is this round's inbox.
            return &self.buckets[i];
        }
        if self.stamps[i] == self.epoch {
            if self.bucketed {
                &self.buckets[i]
            } else {
                let (lo, hi) = self.ranges[i];
                &self.msgs[lo as usize..hi as usize]
            }
        } else {
            &[]
        }
    }

    /// Total number of messages currently held (the in-flight count).
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Audit support: the first pair of nodes whose current-epoch flat
    /// inbox ranges overlap, if any. Bucketed epochs hold one owned vector
    /// per receiver and are structurally disjoint.
    pub(crate) fn overlapping_inboxes(&self) -> Option<(u32, u32)> {
        if self.bucketed || self.all_valid {
            return None;
        }
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

/// The staging half of the synchronous double buffer: messages accumulate
/// here during a round, then [`DeliveryBuffer::flip`] moves them into a
/// [`MessageArena`] keyed by receiver.
///
/// Two staging layouts, chosen per round *before* stepping via
/// [`DeliveryBuffer::set_dense`]:
///
/// * **flat** (default): sender-order `staged` vector, counting-sorted into
///   the arena on flip (two writes per message);
/// * **dense**: per-receiver buckets written once at stage time and swapped
///   into the arena on flip (one write per message plus a pointer swap per
///   receiver) — the receiver-major gather path for all-to-all rounds.
pub(crate) struct DeliveryBuffer {
    staged: Vec<(u32, Message)>,
    /// Per-receiver message counts; nonzero only at indices listed in
    /// `receivers`. Reused as placement cursors during `flip`, then zeroed.
    counts: Vec<u32>,
    /// Nodes with staged messages this round (unsorted until `flip`).
    receivers: Vec<u32>,
    /// Whether this round stages into `buckets` (receiver-major).
    dense: bool,
    /// Per-receiver staging buckets of the dense path; lazily allocated,
    /// cleared lazily on first touch per round (they hold the arena's
    /// two-epochs-old buckets after a swap).
    buckets: Vec<Vec<Message>>,
    /// Messages staged this round on the dense path (`staged.len()` covers
    /// the flat path).
    dense_staged: usize,
    /// Distinct receivers touched this round on the dense path; `== n`
    /// detects full all-to-all rounds, whose flip skips stamping.
    touched: usize,
}

impl DeliveryBuffer {
    pub(crate) fn new(n: usize) -> Self {
        DeliveryBuffer {
            staged: Vec::new(),
            counts: vec![0; n],
            receivers: Vec::new(),
            dense: false,
            buckets: Vec::new(),
            dense_staged: 0,
            touched: 0,
        }
    }

    /// Selects the staging layout for the upcoming round. Must be called
    /// only while the buffer is empty (between flips).
    pub(crate) fn set_dense(&mut self, dense: bool) {
        debug_assert!(self.staged.is_empty() && self.dense_staged == 0);
        self.dense = dense;
        if dense && self.buckets.len() < self.counts.len() {
            self.buckets.resize_with(self.counts.len(), Vec::new);
        }
    }

    /// Queues one message for delivery to `to` next round.
    ///
    /// The dense path tracks receivers through the `counts` markers alone
    /// (no list push): the flip's `O(n)` scan rebuilds the sorted receiver
    /// list anyway, so staging stays at one bucket write per message.
    #[inline]
    pub(crate) fn stage(&mut self, to: NodeId, msg: Message) {
        let t = to.index();
        if self.dense {
            if self.counts[t] == 0 {
                self.counts[t] = 1;
                self.touched += 1;
                self.buckets[t].clear();
            }
            self.buckets[t].push(msg);
            self.dense_staged += 1;
        } else {
            if self.counts[t] == 0 {
                self.receivers.push(to.0);
            }
            self.counts[t] += 1;
            self.staged.push((to.0, msg));
        }
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
    /// here. The flat path runs in `O(staged + min(n, receivers·log
    /// receivers))`; the dense path in `O(receivers + n)` — both independent
    /// of stale state, with no allocations once the buffers have warmed up.
    ///
    /// Returns `true` when *every* node received a message, in which case
    /// `receivers_out` is left **empty** (the receiver set is the identity
    /// and the caller can skip materializing it).
    pub(crate) fn flip(&mut self, arena: &mut MessageArena, receivers_out: &mut Vec<u32>) -> bool {
        arena.epoch += 1;
        if self.dense {
            arena.live = self.dense_staged;
            arena.bucketed = true;
            arena.all_valid = false;
            if self.touched == 0 {
                // Nothing staged (the quiescent round closing a dense
                // workload): no swap, no scan.
                receivers_out.clear();
                return false;
            }
            if arena.buckets.len() < self.buckets.len() {
                arena.buckets.resize_with(self.buckets.len(), Vec::new);
            }
            // The gather: one pointer swap publishes every staged bucket
            // (the swapped-back arena buckets, stale by two epochs, are
            // cleared lazily on first touch by `stage`).
            std::mem::swap(&mut arena.buckets, &mut self.buckets);
            receivers_out.clear();
            let all = self.touched == self.counts.len() && self.touched > 0;
            if all {
                // Full all-to-all round: every node is a receiver, so no
                // per-node stamping is needed at all — a single arena flag
                // validates every bucket, and the receiver set is the
                // identity (left implicit; see the return value).
                arena.all_valid = true;
                self.counts.fill(0);
            } else {
                // One fused pass: collect the (ascending) receivers, stamp
                // their buckets into the new epoch and reset the touch
                // markers.
                arena.all_valid = false;
                for i in 0..self.counts.len() {
                    if self.counts[i] != 0 {
                        self.counts[i] = 0;
                        receivers_out.push(i as u32);
                        arena.stamps[i] = arena.epoch;
                    }
                }
            }
            self.dense_staged = 0;
            self.touched = 0;
            return all;
        }
        let mut staged = std::mem::take(&mut self.staged);
        self.scatter_flat(std::slice::from_mut(&mut staged), arena, receivers_out);
        self.staged = staged;
        false
    }

    /// The flat counting-sort scatter shared by [`DeliveryBuffer::flip`] and
    /// [`DeliveryBuffer::flip_shards`]: with `counts`/`receivers` already
    /// populated, sorts the receivers, carves the arena's per-receiver
    /// ranges, scatters every chunk of staged messages (chunk order = send
    /// order) and resets this buffer. Keeping one implementation is what
    /// guarantees sequential and shard-merging flips produce bit-identical arenas.
    fn scatter_flat(
        &mut self,
        staged_chunks: &mut [Vec<(u32, Message)>],
        arena: &mut MessageArena,
        receivers_out: &mut Vec<u32>,
    ) {
        self.order_receivers();
        arena.live = staged_chunks.iter().map(Vec::len).sum();
        arena.bucketed = false;
        arena.all_valid = false;
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
        for chunk in staged_chunks.iter_mut() {
            for &(to, msg) in chunk.iter() {
                let slot = self.counts[to as usize];
                arena.msgs[slot as usize] = msg;
                self.counts[to as usize] += 1;
            }
            chunk.clear();
        }
        for &r in &self.receivers {
            self.counts[r as usize] = 0;
        }
        receivers_out.clear();
        receivers_out.append(&mut self.receivers);
    }

    /// The multi-threaded flip: merges per-shard staging vectors (each in
    /// that shard's sender order) into `arena` with one counting sort,
    /// walking shards in shard order. Because the round loop's windows are
    /// contiguous slices of the ascending active list, the concatenation of
    /// their buffers *is* the one-window staging order, and the merged arena
    /// is bit-identical to a one-window flip.
    ///
    /// All shard buffers are drained; the flat layout is always used (the
    /// dense heuristic only drives one-window rounds).
    pub(crate) fn flip_shards(
        &mut self,
        shards: &mut [Vec<(u32, Message)>],
        arena: &mut MessageArena,
        receivers_out: &mut Vec<u32>,
    ) {
        debug_assert!(self.staged.is_empty() && self.dense_staged == 0);
        for shard in shards.iter() {
            for &(to, _) in shard {
                if self.counts[to as usize] == 0 {
                    self.receivers.push(to);
                }
                self.counts[to as usize] += 1;
            }
        }
        arena.epoch += 1;
        self.scatter_flat(shards, arena, receivers_out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_buffer_groups_by_receiver_preserving_send_order() {
        let mut arena = MessageArena::new(3);
        let mut buf = DeliveryBuffer::new(3);
        let mut receivers = Vec::new();
        buf.stage(NodeId(2), Message::tagged(0));
        buf.stage(NodeId(0), Message::tagged(1));
        buf.stage(NodeId(2), Message::tagged(2));
        buf.flip(&mut arena, &mut receivers);
        assert_eq!(receivers, vec![0, 2]);
        assert_eq!(arena.len(), 3);
        assert_eq!(arena.inbox(0).len(), 1);
        assert_eq!(arena.inbox(0)[0].tag(), 1);
        assert!(arena.inbox(1).is_empty());
        let tags: Vec<u16> = arena.inbox(2).iter().map(Message::tag).collect();
        assert_eq!(tags, vec![0, 2]);
    }

    #[test]
    fn flip_resets_for_reuse() {
        let mut arena = MessageArena::new(2);
        let mut buf = DeliveryBuffer::new(2);
        let mut receivers = Vec::new();
        buf.stage(NodeId(1), Message::tagged(7));
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
        buf.stage(NodeId(0), Message::tagged(9));
        buf.flip(&mut arena, &mut receivers);
        assert_eq!(receivers, vec![0]);
        assert_eq!(arena.inbox(0)[0].tag(), 9);
    }

    #[test]
    fn dense_flip_matches_flat_layout() {
        // Same staging sequence through both layouts; inboxes must agree.
        let stage_seq = [
            (NodeId(2), Message::tagged(0)),
            (NodeId(0), Message::tagged(1)),
            (NodeId(2), Message::tagged(2)),
            (NodeId(1), Message::tagged(3)),
            (NodeId(0), Message::tagged(4)),
        ];
        let mut flat_arena = MessageArena::new(3);
        let mut flat_buf = DeliveryBuffer::new(3);
        let mut dense_arena = MessageArena::new(3);
        let mut dense_buf = DeliveryBuffer::new(3);
        dense_buf.set_dense(true);
        let (mut r1, mut r2) = (Vec::new(), Vec::new());
        for (to, msg) in stage_seq {
            flat_buf.stage(to, msg);
            dense_buf.stage(to, msg);
        }
        let flat_all = flat_buf.flip(&mut flat_arena, &mut r1);
        let dense_all = dense_buf.flip(&mut dense_arena, &mut r2);
        // Every node received: the dense path signals full coverage through
        // the return value and leaves the receiver list implicit.
        assert!(!flat_all);
        assert!(dense_all);
        assert_eq!(r1, vec![0, 1, 2]);
        assert!(r2.is_empty());
        assert_eq!(flat_arena.len(), dense_arena.len());
        for i in 0..3 {
            assert_eq!(flat_arena.inbox(i), dense_arena.inbox(i), "inbox {i}");
        }
    }

    #[test]
    fn partial_dense_flip_reports_receivers() {
        let mut arena = MessageArena::new(4);
        let mut buf = DeliveryBuffer::new(4);
        buf.set_dense(true);
        buf.stage(NodeId(3), Message::tagged(1));
        buf.stage(NodeId(1), Message::tagged(2));
        let mut receivers = Vec::new();
        let all = buf.flip(&mut arena, &mut receivers);
        assert!(!all);
        assert_eq!(receivers, vec![1, 3]);
        assert_eq!(arena.len(), 2);
        assert!(arena.inbox(0).is_empty());
        assert_eq!(arena.inbox(1)[0].tag(), 2);
        assert_eq!(arena.inbox(3)[0].tag(), 1);
    }

    #[test]
    fn dense_and_flat_rounds_interleave() {
        let mut arena = MessageArena::new(2);
        let mut buf = DeliveryBuffer::new(2);
        let mut receivers = Vec::new();
        // Dense round.
        buf.set_dense(true);
        buf.stage(NodeId(0), Message::tagged(1));
        buf.stage(NodeId(1), Message::tagged(2));
        buf.flip(&mut arena, &mut receivers);
        assert_eq!(arena.inbox(0)[0].tag(), 1);
        assert_eq!(arena.inbox(1)[0].tag(), 2);
        // Flat round: stale bucket stamps must not leak.
        buf.set_dense(false);
        buf.stage(NodeId(1), Message::tagged(3));
        buf.flip(&mut arena, &mut receivers);
        assert_eq!(receivers, vec![1]);
        assert!(arena.inbox(0).is_empty());
        assert_eq!(arena.inbox(1).len(), 1);
        assert_eq!(arena.inbox(1)[0].tag(), 3);
        // Dense again: the swapped-back staging bucket (holding round-1
        // leftovers) is cleared on first touch.
        buf.set_dense(true);
        buf.stage(NodeId(0), Message::tagged(4));
        buf.flip(&mut arena, &mut receivers);
        assert_eq!(arena.len(), 1);
        let tags: Vec<u16> = arena.inbox(0).iter().map(Message::tag).collect();
        assert_eq!(tags, vec![4]);
        assert!(arena.inbox(1).is_empty());
    }

    #[test]
    fn flip_shards_matches_sequential_flip() {
        // Shard buffers concatenated in shard order == one sequential
        // staging sequence; the merged arena must be identical.
        let n = 5;
        let shard_a = vec![
            (3u32, Message::tagged(0)),
            (1, Message::tagged(1)),
            (3, Message::tagged(2)),
        ];
        let shard_b = vec![(0u32, Message::tagged(3)), (3, Message::tagged(4))];
        let shard_c: Vec<(u32, Message)> = Vec::new();

        let mut seq_arena = MessageArena::new(n);
        let mut seq_buf = DeliveryBuffer::new(n);
        let mut seq_receivers = Vec::new();
        for &(to, msg) in shard_a.iter().chain(&shard_b).chain(&shard_c) {
            seq_buf.stage(NodeId(to), msg);
        }
        seq_buf.flip(&mut seq_arena, &mut seq_receivers);

        let mut par_arena = MessageArena::new(n);
        let mut par_buf = DeliveryBuffer::new(n);
        let mut par_receivers = Vec::new();
        let mut shards = [shard_a, shard_b, shard_c];
        par_buf.flip_shards(&mut shards, &mut par_arena, &mut par_receivers);

        assert_eq!(seq_receivers, par_receivers);
        assert_eq!(seq_arena.len(), par_arena.len());
        for i in 0..n {
            assert_eq!(seq_arena.inbox(i), par_arena.inbox(i), "inbox {i}");
        }
        // Buffers drained and reusable.
        assert!(shards.iter().all(Vec::is_empty));
        par_buf.stage(NodeId(2), Message::tagged(9));
        par_buf.flip(&mut par_arena, &mut par_receivers);
        assert_eq!(par_receivers, vec![2]);
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
