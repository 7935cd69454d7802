//! The lockstep batch engine: B statistically independent executions stepped
//! in lockstep over **one** shared CSR.
//!
//! Every experiment surface of the workspace reruns the same immutable graph
//! once per seed, paying graph traversal, arena setup and stage construction
//! B times for B executions. [`BatchSimulator`] amortizes that whole inner
//! loop: the adjacency is snapshotted once, and each round walks the sorted
//! **union** of the per-lane active sets, resolving every adjacency row a
//! single time and fanning the activation into all lanes that are live at
//! that node.
//!
//! Layout and determinism:
//!
//! * **Lane-major state** — the `n · B` automata live in one arena with the
//!   B lanes of a node adjacent (`nodes[i·B + k]`), so the per-node inner
//!   loop is a contiguous sweep (per-lane RNG streams and all other
//!   per-execution state are inside the automata). Done flags use the same
//!   layout.
//! * **Per-lane membership bitsets** — a round's shared frontier is the
//!   union of the per-lane active lists; an `n × ⌈B/64⌉` bitset records
//!   which lanes are active at each node and is cleared along the union list
//!   (never an O(n·B) sweep).
//! * **Per-lane double buffers** — each lane owns its own
//!   [`MessageArena`]/[`DeliveryBuffer`] pair, its active/undone lists and
//!   its message/round counters, all maintained exactly as the sequential
//!   loop maintains them. On sequential rounds each live lane picks its own
//!   delivery layout with the engine's per-round dense heuristic evaluated
//!   on *its* active list (receiver-major buckets on all-to-all traffic,
//!   flat sender-major otherwise — identical inboxes either way, see the
//!   engine docs); parallel rounds always merge flat, like the parallel
//!   engine's shard flips. Staging order is ascending node order — the
//!   sequential staging order.
//!
//! The result is the batch invariant every caller relies on: **lane k of a
//! batched run is bit-identical to a sequential [`SyncSimulator`] run
//! constructed with lane k's state** — same outputs, same message count,
//! same round count, same max message bits — at every `lanes × threads`
//! combination (asserted end-to-end by the `batch_equivalence` suite).
//!
//! The thread knob composes: [`SyncConfig::threads`] splits the union
//! frontier into degree-balanced contiguous windows stepped in parallel
//! (window-parallel outer loop, lane-vectorized inner loop). Instrumented
//! configurations (trace / utilization / per-edge) fall back to per-lane
//! sequential runs — same API, same results, without the amortization.

use symbreak_graphs::{Graph, IdAssignment, NodeId};

use crate::engine::{
    balanced_cuts, csr_buckets_local, csr_dense_round, split_ranges_mut, step_node, DeliveryBuffer,
    MessageArena,
};
use crate::sync::{next_active, MIN_ACTIVE_PER_SHARD, SHARD_OVERSUBSCRIPTION};
use crate::{
    ExecutionReport, KnowledgeView, KtLevel, Message, NodeAlgorithm, NodeInit, SimError,
    SyncConfig, SyncSimulator,
};

/// The batched multi-execution simulator: like [`SyncSimulator`], plus a
/// lane count. See the module docs for the execution model.
#[derive(Debug, Clone, Copy)]
pub struct BatchSimulator<'g> {
    graph: &'g Graph,
    ids: &'g IdAssignment,
    level: KtLevel,
}

impl<'g> BatchSimulator<'g> {
    /// Creates a batch simulator.
    ///
    /// # Panics
    ///
    /// Panics if the ID assignment does not cover exactly the graph's nodes;
    /// use [`BatchSimulator::try_new`] for a fallible constructor.
    pub fn new(graph: &'g Graph, ids: &'g IdAssignment, level: KtLevel) -> Self {
        Self::try_new(graph, ids, level).expect("ID assignment does not match the graph")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::IdAssignmentMismatch`] if the assignment does not
    /// cover exactly the graph's nodes.
    pub fn try_new(
        graph: &'g Graph,
        ids: &'g IdAssignment,
        level: KtLevel,
    ) -> Result<Self, SimError> {
        if ids.len() != graph.num_nodes() {
            return Err(SimError::IdAssignmentMismatch {
                graph_nodes: graph.num_nodes(),
                id_nodes: ids.len(),
            });
        }
        Ok(BatchSimulator { graph, ids, level })
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The ID assignment.
    pub fn ids(&self) -> &'g IdAssignment {
        self.ids
    }

    /// The KT level.
    pub fn level(&self) -> KtLevel {
        self.level
    }

    /// Runs [`SyncConfig::resolved_lanes`] lanes; see
    /// [`BatchSimulator::run_batch`].
    pub fn run<A, F>(&self, config: SyncConfig, make: F) -> Vec<ExecutionReport>
    where
        A: NodeAlgorithm + Send,
        F: FnMut(usize, NodeInit<'_>) -> A,
    {
        self.run_batch(config, config.resolved_lanes(), make)
    }

    /// Runs `lanes` executions in lockstep and returns one
    /// [`ExecutionReport`] per lane, in lane order.
    ///
    /// `make(k, init)` constructs lane `k`'s automaton for the node described
    /// by `init` and must be deterministic per `(k, node)` — typically it
    /// seeds the automaton's RNG from lane `k`'s seed. Lane `k`'s report is
    /// bit-identical to `SyncSimulator::run(config, |init| make(k, init))`.
    ///
    /// Instrumented configurations (trace, utilization or per-edge counters
    /// requested) run the lanes sequentially through [`SyncSimulator`] —
    /// identical results, no amortization.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`, or if a node sends a message exceeding the
    /// configured bit limit or addressed to a non-neighbour.
    pub fn run_batch<A, F>(
        &self,
        config: SyncConfig,
        lanes: usize,
        mut make: F,
    ) -> Vec<ExecutionReport>
    where
        A: NodeAlgorithm + Send,
        F: FnMut(usize, NodeInit<'_>) -> A,
    {
        assert!(lanes > 0, "a batched run needs at least one lane");
        if config.record_trace || config.track_utilization || config.track_per_edge {
            // Instrumentation hangs off the sequential observer loop; run
            // the lanes one by one through it. Bit-identical by definition.
            let sim = SyncSimulator::new(self.graph, self.ids, self.level);
            return (0..lanes)
                .map(|k| sim.run(config, |init| make(k, init)))
                .collect();
        }
        if crate::audit::audit_enabled() {
            // `CONGEST_AUDIT=1`: each lane runs through its own deny-mode
            // audited run with lane provenance — the same per-lane fallback
            // shape as the instrumented path, bit-identical by the batch
            // invariant.
            let sim = SyncSimulator::new(self.graph, self.ids, self.level);
            let cfg = crate::audit::AuditConfig::from_env();
            return (0..lanes)
                .map(|k| {
                    sim.run_audited(config, &cfg.with_lane(k), |init| make(k, init))
                        .0
                })
                .collect();
        }

        let threads = config.resolved_threads();
        let n = self.graph.num_nodes();
        let lw = lanes.div_ceil(64);

        // One shared CSR snapshot for every lane (the amortization target).
        let mut nbr_offsets: Vec<u32> = Vec::with_capacity(n + 1);
        let mut nbrs: Vec<NodeId> = Vec::with_capacity(self.graph.degree_sum());
        nbr_offsets.push(0);
        for v in self.graph.nodes() {
            nbrs.extend(self.graph.neighbors(v));
            nbr_offsets.push(nbrs.len() as u32);
        }
        // The dense-delivery locality gate, computed once for all lanes.
        let buckets_local = csr_buckets_local(&nbr_offsets, &nbrs);

        // Lane-major automata and done flags: node i's lanes are the
        // contiguous block [i·lanes, (i+1)·lanes).
        let mut nodes: Vec<A> = Vec::with_capacity(n * lanes);
        for i in 0..n {
            let v = NodeId(i as u32);
            for k in 0..lanes {
                nodes.push(make(
                    k,
                    NodeInit {
                        node: v,
                        num_nodes: n,
                        knowledge: KnowledgeView::new(self.graph, self.ids, self.level, v),
                    },
                ));
            }
        }
        let mut done: Vec<bool> = nodes.iter().map(NodeAlgorithm::is_done).collect();

        // Per-lane round state, maintained exactly as the sequential loop
        // maintains its single copy.
        let mut arenas: Vec<MessageArena> = (0..lanes).map(|_| MessageArena::new(n)).collect();
        let mut stagings: Vec<DeliveryBuffer> =
            (0..lanes).map(|_| DeliveryBuffer::new(n)).collect();
        let mut lane_active: Vec<Vec<u32>> = (0..lanes).map(|_| (0..n as u32).collect()).collect();
        let mut lane_undone: Vec<Vec<u32>> = vec![Vec::new(); lanes];
        let mut undone_count: Vec<usize> = (0..lanes)
            .map(|k| (0..n).filter(|&i| !done[i * lanes + k]).count())
            .collect();
        let mut finished = vec![false; lanes];
        let mut lane_completed = vec![false; lanes];
        let mut lane_rounds = vec![0u64; lanes];
        let mut lane_messages = vec![0u64; lanes];
        let mut lane_max_bits = vec![0u32; lanes];

        // The shared frontier: sorted union of the live lanes' active lists
        // plus the per-node lane-membership bitsets.
        let mut member: Vec<u64> = vec![0; n * lw];
        let mut union_active: Vec<u32> = Vec::new();
        let mut merge_scratch: Vec<u32> = Vec::new();
        let mut receivers: Vec<u32> = Vec::new();

        // Parallel-path state, reused across rounds: per-task, per-lane
        // staging buffers and undone lists (task order = ascending node
        // order, so per-lane concatenation reproduces sequential order).
        let pool = (threads > 1).then(|| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("vendored thread pool cannot fail to build")
        });
        let max_tasks = (threads * SHARD_OVERSUBSCRIPTION).max(1);
        let mut task_staged: Vec<Vec<Vec<(u32, Message)>>> = (0..max_tasks)
            .map(|_| (0..lanes).map(|_| Vec::new()).collect())
            .collect();
        let mut task_undone: Vec<Vec<Vec<u32>>> = (0..max_tasks)
            .map(|_| (0..lanes).map(|_| Vec::new()).collect())
            .collect();
        let mut task_pools: Vec<Vec<(NodeId, Message)>> = vec![Vec::new(); max_tasks];
        let mut outbox_pool: Vec<(NodeId, Message)> = Vec::new();

        let mut rounds: u64 = 0;

        loop {
            // Per-lane termination, checked at the loop top exactly like the
            // sequential loop; a finished lane freezes (its report fields
            // are final) while the others keep stepping.
            let mut all_finished = true;
            for k in 0..lanes {
                if finished[k] {
                    continue;
                }
                if rounds > 0 && arenas[k].len() == 0 && undone_count[k] == 0 {
                    finished[k] = true;
                    lane_completed[k] = true;
                    lane_rounds[k] = rounds;
                    continue;
                }
                all_finished = false;
            }
            if all_finished {
                break;
            }
            if rounds >= config.max_rounds {
                for k in 0..lanes {
                    if !finished[k] {
                        lane_rounds[k] = rounds;
                    }
                }
                break;
            }

            // Build the shared frontier: union the live lanes' active lists
            // and set their membership bits.
            union_active.clear();
            let mut first = true;
            for (k, active) in lane_active.iter().enumerate() {
                if finished[k] {
                    continue;
                }
                if first {
                    union_active.extend_from_slice(active);
                    first = false;
                } else {
                    merge_sorted_union(&union_active, active, &mut merge_scratch);
                    std::mem::swap(&mut union_active, &mut merge_scratch);
                }
                let (word, bit) = (k / 64, 1u64 << (k % 64));
                for &v in active {
                    member[v as usize * lw + word] |= bit;
                }
            }
            for k in 0..lanes {
                if !finished[k] {
                    lane_undone[k].clear();
                }
            }
            let parallel = threads > 1 && union_active.len() >= MIN_ACTIVE_PER_SHARD;
            if !parallel {
                // Pick each live lane's delivery layout from *its* active
                // list — the same per-round predicate its sequential run
                // evaluates (both layouts yield identical inboxes, so this
                // is purely a throughput knob).
                for k in 0..lanes {
                    if !finished[k] {
                        stagings[k].set_dense(csr_dense_round(
                            buckets_local,
                            &nbr_offsets,
                            &lane_active[k],
                        ));
                    }
                }
                // Sequential walk: one pass over the union list, each row
                // resolved once, lanes stepped in ascending lane order.
                for &vu in &union_active {
                    let i = vu as usize;
                    let row = &nbrs[nbr_offsets[i] as usize..nbr_offsets[i + 1] as usize];
                    for w in 0..lw {
                        let mut bits = member[i * lw + w];
                        member[i * lw + w] = 0;
                        while bits != 0 {
                            let k = w * 64 + bits.trailing_zeros() as usize;
                            bits &= bits - 1;
                            let staging_k = &mut stagings[k];
                            let mut msgs = 0u64;
                            let now_done = step_node(
                                self.graph,
                                self.ids,
                                self.level,
                                row,
                                &mut nodes[i * lanes + k],
                                NodeId(i as u32),
                                rounds,
                                arenas[k].inbox(i),
                                config.message_bit_limit,
                                &mut lane_max_bits[k],
                                &mut outbox_pool,
                                &mut |_from, to, msg| {
                                    msgs += 1;
                                    staging_k.stage(to, msg);
                                },
                            );
                            lane_messages[k] += msgs;
                            if !now_done {
                                lane_undone[k].push(vu);
                            }
                            let flag = &mut done[i * lanes + k];
                            if now_done != *flag {
                                *flag = now_done;
                                if now_done {
                                    undone_count[k] -= 1;
                                } else {
                                    undone_count[k] += 1;
                                }
                            }
                        }
                    }
                }
                for k in 0..lanes {
                    if finished[k] {
                        continue;
                    }
                    if stagings[k].flip(&mut arenas[k], &mut receivers) {
                        // Full all-to-all flip: the receiver set is the
                        // identity (left implicit by `flip`), which already
                        // covers the undone list — materialize it directly.
                        lane_active[k].clear();
                        lane_active[k].extend(0..n as u32);
                    } else {
                        next_active(&mut receivers, &lane_undone[k], &mut lane_active[k], n);
                    }
                }
            } else {
                // Parallel walk: degree-balanced contiguous windows of the
                // union list, each stepped by one claimable task into
                // task-local per-lane staging buffers.
                let cap = (threads * SHARD_OVERSUBSCRIPTION)
                    .min(union_active.len() / MIN_ACTIVE_PER_SHARD)
                    .max(1);
                let windows = balanced_cuts(union_active.len(), cap, |idx| {
                    let i = union_active[idx] as usize;
                    (nbr_offsets[i + 1] - nbr_offsets[i]) as u64 + 1
                });
                // Split the lane-major automata and done flags along the
                // windows' node ranges (scaled by the lane count).
                let node_bounds: Vec<(usize, usize)> = windows
                    .iter()
                    .map(|&(lo, hi)| (union_active[lo] as usize, union_active[hi - 1] as usize + 1))
                    .collect();
                let scaled: Vec<(usize, usize)> = node_bounds
                    .iter()
                    .map(|&(lo, hi)| (lo * lanes, hi * lanes))
                    .collect();
                let node_views = split_ranges_mut(&mut nodes, &scaled);
                let done_views = split_ranges_mut(&mut done, &scaled);
                let tasks_used = windows.len();
                let mut tasks: Vec<BatchTask<'_, A>> = Vec::with_capacity(tasks_used);
                {
                    let mut node_views = node_views.into_iter();
                    let mut done_views = done_views.into_iter();
                    let mut staged_iter = task_staged.iter_mut();
                    let mut undone_iter = task_undone.iter_mut();
                    let mut pools_iter = task_pools.iter_mut();
                    for (&(wlo, whi), &(base, _)) in windows.iter().zip(&node_bounds) {
                        tasks.push(BatchTask {
                            graph: self.graph,
                            ids: self.ids,
                            level: self.level,
                            nbr_offsets: &nbr_offsets,
                            nbrs: &nbrs,
                            nodes: node_views.next().expect("one view per window"),
                            done: done_views.next().expect("one view per window"),
                            base,
                            active_slice: &union_active[wlo..whi],
                            member: &member,
                            lanes,
                            lw,
                            staged: staged_iter.next().expect("sized max_tasks"),
                            undone: undone_iter.next().expect("sized max_tasks"),
                            outbox_pool: pools_iter.next().expect("sized max_tasks"),
                            counts: vec![(0, 0, 0); lanes],
                        });
                    }
                }

                let bit_limit = config.message_bit_limit;
                let arenas_ref = &arenas;
                if tasks.len() == 1 {
                    run_batch_task(&mut tasks[0], rounds, arenas_ref, bit_limit);
                } else {
                    let pool = pool.as_ref().expect("parallel path implies a pool");
                    pool.par_chunks_mut(&mut tasks, |_, chunk| {
                        for task in chunk {
                            run_batch_task(task, rounds, arenas_ref, bit_limit);
                        }
                    });
                }

                for task in &tasks {
                    for (k, &(msgs, bits, delta)) in task.counts.iter().enumerate() {
                        lane_messages[k] += msgs;
                        lane_max_bits[k] = lane_max_bits[k].max(bits);
                        undone_count[k] = (undone_count[k] as i64 + delta) as usize;
                    }
                }
                drop(tasks);
                // Clear the membership bits along the union list (the tasks
                // only read them).
                for &vu in &union_active {
                    let i = vu as usize;
                    member[i * lw..(i + 1) * lw].fill(0);
                }
                // Per lane: merge the task-order staging buffers (ascending
                // node order == sequential staging order) and rebuild the
                // active list.
                let mut chunk_scratch: Vec<Vec<(u32, Message)>> = Vec::with_capacity(tasks_used);
                for k in 0..lanes {
                    if finished[k] {
                        continue;
                    }
                    chunk_scratch.clear();
                    chunk_scratch.extend(
                        task_staged[..tasks_used]
                            .iter_mut()
                            .map(|per_lane| std::mem::take(&mut per_lane[k])),
                    );
                    stagings[k].flip_shards(&mut chunk_scratch, &mut arenas[k], &mut receivers);
                    for (per_lane, drained) in task_staged[..tasks_used]
                        .iter_mut()
                        .zip(chunk_scratch.drain(..))
                    {
                        per_lane[k] = drained;
                    }
                    lane_undone[k].clear();
                    for per_lane in &task_undone[..tasks_used] {
                        lane_undone[k].extend_from_slice(&per_lane[k]);
                    }
                    next_active(&mut receivers, &lane_undone[k], &mut lane_active[k], n);
                }
            }
            rounds += 1;
        }

        // Assemble the per-lane reports (outputs gathered lane-major).
        (0..lanes)
            .map(|k| ExecutionReport {
                completed: lane_completed[k],
                rounds: lane_rounds[k],
                messages: lane_messages[k],
                max_message_bits: lane_max_bits[k],
                outputs: (0..n).map(|i| nodes[i * lanes + k].output()).collect(),
                per_edge_messages: None,
                utilized_edges: None,
                trace: None,
            })
            .collect()
    }
}

/// One claimable unit of a batched round: a contiguous window of the union
/// frontier plus the lane-major automata/done slices covering its node
/// range, task-local per-lane staging buffers and undone lists, and a
/// per-lane outcome accumulator.
struct BatchTask<'a, A> {
    graph: &'a Graph,
    ids: &'a IdAssignment,
    level: KtLevel,
    nbr_offsets: &'a [u32],
    nbrs: &'a [NodeId],
    /// Lane-major automata slice for nodes `[base, …)`.
    nodes: &'a mut [A],
    done: &'a mut [bool],
    base: usize,
    active_slice: &'a [u32],
    member: &'a [u64],
    lanes: usize,
    lw: usize,
    /// `staged[k]` — lane `k`'s outgoing messages, in this window's
    /// ascending send order.
    staged: &'a mut Vec<Vec<(u32, Message)>>,
    /// `undone[k]` — lane `k`'s not-done nodes of this window (ascending).
    undone: &'a mut Vec<Vec<u32>>,
    outbox_pool: &'a mut Vec<(NodeId, Message)>,
    /// Per lane: `(messages, max_bits, undone_count delta)`.
    counts: Vec<(u64, u32, i64)>,
}

/// Steps one [`BatchTask`]: walks its window of the union frontier, resolves
/// each row once and fans the activation into every member lane — the same
/// per-lane arithmetic as the sequential batch walk, so the two cannot
/// drift.
fn run_batch_task<A: NodeAlgorithm>(
    task: &mut BatchTask<'_, A>,
    round: u64,
    arenas: &[MessageArena],
    bit_limit: u32,
) {
    let lanes = task.lanes;
    let lw = task.lw;
    for buf in task.undone.iter_mut() {
        buf.clear();
    }
    for &vu in task.active_slice {
        let i = vu as usize;
        let row = &task.nbrs[task.nbr_offsets[i] as usize..task.nbr_offsets[i + 1] as usize];
        for w in 0..lw {
            let mut bits = task.member[i * lw + w];
            while bits != 0 {
                let k = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let (msgs_k, max_bits_k, delta_k) = {
                    let c = &mut task.counts[k];
                    (&mut c.0, &mut c.1, &mut c.2)
                };
                let staged_k = &mut task.staged[k];
                let now_done = step_node(
                    task.graph,
                    task.ids,
                    task.level,
                    row,
                    &mut task.nodes[(i - task.base) * lanes + k],
                    NodeId(i as u32),
                    round,
                    arenas[k].inbox(i),
                    bit_limit,
                    max_bits_k,
                    task.outbox_pool,
                    &mut |_from, to, msg| {
                        *msgs_k += 1;
                        staged_k.push((to.0, msg));
                    },
                );
                if !now_done {
                    task.undone[k].push(vu);
                }
                let flag = &mut task.done[(i - task.base) * lanes + k];
                if now_done != *flag {
                    *flag = now_done;
                    *delta_k += if now_done { -1 } else { 1 };
                }
            }
        }
    }
}

/// Merges two sorted, duplicate-free node lists into `out` (sorted,
/// deduplicated) — the union-frontier builder. Mirrors the sync loop's
/// merge; duplicated here because that one appends into caller-owned
/// buffers with different clearing conventions.
fn merge_sorted_union(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RoundContext;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use symbreak_graphs::generators;

    /// A chatty randomized automaton: every round an undecided node draws a
    /// value, broadcasts it and decides with probability depending on the
    /// inbox — enough nondeterminism (per lane) to catch any cross-lane
    /// state bleed.
    struct Chatty {
        rng: StdRng,
        decided: bool,
        value: u64,
    }

    impl NodeAlgorithm for Chatty {
        fn on_round(&mut self, ctx: &mut RoundContext<'_>, inbox: &[Message]) {
            if self.decided {
                return;
            }
            let heard_max = inbox.iter().map(|m| m.values()[0]).max().unwrap_or(0);
            self.value = self.rng.gen::<u64>() >> 32;
            if ctx.round() > 0 && self.value > heard_max {
                self.decided = true;
                return;
            }
            ctx.broadcast(&Message::tagged(7).with_value(self.value));
        }
        fn is_done(&self) -> bool {
            self.decided
        }
        fn output(&self) -> Option<u64> {
            self.decided.then_some(self.value)
        }
    }

    fn chatty(seed: u64, i: usize) -> Chatty {
        Chatty {
            rng: StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15u64.wrapping_mul(i as u64 + 1)),
            decided: false,
            value: 0,
        }
    }

    fn assert_lanes_match_sequential(config: SyncConfig, lanes: usize) {
        let g = generators::connected_gnp(60, 0.15, &mut StdRng::seed_from_u64(5));
        let ids = IdAssignment::identity(60);
        let batch = BatchSimulator::new(&g, &ids, KtLevel::KT1);
        let reports = batch.run_batch(config, lanes, |k, init| {
            chatty(1000 + k as u64, init.node.index())
        });
        assert_eq!(reports.len(), lanes);
        let sim = SyncSimulator::new(&g, &ids, KtLevel::KT1);
        for (k, report) in reports.iter().enumerate() {
            let solo = sim.run(config, |init| chatty(1000 + k as u64, init.node.index()));
            assert_eq!(report, &solo, "lane {k} drifted from its sequential run");
        }
    }

    #[test]
    fn lanes_are_bit_identical_to_sequential_runs() {
        for lanes in [1usize, 3, 8] {
            assert_lanes_match_sequential(SyncConfig::default().with_threads(1), lanes);
        }
    }

    #[test]
    fn lanes_survive_threads_and_shards() {
        assert_lanes_match_sequential(SyncConfig::default().with_threads(4), 5);
    }

    #[test]
    fn instrumented_batch_falls_back_to_sequential_lanes() {
        let g = generators::cycle(24);
        let ids = IdAssignment::identity(24);
        let batch = BatchSimulator::new(&g, &ids, KtLevel::KT1);
        let config = SyncConfig {
            track_per_edge: true,
            ..SyncConfig::default()
        };
        let reports = batch.run_batch(config, 3, |k, init| chatty(k as u64, init.node.index()));
        for (k, report) in reports.iter().enumerate() {
            assert!(report.per_edge_messages.is_some(), "lane {k}");
            let solo = SyncSimulator::new(&g, &ids, KtLevel::KT1)
                .run(config, |init| chatty(k as u64, init.node.index()));
            assert_eq!(report, &solo);
        }
    }

    #[test]
    fn lane_count_resolution_prefers_explicit_setting() {
        assert_eq!(SyncConfig::default().with_lanes(6).resolved_lanes(), 6);
        assert!(SyncConfig::default().resolved_lanes() >= 1);
    }
}
