//! The synchronous round-driven CONGEST simulator.
//!
//! The round loop itself lives in the [`crate::engine`] primitives: a
//! [`NodeRuntime`] steps the automata, a [`DeliveryBuffer`]/[`MessageArena`]
//! pair double-buffers messages through one flat allocation per round, and
//! all instrumentation (traces, per-edge counters, utilized edges) hangs off
//! the [`RoundObserver`] trait so the uninstrumented path pays nothing for
//! it. A bit-identical naive implementation is kept in [`crate::reference`]
//! for differential tests and throughput baselines.
//!
//! Two round loops share those primitives:
//!
//! * the **sequential loop** — used whenever instrumentation is active or
//!   the resolved thread count is 1. It additionally switches the delivery
//!   buffer into its receiver-major dense layout on rounds the engine
//!   predicts to be all-to-all ([`NodeRuntime::dense_round`]).
//! * the **parallel loop** — splits each round's active list into
//!   contiguous, degree-balanced shards, steps every shard on its own thread
//!   into a thread-local staging buffer, and merges the buffers with one
//!   deterministic counting sort ([`DeliveryBuffer::flip_shards`]).
//!
//! Both produce **bit-identical** [`ExecutionReport`]s: shards are
//! contiguous slices of the ascending active list, so concatenating their
//! staging buffers in shard order reproduces the sequential staging order
//! exactly, for any thread count.

use serde::{Deserialize, Serialize};
use symbreak_graphs::{EdgeId, Graph, IdAssignment, NodeId};

use crate::audit::{audit_enabled, AuditConfig, Auditor, Violation};
use crate::engine::{
    balanced_cuts, split_ranges_mut, DeliveryBuffer, MessageArena, NodeRuntime, NoopObserver,
    RoundObserver, ShardView,
};
use crate::model::DEFAULT_MESSAGE_BITS;
use crate::trace::{Trace, TraceMessage};
use crate::{KnowledgeView, KtLevel, Message, NodeAlgorithm, NodeInit, SimError};

/// Environment variable overriding the automatic thread count of
/// [`SyncConfig::threads`]` = 0` (used by CI to exercise both the sequential
/// and the parallel loop with one test suite).
pub const THREADS_ENV: &str = "CONGEST_THREADS";

/// Rounds with fewer active nodes than this per shard run single-sharded
/// (inline, no cross-thread dispatch) — fork-join overhead would dwarf the
/// work. Exceeding it does not force parallelism; it only permits it.
const MIN_ACTIVE_PER_SHARD: usize = 32;

/// Shards per worker thread: the active list is cut into up to this many
/// shards per thread, claimed dynamically (see the vendored
/// `rayon::ThreadPool::par_chunks_mut`), so one skewed shard — a bucket
/// whose coloring traffic dwarfs its degree-balanced share, a power-law
/// hub's inbox — keeps one worker busy while the others drain the rest.
/// Shard boundaries stay deterministic, so the `flip_shards` merge order
/// (and therefore the report) is bit-identical at any thread count.
const SHARD_OVERSUBSCRIPTION: usize = 4;

/// Configuration of a synchronous run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyncConfig {
    /// Abort (with `completed = false`) after this many rounds.
    pub max_rounds: u64,
    /// Per-message size budget in bits (see [`crate::Message::size_bits`]).
    pub message_bit_limit: u32,
    /// Record the full message trace (needed by the lower-bound experiments;
    /// costs memory proportional to the number of messages).
    pub record_trace: bool,
    /// Track which edges are *utilized* in the sense of Definition 2.3.
    pub track_utilization: bool,
    /// Track per-edge message counts.
    pub track_per_edge: bool,
    /// Worker threads for round stepping. `0` (the default) resolves to the
    /// `CONGEST_THREADS` environment variable if set, else to the available
    /// CPU count. Reports are bit-identical at every thread count;
    /// instrumented runs (trace/utilization/per-edge or a custom observer)
    /// always execute sequentially.
    pub threads: usize,
}

impl Default for SyncConfig {
    fn default() -> Self {
        SyncConfig {
            max_rounds: 1_000_000,
            message_bit_limit: DEFAULT_MESSAGE_BITS,
            record_trace: false,
            track_utilization: false,
            track_per_edge: false,
            threads: 0,
        }
    }
}

impl SyncConfig {
    /// Configuration with full instrumentation (trace + utilization +
    /// per-edge counters); used by the lower-bound experiments.
    pub fn instrumented() -> Self {
        SyncConfig {
            record_trace: true,
            track_utilization: true,
            track_per_edge: true,
            ..SyncConfig::default()
        }
    }

    /// Sets the round limit.
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Sets the stepping thread count (`0` = automatic; see
    /// [`SyncConfig::threads`]).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Always `1`: every run is one execution on the plain engine. Kept
    /// only because the repo benchmark's host record
    /// (`benchmark/src/lib.rs:209`) prints it, as for
    /// [`SyncConfig::resolved_shards`]; delete it once that record drops
    /// its `lanes` field.
    pub fn resolved_lanes(&self) -> usize {
        1
    }

    /// Always `0`: the engine does not partition the graph into shards.
    /// Kept only because the repo benchmark's host record
    /// (`benchmark/src/lib.rs`) prints it; delete it once that record drops
    /// its `shards` field.
    pub fn resolved_shards(&self) -> usize {
        0
    }

    /// The effective thread count: an explicit setting wins, then the
    /// `CONGEST_THREADS` environment variable, then the CPU count.
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        if let Ok(raw) = std::env::var(THREADS_ENV) {
            if let Ok(v) = raw.trim().parse::<usize>() {
                if v > 0 {
                    return v;
                }
            }
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }
}

/// Outcome of a synchronous run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutionReport {
    /// Whether every node terminated before the round limit.
    pub completed: bool,
    /// Number of executed rounds.
    pub rounds: u64,
    /// Total number of messages sent.
    pub messages: u64,
    /// The largest message observed, in bits.
    pub max_message_bits: u32,
    /// Final per-node outputs.
    pub outputs: Vec<Option<u64>>,
    /// Per-edge message counts (if requested).
    pub per_edge_messages: Option<Vec<u64>>,
    /// Utilized-edge flags (if requested), indexed by [`EdgeId`].
    pub utilized_edges: Option<Vec<bool>>,
    /// The full message trace (if requested).
    pub trace: Option<Trace>,
}

impl ExecutionReport {
    /// Number of utilized edges (Definition 2.3), if tracked.
    pub fn utilized_edge_count(&self) -> Option<usize> {
        self.utilized_edges
            .as_ref()
            .map(|u| u.iter().filter(|&&b| b).count())
    }

    /// Whether a particular edge was utilized, if tracked.
    pub fn is_utilized(&self, e: EdgeId) -> Option<bool> {
        self.utilized_edges.as_ref().map(|u| u[e.index()])
    }
}

/// The synchronous simulator: a graph, an ID assignment and a KT level.
///
/// See the crate-level documentation for a full example.
#[derive(Debug, Clone, Copy)]
pub struct SyncSimulator<'g> {
    graph: &'g Graph,
    ids: &'g IdAssignment,
    level: KtLevel,
}

impl<'g> SyncSimulator<'g> {
    /// Creates a simulator.
    ///
    /// # Panics
    ///
    /// Panics if the ID assignment does not cover exactly the graph's nodes;
    /// use [`SyncSimulator::try_new`] for a fallible constructor.
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
        Ok(SyncSimulator { graph, ids, level })
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

    /// The knowledge view of a single node (useful for centrally-coordinated
    /// orchestration code that still wants to respect KT-ρ limits).
    pub fn knowledge_of(&self, v: NodeId) -> KnowledgeView<'g> {
        KnowledgeView::new(self.graph, self.ids, self.level, v)
    }

    /// Runs the algorithm produced per node by `make` until every node is
    /// done and no messages are in flight, or until the round limit.
    ///
    /// When `config` requests no instrumentation, the run uses the
    /// branch-free fast path ([`NoopObserver`]) — parallel across
    /// [`SyncConfig::threads`] workers when more than one resolves;
    /// otherwise the built-in `Instrumentation` observer collects whatever
    /// the config asked for on the sequential loop.
    ///
    /// Automata must be [`Send`] so the round loop *may* shard them across
    /// threads (the bound is required even for runs that resolve to one
    /// thread — monomorphization cannot depend on the runtime thread
    /// count). A `!Send` automaton can still be driven through
    /// [`crate::reference::NaiveSyncSimulator`], which is unbounded.
    ///
    /// # Panics
    ///
    /// Panics if a node sends a message exceeding the configured bit limit or
    /// sends to a non-neighbour — both indicate bugs in the node algorithm.
    pub fn run<A, F>(&self, config: SyncConfig, make: F) -> ExecutionReport
    where
        A: NodeAlgorithm + Send,
        F: FnMut(NodeInit<'_>) -> A,
    {
        if config.record_trace || config.track_utilization || config.track_per_edge {
            let mut instr = Instrumentation::new(self.graph, self.ids, config);
            let mut report = self.run_observed(config, make, &mut instr);
            let Instrumentation {
                per_edge,
                utilized,
                trace,
                ..
            } = instr;
            report.per_edge_messages = per_edge;
            report.utilized_edges = utilized;
            report.trace = trace;
            report
        } else if audit_enabled() {
            // `CONGEST_AUDIT=1`: deny-mode compliance auditing — any model
            // violation panics with full provenance, so a run that returns
            // is certified compliant. Reports are bit-identical to
            // unaudited runs.
            self.run_audited(config, &AuditConfig::from_env(), make).0
        } else {
            self.run_observed(config, make, &mut NoopObserver)
        }
    }

    /// Runs like [`SyncSimulator::run`] under a CONGEST-model compliance
    /// [`Auditor`]: every message is checked for adjacency, per-direction
    /// multiplicity and bandwidth, every parallel round for write-window
    /// disjointness and inbox aliasing (see [`crate::audit`]). Returns the
    /// report — bit-identical to an unaudited run — plus the violations
    /// (always empty when [`AuditConfig::deny`] is set: deny mode panics at
    /// the first finding instead).
    ///
    /// Unlike [`SyncSimulator::run_observed`], auditing does *not* pin the
    /// run to the sequential loop: multi-threaded configurations take the
    /// parallel path monomorphized with its audit seam on, where workers
    /// log `(from, to, message)` triples that are replayed through the
    /// auditor in deterministic shard order. The built-in
    /// instrumentation fields of the report are `None` here.
    ///
    /// # Panics
    ///
    /// Panics on the first violation when `audit.deny` is set, and on the
    /// engine's own send-validation failures like [`SyncSimulator::run`].
    pub fn run_audited<A, F>(
        &self,
        config: SyncConfig,
        audit: &AuditConfig,
        make: F,
    ) -> (ExecutionReport, Vec<Violation>)
    where
        A: NodeAlgorithm + Send,
        F: FnMut(NodeInit<'_>) -> A,
    {
        let mut auditor = Auditor::new(self.graph, *audit);
        let threads = config.resolved_threads();
        let report = if threads > 1 {
            self.run_parallel::<_, _, true>(config, make, threads, Some(&mut auditor))
        } else {
            self.run_sequential(config, make, &mut auditor)
        };
        (report, auditor.finish())
    }

    /// Runs like [`SyncSimulator::run`] with a caller-supplied
    /// [`RoundObserver`] receiving every message and round boundary.
    ///
    /// The built-in instrumentation fields of the returned
    /// [`ExecutionReport`] (`per_edge_messages`, `utilized_edges`, `trace`)
    /// are `None` here — the observer owns whatever it recorded. An *active*
    /// observer pins the run to the sequential loop (message callbacks are
    /// ordered); the report is bit-identical either way.
    pub fn run_observed<A, F, O>(
        &self,
        config: SyncConfig,
        make: F,
        observer: &mut O,
    ) -> ExecutionReport
    where
        A: NodeAlgorithm + Send,
        F: FnMut(NodeInit<'_>) -> A,
        O: RoundObserver,
    {
        let threads = config.resolved_threads();
        if !O::ACTIVE && threads > 1 {
            self.run_parallel::<_, _, false>(config, make, threads, None)
        } else {
            self.run_sequential(config, make, observer)
        }
    }

    /// The sequential round loop (also the only loop observers ever see).
    fn run_sequential<A, F, O>(
        &self,
        config: SyncConfig,
        make: F,
        observer: &mut O,
    ) -> ExecutionReport
    where
        A: NodeAlgorithm,
        F: FnMut(NodeInit<'_>) -> A,
        O: RoundObserver,
    {
        let n = self.graph.num_nodes();
        let mut runtime = NodeRuntime::new(self.graph, self.ids, self.level, make);
        let mut arena = MessageArena::new(n);
        let mut staging = DeliveryBuffer::new(n);

        let mut messages: u64 = 0;
        let mut max_bits: u32 = 0;
        let mut rounds: u64 = 0;
        let mut completed = false;

        // The loop is event-driven: a round only steps its *active* nodes —
        // this round's message receivers plus every node that is not done.
        // The `NodeAlgorithm::is_done` contract makes skipping the rest
        // sound (a done node is only re-invoked when messages arrive), and
        // round 0 activates everyone for initialisation. Per-round cost is
        // O(active + messages), independent of the node count.
        let mut active: Vec<u32> = (0..n as u32).collect();
        let mut active_all = true;
        let mut undone: Vec<u32> = Vec::new();
        let mut receivers: Vec<u32> = Vec::new();
        let mut done = runtime.done_flags();
        let mut undone_count = done.iter().filter(|&&d| !d).count();

        loop {
            if rounds > 0 && arena.len() == 0 && undone_count == 0 {
                completed = true;
                break;
            }
            if rounds >= config.max_rounds {
                break;
            }

            // Pick the delivery layout for this round's traffic before any
            // message is staged (see the engine docs: both layouts yield
            // identical inboxes, so this is purely a throughput knob). When
            // the active list is known to be every node the density check
            // collapses to the O(1) locality gate.
            staging.set_dense(if active_all {
                runtime.dense_full()
            } else {
                runtime.dense_round(&active)
            });

            undone.clear();
            // When every node is being stepped anyway, defer the undone
            // list: a full all-to-all flip never reads it, and a partial
            // flip can afford one O(n) reconstruction scan (the round was
            // already Ω(n)). Sparse rounds keep the incremental push.
            let defer_undone = active_all;
            let mut step_one = |i: usize| {
                let mut sink = |from: NodeId, to: NodeId, msg: Message| {
                    messages += 1;
                    if O::ACTIVE {
                        let edge = self
                            .graph
                            .edge_between(from, to)
                            .expect("send target verified to be a neighbour");
                        observer.on_message(from, to, edge, &msg);
                    }
                    staging.stage(to, msg);
                };
                let now_done = runtime.step(
                    i,
                    rounds,
                    arena.inbox(i),
                    config.message_bit_limit,
                    &mut max_bits,
                    &mut sink,
                );
                if now_done != done[i] {
                    done[i] = now_done;
                    if now_done {
                        undone_count -= 1;
                    } else {
                        undone_count += 1;
                    }
                }
                if !now_done && !defer_undone {
                    // Activation order is ascending, so `undone` stays
                    // sorted.
                    undone.push(i as u32);
                }
            };
            if active_all {
                // The active list is the identity: iterate it implicitly.
                for i in 0..n {
                    step_one(i);
                }
            } else {
                for &iu in &active {
                    step_one(iu as usize);
                }
            }

            if O::ACTIVE {
                observer.on_round_end(rounds);
            }
            active_all = if staging.flip(&mut arena, &mut receivers) {
                // Full all-to-all delivery: next round activates everyone,
                // no receiver list or merge required.
                true
            } else {
                if defer_undone && undone_count > 0 {
                    undone.extend(
                        done.iter()
                            .enumerate()
                            .filter(|&(_, &d)| !d)
                            .map(|(i, _)| i as u32),
                    );
                }
                next_active(&mut receivers, &undone, &mut active, n)
            };
            rounds += 1;
        }

        ExecutionReport {
            completed,
            rounds,
            messages,
            max_message_bits: max_bits,
            outputs: runtime.outputs(),
            per_edge_messages: None,
            utilized_edges: None,
            trace: None,
        }
    }

    /// The multi-core round loop: degree-balanced contiguous shards of the
    /// active list, thread-local staging, deterministic merge. With `AUDIT`
    /// set (and the matching `auditor`), every worker additionally logs its
    /// `(from, to, message)` sends; the main thread replays the logs in
    /// shard order through the auditor, records each shard's write window
    /// and checks the flipped arena — zero cost when off, exactly like the
    /// fault-injection seam.
    fn run_parallel<A, F, const AUDIT: bool>(
        &self,
        config: SyncConfig,
        make: F,
        threads: usize,
        mut auditor: Option<&mut Auditor<'_>>,
    ) -> ExecutionReport
    where
        A: NodeAlgorithm + Send,
        F: FnMut(NodeInit<'_>) -> A,
    {
        debug_assert_eq!(AUDIT, auditor.is_some());
        let n = self.graph.num_nodes();
        let mut runtime = NodeRuntime::new(self.graph, self.ids, self.level, make);
        let mut arena = MessageArena::new(n);
        let mut staging = DeliveryBuffer::new(n);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("vendored thread pool cannot fail to build");

        let mut messages: u64 = 0;
        let mut max_bits: u32 = 0;
        let mut rounds: u64 = 0;
        let mut completed = false;

        let mut active: Vec<u32> = (0..n as u32).collect();
        let mut undone: Vec<u32> = Vec::new();
        let mut receivers: Vec<u32> = Vec::new();
        let mut done = runtime.done_flags();
        let mut undone_count = done.iter().filter(|&&d| !d).count();

        // Per-shard round state, reused across rounds: staging buffers
        // (merged by `flip_shards`) and undone lists (concatenated — shard
        // order preserves ascending node order). Sized for the maximum shard
        // count: the active list is oversubscribed into up to
        // `SHARD_OVERSUBSCRIPTION` shards per thread so the pool's chunk
        // claiming can rebalance skewed shards mid-round.
        let max_shards = threads * SHARD_OVERSUBSCRIPTION;
        let mut shard_staged: Vec<Vec<(u32, Message)>> =
            (0..max_shards).map(|_| Vec::new()).collect();
        let mut shard_undone: Vec<Vec<u32>> = (0..max_shards).map(|_| Vec::new()).collect();
        // Audit send logs (empty vectors — allocation-free — when off).
        let mut shard_sent: Vec<Vec<(NodeId, NodeId, Message)>> =
            (0..max_shards).map(|_| Vec::new()).collect();

        loop {
            if rounds > 0 && arena.len() == 0 && undone_count == 0 {
                completed = true;
                break;
            }
            if rounds >= config.max_rounds {
                break;
            }

            undone.clear();
            let mut shards_used = 0usize;
            if !active.is_empty() {
                let bounds = plan_shards(&runtime, &active, max_shards);
                shards_used = bounds.len();
                let node_bounds: Vec<(usize, usize)> = bounds
                    .iter()
                    .map(|&(lo, hi)| (active[lo] as usize, active[hi - 1] as usize + 1))
                    .collect();
                let shards = runtime.shard_views(&node_bounds);
                let done_slices = split_ranges_mut(&mut done, &node_bounds);
                let mut tasks: Vec<ShardTask<'_, '_, A>> = shards
                    .into_iter()
                    .zip(&bounds)
                    .zip(shard_staged.iter_mut())
                    .zip(shard_undone.iter_mut())
                    .zip(shard_sent.iter_mut())
                    .zip(done_slices)
                    .map(
                        |(((((shard, &(lo, hi)), staged), undone_buf), sent), done_slice)| {
                            ShardTask {
                                shard,
                                active_slice: &active[lo..hi],
                                base: active[lo] as usize,
                                staged,
                                undone_buf,
                                sent,
                                done_slice,
                                outcome: (0, 0, 0),
                            }
                        },
                    )
                    .collect();

                if tasks.len() == 1 {
                    // Small round: one shard, stepped inline on the caller
                    // thread through the exact same path the workers run.
                    run_shard_task::<_, AUDIT>(
                        &mut tasks[0],
                        rounds,
                        &arena,
                        config.message_bit_limit,
                    );
                } else {
                    // Oversubscribed shards, dynamically claimed: the pool
                    // cuts the task list into single-task chunks and its
                    // workers claim them through one atomic cursor, so a
                    // heavy shard no longer stalls the round (ROADMAP
                    // "work-stealing inside rounds").
                    let arena_ref = &arena;
                    let bit_limit = config.message_bit_limit;
                    pool.par_chunks_mut(&mut tasks, |_, chunk| {
                        for task in chunk {
                            run_shard_task::<_, AUDIT>(task, rounds, arena_ref, bit_limit);
                        }
                    });
                }

                let mut pools = Vec::with_capacity(tasks.len());
                for (t, task) in tasks.into_iter().enumerate() {
                    pools.push(task.shard.into_pool());
                    let (shard_messages, shard_max_bits, undone_delta) = task.outcome;
                    messages += shard_messages;
                    max_bits = max_bits.max(shard_max_bits);
                    undone_count = (undone_count as i64 + undone_delta) as usize;
                    undone.extend_from_slice(task.undone_buf);
                    if AUDIT {
                        // Replay this shard's send log in shard order — the
                        // deterministic merge order — with shard provenance,
                        // and register its write window.
                        let aud = auditor.as_deref_mut().expect("AUDIT implies an auditor");
                        aud.set_shard(Some(t));
                        let (wlo, whi) = node_bounds[t];
                        aud.record_window(t, wlo, whi);
                        for &(from, to, msg) in task.sent.iter() {
                            aud.on_send(from, to, &msg);
                        }
                        task.sent.clear();
                    }
                }
                runtime.restore_pools(pools);
            }

            staging.flip_shards(&mut shard_staged[..shards_used], &mut arena, &mut receivers);
            if AUDIT {
                let aud = auditor.as_deref_mut().expect("AUDIT implies an auditor");
                aud.check_arena(&arena);
                aud.end_round();
            }
            next_active(&mut receivers, &undone, &mut active, n);
            rounds += 1;
        }

        ExecutionReport {
            completed,
            rounds,
            messages,
            max_message_bits: max_bits,
            outputs: runtime.outputs(),
            per_edge_messages: None,
            utilized_edges: None,
            trace: None,
        }
    }
}

/// One claimable unit of a round: a [`ShardView`] over a contiguous window
/// of the active list plus that shard's staging buffer, undone list, done
/// window and outcome accumulator. The parallel loop builds one task per
/// shard and lets the pool's workers claim them dynamically.
struct ShardTask<'a, 'rt, A> {
    shard: ShardView<'rt, 'a, A>,
    active_slice: &'a [u32],
    base: usize,
    staged: &'a mut Vec<(u32, Message)>,
    undone_buf: &'a mut Vec<u32>,
    /// Audit send log `(from, to, message)` — only written under `AUDIT`.
    sent: &'a mut Vec<(NodeId, NodeId, Message)>,
    done_slice: &'a mut [bool],
    /// `(messages, max_bits, undone_count delta)`.
    outcome: (u64, u32, i64),
}

/// Steps one [`ShardTask`] — shared by the inline single-shard path and the
/// claimed parallel path so the two cannot drift.
fn run_shard_task<A: NodeAlgorithm, const AUDIT: bool>(
    task: &mut ShardTask<'_, '_, A>,
    round: u64,
    arena: &MessageArena,
    bit_limit: u32,
) {
    step_shard::<_, AUDIT>(
        &mut task.shard,
        task.active_slice,
        task.base,
        round,
        arena,
        bit_limit,
        task.staged,
        task.undone_buf,
        task.sent,
        task.done_slice,
        &mut task.outcome,
    );
}

/// One thread's share of a round: steps `active_slice` (a contiguous window
/// of the round's ascending active list) through `shard`, staging outgoing
/// messages locally and recording done-flag transitions in the shard's
/// window of the `done` array.
#[allow(clippy::too_many_arguments)]
fn step_shard<A: NodeAlgorithm, const AUDIT: bool>(
    shard: &mut ShardView<'_, '_, A>,
    active_slice: &[u32],
    base: usize,
    round: u64,
    arena: &MessageArena,
    bit_limit: u32,
    staged: &mut Vec<(u32, Message)>,
    undone_buf: &mut Vec<u32>,
    sent: &mut Vec<(NodeId, NodeId, Message)>,
    done_slice: &mut [bool],
    outcome: &mut (u64, u32, i64),
) {
    let mut local_messages = 0u64;
    let mut local_max_bits = 0u32;
    let mut undone_delta = 0i64;
    undone_buf.clear();
    for &iu in active_slice {
        let i = iu as usize;
        let now_done = shard.step(
            i,
            round,
            arena.inbox(i),
            bit_limit,
            &mut local_max_bits,
            &mut |from, to, msg| {
                local_messages += 1;
                if AUDIT {
                    sent.push((from, to, msg));
                }
                staged.push((to.0, msg));
            },
        );
        let flag = &mut done_slice[i - base];
        if now_done != *flag {
            *flag = now_done;
            undone_delta += if now_done { -1 } else { 1 };
        }
        if !now_done {
            undone_buf.push(iu);
        }
    }
    *outcome = (local_messages, local_max_bits, undone_delta);
}

/// Cuts the active list into at most `shard_limit` contiguous shards with
/// near-equal degree sums (stepping cost is dominated by inbox/outbox sizes,
/// both bounded by degree), through the [`balanced_cuts`] quantile walk.
/// The parallel loop passes
/// `threads · SHARD_OVERSUBSCRIPTION` so dynamic claiming has spare shards
/// to rebalance with. Rounds too small to amortize a fork-join
/// ([`MIN_ACTIVE_PER_SHARD`]) get one shard. Weight = degree + 1: the
/// constant covers per-activation overhead so isolated low-degree nodes
/// still spread out.
fn plan_shards<A: NodeAlgorithm>(
    runtime: &NodeRuntime<'_, A>,
    active: &[u32],
    shard_limit: usize,
) -> Vec<(usize, usize)> {
    let max_shards = shard_limit.min(active.len() / MIN_ACTIVE_PER_SHARD).max(1);
    balanced_cuts(active.len(), max_shards, |idx| {
        runtime.degree_of(active[idx] as usize) as u64 + 1
    })
}

/// Computes the next round's active set: `receivers ∪ undone`. When every
/// node received a message (all-to-all rounds) the union is trivially the
/// receiver list, which is taken over wholesale in O(1) instead of merged.
/// Returns whether the new active set provably covers every node.
pub(crate) fn next_active(
    receivers: &mut Vec<u32>,
    undone: &[u32],
    active: &mut Vec<u32>,
    n: usize,
) -> bool {
    if receivers.len() == n {
        std::mem::swap(receivers, active);
        true
    } else {
        merge_sorted_into(receivers, undone, active);
        active.len() == n
    }
}

/// Merges two sorted, duplicate-free node lists into `out` (sorted,
/// deduplicated) — the next round's active set.
fn merge_sorted_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
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

/// The built-in observer behind [`SyncConfig`]'s instrumentation flags.
struct Instrumentation<'g> {
    graph: &'g Graph,
    ids: &'g IdAssignment,
    per_edge: Option<Vec<u64>>,
    utilized: Option<Vec<bool>>,
    trace: Option<Trace>,
    round_buf: Vec<TraceMessage>,
}

impl<'g> Instrumentation<'g> {
    fn new(graph: &'g Graph, ids: &'g IdAssignment, config: SyncConfig) -> Self {
        Instrumentation {
            graph,
            ids,
            per_edge: config.track_per_edge.then(|| vec![0; graph.num_edges()]),
            utilized: config
                .track_utilization
                .then(|| vec![false; graph.num_edges()]),
            trace: config.record_trace.then(Trace::new),
            round_buf: Vec::new(),
        }
    }
}

impl RoundObserver for Instrumentation<'_> {
    fn on_message(&mut self, from: NodeId, to: NodeId, edge: EdgeId, message: &Message) {
        if let Some(pe) = self.per_edge.as_mut() {
            pe[edge.index()] += 1;
        }
        if let Some(util) = self.utilized.as_mut() {
            mark_utilized(self.graph, self.ids, util, from, to, edge, message);
        }
        if self.trace.is_some() {
            self.round_buf.push(TraceMessage {
                from,
                to,
                message: *message,
            });
        }
    }

    fn on_round_end(&mut self, _round: u64) {
        if let Some(t) = self.trace.as_mut() {
            t.push_round(std::mem::take(&mut self.round_buf));
        }
    }
}

/// Marks edges utilized by one message per Definition 2.3:
/// (i) the edge the message travels on; (ii) for every ID field `φ(w)`
/// contained in the message, the edges `{sender, w}` and `{receiver, w}`
/// if they exist (sender sends the ID of its neighbour `w`; receiver
/// receives the ID of its neighbour `w`).
pub(crate) fn mark_utilized(
    graph: &Graph,
    ids: &IdAssignment,
    utilized: &mut [bool],
    from: NodeId,
    to: NodeId,
    edge: EdgeId,
    msg: &Message,
) {
    utilized[edge.index()] = true;
    for &id in msg.ids() {
        if let Some(w) = ids.node_with_id(id) {
            if let Some(e) = graph.edge_between(from, w) {
                utilized[e.index()] = true;
            }
            if let Some(e) = graph.edge_between(to, w) {
                utilized[e.index()] = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RoundContext;
    use symbreak_graphs::generators;

    /// Every node sends its own ID to every neighbour in round 0, then stops.
    struct Announce {
        done: bool,
    }

    impl NodeAlgorithm for Announce {
        fn on_round(&mut self, ctx: &mut RoundContext<'_>, _inbox: &[Message]) {
            if ctx.round() == 0 {
                let id = ctx.own_id();
                ctx.broadcast(&Message::tagged(0).with_id(id));
            }
            self.done = true;
        }
        fn is_done(&self) -> bool {
            self.done
        }
        fn output(&self) -> Option<u64> {
            Some(1)
        }
    }

    /// A node algorithm that never sends and is immediately done.
    struct Silent;
    impl NodeAlgorithm for Silent {
        fn on_round(&mut self, _ctx: &mut RoundContext<'_>, _inbox: &[Message]) {}
        fn is_done(&self) -> bool {
            true
        }
    }

    #[test]
    fn announce_counts_messages_and_rounds() {
        let g = generators::clique(5);
        let ids = IdAssignment::identity(5);
        let sim = SyncSimulator::new(&g, &ids, KtLevel::KT1);
        let report = sim.run(SyncConfig::default(), |_| Announce { done: false });
        assert!(report.completed);
        // Each of 5 nodes broadcasts to 4 neighbours in round 0.
        assert_eq!(report.messages, 20);
        // Round 0 sends, round 1 delivers (nodes already done), then halt.
        assert_eq!(report.rounds, 2);
        assert_eq!(report.outputs, vec![Some(1); 5]);
    }

    #[test]
    fn silent_run_terminates_after_one_round() {
        let g = generators::path(3);
        let ids = IdAssignment::identity(3);
        let sim = SyncSimulator::new(&g, &ids, KtLevel::KT0);
        let report = sim.run(SyncConfig::default(), |_| Silent);
        assert!(report.completed);
        assert_eq!(report.messages, 0);
        assert_eq!(report.rounds, 1);
        assert_eq!(report.max_message_bits, 0);
    }

    #[test]
    fn round_limit_reported_as_incomplete() {
        struct Chatter;
        impl NodeAlgorithm for Chatter {
            fn on_round(&mut self, ctx: &mut RoundContext<'_>, _inbox: &[Message]) {
                let msg = Message::tagged(1);
                ctx.broadcast(&msg);
            }
            fn is_done(&self) -> bool {
                false
            }
        }
        let g = generators::cycle(4);
        let ids = IdAssignment::identity(4);
        let sim = SyncSimulator::new(&g, &ids, KtLevel::KT1);
        let report = sim.run(SyncConfig::default().with_max_rounds(10), |_| Chatter);
        assert!(!report.completed);
        assert_eq!(report.rounds, 10);
        assert_eq!(report.messages, 4 * 2 * 10);
    }

    #[test]
    fn utilization_marks_message_edges_and_id_mentions() {
        // Path 0-1-2: node 1 sends node 2's ID to node 0. The message edge
        // {0,1} is utilized and — because node 0 receives the ID of node 2 —
        // the edge {0,2} would be utilized if it existed (it does not), and
        // the edge {1,2} is utilized because the sender 1 sends the ID of its
        // neighbour 2.
        struct Gossip;
        impl NodeAlgorithm for Gossip {
            fn on_round(&mut self, ctx: &mut RoundContext<'_>, _inbox: &[Message]) {
                if ctx.round() == 0 && ctx.node() == NodeId(1) {
                    let id2 = ctx.knowledge().id_of(NodeId(2));
                    ctx.send(NodeId(0), Message::tagged(0).with_id(id2));
                }
            }
            fn is_done(&self) -> bool {
                true
            }
        }
        let g = generators::path(3);
        let ids = IdAssignment::from_vec(vec![10, 20, 30]);
        let sim = SyncSimulator::new(&g, &ids, KtLevel::KT1);
        let report = sim.run(SyncConfig::instrumented(), |_| Gossip);
        assert!(report.completed);
        let e01 = g.edge_between(NodeId(0), NodeId(1)).unwrap();
        let e12 = g.edge_between(NodeId(1), NodeId(2)).unwrap();
        assert_eq!(report.is_utilized(e01), Some(true));
        assert_eq!(report.is_utilized(e12), Some(true));
        assert_eq!(report.utilized_edge_count(), Some(2));
        // Per-edge counters: exactly one message, on edge {0,1}.
        let per_edge = report.per_edge_messages.unwrap();
        assert_eq!(per_edge[e01.index()], 1);
        assert_eq!(per_edge[e12.index()], 0);
        // Trace recorded one message in round 0.
        let trace = report.trace.unwrap();
        assert_eq!(trace.num_messages(), 1);
    }

    #[test]
    #[should_panic(expected = "exceeding the CONGEST budget")]
    fn oversized_messages_panic() {
        struct Oversize;
        impl NodeAlgorithm for Oversize {
            fn on_round(&mut self, ctx: &mut RoundContext<'_>, _inbox: &[Message]) {
                if ctx.round() == 0 {
                    let msg = Message::tagged(0)
                        .with_id(1)
                        .with_id(2)
                        .with_value(3)
                        .with_value(4)
                        .with_value(5);
                    ctx.broadcast(&msg);
                }
            }
            fn is_done(&self) -> bool {
                true
            }
        }
        let g = generators::path(2);
        let ids = IdAssignment::identity(2);
        let sim = SyncSimulator::new(&g, &ids, KtLevel::KT1);
        let config = SyncConfig {
            message_bit_limit: 64,
            ..SyncConfig::default()
        };
        let _ = sim.run(config, |_| Oversize);
    }

    #[test]
    fn try_new_rejects_mismatched_ids() {
        let g = generators::path(3);
        let ids = IdAssignment::identity(2);
        let err = SyncSimulator::try_new(&g, &ids, KtLevel::KT1).unwrap_err();
        assert_eq!(
            err,
            SimError::IdAssignmentMismatch {
                graph_nodes: 3,
                id_nodes: 2
            }
        );
    }

    #[test]
    fn resolved_threads_prefers_explicit_setting() {
        assert_eq!(SyncConfig::default().with_threads(3).resolved_threads(), 3);
        assert!(SyncConfig::default().resolved_threads() >= 1);
    }

    #[test]
    fn plan_shards_covers_active_list_with_balanced_cuts() {
        let g = generators::cycle(512);
        let ids = IdAssignment::identity(512);
        let runtime = NodeRuntime::new(&g, &ids, KtLevel::KT1, |_| Silent);
        let active: Vec<u32> = (0..512).collect();
        let bounds = plan_shards(&runtime, &active, 4);
        assert_eq!(bounds.len(), 4);
        assert_eq!(bounds[0].0, 0);
        assert_eq!(bounds.last().unwrap().1, 512);
        for w in bounds.windows(2) {
            assert_eq!(w[0].1, w[1].0, "shards must be contiguous");
        }
        // Uniform degrees → near-equal shard sizes.
        for &(lo, hi) in &bounds {
            let len = hi - lo;
            assert!((96..=160).contains(&len), "unbalanced shard: {len}");
        }
        // Tiny rounds stay single-sharded.
        let small: Vec<u32> = (0..40).collect();
        assert_eq!(plan_shards(&runtime, &small, 4), vec![(0, 40)]);
    }

    #[test]
    fn dense_round_requires_a_sender_quorum() {
        // A lone hub covers half the directed edge slots by itself, but the
        // dense path's O(n) flip would break the O(active + messages) round
        // cost — only a quorum of active senders may trip the heuristic.
        let g = generators::star(512);
        let ids = IdAssignment::identity(512);
        let runtime = NodeRuntime::new(&g, &ids, KtLevel::KT1, |_| Silent);
        assert!(!runtime.dense_round(&[0]));
        let all: Vec<u32> = (0..512).collect();
        assert!(runtime.dense_round(&all));
        assert!(runtime.dense_full());
    }
}
