//! The synchronous round-driven CONGEST simulator.
//!
//! One round loop, built from the [`crate::engine`] primitives, runs every
//! synchronous execution — plain, observed, instrumented, audited,
//! checkpointed and resumed — at any thread count. A bit-identical naive
//! implementation is kept in [`crate::reference`] for differential tests
//! and throughput baselines. Only the thread count and a round's work
//! estimate ([`plan_shards`]) decide how the round steps:
//!
//! * **one window** — at one thread, or when a round is too small to
//!   split: the active nodes step on the caller's thread through
//!   [`NodeRuntime::step`] and stage straight into the [`DeliveryBuffer`],
//!   which switches to its receiver-major dense layout on rounds predicted
//!   to be all-to-all ([`NodeRuntime::dense_round`]);
//! * **claimed windows** — the active list is cut into contiguous,
//!   degree-balanced windows that worker threads claim, each staging into
//!   its own buffer, merged by one counting sort
//!   ([`DeliveryBuffer::flip_shards`]).
//!
//! The windows' buffers concatenated in window order are the one-window
//! staging order, so reports are **bit-identical** at every thread count.
//! Observers, the built-in instrumentation, the compliance auditor and
//! checkpoints all ride on the [`Hooks`] trait, whose per-message callbacks
//! see that same sequential order: inline on one-window rounds, replayed
//! from per-window send logs otherwise. The no-op hooks `()` compile to the
//! bare loop.

use std::io;

use serde::{Deserialize, Serialize};
use symbreak_graphs::{EdgeId, Graph, IdAssignment, NodeId};

use crate::audit::{audit_enabled, AuditConfig, Auditor, Violation};
use crate::checkpoint::CheckpointRecord;
use crate::engine::{
    balanced_cuts, split_ranges_mut, DeliveryBuffer, MessageArena, NodeRuntime, RoundObserver,
    ShardView,
};
use crate::model::DEFAULT_MESSAGE_BITS;
use crate::trace::{Trace, TraceMessage};
use crate::{KtLevel, Message, NodeAlgorithm, NodeInit, SimError};

/// Environment variable overriding the automatic thread count of
/// [`SyncConfig::threads`]` = 0` (CI runs the suite at 1 and at 4 so every
/// test covers both one-window and claimed-window rounds).
pub const THREADS_ENV: &str = "CONGEST_THREADS";

/// Rounds with fewer active nodes than this per window run as one window
/// (inline, no cross-thread dispatch) — fork-join overhead would dwarf the
/// work. Exceeding it does not force parallelism; it only permits it.
const MIN_ACTIVE_PER_SHARD: usize = 32;

/// Windows per worker thread: the active list is cut into up to this many
/// windows per thread, claimed dynamically (see the vendored
/// `rayon::ThreadPool::par_chunks_mut`), so one skewed window — a bucket
/// whose coloring traffic dwarfs its degree-balanced share, a power-law
/// hub's inbox — keeps one worker busy while the others drain the rest.
/// Window boundaries stay deterministic, so the `flip_shards` merge order
/// (and therefore the report) is bit-identical at any thread count.
const SHARD_OVERSUBSCRIPTION: usize = 4;

/// The message of the `expect` on loop results whose hooks cannot fail.
const NO_IO: &str = "only checkpoint hooks do I/O";

/// What [`Hooks::restore`] returns: the checkpoint the loop resumes at.
pub(crate) type Resume = io::Result<Option<CheckpointRecord>>;

/// Configuration of a synchronous run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyncConfig {
    /// Abort (with `completed = false`) after this many rounds.
    pub max_rounds: u64,
    /// Per-message size budget in bits (see [`crate::Message::size_bits`]).
    pub message_bit_limit: u32,
    /// Record the full message trace (costs memory proportional to the
    /// number of messages). The lower-bound experiments need only
    /// `track_utilization` and `track_per_edge`.
    pub record_trace: bool,
    /// Track which edges are *utilized* in the sense of Definition 2.3.
    pub track_utilization: bool,
    /// Track per-edge message counts.
    pub track_per_edge: bool,
    /// Worker threads for round stepping. `0` (the default) resolves to the
    /// `CONGEST_THREADS` environment variable if set, else to the available
    /// CPU count. Every run — observed, instrumented, audited and
    /// checkpointed ones included — splits its large rounds across this
    /// many workers, and reports are bit-identical at every thread count.
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
    /// per-edge counters).
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

    /// Runs the algorithm produced per node by `make` until every node is
    /// done and no messages are in flight, or until the round limit.
    ///
    /// The built-in instrumentation collects whatever `config` asks for
    /// (trace, utilized edges, per-edge counters). Under `CONGEST_AUDIT=1`
    /// the run is also audited in deny mode, as by
    /// [`SyncSimulator::run_audited`]: any model violation panics with full
    /// provenance, so a run that returns is certified compliant.
    ///
    /// Automata must be [`Send`] so the round loop *may* step them on
    /// several threads (the bound is required even for runs that resolve
    /// to one thread — monomorphization cannot depend on the runtime thread
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
        if audit_enabled() {
            return self.run_audited(config, &AuditConfig::from_env(), make).0;
        }
        self.run_instrumented(config, make, ()).0
    }

    /// Runs like [`SyncSimulator::run`] under a CONGEST-model compliance
    /// [`Auditor`]: every message is checked for adjacency, per-direction
    /// multiplicity and bandwidth, every round split across threads for
    /// write-window disjointness, every delivery for inbox aliasing (see
    /// [`crate::audit`]). Returns the report — bit-identical to an unaudited
    /// run, with the instrumentation `config` asks for — plus the
    /// violations (always empty when [`AuditConfig::deny`] is set: deny mode
    /// panics at the first finding instead).
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
        let auditor = Auditor::new(self.graph, *audit);
        let (report, auditor) = self.run_instrumented(config, make, auditor);
        (report, auditor.finish())
    }

    /// Runs like [`SyncSimulator::run`] with a caller-supplied
    /// [`RoundObserver`] receiving every message — in sequential send
    /// order, at any thread count — and every round end.
    ///
    /// The built-in instrumentation fields of the returned
    /// [`ExecutionReport`] (`per_edge_messages`, `utilized_edges`, `trace`)
    /// are `None` here — the observer owns whatever it recorded.
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
        let mut hooks = Observe(self.graph, observer);
        self.drive(config, make, &mut hooks).expect(NO_IO)
    }

    /// Drives the loop with `hooks` plus the built-in instrumentation
    /// `config` asks for, whose recordings fill the report.
    fn run_instrumented<A, F, H>(
        &self,
        config: SyncConfig,
        make: F,
        hooks: H,
    ) -> (ExecutionReport, H)
    where
        A: NodeAlgorithm + Send,
        F: FnMut(NodeInit<'_>) -> A,
        H: Hooks<A>,
    {
        let mut instr = Instrumentation::new(self.graph, self.ids, config);
        let mut both = (Observe(self.graph, &mut instr), hooks);
        let report = if config.record_trace || config.track_utilization || config.track_per_edge {
            self.drive(config, make, &mut both)
        } else {
            self.drive(config, make, &mut both.1)
        };
        let (_, hooks) = both;
        (instr.fill(report.expect(NO_IO)), hooks)
    }

    /// The synchronous round loop behind every entry point (see the module
    /// docs).
    ///
    /// # Errors
    ///
    /// Whatever the hooks' restore and round-start steps return (checkpoint
    /// I/O).
    pub(crate) fn drive<A, F, H>(
        &self,
        config: SyncConfig,
        make: F,
        hooks: &mut H,
    ) -> io::Result<ExecutionReport>
    where
        A: NodeAlgorithm + Send,
        F: FnMut(NodeInit<'_>) -> A,
        H: Hooks<A>,
    {
        let n = self.graph.num_nodes();
        let threads = config.resolved_threads();
        // Window buffers only exist where rounds can split.
        let windows = if threads > 1 {
            threads * SHARD_OVERSUBSCRIPTION
        } else {
            0
        };
        // Event-driven: a round steps only its *active* nodes — its message
        // receivers plus every node that is not done. The
        // `NodeAlgorithm::is_done` contract makes skipping the rest sound,
        // and round 0 activates everyone for initialisation.
        let mut run = RoundLoop {
            runtime: NodeRuntime::new(self.graph, self.ids, self.level, make),
            arena: MessageArena::new(n),
            staging: DeliveryBuffer::new(n),
            bit_limit: config.message_bit_limit,
            round: 0,
            messages: 0,
            max_bits: 0,
            active: (0..n as u32).collect(),
            active_all: true,
            receivers: Vec::new(),
            done: Vec::new(),
            undone_count: 0,
            undone: Vec::new(),
            pool: rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("vendored thread pool cannot fail to build"),
            staged: (0..windows).map(|_| Vec::new()).collect(),
            sent: (0..windows).map(|_| Vec::new()).collect(),
        };
        if let Some(record) = hooks.restore(&mut run.runtime)? {
            // Replay the in-flight messages through the flat counting sort;
            // it reproduces the original arena's inboxes exactly (both
            // delivery layouts group identically).
            for tm in &record.in_flight {
                run.staging.stage(tm.to, tm.message);
            }
            run.staging.flip(&mut run.arena, &mut run.receivers);
            run.round = record.round;
            run.messages = record.messages;
            run.max_bits = record.max_message_bits;
            run.active_all = record.active_all;
            if !record.active_all {
                run.active = record.active;
            }
        }
        run.done = run.runtime.done_flags();
        run.undone_count = run.done.iter().filter(|&&d| !d).count();

        let completed = loop {
            if run.round > 0 && run.arena.len() == 0 && run.undone_count == 0 {
                break true;
            }
            if run.round >= config.max_rounds {
                break false;
            }
            // A round whose sends are in flight at the next checkpoint
            // boundary steps through the capturing view, so no other
            // round's message sink carries capture code.
            if hooks.begin_round(&run)? {
                run.step(&mut Capturing(&mut *hooks));
            } else {
                run.step(hooks);
            }
            hooks.end_round(run.round, &run.arena);
            run.round += 1;
        };
        Ok(ExecutionReport {
            completed,
            rounds: run.round,
            messages: run.messages,
            max_message_bits: run.max_bits,
            outputs: run.runtime.outputs(),
            per_edge_messages: None,
            utilized_edges: None,
            trace: None,
        })
    }
}

/// Everything a run threads through the round loop besides stepping and
/// delivery: observers, the built-in instrumentation, the auditor and
/// checkpoints. The loop calls every hook at any thread count. `()` is the
/// no-op set, and a pair runs both members' hooks.
pub(crate) trait Hooks<A> {
    /// Whether [`Hooks::on_send`] does anything; `false` compiles the
    /// per-message call and the windows' send logs out of the loop.
    const SENDS: bool = false;

    /// One validated message, in sequential send order.
    fn on_send(&mut self, _from: NodeId, _to: NodeId, _msg: &Message) {}

    /// Before round 0 (or the resumed round): restores automata states into
    /// `runtime` and returns the checkpoint the loop resumes at, if any.
    fn restore(&mut self, _runtime: &mut NodeRuntime<'_, A>) -> Resume {
        Ok(None)
    }

    /// Round start, before any node steps. Returns whether this round's
    /// sends must also reach [`Hooks::capture`].
    fn begin_round(&mut self, _at: &RoundLoop<'_, A>) -> io::Result<bool> {
        Ok(false)
    }

    /// One send of a capture round, in sequential send order.
    fn capture(&mut self, _from: NodeId, _to: NodeId, _msg: &Message) {}

    /// Window `window` of a round split across threads stepped the nodes
    /// `[lo, hi)`; called before its sends are replayed.
    fn record_window(&mut self, _window: usize, _lo: usize, _hi: usize) {}

    /// Round end, after delivery into `arena`.
    fn end_round(&mut self, _round: u64, _arena: &MessageArena) {}
}

impl<A> Hooks<A> for () {}

impl<A, H1: Hooks<A>, H2: Hooks<A>> Hooks<A> for (H1, H2) {
    const SENDS: bool = H1::SENDS || H2::SENDS;

    fn on_send(&mut self, from: NodeId, to: NodeId, msg: &Message) {
        if H1::SENDS {
            self.0.on_send(from, to, msg);
        }
        if H2::SENDS {
            self.1.on_send(from, to, msg);
        }
    }

    fn restore(&mut self, runtime: &mut NodeRuntime<'_, A>) -> Resume {
        let first = self.0.restore(runtime)?;
        Ok(first.or(self.1.restore(runtime)?))
    }

    fn begin_round(&mut self, at: &RoundLoop<'_, A>) -> io::Result<bool> {
        Ok(self.0.begin_round(at)? | self.1.begin_round(at)?)
    }

    fn capture(&mut self, from: NodeId, to: NodeId, msg: &Message) {
        self.0.capture(from, to, msg);
        self.1.capture(from, to, msg);
    }

    fn record_window(&mut self, window: usize, lo: usize, hi: usize) {
        self.0.record_window(window, lo, hi);
        self.1.record_window(window, lo, hi);
    }

    fn end_round(&mut self, round: u64, arena: &MessageArena) {
        self.0.end_round(round, arena);
        self.1.end_round(round, arena);
    }
}

/// The hooks a capture round steps with: every send also reaches
/// [`Hooks::capture`]. Only the stepping hooks are ever called on it.
struct Capturing<'h, H>(&'h mut H);

impl<A, H: Hooks<A>> Hooks<A> for Capturing<'_, H> {
    const SENDS: bool = true;

    fn on_send(&mut self, from: NodeId, to: NodeId, msg: &Message) {
        if H::SENDS {
            self.0.on_send(from, to, msg);
        }
        self.0.capture(from, to, msg);
    }

    fn record_window(&mut self, window: usize, lo: usize, hi: usize) {
        self.0.record_window(window, lo, hi);
    }
}

/// A caller's [`RoundObserver`] as loop hooks; the graph resolves each
/// message's edge.
pub(crate) struct Observe<'o, 'g, O>(pub(crate) &'g Graph, pub(crate) &'o mut O);

impl<A, O: RoundObserver> Hooks<A> for Observe<'_, '_, O> {
    const SENDS: bool = O::ACTIVE;

    fn on_send(&mut self, from: NodeId, to: NodeId, msg: &Message) {
        let edge = self.0.edge_between(from, to);
        let edge = edge.expect("send target verified to be a neighbour");
        self.1.on_message(from, to, edge, msg);
    }

    fn end_round(&mut self, round: u64, _arena: &MessageArena) {
        if O::ACTIVE {
            self.1.on_round_end(round);
        }
    }
}

/// The round loop's state; hooks see it at every round start.
pub(crate) struct RoundLoop<'g, A> {
    pub(crate) runtime: NodeRuntime<'g, A>,
    arena: MessageArena,
    staging: DeliveryBuffer,
    bit_limit: u32,
    pub(crate) round: u64,
    pub(crate) messages: u64,
    pub(crate) max_bits: u32,
    /// The round's active set, ascending — stale while `active_all` holds
    /// after a dense all-to-all delivery, which leaves it implicit.
    pub(crate) active: Vec<u32>,
    pub(crate) active_all: bool,
    receivers: Vec<u32>,
    /// Per-node done flags plus the count of nodes still undone.
    done: Vec<bool>,
    undone_count: usize,
    /// Stepped-but-not-done nodes of the current round, ascending.
    undone: Vec<u32>,
    /// The run's workers, plus one staging buffer and one send log per
    /// window (`SHARD_OVERSUBSCRIPTION` per thread), reused across rounds.
    pool: rayon::ThreadPool,
    staged: Vec<Vec<(u32, Message)>>,
    sent: Vec<Vec<(NodeId, NodeId, Message)>>,
}

impl<A: NodeAlgorithm + Send> RoundLoop<'_, A> {
    /// Steps one round and delivers its messages: as claimed windows when
    /// the run has workers and the round's work estimate splits, else as
    /// one window on the caller's thread.
    fn step<S: Hooks<A>>(&mut self, hooks: &mut S) {
        let n = self.done.len();
        let mut bounds = Vec::new();
        if self.pool.current_num_threads() > 1 {
            if self.active_all && self.active.len() != n {
                self.active.clear();
                self.active.extend(0..n as u32);
            }
            bounds = plan_shards(&self.runtime, &self.active, self.staged.len());
        }
        if bounds.len() > 1 {
            self.step_windows(hooks, &bounds);
        } else {
            // One window, stepped over the loop's parts as separate borrows
            // so the compiler sees that stepping a node cannot touch them.
            let RoundLoop {
                runtime,
                arena,
                staging,
                active,
                done,
                undone,
                ..
            } = self;
            let all = self.active_all;
            let active = (!all).then_some(&active[..]);
            let counters = (
                &mut self.messages,
                &mut self.max_bits,
                &mut self.undone_count,
            );
            let (round, bit_limit) = (self.round, self.bit_limit);
            step_window(
                runtime, arena, staging, hooks, active, done, undone, round, bit_limit, counters,
            );
            if staging.flip(arena, &mut self.receivers) {
                // Full all-to-all delivery: next round activates everyone,
                // no receiver list or merge required.
                self.active_all = true;
                return;
            }
            if all && self.undone_count > 0 {
                // An all-active round defers its undone list (an all-to-all
                // delivery never reads it); one O(n) scan rebuilds it, the
                // round being Ω(n) already.
                let done = &self.done;
                self.undone
                    .extend((0..n as u32).filter(|&i| !done[i as usize]));
            }
        }
        self.active_all = next_active(&mut self.receivers, &self.undone, &mut self.active, n);
    }

    /// Claimed windows: the active list is cut at `bounds` into windows the
    /// pool's workers claim, each staging into its own buffer and logging
    /// its sends when the hooks take them. The caller's thread then merges
    /// the windows in window order — counters, window hooks, send replay —
    /// and `flip_shards` merges the buffers.
    fn step_windows<S: Hooks<A>>(&mut self, hooks: &mut S, bounds: &[(usize, usize)]) {
        let active = &self.active;
        let node_bounds: Vec<(usize, usize)> = bounds
            .iter()
            .map(|&(lo, hi)| (active[lo] as usize, active[hi - 1] as usize + 1))
            .collect();
        let views = self.runtime.shard_views(&node_bounds).into_iter();
        let mut tasks: Vec<Window<'_, '_, A>> = views
            .zip(split_ranges_mut(&mut self.done, &node_bounds))
            .zip(bounds)
            .zip(self.staged.iter_mut().zip(&mut self.sent))
            .map(|(((nodes, done), &(lo, hi)), (staged, sent))| Window {
                nodes,
                active: &active[lo..hi],
                done,
                staged,
                sent,
                messages: 0,
                max_bits: 0,
                undone_delta: 0,
            })
            .collect();
        let (round, bit_limit, arena) = (self.round, self.bit_limit, &self.arena);
        self.pool.par_chunks_mut(&mut tasks, |_, chunk| {
            for task in chunk {
                task.step::<S>(round, arena, bit_limit);
            }
        });

        for (t, task) in tasks.into_iter().enumerate() {
            self.messages += task.messages;
            self.max_bits = self.max_bits.max(task.max_bits);
            self.undone_count = (self.undone_count as i64 + task.undone_delta) as usize;
            hooks.record_window(t, node_bounds[t].0, node_bounds[t].1);
            for (from, to, msg) in task.sent.drain(..) {
                hooks.on_send(from, to, &msg);
            }
        }
        let done = &self.done;
        self.undone.clear();
        self.undone
            .extend(active.iter().filter(|&&i| !done[i as usize]));
        let staged = &mut self.staged[..bounds.len()];
        self.staging
            .flip_shards(staged, &mut self.arena, &mut self.receivers);
    }
}

/// One window: the nodes of `active` (every node when `None`, which also
/// defers the undone list) step on the caller's thread and stage straight
/// into the delivery buffer.
#[allow(clippy::too_many_arguments)]
fn step_window<A: NodeAlgorithm, S: Hooks<A>>(
    runtime: &mut NodeRuntime<'_, A>,
    arena: &MessageArena,
    staging: &mut DeliveryBuffer,
    hooks: &mut S,
    active: Option<&[u32]>,
    done: &mut [bool],
    undone: &mut Vec<u32>,
    round: u64,
    bit_limit: u32,
    (messages, max_bits, undone_count): (&mut u64, &mut u32, &mut usize),
) {
    // Pick the delivery layout before any message is staged (both yield
    // identical inboxes, so this is purely a throughput knob); on an
    // all-active round the density check collapses to the O(1) locality
    // gate.
    staging.set_dense(match active {
        None => runtime.dense_full(),
        Some(active) => runtime.dense_round(active),
    });
    undone.clear();
    let n = done.len();
    let mut step_one = |i: usize| {
        let mut sink = |from: NodeId, to: NodeId, msg: Message| {
            *messages += 1;
            if S::SENDS {
                hooks.on_send(from, to, &msg);
            }
            staging.stage(to, msg);
        };
        let now_done = runtime.step(i, round, arena.inbox(i), bit_limit, max_bits, &mut sink);
        if now_done != done[i] {
            done[i] = now_done;
            if now_done {
                *undone_count -= 1;
            } else {
                *undone_count += 1;
            }
        }
        if !now_done && active.is_some() {
            // Activation order is ascending, so `undone` stays sorted.
            undone.push(i as u32);
        }
    };
    match active {
        // The active list is the identity: iterate it implicitly.
        None => (0..n).for_each(&mut step_one),
        Some(active) => active.iter().for_each(|&i| step_one(i as usize)),
    }
}

/// One claimable window of a round: a contiguous slice of the active list,
/// the automata and done flags of its node range, and the buffers its
/// worker writes.
struct Window<'a, 'g, A> {
    nodes: ShardView<'a, 'g, A>,
    active: &'a [u32],
    /// Done flags of the window's node range, which starts at `active[0]`.
    done: &'a mut [bool],
    staged: &'a mut Vec<(u32, Message)>,
    sent: &'a mut Vec<(NodeId, NodeId, Message)>,
    messages: u64,
    max_bits: u32,
    undone_delta: i64,
}

impl<A: NodeAlgorithm> Window<'_, '_, A> {
    fn step<S: Hooks<A>>(&mut self, round: u64, arena: &MessageArena, bit_limit: u32) {
        let base = self.active[0] as usize;
        for &i in self.active {
            let mut sink = |from: NodeId, to: NodeId, msg: Message| {
                self.messages += 1;
                if S::SENDS {
                    self.sent.push((from, to, msg));
                }
                self.staged.push((to.0, msg));
            };
            let (i, inbox) = (i as usize, arena.inbox(i as usize));
            let now_done =
                self.nodes
                    .step(i, round, inbox, bit_limit, &mut self.max_bits, &mut sink);
            let flag = &mut self.done[i - base];
            if now_done != *flag {
                *flag = now_done;
                self.undone_delta += if now_done { -1 } else { 1 };
            }
        }
    }
}

/// Cuts the active list into at most `shard_limit` contiguous windows with
/// near-equal degree sums (stepping cost is dominated by inbox and send counts,
/// both bounded by degree), through the [`balanced_cuts`] quantile walk.
/// Multi-threaded runs pass `threads · SHARD_OVERSUBSCRIPTION` so dynamic
/// claiming has spare windows to rebalance with. Rounds too small to
/// amortize a fork-join ([`MIN_ACTIVE_PER_SHARD`]) get one window.
/// Weight = degree + 1: the constant covers per-activation overhead so
/// isolated low-degree nodes still spread out.
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
fn next_active(receivers: &mut Vec<u32>, undone: &[u32], active: &mut Vec<u32>, n: usize) -> bool {
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

impl Instrumentation<'_> {
    /// Moves the recordings into `report`'s instrumentation fields.
    fn fill(self, mut report: ExecutionReport) -> ExecutionReport {
        report.per_edge_messages = self.per_edge;
        report.utilized_edges = self.utilized;
        report.trace = self.trace;
        report
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
pub(crate) mod tests {
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

    /// Node [`BAD_SENDER`] sends one invalid message in round 0 — over a
    /// 64-bit budget, or to a non-neighbour — while every other node sends
    /// valid ones, so each stepping path meets exactly one bad send.
    pub(crate) struct BadSend {
        pub(crate) oversize: bool,
    }

    const BAD_SENDER: NodeId = NodeId(200);

    /// The bit budget the [`BadSend`] runs use: a bare tag (16 bits) fits,
    /// a tag plus one value (80 bits) does not.
    pub(crate) const BAD_SEND_BITS: u32 = 64;

    impl NodeAlgorithm for BadSend {
        fn on_round(&mut self, ctx: &mut RoundContext<'_>, _inbox: &[Message]) {
            if ctx.round() > 0 {
                return;
            }
            if ctx.node() != BAD_SENDER {
                ctx.broadcast(&Message::tagged(1));
            } else if self.oversize {
                ctx.send(NodeId(201), Message::tagged(1).with_value(2));
            } else {
                ctx.send(NodeId(72), Message::tagged(1));
            }
        }
        fn is_done(&self) -> bool {
            true
        }
    }

    /// Runs [`BadSend`] on a 256-cycle at `threads`: one thread steps
    /// round 0 as one window, and at more threads the round is large
    /// enough to split, which is asserted first.
    fn run_bad_send(threads: usize, oversize: bool) {
        let g = generators::cycle(256);
        let ids = IdAssignment::identity(256);
        if threads > 1 {
            let runtime = NodeRuntime::new(&g, &ids, KtLevel::KT1, |_| Silent);
            let round0: Vec<u32> = (0..256).collect();
            let windows = threads * SHARD_OVERSUBSCRIPTION;
            assert!(plan_shards(&runtime, &round0, windows).len() > 1);
        }
        let sim = SyncSimulator::new(&g, &ids, KtLevel::KT1);
        let config = SyncConfig {
            message_bit_limit: BAD_SEND_BITS,
            ..SyncConfig::default().with_threads(threads)
        };
        let _ = sim.run(config, |_| BadSend { oversize });
    }

    #[test]
    #[should_panic(
        expected = "node v200 sent a 80-bit message, exceeding the CONGEST budget of 64 bits"
    )]
    fn oversized_send_panics_on_a_one_window_round() {
        run_bad_send(1, true);
    }

    #[test]
    #[should_panic(expected = "node v200 attempted to send to non-neighbour v72")]
    fn non_neighbour_send_panics_on_a_one_window_round() {
        run_bad_send(1, false);
    }

    #[test]
    #[should_panic(
        expected = "node v200 sent a 80-bit message, exceeding the CONGEST budget of 64 bits"
    )]
    fn oversized_send_panics_on_a_claimed_window_round() {
        run_bad_send(4, true);
    }

    #[test]
    #[should_panic(expected = "node v200 attempted to send to non-neighbour v72")]
    fn non_neighbour_send_panics_on_a_claimed_window_round() {
        run_bad_send(4, false);
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
