//! Asynchrony: a randomized-delay executor and α-synchronizer accounting.
//!
//! The paper's asynchronous results (Theorem 3.4) rely on two ingredients:
//! an asynchronous broadcast substrate (Theorem 1.3, provided by
//! `symbreak-danner`) and Awerbuch's α-synchronizer (Theorem A.5), which
//! simulates a `T`-round synchronous algorithm asynchronously at an extra
//! cost of at most `2(T + 1)·m'` messages, where `m'` is the number of edges
//! of the (sub)graph the algorithm runs on.
//!
//! This module provides both the accounting function for that overhead and a
//! randomized-delay executor that runs [`NodeAlgorithm`] automata under
//! adversarial-ish message delays, so that delay-insensitive algorithms can
//! be checked to still produce correct outputs.
//!
//! The executor's delay wheel is *slot-indexed*: each of the
//! `max_delay + 1` wheel slots keeps the list of nodes with messages
//! arriving at that time, so a time unit costs `O(activated + delivered)` —
//! mirroring the synchronous engine's active list — instead of the old
//! full `O(n)` node scan (still available as
//! [`crate::reference::NaiveAsyncSimulator`], the differential oracle).

use rand::Rng;
use serde::{Deserialize, Serialize};
use symbreak_graphs::{Graph, IdAssignment, NodeId};

use crate::engine::NodeRuntime;
use crate::faults::{FaultPlan, FaultSession, FaultStats};
use crate::model::DEFAULT_MESSAGE_BITS;
use crate::{KtLevel, Message, NodeAlgorithm, NodeInit};

/// Extra messages incurred by running a `rounds`-round synchronous algorithm
/// through an α-synchronizer on a subgraph with `active_edges` edges
/// (Theorem A.5): at most `2 (rounds + 1) · active_edges`.
///
/// **Overflow policy:** the product saturates at `u64::MAX` instead of
/// wrapping. The value is an upper bound that callers compare observed
/// message counts against (or add to a budget), so for pathological
/// synthetic inputs a clamped ceiling keeps every comparison conservative,
/// whereas silent wrap-around would *under*-state the bound.
pub fn alpha_synchronizer_overhead(rounds: u64, active_edges: u64) -> u64 {
    2u64.saturating_mul(rounds.saturating_add(1))
        .saturating_mul(active_edges)
}

/// Cost of an asynchronous simulation derived from a synchronous execution:
/// the original messages plus the α-synchronizer overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AsyncCostEstimate {
    /// Messages of the synchronous execution.
    pub base_messages: u64,
    /// Additional synchronizer messages.
    pub synchronizer_messages: u64,
    /// Rounds (time units) of the asynchronous execution; the α-synchronizer
    /// preserves the round count.
    pub rounds: u64,
}

impl AsyncCostEstimate {
    /// Builds the estimate from a synchronous cost.
    pub fn from_sync(messages: u64, rounds: u64, active_edges: u64) -> Self {
        AsyncCostEstimate {
            base_messages: messages,
            synchronizer_messages: alpha_synchronizer_overhead(rounds, active_edges),
            rounds,
        }
    }

    /// Total messages of the asynchronous execution.
    pub fn total_messages(&self) -> u64 {
        self.base_messages + self.synchronizer_messages
    }
}

/// Configuration of the randomized-delay executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AsyncConfig {
    /// Maximum (inclusive) delivery delay of a message, in time units.
    pub max_delay: u64,
    /// Abort after this many time units.
    pub max_time: u64,
    /// Per-message size budget in bits.
    pub message_bit_limit: u32,
}

impl Default for AsyncConfig {
    fn default() -> Self {
        AsyncConfig {
            max_delay: 5,
            max_time: 1_000_000,
            message_bit_limit: DEFAULT_MESSAGE_BITS,
        }
    }
}

/// Outcome of an asynchronous run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AsyncReport {
    /// Whether every node terminated before the time limit.
    pub completed: bool,
    /// Total simulated time units until quiescence.
    pub time: u64,
    /// Total messages sent.
    pub messages: u64,
    /// The largest message observed, in bits.
    pub max_message_bits: u32,
    /// Final per-node outputs.
    pub outputs: Vec<Option<u64>>,
    /// What the fault layer did (all zero on the fault-free path — identity
    /// plans skip the bookkeeping entirely).
    pub faults: FaultStats,
}

/// An event-driven executor that delivers each message after a random delay
/// of `1..=max_delay` time units. Nodes are activated at time 0 and then
/// whenever a batch of messages is delivered to them.
#[derive(Debug, Clone, Copy)]
pub struct AsyncSimulator<'g> {
    graph: &'g Graph,
    ids: &'g IdAssignment,
    level: KtLevel,
}

impl<'g> AsyncSimulator<'g> {
    /// Creates an asynchronous simulator.
    ///
    /// # Panics
    ///
    /// Panics if the ID assignment does not match the graph.
    pub fn new(graph: &'g Graph, ids: &'g IdAssignment, level: KtLevel) -> Self {
        assert_eq!(
            ids.len(),
            graph.num_nodes(),
            "ID assignment does not match the graph"
        );
        AsyncSimulator { graph, ids, level }
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

    /// Runs the node algorithms under random message delays drawn from `rng`.
    ///
    /// Node activation (context construction, automaton stepping, CONGEST
    /// validation) goes through the same `NodeRuntime` engine as the
    /// synchronous simulator; only the delay-wheel delivery policy lives
    /// here. The wheel tracks, per slot, exactly the nodes with messages
    /// arriving at that time (in ascending node order, so reports are
    /// bit-identical to the full-scan reference loop), and terminal states
    /// are detected from an incrementally maintained undone counter instead
    /// of an `O(n)` sweep per time unit.
    pub fn run<A, F, R>(&self, config: AsyncConfig, rng: &mut R, make: F) -> AsyncReport
    where
        A: NodeAlgorithm,
        F: FnMut(NodeInit<'_>) -> A,
        R: Rng + ?Sized,
    {
        self.run_inner::<A, F, R, false>(config, &FaultPlan::default(), rng, make)
    }

    /// Like [`AsyncSimulator::run`], under a fault scenario.
    ///
    /// Identity plans ([`FaultPlan::is_identity`]) are routed onto the exact
    /// fault-free code path, so their reports are bit-identical to
    /// [`AsyncSimulator::run`] under the same seed and the seam costs the
    /// benign path nothing. Non-identity plans run the fault-instrumented
    /// loop: the delay wheel widens to the plan's effective delay bound,
    /// every sent message is routed through the plan's drop / duplication /
    /// delay / reordering laws (all randomness from `rng`, in a fixed
    /// per-message order), and scheduled crashes take nodes out of the
    /// execution (discarding their arrivals) until their recovery, if any.
    ///
    /// Faulty runs are deterministic given `(config, plan, seed)` and
    /// bit-identical between this executor and the full-scan oracle
    /// [`crate::reference::NaiveAsyncSimulator::run_with_faults`].
    pub fn run_with_faults<A, F, R>(
        &self,
        config: AsyncConfig,
        plan: &FaultPlan,
        rng: &mut R,
        make: F,
    ) -> AsyncReport
    where
        A: NodeAlgorithm,
        F: FnMut(NodeInit<'_>) -> A,
        R: Rng + ?Sized,
    {
        if plan.is_identity() {
            self.run_inner::<A, F, R, false>(config, plan, rng, make)
        } else {
            self.run_inner::<A, F, R, true>(config, plan, rng, make)
        }
    }

    /// The delay-wheel loop, monomorphised over fault injection: with
    /// `FAULTS = false` every fault branch is statically removed and the
    /// body is exactly the historical fault-free loop (the identity
    /// regression and the `sim_engine` zero-fault gate both pin this down).
    fn run_inner<A, F, R, const FAULTS: bool>(
        &self,
        config: AsyncConfig,
        plan: &FaultPlan,
        rng: &mut R,
        mut make: F,
    ) -> AsyncReport
    where
        A: NodeAlgorithm,
        F: FnMut(NodeInit<'_>) -> A,
        R: Rng + ?Sized,
    {
        let n = self.graph.num_nodes();
        let mut runtime = NodeRuntime::new(self.graph, self.ids, self.level, &mut make);
        let mut session: Option<FaultSession<'_>> =
            FAULTS.then(|| FaultSession::new(plan, n, &config));

        // pending[t % window][v] = messages arriving at node v at time t;
        // slot_nodes[t % window] = the v with pending[t % window][v]
        // non-empty (each listed once, unsorted until the slot fires).
        let window = match session.as_ref() {
            Some(s) => s.window(),
            None => (config.max_delay + 1) as usize,
        };
        let mut pending: Vec<Vec<Vec<Message>>> = vec![vec![Vec::new(); n]; window];
        let mut slot_nodes: Vec<Vec<u32>> = vec![Vec::new(); window];
        let mut in_flight: u64 = 0;
        let mut messages: u64 = 0;
        let mut max_bits: u32 = 0;
        let mut time: u64 = 0;
        let mut completed = false;
        // Activation counter per node: how many times each node has been
        // activated (used as its local "round" number).
        let mut activations: Vec<u64> = vec![0; n];
        let mut done = runtime.done_flags();
        let mut undone_count = done.iter().filter(|&&d| !d).count();
        let mut outgoing: Vec<(NodeId, NodeId, Message)> = Vec::new();
        let mut delays: Vec<u64> = Vec::new();

        loop {
            if FAULTS {
                // Crash/recovery events scheduled at `time` apply before
                // anything else this tick; recovered-with-reset nodes are
                // rebuilt from the factory with a fresh round counter.
                let s = session.as_mut().expect("fault session");
                s.apply_events(time, |i, reset| {
                    if reset {
                        let now_done = runtime.reset_node(i, &mut make);
                        activations[i] = 0;
                        if now_done != done[i] {
                            done[i] = now_done;
                            if now_done {
                                undone_count -= 1;
                            } else {
                                undone_count += 1;
                            }
                        }
                    }
                });
            }
            let quiet = in_flight == 0
                && (!FAULTS
                    || session
                        .as_ref()
                        .expect("fault session")
                        .revived()
                        .is_empty());
            if time > 0 && quiet {
                let next_event = if FAULTS {
                    session.as_ref().expect("fault session").next_event_time()
                } else {
                    None
                };
                match next_event {
                    Some(t) => {
                        // Quiescent but the fault timeline isn't over: a
                        // pending recovery may revive the execution. The
                        // full-scan reference idle-ticks its way there;
                        // jump straight to the event for an identical
                        // report.
                        time = t.min(config.max_time);
                        if time >= config.max_time {
                            break;
                        }
                        continue;
                    }
                    None => {
                        if undone_count == 0 {
                            completed = true;
                        } else {
                            // Nothing in flight and no node can activate
                            // spontaneously: the execution is stuck forever.
                            // The full-scan reference idle-ticks its way to
                            // the limit; jump straight there for an
                            // identical report.
                            time = config.max_time;
                        }
                        break;
                    }
                }
            }
            if time >= config.max_time {
                break;
            }

            let slot = (time % window as u64) as usize;
            let mut acts = std::mem::take(&mut slot_nodes[slot]);
            if FAULTS {
                // Recovered nodes activate spontaneously this tick, merged
                // with the slot's receivers (deduplicated — a node can be
                // both).
                let s = session.as_mut().expect("fault session");
                acts.extend_from_slice(s.revived());
                s.clear_revived();
            }
            // Ascending node order matches the reference loop's 0..n scan.
            acts.sort_unstable();
            if FAULTS {
                acts.dedup();
            }
            let mut activate =
                |i: usize,
                 runtime: &mut NodeRuntime<'g, A>,
                 pending: &mut Vec<Vec<Vec<Message>>>,
                 outgoing: &mut Vec<(NodeId, NodeId, Message)>,
                 session: &mut Option<FaultSession<'_>>| {
                    let mut inbox = std::mem::take(&mut pending[slot][i]);
                    if FAULTS {
                        let s = session.as_mut().expect("fault session");
                        if s.is_down(i) {
                            // Arrivals at a down node are discarded.
                            in_flight -= inbox.len() as u64;
                            s.note_crash_dropped(inbox.len() as u64);
                            inbox.clear();
                            pending[slot][i] = inbox;
                            return;
                        }
                        s.note_delivered(inbox.len() as u64);
                    }
                    in_flight -= inbox.len() as u64;
                    let now_done = runtime.step(
                        i,
                        activations[i],
                        &inbox,
                        config.message_bit_limit,
                        &mut max_bits,
                        &mut |from, to, msg| outgoing.push((from, to, msg)),
                    );
                    activations[i] += 1;
                    if now_done != done[i] {
                        done[i] = now_done;
                        if now_done {
                            undone_count -= 1;
                        } else {
                            undone_count += 1;
                        }
                    }
                    // Hand the drained allocation back to the wheel slot.
                    inbox.clear();
                    pending[slot][i] = inbox;
                };
            if time == 0 {
                // Time 0 activates every node for initialisation.
                for i in 0..n {
                    activate(i, &mut runtime, &mut pending, &mut outgoing, &mut session);
                }
            } else {
                for &iu in &acts {
                    activate(
                        iu as usize,
                        &mut runtime,
                        &mut pending,
                        &mut outgoing,
                        &mut session,
                    );
                }
            }
            acts.clear();
            slot_nodes[slot] = acts;

            if FAULTS {
                let s = session.as_mut().expect("fault session");
                for (from, to, msg) in outgoing.drain(..) {
                    // `messages` counts every copy put on the wire: the
                    // original send (even if dropped in transit) plus any
                    // duplicate.
                    messages += 1;
                    s.route(from, to, rng, &mut delays);
                    if delays.len() > 1 {
                        messages += delays.len() as u64 - 1;
                    }
                    for &d in &delays {
                        let arrival = ((time + d) % window as u64) as usize;
                        let bucket = &mut pending[arrival][to.index()];
                        if bucket.is_empty() {
                            slot_nodes[arrival].push(to.0);
                        }
                        bucket.push(msg);
                        in_flight += 1;
                    }
                }
            } else {
                for (_from, to, msg) in outgoing.drain(..) {
                    let delay = rng.gen_range(1..=config.max_delay);
                    let arrival = ((time + delay) % window as u64) as usize;
                    let bucket = &mut pending[arrival][to.index()];
                    if bucket.is_empty() {
                        slot_nodes[arrival].push(to.0);
                    }
                    bucket.push(msg);
                    messages += 1;
                    in_flight += 1;
                }
            }
            time += 1;
        }

        AsyncReport {
            completed,
            time,
            messages,
            max_message_bits: max_bits,
            outputs: runtime.outputs(),
            faults: match session {
                Some(s) => s.stats,
                None => FaultStats::default(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::tests::{BadSend, BAD_SEND_BITS};
    use crate::RoundContext;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use symbreak_graphs::generators;

    #[test]
    fn synchronizer_overhead_formula() {
        assert_eq!(alpha_synchronizer_overhead(0, 10), 20);
        assert_eq!(alpha_synchronizer_overhead(9, 100), 2000);
    }

    #[test]
    fn synchronizer_overhead_saturates_instead_of_wrapping() {
        // 2(T + 1)m′ overflows u64 for large synthetic inputs; the policy
        // is to clamp at u64::MAX (a conservative ceiling) rather than wrap
        // to a small, misleadingly cheap number.
        assert_eq!(alpha_synchronizer_overhead(u64::MAX, 10), u64::MAX);
        assert_eq!(alpha_synchronizer_overhead(10, u64::MAX), u64::MAX);
        assert_eq!(alpha_synchronizer_overhead(u64::MAX, u64::MAX), u64::MAX);
        // A product just under the edge stays exact.
        assert_eq!(alpha_synchronizer_overhead(0, u64::MAX / 2), u64::MAX - 1);
    }

    #[test]
    fn async_estimate_totals() {
        let est = AsyncCostEstimate::from_sync(50, 4, 10);
        assert_eq!(est.synchronizer_messages, 100);
        assert_eq!(est.total_messages(), 150);
        assert_eq!(est.rounds, 4);
    }

    /// Asynchronous flooding: forward the token the first time it arrives.
    struct Flood {
        have: bool,
    }
    impl NodeAlgorithm for Flood {
        fn on_round(&mut self, ctx: &mut RoundContext<'_>, inbox: &[Message]) {
            let start = ctx.node() == NodeId(0) && !self.have && ctx.round() == 0;
            let received = !inbox.is_empty();
            if (start || received) && !self.have {
                self.have = true;
                ctx.broadcast(&Message::tagged(1));
            }
        }
        fn is_done(&self) -> bool {
            true
        }
        fn output(&self) -> Option<u64> {
            Some(u64::from(self.have))
        }
    }

    #[test]
    fn async_flood_reaches_everyone() {
        let g = generators::connected_gnp(30, 0.1, &mut StdRng::seed_from_u64(4));
        let ids = IdAssignment::identity(30);
        let sim = AsyncSimulator::new(&g, &ids, KtLevel::KT1);
        let mut rng = StdRng::seed_from_u64(5);
        let report = sim.run(AsyncConfig::default(), &mut rng, |_| Flood { have: false });
        assert!(report.completed);
        assert!(report.outputs.iter().all(|o| *o == Some(1)));
        assert!(report.messages >= 2 * (g.num_nodes() as u64 - 1));
        assert!(report.time > 0);
        // Flood messages are bare tags: 16 bits.
        assert_eq!(report.max_message_bits, 16);
    }

    #[test]
    fn async_run_respects_time_limit() {
        struct Chatter;
        impl NodeAlgorithm for Chatter {
            fn on_round(&mut self, ctx: &mut RoundContext<'_>, _inbox: &[Message]) {
                ctx.broadcast(&Message::tagged(0));
            }
            fn is_done(&self) -> bool {
                false
            }
        }
        let g = generators::cycle(4);
        let ids = IdAssignment::identity(4);
        let sim = AsyncSimulator::new(&g, &ids, KtLevel::KT1);
        let mut rng = StdRng::seed_from_u64(6);
        let config = AsyncConfig {
            max_time: 20,
            ..AsyncConfig::default()
        };
        let report = sim.run(config, &mut rng, |_| Chatter);
        assert!(!report.completed);
        assert_eq!(report.time, 20);
    }

    fn run_bad_send(oversize: bool) {
        let g = generators::cycle(256);
        let ids = IdAssignment::identity(256);
        let sim = AsyncSimulator::new(&g, &ids, KtLevel::KT1);
        let config = AsyncConfig {
            message_bit_limit: BAD_SEND_BITS,
            ..AsyncConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(8);
        let _ = sim.run(config, &mut rng, |_| BadSend { oversize });
    }

    #[test]
    #[should_panic(
        expected = "node v200 sent a 80-bit message, exceeding the CONGEST budget of 64 bits"
    )]
    fn oversized_send_panics() {
        run_bad_send(true);
    }

    #[test]
    #[should_panic(expected = "node v200 attempted to send to non-neighbour v72")]
    fn non_neighbour_send_panics() {
        run_bad_send(false);
    }

    #[test]
    fn stuck_undone_nodes_report_the_time_limit() {
        // A node that never terminates and never sends: the wheel drains
        // immediately, and the run must still report `time = max_time`
        // exactly like the idle-ticking full-scan loop.
        struct Mute;
        impl NodeAlgorithm for Mute {
            fn on_round(&mut self, _ctx: &mut RoundContext<'_>, _inbox: &[Message]) {}
            fn is_done(&self) -> bool {
                false
            }
        }
        let g = generators::path(3);
        let ids = IdAssignment::identity(3);
        let sim = AsyncSimulator::new(&g, &ids, KtLevel::KT1);
        let mut rng = StdRng::seed_from_u64(7);
        let config = AsyncConfig {
            max_time: 500,
            ..AsyncConfig::default()
        };
        let report = sim.run(config, &mut rng, |_| Mute);
        assert!(!report.completed);
        assert_eq!(report.time, 500);
        assert_eq!(report.messages, 0);
    }
}
