//! Naive simulators kept as correctness oracles and throughput baselines.
//!
//! [`NaiveSyncSimulator`] reproduces the pre-engine implementation of
//! [`crate::SyncSimulator::run`] faithfully: per-node `Vec<Vec<Message>>`
//! inboxes reallocated every round, a cloned `Vec<Vec<NodeId>>` adjacency
//! snapshot, a per-message `edge_between` lookup and `Option`-checked
//! instrumentation inside the inner loop.
//!
//! [`NaiveAsyncSimulator`] likewise preserves the pre-slot-index delay
//! wheel of [`crate::async_sim::AsyncSimulator`]: every time unit scans all
//! `n` nodes for pending deliveries and re-checks termination with a full
//! `is_done` sweep.
//!
//! Both must produce **bit-identical** reports to their engine counterparts
//! (the differential tests in `tests/engine_equivalence.rs` and
//! `tests/async_equivalence.rs` assert this), and they are what the
//! `sim_engine` bench measures the engine against.

use rand::Rng;
use symbreak_graphs::NodeId;

use crate::async_sim::{AsyncConfig, AsyncReport, AsyncSimulator};
use crate::faults::{FaultPlan, FaultSession, FaultStats};
use crate::node::collect_sends;
use crate::sync::mark_utilized;
use crate::trace::{Trace, TraceMessage};
use crate::{
    ExecutionReport, KnowledgeView, Message, NodeAlgorithm, NodeInit, SyncConfig, SyncSimulator,
};

/// The naive round loop, wrapped around the same simulator handle.
///
/// Construct a [`SyncSimulator`] as usual and pass it here; `run` accepts
/// the same configuration and node factory.
#[derive(Debug, Clone, Copy)]
pub struct NaiveSyncSimulator<'g> {
    sim: SyncSimulator<'g>,
}

impl<'g> NaiveSyncSimulator<'g> {
    /// Wraps a simulator handle.
    pub fn new(sim: SyncSimulator<'g>) -> Self {
        NaiveSyncSimulator { sim }
    }

    /// Runs exactly like [`SyncSimulator::run`], using the historical
    /// nested-`Vec` implementation.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`SyncSimulator::run`].
    pub fn run<A, F>(&self, config: SyncConfig, mut make: F) -> ExecutionReport
    where
        A: NodeAlgorithm,
        F: FnMut(NodeInit<'_>) -> A,
    {
        let graph = self.sim.graph();
        let ids = self.sim.ids();
        let level = self.sim.level();
        let n = graph.num_nodes();
        let neighbor_lists: Vec<Vec<NodeId>> = (0..n)
            .map(|i| graph.neighbor_vec(NodeId(i as u32)))
            .collect();

        let mut nodes: Vec<A> = (0..n)
            .map(|i| {
                let v = NodeId(i as u32);
                make(NodeInit {
                    node: v,
                    num_nodes: n,
                    knowledge: KnowledgeView::new(graph, ids, level, v),
                })
            })
            .collect();

        let mut inboxes: Vec<Vec<Message>> = vec![Vec::new(); n];
        let mut messages: u64 = 0;
        let mut max_bits: u32 = 0;
        let mut rounds: u64 = 0;
        let mut completed = false;
        let mut per_edge: Option<Vec<u64>> =
            config.track_per_edge.then(|| vec![0u64; graph.num_edges()]);
        let mut utilized: Option<Vec<bool>> = config
            .track_utilization
            .then(|| vec![false; graph.num_edges()]);
        let mut trace: Option<Trace> = config.record_trace.then(Trace::new);

        loop {
            let in_flight: usize = inboxes.iter().map(Vec::len).sum();
            if rounds > 0 && in_flight == 0 && nodes.iter().all(NodeAlgorithm::is_done) {
                completed = true;
                break;
            }
            if rounds >= config.max_rounds {
                break;
            }

            let mut next_inboxes: Vec<Vec<Message>> = vec![Vec::new(); n];
            let mut round_trace: Vec<TraceMessage> = Vec::new();

            for i in 0..n {
                let v = NodeId(i as u32);
                let inbox = std::mem::take(&mut inboxes[i]);
                let knowledge = KnowledgeView::new(graph, ids, level, v);
                let nbrs = &neighbor_lists[i];
                let sends = collect_sends(&mut nodes[i], v, rounds, knowledge, nbrs, &inbox);
                for (to, msg) in sends {
                    let bits = msg.size_bits();
                    assert!(
                        bits <= config.message_bit_limit,
                        "node {v} sent a {bits}-bit message, exceeding the CONGEST budget of {} bits",
                        config.message_bit_limit
                    );
                    max_bits = max_bits.max(bits);
                    messages += 1;
                    let edge = graph
                        .edge_between(v, to)
                        .expect("send target verified to be a neighbour");
                    if let Some(pe) = per_edge.as_mut() {
                        pe[edge.index()] += 1;
                    }
                    if let Some(util) = utilized.as_mut() {
                        mark_utilized(graph, ids, util, v, to, edge, &msg);
                    }
                    if trace.is_some() {
                        round_trace.push(TraceMessage {
                            from: v,
                            to,
                            message: msg,
                        });
                    }
                    next_inboxes[to.index()].push(msg);
                }
            }

            if let Some(t) = trace.as_mut() {
                t.push_round(round_trace);
            }
            inboxes = next_inboxes;
            rounds += 1;
        }

        ExecutionReport {
            completed,
            rounds,
            messages,
            max_message_bits: max_bits,
            outputs: nodes.iter().map(NodeAlgorithm::output).collect(),
            per_edge_messages: per_edge,
            utilized_edges: utilized,
            trace,
        }
    }
}

/// The historical full-scan delay wheel, wrapped around the same
/// asynchronous simulator handle.
///
/// Every time unit visits all `n` nodes (delivering whatever the current
/// wheel slot holds for each) and re-checks termination with a full
/// `is_done` sweep — the `O(n)`-per-tick behaviour the slot-indexed wheel
/// replaced. Kept as the differential oracle for
/// `tests/async_equivalence.rs`: under the same seed it must produce
/// bit-identical [`AsyncReport`]s, including the order in which random
/// delays are drawn.
#[derive(Debug, Clone, Copy)]
pub struct NaiveAsyncSimulator<'g> {
    sim: AsyncSimulator<'g>,
}

impl<'g> NaiveAsyncSimulator<'g> {
    /// Wraps a simulator handle.
    pub fn new(sim: AsyncSimulator<'g>) -> Self {
        NaiveAsyncSimulator { sim }
    }

    /// Runs exactly like [`AsyncSimulator::run`], using the historical
    /// full-scan implementation.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`AsyncSimulator::run`].
    pub fn run<A, F, R>(&self, config: AsyncConfig, rng: &mut R, mut make: F) -> AsyncReport
    where
        A: NodeAlgorithm,
        F: FnMut(NodeInit<'_>) -> A,
        R: Rng + ?Sized,
    {
        let graph = self.sim.graph();
        let ids = self.sim.ids();
        let level = self.sim.level();
        let n = graph.num_nodes();
        let neighbor_lists: Vec<Vec<NodeId>> = (0..n)
            .map(|i| graph.neighbor_vec(NodeId(i as u32)))
            .collect();
        let mut nodes: Vec<A> = (0..n)
            .map(|i| {
                let v = NodeId(i as u32);
                make(NodeInit {
                    node: v,
                    num_nodes: n,
                    knowledge: KnowledgeView::new(graph, ids, level, v),
                })
            })
            .collect();

        let window = (config.max_delay + 1) as usize;
        let mut pending: Vec<Vec<Vec<Message>>> = vec![vec![Vec::new(); n]; window];
        let mut in_flight: u64 = 0;
        let mut messages: u64 = 0;
        let mut max_bits: u32 = 0;
        let mut time: u64 = 0;
        let mut completed = false;
        let mut activations: Vec<u64> = vec![0; n];

        loop {
            if time > 0 && in_flight == 0 && nodes.iter().all(NodeAlgorithm::is_done) {
                completed = true;
                break;
            }
            if time >= config.max_time {
                break;
            }

            let slot = (time % window as u64) as usize;
            let mut outgoing: Vec<(NodeId, Message)> = Vec::new();
            for i in 0..n {
                let inbox = std::mem::take(&mut pending[slot][i]);
                let activate = time == 0 || !inbox.is_empty();
                if !activate {
                    continue;
                }
                in_flight -= inbox.len() as u64;
                let v = NodeId(i as u32);
                let knowledge = KnowledgeView::new(graph, ids, level, v);
                let nbrs = &neighbor_lists[i];
                let sends =
                    collect_sends(&mut nodes[i], v, activations[i], knowledge, nbrs, &inbox);
                for (to, msg) in sends {
                    let bits = msg.size_bits();
                    assert!(
                        bits <= config.message_bit_limit,
                        "node {v} sent a {bits}-bit message, exceeding the CONGEST budget of {} bits",
                        config.message_bit_limit
                    );
                    max_bits = max_bits.max(bits);
                    outgoing.push((to, msg));
                }
                activations[i] += 1;
            }
            for (to, msg) in outgoing {
                let delay = rng.gen_range(1..=config.max_delay);
                let arrival = ((time + delay) % window as u64) as usize;
                pending[arrival][to.index()].push(msg);
                messages += 1;
                in_flight += 1;
            }
            time += 1;
        }

        AsyncReport {
            completed,
            time,
            messages,
            max_message_bits: max_bits,
            outputs: nodes.iter().map(NodeAlgorithm::output).collect(),
            faults: FaultStats::default(),
        }
    }

    /// Runs exactly like [`AsyncSimulator::run_with_faults`], using the
    /// historical full-scan implementation: every time unit visits all `n`
    /// nodes and idle-ticks through quiescent stretches instead of jumping
    /// to the next crash/recovery event. Under the same seed and plan it
    /// must produce a bit-identical [`AsyncReport`] — including the order
    /// of every drop / duplication / delay / jitter draw — which is what
    /// validates the slot wheel's event-jump logic differentially.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`AsyncSimulator::run_with_faults`].
    pub fn run_with_faults<A, F, R>(
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
        if plan.is_identity() {
            // Mirror the wheel's identity dispatch: an identity plan runs the
            // fault-free loop with zero fault bookkeeping.
            return self.run(config, rng, make);
        }
        let graph = self.sim.graph();
        let ids = self.sim.ids();
        let level = self.sim.level();
        let n = graph.num_nodes();
        let neighbor_lists: Vec<Vec<NodeId>> = (0..n)
            .map(|i| graph.neighbor_vec(NodeId(i as u32)))
            .collect();
        let mut nodes: Vec<A> = (0..n)
            .map(|i| {
                let v = NodeId(i as u32);
                make(NodeInit {
                    node: v,
                    num_nodes: n,
                    knowledge: KnowledgeView::new(graph, ids, level, v),
                })
            })
            .collect();
        let mut session = FaultSession::new(plan, n, &config);

        let window = session.window();
        let mut pending: Vec<Vec<Vec<Message>>> = vec![vec![Vec::new(); n]; window];
        let mut in_flight: u64 = 0;
        let mut messages: u64 = 0;
        let mut max_bits: u32 = 0;
        let mut time: u64 = 0;
        let mut completed = false;
        let mut activations: Vec<u64> = vec![0; n];
        let mut delays: Vec<u64> = Vec::new();

        loop {
            session.apply_events(time, |i, reset| {
                if reset {
                    let v = NodeId(i as u32);
                    nodes[i] = make(NodeInit {
                        node: v,
                        num_nodes: n,
                        knowledge: KnowledgeView::new(graph, ids, level, v),
                    });
                    activations[i] = 0;
                }
            });
            if time > 0
                && in_flight == 0
                && session.revived().is_empty()
                && session.next_event_time().is_none()
                && nodes.iter().all(NodeAlgorithm::is_done)
            {
                completed = true;
                break;
            }
            if time >= config.max_time {
                break;
            }

            let slot = (time % window as u64) as usize;
            let mut outgoing: Vec<(NodeId, NodeId, Message)> = Vec::new();
            for i in 0..n {
                let inbox = std::mem::take(&mut pending[slot][i]);
                if session.is_down(i) {
                    // Arrivals at a down node are discarded.
                    if !inbox.is_empty() {
                        in_flight -= inbox.len() as u64;
                        session.note_crash_dropped(inbox.len() as u64);
                    }
                    continue;
                }
                let revived = session.revived().binary_search(&(i as u32)).is_ok();
                let activate = time == 0 || !inbox.is_empty() || revived;
                if !activate {
                    continue;
                }
                in_flight -= inbox.len() as u64;
                session.note_delivered(inbox.len() as u64);
                let v = NodeId(i as u32);
                let knowledge = KnowledgeView::new(graph, ids, level, v);
                let nbrs = &neighbor_lists[i];
                let sends =
                    collect_sends(&mut nodes[i], v, activations[i], knowledge, nbrs, &inbox);
                for (to, msg) in sends {
                    let bits = msg.size_bits();
                    assert!(
                        bits <= config.message_bit_limit,
                        "node {v} sent a {bits}-bit message, exceeding the CONGEST budget of {} bits",
                        config.message_bit_limit
                    );
                    max_bits = max_bits.max(bits);
                    outgoing.push((v, to, msg));
                }
                activations[i] += 1;
            }
            session.clear_revived();
            for (from, to, msg) in outgoing {
                messages += 1;
                session.route(from, to, rng, &mut delays);
                if delays.len() > 1 {
                    messages += delays.len() as u64 - 1;
                }
                for &d in &delays {
                    let arrival = ((time + d) % window as u64) as usize;
                    pending[arrival][to.index()].push(msg);
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
            outputs: nodes.iter().map(NodeAlgorithm::output).collect(),
            faults: session.stats,
        }
    }
}
