//! Lockstep execution of synchronous automata on the asynchronous executor —
//! the executable counterpart of the α-synchronizer (Theorem A.5).
//!
//! The paper's asynchronous results (Theorem 3.4) are obtained by running
//! the synchronous algorithms under Awerbuch's α-synchronizer: every node
//! acknowledges each round to its neighbours, and a node starts round `k`
//! only once all neighbours confirmed round `k − 1`. [`Synchronized`] wraps
//! any [`NodeAlgorithm`] in exactly that protocol so it can run unchanged on
//! [`AsyncSimulator`] — including under a [`FaultPlan`]:
//!
//! * after executing inner round `k`, a node sends its round-`k` payload
//!   messages (wrapped with the sender's ID and a `(round, seq)` marker) and
//!   then one **pulse** per neighbour carrying the payload count;
//! * inner round `k` runs only when every neighbour's round-`k − 1` pulse
//!   arrived *and* all announced payloads were received;
//! * payloads are de-duplicated per `(sender, round)` by sequence-number
//!   bitmask, so message **duplication and reordering are harmless**;
//! * message **loss stalls the wheel** — safety is preserved (no node ever
//!   runs a round on partial inboxes), only liveness is lost, which the
//!   fault-matrix suite asserts as `completed == false`;
//! * a **crash with recovery re-joins** instead of stalling: every node
//!   retains its last [`Synchronized::with_replay_depth`] rounds of sent
//!   traffic in a bounded replay buffer, a recovering node broadcasts a
//!   `REJOIN` pulse naming the round it needs, and neighbours re-send the
//!   retained copies — all idempotent under the existing de-duplication, so
//!   the run completes with outputs bit-identical to the synchronous run.
//!
//! # Crash recovery
//!
//! A mid-run activation with an **empty inbox** is how the executors
//! deliver a crash revival (every other mid-run activation carries at least
//! one message), so [`Synchronized`] treats it as the re-join trigger: the
//! node broadcasts one `REJOIN` pulse per neighbour (a [`PULSE_TAG`]
//! message whose count field is the reserved sentinel `u64::MAX`) carrying
//! the first inner round it may have lost. Each neighbour answers from its
//! replay buffer with the retained pulses and wrapped payloads of every
//! buffered round at or after the requested one. [`Recovery::Retain`]
//! revivals need only [`DEFAULT_REPLAY_DEPTH`] rounds of retention (the
//! synchronizer keeps neighbours within one round of each other);
//! [`Recovery::Reset`] revivals restart the automaton much further back, so
//! [`run_synchronized_recovering`] re-seats them at the nearest engine
//! checkpoint ([`crate::checkpoint`]) and needs a replay depth covering the
//! checkpoint-to-crash gap. Re-join traffic is tallied in
//! [`FaultStats::rejoin_pulses`] / [`FaultStats::replayed`]. If a revival
//! races a same-tick delivery the trigger is missed and the run stalls —
//! safety is never at risk, the fault matrix still observes
//! `completed == false`.
//!
//! [`Recovery::Retain`]: crate::faults::Recovery::Retain
//! [`Recovery::Reset`]: crate::faults::Recovery::Reset
//! [`FaultStats::rejoin_pulses`]: crate::faults::FaultStats::rejoin_pulses
//! [`FaultStats::replayed`]: crate::faults::FaultStats::replayed
//!
//! On a benign (or delay-only, or duplicate/reorder) schedule the inner
//! execution is **bit-identical to the synchronous run**: each inner round
//! sees the same inbox in the same order (neighbour address ascending, send
//! order within a neighbour) with the same local round number, so all
//! per-node randomness is drawn on the same schedule. Pulse overhead is
//! exactly `(R − 1) · 2m` messages for an `R`-round run on `m` edges, within
//! the `2(T + 1)·m′` budget of
//! [`crate::async_sim::alpha_synchronizer_overhead`].
//!
//! The wrapper needs KT-1 knowledge (pulses are matched to neighbour slots
//! by sender ID) and message room for the wrapping: a pulse is 208 bits and
//! a wrapped payload adds one ID plus one value field to the inner message,
//! so configure [`AsyncConfig::message_bit_limit`] accordingly (384 covers
//! every algorithm in this repository).

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use rand::Rng;
use symbreak_graphs::NodeId;

use crate::async_sim::{AsyncConfig, AsyncReport, AsyncSimulator};
use crate::checkpoint::{CheckpointChain, PersistState};
use crate::faults::FaultPlan;
use crate::node::collect_sends;
use crate::{Message, NodeAlgorithm, NodeInit, RoundContext};

/// Reserved tag of synchronizer pulse messages. Inner algorithms must not
/// use it (asserted when wrapping payloads).
pub const PULSE_TAG: u16 = u16::MAX;

/// Reserved pulse count marking a `REJOIN` request. Unreachable by real
/// pulses, whose counts are bounded by the 64-messages-per-round cap.
const REJOIN_COUNT: u64 = u64::MAX;

/// Default number of sent rounds each node retains for crash re-join. Two
/// rounds suffice for [`Recovery::Retain`]: the synchronizer keeps
/// neighbours within one inner round of each other, so everything a
/// revived node can have lost is in its neighbours' last two sent rounds.
///
/// [`Recovery::Retain`]: crate::faults::Recovery::Retain
pub const DEFAULT_REPLAY_DEPTH: usize = 2;

/// Shared tally of re-join traffic across every node of a lockstep run.
///
/// [`run_synchronized`] and [`run_synchronized_recovering`] install one
/// ledger into all their wrappers and fold it into
/// [`FaultStats::rejoin_pulses`] / [`FaultStats::replayed`]; tests driving
/// [`crate::async_sim::AsyncSimulator::run_with_faults`] directly can share
/// their own via [`Synchronized::with_ledger`].
///
/// [`FaultStats::rejoin_pulses`]: crate::faults::FaultStats::rejoin_pulses
/// [`FaultStats::replayed`]: crate::faults::FaultStats::replayed
#[derive(Debug, Default)]
pub struct RejoinLedger {
    pulses: Cell<u64>,
    replayed: Cell<u64>,
    peak_buffered: Cell<u64>,
}

impl RejoinLedger {
    /// `REJOIN` pulses broadcast by recovering nodes.
    pub fn rejoin_pulses(&self) -> u64 {
        self.pulses.get()
    }

    /// Retained copies (payloads and pulses) re-sent in response to a
    /// `REJOIN`.
    pub fn replayed(&self) -> u64 {
        self.replayed.get()
    }

    /// The largest number of rounds any node's replay buffer held at once —
    /// never exceeds the configured replay depth (the memory bound).
    pub fn peak_buffered_rounds(&self) -> u64 {
        self.peak_buffered.get()
    }
}

/// One retained round of sent synchronizer traffic.
#[derive(Debug)]
struct ReplayRound {
    /// Inner round the traffic belongs to.
    round: u64,
    /// Per-slot payload counts (the pulse contents).
    counts: Vec<u64>,
    /// Wrapped payload copies, `(slot, message)`, in send order.
    payloads: Vec<(usize, Message)>,
}

/// Per-(neighbour, round) receive state.
#[derive(Debug, Default)]
struct SlotRound {
    /// Payload count announced by the neighbour's pulse, once it arrived.
    expected: Option<u64>,
    /// Bitmask of payload sequence numbers received (de-duplication).
    seq_mask: u64,
    /// Received payloads, `(seq, unwrapped message)`.
    msgs: Vec<(u64, Message)>,
}

impl SlotRound {
    fn ready(&self) -> bool {
        self.expected
            .is_some_and(|c| u64::from(self.seq_mask.count_ones()) >= c)
    }
}

/// An α-synchronizer shell around a synchronous [`NodeAlgorithm`], running
/// it for a fixed number of inner rounds on the asynchronous executor. See
/// the [module docs](self) for the protocol; construct per node with
/// [`Synchronized::new`] or run a whole network with [`run_synchronized`].
pub struct Synchronized<A> {
    inner: A,
    own_id: u64,
    total_rounds: u64,
    /// Next inner round to execute; `total_rounds` once finished.
    round: u64,
    /// Neighbour addresses, ascending (slot order).
    neighbors: Vec<NodeId>,
    /// `(neighbour ID, slot)` sorted by ID, for pulse/payload attribution.
    slot_by_id: Vec<(u64, usize)>,
    /// Per-slot inner-round receive buffers.
    bufs: Vec<BTreeMap<u64, SlotRound>>,
    /// How many sent rounds to retain for crash re-join.
    replay_depth: usize,
    /// The retained rounds, oldest first, at most `replay_depth` entries.
    replay: VecDeque<ReplayRound>,
    /// Re-join traffic tally, shared across the run's nodes.
    ledger: Rc<RejoinLedger>,
}

impl<A: NodeAlgorithm> Synchronized<A> {
    /// Wraps `inner` to run for exactly `total_rounds` synchronous rounds
    /// (take a synchronous [`crate::ExecutionReport::rounds`] for a faithful
    /// replay).
    ///
    /// # Panics
    ///
    /// Panics if `total_rounds` is 0 or the knowledge level is KT-0 (the
    /// synchronizer needs neighbour IDs to attribute pulses).
    pub fn new(inner: A, init: NodeInit<'_>, total_rounds: u64) -> Self {
        assert!(
            total_rounds > 0,
            "a synchronized run needs at least 1 round"
        );
        let mut neighbors: Vec<NodeId> = init.knowledge.neighbors();
        neighbors.sort_unstable();
        let mut slot_by_id: Vec<(u64, usize)> = init
            .knowledge
            .neighbor_ids()
            .into_iter()
            .map(|(v, id)| {
                let slot = neighbors
                    .binary_search(&v)
                    .expect("neighbor_ids returned a non-neighbour");
                (id, slot)
            })
            .collect();
        slot_by_id.sort_unstable();
        let bufs = (0..neighbors.len()).map(|_| BTreeMap::new()).collect();
        Synchronized {
            inner,
            own_id: init.knowledge.own_id(),
            total_rounds,
            round: 0,
            neighbors,
            slot_by_id,
            bufs,
            replay_depth: DEFAULT_REPLAY_DEPTH,
            replay: VecDeque::new(),
            ledger: Rc::new(RejoinLedger::default()),
        }
    }

    /// Sets how many sent rounds this node retains for crash re-join
    /// (default [`DEFAULT_REPLAY_DEPTH`]). [`Recovery::Retain`] revivals
    /// need 2; checkpoint-reset revivals need the checkpoint-to-crash gap
    /// plus one ([`run_synchronized_recovering`] sizes this from the
    /// checkpoint cadence).
    ///
    /// [`Recovery::Retain`]: crate::faults::Recovery::Retain
    ///
    /// # Panics
    ///
    /// Panics if `depth` is 0 — a node retaining nothing could never answer
    /// a re-join.
    pub fn with_replay_depth(mut self, depth: usize) -> Self {
        assert!(depth > 0, "replay depth must retain at least one round");
        self.replay_depth = depth;
        self
    }

    /// Shares `ledger` as this node's re-join tally (each wrapper otherwise
    /// counts into a private one). [`run_synchronized`] installs one ledger
    /// across all nodes and folds it into the report's
    /// [`crate::faults::FaultStats`].
    pub fn with_ledger(mut self, ledger: Rc<RejoinLedger>) -> Self {
        self.ledger = ledger;
        self
    }

    /// The wrapped automaton (its outputs are also forwarded by
    /// [`NodeAlgorithm::output`]).
    pub fn inner(&self) -> &A {
        &self.inner
    }

    fn slot_of(&self, sender_id: u64) -> usize {
        let at = self
            .slot_by_id
            .binary_search_by_key(&sender_id, |&(id, _)| id)
            .expect("synchronizer message from an unknown sender ID");
        self.slot_by_id[at].1
    }

    /// Executes inner round `k` against `inbox` (already in synchronous
    /// delivery order), sending wrapped payloads and pulses through `ctx`
    /// unless `k` is the final round.
    fn exec_round(&mut self, ctx: &mut RoundContext<'_>, k: u64, inbox: &[Message]) {
        // Mirror the engine's fast path: a done inner node with an empty
        // inbox is not invoked after round 0 (keeps RNG schedules aligned
        // with the synchronous executor).
        let skip = k > 0 && inbox.is_empty() && self.inner.is_done();
        let outbox = if skip {
            Vec::new()
        } else {
            let (v, knowledge) = (ctx.node(), *ctx.knowledge());
            collect_sends(&mut self.inner, v, k, knowledge, &self.neighbors, inbox)
        };
        self.round = k + 1;
        if self.round >= self.total_rounds {
            // Nothing runs round `total_rounds`; pulses or payloads sent now
            // could never be consumed and would keep the run in flight
            // forever. A faithful replay sends nothing in its final round
            // anyway (the synchronous run terminated quiescent).
            return;
        }
        let mut counts = vec![0u64; self.neighbors.len()];
        let mut payloads: Vec<(usize, Message)> = Vec::with_capacity(outbox.len());
        for (to, msg) in outbox {
            let slot = self
                .neighbors
                .binary_search(&to)
                .expect("inner algorithm sent to a non-neighbour");
            let seq = counts[slot];
            counts[slot] += 1;
            assert!(
                seq < 64,
                "lockstep wrapper supports at most 64 messages per neighbour per round"
            );
            assert!(
                msg.tag() != PULSE_TAG,
                "inner algorithm used the reserved synchronizer pulse tag"
            );
            let wrapped = msg.with_id(self.own_id).with_value((k << 8) | seq);
            ctx.send(to, wrapped);
            payloads.push((slot, wrapped));
        }
        for (slot, &to) in self.neighbors.iter().enumerate() {
            ctx.send(
                to,
                Message::tagged(PULSE_TAG)
                    .with_id(self.own_id)
                    .with_value(k)
                    .with_value(counts[slot]),
            );
        }
        // Retain this round for crash re-join, evicting the oldest beyond
        // the replay depth (the bounded-memory guarantee).
        self.replay.push_back(ReplayRound {
            round: k,
            counts,
            payloads,
        });
        if self.replay.len() > self.replay_depth {
            self.replay.pop_front();
        }
        let buffered = self.replay.len() as u64;
        if buffered > self.ledger.peak_buffered.get() {
            self.ledger.peak_buffered.set(buffered);
        }
    }

    /// Answers a neighbour's `REJOIN(need)`: re-sends the retained pulses
    /// and payloads of every buffered round at or after `need` to that
    /// neighbour. Replays are copies of the originals, so the receiver's
    /// seq-mask / expected-count de-duplication makes them idempotent (a
    /// duplicated or reordered `REJOIN` is harmless too).
    fn replay_to(&self, ctx: &mut RoundContext<'_>, sender_id: u64, need: u64) {
        let slot = self.slot_of(sender_id);
        let to = self.neighbors[slot];
        let mut sent = 0u64;
        for r in &self.replay {
            if r.round < need {
                continue;
            }
            for (s, m) in &r.payloads {
                if *s == slot {
                    ctx.send(to, *m);
                    sent += 1;
                }
            }
            ctx.send(
                to,
                Message::tagged(PULSE_TAG)
                    .with_id(self.own_id)
                    .with_value(r.round)
                    .with_value(r.counts[slot]),
            );
            sent += 1;
        }
        self.ledger.replayed.set(self.ledger.replayed.get() + sent);
    }
}

impl<A: NodeAlgorithm> NodeAlgorithm for Synchronized<A> {
    fn on_round(&mut self, ctx: &mut RoundContext<'_>, inbox: &[Message]) {
        if inbox.is_empty() && self.round > 0 && !self.is_done() {
            // A mid-run activation without arrivals is a crash revival (the
            // executors never otherwise activate a node spontaneously):
            // everything this node can have lost while down is traffic for
            // the round it is waiting on or later, so ask every neighbour
            // to replay from there.
            let need = self.round - 1;
            for &to in &self.neighbors {
                ctx.send(
                    to,
                    Message::tagged(PULSE_TAG)
                        .with_id(self.own_id)
                        .with_value(need)
                        .with_value(REJOIN_COUNT),
                );
                self.ledger.pulses.set(self.ledger.pulses.get() + 1);
            }
            return;
        }
        // Absorb incoming synchronizer traffic into the per-slot buffers.
        for msg in inbox {
            if msg.tag() == PULSE_TAG {
                let sender = *msg.ids().last().expect("pulse without sender ID");
                let round = msg.values()[0];
                let count = msg.values()[1];
                if count == REJOIN_COUNT {
                    // A recovering neighbour asks for rounds >= `round`.
                    self.replay_to(ctx, sender, round);
                    continue;
                }
                if round + 1 < self.round {
                    continue; // stale (late duplicate of a consumed round)
                }
                let slot = self.slot_of(sender);
                let entry = self.bufs[slot].entry(round).or_default();
                if entry.expected.is_none() {
                    entry.expected = Some(count);
                }
            } else {
                let sender = *msg.ids().last().expect("payload without sender ID");
                let marker = *msg.values().last().expect("payload without round marker");
                let (round, seq) = (marker >> 8, marker & 0xff);
                if round + 1 < self.round {
                    continue;
                }
                let slot = self.slot_of(sender);
                let entry = self.bufs[slot].entry(round).or_default();
                if entry.seq_mask & (1 << seq) == 0 {
                    entry.seq_mask |= 1 << seq;
                    // Rebuild the inner message without the wrapper fields.
                    let ids = msg.ids();
                    let values = msg.values();
                    let mut unwrapped = Message::tagged(msg.tag());
                    for &id in &ids[..ids.len() - 1] {
                        unwrapped = unwrapped.with_id(id);
                    }
                    for &v in &values[..values.len() - 1] {
                        unwrapped = unwrapped.with_value(v);
                    }
                    entry.msgs.push((seq, unwrapped));
                }
            }
        }

        // Execute every inner round whose requirements are now met. Round 0
        // has none (it fires on the time-0 initialisation activation).
        loop {
            let k = self.round;
            if k >= self.total_rounds {
                break;
            }
            if k > 0 {
                let prev = k - 1;
                let all_ready = self
                    .bufs
                    .iter()
                    .all(|b| b.get(&prev).is_some_and(SlotRound::ready));
                if !all_ready {
                    break;
                }
            }
            let mut round_inbox: Vec<Message> = Vec::new();
            if k > 0 {
                // Slot order is neighbour-address order and seq order is
                // send order, which together reproduce the synchronous
                // executor's delivery order exactly.
                for buf in &mut self.bufs {
                    if let Some(mut entry) = buf.remove(&(k - 1)) {
                        entry.msgs.sort_unstable_by_key(|&(seq, _)| seq);
                        round_inbox.extend(entry.msgs.into_iter().map(|(_, m)| m));
                    }
                }
            }
            self.exec_round(ctx, k, &round_inbox);
        }
    }

    fn is_done(&self) -> bool {
        self.round >= self.total_rounds
    }

    fn output(&self) -> Option<u64> {
        self.inner.output()
    }
}

/// Runs a synchronous node algorithm on the asynchronous executor under a
/// fault plan, by wrapping every node in [`Synchronized`] for
/// `total_rounds` inner rounds.
///
/// Pass the round count of a synchronous run of the same algorithm
/// ([`crate::ExecutionReport::rounds`]) to replay it: on benign,
/// delay-only and duplicate/reorder schedules the reported outputs are
/// identical to the synchronous outputs; crashes with
/// [`Recovery::Retain`] re-join through the replay protocol (see the
/// [module docs](self)) and still complete bit-identically; under loss or
/// unrecovered crashes the run stalls instead of producing unsafe outputs.
///
/// Re-join traffic is reported in the returned
/// [`AsyncReport::faults`](crate::async_sim::AsyncReport)
/// (`rejoin_pulses` / `replayed`).
///
/// [`Recovery::Retain`]: crate::faults::Recovery::Retain
pub fn run_synchronized<A, F, R>(
    sim: &AsyncSimulator<'_>,
    config: AsyncConfig,
    plan: &FaultPlan,
    total_rounds: u64,
    rng: &mut R,
    mut make: F,
) -> AsyncReport
where
    A: NodeAlgorithm,
    F: FnMut(NodeInit<'_>) -> A,
    R: Rng + ?Sized,
{
    let ledger = Rc::new(RejoinLedger::default());
    let mut report = sim.run_with_faults(config, plan, rng, |init| {
        Synchronized::new(make(init), init, total_rounds).with_ledger(Rc::clone(&ledger))
    });
    report.faults.rejoin_pulses = ledger.rejoin_pulses();
    report.faults.replayed = ledger.replayed();
    report
}

/// Like [`run_synchronized`], additionally re-seating
/// [`Recovery::Reset`](crate::faults::Recovery::Reset) revivals at the
/// nearest engine checkpoint so they re-join instead of stalling.
///
/// The asynchronous executor rebuilds a reset node through the factory;
/// this wrapper then restores the rebuilt automaton from `chain` at the
/// boundary `resume_round` (e.g. [`CheckpointChain::at_or_before`] of the
/// crash round, from a [`crate::SyncSimulator::run_checkpointed`] log of
/// the same algorithm) via [`PersistState::decode_state`] and re-seats the
/// synchronizer shell at that inner round. The revival then broadcasts a
/// `REJOIN` for `resume_round - 1`, so `replay_depth` must cover the gap
/// from there to the most advanced neighbour — the checkpoint cadence plus
/// two is always enough. When `chain` has no state for a node or decoding
/// fails, that node restarts factory-fresh at round 0 and the run stalls
/// safely instead of producing wrong outputs.
///
/// For outputs bit-identical to the synchronous run, the automaton's
/// [`PersistState`] encoding must capture *all* volatile state, including
/// RNG cursors.
#[allow(clippy::too_many_arguments)]
pub fn run_synchronized_recovering<A, F, R>(
    sim: &AsyncSimulator<'_>,
    config: AsyncConfig,
    plan: &FaultPlan,
    total_rounds: u64,
    rng: &mut R,
    mut make: F,
    chain: &CheckpointChain,
    resume_round: u64,
    replay_depth: usize,
) -> AsyncReport
where
    A: PersistState,
    F: FnMut(NodeInit<'_>) -> A,
    R: Rng + ?Sized,
{
    let ledger = Rc::new(RejoinLedger::default());
    let mut seen = vec![false; sim.graph().num_nodes()];
    let mut report = sim.run_with_faults(config, plan, rng, |init| {
        let i = init.node.index();
        // A second factory call for the same node is a reset revival.
        let rebirth = std::mem::replace(&mut seen[i], true);
        let mut inner = make(init);
        let mut resume_at = 0;
        if rebirth {
            if let Some(words) = chain.state_of(i as u32, resume_round) {
                if inner.decode_state(words) {
                    resume_at = resume_round.min(total_rounds);
                }
            }
        }
        let mut node = Synchronized::new(inner, init, total_rounds)
            .with_replay_depth(replay_depth)
            .with_ledger(Rc::clone(&ledger));
        node.round = resume_at;
        node
    });
    report.faults.rejoin_pulses = ledger.rejoin_pulses();
    report.faults.replayed = ledger.replayed();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointConfig;
    use crate::faults::{CrashFault, DelayLaw, EdgeProb, Recovery};
    use crate::{KtLevel, NoopObserver, SyncConfig, SyncSimulator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use symbreak_graphs::{generators, IdAssignment};

    /// Broadcasts the running maximum ID for `t_limit` rounds.
    struct MaxFlood {
        t_limit: u64,
        max: u64,
        done: bool,
    }

    impl NodeAlgorithm for MaxFlood {
        fn on_round(&mut self, ctx: &mut RoundContext<'_>, inbox: &[Message]) {
            if ctx.round() == 0 {
                self.max = ctx.own_id();
            }
            for m in inbox {
                self.max = self.max.max(m.value().unwrap_or(0));
            }
            if ctx.round() < self.t_limit {
                ctx.broadcast(&Message::tagged(1).with_value(self.max));
            } else {
                self.done = true;
            }
        }
        fn is_done(&self) -> bool {
            self.done
        }
        fn output(&self) -> Option<u64> {
            Some(self.max)
        }
    }

    impl PersistState for MaxFlood {
        fn encode_state(&self, out: &mut Vec<u64>) {
            out.push(self.max);
            out.push(u64::from(self.done));
        }

        fn decode_state(&mut self, words: &[u64]) -> bool {
            let &[max, done] = words else { return false };
            if done > 1 {
                return false;
            }
            self.max = max;
            self.done = done == 1;
            true
        }
    }

    fn make_max(t_limit: u64) -> impl FnMut(NodeInit<'_>) -> MaxFlood {
        move |_init| MaxFlood {
            t_limit,
            max: 0,
            done: false,
        }
    }

    fn config() -> AsyncConfig {
        AsyncConfig {
            message_bit_limit: 384,
            max_time: 10_000,
            ..AsyncConfig::default()
        }
    }

    #[test]
    fn benign_lockstep_replays_the_sync_run_exactly() {
        let graph = generators::connected_gnp(20, 0.2, &mut StdRng::seed_from_u64(5));
        let ids = IdAssignment::identity(20);
        let sync = SyncSimulator::new(&graph, &ids, KtLevel::KT1);
        let sync_report = sync.run(SyncConfig::default(), make_max(4));
        assert!(sync_report.completed);
        let rounds = sync_report.rounds;

        let asim = AsyncSimulator::new(&graph, &ids, KtLevel::KT1);
        let mut rng = StdRng::seed_from_u64(99);
        let report = run_synchronized(
            &asim,
            config(),
            &FaultPlan::default(),
            rounds,
            &mut rng,
            make_max(4),
        );
        assert!(report.completed, "benign lockstep must terminate");
        assert_eq!(report.outputs, sync_report.outputs);
        // Pulse overhead is exactly (R - 1) · 2m on a benign schedule.
        let two_m = 2 * graph.num_edges() as u64;
        assert_eq!(report.messages, sync_report.messages + (rounds - 1) * two_m);
    }

    #[test]
    fn duplication_is_deduplicated_by_seq_masks() {
        let graph = generators::cycle(12);
        let ids = IdAssignment::identity(12);
        let sync = SyncSimulator::new(&graph, &ids, KtLevel::KT1);
        let sync_report = sync.run(SyncConfig::default(), make_max(3));
        let asim = AsyncSimulator::new(&graph, &ids, KtLevel::KT1);
        let plan = FaultPlan::default()
            .with_duplicate(EdgeProb::uniform(1.0))
            .with_reorder(0.5);
        let mut rng = StdRng::seed_from_u64(3);
        let report = run_synchronized(
            &asim,
            config(),
            &plan,
            sync_report.rounds,
            &mut rng,
            make_max(3),
        );
        assert!(report.completed);
        assert_eq!(report.outputs, sync_report.outputs);
        assert!(report.faults.duplicated > 0);
    }

    #[test]
    fn total_loss_stalls_without_unsafe_output() {
        let graph = generators::cycle(8);
        let ids = IdAssignment::identity(8);
        let asim = AsyncSimulator::new(&graph, &ids, KtLevel::KT1);
        let plan = FaultPlan::default().with_drop(EdgeProb::uniform(1.0));
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = AsyncConfig {
            max_time: 500,
            ..config()
        };
        let report = run_synchronized(&asim, cfg, &plan, 4, &mut rng, make_max(3));
        assert!(!report.completed, "lossy lockstep must stall, not lie");
        assert_eq!(report.time, 500);
        assert!(report.faults.dropped > 0);
    }

    #[test]
    fn retain_crash_rejoins_and_completes_bit_identically() {
        let graph = generators::cycle(12);
        let ids = IdAssignment::identity(12);
        let sync = SyncSimulator::new(&graph, &ids, KtLevel::KT1);
        let sync_report = sync.run(SyncConfig::default(), make_max(8));
        assert!(sync_report.completed);

        // Crash mid-run (inner rounds advance at most one per time unit, so
        // at t = 6 the node cannot have finished its 8+ rounds), revive long
        // after the stall drains the wheel.
        let asim = AsyncSimulator::new(&graph, &ids, KtLevel::KT1);
        let plan = FaultPlan::default().with_crash(CrashFault {
            node: NodeId(5),
            at: 6,
            recovery: Some((2_000, Recovery::Retain)),
        });
        let run = || {
            let mut rng = StdRng::seed_from_u64(7);
            run_synchronized(
                &asim,
                config(),
                &plan,
                sync_report.rounds,
                &mut rng,
                make_max(8),
            )
        };
        let report = run();
        assert!(report.completed, "a Retain crash must re-join, not stall");
        assert_eq!(report.outputs, sync_report.outputs);
        assert_eq!(report.faults.crashes, 1);
        assert_eq!(report.faults.recoveries, 1);
        assert!(
            report.faults.crash_dropped > 0,
            "the crash must actually lose traffic for re-join to matter"
        );
        // One REJOIN per neighbour (degree 2 on the cycle), answered with
        // retained copies.
        assert_eq!(report.faults.rejoin_pulses, 2);
        assert!(report.faults.replayed > 0);
        // The faulty schedule is deterministic given (config, plan, seed).
        assert_eq!(run(), report);
    }

    #[test]
    fn replay_buffers_stay_bounded_on_benign_schedules() {
        let graph = generators::cycle(10);
        let ids = IdAssignment::identity(10);
        let sync = SyncSimulator::new(&graph, &ids, KtLevel::KT1);
        let sync_report = sync.run(SyncConfig::default(), make_max(6));
        let asim = AsyncSimulator::new(&graph, &ids, KtLevel::KT1);
        let ledger = Rc::new(RejoinLedger::default());
        let mut rng = StdRng::seed_from_u64(11);
        let mut make = make_max(6);
        // A fixed delay law is lossless but non-identity, exercising the
        // fault-instrumented loop without any crash.
        let plan = FaultPlan::default().with_delay(DelayLaw::Fixed(2));
        let report = asim.run_with_faults(config(), &plan, &mut rng, |init| {
            Synchronized::new(make(init), init, sync_report.rounds).with_ledger(Rc::clone(&ledger))
        });
        assert!(report.completed);
        assert_eq!(report.outputs, sync_report.outputs);
        // Every node retained traffic, but never more than the depth bound.
        assert_eq!(ledger.peak_buffered_rounds(), DEFAULT_REPLAY_DEPTH as u64);
        assert_eq!(ledger.rejoin_pulses(), 0);
        assert_eq!(ledger.replayed(), 0);
    }

    #[test]
    fn reset_crash_rejoins_from_the_nearest_checkpoint() {
        let graph = generators::cycle(12);
        let ids = IdAssignment::identity(12);
        let sync = SyncSimulator::new(&graph, &ids, KtLevel::KT1);
        let sync_report = sync.run(SyncConfig::default(), make_max(8));
        assert!(sync_report.completed);

        // Checkpoint a synchronous run of the same algorithm every 2 rounds.
        let dir = std::env::temp_dir().join(format!("sb-lockstep-reset-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.sbck");
        let ckpt = CheckpointConfig::new(&path).with_every(2);
        let ck_report = sync
            .run_checkpointed(SyncConfig::default(), &ckpt, make_max(8), &mut NoopObserver)
            .unwrap();
        assert_eq!(ck_report, sync_report);
        let chain = CheckpointChain::load(&path).unwrap();

        // Fixed 1-unit delays advance exactly one inner round per tick, so a
        // crash at t = 5 catches node 3 with 5 rounds executed; the nearest
        // boundary at or before that is round 4.
        let resume = chain.at_or_before(5).unwrap().round;
        assert_eq!(resume, 4);
        let plan = FaultPlan::default()
            .with_delay(DelayLaw::Fixed(1))
            .with_crash(CrashFault {
                node: NodeId(3),
                at: 5,
                recovery: Some((2_000, Recovery::Reset)),
            });
        let asim = AsyncSimulator::new(&graph, &ids, KtLevel::KT1);
        let mut rng = StdRng::seed_from_u64(21);
        let report = run_synchronized_recovering(
            &asim,
            config(),
            &plan,
            sync_report.rounds,
            &mut rng,
            make_max(8),
            &chain,
            resume,
            4,
        );
        assert!(
            report.completed,
            "a Reset crash must re-join via the checkpoint"
        );
        assert_eq!(report.outputs, sync_report.outputs);
        assert_eq!(report.faults.crashes, 1);
        assert_eq!(report.faults.recoveries, 1);
        assert_eq!(report.faults.rejoin_pulses, 2);
        assert!(report.faults.replayed > 0);
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "at least 1 round")]
    fn zero_round_wrapper_rejected() {
        let graph = generators::cycle(4);
        let ids = IdAssignment::identity(4);
        let asim = AsyncSimulator::new(&graph, &ids, KtLevel::KT1);
        let mut rng = StdRng::seed_from_u64(0);
        run_synchronized(
            &asim,
            config(),
            &FaultPlan::default(),
            0,
            &mut rng,
            make_max(1),
        );
    }
}
