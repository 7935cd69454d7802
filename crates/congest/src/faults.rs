//! Deterministic, seed-reproducible fault injection for the asynchronous
//! executor.
//!
//! The paper's asynchronous claims (Theorem 3.4, via Awerbuch's
//! α-synchronizer, Theorem A.5) are stated against an adversary that
//! controls message delays but delivers faithfully. A [`FaultPlan`] widens
//! the adversary along three axes:
//!
//! * **delay laws** ([`DelayLaw`]) — the benign uniform law of
//!   [`crate::async_sim::AsyncSimulator::run`], a fixed law, an *oblivious*
//!   adversary that fixes one delay per directed edge up front from a seed,
//!   a seeded slow/fast edge-class partition, and an *adaptive* adversary
//!   that watches the traffic frontier and maximally delays the busiest
//!   receivers;
//! * **channel faults** — per-edge or global message drop and duplication
//!   probabilities ([`EdgeProb`]) plus a reordering knob (extra delay
//!   jitter, [`FaultPlan::reorder`]) that breaks whatever FIFO-ness the
//!   delay law would otherwise leave intact;
//! * **node faults** ([`CrashFault`]) — crash at a scheduled time, with
//!   optional recovery that either resets the automaton to its initial
//!   state or retains the pre-crash state.
//!
//! Everything is deterministic given the caller's RNG seed and the plan:
//! both [`crate::async_sim::AsyncSimulator::run_with_faults`] and the
//! full-scan oracle
//! [`crate::reference::NaiveAsyncSimulator::run_with_faults`] draw the same
//! fault decisions in the same order, so the differential suite
//! (`tests/async_equivalence.rs`) covers faulty schedules too, and any run
//! can be replayed bit-exactly from its seed.
//!
//! The all-default plan is the *identity*: [`FaultPlan::is_identity`] routes
//! it onto the exact fault-free executor path, so wiring the seam in costs
//! the benign path nothing (the `sim_engine` bench gates this).

use rand::Rng;
use symbreak_graphs::NodeId;

use crate::async_sim::AsyncConfig;

/// Environment variable selecting the base seed of fault-matrix scenario
/// runs (`tests/fault_matrix.rs`): a `u64`, combined with each cell's local
/// seed so the whole matrix can be replayed under a different randomness
/// universe without editing code.
pub const FAULT_SEED_ENV: &str = "CONGEST_FAULT_SEED";

/// Environment variable selecting which fault scenarios run: a
/// comma-separated list of scenario names (e.g. `"loss,crash"`). Unset or
/// empty means *all* scenarios.
pub const FAULT_SCENARIOS_ENV: &str = "CONGEST_FAULT_SCENARIOS";

/// The base seed for fault scenario runs: [`FAULT_SEED_ENV`] if set and
/// parseable as `u64`, otherwise `default`.
pub fn fault_seed_from_env(default: u64) -> u64 {
    match std::env::var(FAULT_SEED_ENV) {
        Ok(raw) => raw.trim().parse().unwrap_or(default),
        Err(_) => default,
    }
}

/// Whether the named scenario is enabled under [`FAULT_SCENARIOS_ENV`]:
/// `true` when the variable is unset/empty or the (trimmed,
/// case-insensitive) list contains `name`.
pub fn scenario_enabled(name: &str) -> bool {
    match std::env::var(FAULT_SCENARIOS_ENV) {
        Ok(raw) if !raw.trim().is_empty() => raw
            .split(',')
            .any(|s| s.trim().eq_ignore_ascii_case(name.trim())),
        _ => true,
    }
}

/// How message delivery delays are chosen, per message copy.
///
/// Every law produces delays in `1..=d` time units where `d` is the plan's
/// effective maximum delay ([`FaultPlan::max_effective_delay`]); the
/// executors size their delay wheels from that bound.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DelayLaw {
    /// The benign law of the fault-free executor: uniform in
    /// `1..=max_delay`, drawn from the run RNG. This is the identity law —
    /// a plan using it (and no other fault) is routed onto the exact
    /// fault-free code path.
    #[default]
    Uniform,
    /// Every message takes exactly this many time units (clamped to ≥ 1).
    Fixed(u64),
    /// An oblivious adversary: each *directed edge* gets one delay in
    /// `1..=max_delay`, fixed up front as a hash of the seed and the edge,
    /// before any coin of the algorithm is seen.
    Oblivious {
        /// Seed of the per-edge delay assignment.
        seed: u64,
    },
    /// A seeded slow/fast partition of the directed edges: a `slow_fraction`
    /// of edges always take `max_delay`, the rest always take 1 — the
    /// classic "one slow link" adversary at `slow_fraction` generality.
    EdgeClasses {
        /// Seed of the edge classification.
        seed: u64,
        /// Fraction of directed edges classified slow, in `[0, 1]`.
        slow_fraction: f64,
    },
    /// An adaptive adversary observing the traffic frontier: a message to a
    /// receiver whose cumulative inbound traffic is above the network
    /// average takes `max_delay`; everything else is delivered at speed 1.
    /// Deterministic (no RNG draws) — the adversary's knowledge is exactly
    /// the executor's own dispatch history.
    Adaptive,
}

/// A global-or-per-edge probability, used for message drop and duplication.
///
/// The probability of a (directed) edge is the last matching override, or
/// the global default. All probabilities must lie in `[0, 1]`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EdgeProb {
    /// The global probability applied to every edge without an override.
    pub default: f64,
    /// Per-directed-edge `(from, to, p)` overrides.
    pub overrides: Vec<(NodeId, NodeId, f64)>,
}

impl EdgeProb {
    /// Probability 0 everywhere (the identity).
    pub fn never() -> Self {
        EdgeProb::default()
    }

    /// The same probability on every edge.
    pub fn uniform(p: f64) -> Self {
        EdgeProb {
            default: p,
            overrides: Vec::new(),
        }
    }

    /// Adds a per-directed-edge override.
    pub fn with_edge(mut self, from: NodeId, to: NodeId, p: f64) -> Self {
        self.overrides.push((from, to, p));
        self
    }

    /// The probability on directed edge `from → to`.
    pub fn at(&self, from: NodeId, to: NodeId) -> f64 {
        self.overrides
            .iter()
            .rev()
            .find(|&&(f, t, _)| f == from && t == to)
            .map(|&(_, _, p)| p)
            .unwrap_or(self.default)
    }

    /// Whether this probability is 0 on every edge.
    pub fn is_never(&self) -> bool {
        self.default == 0.0 && self.overrides.iter().all(|&(_, _, p)| p == 0.0)
    }

    fn validate(&self, what: &str) {
        assert!(
            (0.0..=1.0).contains(&self.default),
            "{what} default probability {} outside [0, 1]",
            self.default
        );
        for &(f, t, p) in &self.overrides {
            assert!(
                (0.0..=1.0).contains(&p),
                "{what} override on {f}->{t} probability {p} outside [0, 1]"
            );
        }
    }
}

/// What a crashed node's state looks like when it comes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// The automaton is rebuilt from the node factory and its local round
    /// counter restarts at 0 (a clean reboot losing all volatile state).
    Reset,
    /// The automaton resumes exactly where the crash left it (persistent
    /// state survived; only the downtime — and every message that arrived
    /// during it — is lost).
    Retain,
}

/// A scheduled node crash, with optional recovery.
///
/// From time `at` (inclusive) the node stops being activated and every
/// message arriving at it is discarded (counted as
/// [`FaultStats::crash_dropped`]). Messages it sent *before* crashing stay
/// in flight. With a recovery `(t, r)` the node rejoins at time `t > at`:
/// it is spontaneously activated that tick (with whatever messages arrive at
/// exactly `t`) and its state follows `r`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashFault {
    /// The crashing node.
    pub node: NodeId,
    /// Crash time (a node with `at = 0` never runs at all).
    pub at: u64,
    /// Optional `(time, mode)` recovery, with `time > at`.
    pub recovery: Option<(u64, Recovery)>,
}

/// A composable, deterministic fault scenario for the asynchronous
/// executors. See the [module docs](self) for the model.
///
/// `FaultPlan::default()` is the identity: uniform delays, no loss, no
/// duplication, no reordering jitter, no crashes — runs with it are
/// bit-identical to the fault-free
/// [`crate::async_sim::AsyncSimulator::run`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The delay law applied to every delivered copy.
    pub delay: DelayLaw,
    /// Per-edge / global message loss probability.
    pub drop: EdgeProb,
    /// Per-edge / global message duplication probability (a duplicated
    /// message is delivered twice, each copy with its own delay).
    pub duplicate: EdgeProb,
    /// Reordering jitter: with this probability a delivered copy takes an
    /// *extra* uniform `1..=max_delay` delay on top of its law delay,
    /// overtaking later traffic on the same edge.
    pub reorder: f64,
    /// Scheduled node crashes.
    pub crashes: Vec<CrashFault>,
}

impl FaultPlan {
    /// Replaces the delay law.
    pub fn with_delay(mut self, law: DelayLaw) -> Self {
        self.delay = law;
        self
    }

    /// Replaces the drop probability.
    pub fn with_drop(mut self, p: EdgeProb) -> Self {
        self.drop = p;
        self
    }

    /// Replaces the duplication probability.
    pub fn with_duplicate(mut self, p: EdgeProb) -> Self {
        self.duplicate = p;
        self
    }

    /// Sets the reordering jitter probability.
    pub fn with_reorder(mut self, p: f64) -> Self {
        self.reorder = p;
        self
    }

    /// Adds a crash fault.
    pub fn with_crash(mut self, crash: CrashFault) -> Self {
        self.crashes.push(crash);
        self
    }

    /// Whether this plan injects nothing: uniform delays, zero drop and
    /// duplication everywhere, zero reorder jitter and no crashes. Identity
    /// plans are routed onto the exact fault-free executor path, so their
    /// reports are bit-identical to [`crate::async_sim::AsyncSimulator::run`]
    /// under the same seed.
    pub fn is_identity(&self) -> bool {
        self.delay == DelayLaw::Uniform
            && self.drop.is_never()
            && self.duplicate.is_never()
            && self.reorder == 0.0
            && self.crashes.is_empty()
    }

    /// The largest delay any copy can experience under this plan with
    /// `config`'s base `max_delay`: the law's bound, plus another
    /// `max_delay` when reorder jitter is enabled. The executors size their
    /// delay wheels as `max_effective_delay + 1` slots.
    pub fn max_effective_delay(&self, config: &AsyncConfig) -> u64 {
        let base = match self.delay {
            DelayLaw::Fixed(d) => d.max(1),
            _ => config.max_delay,
        };
        if self.reorder > 0.0 {
            base + config.max_delay
        } else {
            base
        }
    }

    /// Panics if the plan is malformed for an `n`-node run: probabilities
    /// outside `[0, 1]`, crash nodes out of range, or recoveries not after
    /// their crash.
    pub fn validate(&self, n: usize) {
        self.drop.validate("drop");
        self.duplicate.validate("duplicate");
        assert!(
            (0.0..=1.0).contains(&self.reorder),
            "reorder probability {} outside [0, 1]",
            self.reorder
        );
        if let DelayLaw::EdgeClasses { slow_fraction, .. } = self.delay {
            assert!(
                (0.0..=1.0).contains(&slow_fraction),
                "slow_fraction {slow_fraction} outside [0, 1]"
            );
        }
        for c in &self.crashes {
            assert!(
                c.node.index() < n,
                "crash fault names node {} of an {n}-node graph",
                c.node
            );
            if let Some((t, _)) = c.recovery {
                assert!(
                    t > c.at,
                    "node {} recovery at {t} not after its crash at {}",
                    c.node,
                    c.at
                );
            }
        }
    }
}

/// Counters of what a fault-enabled run actually did. All zero on the
/// fault-free path (identity plans do not pay for the bookkeeping).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Message copies handed to an automaton.
    pub delivered: u64,
    /// Messages lost to the drop law.
    pub dropped: u64,
    /// Extra copies created by the duplication law.
    pub duplicated: u64,
    /// Message copies discarded because their receiver was down on arrival.
    pub crash_dropped: u64,
    /// Crash events applied.
    pub crashes: u64,
    /// Recovery events applied.
    pub recoveries: u64,
    /// `REJOIN` pulses broadcast by recovering synchronizer nodes
    /// ([`crate::lockstep::Synchronized`]); zero outside lockstep runs.
    pub rejoin_pulses: u64,
    /// Retained message copies re-sent by neighbours in response to a
    /// `REJOIN` pulse; zero outside lockstep runs.
    pub replayed: u64,
}

/// splitmix64 — the per-edge hash behind the oblivious delay laws.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn edge_hash(seed: u64, from: NodeId, to: NodeId) -> u64 {
    mix(seed ^ mix(u64::from(from.0) + 1) ^ mix((u64::from(to.0) + 1) << 32))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    Down,
    Up(Recovery),
}

/// Per-run fault state shared by the slot-wheel executor and the full-scan
/// oracle. Both drive the *same* decision sequence through it (same plan,
/// same RNG, same per-tick batch order), which is what makes faulty runs
/// reproducible and cross-executor bit-identical.
pub(crate) struct FaultSession<'p> {
    plan: &'p FaultPlan,
    n: usize,
    max_delay: u64,
    max_effective_delay: u64,
    /// Crash/recovery timeline, sorted by `(time, node)`.
    events: Vec<(u64, u32, EventKind)>,
    next_event: usize,
    down: Vec<bool>,
    /// Nodes revived this tick (ascending), to be activated spontaneously.
    revived: Vec<u32>,
    /// Adaptive-adversary state: cumulative enqueued copies per receiver.
    inbound: Vec<u64>,
    total_inbound: u64,
    pub(crate) stats: FaultStats,
}

impl<'p> FaultSession<'p> {
    pub(crate) fn new(plan: &'p FaultPlan, n: usize, config: &AsyncConfig) -> Self {
        plan.validate(n);
        let mut events: Vec<(u64, u32, EventKind)> = Vec::new();
        for c in &plan.crashes {
            events.push((c.at, c.node.0, EventKind::Down));
            if let Some((t, r)) = c.recovery {
                events.push((t, c.node.0, EventKind::Up(r)));
            }
        }
        events.sort_by_key(|&(t, v, _)| (t, v));
        FaultSession {
            plan,
            n,
            max_delay: config.max_delay,
            max_effective_delay: plan.max_effective_delay(config),
            events,
            next_event: 0,
            down: vec![false; n],
            revived: Vec::new(),
            inbound: vec![0; n],
            total_inbound: 0,
            stats: FaultStats::default(),
        }
    }

    /// Wheel size covering every possible delay under this plan.
    pub(crate) fn window(&self) -> usize {
        (self.max_effective_delay + 1) as usize
    }

    /// The time of the next unapplied crash/recovery event, if any.
    pub(crate) fn next_event_time(&self) -> Option<u64> {
        self.events.get(self.next_event).map(|&(t, _, _)| t)
    }

    /// Applies every event scheduled at or before `time` (in `(time, node)`
    /// order). `on_recover(node, reset)` fires for each recovery so the
    /// caller can rebuild automata that reset.
    pub(crate) fn apply_events<F>(&mut self, time: u64, mut on_recover: F)
    where
        F: FnMut(usize, bool),
    {
        while let Some(&(t, v, kind)) = self.events.get(self.next_event) {
            if t > time {
                break;
            }
            self.next_event += 1;
            match kind {
                EventKind::Down => {
                    if !self.down[v as usize] {
                        self.down[v as usize] = true;
                        self.stats.crashes += 1;
                    }
                }
                EventKind::Up(r) => {
                    if self.down[v as usize] {
                        self.down[v as usize] = false;
                        self.stats.recoveries += 1;
                        self.revived.push(v);
                        on_recover(v as usize, r == Recovery::Reset);
                    }
                }
            }
        }
    }

    /// Nodes revived by the last [`FaultSession::apply_events`] call,
    /// ascending. Cleared with [`FaultSession::clear_revived`] once the
    /// tick's activations ran.
    pub(crate) fn revived(&self) -> &[u32] {
        &self.revived
    }

    pub(crate) fn clear_revived(&mut self) {
        self.revived.clear();
    }

    pub(crate) fn is_down(&self, i: usize) -> bool {
        self.down[i]
    }

    /// Routes one sent message: decides drop/duplication and pushes the
    /// delay of each delivered copy into `delays` (cleared first; empty
    /// means the message was dropped). All randomness comes from `rng`, in
    /// a fixed per-message order, so two executors iterating the same batch
    /// sequence make identical decisions.
    pub(crate) fn route<R: Rng + ?Sized>(
        &mut self,
        from: NodeId,
        to: NodeId,
        rng: &mut R,
        delays: &mut Vec<u64>,
    ) {
        delays.clear();
        let drop_p = self.plan.drop.at(from, to);
        if drop_p > 0.0 && rng.gen::<f64>() < drop_p {
            self.stats.dropped += 1;
            return;
        }
        let dup_p = self.plan.duplicate.at(from, to);
        let copies = if dup_p > 0.0 && rng.gen::<f64>() < dup_p {
            self.stats.duplicated += 1;
            2
        } else {
            1
        };
        for _ in 0..copies {
            let base = match self.plan.delay {
                DelayLaw::Uniform => rng.gen_range(1..=self.max_delay),
                DelayLaw::Fixed(d) => d.max(1),
                DelayLaw::Oblivious { seed } => 1 + edge_hash(seed, from, to) % self.max_delay,
                DelayLaw::EdgeClasses {
                    seed,
                    slow_fraction,
                } => {
                    // Map the edge hash onto [0, 1) with 53-bit precision.
                    let u = (edge_hash(seed, from, to) >> 11) as f64 / (1u64 << 53) as f64;
                    if u < slow_fraction {
                        self.max_delay
                    } else {
                        1
                    }
                }
                DelayLaw::Adaptive => {
                    let above_avg =
                        self.inbound[to.index()].saturating_mul(self.n as u64) > self.total_inbound;
                    if above_avg {
                        self.max_delay
                    } else {
                        1
                    }
                }
            };
            let jitter = if self.plan.reorder > 0.0 && rng.gen::<f64>() < self.plan.reorder {
                rng.gen_range(1..=self.max_delay)
            } else {
                0
            };
            self.inbound[to.index()] += 1;
            self.total_inbound += 1;
            delays.push(base + jitter);
        }
    }

    /// Records `count` copies handed to a live automaton.
    pub(crate) fn note_delivered(&mut self, count: u64) {
        self.stats.delivered += count;
    }

    /// Records `count` copies discarded at a down receiver.
    pub(crate) fn note_crash_dropped(&mut self, count: u64) {
        self.stats.crash_dropped += count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn default_plan_is_identity() {
        let plan = FaultPlan::default();
        assert!(plan.is_identity());
        let config = AsyncConfig::default();
        assert_eq!(plan.max_effective_delay(&config), config.max_delay);
    }

    #[test]
    fn non_identity_knobs_detected() {
        let config = AsyncConfig::default();
        assert!(!FaultPlan::default()
            .with_delay(DelayLaw::Fixed(3))
            .is_identity());
        assert!(!FaultPlan::default()
            .with_drop(EdgeProb::uniform(0.1))
            .is_identity());
        assert!(!FaultPlan::default()
            .with_duplicate(EdgeProb::never().with_edge(NodeId(0), NodeId(1), 0.5))
            .is_identity());
        let jittered = FaultPlan::default().with_reorder(0.5);
        assert!(!jittered.is_identity());
        // Jitter stacks another max_delay on top of the law's bound.
        assert_eq!(jittered.max_effective_delay(&config), 2 * config.max_delay);
        assert!(!FaultPlan::default()
            .with_crash(CrashFault {
                node: NodeId(0),
                at: 3,
                recovery: None,
            })
            .is_identity());
        // A zero-probability override is still the identity.
        assert!(FaultPlan::default()
            .with_drop(EdgeProb::never().with_edge(NodeId(0), NodeId(1), 0.0))
            .is_identity());
    }

    #[test]
    fn edge_prob_overrides_win() {
        let p = EdgeProb::uniform(0.25).with_edge(NodeId(3), NodeId(4), 0.75);
        assert_eq!(p.at(NodeId(0), NodeId(1)), 0.25);
        assert_eq!(p.at(NodeId(3), NodeId(4)), 0.75);
        assert_eq!(p.at(NodeId(4), NodeId(3)), 0.25);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn invalid_probability_rejected() {
        FaultPlan::default()
            .with_drop(EdgeProb::uniform(1.5))
            .validate(4);
    }

    #[test]
    #[should_panic(expected = "not after its crash")]
    fn recovery_before_crash_rejected() {
        FaultPlan::default()
            .with_crash(CrashFault {
                node: NodeId(1),
                at: 5,
                recovery: Some((5, Recovery::Reset)),
            })
            .validate(4);
    }

    #[test]
    fn oblivious_delays_are_per_edge_constants_in_range() {
        let plan = FaultPlan::default().with_delay(DelayLaw::Oblivious { seed: 9 });
        let config = AsyncConfig::default();
        let mut s = FaultSession::new(&plan, 8, &config);
        let mut rng = StdRng::seed_from_u64(0);
        let mut delays = Vec::new();
        let mut first = std::collections::BTreeMap::new();
        for round in 0..3 {
            for a in 0..8u32 {
                for b in 0..8u32 {
                    if a == b {
                        continue;
                    }
                    s.route(NodeId(a), NodeId(b), &mut rng, &mut delays);
                    assert_eq!(delays.len(), 1);
                    let d = delays[0];
                    assert!((1..=config.max_delay).contains(&d));
                    let prev = first.entry((a, b)).or_insert(d);
                    assert_eq!(*prev, d, "edge delay changed between rounds ({round})");
                }
            }
        }
        // Not all edges share one delay (the law is genuinely per-edge).
        let distinct: std::collections::BTreeSet<u64> = first.values().copied().collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn adaptive_law_slows_busy_receivers() {
        let plan = FaultPlan::default().with_delay(DelayLaw::Adaptive);
        let config = AsyncConfig::default();
        let mut s = FaultSession::new(&plan, 4, &config);
        let mut rng = StdRng::seed_from_u64(0);
        let mut delays = Vec::new();
        // Load node 1 far above average.
        for _ in 0..10 {
            s.route(NodeId(0), NodeId(1), &mut rng, &mut delays);
        }
        s.route(NodeId(0), NodeId(1), &mut rng, &mut delays);
        assert_eq!(delays, vec![config.max_delay]);
        // A cold receiver goes at speed 1.
        s.route(NodeId(0), NodeId(2), &mut rng, &mut delays);
        assert_eq!(delays, vec![1]);
    }

    #[test]
    fn drop_and_duplicate_extremes() {
        let config = AsyncConfig::default();
        let always_drop = FaultPlan::default().with_drop(EdgeProb::uniform(1.0));
        let mut s = FaultSession::new(&always_drop, 2, &config);
        let mut rng = StdRng::seed_from_u64(1);
        let mut delays = Vec::new();
        s.route(NodeId(0), NodeId(1), &mut rng, &mut delays);
        assert!(delays.is_empty());
        assert_eq!(s.stats.dropped, 1);

        let always_dup = FaultPlan::default().with_duplicate(EdgeProb::uniform(1.0));
        let mut s = FaultSession::new(&always_dup, 2, &config);
        s.route(NodeId(0), NodeId(1), &mut rng, &mut delays);
        assert_eq!(delays.len(), 2);
        assert_eq!(s.stats.duplicated, 1);
    }

    #[test]
    fn crash_timeline_applies_in_order() {
        let plan = FaultPlan::default()
            .with_crash(CrashFault {
                node: NodeId(2),
                at: 3,
                recovery: Some((7, Recovery::Reset)),
            })
            .with_crash(CrashFault {
                node: NodeId(0),
                at: 3,
                recovery: None,
            });
        let config = AsyncConfig::default();
        let mut s = FaultSession::new(&plan, 4, &config);
        assert_eq!(s.next_event_time(), Some(3));
        let mut resets = Vec::new();
        s.apply_events(2, |i, r| resets.push((i, r)));
        assert!(!s.is_down(0) && !s.is_down(2));
        s.apply_events(3, |i, r| resets.push((i, r)));
        assert!(s.is_down(0) && s.is_down(2));
        assert_eq!(s.next_event_time(), Some(7));
        s.apply_events(7, |i, r| resets.push((i, r)));
        assert!(s.is_down(0) && !s.is_down(2));
        assert_eq!(s.revived(), &[2]);
        assert_eq!(resets, vec![(2, true)]);
        assert_eq!(s.next_event_time(), None);
        assert_eq!(s.stats.crashes, 2);
        assert_eq!(s.stats.recoveries, 1);
    }

    #[test]
    fn scenario_filter_unset_enables_everything() {
        // The suite never sets the variable in-process, so this checks the
        // unset default (running it under a user-set filter is fine too —
        // the assertion below only exercises parsing).
        if std::env::var(FAULT_SCENARIOS_ENV).is_err() {
            assert!(scenario_enabled("benign"));
            assert!(scenario_enabled("anything"));
        }
    }
}
