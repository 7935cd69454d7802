//! Runtime CONGEST-model compliance auditing.
//!
//! The simulator's correctness story so far is *differential* — every loop
//! is bit-identical to the naive reference. This module adds the orthogonal
//! *model-compliance* check: an [`Auditor`] that re-derives, per round, the
//! constraints the CONGEST model imposes on a legal execution and flags any
//! step that escapes them:
//!
//! * **Bandwidth** — a message's model size (16-bit tag plus one
//!   `w = ⌈log₂ n⌉`-bit word per ID/value field) must fit the per-edge
//!   budget `B = c·w` bits ([`AuditConfig::budget_c`], default
//!   [`DEFAULT_BUDGET_C`]).
//! * **Adjacency** — every message must travel on an edge of the input
//!   graph.
//! * **Multiplicity** — at most one message per edge *per direction* per
//!   round.
//! * **Window disjointness** — the per-worker write windows of a round
//!   split across threads must be pairwise disjoint (the race-freedom
//!   invariant behind the bit-identical merge).
//! * **Inbox disjointness** — after a delivery flip, no two nodes' inbox
//!   ranges may alias the same arena slots.
//!
//! Violations carry full provenance — `(round, edge, shard)` plus the
//! caller's replay seed — and either abort immediately
//! ([`AuditConfig::deny`], the `CONGEST_AUDIT=1` mode CI runs whole suites
//! under) or accumulate for inspection ([`Auditor::finish`]).
//!
//! Wiring: the auditor is one of the round loop's hooks, so it runs at any
//! thread count, composes with instrumentation, observers and checkpoints,
//! and sees every message in sequential send order (replayed from the
//! workers' send logs on rounds split across threads). Unaudited runs carry
//! no audit code at all.

use std::{fmt, io};

use symbreak_graphs::{EdgeId, Graph, NodeId};

use crate::engine::MessageArena;
use crate::sync::{Hooks, RoundLoop};
use crate::Message;

/// Environment variable enabling deny-mode auditing on every
/// [`crate::SyncSimulator::run`] — instrumented runs included — and every
/// checkpointed or resumed run (`CONGEST_AUDIT=1`; empty or `0`
/// disables).
pub const AUDIT_ENV: &str = "CONGEST_AUDIT";

/// Environment variable overriding the bandwidth budget multiplier `c`
/// of env-driven audits (`B = c·⌈log₂ n⌉` bits; default
/// [`DEFAULT_BUDGET_C`]).
pub const AUDIT_BUDGET_ENV: &str = "CONGEST_AUDIT_C";

/// Default bandwidth budget multiplier: `B = 24·⌈log₂ n⌉` bits. Generous
/// enough that every `O(log n)`-bit message of the shipped algorithms
/// passes structurally (a full message is `16 + 5w ≤ 24w` bits for every
/// `w ≥ 1`), tight enough to catch anything super-logarithmic.
pub const DEFAULT_BUDGET_C: u32 = 24;

/// Whether `CONGEST_AUDIT` requests env-driven (deny-mode) auditing.
pub fn audit_enabled() -> bool {
    std::env::var(AUDIT_ENV)
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

/// Configuration of an audited run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditConfig {
    /// Bandwidth budget multiplier: a message may carry at most
    /// `budget_c · ⌈log₂ n⌉` bits under the audit's model accounting.
    pub budget_c: u32,
    /// Deny mode: panic on the first violation (with full provenance)
    /// instead of accumulating it. This is what `CONGEST_AUDIT=1` runs use,
    /// so a green suite certifies zero violations.
    pub deny: bool,
    /// The caller's replay seed, stamped into every violation so a finding
    /// can be reproduced outside the audited run.
    pub seed: u64,
}

impl AuditConfig {
    /// Collect mode: violations accumulate and are returned by
    /// [`Auditor::finish`] / [`crate::SyncSimulator::run_audited`].
    pub fn collect(seed: u64) -> Self {
        AuditConfig {
            budget_c: DEFAULT_BUDGET_C,
            deny: false,
            seed,
        }
    }

    /// Deny mode: the first violation panics with full provenance.
    pub fn deny(seed: u64) -> Self {
        AuditConfig {
            deny: true,
            ..Self::collect(seed)
        }
    }

    /// The env-driven configuration `CONGEST_AUDIT=1` runs use: deny mode,
    /// budget multiplier from `CONGEST_AUDIT_C` (default
    /// [`DEFAULT_BUDGET_C`]).
    pub fn from_env() -> Self {
        let budget_c = std::env::var(AUDIT_BUDGET_ENV)
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&c| c > 0)
            .unwrap_or(DEFAULT_BUDGET_C);
        AuditConfig {
            budget_c,
            ..Self::deny(0)
        }
    }

    /// Overrides the bandwidth budget multiplier.
    pub fn with_budget(mut self, budget_c: u32) -> Self {
        self.budget_c = budget_c;
        self
    }
}

/// What a [`Violation`] violates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A message's model size exceeds the per-edge bandwidth budget.
    Bandwidth {
        /// The message's size under the audit's model accounting.
        bits: u32,
        /// The per-message budget `c·⌈log₂ n⌉` it exceeds.
        budget: u32,
    },
    /// A message addressed to a non-neighbour of its sender.
    Adjacency,
    /// More than one message on the same edge in the same direction within
    /// one round.
    Multiplicity {
        /// How many messages this edge-direction has carried this round,
        /// including the offending one.
        count: u32,
    },
    /// Two workers' write windows of the same round overlap.
    WindowOverlap {
        /// The earlier-recorded window's shard.
        other_shard: usize,
        /// The earlier-recorded window's node range.
        other_window: (usize, usize),
        /// The offending window's node range.
        window: (usize, usize),
    },
    /// Two nodes' delivered inbox ranges alias the same arena slots.
    InboxOverlap {
        /// The first aliasing node.
        a: NodeId,
        /// The second aliasing node.
        b: NodeId,
    },
}

/// One CONGEST-model violation with full provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// What was violated.
    pub kind: ViolationKind,
    /// The round the violation occurred in.
    pub round: u64,
    /// The sending node, when the violation concerns a message.
    pub from: Option<NodeId>,
    /// The receiving node, when the violation concerns a message.
    pub to: Option<NodeId>,
    /// The graph edge involved (`None` for adjacency violations — there is
    /// no such edge — and for window/inbox findings).
    pub edge: Option<EdgeId>,
    /// The window whose replayed send log raised the finding (`None` on
    /// rounds stepped as one window).
    pub shard: Option<usize>,
    /// The caller's replay seed ([`AuditConfig::seed`]).
    pub seed: u64,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CONGEST audit violation: ")?;
        match self.kind {
            ViolationKind::Bandwidth { bits, budget } => {
                write!(
                    f,
                    "message of {bits} model bits exceeds the {budget}-bit budget"
                )?;
            }
            ViolationKind::Adjacency => write!(f, "send to a non-neighbour")?,
            ViolationKind::Multiplicity { count } => {
                write!(f, "edge direction carried {count} messages in one round")?;
            }
            ViolationKind::WindowOverlap {
                other_shard,
                other_window,
                window,
            } => {
                write!(
                    f,
                    "write window {window:?} overlaps shard {other_shard}'s window {other_window:?}"
                )?;
            }
            ViolationKind::InboxOverlap { a, b } => {
                write!(f, "inbox ranges of nodes {} and {} alias", a.0, b.0)?;
            }
        }
        write!(f, " [round {}", self.round)?;
        if let (Some(from), Some(to)) = (self.from, self.to) {
            write!(f, ", {} -> {}", from.0, to.0)?;
        }
        if let Some(edge) = self.edge {
            write!(f, ", edge {}", edge.index())?;
        }
        if let Some(shard) = self.shard {
            write!(f, ", shard {shard}")?;
        }
        write!(f, ", seed {}]", self.seed)
    }
}

/// The runtime compliance checker. See the module docs for the invariants
/// it enforces and [`crate::SyncSimulator::run_audited`] for the usual way
/// to engage it; tests may also drive it directly through
/// [`Auditor::on_send`] / [`Auditor::record_window`] / [`Auditor::end_round`].
pub struct Auditor<'g> {
    graph: &'g Graph,
    cfg: AuditConfig,
    /// `⌈log₂ max(n, 2)⌉` — the model's word size for this graph.
    word_bits: u32,
    /// `budget_c · word_bits`.
    budget_bits: u32,
    /// Per-directed-edge message counts for the current round
    /// (`2·num_edges` slots, slot `2e + (from > to)`).
    counts: Vec<u8>,
    /// Slots touched this round (so `end_round` clears in O(touched)).
    touched: Vec<u32>,
    /// Write windows recorded this round: `(shard, lo, hi)`.
    windows: Vec<(usize, usize, usize)>,
    round: u64,
    shard: Option<usize>,
    violations: Vec<Violation>,
}

impl<'g> Auditor<'g> {
    /// Creates an auditor for runs over `graph`.
    pub fn new(graph: &'g Graph, cfg: AuditConfig) -> Self {
        let n = graph.num_nodes().max(2) as u32;
        let word_bits = (n - 1).ilog2() + 1;
        Auditor {
            graph,
            cfg,
            word_bits,
            budget_bits: cfg.budget_c * word_bits,
            counts: vec![0; graph.num_edges() * 2],
            touched: Vec::new(),
            windows: Vec::new(),
            round: 0,
            shard: None,
            violations: Vec::new(),
        }
    }

    /// The per-message bandwidth budget in bits (`c·⌈log₂ n⌉`).
    pub fn budget_bits(&self) -> u32 {
        self.budget_bits
    }

    /// A message's size under the model accounting: a 16-bit tag plus one
    /// `⌈log₂ n⌉`-bit word per ID/value field. (Distinct from
    /// [`Message::size_bits`], which charges full 64-bit words — the audit
    /// asks whether the *information content* fits `O(log n)` bits.)
    pub fn model_bits(&self, message: &Message) -> u32 {
        16 + (message.ids().len() + message.values().len()) as u32 * self.word_bits
    }

    /// Stamps subsequently raised violations with a worker shard (the
    /// round loop sets this while replaying each window's send log).
    pub fn set_shard(&mut self, shard: Option<usize>) {
        self.shard = shard;
    }

    /// Audits one message: adjacency, per-direction multiplicity,
    /// bandwidth.
    pub fn on_send(&mut self, from: NodeId, to: NodeId, message: &Message) {
        let edge = self.graph.edge_between(from, to);
        match edge {
            None => self.raise(ViolationKind::Adjacency, Some(from), Some(to), None),
            Some(edge) => {
                let slot = edge.index() * 2 + usize::from(from.0 > to.0);
                if self.counts[slot] == 0 {
                    self.touched.push(slot as u32);
                }
                self.counts[slot] = self.counts[slot].saturating_add(1);
                if self.counts[slot] > 1 {
                    let count = u32::from(self.counts[slot]);
                    self.raise(
                        ViolationKind::Multiplicity { count },
                        Some(from),
                        Some(to),
                        Some(edge),
                    );
                }
            }
        }
        let bits = self.model_bits(message);
        if bits > self.budget_bits {
            self.raise(
                ViolationKind::Bandwidth {
                    bits,
                    budget: self.budget_bits,
                },
                Some(from),
                Some(to),
                edge,
            );
        }
    }

    /// Records one worker's write window `[lo, hi)` for the current round
    /// and checks it against every window already recorded this round.
    pub fn record_window(&mut self, shard: usize, lo: usize, hi: usize) {
        for w in 0..self.windows.len() {
            let (other_shard, olo, ohi) = self.windows[w];
            if lo < ohi && olo < hi {
                self.raise(
                    ViolationKind::WindowOverlap {
                        other_shard,
                        other_window: (olo, ohi),
                        window: (lo, hi),
                    },
                    None,
                    None,
                    None,
                );
            }
        }
        self.windows.push((shard, lo, hi));
    }

    /// Closes the current round: clears the multiplicity counters and the
    /// window set, advances the round counter.
    pub fn end_round(&mut self) {
        for &slot in &self.touched {
            self.counts[slot as usize] = 0;
        }
        self.touched.clear();
        self.windows.clear();
        self.shard = None;
        self.round += 1;
    }

    /// The violations accumulated so far (always empty in deny mode).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Consumes the auditor and returns its violations.
    pub fn finish(self) -> Vec<Violation> {
        self.violations
    }

    fn raise(
        &mut self,
        kind: ViolationKind,
        from: Option<NodeId>,
        to: Option<NodeId>,
        edge: Option<EdgeId>,
    ) {
        let v = Violation {
            kind,
            round: self.round,
            from,
            to,
            edge,
            shard: self.shard,
            seed: self.cfg.seed,
        };
        if self.cfg.deny {
            panic!("{v}");
        }
        self.violations.push(v);
    }
}

impl fmt::Debug for Auditor<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Auditor")
            .field("cfg", &self.cfg)
            .field("round", &self.round)
            .field("violations", &self.violations.len())
            .finish_non_exhaustive()
    }
}

/// The auditor as round-loop hooks: every message, every window of a round
/// split across threads (stamping the findings of its replayed sends), and
/// every delivery.
impl<A> Hooks<A> for Auditor<'_> {
    const SENDS: bool = true;

    fn on_send(&mut self, from: NodeId, to: NodeId, message: &Message) {
        Auditor::on_send(self, from, to, message);
    }

    fn begin_round(&mut self, at: &RoundLoop<'_, A>) -> io::Result<bool> {
        // Provenance names the run's own rounds, also after a resume.
        self.round = at.round;
        Ok(false)
    }

    fn record_window(&mut self, window: usize, lo: usize, hi: usize) {
        self.set_shard(Some(window));
        Auditor::record_window(self, window, lo, hi);
    }

    fn end_round(&mut self, _round: u64, arena: &MessageArena) {
        // The flipped arena's inbox ranges must be pairwise disjoint.
        if let Some((a, b)) = arena.overlapping_inboxes() {
            let kind = ViolationKind::InboxOverlap {
                a: NodeId(a),
                b: NodeId(b),
            };
            self.raise(kind, None, None, None);
        }
        Auditor::end_round(self);
    }
}
