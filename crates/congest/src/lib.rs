//! A message-metered simulator for the KT-ρ CONGEST model.
//!
//! The paper *"Can We Break Symmetry with o(m) Communication?"* (PODC 2021)
//! proves all of its results in the synchronous CONGEST model with
//! `O(log n)`-bit messages, parameterised by the radius ρ of initial
//! knowledge (KT-ρ, Section 1.4.1). This crate implements that model as an
//! executable simulator:
//!
//! * [`KtLevel`] and [`KnowledgeView`] capture exactly what a node is allowed
//!   to know initially (IDs within radius ρ, adjacency within radius ρ − 1)
//!   and enforce it at query time.
//! * [`Message`] separates *ID-type* fields from *ordinary* fields, which is
//!   what the comparison-based lower-bound machinery of Section 2 needs
//!   (utilized edges, decoded representations of executions).
//! * [`SyncSimulator`] drives [`NodeAlgorithm`] automata round by round,
//!   metering every message, every round, per-edge traffic and utilized
//!   edges (Definition 2.3). One round loop runs every synchronous run —
//!   observed, instrumented, audited ([`audit`]), checkpointed and resumed
//!   ([`checkpoint`]) ones included — at any thread count. Its throughput
//!   knob — worker threads ([`SyncConfig::threads`] / `CONGEST_THREADS`) —
//!   never changes results: reports are bit-identical at every thread
//!   count.
//! * [`CostAccount`] additionally supports *charged* costs, used when a
//!   substrate (the danner of Theorem 1.1, the asynchronous MST of
//!   Theorem 1.3) is invoked as a black box with published complexity.
//! * [`async_sim`] provides the α-synchronizer accounting of Theorem A.5 and
//!   a randomized-delay executor for asynchrony experiments.
//!
//! # Example: flooding a token
//!
//! ```
//! use symbreak_congest::{KtLevel, Message, NodeAlgorithm, NodeInit, RoundContext, SyncConfig,
//!     SyncSimulator};
//! use symbreak_graphs::{generators, IdAssignment};
//!
//! struct Flood { have: bool, done: bool }
//!
//! impl NodeAlgorithm for Flood {
//!     fn on_round(&mut self, ctx: &mut RoundContext<'_>, inbox: &[Message]) {
//!         let newly = (ctx.round() == 0 && ctx.node().0 == 0) || (!self.have && !inbox.is_empty());
//!         if newly {
//!             self.have = true;
//!             ctx.broadcast(&Message::tagged(1));
//!         } else if self.have {
//!             self.done = true;
//!         }
//!     }
//!     fn is_done(&self) -> bool { self.done }
//!     fn output(&self) -> Option<u64> { Some(u64::from(self.have)) }
//! }
//!
//! let graph = generators::cycle(8);
//! let ids = IdAssignment::identity(8);
//! let sim = SyncSimulator::new(&graph, &ids, KtLevel::KT1);
//! let report = sim.run(SyncConfig::default(), |_init: NodeInit<'_>| Flood { have: false, done: false });
//! assert!(report.completed);
//! assert!(report.outputs.iter().all(|o| *o == Some(1)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod async_sim;
pub mod audit;
pub mod checkpoint;
mod engine;
mod error;
pub mod faults;
mod knowledge;
pub mod lockstep;
mod message;
mod metrics;
mod model;
mod node;
pub mod reference;
mod sync;
pub mod trace;

pub use audit::{
    audit_enabled, AuditConfig, Auditor, Violation, ViolationKind, AUDIT_BUDGET_ENV, AUDIT_ENV,
    DEFAULT_BUDGET_C,
};
pub use checkpoint::{
    CheckpointChain, CheckpointConfig, CheckpointRecord, PersistState, CHECKPOINT_DIR_ENV,
};
pub use engine::{NoopObserver, RoundObserver};
pub use error::SimError;
pub use faults::{
    fault_seed_from_env, scenario_enabled, CrashFault, DelayLaw, EdgeProb, FaultPlan, FaultStats,
    Recovery, FAULT_SCENARIOS_ENV, FAULT_SEED_ENV,
};
pub use knowledge::{KnowledgeView, KnownNeighbors};
pub use lockstep::{
    run_synchronized, run_synchronized_recovering, RejoinLedger, Synchronized,
    DEFAULT_REPLAY_DEPTH, PULSE_TAG,
};
pub use message::{Message, MAX_ID_FIELDS, MAX_VALUE_FIELDS};
pub use metrics::{CostAccount, PhaseCost};
pub use model::KtLevel;
pub use node::{NodeAlgorithm, NodeInit, RoundContext};
pub use sync::{ExecutionReport, SyncConfig, SyncSimulator, THREADS_ENV};
