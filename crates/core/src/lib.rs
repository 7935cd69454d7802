//! The paper's contribution: o(m)-message symmetry breaking in KT-1/KT-2
//! CONGEST.
//!
//! This crate implements the three upper-bound algorithms of
//! *"Can We Break Symmetry with o(m) Communication?"* (PODC 2021) on top of
//! the workspace's CONGEST simulator, danner substrate and classic building
//! blocks:
//!
//! * [`alg1_coloring`] — Algorithm 1: (Δ+1)-list-coloring in KT-1 with
//!   Õ(n^1.5) messages (Theorem 3.3) and its asynchronous variant
//!   (Theorem 3.4).
//! * [`alg2_coloring`] — Algorithm 2: (1+ε)Δ-coloring in KT-1 with
//!   Õ(n/ε²) messages (Theorem 3.8).
//! * [`alg3_mis`] — Algorithm 3: MIS in KT-2 with Õ(n^1.5) messages
//!   (Theorem 4.1).
//! * [`partition`] — the Chang et al. vertex/palette partition evaluated
//!   from shared randomness with Θ(log n)-wise independence (Lemma 3.1).
//! * [`repair`] — incremental repair after edge churn: dirty-frontier
//!   extraction, frontier-induced subgraphs re-entering the Johansson and
//!   Luby runtimes, and the [`ChurnSession`] that holds the overlay.
//! * [`stage_flat`] — the one stage runtime of Algorithm 1's coloring
//!   stages (arena-backed stage specs, bitset palettes, borrow-threaded
//!   automata), synchronous and asynchronous;
//!   [`query_coloring`] holds its query-target oracle. The committed golden
//!   digests in `tests/golden_digests.rs` pin the outputs and per-phase
//!   costs of every algorithm built on it.
//! * [`experiments`] / [`report`] — the measurement harness used by the
//!   examples and the benches (the `sweeps` bench writes its rows to
//!   `BENCH_sweeps.json`).
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use symbreak_core::{alg1_coloring, Alg1Config};
//! use symbreak_classic::coloring::verify;
//! use symbreak_graphs::{generators, IdAssignment, IdSpace};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let graph = generators::connected_gnp(60, 0.4, &mut rng);
//! let ids = IdAssignment::random(&graph, IdSpace::CUBIC, &mut rng);
//!
//! let out = alg1_coloring::run(&graph, &ids, Alg1Config::default(), &mut rng).unwrap();
//! assert!(verify::is_proper_coloring(&graph, &out.colors));
//! println!("messages: {}", out.costs.total_messages());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alg1_coloring;
pub mod alg2_coloring;
pub mod alg3_mis;
mod error;
pub mod experiments;
pub mod partition;
mod prologue;
pub mod query_coloring;
pub mod repair;
pub mod report;
pub mod stage_flat;

pub use alg1_coloring::{Alg1Config, ColoringOutcome};
pub use alg2_coloring::{Alg2Config, Alg2Outcome};
pub use alg3_mis::{Alg3Config, MisOutcome};
pub use error::CoreError;
pub use repair::{ChurnSession, ColoringRepairDriver, MisRepairDriver, RepairReport};
pub use report::{MeasurementRow, MeasurementTable};
pub use stage_flat::FlatStageSpec;
