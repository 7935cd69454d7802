//! Danner substrate: sparse low-diameter spanning subgraphs, leader election
//! and message-efficient broadcast in the KT-1 CONGEST model.
//!
//! The paper's KT-1 algorithms (Algorithm 1 and Algorithm 2) bootstrap shared
//! randomness by (1) building a *danner* — a spanning subgraph `H` of `G`
//! with `Õ(min{m, n^{1+δ}})` edges and diameter `Õ(D + n^{1−δ})`
//! (Theorem 1.1, Gmyr–Pandurangan), (2) electing a leader, and (3) having the
//! leader broadcast `O(polylog n)` random bits over `H` (Corollary 1.2).
//!
//! Following the charged-substrate rule (the README's "Charged substrates"
//! section), this crate
//!
//! * constructs a structure satisfying the danner *guarantees* (spanning,
//!   ≤ `n − 1 + n^{1+δ}` edges, diameter ≤ `2·D(G)`) centrally and **charges**
//!   the published construction cost to a [`symbreak_congest::CostAccount`],
//!   and
//! * runs everything on top of the danner — leader convergecast, broadcast of
//!   the random seed words, convergecast aggregation — as real, metered
//!   message exchanges in the CONGEST simulator.
//!
//! The asynchronous counterpart (Theorem 1.3, Mashreghi–King) is provided as
//! a charged substrate in [`setup::async_shared_randomness`].
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use symbreak_danner::setup::SetupPlan;
//! use symbreak_graphs::{generators, IdAssignment};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let graph = generators::connected_gnp(60, 0.2, &mut rng);
//! let ids = IdAssignment::identity(60);
//!
//! // Build a danner with δ = 1/2 and distribute 256 shared random bits.
//! let plan = SetupPlan::new(&graph, &ids, 0.5).expect("connected graph");
//! let (_shared, costs) = plan.share(&ids, 256, &mut rng);
//! assert!(costs.total_messages() > 0);
//! // Every node ends up with the same seed (checked internally).
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod danner;
pub mod ops;
pub mod setup;
mod tree;

pub use danner::{Danner, DannerError};
pub use tree::BfsTree;
