//! Graph substrate for the `symbreak` reproduction of
//! *"Can We Break Symmetry with o(m) Communication?"* (PODC 2021).
//!
//! This crate provides the undirected-graph data structures that every other
//! crate in the workspace builds on:
//!
//! * [`Graph`] — an immutable compressed-sparse-row (CSR) graph with stable
//!   [`NodeId`] / [`EdgeId`] indices and deterministic iteration order,
//!   built through [`GraphBuilder`].
//! * [`arena`] — flat CSR-style [`AdjacencyArena`]s for derived neighbour
//!   lists (stage active lists, sampled-subgraph adjacency), built in one
//!   pass over the graph's own CSR rows.
//! * [`overlay`] — [`overlay::GraphOverlay`]: a mutable adjacency overlay
//!   on the CSR (per-node insert/delete delta lists consulted before the
//!   flat arrays, with periodic compaction into a clean CSR) — the
//!   substrate of the dynamic-graph churn workload.
//! * [`generators`] — the graph families used by the paper's evaluation:
//!   Erdős–Rényi `G(n, p)`, complete bipartite graphs, cycles, cliques,
//!   paths, stars, disjoint unions, preferential-attachment power-law
//!   graphs and the layered tripartite graphs that underlie the Section 2
//!   lower-bound construction.
//! * [`properties`] — BFS, diameter, connectivity and degree statistics.
//! * [`ids`] — ID assignments drawn from a polynomial-size ID space, as
//!   required by the KT-ρ CONGEST model of Section 1.4.
//!
//! # Example
//!
//! ```
//! use symbreak_graphs::{generators, properties, NodeId};
//!
//! let g = generators::cycle(5);
//! assert_eq!(g.num_nodes(), 5);
//! assert_eq!(g.num_edges(), 5);
//! assert_eq!(g.degree(NodeId(0)), 2);
//! assert!(properties::is_connected(&g));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
mod builder;
mod graph;

pub mod generators;
pub mod ids;
pub mod overlay;
pub mod properties;

pub use arena::AdjacencyArena;
pub use builder::GraphBuilder;
pub use graph::{EdgeId, Graph, NodeId};
pub use ids::{IdAssignment, IdSpace};
pub use overlay::{ChurnBatch, GraphOverlay};
