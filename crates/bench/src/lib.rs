//! Benchmark support library for the `symbreak` workspace.
//!
//! The harnesses live in `benches/`. The `sweeps` bench is the experiments
//! runner: it executes the [`sweeps`] registry once and prints every figure
//! and table of the paper from those cells. The other three benches
//! (`sim_engine`, `alg_coloring`, `churn`) time the simulator, the
//! algorithm layer and churn repair. This library holds the shared helpers
//! they use: workload construction, exponent fitting, the sweep grids and
//! atomic artifact writing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod sweeps;
pub mod workloads;
