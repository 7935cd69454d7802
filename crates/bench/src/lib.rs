//! Benchmark support library for the `symbreak` workspace.
//!
//! The actual benchmark harnesses live in `benches/`; this library holds the
//! shared helpers they use (workload construction, exponent fitting, row
//! printing and atomic artifact writing) so that every figure/table of the
//! paper is regenerated through the same code path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod sweeps;
pub mod workloads;
