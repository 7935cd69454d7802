//! # symbreak
//!
//! A reproduction of *"Can We Break Symmetry with o(m) Communication?"*
//! (Pai, Pandurangan, Pemmaraju, Robinson — PODC 2021) as a Rust workspace.
//!
//! This facade crate re-exports the workspace crates under stable names so
//! that examples and downstream users can depend on a single crate:
//!
//! * [`graphs`] — graph substrate and generators.
//! * [`ktrand`] — limited-independence hashing and shared randomness.
//! * [`congest`] — the message-metered KT-ρ CONGEST simulator.
//! * [`danner`] — danner construction, leader election and broadcast.
//! * [`classic`] — Luby's MIS, greedy MIS, Johansson coloring and baselines.
//! * [`core`] — the paper's algorithms (Algorithm 1, 2 and 3) and the
//!   experiment harness.
//! * [`lowerbounds`] — the Section 2 lower-bound constructions and
//!   experiments.
//!
//! See the repository `README.md` for a quickstart, and the `sweeps` bench
//! (`cargo bench -p symbreak-bench --bench sweeps`, which writes
//! `BENCH_sweeps.json`) for the Figure 1 and ablation tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use symbreak_classic as classic;
pub use symbreak_congest as congest;
pub use symbreak_core as core;
pub use symbreak_danner as danner;
pub use symbreak_graphs as graphs;
pub use symbreak_ktrand as ktrand;
pub use symbreak_lowerbounds as lowerbounds;
