//! Classic symmetry-breaking algorithms and Ω(m)-message baselines.
//!
//! These are the well-known building blocks the paper composes and compares
//! against:
//!
//! * [`mis::run_arena`] — one MIS automaton with two [`mis::Priority`]
//!   rules: Luby's randomized MIS (the Õ(m)-message KT-1 baseline in
//!   Figure 1, also [`mis::luby::run`], and Step 5 of Algorithm 3) and
//!   parallel rank-based greedy (Blelloch et al. / Fischer–Noever), used by
//!   Step 2 of Algorithm 3.
//! * [`mis::greedy`] — sequential greedy MIS by rank, the reference the
//!   rank rule must agree with.
//! * [`coloring::johansson`] — Johansson's randomized (deg+1)-list-coloring,
//!   used inside Algorithm 1 on each part `B_i` and on the leftover set `L`.
//! * [`coloring::baseline`] — the naive Θ(m)-message distributed
//!   (Δ+1)-coloring baseline.
//! * [`coloring::verify`] / [`mis::verify`] — solution checkers used by every
//!   test and experiment.
//!
//! All distributed algorithms are implemented as [`symbreak_congest::NodeAlgorithm`]
//! automata and executed by the metered CONGEST simulator, so their message
//! and round counts are measured, not estimated.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coloring;
pub mod mis;
