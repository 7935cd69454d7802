//! Limited-independence randomness for message-frugal KT-1 algorithms.
//!
//! The upper bounds of *"Can We Break Symmetry with o(m) Communication?"*
//! (PODC 2021) rely on a simple but powerful trick: a leader broadcasts a
//! short random seed, every node deterministically expands the seed into
//! Θ(log n)-wise independent hash functions (Lemma A.4 of the paper), and —
//! because each node knows its neighbours' IDs (KT-1) — it can evaluate those
//! hash functions *on its neighbours' IDs locally*, eliminating the state
//! exchange that would otherwise cost Ω(m) messages.
//!
//! This crate provides:
//!
//! * [`field`] — arithmetic in the prime field `GF(2^61 − 1)`.
//! * [`KWiseFamily`] / [`KWiseHash`] — k-wise independent hash functions
//!   implemented as random degree-(k−1) polynomials over the field.
//! * [`SharedRandomness`] — a broadcastable seed from which every node
//!   derives the same named hash functions, with bit-length accounting.
//! * [`tail`] — the Θ(log n) independence that Lemma A.2's
//!   limited-independence Chernoff bound needs.
//! * [`sampling`] — small helpers for Bernoulli node sampling and random
//!   ranks used by the MIS algorithms.
//!
//! # Example
//!
//! ```
//! use symbreak_ktrand::SharedRandomness;
//!
//! // Both "nodes" hold the same broadcast seed…
//! let a = SharedRandomness::from_seed(0xfeed, 1024);
//! let b = SharedRandomness::from_seed(0xfeed, 1024);
//! // …so they derive identical hash functions and agree on every value.
//! let ha = a.hash_fn("bucket", 8, 32);
//! let hb = b.hash_fn("bucket", 8, 32);
//! assert_eq!(ha.eval(12345), hb.eval(12345));
//! assert!(ha.eval(12345) < 32);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod field;
mod kwise;
pub mod sampling;
mod shared;
pub mod tail;

pub use kwise::{KWiseFamily, KWiseHash};
pub use shared::SharedRandomness;
