//! Shared randomness derived from a broadcast seed.
//!
//! In Algorithm 1 and Algorithm 2 of the paper, a leader generates
//! `O(polylog n)` random bits and broadcasts them over the danner. Every node
//! then expands the same bits into the same Θ(log n)-wise independent hash
//! functions. [`SharedRandomness`] models the broadcast payload: it is
//! constructed from a seed, records how many bits the leader would need to
//! broadcast, and deterministically derives named hash functions so that
//! every simulated node — holding a *copy* of the same value — obtains
//! identical functions.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::{KWiseFamily, KWiseHash};

/// A broadcastable package of shared random bits.
///
/// Cloning this value models a node receiving the broadcast: all clones
/// derive exactly the same hash functions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedRandomness {
    seed: u64,
    budget_bits: usize,
    consumed_bits: std::cell::Cell<usize>,
}

impl SharedRandomness {
    /// Creates shared randomness from a leader-generated seed with a bit
    /// budget of `budget_bits` (the number of bits the leader broadcasts,
    /// e.g. `Θ(log² n)` for Algorithm 1 or `Θ(log³ n / ε)` for Algorithm 2).
    pub fn from_seed(seed: u64, budget_bits: usize) -> Self {
        SharedRandomness {
            seed,
            budget_bits,
            consumed_bits: std::cell::Cell::new(0),
        }
    }

    /// Creates shared randomness by drawing the seed from `rng` (the leader's
    /// private coin flips).
    pub fn generate<R: RngCore + ?Sized>(rng: &mut R, budget_bits: usize) -> Self {
        Self::from_seed(rng.next_u64(), budget_bits)
    }

    /// The broadcast bit budget declared at construction time.
    pub fn budget_bits(&self) -> usize {
        self.budget_bits
    }

    /// Total bits consumed so far by derived hash functions. Tests use this
    /// to confirm that algorithms stay within their declared `polylog`
    /// randomness budgets.
    pub fn consumed_bits(&self) -> usize {
        self.consumed_bits.get()
    }

    /// The raw seed (exposed for reproducibility reporting).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives the `independence`-wise independent hash function with outputs
    /// in `[0, range)` associated with `label`.
    ///
    /// The same `(label, independence, range)` triple always yields the same
    /// function for the same seed, and different labels yield (statistically)
    /// unrelated functions — this is how different steps of an algorithm
    /// (e.g. `h_L`, `h`, `h_c` in Algorithm 1, or the per-phase `h_i` in
    /// Algorithm 2) obtain their own functions from one broadcast.
    pub fn hash_fn(&self, label: &str, independence: usize, range: u64) -> KWiseHash {
        let family = KWiseFamily::new(independence, range);
        self.consumed_bits
            .set(self.consumed_bits.get() + family.seed_bits());
        let mut rng = StdRng::seed_from_u64(self.seed ^ label_digest(label));
        family.sample(&mut rng)
    }

    /// Derives the hash function for an indexed label such as `phase.3`.
    pub fn indexed_hash_fn(
        &self,
        label: &str,
        index: usize,
        independence: usize,
        range: u64,
    ) -> KWiseHash {
        self.hash_fn(&format!("{label}.{index}"), independence, range)
    }
}

/// FNV-1a digest of the label, used to decorrelate labels under one seed.
fn label_digest(label: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    // Avalanche so that similar labels do not produce similar seeds.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51afd7ed558ccd);
    h ^= h >> 33;
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn clones_agree_on_all_functions() {
        let original = SharedRandomness::from_seed(99, 4096);
        let copy = original.clone();
        let h1 = original.hash_fn("partition", 16, 64);
        let h2 = copy.hash_fn("partition", 16, 64);
        for x in 0..500u64 {
            assert_eq!(h1.eval(x), h2.eval(x));
        }
    }

    #[test]
    fn different_labels_give_different_functions() {
        let sr = SharedRandomness::from_seed(7, 4096);
        let a = sr.hash_fn("alpha", 8, 1 << 30);
        let b = sr.hash_fn("beta", 8, 1 << 30);
        assert!((0..64u64).any(|x| a.eval(x) != b.eval(x)));
    }

    #[test]
    fn different_seeds_give_different_functions() {
        let a = SharedRandomness::from_seed(1, 4096).hash_fn("x", 8, 1 << 30);
        let b = SharedRandomness::from_seed(2, 4096).hash_fn("x", 8, 1 << 30);
        assert!((0..64u64).any(|x| a.eval(x) != b.eval(x)));
    }

    #[test]
    fn indexed_labels_are_distinct() {
        let sr = SharedRandomness::from_seed(3, 4096);
        let h0 = sr.indexed_hash_fn("phase", 0, 8, 1 << 30);
        let h1 = sr.indexed_hash_fn("phase", 1, 8, 1 << 30);
        assert!((0..64u64).any(|x| h0.eval(x) != h1.eval(x)));
    }

    #[test]
    fn bit_accounting_accumulates() {
        let sr = SharedRandomness::from_seed(5, 10_000);
        assert_eq!(sr.consumed_bits(), 0);
        let _ = sr.hash_fn("a", 4, 10);
        assert_eq!(sr.consumed_bits(), 4 * 61);
        let _ = sr.hash_fn("b", 2, 10);
        assert_eq!(sr.consumed_bits(), 6 * 61);
        assert_eq!(sr.budget_bits(), 10_000);
    }

    #[test]
    fn generate_uses_rng() {
        let mut rng = StdRng::seed_from_u64(12);
        let a = SharedRandomness::generate(&mut rng, 128);
        let b = SharedRandomness::generate(&mut rng, 128);
        assert_ne!(a.seed(), b.seed());
    }
}
