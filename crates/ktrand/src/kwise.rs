//! k-wise independent hash families via random polynomials over `GF(2^61−1)`.
//!
//! A uniformly random polynomial of degree `k − 1` over a prime field is a
//! k-wise independent function from the field to itself (Definition A.3 /
//! Lemma A.4 of the paper). Values are then mapped into the requested output
//! range; because the field (≈ 2^61) is astronomically larger than any range
//! used by the algorithms (at most `poly(n)`), the modulo bias is negligible
//! for every experiment in this repository.

use rand::Rng;

use crate::field;

/// A family of k-wise independent hash functions `h : u64 → [0, range)`.
///
/// Sampling a function from the family costs `k` field elements of
/// randomness — `k · 61` bits — matching the `c · max{a, b}` random bits of
/// Lemma A.4 up to constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KWiseFamily {
    independence: usize,
    range: u64,
}

impl KWiseFamily {
    /// Creates the family of `independence`-wise independent functions with
    /// outputs in `[0, range)`.
    ///
    /// # Panics
    ///
    /// Panics if `independence == 0` or `range == 0`.
    pub fn new(independence: usize, range: u64) -> Self {
        assert!(independence >= 1, "independence must be at least 1");
        assert!(range >= 1, "range must be at least 1");
        KWiseFamily {
            independence,
            range,
        }
    }

    /// The independence parameter `k`.
    pub fn independence(&self) -> usize {
        self.independence
    }

    /// The output range size.
    pub fn range(&self) -> u64 {
        self.range
    }

    /// Number of random bits consumed when sampling one function.
    pub fn seed_bits(&self) -> usize {
        self.independence * 61
    }

    /// Samples a hash function from the family.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> KWiseHash {
        let coeffs = (0..self.independence)
            .map(|_| rng.gen_range(0..field::MODULUS))
            .collect();
        KWiseHash {
            coeffs,
            range: self.range,
        }
    }
}

/// A single hash function drawn from a [`KWiseFamily`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KWiseHash {
    coeffs: Vec<u64>,
    range: u64,
}

impl KWiseHash {
    /// Builds a hash function from explicit polynomial coefficients — useful
    /// for tests that need full determinism.
    pub fn from_coefficients(coeffs: Vec<u64>, range: u64) -> Self {
        assert!(range >= 1, "range must be at least 1");
        assert!(!coeffs.is_empty(), "at least one coefficient is required");
        KWiseHash { coeffs, range }
    }

    /// The output range size.
    pub fn range(&self) -> u64 {
        self.range
    }

    /// The independence parameter (number of coefficients).
    pub fn independence(&self) -> usize {
        self.coeffs.len()
    }

    /// Evaluates the hash function at `x`, returning a value in `[0, range)`.
    #[inline]
    pub fn eval(&self, x: u64) -> u64 {
        field::poly_eval(&self.coeffs, x) % self.range
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn outputs_stay_in_range() {
        let mut rng = StdRng::seed_from_u64(2);
        let fam = KWiseFamily::new(8, 17);
        let h = fam.sample(&mut rng);
        for x in 0..2000u64 {
            assert!(h.eval(x) < 17);
        }
    }

    #[test]
    fn deterministic_for_same_coefficients() {
        let h1 = KWiseHash::from_coefficients(vec![3, 5, 7], 100);
        let h2 = KWiseHash::from_coefficients(vec![3, 5, 7], 100);
        for x in [0u64, 1, 99, 12345, u64::MAX] {
            assert_eq!(h1.eval(x), h2.eval(x));
        }
    }

    #[test]
    fn different_functions_differ_somewhere() {
        let mut rng = StdRng::seed_from_u64(3);
        let fam = KWiseFamily::new(4, 1 << 20);
        let h1 = fam.sample(&mut rng);
        let h2 = fam.sample(&mut rng);
        let differs = (0..100u64).any(|x| h1.eval(x) != h2.eval(x));
        assert!(differs);
    }

    #[test]
    fn marginal_distribution_is_roughly_uniform() {
        // Pairwise independence implies uniform marginals; check empirically
        // by averaging over many sampled functions at a fixed point.
        let mut rng = StdRng::seed_from_u64(4);
        let fam = KWiseFamily::new(2, 10);
        let mut counts = [0usize; 10];
        let trials = 20_000;
        for _ in 0..trials {
            let h = fam.sample(&mut rng);
            counts[h.eval(424242) as usize] += 1;
        }
        let expected = trials as f64 / 10.0;
        for (bucket, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected).abs() < 0.15 * expected,
                "bucket {bucket} has count {c}, expected ≈ {expected}"
            );
        }
    }

    #[test]
    fn pairwise_collision_rate_matches_uniform() {
        // For a pairwise-independent family, Pr[h(x) = h(y)] = 1/range.
        let mut rng = StdRng::seed_from_u64(5);
        let range = 16u64;
        let fam = KWiseFamily::new(2, range);
        let trials = 30_000;
        let mut collisions = 0;
        for _ in 0..trials {
            let h = fam.sample(&mut rng);
            if h.eval(17) == h.eval(23_000_001) {
                collisions += 1;
            }
        }
        let rate = collisions as f64 / trials as f64;
        let expected = 1.0 / range as f64;
        assert!(
            (rate - expected).abs() < 0.5 * expected,
            "collision rate {rate} vs expected {expected}"
        );
    }

    #[test]
    fn seed_bits_accounting() {
        let fam = KWiseFamily::new(32, 1000);
        assert_eq!(fam.seed_bits(), 32 * 61);
        assert_eq!(fam.independence(), 32);
        assert_eq!(fam.range(), 1000);
    }

    #[test]
    #[should_panic(expected = "range must be at least 1")]
    fn zero_range_rejected() {
        let _ = KWiseFamily::new(2, 0);
    }
}
