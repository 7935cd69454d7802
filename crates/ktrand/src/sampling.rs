//! Private-coin sampling helpers used by the MIS algorithms.

use rand::Rng;

/// Returns the indices in `0..n` that were selected by independent
/// Bernoulli(`p`) trials — e.g. the set `S` sampled with probability
/// `c/√n` in Step 1 of Algorithm 3.
///
/// # Panics
///
/// Panics unless `0.0 ≤ p ≤ 1.0`.
pub fn bernoulli_subset<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Vec<usize> {
    assert!((0.0..=1.0).contains(&p), "probability p={p} out of range");
    (0..n)
        .filter(|_| p >= 1.0 || (p > 0.0 && rng.gen_bool(p)))
        .collect()
}

/// Samples `n` random ranks (distinct with overwhelming probability) used by
/// the randomized greedy MIS algorithms; ties are broken deterministically by
/// index, so exact distinctness is not required for correctness.
pub fn random_ranks<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<u64> {
    (0..n).map(|_| rng.gen::<u64>()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bernoulli_extremes() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(bernoulli_subset(10, 0.0, &mut rng).is_empty());
        assert_eq!(bernoulli_subset(10, 1.0, &mut rng).len(), 10);
    }

    #[test]
    fn bernoulli_expected_size() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = bernoulli_subset(10_000, 0.3, &mut rng);
        assert!((s.len() as f64 - 3000.0).abs() < 300.0, "len={}", s.len());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bernoulli_rejects_bad_p() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = bernoulli_subset(5, -0.1, &mut rng);
    }

    #[test]
    fn ranks_have_right_length_and_variety() {
        let mut rng = StdRng::seed_from_u64(2);
        let r = random_ranks(100, &mut rng);
        assert_eq!(r.len(), 100);
        let distinct: std::collections::BTreeSet<_> = r.iter().collect();
        assert!(distinct.len() > 95);
    }
}
