//! The independence the paper's hash functions need.
//!
//! Lemma A.2 of the paper (due to Schmidt, Siegel and Srinivasan) bounds a
//! sum `X` of `c`-wise independent 0/1 variables with `μ ≥ E[X]` by
//! `Pr[X ≥ (1 + δ)μ] ≤ exp(−min{c, δ²μ})`. Its high-probability guarantees
//! therefore need `c = Θ(log n)`, which [`log_n_independence`] picks for the
//! vertex/palette partition and for Algorithm 2.

/// The independence `c = Θ(log n)` the paper uses, with the constant chosen
/// so that `exp(−c) ≤ n^{−2}`.
pub fn log_n_independence(n: usize) -> usize {
    let ln = (n.max(2) as f64).ln();
    (2.0 * ln).ceil() as usize + 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_n_independence_grows_slowly() {
        assert!(log_n_independence(16) < log_n_independence(1 << 20));
        assert!(log_n_independence(1 << 20) < 64);
        // exp(-c) ≤ n^{-2} by construction.
        let n = 1000usize;
        let c = log_n_independence(n) as f64;
        assert!((-c).exp() <= (n as f64).powi(-2) * 1.0001);
    }
}
