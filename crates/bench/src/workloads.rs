//! Shared workload builders for the benchmark harnesses.

use rand::rngs::StdRng;
use rand::SeedableRng;
use symbreak_graphs::{generators, Graph, IdAssignment, IdSpace};

/// A reproducible benchmark instance: a connected graph plus an ID
/// assignment drawn from the cubic polynomial ID space.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The communication graph.
    pub graph: Graph,
    /// The ID assignment.
    pub ids: IdAssignment,
}

/// Builds a dense connected `G(n, p)` instance with a fixed seed.
pub fn gnp_instance(n: usize, p: f64, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = generators::connected_gnp(n, p, &mut rng);
    let ids = IdAssignment::random(&graph, IdSpace::CUBIC, &mut rng);
    Instance { graph, ids }
}

/// Fits an exponent `b` such that `y ≈ a·x^b` by least squares in log-log
/// space. Used to report how measured message counts scale with `n`.
pub fn fit_exponent(points: &[(f64, f64)]) -> f64 {
    assert!(points.len() >= 2, "need at least two points to fit");
    let logs: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
    let n = logs.len() as f64;
    let sx: f64 = logs.iter().map(|p| p.0).sum();
    let sy: f64 = logs.iter().map(|p| p.1).sum();
    let sxx: f64 = logs.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = logs.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_is_connected_and_sized() {
        let inst = gnp_instance(50, 0.2, 1);
        assert_eq!(inst.graph.num_nodes(), 50);
        assert_eq!(inst.ids.len(), 50);
        assert!(symbreak_graphs::properties::is_connected(&inst.graph));
    }

    #[test]
    fn exponent_fit_recovers_power_laws() {
        let quadratic: Vec<(f64, f64)> = (1..=6).map(|i| (i as f64, (i * i) as f64)).collect();
        assert!((fit_exponent(&quadratic) - 2.0).abs() < 1e-9);
        let linear: Vec<(f64, f64)> = (1..=6).map(|i| (i as f64, 3.0 * i as f64)).collect();
        assert!((fit_exponent(&linear) - 1.0).abs() < 1e-9);
    }
}
