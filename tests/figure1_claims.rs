//! Small-scale checks of the Figure-1 claims: the paper's algorithms stay
//! well below the Ω(m) baselines on dense graphs and their costs scale like
//! the claimed Õ(·) bounds (up to generous polylog slack).

use rand::rngs::StdRng;
use rand::SeedableRng;
use symbreak::core::experiments;
use symbreak::graphs::{generators, Graph, IdAssignment, IdSpace};

fn dense_instance(n: usize, seed: u64) -> (Graph, IdAssignment) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = generators::connected_gnp(n, 0.8, &mut rng);
    let ids = IdAssignment::random(&g, IdSpace::CUBIC, &mut rng);
    (g, ids)
}

#[test]
fn figure1_upper_bound_rows_are_valid_and_sublinear_in_m() {
    let (g, ids) = dense_instance(150, 3);
    let alg1 = experiments::measure_alg1(&g, &ids, 1);
    let alg2 = experiments::measure_alg2(&g, &ids, 0.5, 2);
    let alg3 = experiments::measure_alg3(&g, &ids, 3);
    let luby = experiments::measure_luby_baseline(&g, &ids, 4);
    let base = experiments::measure_coloring_baseline(&g, &ids, 5);

    for row in [&alg1, &alg2, &alg3, &luby, &base] {
        assert!(row.valid, "{} invalid", row.algorithm);
    }
    // The o(m) upper bounds beat the Ω(m) baselines.
    assert!(alg1.total_messages() < base.total_messages());
    assert!(alg3.total_messages() < luby.total_messages());
    // Algorithm 2 (the Õ(n)-message algorithm) is the cheapest of all in its
    // simulated (non-charged) traffic.
    assert!(alg2.simulated_messages < alg1.simulated_messages);
    // The baselines really are Ω(m).
    assert!(luby.total_messages() >= luby.m as u64);
    assert!(base.total_messages() >= base.m as u64);
}

#[test]
fn message_scaling_with_n_has_the_right_shape() {
    // Measured exponents: baseline messages grow like m ≈ n² on dense
    // G(n, p); Algorithm 3's messages grow markedly slower. With only two
    // sizes this is a sanity check of the trend, not a fit — the sweeps
    // bench does the multi-point fits.
    let (g1, ids1) = dense_instance(80, 11);
    let (g2, ids2) = dense_instance(160, 12);

    let a3_small = experiments::measure_alg3(&g1, &ids1, 1).total_messages() as f64;
    let a3_large = experiments::measure_alg3(&g2, &ids2, 2).total_messages() as f64;
    let luby_small = experiments::measure_luby_baseline(&g1, &ids1, 3).total_messages() as f64;
    let luby_large = experiments::measure_luby_baseline(&g2, &ids2, 4).total_messages() as f64;

    let a3_growth = a3_large / a3_small;
    let luby_growth = luby_large / luby_small;
    assert!(
        a3_growth < luby_growth,
        "Algorithm 3 growth {a3_growth:.2}x should be below the baseline's {luby_growth:.2}x"
    );
}

#[test]
fn lower_bound_family_rows() {
    use symbreak::lowerbounds::experiments::{
        crossed_utilization_experiment, cycle_message_experiment, Problem,
    };
    let mut rng = StdRng::seed_from_u64(17);
    let stats = crossed_utilization_experiment(Problem::Coloring, 5, 5, &mut rng);
    assert!(stats.utilized_fraction() > 0.5);
    assert_eq!(stats.pair_utilized, stats.samples);

    let cycles = cycle_message_experiment(Problem::Coloring, 10, 8, &mut rng);
    assert!(cycles.messages as usize >= cycles.n);
    assert_eq!(cycles.mute_cycles, 0);
}
