//! Algorithm 1: (Δ+1)-list-coloring in KT-1 CONGEST with Õ(n^1.5) messages
//! (Theorem 3.3), plus its asynchronous variant (Theorem 3.4).
//!
//! Pipeline (following Section 3.1):
//!
//! 1. Build a danner with δ = ½, elect a leader and broadcast `O(log² n)`
//!    random bits (charged construction + real broadcast, see
//!    `symbreak-danner`).
//! 2. Every node derives the Chang et al. vertex/palette partition from the
//!    shared bits and its neighbours' IDs — zero messages thanks to KT-1.
//! 3. Colour every bucket `B_i` in parallel with the conflict-aware
//!    Johansson stage (`PROPOSE`/`FINAL` over same-bucket edges plus queries
//!    towards previously coloured neighbours).
//! 4. Check `|E(G[L])|` by a convergecast over the danner tree; if it is
//!    still large, repeat the partition one level down (Lemma 3.2: O(1)
//!    levels w.h.p.).
//! 5. Colour the remaining nodes with a final conflict-aware stage.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use symbreak_congest::{async_sim, CostAccount, KtLevel, PhaseCost, SyncConfig, SyncSimulator};
use symbreak_danner::{ops, setup};
use symbreak_graphs::{Graph, IdAssignment};

use crate::error::CoreError;
use crate::partition::ChangPartition;
use crate::prologue::Prologue;
use crate::query_coloring::QueryPlan;
use crate::stage_flat::{run_stage_flat_on, FlatStageSpec};

/// Configuration of Algorithm 1.
#[derive(Debug, Clone, Copy)]
pub struct Alg1Config {
    /// Danner parameter δ (the paper uses ½).
    pub delta: f64,
    /// Maximum number of partition levels before the final stage (the paper
    /// shows O(1) levels suffice w.h.p.).
    pub max_levels: usize,
    /// The final stage is entered once the uncoloured subgraph has at most
    /// `edge_threshold_factor · n · log₂ n` edges.
    pub edge_threshold_factor: f64,
    /// Seed for the per-node private randomness of the coloring stages.
    pub stage_seed: u64,
    /// Worker threads for the simulated stages (`0` = automatic, i.e. the
    /// `CONGEST_THREADS` environment variable or the CPU count).
    pub threads: usize,
}

impl Default for Alg1Config {
    fn default() -> Self {
        Alg1Config {
            delta: 0.5,
            max_levels: 3,
            edge_threshold_factor: 2.0,
            stage_seed: 0x1_5eed,
            threads: 0,
        }
    }
}

/// Outcome of a coloring run.
#[derive(Debug, Clone)]
pub struct ColoringOutcome {
    /// Per-node colours (always `Some` on success), drawn from `{0, …, Δ}`.
    pub colors: Vec<Option<u64>>,
    /// Message/round costs phase by phase.
    pub costs: CostAccount,
    /// Number of partition levels that were executed before the final stage.
    pub levels_used: usize,
    /// The global maximum degree Δ the palette was sized for.
    pub max_degree: u64,
}

/// Runs Algorithm 1 on a connected graph.
///
/// # Errors
///
/// Returns [`CoreError::Disconnected`] for disconnected inputs,
/// [`CoreError::InvalidParameter`] for δ outside `[0, 1]` and
/// [`CoreError::DidNotConverge`] if the final stage fails to colour every
/// node within its phase budget (which would indicate a bug rather than bad
/// luck — the budget is generous).
pub fn run<R: Rng + ?Sized>(
    graph: &Graph,
    ids: &IdAssignment,
    config: Alg1Config,
    rng: &mut R,
) -> Result<ColoringOutcome, CoreError> {
    if graph.num_nodes() == 0 {
        return Ok(empty_outcome());
    }
    let prologue = Prologue::new(graph, ids, config.delta)?;
    run_seed(graph, ids, config, &prologue, rng)
}

/// Runs Algorithm 1 once per seed. Output `k` is **bit-identical**
/// (colours, levels used, per-phase cost account) to [`run`] with
/// `StdRng::seed_from_u64(seeds[k])` and the same config.
///
/// Everything before the first coin is built **once** per call: the
/// danner, the leader and the broadcast tree ([`setup::SetupPlan`], a pure
/// function of `(graph, ids, δ)`) and the Δ convergecast and broadcast,
/// whose reports are charged to every seed's account. Each seed then draws
/// and broadcasts its own seed words and runs its own levels and stages on
/// the plain engine, through the calls [`run`] makes.
///
/// # Errors
///
/// Same conditions as [`run`]; the first failing seed fails the whole call.
pub fn run_batch(
    graph: &Graph,
    ids: &IdAssignment,
    config: Alg1Config,
    seeds: &[u64],
) -> Result<Vec<ColoringOutcome>, CoreError> {
    if graph.num_nodes() == 0 {
        return Ok(seeds.iter().map(|_| empty_outcome()).collect());
    }
    let prologue = Prologue::new(graph, ids, config.delta)?;
    seeds
        .iter()
        .map(|&seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            run_seed(graph, ids, config, &prologue, &mut rng)
        })
        .collect()
}

/// The outcome on the empty graph.
fn empty_outcome() -> ColoringOutcome {
    ColoringOutcome {
        colors: Vec::new(),
        costs: CostAccount::new(),
        levels_used: 0,
        max_degree: 0,
    }
}

/// The per-seed body of [`run`] and [`run_batch`]: the seed broadcast, the
/// partition levels and the final stage of one execution, on a non-empty
/// connected graph.
fn run_seed<R: Rng + ?Sized>(
    graph: &Graph,
    ids: &IdAssignment,
    config: Alg1Config,
    prologue: &Prologue,
    rng: &mut R,
) -> Result<ColoringOutcome, CoreError> {
    let n = graph.num_nodes();
    let log_n = (n.max(2) as f64).log2();

    // Step 1: the leader broadcasts Θ(log² n) shared random bits over the
    // danner; the prologue has already learned Δ.
    let seed_bits = ((log_n * log_n).ceil() as usize).max(64);
    let (shared, mut costs) = prologue.share(ids, seed_bits, rng);
    let carrier = prologue.plan.carrier();
    let tree = prologue.plan.tree();
    let max_degree = prologue.max_degree;
    let palette_size = max_degree + 1;

    let mut colors: Vec<Option<u64>> = vec![None; n];
    // One query plan for the whole run: the flat Θ(m) neighbour table is
    // built once; each finished level's partition is appended in place
    // behind the `Arc` (the stage's clone has been dropped by then).
    let mut plan = Arc::new(QueryPlan::new(graph, ids, Vec::new()));
    let mut levels_used = 0;
    let phase_limit_buckets = (4.0 * log_n).ceil() as usize + 4;
    let edge_threshold = (config.edge_threshold_factor * n as f64 * log_n).ceil() as u64;
    let stage_config = SyncConfig::default().with_threads(config.threads);
    // One simulator for every coloring stage of the run.
    let stage_sim = SyncSimulator::new(graph, ids, KtLevel::KT1);

    for level in 0..config.max_levels {
        // Step 4 (and its level-0 analogue): measure the uncoloured subgraph
        // by a convergecast over the danner tree.
        let uncolored: Vec<bool> = colors.iter().map(Option::is_none).collect();
        let local_uncolored_deg: Vec<u64> = graph
            .nodes()
            .map(|v| {
                if uncolored[v.index()] {
                    graph.neighbors(v).filter(|u| uncolored[u.index()]).count() as u64
                } else {
                    0
                }
            })
            .collect();
        let (double_edges, report) =
            ops::convergecast_sum(carrier, ids, tree, &local_uncolored_deg);
        costs.charge_report(format!("|E(G[L])| check, level {level}"), &report);
        let uncolored_edges = double_edges / 2;
        let uncolored_max_deg = *local_uncolored_deg.iter().max().unwrap_or(&0);

        // Small enough (or too sparse for the partition to help): finish.
        if uncolored_edges <= edge_threshold
            || uncolored_max_deg * uncolored_max_deg <= (16.0 * log_n * log_n) as u64
        {
            break;
        }

        // Step 2: derive this level's partition from the shared randomness.
        let partition = ChangPartition::compute(&shared, level, n, uncolored_max_deg as usize);
        let parts = partition.parts_for(ids);

        // Step 3: colour all buckets in parallel with one stage.
        let seed = config.stage_seed.wrapping_add(level as u64);
        let spec = FlatStageSpec::for_bucket_level(
            graph,
            &partition,
            &parts,
            &colors,
            palette_size,
            Arc::clone(&plan),
            phase_limit_buckets,
        );
        let (stage_colors, report) = run_stage_flat_on(&stage_sim, &spec, seed, stage_config);
        drop(spec);
        costs.charge_report(format!("bucket coloring, level {level}"), &report);
        colors = stage_colors;
        Arc::get_mut(&mut plan)
            .expect("stage spec dropped, plan uniquely held")
            .push_level(partition);
        levels_used += 1;
    }

    // Step 5: final stage on the remaining (sparse) uncoloured subgraph.
    if colors.iter().any(Option::is_none) {
        let phase_limit = (16.0 * log_n).ceil() as usize + 32;
        let seed = config.stage_seed.wrapping_add(0xffff);
        let spec = FlatStageSpec::for_final_stage(
            graph,
            &colors,
            palette_size,
            Arc::clone(&plan),
            phase_limit,
        );
        let (final_colors, report) = run_stage_flat_on(&stage_sim, &spec, seed, stage_config);
        drop(spec);
        costs.charge_report("final-stage coloring", &report);
        colors = final_colors;
    }

    if colors.iter().any(Option::is_none) {
        return Err(CoreError::DidNotConverge {
            stage: "final-stage coloring",
        });
    }

    Ok(ColoringOutcome {
        colors,
        costs,
        levels_used,
        max_degree,
    })
}

/// Runs the asynchronous variant of Algorithm 1 (Theorem 3.4).
///
/// The synchronous stages are executed unchanged (their outputs are
/// delay-insensitive); the cost account additionally charges the
/// asynchronous broadcast substrate of Theorem 1.3 instead of the danner
/// setup, and an α-synchronizer overhead of `2(T+1)·m_active` messages per
/// simulated stage (Theorem A.5), where `m_active` is the number of edges
/// the stage actually communicates over.
///
/// # Errors
///
/// Same conditions as [`run`].
pub fn run_async<R: Rng + ?Sized>(
    graph: &Graph,
    ids: &IdAssignment,
    config: Alg1Config,
    rng: &mut R,
) -> Result<ColoringOutcome, CoreError> {
    let sync = run(graph, ids, config, rng)?;
    let n = graph.num_nodes();
    if n == 0 {
        return Ok(sync);
    }
    let log_n = (n.max(2) as f64).log2();
    let seed_bits = ((log_n * log_n).ceil() as usize).max(64);

    let mut costs = CostAccount::new();
    // Replace the synchronous setup by the asynchronous substrate.
    let (_shared, async_setup_costs) = setup::async_shared_randomness(graph, ids, seed_bits, rng);
    costs.absorb("async-setup", &async_setup_costs);
    // Re-charge the simulated stages plus the synchronizer overhead. The
    // active edge count per stage is bounded by the messages the stage sent
    // (each active edge carries O(1) messages per round), so we use the
    // per-stage message count as the `m` of Theorem A.5's `2(T+1)m` bound.
    for (label, cost) in sync.costs.phases() {
        if label.starts_with("setup/") {
            continue;
        }
        costs.charge(label, cost);
        if cost.simulated_messages > 0 {
            let active_edges = cost.simulated_messages / cost.simulated_rounds.max(1) + 1;
            let overhead =
                async_sim::alpha_synchronizer_overhead(cost.simulated_rounds, active_edges);
            costs.charge(
                format!("{label} (α-synchronizer overhead)"),
                PhaseCost::charged(overhead, cost.simulated_rounds),
            );
        }
    }
    Ok(ColoringOutcome { costs, ..sync })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use symbreak_classic::coloring::verify;
    use symbreak_graphs::{generators, IdSpace};

    fn instance(n: usize, p: f64, seed: u64) -> (Graph, IdAssignment) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::connected_gnp(n, p, &mut rng);
        let ids = IdAssignment::random(&g, IdSpace::CUBIC, &mut rng);
        (g, ids)
    }

    #[test]
    fn produces_a_proper_delta_plus_one_coloring() {
        for (n, p, seed) in [(40usize, 0.3, 1u64), (80, 0.5, 2), (60, 0.8, 3)] {
            let (g, ids) = instance(n, p, seed);
            let mut rng = StdRng::seed_from_u64(seed + 100);
            let out = run(&g, &ids, Alg1Config::default(), &mut rng).unwrap();
            assert!(verify::is_proper_coloring(&g, &out.colors), "n={n} p={p}");
            assert!(verify::uses_colors_below(
                &out.colors,
                g.max_degree() as u64 + 1
            ));
            assert_eq!(out.max_degree as usize, g.max_degree());
        }
    }

    #[test]
    fn message_cost_is_far_below_baseline_on_dense_graphs() {
        let (g, ids) = instance(120, 0.9, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let out = run(&g, &ids, Alg1Config::default(), &mut rng).unwrap();
        assert!(verify::is_proper_coloring(&g, &out.colors));
        // The Θ(m)-message baseline sends at least one message per edge per
        // phase; Algorithm 1 should beat a single m even after charges.
        let m = g.num_edges() as u64;
        let log_n = (g.num_nodes() as f64).log2().ceil() as u64;
        assert!(
            out.costs.total_messages() < m * log_n,
            "Algorithm 1 used {} messages vs m·log n = {}",
            out.costs.total_messages(),
            m * log_n
        );
    }

    #[test]
    fn rejects_disconnected_inputs() {
        let g = generators::disjoint_union(&[generators::clique(4), generators::clique(4)]);
        let ids = IdAssignment::identity(8);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            run(&g, &ids, Alg1Config::default(), &mut rng).unwrap_err(),
            CoreError::Disconnected
        );
        // Disconnection outranks a bad δ; on a connected graph δ is reported.
        let bad_delta = Alg1Config {
            delta: 1.5,
            ..Alg1Config::default()
        };
        assert_eq!(
            run_batch(&g, &ids, bad_delta, &[1]).unwrap_err(),
            CoreError::Disconnected
        );
        let g = generators::clique(4);
        assert!(matches!(
            run(&g, &IdAssignment::identity(4), bad_delta, &mut rng).unwrap_err(),
            CoreError::InvalidParameter { .. }
        ));
    }

    #[test]
    fn handles_small_and_degenerate_graphs() {
        let mut rng = StdRng::seed_from_u64(2);
        // Single node.
        let g = generators::empty(1);
        let ids = IdAssignment::identity(1);
        let out = run(&g, &ids, Alg1Config::default(), &mut rng).unwrap();
        assert!(verify::is_proper_coloring(&g, &out.colors));
        // A path (Δ = 2).
        let g = generators::path(7);
        let ids = IdAssignment::identity(7);
        let out = run(&g, &ids, Alg1Config::default(), &mut rng).unwrap();
        assert!(verify::is_proper_coloring(&g, &out.colors));
        assert!(verify::uses_colors_below(&out.colors, 3));
        // Empty graph.
        let g = generators::empty(0);
        let ids = IdAssignment::identity(0);
        let out = run(&g, &ids, Alg1Config::default(), &mut rng).unwrap();
        assert!(out.colors.is_empty());
    }

    #[test]
    fn batched_lanes_match_sequential_runs() {
        let (g, ids) = instance(60, 0.5, 21);
        let seeds = [5u64, 6, 7];
        let batch = run_batch(&g, &ids, Alg1Config::default(), &seeds).unwrap();
        assert_eq!(batch.len(), seeds.len());
        for (lane, &seed) in batch.iter().zip(&seeds) {
            let mut rng = StdRng::seed_from_u64(seed);
            let solo = run(&g, &ids, Alg1Config::default(), &mut rng).unwrap();
            assert_eq!(lane.colors, solo.colors, "seed {seed}");
            assert_eq!(lane.levels_used, solo.levels_used, "seed {seed}");
            assert_eq!(lane.max_degree, solo.max_degree, "seed {seed}");
            assert_eq!(lane.costs, solo.costs, "seed {seed}");
        }
        // No seeds on a connected graph: an empty answer, not a panic.
        assert!(run_batch(&g, &ids, Alg1Config::default(), &[])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn invalid_delta_is_rejected() {
        let (g, ids) = instance(20, 0.5, 9);
        let mut rng = StdRng::seed_from_u64(9);
        let config = Alg1Config {
            delta: 1.5,
            ..Alg1Config::default()
        };
        assert!(matches!(
            run(&g, &ids, config, &mut rng).unwrap_err(),
            CoreError::InvalidParameter { .. }
        ));
    }

    #[test]
    fn async_variant_colors_properly_and_charges_more_messages() {
        let (g, ids) = instance(70, 0.6, 11);
        let mut rng = StdRng::seed_from_u64(12);
        let sync = run(&g, &ids, Alg1Config::default(), &mut rng).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let async_out = run_async(&g, &ids, Alg1Config::default(), &mut rng).unwrap();
        assert!(verify::is_proper_coloring(&g, &async_out.colors));
        assert!(async_out.costs.total_messages() >= sync.costs.simulated_messages());
    }
}
