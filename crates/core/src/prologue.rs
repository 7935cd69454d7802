//! The seed-independent prologue of Algorithms 1 and 2.

use rand::Rng;
use symbreak_congest::{CostAccount, ExecutionReport};
use symbreak_danner::{ops, setup::SetupPlan, DannerError};
use symbreak_graphs::{properties, Graph, IdAssignment};
use symbreak_ktrand::SharedRandomness;

use crate::error::CoreError;

/// Everything Algorithms 1 and 2 compute before their first coin: the danner
/// setup plan (danner, leader, broadcast tree) and the Δ convergecast and
/// broadcast over its tree. None of it depends on a seed, so `run_batch`
/// builds one prologue and runs every seed from it, through the same
/// per-seed body `run` calls.
pub(crate) struct Prologue {
    /// The danner, the leader and the broadcast tree.
    pub(crate) plan: SetupPlan,
    /// The global maximum degree Δ, as the convergecast learned it.
    pub(crate) max_degree: u64,
    delta_up: ExecutionReport,
    delta_down: ExecutionReport,
}

impl Prologue {
    /// Builds the setup plan, then learns Δ over the danner tree and
    /// broadcasts it back down (real messages).
    ///
    /// # Errors
    ///
    /// [`CoreError::Disconnected`] for disconnected inputs and
    /// [`CoreError::InvalidParameter`] for δ outside `[0, 1]`; a
    /// disconnected input with a bad δ is [`CoreError::Disconnected`].
    pub(crate) fn new(graph: &Graph, ids: &IdAssignment, delta: f64) -> Result<Self, CoreError> {
        // The danner's BFS is the connectivity check; only a rejected δ,
        // which stops the danner before its BFS, needs a walk of its own.
        let plan = SetupPlan::new(graph, ids, delta).map_err(|e| match e {
            DannerError::InvalidDelta { .. } if !properties::is_connected(graph) => {
                CoreError::Disconnected
            }
            e => e.into(),
        })?;
        let degrees: Vec<u64> = graph.nodes().map(|v| graph.degree(v) as u64).collect();
        let (max_degree, delta_up) =
            ops::convergecast_max(plan.carrier(), ids, plan.tree(), &degrees);
        let delta_down = ops::broadcast_words(plan.carrier(), ids, plan.tree(), &[max_degree]);
        Ok(Prologue {
            plan,
            max_degree,
            delta_up,
            delta_down,
        })
    }

    /// One seed's setup: the leader draws `seed_bits` shared random bits
    /// with `rng` and broadcasts them over the danner. Returns them with a
    /// fresh cost account holding the setup phases and then the Δ casts, in
    /// the order a run records them.
    pub(crate) fn share<R: Rng + ?Sized>(
        &self,
        ids: &IdAssignment,
        seed_bits: usize,
        rng: &mut R,
    ) -> (SharedRandomness, CostAccount) {
        let (shared, setup_costs) = self.plan.share(ids, seed_bits, rng);
        let mut costs = CostAccount::new();
        costs.absorb("setup", &setup_costs);
        costs.charge_report("Δ convergecast", &self.delta_up);
        costs.charge_report("Δ broadcast", &self.delta_down);
        (shared, costs)
    }
}
