//! Algorithm 3: MIS in KT-2 CONGEST with Õ(n^1.5) messages and Õ(√n) rounds
//! (Theorem 4.1).
//!
//! 1. Sample a set `S` of ≈ `c·√n` nodes with private coins.
//! 2. Run the parallel randomized greedy MIS on `G[S]` (after `S`-nodes
//!    announce their membership and rank to their neighbours), which is
//!    equivalent to `|S|` iterations of sequential randomized greedy and
//!    reduces the maximum degree of the remnant graph to `Õ(√n)`.
//! 3. Every `S`-node that joined the MIS informs its *two-hop* neighbourhood.
//!    Crucially it does so along locally computed depth-2 BFS trees: a
//!    1-hop neighbour `v` forwards the announcement to a 2-hop node `w` only
//!    if `v` is the minimum-ID common neighbour of the MIS node and `w` —
//!    which `v` can decide from its KT-2 knowledge — so each 2-hop node is
//!    informed O(1) times instead of once per common neighbour.
//! 4. Every node prunes itself/its edges using KT-2 knowledge (no messages).
//! 5. Luby's algorithm finishes the job on the sparse remnant graph.

use std::cmp::Ordering;

use rand::Rng;
use symbreak_classic::mis::{self, Priority};
use symbreak_congest::{
    CostAccount, KnownNeighbors, KtLevel, Message, NodeAlgorithm, RoundContext, SyncConfig,
    SyncSimulator,
};
use symbreak_graphs::{AdjacencyArena, Graph, IdAssignment, NodeId};
use symbreak_ktrand::sampling;

use crate::error::CoreError;

const TAG_MEMBER: u16 = 0x70;
const TAG_JOIN: u16 = 0x71;
const TAG_JOIN_FWD: u16 = 0x72;

/// Configuration of Algorithm 3.
#[derive(Debug, Clone, Copy)]
pub struct Alg3Config {
    /// Sampling coefficient `c`: each node joins `S` with probability
    /// `min(1, c/√n)`.
    pub sample_coefficient: f64,
    /// Seed for the private per-node randomness of the Luby stage.
    pub luby_seed: u64,
    /// Worker threads for the simulated stages (`0` = automatic).
    pub threads: usize,
}

impl Default for Alg3Config {
    fn default() -> Self {
        Alg3Config {
            sample_coefficient: 1.0,
            luby_seed: 0x3_5eed,
            threads: 0,
        }
    }
}

/// Outcome of Algorithm 3.
#[derive(Debug, Clone)]
pub struct MisOutcome {
    /// Per-node MIS membership.
    pub in_mis: Vec<bool>,
    /// Message/round costs phase by phase (all simulated; Algorithm 3 uses
    /// no charged substrate).
    pub costs: CostAccount,
    /// Size of the sampled set `S`.
    pub sampled: usize,
    /// Maximum degree of the remnant graph handed to Luby's algorithm.
    pub remnant_max_degree: usize,
}

/// Stage A: sampled nodes announce `(membership, rank)` to all neighbours.
struct AnnounceNode {
    in_sample: bool,
    rank: u64,
    heard: u64,
}

impl NodeAlgorithm for AnnounceNode {
    fn on_round(&mut self, ctx: &mut RoundContext<'_>, inbox: &[Message]) {
        self.heard += inbox.iter().filter(|m| m.tag() == TAG_MEMBER).count() as u64;
        if ctx.round() == 0 && self.in_sample {
            ctx.broadcast(&Message::tagged(TAG_MEMBER).with_value(self.rank));
        }
    }
    fn is_done(&self) -> bool {
        true
    }
    fn output(&self) -> Option<u64> {
        Some(self.heard)
    }
}

/// Stage C: MIS members of `S` inform their 2-hop neighbourhood along
/// KT-2-computed depth-2 BFS trees.
struct InformNode {
    in_mis_s: bool,
    informed: u64,
    /// Relays not yet sent: an edge may carry only one message per round
    /// (the `congest::audit` multiplicity check enforces this), so when one
    /// forwarder owes the same 2-hop target relays for several joiners they
    /// are spread over consecutive rounds.
    pending: Vec<(NodeId, u64)>,
}

impl NodeAlgorithm for InformNode {
    fn on_round(&mut self, ctx: &mut RoundContext<'_>, inbox: &[Message]) {
        self.informed += inbox
            .iter()
            .filter(|m| m.tag() == TAG_JOIN || m.tag() == TAG_JOIN_FWD)
            .count() as u64;
        if ctx.round() == 0 {
            if self.in_mis_s {
                ctx.broadcast(&Message::tagged(TAG_JOIN).with_id(ctx.own_id()));
            }
            return;
        }
        // Forwarding role: for every JOIN heard from a neighbour u, relay it
        // to exactly the 2-hop neighbours of u for which we are the
        // minimum-ID common neighbour (computable from KT-2 knowledge).
        let knowledge = ctx.knowledge();
        let my_id = knowledge.own_id();
        for msg in inbox {
            if msg.tag() != TAG_JOIN {
                continue;
            }
            let uid = msg.ids()[0];
            let Some(u) = knowledge.known_node_with_id(uid) else {
                continue;
            };
            // We know N(u) and every N(w) because u and w are our neighbours.
            let nu = knowledge.known_neighbors(u);
            for (w, _) in knowledge.known_neighbors(knowledge.me()) {
                if w != u && relays_to(u, nu.clone(), w, knowledge.known_neighbors(w), my_id) {
                    self.pending.push((w, uid));
                }
            }
        }
        // Drain at most one relay per target edge per round; a node with
        // leftovers stays active (`is_done`) and continues next round.
        let mut sent_now: Vec<NodeId> = Vec::new();
        let mut rest = Vec::new();
        for (w, uid) in std::mem::take(&mut self.pending) {
            if sent_now.contains(&w) {
                rest.push((w, uid));
            } else {
                sent_now.push(w);
                ctx.send(w, Message::tagged(TAG_JOIN_FWD).with_id(uid));
            }
        }
        self.pending = rest;
    }
    fn is_done(&self) -> bool {
        self.pending.is_empty()
    }
    fn output(&self) -> Option<u64> {
        Some(self.informed)
    }
}

/// Whether the node with ID `my_id`, a common neighbour of `u` and `w`,
/// relays `u`'s JOIN to `w`: `u` and `w` must not be adjacent, and no common
/// neighbour of theirs may have a smaller ID (IDs are unique). One merge of
/// the two sorted rows decides both. The merge compares every element of
/// the row that runs out first, so an edge `{u, w}` shows up either as `w`
/// in `N(u)` or as `u` in `N(w)`.
fn relays_to(
    u: NodeId,
    mut nu: KnownNeighbors<'_>,
    w: NodeId,
    mut nw: KnownNeighbors<'_>,
    my_id: u64,
) -> bool {
    let (mut x, mut y) = (nu.next(), nw.next());
    while let (Some((xv, xid)), Some((yv, _))) = (x, y) {
        if xv == w || yv == u {
            return false;
        }
        match xv.cmp(&yv) {
            Ordering::Less => x = nu.next(),
            Ordering::Greater => y = nw.next(),
            Ordering::Equal if xid < my_id => return false,
            Ordering::Equal => (x, y) = (nu.next(), nw.next()),
        }
    }
    true
}

/// Runs Algorithm 3.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] if the sampling coefficient is not
/// positive, and [`CoreError::DidNotConverge`] if a stage fails to terminate
/// (which would indicate a bug).
pub fn run<R: Rng + ?Sized>(
    graph: &Graph,
    ids: &IdAssignment,
    config: Alg3Config,
    rng: &mut R,
) -> Result<MisOutcome, CoreError> {
    if config.sample_coefficient <= 0.0 || config.sample_coefficient.is_nan() {
        return Err(CoreError::InvalidParameter {
            name: "sample_coefficient",
            message: format!("must be positive, got {}", config.sample_coefficient),
        });
    }
    let n = graph.num_nodes();
    if n == 0 {
        return Ok(MisOutcome {
            in_mis: Vec::new(),
            costs: CostAccount::new(),
            sampled: 0,
            remnant_max_degree: 0,
        });
    }
    let mut costs = CostAccount::new();
    let stage_config = SyncConfig::default().with_threads(config.threads);

    // Step 1: sample S and draw ranks with private coins.
    let p = (config.sample_coefficient / (n as f64).sqrt()).min(1.0);
    let sampled_indices = sampling::bernoulli_subset(n, p, rng);
    let mut in_sample = vec![false; n];
    for &i in &sampled_indices {
        in_sample[i] = true;
    }
    let ranks = sampling::random_ranks(n, rng);

    // Step 2a: S-nodes announce membership and rank to all neighbours.
    let sim = SyncSimulator::new(graph, ids, KtLevel::KT2);
    let report = sim.run(stage_config, |init| AnnounceNode {
        in_sample: in_sample[init.node.index()],
        rank: ranks[init.node.index()],
        heard: 0,
    });
    costs.charge_report("S announces membership + rank", &report);

    // Step 2b: parallel randomized greedy MIS on G[S]. The active lists are
    // the S-neighbours each node just learned about, in one CSR arena built
    // in a single pass over the graph's rows.
    let s_neighbors =
        AdjacencyArena::from_filtered(graph, |v, u| in_sample[v.index()] && in_sample[u.index()]);
    let (greedy_mis, report) = mis::run_arena(
        graph,
        ids,
        KtLevel::KT2,
        &in_sample,
        &s_neighbors,
        Priority::Rank(&ranks),
        stage_config,
    );
    costs.charge_report("parallel greedy MIS on G[S]", &report);

    // Step 3: MIS members of S inform their 2-hop neighbourhoods.
    let sim = SyncSimulator::new(graph, ids, KtLevel::KT2);
    let report = sim.run(stage_config, |init| InformNode {
        in_mis_s: greedy_mis[init.node.index()],
        informed: 0,
        pending: Vec::new(),
    });
    costs.charge_report("inform 2-hop neighbourhoods (KT-2 BFS trees)", &report);

    // Step 4: pruning — mirror of each node's local computation: a node is
    // decided if it joined the MIS or has a 1-hop neighbour in it; an edge
    // survives only if both endpoints are undecided.
    let dominated: Vec<bool> = graph
        .nodes()
        .map(|v| greedy_mis[v.index()] || graph.neighbors(v).any(|u| greedy_mis[u.index()]))
        .collect();
    let undecided: Vec<bool> = graph.nodes().map(|v| !dominated[v.index()]).collect();

    // Step 5: Luby's algorithm on the remnant graph.
    let remnant =
        AdjacencyArena::from_filtered(graph, |v, u| undecided[v.index()] && undecided[u.index()]);
    let remnant_max_degree = graph.nodes().map(|v| remnant.row_len(v)).max().unwrap_or(0);
    let (luby_mis, report) = mis::run_arena(
        graph,
        ids,
        KtLevel::KT2,
        &undecided,
        &remnant,
        Priority::Luby(config.luby_seed),
        stage_config,
    );
    costs.charge_report("Luby on remnant graph", &report);

    let in_mis: Vec<bool> = graph
        .nodes()
        .map(|v| greedy_mis[v.index()] || luby_mis[v.index()])
        .collect();

    Ok(MisOutcome {
        in_mis,
        costs,
        sampled: sampled_indices.len(),
        remnant_max_degree,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use symbreak_classic::mis::verify;
    use symbreak_graphs::{generators, IdSpace};

    fn instance(n: usize, p: f64, seed: u64) -> (Graph, IdAssignment) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::gnp(n, p, &mut rng);
        let ids = IdAssignment::random(&g, IdSpace::CUBIC, &mut rng);
        (g, ids)
    }

    #[test]
    fn computes_a_valid_mis_on_random_graphs() {
        for (n, p, seed) in [
            (40usize, 0.2, 1u64),
            (80, 0.5, 2),
            (60, 0.9, 3),
            (50, 0.05, 4),
        ] {
            let (g, ids) = instance(n, p, seed);
            let mut rng = StdRng::seed_from_u64(seed + 10);
            let out = run(&g, &ids, Alg3Config::default(), &mut rng).unwrap();
            assert!(verify::is_mis(&g, &out.in_mis), "n={n} p={p}");
            assert!(
                out.costs.charged_messages() == 0,
                "Algorithm 3 charges nothing"
            );
        }
    }

    #[test]
    fn remnant_degree_is_small_on_dense_graphs() {
        let (g, ids) = instance(150, 0.6, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let config = Alg3Config {
            sample_coefficient: 2.0,
            ..Alg3Config::default()
        };
        let out = run(&g, &ids, config, &mut rng).unwrap();
        assert!(verify::is_mis(&g, &out.in_mis));
        // Lemma 1 of [21]: remnant max degree = O((n log n)/|S|) = Õ(√n).
        let n = g.num_nodes() as f64;
        let bound = 4.0 * n.sqrt() * n.ln();
        assert!(
            (out.remnant_max_degree as f64) < bound,
            "remnant Δ = {} exceeds Õ(√n) bound {bound}",
            out.remnant_max_degree
        );
        assert!(out.sampled > 0);
    }

    #[test]
    fn message_cost_is_far_below_luby_baseline_on_dense_graphs() {
        let (g, ids) = instance(150, 0.8, 11);
        let mut rng = StdRng::seed_from_u64(12);
        let out = run(&g, &ids, Alg3Config::default(), &mut rng).unwrap();
        assert!(verify::is_mis(&g, &out.in_mis));
        let (baseline_mis, baseline_report) =
            symbreak_classic::mis::luby::run(&g, &ids, 99, SyncConfig::default());
        assert!(verify::is_mis(&g, &baseline_mis));
        assert!(
            out.costs.total_messages() < baseline_report.messages,
            "Algorithm 3 used {} messages, Luby used {}",
            out.costs.total_messages(),
            baseline_report.messages
        );
    }

    #[test]
    fn works_on_degenerate_inputs() {
        let mut rng = StdRng::seed_from_u64(1);
        // Empty graph: everyone is in the MIS.
        let g = generators::empty(6);
        let ids = IdAssignment::identity(6);
        let out = run(&g, &ids, Alg3Config::default(), &mut rng).unwrap();
        assert_eq!(out.in_mis, vec![true; 6]);
        // Clique: exactly one node in the MIS.
        let g = generators::clique(9);
        let ids = IdAssignment::identity(9);
        let out = run(&g, &ids, Alg3Config::default(), &mut rng).unwrap();
        assert!(verify::is_mis(&g, &out.in_mis));
        assert_eq!(out.in_mis.iter().filter(|&&b| b).count(), 1);
        // Zero nodes.
        let g = generators::empty(0);
        let ids = IdAssignment::identity(0);
        let out = run(&g, &ids, Alg3Config::default(), &mut rng).unwrap();
        assert!(out.in_mis.is_empty());
    }

    #[test]
    fn rejects_non_positive_sampling_coefficient() {
        let (g, ids) = instance(10, 0.5, 2);
        let mut rng = StdRng::seed_from_u64(2);
        let config = Alg3Config {
            sample_coefficient: 0.0,
            ..Alg3Config::default()
        };
        assert!(matches!(
            run(&g, &ids, config, &mut rng).unwrap_err(),
            CoreError::InvalidParameter { .. }
        ));
    }
}
