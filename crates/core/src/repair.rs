//! Incremental repair of colourings and MIS outputs after edge churn.
//!
//! A [`symbreak_graphs::GraphOverlay`] absorbs a [`ChurnBatch`] of edge
//! inserts/deletes; this module restores the broken invariants *without*
//! recomputing from scratch:
//!
//! 1. **Dirty frontier** — only nodes whose constraint set actually changed
//!    are re-entered: for a colouring, the larger-ID endpoint of every
//!    inserted edge whose endpoints now share a colour; for an MIS, the
//!    evicted set-members of conflicting inserted edges plus every node a
//!    deletion or eviction may have left uncovered.
//! 2. **Frontier subgraph** — the round engine validates every `send`
//!    against its CSR, so repair stages run on a *frontier-induced subgraph*
//!    built from the overlay's merged adjacency (deltas consulted before the
//!    flat base arrays): frontier nodes are remapped to a dense `NodeId`
//!    range and keep their original u64 IDs, so ID-based tie-breaks agree
//!    with the full graph.
//! 3. **Existing runtimes** — the frontier re-enters the *same* flat
//!    runtimes the from-scratch baselines use: Johansson list-coloring
//!    ([`johansson::run_flat`]) for colourings, Luby
//!    ([`luby::run_restricted_arena`]) for MIS.
//! 4. **Fixpoint** — the former frontier is re-scanned, and any node still
//!    uncoloured, conflicting or uncovered would seed the next frontier.
//!    Both runtimes decide every frontier node, so one iteration reaches
//!    the fixpoint; the loop is the check that it did.
//!
//! Repaired colourings stay proper and within `Δ+1` colours of the *current*
//! graph because each frontier node's repair palette is
//! `{0, …, deg(v)} \ {colours of its clean neighbours}` — always larger than
//! its frontier degree, so Johansson's precondition holds by construction.
//! Repaired MIS outputs stay independent because eviction removes the
//! larger-ID endpoint of every conflicting edge in one simultaneous pass,
//! and maximal because every node the churn may have uncovered is a repair
//! candidate. The differential suite (`tests/churn_equivalence.rs`) checks
//! both invariants after every batch against a fresh CSR build.

use symbreak_classic::coloring::johansson;
use symbreak_classic::mis::luby;
use symbreak_congest::{ExecutionReport, KtLevel, SyncConfig};
use symbreak_graphs::{
    AdjacencyArena, ChurnBatch, Graph, GraphBuilder, GraphOverlay, IdAssignment, NodeId,
};

/// Safety valve: every repair reaches its fixpoint in one iteration (the
/// churn differential suite asserts it), so one still iterating after this
/// many is a logic error, not bad luck.
const MAX_REPAIR_ITERATIONS: usize = 64;

/// Which stage runtime drives a colouring repair. Johansson is the only
/// one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ColoringRepairDriver {
    /// Johansson list-coloring over the frontier subgraph; it never gives
    /// up, so it reaches the fixpoint in one iteration.
    #[default]
    Johansson,
}

/// Which stage runtime drives an MIS repair. Luby is the only one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MisRepairDriver {
    /// Luby's algorithm on the candidate subgraph.
    #[default]
    Luby,
}

/// What one incremental repair did: how many frontier iterations ran, how
/// large each frontier was, and the communication it cost.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Number of frontier iterations until the fixpoint (0 if the batch
    /// broke nothing).
    pub iterations: usize,
    /// Size of each iteration's frontier subgraph, in nodes.
    pub frontier_sizes: Vec<usize>,
    /// Number of node outputs rewritten across all iterations.
    pub repaired_nodes: usize,
    /// Engine rounds summed over all repair stages.
    pub rounds: u64,
    /// Messages summed over all repair stages.
    pub messages: u64,
}

impl RepairReport {
    /// Total number of frontier-node slots entered across all iterations.
    pub fn total_frontier(&self) -> usize {
        self.frontier_sizes.iter().sum()
    }

    fn absorb(&mut self, exec: &ExecutionReport) {
        self.rounds += exec.rounds;
        self.messages += exec.messages;
    }
}

/// A frontier-induced subgraph: the dirty nodes remapped to a dense
/// `NodeId` range, their overlay edges among each other as a clean CSR, and
/// their **original** u64 IDs (so ID tie-breaks match the full graph).
struct Frontier {
    /// Sorted original node indices; subgraph node `j` is `nodes[j]`.
    nodes: Vec<NodeId>,
    /// CSR over the overlay edges among the frontier nodes.
    graph: Graph,
    /// Original IDs, reindexed to the subgraph.
    ids: IdAssignment,
}

impl Frontier {
    /// Builds the subgraph from the overlay's merged adjacency (the deltas
    /// are consulted before the flat base arrays, so post-churn edges are
    /// present and deleted ones absent without compacting first).
    fn build(overlay: &GraphOverlay, ids: &IdAssignment, mut nodes: Vec<NodeId>) -> Self {
        nodes.sort_unstable();
        nodes.dedup();
        let mut pos = vec![u32::MAX; overlay.num_nodes()];
        for (j, &v) in nodes.iter().enumerate() {
            pos[v.index()] = j as u32;
        }
        let mut builder = GraphBuilder::new(nodes.len());
        for (j, &v) in nodes.iter().enumerate() {
            for u in overlay.neighbors(v) {
                let k = pos[u.index()];
                if k != u32::MAX && (j as u32) < k {
                    builder.add_edge(NodeId(j as u32), NodeId(k));
                }
            }
        }
        let sub_ids = IdAssignment::from_vec(nodes.iter().map(|&v| ids.id_of(v)).collect());
        Frontier {
            graph: builder.build(),
            ids: sub_ids,
            nodes,
        }
    }
}

/// The repair palette of frontier node `v`: `{0, …, deg(v)}` minus the
/// colours its clean (non-frontier) neighbours currently hold. Sorted
/// ascending and duplicate-free; always strictly larger than `v`'s frontier
/// degree, so the `(deg+1)`-list-coloring precondition holds.
fn repair_palette(overlay: &GraphOverlay, colors: &[Option<u64>], v: NodeId) -> Vec<u64> {
    let bound = overlay.degree(v) as u64 + 1;
    let mut taken: Vec<u64> = overlay
        .neighbors(v)
        .filter_map(|u| colors[u.index()])
        .filter(|&c| c < bound)
        .collect();
    taken.sort_unstable();
    taken.dedup();
    (0..bound)
        .filter(|c| taken.binary_search(c).is_err())
        .collect()
}

/// Repairs a proper colouring after `batch` was applied to `overlay`.
///
/// `colors` must be a proper colouring of the pre-batch graph; on return it
/// is a proper colouring of the current (post-batch) graph, with every
/// repaired node coloured from `{0, …, deg(v)}` — so a `(Δ+1)`-bounded
/// colouring stays `(Δ+1)`-bounded for the current maximum degree `Δ`.
///
/// Only the larger-ID endpoint of each conflicting inserted edge is
/// re-entered (deletions never break properness), and the frontier runs
/// through the stage runtime `driver` names on the frontier-induced
/// subgraph.
///
/// # Panics
///
/// Panics if a stage fails to quiesce or the fixpoint is not reached within
/// `MAX_REPAIR_ITERATIONS` (64) — both indicate a corrupted input colouring.
pub fn repair_coloring(
    overlay: &GraphOverlay,
    ids: &IdAssignment,
    batch: &ChurnBatch,
    colors: &mut [Option<u64>],
    driver: ColoringRepairDriver,
    seed: u64,
    config: SyncConfig,
) -> RepairReport {
    assert_eq!(colors.len(), overlay.num_nodes());
    let mut dirty: Vec<NodeId> = Vec::new();
    for &(u, v) in &batch.inserts {
        if u == v || !overlay.has_edge(u, v) {
            continue; // cancelled or no-op insert: nothing changed
        }
        match (colors[u.index()], colors[v.index()]) {
            (Some(a), Some(b)) if a == b => {
                dirty.push(if ids.id_of(u) > ids.id_of(v) { u } else { v });
            }
            (cu, cv) => {
                if cu.is_none() {
                    dirty.push(u);
                }
                if cv.is_none() {
                    dirty.push(v);
                }
            }
        }
    }

    let mut report = RepairReport::default();
    while !dirty.is_empty() {
        assert!(
            report.iterations < MAX_REPAIR_ITERATIONS,
            "colouring repair did not reach a fixpoint"
        );
        for &v in &dirty {
            colors[v.index()] = None;
        }
        let frontier = Frontier::build(overlay, ids, std::mem::take(&mut dirty));
        let m = frontier.nodes.len();
        let palettes: Vec<Vec<u64>> = frontier
            .nodes
            .iter()
            .map(|&v| repair_palette(overlay, colors, v))
            .collect();
        let stage_seed = seed ^ (report.iterations as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let (sub_colors, exec) = match driver {
            ColoringRepairDriver::Johansson => {
                let instance = johansson::FlatListColoring::new(
                    vec![true; m],
                    &palettes,
                    AdjacencyArena::from_filtered(&frontier.graph, |_, _| true),
                );
                johansson::run_flat(
                    &frontier.graph,
                    &frontier.ids,
                    KtLevel::KT1,
                    &instance,
                    stage_seed,
                    config,
                )
            }
        };
        report.absorb(&exec);
        for (j, &v) in frontier.nodes.iter().enumerate() {
            if let Some(c) = sub_colors[j] {
                colors[v.index()] = Some(c);
                report.repaired_nodes += 1;
            }
        }
        // Re-scan only the former frontier: an uncoloured node or a residual
        // conflict would re-enter. Neither occurs: Johansson colours every
        // frontier node apart from its frontier neighbours, and the repair
        // palettes exclude the colours of the clean ones.
        for &v in &frontier.nodes {
            match colors[v.index()] {
                None => dirty.push(v),
                Some(c) => {
                    if overlay.neighbors(v).any(|u| colors[u.index()] == Some(c)) {
                        dirty.push(v);
                    }
                }
            }
        }
        report.iterations += 1;
        report.frontier_sizes.push(m);
    }
    report
}

/// Repairs a maximal independent set after `batch` was applied to `overlay`.
///
/// `in_set` must be an MIS of the pre-batch graph; on return it is an MIS of
/// the current graph. The repair is three local steps:
///
/// 1. **Evict** the larger-ID endpoint of every conflicting inserted edge
///    (one simultaneous pass — independence is restored immediately).
/// 2. **Collect candidates**: evicted nodes, their neighbours, and the
///    endpoints of effective deletions — filtered to nodes with no
///    remaining set-neighbour (the only nodes maximality can now miss).
/// 3. **Re-run MIS** on the candidate-induced subgraph with the runtime
///    `driver` names, and add the winners to the set.
///
/// # Panics
///
/// Panics if a stage fails to quiesce or the fixpoint is not reached within
/// `MAX_REPAIR_ITERATIONS` (64) — both indicate a corrupted input set.
pub fn repair_mis(
    overlay: &GraphOverlay,
    ids: &IdAssignment,
    batch: &ChurnBatch,
    in_set: &mut [bool],
    driver: MisRepairDriver,
    seed: u64,
    config: SyncConfig,
) -> RepairReport {
    assert_eq!(in_set.len(), overlay.num_nodes());
    let mut evicted: Vec<NodeId> = Vec::new();
    for &(u, v) in &batch.inserts {
        if u == v || !overlay.has_edge(u, v) || !(in_set[u.index()] && in_set[v.index()]) {
            continue;
        }
        evicted.push(if ids.id_of(u) > ids.id_of(v) { u } else { v });
    }
    evicted.sort_unstable();
    evicted.dedup();
    let mut report = RepairReport::default();
    report.repaired_nodes += evicted.len();
    for &v in &evicted {
        in_set[v.index()] = false;
    }

    let mut candidates: Vec<NodeId> = Vec::new();
    for &v in &evicted {
        candidates.push(v);
        candidates.extend(overlay.neighbors(v));
    }
    for &(u, v) in &batch.deletes {
        if u == v || overlay.has_edge(u, v) {
            continue; // cancelled or no-op deletion: coverage unchanged
        }
        candidates.push(u);
        candidates.push(v);
    }
    candidates.sort_unstable();
    candidates.dedup();
    fn uncovered(overlay: &GraphOverlay, in_set: &[bool], v: NodeId) -> bool {
        !in_set[v.index()] && !overlay.neighbors(v).any(|u| in_set[u.index()])
    }
    candidates.retain(|&v| uncovered(overlay, in_set, v));

    while !candidates.is_empty() {
        assert!(
            report.iterations < MAX_REPAIR_ITERATIONS,
            "MIS repair did not reach a fixpoint"
        );
        let frontier = Frontier::build(overlay, ids, std::mem::take(&mut candidates));
        let m = frontier.nodes.len();
        let participating = vec![true; m];
        let arena = AdjacencyArena::from_filtered(&frontier.graph, |_, _| true);
        let stage_seed = seed ^ (report.iterations as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let (membership, exec) = match driver {
            MisRepairDriver::Luby => luby::run_restricted_arena(
                &frontier.graph,
                &frontier.ids,
                KtLevel::KT2,
                &participating,
                &arena,
                stage_seed,
                config,
            ),
        };
        report.absorb(&exec);
        for (j, &v) in frontier.nodes.iter().enumerate() {
            if membership[j] {
                in_set[v.index()] = true;
                report.repaired_nodes += 1;
            }
        }
        candidates = frontier
            .nodes
            .iter()
            .copied()
            .filter(|&v| uncovered(overlay, in_set, v))
            .collect();
        report.iterations += 1;
        report.frontier_sizes.push(m);
    }
    report
}

/// Full-recompute colouring oracle: a fresh Johansson `(Δ+1)`-coloring of
/// the overlay's **current** graph (materialized to a clean CSR). The
/// differential suite and the churn bench compare repairs against this.
pub fn recompute_coloring(
    overlay: &GraphOverlay,
    ids: &IdAssignment,
    seed: u64,
    config: SyncConfig,
) -> (Vec<Option<u64>>, ExecutionReport) {
    let graph = overlay.materialize();
    let instance = johansson::FlatListColoring::delta_plus_one(&graph);
    johansson::run_flat(&graph, ids, KtLevel::KT1, &instance, seed, config)
}

/// Full-recompute MIS oracle: Luby's algorithm from scratch on the overlay's
/// **current** graph (materialized to a clean CSR).
pub fn recompute_mis(
    overlay: &GraphOverlay,
    ids: &IdAssignment,
    seed: u64,
    config: SyncConfig,
) -> (Vec<bool>, ExecutionReport) {
    let graph = overlay.materialize();
    let participating = vec![true; graph.num_nodes()];
    let arena = AdjacencyArena::from_filtered(&graph, |_, _| true);
    luby::run_restricted_arena(
        &graph,
        ids,
        KtLevel::KT2,
        &participating,
        &arena,
        seed,
        config,
    )
}

/// A long-lived churn session: the overlay, the ID assignment and the
/// engine configuration repairs and recomputes run under.
#[derive(Debug)]
pub struct ChurnSession {
    overlay: GraphOverlay,
    ids: IdAssignment,
    config: SyncConfig,
}

impl ChurnSession {
    /// Opens a session over `base` with the given IDs and engine config.
    pub fn new(base: Graph, ids: IdAssignment, config: SyncConfig) -> Self {
        assert_eq!(ids.len(), base.num_nodes());
        ChurnSession {
            overlay: GraphOverlay::new(base),
            ids,
            config,
        }
    }

    /// The live overlay.
    pub fn overlay(&self) -> &GraphOverlay {
        &self.overlay
    }

    /// The ID assignment (fixed for the session's lifetime).
    pub fn ids(&self) -> &IdAssignment {
        &self.ids
    }

    /// The engine configuration repairs and recomputes run under.
    pub fn config(&self) -> SyncConfig {
        self.config
    }

    /// Applies a churn batch to the overlay; returns `(deleted, inserted)`
    /// effective-operation counts. Call this once per batch, then repair
    /// whichever outputs the session maintains.
    pub fn apply(&mut self, batch: &ChurnBatch) -> (usize, usize) {
        self.overlay.apply(batch)
    }

    /// Compacts the overlay into a clean CSR and bumps its generation.
    pub fn compact(&mut self) -> &Graph {
        self.overlay.compact()
    }

    /// [`repair_coloring`] against this session's overlay/IDs/config.
    /// `batch` must be the batch most recently [`ChurnSession::apply`]ed.
    pub fn repair_coloring(
        &self,
        batch: &ChurnBatch,
        colors: &mut [Option<u64>],
        driver: ColoringRepairDriver,
        seed: u64,
    ) -> RepairReport {
        repair_coloring(
            &self.overlay,
            &self.ids,
            batch,
            colors,
            driver,
            seed,
            self.config,
        )
    }

    /// [`repair_mis`] against this session's overlay/IDs/config. `batch`
    /// must be the batch most recently [`ChurnSession::apply`]ed.
    pub fn repair_mis(
        &self,
        batch: &ChurnBatch,
        in_set: &mut [bool],
        driver: MisRepairDriver,
        seed: u64,
    ) -> RepairReport {
        repair_mis(
            &self.overlay,
            &self.ids,
            batch,
            in_set,
            driver,
            seed,
            self.config,
        )
    }

    /// [`recompute_coloring`] against this session's overlay/IDs/config.
    pub fn recompute_coloring(&self, seed: u64) -> (Vec<Option<u64>>, ExecutionReport) {
        recompute_coloring(&self.overlay, &self.ids, seed, self.config)
    }

    /// [`recompute_mis`] against this session's overlay/IDs/config.
    pub fn recompute_mis(&self, seed: u64) -> (Vec<bool>, ExecutionReport) {
        recompute_mis(&self.overlay, &self.ids, seed, self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbreak_classic::coloring::verify::is_proper_coloring;
    use symbreak_classic::mis::verify::is_mis;
    use symbreak_graphs::generators;

    fn batch(inserts: &[(u32, u32)], deletes: &[(u32, u32)]) -> ChurnBatch {
        ChurnBatch {
            inserts: inserts
                .iter()
                .map(|&(u, v)| (NodeId(u), NodeId(v)))
                .collect(),
            deletes: deletes
                .iter()
                .map(|&(u, v)| (NodeId(u), NodeId(v)))
                .collect(),
        }
    }

    #[test]
    fn coloring_repair_fixes_an_inserted_conflict() {
        // 2-colour an even cycle, then insert a chord between two same-colour
        // nodes: exactly one endpoint must be recoloured.
        let mut session = ChurnSession::new(
            generators::cycle(8),
            IdAssignment::identity(8),
            SyncConfig::default(),
        );
        let colors: Vec<Option<u64>> = (0..8).map(|i| Some(i % 2)).collect();
        let b = batch(&[(0, 2)], &[]); // both colour 0
        session.apply(&b);
        let mut repaired = colors.clone();
        let report = session.repair_coloring(&b, &mut repaired, ColoringRepairDriver::Johansson, 7);
        assert!(is_proper_coloring(
            &session.overlay().materialize(),
            &repaired
        ));
        assert_eq!(report.frontier_sizes, vec![1]);
        assert_eq!(
            repaired[0], colors[0],
            "smaller-ID endpoint keeps its colour"
        );
        assert_ne!(repaired[2], Some(0));
    }

    #[test]
    fn coloring_repair_is_a_no_op_on_harmless_churn() {
        let mut session = ChurnSession::new(
            generators::cycle(8),
            IdAssignment::identity(8),
            SyncConfig::default(),
        );
        let mut colors: Vec<Option<u64>> = (0..8).map(|i| Some(i % 2)).collect();
        // Deletions never break properness; this insert joins colours 1 and 0.
        let b = batch(&[(1, 4)], &[(2, 3)]);
        session.apply(&b);
        let before = colors.clone();
        let report = session.repair_coloring(&b, &mut colors, ColoringRepairDriver::Johansson, 3);
        assert_eq!(report, RepairReport::default());
        assert_eq!(colors, before);
    }

    #[test]
    fn mis_repair_restores_independence_and_maximality() {
        // Path 0-1-2-3-4-5: {0, 2, 4} is an MIS. Insert (0, 2) — conflict —
        // and delete (4, 5) — node 5 becomes uncovered.
        let mut session = ChurnSession::new(
            generators::path(6),
            IdAssignment::identity(6),
            SyncConfig::default(),
        );
        let mut in_set = vec![true, false, true, false, true, false];
        let b = batch(&[(0, 2)], &[(4, 5)]);
        session.apply(&b);
        let report = session.repair_mis(&b, &mut in_set, MisRepairDriver::Luby, 11);
        assert!(is_mis(&session.overlay().materialize(), &in_set));
        assert!(report.iterations >= 1);
        assert!(in_set[5], "uncovered node must re-enter the set");
    }

    #[test]
    fn repair_tracks_a_churn_stream_on_gnp() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        let base = generators::connected_gnp(40, 0.15, &mut rng);
        let ids = IdAssignment::identity(40);
        let config = SyncConfig::default();
        let mut session = ChurnSession::new(base.clone(), ids, config);
        let (mut colors, _) = session.recompute_coloring(1);
        let (mut in_set, _) = session.recompute_mis(2);
        let mut stream = generators::ChurnStream::new(&base, 17);
        for step in 0..12u64 {
            let b = stream.next_batch(2, 2);
            session.apply(&b);
            session.repair_coloring(&b, &mut colors, ColoringRepairDriver::Johansson, 100 + step);
            session.repair_mis(&b, &mut in_set, MisRepairDriver::Luby, 200 + step);
            let current = session.overlay().materialize();
            assert!(is_proper_coloring(&current, &colors), "step {step}");
            assert!(is_mis(&current, &in_set), "step {step}");
            if step == 5 {
                session.compact();
            }
        }
    }
}
