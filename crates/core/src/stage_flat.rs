//! The stage pipeline: arena-backed stage specs and the borrow-threaded
//! runtime of the conflict-aware coloring stage.
//!
//! A [`FlatStageSpec`] holds one stage of Algorithm 1 in three flat
//! structures:
//!
//! * **bitset palettes** ([`PaletteBitsets`]): one flat word array, one
//!   distinct palette row computed per *bucket* (not per node) and blitted
//!   into each member's row — striking a colour is an O(1) bit clear and a
//!   random free-colour draw is an O(words) select;
//! * **CSR active lists** ([`AdjacencyArena`]): one offsets array plus one
//!   flat values array, filled in a single pass over the graph's own CSR
//!   rows;
//! * **borrowed stage state**: [`run_stage_flat`] threads the spec into the
//!   per-node automata by reference (the plan by `Arc`), so stage setup
//!   clones neither `existing_colors` nor per-node palettes or active lists.
//!
//! A node draws its candidate as the `r`-th free colour of its palette in
//! ascending order, with `r` from its own seeded RNG stream, so a stage's
//! colours, round counts and cost reports are a pure function of the spec
//! and the seed at every thread count.
//! `tests/golden_digests.rs` pins them for every algorithm built on it.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use symbreak_classic::coloring::palette::{self, PaletteBitsets};
use symbreak_congest::async_sim::{AsyncConfig, AsyncReport, AsyncSimulator};
use symbreak_congest::{
    run_synchronized, ExecutionReport, FaultPlan, KtLevel, Message, NodeAlgorithm, NodeInit,
    RoundContext, SyncConfig, SyncSimulator,
};
use symbreak_graphs::{AdjacencyArena, Graph, IdAssignment, NodeId};

use crate::partition::{ChangPartition, Part};
use crate::query_coloring::{QueryPlan, TAG_FINAL, TAG_PROPOSE, TAG_QUERY, TAG_RESPONSE};

/// Flat specification of one conflict-aware coloring stage. Borrows the
/// current colour vector instead of cloning it; build one per stage with
/// [`FlatStageSpec::for_bucket_level`] or [`FlatStageSpec::for_final_stage`].
#[derive(Debug, Clone)]
pub struct FlatStageSpec<'a> {
    participating: Vec<bool>,
    palettes: PaletteBitsets,
    active: AdjacencyArena,
    existing_colors: &'a [Option<u64>],
    plan: Arc<QueryPlan>,
    phase_limit: usize,
}

impl<'a> FlatStageSpec<'a> {
    /// Builds the level-stage spec of Algorithm 1: every uncoloured node in
    /// a bucket participates, its palette is its bucket's palette share, and
    /// its active list is its same-bucket participating neighbours.
    ///
    /// Each bucket's palette row is computed once (`O(palette_size)` total)
    /// and blitted per node.
    pub fn for_bucket_level(
        graph: &Graph,
        partition: &ChangPartition,
        parts: &[Part],
        colors: &'a [Option<u64>],
        palette_size: u64,
        plan: Arc<QueryPlan>,
        phase_limit: usize,
    ) -> Self {
        let n = graph.num_nodes();
        assert_eq!(parts.len(), n);
        assert_eq!(colors.len(), n);
        let participating: Vec<bool> = (0..n)
            .map(|i| colors[i].is_none() && matches!(parts[i], Part::Bucket(_)))
            .collect();
        let words = palette::words_for(palette_size);
        let k = partition.num_buckets();
        let mut bucket_rows = vec![0u64; k * words];
        let mut bucket_counts = vec![0u32; k];
        for c in 0..palette_size {
            let b = partition.bucket_of_color(c);
            bucket_rows[b * words + (c / 64) as usize] |= 1 << (c % 64);
            bucket_counts[b] += 1;
        }
        let mut palettes = PaletteBitsets::new(n, palette_size);
        for i in 0..n {
            if let (true, Part::Bucket(b)) = (participating[i], parts[i]) {
                palettes.set_row(
                    i,
                    &bucket_rows[b * words..(b + 1) * words],
                    bucket_counts[b],
                );
            }
        }
        let active = AdjacencyArena::from_filtered(graph, |v, u| {
            participating[v.index()]
                && participating[u.index()]
                && parts[u.index()] == parts[v.index()]
        });
        FlatStageSpec {
            participating,
            palettes,
            active,
            existing_colors: colors,
            plan,
            phase_limit,
        }
    }

    /// Builds the final-stage spec of Algorithm 1: every still-uncoloured
    /// node participates with the full `{0, …, palette_size − 1}` palette,
    /// active towards its uncoloured neighbours.
    pub fn for_final_stage(
        graph: &Graph,
        colors: &'a [Option<u64>],
        palette_size: u64,
        plan: Arc<QueryPlan>,
        phase_limit: usize,
    ) -> Self {
        let n = graph.num_nodes();
        assert_eq!(colors.len(), n);
        let participating: Vec<bool> = colors.iter().map(Option::is_none).collect();
        let full_row = palette::full_row(palette_size);
        let mut palettes = PaletteBitsets::new(n, palette_size);
        for (i, &p) in participating.iter().enumerate() {
            if p {
                palettes.set_row(i, &full_row, palette_size as u32);
            }
        }
        let active = AdjacencyArena::from_filtered(graph, |v, u| {
            participating[v.index()] && participating[u.index()]
        });
        FlatStageSpec {
            participating,
            palettes,
            active,
            existing_colors: colors,
            plan,
            phase_limit,
        }
    }

    /// The stage palettes (bitset form).
    pub fn palettes(&self) -> &PaletteBitsets {
        &self.palettes
    }

    /// The active lists (CSR form).
    pub fn active(&self) -> &AdjacencyArena {
        &self.active
    }
}

/// Per-node state of the stage runtime. The spec is borrowed; the `taken`
/// bitset storage `T` is a disjoint `&mut [u64]` window of one
/// runtime-owned flat array on the synchronous paths, and an owned
/// `Vec<u64>` on the asynchronous path, whose executor may build a node more
/// than once (a reset crash rebuilds it through the factory).
struct FlatStageNode<'s, T> {
    spec: &'s FlatStageSpec<'s>,
    me: NodeId,
    own_id: u64,
    color: Option<u64>,
    /// Colours known to be taken (same width as the palette rows); the free
    /// candidates are `palette & !taken`. Exclusively owned by this node.
    taken: T,
    candidate: Option<u64>,
    conflict: bool,
    phase_limit: usize,
    failed_phases: usize,
    gave_up: bool,
    rng: StdRng,
    /// Scratch for query targets, reused across phases.
    targets: Vec<NodeId>,
}

impl<'s, T> FlatStageNode<'s, T> {
    /// Node `init.node`'s automaton for one stage run with `seed`; `taken`
    /// must be a zeroed row of the spec's palette width.
    fn new(spec: &'s FlatStageSpec<'s>, seed: u64, init: NodeInit<'_>, taken: T) -> Self {
        let i = init.node.index();
        FlatStageNode {
            spec,
            me: init.node,
            own_id: init.knowledge.own_id(),
            color: spec.existing_colors[i],
            taken,
            candidate: None,
            conflict: false,
            phase_limit: spec.phase_limit.max(1),
            failed_phases: 0,
            gave_up: false,
            rng: StdRng::seed_from_u64(seed ^ 0xa076_1d64_78bd_642fu64.wrapping_mul(i as u64 + 1)),
            targets: Vec::new(),
        }
    }
}

impl<T: AsRef<[u64]> + AsMut<[u64]>> FlatStageNode<'_, T> {
    fn mark_taken(&mut self, c: u64) {
        // Colours outside the stage domain can never be candidates, so
        // they need no bit.
        let taken = self.taken.as_mut();
        let k = (c / 64) as usize;
        if k < taken.len() {
            taken[k] |= 1 << (c % 64);
        }
    }

    fn choose_candidate(&mut self) -> Option<u64> {
        let row = self.spec.palettes.row(self.me.index());
        let taken = self.taken.as_ref();
        let free = palette::masked_count(row, taken) as usize;
        if free == 0 {
            None
        } else {
            // `gen_range` over the free count, then the r-th free colour
            // ascending.
            let r = self.rng.gen_range(0..free);
            Some(palette::masked_nth(row, taken, r as u32))
        }
    }

    fn active_row(&self) -> &[NodeId] {
        self.spec.active.row(self.me)
    }

    fn send_active(&self, ctx: &mut RoundContext<'_>, msg: &Message) {
        for &u in self.active_row() {
            ctx.send(u, *msg);
        }
    }

    fn respond_to_queries(&self, ctx: &mut RoundContext<'_>, inbox: &[Message]) {
        for msg in inbox {
            if msg.tag() != TAG_QUERY {
                continue;
            }
            let c = msg.values()[0];
            let sender_id = msg.ids()[0];
            let Some(sender) = ctx.knowledge().known_node_with_id(sender_id) else {
                continue;
            };
            let taken = u64::from(self.color == Some(c));
            ctx.send(
                sender,
                Message::tagged(TAG_RESPONSE)
                    .with_value(c)
                    .with_value(taken),
            );
        }
    }

    fn wants_color(&self) -> bool {
        self.spec.participating[self.me.index()] && self.color.is_none() && !self.gave_up
    }
}

impl<T: AsRef<[u64]> + AsMut<[u64]>> NodeAlgorithm for FlatStageNode<'_, T> {
    fn on_round(&mut self, ctx: &mut RoundContext<'_>, inbox: &[Message]) {
        match ctx.round() % 3 {
            0 => {
                // Digest FINAL announcements from the previous phase.
                for msg in inbox {
                    if msg.tag() == TAG_FINAL {
                        self.mark_taken(msg.values()[0]);
                    }
                }
                if self.wants_color() {
                    match self.choose_candidate() {
                        Some(c) => {
                            self.candidate = Some(c);
                            self.conflict = false;
                            self.send_active(ctx, &Message::tagged(TAG_PROPOSE).with_value(c));
                            let query = Message::tagged(TAG_QUERY)
                                .with_value(c)
                                .with_id(self.own_id);
                            let mut targets = std::mem::take(&mut self.targets);
                            self.spec.plan.append_targets(self.me, c, &mut targets);
                            let active = self.active_row();
                            for &u in &targets {
                                if active.binary_search(&u).is_err() {
                                    ctx.send(u, query);
                                }
                            }
                            self.targets = targets;
                        }
                        None => {
                            self.candidate = None;
                            self.failed_phases += 1;
                            if self.failed_phases >= self.phase_limit {
                                self.gave_up = true;
                            }
                        }
                    }
                }
            }
            1 => {
                // Answer queries and note same-stage proposal conflicts.
                self.respond_to_queries(ctx, inbox);
                if let Some(c) = self.candidate {
                    if inbox
                        .iter()
                        .any(|m| m.tag() == TAG_PROPOSE && m.values()[0] == c)
                    {
                        self.conflict = true;
                    }
                }
            }
            _ => {
                // Fold in query responses and decide.
                if let Some(c) = self.candidate.take() {
                    for msg in inbox {
                        if msg.tag() == TAG_RESPONSE && msg.values()[1] == 1 {
                            self.mark_taken(msg.values()[0]);
                            if msg.values()[0] == c {
                                self.conflict = true;
                            }
                        }
                    }
                    if self.conflict {
                        self.failed_phases += 1;
                        if self.failed_phases >= self.phase_limit {
                            self.gave_up = true;
                        }
                    } else {
                        self.color = Some(c);
                        self.send_active(ctx, &Message::tagged(TAG_FINAL).with_value(c));
                    }
                }
            }
        }
    }

    fn is_done(&self) -> bool {
        !self.wants_color()
    }

    fn output(&self) -> Option<u64> {
        self.color
    }
}

/// Runs one conflict-aware coloring stage and returns the updated colour of
/// every node (existing colours preserved; newly coloured participants get
/// their stage colour; participants that gave up stay `None`). The returned
/// colours are **moved** out of the report (whose `outputs` field is left
/// empty) instead of cloned.
///
/// Builds a fresh [`SyncSimulator`] per call; multi-stage callers build one
/// simulator and drive every stage through [`run_stage_flat_on`] instead.
///
/// # Panics
///
/// Panics if the stage fails to quiesce within the round limit.
pub fn run_stage_flat(
    graph: &Graph,
    ids: &IdAssignment,
    spec: &FlatStageSpec<'_>,
    seed: u64,
    config: SyncConfig,
) -> (Vec<Option<u64>>, ExecutionReport) {
    let sim = SyncSimulator::new(graph, ids, KtLevel::KT1);
    run_stage_flat_on(&sim, spec, seed, config)
}

/// [`run_stage_flat`] on a caller-built KT-1 [`SyncSimulator`] — the
/// multi-stage entry point, where one simulator drives every stage of a
/// run.
///
/// The per-node `taken` bitsets live in **one flat `n × words` array** owned
/// by this runtime; each automaton receives its row as a disjoint `&mut`
/// window (the rows are handed out in node order while the flat array is
/// zeroed, so the split is allocation- and branch-free). Stage setup
/// therefore makes no per-node allocations at all.
///
/// # Panics
///
/// Panics if the simulator is not KT-1, if the spec does not cover the
/// simulator's graph, or if the stage fails to quiesce within the round
/// limit.
pub fn run_stage_flat_on(
    sim: &SyncSimulator<'_>,
    spec: &FlatStageSpec<'_>,
    seed: u64,
    config: SyncConfig,
) -> (Vec<Option<u64>>, ExecutionReport) {
    assert_eq!(sim.level(), KtLevel::KT1, "coloring stages run in KT-1");
    let n = sim.graph().num_nodes();
    assert_eq!(spec.participating.len(), n);
    assert_eq!(spec.existing_colors.len(), n);
    assert_eq!(spec.active.num_nodes(), n);
    let words = spec.palettes.words_per_node();
    let mut taken_flat = vec![0u64; n * words];
    let mut taken_rows = taken_flat.chunks_mut(words.max(1));
    let mut report = sim.run(config, |init| {
        let taken: &mut [u64] = if words == 0 {
            Default::default()
        } else {
            taken_rows.next().expect("one taken row per node")
        };
        FlatStageNode::new(spec, seed, init, taken)
    });
    assert!(report.completed, "coloring stage did not quiesce");
    let colors = std::mem::take(&mut report.outputs);
    (colors, report)
}

/// Runs one coloring stage on the **asynchronous** executor under a fault
/// plan, via the α-synchronizer lockstep wrapper
/// ([`symbreak_congest::Synchronized`]).
///
/// The synchronous stage ([`run_stage_flat`]) runs first to fix the
/// lockstep round budget (and as ground truth); the returned triple is
/// `(synchronous colours, synchronous report, asynchronous report)`. On
/// benign, delay-only and duplicate/reorder schedules the asynchronous
/// outputs equal the synchronous colours; loss or crashes stall the run
/// (`completed == false`) instead of emitting a conflicting colouring.
///
/// Every automaton the executor builds owns a fresh zeroed `taken` row, so
/// a node rebuilt after a reset crash starts exactly like a new one.
///
/// # Panics
///
/// As [`run_stage_flat_on`].
#[allow(clippy::too_many_arguments)]
pub fn run_stage_flat_async<R: Rng + ?Sized>(
    graph: &Graph,
    ids: &IdAssignment,
    spec: &FlatStageSpec<'_>,
    seed: u64,
    sync_config: SyncConfig,
    async_config: AsyncConfig,
    fault_plan: &FaultPlan,
    rng: &mut R,
) -> (Vec<Option<u64>>, ExecutionReport, AsyncReport) {
    let (colors, sync_report) = run_stage_flat(graph, ids, spec, seed, sync_config);
    let sim = AsyncSimulator::new(graph, ids, KtLevel::KT1);
    let words = spec.palettes.words_per_node();
    let report = run_synchronized(
        &sim,
        async_config,
        fault_plan,
        sync_report.rounds,
        rng,
        |init| FlatStageNode::new(spec, seed, init, vec![0u64; words]),
    );
    (colors, sync_report, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbreak_graphs::generators;
    use symbreak_ktrand::SharedRandomness;

    fn empty_plan(graph: &Graph, ids: &IdAssignment) -> Arc<QueryPlan> {
        Arc::new(QueryPlan::new(graph, ids, Vec::new()))
    }

    #[test]
    fn flat_stage_colors_whole_graph_like_johansson() {
        let g = generators::clique(12);
        let ids = IdAssignment::identity(12);
        let colors_in = vec![None; 12];
        let spec = FlatStageSpec::for_final_stage(&g, &colors_in, 12, empty_plan(&g, &ids), 200);
        let (colors, report) = run_stage_flat(&g, &ids, &spec, 3, SyncConfig::default());
        assert!(colors.iter().all(Option::is_some));
        for (_, u, v) in g.edges() {
            assert_ne!(colors[u.index()], colors[v.index()]);
        }
        assert!(report.completed);
    }

    #[test]
    fn queries_prevent_conflicts_with_previously_colored_neighbors() {
        // Star: the centre was coloured at "level 0"; the leaves must avoid
        // its colour purely through queries (the centre does not take part
        // and the leaves are pairwise non-adjacent, so every active list is
        // empty and no PROPOSE/FINAL traffic can save them).
        let g = generators::star(8);
        let ids = IdAssignment::identity(8);
        let shared = SharedRandomness::from_seed(9, 1024);
        // Build a history in which the centre's ID could hold any colour of
        // its bucket; to make the test deterministic we search for a colour
        // the centre could hold under the level-0 partition.
        let partition = ChangPartition::compute(&shared, 0, 8, 7);
        let centre_id = ids.id_of(NodeId(0));
        let centre_color = (0..8u64).find(|&c| partition.id_could_hold_color(centre_id, c));
        let Some(centre_color) = centre_color else {
            // The centre landed in L under this seed; nothing to test.
            return;
        };
        let mut existing = vec![None; 8];
        existing[0] = Some(centre_color);
        let plan = Arc::new(QueryPlan::new(&g, &ids, vec![partition]));
        // The palette holds the centre's colour and every smaller one plus
        // one more, so the leaves draw the centre's colour often.
        let palette_size = centre_color + 2;
        let spec = FlatStageSpec::for_final_stage(&g, &existing, palette_size, plan, 100);
        assert_eq!(spec.active().total_len(), 0);
        let mut retried = false;
        for seed in 0..8 {
            let (colors, report) = run_stage_flat(&g, &ids, &spec, seed, SyncConfig::default());
            assert_eq!(colors[0], Some(centre_color));
            for leaf in 1..8 {
                let color = colors[leaf].expect("every leaf is coloured");
                assert!(color < palette_size, "leaf {leaf}");
                assert_ne!(color, centre_color, "leaf {leaf}, seed {seed}");
            }
            // Queries were actually sent (leaves had to ask the centre).
            assert!(report.messages > 0);
            // A second phase means some leaf drew the centre's colour and
            // learned from a query response that it was taken.
            retried |= report.rounds > 3;
        }
        assert!(retried, "no leaf ever drew the centre's colour");
    }

    #[test]
    fn empty_palette_participants_give_up_gracefully() {
        let g = generators::path(2);
        let ids = IdAssignment::identity(2);
        let colors_in = vec![None, None];
        // palette_size 0: participants have empty palettes.
        let spec = FlatStageSpec::for_final_stage(&g, &colors_in, 0, empty_plan(&g, &ids), 3);
        let (colors, report) = run_stage_flat(&g, &ids, &spec, 1, SyncConfig::default());
        assert_eq!(colors, vec![None, None]);
        assert!(report.completed);
    }
}
