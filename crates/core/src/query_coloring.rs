//! The query side of the conflict-aware list-coloring stage shared by
//! Algorithm 1's steps: the stage's message tags and [`QueryPlan`], its
//! query-target oracle. The stage runtime itself is
//! [`crate::stage_flat`].
//!
//! Algorithm 1 colours the buckets `B_1, …, B_k` and later the leftover set
//! `L` with a Johansson-style randomized list coloring. Two kinds of
//! conflicts must be avoided:
//!
//! 1. conflicts with *same-stage* neighbours — handled, exactly as in
//!    Johansson's algorithm, by exchanging `PROPOSE`/`FINAL` messages over
//!    the (sparse) same-stage edges; and
//! 2. conflicts with neighbours coloured in *earlier* stages — handled
//!    without any broadcast of colours: when a node proposes colour `c` it
//!    *queries* only those neighbours that could possibly hold `c`, namely
//!    the neighbours whose ID hashes placed them (in some earlier level) in
//!    the bucket that owns `c`. This is the same "check only the neighbours
//!    that could have chosen this colour" device the paper uses in
//!    Algorithm 2 (Lemma 3.7) and is what keeps the message count at
//!    `Õ(√Δ)` per proposal instead of `Θ(deg)`.
//!
//! Every query target is computable locally from the shared randomness and
//! the neighbours' IDs (KT-1), so no extra communication is needed to set
//! the stage up.

use symbreak_graphs::{Graph, IdAssignment, NodeId};

use crate::partition::{ChangPartition, Part};

/// Proposal of a candidate colour to same-stage neighbours.
pub const TAG_PROPOSE: u16 = 0x50;
/// Announcement of a finalised colour to same-stage neighbours.
pub const TAG_FINAL: u16 = 0x51;
/// Query "do you hold colour c?" to a possibly-conflicting neighbour.
pub const TAG_QUERY: u16 = 0x52;
/// Response to a query (value 1 = "yes, c is my colour").
pub const TAG_RESPONSE: u16 = 0x53;

/// Shared lookup structure for query targets: which neighbours of a node
/// could hold a given colour, according to the partition history.
///
/// The neighbour table is stored flat (CSR-style offsets into one
/// `(address, ID)` array, mirroring [`Graph`]'s own layout) and is built
/// **once** per algorithm run: Algorithm 1 appends each level's partition
/// with [`QueryPlan::push_level`] behind its `Arc` instead of rebuilding the
/// whole plan — and re-copying the `Θ(m)` neighbour table — every level.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// CSR offsets: `v`'s neighbour pairs occupy
    /// `neighbor_ids[offsets[v] as usize .. offsets[v + 1] as usize]`.
    offsets: Vec<u32>,
    /// The `(address, ID)` pairs of every node's neighbours (known in KT-1),
    /// flattened into one allocation.
    neighbor_ids: Vec<(NodeId, u64)>,
    /// The vertex/palette partitions of all *earlier* levels.
    history: Vec<ChangPartition>,
    /// One per-(node, bucket) neighbour index per history level; see
    /// [`LevelBucketIndex`].
    level_index: Vec<LevelBucketIndex>,
}

/// Per-level neighbour index: every neighbour entry of the CSR table,
/// grouped by the bucket its ID hashed into at that level (leftover entries
/// dropped). A proposal of colour `c` then fans out to one group lookup per
/// level — the group owning `c`'s bucket — instead of filtering the full
/// neighbour row, which on power-law hubs made every query wave `O(deg)`
/// regardless of how few neighbours could actually conflict.
///
/// Groups store **global entry indices** into `neighbor_ids`, ascending
/// within a group, so the union across levels (sorted, deduplicated) lists
/// targets in exactly the row order the full-row filter produced — message
/// order, and hence every downstream count, is unchanged.
#[derive(Debug, Clone)]
struct LevelBucketIndex {
    num_buckets: usize,
    /// `n · num_buckets + 1` CSR offsets: node `v`'s bucket-`b` group is
    /// `positions[offsets[v·k + b] as usize .. offsets[v·k + b + 1] as usize]`.
    offsets: Vec<u32>,
    /// Global neighbour-entry indices, grouped by `(node, bucket)`.
    positions: Vec<u32>,
}

impl LevelBucketIndex {
    /// Builds the index for one level by bucketing every neighbour entry of
    /// the shared CSR table (two counting passes, no per-node allocation).
    fn build(offsets: &[u32], neighbor_ids: &[(NodeId, u64)], partition: &ChangPartition) -> Self {
        let n = offsets.len() - 1;
        let k = partition.num_buckets();
        // Each node's bucket is needed once per *incidence*; hash it once
        // per node instead (the ID of node `u` is on every entry naming it).
        const UNKNOWN: u32 = u32::MAX;
        const LEFTOVER: u32 = u32::MAX - 1;
        let mut node_bucket = vec![UNKNOWN; n];
        let mut bucket_of_entry = |entry: &(NodeId, u64)| -> u32 {
            let slot = &mut node_bucket[entry.0.index()];
            if *slot == UNKNOWN {
                *slot = match partition.part_of_id(entry.1) {
                    Part::Leftover => LEFTOVER,
                    Part::Bucket(b) => b as u32,
                };
            }
            *slot
        };
        let mut group_offsets = vec![0u32; n * k + 1];
        for v in 0..n {
            for e in offsets[v] as usize..offsets[v + 1] as usize {
                let b = bucket_of_entry(&neighbor_ids[e]);
                if b != LEFTOVER {
                    group_offsets[v * k + b as usize + 1] += 1;
                }
            }
        }
        for i in 1..group_offsets.len() {
            group_offsets[i] += group_offsets[i - 1];
        }
        let mut cursors: Vec<u32> = group_offsets[..n * k].to_vec();
        let mut positions = vec![0u32; group_offsets[n * k] as usize];
        for v in 0..n {
            for e in offsets[v] as usize..offsets[v + 1] as usize {
                let b = node_bucket[neighbor_ids[e].0.index()];
                if b != LEFTOVER {
                    let cursor = &mut cursors[v * k + b as usize];
                    positions[*cursor as usize] = e as u32;
                    *cursor += 1;
                }
            }
        }
        LevelBucketIndex {
            num_buckets: k,
            offsets: group_offsets,
            positions,
        }
    }

    /// Node `v`'s neighbour entries whose ID hashed into bucket `b`.
    #[inline]
    fn group(&self, v: NodeId, b: usize) -> &[u32] {
        let base = v.index() * self.num_buckets + b;
        &self.positions[self.offsets[base] as usize..self.offsets[base + 1] as usize]
    }
}

impl QueryPlan {
    /// Builds a plan from the graph, the ID assignment and the partition
    /// history of earlier levels.
    pub fn new(graph: &Graph, ids: &IdAssignment, history: Vec<ChangPartition>) -> Self {
        let n = graph.num_nodes();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbor_ids = Vec::with_capacity(graph.degree_sum());
        offsets.push(0u32);
        for v in graph.nodes() {
            neighbor_ids.extend(graph.neighbors(v).map(|u| (u, ids.id_of(u))));
            offsets.push(neighbor_ids.len() as u32);
        }
        let level_index = history
            .iter()
            .map(|p| LevelBucketIndex::build(&offsets, &neighbor_ids, p))
            .collect();
        QueryPlan {
            offsets,
            neighbor_ids,
            history,
            level_index,
        }
    }

    /// Appends one finished level's partition to the history (and builds its
    /// per-(node, bucket) neighbour index — one `O(m)` pass, paid once per
    /// level instead of once per proposal). Algorithm 1 calls this between
    /// stages through [`std::sync::Arc::get_mut`] (the stage spec's clone of
    /// the `Arc` has been dropped by then), so the neighbour table is shared
    /// across all levels.
    pub fn push_level(&mut self, partition: ChangPartition) {
        self.level_index.push(LevelBucketIndex::build(
            &self.offsets,
            &self.neighbor_ids,
            &partition,
        ));
        self.history.push(partition);
    }

    /// The `(address, ID)` pairs of `v`'s neighbours. Algorithm 2's flat
    /// phase runtime borrows these rows directly instead of flattening the
    /// neighbour table a second time.
    #[inline]
    pub(crate) fn neighbor_row(&self, v: NodeId) -> &[(NodeId, u64)] {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        &self.neighbor_ids[lo..hi]
    }

    /// The neighbours of `v` that could hold colour `c` after the earlier
    /// levels, i.e. whose ID was hashed into the bucket owning `c` in some
    /// earlier level.
    pub fn targets(&self, v: NodeId, c: u64) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.append_targets(v, c, &mut out);
        out
    }

    /// Allocation-free variant of [`QueryPlan::targets`]: clears `out` and
    /// fills it with the targets, so per-node scratch buffers can be reused
    /// across phases.
    ///
    /// Fan-out is one bucket-group lookup per history level (the group that
    /// owns `c` at that level), not a scan of the full neighbour row; the
    /// groups' entry indices are unioned ascending, which is exactly the
    /// row order the full-row filter produced — same targets, same order,
    /// same message counts (asserted against the scan by the unit tests).
    pub fn append_targets(&self, v: NodeId, c: u64, out: &mut Vec<NodeId>) {
        out.clear();
        for (partition, index) in self.history.iter().zip(&self.level_index) {
            let b = partition.bucket_of_color(c);
            // Stash global entry indices; resolved to addresses below.
            out.extend(index.group(v, b).iter().map(|&e| NodeId(e)));
        }
        if self.level_index.len() > 1 {
            // A neighbour bucketed with c's bucket at several levels appears
            // once per level; restore the deduplicated ascending row order.
            out.sort_unstable();
            out.dedup();
        }
        for slot in out.iter_mut() {
            *slot = self.neighbor_ids[slot.index()].0;
        }
    }

    /// Number of earlier levels recorded in the plan.
    pub fn history_len(&self) -> usize {
        self.history.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbreak_graphs::generators;
    use symbreak_ktrand::SharedRandomness;

    #[test]
    fn query_plan_targets_respect_history() {
        let g = generators::clique(6);
        let ids = IdAssignment::from_vec(vec![3, 14, 15, 92, 65, 35]);
        let shared = SharedRandomness::from_seed(31, 1024);
        let p0 = ChangPartition::compute(&shared, 0, 6, 5);
        let plan = QueryPlan::new(&g, &ids, vec![p0.clone()]);
        for v in g.nodes() {
            for c in 0..6u64 {
                let targets = plan.targets(v, c);
                for u in &targets {
                    assert!(g.has_edge(v, *u));
                    assert!(p0.id_could_hold_color(ids.id_of(*u), c));
                }
                // Completeness: every neighbour that could hold c is listed.
                for u in g.neighbors(v) {
                    if p0.id_could_hold_color(ids.id_of(u), c) {
                        assert!(targets.contains(&u));
                    }
                }
            }
        }
        assert_eq!(plan.history_len(), 1);
        let empty = QueryPlan::new(&g, &ids, Vec::new());
        assert!(empty.targets(NodeId(0), 3).is_empty());
    }

    #[test]
    fn bucket_index_matches_full_row_scan() {
        // The reference semantics: filter the full neighbour row through the
        // whole history. The bucket-group index must reproduce it exactly —
        // same targets in the same order on every (node, colour) — which is
        // what keeps Algorithm 1's query fan-out (and hence its message
        // counts) unchanged. Power-law graph: the hubs are the rows the
        // index exists for.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(13);
        let g = generators::power_law(80, 3, &mut rng);
        let n = g.num_nodes();
        let ids = IdAssignment::from_vec((0..n as u64).map(|i| i * 13 + 7).collect());
        let shared = SharedRandomness::from_seed(55, 4096);
        let history: Vec<ChangPartition> = (0..3)
            .map(|l| ChangPartition::compute(&shared, l, n, g.max_degree()))
            .collect();
        // Both construction paths must agree: all-at-once and incremental.
        let full = QueryPlan::new(&g, &ids, history.clone());
        let mut incremental = QueryPlan::new(&g, &ids, Vec::new());
        for p in &history {
            incremental.push_level(p.clone());
        }
        for v in g.nodes() {
            for c in 0..=g.max_degree() as u64 {
                let scan: Vec<NodeId> = g
                    .neighbors(v)
                    .filter(|u| {
                        history
                            .iter()
                            .any(|p| p.id_could_hold_color(ids.id_of(*u), c))
                    })
                    .collect();
                assert_eq!(full.targets(v, c), scan, "v={v} c={c}");
                assert_eq!(incremental.targets(v, c), scan, "v={v} c={c}");
            }
        }
    }
}
