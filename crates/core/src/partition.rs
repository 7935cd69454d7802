//! The Chang–Fischer–Ghaffari–Uitto–Zheng graph/palette partition (Section
//! 3.1), computed from shared randomness with `Θ(log n)`-wise independence.
//!
//! The whole point of the paper's Algorithm 1 is that — because every node
//! knows its neighbours' IDs (KT-1) and everyone holds the same broadcast
//! seed — every node can evaluate the partition hash functions *on its
//! neighbours* locally, so no state exchange is needed to learn which
//! incident edges become inactive. [`ChangPartition::compute`] mirrors that
//! local computation centrally (zero messages) and is queried through the ID
//! of a node, exactly as a simulated node would.

use symbreak_graphs::{IdAssignment, NodeId};
use symbreak_ktrand::{tail, KWiseHash, SharedRandomness};

/// Which part a node lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    /// The leftover set `L`, to be handled recursively.
    Leftover,
    /// One of the `k = ⌈√Δ⌉` buckets `B_1, …, B_k` (0-based index).
    Bucket(usize),
}

/// One level of the vertex/palette partition.
///
/// The partition is a pure function of the shared randomness, the level
/// index and a node's ID (or a colour value), so any node that knows an ID
/// can evaluate it without communication.
#[derive(Debug, Clone)]
pub struct ChangPartition {
    level: usize,
    num_buckets: usize,
    leftover_threshold: u64,
    h_leftover: KWiseHash,
    h_bucket: KWiseHash,
    h_color: KWiseHash,
}

/// Resolution of the Bernoulli threshold used for the `L`-membership test.
const LEFTOVER_RESOLUTION: u64 = 1 << 20;

impl ChangPartition {
    /// Derives the level-`level` partition for a graph with maximum degree
    /// `max_degree` and `n` nodes from the shared randomness.
    ///
    /// The bucket count is `k = ⌈√Δ⌉` and the leftover probability is
    /// `q = min(1/2, C·√(log n) / Δ^{1/4})` as in Section 3.1.
    pub fn compute(shared: &SharedRandomness, level: usize, n: usize, max_degree: usize) -> Self {
        let delta = max_degree.max(1) as f64;
        let num_buckets = delta.sqrt().ceil().max(1.0) as usize;
        let q = (2.0 * (n.max(2) as f64).ln().sqrt() / delta.powf(0.25)).min(0.5);
        let independence = tail::log_n_independence(n);
        let h_leftover =
            shared.indexed_hash_fn("chang.leftover", level, independence, LEFTOVER_RESOLUTION);
        let h_bucket =
            shared.indexed_hash_fn("chang.bucket", level, independence, num_buckets as u64);
        let h_color =
            shared.indexed_hash_fn("chang.color", level, independence, num_buckets as u64);
        ChangPartition {
            level,
            num_buckets,
            leftover_threshold: (q * LEFTOVER_RESOLUTION as f64) as u64,
            h_leftover,
            h_bucket,
            h_color,
        }
    }

    /// The level index this partition was derived for.
    pub fn level(&self) -> usize {
        self.level
    }

    /// Number of buckets `k`.
    pub fn num_buckets(&self) -> usize {
        self.num_buckets
    }

    /// The leftover probability `q` (as a fraction).
    pub fn leftover_probability(&self) -> f64 {
        self.leftover_threshold as f64 / LEFTOVER_RESOLUTION as f64
    }

    /// The part of the node with ID `id`.
    pub fn part_of_id(&self, id: u64) -> Part {
        if self.h_leftover.eval(id) < self.leftover_threshold {
            Part::Leftover
        } else {
            Part::Bucket(self.h_bucket.eval(id) as usize)
        }
    }

    /// The bucket index the colour `c` is assigned to.
    pub fn bucket_of_color(&self, c: u64) -> usize {
        self.h_color.eval(c) as usize
    }

    /// Whether a node with ID `id` *could* end up holding colour `c` if it
    /// was coloured at this level: it must be in the bucket that owns `c`.
    pub fn id_could_hold_color(&self, id: u64, c: u64) -> bool {
        match self.part_of_id(id) {
            Part::Leftover => false,
            Part::Bucket(b) => b == self.bucket_of_color(c),
        }
    }

    /// Materialises the parts of every node of a graph under `ids` (used by
    /// the orchestrator and by tests; a simulated node only ever evaluates
    /// [`Self::part_of_id`] on IDs it knows).
    pub fn parts_for(&self, ids: &IdAssignment) -> Vec<Part> {
        (0..ids.len())
            .map(|i| self.part_of_id(ids.id_of(NodeId(i as u32))))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn partition(n: usize, delta: usize) -> ChangPartition {
        let shared = SharedRandomness::from_seed(0x5eed, 4096);
        ChangPartition::compute(&shared, 0, n, delta)
    }

    #[test]
    fn deterministic_across_copies_of_shared_randomness() {
        let a = SharedRandomness::from_seed(1234, 4096);
        let b = a.clone();
        let pa = ChangPartition::compute(&a, 0, 500, 100);
        let pb = ChangPartition::compute(&b, 0, 500, 100);
        for id in 0..2000u64 {
            assert_eq!(pa.part_of_id(id), pb.part_of_id(id));
            assert_eq!(pa.bucket_of_color(id % 101), pb.bucket_of_color(id % 101));
        }
    }

    #[test]
    fn different_levels_give_different_partitions() {
        let shared = SharedRandomness::from_seed(77, 4096);
        let p0 = ChangPartition::compute(&shared, 0, 500, 100);
        let p1 = ChangPartition::compute(&shared, 1, 500, 100);
        let differs = (0..200u64).any(|id| p0.part_of_id(id) != p1.part_of_id(id));
        assert!(differs);
    }

    #[test]
    fn bucket_count_is_sqrt_delta() {
        assert_eq!(partition(1000, 100).num_buckets(), 10);
        assert_eq!(partition(1000, 101).num_buckets(), 11);
        assert_eq!(partition(1000, 1).num_buckets(), 1);
    }

    #[test]
    fn bucket_indices_are_in_range() {
        let p = partition(1000, 400);
        for id in 0..5000u64 {
            match p.part_of_id(id) {
                Part::Leftover => {}
                Part::Bucket(b) => assert!(b < p.num_buckets()),
            }
            assert!(p.bucket_of_color(id) < p.num_buckets());
        }
    }

    #[test]
    fn leftover_fraction_tracks_q() {
        let p = partition(4096, 4096);
        let q = p.leftover_probability();
        assert!(q > 0.0 && q <= 0.5);
        let total = 20_000u64;
        let leftovers = (0..total)
            .filter(|&id| p.part_of_id(id) == Part::Leftover)
            .count() as f64;
        let expected = q * total as f64;
        assert!(
            (leftovers - expected).abs() < 0.25 * expected + 50.0,
            "observed {leftovers} leftover IDs, expected ≈ {expected}"
        );
    }

    #[test]
    fn buckets_are_roughly_balanced() {
        let p = partition(10_000, 256);
        let k = p.num_buckets();
        let mut counts = vec![0usize; k];
        let total = 16_000u64;
        for id in 0..total {
            if let Part::Bucket(b) = p.part_of_id(id) {
                counts[b] += 1;
            }
        }
        let mean = counts.iter().sum::<usize>() as f64 / k as f64;
        for (b, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - mean).abs() < 0.35 * mean,
                "bucket {b} has {c} nodes, mean {mean}"
            );
        }
    }

    #[test]
    fn palette_partition_covers_all_colors_exactly_once() {
        let p = partition(1000, 64);
        let palette_size = 65u64;
        let mut seen = vec![0usize; palette_size as usize];
        for b in 0..p.num_buckets() {
            for c in (0..palette_size).filter(|&c| p.bucket_of_color(c) == b) {
                seen[c as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&s| s == 1));
    }

    #[test]
    fn could_hold_color_is_consistent() {
        let p = partition(2000, 144);
        for id in 0..500u64 {
            for c in 0..20u64 {
                let expected = match p.part_of_id(id) {
                    Part::Leftover => false,
                    Part::Bucket(b) => b == p.bucket_of_color(c),
                };
                assert_eq!(p.id_could_hold_color(id, c), expected);
            }
        }
    }

    #[test]
    fn parts_for_matches_per_id_queries() {
        let ids = IdAssignment::from_vec(vec![10, 44, 91, 7, 2048]);
        let p = partition(100, 36);
        let parts = p.parts_for(&ids);
        for (i, part) in parts.iter().enumerate() {
            assert_eq!(*part, p.part_of_id(ids.id_of(NodeId(i as u32))));
        }
    }
}
