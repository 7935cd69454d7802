//! CONGEST node identifiers drawn from a polynomial-size ID space.
//!
//! The KT-ρ CONGEST model (Section 1.4.1 of the paper) assumes each node has
//! a unique ID from a space of size polynomial in `n`. The lower bounds of
//! Section 2 construct *specific* ID assignments, while the algorithms of
//! Sections 3 and 4 only hash or compare IDs. [`IdAssignment`] separates the
//! simulator's dense node indices from these algorithm-visible IDs.
//!
//! An assignment stores its IDs twice: `ids[v]` for [`IdAssignment::id_of`]
//! and one `(id, node)` array sorted by ID, which
//! [`IdAssignment::node_with_id`] binary-searches. That is 8 + 16 bytes per
//! node (the `(u64, NodeId)` pair pads to 16), in two allocations.

use rand::Rng;

use crate::{Graph, NodeId};

/// Description of an ID space of size `n^exponent * factor` (at least `n`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdSpace {
    /// Polynomial exponent of the space size in terms of `n`.
    pub exponent: u32,
    /// Constant multiplier of the space size.
    pub factor: u64,
}

impl IdSpace {
    /// The canonical polynomial ID space of size `n³` used by default.
    pub const CUBIC: IdSpace = IdSpace {
        exponent: 3,
        factor: 1,
    };

    /// The smallest space `[0, n)` (IDs are a permutation of the indices).
    pub const MINIMAL: IdSpace = IdSpace {
        exponent: 1,
        factor: 1,
    };

    /// Size of the space for a graph with `n` nodes (saturating).
    pub fn size(&self, n: usize) -> u64 {
        (n as u64)
            .saturating_pow(self.exponent)
            .saturating_mul(self.factor)
            .max(n as u64)
    }
}

impl Default for IdSpace {
    fn default() -> Self {
        IdSpace::CUBIC
    }
}

/// A bijective assignment of algorithm-visible IDs to the nodes of a graph.
///
/// # Example
///
/// ```
/// use symbreak_graphs::{generators, IdAssignment, NodeId};
/// use rand::SeedableRng;
///
/// let g = generators::cycle(4);
/// let ids = IdAssignment::random(&g, symbreak_graphs::IdSpace::CUBIC,
///     &mut rand::rngs::StdRng::seed_from_u64(42));
/// let id0 = ids.id_of(NodeId(0));
/// assert_eq!(ids.node_with_id(id0), Some(NodeId(0)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdAssignment {
    ids: Vec<u64>,
    /// Every `(id, node)` pair, sorted by ID.
    reverse: Vec<(u64, NodeId)>,
}

impl IdAssignment {
    /// Builds an assignment from an explicit vector (`ids[v]` is the ID of
    /// node `v`).
    ///
    /// # Panics
    ///
    /// Panics if two nodes share an ID.
    pub fn from_vec(ids: Vec<u64>) -> Self {
        let mut reverse: Vec<(u64, NodeId)> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, NodeId(i as u32)))
            .collect();
        reverse.sort_unstable();
        // Name the ID whose second holder comes first in node order.
        if let Some(w) = reverse
            .windows(2)
            .filter(|w| w[0].0 == w[1].0)
            .min_by_key(|w| w[1].1)
        {
            panic!("duplicate ID {} assigned to two nodes", w[0].0);
        }
        IdAssignment { ids, reverse }
    }

    /// The identity assignment: node `v` gets ID `v`.
    pub fn identity(n: usize) -> Self {
        IdAssignment::from_vec((0..n as u64).collect())
    }

    /// Samples distinct IDs uniformly from the given [`IdSpace`].
    pub fn random<R: Rng + ?Sized>(graph: &Graph, space: IdSpace, rng: &mut R) -> Self {
        Self::random_for_n(graph.num_nodes(), space, rng)
    }

    /// Samples distinct IDs uniformly from the given space for `n` nodes.
    ///
    /// Draws one ID at a time until `n` distinct values have come up, then
    /// shuffles them. A space of at most 64 IDs per node tracks the values
    /// seen in a bitmap (at most 8 bytes per node). A larger space draws in
    /// rounds instead: each round draws exactly the missing count, then
    /// sorts and dedups. The distinct count can only reach `n` on a round's
    /// last draw, so the rounds make the same draws; few draws collide in a
    /// space that sparse, so few rounds are needed.
    pub fn random_for_n<R: Rng + ?Sized>(n: usize, space: IdSpace, rng: &mut R) -> Self {
        let size = space.size(n);
        let mut ids: Vec<u64> = Vec::with_capacity(n);
        if size <= 64 * n as u64 {
            let mut seen = vec![0u64; size.div_ceil(64) as usize];
            while ids.len() < n {
                let id = rng.gen_range(0..size);
                let (word, bit) = ((id / 64) as usize, 1 << (id % 64));
                if seen[word] & bit == 0 {
                    seen[word] |= bit;
                    ids.push(id);
                }
            }
            ids.sort_unstable();
        } else {
            while ids.len() < n {
                for _ in ids.len()..n {
                    ids.push(rng.gen_range(0..size));
                }
                ids.sort_unstable();
                ids.dedup();
            }
        }
        // Shuffle so that ID order is independent of node index order.
        for i in (1..ids.len()).rev() {
            let j = rng.gen_range(0..=i);
            ids.swap(i, j);
        }
        IdAssignment::from_vec(ids)
    }

    /// Number of nodes covered by this assignment.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the assignment covers zero nodes.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The ID of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn id_of(&self, v: NodeId) -> u64 {
        self.ids[v.index()]
    }

    /// The node carrying `id`, if any.
    pub fn node_with_id(&self, id: u64) -> Option<NodeId> {
        let i = self.reverse.binary_search_by_key(&id, |&(id, _)| id).ok()?;
        Some(self.reverse[i].1)
    }

    /// Iterates over `(node, id)` pairs in node order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (NodeId(i as u32), id))
    }

    /// Returns the underlying ID vector (indexed by node).
    pub fn as_slice(&self) -> &[u64] {
        &self.ids
    }

    /// Returns `true` if the relative order of IDs agrees between `self` and
    /// `other` for every pair of nodes, i.e. `id(u) < id(v)` in `self` iff it
    /// holds in `other`. This is the "order-equivalence" notion under which
    /// comparison-based algorithms cannot distinguish two assignments.
    pub fn order_equivalent(&self, other: &IdAssignment) -> bool {
        if self.len() != other.len() {
            return false;
        }
        let mut a: Vec<NodeId> = (0..self.len()).map(|i| NodeId(i as u32)).collect();
        let mut b = a.clone();
        a.sort_by_key(|&v| self.id_of(v));
        b.sort_by_key(|&v| other.id_of(v));
        a == b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_round_trip() {
        let ids = IdAssignment::identity(5);
        for v in 0..5u32 {
            assert_eq!(ids.id_of(NodeId(v)), v as u64);
            assert_eq!(ids.node_with_id(v as u64), Some(NodeId(v)));
        }
        assert_eq!(ids.node_with_id(99), None);
    }

    #[test]
    #[should_panic(expected = "duplicate ID 1 assigned to two nodes")]
    fn duplicate_ids_rejected() {
        let _ = IdAssignment::from_vec(vec![1, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "duplicate ID 5 assigned to two nodes")]
    fn duplicate_panic_names_the_first_repeat_in_node_order() {
        // 3 repeats at node 3, 5 already at node 2.
        let _ = IdAssignment::from_vec(vec![5, 3, 5, 3]);
    }

    #[test]
    fn node_with_id_misses_ids_outside_and_between() {
        let ids = IdAssignment::from_vec(vec![40, 10, 30, 20]);
        for (v, id) in [(1, 10), (3, 20), (2, 30), (0, 40)] {
            assert_eq!(ids.node_with_id(id), Some(NodeId(v)));
        }
        for id in [0, 9, 11, 25, 39, 41, u64::MAX] {
            assert_eq!(ids.node_with_id(id), None, "id {id}");
        }
        assert_eq!(IdAssignment::identity(0).node_with_id(0), None);
    }

    /// The sampler as it was before the sorted-array rewrite: one draw at a
    /// time into a `BTreeSet` until it holds `n` IDs, then a shuffle.
    fn btree_random_for_n(n: usize, space: IdSpace, rng: &mut StdRng) -> Vec<u64> {
        let size = space.size(n);
        let mut chosen = std::collections::BTreeSet::new();
        while chosen.len() < n {
            chosen.insert(rng.gen_range(0..size));
        }
        let mut ids: Vec<u64> = chosen.into_iter().collect();
        for i in (1..ids.len()).rev() {
            let j = rng.gen_range(0..=i);
            ids.swap(i, j);
        }
        ids
    }

    #[test]
    fn random_for_n_matches_the_btree_sampler() {
        // 64 IDs per node is the largest bitmap-tracked space, 65 the
        // smallest one drawn in rounds.
        let edge = |factor| IdSpace {
            exponent: 1,
            factor,
        };
        for space in [IdSpace::MINIMAL, edge(64), edge(65), IdSpace::CUBIC] {
            for n in [0, 1, 2, 10, 257, 5000] {
                for seed in [1, 7, 2021] {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut reference = StdRng::seed_from_u64(seed);
                    let ids = IdAssignment::random_for_n(n, space, &mut rng);
                    let expected = btree_random_for_n(n, space, &mut reference);
                    assert_eq!(ids.as_slice(), &expected[..], "{space:?} n={n} seed={seed}");
                    // Both consumed the same draws.
                    assert_eq!(rng.gen::<u64>(), reference.gen::<u64>());
                    for (v, id) in ids.iter() {
                        assert_eq!(ids.node_with_id(id), Some(v));
                    }
                }
            }
        }
    }

    #[test]
    fn random_ids_are_distinct_and_in_space() {
        let g = generators::clique(40);
        let mut rng = StdRng::seed_from_u64(9);
        let ids = IdAssignment::random(&g, IdSpace::CUBIC, &mut rng);
        assert_eq!(ids.len(), 40);
        let space = IdSpace::CUBIC.size(40);
        let mut seen = std::collections::BTreeSet::new();
        for (_, id) in ids.iter() {
            assert!(id < space);
            assert!(seen.insert(id));
        }
    }

    #[test]
    fn minimal_space_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(1);
        let ids = IdAssignment::random_for_n(10, IdSpace::MINIMAL, &mut rng);
        let mut values: Vec<u64> = ids.iter().map(|(_, id)| id).collect();
        values.sort_unstable();
        assert_eq!(values, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn order_equivalence() {
        let a = IdAssignment::from_vec(vec![10, 20, 30]);
        let b = IdAssignment::from_vec(vec![1, 5, 9]);
        let c = IdAssignment::from_vec(vec![5, 1, 9]);
        assert!(a.order_equivalent(&b));
        assert!(!a.order_equivalent(&c));
        assert!(!a.order_equivalent(&IdAssignment::identity(2)));
    }

    #[test]
    fn id_space_sizes() {
        assert_eq!(IdSpace::CUBIC.size(10), 1000);
        assert_eq!(IdSpace::MINIMAL.size(10), 10);
        // Saturating arithmetic: huge spaces do not panic and stay at least n.
        let big = IdSpace {
            exponent: 10,
            factor: 1000,
        };
        assert!(big.size(1_000_000) >= 1_000_000);
    }
}
