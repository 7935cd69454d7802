//! Vertex-coloring algorithms: verification, Johansson's randomized list
//! coloring, and the Θ(m)-message distributed baseline.

pub mod verify {
    //! Coloring solution checkers.

    use symbreak_graphs::Graph;

    /// Whether every node is coloured and no edge is monochromatic.
    pub fn is_proper_coloring(graph: &Graph, colors: &[Option<u64>]) -> bool {
        assert_eq!(
            colors.len(),
            graph.num_nodes(),
            "one colour per node required"
        );
        colors.iter().all(Option::is_some)
            && graph
                .edges()
                .all(|(_, u, v)| colors[u.index()] != colors[v.index()])
    }

    /// Whether the coloring uses only colours `< bound` (e.g. `Δ + 1` or
    /// `(1 + ε)Δ`).
    pub fn uses_colors_below(colors: &[Option<u64>], bound: u64) -> bool {
        colors.iter().flatten().all(|&c| c < bound)
    }

    /// Whether each node's colour belongs to its list (list-coloring).
    pub fn respects_lists(colors: &[Option<u64>], lists: &[Vec<u64>]) -> bool {
        assert_eq!(colors.len(), lists.len(), "one list per node required");
        colors
            .iter()
            .zip(lists)
            .all(|(c, list)| c.map(|c| list.contains(&c)).unwrap_or(false))
    }
}

pub mod palette {
    //! Fixed-width bitset palettes.
    //!
    //! Every coloring stage in the workspace draws colours from a bounded
    //! domain `0..domain` (at most `(1+ε)Δ + 1` colours), so a per-node
    //! palette fits in `⌈domain/64⌉` machine words. Compared to per-node
    //! `Vec<u64>` colour lists this makes
    //!
    //! * striking a colour (`FINAL` digestion) an O(1) bit clear instead of
    //!   a linear scan + `Vec` removal, and
    //! * drawing a uniformly random *free* colour an O(words) select instead
    //!   of materialising a filtered `Vec` per phase.
    //!
    //! Bit order is colour order: the `r`-th set bit (ascending) of a row is
    //! the `r`-th smallest colour, so a flat draw visits colours in exactly
    //! the order a sorted, duplicate-free colour list would.

    /// Number of 64-bit words covering the colour domain `0..domain`.
    pub fn words_for(domain: u64) -> usize {
        (domain as usize).div_ceil(64).max(1)
    }

    /// The full palette `{0, …, domain − 1}` as one bitset row of
    /// [`words_for`]`(domain)` words — the template the flat builders blit
    /// into every participant's row.
    pub fn full_row(domain: u64) -> Vec<u64> {
        let mut row = vec![0u64; words_for(domain)];
        for c in 0..domain {
            row[(c / 64) as usize] |= 1 << (c % 64);
        }
        row
    }

    /// Selects the `r`-th (0-based, ascending) set bit of `words`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `r + 1` bits are set.
    pub fn nth_set_bit(words: &[u64], mut r: u32) -> u64 {
        for (k, &w) in words.iter().enumerate() {
            let ones = w.count_ones();
            if r < ones {
                let mut w = w;
                for _ in 0..r {
                    w &= w - 1; // clear lowest set bit
                }
                return (k as u64) * 64 + w.trailing_zeros() as u64;
            }
            r -= ones;
        }
        panic!("nth_set_bit: fewer than r+1 bits set");
    }

    /// Popcount of `palette & !excluded` (the free colours).
    pub fn masked_count(palette: &[u64], excluded: &[u64]) -> u32 {
        palette
            .iter()
            .zip(excluded)
            .map(|(&p, &x)| (p & !x).count_ones())
            .sum()
    }

    /// The `r`-th (ascending) colour of `palette & !excluded`.
    pub fn masked_nth(palette: &[u64], excluded: &[u64], r: u32) -> u64 {
        let mut rr = r;
        for (k, (&p, &x)) in palette.iter().zip(excluded).enumerate() {
            let mut w = p & !x;
            let ones = w.count_ones();
            if rr < ones {
                for _ in 0..rr {
                    w &= w - 1;
                }
                return (k as u64) * 64 + w.trailing_zeros() as u64;
            }
            rr -= ones;
        }
        panic!("masked_nth: fewer than r+1 free colours");
    }

    /// Bitset palettes of all `n` nodes of a stage, stored as one flat word
    /// array (`n · words_per_node` words) plus per-node popcounts.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct PaletteBitsets {
        domain: u64,
        words: usize,
        bits: Vec<u64>,
        counts: Vec<u32>,
    }

    impl PaletteBitsets {
        /// `n` empty palettes over the domain `0..domain`.
        pub fn new(n: usize, domain: u64) -> Self {
            let words = words_for(domain);
            PaletteBitsets {
                domain,
                words,
                bits: vec![0; n * words],
                counts: vec![0; n],
            }
        }

        /// Builds palettes from per-node colour lists. The domain is the
        /// largest listed colour plus one; duplicates collapse.
        pub fn from_lists(lists: &[Vec<u64>]) -> Self {
            let domain = lists
                .iter()
                .flatten()
                .copied()
                .max()
                .map_or(1, |max| max + 1);
            let mut palettes = Self::new(lists.len(), domain);
            for (v, list) in lists.iter().enumerate() {
                for &c in list {
                    palettes.insert(v, c);
                }
            }
            palettes
        }

        /// The colour-domain bound (colours are `< domain`).
        pub fn domain(&self) -> u64 {
            self.domain
        }

        /// Words per node row.
        pub fn words_per_node(&self) -> usize {
            self.words
        }

        /// Node `v`'s palette words.
        #[inline]
        pub fn row(&self, v: usize) -> &[u64] {
            &self.bits[v * self.words..(v + 1) * self.words]
        }

        /// Number of colours in node `v`'s palette.
        #[inline]
        pub fn count(&self, v: usize) -> u32 {
            self.counts[v]
        }

        /// Adds colour `c` to node `v`'s palette.
        ///
        /// # Panics
        ///
        /// Panics if `c` is outside the domain.
        pub fn insert(&mut self, v: usize, c: u64) {
            assert!(c < self.domain, "colour {c} outside domain {}", self.domain);
            let word = &mut self.bits[v * self.words + (c / 64) as usize];
            let mask = 1u64 << (c % 64);
            if *word & mask == 0 {
                *word |= mask;
                self.counts[v] += 1;
            }
        }

        /// Copies a precomputed row (e.g. one bucket's shared palette) into
        /// node `v`'s row — the single-counting-pass builders compute each
        /// distinct palette once and blit it per node.
        pub fn set_row(&mut self, v: usize, row: &[u64], count: u32) {
            assert_eq!(row.len(), self.words);
            self.bits[v * self.words..(v + 1) * self.words].copy_from_slice(row);
            self.counts[v] = count;
        }

        /// Whether colour `c` is in node `v`'s palette.
        #[inline]
        pub fn contains(&self, v: usize, c: u64) -> bool {
            c < self.domain && (self.bits[v * self.words + (c / 64) as usize] >> (c % 64)) & 1 == 1
        }
    }

    /// One node's mutable palette: the bitset row plus a live colour count.
    /// [`NodePalette::remove`] strikes a colour in O(1).
    #[derive(Debug, Clone)]
    pub struct NodePalette {
        words: Vec<u64>,
        len: u32,
    }

    impl NodePalette {
        /// Copies a row out of a [`PaletteBitsets`].
        pub fn from_row(row: &[u64], count: u32) -> Self {
            NodePalette {
                words: row.to_vec(),
                len: count,
            }
        }

        /// Number of colours currently in the palette.
        pub fn len(&self) -> usize {
            self.len as usize
        }

        /// Whether the palette is empty.
        pub fn is_empty(&self) -> bool {
            self.len == 0
        }

        /// Strikes colour `c` (no-op when absent or out of domain).
        pub fn remove(&mut self, c: u64) {
            let k = (c / 64) as usize;
            if k >= self.words.len() {
                return;
            }
            let mask = 1u64 << (c % 64);
            if self.words[k] & mask != 0 {
                self.words[k] &= !mask;
                self.len -= 1;
            }
        }

        /// The `r`-th smallest colour of the palette.
        pub fn nth(&self, r: usize) -> u64 {
            nth_set_bit(&self.words, r as u32)
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn bitsets_mirror_lists() {
            let lists = vec![vec![0, 3, 64, 130], vec![], vec![5]];
            let p = PaletteBitsets::from_lists(&lists);
            assert_eq!(p.domain(), 131);
            assert_eq!(p.words_per_node(), 3);
            for (v, list) in lists.iter().enumerate() {
                assert_eq!(p.count(v) as usize, list.len());
                for c in 0..140u64 {
                    assert_eq!(p.contains(v, c), list.contains(&c), "v={v} c={c}");
                }
                for (r, &c) in list.iter().enumerate() {
                    assert_eq!(nth_set_bit(p.row(v), r as u32), c);
                }
            }
        }

        #[test]
        fn masked_draw_skips_excluded_colors() {
            let lists = vec![vec![1, 2, 5, 66, 70]];
            let p = PaletteBitsets::from_lists(&lists);
            let mut excluded = vec![0u64; p.words_per_node()];
            excluded[0] |= 1 << 2; // strike colour 2
            excluded[1] |= 1 << (66 - 64); // strike colour 66
            assert_eq!(masked_count(p.row(0), &excluded), 3);
            assert_eq!(masked_nth(p.row(0), &excluded, 0), 1);
            assert_eq!(masked_nth(p.row(0), &excluded, 1), 5);
            assert_eq!(masked_nth(p.row(0), &excluded, 2), 70);
        }

        #[test]
        fn node_palette_removal_is_exact() {
            let p = PaletteBitsets::from_lists(&[vec![0, 1, 2, 3]]);
            let mut np = NodePalette::from_row(p.row(0), p.count(0));
            assert_eq!(np.len(), 4);
            np.remove(1);
            np.remove(1); // double strike is a no-op
            np.remove(99); // out of domain is a no-op
            assert_eq!(np.len(), 3);
            assert_eq!(np.nth(0), 0);
            assert_eq!(np.nth(1), 2);
            assert_eq!(np.nth(2), 3);
            assert!(!np.is_empty());
        }
    }
}

pub mod johansson {
    //! Johansson's randomized (deg+1)-list-coloring as a CONGEST automaton.
    //!
    //! In each phase an uncoloured node proposes a uniformly random colour
    //! from its current palette and keeps it if no active neighbour proposed
    //! or already holds the same colour; finalised colours are announced so
    //! that neighbours strike them from their palettes. The algorithm
    //! terminates in `O(log n)` phases w.h.p. and exchanges `O(1)` messages
    //! per active edge per phase, which is exactly the behaviour Algorithm 1
    //! relies on when colouring each part `B_i` (Step 3) and the leftover
    //! set `L` (Step 5).
    //!
    //! [`run_flat`] runs an instance held as a [`FlatListColoring`]:
    //! palettes as fixed-width bitsets ([`super::palette`]) and active lists
    //! in one CSR arena, borrowed (not cloned) into the nodes. Build one with
    //! [`FlatListColoring::delta_plus_one`], or from per-node colour lists
    //! with [`FlatListColoring::new`], which checks the `(deg+1)`
    //! precondition.

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use symbreak_congest::{
        ExecutionReport, KtLevel, Message, NodeAlgorithm, RoundContext, SyncConfig, SyncSimulator,
    };
    use symbreak_graphs::{AdjacencyArena, Graph, IdAssignment, NodeId};

    /// Proposal of a candidate colour.
    pub const TAG_PROPOSE: u16 = 0x40;
    /// Announcement of a finalised colour.
    pub const TAG_FINAL: u16 = 0x41;

    /// A list-coloring instance: bitset palettes plus one CSR arena of
    /// active lists.
    #[derive(Debug, Clone)]
    pub struct FlatListColoring {
        participating: Vec<bool>,
        palettes: super::palette::PaletteBitsets,
        active: AdjacencyArena,
    }

    impl FlatListColoring {
        /// The classic (Δ+1)-coloring instance, built in a single counting
        /// pass: one full-palette template row blitted per node and the
        /// graph's own CSR rows as active lists.
        pub fn delta_plus_one(graph: &Graph) -> Self {
            let n = graph.num_nodes();
            let domain = graph.max_degree() as u64 + 1;
            let template = super::palette::full_row(domain);
            let mut palettes = super::palette::PaletteBitsets::new(n, domain);
            for v in 0..n {
                palettes.set_row(v, &template, domain as u32);
            }
            FlatListColoring {
                participating: vec![true; n],
                palettes,
                active: AdjacencyArena::from_filtered(graph, |_, _| true),
            }
        }

        /// An instance over per-node lists: `participating[v]` says whether
        /// `v` is coloured in this run, `palettes[v]` is its colour list
        /// (duplicates collapse) and `active.row(v)` the neighbours it
        /// exchanges messages with.
        ///
        /// # Panics
        ///
        /// Panics when the three disagree on the node count, or when the
        /// instance violates the `(deg+1)`-list-coloring precondition: a
        /// participant with no more distinct colours than active
        /// participating neighbours.
        pub fn new(
            participating: Vec<bool>,
            palettes: &[Vec<u64>],
            active: AdjacencyArena,
        ) -> Self {
            assert_eq!(palettes.len(), participating.len());
            assert_eq!(active.num_nodes(), participating.len());
            let palettes = super::palette::PaletteBitsets::from_lists(palettes);
            for i in (0..participating.len()).filter(|&i| participating[i]) {
                let v = NodeId(i as u32);
                let active_deg = active
                    .row(v)
                    .iter()
                    .filter(|u| participating[u.index()])
                    .count();
                assert!(
                    palettes.count(i) as usize > active_deg,
                    "node {v} has {} distinct colours but {active_deg} active participating \
                     neighbours; (deg+1)-list-coloring needs a strictly larger palette",
                    palettes.count(i)
                );
            }
            FlatListColoring {
                participating,
                palettes,
                active,
            }
        }
    }

    struct FlatNode<'s> {
        participating: bool,
        color: Option<u64>,
        palette: super::palette::NodePalette,
        active: &'s [NodeId],
        candidate: Option<u64>,
        rng: StdRng,
    }

    impl NodeAlgorithm for FlatNode<'_> {
        fn on_round(&mut self, ctx: &mut RoundContext<'_>, inbox: &[Message]) {
            if !self.participating {
                return;
            }
            if ctx.round() % 2 == 0 {
                for msg in inbox {
                    if msg.tag() == TAG_FINAL {
                        self.palette.remove(msg.values()[0]);
                    }
                }
                if self.color.is_none() {
                    assert!(
                        !self.palette.is_empty(),
                        "palette exhausted — the list-coloring precondition was violated"
                    );
                    let idx = self.rng.gen_range(0..self.palette.len());
                    let c = self.palette.nth(idx);
                    self.candidate = Some(c);
                    ctx.send_each(self.active, Message::tagged(TAG_PROPOSE).with_value(c));
                }
            } else if self.color.is_none() {
                let c = self.candidate.expect("a candidate was proposed this phase");
                let conflict = inbox
                    .iter()
                    .any(|m| m.tag() == TAG_PROPOSE && m.values()[0] == c);
                if !conflict {
                    self.color = Some(c);
                    ctx.send_each(self.active, Message::tagged(TAG_FINAL).with_value(c));
                }
                self.candidate = None;
            }
        }

        fn is_done(&self) -> bool {
            !self.participating || self.color.is_some()
        }

        fn output(&self) -> Option<u64> {
            self.color
        }
    }

    /// Runs Johansson's list-coloring: the instance is borrowed into the
    /// nodes (per-node state is one small bitset), and the outputs are
    /// moved — not cloned — out of the report. Returns per-node colours
    /// (participants only; non-participants are `None`) and the execution
    /// report.
    ///
    /// # Panics
    ///
    /// Panics if the instance does not cover `graph`, if the run fails to
    /// terminate within the configured round limit or if a participant
    /// exhausts its palette.
    pub fn run_flat(
        graph: &Graph,
        ids: &IdAssignment,
        level: KtLevel,
        instance: &FlatListColoring,
        seed: u64,
        config: SyncConfig,
    ) -> (Vec<Option<u64>>, ExecutionReport) {
        assert_eq!(instance.participating.len(), graph.num_nodes());
        let sim = SyncSimulator::new(graph, ids, level);
        let mut report = sim.run(config, |init| {
            let i = init.node.index();
            FlatNode {
                participating: instance.participating[i],
                color: None,
                palette: super::palette::NodePalette::from_row(
                    instance.palettes.row(i),
                    instance.palettes.count(i),
                ),
                active: instance.active.row(init.node),
                candidate: None,
                rng: StdRng::seed_from_u64(seed ^ 0x517cc1b727220a95u64.wrapping_mul(i as u64 + 1)),
            }
        });
        assert!(
            report.completed,
            "Johansson list-coloring did not terminate"
        );
        let colors = std::mem::take(&mut report.outputs);
        (colors, report)
    }
}

pub mod baseline {
    //! The naive Θ(m)-message distributed (Δ+1)-coloring baseline: every node
    //! talks to *all* of its neighbours in every phase. This is the implicit
    //! Ω(m) coloring baseline of Figure 1 against which Algorithm 1 and
    //! Algorithm 2 are compared.

    use symbreak_congest::{ExecutionReport, KtLevel, SyncConfig};
    use symbreak_graphs::{Graph, IdAssignment};

    use super::johansson::{self, FlatListColoring};

    /// Runs the baseline and returns `(colors, report)`.
    pub fn run(
        graph: &Graph,
        ids: &IdAssignment,
        seed: u64,
        config: SyncConfig,
    ) -> (Vec<Option<u64>>, ExecutionReport) {
        let instance = FlatListColoring::delta_plus_one(graph);
        johansson::run_flat(graph, ids, KtLevel::KT1, &instance, seed, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use symbreak_congest::{KtLevel, SyncConfig};
    use symbreak_graphs::{generators, AdjacencyArena, IdAssignment};

    #[test]
    fn verify_checks_propriety_and_bounds() {
        let g = generators::path(3);
        let good = vec![Some(0), Some(1), Some(0)];
        let bad = vec![Some(0), Some(0), Some(1)];
        let partial = vec![Some(0), None, Some(1)];
        assert!(verify::is_proper_coloring(&g, &good));
        assert!(!verify::is_proper_coloring(&g, &bad));
        assert!(!verify::is_proper_coloring(&g, &partial));
        assert!(verify::uses_colors_below(&good, 2));
        assert!(!verify::uses_colors_below(&good, 1));
        assert!(verify::respects_lists(
            &good,
            &[vec![0], vec![1, 2], vec![0]]
        ));
        assert!(!verify::respects_lists(&good, &[vec![1], vec![1], vec![0]]));
    }

    #[test]
    fn johansson_colors_whole_graph_properly() {
        let mut rng = StdRng::seed_from_u64(2);
        for n in [15usize, 30, 60] {
            let g = generators::connected_gnp(n, 0.2, &mut rng);
            let ids = IdAssignment::identity(n);
            let instance = johansson::FlatListColoring::delta_plus_one(&g);
            let (colors, report) =
                johansson::run_flat(&g, &ids, KtLevel::KT1, &instance, 5, SyncConfig::default());
            assert!(verify::is_proper_coloring(&g, &colors), "n={n}");
            assert!(verify::uses_colors_below(
                &colors,
                g.max_degree() as u64 + 1
            ));
            assert!(report.completed);
        }
    }

    #[test]
    fn johansson_respects_restricted_palettes() {
        // Colour a cycle with per-node lists {10, 11, 12}.
        let g = generators::cycle(9);
        let ids = IdAssignment::identity(9);
        let lists: Vec<Vec<u64>> = vec![vec![10, 11, 12]; 9];
        let active = AdjacencyArena::from_filtered(&g, |_, _| true);
        let instance = johansson::FlatListColoring::new(vec![true; 9], &lists, active);
        let (colors, _) =
            johansson::run_flat(&g, &ids, KtLevel::KT1, &instance, 9, SyncConfig::default());
        assert!(verify::is_proper_coloring(&g, &colors));
        assert!(verify::respects_lists(&colors, &lists));
    }

    #[test]
    fn johansson_only_colors_participants_and_only_uses_active_edges() {
        let g = generators::clique(10);
        let ids = IdAssignment::identity(10);
        // Only even nodes participate, and they only talk to even nodes.
        let participating: Vec<bool> = (0..10).map(|i| i % 2 == 0).collect();
        let active = AdjacencyArena::from_filtered(&g, |v, u| {
            participating[u.index()] && participating[v.index()]
        });
        let palettes: Vec<Vec<u64>> = vec![(0..5).collect(); 10];
        let instance = johansson::FlatListColoring::new(participating.clone(), &palettes, active);
        let (colors, report) =
            johansson::run_flat(&g, &ids, KtLevel::KT1, &instance, 3, SyncConfig::default());
        for v in g.nodes() {
            assert_eq!(colors[v.index()].is_some(), participating[v.index()]);
        }
        // The induced subgraph on the 5 even nodes is a K5: check propriety.
        for (_, u, v) in g.edges() {
            if participating[u.index()] && participating[v.index()] {
                assert_ne!(colors[u.index()], colors[v.index()]);
            }
        }
        // Only the 5·4 = 20 directed pairs among participants ever exchange
        // messages, and each exchanges O(1) per phase.
        assert!(report.messages <= 20 * 2 * report.rounds);
    }

    #[test]
    #[should_panic(expected = "strictly larger palette")]
    fn johansson_rejects_too_small_palettes() {
        let g = generators::clique(4);
        let active = AdjacencyArena::from_filtered(&g, |_, _| true);
        let _ = johansson::FlatListColoring::new(vec![true; 4], &vec![vec![0, 1]; 4], active);
    }

    #[test]
    #[should_panic(expected = "strictly larger palette")]
    fn johansson_counts_distinct_colours_not_list_entries() {
        // One edge and the lists [0, 0]: two entries, but one colour for a
        // node with one active neighbour, so no run could ever finish.
        let g = generators::path(2);
        let active = AdjacencyArena::from_filtered(&g, |_, _| true);
        let _ = johansson::FlatListColoring::new(vec![true; 2], &vec![vec![0, 0]; 2], active);
    }

    #[test]
    fn flat_delta_plus_one_builder_matches_list_builder() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = generators::gnp(30, 0.2, &mut rng);
        let ids = IdAssignment::identity(30);
        let from_builder = johansson::FlatListColoring::delta_plus_one(&g);
        let palette: Vec<u64> = (0..=g.max_degree() as u64).collect();
        let from_lists = johansson::FlatListColoring::new(
            vec![true; 30],
            &vec![palette; 30],
            AdjacencyArena::from_filtered(&g, |_, _| true),
        );
        let (a, _) = johansson::run_flat(
            &g,
            &ids,
            KtLevel::KT1,
            &from_builder,
            5,
            SyncConfig::default(),
        );
        let (b, _) = johansson::run_flat(
            &g,
            &ids,
            KtLevel::KT1,
            &from_lists,
            5,
            SyncConfig::default(),
        );
        assert_eq!(a, b);
        assert!(verify::is_proper_coloring(&g, &a));
    }

    #[test]
    fn baseline_uses_order_m_messages() {
        let g = generators::clique(20);
        let ids = IdAssignment::identity(20);
        let (colors, report) = baseline::run(&g, &ids, 17, SyncConfig::default());
        assert!(verify::is_proper_coloring(&g, &colors));
        assert!(report.messages as usize >= g.num_edges());
    }

    #[test]
    fn coloring_on_edgeless_graph() {
        let g = generators::empty(4);
        let ids = IdAssignment::identity(4);
        let (colors, report) = baseline::run(&g, &ids, 1, SyncConfig::default());
        assert!(verify::is_proper_coloring(&g, &colors));
        assert_eq!(report.messages, 0);
    }
}
