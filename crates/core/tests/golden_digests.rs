//! Golden digests of every algorithm's observable behaviour.
//!
//! Each digest is a 64-bit FNV-1a fold of one run's outputs (colours or MIS
//! membership) and of every per-phase cost entry (label, simulated and
//! charged messages and rounds). The grid is G(64, ½), G(128, ½), a
//! connected random 8-regular graph with n = 2048, sparse G(90, 0.3), dense
//! G(60, 0.8) and a power-law graph with n = 120, two seeds each, run
//! through the sequential `run` entry points of Algorithms 1–3 and the Luby
//! and Johansson baselines. The `run_batch` of Algorithms 1 and 2 runs every
//! seed through the same per-seed body as `run`, so these constants pin it
//! too (`batch_equivalence.rs` checks it seed by seed).
//!
//! Algorithm 2's colour-trial phases are also pinned on the asynchronous
//! executor (`run_phases_async`, through the lockstep wrapper), on the fault
//! matrix's small-world graph under its duplicate/reorder plan and its
//! crash-with-reset-recovery plan: the reset node's answers show up in both
//! reports.
//!
//! These digests are the oracle of the stage runtime: they pin every
//! refactor of it to bit-identical behaviour. The simulator configuration
//! comes from the environment (`CONGEST_THREADS`, `CONGEST_AUDIT`), so the
//! same constants also hold at every thread count and under the auditor.
//! If a change is *meant* to alter behaviour, the failure message prints
//! the new digest to paste in.

use rand::rngs::StdRng;
use rand::SeedableRng;
use symbreak_classic::{coloring, mis};
use symbreak_congest::async_sim::{AsyncConfig, AsyncReport};
use symbreak_congest::{
    CostAccount, CrashFault, EdgeProb, ExecutionReport, FaultPlan, Recovery, SyncConfig,
};
use symbreak_core::{alg1_coloring, alg2_coloring, alg3_mis, Alg1Config, Alg2Config, Alg3Config};
use symbreak_graphs::{generators, properties, Graph, IdAssignment, IdSpace};
use symbreak_ktrand::SharedRandomness;

/// FNV-1a over little-endian words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn colors(mut self, colors: &[Option<u64>]) -> Self {
        self.u64(colors.len() as u64);
        for c in colors {
            self.u64(c.unwrap_or(u64::MAX));
        }
        self
    }

    fn membership(mut self, in_set: &[bool]) -> Self {
        self.u64(in_set.len() as u64);
        for &b in in_set {
            self.bytes(&[u8::from(b)]);
        }
        self
    }

    fn costs(mut self, costs: &CostAccount) -> Self {
        for (label, c) in costs.phases() {
            self.u64(label.len() as u64);
            self.bytes(label.as_bytes());
            self.u64(c.simulated_messages);
            self.u64(c.simulated_rounds);
            self.u64(c.charged_messages);
            self.u64(c.charged_rounds);
        }
        self
    }

    fn sync_report(mut self, report: &ExecutionReport) -> Self {
        self.u64(u64::from(report.completed));
        self.u64(report.rounds);
        self.u64(report.messages);
        self.u64(u64::from(report.max_message_bits));
        self.colors(&report.outputs)
    }

    fn async_report(mut self, report: &AsyncReport) -> Self {
        self.u64(u64::from(report.completed));
        self.u64(report.time);
        self.u64(report.messages);
        self.u64(u64::from(report.max_message_bits));
        let f = &report.faults;
        for x in [
            f.delivered,
            f.dropped,
            f.duplicated,
            f.crash_dropped,
            f.crashes,
            f.recoveries,
            f.rejoin_pulses,
            f.replayed,
        ] {
            self.u64(x);
        }
        self.colors(&report.outputs)
    }
}

/// One cell of the grid: a named graph, its IDs and the seed of the runs.
struct Cell {
    name: &'static str,
    seed: u64,
    graph: Graph,
    ids: IdAssignment,
}

fn grid() -> Vec<Cell> {
    let mut cells = Vec::new();
    for seed in [1u64, 2] {
        for (name, n) in [("gnp64", 64), ("gnp128", 128)] {
            let mut rng = StdRng::seed_from_u64(seed * 1000 + n as u64);
            let graph = generators::connected_gnp(n, 0.5, &mut rng);
            let ids = IdAssignment::random(&graph, IdSpace::CUBIC, &mut rng);
            cells.push(Cell {
                name,
                seed,
                graph,
                ids,
            });
        }
        let graph = (0..)
            .map(|k| {
                let mut rng = StdRng::seed_from_u64(seed * 1000 + 8 + k);
                generators::random_near_regular(2048, 8, &mut rng)
            })
            .find(properties::is_connected)
            .expect("a connected near-regular draw exists");
        let ids = IdAssignment::random(
            &graph,
            IdSpace::CUBIC,
            &mut StdRng::seed_from_u64(seed * 1000 + 7),
        );
        cells.push(Cell {
            name: "regular8_2048",
            seed,
            graph,
            ids,
        });
    }
    // Sparse G(90, 0.3), dense G(60, 0.8) and a power-law graph with hubs,
    // drawn in that order from one generator per seed.
    for seed in [1u64, 2] {
        let mut rng = StdRng::seed_from_u64(seed);
        for name in ["gnp90", "dense60", "power_law120"] {
            let graph = match name {
                "gnp90" => generators::connected_gnp(90, 0.3, &mut rng),
                "dense60" => generators::connected_gnp(60, 0.8, &mut rng),
                _ => generators::power_law(120, 3, &mut rng),
            };
            let ids = IdAssignment::random(&graph, IdSpace::CUBIC, &mut rng);
            cells.push(Cell {
                name,
                seed,
                graph,
                ids,
            });
        }
    }
    cells
}

fn rng(cell: &Cell, salt: u64) -> StdRng {
    StdRng::seed_from_u64(cell.seed * 100 + salt)
}

/// Runs `digest` on every cell and compares it with `golden`, listing every
/// mismatch (with the digest to paste in) before failing.
fn check(algorithm: &str, golden: [u64; 12], digest: impl Fn(&Cell) -> u64) {
    let cells = grid();
    assert_eq!(cells.len(), golden.len());
    let mismatches: Vec<String> = cells
        .iter()
        .zip(golden)
        .filter_map(|(cell, want)| {
            let got = digest(cell);
            (got != want).then(|| {
                format!(
                    "{algorithm} on {}@{}: got {got:#018x}, golden {want:#018x}",
                    cell.name, cell.seed
                )
            })
        })
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

// Golden digests per algorithm, in `grid` order: seed 1 then seed 2 over
// G(64, ½), G(128, ½) and the 8-regular graph, then seed 1 then seed 2 over
// G(90, 0.3), G(60, 0.8) and the power-law graph.
const ALG1_GOLDEN: [u64; 12] = [
    0x1895_bca3_0ba8_2372,
    0xc864_2d36_2e47_f2cd,
    0x944a_3b0a_ca21_ca71,
    0x170a_db53_9535_5be2,
    0x5b03_a6d6_9ce6_126c,
    0xa329_5383_e4bc_23ad,
    0x5104_04ec_c065_a7b7,
    0xce91_0651_dd77_f618,
    0x8099_5d4c_5537_6996,
    0x4a24_6e6d_69f3_e718,
    0x2a9b_3aeb_5e8f_8483,
    0xb30f_41ad_6378_9186,
];

const ALG2_GOLDEN: [u64; 12] = [
    0xe713_47dd_f21a_4db2,
    0x3309_364a_81ea_6a44,
    0x226b_4681_6f21_a595,
    0x31b8_9976_defe_6e1c,
    0xd316_7f90_0059_b83f,
    0xb55c_0234_0830_5206,
    0x309e_cba7_38b3_231e,
    0x315e_2a51_fd55_d9c7,
    0x22b5_6a13_2dd2_f46d,
    0x8000_915c_d64f_51f5,
    0xf242_b0b1_71e5_7690,
    0x8ddb_db8b_9362_0d91,
];

const ALG3_GOLDEN: [u64; 12] = [
    0x490a_d949_a56e_abe5,
    0x879b_66ae_e50d_c2ca,
    0x94a7_7c05_da13_b771,
    0xdf0d_741d_1c6d_1513,
    0x88e0_14e5_5228_661e,
    0xfa86_cb91_2cd9_132f,
    0xa28f_a571_8282_eda0,
    0xe634_5cb4_cee7_1af3,
    0xcc48_1a8c_f726_e2ff,
    0x4ae2_43e4_8c56_897f,
    0xe794_7790_7fc9_dc82,
    0x19dc_fcbd_fd59_2049,
];

const LUBY_GOLDEN: [u64; 12] = [
    0xc52f_db8e_6c1a_4a42,
    0x0daa_1bde_c72e_2abe,
    0x3d09_14f8_8691_7627,
    0x0cf7_1e27_7770_ccdc,
    0x9b11_edb1_c467_9e74,
    0x399d_80b7_3206_2273,
    0x1220_ceb1_f5e3_f484,
    0xda05_f3b8_412b_f76f,
    0x68ad_24cb_04f7_fac9,
    0xaeab_d369_e2ff_b3bd,
    0x98e0_0648_ba1a_8910,
    0xd98b_b6de_6a02_76eb,
];

const JOHANSSON_GOLDEN: [u64; 12] = [
    0xe291_8488_b728_cbad,
    0xd6bb_c504_6c2f_a747,
    0x906a_90f2_cc93_3f1d,
    0xaa0f_cede_6c34_096b,
    0x5d0b_735b_a4a0_6ff9,
    0xa294_7b2c_b875_f992,
    0xb840_d60b_16b5_6766,
    0x75ee_c999_1512_7bac,
    0x7b46_7c6a_8a6a_f9e9,
    0x817e_fe3c_b238_d93e,
    0x6c7e_dd9a_8b2d_8b20,
    0x4e3b_dfca_3c44_4708,
];

#[test]
fn alg1_matches_golden_digests() {
    check("alg1", ALG1_GOLDEN, |cell| {
        let out = alg1_coloring::run(
            &cell.graph,
            &cell.ids,
            Alg1Config::default(),
            &mut rng(cell, 1),
        )
        .expect("alg1 runs");
        let mut d = Digest::new().colors(&out.colors).costs(&out.costs);
        d.u64(out.levels_used as u64);
        d.0
    });
}

#[test]
fn alg2_matches_golden_digests() {
    let config = Alg2Config {
        epsilon: 0.5,
        ..Alg2Config::default()
    };
    check("alg2", ALG2_GOLDEN, |cell| {
        let out = alg2_coloring::run(&cell.graph, &cell.ids, config, &mut rng(cell, 2))
            .expect("alg2 runs");
        let mut d = Digest::new().colors(&out.colors).costs(&out.costs);
        d.u64(out.palette_size);
        d.0
    });
}

#[test]
fn alg3_matches_golden_digests() {
    check("alg3", ALG3_GOLDEN, |cell| {
        let out = alg3_mis::run(
            &cell.graph,
            &cell.ids,
            Alg3Config::default(),
            &mut rng(cell, 3),
        )
        .expect("alg3 runs");
        let mut d = Digest::new().membership(&out.in_mis).costs(&out.costs);
        d.u64(out.sampled as u64);
        d.u64(out.remnant_max_degree as u64);
        d.0
    });
}

#[test]
fn luby_matches_golden_digests() {
    check("luby", LUBY_GOLDEN, |cell| {
        let (in_mis, report) = mis::luby::run(
            &cell.graph,
            &cell.ids,
            cell.seed * 100 + 4,
            SyncConfig::default(),
        );
        let mut costs = CostAccount::new();
        costs.charge_report("luby", &report);
        Digest::new().membership(&in_mis).costs(&costs).0
    });
}

#[test]
fn johansson_matches_golden_digests() {
    check("johansson", JOHANSSON_GOLDEN, |cell| {
        let (colors, report) = coloring::baseline::run(
            &cell.graph,
            &cell.ids,
            cell.seed * 100 + 5,
            SyncConfig::default(),
        );
        let mut costs = CostAccount::new();
        costs.charge_report("johansson", &report);
        Digest::new().colors(&colors).costs(&costs).0
    });
}

/// Asynchronous Algorithm 2 under faults: the fault matrix's alg2 cells
/// (its `small_world(24, 3, 0.15)` graph, palette, phase budget, async
/// configuration and default per-class seeds) under the duplicate/reorder
/// plan and the crash-with-reset-recovery plan of its max-degree node.
/// Each digest folds the synchronous colours and both reports.
const ALG2_ASYNC_GOLDEN: [(&str, u64); 2] = [
    ("dup-reorder", 0x5a67_0f6f_de38_113b),
    ("crash-recovery", 0x4c90_8295_c270_e8d1),
];

#[test]
fn alg2_async_under_faults_matches_golden_digests() {
    let graph = generators::small_world(24, 3, 0.15, &mut StdRng::seed_from_u64(21));
    let ids = IdAssignment::identity(24);
    let palette_size = graph.max_degree() as u64 * 3 / 2 + 1;
    let crash_node = graph
        .nodes()
        .max_by_key(|&v| graph.degree(v))
        .expect("non-empty graph");
    let async_config = AsyncConfig {
        max_delay: 5,
        max_time: 20_000,
        message_bit_limit: 512,
    };
    // Class indices 4 and 6 of the matrix's base seed.
    let cells = [
        (
            4u64,
            FaultPlan::default()
                .with_duplicate(EdgeProb::uniform(0.3))
                .with_reorder(0.3),
        ),
        (
            6,
            FaultPlan::default().with_crash(CrashFault {
                node: crash_node,
                at: 2,
                recovery: Some((30, Recovery::Reset)),
            }),
        ),
    ];
    let mismatches: Vec<String> = cells
        .iter()
        .zip(ALG2_ASYNC_GOLDEN)
        .filter_map(|((ci, plan), (class, want))| {
            let seed = 0xC0FF_EE42 ^ 0x4_0000 ^ ci << 8;
            let shared = SharedRandomness::from_seed(0x5EED ^ seed, 1 << 14);
            let (colors, sync_report, async_report) = alg2_coloring::run_phases_async(
                &graph,
                &ids,
                &shared,
                palette_size,
                64,
                async_config,
                plan,
                &mut StdRng::seed_from_u64(seed),
            );
            let got = Digest::new()
                .colors(&colors)
                .sync_report(&sync_report)
                .async_report(&async_report)
                .0;
            (got != want)
                .then(|| format!("alg2-async/{class}: got {got:#018x}, golden {want:#018x}"))
        })
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
