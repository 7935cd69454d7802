//! The traced run's per-layer probes.
//!
//! Each probe re-issues one layer's public calls on the workload's own
//! inputs, one call at a time, inside a named span. The same probes run on
//! every workload, so every workload reports every per-layer metric; the
//! table in [`crate::metrics::PER_LAYER`] says on which workload each one is
//! expected to move which end-to-end metric.

use std::hint::black_box;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use symbreak_classic::{coloring, mis};
use symbreak_congest::{CostAccount, KnowledgeView, KtLevel, SyncConfig};
use symbreak_core::partition::ChangPartition;
use symbreak_core::query_coloring::QueryPlan;
use symbreak_core::stage_flat::{run_stage_flat, FlatStageSpec};
use symbreak_core::{alg1_coloring, alg2_coloring, alg3_mis, experiments};
use symbreak_core::{Alg1Config, Alg2Config, Alg3Config, MeasurementRow};
use symbreak_danner::{ops, setup::SetupPlan};
use symbreak_graphs::{Graph, IdAssignment, NodeId};
use symbreak_ktrand::SharedRandomness;
use symbreak_lowerbounds::crossed::{CrossedFamily, Crossing};

use crate::clock::{Reference, Stopwatch};
use crate::trace::{Phase, Tracer};
use crate::workloads::{
    churn_batches, churn_pass, mix, ChurnStart, Inputs, Instance, Pass, Sizes, EPSILON,
};

/// Nodes sampled for the knowledge-query probes.
const KNOWLEDGE_SAMPLE: usize = 256;
/// Neighbours queried per sampled node.
const KNOWLEDGE_FANOUT: usize = 4;

/// Per-algorithm counts from one sequential run.
#[derive(Debug, Clone, Copy, Default)]
pub struct AlgCounts {
    /// Messages of the setup phases: the `setup/…` phases, the Δ casts and
    /// the |E(G[L])| checks.
    pub setup_msgs: u64,
    /// All other messages.
    pub stage_msgs: u64,
    /// Rounds, simulated plus charged.
    pub rounds: u64,
    /// CPU seconds of the run.
    pub secs: f64,
}

impl AlgCounts {
    fn from_costs(costs: &CostAccount, secs: f64) -> Self {
        let setup_msgs = costs
            .phases()
            .filter(|(label, _)| {
                label.starts_with("setup/")
                    || label.starts_with("Δ ")
                    || label.starts_with("|E(G[L])|")
            })
            .map(|(_, c)| c.total_messages())
            .sum();
        AlgCounts {
            setup_msgs,
            stage_msgs: costs.total_messages() - setup_msgs,
            rounds: costs.total_rounds(),
            secs,
        }
    }
}

/// Everything the probes measured, before it becomes metrics.
#[derive(Debug, Clone, Default)]
pub struct Probed {
    /// alg1, alg2, alg3, Luby, Johansson.
    pub algs: [AlgCounts; 5],
    /// Partition levels alg1 entered.
    pub alg1_levels: u64,
    /// Nanoseconds per KT-1 and KT-2 knowledge query.
    pub kt_ns: [f64; 2],
    /// CPU nanoseconds per simulated message of the Luby and Johansson
    /// runs.
    pub ns_per_msg: f64,
    /// Sequential seconds over batched seconds for alg1, Luby, Johansson.
    pub lane_gain: [f64; 3],
    /// Luby with utilization tracking over Luby without.
    pub observer_ratio: f64,
    /// Share of alg1's and alg2's time that their re-issued layer calls
    /// cover.
    pub attributed: [f64; 2],
    /// The churn probe's pass (the churn workload uses its timed passes).
    pub churn: Option<Pass>,
}

/// The instances a workload's probes run on.
struct Targets<'a> {
    main: &'a Instance,
    kt2: &'a Instance,
    alg_seed: u64,
}

fn targets(inputs: &Inputs, seed: u64) -> Targets<'_> {
    match inputs {
        Inputs::Sparse { main, alg_seed } => Targets {
            main,
            kt2: main,
            alg_seed: *alg_seed,
        },
        Inputs::Dense { main, kt2, .. } => Targets {
            main,
            kt2,
            alg_seed: mix(seed, 0xa1),
        },
        Inputs::Churn(start) => Targets {
            main: &start.base,
            kt2: &start.base,
            alg_seed: mix(seed, 0xa1),
        },
    }
}

/// Runs every probe on `inputs`, recording spans in the `Probe` phase.
pub fn run(inputs: &Inputs, sizes: &Sizes, seed: u64, tracer: &mut Tracer) -> Probed {
    tracer.set_phase(Phase::Probe);
    let t = targets(inputs, seed);
    let mut probed = Probed::default();
    algorithms(&t, &mut probed, tracer);
    probed.attributed = attribution(t.main, &probed, tracer);
    probed.kt_ns = [
        knowledge(t.main, KtLevel::KT1, "congest.knowledge.kt1", tracer),
        knowledge(t.kt2, KtLevel::KT2, "congest.knowledge.kt2", tracer),
    ];
    probed.lane_gain = lane_gain(t.main, sizes, seed, tracer);
    probed.observer_ratio = match inputs {
        Inputs::Dense { .. } => {
            let family = CrossedFamily::new(sizes.crossed_t);
            let ids = family.psi(Crossing { x: 0, y: 1, z: 2 });
            observer_ratio(&family.base_graph(), &ids, seed, tracer)
        }
        _ => observer_ratio(&t.main.graph, &t.main.ids, seed, tracer),
    };
    if !matches!(inputs, Inputs::Churn(_)) {
        let batches = churn_batches(&t.main.graph, sizes.compact_every, mix(seed, 0xcb));
        let start = ChurnStart::new(t.main.clone(), batches, seed, tracer);
        probed.churn = Some(churn_pass(&start, sizes, tracer, &mut Reference::default()));
    }
    probed
}

/// Each algorithm once, sequentially, for its per-phase counts and time.
fn algorithms(t: &Targets<'_>, probed: &mut Probed, tracer: &mut Tracer) {
    let (g, ids) = (&t.main.graph, &t.main.ids);
    let seed = t.alg_seed;
    let alg1 = tracer.span("probe.alg1", |_| {
        let watch = Stopwatch::start();
        let mut rng = StdRng::seed_from_u64(mix(seed, 1));
        let out = alg1_coloring::run(g, ids, Alg1Config::default(), &mut rng)
            .expect("alg1 succeeds on the benchmark inputs");
        (out, watch.elapsed().cpu)
    });
    probed.algs[0] = AlgCounts::from_costs(&alg1.0.costs, alg1.1);
    probed.alg1_levels = alg1.0.levels_used as u64;
    let alg2 = tracer.span("probe.alg2", |_| {
        let watch = Stopwatch::start();
        let mut rng = StdRng::seed_from_u64(mix(seed, 2));
        let config = Alg2Config {
            epsilon: EPSILON,
            ..Alg2Config::default()
        };
        let out = alg2_coloring::run(g, ids, config, &mut rng)
            .expect("alg2 succeeds on the benchmark inputs");
        (out, watch.elapsed().cpu)
    });
    probed.algs[1] = AlgCounts::from_costs(&alg2.0.costs, alg2.1);
    let alg3 = tracer.span("probe.alg3", |_| {
        let watch = Stopwatch::start();
        let mut rng = StdRng::seed_from_u64(mix(seed, 3));
        let out = alg3_mis::run(&t.kt2.graph, &t.kt2.ids, Alg3Config::default(), &mut rng)
            .expect("alg3 succeeds on the benchmark inputs");
        (out, watch.elapsed().cpu)
    });
    probed.algs[2] = AlgCounts::from_costs(&alg3.0.costs, alg3.1);
    let luby = tracer.span("probe.luby", |_| {
        let watch = Stopwatch::start();
        let (_, report) = mis::luby::run(g, ids, mix(seed, 4), SyncConfig::default());
        (report, watch.elapsed().cpu)
    });
    let johansson = tracer.span("probe.johansson", |_| {
        let watch = Stopwatch::start();
        let (_, report) = coloring::baseline::run(g, ids, mix(seed, 5), SyncConfig::default());
        (report, watch.elapsed().cpu)
    });
    for (slot, (report, secs)) in [(3, &luby), (4, &johansson)] {
        let mut costs = CostAccount::new();
        costs.charge_report("run", report);
        probed.algs[slot] = AlgCounts::from_costs(&costs, *secs);
    }
    let msgs = luby.0.messages + johansson.0.messages;
    probed.ns_per_msg = (luby.1 + johansson.1) * 1e9 / msgs.max(1) as f64;
}

/// The seed words alg1 (log² n bits) and alg2 (log³ n / ε bits) broadcast.
fn seed_bits(n: usize) -> (usize, usize) {
    let log_n = (n.max(2) as f64).log2();
    (
        ((log_n * log_n).ceil() as usize).max(64),
        ((log_n.powi(3) / EPSILON).ceil() as usize).max(64),
    )
}

/// Re-issues alg1's and alg2's layer calls one public call at a time and
/// returns the share of each algorithm's time they cover.
fn attribution(main: &Instance, probed: &Probed, tracer: &mut Tracer) -> [f64; 2] {
    let (g, ids) = (&main.graph, &main.ids);
    let n = g.num_nodes();
    let log_n = (n.max(2) as f64).log2();
    let (bits1, bits2) = seed_bits(n);
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let degrees: Vec<u64> = g.nodes().map(|v| g.degree(v) as u64).collect();
    let delta = g.max_degree() as u64;

    let watch = Stopwatch::start();
    let plan1 = tracer.span("danner.plan", |_| {
        SetupPlan::new(g, ids, Alg1Config::default().delta).expect("connected input")
    });
    let words1 = plan1.draw_words(bits1, &mut rng);
    tracer.span("danner.seed_broadcast.alg1", |_| {
        black_box(ops::broadcast_words(
            plan1.carrier(),
            ids,
            plan1.tree(),
            &words1,
        ));
    });
    tracer.span("danner.casts", |_| {
        let (max, _) = ops::convergecast_max(plan1.carrier(), ids, plan1.tree(), &degrees);
        black_box(ops::broadcast_words(
            plan1.carrier(),
            ids,
            plan1.tree(),
            &[max],
        ));
        black_box(ops::convergecast_sum(
            plan1.carrier(),
            ids,
            plan1.tree(),
            &degrees,
        ));
    });
    let plan = tracer.span("core.query_plan", |_| QueryPlan::new(g, ids, Vec::new()));
    let shared1 = SharedRandomness::from_seed(words1[0], bits1);
    tracer.span("core.partition", |_| {
        let partition = ChangPartition::compute(&shared1, 0, n, delta as usize);
        black_box(partition.parts_for(ids));
    });
    tracer.span("core.final_stage", |_| {
        let colors = vec![None; n];
        let phase_limit = (16.0 * log_n).ceil() as usize + 32;
        let spec =
            FlatStageSpec::for_final_stage(g, &colors, delta + 1, Arc::new(plan), phase_limit);
        let seed = Alg1Config::default().stage_seed.wrapping_add(0xffff);
        black_box(run_stage_flat(g, ids, &spec, seed, SyncConfig::default()));
    });
    let alg1_calls = watch.elapsed().cpu;

    let watch = Stopwatch::start();
    let plan2 = tracer.span("danner.plan", |_| {
        SetupPlan::new(g, ids, Alg2Config::default().delta).expect("connected input")
    });
    let words2 = plan2.draw_words(bits2, &mut rng);
    tracer.span("danner.seed_broadcast", |_| {
        black_box(ops::broadcast_words(
            plan2.carrier(),
            ids,
            plan2.tree(),
            &words2,
        ));
    });
    tracer.span("danner.casts.alg2", |_| {
        let (max, _) = ops::convergecast_max(plan2.carrier(), ids, plan2.tree(), &degrees);
        black_box(ops::broadcast_words(
            plan2.carrier(),
            ids,
            plan2.tree(),
            &[max],
        ));
    });
    let shared2 = SharedRandomness::from_seed(words2[0], bits2);
    tracer.span("core.alg2_trials", |_| {
        let palette = (((1.0 + EPSILON) * delta as f64).ceil() as u64).max(delta + 1);
        let budget = Alg2Config::default().phase_budget_factor;
        let phases = ((budget * log_n / EPSILON.min(1.0)).ceil() as usize).max(8);
        black_box(alg2_coloring::run_phases(g, ids, &shared2, palette, phases));
    });
    let alg2_calls = watch.elapsed().cpu;
    [
        alg1_calls / probed.algs[0].secs,
        alg2_calls / probed.algs[1].secs,
    ]
}

/// Nanoseconds per knowledge query over a fixed node sample. KT-1 asks
/// `known_node_with_id` and `id_of` about neighbours; KT-2 asks
/// `neighbors_of` a neighbour and `id_of` its neighbours at distance two.
fn knowledge(inst: &Instance, level: KtLevel, span: &'static str, tracer: &mut Tracer) -> f64 {
    let (g, ids) = (&inst.graph, &inst.ids);
    let n = g.num_nodes();
    let sample: Vec<NodeId> = (0..KNOWLEDGE_SAMPLE.min(n))
        .map(|i| NodeId((i * n / KNOWLEDGE_SAMPLE.min(n)) as u32))
        .collect();
    let watch = Stopwatch::start();
    let queries = tracer.span(span, |_| {
        let mut queries = 0u64;
        for &v in &sample {
            let view = KnowledgeView::new(g, ids, level, v);
            for u in g.neighbors(v).take(KNOWLEDGE_FANOUT) {
                if level == KtLevel::KT1 {
                    black_box(view.known_node_with_id(ids.id_of(u)));
                    black_box(view.id_of(u));
                    queries += 2;
                } else {
                    let around = view.neighbors_of(u);
                    queries += 1;
                    for &w in around.iter().take(2) {
                        black_box(view.id_of(w));
                        queries += 1;
                    }
                }
            }
        }
        queries
    });
    watch.elapsed().cpu * 1e9 / queries.max(1) as f64
}

/// Sequential seconds of `lanes` seeds run one by one, divided by the
/// seconds of the same seeds as one batched cell, for alg1, Luby and
/// Johansson.
fn lane_gain(main: &Instance, sizes: &Sizes, seed: u64, tracer: &mut Tracer) -> [f64; 3] {
    let (g, ids) = (&main.graph, &main.ids);
    let seeds: Vec<u64> = (0..sizes.lanes as u64)
        .map(|k| mix(seed, 0x200 + k))
        .collect();
    let mut gain =
        |one: &'static str,
         many: &'static str,
         single: fn(&Graph, &IdAssignment, u64) -> MeasurementRow,
         batch: fn(&Graph, &IdAssignment, &[u64]) -> Vec<MeasurementRow>| {
            let watch = Stopwatch::start();
            let rows: Vec<_> =
                tracer.span(one, |_| seeds.iter().map(|&s| single(g, ids, s)).collect());
            let sequential = watch.elapsed().cpu;
            let watch = Stopwatch::start();
            let batched = tracer.span(many, |_| batch(g, ids, &seeds));
            let lanes = watch.elapsed().cpu;
            assert_eq!(rows, batched, "{many}: lanes must equal sequential runs");
            sequential / lanes
        };
    [
        gain(
            "congest.batch.sequential.alg1",
            "congest.batch.lanes.alg1",
            experiments::measure_alg1,
            experiments::measure_alg1_batch,
        ),
        gain(
            "congest.batch.sequential.luby",
            "congest.batch.lanes.luby",
            experiments::measure_luby_baseline,
            experiments::measure_luby_baseline_batch,
        ),
        gain(
            "congest.batch.sequential.johansson",
            "congest.batch.lanes.johansson",
            experiments::measure_coloring_baseline,
            experiments::measure_coloring_baseline_batch,
        ),
    ]
}

/// Luby with utilization tracking (the observed engine path) over the
/// same run without it.
fn observer_ratio(g: &Graph, ids: &IdAssignment, seed: u64, tracer: &mut Tracer) -> f64 {
    let observed = SyncConfig {
        track_utilization: true,
        ..SyncConfig::default()
    };
    let mut secs = [0.0; 2];
    for (slot, (span, config)) in [
        ("congest.unobserved", SyncConfig::default()),
        ("congest.observed", observed),
    ]
    .into_iter()
    .enumerate()
    {
        let watch = Stopwatch::start();
        tracer.span(span, |_| {
            black_box(mis::luby::run(g, ids, mix(seed, 0x0b), config))
        });
        secs[slot] = watch.elapsed().cpu;
    }
    secs[1] / secs[0]
}
