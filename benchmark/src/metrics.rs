//! The benchmark's metrics: the end-to-end set every untraced run prints,
//! the per-layer set the traced run prints, and for each per-layer metric
//! the workloads and end-to-end metrics it is expected to move.

use crate::probes::Probed;
use crate::stats::{median, quantile, JsonObject};
use crate::trace::{Alloc, Phase, Tracer};
use crate::workloads::{Pass, RepairTotals};

/// An end-to-end metric: name, unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("pass_ref_s", "s"),
    ("messages", "count"),
    ("peak_rss_mb", "MB"),
];

/// A per-layer metric and where it should show.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// `workload → end-to-end metric` pairs this metric should move
    /// (`*` for every workload); empty when it moves none.
    pub moves: &'static [(&'static str, &'static str)],
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static [(&'static str, &'static str)],
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

/// Every per-layer metric, in output order. `moves` names the gated
/// end-to-end metric and, after the colon, the workload's own figure from
/// the detail line that the layer feeds. The benchmark's test checks that
/// `BENCHMARK.json` lists exactly these.
pub const PER_LAYER: &[Layer] = &[
    layer("graphs.generate_s", "s", "lower", &[("*", "setup_s")]),
    layer(
        "danner.plan_s",
        "s",
        "lower",
        &[("sparse-1e5", "pass_ref_s: alg1_s alg2_s")],
    ),
    layer(
        "danner.seed_broadcast_s",
        "s",
        "lower",
        &[("sparse-1e5", "pass_ref_s: alg2_s")],
    ),
    layer(
        "danner.casts_s",
        "s",
        "lower",
        &[("sparse-1e5", "pass_ref_s: alg1_s alg2_s")],
    ),
    layer(
        "congest.knowledge.kt1_ns",
        "ns",
        "lower",
        &[("sparse-1e5", "pass_ref_s: alg1_s alg2_s")],
    ),
    layer(
        "congest.knowledge.kt2_ns",
        "ns",
        "lower",
        &[
            ("sparse-1e5", "pass_ref_s: alg3_s"),
            ("dense-fig1", "pass_ref_s: alg3_s"),
        ],
    ),
    layer(
        "congest.sync.ns_per_msg",
        "ns",
        "lower",
        &[
            ("sparse-1e5", "pass_ref_s: luby_s johansson_s"),
            ("dense-fig1", "pass_ref_s: luby_s johansson_s"),
        ],
    ),
    layer(
        "congest.batch.lane_gain.alg1",
        "ratio",
        "higher",
        &[("dense-fig1", "pass_ref_s: alg1_s")],
    ),
    layer(
        "congest.batch.lane_gain.luby",
        "ratio",
        "higher",
        &[("dense-fig1", "pass_ref_s: luby_s")],
    ),
    layer(
        "congest.batch.lane_gain.johansson",
        "ratio",
        "higher",
        &[("dense-fig1", "pass_ref_s: johansson_s")],
    ),
    layer(
        "congest.observer_ratio",
        "ratio",
        "lower",
        &[("dense-fig1", "pass_ref_s: lowerbound_s")],
    ),
    layer(
        "core.query_plan_s",
        "s",
        "lower",
        &[("sparse-1e5", "pass_ref_s: alg1_s")],
    ),
    layer(
        "core.final_stage_s",
        "s",
        "lower",
        &[("sparse-1e5", "pass_ref_s: alg1_s")],
    ),
    layer(
        "core.alg2_trials_s",
        "s",
        "lower",
        &[("sparse-1e5", "pass_ref_s: alg2_s")],
    ),
    layer(
        "core.partition_s",
        "s",
        "lower",
        &[("dense-fig1", "pass_ref_s: alg1_s")],
    ),
    layer(
        "alg1.attributed",
        "share",
        "higher",
        &[("sparse-1e5", "pass_ref_s: alg1_s")],
    ),
    layer(
        "alg2.attributed",
        "share",
        "higher",
        &[("sparse-1e5", "pass_ref_s: alg2_s")],
    ),
    layer("alg1.setup_msgs", "count", "lower", MESSAGES),
    layer("alg1.stage_msgs", "count", "lower", MESSAGES),
    layer(
        "alg1.rounds",
        "count",
        "lower",
        &[("sparse-1e5", "pass_ref_s: alg1_s")],
    ),
    layer(
        "alg1.levels",
        "count",
        "lower",
        &[("dense-fig1", "pass_ref_s: alg1_s")],
    ),
    layer("alg2.setup_msgs", "count", "lower", MESSAGES),
    layer("alg2.stage_msgs", "count", "lower", MESSAGES),
    layer(
        "alg2.rounds",
        "count",
        "lower",
        &[("sparse-1e5", "pass_ref_s: alg2_s")],
    ),
    layer("alg3.stage_msgs", "count", "lower", MESSAGES),
    layer(
        "alg3.rounds",
        "count",
        "lower",
        &[("dense-fig1", "pass_ref_s: alg3_s")],
    ),
    layer("luby.stage_msgs", "count", "lower", MESSAGES),
    layer(
        "luby.rounds",
        "count",
        "lower",
        &[("dense-fig1", "pass_ref_s: luby_s")],
    ),
    layer("johansson.stage_msgs", "count", "lower", MESSAGES),
    layer(
        "johansson.rounds",
        "count",
        "lower",
        &[("dense-fig1", "pass_ref_s: johansson_s")],
    ),
    layer(
        "graphs.overlay.apply_ms",
        "ms",
        "lower",
        &[("churn-1e5", "pass_ref_s: batch_p50_ms")],
    ),
    layer(
        "graphs.overlay.compact_ms",
        "ms",
        "lower",
        &[("churn-1e5", "pass_ref_s: batches_per_s")],
    ),
    layer("core.repair.coloring_ms", "ms", "lower", CHURN_LATENCY),
    layer("core.repair.coloring_p99_ms", "ms", "lower", CHURN_TAIL),
    layer("core.repair.mis_ms", "ms", "lower", CHURN_LATENCY),
    layer("core.repair.mis_p99_ms", "ms", "lower", CHURN_TAIL),
    layer("core.repair.frontier", "count", "lower", CHURN_TAIL),
    layer("core.repair.useful", "share", "higher", CHURN_TAIL),
    layer("core.repair.iterations", "count", "lower", CHURN_TAIL),
    layer(
        "core.repair.recompute_s",
        "s",
        "lower",
        &[("churn-1e5", "setup_s")],
    ),
    layer("classic.verify_s", "s", "lower", &[]),
    layer("alloc.setup.mb", "MB", "lower", &[("*", "setup_s")]),
    layer("alloc.setup.count", "count", "lower", &[("*", "setup_s")]),
    layer("alloc.pass.mb", "MB", "lower", &[("*", "pass_ref_s")]),
    layer("alloc.pass.count", "count", "lower", &[("*", "pass_ref_s")]),
    layer("trace.overhead.setup_s", "ratio", "lower", &[]),
    layer("trace.overhead.pass_ref_s", "ratio", "lower", &[]),
];

const MESSAGES: &[(&str, &str)] = &[("sparse-1e5", "messages"), ("dense-fig1", "messages")];
const CHURN_LATENCY: &[(&str, &str)] = &[("churn-1e5", "pass_ref_s: batch_p50_ms")];
const CHURN_TAIL: &[(&str, &str)] = &[("churn-1e5", "pass_ref_s: batch_p99_ms")];

/// Metrics computed by the traced binary; the `trace.overhead.*` ratios
/// need an untraced run too, so the launcher adds them.
pub fn computed_here(layer: &Layer) -> bool {
    !layer.name.starts_with("trace.overhead.")
}

const MB: f64 = 1024.0 * 1024.0;

/// Peak resident set size of this process in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb * 1024.0 / MB)
}

/// The end-to-end values of a run, by [`END_TO_END`] name.
pub fn end_to_end(setup_secs: &[f64], timed: &[&Pass]) -> Vec<(&'static str, f64)> {
    let per_pass =
        |f: &dyn Fn(&Pass) -> f64| median(&timed.iter().map(|p| f(p)).collect::<Vec<_>>());
    vec![
        ("setup_s", median(setup_secs)),
        ("pass_ref_s", per_pass(&|p| p.ref_secs)),
        ("messages", per_pass(&|p| p.messages as f64)),
        ("peak_rss_mb", peak_rss_mb()),
    ]
}

/// The workload's own per-operation figures, under the names users know
/// them by: per-algorithm CPU seconds, the lower-bound experiments, churn
/// batch latency and throughput, the pass's raw CPU and wall seconds and
/// the reference kernel's seconds. Printed beside the gated metrics.
pub fn operations(timed: &[&Pass]) -> JsonObject {
    let mut out = JsonObject::new();
    let Some(first) = timed.first() else {
        return out;
    };
    let per_pass =
        |f: &dyn Fn(&Pass) -> f64| median(&timed.iter().map(|p| f(p)).collect::<Vec<_>>());
    let kernel: Vec<f64> = timed
        .iter()
        .flat_map(|p| p.kernel.iter().copied())
        .collect();
    out.num("pass_cpu_s", per_pass(&|p| p.secs()))
        .num("pass_wall_s", per_pass(&|p| p.wall()))
        .num("reference_s", median(&kernel));
    let mut names: Vec<&str> = first.ops.iter().map(|op| op.name).collect();
    names.dedup();
    for name in names {
        let key = match name {
            "graphs.overlay.apply" | "core.repair.coloring" | "core.repair.mis" => continue,
            "graphs.overlay.compact" => continue,
            other => format!("{}_s", other.trim_end_matches(".cell")),
        };
        out.num(&key, per_pass(&|p| p.op_secs(name)));
    }
    if timed
        .iter()
        .any(|p| p.ops.iter().any(|op| op.name.starts_with("lowerbound.")))
    {
        out.num(
            "lowerbound_s",
            per_pass(&|p| p.op_secs("lowerbound.coloring") + p.op_secs("lowerbound.mis")),
        );
    }
    let batch_ms: Vec<f64> = timed
        .iter()
        .flat_map(|p| p.batch_ms.iter().copied())
        .collect();
    if !batch_ms.is_empty() {
        let busy: f64 = batch_ms.iter().sum::<f64>() / 1e3
            + timed
                .iter()
                .map(|p| p.op_secs("graphs.overlay.compact"))
                .sum::<f64>();
        out.int("batches", batch_ms.len() as u64)
            .num("batch_p50_ms", median(&batch_ms))
            .num("batch_p99_ms", quantile(&batch_ms, 0.99))
            .num("batches_per_s", batch_ms.len() as f64 / busy);
    }
    out
}

/// Milliseconds of every span called `name` outside set-up and warm-up.
fn span_ms(tracer: &Tracer, name: &str) -> Vec<f64> {
    tracer
        .named(name, None)
        .filter(|s| !matches!(s.phase, Phase::Setup | Phase::Warmup))
        .map(|s| s.secs() * 1e3)
        .collect()
}

/// The per-layer values the traced binary computes, in [`PER_LAYER`]
/// order.
pub fn per_layer(
    tracer: &Tracer,
    probed: &Probed,
    timed: &[&Pass],
    setup_alloc: &[Alloc],
) -> Vec<(&'static str, f64)> {
    let probe = |name: &str| tracer.total_secs(name, Some(Phase::Probe));
    let per_pass =
        |f: &dyn Fn(&Pass) -> f64| median(&timed.iter().map(|p| f(p)).collect::<Vec<_>>());
    let generate: Vec<f64> = tracer
        .named("graphs.generate", Some(Phase::Setup))
        .map(|s| s.secs())
        .collect();
    let recompute: Vec<f64> = tracer
        .named("core.repair.recompute", None)
        .filter(|s| s.phase != Phase::Warmup)
        .map(|s| s.secs())
        .collect();
    let repairs = probed.churn.as_ref().map_or_else(
        || {
            timed
                .iter()
                .fold(RepairTotals::default(), |a, p| RepairTotals {
                    calls: a.calls + p.repairs.calls,
                    frontier: a.frontier + p.repairs.frontier,
                    repaired: a.repaired + p.repairs.repaired,
                    iterations: a.iterations + p.repairs.iterations,
                })
        },
        |pass| pass.repairs,
    );
    let setup_mb = median(
        &setup_alloc
            .iter()
            .map(|a| a.bytes as f64 / MB)
            .collect::<Vec<_>>(),
    );
    let setup_count = median(
        &setup_alloc
            .iter()
            .map(|a| a.count as f64)
            .collect::<Vec<_>>(),
    );
    let [alg1, alg2, alg3, luby, johansson] = probed.algs;
    let pass_mb = per_pass(&|p| p.alloc().bytes as f64 / MB);
    let pass_count = per_pass(&|p| p.alloc().count as f64);
    let coloring_ms = span_ms(tracer, "core.repair.coloring");
    let mis_ms = span_ms(tracer, "core.repair.mis");
    let values = vec![
        ("graphs.generate_s", median(&generate)),
        ("danner.plan_s", probe("danner.plan")),
        ("danner.seed_broadcast_s", probe("danner.seed_broadcast")),
        ("danner.casts_s", probe("danner.casts")),
        ("congest.knowledge.kt1_ns", probed.kt_ns[0]),
        ("congest.knowledge.kt2_ns", probed.kt_ns[1]),
        ("congest.sync.ns_per_msg", probed.ns_per_msg),
        ("congest.batch.lane_gain.alg1", probed.lane_gain[0]),
        ("congest.batch.lane_gain.luby", probed.lane_gain[1]),
        ("congest.batch.lane_gain.johansson", probed.lane_gain[2]),
        ("congest.observer_ratio", probed.observer_ratio),
        ("core.query_plan_s", probe("core.query_plan")),
        ("core.final_stage_s", probe("core.final_stage")),
        ("core.alg2_trials_s", probe("core.alg2_trials")),
        ("core.partition_s", probe("core.partition")),
        ("alg1.attributed", probed.attributed[0]),
        ("alg2.attributed", probed.attributed[1]),
        ("alg1.setup_msgs", alg1.setup_msgs as f64),
        ("alg1.stage_msgs", alg1.stage_msgs as f64),
        ("alg1.rounds", alg1.rounds as f64),
        ("alg1.levels", probed.alg1_levels as f64),
        ("alg2.setup_msgs", alg2.setup_msgs as f64),
        ("alg2.stage_msgs", alg2.stage_msgs as f64),
        ("alg2.rounds", alg2.rounds as f64),
        ("alg3.stage_msgs", alg3.stage_msgs as f64),
        ("alg3.rounds", alg3.rounds as f64),
        ("luby.stage_msgs", luby.stage_msgs as f64),
        ("luby.rounds", luby.rounds as f64),
        ("johansson.stage_msgs", johansson.stage_msgs as f64),
        ("johansson.rounds", johansson.rounds as f64),
        (
            "graphs.overlay.apply_ms",
            median(&span_ms(tracer, "graphs.overlay.apply")),
        ),
        (
            "graphs.overlay.compact_ms",
            median(&span_ms(tracer, "graphs.overlay.compact")),
        ),
        ("core.repair.coloring_ms", median(&coloring_ms)),
        ("core.repair.coloring_p99_ms", quantile(&coloring_ms, 0.99)),
        ("core.repair.mis_ms", median(&mis_ms)),
        ("core.repair.mis_p99_ms", quantile(&mis_ms, 0.99)),
        (
            "core.repair.frontier",
            repairs.frontier as f64 / repairs.calls.max(1) as f64,
        ),
        (
            "core.repair.useful",
            repairs.repaired as f64 / repairs.frontier.max(1) as f64,
        ),
        (
            "core.repair.iterations",
            repairs.iterations as f64 / repairs.calls.max(1) as f64,
        ),
        ("core.repair.recompute_s", median(&recompute)),
        ("classic.verify_s", per_pass(&|p| p.verify_secs)),
        ("alloc.setup.mb", setup_mb),
        ("alloc.setup.count", setup_count),
        ("alloc.pass.mb", pass_mb),
        ("alloc.pass.count", pass_count),
    ];
    debug_assert!(values.iter().map(|(name, _)| *name).eq(PER_LAYER
        .iter()
        .filter(|l| computed_here(l))
        .map(|l| l.name)));
    values
}

/// The `metrics` object of the result line: each value with its unit.
pub fn metrics_json(values: &[(&str, f64)], unit_of: impl Fn(&str) -> &'static str) -> String {
    let mut out = JsonObject::new();
    for &(name, value) in values {
        let mut entry = JsonObject::new();
        entry.num("value", value).str("unit", unit_of(name));
        out.raw(name, &entry.finish());
    }
    out.finish()
}

/// Which end-to-end metric each per-layer metric should move, on which
/// workload, as JSON.
pub fn layer_map_json() -> String {
    let mut out = JsonObject::new();
    for l in PER_LAYER {
        let moves: Vec<String> = l
            .moves
            .iter()
            .map(|(w, m)| format!("\"{w} -> {m}\""))
            .collect();
        out.raw(l.name, &format!("[{}]", moves.join(",")));
    }
    out.finish()
}
