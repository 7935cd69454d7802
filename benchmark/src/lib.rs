//! End-to-end and per-layer benchmark of the symbreak workspace.
//!
//! One process runs one workload (see [`workloads::Workload`]): it builds
//! the inputs from the workload seed several times and keeps the median
//! set-up time, runs one untimed warm-up pass, then timed passes until the
//! requested wall seconds are spent. Timings are process CPU seconds (see
//! [`clock`]). Every output is validated outside the timed region, and
//! every pass must produce the same digest of outputs and per-phase costs.
//!
//! The untraced binary (`perfbench`) prints the end-to-end metrics. The
//! traced binary (`perfbench-traced`) installs a counting allocator, records
//! a span around every layer call, runs the per-layer probes of
//! [`probes`] and prints the per-layer metrics. `run.py` builds both and
//! picks one.
//!
//! Output: one `{"detail": …}` line with the configuration, digest and the
//! workload's own per-operation figures, then the result line
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

pub mod clock;
pub mod metrics;
pub mod probes;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use clock::{Reference, Stopwatch};
use stats::JsonObject;
use symbreak_congest::SyncConfig;
use trace::{alloc_snapshot, Phase, Tracer};
use workloads::{Inputs, Pass, Sizes, Workload};

/// Input builds per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
/// Timed passes per run, at least.
pub const MIN_PASSES: usize = 2;
/// The seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 1;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// The workload seed every input derives from.
    pub seed: u64,
    /// Seconds of timed passes to aim for.
    pub seconds: f64,
    /// `full`, or `smoke` for the reduced sizes.
    pub smoke: bool,
    /// Where the traced binary writes its spans.
    pub spans: Option<PathBuf>,
}

const USAGE: &str = "usage: perfbench --workload <sparse-1e5|dense-fig1|churn-1e5> \
[--seed N] [--seconds S] [--scale full|smoke] [--spans PATH]\n       perfbench --memory-probe";

impl Args {
    /// Parses `--flag value` pairs.
    ///
    /// # Errors
    ///
    /// Returns a message naming the bad or missing argument.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 10.0;
        let mut smoke = false;
        let mut spans = None;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    );
                }
                "--seed" => seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    seconds = value.parse::<f64>().map_err(|_| bad())?;
                    if !(seconds.is_finite() && seconds >= 0.0) {
                        return Err(bad());
                    }
                }
                "--scale" => {
                    smoke = match value.as_str() {
                        "full" => false,
                        "smoke" => true,
                        _ => return Err(format!("unknown scale {value}")),
                    }
                }
                "--spans" => spans = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            smoke,
            spans,
        })
    }

    fn sizes(&self) -> Sizes {
        if self.smoke {
            Sizes::SMOKE
        } else {
            Sizes::FULL
        }
    }
}

/// The two lines a run prints.
#[derive(Debug, Clone)]
pub struct Output {
    /// Configuration, digest, per-operation figures (and, traced, the
    /// traced end-to-end values and the per-layer map).
    pub detail: String,
    /// The result line.
    pub result: String,
}

/// Runs one workload; `traced` selects spans, probes and per-layer metrics.
pub fn run(args: &Args, traced: bool) -> Output {
    let sizes = args.sizes();
    let mut tracer = Tracer::new(traced);

    // Set-up, several times; the last inputs are kept.
    let mut setup_secs = Vec::with_capacity(SETUP_REPEATS);
    let mut setup_alloc = Vec::with_capacity(SETUP_REPEATS);
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        drop(inputs.take());
        let before = alloc_snapshot();
        let watch = Stopwatch::start();
        let built = tracer.span("setup", |t| {
            Inputs::build(args.workload, &sizes, args.seed, t)
        });
        setup_secs.push(watch.elapsed().cpu);
        setup_alloc.push(alloc_snapshot().since(before));
        inputs = Some(built);
    }
    let inputs = inputs.expect("at least one set-up");
    let inputs_ok = inputs.is_valid();
    if !inputs_ok {
        eprintln!(
            "{}: the initial outputs failed their check",
            args.workload.name()
        );
    }

    // One untimed warm-up pass, then timed passes until the time is spent.
    tracer.set_phase(Phase::Warmup);
    let mut reference = Reference::default();
    let warmup = workloads::run_pass(&inputs, &sizes, &mut tracer, &mut reference);
    let min_passes = match &inputs {
        Inputs::Churn(start) => {
            MIN_PASSES.max(sizes.min_batches.div_ceil(start.batches.len().max(1)))
        }
        _ => MIN_PASSES,
    };
    let mut passes: Vec<Pass> = Vec::new();
    let start = Instant::now();
    loop {
        tracer.set_phase(Phase::Pass(passes.len() as u32 + 1));
        passes.push(workloads::run_pass(
            &inputs,
            &sizes,
            &mut tracer,
            &mut reference,
        ));
        let elapsed = start.elapsed().as_secs_f64();
        let next = elapsed / passes.len() as f64;
        if passes.len() >= min_passes && elapsed + next > args.seconds {
            break;
        }
    }

    let digest_stable = passes.iter().all(|p| p.digest == warmup.digest);
    if !digest_stable {
        eprintln!(
            "{}: the digest differs between passes",
            args.workload.name()
        );
    }
    let attempted = warmup.attempted + passes.iter().map(|p| p.attempted).sum::<u64>();
    let failed = warmup.failed + passes.iter().map(|p| p.failed).sum::<u64>();
    let timed: Vec<&Pass> = passes.iter().filter(|p| p.failed == 0).collect();
    let e2e = metrics::end_to_end(&setup_secs, &timed);
    let correct = inputs_ok && digest_stable && failed == 0 && !timed.is_empty();

    let config = SyncConfig::default();
    let mut configuration = JsonObject::new();
    configuration
        .int(
            "available_parallelism",
            std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        )
        .int("threads", config.resolved_threads() as u64)
        .int("shards", config.resolved_shards() as u64)
        .int("lanes", config.resolved_lanes() as u64)
        .str(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        );
    let mut detail = JsonObject::new();
    detail
        .str("workload", args.workload.name())
        .int("seed", args.seed)
        .str("scale", if args.smoke { "smoke" } else { "full" })
        .bool("traced", traced)
        .int("passes", passes.len() as u64)
        .str("digest", &format!("{:016x}", warmup.digest))
        .bool("digest_stable", digest_stable)
        .raw("config", &configuration.finish())
        .raw("operations", &metrics::operations(&timed).finish());

    let values = if traced {
        let probed = probes::run(&inputs, &sizes, args.seed, &mut tracer);
        detail
            .raw("end_to_end", &metrics::metrics_json(&e2e, e2e_unit))
            .raw("per_layer_moves", &metrics::layer_map_json());
        if let Some(path) = &args.spans {
            let header = format!(
                "\"workload\":\"{}\",\"seed\":{}",
                args.workload.name(),
                args.seed
            );
            if let Err(e) = tracer.write(path, &header) {
                eprintln!("could not write spans to {}: {e}", path.display());
            }
        }
        metrics::per_layer(&tracer, &probed, &timed, &setup_alloc)
    } else {
        e2e
    };
    let unit = if traced { layer_unit } else { e2e_unit };
    let mut result = JsonObject::new();
    result
        .bool("correct", correct)
        .int("attempted", attempted)
        .int("failed", failed)
        .raw("metrics", &metrics::metrics_json(&values, unit));
    Output {
        detail: format!("{{\"detail\":{}}}", detail.finish()),
        result: result.finish(),
    }
}

fn e2e_unit(name: &str) -> &'static str {
    metrics::END_TO_END
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

fn layer_unit(name: &str) -> &'static str {
    metrics::PER_LAYER
        .iter()
        .find(|l| l.name == name)
        .map_or("", |l| l.unit)
}

/// Median seconds of a fixed memory-bound kernel (random read-modify-write
/// over 64 MB); `run.py` uses it to pick the quieter CPU to pin a run to.
pub fn memory_probe() -> f64 {
    let n = 1usize << 23;
    let mut buf: Vec<u64> = (0..n as u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let mut x = 1u64;
    let mut samples = Vec::new();
    for _ in 0..5 {
        let watch = Stopwatch::start();
        for _ in 0..1_000_000 {
            let i = (x as usize) & (n - 1);
            x = buf[i] ^ x.rotate_left(7);
            buf[i] = x;
        }
        samples.push(watch.elapsed().wall);
    }
    std::hint::black_box(x);
    stats::median(&samples)
}

/// The binaries' entry point.
pub fn main(traced: bool) -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--memory-probe") {
        println!("{}", memory_probe());
        return ExitCode::SUCCESS;
    }
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = run(&args, traced);
    println!("{}", out.detail);
    println!("{}", out.result);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_arguments() {
        let a = args("--workload churn-1e5 --seed 7 --seconds 3 --scale smoke").unwrap();
        assert_eq!(a.workload, Workload::Churn);
        assert_eq!((a.seed, a.seconds, a.smoke), (7, 3.0, true));
        assert_eq!(args("--workload dense-fig1").unwrap().seed, DEFAULT_SEED);
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args("--seed 3").is_err());
        assert!(args("--workload nope").is_err());
        assert!(args("--workload sparse-1e5 --seconds -1").is_err());
        assert!(args("--workload sparse-1e5 --trace").is_err());
    }
}
