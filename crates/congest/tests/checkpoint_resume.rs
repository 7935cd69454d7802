//! Kill-and-resume differential: for two algorithms, four graph families
//! and two thread settings, the checkpointed loop is killed at **every**
//! round boundary and resumed from the surviving log. Every resumed run
//! must reproduce the uninterrupted run bit-exactly — the full
//! [`ExecutionReport`] (outputs, messages, rounds, per-edge metering) *and*
//! the recorded message trace: the killed run's rounds before the
//! checkpoint boundary followed by the resumed run's rounds must be the
//! baseline's rounds. The 320-node input is large enough for the 4-thread
//! cells to split rounds into claimed windows, and the log an uninterrupted
//! run writes must be byte-identical at 1 and 4 threads.
//!
//! The kill is simulated the way a real crash looks on disk: the checkpoint
//! log is left wherever the round budget cut it off (including *before the
//! first boundary*, where the chain is empty and recovery restarts from
//! round 0).

use std::io;
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::SeedableRng;
use symbreak_classic::mis::{luby, parallel_greedy};
use symbreak_congest::checkpoint::checkpoint_dir;
use symbreak_congest::trace::TraceMessage;
use symbreak_congest::{
    CheckpointChain, CheckpointConfig, ExecutionReport, Message, RoundObserver, SyncConfig,
};
use symbreak_graphs::{generators, EdgeId, Graph, IdAssignment, NodeId};

/// A scratch directory under [`checkpoint_dir`], so the logs land where
/// `CONGEST_CHECKPOINT_DIR` points — the CI chaos-recovery job routes it
/// into a `mktemp` dir and fails on leftovers.
fn scratch_dir(kind: &str) -> PathBuf {
    let dir = checkpoint_dir().join(format!("sbck-resume-{kind}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Records every round's messages in RAM, one `Vec` per executed round.
#[derive(Default)]
struct RoundLog {
    rounds: Vec<Vec<TraceMessage>>,
    current: Vec<TraceMessage>,
}

impl RoundObserver for RoundLog {
    fn on_message(&mut self, from: NodeId, to: NodeId, _edge: EdgeId, message: &Message) {
        self.current.push(TraceMessage {
            from,
            to,
            message: *message,
        });
    }

    fn on_round_end(&mut self, _round: u64) {
        self.rounds.push(std::mem::take(&mut self.current));
    }
}

/// Runs the full kill matrix for one `(algorithm, graph, threads)` cell:
/// records the uninterrupted baseline (report + trace), then for every
/// kill round `1..rounds` replays kill → recover → resume and checks both
/// artifacts against the baseline. Returns the baseline report and the
/// baseline's log bytes so callers can also assert thread-invariance
/// across cells.
fn kill_everywhere<RunC, Res>(
    label: &str,
    log_dir: &Path,
    threads: usize,
    every: u64,
    plain: &ExecutionReport,
    run_ckpt: RunC,
    resume: Res,
) -> (ExecutionReport, Vec<u8>)
where
    RunC: Fn(SyncConfig, &CheckpointConfig, &mut RoundLog) -> io::Result<ExecutionReport>,
    Res: Fn(SyncConfig, &CheckpointConfig, &mut RoundLog) -> io::Result<ExecutionReport>,
{
    let config = SyncConfig::default().with_threads(threads);
    let log = log_dir.join(format!("{label}-t{threads}.sbck"));
    let ckpt = CheckpointConfig::new(&log).with_every(every);

    // Uninterrupted baseline, trace attached.
    let mut baseline_trace = RoundLog::default();
    let baseline = run_ckpt(config, &ckpt, &mut baseline_trace).expect("baseline run");
    assert!(baseline.completed, "{label}: baseline must terminate");
    assert!(
        baseline.rounds > every,
        "{label}: run too short ({} rounds) to cross a checkpoint boundary",
        baseline.rounds
    );
    assert_eq!(
        &baseline, plain,
        "{label}: checkpointing must not change the report"
    );
    let baseline_rounds = &baseline_trace.rounds;
    assert_eq!(baseline_rounds.len() as u64, baseline.rounds);
    let baseline_log = std::fs::read(&log).expect("read baseline log");

    for kill in 1..baseline.rounds {
        // The "kill": round budget runs out mid-run, the log keeps whatever
        // boundaries were hit.
        let mut killed_trace = RoundLog::default();
        let partial =
            run_ckpt(config.with_max_rounds(kill), &ckpt, &mut killed_trace).expect("partial run");
        assert!(!partial.completed, "{label}: kill at {kill} must interrupt");
        assert_eq!(partial.rounds, kill);

        // Recover at the boundary the log resumes at (round 0 when the kill
        // predates the first checkpoint).
        let chain = CheckpointChain::load(&log).expect("load killed log");
        let boundary = chain.latest().map_or(0, |r| r.round) as usize;
        assert!(boundary as u64 <= kill);
        assert_eq!(
            killed_trace.rounds[..boundary],
            baseline_rounds[..boundary],
            "{label}: killed trace before the boundary at {boundary} diverged (kill at {kill})"
        );
        let mut resumed_trace = RoundLog::default();
        let resumed = resume(config, &ckpt, &mut resumed_trace).expect("resume");
        assert_eq!(
            resumed, baseline,
            "{label}: resume after kill at {kill} must be bit-identical"
        );
        assert_eq!(
            resumed_trace.rounds,
            baseline_rounds[boundary..],
            "{label}: resumed trace after kill at {kill} diverged"
        );
    }
    std::fs::remove_file(&log).expect("drop log");
    (baseline, baseline_log)
}

fn ranks(n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect()
}

#[test]
fn kill_at_every_boundary_resumes_bit_identically() {
    let logs = scratch_dir("logs");
    let graphs: Vec<(&str, Graph)> = vec![
        (
            "gnp",
            generators::connected_gnp(26, 0.15, &mut StdRng::seed_from_u64(3)),
        ),
        (
            "sparse",
            generators::bounded_arboricity(26, 3, &mut StdRng::seed_from_u64(5)),
        ),
        (
            "smallworld",
            generators::small_world(24, 4, 0.2, &mut StdRng::seed_from_u64(7)),
        ),
        (
            "regular320",
            generators::random_near_regular(320, 8, &mut StdRng::seed_from_u64(9)),
        ),
    ];

    for (gname, graph) in &graphs {
        let n = graph.num_nodes();
        let ids = IdAssignment::identity(n);
        let ranks = ranks(n);
        let mut luby_reports = Vec::new();
        let mut greedy_reports = Vec::new();
        for threads in [1usize, 4] {
            let config = SyncConfig::default().with_threads(threads);
            let (_, luby_plain) = luby::run(graph, &ids, 0xAB, config);
            let label = format!("luby-{gname}");
            luby_reports.push(kill_everywhere(
                &label,
                &logs,
                threads,
                2,
                &luby_plain,
                |cfg, ck, obs| luby::run_checkpointed(graph, &ids, 0xAB, cfg, ck, obs),
                |cfg, ck, obs| luby::resume(graph, &ids, 0xAB, cfg, ck, obs),
            ));

            let (_, greedy_plain) =
                parallel_greedy::run_on_whole_graph(graph, &ids, &ranks, config);
            let label = format!("greedy-{gname}");
            greedy_reports.push(kill_everywhere(
                &label,
                &logs,
                threads,
                3,
                &greedy_plain,
                |cfg, ck, obs| parallel_greedy::run_checkpointed(graph, &ids, &ranks, cfg, ck, obs),
                |cfg, ck, obs| parallel_greedy::resume(graph, &ids, &ranks, cfg, ck, obs),
            ));
        }
        // Thread-invariance: the same cell at 1 and 4 workers is the same
        // execution, so the whole kill matrix above checked one contract.
        assert_eq!(
            luby_reports[0].0, luby_reports[1].0,
            "{gname}: luby threads"
        );
        assert_eq!(
            greedy_reports[0].0, greedy_reports[1].0,
            "{gname}: greedy threads"
        );
        // Every record is a function of the execution alone, so the logs
        // are byte-identical too.
        assert!(
            luby_reports[0].1 == luby_reports[1].1,
            "{gname}: luby log bytes differ across threads"
        );
        assert!(
            greedy_reports[0].1 == greedy_reports[1].1,
            "{gname}: greedy log bytes differ across threads"
        );
    }
    std::fs::remove_dir_all(&logs).expect("drop log scratch dir");
}
