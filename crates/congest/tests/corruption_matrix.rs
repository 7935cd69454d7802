//! Corruption matrix over the on-disk format of the crash-recovery
//! subsystem: the checkpoint log (`SBCKLOG1`).
//!
//! The matrix applies
//!
//! * **truncation at every byte length** `0..len` (covering every field
//!   boundary of every record), and
//! * **a bit flip at every byte offset**,
//!
//! and requires the loader to either recover a valid prefix of the
//! append-only log or fail with a clean [`io::Error`] — `InvalidData` for
//! detected corruption, `UnexpectedEof` only for cuts inside the fixed
//! header. Panics and wrong-but-accepted data are the failures this matrix
//! exists to catch: every successfully loaded log is re-validated against
//! the pristine original. Intact logs that another run wrote — under the
//! other MIS priority rule, or on a larger graph — must be refused on
//! resume with `InvalidData`.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::SeedableRng;
use symbreak_classic::mis::{self, Priority};
use symbreak_congest::checkpoint::checkpoint_dir;
use symbreak_congest::{CheckpointChain, CheckpointConfig, SyncConfig};
use symbreak_graphs::{generators, Graph, IdAssignment};

/// A scratch directory under [`checkpoint_dir`], so the CI chaos-recovery
/// job's tmpdir-hygiene check covers this suite's artifacts too.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = checkpoint_dir().join(format!("sb-corrupt-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Asserts a loader outcome is acceptable for a damaged file: clean
/// recovery or a clean error, never a panic (panics abort the test on
/// their own) and never an exotic error kind.
fn acceptable_error(err: &io::Error, what: &str, detail: &str) {
    assert!(
        matches!(
            err.kind(),
            io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
        ),
        "{what} ({detail}): unexpected error kind {:?}",
        err.kind()
    );
}

/// Runs `check` on a copy of `bytes` truncated to every length and with a
/// bit flipped at every byte offset. `check` loads the artifact from the
/// scratch path and validates whatever it managed to read.
fn sweep(bytes: &[u8], path: &Path, mut check: impl FnMut(&str)) {
    for len in 0..bytes.len() {
        fs::write(path, &bytes[..len]).expect("write truncated copy");
        check(&format!("truncated to {len}"));
    }
    let mut copy = bytes.to_vec();
    for i in 0..copy.len() {
        copy[i] ^= 0x40;
        fs::write(path, &copy).expect("write flipped copy");
        check(&format!("bit flip at byte {i}"));
        copy[i] ^= 0x40;
    }
    fs::write(path, bytes).expect("restore pristine copy");
}

#[test]
fn checkpoint_log_survives_truncation_and_bit_flips() {
    let dir = scratch_dir("ckpt");
    let graph = generators::connected_gnp(16, 0.25, &mut StdRng::seed_from_u64(3));
    let ids = IdAssignment::identity(16);
    let log = dir.join("luby.sbck");
    let ckpt = CheckpointConfig::new(&log).with_every(2);
    let report = mis::run_checkpointed(
        &graph,
        &ids,
        Priority::Luby(5),
        SyncConfig::default(),
        &ckpt,
    )
    .expect("checkpointed run");
    assert!(report.completed);

    let bytes = fs::read(&log).expect("read log");
    let pristine = CheckpointChain::load(&log).expect("pristine log loads");
    assert!(!pristine.records().is_empty(), "log must hold checkpoints");
    let damaged = dir.join("damaged.sbck");
    sweep(&bytes, &damaged, |detail| {
        match CheckpointChain::load(&damaged) {
            // The valid prefix contract: whatever loads is a prefix of the
            // pristine chain, field for field.
            Ok(chain) => {
                assert!(chain.records().len() <= pristine.records().len());
                for (got, want) in chain.records().iter().zip(pristine.records()) {
                    assert_eq!(got.round, want.round, "checkpoint log ({detail})");
                }
            }
            Err(e) => acceptable_error(&e, "checkpoint log", detail),
        }
    });
    fs::remove_dir_all(&dir).expect("drop scratch");
}

#[test]
fn foreign_checkpoint_logs_are_refused_on_resume() {
    let dir = scratch_dir("foreign");
    let instance = |n: usize| {
        let graph = generators::connected_gnp(n, 0.25, &mut StdRng::seed_from_u64(3));
        (graph, IdAssignment::identity(n))
    };
    let (small, small_ids) = instance(30);
    let (large, large_ids) = instance(40);
    let ranks: Vec<u64> = (0..30).map(|i| (i * 7919) % 1000).collect();
    let (luby, rank) = (Priority::Luby(5), Priority::Rank(&ranks));
    let write = |name: &str, graph: &Graph, ids: &IdAssignment, priority| {
        let ckpt = CheckpointConfig::new(dir.join(name)).with_every(2);
        let report = mis::run_checkpointed(graph, ids, priority, SyncConfig::default(), &ckpt)
            .expect("checkpointed run");
        assert!(report.completed, "{name}");
        ckpt
    };
    let cases = [
        (
            "luby log under rank",
            write("luby.sbck", &small, &small_ids, luby),
            rank,
        ),
        (
            "rank log under luby",
            write("rank.sbck", &small, &small_ids, rank),
            luby,
        ),
        (
            "40-node log on 30 nodes",
            write("large.sbck", &large, &large_ids, luby),
            luby,
        ),
    ];
    for (what, ckpt, priority) in &cases {
        let err = mis::resume(&small, &small_ids, *priority, SyncConfig::default(), ckpt)
            .expect_err(what);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        assert!(err.to_string().contains("decode_state"), "{what}: {err}");
    }
    fs::remove_dir_all(&dir).expect("drop scratch");
}
