//! Engine checkpoints: periodic snapshots of the sequential round loop and
//! bit-identical resumption after a crash.
//!
//! A checkpointed run appends one record to a single **append-only log**
//! every [`CheckpointConfig::every`] rounds. Each record captures everything
//! the round loop needs to continue from that boundary:
//!
//! * the loop counters (round, message count, max message bits),
//! * the round's active set (or the "every node" flag),
//! * the in-flight messages — the inboxes the next round will consume,
//!   stored in staging (send) order so the restore path replays them
//!   through the same counting sort that built the original arena,
//! * the automata states of every node **touched since the previous
//!   checkpoint**, through the [`PersistState`] seam (later records
//!   override earlier ones on restore; nodes no record mentions are still
//!   factory-fresh, which the deterministic factory reproduces exactly).
//!
//! Records are length-prefixed and guarded by a trailing 64-bit
//! word-folded FNV-1a checksum covering the whole body (individual
//! in-flight messages carry no per-message checksum — the body digest
//! already covers them). The log is only `fsync`ed when a run finishes: a
//! process crash mid-run can tear the final record, and
//! [`CheckpointChain::load`] simply stops at the last valid one. Resuming
//! truncates the torn tail and appends from there.
//!
//! [`SyncSimulator::run_checkpointed`] and [`SyncSimulator::resume_from`]
//! drive the loop; resumed runs are **bit-identical** to uninterrupted ones
//! (same reports, outputs and traces), which the `checkpoint_resume`
//! integration suite proves by killing a run at every checkpoint boundary.
//! Checkpointed runs always execute on the sequential loop; since reports
//! are bit-identical at every thread count, a sequential resume still
//! reproduces a parallel baseline exactly.

use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use symbreak_graphs::{Graph, NodeId};

use crate::engine::{DeliveryBuffer, MessageArena, NodeRuntime, NoopObserver, RoundObserver};
use crate::message::{MAX_ID_FIELDS, MAX_VALUE_FIELDS};
use crate::sync::next_active;
use crate::trace::TraceMessage;
use crate::{ExecutionReport, Message, NodeAlgorithm, NodeInit, SyncConfig, SyncSimulator};

/// Environment variable naming the directory
/// [`CheckpointConfig::from_env`] places checkpoint logs in (system temp
/// dir when unset or empty).
pub const CHECKPOINT_DIR_ENV: &str = "CONGEST_CHECKPOINT_DIR";

/// Environment variable overriding the checkpoint cadence of
/// [`CheckpointConfig::from_env`] (rounds between checkpoints; default 8).
pub const CHECKPOINT_EVERY_ENV: &str = "CONGEST_CHECKPOINT_EVERY";

/// Default checkpoint cadence in rounds.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 8;

/// Magic number opening every checkpoint log (8 bytes, versioned).
const LOG_MAGIC: &[u8; 8] = b"SBCKLOG1";

/// Smallest possible record body (counters + flags + empty sections).
const MIN_BODY_BYTES: u64 = 8 + 8 + 4 + 1 + 4 + 4;

/// Log writer buffer: full-graph snapshots run to megabytes, and draining
/// them through `BufWriter`'s default 8 KiB buffer costs a syscall per
/// 8 KiB.
const WRITE_BUFFER: usize = 1 << 18;

/// The checkpoint directory: `CONGEST_CHECKPOINT_DIR` if set and non-empty,
/// else the system temp dir.
pub fn checkpoint_dir() -> PathBuf {
    match std::env::var(CHECKPOINT_DIR_ENV) {
        Ok(dir) if !dir.trim().is_empty() => PathBuf::from(dir),
        _ => std::env::temp_dir(),
    }
}

/// Fsyncs the directory containing `path`, making the file's directory
/// entry durable (no-op on platforms where directories cannot be opened).
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        if let Some(parent) = path.parent() {
            let dir = if parent.as_os_str().is_empty() {
                Path::new(".")
            } else {
                parent
            };
            File::open(dir)?.sync_all()?;
        }
    }
    #[cfg(not(unix))]
    {
        let _ = path;
    }
    Ok(())
}

/// Where and how often a checkpointed run snapshots its state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Path of the append-only checkpoint log file.
    pub path: PathBuf,
    /// Rounds between checkpoints (must be ≥ 1).
    pub every: u64,
}

impl CheckpointConfig {
    /// Configuration writing to `path` with the default cadence.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            path: path.into(),
            every: DEFAULT_CHECKPOINT_EVERY,
        }
    }

    /// Sets the checkpoint cadence.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn with_every(mut self, every: u64) -> Self {
        assert!(every > 0, "checkpoint cadence must be at least one round");
        self.every = every;
        self
    }

    /// Configuration from the environment: the log `<stem>.sbck` inside
    /// [`checkpoint_dir`] (`CONGEST_CHECKPOINT_DIR`), with the cadence from
    /// `CONGEST_CHECKPOINT_EVERY` (default [`DEFAULT_CHECKPOINT_EVERY`]).
    pub fn from_env(stem: &str) -> Self {
        let mut config = CheckpointConfig::new(checkpoint_dir().join(format!("{stem}.sbck")));
        if let Ok(raw) = std::env::var(CHECKPOINT_EVERY_ENV) {
            if let Ok(every) = raw.trim().parse::<u64>() {
                if every > 0 {
                    config.every = every;
                }
            }
        }
        config
    }
}

/// The state-snapshot seam of checkpointable automata.
///
/// `encode_state` must capture **everything** that distinguishes this
/// automaton from a factory-fresh one — decision state, counters, RNG
/// cursors (see `StdRng::state`) — as a word sequence; `decode_state`
/// applied to a factory-fresh instance must reproduce the encoded one
/// exactly. Borrowed or factory-derived data (neighbour lists, knowledge
/// views) need not be encoded: restoration always runs the factory first.
pub trait PersistState: NodeAlgorithm {
    /// Appends this automaton's state to `out`.
    fn encode_state(&self, out: &mut Vec<u64>);

    /// Restores a state captured by [`PersistState::encode_state`] into a
    /// factory-fresh instance. Returns `false` when `words` is malformed
    /// (wrong length, out-of-range discriminant, …) — the loader surfaces
    /// that as [`io::ErrorKind::InvalidData`], never a panic.
    #[must_use]
    fn decode_state(&mut self, words: &[u64]) -> bool;
}

/// One decoded checkpoint record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointRecord {
    /// The round boundary this checkpoint was taken at (the next round to
    /// execute).
    pub round: u64,
    /// Messages sent so far.
    pub messages: u64,
    /// Largest message observed so far, in bits.
    pub max_message_bits: u32,
    /// Whether the round's active set is every node (`active` is then
    /// empty).
    pub active_all: bool,
    /// The round's active set, ascending (empty when `active_all`).
    pub active: Vec<u32>,
    /// The in-flight messages the round will consume, in staging (send)
    /// order.
    pub in_flight: Vec<TraceMessage>,
    /// `(node, state words)` for every node touched since the previous
    /// checkpoint, ascending by node.
    pub states: Vec<(u32, Vec<u64>)>,
}

/// A checkpoint log's valid prefix: every record up to (excluding) the
/// first torn or corrupt one.
#[derive(Debug)]
pub struct CheckpointChain {
    records: Vec<CheckpointRecord>,
    valid_end: u64,
}

impl CheckpointChain {
    /// Reads the log's valid prefix. A torn or bit-flipped tail record is
    /// silently dropped (that is the crash-recovery contract); a missing
    /// file or an invalid header is an error.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] when the header is damaged, plus
    /// ordinary I/O errors (e.g. a missing file).
    pub fn load(path: &Path) -> io::Result<Self> {
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let mut magic = [0u8; 8];
        if file_len < 8 {
            return Err(corrupt("checkpoint log shorter than its header"));
        }
        file.read_exact(&mut magic)?;
        if &magic != LOG_MAGIC {
            return Err(corrupt("not a checkpoint log (bad magic)"));
        }
        let mut records = Vec::new();
        let mut offset = 8u64;
        loop {
            let mut len_buf = [0u8; 8];
            if offset + 8 > file_len {
                break;
            }
            file.read_exact(&mut len_buf)?;
            let len = u64::from_le_bytes(len_buf);
            if len < MIN_BODY_BYTES || offset + 8 + len + 8 > file_len {
                break; // Torn length prefix or torn body.
            }
            let mut body = vec![0u8; len as usize];
            file.read_exact(&mut body)?;
            let mut sum_buf = [0u8; 8];
            file.read_exact(&mut sum_buf)?;
            if u64::from_le_bytes(sum_buf) != body_checksum(&body) {
                break; // Bit-flipped or torn record.
            }
            match decode_body(&body) {
                Some(record) => records.push(record),
                None => break,
            }
            offset += 8 + len + 8;
            file.seek(SeekFrom::Start(offset))?;
        }
        Ok(CheckpointChain {
            records,
            valid_end: offset,
        })
    }

    /// The decoded records, oldest first.
    pub fn records(&self) -> &[CheckpointRecord] {
        &self.records
    }

    /// The most recent valid checkpoint, if any.
    pub fn latest(&self) -> Option<&CheckpointRecord> {
        self.records.last()
    }

    /// The most recent valid checkpoint at or before `round`, if any.
    pub fn at_or_before(&self, round: u64) -> Option<&CheckpointRecord> {
        self.records.iter().rev().find(|r| r.round <= round)
    }

    /// Byte offset of the valid prefix's end (where a resumed run appends).
    pub fn valid_end(&self) -> u64 {
        self.valid_end
    }

    /// Folds the incremental state records up to (and including) the
    /// checkpoint at `round`: the latest state words recorded for `node`,
    /// or `None` when no record ≤ `round` touched it (the node is then
    /// factory-fresh at that boundary).
    pub fn state_of(&self, node: u32, round: u64) -> Option<&[u64]> {
        self.records
            .iter()
            .rev()
            .filter(|r| r.round <= round)
            .find_map(|r| {
                r.states
                    .binary_search_by_key(&node, |&(v, _)| v)
                    .ok()
                    .map(|at| r.states[at].1.as_slice())
            })
    }
}

fn corrupt(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// 64-bit FNV-1a folded over whole little-endian words, with the byte
/// length mixed in last. Checkpoint bodies run to kilobytes at tight
/// cadences, where the trace store's byte-serial FNV (one carried multiply
/// per byte) would dominate the boundary cost; folding eight bytes per
/// multiply keeps the digest's bit-sensitivity (XOR then odd multiply is
/// injective per chunk) at an eighth of the chain length.
fn body_checksum(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        h ^= u64::from_le_bytes(chunk.try_into().expect("exact chunk"));
        h = h.wrapping_mul(PRIME);
    }
    let rem = chunks.remainder();
    let mut tail = [0u8; 8];
    tail[..rem.len()].copy_from_slice(rem);
    h ^= u64::from_le_bytes(tail);
    h = h.wrapping_mul(PRIME);
    // Zero-padding the tail aliases lengths; the explicit length chunk
    // disambiguates them.
    h ^= bytes.len() as u64;
    h.wrapping_mul(PRIME)
}

/// Appends one in-flight message in the body's compact wire form: sender,
/// receiver, tag, field counts, then only the declared id/value words (no
/// per-message checksum — the whole-body digest covers them). Called from
/// the round loop's message sink on capture rounds, so boundary encoding
/// never re-walks a staged message list.
fn push_message(buf: &mut Vec<u8>, from: NodeId, to: NodeId, msg: &Message) {
    let ids = msg.ids();
    let values = msg.values();
    buf.extend_from_slice(&from.0.to_le_bytes());
    buf.extend_from_slice(&to.0.to_le_bytes());
    buf.extend_from_slice(&msg.tag().to_le_bytes());
    buf.push(ids.len() as u8);
    buf.push(values.len() as u8);
    for &w in ids.iter().chain(values) {
        buf.extend_from_slice(&w.to_le_bytes());
    }
}

/// Serializes one checkpoint body (everything but the length prefix and
/// trailing checksum).
#[allow(clippy::too_many_arguments)]
fn encode_body<A: PersistState>(
    body: &mut Vec<u8>,
    round: u64,
    messages: u64,
    max_bits: u32,
    active_all: bool,
    active: &[u32],
    in_flight_count: u32,
    in_flight_bytes: &[u8],
    touched_all: bool,
    touched: &[u32],
    runtime: &NodeRuntime<'_, A>,
    words: &mut Vec<u64>,
) {
    body.clear();
    body.extend_from_slice(&round.to_le_bytes());
    body.extend_from_slice(&messages.to_le_bytes());
    body.extend_from_slice(&max_bits.to_le_bytes());
    body.push(u8::from(active_all));
    if active_all {
        body.extend_from_slice(&0u32.to_le_bytes());
    } else {
        body.extend_from_slice(&(active.len() as u32).to_le_bytes());
        for &a in active {
            body.extend_from_slice(&a.to_le_bytes());
        }
    }
    body.extend_from_slice(&in_flight_count.to_le_bytes());
    body.extend_from_slice(in_flight_bytes);
    // Touched nodes are written in first-touch order (or 0..n when an
    // all-active round fell in the window); the decoder sorts, keeping the
    // boundary path allocation- and sort-free.
    let mut emit = |body: &mut Vec<u8>, i: u32| {
        words.clear();
        runtime.node_ref(i as usize).encode_state(words);
        body.extend_from_slice(&i.to_le_bytes());
        body.extend_from_slice(&(words.len() as u32).to_le_bytes());
        for &w in words.iter() {
            body.extend_from_slice(&w.to_le_bytes());
        }
    };
    if touched_all {
        let n = runtime.num_nodes() as u32;
        body.extend_from_slice(&n.to_le_bytes());
        for i in 0..n {
            emit(body, i);
        }
    } else {
        body.extend_from_slice(&(touched.len() as u32).to_le_bytes());
        for &i in touched {
            emit(body, i);
        }
    }
}

/// Deserializes one checkpoint body; `None` marks a malformed interior
/// (the caller treats it as the log's torn tail).
fn decode_body(body: &[u8]) -> Option<CheckpointRecord> {
    let mut at = 0usize;
    let mut take = |len: usize| -> Option<&[u8]> {
        let slice = body.get(at..at + len)?;
        at += len;
        Some(slice)
    };
    let round = u64::from_le_bytes(take(8)?.try_into().ok()?);
    let messages = u64::from_le_bytes(take(8)?.try_into().ok()?);
    let max_message_bits = u32::from_le_bytes(take(4)?.try_into().ok()?);
    let active_all = match take(1)?[0] {
        0 => false,
        1 => true,
        _ => return None,
    };
    let active_len = u32::from_le_bytes(take(4)?.try_into().ok()?) as usize;
    if active_all && active_len != 0 {
        return None;
    }
    let mut active = Vec::with_capacity(active_len.min(body.len() / 4));
    for _ in 0..active_len {
        active.push(u32::from_le_bytes(take(4)?.try_into().ok()?));
    }
    let in_flight_len = u32::from_le_bytes(take(4)?.try_into().ok()?) as usize;
    let mut in_flight = Vec::with_capacity(in_flight_len.min(body.len() / 12));
    for _ in 0..in_flight_len {
        let from = NodeId(u32::from_le_bytes(take(4)?.try_into().ok()?));
        let to = NodeId(u32::from_le_bytes(take(4)?.try_into().ok()?));
        let tag = u16::from_le_bytes(take(2)?.try_into().ok()?);
        let num_ids = take(1)?[0] as usize;
        let num_values = take(1)?[0] as usize;
        if num_ids > MAX_ID_FIELDS || num_values > MAX_VALUE_FIELDS {
            return None;
        }
        let mut message = Message::tagged(tag);
        for _ in 0..num_ids {
            message = message.with_id(u64::from_le_bytes(take(8)?.try_into().ok()?));
        }
        for _ in 0..num_values {
            message = message.with_value(u64::from_le_bytes(take(8)?.try_into().ok()?));
        }
        in_flight.push(TraceMessage { from, to, message });
    }
    let states_len = u32::from_le_bytes(take(4)?.try_into().ok()?) as usize;
    let mut states: Vec<(u32, Vec<u64>)> = Vec::with_capacity(states_len.min(body.len() / 8));
    for _ in 0..states_len {
        let node = u32::from_le_bytes(take(4)?.try_into().ok()?);
        let words_len = u32::from_le_bytes(take(4)?.try_into().ok()?) as usize;
        let mut words = Vec::with_capacity(words_len.min(body.len() / 8));
        for _ in 0..words_len {
            words.push(u64::from_le_bytes(take(8)?.try_into().ok()?));
        }
        states.push((node, words));
    }
    if at != body.len() {
        return None; // Trailing garbage inside a checksummed body.
    }
    // The writer emits touched nodes in step order; sort here so
    // [`CheckpointChain::state_of`] can binary-search. A node listed twice
    // in one record is malformed (the writer's dirty set is unique).
    states.sort_unstable_by_key(|&(node, _)| node);
    if states.windows(2).any(|w| w[0].0 == w[1].0) {
        return None;
    }
    Some(CheckpointRecord {
        round,
        messages,
        max_message_bits,
        active_all,
        active,
        in_flight,
        states,
    })
}

/// The append-only log writer. Records are buffered ([`BufWriter`]
/// flushes to the OS as its buffer fills) and `fsync`ed once at
/// [`CheckpointWriter::finish`] — per-record syscalls would dominate the
/// loop at tight cadences. A process kill therefore recovers from the
/// last OS-flushed prefix, possibly a few boundaries behind the last
/// encoded record; a torn tail is dropped by [`CheckpointChain::load`]
/// either way.
struct CheckpointWriter {
    writer: BufWriter<File>,
    path: PathBuf,
}

impl CheckpointWriter {
    /// Creates a fresh log (truncating any previous one) and writes the
    /// header.
    fn create(path: &Path) -> io::Result<Self> {
        let mut writer = BufWriter::with_capacity(WRITE_BUFFER, File::create(path)?);
        writer.write_all(LOG_MAGIC)?;
        Ok(CheckpointWriter {
            writer,
            path: path.to_path_buf(),
        })
    }

    /// Reopens an existing log for appending after its valid prefix,
    /// truncating any torn tail.
    fn append_after(path: &Path, valid_end: u64) -> io::Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(valid_end)?;
        let mut writer = BufWriter::with_capacity(WRITE_BUFFER, file);
        writer.seek(SeekFrom::Start(valid_end))?;
        Ok(CheckpointWriter {
            writer,
            path: path.to_path_buf(),
        })
    }

    /// Appends one record (length prefix, body, checksum) to the buffer.
    fn write_record(&mut self, body: &[u8]) -> io::Result<()> {
        self.writer.write_all(&(body.len() as u64).to_le_bytes())?;
        self.writer.write_all(body)?;
        self.writer.write_all(&body_checksum(body).to_le_bytes())
    }

    /// Flushes and `fsync`s the log and its parent directory.
    fn finish(mut self) -> io::Result<()> {
        self.writer.flush()?;
        self.writer.get_ref().sync_all()?;
        drop(self.writer);
        sync_parent_dir(&self.path)
    }
}

impl<'g> SyncSimulator<'g> {
    /// Runs like [`SyncSimulator::run`], snapshotting the loop state to
    /// `checkpoint.path` every `checkpoint.every` rounds. The report is
    /// bit-identical to an uncheckpointed run at any thread count (the
    /// checkpointed loop itself always executes sequentially, which is
    /// already report-equivalent); the built-in instrumentation fields stay
    /// `None` — attach an observer via
    /// [`SyncSimulator::run_checkpointed_observed`] instead.
    ///
    /// # Errors
    ///
    /// I/O errors writing the checkpoint log.
    ///
    /// # Panics
    ///
    /// As [`SyncSimulator::run`] (bit-budget or non-neighbour sends).
    pub fn run_checkpointed<A, F>(
        &self,
        config: SyncConfig,
        checkpoint: &CheckpointConfig,
        make: F,
    ) -> io::Result<ExecutionReport>
    where
        A: PersistState,
        F: FnMut(NodeInit<'_>) -> A,
    {
        run_loop(self, config, checkpoint, make, &mut NoopObserver, false)
    }

    /// [`SyncSimulator::run_checkpointed`] with a caller-supplied
    /// [`RoundObserver`] receiving every message and round boundary.
    ///
    /// # Errors
    ///
    /// I/O errors writing the checkpoint log.
    pub fn run_checkpointed_observed<A, F, O>(
        &self,
        config: SyncConfig,
        checkpoint: &CheckpointConfig,
        make: F,
        observer: &mut O,
    ) -> io::Result<ExecutionReport>
    where
        A: PersistState,
        F: FnMut(NodeInit<'_>) -> A,
        O: RoundObserver,
    {
        run_loop(self, config, checkpoint, make, observer, false)
    }

    /// Resumes an interrupted checkpointed run from the latest valid
    /// checkpoint in `checkpoint.path`, truncating any torn tail and
    /// appending further checkpoints from there. The factory must be the
    /// same deterministic one the interrupted run used; the completed
    /// resumed run is then bit-identical to an uninterrupted
    /// [`SyncSimulator::run_checkpointed`] run. A log holding no valid
    /// checkpoint restarts the run from round 0.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] when the log's header is damaged or a
    /// recorded automaton state is rejected by
    /// [`PersistState::decode_state`]; ordinary I/O errors otherwise.
    pub fn resume_from<A, F>(
        &self,
        config: SyncConfig,
        checkpoint: &CheckpointConfig,
        make: F,
    ) -> io::Result<ExecutionReport>
    where
        A: PersistState,
        F: FnMut(NodeInit<'_>) -> A,
    {
        run_loop(self, config, checkpoint, make, &mut NoopObserver, true)
    }

    /// [`SyncSimulator::resume_from`] with a caller-supplied
    /// [`RoundObserver`]; it sees only the resumed rounds, from the
    /// checkpoint boundary on. A recording the crash cut short continues
    /// from its rounds before that boundary.
    ///
    /// # Errors
    ///
    /// As [`SyncSimulator::resume_from`].
    pub fn resume_from_observed<A, F, O>(
        &self,
        config: SyncConfig,
        checkpoint: &CheckpointConfig,
        make: F,
        observer: &mut O,
    ) -> io::Result<ExecutionReport>
    where
        A: PersistState,
        F: FnMut(NodeInit<'_>) -> A,
        O: RoundObserver,
    {
        run_loop(self, config, checkpoint, make, observer, true)
    }
}

/// The mutable per-run bookkeeping [`run_loop`] shares with its stepping
/// pass [`step_active`].
struct LoopState {
    messages: u64,
    max_bits: u32,
    /// Per-node done flags plus the count of nodes still undone.
    done: Vec<bool>,
    undone_count: usize,
    /// Stepped-but-not-done nodes of the current round (ascending).
    undone: Vec<u32>,
    /// The active lists of every round since the previous checkpoint,
    /// concatenated (one bulk append per round — per-step marking in the
    /// sink measurably drags the loop). The boundary dedups this into the
    /// touched set using `dirty` as scratch flags (all false in between).
    window_nodes: Vec<u32>,
    /// An all-active round occurred since the previous checkpoint: the
    /// touched set is every node, `window_nodes` is irrelevant.
    window_all: bool,
    dirty: Vec<bool>,
    /// Capture rounds encode in-flight messages straight into wire form
    /// here (count alongside, since records are count-prefixed).
    in_flight_buf: Vec<u8>,
    in_flight_count: u32,
}

/// One round's stepping pass, monomorphized over whether the round feeds
/// the next checkpoint boundary. `CAPTURE` is a const so the seven-of-
/// eight non-capture rounds compile to a message sink with no capture
/// code in it at all — with a runtime flag instead, the extra branch and
/// buffer accesses in the sink measurably drag the whole loop below the
/// plain engine (the sink is the innermost hot path).
#[allow(clippy::too_many_arguments)]
fn step_active<A, O, const CAPTURE: bool>(
    graph: &Graph,
    runtime: &mut NodeRuntime<'_, A>,
    arena: &MessageArena,
    staging: &mut DeliveryBuffer,
    observer: &mut O,
    bit_limit: u32,
    rounds: u64,
    active_all: bool,
    active: &[u32],
    st: &mut LoopState,
) where
    A: PersistState,
    O: RoundObserver,
{
    let defer_undone = active_all;
    let LoopState {
        messages,
        max_bits,
        done,
        undone_count,
        undone,
        in_flight_buf,
        in_flight_count,
        ..
    } = st;
    let mut step_one = |i: usize| {
        let mut sink = |from: NodeId, to: NodeId, msg: Message| {
            *messages += 1;
            if O::ACTIVE {
                let edge = graph
                    .edge_between(from, to)
                    .expect("send target verified to be a neighbour");
                observer.on_message(from, to, edge, &msg);
            }
            if CAPTURE {
                *in_flight_count += 1;
                push_message(in_flight_buf, from, to, &msg);
            }
            staging.stage(to, msg);
        };
        let now_done = runtime.step(i, rounds, arena.inbox(i), bit_limit, max_bits, &mut sink);
        if now_done != done[i] {
            done[i] = now_done;
            if now_done {
                *undone_count -= 1;
            } else {
                *undone_count += 1;
            }
        }
        if !now_done && !defer_undone {
            undone.push(i as u32);
        }
    };
    if active_all {
        for i in 0..graph.num_nodes() {
            step_one(i);
        }
    } else {
        for &iu in active {
            step_one(iu as usize);
        }
    }
}

/// The checkpointed sequential round loop — [`crate::sync`]'s sequential
/// loop plus dirty-node tracking, in-flight capture on pre-boundary rounds
/// and the restore path. Event-driven exactly like the plain loop, so
/// reports are bit-identical.
fn run_loop<A, F, O>(
    sim: &SyncSimulator<'_>,
    config: SyncConfig,
    checkpoint: &CheckpointConfig,
    mut make: F,
    observer: &mut O,
    resume: bool,
) -> io::Result<ExecutionReport>
where
    A: PersistState,
    F: FnMut(NodeInit<'_>) -> A,
    O: RoundObserver,
{
    assert!(
        checkpoint.every > 0,
        "checkpoint cadence must be at least one round"
    );
    let graph = sim.graph();
    let n = graph.num_nodes();
    let every = checkpoint.every;
    let mut runtime = NodeRuntime::new(graph, sim.ids(), sim.level(), &mut make);
    let mut arena = MessageArena::new(n);
    let mut staging = DeliveryBuffer::new(n);

    let mut rounds: u64 = 0;
    let mut completed = false;
    let mut active: Vec<u32> = (0..n as u32).collect();
    let mut active_all = true;
    let mut receivers: Vec<u32> = Vec::new();
    let mut st = LoopState {
        messages: 0,
        max_bits: 0,
        done: Vec::new(),
        undone_count: 0,
        undone: Vec::new(),
        window_nodes: Vec::new(),
        window_all: false,
        dirty: vec![false; n],
        in_flight_buf: Vec::new(),
        in_flight_count: 0,
    };

    let mut writer = if resume {
        let chain = CheckpointChain::load(&checkpoint.path)?;
        if let Some(record) = chain.latest() {
            // Fold the incremental state records, oldest first: the last
            // record touching a node wins, untouched nodes stay
            // factory-fresh.
            for rec in chain.records() {
                for (node, words) in &rec.states {
                    let i = *node as usize;
                    if i >= n || !runtime.node_mut(i).decode_state(words) {
                        return Err(corrupt(
                            "checkpointed automaton state rejected by decode_state",
                        ));
                    }
                }
            }
            // Replay the in-flight messages through the flat counting sort;
            // it reproduces the original arena's inboxes exactly (both
            // delivery layouts group identically).
            for tm in &record.in_flight {
                staging.stage(tm.to, tm.message);
            }
            staging.flip(&mut arena, &mut receivers);
            st.messages = record.messages;
            st.max_bits = record.max_message_bits;
            rounds = record.round;
            active_all = record.active_all;
            if !active_all {
                active.clear();
                active.extend_from_slice(&record.active);
            }
        }
        CheckpointWriter::append_after(&checkpoint.path, chain.valid_end())?
    } else {
        CheckpointWriter::create(&checkpoint.path)?
    };

    st.done = runtime.done_flags();
    st.undone_count = st.done.iter().filter(|&&d| !d).count();
    let mut body: Vec<u8> = Vec::new();
    let mut words: Vec<u64> = Vec::new();
    // Rounds until the next checkpoint boundary — a countdown, because at
    // tight cadences two 64-bit modulos per round are measurable against
    // the event-driven loop. Both fresh and resumed runs start a full
    // cadence away from their next boundary (a resumed run's restart
    // checkpoint is already in the log and must not be appended again).
    let mut until_boundary = every;

    loop {
        if rounds > 0 && arena.len() == 0 && st.undone_count == 0 {
            completed = true;
            break;
        }
        if rounds >= config.max_rounds {
            break;
        }

        if until_boundary == 0 {
            until_boundary = every;
            // Dedup the window's concatenated active lists into the touched
            // set (first-occurrence order; the decoder sorts).
            if !st.window_all {
                let mut keep = 0;
                for k in 0..st.window_nodes.len() {
                    let i = st.window_nodes[k];
                    if !st.dirty[i as usize] {
                        st.dirty[i as usize] = true;
                        st.window_nodes[keep] = i;
                        keep += 1;
                    }
                }
                st.window_nodes.truncate(keep);
            }
            encode_body(
                &mut body,
                rounds,
                st.messages,
                st.max_bits,
                active_all,
                &active,
                st.in_flight_count,
                &st.in_flight_buf,
                st.window_all,
                &st.window_nodes,
                &runtime,
                &mut words,
            );
            writer.write_record(&body)?;
            for &i in &st.window_nodes {
                st.dirty[i as usize] = false;
            }
            st.window_nodes.clear();
            st.window_all = false;
        }
        st.in_flight_buf.clear();
        st.in_flight_count = 0;
        // The stepped set is exactly this round's active set: one bulk
        // append records it for the boundary's touched-set dedup.
        if active_all {
            st.window_all = true;
        } else {
            st.window_nodes.extend_from_slice(&active);
        }

        staging.set_dense(if active_all {
            runtime.dense_full()
        } else {
            runtime.dense_round(&active)
        });
        st.undone.clear();
        let defer_undone = active_all;
        // Only the round feeding the next checkpoint boundary pays for the
        // in-flight capture (a distinct monomorphization of the pass).
        if until_boundary == 1 {
            step_active::<_, _, true>(
                graph,
                &mut runtime,
                &arena,
                &mut staging,
                observer,
                config.message_bit_limit,
                rounds,
                active_all,
                &active,
                &mut st,
            );
        } else {
            step_active::<_, _, false>(
                graph,
                &mut runtime,
                &arena,
                &mut staging,
                observer,
                config.message_bit_limit,
                rounds,
                active_all,
                &active,
                &mut st,
            );
        }

        if O::ACTIVE {
            observer.on_round_end(rounds);
        }
        active_all = if staging.flip(&mut arena, &mut receivers) {
            true
        } else {
            if defer_undone && st.undone_count > 0 {
                st.undone.extend(
                    st.done
                        .iter()
                        .enumerate()
                        .filter(|&(_, &d)| !d)
                        .map(|(i, _)| i as u32),
                );
            }
            next_active(&mut receivers, &st.undone, &mut active, n)
        };
        rounds += 1;
        until_boundary -= 1;
    }

    writer.finish()?;
    Ok(ExecutionReport {
        completed,
        rounds,
        messages: st.messages,
        max_message_bits: st.max_bits,
        outputs: runtime.outputs(),
        per_edge_messages: None,
        utilized_edges: None,
        trace: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KtLevel, RoundContext};
    use symbreak_graphs::{generators, IdAssignment};

    /// The crate-doc flooding automaton, made checkpointable.
    struct Flood {
        have: bool,
        done: bool,
    }

    impl NodeAlgorithm for Flood {
        fn on_round(&mut self, ctx: &mut RoundContext<'_>, inbox: &[Message]) {
            let newly =
                (ctx.round() == 0 && ctx.node().0 == 0) || (!self.have && !inbox.is_empty());
            if newly {
                self.have = true;
                ctx.broadcast(&Message::tagged(1));
            } else if self.have {
                self.done = true;
            }
        }
        fn is_done(&self) -> bool {
            self.done
        }
        fn output(&self) -> Option<u64> {
            Some(u64::from(self.have))
        }
    }

    impl PersistState for Flood {
        fn encode_state(&self, out: &mut Vec<u64>) {
            out.push(u64::from(self.have) | (u64::from(self.done) << 1));
        }
        fn decode_state(&mut self, words: &[u64]) -> bool {
            match words {
                [bits] if *bits <= 3 => {
                    self.have = bits & 1 != 0;
                    self.done = bits & 2 != 0;
                    true
                }
                _ => false,
            }
        }
    }

    fn fresh(_init: NodeInit<'_>) -> Flood {
        Flood {
            have: false,
            done: false,
        }
    }

    fn scratch_log(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sbck-unit-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("log.sbck")
    }

    #[test]
    fn checkpointed_run_matches_plain_run() {
        let g = generators::cycle(64);
        let ids = IdAssignment::identity(64);
        let sim = SyncSimulator::new(&g, &ids, KtLevel::KT1);
        let baseline = sim.run(SyncConfig::default(), fresh);
        let path = scratch_log("match");
        let ckpt = CheckpointConfig::new(&path).with_every(4);
        let report = sim
            .run_checkpointed(SyncConfig::default(), &ckpt, fresh)
            .unwrap();
        assert_eq!(report, baseline);
        // The log holds one checkpoint per boundary the run crossed.
        let chain = CheckpointChain::load(&path).unwrap();
        assert_eq!(
            chain.records().len(),
            (baseline.rounds as usize - 1) / 4,
            "one record per crossed boundary"
        );
        // Flood's frontier is two nodes per round, so later incremental
        // checkpoints stay frontier-sized instead of O(n).
        let last = chain.latest().unwrap();
        assert!(
            last.states.len() < 16,
            "incremental, got {}",
            last.states.len()
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn killed_runs_resume_bit_identically_at_every_boundary() {
        let g = generators::cycle(48);
        let ids = IdAssignment::identity(48);
        let sim = SyncSimulator::new(&g, &ids, KtLevel::KT1);
        let baseline = sim.run(SyncConfig::default(), fresh);
        let path = scratch_log("kill");
        let ckpt = CheckpointConfig::new(&path).with_every(5);
        let mut boundary = 5;
        while boundary < baseline.rounds {
            // "Kill" the run at the boundary by capping its round budget …
            let partial = sim
                .run_checkpointed(
                    SyncConfig::default().with_max_rounds(boundary),
                    &ckpt,
                    fresh,
                )
                .unwrap();
            assert!(!partial.completed);
            // … then resume with the full budget from the surviving log.
            let resumed = sim
                .resume_from(SyncConfig::default(), &ckpt, fresh)
                .unwrap();
            assert_eq!(resumed, baseline, "kill at round {boundary}");
            boundary += 5;
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tails_are_dropped_and_resume_appends() {
        let g = generators::cycle(40);
        let ids = IdAssignment::identity(40);
        let sim = SyncSimulator::new(&g, &ids, KtLevel::KT1);
        let baseline = sim.run(SyncConfig::default(), fresh);
        let path = scratch_log("torn");
        let ckpt = CheckpointConfig::new(&path).with_every(4);
        sim.run_checkpointed(SyncConfig::default(), &ckpt, fresh)
            .unwrap();
        let full = CheckpointChain::load(&path).unwrap();
        let full_records = full.records().len();
        assert!(full_records >= 2);
        // Tear the final record: truncate mid-body.
        let intact = std::fs::read(&path).unwrap();
        std::fs::write(&path, &intact[..intact.len() - 9]).unwrap();
        let torn = CheckpointChain::load(&path).unwrap();
        assert_eq!(torn.records().len(), full_records - 1);
        assert_eq!(torn.records(), &full.records()[..full_records - 1]);
        // Resuming from the shortened chain still reproduces the run.
        let resumed = sim
            .resume_from(SyncConfig::default(), &ckpt, fresh)
            .unwrap();
        assert_eq!(resumed, baseline);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_logs_restart_from_round_zero() {
        let g = generators::path(8);
        let ids = IdAssignment::identity(8);
        let sim = SyncSimulator::new(&g, &ids, KtLevel::KT1);
        let baseline = sim.run(SyncConfig::default(), fresh);
        let path = scratch_log("empty");
        std::fs::write(&path, LOG_MAGIC).unwrap();
        let resumed = sim
            .resume_from(SyncConfig::default(), &CheckpointConfig::new(&path), fresh)
            .unwrap();
        assert_eq!(resumed, baseline);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn damaged_headers_are_invalid_data() {
        let path = scratch_log("header");
        std::fs::write(&path, b"NOTACKPT").unwrap();
        let err = CheckpointChain::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::write(&path, b"SBCK").unwrap();
        let err = CheckpointChain::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn state_of_folds_incremental_records() {
        let g = generators::cycle(32);
        let ids = IdAssignment::identity(32);
        let sim = SyncSimulator::new(&g, &ids, KtLevel::KT1);
        let path = scratch_log("fold");
        let ckpt = CheckpointConfig::new(&path).with_every(3);
        sim.run_checkpointed(SyncConfig::default(), &ckpt, fresh)
            .unwrap();
        let chain = CheckpointChain::load(&path).unwrap();
        let last_round = chain.latest().unwrap().round;
        // Node 0 floods in round 0 and is done well before the last
        // checkpoint: its folded state must say so.
        assert_eq!(chain.state_of(0, last_round), Some(&[3u64][..]));
        // Round 0 steps every node, so the first checkpoint is full: the
        // cycle's antipode is recorded too, still in its factory state.
        assert_eq!(
            chain.state_of(16, chain.records()[0].round),
            Some(&[0u64][..])
        );
        // Later checkpoints are incremental: the second record only carries
        // the nodes the frontier touched between the boundaries.
        assert!(chain.records()[1].states.len() < 32);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_cadence_is_rejected() {
        let _ = CheckpointConfig::new("x").with_every(0);
    }
}
