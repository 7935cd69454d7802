//! Engine checkpoints: periodic snapshots of the synchronous round loop
//! and bit-identical resumption after a crash.
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
//! attach the checkpoint to the one synchronous round loop as hooks — a
//! restore step, the boundary record at round start, and the in-flight
//! capture on each boundary's preceding round — composed with the same
//! instrumentation and auditor as [`SyncSimulator::run`]'s. Checkpointed
//! runs step at any thread count, and every record is a function of the
//! execution alone: the log's bytes are the same at every thread count.
//! Resumed runs are **bit-identical** to uninterrupted ones (same reports,
//! outputs and traces), which the `checkpoint_resume` integration suite
//! proves by killing a run at every checkpoint boundary.

use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use symbreak_graphs::NodeId;

use crate::engine::NodeRuntime;
use crate::message::{MAX_ID_FIELDS, MAX_VALUE_FIELDS};
use crate::sync::{Hooks, Resume, RoundLoop};
use crate::trace::TraceMessage;
use crate::{ExecutionReport, Message, NodeAlgorithm, NodeInit, SyncConfig, SyncSimulator};

/// Environment variable naming the directory [`checkpoint_dir`] returns
/// (the system temp dir when unset or empty).
pub const CHECKPOINT_DIR_ENV: &str = "CONGEST_CHECKPOINT_DIR";

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
    /// Rounds between checkpoints (must be ≥ 1; the checkpointed entry
    /// points reject `0` with [`io::ErrorKind::InvalidInput`]).
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
/// the capture hook on each boundary's preceding round, so boundary
/// encoding never re-walks a staged message list.
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

impl SyncSimulator<'_> {
    /// Runs like [`SyncSimulator::run`], snapshotting the loop state to
    /// `checkpoint.path` every `checkpoint.every` rounds. The report —
    /// with the instrumentation `config` asks for — is bit-identical to an
    /// uncheckpointed run's, and the log's bytes are the same at every
    /// thread count. Under `CONGEST_AUDIT=1` the run is audited in deny
    /// mode, like [`SyncSimulator::run`].
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] for a zero cadence (before the log
    /// is created); I/O errors writing the checkpoint log.
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
        A: PersistState + Send,
        F: FnMut(NodeInit<'_>) -> A,
    {
        self.checkpointed(config, checkpoint, false, make)
    }

    /// Resumes an interrupted checkpointed run from the latest valid
    /// checkpoint in `checkpoint.path`, truncating any torn tail and
    /// appending further checkpoints from there. The factory must be the
    /// same deterministic one the interrupted run used; the completed
    /// resumed run is then bit-identical to an uninterrupted
    /// [`SyncSimulator::run_checkpointed`] run, except for the
    /// instrumentation `config` asks for. That records only the rounds this
    /// call runs, from the checkpoint boundary on: the trace's first round
    /// is the boundary's round, and the per-edge counters and utilized
    /// edges cover those rounds alone, so a trace the crash cut short
    /// continues with this one from the boundary. A log holding no valid
    /// checkpoint restarts the run from round 0.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] for a zero cadence (before the log
    /// is touched); [`io::ErrorKind::InvalidData`] when the log's header is
    /// damaged or a recorded automaton state is rejected by
    /// [`PersistState::decode_state`]; ordinary I/O errors otherwise.
    pub fn resume_from<A, F>(
        &self,
        config: SyncConfig,
        checkpoint: &CheckpointConfig,
        make: F,
    ) -> io::Result<ExecutionReport>
    where
        A: PersistState + Send,
        F: FnMut(NodeInit<'_>) -> A,
    {
        self.checkpointed(config, checkpoint, true, make)
    }

    /// Drives the loop with the checkpoint hooks through
    /// [`SyncSimulator::compose`], then syncs the log.
    fn checkpointed<A, F>(
        &self,
        config: SyncConfig,
        checkpoint: &CheckpointConfig,
        resume: bool,
        make: F,
    ) -> io::Result<ExecutionReport>
    where
        A: PersistState + Send,
        F: FnMut(NodeInit<'_>) -> A,
    {
        if checkpoint.every == 0 {
            let what = "checkpoint cadence must be at least one round";
            return Err(io::Error::new(io::ErrorKind::InvalidInput, what));
        }
        let mut checkpointing = Checkpointing {
            config: checkpoint,
            resume,
            writer: None,
            until_boundary: checkpoint.every,
            touched: Vec::new(),
            touched_all: false,
            dirty: Vec::new(),
            in_flight: Vec::new(),
            in_flight_count: 0,
            body: Vec::new(),
            words: Vec::new(),
        };
        let (report, _) = self.compose(config, None, make, &mut checkpointing)?;
        if let Some(writer) = checkpointing.writer {
            writer.finish()?;
        }
        Ok(report)
    }
}

/// The checkpoint hooks: the restore step, one record per boundary at
/// round start, and the in-flight capture on each boundary's preceding
/// round.
struct Checkpointing<'c> {
    config: &'c CheckpointConfig,
    resume: bool,
    /// Opened by the restore step.
    writer: Option<CheckpointWriter>,
    /// Rounds until the next checkpoint boundary — a countdown, because at
    /// tight cadences two 64-bit modulos per round are measurable against
    /// the event-driven loop. Both fresh and resumed runs start a full
    /// cadence away from their next boundary (a resumed run's restart
    /// checkpoint is already in the log and must not be appended again).
    until_boundary: u64,
    /// The active lists of every round since the previous checkpoint,
    /// concatenated (one bulk append per round — per-step marking in the
    /// sink measurably drags the loop). The boundary dedups this into the
    /// touched set using `dirty` as scratch flags (all false in between).
    touched: Vec<u32>,
    /// An all-active round occurred since the previous checkpoint: the
    /// touched set is every node, `touched` is irrelevant.
    touched_all: bool,
    dirty: Vec<bool>,
    /// The capture round encodes in-flight messages straight into wire form
    /// here (count alongside, since records are count-prefixed).
    in_flight: Vec<u8>,
    in_flight_count: u32,
    body: Vec<u8>,
    words: Vec<u64>,
}

impl Checkpointing<'_> {
    /// Serializes the record of the boundary `at` starts into `body`
    /// (everything but the length prefix and trailing checksum).
    fn encode_body<A: PersistState>(&mut self, at: &RoundLoop<'_, A>) {
        let body = &mut self.body;
        body.clear();
        body.extend_from_slice(&at.round.to_le_bytes());
        body.extend_from_slice(&at.messages.to_le_bytes());
        body.extend_from_slice(&at.max_bits.to_le_bytes());
        body.push(u8::from(at.active_all));
        let active: &[u32] = if at.active_all { &[] } else { &at.active };
        body.extend_from_slice(&(active.len() as u32).to_le_bytes());
        for &a in active {
            body.extend_from_slice(&a.to_le_bytes());
        }
        body.extend_from_slice(&self.in_flight_count.to_le_bytes());
        body.extend_from_slice(&self.in_flight);
        // Touched nodes are written in first-touch order (or 0..n when an
        // all-active round fell since the previous boundary); the decoder
        // sorts, keeping the boundary path allocation- and sort-free.
        let n = at.runtime.num_nodes() as u32;
        let touched = if self.touched_all {
            n
        } else {
            self.touched.len() as u32
        };
        body.extend_from_slice(&touched.to_le_bytes());
        for k in 0..touched {
            let i = if self.touched_all {
                k
            } else {
                self.touched[k as usize]
            };
            self.words.clear();
            at.runtime
                .node_ref(i as usize)
                .encode_state(&mut self.words);
            body.extend_from_slice(&i.to_le_bytes());
            body.extend_from_slice(&(self.words.len() as u32).to_le_bytes());
            for &w in &self.words {
                body.extend_from_slice(&w.to_le_bytes());
            }
        }
    }
}

impl<A: PersistState> Hooks<A> for Checkpointing<'_> {
    fn restore(&mut self, runtime: &mut NodeRuntime<'_, A>) -> Resume {
        let n = runtime.num_nodes();
        self.dirty = vec![false; n];
        let path = &self.config.path;
        if !self.resume {
            self.writer = Some(CheckpointWriter::create(path)?);
            return Ok(None);
        }
        let mut chain = CheckpointChain::load(path)?;
        // Fold the incremental state records, oldest first: the last
        // record touching a node wins, untouched nodes stay factory-fresh.
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
        self.writer = Some(CheckpointWriter::append_after(path, chain.valid_end())?);
        Ok(chain.records.pop())
    }

    fn begin_round(&mut self, at: &RoundLoop<'_, A>) -> io::Result<bool> {
        if self.until_boundary == 0 {
            self.until_boundary = self.config.every;
            // Dedup the active lists concatenated since the previous
            // boundary into the touched set (first-occurrence order; the
            // decoder sorts).
            if !self.touched_all {
                let dirty = &mut self.dirty;
                self.touched
                    .retain(|&i| !std::mem::replace(&mut dirty[i as usize], true));
            }
            self.encode_body(at);
            let writer = self
                .writer
                .as_mut()
                .expect("the restore step opens the log");
            writer.write_record(&self.body)?;
            for &i in &self.touched {
                self.dirty[i as usize] = false;
            }
            self.touched.clear();
            self.touched_all = false;
        }
        self.in_flight.clear();
        self.in_flight_count = 0;
        // The stepped set is exactly this round's active set: one bulk
        // append records it for the boundary's touched-set dedup.
        if at.active_all {
            self.touched_all = true;
        } else {
            self.touched.extend_from_slice(&at.active);
        }
        self.until_boundary -= 1;
        // Only the round feeding the next boundary captures its sends.
        Ok(self.until_boundary == 0)
    }

    fn capture(&mut self, from: NodeId, to: NodeId, msg: &Message) {
        self.in_flight_count += 1;
        push_message(&mut self.in_flight, from, to, msg);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::sync::tests::assert_round0_splits;
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

    /// A test's checkpoint log in a directory of its own under
    /// [`checkpoint_dir`]; dropping it removes the directory.
    pub(crate) struct ScratchLog(PathBuf);

    impl ScratchLog {
        pub(crate) fn new(name: &str) -> Self {
            let dir = checkpoint_dir().join(format!("sbck-unit-{}-{name}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            ScratchLog(dir.join("log.sbck"))
        }

        pub(crate) fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for ScratchLog {
        fn drop(&mut self) {
            if let Some(dir) = self.0.parent() {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }

    #[test]
    fn checkpointed_run_matches_plain_run() {
        let g = generators::cycle(64);
        let ids = IdAssignment::identity(64);
        let sim = SyncSimulator::new(&g, &ids, KtLevel::KT1);
        let baseline = sim.run(SyncConfig::default(), fresh);
        let log = ScratchLog::new("match");
        let path = log.path();
        let ckpt = CheckpointConfig::new(path).with_every(4);
        let report = sim
            .run_checkpointed(SyncConfig::default(), &ckpt, fresh)
            .unwrap();
        assert_eq!(report, baseline);
        // The log holds one checkpoint per boundary the run crossed.
        let chain = CheckpointChain::load(path).unwrap();
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
    }

    #[test]
    fn checkpointed_runs_keep_the_instrumentation() {
        let g = generators::cycle(256);
        let ids = IdAssignment::identity(256);
        let sim = SyncSimulator::new(&g, &ids, KtLevel::KT1);
        let log = ScratchLog::new("instrumented");
        let ckpt = CheckpointConfig::new(log.path()).with_every(8);
        for threads in [1, 4] {
            assert_round0_splits(threads);
            let config = SyncConfig::instrumented().with_threads(threads);
            let plain = sim.run(config, fresh);
            assert!(plain.trace.is_some());
            assert!(plain.per_edge_messages.is_some());
            assert!(plain.utilized_edges.is_some());
            let checkpointed = sim.run_checkpointed(config, &ckpt, fresh).unwrap();
            assert_eq!(checkpointed, plain, "{threads} threads");
        }
    }

    #[test]
    fn killed_runs_resume_bit_identically_at_every_boundary() {
        let g = generators::cycle(48);
        let ids = IdAssignment::identity(48);
        let sim = SyncSimulator::new(&g, &ids, KtLevel::KT1);
        let baseline = sim.run(SyncConfig::default(), fresh);
        let log = ScratchLog::new("kill");
        let path = log.path();
        let ckpt = CheckpointConfig::new(path).with_every(5);
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
    }

    #[test]
    fn torn_tails_are_dropped_and_resume_appends() {
        let g = generators::cycle(40);
        let ids = IdAssignment::identity(40);
        let sim = SyncSimulator::new(&g, &ids, KtLevel::KT1);
        let baseline = sim.run(SyncConfig::default(), fresh);
        let log = ScratchLog::new("torn");
        let path = log.path();
        let ckpt = CheckpointConfig::new(path).with_every(4);
        sim.run_checkpointed(SyncConfig::default(), &ckpt, fresh)
            .unwrap();
        let full = CheckpointChain::load(path).unwrap();
        let full_records = full.records().len();
        assert!(full_records >= 2);
        // Tear the final record: truncate mid-body.
        let intact = std::fs::read(path).unwrap();
        std::fs::write(path, &intact[..intact.len() - 9]).unwrap();
        let torn = CheckpointChain::load(path).unwrap();
        assert_eq!(torn.records().len(), full_records - 1);
        assert_eq!(torn.records(), &full.records()[..full_records - 1]);
        // Resuming from the shortened chain still reproduces the run.
        let resumed = sim
            .resume_from(SyncConfig::default(), &ckpt, fresh)
            .unwrap();
        assert_eq!(resumed, baseline);
    }

    #[test]
    fn empty_logs_restart_from_round_zero() {
        let g = generators::path(8);
        let ids = IdAssignment::identity(8);
        let sim = SyncSimulator::new(&g, &ids, KtLevel::KT1);
        let baseline = sim.run(SyncConfig::default(), fresh);
        let log = ScratchLog::new("empty");
        let path = log.path();
        std::fs::write(path, LOG_MAGIC).unwrap();
        let resumed = sim
            .resume_from(SyncConfig::default(), &CheckpointConfig::new(path), fresh)
            .unwrap();
        assert_eq!(resumed, baseline);
    }

    #[test]
    fn damaged_headers_are_invalid_data() {
        let log = ScratchLog::new("header");
        let path = log.path();
        std::fs::write(path, b"NOTACKPT").unwrap();
        let err = CheckpointChain::load(path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::write(path, b"SBCK").unwrap();
        let err = CheckpointChain::load(path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn state_of_folds_incremental_records() {
        let g = generators::cycle(32);
        let ids = IdAssignment::identity(32);
        let sim = SyncSimulator::new(&g, &ids, KtLevel::KT1);
        let log = ScratchLog::new("fold");
        let path = log.path();
        let ckpt = CheckpointConfig::new(path).with_every(3);
        sim.run_checkpointed(SyncConfig::default(), &ckpt, fresh)
            .unwrap();
        let chain = CheckpointChain::load(path).unwrap();
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
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_cadence_is_rejected() {
        let _ = CheckpointConfig::new("x").with_every(0);
    }

    #[test]
    fn zero_cadence_entry_points_return_invalid_input() {
        let g = generators::cycle(8);
        let ids = IdAssignment::identity(8);
        let sim = SyncSimulator::new(&g, &ids, KtLevel::KT1);
        let log = ScratchLog::new("zero");
        let path = log.path();
        let _ = std::fs::remove_file(path);
        // The fields are public, so `with_every`'s check can be bypassed.
        let ckpt = CheckpointConfig {
            path: path.to_path_buf(),
            every: 0,
        };
        let err = sim
            .run_checkpointed(SyncConfig::default(), &ckpt, fresh)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let err = sim
            .resume_from(SyncConfig::default(), &ckpt, fresh)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(!path.exists(), "a rejected run must not create its log");
    }
}
