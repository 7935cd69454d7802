//! Spans and allocation counts for the traced run.
//!
//! The benchmark records a span around every layer call it makes: name,
//! start, end, CPU time, parent span and the pass it belongs to. Spans
//! stay in memory and are written out once, under a temporary name that is
//! renamed when the file is complete. With tracing off, [`Tracer::span`] is a branch and
//! a call.
//!
//! [`CountingAlloc`] counts allocations and allocated bytes. Only the traced
//! binary installs it as the global allocator; in the untraced binary the
//! counters stay at zero and nothing is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::clock::cpu_now;

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);

/// A global allocator that forwards to [`System`] and counts every
/// allocation (and reallocation) with its requested size.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain statistics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` requirements pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System` underneath; the caller guarantees the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn count(bytes: usize) {
    // Relaxed: the counters publish no other data.
    ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// Allocated bytes and allocation count so far (both zero unless
/// [`CountingAlloc`] is the global allocator).
pub fn alloc_snapshot() -> Alloc {
    Alloc {
        bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        count: ALLOC_COUNT.load(Ordering::Relaxed),
    }
}

/// Allocation totals, or the difference of two snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Alloc {
    /// Requested bytes.
    pub bytes: u64,
    /// Allocation calls.
    pub count: u64,
}

impl Alloc {
    /// The allocations made since `earlier`.
    pub fn since(self, earlier: Alloc) -> Alloc {
        Alloc {
            bytes: self.bytes - earlier.bytes,
            count: self.count - earlier.count,
        }
    }
}

/// Which part of a run a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Building the inputs.
    Setup,
    /// The untimed warm-up pass.
    Warmup,
    /// Timed pass `k` (from 1).
    Pass(u32),
    /// The traced run's per-layer probes.
    Probe,
}

impl Phase {
    fn label(self) -> String {
        match self {
            Phase::Setup => "setup".into(),
            Phase::Warmup => "warmup".into(),
            Phase::Pass(k) => format!("pass{k}"),
            Phase::Probe => "probe".into(),
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `danner.seed_broadcast`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Process CPU nanoseconds inside the span.
    pub cpu_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The part of the run the span belongs to.
    pub phase: Phase,
    /// Allocations made inside the span.
    pub alloc: Alloc,
}

impl Span {
    /// The span's CPU seconds.
    pub fn secs(&self) -> f64 {
        self.cpu_ns as f64 * 1e-9
    }
}

/// Records spans when on; otherwise runs the wrapped calls untouched.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    phase: Phase,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`on`) or only forwards calls.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            phase: Phase::Setup,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Tags the spans that follow with `phase`.
    pub fn set_phase(&mut self, phase: Phase) {
        self.phase = phase;
    }

    /// Runs `f` inside a span called `name`. `f` must not unwind: callers
    /// catch panics inside the span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let cpu_start = cpu_now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            cpu_ns: 0,
            parent: self.open.last().copied(),
            phase: self.phase,
            alloc: alloc_snapshot(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        let span = &mut self.spans[index];
        span.end_ns = self.origin.elapsed().as_nanos() as u64;
        span.cpu_ns = ((cpu_now() - cpu_start) * 1e9) as u64;
        span.alloc = alloc_snapshot().since(span.alloc);
        out
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans called `name` in `phase` (any phase when `None`).
    pub fn named<'a>(
        &'a self,
        name: &'a str,
        phase: Option<Phase>,
    ) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name && phase.is_none_or(|p| s.phase == p))
    }

    /// Total CPU seconds of the spans called `name` in `phase`.
    pub fn total_secs(&self, name: &str, phase: Option<Phase>) -> f64 {
        self.named(name, phase).map(Span::secs).sum()
    }

    /// Self time of every span: its wall duration minus the time its child
    /// spans cover (children never overlap: the benchmark runs on one
    /// thread).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Writes every span as JSON to `path`, through a temporary file that is
    /// renamed once complete, so an interrupted run leaves no partial file.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating, writing, syncing or renaming.
    pub fn write(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let self_ns = self.self_ns();
        let mut out = String::with_capacity(160 * self.spans.len() + 256);
        let _ = write!(out, "{{{header},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"pass\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"cpu_ns\":{},\"self_ns\":{},\"parent\":{parent},\"alloc_bytes\":{},\"allocs\":{}}}",
                s.name,
                s.phase.label(),
                s.start_ns,
                s.end_ns,
                s.cpu_ns,
                self_ns[i],
                s.alloc.bytes,
                s.alloc.count,
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let tmp = path.with_extension("json.tmp");
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(out.as_bytes())?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut t = Tracer::new(true);
        t.set_phase(Phase::Pass(1));
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(t.self_ns()[0] < spans[0].end_ns - spans[0].start_ns);
        assert!(spans[1].cpu_ns < 2_000_000, "sleeping is not CPU time");
        assert_eq!(t.named("inner", Some(Phase::Pass(1))).count(), 1);
        assert_eq!(t.named("inner", Some(Phase::Probe)).count(), 0);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
